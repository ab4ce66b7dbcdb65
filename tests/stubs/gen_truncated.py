"""Stub generator: writes the start of a reply line, then exits."""
import sys


sys.stdin.readline()
sys.stdout.write("OK text=cut%20sho")
sys.stdout.flush()
