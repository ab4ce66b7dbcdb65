"""Stub generator that promptly refuses, naming a timeout of its own."""
import sys


for line in sys.stdin:
    sys.stdout.write("ERR upstream model timeout\n")
    sys.stdout.flush()
