"""Stub generator: answers the first request with two reply lines in one
write, then answers nothing more."""
import sys


sys.stdin.readline()
sys.stdout.write("OK text=first\nOK text=second\n")
sys.stdout.flush()
for line in sys.stdin:
    pass
