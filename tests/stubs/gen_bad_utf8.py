"""Stub generator whose reply is not UTF-8."""
import sys


for line in sys.stdin:
    sys.stdout.buffer.write(b"OK text=\xff\n")
    sys.stdout.flush()
