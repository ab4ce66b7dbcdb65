"""Stub generator that answers with 1 MiB and no newline, then stays open."""
import sys


for line in sys.stdin:
    sys.stdout.write("OK text=" + "x" * (1 << 20))
    sys.stdout.flush()
