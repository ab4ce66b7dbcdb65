"""Stub generator: writes each reply in two pieces with a pause between,
so the reader sees half a line before the newline arrives."""
import sys
import time


for line in sys.stdin:
    sys.stdout.write("OK text=split%20")
    sys.stdout.flush()
    time.sleep(0.2)
    sys.stdout.write("reply\n")
    sys.stdout.flush()
