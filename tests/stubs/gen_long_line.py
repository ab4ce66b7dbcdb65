"""Stub generator: replies with one line of exactly argv[1] bytes, newline
included, written in pieces so the newline arrives last."""
import sys


length = int(sys.argv[1])
for line in sys.stdin:
    reply = "OK text=" + "x" * (length - len("OK text=") - 1)
    for start in range(0, len(reply), 4096):
        sys.stdout.write(reply[start:start + 4096])
        sys.stdout.flush()
    sys.stdout.write("\n")
    sys.stdout.flush()
