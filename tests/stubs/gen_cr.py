"""Stub generator: replies with a carriage return and a vertical tab in its
text, which `str.splitlines` would take for line breaks."""
import sys


for line in sys.stdin:
    sys.stdout.write("OK text=help%0Dme%0Bnow\n")
    sys.stdout.flush()
