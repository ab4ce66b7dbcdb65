"""Stub generator that never reads its stdin and never answers."""
import time


time.sleep(600)
