"""The failures the program acts on.  A value that breaks any other rule
raises ValueError, which the scenario parser and the simulation turn into
a ParseError or a SimError carrying the offending line."""
from __future__ import annotations


class _LineError(Exception):
    """A failure that names the scenario line it came from."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no
        self.message = message


class ParseError(_LineError):
    """Scenario text could not be parsed (the CLI exits 2)."""


class SimError(_LineError):
    """A scenario event could not be applied (the CLI exits 1)."""


class ExternalGeneratorError(Exception):
    """External generator failed; generation falls back to the template."""


class ExternalTimeout(ExternalGeneratorError):
    """External generator did not answer within the configured timeout."""
