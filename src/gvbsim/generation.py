"""Emergency message generation: seed composition, a deterministic
template backend, an optional external generator protocol, and fitting
messages to the burst duration.

Generation takes a seed text (`compose_seed`), an RNG seed and the
caller's place (`LocationType.seed_text`, also the seed's `location` part).
Both backends share `generate(seed, rng_seed, location)`: the template
names the place when no rule matches, and the external peer reads it in
the seed.  `generate_message` falls back from any backend to the
template.  The external generator speaks a one-line-per-message protocol
over a child process's stdin and stdout; a generator on the network is
reached through a relay command such as `nc`:

    request:  GENERATE max_words=50 temperature=0.9 sample=1
              seed_rng=<uint> text=<percent-encoded seed>
    response: OK text=<percent-encoded message>   |   ERR <reason>

Percent-encoding covers space, percent, and newline bytes.  Any external
failure (timeout, dead process, ERR reply, a response line that is
over-long, malformed or not UTF-8) falls back to the template backend; the
returned message keeps the exception as its `fallback`.
Requests may be written ahead of their replies (`ExternalBackend.ask`); the
peer answers them, and their replies are read, in the order asked.  Replies
are read on the calling thread, `select` waiting on the pipe (on POSIX only)
until each reply's deadline.
"""
from __future__ import annotations

import math
import os
import re
import time
from typing import NamedTuple

from .errors import ExternalGeneratorError, ExternalTimeout
from .incapacity import term_alternation

# Every request asks for at most MAX_WORDS words at TEMPERATURE, sampled;
# the template caps its own text at MAX_WORDS too.
MAX_WORDS = 50
TEMPERATURE = 0.9
# Words per second a message is spoken at: the fitted length of every
# generated message and the window of every spoken transcript.
SPEAKING_RATE_WPS = 2.5
DEFAULT_EXTERNAL_TIMEOUT_S = 2.0
# Longest generator response line accepted, newline included, so a peer
# that never ends a line cannot grow the read buffer until the timeout.
MAX_RESPONSE_LINE_BYTES = 64 * 1024
# Bytes of unanswered requests at which their replies are read before more
# are asked; at most half of a Linux pipe's default buffer, so a write cannot
# block on a child that has stopped reading unless one request is that long.
ASK_AHEAD_BYTES = 8 * 1024


# The seed's parts in the order they are written.  The media labels are
# the `Modality` values of the media kinds.
SEED_LABELS = ("keywords", "gesture", "image", "video", "speech", "location")


def compose_seed(**parts: str | None) -> str:
    """`label: text` for each part that is not None, in `SEED_LABELS`
    order, joined by "; "; "" when no part is present."""
    unknown = parts.keys() - SEED_LABELS
    if unknown:
        raise TypeError(f"compose_seed() got unknown seed labels {sorted(unknown)}")
    seed = []
    for label in SEED_LABELS:
        text = parts.get(label)
        if text is not None:
            seed.append(f"{label}: {text}")
    return "; ".join(seed)


class GeneratedMessage(NamedTuple):
    text: str
    backend: str  # the `kind` of the backend that wrote `text`
    fallback: ExternalGeneratorError | None = None  # why the template stood in

    @property
    def word_count(self) -> int:
        return len(self.text.split())

    @property
    def fallback_reason(self) -> str | None:
        return None if self.fallback is None else str(self.fallback)


# The first rule in this order whose term is anywhere in the seed, as a
# whole word in any case, picks the message: "smoke then fire" is a fire.
# Each message repeats its trigger term so the output stays anchored to
# the seed content.
_TEMPLATE_RULES: tuple[tuple[str, str], ...] = (
    ("fire", "The house is on fire. Please send help immediately."),
    ("smoke", "There is smoke everywhere. Please send the fire brigade."),
    ("accident", "I have met an accident. Please send an ambulance."),
    ("crash", "There has been a crash. Please send an ambulance."),
    ("fainting", "I am fainting. Please send medical help."),
    ("faint", "I feel faint. Please send medical help."),
    ("collapsed", "Someone has collapsed. Please send an ambulance."),
    ("blood", "There is blood and someone is hurt. Please send an ambulance."),
    ("intruder", "An intruder is in the house. Please call the police."),
    ("thief", "A thief has entered the house. Please call the police."),
)
_TEMPLATE_TERMS = term_alternation(tuple(term for term, _ in _TEMPLATE_RULES))

def _template_text(seed: str, location: str | None = None) -> str:
    rule = None
    for match in _TEMPLATE_TERMS.finditer(seed):
        if rule is None or match.lastindex < rule:
            rule = match.lastindex
    if rule is not None:
        return _TEMPLATE_RULES[rule - 1][1]
    if location is not None:
        return f"Emergency. Please call back immediately. Location: {location}."
    return "Emergency. Please call back immediately."


class TemplateBackend:
    """Deterministic rule-table generator; pure in its inputs, so
    `rng_seed` is taken only to match `ExternalBackend.generate`."""

    kind = "template"

    def generate(self, seed: str, rng_seed: int, location: str | None = None) -> str:
        text = _template_text(seed, location)
        words = text.split()
        if len(words) > MAX_WORDS:
            # keep the output sentence-terminated even when capped
            text = " ".join(words[:MAX_WORDS]).rstrip(".,;:") + "."
        return text

    def close(self) -> None:
        pass


# --- external generator wire protocol ---

def encode_text(text: str) -> str:
    """Percent-encode the bytes the line protocol reserves."""
    return text.replace("%", "%25").replace(" ", "%20").replace("\n", "%0A")


_HEX_DIGITS = "0123456789abcdefABCDEF"
_ESCAPED = {a + b: chr(int(a + b, 16)) for a in _HEX_DIGITS for b in _HEX_DIGITS}


def decode_text(text: str) -> str:
    """Replace each `%XX` escape (hex digits in any case) by its character."""
    parts = text.replace("%20", " ").split("%")
    for i in range(1, len(parts)):
        piece = parts[i]
        char = _ESCAPED.get(piece[:2])
        parts[i] = "%" + piece if char is None else char + piece[2:]
    return "".join(parts)


def build_request_line(seed: str, rng_seed: int) -> str:
    if rng_seed < 0:
        raise ValueError(f"rng_seed must be unsigned, got {rng_seed}")
    return (
        f"GENERATE max_words={MAX_WORDS} temperature={TEMPERATURE:g} sample=1"
        f" seed_rng={rng_seed} text={encode_text(seed)}"
    )


def parse_response_line(line: str) -> str:
    line = line.rstrip("\r\n")
    if line.startswith("OK text="):
        return decode_text(line[len("OK text="):])
    if line.startswith("ERR"):
        reason = line[3:].strip() or "unspecified"
        raise ExternalGeneratorError(f"generator error: {reason}")
    raise ExternalGeneratorError(f"malformed response: {line!r}")


class ExternalBackend:
    """Client for an out-of-process generator: `target` is the command line
    of a child process, spawned when a reply is first needed, whose stdin and
    stdout are the connection.  Requests asked ahead (`ask`) go in one write
    when a reply is needed, and replies are read in order.  A failure of the
    transport is the ExternalGeneratorError of the reply being read and ends
    the child; the next child is sent every request still unanswered.
    """

    kind = "external"

    def __init__(self, target: str, timeout: float = DEFAULT_EXTERNAL_TIMEOUT_S):
        # The transport's modules load with the first external backend, so a
        # template run never imports `select` or `subprocess` and no request
        # pays for the import.
        import select, shlex, subprocess  # noqa: E401, F401

        # the command's words, split once; an unclosed quote raises ValueError
        self._argv = shlex.split(target)
        if not self._argv:
            raise ValueError(f"external generator command has no words: {target!r}")
        self._timeout = timeout
        self._proc: subprocess.Popen[bytes] | None = None
        self._pending = bytearray()  # bytes read past the last reply line
        # ((seed, rng_seed), request) per unread reply, in order; the child has the first `_written`
        self._unanswered: list[tuple[tuple[str, int], bytes]] = []
        self._unanswered_bytes = 0  # their lengths, summed
        self._written = 0

    def ask(self, seed: str, rng_seed: int) -> None:
        """Queue the request for `seed`, to be written with the next one
        whose reply is needed; `generate` reads its reply."""
        request = build_request_line(seed, rng_seed).encode("utf-8") + b"\n"
        self._unanswered.append(((seed, rng_seed), request))
        self._unanswered_bytes += len(request)

    def full(self) -> bool:
        """Whether the unanswered requests reach ASK_AHEAD_BYTES, so their
        replies are due before more are asked."""
        return self._unanswered_bytes >= ASK_AHEAD_BYTES

    def _read_line(self, fd: int) -> bytes:
        """The next reply line on `fd`, newline included.  The line cap is
        checked as bytes arrive, so an endless line fails before the deadline."""
        import select

        deadline = time.monotonic() + self._timeout
        pending, scanned, cap = self._pending, 0, MAX_RESPONSE_LINE_BYTES
        while (end := pending.find(b"\n", scanned)) < 0 and len(pending) <= cap:
            scanned = len(pending)
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not select.select([fd], [], [], remaining)[0]:
                raise ExternalTimeout("timeout waiting for generator response")
            chunk = os.read(fd, cap)
            if not chunk:
                raise ExternalGeneratorError("generator closed its output stream")
            pending += chunk
        if not 0 <= end < cap:
            raise ExternalGeneratorError(f"generator response line exceeds {cap} bytes")
        line = bytes(pending[: end + 1])
        del pending[: end + 1]
        return line

    def generate(self, seed: str, rng_seed: int, location: str | None = None) -> str:
        """The reply to the oldest unanswered request, which must be `seed`'s
        (a read out of turn raises TypeError); `seed` is asked if none waits."""
        from subprocess import DEVNULL, PIPE, Popen

        unanswered = self._unanswered
        if not unanswered:
            self.ask(seed, rng_seed)
        elif unanswered[0][0] != (seed, rng_seed):
            raise TypeError(f"reply read out of turn: {(seed, rng_seed)} before {unanswered[0][0]}")
        try:
            if self._proc is None:
                try:
                    self._proc = Popen(self._argv, stdin=PIPE, stdout=PIPE, stderr=DEVNULL)
                except (OSError, ValueError) as exc:
                    raise ExternalGeneratorError(f"cannot reach generator: {exc}") from exc
            stdin, stdout = self._proc.stdin, self._proc.stdout
            assert stdin is not None and stdout is not None
            if self._written < len(unanswered):
                stdin.write(b"".join(request for _, request in unanswered[self._written:]))
                stdin.flush()
                self._written = len(unanswered)
            reply = self._read_line(stdout.fileno())
        except (OSError, ExternalGeneratorError) as exc:
            self._end_child()
            self._unanswered_bytes -= len(unanswered.pop(0)[1])
            if isinstance(exc, ExternalGeneratorError):
                raise
            raise ExternalGeneratorError(f"generator transport failed: {exc}") from exc
        self._unanswered_bytes -= len(unanswered.pop(0)[1])
        self._written -= 1
        try:
            return parse_response_line(reply.decode("utf-8"))
        except UnicodeDecodeError:
            raise ExternalGeneratorError(f"malformed response: {reply!r}") from None

    def _end_child(self) -> None:
        proc, self._proc, self._written = self._proc, None, 0
        self._pending.clear()
        if proc is None:
            return
        assert proc.stdin is not None and proc.stdout is not None
        try:
            proc.stdin.close()
        except OSError:
            pass
        proc.kill()
        proc.wait()
        proc.stdout.close()

    def close(self) -> None:
        """End the child and forget every request not yet answered."""
        self._end_child()
        self._unanswered.clear()
        self._unanswered_bytes = 0


def build_backend(spec: str):
    """Build a backend from a CLI-style spec: `template` or `external=<target>`."""
    if spec == "template":
        return TemplateBackend()
    if spec.startswith("external="):
        return ExternalBackend(spec[len("external="):])
    raise ValueError(f"unknown backend spec {spec!r}")


_TEMPLATE = TemplateBackend()


def generate_message(
    seed: str,
    backend: TemplateBackend | ExternalBackend = _TEMPLATE,
    rng_seed: int = 0,
    location: str | None = None,
) -> GeneratedMessage:
    """Produce a message for `seed`, the caller being at `location`;
    external failures fall back to the template backend and note the
    reason on the message."""
    if not seed.strip():
        raise ValueError("seed must be non-empty")
    fallback: ExternalGeneratorError | None = None
    try:
        text, kind = backend.generate(seed, rng_seed, location), backend.kind
        if not text.strip():
            raise ExternalGeneratorError("generator returned empty text")
    except ExternalGeneratorError as exc:
        fallback = exc.with_traceback(None)  # the message keeps no frames alive
        text, kind = _TEMPLATE.generate(seed, rng_seed, location), _TEMPLATE.kind
    return GeneratedMessage(text, kind, fallback)


_SENTENCE_SPLIT = re.compile(r"[^.!?]+[.!?]+|[^.!?]+$")


def _sentences(text: str) -> list[str]:
    return [chunk.strip() for chunk in _SENTENCE_SPLIT.findall(text) if chunk.strip()]


def word_budget(t: int) -> int:
    """The most words that speak within `t` seconds, at least 2."""
    if t < 1:
        raise ValueError(f"burst duration must be >= 1s, got {t}")
    try:
        return math.floor(t * SPEAKING_RATE_WPS)
    except OverflowError:
        raise ValueError(f"burst duration times {SPEAKING_RATE_WPS} words/s overflows") from None


def fit_to_duration(msg: GeneratedMessage, t: int) -> GeneratedMessage:
    """Shrink `msg` so it speaks within `t` seconds.

    Whole trailing sentences are dropped first; if even the first sentence
    exceeds the word budget, the text is cut at the budget.
    """
    budget = word_budget(t)
    words = msg.text.split()
    if len(words) <= budget:
        return msg
    kept: list[str] = []
    used = 0
    for sentence in _sentences(msg.text):
        sentence_words = len(sentence.split())
        if used + sentence_words > budget:
            break
        kept.append(sentence)
        used += sentence_words
    return msg._replace(text=" ".join(kept) if kept else " ".join(words[:budget]))
