"""Deterministic external generator for the `external_gen` workload.

Speaks gvbsim's stdio line protocol:

    request:  GENERATE max_words=<int> temperature=<decimal> sample=<0|1> seed_rng=<uint> text=<percent-encoded seed>
    response: OK text=<percent-encoded message>   |   ERR <reason>

The reply is a pure function of the seed text and `seed_rng`, so a run's
trace digest can be pinned.  Standard library only.
"""
from __future__ import annotations

import hashlib
import re
import sys

_OPENERS = ("Emergency", "Urgent", "Please help", "This is an emergency")
_ACTIONS = (
    "Send an ambulance", "Call the police", "Send the fire brigade",
    "Come quickly", "Call me back now", "Send someone to check",
)
_FILLER = "right away to my location as soon as you can please hurry".split()


def _decode(text: str) -> str:
    return re.sub("%([0-9A-Fa-f]{2})", lambda m: chr(int(m.group(1), 16)), text)


def _encode(text: str) -> str:
    return text.replace("%", "%25").replace(" ", "%20").replace("\n", "%0A")


def reply(line: str) -> str:
    fields = dict(tok.partition("=")[::2] for tok in line.split()[1:])
    if not line.startswith("GENERATE ") or "text" not in fields:
        return "ERR malformed request"
    try:
        max_words = int(fields.get("max_words", ""))
    except ValueError:
        return "ERR bad max_words"
    seed = _decode(fields["text"])
    digest = hashlib.sha256(f"{fields.get('seed_rng', '0')}|{seed}".encode()).digest()
    first = seed.split(";")[0].split(":")[-1].strip() or "unknown"
    words = " ".join((
        _OPENERS[digest[0] % len(_OPENERS)],
        f"about {first.lower()},",
        _ACTIONS[digest[1] % len(_ACTIONS)].lower(),
        *_FILLER[: 3 + digest[2] % (len(_FILLER) - 3)],
    )).split()
    return "OK text=" + _encode(" ".join(words[:max_words]) + ".")


def main() -> None:
    for line in sys.stdin:
        sys.stdout.write(reply(line.rstrip("\n")) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
