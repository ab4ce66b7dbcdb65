"""Engine-free correctness oracle for benchmark traces.

`check(text, expected, workload)` reads a rendered trace, checks the
trace invariants below, compares the trace's event counts with the
shape the generator predicted, and returns (problems, counts).  It never
imports gvbsim, so a change to the engine cannot change the oracle.

Invariants:
  - `seq` runs 1, 2, 3, ... and `t` never decreases;
  - every placed session ends exactly once, and only placed sessions end;
  - per waiting episode: bursts <= N, each duration <= t, sequence numbers
    run 1, 2, ..., and each burst starts >= previous end + G;
  - each PERMIT is followed by exactly one BURST_SENT or
    BURST_WINDOW_SILENT for the same session and start;
  - each ROUTING tier equals the tier recomputed from its ASSESSMENT
    score and the active thresholds, floored at medium for callers the
    callee pre-approved, and its kind matches the tier.
"""
from __future__ import annotations

import re
from collections import Counter

TIERS = ("none", "low", "medium", "highest")
KIND_OF_TIER = {
    "none": "standard_waiting",
    "low": "permit_text_burst_with_beep",
    "medium": "permit_voice_burst",
    "highest": "connect_override",
}
_ESCAPE = re.compile("%([0-9A-Fa-f]{2})")
SCORE_DECIMALS_TOLERANCE = 5e-7  # scores are rendered with six decimals


def _decode(value: str) -> str:
    return _ESCAPE.sub(lambda m: chr(int(m.group(1), 16)), value)


def parse(text: str) -> list[tuple[int, int, str, str, dict[str, str]]]:
    """Split a rendered trace into (t, seq, component, event, fields)."""
    records = []
    for line in text.splitlines():
        head_t, head_seq, component, event, *rest = line.split(" ")
        fields = {}
        for token in rest:
            key, _, value = token.partition("=")
            fields[key] = _decode(value) if "%" in value else value
        records.append((int(head_t[2:]), int(head_seq[4:]), component, event, fields))
    return records


def _tier_of(score: float, thresholds: tuple[float, float, float]) -> set[str]:
    """Tiers consistent with a six-decimal score (two near a threshold)."""
    connect, voice, text = thresholds
    tiers = set()
    for s in (score - SCORE_DECIMALS_TOLERANCE, score + SCORE_DECIMALS_TOLERANCE):
        tiers.add("highest" if s >= connect else "medium" if s >= voice
                  else "low" if s >= text else "none")
    return tiers


def check(text: str, expected: dict[str, int] | None, workload: str) -> tuple[list[str], Counter]:
    problems: list[str] = []

    def fail(msg: str) -> None:
        if len(problems) < 20:
            problems.append(msg)

    counts: Counter = Counter()
    thresholds = (0.9, 0.6, 0.3)
    approved: dict[str, set[str]] = {}
    placed: dict[str, tuple[str, str]] = {}
    ended: Counter = Counter()
    waited: set[str] = set()
    score_of: dict[str, float] = {}
    ledger: dict[str, dict] = {}
    pending_permit: tuple[str, str] | None = None
    last_t, last_seq = 0, 0
    for t, seq, _component, event, f in parse(text):
        if seq != last_seq + 1:
            fail(f"seq {seq} follows {last_seq}")
        if t < last_t:
            fail(f"seq {seq}: t={t} goes back from {last_t}")
        last_t, last_seq = t, seq
        counts[event] += 1
        if pending_permit is not None and event in ("PERMIT", "BURST_SENT", "BURST_WINDOW_SILENT"):
            if event == "PERMIT" or (f["session"], f["start"]) != pending_permit:
                fail(f"seq {seq}: PERMIT {pending_permit} not followed by its burst record")
            pending_permit = None
        elif pending_permit is None and event in ("BURST_SENT", "BURST_WINDOW_SILENT"):
            fail(f"seq {seq}: {event} without a PERMIT")
        sid = f.get("session")
        if event == "THRESHOLDS_SET":
            thresholds = (float(f["connect"]), float(f["voice"]), float(f["text"]))
        elif event == "POLICY_SET":
            approved[f["callee"]] = set(f["approved"].split(",")) - {"-"}
        elif event == "CALL_PLACED":
            if sid in placed:
                fail(f"seq {seq}: session {sid} placed twice")
            placed[sid] = (f["caller"], f["callee"])
        elif event == "CALL_WAITING":
            waited.add(sid)
        elif event == "CALL_CONNECTED":
            counts["answered" if sid in waited else "connected_direct"] += 1
        elif event == "CALL_ENDED":
            ended[sid] += 1
            counts["ended_timeout" if f["by"] == "timeout" else "ended_hangup"] += 1
        elif event == "ASSESSMENT":
            score_of[sid] = float(f["score"])
        elif event == "ROUTING":
            counts[f"tier_{f['tier']}"] += 1
            caller, callee = placed.get(sid, ("?", "?"))
            allowed = _tier_of(score_of.get(sid, -1.0), thresholds)
            if caller in approved.get(callee, ()):
                allowed = {max(tier, "medium", key=TIERS.index) for tier in allowed}
            if f["tier"] not in allowed:
                fail(f"seq {seq}: session {sid} routed {f['tier']}, expected {sorted(allowed)}")
            if f["kind"] != KIND_OF_TIER.get(f["tier"]):
                fail(f"seq {seq}: session {sid} kind {f['kind']} for tier {f['tier']}")
        elif event == "BURSTS_ADMITTED":
            ledger[sid] = {"t": int(f["t"]), "G": int(f["G"]), "N": int(f["N"]), "n": 0, "end": None}
        elif event == "PERMIT":
            pending_permit = (sid, f["start"])
        elif event == "BURST_DENIED":
            counts["denied_gap" if f["reason"] == "gap_not_elapsed" else "denied_budget"] += 1
        elif event in ("BURST_SENT", "BURST_WINDOW_SILENT"):
            led = ledger.get(sid)
            start, duration = int(f["start"]), int(f["duration"])
            if led is None:
                fail(f"seq {seq}: burst for session {sid} without BURSTS_ADMITTED")
                continue
            led["n"] += 1
            if int(f["sequence"]) != led["n"] or led["n"] > led["N"]:
                fail(f"seq {seq}: burst {f['sequence']} of session {sid} breaks budget {led['N']}")
            if not 1 <= duration <= led["t"]:
                fail(f"seq {seq}: burst of {duration}s exceeds t={led['t']}")
            if led["end"] is not None and start < led["end"] + led["G"]:
                fail(f"seq {seq}: burst at {start} inside gap after {led['end']} (G={led['G']})")
            led["end"] = start + duration
        elif event == "GEN":
            counts[f"gen_{f['backend']}"] += 1
        elif event == "GEN_FALLBACK":
            counts[f"fallback_{f['reason']}"] += 1
        elif event == "INCAPACITY" and f["incapacitated"] == "1":
            counts["incapacitated"] += 1
    if pending_permit is not None:
        fail(f"trace ends after PERMIT {pending_permit}")
    for sid in placed:
        if ended[sid] != 1:
            fail(f"session {sid} ended {ended[sid]} times")
    for sid in set(ended) - set(placed):
        fail(f"session {sid} ended but was never placed")

    counts["burst_lines"] = counts["PERMIT"] + counts["BURST_DENIED"] + counts["BURST_REJECTED"]
    observed = {
        "sessions": counts["CALL_PLACED"], "waiting": counts["CALL_WAITING"],
        "overrides": counts["CALL_OVERRIDE_CONNECTED"], "held": counts["CALL_HELD"],
        "resumed": counts["CALL_RESUMED"], "admitted": counts["BURSTS_ADMITTED"],
        "rejected": counts["BURST_REJECTED"], "permits": counts["PERMIT"],
        "generated": counts["GEN"], "sent": counts["BURST_SENT"],
        "silent": counts["BURST_WINDOW_SILENT"], "media_noted": counts["MEDIA_NOTED"],
        "media_ignored": counts["MEDIA_IGNORED"], "dismissed": counts["BURSTS_DISMISSED"],
    }
    for key, want in (expected or {}).items():
        got = observed[key] if key in observed else counts[key]
        if got != want:
            fail(f"shape {key}: trace has {got}, generator predicted {want}")

    fallbacks = counts["GEN_FALLBACK"]
    if workload == "external_gen":
        if fallbacks or counts["gen_template"]:
            fail(f"external_gen: {fallbacks} fallbacks, {counts['gen_template']} template GEN records")
        if counts["gen_external"] == 0 or counts["gen_external"] != counts["PERMIT"]:
            fail("external_gen: not every permitted window was generated externally")
    elif counts["gen_external"] or fallbacks:
        fail(f"{workload}: unexpected external generation or fallback")
    floors = {
        "call_storm": ("CALL_OVERRIDE_CONNECTED", "CALL_RESUMED", "BURSTS_DISMISSED",
                       "ended_timeout", "answered", "tier_none", "tier_low", "tier_medium",
                       "tier_highest", "PERMIT", "BURST_DENIED"),
        "burst_storm": ("denied_gap", "denied_budget", "BURSTS_DISMISSED", "MEDIA_NOTED",
                        "gen_template", "BURST_WINDOW_SILENT", "tier_low", "tier_medium"),
        "external_gen": ("denied_gap", "denied_budget", "gen_external"),
    }
    for key in floors.get(workload, ()):
        if counts[key] == 0:
            fail(f"{workload}: no {key} in the trace, so a layer is bypassed")
    return problems, counts


def shape_metrics(counts: Counter) -> dict[str, int]:
    """The per-layer `shape.*` counts reported by the traced run."""
    return {
        "shape.sessions": counts["CALL_PLACED"],
        **{f"shape.tier_{tier}": counts[f"tier_{tier}"] for tier in TIERS},
        "shape.overrides": counts["CALL_OVERRIDE_CONNECTED"],
        "shape.bursts_sent": counts["BURST_SENT"],
        "shape.denials": counts["BURST_DENIED"],
        "shape.gen_template": counts["gen_template"],
        "shape.gen_external": counts["gen_external"],
        "shape.fallbacks": counts["GEN_FALLBACK"],
        "shape.gen_timeouts": counts["fallback_timeout"],
        "shape.abandon_timeouts": counts["ended_timeout"],
    }
