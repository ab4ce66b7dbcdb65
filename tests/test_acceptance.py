"""Acceptance suite: one test per shipping criterion.

Each test enforces its stated tolerance and runtime budget and prints a
PASS line (visible with `pytest -s`).  Everything runs against the
built-in template backend; the external-generator criteria use the
scripted stubs under tests/stubs/.
"""
from __future__ import annotations

import hashlib
import os
import random
import subprocess
import sys
import time
from pathlib import Path

from gvbsim.calls import ROUTING_KINDS, CallState, CallSession, route_waiting_call
from gvbsim.cli import main
from gvbsim.generation import ExternalBackend, TemplateBackend
from gvbsim.policy import BurstPolicy
from gvbsim.scenario import parse_scenario
from gvbsim.scheduler import (
    BurstLedger,
    Deny,
    DenyReason,
    Permit,
    record_burst,
    request_burst,
)
from gvbsim.scoring import (
    BaselineProfile,
    CallerContext,
    LocationType,
    PriorityTier,
    TierThresholds,
    activity_anomaly,
    assess,
    classify_tier,
    emergency_score,
    health_anomaly,
    location_anomaly,
    timing_anomaly,
)
from gvbsim.sim import RunConfig, run
from gvbsim.trace import TraceRecord

from .conftest import REPO_ROOT, SCENARIO_DIR, stub_command


def announce(number: int, message: str) -> None:
    print(f"ACCEPTANCE {number} PASS: {message}")


def named(records: list[TraceRecord], event: str) -> list[TraceRecord]:
    return [r for r in records if r.event == event]


# --- criterion 1: tier routing table ---

def test_c1_tier_routing_table():
    started = time.perf_counter()
    thresholds = TierThresholds(0.9, 0.6, 0.3)
    waiting = CallSession(1, "C", "A", CallState.WAITING)
    policy = BurstPolicy(callee="A")
    expected = {
        0.95: "connect_override",
        0.7: "permit_voice_burst",
        0.4: "permit_text_burst_with_beep",
        0.1: "standard_waiting",
    }
    for score, kind in expected.items():
        tier = classify_tier(score, thresholds)
        routed, _ = route_waiting_call(waiting, tier, policy)
        assert routed is tier, f"score {score} routed to {routed.token}"
        assert ROUTING_KINDS[routed] == kind
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    announce(1, f"scores 0.95/0.7/0.4/0.1 route to the four routing kinds ({elapsed:.3f}s)")


# --- criterion 2: pre-approved burst timeline ---

def brute_force_starts(t: int, g: int, n: int, horizon: int) -> list[int]:
    """Independent oracle: walk the clock second by second and start a
    full-length burst whenever the stated rules would allow one."""
    starts: list[int] = []
    busy_until = -1
    for now in range(horizon):
        if len(starts) >= n:
            break
        if now <= busy_until:
            continue
        starts.append(now)
        busy_until = now + t + g - 1  # burst runs [now, now+t), gap of g follows
    return starts


def test_c2_preapproved_burst_timeline():
    started = time.perf_counter()
    oracle = brute_force_starts(t=5, g=30, n=3, horizon=400)
    assert oracle == [0, 35, 70]
    policy = BurstPolicy(callee="A", burst_seconds_t=5, gap_seconds_g=30, max_bursts_n=3)
    ledger = BurstLedger(policy)
    starts: list[int] = []
    denial: Deny | None = None
    for now in range(400):
        grant = request_burst(ledger, now)
        if isinstance(grant, Permit):
            starts.append(now)
            ledger = record_burst(ledger, now, 5)
        elif denial is None and grant.reason is DenyReason.BUDGET_EXHAUSTED:
            denial = grant
    assert starts == oracle
    assert starts == [starts[0], starts[0] + 35, starts[0] + 70]
    assert denial is not None and denial.reason is DenyReason.BUDGET_EXHAUSTED
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    announce(2, f"t=5 G=30 N=3 permits at +0/+35/+70 then budget denial ({elapsed:.3f}s)")


# --- criterion 3: runtime scoring scenario ---

def test_c3_runtime_scoring_scenario():
    started = time.perf_counter()
    profile = BaselineProfile(
        usual_locations=frozenset({(0.0, 0.0)}),
        usual_hours=frozenset(range(8, 23)),
        resting_heart_rate=70,
        usual_moving=False,
    )
    emergency = CallerContext(
        location=(40.0, 9.0),
        location_type=LocationType.HIGHWAY,
        hour_of_day=3,
        heart_rate=130,
        moving_speed=14,
    )
    result = assess(emergency, profile)
    # oracle: factors (1, 5/6, 1, 1) under equal weights -> 23/24 = 0.958...
    exact = (1.0 + 5 / 6 + 1.0 + 1.0) / 4
    assert abs(result.emergency_score - exact) <= 1e-9
    assert round(result.emergency_score, 3) == 0.958
    assert result.tier is PriorityTier.HIGHEST
    waiting = CallSession(1, "C", "A", CallState.WAITING)
    tier, _ = route_waiting_call(waiting, result.tier, BurstPolicy(callee="A"))
    assert ROUTING_KINDS[tier] == "connect_override"

    baseline = CallerContext(
        location=(0.0, 0.0),
        location_type=LocationType.HOME,
        hour_of_day=9,
        heart_rate=70,
        moving_speed=0.0,
    )
    calm = assess(baseline, profile)
    assert calm.emergency_score == 0.0
    tier, _ = route_waiting_call(waiting, calm.tier, BurstPolicy(callee="A"))
    assert ROUTING_KINDS[tier] == "standard_waiting"
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    announce(3, f"high-risk context scores 23/24 -> override; baseline waits ({elapsed:.3f}s)")


# --- criterion 4: incapacity substitution ---

def test_c4_silent_burst_generates_a_fitting_message():
    started = time.perf_counter()
    scenario = (SCENARIO_DIR / "silent_generative_burst.gvb").read_text(encoding="utf-8")
    records = run(parse_scenario(scenario))
    sent = named(records, "BURST_SENT")
    assert len(sent) == 1
    assert sent[0].get("payload") == "generated"
    text = sent[0].get("text")
    assert "fire" in text.lower()
    gen = named(records, "GEN")[0]
    t = 5  # policy burst duration in the scenario
    assert float(gen.get("seconds")) <= t
    assert int(gen.get("words")) == len(text.split())
    elapsed = time.perf_counter() - started
    announce(4, f"silent window with fire keywords sends generated text within t ({elapsed:.3f}s)")


# --- criterion 5: scheduler property suite ---

def test_c5_scheduler_property_suite():
    started = time.perf_counter()
    rng = random.Random(0xC5)
    violations = 0
    for _ in range(10_000):
        t = rng.randint(1, 5)
        g = rng.randint(0, 60)
        n = rng.randint(1, 5)
        policy = BurstPolicy(callee="A", burst_seconds_t=t, gap_seconds_g=g, max_bursts_n=n)
        ledger = BurstLedger(policy)
        intervals: list[tuple[int, int]] = []
        now = 0
        for _ in range(rng.randint(1, 10)):
            now += rng.randint(0, 45)
            grant = request_burst(ledger, now)
            if isinstance(grant, Permit):
                if grant.granted_at != now or grant.window_end != now + t:
                    violations += 1
                duration = rng.randint(1, t)
                ledger = record_burst(ledger, now, duration)
                intervals.append((now, now + duration))
        if len(intervals) > n:
            violations += 1
        for (_, prev_end), (start, _) in zip(intervals, intervals[1:]):
            if start < prev_end + g:  # spacing from the previous END
                violations += 1
            if start < prev_end:  # overlap
                violations += 1
    assert violations == 0
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    announce(5, f"10000 random burst sequences, zero scheduler violations ({elapsed:.2f}s)")


# --- criterion 6: priority property suite ---

def test_c6_priority_property_suite():
    started = time.perf_counter()
    rng = random.Random(0xC6)
    thresholds = TierThresholds()
    violations = 0
    factor_fns = (location_anomaly, timing_anomaly, health_anomaly, activity_anomaly)
    for _ in range(10_000):
        profile = BaselineProfile(
            usual_locations=frozenset(
                (rng.uniform(-20, 20), rng.uniform(-20, 20))
                for _ in range(rng.randint(0, 3))
            ),
            usual_hours=frozenset(rng.sample(range(24), rng.randint(1, 24))),
            resting_heart_rate=rng.uniform(40, 100),
            usual_moving=rng.random() < 0.3,
        )
        ctx = CallerContext(
            location=(rng.uniform(-30, 30), rng.uniform(-30, 30))
            if rng.random() < 0.8
            else None,
            location_type=rng.choice(list(LocationType)),
            hour_of_day=rng.randrange(24) if rng.random() < 0.8 else None,
            heart_rate=rng.uniform(20, 250) if rng.random() < 0.8 else None,
            moving_speed=rng.uniform(0, 40) if rng.random() < 0.8 else None,
        )
        scores = [fn(ctx, profile) for fn in factor_fns]
        if any(not 0.0 <= s <= 1.0 for s in scores):
            violations += 1
        weights = [rng.uniform(0.01, 5) for _ in range(4)]
        base = emergency_score(scores, weights)
        index = rng.randrange(4)
        bumped = list(scores)
        bumped[index] = min(1.0, bumped[index] + rng.random() * (1 - bumped[index]))
        if emergency_score(bumped, weights) < base - 1e-15:
            violations += 1
        scale = rng.uniform(0.001, 1000)
        scaled = emergency_score(scores, [w * scale for w in weights])
        if abs(base - scaled) > 1e-12:
            violations += 1
        low, high = sorted((rng.random(), rng.random()))
        if classify_tier(low, thresholds) > classify_tier(high, thresholds):
            violations += 1
    assert violations == 0
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    announce(6, f"10000 random contexts, zero priority violations ({elapsed:.2f}s)")


# --- criterion 7: deterministic golden traces ---

STRESS_TIMEOUT = 25
# Every stress subscriber shares one profile, so each context below lands
# in a known tier: none, low, medium, highest.
STRESS_PROFILE = "home=(0,0) usual_hours=8-22 resting_hr=70 usual_moving=0"
STRESS_CONTEXTS = (
    "loc=(0,0) loctype=home hour=9",
    "loc=(40,9) loctype=highway hour=3",
    "loctype=highway hour=3 hr=130",
    "loctype=highway hour=3 hr=130 speed=14",
)
STRESS_TRANSCRIPTS = ("help", "please pick up", "the car is in a ditch", "call me back")


class _StressShadow:
    """Just enough of the engine's rules to know which `answer` and
    `hangup` lines have a target.  A session is a dict with keys sid,
    caller, callee, state (active | waiting | ended), held, tier, ledger
    (None | "open" | "dismissed") and last (activity time)."""

    def __init__(self, approvals: dict[str, set[str]]):
        self.approvals = approvals
        self.sessions: list[dict] = []

    def live(self, sub: str) -> list[dict]:
        return [
            s for s in self.sessions
            if s["state"] != "ended" and sub in (s["caller"], s["callee"])
        ]

    def connected(self, sub: str, include_held: bool) -> list[dict]:
        return [
            s for s in self.live(sub)
            if s["state"] == "active" and (include_held or not s["held"])
        ]

    def waiting_of_caller(self, caller: str) -> dict | None:
        for s in self.live(caller):
            if s["caller"] == caller and s["state"] == "waiting":
                return s
        return None

    def waiting_for(self, callee: str) -> list[dict]:
        return [s for s in self.live(callee) if s["callee"] == callee and s["state"] == "waiting"]

    def expire(self, now: int) -> None:
        for s in self.sessions:
            if s["state"] == "waiting" and s["last"] + STRESS_TIMEOUT < now:
                s["state"] = "ended"

    def call(self, caller: str, callee: str, tier: int, now: int) -> None:
        session = {"sid": len(self.sessions) + 1, "caller": caller, "callee": callee,
                   "state": "active", "held": False, "tier": tier, "ledger": None, "last": now}
        if self.connected(callee, include_held=True):
            session["state"] = "waiting"
            if caller in self.approvals.get(callee, ()):
                session["tier"] = max(tier, 2)
            if session["tier"] == 3:
                for current in self.connected(callee, include_held=False):
                    current["held"] = True
                session["state"] = "active"
            elif session["tier"] > 0:
                session["ledger"] = "open"
        self.sessions.append(session)

    def touch(self, caller: str, now: int) -> None:
        session = self.waiting_of_caller(caller)
        if session is not None:
            session["last"] = now

    def dismiss(self, callee: str, now: int) -> None:
        for s in self.waiting_for(callee):
            if s["ledger"] == "open":
                s["ledger"], s["last"] = "dismissed", now

    def hangup_target(self, sub: str) -> dict | None:
        def rank(s: dict) -> int | None:
            if s["state"] == "active":
                return 2 if s["held"] else 0
            return 1 if s["caller"] == sub else None

        ranked = [(r, s["sid"], s) for s in self.live(sub) if (r := rank(s)) is not None]
        return min(ranked)[2] if ranked else None

    def hangup(self, sub: str) -> None:
        target = self.hangup_target(sub)
        was_connected = target["state"] == "active" and not target["held"]
        target["state"] = "ended"
        if not was_connected:
            return
        for party in (target["caller"], target["callee"]):
            if self.connected(party, include_held=False):
                continue
            held = [s for s in self.live(party) if s["held"]]
            if held:
                held[0]["held"] = False

    def answer(self, callee: str) -> None:
        waiting = self.waiting_for(callee)
        chosen = max(waiting, key=lambda s: (s["tier"], -s["sid"]))
        for current in self.connected(callee, include_held=False):
            current["state"] = "ended"
        chosen["state"], chosen["ledger"] = "active", None


def stress_scenario(seed: int, calls: int = 300, subscribers: int = 30) -> str:
    """A seeded scenario with overrides that hold and resume, answers,
    hangups, dismisses, admitted and unadmitted bursts, media, and
    abandon timeouts; run it with --abandon-timeout STRESS_TIMEOUT."""
    rng = random.Random(seed)
    subs = [f"S{i}" for i in range(subscribers)]
    lines = [f"subscriber {sub} {STRESS_PROFILE}" for sub in subs]
    approvals: dict[str, set[str]] = {}
    for callee in rng.sample(subs, 8):
        approved = set(rng.sample([s for s in subs if s != callee], 3))
        approvals[callee] = approved
        t, g, n = rng.choice((3, 5)), rng.choice((0, 4, 10)), rng.choice((2, 4, 6))
        lines.append(f"policy {callee} t={t} G={g} N={n} approve={','.join(sorted(approved))}")
    shadow = _StressShadow(approvals)
    now = placed = 0
    while placed < calls:
        now += rng.choice((0, 0, 1, 2, 3, 5, 8, 13, 21, 34))
        shadow.expire(now)
        waiting_callers = sorted({s["caller"] for s in shadow.sessions if s["state"] == "waiting"})
        answerable = sorted({s["callee"] for s in shadow.sessions if s["state"] == "waiting"})
        roll = rng.random()
        if roll < 0.35:
            caller, callee = rng.sample(subs, 2)
            tier = rng.choice((0, 0, 1, 2, 2, 3))
            shadow.call(caller, callee, tier, now)
            placed += 1
            lines.append(f"at {now} call {caller} {callee} {STRESS_CONTEXTS[tier]}")
        elif roll < 0.55:
            pool = waiting_callers if waiting_callers and rng.random() < 0.85 else subs
            caller = rng.choice(pool)
            shadow.touch(caller, now)
            if rng.random() < 0.3:
                body = "silence"
            else:
                body = f'transcript="{rng.choice(STRESS_TRANSCRIPTS)}"'
            extra = rng.choice(("", ' keywords="Fire Kitchen"', ' image="smoke in the hall"'))
            lines.append(f"at {now} burst {caller} {body}{extra}")
        elif roll < 0.63:
            pool = waiting_callers if waiting_callers and rng.random() < 0.8 else subs
            caller = rng.choice(pool)
            shadow.touch(caller, now)
            kind = rng.choice(("image", "video", "gesture"))
            lines.append(f'at {now} media {caller} {kind}="a person collapsed, blood"')
        elif roll < 0.78:
            candidates = [sub for sub in subs if shadow.hangup_target(sub) is not None]
            if candidates:
                sub = rng.choice(candidates)
                shadow.hangup(sub)
                lines.append(f"at {now} hangup {sub}")
        elif roll < 0.92:
            if answerable:
                callee = rng.choice(answerable)
                shadow.answer(callee)
                lines.append(f"at {now} answer {callee}")
        else:
            callee = rng.choice(answerable or subs)
            shadow.dismiss(callee, now)
            lines.append(f"at {now} dismiss {callee}")
    return "\n".join(lines) + "\n"


# sha256 of each trace at --rng-seed 7: any change to a trace byte fails here.
GOLDEN_DIGESTS = {
    "preapproved_bursts.gvb": "e52716d546d4a7b664806a20671e848be8d048836e1809aa69147b20a8751646",
    "runtime_override.gvb": "2673c2245aadf2f3ebad0ab93139e64d6064f112b89dbb98c303d120dc09eb7f",
    "silent_generative_burst.gvb": "adbf569dfdced6db9ea0a38cc6ed91ba9d8ccc189ffcd07f760b2799f939d3e4",
    "stress.gvb": "42c1dbec99bf8b91770fa7d54e82682af230100b2e56fc490e4602350fcb5355",
}
STRESS_PATHS = (
    " CALL_OVERRIDE_CONNECTED ", " CALL_HELD ", " CALL_RESUMED ", " BURSTS_DISMISSED ",
    " MEDIA_NOTED ", " PERMIT ", " BURST_DENIED ", "reason=not_admitted", " GEN ",
    "by=timeout",
)


def test_c7_golden_traces_hash_identically(tmp_path: Path):
    started = time.perf_counter()
    stress = tmp_path / "stress.gvb"
    stress.write_text(stress_scenario(seed=2024), encoding="utf-8")
    runs = [(path, []) for path in sorted(SCENARIO_DIR.glob("*.gvb"))]
    runs.append((stress, ["--abandon-timeout", str(STRESS_TIMEOUT)]))
    assert sorted(path.name for path, _ in runs) == sorted(GOLDEN_DIGESTS)
    for scenario, extra in runs:
        trace_path = tmp_path / f"{scenario.stem}.trace"
        code = main(["run", str(scenario), "--trace", str(trace_path), "--rng-seed", "7", *extra])
        assert code == 0
        digest = hashlib.sha256(trace_path.read_bytes()).hexdigest()
        assert digest == GOLDEN_DIGESTS[scenario.name], f"{scenario.name} trace changed"
    stress_trace = (tmp_path / "stress.trace").read_text(encoding="utf-8")
    assert all(path in stress_trace for path in STRESS_PATHS)
    elapsed = time.perf_counter() - started
    announce(7, f"all golden scenarios match their pinned trace digests ({elapsed:.3f}s)")


# The approvals are a string set; this scenario gives them four members, so
# their order in POLICY_SET would show a hash-seeded iteration order.
HASH_SEED_SCENARIO = """\
subscriber A
subscriber B
subscriber C home=(0,0) usual_hours=8-22 resting_hr=70 usual_moving=0
subscriber D
policy A t=5 G=30 N=3 approve=C,D,E,F
at 0 call A B
at 10 call C A loc=(0,0) loctype=home hour=9
at 11 media C video="smoke and someone collapsed"
at 12 burst C transcript="help me" keywords="fire"
at 20 call D A
at 21 burst D silence image="blood on the floor"
at 60 hangup C
at 70 hangup A
"""
_TRACE_DIGESTS = """
import hashlib, sys
from pathlib import Path
from gvbsim import parse_scenario, render_trace, run
for path in sys.argv[1:]:
    trace = render_trace(run(parse_scenario(Path(path).read_text(encoding="utf-8"))))
    print(hashlib.sha256(trace.encode("utf-8")).hexdigest())
"""


def test_c7_traces_do_not_depend_on_the_hash_seed(tmp_path: Path):
    inline = tmp_path / "hash_seed.gvb"
    inline.write_text(HASH_SEED_SCENARIO, encoding="utf-8")
    paths = [str(path) for path in sorted(SCENARIO_DIR.glob("*.gvb"))] + [str(inline)]
    digests = []
    for hash_seed in ("0", "1"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": str(REPO_ROOT / "src")}
        result = subprocess.run(
            [sys.executable, "-c", _TRACE_DIGESTS, *paths],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert result.returncode == 0, result.stderr
        digests.append(result.stdout.split())
    assert len(digests[0]) == len(paths)
    assert digests[0] == digests[1]


# --- criterion 8: external generator protocol ---

def _run_silent_scenario(backend) -> list[TraceRecord]:
    scenario = (SCENARIO_DIR / "silent_generative_burst.gvb").read_text(encoding="utf-8")
    try:
        return run(parse_scenario(scenario), RunConfig(backend=backend))
    finally:
        backend.close()


def test_c8_external_protocol_and_fallback():
    started = time.perf_counter()
    # a healthy stub sees the documented request parameters
    records = _run_silent_scenario(ExternalBackend(stub_command("gen_echo.py"), timeout=10.0))
    gen = named(records, "GEN")[0]
    assert gen.get("backend") == "external"
    echoed_request = gen.get("text")
    assert "max_words=50" in echoed_request
    assert "temperature=0.9" in echoed_request
    assert "sample=1" in echoed_request
    assert not named(records, "GEN_FALLBACK")

    # a stub that never answers: exactly one fallback, template text used
    records = _run_silent_scenario(ExternalBackend(stub_command("gen_sleepy.py"), timeout=0.3))
    fallbacks = named(records, "GEN_FALLBACK")
    assert len(fallbacks) == 1
    assert fallbacks[0].get("reason") == "timeout"
    seed = "keywords: House Fire Help Come; location: home"
    expected = TemplateBackend().generate(seed, 0)
    sent = named(records, "BURST_SENT")[0]
    assert sent.get("text") == expected
    assert named(records, "GEN")[0].get("backend") == "template"
    elapsed = time.perf_counter() - started
    announce(8, f"request carries the default parameters; timeout falls back once ({elapsed:.2f}s)")
