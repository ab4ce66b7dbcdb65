"""Seeded scenario generator for the gvbsim benchmark.

    python3 perfbench/gen.py <workload> <seed> <size>

prints a scenario for `workload` (see WORKLOADS) to stdout.  `size`
counts calls for `call_storm` and burst/media lines for the burst
workloads.  The same (workload, seed, size) always gives the same bytes.

The generator never imports gvbsim.  It keeps a small shadow model of the
engine's call, routing and burst-budget rules, so that every `hangup` and
`answer` it writes has a target, and so that it can predict how many
sessions, tiers, overrides, permits, denials and generated messages the
trace must show.  The oracle compares those predictions with the trace.
"""
from __future__ import annotations

import math
import random
import sys

ABANDON_TIMEOUT = 120  # the CLI default, which the benchmark does not override
SPEAKING_RATE = 2.5  # words per second, the CLI default
THRESHOLDS = (0.9, 0.6, 0.3)  # written into every scenario
NONE, LOW, MEDIUM, HIGHEST = 0, 1, 2, 3
TIER_NAMES = ("none", "low", "medium", "highest")
HIGH_RISK = ("highway", "hospital", "isolated")
KEYWORDS = ("help", "can't speak")  # the engine's default incapacity phrases

# Why each workload exists; later changes refer to the workloads by name.
WORKLOADS = {
    "call_storm": (
        "Thousands of calls into busy callees grow the session table, so the "
        "per-event full-table scans in sim expiry and CallEngine dominate."
    ),
    "burst_storm": (
        "Forty callers wait on four busy callees and send tens of thousands of "
        "bursts and media lines: parsing, scheduling, incapacity, templates, rendering."
    ),
    "external_gen": (
        "The burst_storm shape with every window incapacitated, generated by an "
        "external stdio child: the line protocol, the reader thread and the spawn."
    ),
}
FULL_SIZE = {"call_storm": 2000, "burst_storm": 24000, "external_gen": 6000}
DEFAULT_SEED = 1
HELD_OUT_SEED = 90210

_PLAIN_WORDS = (
    "please call me back when you can it is about the car keys dinner tonight "
    "school pickup meeting moved to four running late traffic on bridge battery "
    "low phone dying answer now urgent news from office doctor appointment changed "
    "grandma visiting tomorrow parcel arrived door code garage open dog out again "
    "train delayed platform seven lunch booked noon bring charger blue folder"
).split()
_SEED_KEYWORDS = (
    "House Fire Come", "Car Crash Highway", "Intruder Downstairs Quiet",
    "Chest Pain Fainting", "Blood Kitchen Floor", "Smoke Upstairs Hurry",
    "Lost Cold Dark", "Thief Window Police", "Collapsed Garden", "Accident Bridge",
)
_DISTRESS_MEDIA = (
    "a kitchen full of smoke and a pan on the stove",
    "car wreck after an accident on the wet road",
    "a person collapsed on the hallway floor",
    "blood on the carpet near the front door",
    "an intruder climbing through the back window",
    "flames and smoke from the garage roof, fire spreading",
    "the caller looks faint and grey, blood on one sleeve",
)
_PLAIN_MEDIA = (
    "a quiet living room with the lights on",
    "a sunny park bench beside a pond",
    "two thumbs up at the camera",
    "a plate of pasta on the kitchen table",
    "a child waving hello from the garden",
    "an empty car park at dusk",
)


# --- shadow of the scoring rules (default weights and the THRESHOLDS above) ---


def _tier(score: float) -> int:
    connect, voice, text = THRESHOLDS
    if score >= connect:
        return HIGHEST
    if score >= voice:
        return MEDIUM
    if score >= text:
        return LOW
    return NONE


def _hours(lo: int, hi: int) -> list[int]:
    return list(range(lo, hi + 1)) if lo <= hi else list(range(lo, 24)) + list(range(hi + 1))


def _score(ctx: dict, prof: dict) -> float:
    if ctx["loctype"] in HIGH_RISK:
        loc = 1.0
    elif "loc" not in ctx:
        loc = 0.0
    else:
        loc = min(1.0, math.dist(ctx["loc"], prof["home"]) / 5.0)
    hour = ctx.get("hour")
    if hour is None or hour in prof["hours"]:
        timing = 0.0
    else:
        gap = min(min(abs(hour - u), 24 - abs(hour - u)) for u in prof["hours"])
        timing = min(1.0, gap / 6.0)
    hr = ctx.get("hr")
    health = 0.0 if hr is None else min(1.0, max(0.0, (hr - prof["rest"]) / 60.0))
    speed = ctx.get("speed")
    activity = 0.0 if speed is None or prof["moving"] else min(1.0, speed / 10.0)
    return (loc + timing + health + activity) / 4


def _random_profile(rng: random.Random) -> dict:
    lo = rng.choice((6, 7, 8, 9))
    hi = rng.choice((18, 20, 21, 22, 23, 1))
    return {
        "home": (round(rng.uniform(0, 100), 1), round(rng.uniform(0, 100), 1)),
        "label": f"{lo}-{hi}",
        "hours": _hours(lo, hi),
        "rest": rng.randint(50, 90),
        "moving": rng.random() < 0.15,
    }


def _profile_line(sub: str, prof: dict) -> str:
    x, y = prof["home"]
    return (
        f"subscriber {sub} home=({x:.1f},{y:.1f}) usual_hours={prof['label']}"
        f" resting_hr={prof['rest']} usual_moving={int(prof['moving'])}"
    )


def _random_context(rng: random.Random, prof: dict, tier: int,
                    loctype: str | None = None) -> tuple[dict, int]:
    """Rejection-sample a call context whose score falls in `tier`, at
    least 0.01 from every threshold.  Some profiles cannot reach a high
    tier (a caller who usually moves never scores on activity), so after
    a bounded number of tries the next lower tier is sampled instead."""
    for attempt in range(400):
        if attempt and attempt % 100 == 0 and tier > NONE:
            tier -= 1
        ctx: dict = {}
        if loctype is None and tier >= LOW and rng.random() < 0.8:
            ctx["loctype"] = rng.choice(HIGH_RISK)
        else:
            ctx["loctype"] = loctype or rng.choice(("home", "office", "bank", "other"))
            if rng.random() < 0.7:
                hx, hy = prof["home"]
                spread = 2.0 if tier == NONE else 8.0
                ctx["loc"] = (
                    round(hx + rng.uniform(-spread, spread), 1),
                    round(hy + rng.uniform(-spread, spread), 1),
                )
        if rng.random() < 0.9:
            ctx["hour"] = rng.choice(prof["hours"]) if tier <= LOW else rng.randrange(24)
        if rng.random() < 0.9:
            top = (10, 40, 70, 100)[tier]
            ctx["hr"] = prof["rest"] + rng.randint(-10, top)
        if rng.random() < 0.6:
            top = (1.5, 5.0, 12.0, 20.0)[tier]
            ctx["speed"] = round(rng.uniform(0, top), 1)
        score = _score(ctx, prof)
        if _tier(score) == tier and min(abs(score - th) for th in THRESHOLDS) > 0.01:
            return ctx, tier
    raise AssertionError("no context found for any tier")


def _context_tokens(ctx: dict) -> str:
    parts = []
    if "loc" in ctx:
        parts.append(f"loc=({ctx['loc'][0]:.1f},{ctx['loc'][1]:.1f})")
    parts.append(f"loctype={ctx['loctype']}")
    if "hour" in ctx:
        parts.append(f"hour={ctx['hour']}")
    if "hr" in ctx:
        parts.append(f"hr={ctx['hr']}")
    if "speed" in ctx:
        parts.append(f"speed={ctx['speed']:.1f}")
    return " ".join(parts)


# --- shadow of the call engine and simulator rules ---


class _Session:
    __slots__ = (
        "sid", "caller", "callee", "state", "held", "tier", "ledger",
        "last_activity", "pending_media", "pending_distress", "loctype_other",
    )

    def __init__(self, sid: int, caller: str, callee: str, now: int):
        self.sid, self.caller, self.callee = sid, caller, callee
        self.state = "new"  # then active | waiting | ended; override counts as active
        self.held = False
        self.tier = NONE
        self.ledger: dict | None = None
        self.last_activity = now
        self.pending_media = False
        self.pending_distress = False
        self.loctype_other = False

    def party(self, sub: str) -> bool:
        return sub in (self.caller, self.callee)


class Shadow:
    """Predicts the engine's session states and the trace's event counts."""

    def __init__(self) -> None:
        self.placed = 0
        self.open: dict[int, _Session] = {}  # not yet ended, by sid
        self.policies: dict[str, dict] = {}
        self.counts: dict[str, int] = {}
        self._open_of: dict[str, int] = {}  # subscriber -> open sessions it is party to
        self._connected_of: dict[str, int] = {}  # subscriber -> connected (held too)

    def _tally(self, s: _Session, table: dict[str, int], delta: int) -> None:
        for sub in (s.caller, s.callee):
            table[sub] = table.get(sub, 0) + delta

    def _set_state(self, s: _Session, state: str) -> None:
        if s.state == "active":
            self._tally(s, self._connected_of, -1)
        if state == "active":
            self._tally(s, self._connected_of, +1)
        if state == "ended":
            self._tally(s, self._open_of, -1)
        s.state = state

    def _count(self, key: str) -> None:
        self.counts[key] = self.counts.get(key, 0) + 1

    def _end(self, s: _Session, how: str) -> None:
        self._set_state(s, "ended")
        s.held = False
        del self.open[s.sid]
        self._count(f"ended_{how}")

    def _connected(self, sub: str, include_held: bool) -> list[_Session]:
        return [
            s for s in self.open.values()
            if s.state == "active" and s.party(sub) and (include_held or not s.held)
        ]

    def waiting_of_caller(self, caller: str) -> _Session | None:
        for s in self.open.values():
            if s.caller == caller and s.state == "waiting":
                return s
        return None

    def involved(self, sub: str) -> bool:
        return self._open_of.get(sub, 0) > 0

    def busy(self, sub: str) -> bool:
        return self._connected_of.get(sub, 0) > 0

    def advance(self, now: int | None) -> None:
        """Abandon every waiting session idle for longer than the timeout."""
        due = sorted(
            (s.last_activity + ABANDON_TIMEOUT, s.sid)
            for s in self.open.values() if s.state == "waiting"
        )
        for expiry, sid in due:
            if now is not None and expiry >= now:
                break
            self._end(self.open[sid], "timeout")

    def policy(self, callee: str, t: int, g: int, n: int, approved: list[str]) -> None:
        self.policies[callee] = {"t": t, "G": g, "N": n, "approve": set(approved)}

    def call(self, now: int, caller: str, callee: str, score_tier: int, loctype_other: bool) -> None:
        self.placed += 1
        s = _Session(self.placed, caller, callee, now)
        s.loctype_other = loctype_other
        engaged = self.busy(callee)
        self.open[s.sid] = s
        self._tally(s, self._open_of, +1)
        self._count("sessions")
        if not engaged:
            self._set_state(s, "active")
            self._count("connected_direct")
            return
        s.state = "waiting"
        self._count("waiting")
        policy = self.policies.get(callee, {"t": 5, "G": 30, "N": 3, "approve": set()})
        tier = max(score_tier, MEDIUM) if caller in policy["approve"] else score_tier
        s.tier = tier
        self._count(f"tier_{TIER_NAMES[tier]}")
        if tier == HIGHEST:
            for other in sorted(self._connected(callee, include_held=False), key=lambda x: x.sid):
                other.held = True
                self._count("held")
            self._set_state(s, "active")
            self._count("overrides")
        elif tier in (LOW, MEDIUM):
            s.ledger = {**policy, "sent": 0, "last_end": None, "dismissed": False}
            self._count("admitted")

    def burst(self, now: int, caller: str, words: int | None, distress: bool,
              keywords: bool, image: bool) -> None:
        """`words` is None for a silent window; `distress` marks a keyword
        transcript or a distress image."""
        s = self.waiting_of_caller(caller)
        self._count("burst_lines")
        if s is None:
            self._count("rejected")
            return
        s.last_activity = now
        led = s.ledger
        if led is None:
            self._count("rejected")
            return
        if led["dismissed"] or led["sent"] >= led["N"]:
            self._count("denied_budget")
            return
        if led["last_end"] is not None and now < led["last_end"] + led["G"]:
            self._count("denied_gap")
            return
        self._count("permits")
        if words is None:
            duration = led["t"]
        else:
            duration = min(led["t"], max(1, math.ceil(words / SPEAKING_RATE)))
        led["sent"] += 1
        led["last_end"] = now + duration
        incapacitated = words is None or distress or s.pending_distress
        empty_bundle = (
            words is None and not keywords and not image
            and not s.pending_media and s.loctype_other
        )
        s.pending_media = s.pending_distress = False
        if incapacitated:
            self._count("incapacitated")
        if incapacitated and not empty_bundle:
            self._count("generated")
            self._count("sent")
        elif words is not None:
            self._count("sent")
        else:
            self._count("silent")

    def media(self, now: int, caller: str, distress: bool) -> None:
        s = self.waiting_of_caller(caller)
        if s is None:
            self._count("media_ignored")
            return
        s.pending_media = True
        s.pending_distress = s.pending_distress or distress
        s.last_activity = now
        self._count("media_noted")

    def dismiss(self, now: int, callee: str) -> None:
        for s in sorted(self.open.values(), key=lambda x: x.sid):
            led = s.ledger
            if s.callee == callee and s.state == "waiting" and led and not led["dismissed"]:
                led["dismissed"] = True
                s.last_activity = now
                self._count("dismissed")

    def hangup_target(self, sub: str) -> _Session | None:
        best = None
        for s in self.open.values():
            if not s.party(sub):
                continue
            if s.state == "active":
                rank = 2 if s.held else 0
            elif s.caller == sub:
                rank = 1
            else:
                continue
            if best is None or (rank, s.sid) < best[:2]:
                best = (rank, s.sid, s)
        return None if best is None else best[2]

    def hangup(self, sub: str) -> None:
        target = self.hangup_target(sub)
        assert target is not None, f"generator wrote an invalid hangup for {sub}"
        was_connected = target.state == "active" and not target.held
        self._end(target, "hangup")
        if not was_connected:
            return
        for party in (target.caller, target.callee):
            if self._connected(party, include_held=False):
                continue
            held = sorted(
                (s for s in self.open.values() if s.held and s.party(party)),
                key=lambda x: x.sid,
            )
            if held:
                held[0].held = False
                self._count("resumed")

    def answer(self, callee: str) -> None:
        waiting = [s for s in self.open.values() if s.state == "waiting" and s.callee == callee]
        assert waiting, f"generator wrote an invalid answer for {callee}"
        chosen = min(waiting, key=lambda x: (-x.tier, x.sid))
        for s in sorted(self._connected(callee, include_held=False), key=lambda x: x.sid):
            self._end(s, "hangup")
        self._set_state(chosen, "active")
        chosen.ledger = None
        self._count("answered")

    def shape(self) -> dict[str, int]:
        keys = (
            "sessions waiting connected_direct tier_none tier_low tier_medium "
            "tier_highest overrides held resumed answered admitted ended_hangup "
            "ended_timeout burst_lines rejected permits denied_gap denied_budget "
            "incapacitated generated sent silent media_noted media_ignored dismissed"
        ).split()
        return {k: self.counts.get(k, 0) for k in keys}


# --- workload writers ---


class _Writer:
    def __init__(self) -> None:
        self.lines: list[str] = []

    def add(self, line: str) -> None:
        self.lines.append(line)

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


def _transcript(rng: random.Random, distress: bool) -> str:
    words = [rng.choice(_PLAIN_WORDS) for _ in range(rng.randint(3, 22))]
    if distress:
        words.insert(rng.randrange(len(words) + 1), rng.choice(KEYWORDS))
    return " ".join(words)


def _burst_line(rng: random.Random, w: _Writer, sh: Shadow, now: int, caller: str,
                always_incapacitated: bool) -> None:
    roll = rng.random()
    keywords = image = distress_image = False
    parts = [f"at {now} burst {caller}"]
    if roll < 0.3:
        words = None
        parts.append("silence")
        keywords = always_incapacitated or rng.random() < 0.8
        if keywords:
            parts.append(f'keywords="{rng.choice(_SEED_KEYWORDS)}"')
        distress = False
    else:
        distress = always_incapacitated or rng.random() < 0.3
        text = _transcript(rng, distress)
        words = len(text.split())
        parts.append(f'transcript="{text}"')
    if rng.random() < 0.2:
        image = True
        distress_image = rng.random() < 0.5
        parts.append(f'image="{rng.choice(_DISTRESS_MEDIA if distress_image else _PLAIN_MEDIA)}"')
    w.add(" ".join(parts))
    sh.burst(now, caller, words, distress or distress_image, keywords, image)


def _media_line(rng: random.Random, w: _Writer, sh: Shadow, now: int, caller: str) -> None:
    kind = rng.choice(("image", "video", "gesture"))
    distress = rng.random() < 0.4
    desc = rng.choice(_DISTRESS_MEDIA if distress else _PLAIN_MEDIA)
    w.add(f'at {now} media {caller} {kind}="{desc}"')
    sh.media(now, caller, distress)


def _header(w: _Writer, workload: str, seed: int, size: int) -> None:
    w.add(f"# gvbsim benchmark scenario: workload={workload} seed={seed} size={size}")
    w.add("weights 1,1,1,1")
    w.add("thresholds {:g},{:g},{:g}".format(*THRESHOLDS))


def _call_line(rng: random.Random, w: _Writer, sh: Shadow, profiles: dict, now: int,
               caller: str, callee: str, tier: int, loctype: str | None = None) -> None:
    ctx, tier = _random_context(rng, profiles[caller], tier, loctype)
    w.add(f"at {now} call {caller} {callee} {_context_tokens(ctx)}")
    sh.call(now, caller, callee, tier, ctx["loctype"] == "other")


def _hang_up_everything(rng: random.Random, w: _Writer, sh: Shadow, now: int) -> None:
    """Hang up every connected session, so only waiting calls remain for the
    end-of-run abandon sweep."""
    while True:
        connected = sorted(s.sid for s in sh.open.values() if s.state == "active")
        if not connected:
            return
        s = sh.open[rng.choice(connected)]
        sub = rng.choice((s.caller, s.callee))
        sh.advance(now)
        w.add(f"at {now} hangup {sub}")
        sh.hangup(sub)
        now += rng.randint(0, 1)


def call_storm(seed: int, calls: int) -> tuple[str, dict]:
    rng = random.Random(f"call_storm:{seed}:{calls}")
    w, sh = _Writer(), Shadow()
    _header(w, "call_storm", seed, calls)
    subs = [f"s{i:04d}" for i in range(max(8, calls // 10))]
    profiles = {s: _random_profile(rng) for s in subs}
    for s in subs:
        w.add(_profile_line(s, profiles[s]))
    for callee in rng.sample(subs, len(subs) // 3):
        others = [s for s in subs if s != callee]
        approved = sorted(rng.sample(others, rng.randint(0, 4)))
        t, g, n = rng.randint(3, 5), rng.randint(5, 30), rng.randint(1, 4)
        tail = f" approve={','.join(approved)}" if approved else ""
        w.add(f"policy {callee} t={t} G={g} N={n}{tail}")
        sh.policy(callee, t, g, n, approved)
    now, placed = 0, 0
    while placed < calls:
        now += rng.choice((0, 0, 1, 1, 1, 2, 3))
        sh.advance(now)
        idle = {s for s in subs if not sh.involved(s)}
        busy = sorted(s for s in subs if sh.busy(s))
        waiting = sorted({s.callee for s in sh.open.values() if s.state == "waiting"})
        roll = rng.random()
        if roll < 0.45 and idle:
            caller = rng.choice(sorted(idle))
            pool = busy if busy and rng.random() < 0.75 else subs
            callee = rng.choice([s for s in pool if s != caller] or [s for s in subs if s != caller])
            tier = rng.choices((NONE, LOW, MEDIUM, HIGHEST), (45, 25, 22, 8))[0]
            _call_line(rng, w, sh, profiles, now, caller, callee, tier)
            placed += 1
        elif roll < 0.62 and waiting:
            callee = rng.choice(waiting)
            w.add(f"at {now} answer {callee}")
            sh.answer(callee)
        elif roll < 0.85 and sh.open:
            s = sh.open[rng.choice(sorted(sh.open))]
            sub = rng.choice((s.caller, s.callee))
            if sh.hangup_target(sub) is not None:
                w.add(f"at {now} hangup {sub}")
                sh.hangup(sub)
        elif roll < 0.90 and waiting:
            callee = rng.choice(waiting)
            w.add(f"at {now} dismiss {callee}")
            sh.dismiss(now, callee)
        elif roll < 0.97:
            callers = sorted(s.caller for s in sh.open.values() if s.state == "waiting")
            if callers:
                caller = rng.choice(callers)
                if rng.random() < 0.75:
                    _burst_line(rng, w, sh, now, caller, always_incapacitated=False)
                    if rng.random() < 0.4:  # an impatient retry is denied
                        _burst_line(rng, w, sh, now, caller, always_incapacitated=False)
                else:
                    _media_line(rng, w, sh, now, caller)
    _hang_up_everything(rng, w, sh, now + 1)
    sh.advance(None)
    return w.text(), sh.shape()


def _burst_workload(workload: str, seed: int, lines: int, incapacitated: bool) -> tuple[str, dict]:
    rng = random.Random(f"{workload}:{seed}:{lines}")
    w, sh = _Writer(), Shadow()
    _header(w, workload, seed, lines)
    callees = [f"callee{i}" for i in range(1, 5)]
    partners = [f"partner{i}" for i in range(1, 5)]
    callers = [f"w{i:02d}" for i in range(1, 41)]
    # One pre-approved caller per callee who only ever sends silent windows
    # with no seedable context: the engine has nothing to generate from, so
    # these are the BURST_WINDOW_SILENT records.
    mute = set() if incapacitated else set(callers[:4])
    profiles = {s: _random_profile(rng) for s in callees + partners + callers}
    for s in callees + partners + callers:
        w.add(_profile_line(s, profiles[s]))
    # callee4's small budget gives a steady stream of budget denials
    budgets = (10**6, 10**6, 10**6, rng.randint(4, 8))
    for i, callee in enumerate(callees):
        mine = callers[i::4]
        approved = sorted(set(rng.sample(mine[1:], 4)) | (mute & set(mine)))
        t, g = rng.randint(3, 5), rng.randint(1, 4)
        w.add(f"policy {callee} t={t} G={g} N={budgets[i]} approve={','.join(approved)}")
        sh.policy(callee, t, g, budgets[i], approved)
    for i, (callee, partner) in enumerate(zip(callees, partners)):
        _call_line(rng, w, sh, profiles, 0, partner, callee, NONE)
    now = 1
    for i, caller in enumerate(callers):
        if caller in mute:
            _call_line(rng, w, sh, profiles, now, caller, callees[i % 4], NONE, loctype="other")
        else:
            _call_line(rng, w, sh, profiles, now, caller, callees[i % 4], rng.choice((LOW, MEDIUM)))
        now += rng.randint(0, 1)
    last_seen = {c: now for c in callers}
    dismiss_at = lines * 3 // 4
    for i in range(lines):
        now += rng.choice((0, 0, 1, 1, 1, 2))
        sh.advance(now)
        if i == dismiss_at:
            w.add(f"at {now} dismiss callee3")
            sh.dismiss(now, "callee3")
        stale = min(callers, key=lambda c: (last_seen[c], c))
        caller = stale if now - last_seen[stale] > 90 else rng.choice(callers)
        if caller in mute:
            w.add(f"at {now} burst {caller} silence")
            sh.burst(now, caller, None, distress=False, keywords=False, image=False)
        elif rng.random() < 0.75 or incapacitated:
            _burst_line(rng, w, sh, now, caller, always_incapacitated=incapacitated)
        else:
            _media_line(rng, w, sh, now, caller)
        last_seen[caller] = now
    _hang_up_everything(rng, w, sh, now + 1)
    sh.advance(None)
    return w.text(), sh.shape()


def generate(workload: str, seed: int, size: int) -> tuple[str, dict]:
    """Return (scenario text, expected trace shape) for one workload."""
    if size < 1:
        raise ValueError(f"size must be >= 1, got {size}")
    if workload == "call_storm":
        return call_storm(seed, size)
    if workload == "burst_storm":
        return _burst_workload(workload, seed, size, incapacitated=False)
    if workload == "external_gen":
        return _burst_workload(workload, seed, size, incapacitated=True)
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    sys.stdout.write(generate(argv[0], int(argv[1]), int(argv[2]))[0])
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
