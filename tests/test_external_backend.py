from __future__ import annotations

import collections
import contextlib
import functools
import os
import re
import select
import socket
import socketserver
import subprocess
import threading
import time
from typing import Iterator
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gvbsim import generation
from gvbsim.cli import main
from gvbsim.errors import ExternalGeneratorError, ExternalTimeout
from gvbsim.generation import (
    MAX_RESPONSE_LINE_BYTES,
    ExternalBackend,
    TemplateBackend,
    build_backend,
    build_request_line,
    decode_text,
    encode_text,
    generate_message,
    parse_response_line,
)
from gvbsim.scenario import parse_scenario
from gvbsim.sim import RunConfig, run
from gvbsim.trace import parse_trace, render_trace

from .conftest import SCENARIO_DIR, stub_command


# -- percent encoding --

@pytest.mark.parametrize(
    "raw",
    ["plain", "two words", "100% sure", "line\nbreak", "mix 50% of\nall three", ""],
)
def test_encoding_round_trips(raw):
    encoded = encode_text(raw)
    assert " " not in encoded and "\n" not in encoded
    assert decode_text(encoded) == raw


def _decode_by_regex(text: str) -> str:
    return re.sub("%([0-9A-Fa-f]{2})", lambda m: chr(int(m.group(1), 16)), text)


@settings(max_examples=1000, deadline=None)
@given(st.text(alphabet=st.sampled_from("%%%0123456789aAfFgG zé\n\u2028"), max_size=24) | st.text())
def test_decode_text_matches_the_regex_reference(text: str):
    assert decode_text(text) == _decode_by_regex(text)


def test_encoding_is_order_safe():
    # '%' must be escaped first or '%20' would double-encode
    assert encode_text("% 20") == "%25%2020"
    assert decode_text("%25%2020") == "% 20"


# -- request/response lines --

def test_request_line_carries_generation_parameters():
    line = build_request_line("House Fire Help Come", 7)
    assert line.startswith("GENERATE ")
    assert " max_words=50 " in line
    assert " temperature=0.9 " in line
    assert " sample=1 " in line
    assert " seed_rng=7 " in line
    assert line.endswith(" text=House%20Fire%20Help%20Come")


def test_response_parsing():
    assert parse_response_line("OK text=hello%20there\n") == "hello there"
    with pytest.raises(ExternalGeneratorError):
        parse_response_line("ERR model_unavailable")
    with pytest.raises(ExternalGeneratorError):
        parse_response_line("garbage")


# -- subprocess transport --

def test_echo_stub_receives_the_documented_request():
    backend = ExternalBackend(stub_command("gen_echo.py"), timeout=10.0)
    try:
        msg = generate_message("House Fire", backend, rng_seed=3)
    finally:
        backend.close()
    assert msg.backend == "external"
    assert msg.fallback_reason is None
    request = msg.text  # the stub echoes the raw request line back
    assert request.startswith("GENERATE ")
    assert "max_words=50" in request
    assert "temperature=0.9" in request
    assert "sample=1" in request
    assert "seed_rng=3" in request
    assert "text=House%20Fire" in request


def test_fixed_stub_reply_is_decoded():
    backend = ExternalBackend(stub_command("gen_fixed.py"), timeout=10.0)
    try:
        msg = generate_message("anything at all", backend=backend)
    finally:
        backend.close()
    assert msg.text == "Generator says: the kitchen is burning."
    assert msg.backend == "external"


def test_err_reply_falls_back_to_template():
    backend = ExternalBackend(stub_command("gen_error.py"), timeout=10.0)
    try:
        msg = generate_message("keywords: fire", backend=backend)
    finally:
        backend.close()
    assert msg.backend == "template"
    assert msg.fallback_reason is not None
    assert "model_unavailable" in msg.fallback_reason
    assert "fire" in msg.text.lower()


def test_timeout_falls_back_to_template():
    backend = ExternalBackend(stub_command("gen_sleepy.py"), timeout=0.3)
    try:
        msg = generate_message("keywords: fire", backend=backend)
    finally:
        backend.close()
    assert msg.backend == "template"
    assert msg.fallback_reason is not None
    assert "timeout" in msg.fallback_reason


def test_timeout_surfaces_as_its_own_error_type():
    backend = ExternalBackend(stub_command("gen_sleepy.py"), timeout=0.3)
    try:
        with pytest.raises(ExternalTimeout):
            backend.generate("seed", 0)
    finally:
        backend.close()


def test_a_reply_that_is_not_utf8_falls_back_and_the_run_exits_0(tmp_path, capsys):
    backend = ExternalBackend(stub_command("gen_bad_utf8.py"), timeout=10.0)
    try:
        with pytest.raises(ExternalGeneratorError, match="malformed response") as exc:
            backend.generate("seed", 0)
        assert not isinstance(exc.value, ExternalTimeout)
    finally:
        backend.close()
    trace = tmp_path / "out.trace"
    code = main([
        "run", str(SCENARIO_DIR / "silent_generative_burst.gvb"), "--trace", str(trace),
        "--backend", f"external={stub_command('gen_bad_utf8.py')}",
    ])
    assert code == 0, capsys.readouterr().err
    records = parse_trace(trace.read_text(encoding="utf-8"))
    fallbacks = [r for r in records if r.event == "GEN_FALLBACK"]
    assert [r.get("reason") for r in fallbacks] == ["error"]
    assert "malformed response" in fallbacks[0].get("detail")


def test_an_err_reply_naming_a_timeout_is_an_error_not_a_timeout():
    # the reason token comes from the exception's type, not from its words
    backend = ExternalBackend(stub_command("gen_err_timeout.py"), timeout=10.0)
    scenario = (SCENARIO_DIR / "silent_generative_burst.gvb").read_text(encoding="utf-8")
    try:
        records = run(parse_scenario(scenario), RunConfig(backend=backend))
    finally:
        backend.close()
    fallbacks = [r for r in records if r.event == "GEN_FALLBACK"]
    assert [r.get("reason") for r in fallbacks] == ["error"]
    assert fallbacks[0].get("detail") == "generator error: upstream model timeout"


def test_the_simulator_sends_the_seed_in_label_order_with_media_joined():
    # media queued before the burst joins the burst's own image, in arrival
    # order; t=60 leaves the echoed request line unfitted
    scenario = (
        "subscriber A\nsubscriber B\nsubscriber C\npolicy A t=60 G=0 N=3 approve=C\n"
        "at 0 call A B\nat 10 call C A loc=(40,9) loctype=highway hour=3\n"
        'at 11 media C video="person on the floor"\n'
        'at 11 media C gesture="waving arms"\n'
        'at 11 media C image="car on its side"\n'
        'at 12 burst C transcript="help me" keywords="crash" image="broken glass"\n'
    )
    backend = ExternalBackend(stub_command("gen_echo.py"), timeout=10.0)
    try:
        records = run(parse_scenario(scenario), RunConfig(backend=backend))
    finally:
        backend.close()
    seed = (
        "keywords: crash; gesture: waving arms; image: broken glass; car on its side;"
        " video: person on the floor; speech: help me; location: highway"
    )
    [gen] = [r for r in records if r.event == "GEN"]
    assert gen.get("backend") == "external"
    assert gen.get("text") == build_request_line(seed, 0)


def test_over_long_response_line_falls_back_before_the_timeout():
    # gen_flood.py answers with 1 MiB and no newline, then keeps the stream open
    scenario = (
        "subscriber A\nsubscriber B\nsubscriber C\npolicy A t=5 G=0 N=2 approve=C\n"
        "at 0 call A B\nat 1 call C A\n"
        'at 2 burst C silence keywords="fire"\nat 10 burst C silence keywords="fire"\n'
    )
    backend = ExternalBackend(stub_command("gen_flood.py"), timeout=10.0)
    started = time.monotonic()
    try:
        with pytest.raises(ExternalGeneratorError, match="exceeds") as exc:
            backend.generate("seed", 0)
        assert not isinstance(exc.value, ExternalTimeout)
        records = run(parse_scenario(scenario), RunConfig(backend=backend))
    finally:
        backend.close()
    assert time.monotonic() - started < 10.0  # three floods, each well inside one timeout
    fallbacks = [r for r in records if r.event == "GEN_FALLBACK"]
    assert [r.get("reason") for r in fallbacks] == ["error", "error"]
    assert f"exceeds {MAX_RESPONSE_LINE_BYTES} bytes" in fallbacks[0].get("detail")
    assert [r.get("payload") for r in records if r.event == "BURST_SENT"] == ["generated"] * 2


def test_unreachable_command_falls_back():
    backend = ExternalBackend("/nonexistent/generator --flag", timeout=1.0)
    msg = generate_message("keywords: fire", backend=backend)
    assert msg.backend == "template"
    assert msg.fallback_reason is not None


def test_multiple_requests_reuse_one_child():
    backend = ExternalBackend(stub_command("gen_echo.py"), timeout=10.0)
    try:
        first = generate_message("first seed", backend=backend)
        second = generate_message("second seed", backend=backend)
    finally:
        backend.close()
    assert "text=first%20seed" in first.text
    assert "text=second%20seed" in second.text


def test_a_reply_split_across_writes_is_joined():
    backend = ExternalBackend(stub_command("gen_chunked.py"), timeout=10.0)
    try:
        assert backend.generate("seed", 0) == "split reply"
        assert backend.generate("seed", 0) == "split reply"
    finally:
        backend.close()


def test_two_reply_lines_in_one_read_answer_two_requests():
    # the stub writes both lines at once and reads no second request
    backend = ExternalBackend(stub_command("gen_double.py"), timeout=10.0)
    try:
        assert backend.generate("one", 0) == "first"
        assert backend.generate("two", 0) == "second"
    finally:
        backend.close()


def test_end_of_stream_inside_a_line_is_not_a_reply():
    backend = ExternalBackend(stub_command("gen_truncated.py"), timeout=10.0)
    started = time.monotonic()
    try:
        with pytest.raises(ExternalGeneratorError, match="closed its output stream") as exc:
            backend.generate("seed", 0)
    finally:
        backend.close()
    assert not isinstance(exc.value, ExternalTimeout)
    assert time.monotonic() - started < 10.0


@pytest.mark.parametrize("extra", [0, 1])
def test_the_line_cap_counts_the_newline(extra: int):
    # a reply of exactly the cap is read; one byte more fails before the timeout
    length = MAX_RESPONSE_LINE_BYTES + extra
    backend = ExternalBackend(f"{stub_command('gen_long_line.py')} {length}", timeout=10.0)
    started = time.monotonic()
    try:
        if extra:
            with pytest.raises(ExternalGeneratorError, match="exceeds") as exc:
                backend.generate("seed", 0)
            assert not isinstance(exc.value, ExternalTimeout)
        else:
            text = backend.generate("seed", 0)
            assert text == "x" * (length - len("OK text=") - 1)
    finally:
        backend.close()
    assert time.monotonic() - started < 10.0


# -- the child's lifetime --

@contextlib.contextmanager
def _recorded_children():
    """The generator children spawned inside, in order; one left running at
    the end is killed.  A wait for a child that does not end times out, so
    a child left running fails a test instead of hanging it."""
    spawned: list[subprocess.Popen] = []
    real_popen = subprocess.Popen

    def popen(*args, **kwargs):
        proc = real_popen(*args, **kwargs)
        proc.wait = functools.partial(proc.wait, timeout=5)
        spawned.append(proc)
        return proc

    try:
        with mock.patch("subprocess.Popen", popen):
            yield spawned
    finally:
        for proc in spawned:
            if proc.poll() is None:
                proc.kill()
                real_popen.wait(proc)
            proc.stdin.close()
            proc.stdout.close()


@pytest.mark.parametrize(
    ("stub", "timeout", "kind"),
    [("gen_fixed.py", 10.0, "external"), ("gen_deaf.py", 0.2, "template")],
)
def test_a_closed_backend_has_reaped_its_child_and_closed_its_pipes(stub, timeout, kind):
    # gen_fixed's child is up when close() ends it; gen_deaf's child, which
    # never reads, was ended by the timed-out read, and only a kill ends it
    backend = ExternalBackend(stub_command(stub), timeout=timeout)
    with _recorded_children() as spawned:
        try:
            assert generate_message("keywords: fire", backend=backend).backend == kind
        finally:
            backend.close()
        [proc] = spawned
        assert proc.returncode is not None
        assert proc.stdin.closed and proc.stdout.closed


@pytest.mark.parametrize(("tail", "code"), [("", 0), ("at 60 hangup Z\n", 1)], ids=["ok", "sim_error"])
def test_a_run_ends_its_generator_child_as_it_exits(tail, code, tmp_path, monkeypatch, capsys):
    # each burst reads its reply at once, so the child is up before a bad line
    monkeypatch.setattr(generation, "ASK_AHEAD_BYTES", 1)
    scenario = tmp_path / "s.gvb"
    text = (SCENARIO_DIR / "silent_generative_burst.gvb").read_text(encoding="utf-8")
    scenario.write_text(text + tail, encoding="utf-8")
    backend = f"external={stub_command('gen_fixed.py')}"
    argv = ["run", str(scenario), "--trace", str(tmp_path / "out.trace"), "--backend", backend]
    with _recorded_children() as spawned:
        assert main(argv) == code, capsys.readouterr().err
        [proc] = spawned
        assert proc.returncode is not None


def test_a_broken_pipe_drops_its_request_and_the_next_reply_spawns_a_fresh_child():
    # an OSError on the child's pipes is its reply's transport failure;
    # the next child is sent every request still unanswered
    peers: list[_RequestPeer] = []
    replies = {b"k0": b"OK text=zero\n", b"k1": b"OK text=one\n"}
    records = _run_on_peers(_burst_scenario(["k0", "k1"]), replies, peers, first=_BrokenPipePeer)
    assert [type(peer) for peer in peers] == [_BrokenPipePeer, _RequestPeer]
    assert peers[1].requests == [b"k1"]
    [fallback] = [r for r in records if r.event == "GEN_FALLBACK"]
    assert fallback.get("reason") == "error"
    assert fallback.get("detail").startswith("generator transport failed: ")
    gens = [(r.get("backend"), r.get("text")) for r in records if r.event == "GEN"]
    assert gens[0][0] == "template" and gens[1] == ("external", "one")


# -- requests written ahead of their replies --

def test_replies_asked_ahead_are_read_in_order_from_one_child():
    spawned = []
    real_popen = subprocess.Popen

    def popen(*args, **kwargs):
        spawned.append(real_popen(*args, **kwargs))
        return spawned[-1]

    backend = ExternalBackend(stub_command("gen_echo.py"), timeout=10.0)
    try:
        backend.ask("first", 0)
        backend.ask("second", 0)
        with mock.patch("subprocess.Popen", popen):
            replies = [backend.generate("first", 0)]
            # a read out of turn is the caller's error, not a fallback: the child stays up
            with pytest.raises(TypeError, match="out of turn"):
                backend.generate("third", 0)
            assert spawned[0].poll() is None
            replies += [backend.generate(s, 0) for s in ("second", "third")]
    finally:
        backend.close()
    assert len(spawned) == 1
    assert replies == [build_request_line(s, 0) for s in ("first", "second", "third")]


def test_full_counts_the_bytes_of_the_unanswered_requests(monkeypatch):
    # a request here is about 75 bytes: the budget is reached at the third
    monkeypatch.setattr(generation, "ASK_AHEAD_BYTES", 200)
    backend = ExternalBackend(stub_command("gen_echo.py"), timeout=10.0)

    def check() -> None:
        total = sum(len(request) for _, request in backend._unanswered)
        assert backend.full() == (total >= generation.ASK_AHEAD_BYTES)

    seeds = [f"seed {i}" for i in range(5)]
    try:
        for seed in seeds:
            backend.ask(seed, 0)
            check()
        assert backend.full()
        with mock.patch("subprocess.Popen", side_effect=OSError("unreachable")):
            with pytest.raises(ExternalGeneratorError, match="cannot reach"):
                backend.generate(seeds[0], 0)  # a transport failure drops its request
        check()
        for seed in seeds[1:]:
            assert backend.generate(seed, 0) == build_request_line(seed, 0)
            check()
        assert not backend.full() and backend._unanswered == []
        backend.generate("asked when none waits", 0)
        check()
        for seed in seeds:
            backend.ask(seed, 0)
        check()
        assert backend.full()
    finally:
        backend.close()
    check()
    assert not backend.full()


def test_each_burst_sends_its_own_request_in_order_to_one_child():
    # a repeated seed is asked again, and an ERR reply leaves the child running
    peers: list[_RequestPeer] = []
    replies = {b"k0": b"ERR busy\n", b"k1": b"OK text=one\n", b"k2": b"OK text=two\n"}
    scenario = _burst_scenario(["k0", "k0", "k1", "k2", "k0"])
    records = _run_on_peers(scenario, replies, peers, budget=200)  # full at 3 requests of 78 bytes
    assert len(peers) == 1 and peers[0].requests == [b"k0", b"k0", b"k1", b"k2", b"k0"]
    gens = [(r.get("backend"), r.get("text")) for r in records if r.event == "GEN"]
    backends = ["template", "template", "external", "external", "template"]
    assert [backend for backend, _ in gens] == backends
    assert [text for _, text in gens[2:4]] == ["one", "two"]
    details = [r.get("detail") for r in records if r.event == "GEN_FALLBACK"]
    assert details == ["generator error: busy"] * 3


def test_a_generator_that_never_reads_times_out_each_reply_without_a_hang():
    # more request bytes than ASK_AHEAD_BYTES: a full window goes to a child
    # that reads none of it, and the write must not block
    count, timeout, padding = 10, 0.1, "x" * (generation.ASK_AHEAD_BYTES // 8)
    seeds = [f"{padding}{i}" for i in range(count)]
    backend = ExternalBackend(stub_command("gen_deaf.py"), timeout=timeout)
    started = time.monotonic()
    try:
        records = run(parse_scenario(_burst_scenario(seeds)), RunConfig(backend=backend))
    finally:
        backend.close()
    assert time.monotonic() - started < count * (timeout + 0.5)
    fallbacks = [r.get("reason") for r in records if r.event == "GEN_FALLBACK"]
    assert fallbacks == ["timeout"] * count


# -- drawn reply bytes through an in-process pipe --

_CAP = 40  # the line cap while fuzzing, so an over-long line stays far inside a pipe's buffer
_FRAGMENTS = [b"OK text=", b"ERR", b" ", b"a", b"%20", b"%0A", b"%e2", b"\r", b"\x00", b"\xff"]
_LINES = st.one_of(
    st.text(max_size=10).map(lambda text: b"OK text=" + encode_text(text).encode() + b"\n"),
    st.lists(st.sampled_from([*_FRAGMENTS, b"\xc3\xa9", b"\n", b"\r\n"]), max_size=12).map(
        b"".join
    ),
    st.just(b"OK text=" + b"x" * _CAP + b"\n"),
)


@st.composite
def _reply_chunks(draw) -> list[bytes]:
    """One reply's bytes, none to a few lines, cut into non-empty chunks."""
    data = b"".join(draw(st.lists(_LINES, max_size=3)))
    cuts = sorted(draw(st.sets(st.integers(0, len(data)), max_size=3)) | {0, len(data)})
    return [data[i:j] for i, j in zip(cuts, cuts[1:])]


class _PipePeer:
    """A generator child's stand-in on an os.pipe: a request queues the next
    drawn reply's chunks, and the peer writes one each time the backend
    waits on a drained pipe; a wait with no chunk left times out."""

    def __init__(self, replies: Iterator[list[bytes]]):
        self._replies, self._chunks = replies, collections.deque()
        read_fd, self._write_fd = os.pipe()
        self.stdin, self.stdout = self, os.fdopen(read_fd, "rb", buffering=0)

    def write(self, request: bytes) -> None:
        pass

    def flush(self) -> None:
        self._chunks.extend(next(self._replies))

    def send_next_chunk(self) -> bool:
        if not self._chunks:
            return False
        os.write(self._write_fd, self._chunks.popleft())
        return True

    def close(self) -> None:  # the backend closes stdin, then kills
        pass

    def kill(self) -> None:
        os.close(self._write_fd)

    def wait(self) -> None:
        pass


def _expected_outcomes(replies: list[list[bytes]]) -> list[str]:
    """Per request: "timeout", "error", or the text of an external GEN.
    Every reply's bytes join one stream, read a line at a time; a transport
    failure (no line yet, or a line over the cap) ends the peer and drops
    its unread bytes, while a line that is not a message is only skipped."""
    outcomes, stream = [], b""
    for reply in replies:
        stream += b"".join(reply)
        end = stream.find(b"\n")
        if end < 0 and len(stream) <= _CAP:
            outcomes.append("timeout")
        elif not 0 <= end < _CAP:
            outcomes.append("error")
        else:
            line, stream = stream[: end + 1], stream[end + 1 :]
            try:
                body = line.decode("utf-8").rstrip("\r\n")
            except UnicodeDecodeError:
                body = ""
            text = _decode_by_regex(body[len("OK text="):]) if body.startswith("OK text=") else ""
            outcomes.append(text if text.strip() else "error")
            continue
        stream = b""
    return outcomes


@settings(max_examples=150, deadline=None)
@given(st.lists(_reply_chunks(), min_size=1, max_size=6))
@example([
    [b"OK te", b"xt=split%20", b"line\r\n"],  # "split line"
    [b"OK text=one\nOK text=two\n"],  # "one"
    [],  # "two", read with "one"
    [b"ERR busy\n"],  # error
    [b"OK text=a\x00b\r\r\n\xff\n"],  # "a\x00b"
    [],  # error: the line read with "a\x00b" is not UTF-8
    [b"OK text=%20%0A\n"],  # error: no word
    [b"OK text=" + b"x" * _CAP + b"\nOK text=lost\n"],  # error: over the cap
    [b"OK te"],  # timeout
])
def test_each_reply_is_a_message_or_one_fallback_and_the_trace_parses_back(replies):
    peers: list[_PipePeer] = []
    unsent, real_select = iter(replies), select.select

    def spawn(*args, **kwargs) -> _PipePeer:
        peers.append(_PipePeer(unsent))
        return peers[-1]

    def wait(readable, writable, exceptional, timeout):
        if real_select(readable, [], [], 0)[0] or peers[-1].send_next_chunk():
            return readable, [], []
        return [], [], []

    # one burst per reply, each with its own seed, so that each one asks
    bursts = (f"at {2 + 60 * i} burst C silence keywords=k{i}\n" for i in range(len(replies)))
    events = parse_scenario(
        "subscriber A\nsubscriber B\nsubscriber C\npolicy A t=60 G=0 N=9 approve=C\n"
        "at 0 call A B\nat 1 call C A\n" + "".join(bursts)
    )
    backend = ExternalBackend("peer", timeout=10.0)
    with (
        # one request in flight, as the model has it; the written-ahead path
        # is checked against this one by the differential property below
        mock.patch.object(generation, "ASK_AHEAD_BYTES", 1),
        mock.patch.object(generation, "MAX_RESPONSE_LINE_BYTES", _CAP),
        mock.patch("subprocess.Popen", spawn),
        mock.patch("select.select", wait),
    ):
        try:
            records = run(events, RunConfig(backend=backend))
        finally:
            backend.close()
    outcomes, reason = [], None
    for record in records:
        if record.event == "GEN_FALLBACK":
            assert reason is None  # at most one per reply
            reason = record.get("reason")
        elif record.event == "GEN":
            assert (record.get("backend") == "external") == (reason is None)
            outcomes.append(record.get("text") if reason is None else reason)
            reason = None
    assert outcomes == _expected_outcomes(replies)
    assert parse_trace(render_trace(records)) == records


def _burst_scenario(seeds: list[str]) -> str:
    """C waits on A and sends a silent burst a minute, seeded `keywords=<seed>`."""
    bursts = (f"at {2 + 60 * i} burst C silence keywords={seed}\n" for i, seed in enumerate(seeds))
    return (
        "subscriber A\nsubscriber B\nsubscriber C\npolicy A t=60 G=0 N=99 approve=C\n"
        "at 0 call A B\nat 1 call C A\n" + "".join(bursts)
    )


class _RequestPeer:
    """A generator child's stand-in on an os.pipe whose reply to a request
    depends only on its `keywords=` seed: `replies[seed]`'s bytes.  A reply
    that ends without a newline is the last the peer writes, and it then
    closes its stream if the reply is `b"OK te"` (not `b"OK t"`)."""

    def __init__(self, replies: dict[bytes, bytes]):
        self._replies, self._out, self._dead = replies, collections.deque(), False
        self.requests: list[bytes] = []
        read_fd, self._write_fd = os.pipe()
        self.stdin, self.stdout = self, os.fdopen(read_fd, "rb", buffering=0)

    def write(self, data: bytes) -> None:
        for line in data.splitlines():
            seed = re.search(rb"keywords:%20(\w+)", line).group(1)
            self.requests.append(seed)
            if not self._dead:
                self._out.append(self._replies[seed])
                self._dead = not self._replies[seed].endswith(b"\n")

    def flush(self) -> None:
        pass

    def send_next_reply(self) -> bool:
        """Write the next reply, or close at its end: False when silent."""
        if self._out:
            reply = self._out.popleft()
            os.write(self._write_fd, reply)
            if reply == b"OK te":
                self.kill()
            return True
        return False

    def close(self) -> None:  # the backend closes stdin, then kills
        pass

    def kill(self) -> None:
        if self._write_fd >= 0:
            os.close(self._write_fd)
            self._write_fd = -1

    def wait(self) -> None:
        pass


class _BrokenPipePeer(_RequestPeer):
    """A child whose stdin fails every write."""

    def write(self, data: bytes) -> None:
        raise BrokenPipeError(32, "Broken pipe")


def _run_on_peers(
    text: str,
    replies: dict[bytes, bytes],
    peers: list[_RequestPeer],
    budget: int | None = None,
    first: type[_RequestPeer] = _RequestPeer,
) -> list:
    """Run `text` on an external backend whose every child is a fresh
    `_RequestPeer` (the first one a `first`) appended to `peers`, with
    ASK_AHEAD_BYTES at `budget`."""
    real_select = select.select

    def spawn(*args, **kwargs) -> _RequestPeer:
        peers.append((_RequestPeer if peers else first)(replies))
        return peers[-1]

    def wait(readable, writable, exceptional, timeout):
        if real_select(readable, [], [], 0)[0] or peers[-1].send_next_reply():
            return readable, [], []
        return [], [], []  # silence: the reply times out at once

    backend = ExternalBackend("peer", timeout=10.0)
    with (
        mock.patch.object(generation, "ASK_AHEAD_BYTES", budget or generation.ASK_AHEAD_BYTES),
        mock.patch.object(generation, "MAX_RESPONSE_LINE_BYTES", _CAP),
        mock.patch("subprocess.Popen", spawn),
        mock.patch("select.select", wait),
    ):
        try:
            return run(parse_scenario(text), RunConfig(backend=backend))
        finally:
            backend.close()


_REPLY_KINDS = st.sampled_from([
    b"ERR busy\n",  # an error reply
    b"OK text=\xff\n",  # not UTF-8
    b"OK text=%20\n",  # no word
    b"OK text=" + b"x" * _CAP + b"\n",  # over the line cap
    b"OK t",  # a partial line, then silence
    b"OK te",  # a partial line, then the end of the stream
]) | st.text(max_size=8).map(lambda text: b"OK text=" + encode_text(text).encode() + b"\n")


@settings(max_examples=150, deadline=None)
@given(
    st.lists(_REPLY_KINDS, min_size=1, max_size=8),
    st.sampled_from([60, 200, generation.ASK_AHEAD_BYTES]),
)
def test_requests_written_ahead_give_the_trace_and_children_of_one_at_a_time(replies, budget):
    # one burst per reply, each with its own seed; a request is ~70 bytes
    seeds = [f"k{i}" for i in range(len(replies))]
    by_seed = {seed.encode(): reply for seed, reply in zip(seeds, replies)}
    runs = []
    for ahead in (budget, 1):
        peers: list[_RequestPeer] = []
        records = _run_on_peers(_burst_scenario(seeds), by_seed, peers, ahead)
        runs.append((render_trace(records), len(peers)))
    assert runs[0] == runs[1]


# -- a TCP generator through a stdio relay --

class _TcpGenerator(socketserver.StreamRequestHandler):
    def handle(self):
        self.server.connections.append(self.client_address)
        for line in self.rfile:
            if not line.strip():
                continue
            self.wfile.write(b"OK text=tcp%20generator%20reply\n")
            self.wfile.flush()


class _OneReplyTcpGenerator(socketserver.StreamRequestHandler):
    """Answers the first request on a connection, then hangs up."""

    def handle(self):
        self.server.connections.append(self.client_address)
        self.rfile.readline()
        self.wfile.write(b"OK text=tcp%20generator%20reply\n")


@contextlib.contextmanager
def _tcp_generator(handler: type[socketserver.BaseRequestHandler]):
    """A line-protocol generator listening on a free local port; yields the
    server, whose `connections` lists each accepted connection."""
    server = socketserver.ThreadingTCPServer(("127.0.0.1", 0), handler)
    server.connections = []
    # a connection left open by a leaked child must not hold up the teardown
    server.daemon_threads, server.block_on_close = True, False
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()


def _relay_command(port: int) -> str:
    return f"{stub_command('gen_tcp_relay.py')} 127.0.0.1 {port}"


def test_a_tcp_generator_is_reached_through_a_relay_command():
    with _tcp_generator(_TcpGenerator) as server:
        backend = ExternalBackend(_relay_command(server.server_address[1]), timeout=10.0)
        try:
            msg = generate_message("seed text", backend=backend)
        finally:
            backend.close()
    assert msg.text == "tcp generator reply"
    assert msg.backend == "external"


def test_one_relay_child_carries_every_request():
    with _tcp_generator(_TcpGenerator) as server:
        backend = ExternalBackend(_relay_command(server.server_address[1]), timeout=10.0)
        try:
            kinds = [generate_message(f"seed {i}", backend=backend).backend for i in range(3)]
        finally:
            backend.close()
        assert len(server.connections) == 1
    assert kinds == ["external"] * 3


def test_after_a_failure_the_next_request_spawns_a_fresh_child():
    # the server hangs up after one reply, so the relay's second request
    # finds its stream closed; the third request needs a new relay
    with _tcp_generator(_OneReplyTcpGenerator) as server:
        backend = ExternalBackend(_relay_command(server.server_address[1]), timeout=10.0)
        try:
            messages = [generate_message(f"seed {i}", backend=backend) for i in range(3)]
        finally:
            backend.close()
        assert len(server.connections) == 2
    assert [m.backend for m in messages] == ["external", "template", "external"]
    assert "closed its output stream" in messages[1].fallback_reason


def test_a_relay_with_no_server_listening_falls_back_with_reason_error():
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        free_port = probe.getsockname()[1]
    backend = ExternalBackend(_relay_command(free_port), timeout=10.0)
    scenario = (SCENARIO_DIR / "silent_generative_burst.gvb").read_text(encoding="utf-8")
    try:
        records = run(parse_scenario(scenario), RunConfig(backend=backend))
    finally:
        backend.close()
    fallbacks = [r for r in records if r.event == "GEN_FALLBACK"]
    assert [r.get("reason") for r in fallbacks] == ["error"]
    [gen] = [r for r in records if r.event == "GEN"]
    assert gen.get("backend") == "template"


# -- backend spec parsing --

def test_build_backend_specs():
    assert isinstance(build_backend("template"), TemplateBackend)
    external = build_backend("external=some command")
    assert isinstance(external, ExternalBackend)
    external.close()
    with pytest.raises(ValueError):
        build_backend("mystery")


@pytest.mark.parametrize("spec", ["external=", "external= ", 'external=gen "unclosed'])
def test_a_command_with_no_words_or_an_unclosed_quote_is_rejected(spec: str):
    # split once, when the backend is built, not on every request
    with pytest.raises(ValueError):
        build_backend(spec)
