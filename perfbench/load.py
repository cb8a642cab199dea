"""The load generator: one process, at most two threads and connections.

Closed loops send a connection's next request when the previous one
returns; open loops send on a seeded schedule and time each request from
its *due* time, so a stall also charges the requests queued behind it.
Every client runs with ``retries=0``: a 429 or 504 is recorded as a
failure of its class, never retried away.
"""

from __future__ import annotations

import http.client
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.client import ReproClient
from repro.errors import CircuitOpenError, DeadlineExceeded, ServerOverloaded

from inputs import SolveInput, StreamInput

FAILURE_CLASSES = ("429", "504", "http", "transport", "mismatch")

#: Socket timeout per request: far above the slowest served solve (under
#: a second), and short enough that a hung server fails the run in time.
CLIENT_TIMEOUT = 30.0


def failure_class(exc: BaseException) -> str:
    """Which ``loadgen.failed.*`` bucket an exception from the client lands in."""
    if isinstance(exc, ServerOverloaded):
        return "429"
    if isinstance(exc, DeadlineExceeded):
        return "504"
    transport = (OSError, http.client.HTTPException, CircuitOpenError)
    if isinstance(exc, transport) or isinstance(exc.__cause__, transport):
        return "transport"
    return "http"


def client(url: str) -> ReproClient:
    return ReproClient(url, retries=0, timeout=CLIENT_TIMEOUT)


@dataclass
class Solve:
    """One solve as the generator saw it (``perf_counter`` readings)."""

    inp: SolveInput
    request_id: str
    due: float | None
    sent: float
    done: float
    result: Any = None
    failure: str | None = None

    @property
    def latency(self) -> float:
        """Seconds from due time (open loop) or send time (closed loop)."""
        return self.done - (self.sent if self.due is None else self.due)


@dataclass
class Session:
    """One online stream session: what was fed and what came back."""

    inp: StreamInput
    fed: int = 0
    feed_latencies: list[float] = field(default_factory=list)
    fed_decisions: list[Any] = field(default_factory=list)
    result: Any = None
    complete: bool = False
    failure: str | None = None
    ops: int = 0
    seconds: float = 0.0


@dataclass
class Phase:
    """What one timed phase recorded; the gate relabels bad responses."""

    solves: list[Solve] = field(default_factory=list)
    sessions: list[Session] = field(default_factory=list)
    probe: list[Session] = field(default_factory=list)
    start: float = 0.0
    stream_seconds: float = 0.0
    peak_rss_mb: float = 0.0
    setups: list[float] = field(default_factory=list)
    server_argv: list[str] = field(default_factory=list)
    tracer: Any = None
    mismatches: int = 0

    def counts(self) -> dict[str, int]:
        """Operations sent, succeeded, and failed by class."""
        failed = dict.fromkeys(FAILURE_CLASSES, 0)
        sent = 0
        for s in self.solves:
            sent += 1
            if s.failure:
                failed[s.failure] += 1
        for sess in self.sessions + self.probe:
            sent += sess.ops
            if sess.failure:
                failed[sess.failure] += 1
        out = {"sent": sent, "ok": sent - sum(failed.values())}
        out.update((f"failed.{c}", n) for c, n in failed.items())
        return out


def solve_once(
    conn: ReproClient, inp: SolveInput, rid: str, due: float | None, tracer
) -> Solve:
    sent = time.perf_counter()
    try:
        result = conn.solve(inp.instance, inp.regime, inp.method, request_id=rid)
        failure = None
    except Exception as exc:  # every failure is data for the loadgen counters
        result, failure = None, failure_class(exc)
    done = time.perf_counter()
    if tracer is not None:
        cell = f"{inp.topology}/{inp.regime}/{inp.method}"
        tracer.record_span(
            "client.solve", sent, done, request_id=rid, cell=cell, failure=failure
        )
    return Solve(inp, rid, due, sent, done, result, failure)


def closed_loop(
    url: str,
    picks: list[Iterator[SolveInput]],
    stop_at: float,
    prefix: str,
    tracer=None,
) -> list[Solve]:
    """One thread and connection per pick iterator, until ``stop_at``."""
    out: list[list[Solve]] = [[] for _ in picks]

    def worker(t: int) -> None:
        with client(url) as conn:
            j = 0
            while time.perf_counter() < stop_at:
                rid = f"{prefix}-c{t}-{j:06d}"
                out[t].append(solve_once(conn, next(picks[t]), rid, None, tracer))
                j += 1

    run_threads([lambda t=t: worker(t) for t in range(len(picks))])
    return [s for per in out for s in per]


def open_loop(
    url: str,
    schedule: list[tuple[float, SolveInput]],
    start: float,
    prefix: str,
    *,
    conns: int = 2,
    tracer=None,
) -> list[Solve]:
    """Send ``schedule[i]`` at ``start + t_i`` over ``conns`` connections;
    a request due while every connection is busy waits for the next free one."""
    out: list[Solve | None] = [None] * len(schedule)
    lock = threading.Lock()
    indices = iter(range(len(schedule)))

    def worker() -> None:
        with client(url) as conn:
            while True:
                with lock:
                    i = next(indices, None)
                if i is None:
                    return
                t, inp = schedule[i]
                due = start + t
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                out[i] = solve_once(conn, inp, f"{prefix}-o{i:06d}", due, tracer)

    run_threads([worker] * conns)
    return out  # type: ignore[return-value]


def run_session(
    conn: ReproClient, inp: StreamInput, stop_at: float, tracer=None
) -> Session:
    """Open, feed batch by batch until done or ``stop_at``, close."""
    sess = Session(inp)
    stream = None
    t_open = time.perf_counter()
    try:
        sess.ops += 1
        stream = conn.open_stream(n=inp.n, policy="bfl")
        batches = inp.batches()
        for b, batch in enumerate(batches):
            if time.perf_counter() >= stop_at:
                break
            sess.ops += 1
            t0 = time.perf_counter()
            sess.fed_decisions.extend(stream.feed(batch))
            t1 = time.perf_counter()
            sess.feed_latencies.append(t1 - t0)
            sess.fed += len(batch)
            if tracer is not None:
                tracer.record_span(
                    "client.feed", t0, t1, stream=stream.stream_id, batch=b
                )
        sess.complete = sess.fed == len(inp.rows)
        sess.ops += 1
        sess.result = stream.close()
        sess.seconds = time.perf_counter() - t_open
    except Exception as exc:  # recorded as a failed operation
        sess.failure = failure_class(exc)
        if stream is not None and not stream.closed:
            try:
                stream.abandon()
            except Exception:  # the session is already counted as failed
                pass
    return sess


def stream_loop(
    url: str, traces: list[StreamInput], stop_at: float, tracer=None
) -> tuple[list[Session], float]:
    """Closed loop of sessions cycling through ``traces``; returns the
    sessions and the seconds spent streaming."""
    sessions: list[Session] = []
    t0 = time.perf_counter()
    with client(url) as conn:
        i = 0
        while time.perf_counter() < stop_at:
            trace = traces[i % len(traces)]
            sessions.append(run_session(conn, trace, stop_at, tracer))
            i += 1
    return sessions, time.perf_counter() - t0


def run_threads(targets) -> None:
    """Run each target on its own thread; re-raise the first crash."""
    errors: list[BaseException] = []

    def guarded(fn) -> None:
        try:
            fn()
        except BaseException as exc:  # re-raised on the calling thread below
            errors.append(exc)

    threads = [threading.Thread(target=guarded, args=(fn,)) for fn in targets]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    if errors:
        raise errors[0]
