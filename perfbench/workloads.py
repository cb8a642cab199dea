"""The three workloads: inputs, warm-up and the timed traffic of each.

``solve-small``
    Closed loop over two keep-alive connections.  Small instances drawn
    from a seeded pool of a few hundred, so instances repeat: solver
    time is a small share of a served request, and HTTP framing, the
    JSON codec, parsing, dispatch and the client codec dominate.  The
    repeating pool makes the ``ca`` memo cache hit.
``solve-large``
    Open loop: seeded Poisson arrivals at one fixed rate (about 60% of
    the mix's closed-loop capacity) over two connections; every instance
    distinct and large.  Kernels, validation and the k-proportional codec
    dominate; bunched arrivals make queue wait show; distinct ``ca``
    instances bypass the memo cache and make it grow.
``stream-mixed``
    Connection 1 runs online sessions back to back (closed loop) while
    connection 2 sends small side solves at a fixed low rate (open loop):
    stateful feeds beside stateless solves on one event loop.

The solve workloads run a stream probe (``PROBE_SESSIONS`` identical
sessions over one ``PROBE_MESSAGES``-arrival trace) between warm-up and
the timed window, so every workload reports the feed metrics; the probe
adds no load to the window.
"""

from __future__ import annotations

import gc
import os
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from repro import obs

import inputs
from gate import Gate
from load import (
    Phase,
    client,
    closed_loop,
    open_loop,
    run_session,
    run_threads,
    solve_once,
    stream_loop,
)
from server import ServerProcess, split_cpus

#: Stream probe of the solve workloads: sessions x 25 feeds of 64 arrivals.
PROBE_SESSIONS = 4
PROBE_MESSAGES = 1600
#: Delay between the end of warm-up and the first open-loop due time.
LEAD = 0.05


class Workload:
    name = ""

    def __init__(self, seed: int, seconds: float, *, tiny: bool = False) -> None:
        self.seed = seed
        self.seconds = seconds
        self.tiny = tiny
        self.server_cpu, generator_cpus = split_cpus()
        if generator_cpus:
            os.sched_setaffinity(0, generator_cpus)

    # -- per-workload parts -------------------------------------------- #

    def prepare(self) -> None:
        """Generate the inputs (part of set-up time)."""
        raise NotImplementedError

    def warm_inputs(self) -> list:
        """The solves warm-up sends (the traced replay warms with them too)."""
        raise NotImplementedError

    def warm(self, url: str) -> None:
        self._warm_solves(url, self.warm_inputs())

    def measure(self, url: str, tracer) -> Phase:
        raise NotImplementedError

    def probe(self, url: str) -> list:
        """Stream probe, run before the timed window (solve workloads)."""
        trace = inputs.stream_traces(self.seed, self._probe_messages())[0]
        with client(url) as conn:
            return [
                run_session(conn, trace, float("inf")) for _ in range(PROBE_SESSIONS)
            ]

    def _probe_messages(self) -> int:
        return 128 if self.tiny else PROBE_MESSAGES

    # -- common phase runner ------------------------------------------- #

    def run_phase(
        self,
        src: Path,
        *,
        reps: int,
        trace_dir: Path | None = None,
        corrupt: bool = False,
    ) -> Phase:
        """Set up ``reps`` times (keeping the last server), run the timed
        traffic, stop the server, then gate the recorded responses."""
        trace = trace_dir / "server.jsonl" if trace_dir is not None else None
        setups = []
        server = None
        for rep in range(reps):
            t0 = time.perf_counter()
            self.prepare()
            server = ServerProcess(src, trace=trace, cpu=self.server_cpu).start()
            try:
                self.warm(server.url)
            except BaseException:
                server.stop()
                raise
            setups.append(time.perf_counter() - t0)
            if rep < reps - 1:
                server.stop()
        tracer = obs.Tracer(enabled=True) if trace_dir is not None else None
        try:
            probe = self.probe(server.url)
            # The generator's own cyclic GC would pause whichever request is
            # in flight as recorded results pile up; collect once, outside
            # the window.
            gc.collect()
            gc.disable()
            phase = self.measure(server.url, tracer)
            phase.peak_rss_mb = server.peak_rss_mb()
        finally:
            gc.enable()
            server.stop()
        phase.probe = probe
        phase.setups = setups
        phase.server_argv = server.argv
        phase.tracer = tracer
        if corrupt:
            first = next(s for s in phase.solves if s.failure is None)
            first.result = replace(first.result, lower=(first.result.lower or 0) + 1)
        phase.mismatches = Gate().check(phase.solves, phase.sessions + phase.probe)
        return phase

    def _warm_solves(self, url: str, todo) -> None:
        with client(url) as conn:
            for inp in todo:
                s = solve_once(conn, inp, f"warm-{inp.key}", None, None)
                if s.failure is not None:
                    raise RuntimeError(f"warm-up solve failed: {s.failure}")


class SolveSmall(Workload):
    name = "solve-small"

    def prepare(self) -> None:
        self.pool = inputs.small_pool(self.seed)

    def warm_inputs(self) -> list:
        return self.pool

    def picks(self, t: int):
        rng = np.random.default_rng([self.seed, 6, t])
        while True:
            for i in rng.integers(0, len(self.pool), size=4096):
                yield self.pool[int(i)]

    def measure(self, url: str, tracer):
        start = time.perf_counter()
        solves = closed_loop(
            url, [self.picks(0), self.picks(1)], start + self.seconds, "s", tracer
        )
        return Phase(solves=solves, start=start)


class SolveLarge(Workload):
    name = "solve-large"

    def prepare(self) -> None:
        k = (40, 60) if self.tiny else inputs.LARGE_K
        self.schedule = inputs.large_schedule(self.seed, self.seconds, k=k)
        self.warmup = inputs.large_warmup(self.seed, k=k)

    def warm_inputs(self) -> list:
        return self.warmup

    def measure(self, url: str, tracer):
        start = time.perf_counter() + LEAD
        solves = open_loop(url, self.schedule, start, "l", tracer=tracer)
        return Phase(solves=solves, start=start)


class StreamMixed(Workload):
    name = "stream-mixed"

    def prepare(self) -> None:
        messages = 256 if self.tiny else inputs.STREAM_MESSAGES
        self.traces = inputs.stream_traces(self.seed, messages)
        self.pool = inputs.small_pool(self.seed, tag=7)
        self.side = inputs.side_schedule(self.seed, self.seconds, self.pool)

    def warm_inputs(self) -> list:
        return self.pool[:16]

    def probe(self, url: str) -> list:
        return []  # the timed window streams already

    def warm(self, url: str) -> None:
        warm = inputs.StreamInput(-1, self.traces[0].n, self.traces[0].rows[:256])
        with client(url) as conn:
            sess = run_session(conn, warm, float("inf"))
        if sess.failure is not None:
            raise RuntimeError(f"warm-up session failed: {sess.failure}")
        super().warm(url)

    def measure(self, url: str, tracer):
        start = time.perf_counter() + LEAD
        out: dict = {}

        def streams() -> None:
            out["sessions"], out["seconds"] = stream_loop(
                url, self.traces, start + self.seconds, tracer
            )

        def side() -> None:
            out["solves"] = open_loop(
                url, self.side, start, "m", conns=1, tracer=tracer
            )

        run_threads([streams, side])
        return Phase(
            solves=out["solves"],
            sessions=out["sessions"],
            start=start,
            stream_seconds=out["seconds"],
        )


def make(name: str, seed: int, seconds: float, *, tiny: bool = False) -> Workload:
    cls = {w.name: w for w in (SolveSmall, SolveLarge, StreamMixed)}[name]
    return cls(seed, seconds, tiny=tiny)
