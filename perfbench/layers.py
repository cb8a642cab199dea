"""The traced run: per-layer metrics, never mixed with end-to-end numbers.

A ``--trace 1`` run measures the workload twice on the same seed: once
against a plain server and once against ``repro serve --trace`` with the
generator recording a ``client.solve`` / ``client.feed`` span per call.
The difference of the two solve p50s is the tracing overhead.  It then
replays the traced phase's recorded requests in-process, timing each
public call a served request passes through:

    client encode (instance_to_dict + json.dumps), parse_instance,
    dispatch_matrix, Engine(jobs=1).map(solve_cell), api.solve,
    to_dict, json.dumps, client decode (json.loads + from_dict),
    validate_schedule, and the line kernels bfl_fast, ca_schedule
    (cache off) and dbfl on every replayed line instance;

and replays the run's stream sessions through OnlineSession.feed and
run_online batch by batch.  Server-side numbers (dispatch span, queue
wait, served solve time) come from the traced phase itself, joined to
the client's spans on ``x-repro-request-id``.

Spans go to ``client.jsonl`` and ``replay.jsonl`` in the run directory;
``joined.jsonl`` concatenates them with the server's ``server.jsonl``
and reads with ``repro obs report``.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from pathlib import Path

from repro import api, obs
from repro.approx import ca_schedule
from repro.core.bfl_fast import bfl_fast
from repro.core.dbfl import dbfl
from repro.engine import Engine
from repro.engine import cache as solver_cache
from repro.online import run_online
from repro.server.sessions import OnlineSession
from repro.server.worker import solve_cell
from repro.topology import dispatch_matrix, topology_of

import inputs
from load import Phase
from metrics import end_to_end, percentile

#: Recorded solves replayed per workload (the first ones sent).
REPLAY_SOLVES = {"solve-small": 300, "solve-large": 24, "stream-mixed": 300}
#: Distinct recorded stream sessions replayed.
REPLAY_SESSIONS = 2

def timed_solve_cell(payload):
    """``solve_cell`` plus its own duration, so ``Engine.map``'s overhead
    is measured on the same execution rather than on a second solve."""
    t0 = time.perf_counter()
    out = solve_cell(payload)
    return out, time.perf_counter() - t0


class Replay:
    """Times public calls in-process, recording one span per call."""

    def __init__(self) -> None:
        self.tracer = obs.Tracer(enabled=True)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.engine = Engine(jobs=1)
        self.hits = self.lookups = 0
        self.steps: list[int] = []
        self.replayed_msgs = self.useful_msgs = 0

    def call(self, name: str, fn, *args, **kwargs):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        t1 = time.perf_counter()
        self.tracer.record_span(name, t0, t1)
        self.samples[name].append(t1 - t0)
        return out

    def map_solve_cell(self, payload):
        t0 = time.perf_counter()
        [(out, cell_seconds)], stats = self.engine.map(timed_solve_cell, [(payload,)])
        t1 = time.perf_counter()
        self.tracer.record_span("engine.map", t0, t1)
        self.samples["engine.map"].append(t1 - t0 - cell_seconds)
        self.samples["server.worker.solve_cell"].append(cell_seconds)
        self.hits += stats.hits
        self.lookups += stats.total
        return out

    def solve(self, s) -> float:
        """Replay one recorded solve; returns its client codec seconds."""
        inp, served = s.inp, s.result
        topo = topology_of(inp.instance)
        with self.tracer.span("replay.solve", request_id=s.request_id):
            enc = self.call("client.encode", client_encode, inp)
            doc = json.loads(enc)["instance"]
            parsed = self.call("api.parse_instance", api.parse_instance, doc)
            self.call("topology.dispatch_matrix", dispatch_matrix)
            self.map_solve_cell(json.loads(enc))
            result = self.call("api.solve", api.solve, parsed, inp.regime, inp.method)
            as_dict = self.call("api.to_dict", result.to_dict)
            self.call("api.encode", json.dumps, as_dict)
            raw = json.dumps(served.to_dict())
            self.samples["resp_kb"].append(len(raw) / 1024)
            self.call("client.decode", client_decode, raw)
            self.call(
                "core.validate",
                topo.validate_schedule,
                inp.instance,
                served.schedule,
                require_bufferless=inp.regime == "bufferless",
            )
            if inp.topology == "line":
                self.call("core.bfl_fast", bfl_fast, inp.instance)
                self.call("approx.ca", ca_schedule, inp.instance)
                sim = self.call("network.dbfl", dbfl, inp.instance)
                self.steps.append(sim.stats.steps)
        return self.samples["client.encode"][-1] + self.samples["client.decode"][-1]

    def session(self, trace: inputs.StreamInput) -> None:
        """Replay one stream through ``OnlineSession.feed`` and, prefix by
        prefix, the ``run_online`` call each feed makes."""
        sess = OnlineSession(f"replay-{trace.key}", n=trace.n, policy="bfl")
        fed = 0
        with self.tracer.span("replay.session", trace=trace.key):
            for batch in trace.batches():
                self.call("server.sessions.feed", sess.feed, batch)
                fed += len(batch)
                self.call("online.run_online", run_online, trace.instance(fed), "bfl")
                self.replayed_msgs += fed
                self.useful_msgs += len(batch)


def client_encode(inp) -> bytes:
    body = {
        "instance": topology_of(inp.instance).instance_to_dict(inp.instance),
        "regime": inp.regime,
        "method": inp.method,
        "options": {},
    }
    return json.dumps(body).encode()


def client_decode(raw: str):
    return api.ScheduleResult.from_dict(json.loads(raw))


def server_spans(path: Path) -> dict[str, float]:
    """``server.request`` span seconds by request id, from ``repro serve --trace``."""
    spans = {}
    for span in obs.load_trace(path).spans:
        if span["name"] == "server.request":
            spans[span["attrs"].get("request_id")] = span["dur"]
    return spans


def lags_ms(phase: Phase) -> list[float]:
    """How late each send ran: after its due time (open loop), or after
    the previous answer on its connection (closed loop)."""
    lags = [(s.sent - s.due) * 1e3 for s in phase.solves if s.due is not None]
    prev: dict[str, float] = {}
    for s in sorted(phase.solves, key=lambda s: s.sent):
        if s.due is None:
            conn = s.request_id.rsplit("-", 1)[0]
            if conn in prev:
                lags.append((s.sent - prev[conn]) * 1e3)
            prev[conn] = s.done
    return lags


def per_layer(workload, plain: Phase, traced: Phase, run_dir: Path) -> dict:
    """Every ``per_layer`` metric of ``BENCHMARK.json`` (README.md defines each)."""
    ok = sorted((s for s in traced.solves if s.failure is None), key=lambda s: s.sent)
    replay = Replay()
    solver_cache.configure(enabled=True)
    for inp in workload.warm_inputs():
        solve_cell(json.loads(client_encode(inp)))
    dispatched = server_spans(run_dir / "server.jsonl")
    transport = []
    for s in ok[: REPLAY_SOLVES[workload.name]]:
        codec = replay.solve(s)
        if s.request_id in dispatched:
            transport.append((s.done - s.sent) - dispatched[s.request_id] - codec)
    seen = set()
    for sess in traced.sessions + traced.probe:
        if sess.failure is None and sess.complete and sess.inp.key not in seen:
            seen.add(sess.inp.key)
            if len(seen) <= REPLAY_SESSIONS:
                replay.session(sess.inp)

    def p(name: str, q: float, scale: float) -> float:
        return percentile(replay.samples[name], q) * scale

    counts = traced.counts()
    traced_p50 = end_to_end(traced)["solve_p50_ms"]
    plain_p50 = end_to_end(plain)["solve_p50_ms"]
    dispatch = [
        dispatched[s.request_id] * 1e3 for s in ok if s.request_id in dispatched
    ]
    waits = [s.result.request["queue_seconds"] * 1e3 for s in ok]
    served = [s.result.telemetry["seconds"] * 1e3 for s in ok]
    metrics = {
        "loadgen.lag_p99_ms": percentile(lags_ms(traced), 99),
        **{f"loadgen.{k}": v for k, v in counts.items()},
        "client.encode_p50_us": p("client.encode", 50, 1e6),
        "client.decode_p50_us": p("client.decode", 50, 1e6),
        "client.transport_p50_ms": percentile(transport, 50) * 1e3,
        "server.app.dispatch_p50_ms": percentile(dispatch, 50),
        "server.app.dispatch_p99_ms": percentile(dispatch, 99),
        "server.app.resp_kb": percentile(replay.samples["resp_kb"], 50),
        "server.queue.wait_p50_ms": percentile(waits, 50),
        "server.queue.wait_p99_ms": percentile(waits, 99),
        "server.queue.shed": counts["failed.429"] + counts["failed.504"],
        "engine.map_p50_us": p("engine.map", 50, 1e6),
        "engine.cache_hit_frac": replay.hits / max(replay.lookups, 1),
        "server.worker.solve_cell_p50_ms": p("server.worker.solve_cell", 50, 1e3),
        "api.parse_instance_p50_us": p("api.parse_instance", 50, 1e6),
        "api.solve_p50_ms": percentile(served, 50),
        "api.solve_p99_ms": percentile(served, 99),
        "api.to_dict_p50_us": p("api.to_dict", 50, 1e6),
        "api.encode_p50_us": p("api.encode", 50, 1e6),
        "topology.dispatch_matrix_us": p("topology.dispatch_matrix", 50, 1e6),
        "core.bfl_fast_p50_ms": p("core.bfl_fast", 50, 1e3),
        "core.validate_p50_ms": p("core.validate", 50, 1e3),
        "approx.ca_p50_ms": p("approx.ca", 50, 1e3),
        "network.dbfl_p50_ms": p("network.dbfl", 50, 1e3),
        "network.steps": percentile(replay.steps, 50),
        "online.run_online_p50_ms": p("online.run_online", 50, 1e3),
        "server.sessions.feed_p50_ms": p("server.sessions.feed", 50, 1e3),
        "server.sessions.feed_p90_ms": p("server.sessions.feed", 90, 1e3),
        "server.sessions.replayed_msgs": replay.replayed_msgs,
        "server.sessions.useful_frac": replay.useful_msgs / replay.replayed_msgs,
        "obs.trace_overhead_pct": 100.0 * (traced_p50 / plain_p50 - 1.0),
    }
    export(traced, replay, metrics, run_dir)
    return metrics


def export(traced: Phase, replay: Replay, metrics: dict, run_dir: Path) -> None:
    """Write the generator's and the replay's spans as JSONL, and the
    join of both with the server's trace."""
    for name, value in metrics.items():
        replay.tracer.gauge(f"perfbench.{name}", value)
    manifest = obs.RunManifest.collect("perfbench traced run")
    obs.to_jsonl(traced.tracer, run_dir / "client.jsonl")
    obs.to_jsonl(replay.tracer, run_dir / "replay.jsonl", manifest=manifest)
    lines = (run_dir / "server.jsonl").read_text().splitlines()
    for part in ("client.jsonl", "replay.jsonl"):
        lines += [
            line
            for line in (run_dir / part).read_text().splitlines()
            if line and json.loads(line).get("type") != "manifest"
        ]
    (run_dir / "joined.jsonl").write_text("\n".join(lines) + "\n")
