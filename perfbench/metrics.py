"""End-to-end metrics of one timed phase (see README.md for definitions)."""

from __future__ import annotations

import statistics

import numpy as np


def percentile(values, q: float) -> float:
    """Percentile ``q`` in [0, 100], linearly interpolated."""
    return float(np.percentile(values, q))


def end_to_end(p) -> dict[str, float]:
    """Every ``end_to_end`` metric of ``BENCHMARK.json`` for one phase."""
    ok = [s for s in p.solves if s.failure is None]
    lat = [s.latency * 1e3 for s in ok]
    window = max(s.done for s in p.solves) - p.start
    feed_p50, feed_p90, decisions_per_s = stream_metrics(p)
    counts = p.counts()
    return {
        "setup_s": statistics.median(p.setups),
        "solve_rps": len(ok) / window,
        "solve_p50_ms": percentile(lat, 50),
        "solve_p90_ms": percentile(lat, 90),
        "feed_p50_ms": feed_p50,
        "feed_p90_ms": feed_p90,
        "decisions_per_s": decisions_per_s,
        "delivered_frac": delivered_frac(p),
        "ok_frac": counts["ok"] / counts["sent"],
        "peak_rss_mb": p.peak_rss_mb,
    }


def stream_metrics(p) -> tuple[float, float, float]:
    """Feed p50 and p90 (ms) and online decisions per second.

    Over the timed window's sessions when it streams; otherwise over the
    stream probe, whose sessions are identical work, so the fastest one
    is taken as the cost free of interference from the host."""
    ok = [s for s in p.sessions if s.failure is None]
    if ok:
        feeds = [x * 1e3 for s in ok for x in s.feed_latencies]
        decisions = sum(len(s.result.decisions) for s in ok)
        rate = decisions / p.stream_seconds
        return percentile(feeds, 50), percentile(feeds, 90), rate
    probe = [s for s in p.probe if s.failure is None]
    return (
        min(percentile(s.feed_latencies, 50) for s in probe) * 1e3,
        min(percentile(s.feed_latencies, 90) for s in probe) * 1e3,
        max(len(s.result.decisions) / s.seconds for s in probe),
    )


def delivered_frac(p) -> float:
    """Delivered / offered messages over the distinct inputs served in the
    timed window (each counted once, so the value is fixed per seed once
    every input has been served)."""
    seen: dict[tuple, tuple[int, int]] = {}
    for s in p.solves:
        if s.failure is None:
            seen[("solve", s.inp.key)] = (s.result.delivered, len(s.inp.instance))
    for sess in p.sessions:
        if sess.failure is None and sess.complete:
            seen[("stream", sess.inp.key)] = (sess.result.throughput, sess.fed)
    delivered = sum(d for d, _ in seen.values())
    offered = sum(o for _, o in seen.values())
    return delivered / offered
