"""Serving-stack benchmark: drive a real ``repro serve`` over HTTP.

Run from the root of a checkout::

    python3 perfbench/run.py --workload solve-small --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` makes the
separate traced run and reports the per-layer metrics instead.  The last
line of standard output is the result object; the line before it is a
record with the run's environment, counts and sample sizes.  See
``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUNS = ROOT / "perfbench" / "runs"

WORKLOADS = ("solve-small", "solve-large", "stream-mixed")
#: Server start-ups per ``--trace 0`` run; ``setup_s`` is their median.
SETUP_REPS = 3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true", help="tiny inputs (smoke test only)"
    )
    parser.add_argument(
        "--corrupt",
        action="store_true",
        help="corrupt one recorded solve response before the gate (smoke test)",
    )
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to drive at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]

    import workloads
    from metrics import end_to_end

    workload = workloads.make(args.workload, args.seed, args.seconds, tiny=args.tiny)
    run_dir = RUNS / f"{args.workload}-trace{args.trace}"
    run_dir.mkdir(parents=True, exist_ok=True)

    if args.trace:
        import layers

        plain = workload.run_phase(SRC, reps=1, corrupt=args.corrupt)
        traced = workload.run_phase(
            SRC, reps=1, trace_dir=run_dir, corrupt=args.corrupt
        )
        metrics = layers.per_layer(workload, plain, traced, run_dir)
        phases = {"untraced": plain, "traced": traced}
    else:
        phase = workload.run_phase(SRC, reps=SETUP_REPS, corrupt=args.corrupt)
        metrics = end_to_end(phase)
        phases = {"measured": phase}

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {
        m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]
    }
    mismatches = sum(p.mismatches for p in phases.values())
    last = list(phases.values())[-1].counts()
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": environment(workload, phases),
        "counts": {name: p.counts() for name, p in phases.items()},
        "samples": {
            name: {
                "solves": len(p.solves),
                "feeds": sum(len(s.feed_latencies) for s in p.sessions + p.probe),
                "sessions": len(p.sessions),
            }
            for name, p in phases.items()
        },
    }
    (run_dir / "record.json").write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(record))
    if mismatches:
        print(f"perfbench: {mismatches} response(s) failed the gate", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": mismatches == 0,
                "attempted": last["sent"],
                "failed": last["sent"] - last["ok"],
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 1 if mismatches else 0


def environment(workload, phases: dict) -> dict:
    import hashlib
    import platform

    import numpy

    from repro.obs import git_revision

    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_revision": git_revision(),
        "src_sha256": digest.hexdigest(),
        "server_argv": {name: p.server_argv for name, p in phases.items()},
        "server_cpu": workload.server_cpu,
        "generator_cpus": sorted(os.sched_getaffinity(0)),
    }


if __name__ == "__main__":
    sys.exit(main())
