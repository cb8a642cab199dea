"""Smoke test of the benchmark at tiny sizes.

Run from the root of a checkout::

    python3 perfbench/smoke.py

For every workload it runs one ``--trace 0`` and one ``--trace 1`` pass
on tiny inputs and checks that the result line carries exactly the
metrics ``BENCHMARK.json`` names, with their units.  It then checks that
a corrupted response is caught as a mismatch (non-zero exit,
``correct: false``), that the joined trace reads with
``repro obs report``, and that the benchmark refuses to run where the
program's source is missing.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TIMEOUT = 300


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--seconds", "1", "--tiny", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=TIMEOUT,
    )


def result(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics(res: dict, expected: list[dict], label: str) -> None:
    want = {m["name"]: m["unit"] for m in expected}
    got = {name: m["unit"] for name, m in res["metrics"].items()}
    assert got == want, f"{label}: metrics {sorted(got)} != {sorted(want)}"
    assert set(res) == {"correct", "attempted", "failed", "metrics"}, label
    assert res["attempted"] >= 1, label
    for name, m in res["metrics"].items():
        assert isinstance(m["value"], (int, float)), f"{label}: {name}"


def main() -> int:
    for w in (w["name"] for w in SPEC["workloads"]):
        for trace, expected in (("0", SPEC["end_to_end"]), ("1", SPEC["per_layer"])):
            proc = bench("--workload", w, "--seed", "0", "--trace", trace)
            label = f"{w} --trace {trace}"
            assert proc.returncode == 0, f"{label}: {proc.returncode}\n{proc.stderr}"
            res = result(proc)
            assert res["correct"] and res["failed"] == 0, f"{label}: {res}"
            check_metrics(res, expected, label)
            print(f"ok  {label}: {len(res['metrics'])} metrics")

    joined = ROOT / "perfbench" / "runs" / "stream-mixed-trace1" / "joined.jsonl"
    report = subprocess.run(
        [sys.executable, "-m", "repro.cli", "obs", "report", str(joined)],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=TIMEOUT,
    )
    assert report.returncode == 0 and "client.solve" in report.stdout, report.stderr
    print("ok  joined trace reads with repro obs report")

    proc = bench("--workload", "solve-small", "--seed", "0", "--corrupt")
    res = result(proc)
    record = json.loads(proc.stdout.strip().splitlines()[-2])
    assert proc.returncode != 0 and not res["correct"], "corruption not caught"
    assert record["counts"]["measured"]["failed.mismatch"] == 1, record["counts"]
    print("ok  corrupted response caught as a mismatch")

    bare = ROOT / "perfbench" / "runs" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(
        ROOT / "perfbench", bare / "perfbench",
        ignore=shutil.ignore_patterns("runs", "__pycache__"),
    )  # fmt: skip
    proc = bench("--workload", "solve-small", "--seed", "0", cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
    print("ok  refuses to run without the program's source")
    return 0


if __name__ == "__main__":
    sys.exit(main())
