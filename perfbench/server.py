"""One ``repro serve --jobs 1`` child process per phase.

Each phase starts a fresh server from the checkout's ``src`` with every
``REPRO_*`` variable removed from its environment, so no cache
directory, tracing flag, backend choice or chaos plan carries over
between runs.  The server binds an ephemeral port and announces it on
its first line of output.
"""

from __future__ import annotations

import os
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

from repro.client import ReproClient

START_TIMEOUT = 60.0
STOP_TIMEOUT = 30.0


def clean_env(src: Path) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(src)
    env["PYTHONUNBUFFERED"] = "1"
    return env


def split_cpus() -> tuple[int | None, set[int] | None]:
    """``(server CPU, generator CPUs)``: with two or more CPUs the server
    gets one to itself, so the generator never competes with it for a
    core; with one CPU nothing is pinned."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None, None
    return cpus[0], set(cpus[1:])


class ServerProcess:
    """A ``repro serve`` child: start, health-check, read peak RSS, stop."""

    def __init__(
        self, src: Path, *, trace: Path | None = None, cpu: int | None = None
    ) -> None:
        self.argv = [
            sys.executable, "-m", "repro.cli", "serve",
            "--host", "127.0.0.1", "--port", "0", "--jobs", "1",
        ]  # fmt: skip
        if trace is not None:
            self.argv += ["--trace", str(trace)]
        self.src = src
        self.cpu = cpu
        self.url = ""
        self.proc: subprocess.Popen | None = None

    def start(self) -> "ServerProcess":
        self.proc = subprocess.Popen(
            self.argv,
            env=clean_env(self.src),
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        if self.cpu is not None:
            os.sched_setaffinity(self.proc.pid, {self.cpu})
        ready, _, _ = select.select([self.proc.stdout], [], [], START_TIMEOUT)
        line = self.proc.stdout.readline() if ready else ""
        if not line.startswith("serving on "):
            self.stop()
            raise RuntimeError(f"server did not start: {line.strip()!r}")
        self.url = line.split()[2]
        deadline = time.monotonic() + START_TIMEOUT
        while True:
            try:
                with ReproClient(self.url, retries=0, timeout=5.0) as client:
                    client.health()
                return self
            except Exception:
                if time.monotonic() > deadline:
                    self.stop()
                    raise
                time.sleep(0.01)

    def peak_rss_mb(self) -> float:
        """The server's high-water resident set (``VmHWM``), in MB."""
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> None:
        """SIGINT (the server drains and exports its trace), then wait."""
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.proc = None
