"""Correctness gate, run on recorded responses after each timed phase.

* every served schedule passes its topology's ``validate_schedule``;
* every served solve equals the local ``api.solve(...).to_dict()``,
  ignoring the volatile ``telemetry`` and ``request`` blocks;
* every stream's fed decisions, joined with its close result, equal
  ``run_online`` on the arrivals fed.

A response that fails any check is re-labelled ``mismatch``.
"""

from __future__ import annotations

from typing import Any

from repro import api
from repro.core.validate import ScheduleError
from repro.online import run_online
from repro.topology import topology_of

from load import Session, Solve

VOLATILE = ("telemetry", "request")


def stable(doc: dict[str, Any]) -> dict[str, Any]:
    return {k: v for k, v in doc.items() if k not in VOLATILE}


class Gate:
    """Checks responses against local references, computed once per input."""

    def __init__(self) -> None:
        self._refs: dict[int, dict[str, Any]] = {}

    def solve_ok(self, s: Solve) -> bool:
        inp = s.inp
        ref = self._refs.get(inp.key)
        if ref is None:
            ref = stable(api.solve(inp.instance, inp.regime, inp.method).to_dict())
            self._refs[inp.key] = ref
        try:
            topology_of(inp.instance).validate_schedule(
                inp.instance,
                s.result.schedule,
                require_bufferless=inp.regime == "bufferless",
            )
        except ScheduleError:
            return False
        return stable(s.result.to_dict()) == ref

    @staticmethod
    def session_ok(sess: Session) -> bool:
        local = run_online(sess.inp.instance(sess.fed), "bfl")
        fed = [d.to_dict() for d in sess.fed_decisions]
        joined = fed + [d.to_dict() for d in sess.result.decisions[len(fed) :]]
        return (
            joined == [d.to_dict() for d in local.decisions]
            and sess.result.to_dict() == local.to_dict()
        )

    def check(self, solves: list[Solve], sessions: list[Session] = ()) -> int:
        """Gate every successful response; returns the mismatch count."""
        bad = 0
        for s in solves:
            if s.failure is None and not self.solve_ok(s):
                s.failure = "mismatch"
                bad += 1
        for sess in sessions:
            if sess.failure is None and not self.session_ok(sess):
                sess.failure = "mismatch"
                bad += 1
        return bad
