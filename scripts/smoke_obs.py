#!/usr/bin/env python
"""Observability smoke test: solve a blowup instance with tracing on,
check that the counters moved, and validate both trace export formats.

Run directly (``PYTHONPATH=src python scripts/smoke_obs.py``) or via the
tier-1 suite (``tests/obs/test_smoke.py``).  Exits non-zero on failure.
"""

import os
import sys
import tempfile

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro.alphabet import IntervalAlgebra
from repro.obs import Observability, read_chrome, read_jsonl
from repro.regex import RegexBuilder, parse
from repro.solver import Budget, RegexSolver


def check(condition, message):
    if not condition:
        raise AssertionError(message)


def main():
    builder = RegexBuilder(IntervalAlgebra(127))
    solver = RegexSolver(builder, obs=Observability.tracing())

    # the k=8 instance of the paper's blowup family: unsat because no
    # string can end both 'a.{8}' and 'b.{8}' at the same position
    regex = parse(builder, "(.*a.{8})&(.*b.{8})")
    result = solver.is_satisfiable(regex, Budget(fuel=10 ** 6, seconds=60))
    check(result.is_unsat, "blowup instance must be unsat, got %s"
          % result.status)

    stats = result.stats
    check(stats["explored"] > 0, "no states explored")
    check(stats["sat_checks"] > 0, "no sat checks recorded")
    check(stats["deriv_memo_misses"] > 0, "no derivative memo misses")

    # a re-run must be answered from the memo tables
    rerun = solver.is_satisfiable(regex, Budget(fuel=10 ** 6, seconds=60))
    check(rerun.stats["deriv_memo_misses"] == 0,
          "re-run recomputed derivatives")
    check(rerun.stats["lifetime"]["queries"] == 2, "lifetime not cumulative")

    snap = solver.obs.metrics.snapshot()
    for name in ("solver.explored", "algebra.sat_checks",
                 "deriv.deriv_memo_hits", "graph.updates"):
        check(snap.get(name, 0) > 0, "metric %s is zero" % name)

    # two solvers on one builder share its algebra; each registry adds
    # up only its own queries' algebra work
    shared = [RegexSolver(builder), RegexSolver(builder)]
    own_ops = [
        peer.is_satisfiable(parse(builder, pattern)).stats.algebra_ops
        for peer, pattern in zip(shared, ("(a|b)*abb", "(.*0.*)&~(.*01.*)"))
    ]
    for peer, ops in zip(shared, own_ops):
        check(peer.obs.metrics.snapshot().get("algebra.ops") == ops > 0,
              "registry algebra.ops counts another solver's work")

    tracer = solver.obs.tracer
    names = {event["name"] for event in tracer.events}
    for name in ("solver.explore", "deriv.tree", "deriv.meld",
                 "algebra.sat_check", "graph.update"):
        check(name in names, "span %s missing from trace" % name)

    with tempfile.TemporaryDirectory() as tmp:
        chrome_path = os.path.join(tmp, "trace.json")
        jsonl_path = os.path.join(tmp, "trace.jsonl")
        count = tracer.export(chrome_path)
        check(count == len(tracer.events), "chrome export dropped events")
        events = read_chrome(chrome_path)
        check(len(events) == count, "chrome trace did not round-trip")
        tracer.export(jsonl_path)
        check(read_jsonl(jsonl_path) == tracer.events,
              "jsonl trace did not round-trip")

    print("smoke_obs: ok (%d states, %d sat checks, %d spans)"
          % (stats["explored"], stats["sat_checks"], len(tracer.events)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
