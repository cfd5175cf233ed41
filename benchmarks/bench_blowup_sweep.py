"""Determinization-blowup sweep: lazy derivatives vs eager automata as
the counter ``k`` grows in ``(.*a.{k})&(.*b.{k})``.

This regenerates the qualitative content of the paper's blowup
discussion: lazy derivative exploration scales linearly in ``k`` while
the determinizing pipeline crosses its state budget almost immediately.
The per-``k`` table is written to ``benchmarks/out/blowup_sweep.txt``.
"""

import time

import pytest

from repro.regex import parse
from repro.solver import Budget, RegexSolver
from repro.solver.baselines import EagerAutomataSolver

from conftest import write_artifact, write_json_artifact

KS = (4, 8, 16, 32, 64)


def clash(builder, k):
    return parse(builder, "(.*a.{%d})&(.*b.{%d})" % (k, k))


def test_blowup_sweep_lazy(benchmark, builder):
    def sweep():
        rows = []
        for k in KS:
            solver = RegexSolver(builder)
            started = time.perf_counter()
            result = solver.is_satisfiable(clash(builder, k), Budget(fuel=500000))
            elapsed = time.perf_counter() - started
            rows.append((k, result.status, elapsed, result.stats["vertices"]))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    assert all(status == "unsat" for _, status, _, _ in rows)
    # linear growth: states at k=64 are ~2x states at k=32, not 2^32x
    states = {k: v for k, _, _, v in rows}
    assert states[64] <= 4 * states[32]

    eager_rows = []
    for k in KS:
        solver = EagerAutomataSolver(builder, max_states=20000,
                                     determinize_all=True)
        started = time.perf_counter()
        result = solver.is_satisfiable(clash(builder, k))
        elapsed = time.perf_counter() - started
        eager_rows.append(
            (k, result.status, elapsed, result.stats.explored)
        )
    # the eager pipeline falls over somewhere in the sweep
    assert any(status == "unknown" for _, status, _, _ in eager_rows)

    lines = ["%4s %28s %28s" % ("k", "lazy (status/time/states)",
                                "eager-dfa (status/time/states)")]
    for (k, s1, t1, v1), (_, s2, t2, v2) in zip(rows, eager_rows):
        lines.append("%4d %10s %8.3fs %6d   %10s %8.3fs %6s"
                     % (k, s1, t1, v1, s2, t2, v2))
    text = "\n".join(lines)
    print("\n" + text)
    write_artifact("blowup_sweep.txt", text)
    write_json_artifact("blowup_sweep.json", {
        "columns": ["k", "status", "seconds", "states"],
        "lazy": rows,
        "eager_dfa": eager_rows,
    })
