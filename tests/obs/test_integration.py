"""End-to-end telemetry: solver counters, memo hit rates, per-query
deltas, typed stats, and the CLI flags."""

import json

import pytest

from repro.alphabet import IntervalAlgebra
from repro.obs import Observability, read_chrome, read_jsonl
from repro.regex import RegexBuilder, parse
from repro.solver import RegexSolver, SolverResult, SolverStats
from repro.__main__ import main


def make_solver(tracing=False):
    builder = RegexBuilder(IntervalAlgebra(127))
    obs = Observability.tracing() if tracing else Observability()
    return RegexSolver(builder, obs=obs), builder


def test_counters_populated_by_a_query():
    solver, builder = make_solver()
    result = solver.is_satisfiable(parse(builder, "(a|b)*abb"))
    assert result.is_sat
    snap = solver.obs.metrics.snapshot()
    assert snap["solver.queries"] == 1
    assert snap["solver.explored"] >= 1
    assert snap["graph.updates"] >= 1
    assert snap["deriv.deriv_memo_misses"] >= 1
    assert snap["algebra.ops"] >= 1


def test_memo_hit_rate_on_repeated_queries():
    """Re-running a query must be answered from the memo tables: the
    second run adds hits without adding misses (the regression the
    paper's laziness story depends on)."""
    solver, builder = make_solver()
    regex = parse(builder, "(a|b)*a(a|b)(a|b)")
    solver.is_satisfiable(regex)
    misses_before = solver.engine.deriv_memo_misses
    hits_before = solver.engine.deriv_memo_hits
    solver.is_satisfiable(regex)
    assert solver.engine.deriv_memo_misses == misses_before
    assert solver.engine.deriv_memo_hits > hits_before


def test_per_query_stats_are_deltas_with_lifetime():
    solver, builder = make_solver()
    r1 = solver.is_satisfiable(parse(builder, "(a|b)*abb"))
    r2 = solver.is_satisfiable(parse(builder, "(a|b)*abb"))
    assert isinstance(r1.stats, SolverStats)
    # second run of the same (memoized, graph-cached) query does very
    # little fresh work...
    assert r2.stats["explored"] <= r1.stats["explored"]
    assert r2.stats["deriv_memo_misses"] == 0
    # ...but the lifetime counters are cumulative across both
    assert r2.stats["lifetime"]["queries"] == 2
    assert (
        r2.stats["lifetime"]["explored"]
        == r1.stats["explored"] + r2.stats["explored"]
    )


def test_lifetime_queries_counted_with_observability_disabled():
    builder = RegexBuilder(IntervalAlgebra(127))
    solver = RegexSolver(builder, obs=Observability.disabled())
    solver.is_satisfiable(parse(builder, "(a|b)*abb"))
    result = solver.is_satisfiable(parse(builder, "a&b"))
    assert result.stats.lifetime["queries"] == 2
    assert result.stats.lifetime["explored"] >= 2


def test_registry_counts_only_its_own_solver_on_a_shared_algebra():
    """Two solvers on one builder share one algebra; each registry adds
    up its own queries' deltas, never the other solver's work."""
    builder = RegexBuilder(IntervalAlgebra(127))
    first = RegexSolver(builder)
    second = RegexSolver(builder)
    first.is_satisfiable(parse(builder, "(.*a.{3})&(.*b.{3})"))
    result = second.is_satisfiable(parse(builder, "(a|b)*abb"))
    snap = second.obs.metrics.snapshot()
    assert snap["algebra.ops"] == result.stats.algebra_ops > 0
    assert snap["algebra.sat_checks"] == result.stats.algebra_sat_checks
    assert snap["solver.explored"] == result.stats.explored


def test_stats_mapping_compat():
    stats = SolverStats(explored=3, sat_checks=2)
    assert stats["explored"] == 3
    assert "sat_checks" in stats
    assert stats.get("missing", -1) == -1
    assert dict(stats.items())["explored"] == 3
    with pytest.raises(KeyError):
        stats["nope"]
    with pytest.raises(TypeError):
        SolverStats(bogus_field=1)


def test_solver_result_to_dict():
    stats = SolverStats(explored=5)
    result = SolverResult("sat", witness="ab", stats=stats)
    out = result.to_dict()
    assert out["status"] == "sat"
    assert out["witness"] == "ab"
    assert out["stats"]["explored"] == 5
    assert "model" not in out
    json.dumps(out)  # JSON-serializable end to end


def test_disabled_obs_reports_empty_metrics():
    builder = RegexBuilder(IntervalAlgebra(127))
    solver = RegexSolver(builder, obs=Observability.disabled())
    result = solver.is_satisfiable(parse(builder, "(a|b)*abb"))
    assert result.is_sat
    assert solver.obs.metrics.snapshot() == {}
    # typed stats still work: they come from the solver's own snapshot
    # deltas, not the registry
    assert result.stats["vertices"] >= 1


def test_tracing_produces_nested_spans():
    solver, builder = make_solver(tracing=True)
    solver.is_satisfiable(parse(builder, "(a|b)*abb"))
    names = {e["name"] for e in solver.obs.tracer.events}
    assert "solver.explore" in names
    assert "deriv.tree" in names
    assert "algebra.sat_check" in names
    explore = next(
        e for e in solver.obs.tracer.events if e["name"] == "solver.explore"
    )
    assert explore["depth"] == 0
    assert any(e["depth"] > 0 for e in solver.obs.tracer.events)


def test_cli_stats_flag(capsys):
    status = main(["--stats", "check", "(a|b)*abb"])
    out = capsys.readouterr().out
    assert status == 0
    assert out.startswith("sat")
    assert "stats: " in out
    assert "solver.explored" in out


def test_cli_trace_flag_chrome(tmp_path, capsys):
    path = str(tmp_path / "trace.json")
    main(["--trace", path, "check", "(a|b)*abb"])
    out = capsys.readouterr().out
    assert "trace: wrote" in out
    events = read_chrome(path)
    assert any(e["name"] == "solver.explore" for e in events)


def test_cli_trace_flag_jsonl(tmp_path, capsys):
    path = str(tmp_path / "trace.jsonl")
    main(["--trace", path, "check", "(a|b)*abb"])
    capsys.readouterr()
    events = read_jsonl(path)
    assert any(e["name"] == "solver.explore" for e in events)
