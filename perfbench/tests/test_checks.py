"""An injected wrong verdict, witness or span must raise ``wrong``."""

import json

import pytest

import inputs
import match_log
import oracle
import run as bench_run
import serve_zipf
import solve_cold
from common import Report
from inputs import Query
from repro.solver.result import SolverResult

DIGITS = Query("digits", "t", "NB", "pattern", "[0-9]{2,4}", None)
LABELLED_SAT = Query("digits_sat", "t", "NB", "pattern", "[0-9]{2,4}", "sat")


def _grade_in_process(query, result):
    report = Report("solve-cold", 0, 0)
    _elapsed, _builder, solver, formula, _real = solve_cold.solve_one(query)
    solve_cold._grade(report, query, {query.text: query.label}, solver,
                      formula, result)
    return report


def test_right_answer_is_not_flagged():
    query = LABELLED_SAT
    _elapsed, _builder, solver, formula, result = solve_cold.solve_one(query)
    report = Report("solve-cold", 0, 0)
    solve_cold._grade(report, query, {query.text: "sat"}, solver, formula,
                      result)
    assert result.is_sat and report.wrong == 0


def test_wrong_unsat_verdict_is_flagged():
    report = _grade_in_process(LABELLED_SAT, SolverResult("unsat"))
    assert report.wrong == 1 and not report.correct


def test_wrong_model_is_flagged():
    report = _grade_in_process(
        DIGITS, SolverResult("sat", model={"s": "abc"}))
    assert report.wrong == 1


def test_unsat_without_label_is_unchecked_not_trusted():
    report = _grade_in_process(DIGITS, SolverResult("unsat"))
    assert report.wrong == 0 and report.unchecked == 1


def test_baselines_label_an_empty_language_unsat():
    query = Query("empty", "t", "B", "pattern", "[a-c]+&~(.*)", None)
    assert oracle.baseline_label(query) == "unsat"


class _Rung:
    rate = 16

    def __init__(self, stream, replies):
        self.stream = stream
        self.replies = replies


def test_wrong_daemon_witness_is_flagged():
    pool = [DIGITS]
    rung = _Rung([0, 0], [
        {"status": "sat", "witness": "123"},
        {"status": "sat", "witness": "12a"},
    ])
    report = Report("serve-zipf", 0, 0)
    decided = serve_zipf._grade(report, rung, pool, {}, {})
    assert decided == 2 and report.wrong == 1


def test_wrong_daemon_model_is_flagged():
    smt = Query("smt", "t", "NB", "smt2",
                '(declare-const x String)\n'
                '(assert (str.in_re x (re.+ (re.range "0" "9"))))\n'
                '(check-sat)\n', None)
    rung = _Rung([0], [{"status": "sat", "model": {"x": "x"}}])
    report = Report("serve-zipf", 0, 0)
    serve_zipf._grade(report, rung, [smt], {}, {})
    assert report.wrong == 1


def _match_report(spans_for_line):
    builder, _dfa, matchers = match_log.compile_all()
    checkers = match_log._checkers(builder, matchers)
    line = "error 10.0.0.1 GET 500"
    _elapsed, spans = match_log.scan(matchers, line)
    spans_for_line(matchers, spans)
    report = Report("match-log", 0, 0)
    match_log._check(report, checkers, matchers, line, spans)
    return report


def _index(matchers, name):
    return [m[0] for m in matchers].index(name)


def test_true_spans_pass():
    assert _match_report(lambda matchers, spans: None).wrong == 0


def test_span_outside_the_language_is_flagged():
    def corrupt(matchers, spans):
        spans[_index(matchers, "ipv4")] = [(0, 5)]      # "error"
    assert _match_report(corrupt).wrong >= 1


def test_missing_match_is_flagged_against_re():
    def drop(matchers, spans):
        spans[_index(matchers, "integer")] = []
    assert _match_report(drop).wrong >= 1


def test_extended_pattern_span_is_checked_by_the_reference():
    def corrupt(matchers, spans):
        spans[_index(matchers, "int_not_ip")] = [(6, 9)]    # "10."
    assert _match_report(corrupt).wrong >= 1


def test_failing_scan_counts_against_decided_frac(monkeypatch, capsys):
    real = match_log.compile_all

    def with_a_broken_matcher():
        builder, dfa, matchers = real()
        matchers[0][3].finditer = lambda line: 1 / 0
        return builder, dfa, matchers

    monkeypatch.setattr(match_log, "compile_all", with_a_broken_matcher)
    code = bench_run.main(["--workload", "match-log", "--seed", "1",
                           "--seconds", "0.2", "--trace", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    patterns = len(inputs.log_patterns())
    assert code == 0
    assert result["failed"] == result["attempted"] // patterns
    assert (result["metrics"]["decided_frac"]["value"]
            == (patterns - 1) / patterns)


def test_run_exits_nonzero_on_a_wrong_answer(monkeypatch, capsys):
    real = solve_cold.solve_one

    def lying(query):
        elapsed, builder, solver, formula, result = real(query)
        if query.label == "sat" and result.is_sat:
            result = SolverResult("unsat")
        return elapsed, builder, solver, formula, result

    monkeypatch.setattr(solve_cold, "solve_one", lying)
    monkeypatch.setattr(solve_cold, "setup_seconds", lambda: 0.1)
    code = bench_run.main(["--workload", "solve-cold", "--seed", "1",
                           "--seconds", "0.2", "--trace", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False and result["failed"] >= 1


@pytest.mark.parametrize("workload", ["solve-cold", "match-log"])
def test_result_line_has_every_end_to_end_metric(workload, monkeypatch,
                                                 capsys):
    monkeypatch.setattr(solve_cold, "setup_seconds", lambda: 0.1)
    with open(bench_run.os.path.join(bench_run.HERE, "..",
                                     "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    code = bench_run.main(["--workload", workload, "--seed", "2",
                           "--seconds", "0.3", "--trace", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    for metric in spec["end_to_end"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
