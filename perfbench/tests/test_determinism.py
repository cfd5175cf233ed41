"""The same seed gives identical inputs and answers; another seed gives
other inputs.  The traced run reports every per-layer metric."""

import json

import pytest

import inputs
import match_log
import run as bench_run
import solve_cold


def test_solve_inputs_follow_the_seed():
    first = inputs.digest(inputs.solve_pass(3, 0))
    assert first == inputs.digest(inputs.solve_pass(3, 0))
    assert first != inputs.digest(inputs.solve_pass(4, 0))
    assert first != inputs.digest(inputs.solve_pass(3, 1))


def test_serve_inputs_follow_the_seed():
    pool, stream = inputs.serve_stream(3, 120)
    again = inputs.serve_stream(3, 120)
    other = inputs.serve_stream(4, 120)
    assert inputs.digest(pool + stream) == inputs.digest(again[0] + again[1])
    assert inputs.digest(pool + stream) != inputs.digest(other[0] + other[1])


def test_log_follows_the_seed():
    assert inputs.log_lines(3, 50) == inputs.log_lines(3, 50)
    assert inputs.log_lines(3, 50) != inputs.log_lines(4, 50)


def test_same_seed_gives_identical_answers():
    queries = inputs.solve_pass(5, 0)[:60]
    first = [solve_cold.answer_key(solve_cold.solve_one(q)[4])
             for q in queries]
    second = [solve_cold.answer_key(solve_cold.solve_one(q)[4])
              for q in queries]
    assert first == second


def test_same_seed_gives_identical_spans():
    lines = inputs.log_lines(5, 8)
    _b, _d, first = match_log.compile_all()
    _b, _d, second = match_log.compile_all()
    assert ([match_log.scan(first, line)[1] for line in lines]
            == [match_log.scan(second, line)[1] for line in lines])


def test_every_suite_group_is_present():
    queries = inputs.solve_pass(1, 0)
    assert {q.group for q in queries} == {"NB", "B", "H"}
    assert sum(q.kind == "pattern" for q in queries) == 18
    assert sum(q.suite == "blowup_heavy" for q in queries) == len(
        inputs.BLOWUP_KS)


@pytest.mark.parametrize("workload", ["solve-cold", "match-log"])
def test_traced_run_reports_every_per_layer_metric(workload, capsys):
    with open(bench_run.os.path.join(bench_run.HERE, "..",
                                     "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    code = bench_run.main(["--workload", workload, "--seed", "2",
                           "--seconds", "0.5", "--trace", "1"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0 and result["correct"]
    assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}
    for metric in spec["per_layer"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
