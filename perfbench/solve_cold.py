"""solve-cold: closed loop, one thread, in process.

Every problem of the paper-shaped suites goes text -> parse -> verdict
on a fresh ``RegexBuilder`` + ``SmtSolver`` under a fuel budget; the
wall cap is high enough that only fuel decides.  Passes of freshly
generated problems follow one another until the run's time is up.
"""

import gc
import json
import math
import os
import subprocess
import sys
import time

from repro.alphabet import IntervalAlgebra
from repro.regex.builder import RegexBuilder
from repro.solver.result import Budget
from repro.solver.smt import SmtSolver

import inputs
import oracle
from calibrate import Calibration
from common import (
    FUEL, ROOT, WALL_CAP_S, median, out_dir, quantile, self_rss_mb,
)
from layers import Counters, instrument, per_layer_metrics
from tracer import Tracer

#: How many times set-up is measured in one run.
SETUP_SAMPLES = 7
#: Passes generated per second of run time (a pass takes about 2 s);
#: a run that solves them all starts over on fresh stacks.
PASSES_PER_SECOND = 0.75
#: The peak RSS is read when this many passes are solved.  Each pass
#: meets its heaviest problems on another heap layout, so the peak over
#: the whole run would grow with the number of passes a host's speed
#: allows; a fixed count of passes keeps host speed out of it.
RSS_PASSES = 3
#: Share of a traced run spent on the untraced reference phase.
TRACE_REFERENCE_SHARE = 0.45

_SETUP_CODE = r"""
import sys, time
started = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from repro import IntervalAlgebra, RegexBuilder, SmtSolver
SmtSolver(RegexBuilder(IntervalAlgebra()))
print(time.perf_counter() - started)
"""

#: Generates and labels the passes, one JSON line per pass, into a
#: file (argv: src, perfbench, seed, passes, file); prints the digest
#: of every query.
_INPUTS_CODE = r"""
import json, sys
sys.path[:0] = sys.argv[1:3]
import inputs, oracle
seed, passes, path = int(sys.argv[3]), int(sys.argv[4]), sys.argv[5]
everything = []
with open(path, "w", encoding="utf-8") as handle:
    for index in range(passes):
        queries = inputs.solve_pass(seed, index)
        everything.extend(queries)
        handle.write(json.dumps({"queries": queries,
                                 "labels": oracle.labels_for(queries)}))
        handle.write("\n")
print(inputs.digest(everything))
"""


def setup_seconds():
    """Median time to import the program and build the first solver
    stack, each sample in a fresh interpreter, scaled by calibration
    units run between the samples."""
    times = []
    calibration = Calibration(every_s=0.0)
    for _ in range(SETUP_SAMPLES):
        out = subprocess.run(
            [sys.executable, "-c", _SETUP_CODE, os.path.join(ROOT, "src")],
            check=True, capture_output=True, text=True, timeout=60,
        )
        times.append(float(out.stdout.strip().splitlines()[-1]))
        calibration.after(times[-1])
    return median(calibration.scaled(times))


def collect():
    """Free the garbage earlier problems left, then set what survives
    aside (``gc.freeze``), so the next collection looks only at newer
    objects and takes microseconds.  Called untimed before each
    problem: otherwise the problem pays for earlier problems' cyclic
    garbage, and whichever heavy problem meets how much of it moves the
    peak RSS by megabytes from run to run."""
    gc.collect()
    gc.freeze()


def solve_one(query):
    """Text -> verdict on a fresh stack.  Returns the elapsed seconds,
    the answer and what the checks need."""
    started = time.perf_counter()
    builder = RegexBuilder(IntervalAlgebra())
    solver = SmtSolver(builder)
    formula = oracle.query_formula(builder, query.kind, query.text)
    result = solver.solve(formula, Budget(FUEL, WALL_CAP_S))
    elapsed = time.perf_counter() - started
    return elapsed, builder, solver, formula, result


def answer_key(result):
    """What must be identical between runs of the same query."""
    model = tuple(sorted((result.model or {}).items()))
    return (result.status, model)


class _Queries:
    """Passes of fresh problems, generated and labelled before the
    timed loop by a child interpreter into a file, then read back one
    pass at a time.  Neither the generators, nor the baseline engines,
    nor more than one pass of text count in this process's peak RSS."""

    def __init__(self, seed, seconds):
        self.passes = max(2, math.ceil(seconds * PASSES_PER_SECOND))
        here = os.path.dirname(os.path.abspath(__file__))
        self.path = os.path.join(out_dir(), "solve-cold-%d.jsonl"
                                 % os.getpid())
        out = subprocess.run(
            [sys.executable, "-c", _INPUTS_CODE, os.path.join(ROOT, "src"),
             here, str(seed), str(self.passes), self.path],
            check=True, capture_output=True, text=True, timeout=600,
        )
        self.digest = out.stdout.strip()
        self.handle = open(self.path, encoding="utf-8")
        self._read_pass()

    def _read_pass(self):
        # let the previous pass go first, so two never share the heap
        self.queries = self.labels = None
        line = self.handle.readline()
        if not line:
            # every pass solved: start over on fresh stacks
            self.handle.seek(0)
            line = self.handle.readline()
        data = json.loads(line)
        self.queries = [inputs.Query(*q) for q in data["queries"]]
        self.labels = data["labels"]
        self.served = 0

    def next(self):
        if self.served == len(self.queries):
            self._read_pass()
        self.served += 1
        return self.queries[self.served - 1]

    def close(self):
        self.handle.close()
        os.remove(self.path)


def _grade(report, query, labels, solver, formula, result):
    if result.is_unknown and result.error is not None:
        report.errors += 1
    ok = oracle.check_model(solver, formula, result.status, result.model)
    verdict = oracle.grade(result.status, labels.get(query.text), ok)
    if verdict == oracle.WRONG:
        report.flag("%s: %s" % (query.name, result.status))
    elif verdict == oracle.UNCHECKED and result.status != "unknown":
        report.unchecked += 1


def _solve_graded(report, query, labels):
    """Collect, solve ``query`` and grade the answer.  Returns the
    elapsed seconds and the answer key; the stack goes with this frame,
    so the next collection frees it."""
    collect()
    elapsed, _builder, solver, formula, result = solve_one(query)
    _grade(report, query, labels, solver, formula, result)
    return elapsed, answer_key(result)


def _solve_counted(query):
    """Solve ``query``; returns the elapsed seconds, the builder's
    interned-node count and the answer key."""
    elapsed, builder, _solver, _formula, result = solve_one(query)
    return elapsed, builder.interned_count, answer_key(result)


def run(report, seed, seconds, trace):
    queries = _Queries(seed, seconds)
    try:
        if trace:
            return _run_traced(report, queries, seconds)
        return _run_timed(report, queries, seconds)
    finally:
        queries.close()


def _run_timed(report, queries, seconds):
    setup_s = setup_seconds()
    rss_before_mb = self_rss_mb()
    rss_mb = None
    rss_after = RSS_PASSES * len(queries.queries)
    calibration = Calibration()
    latencies = []
    decided = 0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        query = queries.next()
        elapsed, key = _solve_graded(report, query, queries.labels)
        latencies.append(elapsed)
        if len(latencies) == rss_after:
            rss_mb = self_rss_mb()
        calibration.after(elapsed)
        if key[0] in ("sat", "unsat"):
            decided += 1
    report.attempted = len(latencies)
    report.note("problems=%d of %d generated, inputs=%s" % (
        len(latencies), queries.passes * len(queries.queries),
        queries.digest))
    report.note("raw: p50=%.4f ms p95=%.4f ms qps=%.2f" % (
        quantile(latencies, 0.50) * 1e3, quantile(latencies, 0.95) * 1e3,
        len(latencies) / sum(latencies)))
    report.note(calibration.describe())
    if rss_mb is None:
        # a run too short for the passes the figure is defined over
        rss_mb = self_rss_mb()
    report.note("rss: %.1f MB before solving, %.1f MB peak after %d "
                "passes, %.1f MB at the end" % (
                    rss_before_mb, rss_mb, RSS_PASSES, self_rss_mb()))
    scaled = calibration.scaled(latencies)
    report.metric("setup_s", setup_s, "s")
    report.metric("peak_rss_mb", rss_mb, "MB")
    report.metric("decided_frac", decided / len(latencies), "frac")
    report.metric("p50_ms", quantile(scaled, 0.50) * 1e3, "ms")
    report.metric("p95_ms", quantile(scaled, 0.95) * 1e3, "ms")
    report.metric("ops_per_s", len(scaled) / sum(scaled), "1/s")


def _run_traced(report, queries, seconds):
    """Untraced reference phase, then the same queries traced: the
    answers must be identical, and the wall-time ratio is the tracing
    overhead."""
    reference = []
    deadline = time.perf_counter() + seconds * TRACE_REFERENCE_SHARE
    while time.perf_counter() < deadline:
        query = queries.next()
        elapsed, key = _solve_graded(report, query, queries.labels)
        reference.append((query, elapsed, key))
    tracer = Tracer()
    counters = Counters()
    traced_s = request_s = 0.0
    with tracer:
        instrument(tracer, counters)
        for index, (query, _elapsed, key) in enumerate(reference):
            collect()
            tracer.request = index
            with tracer.span("request") as span:
                elapsed, interned, traced = _solve_counted(query)
            traced_s += elapsed
            request_s += span.duration
            counters.add("interned", interned)
            if traced != key:
                report.flag("%s: traced answer %r differs from untraced %r"
                            % (query.name, traced, key))
    report.attempted = len(reference)
    untraced_s = sum(elapsed for _q, elapsed, _k in reference)
    report.metrics.update(per_layer_metrics(
        tracer, counters, len(reference), request_s, untraced_s, traced_s))
    return tracer
