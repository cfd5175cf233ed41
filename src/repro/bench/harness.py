"""Benchmark harness: problems, engines, and the evaluation runner.

Mirrors the paper's methodology (Section 6): every engine gets the
same per-problem budget; errors, wrong answers and unsupported cases
are treated as timeouts for comparison purposes; answers are checked
against the generator's label, and sat models are additionally
validated against the formula.
"""

import statistics
import time

from repro.solver.formula import is_boolean_combination
from repro.solver.result import Budget
from repro.solver.smt import SmtSolver


class Problem:
    """One benchmark instance: a formula with provenance and label."""

    __slots__ = ("name", "suite", "group", "formula", "expected")

    def __init__(self, name, suite, group, formula, expected=None):
        self.name = name
        self.suite = suite
        self.group = group          # "NB", "B", or "H"
        self.formula = formula
        self.expected = expected    # "sat" / "unsat" / None

    def is_boolean(self):
        return is_boolean_combination(self.formula)

    def __repr__(self):
        return "Problem(%s/%s)" % (self.suite, self.name)


class Engine:
    """A named solving pipeline: the shared SMT front end over one
    regex satisfiability engine."""

    def __init__(self, name, make_regex_engine):
        self.name = name
        self._make = make_regex_engine

    def fresh_solver(self, builder):
        return SmtSolver(builder, self._make(builder))


class Record:
    """Outcome of one (engine, problem) run.

    ``stats`` is the result's :class:`~repro.solver.result.SolverStats`
    flattened by ``to_dict``: the work this one problem did (explored
    states, sat checks, memo hits, ...), independent of what ran before
    it, so the exported benchmark JSON carries per-problem counters for
    every run.
    """

    __slots__ = ("problem", "engine", "status", "seconds", "outcome", "stats")

    def __init__(self, problem, engine, status, seconds, outcome, stats=None):
        self.problem = problem
        self.engine = engine
        self.status = status
        self.seconds = seconds
        # outcome: "correct", "wrong", "timeout", "unchecked"
        self.outcome = outcome
        self.stats = stats if stats is not None else {}

    @property
    def solved(self):
        return self.outcome in ("correct", "unchecked")


def record_outcome(result, solver, expected, formula=None):
    """Classify one solver result against its expected label.

    Returns ``(status, outcome, stats)`` with the paper's methodology:
    unknowns are "timeout", wrong answers are "timeout"-equivalent, and
    sat models are validated against the formula when available.
    Shared between the serial :func:`run_problem` path and the batch
    worker's ``bench`` task executor.
    """
    status = result.status
    stats = result.stats.to_dict()
    if status == "unknown":
        return status, "timeout", stats
    if expected is None:
        outcome = "unchecked"
    elif status == expected:
        outcome = "correct"
    else:
        outcome = "wrong"
    if (status == "sat" and result.model is not None and outcome != "wrong"
            and formula is not None):
        if not solver.check_model(formula, result.model):
            outcome = "wrong"
    return status, outcome, stats


def run_problem(engine, builder, problem, fuel=200000, seconds=2.0):
    """Run one problem under a fresh solver with a fixed budget."""
    solver = engine.fresh_solver(builder)
    budget = Budget(fuel=fuel, seconds=seconds)
    started = time.perf_counter()
    try:
        result = solver.solve(problem.formula, budget=budget)
    except Exception:  # a crash counts as a timeout, like the paper
        return Record(problem, engine.name, "error", seconds, "timeout")
    elapsed = time.perf_counter() - started
    status, outcome, stats = record_outcome(
        result, solver, problem.expected, formula=problem.formula
    )
    if outcome in ("timeout", "wrong"):
        # wrong answers are treated as timeouts in the comparison
        return Record(problem, engine.name, status, seconds, outcome, stats)
    return Record(
        problem, engine.name, status, min(elapsed, seconds), outcome, stats
    )


def run_matrix(engines, problems, builder, fuel=200000, seconds=2.0,
               progress=None, jobs=1):
    """Run every engine on every problem; returns a list of records.

    ``builder`` must be the builder the problems were generated with
    (regexes are interned per builder and cannot be mixed across
    builders).  Each engine still gets a fresh solver per problem, so
    no engine carries state between instances.

    ``jobs > 1`` fans the (engine, problem) matrix across that many
    worker processes via :mod:`repro.serve`; fuel budgets make the
    verdicts identical to the serial run.  Parallel mode requires
    engines resolvable by name through
    :func:`repro.bench.engines.engine_by_name`.
    """
    if jobs and jobs > 1:
        return run_matrix_parallel(
            engines, problems, builder, fuel=fuel, seconds=seconds,
            progress=progress, jobs=jobs,
        )
    records = []
    for engine in engines:
        for i, problem in enumerate(problems):
            records.append(
                run_problem(engine, builder, problem, fuel=fuel, seconds=seconds)
            )
            if progress is not None and (i + 1) % 50 == 0:
                progress(engine.name, i + 1, len(problems))
    return records


def run_matrix_parallel(engines, problems, builder, fuel=200000, seconds=2.0,
                        progress=None, jobs=2):
    """The batched evaluation matrix: one ``bench`` job per (engine,
    problem) cell, solved on a :class:`repro.serve.WorkerPool`.

    Problems travel as SMT-LIB text and are re-parsed against each
    worker's own builder; pool-level failures (a crashed or reaped
    worker) surface as error Records with the full budget charged,
    mirroring the serial path's crash-counts-as-timeout rule.

    Problems with no SMT-LIB wire form — the re theory has no
    zero-width assertions, so lookaround benchmarks cannot be shipped
    to workers — are solved in process on the serial path and merged
    into the same record list.
    """
    from repro.bench.engines import engine_by_name
    from repro.errors import SmtLibError
    from repro.serve import Job, solve_batch
    from repro.smtlib.writer import script_text

    for engine in engines:
        engine_by_name(engine.name)  # fail fast on unregistered engines

    texts = []
    for p in problems:
        try:
            texts.append(
                script_text(p.formula, builder.algebra, status=p.expected)
            )
        except SmtLibError:
            texts.append(None)
    records = []
    batch = []
    cells = []
    for engine in engines:
        for problem, text in zip(problems, texts):
            if text is None:
                records.append(run_problem(
                    engine, builder, problem, fuel=fuel, seconds=seconds,
                ))
                continue
            batch.append(Job(
                "%s/%s" % (engine.name, problem.name), "bench",
                {"engine": engine.name, "smt2": text},
                expected=problem.expected,
            ))
            cells.append((engine.name, problem))

    def pool_progress(done, _total):
        if progress is not None and done % 50 == 0:
            progress("pool", done, len(batch))

    report = solve_batch(
        batch, workers=jobs, fuel=fuel, seconds=seconds,
        progress=pool_progress,
    )
    for result, (engine_name, problem) in zip(report.results, cells):
        if result.outcome is not None:
            records.append(Record(
                problem, engine_name, result.status,
                result.elapsed if result.outcome not in ("timeout", "wrong")
                else seconds,
                result.outcome, result.stats,
            ))
        else:
            # pool-synthesized verdict (crashed/reaped worker): charge
            # the full budget, keep the structured error in the stats
            records.append(Record(
                problem, engine_name, "error", seconds, "timeout",
                {"error": result.error} if result.error else {},
            ))
    return records


def summarize(records, budget_seconds):
    """Per-(engine, group) summary: solved %, avg and median seconds.

    Timeouts and wrong answers are charged the full budget, following
    the paper's methodology.
    """
    cells = {}
    for record in records:
        key = (record.engine, record.problem.group)
        cells.setdefault(key, []).append(record)
    out = {}
    for (engine, group), recs in cells.items():
        times = [
            r.seconds if r.solved else budget_seconds for r in recs
        ]
        solved = sum(1 for r in recs if r.solved)
        out[(engine, group)] = {
            "total": len(recs),
            "solved": solved,
            "solved_pct": 100.0 * solved / len(recs),
            "avg": statistics.fmean(times),
            "median": statistics.median(times),
        }
    return out


def cumulative(records, engine, group=None):
    """Sorted solve times for the cumulative plot (Figure 4b): the
    k-th entry is the time within which k+1 benchmarks were solved."""
    times = sorted(
        r.seconds
        for r in records
        if r.engine == engine and r.solved
        and (group is None or r.problem.group == group)
    )
    return times
