"""Layer instrumentation and the per-layer metrics of a traced run.

The layers are the program's modules: the front end (``repro.regex``
with ``repro.smtlib``), ``repro.alphabet``, ``repro.derivatives``,
``repro.solver`` (exploration, graph, store), ``repro.matcher`` and
``repro.serve``.  :func:`instrument` wraps their public functions and
methods; :func:`per_layer_metrics` turns the spans and the program's
public counters into the 32 per-layer metrics.  Counts and times are
per operation: one query (solve-cold), one request (serve-zipf) or one
log line scanned by every pattern (match-log).  A layer a workload does
not reach reads 0.
"""

import importlib

from repro.alphabet import IntervalAlgebra
from repro.derivatives.condtree import DerivativeEngine
from repro.matcher.dfa_cache import LazyDfa
from repro.matcher.matcher import RegexMatcher
from repro.regex.builder import RegexBuilder
from repro.solver.engine import RegexSolver
from repro.solver.smt import SmtSolver
from repro.solver.store import SolverStore

ALGEBRA_OPS = ("conj", "disj", "neg", "is_sat", "is_valid", "member",
               "in_domain", "pick", "from_char", "from_ranges",
               "from_chars", "equiv", "diff", "xor", "conj_all",
               "disj_all", "implies", "is_singleton")
DERIVATIVE_OPS = ("transitions", "derivative", "meld", "negate", "concat",
                  "apply", "derive_regex", "successors")

#: SolverStats fields summed over a traced run's queries.
STATS_FIELDS = ("explored", "vertices", "fuel_used", "algebra_ops",
                "sat_checks", "deriv_memo_hits", "deriv_memo_misses",
                "meld_memo_hits", "meld_memo_misses")

#: Every per-layer metric, with its unit, in BENCHMARK.json order.
METRICS = (
    ("regex.parse_ms", "ms"), ("regex.parse_share", "frac"),
    ("regex.interned", "count"), ("regex.look_elim_ms", "ms"),
    ("regex.union_calls", "count"),
    ("alphabet.ops", "count"), ("alphabet.sat_checks", "count"),
    ("alphabet.self_ms", "ms"), ("alphabet.member_calls", "count"),
    ("derivatives.transitions", "count"), ("derivatives.self_ms", "ms"),
    ("derivatives.memo_hit_ratio", "frac"),
    ("derivatives.meld_hit_ratio", "frac"),
    ("solver.explored", "count"), ("solver.fuel_used", "count"),
    ("solver.vertices", "count"), ("solver.self_ms", "ms"),
    ("store.hit_ratio", "frac"), ("store.miss_solve_ms", "ms"),
    ("store.hit_solve_ms", "ms"),
    ("matcher.steps", "count"), ("matcher.rows_built", "count"),
    ("matcher.row_hit_ratio", "frac"), ("matcher.step_ns", "ns"),
    ("serve.solve_ms", "ms"), ("serve.queue_ms", "ms"),
    ("serve.socket_ms", "ms"), ("serve.rejected", "count"),
    ("serve.backlog_max", "count"), ("serve.gen_late_ms", "ms"),
    ("trace.overhead_frac", "frac"), ("trace.unattributed_frac", "frac"),
)


class Counters:
    """Per-query counter deltas gathered during a traced run."""

    def __init__(self):
        self.values = dict.fromkeys(STATS_FIELDS + (
            "interned", "steps", "rows_built", "row_hits", "row_misses"), 0)

    def add(self, name, amount):
        self.values[name] += amount

    def add_stats(self, stats):
        """Fold in one ``RegexSolver`` query's ``SolverStats`` (already
        a per-query delta)."""
        for name in STATS_FIELDS:
            self.values[name] += getattr(stats, name, 0) or 0

    def add_dfa(self, dfa, before):
        """Fold in a ``LazyDfa``'s counters, minus a ``before``
        snapshot from :func:`dfa_counters`."""
        for name, value in dfa_counters(dfa).items():
            self.values[name] += value - before[name]


def dfa_counters(dfa):
    engine = dfa.engine
    return {
        "steps": dfa.steps, "rows_built": dfa.states_built,
        "row_hits": dfa.row_hits, "row_misses": dfa.row_misses,
        "algebra_ops": dfa.algebra.op_count,
        "deriv_memo_hits": engine.deriv_memo_hits,
        "deriv_memo_misses": engine.deriv_memo_misses,
        "meld_memo_hits": engine.meld_memo_hits,
        "meld_memo_misses": engine.meld_memo_misses,
        "sat_checks": engine.sat_checks,
        "interned": dfa.builder.interned_count,
    }


def instrument(tracer, counters):
    """Wrap every layer's public entry points; undone by
    ``tracer.restore()``."""

    def solver_result(result):
        stats = getattr(result, "stats", None)
        if stats is not None and not isinstance(stats, dict):
            counters.add_stats(stats)

    regex_parser = importlib.import_module("repro.regex.parser")
    smt_parser = importlib.import_module("repro.smtlib.parser")
    engine_module = importlib.import_module("repro.solver.engine")
    # the parsers, wherever the program binds them by name
    for module, attr, name in (
            (regex_parser, "parse", "regex.parse"),
            (smt_parser, "parse_script", "regex.parse_script"),
            (importlib.import_module("repro.serve.worker"), "parse",
             "regex.parse"),
            (importlib.import_module("repro.smtlib.interp"), "parse_script",
             "regex.parse_script")):
        tracer.wrap(module, attr, name, record=True)
    tracer.wrap(engine_module, "eliminate_lookarounds", "regex.look_elim",
                record=True)
    tracer.wrap(RegexBuilder, "union", "regex.union")
    for op in ALGEBRA_OPS:
        tracer.wrap(IntervalAlgebra, op, "alphabet." + op)
    for op in DERIVATIVE_OPS:
        tracer.wrap(DerivativeEngine, op, "derivatives." + op)
    tracer.wrap(SmtSolver, "solve", "solver.smt", record=True)
    tracer.wrap(RegexSolver, "is_satisfiable", "solver.regex", record=True,
                observe=solver_result)
    tracer.wrap(SolverStore, "lookup", "solver.store_lookup")
    tracer.wrap(SolverStore, "insert", "solver.store_insert")
    tracer.wrap(RegexMatcher, "search", "matcher.search")
    tracer.wrap(LazyDfa, "step", "matcher.step")
    tracer.wrap(LazyDfa, "row", "matcher.row")


def _ratio(hits, misses):
    total = hits + misses
    return hits / total if total else 0.0


def per_layer_metrics(tracer, counters, ops, request_s, untraced_s,
                      traced_s, serve=None):
    """The per-layer metrics of one traced run.

    ``ops`` operations took ``request_s`` seconds of request spans in
    the traced phase; the same operations took ``untraced_s`` without
    tracing and ``traced_s`` with it.  ``serve`` holds the serving
    layer's figures (see ``serve_zipf``) when the workload has them.
    """
    ops = max(ops, 1)
    c = counters.values
    parse_s = (tracer.total_time("regex.parse")
               + tracer.total_time("regex.parse_script"))
    elim_calls = tracer.calls("regex.look_elim")
    steps = c["steps"]
    layer_self = sum(tracer.self_time(prefix) for prefix in (
        "regex.", "alphabet.", "derivatives.", "solver.", "matcher."))
    values = {
        "regex.parse_ms": parse_s / ops * 1e3,
        "regex.parse_share": parse_s / request_s if request_s else 0.0,
        "regex.interned": c["interned"] / ops,
        "regex.look_elim_ms": (tracer.total_time("regex.look_elim")
                               / elim_calls * 1e3 if elim_calls else 0.0),
        "regex.union_calls": tracer.calls("regex.union") / ops,
        "alphabet.ops": c["algebra_ops"] / ops,
        "alphabet.sat_checks": c["sat_checks"] / ops,
        "alphabet.self_ms": tracer.self_time("alphabet.") / ops * 1e3,
        "alphabet.member_calls": tracer.calls("alphabet.member") / ops,
        "derivatives.transitions":
            tracer.calls("derivatives.transitions") / ops,
        "derivatives.self_ms": tracer.self_time("derivatives.") / ops * 1e3,
        "derivatives.memo_hit_ratio":
            _ratio(c["deriv_memo_hits"], c["deriv_memo_misses"]),
        "derivatives.meld_hit_ratio":
            _ratio(c["meld_memo_hits"], c["meld_memo_misses"]),
        "solver.explored": c["explored"] / ops,
        "solver.fuel_used": c["fuel_used"] / ops,
        "solver.vertices": c["vertices"] / ops,
        "solver.self_ms": tracer.self_time("solver.") / ops * 1e3,
        "matcher.steps": steps / ops,
        "matcher.rows_built": c["rows_built"] / ops,
        "matcher.row_hit_ratio": _ratio(c["row_hits"], c["row_misses"]),
        "matcher.step_ns": (tracer.self_time("matcher.") / steps * 1e9
                            if steps else 0.0),
        "trace.overhead_frac": (traced_s / untraced_s - 1.0
                                if untraced_s else 0.0),
        "trace.unattributed_frac": (max(0.0, request_s - layer_self)
                                    / request_s if request_s else 0.0),
    }
    for name in ("store.hit_ratio", "store.miss_solve_ms",
                 "store.hit_solve_ms", "serve.solve_ms", "serve.queue_ms",
                 "serve.socket_ms", "serve.rejected", "serve.backlog_max",
                 "serve.gen_late_ms"):
        values[name] = (serve or {}).get(name, 0.0)
    return {name: {"value": float(values[name]), "unit": unit}
            for name, unit in METRICS}
