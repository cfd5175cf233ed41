"""Solver results, typed per-query statistics, and resource budgets."""

import time
from operator import add, attrgetter

from repro.errors import BudgetExceeded

SAT = "sat"
UNSAT = "unsat"
UNKNOWN = "unknown"

#: Engine failures that must be mapped to a structured ``unknown``
#: result instead of propagating: runaway recursion on pathologically
#: nested inputs, and allocation failure during exploration.
RESOURCE_ERRORS = (RecursionError, MemoryError)


def error_info(exc):
    """The structured ``SolverResult.error`` payload for an exception."""
    return {
        "type": type(exc).__name__,
        "message": str(exc) or type(exc).__name__,
    }


class Budget:
    """A deterministic fuel counter plus an optional wall-clock limit.

    Fuel makes "timeouts" reproducible across machines: a unit of fuel
    is one unit of solver work (one state expansion, one rule firing).
    ``None`` means unlimited.
    """

    def __init__(self, fuel=None, seconds=None):
        self.fuel = fuel
        self.fuel_used = 0
        self.seconds = seconds
        self.ticks = 0
        self.started = time.perf_counter()

    def tick(self, amount=1):
        """Consume fuel; raise :class:`BudgetExceeded` when exhausted."""
        self.fuel_used += amount
        if self.fuel is not None and self.fuel_used > self.fuel:
            raise BudgetExceeded(
                "fuel exhausted", fuel_used=self.fuel_used, elapsed=self.elapsed
            )
        if self.seconds is not None:
            # check on every tick: the old `fuel_used % 64` guard never
            # fired when a tick with amount > 1 jumped the boundary
            self.ticks += 1
            if self.elapsed > self.seconds:
                raise BudgetExceeded(
                    "wall clock exceeded", fuel_used=self.fuel_used,
                    elapsed=self.elapsed,
                )

    @property
    def elapsed(self):
        return time.perf_counter() - self.started

    def remaining(self):
        if self.fuel is None:
            return None
        return max(self.fuel - self.fuel_used, 0)


class SolverStats:
    """Typed record of the work one query performed — the one
    per-query shape every engine returns.

    Every field is a *per-query* delta — :class:`~repro.solver.engine.
    RegexSolver` snapshots its cumulative counters at query entry and
    reports the difference — while ``lifetime`` holds the solver's
    cumulative counters, since the derivative memo tables and the
    reachability graph persist across queries on purpose.  Fields an
    engine does not track stay 0: the baselines count their states in
    ``explored``, the SMT front end adds ``case_splits`` to the sum of
    its sub-queries, and ``minterms`` is the minterm baseline's
    alphabet size.

    Behaves like a read-only mapping for backward compatibility with
    the free-form stats dict it replaced (``stats["vertices"]``,
    ``"sat_checks" in stats`` and friends keep working).
    """

    _FIELDS = (
        "explored", "vertices", "edges", "final", "closed", "alive", "dead",
        "sat_checks", "deriv_memo_hits", "deriv_memo_misses",
        "meld_memo_hits", "meld_memo_misses", "algebra_ops",
        "algebra_sat_checks", "fuel_used", "elapsed", "interned_regexes",
        "store_hits", "store_misses", "case_splits", "minterms",
    )

    #: dict-valued companions to the per-query delta fields: ``lifetime``
    #: holds cumulative counters, ``caches`` the current cache entry
    #: counts and approximate bytes (levels, not deltas — see
    #: :meth:`repro.solver.lifecycle.EngineState.cache_sizes`).
    _DICT_FIELDS = ("lifetime", "caches")
    _FIELD_SET = frozenset(_FIELDS)

    #: the SMT-LIB script's ``:status`` annotation, set by
    #: :func:`repro.smtlib.interp.run_script`
    expected = None

    def __init__(self, lifetime=None, caches=None, **fields):
        if not fields.keys() <= self._FIELD_SET:
            raise TypeError("unknown stats fields: %s"
                            % sorted(fields.keys() - self._FIELD_SET))
        self.__dict__.update(fields)
        self.lifetime = lifetime if lifetime is not None else {}
        self.caches = caches if caches is not None else {}

    @classmethod
    def from_counts(cls, counts, lifetime=None, caches=None):
        """A record from a field → value mapping whose keys are all
        known fields.  Unchecked: this is the solver's per-query path,
        where keyword unpacking would cost more than the counting."""
        stats = cls(lifetime, caches)
        stats.__dict__.update(counts)
        return stats

    def add(self, other):
        """Add ``other``'s per-query fields into this record and return
        it.  ``lifetime`` and ``caches`` are levels, not deltas, so they
        take ``other``'s values instead of summing."""
        self.__dict__.update(zip(
            self._FIELDS, map(add, _read_fields(self), _read_fields(other))
        ))
        self.lifetime = other.lifetime
        self.caches = other.caches
        return self

    def to_dict(self):
        out = {name: getattr(self, name) for name in self._FIELDS}
        out["lifetime"] = dict(self.lifetime)
        out["caches"] = dict(self.caches)
        if self.expected is not None:
            out["expected"] = self.expected
        return out

    # -- mapping compatibility ---------------------------------------------

    def __getitem__(self, key):
        if key in self._DICT_FIELDS or key in self._FIELDS:
            return getattr(self, key)
        if key == "expected" and self.expected is not None:
            return self.expected
        raise KeyError(key)

    def get(self, key, default=None):
        try:
            return self[key]
        except KeyError:
            return default

    def __contains__(self, key):
        return key in self._DICT_FIELDS or key in self._FIELDS

    def keys(self):
        return list(self._FIELDS) + list(self._DICT_FIELDS)

    def __iter__(self):
        return iter(self.keys())

    def __len__(self):
        return len(self._FIELDS) + len(self._DICT_FIELDS)

    def items(self):
        return [(key, self[key]) for key in self.keys()]

    def __eq__(self, other):
        if isinstance(other, SolverStats):
            return self.to_dict() == other.to_dict()
        if isinstance(other, dict):
            return self.to_dict() == other
        return NotImplemented

    def __repr__(self):
        busy = ", ".join(
            "%s=%r" % (name, getattr(self, name))
            for name in self._FIELDS
            if getattr(self, name)
        )
        return "SolverStats(%s)" % busy


# every field reads 0 until set: with class-level defaults, building a
# record is one dict update, which the solver's per-query path relies on
for _name in SolverStats._FIELDS:
    setattr(SolverStats, _name, 0)
del _name
_read_fields = attrgetter(*SolverStats._FIELDS)


class SolverResult:
    """Outcome of a satisfiability-style query.

    ``error`` is populated when the query was answered ``unknown``
    because of a mapped engine failure (resource exhaustion such as
    :class:`RecursionError` / :class:`MemoryError`, or a reaped batch
    worker): a dict with at least ``"type"`` and ``"message"`` keys.
    Callers — batch workers above all — therefore always see a typed
    result, never a propagating interpreter error.
    """

    __slots__ = ("status", "witness", "model", "stats", "reason", "error",
                 "explanation")

    def __init__(self, status, witness=None, model=None, stats=None,
                 reason=None, error=None, explanation=None):
        self.status = status
        self.witness = witness
        self.model = model
        self.stats = stats if stats is not None else {}
        self.reason = reason
        self.error = error
        #: :class:`repro.obs.explain.Explanation` (or ``SmtExplanation``)
        #: when the solver ran with provenance recording enabled
        self.explanation = explanation

    @property
    def is_sat(self):
        return self.status == SAT

    @property
    def is_unsat(self):
        return self.status == UNSAT

    @property
    def is_unknown(self):
        return self.status == UNKNOWN

    def to_dict(self):
        """JSON-serializable view (used by the CLI and bench export)."""
        stats = self.stats
        if hasattr(stats, "to_dict"):
            stats = stats.to_dict()
        else:
            stats = dict(stats)
        out = {
            "status": self.status,
            "witness": self.witness,
            "reason": self.reason,
            "stats": stats,
        }
        if self.model is not None:
            out["model"] = dict(self.model)
        if self.error is not None:
            out["error"] = dict(self.error)
        if self.explanation is not None:
            # summary only: the full certificate is large and stays
            # behind Explanation.certificate()
            out["explanation"] = self.explanation.to_dict()
        return out

    def __repr__(self):
        extra = ""
        if self.witness is not None:
            extra = ", witness=%r" % (self.witness,)
        if self.reason is not None:
            extra += ", reason=%r" % (self.reason,)
        if self.error is not None:
            extra += ", error=%r" % (self.error,)
        return "SolverResult(%s%s)" % (self.status, extra)
