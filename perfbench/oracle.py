"""Independent answer checks.

* A sat answer is replayed through the reference semantics
  (:mod:`repro.regex.semantics`, via ``SmtSolver.check_model`` for
  SMT-LIB queries): the witness or model must satisfy the query.
* An unsat answer is checked against the label the generator built in,
  or else against the agreement of two baseline engines, ``eager-sfa``
  and ``antimirov-pd``, computed during set-up.  Neither shares
  derivative or exploration code with the solver under test.
* A match span is checked with the reference matcher, and per-line
  match existence and leftmost start against Python ``re`` for the
  patterns ``re`` can express.

An answer none of these can decide is *unchecked*: counted, reported,
never trusted.  Verdicts are never graded by the engine under test.
"""

import importlib
import re

from repro.alphabet import IntervalAlgebra
from repro.regex.builder import RegexBuilder
from repro.regex.semantics import matches
from repro.solver import formula as F
from repro.solver.baselines import AntimirovSolver, EagerAutomataSolver
from repro.solver.result import Budget
from repro.solver.smt import SmtSolver

from common import FUEL

# the front end is called through its modules, so a traced run's
# wrappers around ``parse``/``parse_script`` see these calls
regex_parser = importlib.import_module("repro.regex.parser")
smt_parser = importlib.import_module("repro.smtlib.parser")

RIGHT, WRONG, UNCHECKED = "right", "wrong", "unchecked"

#: Wall cap for the baseline engines that label unsat answers (their
#: fuel is the solver's own).
LABEL_SECONDS = 5.0


def query_formula(builder, kind, text):
    """Parse a query's text into a formula on ``builder``."""
    if kind == "smt2":
        return smt_parser.parse_script(builder, text).formula
    return F.InRe("s", regex_parser.parse(builder, text))


def baseline_label(query):
    """``"unsat"`` when both baselines refute the query, ``"sat"``
    when either produces a model the reference semantics accepts,
    otherwise None."""
    verdicts = []
    for engine in (EagerAutomataSolver, AntimirovSolver):
        builder = RegexBuilder(IntervalAlgebra())
        solver = SmtSolver(builder, engine(builder))
        formula = query_formula(builder, query.kind, query.text)
        result = solver.solve(formula, Budget(FUEL, LABEL_SECONDS))
        if result.is_sat and solver.check_model(formula, result.model):
            return "sat"
        verdicts.append(result.status)
    if verdicts == ["unsat", "unsat"]:
        return "unsat"
    return None


def labels_for(queries):
    """Query text -> verdict for every query: the generator's label
    where it built one, the baselines' agreement otherwise."""
    labels = {}
    for query in queries:
        if query.text in labels:
            continue
        labels[query.text] = (query.label if query.label is not None
                              else baseline_label(query))
    return labels


def grade(status, label, model_ok):
    """Grade one answer.  ``model_ok`` is the reference check of a sat
    answer's witness or model."""
    if status == "sat":
        return RIGHT if model_ok else WRONG
    if status == "unsat":
        if label == "unsat":
            return RIGHT
        if label == "sat":
            return WRONG
    return UNCHECKED


def check_model(solver, formula, status, model):
    """Reference check of an in-process answer's model."""
    if status != "sat":
        return False
    return bool(model is not None and solver.check_model(formula, model))


def check_reply(query, reply):
    """Reference check of a daemon reply's witness (pattern jobs) or
    model (SMT-LIB jobs), on a fresh builder."""
    if reply.get("status") != "sat":
        return False
    builder = RegexBuilder(IntervalAlgebra())
    if query.kind == "pattern":
        witness = reply.get("witness")
        return witness is not None and matches(
            builder.algebra, regex_parser.parse(builder, query.text),
            witness)
    model = reply.get("model")
    if not isinstance(model, dict):
        return False
    formula = query_formula(builder, query.kind, query.text)
    return SmtSolver(builder).check_model(formula, model)


class SpanChecker:
    """Checks match-log answers for one pattern."""

    def __init__(self, builder, regex, pattern, expressible):
        self.builder = builder
        self.regex = regex
        self.python = re.compile(pattern) if expressible else None
        self._memo = {}

    def span_ok(self, text):
        """Is ``text`` (one reported match) in the language?"""
        verdict = self._memo.get(text)
        if verdict is None:
            verdict = matches(self.builder.algebra, self.regex, text)
            self._memo[text] = verdict
        return verdict

    def check_line(self, line, spans):
        """Messages for every contradiction in one line's spans (a list
        of ``(start, end)`` pairs, left to right)."""
        problems = []
        position = 0
        for start, end in spans:
            if start < position or end < start or end > len(line):
                problems.append("bad span (%d, %d)" % (start, end))
            elif not self.span_ok(line[start:end]):
                problems.append("span %r not in the language"
                                % line[start:end])
            position = max(end, start + 1)
        if self.python is not None:
            found = self.python.search(line)
            if (found is None) != (not spans):
                problems.append("match existence differs from re")
            elif found is not None and found.start() != spans[0][0]:
                problems.append("leftmost start %d, re says %d"
                                % (spans[0][0], found.start()))
        return problems

