"""Executing parsed SMT-LIB scripts against a solver."""

from repro.smtlib.parser import parse_script
from repro.solver.smt import SmtSolver


def run_script(builder, text, solver=None, budget=None):
    """Parse and execute a script; returns the check-sat result.

    ``solver`` defaults to a fresh :class:`SmtSolver` over ``builder``.
    The result carries the model when sat and the script's ``:status``
    annotation (if any) in ``result.stats['expected']``.
    """
    script = parse_script(builder, text)
    solver = solver or SmtSolver(builder)
    result = solver.solve(script.formula, budget=budget)
    expected = script.expected_status()
    if expected is not None:
        result.stats.expected = expected
    return result


def run_file(builder, path, solver=None, budget=None):
    """Execute a ``.smt2`` file."""
    with open(path, "r", encoding="utf-8") as handle:
        return run_script(builder, handle.read(), solver=solver, budget=budget)
