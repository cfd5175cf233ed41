"""Baseline engines: agreement with the reference solver where they
are applicable, and the characteristic failure modes the paper
attributes to each algorithm family."""

import pytest
from hypothesis import given, settings

from repro.regex import parse
from repro.regex.semantics import Matcher
from repro.solver import Budget, RegexSolver, SolverStats
from repro.solver.baselines import (
    AntimirovSolver, EagerAutomataSolver, MintermSolver,
)
from tests.strategies import b_re_regexes, standard_regexes

ALL_BASELINES = [
    lambda b: EagerAutomataSolver(b),
    lambda b: EagerAutomataSolver(b, determinize_all=True),
    lambda b: AntimirovSolver(b),
    lambda b: MintermSolver(b),
]


@pytest.mark.parametrize("make", ALL_BASELINES)
def test_agrees_with_reference_on_standard(bitset_builder, make):
    reference = RegexSolver(bitset_builder)
    baseline = make(bitset_builder)
    matcher = Matcher(bitset_builder.algebra)

    @settings(max_examples=60, deadline=None)
    @given(standard_regexes(bitset_builder))
    def check(r):
        expected = reference.is_satisfiable(r, Budget(fuel=50000))
        got = baseline.is_satisfiable(r, Budget(fuel=100000))
        assert got.status == expected.status
        if got.is_sat:
            assert matcher.matches(r, got.witness)

    check()


@pytest.mark.parametrize("make", [
    lambda b: EagerAutomataSolver(b),
    lambda b: MintermSolver(b),
])
def test_agrees_with_reference_on_b_re(bitset_builder, make):
    """Eager automata and global minterms are complete for B(RE)."""
    reference = RegexSolver(bitset_builder)
    baseline = make(bitset_builder)

    @settings(max_examples=40, deadline=None)
    @given(b_re_regexes(bitset_builder))
    def check(r):
        expected = reference.is_satisfiable(r, Budget(fuel=100000))
        got = baseline.is_satisfiable(r, Budget(fuel=400000))
        assert got.status == expected.status

    check()


class TestAntimirov:
    def test_handles_top_level_negation(self, bitset_builder):
        b = bitset_builder
        solver = AntimirovSolver(b)
        r = parse(b, "(a|b)+&~(.*a.*)")
        result = solver.is_satisfiable(r)
        assert result.is_sat
        assert set(result.witness) == {"b"}

    def test_membership_minus_itself_unsat(self, bitset_builder):
        b = bitset_builder
        solver = AntimirovSolver(b)
        assert solver.is_satisfiable(parse(b, "(ab)*&~((ab)*)")).is_unsat

    def test_nested_complement_unknown(self, bitset_builder):
        b = bitset_builder
        solver = AntimirovSolver(b)
        r = b.concat([b.char("a"), b.compl(b.char("b"))])
        result = solver.is_satisfiable(r)
        assert result.is_unknown
        assert "complement" in result.reason

    def test_double_complement_under_inter_unknown(self, bitset_builder):
        b = bitset_builder
        solver = AntimirovSolver(b)
        r = b.inter([b.compl(b.compl(parse(b, "a*"))), parse(b, "b")])
        # ~~(a*) folds to a* at construction, so this is supported...
        assert solver.is_satisfiable(r).status in ("sat", "unsat")
        # ...but a complement nested under a loop is not
        nested = b.star(b.compl(parse(b, "ab")))
        assert solver.is_satisfiable(nested).is_unknown


class TestEager:
    def test_blowup_hits_state_budget(self, ascii_builder):
        solver = EagerAutomataSolver(
            ascii_builder, max_states=500, determinize_all=True
        )
        r = parse(ascii_builder, "(.*a.{12})&(.*b.{12})")
        result = solver.is_satisfiable(r)
        assert result.is_unknown
        assert "state budget" in result.reason

    def test_same_instance_fine_lazily(self, ascii_builder):
        reference = RegexSolver(ascii_builder)
        r = parse(ascii_builder, "(.*a.{12})&(.*b.{12})")
        assert reference.is_satisfiable(r, Budget(fuel=100000)).is_unsat

    def test_complement_supported(self, bitset_builder):
        solver = EagerAutomataSolver(bitset_builder)
        r = parse(bitset_builder, "~(a*)&a*")
        assert solver.is_satisfiable(r).is_unsat


class TestMinterm:
    def test_minterm_explosion_reported(self, ascii_builder):
        b = ascii_builder
        algebra = b.algebra
        classes = [
            b.pred(algebra.from_ranges(
                [(0x40 + c, 0x40 + c) for c in range(32) if c >> i & 1]
            ))
            for i in range(5)
        ]
        r = b.inter([b.contains(cls) for cls in classes])
        solver = MintermSolver(b, max_minterms=8)
        result = solver.is_satisfiable(r)
        assert result.is_unknown
        assert "minterm" in result.reason

    def test_witness_valid(self, bitset_builder, bitset_matcher):
        solver = MintermSolver(bitset_builder)
        r = parse(bitset_builder, "(.*0.*)&~(.*01.*)")
        result = solver.is_satisfiable(r)
        assert result.is_sat
        assert bitset_matcher.matches(r, result.witness)


@pytest.mark.parametrize("make", ALL_BASELINES)
def test_baselines_report_solver_stats(bitset_builder, make):
    """Every baseline returns the one per-query record, counting its
    states in ``explored``."""
    result = make(bitset_builder).is_satisfiable(
        parse(bitset_builder, "(a|b)*abb&~(.*ba.*)")
    )
    assert isinstance(result.stats, SolverStats)
    assert result.stats.explored > 0
    assert result.stats.caches["regex_nodes"] > 0


def test_minterm_baseline_reports_its_alphabet(bitset_builder):
    result = MintermSolver(bitset_builder).is_satisfiable(
        parse(bitset_builder, "(a|b)*abb")
    )
    assert result.stats.minterms >= 2
