"""Classical symbolic finite automata: the eager Boolean-operations
baseline ("approach 1" of the paper's introduction)."""

from repro.automata.sfa import SFA, StateBudget
from repro.automata.thompson import thompson
from repro.automata.ops import (
    complement, determinize, nfa_concat, nfa_star, nfa_union, product,
    remove_epsilons,
)
from repro.automata.minimize import equivalent, minimize
from repro.automata.eager import eager_compile
from repro.automata.to_regex import to_regex

__all__ = [
    "SFA", "StateBudget", "thompson",
    "remove_epsilons", "determinize", "complement", "product",
    "nfa_union", "nfa_concat", "nfa_star",
    "minimize", "equivalent",
    "eager_compile", "to_regex",
]
