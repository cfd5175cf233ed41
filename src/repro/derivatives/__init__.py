"""Symbolic Boolean derivatives: the paper's core contribution.

* :mod:`repro.derivatives.transition` — transition regexes (Section 4);
* :mod:`repro.derivatives.derivative` — the symbolic derivative ``delta``;
* :mod:`repro.derivatives.nnf`, :mod:`repro.derivatives.lift`,
  :mod:`repro.derivatives.dnf` — the normal forms of Sections 4.1 and 5;
* :mod:`repro.derivatives.condtree` — the fused clean-conditional-tree
  engine the solver uses;
* :mod:`repro.derivatives.brzozowski`, :mod:`repro.derivatives.antimirov`
  — the classical theories compared against in Section 8.
"""

from repro.derivatives.transition import (
    TRCompl, TRCond, TRInter, TRLeaf, TRUnion, apply, guards, negate,
    nontrivial_terminals, pretty, terminals, tr_concat,
)
from repro.derivatives.derivative import brzozowski_via_delta, derivative
from repro.derivatives.nnf import is_nnf, nnf
from repro.derivatives.lift import lift
from repro.derivatives.dnf import delta_dnf, dnf, is_dnf, successors
from repro.derivatives.condtree import DerivativeEngine, Leaf, Node
from repro.derivatives import antimirov, brzozowski

__all__ = [
    "TRLeaf", "TRCond", "TRUnion", "TRInter", "TRCompl",
    "apply", "negate", "tr_concat", "terminals", "nontrivial_terminals",
    "guards", "pretty",
    "derivative", "brzozowski_via_delta",
    "nnf", "is_nnf", "lift", "dnf", "delta_dnf", "is_dnf", "successors",
    "DerivativeEngine", "Leaf", "Node",
    "antimirov", "brzozowski",
]
