"""Logic substrate: terms, atoms, substitutions, and unification.

This package provides the first-order machinery that entangled queries
are built from.  Terms are flat (no function symbols), which keeps
unification linear-time and occurs-check free.
"""

from .atoms import Atom, GroundAtom, atoms_variables
from .substitution import Substitution
from .terms import Constant, Term, Variable, as_term, const, is_constant, is_variable, var
from .unify import (
    AtomPattern,
    apply_substitution,
    apply_substitution_all,
    standardize_apart,
    unifiable,
    unify_atom_lists,
    unify_atoms,
)

__all__ = [
    "Atom",
    "AtomPattern",
    "GroundAtom",
    "Constant",
    "Variable",
    "Term",
    "Substitution",
    "atoms_variables",
    "as_term",
    "const",
    "var",
    "is_constant",
    "is_variable",
    "unify_atoms",
    "unifiable",
    "unify_atom_lists",
    "standardize_apart",
    "apply_substitution",
    "apply_substitution_all",
]
