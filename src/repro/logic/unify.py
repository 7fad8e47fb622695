"""Unification of atoms and atom lists.

The paper's Section 2.3 defines two atoms as *unifiable* when they are
over the same relation and "do not contain different constants for the
same attribute value".  We implement full syntactic unification (via
:class:`~repro.logic.substitution.Substitution`), which refines the
paper's position-wise test: it additionally rejects pairs such as
``R(x, x)`` against ``R(1, 2)`` where repeated variables force a clash.

The two tests agree whenever each variable occurs at most once in the
pair — both atoms *linear* (no variable repeated inside one atom) and
sharing no variable.  Then every position is a fresh equation of its
own, the unifier can fail only where two constants differ, and
:class:`AtomPattern` answers with the position-wise test alone.  Two
queries' atoms, once standardised apart, share no variable, so the
coordination graph's arrival probe (DESIGN.md §1) runs the full
unifier only on pairs where an atom repeats a variable.

Queries own their variables, so before two queries' atoms are compared
they must be *standardised apart* — each query's variables moved into a
unique namespace (:func:`standardize_apart`).
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

from .atoms import Atom
from .substitution import Substitution
from .terms import Constant


class AtomPattern:
    """An atom compiled for the paper's position-wise unifiability test.

    ``constants`` holds the atom's :class:`~repro.logic.terms.Constant`
    at each constant position and ``None`` at each variable position;
    ``fixed`` lists the constant positions as ``(position, constant)``
    pairs.  ``linear`` is ``True`` when no variable *name* occurs twice
    in the atom: standardising apart moves variables into a namespace by
    name (:meth:`~repro.logic.terms.Variable.qualified`), so this is
    linearity of the atom in any namespace.

    :meth:`compatible` is the paper's test.  For two linear atoms that
    share no variable it equals :func:`unifiable`; otherwise it is only
    necessary, since repeated or shared variables add equations between
    positions.
    """

    __slots__ = ("atom", "key", "constants", "fixed", "linear")

    def __init__(self, atom: Atom) -> None:
        constants: List[Optional[Constant]] = []
        fixed: List[Tuple[int, Constant]] = []
        names = set()
        linear = True
        for position, term in enumerate(atom.terms):
            if isinstance(term, Constant):
                constants.append(term)
                fixed.append((position, term))
            else:
                constants.append(None)
                if term.name in names:
                    linear = False
                names.add(term.name)
        self.atom = atom
        self.key = (atom.relation, len(constants))
        self.constants = tuple(constants)
        self.fixed = tuple(fixed)
        self.linear = linear

    def compatible(self, other: "AtomPattern") -> bool:
        """Same relation and arity, and no position holding two different
        constants (compared as the unifier compares them)."""
        if self.key != other.key:
            return False
        theirs = other.constants
        for position, constant in self.fixed:
            other_constant = theirs[position]
            if other_constant is not None and other_constant != constant:
                return False
        return True


def unify_atoms(
    left: Atom,
    right: Atom,
    substitution: Optional[Substitution] = None,
) -> Optional[Substitution]:
    """Unify two atoms, optionally extending an existing substitution.

    Returns the extended substitution on success and ``None`` on failure.
    When ``substitution`` is provided it is *not* mutated on failure; a
    copy is extended and returned on success.
    """
    if left.relation != right.relation or left.arity != right.arity:
        return None
    sub = Substitution() if substitution is None else substitution.copy()
    for lt, rt in zip(left.terms, right.terms):
        if not sub.unify_terms(lt, rt):
            return None
    return sub


def unifiable(left: Atom, right: Atom) -> bool:
    """Return ``True`` if the two atoms unify (fresh substitution)."""
    return unify_atoms(left, right) is not None


def unify_atom_lists(
    pairs: Iterable[Tuple[Atom, Atom]],
    substitution: Optional[Substitution] = None,
) -> Optional[Substitution]:
    """Unify every pair of atoms simultaneously.

    This computes the most general unifier of the pair list: the least
    restrictive substitution under which each left atom equals its right
    counterpart.  Returns ``None`` if any pair fails.
    """
    sub = Substitution() if substitution is None else substitution.copy()
    for left, right in pairs:
        if left.relation != right.relation or left.arity != right.arity:
            return None
        for lt, rt in zip(left.terms, right.terms):
            if not sub.unify_terms(lt, rt):
                return None
    return sub


def standardize_apart(
    atom_lists: Sequence[Sequence[Atom]],
    namespaces: Optional[Sequence[str]] = None,
) -> List[List[Atom]]:
    """Rename each atom list's variables into its own namespace.

    ``namespaces`` defaults to ``"q0", "q1", ...``.  Returns new atom
    lists; inputs are never mutated.
    """
    if namespaces is None:
        namespaces = [f"q{i}" for i in range(len(atom_lists))]
    if len(namespaces) != len(atom_lists):
        raise ValueError("one namespace required per atom list")
    return [
        [atom.rename(namespace) for atom in atoms]
        for atoms, namespace in zip(atom_lists, namespaces)
    ]


def apply_substitution(atom: Atom, substitution: Substitution) -> Atom:
    """Rewrite an atom's terms to their current representatives.

    Variables bound to constants become those constants; variables merged
    into a class are replaced by the class root, making forced equalities
    syntactically visible.
    """
    return Atom(atom.relation, tuple(substitution.resolve(t) for t in atom.terms))


def apply_substitution_all(
    atoms: Iterable[Atom], substitution: Substitution
) -> List[Atom]:
    """Apply :func:`apply_substitution` to every atom in a list."""
    return [apply_substitution(atom, substitution) for atom in atoms]
