"""Atoms: a relation symbol applied to a tuple of terms.

Atoms appear in three places in an entangled query ``{P} H :- B``: the
postconditions ``P``, the head ``H`` (both over *answer* relations), and
the body ``B`` (over *database* relations).  The same class represents
all three; the distinction lives in the query and schema layers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterable, Mapping, Optional, Sequence, Tuple

from ..errors import LogicError
from .terms import Constant, Term, Variable, as_term


@dataclass(frozen=True)
class Atom:
    """An atom ``relation(t1, ..., tn)`` over terms.

    ``terms`` accepts raw values for convenience; anything that is not
    already a :class:`~repro.logic.terms.Variable` or
    :class:`~repro.logic.terms.Constant` is wrapped in a ``Constant``.
    """

    relation: str
    terms: Tuple[Term, ...] = field(default=())

    def __init__(self, relation: str, terms: Iterable[object] = ()) -> None:
        if not relation:
            raise LogicError("atom relation name must be non-empty")
        self._set(relation, tuple(as_term(t) for t in terms))

    def _set(self, relation: str, terms: Tuple[Term, ...]) -> None:
        object.__setattr__(self, "relation", relation)
        object.__setattr__(self, "terms", terms)
        object.__setattr__(
            self,
            "_variables",
            tuple(t for t in terms if isinstance(t, Variable)),
        )

    @property
    def arity(self) -> int:
        """Number of terms in the atom."""
        return len(self.terms)

    def variables(self) -> Tuple[Variable, ...]:
        """All variables of the atom, in order, with duplicates."""
        return self._variables

    def variable_set(self) -> frozenset:
        """The set of distinct variables of the atom."""
        return frozenset(self.variables())

    def constants(self) -> Tuple[Constant, ...]:
        """All constants of the atom, in order, with duplicates."""
        return tuple(t for t in self.terms if isinstance(t, Constant))

    def is_ground(self) -> bool:
        """Return ``True`` if the atom contains no variables."""
        return all(isinstance(t, Constant) for t in self.terms)

    def rename(
        self, namespace: str, renamed: Optional[Dict[Variable, Variable]] = None
    ) -> "Atom":
        """Move every variable of the atom into ``namespace``.

        Used to standardise queries apart before unification; constants
        are untouched.  The terms are already terms, so the copy skips
        the constructor's coercion.  Atoms renamed through one
        ``renamed`` dict (variable → its copy) share each variable's copy.
        """
        if renamed is None:
            renamed = {}
        atom = object.__new__(Atom)
        atom._set(
            self.relation,
            tuple(
                (renamed.get(t) or renamed.setdefault(t, t.qualified(namespace)))
                if isinstance(t, Variable)
                else t
                for t in self.terms
            ),
        )
        return atom

    def ground(self, assignment: Mapping[Variable, Hashable]) -> "GroundAtom":
        """Ground the atom under a total variable assignment.

        ``assignment`` maps variables to raw database values.  Raises
        :class:`~repro.errors.LogicError` if any variable is unassigned.
        """
        values = []
        for term in self.terms:
            if isinstance(term, Constant):
                values.append(term.value)
            else:
                if term not in assignment:
                    raise LogicError(f"variable {term} has no assigned value")
                values.append(assignment[term])
        return GroundAtom(self.relation, tuple(values))

    def __str__(self) -> str:
        inner = ", ".join(str(t) for t in self.terms)
        return f"{self.relation}({inner})"

    def __repr__(self) -> str:
        return f"Atom({str(self)})"


@dataclass(frozen=True, slots=True)
class GroundAtom:
    """A fully grounded atom: relation name plus a tuple of raw values.

    Ground atoms are what Definition 1 of the paper quantifies over: the
    grounded postconditions of a coordinating set must be a subset of its
    grounded heads, and every grounded body atom must be a tuple of the
    database instance.
    """

    relation: str
    values: Tuple[Hashable, ...]

    def __str__(self) -> str:
        inner = ", ".join(repr(v) for v in self.values)
        return f"{self.relation}({inner})"


def atoms_variables(atoms: Sequence[Atom]) -> frozenset:
    """The set of distinct variables appearing in a list of atoms."""
    out: set = set()
    for atom in atoms:
        out.update(atom.variables())
    return frozenset(out)
