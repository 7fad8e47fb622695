"""Entangled queries (Section 2.1 of the paper).

An entangled query is a triple ``{P} H :- B`` where ``P`` is a list of
postcondition atoms, ``H`` a list of head atoms, and ``B`` the body — a
conjunction of atoms over database relations.  The syntax requires:

(i)  every relation symbol in the body is in the database schema, and
(ii) relation symbols in ``P`` and ``H`` are *answer relations*, disjoint
     from the database schema.

Queries own their variables: the variable ``x`` in one query is
unrelated to ``x`` in another.  :meth:`EntangledQuery.standardized`
moves every variable into the query's own namespace, which the
coordination layers do before unifying atoms across queries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Optional, Tuple

from ..db import Schema
from ..errors import MalformedQueryError
from ..logic import Atom, AtomPattern, Variable, atoms_variables, unifiable


@dataclass(frozen=True)
class EntangledQuery:
    """An entangled query ``{postconditions} head :- body``.

    ``name`` identifies the query within a set (e.g. the submitting
    user); all coordination structures are keyed by it.
    """

    name: str
    postconditions: Tuple[Atom, ...]
    head: Tuple[Atom, ...]
    body: Tuple[Atom, ...]

    def __init__(
        self,
        name: str,
        postconditions: Iterable[Atom] = (),
        head: Iterable[Atom] = (),
        body: Iterable[Atom] = (),
    ) -> None:
        if not name:
            raise MalformedQueryError("entangled query must have a name")
        head = tuple(head)
        postconditions = tuple(postconditions)
        body = tuple(body)
        if not head and not postconditions and not body:
            raise MalformedQueryError(
                f"query {name!r} must have at least one atom"
            )
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "postconditions", postconditions)
        object.__setattr__(self, "head", head)
        object.__setattr__(self, "body", body)

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    def answer_relations(self) -> FrozenSet[str]:
        """Relation symbols used in postconditions and head."""
        return frozenset(
            a.relation for a in self.postconditions
        ) | frozenset(a.relation for a in self.head)

    def body_relations(self) -> FrozenSet[str]:
        """Relation symbols used in the body."""
        return frozenset(a.relation for a in self.body)

    def variables(self) -> FrozenSet[Variable]:
        """All distinct variables across all three parts.  Memoized: an
        evaluation reads it per closure query three times."""
        variables = self.__dict__.get("_variables")
        if variables is None:
            variables = (
                atoms_variables(self.postconditions)
                | atoms_variables(self.head)
                | atoms_variables(self.body)
            )
            object.__setattr__(self, "_variables", variables)
        return variables

    def free_variables(self) -> FrozenSet[Variable]:
        """Variables of the head/postconditions that never hit the body.

        Such variables are unconstrained by the database; Definition 1
        still requires them to receive *some* domain value.
        """
        return (
            atoms_variables(self.postconditions) | atoms_variables(self.head)
        ) - atoms_variables(self.body)

    def validate(self, schema: Schema) -> None:
        """Enforce syntactic requirements (i) and (ii) against a schema."""
        for atom in self.body:
            if atom.relation not in schema:
                raise MalformedQueryError(
                    f"query {self.name!r}: body relation {atom.relation!r} "
                    f"is not in the database schema"
                )
        for atom in (*self.postconditions, *self.head):
            if atom.relation in schema:
                raise MalformedQueryError(
                    f"query {self.name!r}: answer relation {atom.relation!r} "
                    f"collides with a database relation"
                )

    def content_key(self) -> tuple:
        """A type-strict fingerprint of the name and every atom, in order.

        Two queries with equal keys coordinate identically.  Constants
        are compared by type and ``repr`` as well as by value, because
        ``Constant(1) == Constant(True)`` while a grounding built from
        one hands back a different Python value than the other.
        Memoized: the engine's component-state cache compares closures
        by it (:func:`~repro.core.scc_coordination.scc_coordinate_on_graph`).
        """
        key = self.__dict__.get("_content_key")
        if key is None:
            key = (
                self.name,
                _atoms_key(self.postconditions),
                _atoms_key(self.head),
                _atoms_key(self.body),
            )
            object.__setattr__(self, "_content_key", key)
        return key

    # ------------------------------------------------------------------
    # Renaming
    # ------------------------------------------------------------------
    def standardized(self, namespace: Optional[str] = None) -> "EntangledQuery":
        """A copy with every variable moved into ``namespace``.

        Defaults to the query's own name, which is unique within a set,
        so standardising every query of a set this way guarantees
        pairwise-disjoint variables.  The copy in the query's own
        namespace is memoized — evaluations and assignments ask for it
        on every read — so repeated calls return the same object.
        Arrival probes never ask (they read :meth:`atom_patterns` and
        :meth:`self_edges`); the online engine standardizes a query
        when an evaluation first snapshots it, under the engine lock.
        """
        if namespace is None or namespace == self.name:
            own = self.__dict__.get("_standardized")
            if own is None:
                own = self._renamed(self.name)
                object.__setattr__(self, "_standardized", own)
            return own
        return self._renamed(namespace)

    def atom_patterns(
        self,
    ) -> Tuple[Tuple[AtomPattern, ...], Tuple[AtomPattern, ...]]:
        """The postcondition and head atoms compiled for the position-wise
        unifiability test, as ``(postconditions, head)``.  Memoized:
        the coordination graph indexes and probes these, not the
        standardized atoms."""
        patterns = self.__dict__.get("_patterns")
        if patterns is None:
            patterns = (
                tuple(AtomPattern(atom) for atom in self.postconditions),
                tuple(AtomPattern(atom) for atom in self.head),
            )
            object.__setattr__(self, "_patterns", patterns)
        return patterns

    def self_edges(self) -> Tuple[Tuple[int, int], ...]:
        """The ``(post_index, head_index)`` pairs whose postcondition
        unifies with the query's own head atom, in that order.

        The pair shares the query's variables, so a pattern-compatible
        pair is decided by :func:`~repro.logic.unify.unifiable` on the
        two atoms standardized.  Memoized: every probe of this query
        object (one per shard) reads the same answer."""
        edges = self.__dict__.get("_self_edges")
        if edges is None:
            posts, heads = self.atom_patterns()
            edges = tuple(
                (pi, hi)
                for pi, post in enumerate(posts)
                for hi, head in enumerate(heads)
                if post.compatible(head)
                and unifiable(
                    post.atom.rename(self.name), head.atom.rename(self.name)
                )
            )
            object.__setattr__(self, "_self_edges", edges)
        return edges

    def _renamed(self, namespace: str) -> "EntangledQuery":
        # One copy per distinct variable, shared by every atom using it.
        renamed: Dict[Variable, Variable] = {}
        return EntangledQuery(
            self.name,
            tuple(a.rename(namespace, renamed) for a in self.postconditions),
            tuple(a.rename(namespace, renamed) for a in self.head),
            tuple(a.rename(namespace, renamed) for a in self.body),
        )

    # ------------------------------------------------------------------
    # Display
    # ------------------------------------------------------------------
    def __str__(self) -> str:
        posts = ", ".join(str(a) for a in self.postconditions)
        heads = ", ".join(str(a) for a in self.head)
        body = ", ".join(str(a) for a in self.body) if self.body else "∅"
        return f"{{{posts}}} {heads} :- {body}"

    def __repr__(self) -> str:
        return f"EntangledQuery({self.name!r}: {self})"


def _atoms_key(atoms: Tuple[Atom, ...]) -> tuple:
    return tuple(
        (
            atom.relation,
            tuple(
                term
                if isinstance(term, Variable)
                else (type(term.value), term.value, repr(term.value))
                for term in atom.terms
            ),
        )
        for atom in atoms
    )


def check_distinct_names(queries: Iterable[EntangledQuery]) -> Tuple[EntangledQuery, ...]:
    """Validate that all queries in a set have distinct names."""
    queries = tuple(queries)
    seen = set()
    for query in queries:
        if query.name in seen:
            raise MalformedQueryError(f"duplicate query name {query.name!r}")
        seen.add(query.name)
    return queries


def validate_query_set(
    queries: Iterable[EntangledQuery], schema: Schema
) -> Tuple[EntangledQuery, ...]:
    """Validate names and syntax of a whole query set against a schema."""
    queries = check_distinct_names(queries)
    for query in queries:
        query.validate(schema)
    return queries
