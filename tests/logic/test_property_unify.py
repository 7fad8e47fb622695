"""Property-based tests for unification (hypothesis).

The core invariants:

* unification is symmetric;
* a successful unifier makes the two atoms syntactically equal;
* the unifier is *most general*: any common ground instance of the two
  atoms factors through it;
* ground atoms unify iff they are equal;
* on linear atoms that share no variable, the paper's position-wise
  test (:class:`~repro.logic.AtomPattern`) is unification, and on any
  pair it is necessary for it.
"""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.logic import (
    Atom,
    AtomPattern,
    Constant,
    Variable,
    apply_substitution,
    unifiable,
    unify_atoms,
)

_VALUES = st.integers(min_value=0, max_value=3)
_VAR_NAMES = st.sampled_from(["x", "y", "z", "w"])


def _terms():
    return st.one_of(
        _VAR_NAMES.map(Variable),
        _VALUES.map(Constant),
    )


def _atoms(relation: str = "R", max_arity: int = 4):
    return st.lists(_terms(), min_size=1, max_size=max_arity).map(
        lambda ts: Atom(relation, ts)
    )


@given(_atoms(), _atoms())
def test_unification_symmetric(a, b):
    assert unifiable(a, b) == unifiable(b, a)


@given(_atoms(), _atoms())
def test_unifier_equalises_atoms(a, b):
    sub = unify_atoms(a, b)
    if sub is not None:
        assert apply_substitution(a, sub) == apply_substitution(b, sub)


@given(_atoms())
def test_atom_unifies_with_itself(a):
    assert unifiable(a, a)


@given(_atoms(), st.dictionaries(_VAR_NAMES.map(Variable), _VALUES, max_size=4))
def test_ground_instance_unifies_with_original(atom, mapping):
    # Build a ground instance of the atom by filling all variables.
    full = dict(mapping)
    for variable in atom.variables():
        full.setdefault(variable, 0)
    ground_atom = Atom(
        atom.relation,
        [t if isinstance(t, Constant) else Constant(full[t]) for t in atom.terms],
    )
    # Standardise apart by renaming the original's variables.
    renamed = atom.rename("other")
    assert unifiable(renamed, ground_atom)


@given(_atoms(), _atoms(), st.dictionaries(_VAR_NAMES.map(Variable), _VALUES, max_size=8))
@settings(max_examples=200)
def test_most_general(a, b, mapping):
    """If some ground assignment h makes a and b equal, they unify."""
    variables = set(a.variables()) | set(b.variables())
    full = dict(mapping)
    for variable in variables:
        full.setdefault(variable, 0)

    def ground(atom):
        return tuple(
            t.value if isinstance(t, Constant) else full[t] for t in atom.terms
        )

    if a.relation == b.relation and len(a.terms) == len(b.terms):
        if ground(a) == ground(b):
            assert unifiable(a, b)


@given(st.lists(_VALUES, min_size=1, max_size=4), st.lists(_VALUES, min_size=1, max_size=4))
def test_ground_atoms_unify_iff_equal(xs, ys):
    a, b = Atom("R", xs), Atom("R", ys)
    assert unifiable(a, b) == (a == b)


#: Equal as constants (``1 == True == 1.0``) but not as strings.
_MIXED = st.sampled_from((0, 1, True, 1.0, "1"))


def _mixed_atoms():
    terms = st.one_of(_VAR_NAMES.map(Variable), _MIXED.map(Constant))
    return st.builds(
        Atom, st.sampled_from(("R", "S")), st.lists(terms, min_size=1, max_size=4)
    )


@given(_mixed_atoms(), _mixed_atoms())
@settings(max_examples=300)
def test_pattern_test_is_unification_on_linear_disjoint_atoms(a, b):
    left, right = a.rename("left"), b.rename("right")  # share no variable
    left_pattern, right_pattern = AtomPattern(left), AtomPattern(right)
    assume(left_pattern.linear and right_pattern.linear)
    assert left_pattern.compatible(right_pattern) == unifiable(left, right)


@given(_mixed_atoms(), _mixed_atoms())
def test_pattern_test_is_necessary_for_unification(a, b):
    if unifiable(a, b):
        assert AtomPattern(a).compatible(AtomPattern(b))


def test_repeated_variable_is_not_linear():
    x, y = Variable("x"), Variable("y")
    assert AtomPattern(Atom("R", [x, y, 1])).linear
    assert not AtomPattern(Atom("R", [x, x])).linear
    # Standardizing apart renames by name, so x@a and x@b become one.
    assert not AtomPattern(Atom("R", [x, Variable("x", "b")])).linear
    assert AtomPattern(Atom("R", [x, x])).compatible(AtomPattern(Atom("R", [1, 2])))
    assert not unifiable(Atom("R", [x, x]), Atom("R", [1, 2]))
