"""Unit and property tests for the bitset relation algebra."""

import operator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.relation import Relation


def rel(n, *pairs):
    return Relation.from_pairs(n, pairs)


# ----------------------------------------------------------------------
# Construction and inspection
# ----------------------------------------------------------------------


class TestConstruction:
    def test_empty(self):
        r = Relation.empty(4)
        assert r.is_empty()
        assert len(r) == 0
        assert not r

    def test_full_includes_diagonal(self):
        r = Relation.full(3)
        assert len(r) == 9
        assert (0, 0) in r
        assert (2, 1) in r

    def test_identity(self):
        r = Relation.identity(3)
        assert set(r.pairs()) == {(0, 0), (1, 1), (2, 2)}

    def test_from_pairs(self):
        r = rel(4, (0, 1), (2, 3))
        assert (0, 1) in r
        assert (1, 0) not in r
        assert len(r) == 2

    def test_from_pairs_out_of_range(self):
        with pytest.raises(ValueError):
            rel(2, (0, 5))

    def test_lift(self):
        r = Relation.lift(4, [1, 3])
        assert set(r.pairs()) == {(1, 1), (3, 3)}

    def test_cross(self):
        r = Relation.cross(4, [0, 1], [2, 3])
        assert set(r.pairs()) == {(0, 2), (0, 3), (1, 2), (1, 3)}

    def test_total_order(self):
        r = Relation.total_order(4, [2, 0, 3])
        assert set(r.pairs()) == {(2, 0), (2, 3), (0, 3)}
        assert r.is_total_order_on([2, 0, 3])

    def test_row_count_mismatch(self):
        with pytest.raises(ValueError):
            Relation(3, [0, 0])

    def test_out_of_range_bits_dropped(self):
        """The public constructor and ``cross`` normalise their input:
        bits at or beyond ``n`` never reach ``_rows``."""
        r = Relation(2, [0b1110, 0b101])
        assert r._rows == (0b10, 0b01)
        assert r == rel(2, (0, 1), (1, 0))
        c = Relation.cross(2, [0, 1], [1, 2, 5])
        assert c._rows == (0b10, 0b10)
        assert c == rel(2, (0, 1), (1, 1))


class TestInspection:
    def test_domain_codomain(self):
        r = rel(4, (0, 1), (0, 2), (3, 2))
        assert r.domain() == {0, 3}
        assert r.codomain() == {1, 2}
        assert r.field() == {0, 1, 2, 3}

    def test_successors(self):
        r = rel(4, (1, 0), (1, 3))
        assert set(r.successors(1)) == {0, 3}
        assert list(r.successors(0)) == []

    def test_len_and_bool(self):
        assert len(rel(3, (0, 1), (1, 2))) == 2
        assert rel(3, (0, 1))
        assert not Relation.empty(3)


# ----------------------------------------------------------------------
# Boolean algebra
# ----------------------------------------------------------------------


class TestBooleanAlgebra:
    def test_union(self):
        assert set((rel(3, (0, 1)) | rel(3, (1, 2))).pairs()) == {(0, 1), (1, 2)}

    def test_intersection(self):
        a = rel(3, (0, 1), (1, 2))
        b = rel(3, (1, 2), (2, 0))
        assert set((a & b).pairs()) == {(1, 2)}

    def test_difference(self):
        a = rel(3, (0, 1), (1, 2))
        assert set((a - rel(3, (1, 2))).pairs()) == {(0, 1)}

    def test_complement_involution(self):
        a = rel(3, (0, 1), (2, 2))
        assert a.complement().complement() == a

    def test_complement_contains_missing_pairs(self):
        a = rel(2, (0, 1))
        comp = a.complement()
        assert (0, 1) not in comp
        assert (1, 0) in comp
        assert (0, 0) in comp

    def test_subset(self):
        assert rel(3, (0, 1)) <= rel(3, (0, 1), (1, 2))
        assert not rel(3, (2, 0)) <= rel(3, (0, 1))

    @pytest.mark.parametrize(
        "op",
        [
            pytest.param(operator.or_, id="or"),
            pytest.param(operator.and_, id="and"),
            pytest.param(operator.sub, id="sub"),
            pytest.param(operator.matmul, id="matmul"),
            pytest.param(operator.le, id="le"),
        ],
    )
    def test_universe_mismatch(self, op):
        with pytest.raises(ValueError, match="universe mismatch"):
            op(rel(2, (0, 1)), rel(3, (0, 1)))

    def test_hash_eq(self):
        assert rel(3, (0, 1)) == rel(3, (0, 1))
        assert hash(rel(3, (0, 1))) == hash(rel(3, (0, 1)))
        assert rel(3, (0, 1)) != rel(3, (1, 0))


# ----------------------------------------------------------------------
# Relational operators
# ----------------------------------------------------------------------


class TestOperators:
    def test_composition(self):
        a = rel(4, (0, 1), (1, 2))
        b = rel(4, (1, 3), (2, 0))
        assert set((a @ b).pairs()) == {(0, 3), (1, 0)}

    def test_then_chains(self):
        a = rel(4, (0, 1))
        b = rel(4, (1, 2))
        c = rel(4, (2, 3))
        assert set(a.then(b, c).pairs()) == {(0, 3)}

    def test_inverse(self):
        assert set(rel(3, (0, 1), (1, 2)).inverse().pairs()) == {(1, 0), (2, 1)}

    def test_inverse_involution(self):
        a = rel(4, (0, 3), (2, 1), (1, 1))
        assert a.inverse().inverse() == a

    def test_opt_adds_diagonal(self):
        r = rel(2, (0, 1)).opt()
        assert (0, 0) in r and (1, 1) in r and (0, 1) in r

    def test_plus(self):
        r = rel(4, (0, 1), (1, 2), (2, 3)).plus()
        assert (0, 3) in r
        assert (0, 0) not in r

    def test_plus_cycle(self):
        r = rel(3, (0, 1), (1, 0)).plus()
        assert (0, 0) in r
        assert (1, 1) in r

    def test_star_is_reflexive(self):
        r = rel(3, (0, 1)).star()
        assert (2, 2) in r
        assert (0, 1) in r

    def test_restrict(self):
        r = Relation.full(3).restrict([0], [1, 2])
        assert set(r.pairs()) == {(0, 1), (0, 2)}

    def test_remove_diagonal(self):
        r = Relation.full(2).remove_diagonal()
        assert set(r.pairs()) == {(0, 1), (1, 0)}

    def test_symmetric_closure(self):
        r = rel(3, (0, 1)).symmetric_closure()
        assert (1, 0) in r

    def test_without_events(self):
        r = rel(4, (0, 1), (1, 2), (2, 3)).without_events([1])
        assert set(r.pairs()) == {(2, 3)}

    def test_map_events(self):
        r = rel(4, (0, 1), (2, 3))
        mapped = r.map_events(2, {0: 0, 1: 1})
        assert set(mapped.pairs()) == {(0, 1)}


# ----------------------------------------------------------------------
# Predicates
# ----------------------------------------------------------------------


class TestPredicates:
    def test_acyclic(self):
        assert rel(3, (0, 1), (1, 2)).is_acyclic()
        assert not rel(3, (0, 1), (1, 0)).is_acyclic()
        assert not rel(2, (0, 0)).is_acyclic()

    def test_find_cycle_none(self):
        assert rel(3, (0, 1), (1, 2)).find_cycle() is None

    def test_find_cycle_valid(self):
        r = rel(4, (0, 1), (1, 2), (2, 0), (3, 3))
        cycle = r.find_cycle()
        assert cycle is not None
        for a, b in zip(cycle, cycle[1:] + [cycle[0]]):
            assert (a, b) in r

    def test_irreflexive(self):
        assert rel(3, (0, 1)).is_irreflexive()
        assert not rel(3, (1, 1)).is_irreflexive()

    def test_transitive(self):
        assert rel(3, (0, 1), (1, 2), (0, 2)).is_transitive()
        assert not rel(3, (0, 1), (1, 2)).is_transitive()

    def test_symmetric(self):
        assert rel(3, (0, 1), (1, 0)).is_symmetric()
        assert not rel(3, (0, 1)).is_symmetric()

    def test_total_order_on(self):
        r = Relation.total_order(4, [0, 1, 2])
        assert r.is_total_order_on([0, 1, 2])
        assert not r.is_total_order_on([0, 1, 3])


# ----------------------------------------------------------------------
# Algebraic laws (property-based)
# ----------------------------------------------------------------------

N = 5


@st.composite
def relations(draw, n=N):
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=12,
        )
    )
    return Relation.from_pairs(n, pairs)


@settings(max_examples=60, deadline=None)
@given(relations(), relations(), relations())
def test_composition_associative(a, b, c):
    assert (a @ b) @ c == a @ (b @ c)


@settings(max_examples=60, deadline=None)
@given(relations(), relations())
def test_union_commutative(a, b):
    assert a | b == b | a


@settings(max_examples=60, deadline=None)
@given(relations(), relations(), relations())
def test_composition_distributes_over_union(a, b, c):
    assert a @ (b | c) == (a @ b) | (a @ c)


@settings(max_examples=60, deadline=None)
@given(relations())
def test_plus_is_transitive_and_contains(a):
    p = a.plus()
    assert a <= p
    assert p.is_transitive()


@settings(max_examples=60, deadline=None)
@given(relations())
def test_plus_fixpoint(a):
    assert a.plus().plus() == a.plus()


@settings(max_examples=60, deadline=None)
@given(relations())
def test_star_absorbs_identity(a):
    assert Relation.identity(N) <= a.star()
    assert a.star() == a.star().star()


@settings(max_examples=60, deadline=None)
@given(relations(), relations())
def test_inverse_of_composition(a, b):
    assert (a @ b).inverse() == b.inverse() @ a.inverse()


@settings(max_examples=60, deadline=None)
@given(relations())
def test_acyclic_iff_no_cycle_witness(a):
    assert a.is_acyclic() == (a.find_cycle() is None)


@settings(max_examples=60, deadline=None)
@given(relations())
def test_acyclic_implies_plus_irreflexive(a):
    if a.is_acyclic():
        assert a.plus().is_irreflexive()
    else:
        assert not a.plus().is_irreflexive()


@settings(max_examples=60, deadline=None)
@given(relations(), relations())
def test_demorgan_union(a, b):
    assert (a | b).complement() == a.complement() & b.complement()
