"""Property-based suite for the :class:`repro.core.relation.Relation`
algebra.

Randomized relations (seeded from ``REPRO_TEST_SEED``, printed in the
pytest header) are checked against the algebraic laws every axiomatic
model relies on: closure properties of ``plus``/``star``/``opt``,
inverse and composition laws, the boolean lattice, and the consistency
of ``is_acyclic``/``find_cycle`` with the existence of a topological
order.
"""

import random

import pytest

from repro.conformance.seeds import derive_seed, reproducible_seed
from repro.core.relation import Relation

_SEED = reproducible_seed()


def random_relation(rng: random.Random, n: int, density: float = 0.3) -> Relation:
    pairs = [
        (i, j)
        for i in range(n)
        for j in range(n)
        if rng.random() < density
    ]
    return Relation.from_pairs(n, pairs)


def _samples(stream: str, count: int = 40, max_n: int = 7):
    rng = random.Random(derive_seed(_SEED, stream))
    out = []
    for _ in range(count):
        n = rng.randint(1, max_n)
        out.append(
            (
                random_relation(rng, n, rng.uniform(0.05, 0.6)),
                random_relation(rng, n, rng.uniform(0.05, 0.6)),
                random_relation(rng, n, rng.uniform(0.05, 0.6)),
            )
        )
    return out


SAMPLES = _samples("relation-properties")


class TestClosures:
    def test_plus_is_transitive_and_contains_r(self):
        for r, _, _ in SAMPLES:
            p = r.plus()
            assert r <= p
            assert p.is_transitive()

    def test_plus_matches_repeated_squaring(self):
        """``plus()`` (single-pass Warshall over bitmask rows) against
        an independent repeated-squaring closure: square ``r ∪ r·r``
        until the fixpoint.  The two algorithms share no code, so a
        Warshall ordering bug cannot hide."""
        for r, s, _ in SAMPLES:
            for rel in (r, s):
                closure = rel
                while True:
                    bigger = closure | (closure @ closure)
                    if bigger == closure:
                        break
                    closure = bigger
                assert rel.plus() == closure

    def test_plus_is_idempotent(self):
        for r, _, _ in SAMPLES:
            p = r.plus()
            assert p.plus() == p

    def test_plus_is_the_least_transitive_superset(self):
        """``r⁺ ⊆ t`` for any transitive ``t ⊇ r`` — checked against
        ``(r ∪ s)⁺``, a transitive superset of ``r``."""
        for r, s, _ in SAMPLES:
            t = (r | s).plus()
            assert r.plus() <= t

    def test_star_is_plus_with_diagonal(self):
        for r, _, _ in SAMPLES:
            assert r.star() == r.plus() | Relation.identity(r.n)

    def test_opt_adds_exactly_the_diagonal(self):
        for r, _, _ in SAMPLES:
            assert r.opt() == r | Relation.identity(r.n)
            assert r.opt().opt() == r.opt()


class TestInverseAndComposition:
    def test_inverse_is_involutive(self):
        for r, _, _ in SAMPLES:
            assert r.inverse().inverse() == r

    def test_inverse_antidistributes_over_composition(self):
        for r, s, _ in SAMPLES:
            assert (r @ s).inverse() == s.inverse() @ r.inverse()

    def test_composition_is_associative(self):
        for r, s, t in SAMPLES:
            assert (r @ s) @ t == r @ (s @ t)

    def test_composition_distributes_over_union(self):
        for r, s, t in SAMPLES:
            assert r @ (s | t) == (r @ s) | (r @ t)
            assert (s | t) @ r == (s @ r) | (t @ r)

    def test_identity_is_neutral(self):
        for r, _, _ in SAMPLES:
            ident = Relation.identity(r.n)
            assert r @ ident == r
            assert ident @ r == r

    def test_composition_members_are_witnessed(self):
        for r, s, _ in SAMPLES:
            comp = r @ s
            for a, c in comp.pairs():
                assert any(
                    (a, b) in r and (b, c) in s for b in range(r.n)
                ), (a, c)


class TestBooleanAlgebra:
    def test_de_morgan(self):
        for r, s, _ in SAMPLES:
            assert (r | s).complement() == r.complement() & s.complement()
            assert (r & s).complement() == r.complement() | s.complement()

    def test_difference_is_intersection_with_complement(self):
        for r, s, _ in SAMPLES:
            assert r - s == r & s.complement()

    def test_subset_is_a_partial_order(self):
        for r, s, _ in SAMPLES:
            assert r <= r
            if r <= s and s <= r:
                assert r == s
            assert (r & s) <= r <= (r | s)

    def test_len_is_inclusion_exclusion(self):
        for r, s, _ in SAMPLES:
            assert len(r | s) + len(r & s) == len(r) + len(s)


class TestAcyclicityAndTopologicalOrder:
    @staticmethod
    def _topological_order(r: Relation) -> list | None:
        """Kahn's algorithm, written independently of ``is_acyclic``."""
        indeg = [0] * r.n
        for _, b in r.pairs():
            indeg[b] += 1
        ready = [i for i in range(r.n) if indeg[i] == 0]
        order = []
        while ready:
            node = ready.pop()
            order.append(node)
            for succ in r.successors(node):
                indeg[succ] -= 1
                if indeg[succ] == 0:
                    ready.append(succ)
        return order if len(order) == r.n else None

    def test_acyclic_iff_topological_order_exists(self):
        for r, _, _ in SAMPLES:
            order = self._topological_order(r)
            assert r.is_acyclic() == (order is not None), r

    def test_topological_order_respects_every_pair(self):
        for r, _, _ in SAMPLES:
            order = self._topological_order(r)
            if order is None:
                continue
            position = {e: i for i, e in enumerate(order)}
            for a, b in r.pairs():
                assert position[a] < position[b], (a, b, order)

    def test_find_cycle_agrees_with_is_acyclic(self):
        for r, _, _ in SAMPLES:
            cycle = r.find_cycle()
            assert (cycle is None) == r.is_acyclic()
            if cycle is not None:
                for i, a in enumerate(cycle):
                    b = cycle[(i + 1) % len(cycle)]
                    assert (a, b) in r, (cycle, (a, b))

    def test_acyclic_iff_plus_irreflexive(self):
        for r, _, _ in SAMPLES:
            assert r.is_acyclic() == r.plus().is_irreflexive()

    def test_total_order_roundtrip(self):
        rng = random.Random(derive_seed(_SEED, "relation-total-order"))
        for _ in range(25):
            n = rng.randint(1, 7)
            chain = list(range(n))
            rng.shuffle(chain)
            r = Relation.total_order(n, chain)
            assert r.is_total_order_on(range(n))
            assert r.is_acyclic()
            order = self._topological_order(r)
            assert order == chain


class TestConstructionInvariant:
    """Operators build their results without re-normalising the rows
    (:func:`repro.core.relation._trusted`), so every result must
    already satisfy the invariant the public constructor enforces:
    ``_rows`` is a tuple of ``n`` ints in ``[0, 2**n)``, and the value
    equals (and hashes like) its public reconstruction."""

    @staticmethod
    def _results(r, s):
        n = r.n
        events = [e for e in range(n) if e % 2 == 0]
        yield from (
            r | s,
            r & s,
            r - s,
            r.complement(),
            r @ s,
            r.then(s, r),
            r.inverse(),
            r.opt(),
            r.plus(),
            r.star(),
            r.restrict(events, range(n)),
            r.remove_diagonal(),
            r.symmetric_closure(),
            r.without_events(events),
            r.map_events(n, {e: n - 1 - e for e in range(n)}),
            Relation.empty(n),
            Relation.full(n),
            Relation.identity(n),
            Relation.lift(n, events),
            Relation.cross(n, events, range(n)),
            Relation.from_pairs(n, r.pairs()),
            Relation.total_order(n, reversed(range(n))),
        )

    def test_operator_results_are_normalised(self):
        for r, s, _ in SAMPLES:
            for out in self._results(r, s):
                assert out.n == r.n
                assert type(out._rows) is tuple
                assert len(out._rows) == out.n
                for row in out._rows:
                    assert type(row) is int and 0 <= row < 1 << out.n
                public = Relation(out.n, out._rows)
                assert out == public
                assert hash(out) == hash(public)
