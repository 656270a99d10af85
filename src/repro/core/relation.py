"""Finite binary relations over a fixed universe of events.

This module is the relational-algebra substrate of the whole library: every
axiom in the paper (acyclicity of ``hb``, emptiness of ``rmw ∩ tfence``,
etc.) is a predicate over :class:`Relation` values built with the operators
defined here.

A relation over a universe of ``n`` events is stored as ``n`` row bitmasks:
bit ``j`` of ``rows[i]`` is set iff the pair ``(i, j)`` is in the relation.
Executions in this project are small (a dozen events or so), so Python
integers make union/intersection/composition/closure fast enough for the
exhaustive enumeration performed by :mod:`repro.synth`.

The operator names follow the paper's notation (section 2.1):

===========================  ==============================================
Paper                        Here
===========================  ==============================================
``r1 ∪ r2``                  ``r1 | r2``
``r1 ∩ r2``                  ``r1 & r2``
``r1 \\ r2``                 ``r1 - r2``
``¬r``                       ``r.complement()``
``r1 ; r2``                  ``r1 @ r2`` (or :meth:`Relation.then`)
``r⁻¹``                      ``r.inverse()``
``r?``                       ``r.opt()``
``r⁺``                       ``r.plus()``
``r*``                       ``r.star()``
``[s]``                      ``Relation.lift(n, s)``
``domain(r)`` / ``range(r)`` ``r.domain()`` / ``r.codomain()``
===========================  ==============================================

Every relation holds ``_rows`` as a ``tuple`` of exactly ``n`` ints, each
in ``[0, 2**n)``: ``__eq__`` and ``__hash__`` compare that tuple directly,
and analysis memos use relations as keys.  The public constructor
``Relation(n, rows)`` establishes the invariant for any input (it copies
the rows, checks their number and masks out-of-range bits).  The
operators and constructors whose rows are in range by construction skip
that work through the private :func:`_trusted`, which must only ever be
given an already normalised tuple.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

Pair = tuple[int, int]

__all__ = ["Relation", "Pair"]

_new = object.__new__


def _bits(mask: int) -> Iterator[int]:
    """Yield the indices of the set bits of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Relation:
    """An immutable binary relation over the universe ``{0, ..., n-1}``.

    Instances are hashable and support the full relational algebra used by
    axiomatic memory models.  All operations return new relations; nothing
    mutates in place.
    """

    __slots__ = ("n", "_rows", "_hash")

    def __init__(self, n: int, rows: Iterable[int] = ()) -> None:
        rows = tuple(rows) or (0,) * n
        if len(rows) != n:
            raise ValueError(f"expected {n} rows, got {len(rows)}")
        full = (1 << n) - 1
        self.n = n
        self._rows = tuple(row & full for row in rows)
        self._hash: int | None = None

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def empty(cls, n: int) -> "Relation":
        """The empty relation over a universe of size ``n``."""
        return _trusted(n, (0,) * n)

    @classmethod
    def full(cls, n: int) -> "Relation":
        """The complete relation (every pair, including the diagonal)."""
        row = (1 << n) - 1
        return _trusted(n, (row,) * n)

    @classmethod
    def identity(cls, n: int) -> "Relation":
        """The identity relation ``id`` over ``{0, ..., n-1}``."""
        return _trusted(n, tuple([1 << i for i in range(n)]))

    @classmethod
    def from_pairs(cls, n: int, pairs: Iterable[Pair]) -> "Relation":
        """Build a relation from an iterable of ``(source, target)`` pairs."""
        rows = [0] * n
        for a, b in pairs:
            if not (0 <= a < n and 0 <= b < n):
                raise ValueError(f"pair ({a}, {b}) outside universe of size {n}")
            rows[a] |= 1 << b
        return _trusted(n, tuple(rows))

    @classmethod
    def lift(cls, n: int, events: Iterable[int]) -> "Relation":
        """The paper's ``[s]``: the identity restricted to ``events``."""
        rows = [0] * n
        for e in events:
            rows[e] |= 1 << e
        return _trusted(n, tuple(rows))

    @classmethod
    def cross(cls, n: int, sources: Iterable[int], targets: Iterable[int]) -> "Relation":
        """The Cartesian product ``sources × targets`` as a relation.

        Targets outside the universe are dropped (the public constructor
        masks them).
        """
        target_mask = 0
        for t in targets:
            target_mask |= 1 << t
        rows = [0] * n
        for s in sources:
            rows[s] = target_mask
        return cls(n, rows)

    @classmethod
    def total_order(cls, n: int, chain: Iterable[int]) -> "Relation":
        """The strict total order induced by the sequence ``chain``.

        ``total_order(4, [2, 0, 3])`` relates 2→0, 2→3, and 0→3.
        """
        rows = [0] * n
        seen_mask = 0
        for e in reversed(list(chain)):
            rows[e] |= seen_mask
            seen_mask |= 1 << e
        return cls(n, rows)

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------

    def pairs(self) -> Iterator[Pair]:
        """Iterate over all pairs in the relation, row-major."""
        for i, row in enumerate(self._rows):
            for j in _bits(row):
                yield (i, j)

    def row(self, i: int) -> int:
        """The successor bitmask of event ``i``."""
        return self._rows[i]

    def successors(self, i: int) -> Iterator[int]:
        """Iterate over the events ``j`` with ``(i, j)`` in the relation."""
        return _bits(self._rows[i])

    def domain(self) -> frozenset[int]:
        """The set of events with at least one outgoing edge."""
        return frozenset(i for i, row in enumerate(self._rows) if row)

    def codomain(self) -> frozenset[int]:
        """The set of events with at least one incoming edge."""
        mask = 0
        for row in self._rows:
            mask |= row
        return frozenset(_bits(mask))

    def field(self) -> frozenset[int]:
        """Domain union codomain."""
        return self.domain() | self.codomain()

    def __contains__(self, pair: Pair) -> bool:
        a, b = pair
        return 0 <= a < self.n and bool(self._rows[a] >> b & 1)

    def __len__(self) -> int:
        return sum(row.bit_count() for row in self._rows)

    def __bool__(self) -> bool:
        return any(self._rows)

    def is_empty(self) -> bool:
        """True iff the relation contains no pairs."""
        return not any(self._rows)

    # ------------------------------------------------------------------
    # Boolean algebra
    # ------------------------------------------------------------------

    def __or__(self, other: "Relation") -> "Relation":
        n = self.n
        if n != other.n:
            raise ValueError(f"universe mismatch: {n} vs {other.n}")
        return _trusted(n, tuple([a | b for a, b in zip(self._rows, other._rows)]))

    def __and__(self, other: "Relation") -> "Relation":
        n = self.n
        if n != other.n:
            raise ValueError(f"universe mismatch: {n} vs {other.n}")
        return _trusted(n, tuple([a & b for a, b in zip(self._rows, other._rows)]))

    def __sub__(self, other: "Relation") -> "Relation":
        n = self.n
        if n != other.n:
            raise ValueError(f"universe mismatch: {n} vs {other.n}")
        return _trusted(n, tuple([a & ~b for a, b in zip(self._rows, other._rows)]))

    def complement(self) -> "Relation":
        """``¬r``: every pair (including the diagonal) not in ``r``."""
        full = (1 << self.n) - 1
        return _trusted(self.n, tuple([full ^ row for row in self._rows]))

    def __le__(self, other: "Relation") -> bool:
        """Subset test: every pair of ``self`` is in ``other``."""
        if self.n != other.n:
            raise ValueError(f"universe mismatch: {self.n} vs {other.n}")
        return all(a & ~b == 0 for a, b in zip(self._rows, other._rows))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Relation):
            return NotImplemented
        return self.n == other.n and self._rows == other._rows

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.n, self._rows))
        return self._hash

    # ------------------------------------------------------------------
    # Relational operators
    # ------------------------------------------------------------------

    def __matmul__(self, other: "Relation") -> "Relation":
        """Relational composition ``self ; other``."""
        n = self.n
        if n != other.n:
            raise ValueError(f"universe mismatch: {n} vs {other.n}")
        right = other._rows
        rows = []
        for row in self._rows:
            out = 0
            while row:
                low = row & -row
                out |= right[low.bit_length() - 1]
                row ^= low
            rows.append(out)
        return _trusted(n, tuple(rows))

    def then(self, *others: "Relation") -> "Relation":
        """Compose with each relation in ``others`` left-to-right."""
        result = self
        for other in others:
            result = result @ other
        return result

    def inverse(self) -> "Relation":
        """``r⁻¹``: the converse relation."""
        rows = [0] * self.n
        for i, row in enumerate(self._rows):
            bit = 1 << i
            while row:
                low = row & -row
                rows[low.bit_length() - 1] |= bit
                row ^= low
        return _trusted(self.n, tuple(rows))

    def opt(self) -> "Relation":
        """``r?``: reflexive closure."""
        return _trusted(
            self.n, tuple([row | (1 << i) for i, row in enumerate(self._rows)])
        )

    def plus(self) -> "Relation":
        """``r⁺``: transitive closure (Warshall on bitmask rows).

        One pass is complete: after the ``k``-th outer iteration,
        ``rows[i]`` holds every ``j`` reachable from ``i`` through
        intermediate vertices in ``{0..k}`` (the standard
        Floyd–Warshall invariant, with the inner ``j`` loop collapsed
        into one bitmask union).  ``tests/test_relation_properties.py``
        checks the result against an independent repeated-squaring
        closure.
        """
        rows = list(self._rows)
        for k in range(self.n):
            k_bit = 1 << k
            k_row = rows[k]
            for i in range(self.n):
                if rows[i] & k_bit:
                    rows[i] |= k_row
        return _trusted(self.n, tuple(rows))

    def star(self) -> "Relation":
        """``r*``: reflexive-transitive closure."""
        return self.plus().opt()

    def restrict(self, sources: Iterable[int], targets: Iterable[int]) -> "Relation":
        """Keep only pairs with source in ``sources`` and target in ``targets``."""
        target_mask = 0
        for t in targets:
            target_mask |= 1 << t
        source_set = set(sources)
        rows = [
            (row & target_mask) if i in source_set else 0
            for i, row in enumerate(self._rows)
        ]
        return _trusted(self.n, tuple(rows))

    def remove_diagonal(self) -> "Relation":
        """Drop all reflexive pairs."""
        return _trusted(
            self.n, tuple([row & ~(1 << i) for i, row in enumerate(self._rows)])
        )

    def symmetric_closure(self) -> "Relation":
        """``r ∪ r⁻¹``."""
        return self | self.inverse()

    def without_events(self, events: Iterable[int]) -> "Relation":
        """Drop every pair incident to any event in ``events``."""
        mask = 0
        for e in events:
            mask |= 1 << e
        rows = [0 if (1 << i) & mask else row & ~mask for i, row in enumerate(self._rows)]
        return _trusted(self.n, tuple(rows))

    # ------------------------------------------------------------------
    # Predicates and witnesses
    # ------------------------------------------------------------------

    def is_irreflexive(self) -> bool:
        """True iff no event is related to itself."""
        return all(not (row >> i & 1) for i, row in enumerate(self._rows))

    def is_acyclic(self) -> bool:
        """True iff the relation, viewed as a digraph, has no cycle."""
        # Iteratively strip events with no outgoing edges into remaining set.
        alive = (1 << self.n) - 1
        changed = True
        while changed and alive:
            changed = False
            for i in range(self.n):
                bit = 1 << i
                if alive & bit and not (self._rows[i] & alive):
                    alive ^= bit
                    changed = True
        return not alive

    def find_cycle(self) -> list[int] | None:
        """Return one cycle as a list of events, or ``None`` if acyclic.

        The returned list ``[e0, e1, ..., ek]`` satisfies ``(ei, ei+1)`` in
        the relation for all ``i``, and ``(ek, e0)`` as well.
        """
        color = [0] * self.n  # 0 = white, 1 = on stack, 2 = done
        stack: list[int] = []

        def dfs(v: int) -> list[int] | None:
            color[v] = 1
            stack.append(v)
            for w in _bits(self._rows[v]):
                if color[w] == 1:
                    return stack[stack.index(w):]
                if color[w] == 0:
                    found = dfs(w)
                    if found is not None:
                        return found
            stack.pop()
            color[v] = 2
            return None

        for v in range(self.n):
            if color[v] == 0:
                cycle = dfs(v)
                if cycle is not None:
                    return cycle
        return None

    def is_transitive(self) -> bool:
        """True iff ``r ; r ⊆ r``."""
        return (self @ self) <= self

    def is_symmetric(self) -> bool:
        """True iff ``r = r⁻¹``."""
        return self == self.inverse()

    def is_total_order_on(self, events: Iterable[int]) -> bool:
        """True iff the relation is a strict total order over ``events``."""
        events = list(events)
        if not self.is_irreflexive() or not self.is_transitive():
            return False
        for idx, a in enumerate(events):
            for b in events[idx + 1:]:
                forward = (a, b) in self
                backward = (b, a) in self
                if forward == backward:
                    return False
        return True

    # ------------------------------------------------------------------
    # Misc
    # ------------------------------------------------------------------

    def map_events(self, n: int, mapping: dict[int, int]) -> "Relation":
        """Rename events through ``mapping`` into a universe of size ``n``.

        Pairs whose endpoints are not both in ``mapping`` are dropped.
        """
        pairs = [
            (mapping[a], mapping[b])
            for a, b in self.pairs()
            if a in mapping and b in mapping
        ]
        return Relation.from_pairs(n, pairs)

    def __repr__(self) -> str:
        shown = ", ".join(f"{a}->{b}" for a, b in self.pairs())
        return f"Relation({self.n}, {{{shown}}})"


def _trusted(n: int, rows: tuple[int, ...]) -> Relation:
    """A :class:`Relation` over ``rows`` without normalising them.

    ``rows`` must already be a ``tuple`` of ``n`` ints in ``[0, 2**n)``
    (the invariant in the module docstring); only code whose rows are in
    range by construction calls this: the operators here and the base
    relations of :class:`~repro.core.execution.Execution`.
    """
    rel = _new(Relation)
    rel.n = n
    rel._rows = rows
    rel._hash = None
    return rel
