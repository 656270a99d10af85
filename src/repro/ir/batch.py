"""Candidate stacks for the batched evaluator.

A :class:`BatchContext` is a stack of candidate analyses sharing one
universe size: the unit the generated kernels (:mod:`repro.ir.codegen`)
evaluate a model over.  Its memo holds every batched value keyed like
the scalar ``_ir_memo`` (node ids, ``("fix", ...)`` tuples), with the
scalar path's ``txn_free`` split: a transaction-independent value of a
baseline context lives on (and is computed against) the *parent*
context, so one stack's ``tm=True`` and ``tm=False`` sweeps share it.

Every batched value is a ``float32`` 0/1 stack — ``[batch, n, n]`` for
relations (``v[b, i, j]`` is 1 iff ``(i, j)`` is in candidate ``b``'s
relation), ``[batch, n]`` for event sets.  :func:`pack_relations` and
:func:`pack_sets` build those stacks straight from each candidate's
scalar :class:`~repro.core.relation.Relation` rows and event sets.

numpy is optional: when it is missing, or ``REPRO_NO_NUMPY=1`` is set,
:data:`HAVE_NUMPY` is False and every consistency check runs on the
scalar reference (:mod:`repro.ir.eval`).
"""

from __future__ import annotations

import os

from ..core.analysis import CandidateAnalysis, analyze

try:  # pragma: no cover - exercised by the no-numpy CI job
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

if os.environ.get("REPRO_NO_NUMPY"):
    _np = None

#: True when numpy is importable and not disabled by ``REPRO_NO_NUMPY``.
HAVE_NUMPY = _np is not None

__all__ = ["BatchContext", "HAVE_NUMPY", "pack_relations", "pack_sets"]


class BatchContext:
    """A stack of candidate analyses sharing one universe size.

    The batched analogue of one :class:`CandidateAnalysis`: it carries
    the per-stack value memo and the baseline link for the
    ``txn_free`` sharing split.
    """

    __slots__ = ("analyses", "n", "batch", "_memo", "_parent", "_baseline")

    def __init__(
        self,
        analyses: list[CandidateAnalysis],
        _parent: "BatchContext | None" = None,
    ) -> None:
        if not analyses:
            raise ValueError("empty batch")
        n = analyses[0].n
        for a in analyses:
            if a.n != n:
                raise ValueError("mixed universe sizes in one batch")
        self.analyses = analyses
        self.n = n
        self.batch = len(analyses)
        self._memo: dict = {}
        self._parent = _parent
        self._baseline: BatchContext | None = None

    @classmethod
    def of(cls, executions) -> "BatchContext":
        """A context over the candidates' shared analyses."""
        return cls([analyze(x) for x in executions])

    @property
    def baseline(self) -> "BatchContext":
        """The transaction-stripped view (per-candidate ``a.baseline``),
        linked back here so txn-free values are shared."""
        if self._parent is not None:
            return self
        if self._baseline is None:
            self._baseline = BatchContext(
                [a.baseline for a in self.analyses], _parent=self
            )
        return self._baseline

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tag = " baseline" if self._parent is not None else ""
        return f"<BatchContext{tag} of {self.batch}x n={self.n}>"


def pack_relations(relations, n: int):
    """The ``float32 [batch, n, n]`` stack of scalar relations."""
    if n <= 64:
        # One vectorized unpack: the packed rows fit uint64.
        masks = _np.array(
            [rel._rows for rel in relations], dtype=_np.uint64
        ).reshape(len(relations), n)
        shifts = _np.arange(n, dtype=_np.uint64)
        bits = (masks[:, :, None] >> shifts) & _np.uint64(1)
        return bits.astype(_np.float32)
    data = _np.zeros((len(relations), n, n), _np.float32)
    for b, rel in enumerate(relations):
        for i, row in enumerate(rel._rows):
            while row:
                low = row & -row
                data[b, i, low.bit_length() - 1] = 1.0
                row ^= low
    return data


def pack_sets(sets, n: int):
    """The ``float32 [batch, n]`` stack of event sets."""
    data = _np.zeros((len(sets), n), _np.float32)
    for b, events in enumerate(sets):
        for e in events:
            data[b, e] = 1.0
    return data
