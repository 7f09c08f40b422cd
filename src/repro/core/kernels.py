"""Vectorized reduction kernels for the collective hot path.

Receiver-side reductions are the per-element compute of every reducing
collective: the BST reduce folds child slots into an accumulator, the
pipelined ring reduces one incoming chunk per step, the SSP hypercube
reduces the partner mailbox, and the tolerant flat exchanges fold every
live peer's slot.  The seed implementation routed all of them through
``ReductionOp.reduce_into``, which evaluated ``op(acc, contrib)`` into a
*temporary* array and then copied it back — one full-size allocation plus
an extra pass over the data per fold.

This module provides allocation-free kernels instead:

* built-in operators (sum/prod/min/max) are NumPy *ufuncs*, so the fold is
  a single ``ufunc(acc, contrib, out=acc)`` call — one fused pass, no
  temporary;
* contributions may be any contiguous view — in particular a raw
  :meth:`~repro.gaspi.runtime.GaspiRuntime.segment_view` slice — so a
  receiver can reduce straight out of its registered segment without
  first materialising a copy (the zero-copy receive path);
* non-ufunc user-defined operators transparently fall back to the generic
  evaluate-and-copy path, so :func:`repro.core.reduction_ops.register_op`
  extensions keep working unchanged.

``reduce.py``, ``allreduce_ring.py``, ``allreduce_ssp.py`` and the
tolerant variants in ``faults/recovery.py`` all fold through here (via
:meth:`ReductionOp.reduce_into`, which delegates to :func:`reduce_into`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Union

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (reduction_ops)
    from .reduction_ops import ReductionOp


def is_vectorizable(func: object) -> bool:
    """True when ``func`` is a binary ufunc usable as an in-place kernel."""
    return isinstance(func, np.ufunc) and func.nin == 2 and func.nout == 1


def reduce_into(
    op: "ReductionOp",
    accumulator: np.ndarray,
    contribution: np.ndarray,
) -> np.ndarray:
    """In-place ``accumulator = op(accumulator, contribution)``, no temporary.

    ``contribution`` may be a plain array or a segment view; it is never
    modified.  Returns ``accumulator`` for chaining.
    """
    func = op.func
    if is_vectorizable(func):
        func(accumulator, contribution, out=accumulator)
    else:
        # Generic operators may return a fresh array of any compatible
        # dtype; copyto applies NumPy's same-kind casting back into place.
        np.copyto(accumulator, func(accumulator, contribution))
    return accumulator


def fold(
    op: "ReductionOp",
    a: np.ndarray,
    b: np.ndarray,
    out: np.ndarray,
) -> np.ndarray:
    """Fused ``out = op(a, b)`` — one ufunc pass, no temporary.

    Unlike :func:`reduce_into` this writes to a *third* destination, which
    lets the pipelined reduce fuse copies away entirely: the first fold of
    a chunk reads straight from the caller's ``sendbuf`` (instead of
    pre-copying it into the accumulator), and the last fold at the root
    lands straight in ``recvbuf``.  ``out`` may alias ``a``.
    """
    func = op.func
    if is_vectorizable(func):
        func(a, b, out=out)
    else:
        np.copyto(out, func(a, b))
    return out


def fold_slots(
    op: "ReductionOp",
    accumulator: np.ndarray,
    slots: Union[np.ndarray, list],
) -> np.ndarray:
    """Fold a sequence of equally-shaped contributions into ``accumulator``.

    Used by flat (rank-slot-indexed) exchanges that collected several
    contributions before reducing.  A 2-D array folds row by row through
    the same in-place kernel.
    """
    for slot in slots:
        reduce_into(op, accumulator, slot)
    return accumulator
