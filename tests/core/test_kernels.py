"""Vectorized reduction kernels: in-place folds, views, custom-op fallback."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import kernels
from repro.core.reduction_ops import MAX, MIN, PROD, SUM, ReductionOp, get_op
from repro.gaspi.segment import Segment


@pytest.mark.parametrize("op", [SUM, PROD, MIN, MAX], ids=lambda o: o.name)
def test_builtin_ops_are_vectorizable(op):
    assert kernels.is_vectorizable(op.func)


@pytest.mark.parametrize("op", [SUM, PROD, MIN, MAX], ids=lambda o: o.name)
@pytest.mark.parametrize("dtype", [np.float64, np.float32, np.int64])
def test_reduce_into_matches_functional_result(op, dtype):
    rng = np.random.default_rng(7)
    acc = (rng.uniform(1, 2, 64)).astype(dtype)
    contrib = (rng.uniform(1, 2, 64)).astype(dtype)
    contrib_snapshot = contrib.copy()
    expected = op.func(acc.copy(), contrib)
    out = kernels.reduce_into(op, acc, contrib)
    assert out is acc  # truly in place, no reallocation
    np.testing.assert_array_equal(acc, expected)
    np.testing.assert_array_equal(contrib, contrib_snapshot)  # untouched


def test_reduce_into_does_not_allocate_for_ufuncs():
    acc = np.ones(8)
    buffer_before = acc.__array_interface__["data"][0]
    kernels.reduce_into(SUM, acc, np.full(8, 2.0))
    assert acc.__array_interface__["data"][0] == buffer_before
    np.testing.assert_array_equal(acc, np.full(8, 3.0))


def test_non_ufunc_operator_falls_back_to_generic_path():
    def absmax(a, b):
        return np.where(np.abs(a) >= np.abs(b), a, b)

    op = ReductionOp("absmax", absmax, 0.0)
    assert not kernels.is_vectorizable(op.func)
    acc = np.array([1.0, -5.0, 2.0])
    kernels.reduce_into(op, acc, np.array([-3.0, 4.0, -2.0]))
    np.testing.assert_array_equal(acc, [-3.0, -5.0, 2.0])


def test_reduction_op_reduce_into_delegates_to_kernels():
    acc = np.array([1.0, 2.0])
    get_op("max").reduce_into(acc, np.array([0.0, 5.0]))
    np.testing.assert_array_equal(acc, [1.0, 5.0])


def test_fold_reads_a_segment_view_and_may_land_in_its_first_operand():
    # What every reducing plan does per arrival: ``out = op(partial, slot)``
    # straight out of the registered segment, into a third buffer or over
    # the partial itself.
    seg = Segment(1, 64, owner_rank=0)
    seg.view(np.float64)[:] = np.arange(8, dtype=np.float64)
    slot = seg.view(np.float64, offset=16, count=4)
    own, out = np.ones(4), np.empty(4)
    assert kernels.fold(SUM, own, slot, out) is out
    np.testing.assert_array_equal(out, [3.0, 4.0, 5.0, 6.0])
    np.testing.assert_array_equal(own, np.ones(4))
    kernels.fold(SUM, out, slot, out)
    np.testing.assert_array_equal(out, [5.0, 7.0, 9.0, 11.0])
    np.testing.assert_array_equal(slot, [2.0, 3.0, 4.0, 5.0])
    pysum = ReductionOp("pysum", lambda a, b: a + b, 0.0)  # not a ufunc
    np.testing.assert_array_equal(kernels.fold(pysum, own, slot, out), [3.0, 4.0, 5.0, 6.0])


def test_fold_slots_accumulates_rows():
    acc = np.zeros(3)
    kernels.fold_slots(SUM, acc, np.arange(9, dtype=np.float64).reshape(3, 3))
    np.testing.assert_array_equal(acc, [9.0, 12.0, 15.0])
