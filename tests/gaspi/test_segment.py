"""Unit tests of GASPI memory segments."""

import numpy as np
import pytest

from repro.gaspi.errors import GaspiInvalidArgumentError, GaspiSegmentError
from repro.gaspi.segment import Segment


class TestConstruction:
    def test_buffer_zero_initialised(self):
        seg = Segment(1, 64, owner_rank=0)
        assert seg.size == 64
        assert np.all(seg.buffer == 0)

    def test_invalid_size_rejected(self):
        with pytest.raises(GaspiInvalidArgumentError):
            Segment(1, 0, owner_rank=0)

    def test_negative_id_rejected(self):
        with pytest.raises(GaspiInvalidArgumentError):
            Segment(-1, 8, owner_rank=0)


class TestTypedViews:
    def test_view_shares_memory(self):
        seg = Segment(0, 80, owner_rank=0)
        view = seg.view(np.float64)
        view[:] = np.arange(10)
        again = seg.view(np.float64)
        assert np.array_equal(again, np.arange(10, dtype=np.float64))

    def test_view_with_offset_and_count(self):
        seg = Segment(0, 80, owner_rank=0)
        seg.view(np.float64)[:] = np.arange(10)
        part = seg.view(np.float64, offset=16, count=3)
        assert np.array_equal(part, [2.0, 3.0, 4.0])

    def test_view_out_of_bounds(self):
        seg = Segment(0, 16, owner_rank=0)
        with pytest.raises(GaspiSegmentError):
            seg.view(np.float64, offset=8, count=2)
        with pytest.raises(GaspiSegmentError):
            seg.view(np.float64, offset=32)

    def test_view_other_dtypes(self):
        seg = Segment(0, 16, owner_rank=0)
        ints = seg.view(np.int32)
        assert ints.size == 4
        ints[:] = [1, 2, 3, 4]
        assert np.array_equal(seg.view(np.int32), [1, 2, 3, 4])

    def test_fill(self):
        seg = Segment(0, 64, owner_rank=0)
        seg.fill(2.5)
        assert np.all(seg.view(np.float64) == 2.5)


class TestRawAccess:
    def test_write_then_read_bytes(self):
        seg = Segment(0, 32, owner_rank=1)
        data = np.arange(8, dtype=np.uint8)
        seg.write_bytes(4, data)
        out = seg.read_bytes(4, 8)
        assert np.array_equal(out, data)
        assert seg.bytes_written == 8

    def test_write_coerces_only_what_is_not_uint8_already(self, monkeypatch):
        seg = Segment(0, 16, owner_rank=0)
        seg.write_bytes(0, [1, 2, 3])  # anything array-like still goes in
        seg.write_bytes(3, np.array([4, 5], dtype=np.int64))
        assert seg.read_bytes(0, 5).tolist() == [1, 2, 3, 4, 5]

        def no_coercion(*args, **kwargs):
            raise AssertionError("a uint8 array was coerced again")

        monkeypatch.setattr("repro.gaspi.segment.np.asarray", no_coercion)
        seg.write_bytes(5, np.array([6, 7], dtype=np.uint8))
        assert seg.read_bytes(5, 2).tolist() == [6, 7]

    def test_read_is_a_copy(self):
        seg = Segment(0, 16, owner_rank=0)
        seg.write_bytes(0, np.ones(4, dtype=np.uint8))
        out = seg.read_bytes(0, 4)
        out[:] = 9
        assert np.all(seg.read_bytes(0, 4) == 1)

    def test_out_of_range_write_rejected(self):
        seg = Segment(0, 8, owner_rank=0)
        with pytest.raises(GaspiSegmentError):
            seg.write_bytes(4, np.zeros(8, dtype=np.uint8))

    def test_out_of_range_read_rejected(self):
        seg = Segment(0, 8, owner_rank=0)
        with pytest.raises(GaspiSegmentError):
            seg.read_bytes(6, 4)

    def test_notifications_attached(self):
        seg = Segment(0, 8, owner_rank=0, num_notifications=32)
        assert seg.notifications.num_slots == 32
