"""Unit tests of the notification board (GASPI weak synchronisation)."""

import threading
import time

import pytest

from repro.gaspi.errors import GaspiInvalidArgumentError, GaspiTimeoutError
from repro.gaspi.notifications import NotificationBoard


class TestBasics:
    def test_initially_empty(self):
        board = NotificationBoard(16)
        assert board.pending_ids() == []
        assert board.peek(3) == 0

    def test_post_and_peek(self):
        board = NotificationBoard(16)
        board.post(5, 7)
        assert board.peek(5) == 7
        assert board.pending_ids() == [5]

    def test_reset_returns_old_value_and_clears(self):
        board = NotificationBoard(16)
        board.post(2, 9)
        assert board.reset(2) == 9
        assert board.reset(2) == 0
        assert board.peek(2) == 0

    def test_post_overwrites_value(self):
        board = NotificationBoard(8)
        board.post(1, 3)
        board.post(1, 4)
        assert board.reset(1) == 4

    def test_posted_count_increments(self):
        board = NotificationBoard(8)
        board.post(0)
        board.post(1)
        assert board.posted_count == 2


class TestValidation:
    def test_zero_slots_rejected(self):
        with pytest.raises(GaspiInvalidArgumentError):
            NotificationBoard(0)

    def test_out_of_range_id_rejected(self):
        board = NotificationBoard(4)
        with pytest.raises(GaspiInvalidArgumentError):
            board.post(4)
        with pytest.raises(GaspiInvalidArgumentError):
            board.peek(-1)

    def test_non_positive_value_rejected(self):
        board = NotificationBoard(4)
        with pytest.raises(GaspiInvalidArgumentError):
            board.post(0, 0)

    def test_wait_some_bad_count(self):
        board = NotificationBoard(4)
        with pytest.raises(GaspiInvalidArgumentError):
            board.wait_some(0, 0)


class TestWaitSome:
    def test_returns_pending_id_immediately(self):
        board = NotificationBoard(8)
        board.post(3)
        assert board.wait_some(0, 8, timeout=0.0) == 3

    def test_timeout_returns_none(self):
        board = NotificationBoard(8)
        assert board.wait_some(0, 8, timeout=0.01) is None

    def test_range_restriction(self):
        board = NotificationBoard(8)
        board.post(6)
        # Waiting on [0, 4) must not see slot 6.
        assert board.wait_some(0, 4, timeout=0.01) is None
        assert board.wait_some(4, 4, timeout=0.01) == 6

    def test_wakes_up_when_posted_from_other_thread(self):
        board = NotificationBoard(8)

        def poster():
            time.sleep(0.05)
            board.post(2, 11)

        t = threading.Thread(target=poster)
        t.start()
        got = board.wait_some(0, 8, timeout=5.0)
        t.join()
        assert got == 2
        assert board.reset(2) == 11

    def test_zero_timeout_and_satisfied_waits_never_read_the_clock(self, monkeypatch):
        # GASPI_TEST probes exactly once; a wait whose notification is
        # already there returns it under any timeout — neither is timed.
        def no_clock():
            raise AssertionError("the clock was read")

        monkeypatch.setattr("repro.gaspi.notifications.time.monotonic", no_clock)
        board = NotificationBoard(8)
        assert board.wait_some(0, 8, timeout=0.0) is None
        board.post(4)
        assert board.wait_some(0, 4, timeout=0.0) is None
        for timeout in (0.0, 5.0, float("inf")):
            assert board.wait_some(0, 8, timeout=timeout) == 4
        board.wait_all([4], timeout=5.0)
        with pytest.raises(AssertionError, match="clock"):
            board.wait_some(0, 4, timeout=5.0)  # a finite wait that blocks is

    def test_returns_lowest_pending_in_range(self):
        board = NotificationBoard(8)
        board.post(5)
        board.post(1)
        assert board.wait_some(0, 8, timeout=0.0) == 1


class TestWaitAll:
    def test_wait_all_satisfied(self):
        board = NotificationBoard(8)
        for nid in (1, 2, 3):
            board.post(nid)
        board.wait_all([1, 2, 3], timeout=0.1)  # must not raise

    def test_wait_all_timeout_raises(self):
        board = NotificationBoard(8)
        board.post(1)
        with pytest.raises(GaspiTimeoutError):
            board.wait_all([1, 2], timeout=0.02)

    def test_wait_all_wakes_on_last_post(self):
        board = NotificationBoard(8)
        board.post(0)

        def poster():
            time.sleep(0.03)
            board.post(1)

        t = threading.Thread(target=poster)
        t.start()
        board.wait_all([0, 1], timeout=5.0)
        t.join()


class TestConcurrency:
    def test_concurrent_posters_all_seen(self):
        board = NotificationBoard(128)

        def poster(base):
            for i in range(16):
                board.post(base + i)

        threads = [threading.Thread(target=poster, args=(b,)) for b in (0, 16, 32, 48)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(board.pending_ids()) == 64

    def test_single_consumption_under_racing_resets(self):
        board = NotificationBoard(4)
        board.post(0, 5)
        results = []

        def consumer():
            results.append(board.reset(0))

        threads = [threading.Thread(target=consumer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # Exactly one consumer observed the value; everyone else got 0.
        assert sorted(results) == [0, 0, 0, 5]
