"""Unit tests of the notification board (GASPI weak synchronisation)."""

import os
import sys
import threading
import time

import pytest

from repro.gaspi.constants import WAIT_SLICE, WAIT_SPIN
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


    def test_probe_returns_a_plain_bool_for_any_count(self):
        board = NotificationBoard(8)
        assert board.probe(2, 1) is False and board.probe(0, 8) is False
        board.post(2)
        assert board.probe(2, 1) is True and board.probe(0, 8) is True
        assert board.probe(3, 1) is False


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


class TestWaitPolicy:
    """Poll, then park: what a blocked wait does before it sleeps."""

    @pytest.fixture
    def yields(self, monkeypatch):
        """Count the yields the board makes (it calls ``os.sched_yield``)."""
        calls = []
        real_yield = os.sched_yield

        def counting_yield():
            calls.append(threading.get_ident())
            real_yield()

        monkeypatch.setattr("repro.gaspi.notifications.os.sched_yield", counting_yield)
        return calls

    @pytest.mark.parametrize("wait", ["wait_some", "wait_all"])
    def test_blocked_infinite_wait_yields_n_times_then_parks_and_a_post_wakes_it(
        self, yields, wait
    ):
        board = NotificationBoard(8)
        got = []

        def waiter():
            if wait == "wait_some":
                got.append(board.wait_some(0, 8))
            else:
                got.append(board.wait_all([1, 3]))

        if wait == "wait_all":
            board.post(1)  # one of the two it wants
        t = threading.Thread(target=waiter, daemon=True)
        t.start()
        deadline = time.monotonic() + 5.0
        while len(yields) < WAIT_SPIN and time.monotonic() < deadline:
            time.sleep(0.001)
        time.sleep(0.05)  # a waiter that kept polling would keep counting
        assert len(yields) == WAIT_SPIN
        assert t.is_alive()
        board.post(3, 7)
        t.join(5.0)
        assert not t.is_alive()
        assert got == ([3] if wait == "wait_some" else [None])
        assert len(yields) == WAIT_SPIN  # woken by the post, not by a poll

    def test_a_post_during_the_poll_phase_is_seen_without_parking(self, yields, monkeypatch):
        board = NotificationBoard(8)

        def post_on_third_yield():
            yields.append(None)
            if len(yields) == 3:
                board.post(5)

        monkeypatch.setattr("repro.gaspi.notifications.os.sched_yield", post_on_third_yield)

        def no_park(timeout=None):
            raise AssertionError("the waiter parked")

        monkeypatch.setattr(board._cond, "wait", no_park)
        assert board.wait_some(0, 8) == 5
        assert len(yields) == 3

    @pytest.mark.parametrize("timeout", [float("inf"), 5.0, 200e-6])
    def test_a_post_between_the_last_poll_and_the_park_is_not_lost(self, timeout):
        board = NotificationBoard(8)

        class PostsAsTheWaiterArrives(threading.Condition):
            """Lands one post after the waiter's last lock-free probe and
            before it holds the condition — the window a park must cover."""

            posted = False

            def __enter__(self):
                if not self.posted:
                    self.posted = True
                    board.post(6, 2)
                return super().__enter__()

            def wait(self, timeout=None):
                raise AssertionError("parked with the notification already there")

        board._cond = PostsAsTheWaiterArrives()
        assert board.wait_some(0, 8, timeout=timeout) == 6
        assert board.reset(6) == 2

    def test_zero_timeout_never_yields(self, yields):
        board = NotificationBoard(8)
        for _ in range(100):
            assert board.wait_some(0, 8, timeout=0.0) is None
        with pytest.raises(GaspiTimeoutError):
            board.wait_all([0, 1], timeout=0.0)
        assert yields == []

    def test_a_timeout_under_the_wait_slice_never_yields_and_is_on_time(self, yields):
        # The progress thread's rule: it parks 200 us at a time on the head
        # pipeline, and polling each park out would hold the GIL against
        # the compute it overlaps.
        board = NotificationBoard(8)
        timeout = 200e-6
        assert timeout < WAIT_SLICE
        for _ in range(200):
            start = time.monotonic()
            assert board.wait_some(0, 8, timeout=timeout) is None
            elapsed = time.monotonic() - start
            assert timeout <= elapsed < timeout + 0.05
        assert yields == []

    def test_a_finite_timeout_stays_a_bound_over_poll_and_park(self, yields):
        board = NotificationBoard(8)
        start = time.monotonic()
        assert board.wait_some(0, 8, timeout=0.05) is None
        elapsed = time.monotonic() - start
        assert 0.05 <= elapsed < 0.05 + 0.1
        assert len(yields) == WAIT_SPIN
        with pytest.raises(GaspiTimeoutError, match=r"\[2\]"):
            board.post(1)
            board.wait_all([1, 2], timeout=0.02)

    @pytest.fixture(params=[WAIT_SPIN, 0], ids=["poll-then-park", "park-at-once"])
    def spin(self, request, monkeypatch):
        """The shipped budget, and none (every blocked wait then parks), under
        a 10 us switch interval: the GIL then changes hands inside the window
        between a waiter's last probe and its park, not only at its edges."""
        monkeypatch.setattr("repro.gaspi.notifications.WAIT_SPIN", request.param)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        yield
        sys.setswitchinterval(interval)

    def test_two_thread_ping_pong_loses_no_wake_up(self, spin):
        rounds = 20_000
        ping, pong = NotificationBoard(4), NotificationBoard(4)
        failures = []

        def player(mine, theirs, serve):
            try:
                for i in range(1, rounds + 1):
                    if serve:
                        theirs.post(0, i)
                    assert mine.wait_some(0, 1, timeout=20.0) == 0, f"round {i}"
                    assert mine.reset(0) == i
                    if not serve:
                        theirs.post(0, i)
            except BaseException as exc:  # noqa: BLE001 - reported by the main thread
                failures.append(exc)

        threads = [
            threading.Thread(target=player, args=(ping, pong, True)),
            threading.Thread(target=player, args=(pong, ping, False)),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60.0)
        assert failures == [] and not any(t.is_alive() for t in threads)
        assert ping.pending_ids() == pong.pending_ids() == []

    def test_one_poster_fifteen_waiters_lose_no_wake_up(self, spin):
        waiters, rounds = 15, 300
        board, acks = NotificationBoard(waiters), NotificationBoard(waiters)
        failures = []

        def waiter(slot):
            try:
                for i in range(1, rounds + 1):
                    assert board.wait_some(slot, 1, timeout=20.0) == slot, f"round {i}"
                    assert board.reset(slot) == i
                    acks.post(slot, i)
            except BaseException as exc:  # noqa: BLE001 - reported by the main thread
                failures.append(exc)

        threads = [threading.Thread(target=waiter, args=(s,)) for s in range(waiters)]
        for t in threads:
            t.start()
        try:
            for i in range(1, rounds + 1):
                for slot in range(waiters):
                    board.post(slot, i)
                acks.wait_all(range(waiters), timeout=20.0)
                assert acks.drain() == {slot: i for slot in range(waiters)}
        finally:
            for t in threads:
                t.join(25.0)
        assert failures == [] and not any(t.is_alive() for t in threads)
        assert board.pending_ids() == []
