"""Unit tests of communication queues and groups."""

import pytest

from repro.gaspi.errors import GaspiInvalidArgumentError, GaspiQueueFullError, GaspiTimeoutError
from repro.gaspi.group import Group
from repro.gaspi.queue import CommunicationQueue


class TestCommunicationQueue:
    def test_post_complete_cycle(self):
        q = CommunicationQueue(0, depth=4)
        q.post()
        assert q.outstanding == 1
        q.complete()
        assert q.outstanding == 0
        assert q.posted_total == 1

    def test_an_inline_post_is_counted_and_never_outstanding(self):
        q = CommunicationQueue(0, depth=1)
        for _ in range(3):  # past the depth: nothing of it is in flight
            q.count()
        assert (q.posted_total, q.outstanding) == (3, 0)
        q.wait(timeout=0.0)

    def test_wait_returns_when_empty(self):
        q = CommunicationQueue(0)
        q.wait(timeout=0.01)  # nothing outstanding → immediate return

    def test_wait_on_an_empty_queue_never_reads_the_clock(self, monkeypatch):
        def no_clock():
            raise AssertionError("the clock was read")

        monkeypatch.setattr("repro.gaspi.queue.time.monotonic", no_clock)
        q = CommunicationQueue(0)
        for timeout in (0.0, 0.01, float("inf")):
            q.wait(timeout=timeout)
        q.post()
        with pytest.raises(AssertionError, match="clock"):
            q.wait(timeout=0.0)

    def test_zero_timeout_with_outstanding_requests_raises_at_once(self):
        q = CommunicationQueue(0)
        q.post()
        with pytest.raises(GaspiTimeoutError):
            q.wait(timeout=0.0)

    def test_wait_timeout_raises(self):
        q = CommunicationQueue(0)
        q.post()
        with pytest.raises(GaspiTimeoutError):
            q.wait(timeout=0.02)

    def test_depth_limit_enforced(self):
        q = CommunicationQueue(0, depth=2)
        q.post()
        q.post()
        with pytest.raises(GaspiQueueFullError):
            q.post()

    def test_complete_without_post_is_an_error(self):
        q = CommunicationQueue(0)
        with pytest.raises(RuntimeError):
            q.complete()


class TestGroup:
    def test_world_group(self):
        g = Group.world(4)
        assert list(g) == [0, 1, 2, 3]
        assert g.size == 4
        assert 2 in g

    def test_index_of(self):
        g = Group([5, 1, 3])
        assert g.index_of(3) == 1  # groups are stored sorted
        with pytest.raises(GaspiInvalidArgumentError):
            g.index_of(2)

    def test_equality_and_hash(self):
        assert Group([0, 1]) == Group([1, 0])
        assert hash(Group([0, 1])) == hash(Group([1, 0]))
        assert Group([0, 1]) != Group([0, 2])

    def test_empty_group_rejected(self):
        with pytest.raises(GaspiInvalidArgumentError):
            Group([])

    def test_duplicates_rejected(self):
        with pytest.raises(GaspiInvalidArgumentError):
            Group([1, 1])

    def test_negative_rank_rejected(self):
        with pytest.raises(GaspiInvalidArgumentError):
            Group([-1, 0])

    def test_contains_method(self):
        g = Group([0, 2, 4])
        assert g.contains(4)
        assert not g.contains(3)
