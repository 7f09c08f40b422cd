"""Tests of the threaded GASPI runtime: write/notify semantics, queues, atomics."""

import dataclasses
import threading
import time

import numpy as np
import pytest

from repro.gaspi import (
    GaspiInvalidArgumentError,
    GaspiResourceError,
    GaspiSegmentError,
    GaspiTimeoutError,
    ThreadedWorld,
    WorldConfig,
)
from repro.gaspi.constants import GASPI_BLOCK


class TestSegmentManagement:
    def test_create_view_delete(self, world2):
        rt = world2.runtime(0)
        rt.segment_create(1, 64)
        assert rt.segment_size(1) == 64
        assert rt.segment_exists(1)
        rt.segment_view(1)[:] = 1.5
        rt.segment_delete(1)
        assert not rt.segment_exists(1)

    def test_duplicate_segment_rejected(self, world2):
        rt = world2.runtime(0)
        rt.segment_create(1, 8)
        with pytest.raises(GaspiResourceError):
            rt.segment_create(1, 8)

    def test_delete_unknown_segment_rejected(self, world2):
        with pytest.raises(GaspiSegmentError):
            world2.runtime(0).segment_delete(42)

    def test_segments_are_per_rank(self, world2):
        world2.runtime(0).segment_create(1, 8)
        assert not world2.runtime(1).segment_exists(1)

    def test_segment_limit(self):
        world = ThreadedWorld(1, WorldConfig(max_segments=2))
        try:
            rt = world.runtime(0)
            rt.segment_create(0, 8)
            rt.segment_create(1, 8)
            with pytest.raises(GaspiResourceError):
                rt.segment_create(2, 8)
        finally:
            world.close()


class TestWriteNotify:
    def _setup(self, world, size=64):
        for r in range(world.size):
            world.runtime(r).segment_create(1, size)

    def test_write_moves_data(self, world2):
        self._setup(world2)
        src, dst = world2.runtime(0), world2.runtime(1)
        src.segment_view(1)[:4] = [1.0, 2.0, 3.0, 4.0]
        src.write(1, 0, 1, 1, 0, 32)
        src.wait(0)
        assert np.array_equal(dst.segment_view(1)[:4], [1.0, 2.0, 3.0, 4.0])

    def test_write_with_offsets(self, world2):
        self._setup(world2)
        src, dst = world2.runtime(0), world2.runtime(1)
        src.segment_view(1)[:2] = [7.0, 8.0]
        src.write(1, 0, 1, 1, 16, 16)
        src.wait(0)
        assert np.array_equal(dst.segment_view(1)[2:4], [7.0, 8.0])

    def test_write_notify_data_visible_before_notification(self, async_world4):
        """The core GASPI guarantee: notification implies data visibility."""
        for r in range(async_world4.size):
            async_world4.runtime(r).segment_create(1, 64)
        src, dst = async_world4.runtime(0), async_world4.runtime(1)
        src.segment_view(1)[:4] = [4.0, 3.0, 2.0, 1.0]
        src.write_notify(1, 0, 1, 1, 0, 32, notification_id=5, notification_value=9)
        got = dst.notify_waitsome(1, 0, 16, timeout=5.0)
        assert got == 5
        assert dst.notify_reset(1, 5) == 9
        # Data must already be there because the notification was visible.
        assert np.array_equal(dst.segment_view(1)[:4], [4.0, 3.0, 2.0, 1.0])

    def test_pure_notify(self, world2):
        self._setup(world2)
        world2.runtime(0).notify(1, 1, 3, 2)
        world2.runtime(0).wait(0)
        assert world2.runtime(1).notify_peek(1, 3) == 2

    def test_notify_reset_via_runtime(self, world2):
        self._setup(world2)
        world2.runtime(0).notify(1, 1, 3, 2)
        world2.runtime(0).wait(0)
        assert world2.runtime(1).notify_reset(1, 3) == 2
        assert world2.runtime(1).notify_reset(1, 3) == 0

    def test_notify_waitsome_timeout(self, world2):
        self._setup(world2)
        assert world2.runtime(0).notify_waitsome(1, 0, 4, timeout=0.01) is None

    def test_invalid_target_rank(self, world2):
        self._setup(world2)
        with pytest.raises(GaspiInvalidArgumentError):
            world2.runtime(0).write(1, 0, 7, 1, 0, 8)

    def test_write_to_missing_remote_segment(self, world2):
        world2.runtime(0).segment_create(1, 8)
        with pytest.raises(GaspiSegmentError):
            world2.runtime(0).write(1, 0, 1, 1, 0, 8)

    def test_stats_collected(self, world2):
        self._setup(world2)
        rt = world2.runtime(0)
        rt.write_notify(1, 0, 1, 1, 0, 16, notification_id=0)
        rt.wait(0)
        assert world2.stats[0].messages_sent == 1
        assert world2.stats[0].bytes_sent == 16
        assert world2.stats[0].notifications_sent == 1
        assert world2.stats[0].by_peer[1] == 16


class TestSegmentRead:
    def test_segment_read_returns_copy(self, world2):
        world2.runtime(0).segment_create(1, 32)
        view = world2.runtime(0).segment_view(1)
        view[:] = [1.0, 2.0, 3.0, 4.0]
        snap = world2.runtime(0).segment_read(1)
        view[:] = 0.0
        assert np.array_equal(snap, [1.0, 2.0, 3.0, 4.0])

    def test_segment_read_offset_count(self, world2):
        world2.runtime(0).segment_create(1, 64)
        world2.runtime(0).segment_view(1)[:] = np.arange(8.0)
        snap = world2.runtime(0).segment_read(1, offset=16, count=3)
        assert np.array_equal(snap, [2.0, 3.0, 4.0])


class TestBarrierAndAtomics:
    def test_barrier_synchronises_all_ranks(self, world4):
        order = []
        lock = threading.Lock()

        def worker(rank):
            rt = world4.runtime(rank)
            with lock:
                order.append(("before", rank))
            rt.barrier()
            with lock:
                order.append(("after", rank))

        threads = [threading.Thread(target=worker, args=(r,)) for r in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        befores = [i for i, (phase, _r) in enumerate(order) if phase == "before"]
        afters = [i for i, (phase, _r) in enumerate(order) if phase == "after"]
        assert max(befores) < min(afters)

    def test_barrier_on_foreign_group_rejected(self, world4):
        from repro.gaspi import Group

        with pytest.raises(GaspiInvalidArgumentError):
            world4.runtime(3).barrier(Group([0, 1]))

    def test_atomic_fetch_add(self, world2):
        world2.runtime(1).segment_create(2, 16)
        rt = world2.runtime(0)
        old = rt.atomic_fetch_add(2, 0, 1, 5)
        assert old == 0
        old = rt.atomic_fetch_add(2, 0, 1, 3)
        assert old == 5
        assert int(world2.runtime(1).segment_view(2, np.int64, count=1)[0]) == 8

    def test_queue_wait_after_async_delivery(self, async_world4):
        for r in range(async_world4.size):
            async_world4.runtime(r).segment_create(1, 64)
        rt = async_world4.runtime(0)
        for i in range(8):
            rt.write_notify(1, 0, 1, 1, 0, 8, notification_id=i)
        rt.wait(0, timeout=GASPI_BLOCK)
        assert async_world4.queue_of(0, 0).outstanding == 0


class TestWorldConfig:
    def test_invalid_delivery_mode(self):
        with pytest.raises(GaspiInvalidArgumentError):
            WorldConfig(delivery="bogus")

    def test_invalid_world_size(self):
        with pytest.raises(GaspiInvalidArgumentError):
            ThreadedWorld(0)

    def test_context_manager_closes(self):
        with ThreadedWorld(2) as world:
            assert world.size == 2
        # close() is idempotent
        world.close()


# --------------------------------------------------------------------------- #
# one delivery, two modes
# --------------------------------------------------------------------------- #
SEG, SEG_BYTES, SLOTS = 3, 64, 8


@pytest.fixture(params=["immediate", "async"])
def delivery_world(request):
    """A 2-rank world per delivery mode, segment ``SEG`` on both ranks."""
    world = ThreadedWorld(2, WorldConfig(delivery=request.param, queue_count=2))
    for rank in range(2):
        world.runtime(rank).segment_create(SEG, SEG_BYTES, SLOTS)
    world.runtime(0).segment_view(SEG, np.uint8)[:] = np.arange(SEG_BYTES)
    yield world
    world.close()


def _observable(world):
    """Everything a post may change, as plain values."""
    target = world.get_segment(1, SEG)
    board = target.notifications
    return {
        "bytes": target.buffer.tolist(),
        "bytes_written": target.bytes_written,
        "notifications": {nid: board.peek(nid) for nid in board.pending_ids()},
        "posted_count": board.posted_count,
        "stats": dataclasses.asdict(world.stats[0]),
        "posted_total": [world.queue_of(0, q).posted_total for q in range(2)],
        "outstanding": [world.queue_of(0, q).outstanding for q in range(2)],
    }


#: A valid call of each of the four posts, by keyword.
_REMOTE = dict(target_rank=1, segment_id_remote=SEG, queue=0)
_LOCAL = dict(segment_id_local=SEG, offset_local=0, size=8)
_NOTIFY = dict(notification_id=5, notification_value=7)
POSTS = {
    "write": dict(_REMOTE, offset_remote=8, **_LOCAL),
    "notify": dict(_REMOTE, **_NOTIFY),
    "write_notify": dict(_REMOTE, offset_remote=8, **_LOCAL, **_NOTIFY),
    "write_notify_from": dict(_REMOTE, offset_remote=8, source=np.ones(1), **_NOTIFY),
}

#: One defect each, and what the parent commit raised for it (a bad queue id
#: on a post was, and is, the queue table's bare KeyError; ``wait`` names it).
REJECTED = {
    "target": (GaspiInvalidArgumentError, dict(target_rank=2)),
    "queue": (KeyError, dict(queue=2)),
    "segment": (GaspiSegmentError, dict(segment_id_remote=9)),
    "offset-range": (GaspiSegmentError, dict(offset_remote=SEG_BYTES - 4)),
    "negative-offset": (GaspiSegmentError, dict(offset_remote=-1)),
    "notification-id": (GaspiInvalidArgumentError, dict(notification_id=SLOTS)),
    "negative-id": (GaspiInvalidArgumentError, dict(notification_id=-1)),
    "value": (GaspiInvalidArgumentError, dict(notification_value=0)),
    "negative-value": (GaspiInvalidArgumentError, dict(notification_value=-3)),
}


class TestDelivery:
    def test_a_mixed_sequence_of_the_four_posts_lands_the_same(self, delivery_world):
        rt = delivery_world.runtime(0)
        caller = np.arange(100, 108, dtype=np.uint8)
        rt.write(SEG, 8, 1, SEG, 0, 8)
        rt.notify(1, SEG, 1, 11, queue=1)
        rt.write_notify(SEG, 32, 1, SEG, 16, 4, notification_id=2, notification_value=22)
        rt.write_notify_from(caller.view(np.float64), 1, SEG, 40, 3, 33, queue=1)
        rt.write_notify(SEG, 0, 1, SEG, 64, 0, notification_id=4)  # empty: only notifies
        rt.notify(1, SEG, 1, 12)  # a slot posted twice keeps the later value
        rt.wait(0)
        rt.wait(1)

        expected = np.zeros(SEG_BYTES, dtype=np.uint8)
        expected[0:8] = np.arange(8, 16)
        expected[16:20] = np.arange(32, 36)
        expected[40:48] = caller
        assert _observable(delivery_world) == {
            "bytes": expected.tolist(),
            "bytes_written": 20,
            "notifications": {1: 12, 2: 22, 3: 33, 4: 1},
            "posted_count": 5,
            "stats": {
                "messages_sent": 6,
                "bytes_sent": 20,
                "notifications_sent": 5,
                "barriers": 0,
                "by_peer": {1: 20},
            },
            "posted_total": [4, 2],
            "outstanding": [0, 0],
        }

    @pytest.mark.parametrize(
        "post, defect",
        [(post, defect) for post in sorted(POSTS) for defect in sorted(REJECTED)
         if set(REJECTED[defect][1]) <= set(POSTS[post])],
    )  # fmt: skip
    def test_a_rejected_post_raises_in_the_poster_and_changes_nothing(
        self, delivery_world, post, defect
    ):
        error, bad = REJECTED[defect]
        good = POSTS[post]
        rt = delivery_world.runtime(0)
        before = _observable(delivery_world)
        with pytest.raises(error):
            getattr(rt, post)(**{**good, **bad})
        rt.wait(0)
        assert _observable(delivery_world) == before
        getattr(rt, post)(**good)  # the same post without the defect goes through
        rt.wait(0)
        assert _observable(delivery_world) != before

    def test_a_non_contiguous_source_is_rejected_and_changes_nothing(self, delivery_world):
        rt = delivery_world.runtime(0)
        before = _observable(delivery_world)
        with pytest.raises(GaspiInvalidArgumentError):
            rt.write_notify_from(np.arange(16.0)[::2], 1, SEG, 0, 5)
        rt.wait(0)
        assert _observable(delivery_world) == before

    def test_a_bad_local_range_is_rejected_and_changes_nothing(self, delivery_world):
        rt = delivery_world.runtime(0)
        before = _observable(delivery_world)
        for post, extra in (("write", ()), ("write_notify", (5,))):
            with pytest.raises(GaspiSegmentError):
                getattr(rt, post)(SEG, SEG_BYTES - 4, 1, SEG, 0, 8, *extra)
            with pytest.raises(GaspiSegmentError):
                getattr(rt, post)(9, 0, 1, SEG, 0, 8, *extra)
        rt.wait(0)
        assert _observable(delivery_world) == before

    def test_lookup_of_a_missing_segment_names_it(self, delivery_world):
        with pytest.raises(GaspiSegmentError, match="rank 1 has no segment with id 9"):
            delivery_world.get_segment(1, 9)
        rt = delivery_world.runtime(1)
        for lookup in (rt.segment_size, rt.segment_view, rt.notify_waitsome, rt.notify_probe):
            with pytest.raises(GaspiSegmentError):
                lookup(9)
        with pytest.raises(GaspiSegmentError):
            rt.notify_reset(9, 0)


class TestAsyncDelivery:
    DELAY = 0.05

    @pytest.fixture
    def slow_world(self):
        world = ThreadedWorld(2, WorldConfig(delivery="async", delivery_delay=self.DELAY))
        for rank in range(2):
            world.runtime(rank).segment_create(SEG, SEG_BYTES, SLOTS)
        yield world
        world.close()

    def test_wait_blocks_until_the_post_is_applied(self, slow_world):
        src, dst = slow_world.runtime(0), slow_world.runtime(1)
        src.segment_view(SEG, np.uint8)[:8] = 5
        start = time.monotonic()
        src.write_notify(SEG, 0, 1, SEG, 8, 8, notification_id=2)
        queue = slow_world.queue_of(0, 0)
        # Posted, counted and accounted for — not yet delivered.
        assert (queue.outstanding, queue.posted_total) == (1, 1)
        assert slow_world.stats[0].messages_sent == 1
        assert dst.notify_peek(SEG, 2) == 0
        assert not dst.segment_view(SEG, np.uint8).any()
        with pytest.raises(GaspiTimeoutError):
            src.wait(0, timeout=0.0)
        src.wait(0)
        assert time.monotonic() - start >= self.DELAY
        assert queue.outstanding == 0
        assert dst.notify_peek(SEG, 2) == 1
        assert dst.segment_view(SEG, np.uint8)[8:16].tolist() == [5] * 8

    def test_data_is_visible_before_its_notification(self, slow_world, monkeypatch):
        order = []
        segment = slow_world.get_segment(1, SEG)
        write_bytes, store = segment.write_bytes, segment.notifications.store
        monkeypatch.setattr(
            segment, "write_bytes", lambda *a: (order.append("data"), write_bytes(*a))
        )
        monkeypatch.setattr(
            segment.notifications,
            "store",
            lambda *a: (order.append("notification"), store(*a)),
        )
        src, dst = slow_world.runtime(0), slow_world.runtime(1)
        payload = np.full(4, 2.5)
        for call in range(1, 4):
            src.write_notify_from(payload * call, 1, SEG, 0, 1, notification_value=call)
            assert dst.notify_waitsome(SEG, 1, 1, timeout=5.0) == 1
            # The GASPI guarantee, seen from the receiver ...
            assert dst.segment_view(SEG, np.float64, count=4).tolist() == [2.5 * call] * 4
            assert dst.notify_reset(SEG, 1) == call
            src.wait(0)
        # ... and in the delivery thread's own order of events.
        assert order == ["data", "notification"] * 3
