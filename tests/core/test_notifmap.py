"""Centralised notification-id budgeting (:mod:`repro.core.notifmap`)."""

from __future__ import annotations

import pytest

from repro.core.allreduce_ring import ring_notification_layout
from repro.core.notifmap import NotificationLayout, NotifRange


class TestNotificationLayout:
    def test_ranges_are_contiguous_and_disjoint(self):
        layout = NotificationLayout()
        ready = layout.add("ready", 64)
        data = layout.add("data", 128)
        ack = layout.add("ack", 1)
        assert (ready.base, ready.end) == (0, 64)
        assert (data.base, data.end) == (64, 192)
        assert (ack.base, ack.end) == (192, 193)
        assert layout.used == 193
        assert layout["data"] is data

    def test_id_resolves_and_bounds_checks(self):
        rng = NotifRange("data", base=10, count=4)
        assert rng.id() == 10
        assert rng.id(3) == 13
        with pytest.raises(ValueError):
            rng.id(4)
        with pytest.raises(ValueError):
            rng.id(-1)

    def test_budget_exhaustion_raises_at_layout_time(self):
        layout = NotificationLayout(budget=100)
        layout.add("a", 90)
        with pytest.raises(ValueError, match="budget exhausted"):
            layout.add("b", 11)
        # a fitting range still works
        assert layout.add("c", 10).base == 90

    def test_duplicate_names_rejected(self):
        layout = NotificationLayout()
        layout.add("data", 1)
        with pytest.raises(ValueError, match="already allocated"):
            layout.add("data", 1)

    def test_deterministic_across_instances(self):
        a = NotificationLayout()
        b = NotificationLayout()
        for name, count in (("ready", 8), ("data", 32)):
            assert a.add(name, count) == b.add(name, count)


class TestSharedModuleLayouts:
    def test_bcast_layout_matches_historical_ids(self):
        from repro.core import bcast

        assert bcast._NOTIF_DATA == 0
        assert bcast._NOTIF_ACK_BASE == 1

    def test_reduce_layout_is_child_slots_then_the_credit(self):
        from repro.core import reduce

        assert reduce._NOTIF_DATA_BASE == 0
        assert reduce._NOTIF_CREDIT == 64
        assert reduce.REDUCE_LAYOUT.used == 65

    def test_ring_layout_is_the_step_index(self):
        steps = ring_notification_layout(6)
        assert steps.base == 0
        assert [steps.id(i) for i in range(6)] == list(range(6))
