"""The ``RuntimeWrapper`` contract: one class forwards, wrappers are their delta."""

from __future__ import annotations

import importlib
import inspect
import itertools
import pkgutil

import pytest

import repro
from repro.analysis.events import CONSUME
from repro.analysis.model import ModelTracingRuntime, ModelWorld
from repro.analysis.tracing import TraceSink, TracingRuntime
from repro.faults import FaultPlan, FaultyRuntime, RankCrashedError
from repro.gaspi import Group, GroupRuntime, ShmRuntime, ThreadedRuntime
from repro.gaspi.runtime import GaspiRuntime, RuntimeWrapper
from repro.telemetry import Telemetry
from repro.telemetry.runtime import TelemetryRuntime

#: The operation table, derived from the ABC rather than listed a second
#: time: every public function but the three that build or walk the stack.
OPERATIONS = sorted(
    name
    for name, _ in inspect.getmembers(GaspiRuntime, inspect.isfunction)
    if not name.startswith("_") and name not in {"traced", "instrumented", "layers"}
)
#: Likewise the discovery properties; ``group_all`` is computed from ``size``.
PROPERTIES = sorted(
    name
    for name, _ in inspect.getmembers(GaspiRuntime, lambda m: isinstance(m, property))
    if name != "group_all"
)

REFUSED_WHEN_CRASHED = {
    "write", "notify", "write_notify", "write_notify_from", "segment_create",
    "segment_bind", "notify_waitsome", "notify_probe", "notify_drain", "wait",
    "barrier", "atomic_fetch_add",
}  # fmt: skip


class Recorder:
    """Duck-typed innermost runtime that logs every call made to it.

    Over a ``real`` runtime it answers with that runtime's results; alone
    it answers any operation with a token naming it, so arguments can be
    arbitrary sentinels.
    """

    fault_injected, telemetry, supports_bind = False, None, True

    def __init__(self, real=None, rank=0, size=2):
        self.real, self.rank, self.size, self.calls = real, rank, size, []

    def __getattr__(self, name):
        def operation(*args, **kwargs):
            self.calls.append((name, args, kwargs))
            if self.real is None:
                return f"{name}-result"
            return getattr(self.real, name)(*args, **kwargs)

        return operation

    def names(self):
        return [name for name, _, _ in self.calls]

    def bound(self):
        """The logged calls as ``(operation, {parameter: argument})``."""
        return [(name, bind(name, *args, **kwargs)) for name, args, kwargs in self.calls]


def bind(operation, *args, **kwargs):
    signature = inspect.signature(getattr(GaspiRuntime, operation))
    return dict(signature.bind(None, *args, **kwargs).arguments, self=None)


def sentinels(operation):
    """One distinct argument per parameter of ``operation`` (``self`` aside)."""
    names = list(inspect.signature(getattr(GaspiRuntime, operation)).parameters)[1:]
    return {name: object() for name in names}


def pending_ids(world, segment_id, ids):
    """Rank 0 owns ``segment_id``; rank 1 has notified ``ids`` on it."""
    receiver, sender = world.runtime(0), world.runtime(1)
    receiver.segment_create(segment_id, 64)
    for nid in ids:
        sender.notify(0, segment_id, nid, nid + 1)
    sender.wait(0)
    return receiver


class TestForwardingBase:
    def test_table_covers_the_abc(self):
        # A primitive added to GaspiRuntime but not forwarded fails here.
        assert sorted(RuntimeWrapper.FORWARDED) == OPERATIONS
        for name in PROPERTIES:
            assert isinstance(vars(RuntimeWrapper).get(name), property), name

    @pytest.mark.parametrize("operation", OPERATIONS)
    def test_bare_subclass_is_transparent(self, operation):
        class Bare(RuntimeWrapper):
            pass

        inner = Recorder()
        wrapper = Bare(Bare(inner))  # any depth
        given = sentinels(operation)
        call_forms = [
            lambda: getattr(wrapper, operation)(*given.values()),
            lambda: getattr(wrapper, operation)(**given),
            # What super().<operation>(...) reaches from an override.
            lambda: getattr(RuntimeWrapper, operation)(wrapper, *given.values()),
        ]
        for call in call_forms:
            del inner.calls[:]
            assert call() == f"{operation}-result"
            assert inner.bound() == [(operation, dict(given, self=None))]

    def test_discovery_properties_are_the_inner_runtimes(self):
        inner = Recorder(rank=3, size=5)
        inner.telemetry, inner.fault_injected, inner.supports_bind = object(), True, False
        wrapper = RuntimeWrapper(RuntimeWrapper(inner))
        for name in PROPERTIES:
            assert getattr(wrapper, name) is getattr(inner, name), name

    def test_every_runtime_is_concrete_or_a_wrapper(self):
        for module in pkgutil.walk_packages(repro.__path__, "repro."):
            if not module.name.endswith("__main__"):
                importlib.import_module(module.name)
        todo, seen = [GaspiRuntime], set()
        while todo:
            for cls in todo.pop().__subclasses__():
                if cls not in seen and cls.__module__.startswith("repro."):
                    seen.add(cls)
                    todo.append(cls)
        concrete = {ThreadedRuntime, ShmRuntime}
        assert concrete <= seen
        hand_forwarded = {
            cls for cls in seen - concrete if not issubclass(cls, RuntimeWrapper)
        }
        assert not hand_forwarded


class TestStackingOrders:
    @pytest.mark.parametrize(
        "order",
        itertools.permutations(["faults", "telemetry", "tracing", "group"]),
        ids="-".join,
    )
    @pytest.mark.parametrize("concrete", ["threaded", "model"])
    def test_discovery_and_layers_in_any_order(self, order, concrete, world2):
        telemetry, plan = Telemetry(rank=0), FaultPlan.single_crash(1, at_op=10**6)
        build = {
            "faults": (FaultyRuntime, plan),
            "telemetry": (TelemetryRuntime, telemetry),
            "tracing": (TracingRuntime, TraceSink(2)),
            "group": (GroupRuntime, [0, 1]),
        }
        # The verifier's runtime is a tracing layer over a ThreadedRuntime
        # that reports no bind support whatever is stacked on top of it.
        bottom = world2.runtime(0) if concrete == "threaded" else ModelWorld(2).runtimes[0]
        runtime = bottom
        for kind in order:  # innermost first
            wrapper, argument = build[kind]
            runtime = wrapper(runtime, argument)
        assert runtime.telemetry is telemetry
        assert runtime.fault_injected is plan.can_lose_contributions is True
        assert runtime.supports_bind is bottom.supports_bind is (concrete == "threaded")
        layers = list(runtime.layers())
        assert [type(layer) for layer in layers[: len(order)]] == [
            build[kind][0] for kind in reversed(order)
        ]
        assert layers[0] is runtime and layers[len(order)] is bottom
        assert type(layers[-1]) is ThreadedRuntime
        if concrete == "model":
            assert isinstance(bottom, ModelTracingRuntime)
            assert layers[-2:] == [bottom, bottom.inner]
        assert (runtime.rank, runtime.size) == (0, 2)


class TestWrapperDeltas:
    def test_faulty_drain_and_probe_take_the_inner_path(self, world2):
        inner = Recorder(pending_ids(world2, 7, range(5)))
        faulty = FaultyRuntime(inner, FaultPlan())
        assert faulty.notify_probe(7, 0, 8) is True
        assert faulty.notify_drain(7, 0, 8) == {nid: nid + 1 for nid in range(5)}
        assert faulty.notify_probe(7, 0, 8) is False
        assert inner.names() == ["notify_probe", "notify_drain", "notify_probe"]

    def test_crashed_rank_refuses_control_plane_and_serves_post_mortem_reads(self):
        inner = Recorder()
        faulty = FaultyRuntime(inner, FaultPlan.single_crash(0, at_op=0))
        with pytest.raises(RankCrashedError):
            faulty.notify(1, 7, 0)
        assert faulty.is_crashed and inner.calls == []
        refused = set()
        for operation in OPERATIONS:
            try:
                getattr(faulty, operation)(**sentinels(operation))
            except RankCrashedError:
                refused.add(operation)
        assert refused == REFUSED_WHEN_CRASHED
        assert inner.names() == [op for op in OPERATIONS if op not in refused]

    def test_tracing_drain_observes_every_consume(self, world2):
        sink = TraceSink(2)
        traced = TracingRuntime(pending_ids(world2, 7, [1, 3, 4]), sink)
        assert traced.notify_drain(7, 0, 8) == {1: 2, 3: 4, 4: 5}
        consumed = [(e.notif_id, e.value) for e in sink.events[0] if e.kind == CONSUME]
        assert sorted(consumed) == [(1, 2), (3, 4), (4, 5)]

    @pytest.mark.parametrize("operation", OPERATIONS)
    def test_group_translates_target_rank_and_group_only(self, operation):
        inner = Recorder(rank=2, size=4)
        group = GroupRuntime(inner, [3, 2, 0])
        assert (group.rank, group.size) == (1, 3)
        given = expected = sentinels(operation)
        if "target_rank" in given:
            given, expected = dict(given, target_rank=0), dict(given, target_rank=3)
        if "group" in given:
            given, expected = dict(given, group=Group([0, 2])), dict(given, group=Group([0, 3]))
        getattr(group, operation)(**given)
        assert inner.bound() == [(operation, dict(expected, self=None))]

    def test_group_barrier_defaults_to_its_members(self):
        inner = Recorder(rank=2, size=4)
        GroupRuntime(inner, [3, 2, 0]).barrier()
        assert inner.bound()[0][1]["group"] == Group([0, 2, 3])
