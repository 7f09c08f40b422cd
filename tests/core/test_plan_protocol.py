"""One executor protocol: every plan is a generator run from ``CollectivePlan``.

The base class owns ``begin()`` and ``execute()``; a plan contributes only
``_run``.  These tests hold that structure — no plan grows a second
executor, the verifier keeps no copy of a protocol — and the one rule it
buys: every blocking plan wait is bounded and names what it waited for.
"""

from __future__ import annotations

import multiprocessing
import time

import numpy as np
import pytest

from repro import Communicator, run_backend
from repro.analysis import build_model, build_tolerant_model
from repro.analysis import model as analysis_model
from repro.core import plan as plan_module
from repro.core.plan import CollectivePlan, PlanKey, policy_fingerprint
from repro.core.policy import CollectiveRequest, ConsistencyPolicy
from repro.core.registry import REGISTRY
from repro.core.workspace import RETIRE_BATCH
from repro.gaspi.runtime import RuntimeWrapper

from tests.helpers import spmd

PLANNABLE = sorted(info.name for info in REGISTRY.items() if info.plannable)
GASPI = sorted(info.name for info in REGISTRY.items() if info.family == "gaspi")
SEGMENT = 31


def test_every_plannable_algorithm_is_covered():
    assert len(PLANNABLE) >= 11  # an empty parametrization would pass silently


@pytest.mark.parametrize("algorithm", GASPI)
def test_plans_implement_only_the_generator(algorithm):
    if REGISTRY.get(algorithm).capabilities.fault_tolerant:
        plan_class = type(build_tolerant_model(algorithm, 2).plans[0])
    else:
        plan_class = type(build_model(algorithm, 2, calls=0).plans[0])
    for cls in plan_class.__mro__:
        if cls is CollectivePlan:
            break
        assert not {"execute", "begin"} & set(vars(cls)), cls.__name__
    assert plan_class.execute is CollectivePlan.execute
    assert plan_class.begin is CollectivePlan.begin


def test_flat_broadcast_has_no_protocol_of_its_own():
    from repro.core.bcast import BstBcastPlan, FlatBcastPlan

    assert FlatBcastPlan._run is BstBcastPlan._run


def test_the_model_keeps_no_copy_of_a_protocol():
    assert not [name for name in dir(analysis_model) if name.startswith("_emit")]


@pytest.mark.parametrize("ranks", [2, 4])
@pytest.mark.parametrize(
    "algorithm,slack",
    [pytest.param(name, 0, id=name) for name in GASPI]
    + [pytest.param("gaspi_allreduce_ssp_hypercube", 2, id="hypercube-slack2")],
)
def test_a_peer_that_never_enters_is_a_named_timeout(algorithm, slack, ranks, monkeypatch):
    # One rank sits out the calls after call 0 — under slack, the others
    # run ``slack`` calls past it before one needs its data.  Whoever waits
    # on it blocks under the request's default (GASPI_BLOCK) timeout and
    # still comes back: the plan bound turns the wait into a TimeoutError
    # naming the starved slot.  A fault-tolerant plan's wait is a window
    # instead: the call completes degraded and names the absent rank.
    monkeypatch.setattr("repro.core.plan.PLAN_WAIT_TIMEOUT", 0.05)
    info = REGISTRY.get(algorithm)
    if info.capabilities.fault_tolerant:
        return _a_peer_that_never_enters_is_named_missing(info, ranks)
    policy = ConsistencyPolicy.ssp(slack)
    # Nobody receives without the broadcast's root; everybody else is short
    # of the last rank's contribution (or, at a barrier, of its entry).
    absent = 0 if info.collective == "bcast" else ranks - 1
    # (send, receive) elements of one call: each collective its own shape.
    send, receive = {
        "barrier": (0, 0),
        "allgather": (64, 64 * ranks),
        "alltoall": (16 * ranks, 16 * ranks),
    }.get(info.collective, (64, 64))

    def worker(rt):
        key = PlanKey(
            collective=info.collective,
            algorithm=algorithm,
            size=ranks,
            root=0,
            nbytes=8 * send,
            dtype="<f8",
            op="sum",
            policy=policy_fingerprint(policy),
        )
        plan = info.plan(rt, key, SEGMENT, policy)

        def call():
            request = CollectiveRequest(
                info.collective,
                sendbuf=np.ones(send) if send else None,
                recvbuf=np.empty(receive) if receive else None,
                policy=policy,
            )
            plan.execute(request)

        call()  # call 0: everybody
        outcome = None
        if rt.rank != absent:
            started = time.perf_counter()
            try:
                for _ in range(slack + 1):
                    call()
            except TimeoutError as exc:
                outcome = str(exc), time.perf_counter() - started, plan.segment_id
        rt.barrier()
        plan.close()
        return outcome

    outcomes = spmd(ranks, worker)
    assert outcomes[absent] is None and any(outcomes)
    for rank, outcome in enumerate(outcomes):
        if outcome is not None:
            message, elapsed, segment_id = outcome
            assert elapsed < 1.0
            assert message.startswith(f"rank {rank}: waited longer than 0.05s")
            assert "notifications [" in message
            assert message.endswith(f"on segment {segment_id}")


def _a_peer_that_never_enters_is_named_missing(info, ranks):
    policy = ConsistencyPolicy.process_threshold(0.5, on_failure="complete")
    absent = 0 if info.collective == "bcast" else ranks - 1
    window = 0.2

    def worker(rt):
        key = PlanKey(
            collective=info.collective, algorithm=info.name, size=ranks, root=0,
            nbytes=8 * 64, dtype="<f8", op="sum", policy=policy_fingerprint(policy),
        )  # fmt: skip

        def call():  # never cached: a plan per call
            request = CollectiveRequest(
                info.collective, sendbuf=np.ones(64), policy=policy,
                metadata={"detect_timeout": window},
            )  # fmt: skip
            return info.planner(rt, key, SEGMENT, policy).execute(request).missing_ranks

        outcomes = [call()]  # call 0: everybody
        if rt.rank != absent:
            started = time.perf_counter()
            outcomes.append(call())
            outcomes.append(time.perf_counter() - started)
        return outcomes

    outcomes = spmd(ranks, worker)
    assert outcomes[absent] == [()]
    named = [o for o in outcomes if len(o) == 3 and o[1]]
    assert named and all(o[1] == (absent,) and o[2] < 4 * window for o in named)


class _ExpiredWaits(RuntimeWrapper):
    """Counts the ``notify_waitsome`` calls that came back empty."""

    expired = 0

    def notify_waitsome(self, *args, **kwargs):
        got = self.inner.notify_waitsome(*args, **kwargs)
        self.expired += got is None
        return got


@pytest.mark.parametrize("algorithm", ["ring", "hypercube"])
def test_a_cached_plan_times_out_after_one_bound(algorithm, monkeypatch):
    # The plan waits inline for the bound, and drive_pipeline, which it
    # yields to, raises at once: one expired wait per failed call, not two bounds.
    monkeypatch.setattr("repro.core.plan.PLAN_WAIT_TIMEOUT", 0.05)

    def worker(rt):
        counted = _ExpiredWaits(rt)
        comm = Communicator(counted)
        x = np.ones(64)
        comm.allreduce(x, algorithm=algorithm)
        comm.allreduce(x, algorithm=algorithm)  # a cache hit from here on
        outcome = None
        if rt.rank == 0:
            before = counted.expired
            for _ in range(3):
                with pytest.raises(TimeoutError, match="waited longer than 0.05s"):
                    comm.allreduce(x, algorithm=algorithm)
            outcome = counted.expired - before
        rt.barrier()
        comm.suspect(1 - rt.rank)
        comm.close()
        return outcome

    assert spmd(2, worker)[0] == 3


def _silent_peer(rt, call, done):
    """Everybody warms ``call`` up; then the last rank stays silent through
    one more call.  It still registers an alltoallv's workspace, so the
    others wait for its offsets, not for the workspace's barrier."""
    comm = Communicator(rt)
    size, silent = rt.size, rt.size - 1
    x = np.ones(4 * size)

    def once():
        if call == "alltoall":
            comm.alltoall(x)
        else:
            comm.alltoallv(x, [4] * size, [4] * size)

    # Past two batches of releases: a cold call's lease is a pool hit then.
    for _ in range(2 * RETIRE_BATCH + 1):
        once()
    bound = plan_module.PLAN_WAIT_TIMEOUT
    outcome = None
    if rt.rank == silent:
        if call == "alltoallv":  # registers the exact workspace, posts nothing
            comm._pool.lease(8 * size, 2 * size, exact=True)
        for _ in range(size - 1):
            done.acquire(timeout=5.0)
    else:
        started = time.perf_counter()
        try:
            once()
        except TimeoutError as exc:
            outcome = str(exc), time.perf_counter() - started
        comm.suspect(silent)
        done.release()
    comm.close()
    return outcome, bound


@pytest.mark.parametrize("backend", ["threaded", "shm"])
@pytest.mark.parametrize("call", ["alltoall", "alltoallv"])
def test_a_silent_peer_fails_an_exchange_with_a_named_timeout(call, backend, monkeypatch):
    monkeypatch.setattr("repro.core.plan.PLAN_WAIT_TIMEOUT", 0.05)
    results = run_backend(
        3, _silent_peer, call, multiprocessing.Semaphore(0), backend=backend, timeout=30
    )
    assert results[-1] == (None, 0.05)
    for rank, (outcome, bound) in enumerate(results[:-1]):
        assert bound == 0.05 and outcome is not None
        message, elapsed = outcome
        assert elapsed < 1.0
        assert message.startswith(f"rank {rank}: waited longer than 0.05s for alltoall")
        assert "ranks [2]" in message
