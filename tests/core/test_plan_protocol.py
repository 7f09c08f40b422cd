"""One executor protocol: every plan is a generator run from ``CollectivePlan``.

The base class owns ``begin()`` and ``execute()``; a plan contributes only
``_run``.  These tests hold that structure — no plan grows a second
executor, the verifier keeps no copy of a protocol — and the one rule it
buys: every blocking plan wait is bounded and names what it waited for.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.analysis import build_model
from repro.analysis import model as analysis_model
from repro.core.plan import CollectivePlan, PlanKey, policy_fingerprint
from repro.core.policy import CollectiveRequest, ConsistencyPolicy
from repro.core.registry import REGISTRY

from tests.helpers import spmd

PLANNABLE = sorted(info.name for info in REGISTRY.items() if info.plannable)
SEGMENT = 31


def test_every_plannable_algorithm_is_covered():
    assert len(PLANNABLE) >= 8  # an empty parametrization would pass silently


@pytest.mark.parametrize("algorithm", PLANNABLE)
def test_plans_implement_only_the_generator(algorithm):
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
    [pytest.param(name, 0, id=name) for name in PLANNABLE]
    + [pytest.param("gaspi_allreduce_ssp_hypercube", 2, id="hypercube-slack2")],
)
def test_a_peer_that_never_enters_is_a_named_timeout(algorithm, slack, ranks, monkeypatch):
    # One rank sits out the calls after call 0 — under slack, the others
    # run ``slack`` calls past it before one needs its data.  Whoever waits
    # on it blocks under the request's default (GASPI_BLOCK) timeout and
    # still comes back: the plan bound turns the wait into a TimeoutError
    # naming the starved slot.
    monkeypatch.setattr("repro.core.plan.PLAN_WAIT_TIMEOUT", 0.05)
    info = REGISTRY.get(algorithm)
    policy = ConsistencyPolicy.ssp(slack)
    # Nobody receives without the broadcast's root; a reduction is short of
    # its last rank's contribution.
    absent = 0 if info.collective == "bcast" else ranks - 1

    def worker(rt):
        key = PlanKey(
            collective=info.collective,
            algorithm=algorithm,
            size=ranks,
            root=0,
            nbytes=512,
            dtype="<f8",
            op="sum",
            policy=policy_fingerprint(policy),
        )
        plan = info.plan(rt, key, SEGMENT, policy)

        def call():
            request = CollectiveRequest(
                info.collective, sendbuf=np.ones(64), recvbuf=np.empty(64), policy=policy
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
