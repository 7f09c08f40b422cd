"""Property-style equivalence: plan-cached and cold paths are bit-identical.

The plan cache is a pure execution optimisation — for every collective,
policy and backend, the compiled plan must deliver exactly the bytes the
cold path delivers, with the same ``last_result`` surface
(``algorithm``, ``missing_ranks``, the per-algorithm status detail).
These tests run each scenario twice per communicator flavour (the second
cached call is the true hot path) and compare everything bitwise.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import Communicator, ConsistencyPolicy, FaultPlan
from repro.simulate import skylake_fdr

from tests.helpers import rank_vector, spmd

#: (collective, algorithm, policy, kwargs) scenarios exercised on both paths.
SCENARIOS = [
    ("bcast", "bst", ConsistencyPolicy.strict(), {}),
    ("bcast", "bst", ConsistencyPolicy.data_threshold(0.25), {}),
    ("bcast", "flat", ConsistencyPolicy.strict(), {}),
    ("bcast", "bst", ConsistencyPolicy.strict(), {"root": 2}),
    ("reduce", "bst", ConsistencyPolicy.strict(), {}),
    ("reduce", "bst", ConsistencyPolicy.data_threshold(0.5), {}),
    ("reduce", "bst", ConsistencyPolicy.process_threshold(0.75), {}),
    ("reduce", "bst", ConsistencyPolicy.strict(), {"op": "max", "root": 1}),
    ("allreduce", "ring", ConsistencyPolicy.strict(), {}),
    ("allreduce", "ring", ConsistencyPolicy.strict(), {"op": "min"}),
    ("allreduce", "hypercube", ConsistencyPolicy.strict(), {}),
    # A strided (non-contiguous) 1-D sendbuf is accepted on both paths.
    ("allreduce", "ring", ConsistencyPolicy.strict(), {"strided": True}),
    ("allreduce", "hypercube", ConsistencyPolicy.strict(), {"strided": True}),
    ("alltoall", "direct", ConsistencyPolicy.strict(), {}),
    ("allgather", "ring", ConsistencyPolicy.strict(), {}),
]


def _allreduce_sendbuf(rank, elements, kwargs):
    if kwargs.get("strided"):
        return rank_vector(rank, 2 * elements)[::2]
    return rank_vector(rank, elements)


def _run_scenario(comm, collective, algorithm, policy, kwargs, elements, calls=2):
    """Run the collective ``calls`` times; return per-call observables."""
    rank = comm.rank
    root = kwargs.get("root", 0)
    op = kwargs.get("op", "sum")
    out = []
    for _ in range(calls):
        if collective == "bcast":
            buffer = (
                rank_vector(99, elements)
                if rank == root
                else np.zeros(elements, dtype=np.float64)
            )
            result = comm.bcast(buffer, root=root, policy=policy, algorithm=algorithm)
            payload = buffer
            detail_fields = (result.elements_received, result.stage)
        elif collective == "reduce":
            recvbuf = np.zeros(elements) if rank == root else None
            result = comm.reduce(
                rank_vector(rank, elements),
                recvbuf=recvbuf,
                root=root,
                op=op,
                policy=policy,
                algorithm=algorithm,
            )
            payload = np.zeros(0) if recvbuf is None else recvbuf
            detail_fields = (
                result.participated,
                result.elements_reduced,
                result.contributors,
            )
        elif collective == "alltoall":
            # ``elements`` per peer; block j of rank r carries 1000 r + j.
            sendbuf = np.repeat(1000.0 * rank + np.arange(comm.size), elements)
            sendbuf += np.tile(np.arange(elements) / elements, comm.size)
            comm.alltoall(sendbuf, algorithm=algorithm)
            result = comm.last_result
            payload = result.value
            detail_fields = ()
        elif collective == "allgather":
            comm.allgather(rank_vector(rank, elements), algorithm=algorithm)
            result = comm.last_result
            payload = result.value
            detail_fields = ()
        else:  # allreduce
            comm.allreduce(
                _allreduce_sendbuf(rank, elements, kwargs),
                op=op,
                policy=policy,
                algorithm=algorithm,
            )
            result = comm.last_result
            payload = result.value
            detail_fields = ()
        out.append(
            {
                "bytes": payload.tobytes(),
                "algorithm": result.algorithm,
                "missing": tuple(result.missing_ranks),
                "detail": detail_fields,
            }
        )
    return out


@pytest.mark.parametrize("ranks", [4, 8])
@pytest.mark.parametrize(
    "collective,algorithm,policy,kwargs",
    SCENARIOS,
    ids=[f"{c}-{a}-{p.describe()}-{sorted(k)}" for c, a, p, k in SCENARIOS],
)
def test_cached_equals_cold_threaded(ranks, collective, algorithm, policy, kwargs):
    elements = 100

    def worker(rt):
        cold = Communicator(rt, plan_cache=0, segment_base=200)
        cached = Communicator(rt, segment_base=10_000)
        cold_calls = _run_scenario(
            cold, collective, algorithm, policy, kwargs, elements
        )
        cached_calls = _run_scenario(
            cached, collective, algorithm, policy, kwargs, elements
        )
        stats = cached.plan_cache_stats()
        cold.close()
        cached.close()
        return cold_calls, cached_calls, (stats.hits, stats.misses)

    for rank, (cold_calls, cached_calls, (hits, misses)) in enumerate(spmd(ranks, worker)):
        assert misses == 1 and hits == 1  # second call ran on the compiled plan
        for cold_call, cached_call in zip(cold_calls, cached_calls):
            assert cached_call["bytes"] == cold_call["bytes"]  # bit-identical
            assert cached_call["algorithm"] == cold_call["algorithm"]
            assert cached_call["missing"] == cold_call["missing"]
            assert cached_call["detail"] == cold_call["detail"]
            if collective == "allreduce":
                fold = {"sum": np.sum, "min": np.min, "max": np.max}[kwargs.get("op", "sum")]
                sends = [_allreduce_sendbuf(r, elements, kwargs) for r in range(ranks)]
                assert np.allclose(np.frombuffer(cached_call["bytes"]), fold(sends, axis=0))
            if collective == "allgather":
                sends = [rank_vector(r, elements) for r in range(ranks)]
                assert cached_call["bytes"] == np.concatenate(sends).tobytes()
        if collective == "alltoall":
            received = np.frombuffer(cached_calls[-1]["bytes"]).reshape(ranks, elements)
            assert np.array_equal(np.floor(received[:, 0]), 1000.0 * np.arange(ranks) + rank)


@pytest.mark.parametrize(
    "collective,algorithm,policy,kwargs",
    [
        ("bcast", "bst", ConsistencyPolicy.data_threshold(0.25), {}),
        ("reduce", "bst", ConsistencyPolicy.process_threshold(0.75), {}),
        ("allreduce", "ring", ConsistencyPolicy.strict(), {}),
        ("allreduce", "hypercube", ConsistencyPolicy.strict(), {}),
        ("alltoall", "direct", ConsistencyPolicy.strict(), {}),
        ("allgather", "ring", ConsistencyPolicy.strict(), {}),
    ],
    ids=["bcast", "reduce", "allreduce-ring", "allreduce-hypercube", "alltoall", "allgather"],
)
def test_cached_equals_cold_on_the_simulator(collective, algorithm, policy, kwargs):
    """The cached schedule must simulate to the cold path's exact time."""
    elements = 64

    def worker(rt):
        machine = skylake_fdr(rt.size)
        cold = Communicator(rt, plan_cache=0, segment_base=200, machine=machine)
        cached = Communicator(rt, segment_base=10_000, machine=machine)
        _run_scenario(cold, collective, algorithm, policy, kwargs, elements)
        cold_sim = cold.last_result.simulated_seconds
        _run_scenario(cached, collective, algorithm, policy, kwargs, elements)
        cached_sim = cached.last_result.simulated_seconds
        values_equal = (
            cached.last_result.value is None
            or cold.last_result.value is None
            or np.array_equal(
                np.asarray(cached.last_result.value),
                np.asarray(cold.last_result.value),
            )
        )
        cold.close()
        cached.close()
        return cold_sim, cached_sim, values_equal

    for cold_sim, cached_sim, values_equal in spmd(4, worker):
        assert cold_sim is not None and cold_sim > 0
        assert cached_sim == cold_sim
        assert values_equal


def test_degraded_paths_are_identical_with_and_without_plan_cache():
    """Loss-capable fault plans bypass planning — results must not change.

    Runs the same crash scenario on a plan-cache-enabled and a disabled
    communicator: identical degraded values, ``missing_ranks`` and zero
    plan-cache activity on the enabled one.
    """
    crash = 3
    policy = ConsistencyPolicy(threshold=0.5, mode="processes", on_failure="complete")

    def run(plan_cache):
        def worker(rt):
            comm = Communicator(
                rt,
                faults=FaultPlan.single_crash(crash, at_op=0),
                detect_timeout=0.3,
                policy=policy,
                plan_cache=plan_cache,
            )
            if rt.rank == crash:
                with pytest.raises(Exception):
                    comm.allreduce(rank_vector(rt.rank, 50))
                comm.close()
                return None
            value = comm.allreduce(rank_vector(rt.rank, 50))
            missing = tuple(comm.last_result.missing_ranks)
            stats = comm.plan_cache_stats()
            comm.close()
            return value.tobytes(), missing, stats.entries

        return spmd(4, worker)

    with_cache = run(16)
    without_cache = run(0)
    for rank, (a, b) in enumerate(zip(with_cache, without_cache)):
        if rank == crash:
            assert a is None and b is None
            continue
        # The degraded value folds contributions in arrival order, which
        # races between independent runs (cold path included) — compare
        # numerically; the structural outcome must match exactly.
        np.testing.assert_allclose(
            np.frombuffer(a[0]), np.frombuffer(b[0]), rtol=1e-12
        )
        assert a[1] == b[1] == (crash,)
        assert a[2] == 0  # the fault plan kept planning disabled
