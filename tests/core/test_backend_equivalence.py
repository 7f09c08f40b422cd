"""Cross-backend equivalence: threaded and shm results are bit-identical.

The :class:`~repro.gaspi.shm.ShmRuntime` is a second concrete substrate
under every layer built so far — the registry-routed collectives, the
compiled plans, the pipelined chunked data path and the nonblocking
progress engine.  Correctness must hold *bit-identically* across
backends: every fold order is deterministic by design (child-order folds
in the BST reduce, the ring's fixed chunk rotation), so for each
``collective x {monolithic, pipelined} x {blocking, nonblocking}``
scenario the bytes a rank observes on the shm world must equal the bytes
the same rank observes on the threaded world, at 4 and at 8 ranks, on
both the cold (first call) and the plan-cached (second call) path.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import Communicator, ConsistencyPolicy, run_backend

from tests.helpers import rank_vector

#: Chunked policy for the pipelined scenarios: 300 float64 elements at
#: 256-byte chunks → ~10 pipeline chunks, so the chunk protocol (and not
#: its single-chunk degenerate form) is what gets compared.
_ELEMENTS = 300
_PIPELINE_POLICY = ConsistencyPolicy(chunk_bytes=256)

#: (collective, algorithm alias, policy) — the acceptance matrix.
SCENARIOS = [
    ("bcast", "bst", None),
    ("bcast", "flat", None),
    ("bcast", "bst_pipelined", _PIPELINE_POLICY),
    ("reduce", "bst", None),
    ("reduce", "bst_pipelined", _PIPELINE_POLICY),
    ("allreduce", "ring", None),
    ("allreduce", "ring_pipelined", _PIPELINE_POLICY),
    ("allreduce", "hypercube", None),
]


def _observed_bytes(comm, collective, algorithm, policy, nonblocking):
    """One call of the scenario; returns the payload bytes this rank sees."""
    rank = comm.rank
    kwargs = {} if policy is None else {"policy": policy}
    if collective == "bcast":
        buffer = (
            rank_vector(99, _ELEMENTS)
            if rank == 0
            else np.zeros(_ELEMENTS, dtype=np.float64)
        )
        if nonblocking:
            comm.ibcast(buffer, root=0, algorithm=algorithm, **kwargs).wait()
        else:
            comm.bcast(buffer, root=0, algorithm=algorithm, **kwargs)
        return buffer.tobytes()
    if collective == "reduce":
        recvbuf = np.zeros(_ELEMENTS) if rank == 0 else None
        if nonblocking:
            comm.ireduce(
                rank_vector(rank, _ELEMENTS),
                recvbuf=recvbuf,
                root=0,
                algorithm=algorithm,
                **kwargs,
            ).wait()
        else:
            comm.reduce(
                rank_vector(rank, _ELEMENTS),
                recvbuf=recvbuf,
                root=0,
                algorithm=algorithm,
                **kwargs,
            )
        return b"" if recvbuf is None else recvbuf.tobytes()
    # allreduce
    recvbuf = np.zeros(_ELEMENTS)
    if nonblocking:
        comm.iallreduce(
            rank_vector(rank, _ELEMENTS),
            recvbuf=recvbuf,
            algorithm=algorithm,
            **kwargs,
        ).wait()
    else:
        comm.allreduce(
            rank_vector(rank, _ELEMENTS),
            recvbuf=recvbuf,
            algorithm=algorithm,
            **kwargs,
        )
    return recvbuf.tobytes()


def _worker(runtime, collective, algorithm, policy, nonblocking):
    comm = Communicator(runtime)
    try:
        # Two calls: the first compiles the plan (cold), the second runs
        # the true plan-cached hot path; both must agree across backends.
        return [
            _observed_bytes(comm, collective, algorithm, policy, nonblocking)
            for _ in range(2)
        ]
    finally:
        comm.close()


@pytest.mark.parametrize("ranks", [4, 8])
@pytest.mark.parametrize("nonblocking", [False, True], ids=["blocking", "nonblocking"])
@pytest.mark.parametrize(
    "collective,algorithm,policy",
    SCENARIOS,
    ids=[f"{c}-{a}" for c, a, _ in SCENARIOS],
)
def test_threaded_and_shm_bit_identical(ranks, nonblocking, collective, algorithm, policy):
    threaded = run_backend(
        ranks, _worker, collective, algorithm, policy, nonblocking,
        backend="threaded", timeout=90,
    )
    shm = run_backend(
        ranks, _worker, collective, algorithm, policy, nonblocking,
        backend="shm", timeout=90,
    )
    for rank in range(ranks):
        for call in range(2):
            assert shm[rank][call] == threaded[rank][call], (
                f"rank {rank}, call {call}: shm bytes diverge from threaded"
            )


def _exchanges(runtime):
    """Alltoall and allgather, cold (no plan cache) then twice cached."""
    cold = Communicator(runtime, plan_cache=0)
    cached = Communicator(runtime, segment_base=10_000)
    size, rank = runtime.size, runtime.rank
    blocks = rank_vector(rank, _ELEMENTS * size)
    out = []
    try:
        for comm in (cold, cached, cached):
            out.append(comm.alltoall(blocks).tobytes())
            out.append(comm.allgather(rank_vector(rank, _ELEMENTS)).tobytes())
        return out, cached.plan_cache_stats().hits
    finally:
        cold.close()
        cached.close()


@pytest.mark.parametrize("ranks", [3, 4])
def test_cached_and_cold_exchanges_bit_identical_on_both_backends(ranks):
    threaded = run_backend(ranks, _exchanges, backend="threaded", timeout=90)
    shm = run_backend(ranks, _exchanges, backend="shm", timeout=90)
    for rank in range(ranks):
        (t_out, t_hits), (s_out, s_hits) = threaded[rank], shm[rank]
        assert t_hits == s_hits == 2
        assert s_out == t_out
        # cold alltoall == cached alltoall (twice), and the same for allgather
        assert t_out[0] == t_out[2] == t_out[4] and t_out[1] == t_out[3] == t_out[5]
