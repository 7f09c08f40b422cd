"""Buffer ownership of the single-copy data path (the MPI rule).

The pipelined plans read ``sendbuf`` in place — there is no entry copy to
hide behind — so a nonblocking call owns its buffers until it completed.
These tests hold the library to its half of that contract under
``delivery="async"``, where a post returns before its source is read:
once ``wait()`` returned, every read of the caller's memory has happened.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import Communicator, ConsistencyPolicy
from repro.gaspi import WorldConfig

from tests.helpers import spmd

ASYNC = WorldConfig(delivery="async", delivery_delay=0.0005)
N = 1536  # odd per-rank chunks at 4 ranks, several sub-chunks below
POLICY = ConsistencyPolicy(chunk_bytes=1024)


def _contribution(rank: int, call: int) -> np.ndarray:
    """Integer-valued, so any association of the sum is exact."""
    return (np.arange(N, dtype=np.float64) % 17) + 100.0 * rank + call


def _total(ranks: int, call: int) -> np.ndarray:
    return sum(_contribution(r, call) for r in range(ranks))


def test_source_mutated_after_wait_reduces_exactly():
    # Every rank scribbles over its sendbuf the moment wait() returns, then
    # reuses the same buffer for the next call: had any chunk still been
    # unread (a post parked in the delivery thread), a peer would fold the
    # scribble or the next call's data.
    def worker(rt):
        comm = Communicator(rt)
        send = np.empty(N)
        outs = []
        for call in range(4):
            send[:] = _contribution(rt.rank, call)
            out = np.empty(N)
            comm.iallreduce(send, recvbuf=out, policy=POLICY).wait(timeout=60)
            send[:] = np.nan
            outs.append(out)
        comm.close()
        return outs

    for outs in spmd(4, worker, world_config=ASYNC):
        for call, out in enumerate(outs):
            assert np.array_equal(out, _total(4, call))


def test_ibcast_and_ireduce_release_their_buffers_at_completion():
    def worker(rt):
        comm = Communicator(rt)
        buffer = _contribution(0, 7) if rt.rank == 1 else np.zeros(N)
        comm.ibcast(buffer, root=1, policy=POLICY).wait(timeout=60)
        received = buffer.copy()
        buffer[:] = np.nan  # the root's chunks have all been read by now

        send = _contribution(rt.rank, 3)
        recv = np.zeros(N) if rt.rank == 2 else None
        comm.ireduce(send, recvbuf=recv, root=2, policy=POLICY).wait(timeout=60)
        send[:] = np.nan  # a leaf's sendbuf was pushed straight from here
        comm.barrier()
        comm.close()
        return received, recv

    results = spmd(4, worker, world_config=ASYNC)
    for received, _ in results:
        assert np.array_equal(received, _contribution(0, 7))
    assert np.array_equal(results[2][1], _total(4, 3))


#: Where the two differ: the ring requires a ``recvbuf`` of the payload's
#: dtype and a contiguous ``sendbuf``; the hypercube reduces privately and
#: casts on the way out, and copies a strided ``sendbuf`` (as its copying
#: predecessor did).
ACCEPTS_ODD_BUFFERS = {"ring_pipelined": False, "hypercube": True}


@pytest.mark.parametrize("algorithm,ranks", [("ring_pipelined", 3), ("hypercube", 4)])
@pytest.mark.parametrize("config", [None, ASYNC], ids=["immediate", "async"])
def test_in_place_and_allocated_recvbuf(config, algorithm, ranks):
    def worker(rt):
        comm = Communicator(rt)
        x = _contribution(rt.rank, 0)
        returned = comm.allreduce(x, x, algorithm=algorithm, policy=POLICY)
        in_place = returned is x
        send = _contribution(rt.rank, 1)
        fresh = comm.allreduce(send, algorithm=algorithm, policy=POLICY)
        backing = np.zeros(2 * N)
        strided = comm.allreduce(send, backing[::2], algorithm=algorithm, policy=POLICY)
        narrow = np.zeros(N, dtype=np.float32)
        columns = np.stack([send, send], axis=1)
        try:  # rejected before anything is posted, on every rank alike
            comm.allreduce(send, narrow, algorithm=algorithm, policy=POLICY)
            from_strided = comm.allreduce(
                columns[:, 0], algorithm=algorithm, policy=POLICY
            )
        except ValueError:
            from_strided = None
        untouched = np.array_equal(send, _contribution(rt.rank, 1))
        handle = comm.iallreduce(send, send, algorithm=algorithm, policy=POLICY, tag=3)
        handle.wait(timeout=60)
        comm.close()
        return {
            "x": x, "in_place": in_place, "fresh": fresh, "untouched": untouched,
            "strided": (strided.base is backing, backing[::2].copy(), backing[1::2].any()),
            "odd": (narrow, from_strided),
            "nonblocking": send,
        }

    for out in spmd(ranks, worker, world_config=config):
        total = _total(ranks, 1)
        assert out["in_place"] and np.array_equal(out["x"], _total(ranks, 0))
        assert out["fresh"].flags["C_CONTIGUOUS"] and np.array_equal(out["fresh"], total)
        assert out["untouched"]
        returned_view, filled, gaps_written = out["strided"]
        assert returned_view and np.array_equal(filled, total) and not gaps_written
        narrow, from_strided = out["odd"]
        if ACCEPTS_ODD_BUFFERS[algorithm]:
            assert np.array_equal(narrow, total.astype(np.float32))
            assert np.array_equal(from_strided, total)
        else:
            assert from_strided is None and not narrow.any()
        assert np.array_equal(out["nonblocking"], total)
