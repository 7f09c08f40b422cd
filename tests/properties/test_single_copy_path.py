"""Property: the single-copy pipelined data path is exact on any shape.

The pipelined plans post one-sided writes straight from caller buffers
(``write_notify_from``) and make ``recvbuf`` the working vector, so the
places a copy used to hide a mistake are gone: an odd element count, a
payload smaller than one chunk, a non-power-of-two world, a ``recvbuf``
that is the ``sendbuf``, or one that is not contiguous.  For a random draw
of all of those, the plan-cached call (three times: the second one crosses
every cross-call handshake, the third returns to the first call's
mailbox parity), the cold pipelined call and the cold monolithic
function must agree bit for bit, and — where the arithmetic is exact in
any association (integer-valued payloads, or ``max``) — with NumPy.  The
strict hypercube, which posts from caller buffers and folds into
``recvbuf`` the same way, is one more input.  What NumPy must give is
:func:`~repro.core.policy.documented_result`, the contract written once.

So is the monolithic BST reduce (``reduce/bst``: planned against its cold
call).  Both reduce plans fold in tree order whatever arrives first, so
they are held to NumPy folded in that order bit for bit on *any* payload;
and both let a child run one call ahead of its parent on a credit, so one
rank is late into every planned call (its children have pushed call
``k + 1`` before it enters it), the second planned call goes through
``ireduce().wait()``, and ``recvbuf`` may also be of another dtype.
"""

from __future__ import annotations

import time

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro import Communicator, ConsistencyPolicy, run_backend
from repro.core.policy import documented_result
from repro.core.reduction_ops import ReductionOp

#: A reduction that is not a ufunc: takes the generic evaluate-and-copy
#: branch of :func:`repro.core.kernels.fold`.
PYSUM = ReductionOp("pysum", lambda a, b: a + b, 0.0)

#: case kind -> (planned algorithm, cold reference algorithm)
ALGORITHMS = {
    "bcast": ("bst_pipelined", "bst"),
    "reduce": ("bst_pipelined", "bst"),
    # Its cold call is a throwaway plan of the same class.
    "reduce/bst": ("bst", "bst"),
    "allreduce": ("ring_pipelined", "ring"),
    # Its cold call is a throwaway plan of the same class.
    "allreduce/hypercube": ("hypercube", "hypercube"),
}


@st.composite
def cases(draw):
    kind = draw(st.sampled_from(sorted(ALGORITHMS)))
    collective = kind.split("/")[0]
    hypercube = kind.endswith("hypercube")
    reduce = collective == "reduce"
    ranks = draw(st.sampled_from([2, 4, 8]) if hypercube else st.integers(2, 8))
    dtype = draw(st.sampled_from(["float32", "float64", "int64"]))
    exact = draw(st.booleans()) or dtype == "int64"
    return {
        "collective": collective,
        "algorithms": ALGORITHMS[kind],
        "ranks": ranks,
        "root": draw(st.integers(min_value=0, max_value=ranks - 1)),
        # 1 element, odd counts, fewer elements than ranks, several chunks
        "elements": draw(st.integers(1, 1024 if hypercube else 700)),
        "dtype": dtype,
        "op": draw(st.sampled_from(["max", "pysum", "sum"])),
        "chunk_bytes": draw(st.sampled_from([None, 8, 24, 64, 512, 1 << 16])),
        "threshold": (
            1.0
            if collective == "allreduce"
            else draw(st.sampled_from([1.0, 1.0, 0.5, 0.3]))
        ),
        "mode": draw(st.sampled_from(["data", "processes"])) if reduce else "data",
        "recvbuf": draw(
            st.sampled_from(
                ["fresh", "none", "aliased", "strided"] + ["other_dtype"] * reduce
            )
        ),
        "exact": exact,
        "seed": draw(st.integers(min_value=0, max_value=2**16)),
        # The rank that is late into every planned call (reduce only).
        "late": draw(st.integers(0, ranks - 1)) if reduce else None,
    }


def _payload(case, rank, call):
    rng = np.random.default_rng((case["seed"], rank, call))
    if case["exact"]:
        data = rng.integers(-50, 50, size=case["elements"])
    else:
        data = rng.standard_normal(case["elements"])
    return data.astype(case["dtype"])


def _other_dtype(dtype):
    return np.dtype("float32" if dtype == np.float64 else "float64")


def _recv(case, sendbuf):
    """(recvbuf argument, array the result is read from)."""
    kind = case["recvbuf"]
    if kind == "none":
        return None, None
    if kind == "aliased":
        return sendbuf, sendbuf
    if kind == "strided":
        backing = np.full(2 * sendbuf.size, 77, dtype=sendbuf.dtype)
        return backing[::2], backing[::2]
    if kind == "other_dtype":
        out = np.full(sendbuf.size, 77, dtype=_other_dtype(sendbuf.dtype))
        return out, out
    out = np.full_like(sendbuf, 77)
    return out, out


def _call(comm, case, algorithm, call, planned=False):
    """One collective on fresh buffers; returns this rank's output bytes."""
    rank, root = comm.rank, case["root"]
    op = PYSUM if case["op"] == "pysum" else case["op"]
    policy = ConsistencyPolicy(
        threshold=case["threshold"], mode=case["mode"], chunk_bytes=case["chunk_bytes"]
    )
    send = _payload(case, rank, call)
    if planned and rank == case["late"]:
        time.sleep(0.002)
    if case["collective"] == "bcast":
        buffer = send if rank == root else np.full_like(send, 77)
        comm.bcast(buffer, root=root, policy=policy, algorithm=algorithm)
        return buffer.tobytes()
    if case["collective"] == "reduce":
        recvbuf, out = _recv(case, send) if rank == root else (None, None)
        if planned and call == 1:
            comm.ireduce(
                send, recvbuf, root=root, op=op, policy=policy, algorithm=algorithm
            ).wait(timeout=60)
        else:
            comm.reduce(
                send, recvbuf, root=root, op=op, policy=policy, algorithm=algorithm
            )
        return None if out is None else out.tobytes()
    recvbuf, _ = _recv(case, send)
    value = comm.allreduce(send, recvbuf, op=op, policy=policy, algorithm=algorithm)
    return np.asarray(value).tobytes()


def _worker(rt, case):
    pipelined, monolithic = case["algorithms"]
    planned = Communicator(rt)
    cold = Communicator(rt, segment_base=4000, plan_cache=0)
    out = {
        "planned": _call(planned, case, pipelined, 0, planned=True),
        "planned_again": _call(planned, case, pipelined, 1, planned=True),
        "planned_third": _call(planned, case, pipelined, 2, planned=True),
        "cold": _call(cold, case, pipelined, 0),
        "cold_function": _call(cold, case, monolithic, 0),
    }
    if pipelined == "ring_pipelined":
        # Two tagged nonblocking pipelines in flight at once, each with its
        # own plan and workspace; the second one reduces in place.
        op = PYSUM if case["op"] == "pysum" else case["op"]
        policy = ConsistencyPolicy(chunk_bytes=case["chunk_bytes"])
        first, second = _payload(case, rt.rank, 0), _payload(case, rt.rank, 1)
        recvbuf, _ = _recv(case, first)
        # Named: "auto" resolves by size, as for a blocking call, and another
        # algorithm folds an inexact sum in another order.
        h1 = planned.iallreduce(
            first, recvbuf, op=op, policy=policy, algorithm=pipelined, tag=1
        )
        h2 = planned.iallreduce(
            second, second, op=op, policy=policy, algorithm=pipelined, tag=2
        )
        out["nonblocking"] = np.asarray(h1.wait(timeout=60).value).tobytes()
        out["nonblocking_again"] = np.asarray(h2.wait(timeout=60).value).tobytes()
    cold.close()
    planned.close()
    return out


def _reference(case, call):
    """What :func:`documented_result` owes each rank (``None``: no output)."""
    ranks, root = case["ranks"], case["root"]
    inputs = [_payload(case, rank, call) for rank in range(ranks)]
    if case["collective"] == "reduce" and case["recvbuf"] == "none":
        return [None] * ranks
    before = [np.full_like(inputs[root], 77)] * ranks
    if case["collective"] == "reduce" and case["recvbuf"] == "aliased":
        before = [inputs[root]] * ranks
    elif case["recvbuf"] == "other_dtype":
        before = [np.full(case["elements"], 77, dtype=_other_dtype(inputs[root].dtype))] * ranks
    policy = ConsistencyPolicy(threshold=case["threshold"], mode=case["mode"])
    op = PYSUM if case["op"] == "pysum" else case["op"]
    owed = documented_result(case["collective"], policy, inputs, root=root, op=op, before=before)
    return [None if value is None else value.tobytes() for value in owed]


def _check(case, backend):
    results = run_backend(case["ranks"], _worker, case, backend=backend, timeout=120)
    order_free = case["exact"] or case["op"] == "max"
    for rank, out in enumerate(results):
        assert out["cold"] == out["planned"], (rank, "cold pipelined")
        assert out["cold_function"] == out["planned"], (rank, "cold function")
        if "nonblocking" in out:
            assert out["nonblocking"] == out["planned"], (rank, "iallreduce tag 1")
            assert out["nonblocking_again"] == out["planned_again"], (rank, "tag 2")
    if order_free or case["collective"] == "reduce":
        for call, label in enumerate(("planned", "planned_again", "planned_third")):
            expected = _reference(case, call)
            for rank, out in enumerate(results):
                assert out[label] == expected[rank], (rank, label, "numpy")


def _case(kind, ranks, elements, dtype, chunk_bytes, late=None):
    return {
        "collective": kind.split("/")[0], "algorithms": ALGORITHMS[kind],
        "ranks": ranks, "root": 0, "elements": elements,
        "dtype": dtype, "op": "max", "chunk_bytes": chunk_bytes, "threshold": 1.0,
        "mode": "data", "recvbuf": "fresh", "exact": False, "seed": 0, "late": late,
    }


# Two defects this property found in the seed code, pinned: a ring sub-chunk
# slot sized from a rounded-up *byte* quotient (20 bytes for a 3-element
# float64 sub-chunk), and a 4-byte bcast bound over the 8-byte minimum segment.
# And the shape that goes wrong when a reduce's partial result is segment
# memory a child can write: a late root keeps rank 1 waiting for its credit
# while rank 1's first child, one call ahead, pushes again.
@example(case=_case("allreduce", 2, 9, "float64", 24))
@example(case=_case("bcast", 2, 1, "float32", None))
@example(case=_case("reduce/bst", 8, 257, "float64", None, late=0))
@given(case=cases())
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_pipelined_plans_are_exact_on_threaded(case):
    _check(case, "threaded")


@given(case=cases())
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_pipelined_plans_are_exact_on_shm(case):
    _check(case, "shm")
