"""Shapes and workloads of the gated benchmark (catalogue: README.md).

A *shape* is one collective at one payload size under one policy.  It
owns its buffers, refreshes its inputs before every call and checks the
output after it against a NumPy reference the benchmark computes itself.
A *workload* is a list of shapes issued in homogeneous blocks, plus the
communicator stack they are issued on.

Payloads are small-integer-valued float64, so every sum is exact in any
reduction order and the checks compare with ``==``.  Rank ``r`` contributes
``base + r + i`` on its ``i``-th call: the expected output changes with
every call, so a result left over from the previous call fails the check.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro import ConsistencyPolicy

KIB = 1024
MIB = 1024 * KIB

#: Selection covering the whole buffer (the once-per-block full compare).
FULL = slice(None)

#: Value scribbled over receive positions before a call; never a valid result.
_STALE = -1.0

D25 = ConsistencyPolicy.data_threshold(0.25)
P50 = ConsistencyPolicy.process_threshold(0.5)


def _pattern(seed: int, name: str, n: int) -> np.ndarray:
    rng = np.random.default_rng([seed, zlib.crc32(name.encode())])
    return rng.integers(-8, 9, size=n).astype(np.float64)


class Shape:
    """One collective shape: ``fill`` (untimed), ``call`` (timed), ``check`` (untimed)."""

    #: Which communicator of the stack serves the shape ("main" or "cold").
    comm_key = "main"
    #: Calls needed to touch every plan the shape compiles.
    first_calls = 1

    def __init__(self, name: str, block: int, nbytes: int, comm_key: str = "main") -> None:
        self.name = name
        self.block = block
        self.n = nbytes // 8
        self.comm_key = comm_key

    def prepare(self, rank: int, size: int, seed: int) -> None:
        self.rank, self.size = rank, size
        self.base = _pattern(seed, self.name, self.n)
        # Small buffers are refreshed and checked whole on every call, large
        # ones on a strided sample (and whole on the last call of a block).
        self.sample = FULL if self.n <= 8192 else slice(0, None, self.n // 61)
        #: Sum of all ranks' rank offsets.
        self.tri = size * (size - 1) // 2
        self.allocate()

    def block_for(self, cap: Optional[int]) -> int:
        """Calls per block; ``cap`` shortens it for the count-only 8-rank pass."""
        return self.block if cap is None else min(self.block, cap)

    def allreduce_counts(self) -> Tuple[int, int]:
        """(results that ran ahead, strict allreduce results checked)."""
        return 0, 0

    def allocate(self) -> None:
        raise NotImplementedError

    def fill(self, comm, i: int, sel: slice) -> None:
        raise NotImplementedError

    def call(self, comm) -> None:
        raise NotImplementedError

    def check(self, comm, i: int, sel: slice) -> bool:
        raise NotImplementedError


class Allreduce(Shape):
    """Strict allreduce.

    Known upstream defect (README, "Known defects"): the plan-cached
    hypercube that ``auto`` picks for small payloads lets a partner that
    already entered its *next* call overwrite the mailbox this call has not
    read yet, so a result may fold a partner's next contribution in place of
    its current one.  The check therefore accepts, from each other rank, one
    whole contribution of this call or of the next, and counts the results
    that ran ahead (``api.allreduce_ahead_ratio``); anything else fails.
    """

    def allocate(self) -> None:
        self.send = np.empty(self.n)
        self.recv = np.empty(self.n)
        self.ahead = self.checked = 0

    def allreduce_counts(self):
        return self.ahead, self.checked

    def fill(self, comm, i, sel):
        np.add(self.base[sel], self.rank + i, out=self.send[sel])

    def call(self, comm):
        comm.allreduce(self.send, self.recv)

    def check(self, comm, i, sel):
        ahead = self.recv[sel] - (self.size * (self.base[sel] + i) + self.tri)
        first = ahead[0]
        self.checked += 1
        self.ahead += first > 0
        return bool(0 <= first < self.size and (ahead == first).all())


class Bcast(Shape):
    def __init__(self, name, block, nbytes, root=0, policy=None, comm_key="main"):
        super().__init__(name, block, nbytes, comm_key)
        self.root = root
        self.policy = policy

    def allocate(self) -> None:
        self.buf = np.empty(self.n)
        fraction = 1.0 if self.policy is None else self.policy.threshold
        # The documented contract: the leading floor(n * threshold) elements.
        self.delivered = np.arange(self.n) < int(self.n * fraction)

    def fill(self, comm, i, sel):
        if self.rank == self.root:
            np.add(self.base[sel], i, out=self.buf[sel])
        else:
            self.buf[sel] = _STALE

    def call(self, comm):
        comm.bcast(self.buf, root=self.root, policy=self.policy)

    def check(self, comm, i, sel):
        if self.rank == self.root:
            return True
        expected = np.where(self.delivered[sel], self.base[sel] + i, _STALE)
        return np.array_equal(self.buf[sel], expected)


class Reduce(Shape):
    def __init__(self, name, block, nbytes, root=0, policy=None, comm_key="main"):
        super().__init__(name, block, nbytes, comm_key)
        self.root = root
        self.policy = policy

    def allocate(self) -> None:
        self.send = np.empty(self.n)
        self.recv = np.empty(self.n)
        policy = self.policy
        data_fraction = 1.0
        #: Ranks whose contribution the root folds (a process threshold
        #: engages ceil(f * P) of them, the root always among them).
        self.contributors = self.size
        if policy is not None and policy.mode.value == "processes":
            self.contributors = max(1, math.ceil(policy.threshold * self.size - 1e-9))
        elif policy is not None:
            data_fraction = policy.threshold
        self.reduced = np.arange(self.n) < int(self.n * data_fraction)

    def fill(self, comm, i, sel):
        np.add(self.base[sel], self.rank + i, out=self.send[sel])
        if self.rank == self.root:
            self.recv[sel] = _STALE

    def call(self, comm):
        comm.reduce(self.send, self.recv, root=self.root, policy=self.policy)

    def check(self, comm, i, sel):
        if self.rank != self.root:
            return True
        m = self.contributors
        if m == self.size:
            rank_sum = self.tri
        elif m == 1:
            rank_sum = self.root
        else:
            # Which subtree contributes is the topology's business; the
            # result must still be m whole contributions.
            rank_sum = self.recv[sel][0] - m * (self.base[sel][0] + i)
            if not 0 <= rank_sum <= self.tri:
                return False
        expected = np.where(
            self.reduced[sel], m * (self.base[sel] + i) + rank_sum, _STALE
        )
        return np.array_equal(self.recv[sel], expected)


class Alltoall(Shape):
    """``nbytes`` is the per-peer block; block ``j`` of rank ``r`` carries ``r * P + j``."""

    def allocate(self) -> None:
        self.send = np.empty((self.size, self.n))
        self.recv = np.empty((self.size, self.n))
        peers = np.arange(self.size)[:, None]
        self.sent_tag = self.rank * self.size + peers
        self.recv_tag = peers * self.size + self.rank

    def fill(self, comm, i, sel):
        self.send[:, sel] = self.base[sel] + (self.sent_tag + i)
        self.recv[:, sel] = _STALE

    def call(self, comm):
        comm.alltoall(self.send.reshape(-1), self.recv.reshape(-1))

    def check(self, comm, i, sel):
        return np.array_equal(self.recv[:, sel], self.base[sel] + (self.recv_tag + i))


class IallreduceBuckets(Shape):
    """``buckets`` tagged nonblocking allreduces drained by one ``wait_all``: one op."""

    def __init__(self, name, block, nbytes, buckets):
        super().__init__(name, block, nbytes)
        self.buckets = buckets

    def allocate(self) -> None:
        self.send = np.empty((self.buckets, self.n))
        self.recv = np.empty((self.buckets, self.n))
        self.bucket_tag = np.arange(self.buckets)[:, None]

    def fill(self, comm, i, sel):
        self.send[:, sel] = self.base[sel] + (self.bucket_tag + self.rank + i)

    def call(self, comm):
        for q in range(self.buckets):
            comm.iallreduce(self.send[q], self.recv[q], tag=q + 1)
        comm.wait_all()

    def check(self, comm, i, sel):
        expected = self.size * (self.base[sel] + (self.bucket_tag + i)) + self.tri
        return np.array_equal(self.recv[:, sel], expected)


class AllreduceSsp(Shape):
    """``comm.allreduce_ssp`` under slack: the bound on staleness is what is checked.

    The result must be this rank's fresh contribution plus the partner's
    contribution of a call at most ``slack`` away from this one (or the
    empty mailbox while the clock is still within the slack of zero).  The
    SSP clock is per communicator, so the call number is too.
    """

    def __init__(self, name, block, nbytes, slack):
        super().__init__(name, block, nbytes)
        self.slack = slack

    def allocate(self) -> None:
        self.send = np.empty(self.n)
        self.seq: Dict[int, int] = {}
        self.value = None

    def fill(self, comm, i, sel):
        q = self.seq.get(id(comm), 0)
        np.add(self.base, q * self.size + self.rank, out=self.send)

    def call(self, comm):
        self.value = comm.allreduce_ssp(self.send, slack=self.slack).value

    def check(self, comm, i, sel):
        q = self.seq.get(id(comm), 0)
        self.seq[id(comm)] = q + 1
        if self.size != 2:
            # Count-only pass: staleness mixes across hypercube rounds.
            return bool(np.isfinite(self.value).all())
        theirs = self.value - self.send
        if q < self.slack and not theirs.any():
            return True
        tag = theirs - self.base
        partner = 1 - self.rank
        offset = (tag[0] - partner) / self.size
        return bool(
            (tag == tag[0]).all()
            and offset == int(offset)
            # A partner may have *posted* one call beyond what slack lets it finish.
            and max(0, q - self.slack) <= offset <= q + self.slack + 1
        )


class Churn(Shape):
    """More distinct plan keys than the plan cache holds, visited cyclically.

    With 36 keys against the default 16-entry LRU every call is a miss, an
    eviction, a quiesce barrier and a segment create/delete.
    """

    def __init__(self, name: str, subs: List[Shape]) -> None:
        super().__init__(name, len(subs), 0)
        self.subs = subs
        self.first_calls = len(subs)

    def prepare(self, rank, size, seed):
        # The visiting order and the bcast roots come from the seed.
        self.sample = FULL
        rng = np.random.default_rng([seed, zlib.crc32(self.name.encode())])
        self.subs = [self.subs[j] for j in rng.permutation(len(self.subs))]
        for sub in self.subs:
            if isinstance(sub, Bcast):
                sub.root = int(rng.integers(0, 2))
            sub.prepare(rank, size, seed)

    def block_for(self, cap):
        return self.block  # a shorter cycle would fit the cache

    def allreduce_counts(self):
        return tuple(map(sum, zip(*(sub.allreduce_counts() for sub in self.subs))))

    def fill(self, comm, i, sel):
        self.current = self.subs[i % len(self.subs)]
        self.current.fill(comm, i, self.current.sample)

    def call(self, comm):
        self.current.call(comm)

    def check(self, comm, i, sel):
        return self.current.check(comm, i, self.current.sample)


def _churn36() -> Churn:
    subs: List[Shape] = [Allreduce(f"churn_ar{k}k", 1, k * KIB) for k in range(1, 25)]
    subs += [Bcast(f"churn_bc{k}k", 1, k * KIB, root=1) for k in range(1, 13)]
    return Churn("churn36", subs)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: Fresh shape objects (they own per-rank buffers), in catalogue order.
    shapes: Callable[[], List[Shape]]
    #: Issue the collectives through every optional layer at once.
    wrapped: bool = False
    #: Run the MF-SGD training pair after the collective phases.
    sgd: bool = False


def _small_msgs() -> List[Shape]:
    return [
        Allreduce("allreduce_1k", 50, 1 * KIB),
        Allreduce("allreduce_8k", 50, 8 * KIB),
        Bcast("bcast_1k", 100, 1 * KIB),
        Reduce("reduce_1k", 80, 1 * KIB),
    ]


def _large_msgs() -> List[Shape]:
    return [
        Allreduce("allreduce_4m", 4, 4 * MIB),
        Allreduce("allreduce_1m", 14, 1 * MIB),
        Bcast("bcast_4m", 12, 4 * MIB),
        Reduce("reduce_4m", 6, 4 * MIB),
        Alltoall("alltoall_256k", 4, 256 * KIB),
        IallreduceBuckets("iallreduce_4x1m", 3, 1 * MIB, buckets=4),
    ]


def _ec_policies() -> List[Shape]:
    return [
        Bcast("bcast_4m_strict", 10, 4 * MIB),
        Bcast("bcast_4m_d25", 30, 4 * MIB, policy=D25),
        Reduce("reduce_4m_strict", 6, 4 * MIB),
        Reduce("reduce_4m_d25", 20, 4 * MIB, policy=D25),
        Reduce("reduce_256k_p50", 200, 256 * KIB, policy=P50),
        AllreduceSsp("allreduce_ssp_64k_s2", 60, 64 * KIB, slack=2),
    ]


def _shape_churn() -> List[Shape]:
    return [
        _churn36(),
        Allreduce("cold_allreduce_1k", 20, 1 * KIB, comm_key="cold"),
        Bcast("cold_bcast_1k", 20, 1 * KIB, comm_key="cold"),
        Reduce("cold_reduce_64k", 20, 64 * KIB, comm_key="cold"),
    ]


def _wrapped_stack() -> List[Shape]:
    return [
        Allreduce("w_allreduce_1k", 40, 1 * KIB),
        Bcast("w_bcast_1k", 80, 1 * KIB),
        Allreduce("w_allreduce_1m", 12, 1 * MIB),
    ]


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "small_msgs",
            "latency-bound: dispatch, plan lookup and one notify round trip are the op",
            _small_msgs,
        ),
        Workload(
            "large_msgs",
            "bandwidth-bound: chunking, folds and memcpy dominate, dispatch under 2 %",
            _large_msgs,
        ),
        Workload(
            "ec_policies",
            "the paper's thresholds and SSP slack against their strict counterparts",
            _ec_policies,
            sgd=True,
        ),
        Workload(
            "shape_churn",
            "working set above the 16-entry plan cache: compile, segment and cold paths",
            _shape_churn,
        ),
        Workload(
            "wrapped_stack",
            "telemetry, empty fault plan, split child and heartbeat detector all at once",
            _wrapped_stack,
            wrapped=True,
        ),
    )
}

#: Every shape name, in catalogue order (the per-shape median metrics).
SHAPE_NAMES: List[str] = [s.name for w in WORKLOADS.values() for s in w.shapes()]
