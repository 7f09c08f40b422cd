"""Collective-boundary checkpoints of per-rank communicator state.

Collectives are synchronization points, which makes them the cheap place
to checkpoint (the Collective Vector Clocks observation): at a boundary
there is no partially-applied payload anywhere, so the only state worth
saving is the *control* state a resumed rank needs to keep allocating in
lock-step with an uninterrupted one — segment-id counters, the collective
sequence number, the plan-cache contents (as keys, not buffers), the
suspected-rank set and the policy fingerprints.

:func:`checkpoint` freezes exactly that into a :class:`CommSnapshot`:

* **plan-cache keys** in LRU order, with each plan's workspace segment id
  (informational) and pin state, so :func:`restore` recompiles
  byte-identical plans.  A restored world starts with an empty workspace
  pool on every rank: the plans lease fresh segments — the same ids on
  every rank, which is all the protocols need — and the id high-water
  mark is then advanced to the checkpointed one;
* **in-flight handle queue**: nonblocking handles cannot be serialized
  mid-pipeline, so the checkpoint first drains them (``wait_all``) and
  records how many it drained (:attr:`CommSnapshot.drained_handles`) —
  the snapshot is always taken at a true boundary;
* **notification high-water marks**: the quiesce barrier taken before
  snapshotting guarantees every board is clean (planned executors are
  self-synchronising across calls and the barrier orders the last call's
  final notifications before the snapshot), so the marks are uniformly
  zero and carried implicitly;
* **suspected ranks and policy fingerprints**, so degraded-mode routing
  resumes exactly where it stopped.

Snapshots serialize to one JSON file per rank under a versioned schema
(``repro-ckpt/v1``) plus a rank-0 manifest, and :func:`restore` rebuilds
a :class:`~repro.core.api.Communicator` in a fresh world that replays
from the boundary with bit-identical results (same algorithms, same
plan-cache state — ``misses == 0`` after the replay proves the restored
plans served).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..core.api import Communicator
from ..gaspi.constants import GASPI_BLOCK
from ..gaspi.errors import GaspiError
from ..gaspi.group import Group
from ..core.plan import PlanKey, PolicyFingerprint, policy_fingerprint, policy_from_fingerprint
from ..gaspi.runtime import GaspiRuntime
from ..telemetry.core import CLOCK
from ..utils.logging import get_logger
from ..utils.validation import require

logger = get_logger("elastic.checkpoint")

#: Versioned snapshot schema; bump on any incompatible layout change.
CKPT_SCHEMA = "repro-ckpt/v1"

#: Rank-0 manifest describing the checkpoint as a whole.
MANIFEST_NAME = "MANIFEST.json"


@dataclass(frozen=True)
class PlanEntry:
    """One plan-cache entry of a snapshot: its key, segment id, pin state."""

    key: PlanKey
    segment_id: int
    calls: int
    pinned: bool = False

    def to_dict(self) -> Dict[str, object]:
        return {
            "key": self.key.to_dict(),
            "segment_id": self.segment_id,
            "calls": self.calls,
            "pinned": self.pinned,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "PlanEntry":
        return cls(
            key=PlanKey.from_dict(data["key"]),
            segment_id=int(data["segment_id"]),
            calls=int(data["calls"]),
            pinned=bool(data.get("pinned", False)),
        )


@dataclass(frozen=True)
class CommSnapshot:
    """Per-rank communicator state at one collective boundary.

    Everything a restored rank needs to keep allocating segment ids and
    sequence numbers in lock-step with an uninterrupted run.  Immutable
    and JSON-serializable; :meth:`save`/:meth:`load` handle the on-disk
    layout (one ``rank-NNNNN.json`` per rank plus a rank-0 manifest).
    """

    rank: int
    size: int
    segment_base: int
    segment_span: int
    next_segment: int
    collective_seq: int
    split_count: int
    family: str
    policy: PolicyFingerprint
    detect_timeout: Optional[float]
    suspected: Tuple[int, ...]
    plan_capacity: int
    plans: Tuple[PlanEntry, ...] = ()
    #: Nonblocking handles drained (completed) to reach the boundary.
    drained_handles: int = 0
    schema: str = CKPT_SCHEMA

    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, object]:
        return {
            "schema": self.schema,
            "rank": self.rank,
            "size": self.size,
            "segment_base": self.segment_base,
            "segment_span": self.segment_span,
            "next_segment": self.next_segment,
            "collective_seq": self.collective_seq,
            "split_count": self.split_count,
            "family": self.family,
            "policy": list(self.policy),
            "detect_timeout": self.detect_timeout,
            "suspected": list(self.suspected),
            "plan_capacity": self.plan_capacity,
            "plans": [entry.to_dict() for entry in self.plans],
            "drained_handles": self.drained_handles,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "CommSnapshot":
        schema = str(data.get("schema", ""))
        require(
            schema == CKPT_SCHEMA,
            f"unsupported checkpoint schema {schema!r} (expected {CKPT_SCHEMA!r})",
        )
        threshold, mode, slack, on_failure, chunk_bytes = data["policy"]
        fingerprint: PolicyFingerprint = (
            float(threshold),
            str(mode),
            int(slack),
            str(on_failure),
            None if chunk_bytes is None else int(chunk_bytes),
        )
        detect_timeout = data.get("detect_timeout")
        return cls(
            rank=int(data["rank"]),
            size=int(data["size"]),
            segment_base=int(data["segment_base"]),
            segment_span=int(data["segment_span"]),
            next_segment=int(data["next_segment"]),
            collective_seq=int(data["collective_seq"]),
            split_count=int(data["split_count"]),
            family=str(data["family"]),
            policy=fingerprint,
            detect_timeout=None if detect_timeout is None else float(detect_timeout),
            suspected=tuple(int(r) for r in data.get("suspected", ())),
            plan_capacity=int(data["plan_capacity"]),
            plans=tuple(PlanEntry.from_dict(p) for p in data.get("plans", ())),
            drained_handles=int(data.get("drained_handles", 0)),
            schema=schema,
        )

    # ------------------------------------------------------------------ #
    @staticmethod
    def rank_file(rank: int) -> str:
        return f"rank-{int(rank):05d}.json"

    def save(self, directory: str) -> str:
        """Write this rank's snapshot (and, on rank 0, the manifest).

        Returns the path of the rank file.  Safe to call concurrently
        from every rank: each writes only its own file.
        """
        os.makedirs(directory, exist_ok=True)
        path = os.path.join(directory, self.rank_file(self.rank))
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
        if self.rank == 0:
            manifest = {"schema": self.schema, "size": self.size}
            with open(
                os.path.join(directory, MANIFEST_NAME), "w", encoding="utf-8"
            ) as fh:
                json.dump(manifest, fh, indent=2, sort_keys=True)
        return path

    @classmethod
    def load(cls, directory: str, rank: int) -> "CommSnapshot":
        """Read one rank's snapshot back, validating schema and identity."""
        path = os.path.join(directory, cls.rank_file(rank))
        with open(path, "r", encoding="utf-8") as fh:
            snapshot = cls.from_dict(json.load(fh))
        require(
            snapshot.rank == int(rank),
            f"snapshot {path} is for rank {snapshot.rank}, not {rank}",
        )
        return snapshot


# --------------------------------------------------------------------------- #
# checkpoint / restore
# --------------------------------------------------------------------------- #
def _quiesce(
    comm: Communicator, group: Optional[Group] = None, timeout: float = GASPI_BLOCK
) -> None:
    """Best-effort barrier at a checkpoint/restore boundary.

    A runtime that can no longer synchronise (a fault plan crashed this
    rank, a peer died mid-run) must not turn a checkpoint into a hang.
    """
    try:
        comm.runtime.barrier(group, timeout=timeout)
    except GaspiError:
        pass


def checkpoint(
    comm: Communicator,
    *,
    group: Optional[Group] = None,
    timeout: float = GASPI_BLOCK,
) -> CommSnapshot:
    """Snapshot ``comm`` at a collective boundary (collective call).

    Drains any in-flight nonblocking handles first (the snapshot is
    always taken at a true boundary) and takes one quiesce barrier so
    every notification board is clean before the control state is frozen.
    The communicator stays fully usable afterwards.

    ``group``/``timeout`` bound the quiesce barrier for checkpoints taken
    with ranks already gone (the recovery supervisor checkpoints over the
    survivors before repairing): the barrier covers only ``group`` and
    gives up after ``timeout`` instead of waiting on the dead.
    """
    tel = comm.telemetry
    t0 = CLOCK() if tel.enabled else 0.0
    drained = 0
    if comm._progress.active:
        drained = comm._progress.active
        comm.wait_all(timeout)
    _quiesce(comm, group, timeout)
    entries = tuple(
        PlanEntry(
            key=plan.key,
            segment_id=plan.segment_id,
            calls=plan.calls,
            pinned=plan.pins > 0,
        )
        for plan in comm._plans.lru()
    )
    snapshot = CommSnapshot(
        rank=comm.rank,
        size=comm.size,
        segment_base=comm._segment_base,
        segment_span=comm._segment_span,
        next_segment=comm._pool.next_id,
        collective_seq=comm._collective_seq,
        split_count=comm._split_count,
        family=comm._family,
        policy=policy_fingerprint(comm.policy),
        detect_timeout=comm._detect_timeout,
        suspected=tuple(sorted(comm._suspected)),
        plan_capacity=comm._plans.capacity,
        plans=entries,
        drained_handles=drained,
    )
    logger.info(
        "rank %d: checkpoint at seq %d (%d cached plan(s), %d handle(s) drained)",
        comm.rank, snapshot.collective_seq, len(entries), drained,
    )
    if tel.enabled:
        t1 = CLOCK()
        tel.counter("elastic.checkpoints").add()
        tel.histogram("elastic.checkpoint_s").observe(t1 - t0)
        tel.record_span(
            "checkpoint", "elastic", t0, t1,
            {"seq": snapshot.collective_seq, "plans": len(entries)},
        )
    return snapshot


def restore(
    runtime: GaspiRuntime,
    snapshot: CommSnapshot,
    *,
    tuning=None,
    machine=None,
    registry=None,
    faults=None,
    telemetry=None,
    barrier: bool = True,
) -> Communicator:
    """Rebuild a communicator from ``snapshot`` in a fresh world.

    Collective when the snapshot holds compiled plans: plan compilation
    synchronises, so every rank must restore at the same point (that is
    what ``barrier=True`` enforces at the end as well).  A *single* rank
    rejoining a live world — the respawn path — passes ``barrier=False``,
    which is only legal for plan-free snapshots.

    The restored communicator draws fresh segment ids and sequence
    numbers exactly where the checkpointed one stopped, and its plan cache
    is repopulated (same keys, pins re-applied) without counting misses — a subsequent replay that stays at ``misses == 0``
    proves the restored plans served every call.
    """
    require(
        snapshot.schema == CKPT_SCHEMA,
        f"unsupported checkpoint schema {snapshot.schema!r}",
    )
    require(
        runtime.size == snapshot.size,
        f"snapshot is for a {snapshot.size}-rank world, runtime has "
        f"{runtime.size} ranks (shrink()/respawn instead of restore)",
    )
    require(
        runtime.rank == snapshot.rank,
        f"rank {runtime.rank} cannot restore rank {snapshot.rank}'s snapshot",
    )
    require(
        barrier or not snapshot.plans,
        "barrier=False restore is only possible for plan-free snapshots "
        "(plan compilation itself synchronises)",
    )
    tel = telemetry
    t0 = CLOCK() if (tel is not None and tel.enabled) else 0.0
    comm = Communicator(
        runtime,
        segment_base=snapshot.segment_base,
        segment_span=snapshot.segment_span,
        policy=policy_from_fingerprint(snapshot.policy),
        tuning=tuning,
        machine=machine,
        family=snapshot.family,
        registry=registry,
        detect_timeout=snapshot.detect_timeout,
        plan_cache=snapshot.plan_capacity,
        faults=faults,
        telemetry=telemetry,
    )
    for entry in snapshot.plans:
        info = comm._registry.get(entry.key.algorithm)
        plan = info.plan(
            comm.runtime,
            entry.key,
            entry.segment_id,
            policy_from_fingerprint(entry.key.policy),
            comm._pool,
        )
        # Restored plans restart at calls=0: the fresh world's boards are
        # clean, so the executors' cross-call synchronisation state is at
        # its initial position regardless of how far the old world got.
        comm._plans.put(entry.key, plan)
        if entry.pinned:
            comm._plans.pin(entry.key)
    comm._pool.next_id = max(comm._pool.next_id, snapshot.next_segment)
    comm._collective_seq = snapshot.collective_seq
    comm._split_count = snapshot.split_count
    comm._suspected = set(snapshot.suspected)
    if barrier:
        _quiesce(comm)
    logger.info(
        "rank %d: restored at seq %d (%d plan(s) recompiled)",
        comm.rank, snapshot.collective_seq, len(snapshot.plans),
    )
    if tel is not None and tel.enabled:
        t1 = CLOCK()
        tel.counter("elastic.restores").add()
        tel.histogram("elastic.restore_s").observe(t1 - t0)
        tel.record_span(
            "restore", "elastic", t0, t1,
            {"seq": snapshot.collective_seq, "plans": len(snapshot.plans)},
        )
    return comm
