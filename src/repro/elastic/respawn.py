"""Fold a recovered or respawned rank back into a live world.

Two recovery shapes share this module:

* **In-place recovery** (threaded backend, injected crashes): the rank's
  process survived, only its :class:`~repro.faults.injection.FaultyRuntime`
  layer is refusing operations.  :func:`recover_crashed` flips it back,
  then :func:`rejoin` re-drives the dead rank's contribution into the
  degraded exchange it crashed out of.
* **Respawn** (shm backend, hard process death): a *new* process takes
  over the dead rank's identity in the live
  :class:`~repro.gaspi.shm.ShmWorld`.  The predecessor's shared-memory
  blocks are still in ``/dev/shm`` under their deterministic names;
  :func:`rejoin` adopts the degraded exchange's block
  (:meth:`~repro.gaspi.shm.ShmRuntime.adopt_segment` re-validates the
  header and drains stale notifications) and :func:`sweep_stale_segments`
  unlinks the rest.

Either way the actual re-convergence is the existing Küttler machinery:
:func:`~repro.faults.recovery.send_late_contribution` pushes the slot-
indexed contribution to the survivors, whose
:meth:`~repro.faults.recovery.DegradedResult.correct` passes fold it in,
and :meth:`~repro.core.api.Communicator.reinstate` clears the suspicion.
:func:`rejoin` wraps the send in a bounded retry loop
(:class:`~repro.utils.backoff.Backoff`) because the replacement races
the survivors' workspace creation — a send landing before a peer created
its workspace is silently dropped, so delivery is confirmed peer by peer
(the survivors' already-counted dedup makes duplicate sends idempotent).
"""

from __future__ import annotations

from typing import Iterable, List, Optional

import numpy as np

from ..core.api import Communicator
from ..faults.recovery import send_late_contribution
from ..gaspi.runtime import GaspiRuntime
from ..telemetry.core import CLOCK
from ..utils.backoff import Backoff, BackoffPolicy
from ..utils.logging import get_logger
from ..utils.validation import require

logger = get_logger("elastic.respawn")

#: Budget of one :func:`rejoin` delivery loop (seconds).
DEFAULT_REJOIN_TIMEOUT = 10.0

#: Delivery retries start near-immediate (the usual race is microseconds
#: of workspace setup) and back off to a 50 ms cadence while a slow peer
#: catches up, with jitter so simultaneous rejoiners desynchronize.
_REJOIN_BACKOFF = BackoffPolicy(
    initial=0.002, factor=2.0, max_pause=0.05, jitter=0.5
)


def recover_crashed(comm: Communicator) -> bool:
    """Un-crash this rank's fault layer, if any; True when it recovered.

    Finds the :class:`~repro.faults.injection.FaultyRuntime` in the
    communicator's wrapper stack and calls its ``recover()`` — the
    in-place half of the recovery protocol (the process is still alive,
    only the injected crash makes its runtime refuse operations).
    """
    for layer in comm.runtime.layers():
        is_crashed = getattr(layer, "is_crashed", None)
        if is_crashed is None or not hasattr(layer, "recover"):
            continue
        if is_crashed:
            layer.recover()
            logger.info("rank %d: recovered crashed fault layer", comm.rank)
            return True
        return False
    return False


def _shm_runtime(runtime):
    """The :class:`~repro.gaspi.shm.ShmRuntime` under the wrappers, or None."""
    for layer in runtime.layers():
        if hasattr(layer, "adopt_segment"):
            return layer
    return None


def sweep_stale_segments(runtime, keep: Iterable[int] = ()) -> List[int]:
    """Unlink this rank's leftover shm blocks from a dead predecessor.

    Skips the ids in ``keep`` and any segment the current incarnation
    already owns (created or adopted).  Returns the unlinked ids; a no-op
    (empty list) on non-shm runtimes.
    """
    shm = _shm_runtime(runtime)
    if shm is None:
        return []
    keep_ids = {int(s) for s in keep} | set(shm._local)
    swept: List[int] = []
    for sid in shm.world.stale_segments(shm.rank):
        if sid in keep_ids:
            continue
        if shm.world.unlink_segment(shm.rank, sid):
            swept.append(sid)
    if swept:
        logger.info(
            "rank %d: swept %d stale segment(s) from dead predecessor: %s",
            shm.rank, len(swept), swept,
        )
    return swept


def _ensure_workspace(runtime: GaspiRuntime, segment_id: int, nbytes: int) -> bool:
    """Make the rejoin exchange segment available; True if adopted.

    Three cases, tried in order: the segment already exists on this rank
    (in-place recovery — the crashed dispatch created it before dying);
    a dead predecessor's block can be adopted (shm respawn); otherwise a
    fresh segment is created (the crash happened before this rank's
    ``segment_create``).
    """
    from ..gaspi.errors import GaspiError

    try:
        runtime.segment_size(segment_id)
        return False  # already ours
    except GaspiError:
        pass
    shm = _shm_runtime(runtime)
    if shm is not None:
        try:
            drained = shm.adopt_segment(segment_id)
            logger.info(
                "rank %d: adopted predecessor's segment %d "
                "(%d stale notification(s) drained)",
                shm.rank, segment_id, len(drained),
            )
            return True
        except GaspiError:
            pass
    runtime.segment_create(segment_id, max(int(nbytes), 8))
    return False


def rejoin(
    comm: Communicator,
    sendbuf: np.ndarray,
    *,
    targets: Optional[Iterable[int]] = None,
    advance: bool = False,
    min_peers: Optional[int] = None,
    timeout: float = DEFAULT_REJOIN_TIMEOUT,
    queue: int = 0,
) -> int:
    """Re-drive this rank's contribution into the degraded exchange.

    The recovered/respawned half of the re-convergence protocol.  By
    default the exchange is the one this communicator last dispatched
    (:attr:`~repro.core.api.Communicator.last_segment_id` — segment ids
    are reserved in SPMD lock-step, so even a rank that crashed
    mid-dispatch observes the survivors' id).  A freshly *restored* rank
    that never dispatched passes ``advance=True`` to allocate the next
    id and bump the sequence number, aligning its counters with the
    survivors that did dispatch.

    Delivery is retried until ``min_peers`` peers (default: all of them)
    accepted the write or ``timeout`` expired — the replacement races the
    survivors' workspace creation, and duplicate sends are idempotent on
    the receiving side.  Returns the number of peers reached.
    """
    sendbuf = np.ascontiguousarray(sendbuf)
    tel = comm.telemetry
    t0 = CLOCK() if tel.enabled else 0.0
    recovered = recover_crashed(comm)
    if advance:
        segment_id = comm._last_segment_id = comm._pool.reserve_id()
        comm._collective_seq += 1
    else:
        segment_id = comm.last_segment_id
        require(
            segment_id is not None,
            "rejoin needs a dispatched collective to rejoin (or advance=True "
            "after a restore)",
        )
    peers = sorted(
        {int(p) for p in (targets if targets is not None else range(comm.size))}
        - {comm.rank}
    )
    needed = len(peers) if min_peers is None else min(int(min_peers), len(peers))
    adopted = _ensure_workspace(
        comm.runtime, segment_id, comm.size * sendbuf.nbytes
    )
    pending = set(peers)
    reached = 0
    backoff = Backoff(
        _REJOIN_BACKOFF, timeout=float(timeout), seed=comm.rank
    )
    while pending:
        got = send_late_contribution(
            comm.runtime, sendbuf, segment_id, targets=sorted(pending), queue=queue
        )
        pending -= set(got)
        reached = len(peers) - len(pending)
        if reached >= needed or not pending:
            break
        if not backoff.sleep():
            break
    require(
        reached >= needed,
        f"rejoin reached only {reached}/{needed} peer(s) within {timeout}s "
        f"(still unreachable: {sorted(pending)})",
    )
    logger.info(
        "rank %d: rejoined exchange %d (%d/%d peer(s), %s)",
        comm.rank, segment_id, reached, len(peers),
        "adopted predecessor workspace" if adopted
        else ("recovered in place" if recovered else "fresh workspace"),
    )
    if tel.enabled:
        t1 = CLOCK()
        tel.counter("elastic.respawns").add()
        tel.histogram("elastic.respawn_s").observe(t1 - t0)
        tel.record_span(
            "respawn", "elastic", t0, t1,
            {"segment_id": segment_id, "peers": reached,
             "recovered_in_place": recovered, "advance": advance},
        )
    return reached
