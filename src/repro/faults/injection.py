"""Deterministic fault injection for the GASPI substrate.

The paper's consistency dials (data/process thresholds, SSP slack) promise
that collectives complete *without* waiting for every rank — but that
promise is only testable if ranks can actually be late, lossy or dead.
This module makes them so, deterministically:

* :class:`FaultPlan` — a declarative description of what goes wrong:
  per-rank crash-at-operation, per-rank send delays (fixed and seeded
  jitter, in the style of :mod:`repro.ssp.perturbation`), probabilistic or
  link-targeted message drops with an optional op-index window
  (partition-then-heal), and per-rank arrival skew applied at collective
  entry (Proficz-style process-arrival patterns).
* :class:`FaultyRuntime` — a decorator around any
  :class:`~repro.gaspi.runtime.GaspiRuntime` (threaded or group-scoped)
  that perturbs the data-plane operations (``write``, ``notify``,
  ``write_notify``) according to the plan.  A crashed rank raises
  :class:`RankCrashedError` from every subsequent operation until
  :meth:`FaultyRuntime.recover` is called — a recovered rank models the
  "failed process re-contributes late" regime of Küttler-style corrected
  collectives.
* :func:`degrade_schedule` — applies the same plan to a
  :class:`~repro.core.schedule.CommunicationSchedule`, so the simulator
  backend replays the identical failure scenario on a machine model.

All randomness (jitter, probabilistic drops) is a pure function of
``(seed, rank(s), operation index)``, so repeated runs are identical.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Optional, Tuple

import numpy as np

from ..gaspi.constants import (
    DEFAULT_NOTIFICATION_COUNT,
    DEFAULT_NOTIFICATION_VALUE,
    GASPI_BLOCK,
)
from ..gaspi.errors import GaspiError
from ..gaspi.group import Group
from ..gaspi.runtime import GaspiRuntime, RuntimeWrapper
from ..utils.logging import get_logger
from ..utils.validation import require

logger = get_logger("faults.injection")

# Salt values keeping the drop / jitter RNG streams independent.
_DROP_SALT = 7919
_JITTER_SALT = 104729


class RankCrashedError(GaspiError):
    """Raised by a :class:`FaultyRuntime` whose rank has crashed.

    Attributes
    ----------
    rank:
        The crashed rank (in the wrapped runtime's numbering).
    step:
        Index of the data-plane operation at which the crash fired.
    """

    def __init__(self, rank: int, step: int) -> None:
        self.rank = int(rank)
        self.step = int(step)
        super().__init__(
            f"rank {rank} crashed at data-plane operation {step} "
            f"(injected by the fault plan)"
        )


@dataclass
class FaultPlan:
    """Declarative description of injected faults for one world.

    Attributes
    ----------
    crash_at:
        ``rank -> op index``: the rank raises :class:`RankCrashedError`
        when it is about to issue its ``op index``-th data-plane operation
        (``0`` = before the first write/notify, i.e. the rank contributes
        nothing).
    delay:
        ``rank -> seconds``: fixed extra latency added before every
        data-plane operation of that rank (a persistent straggler).
    jitter:
        Amplitude in seconds of seeded per-operation uniform jitter added
        on top of ``delay`` (OS-noise model).
    drop_probability:
        Probability in ``[0, 1]`` that any individual message is silently
        dropped (seeded, per ``(src, dst, op)``).
    drop_links:
        Set of ``(src, dst)`` pairs whose messages are always dropped
        while inside :attr:`drop_window` — the substrate of network
        partitions.
    drop_window:
        ``(start_op, end_op)`` half-open window of *sender* op indices in
        which :attr:`drop_links` applies; ``end_op=None`` means forever,
        ``None`` means the whole run.  A finite window models
        partition-then-heal.
    skew:
        ``rank -> seconds`` slept at collective entry (a process-arrival
        pattern offset); applied by the Communicator, not per operation.
    skew_fn:
        Optional ``(rank, collective_index) -> seconds`` callable for
        skews that change over time (rolling stragglers).
    seed:
        Seed of the drop/jitter RNG streams.
    """

    crash_at: Dict[int, int] = field(default_factory=dict)
    delay: Dict[int, float] = field(default_factory=dict)
    jitter: float = 0.0
    drop_probability: float = 0.0
    drop_links: FrozenSet[Tuple[int, int]] = frozenset()
    drop_window: Optional[Tuple[int, Optional[int]]] = None
    skew: Dict[int, float] = field(default_factory=dict)
    skew_fn: Optional[Callable[[int, int], float]] = None
    seed: int = 0

    def __post_init__(self) -> None:
        for rank, step in self.crash_at.items():
            require(rank >= 0 and step >= 0, "crash_at wants rank >= 0, step >= 0")
        for rank, seconds in self.delay.items():
            require(rank >= 0 and seconds >= 0.0, "delays must be non-negative")
        require(self.jitter >= 0.0, "jitter amplitude must be non-negative")
        require(
            0.0 <= self.drop_probability <= 1.0,
            f"drop_probability must be in [0, 1], got {self.drop_probability}",
        )
        for rank, seconds in self.skew.items():
            require(rank >= 0 and seconds >= 0.0, "skews must be non-negative")
        self.drop_links = frozenset(
            (int(s), int(d)) for s, d in self.drop_links
        )

    # ------------------------------------------------------------------ #
    # constructors for the common shapes
    # ------------------------------------------------------------------ #
    @classmethod
    def none(cls, seed: int = 0) -> "FaultPlan":
        """A benign plan (control runs)."""
        return cls(seed=seed)

    @classmethod
    def single_crash(cls, rank: int, at_op: int = 0, seed: int = 0) -> "FaultPlan":
        """One rank dies at its ``at_op``-th data-plane operation."""
        return cls(crash_at={int(rank): int(at_op)}, seed=seed)

    @classmethod
    def crashes(cls, ranks, at_op: int = 0, seed: int = 0) -> "FaultPlan":
        """Several ranks die at the same operation index."""
        return cls(crash_at={int(r): int(at_op) for r in ranks}, seed=seed)

    @classmethod
    def partition(
        cls,
        group_a,
        group_b,
        heal_at_op: Optional[int] = None,
        seed: int = 0,
    ) -> "FaultPlan":
        """Drop every message between two rank groups, healing at an op index."""
        links = frozenset(
            link
            for a in group_a
            for b in group_b
            for link in ((int(a), int(b)), (int(b), int(a)))
        )
        window = (0, int(heal_at_op)) if heal_at_op is not None else None
        return cls(drop_links=links, drop_window=window, seed=seed)

    # ------------------------------------------------------------------ #
    # queries (the FaultyRuntime / simulator contract)
    # ------------------------------------------------------------------ #
    @property
    def is_benign(self) -> bool:
        """True when the plan perturbs nothing at all."""
        return (
            not self.crash_at
            and not self.delay
            and self.jitter == 0.0
            and self.drop_probability == 0.0
            and not self.drop_links
            and not self.skew
            and self.skew_fn is None
        )

    @property
    def can_lose_contributions(self) -> bool:
        """True when the plan can make a contribution never arrive.

        Crashes and message drops lose data and therefore need the
        fault-tolerant collectives; pure timing perturbations (delay,
        jitter, arrival skew) only make ranks late, so the tuned regular
        algorithms remain the right ``auto`` choice under them.
        """
        return bool(
            self.crash_at or self.drop_probability > 0.0 or self.drop_links
        )

    def crash_step(self, rank: int) -> Optional[int]:
        """Op index at which ``rank`` crashes, or ``None``."""
        return self.crash_at.get(int(rank))

    def recover(self, rank: int) -> None:
        """Forget a rank's crash so it may contribute late (Küttler-style)."""
        self.crash_at.pop(int(rank), None)

    def _in_drop_window(self, op_index: int) -> bool:
        if self.drop_window is None:
            return True
        start, end = self.drop_window
        return op_index >= start and (end is None or op_index < end)

    def should_drop(self, src: int, dst: int, op_index: int) -> bool:
        """Whether the sender's ``op_index``-th message to ``dst`` is lost."""
        if (int(src), int(dst)) in self.drop_links and self._in_drop_window(op_index):
            return True
        if self.drop_probability > 0.0:
            rng = np.random.default_rng((self.seed, _DROP_SALT, src, dst, op_index))
            return bool(rng.random() < self.drop_probability)
        return False

    def send_delay(self, rank: int, op_index: int) -> float:
        """Seconds of extra latency before the rank's ``op_index``-th op."""
        extra = self.delay.get(int(rank), 0.0)
        if self.jitter > 0.0:
            rng = np.random.default_rng((self.seed, _JITTER_SALT, rank, op_index))
            extra += float(rng.uniform(0.0, self.jitter))
        return extra

    def arrival_skew(self, rank: int, collective_index: int = 0) -> float:
        """Seconds the rank arrives late to its ``collective_index``-th call."""
        base = self.skew.get(int(rank), 0.0)
        if self.skew_fn is not None:
            base += float(self.skew_fn(int(rank), int(collective_index)))
        return base

    def arrival_offsets(self, num_ranks: int, collective_index: int = 0) -> List[float]:
        """Per-rank arrival offsets, in the simulator's ``rank_offsets`` form."""
        return [self.arrival_skew(r, collective_index) for r in range(num_ranks)]

    def describe(self) -> str:
        """Short human-readable form for reports and schedule metadata."""
        parts = []
        if self.crash_at:
            parts.append(f"crash={dict(sorted(self.crash_at.items()))}")
        if self.delay:
            parts.append(f"delay={dict(sorted(self.delay.items()))}")
        if self.jitter:
            parts.append(f"jitter={self.jitter:g}s")
        if self.drop_probability:
            parts.append(f"drop_p={self.drop_probability:g}")
        if self.drop_links:
            parts.append(f"links_cut={len(self.drop_links)}")
            if self.drop_window is not None:
                parts.append(f"window={self.drop_window}")
        if self.skew or self.skew_fn is not None:
            parts.append("skewed-arrival")
        return ", ".join(parts) or "benign"


class FaultyRuntime(RuntimeWrapper):
    """A fault-injecting decorator around any GASPI runtime.

    Data-plane operations (``write``, ``notify``, ``write_notify``,
    ``write_notify_from``) are counted per rank; before each one the plan
    is consulted for a crash, a delay and a drop.  Control-plane operations
    (barriers, waits, notification waits / probes / drains, segment
    creation and binding, atomics) only check liveness: a crashed rank can
    no longer take part in synchronisation, but purely local reads
    (``segment_view`` / ``segment_size`` / ``segment_read``,
    ``notify_peek`` / ``notify_reset``) and ``segment_delete`` stay the
    inner runtime's own, so a post-mortem inspection of its state is
    possible.

    Wrapping composes with :class:`~repro.gaspi.subruntime.GroupRuntime`
    in either order; ranks and targets are interpreted in the wrapped
    runtime's numbering.
    """

    def __init__(self, inner: GaspiRuntime, plan: FaultPlan) -> None:
        super().__init__(inner)
        self._plan = plan
        self._ops = 0
        self._crashed = False
        # Fixed per wrapper, read on every post: the rank through the
        # wrapper stack, and the crash step (only recover() changes it).
        self._rank = inner.rank
        self._crash_step = plan.crash_step(self._rank)

    # -- introspection ---------------------------------------------------- #
    @property
    def plan(self) -> FaultPlan:
        """The fault plan driving this wrapper."""
        return self._plan

    @property
    def fault_injected(self) -> bool:
        # Advertised only for plans that can actually lose contributions:
        # auto-selection should not pay the flat tolerant algorithms' cost
        # to guard against a plan that merely delays ranks.
        return self._plan.can_lose_contributions

    @property
    def ops_performed(self) -> int:
        """Number of data-plane operations attempted so far by this rank."""
        return self._ops

    @property
    def is_crashed(self) -> bool:
        """True once the plan's crash for this rank has fired."""
        return self._crashed

    def recover(self) -> None:
        """Bring a crashed rank back (it may now contribute late)."""
        self._crashed = False
        self._crash_step = None
        self._plan.recover(self._rank)

    # -- fault machinery -------------------------------------------------- #
    def _data_plane_op(self, target_rank: int) -> bool:
        """Account one op; returns False when the message must be dropped.

        The plan is asked only for what its fields say can fire — tested
        per call, the plan is mutable — so an empty plan costs a post the
        liveness check and the op count.
        """
        if self._crashed:
            raise RankCrashedError(self._rank, self._ops)
        rank = self._rank
        step = self._ops
        self._ops = step + 1
        crash = self._crash_step
        if crash is not None and step >= crash:
            self._crashed = True
            logger.debug("rank %d: injected crash at data-plane op %d", rank, step)
            raise RankCrashedError(rank, step)
        plan = self._plan
        if plan.delay or plan.jitter:
            pause = plan.send_delay(rank, step)
            if pause > 0.0:
                time.sleep(pause)
        if (plan.drop_links or plan.drop_probability) and plan.should_drop(
            rank, target_rank, step
        ):
            logger.debug(
                "rank %d: injected drop of op %d toward rank %d",
                rank, step, target_rank,
            )
            return False
        return True

    # -- one-sided communication (perturbed) ------------------------------ #
    def write(
        self,
        segment_id_local: int,
        offset_local: int,
        target_rank: int,
        segment_id_remote: int,
        offset_remote: int,
        size: int,
        queue: int = 0,
    ) -> None:
        if self._data_plane_op(target_rank):
            self.inner.write(
                segment_id_local, offset_local, target_rank, segment_id_remote,
                offset_remote, size, queue,
            )

    def notify(
        self,
        target_rank: int,
        segment_id_remote: int,
        notification_id: int,
        notification_value: int = DEFAULT_NOTIFICATION_VALUE,
        queue: int = 0,
    ) -> None:
        if self._data_plane_op(target_rank):
            self.inner.notify(
                target_rank, segment_id_remote, notification_id, notification_value, queue
            )

    def write_notify(
        self,
        segment_id_local: int,
        offset_local: int,
        target_rank: int,
        segment_id_remote: int,
        offset_remote: int,
        size: int,
        notification_id: int,
        notification_value: int = DEFAULT_NOTIFICATION_VALUE,
        queue: int = 0,
    ) -> None:
        if self._data_plane_op(target_rank):
            self.inner.write_notify(
                segment_id_local, offset_local, target_rank, segment_id_remote,
                offset_remote, size, notification_id, notification_value, queue,
            )

    def write_notify_from(
        self,
        source: np.ndarray,
        target_rank: int,
        segment_id_remote: int,
        offset_remote: int,
        notification_id: int,
        notification_value: int = DEFAULT_NOTIFICATION_VALUE,
        queue: int = 0,
    ) -> None:
        if self._data_plane_op(target_rank):
            self.inner.write_notify_from(
                source, target_rank, segment_id_remote, offset_remote,
                notification_id, notification_value, queue,
            )

    # -- control plane (liveness-checked, then the inner runtime's own) --- #
    def segment_create(
        self,
        segment_id: int,
        size: int,
        num_notifications: int = DEFAULT_NOTIFICATION_COUNT,
    ) -> None:
        if self._crashed:
            raise RankCrashedError(self._rank, self._ops)
        self.inner.segment_create(segment_id, size, num_notifications)

    def segment_bind(self, segment_id: int, array: np.ndarray) -> None:
        if self._crashed:
            raise RankCrashedError(self._rank, self._ops)
        self.inner.segment_bind(segment_id, array)

    def notify_waitsome(
        self,
        segment_id_local: int,
        notification_begin: int = 0,
        notification_count: Optional[int] = None,
        timeout: float = GASPI_BLOCK,
    ) -> Optional[int]:
        if self._crashed:
            raise RankCrashedError(self._rank, self._ops)
        return self.inner.notify_waitsome(
            segment_id_local, notification_begin, notification_count, timeout
        )

    def notify_probe(
        self,
        segment_id_local: int,
        notification_begin: int = 0,
        notification_count: Optional[int] = None,
    ) -> bool:
        if self._crashed:
            raise RankCrashedError(self._rank, self._ops)
        return self.inner.notify_probe(
            segment_id_local, notification_begin, notification_count
        )

    def notify_drain(
        self,
        segment_id_local: int,
        notification_begin: int = 0,
        notification_count: Optional[int] = None,
    ) -> dict:
        if self._crashed:
            raise RankCrashedError(self._rank, self._ops)
        return self.inner.notify_drain(
            segment_id_local, notification_begin, notification_count
        )

    def wait(self, queue: int = 0, timeout: float = GASPI_BLOCK) -> None:
        if self._crashed:
            raise RankCrashedError(self._rank, self._ops)
        self.inner.wait(queue, timeout)

    def barrier(self, group: Optional[Group] = None, timeout: float = GASPI_BLOCK) -> None:
        if self._crashed:
            raise RankCrashedError(self._rank, self._ops)
        self.inner.barrier(group, timeout)

    def atomic_fetch_add(
        self, segment_id: int, offset: int, target_rank: int, value: int
    ) -> int:
        if self._crashed:
            raise RankCrashedError(self._rank, self._ops)
        return self.inner.atomic_fetch_add(segment_id, offset, target_rank, value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "crashed" if self._crashed else f"ops={self._ops}"
        return f"FaultyRuntime(rank={self.rank}, {state}, plan=[{self._plan.describe()}])"


def degrade_schedule(schedule, plan: FaultPlan):
    """Apply a fault plan to a communication schedule (simulator replay).

    Messages from a crashed sender (its per-schedule op index having
    reached the crash step), messages *to* a crashed rank (they land in
    the void — nobody processes them, so no live rank's completion may be
    gated by them) and dropped messages are removed; everything else —
    round structure, local compute, barriers — is preserved.  Op indices
    are counted per sender *within this schedule*, so a scenario replays
    identically no matter what ran before it.

    Note the deliberate divergence from the threaded substrate implied by
    that choice: a :class:`FaultyRuntime` counts data-plane operations
    cumulatively across a rank's whole run, while the replay restarts at
    zero for every schedule.  Plans with op-indexed faults (``late_crash``,
    ``partition_heal``) therefore re-apply their window to each simulated
    collective rather than to the position the run had actually reached —
    replay a multi-collective run collective-by-collective with adjusted
    op indices if threaded/simulated agreement matters beyond ``at_op=0``.
    """
    from ..core.schedule import CommunicationSchedule

    ops: Dict[int, int] = {}
    dropped = 0
    out = CommunicationSchedule(
        name=f"{schedule.name}[{plan.describe()}]",
        num_ranks=schedule.num_ranks,
        metadata={
            **schedule.metadata,
            "fault_plan": plan.describe(),
        },
    )
    for rnd in schedule.rounds:
        kept = []
        for message in rnd.messages:
            op = ops.get(message.src, 0)
            ops[message.src] = op + 1
            crash = plan.crash_step(message.src)
            if crash is not None and op >= crash:
                dropped += 1
                continue
            if plan.crash_step(message.dst) is not None:
                dropped += 1
                continue
            if plan.should_drop(message.src, message.dst, op):
                dropped += 1
                continue
            kept.append(message)
        if kept or rnd.local_compute or rnd.barrier_after:
            out.add_round(
                kept,
                local_compute=rnd.local_compute,
                barrier_after=rnd.barrier_after,
                label=rnd.label,
            )
    out.metadata["dropped_messages"] = dropped
    return out
