"""Phase runner of the gated benchmark: worlds, timed rounds, verification.

Load model: closed loop, SPMD.  Every rank issues its next collective when
its previous one returns.  A *phase* is one workload on one backend for a
time budget, run as several short *worlds* (2 ranks, threads or forked
processes) whose rounds are pooled; a round runs one homogeneous block per
shape, in a seeded order.  The number of rounds of a world is agreed inside
it after warm-up from the measured round time, so a phase fills its budget
on any machine.

Every call is timed on every rank with ``time.perf_counter`` (one clock
for all processes on Linux).  The completion latency of a call is the
maximum over ranks of its duration; the time of a round is the maximum
over ranks of the sum of its call durations, which leaves the untimed
input refresh, output check and block fence out of every number.
"""

from __future__ import annotations

import gc
import glob
import multiprocessing
import os
import re
import resource
import threading
import time
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from multiprocessing import resource_tracker
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import Communicator, FaultPlan, GaspiError, Telemetry, run_backend
from repro.health import HeartbeatDetector

from workloads import FULL, WORKLOADS, Shape

CLOCK = time.perf_counter

RANKS = 2
BACKENDS = ("threaded", "shm")

#: Every communicator of the benchmark owns a disjoint segment-id range
#: (the library's default span), two per stack slot.
_SPAN = 1 << 30
_FIRST_SEGMENT = 200

#: Rounds per variant a phase runs at least, however slow the box.
MIN_ROUNDS = 30
_MAX_ROUNDS = 20_000
_WARM_ROUNDS = 2
#: File descriptors one shm world may leak before the phase moves to a fresh one.
_FD_BUDGET = 4096


class Stack:
    """The communicators one variant of a workload issues its collectives on.

    ``faults`` attaches an empty fault plan and ``split`` moves the
    collectives to a ``split(0)`` child, as the wrapped workload does; any
    other keyword goes to the :class:`Communicator` constructor.
    """

    def __init__(
        self,
        rt,
        slot: int,
        *,
        telemetry: Optional[Telemetry] = None,
        faults: bool = False,
        split: bool = False,
        cold: bool = False,
        **comm_kwargs,
    ) -> None:
        base = _FIRST_SEGMENT + 2 * slot * _SPAN
        self.telemetry = telemetry
        if faults:
            comm_kwargs["faults"] = FaultPlan()
        main = Communicator(rt, segment_base=base, telemetry=telemetry, **comm_kwargs)
        self._owned = [main]
        if split:
            main = main.split(0)
            self._owned.insert(0, main)  # a child closes before its parent
        self.comms = {"main": main}
        if cold:
            self.comms["cold"] = Communicator(
                rt, segment_base=base + _SPAN, plan_cache=0, telemetry=telemetry
            )
            self._owned.append(self.comms["cold"])

    def close(self) -> None:
        for comm in self._owned:
            comm.close()


def workload_stack(rt, workload, slot: int, traced: bool) -> Stack:
    """The stack a workload runs on; ``traced`` adds a registry for the counts."""
    telemetry = None
    if traced:
        # Spans come from the benchmark's own timestamps; the registry only
        # counts, so it keeps no event timeline.
        telemetry = Telemetry(rank=rt.rank, max_events=0)
    elif workload.wrapped:
        telemetry = Telemetry(rank=rt.rank)
    return Stack(
        rt,
        slot,
        telemetry=telemetry,
        faults=workload.wrapped,
        split=workload.wrapped,
        cold=any(s.comm_key == "cold" for s in workload.shapes()),
    )


def _registry_totals(telemetry: Optional[Telemetry]) -> Dict[str, float]:
    """Counter values and histogram sums of a registry, flat by name."""
    if telemetry is None:
        return {}
    snap = telemetry.snapshot()
    totals = dict(snap["counters"])
    totals.update({name: h["sum"] for name, h in snap["histograms"].items()})
    return totals


@contextmanager
def placed(backend: str):
    """Put the calling rank where its backend measures steadily.

    Threaded ranks share the interpreter lock, so only one of them runs at a
    time; left to the scheduler they sometimes share a core and sometimes
    do not, and the hand-off between them costs less than half as much when
    they do, so an unpinned threaded world runs at one of two speeds a factor
    of two apart (and keeps it for seconds, or for the whole process).  Both
    rank threads are therefore pinned to one core.  Shm ranks busy-poll and
    are left to the scheduler, which measured faster and steadier than one
    pinned core each.
    """
    if backend != "threaded":
        yield
        return
    before = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(before)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, before)


def _open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


@dataclass
class PhasePlan:
    workload: str
    seed: int
    budget_s: float
    #: "plain" rounds alternate with "traced" ones in a traced run.
    variants: Tuple[str, ...] = ("plain",)
    min_rounds: int = MIN_ROUNDS
    #: Fixed round count and block cap of the count-only 8-rank pass.
    rounds: Optional[int] = None
    block_cap: Optional[int] = None
    #: Set by the driver when the phase timed out (threaded ranks poll it).
    cancel: threading.Event = field(default_factory=threading.Event, compare=False)


class _Rounds:
    """Timestamps of ``n`` rounds on one rank."""

    def __init__(self, n: int, blocks: Sequence[int]) -> None:
        self.n = n
        self.t0 = [np.zeros(n * k) for k in blocks]
        self.t1 = [np.zeros(n * k) for k in blocks]
        self.round_t0 = np.zeros(n)
        self.round_t1 = np.zeros(n)


def _agree_on_rounds(rt, plan: PhasePlan, warm: _Rounds, fds_at_start: int) -> int:
    """Round count every rank of the world will run, from what warm-up measured.

    The slowest rank's warm round sets how many rounds fill the budget.  On
    shm the count is also capped by file descriptors: the runtime leaks one
    to three per segment it creates (README, "Known defects"); its calls slow
    down as they pile up, and a world that reaches ``ulimit -n`` wedges.  So a
    world stops after leaking ``_FD_BUDGET`` descriptors (or at 80 % of the
    limit, if that comes first); the phase's next world starts clean.
    """
    nv = len(plan.variants)
    round_s = float(np.mean((warm.round_t1 - warm.round_t0)[-nv:]))
    leaked = (_open_fds() - fds_at_start) / warm.n
    fd_rounds = float(_MAX_ROUNDS)
    if leaked > 0:
        limit = resource.getrlimit(resource.RLIMIT_NOFILE)[0]
        room = float("inf") if limit == resource.RLIM_INFINITY else 0.8 * limit - _open_fds()
        fd_rounds = min(room, _FD_BUDGET) / leaked
    control = Communicator(rt, segment_base=_FIRST_SEGMENT + 62 * _SPAN, plan_cache=0)
    round_s, fd_rounds = control.allreduce(np.array([round_s, -fd_rounds]), op="max")
    control.close()
    per_variant = min(
        max(int(plan.budget_s / (round_s * nv)), plan.min_rounds),
        int(-fd_rounds) // nv,
        _MAX_ROUNDS,
    )
    if per_variant < 1:
        raise RuntimeError("ulimit -n leaves no room for one round of this workload")
    return nv * per_variant


def rank_phase(rt, plan: PhasePlan, backend: str) -> dict:
    """One rank's side of one world of a phase (runs in the rank thread or process)."""
    with placed(backend):
        return _rank_phase(rt, plan)


def _rank_phase(rt, plan: PhasePlan) -> dict:
    span_t0 = CLOCK()
    workload = WORKLOADS[plan.workload]
    shapes: List[Shape] = workload.shapes()
    for shape in shapes:
        shape.prepare(rt.rank, rt.size, plan.seed)
    blocks = [shape.block_for(plan.block_cap) for shape in shapes]
    nv = len(plan.variants)
    fds_at_start = _open_fds()
    detector = HeartbeatDetector(rt).start() if workload.wrapped else None
    stacks = [
        workload_stack(rt, workload, slot, traced=(variant == "traced"))
        for slot, variant in enumerate(plan.variants)
    ]
    calls = [0] * len(shapes)  # per shape, counted across warm-up and variants
    bad: List[Tuple[int, int]] = []  # (shape, call number) of every wrong output
    order_rng = np.random.default_rng([plan.seed, 0x0D0E])

    def run_rounds(rec: _Rounds) -> int:
        done = 0
        for rnd in range(rec.n):
            if plan.cancel.is_set():
                break
            stack = stacks[rnd % nv]
            order = order_rng.permutation(len(shapes))
            rec.round_t0[rnd] = CLOCK()
            for si in order:
                shape, k = shapes[si], blocks[si]
                comm = stack.comms[shape.comm_key]
                t0, t1 = rec.t0[si], rec.t1[si]
                for at in range(rnd * k, (rnd + 1) * k):
                    i = calls[si]
                    calls[si] = i + 1
                    # The last call of a block is refreshed and compared whole.
                    sel = FULL if at == (rnd + 1) * k - 1 else shape.sample
                    shape.fill(comm, i, sel)
                    t0[at] = CLOCK()
                    shape.call(comm)
                    t1[at] = CLOCK()
                    if not shape.check(comm, i, sel):
                        bad.append((int(si), i))
                # The whole-buffer compare costs the ranks unequal time (a
                # reduce has nothing to compare off the root); the fence keeps
                # that skew out of the next block's first call.
                rt.barrier()
            rec.round_t1[rnd] = CLOCK()
            done += 1
        return done

    try:
        warm = _Rounds(_WARM_ROUNDS * nv, blocks)
        run_rounds(warm)
        rounds = plan.rounds or _agree_on_rounds(rt, plan, warm, fds_at_start)
        before = [_registry_totals(s.telemetry) for s in stacks]
        caches = [s.comms["main"].plan_cache_stats() for s in stacks]
        rec = _Rounds(rounds, blocks)
        gc.collect()
        gc.disable()
        try:
            done = run_rounds(rec)
        finally:
            gc.enable()
        after = [_registry_totals(s.telemetry) for s in stacks]
        cache = []
        for stack, was in zip(stacks, caches):
            now = stack.comms["main"].plan_cache_stats()
            cache.append((now.hits - was.hits, now.misses - was.misses))
    finally:
        for stack in stacks:
            stack.close()
        if detector is not None:
            detector.stop()
    return {
        "rank": rt.rank,
        "rounds": rounds,
        "done": done,
        "t0": rec.t0,
        "t1": rec.t1,
        "round_t0": rec.round_t0,
        "round_t1": rec.round_t1,
        "bad": bad,
        "counts": [
            {name: now[name] - was.get(name, 0) for name in now}
            for was, now in zip(before, after)
        ],
        "cache": cache,
        "ahead": tuple(map(sum, zip(*(s.allreduce_counts() for s in shapes)))),
        "spans": [(span_t0, CLOCK(), rounds)],
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }


def _join_worlds(worlds: List[List[dict]]) -> List[dict]:
    """Per rank, the records of a phase's successive worlds as one record.

    Timestamps are laid out round-major, and a world always runs whole
    rounds of every variant in turn, so concatenation keeps both layouts.
    """
    joined = []
    for recs in zip(*worlds):
        first = recs[0]
        joined.append({
            "rank": first["rank"],
            "rounds": sum(r["rounds"] for r in recs),
            "done": sum(r["done"] for r in recs),
            "t0": [np.concatenate(parts) for parts in zip(*(r["t0"] for r in recs))],
            "t1": [np.concatenate(parts) for parts in zip(*(r["t1"] for r in recs))],
            "round_t0": np.concatenate([r["round_t0"] for r in recs]),
            "round_t1": np.concatenate([r["round_t1"] for r in recs]),
            "bad": [(w, *call) for w, r in enumerate(recs) for call in r["bad"]],
            "counts": [
                {name: sum(r["counts"][v].get(name, 0) for r in recs) for name in first["counts"][v]}
                for v in range(len(first["counts"]))
            ],
            "cache": [tuple(map(sum, zip(*(r["cache"][v] for r in recs))))
                      for v in range(len(first["cache"]))],
            "ahead": tuple(map(sum, zip(*(r["ahead"] for r in recs)))),
            "spans": [span for r in recs for span in r["spans"]],
            "maxrss_kb": max(r["maxrss_kb"] for r in recs),
        })
    return joined


@dataclass
class Phase:
    """One finished phase: its worlds joined, its ranks merged."""

    workload: str
    backend: str
    size: int
    variants: Tuple[str, ...]
    shape_names: List[str]
    blocks: List[int]
    rounds: int = 0
    #: Completion latency per call (max over ranks), one array per shape.
    latency: List[np.ndarray] = field(default_factory=list)
    #: Per rank, the sum of each round's call durations; a round's time is
    #: the maximum over ranks.
    rank_round_time: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))
    attempted: int = 0
    failed: int = 0
    error: str = ""
    leaked_blocks: int = 0
    per_rank: List[dict] = field(default_factory=list)

    @property
    def ops_per_round(self) -> int:
        return sum(self.blocks)

    @property
    def round_time(self) -> np.ndarray:
        return self.rank_round_time.max(axis=0)

    def variant_rounds(self, variant: str) -> slice:
        return slice(self.variants.index(variant), None, len(self.variants))

    def round_rates(self, variant: str) -> np.ndarray:
        return self.ops_per_round / self.round_time[self.variant_rounds(variant)]

    def shape_latency(self, si: int, variant: str) -> np.ndarray:
        """Completion latencies of one shape, one row per round."""
        by_round = self.latency[si].reshape(self.rounds, self.blocks[si])
        return by_round[self.variant_rounds(variant)]

    # The box has two states.  Most of the time it is quiet and rounds repeat
    # within a few percent; for episodes of seconds to a minute a neighbour
    # takes cycles and every wake-up costs more (threaded rates drop by a
    # third, shm rates by more).  A median over a run's rounds reports
    # whichever state filled more of the run (measured: 30 % apart between
    # runs of one commit).  The quiet decile of the rounds does not move
    # until an episode covers nine tenths of a run.
    def quiet_rate(self, variant: str) -> float:
        """Collectives per second of the run's quiet rounds (their 90th percentile)."""
        return float(np.percentile(self.round_rates(variant), 90))

    def quiet_latency(self, si: int, variant: str) -> float:
        """Median latency of a shape in the run's quiet rounds.

        The median is taken inside each round's block; the 10th percentile
        of those medians picks the quiet rounds.
        """
        return float(np.percentile(np.median(self.shape_latency(si, variant), axis=1), 10))

    def op_time(self, variant: str) -> float:
        """Seconds the ranks spent inside this variant's calls, summed over ranks."""
        return float(self.rank_round_time[:, self.variant_rounds(variant)].sum())

    def count(self, variant: str, name: str) -> float:
        """A registry total of one variant, summed over ranks."""
        v = self.variants.index(variant)
        return sum(rec["counts"][v].get(name, 0) for rec in self.per_rank)

    def ops(self, variant: str) -> int:
        return self.ops_per_round * len(range(self.rounds)[self.variant_rounds(variant)])


def _swept_shm_blocks() -> int:
    """Unlink and count ``/dev/shm/repro-*`` blocks a finished world left."""
    left = glob.glob("/dev/shm/repro-*")
    for path in left:
        try:
            os.unlink(path)
        except OSError:
            pass
    return len(left)


def stop_children() -> None:
    """Stop every process this run started and wait until each has ended.

    ``run_shm`` terminates and joins its ranks itself; one that outlives
    that is killed here.  The other child is :mod:`multiprocessing`'s
    resource tracker, started with the first shared-memory block: it ends
    only when its parent has closed the pipe to it, which otherwise happens
    at interpreter exit, so it outlives the run by a moment and is left to
    init as an orphan.  The tracker's ``_stop`` closes the pipe and waits
    for it (a later world restarts it on demand).
    """
    for proc in multiprocessing.active_children():
        proc.kill()
        proc.join()
    resource_tracker._resource_tracker._stop()


@dataclass
class World:
    """One launched world of a phase: its ranks' records, or why there are none."""

    per_rank: Optional[List[dict]]
    error: str
    leaked_blocks: int


def run_world(backend: str, plan: PhasePlan, timeout: float, size: int = RANKS) -> World:
    """Launch one world under a finite timeout; a failure is returned, not raised."""
    error, per_rank = "", None
    # The last world's buffers hang in reference cycles until a collection
    # runs; left to chance, peak RSS is one world's worth or two.
    gc.collect()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        try:
            per_rank = run_backend(
                size, rank_phase, plan, backend, backend=backend, timeout=timeout
            )
        except (GaspiError, RuntimeError) as exc:
            plan.cancel.set()
            # "N rank(s) failed inside run_spmd:" and the ranks' reasons.
            error = " ".join(line for line in str(exc).splitlines() if line.strip())[:300]
    leaked = 0
    if backend == "shm":
        # run_shm sweeps what its ranks leaked and says so in a warning.
        for warning in caught:
            swept = re.search(r"swept (\d+) leaked", str(warning.message))
            leaked += int(swept.group(1)) if swept else 0
        leaked += _swept_shm_blocks()
    return World(per_rank, error, leaked)


def join_phase(backend: str, plan: PhasePlan, worlds: List[World], size: int = RANKS) -> Phase:
    """Merge a phase's worlds and ranks; failed worlds become failed calls."""
    shapes = WORKLOADS[plan.workload].shapes()
    phase = Phase(
        workload=plan.workload,
        backend=backend,
        size=size,
        variants=plan.variants,
        shape_names=[s.name for s in shapes],
        blocks=[s.block_for(plan.block_cap) for s in shapes],
    )
    nv = len(plan.variants)
    warm_ops = _WARM_ROUNDS * nv * phase.ops_per_round
    phase.leaked_blocks = sum(w.leaked_blocks for w in worlds)
    for world in worlds:
        if world.per_rank is None:
            # Everything the world was to run at least counts as failed.
            planned = warm_ops + (plan.rounds or plan.min_rounds * nv) * phase.ops_per_round
            phase.attempted += planned
            phase.failed += planned
            phase.error = world.error
    finished = [w.per_rank for w in worlds if w.per_rank is not None]
    if not finished:
        return phase
    phase.per_rank = per_rank = _join_worlds(finished)
    phase.rounds = per_rank[0]["rounds"]
    phase.latency = [
        np.max([rec["t1"][si] - rec["t0"][si] for rec in per_rank], axis=0)
        for si in range(len(shapes))
    ]
    phase.rank_round_time = np.array(
        [
            sum(
                (rec["t1"][si] - rec["t0"][si]).reshape(phase.rounds, k).sum(axis=1)
                for si, k in enumerate(phase.blocks)
            )
            for rec in per_rank
        ]
    )
    done = min(rec["done"] for rec in per_rank)
    phase.attempted += len(finished) * warm_ops + phase.rounds * phase.ops_per_round
    wrong = {call for rec in per_rank for call in rec["bad"]}
    # Rounds a cancelled world never ran, wrong outputs and leaked blocks
    # all count as failed calls.
    phase.failed += (phase.rounds - done) * phase.ops_per_round + len(wrong) + phase.leaked_blocks
    if done < phase.rounds:
        phase.error = phase.error or f"cancelled after {done} of {phase.rounds} rounds"
    return phase


def run_phases(
    plan: PhasePlan,
    slices: int,
    timeout: float,
    after_world: Optional[Callable[[str], None]] = None,
) -> Dict[str, Phase]:
    """Every backend's phase, each as ``slices`` short worlds, backends taking turns.

    ``after_world(backend)`` runs after each world (the set-up cycles go
    there, so that they see the same stretch of time as the rounds do).

    A world keeps, for as long as it lives, part of the speed it happened to
    start with (where its pages and threads landed); short worlds draw again
    each time, and alternating the backends spreads the machine's noisy
    episodes over both.
    """
    sliced = replace(
        plan,
        budget_s=plan.budget_s / slices,
        min_rounds=-(-plan.min_rounds // slices),
    )
    worlds: Dict[str, List[World]] = {backend: [] for backend in BACKENDS}
    for _ in range(slices):
        for backend in BACKENDS:
            failed_before = any(w.per_rank is None for w in worlds[backend])
            if not failed_before:  # a failed world ends its phase
                worlds[backend].append(run_world(backend, sliced, timeout))
            if after_world is not None:
                after_world(backend)
    return {backend: join_phase(backend, sliced, worlds[backend]) for backend in BACKENDS}


# --------------------------------------------------------------------------- #
# set-up cycles
# --------------------------------------------------------------------------- #
def rank_setup(rt, workload_name: str, seed: int, backend: str) -> Tuple[int, int, int]:
    """Construct the stack, make the first call of every shape, tear down."""
    with placed(backend):
        return _rank_setup(rt, workload_name, seed)


def _rank_setup(rt, workload_name: str, seed: int) -> Tuple[int, int, int]:
    workload = WORKLOADS[workload_name]
    shapes = workload.shapes()
    for shape in shapes:
        shape.prepare(rt.rank, rt.size, seed)
    detector = HeartbeatDetector(rt).start() if workload.wrapped else None
    stack = workload_stack(rt, workload, 0, traced=False)
    calls = wrong = 0
    try:
        for shape in shapes:
            comm = stack.comms[shape.comm_key]
            for i in range(shape.first_calls):
                shape.fill(comm, i, FULL)
                shape.call(comm)
                calls += 1
                wrong += not shape.check(comm, i, FULL)
    finally:
        stack.close()
        if detector is not None:
            detector.stop()
    return calls, wrong, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


@dataclass
class Setup:
    """Launch-to-teardown cycles of a workload, timed by the driver."""

    workload: str
    seed: int
    seconds: Dict[str, List[float]] = field(default_factory=lambda: {b: [] for b in BACKENDS})
    attempted: int = 0
    failed: int = 0
    #: Per shm rank, the largest resident set any of its processes reached.
    shm_maxrss_kb: List[int] = field(default_factory=lambda: [0] * RANKS)

    def cycle(self, backend: str, timeout: float = 60.0) -> None:
        """One cycle: launch the world, construct, first calls, close, tear down."""
        gc.collect()  # as in run_world
        started = CLOCK()
        try:
            per_rank = run_backend(
                RANKS, rank_setup, self.workload, self.seed, backend,
                backend=backend, timeout=timeout,
            )
        except GaspiError:
            self.attempted += 1
            self.failed += 1
            return
        self.seconds[backend].append(CLOCK() - started)
        self.attempted += per_rank[0][0]
        self.failed += max(wrong for _, wrong, _ in per_rank)
        if backend == "shm":
            self.shm_maxrss_kb = [
                max(was, rss) for was, (_, _, rss) in zip(self.shm_maxrss_kb, per_rank)
            ]
            self.failed += _swept_shm_blocks()
