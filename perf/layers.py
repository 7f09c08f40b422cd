"""Layer-by-layer costs, measured from outside by timing public calls.

One world per backend times, on ``allreduce`` at 1 KiB and 4 MiB, every
level of the stack a call goes through — the bare runtime round trip,
``plan.execute()``, ``comm.allreduce()``, then each optional wrapper alone
and all of them stacked — plus the runtime primitives and plan compilation.
Levels that are compared with each other are measured interleaved, a short
block each per repetition, so that drift of the machine hits them alike.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

import numpy as np

from repro import CollectiveRequest, ConsistencyPolicy, PlanKey, Telemetry, skylake_fdr
from repro.analysis.tracing import TraceSink
from repro.core import kernels
from repro.core.reduction_ops import get_op
from repro.health import HeartbeatDetector

from harness import CLOCK, Stack, placed
from workloads import KIB, MIB

STRICT = ConsistencyPolicy.strict()

#: Segment ids of the raw-runtime probes: below every communicator's range and
#: clear of the library's fixed ids (the heartbeat channel sits at 150).
_PROBE_SEGMENT = 190
_CYCLE_SEGMENT = 191
_PLAN_SEGMENT = 192

#: The cumulative stack, bottom to top (labels of the interleaved timings).
STACK_LEVELS = [
    ("plan.execute()", "execute"),
    ("comm.allreduce()", "bare"),
    ("+ telemetry", "telemetry"),
    ("+ FaultPlan()", "tel+faults"),
    ("+ split(0) child", "full"),
    ("+ heartbeat detector", "full+det"),
]


def _pingpong(rt, n: int) -> np.ndarray:
    """8-byte write_notify -> notify_waitsome -> notify_reset, there and back."""
    out = np.zeros(n)
    me, peer = rt.rank, 1 - rt.rank
    for j in range(n + 20):
        a = CLOCK()
        if me == 0:
            rt.write_notify(_PROBE_SEGMENT, 0, peer, _PROBE_SEGMENT, 0, 8, 0)
        rt.notify_waitsome(_PROBE_SEGMENT, peer, 1)
        rt.notify_reset(_PROBE_SEGMENT, peer)
        if me == 1:
            rt.write_notify(_PROBE_SEGMENT, 0, peer, _PROBE_SEGMENT, 0, 8, 1)
        elif j >= 20:
            out[j - 20] = (CLOCK() - a) / 2
    return out


def _write_1m(rt, n: int) -> np.ndarray:
    """1 MiB write_notify from rank 0, acknowledged by an 8-byte notify."""
    out = np.zeros(n)
    for j in range(n):
        a = CLOCK()
        if rt.rank == 0:
            rt.write_notify(_PROBE_SEGMENT, 0, 1, _PROBE_SEGMENT, 0, MIB, 0)
            rt.notify_waitsome(_PROBE_SEGMENT, 1, 1)
            rt.notify_reset(_PROBE_SEGMENT, 1)
            out[j] = CLOCK() - a
        else:
            rt.notify_waitsome(_PROBE_SEGMENT, 0, 1)
            rt.notify_reset(_PROBE_SEGMENT, 0)
            rt.notify(0, _PROBE_SEGMENT, 1)
    return out


def _timed(fn: Callable[[], None], n: int) -> np.ndarray:
    out = np.empty(n)
    for j in range(n):
        a = CLOCK()
        fn()
        out[j] = CLOCK() - a
    return out


def rank_layers(rt, backend: str, reps: int) -> Dict[str, np.ndarray]:
    """One rank's durations, by label (merged over ranks by the driver)."""
    with placed(backend):
        return _rank_layers(rt, backend, reps)


def _rank_layers(rt, backend: str, reps: int) -> Dict[str, np.ndarray]:
    out: Dict[str, np.ndarray] = {}

    # -- gaspi primitives ------------------------------------------------ #
    rt.segment_create(_PROBE_SEGMENT, MIB + 8)
    rt.barrier()
    out["pingpong"] = _pingpong(rt, 400 * reps)
    rt.barrier()
    out["write_1m"] = _write_1m(rt, 20 * reps)
    rt.barrier()
    out["barrier"] = _timed(rt.barrier, 60 * reps)

    def segment_cycle() -> None:
        rt.segment_create(_CYCLE_SEGMENT, MIB)
        rt.segment_delete(_CYCLE_SEGMENT)

    out["segment_cycle"] = _timed(segment_cycle, 8 * reps)
    rt.barrier()
    rt.segment_delete(_PROBE_SEGMENT)

    # -- payloads and stacks --------------------------------------------- #
    sizes = {"1k": KIB, "1m": MIB, "4m": 4 * MIB}
    send = {k: np.ones(nb // 8) for k, nb in sizes.items()}
    recv = {k: np.empty(nb // 8) for k, nb in sizes.items()}

    def registry():  # counts only: no event timeline
        return Telemetry(rank=rt.rank, max_events=0)

    stacks = {
        "bare": Stack(rt, 0),
        "telemetry": Stack(rt, 1, telemetry=registry()),
        "faults": Stack(rt, 2, faults=True),
        "split": Stack(rt, 3, split=True),
        "tel+faults": Stack(rt, 4, telemetry=registry(), faults=True),
        "full": Stack(rt, 5, telemetry=registry(), faults=True, split=True),
        "cold": Stack(rt, 6, plan_cache=0),
    }
    if backend == "threaded":  # simulator and protocol tracer: measured once
        stacks["machine"] = Stack(rt, 7, machine=skylake_fdr(rt.size))
        stacks["traced"] = Stack(rt.traced(TraceSink(rt.size)), 8)
    comm = {label: stack.comms["main"] for label, stack in stacks.items()}

    def allreduce(label: str, size: str, algorithm: str = "auto") -> Callable[[], None]:
        c, s, r = comm[label], send[size], recv[size]
        return lambda: c.allreduce(s, r, algorithm=algorithm)

    # -- plans driven directly ------------------------------------------- #
    plans = {}
    executors: Dict[str, Callable[[], None]] = {}
    for offset, size in enumerate(("1k", "4m")):
        info = comm["bare"].resolve("allreduce", sizes[size])
        request = CollectiveRequest(
            collective="allreduce", sendbuf=send[size], recvbuf=recv[size], policy=STRICT
        )
        key = PlanKey.from_request(info, rt, request)
        plan = info.plan(rt, key, _PLAN_SEGMENT + offset, STRICT)
        request.segment_id = plan.segment_id
        plans[size] = (info, key, plan)
        executors[size] = lambda plan=plan, request=request: plan.execute(request)

    info, key, _ = plans["1k"]

    compile_times = np.empty(6 * reps)
    for j in range(compile_times.size):
        a = CLOCK()
        compiled = info.plan(rt, key, _PLAN_SEGMENT + 2, STRICT)
        compile_times[j] = CLOCK() - a
        rt.barrier()
        compiled.close()
    out["compile"] = compile_times

    # -- interleaved comparisons ----------------------------------------- #
    detector_off: List[Tuple[str, Callable[[], None], int]] = [
        ("execute.1k", executors["1k"], 60),
        ("execute.4m", executors["4m"], 6),
        ("ring.4m", allreduce("bare", "4m", "gaspi_allreduce_ring"), 6),
        ("ring_pipelined.4m", allreduce("bare", "4m", "gaspi_allreduce_ring_pipelined"), 6),
        ("bare.1m", allreduce("bare", "1m"), 10),
        ("telemetry.1m", allreduce("telemetry", "1m"), 10),
    ]
    detector_off += [
        # Every cold call leaks file descriptors on shm (README, "Known defects").
        (f"{label}.1k", allreduce(label, "1k"), 20 if label == "cold" else 60)
        for label in stacks
    ]
    detector_off += [
        (f"{label}.4m", allreduce(label, "4m"), 6)
        for label in ("bare", "telemetry", "tel+faults", "full")
    ]
    beside_detector = [
        ("bare+det.1k", allreduce("bare", "1k"), 60),
        ("full+det.1k", allreduce("full", "1k"), 60),
        ("full+det.4m", allreduce("full", "4m"), 6),
    ]
    samples: Dict[str, List[np.ndarray]] = {label: [] for label, _, _ in detector_off + beside_detector}

    def measure(entries) -> None:
        for label, fn, n in entries:
            fn()  # compiles on the first repetition, re-warms on the others
            rt.barrier()
            samples[label].append(_timed(fn, n))

    for _ in range(reps):
        measure(detector_off)
        detector = HeartbeatDetector(rt).start()
        try:
            measure(beside_detector)
        finally:
            detector.stop()
    out.update({label: np.concatenate(runs) for label, runs in samples.items()})

    # -- memoised algorithm resolution (local; the peer idles in a barrier) #
    if rt.rank == 0:
        resolve = comm["bare"].resolve
        n = 2000
        a = CLOCK()
        for _ in range(n):
            resolve("allreduce", KIB)
        out["resolve"] = np.array([(CLOCK() - a) / n])
    else:
        out["resolve"] = np.zeros(1)
    rt.barrier()

    for _, _, plan in plans.values():
        plan.close()
    for stack in stacks.values():
        stack.close()
    return out


def quiet_medians_us(per_rank: List[Dict[str, np.ndarray]], reps: int) -> Dict[str, float]:
    """Per label, the median completion time (max over ranks) of a quiet repetition.

    The median is taken inside each repetition and the lower quartile over
    the repetitions picks the quiet ones (see ``Phase.quiet_rate``).
    """
    out = {}
    for label in per_rank[0]:
        done = np.max([rec[label] for rec in per_rank], axis=0)
        by_rep = done.reshape(reps if done.size % reps == 0 else 1, -1)
        out[label] = float(np.percentile(np.median(by_rep, axis=1), 25)) * 1e6
    return out


def kernel_rates(reps: int) -> Dict[str, float]:
    """The fold kernel against plain NumPy on the same arrays, single-threaded."""
    op = get_op("sum")
    n = 4 * MIB // 8
    a, b, out = np.ones(n), np.ones(n), np.empty(n)
    small_acc, small = np.ones(KIB // 8), np.ones(KIB // 8)

    def median_of(fn: Callable[[], None], n_calls: int) -> float:
        fn()
        return float(np.median(_timed(fn, n_calls)))

    fold_s = median_of(lambda: kernels.fold(op, a, b, out), 10 * reps)
    copy_s = median_of(lambda: np.copyto(out, a), 10 * reps)
    add_s = median_of(lambda: np.add(a, b, out=out), 10 * reps)
    fold_1k_s = median_of(lambda: kernels.reduce_into(op, small_acc, small), 2000 * reps)
    gib = 4 * MIB / 1e9
    return {
        "kernels.fold_4m_GBps": gib / fold_s,
        "kernels.copy_4m_GBps": gib / copy_s,
        "kernels.add_4m_GBps": gib / add_s,
        "kernels.fold_1k_us": fold_1k_s * 1e6,
    }
