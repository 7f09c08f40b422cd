"""Microbenchmarks of the collective hot path: cold vs compiled-plan,
threaded vs shared-memory backend.

This is the perf-regression baseline the repository tracks across PRs: a
latency/throughput sweep over ``collective x algorithm x payload size x
cached-vs-cold`` on a real rank world, written as a machine-readable
:data:`~repro.bench.harness.BENCH_SCHEMA` report (``BENCH_pr5.json`` at
the repo root by default).

* **cold** runs on a communicator with ``plan_cache=0``: every call pays
  the full per-call setup — topology construction, workspace segment
  registration with its two barriers, schedule state, teardown.
* **cached** runs on a communicator with the default plan cache: the
  first (warm-up) call compiles the :class:`~repro.core.plan.CollectivePlan`,
  every measured call is pure data movement over the pooled workspace.

The ``--backend`` axis selects the rank-world substrate: ``threaded``
(thread-per-rank, GIL-shared) or ``shm`` (process-per-rank over POSIX
shared memory, :class:`~repro.gaspi.shm.ShmRuntime`) — or ``both``,
which runs the sweep twice and records the threaded-vs-shm comparison in
the report's meta.  Shm records carry an ``@shm`` mode suffix so the
two backends never collide on a record identity, and old threaded-only
baselines keep matching the threaded rows.

Timing is taken *per rank*: every rank times its own tight loop between
two world barriers and the reported latency is the slowest rank's mean —
the completion time of the collective, not the fastest returner's.  The
per-rank spread (min/mean across ranks) is recorded alongside, because
the two backends schedule ranks very differently (GIL interleaving vs
OS processes) and a single aggregate would hide that.  ``--warmup``
controls the unmeasured calls that precede the timed loop (the first of
them compiles the plan on the cached variant).

Run it from the repository root::

    PYTHONPATH=src python -m repro.bench.micro                   # threaded
    PYTHONPATH=src python -m repro.bench.micro --backend shm
    PYTHONPATH=src python -m repro.bench.micro --backend both    # baseline
    PYTHONPATH=src python -m repro.bench.micro --quick           # CI smoke

The sweep *measures and records* the speedup; it never asserts on
timings (CI runners are noisy), so the perf-smoke job fails only on
errors.
"""

from __future__ import annotations

import argparse
import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.api import Communicator
from ..gaspi.launch import BACKENDS, run_backend
from .harness import BenchRecord, write_json_report
from .report import format_kv_table
from .stats import summarize

#: Default sweep: (collective, short algorithm alias) pairs.  Covers the
#: three acceptance collectives, with both allreduce algorithms so the
#: latency- and bandwidth-optimal paths are tracked.
DEFAULT_CASES: Tuple[Tuple[str, str], ...] = (
    ("bcast", "bst"),
    ("reduce", "bst"),
    ("allreduce", "ring"),
    ("allreduce", "hypercube"),
)

#: Default payload sizes (bytes): small through the large-message regime
#: where the pipelined chunked data path takes over (>= 256 KiB).
DEFAULT_SIZES: Tuple[int, ...] = (1_024, 16_384, 262_144, 1_048_576, 4_194_304)

#: (collective, monolithic alias, pipelined alias) pairs of the
#: pipelined-vs-monolithic comparison mode.
PIPELINE_PAIRS: Tuple[Tuple[str, str, str], ...] = (
    ("bcast", "bst", "bst_pipelined"),
    ("reduce", "bst", "bst_pipelined"),
    ("allreduce", "ring", "ring_pipelined"),
)

#: Payload sizes of the pipelined comparison (the large-message regime).
PIPELINE_SIZES: Tuple[int, ...] = (262_144, 1_048_576, 4_194_304)

DEFAULT_OUT = "BENCH_pr5.json"


def _record_mode(mode: str, backend: str) -> str:
    """Record-identity mode: shm rows are suffixed so the two backends
    never collide on ``(benchmark, metric, collective, algorithm,
    payload_bytes, mode)`` and old threaded baselines keep matching."""
    return mode if backend == "threaded" else f"{mode}@{backend}"


def _collective_caller(comm: Communicator, collective: str, algorithm: str,
                       sendbuf: np.ndarray, recvbuf: np.ndarray):
    """Closure performing one call of the requested collective."""
    if collective == "bcast":
        return lambda: comm.bcast(sendbuf, root=0, algorithm=algorithm)
    if collective == "reduce":
        return lambda: comm.reduce(sendbuf, recvbuf=recvbuf, root=0, algorithm=algorithm)
    if collective == "allreduce":
        return lambda: comm.allreduce(sendbuf, recvbuf=recvbuf, algorithm=algorithm)
    raise ValueError(f"unsupported micro collective {collective!r}")


def time_collective(
    collective: str,
    algorithm: str,
    nbytes: int,
    *,
    backend: str = "threaded",
    ranks: int = 4,
    iterations: int = 20,
    warmup: int = 2,
    plan_cache: Optional[int] = None,
    timeout: float = 120.0,
) -> Dict[str, float]:
    """Per-call latency of one collective on one backend.

    Every rank runs ``warmup`` unmeasured calls (on the cached variant the
    first of them compiles the plan), synchronises on a world barrier,
    then times its own tight loop of ``iterations`` calls.  The reported
    ``latency_seconds`` is the slowest rank's mean — the completion time
    of the collective — with the cross-rank min and mean alongside.
    """
    kwargs = {} if plan_cache is None else {"plan_cache": plan_cache}

    def worker(runtime):
        comm = Communicator(runtime, **kwargs)
        elements = max(1, nbytes // 8)
        sendbuf = np.full(elements, float(runtime.rank) + 1.0, dtype=np.float64)
        recvbuf = np.empty_like(sendbuf)
        call = _collective_caller(comm, collective, algorithm, sendbuf, recvbuf)
        for _ in range(max(warmup, 1)):
            call()
        resolved = comm.last_result.algorithm
        runtime.barrier()
        # Per-iteration samples (two clock reads per call, noise floor well
        # below the collective latency) so tail percentiles are reportable.
        samples = []
        for _ in range(iterations):
            t0 = time.perf_counter()
            call()
            samples.append(time.perf_counter() - t0)
        runtime.barrier()
        stats = comm.plan_cache_stats()
        comm.close()
        return sum(samples) / iterations, resolved, stats.hits, tuple(samples)

    results = run_backend(ranks, worker, backend=backend, timeout=timeout)
    per_rank = [r[0] for r in results]
    # Tail percentiles come from the slowest rank's own samples — the same
    # rank whose mean is reported as the completion latency.
    slowest = summarize(results[per_rank.index(max(per_rank))][3])
    return {
        "latency_seconds": max(per_rank),
        "latency_rank_min_seconds": min(per_rank),
        "latency_rank_mean_seconds": sum(per_rank) / len(per_rank),
        "latency_p50_seconds": slowest.p50,
        "latency_p95_seconds": slowest.p95,
        "latency_p99_seconds": slowest.p99,
        "algorithm": results[0][1],
        "plan_hits": results[0][2],
    }


def time_threaded_collective(
    collective: str,
    algorithm: str,
    nbytes: int,
    **kwargs,
) -> Dict[str, float]:
    """Backward-compatible alias: :func:`time_collective` on threads."""
    return time_collective(collective, algorithm, nbytes, backend="threaded", **kwargs)


def _latency_record(
    benchmark: str,
    collective: str,
    nbytes: int,
    mode: str,
    backend: str,
    measured: Dict[str, float],
    ranks: int,
    iterations: int,
) -> BenchRecord:
    latency = measured["latency_seconds"]
    return BenchRecord(
        benchmark=benchmark,
        metric="latency_seconds",
        value=latency,
        collective=collective,
        algorithm=str(measured["algorithm"]),
        payload_bytes=int(nbytes),
        mode=_record_mode(mode, backend),
        extra={
            "backend": backend,
            "ranks": ranks,
            "iterations": iterations,
            "throughput_bytes_per_second": (
                nbytes / latency if latency > 0 else 0.0
            ),
            "latency_rank_min_seconds": measured["latency_rank_min_seconds"],
            "latency_rank_mean_seconds": measured["latency_rank_mean_seconds"],
            "latency_p50_seconds": measured.get("latency_p50_seconds"),
            "latency_p95_seconds": measured.get("latency_p95_seconds"),
            "latency_p99_seconds": measured.get("latency_p99_seconds"),
            "plan_cache_hits": measured.get("plan_hits", 0),
        },
    )


def run_micro_sweep(
    cases: Sequence[Tuple[str, str]] = DEFAULT_CASES,
    sizes: Sequence[int] = DEFAULT_SIZES,
    *,
    backend: str = "threaded",
    ranks: int = 4,
    iterations: int = 20,
    warmup: int = 2,
) -> Tuple[List[BenchRecord], List[Dict[str, object]]]:
    """The full cold-vs-cached sweep; returns (records, speedup summary)."""
    records: List[BenchRecord] = []
    summary: List[Dict[str, object]] = []
    for collective, algorithm in cases:
        for nbytes in sizes:
            timings: Dict[str, Dict[str, float]] = {}
            for mode, plan_cache in (("cold", 0), ("cached", None)):
                measured = time_collective(
                    collective,
                    algorithm,
                    nbytes,
                    backend=backend,
                    ranks=ranks,
                    iterations=iterations,
                    warmup=warmup,
                    plan_cache=plan_cache,
                )
                timings[mode] = measured
                records.append(
                    _latency_record(
                        "micro", collective, nbytes, mode, backend,
                        measured, ranks, iterations,
                    )
                )
            cold = timings["cold"]["latency_seconds"]
            cached = timings["cached"]["latency_seconds"]
            summary.append(
                {
                    "backend": backend,
                    "collective": collective,
                    "algorithm": str(timings["cached"]["algorithm"]),
                    "payload_bytes": int(nbytes),
                    "cold_us": cold * 1e6,
                    "cached_us": cached * 1e6,
                    "speedup": cold / cached if cached > 0 else float("inf"),
                }
            )
    return records, summary


def run_pipelined_comparison(
    sizes: Sequence[int] = PIPELINE_SIZES,
    pairs: Sequence[Tuple[str, str, str]] = PIPELINE_PAIRS,
    *,
    backend: str = "threaded",
    ranks: int = 4,
    iterations: int = 20,
    warmup: int = 3,
) -> Tuple[List[BenchRecord], List[Dict[str, object]]]:
    """Cached-path pipelined vs monolithic comparison (both plan-cached).

    This is the acceptance measurement of the chunked data path: at every
    large payload, the same collective runs through the monolithic plan
    (the PR 3 baseline implementation) and through the pipelined plan,
    back to back on the same machine, and the speedup is recorded.
    """
    records: List[BenchRecord] = []
    rows: List[Dict[str, object]] = []
    for collective, mono, pipe in pairs:
        for nbytes in sizes:
            measured: Dict[str, Dict[str, float]] = {}
            for mode, algorithm in (("monolithic", mono), ("pipelined", pipe)):
                result = time_collective(
                    collective,
                    algorithm,
                    nbytes,
                    backend=backend,
                    ranks=ranks,
                    iterations=iterations,
                    warmup=warmup,
                )
                measured[mode] = result
                records.append(
                    _latency_record(
                        "micro-pipelined", collective, nbytes, mode, backend,
                        result, ranks, iterations,
                    )
                )
            mono_s = measured["monolithic"]["latency_seconds"]
            pipe_s = measured["pipelined"]["latency_seconds"]
            rows.append(
                {
                    "backend": backend,
                    "collective": collective,
                    "payload_bytes": int(nbytes),
                    "monolithic_us": mono_s * 1e6,
                    "pipelined_us": pipe_s * 1e6,
                    "speedup": mono_s / pipe_s if pipe_s > 0 else float("inf"),
                }
            )
    return records, rows


def backend_comparison(
    summaries: Dict[str, List[Dict[str, object]]],
) -> List[Dict[str, object]]:
    """Threaded-vs-shm rows from per-backend cached sweep summaries.

    ``shm_speedup > 1`` means the process world completed the collective
    faster than the GIL-shared thread world for that payload.
    """
    threaded = {
        (row["collective"], row["algorithm"], row["payload_bytes"]): row
        for row in summaries.get("threaded", [])
    }
    rows: List[Dict[str, object]] = []
    for row in summaries.get("shm", []):
        key = (row["collective"], row["algorithm"], row["payload_bytes"])
        base = threaded.get(key)
        if base is None:
            continue
        threaded_us = float(base["cached_us"])
        shm_us = float(row["cached_us"])
        rows.append(
            {
                "collective": row["collective"],
                "algorithm": row["algorithm"],
                "payload_bytes": row["payload_bytes"],
                "threaded_us": threaded_us,
                "shm_us": shm_us,
                "shm_speedup": threaded_us / shm_us if shm_us > 0 else float("inf"),
            }
        )
    return rows


def run_overlap_measurement(
    *, quick: bool = False
) -> Tuple[List[BenchRecord], Dict[str, object]]:
    """The ML overlap demonstration: iallreduce + compute vs blocking.

    Wraps :func:`repro.ml.sgd.run_overlap_demo` (bucketed gradient
    exchange with rotating stragglers) into benchmark records.
    """
    from ..ml.sgd import run_overlap_demo

    demo = run_overlap_demo(iterations=4 if quick else 10)
    rows = {
        "blocking_seconds": demo.blocking_seconds,
        "overlapped_seconds": demo.overlapped_seconds,
        "speedup": demo.speedup,
        "results_match": demo.results_match,
    }
    records = [
        BenchRecord(
            benchmark="micro-overlap",
            metric="wall_seconds",
            value=value,
            collective="allreduce",
            algorithm="gaspi_allreduce_ring_pipelined",
            mode=mode,
            extra={"results_match": demo.results_match},
        )
        for mode, value in (
            ("blocking", demo.blocking_seconds),
            ("overlapped", demo.overlapped_seconds),
        )
    ]
    return records, rows


def run_trace_measurement(
    collective: str = "allreduce",
    algorithm: str = "gaspi_allreduce_ring",
    nbytes: int = 16_384,
    ranks: int = 8,
    iterations: int = 5,
) -> Dict[str, object]:
    """One micro cell under :class:`~repro.analysis.TracingRuntime`.

    Runs the cell twice on the threaded backend — bare, then with every
    rank's runtime wrapped in a tracing recorder — replays the recorded
    execution through the static checkers (no findings expected on a
    clean run), and reports the tracing overhead.  The overhead is real:
    every post/consume allocates an event and ``notify_drain`` falls back
    to the per-slot base-class loop so each reset is observed, which is
    why tracing is off by default and lives behind ``--trace``.
    """
    from ..analysis import TraceSink, analyze

    def timed(sink):
        def worker(runtime):
            rt = runtime.traced(sink) if sink is not None else runtime
            comm = Communicator(rt)
            elements = max(1, nbytes // 8)
            sendbuf = np.full(elements, float(rt.rank) + 1.0, dtype=np.float64)
            recvbuf = np.empty_like(sendbuf)
            call = _collective_caller(comm, collective, algorithm, sendbuf, recvbuf)
            call()  # warmup: compiles the plan
            rt.barrier()
            start = time.perf_counter()
            for _ in range(iterations):
                call()
            elapsed = time.perf_counter() - start
            rt.barrier()
            comm.close()
            return elapsed / iterations

        per_rank = run_backend(ranks, worker, backend="threaded")
        return max(per_rank)

    base_latency = timed(None)
    sink = TraceSink(ranks)
    traced_latency = timed(sink)
    trace = sink.trace(name=f"{algorithm}[traced, ranks={ranks}, nbytes={nbytes}]")
    findings = analyze(trace)
    return {
        "collective": collective,
        "algorithm": algorithm,
        "ranks": ranks,
        "payload_bytes": nbytes,
        "events": trace.total_events(),
        "findings": [finding.describe() for finding in findings],
        "base_seconds": base_latency,
        "traced_seconds": traced_latency,
        "overhead": traced_latency / base_latency if base_latency else float("inf"),
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--backend", choices=BACKENDS + ("both",),
                        default="threaded",
                        help="rank-world substrate to sweep (default: threaded)")
    parser.add_argument("--ranks", type=int, default=4,
                        help="world size (power of two for hypercube)")
    parser.add_argument("--sizes", type=str, default=None,
                        help="comma-separated payload sizes in bytes")
    parser.add_argument("--iterations", type=int, default=20,
                        help="measured calls per configuration")
    parser.add_argument("--warmup", type=int, default=2,
                        help="unmeasured calls before timing (compiles the plan)")
    parser.add_argument("--quick", action="store_true",
                        help="reduced sweep for CI smoke runs")
    parser.add_argument("--skip-overlap", action="store_true",
                        help="skip the ML overlap measurement")
    parser.add_argument("--out", type=str, default=DEFAULT_OUT,
                        help=f"JSON report path (default: {DEFAULT_OUT})")
    parser.add_argument("--trace", action="store_true",
                        help="run one cell under TracingRuntime, replay it "
                             "through the static checkers and report the "
                             "tracing overhead (skips the sweep)")
    parser.add_argument("--elasticity", action="store_true",
                        help="additionally measure time-to-shrink and "
                             "time-to-respawn per world size and embed the "
                             "rows in the report meta")
    parser.add_argument("--detection", action="store_true",
                        help="additionally sweep heartbeat period x confirm "
                             "threshold vs. time-to-detect and embed the "
                             "rows in the report meta (fails the run if p95 "
                             "exceeds the degraded detection window)")
    args = parser.parse_args(argv)

    if args.trace:
        row = run_trace_measurement(ranks=args.ranks)
        print(format_kv_table(
            [{k: v for k, v in row.items() if k != "findings"}],
            title="traced cell (threaded backend)",
        ))
        if row["findings"]:
            print("\nfindings:")
            for finding in row["findings"]:
                print(f"  {finding}")
            return 1
        print("\ntrace replay clean: no findings")
        return 0

    sizes: Sequence[int]
    if args.sizes:
        sizes = tuple(int(s) for s in args.sizes.split(","))
    elif args.quick:
        sizes = (1_024, 16_384, 262_144)
    else:
        sizes = DEFAULT_SIZES
    iterations = 5 if args.quick and args.iterations == 20 else args.iterations
    pipeline_sizes: Sequence[int] = (
        (262_144,) if args.quick else PIPELINE_SIZES
    )
    backends = ("threaded", "shm") if args.backend == "both" else (args.backend,)

    records: List[BenchRecord] = []
    summaries: Dict[str, List[Dict[str, object]]] = {}
    pipe_summaries: Dict[str, List[Dict[str, object]]] = {}
    for backend in backends:
        backend_records, summary = run_micro_sweep(
            sizes=sizes, backend=backend, ranks=args.ranks,
            iterations=iterations, warmup=args.warmup,
        )
        records.extend(backend_records)
        summaries[backend] = summary
        pipe_records, pipe_rows = run_pipelined_comparison(
            sizes=pipeline_sizes, backend=backend, ranks=args.ranks,
            iterations=iterations, warmup=args.warmup,
        )
        records.extend(pipe_records)
        pipe_summaries[backend] = pipe_rows

    overlap_rows: Dict[str, object] = {}
    if not args.skip_overlap and "threaded" in backends:
        overlap_records, overlap_rows = run_overlap_measurement(quick=args.quick)
        records.extend(overlap_records)


    elasticity: Dict[str, object] = {}
    if args.elasticity:
        from .faults import elasticity_sweep

        elasticity = elasticity_sweep(
            rank_counts=(4,) if args.quick else (4, 8),
            elements=512 if args.quick else 2048,
        )

    detection: Dict[str, object] = {}
    if args.detection:
        from .faults import detection_sweep

        detection = detection_sweep(
            periods=(0.01, 0.02) if args.quick else (0.005, 0.01, 0.02),
            confirm_phis=(3.0, 6.0) if args.quick else (3.0, 6.0, 9.0),
            trials=2 if args.quick else 3,
        )

    primary = summaries[backends[0]]
    min_speedup = min(row["speedup"] for row in primary)
    small = [r["speedup"] for r in primary if r["payload_bytes"] == min(sizes)]
    crossover = backend_comparison(summaries)
    all_pipe_rows = [row for rows in pipe_summaries.values() for row in rows]
    large_rows = [r for r in all_pipe_rows if int(r["payload_bytes"]) >= 262_144]
    write_json_report(
        args.out,
        records,
        benchmark="micro",
        meta={
            "backends": list(backends),
            "ranks": args.ranks,
            "iterations": iterations,
            "warmup": args.warmup,
            "sizes": list(sizes),
            "quick": bool(args.quick),
            "speedup_summary": [row for s in summaries.values() for row in s],
            "min_speedup": min_speedup,
            "small_payload_speedups": small,
            "pipelined_summary": all_pipe_rows,
            "pipelined_speedups_large": [r["speedup"] for r in large_rows],
            "backend_comparison": crossover,
            "overlap_demo": overlap_rows,
            "elasticity": {
                k: v for k, v in elasticity.items() if k != "table"
            },
            "detection": {
                k: v for k, v in detection.items() if k != "table"
            },
            "baseline_report": "BENCH_pr4.json",
        },
    )
    for backend in backends:
        print(format_kv_table(
            summaries[backend],
            title=f"plan-cache speedup (cold / cached) [{backend}]",
        ))
        print(format_kv_table(
            pipe_summaries[backend],
            title=f"pipelined vs monolithic (both cached) [{backend}]",
        ))
    if crossover:
        print(format_kv_table(
            crossover, title="threaded vs shm (cached path, max-over-ranks)"
        ))
    if overlap_rows:
        print(f"\noverlap demo: blocking {overlap_rows['blocking_seconds']*1e3:.2f} ms"
              f" vs overlapped {overlap_rows['overlapped_seconds']*1e3:.2f} ms"
              f" ({overlap_rows['speedup']:.2f}x, bit-identical="
              f"{overlap_rows['results_match']})")
    if elasticity:
        print()
        print(elasticity["table"])
    if detection:
        print()
        print(detection["table"])
        slow = [r for r in detection["rows"] if not r["within_budget"]]
        if slow:
            print(f"\ndetection too slow for the degraded window in "
                  f"{len(slow)} cell(s)")
            return 1
    print(f"\nreport written to {args.out}")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CI smoke
    raise SystemExit(main())
