#!/usr/bin/env python3
"""The repo's gated benchmark: one command, every metric by name with its unit.

    python3 perf/run.py --workload small_msgs --seed 1 --seconds 16 --trace 0
    python3 perf/run.py --seed 1 --trace          # all workloads, both passes
    python3 perf/run.py --agree A.json B.json     # compare two result files

``--trace 0`` (the default) runs the untraced pass and reports the
end-to-end metrics; ``--trace 1`` runs the traced pass and reports the
per-layer metrics, the stack table and a Chrome trace under ``perf/out/``;
a bare ``--trace`` runs both.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the exit code is
non-zero when a call failed, an output was wrong or a declared metric is
missing.  README.md has the catalogue.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))  # the library, from a bare checkout

import numpy as np  # noqa: E402

from repro import run_backend  # noqa: E402
from repro.ml import DistributedSGDConfig, movielens_like, run_distributed_sgd  # noqa: E402

import layers  # noqa: E402
from catalogue import END_TO_END, PER_LAYER, RUN_SECONDS  # noqa: E402
from harness import (  # noqa: E402
    BACKENDS,
    MIN_ROUNDS,
    RANKS,
    Phase,
    PhasePlan,
    Setup,
    join_phase,
    run_phases,
    run_world,
    stop_children,
)
from workloads import WORKLOADS  # noqa: E402

OUT_DIR = Path(__file__).resolve().parent / "out"

#: Rounds of a traced phase whose calls are written out as op spans.
_OP_SPAN_ROUNDS = 6

Metrics = Dict[str, float]


def _geomean(values) -> float:
    return float(np.exp(np.mean(np.log(values))))


def _world_timeout(budget_s: float, slices: int) -> float:
    """Finite, and generous: a world that needs it has hung."""
    return 4.0 * budget_s / slices + 30.0


# --------------------------------------------------------------------------- #
# the untraced pass: end-to-end metrics
# --------------------------------------------------------------------------- #
def end_to_end(phases: Dict[str, Phase], setup: Setup) -> Metrics:
    out: Metrics = {}
    for backend, phase in phases.items():
        if not phase.rounds:
            continue  # the phase failed as a whole; its metrics are missing
        out[f"ops_per_s.{backend}"] = phase.quiet_rate("plain")
        medians = [phase.quiet_latency(si, "plain") for si in range(len(phase.blocks))]
        out[f"lat_p50_us.{backend}"] = _geomean(medians) * 1e6
    if all(setup.seconds[b] for b in BACKENDS):
        out["setup_s"] = float(sum(np.median(setup.seconds[b]) for b in BACKENDS))
    shm_ranks = list(setup.shm_maxrss_kb)
    for rec in phases["shm"].per_rank:
        shm_ranks[rec["rank"]] = max(shm_ranks[rec["rank"]], rec["maxrss_kb"])
    driver = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out["peak_rss_mb"] = (driver + sum(shm_ranks)) / 1024.0
    return out


def shape_quartiles(phases: Dict[str, Phase], variant: str) -> Dict[str, Dict[str, dict]]:
    """Per shape and backend: sample count and latency quartiles, in us."""
    table: Dict[str, Dict[str, dict]] = {}
    for backend, phase in phases.items():
        if not phase.rounds:
            continue
        for si, name in enumerate(phase.shape_names):
            lat = phase.shape_latency(si, variant) * 1e6
            p25, p50, p75, p99 = np.percentile(lat, [25, 50, 75, 99])
            table.setdefault(name, {})[backend] = {
                "n": int(lat.size), "p25": float(p25), "p50": float(p50),
                "p75": float(p75), "p99": float(p99),
                "quiet_p50": phase.quiet_latency(si, variant) * 1e6,
            }
    return table


def untraced_pass(name: str, seed: int, seconds: float, quick: bool) -> dict:
    budget, slices = seconds / 2, (2 if quick else 8)
    plan = PhasePlan(name, seed, budget, min_rounds=10 if quick else MIN_ROUNDS)
    setup = Setup(name, seed)
    phases = run_phases(plan, slices, _world_timeout(budget, slices), after_world=setup.cycle)
    return {
        "metrics": end_to_end(phases, setup),
        "attempted": sum(p.attempted for p in phases.values()) + setup.attempted,
        "failed": sum(p.failed for p in phases.values()) + setup.failed,
        "errors": {b: p.error for b, p in phases.items() if p.error},
        "shapes": shape_quartiles(phases, "plain"),
        "rounds": {b: p.rounds for b, p in phases.items()},
        "world_rounds": {
            b: [n for _, _, n in p.per_rank[0]["spans"]] for b, p in phases.items() if p.rounds
        },
        "round_rates": {
            b: [float(r) for r in p.round_rates("plain")] for b, p in phases.items() if p.rounds
        },
        "ops_per_round": next(iter(phases.values())).ops_per_round,
        "setup_cycles_s": setup.seconds,
    }


# --------------------------------------------------------------------------- #
# the traced pass: per-layer metrics
# --------------------------------------------------------------------------- #
def layer_metrics(reps: int) -> Tuple[Metrics, Dict[str, Dict[str, float]]]:
    """Workload-independent layer costs; also the medians behind the stack table."""
    out: Metrics = dict(layers.kernel_rates(reps))
    medians: Dict[str, Dict[str, float]] = {}
    for backend in BACKENDS:
        per_rank = run_backend(
            RANKS, layers.rank_layers, backend, reps, backend=backend, timeout=120.0
        )
        p50 = layers.quiet_medians_us(per_rank, reps)
        medians[backend] = p50
        b = backend
        out[f"gaspi.pingpong_us.{b}"] = p50["pingpong"]
        out[f"gaspi.write_1m_MBps.{b}"] = (1 << 20) / p50["write_1m"]  # B/us = MB/s
        out[f"gaspi.barrier_us.{b}"] = p50["barrier"]
        out[f"gaspi.segment_cycle_us.{b}"] = p50["segment_cycle"]
        out[f"plan.compile_us.{b}"] = p50["compile"]
        for size, short in (("allreduce_1k", "1k"), ("allreduce_4m", "4m")):
            out[f"plan.execute_us.{size}.{b}"] = p50[f"execute.{short}"]
            out[f"api.dispatch_overhead_us.{size}.{b}"] = (
                p50[f"bare.{short}"] - p50[f"execute.{short}"]
            )
        out[f"api.cold_over_cached.{b}"] = p50["cold.1k"] / p50["bare.1k"]
        out[f"api.pipelined_over_monolithic.{b}"] = p50["ring_pipelined.4m"] / p50["ring.4m"]
        out[f"telemetry.overhead_us.allreduce_1k.{b}"] = p50["telemetry.1k"] - p50["bare.1k"]
        out[f"telemetry.overhead_us.allreduce_1m.{b}"] = p50["telemetry.1m"] - p50["bare.1m"]
        out[f"faults.empty_plan_overhead_us.{b}"] = p50["faults.1k"] - p50["bare.1k"]
        out[f"subruntime.group_overhead_us.{b}"] = p50["split.1k"] - p50["bare.1k"]
        out[f"health.detector_overhead_us.{b}"] = p50["bare+det.1k"] - p50["bare.1k"]
    threaded = medians["threaded"]
    out["api.resolve_us"] = threaded["resolve"]
    out["analysis.tracing_overhead_ratio"] = threaded["traced.1k"] / threaded["bare.1k"]
    out["simulate.machine_overhead_us"] = threaded["machine.1k"] - threaded["bare.1k"]
    return out, medians


def print_stack_table(medians: Dict[str, Dict[str, float]]) -> None:
    for backend in BACKENDS:
        p50 = medians[backend]
        for size in ("1k", "4m"):
            print(f"  stack allreduce_{size} on {backend}: p50 us, marginal us, % over the level below")
            below = p50["pingpong"]
            print(f"    {'runtime ping-pong (8 B, one way)':32s} {below:10.1f}")
            for title, label in layers.STACK_LEVELS:
                level = p50[f"{label}.{size}"]
                print(
                    f"    {title:32s} {level:10.1f} {level - below:+10.1f} "
                    f"{100.0 * (level - below) / below:+8.1f}%"
                )
                below = level


def workload_metrics(name: str, phases: Dict[str, Phase], r8: Phase) -> Metrics:
    """What the traced phases say about the workload itself."""
    out: Metrics = {}
    ratios: List[float] = []
    for backend, phase in phases.items():
        if not phase.rounds:
            continue
        b = backend
        for si, shape in enumerate(phase.shape_names):
            out[f"api.p50_us.{shape}.{b}"] = phase.quiet_latency(si, "plain") * 1e6
        out[f"api.lat_p99_us.{b}"] = _geomean(
            [np.percentile(phase.shape_latency(si, "plain"), 99) for si in range(len(phase.blocks))]
        ) * 1e6
        op_time = phase.op_time("traced")
        out[f"gaspi.wait_share.{b}"] = phase.count("traced", "runtime.wait_s") / op_time
        out[f"plan.chunk_wait_share.{b}"] = phase.count("traced", "pipeline.chunk_wait_s") / op_time
        ratios.append(phase.quiet_rate("plain") / phase.quiet_rate("traced"))
    if ratios:
        out["trace.overhead_ratio"] = _geomean(ratios)
    out["gaspi.shm_leaked_blocks"] = float(phases["shm"].leaked_blocks)

    def per_op(phase: Phase, counter: str) -> float:
        return phase.count("traced", counter) / phase.ops("traced") if phase.rounds else 0.0

    threaded = phases["threaded"]
    for what, counter in (
        ("writes", "runtime.writes"),
        ("bytes", "runtime.bytes_written"),
        ("notifies", "runtime.notifications_posted"),
        ("barriers", "runtime.barriers"),
    ):
        out[f"gaspi.{what}_per_op"] = per_op(threaded, counter)
        if what != "barriers":
            out[f"gaspi.{what}_per_op.r8"] = per_op(r8, counter)
    out["plan.chunks_per_op"] = per_op(threaded, "pipeline.chunks")
    if threaded.rounds:
        v = threaded.variants.index("traced")
        hits, misses = (sum(rec["cache"][v][k] for rec in threaded.per_rank) for k in (0, 1))
        out["api.plan_cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        ahead = sum(rec["ahead"][0] for rec in threaded.per_rank)
        strict = sum(rec["ahead"][1] for rec in threaded.per_rank)
        out["api.allreduce_ahead_ratio"] = ahead / strict if strict else 0.0
    if name == "ec_policies":
        for b, phase in phases.items():
            if not phase.rounds:
                continue
            for what in ("bcast_4m", "reduce_4m"):
                out[f"policy.d25_speedup.{what}.{b}"] = (
                    out[f"api.p50_us.{what}_strict.{b}"] / out[f"api.p50_us.{what}_d25.{b}"]
                )
        if "api.p50_us.allreduce_ssp_64k_s2.threaded" in out:
            out["ssp.reduce_us"] = out["api.p50_us.allreduce_ssp_64k_s2.threaded"]
    return out


_SGD_ITERATIONS = 400


def sgd_metrics(quick: bool) -> Tuple[Metrics, int, int]:
    """MF-SGD at slack 0 and slack 2 (threaded: the trainer launches its own world).

    The rate is iterations over the slowest worker's wall time, computed
    here: ``WorkerResult.iterations_per_second`` divides the number of
    *records* by the time, so it under-reports by ``record_every``.
    """
    iterations = _SGD_ITERATIONS // 8 if quick else _SGD_ITERATIONS
    dataset = movielens_like("small")
    out: Metrics = {}
    total_time = 0.0
    failed = 0
    for slack in (0, 2):
        config = DistributedSGDConfig(
            num_workers=RANKS, iterations=iterations, slack=slack,
            perturbation="linear:1.6", base_compute_time=0.002, spmd_timeout=120.0,
        )
        workers = run_distributed_sgd(dataset, config)
        total_time += max(w.total_time for w in workers)
        out[f"ssp.wait_share.s{slack}"] = sum(w.total_wait_time for w in workers) / sum(
            w.total_time for w in workers
        )
        if slack == 2:
            out["ssp.mean_staleness.s2"] = float(
                np.mean([w.staleness.mean_staleness() for w in workers])
            )
            continue
        # Slack 0 is deterministic: every worker must hold the same model.
        final = workers[0].final_rmse
        failed += any(w.final_rmse != final for w in workers)
        out["ml.final_rmse.s0"] = final
        target = final * 1.02
        out["ml.iters_to_target.s0"] = float(
            next(r.iteration for r in workers[0].records if r.train_rmse <= target)
        )
    out["ml.train_iters_per_s"] = 2 * iterations / total_time
    return out, 2 * iterations, failed


def write_trace(name: str, phases: Dict[str, Phase], started: float, ended: float) -> Path:
    """Chrome-trace JSON (Perfetto loads it): workload -> phase -> round -> op."""
    events: List[dict] = []
    next_id = iter(range(1, 1 << 62))

    def span(title, cat, t0, t1, pid, tid, parent, **args) -> int:
        sid = next(next_id)
        events.append({
            "name": title, "cat": cat, "ph": "X", "pid": pid, "tid": tid,
            "ts": (t0 - started) * 1e6, "dur": (t1 - t0) * 1e6,
            "args": {"id": sid, "parent": parent, **args},
        })
        return sid

    root = span(name, "workload", started, ended, 0, 0, 0)
    events.append({"name": "process_name", "ph": "M", "pid": 0, "args": {"name": "driver"}})
    for pid, (backend, phase) in enumerate(phases.items(), start=1):
        events.append({"name": "process_name", "ph": "M", "pid": pid, "args": {"name": backend}})
        for rec in phase.per_rank:
            rank = rec["rank"]
            # One phase span per world; a round belongs to the world it ran in.
            world_of_round = np.repeat(
                [span(f"{backend} phase, world {w}", "phase", t0, t1, pid, rank, root)
                 for w, (t0, t1, _) in enumerate(rec["spans"])],
                [rounds for _, _, rounds in rec["spans"]],
            )
            for rnd in range(rec["done"]):
                phase_id = int(world_of_round[rnd])
                variant = phase.variants[rnd % len(phase.variants)]
                round_id = span(
                    f"round {rnd} ({variant})", "round", rec["round_t0"][rnd],
                    rec["round_t1"][rnd], pid, rank, phase_id, variant=variant,
                )
                if rnd >= _OP_SPAN_ROUNDS * len(phase.variants):
                    continue
                for si, k in enumerate(phase.blocks):
                    for at in range(rnd * k, (rnd + 1) * k):
                        span(phase.shape_names[si], "op", rec["t0"][si][at],
                             rec["t1"][si][at], pid, rank, round_id)
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace_{name}.json"
    path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))
    return path


def harness_share(phase: Phase) -> float:
    """Self time of the round spans: the share of a round outside its calls."""
    rec = phase.per_rank[0]
    inside = float(phase.rank_round_time[0].sum())
    return 1.0 - inside / float((rec["round_t1"] - rec["round_t0"]).sum())


def traced_pass(name: str, seed: int, seconds: float, quick: bool) -> dict:
    started = time.perf_counter()
    budget, slices = seconds / 4, (1 if quick else 4)
    plan = PhasePlan(name, seed, budget, variants=("plain", "traced"), min_rounds=10)
    phases = run_phases(plan, slices, _world_timeout(budget, slices))
    ended = time.perf_counter()
    # Structure at 8 ranks, as counts only: 8 threads on this box measure
    # the scheduler, not the library.
    counting = PhasePlan(name, seed, 0.0, variants=("traced",), rounds=1, block_cap=2)
    r8 = join_phase("threaded", counting, [run_world("threaded", counting, 120.0, size=8)], size=8)
    every_phase = list(phases.values()) + [r8]
    # A metric that decomposes another workload reads 0 here.
    metrics = {m.name: 0.0 for m in PER_LAYER if m.only not in (None, name)}
    layer, medians = layer_metrics(reps=2 if quick else 8)
    metrics.update(layer)
    metrics.update(workload_metrics(name, phases, r8))
    attempted = sum(p.attempted for p in every_phase)
    failed = sum(p.failed for p in every_phase)
    if WORKLOADS[name].sgd:
        sgd, sgd_attempted, sgd_failed = sgd_metrics(quick)
        metrics.update(sgd)
        attempted += sgd_attempted
        failed += sgd_failed
    trace_path = write_trace(name, phases, started, ended)
    print_stack_table(medians)
    for backend, phase in phases.items():
        if phase.rounds:
            print(f"  harness share of a round (refresh, check, fence) on {backend}: "
                  f"{100 * harness_share(phase):.1f} %")
    print(f"  trace written to {trace_path.relative_to(ROOT)} (open in ui.perfetto.dev)")
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "errors": {f"{p.backend}/{p.size}": p.error for p in every_phase if p.error},
        "shapes_traced": shape_quartiles(phases, "traced"),
    }


# --------------------------------------------------------------------------- #
# command line
# --------------------------------------------------------------------------- #
def environment(seed: int, seconds: float) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": commit,
        "seed": seed,
        "seconds": seconds,
        "ranks": RANKS,
    }


def declared(trace: int) -> Dict[str, str]:
    """Name -> unit of every metric the mode must emit (BENCHMARK.json's lists)."""
    groups = {0: (END_TO_END,), 1: (PER_LAYER,), 2: (END_TO_END, PER_LAYER)}[trace]
    return {m.name: m.unit for group in groups for m in group}


def run_workload(name: str, seed: int, seconds: float, trace: int, quick: bool) -> dict:
    """Run one workload's passes; the result carries metrics with their units."""
    started = time.perf_counter()
    print(f"workload {name}: {WORKLOADS[name].why}")
    print(f"  seed {seed}, {seconds:g} s, 2 ranks per backend, closed loop")
    result: dict = {"attempted": 0, "failed": 0, "errors": {}, "metrics": {}}
    passes = []
    if trace in (0, 2):
        passes.append(untraced_pass(name, seed, seconds, quick))
    if trace in (1, 2):
        passes.append(traced_pass(name, seed, seconds, quick))
    values: Metrics = {}
    for done in passes:
        values.update(done.pop("metrics"))
        result["attempted"] += done.pop("attempted")
        result["failed"] += done.pop("failed")
        result["errors"].update(done.pop("errors"))
        result.update(done)
    units = declared(trace)
    result["missing"] = sorted(set(units) - set(values))
    result["metrics"] = {
        n: {"value": values[n], "unit": units[n]} for n in units if n in values
    }
    result["wall_s"] = time.perf_counter() - started
    bounds = {m.name: (m.better, m.bound) for m in END_TO_END}
    elsewhere = {m.name for m in PER_LAYER if m.only not in (None, name)}
    for n, m in result["metrics"].items():
        if n in elsewhere:
            continue
        gate = ""
        if n in bounds:
            better, bound = bounds[n]
            gate = f"  [{'-' if better == 'higher' else '+'}{100 * bound:.0f} %]"
        print(f"  {n:46s} {m['value']:14.4f} {m['unit']}{gate}")
    fail_ratio = result["failed"] / max(result["attempted"], 1)
    print(f"  fail_ratio {fail_ratio:.6f} ({result['failed']} of {result['attempted']} calls)"
          f", wall {result['wall_s']:.1f} s")
    for where, error in result["errors"].items():
        print(f"  FAILED {where}: {error}")
    if result["missing"]:
        print(f"  MISSING metrics: {', '.join(result['missing'])}")
    return result


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="default: all five")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help=f"measured time per run (default {RUN_SECONDS}, 2 with --quick)")
    parser.add_argument("--trace", type=int, nargs="?", const=2, default=0, choices=(0, 1, 2),
                        help="0 untraced pass, 1 traced pass, 2 (or bare --trace) both")
    parser.add_argument("--quick", action="store_true",
                        help="same shapes, about a tenth of the calls (smoke runs)")
    parser.add_argument("--out", type=Path, help="write the full result file here")
    parser.add_argument("--agree", nargs=2, metavar=("A.json", "B.json"),
                        help="compare two result files and exit")
    args = parser.parse_args(argv)
    if args.agree:
        import agree

        return agree.main(args.agree)
    seconds = args.seconds if args.seconds is not None else (2.0 if args.quick else RUN_SECONDS)
    # The shm runtime leaks file descriptors (README, "Known defects"): take
    # all the room this process is allowed.
    _, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    try:
        resource.setrlimit(resource.RLIMIT_NOFILE, (hard, hard))
    except (ValueError, OSError):
        pass  # the soft limit stays; a world stops at 80 % of it
    started = time.perf_counter()
    names = [args.workload] if args.workload else list(WORKLOADS)
    try:
        results = {n: run_workload(n, args.seed, seconds, args.trace, args.quick) for n in names}
    finally:
        stop_children()  # on every path out, before the result line
    document = {
        "meta": {**environment(args.seed, seconds), "trace": args.trace, "quick": args.quick,
                 "wall_s": time.perf_counter() - started},
        "workloads": results,
    }
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(document, indent=1))
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    missing = any(r["missing"] for r in results.values())
    if args.workload:
        metrics = results[args.workload]["metrics"]
    else:
        metrics = {f"{w}:{n}": m for w, r in results.items() for n, m in r["metrics"].items()}
    print(json.dumps({
        "correct": failed == 0 and not missing,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 1 if failed or missing else 0


if __name__ == "__main__":
    sys.exit(main())
