"""The metric catalogue: what ``run.py`` emits and ``BENCHMARK.json`` declares.

Each per-layer metric names its layer and the end-to-end metric and
workload it should move (README.md renders the same table).  Running this
file prints the ``BENCHMARK.json`` that matches the catalogue.
"""

from __future__ import annotations

import json
from typing import Dict, List, NamedTuple, Optional

from workloads import SHAPE_NAMES, WORKLOADS

BACKENDS = ("threaded", "shm")
RUN_SECONDS = 16


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    #: Share of the parent's median by which the metric may get worse.
    bound: float
    what: str


class PerLayer(NamedTuple):
    name: str
    unit: str
    better: str
    layer: str
    #: "<end-to-end metric> @ <workload>" the metric should move.
    moves: str
    #: The one workload the metric decomposes (it reads 0 on the others);
    #: ``None`` when every traced run measures it.
    only: Optional[str] = None


# Bounds: on a quiet box ten runs of one commit spread (IQR over median) by
# 1-8 % on the timings below and 1-6 % on RSS; while a neighbour is busy the
# shm timings of one commit spread by up to 22 % (README, "Steadiness").
# Each bound is about three times the quiet spread, and above the worst seen.
END_TO_END: List[EndToEnd] = [
    EndToEnd("ops_per_s.threaded", "1/s", "higher", 0.20,
             "collectives completed per second in the run's quiet rounds (90th percentile of per-round rates)"),
    EndToEnd("ops_per_s.shm", "1/s", "higher", 0.25, "as above, process-per-rank"),
    EndToEnd("lat_p50_us.threaded", "us", "lower", 0.20,
             "geometric mean over the workload's shapes of each shape's median latency in the quiet rounds"),
    EndToEnd("lat_p50_us.shm", "us", "lower", 0.25, "as above, process-per-rank"),
    EndToEnd("setup_s", "s", "lower", 0.25,
             "median launch-to-teardown cycle, summed over backends"),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.20,
             "max RSS of the driver plus that of each shm rank process"),
]


def _per_backend(
    name: str, unit: str, better: str, layer: str, moves: str, only: Optional[str] = None
) -> List[PerLayer]:
    return [
        PerLayer(f"{name}.{b}", unit, better, layer, moves.replace("<b>", b), only)
        for b in BACKENDS
    ]


def _per_layer() -> List[PerLayer]:
    m: List[PerLayer] = []
    # gaspi
    m += _per_backend("gaspi.pingpong_us", "us", "lower", "gaspi", "lat_p50_us.<b> @ small_msgs")
    m += _per_backend("gaspi.write_1m_MBps", "MB/s", "higher", "gaspi", "ops_per_s.<b> @ large_msgs")
    m += _per_backend("gaspi.barrier_us", "us", "lower", "gaspi",
                      "ops_per_s.<b> @ shape_churn; setup_s @ all")
    m += _per_backend("gaspi.segment_cycle_us", "us", "lower", "gaspi",
                      "ops_per_s.<b> @ shape_churn; setup_s @ all")
    for what, unit in (("writes", "count"), ("bytes", "B"), ("notifies", "count"), ("barriers", "count")):
        m.append(PerLayer(f"gaspi.{what}_per_op", unit, "lower", "gaspi",
                          "ops_per_s.* @ the workload it is reported on"))
    for what, unit in (("writes", "count"), ("bytes", "B"), ("notifies", "count")):
        m.append(PerLayer(f"gaspi.{what}_per_op.r8", unit, "lower", "gaspi",
                          "count only (8 threaded ranks); precedes any wall-clock claim"))
    m += _per_backend("gaspi.wait_share", "ratio", "lower", "gaspi", "lat_p50_us.<b> @ small_msgs")
    m.append(PerLayer("gaspi.shm_leaked_blocks", "count", "lower", "gaspi",
                      "failed calls @ all (non-zero counts as failures)"))
    # core.kernels
    m.append(PerLayer("kernels.fold_4m_GBps", "GB/s", "higher", "core.kernels", "ops_per_s.* @ large_msgs"))
    m.append(PerLayer("kernels.add_4m_GBps", "GB/s", "higher", "core.kernels",
                      "the NumPy floor of the fold (np.add, same arrays)"))
    m.append(PerLayer("kernels.copy_4m_GBps", "GB/s", "higher", "core.kernels",
                      "the NumPy floor of a copy (np.copyto, same arrays)"))
    m.append(PerLayer("kernels.fold_1k_us", "us", "lower", "core.kernels", "lat_p50_us.* @ small_msgs"))
    # core.plan / core.pipeline
    m += _per_backend("plan.execute_us.allreduce_1k", "us", "lower", "core.plan", "lat_p50_us.<b> @ small_msgs")
    m += _per_backend("plan.execute_us.allreduce_4m", "us", "lower", "core.pipeline", "ops_per_s.<b> @ large_msgs")
    m += _per_backend("plan.compile_us", "us", "lower", "core.plan", "setup_s @ all; ops_per_s.<b> @ shape_churn")
    m.append(PerLayer("plan.chunks_per_op", "count", "lower", "core.pipeline",
                      "ops_per_s.* @ large_msgs (chunk waits that blocked: timing-dependent)"))
    m += _per_backend("plan.chunk_wait_share", "ratio", "lower", "core.pipeline", "ops_per_s.<b> @ large_msgs")
    # core.api
    m += _per_backend("api.dispatch_overhead_us.allreduce_1k", "us", "lower", "core.api", "lat_p50_us.<b> @ small_msgs")
    m += _per_backend("api.dispatch_overhead_us.allreduce_4m", "us", "lower", "core.api",
                      "none (about 0 of the op @ large_msgs)")
    m.append(PerLayer("api.resolve_us", "us", "lower", "core.api", "lat_p50_us.* @ small_msgs"))
    m.append(PerLayer("api.plan_cache_hit_ratio", "ratio", "higher", "core.api",
                      "about 1 @ small/large/wrapped, about 0 @ shape_churn"))
    m += _per_backend("api.cold_over_cached", "ratio", "lower", "core.api", "ops_per_s.<b> @ shape_churn")
    m += _per_backend("api.pipelined_over_monolithic", "ratio", "lower", "core.pipeline", "ops_per_s.<b> @ large_msgs")
    m += _per_backend("api.lat_p99_us", "us", "lower", "core.api", "reported, not gated")
    m.append(PerLayer("api.allreduce_ahead_ratio", "ratio", "lower", "core.api",
                      "correctness: strict allreduce results that folded a partner's next call"))
    for shape in SHAPE_NAMES:
        workload = next(w.name for w in WORKLOADS.values() if shape in [s.name for s in w.shapes()])
        m += _per_backend(f"api.p50_us.{shape}", "us", "lower", "core.api",
                          f"lat_p50_us.<b> @ {workload}", only=workload)
    # wrappers
    for size in ("allreduce_1k", "allreduce_1m"):
        m += _per_backend(f"telemetry.overhead_us.{size}", "us", "lower", "telemetry", "lat_p50_us.<b> @ wrapped_stack")
    m += _per_backend("faults.empty_plan_overhead_us", "us", "lower", "faults", "lat_p50_us.<b> @ wrapped_stack")
    m += _per_backend("subruntime.group_overhead_us", "us", "lower", "gaspi.subruntime", "lat_p50_us.<b> @ wrapped_stack")
    m += _per_backend("health.detector_overhead_us", "us", "lower", "health", "lat_p50_us.<b> @ wrapped_stack")
    m.append(PerLayer("analysis.tracing_overhead_ratio", "ratio", "lower", "analysis", "none (traced() is opt-in)"))
    m.append(PerLayer("simulate.machine_overhead_us", "us", "lower", "simulate", "none (machine= is opt-in)"))
    # policies / ssp / ml
    for what in ("bcast_4m", "reduce_4m"):
        m += _per_backend(f"policy.d25_speedup.{what}", "ratio", "higher", "core.policy",
                          "lat_p50_us.<b> @ ec_policies", only="ec_policies")
    ec = "ec_policies"
    m.append(PerLayer("ssp.reduce_us", "us", "lower", "ssp", "ml.train_iters_per_s @ ec_policies", ec))
    m.append(PerLayer("ssp.wait_share.s0", "ratio", "lower", "ssp", "ml.train_iters_per_s @ ec_policies", ec))
    m.append(PerLayer("ssp.wait_share.s2", "ratio", "lower", "ssp", "ml.train_iters_per_s @ ec_policies", ec))
    m.append(PerLayer("ssp.mean_staleness.s2", "count", "lower", "ssp", "ml.iters_to_target.s0 @ ec_policies", ec))
    m.append(PerLayer("ml.train_iters_per_s", "1/s", "higher", "ml", "the application-level rate @ ec_policies", ec))
    m.append(PerLayer("ml.iters_to_target.s0", "count", "lower", "ml", "exact: slack 0 is deterministic", ec))
    m.append(PerLayer("ml.final_rmse.s0", "rmse", "lower", "ml", "exact: slack 0 is deterministic", ec))
    m.append(PerLayer("trace.overhead_ratio", "ratio", "lower", "perf",
                      "untraced / traced ops_per_s of the workload itself"))
    return m


PER_LAYER: List[PerLayer] = _per_layer()

#: Metrics two runs of one commit and seed must reproduce exactly.
EXACT = [
    m.name
    for m in PER_LAYER
    if m.name.startswith("gaspi.") and "_per_op" in m.name
    or m.name in ("api.plan_cache_hit_ratio", "ml.iters_to_target.s0", "ml.final_rmse.s0")
]


def benchmark_json() -> Dict[str, object]:
    return {
        "command": ["python3", "perf/run.py"],
        "paths": ["perf"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER],
    }


if __name__ == "__main__":  # PYTHONPATH=src python3 perf/catalogue.py > BENCHMARK.json
    print(json.dumps(benchmark_json(), indent=2))
