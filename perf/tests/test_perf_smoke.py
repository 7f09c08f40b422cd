"""Smoke test of the gated benchmark (not part of the tier-1 suite).

    PYTHONPATH=src python -m pytest perf/tests -q

Quick runs only: every declared metric is emitted with its unit, counts
repeat exactly, and a wrong result or a hung world is reported as failed
calls rather than as a crash.
"""

import json
import multiprocessing
import os
import re
import sys
from pathlib import Path

import numpy as np
import pytest

PERF = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(PERF))

import run  # noqa: E402  (puts ../src on sys.path)
from catalogue import END_TO_END, EXACT, PER_LAYER, benchmark_json  # noqa: E402
from harness import PhasePlan, join_phase, run_phases, run_world, stop_children  # noqa: E402
from repro import Communicator  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((PERF.parent / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module", autouse=True)
def no_process_outlives_the_tests():
    yield
    stop_children()  # the tests below call into the harness without run.main


def test_benchmark_json_is_the_catalogue_and_fits_the_contract():
    assert SPEC == benchmark_json()
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(set(names)) == len(names)
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert len(SPEC["end_to_end"]) <= 16 and len(SPEC["per_layer"]) <= 128
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_untraced_run_emits_every_end_to_end_metric(workload):
    result = run.run_workload(workload, seed=3, seconds=2.0, trace=0, quick=True)
    assert result["failed"] == 0 and result["attempted"] > 0 and not result["missing"]
    assert set(result["metrics"]) == {m.name for m in END_TO_END}
    for m in END_TO_END:
        emitted = result["metrics"][m.name]
        assert emitted["unit"] == m.unit and emitted["value"] > 0
    assert result["shapes"] and all(
        q["n"] > 0 and q["p25"] <= q["p50"] <= q["p75"]
        for per_backend in result["shapes"].values()
        for q in per_backend.values()
    )


def test_traced_runs_emit_every_per_layer_metric_and_repeat_their_counts():
    first, second = (
        run.run_workload("small_msgs", seed=3, seconds=2.0, trace=1, quick=True)
        for _ in range(2)
    )
    for result in (first, second):
        assert result["failed"] == 0 and not result["missing"]
        assert set(result["metrics"]) == {m.name for m in PER_LAYER}
        assert all(result["metrics"][m.name]["unit"] == m.unit for m in PER_LAYER)
    for name in EXACT:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    assert first["metrics"]["api.plan_cache_hit_ratio"]["value"] >= 0.99
    trace = json.loads((PERF / "out" / "trace_small_msgs.json").read_text())
    spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
    assert {e["cat"] for e in spans} == {"workload", "phase", "round", "op"}
    ids = {e["args"]["id"] for e in spans}
    assert all(e["args"]["parent"] in ids for e in spans if e["cat"] != "workload")


def _children_of_this_process():
    """Pids whose parent is this process (zombies included), from /proc."""
    found = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            # "pid (comm) state ppid ...": comm may hold spaces and brackets.
            state, ppid = stat.read_text().rsplit(")", 1)[1].split()[:2]
        except OSError:
            continue  # ended while we looked
        if int(ppid) == os.getpid():
            found.append((int(stat.parent.name), state))
    return found


def test_the_command_line_leaves_no_process_behind(capsys):
    assert run.main(["--workload", "small_msgs", "--seed", "3", "--quick"]) == 0
    last = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"} and last["correct"]
    # Rank processes and multiprocessing's resource tracker: all ended and reaped.
    assert _children_of_this_process() == []


def test_policy_and_training_metrics_come_from_ec_policies():
    result = run.run_workload("ec_policies", seed=3, seconds=2.0, trace=1, quick=True)
    assert result["failed"] == 0 and not result["missing"]
    value = {n: m["value"] for n, m in result["metrics"].items()}
    assert value["policy.d25_speedup.bcast_4m.shm"] > 1.0
    assert value["ml.train_iters_per_s"] > 0 and value["ml.final_rmse.s0"] > 0
    assert value["api.p50_us.allreduce_1k.shm"] == 0.0  # a small_msgs shape


def test_shape_churn_misses_the_plan_cache():
    plan = PhasePlan("shape_churn", 3, 0.5, variants=("plain", "traced"), min_rounds=2)
    phase = run_phases(plan, 1, timeout=60.0)["threaded"]
    assert phase.failed == 0
    v = phase.variants.index("traced")
    hits, misses = (sum(rec["cache"][v][k] for rec in phase.per_rank) for k in (0, 1))
    assert hits / (hits + misses) <= 0.05


def test_a_wrong_result_counts_as_failed_calls(monkeypatch):
    real = Communicator.allreduce

    def wrong(self, sendbuf, recvbuf=None, **kwargs):
        out = real(self, sendbuf, recvbuf, **kwargs)
        if recvbuf is not None:
            recvbuf[-1] += 1.0
        return out

    monkeypatch.setattr(Communicator, "allreduce", wrong)
    phases = run_phases(PhasePlan("small_msgs", 3, 0.3, min_rounds=3), 1, timeout=60.0)
    for phase in phases.values():
        assert phase.rounds > 0 and not phase.error  # reported, not crashed
        assert 0 < phase.failed < phase.attempted  # the bcast and reduce calls pass


def test_a_hung_world_counts_as_failed_calls_and_the_next_one_runs():
    plan = PhasePlan("small_msgs", 3, 30.0)
    world = run_world("shm", plan, timeout=0.5)
    assert world.per_rank is None and "did not finish" in world.error
    phase = join_phase("shm", plan, [world])
    assert phase.failed == phase.attempted > 0 and phase.rounds == 0
    assert not multiprocessing.active_children()
    healthy = PhasePlan("small_msgs", 3, 0.3, min_rounds=3)
    after = join_phase("shm", healthy, [run_world("shm", healthy, timeout=60.0)])
    assert after.failed == 0 and after.rounds > 0
    assert np.all(after.round_time > 0)
