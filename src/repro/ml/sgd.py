"""Distributed SGD driver for Matrix Factorization (Figures 6 and 7).

The training loop mirrors the paper's experiment:

* the ratings are sharded over ``num_workers`` workers;
* every iteration each worker computes the dense MF gradient of its shard,
  then exchanges it with the other workers through an Allreduce;
* with ``algorithm="ssp"`` the exchange is the SSP hypercube allreduce
  (Algorithm 1, ``comm.allreduce_ssp``) and the worker proceeds as soon as
  the contributions it reuses are at most ``slack`` iterations old;
* with ``algorithm="ring"`` the exchange is the fully consistent ring
  allreduce (the BSP baseline, ``comm.allreduce(algorithm=
  "gaspi_allreduce_ring")``).

Every worker runs on one :class:`~repro.core.api.Communicator`, whose
plan cache keeps each exchange compiled from the first iteration on (and
the SSP plan's logical clock with it).

Worker heterogeneity — the reason SSP helps — is injected with a
:mod:`repro.ssp.perturbation` model, and every iteration records the wall
clock, the training error and the SSP wait time, which is exactly the data
plotted in Figures 6 and 7 of the paper.  The wait time is the time a
worker is blocked on its partners: under slack the plan times the waits
for a contribution too stale to reuse (``SSPCallStats.wait_time``); at
slack 0 the worker issues the exchange nonblocking, which runs it until it
needs a partner's post, and times the rest.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..core.api import Communicator
from ..gaspi.spmd import run_spmd
from ..gaspi.threaded import WorldConfig
from ..ssp.perturbation import ComputePerturbation, NoPerturbation, perturbation_from_spec
from ..ssp.staleness import StalenessTracker
from ..utils.validation import require
from .datasets import RatingsDataset
from .matrix_factorization import MatrixFactorizationModel
from .metrics import iterations_to_target, time_to_target


@dataclass
class DistributedSGDConfig:
    """Configuration of one distributed MF-SGD training run."""

    num_workers: int = 4
    num_factors: int = 8
    iterations: int = 50
    learning_rate: float = 10.0
    regularization: float = 0.02
    slack: int = 0
    algorithm: str = "ssp"  # "ssp", "ring" or "ring_overlap"
    #: artificial per-iteration compute floor (seconds); the perturbation
    #: model scales/offsets it to create stragglers
    base_compute_time: float = 0.002
    perturbation: str = "linear:1.6"
    seed: int = 0
    record_every: int = 1
    spmd_timeout: float = 300.0
    #: Gradient buckets of the ``"ring_overlap"`` exchange: the gradient
    #: vector is cut into this many slices, each allreduced through its
    #: own nonblocking pipeline (tagged plan) while the remaining slices
    #: are still being produced — the bucketed-overlap idiom of DL
    #: frameworks.
    overlap_buckets: int = 4

    def __post_init__(self) -> None:
        require(self.num_workers >= 1, "num_workers must be >= 1")
        require(self.iterations >= 1, "iterations must be >= 1")
        require(
            self.algorithm in ("ssp", "ring", "ring_overlap"),
            "algorithm must be 'ssp', 'ring' or 'ring_overlap'",
        )
        require(self.slack >= 0, "slack must be non-negative")
        require(self.record_every >= 1, "record_every must be >= 1")
        require(self.overlap_buckets >= 1, "overlap_buckets must be >= 1")


@dataclass
class IterationRecord:
    """Per-iteration measurement on one worker."""

    iteration: int
    elapsed: float
    train_rmse: float
    wait_time: float
    staleness: int
    result_clock: int


@dataclass
class WorkerResult:
    """Everything one worker measured during training."""

    rank: int
    records: List[IterationRecord]
    final_rmse: float
    total_time: float
    total_wait_time: float
    staleness: StalenessTracker

    @property
    def iterations(self) -> int:
        """Iterations trained: the last record is always the final one."""
        return self.records[-1].iteration if self.records else 0

    @property
    def iterations_per_second(self) -> float:
        if self.total_time <= 0:
            return 0.0
        return self.iterations / self.total_time


@dataclass
class SlackSweepEntry:
    """Aggregated outcome of one slack setting (one line of Figure 6)."""

    slack: int
    mean_iterations_per_second: float
    mean_wait_time_per_iteration: float
    final_rmse: float
    time_to_target: Optional[float]
    iterations_to_target: Optional[int]
    total_time: float
    worker_results: List[WorkerResult] = field(default_factory=list)


# --------------------------------------------------------------------------- #
# the per-worker training loop
# --------------------------------------------------------------------------- #
def _worker_train(
    runtime,
    dataset: RatingsDataset,
    config: DistributedSGDConfig,
    perturbation: ComputePerturbation,
) -> WorkerResult:
    rank = runtime.rank
    size = runtime.size
    shard = dataset.shard(size, rank)
    model = MatrixFactorizationModel.initialize(
        dataset.num_users,
        dataset.num_items,
        num_factors=config.num_factors,
        regularization=config.regularization,
        seed=config.seed,
    )
    num_params = model.num_parameters

    comm = Communicator(runtime)
    out = np.empty(num_params)
    overlap: Optional[OverlapAllreduce] = None
    if config.algorithm == "ring_overlap" and size > 1:
        overlap = OverlapAllreduce(comm, num_params, buckets=config.overlap_buckets)

    tracker = StalenessTracker(slack=config.slack)
    records: List[IterationRecord] = []
    start = time.perf_counter()
    total_wait = 0.0

    for iteration in range(1, config.iterations + 1):
        gradient = model.gradient_flat(shard)
        # heterogeneity: some workers take longer to produce their gradient
        perturbation.sleep(rank, iteration, config.base_compute_time)

        if size == 1:
            averaged = gradient
            wait_time, staleness, result_clock = 0.0, 0, iteration
        elif config.algorithm == "ssp" and config.slack:
            result = comm.allreduce_ssp(gradient, slack=config.slack)
            averaged = result.value / size
            wait_time = result.detail.wait_time
            staleness = result.detail.staleness
            result_clock = result.detail.result_clock
        elif config.algorithm == "ssp":
            # Strict: issuing runs the exchange until it needs a partner's
            # post; the rest is the time blocked on partners.
            handle = comm.iallreduce(gradient, out, algorithm="gaspi_allreduce_ssp_hypercube")
            wait_time = 0.0
            if not handle.done:
                began = time.perf_counter()
                handle.wait()
                wait_time = time.perf_counter() - began
            averaged = out / size
            staleness, result_clock = 0, iteration
        elif config.algorithm == "ring_overlap":
            # Bucketed nonblocking exchange: bucket pipelines advance in
            # the background while later buckets are issued.
            averaged = overlap.exchange(gradient) / size
            wait_time, staleness, result_clock = 0.0, 0, iteration
        else:  # fully consistent ring allreduce (BSP baseline)
            comm.allreduce(gradient, out, algorithm="gaspi_allreduce_ring")
            averaged = out / size
            wait_time, staleness, result_clock = 0.0, 0, iteration

        total_wait += wait_time
        tracker.record_iteration(staleness, wait_time, waited=wait_time > 0.0)
        model.apply_update(averaged, config.learning_rate)

        if iteration % config.record_every == 0 or iteration == config.iterations:
            records.append(
                IterationRecord(
                    iteration=iteration,
                    elapsed=time.perf_counter() - start,
                    train_rmse=model.rmse(dataset),
                    wait_time=wait_time,
                    staleness=staleness,
                    result_clock=result_clock,
                )
            )

    total_time = time.perf_counter() - start
    comm.close()

    return WorkerResult(
        rank=rank,
        records=records,
        final_rmse=model.rmse(dataset),
        total_time=total_time,
        total_wait_time=total_wait,
        staleness=tracker,
    )


def run_distributed_sgd(
    dataset: RatingsDataset,
    config: DistributedSGDConfig,
    world_config: Optional[WorldConfig] = None,
) -> List[WorkerResult]:
    """Train MF-SGD on ``num_workers`` rank threads; returns per-worker results."""
    perturbation = perturbation_from_spec(
        config.perturbation, config.num_workers, seed=config.seed
    )
    return run_spmd(
        config.num_workers,
        _worker_train,
        dataset,
        config,
        perturbation,
        world_config=world_config,
        timeout=config.spmd_timeout,
    )


# --------------------------------------------------------------------------- #
# the slack sweep of Figure 6
# --------------------------------------------------------------------------- #
def run_slack_sweep(
    dataset: RatingsDataset,
    slacks: Sequence[int],
    base_config: Optional[DistributedSGDConfig] = None,
    target_rmse: Optional[float] = None,
) -> Dict[int, SlackSweepEntry]:
    """Run the same training job for several slack values (Figure 6).

    The target error defaults to the final error of the ``slack = 0`` run
    (which is therefore executed first), matching the paper's methodology:
    "iterate for a total of 500 iterations for the slack = 0 execution, and
    then for the other executions use a number of iterations necessary to
    achieve the same error".
    """
    base_config = base_config or DistributedSGDConfig()
    slacks = list(slacks)
    require(bool(slacks), "need at least one slack value")
    ordered = sorted(set(slacks), key=lambda s: (s != 0, s))  # slack 0 first if present

    results: Dict[int, SlackSweepEntry] = {}
    for slack in ordered:
        config = DistributedSGDConfig(**{**base_config.__dict__, "slack": slack})
        worker_results = run_distributed_sgd(dataset, config)
        entry = _aggregate(slack, worker_results, target_rmse)
        results[slack] = entry
        if target_rmse is None and slack == 0:
            target_rmse = entry.final_rmse * 1.02  # small tolerance band
            # recompute convergence targets of the slack-0 entry itself
            results[slack] = _aggregate(slack, worker_results, target_rmse)
    # If slack 0 was not requested, fall back to the first entry's error.
    if target_rmse is None:
        first = results[ordered[0]]
        target_rmse = first.final_rmse * 1.02
        results = {s: _aggregate(s, e.worker_results, target_rmse) for s, e in results.items()}
    return {s: results[s] for s in slacks}


def _aggregate(
    slack: int, worker_results: List[WorkerResult], target_rmse: Optional[float]
) -> SlackSweepEntry:
    reference = worker_results[0]
    times = [r.elapsed for r in reference.records]
    errors = [r.train_rmse for r in reference.records]
    mean_ips = float(np.mean([w.iterations_per_second for w in worker_results]))
    mean_wait = float(
        np.mean(
            [
                w.total_wait_time / max(1, w.iterations)
                for w in worker_results
            ]
        )
    )
    return SlackSweepEntry(
        slack=slack,
        mean_iterations_per_second=mean_ips,
        mean_wait_time_per_iteration=mean_wait,
        final_rmse=reference.final_rmse,
        time_to_target=(
            time_to_target(times, errors, target_rmse) if target_rmse is not None else None
        ),
        iterations_to_target=(
            iterations_to_target(errors, target_rmse) if target_rmse is not None else None
        ),
        total_time=max(w.total_time for w in worker_results),
        worker_results=worker_results,
    )


# --------------------------------------------------------------------------- #
# overlapping gradient allreduce (nonblocking bucket pipelines)
# --------------------------------------------------------------------------- #
class OverlapAllreduce:
    """Bucketed overlapping gradient exchange over nonblocking pipelines.

    The DL-framework idiom on top of
    :meth:`repro.core.api.Communicator.iallreduce`: the gradient vector is
    cut into ``buckets`` slices, each exchanged through its own tagged
    compiled plan.  :meth:`exchange` issues all buckets and drains them;
    :meth:`issue` / :meth:`finish` split the two halves so a training loop
    can push each bucket the moment its layer's gradient is ready and keep
    computing while earlier buckets reduce — with the communicator's
    progress thread running, the pipelines advance during any phase that
    releases the CPU (accelerator offload, I/O, stragglers' wait time).
    """

    def __init__(
        self,
        comm: Communicator,
        num_params: int,
        buckets: int = 4,
        progress_thread: bool = True,
    ) -> None:
        require(buckets >= 1, "buckets must be >= 1")
        self.comm = comm
        self.num_params = int(num_params)
        self.buckets = min(int(buckets), max(1, self.num_params))
        bounds = np.linspace(0, self.num_params, self.buckets + 1).astype(int)
        self.bounds = [
            (int(bounds[i]), int(bounds[i + 1])) for i in range(self.buckets)
        ]
        self._out = np.empty(self.num_params, dtype=np.float64)
        self._pending: List = []
        if progress_thread:
            comm.start_progress_thread()

    def issue(self, gradient: np.ndarray, bucket: int) -> None:
        """Start the nonblocking exchange of one gradient bucket.

        The bucket is posted as a *view* of ``gradient`` (no copy): the
        slice must stay unmodified until :meth:`finish` returned.
        """
        begin, end = self.bounds[bucket]
        self._pending.append(
            self.comm.iallreduce(
                np.ascontiguousarray(gradient[begin:end]),
                recvbuf=self._out[begin:end],
                tag=bucket,
            )
        )

    def finish(self) -> np.ndarray:
        """Drain all issued buckets; returns the reduced full vector.

        Waits the tracked handles only — an unrelated nonblocking
        collective the application has in flight on the same communicator
        is left alone.
        """
        for handle in self._pending:
            handle.wait()
        self._pending.clear()
        return self._out

    def exchange(self, gradient: np.ndarray) -> np.ndarray:
        """Issue every bucket and drain (the drop-in allreduce form)."""
        for bucket in range(self.buckets):
            self.issue(gradient, bucket)
        return self.finish()

    def close(self) -> None:
        """Release the communicator's plans and progress thread."""
        self.comm.close()


@dataclass
class OverlapDemoResult:
    """Measured outcome of the overlap demonstration."""

    blocking_seconds: float
    overlapped_seconds: float
    results_match: bool

    @property
    def speedup(self) -> float:
        if self.overlapped_seconds <= 0:
            return 0.0
        return self.blocking_seconds / self.overlapped_seconds


def run_overlap_demo(
    num_workers: int = 4,
    buckets: int = 8,
    bucket_elements: int = 1 << 15,
    compute_time: float = 0.012,
    iterations: int = 10,
    straggle_factor: float = 2.5,
    seed: int = 0,
    timeout: float = 240.0,
) -> OverlapDemoResult:
    """Measure overlapping vs blocking gradient allreduce on one machine.

    Both variants run the *same* bucketed SGD step — each of ``buckets``
    gradient slices is produced (modelled as offloaded compute that
    releases the CPU, with deterministic per-(rank, iteration, bucket)
    straggler jitter up to ``straggle_factor``) and then exchanged — the
    canonical overlap comparison:

    * **blocking** exchanges each bucket with a blocking ``allreduce`` the
      moment it is ready, so every bucket synchronises on that bucket's
      slowest producer and the straggler penalties *add up* across buckets
      (the process-arrival-pattern amplification the paper targets);
    * **overlapped** issues ``iallreduce`` per bucket and keeps computing —
      the per-bucket pipelines absorb the skew in the background (progress
      thread), and one ``wait_all`` drains the tail.

    Returns per-iteration wall times and whether the two variants produced
    bit-identical reduced gradients.
    """

    def worker(runtime, overlap: bool):
        comm = Communicator(runtime)
        rng = np.random.default_rng(runtime.rank)
        num_params = buckets * bucket_elements
        gradient = rng.random(num_params)
        exchanger = OverlapAllreduce(
            comm, num_params, buckets=buckets, progress_thread=overlap
        )
        out = np.empty(num_params)
        per_bucket = compute_time / buckets
        # Deterministic rotating stragglers: same schedule in both variants.
        jitter = 1.0 + (straggle_factor - 1.0) * np.random.default_rng(
            seed
        ).random((iterations, num_workers, buckets))
        # Warm the per-bucket plans out of the measurement.
        exchanger.exchange(gradient)
        runtime.barrier()
        start = time.perf_counter()
        for it in range(iterations):
            for bucket in range(buckets):
                # this bucket's offloaded backward slice (CPU idle)
                time.sleep(per_bucket * jitter[it, runtime.rank, bucket])
                if overlap:
                    exchanger.issue(gradient, bucket)
                else:
                    begin, end = exchanger.bounds[bucket]
                    comm.allreduce(
                        gradient[begin:end],
                        recvbuf=out[begin:end],
                        algorithm="ring_pipelined",
                    )
            if overlap:
                out[:] = exchanger.finish()
        elapsed = (time.perf_counter() - start) / iterations
        runtime.barrier()
        exchanger.close()
        return elapsed, out

    blocking = run_spmd(num_workers, worker, False, timeout=timeout)
    overlapped = run_spmd(num_workers, worker, True, timeout=timeout)
    match = all(
        np.array_equal(b[1], o[1]) for b, o in zip(blocking, overlapped)
    )
    return OverlapDemoResult(
        blocking_seconds=max(r[0] for r in blocking),
        overlapped_seconds=max(r[0] for r in overlapped),
        results_match=match,
    )
