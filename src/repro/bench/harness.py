"""Timing-experiment harness over the schedule simulator.

The figures of the paper sweep either the node count (Figures 8–11) or the
message size (Figures 12–13) and plot one line per algorithm.  The harness
expresses exactly that: a :class:`TimingExperiment` is a set of algorithm
names (from :data:`repro.core.registry.REGISTRY`) plus per-line
:class:`~repro.core.policy.ConsistencyPolicy` objects and keyword
arguments, evaluated over a sweep on a machine model, producing a
``{algorithm: [SweepPoint, ...]}`` mapping the report module renders.

Resolution and capability checking go through the same registry metadata
the :class:`~repro.core.api.Communicator` dispatches on, so a benchmark
line and a live collective can never disagree about what an algorithm
supports; :func:`time_auto` additionally exposes the Communicator's
``algorithm="auto"`` tuning-table selection to sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

from ..core.policy import ConsistencyPolicy
from ..core.registry import REGISTRY
from ..core.tuning import select_algorithm
from ..simulate.executor import simulate_schedule
from ..simulate.machine import MachineModel
from ..utils.validation import require


@dataclass(frozen=True)
class SweepPoint:
    """One simulated data point: a parameter value and the resulting time."""

    parameter: int
    seconds: float
    algorithm: str
    num_ranks: int
    payload_bytes: int

    @property
    def microseconds(self) -> float:
        return self.seconds * 1e6


@dataclass
class TimingExperiment:
    """A named set of algorithms to compare on one machine model.

    Attributes
    ----------
    name:
        Experiment identifier ("fig08_bcast", …).
    machine:
        Machine preset the schedules are simulated on.
    algorithms:
        Mapping *line label* → registry algorithm name.
    policies:
        Optional per-line :class:`ConsistencyPolicy` (e.g. a 25% data
        threshold); translated to the builder kwargs the algorithm's
        capability metadata admits.
    algorithm_kwargs:
        Extra raw keyword arguments per line label (escape hatch for
        builder knobs that are not consistency policies).
    """

    name: str
    machine: MachineModel
    algorithms: Mapping[str, str]
    policies: Mapping[str, ConsistencyPolicy] = field(default_factory=dict)
    algorithm_kwargs: Mapping[str, dict] = field(default_factory=dict)

    def kwargs_for(self, label: str) -> dict:
        return dict(self.algorithm_kwargs.get(label, {}))

    def policy_for(self, label: str) -> Optional[ConsistencyPolicy]:
        return self.policies.get(label)


def time_algorithm(
    algorithm: str,
    num_ranks: int,
    nbytes: int,
    machine: MachineModel,
    policy: Optional[ConsistencyPolicy] = None,
    **kwargs,
) -> float:
    """Simulated completion time (seconds) of one registered algorithm.

    ``policy`` is validated against the algorithm's capability metadata
    and translated to the schedule-builder kwargs it supports, exactly as
    the Communicator does for live dispatch.
    """
    require(algorithm in REGISTRY, f"algorithm {algorithm!r} is not registered")
    info = REGISTRY.get(algorithm)
    if policy is not None:
        info.check_request(num_ranks, policy)
        kwargs = {**info.schedule_kwargs(policy), **kwargs}
    schedule = info.builder(num_ranks, nbytes, **kwargs)
    result = simulate_schedule(schedule, machine.with_ranks(num_ranks))
    return result.total_time


def time_auto(
    collective: str,
    num_ranks: int,
    nbytes: int,
    machine: MachineModel,
    family: str = "gaspi",
    policy: Optional[ConsistencyPolicy] = None,
) -> tuple[str, float]:
    """Tuning-table selection + simulation in one step.

    Returns the selected registry name and its simulated time — the
    benchmark-side mirror of ``Communicator(..., machine=...)`` with
    ``algorithm="auto"``.
    """
    info = select_algorithm(collective, num_ranks, nbytes, policy=policy, family=family)
    return info.name, time_algorithm(
        info.name, num_ranks, nbytes, machine, policy=policy
    )


def run_node_sweep(
    experiment: TimingExperiment,
    node_counts: Sequence[int],
    payload_bytes: int,
    ranks_per_node: int = 1,
) -> Dict[str, List[SweepPoint]]:
    """Sweep the node count at a fixed payload (Figures 8, 9, 10, 11)."""
    require(len(node_counts) > 0, "need at least one node count")
    series: Dict[str, List[SweepPoint]] = {}
    for label, algorithm in experiment.algorithms.items():
        points: List[SweepPoint] = []
        for nodes in node_counts:
            num_ranks = nodes * ranks_per_node
            machine = experiment.machine.with_ranks(num_ranks, ranks_per_node)
            seconds = time_algorithm(
                algorithm,
                num_ranks,
                payload_bytes,
                machine,
                policy=experiment.policy_for(label),
                **experiment.kwargs_for(label),
            )
            points.append(
                SweepPoint(
                    parameter=nodes,
                    seconds=seconds,
                    algorithm=label,
                    num_ranks=num_ranks,
                    payload_bytes=payload_bytes,
                )
            )
        series[label] = points
    return series


def run_size_sweep(
    experiment: TimingExperiment,
    payload_bytes_list: Sequence[int],
    num_nodes: int,
    ranks_per_node: int = 1,
) -> Dict[str, List[SweepPoint]]:
    """Sweep the payload size at a fixed node count (Figures 12, 13)."""
    require(len(payload_bytes_list) > 0, "need at least one payload size")
    num_ranks = num_nodes * ranks_per_node
    machine = experiment.machine.with_ranks(num_ranks, ranks_per_node)
    series: Dict[str, List[SweepPoint]] = {}
    for label, algorithm in experiment.algorithms.items():
        points: List[SweepPoint] = []
        for nbytes in payload_bytes_list:
            seconds = time_algorithm(
                algorithm,
                num_ranks,
                int(nbytes),
                machine,
                policy=experiment.policy_for(label),
                **experiment.kwargs_for(label),
            )
            points.append(
                SweepPoint(
                    parameter=int(nbytes),
                    seconds=seconds,
                    algorithm=label,
                    num_ranks=num_ranks,
                    payload_bytes=int(nbytes),
                )
            )
        series[label] = points
    return series


def crossover_point(
    series_a: Sequence[SweepPoint], series_b: Sequence[SweepPoint]
) -> Optional[int]:
    """First sweep parameter at which series A becomes faster than series B.

    Used to locate e.g. the message size at which ``gaspi_allreduce_ring``
    overtakes the MPI variants (Figure 12) or where the GASPI AlltoAll
    overtakes MPI (Figure 13).  Returns ``None`` when A never wins.
    """
    by_param_b = {p.parameter: p.seconds for p in series_b}
    for point in sorted(series_a, key=lambda p: p.parameter):
        other = by_param_b.get(point.parameter)
        if other is not None and point.seconds < other:
            return point.parameter
    return None
