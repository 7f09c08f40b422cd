"""Static schedule verification for compiled collective plans.

``repro.analysis`` checks the one-sided GASPI invariants that the rest of
the code base only enforces by example: every ``write_notify`` matched by
a consume, no slot overwritten while its value is unconsumed, no
concurrent overlapping writes, every notification id and byte offset
inside its budget.  The checks run over :class:`~repro.analysis.events.
ProtocolTrace` objects recorded by :class:`~repro.analysis.tracing.
TracingRuntime`, either from live runs or by the model
(:func:`~repro.analysis.model.build_model` executes the real plan classes
on the shipped threaded runtime, every rank on one cooperatively
scheduled thread).

Entry points
------------
:func:`analyze`
    Run all four checkers over one trace; returns the findings.
:func:`analyze_run`
    :func:`analyze` a model run's trace, plus the values it got wrong.
:func:`verify_algorithm`
    Model one algorithm/ranks/payload cell and analyze it.
:func:`verify_recycling`
    Model two different plans back to back on recycled workspace-pool
    segments (one rank lagging) and analyze trace and values.
``python -m repro.analysis --all``
    Sweep every registered verified algorithm × {4, 8, 16} ranks (or
    ``--ranks``, each at least 2) × representative payloads (the
    fault-tolerant plans: × their faults, :func:`build_tolerant_model`),
    plus the recycling pairs; non-zero exit on any finding.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, List, Optional

from .budget import check_budget
from .deadlock import check_double_posts, replay_trace
from .events import (
    BUDGET,
    DATA_RACE,
    DEADLOCK,
    DOUBLE_POST,
    MODEL_STUCK,
    UNMATCHED,
    WRONG_VALUE,
    Event,
    Finding,
    ProtocolTrace,
    SegmentMeta,
)
from .model import ModelRun, ModelWorld, build_model, build_recycle_model, build_tolerant_model
from .races import check_races, compute_vector_clocks
from .tracing import TraceSink, TracingRuntime

__all__ = [
    "BUDGET",
    "DATA_RACE",
    "DEADLOCK",
    "DOUBLE_POST",
    "MODEL_STUCK",
    "UNMATCHED",
    "WRONG_VALUE",
    "Event",
    "Finding",
    "ModelRun",
    "ModelWorld",
    "ProtocolTrace",
    "SegmentMeta",
    "TraceSink",
    "TracingRuntime",
    "analyze",
    "analyze_run",
    "build_model",
    "build_recycle_model",
    "build_tolerant_model",
    "model_cell",
    "verify_algorithm",
    "verify_recycling",
]


def analyze(trace: ProtocolTrace) -> List[Finding]:
    """Run every checker over one trace and return all findings.

    Order of operations: the replay recomputes the post/consume matching
    and diagnoses blocked states (unmatched notifications, deadlock
    cycles); the budget check is replay-independent; vector clocks over
    the replayed order feed the double-post and data-race checks.  An
    empty list means the trace upholds every verified invariant.
    """
    findings: List[Finding] = []
    for rank in trace.stalled_ranks:
        findings.append(
            Finding(
                MODEL_STUCK,
                f"rank {rank}'s modelled program could not run to completion",
                rank=rank,
            )
        )
    replay = replay_trace(trace)
    findings.extend(replay.findings)
    findings.extend(check_budget(trace))
    clocks = compute_vector_clocks(trace, replay)
    findings.extend(check_double_posts(trace, replay, clocks))
    findings.extend(check_races(trace, replay, clocks))
    return [
        finding if finding.trace else replace(finding, trace=trace.name)
        for finding in findings
    ]


def analyze_run(run: ModelRun) -> List[Finding]:
    """Findings of one model run: its trace's, plus a ``wrong-value``
    finding for every result the run checked and found wrong."""
    return analyze(run.trace) + [
        Finding(WRONG_VALUE, message, trace=run.trace.name)
        for message in run.wrong_values
    ]


def model_cell(
    algorithm: str, num_ranks: int, nbytes: int = 256, **model_kwargs: Any
) -> ModelRun:
    """Run one cell of the CLI sweep: :func:`build_tolerant_model` for a
    ``fault=`` cell of a fault-tolerant algorithm, else :func:`build_model`."""
    if "fault" in model_kwargs:
        return build_tolerant_model(algorithm, num_ranks, nbytes, **model_kwargs)
    return build_model(algorithm, num_ranks, nbytes, **model_kwargs)


def verify_algorithm(
    algorithm: str, num_ranks: int, nbytes: int = 256, **model_kwargs: Any
) -> List[Finding]:
    """Model one cell and analyze it — the unit of the CLI sweep."""
    return analyze_run(model_cell(algorithm, num_ranks, nbytes, **model_kwargs))


def verify_recycling(
    first: str, other: str, num_ranks: int, nbytes: int = 256, **model_kwargs: Any
) -> List[Finding]:
    """Model one workspace-recycling cell; trace findings plus wrong values."""
    return analyze_run(build_recycle_model(first, other, num_ranks, nbytes, **model_kwargs))
