"""Vector-clock happens-before order and one-sided data-race detection.

Happens-before is generated by three edge kinds:

* program order within each rank;
* notification edges: a consume joins the clock of every post whose value
  it observed (GASPI guarantees the data of a ``write_notify`` is visible
  before its notification, so the consume also orders the data);
* barriers: all ranks' clocks join at each global barrier.

A *write access* is either the remote half of a data-carrying post
(``length`` bytes at ``offset`` of the destination rank's segment,
ordered by the poster's clock) or a local store recorded by the model's
tracked segment views; a *read access* is a fold operand loaded through
one.  Two accesses to overlapping byte ranges of the same (rank, segment)
by different ranks, at least one of them a write, that are unordered
under happens-before form the one-sided data-race class this module
reports: nothing in the protocol prevents them from interleaving at byte
granularity.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Tuple

from .deadlock import Loc, ReplayResult, VectorClock, vc_leq
from .events import (
    BARRIER,
    CONSUME,
    DATA_RACE,
    LOCAL_READ,
    LOCAL_WRITE,
    POST,
    Finding,
    ProtocolTrace,
)


def compute_vector_clocks(
    trace: ProtocolTrace, replay: ReplayResult
) -> Dict[Loc, VectorClock]:
    """One vector clock per executed event, in the replay's feasible order.

    Relies on :func:`~repro.analysis.deadlock.replay_trace` releasing
    barrier groups atomically, so the ``num_ranks`` barrier events of a
    group are consecutive in ``replay.order``.
    """
    num_ranks = trace.num_ranks
    current: List[List[int]] = [[0] * num_ranks for _ in range(num_ranks)]
    clocks: Dict[Loc, VectorClock] = {}
    barrier_group: List[Loc] = []

    for location in replay.order:
        rank, index = location
        event = trace.events[rank][index]
        clock = current[rank]
        clock[rank] += 1
        if event.kind == CONSUME:
            for post_loc in replay.matches.get(location, ()):  # join posters
                poster_clock = clocks[post_loc]
                for j in range(num_ranks):
                    if poster_clock[j] > clock[j]:
                        clock[j] = poster_clock[j]
        elif event.kind == BARRIER:
            barrier_group.append(location)
            clocks[location] = tuple(clock)
            if len(barrier_group) == num_ranks:
                join = tuple(
                    max(current[q][j] for q in range(num_ranks))
                    for j in range(num_ranks)
                )
                for q in range(num_ranks):
                    current[q] = list(join)
                for member in barrier_group:
                    clocks[member] = join
                barrier_group = []
            continue
        clocks[location] = tuple(clock)
    return clocks


@dataclass(frozen=True)
class _Access:
    begin: int
    end: int
    writer: int
    location: Loc
    write: bool = True


def check_races(
    trace: ProtocolTrace,
    replay: ReplayResult,
    clocks: Dict[Loc, VectorClock],
) -> List[Finding]:
    """Report concurrent overlapping accesses (one a write) to segment bytes.

    Findings are deduplicated per (segment owner, segment, writer pair):
    a racy protocol typically races on every chunk of a transfer, and one
    finding per pair names the defect without drowning the report.
    """
    touched: Dict[Tuple[int, int], List[_Access]] = defaultdict(list)
    for location in replay.order:
        rank, index = location
        event = trace.events[rank][index]
        if event.kind == POST and event.length > 0:
            touched[(event.dst, event.segment)].append(
                _Access(
                    event.offset, event.offset + event.length, rank, location
                )
            )
        elif event.kind in (LOCAL_WRITE, LOCAL_READ) and event.length > 0:
            touched[(event.rank, event.segment)].append(
                _Access(
                    event.offset,
                    event.offset + event.length,
                    rank,
                    location,
                    event.kind == LOCAL_WRITE,
                )
            )

    findings: List[Finding] = []
    reported: Dict[Tuple[int, int, int, int], int] = {}
    examples: Dict[Tuple[int, int, int, int], str] = {}
    for (owner, segment), accesses in sorted(touched.items()):
        accesses.sort(key=lambda a: (a.begin, a.end))
        active: List[_Access] = []
        for access in accesses:
            active = [a for a in active if a.end > access.begin]
            for other in active:
                if other.writer == access.writer or not (other.write or access.write):
                    continue
                if vc_leq(clocks[other.location], clocks[access.location]):
                    continue
                if vc_leq(clocks[access.location], clocks[other.location]):
                    continue
                pair = tuple(sorted((other.writer, access.writer)))
                key = (owner, segment, pair[0], pair[1])
                reported[key] = reported.get(key, 0) + 1
                examples.setdefault(
                    key,
                    f"bytes [{max(other.begin, access.begin)}, "
                    f"{min(other.end, access.end)})",
                )
            active.append(access)

    for (owner, segment, writer_a, writer_b), count in sorted(reported.items()):
        findings.append(
            Finding(
                DATA_RACE,
                f"ranks {writer_a} and {writer_b} access overlapping bytes of "
                f"rank {owner}'s segment {segment} with no happens-before "
                f"ordering ({count} overlapping pair(s), e.g. "
                f"{examples[(owner, segment, writer_a, writer_b)]})",
                rank=owner,
                segment=segment,
            )
        )
    return findings
