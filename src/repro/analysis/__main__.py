"""CLI sweep: ``python -m repro.analysis --all``.

Models every registered verified algorithm at several rank counts and
representative payloads (monolithic and pipelined/chunked), plus pairs of
different plans back to back on recycled workspace-pool segments, runs all
four checkers over each cell, holds what each call delivered against
:func:`~repro.core.policy.documented_result` (threshold and slack cells
included; nobody leaves a barrier early), and prints a findings report
whose summary counts the value-checked cells.  The plans with a
``segment_bind`` branch also run bound twins, on a model world with
bind.  The
fault-tolerant plans run one cell per fault — a rank that never enters, a
rank crashed mid-send, a late contribution folded in by a correction pass —
each checked against the documented contributor set and the exact result
(:func:`~repro.analysis.model.build_tolerant_model`).  Exit status is
non-zero when any finding survives — CI runs this as the
``static-analysis`` job.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from collections import Counter
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..core.registry import REGISTRY
from . import analyze_run, build_recycle_model, model_cell
from .events import Finding
from .model import TOLERANT_FAULTS

#: (nbytes, chunk_bytes) payload cells, chosen so pipelined plans exercise
#: several chunks per call while the whole sweep stays CI-fast.
_MONOLITHIC_PAYLOADS: List[Tuple[int, Optional[int]]] = [(256, None), (1024, None)]
_PIPELINED_PAYLOADS: List[Tuple[int, Optional[int]]] = [(512, 128), (2048, 512)]
#: Block bytes of the families whose slots are keyed by call parity; a
#: cell's payload is P blocks, so every world size divides an alltoall's.
_PARITY_BLOCKS = {"alltoall": [32, 128], "allgather": [32, 128], "barrier": [0]}
#: Plans with a ``segment_bind`` branch, and the world sizes of their bound
#: twins: the smallest ring and an odd one.
_BOUND_PLANS = ("gaspi_bcast_bst_pipelined", "gaspi_allreduce_ring_pipelined")
_BOUND_RANKS = (2, 5)


def _cells(
    algorithms: Sequence[str], rank_counts: Sequence[int], calls: int
) -> List[Tuple[str, int, int, Dict[str, Any]]]:
    """(algorithm, ranks, nbytes, further ``build_model`` arguments) cells."""
    cells: List[Tuple[str, int, int, Dict[str, Any]]] = []
    for name in algorithms:
        info = REGISTRY.get(name)
        for ranks in rank_counts:
            reason = info.capabilities.unsupported_reason(
                ranks, None, None
            )
            if reason is not None:
                continue
            roots = [0]
            if info.collective in ("bcast", "reduce") and ranks == 8:
                # A non-default root reshapes the tree, and moves a
                # tolerant broadcast's faulty root off rank 0.
                roots.append(1)
            if info.capabilities.fault_tolerant:
                cells.extend(
                    (name, ranks, 256, dict(fault=fault, root=root))
                    for root in roots
                    for fault in TOLERANT_FAULTS
                )
                continue
            payloads = (
                _PIPELINED_PAYLOADS
                if info.capabilities.pipelined
                else _MONOLITHIC_PAYLOADS
            )
            if info.collective in _PARITY_BLOCKS:
                payloads = [(ranks * block, None) for block in _PARITY_BLOCKS[info.collective]]
            shapes = [
                dict(root=root, chunk_bytes=chunk_bytes, calls=calls, nbytes=nbytes)
                for nbytes, chunk_bytes in payloads
                for root in roots
            ]
            if info.collective in _PARITY_BLOCKS:
                # The third call reuses the first one's slots and ids, and a
                # rank late to every call lets the others run as far ahead
                # as the parity allows.
                for shape in shapes:
                    shape.update(calls=max(calls, 3), laggard=ranks - 1)
            if info.capabilities.supports_threshold:
                # 0.3 rounds both ways: ⌊n·t⌋ ≠ ⌈n·t⌉ at 32 and 64
                # elements, ⌊t·P⌋ ≠ ⌈t·P⌉ at 4, 8 and 16 ranks.
                shapes += [
                    dict(shapes[0], threshold=threshold, mode=mode)
                    for mode in info.capabilities.modes
                    for threshold in ((0.5, 0.3) if info.collective == "reduce" else (0.3,))
                ]
            if info.collective == "reduce":
                # A reduce child runs ahead of its parent until it is out
                # of credit — one call — so it is the third call that has
                # to wait, and somebody has to be late: the root (all its
                # children run ahead) or, under the other root, its last
                # child (siblings run ahead while the parent still sweeps).
                for shape in shapes:
                    root = shape["root"]
                    shape.update(
                        calls=max(calls, 3),
                        laggard=root if root == 0 else (root + ranks // 2) % ranks,
                    )
            if info.capabilities.supports_slack:
                # Stale reuse: the others run up to ``slack`` calls past a
                # late rank, then wait for it — so it takes slack + 2 calls.
                shapes += [
                    dict(shapes[0], slack=slack, calls=max(calls, slack + 2), laggard=ranks - 1)
                    for slack in (1, 2)
                ]
            cells.extend((name, ranks, shape.pop("nbytes"), shape) for shape in shapes)
        if name in _BOUND_PLANS:
            # The bound branch on a world with segment_bind; the last cell
            # hands every call a new buffer, late into each, so every call
            # rebinds behind its fence.
            cells.extend(
                (name, ranks, nbytes, dict(chunk_bytes=chunk_bytes, calls=calls, bind=True))
                for ranks in _BOUND_RANKS
                for nbytes, chunk_bytes in _PIPELINED_PAYLOADS
            )
            nbytes, chunk_bytes = _PIPELINED_PAYLOADS[0]
            ranks = _BOUND_RANKS[-1]
            cells.append(
                (name, ranks, nbytes, dict(
                    chunk_bytes=chunk_bytes, calls=max(calls, 3), laggard=ranks - 1,
                    bind=True, fresh_buffers=True,
                ))
            )  # fmt: skip
    return cells


#: (first, other plan) pairs run back to back on recycled workspace
#: segments (pairs whose notification boards share a class, or nothing
#: would be recycled): consume-acks left for the next lessee under both
#: ack-id maps, the hypercube's clocked mailboxes, the ring's step slots,
#: and the credit each reduce plan leaves posted at its children — id 64
#: under one map, id 0 (the other's first DATA id) under the other.
_RECYCLE_PAIRS: List[Tuple[str, str]] = [
    ("gaspi_bcast_bst", "gaspi_bcast_flat"),
    ("gaspi_bcast_bst", "gaspi_allreduce_ssp_hypercube"),
    ("gaspi_bcast_flat", "gaspi_allreduce_ssp_hypercube"),
    ("gaspi_bcast_bst", "gaspi_allreduce_ring"),
    ("gaspi_reduce_bst", "gaspi_reduce_bst_pipelined"),
]


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Static schedule verifier for compiled collective plans.",
    )
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--all",
        action="store_true",
        help="sweep every registered verified algorithm",
    )
    group.add_argument(
        "--algorithm",
        help="verify a single registered verified algorithm",
    )
    parser.add_argument(
        "--ranks",
        type=int,
        nargs="+",
        default=[4, 8, 16],
        help="rank counts to model (default: 4 8 16)",
    )
    parser.add_argument(
        "--calls",
        type=int,
        default=2,
        help="back-to-back calls per cell (2 exercises cross-call handshakes; "
        "reduce cells run at least 3)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the report as JSON instead of text",
    )
    args = parser.parse_args(argv)
    # A cell of zero calls verifies nothing, and a collective needs a peer.
    if args.calls < 1:
        parser.error(f"--calls must be at least 1, got {args.calls}")
    if min(args.ranks) < 2:
        parser.error(f"--ranks must all be at least 2, got {min(args.ranks)}")

    if args.all:
        algorithms = sorted(info.name for info in REGISTRY.items() if info.capabilities.verified)
    else:
        info = REGISTRY.get(args.algorithm)
        if not info.capabilities.verified:
            parser.error(
                f"algorithm {args.algorithm!r} has no compiled plan to verify"
            )
        algorithms = [info.name]

    started = time.perf_counter()
    report: List[Dict[str, object]] = []
    all_findings: List[Finding] = []
    runs = [
        (REGISTRY.get(name).collective if "fault" not in cell else "tolerant",
         functools.partial(model_cell, name, ranks, nbytes, **cell))
        for name, ranks, nbytes, cell in _cells(algorithms, args.ranks, args.calls)
    ]  # fmt: skip
    runs += [
        ("recycle", functools.partial(build_recycle_model, first, other, ranks, calls=args.calls))
        for first, other in (_RECYCLE_PAIRS if args.all else ())
        for ranks in args.ranks
        if not REGISTRY.get(other).capabilities.unsupported_reason(ranks, None, None)
    ]
    for kind, build in runs:
        run = build()
        findings = analyze_run(run)
        all_findings.extend(findings)
        report.append(
            {
                "cell": run.trace.name,
                "kind": kind,
                "events": run.trace.total_events(),
                "value_checks": run.value_checks,
                "findings": [finding.describe() for finding in findings],
            }
        )
        if not args.json:
            status = "ok" if not findings else f"{len(findings)} finding(s)"
            print(f"{status:>14}  {run.trace.name}  ({run.trace.total_events()} events)")
            for finding in findings:
                print(f"                {finding.describe()}")
    elapsed = time.perf_counter() - started
    checked = sum(1 for row in report if row["value_checks"])

    if args.json:
        print(
            json.dumps(
                {
                    "cells": report,
                    "value_checked": checked,
                    "total_findings": len(all_findings),
                    "elapsed_seconds": round(elapsed, 3),
                },
                indent=2,
            )
        )
    else:
        # Per collective, so that a cell family dropped from the sweep shows.
        kinds = Counter(str(row["kind"]) for row in report)
        breakdown = ", ".join(f"{kind} {count}" for kind, count in sorted(kinds.items()))
        print(
            f"\n{len(report)} cell(s) verified ({breakdown}), {checked} value-checked, "
            f"in {elapsed:.2f}s — {len(all_findings)} finding(s)"
        )
    return 1 if all_findings else 0


if __name__ == "__main__":
    sys.exit(main())
