"""CLI sweep: ``python -m repro.analysis --all``.

Models every registered plannable algorithm at several rank counts and
representative payloads (monolithic and pipelined/chunked), plus pairs of
different plans back to back on recycled workspace-pool segments, runs all
four checkers over each cell, and prints a findings report.  Exit status is
non-zero when any finding survives — CI runs this as the
``static-analysis`` job.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.registry import REGISTRY
from . import analyze, build_model, verify_recycling
from .events import Finding

#: (nbytes, chunk_bytes) payload cells, chosen so pipelined plans exercise
#: several chunks per call while the whole sweep stays CI-fast.
_MONOLITHIC_PAYLOADS: List[Tuple[int, Optional[int]]] = [(256, None), (1024, None)]
_PIPELINED_PAYLOADS: List[Tuple[int, Optional[int]]] = [(512, 128), (2048, 512)]


def _cells(
    algorithms: Sequence[str], rank_counts: Sequence[int]
) -> List[Tuple[str, int, int, Optional[int], int]]:
    """(algorithm, ranks, nbytes, chunk_bytes, root) cells of the sweep."""
    cells: List[Tuple[str, int, int, Optional[int], int]] = []
    for name in algorithms:
        info = REGISTRY.get(name)
        payloads = (
            _PIPELINED_PAYLOADS
            if info.capabilities.pipelined
            else _MONOLITHIC_PAYLOADS
        )
        for ranks in rank_counts:
            reason = info.capabilities.unsupported_reason(
                ranks, None, None
            )
            if reason is not None:
                continue
            roots = [0]
            if info.collective in ("bcast", "reduce") and ranks == 8:
                roots.append(1)  # a non-default root reshapes the tree
            for nbytes, chunk_bytes in payloads:
                for root in roots:
                    cells.append((name, ranks, nbytes, chunk_bytes, root))
    return cells


#: (broadcast, other plan) pairs run back to back on recycled workspace
#: segments (pairs whose notification boards share a class, or nothing
#: would be recycled): consume-acks left for the next lessee under both
#: ack-id maps, the hypercube's clocked mailboxes, the ring's step slots.
_RECYCLE_PAIRS: List[Tuple[str, str]] = [
    ("gaspi_bcast_bst", "gaspi_bcast_flat"),
    ("gaspi_bcast_bst", "gaspi_allreduce_ssp_hypercube"),
    ("gaspi_bcast_flat", "gaspi_allreduce_ssp_hypercube"),
    ("gaspi_bcast_bst", "gaspi_allreduce_ring"),
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
        help="sweep every registered plannable algorithm",
    )
    group.add_argument(
        "--algorithm",
        help="verify a single registered plannable algorithm",
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
        help="back-to-back calls per cell (2 exercises cross-call handshakes)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the report as JSON instead of text",
    )
    args = parser.parse_args(argv)

    if args.all:
        algorithms = [info.name for info in REGISTRY.items() if info.plannable]
        algorithms.sort()
    else:
        info = REGISTRY.get(args.algorithm)
        if not info.plannable:
            parser.error(
                f"algorithm {args.algorithm!r} has no compiled plan to verify"
            )
        algorithms = [info.name]

    started = time.perf_counter()
    report: List[Dict[str, object]] = []
    all_findings: List[Finding] = []
    for name, ranks, nbytes, chunk_bytes, root in _cells(algorithms, args.ranks):
        run = build_model(
            name,
            ranks,
            nbytes,
            root=root,
            chunk_bytes=chunk_bytes,
            calls=args.calls,
        )
        findings = analyze(run.trace)
        all_findings.extend(findings)
        report.append(
            {
                "cell": run.trace.name,
                "events": run.trace.total_events(),
                "findings": [finding.describe() for finding in findings],
            }
        )
        if not args.json:
            status = "ok" if not findings else f"{len(findings)} finding(s)"
            print(f"{status:>14}  {run.trace.name}  ({run.trace.total_events()} events)")
            for finding in findings:
                print(f"                {finding.describe()}")
    for bcast, other in _RECYCLE_PAIRS if args.all else ():
        for ranks in args.ranks:
            if REGISTRY.get(other).capabilities.unsupported_reason(ranks, None, None):
                continue
            findings = verify_recycling(bcast, other, ranks, calls=args.calls)
            all_findings.extend(findings)
            name = f"recycle[{bcast} <-> {other}, ranks={ranks}]"
            report.append(
                {"cell": name, "findings": [finding.describe() for finding in findings]}
            )
            if not args.json:
                status = "ok" if not findings else f"{len(findings)} finding(s)"
                print(f"{status:>14}  {name}")
                for finding in findings:
                    print(f"                {finding.describe()}")
    elapsed = time.perf_counter() - started

    if args.json:
        print(
            json.dumps(
                {
                    "cells": report,
                    "total_findings": len(all_findings),
                    "elapsed_seconds": round(elapsed, 3),
                },
                indent=2,
            )
        )
    else:
        print(
            f"\n{len(report)} cell(s) verified in {elapsed:.2f}s — "
            f"{len(all_findings)} finding(s)"
        )
    return 1 if all_findings else 0


if __name__ == "__main__":
    sys.exit(main())
