"""Exporters: Chrome trace-event JSON and flat snapshot rendering.

Two output formats serve two audiences:

* :func:`chrome_trace` / :func:`write_chrome_trace` — the Chrome
  trace-event format (the ``traceEvents`` array of ``"X"`` complete
  events).  Load the file in `Perfetto <https://ui.perfetto.dev>`_ (or
  ``chrome://tracing``): one timeline row per rank, collective spans with
  the pipelined chunk spans nested inside them.
* :func:`render_summary` — a terminal table of the counters, gauges and
  wait-time percentiles of one (usually merged) snapshot.

:func:`validate_snapshot` is the schema gate the CI smoke step and the
tests share: it accepts both per-rank and merged snapshots and raises
``ValueError`` with a precise complaint on any drift from
``repro-telemetry/v1``.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Sequence

from .core import SNAPSHOT_SCHEMA

#: Histogram keys every snapshot histogram must carry.
_HISTOGRAM_KEYS = ("count", "sum", "min", "max", "p50", "p95", "p99", "buckets")


def chrome_trace(snapshots: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """Build a Chrome trace-event document from per-rank snapshots.

    Every rank becomes one timeline row (``tid`` = rank under a single
    ``pid``); span nesting (collective → chunk) follows from timestamp
    containment, which is how the trace viewers stack ``"X"`` events.
    Timestamps are rebased to the earliest span so the trace starts at 0.
    """
    events: List[Dict[str, Any]] = []
    spans: List[tuple] = []
    ranks = set()
    for snap in snapshots:
        rank = int(snap.get("rank", 0))
        for event in snap.get("events", []):
            spans.append((event.get("rank", rank), event))
    origin = min((event["ts"] for _, event in spans), default=0.0)
    for rank, event in spans:
        ranks.add(rank)
        events.append(
            {
                "ph": "X",
                "pid": 0,
                "tid": rank,
                "name": event["name"],
                "cat": event["cat"],
                "ts": (event["ts"] - origin) * 1e6,  # trace format wants µs
                "dur": event["dur"] * 1e6,
                "args": event.get("args", {}),
            }
        )
    metadata: List[Dict[str, Any]] = [
        {
            "ph": "M", "pid": 0, "tid": 0,
            "name": "process_name", "args": {"name": "repro collectives"},
        }
    ]
    for rank in sorted(ranks):
        metadata.append(
            {
                "ph": "M", "pid": 0, "tid": rank,
                "name": "thread_name", "args": {"name": f"rank {rank}"},
            }
        )
        metadata.append(
            {
                "ph": "M", "pid": 0, "tid": rank,
                "name": "thread_sort_index", "args": {"sort_index": rank},
            }
        )
    return {
        "traceEvents": metadata + events,
        "displayTimeUnit": "ms",
        "otherData": {"schema": SNAPSHOT_SCHEMA},
    }


def write_chrome_trace(path: str, snapshots: Sequence[Dict[str, Any]]) -> None:
    """Write :func:`chrome_trace` of ``snapshots`` to ``path`` as JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(chrome_trace(snapshots), fh)


def validate_snapshot(snapshot: Dict[str, Any]) -> None:
    """Raise ``ValueError`` unless ``snapshot`` is a valid v1 snapshot.

    Accepts both forms: per-rank (``rank`` key) and merged
    (``ranks``/``per_rank`` keys).  Used by the CI telemetry smoke step
    and the schema-stability tests.
    """
    if not isinstance(snapshot, dict):
        raise ValueError(f"snapshot must be a dict, got {type(snapshot).__name__}")
    schema = snapshot.get("schema")
    if schema != SNAPSHOT_SCHEMA:
        raise ValueError(f"snapshot schema {schema!r} != {SNAPSHOT_SCHEMA!r}")
    if "rank" not in snapshot and "ranks" not in snapshot:
        raise ValueError("snapshot carries neither 'rank' nor 'ranks'")
    for section in ("counters", "gauges", "histograms"):
        if not isinstance(snapshot.get(section), dict):
            raise ValueError(f"snapshot section {section!r} missing or not a dict")
    for name, value in snapshot["counters"].items():
        if not isinstance(value, int):
            raise ValueError(f"counter {name!r} is {type(value).__name__}, not int")
    for name, gauge in snapshot["gauges"].items():
        for key in ("last", "max"):
            if not isinstance(gauge.get(key), (int, float)):
                raise ValueError(f"gauge {name!r} misses numeric {key!r}")
    for name, hist in snapshot["histograms"].items():
        for key in _HISTOGRAM_KEYS:
            if key not in hist:
                raise ValueError(f"histogram {name!r} misses key {key!r}")
    for key in ("events_recorded", "events_dropped"):
        if not isinstance(snapshot.get(key), int):
            raise ValueError(f"snapshot misses integer {key!r}")


def render_summary(snapshot: Dict[str, Any]) -> str:
    """Terminal rendering of one snapshot: counters, gauges, percentiles."""
    lines: List[str] = []
    ranks = snapshot.get("ranks")
    header = (
        f"telemetry snapshot ({len(ranks)} ranks)"
        if ranks is not None
        else f"telemetry snapshot (rank {snapshot.get('rank', '?')})"
    )
    lines.append(header)
    lines.append("=" * len(header))
    if snapshot["counters"]:
        lines.append("")
        lines.append("counters")
        width = max(len(n) for n in snapshot["counters"])
        for name, value in snapshot["counters"].items():
            lines.append(f"  {name:<{width}}  {value:>14,}")
    if snapshot["gauges"]:
        lines.append("")
        lines.append("gauges (last / max)")
        width = max(len(n) for n in snapshot["gauges"])
        for name, gauge in snapshot["gauges"].items():
            lines.append(
                f"  {name:<{width}}  {gauge['last']:>10.6g} / {gauge['max']:<10.6g}"
            )
    if snapshot["histograms"]:
        lines.append("")
        lines.append("histograms (count, p50 / p95 / p99, max; seconds)")
        width = max(len(n) for n in snapshot["histograms"])
        for name, hist in snapshot["histograms"].items():
            lines.append(
                f"  {name:<{width}}  n={hist['count']:<8} "
                f"{hist['p50'] * 1e6:>9.1f}us / {hist['p95'] * 1e6:>9.1f}us / "
                f"{hist['p99'] * 1e6:>9.1f}us  max {hist['max'] * 1e3:.3f}ms"
            )
    dropped = snapshot.get("events_dropped", 0)
    lines.append("")
    lines.append(
        f"spans: {snapshot.get('events_recorded', 0)} recorded"
        + (f", {dropped} older ones overwritten (raise max_events)" if dropped else "")
    )
    return "\n".join(lines)
