"""repro.telemetry — the runtime's measurement plane.

Always-available, off-by-default instrumentation for live collective
runs: per-rank metric registries (:class:`Telemetry`), a forwarding
runtime wrapper counting traffic and wait times
(:class:`TelemetryRuntime`), and exporters for Chrome trace-event JSON
and flat metric snapshots.  Enable it by handing a registry to the
communicator::

    from repro import Communicator
    from repro.telemetry import Telemetry, merge_snapshots, render_summary

    def worker(runtime):
        tel = Telemetry(rank=runtime.rank)
        comm = Communicator(runtime, telemetry=tel)
        comm.allreduce(data)
        comm.close()
        return tel.snapshot(events=True)

    snapshots = Communicator.run(8, worker)   # or run_backend(...)
    print(render_summary(merge_snapshots(snapshots)))

Snapshots are plain-JSON dicts, so the shm backend ships them through
the existing per-rank result pipes; ``merge_snapshots`` aggregates them
into the world view either way.  ``python -m repro.telemetry`` runs a
workload cell and renders the summary or writes the Chrome trace; see
the README's "Observability" section.

This plane measures *performance* (latencies, queue depths, traffic).
For *correctness* tracing — replaying a run through the static protocol
checkers — see :mod:`repro.analysis` (``runtime.traced(sink)``).
"""

from .core import (
    CLOCK,
    DEFAULT_MAX_EVENTS,
    SNAPSHOT_SCHEMA,
    Counter,
    Gauge,
    Histogram,
    NULL_TELEMETRY,
    NullTelemetry,
    Span,
    Telemetry,
    default_latency_bounds,
    merge_snapshots,
    percentile_from_buckets,
)
from .export import (
    chrome_trace,
    render_summary,
    validate_snapshot,
    write_chrome_trace,
)
from .runtime import TelemetryRuntime

__all__ = [
    "CLOCK",
    "DEFAULT_MAX_EVENTS",
    "SNAPSHOT_SCHEMA",
    "Counter",
    "Gauge",
    "Histogram",
    "NULL_TELEMETRY",
    "NullTelemetry",
    "Span",
    "Telemetry",
    "TelemetryRuntime",
    "chrome_trace",
    "default_latency_bounds",
    "merge_snapshots",
    "percentile_from_buckets",
    "render_summary",
    "validate_snapshot",
    "write_chrome_trace",
]
