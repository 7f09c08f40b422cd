"""Low-overhead instrumentation core: spans, counters, gauges, histograms.

The measurement plane of the runtime.  A :class:`Telemetry` registry
aggregates one rank's metrics — monotonic-clock spans for the timeline,
counters and gauges for totals, fixed-bucket latency histograms for
p50/p95/p99 — with costs small enough to leave enabled during benchmark
runs:

* the *disabled* path is a single ``enabled`` attribute check (the
  :data:`NULL_TELEMETRY` singleton's instruments are shared no-ops);
* the *enabled* path takes no locks on the hot counters — one registry
  serves one rank, and under the per-rank threading model (a rank thread
  plus its progress thread) the rare lost increment is an observability
  rounding error, never a correctness one — and a hot site pays an add:
  it bumps :attr:`Counter.value` in place, no call;
* an event is one tuple ``(name, cat, t0, t1, args)`` appended to a
  bounded ring (:meth:`Telemetry.record_span`, the one recorder).  A full
  ring overwrites its *oldest* event and counts it — flight-recorder
  order: a long run keeps its most recent ``max_events`` events, the ones
  a degradation is diagnosed from, and cannot balloon memory.  The
  ``repro-telemetry/v1`` event dicts exist only in
  ``snapshot(events=True)``.

Cross-backend aggregation goes through :meth:`Telemetry.snapshot` — a
plain-JSON dict — and :func:`merge_snapshots`.  On the threaded backend
the per-rank snapshots are merged in process; on the shm backend each
rank process snapshots its own registry and ships it through the existing
result pipes of :func:`~repro.gaspi.shm.run_shm`, which is exactly how
worker return values already travel.

Timestamps come from :func:`time.perf_counter` (``CLOCK_MONOTONIC``),
which is system-wide on Linux, so spans recorded by different rank
processes of one shm world share a timeline.
"""

from __future__ import annotations

import threading
import time
from bisect import bisect_left
from collections import deque
from typing import Any, Deque, Dict, Iterable, List, Optional, Sequence, Tuple, Union

#: Monotonic clock used for every span and wait measurement.
CLOCK = time.perf_counter

#: Schema tag carried by every snapshot (per-rank and merged).
SNAPSHOT_SCHEMA = "repro-telemetry/v1"

#: Default capacity of one registry's event ring; an event recorded into a
#: full ring overwrites the oldest one, which ``events_dropped`` counts.
DEFAULT_MAX_EVENTS = 65_536

#: Attributes of an event as recorders may pass them: a dict, or — what the
#: per-call and per-wait recorders build, one allocation — a flat
#: ``(key, value, key, value, ...)`` tuple.
EventArgs = Union[Dict[str, Any], Tuple[Any, ...], None]


def default_latency_bounds() -> Tuple[float, ...]:
    """Fixed geometric bucket bounds for latency histograms (seconds).

    1 µs doubling up to ~33.5 s — 26 buckets spanning everything from a
    notification poll to a detection timeout; values beyond the last
    bound land in the overflow bucket.
    """
    return tuple(1e-6 * (2.0 ** i) for i in range(26))


# --------------------------------------------------------------------------- #
# instruments
# --------------------------------------------------------------------------- #
class Counter:
    """Monotonically increasing event count: a ``__slots__`` int holder.

    Hot sites bump :attr:`value` in place (``counter.value += 1`` — an add,
    not a call); :meth:`add` is the same thing for everybody else.
    """

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def add(self, n: int = 1) -> None:
        self.value += n

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.name}={self.value})"


class Gauge:
    """Last-written value with its observed maximum (e.g. a queue depth)."""

    __slots__ = ("name", "last", "max", "updates")

    def __init__(self, name: str) -> None:
        self.name = name
        self.last = 0.0
        self.max = 0.0
        self.updates = 0

    def set(self, value: float) -> None:
        value = float(value)
        self.last = value
        if value > self.max:
            self.max = value
        self.updates += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Gauge({self.name}={self.last}, max={self.max})"


class Histogram:
    """Fixed-bucket histogram with interpolated percentiles.

    Buckets are upper-bound (``le``) labelled, shared by every instance
    using the same bounds, so per-rank histograms merge by aligning
    bounds.  Percentiles interpolate linearly inside the winning bucket
    and clamp to the observed min/max, which keeps p50/p95/p99 honest at
    small sample counts.
    """

    __slots__ = ("name", "bounds", "counts", "count", "total", "min", "max")

    def __init__(self, name: str, bounds: Optional[Sequence[float]] = None) -> None:
        self.name = name
        self.bounds: Tuple[float, ...] = (
            tuple(float(b) for b in bounds) if bounds else default_latency_bounds()
        )
        #: One count per bound, then the overflow bucket: ``observe``
        #: indexes it with the bisection result as is.
        self.counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    @property
    def overflow(self) -> int:
        """Samples beyond the last bound."""
        return self.counts[-1]

    def observe(self, value: float) -> None:
        """Record one sample (a ``float``; hot, so nothing is coerced)."""
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def percentile(self, q: float) -> float:
        """Estimated q-th percentile (0-100) of the observed values."""
        pairs = [(le, c) for le, c in zip(self.bounds, self.counts)]
        return percentile_from_buckets(
            pairs, self.overflow, self.count, self.min, self.max, q
        )

    def snapshot(self) -> Dict[str, Any]:
        if self.count == 0:
            return {
                "count": 0, "sum": 0.0, "min": 0.0, "max": 0.0,
                "p50": 0.0, "p95": 0.0, "p99": 0.0,
                "buckets": [], "overflow": 0,
            }
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "p50": self.percentile(50.0),
            "p95": self.percentile(95.0),
            "p99": self.percentile(99.0),
            "buckets": [
                [le, c] for le, c in zip(self.bounds, self.counts) if c > 0
            ],
            "overflow": self.overflow,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Histogram({self.name}, n={self.count})"


def percentile_from_buckets(
    pairs: Iterable[Tuple[float, int]],
    overflow: int,
    count: int,
    minimum: float,
    maximum: float,
    q: float,
) -> float:
    """Interpolated percentile from ``(upper_bound, count)`` pairs.

    Shared by live histograms and merged snapshots (whose buckets arrive
    as JSON lists).  Values past the last bound (the overflow bucket) are
    attributed the observed maximum.
    """
    if count <= 0:
        return 0.0
    target = (float(q) / 100.0) * count
    cum = 0
    lower = 0.0
    for le, c in sorted(pairs):
        if c > 0:
            if cum + c >= target:
                frac = (target - cum) / c
                estimate = lower + frac * (le - lower)
                return min(max(estimate, minimum), maximum)
            cum += c
        lower = le
    return maximum  # the target sits in the overflow bucket


# --------------------------------------------------------------------------- #
# spans
# --------------------------------------------------------------------------- #
class Span:
    """One timed region, recorded as a trace event when the block exits.

    Context manager handed out by :meth:`Telemetry.span` — the convenience
    on top of :meth:`Telemetry.record_span` for code that is not hot (the
    dispatch path times itself and calls the recorder directly);
    attributes set via :meth:`set` (algorithm, outcome, ...) land in the
    Chrome trace event's ``args``.
    """

    __slots__ = ("_telemetry", "name", "cat", "args", "_t0")

    def __init__(self, telemetry: "Telemetry", name: str, cat: str, args: Dict[str, Any]) -> None:
        self._telemetry = telemetry
        self.name = name
        self.cat = cat
        self.args = args
        self._t0 = 0.0

    def set(self, **attrs: Any) -> None:
        """Attach attributes to the span (JSON-serializable values)."""
        self.args.update(attrs)

    def __enter__(self) -> "Span":
        self._t0 = CLOCK()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self._telemetry.record_span(self.name, self.cat, self._t0, CLOCK(), self.args)


# --------------------------------------------------------------------------- #
# the registry
# --------------------------------------------------------------------------- #
class Telemetry:
    """Per-rank metrics registry: every instrument of one rank, by name.

    One instance per rank (per rank thread on the threaded backend, per
    rank process on shm).  Instrument creation takes a lock (rare);
    updates do not (hot).  :meth:`snapshot` freezes everything into a
    plain-JSON dict for merging and export.
    """

    enabled = True

    def __init__(self, rank: int = 0, max_events: int = DEFAULT_MAX_EVENTS) -> None:
        self.rank = int(rank)
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        #: The event ring: ``(name, cat, t0, t1, args)`` tuples, oldest first.
        self._ring: Deque[Tuple[str, str, float, float, EventArgs]] = deque(
            maxlen=int(max_events)
        )
        #: Events ever recorded; all but the ``len(ring)`` newest were dropped.
        self._seen = 0

    # ------------------------------------------------------------------ #
    def counter(self, name: str) -> Counter:
        inst = self._counters.get(name)
        if inst is None:
            with self._lock:
                inst = self._counters.setdefault(name, Counter(name))
        return inst

    def gauge(self, name: str) -> Gauge:
        inst = self._gauges.get(name)
        if inst is None:
            with self._lock:
                inst = self._gauges.setdefault(name, Gauge(name))
        return inst

    def histogram(self, name: str, bounds: Optional[Sequence[float]] = None) -> Histogram:
        inst = self._histograms.get(name)
        if inst is None:
            with self._lock:
                inst = self._histograms.setdefault(name, Histogram(name, bounds))
        return inst

    def alias(self, name: str, histogram: Histogram) -> None:
        """Publish ``histogram`` under ``name`` as well: one observation, two names."""
        with self._lock:
            self._histograms.setdefault(name, histogram)

    # ------------------------------------------------------------------ #
    def span(self, name: str, cat: str = "collective", **args: Any) -> Span:
        """Context manager timing one region into the event timeline."""
        return Span(self, name, cat, args)

    def record_span(
        self, name: str, cat: str, t0: float, t1: float, args: EventArgs = None
    ) -> None:
        """Record one already-timed region: the one recorder, one tuple.

        ``args`` is kept as given (see :data:`EventArgs`) and becomes the
        event's ``args`` dict only in :meth:`snapshot`.
        """
        self._seen += 1
        self._ring.append((name, cat, t0, t1, args))  # a full ring drops its oldest

    def record_event(self, name: str, cat: str = "health", **args: Any) -> None:
        """Record an instant (zero-duration) event on the timeline.

        State transitions — a failure confirmed, a recovery escalation —
        have no duration of their own but belong on the same per-rank
        timeline as the spans; they export as zero-width slices in the
        Chrome trace.
        """
        now = CLOCK()
        self.record_span(name, cat, now, now, args)

    # ------------------------------------------------------------------ #
    def snapshot(self, events: bool = False) -> Dict[str, Any]:
        """Freeze the registry into a plain-JSON dict.

        ``events=True`` includes the span timeline (needed for Chrome
        trace export); the default metrics-only form stays compact enough
        to embed in benchmark report metadata.
        """
        kept = len(self._ring)
        snap: Dict[str, Any] = {
            "schema": SNAPSHOT_SCHEMA,
            "rank": self.rank,
            "counters": {n: int(c.value) for n, c in sorted(self._counters.items())},
            "gauges": {
                n: {"last": g.last, "max": g.max, "updates": g.updates}
                for n, g in sorted(self._gauges.items())
            },
            "histograms": {
                n: h.snapshot() for n, h in sorted(self._histograms.items())
            },
            "events_recorded": kept,
            "events_dropped": max(0, self._seen - kept),
        }
        if events:
            # list(): one atomic copy; the progress thread may be recording.
            snap["events"] = [_event_dict(*event) for event in list(self._ring)]
        return snap

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Telemetry(rank={self.rank}, counters={len(self._counters)}, "
            f"events={len(self._ring)})"
        )


def _event_dict(name: str, cat: str, t0: float, t1: float, args: EventArgs) -> Dict[str, Any]:
    """The ``repro-telemetry/v1`` form of one ring entry."""
    if not isinstance(args, dict):
        args = dict(zip(args[::2], args[1::2])) if args else {}
    return {"name": name, "cat": cat, "ts": t0, "dur": t1 - t0, "args": args}


# --------------------------------------------------------------------------- #
# the disabled path
# --------------------------------------------------------------------------- #
class _NullInstrument:
    """Shared no-op counter/gauge/histogram of the disabled registry."""

    __slots__ = ()

    def add(self, n: int = 1) -> None:
        pass

    def set(self, value: float = 0.0) -> None:
        pass

    def observe(self, value: float = 0.0) -> None:
        pass

    def percentile(self, q: float) -> float:
        return 0.0


class _NullSpan:
    """Shared no-op span of the disabled registry."""

    __slots__ = ()

    def set(self, **attrs: Any) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        pass


_NULL_INSTRUMENT = _NullInstrument()
_NULL_SPAN = _NullSpan()


class NullTelemetry:
    """The disabled registry: every operation is a shared no-op.

    ``Communicator`` holds this singleton when no telemetry is attached,
    so the disabled hot path is one attribute check (``tel.enabled``) and
    instrument handles cached by subsystems (the progress engine) degrade
    to no-op method calls.  Snapshots keep the v1 schema with empty
    collections, so exporters and schema validators need no special case.
    """

    enabled = False
    rank = -1

    def counter(self, name: str) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def gauge(self, name: str) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def histogram(self, name: str, bounds: Optional[Sequence[float]] = None) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def span(self, name: str, cat: str = "collective", **args: Any) -> _NullSpan:
        return _NULL_SPAN

    def record_span(
        self, name: str, cat: str, t0: float, t1: float, args: EventArgs = None
    ) -> None:
        pass

    def record_event(self, name: str, cat: str = "health", **args: Any) -> None:
        pass

    def snapshot(self, events: bool = False) -> Dict[str, Any]:
        snap: Dict[str, Any] = {
            "schema": SNAPSHOT_SCHEMA,
            "rank": self.rank,
            "counters": {},
            "gauges": {},
            "histograms": {},
            "events_recorded": 0,
            "events_dropped": 0,
        }
        if events:
            snap["events"] = []
        return snap

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "NullTelemetry()"


#: The shared disabled registry (one per interpreter is plenty).
NULL_TELEMETRY = NullTelemetry()


# --------------------------------------------------------------------------- #
# merging
# --------------------------------------------------------------------------- #
def _merge_histogram(into: Dict[str, Any], snap: Dict[str, Any]) -> None:
    if snap["count"] == 0:
        return
    if into["count"] == 0:
        into.update(
            count=snap["count"], sum=snap["sum"], min=snap["min"], max=snap["max"]
        )
    else:
        into["count"] += snap["count"]
        into["sum"] += snap["sum"]
        into["min"] = min(into["min"], snap["min"])
        into["max"] = max(into["max"], snap["max"])
    buckets: Dict[float, int] = dict(into.get("_buckets", {}))
    for le, c in snap.get("buckets", []):
        buckets[float(le)] = buckets.get(float(le), 0) + int(c)
    into["_buckets"] = buckets
    into["overflow"] = into.get("overflow", 0) + int(snap.get("overflow", 0))


def merge_snapshots(snapshots: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """Merge per-rank snapshots into one world snapshot.

    Counters are summed, gauges take the cross-rank maximum, histograms
    merge bucket-by-bucket with recomputed percentiles, and span events
    (when present) are concatenated with their source rank attached.
    The per-rank counters are kept under ``per_rank`` — that is the
    arrival-skew / imbalance signal the autotuner direction needs.
    """
    counters: Dict[str, int] = {}
    gauges: Dict[str, Dict[str, float]] = {}
    histograms: Dict[str, Dict[str, Any]] = {}
    per_rank: Dict[str, Dict[str, Any]] = {}
    events: List[Dict[str, Any]] = []
    ranks: List[int] = []
    recorded = 0
    dropped = 0
    have_events = False
    for snap in snapshots:
        rank = int(snap.get("rank", len(ranks)))
        ranks.append(rank)
        for name, value in snap.get("counters", {}).items():
            counters[name] = counters.get(name, 0) + int(value)
        for name, g in snap.get("gauges", {}).items():
            into = gauges.setdefault(name, {"last": 0.0, "max": 0.0, "updates": 0})
            into["last"] = max(into["last"], float(g["last"]))
            into["max"] = max(into["max"], float(g["max"]))
            into["updates"] += int(g.get("updates", 0))
        for name, h in snap.get("histograms", {}).items():
            into = histograms.setdefault(
                name,
                {"count": 0, "sum": 0.0, "min": 0.0, "max": 0.0, "overflow": 0},
            )
            _merge_histogram(into, h)
        per_rank[str(rank)] = {"counters": dict(snap.get("counters", {}))}
        recorded += int(snap.get("events_recorded", 0))
        dropped += int(snap.get("events_dropped", 0))
        if "events" in snap:
            have_events = True
            for event in snap["events"]:
                events.append({**event, "rank": rank})
    for h in histograms.values():
        pairs = sorted(h.pop("_buckets", {}).items())
        h["p50"] = percentile_from_buckets(
            pairs, h["overflow"], h["count"], h["min"], h["max"], 50.0
        )
        h["p95"] = percentile_from_buckets(
            pairs, h["overflow"], h["count"], h["min"], h["max"], 95.0
        )
        h["p99"] = percentile_from_buckets(
            pairs, h["overflow"], h["count"], h["min"], h["max"], 99.0
        )
        h["buckets"] = [[le, c] for le, c in pairs]
    merged: Dict[str, Any] = {
        "schema": SNAPSHOT_SCHEMA,
        "ranks": sorted(ranks),
        "counters": dict(sorted(counters.items())),
        "gauges": dict(sorted(gauges.items())),
        "histograms": dict(sorted(histograms.items())),
        "per_rank": per_rank,
        "events_recorded": recorded,
        "events_dropped": dropped,
    }
    if have_events:
        events.sort(key=lambda e: e["ts"])
        merged["events"] = events
    return merged
