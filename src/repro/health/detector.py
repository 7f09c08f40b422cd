"""Phi-accrual heartbeat failure detector over any GASPI runtime.

Until now, failure detection piggybacked on per-collective notification
timeouts: a rank was "missing" only once a degraded collective waited a
full ``detect_timeout`` for it.  This module detects failures *between*
collectives, continuously, on a dedicated heartbeat channel:

* every rank runs a background thread that posts a plain notification
  (``gaspi_notify``, notification id = sender rank, value = beat
  sequence) to every peer's health segment each ``period`` seconds and
  drains its own board;
* per peer, a :class:`PhiAccrualEstimator` (Hayashibara-style) turns the
  inter-arrival history into a continuous suspicion level
  ``phi = -log10 P(a heartbeat still arrives this late)`` — so a
  transient delay raises phi gradually and recedes when beats resume,
  while outright silence drives phi through the roof;
* two thresholds split the level into states: ``phi >= suspect_phi``
  marks the peer *suspected* (collectives should stop waiting for it),
  ``phi >= confirm_phi`` *confirms* the failure (recovery may act on
  it); a heartbeat arriving in either state *reinstates* the peer and
  counts a flap.

The detector rides the innermost transport layer, so heartbeats neither
advance a :class:`~repro.faults.injection.FaultyRuntime`'s data-plane op
counter nor appear in collective telemetry — but the fault plan is still
honoured in the *heartbeat* op domain: an injected crash silences the
beats at its step, per-rank delays and drops perturb them, and
``plan.recover()`` lets them resume.  The same plan therefore yields the
same suspect/confirm/reinstate sequence on the threaded and shm
backends, which is the backend-equivalence contract the tests pin down.
"""

from __future__ import annotations

import math
import threading
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Tuple

from ..gaspi.constants import DEFAULT_QUEUE_COUNT
from ..gaspi.errors import GaspiError
from ..gaspi.runtime import GaspiRuntime
from ..telemetry.core import CLOCK, NULL_TELEMETRY, Telemetry
from ..utils.logging import get_logger
from ..utils.validation import require

logger = get_logger("health.detector")

#: Dedicated segment id of the heartbeat channel — below the collectives'
#: id range (200+) and distinct from the degraded-exchange workspace
#: (:data:`~repro.faults.recovery.FAULT_SEGMENT_ID` = 140).
HEALTH_SEGMENT_ID = 150

#: Queue reserved for heartbeat traffic, clear of the collectives' queue 0.
HEALTH_QUEUE = DEFAULT_QUEUE_COUNT - 1

#: Consecutive failed heartbeat *sends* to one peer after which the peer
#: is treated as hard-dead (phi = inf) without waiting out the silence.
FAIL_FAST_SENDS = 3

#: Peer states, ordered by escalation.
ALIVE, SUSPECT, CONFIRMED = "alive", "suspect", "confirmed"


@dataclass(frozen=True)
class HealthEvent:
    """One detector state transition for one peer."""

    kind: str  #: ``"suspect"`` | ``"confirm"`` | ``"reinstate"``
    peer: int
    time: float  #: CLOCK() timestamp of the transition
    phi: float  #: suspicion level at the transition


class PhiAccrualEstimator:
    """Continuous suspicion level from one peer's inter-arrival history.

    ``phi(now)`` is ``-log10`` of the probability that a heartbeat still
    arrives given the elapsed silence, under a normal model of the
    windowed inter-arrival times: phi 1 means ~10% of intervals run this
    long, phi 6 means one in a million.  ``acceptable_pause`` widens the
    mean to absorb benign scheduling hiccups (GC, CI load) and
    ``min_std`` floors the spread so a metronomic sender does not make
    the model overconfident.
    """

    def __init__(
        self,
        expected_interval: float,
        *,
        window: int = 64,
        acceptable_pause: Optional[float] = None,
        min_std: Optional[float] = None,
    ) -> None:
        require(expected_interval > 0.0, "expected_interval must be > 0")
        self.expected_interval = float(expected_interval)
        self.acceptable_pause = (
            5.0 * self.expected_interval
            if acceptable_pause is None
            else float(acceptable_pause)
        )
        self.min_std = (
            self.expected_interval / 2.0 if min_std is None else float(min_std)
        )
        require(self.min_std > 0.0, "min_std must be > 0")
        self._intervals: Deque[float] = deque(maxlen=int(window))
        self._last: Optional[float] = None

    @property
    def last_heartbeat(self) -> Optional[float]:
        """CLOCK() time of the most recent observed beat (None before any)."""
        return self._last

    @property
    def samples(self) -> int:
        """Number of inter-arrival intervals in the window."""
        return len(self._intervals)

    def heartbeat(self, now: float) -> None:
        """Record one arrival."""
        if self._last is not None:
            self._intervals.append(max(0.0, now - self._last))
        self._last = now

    def reset(self, now: float) -> None:
        """Restart the model after a reinstatement.

        The silence interval must not poison the window (it would inflate
        the mean so far that the *next* failure goes undetected), so the
        history is dropped and the resumed beat becomes the new anchor.
        """
        self._intervals.clear()
        self._last = now

    def _model(self) -> Tuple[float, float]:
        if len(self._intervals) < 3:
            # Bootstrap: generously wide until the window has signal.
            return self.expected_interval, max(self.min_std, self.expected_interval)
        n = len(self._intervals)
        mean = sum(self._intervals) / n
        var = sum((x - mean) ** 2 for x in self._intervals) / n
        return mean, max(math.sqrt(var), self.min_std)

    def phi(self, now: float) -> float:
        """Suspicion level for the silence observed at ``now``."""
        if self._last is None:
            return 0.0
        elapsed = now - self._last
        mean, std = self._model()
        z = (elapsed - (mean + self.acceptable_pause)) / std
        # P(interval > elapsed) under the normal model, floored so phi
        # stays finite (the floor caps phi at 30).
        p_later = max(0.5 * math.erfc(z / math.sqrt(2.0)), 1e-30)
        return -math.log10(p_later)


class _PeerHealth:
    """Mutable per-peer detector state (detector-thread private)."""

    __slots__ = ("estimator", "state", "send_failures", "flaps")

    def __init__(self, estimator: PhiAccrualEstimator) -> None:
        self.estimator = estimator
        self.state = ALIVE
        self.send_failures = 0
        self.flaps = 0


class HeartbeatDetector:
    """Background heartbeat protocol with per-peer phi-accrual estimation.

    One instance per rank; :meth:`start` creates the health segment,
    aligns the world on a barrier and launches the beat thread, and
    :meth:`stop` tears both down.  Listeners registered with
    :meth:`subscribe` receive every :class:`HealthEvent` *on the
    detector thread* — they must only flag state, never block.
    """

    def __init__(
        self,
        runtime: GaspiRuntime,
        *,
        period: float = 0.02,
        suspect_phi: float = 1.5,
        confirm_phi: float = 6.0,
        acceptable_pause: Optional[float] = None,
        min_std: Optional[float] = None,
        window: int = 64,
        segment_id: int = HEALTH_SEGMENT_ID,
        queue: int = HEALTH_QUEUE,
        start_timeout: float = 10.0,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        require(period > 0.0, "heartbeat period must be > 0")
        require(
            0.0 < suspect_phi < confirm_phi,
            "need 0 < suspect_phi < confirm_phi",
        )
        # Transport is the innermost layer: heartbeats must not advance
        # the fault layer's op counter nor pollute collective telemetry.
        stack = list(runtime.layers())
        self._transport = stack[-1]
        self._faulty = next(
            (l for l in stack if hasattr(l, "plan") and hasattr(l, "is_crashed")),
            None,
        )
        self.rank = int(self._transport.rank)
        self.size = int(self._transport.size)
        self.period = float(period)
        self.suspect_phi = float(suspect_phi)
        self.confirm_phi = float(confirm_phi)
        self._segment_id = int(segment_id)
        self._queue = int(queue)
        self._start_timeout = float(start_timeout)
        self._telemetry = telemetry if telemetry is not None else (
            getattr(runtime, "telemetry", None) or NULL_TELEMETRY
        )
        self._peers: Dict[int, _PeerHealth] = {
            peer: _PeerHealth(
                PhiAccrualEstimator(
                    self.period,
                    window=window,
                    acceptable_pause=acceptable_pause,
                    min_std=min_std,
                )
            )
            for peer in range(self.size)
            if peer != self.rank
        }
        self._events: List[HealthEvent] = []
        self._listeners: List[Callable[[HealthEvent], None]] = []
        self._cond = threading.Condition()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._beats_sent = 0
        self._started = False

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> "HeartbeatDetector":
        """Create the heartbeat channel and launch the beat thread."""
        require(self._thread is None, "detector already started")
        try:
            self._transport.segment_create(self._segment_id, 8)
        except GaspiError:
            # A respawned rank may find its predecessor's health segment
            # still in /dev/shm under the deterministic name; adopt it
            # (stale notifications are drained by the adoption).
            adopt = getattr(self._transport, "adopt_segment", None)
            if adopt is None:
                raise
            adopt(self._segment_id)
        try:
            # Align the world so no beat lands on a not-yet-created
            # segment; tolerate a miss (a peer may already be dead — its
            # silence is exactly what we are here to detect).
            self._transport.barrier(timeout=self._start_timeout)
        except GaspiError:
            pass
        now = CLOCK()
        for ph in self._peers.values():
            # Anchor every estimator at startup so silence accrues phi
            # even for a peer that never manages a first beat.
            ph.estimator.heartbeat(now)
        self._stop.clear()
        self._started = True
        self._thread = threading.Thread(
            target=self._run, name=f"health-detector-r{self.rank}", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop the beat thread and release the heartbeat channel."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=max(5.0, 50 * self.period))
            self._thread = None
        if self._started:
            self._started = False
            try:
                self._transport.notify_drain(self._segment_id, 0, self.size)
                self._transport.segment_delete(self._segment_id)
            except GaspiError:
                pass

    def __enter__(self) -> "HeartbeatDetector":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------ #
    # observation
    # ------------------------------------------------------------------ #
    @property
    def events(self) -> List[HealthEvent]:
        """Snapshot of every transition so far, in detection order."""
        with self._cond:
            return list(self._events)

    def events_for(self, peer: int) -> List[HealthEvent]:
        """This peer's transitions, in order."""
        return [e for e in self.events if e.peer == int(peer)]

    def state(self, peer: int) -> str:
        """Current state of a peer (``alive``/``suspect``/``confirmed``)."""
        return self._peers[int(peer)].state

    def phi(self, peer: int) -> float:
        """Current suspicion level of a peer."""
        return self._peers[int(peer)].estimator.phi(CLOCK())

    def suspected(self) -> List[int]:
        """Peers at or past the suspect threshold."""
        return sorted(p for p, ph in self._peers.items() if ph.state != ALIVE)

    def confirmed(self) -> List[int]:
        """Peers past the confirm threshold."""
        return sorted(p for p, ph in self._peers.items() if ph.state == CONFIRMED)

    def flaps(self, peer: int) -> int:
        """Times this peer was reinstated after a suspicion."""
        return self._peers[int(peer)].flaps

    def last_heartbeat(self, peer: int) -> Optional[float]:
        """CLOCK() time of the peer's most recent beat (start anchor counts)."""
        return self._peers[int(peer)].estimator.last_heartbeat

    def subscribe(self, listener: Callable[[HealthEvent], None]) -> None:
        """Deliver every future :class:`HealthEvent` to ``listener``.

        Called on the detector thread — implementations must be quick
        and non-blocking (set a flag, bump a counter).
        """
        with self._cond:
            self._listeners.append(listener)

    def wait_for(
        self, kind: str, peer: int, timeout: float = 10.0
    ) -> Optional[HealthEvent]:
        """Block until a matching event exists (or return None on timeout)."""
        peer = int(peer)
        deadline = CLOCK() + float(timeout)
        with self._cond:
            while True:
                for event in self._events:
                    if event.kind == kind and event.peer == peer:
                        return event
                remaining = deadline - CLOCK()
                if remaining <= 0.0:
                    return None
                self._cond.wait(remaining)

    # ------------------------------------------------------------------ #
    # the beat loop
    # ------------------------------------------------------------------ #
    def _run(self) -> None:
        while not self._stop.is_set():
            self._send_beats()
            self._observe(CLOCK())
            self._stop.wait(self.period)

    def _beat_silenced(self) -> bool:
        """Whether the fault plan silences this rank's beats right now.

        A rank whose injected crash actually fired (``is_crashed``) is
        silent, and ``plan.recover()`` lets the beats resume — the flap
        story.  In a *detector-only* world (no data-plane traffic ever,
        so the crash can never fire) the beat index stands in for the op
        index, silencing the beats deterministically on both backends.
        In an integrated world the data plane is authoritative: beats
        keep flowing until the collective-domain crash really happens,
        so the detector never confirms a rank that is still contributing.
        """
        f = self._faulty
        if f is None:
            return False
        if f.is_crashed:
            return True
        crash = f.plan.crash_step(self.rank)
        return (
            crash is not None
            and f.ops_performed == 0
            and self._beats_sent >= crash
        )

    def _send_beats(self) -> None:
        if self._beat_silenced():
            return
        beat = self._beats_sent
        self._beats_sent += 1
        plan = self._faulty.plan if self._faulty is not None else None
        if plan is not None:
            pause = plan.send_delay(self.rank, beat)
            if pause > 0.0 and self._stop.wait(pause):
                return
        for peer, ph in self._peers.items():
            if plan is not None and plan.should_drop(self.rank, peer, beat):
                continue
            try:
                self._transport.notify(
                    peer, self._segment_id, self.rank, beat + 1, self._queue
                )
                ph.send_failures = 0
            except GaspiError:
                ph.send_failures += 1
        try:
            self._transport.wait(self._queue, timeout=self.period)
        except GaspiError:
            pass

    def _observe(self, now: float) -> None:
        arrived = self._transport.notify_drain(self._segment_id, 0, self.size)
        events: List[HealthEvent] = []
        for peer, ph in self._peers.items():
            if peer in arrived:
                ph.estimator.heartbeat(now)
                if ph.state != ALIVE:
                    ph.state = ALIVE
                    ph.flaps += 1
                    ph.estimator.reset(now)
                    events.append(HealthEvent("reinstate", peer, now, 0.0))
                continue
            phi = ph.estimator.phi(now)
            if ph.send_failures >= FAIL_FAST_SENDS:
                phi = float("inf")
            if ph.state == ALIVE and phi >= self.suspect_phi:
                ph.state = SUSPECT
                events.append(HealthEvent("suspect", peer, now, phi))
            if ph.state == SUSPECT and phi >= self.confirm_phi:
                ph.state = CONFIRMED
                events.append(HealthEvent("confirm", peer, now, phi))
                silence = now - (ph.estimator.last_heartbeat or now)
                if self._telemetry.enabled:
                    self._telemetry.histogram("health.confirm_s").observe(silence)
        if events:
            self._publish(events)

    def _publish(self, events: List[HealthEvent]) -> None:
        tel = self._telemetry
        with self._cond:
            self._events.extend(events)
            listeners = list(self._listeners)
            self._cond.notify_all()
        for event in events:
            logger.info(
                "rank %d: peer %d %s (phi=%.2f)",
                self.rank, event.peer, event.kind, event.phi,
            )
            if tel.enabled:
                tel.counter(f"health.{event.kind}s").add()
            for listener in listeners:
                try:
                    listener(event)
                except Exception:  # pragma: no cover - listener bug
                    logger.exception(
                        "rank %d: health listener failed on %s(%d)",
                        self.rank, event.kind, event.peer,
                    )
