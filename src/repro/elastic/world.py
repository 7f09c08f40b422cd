"""A process-per-rank shm world whose ranks can die and be respawned.

:func:`~repro.gaspi.shm.run_shm` launches all ranks at once and tears the
world down when they return — a batch job.  :class:`ElasticShmWorld` is
the operable-service counterpart: it owns a live
:class:`~repro.gaspi.shm.ShmWorld` whose rank processes are started,
observed and *replaced* individually, so a crashed rank can be respawned
into the same world (same uid, same deterministic segment names) while
the survivors keep running.

::

    with ElasticShmWorld(8) as world:
        world.spawn_all(worker_a)
        dead = world.wait([7])           # rank 7 hard-exited
        assert dead[7].status == "dead"
        world.spawn(7, worker_b)         # replacement, same rank identity
        results = world.wait()

Every rank process, original or replacement, is forked by
:meth:`~repro.gaspi.shm.ShmWorld.fork` — the one fork path
:func:`~repro.gaspi.shm.run_shm` uses too — from a parent that first
trims its heap, so it inherits the world's locks and control block but
none of the parent's freed memory; a replacement's runtime re-attaches
the predecessor's leftover segments through
:meth:`~repro.gaspi.shm.ShmRuntime.adopt_segment` (see
:mod:`repro.elastic.respawn`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional

from ..gaspi.errors import GaspiInvalidArgumentError
from ..gaspi.shm import ShmConfig, ShmWorld
from ..utils.logging import get_logger

logger = get_logger("elastic.world")


@dataclass
class RankResult:
    """Outcome of one rank incarnation."""

    rank: int
    status: str  # "ok" | "error" | "dead" | "running"
    value: Any = None
    error: Optional[BaseException] = None
    traceback: str = ""

    @property
    def ok(self) -> bool:
        return self.status == "ok"


class ElasticShmWorld:
    """Individually-managed rank processes over one live :class:`ShmWorld`.

    The parent process creates the world (control block, locks, condvar)
    and forks rank processes on demand; ranks that die — cleanly or hard
    — can be respawned under the same rank identity while the rest of the
    world keeps running.  :meth:`close` terminates stragglers and sweeps
    any leaked shared-memory blocks, returning their names so callers
    (the chaos-smoke CI job) can fail on leaks.
    """

    def __init__(self, num_ranks: int, config: Optional[ShmConfig] = None) -> None:
        if num_ranks <= 0:
            raise GaspiInvalidArgumentError(
                f"num_ranks must be positive, got {num_ranks}"
            )
        self.world = ShmWorld(num_ranks, config)
        self.num_ranks = int(num_ranks)
        self._procs: Dict[int, Any] = {}
        self._pipes: Dict[int, Any] = {}
        self._results: Dict[int, RankResult] = {}
        #: Process generation per rank (0 = original, 1+ = replacements).
        self.incarnations: Dict[int, int] = {}
        self._closed = False

    # ------------------------------------------------------------------ #
    def spawn(self, rank: int, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> None:
        """Fork one rank process running ``fn(runtime, *args, **kwargs)``.

        The rank must be in range and not currently live; respawning a
        finished or dead rank replaces its recorded result.  The process
        comes from :meth:`ShmWorld.fork`, as :func:`run_shm`'s do.
        """
        rank = int(rank)
        if self._closed:
            raise RuntimeError("ElasticShmWorld is closed")
        if not (0 <= rank < self.num_ranks):
            raise GaspiInvalidArgumentError(
                f"rank {rank} outside world of size {self.num_ranks}"
            )
        proc = self._procs.get(rank)
        if proc is not None and proc.is_alive():
            raise RuntimeError(f"rank {rank} is still running; wait() for it first")
        incarnation = self.incarnations.get(rank, -1) + 1
        self.incarnations[rank] = incarnation
        proc, parent_end = self.world.fork(
            rank, fn, args, kwargs, f"gaspi-elastic-rank-{rank}.{incarnation}"
        )
        self._procs[rank] = proc
        self._pipes[rank] = parent_end
        self._results[rank] = RankResult(rank=rank, status="running")
        logger.info("spawned rank %d (incarnation %d)", rank, incarnation)

    def spawn_all(self, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> None:
        """Fork every rank of the world (the initial launch)."""
        for rank in range(self.num_ranks):
            self.spawn(rank, fn, *args, **kwargs)

    # ------------------------------------------------------------------ #
    def wait(
        self, ranks: Optional[Iterable[int]] = None, timeout: float = 120.0
    ) -> Dict[int, RankResult]:
        """Collect the outcomes of ``ranks`` (default: every spawned rank).

        Blocks up to ``timeout`` overall.  A rank whose pipe reports EOF
        without a payload died hard (``status="dead"`` — killed, or
        ``os._exit``); one that misses the deadline stays ``"running"``
        and is *not* terminated (it may legitimately still be working —
        :meth:`close` is the hammer).  Collected processes are joined.
        """
        targets = sorted(self._procs) if ranks is None else sorted(int(r) for r in ranks)
        deadline = time.monotonic() + float(timeout)
        out: Dict[int, RankResult] = {}
        for rank in targets:
            pipe = self._pipes.get(rank)
            current = self._results.get(rank)
            if pipe is None or current is None:
                raise GaspiInvalidArgumentError(f"rank {rank} was never spawned")
            if current.status != "running":
                out[rank] = current
                continue
            remaining = max(0.0, deadline - time.monotonic())
            try:
                ready = pipe.poll(remaining)
            except (EOFError, OSError):
                ready = True
            if not ready:
                out[rank] = current  # still running; leave it alone
                continue
            try:
                payload = pipe.recv()
            except (EOFError, OSError):
                result = RankResult(
                    rank=rank,
                    status="dead",
                    error=RuntimeError(
                        f"rank {rank} exited without reporting a result "
                        "(killed or crashed hard?)"
                    ),
                )
            else:
                if payload[0] == "ok":
                    result = RankResult(rank=rank, status="ok", value=payload[1])
                else:
                    result = RankResult(
                        rank=rank, status="error",
                        error=payload[1], traceback=payload[2],
                    )
            self._results[rank] = result
            out[rank] = result
            proc = self._procs[rank]
            proc.join(5.0)
            if proc.is_alive():  # pragma: no cover - wedged despite result
                proc.terminate()
                proc.join(5.0)
        return out

    def results(self) -> Dict[int, RankResult]:
        """Last known outcome per spawned rank (no blocking)."""
        return dict(self._results)

    def leaked_blocks(self) -> List[str]:
        """Shared-memory blocks of this world still present in /dev/shm."""
        return self.world.leaked_blocks()

    # ------------------------------------------------------------------ #
    def close(self) -> List[str]:
        """Terminate stragglers, sweep leaks, unlink the control block.

        Returns the names of any swept (leaked) segment blocks, so the
        caller can fail on unclean teardown.  Idempotent.
        """
        if self._closed:
            return []
        self._closed = True
        for rank, proc in self._procs.items():
            if proc.is_alive():
                logger.warning("terminating still-running rank %d", rank)
                proc.terminate()
                proc.join(5.0)
        leaked = self.world.sweep()
        self.world.close()
        return leaked

    def __enter__(self) -> "ElasticShmWorld":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        live = sum(1 for p in self._procs.values() if p.is_alive())
        return (
            f"ElasticShmWorld(size={self.num_ranks}, live={live}, "
            f"uid={self.world.uid!r})"
        )
