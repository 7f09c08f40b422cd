"""Group-scoped view of a GASPI runtime (the substrate of sub-communicators).

A :class:`GroupRuntime` wraps any :class:`~repro.gaspi.runtime.GaspiRuntime`
and renumbers a subset of its ranks ``0 .. len(members)-1``.  Every
collective in :mod:`repro.core` is written against ``runtime.rank`` /
``runtime.size`` and posts one-sided operations to *rank numbers*, so
running it on a :class:`GroupRuntime` transparently scopes it to the
member subset: target ranks are translated on the way out, barriers are
taken over the member group only, and segment/notification operations —
which are local in GASPI — pass straight through.

Wrappers nest: splitting a sub-communicator wraps its (already wrapped)
runtime again, so each level only reasons about its parent's numbering.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .constants import (
    DEFAULT_NOTIFICATION_COUNT,
    DEFAULT_NOTIFICATION_VALUE,
    GASPI_BLOCK,
)
from .errors import GaspiInvalidArgumentError
from .group import Group
from .runtime import GaspiRuntime


class GroupRuntime(GaspiRuntime):
    """A rank-subset view onto a base runtime.

    Parameters
    ----------
    base:
        The wrapped runtime (the world, or another :class:`GroupRuntime`).
    members:
        Base-runtime ranks belonging to this group, **in group-rank
        order** (position ``i`` becomes group rank ``i``; the order may
        deviate from the sorted one when a split reorders ranks by key).
        Must contain ``base.rank`` and must be duplicate-free.
    """

    def __init__(self, base: GaspiRuntime, members: Sequence[int]) -> None:
        members = [int(m) for m in members]
        if len(set(members)) != len(members):
            raise GaspiInvalidArgumentError(f"duplicate ranks in group: {members}")
        for m in members:
            if not (0 <= m < base.size):
                raise GaspiInvalidArgumentError(
                    f"group member {m} outside base world of size {base.size}"
                )
        if base.rank not in members:
            raise GaspiInvalidArgumentError(
                f"rank {base.rank} constructed a GroupRuntime it is not part of "
                f"(members: {members})"
            )
        self._base = base
        self._members = tuple(members)
        self._rank = members.index(base.rank)
        self._base_group = Group(members)

    # ------------------------------------------------------------------ #
    # identity
    # ------------------------------------------------------------------ #
    @property
    def rank(self) -> int:
        return self._rank

    @property
    def size(self) -> int:
        return len(self._members)

    @property
    def base(self) -> GaspiRuntime:
        """The wrapped runtime."""
        return self._base

    @property
    def members(self) -> Sequence[int]:
        """Base-runtime ranks of the group, indexed by group rank."""
        return self._members

    @property
    def fault_injected(self) -> bool:
        return self._base.fault_injected

    @property
    def telemetry(self):
        # Forwarded so a split() communicator sharing the parent's registry
        # is detected upstream and not wrapped (and counted) a second time.
        return getattr(self._base, "telemetry", None)

    def to_base_rank(self, group_rank: int) -> int:
        """Translate a group rank to the base runtime's numbering."""
        try:
            return self._members[group_rank]
        except IndexError as exc:
            raise GaspiInvalidArgumentError(
                f"group rank {group_rank} outside group of size {self.size}"
            ) from exc

    def from_base_rank(self, base_rank: int) -> Optional[int]:
        """Group rank of a base-runtime rank, or ``None`` if not a member.

        The inverse of :meth:`to_base_rank`; elastic shrink uses it to
        remap suspicion expressed in parent numbering onto survivors.
        """
        try:
            return self._members.index(int(base_rank))
        except ValueError:
            return None

    def _translate_group(self, group: Optional[Group]) -> Group:
        """Map a group expressed in group-local ranks to base ranks."""
        if group is None:
            return self._base_group
        return Group(self.to_base_rank(r) for r in group.ranks)

    # ------------------------------------------------------------------ #
    # segments (local in GASPI: pass through)
    # ------------------------------------------------------------------ #
    def segment_create(
        self,
        segment_id: int,
        size: int,
        num_notifications: int = DEFAULT_NOTIFICATION_COUNT,
    ) -> None:
        self._base.segment_create(segment_id, size, num_notifications)

    def segment_delete(self, segment_id: int) -> None:
        self._base.segment_delete(segment_id)

    def segment_bind(self, segment_id: int, array: np.ndarray) -> None:
        self._base.segment_bind(segment_id, array)

    @property
    def supports_bind(self) -> bool:
        return self._base.supports_bind

    def segment_view(
        self, segment_id: int, dtype=np.float64, offset: int = 0, count=None
    ) -> np.ndarray:
        return self._base.segment_view(segment_id, dtype=dtype, offset=offset, count=count)

    def segment_size(self, segment_id: int) -> int:
        return self._base.segment_size(segment_id)

    def segment_read(
        self, segment_id: int, dtype=np.float64, offset: int = 0, count=None
    ) -> np.ndarray:
        return self._base.segment_read(segment_id, dtype=dtype, offset=offset, count=count)

    # ------------------------------------------------------------------ #
    # one-sided communication (translate the target rank)
    # ------------------------------------------------------------------ #
    def write(
        self,
        segment_id_local: int,
        offset_local: int,
        target_rank: int,
        segment_id_remote: int,
        offset_remote: int,
        size: int,
        queue: int = 0,
    ) -> None:
        self._base.write(
            segment_id_local,
            offset_local,
            self.to_base_rank(target_rank),
            segment_id_remote,
            offset_remote,
            size,
            queue=queue,
        )

    def notify(
        self,
        target_rank: int,
        segment_id_remote: int,
        notification_id: int,
        notification_value: int = DEFAULT_NOTIFICATION_VALUE,
        queue: int = 0,
    ) -> None:
        self._base.notify(
            self.to_base_rank(target_rank),
            segment_id_remote,
            notification_id,
            notification_value,
            queue=queue,
        )

    def write_notify(
        self,
        segment_id_local: int,
        offset_local: int,
        target_rank: int,
        segment_id_remote: int,
        offset_remote: int,
        size: int,
        notification_id: int,
        notification_value: int = DEFAULT_NOTIFICATION_VALUE,
        queue: int = 0,
    ) -> None:
        self._base.write_notify(
            segment_id_local,
            offset_local,
            self.to_base_rank(target_rank),
            segment_id_remote,
            offset_remote,
            size,
            notification_id,
            notification_value,
            queue=queue,
        )

    def write_notify_from(
        self,
        source: np.ndarray,
        target_rank: int,
        segment_id_remote: int,
        offset_remote: int,
        notification_id: int,
        notification_value: int = DEFAULT_NOTIFICATION_VALUE,
        queue: int = 0,
    ) -> None:
        self._base.write_notify_from(
            source,
            self.to_base_rank(target_rank),
            segment_id_remote,
            offset_remote,
            notification_id,
            notification_value,
            queue=queue,
        )

    # ------------------------------------------------------------------ #
    # weak synchronisation (local: pass through)
    # ------------------------------------------------------------------ #
    def notify_waitsome(
        self,
        segment_id_local: int,
        notification_begin: int = 0,
        notification_count=None,
        timeout: float = GASPI_BLOCK,
    ):
        return self._base.notify_waitsome(
            segment_id_local, notification_begin, notification_count, timeout
        )

    def notify_reset(self, segment_id_local: int, notification_id: int) -> int:
        return self._base.notify_reset(segment_id_local, notification_id)

    def notify_peek(self, segment_id_local: int, notification_id: int) -> int:
        return self._base.notify_peek(segment_id_local, notification_id)

    def notify_drain(
        self,
        segment_id_local: int,
        notification_begin: int = 0,
        notification_count=None,
    ):
        return self._base.notify_drain(
            segment_id_local, notification_begin, notification_count
        )

    # ------------------------------------------------------------------ #
    # queues / barrier / atomics
    # ------------------------------------------------------------------ #
    def wait(self, queue: int = 0, timeout: float = GASPI_BLOCK) -> None:
        self._base.wait(queue, timeout)

    def barrier(self, group: Optional[Group] = None, timeout: float = GASPI_BLOCK) -> None:
        self._base.barrier(self._translate_group(group), timeout=timeout)

    def atomic_fetch_add(
        self, segment_id: int, offset: int, target_rank: int, value: int
    ) -> int:
        return self._base.atomic_fetch_add(
            segment_id, offset, self.to_base_rank(target_rank), value
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"GroupRuntime(rank={self._rank}/{self.size}, "
            f"members={list(self._members)}, base={self._base!r})"
        )
