"""Group-scoped view of a GASPI runtime (the substrate of sub-communicators).

A :class:`GroupRuntime` is a :class:`~repro.gaspi.runtime.RuntimeWrapper`
around any :class:`~repro.gaspi.runtime.GaspiRuntime` that renumbers a
subset of its ranks ``0 .. len(members)-1``.  Every collective in
:mod:`repro.core` is written against ``runtime.rank`` / ``runtime.size``
and posts one-sided operations to *rank numbers*, so running it on a
:class:`GroupRuntime` transparently scopes it to the member subset: target
ranks are translated on the way out, barriers are taken over the member
group only, and segment/notification operations — which are local in
GASPI — are the inner runtime's own (the wrapper base forwards everything
this class does not override).

Wrappers nest: splitting a sub-communicator wraps its (already wrapped)
runtime again, so each level only reasons about its parent's numbering.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .constants import DEFAULT_NOTIFICATION_VALUE, GASPI_BLOCK
from .errors import GaspiInvalidArgumentError
from .group import Group
from .runtime import GaspiRuntime, RuntimeWrapper


class GroupRuntime(RuntimeWrapper):
    """A rank-subset view onto an inner runtime.

    Parameters
    ----------
    inner:
        The wrapped runtime (the world, or another :class:`GroupRuntime`).
    members:
        Inner-runtime ranks belonging to this group, **in group-rank
        order** (position ``i`` becomes group rank ``i``; the order may
        deviate from the sorted one when a split reorders ranks by key).
        Must contain ``inner.rank`` and must be duplicate-free.
    """

    def __init__(self, inner: GaspiRuntime, members: Sequence[int]) -> None:
        members = [int(m) for m in members]
        if len(set(members)) != len(members):
            raise GaspiInvalidArgumentError(f"duplicate ranks in group: {members}")
        for m in members:
            if not (0 <= m < inner.size):
                raise GaspiInvalidArgumentError(
                    f"group member {m} outside base world of size {inner.size}"
                )
        if inner.rank not in members:
            raise GaspiInvalidArgumentError(
                f"rank {inner.rank} constructed a GroupRuntime it is not part of "
                f"(members: {members})"
            )
        super().__init__(inner)
        self._members = tuple(members)
        self._rank = members.index(inner.rank)
        self._member_group = Group(members)

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
    def members(self) -> Sequence[int]:
        """Inner-runtime ranks of the group, indexed by group rank."""
        return self._members

    def to_base_rank(self, group_rank: int) -> int:
        """Translate a group rank to the inner runtime's numbering."""
        try:
            return self._members[group_rank]
        except IndexError as exc:
            raise GaspiInvalidArgumentError(
                f"group rank {group_rank} outside group of size {self.size}"
            ) from exc

    def _translate_group(self, group: Optional[Group]) -> Group:
        """Map a group expressed in group-local ranks to inner ranks."""
        if group is None:
            return self._member_group
        return Group(self.to_base_rank(r) for r in group.ranks)

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
        self.inner.write(
            segment_id_local, offset_local, self.to_base_rank(target_rank),
            segment_id_remote, offset_remote, size, queue,
        )

    def notify(
        self,
        target_rank: int,
        segment_id_remote: int,
        notification_id: int,
        notification_value: int = DEFAULT_NOTIFICATION_VALUE,
        queue: int = 0,
    ) -> None:
        self.inner.notify(
            self.to_base_rank(target_rank), segment_id_remote, notification_id,
            notification_value, queue,
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
        self.inner.write_notify(
            segment_id_local, offset_local, self.to_base_rank(target_rank),
            segment_id_remote, offset_remote, size, notification_id,
            notification_value, queue,
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
        self.inner.write_notify_from(
            source, self.to_base_rank(target_rank), segment_id_remote,
            offset_remote, notification_id, notification_value, queue,
        )

    # ------------------------------------------------------------------ #
    # barrier / atomics (translate the group / the target rank)
    # ------------------------------------------------------------------ #
    def barrier(self, group: Optional[Group] = None, timeout: float = GASPI_BLOCK) -> None:
        self.inner.barrier(self._translate_group(group), timeout)

    def atomic_fetch_add(
        self, segment_id: int, offset: int, target_rank: int, value: int
    ) -> int:
        return self.inner.atomic_fetch_add(
            segment_id, offset, self.to_base_rank(target_rank), value
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"GroupRuntime(rank={self._rank}/{self.size}, "
            f"members={list(self._members)}, inner={self.inner!r})"
        )
