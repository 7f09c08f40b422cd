"""Memory segments: the registered RDMA windows of GASPI.

A GASPI *segment* is a contiguous, pinned memory region that remote ranks
can write into with one-sided operations.  Here a segment is a NumPy
``uint8`` buffer plus a :class:`~repro.gaspi.notifications.NotificationBoard`.
Typed views (``float64`` slices etc.) are exposed through
:meth:`Segment.view` so collectives can operate on numerical data without
copying.
"""

from __future__ import annotations

import threading
from typing import Optional

import numpy as np

from .constants import DEFAULT_NOTIFICATION_COUNT
from .errors import GaspiInvalidArgumentError, GaspiSegmentError
from .notifications import NotificationBoard


class Segment:
    """A registered memory region owned by one rank.

    Parameters
    ----------
    segment_id:
        Small integer identifying the segment; must be identical on every
        rank that communicates through it (as in GPI-2).
    size:
        Size in bytes.
    owner_rank:
        Rank that owns (hosts) this memory.
    num_notifications:
        Number of notification slots attached to the segment.
    """

    def __init__(
        self,
        segment_id: int,
        size: int,
        owner_rank: int,
        num_notifications: int = DEFAULT_NOTIFICATION_COUNT,
    ) -> None:
        if size <= 0:
            raise GaspiInvalidArgumentError(f"segment size must be > 0, got {size}")
        if segment_id < 0:
            raise GaspiInvalidArgumentError(
                f"segment id must be non-negative, got {segment_id}"
            )
        self.segment_id = int(segment_id)
        self.size = int(size)
        self.owner_rank = int(owner_rank)
        self.buffer = np.zeros(self.size, dtype=np.uint8)
        self.notifications = NotificationBoard(num_notifications)
        # Per-segment lock serialising concurrent remote writes into this
        # memory.  GASPI leaves overlapping concurrent writes undefined; we
        # serialise them so tests are deterministic.
        self._write_lock = threading.Lock()
        #: Total number of bytes remotely written into this segment.
        self.bytes_written = 0
        #: The user array currently bound as the segment memory via
        #: :meth:`rebind` (``None`` while the segment owns its buffer).
        self.bound_array: Optional[np.ndarray] = None

    # ------------------------------------------------------------------ #
    # user-memory binding (``gaspi_segment_bind``)
    # ------------------------------------------------------------------ #
    def rebind(self, array: np.ndarray) -> None:
        """Bind user memory as this segment's registered window.

        The GASPI analogue is ``gaspi_segment_bind``: instead of copying
        payloads through a staging buffer, an application registers its own
        memory so one-sided writes land directly in it (and reads post
        directly from it).  The notification board and write lock survive a
        rebind — only the backing memory changes — so cross-call handshakes
        built on notifications keep working across rebinds.

        The caller is responsible for quiescence: no remote write may be in
        flight toward this segment when the memory is swapped (the pipelined
        collectives guarantee this with an entry handshake).
        """
        array = np.asarray(array)
        if not array.flags["C_CONTIGUOUS"]:
            raise GaspiInvalidArgumentError(
                "segment_bind requires C-contiguous memory"
            )
        if array.nbytes != self.size:
            raise GaspiInvalidArgumentError(
                f"bound array has {array.nbytes} bytes but segment "
                f"{self.segment_id} is {self.size} bytes"
            )
        with self._write_lock:
            self.buffer = array.view(np.uint8).reshape(-1)
            self.bound_array = array

    # ------------------------------------------------------------------ #
    # typed access
    # ------------------------------------------------------------------ #
    def view(self, dtype=np.float64, offset: int = 0, count: Optional[int] = None):
        """Return a typed NumPy view of a byte range of the segment.

        Parameters
        ----------
        dtype:
            NumPy dtype of the view.
        offset:
            Byte offset of the first element.
        count:
            Number of *elements* (not bytes).  ``None`` means "to the end of
            the segment" (truncated to a whole number of elements).
        """
        dtype = np.dtype(dtype)
        if offset < 0 or offset > self.size:
            raise GaspiSegmentError(
                f"offset {offset} outside segment of {self.size} bytes"
            )
        avail = self.size - offset
        if count is None:
            count = avail // dtype.itemsize
        nbytes = count * dtype.itemsize
        if nbytes > avail:
            raise GaspiSegmentError(
                f"requested {nbytes} bytes at offset {offset} but only "
                f"{avail} bytes remain in segment {self.segment_id}"
            )
        return self.buffer[offset : offset + nbytes].view(dtype)

    # ------------------------------------------------------------------ #
    # raw byte access used by the runtime
    # ------------------------------------------------------------------ #
    def view_bytes(self, offset: int, size: int) -> np.ndarray:
        """Zero-copy ``uint8`` view of a byte range of the segment.

        This is the posting side of the zero-copy data path: the runtime
        hands this view to the delivery layer instead of materialising an
        intermediate ``bytes`` copy.  GASPI semantics make that safe — the
        source region must stay unmodified until ``gaspi_wait`` returns,
        and every collective in this repository flushes its queue before
        reusing a staging area.
        """
        self._check_range(offset, size)
        return self.buffer[offset : offset + size]

    def read_bytes(self, offset: int, size: int) -> np.ndarray:
        """Copy ``size`` bytes starting at ``offset`` out of the segment.

        The copy is taken under the segment's write lock so a reader never
        observes a half-applied remote write (important for the SSP mailbox
        reads, where a peer may overwrite the slot at any time).
        """
        self._check_range(offset, size)
        with self._write_lock:
            return self.buffer[offset : offset + size].copy()

    def write_bytes(self, offset: int, data: np.ndarray) -> None:
        """Write raw bytes into the segment (remote side of ``gaspi_write``)."""
        if type(data) is not np.ndarray or data.dtype != np.uint8:
            data = np.asarray(data, dtype=np.uint8)
        self._check_range(offset, data.size)
        with self._write_lock:
            self.buffer[offset : offset + data.size] = data
            self.bytes_written += int(data.size)

    def fill(self, value: float, dtype=np.float64) -> None:
        """Fill the whole segment (viewed as ``dtype``) with ``value``."""
        self.view(dtype)[:] = value

    def _check_range(self, offset: int, size: int) -> None:
        if offset < 0 or size < 0 or offset + size > self.size:
            raise GaspiSegmentError(
                f"byte range [{offset}, {offset + size}) outside segment "
                f"{self.segment_id} of {self.size} bytes"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Segment(id={self.segment_id}, size={self.size}, "
            f"owner={self.owner_rank})"
        )
