"""Point-to-point cost model (LogGP flavoured, with protocol effects).

The model charges, for a message of ``m`` bytes:

* **sender occupancy** ``o_s + m / injection_bandwidth`` — the time the
  sending rank's CPU/NIC pair is busy before it can inject the next
  message (this is what serialises the P-1 writes of the direct AlltoAll);
* **wire time** ``L + m / bandwidth`` — latency plus serialisation on the
  link (intra-node messages use the shared-memory latency/bandwidth);
* **receiver cost** — for one-sided GASPI traffic only the notification
  processing ``o_notify``; for two-sided MPI traffic the matching overhead
  ``o_match`` plus an internal-copy cost ``m * copy_per_byte`` (eager
  buffering / pack-unpack), and above the eager threshold a rendezvous
  handshake that both couples sender and receiver and adds an extra
  round-trip latency;
* **reduction cost** ``reduce_bytes * reduce_seconds_per_byte`` when the
  receiver combines the payload into an accumulator.

These few parameters are enough to reproduce the qualitative behaviour the
paper reports: tree algorithms win for small payloads (latency-dominated),
the pipelined ring wins for large payloads (bandwidth-dominated, no
rendezvous stalls, no phase barriers), and the direct write_notify
AlltoAll overtakes two-sided AlltoAll once messages are big enough that
per-message MPI overheads stop amortising.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from ..utils.validation import check_positive


@dataclass(frozen=True)
class TransferCost:
    """Cost breakdown of one point-to-point transfer."""

    sender_occupancy: float
    wire_time: float
    receiver_cost: float
    rendezvous: bool

    @property
    def total_latency(self) -> float:
        """Time from injection start to data usable at the receiver."""
        return self.sender_occupancy + self.wire_time + self.receiver_cost


@dataclass(frozen=True)
class NetworkParameters:
    """Parameters of the cluster interconnect and of the messaging layers.

    All times are seconds, bandwidths bytes/second.
    """

    # -- inter-node link ------------------------------------------------- #
    latency: float = 1.5e-6
    bandwidth: float = 6.75e9  # 54 Gbit/s FDR InfiniBand

    # -- intra-node (shared memory) channel ------------------------------- #
    shm_latency: float = 0.4e-6
    shm_bandwidth: float = 20.0e9

    # -- per-message CPU overheads ---------------------------------------- #
    send_overhead: float = 0.6e-6
    recv_overhead: float = 0.6e-6

    # -- one-sided (GASPI) specifics --------------------------------------- #
    notification_overhead: float = 0.3e-6
    #: fixed per-collective cost of preparing segments/notification ranges in
    #: the GASPI prototype (dominates very small payloads, cf. Figure 8).
    onesided_setup_overhead: float = 40.0e-6
    #: fraction of the wire serialisation charged to the *sender* of an RDMA
    #: write: the NIC streams the data while the CPU only posts a descriptor,
    #: so back-to-back one-sided writes overlap partially (1.0 = fully
    #: serialised like a CPU-driven send, 0.0 = free injection).
    onesided_injection_factor: float = 0.5

    # -- two-sided (MPI) specifics ----------------------------------------- #
    matching_overhead: float = 0.9e-6
    twosided_copy_per_byte: float = 0.18e-9  # eager buffering / pack-unpack / CPU-driven pipelining
    eager_threshold: int = 16 * 1024
    rendezvous_latency: float = 2.5e-6
    twosided_setup_overhead: float = 3.0e-6

    # -- computation -------------------------------------------------------- #
    reduce_seconds_per_byte: float = 0.15e-9  # ~6.7 GB/s streaming reduction
    copy_seconds_per_byte: float = 0.08e-9

    # -- global synchronisation -------------------------------------------- #
    barrier_per_round: float = 2.0e-6

    def __post_init__(self) -> None:
        check_positive(self.bandwidth, "bandwidth")
        check_positive(self.shm_bandwidth, "shm_bandwidth")
        if self.latency < 0 or self.shm_latency < 0:
            raise ValueError("latencies must be non-negative")
        if self.eager_threshold < 0:
            raise ValueError("eager_threshold must be non-negative")

    # ------------------------------------------------------------------ #
    # cost helpers
    # ------------------------------------------------------------------ #
    def wire_time(self, nbytes: int, intra_node: bool) -> float:
        """Latency plus serialisation of ``nbytes`` on the chosen channel."""
        if intra_node:
            return self.shm_latency + nbytes / self.shm_bandwidth
        return self.latency + nbytes / self.bandwidth

    def sender_occupancy(self, nbytes: int, intra_node: bool) -> float:
        """How long the sender is busy injecting one message."""
        bw = self.shm_bandwidth if intra_node else self.bandwidth
        return self.send_overhead + nbytes / bw

    def onesided_cost(self, nbytes: int, intra_node: bool) -> TransferCost:
        """Cost of a GASPI ``write_notify`` of ``nbytes``.

        The sender is only partially occupied by the payload (RDMA offload,
        see :attr:`onesided_injection_factor`); the receiver pays just the
        notification processing.
        """
        bw = self.shm_bandwidth if intra_node else self.bandwidth
        occupancy = self.send_overhead + self.onesided_injection_factor * nbytes / bw
        return TransferCost(
            sender_occupancy=occupancy,
            wire_time=self.wire_time(nbytes, intra_node),
            receiver_cost=self.notification_overhead,
            rendezvous=False,
        )

    def twosided_cost(self, nbytes: int, intra_node: bool) -> TransferCost:
        """Cost of an MPI send/recv pair of ``nbytes``."""
        rendezvous = nbytes > self.eager_threshold
        receiver = (
            self.recv_overhead
            + self.matching_overhead
            + nbytes * self.twosided_copy_per_byte
        )
        wire = self.wire_time(nbytes, intra_node)
        if rendezvous:
            wire += self.rendezvous_latency
        return TransferCost(
            sender_occupancy=self.sender_occupancy(nbytes, intra_node),
            wire_time=wire,
            receiver_cost=receiver,
            rendezvous=rendezvous,
        )

    def reduction_time(self, nbytes: int) -> float:
        """Time to combine ``nbytes`` of payload into a local accumulator."""
        return nbytes * self.reduce_seconds_per_byte

    def barrier_time(self, num_ranks: int) -> float:
        """Cost of a full synchronisation over ``num_ranks`` processes."""
        if num_ranks <= 1:
            return 0.0
        rounds = (num_ranks - 1).bit_length()
        return rounds * (self.latency + self.barrier_per_round)

    # ------------------------------------------------------------------ #
    # variants
    # ------------------------------------------------------------------ #
    def scaled(self, **overrides) -> "NetworkParameters":
        """Return a copy with some fields overridden (calibration helper)."""
        return replace(self, **overrides)


def fdr_infiniband() -> NetworkParameters:
    """54 Gbit/s FDR InfiniBand (Fraunhofer SkyLake partition)."""
    return NetworkParameters(latency=1.5e-6, bandwidth=54e9 / 8)


def omnipath_100g(latency: float = 1.2e-6) -> NetworkParameters:
    """100 Gbit/s Intel OmniPath (MareNostrum4, Galileo)."""
    return NetworkParameters(latency=latency, bandwidth=100e9 / 8)
