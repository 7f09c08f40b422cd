"""Executable runners for the MPI baselines.

The MPI comparison algorithms exist in two forms: communication-schedule
builders (for the timing simulator, all twelve Allreduce variants etc.)
and functional reference implementations over the two-sided messaging
layer (:mod:`repro.mpi.twosided`).  This module adapts the functional
implementations to the registry's runner contract —
``runner(runtime, request) -> CollectiveResult`` — so the policy-driven
:class:`~repro.core.api.Communicator` can execute MPI baselines through
the same dispatch path as the GASPI collectives
(``comm.allreduce(x, algorithm="mpi_allreduce_mpi8_ring")``).

The two-sided layer stages float64 envelopes, so every runner advertises a
``float64`` dtype capability.  ``mpi_allreduce_default`` re-applies the
Intel-style tuning rules at execution time; the bcast/reduce defaults
execute the binomial reference (the only functional variant), so for
payloads above the tuning thresholds their *executed* algorithm differs
from the scatter-allgather / reduce-scatter schedule the simulator models
for the same name.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from ..core.policy import CollectiveRequest, CollectiveResult
from ..core.registry import AlgorithmCapabilities
from ..core.tuning import ALLREDUCE_SMALL
from ..gaspi.runtime import GaspiRuntime
from ..utils.validation import is_power_of_two
from .twosided import TwoSidedLayer

#: Capability shared by every two-sided runner.
_TWOSIDED = dict(dtype="float64", min_ranks=2)


@contextmanager
def _layer(runtime: GaspiRuntime, request: CollectiveRequest):
    """Two-sided mailbox layer scoped to one collective call."""
    layer = TwoSidedLayer(
        runtime,
        max_elements=max(int(np.asarray(request.sendbuf).size), 1),
        segment_id=request.own_segment_id(),
        queue=request.queue,
    )
    try:
        yield layer
    finally:
        layer.close()


def _deliver(request: CollectiveRequest, value: np.ndarray) -> CollectiveResult:
    """Honour the caller's recvbuf, then wrap the value."""
    if request.recvbuf is not None:
        request.recvbuf[: value.size] = value
        value = request.recvbuf
    return CollectiveResult(value=value)


# --------------------------------------------------------------------------- #
# runners
# --------------------------------------------------------------------------- #
def run_recursive_doubling_allreduce(
    runtime: GaspiRuntime, request: CollectiveRequest
) -> CollectiveResult:
    from .allreduce_variants import recursive_doubling_allreduce

    with _layer(runtime, request) as layer:
        value = recursive_doubling_allreduce(layer, request.sendbuf, op=request.op)
    return _deliver(request, value)


def run_ring_allreduce(
    runtime: GaspiRuntime, request: CollectiveRequest
) -> CollectiveResult:
    from .allreduce_variants import ring_allreduce_twosided

    with _layer(runtime, request) as layer:
        value = ring_allreduce_twosided(layer, request.sendbuf, op=request.op)
    return _deliver(request, value)


def run_default_allreduce(
    runtime: GaspiRuntime, request: CollectiveRequest
) -> CollectiveResult:
    """Execution-time analogue of the Intel default tuning pick."""
    small = request.nbytes <= ALLREDUCE_SMALL and is_power_of_two(runtime.size)
    if small:
        return run_recursive_doubling_allreduce(runtime, request)
    return run_ring_allreduce(runtime, request)


def run_binomial_bcast(
    runtime: GaspiRuntime, request: CollectiveRequest
) -> CollectiveResult:
    from .bcast_variants import binomial_bcast_twosided

    with _layer(runtime, request) as layer:
        value = binomial_bcast_twosided(layer, request.sendbuf, root=request.root)
    if value is not request.sendbuf:
        request.sendbuf[: value.size] = value
    return CollectiveResult(value=request.sendbuf)


def run_binomial_reduce(
    runtime: GaspiRuntime, request: CollectiveRequest
) -> CollectiveResult:
    from .reduce_variants import binomial_reduce_twosided

    with _layer(runtime, request) as layer:
        value = binomial_reduce_twosided(
            layer, request.sendbuf, root=request.root, op=request.op
        )
    if runtime.rank == request.root and request.recvbuf is not None:
        request.recvbuf[: value.size] = value
        value = request.recvbuf
    return CollectiveResult(value=value)


def run_pairwise_alltoall(
    runtime: GaspiRuntime, request: CollectiveRequest
) -> CollectiveResult:
    from .alltoall_variants import pairwise_alltoall_twosided

    if request.variable:
        raise ValueError(
            "the MPI alltoall baselines only support uniform blocks "
            "(no alltoallv); use gaspi_alltoall for variable counts"
        )
    with _layer(runtime, request) as layer:
        value = pairwise_alltoall_twosided(layer, request.sendbuf)
    return _deliver(request, value)


#: Registry name → (runner, capability overrides).  Applied by
#: :func:`repro.mpi.tuning.register_mpi_algorithms`.
EXECUTABLE_BASELINES = {
    "mpi_allreduce_mpi1_recursive_doubling": (
        run_recursive_doubling_allreduce,
        AlgorithmCapabilities(
            supports_op=True, requires_power_of_two=True, **_TWOSIDED
        ),
    ),
    "mpi_allreduce_mpi8_ring": (
        run_ring_allreduce,
        AlgorithmCapabilities(supports_op=True, **_TWOSIDED),
    ),
    "mpi_allreduce_default": (
        run_default_allreduce,
        AlgorithmCapabilities(supports_op=True, **_TWOSIDED),
    ),
    "mpi_bcast_binomial": (
        run_binomial_bcast,
        AlgorithmCapabilities(**_TWOSIDED),
    ),
    "mpi_bcast_default": (
        run_binomial_bcast,
        AlgorithmCapabilities(**_TWOSIDED),
    ),
    "mpi_reduce_binomial": (
        run_binomial_reduce,
        AlgorithmCapabilities(supports_op=True, **_TWOSIDED),
    ),
    "mpi_reduce_default": (
        run_binomial_reduce,
        AlgorithmCapabilities(supports_op=True, **_TWOSIDED),
    ),
    "mpi_alltoall_pairwise": (
        run_pairwise_alltoall,
        AlgorithmCapabilities(**_TWOSIDED),
    ),
    "mpi_alltoall_default": (
        run_pairwise_alltoall,
        AlgorithmCapabilities(**_TWOSIDED),
    ),
}
