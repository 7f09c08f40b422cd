"""Property-based tests (hypothesis) on core data structures and invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bcast import bst_bcast_schedule, threshold_elements
from repro.core.compression import ThresholdCompressor, TopKCompressor
from repro.core.reduce import ReduceMode, bst_reduce_schedule
from repro.core.allreduce_ring import ring_allreduce_schedule
from repro.core.topology import BinomialTree, Hypercube, KnomialTree, Ring, chunk_bounds
from repro.simulate import simulate_schedule, skylake_fdr
from repro.ssp import SSPConfig, combine_clocks

ranks = st.integers(min_value=1, max_value=64)
pow2_ranks = st.sampled_from([1, 2, 4, 8, 16, 32, 64])
sizes = st.integers(min_value=0, max_value=1 << 22)
fractions = st.floats(min_value=0.01, max_value=1.0, allow_nan=False)


# --------------------------------------------------------------------------- #
# topology invariants
# --------------------------------------------------------------------------- #
@given(num_ranks=ranks, root=st.integers(min_value=0, max_value=63))
@settings(max_examples=60, deadline=None)
def test_binomial_tree_is_a_spanning_tree(num_ranks, root):
    root = root % num_ranks
    tree = BinomialTree(num_ranks, root)
    reached = {root}
    frontier = [root]
    while frontier:
        node = frontier.pop()
        for child in tree.children(node):
            assert child not in reached  # no cycles / duplicates
            assert tree.parent(child) == node
            reached.add(child)
            frontier.append(child)
    assert reached == set(range(num_ranks))


@given(num_ranks=ranks, fraction=fractions)
@settings(max_examples=60, deadline=None)
def test_participating_ranks_connected_and_enough(num_ranks, fraction):
    tree = BinomialTree(num_ranks)
    kept = set(tree.participating_ranks(fraction))
    assert 0 in kept
    assert len(kept) >= max(1, int(np.ceil(fraction * num_ranks - 1e-9)))
    for r in kept - {0}:
        assert tree.parent(r) in kept


@given(num_ranks=pow2_ranks)
@settings(max_examples=20, deadline=None)
def test_hypercube_partner_involution_and_coverage(num_ranks):
    cube = Hypercube(num_ranks)
    for r in range(num_ranks):
        partners = cube.partners(r)
        assert len(set(partners)) == len(partners)
        for k, p in enumerate(partners):
            assert cube.partner(p, k) == r


@given(num_ranks=ranks, radix=st.integers(min_value=2, max_value=8))
@settings(max_examples=40, deadline=None)
def test_knomial_tree_spans_all_ranks(num_ranks, radix):
    tree = KnomialTree(num_ranks, radix=radix)
    for r in range(num_ranks):
        node, hops = r, 0
        while tree.parent(node) is not None:
            node = tree.parent(node)
            hops += 1
            assert hops <= num_ranks
        assert node == 0


@given(total=st.integers(min_value=0, max_value=10_000), chunks=st.integers(min_value=1, max_value=64))
@settings(max_examples=100, deadline=None)
def test_chunk_bounds_partition(total, chunks):
    covered = 0
    prev_end = 0
    for i in range(chunks):
        begin, end = chunk_bounds(total, chunks, i)
        assert begin == prev_end
        assert end >= begin
        covered += end - begin
        prev_end = end
    assert covered == total and prev_end == total


@given(num_ranks=ranks)
@settings(max_examples=40, deadline=None)
def test_ring_chunk_flow_consistency(num_ranks):
    ring = Ring(num_ranks)
    for step in range(max(num_ranks - 1, 0)):
        for i in range(num_ranks):
            assert ring.scatter_reduce_recv_chunk(i, step) == ring.scatter_reduce_send_chunk(
                ring.prev_rank(i), step
            )


# --------------------------------------------------------------------------- #
# schedule invariants
# --------------------------------------------------------------------------- #
@given(num_ranks=ranks, nbytes=sizes, threshold=fractions)
@settings(max_examples=50, deadline=None)
def test_bcast_schedule_reaches_everyone_and_scales(num_ranks, nbytes, threshold):
    sched = bst_bcast_schedule(num_ranks, nbytes, threshold=threshold, include_acks=False)
    sched.validate()
    receivers = sorted(m.dst for m in sched.messages())
    assert receivers == list(range(1, num_ranks))
    if nbytes:
        # Whole float64 elements, as the plan ships them; a payload shorter
        # than one element ships whole.
        shipped = min(nbytes, threshold_elements(-(-nbytes // 8), threshold) * 8)
        assert all(m.nbytes == shipped for m in sched.messages())


@given(num_ranks=ranks, nbytes=sizes, threshold=fractions,
       mode=st.sampled_from([ReduceMode.DATA, ReduceMode.PROCESSES]))
@settings(max_examples=50, deadline=None)
def test_reduce_schedule_flows_toward_root(num_ranks, nbytes, threshold, mode):
    sched = bst_reduce_schedule(
        num_ranks, nbytes, threshold=threshold, mode=mode, include_handshake=False
    )
    sched.validate()
    tree = BinomialTree(num_ranks)
    for m in sched.messages():
        assert tree.parent(m.src) == m.dst


@given(num_ranks=ranks, nbytes=sizes)
@settings(max_examples=50, deadline=None)
def test_ring_allreduce_schedule_byte_balance(num_ranks, nbytes):
    sched = ring_allreduce_schedule(num_ranks, nbytes)
    sched.validate()
    if num_ranks > 1 and nbytes > 0:
        # Ring symmetry: what a rank sends and receives differs at most by the
        # remainder chunks (uneven block distribution of nbytes over P chunks).
        slack = 2 * (-(-nbytes // num_ranks))
        for r in range(num_ranks):
            assert abs(sched.bytes_sent_by(r) - sched.bytes_received_by(r)) <= slack
        # Global conservation is exact: every byte sent is received.
        total_sent = sum(sched.bytes_sent_by(r) for r in range(num_ranks))
        total_recv = sum(sched.bytes_received_by(r) for r in range(num_ranks))
        assert total_sent == total_recv
        assert sched.num_rounds == 2 * (num_ranks - 1)


@given(num_ranks=st.integers(min_value=2, max_value=24), nbytes=st.integers(min_value=1, max_value=1 << 20))
@settings(max_examples=30, deadline=None)
def test_simulated_time_is_positive_and_monotone_in_size(num_ranks, nbytes):
    machine = skylake_fdr(num_ranks)
    small = simulate_schedule(ring_allreduce_schedule(num_ranks, nbytes), machine)
    large = simulate_schedule(ring_allreduce_schedule(num_ranks, nbytes * 4), machine)
    assert small.total_time > 0
    assert large.total_time >= small.total_time


# --------------------------------------------------------------------------- #
# SSP invariants
# --------------------------------------------------------------------------- #
@given(clocks=st.lists(st.integers(min_value=0, max_value=1_000), min_size=1, max_size=16))
def test_combined_clock_is_lower_bound(clocks):
    combined = combine_clocks(clocks)
    assert combined <= min(clocks) + 0
    assert combined in clocks


@given(slack=st.integers(min_value=0, max_value=100),
       clock=st.integers(min_value=1, max_value=1_000),
       staleness=st.integers(min_value=0, max_value=200))
def test_ssp_admissibility_definition(slack, clock, staleness):
    cfg = SSPConfig(slack=slack)
    contribution_clock = clock - staleness
    assert cfg.admissible(contribution_clock, clock) == (staleness <= slack)


@given(n=st.integers(min_value=0, max_value=10_000), threshold=fractions)
def test_threshold_elements_bounds(n, threshold):
    k = threshold_elements(n, threshold)
    if n == 0:
        assert k == 0
    else:
        assert 1 <= k <= n
        assert k <= max(1, int(n * threshold) + 1)


# --------------------------------------------------------------------------- #
# compression invariants
# --------------------------------------------------------------------------- #
@given(
    values=st.lists(st.floats(min_value=-100, max_value=100, allow_nan=False), min_size=1, max_size=200),
    k=st.integers(min_value=1, max_value=50),
)
def test_topk_keeps_k_largest_by_magnitude(values, k):
    vec = np.asarray(values, dtype=np.float64)
    comp = TopKCompressor(k).compress(vec)
    assert comp.nnz == min(k, vec.size)
    dense = comp.decompress()
    assert dense.shape == vec.shape
    kept_min = np.min(np.abs(comp.values)) if comp.nnz else 0.0
    dropped = np.delete(np.abs(vec), comp.indices)
    if dropped.size:
        assert kept_min >= np.max(dropped) - 1e-12


@given(
    values=st.lists(st.floats(min_value=-10, max_value=10, allow_nan=False), min_size=1, max_size=200),
    threshold=st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
)
def test_threshold_compressor_partition(values, threshold):
    vec = np.asarray(values, dtype=np.float64)
    comp = ThresholdCompressor(threshold).compress(vec)
    dense = comp.decompress()
    kept = np.abs(vec) >= threshold
    assert np.array_equal(dense[kept], vec[kept])
    assert np.all(dense[~kept] == 0.0)
