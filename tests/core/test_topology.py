"""Unit tests of the virtual topologies (BST, hypercube, ring, k-nomial)."""

import numpy as np
import pytest

from repro.core.policy import ConsistencyPolicy, documented_result
from repro.core.topology import (
    BinomialTree,
    Hypercube,
    KnomialTree,
    Ring,
    chunk_bounds,
    chunk_sizes,
    dissemination_schedule,
)


class TestBinomialTree:
    def test_paper_example_eight_nodes(self):
        """Figure 3 of the paper: stages double the involved processes."""
        tree = BinomialTree(8)
        assert tree.children(0) == [1, 2, 4]
        assert tree.children(1) == [3, 5]
        assert tree.children(2) == [6]
        assert tree.children(3) == [7]
        assert tree.children(4) == []
        assert tree.parent(0) is None
        assert tree.parent(7) == 3
        assert tree.parent(6) == 2
        assert tree.parent(4) == 0

    def test_stage_structure(self):
        tree = BinomialTree(8)
        assert tree.ranks_by_stage() == {0: [0], 1: [1], 2: [2, 3], 3: [4, 5, 6, 7]}
        assert tree.num_stages() == 3
        assert tree.depth() == 3

    def test_every_rank_reaches_root(self):
        for P in (1, 2, 3, 5, 8, 13, 16, 31, 32):
            tree = BinomialTree(P)
            for r in range(P):
                hops = 0
                node = r
                while tree.parent(node) is not None:
                    node = tree.parent(node)
                    hops += 1
                    assert hops <= P
                assert node == 0

    def test_children_parent_consistency(self):
        for P in (2, 7, 16, 21):
            tree = BinomialTree(P)
            for r in range(P):
                for child in tree.children(r):
                    assert tree.parent(child) == r

    def test_non_zero_root_relabelling(self):
        tree = BinomialTree(8, root=3)
        assert tree.parent(3) is None
        assert 3 not in tree.children(3)
        covered = {3}
        frontier = [3]
        while frontier:
            node = frontier.pop()
            for child in tree.children(node):
                assert child not in covered
                covered.add(child)
                frontier.append(child)
        assert covered == set(range(8))

    def test_leaves_and_descendants(self):
        tree = BinomialTree(8)
        assert set(tree.leaves()) == {4, 5, 6, 7}
        assert tree.descendants(1) == [3, 5, 7]
        assert tree.descendants(0) == list(range(1, 8))

    @pytest.mark.parametrize("size", [5, 8, 16, 32])
    def test_participating_ranks_are_the_documented_set(self, size):
        # One-hot payloads: the documented fold names the ranks it keeps.
        for root in (0, size - 1):
            tree = BinomialTree(size, root)
            for frac in (0.25, 0.3, 0.4, 0.5, 0.75, 1.0):
                policy = ConsistencyPolicy.process_threshold(frac)
                owed = documented_result("reduce", policy, list(np.eye(size)), root=root)
                assert tree.participating_ranks(frac) == list(np.flatnonzero(owed[root]))

    def test_participating_75_and_100_share_depth(self):
        """Paper observation behind Figure 10: 75 % and 100 % perform alike."""
        tree = BinomialTree(32)
        kept75 = tree.participating_ranks(0.75)
        depth75 = max(tree.stage_of(r) for r in kept75)
        assert depth75 == tree.depth()

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            BinomialTree(0)
        with pytest.raises(ValueError):
            BinomialTree(4, root=4)
        with pytest.raises(ValueError):
            BinomialTree(4).participating_ranks(0.0)


class TestHypercube:
    def test_partners_pattern_matches_paper_figure2(self):
        cube = Hypercube(8)
        assert cube.partner(0, 0) == 1
        assert cube.partner(0, 1) == 2
        assert cube.partner(0, 2) == 4
        assert cube.partners(5) == [4, 7, 1]

    def test_partner_symmetry(self):
        cube = Hypercube(16)
        for r in range(16):
            for k in range(cube.dimensions):
                assert cube.partner(cube.partner(r, k), k) == r

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError):
            Hypercube(6)

    def test_single_rank(self):
        cube = Hypercube(1)
        assert cube.dimensions == 0
        assert cube.partners(0) == []

    def test_step_out_of_range(self):
        with pytest.raises(ValueError):
            Hypercube(8).partner(0, 3)


class TestRing:
    def test_neighbours(self):
        ring = Ring(4)
        assert ring.next_rank(3) == 0
        assert ring.prev_rank(0) == 3

    def test_scatter_reduce_chunk_indices_match_paper(self):
        """Paper: at step k node i sends chunk i-k and receives chunk i-k-1."""
        ring = Ring(5)
        assert ring.scatter_reduce_send_chunk(2, 0) == 2
        assert ring.scatter_reduce_recv_chunk(2, 0) == 1
        # the received chunk is what the predecessor sent
        for step in range(4):
            for i in range(5):
                assert ring.scatter_reduce_recv_chunk(i, step) == ring.scatter_reduce_send_chunk(
                    ring.prev_rank(i), step
                )

    def test_allgather_chunk_indices_match_paper(self):
        ring = Ring(5)
        for step in range(4):
            for i in range(5):
                assert ring.allgather_recv_chunk(i, step) == ring.allgather_send_chunk(
                    ring.prev_rank(i), step
                )

    def test_scatter_reduce_final_ownership(self):
        """After P-1 steps rank i owns the fully reduced chunk (i+1) mod P."""
        P = 6
        ring = Ring(P)
        for i in range(P):
            last_received = ring.scatter_reduce_recv_chunk(i, P - 2)
            assert last_received == (i + 1) % P


class TestKnomialTree:
    def test_radix_two_matches_binomial_sizes(self):
        tree = KnomialTree(8, radix=2)
        sizes = [len(tree.children(r)) for r in range(8)]
        assert sum(sizes) == 7  # every non-root has exactly one parent

    def test_all_nodes_connected(self):
        for P in (5, 9, 16):
            for radix in (2, 3, 4):
                tree = KnomialTree(P, radix=radix)
                for r in range(P):
                    node, hops = r, 0
                    while tree.parent(node) is not None:
                        node = tree.parent(node)
                        hops += 1
                        assert hops <= P
                    assert node == 0

    def test_higher_radix_is_shallower(self):
        assert KnomialTree(64, radix=8).num_stages() <= KnomialTree(64, radix=2).num_stages()

    def test_invalid_radix(self):
        with pytest.raises(ValueError):
            KnomialTree(4, radix=1)


class TestDissemination:
    def test_number_of_rounds(self):
        assert len(dissemination_schedule(8, 0)) == 3
        assert len(dissemination_schedule(9, 0)) == 4
        assert len(dissemination_schedule(1, 0)) == 0

    def test_send_recv_symmetry(self):
        P = 8
        for k in range(3):
            for r in range(P):
                steps = dissemination_schedule(P, r)
                partner = steps[k].send_to
                partner_steps = dissemination_schedule(P, partner)
                assert partner_steps[k].recv_from == r


class TestChunking:
    def test_chunks_cover_everything_once(self):
        for total in (0, 1, 7, 16, 100):
            for chunks in (1, 3, 7, 16):
                ranges = [chunk_bounds(total, chunks, i) for i in range(chunks)]
                assert ranges[0][0] == 0
                assert ranges[-1][1] == total
                for (a0, a1), (b0, b1) in zip(ranges, ranges[1:]):
                    assert a1 == b0

    def test_chunk_sizes_balanced(self):
        sizes = chunk_sizes(10, 4)
        assert sum(sizes) == 10
        assert max(sizes) - min(sizes) <= 1

    def test_invalid_chunk_index(self):
        with pytest.raises(ValueError):
            chunk_bounds(10, 4, 4)
