"""The kept v1 spellings: they must match the canonical path exactly.

Of the v1 loose kwargs, ``slack=`` on ``allreduce_ssp`` and the short
``algorithm=`` aliases are documented as kept (no warning); the result is
bit-identical to the explicit ``policy=`` / registry-name spelling.  The
``threshold=`` / ``mode=`` shims of ``bcast`` / ``reduce`` are gone.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro import Communicator, ConsistencyPolicy

from tests.helpers import expected_sum, rank_vector, spmd


def _no_deprecation(record) -> bool:
    return not any(issubclass(w.category, DeprecationWarning) for w in record)


class TestSspSlackShim:
    """``slack=`` is a kept spelling (no warning), but must equal policy=."""

    N = 32

    def test_slack_matches_ssp_policy(self):
        def worker(rt):
            comm = Communicator(rt)
            data = rank_vector(rt.rank, self.N)
            with warnings.catch_warnings(record=True) as record:
                warnings.simplefilter("always")
                via_slack = comm.allreduce_ssp(data, slack=0)
            assert _no_deprecation(record)
            via_policy = comm.allreduce_ssp(data, policy=ConsistencyPolicy.ssp(0))
            comm.close()
            return np.array_equal(via_slack.value, via_policy.value)

        assert all(spmd(4, worker))

    def test_slack_and_policy_together_rejected(self):
        def worker(rt):
            comm = Communicator(rt)
            with pytest.raises(ValueError, match="not both"):
                comm.allreduce_ssp(
                    np.ones(8), slack=1, policy=ConsistencyPolicy.ssp(1)
                )
            return True

        assert all(spmd(2, worker))


class TestAlgorithmAliases:
    N = 96

    @pytest.mark.parametrize(
        "alias,canonical",
        [
            ("ring", "gaspi_allreduce_ring"),
            ("hypercube", "gaspi_allreduce_ssp_hypercube"),
        ],
    )
    def test_allreduce_aliases_match_canonical_names(self, alias, canonical):
        def worker(rt):
            comm = Communicator(rt)
            data = rank_vector(rt.rank, self.N)
            via_alias = comm.allreduce(data, algorithm=alias)
            assert comm.last_result.algorithm == canonical
            via_name = comm.allreduce(data, algorithm=canonical)
            return np.array_equal(via_alias, via_name)

        assert all(spmd(4, worker))

    def test_bcast_and_reduce_aliases(self):
        def worker(rt):
            comm = Communicator(rt)
            buf = np.ones(16) if rt.rank == 0 else np.zeros(16)
            comm.bcast(buf, root=0, algorithm="bst")
            assert comm.last_result.algorithm == "gaspi_bcast_bst"
            comm.bcast(buf, root=0, algorithm="flat")
            assert comm.last_result.algorithm == "gaspi_bcast_flat"
            comm.reduce(np.ones(16), np.zeros(16), root=0, algorithm="bst")
            assert comm.last_result.algorithm == "gaspi_reduce_bst"
            return True

        assert all(spmd(2, worker))

    def test_alias_results_are_exact(self):
        def worker(rt):
            comm = Communicator(rt)
            return comm.allreduce(rank_vector(rt.rank, self.N), algorithm="ring")

        for out in spmd(4, worker):
            assert np.allclose(out, expected_sum(4, self.N))
