"""Tests of the SSP allreduce (Algorithm 1): exactness at slack 0, staleness
bounds, wait accounting, logical clocks."""

import numpy as np
import pytest

from repro.core import Communicator
from repro.core.workspace import WorkspacePool, size_class
from repro.gaspi import run_spmd

from tests.helpers import expected_sum, rank_vector, spmd


POW2_SIZES = [1, 2, 4, 8]


class TestSingleShot:
    @pytest.mark.parametrize("num_ranks", POW2_SIZES)
    def test_slack_zero_single_call_is_exact(self, num_ranks):
        n = 65

        def worker(rt):
            with Communicator(rt) as comm:
                return comm.allreduce_ssp(rank_vector(rt.rank, n), slack=0).value

        results = spmd(num_ranks, worker)
        reference = expected_sum(num_ranks, n)
        for value in results:
            assert np.allclose(value, reference)

    def test_slack_zero_is_bit_identical_on_every_entry_point(self):
        n = 37

        def worker(rt):
            x = np.random.default_rng(rt.rank).standard_normal(n)
            values = []
            for comm in (Communicator(rt), Communicator(rt, plan_cache=0)):
                values += [
                    comm.allreduce(x, algorithm="hypercube"),
                    comm.allreduce_ssp(x, slack=0).value,
                ]
                comm.close()
            return [value.tobytes() for value in values]

        for values in spmd(8, worker):
            assert len(set(values)) == 1

    def test_non_power_of_two_rejected(self):
        def worker(rt):
            with pytest.raises(ValueError):
                Communicator(rt).allreduce_ssp(np.ones(8), slack=0)
            return True

        spmd(3, worker)

    def test_negative_slack_rejected(self):
        def worker(rt):
            with pytest.raises(ValueError):
                Communicator(rt).allreduce_ssp(np.ones(8), slack=-1)
            return True

        spmd(1, worker)


class TestIterative:
    def test_slack_zero_lockstep_iterations_are_exact(self):
        """slack = 0 with lockstep iterations degenerates to an exact allreduce."""
        iterations = 5
        n = 32

        def worker(rt):
            comm = Communicator(rt)
            outputs = []
            for it in range(iterations):
                contribution = np.full(n, float(rt.rank + 1) * (it + 1))
                result = comm.allreduce_ssp(contribution, slack=0)
                outputs.append(result.value.copy())
                rt.barrier()  # lockstep: nobody can run ahead
            comm.close()
            return outputs

        results = spmd(4, worker)
        for it in range(iterations):
            expected = sum(r + 1 for r in range(4)) * (it + 1)
            for rank_outputs in results:
                assert np.allclose(rank_outputs[it], expected)

    def test_slack_allows_proceeding_with_initial_mailbox_state(self):
        """With slack >= 1 the very first iteration may legally use the
        (identity-initialised) mailboxes instead of waiting — that is the
        eventual-consistency trade-off the paper describes."""

        def worker(rt):
            comm = Communicator(rt)
            result = comm.allreduce_ssp(np.full(8, float(rt.rank + 1)), slack=2)
            comm.close()
            # The result always contains at least the local contribution and
            # never exceeds the exact sum.
            exact = sum(r + 1 for r in range(rt.size))
            return float(rt.rank + 1) <= result.value[0] <= exact

        assert all(spmd(4, worker))

    def test_staleness_never_exceeds_slack(self):
        slack = 2
        iterations = 25

        def worker(rt):
            comm = Communicator(rt)
            staleness_seen = []
            for _ in range(iterations):
                result = comm.allreduce_ssp(np.ones(16), slack=slack)
                staleness_seen.append(result.detail.staleness)
            comm.close()
            return staleness_seen

        results = spmd(4, worker)
        for per_rank in results:
            assert all(0 <= s <= slack for s in per_rank)

    def test_clock_advances_every_call(self):
        def worker(rt):
            comm = Communicator(rt)
            clocks = []
            for _ in range(5):
                result = comm.allreduce_ssp(np.ones(8), slack=1)
                clocks.append(result.detail.clock)
                rt.barrier()
            comm.close()
            return clocks

        for clocks in spmd(2, worker):
            assert clocks == [1, 2, 3, 4, 5]

    def test_result_clock_lower_bound(self):
        """result_clock >= clock - slack is the SSP guarantee."""
        slack = 3

        def worker(rt):
            comm = Communicator(rt)
            ok = True
            for _ in range(20):
                stats = comm.allreduce_ssp(np.ones(8), slack=slack).detail
                ok = ok and (stats.result_clock >= stats.clock - slack)
            comm.close()
            return ok

        assert all(spmd(8, worker))


class TestSlackBehaviour:
    def test_larger_slack_waits_less(self):
        """With a straggler, slack > 0 must reduce the fast ranks' time
        blocked in the collective."""
        iterations = 12
        import time

        def worker(rt, slack):
            comm = Communicator(rt)
            total_wait = 0.0
            for it in range(iterations):
                if rt.rank == rt.size - 1:
                    time.sleep(0.004)  # the straggler
                began = time.perf_counter()
                comm.allreduce_ssp(np.ones(64), slack=slack)
                total_wait += time.perf_counter() - began
            comm.close()
            return total_wait

        wait_sync = sum(run_spmd(4, worker, 0, timeout=120)[:-1])
        wait_ssp = sum(run_spmd(4, worker, 4, timeout=120)[:-1])
        assert wait_ssp < wait_sync

    def test_slack_zero_requires_fresh_data_from_all(self):
        """The result at slack 0 (with lockstep) contains every rank's data."""

        def worker(rt):
            comm = Communicator(rt)
            result = comm.allreduce_ssp(np.full(16, 10.0 ** rt.rank), slack=0)
            comm.close()
            return result.value[0]

        values = spmd(4, worker)
        assert all(abs(v - 1111.0) < 1e-9 for v in values)


class TestStrictCallsNeverReadAhead:
    """A strict result folds this call's contributions, never the next one's.

    The plan-cached hypercube has no barrier between calls, so a partner
    may already be in call ``c + 1`` while this rank still reads call
    ``c``'s mailbox.  With one mailbox per step the partner's next
    contribution replaced the unread one (22-30 % of results on a 2-core
    box); with one per (step, clock parity) it cannot.
    """

    @pytest.mark.parametrize("backend", ["threaded", "shm"])
    @pytest.mark.parametrize("num_ranks", [2, 8])
    def test_back_to_back_strict_allreduce_is_exact(self, backend, num_ranks):
        from repro import run_backend

        calls, n = 2000, 24
        base = np.arange(n, dtype=np.float64)

        def worker(rt):
            comm = Communicator(rt)
            send, recv = np.empty(n), np.empty(n)
            wrong = 0
            tri = rt.size * (rt.size - 1) // 2
            for i in range(calls):
                np.add(base, rt.rank + i, out=send)  # per-call payload
                comm.allreduce(send, recv, algorithm="hypercube")
                wrong += not np.array_equal(recv, rt.size * (base + i) + tri)
            comm.close()
            return wrong

        assert run_backend(num_ranks, worker, backend=backend, timeout=120.0) == [
            0
        ] * num_ranks


class TestUnwrittenMailboxIsNotAContribution:
    """While ``clock <= slack`` a rank may run past a partner that has
    posted nothing yet; that mailbox (clock 0, zero-filled) must not be
    folded.  Zero is the identity of ``sum`` only: folded, it pins
    ``prod`` / ``min`` of positive values — and ``max`` of negative ones —
    to 0.
    """

    OPS = {"sum": np.add, "prod": np.multiply, "min": np.minimum, "max": np.maximum}

    @staticmethod
    def _contribution(op, rank):
        # Distinct and nonzero; negative for max so that a folded 0 would win.
        return float(-(2 + rank) if op == "max" else 2 + rank)

    @classmethod
    def _legal(cls, op, rank, size):
        """Folds of every subset of the ranks' contributions holding ``rank``'s."""
        values = {cls._contribution(op, rank)}
        for other in set(range(size)) - {rank}:
            theirs = cls._contribution(op, other)
            values |= {float(cls.OPS[op](v, theirs)) for v in values}
        return values

    @pytest.mark.parametrize("backend", ["threaded", "shm"])
    @pytest.mark.parametrize("num_ranks", [2, 4])
    def test_result_folds_only_posted_contributions(self, backend, num_ranks):
        import time

        from repro import ConsistencyPolicy, run_backend

        def worker(rt):
            comm = Communicator(rt)
            early = rt.rank == rt.size - 1
            illegal = []
            for op in self.OPS:
                x = np.full(4, self._contribution(op, rt.rank))
                legal = self._legal(op, rt.rank, rt.size)
                for slack in (1, 2):
                    # Stateful: the last rank runs its first ``slack`` calls
                    # before any peer has posted (it may: clock <= slack).
                    # Every rank makes the same number of calls, so the last
                    # call's freshness bound is met by the partners' last.
                    # The plan is compiled (a collective) on every rank first.
                    policy = ConsistencyPolicy.ssp(slack)
                    comm.persistent(
                        "allreduce", x, op=op, algorithm="hypercube", policy=policy
                    ).close()

                    def call(x=x, op=op, slack=slack):
                        return comm.allreduce_ssp(x, slack=slack, op=op).value

                    values = [call() for _ in range(slack if early else 0)]
                    rt.barrier()
                    values += [call() for _ in range(slack + 3 - len(values))]
                    # A shape of its own (a plan on fresh mailboxes, from
                    # clock 1): the peers arrive late so the last rank
                    # finds them empty.
                    y = x[:3]
                    for _ in range(2):
                        if not early:
                            time.sleep(0.005)
                        values.append(
                            comm.allreduce(y, op=op, policy=policy)
                        )
                    illegal += [
                        (op, slack, call, value.tolist())
                        for call, value in enumerate(values)
                        if not (float(value[0]) in legal and np.all(value == value[0]))
                    ]
            comm.close()
            return illegal

        assert run_backend(num_ranks, worker, backend=backend, timeout=120.0) == [
            []
        ] * num_ranks


class TestRecycledMailboxHoldsNoContribution:
    """The unwritten-mailbox scenario on pooled segments a previous lessee
    filled, under a pool scrub that drains notifications and leaves the
    bytes: a mailbox's clock must come from a consumed notification, never
    from bytes the SSP collective was not sent under its lease."""

    Unwritten = TestUnwrittenMailboxIsNotAContribution

    @staticmethod
    def _litter(pool, rt):
        """Lease a workspace of every size class up to 256 bytes, fill
        every byte as a previous lessee's payload would, and hand it back
        through two pool barriers: each class then has a free, dirty one."""
        classes = sorted({size_class(n) for n in range(1, 257)})
        ids = [pool.lease(nbytes, 64) for nbytes in classes]
        for segment_id in ids:
            rt.segment_view(segment_id, np.float64)[:] = 7.0
            pool.release(segment_id)
        for _ in range(2):
            pool._synchronise()

    @pytest.mark.parametrize("entry", ["allreduce_ssp", "allreduce"])
    @pytest.mark.parametrize("backend", ["threaded", "shm"])
    @pytest.mark.parametrize("num_ranks", [2, 4])
    def test_dirty_recycled_mailbox_is_not_a_contribution(
        self, entry, backend, num_ranks, monkeypatch
    ):
        import time

        from repro import ConsistencyPolicy, run_backend

        def drain_only(pool, segment_id, notification_ids):
            pool.runtime.notify_drain(segment_id, 0, notification_ids)

        monkeypatch.setattr(WorkspacePool, "_scrub", drain_only)
        unwritten = self.Unwritten

        def worker(rt):
            comm = Communicator(rt)
            pool = comm._pool
            early = rt.rank == rt.size - 1
            illegal = []
            for op, slack in ((op, slack) for op in unwritten.OPS for slack in (1, 2)):
                x = np.full(4, unwritten._contribution(op, rt.rank))
                legal = unwritten._legal(op, rt.rank, rt.size)
                self._litter(pool, rt)
                if entry == "allreduce":
                    # Peers arrive late, so the last rank finds empty boxes.
                    values = []
                    for _ in range(2):
                        if not early:
                            time.sleep(0.005)
                        policy = ConsistencyPolicy.ssp(slack)
                        values.append(comm.allreduce(x, op=op, policy=policy))
                else:
                    # The last rank runs its first ``slack`` calls before
                    # any peer has posted (it may: clock <= slack).
                    def call(x=x, op=op, slack=slack):
                        return comm.allreduce_ssp(x, slack=slack, op=op).value

                    values = [call() for _ in range(slack if early else 0)]
                    rt.barrier()
                    values += [call() for _ in range(slack + 3 - len(values))]
                illegal += [
                    (op, slack, n, value.tolist())
                    for n, value in enumerate(values)
                    if not (float(value[0]) in legal and np.all(value == value[0]))
                ]
            comm.close()
            return illegal

        assert run_backend(num_ranks, worker, backend=backend, timeout=120.0) == [
            []
        ] * num_ranks


class TestSlackPlanKeepsItsClock:
    """A slack plan is the SSP state, so a communicator plans it whatever
    its cache capacity or fault plan.  Run cold, every call would be a
    throwaway plan on empty mailboxes whose clock restarts at 1: no call
    would ever wait for, or fold, a partner's contribution."""

    CALLS, SLACK = 6, 2

    @pytest.mark.parametrize("entry", ["allreduce", "allreduce_ssp"])
    @pytest.mark.parametrize("setup", ["plan_cache_0", "loss_capable_faults"])
    @pytest.mark.parametrize("backend", ["threaded", "shm"])
    def test_partner_contribution_stays_within_slack(self, backend, setup, entry):
        from repro import ConsistencyPolicy, FaultPlan, run_backend

        slack = self.SLACK

        def worker(rt):
            if setup == "plan_cache_0":
                comm = Communicator(rt, plan_cache=0)
            else:  # a crash that never fires still makes the stack loss-capable
                comm = Communicator(rt, faults=FaultPlan(crash_at={1: 10**9}))
            partner = 1 - comm.rank
            stale = []
            for clock in range(1, self.CALLS + 1):
                x = np.full(4, 10.0 * clock + comm.rank)
                if entry == "allreduce":
                    value = comm.allreduce(x, policy=ConsistencyPolicy.ssp(slack))
                else:
                    value = comm.allreduce_ssp(x, slack=slack).value
                theirs = value - x
                call = (theirs[0] - partner) / 10
                fresh_enough = (
                    np.all(theirs == theirs[0])
                    and call == int(call)
                    and call >= clock - slack
                )
                if clock >= 3 and not fresh_enough:
                    stale.append((clock, value[0]))
                comm.barrier()
            comm.close()
            return stale

        assert run_backend(2, worker, backend=backend, timeout=120.0) == [[], []]
