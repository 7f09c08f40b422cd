"""Tests of the ML workload: datasets, MF model, distributed SGD."""

import numpy as np
import pytest

from repro.ml import (
    DistributedSGDConfig,
    MatrixFactorizationModel,
    iterations_to_target,
    movielens_like,
    rmse,
    run_distributed_sgd,
    run_slack_sweep,
    synthetic_ratings,
    time_to_target,
    train_test_split,
)


class TestDatasets:
    def test_synthetic_shape_and_range(self):
        ds = synthetic_ratings(num_users=100, num_items=50, num_ratings=2000, seed=1)
        assert ds.num_users == 100 and ds.num_items == 50
        assert ds.num_ratings <= 2000
        assert np.all(ds.ratings >= 0.5) and np.all(ds.ratings <= 5.0)
        assert ds.users.max() < 100 and ds.items.max() < 50
        assert 0.0 < ds.density <= 1.0

    def test_deterministic_for_seed(self):
        a = synthetic_ratings(seed=3)
        b = synthetic_ratings(seed=3)
        c = synthetic_ratings(seed=4)
        assert np.array_equal(a.ratings, b.ratings)
        assert not np.array_equal(a.ratings, c.ratings)

    def test_no_duplicate_pairs(self):
        ds = synthetic_ratings(num_users=30, num_items=20, num_ratings=500, seed=0)
        keys = ds.users.astype(np.int64) * ds.num_items + ds.items
        assert len(np.unique(keys)) == len(keys)

    def test_sharding_partitions_all_ratings(self):
        ds = movielens_like("small")
        shards = [ds.shard(4, i) for i in range(4)]
        assert sum(s.num_ratings for s in shards) == ds.num_ratings
        assert abs(shards[0].num_ratings - shards[3].num_ratings) <= 1

    def test_presets(self):
        small = movielens_like("small")
        medium = movielens_like("medium")
        assert medium.num_ratings > small.num_ratings
        with pytest.raises(ValueError):
            movielens_like("huge")

    def test_train_test_split(self):
        ds = movielens_like("small")
        train, test = train_test_split(ds, test_fraction=0.2, seed=1)
        assert train.num_ratings + test.num_ratings == ds.num_ratings
        assert test.num_ratings == pytest.approx(0.2 * ds.num_ratings, rel=0.05)


class TestMatrixFactorizationModel:
    def test_flat_roundtrip(self):
        model = MatrixFactorizationModel.initialize(10, 6, 4, seed=0)
        flat = model.get_flat()
        assert flat.size == model.num_parameters == 10 * 4 + 6 * 4
        clone = MatrixFactorizationModel.initialize(10, 6, 4, seed=99)
        clone.set_flat(flat)
        assert np.allclose(clone.user_factors, model.user_factors)
        assert np.allclose(clone.item_factors, model.item_factors)

    def test_same_seed_same_model(self):
        a = MatrixFactorizationModel.initialize(8, 8, 4, seed=5)
        b = MatrixFactorizationModel.initialize(8, 8, 4, seed=5)
        assert np.array_equal(a.get_flat(), b.get_flat())

    def test_gradient_matches_finite_differences(self):
        ds = synthetic_ratings(num_users=12, num_items=8, num_ratings=60, seed=2)
        model = MatrixFactorizationModel.initialize(12, 8, 3, seed=1, regularization=0.0)
        grad = model.gradient_flat(ds)
        flat = model.get_flat()
        eps = 1e-6
        rng = np.random.default_rng(0)
        for idx in rng.choice(flat.size, size=6, replace=False):
            probe = model.copy()
            plus = flat.copy()
            plus[idx] += eps
            probe.set_flat(plus)
            loss_plus = np.mean(
                (probe.predict(ds.users, ds.items) - ds.ratings) ** 2
            )
            minus = flat.copy()
            minus[idx] -= eps
            probe.set_flat(minus)
            loss_minus = np.mean(
                (probe.predict(ds.users, ds.items) - ds.ratings) ** 2
            )
            numeric = (loss_plus - loss_minus) / (2 * eps)
            assert grad[idx] == pytest.approx(numeric, rel=1e-3, abs=1e-6)

    def test_gradient_descent_reduces_rmse(self):
        ds = movielens_like("small", seed=0)
        model = MatrixFactorizationModel.initialize(ds.num_users, ds.num_items, 8, seed=0)
        before = model.rmse(ds)
        for _ in range(30):
            model.apply_update(model.gradient_flat(ds), learning_rate=10.0)
        assert model.rmse(ds) < before * 0.8

    def test_empty_shard_gradient_is_regularisation_only(self):
        ds = synthetic_ratings(num_users=10, num_items=5, num_ratings=20, seed=0)
        empty = ds.subset(np.array([], dtype=int))
        model = MatrixFactorizationModel.initialize(10, 5, 2, seed=0)
        grad = model.gradient_flat(empty)
        assert np.all(grad == 0.0)

    def test_shape_validation(self):
        model = MatrixFactorizationModel.initialize(4, 4, 2)
        with pytest.raises(ValueError):
            model.set_flat(np.zeros(3))
        with pytest.raises(ValueError):
            model.apply_update(np.zeros(3), 0.1)


class TestMetrics:
    def test_rmse(self):
        assert rmse(np.array([1.0, 2.0]), np.array([1.0, 4.0])) == pytest.approx(np.sqrt(2.0))
        with pytest.raises(ValueError):
            rmse(np.zeros(2), np.zeros(3))

    def test_time_and_iterations_to_target(self):
        times = [1.0, 2.0, 3.0]
        errors = [0.9, 0.5, 0.2]
        assert time_to_target(times, errors, 0.5) == 2.0
        assert time_to_target(times, errors, 0.1) is None
        assert iterations_to_target(errors, 0.5) == 2


class TestDistributedSGD:
    def test_single_worker_matches_serial(self):
        ds = movielens_like("small", seed=0)
        config = DistributedSGDConfig(
            num_workers=1, iterations=10, base_compute_time=0.0, perturbation="none", seed=0
        )
        results = run_distributed_sgd(ds, config)
        serial = MatrixFactorizationModel.initialize(ds.num_users, ds.num_items, 8, seed=0)
        for _ in range(10):
            serial.apply_update(serial.gradient_flat(ds), config.learning_rate)
        assert results[0].final_rmse == pytest.approx(serial.rmse(ds), rel=1e-9)

    def test_ssp_and_ring_converge(self):
        ds = movielens_like("small", seed=0)
        initial = MatrixFactorizationModel.initialize(ds.num_users, ds.num_items, 8, seed=0).rmse(ds)
        for algorithm in ("ssp", "ring"):
            config = DistributedSGDConfig(
                num_workers=4,
                iterations=12,
                algorithm=algorithm,
                slack=1,
                base_compute_time=0.0005,
                perturbation="none",
                seed=0,
            )
            results = run_distributed_sgd(ds, config)
            assert len(results) == 4
            assert results[0].final_rmse < initial
            assert all(len(w.records) == 12 for w in results)

    def test_staleness_bounded_by_slack(self):
        ds = movielens_like("small", seed=0)
        config = DistributedSGDConfig(
            num_workers=4,
            iterations=10,
            slack=2,
            base_compute_time=0.001,
            perturbation="linear:1.7",
            seed=0,
        )
        results = run_distributed_sgd(ds, config)
        for w in results:
            assert w.staleness.max_staleness <= 2

    def test_rates_count_iterations_not_records(self):
        # record_every thins the records, not the training: 12 iterations
        # leave records at 5, 10 and the final 12, and the rate is 12 / time.
        ds = movielens_like("small", seed=0)
        config = DistributedSGDConfig(
            num_workers=2,
            iterations=12,
            record_every=5,
            base_compute_time=0.0,
            perturbation="none",
            seed=0,
        )
        results = run_distributed_sgd(ds, config)
        for w in results:
            assert [r.iteration for r in w.records] == [5, 10, 12]
            assert w.iterations == 12
            assert w.iterations_per_second == pytest.approx(12 / w.total_time)
        entry = run_slack_sweep(ds, [0], config)[0]
        rates = [w.iterations_per_second for w in entry.worker_results]
        assert entry.mean_iterations_per_second == pytest.approx(sum(rates) / len(rates))
        assert all(w.iterations == 12 for w in entry.worker_results)

    def test_bsp_baseline_compiles_its_ring_once(self, monkeypatch):
        """The ring baseline is a cached plan: one segment per rank for the
        whole run, not a create (and its barrier) every iteration."""
        from repro.gaspi.threaded import ThreadedRuntime

        creates = []
        create = ThreadedRuntime.segment_create

        def counting(self, *args, **kwargs):
            creates.append(self.rank)
            return create(self, *args, **kwargs)

        monkeypatch.setattr(ThreadedRuntime, "segment_create", counting)
        config = DistributedSGDConfig(
            num_workers=2,
            iterations=10,
            algorithm="ring",
            base_compute_time=0.0,
            perturbation="none",
            seed=0,
        )
        results = run_distributed_sgd(movielens_like("small", seed=0), config)
        assert sorted(creates) == [0, 1]
        assert results[0].final_rmse == results[1].final_rmse

    def test_strict_ssp_is_identical_across_workers_and_times_its_waits(self):
        """Slack 0 folds every partner's fresh gradient in one fixed order,
        so every worker holds the same model; the straggler's partners
        spend time blocked on it, and that is their wait time."""
        config = DistributedSGDConfig(
            num_workers=4,
            iterations=10,
            slack=0,
            base_compute_time=0.002,
            perturbation="straggler:3:3.0",
            seed=0,
        )
        results = run_distributed_sgd(movielens_like("small", seed=0), config)
        assert len({w.final_rmse for w in results}) == 1
        assert all(w.total_wait_time > 0.0 for w in results[:3])
        assert all(w.staleness.max_staleness == 0 for w in results)

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            DistributedSGDConfig(algorithm="bsp")
        with pytest.raises(ValueError):
            DistributedSGDConfig(num_workers=0)

    def test_slack_sweep_reports_all_requested_slacks(self):
        ds = movielens_like("small", seed=0)
        config = DistributedSGDConfig(
            num_workers=4,
            iterations=8,
            base_compute_time=0.001,
            perturbation="linear:1.8",
            seed=0,
        )
        sweep = run_slack_sweep(ds, [0, 2], config)
        assert set(sweep) == {0, 2}
        for entry in sweep.values():
            assert entry.mean_iterations_per_second > 0
            assert entry.final_rmse > 0
        # with a straggler profile, slack must not slow iterations down
        assert (
            sweep[2].mean_iterations_per_second
            >= sweep[0].mean_iterations_per_second * 0.9
        )


class TestOverlappingGradientExchange:
    """The ring_overlap algorithm: bucketed nonblocking gradient allreduce."""

    def test_ring_overlap_trains_like_ring(self):
        from repro.ml.sgd import DistributedSGDConfig, run_distributed_sgd

        ds = synthetic_ratings(num_users=40, num_items=25, num_ratings=600, seed=2)
        base = dict(
            num_workers=4,
            iterations=4,
            base_compute_time=0.0,
            perturbation="none",
            seed=5,
        )
        ring = run_distributed_sgd(ds, DistributedSGDConfig(algorithm="ring", **base))
        overlap = run_distributed_sgd(
            ds,
            DistributedSGDConfig(algorithm="ring_overlap", overlap_buckets=3, **base),
        )
        # The exchange sums the same gradients (bucketed, possibly
        # different fold orders within the ring) -> same training result
        # up to floating-point round-off.
        assert overlap[0].final_rmse == pytest.approx(ring[0].final_rmse, rel=1e-9)
        for r, o in zip(ring, overlap):
            assert len(r.records) == len(o.records)

    def test_overlap_demo_runs_and_matches(self):
        from repro.ml.sgd import run_overlap_demo

        result = run_overlap_demo(
            num_workers=2,
            buckets=3,
            bucket_elements=512,
            compute_time=0.002,
            iterations=2,
        )
        assert result.blocking_seconds > 0
        assert result.overlapped_seconds > 0
        assert result.results_match  # bit-identical reduced gradients
