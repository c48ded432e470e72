import numpy as np
import pytest

from vibrosense.augment import (
    K_NEIGHBORS,
    aggregate_rpms,
    augmented_training_set,
    interpolate_within_rpm,
)
from vibrosense.core import ContractError, make_rng


def dataset(n, seed=0, width=2):
    rng = make_rng(seed)
    feats = rng.normal(size=(n, width))
    labels = np.arange(n) % 3
    return feats, labels


class TestAggregate:
    def test_two_rpms_pool_every_given_row(self):
        per_rpm = {300: dataset(60, 1), 200: dataset(100, 0)}
        feats, labels = aggregate_rpms(per_rpm)
        assert labels.size == 160  # the given sets whole, not split again
        # in speed order, each speed's rows as given
        assert np.array_equal(feats, np.concatenate([per_rpm[200][0], per_rpm[300][0]]))
        assert np.array_equal(labels, np.concatenate([per_rpm[200][1], per_rpm[300][1]]))

    def test_schema_mismatch(self):
        per_rpm = {200: dataset(20, 0, width=2), 300: dataset(20, 1, width=3)}
        with pytest.raises(ContractError, match="schema mismatch"):
            aggregate_rpms(per_rpm)

    @pytest.mark.parametrize("pool", [aggregate_rpms,
                                      lambda per_rpm: augmented_training_set(per_rpm, 5)])
    @pytest.mark.parametrize("labels", [np.zeros(19, dtype=int), np.zeros(21, dtype=int),
                                        np.zeros((20, 1), dtype=int)])
    def test_labels_not_row_parallel(self, pool, labels):
        per_rpm = {200: dataset(20, 0), 300: (dataset(20, 1)[0], labels)}
        with pytest.raises(ContractError, match="rpm 300: .* not row-parallel with 20 feature rows"):
            pool(per_rpm)

    def test_needs_two(self):
        with pytest.raises(ContractError):
            aggregate_rpms({200: dataset(20)})


class TestInterpolation:
    def test_midpoint_hand_case(self):
        feats = np.array([[1.0, 2.0], [3.0, 4.0]])
        labels = np.array([0, 0])
        new_f, new_l = interpolate_within_rpm(feats, labels, 200, seed=0)
        # every interpolant is alpha*a + (1-alpha)*b, so it lies on the segment
        # between the two samples; its coordinates satisfy y = x + 1
        assert np.allclose(new_f[:, 1], new_f[:, 0] + 1.0)
        assert new_f[:, 0].min() >= 1.0 and new_f[:, 0].max() <= 3.0
        assert np.all(new_l == 0)

    def test_labels_inherited(self):
        feats = np.array([[0.0], [1.0], [10.0], [11.0]])
        labels = np.array([0, 0, 2, 2])
        new_f, new_l = interpolate_within_rpm(feats, labels, 100, seed=1)
        # class-0 interpolants stay in [0, 1], class-2 in [10, 11]
        assert np.all((new_f[new_l == 0] >= 0.0) & (new_f[new_l == 0] <= 1.0))
        assert np.all((new_f[new_l == 2] >= 10.0) & (new_f[new_l == 2] <= 11.0))
        assert set(np.unique(new_l)) == {0, 2}

    def test_singleton_class_excluded(self):
        feats = np.array([[0.0], [1.0], [5.0]])
        labels = np.array([0, 0, 1])  # class 1 has a single sample
        new_f, new_l = interpolate_within_rpm(feats, labels, 50, seed=2)
        assert np.all(new_l == 0)

    def test_no_eligible_class(self):
        with pytest.raises(ContractError, match=">= 2 samples"):
            interpolate_within_rpm(np.array([[0.0], [1.0]]), np.array([0, 1]), 10)

    def test_deterministic(self):
        feats, labels = dataset(30, 4)
        a = interpolate_within_rpm(feats, labels, 25, seed=9)
        b = interpolate_within_rpm(feats, labels, 25, seed=9)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_neighbor_pool(self):
        # partner must come from the K_NEIGHBORS nearest same-label neighbors
        feats = np.concatenate([np.zeros((6, 1)), np.full((1, 1), 100.0)])
        labels = np.zeros(7, dtype=int)
        new_f, _ = interpolate_within_rpm(feats, labels, 200, seed=0)
        # the far-away sample can only appear when it is itself the anchor
        assert np.mean(new_f > 1.0) < 0.5

    def test_partner_excludes_neighbors_beyond_k(self):
        # K_NEIGHBORS + 1 equal points and one far point: a near anchor's
        # K_NEIGHBORS nearest are all near, so only a far anchor (1 in
        # K_NEIGHBORS + 2) gives a nonzero interpolant; a partner drawn from
        # one neighbor more would double that share
        n_near = K_NEIGHBORS + 1
        feats = np.concatenate([np.zeros((n_near, 1)), np.full((1, 1), 100.0)])
        labels = np.zeros(n_near + 1, dtype=int)
        new_f, _ = interpolate_within_rpm(feats, labels, 2000, seed=0)
        share = np.mean(new_f > 0.0)
        assert 0.5 / (n_near + 1) < share < 1.5 / (n_near + 1)


class TestAugmentedTrainingSet:
    def test_counts(self):
        per_rpm = {200: dataset(100, 0), 300: dataset(100, 1)}
        feats, labels = augmented_training_set(per_rpm, n_new_per_rpm=50)
        assert feats.shape == (200 + 100, 2) and labels.shape == (200 + 100,)

    def test_zero_interpolants(self):
        per_rpm = {200: dataset(50, 0), 300: dataset(50, 1)}
        feats, labels = augmented_training_set(per_rpm, n_new_per_rpm=0)
        assert labels.size == 100

    def test_pools_in_speed_order_then_interpolates_each_speed_at_seed_plus_rpm(self):
        per_rpm = {300: dataset(40, 1), 100: dataset(30, 0), 200: dataset(50, 2)}
        feats, labels = augmented_training_set(per_rpm, n_new_per_rpm=7, seed=11)
        rpms = [100, 200, 300]
        new = [interpolate_within_rpm(*per_rpm[rpm], 7, seed=11 + rpm) for rpm in rpms]
        assert np.array_equal(feats, np.concatenate([per_rpm[r][0] for r in rpms] +
                                                    [f for f, _ in new]))
        assert np.array_equal(labels, np.concatenate([per_rpm[r][1] for r in rpms] +
                                                     [l for _, l in new]))
