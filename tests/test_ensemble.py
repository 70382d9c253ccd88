import math

import numpy as np
import pytest

from gmmood.ensemble import (
    VoteRecord,
    decompose_uncertainty,
    majority_class,
    score_feature_map,
    score_samples,
    vote,
    vote_entropy,
)
from gmmood.errors import ShapeError
from gmmood.formats import FeatureMap
from gmmood.gmm import GMMClassifier, class_log_densities, class_posterior, em_fit
from gmmood.nig import DEFAULT_PRIOR, GMMParameterSample, build_bank, sample_ensemble


def member(means, variances=None, weights=None):
    """Two-class, D=1, K=1 parameter sample from per-class scalar means."""
    c = len(means)
    means = np.asarray(means, float).reshape(c, 1, 1)
    if variances is None:
        variances = np.ones_like(means)
    else:
        variances = np.asarray(variances, float).reshape(c, 1, 1)
    if weights is None:
        weights = np.ones((c, 1))
    return GMMParameterSample(means, variances, weights)


def fitted_setup(seed=0, n_classes=3, d=2, n=200, k=2):
    rng = np.random.default_rng(seed)
    classes, stats = [], []
    for ci in range(n_classes):
        x = rng.normal(loc=3.0 * ci, scale=0.7, size=(n, d))
        gmm, st = em_fit(x, k, seed=ci, class_id=ci)
        classes.append(gmm)
        stats.append(st)
    model = GMMClassifier(classes)
    bank = build_bank(model, stats, DEFAULT_PRIOR)
    return model, sample_ensemble(bank, 8, rng_seed=seed)


class TestVote:
    def test_identical_members_are_unanimous(self):
        members = [member([0.0, 4.0]) for _ in range(20)]
        record = vote(np.array([0.5]), members)
        assert record.counts.tolist() == [20, 0]

    def test_singleton_ensemble(self):
        record = vote(np.array([3.8]), [member([0.0, 4.0])])
        assert record.n == 1
        assert record.counts.tolist() == [0, 1]

    def test_tallies_match_member_reclassification(self):
        model, members = fitted_setup(seed=3)
        rng = np.random.default_rng(4)
        for _ in range(10):
            z = rng.normal(loc=1.5, scale=2.0, size=2)
            record = vote(z, members)
            recount = np.zeros(model.num_classes, dtype=int)
            for m in members:
                recount[int(np.argmax(class_log_densities(z, m)))] += 1
            assert record.counts.tolist() == recount.tolist()

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            vote(np.zeros(3), [member([0.0, 4.0])])


class TestMajorityClass:
    def test_plain_majority(self):
        assert majority_class(VoteRecord([3, 17])) == 1

    def test_tie_breaks_low(self):
        assert majority_class(VoteRecord([10, 10])) == 0

    def test_tie_among_maxima(self):
        assert majority_class(VoteRecord([7, 6, 7])) == 0


class TestVoteEntropy:
    def test_unanimous_is_zero(self):
        assert vote_entropy(VoteRecord([20, 0, 0])) == 0.0

    def test_uniform_twenty_classes(self):
        record = VoteRecord(np.ones(20, dtype=int))
        assert vote_entropy(record) == pytest.approx(2.995732273553991, abs=1e-6)

    def test_fifteen_five(self):
        assert vote_entropy(VoteRecord([15, 5])) == pytest.approx(
            0.5623351446188083, abs=1e-6
        )

    def test_bounds(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            c = rng.integers(2, 12)
            counts = rng.integers(0, 30, size=c)
            if counts.sum() == 0:
                counts[0] = 1
            h = vote_entropy(VoteRecord(counts))
            assert -1e-12 <= h <= math.log(c) + 1e-12


class TestDecompose:
    def test_singleton_has_zero_mi(self):
        got = decompose_uncertainty(np.array([1.0]), [member([0.0, 4.0])])
        assert got.mutual_information == 0.0
        assert got.predictive_entropy == pytest.approx(got.aleatoric, abs=1e-12)

    def test_identical_members_have_zero_mi(self):
        members = [member([0.0, 2.0]) for _ in range(6)]
        got = decompose_uncertainty(np.array([0.8]), members)
        assert got.mutual_information == pytest.approx(0.0, abs=1e-12)
        post = np.exp(-0.5 * np.array([(0.8 - 0.0) ** 2, (0.8 - 2.0) ** 2]))
        post /= post.sum()
        expect = -(post * np.log(post)).sum()
        assert got.predictive_entropy == pytest.approx(expect, rel=1e-10)

    def test_three_member_hand_case(self):
        # members with posteriors (0.9, 0.1), (0.5, 0.5), (0.1, 0.9) at z = 0:
        # equal unit variances so the log-density gap is t^2/2 = ln 9
        t = math.sqrt(2.0 * math.log(9.0))
        members = [member([0.0, t]), member([0.3, 0.3]), member([t, 0.0])]
        got = decompose_uncertainty(np.array([0.0]), members)
        assert got.predictive_entropy == pytest.approx(math.log(2.0), abs=1e-9)
        h_soft = -(0.9 * math.log(0.9) + 0.1 * math.log(0.1))
        aleatoric = (2.0 * h_soft + math.log(2.0)) / 3.0
        assert got.aleatoric == pytest.approx(aleatoric, abs=1e-9)
        assert got.mutual_information == pytest.approx(0.24537613811233137, abs=1e-9)

    def test_mi_bounds(self):
        model, members = fitted_setup(seed=6)
        rng = np.random.default_rng(7)
        for _ in range(50):
            z = rng.normal(scale=4.0, size=2)
            got = decompose_uncertainty(z, members)
            assert got.mutual_information >= 0.0
            assert got.mutual_information <= got.predictive_entropy + 1e-12
            assert got.predictive_entropy <= math.log(model.num_classes) + 1e-9
            assert got.aleatoric <= math.log(model.num_classes) + 1e-9


class TestInvariances:
    def test_member_order_does_not_matter(self):
        model, members = fitted_setup(seed=8)
        rng = np.random.default_rng(9)
        z = rng.normal(size=(30, 2))
        forward = score_samples(z, model, members)
        backward = score_samples(z, model, members[::-1])
        # votes are integers, so predictions and epistemic scores are exact;
        # the float accumulators only move at machine precision
        np.testing.assert_array_equal(forward.predicted_class, backward.predicted_class)
        np.testing.assert_array_equal(forward.vote_counts, backward.vote_counts)
        np.testing.assert_array_equal(forward.epistemic, backward.epistemic)
        np.testing.assert_allclose(
            forward.predictive_entropy, backward.predictive_entropy,
            rtol=1e-9, atol=1e-12,
        )
        np.testing.assert_allclose(
            forward.aleatoric, backward.aleatoric, rtol=1e-9, atol=1e-12
        )

    def test_common_density_scaling_is_invisible(self):
        # an extra feature dimension shared by every class multiplies all
        # class densities at a point by the same constant
        rng = np.random.default_rng(10)
        base = [member([0.0, 3.0]), member([0.5, 2.5]), member([1.0, 2.0])]
        extended = []
        for m in base:
            extended.append(
                GMMParameterSample(
                    np.concatenate([m.means, np.full((2, 1, 1), 0.7)], axis=2),
                    np.concatenate([m.variances, np.full((2, 1, 1), 2.0)], axis=2),
                    m.weights,
                )
            )
        for zv in rng.normal(scale=2.0, size=5):
            z = np.array([zv])
            z_ext = np.array([zv, 1.3])
            rec_a, rec_b = vote(z, base), vote(z_ext, extended)
            assert rec_a.counts.tolist() == rec_b.counts.tolist()
            dec_a = decompose_uncertainty(z, base)
            dec_b = decompose_uncertainty(z_ext, extended)
            assert dec_a.predictive_entropy == pytest.approx(
                dec_b.predictive_entropy, rel=1e-10
            )
            assert dec_a.aleatoric == pytest.approx(dec_b.aleatoric, rel=1e-10)


class TestScoreFeatureMap:
    def test_all_invalid_map(self):
        model, members = fitted_setup(seed=11)
        fmap = FeatureMap(np.zeros((3, 4, 2), np.float32), np.zeros((3, 4), bool))
        umap = score_feature_map(fmap, model, members)
        assert not umap.valid.any()
        assert np.all(umap.predicted_class == -1)
        assert np.all(np.isnan(umap.epistemic))

    def test_single_pixel_composition(self):
        model, members = fitted_setup(seed=12)
        z = np.array([0.4, 1.1], np.float32)
        fmap = FeatureMap(z.reshape(1, 1, 2), np.ones((1, 1), bool))
        umap = score_feature_map(fmap, model, members)
        px = umap.at(0, 0)
        record = vote(z.astype(float), members)
        dec = decompose_uncertainty(z.astype(float), members)
        assert px.predicted_class == majority_class(record)
        assert px.epistemic == pytest.approx(vote_entropy(record), rel=1e-12)
        assert px.predictive_entropy == pytest.approx(dec.predictive_entropy, rel=1e-12)
        assert px.aleatoric == pytest.approx(dec.aleatoric, rel=1e-12)
        post = class_posterior(z.astype(float), model)
        assert px.max_posterior == pytest.approx(post.max(), rel=1e-12)

    def test_grid_matches_per_pixel_ops(self):
        model, members = fitted_setup(seed=13)
        rng = np.random.default_rng(14)
        values = rng.normal(loc=2.0, scale=2.5, size=(8, 8, 2)).astype(np.float32)
        valid = rng.random((8, 8)) > 0.2
        umap = score_feature_map(FeatureMap(values, valid), model, members)
        for r in range(8):
            for c in range(8):
                if not valid[r, c]:
                    assert umap.predicted_class[r, c] == -1
                    continue
                z = values[r, c].astype(float)
                record = vote(z, members)
                dec = decompose_uncertainty(z, members)
                assert umap.predicted_class[r, c] == majority_class(record)
                assert umap.epistemic[r, c] == pytest.approx(
                    vote_entropy(record), rel=1e-10
                )
                assert umap.mutual_information[r, c] == pytest.approx(
                    dec.mutual_information, rel=1e-10, abs=1e-12
                )

    def test_dimension_mismatch(self):
        model, members = fitted_setup(seed=15)
        fmap = FeatureMap(np.zeros((2, 2, 5), np.float32), np.ones((2, 2), bool))
        with pytest.raises(ShapeError):
            score_feature_map(fmap, model, members)

    def test_majority_matches_mode_of_votes(self):
        model, members = fitted_setup(seed=16)
        rng = np.random.default_rng(17)
        z = rng.normal(loc=3.0, scale=3.0, size=(40, 2))
        scores = score_samples(z, model, members)
        for i in range(z.shape[0]):
            assert scores.predicted_class[i] == majority_class(
                VoteRecord(scores.vote_counts[i])
            )
