import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from gmmood.errors import InsufficientDataError, ShapeError
from gmmood.gmm import (
    VARIANCE_FLOOR,
    ClassGMM,
    GMMClassifier,
    class_log_densities,
    class_posterior,
    em_fit,
    fit_classifier,
    load_classifier,
    logsumexp,
    predict,
    save_classifier,
)


def naive_log_density(z, gmm):
    """Linear-space mixture density; independent of the log-sum-exp path."""
    total = 0.0
    for w, mu, var in zip(gmm.weights, gmm.means, gmm.variances):
        comp = 1.0
        for zd, m, v in zip(z, mu, var):
            comp *= math.exp(-0.5 * (zd - m) ** 2 / v) / math.sqrt(2 * math.pi * v)
        total += w * comp
    return math.log(total)


def std_normal_1d(class_id=0, mean=0.0, var=1.0):
    return ClassGMM(class_id, [1.0], [[mean]], [[var]])


class TestLogSumExp:
    def test_matches_scipy_on_wide_ranges(self):
        from scipy.special import logsumexp as ref

        rng = np.random.default_rng(0)
        a = rng.normal(0.0, 1.0, (50, 3, 7)) * 10.0 ** rng.integers(-2, 12, (50, 1, 1))
        a[0, 1, 2] = -np.inf
        for axis in (0, 1, -1):
            for keepdims in (False, True):
                np.testing.assert_allclose(
                    logsumexp(a, axis=axis, keepdims=keepdims),
                    ref(a, axis=axis, keepdims=keepdims),
                    rtol=1e-14,
                )

    def test_all_minus_inf_slice_is_minus_inf(self):
        a = np.array([[-np.inf, -np.inf], [0.0, -np.inf]])
        with np.errstate(all="raise"):
            assert logsumexp(a, axis=1).tolist() == [-np.inf, 0.0]


class TestLogDensity:
    def test_standard_normal_at_zero(self):
        got = class_log_densities(np.array([0.0]), std_normal_1d())
        assert got == pytest.approx(-0.9189385332046727, abs=1e-12)

    def test_mixture_of_identical_components(self):
        gmm = ClassGMM(0, [0.5, 0.5], [[0.0], [0.0]], [[1.0], [1.0]])
        got = class_log_densities(np.array([0.0]), gmm)
        assert got == pytest.approx(-0.9189385332046727, abs=1e-12)

    def test_matches_naive_summation(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            k, d = 2, 3
            w = rng.random(k)
            w /= w.sum()
            w[-1] = 1.0 - w[:-1].sum()
            gmm = ClassGMM(0, w, rng.normal(size=(k, d)), rng.random((k, d)) + 0.2)
            z = rng.normal(size=d)
            assert class_log_densities(z, gmm) == pytest.approx(
                naive_log_density(z, gmm), rel=1e-10
            )

    def test_finite_for_extreme_inputs(self):
        gmm = std_normal_1d(var=VARIANCE_FLOOR)
        assert math.isfinite(class_log_densities(np.array([1e6]), gmm))

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            class_log_densities(np.zeros(3), std_normal_1d())

    def test_batch_matches_single(self):
        rng = np.random.default_rng(1)
        gmm = ClassGMM(0, [1.0], rng.normal(size=(1, 2)), rng.random((1, 2)) + 0.5)
        z = rng.normal(size=(7, 2))
        batch = class_log_densities(z, gmm)
        singles = [class_log_densities(zi, gmm) for zi in z]
        np.testing.assert_allclose(batch, singles, rtol=1e-12)


class TestClassPosterior:
    def test_identical_classes_split_evenly(self):
        model = GMMClassifier([std_normal_1d(0), std_normal_1d(1)])
        post = class_posterior(np.array([0.7]), model)
        np.testing.assert_allclose(post, [0.5, 0.5], atol=1e-12)

    def test_twenty_identical_classes(self):
        model = GMMClassifier([std_normal_1d(i) for i in range(20)])
        post = class_posterior(np.array([0.3]), model)
        np.testing.assert_allclose(post, np.full(20, 0.05), atol=1e-12)

    def test_midpoint_of_equal_variance_classes(self):
        model = GMMClassifier([std_normal_1d(0, mean=0.0), std_normal_1d(1, mean=4.0)])
        post = class_posterior(np.array([2.0]), model)
        np.testing.assert_allclose(post, [0.5, 0.5], atol=1e-12)

    def test_valid_probability_vector(self):
        rng = np.random.default_rng(2)
        model = GMMClassifier(
            [
                ClassGMM(i, [1.0], rng.normal(size=(1, 4)), rng.random((1, 4)) + 0.1)
                for i in range(5)
            ]
        )
        for _ in range(100):
            post = class_posterior(rng.normal(scale=10.0, size=4), model)
            assert np.all(post >= 0)
            assert post.sum() == pytest.approx(1.0, abs=1e-9)

    def test_constant_log_density_shift_is_invisible(self):
        # appending a dimension shared by all classes adds the same constant
        # to every class log-density at a fixed input
        rng = np.random.default_rng(3)
        base = [
            ClassGMM(i, [1.0], rng.normal(size=(1, 2)), rng.random((1, 2)) + 0.2)
            for i in range(3)
        ]
        extended = [
            ClassGMM(
                g.class_id,
                g.weights,
                np.hstack([g.means, [[0.7]]]),
                np.hstack([g.variances, [[2.0]]]),
            )
            for g in base
        ]
        z = rng.normal(size=2)
        z_ext = np.append(z, 1.3)
        post_a = class_posterior(z, GMMClassifier(base))
        post_b = class_posterior(z_ext, GMMClassifier(extended))
        np.testing.assert_allclose(post_a, post_b, rtol=1e-10)
        assert predict(z, GMMClassifier(base)) == predict(z_ext, GMMClassifier(extended))


class TestPredict:
    def setup_method(self):
        self.model = GMMClassifier(
            [std_normal_1d(0, mean=0.0), std_normal_1d(1, mean=4.0)]
        )

    def test_at_class_mean(self):
        assert predict(np.array([0.0]), self.model) == 0

    def test_tie_goes_to_lowest_id(self):
        tied = GMMClassifier([std_normal_1d(0), std_normal_1d(1)])
        assert predict(np.array([1.0]), tied) == 0

    def test_near_other_mean(self):
        assert predict(np.array([3.9]), self.model) == 1

    def test_class_ids_are_positions(self, tmp_path):
        """GMMC stores classes by position, so ids other than 0..C-1 are
        refused, and a saved model predicts the ids it did before."""
        with pytest.raises(ValueError, match="GMMC"):
            GMMClassifier([std_normal_1d(0), std_normal_1d(5, mean=4.0)])
        with pytest.raises(ValueError, match="GMMC"):
            GMMClassifier([std_normal_1d(1), std_normal_1d(0, mean=4.0)])
        rng = np.random.default_rng(6)
        model, _ = fit_classifier([rng.normal(4.0 * c, 1.0, (50, 2)) for c in range(3)], 1)
        save_classifier(model, tmp_path / "model.gmmc")
        z = rng.normal(4.0, 4.0, (40, 2))
        before = predict(z, model)
        assert set(before) == {0, 1, 2}
        np.testing.assert_array_equal(predict(z, load_classifier(tmp_path / "model.gmmc")), before)


class TestEMFit:
    def test_single_component_closed_form(self):
        rng = np.random.default_rng(4)
        x = rng.normal(loc=2.0, scale=1.5, size=(200, 2))
        gmm, stats = em_fit(x, 1, seed=0)
        np.testing.assert_allclose(gmm.weights, [1.0])
        np.testing.assert_allclose(gmm.means[0], x.mean(axis=0), rtol=1e-8)
        np.testing.assert_allclose(gmm.variances[0], x.var(axis=0), rtol=1e-8)
        assert stats.counts[0] == pytest.approx(200.0)

    def test_two_cluster_recovery(self):
        rng = np.random.default_rng(5)
        x = np.concatenate(
            [
                rng.normal(0.0, 0.5, size=(500, 1)),
                rng.normal(10.0, 0.5, size=(500, 1)),
            ]
        )
        gmm, _ = em_fit(x, 2, seed=1)
        means = np.sort(gmm.means[:, 0])
        assert abs(means[0] - 0.0) < 0.1
        assert abs(means[1] - 10.0) < 0.1
        np.testing.assert_allclose(gmm.weights, [0.5, 0.5], atol=0.05)

    def test_identical_points_hit_variance_floor(self):
        x = np.ones((50, 3))
        gmm, stats = em_fit(x, 2, seed=2)
        assert np.all(np.isfinite(gmm.means))
        assert np.all(np.isfinite(gmm.variances))
        assert np.all(gmm.variances >= VARIANCE_FLOOR)
        assert np.all(np.isfinite(stats.sq_devs))

    def test_insufficient_data(self):
        with pytest.raises(InsufficientDataError):
            em_fit(np.zeros((1, 2)), 2)

    @pytest.mark.parametrize("k, max_iters", [(0, 100), (2, 0)])
    def test_counts_below_one_raise_value_error(self, k, max_iters):
        with pytest.raises(ValueError, match="must be at least 1"):
            em_fit(np.zeros((10, 2)), k, max_iters=max_iters)

    def test_monotone_log_likelihood(self):
        rng = np.random.default_rng(6)
        for seed in range(5):
            x = rng.normal(size=(300, 3)) + rng.normal(scale=3.0, size=(1, 3))
            _, stats = em_fit(x, 3, seed=seed)
            ll = stats.log_likelihoods
            slack = 1e-8 * np.maximum(1.0, np.abs(ll[:-1]))
            assert np.all(np.diff(ll) >= -slack)

    def test_log_likelihood_decrease_raises_under_optimize(self):
        """The monotonicity check is an explicit raise, so it also holds
        under ``python -O``, which strips ``assert`` statements."""
        import gmmood

        script = textwrap.dedent(
            """
            import numpy as np
            from gmmood import gmm
            from gmmood.errors import ConvergenceError

            real_e_step = gmm._e_step
            calls = []

            def shrinking_e_step(*args):
                resp, log_p = real_e_step(*args)
                calls.append(None)
                return resp, log_p - len(calls)

            gmm._e_step = shrinking_e_step
            x = np.random.default_rng(0).normal(size=(200, 2))
            try:
                gmm.em_fit(x, 2, max_iters=10, tol=0.0)
            except ConvergenceError as exc:
                print("raised:", exc)
            """
        )
        env = dict(os.environ, PYTHONPATH=str(Path(gmmood.__file__).parents[1]))
        done = subprocess.run(
            [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True
        )
        assert done.returncode == 0, done.stderr
        assert "raised: EM log-likelihood decreased" in done.stdout

    def test_stats_shapes_and_mass(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(120, 2))
        gmm, stats = em_fit(x, 2, seed=3)
        assert stats.counts.shape == (2,)
        assert stats.means.shape == (2, 2)
        assert stats.sq_devs.shape == (2, 2)
        assert stats.counts.sum() == pytest.approx(120.0)
        assert np.all(stats.counts >= 0)
        assert np.all(stats.sq_devs >= 0)
