import math
import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from gmmood import _blas
from gmmood import gmm as gmm_mod
from gmmood.errors import ConvergenceError, InsufficientDataError, ShapeError
from gmmood.gmm import (
    VARIANCE_FLOOR,
    GMMClassifier,
    class_log_densities,
    class_posterior,
    classifier_to_bytes,
    em_fit,
    fit_classifier,
    load_classifier,
    logsumexp,
    predict,
    save_classifier,
)
from gmmood.nig import DEFAULT_PRIOR, bank_to_bytes, build_bank
from gmmood.synth import SynthConfig, generate, run_benchmark
from oracles import assert_same_bytes


def naive_log_density(z, gmm):
    """Linear-space density of a one-class mixture; independent of the
    log-sum-exp path."""
    total = 0.0
    for w, mu, var in zip(gmm.weights[0], gmm.means[0], gmm.variances[0]):
        comp = 1.0
        for zd, m, v in zip(z, mu, var):
            comp *= math.exp(-0.5 * (zd - m) ** 2 / v) / math.sqrt(2 * math.pi * v)
        total += w * comp
    return math.log(total)


def std_normal_1d(var=1.0):
    return GMMClassifier([[1.0]], [[[0.0]]], [[[var]]])


def one_component_classes(means, variances=None):
    """A classifier of one-component classes: (C, D) ``means`` and
    ``variances``, by default all 1."""
    means = np.asarray(means, dtype=float)
    variances = np.ones(means.shape) if variances is None else np.asarray(variances)
    return GMMClassifier(np.ones((len(means), 1)), means[:, None], variances[:, None])


class TestLogSumExp:
    def test_matches_scipy_on_wide_ranges(self):
        from scipy.special import logsumexp as ref

        rng = np.random.default_rng(0)
        a = rng.normal(0.0, 1.0, (50, 3, 7)) * 10.0 ** rng.integers(-2, 12, (50, 1, 1))
        a[0, 1, 2] = -np.inf
        for axis in (0, 1, -1):
            np.testing.assert_allclose(logsumexp(a, axis=axis), ref(a, axis=axis), rtol=1e-14)

    def test_all_minus_inf_slice_is_minus_inf(self):
        a = np.array([[-np.inf, -np.inf], [0.0, -np.inf]])
        with np.errstate(all="raise"):
            assert logsumexp(a, axis=1).tolist() == [-np.inf, 0.0]


@pytest.mark.parametrize("shape", [(6,), (2, 3)])
def test_log_weights_match_the_masked_reference_bit_for_bit(shape):
    """``_log_weights`` is ``np.where(w > 0, np.log(np.maximum(w, 1e-300)),
    -np.inf)`` bit for bit, subnormal weights and exact zeros included;
    warnings are errors here, so it raises no divide warning either."""
    w = np.array([0.0, 5e-324, 1e-310, 1e-300, 0.25, 1.0]).reshape(shape)
    want = np.where(w > 0, np.log(np.maximum(w, 1e-300)), -np.inf)
    got = gmm_mod._log_weights(w)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class TestLogDensity:
    def test_standard_normal_at_zero(self):
        (got,) = class_log_densities(np.array([0.0]), std_normal_1d())
        assert got == pytest.approx(-0.9189385332046727, abs=1e-12)

    def test_mixture_of_identical_components(self):
        gmm = GMMClassifier([[0.5, 0.5]], [[[0.0], [0.0]]], [[[1.0], [1.0]]])
        (got,) = class_log_densities(np.array([0.0]), gmm)
        assert got == pytest.approx(-0.9189385332046727, abs=1e-12)

    def test_matches_naive_summation(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            k, d = 2, 3
            w = rng.random(k)
            w /= w.sum()
            w[-1] = 1.0 - w[:-1].sum()
            gmm = GMMClassifier([w], rng.normal(size=(1, k, d)), rng.random((1, k, d)) + 0.2)
            z = rng.normal(size=d)
            assert class_log_densities(z, gmm)[0] == pytest.approx(
                naive_log_density(z, gmm), rel=1e-10
            )

    def test_finite_for_extreme_inputs(self):
        gmm = std_normal_1d(var=VARIANCE_FLOOR)
        assert math.isfinite(class_log_densities(np.array([1e6]), gmm)[0])

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            class_log_densities(np.zeros(3), std_normal_1d())

    def test_batch_matches_single(self):
        rng = np.random.default_rng(1)
        gmm = GMMClassifier([[1.0]], rng.normal(size=(1, 1, 2)), rng.random((1, 1, 2)) + 0.5)
        z = rng.normal(size=(7, 2))
        batch = class_log_densities(z, gmm)
        singles = [class_log_densities(zi, gmm) for zi in z]
        np.testing.assert_allclose(batch, singles, rtol=1e-12)


class TestClassPosterior:
    def test_identical_classes_split_evenly(self):
        model = one_component_classes([[0.0], [0.0]])
        post = class_posterior(np.array([0.7]), model)
        np.testing.assert_allclose(post, [0.5, 0.5], atol=1e-12)

    def test_twenty_identical_classes(self):
        model = one_component_classes(np.zeros((20, 1)))
        post = class_posterior(np.array([0.3]), model)
        np.testing.assert_allclose(post, np.full(20, 0.05), atol=1e-12)

    def test_midpoint_of_equal_variance_classes(self):
        model = one_component_classes([[0.0], [4.0]])
        post = class_posterior(np.array([2.0]), model)
        np.testing.assert_allclose(post, [0.5, 0.5], atol=1e-12)

    def test_valid_probability_vector(self):
        rng = np.random.default_rng(2)
        model = one_component_classes(rng.normal(size=(5, 4)), rng.random((5, 4)) + 0.1)
        for _ in range(100):
            post = class_posterior(rng.normal(scale=10.0, size=4), model)
            assert np.all(post >= 0)
            assert post.sum() == pytest.approx(1.0, abs=1e-9)

    def test_constant_log_density_shift_is_invisible(self):
        # appending a dimension shared by all classes adds the same constant
        # to every class log-density at a fixed input
        rng = np.random.default_rng(3)
        means, variances = rng.normal(size=(3, 2)), rng.random((3, 2)) + 0.2
        base = one_component_classes(means, variances)
        extended = one_component_classes(
            np.hstack([means, np.full((3, 1), 0.7)]), np.hstack([variances, np.full((3, 1), 2.0)])
        )
        z = rng.normal(size=2)
        z_ext = np.append(z, 1.3)
        post_a = class_posterior(z, base)
        post_b = class_posterior(z_ext, extended)
        np.testing.assert_allclose(post_a, post_b, rtol=1e-10)
        assert predict(z, base) == predict(z_ext, extended)


class TestPredict:
    def setup_method(self):
        self.model = one_component_classes([[0.0], [4.0]])

    def test_at_class_mean(self):
        assert predict(np.array([0.0]), self.model) == 0

    def test_tie_goes_to_lowest_id(self):
        tied = one_component_classes([[0.0], [0.0]])
        assert predict(np.array([1.0]), tied) == 0

    def test_near_other_mean(self):
        assert predict(np.array([3.9]), self.model) == 1

    def test_class_ids_are_positions(self, tmp_path):
        """Class c is row c, which GMMC stores as its c-th record, so a
        saved model predicts the ids it did before."""
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
        np.testing.assert_allclose(gmm.weights, [[1.0]])
        np.testing.assert_allclose(gmm.means[0, 0], x.mean(axis=0), rtol=1e-8)
        np.testing.assert_allclose(gmm.variances[0, 0], x.var(axis=0), rtol=1e-8)
        assert stats.counts[0, 0] == pytest.approx(200.0)

    def test_two_cluster_recovery(self):
        rng = np.random.default_rng(5)
        x = np.concatenate(
            [
                rng.normal(0.0, 0.5, size=(500, 1)),
                rng.normal(10.0, 0.5, size=(500, 1)),
            ]
        )
        gmm, _ = em_fit(x, 2, seed=1)
        means = np.sort(gmm.means[0, :, 0])
        assert abs(means[0] - 0.0) < 0.1
        assert abs(means[1] - 10.0) < 0.1
        np.testing.assert_allclose(gmm.weights, [[0.5, 0.5]], atol=0.05)

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

    def test_one_dimensional_features_raise_shape_error(self):
        with pytest.raises(ShapeError, match=r"^features must be \(N, D\), got \(10,\)$"):
            em_fit(np.zeros(10), 1)

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
        under ``python -O``, which strips ``assert`` statements; its
        message names the class."""
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
                gmm.em_fit(x, 2, max_iters=10, tol=0.0, class_id=3)
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
        assert done.stdout.endswith(" (class 3)\n")

    def test_a_fit_that_converges_runs_one_e_step_per_iteration(self, monkeypatch):
        """A stop on ``tol`` feeds the statistics from the loop's last
        E-step; no E-step is run again under unchanged parameters."""
        calls = []
        e_step = gmm_mod._e_step

        def counting(*args):
            calls.append(None)
            return e_step(*args)

        monkeypatch.setattr(gmm_mod, "_e_step", counting)
        x = np.random.default_rng(8).normal(size=(300, 2))
        _, stats = em_fit(x, 2, seed=0)
        assert 1 < stats.log_likelihoods.size < 100
        assert len(calls) == stats.log_likelihoods.size

    @pytest.mark.parametrize("max_iters, tol", [(100, 1e-5), (3, 0.0)], ids=["tol", "max_iters"])
    def test_stats_are_a_fresh_e_step_under_the_returned_mixture(self, max_iters, tol):
        """Whichever way the loop ends, the statistics equal bit for bit
        those of an E-step under the returned parameters."""
        x = np.random.default_rng(9).normal(size=(300, 3)) * [1.0, 2.0, 0.5]
        gmm, stats = em_fit(x, 2, max_iters=max_iters, tol=tol, seed=1)
        assert (stats.log_likelihoods.size < max_iters) == (tol > 0)
        operand, center, _ = gmm_mod._operand(x)
        rows = operand[3:6]
        log_w = gmm_mod._log_weights(gmm.weights[0])
        resp, _ = gmm_mod._e_step(operand, center, log_w, gmm.means[0], gmm.variances[0])
        nk, xbar, sq_devs = gmm_mod._moments(rows, resp.T, np.empty_like(rows))
        assert_same_bytes(stats.counts[0], nk)
        assert_same_bytes(stats.means[0], xbar + center)
        assert_same_bytes(stats.sq_devs[0], sq_devs)

    def test_stats_shapes_and_mass(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(120, 2))
        gmm, stats = em_fit(x, 2, seed=3)
        assert gmm.weights.shape == stats.counts.shape == (1, 2)
        assert gmm.means.shape == gmm.variances.shape == (1, 2, 2)
        assert stats.means.shape == stats.sq_devs.shape == (1, 2, 2)
        assert stats.counts.sum() == pytest.approx(120.0)
        assert np.all(stats.counts >= 0)
        assert np.all(stats.sq_devs >= 0)


# ---------------------------------------------------------------------------
# classes fitted on the pool against the serial loop

# six points on which a K = 5 mixture loses a component on every seed: one
# collapse re-seed, also with constant columns appended
RESEEDING_ROWS = np.array([4.8301, 4.8298, 13.3717, 13.9552, -2.6438, -2.6708])[:, None]


def pooled_fit_case(d):
    """Six classes of different sizes and scales for K = 5, class 1 the
    re-seeding rows padded to dimension d, class 3 in float32 (as
    ``gmmood fit`` reads them)."""
    rng = np.random.default_rng(40 + d)
    return [
        rng.normal(0.0, 1.0, (400, d)),
        np.pad(RESEEDING_ROWS, ((0, 0), (0, d - 1))),
        rng.normal(5.0, 0.1, (60, d)) * rng.uniform(1.0, 3.0, d),
        rng.normal(-3.0, 2.0, (250, d)).astype(np.float32),
        np.concatenate([rng.normal(0.0, 0.5, (90, d)), rng.normal(1e3, 1.0, (30, d))]),
        rng.normal(1e4, 1.0, (7, d)),
    ]


def serial_loop_fit(per_class, k, seed):
    """The one-class-at-a-time loop the pooled fit replaced: seed child c
    is the c-th ``spawn(1)`` of the root."""
    root = np.random.SeedSequence(seed)
    fits = [em_fit(x, k, seed=root.spawn(1)[0], class_id=c) for c, x in enumerate(per_class)]
    return GMMClassifier.of([g for g, _ in fits]), [st for _, st in fits]


STATS_FIELDS = ("counts", "means", "sq_devs", "log_likelihoods")


class TestPooledFit:
    @pytest.mark.parametrize("d", [1, 5, 32])
    def test_pooled_fit_equals_serial_bit_for_bit(self, d, monkeypatch):
        """Models, banks and every statistic of the pooled fit equal the
        serial path's (no OpenBLAS found) and the old loop's."""
        per_class = pooled_fit_case(d)
        pooled = fit_classifier(per_class, 5, seed=d)
        monkeypatch.setattr(_blas, "_found", [])
        serial = fit_classifier(per_class, 5, seed=d)
        loop = serial_loop_fit(per_class, 5, seed=d)
        assert pooled[1][1].reseeds >= 1  # the collapse re-seed is covered
        for model, stats in (serial, loop):
            assert classifier_to_bytes(model) == classifier_to_bytes(pooled[0])
            assert bank_to_bytes(build_bank(model, stats, DEFAULT_PRIOR)) == bank_to_bytes(
                build_bank(*pooled, DEFAULT_PRIOR)
            )
            for got, want in zip(stats, pooled[1]):
                for name in STATS_FIELDS:
                    assert_same_bytes(getattr(got, name), getattr(want, name))
                assert got.reseeds == want.reseeds

    @pytest.mark.parametrize("fit", ["pooled", "serial"])
    @pytest.mark.parametrize("d", [1, 32])
    def test_classes_as_block_lists_fit_as_their_concatenation(self, d, fit, monkeypatch):
        """A class given as a list of per-scan (N_i, D) blocks fits bit for
        bit as the one array they concatenate to, on the pool and
        serially.  The blocks include empty and one-row ones, and class 1
        (the re-seeding rows) is missing from three of the four scans."""
        if fit == "serial":
            monkeypatch.setattr(_blas, "_found", [])
        rng = np.random.default_rng(d)
        per_class = pooled_fit_case(d)
        blocks = []
        for c, x in enumerate(per_class):
            if c == 1:
                cuts = [0, 0, 0, len(x), len(x)]
            else:
                cuts = sorted([0, 0, 1, 2, *rng.integers(0, len(x) + 1, 2), len(x), len(x)])
            blocks.append([x[a:b] for a, b in zip(cuts[:-1], cuts[1:])])
        assert any(len(b) == 0 for b in blocks[0]) and any(len(b) == 1 for b in blocks[5])
        want = fit_classifier(per_class, 5, seed=d)
        got = fit_classifier(blocks, 5, seed=d)
        assert want[1][1].reseeds >= 1
        for name in ("weights", "means", "variances"):
            assert_same_bytes(getattr(got[0], name), getattr(want[0], name))
        for g, w in zip(got[1], want[1]):
            for name in STATS_FIELDS:
                assert_same_bytes(getattr(g, name), getattr(w, name))
            assert g.reseeds == w.reseeds
        with pytest.raises(InsufficientDataError, match="^class 0 has 0 samples"):
            fit_classifier([[np.empty((0, d), np.float32)] * 3], 1)
        with pytest.raises(ShapeError, match=r"^class 1: features must be \(N, D\) blocks$"):
            fit_classifier([per_class[0], [blocks[1][0], np.zeros(10)], np.zeros(10)], 1)

    def test_em_fit_reads_feature_major_float64_rows_in_place(self):
        """Features are never written: a read-only view whose ``.T`` is
        C-ordered float64 fits as a C-ordered copy does."""
        x = pooled_fit_case(5)[4]
        rows = np.array(x.T, order="C")
        rows.flags.writeable = False
        got, want = em_fit(rows.T, 3, seed=2), em_fit(np.ascontiguousarray(x), 3, seed=2)
        for name in ("weights", "means", "variances"):
            assert_same_bytes(getattr(got[0], name), getattr(want[0], name))
        for name in STATS_FIELDS:
            assert_same_bytes(getattr(got[1], name), getattr(want[1], name))

    def test_seed_children_follow_the_classes(self):
        """Class c takes child c of a caller's root, which is left with
        child C as its next free one."""
        per_class = pooled_fit_case(5)
        root = np.random.SeedSequence(11)
        _, stats = fit_classifier(per_class, 5, seed=root)
        assert root.n_children_spawned == len(per_class)
        _, want = serial_loop_fit(per_class, 5, seed=11)
        for got, ref in zip(stats, want):
            assert_same_bytes(got.log_likelihoods, ref.log_likelihoods)

    def test_run_benchmark_reports_equal_serial(self, monkeypatch):
        dataset = generate(SynthConfig(feature_dim=4, n_classes=5, samples_per_class=200))
        pooled = run_benchmark(dataset, n_samples=8, seed=9)
        monkeypatch.setattr(_blas, "_found", [])
        serial = run_benchmark(dataset, n_samples=8, seed=9)
        assert pooled.epistemic.to_json() == serial.epistemic.to_json()
        assert pooled.predictive.to_json() == serial.predictive.to_json()
        assert pooled.delta_summary() == serial.delta_summary()

    @pytest.mark.parametrize("fit", ["pooled", "serial"])
    def test_lowest_short_class_is_reported(self, fit, monkeypatch):
        """Classes 2 and 5 are both short of samples; as in the serial
        loop, class 2's error is the one raised."""
        if fit == "serial":
            monkeypatch.setattr(_blas, "_found", [])
        rng = np.random.default_rng(3)
        per_class = [rng.normal(size=(n, 3)) for n in (50, 40, 1, 60, 30, 0)]
        with pytest.raises(InsufficientDataError, match="^class 2 has 1 samples; needs at least 2$"):
            fit_classifier(per_class, 2)


def moment_case(d, n, separation, far):
    """Two unit-sigma components ``separation`` apart in every dimension,
    n rows alternating between them (with n // 4 + 1 rows 1e4 beyond the
    second when ``far``), and the responsibilities of an E-step under
    the generating mixture; also the kernel's shared centre."""
    rng = np.random.default_rng([d, n, int(math.log10(separation)), int(far)])
    means = np.array([3.0, 3.0 + separation])[:, None] + rng.normal(0.0, 0.5, (2, d))
    x = means[np.arange(n) % 2] + rng.standard_normal((n, d))
    if far:
        x = np.concatenate([x, means[1] + 1e4 + rng.standard_normal((n // 4 + 1, d))])
    log_w = gmm_mod._log_weights(np.array([0.5, 0.5]))
    resp, _ = gmm_mod._e_step(*gmm_mod._operand(x)[:2], log_w, means, np.ones((2, d)))
    return x, resp, means.mean(axis=0)


def loop_moments(x, resp):
    """Counts, means and sums of squared deviations about them, one
    component at a time in float64 on (N, D) rows and (N, K)
    responsibilities."""
    k, d = resp.shape[1], x.shape[1]
    nk, means, sq_devs = np.empty(k), np.empty((k, d)), np.empty((k, d))
    for m in range(k):
        r = resp[:, m, None]
        nk[m] = r.sum()
        means[m] = (r * x).sum(axis=0) / nk[m]
        diff = x - means[m]
        sq_devs[m] = (r * diff * diff).sum(axis=0)
    return nk, means, sq_devs


def shared_centre_moments(x, resp, centre):
    """The same moments from sums about one shared centre c, as
    ``S2 - nk (m - c)^2``: the form ``_moments`` does not take."""
    dev = x - centre
    nk = resp.sum(axis=0)
    s1, s2 = resp.T @ dev, resp.T @ (dev * dev)
    return nk, centre + s1 / nk[:, None], s2 - s1 * s1 / nk[:, None]


def moment_errors(got, want):
    """Largest relative errors of counts, means (at the unit-sigma scale)
    and sums of squared deviations."""
    scales = (np.abs(want[0]), np.maximum(np.abs(want[1]), 1.0), np.abs(want[2]))
    return [float(np.max(np.abs(g - w) / s)) for g, w, s in zip(got, want, scales)]


# ~450 eps: the float64 loop's own sums over 9003 rows reach ~1.2e-14, and
# the shared-centre form is off by >= 3e-9 at 1e4 sigma, >= 8e-5 at 1e6
MOMENT_RTOL = 1e-13


@pytest.mark.parametrize("far", [False, True], ids=["near", "far"])
@pytest.mark.parametrize("separation", [1.0, 1e4, 1e6])
@pytest.mark.parametrize("n", [7, 9003])
@pytest.mark.parametrize("d", [1, 5, 32])
def test_moments_match_per_component_loop(d, n, separation, far):
    """``_moments`` on feature-major rows and the E-step's (K, N)
    responsibilities agree with the per-component float64 loop to
    ``MOMENT_RTOL``, also for components 1e6 sigma apart, where sums
    about a shared centre are off by 1e-4 and more."""
    x, resp, centre = moment_case(d, n, separation, far)
    rows = np.ascontiguousarray(x.T)
    want = loop_moments(x, resp)
    got = gmm_mod._moments(rows, resp.T, np.empty_like(rows))
    assert max(moment_errors(got, want)) <= MOMENT_RTOL
    if separation > 1.0:
        shared = moment_errors(shared_centre_moments(x, resp, centre), want)
        assert shared[2] > MOMENT_RTOL


@pytest.mark.parametrize("d", [1, 5, 32])
@pytest.mark.parametrize("n", [64, 67, 9000, 9003])  # N mod 8 in {0, 3}: the GEMM's tail
@pytest.mark.parametrize("far", [False, True], ids=["near", "far1e4"])
def test_e_step_on_feature_major_rows_equals_c_ordered(d, n, far):
    """A fit's operand of feature-major rows equals that of C-ordered ones
    bit for bit, and so do the responsibilities and log densities of an
    E-step on it, also for far rows and a zero-weight component."""
    rng = np.random.default_rng(100 * d + n)
    x = rng.normal(0.0, 1.0, (n, d))
    if far:
        x[::5] += 1e4
    log_w = gmm_mod._log_weights(np.array([0.5, 0.3, 0.2, 0.0]))
    means = rng.normal(0.0, 2.0, (4, d))
    variances = rng.uniform(0.5, 2.0, (4, d))
    rows = np.ascontiguousarray(x.T).T
    assert rows.T.flags.c_contiguous and np.array_equal(rows, x)
    want, got = gmm_mod._operand(x), gmm_mod._operand(rows)
    for g, w in zip(got, want):
        assert_same_bytes(g, w)
    want = gmm_mod._e_step(*want[:2], log_w, means, variances)
    got = gmm_mod._e_step(*got[:2], log_w, means, variances)
    for g, w in zip(got, want):
        assert_same_bytes(g, w)


def rows_e_step(x, log_w, means, variances):
    """The E-step as it was before the fit's operand: the scoring kernel
    on (N, D) rows about the mean of the component means."""
    joint = gmm_mod._joint_log_densities(x, gmm_mod._coefficients(log_w, means, variances))
    log_p = logsumexp(joint, axis=0)
    return np.exp(joint - log_p).T, log_p


def two_pass_em_fit(features, k, *, max_iters=100, tol=1e-5, seed=0):
    """``em_fit`` as it was before ``_moments`` (its monotonicity check left
    out): every pass reads C-ordered float64 rows, the means are
    ``resp.T @ x`` over the counts and the squared deviations about them
    are summed one component at a time on (N, D) temporaries."""
    x = np.asarray(features, dtype=np.float64)
    n, d = x.shape

    def sq_devs_about(resp, centers):
        out = np.empty(centers.shape)
        for m, center in enumerate(centers):
            diff = x - center
            term = resp[:, m, None] * diff
            term *= diff
            out[m] = term.sum(axis=0)
        return out

    rng = np.random.default_rng(seed)
    means = np.empty((k, d))
    means[0] = x[rng.integers(n)]
    d2 = np.sum((x - means[0]) ** 2, axis=1)
    for m in range(1, k):
        total = d2.sum()
        means[m] = x[rng.choice(n, p=d2 / total) if total > 0 else rng.integers(n)]
        d2 = np.minimum(d2, np.sum((x - means[m]) ** 2, axis=1))
    global_var = np.maximum(x.var(axis=0), VARIANCE_FLOOR)
    variances = np.tile(global_var, (k, 1))
    weights = np.full(k, 1.0 / k)
    ll_history, reseeds, prev_ll = [], 0, -np.inf
    for _ in range(max_iters):
        resp, log_p = rows_e_step(x, gmm_mod._log_weights(weights), means, variances)
        ll = float(log_p.sum())
        ll_history.append(ll)
        if ll_history[:-1] and abs(ll - prev_ll) < tol * max(1.0, abs(prev_ll)):
            break
        prev_ll = ll
        nk = resp.sum(axis=0)
        collapsed = nk < gmm_mod.COLLAPSE_THRESHOLD
        weights = np.where(collapsed, 1.0 / n, nk / n)
        weights = weights / weights.sum()
        safe_nk = np.maximum(nk, gmm_mod.COLLAPSE_THRESHOLD)[:, None]
        means = (resp.T @ x) / safe_nk
        variances = np.maximum(sq_devs_about(resp, means) / safe_nk, VARIANCE_FLOOR)
        means[collapsed] = x[rng.integers(n, size=collapsed.sum())]
        variances[collapsed] = global_var
        reseeds += int(collapsed.sum())
    else:
        resp, _ = rows_e_step(x, gmm_mod._log_weights(weights), means, variances)
    nk = resp.sum(axis=0)
    xbar = np.where(nk[:, None] > 0, (resp.T @ x) / np.maximum(nk, 1e-300)[:, None], means)
    sq = sq_devs_about(resp, xbar)
    return (
        GMMClassifier(weights[None], means[None], variances[None]),
        gmm_mod.SufficientStats(nk[None], xbar[None], sq[None], np.asarray(ll_history), reseeds),
    )


def fit_d32_like_class(rng, n=4500, d=32):
    """One class as the fit-d32 benchmark draws it: two diagonal
    Gaussians in D = 32, pooled in float32."""
    means = rng.normal(0.0, 3.0, d) + rng.normal(0.0, 2.0, (2, d))
    stds = rng.uniform(0.6, 1.4, (2, d))
    comp = (rng.random(n) >= rng.uniform(0.3, 0.7)).astype(np.int64)
    return (means[comp] + stds[comp] * rng.standard_normal((n, d))).astype(np.float32)


# case: (rows of a seeded generator, K, max_iters, rtol of every parameter
# and statistic against the two-pass reference); the largest relative
# differences measured were 3.0e-15, 3.0e-15, 3.4e-8 (a far component's
# statistics, conditioned at ~1e-8) and 1.0e-10 (counts near collapse)
EM_CASES = {
    "fit-d32": (lambda rng: fit_d32_like_class(rng), 2, 100, 3e-14),
    "fit-d32-max_iters": (lambda rng: fit_d32_like_class(rng, n=3001), 2, 2, 3e-14),
    "far1e4": (lambda rng: np.concatenate(
        [fit_d32_like_class(rng, n=900), fit_d32_like_class(rng, n=203) + 1e4]), 3, 100, 3e-7),
    "reseed": (lambda rng: np.pad(RESEEDING_ROWS, ((0, 0), (0, 31))), 5, 100, 1e-9),
}


@pytest.mark.parametrize("case", sorted(EM_CASES))
def test_em_fit_matches_two_pass_reference(case, monkeypatch):
    """``em_fit`` reads one (2D + 1, N) operand in every E-step and its
    centred feature-major rows in every moment pass, and takes the
    reference's iterations and reseeds, with every parameter and
    statistic within the case's measured bound."""
    make, k, max_iters, rtol = EM_CASES[case]
    x = make(np.random.default_rng(len(case)))
    want = two_pass_em_fit(x, k, max_iters=max_iters, seed=7)
    e_step, moments, layouts = gmm_mod._e_step, gmm_mod._moments, []

    def e_step_spy(operand, *args):
        shape = (2 * x.shape[1] + 1, x.shape[0])
        layouts.append(("e_step", operand.shape == shape and operand.flags.c_contiguous))
        return e_step(operand, *args)

    def moments_spy(rows, resp, scratch):
        layouts.append(("moments", rows.shape == x.shape[::-1] and rows.flags.c_contiguous))
        return moments(rows, resp, scratch)

    monkeypatch.setattr(gmm_mod, "_e_step", e_step_spy)
    monkeypatch.setattr(gmm_mod, "_moments", moments_spy)
    got = em_fit(x, k, max_iters=max_iters, seed=7, class_id=4)
    assert {kind for kind, _ in layouts} == {"e_step", "moments"}
    assert all(feature_major for _, feature_major in layouts)
    assert got[1].log_likelihoods.size == want[1].log_likelihoods.size
    assert got[1].reseeds == want[1].reseeds
    for obj, names in ((0, ("weights", "means", "variances")), (1, STATS_FIELDS)):
        for name in names:
            np.testing.assert_allclose(
                getattr(got[obj], name), getattr(want[obj], name), rtol=rtol, atol=0, err_msg=name
            )
    if case == "reseed":
        assert got[1].reseeds >= 1
    if case.endswith("max_iters"):
        assert got[1].log_likelihoods.size == max_iters


def test_em_fit_memory_per_value_is_bounded():
    """One ``em_fit`` of a fit-d32-like float32 class holds its (2D + 1, N)
    operand, whose middle D rows are the class's one float64 copy, and
    one (D, N) scratch of seeding and ``_moments``: 26.6 B per value
    (samples x D) at its traced peak, as when a float64 copy sat beside
    one work buffer for the operand and the scratch, against 33.5 B when
    the scratch sat beside a fresh operand per E-step and 41.0 B when a
    C-ordered copy sat beside the feature-major one and the M-step took
    (N, D) temporaries.  A second copy or per-iteration temporary would
    add 8 B."""
    x = fit_d32_like_class(np.random.default_rng(2), n=9000)
    em_fit(x, 2, seed=1)  # warm-up
    tracemalloc.start()
    try:
        em_fit(x, 2, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / x.size < 29, f"{peak / x.size:.1f} B per value"


# ---------------------------------------------------------------------------
# the fit's operand: built once per class around a float32 centre


@pytest.mark.parametrize("offset", [0.0, 1e4], ids=["origin", "1e4"])
def test_operand_rows_give_back_float32_rows(offset):
    """The centre is a float32 value and the centred rows plus it give
    back every float32 row bit for bit, also 1e4 from the origin; the
    operand's other rows are their squares and ones, and k-means++ seeds
    drawn on the centred rows equal those drawn on the uncentred ones."""
    x = fit_d32_like_class(np.random.default_rng(12), n=3001) + np.float32(offset)
    assert x.dtype == np.float32
    n, d = x.shape
    operand, center, _ = gmm_mod._operand(x)
    rows = operand[d : 2 * d]
    assert_same_bytes(center.astype(np.float32).astype(np.float64), center)
    assert_same_bytes(np.ascontiguousarray((rows + center[:, None]).T), x.astype(np.float64))
    assert_same_bytes(operand[:d], rows * rows)
    assert (operand[2 * d] == 1.0).all()
    scratch = np.empty((d, n))
    for seed in range(3):
        got = gmm_mod._kmeanspp_centers(rows, 4, np.random.default_rng(seed), scratch) + center
        want = gmm_mod._kmeanspp_centers(
            np.ascontiguousarray(x.T, dtype=np.float64), 4, np.random.default_rng(seed), scratch
        )
        assert_same_bytes(got, want)


def test_operand_beyond_float32_keeps_a_float64_centre():
    """Rows whose mean float32 cannot hold are centred about that float64
    mean, with no floating-point error, and fit to finite parameters."""
    x = np.random.default_rng(17).normal(1e39, 1e37, (200, 3))
    with np.errstate(all="raise"):
        operand, center, shift = gmm_mod._operand(x)
        gmm, _ = em_fit(x, 2, seed=0)
    assert_same_bytes(center, np.ascontiguousarray(x.T).sum(axis=1) / len(x))
    assert (shift == 0.0).all() and np.isfinite(operand).all()
    assert np.isfinite(gmm.means).all() and np.isfinite(gmm.variances).all()


def test_em_fit_refuses_an_operand_without_its_features():
    """An ``operand`` is taken only when its rows D to 2D are the
    features' transpose."""
    x = np.random.default_rng(18).normal(size=(50, 3))
    operand = np.empty((7, 50))
    operand[3:6] = x.T
    with pytest.raises(ValueError, match="operand rows D to 2D must be features.T"):
        em_fit(x, 2, operand=operand)
    want = em_fit(x, 2, seed=1)
    got = em_fit(operand[3:6].T, 2, seed=1, operand=operand)
    for name in ("weights", "means", "variances"):
        assert_same_bytes(getattr(got[0], name), getattr(want[0], name))


def test_every_e_step_reads_one_unchanged_operand(monkeypatch):
    """A fit builds its (2D + 1, N) operand once: every E-step gets the
    same array, and no pass of the fit writes it."""
    x = fit_d32_like_class(np.random.default_rng(13), n=2000)
    e_step, seen = gmm_mod._e_step, []

    def spy(operand, *args):
        seen.append((operand, operand.tobytes()))
        return e_step(operand, *args)

    monkeypatch.setattr(gmm_mod, "_e_step", spy)
    _, stats = em_fit(x, 2, seed=3)
    assert len(seen) == stats.log_likelihoods.size > 2
    first, snapshot = seen[0]
    assert first.shape == (2 * x.shape[1] + 1, x.shape[0])
    assert all(operand is first for operand, _ in seen)
    assert all(data == snapshot for _, data in seen) and first.tobytes() == snapshot


@pytest.mark.parametrize("value", [0.1, 1e4 + 0.3])
def test_constant_feature_has_exactly_zero_spread(value):
    """A feature that is constant over a class centres to exact zeros: its
    sums of squared deviations are exactly 0, its variances the floor and
    its means the constant itself."""
    x = fit_d32_like_class(np.random.default_rng(14), n=1500, d=5)
    x[:, 2] = np.float32(value)
    gmm, stats = em_fit(x, 2, seed=4)
    assert (stats.counts > 0).all()
    assert (stats.sq_devs[..., 2] == 0.0).all()
    assert (gmm.variances[..., 2] == VARIANCE_FLOOR).all()
    assert (gmm.means[..., 2] == np.float64(np.float32(value))).all()
    assert (stats.means[..., 2] == np.float64(np.float32(value))).all()


def test_skewed_classes_fit_alike_largest_first_in_id_order_and_serially(monkeypatch):
    """Classes of skewed sizes are handed to the pool largest first, and
    fit to the same bytes as in id order and serially, in class order."""
    rng = np.random.default_rng(15)
    sizes = (40, 3000, 7, 900, 3000, 250)
    per_class = [fit_d32_like_class(rng, n=n, d=5) for n in sizes]
    per_class[3] = [per_class[3][:100], per_class[3][100:]]
    real_map, orders = _blas.map_on_cores, []

    def largest_first(work, items):
        orders.append(list(items))
        return real_map(work, items)

    def in_id_order(work, items):
        items = list(items)
        done = dict(zip(sorted(items), real_map(work, sorted(items))))
        return [done[i] for i in items]

    monkeypatch.setattr(_blas, "map_on_cores", largest_first)
    fits = [fit_classifier(per_class, 2, seed=5)]
    assert orders == [[1, 4, 3, 5, 0, 2]]
    monkeypatch.setattr(_blas, "map_on_cores", in_id_order)
    fits.append(fit_classifier(per_class, 2, seed=5))
    monkeypatch.setattr(_blas, "map_on_cores", real_map)
    monkeypatch.setattr(_blas, "_found", [])
    fits.append(fit_classifier(per_class, 2, seed=5))
    (model, stats), others = fits[0], fits[1:]
    assert model.num_classes == len(sizes)
    assert [int(round(st.counts.sum())) for st in stats] == list(sizes)
    for other_model, other_stats in others:
        assert classifier_to_bytes(other_model) == classifier_to_bytes(model)
        for got, want in zip(other_stats, stats):
            for name in STATS_FIELDS:
                assert_same_bytes(getattr(got, name), getattr(want, name))


def test_errors_come_back_in_class_order(monkeypatch):
    """Of two failing classes, the lower one's error is raised, though the
    larger, higher one was fitted first."""
    real_em_fit = gmm_mod.em_fit

    def failing(x, *args, class_id, **kwargs):
        if class_id in (1, 3):
            raise ConvergenceError(f"class {class_id} failed")
        return real_em_fit(x, *args, class_id=class_id, **kwargs)

    monkeypatch.setattr(gmm_mod, "em_fit", failing)
    rng = np.random.default_rng(16)
    per_class = [rng.normal(size=(n, 3)) for n in (50, 60, 70, 900)]
    with pytest.raises(ConvergenceError, match="^class 1 failed$"):
        fit_classifier(per_class, 2)
