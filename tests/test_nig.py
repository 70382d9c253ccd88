import numpy as np
import pytest
from scipy import stats as sstats

from gmmood.errors import InvalidStatisticsError, ShapeError
from gmmood.gmm import VARIANCE_FLOOR, GMMClassifier, SufficientStats, em_fit
from gmmood.nig import (
    DEFAULT_PRIOR,
    GMMParameterSample,
    NIGParams,
    NIGPosteriorBank,
    build_bank,
    posterior_predictive_logpdf,
    sample_ensemble,
    sample_parameters,
    update_posterior,
)


def pooled_stats(a, b):
    """Merge (n, xbar, S) statistics of two batches exactly."""
    n_a, xbar_a, s_a = a
    n_b, xbar_b, s_b = b
    n = n_a + n_b
    xbar = (n_a * xbar_a + n_b * xbar_b) / n
    s = s_a + s_b + n_a * n_b / n * (xbar_a - xbar_b) ** 2
    return n, xbar, s


def batch_stats(x):
    n = x.size
    xbar = x.mean()
    return n, xbar, ((x - xbar) ** 2).sum()


class TestUpdatePosterior:
    def test_no_data_returns_prior(self):
        post = update_posterior(DEFAULT_PRIOR, n=0.0, xbar=0.0, S=0.0)
        assert post == DEFAULT_PRIOR

    def test_single_observation_hand_case(self):
        prior = NIGParams(mu=0.0, kappa=1.0, alpha=1.0, beta=1.0)
        post = update_posterior(prior, n=1.0, xbar=4.0, S=0.0)
        assert post.mu == pytest.approx(2.0)
        assert post.kappa == pytest.approx(2.0)
        assert post.alpha == pytest.approx(1.5)
        assert post.beta == pytest.approx(5.0)

    def test_large_sample_concentration(self):
        rng = np.random.default_rng(0)
        x = rng.normal(loc=3.0, scale=2.0, size=1_000_000)
        n, xbar, s = batch_stats(x)
        post = update_posterior(DEFAULT_PRIOR, n=n, xbar=xbar, S=s)
        assert abs(post.mu - 3.0) < 0.01
        assert post.beta / (post.alpha - 1.0) == pytest.approx(4.0, rel=0.02)
        assert post.beta / post.alpha == pytest.approx(4.0, rel=0.02)

    def test_negative_statistics_rejected(self):
        with pytest.raises(InvalidStatisticsError):
            update_posterior(DEFAULT_PRIOR, n=-1.0, xbar=0.0, S=0.0)
        with pytest.raises(InvalidStatisticsError):
            update_posterior(DEFAULT_PRIOR, n=1.0, xbar=0.0, S=-0.5)

    def test_sequential_equals_pooled(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            prior = NIGParams(
                mu=rng.normal(),
                kappa=rng.random() * 5 + 0.1,
                alpha=rng.random() * 5 + 0.1,
                beta=rng.random() * 5 + 0.1,
            )
            a = batch_stats(rng.normal(size=rng.integers(1, 50)))
            b = batch_stats(rng.normal(size=rng.integers(1, 50)))
            seq = update_posterior(prior, *a)
            seq = update_posterior(seq, *b)
            pooled = update_posterior(prior, *pooled_stats(a, b))
            for field in ("mu", "kappa", "alpha", "beta"):
                assert getattr(seq, field) == pytest.approx(
                    getattr(pooled, field), rel=1e-12, abs=1e-12
                )


class TestBuildBank:
    def test_zero_counts_reduce_to_prior(self):
        gmm, _ = em_fit(np.random.default_rng(2).normal(size=(10, 2)), 1, seed=0)
        stats = SufficientStats(np.zeros((1, 1)), np.zeros((1, 1, 2)), np.zeros((1, 1, 2)))
        bank = build_bank(GMMClassifier.of([gmm]), [stats], DEFAULT_PRIOR)
        assert np.all(bank.mu == DEFAULT_PRIOR.mu)
        assert np.all(bank.kappa == DEFAULT_PRIOR.kappa)
        assert np.all(bank.alpha == DEFAULT_PRIOR.alpha)
        assert np.all(bank.beta == DEFAULT_PRIOR.beta)

    def test_scalar_composition_base_case(self):
        rng = np.random.default_rng(3)
        x = rng.normal(loc=1.5, scale=0.8, size=(40, 1))
        gmm, stats = em_fit(x, 1, seed=0)
        bank = build_bank(GMMClassifier.of([gmm]), [stats], DEFAULT_PRIOR)
        cell = update_posterior(
            DEFAULT_PRIOR,
            n=float(stats.counts[0, 0]),
            xbar=float(stats.means[0, 0, 0]),
            S=float(stats.sq_devs[0, 0, 0]),
        )
        for name in ("mu", "kappa", "alpha", "beta"):
            assert getattr(bank, name)[0, 0, 0] == pytest.approx(getattr(cell, name), rel=1e-12)

    def test_two_cluster_posterior_means(self):
        rng = np.random.default_rng(4)
        x = np.concatenate(
            [rng.normal(0.0, 0.5, size=(500, 1)), rng.normal(10.0, 0.5, size=(500, 1))]
        )
        gmm, stats = em_fit(x, 2, seed=1)
        bank = build_bank(GMMClassifier.of([gmm]), [stats], DEFAULT_PRIOR)
        means = np.sort(bank.mu[0, :, 0])
        assert abs(means[0] - 0.0) < 0.1
        assert abs(means[1] - 10.0) < 0.1

    def test_shape_mismatch(self):
        gmm, stats = em_fit(np.random.default_rng(5).normal(size=(20, 2)), 1, seed=0)
        bad = SufficientStats(np.zeros((1, 1)), np.zeros((1, 1, 3)), np.zeros((1, 1, 3)))
        message = r"^classes \[1\]: statistics shape is not \(1, 1, 2\)$"
        with pytest.raises(ShapeError, match=message):
            build_bank(GMMClassifier.of([gmm, gmm]), [stats, bad], DEFAULT_PRIOR)
        with pytest.raises(ShapeError, match="^1 statistics blocks for 2 classes$"):
            build_bank(GMMClassifier.of([gmm, gmm]), [stats], DEFAULT_PRIOR)


def toy_bank(rng=None, c=2, k=2, d=3):
    rng = rng or np.random.default_rng(6)
    w = rng.random((c, k))
    w /= w.sum(axis=1, keepdims=True)
    return NIGPosteriorBank(
        rng.normal(size=(c, k, d)),
        rng.random((c, k, d)) * 5 + 0.5,
        rng.random((c, k, d)) * 5 + 1.5,
        rng.random((c, k, d)) * 5 + 0.5,
        w,
    )


class TestSampling:
    def test_seeded_determinism(self):
        bank = toy_bank()
        a = sample_parameters(bank, 123)
        b = sample_parameters(bank, 123)
        np.testing.assert_array_equal(a.means, b.means)
        np.testing.assert_array_equal(a.variances, b.variances)

    def test_moment_check(self):
        # one bank of 1e5 identical cells stands in for 1e5 draws of one cell
        big = NIGPosteriorBank(
            np.full((1, 1, 100_000), 1.0),
            np.full((1, 1, 100_000), 2.0),
            np.full((1, 1, 100_000), 3.0),
            np.full((1, 1, 100_000), 4.0),
            np.ones((1, 1)),
        )
        sample = sample_parameters(big, 7)
        draws_var = sample.variances.ravel()
        draws_mu = sample.means.ravel()
        assert draws_var.mean() == pytest.approx(4.0 / (3.0 - 1.0), rel=0.03)
        se = np.sqrt(draws_var / 2.0).mean() / np.sqrt(draws_mu.size)
        assert abs(draws_mu.mean() - 1.0) < 3 * se
        assert np.all(draws_var > 0)

    def test_huge_kappa_pins_the_mean(self):
        bank = NIGPosteriorBank(
            np.full((1, 1, 10_000), 2.5),
            np.full((1, 1, 10_000), 1e9),
            np.full((1, 1, 10_000), 5.0),
            np.full((1, 1, 10_000), 5.0),
            np.ones((1, 1)),
        )
        sample = sample_parameters(bank, 8)
        assert np.all(np.abs(sample.means - 2.5) < 1e-3)

    def test_ensemble_size_and_default(self):
        bank = toy_bank()
        assert len(sample_ensemble(bank, 1, rng_seed=0)) == 1
        assert len(sample_ensemble(bank, rng_seed=0)) == 20

    def test_ensemble_members_differ(self):
        bank = toy_bank()
        members = sample_ensemble(bank, 20, rng_seed=5)
        flat = {m.means.tobytes() for m in members}
        assert len(flat) == 20

    def test_zero_samples_rejected(self):
        with pytest.raises(ValueError):
            sample_ensemble(toy_bank(), 0, rng_seed=0)


class TestPosteriorPredictive:
    def test_symmetry(self):
        cell = NIGParams(mu=1.7, kappa=2.0, alpha=3.0, beta=4.0)
        for a in (0.1, 0.9, 2.5):
            assert posterior_predictive_logpdf(cell, 1.7 + a) == pytest.approx(
                posterior_predictive_logpdf(cell, 1.7 - a), rel=1e-12
            )

    def test_normal_limit(self):
        # alpha -> inf with beta/alpha -> sigma^2 approaches a Gaussian
        sigma2 = 2.3
        kappa = 1.7
        cell = NIGParams(mu=0.4, kappa=kappa, alpha=1e6, beta=1e6 * sigma2)
        xs = np.linspace(-3, 3, 13)
        got = posterior_predictive_logpdf(cell, xs)
        want = sstats.norm.logpdf(xs, loc=0.4, scale=np.sqrt(sigma2 * (kappa + 1) / kappa))
        np.testing.assert_allclose(got, want, atol=1e-3)

    def test_monte_carlo_agreement(self):
        cell = NIGParams(mu=-0.8, kappa=3.0, alpha=4.0, beta=2.0)
        rng = np.random.default_rng(9)
        var = cell.beta / rng.standard_gamma(cell.alpha, size=100_000)
        mu = rng.normal(cell.mu, np.sqrt(var / cell.kappa))
        x = rng.normal(mu, np.sqrt(var))
        scale = np.sqrt(cell.beta * (cell.kappa + 1) / (cell.alpha * cell.kappa))
        result = sstats.kstest(x, sstats.t(df=2 * cell.alpha, loc=cell.mu, scale=scale).cdf)
        assert result.pvalue > 0.01


class TestValidation:
    def test_prior_positivity(self):
        """Each refusal names one key as the config file spells it."""
        for key, value in [("kappa", 0.0), ("alpha", -1.0), ("beta", 0.0)]:
            cell = {"mu": 0.0, "kappa": 1.0, "alpha": 1.0, "beta": 1.0, key: value}
            message = rf"^'{key}0' in \[prior\] must be positive, got {value}$"
            with pytest.raises(ValueError, match=message):
                NIGParams(**cell)

    def test_bank_positivity(self):
        with pytest.raises(ValueError):
            NIGPosteriorBank(
                np.zeros((1, 1, 1)),
                np.zeros((1, 1, 1)),
                np.ones((1, 1, 1)),
                np.ones((1, 1, 1)),
                np.ones((1, 1)),
            )

    @pytest.mark.parametrize("name", ["mu", "kappa", "alpha", "beta"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_prior_rejects_non_finite_fields(self, name, value):
        fields = {**vars(DEFAULT_PRIOR), name: value}
        with pytest.raises(ValueError, match=rf"^NIGParams\.{name} must be finite, got {value}$"):
            NIGParams(**fields)


# every parameter set, as (class, valid arguments by name); shapes
# (C, K, D) = (2, 2, 3) per dimension and (C, K) = (2, 2) per component
PARAMETER_SETS = {
    "GMMClassifier": (
        GMMClassifier,
        dict(weights=np.full((2, 2), 0.5), means=np.zeros((2, 2, 3)),
             variances=np.ones((2, 2, 3))),
    ),
    "SufficientStats": (
        SufficientStats,
        dict(counts=np.full((2, 2), 4.0), means=np.zeros((2, 2, 3)), sq_devs=np.ones((2, 2, 3))),
    ),
    "GMMParameterSample": (
        GMMParameterSample,
        dict(means=np.zeros((2, 2, 3)), variances=np.ones((2, 2, 3)),
             weights=np.full((2, 2), 0.5)),
    ),
    "NIGPosteriorBank": (
        NIGPosteriorBank,
        dict(mu=np.zeros((2, 2, 3)), kappa=np.ones((2, 2, 3)), alpha=np.full((2, 2, 3), 2.0),
             beta=np.ones((2, 2, 3)), weights=np.full((2, 2), 0.5)),
    ),
}
PARAMETER_ARRAYS = [
    (kind, name)
    for kind, (_, args) in PARAMETER_SETS.items()
    for name, value in args.items()
    if isinstance(value, np.ndarray)
]


@pytest.mark.parametrize("kind, name", PARAMETER_ARRAYS)
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_parameter_sets_name_their_first_non_finite_value(kind, name, value):
    cls, args = PARAMETER_SETS[kind]
    bad = args[name].copy()
    index = (1,) * (bad.ndim - 1) + (0,)
    bad[index] = value
    bad.flat[-1] = value  # only the first bad value is named
    with pytest.raises(ValueError, match="finite") as info:
        cls(**{**args, name: bad})
    assert str(info.value) == f"{kind}.{name} must be finite, got {value} at index {index}"


@pytest.mark.parametrize("kind, name", PARAMETER_ARRAYS)
def test_parameter_sets_reject_a_misshapen_array(kind, name):
    cls, args = PARAMETER_SETS[kind]
    with pytest.raises(ShapeError, match=rf"^{kind}: .* got .*{name} \(1,"):
        cls(**{**args, name: args[name][:1]})
    with pytest.raises(ShapeError, match=f"^{kind}: "):
        cls(**{**args, name: args[name][None]})
    with pytest.raises(ShapeError, match=f"^{kind}: "):  # the class axis dropped
        cls(**{**args, name: args[name][0]})


@pytest.mark.parametrize("kind", sorted(PARAMETER_SETS))
def test_parameter_sets_reject_an_empty_axis(kind):
    """D = 0 in every per-dimension array: consistent shapes, no cells."""
    cls, args = PARAMETER_SETS[kind]
    ndim = max(a.ndim for a in args.values() if isinstance(a, np.ndarray))
    empty = {n: a[..., :0] for n, a in args.items() if isinstance(a, np.ndarray) and a.ndim == ndim}
    with pytest.raises(ShapeError, match=f"^{kind}: .*every axis at least 1, got "):
        cls(**{**args, **empty})


@pytest.mark.parametrize("kind, name, value, message", [
    ("GMMClassifier", "weights", [1.5, -0.5], "nonnegative and sum to 1"),
    ("GMMClassifier", "weights", [0.5, 0.4], "nonnegative and sum to 1"),
    ("GMMClassifier", "variances", VARIANCE_FLOOR / 2, "floored at"),
    ("SufficientStats", "counts", -1.0, "must be nonnegative"),
    ("SufficientStats", "sq_devs", -1.0, "must be nonnegative"),
    ("GMMParameterSample", "variances", 0.0, "must be strictly positive"),
])
def test_parameter_sets_keep_their_value_rules(kind, name, value, message):
    """One finite value outside a set's range, in its last class, is
    refused: a point-estimate mixture's weights (a class's row here) are
    nonnegative and sum to 1 and its variances are at the floor, EM's
    statistics are nonnegative and drawn variances positive."""
    cls, args = PARAMETER_SETS[kind]
    bad = args[name].copy()
    bad[(-1,) * (bad.ndim - np.ndim(value))] = value
    with pytest.raises(ValueError, match=message):
        cls(**{**args, name: bad})


@pytest.mark.parametrize("kind", sorted(PARAMETER_SETS))
def test_parameter_sets_store_float64(kind):
    cls, args = PARAMETER_SETS[kind]
    made = cls(**{n: a.astype(np.float32) if isinstance(a, np.ndarray) else a
                  for n, a in args.items()})
    for name, value in args.items():
        if isinstance(value, np.ndarray):
            assert getattr(made, name).dtype == np.float64
            np.testing.assert_array_equal(getattr(made, name), value)
