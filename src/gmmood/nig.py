"""Normal-Inverse-Gamma posteriors over mixture means and variances.

Every (class, component, dimension) cell of a fitted classifier gets a
conjugate NIG posterior for the unknown Gaussian mean and variance of
that dimension, updated from the responsibility-weighted statistics of
the EM fit.  Mixture weights are not given a prior; they stay frozen at
their EM point estimates.  Sampling a full parameter set from the bank
yields one ensemble member, a ``GMMClassifier`` like the point estimate,
whose variances need not keep EM's floor.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidStatisticsError, ShapeError
from .formats import Container, _read_container, write_atomic
from .gmm import GMMClassifier, SufficientStats, _check_parameters


@dataclass(frozen=True)
class NIGParams:
    """One Normal-Inverse-Gamma parameter cell (prior or posterior).

    ``mu`` locates the mean, ``kappa`` is its pseudo-count, and
    ``alpha``/``beta`` are the Inverse-Gamma shape/scale of the variance
    (density proportional to x^(-alpha-1) exp(-beta/x)).
    """

    mu: float
    kappa: float
    alpha: float
    beta: float

    def __post_init__(self):
        for name, value in vars(self).items():
            if not math.isfinite(value):
                raise ValueError(f"NIGParams.{name} must be finite, got {value}")
        for name in ("kappa", "alpha", "beta"):
            if not (value := getattr(self, name)) > 0:
                raise ValueError(f"'{name}0' in [prior] must be positive, got {value}")


DEFAULT_PRIOR = NIGParams(mu=0.0, kappa=1.0, alpha=2.0, beta=1.0)


@dataclass
class NIGPosteriorBank:
    """Posterior cells for all (class, component, dimension) triples.

    Parameter arrays have shape (C, K, D); ``weights`` holds the frozen
    EM mixture weights with shape (C, K).
    """

    mu: np.ndarray
    kappa: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        _check_parameters(self, "weights", "mu", "kappa", "alpha", "beta")
        if np.any(self.kappa <= 0) or np.any(self.alpha <= 0) or np.any(self.beta <= 0):
            raise ValueError("kappa, alpha, beta must be positive in every cell")


NIGB = Container(b"NIGB", 1, lambda c, k, d: [
    ([(f, "<f8", ()) for f in ("mu", "kappa", "alpha", "beta")], (c, k, d)), ("<f8", (c, k)),
])


# an overflow gives a non-finite cell, which NIGParams and the bank refuse by name
@np.errstate(over="ignore", invalid="ignore")
def _conjugate_update(prior: NIGParams, n, xbar, S) -> tuple:
    """Elementwise conjugate NIG update; returns (mu, kappa, alpha, beta).

    With effective count ``n``, weighted mean ``xbar`` and weighted sum of
    squared deviations ``S``::

        kappa_n = kappa0 + n
        mu_n    = (kappa0 * mu0 + n * xbar) / kappa_n
        alpha_n = alpha0 + n / 2
        beta_n  = beta0 + S / 2 + kappa0 * n * (xbar - mu0)^2 / (2 * kappa_n)
    """
    if np.any(n < 0) or np.any(S < 0):
        raise InvalidStatisticsError("effective counts and squared deviations must be nonnegative")
    kappa_n = prior.kappa + n
    mu_n = (prior.kappa * prior.mu + n * xbar) / kappa_n
    alpha_n = prior.alpha + 0.5 * n
    beta_n = prior.beta + 0.5 * S + prior.kappa * n * (xbar - prior.mu) ** 2 / (2.0 * kappa_n)
    return mu_n, kappa_n, alpha_n, beta_n


def update_posterior(prior: NIGParams, n: float, xbar: float, S: float) -> NIGParams:
    """Conjugate NIG update of one cell from weighted observation statistics."""
    return NIGParams(*_conjugate_update(prior, n, xbar, S))


def build_bank(
    model: GMMClassifier,
    stats: list[SufficientStats],
    prior: NIGParams = DEFAULT_PRIOR,
) -> NIGPosteriorBank:
    """Apply the conjugate update independently to every cell of the model,
    class c's from ``stats[c]``, a one-row block as ``em_fit`` gives."""
    shape = model.means.shape
    if len(stats) != shape[0]:
        raise ShapeError(f"{len(stats)} statistics blocks for {shape[0]} classes")
    row = (1, *shape[1:])
    bad = [c for c, st in enumerate(stats) if st.means.shape != row]
    if bad:
        raise ShapeError(f"classes {bad}: statistics shape is not {row}")
    xbar, sq = (np.concatenate([getattr(st, f) for st in stats]) for f in ("means", "sq_devs"))
    n = np.broadcast_to(np.concatenate([st.counts for st in stats])[:, :, None], shape)
    return NIGPosteriorBank(*_conjugate_update(prior, n, xbar, sq), model.weights.copy())


def sample_parameters(bank: NIGPosteriorBank, rng_seed) -> GMMClassifier:
    """Draw one full GMM parameter set from the bank.

    Per cell, sigma^2 is the reciprocal of a Gamma(alpha, scale=1/beta)
    draw (an Inverse-Gamma(alpha, beta) variate) and the mean is then
    drawn from Normal(mu_n, sigma^2 / kappa_n).  Deterministic for a
    given seed.
    """
    rng = np.random.default_rng(rng_seed)
    gamma = np.maximum(rng.standard_gamma(bank.alpha), np.finfo(np.float64).tiny)
    with np.errstate(over="ignore"):  # GMMClassifier names an infinite variance
        variances = bank.beta / gamma
    means = rng.normal(bank.mu, np.sqrt(variances / bank.kappa))
    return GMMClassifier(bank.weights.copy(), means, variances)


def sample_ensemble(
    bank: NIGPosteriorBank, n_samples: int = 20, rng_seed=0
) -> list[GMMClassifier]:
    """Draw ``n_samples`` independent parameter sets, one per child of
    ``rng_seed``, an int or a ``SeedSequence``."""
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    root = (rng_seed if isinstance(rng_seed, np.random.SeedSequence)
            else np.random.SeedSequence(rng_seed))
    return [sample_parameters(bank, child) for child in root.spawn(n_samples)]


def posterior_predictive_logpdf(cell: NIGParams, x):
    """Log density of the NIG posterior predictive (a Student-t).

    Degrees of freedom 2*alpha, location mu, scale
    sqrt(beta * (kappa + 1) / (alpha * kappa)).
    """
    df = 2.0 * cell.alpha
    scale = math.sqrt(cell.beta * (cell.kappa + 1.0) / (cell.alpha * cell.kappa))
    norm = (
        math.lgamma(0.5 * (df + 1.0)) - math.lgamma(0.5 * df)
        - 0.5 * math.log(df * math.pi) - math.log(scale)
    )
    t = (np.asarray(x, dtype=np.float64) - cell.mu) / scale
    out = norm - 0.5 * (df + 1.0) * np.log1p(t * t / df)
    return float(out) if np.isscalar(x) else out


def bank_to_bytes(bank: NIGPosteriorBank) -> bytes:
    return NIGB.to_bytes(bank.mu.shape, (bank.mu, bank.kappa, bank.alpha, bank.beta), bank.weights)


def bank_from_bytes(data: bytes) -> NIGPosteriorBank:
    _, (cells, weights) = NIGB.from_bytes(data)
    return NIGPosteriorBank(*cells, weights)


def save_bank(bank: NIGPosteriorBank, path) -> None:
    write_atomic(path, bank_to_bytes(bank))


def load_bank(path) -> NIGPosteriorBank:
    return _read_container(path, bank_from_bytes)
