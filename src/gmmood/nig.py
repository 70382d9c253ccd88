"""Normal-Inverse-Gamma posteriors over mixture means and variances.

Every (class, component, dimension) cell of a fitted classifier gets a
conjugate NIG posterior for the unknown Gaussian mean and variance of
that dimension, updated from the responsibility-weighted statistics of
the EM fit.  Mixture weights are not given a prior; they stay frozen at
their EM point estimates.  Sampling a full parameter set from the bank
yields one ensemble member.
"""

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InvalidStatisticsError, ShapeError
from .formats import HEADER_SIZE, container_dims, container_to_bytes, write_atomic
from .gmm import GMMClassifier, SufficientStats

NIGB_MAGIC = b"NIGB"
NIGB_VERSION = 1


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
        if not (self.kappa > 0 and self.alpha > 0 and self.beta > 0):
            raise ValueError(
                f"kappa, alpha, beta must be positive, got "
                f"({self.kappa}, {self.alpha}, {self.beta})"
            )


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
        self.mu = np.asarray(self.mu, dtype=np.float64)
        self.kappa = np.asarray(self.kappa, dtype=np.float64)
        self.alpha = np.asarray(self.alpha, dtype=np.float64)
        self.beta = np.asarray(self.beta, dtype=np.float64)
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.mu.ndim != 3:
            raise ShapeError(f"bank arrays must be (C, K, D), got {self.mu.shape}")
        for arr in (self.kappa, self.alpha, self.beta):
            if arr.shape != self.mu.shape:
                raise ShapeError("bank parameter arrays must share one shape")
        if self.weights.shape != self.mu.shape[:2]:
            raise ShapeError(
                f"weights must be (C, K) = {self.mu.shape[:2]}, got {self.weights.shape}"
            )
        params = (self.mu, self.kappa, self.alpha, self.beta, self.weights)
        if not all(np.isfinite(a).all() for a in params):
            raise ValueError("bank parameters must be finite")
        if np.any(self.kappa <= 0) or np.any(self.alpha <= 0) or np.any(self.beta <= 0):
            raise ValueError("kappa, alpha, beta must be positive in every cell")

    @property
    def num_classes(self) -> int:
        return self.mu.shape[0]

    @property
    def components_per_class(self) -> int:
        return self.mu.shape[1]

    @property
    def feature_dim(self) -> int:
        return self.mu.shape[2]

    def cell(self, c: int, k: int, d: int) -> NIGParams:
        return NIGParams(
            float(self.mu[c, k, d]),
            float(self.kappa[c, k, d]),
            float(self.alpha[c, k, d]),
            float(self.beta[c, k, d]),
        )


@dataclass
class GMMParameterSample:
    """One drawn GMM parameter set: sampled means/variances, frozen weights."""

    means: np.ndarray
    variances: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        self.means = np.asarray(self.means, dtype=np.float64)
        self.variances = np.asarray(self.variances, dtype=np.float64)
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.means.shape != self.variances.shape or self.means.ndim != 3:
            raise ShapeError("sample arrays must be (C, K, D)")
        if self.weights.shape != self.means.shape[:2]:
            raise ShapeError("sample weights must be (C, K)")
        if np.any(self.variances <= 0):
            raise ValueError("sampled variances must be strictly positive")

    @property
    def num_classes(self) -> int:
        return self.means.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.means.shape[2]


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
    """Apply the conjugate update independently to every cell of the model."""
    shape = model.means.shape
    if len(stats) != shape[0]:
        raise ShapeError(f"{len(stats)} statistics blocks for {shape[0]} classes")
    bad = [gmm.class_id for gmm, st in zip(model.classes, stats) if st.means.shape != shape[1:]]
    if bad:
        raise ShapeError(f"classes {bad}: statistics shape is not {shape[1:]}")
    xbar = np.stack([st.means for st in stats])
    n = np.broadcast_to(np.stack([st.counts for st in stats])[:, :, None], shape)
    sq = np.stack([st.sq_devs for st in stats])
    return NIGPosteriorBank(*_conjugate_update(prior, n, xbar, sq), model.weights.copy())


def sample_parameters(bank: NIGPosteriorBank, rng_seed) -> GMMParameterSample:
    """Draw one full GMM parameter set from the bank.

    Per cell, sigma^2 is the reciprocal of a Gamma(alpha, scale=1/beta)
    draw (an Inverse-Gamma(alpha, beta) variate) and the mean is then
    drawn from Normal(mu_n, sigma^2 / kappa_n).  Deterministic for a
    given seed.
    """
    rng = np.random.default_rng(rng_seed)
    gamma = np.maximum(rng.standard_gamma(bank.alpha), np.finfo(np.float64).tiny)
    variances = bank.beta / gamma
    means = rng.normal(bank.mu, np.sqrt(variances / bank.kappa))
    return GMMParameterSample(means, variances, bank.weights.copy())


def sample_ensemble(
    bank: NIGPosteriorBank, n_samples: int = 20, rng_seed: int = 0
) -> list[GMMParameterSample]:
    """Draw ``n_samples`` independent parameter sets with derived sub-seeds."""
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    if isinstance(rng_seed, np.random.SeedSequence):
        root = rng_seed
    else:
        root = np.random.SeedSequence(rng_seed)
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
    """Serialize to the NIGB container: header, per-cell (mu, kappa,
    alpha, beta) quadruples, then per-(class, component) weights."""
    cells = np.stack([bank.mu, bank.kappa, bank.alpha, bank.beta], axis=-1)
    return container_to_bytes(
        NIGB_MAGIC, NIGB_VERSION, bank.mu.shape, cells.astype("<f8"), bank.weights.astype("<f8")
    )


def bank_from_bytes(data: bytes) -> NIGPosteriorBank:
    c, k, d = container_dims(
        data, NIGB_MAGIC, NIGB_VERSION, lambda c, k, d: 8 * (4 * c * k * d + c * k)
    )
    body = np.frombuffer(data, dtype="<f8", offset=HEADER_SIZE)
    cells = body[: 4 * c * k * d].reshape(c, k, d, 4)
    weights = body[4 * c * k * d :].reshape(c, k)
    return NIGPosteriorBank(*(cells[..., i].copy() for i in range(4)), weights.copy())


def save_bank(bank: NIGPosteriorBank, path) -> None:
    write_atomic(path, bank_to_bytes(bank))


def load_bank(path) -> NIGPosteriorBank:
    return bank_from_bytes(Path(path).read_bytes())
