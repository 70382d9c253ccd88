"""Class-conditional diagonal-covariance Gaussian mixtures.

Each semantic class is modeled as a K-component mixture of axis-aligned
Gaussians over a D-dimensional feature space.  This module provides
density evaluation in log space, the class posterior under a uniform
class prior, maximum-density prediction, and EM fitting that also emits
the responsibility-weighted sufficient statistics consumed by the
Bayesian layer.

One kernel, ``_joint_log_densities``, computes every Gaussian log
density: EM's E-step calls it on one (K, D) mixture, and the class
reductions call it on the point-estimate ``GMMClassifier``, a sampled
member (``nig.GMMParameterSample``) or a whole ensemble stacked along
leading member axes.  It is also the one place that checks the rows'
feature dimension, before its matrix product.

The kernel expands the quadratic form into one float64 GEMM.  With
P = 1/sigma^2 and c the mean of all the component means passed in,

    log N(z | mu, sigma^2) = [-P/2, (mu - c) P, -const/2] @ [(z - c)^2, z - c, 1],
    const = sum_d ((mu - c)^2 P + log sigma^2) + D log 2 pi,

a (J, 2D + 1) by (2D + 1, N) product for all J components at once.
``_coefficients`` builds the left factor once per parameter set, so a
caller scoring many blocks (``ensemble.score_samples``) pays for it once.
Expanding around c rather than the origin keeps the cancelling terms at
the scale of the data's spread, not of its offset: against the
per-component ``(z - mu)^2`` loop the log densities and everything
derived from them agree to a few hundred eps relative to max(1, |value|),
where an uncentred expansion of features at 1e4 is off by ~5e7 eps.

The output is (K, ..., N): components first and the rows innermost, so
every later reduction over components, classes or members adds up
contiguous slabs of N values rather than short trailing axes.  The
finite constant rides in the GEMM against the feature 1.  The log
weights are added after it: a zero weight's log is -inf, and folded into
the GEMM it makes some BLAS kernels set the invalid-operation flag (seen
at row counts off the kernel's tile width), which numpy reports as a
warning from the product.

Class posteriors take one normaliser.  ``_class_sums`` subtracts from
the joint log densities j their max T over components and classes (per
parameter set and row), takes one exp of max(j - T, -700) and sums it
over components: s_c = p(z | c) exp(-T) up to the floor, so
p(c | z) = s_c / sum_c' s_c' with no class log density, second max-shift
or second exp in between.  The floor keeps exp on numpy's fast path and
every s_c >= e^-700 > 0, so logs of s need no mask; each floored term
adds at most e^-700 ~ 1e-304 to a total whose largest term is exactly 1.
``class_log_densities`` (log-sum-exp over K, with ``logsumexp``, the
package's one max-shift log-sum-exp) remains for the mixture densities
themselves and ``predict``.  EM's E-step keeps ``logsumexp`` too: its
responsibilities must be exactly 0 for a zero-weight component, which
the floor would lift to e^-700.
"""

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConvergenceError, InsufficientDataError, ShapeError
from .formats import HEADER_SIZE, container_dims, container_to_bytes, write_atomic

VARIANCE_FLOOR = 1e-6
COLLAPSE_THRESHOLD = 1e-6

GMMC_MAGIC = b"GMMC"
GMMC_VERSION = 1

_LOG_2PI = float(np.log(2.0 * np.pi))
# exp(-700) ~ 1e-304; numpy's vectorised exp leaves its fast path (~20x
# slower per value) for arguments below -708, where results are subnormal
_EXP_FLOOR = -700.0


@dataclass
class ClassGMM:
    """Point-estimate mixture for one class: weights, per-dim means/variances."""

    class_id: int
    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.means = np.asarray(self.means, dtype=np.float64)
        self.variances = np.asarray(self.variances, dtype=np.float64)
        if self.means.ndim != 2:
            raise ShapeError(f"means must be (K, D), got {self.means.shape}")
        k, d = self.means.shape
        if self.weights.shape != (k,) or self.variances.shape != (k, d):
            raise ShapeError(
                f"inconsistent mixture shapes: weights {self.weights.shape}, "
                f"means {self.means.shape}, variances {self.variances.shape}"
            )
        if not all(np.isfinite(a).all() for a in (self.weights, self.means, self.variances)):
            raise ValueError("mixture parameters must be finite")
        if np.any(self.weights < 0) or abs(self.weights.sum() - 1.0) > 1e-9:
            raise ValueError("mixture weights must be nonnegative and sum to 1")
        if np.any(self.variances < VARIANCE_FLOOR * (1 - 1e-12)):
            raise ValueError(f"variances must be floored at {VARIANCE_FLOOR}")

    @property
    def n_components(self) -> int:
        return self.means.shape[0]

    @property
    def dim(self) -> int:
        return self.means.shape[1]


@dataclass
class GMMClassifier:
    """All per-class mixtures sharing one K and D, ordered by class id.

    ``weights`` (C, K), ``means`` and ``variances`` (C, K, D) stack the
    class parameters once at construction for ``class_log_densities``.
    """

    classes: list[ClassGMM]
    weights: np.ndarray = field(init=False, repr=False, compare=False)
    means: np.ndarray = field(init=False, repr=False, compare=False)
    variances: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.classes:
            raise ValueError("classifier needs at least one class")
        if len({gmm.means.shape for gmm in self.classes}) != 1:
            raise ShapeError("all class mixtures must share K and D")
        ids = [gmm.class_id for gmm in self.classes]
        if ids != sorted(set(ids)):
            raise ValueError("class ids must be strictly increasing")
        for name in ("weights", "means", "variances"):
            setattr(self, name, np.stack([getattr(gmm, name) for gmm in self.classes]))

    @property
    def num_classes(self) -> int:
        return len(self.classes)

    @property
    def feature_dim(self) -> int:
        return self.classes[0].dim

    @property
    def components_per_class(self) -> int:
        return self.classes[0].n_components

    @property
    def class_ids(self) -> np.ndarray:
        return np.array([gmm.class_id for gmm in self.classes], dtype=np.int64)


@dataclass
class SufficientStats:
    """Responsibility-weighted statistics from the final E-step.

    ``counts[k]`` is the effective sample count of component k (shared by
    all of its dimensions), ``means`` the weighted per-dimension means and
    ``sq_devs`` the weighted sums of squared deviations around them.
    ``log_likelihoods`` and ``reseeds`` are fit diagnostics.
    """

    counts: np.ndarray
    means: np.ndarray
    sq_devs: np.ndarray
    log_likelihoods: np.ndarray = field(default_factory=lambda: np.empty(0))
    reseeds: int = 0

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=np.float64)
        self.means = np.asarray(self.means, dtype=np.float64)
        self.sq_devs = np.asarray(self.sq_devs, dtype=np.float64)
        if self.means.shape != self.sq_devs.shape or self.counts.shape != self.means.shape[:1]:
            raise ShapeError("inconsistent sufficient-statistic shapes")
        if np.any(self.counts < 0) or np.any(self.sq_devs < 0):
            raise ValueError("effective counts and squared deviations must be nonnegative")


def _log_weights(weights: np.ndarray) -> np.ndarray:
    """log of mixture weights, with exactly -inf for zero weights."""
    with np.errstate(divide="ignore"):
        return np.where(weights > 0, np.log(np.maximum(weights, 1e-300)), -np.inf)


def logsumexp(a, axis=-1, keepdims=False):
    """log sum exp(a) along ``axis``, as max + log sum exp(a - max); a
    slice that is all -inf gives -inf, not NaN."""
    a = np.asarray(a, dtype=np.float64)
    top = a.max(axis=axis, keepdims=True)
    empty = top == -np.inf
    top[empty] = 0.0
    # the max term is 1, so flooring the others cannot move the sum
    shifted = a - top
    np.maximum(shifted, _EXP_FLOOR, out=shifted)
    out = np.exp(shifted, out=shifted).sum(axis=axis, keepdims=True)
    np.log(out, out=out)
    out += top
    out[empty] = -np.inf
    return out if keepdims else np.squeeze(out, axis=axis)


def _coefficients(log_w, means, variances):
    """GEMM coefficients of (..., K) log weights and (..., K, D) diagonal
    Gaussians (see the module docstring): the centre c (D,), the K-first
    (J, 2D + 1) rows ``[-P/2, (mu - c) P, -const/2]``, the (J,) log
    weights and the (K, ...) shape the J rows reshape to."""
    d = means.shape[-1]
    mu = np.moveaxis(means, -2, 0)
    center = mu.reshape(-1, d).mean(axis=0)
    mu = mu - center
    var = np.moveaxis(variances, -2, 0)
    prec = 1.0 / var
    const = np.sum(mu * mu * prec + np.log(var), axis=-1)
    const += d * _LOG_2PI
    coef = np.concatenate([-0.5 * prec, mu * prec, -0.5 * const[..., None]], axis=-1)
    return center, coef.reshape(-1, 2 * d + 1), np.moveaxis(log_w, -1, 0).ravel(), const.shape


def _joint_log_densities(z, coefficients) -> np.ndarray:
    """log w_k + log N(z | k), shape (K, ..., N), of (N, D) features under
    the ``_coefficients`` of (..., K) mixtures: one (J, 2D + 1) by
    (2D + 1, N) GEMM, rows innermost.  Rows of any other shape raise
    ``ShapeError`` before the product."""
    center, coef, log_w, shape = coefficients
    if z.ndim != 2 or z.shape[1] != center.size:
        raise ShapeError(f"expected rows of dimension {center.size}, got shape {z.shape}")
    n, d = z.shape
    feats = np.empty((2 * d + 1, n))
    np.subtract(z.T, center[:, None], out=feats[d : 2 * d])
    np.multiply(feats[d : 2 * d], feats[d : 2 * d], out=feats[:d])
    feats[2 * d] = 1.0
    out = coef @ feats
    out += log_w[:, None]
    return out.reshape(shape + (n,))


def _e_step(z, log_w, means, variances) -> tuple[np.ndarray, np.ndarray]:
    """Responsibilities (N, K), a transposed view, and mixture log
    densities (N,) of one mixture."""
    joint = _joint_log_densities(z, _coefficients(log_w, means, variances))
    log_p = logsumexp(joint, axis=0)
    joint -= log_p
    return np.exp(joint, out=joint).T, log_p


def _weighted_sq_devs(x: np.ndarray, resp: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Responsibility-weighted sums of squared deviations around each
    component's center, shape (K, D); components lead the temporary so the
    sums over samples round as per component (pairwise only at D = 1)."""
    diff = x - centers[:, None, :]
    out = resp.T[:, :, None] * diff
    out *= diff
    return out.sum(axis=1)


def log_density(z, gmm: ClassGMM):
    """Mixture log density log p(z | c), numerically via log-sum-exp.

    Accepts a single D-vector (returns a float) or an (N, D) batch
    (returns an (N,) array).  Finite for any finite input because the
    variances are floored.
    """
    return class_log_densities(z, gmm)


def _class_sums(joint: np.ndarray) -> np.ndarray:
    """Class sums s = sum_k exp(max(j - T, _EXP_FLOOR)), shape (..., C, N),
    of (K, ..., C, N) joint log densities j (overwritten), T their max over
    K and C per parameter set and row: p(c | z) = s_c / sum_c' s_c'."""
    joint -= joint.max(axis=(0, -2), keepdims=True)
    np.maximum(joint, _EXP_FLOOR, out=joint)
    return np.exp(joint, out=joint).sum(axis=0)


def _per_class(z, params, reduce):
    """``reduce`` of the (K, ..., C, N) joint log densities of one D-vector
    or (N, D) rows under ``params``, with the rows moved first (one vector
    drops the row axis)."""
    z = np.asarray(z, dtype=np.float64)
    coefficients = _coefficients(_log_weights(params.weights), params.means, params.variances)
    out = np.moveaxis(reduce(_joint_log_densities(np.atleast_2d(z), coefficients)), -1, 0)
    return out[0] if z.ndim == 1 else out


def class_log_densities(z, params):
    """log p(z | c), shape (N, ..., C) (or (..., C) for one vector), for
    (..., C, K) ``weights`` and (..., C, K, D) ``means``/``variances``:
    a ``GMMClassifier``, a ``GMMParameterSample`` or a stack of them (or
    one ``ClassGMM``, with no class axis).  The result is a view of a
    rows-innermost (..., C, N) array."""
    return _per_class(z, params, lambda joint: logsumexp(joint, axis=0))


def _normalised_class_sums(joint):
    """Class posteriors s / sum_c s from joint log densities."""
    s = _class_sums(joint)
    s /= s.sum(axis=-2, keepdims=True)
    return s


def class_posterior(z, model: GMMClassifier):
    """p(c | z) under a uniform class prior: p(z|c) / sum_c' p(z|c')."""
    return _per_class(z, model, _normalised_class_sums)


def predict(z, model: GMMClassifier):
    """Class id with the highest density; ties go to the lowest id."""
    ids = model.class_ids[np.argmax(class_log_densities(z, model), axis=-1)]
    return int(ids) if np.ndim(z) == 1 else ids


def _kmeanspp_centers(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++-style seeding: spread initial means by squared distance."""
    n = x.shape[0]
    centers = np.empty((k, x.shape[1]))
    centers[0] = x[rng.integers(n)]
    d2 = np.sum((x - centers[0]) ** 2, axis=1)
    for m in range(1, k):
        total = d2.sum()
        if total > 0:
            centers[m] = x[rng.choice(n, p=d2 / total)]
        else:
            centers[m] = x[rng.integers(n)]
        d2 = np.minimum(d2, np.sum((x - centers[m]) ** 2, axis=1))
    return centers


def em_fit(
    features,
    n_components: int,
    *,
    max_iters: int = 100,
    tol: float = 1e-5,
    seed: int = 0,
    class_id: int = 0,
) -> tuple[ClassGMM, SufficientStats]:
    """Fit one class mixture by EM and return it with its final statistics.

    Soft expectation-maximization with k-means++-style seeding from
    ``seed``; M-step uses the standard maximum-likelihood (1/n) variance
    update, floored at ``VARIANCE_FLOOR``.  Stops when the relative
    log-likelihood improvement falls below ``tol`` or after ``max_iters``
    iterations.  Components whose effective count collapses below
    ``COLLAPSE_THRESHOLD`` are re-seeded to a random data point (counted
    in the returned statistics, not fatal).  The data log-likelihood is
    checked to be non-decreasing (1e-8 slack) across ordinary iterations.
    """
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2:
        raise ShapeError(f"features must be (N, D), got {x.shape}")
    n, d = x.shape
    k = int(n_components)
    if n < k:
        raise InsufficientDataError(f"class {class_id} has {n} samples; needs at least {k}")

    rng = np.random.default_rng(seed)
    means = _kmeanspp_centers(x, k, rng)
    global_var = np.maximum(x.var(axis=0), VARIANCE_FLOOR)
    variances = np.tile(global_var, (k, 1))
    weights = np.full(k, 1.0 / k)

    ll_history: list[float] = []
    reseeds = 0
    prev_ll = -np.inf
    check_monotone = True
    for _ in range(max_iters):
        resp, log_p = _e_step(x, _log_weights(weights), means, variances)
        ll = float(log_p.sum())
        if check_monotone and ll_history and not ll >= prev_ll - 1e-8 * max(1.0, abs(prev_ll)):
            raise ConvergenceError(f"EM log-likelihood decreased: {prev_ll} -> {ll}")
        ll_history.append(ll)

        if ll_history[:-1] and abs(ll - prev_ll) < tol * max(1.0, abs(prev_ll)):
            break
        prev_ll = ll

        # M-step
        nk = resp.sum(axis=0)
        collapsed = nk < COLLAPSE_THRESHOLD
        weights = np.where(collapsed, 1.0 / n, nk / n)
        weights = weights / weights.sum()
        safe_nk = np.maximum(nk, COLLAPSE_THRESHOLD)[:, None]
        means = (resp.T @ x) / safe_nk
        variances = np.maximum(_weighted_sq_devs(x, resp, means) / safe_nk, VARIANCE_FLOOR)
        means[collapsed] = x[rng.integers(n, size=collapsed.sum())]
        variances[collapsed] = global_var
        reseeds += int(collapsed.sum())
        check_monotone = not collapsed.any()

    gmm = ClassGMM(class_id, weights, means, variances)

    # final E-step under the returned parameters feeds the Bayesian updates
    resp, _ = _e_step(x, _log_weights(weights), means, variances)
    nk = resp.sum(axis=0)
    xbar = np.where(nk[:, None] > 0, (resp.T @ x) / np.maximum(nk, 1e-300)[:, None], means)
    sq = _weighted_sq_devs(x, resp, xbar)
    return gmm, SufficientStats(nk, xbar, sq, np.asarray(ll_history), reseeds)


def fit_classifier(
    per_class, n_components: int, *, max_iters: int = 100, tol: float = 1e-5, seed=0
) -> tuple[GMMClassifier, list[SufficientStats]]:
    """``em_fit`` class c to the c-th (N_c, D) array of ``per_class`` (any
    iterable) with seed child c of ``seed``, an int or a ``SeedSequence``
    whose next child stays free; returns the classifier and the stats."""
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    fits = [
        em_fit(x, n_components, max_iters=max_iters, tol=tol, seed=root.spawn(1)[0], class_id=c)
        for c, x in enumerate(per_class)
    ]
    return GMMClassifier([gmm for gmm, _ in fits]), [st for _, st in fits]


def classifier_to_bytes(model: GMMClassifier) -> bytes:
    """Serialize to the GMMC container (classes are stored positionally)."""
    body = np.concatenate(
        [model.weights, model.means.reshape(model.num_classes, -1),
         model.variances.reshape(model.num_classes, -1)], axis=1
    )
    return container_to_bytes(GMMC_MAGIC, GMMC_VERSION, model.means.shape, body.astype("<f8"))


def classifier_from_bytes(data: bytes) -> GMMClassifier:
    """Parse a GMMC container; class ids are assigned 0..C-1 in file order."""
    c, k, d = container_dims(
        data, GMMC_MAGIC, GMMC_VERSION, lambda c, k, d: 8 * c * (k + 2 * k * d)
    )
    body = np.frombuffer(data, dtype="<f8", offset=HEADER_SIZE).reshape(c, k + 2 * k * d)
    means = body[:, k : k + k * d].reshape(c, k, d)
    variances = body[:, k + k * d :].reshape(c, k, d)
    return GMMClassifier(
        [ClassGMM(i, body[i, :k].copy(), means[i].copy(), variances[i].copy()) for i in range(c)]
    )


def save_classifier(model: GMMClassifier, path) -> None:
    write_atomic(path, classifier_to_bytes(model))


def load_classifier(path) -> GMMClassifier:
    return classifier_from_bytes(Path(path).read_bytes())
