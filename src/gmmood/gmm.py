"""Class-conditional diagonal-covariance Gaussian mixtures.

Each semantic class is modeled as a K-component mixture of axis-aligned
Gaussians over a D-dimensional feature space.  This module provides
density evaluation in log space, the class posterior under a uniform
class prior, maximum-density prediction, and EM fitting that also emits
the responsibility-weighted sufficient statistics consumed by the
Bayesian layer.

Every parameter set (a ``GMMClassifier``, EM's ``SufficientStats``, a
``nig.NIGPosteriorBank`` and its sampled ``nig.GMMParameterSample``s)
holds (C, K, D) arrays beside a (C, K) one, class c in row c;
``_check_parameters`` alone stores them as float64 and checks their
shapes and finiteness.  ``em_fit`` fits one class and returns one-row
sets, which ``GMMClassifier.of`` and ``nig.build_bank`` concatenate.

One GEMM, ``_joint``, computes every Gaussian log density from a
(2D + 1, N) operand ``[(z - c)^2, z - c, 1]`` of the rows about a centre
c.  Scoring's ``_joint_log_densities`` builds a fresh operand per block
about the mean of the stacked component means, for the point-estimate
``GMMClassifier``, a sampled member (``nig.GMMParameterSample``) or a
whole ensemble stacked along leading member axes.  It is the one place
that checks the rows' feature dimension, before its product, and it
widens them to float64 as it writes ``z - c``.

A fit builds one operand per class, once, and never writes it again.
``_operand`` widens the rows into its middle D rows (``fit_classifier``
widens a class's float32 per-scan parts straight there; ``em_fit``
copies an (N, D) array there, in the same order), rounds their float64
mean to float32 for the centre cbar, centres the rows in place into
Y = x - cbar, squares them into the first D rows and sets the last row
to ones.  Every E-step is then ``_coefficients`` about cbar times that
operand, plus the log weights, with no ``z - c``, square or ones row
per iteration.  The other passes read Y: ``_moments`` (its means are
shifted back by cbar), k-means++ seeding and collapse re-seeds (which
take ``Y[:, j] + cbar``) and the global variance (from the operand's
sum of Y^2 and the rows' mean).

For float32 x, ``x - cbar`` is exact in float64 when the magnitudes of x
and cbar are within 2^28 of each other: both have 24-bit significands, so
the difference needs at most 53 bits.  Then ``Y + cbar`` gives back every
row bit for bit, ``Y_i - Y_j`` is exactly ``x_i - x_j``, and seeding on Y
picks and returns the same seeds as seeding on the uncentred rows.
Float64 features that float32 cannot represent, or magnitudes more than
2^28 apart, round once in ``x - cbar``, as a per-iteration ``z - c``
would; a mean beyond float32's range is kept in float64.

A class's fit holds its operand, 8 (2D + 1) / D B per feature value, and
one (D, N) float64 scratch for seeding and ``_moments``, 8 B: 24.25 B at
D = 32.

``_moments`` gives the M-step and the final statistics: the effective
counts, the means (one (K, N) by (N, D) GEMM over the counts) and each
component's sums of squared deviations about its new mean, subtracted
into the scratch, squared in place and weighted by one matrix-vector
product.  Second moments about the kernel's shared centre c would come
from one GEMM with the E-step's operand, as ``S2 - nk (m - c)^2``, but
that difference cancels at the scale of a component's offset from c: on
two unit-sigma components 1e6 apart it is off by ~1e-4 relative, where
deviations about each component's own mean stay within ~1e-14 of a
per-component float64 loop.

The kernel expands the quadratic form into one float64 GEMM.  With
P = 1/sigma^2 and c the operand's centre (by default the mean of all
the component means passed in),

    log N(z | mu, sigma^2) = [-P/2, (mu - c) P, -const/2] @ [(z - c)^2, z - c, 1],
    const = sum_d ((mu - c)^2 P + log sigma^2) + D log 2 pi,

a (J, 2D + 1) by (2D + 1, N) product for all J components at once.
``_coefficients`` builds the left factor once per parameter set, so a
caller scoring many blocks (``ensemble.score_samples``) pays for it once.
Expanding around any fixed c near the data rather than the origin keeps
the cancelling terms at the scale of the data's spread, not of its
offset: against the
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
It works in place on the (K, ..., C, N) joint array: T is one max over
the K and C axes (a max is exact in any order), and s is component 0's
slab with the others added into it in turn, the order of ``.sum(axis=0)``
and so its bytes.  So the class sums allocate no (..., C, N) array
beyond the joint one, and s is a view that holds all of it: a caller
that keeps posteriors divides into a new array.
``class_log_densities`` (log-sum-exp over K, with ``logsumexp``, the
package's one max-shift log-sum-exp) remains for the mixture densities
themselves and ``predict``.  EM's E-step keeps ``logsumexp`` too: its
responsibilities must be exactly 0 for a zero-weight component, which
the floor would lift to e^-700.
"""

from dataclasses import dataclass, field

import numpy as np

from . import _blas
from .errors import ConvergenceError, Error, InsufficientDataError, ShapeError
from .formats import Container, _read_container, write_atomic

VARIANCE_FLOOR = 1e-6
COLLAPSE_THRESHOLD = 1e-6

_LOG_2PI = float(np.log(2.0 * np.pi))
# exp(-700) ~ 1e-304; numpy's vectorised exp leaves its fast path (~20x
# slower per value) for arguments below -708, where results are subnormal
_EXP_FLOOR = -700.0


def _check_parameters(obj, per_component: str, *per_dim: str) -> None:
    """Store the named arrays of parameter set ``obj`` as float64: raise
    ``ShapeError`` unless the ``per_dim`` ones share one (C, K, D) shape,
    each axis at least 1, and ``per_component`` is (C, K), and
    ``ValueError`` at the first value that is not finite."""
    arrays = {n: np.asarray(getattr(obj, n), dtype=np.float64) for n in (*per_dim, per_component)}
    shapes = [a.shape for a in arrays.values()]
    expected = [shapes[0]] * len(per_dim) + [shapes[0][:-1]]
    if len(shapes[0]) != 3 or 0 in shapes[0] or shapes != expected:
        raise ShapeError(
            f"{type(obj).__name__}: {', '.join(per_dim)} must be (C, K, D) and "
            f"{per_component} (C, K), every axis at least 1, got "
            + ", ".join(f"{n} {a.shape}" for n, a in arrays.items())
        )
    for name, a in arrays.items():
        setattr(obj, name, a)
        finite = np.isfinite(a)
        if not finite.all():
            index = tuple(int(i) for i in np.unravel_index(np.argmin(finite), a.shape))
            raise ValueError(
                f"{type(obj).__name__}.{name} must be finite, got {a[index]} at index {index}"
            )


@dataclass
class GMMClassifier:
    """Point-estimate mixtures of C classes sharing one K and D: class c
    is row c of ``weights`` (C, K) and ``means``/``variances`` (C, K, D).
    Each class's weights are nonnegative and sum to 1, and every variance
    is at ``VARIANCE_FLOOR`` or above."""

    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray

    def __post_init__(self):
        _check_parameters(self, "weights", "means", "variances")
        if np.any(self.weights < 0) or np.any(np.abs(self.weights.sum(axis=-1) - 1.0) > 1e-9):
            raise ValueError("mixture weights must be nonnegative and sum to 1")
        if np.any(self.variances < VARIANCE_FLOOR * (1 - 1e-12)):
            raise ValueError(f"variances must be floored at {VARIANCE_FLOOR}")

    @classmethod
    def of(cls, classifiers: list["GMMClassifier"]) -> "GMMClassifier":
        """The classifier whose rows are those of ``classifiers``, in order."""
        names = ("weights", "means", "variances")
        return cls(*(np.concatenate([getattr(m, n) for m in classifiers]) for n in names))

    @property
    def num_classes(self) -> int:
        return self.means.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.means.shape[2]


GMMC = Container(b"GMMC", 1, lambda c, k, d: [
    ([("weights", "<f8", (k,)), ("means", "<f8", (k, d)), ("variances", "<f8", (k, d))], (c,)),
])


@dataclass
class SufficientStats:
    """Responsibility-weighted statistics from the final E-step of a fit,
    class c in row c (``em_fit`` gives one row).

    ``counts[c, k]`` is the effective sample count of component k of
    class c (shared by all of its dimensions), ``means`` (C, K, D) the
    weighted per-dimension means and ``sq_devs`` the weighted sums of
    squared deviations around them.
    ``log_likelihoods`` and ``reseeds`` are fit diagnostics.
    """

    counts: np.ndarray
    means: np.ndarray
    sq_devs: np.ndarray
    log_likelihoods: np.ndarray = field(default_factory=lambda: np.empty(0))
    reseeds: int = 0

    def __post_init__(self):
        _check_parameters(self, "counts", "means", "sq_devs")
        if np.any(self.counts < 0) or np.any(self.sq_devs < 0):
            raise ValueError("effective counts and squared deviations must be nonnegative")


def _log_weights(weights: np.ndarray) -> np.ndarray:
    """log of mixture weights, with exactly -inf for zero weights."""
    out = np.full(weights.shape, -np.inf)
    return np.log(np.maximum(weights, 1e-300), out=out, where=weights > 0)


def logsumexp(a, axis=-1):
    """log sum exp(a) along ``axis``, as max + log sum exp(a - max); a
    slice that is all -inf gives -inf, not NaN."""
    a = np.asarray(a, dtype=np.float64)
    top = a.max(axis=axis, keepdims=True)
    empty = top == -np.inf
    patch = empty.any()
    if patch:
        top[empty] = 0.0
    # the max term is 1, so flooring the others cannot move the sum
    shifted = a - top
    np.maximum(shifted, _EXP_FLOOR, out=shifted)
    out = np.exp(shifted, out=shifted).sum(axis=axis, keepdims=True)
    np.log(out, out=out)
    out += top
    if patch:
        out[empty] = -np.inf
    return np.squeeze(out, axis=axis)


def _coefficients(log_w, means, variances, center=None):
    """GEMM coefficients of (..., K) log weights and (..., K, D) diagonal
    Gaussians about ``center`` (see the module docstring), by default the
    mean of the component means: the centre c (D,), the K-first
    (J, 2D + 1) rows ``[-P/2, (mu - c) P, -const/2]``, the (J,) log
    weights and the (K, ...) shape the J rows reshape to.  Raises
    ``ValueError`` when a coefficient is not finite: a variance too small
    for float64 next to its mean's distance from the centre."""
    d = means.shape[-1]
    lead = means.ndim - 2
    k_first = (lead, *range(lead), lead + 1)  # the axes of np.moveaxis(means, -2, 0)
    mu = means.transpose(k_first)
    if center is None:
        center = mu.reshape(-1, d).mean(axis=0)
    mu = mu - center
    var = variances.transpose(k_first)
    with np.errstate(all="ignore"):  # refused below by name
        prec = 1.0 / var
        const = np.sum(mu * mu * prec + np.log(var), axis=-1)
        const += d * _LOG_2PI
        coef = np.concatenate([-0.5 * prec, mu * prec, -0.5 * const[..., None]], axis=-1)
    if not np.isfinite(coef).all():
        raise ValueError(f"Gaussian log-density coefficients overflow float64: variances down to "
                         f"{var.min():.3g}, means up to {np.abs(mu).max():.3g} from their centre")
    return center, coef.reshape(-1, 2 * d + 1), log_w.transpose(k_first[:-1]).ravel(), const.shape


def _fill_operand(operand: np.ndarray) -> None:
    """Complete a (2D + 1, N) operand whose rows D to 2D hold ``z - c``:
    their squares into rows 0 to D and ones into the last row."""
    d = operand.shape[0] // 2
    np.multiply(operand[d : 2 * d], operand[d : 2 * d], out=operand[:d])
    operand[2 * d] = 1.0


def _joint(operand, coefficients) -> np.ndarray:
    """log w_k + log N(z | k), shape (K, ..., N), from the (2D + 1, N)
    operand of rows about the centre of the ``_coefficients`` of (..., K)
    mixtures: one (J, 2D + 1) by (2D + 1, N) GEMM, rows innermost."""
    _, coef, log_w, shape = coefficients
    out = coef @ operand
    out += log_w[:, None]
    return out.reshape(shape + (operand.shape[1],))


def _joint_log_densities(z, coefficients) -> np.ndarray:
    """``_joint`` of (N, D) features on a fresh operand.  Rows of any
    other shape raise ``ShapeError`` before the product; rows of a
    narrower dtype are widened to float64 as ``z - c`` is written."""
    center = coefficients[0]
    if z.ndim != 2 or z.shape[1] != center.size:
        raise ShapeError(f"expected rows of dimension {center.size}, got shape {z.shape}")
    n, d = z.shape
    operand = np.empty((2 * d + 1, n))
    np.subtract(z.T, center[:, None], out=operand[d : 2 * d])
    _fill_operand(operand)
    return _joint(operand, coefficients)


def _operand(x, operand=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A fit's (2D + 1, N) operand of (N, D) rows ``x``, its centre cbar
    (see the module docstring) and the rows' float64 mean minus cbar;
    ``operand``, when given, already holds ``x.T`` in its rows D to 2D
    and is built in place."""
    n, d = x.shape
    if operand is None:
        operand = np.empty((2 * d + 1, n))
        operand[d : 2 * d] = x.T
    rows = operand[d : 2 * d]
    mean = rows.sum(axis=1) / n
    with np.errstate(over="ignore"):
        center = mean.astype(np.float32).astype(np.float64)
    center = np.where(np.isfinite(center), center, mean)
    rows -= center[:, None]
    _fill_operand(operand)
    return operand, center, mean - center


def _e_step(operand, center, log_w, means, variances) -> tuple[np.ndarray, np.ndarray]:
    """Responsibilities (N, K), a transposed view, and mixture log
    densities (N,) of one mixture on a fit's operand about ``center``."""
    joint = _joint(operand, _coefficients(log_w, means, variances, center))
    log_p = logsumexp(joint, axis=0)
    joint -= log_p
    return np.exp(joint, out=joint).T, log_p


def _moments(rows: np.ndarray, resp: np.ndarray, scratch: np.ndarray) -> tuple:
    """Effective counts (K,), means (K, D) and sums of squared deviations
    about those means (K, D) of feature-major (D, N) ``rows`` under (K, N)
    responsibilities; ``scratch`` is a (D, N) float64 buffer.  A component
    of zero count gets mean 0 and sums 0."""
    nk = resp.sum(axis=1)
    means = resp @ rows.T
    means /= np.maximum(nk, 1e-300)[:, None]
    sq_devs = np.empty(means.shape)
    for k, mean in enumerate(means):
        np.subtract(rows, mean[:, None], out=scratch)
        np.multiply(scratch, scratch, out=scratch)
        np.matmul(scratch, resp[k], out=sq_devs[k])
    return nk, means, sq_devs


def _class_sums(joint: np.ndarray) -> np.ndarray:
    """Class sums s = sum_k exp(max(j - T, _EXP_FLOOR)), shape (..., C, N),
    of (K, ..., C, N) joint log densities j (overwritten), T their max over
    K and C per parameter set and row: p(c | z) = s_c / sum_c' s_c'.  s is
    ``joint[0]``, a view that holds the whole joint array."""
    joint -= joint.max(axis=(0, -2), keepdims=True)
    np.maximum(joint, _EXP_FLOOR, out=joint)
    np.exp(joint, out=joint)
    s = joint[0]
    for slab in joint[1:]:
        s += slab
    return s


def _per_class(z, params, reduce):
    """``reduce`` of the (K, ..., C, N) joint log densities of one D-vector
    or (N, D) rows under ``params``, with the rows moved first (one vector
    drops the row axis)."""
    z = np.asarray(z)
    coefficients = _coefficients(_log_weights(params.weights), params.means, params.variances)
    out = np.moveaxis(reduce(_joint_log_densities(np.atleast_2d(z), coefficients)), -1, 0)
    return out[0] if z.ndim == 1 else out


def class_log_densities(z, params):
    """log p(z | c), shape (N, ..., C) (or (..., C) for one vector), for
    (..., C, K) ``weights`` and (..., C, K, D) ``means``/``variances``:
    a ``GMMClassifier``, a ``GMMParameterSample`` or a stack of them.
    The result is a view of a rows-innermost (..., C, N) array; it is
    finite for finite z, since the variances are floored."""
    return _per_class(z, params, lambda joint: logsumexp(joint, axis=0))


def _normalised_class_sums(joint):
    """Class posteriors s / sum_c s from joint log densities, in a new
    array that does not hold the joint one."""
    s = _class_sums(joint)
    return s / s.sum(axis=-2, keepdims=True)


def class_posterior(z, model: GMMClassifier):
    """p(c | z) under a uniform class prior: p(z|c) / sum_c' p(z|c')."""
    return _per_class(z, model, _normalised_class_sums)


def predict(z, model: GMMClassifier):
    """Class id with the highest density; ties go to the lowest id."""
    ids = np.argmax(class_log_densities(z, model), axis=-1)
    return int(ids) if np.ndim(z) == 1 else ids


def _kmeanspp_centers(
    rows: np.ndarray, k: int, rng: np.random.Generator, scratch: np.ndarray
) -> np.ndarray:
    """k-means++-style seeding from feature-major (D, N) rows: spread
    initial means by squared distance; ``scratch`` is a (D, N) float64
    buffer."""
    d, n = rows.shape
    centers = np.empty((k, d))

    def sq_dists(center):
        np.subtract(rows, center[:, None], out=scratch)
        np.multiply(scratch, scratch, out=scratch)
        return scratch.sum(axis=0)

    # squared distance to the nearest centre drawn so far, taken only for
    # the centres still to draw
    d2 = np.full(n, np.inf)
    centers[0] = rows[:, rng.integers(n)]
    for m in range(1, k):
        np.minimum(d2, sq_dists(centers[m - 1]), out=d2)
        total = d2.sum()
        if total > 0:
            centers[m] = rows[:, rng.choice(n, p=d2 / total)]
        else:
            centers[m] = rows[:, rng.integers(n)]
    return centers


def _check_samples(n: int, k: int, c: int) -> None:
    if n < k:
        raise InsufficientDataError(f"class {c} has {n} samples; needs at least {k}")


def em_fit(
    features,
    n_components: int,
    *,
    max_iters: int = 100,
    tol: float = 1e-5,
    seed: int = 0,
    class_id: int = 0,
    operand=None,
) -> tuple[GMMClassifier, SufficientStats]:
    """Fit one class mixture by EM and return it with its final statistics,
    each a one-row set: weights and counts (1, K), the rest (1, K, D).

    Soft expectation-maximization with k-means++-style seeding from
    ``seed``; M-step uses the standard maximum-likelihood (1/n) variance
    update, floored at ``VARIANCE_FLOOR``.  Stops when the relative
    log-likelihood improvement falls below ``tol`` or after ``max_iters``
    iterations.  Components whose effective count collapses below
    ``COLLAPSE_THRESHOLD`` are re-seeded to a random data point (counted
    in the returned statistics, not fatal).  The data log-likelihood is
    checked to be non-decreasing (1e-8 slack) across ordinary iterations;
    a decrease raises ``ConvergenceError`` naming ``class_id``.

    Every pass reads the class's one operand (see the module docstring),
    built from a copy of ``features``, which are never written.
    ``fit_classifier`` passes ``operand``, a (2D + 1, N) float64 array
    whose rows D to 2D are ``features.T`` (it widens a class's blocks
    there): the operand is then built in place, overwriting ``features``.
    """
    x = np.asarray(features)
    if x.ndim != 2:
        raise ShapeError(f"features must be (N, D), got {x.shape}")
    n, d = x.shape
    k = int(n_components)
    if k < 1 or max_iters < 1:
        raise ValueError(f"n_components and max_iters must be at least 1, got {k} and {max_iters}")
    _check_samples(n, k, class_id)
    if operand is not None and operand[d : 2 * d].__array_interface__ != x.T.__array_interface__:
        raise ValueError("operand rows D to 2D must be features.T")

    operand, center, shift = _operand(x, operand)
    rows = operand[d : 2 * d]
    scratch = np.empty((d, n))
    rng = np.random.default_rng(seed)
    means = _kmeanspp_centers(rows, k, rng, scratch) + center
    global_var = np.maximum(operand[:d].sum(axis=1) / n - shift * shift, VARIANCE_FLOOR)
    variances = np.tile(global_var, (k, 1))
    weights = np.full(k, 1.0 / k)

    ll_history: list[float] = []
    reseeds = 0
    prev_ll = -np.inf
    check_monotone = True
    for _ in range(max_iters):
        resp, log_p = _e_step(operand, center, _log_weights(weights), means, variances)
        ll = float(log_p.sum())
        if check_monotone and ll_history and not ll >= prev_ll - 1e-8 * max(1.0, abs(prev_ll)):
            raise ConvergenceError(
                f"EM log-likelihood decreased: {prev_ll} -> {ll} (class {class_id})"
            )
        ll_history.append(ll)

        if ll_history[:-1] and abs(ll - prev_ll) < tol * max(1.0, abs(prev_ll)):
            break
        prev_ll = ll

        # M-step; a collapsed component's mean and variance are replaced
        nk, means, sq_devs = _moments(rows, resp.T, scratch)
        means += center
        collapsed = nk < COLLAPSE_THRESHOLD
        weights = nk / n
        safe_nk = np.maximum(nk, COLLAPSE_THRESHOLD)[:, None]
        variances = np.maximum(sq_devs / safe_nk, VARIANCE_FLOOR)
        check_monotone = not collapsed.any()
        if not check_monotone:
            weights[collapsed] = 1.0 / n
            means[collapsed] = rows[:, rng.integers(n, size=collapsed.sum())].T + center
            variances[collapsed] = global_var
            reseeds += int(collapsed.sum())
        weights /= weights.sum()
    else:  # ended on an M-step: a stop on tol has this E-step already
        resp, _ = _e_step(operand, center, _log_weights(weights), means, variances)

    gmm = GMMClassifier(weights[None], means[None], variances[None])
    # statistics of the E-step under the returned parameters feed the Bayesian updates
    nk, xbar, sq = _moments(rows, resp.T, scratch)
    xbar = np.where(nk[:, None] > 0, xbar + center, means)
    return gmm, SufficientStats(nk[None], xbar[None], sq[None], np.asarray(ll_history), reseeds)


def fit_classifier(
    per_class, n_components: int, *, max_iters: int = 100, tol: float = 1e-5, seed=0
) -> tuple[GMMClassifier, list[SufficientStats]]:
    """``em_fit`` class c to ``per_class[c]``, an (N_c, D) array or a
    list of (N_i, D) blocks whose rows, in list order, are the class's,
    with seed child c of ``seed``, an int or a ``SeedSequence`` whose
    next child stays free; returns the classifier, the classes' one-row
    fits concatenated once, and each class's one-row stats.

    A class with a block that is not (N, D), or short of samples, is
    reported before any fit starts, the lowest one first.  The classes are
    then fitted on the package's thread pool (``_blas.map_on_cores``: the
    calling thread and one helper per other core each take the next class
    in turn), largest first, so that the last to finish is a small one.
    Each runs on its own seed and rows, so the results are those of
    fitting them one after another, and
    results and errors come back in class order: an error of the
    package's own (``errors.Error``) is the lowest failing class's, any
    other the first met in the order of fitting.  The thread that fits
    a class widens its blocks (an array is one block) straight into the
    middle rows of its operand, so the class's rows are never
    concatenated in their own dtype first."""
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    seeds = root.spawn(len(per_class))
    blocks = [x if isinstance(x, list) else [x] for x in per_class]
    sizes = [sum(map(len, x)) for x in blocks]
    for c, (x, n) in enumerate(zip(blocks, sizes)):
        if any(np.ndim(block) != 2 for block in x):
            raise ShapeError(f"class {c}: features must be (N, D) blocks")
        _check_samples(n, int(n_components), c)

    def fit(c):
        d = blocks[c][0].shape[1]
        operand = np.empty((2 * d + 1, sizes[c]))
        x = np.concatenate([block.T for block in blocks[c]], axis=1, out=operand[d : 2 * d]).T
        try:
            return em_fit(
                x, n_components, max_iters=max_iters, tol=tol, seed=seeds[c], class_id=c,
                operand=operand,
            )
        except Error as exc:  # raised below, in class order
            return exc

    order = sorted(range(len(per_class)), key=lambda c: -sizes[c])
    done = dict(zip(order, _blas.map_on_cores(fit, order)))
    fits = [done[c] for c in range(len(per_class))]
    for result in fits:
        if isinstance(result, Error):
            raise result
    return GMMClassifier.of([gmm for gmm, _ in fits]), [st for _, st in fits]


def classifier_to_bytes(model: GMMClassifier) -> bytes:
    """Serialize to the GMMC container, class c as its c-th record."""
    return GMMC.to_bytes(model.means.shape, (model.weights, model.means, model.variances))


def classifier_from_bytes(data: bytes) -> GMMClassifier:
    """Parse a GMMC container: class c is its c-th record."""
    _, [fields] = GMMC.from_bytes(data)
    return GMMClassifier(*fields)


def save_classifier(model: GMMClassifier, path) -> None:
    write_atomic(path, classifier_to_bytes(model))


def load_classifier(path) -> GMMClassifier:
    return _read_container(path, classifier_from_bytes)
