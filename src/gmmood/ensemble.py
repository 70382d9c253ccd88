"""Ensemble voting and uncertainty scores over sampled GMM parameter sets.

Each ensemble member classifies a feature vector by its highest
class-conditional density.  Vote entropy over the member predictions is
the epistemic score; the classical decomposition (predictive entropy =
aleatoric + mutual information) over the member posteriors provides the
comparison baselines, together with the point-estimate model's posterior
entropy and maximum posterior.  All entropies are in nats.

Scoring stacks the point model as member 0 in front of the members and
builds their GEMM coefficients once per call; each block of pixels then
takes all their joint log densities from one call of the ``gmm`` kernel.
A block holds ``_BLOCK_VALUES`` component log densities, (M + 1) * C * K
per pixel (the kernel's GEMM outputs), so its memory is bounded for any
scan size and feature dimension.

A block is reduced on its (M + 1, C, N) class sums s (``gmm._class_sums``,
one exp per component density, pixels innermost): p = s / S with S the
sum over C; each posterior entropy is sum_c p (log S - log s), whose
terms are each >= 0 because s <= S, so an entropy far below log S is not
rounded away.  One max of s over C per set serves two uses: each
member's vote is the lowest class id holding it, tallied by one
``np.bincount``, and the point model's maximum posterior is that max
over S, the max of p bit for bit (division by one S > 0 is correctly
rounded and monotone).  The floor of ``_class_sums`` keeps every s > 0, so no log
needs a mask and no class log density, second exp or second normaliser
is taken.  The point model's entropy comes from member 0 of the same
arrays.  A pixel's vote entropy sums a table of (k / M) log(k / M),
k = 0..M, built once per block, at its C vote counts.

``SampleScores`` declares what scoring gives per pixel; ``SCORE_CHANNELS``
and ``UncertaintyMap`` (the record on a scan's grid) follow from it.
Each block's reduction hands back every field by name, written into its
rows of one ``SampleScores`` that ``score_samples`` allocates for all rows,
so no block result is kept; ``vote`` reads one pixel's (N, C) vote counts.
Rows reach the kernel as given, float32 from a feature map, and it
widens them.

The blocks of a call run on the package's thread pool,
``_blas.map_on_cores``: the calling thread and one helper per other core
each take the next block in turn, with OpenBLAS held at one thread (the
calling thread takes them all where none is found).  Each block reduces
its own contiguous kernel output, so the scores are bit-identical to the
serial path.
"""

from dataclasses import dataclass, fields

import numpy as np

from . import _blas
from .errors import ShapeError
from .formats import FeatureMap
from .gmm import GMMClassifier, _class_sums, _coefficients, _joint_log_densities, _log_weights
from .gmm import logsumexp  # noqa: F401  unused here; perfbench traces ensemble.logsumexp

# float64 log densities (GEMM outputs) per scoring block, 2 MB: 328 rows
# at the paper's shape (M = 20, C = 19, K = 2).  Pooled on 2 vCPUs, one
# 46.5k-pixel scan took (median of 18 interleaved calls) 289 ms at 2**17
# and 250 at 2**18 for D = 32, 245 and 211 for D = 5; 2**16 was 1.3-1.4x
# slower than 2**17, and 2**19 read from 6% slower to 7% faster than
# 2**18 across runs.  Each row's scores are those of 2**17's blocks bit
# for bit, but among a call's last N mod 8 rows, which take the GEMM's
# tail kernels.
_BLOCK_VALUES = 1 << 18


@dataclass
class VoteRecord:
    """Histogram of ensemble votes over the C classes."""

    counts: np.ndarray

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if self.counts.ndim != 1:
            raise ShapeError(f"counts must be 1-d, got shape {self.counts.shape}")
        if np.any(self.counts < 0) or self.counts.sum() < 1:
            raise ValueError("vote counts must be nonnegative with at least one vote")

    @property
    def n(self) -> int:
        return int(self.counts.sum())


@dataclass(frozen=True)
class UncertaintyDecomposition:
    predictive_entropy: float
    aleatoric: float
    mutual_information: float


@dataclass
class SampleScores:
    """Per pixel: the predicted class (the lowest class id with the most
    member votes), then one float64 field per score channel."""

    predicted_class: np.ndarray
    epistemic: np.ndarray
    predictive_entropy: np.ndarray
    aleatoric: np.ndarray
    mutual_information: np.ndarray
    deterministic_entropy: np.ndarray
    max_posterior: np.ndarray


SCORE_CHANNELS = tuple(f.name for f in fields(SampleScores)[1:])


@dataclass
class UncertaintyMap(SampleScores):
    """``SampleScores`` on the (H, W) grid; invalid pixels hold class -1
    and NaN scores."""

    valid: np.ndarray


def _p_log_p(p: np.ndarray) -> np.ndarray:
    """p * log p elementwise, with 0 * log 0 = 0."""
    log_p = np.log(p, out=np.zeros(p.shape), where=p > 0)
    log_p *= p
    return log_p


def _entropy_rows(p: np.ndarray, axis=-1) -> np.ndarray:
    """Shannon entropy along ``axis``, with 0 * log 0 = 0; a certain row
    gives +0.0 (the sum's negation would give -0.0)."""
    return 0.0 - _p_log_p(p).sum(axis=axis)


def _vote_table(m: int) -> np.ndarray:
    """(k / m) log(k / m) for k = 0..m: a row of vote counts out of m has
    entropy ``0.0 - table[counts].sum(axis=-1)``, the bytes of
    ``_entropy_rows(counts / m)`` (the same operations on the same values)."""
    return _p_log_p(np.arange(m + 1) / m)


def _stack(ensemble: list[GMMClassifier], *point_model):
    """GEMM coefficients (``gmm._coefficients``) of the point model, when
    given, followed by the ensemble members, stacked along a leading set
    axis."""
    if not ensemble:
        raise ValueError("ensemble must be non-empty")
    models = [*point_model, *ensemble]
    weights, means, variances = (
        np.stack([getattr(m, k) for m in models]) for k in ("weights", "means", "variances")
    )
    return _coefficients(_log_weights(weights), means, variances)


def _reduce_members(joint: np.ndarray, point_model: bool) -> dict:
    """Scores from (K, S, C, N) joint log densities (overwritten) of the
    point model, set 0 when ``point_model``, and the M members: each
    ``SampleScores`` field of the N rows by name, its last two only with
    the point model, and the members' (N, C) vote ``counts``."""
    s = _class_sums(joint)
    c, n = s.shape[1:]
    top = s.max(axis=1, keepdims=True)
    members = slice(int(point_model), None)
    # each member's vote is the lowest class id holding its maximum: the
    # hit with the largest weight c - k, k the class id
    hit = s[members] == top[members]
    hit = np.multiply(hit, np.arange(c, 0, -1, dtype=np.min_scalar_type(c))[:, None])
    best = c - hit.max(axis=1) + c * np.arange(n)
    counts = np.bincount(best.ravel(), minlength=n * c).reshape(n, c)
    total = s.sum(axis=1, keepdims=True)
    post = s / total
    # -log p = log total - log s >= 0 term by term, so entropies small
    # next to log total are not absorbed; the floor keeps every s > 0
    neg_log_post = np.subtract(np.log(total), np.log(s, out=s), out=s)
    neg_log_post *= post
    entropy = neg_log_post.sum(axis=1)
    predictive = _entropy_rows(post[members].mean(axis=0), axis=0)
    aleatoric = entropy[members].mean(axis=0)
    vote_table = _vote_table(s.shape[0] - int(point_model))
    scores = dict(counts=counts, predicted_class=np.argmax(counts, axis=1),
                  epistemic=0.0 - vote_table[counts].sum(axis=1), predictive_entropy=predictive,
                  aleatoric=aleatoric, mutual_information=np.maximum(predictive - aleatoric, 0.0))
    if point_model:
        scores.update(deterministic_entropy=entropy[0], max_posterior=top[0, 0] / total[0, 0])
    return scores


def _reduce_one(z, ensemble: list[GMMClassifier], what: str) -> dict:
    """``_reduce_members`` for a single feature vector, as N = 1 rows."""
    z = np.asarray(z)
    if z.ndim != 1:
        raise ShapeError(f"{what}() takes a single feature vector")
    return _reduce_members(_joint_log_densities(z[None, :], _stack(ensemble)), point_model=False)


def vote(z, ensemble: list[GMMClassifier]) -> VoteRecord:
    """Classify z under every member and tally the votes."""
    return VoteRecord(_reduce_one(z, ensemble, "vote")["counts"][0])


def vote_entropy(record: VoteRecord) -> float:
    """Entropy (nats) of the empirical vote frequencies."""
    return float(0.0 - _vote_table(record.n)[record.counts].sum())


def decompose_uncertainty(
    z, ensemble: list[GMMClassifier]
) -> UncertaintyDecomposition:
    """Predictive entropy, aleatoric part, and their difference (MI).

    Per member, the class posterior at z is computed under that member's
    parameters; the predictive entropy is the entropy of the member-mean
    posterior, the aleatoric part is the mean of the member entropies,
    and the mutual information is their difference, clamped to zero
    against negative floating-point residue.
    """
    scores = _reduce_one(z, ensemble, "decompose_uncertainty")
    return UncertaintyDecomposition(
        **{f.name: float(scores[f.name][0]) for f in fields(UncertaintyDecomposition)})


def score_samples(
    z, model: GMMClassifier, ensemble: list[GMMClassifier]
) -> SampleScores:
    """Vectorized scoring of an (N, D) batch under model + ensemble.

    The point model is stacked as member 0 in front of the ensemble, and
    each block of about ``_BLOCK_VALUES`` log densities, (M + 1) * C * K
    per row, is one kernel call and one reduction whose fields are written
    into its rows of the preallocated result; the kernel widens z."""
    z = np.atleast_2d(np.asarray(z))
    coefficients = _stack(ensemble, model)
    step = max(1, _BLOCK_VALUES // len(coefficients[1]))
    n = len(z)
    out = SampleScores(np.empty(n, np.intp), *(np.empty(n) for _ in SCORE_CHANNELS))

    def block(i):
        rows = slice(i, i + step)
        joint = _joint_log_densities(z[rows], coefficients)
        scores = _reduce_members(joint, point_model=True)
        for field in fields(SampleScores):
            getattr(out, field.name)[rows] = scores[field.name]

    # no rows: one empty block, so that the kernel still checks their dimension
    _blas.map_on_cores(block, range(0, max(n, 1), step))
    return out


def score_feature_map(
    features: FeatureMap, model: GMMClassifier, ensemble: list[GMMClassifier]
) -> UncertaintyMap:
    """Score every valid pixel of a feature map; invalid pixels are skipped
    and hold NaN (class -1).  A map of another dimension than the model's
    raises ``ShapeError`` from the kernel, also with no valid pixel."""
    valid = features.valid
    scores = score_samples(features.values[valid], model, ensemble)
    shape = (features.height, features.width)
    grids = {name: np.full(shape, np.nan) for name in SCORE_CHANNELS}
    grids["predicted_class"] = np.full(shape, -1, dtype=np.int32)
    for name, grid in grids.items():
        grid[valid] = getattr(scores, name)
    return UncertaintyMap(**grids, valid=valid.copy())
