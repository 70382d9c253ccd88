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
rounded away; each member's vote is the lowest class id holding the
largest s, tallied by one ``np.bincount``.  The floor of
``_class_sums`` keeps every s > 0, so no log needs a mask and no class
log density, second exp or second normaliser is taken.  The point
model's entropy and maximum posterior come from member 0 of the same
arrays.

The blocks of a call run on one process-wide thread pool, one thread
per usable CPU, which every concurrent call shares (``score --jobs N``
scores N scans on the same threads, so they do not oversubscribe the
cores).  They run there only inside ``_blas.single_thread()``, which
holds OpenBLAS at one thread, since its own threads would fight the
pool's; where no OpenBLAS is found the blocks run one after another on
the calling thread.  Each block runs in a copy of the caller's context,
so a caller's ``np.errstate`` holds in it, and reduces its own
contiguous kernel output, so the scores are bit-identical to the serial
path.  Never call ``score_samples`` from a pool thread: it would wait on
blocks queued behind the one it runs in.
"""

import contextvars
import os
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass

import numpy as np

from . import _blas
from .errors import ShapeError
from .formats import FeatureMap
from .gmm import GMMClassifier, _class_sums, _coefficients, _joint_log_densities, _log_weights
from .gmm import logsumexp  # noqa: F401  unused here; perfbench traces ensemble.logsumexp
from .nig import GMMParameterSample

# float64 log densities (GEMM outputs) per scoring block, 1 MB.  With
# the blocks on the pool, one 46.7k-pixel paper-shape scan took (median
# ms of 30, 2 vCPUs, one | two BLAS threads) 275 | 287 at 2**17 and
# 251 | 255 at 2**18 for D = 32, 241 | 222 and 216 | 207 for D = 5;
# 2**16 and 2**15 were 1.2-2x slower.  The gain of 2**18 is inside the
# quartile spread of 2**17's runs and costs score-d32 ~5 MB of peak RSS.
_BLOCK_VALUES = 1 << 17


def _start_pool():
    """One pool for every scan, so concurrent scans share the cores rather
    than oversubscribe them; its threads start on first use.  A forked
    child starts its own: the parent's threads do not survive the fork,
    and blocks queued on the parent's pool would never run."""
    global _POOL
    _POOL = ThreadPoolExecutor(
        len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1,
        thread_name_prefix="gmmood-score",
    )


_start_pool()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_start_pool)


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


@dataclass(frozen=True)
class PixelScores:
    """All scores for one pixel."""

    predicted_class: int
    epistemic: float
    predictive_entropy: float
    aleatoric: float
    mutual_information: float
    deterministic_entropy: float
    max_posterior: float


@dataclass
class UncertaintyMap:
    """Per-pixel score grids; values are only defined where ``valid``."""

    predicted_class: np.ndarray
    epistemic: np.ndarray
    predictive_entropy: np.ndarray
    aleatoric: np.ndarray
    mutual_information: np.ndarray
    deterministic_entropy: np.ndarray
    max_posterior: np.ndarray
    valid: np.ndarray

    SCORE_CHANNELS = (
        "epistemic",
        "predictive_entropy",
        "aleatoric",
        "mutual_information",
        "deterministic_entropy",
        "max_posterior",
    )

    def at(self, row: int, col: int) -> PixelScores:
        if not self.valid[row, col]:
            raise ValueError(f"pixel ({row}, {col}) is invalid")
        scores = (float(getattr(self, name)[row, col]) for name in self.SCORE_CHANNELS)
        return PixelScores(int(self.predicted_class[row, col]), *scores)


def _entropy_rows(p: np.ndarray, axis=-1) -> np.ndarray:
    """Shannon entropy along ``axis``, with 0 * log 0 = 0."""
    log_p = np.log(p, out=np.zeros(p.shape), where=p > 0)
    log_p *= p
    return -log_p.sum(axis=axis)


def _stack(ensemble: list[GMMParameterSample], *front):
    """GEMM coefficients (``gmm._coefficients``) of the ``front``
    parameter sets followed by the ensemble members, stacked along a
    leading set axis."""
    if not ensemble:
        raise ValueError("ensemble must be non-empty")
    models = [*front, *ensemble]
    weights, means, variances = (
        np.stack([getattr(m, k) for m in models]) for k in ("weights", "means", "variances")
    )
    return _coefficients(_log_weights(weights), means, variances)


def _reduce_members(joint: np.ndarray, front: int = 0):
    """Scores from (K, F + M, C, N) joint log densities (overwritten)
    whose first ``front`` = F sets are not ensemble members: the members'
    (N, C) vote counts and (N,) predictive entropy, aleatoric part and
    mutual information (see ``decompose_uncertainty``), then every set's
    (F + M, C, N) class posteriors and (F + M, N) posterior entropies."""
    s = _class_sums(joint)
    c, n = s.shape[1:]
    # each member's vote is the lowest class id holding its maximum: the
    # hit with the largest weight c - k, k the class id
    members = s[front:]
    hit = members == members.max(axis=1, keepdims=True)
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
    predictive = _entropy_rows(post[front:].mean(axis=0), axis=0)
    aleatoric = entropy[front:].mean(axis=0)
    mi = np.maximum(predictive - aleatoric, 0.0)
    return counts, predictive, aleatoric, mi, post, entropy


def _reduce_one(z, ensemble: list[GMMParameterSample], what: str):
    """``_reduce_members`` for a single feature vector, as N = 1 rows."""
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 1:
        raise ShapeError(f"{what}() takes a single feature vector")
    return _reduce_members(_joint_log_densities(z[None, :], _stack(ensemble)))


def vote(z, ensemble: list[GMMParameterSample]) -> VoteRecord:
    """Classify z under every member and tally the votes."""
    return VoteRecord(_reduce_one(z, ensemble, "vote")[0][0])


def majority_class(record: VoteRecord) -> int:
    """Most-voted class; ties go to the lowest class id."""
    return int(np.argmax(record.counts))


def vote_entropy(record: VoteRecord) -> float:
    """Entropy (nats) of the empirical vote frequencies."""
    p = record.counts / record.n
    return float(_entropy_rows(p))


def decompose_uncertainty(
    z, ensemble: list[GMMParameterSample]
) -> UncertaintyDecomposition:
    """Predictive entropy, aleatoric part, and their difference (MI).

    Per member, the class posterior at z is computed under that member's
    parameters; the predictive entropy is the entropy of the member-mean
    posterior, the aleatoric part is the mean of the member entropies,
    and the mutual information is their difference, clamped to zero
    against negative floating-point residue.
    """
    parts = _reduce_one(z, ensemble, "decompose_uncertainty")[1:4]
    return UncertaintyDecomposition(*(float(p[0]) for p in parts))


@dataclass
class SampleScores:
    """Flat per-sample scores for a batch of feature vectors."""

    predicted_class: np.ndarray
    vote_counts: np.ndarray
    epistemic: np.ndarray
    predictive_entropy: np.ndarray
    aleatoric: np.ndarray
    mutual_information: np.ndarray
    deterministic_entropy: np.ndarray
    max_posterior: np.ndarray


def _map_blocks(work, starts) -> list:
    """``[work(i) for i in starts]``, on the shared pool while OpenBLAS is
    held at one thread, or serially where no OpenBLAS is found.  Returns
    only once no item is running, also when one raised."""
    with _blas.single_thread() as held:
        if not held:
            return list(map(work, starts))
        # each block runs in a copy of the caller's context, so that its
        # numpy errstate (a context variable) holds on the pool threads
        futures = [_POOL.submit(contextvars.copy_context().run, work, i) for i in starts]
        try:
            return [f.result() for f in futures]
        finally:
            for f in futures:
                f.cancel()
            wait(futures)


def score_samples(
    z, model: GMMClassifier, ensemble: list[GMMParameterSample]
) -> SampleScores:
    """Vectorized scoring of an (N, D) batch under model + ensemble.

    The point model is stacked as member 0 in front of the ensemble, and
    each block of about ``_BLOCK_VALUES`` log densities, (M + 1) * C * K
    per row, is one kernel call and one reduction."""
    z = np.atleast_2d(np.asarray(z, dtype=np.float64))
    coefficients = _stack(ensemble, model)
    step = max(1, _BLOCK_VALUES // len(coefficients[1]))

    def block(i):
        joint = _joint_log_densities(z[i : i + step], coefficients)
        *scores, post, entropy = _reduce_members(joint, 1)
        return (*scores, entropy[0], post[0].max(axis=0))

    blocks = _map_blocks(block, range(0, max(len(z), 1), step))  # no rows: one empty block
    counts, predictive, aleatoric, mi, point_entropy, point_max = map(np.concatenate, zip(*blocks))
    return SampleScores(
        predicted_class=model.class_ids[np.argmax(counts, axis=1)],
        vote_counts=counts,
        epistemic=_entropy_rows(counts / len(ensemble)),
        predictive_entropy=predictive,
        aleatoric=aleatoric,
        mutual_information=mi,
        deterministic_entropy=point_entropy,
        max_posterior=point_max,
    )


def score_feature_map(
    features: FeatureMap, model: GMMClassifier, ensemble: list[GMMParameterSample]
) -> UncertaintyMap:
    """Score every valid pixel of a feature map; invalid pixels are skipped."""
    if features.dim != model.feature_dim:
        raise ShapeError(
            f"feature map dimension {features.dim} does not match model "
            f"dimension {model.feature_dim}"
        )
    h, w = features.height, features.width
    valid = features.valid
    grids = {
        name: np.full((h, w), np.nan) for name in UncertaintyMap.SCORE_CHANNELS
    }
    predicted = np.full((h, w), -1, dtype=np.int32)
    scores = score_samples(features.values[valid].astype(np.float64), model, ensemble)
    predicted[valid] = scores.predicted_class
    for name in UncertaintyMap.SCORE_CHANNELS:
        grids[name][valid] = getattr(scores, name)
    return UncertaintyMap(predicted_class=predicted, valid=valid.copy(), **grids)
