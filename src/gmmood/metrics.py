"""Threshold-free detection metrics, segmentation mIoU, and the
percentile decision rule.

Detection treats the problem as binary ranking: higher score means more
likely out-of-distribution.  ``ScoredPixels.ranking`` sorts the scores
once, descending with ties in input order, into the blocks of equal
scores (``descending_order``, the package's one descending sort), and
tabulates the OOD flags in that order, their running count and, read off
it at each block's end, each block's OOD and ID count and their running
counts (``n_ood`` is summed once, ``n_id`` is the rest).  AUROC is the
Mann-Whitney U counted from the blocks (ties count one half); FPR95 is
the smallest false-positive rate among thresholds, which sit between
blocks, whose true-positive rate reaches the target under the rule
``flag score >= t``; ``average_precision`` steps once per block, so a
tied block is one threshold and pixel order cannot move it.  ``auprc``
alone reads the running count per pixel: it breaks ties by stable input
order, so on heavily tied scores it depends on the pixel order.
"""

import json
import math
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .errors import ShapeError, UndefinedMetricError

# the detection fields of ``EvalReport``, in report order
DETECTION = ("auroc", "auprc", "average_precision", "fpr95")


def descending_order(values) -> tuple[np.ndarray, np.ndarray]:
    """Exactly ``np.argsort(-values, kind="stable")``, in two fast sorts,
    and the last position in that order of each block of equal values.

    An unstable argsort (numpy's SIMD sort) orders the values, and one
    comparison of neighbours finds the blocks (``-0.0`` and ``0.0`` share
    one, each NaN is its own); a sort of uint64 keys
    ``(run << 32) | index``, numbering the blocks, puts each back in input
    order.  About 17 B per value and 8 per block are alive at once.
    Values with a NaN, or more than 2^32 of them, take the stable sort.
    """
    values = np.asarray(values)
    order = np.argsort(-values)
    ranked = values[order]
    last = np.append(ranked[1:] != ranked[:-1], True)[: values.size]  # of its block
    ends = np.flatnonzero(last)  # a block's bounds do not depend on its order
    if values.size > 2**32 or np.isnan(ranked[-1:]).any():  # NaNs sort last
        return np.argsort(-values, kind="stable"), ends
    del ranked
    if ends.size == values.size:  # no ties: the order is already the stable one
        return order, ends
    key = np.zeros(values.size, np.uint64)
    key[1:] = last[:-1]
    np.cumsum(key, out=key)  # in place: a cast inside cumsum would copy
    key <<= np.uint64(32)
    key |= order.view(np.uint64)
    key.sort()
    key &= np.uint64(0xFFFFFFFF)
    return key.view(np.intp), ends


@dataclass(frozen=True)
class ScoredPixels:
    """Uncertainty scores paired with binary OOD ground truth; frozen, so
    the cached ``n_ood`` and ``ranking`` always describe its arrays."""

    scores: np.ndarray
    is_ood: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "scores", np.asarray(self.scores, dtype=np.float64))
        object.__setattr__(self, "is_ood", np.asarray(self.is_ood, dtype=bool))
        if self.scores.shape != self.is_ood.shape or self.scores.ndim != 1:
            raise ShapeError("scores and is_ood must be parallel 1-d arrays")
        bad = np.flatnonzero(~np.isfinite(self.scores))
        if bad.size:
            raise ValueError(f"scores must be finite, got {self.scores[bad[0]]} at index {bad[0]}")

    @cached_property
    def n_ood(self) -> int:
        return int(self.is_ood.sum())

    @property
    def n_id(self) -> int:
        return self.is_ood.size - self.n_ood

    @cached_property
    def ranking(self) -> tuple[np.ndarray, ...]:
        """``is_ood`` in the descending order of the scores, ties in input
        order, and its int64 running count; then, read off that count at
        the end of each block of equal scores in that order, the block's
        OOD and ID counts and the running OOD and ID counts through it."""
        order, ends = descending_order(self.scores)
        flags = self.is_ood[order]
        del order
        hits = np.cumsum(flags)
        tp = hits[ends]
        fp = np.subtract(ends + 1, tp, out=ends)  # in ends' buffer
        return flags, hits, np.diff(tp, prepend=0), np.diff(fp, prepend=0), tp, fp


def _require_both_classes(data: ScoredPixels, metric: str) -> None:
    if data.n_ood == 0 or data.n_id == 0:
        raise UndefinedMetricError(
            f"{metric} undefined: needs at least one OOD and one ID sample "
            f"(got {data.n_ood} OOD, {data.n_id} ID)"
        )


def auroc(data: ScoredPixels) -> float:
    """P(random OOD score > random ID score), ties counting 1/2."""
    _require_both_classes(data, "auroc")
    _, _, ood, ids, _, fp = data.ranking
    # twice U, exact in int64: each OOD pixel beats the ID pixels of the
    # lower blocks twice over and those of its own block once
    twice_u = (ood * (2 * (data.n_id - fp) + ids)).sum()
    return float(twice_u / 2 / (data.n_ood * data.n_id))


def auprc(data: ScoredPixels) -> float:
    """Average precision over OOD positives in descending score order.

    Ties are broken by stable input order.
    """
    _require_both_classes(data, "auprc")
    flags, hits = data.ranking[:2]
    at = np.flatnonzero(flags)
    precision_at_pos = hits[at] / (at + 1)
    return float(precision_at_pos.sum() / data.n_ood)


def average_precision(data: ScoredPixels) -> float:
    """Average precision with one step per block of equal scores: the sum
    over blocks of (block OOD / all OOD) x precision with the block flagged."""
    _require_both_classes(data, "average_precision")
    _, _, ood, _, tp, fp = data.ranking
    return float((ood / data.n_ood * tp / (tp + fp)).sum())


def fpr_at_tpr(data: ScoredPixels, target_tpr: float = 0.95) -> float:
    """Smallest FPR among thresholds t with TPR >= target (rule: score >= t)."""
    _require_both_classes(data, "fpr_at_tpr")
    if not 0.0 < target_tpr <= 1.0:
        raise ValueError(f"target_tpr must be in (0, 1], got {target_tpr}")
    *_, tp, fp = data.ranking
    # tpr reaches 1.0 at the last block, so a feasible threshold always exists
    first = np.flatnonzero(tp / data.n_ood >= target_tpr)[0]
    return float(fp[first] / data.n_id)


def miou(pred, gt, num_classes: int) -> tuple[float, np.ndarray]:
    """Mean intersection-over-union and the per-class IoU vector of
    ``pred`` against ``gt``, every label in [0, ``num_classes``).

    Classes absent from both prediction and ground truth get NaN and are
    excluded from the mean.
    """
    pred = np.asarray(pred)
    gt = np.asarray(gt)
    if pred.shape != gt.shape:
        raise ShapeError(f"prediction {pred.shape} and ground truth {gt.shape} differ")
    p = pred.astype(np.int64).ravel()
    g = gt.astype(np.int64).ravel()
    if p.size and (p.min() < 0 or p.max() >= num_classes or g.min() < 0 or g.max() >= num_classes):
        raise ValueError(f"labels must lie in [0, num_classes = {num_classes})")
    confusion = np.bincount(g * num_classes + p, minlength=num_classes * num_classes)
    confusion = confusion.reshape(num_classes, num_classes)
    tp = np.diag(confusion).astype(np.float64)
    union = confusion.sum(axis=0) + confusion.sum(axis=1) - tp
    per_class = np.full(num_classes, np.nan)
    present = union > 0
    per_class[present] = tp[present] / union[present]
    mean = float(np.nanmean(per_class)) if present.any() else 0.0
    return mean, per_class


def percentile_threshold(scores, top_fraction: float = 0.05) -> tuple[float, np.ndarray]:
    """Nearest-rank quantile threshold for flagging the top scores.

    The threshold is the (1 - top_fraction) empirical quantile under the
    nearest-rank definition; the mask flags scores strictly above it, so
    threshold ties are never flagged and the flagged count never exceeds
    the requested fraction (within the nearest-rank rounding).
    """
    scores = np.asarray(scores, dtype=np.float64).ravel()
    if scores.size == 0:
        raise ValueError("percentile_threshold needs at least one score")
    if not 0.0 < top_fraction < 1.0:
        raise ValueError(f"top_fraction must be in (0, 1), got {top_fraction}")
    n = scores.size
    rank = min(n, max(1, math.ceil((1.0 - top_fraction) * n)))
    threshold = float(np.partition(scores, rank - 1)[rank - 1])
    return threshold, scores > threshold


@dataclass
class EvalReport:
    """Aggregate detection and segmentation quality for one score channel.

    Its fields, in order, are the report: JSON keys and CSV columns alike.
    """

    auroc: float
    auprc: float
    average_precision: float
    fpr95: float
    miou: float
    per_class_iou: np.ndarray
    n_id: int
    n_ood: int

    def __post_init__(self):
        self.per_class_iou = np.asarray(self.per_class_iou, dtype=np.float64)

    @classmethod
    def of(cls, data: ScoredPixels, miou: float, per_class_iou) -> "EvalReport":
        """The detection metrics of ``data`` next to the given mIoU."""
        return cls(
            auroc=auroc(data),
            auprc=auprc(data),
            average_precision=average_precision(data),
            fpr95=fpr_at_tpr(data),
            miou=miou,
            per_class_iou=per_class_iou,
            n_id=data.n_id,
            n_ood=data.n_ood,
        )

    def to_json(self) -> str:
        """Every field by name, keys sorted; NaN per-class IoUs are ``null``."""
        doc = {f.name: getattr(self, f.name) for f in fields(self)}
        doc["per_class_iou"] = [None if math.isnan(v) else v for v in self.per_class_iou.tolist()]
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "EvalReport":
        doc = json.loads(text)
        kwargs = {f.name: f.type(doc[f.name]) for f in fields(cls) if f.name != "per_class_iou"}
        per_class = [math.nan if v is None else float(v) for v in doc["per_class_iou"]]
        return cls(per_class_iou=np.array(per_class), **kwargs)

    def to_csv(self) -> str:
        """One-row CSV, a column per field and per class; fractional values
        carry six decimal digits and a NaN IoU is left empty."""
        header, row = [], []
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "per_class_iou":
                header += [f"per_class_iou_{i}" for i in range(value.size)]
                row += ["" if math.isnan(v) else f"{v:.6f}" for v in value]
            else:
                header.append(f.name)
                row.append(f"{value:.6f}" if f.type is float else str(value))
        return ",".join(header) + "\n" + ",".join(row) + "\n"
