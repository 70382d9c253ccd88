"""Synthetic labeled feature spaces with controllable ambiguity and OOD.

Class means sit on a lattice (two rows for four or more classes, one row
otherwise) with adjacent means ``class_separation`` apart.  Overlap
pairs move the second member to a quarter separation from its partner,
injecting irreducible class ambiguity.  The OOD cluster is centered
beyond the high-x edge of the lattice on the row midline, at
``ood_offset`` from the nearest class mean, which keeps it outside the
convex hull of the class means.  ``run_benchmark`` drives the full
fit / posterior / ensemble / scoring pipeline on such a dataset and
reports detection quality with the epistemic score against the
predictive-entropy score.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .ensemble import score_samples
from .gmm import VARIANCE_FLOOR, fit_classifier, predict
from .metrics import DETECTION, EvalReport, ScoredPixels, miou
from .nig import DEFAULT_PRIOR, NIGParams, build_bank, sample_ensemble


# The dataset files are float32.  The lattice extent, the OOD offset and
# ten within-class standard deviations (a normal draw lands further out
# with probability ~1.5e-23) may each take a third of float32's range, so
# that no coordinate a dataset holds overflows it.
_REACH_LIMIT = float(np.finfo(np.float32).max) / 3

# EM fits in float64: once its steps at the lattice extent pass ~1/500 of
# the class spread (the std, or the variance floor's if larger), rounding
# lowers EM's log-likelihood (seen at 1/256 on some seeds, never at 1/512,
# for stds from 1e-3 to 1e3).  Stds below the floor can fail at finer steps.
_STEPS_PER_SPREAD = 1024


@dataclass(frozen=True)
class SynthConfig:
    feature_dim: int = 8
    n_classes: int = 6
    samples_per_class: int = 2000
    class_separation: float = 4.0
    overlap_pairs: tuple = ((0, 1), (2, 3))
    ood_count: int = 600
    ood_offset: float = 12.0
    within_class_std: float = 0.5
    seed: int = 0

    def __post_init__(self):
        for key, low in (("feature_dim", 1), ("n_classes", 1), ("samples_per_class", 1),
                         ("ood_count", 1), ("seed", 0)):
            if (value := getattr(self, key)) < low:
                raise ValueError(f"'{key}' in [synth] must be at least {low}, got {value}")
        for key in ("class_separation", "ood_offset", "within_class_std"):
            if (value := getattr(self, key)) <= 0:
                raise ValueError(f"'{key}' in [synth] must be positive, got {value}")
        extent = (self.n_classes - 1) * self.class_separation
        for key, reach in (
            ("class_separation", extent),
            ("ood_offset", self.ood_offset),
            ("within_class_std", 10 * self.within_class_std),
        ):
            if not reach <= _REACH_LIMIT:
                raise ValueError(
                    f"'{key}' in [synth] is {getattr(self, key):g}: synthetic coordinates "
                    f"could pass {_REACH_LIMIT:.3g}, more than the float32 dataset files hold"
                )
        step, spread = np.spacing(extent), max(self.within_class_std, math.sqrt(VARIANCE_FLOOR))
        if step * _STEPS_PER_SPREAD > spread:
            raise ValueError(
                f"'class_separation' in [synth] is {self.class_separation:g}: float64 steps near "
                f"{extent:g} are {step:.3g} wide; EM needs the class spread {spread:g} to span "
                f"{_STEPS_PER_SPREAD} of them"
            )
        for a, b in self.overlap_pairs:
            if not (0 <= a < self.n_classes and 0 <= b < self.n_classes) or a == b:
                raise ValueError(f"'overlap_pairs' in [synth] must join two of classes 0 to "
                                 f"{self.n_classes - 1}, got {a}-{b}")


@dataclass
class SynthDataset:
    train_features: list
    eval_features: np.ndarray
    eval_labels: np.ndarray
    eval_is_ood: np.ndarray
    generating_params: dict = field(repr=False)


def _lattice_rows(config: SynthConfig) -> int:
    """Rows of the class-mean lattice: two given four classes and D >= 2."""
    return 2 if config.n_classes >= 4 and config.feature_dim >= 2 else 1


def class_mean_layout(config: SynthConfig) -> np.ndarray:
    """Deterministic lattice of class means, overlap pairs applied."""
    c, d, sep = config.n_classes, config.feature_dim, config.class_separation
    rows = _lattice_rows(config)
    means = np.zeros((c, d))
    for ci in range(c):
        means[ci, 0] = (ci // rows) * sep
        if rows == 2:
            means[ci, 1] = (ci % rows) * sep
    for a, b in config.overlap_pairs:
        direction = means[b] - means[a]
        norm = np.linalg.norm(direction)
        if norm == 0:
            direction = np.zeros(d)
            direction[0] = 1.0
        else:
            direction = direction / norm
        means[b] = means[a] + 0.25 * sep * direction
    return means


def ood_center(config: SynthConfig, means: np.ndarray) -> np.ndarray:
    """OOD cluster center beyond the high-x lattice edge, on the row midline.

    Its distance to the nearest class mean equals ``ood_offset`` whenever
    the offset exceeds half the row gap; smaller offsets saturate at the
    edge midpoint.
    """
    d, sep = config.feature_dim, config.class_separation
    rows = _lattice_rows(config)
    center = np.zeros(d)
    y_mid = 0.5 * (rows - 1) * sep
    dy = y_mid  # distance from the midline to either row
    dx = math.sqrt(max(config.ood_offset**2 - dy**2, 0.0))
    center[0] = means[:, 0].max() + dx
    if rows == 2:
        center[1] = y_mid
    return center


def generate(config: SynthConfig) -> SynthDataset:
    """Draw the dataset: isotropic Gaussian per class plus the OOD cluster.

    Each class contributes ``samples_per_class`` draws split half into
    training, half into evaluation; OOD samples (label -1) appear only in
    evaluation.  Fully deterministic for a given seed.
    """
    rng = np.random.default_rng(config.seed)
    means = class_mean_layout(config)
    center = ood_center(config, means)
    std = config.within_class_std

    train_features = []
    eval_parts = []
    eval_labels = []
    for ci in range(config.n_classes):
        pts = means[ci] + rng.normal(0.0, std, (config.samples_per_class, config.feature_dim))
        n_train = config.samples_per_class // 2
        train_features.append(pts[:n_train])
        eval_parts.append(pts[n_train:])
        eval_labels.append(np.full(pts.shape[0] - n_train, ci, dtype=np.int64))
    ood = center + rng.normal(0.0, std, (config.ood_count, config.feature_dim))
    eval_parts.append(ood)
    eval_labels.append(np.full(config.ood_count, -1, dtype=np.int64))

    eval_features = np.concatenate(eval_parts, axis=0)
    eval_labels = np.concatenate(eval_labels)
    return SynthDataset(
        train_features=train_features,
        eval_features=eval_features,
        eval_labels=eval_labels,
        eval_is_ood=eval_labels < 0,
        generating_params={
            "class_means": means.tolist(),
            "within_class_std": std,
            "ood_center": center.tolist(),
            "ood_std": std,
        },
    )


@dataclass
class BenchmarkResult:
    """Detection reports for the two competing scores, plus diagnostics."""

    epistemic: EvalReport
    predictive: EvalReport
    point_accuracy: float

    def delta_summary(self) -> dict:
        """Signed epistemic-minus-predictive differences per metric, next
        to each score's own value of the metric."""
        summary = {"point_accuracy": self.point_accuracy}
        for metric in DETECTION:
            ours, theirs = getattr(self.epistemic, metric), getattr(self.predictive, metric)
            summary.update({f"{metric}_delta": ours - theirs, f"epistemic_{metric}": ours,
                            f"predictive_{metric}": theirs})
        return summary


def run_benchmark(
    dataset: SynthDataset,
    *,
    n_components: int = 2,
    prior: NIGParams = DEFAULT_PRIOR,
    n_samples: int = 20,
    seed: int = 0,
    em_max_iters: int = 100,
    em_tol: float = 1e-5,
) -> BenchmarkResult:
    """Fit, build the posterior bank, sample, score, and compare.

    Returns one report scored by vote entropy (epistemic) and one scored
    by predictive entropy; predictions (majority votes) and hence the
    mIoU fields are identical in both.
    """
    n_classes = len(dataset.train_features)
    root = np.random.SeedSequence(seed)
    model, stats = fit_classifier(
        dataset.train_features, n_components, max_iters=em_max_iters, tol=em_tol, seed=root
    )
    bank = build_bank(model, stats, prior)
    members = sample_ensemble(bank, n_samples, root.spawn(1)[0])

    scores = score_samples(dataset.eval_features, model, members)
    is_ood = dataset.eval_is_ood
    gt = dataset.eval_labels
    id_mask = ~is_ood
    mean_iou, per_class = miou(scores.predicted_class[id_mask], gt[id_mask], n_classes)
    point_pred = predict(dataset.eval_features[id_mask], model)
    point_accuracy = float(np.mean(point_pred == gt[id_mask]))

    def report(score_values: np.ndarray) -> EvalReport:
        return EvalReport.of(ScoredPixels(score_values, is_ood), mean_iou, per_class)

    return BenchmarkResult(
        epistemic=report(scores.epistemic),
        predictive=report(scores.predictive_entropy),
        point_accuracy=point_accuracy,
    )
