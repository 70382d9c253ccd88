"""Independent float64 reference for the correctness gate.

Nothing here imports the program: the containers are parsed from their
documented layouts, the ensemble is re-drawn from the bank with the
documented seeding scheme, and every score is recomputed one pixel at a
time straight from the diagonal-Gaussian density, ``(z - mu)^2 / var``,
which stays exact for far-OOD pixels where an expanded quadratic form
would cancel.  Each ``check_*`` function returns a list of failure
messages (empty when the outputs are correct) and fills ``stats``.
"""

import json
import math
from pathlib import Path

import numpy as np

from workloads import FOV_DOWN, FOV_UP, H, HEADER, OUTLIER_RAW, RAW_OF_TRAIN, W

_LOG_2PI = math.log(2.0 * math.pi)
EPS32 = float(np.finfo(np.float32).eps)
CHANNELS = (
    "epistemic",
    "predictive_entropy",
    "aleatoric",
    "mutual_information",
    "deterministic_entropy",
    "max_posterior",
)
REPORT_NAMES = dict(zip(CHANNELS, CHANNELS[:5] + ("neg_max_posterior",)))
# a pixel whose top two class log densities (under any ensemble member
# or the point model) are closer than this, relative to their size, may
# legitimately vote either way
TIE_RTOL = 1e-9


def _header(data: bytes, magic: bytes):
    if len(data) < HEADER.size:
        raise ValueError(f"truncated {magic.decode()} container")
    got, version, a, b, c = HEADER.unpack_from(data)
    if got != magic or version != 1:
        raise ValueError(f"bad {magic.decode()} header {got!r} v{version}")
    return a, b, c


def read_fmap(path):
    """(values float32 (H, W, D), valid bool (H, W)) of an FMAP file."""
    data = Path(path).read_bytes()
    h, w, d = _header(data, b"FMAP")
    if len(data) != HEADER.size + 4 * h * w * d + h * w:
        raise ValueError(f"{path}: FMAP size mismatch")
    values = np.frombuffer(data, "<f4", h * w * d, HEADER.size).reshape(h, w, d)
    valid = np.frombuffer(data, np.uint8, h * w, HEADER.size + 4 * h * w * d)
    return values.astype(np.float32), valid.reshape(h, w) != 0


def read_model(path):
    """(weights (C, K), means (C, K, D), variances (C, K, D)) of a GMMC file."""
    data = Path(path).read_bytes()
    c, k, d = _header(data, b"GMMC")
    body = np.frombuffer(data, "<f8", c * (k + 2 * k * d), HEADER.size).reshape(c, -1)
    means = body[:, k : k + k * d].reshape(c, k, d)
    return body[:, :k], means, body[:, k + k * d :].reshape(c, k, d)


def read_bank(path):
    """(mu, kappa, alpha, beta (C, K, D) each, weights (C, K)) of a NIGB file."""
    data = Path(path).read_bytes()
    c, k, d = _header(data, b"NIGB")
    cells = np.frombuffer(data, "<f8", 4 * c * k * d, HEADER.size).reshape(c, k, d, 4)
    weights = np.frombuffer(data, "<f8", c * k, HEADER.size + 32 * c * k * d).reshape(c, k)
    return cells[..., 0], cells[..., 1], cells[..., 2], cells[..., 3], weights


def draw_members(bank, n_samples: int, seed: int):
    """Ensemble members as (means, variances) pairs: member i uses the
    i-th child of SeedSequence(seed); per cell sigma^2 = beta / Gamma(alpha)
    and mu ~ Normal(mu_n, sigma^2 / kappa_n)."""
    mu, kappa, alpha, beta, _ = bank
    members = []
    for child in np.random.SeedSequence(seed).spawn(n_samples):
        rng = np.random.default_rng(child)
        gamma = np.maximum(rng.standard_gamma(alpha), np.finfo(np.float64).tiny)
        var = beta / gamma
        members.append((rng.normal(mu, np.sqrt(var / kappa)), var))
    return members


def _entropy(p: np.ndarray) -> float:
    p = p[p > 0]
    return float(-(p * np.log(p)).sum())


class PixelReference:
    """Scores one pixel at a time under the point model and the ensemble."""

    def __init__(self, model_path, bank_path, n_samples: int, seed: int):
        weights, means, variances = read_model(model_path)
        members = draw_members(read_bank(bank_path), n_samples, seed)
        # row 0 is the point-estimate model, rows 1..M the members
        self.means = np.stack([means] + [m for m, _ in members])
        self.variances = np.stack([variances] + [v for _, v in members])
        with np.errstate(divide="ignore"):
            self.log_w = np.log(weights)
        self.log_norm = np.log(self.variances).sum(axis=-1) + means.shape[-1] * _LOG_2PI

    def class_log_densities(self, z: np.ndarray) -> np.ndarray:
        """(M + 1, C) log p(z | c) for one float64 feature vector."""
        sq = ((z - self.means) ** 2 / self.variances).sum(axis=-1)
        joint = self.log_w - 0.5 * (sq + self.log_norm)
        top = joint.max(axis=-1, keepdims=True)
        return top[..., 0] + np.log(np.exp(joint - top).sum(axis=-1))

    def score(self, z: np.ndarray) -> dict:
        ld = self.class_log_densities(np.asarray(z, np.float64))
        post = np.exp(ld - ld.max(axis=1, keepdims=True))
        post /= post.sum(axis=1, keepdims=True)
        top2 = np.sort(ld, axis=1)[:, -2:]
        gap = top2[:, 1] - top2[:, 0]
        tie = bool(np.any(gap <= TIE_RTOL * np.maximum(1.0, np.abs(top2[:, 1]))))
        m = ld.shape[0] - 1
        votes = np.bincount(np.argmax(ld[1:], axis=1), minlength=ld.shape[1])
        mean_post = post[1:].mean(axis=0)
        aleatoric = float(np.mean([_entropy(p) for p in post[1:]]))
        predictive = _entropy(mean_post)
        return {
            "predicted_class": int(np.argmax(votes)),
            "tie": tie,
            "epistemic": _entropy(votes / m),
            "predictive_entropy": predictive,
            "aleatoric": aleatoric,
            "mutual_information": max(predictive - aleatoric, 0.0),
            "deterministic_entropy": _entropy(post[0]),
            "max_posterior": float(post[0].max()),
        }


def nearest_rank_threshold(values: np.ndarray, top_fraction: float):
    """(threshold, rank): the ceil((1 - f) n)-th smallest value."""
    n = values.size
    rank = min(n, max(1, math.ceil((1.0 - top_fraction) * n)))
    return float(np.sort(values)[rank - 1]), rank


def close32(out: float, ref: float) -> bool:
    """Equal within float32 rounding of the written value (4 ulp)."""
    return abs(out - ref) <= 4 * EPS32 * max(1.0, abs(ref))


def check_scores(score_root, feature_dir, model_path, bank_path, *, n_samples, seed,
                 top_fraction, sample_per_scan, rng, focus, stats):
    """Check ``score`` outputs under ``score_root`` for every feature map.

    Every valid pixel: the OOD mask equals ``epistemic > t`` for the
    nearest-rank threshold t over all valid pixels of the run, and the
    flagged count respects the top-fraction.  A seeded sample of pixels
    per scan, always including the pixels ``focus[stem]`` marks (far-OOD
    or outlier ground truth): all six channels, the predicted class and
    the mask equal the float64 reference.
    """
    failures = []
    score_root, feature_dir = Path(score_root), Path(feature_dir)
    manifest = json.loads((score_root / "score_manifest.json").read_text())
    errors = [f for f in manifest["files"] if "error" in f]
    if errors:
        failures.append(f"score manifest reports failed files: {errors}")
    stems = sorted(p.stem for p in feature_dir.glob("*.fmap"))
    outputs = {}
    for stem in stems:
        _, valid = read_fmap(feature_dir / f"{stem}.fmap")
        maps = {ch: read_fmap(score_root / "scores" / f"{stem}_{ch}.fmap") for ch in CHANNELS}
        maps["predictions"] = read_fmap(score_root / "predictions" / f"{stem}.fmap")
        maps["ood_mask"] = read_fmap(score_root / "ood_masks" / f"{stem}.fmap")
        for name, (values, v) in maps.items():
            if not np.array_equal(v, valid):
                failures.append(f"{stem} {name}: validity differs from the input")
            if not np.all(np.isfinite(values[valid])):
                failures.append(f"{stem} {name}: non-finite values")
        outputs[stem] = (valid, {k: v[0][:, :, 0] for k, v in maps.items()})

    pooled = np.concatenate([o[1]["epistemic"][o[0]] for o in outputs.values()])
    threshold, rank = nearest_rank_threshold(pooled, top_fraction)
    flagged_total = 0
    listed = {f["file"]: f for f in manifest["files"] if "error" not in f}
    for stem, (valid, grids) in outputs.items():
        mask = grids["ood_mask"] == 1.0
        expect = valid & (grids["epistemic"] > threshold)
        if not np.array_equal(mask & valid, expect):
            failures.append(f"{stem}: OOD mask is not epistemic > {threshold}")
        flagged = int(mask[valid].sum())
        flagged_total += flagged
        entry = listed.get(stem, {})
        if entry.get("flagged") != flagged or entry.get("n_valid") != int(valid.sum()):
            failures.append(f"{stem}: manifest counts disagree with the mask")
    if flagged_total > pooled.size - rank:
        failures.append(f"{flagged_total} pixels flagged, nearest-rank allows {pooled.size - rank}")
    stats.update(valid_pixels=int(pooled.size), flagged=flagged_total, threshold=threshold)

    ref = PixelReference(model_path, bank_path, n_samples, seed)
    sampled = ties = focused = 0
    for stem, (valid, grids) in outputs.items():
        features, _ = read_fmap(feature_dir / f"{stem}.fmap")
        flat = np.flatnonzero(valid)
        pick = rng.choice(flat, min(sample_per_scan, flat.size), replace=False)
        hot = np.flatnonzero(focus.get(stem, np.zeros_like(valid)) & valid)
        hot = rng.choice(hot, min(sample_per_scan // 4, hot.size), replace=False)
        focused += hot.size
        for idx in np.union1d(pick, hot):
            r, c = divmod(int(idx), valid.shape[1])
            want = ref.score(features[r, c].astype(np.float64))
            sampled += 1
            ties += want["tie"]
            where = f"{stem} pixel ({r}, {c})"
            for ch in CHANNELS:
                if ch == "epistemic" and want["tie"]:
                    continue
                if not close32(float(grids[ch][r, c]), want[ch]):
                    failures.append(f"{where} {ch}: {grids[ch][r, c]!r} != reference {want[ch]!r}")
            if want["tie"]:
                continue
            if int(grids["predictions"][r, c]) != want["predicted_class"]:
                got = int(grids["predictions"][r, c])
                failures.append(f"{where}: class {got} != reference {want['predicted_class']}")
            if (grids["ood_mask"][r, c] == 1.0) != (np.float32(want["epistemic"]) > threshold):
                failures.append(f"{where}: OOD mask disagrees with the reference")
    stats.update(sampled_pixels=sampled, focus_pixels=focused, tied_pixels=ties)
    return failures


# ---------------------------------------------------------------------------
# evaluation


def _class_tables():
    train_of_raw = np.full(max(RAW_OF_TRAIN) + 1, -1)
    train_of_raw[list(RAW_OF_TRAIN)] = np.arange(len(RAW_OF_TRAIN))
    return train_of_raw


def ground_truth(label_values: np.ndarray):
    """(train ids with -1 elsewhere, outlier, ignore) of a raw-id grid."""
    raw = np.round(label_values).astype(np.int64)
    table = _class_tables()
    inside = (raw >= 0) & (raw < table.size)
    train = np.where(inside, table[np.clip(raw, 0, table.size - 1)], -1)
    outlier = raw == OUTLIER_RAW
    return train, outlier, (train < 0) & ~outlier


def auroc(scores, is_ood) -> float:
    """Mann-Whitney statistic with average ranks for ties."""
    values, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True)
    first = np.concatenate([[0], np.cumsum(counts)[:-1]])
    avg_rank = first + (counts + 1) / 2.0
    n_ood, n_id = int(is_ood.sum()), int((~is_ood).sum())
    rank_sum = avg_rank[inverse][is_ood].sum()
    return float((rank_sum - n_ood * (n_ood + 1) / 2.0) / (n_ood * n_id))


def auprc(scores, is_ood) -> float:
    """Mean precision at each OOD pixel, descending score, input order on ties."""
    order = np.argsort(-scores, kind="stable")
    hits = is_ood[order]
    positions = np.flatnonzero(hits) + 1
    return float(np.mean(np.arange(1, positions.size + 1) / positions))


def fpr95(scores, is_ood) -> float:
    """Smallest FPR over distinct thresholds t (flag s >= t) with TPR >= 0.95."""
    values, inverse = np.unique(scores, return_inverse=True)
    ood_at = np.bincount(inverse, weights=is_ood, minlength=values.size)[::-1]
    id_at = np.bincount(inverse, weights=~is_ood, minlength=values.size)[::-1]
    tpr = np.cumsum(ood_at) / is_ood.sum()
    fpr = np.cumsum(id_at) / (~is_ood).sum()
    return float(fpr[np.argmax(tpr >= 0.95)])


def miou(pred, gt, num_classes: int) -> float:
    ious = []
    for c in range(num_classes):
        inter = np.sum((pred == c) & (gt == c))
        union = np.sum((pred == c) | (gt == c))
        if union:
            ious.append(inter / union)
    return float(np.mean(ious))


def check_eval(eval_dir, score_root, label_dir, num_classes, stats):
    """Recompute every eval report from the written score maps and labels."""
    failures = []
    eval_dir, score_root, label_dir = Path(eval_dir), Path(score_root), Path(label_dir)
    scores = {ch: [] for ch in CHANNELS}
    flags, pred_id, gt_id = [], [], []
    for ppath in sorted((score_root / "predictions").glob("*.fmap")):
        pred, pvalid = read_fmap(ppath)
        labels, lvalid = read_fmap(label_dir / ppath.name)
        train, outlier, ignore = ground_truth(labels[:, :, 0])
        ranked = pvalid & lvalid & ~ignore
        flags.append(outlier[ranked])
        for ch in CHANNELS:
            grid = read_fmap(score_root / "scores" / f"{ppath.stem}_{ch}.fmap")[0][:, :, 0]
            values = grid.astype(np.float64)[ranked]
            scores[ch].append(-values if ch == "max_posterior" else values)
        inlier = ranked & ~outlier
        pred_id.append(np.round(pred[:, :, 0]).astype(np.int64)[inlier])
        gt_id.append(train[inlier])
    is_ood = np.concatenate(flags)
    want_miou = miou(np.concatenate(pred_id), np.concatenate(gt_id), num_classes)
    for ch in CHANNELS:
        s = np.concatenate(scores[ch])
        want = {
            "auroc": auroc(s, is_ood),
            "auprc": auprc(s, is_ood),
            "fpr95": fpr95(s, is_ood),
            "miou": want_miou,
            "n_id": int((~is_ood).sum()),
            "n_ood": int(is_ood.sum()),
        }
        got = json.loads((eval_dir / f"eval_{REPORT_NAMES[ch]}.json").read_text())
        for key, value in want.items():
            if abs(got[key] - value) > 1e-9:
                failures.append(f"eval {REPORT_NAMES[ch]} {key}: {got[key]} != reference {value}")
        if ch == "epistemic":
            stats.update({f"{k}_epistemic": v for k, v in want.items() if k != "miou"})
            stats["miou"] = want_miou
    return failures


# ---------------------------------------------------------------------------
# projection


def project_reference(points: np.ndarray, raw: np.ndarray):
    """Nearest point per pixel of the documented spherical projection.

    Returns (channels (H, W, 5) float32, valid, raw-id grid)."""
    xyz = points[:, :3].astype(np.float64)
    rng = np.sqrt((xyz ** 2).sum(axis=1))
    keep = np.flatnonzero(rng > 0)
    fov_up, fov_down = math.radians(FOV_UP), math.radians(FOV_DOWN)
    yaw = np.arctan2(xyz[keep, 1], xyz[keep, 0])
    pitch = np.arcsin(np.clip(xyz[keep, 2] / rng[keep], -1.0, 1.0))
    col = np.clip(np.floor(0.5 * (1.0 - yaw / np.pi) * W).astype(np.int64), 0, W - 1)
    row = np.floor((1.0 - (pitch - fov_down) / (fov_up - fov_down)) * H).astype(np.int64)
    row = np.clip(row, 0, H - 1)
    pixel = row * W + col
    # nearest first per pixel; the later point wins an exact range tie
    order = np.lexsort((-keep, rng[keep], pixel))
    first = np.ones(order.size, bool)
    first[1:] = pixel[order][1:] != pixel[order][:-1]
    win = order[first]
    channels = np.full((H * W, 5), -1.0, np.float32)
    grid = np.full(H * W, -1, np.int64)
    src = keep[win]
    channels[pixel[win]] = np.column_stack([xyz[src], points[src, 3], rng[src]])
    grid[pixel[win]] = raw[src]
    valid = np.zeros(H * W, bool)
    valid[pixel[win]] = True
    return channels.reshape(H, W, 5), valid.reshape(H, W), grid.reshape(H, W)


def check_projection(scan_dir, raw_label_dir, out_dir, stats):
    """``project`` outputs equal the reference projection, pixel for pixel."""
    failures = []
    valid_total = ood_total = 0
    counts = np.zeros(len(RAW_OF_TRAIN), np.int64)
    manifest = json.loads((Path(out_dir) / "project_manifest.json").read_text())
    if manifest.get("failed"):
        failures.append(f"project manifest reports {manifest['failed']} failed files")
    for scan in sorted(Path(scan_dir).glob("*.bin")):
        points = np.frombuffer(scan.read_bytes(), "<f4").reshape(-1, 4).astype(np.float64)
        labels = np.frombuffer((Path(raw_label_dir) / f"{scan.stem}.label").read_bytes(), "<u4")
        channels, valid, grid = project_reference(points, (labels & 0xFFFF).astype(np.int64))
        got, got_valid = read_fmap(Path(out_dir) / "range" / f"{scan.stem}.fmap")
        got_labels, labels_valid = read_fmap(Path(out_dir) / "labels" / f"{scan.stem}.fmap")
        if not (np.array_equal(got_valid, valid) and np.array_equal(labels_valid, valid)):
            failures.append(f"{scan.stem}: projected validity differs from the reference")
            continue
        if not np.array_equal(got[valid], channels[valid]):
            bad = int((got[valid] != channels[valid]).any(axis=1).sum())
            failures.append(f"{scan.stem}: {bad} range-image pixels differ from the reference")
        if not np.array_equal(got_labels[:, :, 0][valid], grid[valid].astype(np.float32)):
            failures.append(f"{scan.stem}: label grid differs from the reference")
        train, outlier, ignore = ground_truth(grid.astype(np.float64))
        valid_total += int(valid.sum())
        ood_total += int((outlier & valid).sum())
        used = valid & (train >= 0)
        counts += np.bincount(train[used], minlength=counts.size)
    stats.update(valid_pixels=valid_total, ood_pixels=ood_total, train_samples=counts.tolist())
    return failures


# ---------------------------------------------------------------------------
# fit


def check_fit(model_path, bank_path, train_samples, stats, gen_means=None, kappa0=1.0):
    """The model and bank agree with each other and with the training data.

    Per class, the effective counts in the bank (kappa_n - kappa0) add up
    to exactly the number of training pixels of that class, so the fit
    used every labeled pixel and no outlier or ignored one.  With the
    generating mixture known, each fitted component mean is within 0.1
    (per-dimension mean absolute error) of a generating one.
    """
    failures = []
    weights, means, variances = read_model(model_path)
    mu, kappa, alpha, beta, bank_w = read_bank(bank_path)
    if means.shape != mu.shape or not np.array_equal(weights, bank_w):
        failures.append("model and bank disagree in shape or weights")
        return failures
    if np.any(np.abs(weights.sum(axis=1) - 1.0) > 1e-9) or np.any(variances < 1e-6 * (1 - 1e-12)):
        failures.append("model weights do not sum to 1 or variances are below the floor")
    n_eff = (kappa[:, :, 0] - kappa0).sum(axis=1)
    want = np.asarray(train_samples, np.float64)
    if not np.allclose(n_eff, want, rtol=1e-9, atol=1e-6):
        failures.append(
            f"bank effective counts {n_eff.round(3).tolist()} != training pixels {want.tolist()}"
        )
    if gen_means is not None:
        worst = 0.0
        for c in range(means.shape[0]):
            err = min(
                np.abs(means[c][list(p)] - gen_means[c]).mean()
                for p in ((0, 1), (1, 0))
            )
            worst = max(worst, float(err))
        stats["max_mean_error"] = worst
        if worst > 0.1:
            failures.append(f"fitted component means are {worst:.3f} from the generating ones")
    return failures
