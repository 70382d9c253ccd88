"""Seeded input generators for the three benchmark workloads.

Everything a workload feeds the program is made here from the workload
seed: FMAP feature maps and raw-id label grids for the D=32 workloads,
raw ``.bin``/``.label`` scans for the range-channel workload.  The
generators also return the ground truth the correctness gate needs
(which pixels are far-OOD, how many training pixels each class has, the
generating component means).  The program itself only ever sees the
written files.

Shapes follow the paper: a 64 x 1024 range-view grid, 19 classes, two
mixture components per class, 20 ensemble members.
"""

import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

H, W = 64, 1024
C, K, M = 19, 2, 20
FOV_UP, FOV_DOWN = 3.0, -25.0
TOP_FRACTION = 0.05
OOD_SHARE = 0.05

# Raw semantic id of each train id under the CLI's default class map
# (train id i <- RAW_OF_TRAIN[i]); raw 1 is the outlier class and raw 0
# is ignored in training and evaluation.
RAW_OF_TRAIN = (10, 11, 15, 18, 20, 30, 31, 32, 40, 44, 48, 49, 50, 51, 70, 71, 72, 80, 81)
OUTLIER_RAW = 1
IGNORE_RAW = 0

# magic, version, then three uint32 sizes: the header of every container
HEADER = struct.Struct("<4sHIII")

# The class layout (feature-space means and spreads, scene geometry and
# per-class surface intensity) is fixed, as a deployed network's feature
# space and a recorded route would be; the workload seed varies what is
# drawn from it (pixels, noise, obstacles, OOD placement).  Per-pixel
# scoring cost depends on the layout (how far apart the class log
# densities are), so a seed-dependent layout would mix data into timing.
LAYOUT_SEED = 20251008


@dataclass
class Inputs:
    """What a workload generator wrote, plus the ground truth it kept."""

    valid_pixels: int = 0
    ood_pixels: int = 0
    far_ood_pixels: int = 0
    train_samples: list = field(default_factory=lambda: [0] * C)
    # stem -> bool (H, W) grid of far-OOD pixels of scored scans
    far_ood: dict = field(default_factory=dict)
    # (C, K, D) generating component means (feature workloads only)
    gen_means: np.ndarray | None = None

    def properties(self) -> dict:
        ood = self.ood_pixels
        return {
            "valid_pixels": self.valid_pixels,
            "ood_share": ood / self.valid_pixels if self.valid_pixels else 0.0,
            "far_ood_share": self.far_ood_pixels / ood if ood else 0.0,
            "samples_per_class_min": int(min(self.train_samples)),
            "samples_per_class_max": int(max(self.train_samples)),
        }


def write_fmap(path: Path, values: np.ndarray, valid: np.ndarray) -> None:
    """Write an FMAP container (see the repository README for the layout)."""
    h, w, d = values.shape
    path.write_bytes(
        HEADER.pack(b"FMAP", 1, h, w, d)
        + np.ascontiguousarray(values, dtype="<f4").tobytes()
        + valid.astype(np.uint8).tobytes()
    )


# ---------------------------------------------------------------------------
# D=32 "network feature" scans


@dataclass
class FeatureSpace:
    """19 two-component diagonal Gaussian classes in D dimensions."""

    means: np.ndarray  # (C, K, D)
    stds: np.ndarray  # (C, K, D)
    weights: np.ndarray  # (C, K)

    @classmethod
    def generate(cls, rng: np.random.Generator, dim: int) -> "FeatureSpace":
        centers = rng.normal(0.0, 3.0, (C, dim))
        means = centers[:, None, :] + rng.normal(0.0, 2.0, (C, K, dim))
        # three class pairs overlap, so some in-distribution pixels are
        # genuinely ambiguous (aleatoric, not epistemic, uncertainty)
        for a, b in ((0, 1), (2, 3), (4, 5)):
            means[b] = means[a] + rng.normal(0.0, 0.15, (K, dim))
        stds = rng.uniform(0.6, 1.4, (C, K, dim))
        w0 = rng.uniform(0.3, 0.7, C)
        return cls(means, stds, np.column_stack([w0, 1.0 - w0]))

    def draw(self, rng: np.random.Generator, classes: np.ndarray) -> np.ndarray:
        comp = (rng.random(classes.size) >= self.weights[classes, 0]).astype(np.int64)
        mu = self.means[classes, comp]
        return mu + self.stds[classes, comp] * rng.standard_normal(mu.shape)

    def draw_ood(self, rng: np.random.Generator, n: int, far: bool) -> np.ndarray:
        """Near-OOD sits between two random classes, where members disagree;
        far-OOD lies 100-1000 sigma out along a random direction."""
        dim = self.means.shape[2]
        a = self.means[rng.integers(C, size=n), rng.integers(K, size=n)]
        if far:
            u = rng.standard_normal((n, dim))
            u /= np.linalg.norm(u, axis=1, keepdims=True)
            return a + u * rng.uniform(100.0, 1000.0, (n, 1))
        b = self.means[rng.integers(C, size=n), rng.integers(K, size=n)]
        t = rng.uniform(0.35, 0.65, (n, 1))
        return a + t * (b - a) + rng.normal(0.0, 0.5, (n, dim))


def scene_grid(rng: np.random.Generator):
    """Scene-like label layout on the 64 x 1024 grid.

    Columns fall into segments; each segment has an object class above
    its horizon and a ground class below, with no return above a
    per-segment sky line.  Returns (train ids, valid, outlier, far, ignore)
    grids; OOD pixels come in rectangular blobs, and a fifth of them
    are far-OOD.
    """
    train = np.zeros((H, W), np.int64)
    valid = np.zeros((H, W), bool)
    objects, grounds = rng.permutation(C), rng.permutation(C)
    col, seg = 0, 0
    while col < W:
        width = int(rng.integers(16, 64))
        sky = int(rng.integers(8, 26))
        horizon = int(rng.integers(36, 50))
        sl = slice(col, col + width)
        train[:, sl] = objects[seg % C]
        train[horizon:, sl] = grounds[seg % C]
        valid[sky:, sl] = True
        col += width
        seg += 1
    valid &= rng.random((H, W)) >= 0.04
    outlier = np.zeros((H, W), bool)
    target = OOD_SHARE * valid.sum()
    while (outlier & valid).sum() < target:
        r, c = int(rng.integers(10, H - 6)), int(rng.integers(0, W - 20))
        outlier[r : r + int(rng.integers(4, 12)), c : c + int(rng.integers(12, 48))] = True
    outlier &= valid
    far = outlier & (rng.random((H, W)) < 0.2)
    ignore = valid & ~outlier & (rng.random((H, W)) < 0.01)
    return train, valid, outlier, far, ignore


def write_feature_scan(rng, space: FeatureSpace, feat_path: Path, label_path: Path):
    """One D-dim feature scan and its raw-id label grid; returns ground truth."""
    train, valid, outlier, far, ignore = scene_grid(rng)
    dim = space.means.shape[2]
    values = np.zeros((H, W, dim))
    inlier = valid & ~outlier
    values[inlier] = space.draw(rng, train[inlier])
    values[outlier & ~far] = space.draw_ood(rng, int((outlier & ~far).sum()), far=False)
    values[far] = space.draw_ood(rng, int(far.sum()), far=True)
    values[~valid] = 0.0
    raw = np.asarray(RAW_OF_TRAIN)[train]
    raw[outlier] = OUTLIER_RAW
    raw[ignore] = IGNORE_RAW
    write_fmap(feat_path, values, valid)
    write_fmap(label_path, np.where(valid, raw, 0)[:, :, None].astype(np.float32), valid)
    used = inlier & ~ignore
    counts = np.bincount(train[used], minlength=C)
    return valid, outlier, far, counts


def make_feature_workload(seed: int, root: Path, n_train: int, n_score: int, dim: int) -> Inputs:
    """Training scans under ``train/`` and scored scans under ``score/``,
    each with ``features/`` and ``labels/`` FMAP directories."""
    space = FeatureSpace.generate(np.random.default_rng([LAYOUT_SEED, dim]), dim)
    rng = np.random.default_rng([seed, dim])
    inputs = Inputs(gen_means=space.means)
    for split, count in (("train", n_train), ("score", n_score)):
        for sub in ("features", "labels"):
            (root / split / sub).mkdir(parents=True, exist_ok=True)
        for i in range(count):
            stem = f"{split}{i:03d}"
            valid, outlier, far, counts = write_feature_scan(
                rng, space, root / split / "features" / f"{stem}.fmap",
                root / split / "labels" / f"{stem}.fmap",
            )
            if split == "train":
                inputs.train_samples = [a + int(b) for a, b in zip(inputs.train_samples, counts)]
            else:
                inputs.far_ood[stem] = far
            if split == "score" or n_score == 0:
                inputs.valid_pixels += int(valid.sum())
                inputs.ood_pixels += int(outlier.sum())
                inputs.far_ood_pixels += int(far.sum())
    return inputs


# ---------------------------------------------------------------------------
# Raw LiDAR scans for the range-channel workload

SENSOR_HEIGHT = 1.73
MAX_RANGE = 40.0
N_AZIMUTH = 1800
# train ids that lie on the ground plane: road, parking, sidewalk,
# other-ground, terrain; every other class stands as a vertical surface
GROUND_CLASSES = (8, 9, 10, 11, 16)
OBJECT_CLASSES = tuple(c for c in range(C) if c not in GROUND_CLASSES)


def lidar_scan(rng: np.random.Generator, index: int):
    """Ray-cast a 64-beam sweep through sector scene number ``index``.

    Azimuth sectors each hold a ground class out to a wall of an object
    class at a sector-specific distance and height; rays above the wall
    top get no return.  Intensity is class-specific, so classes are
    separable in (x, y, z, intensity, range).  The scene layout is fixed
    per index; ``rng`` places a few near obstacles of the outlier class
    (unusually high intensity) in front of the walls and draws the
    azimuth jitter, dropouts and measurement noise.  Returns (points
    (N, 4), raw ids (N,)).
    """
    lay = np.random.default_rng([LAYOUT_SEED, index])
    n_sectors = 24
    edges = np.cumsum(lay.uniform(0.5, 1.5, n_sectors))
    edges *= 2 * np.pi / edges[-1]
    # every object class gets one sector with its wall in range; the
    # remaining sectors repeat classes, some with walls out of range
    n_obj = len(OBJECT_CLASSES)
    obj = np.concatenate(
        [lay.permutation(OBJECT_CLASSES), lay.choice(OBJECT_CLASSES, n_sectors - n_obj)]
    )
    dist = np.concatenate(
        [lay.uniform(6.0, 25.0, n_obj), lay.uniform(6.0, 60.0, n_sectors - n_obj)]
    )
    order = lay.permutation(n_sectors)
    obj, dist = obj[order], dist[order]
    gnd = np.asarray(GROUND_CLASSES)[lay.permutation(n_sectors) % len(GROUND_CLASSES)]
    top = lay.uniform(0.5, 3.0, n_sectors)
    level = np.random.default_rng(LAYOUT_SEED).uniform(0.05, 0.9, C)

    elev = np.radians(FOV_UP - (np.arange(64) + 0.5) * (FOV_UP - FOV_DOWN) / 64)
    az = (np.arange(N_AZIMUTH) + rng.uniform(0.1, 0.9, N_AZIMUTH)) * (2 * np.pi / N_AZIMUTH)
    e, a = np.meshgrid(elev, az, indexing="ij")
    e, a = e.ravel(), a.ravel()
    sector = np.searchsorted(edges, a) % n_sectors

    # outlier obstacles: narrow, near, short
    obstacle = np.zeros(a.size, bool)
    hit_d = dist[sector].copy()
    hit_top = top[sector].copy()
    for _ in range(int(rng.integers(4, 7))):
        centre, half = rng.uniform(0.0, 2 * np.pi), np.radians(rng.uniform(1.5, 3.0))
        span = np.abs((a - centre + np.pi) % (2 * np.pi) - np.pi) < half
        d_o, h_o = rng.uniform(3.0, 5.0), rng.uniform(0.8, 2.0)
        closer = span & (d_o < hit_d)
        hit_d[closer], hit_top[closer] = d_o, h_o
        obstacle |= closer

    with np.errstate(divide="ignore"):
        ground_d = np.where(e < 0, SENSOR_HEIGHT / np.tan(-e), np.inf)
    on_ground = ground_d < hit_d
    wall_z = hit_d * np.tan(e)
    on_wall = ~on_ground & (wall_z >= -SENSOR_HEIGHT) & (wall_z <= hit_top - SENSOR_HEIGHT)
    in_range = np.where(on_ground, ground_d, hit_d) <= MAX_RANGE
    hit = (on_ground | on_wall) & in_range & (rng.random(a.size) >= 0.3)

    horiz = np.where(on_ground, ground_d, hit_d)[hit]
    horiz = horiz + rng.normal(0.0, 0.02, horiz.size)
    z = np.where(on_ground, -SENSOR_HEIGHT, wall_z)[hit]
    xyz = np.column_stack([horiz * np.cos(a[hit]), horiz * np.sin(a[hit]), z])
    outlier = (on_wall & obstacle)[hit]
    train = np.where(on_ground, gnd[sector], obj[sector])[hit]
    intensity = np.where(outlier, 0.98, level[train] + rng.normal(0.0, 0.04, train.size))
    raw = np.asarray(RAW_OF_TRAIN)[train]
    raw[outlier] = OUTLIER_RAW
    raw[~outlier & (rng.random(raw.size) < 0.01)] = IGNORE_RAW
    points = np.column_stack([xyz, np.clip(intensity, 0.0, 1.0)])
    return points, raw


def make_range_workload(seed: int, root: Path, n_scans: int) -> Inputs:
    """Raw scans under ``scans/`` and labels under ``labels_raw/``; the
    upper 16 bits of each label word carry a random instance id, which
    the program must mask off."""
    rng = np.random.default_rng([seed, 5])
    (root / "scans").mkdir(parents=True, exist_ok=True)
    (root / "labels_raw").mkdir(parents=True, exist_ok=True)
    inputs = Inputs()
    for i in range(n_scans):
        points, raw = lidar_scan(rng, i)
        instance = rng.integers(0, 1 << 16, raw.size).astype(np.uint32) << 16
        (root / "scans" / f"scan{i:03d}.bin").write_bytes(points.astype("<f4").tobytes())
        (root / "labels_raw" / f"scan{i:03d}.label").write_bytes(
            (raw.astype(np.uint32) | instance).astype("<u4").tobytes()
        )
    return inputs
