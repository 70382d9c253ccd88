"""LiDAR scan parsing, spherical range-view projection, and back-projection.

Scans are flat binary files of 16-byte point records (x, y, z, intensity as
little-endian float32); labels are parallel files of little-endian uint32
records whose low 16 bits carry the semantic id.  Projection maps points to
a fixed H x W grid; when several points fall on one pixel the nearest wins,
and pixels that receive no point are marked invalid.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CorruptPointError, LabelCountError, MalformedScanError, ShapeError
from .metrics import descending_order

POINT_RECORD_BYTES = 16
LABEL_RECORD_BYTES = 4
FILL_VALUE = -1.0

# channel indices of RangeImage.channels
CH_X, CH_Y, CH_Z, CH_INTENSITY, CH_RANGE = 0, 1, 2, 3, 4


@dataclass
class PointCloud:
    """Point records as an (N, 4) float array of x, y, z, intensity."""

    points: np.ndarray

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=np.float64)
        if self.points.ndim != 2 or self.points.shape[1] != 4:
            raise ShapeError(f"points must be (N, 4), got {self.points.shape}")

    def __len__(self) -> int:
        return self.points.shape[0]

    @property
    def xyz(self) -> np.ndarray:
        return self.points[:, :3]

    @property
    def intensity(self) -> np.ndarray:
        return self.points[:, 3]


@dataclass(frozen=True)
class ProjectionConfig:
    """Geometry of the range-view grid.

    ``fov_up`` and ``fov_down`` are pitch limits in degrees; the defaults
    follow the usual HDL-64E convention for this kind of data.
    """

    height: int = 64
    width: int = 1024
    fov_up: float = 3.0
    fov_down: float = -25.0

    def __post_init__(self):
        if self.height < 1 or self.width < 1:
            raise ValueError(f"image size must be positive, got {self.height}x{self.width}")
        if not self.fov_up > self.fov_down:
            raise ValueError(f"fov_up ({self.fov_up}) must exceed fov_down ({self.fov_down})")


@dataclass
class RangeImage:
    """Projected scan: 5-channel grid, validity mask, and point bookkeeping.

    ``channels`` holds x, y, z, intensity, range per pixel with
    ``FILL_VALUE`` at invalid pixels; the mask is authoritative.
    ``point_index`` maps each valid pixel to the index of the point that
    won it.  ``point_rows``/``point_cols`` record where every source point
    projected (-1 for points dropped because their range was zero), which
    is what back-projection consumes.
    """

    channels: np.ndarray
    valid: np.ndarray
    point_index: np.ndarray
    point_rows: np.ndarray = field(repr=False)
    point_cols: np.ndarray = field(repr=False)
    dropped_points: int = 0

    @property
    def height(self) -> int:
        return self.channels.shape[0]

    @property
    def width(self) -> int:
        return self.channels.shape[1]

    @property
    def num_points(self) -> int:
        return self.point_rows.shape[0]


def parse_point_cloud(data: bytes) -> PointCloud:
    """Decode a raw scan payload into a PointCloud.

    Raises MalformedScanError when the length is not a multiple of the
    16-byte record size, and CorruptPointError (naming the first offending
    point) when any coordinate is NaN or infinite.
    """
    if len(data) % POINT_RECORD_BYTES != 0:
        raise MalformedScanError(
            f"scan payload of {len(data)} bytes is not a multiple of {POINT_RECORD_BYTES}"
        )
    points = np.frombuffer(data, dtype="<f4").reshape(-1, 4).astype(np.float64)
    bad = ~np.isfinite(points).all(axis=1)
    if bad.any():
        index = int(np.nonzero(bad)[0][0])
        raise CorruptPointError(f"non-finite value in point {index}")
    return PointCloud(points)


def parse_labels(data: bytes, point_count: int) -> np.ndarray:
    """Decode a raw label payload paired with ``point_count`` points into
    their int32 semantic ids, the low 16 bits of each uint32 record.
    Which ids are outliers or ignored is for ``cli.ClassMap`` to decide.
    """
    if len(data) != LABEL_RECORD_BYTES * point_count:
        raise LabelCountError(
            f"label payload has {len(data)} bytes, expected "
            f"{LABEL_RECORD_BYTES * point_count} for {point_count} points"
        )
    raw = np.frombuffer(data, dtype="<u4")
    return (raw & 0xFFFF).astype(np.int32)


def project_spherical(
    cloud: PointCloud, config: ProjectionConfig = ProjectionConfig()
) -> RangeImage:
    """Project a point cloud onto the spherical range-view grid.

    For each point with range r > 0, yaw = atan2(y, x) and
    pitch = arcsin(z / r); the pixel is
    ``col = floor(0.5 * (1 - yaw/pi) * W)`` and
    ``row = floor((1 - (pitch - fov_down) / (fov_up - fov_down)) * H)``,
    both clamped to the image bounds.  The nearest point wins a contested
    pixel.  Zero-range points are skipped and counted in
    ``dropped_points``.

    Per-point values ``a`` map onto the grid as
    ``np.where(image.valid, a[image.point_index], fill)``.
    """
    n = len(cloud)
    if n == 0:
        raise ValueError("cannot project an empty point cloud")

    h, w = config.height, config.width
    fov_up = math.radians(config.fov_up)
    fov_down = math.radians(config.fov_down)
    fov_span = fov_up - fov_down

    xyz = cloud.xyz
    rng = np.linalg.norm(xyz, axis=1)
    keep = rng > 0.0
    dropped = int(n - keep.sum())

    yaw = np.arctan2(xyz[keep, 1], xyz[keep, 0])
    pitch = np.arcsin(np.clip(xyz[keep, 2] / rng[keep], -1.0, 1.0))
    cols = np.floor(0.5 * (1.0 - yaw / np.pi) * w).astype(np.int64)
    rows = np.floor((1.0 - (pitch - fov_down) / fov_span) * h).astype(np.int64)
    np.clip(cols, 0, w - 1, out=cols)
    np.clip(rows, 0, h - 1, out=rows)

    point_rows = np.full(n, -1, dtype=np.int32)
    point_cols = np.full(n, -1, dtype=np.int32)
    kept_idx = np.nonzero(keep)[0]
    point_rows[kept_idx] = rows
    point_cols[kept_idx] = cols

    # scatter in decreasing-range order so the nearest point lands last
    order = descending_order(rng[kept_idx])
    seq = kept_idx[order]
    r_seq, c_seq = point_rows[seq], point_cols[seq]

    channels = np.full((h, w, 5), FILL_VALUE, dtype=np.float32)
    point_index = np.full((h, w), -1, dtype=np.int32)
    channels[r_seq, c_seq, CH_X] = xyz[seq, 0]
    channels[r_seq, c_seq, CH_Y] = xyz[seq, 1]
    channels[r_seq, c_seq, CH_Z] = xyz[seq, 2]
    channels[r_seq, c_seq, CH_INTENSITY] = cloud.intensity[seq]
    channels[r_seq, c_seq, CH_RANGE] = rng[seq]
    point_index[r_seq, c_seq] = seq

    valid = point_index >= 0
    return RangeImage(channels, valid, point_index, point_rows, point_cols, dropped)


def back_project(image: RangeImage, per_pixel_values: np.ndarray) -> np.ndarray:
    """Lift an H x W grid of pixel values back onto the source points.

    Every point that projected to some pixel (owner or occluded) receives
    that pixel's value.  Points dropped during projection (zero range)
    receive NaN.
    """
    grid = np.asarray(per_pixel_values, dtype=np.float64)
    if grid.shape != (image.height, image.width):
        raise ShapeError(
            f"per-pixel grid {grid.shape} does not match image "
            f"({image.height}, {image.width})"
        )
    out = np.full(image.num_points, np.nan)
    owned = image.point_rows >= 0
    out[owned] = grid[image.point_rows[owned], image.point_cols[owned]]
    return out
