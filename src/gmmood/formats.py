"""Binary containers: the shared header codec and the FMAP feature grid.

Every container (FMAP here, GMMC in ``gmm``, NIGB in ``nig``) starts
with the same little-endian header: a 4-byte magic, a uint16 version and
three uint32 dimensions.  ``container_to_bytes`` writes it and
``container_dims`` checks the magic, the version and that the byte
length equals exactly the header plus the payload the dimensions
declare.

FMAP payload: H*W*D float32 values, row-major with the feature
dimension fastest, then H*W validity bytes (0 or 1).  Every value of a
valid pixel must be finite.

Every file the package writes goes through ``write_atomic``.
"""

import os
import struct
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import FormatError, ShapeError

FMAP_MAGIC = b"FMAP"
FMAP_VERSION = 1

_HEADER = struct.Struct("<4sHIII")
HEADER_SIZE = _HEADER.size


def container_to_bytes(magic: bytes, version: int, dims, *arrays) -> bytes:
    """Header for ``dims`` followed by the raw bytes of each array in order."""
    return b"".join([_HEADER.pack(magic, version, *dims), *(a.tobytes() for a in arrays)])


def container_dims(data: bytes, magic: bytes, version: int, payload_size) -> tuple:
    """Validate a container header and return its three dimensions.

    ``payload_size(*dims)`` gives the byte count the payload must have.
    """
    name = magic.decode()
    if len(data) < HEADER_SIZE:
        raise FormatError(f"truncated {name} container: {len(data)} bytes")
    got_magic, got_version, *dims = _HEADER.unpack_from(data)
    if got_magic != magic:
        raise FormatError(f"bad magic {got_magic!r}, expected {magic!r}")
    if got_version != version:
        raise FormatError(f"unsupported {name} version {got_version}")
    expected = HEADER_SIZE + payload_size(*dims)
    if len(data) != expected:
        raise FormatError(f"{name} size mismatch: declared {expected} bytes, got {len(data)}")
    return tuple(dims)


@dataclass
class FeatureMap:
    """H x W grid of D-dimensional feature vectors with a validity mask."""

    values: np.ndarray
    valid: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float32)
        self.valid = np.asarray(self.valid, dtype=bool)
        if self.values.ndim != 3:
            raise ShapeError(f"feature values must be (H, W, D), got {self.values.shape}")
        if self.valid.shape != self.values.shape[:2]:
            raise ShapeError(
                f"validity mask {self.valid.shape} does not match grid "
                f"{self.values.shape[:2]}"
            )

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]

    @property
    def dim(self) -> int:
        return self.values.shape[2]

    @classmethod
    def from_grid(cls, grid, valid) -> "FeatureMap":
        """Wrap a single-channel H x W grid as a D = 1 feature map."""
        grid = np.asarray(grid, dtype=np.float32)
        if grid.ndim != 2:
            raise ShapeError(f"expected a 2-d grid, got shape {grid.shape}")
        return cls(grid[:, :, None], valid)

    def grid(self) -> np.ndarray:
        """Return the single channel of a D = 1 map as an H x W array."""
        if self.dim != 1:
            raise ShapeError(f"grid() requires D = 1, map has D = {self.dim}")
        return self.values[:, :, 0]


def feature_map_to_bytes(fmap: FeatureMap) -> bytes:
    return container_to_bytes(
        FMAP_MAGIC,
        FMAP_VERSION,
        fmap.values.shape,
        fmap.values.astype("<f4", copy=False),
        fmap.valid.astype(np.uint8),
    )


def feature_map_from_bytes(data: bytes) -> FeatureMap:
    h, w, d = container_dims(
        data, FMAP_MAGIC, FMAP_VERSION, lambda h, w, d: 4 * h * w * d + h * w
    )
    values = np.frombuffer(data, dtype="<f4", count=h * w * d, offset=HEADER_SIZE)
    valid = np.frombuffer(data, dtype=np.uint8, count=h * w, offset=HEADER_SIZE + 4 * h * w * d)
    fmap = FeatureMap(values.reshape(h, w, d).copy(), valid.reshape(h, w) != 0)
    if not np.isfinite(fmap.values[fmap.valid]).all():
        raise FormatError("non-finite feature value at a valid pixel")
    return fmap


def write_atomic(path, data: bytes) -> None:
    """Write ``data`` to a temp file beside ``path``, then rename it into
    place: a reader sees the old file or the new one, never part of one,
    and a write that fails leaves the old file and no temp file."""
    path = Path(path)
    # unique among live writers: one thread writes one file at a time
    tmp = path.with_name(f".{path.name}.{os.getpid()}-{threading.get_ident()}.tmp")
    try:
        with open(tmp, "xb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException as exc:
        tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError) and exc.errno is not None:
            # the error names the file asked for, as a direct write's would
            raise OSError(exc.errno, exc.strerror, str(path)) from exc
        raise


def write_feature_map(fmap: FeatureMap, path) -> None:
    write_atomic(path, feature_map_to_bytes(fmap))


def read_feature_map(path) -> FeatureMap:
    return feature_map_from_bytes(Path(path).read_bytes())
