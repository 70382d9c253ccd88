"""Binary containers: the one codec and the FMAP feature grid.

Each container (FMAP here, GMMC in ``gmm``, NIGB in ``nig``) is a
``Container`` declared beside the type it stores: a little-endian header
(a 4-byte magic, a uint16 version, three uint32 dimensions), then the
arrays its ``layout(*dims)`` lists, back to back, at exactly that length.

FMAP payload: H*W*D float32 values, row-major with the feature
dimension fastest, then H*W validity bytes (0 or 1).  Every value of a
valid pixel must be finite.

Every file the package writes goes through ``write_atomic``, and every
data file it reads (containers, scans, labels) through ``_read_container``.
"""

import math
import os
import struct
import threading
from dataclasses import dataclass
from itertools import accumulate
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import Error, FormatError, ShapeError

_HEADER = struct.Struct("<4sHIII")
HEADER_SIZE = _HEADER.size


def _nbytes(dtype, shape) -> int:
    """Byte size of a layout entry in Python ints, a record's summed field
    by field: numpy makes no record over 2 GiB, which a corrupt header may
    declare."""
    fields = dtype if isinstance(dtype, list) else [(None, dtype, ())]
    return math.prod(shape) * sum(np.dtype(t).itemsize * math.prod(s) for _, t, s in fields)


@dataclass(frozen=True)
class Container:
    """``layout(*dims)`` gives the (dtype, shape) of each payload array in
    order; a record dtype, a list of interleaved (name, dtype, shape)
    fields, packs from and parses to a tuple of per-field arrays."""

    magic: bytes
    version: int
    layout: Callable

    def to_bytes(self, dims, *arrays) -> bytes:
        """The header for ``dims``, then ``arrays`` in their layout's dtypes."""
        parts = [_HEADER.pack(self.magic, self.version, *dims)]
        for (dtype, _), a in zip(self.layout(*dims), arrays):
            if isinstance(dtype, list):
                a = np.rec.fromarrays(a, dtype=dtype)
            parts.append(np.asarray(a, dtype).tobytes())
        return b"".join(parts)

    def from_bytes(self, data) -> tuple:
        """(dims, one writable array per layout entry): views of ``data``,
        which they then own, or of one copy of its payload if read-only."""
        name = self.magic.decode()
        if len(data) < HEADER_SIZE:
            raise FormatError(f"truncated {name} container: {len(data)} bytes")
        magic, version, *dims = _HEADER.unpack_from(data)
        if magic != self.magic:
            raise FormatError(f"bad magic {magic!r}, expected {self.magic!r}")
        if version != self.version:
            raise FormatError(f"unsupported {name} version {version}")
        layout = self.layout(*dims)
        *starts, end = accumulate([_nbytes(*entry) for entry in layout], initial=HEADER_SIZE)
        if len(data) != end:
            raise FormatError(f"{name} size mismatch: declared {end} bytes, got {len(data)}")
        payload = memoryview(data)[HEADER_SIZE:]
        if payload.readonly:
            payload = np.frombuffer(payload, np.uint8).copy()
        arrays = []
        for (dtype, shape), start in zip(layout, starts):
            a = np.ndarray(shape, dtype, buffer=payload, offset=start - HEADER_SIZE)
            arrays.append(tuple(a[f] for f, _, _ in dtype) if isinstance(dtype, list) else a)
        return tuple(dims), arrays


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


FMAP = Container(b"FMAP", 1, lambda h, w, d: [("<f4", (h, w, d)), ("u1", (h, w))])
_CHUNK = 1 << 16  # values per finiteness check


def feature_map_to_bytes(fmap: FeatureMap) -> bytes:
    return FMAP.to_bytes(fmap.values.shape, fmap.values, fmap.valid)


def feature_map_from_bytes(data) -> FeatureMap:
    """Parse an FMAP container: its values are a view (``Container.from_bytes``)."""
    _, (values, valid) = FMAP.from_bytes(data)
    fmap = FeatureMap(values, valid != 0)
    # the whole grid first, in chunks, which needs no gather of the valid
    # rows and no mask of the grid's size; only a map with a non-finite
    # value anywhere pays for the valid-only check
    flat = fmap.values.reshape(-1)
    if not all(np.isfinite(flat[i : i + _CHUNK]).all() for i in range(0, flat.size, _CHUNK)):
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


def _shown(path) -> str:
    """``path`` as ``<directory>/<name>``, as every error names a file."""
    return str(Path(*Path(path).parts[-2:]))


def _read_container(path, parse):
    """``parse`` of the file at ``path`` read into one buffer whose payload
    starts 64-byte aligned; an error raised while parsing names the file."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        buffer = np.empty(size + 64, np.uint8)
        start = -(buffer.ctypes.data + HEADER_SIZE) % 64
        data = buffer[start : start + size]
        data = data[: fh.readinto(data)]
    try:
        return parse(data)
    except (Error, ValueError) as exc:
        raise type(exc)(f"{_shown(path)}: {exc}") from None


def read_feature_map(path) -> FeatureMap:
    return _read_container(path, feature_map_from_bytes)
