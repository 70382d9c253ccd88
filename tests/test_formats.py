import errno
import hashlib
import os
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmmood import cli
from gmmood import formats as formats_mod
from gmmood.errors import FormatError, ShapeError
from gmmood.formats import (
    HEADER_SIZE,
    FeatureMap,
    feature_map_from_bytes,
    feature_map_to_bytes,
    read_feature_map,
    write_feature_map,
)
from gmmood.gmm import (
    GMMClassifier,
    classifier_from_bytes,
    classifier_to_bytes,
    save_classifier,
)
from gmmood.nig import NIGPosteriorBank, bank_from_bytes, bank_to_bytes, save_bank


def random_feature_map(rng, h=4, w=6, d=3):
    values = rng.normal(size=(h, w, d)).astype(np.float32)
    valid = rng.random((h, w)) > 0.3
    return FeatureMap(values, valid)


class TestFMap:
    def test_round_trip(self):
        rng = np.random.default_rng(0)
        fmap = random_feature_map(rng)
        back = feature_map_from_bytes(feature_map_to_bytes(fmap))
        np.testing.assert_array_equal(back.values, fmap.values)
        np.testing.assert_array_equal(back.valid, fmap.valid)

    def test_round_trip_on_disk(self, tmp_path):
        rng = np.random.default_rng(1)
        fmap = random_feature_map(rng, h=2, w=3, d=5)
        path = tmp_path / "x.fmap"
        write_feature_map(fmap, path)
        back = read_feature_map(path)
        np.testing.assert_array_equal(back.values, fmap.values)
        np.testing.assert_array_equal(back.valid, fmap.valid)

    def test_bad_magic(self):
        data = feature_map_to_bytes(random_feature_map(np.random.default_rng(2)))
        with pytest.raises(FormatError):
            feature_map_from_bytes(b"XXXX" + data[4:])

    def test_size_mismatch(self):
        data = feature_map_to_bytes(random_feature_map(np.random.default_rng(3)))
        with pytest.raises(FormatError):
            feature_map_from_bytes(data[:-1])
        with pytest.raises(FormatError):
            feature_map_from_bytes(data + b"\x00")

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_fails_only_at_a_valid_pixel(self, value):
        fmap = random_feature_map(np.random.default_rng(5))
        (vr, vc), (ir, ic) = np.argwhere(fmap.valid)[0], np.argwhere(~fmap.valid)[0]
        fmap.values[ir, ic, 1] = value
        back = feature_map_from_bytes(feature_map_to_bytes(fmap))
        assert back.values.tobytes() == fmap.values.tobytes()
        np.testing.assert_array_equal(back.valid, fmap.valid)
        fmap.values[vr, vc, 2] = value
        with pytest.raises(FormatError, match="non-finite feature value at a valid pixel"):
            feature_map_from_bytes(feature_map_to_bytes(fmap))

    def test_read_parses_its_one_buffer_in_place(self, tmp_path):
        """``read_feature_map`` reads the file into one writable buffer and
        returns views of it: the values and mask equal the ``bytes`` path's,
        the values are writable, and one read's traced peak is at most 1.1
        times the file, where a copy of the values would add about one.
        Parsing read-only ``bytes`` still copies the values."""
        fmap = random_feature_map(np.random.default_rng(6), h=32, w=256, d=32)
        path = tmp_path / "x.fmap"
        write_feature_map(fmap, path)
        data = path.read_bytes()
        want = feature_map_from_bytes(data)
        read_feature_map(path)  # warm-up
        tracemalloc.start()
        try:
            got = read_feature_map(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        for g, w in ((got.values, want.values), (got.valid, want.valid)):
            assert g.dtype == w.dtype and g.shape == w.shape and g.tobytes() == w.tobytes()
        assert got.values.flags.writeable and got.values.flags.c_contiguous
        assert peak <= 1.1 * len(data), f"{peak / len(data):.2f} x the file"
        assert want.values.flags.writeable
        assert not np.shares_memory(want.values, np.frombuffer(data, np.uint8))

    @pytest.mark.parametrize("at_valid", [False, True], ids=["invalid", "valid"])
    def test_non_finite_value_past_the_first_chunk(self, tmp_path, at_valid):
        """The finiteness check reads the whole grid of a map larger than
        one chunk: a NaN at its last value fails the read only where that
        pixel is valid."""
        fmap = random_feature_map(np.random.default_rng(7), h=8, w=1024, d=9)
        assert fmap.values.size > formats_mod._CHUNK
        fmap.valid[-1, -1] = at_valid
        fmap.values[-1, -1, -1] = np.nan
        path = tmp_path / "x.fmap"
        write_feature_map(fmap, path)
        if at_valid:
            with pytest.raises(FormatError, match="non-finite feature value at a valid pixel"):
                read_feature_map(path)
        else:
            assert read_feature_map(path).values.tobytes() == fmap.values.tobytes()

    def test_values_are_a_grid_of_vectors_under_their_mask(self):
        with pytest.raises(ShapeError, match=r"^feature values must be \(H, W, D\), got \(2, 2\)$"):
            FeatureMap(np.zeros((2, 2)), np.ones((2, 2), bool))
        with pytest.raises(ShapeError, match=r"^validity mask \(2, 3\) does not match grid"):
            FeatureMap(np.zeros((2, 2, 1)), np.ones((2, 3), bool))


def random_classifier(rng, c=3, k=2, d=4):
    w = rng.random((c, k))
    w /= w.sum(axis=1, keepdims=True)
    # renormalize exactly so the stored weights satisfy the invariant
    w[:, -1] = 1.0 - w[:, :-1].sum(axis=1)
    return GMMClassifier(w, rng.normal(size=(c, k, d)), rng.random((c, k, d)) + 0.1)


class TestGMMC:
    def test_round_trip(self):
        model = random_classifier(np.random.default_rng(5))
        back = classifier_from_bytes(classifier_to_bytes(model))
        assert back.num_classes == model.num_classes
        np.testing.assert_array_equal(back.weights, model.weights)
        np.testing.assert_array_equal(back.means, model.means)
        np.testing.assert_array_equal(back.variances, model.variances)

    def test_bad_container(self):
        data = classifier_to_bytes(random_classifier(np.random.default_rng(6)))
        with pytest.raises(FormatError):
            classifier_from_bytes(b"ZZZZ" + data[4:])
        with pytest.raises(FormatError):
            classifier_from_bytes(data[: len(data) // 2])


class TestNIGB:
    def test_round_trip(self):
        rng = np.random.default_rng(7)
        c, k, d = 2, 3, 4
        bank = NIGPosteriorBank(
            rng.normal(size=(c, k, d)),
            rng.random((c, k, d)) + 0.5,
            rng.random((c, k, d)) + 1.0,
            rng.random((c, k, d)) + 0.5,
            rng.random((c, k)),
        )
        back = bank_from_bytes(bank_to_bytes(bank))
        np.testing.assert_array_equal(back.mu, bank.mu)
        np.testing.assert_array_equal(back.kappa, bank.kappa)
        np.testing.assert_array_equal(back.alpha, bank.alpha)
        np.testing.assert_array_equal(back.beta, bank.beta)
        np.testing.assert_array_equal(back.weights, bank.weights)

    def test_bad_container(self):
        rng = np.random.default_rng(8)
        bank = NIGPosteriorBank(
            rng.normal(size=(1, 1, 2)),
            np.ones((1, 1, 2)),
            np.ones((1, 1, 2)) * 2,
            np.ones((1, 1, 2)),
            np.ones((1, 1)),
        )
        data = bank_to_bytes(bank)
        with pytest.raises(FormatError):
            bank_from_bytes(data + b"\x00" * 8)
        with pytest.raises(FormatError):
            bank_from_bytes(b"QQQQ" + data[4:])


def small_bank():
    shape = (2, 2, 3)
    return NIGPosteriorBank(
        np.zeros(shape), np.ones(shape), np.full(shape, 2.0), np.ones(shape), np.full((2, 2), 0.5)
    )


def test_nan_mixture_parameters_rejected():
    data = bytearray(classifier_to_bytes(random_classifier(np.random.default_rng(10))))
    data[HEADER_SIZE : HEADER_SIZE + 8] = struct.pack("<d", float("nan"))  # a weight
    with pytest.raises(ValueError, match="finite"):
        classifier_from_bytes(bytes(data))


# parser, valid container, float width of its payload, parameter arrays
CONTAINERS = {
    "FMAP": (
        feature_map_from_bytes,
        feature_map_to_bytes(random_feature_map(np.random.default_rng(11), h=2, w=3, d=2)),
        4,
        lambda f: [f.values[f.valid]],
    ),
    "GMMC": (
        classifier_from_bytes,
        classifier_to_bytes(random_classifier(np.random.default_rng(12), c=2, k=2, d=2)),
        8,
        lambda m: [m.weights, m.means, m.variances],
    ),
    "NIGB": (
        bank_from_bytes,
        bank_to_bytes(small_bank()),
        8,
        lambda b: [b.mu, b.kappa, b.alpha, b.beta, b.weights],
    ),
}
SPECIAL = [float("nan"), float("inf"), -float("inf"), -1.0, 0.0, 1e30]


@st.composite
def container_bytes(draw, kind):
    _, valid, width, _ = CONTAINERS[kind]
    if draw(st.booleans()):
        return draw(st.binary(max_size=2 * len(valid)))
    data = bytearray(valid)
    slots = (len(valid) - HEADER_SIZE) // width
    for _ in range(draw(st.integers(0, 3))):
        slot = HEADER_SIZE + width * draw(st.integers(0, slots - 1))
        value = draw(st.sampled_from(SPECIAL))
        data[slot : slot + width] = struct.pack("<d" if width == 8 else "<f", value)
    for _ in range(draw(st.integers(0, 3))):
        data[draw(st.integers(0, len(data) - 1))] = draw(st.integers(0, 255))
    cut = draw(st.integers(0, len(data)))
    return bytes(data[:cut] + draw(st.binary(max_size=8))) if draw(st.booleans()) else bytes(data)


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(sorted(CONTAINERS)), data=st.data())
def test_parsers_reject_or_yield_finite_parameters(kind, data):
    parse, _, _, params = CONTAINERS[kind]
    try:
        parsed = parse(data.draw(container_bytes(kind)))
    except (FormatError, ValueError):
        return
    assert all(np.isfinite(a).all() for a in params(parsed))


# every writer of the package's output files: FMAP, GMMC, NIGB and JSON
WRITERS = {
    "fmap": lambda path: write_feature_map(random_feature_map(np.random.default_rng(11)), path),
    "gmmc": lambda path: save_classifier(random_classifier(np.random.default_rng(12)), path),
    "nigb": lambda path: save_bank(small_bank(), path),
    "json": lambda path: cli._write_json(path, {"files": [], "failed": 0}),
}


def half_then_disk_full(path, mode):
    """``open`` whose file takes the first half of a write, then fails
    as a full disk would."""
    fh = open(path, mode)

    class Half:
        def __enter__(self):
            return self

        def __exit__(self, *exc):
            fh.close()

        def write(self, data):
            fh.write(data[: len(data) // 2])
            fh.flush()
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    return Half()


def failing_replace(src, dst):
    raise OSError(errno.EIO, os.strerror(errno.EIO), src, dst)


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_writes_replace_the_previous_file_whole(tmp_path, writer):
    path = tmp_path / "out"
    path.write_bytes(b"previous")
    WRITERS[writer](path)
    fresh = tmp_path / "fresh"
    WRITERS[writer](fresh)
    assert path.read_bytes() == fresh.read_bytes() != b"previous"
    assert sorted(os.listdir(tmp_path)) == ["fresh", "out"]


@pytest.mark.parametrize("failure", ["midway", "at-rename"])
@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_failed_write_keeps_the_previous_file_and_no_temp_file(
    tmp_path, monkeypatch, writer, failure
):
    path = tmp_path / "out"
    path.write_bytes(b"previous")
    if failure == "midway":
        monkeypatch.setattr(formats_mod, "open", half_then_disk_full, raising=False)
    else:
        monkeypatch.setattr(formats_mod.os, "replace", failing_replace)
    with pytest.raises(OSError) as info:
        WRITERS[writer](path)
    assert info.value.filename == str(path)
    assert path.read_bytes() == b"previous"
    assert os.listdir(tmp_path) == ["out"]


def test_write_error_names_the_file_asked_for(tmp_path):
    path = tmp_path / "missing" / "x.fmap"
    with pytest.raises(FileNotFoundError) as info:
        WRITERS["fmap"](path)
    assert str(info.value) == f"[Errno {errno.ENOENT}] {os.strerror(errno.ENOENT)}: '{path}'"


def pinned_objects():
    """One small object per container, whose arrays all differ, so a
    reordered or transposed layout changes the bytes even where a round
    trip would not see it."""
    ramp = np.arange(12.0).reshape(2, 2, 3)
    weights = np.array([[0.25, 0.75], [0.5, 0.5]])
    fmap = FeatureMap(
        (np.arange(12, dtype=np.float32).reshape(2, 3, 2) - 5.5) / 4,
        np.array([[1, 0, 1], [1, 1, 0]], dtype=bool),
    )
    model = GMMClassifier(weights, ramp / 8 - 0.5, ramp / 4 + 1)
    bank = NIGPosteriorBank(ramp / 8 - 0.5, ramp + 1, ramp / 2 + 1, ramp / 4 + 0.5, weights)
    return {
        "FMAP": (feature_map_to_bytes(fmap), feature_map_from_bytes),
        "GMMC": (classifier_to_bytes(model), classifier_from_bytes),
        "NIGB": (bank_to_bytes(bank), bank_from_bytes),
    }


# sha256 of each pinned object's container bytes
PINNED_SHA256 = {
    "FMAP": "c6a20a59ee71e293e1e28697eed84d20ad36cbd7a773246749a7f370be1a671c",
    "GMMC": "aba1f27fc39cd4e3088dd6cff6bea72b06472cf04b353f4e8ec4d6022401bacf",
    "NIGB": "c6ac6b4464e29c91abd08075ba0b10e18f07f80e36c689a20126aef0824f9069",
}


@pytest.mark.parametrize("kind", sorted(PINNED_SHA256))
def test_container_bytes_and_errors_are_pinned(kind):
    data, parse = pinned_objects()[kind]
    assert hashlib.sha256(data).hexdigest() == PINNED_SHA256[kind]
    magic = kind.encode()
    bad = {
        f"truncated {kind} container: 10 bytes": data[:10],
        f"bad magic b'XXXX', expected {magic!r}": b"XXXX" + data[4:],
        f"unsupported {kind} version 2": data[:4] + struct.pack("<H", 2) + data[6:],
        f"{kind} size mismatch: declared {len(data)} bytes, got {len(data) + 1}": data + b"\0",
        f"{kind} size mismatch: declared {len(data)} bytes, got {len(data) - 1}": data[:-1],
    }
    for message, corrupt in bad.items():
        with pytest.raises(FormatError) as info:
            parse(corrupt)
        assert str(info.value) == message


def payload_values(magic, dims):
    """float64 values a GMMC or NIGB container of ``dims`` holds."""
    c, k, d = dims
    return c * k * (1 + 2 * d) if magic == b"GMMC" else c * k * (4 * d + 1)


@pytest.mark.parametrize("dims", [(0, 1, 1), (1, 0, 1), (1, 1, 0), (2, 1, 0)])
@pytest.mark.parametrize("magic, parse", [(b"GMMC", classifier_from_bytes),
                                          (b"NIGB", bank_from_bytes)])
def test_parameter_containers_refuse_an_empty_axis(magic, parse, dims):
    """A parameter set needs one class, component and dimension at least;
    an empty axis used to parse, then fail every scan in scoring."""
    data = struct.pack("<4sHIII", magic, 1, *dims) + np.ones(payload_values(magic, dims)).tobytes()
    with pytest.raises((ShapeError, ValueError), match="at least (1|one)"):
        parse(data)


@pytest.mark.parametrize("magic, parse", [(b"GMMC", classifier_from_bytes),
                                          (b"NIGB", bank_from_bytes)])
def test_dims_past_any_record_are_a_size_mismatch(magic, parse):
    """numpy builds no record over 2 GiB; a header declaring one is still
    sized, and refused by its length."""
    dims = (1, 2**31, 2**31)
    data = struct.pack("<4sHIII", magic, 1, *dims) + b"\0" * 8
    declared = HEADER_SIZE + 8 * payload_values(magic, dims)
    with pytest.raises(FormatError) as info:
        parse(data)
    assert str(info.value) == f"{magic.decode()} size mismatch: declared {declared} bytes, got 26"
