import errno
import os
import struct

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
    ClassGMM,
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

    def test_from_grid_requires_2d(self):
        with pytest.raises(ShapeError):
            FeatureMap.from_grid(np.zeros((2, 2, 2)), np.ones((2, 2), bool))

    def test_grid_requires_d1(self):
        fmap = random_feature_map(np.random.default_rng(4), d=2)
        with pytest.raises(ShapeError):
            fmap.grid()


def random_classifier(rng, c=3, k=2, d=4):
    classes = []
    for ci in range(c):
        w = rng.random(k)
        w /= w.sum()
        # renormalize exactly so the stored weights satisfy the invariant
        w[-1] = 1.0 - w[:-1].sum()
        classes.append(
            ClassGMM(ci, w, rng.normal(size=(k, d)), rng.random((k, d)) + 0.1)
        )
    return GMMClassifier(classes)


class TestGMMC:
    def test_round_trip(self):
        model = random_classifier(np.random.default_rng(5))
        back = classifier_from_bytes(classifier_to_bytes(model))
        assert back.num_classes == model.num_classes
        for a, b in zip(model.classes, back.classes):
            assert a.class_id == b.class_id
            np.testing.assert_array_equal(a.weights, b.weights)
            np.testing.assert_array_equal(a.means, b.means)
            np.testing.assert_array_equal(a.variances, b.variances)

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
