import ast
import json
import os
import re
import shutil
import struct
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from gmmood import _blas, cli, gmm, nig
from gmmood import metrics as metrics_mod
from gmmood.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_PARTIAL,
    DEFAULT_CLASS_MAP,
    load_run_config,
    main,
)
from gmmood.errors import ConvergenceError
from gmmood.formats import read_feature_map
from pooled import assert_pooled, record_items


def write_scan(path, points):
    path.write_bytes(np.asarray(points, dtype="<f4").tobytes())


def write_labels(path, labels):
    path.write_bytes(np.asarray(labels, dtype="<u4").tobytes())


def make_dataset(root, n_points=600, seed=0, n_scans=2):
    """Scans whose labels follow spatial octants, so classes are learnable."""
    rng = np.random.default_rng(seed)
    scan_dir = root / "scans"
    label_dir = root / "labels_raw"
    scan_dir.mkdir(parents=True)
    label_dir.mkdir(parents=True)
    for idx in range(n_scans):
        xyz = rng.normal(scale=12.0, size=(n_points, 3))
        xyz[:, 2] = rng.uniform(-2.0, 1.0, n_points)  # keep pitch in view
        intensity = rng.random(n_points)
        labels = np.where(xyz[:, 0] > 0, np.where(xyz[:, 1] > 0, 10, 20), 30)
        outliers = rng.random(n_points) < 0.05
        labels = np.where(outliers, 1, labels)
        ignored = rng.random(n_points) < 0.02
        labels = np.where(ignored & ~outliers, 0, labels)
        write_scan(scan_dir / f"{idx:03d}.bin", np.column_stack([xyz, intensity]))
        write_labels(label_dir / f"{idx:03d}.label", labels)
    return scan_dir, label_dir


def write_config(path, out_dir, scan_dir=None, label_dir=None, feature_dir=None,
                 score_dir=None, extra=""):
    lines = ["[paths]"]
    if scan_dir is not None:
        lines.append(f"scan_dir = {scan_dir}")
    if label_dir is not None:
        lines.append(f"label_dir = {label_dir}")
    if feature_dir is not None:
        lines.append(f"feature_dir = {feature_dir}")
    if score_dir is not None:
        lines.append(f"score_dir = {score_dir}")
    lines.append(f"out_dir = {out_dir}")
    lines.append(
        "\n[model]\nclasses = 3\ncomponents = 2\nfeature_dim = 5\n"
        "\n[ensemble]\nn_samples = 8\nseed = 3\n"
        "\n[threshold]\ntop_fraction = 0.1\n"
        "\n[projection]\nheight = 16\nwidth = 128\n"
        "\n[class_map]\n10 = 0\n20 = 1\n30 = 2\n1 = outlier\n0 = ignore\n"
    )
    lines.append(extra)
    path.write_text("\n".join(lines))
    return path


class TestProjectCommand:
    def test_end_to_end_projection(self, tmp_path):
        scan_dir, label_dir = make_dataset(tmp_path)
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "run.ini", out, scan_dir, label_dir)
        assert main(["project", "--config", str(cfg)]) == EXIT_OK
        manifest = json.loads((out / "project_manifest.json").read_text())
        assert manifest["failed"] == 0
        assert len(manifest["files"]) == 2
        fmap = read_feature_map(out / "range" / "000.fmap")
        assert fmap.dim == 5
        assert fmap.valid.any()
        labels = read_feature_map(out / "labels" / "000.fmap")
        np.testing.assert_array_equal(labels.valid, fmap.valid)

    def test_scan_without_label_file_gets_no_label_grid(self, tmp_path):
        """A scan with no label file gets its range image and no label grid;
        the other's grid holds the label of the point that won each valid
        pixel, and -1 elsewhere."""
        from gmmood import rangeview

        scan_dir, label_dir = make_dataset(tmp_path)
        (label_dir / "001.label").unlink()
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "run.ini", out, scan_dir, label_dir)
        assert main(["project", "--config", str(cfg)]) == EXIT_OK
        files = json.loads((out / "project_manifest.json").read_text())["files"]
        assert [f["scan"] for f in files] == ["000.bin", "001.bin"]
        assert files[0]["label_grid"] == "labels/000.fmap" and "label_grid" not in files[1]
        assert files[1]["range_image"] == "range/001.fmap"
        assert sorted(p.name for p in (out / "labels").iterdir()) == ["000.fmap"]
        cloud = rangeview.parse_point_cloud((scan_dir / "000.bin").read_bytes())
        image = rangeview.project_spherical(
            cloud, load_run_config(str(cfg), cli.build_parser().parse_args(["project"])).projection
        )
        labels = rangeview.parse_labels((label_dir / "000.label").read_bytes(), len(cloud))
        grid = read_feature_map(out / "labels" / "000.fmap")
        np.testing.assert_array_equal(grid.valid, image.valid)
        np.testing.assert_array_equal(
            grid.values[:, :, 0], np.where(image.valid, labels[image.point_index], -1)
        )

    def test_missing_label_dir_is_refused(self, tmp_path, capsys):
        """A configured label_dir must exist, as for fit and eval; nothing
        is written."""
        scan_dir, _ = make_dataset(tmp_path)
        out, missing = tmp_path / "out", tmp_path / "nowhere"
        cfg = write_config(tmp_path / "run.ini", out, scan_dir)
        argv = ["project", "--config", str(cfg), "--label-dir", str(missing)]
        assert main(argv) == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: label_dir {missing} does not exist\n"
        assert not out.exists()

    def test_empty_dir_gives_empty_manifest(self, tmp_path):
        scan_dir = tmp_path / "scans"
        scan_dir.mkdir()
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "run.ini", out, scan_dir)
        assert main(["project", "--config", str(cfg)]) == EXIT_OK
        manifest = json.loads((out / "project_manifest.json").read_text())
        assert manifest["files"] == []

    def test_corrupt_scan_is_partial_failure(self, tmp_path):
        scan_dir, label_dir = make_dataset(tmp_path)
        (scan_dir / "bad.bin").write_bytes(b"\x00" * 17)
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "run.ini", out, scan_dir, label_dir)
        assert main(["project", "--config", str(cfg)]) == EXIT_PARTIAL
        manifest = json.loads((out / "project_manifest.json").read_text())
        errored = [e for e in manifest["files"] if "error" in e]
        assert len(errored) == 1
        assert manifest["failed"] == 1
        assert (out / "range" / "000.fmap").exists()

    @pytest.mark.parametrize("bad, message", [
        ("empty", "scans/001.bin: cannot project an empty point cloud"),
        ("nan", "scans/001.bin: non-finite value in point 3"),
        ("labels", "labels_raw/001.label: label payload has 2396 bytes, expected 2400 for 600 "
                   "points of scans/001.bin"),
        ("records", "labels_raw/001.label: label payload has 2400 bytes, expected 160 for 40 "
                    "points of scans/001.bin"),
    ])
    def test_a_bad_scan_or_label_file_is_named(self, tmp_path, capsys, bad, message):
        """Read through the package's one file reader, a scan or label
        file that cannot be used is named as ``<dir>/<name>``, on stderr
        and in the manifest alike.  A scan cut at a record boundary parses,
        so its label count is refused naming both files."""
        scan_dir, label_dir = make_dataset(tmp_path)
        if bad == "empty":
            (scan_dir / "001.bin").write_bytes(b"")
        elif bad == "nan":
            points = np.fromfile(scan_dir / "001.bin", "<f4").reshape(-1, 4)
            points[3, 1] = np.nan
            write_scan(scan_dir / "001.bin", points)
        elif bad == "records":
            (scan_dir / "001.bin").write_bytes((scan_dir / "001.bin").read_bytes()[:40 * 16])
        else:
            cut_short(label_dir / "001.label")
        cfg = write_config(tmp_path / "run.ini", tmp_path / "out", scan_dir, label_dir)
        assert main(["project", "--config", str(cfg)]) == EXIT_PARTIAL
        assert capsys.readouterr().err == f"error: {message}\n"
        manifest = json.loads((tmp_path / "out" / "project_manifest.json").read_text())
        assert manifest["files"][1] == {"scan": "001.bin", "error": message}

    def test_scans_projected_on_the_pool_match_a_serial_run(self, tmp_path, monkeypatch, capsys):
        """Three scans, the middle one corrupt: on the pool and one after
        another, ``project`` writes the same files and manifest, prints
        the same and exits 1."""
        from gmmood import rangeview

        scan_dir, label_dir = make_dataset(tmp_path)
        shutil.copy(scan_dir / "001.bin", scan_dir / "002.bin")
        shutil.copy(label_dir / "001.label", label_dir / "002.label")
        (scan_dir / "001.bin").write_bytes(b"\x00" * 17)
        cfg = write_config(tmp_path / "run.ini", tmp_path / "unused", scan_dir, label_dir)
        runs = run_on_pool_and_serially(monkeypatch, capsys, ["project", "--config", str(cfg)],
                                        tmp_path, rangeview, "project_spherical")
        assert runs["pooled"] == runs["serial"]
        code, _, _, files = runs["pooled"]
        assert code == EXIT_PARTIAL
        manifest = json.loads(files[Path("project_manifest.json")])
        assert [f["scan"] for f in manifest["files"]] == ["000.bin", "001.bin", "002.bin"]
        assert "error" in manifest["files"][1] and manifest["failed"] == 1
        assert Path("range/002.fmap") in files and Path("labels/002.fmap") in files

    def test_missing_scan_dir_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path / "run.ini", tmp_path / "out", tmp_path / "nope")
        assert main(["project", "--config", str(cfg)]) == EXIT_CONFIG


def run_on_pool_and_serially(monkeypatch, capsys, argv, root, owner, attr):
    """Run ``main([*argv, "--out", root / name])`` for name "pooled", on
    the pool, then for "serial", with no OpenBLAS found (files in turn on
    the calling thread); returns ``{name: (exit code, stdout, stderr,
    {path under the out dir: bytes})}``.  ``owner.attr``, which each
    file's work calls, must run on the pool wherever an OpenBLAS is
    found (on the calling thread and its helpers, some call on a helper,
    every call with OpenBLAS at one thread), and on the calling thread
    serially."""
    log = record_items(monkeypatch, owner, attr)
    runs = {}
    for name in ("pooled", "serial"):
        if name == "serial":
            monkeypatch.setattr(_blas, "_found", [])
        log.clear()
        out = root / name
        code = main([*argv, "--out", str(out)])
        stdout, stderr = capsys.readouterr()
        if name == "serial" or not _blas._libraries():
            assert {thread for thread, _ in log} == {threading.current_thread().name}
        else:
            assert_pooled(log)
        files = {p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()}
        runs[name] = (code, stdout, stderr, files)
    return runs


@pytest.fixture
def projected(tmp_path):
    scan_dir, label_dir = make_dataset(tmp_path)
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path / "run.ini",
        out,
        scan_dir,
        label_dir,
        feature_dir=out / "range",
    )
    assert main(["project", "--config", str(cfg)]) == EXIT_OK
    return cfg, out, tmp_path


class TestFitCommand:
    def test_fit_writes_artifacts(self, projected):
        cfg, out, _ = projected
        fit_cfg = write_config(
            out.parent / "fit.ini",
            out,
            label_dir=out / "labels",
            feature_dir=out / "range",
        )
        assert main(["fit", "--config", str(fit_cfg)]) == EXIT_OK
        assert (out / "model.gmmc").exists()
        assert (out / "bank.nigb").exists()
        report = json.loads((out / "fit_report.json").read_text())
        assert set(report["classes"]) == {"0", "1", "2"}
        for entry in report["classes"].values():
            assert entry["samples"] >= 2
            assert entry["em_iterations"] >= 1
        # artifacts round-trip through the library's own parsers
        from gmmood.gmm import load_classifier
        from gmmood.nig import load_bank

        model = load_classifier(out / "model.gmmc")
        bank = load_bank(out / "bank.nigb")
        assert model.num_classes == 3 and model.feature_dim == 5
        assert bank.mu.shape == model.means.shape
        np.testing.assert_allclose(bank.weights, model.weights, rtol=1e-12)

    def test_outliers_excluded_from_counts(self, projected):
        cfg, out, _ = projected
        fit_cfg = write_config(
            out.parent / "fit.ini",
            out,
            label_dir=out / "labels",
            feature_dir=out / "range",
        )
        assert main(["fit", "--config", str(fit_cfg)]) == EXIT_OK
        report = json.loads((out / "fit_report.json").read_text())
        total_train = sum(e["samples"] for e in report["classes"].values())
        n_labeled = 0
        n_excluded = 0
        for grid_path in sorted((out / "labels").glob("*.fmap")):
            grid = read_feature_map(grid_path)
            raw = np.round(grid.values[:, :, 0][grid.valid]).astype(int)
            n_labeled += raw.size
            n_excluded += ((raw == 0) | (raw == 1)).sum()
        assert total_train == n_labeled - n_excluded

    def test_missing_class_is_insufficient_data(self, projected, capsys):
        cfg, out, _ = projected
        fit_cfg = write_config(
            out.parent / "fit.ini",
            out,
            label_dir=out / "labels",
            feature_dir=out / "range",
            extra="40 = 3\n[DEFAULT]\n",  # a class map entry, then a section
        )
        # ask for a fourth class that the map labels but no pixel carries
        assert (
            main(["fit", "--config", str(fit_cfg), "--classes", "4"]) == EXIT_CONFIG
        )
        assert "class 3 has 0 samples; needs at least 2" in capsys.readouterr().err

    def test_a_class_whose_fit_fails_stops_the_run(self, projected, capsys, monkeypatch):
        """Class 2's EM raises: the run exits 2 with one error line that
        names the class, and writes no model, bank or fit report."""
        cfg, out, _ = projected
        fit_cfg = write_config(
            out.parent / "fit.ini", out, label_dir=out / "labels", feature_dir=out / "range"
        )
        real_em_fit = gmm.em_fit

        def failing(*args, class_id, **kwargs):
            if class_id == 2:
                raise ConvergenceError("EM log-likelihood decreased (class 2)")
            return real_em_fit(*args, class_id=class_id, **kwargs)

        monkeypatch.setattr(gmm, "em_fit", failing)
        assert main(["fit", "--config", str(fit_cfg)]) == EXIT_CONFIG
        assert capsys.readouterr().err == "error: EM log-likelihood decreased (class 2)\n"
        assert not {p.name for p in out.iterdir()} & {"model.gmmc", "bank.nigb", "fit_report.json"}

    @pytest.mark.parametrize("classes", [4, 10**9])
    def test_classes_beyond_the_class_map_are_refused_before_any_read(
        self, projected, capsys, monkeypatch, classes
    ):
        """A ``classes`` above the class map's largest train id + 1 (2
        here) leaves a class no pixel can carry: ``fit`` and ``eval``
        each exit 2 naming both before they read a grid, so a huge value
        costs nothing."""
        _, out, _ = projected
        fit_cfg = write_config(
            out.parent / "fit.ini", out, label_dir=out / "labels", feature_dir=out / "range"
        )

        def no_read(*args):
            raise AssertionError("a grid was read")

        monkeypatch.setattr(cli, "_read_features", no_read)
        monkeypatch.setattr(cli, "_read_grid", no_read)
        for command in ("fit", "eval"):
            tracemalloc.start()
            try:
                code = main([command, "--config", str(fit_cfg), "--classes", str(classes)])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert code == EXIT_CONFIG, command
            assert capsys.readouterr().err == (
                "error: 'classes' in [model] must be at most 3 (the class map's largest train "
                f"id + 1), got {classes}\n"
            )
            assert peak < 1 << 20, f"{command}: {peak} B traced"
        assert not (out / "model.gmmc").exists()

    def test_non_finite_feature_is_config_error(self, projected, capsys):
        cfg, out, _ = projected
        fit_cfg = write_config(
            out.parent / "fit.ini", out, label_dir=out / "labels", feature_dir=out / "range"
        )
        write_nan_pixel(out / "range" / "001.fmap", out / "range" / "001.fmap")
        assert main(["fit", "--config", str(fit_cfg)]) == EXIT_CONFIG
        assert "non-finite" in capsys.readouterr().err

    def test_refit_is_byte_identical(self, projected):
        cfg, out, root = projected
        fit_cfg = write_config(
            root / "fit.ini", out, label_dir=out / "labels", feature_dir=out / "range"
        )
        assert main(["fit", "--config", str(fit_cfg)]) == EXIT_OK
        first_model = (out / "model.gmmc").read_bytes()
        first_bank = (out / "bank.nigb").read_bytes()
        assert main(["fit", "--config", str(fit_cfg)]) == EXIT_OK
        assert (out / "model.gmmc").read_bytes() == first_model
        assert (out / "bank.nigb").read_bytes() == first_bank

    @pytest.mark.parametrize("fit", ["pooled", "serial"])
    def test_lowest_short_class_is_reported(self, tmp_path, capsys, monkeypatch, fit):
        """Classes 2 and 5 both short of samples: the message names class
        2, whether the classes are fitted on the pool or one by one."""
        if fit == "serial":
            monkeypatch.setattr(_blas, "_found", [])
        # raw ids of train classes 0..5 in the default class map; class 2
        # gets one pixel, class 5 none
        raw = np.resize([10, 11, 18, 20], (4, 64))
        raw[0, 0] = 15
        features, labels = write_fit_inputs(tmp_path, [raw], dim=3, seed=8)
        argv = ["fit", "--feature-dir", str(features), "--label-dir", str(labels),
                "--out", str(tmp_path / "out"), "--classes", "6", "--feature-dim", "3"]
        assert main(argv) == EXIT_CONFIG
        assert capsys.readouterr().err == "error: class 2 has 1 samples; needs at least 2\n"

    def test_memory_per_training_value_is_bounded(self, tmp_path, monkeypatch):
        """Training features stay in float32 as read, as each scan's
        per-class parts, and each class is widened to float64 only while
        it is fitted, straight from its parts into one feature-major copy:
        5.9 B per training value (samples x D) on these 19 classes,
        against 8.3 B when the classes were first concatenated into a
        second float32 copy beside the parts.  Earlier layouts, measured
        on the first 10 of these classes: 8.7 B when EM also kept a
        C-ordered copy and took (N, D) M-step temporaries, 10.6 B when
        each scan's classes were picked by boolean masks and 16.0 B when
        every class was pooled in float64 and EM took two (K, N, D)
        temporaries.  Classes are fitted serially, so that the peak does
        not depend on how many are in flight at once."""
        monkeypatch.setattr(_blas, "_found", [])
        rng = np.random.default_rng(9)
        # the raw ids of train classes 0..18 and of an ignored class
        raw = [10, 11, 15, 18, 20, 30, 31, 32, 40, 44, 48, 49, 50, 51, 70, 71, 72, 80, 81, 0]
        scans = [rng.choice(raw, size=(16, 256)) for _ in range(4)]
        features, labels = write_fit_inputs(tmp_path, scans, dim=32, seed=10)
        argv = ["fit", "--feature-dir", str(features), "--label-dir", str(labels),
                "--out", str(tmp_path / "out"), "--classes", "19", "--feature-dim", "32"]
        assert main(argv) == EXIT_OK  # warm-up: lazy imports and caches
        tracemalloc.start()
        try:
            assert main(argv) == EXIT_OK
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        report = json.loads((tmp_path / "out" / "fit_report.json").read_text())
        values = 32 * sum(entry["samples"] for entry in report["classes"].values())
        assert peak / values < 7, f"{peak / values:.1f} B per training value"

    @pytest.mark.parametrize("reads", ["pooled", "serial"])
    def test_scans_grouped_on_the_pool_fit_as_a_serial_masked_read(
        self, tmp_path, monkeypatch, reads
    ):
        """Each scan's rows grouped by one stable sort, on the pool or one
        scan after another, give the model, bank and report bytes of
        scans read in turn with one boolean mask per class: the same rows
        in the same order.  The scans mix invalid, outlier, ignored and
        unmapped pixels, and class 4 is missing from two of them."""
        if reads == "serial":
            monkeypatch.setattr(_blas, "_found", [])
        rng = np.random.default_rng(21)
        # train classes 0..5 of the default map, outlier 1, ignore 0, unmapped 7
        raw = [10, 11, 15, 18, 20, 30, 1, 0, 7]
        scans = [rng.choice(raw, size=(8, 64)) for _ in range(5)]
        for scan in scans[1:3]:
            scan[scan == 20] = 30
        features, labels = write_fit_inputs(tmp_path, scans, dim=4, seed=22, invalid=0.2)
        out = tmp_path / "out"
        argv = ["fit", "--feature-dir", str(features), "--label-dir", str(labels),
                "--out", str(out), "--classes", "6", "--feature-dim", "4"]
        assert main(argv) == EXIT_OK

        cfg = cli.RunConfig()
        pooled = [[] for _ in range(6)]
        for fpath in sorted(features.glob("*.fmap")):
            fmap = read_feature_map(fpath)
            grid = read_feature_map(labels / fpath.name)
            code = DEFAULT_CLASS_MAP.map_array(np.round(grid.values[:, :, 0]))
            usable = fmap.valid & grid.valid
            for c, parts in enumerate(pooled):
                parts.append(fmap.values[usable & (code == c)])
        per_class = [np.concatenate(parts) for parts in pooled]
        model, stats = gmm.fit_classifier(
            per_class, cfg.model.components, max_iters=cfg.em.max_iters, tol=cfg.em.tol,
            seed=cfg.ensemble.seed,
        )
        report = {
            str(c): {
                "samples": len(x),
                "em_iterations": int(st.log_likelihoods.size),
                "final_log_likelihood": float(st.log_likelihoods[-1]),
                "reseeds": int(st.reseeds),
            }
            for c, (x, st) in enumerate(zip(per_class, stats))
        }
        cli._write_json(tmp_path / "want.json", {"classes": report})
        assert (out / "model.gmmc").read_bytes() == gmm.classifier_to_bytes(model)
        assert (out / "bank.nigb").read_bytes() == nig.bank_to_bytes(
            nig.build_bank(model, stats, cfg.prior)
        )
        assert (out / "fit_report.json").read_bytes() == (tmp_path / "want.json").read_bytes()

    @pytest.mark.parametrize("first", ["non-finite", "dimension"])
    def test_first_bad_scan_in_sorted_order_is_reported(self, tmp_path, capsys, first):
        """Two bad scans, whose reads may fail at once on the pool: the
        error is the first one's in sorted order, and names it."""
        from gmmood.formats import FeatureMap, write_feature_map

        scans = [np.resize([10, 11, 15], (4, 32)) for _ in range(4)]
        features, labels = write_fit_inputs(tmp_path, scans, dim=3, seed=23)
        nan_scan, wide_scan = ("001", "002") if first == "non-finite" else ("002", "001")
        write_nan_pixel(features / f"{nan_scan}.fmap", features / f"{nan_scan}.fmap")
        write_feature_map(
            FeatureMap(np.zeros((4, 32, 5)), np.ones((4, 32), bool)),
            features / f"{wide_scan}.fmap",
        )
        argv = ["fit", "--feature-dir", str(features), "--label-dir", str(labels),
                "--out", str(tmp_path / "out"), "--classes", "3", "--feature-dim", "3"]
        assert main(argv) == EXIT_CONFIG
        want = {
            "non-finite": "features/001.fmap: non-finite feature value at a valid pixel",
            "dimension": "features/001.fmap: feature dimension 5, expected 3",
        }[first]
        assert capsys.readouterr().err == f"error: {want}\n"

    def test_corrupt_label_grid_names_its_file(self, tmp_path, capsys):
        """A label grid that is no FMAP stops the fit, naming the file by
        its directory too: a feature map of the same name corrupted alike
        gives another error."""
        scans = [np.resize([10, 11, 15], (4, 32)) for _ in range(3)]
        features, labels = write_fit_inputs(tmp_path, scans, dim=3, seed=25)
        argv = ["fit", "--feature-dir", str(features), "--label-dir", str(labels),
                "--out", str(tmp_path / "out"), "--classes", "3", "--feature-dim", "3"]
        errors = []
        for path in (labels / "001.fmap", features / "001.fmap"):
            data = path.read_bytes()
            path.write_bytes(b"JUNK" + data[4:])
            assert main(argv) == EXIT_CONFIG
            errors.append(capsys.readouterr().err)
            path.write_bytes(data)
        assert errors == [
            f"error: {sub}/001.fmap: bad magic b'JUNK', expected b'FMAP'\n"
            for sub in ("labels", "features")
        ]

    def test_train_id_beyond_classes_is_config_error(self, tmp_path, capsys):
        """A labeled pixel whose train id is not below ``classes`` stops
        the fit before anything is written; outlier, ignored and unmapped
        raw ids do not."""
        scans = [np.resize([10, 11, 1, 0, 7], (4, 40)) for _ in range(3)]
        scans[1][2, 5] = 15  # train id 2
        features, labels = write_fit_inputs(tmp_path, scans, dim=3, seed=24)
        out = tmp_path / "out"
        argv = ["fit", "--feature-dir", str(features), "--label-dir", str(labels),
                "--out", str(out), "--feature-dim", "3", "--classes"]
        assert main([*argv, "2"]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "error: labels/001.fmap: train id 2 is not below classes = 2\n"
        )
        assert list(out.iterdir()) == []
        scans[1][3, 6] = 15  # class 2 needs two samples for K = 2
        shutil.rmtree(features)
        shutil.rmtree(labels)
        write_fit_inputs(tmp_path, scans, dim=3, seed=24)
        assert main([*argv, "3"]) == EXIT_OK

    def test_train_id_is_checked_where_the_feature_map_is_invalid(self, tmp_path, capsys):
        """The label grid's own valid pixels are checked: a train id 2 at
        a pixel its feature map marks invalid, which no class would read,
        still stops a fit at ``classes = 2``."""
        from gmmood.formats import FeatureMap, write_feature_map

        scans = [np.resize([10, 11], (4, 40)) for _ in range(3)]
        scans[1][2, 5] = 15  # train id 2
        features, labels = write_fit_inputs(tmp_path, scans, dim=3, seed=26)
        fmap = read_feature_map(features / "001.fmap")
        valid = fmap.valid.copy()
        valid[2, 5] = False
        write_feature_map(FeatureMap(fmap.values, valid), features / "001.fmap")
        argv = ["fit", "--feature-dir", str(features), "--label-dir", str(labels),
                "--out", str(tmp_path / "out"), "--feature-dim", "3", "--classes", "2"]
        assert main(argv) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "error: labels/001.fmap: train id 2 is not below classes = 2\n"
        )

    def test_scan_with_no_rows_fits_and_evaluates(self, fitted):
        """A 0 x W scan among the others, with its label grid, fits,
        scores and evaluates like a scan with no valid pixel."""
        from gmmood.formats import FeatureMap, write_feature_map

        cfg, out, root = fitted
        write_feature_map(FeatureMap(np.zeros((0, 128, 5)), np.zeros((0, 128), bool)),
                          out / "range" / "zzz.fmap")
        write_feature_map(FeatureMap(np.zeros((0, 128, 1)), np.zeros((0, 128), bool)),
                          out / "labels" / "zzz.fmap")
        assert main(["fit", "--config", str(cfg)]) == EXIT_OK
        assert main(["score", "--config", str(cfg)]) == EXIT_OK
        assert (out / "predictions" / "zzz.fmap").exists()
        assert main(["eval", "--config", str(cfg), "--label-dir", str(out / "labels"),
                     "--score-dir", str(out), "--out", str(root / "eval")]) == EXIT_OK


def write_fit_inputs(root, raw_labels, dim, seed, invalid=0.0):
    """A feature map of ``dim`` channels per raw-label grid under
    ``root``, every pixel valid or, given ``invalid``, that fraction of
    them invalid; returns (feature dir, label dir)."""
    from gmmood.formats import FeatureMap, write_feature_map

    rng = np.random.default_rng(seed)
    features, labels = root / "features", root / "labels"
    features.mkdir()
    labels.mkdir()
    for i, raw in enumerate(raw_labels):
        valid = rng.random(raw.shape) >= invalid if invalid else np.ones(raw.shape, bool)
        values = rng.normal(0.0, 1.0, (*raw.shape, dim)) + raw[..., None] % 7
        write_feature_map(FeatureMap(values, valid), features / f"{i:03d}.fmap")
        write_feature_map(FeatureMap(raw[..., None], valid), labels / f"{i:03d}.fmap")
    return features, labels


def write_nan_pixel(src, dst):
    """Copy a feature map with one value of its first valid pixel set to NaN."""
    from gmmood.formats import FeatureMap, write_feature_map

    fmap = read_feature_map(src)
    values = fmap.values.copy()
    row, col = np.argwhere(fmap.valid)[0]
    values[row, col, 0] = np.nan
    write_feature_map(FeatureMap(values, fmap.valid), dst)


@pytest.fixture
def fitted(projected):
    cfg, out, root = projected
    fit_cfg = write_config(
        root / "fit.ini", out, label_dir=out / "labels", feature_dir=out / "range"
    )
    assert main(["fit", "--config", str(fit_cfg)]) == EXIT_OK
    return fit_cfg, out, root


class TestScoreCommand:
    def test_score_outputs(self, fitted):
        cfg, out, root = fitted
        assert main(["score", "--config", str(cfg)]) == EXIT_OK
        manifest = json.loads((out / "score_manifest.json").read_text())
        assert len([f for f in manifest["files"] if "error" not in f]) == 2
        for stem in ("000", "001"):
            for channel in (
                "epistemic",
                "predictive_entropy",
                "aleatoric",
                "mutual_information",
                "deterministic_entropy",
                "max_posterior",
            ):
                assert (out / "scores" / f"{stem}_{channel}.fmap").exists()
            assert (out / "predictions" / f"{stem}.fmap").exists()
            assert (out / "ood_masks" / f"{stem}.fmap").exists()
        total_valid = sum(f["n_valid"] for f in manifest["files"])
        total_flagged = sum(f["flagged"] for f in manifest["files"])
        assert 0 < total_flagged <= int(0.1 * total_valid) + 1

    def test_all_invalid_feature_file_warns(self, fitted):
        cfg, out, root = fitted
        from gmmood.formats import FeatureMap, write_feature_map

        empty = FeatureMap(np.zeros((16, 128, 5), np.float32), np.zeros((16, 128), bool))
        write_feature_map(empty, out / "range" / "zzz_empty.fmap")
        assert main(["score", "--config", str(cfg)]) == EXIT_OK
        manifest = json.loads((out / "score_manifest.json").read_text())
        assert any("zzz_empty" in w for w in manifest["warnings"])
        mask = read_feature_map(out / "ood_masks" / "zzz_empty.fmap")
        assert not mask.values.any()

    def test_dimension_mismatch_is_reported(self, fitted):
        cfg, out, root = fitted
        from gmmood.formats import FeatureMap, write_feature_map

        bad = FeatureMap(np.zeros((4, 4, 7), np.float32), np.ones((4, 4), bool))
        write_feature_map(bad, out / "range" / "bad_dim.fmap")
        assert main(["score", "--config", str(cfg)]) == EXIT_PARTIAL
        manifest = json.loads((out / "score_manifest.json").read_text())
        errored = [f for f in manifest["files"] if "error" in f]
        assert errored == [{"file": "bad_dim",
                            "error": "range/bad_dim.fmap: feature dimension 7, expected 5"}]

    def test_unreadable_feature_file_is_partial_failure(self, fitted):
        cfg, out, _ = fitted
        (out / "range" / "bad.fmap").mkdir()
        assert main(["score", "--config", str(cfg)]) == EXIT_PARTIAL
        manifest = json.loads((out / "score_manifest.json").read_text())
        errored = [f for f in manifest["files"] if "error" in f]
        assert [f["file"] for f in errored] == ["bad"]
        assert len(manifest["files"]) == 3

    def test_non_finite_feature_file_is_partial_failure(self, fitted):
        cfg, out, _ = fitted
        write_nan_pixel(out / "range" / "000.fmap", out / "range" / "nan.fmap")
        assert main(["score", "--config", str(cfg)]) == EXIT_PARTIAL
        manifest = json.loads((out / "score_manifest.json").read_text())
        errored = [f for f in manifest["files"] if "error" in f]
        assert [f["file"] for f in errored] == ["nan"]
        assert "non-finite" in errored[0]["error"]
        scored = sorted(f["file"] for f in manifest["files"] if "error" not in f)
        assert scored == ["000", "001"]
        assert not (out / "scores" / "nan_epistemic.fmap").exists()

    def test_per_scan_thresholds_follow_each_scan(self, fitted):
        """With ``--per-scan-threshold`` each scan's threshold is the
        percentile threshold of its own float64 epistemic values, and its
        mask flags the valid pixels above it.  The far scan's votes split
        where the others' are mostly unanimous, so the thresholds differ;
        a scan with no valid pixel gets a null threshold, an all-zero
        mask and a warning.  A unanimous pixel's written score, and a
        threshold of zero, are +0.0."""
        from gmmood.formats import FeatureMap, write_feature_map

        cfg, out, _ = fitted
        rng = np.random.default_rng(22)
        far = rng.normal(0.0, 100.0, (16, 128, 5))
        write_feature_map(FeatureMap(far, rng.random((16, 128)) < 0.3), out / "range" / "far.fmap")
        write_feature_map(FeatureMap(far, np.zeros((16, 128), bool)), out / "range" / "none.fmap")
        assert main(["score", "--config", str(cfg), "--per-scan-threshold"]) == EXIT_OK
        manifest = json.loads((out / "score_manifest.json").read_text())
        assert manifest["per_scan"] is True
        assert manifest["warnings"] == ["none: no valid pixels"]
        run = load_run_config(str(cfg), cli.build_parser().parse_args(["score"]))
        model = gmm.load_classifier(out / "model.gmmc")
        members = nig.sample_ensemble(
            nig.load_bank(out / "bank.nigb"), run.ensemble.n_samples, run.ensemble.seed
        )
        thresholds = {}
        for entry in manifest["files"]:
            stem = entry["file"]
            umap = cli.ens.score_feature_map(
                read_feature_map(out / "range" / f"{stem}.fmap"), model, members
            )
            mask = read_feature_map(out / "ood_masks" / f"{stem}.fmap").values[:, :, 0]
            values = umap.epistemic[umap.valid]
            if stem == "none":
                assert entry["threshold"] is None and not mask.any()
                continue
            want = metrics_mod.percentile_threshold(values, run.threshold.top_fraction)[0]
            assert entry["threshold"] == want and not np.signbit(entry["threshold"])
            written = read_feature_map(out / "scores" / f"{stem}_epistemic.fmap").values[:, :, 0]
            assert (written[umap.valid] == 0.0).any() and not np.signbit(written).any()
            np.testing.assert_array_equal(mask, umap.valid & (umap.epistemic > want))
            assert entry["flagged"] == int(mask.sum())
            thresholds[stem] = want
        assert sorted(thresholds) == ["000", "001", "far"]
        assert thresholds["far"] > max(thresholds["000"], thresholds["001"])

    def test_bank_drawing_an_infinite_variance_is_config_error(self, fitted, capsys):
        """A parseable bank with one cell at alpha = 1e-300, beta = 1e300
        draws an infinite variance: ``score`` exits 2 naming the member's
        array before it writes any score map."""
        cfg, out, root = fitted
        bank = nig.load_bank(out / "bank.nigb")
        bank.alpha[1, 0, 2], bank.beta[1, 0, 2] = 1e-300, 1e300
        nig.save_bank(bank, root / "extreme.nigb")
        assert main(["score", "--config", str(cfg), "--out", str(root / "extreme"),
                     "--model-path", str(out / "model.gmmc"),
                     "--bank-path", str(root / "extreme.nigb")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: GMMClassifier.variances must be finite, got inf at ")
        assert "(1, 0, 2)" in err
        assert not any((root / "extreme").rglob("*.fmap"))

    def test_bank_drawing_coefficients_that_overflow_is_config_error(self, fitted, capsys):
        """A bank cell at alpha = 1e308, beta = 1e-10 draws a finite
        variance near 1e-318, whose precision overflows float64: ``score``
        exits 2 naming the cause before it writes any score map."""
        cfg, out, root = fitted
        bank = nig.load_bank(out / "bank.nigb")
        bank.alpha[1, 0, 2], bank.beta[1, 0, 2] = 1e308, 1e-10
        nig.save_bank(bank, root / "extreme.nigb")
        assert main(["score", "--config", str(cfg), "--out", str(root / "extreme"),
                     "--model-path", str(out / "model.gmmc"),
                     "--bank-path", str(root / "extreme.nigb")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: Gaussian log-density coefficients overflow float64: ")
        assert err.count("\n") == 1
        assert not any((root / "extreme").rglob("*.fmap"))

    @pytest.mark.parametrize("model_classes, bank_classes", [(3, 5), (5, 3)])
    def test_model_bank_mismatch_is_config_error(
        self, fitted, capsys, model_classes, bank_classes
    ):
        from gmmood.gmm import GMMClassifier, save_classifier
        from gmmood.nig import NIGPosteriorBank, save_bank

        cfg, out, root = fitted
        k, d = 2, 5
        model = GMMClassifier(
            np.full((model_classes, k), 1 / k),
            np.arange(model_classes, dtype=float)[:, None, None] + np.zeros((k, d)),
            np.ones((model_classes, k, d)),
        )
        shape = (bank_classes, k, d)
        bank = NIGPosteriorBank(
            np.zeros(shape), np.ones(shape), np.full(shape, 2.0), np.ones(shape),
            np.full(shape[:2], 1 / k),
        )
        save_classifier(model, root / "mixed.gmmc")
        save_bank(bank, root / "mixed.nigb")
        assert main(["score", "--config", str(cfg), "--out", str(root / "mixed"),
                     "--model-path", str(root / "mixed.gmmc"),
                     "--bank-path", str(root / "mixed.nigb")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert str((model_classes, k, d)) in err and str(shape) in err
        assert str(root / "mixed.gmmc") in err and str(root / "mixed.nigb") in err
        # refused before any output directory is made
        assert not any((root / "mixed" / sub).exists()
                       for sub in ("scores", "predictions", "ood_masks"))

    def test_bank_from_another_fit_is_config_error(self, fitted, capsys):
        """Two fits of one training set with EM seeds 1 and 2 give one
        (C, K, D) but other mixture weights, which each bank copies from
        its model bit for bit: scoring model 1 with bank 2 exits 2,
        naming both paths, before any output directory is made."""
        cfg, out, root = fitted
        for seed in (1, 2):
            assert main(["fit", "--config", str(cfg), "--out", str(root / f"fit{seed}"),
                         "--seed", str(seed)]) == EXIT_OK
        model_path, bank_path = root / "fit1" / "model.gmmc", root / "fit2" / "bank.nigb"
        model, bank = gmm.load_classifier(model_path), nig.load_bank(bank_path)
        assert bank.mu.shape == model.means.shape
        assert not np.array_equal(bank.weights, model.weights)
        assert main(["score", "--config", str(cfg), "--out", str(root / "crossed"),
                     "--model-path", str(model_path), "--bank-path", str(bank_path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert str(model_path) in err and str(bank_path) in err and "weights differ" in err
        assert not (root / "crossed").exists()

    @pytest.mark.parametrize("bad", ["model", "bank"])
    def test_empty_axis_in_model_or_bank_is_config_error(self, fitted, capsys, bad):
        """A GMMC or NIGB declaring D = 0 is refused on load (exit 2); it
        used to parse, then fail every scan in the kernel's reshape."""
        cfg, out, root = fitted
        magic = {"model": b"GMMC", "bank": b"NIGB"}[bad]
        path = root / f"empty.{bad}"
        # (C, K, D) = (2, 2, 0): both payloads are the (C, K) weights alone
        path.write_bytes(struct.pack("<4sHIII", magic, 1, 2, 2, 0) + np.full(4, 0.5).tobytes())
        paths = {"model": out / "model.gmmc", "bank": out / "bank.nigb", bad: path}
        assert main(["score", "--config", str(cfg), "--out", str(root / "empty"),
                     "--model-path", str(paths["model"]),
                     "--bank-path", str(paths["bank"])]) == EXIT_CONFIG
        assert "every axis at least 1" in capsys.readouterr().err
        assert not (root / "empty" / "scores").exists()

    def test_model_below_the_variance_floor_is_config_error(self, fitted, capsys):
        """A model file whose variance is below EM's floor is refused on
        load (exit 2), naming the file, before any output is written; a
        drawn member may go below the floor, a fitted model may not."""
        cfg, out, root = fitted
        model = gmm.load_classifier(out / "model.gmmc")
        model.variances[1, 0, 2] = gmm.VARIANCE_FLOOR / 2
        (root / "below").mkdir()
        gmm.save_classifier(model, root / "below" / "model.gmmc")
        assert main(["score", "--config", str(cfg), "--out", str(root / "scored"),
                     "--model-path", str(root / "below" / "model.gmmc"),
                     "--bank-path", str(out / "bank.nigb")]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "error: below/model.gmmc: variances must be floored at 1e-06\n")
        assert not (root / "scored").exists()

    @pytest.mark.parametrize("bad", ["model", "bank"])
    def test_corrupt_model_or_bank_names_its_file(self, fitted, capsys, bad):
        """A GMMC whose magic is not its own, or an NIGB cut short, is
        refused on load (exit 2), naming the file."""
        cfg, out, root = fitted
        paths = {"model": out / "model.gmmc", "bank": out / "bank.nigb"}
        data = paths[bad].read_bytes()
        paths[bad] = root / "corrupt" / paths[bad].name
        paths[bad].parent.mkdir()
        paths[bad].write_bytes(b"JUNK" + data[4:] if bad == "model" else data[:-3])
        assert main(["score", "--config", str(cfg), "--out", str(root / "scored"),
                     "--model-path", str(paths["model"]),
                     "--bank-path", str(paths["bank"])]) == EXIT_CONFIG
        want = {
            "model": "bad magic b'JUNK', expected b'GMMC'",
            "bank": f"NIGB size mismatch: declared {len(data)} bytes, got {len(data) - 3}",
        }[bad]
        assert capsys.readouterr().err == f"error: corrupt/{paths[bad].name}: {want}\n"
        assert not (root / "scored").exists()

    def test_jobs_do_not_change_outputs(self, fitted):
        cfg, out, root = fitted
        (out / "range" / "bad.fmap").mkdir()  # unreadable: an error entry in both manifests
        out1 = root / "score1"
        out8 = root / "score8"
        assert main(["score", "--config", str(cfg), "--out", str(out1),
                     "--model-path", str(out / "model.gmmc"),
                     "--bank-path", str(out / "bank.nigb"), "--jobs", "1"]) == EXIT_PARTIAL
        assert main(["score", "--config", str(cfg), "--out", str(out8),
                     "--model-path", str(out / "model.gmmc"),
                     "--bank-path", str(out / "bank.nigb"), "--jobs", "8"]) == EXIT_PARTIAL
        files1 = sorted(p.relative_to(out1) for p in out1.rglob("*") if p.is_file())
        files8 = sorted(p.relative_to(out8) for p in out8.rglob("*") if p.is_file())
        assert files1 == files8 and Path("score_manifest.json") in files1
        for rel in files1:
            assert (out1 / rel).read_bytes() == (out8 / rel).read_bytes()
        manifest = json.loads((out1 / "score_manifest.json").read_text())
        assert [f["file"] for f in manifest["files"] if "error" in f] == ["bad"]

    def test_scans_are_scored_one_at_a_time_on_the_calling_thread(self, fitted, monkeypatch):
        cfg, out, root = fitted
        shutil.copy(out / "range" / "000.fmap", out / "range" / "002.fmap")
        score_feature_map = cli.ens.score_feature_map
        calls, in_flight, lock = [], [0], threading.Lock()

        def recording(*args):
            with lock:
                in_flight[0] += 1
                calls.append((threading.current_thread(), in_flight[0]))
            try:
                return score_feature_map(*args)
            finally:
                with lock:
                    in_flight[0] -= 1

        monkeypatch.setattr(cli.ens, "score_feature_map", recording)
        assert main(["score", "--config", str(cfg), "--out", str(root / "s8"),
                     "--model-path", str(out / "model.gmmc"),
                     "--bank-path", str(out / "bank.nigb"), "--jobs", "8"]) == EXIT_OK
        assert calls == [(threading.current_thread(), 1)] * 3

    def test_memory_per_extra_scan_is_bounded(self, fitted, monkeypatch):
        """Only the valid mask and the epistemic values of a scored scan
        outlive its scoring: 9 B per pixel, against 53 B for a kept
        UncertaintyMap.  At these sizes the peak is still one scan's
        scoring; the pooled threshold's two 8 B copies take over from
        about a hundred scans.  Blocks run serially, so that neither
        peak depends on how many pooled blocks are in flight at once."""
        from gmmood.formats import FeatureMap, write_feature_map

        monkeypatch.setattr(_blas, "_found", [])
        _, out, root = fitted
        rng = np.random.default_rng(5)
        shape = (32, 256)

        def traced_peak(n_scans):
            features = root / f"features{n_scans}"
            features.mkdir()
            for i in range(n_scans):
                fmap = FeatureMap(rng.normal(0.0, 10.0, (*shape, 5)), np.ones(shape, bool))
                write_feature_map(fmap, features / f"{i:03d}.fmap")
            argv = ["score", "--feature-dir", str(features), "--out", str(root / f"s{n_scans}"),
                    "--model-path", str(out / "model.gmmc"), "--bank-path", str(out / "bank.nigb"),
                    "--classes", "3", "--feature-dim", "5", "--n-samples", "8"]
            assert main(argv) == EXIT_OK  # warm-up: lazy imports and caches
            tracemalloc.start()
            try:
                assert main(argv) == EXIT_OK
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = traced_peak(4), traced_peak(16)
        per_pixel = (large - small) / (12 * shape[0] * shape[1])
        assert per_pixel < 16, f"{per_pixel:.1f} B per pixel per extra scan"


class TestEvalCommand:
    def test_eval_reports(self, fitted, capsys):
        cfg, out, root = fitted
        assert main(["score", "--config", str(cfg)]) == EXIT_OK
        eval_cfg = write_config(
            root / "eval.ini",
            out / "eval",
            label_dir=out / "labels",
            score_dir=out,
        )
        assert main(["eval", "--config", str(eval_cfg)]) == EXIT_OK
        from gmmood.metrics import EvalReport

        for name in (
            "epistemic",
            "predictive_entropy",
            "aleatoric",
            "mutual_information",
            "deterministic_entropy",
            "neg_max_posterior",
        ):
            text = (out / "eval" / f"eval_{name}.json").read_text()
            doc = json.loads(text)
            assert 0.0 <= doc["auroc"] <= 1.0
            assert doc["n_ood"] > 0
            # documented schema round-trips through the library parser
            report = EvalReport.from_json(text)
            assert report.to_json() == text
            assert (out / "eval" / f"eval_{name}.csv").exists()
        assert "epistemic" in capsys.readouterr().out

    @pytest.mark.parametrize("damage", ["deleted", "reshaped"])
    def test_bad_scan_does_not_stop_the_others(self, fitted, capsys, damage):
        from gmmood.formats import FeatureMap, write_feature_map

        cfg, out, root = fitted
        assert main(["score", "--config", str(cfg)]) == EXIT_OK
        alone = root / "alone"
        for sub, pattern in (("predictions", "000.fmap"), ("scores", "000_*.fmap")):
            (alone / sub).mkdir(parents=True)
            for path in (out / sub).glob(pattern):
                shutil.copy(path, alone / sub / path.name)
        damaged = out / "scores" / "001_aleatoric.fmap"
        damaged.unlink()
        if damage == "reshaped":
            write_feature_map(FeatureMap(np.zeros((4, 4, 1)), np.ones((4, 4), bool)), damaged)
        labels = ["--label-dir", str(out / "labels")]
        assert main(["eval", "--config", str(cfg), *labels, "--score-dir", str(out),
                     "--out", str(root / "eval_both")]) == EXIT_PARTIAL
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "001_aleatoric.fmap" in err[0]
        assert main(["eval", "--config", str(cfg), *labels, "--score-dir", str(alone),
                     "--out", str(root / "eval_alone")]) == EXIT_OK
        reports = sorted(p.name for p in (root / "eval_alone").iterdir())
        assert len(reports) == 12
        for name in reports:
            assert (root / "eval_both" / name).read_bytes() == (
                root / "eval_alone" / name
            ).read_bytes()

    def test_scans_evaluated_on_the_pool_match_a_serial_run(self, fitted, monkeypatch, capsys):
        """Three scans, the middle one with a corrupt score map: on the
        pool and one after another, ``eval`` writes the same reports,
        prints the same lines and error, and exits 1."""
        cfg, out, root = fitted
        for sub in ("range", "labels"):
            shutil.copy(out / sub / "000.fmap", out / sub / "002.fmap")
        assert main(["score", "--config", str(cfg)]) == EXIT_OK
        (out / "scores" / "001_aleatoric.fmap").write_bytes(b"JUNK" * 8)
        capsys.readouterr()
        argv = ["eval", "--config", str(cfg), "--label-dir", str(out / "labels"),
                "--score-dir", str(out)]
        runs = run_on_pool_and_serially(monkeypatch, capsys, argv, root, cli, "_read_labels")
        assert runs["pooled"] == runs["serial"]
        code, stdout, stderr, files = runs["pooled"]
        assert code == EXIT_PARTIAL and len(files) == 12
        assert stderr.startswith("error: scores/001_aleatoric.fmap: ") and stderr.count("\n") == 1
        assert stdout.count("\n") == 6

    @pytest.mark.parametrize("command", ["fit", "eval"])
    def test_label_grid_of_another_size_is_refused(self, fitted, capsys, command):
        """A label grid whose H x W is not its scan's, or which has three
        channels, is named by directory and name: ``fit`` exits 2,
        ``eval`` fails that scan only."""
        from gmmood.formats import FeatureMap, write_feature_map

        cfg, out, root = fitted
        labels = root / "labels"
        shutil.copytree(out / "labels", labels)
        grid = read_feature_map(labels / "001.fmap")
        bad = {
            "(16, 127, 1)": FeatureMap(grid.values[:, :-1], grid.valid[:, :-1]),
            "(16, 128, 3)": FeatureMap(np.repeat(grid.values, 3, axis=2), grid.valid),
        }
        argv = ["--config", str(cfg), "--label-dir", str(labels), "--out", str(root / "out")]
        if command == "eval":
            assert main(["score", "--config", str(cfg)]) == EXIT_OK
        for shape, fmap in bad.items():
            write_feature_map(fmap, labels / "001.fmap")
            error = f"labels/001.fmap: (H, W, D) = {shape}, expected (16, 128, 1)"
            if command == "fit":
                assert main(["fit", *argv]) == EXIT_CONFIG
                assert capsys.readouterr().err == f"error: {error}\n"
            else:
                assert main(["eval", *argv, "--score-dir", str(out)]) == EXIT_PARTIAL
                assert capsys.readouterr().err == f"error: {error}\n"

    def test_label_grids_are_cast_only_where_read(self, projected):
        """Label grids holding NaN at their invalid pixels and 1e30 at one
        valid pixel per scan fit and evaluate, with no warning, to the
        bytes of grids holding -1 there: an invalid pixel is never read,
        and an id beyond the raw range is one absent from the table."""
        from gmmood.formats import FeatureMap, write_feature_map

        cfg, out, root = projected
        fills = {"neg": (-1.0, -1.0), "nan": (np.nan, 1e30)}
        for path in sorted((out / "labels").glob("*.fmap")):
            grid = read_feature_map(path)
            values, valid = grid.values.copy(), grid.valid
            row, col = np.argwhere(valid & (values[..., 0] == 10))[0]
            for name, (at_invalid, at_one) in fills.items():
                values[~valid], values[row, col] = at_invalid, at_one
                (root / name).mkdir(exist_ok=True)
                write_feature_map(FeatureMap(values, valid), root / name / path.name)
        for name in fills:
            argv = ["--config", str(cfg), "--label-dir", str(root / name)]
            assert main(["fit", *argv, "--out", str(root / f"fit_{name}")]) == EXIT_OK
        for name in ("model.gmmc", "bank.nigb", "fit_report.json"):
            assert (root / "fit_nan" / name).read_bytes() == (root / "fit_neg" / name).read_bytes()
        scored = root / "fit_neg"
        assert main(["score", "--config", str(cfg), "--out", str(scored)]) == EXIT_OK
        for name in fills:
            argv = ["--config", str(cfg), "--label-dir", str(root / name), "--score-dir", str(scored)]
            assert main(["eval", *argv, "--out", str(root / f"eval_{name}")]) == EXIT_OK
        reports = sorted(p.name for p in (root / "eval_neg").iterdir())
        assert len(reports) == 12
        for name in reports:
            want = (root / "eval_neg" / name).read_bytes()
            assert (root / "eval_nan" / name).read_bytes() == want

    def test_out_of_range_prediction_fails_its_scan_only(self, fitted, capsys):
        """A predicted id outside [0, classes) at one in-distribution pixel
        fails that scan, naming it, the id and ``classes``; the other scan
        is still evaluated.  An id too large for an integer is refused as
        well, with no warning."""
        from gmmood.formats import FeatureMap, write_feature_map

        cfg, out, root = fitted
        assert main(["score", "--config", str(cfg)]) == EXIT_OK
        path = out / "predictions" / "001.fmap"
        pred = read_feature_map(path)
        raw = read_feature_map(out / "labels" / "001.fmap").values[:, :, 0]
        row, col = np.argwhere(pred.valid & np.isin(raw, [10, 20, 30]))[0]
        values = pred.values.copy()
        for value, named in ((7, "7"), (1e30, "1e+30")):
            values[row, col] = value
            write_feature_map(FeatureMap(values, pred.valid), path)
            eval_out = root / f"eval_{named}"
            assert main(["eval", "--config", str(cfg), "--label-dir", str(out / "labels"),
                         "--score-dir", str(out), "--out", str(eval_out)]) == EXIT_PARTIAL
            assert capsys.readouterr().err == (
                f"error: predictions/001.fmap: predicted id {named} at an "
                "in-distribution pixel is not in [0, classes = 3)\n"
            )
            assert len(list(eval_out.iterdir())) == 12

    def test_score_mask_unlike_its_prediction_fails_its_scan_only(self, fitted, capsys):
        """A score map whose validity mask differs from its prediction
        grid's (here: left half marked invalid and NaN) fails that scan,
        naming the file; the other scan is still reported."""
        from gmmood.formats import FeatureMap, write_feature_map

        cfg, out, root = fitted
        assert main(["score", "--config", str(cfg)]) == EXIT_OK
        path = out / "scores" / "001_epistemic.fmap"
        smap = read_feature_map(path)
        values, valid = smap.values.copy(), smap.valid.copy()
        half = valid.shape[1] // 2
        values[:, :half], valid[:, :half] = np.nan, False
        write_feature_map(FeatureMap(values, valid), path)
        assert main(["eval", "--config", str(cfg), "--label-dir", str(out / "labels"),
                     "--score-dir", str(out), "--out", str(root / "eval")]) == EXIT_PARTIAL
        assert capsys.readouterr().err == (
            "error: scores/001_epistemic.fmap: validity mask differs from "
            "predictions/001.fmap's\n"
        )
        assert len(list((root / "eval").iterdir())) == 12

    def test_corrupt_score_file_fails_its_scan_naming_the_file(self, fitted, capsys):
        cfg, out, root = fitted
        assert main(["score", "--config", str(cfg)]) == EXIT_OK
        path = out / "scores" / "001_aleatoric.fmap"
        path.write_bytes(b"JUNK" + path.read_bytes()[4:])
        assert main(["eval", "--config", str(cfg), "--label-dir", str(out / "labels"),
                     "--score-dir", str(out), "--out", str(root / "eval")]) == EXIT_PARTIAL
        assert capsys.readouterr().err == (
            "error: scores/001_aleatoric.fmap: bad magic b'JUNK', expected b'FMAP'\n"
        )
        assert len(list((root / "eval").iterdir())) == 12

    def test_train_ids_beyond_classes_fail_every_scan(self, fitted, capsys):
        """``--classes 2`` below the labels' train id 2: each scan fails
        naming the id, and with no scan left the run exits 2."""
        cfg, out, root = fitted
        assert main(["score", "--config", str(cfg)]) == EXIT_OK
        assert main(["eval", "--config", str(cfg), "--label-dir", str(out / "labels"),
                     "--score-dir", str(out), "--out", str(root / "eval"),
                     "--classes", "2"]) == EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert err[:2] == [
            f"error: labels/{stem}.fmap: train id 2 is not below classes = 2"
            for stem in ("000", "001")
        ]
        assert err[2:] == [f"error: no scan in {out / 'predictions'} could be evaluated"]

    @pytest.mark.parametrize("command", ["fit", "eval"])
    def test_fit_and_eval_refuse_a_train_id_alike(self, fitted, capsys, command):
        """One label grid holding train id 2 at ``classes = 2`` gets one
        refusal text: ``fit`` exits 2 on it, ``eval`` fails that scan."""
        from gmmood.formats import FeatureMap, write_feature_map

        cfg, out, root = fitted
        for name, keep in (("fit_labels", 0), ("labels", 1)):
            (root / name).mkdir()
            for path in sorted((out / "labels").glob("*.fmap")):
                grid = read_feature_map(path)
                values = np.where(grid.values == 30, 20, grid.values)
                if keep and path.stem == "001":  # one train id 2
                    values[tuple(np.argwhere(grid.valid & (grid.values[..., 0] == 30))[0])] = 30
                write_feature_map(FeatureMap(values, grid.valid), root / name / path.name)
        argv = ["--config", str(cfg), "--classes", "2"]
        assert main(["fit", *argv, "--label-dir", str(root / "fit_labels")]) == EXIT_OK
        if command == "fit":
            assert main(["fit", *argv, "--label-dir", str(root / "labels")]) == EXIT_CONFIG
        else:
            assert main(["score", *argv]) == EXIT_OK
            assert main(["eval", *argv, "--label-dir", str(root / "labels"), "--score-dir",
                         str(out), "--out", str(root / "eval")]) == EXIT_PARTIAL
        assert capsys.readouterr().err == (
            "error: labels/001.fmap: train id 2 is not below classes = 2\n"
        )

    def test_refused_allocation_is_config_error(self, fitted, capsys, monkeypatch):
        """An allocation the machine refuses (here ``metrics.miou``'s
        confusion count) exits 2 with an error line, not a traceback."""
        cfg, out, root = fitted
        assert main(["score", "--config", str(cfg)]) == EXIT_OK

        def refused(*args):
            raise MemoryError("Unable to allocate 7.28 EiB for an array")

        monkeypatch.setattr(cli.metrics, "miou", refused)
        assert main(["eval", "--config", str(cfg), "--label-dir", str(out / "labels"),
                     "--score-dir", str(out), "--out", str(root / "eval")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "allocate" in err and "Traceback" not in err

    def test_error_without_a_message_names_its_type(self, capsys, monkeypatch):
        """A Python-level ``MemoryError()`` carries no text."""

        def refused(cfg):
            raise MemoryError()

        monkeypatch.setitem(cli.COMMANDS, "synth", (refused, cli.COMMANDS["synth"][1]))
        assert main(["synth"]) == EXIT_CONFIG
        assert capsys.readouterr().err == "error: MemoryError\n"

    def test_zero_ood_is_undefined_metric(self, tmp_path, capsys):
        """Refused by the metrics themselves, before any report is written."""
        rng = np.random.default_rng(1)
        scan_dir = tmp_path / "scans"
        label_dir = tmp_path / "labels_raw"
        scan_dir.mkdir()
        label_dir.mkdir()
        xyz = rng.normal(scale=10.0, size=(400, 3))
        xyz[:, 2] = rng.uniform(-2.0, 1.0, 400)
        write_scan(scan_dir / "a.bin", np.column_stack([xyz, rng.random(400)]))
        labels = np.where(xyz[:, 0] > 0, np.where(xyz[:, 1] > 0, 10, 20), 30)
        write_labels(label_dir / "a.label", labels)  # no outliers anywhere
        out = tmp_path / "out"
        cfg = write_config(
            tmp_path / "run.ini", out, scan_dir, label_dir, feature_dir=out / "range"
        )
        assert main(["project", "--config", str(cfg)]) == EXIT_OK
        fit_cfg = write_config(
            tmp_path / "fit.ini", out, label_dir=out / "labels",
            feature_dir=out / "range",
        )
        assert main(["fit", "--config", str(fit_cfg)]) == EXIT_OK
        assert main(["score", "--config", str(fit_cfg)]) == EXIT_OK
        eval_cfg = write_config(
            tmp_path / "eval.ini", out / "eval", label_dir=out / "labels",
            score_dir=out,
        )
        capsys.readouterr()
        assert main(["eval", "--config", str(eval_cfg)]) == EXIT_CONFIG
        stdout, stderr = capsys.readouterr()
        assert stdout == "" and list((out / "eval").iterdir()) == []
        assert re.fullmatch(r"error: \w+ undefined: needs at least one OOD and one ID sample "
                            r"\(got 0 OOD, \d+ ID\)\n", stderr)


def cut_short(path):
    path.write_bytes(path.read_bytes()[:-4])


def refuse_allocations(monkeypatch, stem):
    """Reading any file whose name starts with ``stem`` raises the
    ``MemoryError`` numpy raises for an allocation the machine refuses."""
    for name in ("_read_container", "read_feature_map"):
        def refusing(path, *args, read=getattr(cli, name)):
            if Path(path).name.startswith(stem):
                raise MemoryError("Unable to allocate 7.28 EiB for an array")
            return read(path, *args)

        monkeypatch.setattr(cli, name, refusing)


def three_files_the_middle_one_bad(fitted, command, cut):
    """Inputs to ``command`` over three files whose middle one is cut
    short (``cut``) or left whole, and over the other two alone: (argv
    with ``{}`` for the input directory, that directory, the other two's
    directory, the file that fails, as ``<dir>/<name>``: the cut one, or
    else the one ``command`` works, the command's manifest or None)."""
    cfg, out, root = fitted
    alone = root / "alone"
    alone.mkdir()
    spoil = cut_short if cut else lambda path: None
    if command == "project":
        scans, labels = root / "scans", root / "labels_raw"
        shutil.copy(scans / "000.bin", scans / "002.bin")
        shutil.copy(labels / "000.label", labels / "002.label")
        for name in ("000.bin", "002.bin"):
            shutil.copy(scans / name, alone / name)
        spoil(scans / "001.bin")
        argv = ["project", "--label-dir", str(labels), "--scan-dir", "{}"]
        return argv, scans, alone, "scans/001.bin", "project_manifest.json"
    for sub in ("range", "labels"):
        shutil.copy(out / sub / "000.fmap", out / sub / "002.fmap")
    if command == "score":
        for name in ("000.fmap", "002.fmap"):
            shutil.copy(out / "range" / name, alone / name)
        spoil(out / "range" / "001.fmap")
        argv = ["score", "--model-path", str(out / "model.gmmc"),
                "--bank-path", str(out / "bank.nigb"), "--feature-dir", "{}"]
        return argv, out / "range", alone, "range/001.fmap", "score_manifest.json"
    assert main(["score", "--config", str(cfg)]) == EXIT_OK
    for sub in ("predictions", "scores"):
        (alone / sub).mkdir()
        for path in (out / sub).glob("00[02]*.fmap"):
            shutil.copy(path, alone / sub / path.name)
    spoil(out / "scores" / "001_aleatoric.fmap")
    argv = ["eval", "--label-dir", str(out / "labels"), "--score-dir", "{}"]
    bad = "scores/001_aleatoric.fmap" if cut else "predictions/001.fmap"
    return argv, out, alone, bad, None


class TestFailedFiles:
    @pytest.mark.parametrize("command, pooled, cut", [
        pytest.param(command, pooled, cut, id=f"{command}-{mode}" + ("" if cut else "-refused"))
        for cut in (True, False) for command in ("project", "score", "eval")
        for pooled, mode in ((True, "pooled"), (False, "serial"))
    ])
    def test_a_bad_file_is_named_once_and_stops_no_other(
        self, fitted, monkeypatch, capsys, command, pooled, cut
    ):
        """Three files, the middle one cut short (``cut``) or refused an
        allocation while read, whose message names no file: the run exits
        1, prints one stderr line that names the file as ``<dir>/<name>``,
        and writes the other two's outputs and manifest entries byte for
        byte as a run over those two alone does."""
        argv, inputs, alone, bad, manifest = three_files_the_middle_one_bad(fitted, command, cut)
        cfg, _, root = fitted
        capsys.readouterr()
        if not cut:
            refuse_allocations(monkeypatch, "001")
        if not pooled:
            monkeypatch.setattr(_blas, "_found", [])
        runs = []
        for name, where in (("both", inputs), ("alone", alone)):
            out = root / f"out_{name}"
            args = [arg.format(where) for arg in argv]
            code = main([*args, "--config", str(cfg), "--out", str(out)])
            files = {p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()}
            runs.append((code, *capsys.readouterr(), files))
        (code, stdout, stderr, files), (alone_code, alone_stdout, alone_stderr, alone_files) = runs
        assert (code, alone_code, alone_stderr) == (EXIT_PARTIAL, EXIT_OK, "")
        assert stderr.startswith(f"error: {bad}: ") and stderr.count("\n") == 1
        assert stdout == alone_stdout
        if manifest is not None:
            doc, alone_doc = (json.loads(f.pop(Path(manifest))) for f in (files, alone_files))
            entries = doc.pop("files")
            assert [e["error"] for e in entries if "error" in e] == [stderr[7:-1]]
            assert [e for e in entries if "error" not in e] == alone_doc.pop("files")
            assert (doc.pop("failed", 1), alone_doc.pop("failed", 0)) == (1, 0)
            assert doc == alone_doc
        assert files == alone_files


@pytest.fixture(scope="module")
def three_scans(tmp_path_factory):
    """Three 500-point scans projected, fitted on and scored with per-scan
    thresholds, so no scan's outputs depend on another's: (root, the
    clean run's out dir, argv every run shares)."""
    root = tmp_path_factory.mktemp("three_scans")
    scan_dir, label_dir = make_dataset(root, n_points=500, n_scans=3)
    out = root / "out"
    cfg = write_config(root / "run.ini", out, scan_dir, label_dir, feature_dir=out / "range")
    shared = ["--config", str(cfg), "--model-path", str(out / "model.gmmc"),
              "--bank-path", str(out / "bank.nigb"), "--per-scan-threshold"]
    assert main(["project", *shared]) == EXIT_OK
    assert main(["fit", *shared, "--label-dir", str(out / "labels")]) == EXIT_OK
    assert main(["score", *shared]) == EXIT_OK
    return root, out, shared


def corrupt(data, path) -> bytes:
    """Corrupt the file at ``path`` one drawn way and return its clean
    bytes: cut at a drawn offset, 1-3 drawn bytes among the first 18 (an
    FMAP header), 1-8 drawn bytes after them, or 1-64 drawn bytes appended."""
    clean = path.read_bytes()
    body = bytearray(clean)
    kind = data.draw(st.sampled_from(["cut", "header", "payload", "append"]), label="kind")
    if kind == "cut":
        del body[data.draw(st.integers(0, len(body) - 1), label="cut at"):]
    elif kind == "append":
        body += data.draw(st.binary(min_size=1, max_size=64), label="appended")
    else:
        low, high = (0, 18) if kind == "header" else (18, len(body))
        at = st.tuples(st.integers(low, high - 1), st.integers(0, 255))
        for offset, byte in data.draw(st.lists(at, min_size=1, max_size=3 if low == 0 else 8),
                                      label="bytes"):
            body[offset] = byte
    path.write_bytes(bytes(body))
    return clean


def run_corrupted(data, capsys, path, argv, out):
    """``main([*argv, "--out", out])`` with the file at ``path`` corrupted
    (``corrupt``) and then restored: its exit code is 0 or 1, with one
    ``error:`` line naming the file as ``<dir>/<name>`` on 1 and nothing
    on stderr on 0.  Returns (exit code, {path under out: bytes})."""
    shutil.rmtree(out, ignore_errors=True)
    clean = corrupt(data, path)
    try:
        code = main([*argv, "--out", str(out)])
    finally:
        path.write_bytes(clean)
    err = capsys.readouterr().err
    assert code in (EXIT_OK, EXIT_PARTIAL) and "Traceback" not in err, err
    if code == EXIT_PARTIAL:
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert f"{path.parent.name}/{path.name}" in err, err
    else:
        assert err == ""
    files = {p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()}
    return code, files


def assert_others_unchanged(files, out, stem, subdirs, manifest, key):
    """Every grid under ``subdirs`` but ``stem``'s, and every entry of
    ``manifest`` but the one whose ``key`` is ``stem``'s, is the clean
    run's under ``out``, byte for byte."""
    def others(grids):
        return {name: data for name, data in grids.items()
                if name.parts[0] in subdirs and not name.name.startswith(stem)}

    clean = {p.relative_to(out): p.read_bytes() for sub in subdirs for p in (out / sub).iterdir()}
    assert others(files) == others(clean)
    kept = [[e for e in json.loads(doc)["files"] if not e[key].startswith(stem)]
            for doc in (files[Path(manifest)], (out / manifest).read_bytes())]
    assert kept[0] == kept[1]


DRAWN = settings(max_examples=40, deadline=None,
                 suppress_health_check=[HealthCheck.function_scoped_fixture])


class TestDrawnCorruption:
    """One input file corrupted a drawn way (``corrupt``): the run exits 0
    or 1, names the file once on 1, and never ends in a traceback."""

    @DRAWN
    @given(data=st.data())
    def test_project(self, three_scans, tmp_path, capsys, data):
        """Every other scan's range image, label grid and manifest entry
        are the clean run's."""
        root, out, shared = three_scans
        stem = data.draw(st.sampled_from(["000", "001", "002"]), label="scan")
        path = data.draw(st.sampled_from([root / "scans" / f"{stem}.bin",
                                          root / "labels_raw" / f"{stem}.label"]), label="file")
        _, files = run_corrupted(data, capsys, path, ["project", *shared], tmp_path / "out")
        assert_others_unchanged(files, out, stem, ("range", "labels"), "project_manifest.json",
                                "scan")

    @DRAWN
    @given(data=st.data())
    def test_score(self, three_scans, tmp_path, capsys, data):
        """Every other scan's score grids, predictions, OOD mask and
        manifest entry are the clean run's."""
        _, out, shared = three_scans
        stem = data.draw(st.sampled_from(["000", "001", "002"]), label="scan")
        path = out / "range" / f"{stem}.fmap"
        _, files = run_corrupted(data, capsys, path, ["score", *shared], tmp_path / "out")
        assert_others_unchanged(files, out, stem, ("scores", "predictions", "ood_masks"),
                                "score_manifest.json", "file")

    @DRAWN
    @given(data=st.data())
    def test_eval(self, three_scans, tmp_path, capsys, data):
        _, out, shared = three_scans
        stem = data.draw(st.sampled_from(["000", "001", "002"]), label="scan")
        channel = data.draw(st.sampled_from(cli.ens.SCORE_CHANNELS), label="channel")
        path = data.draw(st.sampled_from([
            out / cli._PREDICTION_FILE.format(stem=stem),
            out / cli.SCORE_FILE.format(stem=stem, channel=channel),
            out / "labels" / f"{stem}.fmap",
        ]), label="file")
        argv = ["eval", *shared, "--label-dir", str(out / "labels"), "--score-dir", str(out)]
        run_corrupted(data, capsys, path, argv, tmp_path / "out")


class TestSynthCommand:
    SYNTH = (
        "\n[synth]\nfeature_dim = 4\nn_classes = 3\nsamples_per_class = 200\n"
        "class_separation = 4.0\noverlap_pairs = 0-1\nood_count = 80\n"
        "ood_offset = 12.0\nwithin_class_std = 0.5\nseed = 11\n"
    )

    def test_synth_outputs_and_determinism(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        cfg = write_config(tmp_path / "synth.ini", out_a, extra=self.SYNTH)
        assert main(["synth", "--config", str(cfg)]) == EXIT_OK
        assert main(["synth", "--config", str(cfg), "--out", str(out_b)]) == EXIT_OK
        for name in ("eval_epistemic.json", "eval_predictive.json", "delta_summary.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
        delta = json.loads((out_a / "delta_summary.json").read_text())
        assert {"auroc_delta", "auprc_delta", "fpr95_delta"} <= set(delta)
        assert (out_a / "dataset" / "generating_params.json").exists()
        fmap = read_feature_map(out_a / "dataset" / "eval_features.fmap")
        assert fmap.dim == 4

    def test_seed_changes_dataset_bytes(self, tmp_path):
        cfg = write_config(tmp_path / "synth.ini", tmp_path / "a", extra=self.SYNTH)
        assert main(["synth", "--config", str(cfg)]) == EXIT_OK
        assert main(
            ["synth", "--config", str(cfg), "--out", str(tmp_path / "b"), "--seed", "99"]
        ) == EXIT_OK
        a = (tmp_path / "a" / "dataset" / "eval_features.fmap").read_bytes()
        b = (tmp_path / "b" / "dataset" / "eval_features.fmap").read_bytes()
        assert a != b


# (section, field, INI line, INI value, flag argv, flag value): every key of
# the run-config table with two non-default values, one per source.
CONFIG_TABLE = [
    ("paths", "scan_dir", "scan_dir = s1", "s1", ["--scan-dir", "s2"], "s2"),
    ("paths", "label_dir", "label_dir = l1", "l1", ["--label-dir", "l2"], "l2"),
    ("paths", "feature_dir", "feature_dir = f1", "f1", ["--feature-dir", "f2"], "f2"),
    ("paths", "score_dir", "score_dir = d1", "d1", ["--score-dir", "d2"], "d2"),
    ("paths", "out_dir", "out_dir = o1", "o1", ["--out", "o2"], "o2"),
    ("paths", "model_path", "model_path = m1", "m1", ["--model-path", "m2"], "m2"),
    ("paths", "bank_path", "bank_path = b1", "b1", ["--bank-path", "b2"], "b2"),
    ("projection", "height", "height = 16", 16, ["--height", "48"], 48),
    ("projection", "width", "width = 128", 128, ["--width", "256"], 256),
    ("projection", "fov_up", "fov_up = 2.5", 2.5, ["--fov-up", "4.0"], 4.0),
    ("projection", "fov_down", "fov_down = -20", -20.0, ["--fov-down", "-30.5"], -30.5),
    ("model", "classes", "classes = 3", 3, ["--classes", "7"], 7),
    ("model", "components", "components = 3", 3, ["--components", "4"], 4),
    ("model", "feature_dim", "feature_dim = 5", 5, ["--feature-dim", "7"], 7),
    ("prior", "mu", "mu0 = 0.5", 0.5, ["--mu0", "-1.5"], -1.5),
    ("prior", "kappa", "kappa0 = 2", 2.0, ["--kappa0", "3.5"], 3.5),
    ("prior", "alpha", "alpha0 = 3", 3.0, ["--alpha0", "4.5"], 4.5),
    ("prior", "beta", "beta0 = 0.5", 0.5, ["--beta0", "2.5"], 2.5),
    ("em", "max_iters", "max_iters = 7", 7, ["--em-max-iters", "9"], 9),
    ("em", "tol", "tol = 1e-3", 1e-3, ["--em-tol", "1e-4"], 1e-4),
    ("ensemble", "n_samples", "n_samples = 8", 8, ["--n-samples", "12"], 12),
    ("ensemble", "seed", "seed = 3", 3, ["--seed", "11"], 11),
    ("threshold", "top_fraction", "top_fraction = 0.1", 0.1, ["--top-fraction", "0.2"], 0.2),
    ("threshold", "per_scan", "per_scan = yes", True, ["--no-per-scan-threshold"], False),
    ("synth", "feature_dim", "feature_dim = 3", 3, ["--synth-dim", "4"], 4),
    ("synth", "n_classes", "n_classes = 5", 5, ["--synth-classes", "9"], 9),
    ("synth", "samples_per_class", "samples_per_class = 30", 30,
     ["--synth-samples", "40"], 40),
    ("synth", "class_separation", "class_separation = 2", 2.0,
     ["--synth-separation", "3.5"], 3.5),
    ("synth", "overlap_pairs", "overlap_pairs = 1-2", ((1, 2),),
     ["--synth-overlap-pairs", "0-3, 2-1"], ((0, 3), (2, 1))),
    ("synth", "ood_count", "ood_count = 10", 10, ["--synth-ood-count", "20"], 20),
    ("synth", "ood_offset", "ood_offset = 6", 6.0, ["--synth-ood-offset", "9.5"], 9.5),
    ("synth", "within_class_std", "within_class_std = 0.25", 0.25,
     ["--synth-std", "0.75"], 0.75),
    ("synth", "seed", "seed = 4", 4, ["--synth-seed", "5"], 5),
]


def resolved_config(monkeypatch, tmp_path, ini_text, flags=()):
    """The RunConfig that ``main`` hands to a command for this INI + flags."""
    seen = []

    def capture(cfg):
        seen.append(cfg)
        return EXIT_OK

    monkeypatch.setitem(cli.COMMANDS, "synth", (capture, cli.COMMANDS["synth"][1]))
    argv = ["synth", *flags]
    if ini_text is not None:
        path = tmp_path / "run.ini"
        path.write_text(ini_text)
        argv += ["--config", str(path)]
    assert main(argv) == EXIT_OK
    return seen[0]


class TestConfigPrecedence:
    @pytest.mark.parametrize("source", ["ini", "flag", "both"])
    @pytest.mark.parametrize(
        "section, field, ini_line, ini_value, flag_argv, flag_value",
        CONFIG_TABLE,
        ids=[f"{row[0]}.{row[1]}" for row in CONFIG_TABLE],
    )
    def test_key_sources(self, monkeypatch, tmp_path, source, section, field,
                         ini_line, ini_value, flag_argv, flag_value):
        default = getattr(getattr(load_run_config(None), section), field)
        assert ini_value not in (default, flag_value)
        ini = f"[{section}]\n{ini_line}\n" if source != "flag" else None
        flags = flag_argv if source != "ini" else []
        cfg = resolved_config(monkeypatch, tmp_path, ini, flags)
        expected = ini_value if source == "ini" else flag_value
        assert getattr(getattr(cfg, section), field) == expected

    def test_seed_flag_seeds_ensemble_and_synth(self, monkeypatch, tmp_path):
        ini = "[ensemble]\nseed = 1\n[synth]\nseed = 2\n"
        cfg = resolved_config(monkeypatch, tmp_path, ini, ["--seed", "7"])
        assert (cfg.ensemble.seed, cfg.synth.seed) == (7, 7)

    @pytest.mark.parametrize(
        "ini, flags, want",
        [("[projection]\nfov_up = -30\n", ["--fov-down", "-40"],
          {("projection", "fov_up"): -30.0, ("projection", "fov_down"): -40.0}),
         ("[model]\nclasses = 0\n", ["--classes", "3"], {("model", "classes"): 3})],
        ids=["fov-pair", "classes"],
    )
    def test_checks_see_only_the_values_the_run_uses(self, monkeypatch, tmp_path, ini, flags,
                                                     want):
        """File and flags make one value table before any check: a file
        value that a flag replaces is never checked, and a cross-key check
        reads the file's value next to the flag's."""
        cfg = resolved_config(monkeypatch, tmp_path, ini, flags)
        for (section, field), value in want.items():
            assert getattr(getattr(cfg, section), field) == value

    @pytest.mark.parametrize("ini, flags", [("[model]\nclasses = 0\n", []),
                                            (None, ["--classes", "0"])], ids=["file", "flag"])
    def test_a_bad_value_the_run_uses_is_refused(self, tmp_path, capsys, ini, flags):
        """The one check still refuses a bad value from either source."""
        argv = ["synth", *flags, "--out", str(tmp_path / "out")]
        if ini is not None:
            (tmp_path / "run.ini").write_text(ini)
            argv += ["--config", str(tmp_path / "run.ini")]
        assert main(argv) == EXIT_CONFIG
        assert capsys.readouterr().err == "error: 'classes' in [model] must be at least 1, got 0\n"
        assert not (tmp_path / "out").exists()

    def test_file_text_that_does_not_parse_is_refused_under_a_flag(self, tmp_path, capsys):
        """Each file value is parsed as the file is read, so a flag over
        it does not hide text that is not a value."""
        (tmp_path / "run.ini").write_text("[model]\nclasses = 3x\n")
        argv = ["synth", "--config", str(tmp_path / "run.ini"), "--classes", "3",
                "--out", str(tmp_path / "out")]
        assert main(argv) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error: 'classes' in [model]: invalid literal")
        assert not (tmp_path / "out").exists()

    def test_synth_seed_flag_beats_seed_flag(self, monkeypatch, tmp_path):
        ini = "[synth]\nseed = 2\n"
        flags = ["--synth-seed", "9", "--seed", "7"]
        cfg = resolved_config(monkeypatch, tmp_path, ini, flags)
        assert (cfg.ensemble.seed, cfg.synth.seed) == (7, 9)

    def test_no_per_scan_flag_beats_config(self, monkeypatch, tmp_path):
        ini = "[threshold]\nper_scan = yes\n"
        assert resolved_config(monkeypatch, tmp_path, ini).threshold.per_scan is True
        cfg = resolved_config(monkeypatch, tmp_path, ini, ["--no-per-scan-threshold"])
        assert cfg.threshold.per_scan is False
        cfg = resolved_config(monkeypatch, tmp_path, None, ["--per-scan-threshold"])
        assert cfg.threshold.per_scan is True


# every config flag: an argv that sets it, its dest and the value parsed
FLAG_VALUES = [
    (["--scan-dir", "data/scans"], "scan_dir", "data/scans"),
    (["--label-dir", "data/labels"], "label_dir", "data/labels"),
    (["--feature-dir", "features"], "feature_dir", "features"),
    (["--score-dir", "scored"], "score_dir", "scored"),
    (["--out", "run"], "out", "run"),
    (["--model-path", "m.gmmc"], "model_path", "m.gmmc"),
    (["--bank-path", "b.nigb"], "bank_path", "b.nigb"),
    (["--height", "48"], "height", 48),
    (["--width", "512"], "width", 512),
    (["--fov-up", "2.5"], "fov_up", 2.5),
    (["--fov-down", "-24.5"], "fov_down", -24.5),
    (["--classes", "7"], "classes", 7),
    (["--components", "3"], "components", 3),
    (["--feature-dim", "16"], "feature_dim", 16),
    (["--mu0", "0.5"], "mu0", 0.5),
    (["--kappa0", "2"], "kappa0", 2.0),
    (["--alpha0", "3.5"], "alpha0", 3.5),
    (["--beta0", "0.25"], "beta0", 0.25),
    (["--em-max-iters", "50"], "em_max_iters", 50),
    (["--em-tol", "1e-4"], "em_tol", 1e-4),
    (["--n-samples", "10"], "n_samples", 10),
    (["--seed", "5"], "seed", 5),
    (["--top-fraction", "0.1"], "top_fraction", 0.1),
    (["--per-scan-threshold"], "per_scan_threshold", True),
    (["--no-per-scan-threshold"], "per_scan_threshold", False),
    (["--synth-dim", "8"], "synth_dim", 8),
    (["--synth-classes", "4"], "synth_classes", 4),
    (["--synth-samples", "100"], "synth_samples", 100),
    (["--synth-separation", "3"], "synth_separation", 3.0),
    (["--synth-overlap-pairs", "0-1, 2-3"], "synth_overlap_pairs", ((0, 1), (2, 3))),
    (["--synth-ood-count", "50"], "synth_ood_count", 50),
    (["--synth-ood-offset", "9.5"], "synth_ood_offset", 9.5),
    (["--synth-std", "0.7"], "synth_std", 0.7),
    (["--synth-seed", "11"], "synth_seed", 11),
]


class TestFrontEnd:
    def test_flag_table_covers_every_config_key(self):
        dests = [key.dest for key in cli.CONFIG_KEYS.values()]
        assert len(dests) == 33
        assert sorted({dest for _, dest, _ in FLAG_VALUES}) == sorted(dests)

    @pytest.mark.parametrize("command", list(cli.COMMANDS))
    def test_every_command_parses_every_config_flag_alike(self, command):
        parser = cli.build_parser()
        dests = [key.dest for key in cli.CONFIG_KEYS.values()]
        for argv, dest, value in FLAG_VALUES:
            args = parser.parse_args([command, *argv])
            assert args.command == command and args.config is None
            parsed = {d: getattr(args, d) for d in dests if getattr(args, d) is not None}
            assert parsed == {dest: value}
            assert type(parsed[dest]) is type(value)

    def test_help_lists_every_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        for name, (_, help_text) in cli.COMMANDS.items():
            assert name in text and help_text in text

    @pytest.mark.parametrize("source", ["default", "ini"])
    def test_map_array_is_a_per_id_lookup(self, tmp_path, source):
        """Every raw id, those outside [0, RAW_ID_MAX] too, maps as a
        dict lookup would: unlisted and out-of-range ids are ignored.
        Integral float ids, as a rounded label grid holds them, map
        alike however far out of range, with no clip before the call."""
        class_map = DEFAULT_CLASS_MAP
        if source == "ini":
            path = tmp_path / "map.ini"
            path.write_text(f"[class_map]\n0 = 1\n5 = outlier\n9 = ignore\n300 = 0\n"
                            f"{cli.RAW_ID_MAX} = 2\n{cli.RAW_ID_MAX - 1} = outlier\n")
            class_map = load_run_config(path).class_map
        ints = np.arange(-3, cli.RAW_ID_MAX + 4)
        floats = np.concatenate([ints, [-1e30, 1e30, 2.0**40, -(2.0**40)]])
        for raw in (ints, floats, floats.astype(np.float32)):
            code = class_map.map_array(raw)
            want = [
                class_map.train_ids.get(rid, cli.OUTLIER if rid in class_map.outlier_ids
                                        else cli.IGNORE)
                for rid in raw.tolist()
            ]
            np.testing.assert_array_equal(code, want)
            assert code.dtype == np.int64


def each_drawn_key_value(test):
    """Run ``test(..., value)`` on edge values, then on 10 drawn texts of
    up to two characters, short malformed or numeric text."""
    edges = ["0", "-1", "1e-300", "1e300", "1e-308", "1e308", "-1e308", "inf", "-inf", "nan",
             "4x", "", "--"]  # argparse reads ``--flag=--`` as an empty list
    for value in reversed(edges):
        test = example(value)(test)
    test = given(value=st.text(st.sampled_from("0123456789.e+-x, "), max_size=2))(test)
    return settings(max_examples=10, deadline=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])(test)


class TestConfigHandling:
    def test_top_fraction_outside_unit_interval_is_config_error(self, tmp_path):
        args = cli.build_parser().parse_args(["score", "--top-fraction", "1.5"])
        message = r"^'top_fraction' in \[threshold\] must be in \(0, 1\), got 1\.5$"
        with pytest.raises(ValueError, match=message):
            load_run_config(None, args)
        path = tmp_path / "run.ini"
        path.write_text("[threshold]\ntop_fraction = 0\n")
        assert main(["score", "--config", str(path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "argv",
        [["eval", "--jobs", "2"], ["project", "--jobs", "1"], ["score", "--jobs", "0"],
         ["score", "--jobs", "-3"]],
    )
    def test_jobs_is_a_positive_score_flag(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_CONFIG
        assert "--jobs" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["fit", "--components", "0"], "'components' in [model] must be at least 1, got 0"),
            (["synth", "--components", "0"], "'components' in [model] must be at least 1, got 0"),
            (["fit", "--em-max-iters", "0"], "'max_iters' in [em] must be at least 1, got 0"),
            (["fit", "--classes", "0"], "'classes' in [model] must be at least 1, got 0"),
            (["fit", "--feature-dim", "-1"],
             "'feature_dim' in [model] must be at least 1, got -1"),
            (["score", "--n-samples", "0"],
             "'n_samples' in [ensemble] must be at least 1, got 0"),
            (["synth", "--synth-dim", "0"],
             "'feature_dim' in [synth] must be at least 1, got 0"),
        ],
        ids=["fit-components", "synth-components", "fit-em-max-iters", "fit-classes",
             "fit-feature-dim", "score-n-samples", "synth-dim"],
    )
    def test_counts_below_one_are_config_errors(self, tmp_path, capsys, argv, message):
        """Rejected at config load, before any directory is made; the
        data directories exist, so only the count can stop the run."""
        data = tmp_path / "data"
        data.mkdir()
        dirs = ["--feature-dir", str(data), "--label-dir", str(data)]
        assert main([*argv, *dirs, "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--synth-classes", "0"], "'n_classes' in [synth] must be at least 1, got 0"),
            (["--synth-samples", "0"],
             "'samples_per_class' in [synth] must be at least 1, got 0"),
            (["--synth-ood-count", "0"], "'ood_count' in [synth] must be at least 1, got 0"),
            (["--synth-separation", "0"],
             "'class_separation' in [synth] must be positive, got 0.0"),
            (["--synth-ood-offset=-1"], "'ood_offset' in [synth] must be positive, got -1.0"),
            (["--synth-std", "0"], "'within_class_std' in [synth] must be positive, got 0.0"),
            (["--synth-overlap-pairs", "0-9"],
             "'overlap_pairs' in [synth] must join two of classes 0 to 5, got 0-9"),
            (["--synth-overlap-pairs", "2-2"],
             "'overlap_pairs' in [synth] must join two of classes 0 to 5, got 2-2"),
            (["--height", "0"], "'height' in [projection] must be at least 1, got 0"),
            (["--width=-3"], "'width' in [projection] must be at least 1, got -3"),
            (["--fov-up=-30"],
             "'fov_up' in [projection] must exceed 'fov_down' (-25.0), got -30.0"),
            (["--alpha0=0"], "'alpha0' in [prior] must be positive, got 0.0"),
        ],
        ids=["classes", "samples", "ood-count", "separation", "ood-offset", "std", "pair-range",
             "pair-self", "height", "width", "fov", "alpha0"],
    )
    def test_a_refused_value_names_its_key(self, tmp_path, capsys, flags, message):
        """Each bound of a library section (``[synth]``, ``[projection]``,
        ``[prior]``) names one key, its section and the value it refused,
        at config load."""
        assert main(["synth", *flags, "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["fit", "--seed", "-1"], "'seed' in [ensemble] must be at least 0, got -1"),
            (["score", "--seed", "-1"], "'seed' in [ensemble] must be at least 0, got -1"),
            (["synth", "--seed", "-1"], "'seed' in [ensemble] must be at least 0, got -1"),
            (["synth", "--synth-seed", "-2"], "'seed' in [synth] must be at least 0, got -2"),
        ],
        ids=["fit", "score", "synth", "synth-seed"],
    )
    def test_negative_seeds_are_config_errors(self, tmp_path, capsys, argv, message):
        """A negative seed names its key at config load, before ``fit`` or
        ``synth`` makes its output directory."""
        data = tmp_path / "data"
        data.mkdir()
        dirs = ["--feature-dir", str(data), "--label-dir", str(data)]
        assert main([*argv, *dirs, "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["fit", "synth"])
    def test_negative_em_tol_is_config_error(self, tmp_path, capsys, command):
        """No log-likelihood change is below a negative ``tol``, so every
        class would run to ``max_iters``; it names its key at config load,
        before any directory is made.  A ``tol`` of 0 stays valid."""
        data = tmp_path / "data"
        data.mkdir()
        dirs = ["--feature-dir", str(data), "--label-dir", str(data)]
        argv = [command, "--em-tol", "-1", *dirs, "--out", str(tmp_path / "out")]
        assert main(argv) == EXIT_CONFIG
        assert "'tol' in [em] must be at least 0, got -1.0" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        assert cli.EMConfig(tol=0.0).tol == 0.0

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    @pytest.mark.parametrize(
        "section, key, flag",
        [(k.section, k.ini_key, k.dest.replace("_", "-"))
         for k in cli.CONFIG_KEYS.values() if k.parse is float],
    )
    def test_non_finite_floats_are_config_errors(self, tmp_path, capsys, section, key, flag,
                                                 value):
        """Rejected at config load by INI key, before any directory is
        made, like the counts above."""
        data = tmp_path / "data"
        data.mkdir()
        dirs = ["--feature-dir", str(data), "--label-dir", str(data)]
        argv = ["fit", f"--{flag}={value}", *dirs, "--out", str(tmp_path / "out")]
        assert main(argv) == EXIT_CONFIG
        assert f"'{key}' in [{section}] must be finite, got {value}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @each_drawn_key_value
    def test_no_value_of_any_key_escapes_main(self, tmp_path, monkeypatch, capsys, value):
        """Each config key's flag given ``value`` (``each_drawn_key_value``'s
        edge values, then short malformed or numeric text) on a
        tiny ``synth`` run ends in exit 0, 1 or 2 (argparse's own refusal
        too), never in an exception or a traceback.  The run writes under
        a working directory of its own: ``--out`` takes the value as a
        path."""
        tiny = ["--synth-dim", "2", "--synth-classes", "2", "--synth-samples", "12",
                "--synth-overlap-pairs", "", "--synth-ood-count", "4", "--n-samples", "2",
                "--components", "1", "--em-max-iters", "3"]
        (tmp_path / "run").mkdir(exist_ok=True)
        monkeypatch.chdir(tmp_path / "run")  # ``--out ..`` stays under tmp_path
        assert main(["synth", *tiny]) == EXIT_OK
        for key in cli.CONFIG_KEYS.values():
            try:
                code = main(["synth", *tiny, f"--{key.dest.replace('_', '-')}={value}"])
            except SystemExit as exc:
                code = exc.code
            assert code in (EXIT_OK, EXIT_PARTIAL, EXIT_CONFIG), key
            assert "Traceback" not in capsys.readouterr().err, key

    @each_drawn_key_value
    def test_every_refused_value_names_its_key_and_section(self, tmp_path, value):
        """Each config key given ``value`` (the draws above) as a flag, and
        in a file: ``load_run_config`` returns, or refuses it with a message
        that names the key as ``'<key>' in [<section>]``; argparse's own
        refusals are left out.  No command runs."""
        parser = cli.build_parser()
        path = tmp_path / "run.ini"
        for key in cli.CONFIG_KEYS.values():
            path.write_text(f"[{key.section}]\n{key.ini_key} = {value}\n")
            sources = [(path, None)]
            try:
                sources.append(
                    (None, parser.parse_args(["synth", f"--{key.dest.replace('_', '-')}={value}"]))
                )
            except SystemExit:
                pass
            for source in sources:
                try:
                    load_run_config(*source)
                except ValueError as exc:
                    assert re.search(r"'[^']+' in \[[a-z_]+\]", str(exc)), (key, str(exc))

    def test_every_least_value_is_of_a_config_key(self):
        """A bound left on a renamed or removed key would go unchecked."""
        assert set(cli._LEAST) <= set(cli.CONFIG_KEYS)

    def test_non_finite_float_in_config_file_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "run.ini"
        path.write_text("[synth]\nwithin_class_std = nan\n")
        assert main(["synth", "--config", str(path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert "'within_class_std' in [synth] must be finite, got nan" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "flag, value, key",
        [("--synth-separation", "1e300", "class_separation"),
         ("--synth-ood-offset", "1e300", "ood_offset"),
         ("--synth-std", "1e308", "within_class_std"),
         ("--synth-separation", "1e100", "class_separation")],
    )
    def test_synth_geometry_beyond_float32_is_config_error(self, tmp_path, capsys, flag, value,
                                                           key):
        """Finite geometry whose coordinates the float32 dataset files
        cannot hold is refused at config load, before it can overflow in
        ``synth.ood_center`` or turn EM's arithmetic to NaN."""
        assert main(["synth", flag, value, "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"error: '{key}' in [synth] is {float(value):g}: ")
        assert "float32" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "flags",
        [["--synth-separation", "5e12"], ["--synth-separation", "1e14"],
         ["--synth-separation", "1e36"],
         ["--synth-std", "1e-5", "--synth-separation", "5e10"]],
        ids=["5e12", "1e14", "1e36", "std-below-floor"],
    )
    def test_synth_separation_beyond_float64_resolution_is_config_error(self, tmp_path, capsys,
                                                                         flags):
        """A lattice so far out that float64 steps there are coarse next
        to the class spread EM fits (the std, or the variance floor's if
        larger) is refused at config load, naming the key, where EM used
        to stop on a log-likelihood that rounding had lowered."""
        assert main(["synth", *flags, "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"error: 'class_separation' in [synth] is {float(flags[-1]):g}: ")
        assert "float64" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_far_ood_offset_is_not_bounded_by_float64_resolution(self, tmp_path):
        """Far-OOD points are what the method exists to flag, and EM never
        sees them."""
        argv = ["synth", "--synth-ood-offset", "1e36", "--synth-samples", "200",
                "--out", str(tmp_path / "out")]
        assert main(argv) == EXIT_OK

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["score"], "feature_dir is not configured"),
            (["fit", "--feature-dir", "{data}", "--label-dir", "{data}"],
             "no feature files in {data}"),
            (["eval", "--label-dir", "{data}", "--score-dir", "{data}"],
             "no prediction grids in {data}/predictions"),
            (["eval", "--label-dir", "{data}", "--score-dir", "{scored}"],
             "no prediction grids in {scored}/predictions"),
        ],
        ids=["score-no-feature-dir", "fit-empty-feature-dir", "eval-no-predictions",
             "eval-empty-predictions"],
    )
    def test_missing_inputs_are_config_errors(self, tmp_path, capsys, argv, message):
        """A command whose input directory is not configured, or holds
        nothing to read, exits 2 naming it before it makes its ``--out``
        directory."""
        dirs = {"data": tmp_path / "data", "scored": tmp_path / "scored"}
        (dirs["scored"] / "predictions").mkdir(parents=True)
        dirs["data"].mkdir()
        argv = [arg.format(**dirs) for arg in argv]
        assert main([*argv, "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {message.format(**dirs)}\n"
        assert not (tmp_path / "out").exists()

    def test_missing_config_file(self, tmp_path):
        assert main(["synth", "--config", str(tmp_path / "none.ini")]) == EXIT_CONFIG

    def test_flag_overrides_config(self, tmp_path):
        cfg_path = write_config(tmp_path / "run.ini", tmp_path / "out")
        cfg = load_run_config(cfg_path)
        assert cfg.ensemble.n_samples == 8
        assert cfg.model.classes == 3
        assert cfg.threshold.top_fraction == 0.1
        assert cfg.class_map.train_ids[10] == 0
        assert 1 in cfg.class_map.outlier_ids

    @pytest.mark.parametrize(
        "ini, message",
        [
            ("[ensemble]\nn_sample = 50\n", "unknown key 'n_sample' in [ensemble]"),
            ("[ensembel]\nn_samples = 50\n", "unknown section [ensembel]"),
            ("[prior]\nmu = 1.0\n", "unknown key 'mu' in [prior]"),
        ],
        ids=["key", "section", "field-name-for-aliased-key"],
    )
    def test_unknown_ini_names_are_config_errors(self, tmp_path, capsys, ini, message):
        path = tmp_path / "typo.ini"
        path.write_text(ini)
        assert main(["synth", "--config", str(path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert message in err and str(path) in err

    @pytest.mark.parametrize(
        "ini, message",
        [
            ("[ensemble]\nn_samples = abc\n",
             "'n_samples' in [ensemble]: invalid literal for int() with base 10: 'abc'"),
            ("[threshold]\ntop_fraction = lots\n",
             "'top_fraction' in [threshold]: could not convert string to float: 'lots'"),
            ("[threshold]\nper_scan = maybe\n", "'per_scan' in [threshold]: Not a boolean: maybe"),
            ("[synth]\noverlap_pairs = 1-\n",
             "'overlap_pairs' in [synth]: invalid literal for int() with base 10: ''"),
            ("[class_map]\n10 = foo\n",
             "'10' in [class_map]: invalid literal for int() with base 10: 'foo'"),
            ("[class_map]\nten = 3\n",
             "'ten' in [class_map]: invalid literal for int() with base 10: 'ten'"),
        ],
        ids=["int", "float", "bool", "tuple", "class-map-value", "class-map-id"],
    )
    def test_unparseable_ini_values_name_their_key(self, tmp_path, capsys, ini, message):
        path = tmp_path / "bad.ini"
        path.write_text(ini)
        assert main(["synth", "--config", str(path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "ini, message",
        [
            ("5 = 1\n7 = 2\n-2 = 0\n", "'-2' in [class_map]: raw id must be in [0, 65535]"),
            ("4000000000000 = 2\n",
             "'4000000000000' in [class_map]: raw id must be in [0, 65535]"),
            ("65536 = outlier\n", "'65536' in [class_map]: raw id must be in [0, 65535]"),
            ("10 = 0\n20 = -1\n", "'20' in [class_map]: train id must be at least 0, got -1"),
            ("10 = 99999999999999999999\n",
             "'10' in [class_map]: train id must be below 2**63, got 99999999999999999999"),
            ("1 = outlier\n01 = 0\n", "'01' in [class_map] is raw id 1, as '1' is"),
            ("10 = 0\n010 = 1\n", "'010' in [class_map] is raw id 10, as '10' is"),
        ],
        ids=["negative-raw-id", "huge-raw-id", "raw-id-past-16-bits", "negative-train-id",
             "huge-train-id", "raw-id-in-two-lists", "raw-id-twice"],
    )
    def test_class_map_ids_out_of_range_are_config_errors(self, tmp_path, capsys, ini, message):
        """A negative raw id used to wrap in the lookup table (raw 7 of
        the first case read as train id 0), a huge one exhausted memory
        and a negative train id turned its raw id into "ignore"; a train
        id past int64 overflowed the table with a traceback.  A raw id
        given twice (``10`` and ``010``) used to keep the later key's
        entry, or to meet an overlap check that named no key."""
        path = tmp_path / "map.ini"
        path.write_text("[class_map]\n" + ini)
        out = tmp_path / "out"
        assert main(["fit", "--config", str(path), "--feature-dir", str(tmp_path),
                     "--label-dir", str(tmp_path), "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_class_map_refuses_a_raw_id_in_two_lists(self):
        """A Python caller builds a ``ClassMap`` directly; it keeps its own check."""
        with pytest.raises(ValueError, match="only one of train/outlier/ignore"):
            cli.ClassMap({1: 0}, frozenset({1}), frozenset())

    def test_config_file_that_is_not_utf8_is_named(self, tmp_path, capsys):
        path = tmp_path / "run.ini"
        path.write_bytes(b"\xff\xfe[model]\nclasses = 3\n")
        out = tmp_path / "out"
        assert main(["synth", "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"error: {path}: not UTF-8 text (invalid start byte at byte 0)\n"
        )
        assert not out.exists()

    def test_default_section_keys_serve_interpolation(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[DEFAULT]\nroot = data\n[paths]\nscan_dir = %(root)s/scans\n")
        assert load_run_config(path).paths.scan_dir == "data/scans"

    def test_class_map_reads_only_its_own_keys(self, tmp_path):
        """[DEFAULT]'s keys, interpolation-only, do not enter the class map,
        and a raw id written in [class_map] is read whatever [DEFAULT] holds."""
        path = tmp_path / "run.ini"
        path.write_text("[DEFAULT]\nroot = data\n10 = 5\n20 = 1\n"
                        "[class_map]\n10 = 0\n1 = outlier\n30 = %(10)s\n")
        class_map = load_run_config(path).class_map
        assert class_map.train_ids == {10: 0, 30: 0}
        assert class_map.outlier_ids == {1} and not class_map.ignore_ids

    def test_missing_section_header_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "bare.ini"
        path.write_text("n_samples = 50\n")
        assert main(["synth", "--config", str(path)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error: ")

    def test_output_under_a_regular_file_is_config_error(self, tmp_path, capsys):
        afile = tmp_path / "afile"
        afile.write_text("")
        assert main(["synth", "--out", str(afile / "x")]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error: ")

    def test_readme_config_example_loads(self, tmp_path):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        example = readme.split("```ini\n", 1)[1].split("```", 1)[0]
        path = tmp_path / "run.ini"
        path.write_text(example)
        cfg = load_run_config(path)
        assert cfg.paths.scan_dir == "data/scans"
        assert cfg.paths.label_dir == "data/labels"
        assert cfg.model.feature_dim == 5

    def test_readme_quick_tour_runs(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        tour = readme.split("```python\n", 1)[1].split("```", 1)[0]
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        done = subprocess.run(
            [sys.executable, "-W", "error", "-c", tour], env=env, capture_output=True, text=True
        )
        assert done.returncode == 0, done.stderr

    def test_builtin_defaults(self):
        cfg = load_run_config(None)
        assert cfg.ensemble.n_samples == 20
        assert cfg.threshold.top_fraction == 0.05
        assert cfg.model.components == 2
        assert cfg.model.feature_dim == 32
        assert (cfg.prior.mu, cfg.prior.kappa, cfg.prior.alpha, cfg.prior.beta) == (
            0.0, 1.0, 2.0, 1.0,
        )
        assert cfg.projection.height == 64 and cfg.projection.width == 1024

    def test_default_class_map_is_semantic_kitti_like(self):
        assert sorted(set(DEFAULT_CLASS_MAP.train_ids.values())) == list(range(19))
        assert 1 in DEFAULT_CLASS_MAP.outlier_ids
        assert 0 in DEFAULT_CLASS_MAP.ignore_ids

    def test_console_script_runs(self, tmp_path):
        """Through the installed ``gmmood`` script, or else through the
        ``entry()`` it calls, from the source tree."""
        exe = shutil.which("gmmood")
        command = [exe] if exe else [sys.executable, "-c", "from gmmood.cli import entry; entry()"]
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        cfg = write_config(
            tmp_path / "synth.ini",
            tmp_path / "out",
            extra=TestSynthCommand.SYNTH,
        )
        proc = subprocess.run(
            [*command, "synth", "--config", str(cfg)], env=env, capture_output=True, text=True
        )
        assert proc.returncode == 0
        assert "auroc" in proc.stdout


def test_cli_import_loads_no_scipy():
    """The runtime needs numpy alone; scipy is a test dependency."""
    script = "import sys, gmmood.cli; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "[]"


def package_nodes():
    """(file name, node) for every AST node of the package's modules."""
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            yield path.name, node


def test_package_has_no_assert_statements():
    """Invariants are checked by code that still runs under ``python -O``,
    which strips ``assert`` statements."""
    found = [f"{name}:{node.lineno}" for name, node in package_nodes()
             if isinstance(node, ast.Assert)]
    assert found == []


def test_benchmark_reference_imports_nothing_from_the_package():
    """``tests/test_ensemble.py`` scores against ``perfbench/reference.py``,
    so it, and the ``workloads.py`` it imports, import only the standard
    library, numpy and each other: never ``gmmood``."""
    perfbench = Path(__file__).parents[1] / "perfbench"
    allowed = {"numpy", "workloads", *sys.stdlib_module_names}
    found = []
    for name in ("reference.py", "workloads.py"):
        for node in ast.walk(ast.parse((perfbench / name).read_text())):
            if isinstance(node, ast.Import):
                found += [a.name for a in node.names if a.name.split(".")[0] not in allowed]
            elif isinstance(node, ast.ImportFrom) and node.module.split(".")[0] not in allowed:
                found.append(node.module)
    assert found == []


def cli_nodes():
    """(innermost enclosing function's name, node) for every AST node of
    ``cli``."""

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            function = getattr(node, "name", "<lambda>")
        yield function, node
        for child in ast.iter_child_nodes(node):
            yield from visit(child, function)

    yield from visit(ast.parse(Path(cli.__file__).read_text()), "<module>")


def test_cli_reads_features_and_labels_in_one_place_each():
    """``cli`` reads an FMAP file only in ``_read_grid`` and
    ``_read_features``, and maps raw ids only in ``_read_labels``, so the
    dimension and train-id checks cannot fork between commands."""
    readers = {"read_feature_map": {"_read_grid", "_read_features"},
               "map_array": {"_read_labels"}}
    found = []
    for function, node in cli_nodes():
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in readers and function not in readers[name]:
                found.append(f"{name} in {function}:{node.lineno}")
    assert found == []


def test_cli_writes_to_stderr_in_one_place_per_failure():
    """Only ``_each_file`` (a bad input file) and ``main`` (a refused run)
    name ``stderr`` in ``cli``, so no command grows its own failure path."""
    found = [
        f"{function}:{node.lineno}"
        for function, node in cli_nodes()
        if function not in {"_each_file", "main"} and (
            isinstance(node, ast.Name) and "stderr" in node.id
            or isinstance(node, ast.Attribute) and "stderr" in node.attr
            or isinstance(node, ast.alias) and "stderr" in node.name
        )
    ]
    assert found == []


def test_only_formats_knows_the_container_header():
    """Every container is a ``formats.Container`` declared by its layout;
    no other module packs, unpacks or offsets past the header."""
    header = {"_HEADER", "HEADER_SIZE", "struct"}
    found = [
        f"{name}:{node.lineno}"
        for name, node in package_nodes()
        if name != "formats.py" and (
            isinstance(node, ast.Name) and node.id in header
            or isinstance(node, ast.Attribute) and node.attr in header
            or isinstance(node, ast.alias) and node.name in header
        )
    ]
    assert found == []
