"""The benchmark's per-layer metrics find the functions they time.

``perfbench/layers.py`` reads each metric from the spans of the package
functions it names, and a metric whose function was renamed or deleted
silently reads 0.  A tiny traced ``score`` + ``eval`` must give every
metric below a positive value, and ``eval`` must record a span of each
ranking metric for every report channel: a sum such as
``metrics.ranking_s`` stays positive when one of its functions goes dark.
"""

import json
import sys
import threading
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from gmmood import _blas, cli, gmm
from gmmood.formats import FeatureMap, write_feature_map

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import layers  # noqa: E402
import run  # noqa: E402
from spans import ID, NAME, subtree  # noqa: E402

# raw SemanticKITTI ids of train classes 0, 1, 2 and the outlier class
RAW_IDS, OUTLIER_RAW = (10, 11, 15), 1

NAMES = (
    "formats.read_s",
    "formats.write_s",
    "nig.load_s",
    "nig.sample_ensemble_s",
    "ensemble.reduce_self_s",
    "ensemble.scan_s_p50",
    "ensemble.pixels_scored",
    "metrics.threshold_s",
    "metrics.ranking_s",
    "metrics.miou_s",
)


def write_split(root: Path, rng, name="s", classes=3):
    """A 4 x 64 grid ``name`` of the first ``classes`` of three 3-d
    classes with a tenth of it outliers."""
    cls = rng.integers(0, classes, (4, 64))
    z = rng.normal(0.0, 0.5, (4, 64, 3)) + 3.0 * cls[..., None]
    raw = np.asarray(RAW_IDS)[cls]
    ood = rng.random((4, 64)) < 0.1
    z[ood] = 40.0
    raw[ood] = OUTLIER_RAW
    valid = np.ones((4, 64), bool)
    for sub, values in (("f", z), ("l", raw[..., None])):
        (root / sub).mkdir(parents=True, exist_ok=True)
        write_feature_map(FeatureMap(values.astype(np.float32), valid), root / sub / f"{name}.fmap")
    return root / "f", root / "l"


@pytest.fixture(scope="module")
def trees(tmp_path_factory):
    """The span tree of each repetition of a traced ``score`` + ``eval``."""
    root = tmp_path_factory.mktemp("bench")
    rng = np.random.default_rng(0)
    train_f, train_l = write_split(root / "train", rng)
    score_f, score_l = write_split(root / "score", rng)
    common = ["--classes", "3", "--components", "1", "--feature-dim", "3"]
    model = root / "model"
    assert cli.main(["fit", "--feature-dir", str(train_f), "--label-dir", str(train_l),
                     "--out", str(model), *common]) == cli.EXIT_OK
    out = root / "out"
    commands = [
        ["score", "--feature-dir", score_f, "--model-path", model / "model.gmmc",
         "--bank-path", model / "bank.nigb", "--out", out, "--n-samples", "4", *common],
        ["eval", "--label-dir", score_l, "--score-dir", out, "--out", out / "eval", *common],
    ]
    env = run.program_env(1)
    env["PYTHONPATH"] = str(PERFBENCH.parent / "src")
    _, spans, _ = run.run_program(root, env, commands, out=out, trace=True,
                                  deadline=time.monotonic() + 120)
    return run.rep_trees(spans)


@pytest.fixture(scope="module")
def metrics(trees):
    return layers.layer_metrics(trees, 1, 5 * 3 * 1 * 3)


@pytest.mark.parametrize("name", NAMES)
def test_metric_reads_above_zero(metrics, name):
    assert metrics[name] > 0


@pytest.mark.parametrize(
    "name", ["metrics.auroc", "metrics.auprc", "metrics.fpr_at_tpr", "metrics.average_precision"]
)
def test_eval_traces_each_ranking_metric_per_channel(trees, name):
    assert trees
    for tree in trees:
        (root,) = [s for s in tree if s[NAME] == "cli.eval"]
        calls = Counter(s[NAME] for s in subtree(tree, root[ID]))
        assert calls[name] == len(cli.REPORT_CHANNELS)


@pytest.mark.parametrize("fit", ["pooled", "serial"])
def test_em_fit_is_counted_on_the_rows_it_reads(tmp_path, monkeypatch, fit):
    """``gmm.em_samples`` is ``len`` of ``em_fit``'s first argument, so
    ``fit`` calls ``em_fit`` once per class with (N_c, D) rows: a view
    whose ``.T`` is the C-ordered float64 copy that EM reads, not a
    second copy.  Class 2 is missing from one of the three scans."""
    if fit == "serial":
        monkeypatch.setattr(_blas, "_found", [])
    rng = np.random.default_rng(3)
    for i, classes in enumerate((3, 2, 3)):
        features, labels = write_split(tmp_path, rng, name=f"s{i}", classes=classes)
    calls, local = [], threading.local()
    real_em_fit, real_moments = gmm.em_fit, gmm._moments

    def em_fit_spy(*args, **kwargs):
        local.read = []
        result = real_em_fit(*args, **kwargs)
        calls.append((args, kwargs, result, local.read))
        return result

    def moments_spy(rows, *args):
        local.read.append(rows)
        return real_moments(rows, *args)

    monkeypatch.setattr(gmm, "em_fit", em_fit_spy)
    monkeypatch.setattr(gmm, "_moments", moments_spy)
    out = tmp_path / "out"
    assert cli.main(["fit", "--feature-dir", str(features), "--label-dir", str(labels),
                     "--out", str(out), "--classes", "3", "--feature-dim", "3"]) == cli.EXIT_OK
    report = json.loads((out / "fit_report.json").read_text())["classes"]
    assert sorted(kwargs["class_id"] for _, kwargs, _, _ in calls) == [0, 1, 2]
    for args, kwargs, result, read in calls:
        x, entry = args[0], report[str(kwargs["class_id"])]
        assert x.shape == (entry["samples"], 3)
        count = layers.COUNTERS["gmm.em_fit"](args, kwargs, result)
        assert count == [entry["samples"], entry["em_iterations"]]
        assert read and all(np.shares_memory(x.T, rows) for rows in read)
        assert x.T.flags.c_contiguous and x.dtype == np.float64
