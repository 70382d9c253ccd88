"""The benchmark's per-layer metrics find the functions they time.

``perfbench/layers.py`` reads each metric from the spans of the package
functions it names, and a metric whose function was renamed or deleted
silently reads 0.  A tiny traced ``score`` + ``eval`` must give every
metric below a positive value, and ``eval`` must record a span of each
ranking metric for every report channel: a sum such as
``metrics.ranking_s`` stays positive when one of its functions goes dark.
"""

import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from gmmood import cli
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


def write_split(root: Path, rng):
    """A 4 x 64 grid of three 3-d classes with a tenth of it outliers."""
    cls = rng.integers(0, 3, (4, 64))
    z = rng.normal(0.0, 0.5, (4, 64, 3)) + 3.0 * cls[..., None]
    raw = np.asarray(RAW_IDS)[cls]
    ood = rng.random((4, 64)) < 0.1
    z[ood] = 40.0
    raw[ood] = OUTLIER_RAW
    valid = np.ones((4, 64), bool)
    for sub, values in (("f", z), ("l", raw[..., None])):
        (root / sub).mkdir(parents=True)
        write_feature_map(FeatureMap(values.astype(np.float32), valid), root / sub / "s.fmap")
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
