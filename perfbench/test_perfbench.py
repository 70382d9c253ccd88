"""Tests of the benchmark's own machinery: the correctness gate and the tracer.

Run with ``PYTHONPATH=src python3 -m pytest perfbench -q`` from the
repository root.  Inputs are tiny so the tests take seconds.
"""

import json
import sys
import threading
import types
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(1, str(HERE.parent / "src"))

import layers  # noqa: E402
import reference  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402
from gmmood import cli  # noqa: E402
from gmmood import metrics as gm  # noqa: E402

RAW = wl.RAW_OF_TRAIN[:3]


def tiny_run(root: Path, seed: int = 0):
    """Fit on a 4 x 96 grid of three 4-d classes plus outliers, then
    score and evaluate; returns the paths the gate reads."""
    rng = np.random.default_rng(seed)
    h, w, d = 4, 96, 4
    for split in ("train", "score"):
        (root / split / "f").mkdir(parents=True)
        (root / split / "l").mkdir(parents=True)
        cls = rng.integers(0, 3, (h, w))
        z = rng.normal(0.0, 0.7, (h, w, d)) + 3.0 * cls[..., None]
        raw = np.asarray(RAW)[cls]
        ood = rng.random((h, w)) < 0.1
        z[ood] = rng.normal(4.0, 3.0, (int(ood.sum()), d))
        z[0, :2] = 500.0  # far-OOD: hundreds of sigma from every class
        ood[0, :2] = True
        raw[ood] = wl.OUTLIER_RAW
        valid = rng.random((h, w)) > 0.1
        wl.write_fmap(root / split / "f" / "s.fmap", z, valid)
        wl.write_fmap(root / split / "l" / "s.fmap", raw[..., None].astype(np.float32), valid)
    common = ["--classes", "3", "--components", "2", "--feature-dim", str(d), "--seed", "0"]
    out = root / "out"
    for argv in (
        ["fit", "--feature-dir", root / "train" / "f", "--label-dir", root / "train" / "l",
         "--out", out, *common],
        ["score", "--feature-dir", root / "score" / "f", "--out", out, "--n-samples", "5",
         *common],
        ["eval", "--label-dir", root / "score" / "l", "--score-dir", out,
         "--out", out / "eval", *common],
    ):
        assert cli.main([str(a) for a in argv]) == 0
    focus = np.zeros((h, w), bool)
    focus[0, :2] = True
    return out, root / "score" / "f", root / "score" / "l", {"s": focus}


def gate(out, features, labels, focus):
    stats = {}
    failures = reference.check_scores(
        out, features, out / "model.gmmc", out / "bank.nigb", n_samples=5, seed=0,
        top_fraction=0.05, sample_per_scan=400, rng=np.random.default_rng(0), focus=focus,
        stats=stats)
    return failures + reference.check_eval(out / "eval", out, labels, 3, stats), stats


def corrupt(path: Path, row: int, col: int, value: float) -> None:
    values, valid = reference.read_fmap(path)
    values = values.copy()
    values[row, col, 0] = value
    wl.write_fmap(path, values, valid)


def first_valid(path: Path):
    _, valid = reference.read_fmap(path)
    r, c = np.argwhere(valid)[0]
    return int(r), int(c)


def test_gate_accepts_program_outputs(tmp_path):
    failures, stats = gate(*tiny_run(tmp_path))
    assert failures == []
    assert stats["sampled_pixels"] == stats["valid_pixels"]
    assert stats["focus_pixels"] >= 1


@pytest.mark.parametrize("channel", ["epistemic", "mutual_information", "max_posterior"])
def test_gate_rejects_corrupted_score_map(tmp_path, channel):
    out, features, labels, focus = tiny_run(tmp_path)
    path = out / "scores" / f"s_{channel}.fmap"
    r, c = first_valid(path)
    values, _ = reference.read_fmap(path)
    corrupt(path, r, c, float(values[r, c, 0]) + 1e-3)
    failures, _ = gate(out, features, labels, focus)
    assert any(f" {channel}: " in f for f in failures)


def test_gate_rejects_wrong_class_and_mask(tmp_path):
    out, features, labels, focus = tiny_run(tmp_path)
    pred = out / "predictions" / "s.fmap"
    r, c = first_valid(pred)
    values, _ = reference.read_fmap(pred)
    corrupt(pred, r, c, (float(values[r, c, 0]) + 1) % 3)
    mask = out / "ood_masks" / "s.fmap"
    values, _ = reference.read_fmap(mask)
    corrupt(mask, r, c, 1.0 - float(values[r, c, 0]))
    failures, _ = gate(out, features, labels, focus)
    assert any("class" in f for f in failures)
    assert any("OOD mask" in f for f in failures)


def test_gate_rejects_edited_eval_report(tmp_path):
    out, features, labels, focus = tiny_run(tmp_path)
    report = out / "eval" / "eval_epistemic.json"
    doc = json.loads(report.read_text())
    doc["auroc"] += 1e-6
    report.write_text(json.dumps(doc))
    failures, _ = gate(out, features, labels, focus)
    assert any("eval epistemic auroc" in f for f in failures)


def test_projection_gate(tmp_path):
    wl.make_range_workload(3, tmp_path, n_scans=1)
    out = tmp_path / "out"
    argv = ["project", "--scan-dir", tmp_path / "scans", "--label-dir", tmp_path / "labels_raw",
            "--out", out]
    assert cli.main([str(a) for a in argv]) == 0
    stats = {}
    assert reference.check_projection(tmp_path / "scans", tmp_path / "labels_raw", out, stats) == []
    assert 0.6 < stats["valid_pixels"] / (wl.H * wl.W) < 0.8
    assert min(stats["train_samples"]) > 0
    path = out / "range" / "scan000.fmap"
    values, valid = reference.read_fmap(path)
    values = values.copy()
    r, c = np.argwhere(valid)[0]
    values[r, c, 4] += 0.5
    wl.write_fmap(path, values, valid)
    assert reference.check_projection(tmp_path / "scans", tmp_path / "labels_raw", out, {})


def test_ranking_reference_matches_definitions():
    rng = np.random.default_rng(1)
    scores = np.round(rng.normal(size=2000), 1)  # many ties
    is_ood = rng.random(2000) < 0.1
    data = gm.ScoredPixels(scores, is_ood)
    assert reference.auroc(scores, is_ood) == pytest.approx(gm.auroc(data), abs=1e-12)
    assert reference.auprc(scores, is_ood) == pytest.approx(gm.auprc(data), abs=1e-12)
    assert reference.fpr95(scores, is_ood) == pytest.approx(gm.fpr_at_tpr(data), abs=1e-12)
    threshold, _ = reference.nearest_rank_threshold(scores, 0.05)
    assert threshold == gm.percentile_threshold(scores, 0.05)[0]


# ---------------------------------------------------------------------------
# tracer


def test_install_rebinds_from_imports():
    lib = types.ModuleType("fakepkg.lib")
    exec("def leaf(x):\n    return x + 1\n\ndef _private():\n    return 0\n", lib.__dict__)
    user = types.ModuleType("fakepkg.user")
    user.leaf = lib.leaf  # as ``from .lib import leaf`` would bind it
    exec("def outer(x):\n    return leaf(x) * 2\n", user.__dict__)
    tracer = spans.Tracer()
    tracer.install([lib, user], counters={"lib.leaf": lambda a, k, r: r})
    assert user.outer(1) == 4
    done = {s[spans.NAME]: s for s in tracer.spans()}
    assert set(done) == {"lib.leaf", "user.outer"}
    assert done["lib.leaf"][spans.PARENT] == done["user.outer"][spans.ID]
    assert done["lib.leaf"][spans.COUNT] == 2
    assert lib._private() == 0 and not hasattr(lib._private, "__wrapped__")


def test_self_times_split_wall_time_across_threads():
    tracer = spans.Tracer()
    work = tracer.wrap("ensemble.score_feature_map", lambda n: sum(range(n)))
    inner = tracer.wrap("gmm.component_log_densities", lambda n: sum(range(n)))

    def job(n):
        return work(n) + inner(n)

    job_traced = tracer.wrap("ensemble.score_samples", job)
    with tracer.span("bench.rep"):
        with tracer.span("cli.score"):
            inner(10_000)
            with ThreadPoolExecutor(max_workers=3) as pool:
                assert len(list(pool.map(job_traced, [200_000] * 6))) == 6
    done = tracer.spans()
    assert len({s[spans.THREAD] for s in done}) > 1
    (rep,) = [s for s in done if s[spans.NAME] == "bench.rep"]
    tree = spans.subtree(done, rep[spans.ID])
    assert len(tree) == len(done)  # worker spans hang under the command
    shares = spans.self_times(tree)
    assert min(shares.values()) >= 0.0
    assert sum(shares.values()) == pytest.approx(rep[spans.END] - rep[spans.START], rel=1e-9)
    per_cmd = layers.command_self_times(tree)
    assert sum(per_cmd["score"]["self"].values()) == pytest.approx(per_cmd["score"]["wall"])
    m = layers.layer_metrics([tree], jobs=3, work_per_pixel=1)
    assert m["gmm.component_log_densities_calls"] == 7
    assert 0.0 < m["cli.score_parallel_eff"] <= 1.0 + 1e-9


def test_self_time_is_duration_minus_children_on_one_thread():
    tree = [
        (1, 0, "cli.fit", 0.0, 10.0, 1, 0),
        (2, 1, "gmm.em_fit", 1.0, 6.0, 1, 0),
        (3, 2, "gmm.component_log_densities", 2.0, 3.0, 1, 0),
        (4, 1, "nig.build_bank", 7.0, 8.0, 1, 0),
    ]
    assert spans.self_times(tree) == {1: 4.0, 2: 4.0, 3: 1.0, 4: 1.0}


def test_tracer_is_thread_safe():
    tracer = spans.Tracer()
    leaf = tracer.wrap("x.leaf", lambda: None)
    barrier = threading.Barrier(4)

    def hammer():
        barrier.wait(timeout=10)
        for _ in range(2000):
            leaf()

    threads = [threading.Thread(target=hammer) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert not any(t.is_alive() for t in threads)
    ids = [s[spans.ID] for s in tracer.spans()]
    assert len(ids) == len(set(ids)) == 8000


# ---------------------------------------------------------------------------
# program runner


def test_program_repeats_within_budget_and_stops(tmp_path):
    import run

    env = run.program_env(1)
    env["PYTHONPATH"] = str(HERE.parent / "src")
    deadline = run.time.monotonic() + 120
    # an import-only plan takes no time per repetition and must still stop
    result, spans_, wall = run.run_program(tmp_path, env, [], out=None, deadline=deadline)
    assert len(result["reps"]) == 1 and spans_ is None and wall > 0
    out, features, _, _ = tiny_run(tmp_path / "data")
    argv = ["score", "--feature-dir", features, "--model-path", out / "model.gmmc",
            "--bank-path", out / "bank.nigb", "--out", tmp_path / "o", "--n-samples", "5",
            "--classes", "3", "--feature-dim", "4"]
    result, spans_, _ = run.run_program(tmp_path, env, [argv], out=tmp_path / "o",
                                        seconds=0.5, trace=True, deadline=deadline)
    reps = result["reps"]
    assert len(reps) >= 2
    assert sum(r["seconds"] for r in reps[:-1]) < 0.5
    assert len({json.dumps(r["digests"], sort_keys=True) for r in reps}) == 1
    assert len(run.rep_trees(spans_)) == len(reps)
    assert result["provenance"]["blas_env"]["OPENBLAS_NUM_THREADS"] == "1"
