"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sstats

from gmmood.cli import EXIT_OK, main
from gmmood.ensemble import VoteRecord, decompose_uncertainty, vote_entropy
from gmmood.formats import FeatureMap, write_feature_map
from gmmood.gmm import GMMClassifier, em_fit, save_classifier
from gmmood.metrics import ScoredPixels, auprc, auroc, fpr_at_tpr, percentile_threshold
from gmmood.nig import (
    DEFAULT_PRIOR,
    NIGParams,
    NIGPosteriorBank,
    build_bank,
    posterior_predictive_logpdf,
    sample_parameters,
    save_bank,
    update_posterior,
)
from gmmood.rangeview import CH_RANGE, PointCloud, project_spherical
from gmmood.synth import SynthConfig, generate, run_benchmark
from oracles import brute_force_auroc, exhaustive_fpr, rank_by_rank_auprc


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] criterion {number}: {name}{suffix}")
    assert ok, f"criterion {number} failed: {name}{suffix}"


# -- criterion 1: ranking metrics against brute-force oracles ----------------


def test_c1_metric_oracle_equivalence():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    checked = 0
    worst = 0.0
    while checked < 200:
        n = int(rng.integers(4, 1001))
        scores = rng.normal(size=n)
        if rng.random() < 0.5:
            scores = np.round(scores, 1)  # inject ties
        is_ood = rng.random(n) < rng.uniform(0.05, 0.6)
        if is_ood.all() or not is_ood.any():
            continue
        checked += 1
        data = ScoredPixels(scores, is_ood)
        worst = max(worst, abs(auroc(data) - brute_force_auroc(scores, is_ood)))
        assert auroc(data) == pytest.approx(brute_force_auroc(scores, is_ood), abs=1e-9)
        assert auprc(data) == pytest.approx(rank_by_rank_auprc(scores, is_ood), abs=1e-9)
        target = float(rng.choice([0.5, 0.9, 0.95]))
        assert fpr_at_tpr(data, target) == pytest.approx(
            exhaustive_fpr(scores, is_ood, target), abs=1e-12
        )
    elapsed = time.perf_counter() - start
    report(
        1,
        "metric oracle equivalence",
        checked == 200 and elapsed < 10.0,
        f"200 instances, max auroc deviation {worst:.2e}, {elapsed:.2f}s",
    )


# -- criterion 2: conjugacy exactness ----------------------------------------


def test_c2_conjugacy_exactness():
    rng = np.random.default_rng(102)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        prior = NIGParams(
            mu=float(rng.normal()),
            kappa=float(rng.random() * 5 + 1e-3),
            alpha=float(rng.random() * 5 + 1e-3),
            beta=float(rng.random() * 5 + 1e-3),
        )
        x_a = rng.normal(size=int(rng.integers(1, 40)))
        x_b = rng.normal(size=int(rng.integers(1, 40)))
        n_a, n_b = x_a.size, x_b.size
        stats_a = (n_a, x_a.mean(), ((x_a - x_a.mean()) ** 2).sum())
        stats_b = (n_b, x_b.mean(), ((x_b - x_b.mean()) ** 2).sum())
        x_ab = np.concatenate([x_a, x_b])
        stats_ab = (x_ab.size, x_ab.mean(), ((x_ab - x_ab.mean()) ** 2).sum())
        seq = update_posterior(update_posterior(prior, *stats_a), *stats_b)
        pooled = update_posterior(prior, *stats_ab)
        for field in ("mu", "kappa", "alpha", "beta"):
            a, b = getattr(seq, field), getattr(pooled, field)
            err = abs(a - b) / max(1.0, abs(b))
            worst = max(worst, err)
            assert err < 1e-12
    elapsed = time.perf_counter() - start
    report(
        2,
        "conjugacy exactness (batched vs pooled)",
        elapsed < 1.0,
        f"1000 pairs, worst relative deviation {worst:.2e}, {elapsed:.3f}s",
    )


# -- criterion 3: posterior-predictive agreement -----------------------------


def test_c3_posterior_predictive_ks():
    rng = np.random.default_rng(103)
    start = time.perf_counter()
    n_draws = 100_000
    worst_p = 1.0
    for _ in range(20):
        cell = NIGParams(
            mu=float(rng.normal(scale=2.0)),
            kappa=float(rng.uniform(0.5, 5.0)),
            alpha=float(rng.uniform(1.5, 6.0)),
            beta=float(rng.uniform(0.5, 5.0)),
        )
        # route 1: the library's own sampler, one wide bank = many draws
        bank = NIGPosteriorBank(
            np.full((1, 1, n_draws), cell.mu),
            np.full((1, 1, n_draws), cell.kappa),
            np.full((1, 1, n_draws), cell.alpha),
            np.full((1, 1, n_draws), cell.beta),
            np.ones((1, 1)),
        )
        sample = sample_parameters(bank, rng.integers(2**32))
        x = rng.normal(sample.means.ravel(), np.sqrt(sample.variances.ravel()))
        # route 2: the analytic posterior predictive
        df = 2.0 * cell.alpha
        scale = math.sqrt(cell.beta * (cell.kappa + 1) / (cell.alpha * cell.kappa))
        predictive = sstats.t(df=df, loc=cell.mu, scale=scale)
        # the closed-form density must agree with the declared distribution
        probe = np.linspace(cell.mu - 2 * scale, cell.mu + 2 * scale, 5)
        np.testing.assert_allclose(
            posterior_predictive_logpdf(cell, probe), predictive.logpdf(probe), rtol=1e-12
        )
        result = sstats.kstest(x, predictive.cdf)
        worst_p = min(worst_p, result.pvalue)
        assert result.pvalue > 0.01
    elapsed = time.perf_counter() - start
    report(
        3,
        "posterior-predictive KS agreement",
        elapsed < 30.0,
        f"20 cells x {n_draws} draws, min p-value {worst_p:.3f}, {elapsed:.1f}s",
    )


# -- criterion 4: EM recovery -------------------------------------------------


def test_c4_em_recovery():
    start = time.perf_counter()
    successes = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        x = np.concatenate(
            [rng.normal(0.0, 0.5, size=(500, 1)), rng.normal(10.0, 0.5, size=(500, 1))]
        )
        gmm, _ = em_fit(x, 2, seed=seed)
        order = np.argsort(gmm.means[0, :, 0])
        means = gmm.means[0, order, 0]
        weights = gmm.weights[0, order]
        if (
            abs(means[0] - 0.0) < 0.1
            and abs(means[1] - 10.0) < 0.1
            and abs(weights[0] - 0.5) < 0.05
            and abs(weights[1] - 0.5) < 0.05
        ):
            successes += 1
    elapsed = time.perf_counter() - start
    report(
        4,
        "EM recovery on the two-cluster benchmark",
        successes >= 18 and elapsed < 5.0,
        f"{successes}/20 seeds, {elapsed:.2f}s",
    )


# -- criterion 5: entropy bounds and analytic examples ------------------------


@settings(max_examples=300, deadline=None)
@given(
    counts=st.lists(st.integers(min_value=0, max_value=50), min_size=2, max_size=25)
)
def test_c5_entropy_bounds_property(counts):
    if sum(counts) == 0:
        counts[0] = 1
    record = VoteRecord(counts)
    h = vote_entropy(record)
    c = len(counts)
    assert -1e-12 <= h <= math.log(c) + 1e-12
    if h >= math.log(c) - 1e-12:
        nonzero = [v for v in counts if v > 0]
        assert len(set(nonzero)) == 1 and len(nonzero) == c


def test_c5_entropy_examples_and_mi_bounds():
    ok_examples = (
        vote_entropy(VoteRecord([20, 0, 0])) == 0.0
        and abs(vote_entropy(VoteRecord(np.ones(20, int))) - 2.995732) < 1e-6
        and abs(vote_entropy(VoteRecord([15, 5])) - 0.562335) < 1e-6
    )
    rng = np.random.default_rng(105)

    ok_mi = True
    for _ in range(100):
        c = int(rng.integers(2, 6))
        members = [
            GMMClassifier(
                np.ones((c, 1)),
                rng.normal(scale=3.0, size=(c, 1, 2)),
                rng.random((c, 1, 2)) + 0.2,
            )
            for _ in range(int(rng.integers(1, 10)))
        ]
        dec = decompose_uncertainty(rng.normal(scale=3.0, size=2), members)
        ok_mi &= 0.0 <= dec.mutual_information <= dec.predictive_entropy + 1e-9
        ok_mi &= dec.predictive_entropy <= math.log(c) + 1e-9
    report(5, "entropy bounds and analytic examples", ok_examples and ok_mi)


# -- criterion 6: directional reproduction of the core claim ------------------


def test_c6_directional_benchmark():
    start = time.perf_counter()
    wins = 0
    deltas, fpr_epistemic, fpr_predictive, accuracies = [], [], [], []
    for seed in range(10):
        config = SynthConfig(
            feature_dim=8,
            n_classes=6,
            samples_per_class=2000,
            class_separation=4.0,
            overlap_pairs=((0, 1), (2, 3)),
            ood_count=600,
            ood_offset=12.0,  # three class separations
            within_class_std=0.5,
            seed=seed,
        )
        result = run_benchmark(
            generate(config), n_components=2, n_samples=20, seed=seed + 1000
        )
        wins += result.epistemic.auroc > result.predictive.auroc
        deltas.append(result.epistemic.auroc - result.predictive.auroc)
        fpr_epistemic.append(result.epistemic.fpr95)
        fpr_predictive.append(result.predictive.fpr95)
        accuracies.append(result.point_accuracy)
    elapsed = time.perf_counter() - start
    mean_delta = float(np.mean(deltas))
    accuracy_ok = all(0.85 <= a <= 0.95 for a in accuracies)
    ok = (
        wins >= 8
        and mean_delta >= 0.03
        and float(np.mean(fpr_epistemic)) < float(np.mean(fpr_predictive))
        and accuracy_ok
        and elapsed < 120.0
    )
    report(
        6,
        "directional benchmark (epistemic beats predictive entropy)",
        ok,
        f"wins {wins}/10, mean auroc delta {mean_delta:+.3f}, "
        f"mean fpr95 {np.mean(fpr_epistemic):.3f} vs {np.mean(fpr_predictive):.3f}, "
        f"accuracy {np.mean(accuracies):.3f}, {elapsed:.1f}s",
    )


# -- criterion 7: percentile rule ---------------------------------------------


def test_c7_percentile_rule():
    rng = np.random.default_rng(107)
    ok = True
    details = []
    for n in (100, 10_007, 65_536):
        scores = rng.permutation(n).astype(float)
        _, mask = percentile_threshold(scores, 0.05)
        flagged = int(mask.sum())
        details.append(f"n={n}: {flagged}")
        ok &= abs(flagged - math.floor(0.05 * n)) <= 1
    report(7, "percentile flagging counts", ok, ", ".join(details))


# -- criterion 8: projection round trip ----------------------------------------


def test_c8_projection_round_trip():
    rng = np.random.default_rng(108)
    start = time.perf_counter()
    for _ in range(100):
        n = int(rng.integers(50, 800))
        xyz = rng.normal(scale=rng.uniform(5.0, 40.0), size=(n, 3))
        cloud = PointCloud(np.column_stack([xyz, rng.random(n)]))
        image = project_spherical(cloud)
        rows, cols = np.nonzero(image.valid)
        owners = image.point_index[rows, cols]
        assert np.array_equal(image.point_rows[owners], rows)
        assert np.array_equal(image.point_cols[owners], cols)
        ranges = np.linalg.norm(cloud.xyz, axis=1)
        mapped = image.point_rows >= 0
        stored = image.channels[
            image.point_rows[mapped], image.point_cols[mapped], CH_RANGE
        ]
        assert np.all(ranges[mapped] >= stored - 1e-5)
    elapsed = time.perf_counter() - start
    report(8, "projection round trip and nearest-wins", elapsed < 5.0, f"{elapsed:.2f}s")


# -- criterion 9: end-to-end determinism ----------------------------------------


SYNTH_INI = """
[model]
classes = 4
components = 2
feature_dim = 4

[ensemble]
n_samples = 10
seed = 5

[synth]
feature_dim = 4
n_classes = 4
samples_per_class = 300
class_separation = 4.0
overlap_pairs = 0-1
ood_count = 100
ood_offset = 12.0
within_class_std = 0.5
seed = 20
"""


def test_c9_end_to_end_determinism(tmp_path):
    config_path = tmp_path / "synth.ini"
    config_path.write_text(SYNTH_INI)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["synth", "--config", str(config_path), "--out", str(out_a)]) == EXIT_OK
    assert main(["synth", "--config", str(config_path), "--out", str(out_b)]) == EXIT_OK
    reports_identical = all(
        (out_a / name).read_bytes() == (out_b / name).read_bytes()
        for name in (
            "eval_epistemic.json",
            "eval_predictive.json",
            "delta_summary.json",
        )
    )

    # score determinism across worker counts
    rng = np.random.default_rng(109)
    classes, stats = [], []
    for ci in range(3):
        x = rng.normal(loc=3.0 * ci, scale=0.8, size=(300, 4))
        cgmm, st = em_fit(x, 2, seed=ci, class_id=ci)
        classes.append(cgmm)
        stats.append(st)
    model = GMMClassifier.of(classes)
    bank = build_bank(model, stats, DEFAULT_PRIOR)
    model_path = tmp_path / "model.gmmc"
    bank_path = tmp_path / "bank.nigb"
    save_classifier(model, model_path)
    save_bank(bank, bank_path)
    feature_dir = tmp_path / "features"
    feature_dir.mkdir()
    for idx in range(4):
        values = rng.normal(loc=2.0, scale=2.5, size=(8, 16, 4)).astype(np.float32)
        valid = rng.random((8, 16)) > 0.15
        write_feature_map(FeatureMap(values, valid), feature_dir / f"{idx}.fmap")
    outputs = {}
    for jobs in ("1", "8"):
        out = tmp_path / f"jobs{jobs}"
        code = main(
            [
                "score",
                "--feature-dir", str(feature_dir),
                "--model-path", str(model_path),
                "--bank-path", str(bank_path),
                "--feature-dim", "4",
                "--classes", "3",
                "--out", str(out),
                "--jobs", jobs,
            ]
        )
        assert code == EXIT_OK
        outputs[jobs] = {
            p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()
        }
    score_identical = outputs["1"] == outputs["8"]
    report(
        9,
        "end-to-end determinism (synth reruns, score worker counts)",
        reports_identical and score_identical,
    )
