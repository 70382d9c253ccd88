import dataclasses
import math
import os
import signal
import sys
import threading
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.special import logsumexp

from gmmood import _blas
from gmmood import ensemble as ens
from gmmood import gmm as gmm_mod
from gmmood.ensemble import (
    VoteRecord,
    decompose_uncertainty,
    score_feature_map,
    score_samples,
    vote,
    vote_entropy,
)
from gmmood.errors import ShapeError
from gmmood.formats import FeatureMap
from gmmood.gmm import (
    GMMClassifier,
    class_log_densities,
    class_posterior,
    em_fit,
    fit_classifier,
    save_classifier,
)
from gmmood.nig import (
    DEFAULT_PRIOR,
    NIGParams,
    build_bank,
    sample_ensemble,
    save_bank,
)
from oracles import assert_same_bytes
from pooled import assert_pooled, blas_threads, record_items

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from reference import PixelReference  # noqa: E402


def member(means, variances=None, weights=None):
    """Two-class, D=1, K=1 drawn member from per-class scalar means."""
    c = len(means)
    means = np.asarray(means, float).reshape(c, 1, 1)
    if variances is None:
        variances = np.ones_like(means)
    else:
        variances = np.asarray(variances, float).reshape(c, 1, 1)
    if weights is None:
        weights = np.ones((c, 1))
    return GMMClassifier(weights, means, variances)


def fitted_setup(seed=0, n_classes=3, d=2, n=200, k=2):
    rng = np.random.default_rng(seed)
    classes, stats = [], []
    for ci in range(n_classes):
        x = rng.normal(loc=3.0 * ci, scale=0.7, size=(n, d))
        gmm, st = em_fit(x, k, seed=ci, class_id=ci)
        classes.append(gmm)
        stats.append(st)
    model = GMMClassifier.of(classes)
    bank = build_bank(model, stats, DEFAULT_PRIOR)
    return model, sample_ensemble(bank, 8, rng_seed=seed)


class TestVote:
    def test_identical_members_are_unanimous(self):
        members = [member([0.0, 4.0]) for _ in range(20)]
        record = vote(np.array([0.5]), members)
        assert record.counts.tolist() == [20, 0]

    def test_singleton_ensemble(self):
        record = vote(np.array([3.8]), [member([0.0, 4.0])])
        assert record.n == 1
        assert record.counts.tolist() == [0, 1]

    def test_tallies_match_member_reclassification(self):
        model, members = fitted_setup(seed=3)
        rng = np.random.default_rng(4)
        for _ in range(10):
            z = rng.normal(loc=1.5, scale=2.0, size=2)
            record = vote(z, members)
            recount = np.zeros(model.num_classes, dtype=int)
            for m in members:
                recount[int(np.argmax(class_log_densities(z, m)))] += 1
            assert record.counts.tolist() == recount.tolist()

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            vote(np.zeros(3), [member([0.0, 4.0])])

    @pytest.mark.parametrize("call", [vote, decompose_uncertainty])
    def test_rows_are_refused(self, call):
        """The per-pixel calls take one feature vector, not (N, D) rows."""
        message = rf"^{call.__name__}\(\) takes a single feature vector$"
        with pytest.raises(ShapeError, match=message):
            call(np.zeros((2, 1)), [member([0.0, 4.0])])

    def test_empty_ensemble_is_refused(self):
        model, _ = fitted_setup(seed=3)
        with pytest.raises(ValueError, match="^ensemble must be non-empty$"):
            vote(np.zeros(2), [])
        with pytest.raises(ValueError, match="^ensemble must be non-empty$"):
            score_samples(np.zeros((4, 2)), model, [])

    def test_identical_classes_vote_for_the_lower_id(self):
        """Classes 0 and 1 share their parameters in the point model and
        in every member, so every vote goes to class 0 in the batched and
        the single-vector paths, and so does the predicted class."""
        rng = np.random.default_rng(18)
        members = [member([m, m, 6.0]) for m in rng.normal(0.0, 0.5, size=9)]
        model = GMMClassifier(np.ones((3, 1)), [[[0.0]], [[0.0]], [[6.0]]], np.ones((3, 1, 1)))
        z = rng.uniform(-1.0, 1.0, size=(40, 1))
        scores = score_samples(z, model, members)
        assert (scores.predicted_class == 0).all()
        assert (scores.epistemic == 0.0).all() and not np.signbit(scores.epistemic).any()
        for row in z:
            assert vote(row, members).counts.tolist() == [len(members), 0, 0]


class TestVoteEntropy:
    def test_unanimous_is_zero(self):
        h = vote_entropy(VoteRecord([20, 0, 0]))
        assert h == 0.0 and math.copysign(1.0, h) == 1.0  # +0.0, not -0.0

    def test_record_needs_one_row_of_votes(self):
        with pytest.raises(ShapeError, match=r"^counts must be 1-d, got shape \(1, 3\)$"):
            VoteRecord([[20, 0, 0]])
        with pytest.raises(ValueError, match="at least one vote"):
            VoteRecord([0, 0, 0])

    def test_uniform_twenty_classes(self):
        record = VoteRecord(np.ones(20, dtype=int))
        assert vote_entropy(record) == pytest.approx(2.995732273553991, abs=1e-6)

    def test_fifteen_five(self):
        assert vote_entropy(VoteRecord([15, 5])) == pytest.approx(
            0.5623351446188083, abs=1e-6
        )

    @pytest.mark.parametrize("m, rows", [(1, 1), (2, 2), (3, 3), (20, 626)])
    def test_table_gives_the_entropy_of_vote_shares(self, m, rows):
        """``score_samples`` reads each row's vote entropy from
        ``_vote_table``: for every partition of m votes into at most C = 19
        classes, in shuffled class order, the table's sum is the bytes of
        ``_entropy_rows(counts / m)``, and the one unanimous row reads +0.0."""
        c = 19
        rng = np.random.default_rng(m)

        def partitions(rest, largest, classes):
            if rest == 0:
                yield ()
            elif classes:
                for first in range(min(rest, largest), 0, -1):
                    for tail in partitions(rest - first, first, classes - 1):
                        yield (first, *tail)

        parts = list(partitions(m, m, c))
        assert len(parts) == rows
        counts = np.zeros((rows, c), np.int64)
        for row, part in zip(counts, parts):
            row[rng.permutation(c)[: len(part)]] = part
        got = 0.0 - ens._vote_table(m)[counts].sum(axis=1)
        assert_same_bytes(got, ens._entropy_rows(counts / m))
        unanimous = counts.max(axis=1) == m
        assert unanimous.sum() == 1 and got[unanimous].tobytes() == np.zeros(1).tobytes()

    def test_scores_take_the_entropy_of_each_rows_votes(self):
        """Through ``score_samples``: each row's epistemic score is the
        bytes of ``_entropy_rows`` of its ``vote`` shares."""
        model, members = fitted_setup(seed=6)
        z = np.random.default_rng(7).normal(3.0, 3.0, (300, 2))
        counts = np.array([vote(row, members).counts for row in z])
        assert (counts.max(axis=1) < len(members)).any()
        got = score_samples(z, model, members).epistemic
        assert_same_bytes(got, ens._entropy_rows(counts / len(members)))

    def test_bounds(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            c = rng.integers(2, 12)
            counts = rng.integers(0, 30, size=c)
            if counts.sum() == 0:
                counts[0] = 1
            h = vote_entropy(VoteRecord(counts))
            assert -1e-12 <= h <= math.log(c) + 1e-12


class TestDecompose:
    def test_singleton_has_zero_mi(self):
        got = decompose_uncertainty(np.array([1.0]), [member([0.0, 4.0])])
        assert got.mutual_information == 0.0
        assert got.predictive_entropy == pytest.approx(got.aleatoric, abs=1e-12)

    def test_identical_members_have_zero_mi(self):
        members = [member([0.0, 2.0]) for _ in range(6)]
        got = decompose_uncertainty(np.array([0.8]), members)
        assert got.mutual_information == pytest.approx(0.0, abs=1e-12)
        post = np.exp(-0.5 * np.array([(0.8 - 0.0) ** 2, (0.8 - 2.0) ** 2]))
        post /= post.sum()
        expect = -(post * np.log(post)).sum()
        assert got.predictive_entropy == pytest.approx(expect, rel=1e-10)

    def test_three_member_hand_case(self):
        # members with posteriors (0.9, 0.1), (0.5, 0.5), (0.1, 0.9) at z = 0:
        # equal unit variances so the log-density gap is t^2/2 = ln 9
        t = math.sqrt(2.0 * math.log(9.0))
        members = [member([0.0, t]), member([0.3, 0.3]), member([t, 0.0])]
        got = decompose_uncertainty(np.array([0.0]), members)
        assert got.predictive_entropy == pytest.approx(math.log(2.0), abs=1e-9)
        h_soft = -(0.9 * math.log(0.9) + 0.1 * math.log(0.1))
        aleatoric = (2.0 * h_soft + math.log(2.0)) / 3.0
        assert got.aleatoric == pytest.approx(aleatoric, abs=1e-9)
        assert got.mutual_information == pytest.approx(0.24537613811233137, abs=1e-9)

    def test_mi_bounds(self):
        model, members = fitted_setup(seed=6)
        rng = np.random.default_rng(7)
        for _ in range(50):
            z = rng.normal(scale=4.0, size=2)
            got = decompose_uncertainty(z, members)
            assert got.mutual_information >= 0.0
            assert got.mutual_information <= got.predictive_entropy + 1e-12
            assert got.predictive_entropy <= math.log(model.num_classes) + 1e-9
            assert got.aleatoric <= math.log(model.num_classes) + 1e-9


class TestInvariances:
    def test_member_order_does_not_matter(self):
        model, members = fitted_setup(seed=8)
        rng = np.random.default_rng(9)
        z = rng.normal(size=(30, 2))
        forward = score_samples(z, model, members)
        backward = score_samples(z, model, members[::-1])
        # votes are integers, so predictions and epistemic scores are exact;
        # the float accumulators only move at machine precision
        np.testing.assert_array_equal(forward.predicted_class, backward.predicted_class)
        for row in z:
            np.testing.assert_array_equal(vote(row, members).counts, vote(row, members[::-1]).counts)
        np.testing.assert_array_equal(forward.epistemic, backward.epistemic)
        np.testing.assert_allclose(
            forward.predictive_entropy, backward.predictive_entropy,
            rtol=1e-9, atol=1e-12,
        )
        np.testing.assert_allclose(
            forward.aleatoric, backward.aleatoric, rtol=1e-9, atol=1e-12
        )

    def test_common_density_scaling_is_invisible(self):
        # an extra feature dimension shared by every class multiplies all
        # class densities at a point by the same constant
        rng = np.random.default_rng(10)
        base = [member([0.0, 3.0]), member([0.5, 2.5]), member([1.0, 2.0])]
        extended = []
        for m in base:
            extended.append(
                GMMClassifier(
                    m.weights,
                    np.concatenate([m.means, np.full((2, 1, 1), 0.7)], axis=2),
                    np.concatenate([m.variances, np.full((2, 1, 1), 2.0)], axis=2),
                )
            )
        for zv in rng.normal(scale=2.0, size=5):
            z = np.array([zv])
            z_ext = np.array([zv, 1.3])
            rec_a, rec_b = vote(z, base), vote(z_ext, extended)
            assert rec_a.counts.tolist() == rec_b.counts.tolist()
            dec_a = decompose_uncertainty(z, base)
            dec_b = decompose_uncertainty(z_ext, extended)
            assert dec_a.predictive_entropy == pytest.approx(
                dec_b.predictive_entropy, rel=1e-10
            )
            assert dec_a.aleatoric == pytest.approx(dec_b.aleatoric, rel=1e-10)


class TestScoreFeatureMap:
    def test_all_invalid_map(self):
        model, members = fitted_setup(seed=11)
        fmap = FeatureMap(np.zeros((3, 4, 2), np.float32), np.zeros((3, 4), bool))
        umap = score_feature_map(fmap, model, members)
        assert not umap.valid.any()
        assert np.all(umap.predicted_class == -1)
        assert np.all(np.isnan(umap.epistemic))

    def test_single_pixel_composition(self):
        model, members = fitted_setup(seed=12)
        z = np.array([0.4, 1.1], np.float32)
        fmap = FeatureMap(z.reshape(1, 1, 2), np.ones((1, 1), bool))
        umap = score_feature_map(fmap, model, members)
        record = vote(z.astype(float), members)
        dec = decompose_uncertainty(z.astype(float), members)
        assert umap.predicted_class[0, 0] == np.argmax(record.counts)
        assert umap.epistemic[0, 0] == pytest.approx(vote_entropy(record), rel=1e-12)
        assert umap.predictive_entropy[0, 0] == pytest.approx(dec.predictive_entropy, rel=1e-12)
        assert umap.aleatoric[0, 0] == pytest.approx(dec.aleatoric, rel=1e-12)
        post = class_posterior(z.astype(float), model)
        assert umap.max_posterior[0, 0] == pytest.approx(post.max(), rel=1e-12)

    def test_grid_matches_per_pixel_ops(self):
        model, members = fitted_setup(seed=13)
        rng = np.random.default_rng(14)
        values = rng.normal(loc=2.0, scale=2.5, size=(8, 8, 2)).astype(np.float32)
        valid = rng.random((8, 8)) > 0.2
        umap = score_feature_map(FeatureMap(values, valid), model, members)
        for r in range(8):
            for c in range(8):
                if not valid[r, c]:
                    assert umap.predicted_class[r, c] == -1
                    continue
                z = values[r, c].astype(float)
                record = vote(z, members)
                dec = decompose_uncertainty(z, members)
                assert umap.predicted_class[r, c] == np.argmax(record.counts)
                assert umap.epistemic[r, c] == pytest.approx(
                    vote_entropy(record), rel=1e-10
                )
                assert umap.mutual_information[r, c] == pytest.approx(
                    dec.mutual_information, rel=1e-10, abs=1e-12
                )

    def test_dimension_mismatch(self):
        model, members = fitted_setup(seed=15)
        fmap = FeatureMap(np.zeros((2, 2, 5), np.float32), np.ones((2, 2), bool))
        with pytest.raises(ShapeError, match=r"dimension 2, got shape \(4, 5\)"):
            score_feature_map(fmap, model, members)

    def test_dimension_mismatch_without_valid_pixels(self):
        """The kernel's check also runs on the one empty block of a map
        with no valid pixel, so such a map is refused, not scored as
        empty."""
        model, members = fitted_setup(seed=15)
        fmap = FeatureMap(np.zeros((2, 2, 5), np.float32), np.zeros((2, 2), bool))
        with pytest.raises(ShapeError, match=r"dimension 2, got shape \(0, 5\)"):
            score_feature_map(fmap, model, members)

    def test_rows_of_another_dimension_raise_shape_error(self):
        """Rows one feature too wide are refused before the matrix product,
        by the batched and the single-vector paths alike."""
        model, members = fitted_setup(seed=15, d=2)
        with pytest.raises(ShapeError):
            score_samples(np.zeros((4, 3)), model, members)
        with pytest.raises(ShapeError):
            decompose_uncertainty(np.zeros(3), members)

    def test_majority_matches_mode_of_votes(self):
        model, members = fitted_setup(seed=16)
        rng = np.random.default_rng(17)
        z = rng.normal(loc=3.0, scale=3.0, size=(40, 2))
        scores = score_samples(z, model, members)
        for i in range(z.shape[0]):
            assert scores.predicted_class[i] == np.argmax(vote(z[i], members).counts)


# ---------------------------------------------------------------------------
# the stacked kernel against perfbench's PixelReference and the density loop


def loop_log_weights(weights):
    with np.errstate(divide="ignore"):
        return np.where(weights > 0, np.log(np.maximum(weights, 1e-300)), -np.inf)


def loop_component_log_densities(z, means, variances):
    """(N, K) diagonal-Gaussian log densities, one component at a time."""
    out = np.empty((z.shape[0], means.shape[0]))
    log_norm = np.sum(np.log(variances), axis=1) + means.shape[1] * math.log(2.0 * math.pi)
    for m in range(means.shape[0]):
        diff = z - means[m]
        out[:, m] = -0.5 * (np.sum(diff * diff / variances[m], axis=1) + log_norm[m])
    return out


def loop_class_log_densities(z, params):
    log_w = loop_log_weights(params.weights)
    out = np.empty((z.shape[0], log_w.shape[0]))
    for c in range(log_w.shape[0]):
        joint = loop_component_log_densities(z, params.means[c], params.variances[c])
        out[:, c] = logsumexp(joint + log_w[c], axis=1)
    return out


# The GEMM kernel rounds differently from the references; its error is a few
# hundred eps at worst on these cases (the centred expansion keeps it there
# even far from the origin), so the bound is fixed at 2**10 eps.
REL_TOL = 2.0**10 * np.finfo(np.float64).eps


def assert_close(got, want):
    """Same dtype and shape, and within REL_TOL * max(1, |want|)."""
    assert got.dtype == want.dtype and got.shape == want.shape
    finite = np.isfinite(want)
    assert np.array_equal(np.isfinite(got), finite) and np.array_equal(got[~finite], want[~finite])
    err = np.abs(got[finite] - want[finite]) / np.maximum(1.0, np.abs(want[finite]))
    assert err.max(initial=0.0) <= REL_TOL, f"{err.max() / np.finfo(np.float64).eps:.0f} eps"


N_MEMBERS = 12


def top_two(ld):
    """The largest of each row of class log densities and its gap to the
    second largest."""
    ordered = np.sort(ld, axis=1)
    return ordered[:, -1], ordered[:, -1] - ordered[:, -2]


def far_near_tie_rows(model, rng, rays=64, reach=2000):
    """Rows where the point model's best class log density is below -1e4
    and its top two classes are 5 to 30 nats apart: on random rays from
    the class 0/1 midpoint, the per-component loop bisects the top-two
    gap to 15 between unit steps that cross it."""
    d = model.means.shape[2]
    start = 0.5 * np.einsum("ck,ckd->cd", model.weights[:2], model.means[:2]).sum(axis=0)
    v = rng.normal(size=(rays, d))
    v /= np.linalg.norm(v, axis=1, keepdims=True)

    def excess_gap(t, ray):
        return top_two(loop_class_log_densities(start + t[:, None] * v[ray], model))[1] - 15.0

    t = np.tile(np.arange(float(reach)), rays)
    ray = np.repeat(np.arange(rays), reach)
    g = excess_gap(t, ray).reshape(rays, reach)
    ray, i = np.nonzero(np.signbit(g[:, :-1]) != np.signbit(g[:, 1:]))
    lo, hi, g_lo = i.astype(float), i + 1.0, g[ray, i]
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        g_mid = excess_gap(mid, ray)
        same = np.signbit(g_mid) == np.signbit(g_lo)
        lo, hi, g_lo = np.where(same, mid, lo), np.where(same, hi, mid), np.where(same, g_mid, g_lo)
    rows = start + lo[:, None] * v[ray]
    top, gap = top_two(loop_class_log_densities(rows, model))
    return rows[(top <= -1e4) & (gap >= 5.0) & (gap <= 30.0)]


KERNEL_CASES = {"D1": (1, 0.0), "D5": (5, 0.0), "D32": (32, 0.0), "D32+1e4": (32, 1e4)}


def make_kernel_case(d, shift, block_values):
    """Three classes, an ensemble, the step of ``block_values``-value
    blocks, 2 * step + 1 rows cycling through far-OOD (every member
    certain), near-center, between-center (members split), random, and
    far near-tie rows (see ``far_near_tie_rows``), then the bank and seed
    the ensemble was drawn from; with ``shift`` the case is translated,
    data, prior and rows alike."""
    rng = np.random.default_rng(d)
    per_class = [rng.normal(10.0 * c, 1.0, size=(80, d)) + shift for c in range(3)]
    model, stats = fit_classifier(per_class, 2, seed=d)
    # a vague prior on the mean keeps member sigmas near the data's 1.0
    prior = NIGParams(mu=shift, kappa=1e-6, alpha=2.0, beta=1.0)
    bank = build_bank(model, stats, prior)
    members = sample_ensemble(bank, N_MEMBERS, rng_seed=d)
    step = max(1, block_values // ((N_MEMBERS + 1) * model.weights.size))
    n = 2 * step + 1
    cls = rng.integers(3, size=(n, 1))
    centers = np.mean([m.means.mean(axis=1) for m in members], axis=0) - shift  # (C, D)
    candidates = [
        rng.choice([-1.0, 1.0], size=(n, d)) * rng.uniform(1e4, 1e5, size=(n, d)),
        10.0 * cls + rng.normal(0.0, 0.1, size=(n, d)),
        0.5 * (centers[cls % 2] + centers[cls % 2 + 1])[:, 0] + rng.normal(0.0, 0.01, (n, d)),
        rng.uniform(-5.0, 25.0, size=(n, d)),
    ]
    candidates.append(np.resize(far_near_tie_rows(model, rng) - shift, (n, d)))
    kind = np.arange(n) % len(candidates)
    rows = np.choose(kind[:, None], candidates) + shift
    return model, members, step, rows, bank, d


@pytest.fixture(scope="module", params=KERNEL_CASES.values(), ids=KERNEL_CASES.keys())
def kernel_case(request):
    """``make_kernel_case`` at the scoring block's step."""
    return make_kernel_case(*request.param, ens._BLOCK_VALUES)


def pixel_reference(case, folder):
    """Each row of a ``make_kernel_case`` case scored alone by
    ``PixelReference`` from the model and bank written to ``folder``: the
    ``SampleScores`` fields, the members' vote counts and the point
    model's class log densities.  The members it redraws from the bank
    file are the case's byte for byte, and no row is a near-tie, so votes
    and predicted classes compare exactly."""
    model, members, _, rows, bank, seed = case
    save_classifier(model, folder / "model.gmmc")
    save_bank(bank, folder / "bank.nigb")
    ref = PixelReference(folder / "model.gmmc", folder / "bank.nigb", len(members), seed)
    assert_same_bytes(ref.means, np.stack([model.means] + [m.means for m in members]))
    assert_same_bytes(ref.variances, np.stack([model.variances] + [m.variances for m in members]))
    scores = [ref.score(row) for row in rows]
    assert not any(s["tie"] for s in scores)
    want = {name: np.array([s[name] for s in scores]) for name in ens.SCORE_CHANNELS}
    want["predicted_class"] = np.array([s["predicted_class"] for s in scores], np.intp)
    log_densities = np.stack([ref.class_log_densities(row) for row in rows])
    want["vote_counts"] = np.stack(
        [np.bincount(ld[1:].argmax(axis=1), minlength=model.num_classes) for ld in log_densities]
    )
    want["point_log_densities"] = log_densities[:, 0]
    return want


@pytest.fixture(scope="module")
def reference_scores(kernel_case, tmp_path_factory):
    """``pixel_reference`` of the case; each row is scored alone, so the
    first n rows' scores are the first n of each array."""
    return pixel_reference(kernel_case, tmp_path_factory.mktemp("kernel_case"))


N_ROWS = pytest.mark.parametrize(
    "n_rows",
    [
        lambda step: 0,
        lambda step: 1,
        lambda step: step - 1,
        lambda step: step,
        lambda step: step + 1,
        lambda step: 2 * step + 1,
    ],
    ids=["0", "1", "step-1", "step", "step+1", "2step+1"],
)


SCORE_FIELDS = tuple(f.name for f in dataclasses.fields(ens.SampleScores))
INT_FIELDS = tuple(name for name in SCORE_FIELDS if name not in ens.SCORE_CHANNELS)


@N_ROWS
def test_score_samples_match_loop_reference(kernel_case, reference_scores, n_rows):
    """Every float field within the tolerance fixed above."""
    model, members, step, rows, *_ = kernel_case
    n = n_rows(step)
    got = score_samples(rows[:n], model, members)
    for name in ens.SCORE_CHANNELS:
        assert_close(getattr(got, name), reference_scores[name][:n])


@N_ROWS
def test_score_samples_bytes_match_loop_reference(kernel_case, reference_scores, n_rows):
    """Predicted classes, and each row's votes by ``vote``, survive the
    kernel's rounding bit for bit."""
    model, members, step, rows, *_ = kernel_case
    n = n_rows(step)
    got = score_samples(rows[:n], model, members)
    for name in INT_FIELDS:
        assert_same_bytes(getattr(got, name), reference_scores[name][:n])
    want = reference_scores["vote_counts"][:n]
    counts = np.array([vote(row, members).counts for row in rows[:n]], dtype=np.int64)
    assert_same_bytes(counts.reshape(want.shape), want)


def test_per_pixel_apis_agree_with_the_batched_rows(kernel_case):
    """``vote``, ``vote_entropy`` and ``decompose_uncertainty`` on one
    row against that row of ``score_samples``, on every 8th row of the
    case (every kind of row): the vote entropy and the vote's argmax are
    its ``epistemic`` and ``predicted_class`` exactly, the decomposition
    within ``REL_TOL``.  Bitwise equality is not asked of the
    decomposition: the one-row stack has no point model, so its centre
    differs, and a GEMM column's bits depend on the block it falls in
    (931 eps at worst over all 6721 rows of the four cases, D32's mutual
    information; over half of the rows differ in some bit)."""
    model, members, step, rows, *_ = kernel_case
    rows = rows[::8]
    got = score_samples(rows, model, members)
    records = [vote(row, members) for row in rows]
    assert_same_bytes(np.array([vote_entropy(r) for r in records]), got.epistemic)
    assert_same_bytes(np.array([np.argmax(r.counts) for r in records]), got.predicted_class)
    one = [decompose_uncertainty(row, members) for row in rows]
    for field in dataclasses.fields(ens.UncertaintyDecomposition):
        assert_close(np.array([getattr(u, field.name) for u in one]), getattr(got, field.name))


def test_reference_rows_reach_certain_split_and_far_ood_cases(kernel_case, reference_scores):
    """The pool holds pixels where every member is certain (aleatoric
    exactly +0.0), pixels where the members split, pixels over 1e3
    member standard deviations from every class, and pixels where the
    point model's best class log density is below -1e4 with its top two
    classes 5 to 30 nats apart."""
    model, members, step, rows, *_ = kernel_case
    certain = reference_scores["aleatoric"] == 0.0
    assert certain[0] and not np.signbit(reference_scores["aleatoric"][certain]).any()
    assert (reference_scores["epistemic"] > 0).any()
    sigma = max(np.sqrt(m.variances).max() for m in members)
    dist = np.abs(rows[:, None, :] - model.means.reshape(-1, rows.shape[1])).min(axis=(1, 2))
    assert (dist >= 1e3 * sigma).any()
    top, gap = top_two(reference_scores["point_log_densities"])
    assert ((top <= -1e4) & (gap >= 5.0) & (gap <= 30.0)).any()


def test_float32_rows_score_as_their_float64_widening(kernel_case):
    """Callers pass float32 rows as they are and the kernel widens them:
    every output equals, by dtype, shape and bytes, that of the same rows
    widened to float64 first, on every kind of ``kernel_case`` row (far
    OOD and the case translated by 1e4 included) and over several
    blocks."""
    model, members, step, rows, *_ = kernel_case
    narrow = rows.astype(np.float32)
    wide = narrow.astype(np.float64)
    got, want = score_samples(narrow, model, members), score_samples(wide, model, members)
    for field in dataclasses.fields(ens.SampleScores):
        assert_same_bytes(getattr(got, field.name), getattr(want, field.name))
    for params in (model, members[0]):
        assert_same_bytes(class_log_densities(narrow, params), class_log_densities(wide, params))
    for z32, z64 in zip(narrow[:10], wide[:10]):  # each kind of row twice
        assert_same_bytes(vote(z32, members).counts, vote(z64, members).counts)
        assert_same_bytes(
            np.array(dataclasses.astuple(decompose_uncertainty(z32, members))),
            np.array(dataclasses.astuple(decompose_uncertainty(z64, members))),
        )


def test_max_posterior_is_the_point_models_largest_posterior_bytes(kernel_case):
    """The point model's maximum posterior, its class maximum over its
    total, equals the largest of its posteriors s / sum_c s byte for byte
    on every kind of ``kernel_case`` row (far rows, near ties, the case
    translated by 1e4), with s the class sums of the whole stack taken
    over the same blocks of rows as scoring takes them."""
    model, members, step, rows, *_ = kernel_case
    coefficients = ens._stack(members, model)
    want = []
    for i in range(0, len(rows), step):
        s = gmm_mod._class_sums(gmm_mod._joint_log_densities(rows[i : i + step], coefficients))
        want.append((s[0] / s[0].sum(axis=0)).max(axis=0))
    assert_same_bytes(score_samples(rows, model, members).max_posterior, np.concatenate(want))


@pytest.mark.parametrize("point_model", [True, False], ids=["point model", "members only"])
def test_reduction_hands_back_each_field_by_name(point_model):
    """``_reduce_members`` gives every ``SampleScores`` field of its rows
    and the members' (N, C) vote counts by name; without the point model,
    all but its entropy and maximum posterior."""
    model, members = fitted_setup()
    z = np.random.default_rng(1).normal(size=(7, 2))
    coefficients = ens._stack(members, model) if point_model else ens._stack(members)
    joint = gmm_mod._joint_log_densities(z, coefficients)
    scores = ens._reduce_members(joint, point_model)
    want = {*SCORE_FIELDS, "counts"}
    if not point_model:
        want -= {"deterministic_entropy", "max_posterior"}
    assert set(scores) == want
    assert scores["counts"].shape == (7, model.num_classes)
    assert (scores["counts"].sum(axis=1) == len(members)).all()
    assert all(scores[name].shape == (7,) for name in want - {"counts"})


@pytest.mark.parametrize("d, shift", KERNEL_CASES.values(), ids=KERNEL_CASES.keys())
def test_rows_drawn_at_the_former_block_step_match_loop_reference(d, shift, tmp_path):
    """``kernel_case`` draws its rows at the block's step, so its far
    near-tie rows change with ``_BLOCK_VALUES``.  The 3361 rows it drew
    at 2**17-value blocks stay checked against ``pixel_reference``,
    scored at ``_BLOCK_VALUES``: every float field within the same
    tolerance, the integer ones bit for bit."""
    case = make_kernel_case(d, shift, 1 << 17)
    model, members, _, rows, *_ = case
    assert len(rows) == 3361
    got = score_samples(rows, model, members)
    want = pixel_reference(case, tmp_path)
    for name in ens.SCORE_CHANNELS:
        assert_close(getattr(got, name), want[name])
    for name in INT_FIELDS:
        assert_same_bytes(getattr(got, name), want[name])


def test_scoring_memory_per_pixel_is_bounded(monkeypatch):
    """Marginal traced peak of ``score_feature_map`` per extra pixel at
    the paper's shape (C = 19, K = 2, M = 20, D = 32), blocks serial so
    the peak is deterministic.  It reads 184 B: the float32 rows (128)
    and the fields the blocks write into (56: the predicted class 8 and
    six float64 score channels 48); the grids come after the rows go.  At
    260 it fails if the scan-wide (N, C) vote histogram (152 more), a
    float64 copy of the rows (256) or a scan-wide vote pass (counts / M
    and the log array, 304) comes back; before them it read 1189."""
    monkeypatch.setattr(_blas, "_found", [])
    c, k, m, d = 19, 2, 20, 32
    rng = np.random.default_rng(21)
    means = rng.normal(0.0, 5.0, (c, k, d))
    variances = rng.uniform(0.5, 2.0, (c, k, d))
    weights = np.full((c, k), 1.0 / k)
    model = GMMClassifier(weights, means, variances)
    members = [
        GMMClassifier(weights, means + rng.normal(0.0, 0.1, means.shape), variances)
        for _ in range(m)
    ]

    def traced_peak(width):
        fmap = FeatureMap(
            rng.normal(0.0, 5.0, (32, width, d)).astype(np.float32), np.ones((32, width), bool)
        )
        score_feature_map(fmap, model, members)  # warm-up
        tracemalloc.start()
        try:
            score_feature_map(fmap, model, members)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = traced_peak(256), traced_peak(1024)
    per_pixel = (large - small) / (32 * 768)
    assert per_pixel < 260, f"{per_pixel:.0f} B per extra pixel"


def em_case(d, n):
    """Three components (one of zero weight) and n near rows, then the same
    with n far-OOD rows appended: far rows dominate every sum they enter."""
    rng = np.random.default_rng(100 * n + d)
    near = rng.normal(0.0, 3.0, (n, d))
    means = rng.normal(0.0, 2.0, (3, d))
    variances = rng.uniform(0.5, 2.0, (3, d))
    log_w = loop_log_weights(np.array([0.5, 0.5, 0.0]))
    far = np.concatenate([near, rng.normal(1e3, 1.0, (n, d))])
    return log_w, means, variances, (near, far)


def loop_e_step(x, log_w, means, variances):
    joint = loop_component_log_densities(x, means, variances) + log_w
    log_p = logsumexp(joint, axis=1)
    return np.exp(joint - log_p[:, None]), log_p


def operand_about_mixture(x, means):
    """The (2D + 1, N) operand of rows ``x`` about the mean of the
    component means, as the scoring kernel builds it, and that centre."""
    d = x.shape[1]
    center = means.mean(axis=0)
    operand = np.empty((2 * d + 1, len(x)))
    operand[d : 2 * d] = x.T - center[:, None]
    gmm_mod._fill_operand(operand)
    return operand, center


@pytest.mark.parametrize("n", [1, 9, 300])
@pytest.mark.parametrize("d", [1, 5, 32])
def test_em_helpers_match_loop_reference(d, n):
    """``_e_step`` against the per-component loop on a fit's operand,
    also with the mixture and the rows translated by 1e4.  With far rows
    appended, whose mean (a fit's centre) sits 500 from every component,
    it runs on an operand about the mixture's centre."""
    log_w, means, variances, (near, far) = em_case(d, n)
    for x, mu, operand in [
        (near, means, gmm_mod._operand(near)[:2]),
        (near + 1e4, means + 1e4, gmm_mod._operand(near + 1e4)[:2]),
        (far, means, operand_about_mixture(far, means)),
    ]:
        resp, log_p = gmm_mod._e_step(*operand, log_w, mu, variances)
        want_resp, want_log_p = loop_e_step(x, log_w, mu, variances)
        assert_close(log_p, want_log_p)
        assert_close(resp, want_resp)


@pytest.mark.parametrize("d", [1, 5, 32])
def test_zero_weight_component_raises_no_floating_point_error(d):
    """A zero-weight component's log weight is -inf and stays out of the
    matrix product, so scoring and the E-step take no invalid operation,
    far-OOD rows included."""
    model, members = fitted_setup(seed=19, d=d)
    one_hot = np.tile([1.0, 0.0], (model.num_classes, 1))
    model = GMMClassifier(one_hot, model.means, model.variances)
    members = [GMMClassifier(one_hot, m.means, m.variances) for m in members]
    rng = np.random.default_rng(20)
    # row counts off the multiples of 8 that BLAS kernels tile without padding
    z = np.concatenate([rng.normal(3.0, 3.0, (30, d)), rng.normal(0.0, 1e5, (9, d))])
    log_w, means, variances, (near, _) = em_case(d, 30)
    with np.errstate(all="raise", under="ignore"):
        scores = score_samples(z, model, members)
        resp, log_p = gmm_mod._e_step(*gmm_mod._operand(near)[:2], log_w, means, variances)
    for name in ens.SCORE_CHANNELS:
        assert np.isfinite(getattr(scores, name)).all()
    assert np.isfinite(log_p).all() and (resp[:, 2] == 0.0).all()


def test_rows_far_from_all_classes_but_one_stay_finite_and_certain():
    """Rows over 700 nats from every class but one under the point model
    and every member, near the classes and far from all of them: every
    other component density is floored at exp(-700), and with a
    zero-weight component in each mixture no floating-point flag is
    raised.  The nearest class takes every vote and the whole posterior,
    and each entropy is left at no more than a few floored terms."""
    rng = np.random.default_rng(21)
    centers = np.array([0.0, 1e3, 2e3])

    def mixture_params(shift):
        means = np.stack([centers + shift, centers + shift + 5.0], axis=1)[..., None]
        return np.tile([1.0, 0.0], (3, 1)), means, np.ones_like(means)

    model = GMMClassifier(*mixture_params(0.0))
    members = [GMMClassifier(*mixture_params(s)) for s in rng.normal(0.0, 0.5, 8)]
    near = centers[rng.integers(3, size=30)] + rng.uniform(-2.0, 2.0, 30)
    far = np.array([-1e4, -3e5, 1e4, 3e5])
    z = np.concatenate([near, far])[:, None]
    nearest = np.abs(z - centers).argmin(axis=1)
    with np.errstate(all="raise"):
        scores = score_samples(z, model, members)
    for name in ens.SCORE_CHANNELS:
        assert np.isfinite(getattr(scores, name)).all()
    assert (scores.max_posterior == 1.0).all()
    for name in ("predictive_entropy", "aleatoric", "deterministic_entropy"):
        value = getattr(scores, name)
        assert (value >= 0.0).all() and (value < 1e-300).all()
    want = np.zeros((len(z), 3), dtype=np.int64)
    want[np.arange(len(z)), nearest] = len(members)
    np.testing.assert_array_equal([vote(row, members).counts for row in z], want)
    np.testing.assert_array_equal(scores.predicted_class, nearest)
    assert (scores.epistemic == 0.0).all()


def summed_class_sums(joint):
    """``gmm._class_sums`` as one max over components and classes and one
    sum over components."""
    joint -= joint.max(axis=(0, -2), keepdims=True)
    np.maximum(joint, gmm_mod._EXP_FLOOR, out=joint)
    return np.exp(joint, out=joint).sum(axis=0)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_class_sums_fold_components_as_one_sum(k, monkeypatch):
    """``_class_sums`` folds the K component slabs in place; its class
    sums, and the scores and posteriors that read them, equal those of
    ``summed_class_sums`` byte for byte, with a zero-weight component
    (log weight -inf) beside K = 1 and rows far from every class.  The
    posteriors hold only their own (N, C) values, not the joint array."""
    rng = np.random.default_rng(30 + k)
    c, d = 4, 3
    weights = rng.dirichlet(np.ones(k), size=c)
    if k > 1:
        weights[1] = np.append(rng.dirichlet(np.ones(k - 1)), 0.0)
    means = rng.normal(0.0, 3.0, (c, k, d))
    variances = rng.uniform(0.5, 2.0, (c, k, d))
    model = GMMClassifier(weights, means, variances)
    members = [
        GMMClassifier(weights, means + rng.normal(0.0, 0.3, means.shape), variances)
        for _ in range(6)
    ]
    far = rng.choice([-1.0, 1.0], (13, d)) * rng.uniform(1e4, 1e5, (13, d))
    z = np.concatenate([rng.normal(0.0, 3.0, (37, d)), far])
    joint = gmm_mod._joint_log_densities(z, ens._stack(members, model))
    assert np.isneginf(joint).any() == (k > 1)
    assert_same_bytes(gmm_mod._class_sums(joint.copy()), summed_class_sums(joint.copy()))

    got_scores, got_post = score_samples(z, model, members), class_posterior(z, model)
    owner = got_post
    while owner.base is not None:
        owner = owner.base
    assert owner.nbytes == got_post.nbytes
    monkeypatch.setattr(gmm_mod, "_class_sums", summed_class_sums)
    monkeypatch.setattr(ens, "_class_sums", summed_class_sums)
    want_scores = score_samples(z, model, members)
    for name in SCORE_FIELDS:
        assert_same_bytes(getattr(got_scores, name), getattr(want_scores, name))
    assert_same_bytes(got_post, class_posterior(z, model))


# ---------------------------------------------------------------------------
# blocks shared by the calling thread and its helpers under the OpenBLAS hold

@pytest.fixture
def blas_at_two():
    """Every OpenBLAS found set to two threads, so that a count left at
    one shows, and reset afterwards; skips where none is found."""
    libraries = _blas._libraries()
    if not libraries:
        pytest.skip("no OpenBLAS found")
    before = blas_threads()
    for _, put in libraries:
        put(2)
    yield blas_threads()
    for (_, put), count in zip(libraries, before):
        put(count)


@pytest.mark.parametrize(
    "n_rows", [lambda step: 1, lambda step: 2 * step + 1, lambda step: 8 * step + 3],
    ids=["1", "2step+1", "8step+3"],
)
def test_pooled_scores_equal_serial_bit_for_bit(kernel_case, monkeypatch, n_rows):
    """The rows cycle through every kind of ``kernel_case``, far-OOD
    included; the serial path is the one taken when no OpenBLAS is found."""
    model, members, step, rows, *_ = kernel_case
    z = np.resize(rows, (n_rows(step), rows.shape[1]))
    pooled = score_samples(z, model, members)
    monkeypatch.setattr(_blas, "_found", [])
    serial = score_samples(z, model, members)
    for name in SCORE_FIELDS:
        assert_same_bytes(getattr(pooled, name), getattr(serial, name))


def test_blocks_run_on_the_pool_with_one_blas_thread(blas_at_two, monkeypatch):
    """The calling thread and the helpers share the blocks."""
    block_log = record_items(monkeypatch, ens, "_reduce_members")
    model, members = fitted_setup()
    step = ens._BLOCK_VALUES // ((len(members) + 1) * model.weights.size)
    score_samples(np.random.default_rng(0).normal(size=(5 * step, 2)), model, members)
    assert len(block_log) == 5
    assert_pooled(block_log)
    assert blas_threads() == blas_at_two


def test_overlapping_scans_share_the_pool_and_restore_blas_threads(blas_at_two):
    model, members = fitted_setup()
    step = ens._BLOCK_VALUES // ((len(members) + 1) * model.weights.size)
    z = np.random.default_rng(1).normal(1.5, 3.0, size=(20 * step, 2))
    want = score_samples(z, model, members)
    start = threading.Barrier(2, timeout=30)
    got = [None, None]

    def scan(i):
        start.wait()
        got[i] = score_samples(z, model, members)

    workers = [threading.Thread(target=scan, args=(i,)) for i in range(2)]
    for w in workers:
        w.start()
    for w in workers:
        w.join(timeout=60)
    assert not any(w.is_alive() for w in workers)
    for result in got:
        for name in SCORE_FIELDS:
            assert_same_bytes(getattr(result, name), getattr(want, name))
    assert blas_threads() == blas_at_two


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_scores_on_its_own_pool():
    """The parent's pool threads exist when it forks; a child that scores
    must not queue its blocks on that pool, whose threads it lacks."""
    model, members = fitted_setup()
    step = ens._BLOCK_VALUES // ((len(members) + 1) * model.weights.size)
    z = np.random.default_rng(2).normal(1.5, 3.0, size=(5 * step, 2))
    want = score_samples(z, model, members)
    with warnings.catch_warnings():  # newer Pythons warn on fork with threads
        warnings.simplefilter("ignore", DeprecationWarning)
        pid = os.fork()
    if pid == 0:
        code = 1
        try:
            got = score_samples(z, model, members)
            same = all(np.array_equal(getattr(got, f), getattr(want, f)) for f in SCORE_FIELDS)
            code = 0 if same else 2
        finally:
            os._exit(code)
    deadline = time.monotonic() + 60
    while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
        time.sleep(0.05)
    if done[0] == 0:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        pytest.fail("the forked child did not finish scoring within 60 s")
    assert os.waitstatus_to_exitcode(done[1]) == 0


def test_hold_counts_overlapping_holders(blas_at_two):
    """More holders than cores entering and leaving with a short switch
    interval: a lost update of the holder count would leave OpenBLAS at
    one thread, or restore it while a holder is still inside."""
    seen = set()
    lock = threading.Lock()

    def hold(rounds=300):
        for _ in range(rounds):
            with _blas.single_thread() as held:
                counts = blas_threads()
            with lock:
                seen.add((held, counts))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=hold) for _ in range(8)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert seen == {(True, (1,) * len(blas_at_two))}
    assert _blas._holders == 0 and blas_threads() == blas_at_two


# ---------------------------------------------------------------------------
# classes fitted by the same pool


def test_classes_fit_on_the_pool_with_one_blas_thread(blas_at_two, monkeypatch):
    """The calling thread and the helpers share the classes."""
    fit_log = record_items(monkeypatch, gmm_mod, "em_fit")
    rng = np.random.default_rng(30)
    fit_classifier([rng.normal(3.0 * c, 1.0, (n, 2)) for c, n in enumerate((120, 80, 150, 60))], 2)
    assert len(fit_log) == 4
    assert_pooled(fit_log)
    assert blas_threads() == blas_at_two
