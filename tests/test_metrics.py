import ast
import dataclasses
import itertools
import json
import math
from pathlib import Path

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gmmood
from gmmood import metrics as metrics_mod
from gmmood.errors import ShapeError, UndefinedMetricError
from gmmood.metrics import (
    EvalReport,
    ScoredPixels,
    auprc,
    auroc,
    average_precision,
    descending_order,
    fpr_at_tpr,
    miou,
    percentile_threshold,
)
from oracles import brute_force_auroc, exhaustive_fpr, rank_by_rank_auprc


class TestAuroc:
    def test_perfect_ranking(self):
        data = ScoredPixels([1.0, 2.0, 10.0, 11.0], [False, False, True, True])
        assert auroc(data) == 1.0

    def test_all_ties(self):
        data = ScoredPixels([3.0, 3.0, 3.0, 3.0], [False, True, False, True])
        assert auroc(data) == 0.5

    def test_three_of_four_pairs(self):
        data = ScoredPixels([0.1, 0.4, 0.35, 0.8], [False, False, True, True])
        assert auroc(data) == pytest.approx(0.75)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(5, 200))
            scores = np.round(rng.normal(size=n), 1)  # inject ties
            is_ood = rng.random(n) < 0.4
            if is_ood.all() or not is_ood.any():
                continue
            data = ScoredPixels(scores, is_ood)
            assert auroc(data) == pytest.approx(
                brute_force_auroc(scores, is_ood), abs=1e-9
            )

    def test_single_class_rejected(self):
        with pytest.raises(UndefinedMetricError):
            auroc(ScoredPixels([1.0, 2.0], [True, True]))

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(1)
        scores = rng.normal(size=100)
        is_ood = rng.random(100) < 0.3
        data = ScoredPixels(scores, is_ood)
        transformed = ScoredPixels(np.exp(3.0 * scores) + 7.0, is_ood)
        assert auroc(data) == pytest.approx(auroc(transformed), abs=1e-12)
        assert auprc(data) == pytest.approx(auprc(transformed), abs=1e-12)
        assert fpr_at_tpr(data) == pytest.approx(fpr_at_tpr(transformed), abs=1e-12)


class TestAuprc:
    def test_perfect_ranking(self):
        data = ScoredPixels([1.0, 2.0, 10.0, 11.0], [False, False, True, True])
        assert auprc(data) == 1.0

    def test_single_positive_ranked_last(self):
        n = 8
        scores = np.arange(n, dtype=float)
        is_ood = np.zeros(n, bool)
        is_ood[0] = True  # lowest score
        assert auprc(ScoredPixels(scores, is_ood)) == pytest.approx(1.0 / n)

    def test_alternating_hand_case(self):
        # descending-order flags (T, F, T, F) -> (1/1 + 2/3) / 2
        data = ScoredPixels([4.0, 3.0, 2.0, 1.0], [True, False, True, False])
        assert auprc(data) == pytest.approx((1.0 + 2.0 / 3.0) / 2.0)

    def test_matches_rank_by_rank(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            n = int(rng.integers(5, 200))
            scores = np.round(rng.normal(size=n), 1)
            is_ood = rng.random(n) < 0.3
            if is_ood.all() or not is_ood.any():
                continue
            data = ScoredPixels(scores, is_ood)
            value = auprc(data)
            assert value == pytest.approx(rank_by_rank_auprc(scores, is_ood), abs=1e-12)
            assert 0.0 < value <= 1.0

    def test_approaches_prevalence_on_random_scores(self):
        rng = np.random.default_rng(3)
        prevalence = 0.1
        values = []
        for _ in range(100):
            n = 10_000
            scores = rng.random(n)
            is_ood = rng.random(n) < prevalence
            values.append(auprc(ScoredPixels(scores, is_ood)))
        assert abs(np.mean(values) - prevalence) < 0.02


class TestFprAtTpr:
    def test_perfect_separation(self):
        data = ScoredPixels([1.0, 2.0, 10.0, 11.0], [False, False, True, True])
        assert fpr_at_tpr(data) == 0.0

    def test_identical_scores(self):
        data = ScoredPixels([5.0] * 10, [True] * 5 + [False] * 5)
        assert fpr_at_tpr(data) == 1.0

    def test_one_straggler_case(self):
        # 19 OOD above every ID, one OOD below every ID: 19/20 = 0.95
        # already satisfies the target, so no ID needs flagging
        scores = np.concatenate([np.arange(20, 39), [0.0], np.arange(1, 21) * 0.01 + 1])
        is_ood = np.array([True] * 20 + [False] * 20)
        data = ScoredPixels(scores, is_ood)
        assert fpr_at_tpr(data, 0.95) == 0.0
        assert fpr_at_tpr(data, 0.9) == 0.0
        # demanding every OOD forces the threshold below all ID scores
        assert fpr_at_tpr(data, 1.0) == 1.0

    @pytest.mark.parametrize("target", [0.0, 1.5])
    def test_target_outside_unit_interval_is_refused(self, target):
        data = ScoredPixels([1.0, 2.0], [False, True])
        with pytest.raises(ValueError, match=rf"^target_tpr must be in \(0, 1\], got {target}$"):
            fpr_at_tpr(data, target)

    def test_matches_exhaustive_enumeration(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            n = int(rng.integers(10, 150))
            scores = np.round(rng.normal(size=n), 1)
            is_ood = rng.random(n) < 0.4
            if is_ood.all() or not is_ood.any():
                continue
            data = ScoredPixels(scores, is_ood)
            for target in (0.5, 0.9, 0.95):
                assert fpr_at_tpr(data, target) == pytest.approx(
                    exhaustive_fpr(scores, is_ood, target), abs=1e-12
                )

    def test_non_increasing_in_lower_targets(self):
        rng = np.random.default_rng(5)
        scores = rng.normal(size=300)
        is_ood = rng.random(300) < 0.3
        data = ScoredPixels(scores, is_ood)
        targets = [0.99, 0.95, 0.9, 0.5, 0.1]
        values = [fpr_at_tpr(data, t) for t in targets]
        assert all(a >= b for a, b in zip(values, values[1:]))


def unique_rank_auroc(data):
    """Mann-Whitney AUROC from ``np.unique`` average ranks."""
    _, inverse, counts = np.unique(data.scores, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    ranks = (0.5 * (ends + ends - counts + 1))[inverse]
    n_ood, n_id = data.n_ood, data.n_id
    rank_sum = ranks[data.is_ood].sum()
    return float((rank_sum - n_ood * (n_ood + 1) / 2.0) / (n_ood * n_id))


def argsort_auprc(data):
    order = np.argsort(-data.scores, kind="stable")
    flags = data.is_ood[order]
    tp = np.cumsum(flags)
    ranks = np.arange(1, flags.size + 1)
    return float((tp[flags] / ranks[flags]).sum() / data.n_ood)


def argsort_fpr_at_tpr(data, target_tpr=0.95):
    order = np.argsort(-data.scores, kind="stable")
    scores = data.scores[order]
    flags = data.is_ood[order]
    tp = np.cumsum(flags)
    fp = np.cumsum(~flags)
    cut = np.append(np.nonzero(np.diff(scores) != 0)[0], scores.size - 1)
    tpr = tp[cut] / data.n_ood
    fpr = fp[cut] / data.n_id
    return float(fpr[np.nonzero(tpr >= target_tpr)[0][0]])


@pytest.mark.parametrize("decimals", [1, 3, None], ids=["heavy-ties", "ties", "no-ties"])
def test_shared_sort_matches_separate_sorts_bit_for_bit(decimals):
    """``auroc``, ``auprc`` and ``fpr_at_tpr`` read one cached descending
    sort and equal, bit for bit, a sort of their own, whichever of them
    fills the cache first."""
    rng = np.random.default_rng(6)
    for n in (2, 37, 5000):
        raw = rng.normal(size=n)
        scores = raw if decimals is None else np.round(raw, decimals)
        is_ood = rng.random(n) < 0.2
        is_ood[:2] = [True, False]
        ref = ScoredPixels(scores, is_ood)
        want = {
            "auroc": unique_rank_auroc(ref),
            "auprc": argsort_auprc(ref),
            "fpr_at_tpr": argsort_fpr_at_tpr(ref),
            "fpr_at_tpr_0.5": argsort_fpr_at_tpr(ref, 0.5),
        }
        calls = {
            "auroc": auroc,
            "auprc": auprc,
            "fpr_at_tpr": fpr_at_tpr,
            "fpr_at_tpr_0.5": lambda d: fpr_at_tpr(d, 0.5),
        }
        for names in itertools.permutations(calls):
            data = ScoredPixels(scores, is_ood)
            for name in names:
                assert calls[name](data).hex() == want[name].hex(), (n, names, name)


def stepwise_average_precision(scores, is_ood):
    """Sum of (recall gain) x precision over the distinct thresholds t,
    flagging score >= t, from the highest down."""
    scores = np.asarray(scores, float)
    is_ood = np.asarray(is_ood, bool)
    total, recall = 0.0, 0.0
    for t in np.unique(scores)[::-1]:
        flagged = scores >= t
        tp = (flagged & is_ood).sum()
        total += (tp / is_ood.sum() - recall) * tp / flagged.sum()
        recall = tp / is_ood.sum()
    return total


class TestAveragePrecision:
    def test_perfect_ranking(self):
        data = ScoredPixels([1.0, 2.0, 10.0, 11.0], [False, False, True, True])
        assert average_precision(data) == 1.0

    def test_all_ties_read_the_prevalence(self):
        data = ScoredPixels([3.0] * 8, [True] + [False] * 7)
        assert average_precision(data) == 0.125

    def test_tied_block_counts_once(self):
        # one OOD and one ID tied on top, one OOD below: (1/2)(1/2) + (1/2)(2/3)
        data = ScoredPixels([5.0, 5.0, 1.0], [False, True, True])
        assert average_precision(data) == pytest.approx(0.25 + 1.0 / 3.0)
        assert auprc(data) == pytest.approx((0.5 + 2.0 / 3.0) / 2.0)

    def test_matches_stepwise_oracle(self):
        rng = np.random.default_rng(10)
        for decimals in (0, 1, None):
            for _ in range(40):
                n = int(rng.integers(5, 200))
                raw = rng.normal(size=n)
                scores = raw if decimals is None else np.round(raw, decimals)
                is_ood = rng.random(n) < 0.3
                if is_ood.all() or not is_ood.any():
                    continue
                value = average_precision(ScoredPixels(scores, is_ood))
                assert value == pytest.approx(stepwise_average_precision(scores, is_ood), abs=1e-12)

    def test_equals_auprc_without_ties(self):
        rng = np.random.default_rng(11)
        scores = rng.normal(size=500)
        is_ood = rng.random(500) < 0.2
        data = ScoredPixels(scores, is_ood)
        assert average_precision(data) == pytest.approx(auprc(data), abs=1e-12)

    def test_single_class_rejected(self):
        with pytest.raises(UndefinedMetricError):
            average_precision(ScoredPixels([1.0, 2.0], [False, False]))


def test_tie_aware_metrics_ignore_pixel_order():
    """AUROC, FPR95 and the tie-aware AP read only the per-block counts, so
    any permutation of heavily tied pixels gives the same bits; the
    input-order AUPRC is the one that moves."""
    rng = np.random.default_rng(12)
    scores = rng.integers(0, 6, 3000).astype(float)
    is_ood = rng.random(3000) < 0.1
    calls = (auroc, fpr_at_tpr, average_precision)
    want = [f(ScoredPixels(scores, is_ood)).hex() for f in calls]
    moved = set()
    for _ in range(20):
        perm = rng.permutation(3000)
        data = ScoredPixels(scores[perm], is_ood[perm])
        assert [f(data).hex() for f in calls] == want
        moved.add(auprc(data))
    assert len(moved) > 1


@pytest.mark.parametrize("decimals", [0, 2, None], ids=["heavy-ties", "ties", "no-ties"])
def test_ranking_table_matches_unique_counts(decimals):
    """``ranking``'s block counts are the OOD and ID counts of each distinct
    score, highest first, its flags are ``is_ood`` in that order, its
    per-pixel count is their cumulative sum, and its running counts are
    the cumulative block counts, ending at ``n_ood`` and ``n_id``."""
    rng = np.random.default_rng(13)
    for n in (1, 2, 50, 4000):
        raw = rng.normal(size=n)
        scores = raw if decimals is None else np.round(raw, decimals)
        is_ood = rng.random(n) < 0.3
        data = ScoredPixels(scores, is_ood)
        flags, hits, ood, ids, tp, fp = data.ranking
        values, inverse = np.unique(scores, return_inverse=True)
        want_ood = np.bincount(inverse, weights=is_ood, minlength=values.size)[::-1]
        want_ids = np.bincount(inverse, weights=~is_ood, minlength=values.size)[::-1]
        np.testing.assert_array_equal(ood, want_ood)
        np.testing.assert_array_equal(ids, want_ids)
        assert ood.dtype == ids.dtype == np.int64
        assert (ood.sum(), ids.sum()) == (data.n_ood, data.n_id)
        np.testing.assert_array_equal(tp, np.add.accumulate(ood))
        np.testing.assert_array_equal(fp, np.add.accumulate(ids))
        assert tp.dtype == fp.dtype == np.int64
        assert (tp[-1], fp[-1]) == (data.n_ood, data.n_id) == (is_ood.sum(), n - is_ood.sum())
        np.testing.assert_array_equal(flags, is_ood[np.argsort(-scores, kind="stable")])
        np.testing.assert_array_equal(hits, np.cumsum(flags))
        assert hits.dtype == np.int64


def test_one_report_takes_each_running_count_once(monkeypatch):
    """One ``EvalReport.of`` runs one cumulative sum: the ranking's
    per-pixel count of the flags, which ``auprc`` reads and the block
    counts are read off.  The sort's own run numbering
    (``descending_order``) is no running count, so its contract stands
    in for it here."""
    rng = np.random.default_rng(14)
    data = ScoredPixels(np.round(rng.normal(size=500), 1), rng.random(500) < 0.3)
    monkeypatch.setattr(metrics_mod, "descending_order", stable_order_and_ends)
    calls = []
    cumsum = np.cumsum
    monkeypatch.setattr(np, "cumsum", lambda *a, **k: calls.append(1) or cumsum(*a, **k))
    EvalReport.of(data, 0.5, [0.5])
    assert len(calls) == 1


# each reduction has one home in the source, so it cannot fork again

SOURCE = Path(gmmood.__file__).parent


def calls_by_function(module: str) -> dict:
    """Every function of ``module`` (``name``, or ``Class.name`` for a
    method) and the last name of each callee it calls: ``np.cumsum`` and
    ``x.cumsum`` both read ``cumsum``.  The key ``None`` holds the whole
    module's calls."""
    def callees(node):
        return [
            c.func.attr if isinstance(c.func, ast.Attribute) else getattr(c.func, "id", "")
            for c in ast.walk(node)
            if isinstance(c, ast.Call)
        ]

    tree = ast.parse((SOURCE / module).read_text())
    found = {None: callees(tree)}
    for node in tree.body:
        for child in node.body if isinstance(node, ast.ClassDef) else [node]:
            if isinstance(child, ast.FunctionDef):
                owner = f"{node.name}." if child is not node else ""
                found[owner + child.name] = callees(child)
    return found


def test_metrics_take_one_running_count_in_the_ranking():
    """``metrics.py`` calls ``cumsum`` once inside ``ScoredPixels.ranking``
    (the per-pixel count every metric reads), besides the run numbering
    of the sort (``descending_order``), and counts no block with
    ``reduceat``."""
    calls = calls_by_function("metrics.py")
    homes = {name: f.count("cumsum") for name, f in calls.items() if name and "cumsum" in f}
    assert homes == {"ScoredPixels.ranking": 1, "descending_order": 1}
    assert calls[None].count("cumsum") == 2
    assert "reduceat" not in calls[None]


def test_the_package_compares_sorted_neighbours_in_one_place():
    """The only comparison of neighbours (``a[1:]`` against ``a[:-1]``) in
    the package is ``descending_order``'s, which hands its blocks to the
    ranking."""
    def shifted(node):
        return (
            isinstance(node, ast.Subscript)
            and isinstance(node.slice, ast.Slice)
            and ast.unparse(node.slice) in ("1:", ":-1")
        )

    homes = []
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.FunctionDef):
                continue
            for call in ast.walk(node):
                operands = (
                    call.args if isinstance(call, ast.Call)
                    else [call.left, *call.comparators] if isinstance(call, ast.Compare)
                    else []
                )
                if sum(map(shifted, operands)) == 2:
                    homes.append(f"{path.stem}.{node.name}")
    assert homes == ["metrics.descending_order"]


def test_the_package_sorts_descending_in_one_place():
    """Every numpy sort of negated values in the package is inside
    ``metrics.descending_order``, and the ranking and the projection's
    nearest-point scatter take their order from it."""
    homes = set()
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.FunctionDef):
                continue
            for call in ast.walk(node):
                if (
                    isinstance(call, ast.Call)
                    and getattr(call.func, "attr", getattr(call.func, "id", "")) in ("argsort", "sort")
                    and call.args
                    and isinstance(call.args[0], ast.UnaryOp)
                    and isinstance(call.args[0].op, ast.USub)
                ):
                    homes.add(f"{path.stem}.{node.name}")
    assert homes == {"metrics.descending_order"}
    assert calls_by_function("metrics.py")["ScoredPixels.ranking"].count("descending_order") == 1
    assert calls_by_function("metrics.py")["ScoredPixels.ranking"].count("argsort") == 0
    assert calls_by_function("rangeview.py")["project_spherical"].count("descending_order") == 1


def test_class_sums_take_their_shift_with_one_max():
    """``gmm._class_sums`` takes T, its max over components and classes,
    with one ``max`` call, not a max per component slab."""
    assert calls_by_function("gmm.py")["_class_sums"].count("max") == 1


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_scored_pixels_refuse_non_finite_scores(bad):
    scores = np.arange(6.0)
    scores[4] = bad
    with pytest.raises(ValueError, match=f"got {bad} at index 4"):
        ScoredPixels(scores, np.arange(6) % 2 == 0)


@pytest.mark.parametrize("scores, is_ood", [
    (np.arange(3.0), np.zeros(4, bool)),
    (np.zeros((2, 2)), np.zeros((2, 2), bool)),
], ids=["unequal-lengths", "2-d"])
def test_scored_pixels_refuse_misshapen_arrays(scores, is_ood):
    with pytest.raises(ShapeError, match="^scores and is_ood must be parallel 1-d arrays$"):
        ScoredPixels(scores, is_ood)


@pytest.mark.parametrize("field", ["scores", "is_ood"])
def test_scored_pixels_refuse_reassignment(field):
    """``n_ood`` and ``ranking`` are cached, so their arrays stay put."""
    data = ScoredPixels([3.0, 2.0, 1.0, 0.0], [True, False, True, False])
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(data, field, getattr(data, field)[::-1])


class TestMiou:
    def test_perfect_prediction(self):
        gt = np.array([[0, 1], [2, 1]])
        mean, per_class = miou(gt, gt, 3)
        assert mean == 1.0
        np.testing.assert_array_equal(per_class, [1.0, 1.0, 1.0])

    def test_swapped_labels(self):
        gt = np.array([0, 0, 1, 1])
        pred = np.array([1, 1, 0, 0])
        mean, _ = miou(pred, gt, 2)
        assert mean == 0.0

    def test_hand_counted_case(self):
        gt = np.array([0, 0, 1, 1])
        pred = np.array([0, 1, 1, 1])
        mean, per_class = miou(pred, gt, 2)
        assert per_class[0] == pytest.approx(0.5)
        assert per_class[1] == pytest.approx(2.0 / 3.0)
        assert mean == pytest.approx(7.0 / 12.0)

    def test_absent_class_excluded(self):
        gt = np.array([0, 0, 1, 1])
        pred = np.array([0, 0, 1, 1])
        mean, per_class = miou(pred, gt, 5)
        assert math.isnan(per_class[3])
        assert mean == 1.0

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            miou(np.zeros((2, 2)), np.zeros((2, 3)), 2)

    def test_labels_outside_the_classes_are_refused(self):
        pred, gt = np.array([0, 1, 2]), np.array([0, 1, 1])
        with pytest.raises(ValueError, match=r"^labels must lie in \[0, num_classes = 2\)$"):
            miou(pred, gt, 2)
        with pytest.raises(ValueError, match=r"^labels must lie in \[0, num_classes = 2\)$"):
            miou(gt, np.array([0, -1, 1]), 2)
        assert miou(pred[:2], gt[:2], 2)[0] == 1.0


class TestPercentileThreshold:
    def test_one_to_hundred(self):
        scores = np.arange(1.0, 101.0)
        threshold, mask = percentile_threshold(scores, 0.05)
        assert threshold == 95.0
        assert sorted(scores[mask].tolist()) == [96.0, 97.0, 98.0, 99.0, 100.0]

    def test_identical_scores_flag_nothing(self):
        threshold, mask = percentile_threshold(np.full(50, 2.5), 0.05)
        assert threshold == 2.5
        assert not mask.any()

    def test_default_fraction(self):
        scores = np.arange(1.0, 101.0)
        _, default_mask = percentile_threshold(scores)
        _, explicit_mask = percentile_threshold(scores, 0.05)
        np.testing.assert_array_equal(default_mask, explicit_mask)

    def test_flagged_count_near_fraction(self):
        rng = np.random.default_rng(7)
        for n in (100, 997, 10_007):
            scores = rng.permutation(n).astype(float)
            _, mask = percentile_threshold(scores, 0.05)
            assert abs(int(mask.sum()) - math.floor(0.05 * n)) <= 1

    def test_ten_thousand_distinct_scores_flag_exactly_500(self):
        scores = np.random.default_rng(9).permutation(10_000).astype(float)
        _, mask = percentile_threshold(scores, 0.05)
        assert int(mask.sum()) == 500

    def test_empty_and_bad_fraction(self):
        with pytest.raises(ValueError):
            percentile_threshold(np.array([]))
        with pytest.raises(ValueError):
            percentile_threshold(np.array([1.0]), 0.0)
        with pytest.raises(ValueError):
            percentile_threshold(np.array([1.0]), 1.0)

    def test_order_invariance(self):
        rng = np.random.default_rng(8)
        scores = rng.normal(size=500)
        t1, m1 = percentile_threshold(scores, 0.1)
        perm = rng.permutation(500)
        t2, m2 = percentile_threshold(scores[perm], 0.1)
        assert t1 == t2
        np.testing.assert_array_equal(m1[perm], m2)


class TestEvalReport:
    def test_json_round_trip(self):
        report = EvalReport(
            auroc=0.91,
            auprc=0.37,
            average_precision=0.35,
            fpr95=0.4,
            miou=0.57,
            per_class_iou=np.array([0.5, math.nan, 0.7]),
            n_id=100,
            n_ood=7,
        )
        doc = json.loads(report.to_json())
        assert doc["per_class_iou"][1] is None
        back = EvalReport.from_json(report.to_json())
        assert math.isnan(back.per_class_iou[1])
        for f in dataclasses.fields(EvalReport):  # NaN IoUs compare equal here
            np.testing.assert_array_equal(getattr(back, f.name), getattr(report, f.name))
            assert type(getattr(back, f.name)) is type(getattr(report, f.name))

    def test_csv_has_six_digit_fractions(self):
        report = EvalReport(
            auroc=1 / 3,
            auprc=0.25,
            average_precision=0.5,
            fpr95=0.125,
            miou=2 / 3,
            per_class_iou=np.array([0.5]),
            n_id=10,
            n_ood=2,
        )
        header, row = report.to_csv().strip().split("\n")
        assert header.split(",")[0] == "auroc"
        assert row.split(",")[0] == "0.333333"
        assert row.split(",")[-2:] == ["10", "2"]


# descending_order against the stable argsort it replaces


def stable_order_and_ends(values):
    """``descending_order``'s contract: the stable argsort, and the last
    position of each block, where the values in that order differ from
    their next neighbour or end."""
    order = np.argsort(-values, kind="stable")
    ranked = values[order]
    return order, np.flatnonzero(np.append(ranked[1:] != ranked[:-1], True)[: values.size])


def assert_stable_descending(values):
    want, want_ends = stable_order_and_ends(values)
    got, ends = descending_order(values)
    assert got.dtype == want.dtype == ends.dtype
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(ends, want_ends)


@pytest.mark.parametrize("values", [
    [], [2.5], [1.0, 1.0], [1.0, 2.0], [2.0, 1.0], [0.0, -0.0], [-0.0, 0.0],
    [-0.0, 1.0, 0.0, -0.0, 1.0], [np.inf, -np.inf, np.inf, 0.0],
    [1.0, np.nan, 1.0, np.nan, 0.0],  # NaNs take the stable sort itself
], ids=lambda v: repr(v))
def test_descending_order_small_cases(values):
    assert_stable_descending(np.array(values, dtype=np.float64))


@pytest.mark.parametrize("dtype", [np.float32, np.int64, np.int16])
def test_descending_order_other_dtypes(dtype):
    rng = np.random.default_rng(3)
    assert_stable_descending(rng.integers(-40, 40, 5000).astype(dtype))


_POOL = [0.0, -0.0, 1.0, -1.0, 0.5, 1e-300, 5e-324, 3.4e38, np.inf, -np.inf]


@settings(max_examples=200, deadline=None)
@given(values=st.lists(
    st.one_of(st.sampled_from(_POOL), st.floats(allow_nan=False, width=32)), max_size=300
))
def test_descending_order_on_drawn_floats(values):
    """float32-representable values, widened, with repeats of signed
    zeros, subnormals and infinities."""
    assert_stable_descending(np.array(values, dtype=np.float64))


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(0, 20000),
    levels=st.sampled_from([None, 2, 627]),
    zeros=st.sampled_from([0.0, 0.5, 0.9, 0.99]),
    negative_zeros=st.booleans(),
    widen=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=0, levels=None, zeros=0.0, negative_zeros=False, widen=False, seed=0)
@example(n=1, levels=627, zeros=0.0, negative_zeros=False, widen=False, seed=0)
@example(n=2, levels=2, zeros=0.5, negative_zeros=True, widen=False, seed=0)
@example(n=20000, levels=627, zeros=0.99, negative_zeros=True, widen=False, seed=1)
def test_descending_order_on_tied_scores(n, levels, zeros, negative_zeros, widen, seed):
    """Continuous or vote-like (``levels`` values in [0, 1]) scores, a
    share of them zero, some of those ``-0.0``, optionally widened from
    float32 as read from a score grid."""
    rng = np.random.default_rng(seed)
    values = rng.normal(size=n) if levels is None else rng.integers(0, levels, n) / (levels - 1)
    values[rng.random(n) < zeros] = 0.0
    if negative_zeros:
        values[(values == 0.0) & (rng.random(n) < 0.5)] = -0.0
    if widen:
        values = values.astype(np.float32).astype(np.float64)
    assert_stable_descending(values)


def test_descending_order_memory_per_value_is_bounded():
    """On tied scores (the path that sorts the run keys) the order, the
    run flags and the keys are alive at once, 17 B per value; a cumsum
    that cast the flags to uint64 on the way read 25 B, and the budget
    is four 8-byte words."""
    rng = np.random.default_rng(4)
    values = rng.integers(0, 627, 200_000) / 626.0
    descending_order(values)  # warm-up
    tracemalloc.start()
    try:
        descending_order(values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / values.size < 20, f"{peak / values.size:.1f} B per value"
