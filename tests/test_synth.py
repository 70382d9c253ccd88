import numpy as np
import pytest

from gmmood.synth import (
    SynthConfig,
    class_mean_layout,
    generate,
    ood_center,
    run_benchmark,
)


def small_config(**overrides):
    base = dict(
        feature_dim=4,
        n_classes=3,
        samples_per_class=100,
        class_separation=4.0,
        overlap_pairs=(),
        ood_count=50,
        ood_offset=12.0,
        within_class_std=0.5,
        seed=0,
    )
    base.update(overrides)
    return SynthConfig(**base)


class TestGenerate:
    def test_bookkeeping(self):
        ds = generate(small_config())
        assert sum(len(t) for t in ds.train_features) == 150
        assert ds.eval_features.shape[0] == 150 + 50
        assert int(ds.eval_is_ood.sum()) == 50
        assert np.all(ds.eval_labels[ds.eval_is_ood] == -1)
        assert np.all(ds.eval_labels[~ds.eval_is_ood] >= 0)

    def test_determinism(self):
        a = generate(small_config(seed=5))
        b = generate(small_config(seed=5))
        np.testing.assert_array_equal(a.eval_features, b.eval_features)
        for ta, tb in zip(a.train_features, b.train_features):
            np.testing.assert_array_equal(ta, tb)

    def test_seed_changes_data(self):
        a = generate(small_config(seed=1))
        b = generate(small_config(seed=2))
        assert not np.array_equal(a.eval_features, b.eval_features)

    def test_empirical_means(self):
        cfg = small_config(samples_per_class=2000, seed=3)
        ds = generate(cfg)
        means = np.asarray(ds.generating_params["class_means"])
        for ci, feats in enumerate(ds.train_features):
            tolerance = 3.0 * cfg.within_class_std / np.sqrt(len(feats))
            np.testing.assert_allclose(
                feats.mean(axis=0), means[ci], atol=4 * tolerance
            )

    def test_invalid_configs(self):
        with pytest.raises(ValueError):
            small_config(overlap_pairs=((0, 5),))
        with pytest.raises(ValueError):
            small_config(class_separation=-1.0)
        with pytest.raises(ValueError):
            small_config(ood_count=0)


class TestLayout:
    def test_single_row_for_few_classes(self):
        cfg = small_config(n_classes=3)
        means = class_mean_layout(cfg)
        np.testing.assert_allclose(means[:, 0], [0.0, 4.0, 8.0])
        assert np.all(means[:, 1:] == 0.0)

    def test_two_rows_for_many_classes(self):
        cfg = small_config(n_classes=6, feature_dim=8)
        means = class_mean_layout(cfg)
        # column-major pairs: vertical neighbours one separation apart
        np.testing.assert_allclose(means[0], np.zeros(8))
        np.testing.assert_allclose(means[1][:2], [0.0, 4.0])
        np.testing.assert_allclose(means[4][:2], [8.0, 0.0])
        gaps = np.linalg.norm(means[1] - means[0])
        assert gaps == pytest.approx(4.0)

    def test_overlap_pair_moves_second_member(self):
        cfg = small_config(n_classes=3, overlap_pairs=((0, 1),))
        means = class_mean_layout(cfg)
        assert np.linalg.norm(means[1] - means[0]) == pytest.approx(1.0)

    def test_coincident_overlap_pair_moves_along_the_first_axis(self):
        """(0, 1) and (0, 2) put classes 1 and 2 on one point, so (1, 2)
        has no direction and moves class 2 along the first axis."""
        cfg = small_config(n_classes=3, feature_dim=2, overlap_pairs=((0, 1), (0, 2), (1, 2)))
        np.testing.assert_array_equal(class_mean_layout(cfg), [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])

    def test_ood_center_distance(self):
        for n_classes in (3, 6):
            cfg = small_config(n_classes=n_classes, feature_dim=8, ood_offset=12.0)
            means = class_mean_layout(cfg)
            center = ood_center(cfg, means)
            nearest = np.min(np.linalg.norm(means - center, axis=1))
            assert nearest == pytest.approx(12.0)
            # outside the convex hull: strictly beyond the largest x coordinate
            assert center[0] > means[:, 0].max()


class TestRunBenchmark:
    def test_separable_dataset_detected_by_both(self):
        cfg = SynthConfig(
            feature_dim=8,
            n_classes=6,
            samples_per_class=1000,
            class_separation=4.0,
            overlap_pairs=(),
            ood_count=300,
            ood_offset=200.0,
            within_class_std=0.5,
            seed=4,
        )
        res = run_benchmark(generate(cfg), n_components=2, n_samples=20, seed=3)
        assert res.epistemic.auroc >= 0.99
        assert res.predictive.auroc >= 0.99

    def test_coincident_classes_have_no_signal(self):
        cfg = SynthConfig(
            feature_dim=4,
            n_classes=3,
            samples_per_class=600,
            class_separation=1e-9,
            overlap_pairs=(),
            ood_count=200,
            ood_offset=1e-9,
            within_class_std=1.0,
            seed=5,
        )
        res = run_benchmark(generate(cfg), n_components=2, n_samples=20, seed=3)
        assert abs(res.epistemic.auroc - 0.5) < 0.15
        assert abs(res.predictive.auroc - 0.5) < 0.15

    def test_directional_claim_single_seed(self):
        cfg = SynthConfig(seed=0)  # module defaults are the benchmark scenario
        res = run_benchmark(generate(cfg), seed=1000)
        assert res.epistemic.auroc > res.predictive.auroc
        assert 0.85 <= res.point_accuracy <= 0.95

    def test_deterministic_reports(self):
        cfg = small_config(samples_per_class=200, n_classes=3)
        a = run_benchmark(generate(cfg), n_samples=8, seed=9)
        b = run_benchmark(generate(cfg), n_samples=8, seed=9)
        assert a.epistemic.to_json() == b.epistemic.to_json()
        assert a.predictive.to_json() == b.predictive.to_json()
        assert a.delta_summary() == b.delta_summary()

    def test_delta_summary_reports_both_scores_and_their_differences(self):
        cfg = small_config(samples_per_class=200, n_classes=3)
        res = run_benchmark(generate(cfg), n_samples=8, seed=9)
        summary = res.delta_summary()
        for metric in ("auroc", "auprc", "average_precision", "fpr95"):
            ours, theirs = getattr(res.epistemic, metric), getattr(res.predictive, metric)
            assert summary[f"epistemic_{metric}"] == ours
            assert summary[f"predictive_{metric}"] == theirs
            assert summary[f"{metric}_delta"] == ours - theirs
        assert summary["point_accuracy"] == res.point_accuracy
        assert len(summary) == 13

    def test_miou_fields_match_across_reports(self):
        cfg = small_config(samples_per_class=200)
        res = run_benchmark(generate(cfg), n_samples=8, seed=2)
        assert res.epistemic.miou == res.predictive.miou
        np.testing.assert_array_equal(
            res.epistemic.per_class_iou, res.predictive.per_class_iou
        )


class TestMonotoneDifficulty:
    def test_mean_auroc_never_increases_as_offset_shrinks(self):
        offsets = [12.0, 4.0, 2.5]
        means = []
        for offset in offsets:
            values = []
            for seed in range(10):
                cfg = SynthConfig(
                    feature_dim=8,
                    n_classes=6,
                    samples_per_class=600,
                    class_separation=4.0,
                    overlap_pairs=(),
                    ood_count=200,
                    ood_offset=offset,
                    within_class_std=1.0,
                    seed=seed,
                )
                res = run_benchmark(generate(cfg), n_samples=20, seed=seed + 77)
                values.append(res.epistemic.auroc)
            means.append(float(np.mean(values)))
        assert means[0] >= means[1] >= means[2]
