import math
import struct

import numpy as np
import pytest

from gmmood.errors import (
    CorruptPointError,
    LabelCountError,
    MalformedScanError,
    ShapeError,
)
from gmmood.rangeview import (
    CH_RANGE,
    PointCloud,
    ProjectionConfig,
    back_project,
    parse_labels,
    parse_point_cloud,
    project_spherical,
)


def pack_points(points):
    return b"".join(struct.pack("<4f", *p) for p in points)


def random_cloud(rng, n=500):
    xyz = rng.normal(scale=20.0, size=(n, 3))
    intensity = rng.random(n)
    return PointCloud(np.column_stack([xyz, intensity]))


class TestParsePointCloud:
    def test_single_record(self):
        cloud = parse_point_cloud(pack_points([(1.0, 2.0, 3.0, 0.5)]))
        assert len(cloud) == 1
        np.testing.assert_allclose(cloud.points[0], [1.0, 2.0, 3.0, 0.5])

    def test_empty_payload(self):
        assert len(parse_point_cloud(b"")) == 0

    def test_length_not_divisible(self):
        with pytest.raises(MalformedScanError):
            parse_point_cloud(b"\x00" * 17)

    def test_non_finite_names_point(self):
        data = pack_points([(1.0, 2.0, 3.0, 0.5), (math.nan, 0.0, 0.0, 0.0)])
        with pytest.raises(CorruptPointError, match="point 1"):
            parse_point_cloud(data)


def test_point_cloud_needs_four_columns():
    with pytest.raises(ShapeError, match=r"^points must be \(N, 4\), got \(5, 3\)$"):
        PointCloud(np.zeros((5, 3)))


class TestParseLabels:
    def test_low_16_bits(self):
        labels = parse_labels(struct.pack("<I", 0x00010001), 1)
        assert labels[0] == 1

    def test_outlier_flag(self):
        labels = parse_labels(struct.pack("<I", 0x00FF0001), 1)
        assert labels[0] == 1

    def test_count_mismatch(self):
        with pytest.raises(LabelCountError):
            parse_labels(b"\x00" * 8, 3)


class TestProjection:
    def test_hand_derived_pixel(self):
        # point straight ahead at pitch 0 with the default configuration
        cloud = parse_point_cloud(pack_points([(10.0, 0.0, 0.0, 0.3)]))
        image = project_spherical(cloud)
        rows, cols = np.nonzero(image.valid)
        assert (rows.tolist(), cols.tolist()) == ([6], [512])
        assert image.valid.sum() == 1
        np.testing.assert_allclose(image.channels[6, 512], [10.0, 0.0, 0.0, 0.3, 10.0], rtol=1e-6)

    def test_all_zero_range_gives_empty_image(self):
        cloud = PointCloud(np.zeros((4, 4)))
        image = project_spherical(cloud)
        assert not image.valid.any()
        assert image.dropped_points == 4

    def test_nearest_wins_on_shared_ray(self):
        cloud = PointCloud(
            np.array([[50.0, 0.0, 0.0, 0.1], [5.0, 0.0, 0.0, 0.9]])
        )
        image = project_spherical(cloud)
        assert image.valid.sum() == 1
        r, c = map(int, np.argwhere(image.valid)[0])
        assert image.channels[r, c, CH_RANGE] == pytest.approx(5.0)
        assert image.point_index[r, c] == 1

    @pytest.mark.parametrize("shape", [(1, 1), (64, 1024)])
    def test_equal_ranges_in_one_pixel_match_the_stable_scatter(self, shape, monkeypatch):
        """Points of exactly equal range on one pixel, with different
        intensities: the last of them in input order wins it, as when the
        scatter order is the stable descending argsort, and the image is
        the one that order gives.  Each direction below has range 5.0
        exactly; it repeats 25 times at range 5 and 10, and on the 1 x 1
        grid all 600 points share the pixel."""
        from gmmood import rangeview

        dirs = np.array([[3, 4, 0], [4, 3, 0], [0, 0, 5], [-3, 4, 0], [0, -3, 4], [4, 0, -3],
                         [-4, -3, 0], [0, 4, 3], [3, 0, 4], [0, 0, -5], [-3, -4, 0], [5, 0, 0]])
        rng = np.random.default_rng(31)
        xyz = np.concatenate([np.tile(dirs, (25, 1)), 2 * np.tile(dirs, (25, 1))])
        xyz = xyz[rng.permutation(len(xyz))]
        points = np.column_stack([xyz, np.arange(len(xyz)) / len(xyz)])
        config = ProjectionConfig(*shape)
        image = project_spherical(PointCloud(points), config)
        monkeypatch.setattr(rangeview, "descending_order", lambda v: np.argsort(-v, kind="stable"))
        want = project_spherical(PointCloud(points), config)
        np.testing.assert_array_equal(image.point_index, want.point_index)
        np.testing.assert_array_equal(image.channels, want.channels)
        np.testing.assert_array_equal(image.valid, want.valid)
        if shape == (1, 1):
            last = np.flatnonzero(np.linalg.norm(xyz, axis=1) == 5.0)[-1]
            assert image.point_index[0, 0] == last
            assert image.channels[0, 0, 3] == np.float32(points[last, 3])

    def test_empty_cloud_rejected(self):
        with pytest.raises(ValueError):
            project_spherical(PointCloud(np.empty((0, 4))))

    def test_label_grid(self):
        """The point index carries per-point labels onto the grid."""
        cloud = parse_point_cloud(pack_points([(10.0, 0.0, 0.0, 0.3)]))
        labels = parse_labels(struct.pack("<I", 7), 1)
        image = project_spherical(cloud)
        grid = np.where(image.valid, labels[image.point_index], -1)
        assert grid.dtype == np.int32 and grid[6, 512] == 7
        assert (grid == -1).sum() == grid.size - 1

    def test_sentinel_and_mask_agree(self):
        rng = np.random.default_rng(0)
        image = project_spherical(random_cloud(rng))
        invalid = ~image.valid
        assert np.all(image.channels[invalid] == -1.0)
        assert np.all(image.point_index[invalid] == -1)
        assert np.all(image.point_index[image.valid] >= 0)

    def test_range_channel_consistency(self):
        rng = np.random.default_rng(1)
        image = project_spherical(random_cloud(rng))
        got = image.channels[image.valid][:, CH_RANGE]
        expect = np.linalg.norm(image.channels[image.valid][:, :3], axis=1)
        np.testing.assert_allclose(got, expect, rtol=1e-5)


class TestProjectionProperties:
    def test_round_trip_and_nearest_wins(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            cloud = random_cloud(rng, n=400)
            image = project_spherical(cloud)
            rows, cols = np.nonzero(image.valid)
            owners = image.point_index[rows, cols]
            # owners project back to their own pixel
            np.testing.assert_array_equal(image.point_rows[owners], rows)
            np.testing.assert_array_equal(image.point_cols[owners], cols)
            # no point beats the stored range at its pixel
            ranges = np.linalg.norm(cloud.xyz, axis=1)
            mapped = image.point_rows >= 0
            stored = image.channels[
                image.point_rows[mapped], image.point_cols[mapped], CH_RANGE
            ]
            assert np.all(ranges[mapped] >= stored - 1e-5)

    def test_clamping_totality(self):
        rng = np.random.default_rng(3)
        configs = [
            ProjectionConfig(),
            ProjectionConfig(height=2, width=3, fov_up=10.0, fov_down=-10.0),
            ProjectionConfig(height=16, width=16, fov_up=1.0, fov_down=-1.0),
        ]
        cloud = random_cloud(rng, n=300)
        for config in configs:
            image = project_spherical(cloud, config=config)
            assert image.valid.any()
            mapped = image.point_rows >= 0
            assert mapped.all()  # every finite nonzero-range point lands in bounds
            assert image.point_rows[mapped].max() < config.height
            assert image.point_cols[mapped].max() < config.width


class TestConfigValidation:
    def test_bad_fov(self):
        with pytest.raises(ValueError):
            ProjectionConfig(fov_up=-30.0, fov_down=3.0)

    def test_bad_size(self):
        with pytest.raises(ValueError):
            ProjectionConfig(height=0)


class TestBackProject:
    def test_identity_on_range_channel(self):
        rng = np.random.default_rng(4)
        cloud = random_cloud(rng)
        image = project_spherical(cloud)
        values = back_project(image, image.channels[:, :, CH_RANGE])
        owners = image.point_index[image.valid]
        ranges = np.linalg.norm(cloud.xyz, axis=1)
        np.testing.assert_allclose(values[owners], ranges[owners], rtol=1e-6)

    def test_occluded_point_gets_winner_value(self):
        cloud = PointCloud(
            np.array([[50.0, 0.0, 0.0, 0.1], [5.0, 0.0, 0.0, 0.9]])
        )
        image = project_spherical(cloud)
        values = back_project(image, image.channels[:, :, CH_RANGE])
        assert values[0] == pytest.approx(5.0)  # occluded: winner pixel's value
        assert values[1] == pytest.approx(5.0)

    def test_shape_mismatch(self):
        cloud = PointCloud(np.array([[5.0, 0.0, 0.0, 0.9]]))
        image = project_spherical(cloud)
        with pytest.raises(ShapeError):
            back_project(image, np.zeros((image.height + 1, image.width)))

    def test_dropped_points_get_nan(self):
        cloud = PointCloud(np.array([[0.0, 0.0, 0.0, 0.0], [5.0, 0.0, 0.0, 0.9]]))
        image = project_spherical(cloud)
        values = back_project(image, np.ones((image.height, image.width)))
        assert math.isnan(values[0])
        assert values[1] == 1.0
