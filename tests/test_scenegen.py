"""Synthetic scene generation, rendering, co-visibility and dataset IO."""

import hashlib
import itertools
import json
import time
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from anglereloc import scenegen
from anglereloc.geometry import PoseSE3, rotation_about_axis
from anglereloc.losses import build_multiview_index, photo_target, photometric_image_loss
from anglereloc.scenegen import (
    DatasetConfig,
    Image,
    InfeasibleViewpointError,
    NoGeometryError,
    NonRigidWarning,
    ParseError,
    SyntheticScene,
    _free_space_points,
    _in_frame,
    build_covis,
    build_dataset,
    gen_scene,
    gen_trajectory,
    load_dataset,
    observe,
    parse_7scenes_pose,
    read_correspondence_file,
    read_pgm,
    render_image,
    render_rays,
    save_dataset,
    sparsify_covis,
    value_noise,
    write_correspondence_file,
    write_pgm,
)

import oracles
from oracles import project


def small_cfg(**kw):
    base = dict(seed=3, n_points=150, n_images=8, min_visible=10)
    base.update(kw)
    return DatasetConfig(**base)


def assert_same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert (a.dtype, a.shape) == (b.dtype, b.shape)
    assert a.tobytes() == b.tobytes()


def assert_same_covis(got, want):
    """Equal corresponded sets, held as Python ints."""
    assert type(got.corresponded) is set
    assert got.corresponded == want.corresponded
    assert all(type(k) is int for k in got.corresponded)


def scene_cfg(seed, n_points, n_planes=6, **kw):
    return DatasetConfig(seed=seed, n_points=n_points, n_planes=n_planes, **kw)


class TestDatasetConfig:
    @pytest.mark.parametrize(
        "field, bad",
        [
            ("seed", 1.5),  # a bare TypeError from default_rng deep in gen_scene
            ("seed", True),
            ("seed", -1),  # default_rng refuses negative entries
            ("n_points", 0),
            ("n_points", -3),
            ("n_points", 300.5),  # a bare TypeError deep in gen_scene
            ("n_points", True),
            ("n_planes", -1),
            ("n_planes", 6.0),  # a bare TypeError in gen_scene's slice
            ("half_extent", -1.0),  # numpy's bare "high - low < 0" in gen_scene
            ("half_extent", 0.0),
            ("half_extent", float("nan")),
            ("half_extent", float("inf")),
            # no free-space candidate can clear FREE_SPACE_MIN_RADIUS: gen_scene hung
            ("half_extent", 2.0),
            ("free_space_fraction", 2.0),  # gen_scene made 2x the points
            ("free_space_fraction", -0.5),  # and 1.5x here
            ("free_space_fraction", float("nan")),
            ("n_images", 0),
            ("n_images", 8.0),  # a bare TypeError deep in gen_trajectory
            ("test_every", -4),  # held out no view
            ("test_every", 2.5),  # held out views [4, 9] of 12
            ("test_every", True),
            ("pixel_noise_sigma", -0.1),
            ("pixel_noise_sigma", float("nan")),
            ("covis_keep_fraction", 1.5),  # behaved as 1.0
            ("covis_keep_fraction", -0.1),
            ("min_visible", 2.5),  # behaved as 3
            ("min_visible", -1),
        ],
    )
    def test_bad_value_raises_naming_the_field(self, field, bad):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            DatasetConfig(**{field: bad})

    def test_limits_are_accepted(self):
        for kw in (
            dict(free_space_fraction=0.0, covis_keep_fraction=0.0, test_every=0),
            dict(free_space_fraction=1.0, covis_keep_fraction=1.0, n_planes=0),
        ):
            DatasetConfig(**kw)
        assert build_dataset(small_cfg(test_every=0)).test_ids == []

    def test_small_room_without_free_space_fails_in_its_trajectory(self):
        cfg = DatasetConfig(half_extent=2.0, free_space_fraction=0.0)
        assert cfg.n_free_space == 0
        with pytest.raises(InfeasibleViewpointError):
            build_dataset(cfg)

    def test_corner_only_free_space_raises_quickly(self):
        # 2.03 * sqrt(3) clears the radius, so the config passes, but about one
        # candidate in a million does: gen_scene ran on for minutes
        cfg = DatasetConfig(half_extent=2.03)
        start = time.perf_counter()
        with pytest.raises(ValueError, match="^half_extent 2.03 leaves too little free space"):
            gen_scene(cfg)
        assert time.perf_counter() - start < 1.0
        # a room a little larger still gets its points
        assert len(gen_scene(DatasetConfig(half_extent=2.1)).points) == cfg.n_points

    def test_free_space_count(self):
        assert DatasetConfig(n_points=7, free_space_fraction=0.3).n_free_space == 2
        # a room without planes has every point in free space
        assert DatasetConfig(n_points=7, n_planes=0, free_space_fraction=0.0).n_free_space == 7


class TestGenScene:
    def test_deterministic(self):
        a = gen_scene(scene_cfg(7, 100))
        b = gen_scene(scene_cfg(7, 100))
        np.testing.assert_array_equal(a.points, b.points)
        assert [p.texture_seed for p in a.planes] == [p.texture_seed for p in b.planes]

    def test_point_count_and_bounds(self):
        scene = gen_scene(scene_cfg(1, 100, half_extent=5.0))
        assert scene.points.shape == (100, 3)
        assert np.all(scene.points >= scene.bounds_lo - 1e-9)
        assert np.all(scene.points <= scene.bounds_hi + 1e-9)
        assert scene.diameter == 10.0

    def test_zero_planes_points_only(self):
        scene = gen_scene(scene_cfg(2, 50, 0))
        assert scene.planes == []
        assert len(scene.points) == 50
        with pytest.raises(NoGeometryError):
            render_rays(scene, np.zeros(3), np.array([[0.0, 0.0, 1.0]]))


class TestGenSceneMatchesLoop:
    """The whole-array ``gen_scene`` against the per-point loop it replaced."""

    @pytest.mark.parametrize(
        "plane_count, free_fraction",
        [(6, 0.2), (0, 0.2), (9, 0.2), (6, 0.0), (6, 1.0), (9, 1.0), (3, 0.5)],
    )
    def test_bit_identical_over_seeds(self, plane_count, free_fraction):
        for seed in range(20):
            for count in (1, 2, 97):
                args = (seed, count, plane_count, 5.0, free_fraction)
                got = gen_scene(
                    scene_cfg(seed, count, plane_count, free_space_fraction=free_fraction)
                )
                want = oracles.gen_scene(*args)
                assert_same_bits(got.points, want.points)
                assert_same_bits(got.bounds_lo, want.bounds_lo)
                assert_same_bits(got.bounds_hi, want.bounds_hi)
                assert got.diameter == want.diameter
                assert len(got.planes) == len(want.planes)
                for a, b in zip(got.planes, want.planes):
                    assert a.texture_seed == b.texture_seed
                    for name in ("origin", "edge_u", "edge_v"):
                        assert_same_bits(getattr(a, name), getattr(b, name))

    def test_many_free_points_and_other_sizes(self):
        # several batches of free-space candidates, and a small room where
        # few candidates clear the min radius
        for seed in (0, 1):
            for count, half_extent, fraction in ((3000, 5.0, 1.0), (400, 2.5, 0.2)):
                cfg = scene_cfg(
                    seed, count, half_extent=half_extent, free_space_fraction=fraction
                )
                want = oracles.gen_scene(seed, count, 6, half_extent, fraction)
                assert_same_bits(gen_scene(cfg).points, want.points)

    @staticmethod
    def assert_free_space_matches(seed, n, half_extent, radius):
        # with no planes, every point of the oracle's scene is a free-space one
        got = _free_space_points(np.random.default_rng([seed, 1]), n, half_extent, radius)
        want = oracles.gen_scene(
            seed, n, plane_count=0, half_extent=half_extent, free_space_min_radius=radius
        )
        assert_same_bits(got, want.points)

    def test_free_space_points_at_other_radii(self):
        for seed in (0, 1):
            self.assert_free_space_matches(seed, 300, 5.0, 6.5)
            self.assert_free_space_matches(seed, 400, 2.5, 0.5)

    def test_candidates_tied_with_the_min_radius(self):
        # np.linalg.norm of one vector and a row norm can differ in the last
        # bit; put the first free-space candidate right at the radius
        for seed in range(20):
            first = np.random.default_rng([seed, 1]).uniform(-5.0, 5.0, size=3)
            r = np.linalg.norm(first)
            for radius in (np.nextafter(r, 0), r, np.nextafter(r, np.inf)):
                self.assert_free_space_matches(seed, 4, 5.0, radius)


def assert_rows_match_oracle(rows, scene, pose):
    """In-frame ``(point_ids, pixels)`` equal, bit for bit, those of the
    per-point projection oracle without noise."""
    ids, pixels = rows
    want = oracles.observe(scene, pose, scenegen.INTRINSICS, scenegen.WIDTH, scenegen.HEIGHT)
    assert_same_bits(ids, want.point_ids)
    assert_same_bits(pixels, want.pixels)


class TestGenTrajectory:
    def test_deterministic(self):
        cfg = scene_cfg(11, 200, n_images=6, min_visible=10)
        scene = gen_scene(cfg)
        a, b = gen_trajectory(scene, cfg), gen_trajectory(scene, cfg)
        assert list(a) == list(b) == list(range(6))
        for (pose_a, ids_a, pix_a), (pose_b, ids_b, pix_b) in zip(a.values(), b.values()):
            assert_same_bits(pose_a.rotation, pose_b.rotation)
            assert_same_bits(pose_a.translation, pose_b.translation)
            assert_same_bits(ids_a, ids_b)
            assert_same_bits(pix_a, pix_b)

    def test_outward_leaves_origin_behind(self):
        cfg = scene_cfg(5, 300, n_images=8, min_visible=10)
        for pose, _, _ in gen_trajectory(gen_scene(cfg), cfg).values():
            assert pose.world_to_camera(np.zeros(3))[2] < 0

    def test_min_visible_enforced_on_the_rows_handed_on(self):
        cfg = scene_cfg(5, 300, n_images=10, min_visible=15)
        scene = gen_scene(cfg)
        for pose, ids, pixels in gen_trajectory(scene, cfg).values():
            assert len(ids) >= 15
            assert_rows_match_oracle((ids, pixels), scene, pose)

    def test_infeasible_raises(self):
        # a handful of points cannot satisfy an absurd visibility floor
        cfg = scene_cfg(5, 5, n_images=2, min_visible=100)
        with pytest.raises(InfeasibleViewpointError, match="after 60 attempts"):
            gen_trajectory(gen_scene(cfg), cfg)

    def test_each_pose_attempt_projects_the_scene_once(self, monkeypatch):
        counts = {"pose": 0, "projection": 0}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(scenegen, "_look_pose", counted("pose", scenegen._look_pose))
        monkeypatch.setattr(scenegen, "_in_frame", counted("projection", scenegen._in_frame))
        build_dataset(DatasetConfig())
        assert counts["pose"] >= 40
        assert counts["projection"] == counts["pose"]

    def test_builds_call_np_cross_at_most_once_per_plane(self, monkeypatch):
        calls = []
        cross = np.cross

        def counted(*args, **kwargs):
            calls.append(args)
            return cross(*args, **kwargs)

        monkeypatch.setattr(np, "cross", counted)
        cfg = DatasetConfig()
        build_dataset(cfg)
        assert 0 < len(calls) <= cfg.n_planes


def pose_outcome(look_pose, position, forward):
    """The pose's bytes, or the type and text of what it raised."""
    try:
        pose = look_pose(position, forward)
    except (RuntimeWarning, np.linalg.LinAlgError) as exc:
        return type(exc), str(exc)
    return pose.rotation.tobytes(), pose.translation.tobytes()


class TestLookPoseMatchesOracle:
    """``_look_pose`` writes its cross products out on Python floats; every
    pose must keep the bits of the ``np.cross`` form."""

    @staticmethod
    def assert_same_pose(position, forward):
        position, forward = np.asarray(position, float), np.asarray(forward, float)
        got = pose_outcome(scenegen._look_pose, position, forward)
        assert got == pose_outcome(oracles.look_pose, position, forward)
        assert got[0] is not RuntimeWarning

    def test_random_forwards(self):
        rng = np.random.default_rng(17)
        positions = rng.normal(size=(2000, 3))
        forwards = rng.normal(size=(2000, 3)) * rng.uniform(1e-3, 1e3, size=(2000, 1))
        for position, forward in zip(positions, forwards):
            self.assert_same_pose(position, forward)

    def test_forwards_with_signed_zero_components(self):
        values = (0.0, -0.0, 0.7, -1.3)
        forwards = [f for f in itertools.product(values, repeat=3) if f[0] or f[1]]
        assert len(forwards) == 48
        for forward in forwards:
            self.assert_same_pose((0.5, -0.0, 0.0), forward)

    def test_the_default_rooms_draws(self, monkeypatch):
        draws = []
        look_pose = scenegen._look_pose

        def recorded(position, forward):
            draws.append((position, forward))
            return look_pose(position, forward)

        monkeypatch.setattr(scenegen, "_look_pose", recorded)
        build_dataset(DatasetConfig())
        monkeypatch.undo()
        assert len(draws) >= 40
        for position, forward in draws:
            self.assert_same_pose(position, forward)

    @pytest.mark.parametrize("forward", [(0.0, 0.0, 1.0), (-0.0, 0.0, -2.0), (0.0, -0.0, 0.5)])
    def test_forward_along_z_raises_the_same_error(self, forward):
        forward = np.array(forward)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = pose_outcome(scenegen._look_pose, np.zeros(3), forward)
            assert got == pose_outcome(oracles.look_pose, np.zeros(3), forward)
            assert got[0] is RuntimeWarning
        with np.errstate(invalid="ignore"):
            got = pose_outcome(scenegen._look_pose, np.zeros(3), forward)
            assert got == pose_outcome(oracles.look_pose, np.zeros(3), forward)
            assert got[0] is np.linalg.LinAlgError


class TestObserve:
    def _setup(self, **kw):
        cfg = scene_cfg(9, 300, n_images=3, min_visible=10, **kw)
        scene = gen_scene(cfg)
        pose, ids, pixels = gen_trajectory(scene, cfg)[0]
        return scene, cfg, pose, observe(scene, cfg, 0, ids, pixels)

    def test_noiseless_pixels_are_exact_projections(self):
        scene, cfg, pose, obs = self._setup()
        for k, pix in zip(obs.point_ids, obs.pixels):
            expected, status = project(scenegen.INTRINSICS, pose.world_to_camera(scene.points[k]))
            assert status.name == "IN_FRONT"
            np.testing.assert_allclose(pix, expected, atol=1e-9)

    def test_behind_camera_points_absent(self):
        scene, cfg, pose, obs = self._setup()
        cam = pose.world_to_camera(scene.points)
        behind = set(np.flatnonzero(cam[:, 2] <= 0).tolist())
        assert behind  # outward-looking interior cameras always have some
        assert not behind & set(obs.point_ids.tolist())

    def test_depths_positive(self):
        scene, cfg, pose, obs = self._setup()
        assert np.all(pose.world_to_camera(obs.gt_coords)[:, 2] > 0)

    def test_noise_sigma_statistics(self):
        # 10k interior points seen by the identity camera, sigma=1:
        # empirical std within 5%
        rng = np.random.default_rng(0)
        z = rng.uniform(2, 5, size=10000)
        pts = np.stack([z * rng.uniform(-0.5, 0.5, 10000),
                        z * rng.uniform(-0.35, 0.35, 10000), z], axis=1)
        scene = SyntheticScene(pts, [], np.full(3, -10.0), np.full(3, 10.0), 20.0)
        cfg = DatasetConfig(seed=1, pixel_noise_sigma=1.0)
        ids, clean = _in_frame(scenegen.INTRINSICS, pts, scenegen.WIDTH, scenegen.HEIGHT)
        assert len(ids) > 9000
        obs = observe(scene, cfg, 0, ids, clean)
        assert_same_bits(obs.point_ids, ids)
        err = (obs.pixels - clean).ravel()
        assert abs(np.std(err) - 1.0) < 0.05


class TestObserveMatchesLoop:
    def test_bit_identical(self):
        for seed in range(4):
            cfg = scene_cfg(seed, 400, n_images=4, min_visible=10)
            scene = gen_scene(cfg)
            for image_id, (pose, ids, pixels) in gen_trajectory(scene, cfg).items():
                for sigma in (0.0, 0.7):
                    noisy = scene_cfg(seed, 400, pixel_noise_sigma=sigma)
                    got = observe(scene, noisy, image_id, ids, pixels)
                    want = oracles.observe(
                        scene, pose, scenegen.INTRINSICS, 80, 60, sigma,
                        np.random.default_rng([seed, 2, image_id]), image_id,
                    )
                    for name in ("image_id", "point_ids", "pixels", "gt_coords"):
                        assert_same_bits(getattr(got, name), getattr(want, name))

    @pytest.mark.parametrize(
        "pose, seen",
        [
            (PoseSE3.identity(), True),
            # a camera looking away from every point sees nothing
            (PoseSE3(np.diag([1.0, -1.0, -1.0]), np.array([0.0, 0.0, -20.0])), False),
        ],
        ids=["identity", "looking-away"],
    )
    def test_projection_of_hand_made_poses(self, pose, seen):
        for seed in range(4):
            cfg = scene_cfg(seed, 400)
            scene = gen_scene(cfg)
            rows = _in_frame(scenegen.INTRINSICS, pose.world_to_camera(scene.points), 80, 60)
            assert_rows_match_oracle(rows, scene, pose)
            assert (len(rows[0]) > 0) == seen


class TestRender:
    @staticmethod
    def _setup():
        cfg = scene_cfg(5, 200, n_images=1, min_visible=5)
        scene = gen_scene(cfg)
        return scene, gen_trajectory(scene, cfg)[0][0], scenegen.INTRINSICS

    def test_same_pose_identical(self):
        scene, pose, intr = self._setup()
        a = render_image(scene, pose, intr, 80, 60)
        b = render_image(scene, pose, intr, 80, 60)
        np.testing.assert_array_equal(a.data, b.data)

    def test_view_independence_at_surface_point(self):
        # two rays from different origins through the same wall point
        scene = gen_scene(scene_cfg(5, 50))
        plane = scene.planes[0]
        target = plane.origin + 0.3 * plane.edge_u + 0.6 * plane.edge_v
        o1 = np.array([0.5, 0.2, -0.1])
        o2 = np.array([-1.0, 0.8, 0.4])
        s1 = render_rays(scene, o1, (target - o1)[None, :])
        s2 = render_rays(scene, o2, (target - o2)[None, :])
        assert abs(s1[0] - s2[0]) < 1e-12

    def test_miss_gives_background(self):
        scene = gen_scene(scene_cfg(5, 50, half_extent=5.0))
        # ray escaping through where there is no plane: shrink to one wall
        scene.planes[:] = scene.planes[:1]
        shade = render_rays(scene, np.zeros(3), np.array([[-1.0, 0.0, 0.0]]))
        assert shade[0] == 0.5

    def test_render_values_in_range(self):
        scene, pose, intr = self._setup()
        img = render_image(scene, pose, intr, 80, 60)
        assert img.data.min() >= 0.0 and img.data.max() <= 1.0
        assert img.data.std() > 0.01  # actually textured


def oracle(fn, *args):
    with np.errstate(all="ignore"):
        return fn(*args)


def camera_rays(pose, intr, width, height):
    """World-space ray directions of every pixel, as ``render_image`` makes them."""
    ys, xs = np.mgrid[0:height, 0:width]
    rays_cam = np.stack(
        [xs.ravel() - intr.cx, ys.ravel() - intr.cy, np.full(xs.size, intr.f)], axis=1
    )
    return rays_cam @ pose.rotation.T


class TestValueNoiseMatchesOracle:
    """The table-gathered ``value_noise`` against four hashes per sample."""

    @pytest.mark.parametrize(
        "s, t",
        [
            pytest.param(*np.random.default_rng(0).uniform(-20, 20, (2, 1000)), id="random"),
            pytest.param(*np.random.default_rng(1).uniform(-3, 3, (2, 7, 5)), id="random-2d"),
            pytest.param(*np.random.default_rng(2).uniform(-50, -3, (2, 300)), id="negative"),
            pytest.param(*np.random.default_rng(3).uniform(1e6, 1e6 + 4, (2, 300)), id="far"),
            pytest.param(
                *np.meshgrid(np.arange(-4.0, 5.0), np.arange(-3.0, 4.0, 0.5)), id="integers"
            ),
            pytest.param(np.empty(0), np.empty(0), id="empty"),
            pytest.param(np.empty((0, 3)), np.empty((0, 3)), id="empty-2d"),
            pytest.param(np.array([-0.25]), np.array([7.75]), id="one"),
            pytest.param(np.array(-2.5), np.array(0.3), id="0d"),
            pytest.param(-2.5, 3, id="scalars"),
            pytest.param(np.linspace(-2, 2, 9), np.array(1.3), id="broadcast"),
        ],
    )
    def test_bit_identical(self, s, t):
        for seed in (0, 7, 550):
            got, want = value_noise(s, t, seed), oracle(oracles.value_noise, s, t, seed)
            assert_same_bits(got, want)
            assert type(got) is type(want)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_coordinates_raise(self, bad):
        good = np.array([0.5, 1.5])
        with pytest.raises(ValueError, match="finite"):
            value_noise(np.array([0.5, bad]), good, 1)
        with pytest.raises(ValueError, match="finite"):
            value_noise(good, np.array([bad, 0.5]), 1)
        with pytest.raises(ValueError, match="finite"):
            value_noise(bad, 0.5, 1)

    @pytest.mark.parametrize("octaves", [1, 3])
    def test_huge_coordinates_raise_without_warnings(self, octaves):
        # the finest octave scales by 2 ** (octaves - 1); at 2 ** 53 and beyond
        # the lattice cell is lost (1e19 used to give 1.8e58 with cast warnings)
        limit = 2.0**53 / 2.0 ** (octaves - 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for bad in (1e19, -1e19, limit, -limit, 1e308):
                with pytest.raises(ValueError, match="below"):
                    value_noise(np.array([bad]), np.array([0.0]), 1, octaves)
                with pytest.raises(ValueError, match="below"):
                    value_noise(np.array([0.5, 0.25]), np.array([0.0, bad]), 1, octaves)
            # one sample at a time: two far apart would span a huge lattice box
            for ok in (np.nextafter(limit, 0), -np.nextafter(limit, 0)):
                out = value_noise(np.array([ok]), np.array([ok]), 1, octaves)
                assert 0.1 <= out[0] <= 0.9


class TestRenderMatchesOracle:
    """``render_rays`` and ``render_image`` against the renderer that
    recomputed every per-plane constant and hashed every corner per call."""

    @staticmethod
    def assert_rays_match(scene, origin, dirs):
        dirs = np.asarray(dirs, dtype=np.float64)
        got = render_rays(scene, origin, dirs)
        assert_same_bits(got, oracle(oracles.render_rays, scene, origin, dirs))
        return got

    def test_random_rays(self):
        scene = gen_scene(scene_cfg(5, 50))
        rng = np.random.default_rng(4)
        for origin in rng.uniform(-4.5, 4.5, (5, 3)):
            self.assert_rays_match(scene, origin, rng.normal(size=(500, 3)))

    @pytest.mark.parametrize("origin", [(0.0, 0.0, 0.0), (1.3, -0.7, 0.2)])
    def test_rays_parallel_to_walls(self, origin):
        # each of these directions has a zero component, so the walls with
        # that normal give a denominator of +0 or -0
        dirs = [
            [1.0, 0.0, 0.0],
            [0.0, -1.0, 0.0],
            [0.0, 0.0, 1.0],
            [1.0, -0.0, 0.0],
            [-1.0, 0.0, -0.0],
            [0.6, 0.8, 0.0],
            [0.0, -0.3, 2.0],
            [0.0, 0.0, 0.0],
        ]
        self.assert_rays_match(gen_scene(scene_cfg(5, 50)), np.array(origin), dirs)

    def test_rays_through_edges_and_corners(self):
        scene = gen_scene(scene_cfg(5, 50))
        # from the centre, (1, 1, 0) meets the walls x = 5 and y = 5 at the
        # same s with u or v exactly 1; (1, 1, 1) meets three at a corner
        dirs = [
            [1.0, 1.0, 0.0],
            [-1.0, 1.0, 0.0],
            [1.0, 1.0, 1.0],
            [-1.0, -1.0, -1.0],
            [1.0, -1.0, 0.5],
            [1.0, 0.0, 1.0],
            [2.0, 0.0, 1.0],
        ]
        got = self.assert_rays_match(scene, np.zeros(3), dirs)
        assert np.all(got != 0.5)

    def test_rays_starting_on_a_wall(self):
        scene = gen_scene(scene_cfg(5, 50))
        rng = np.random.default_rng(5)
        dirs = rng.normal(size=(200, 3))
        for origin in ([5.0, 0.3, -1.2], [-5.0, -5.0, 2.0], [5.0, 5.0, 5.0], [0.0, 0.0, -5.0]):
            self.assert_rays_match(scene, np.array(origin), dirs)

    def test_one_plane_scene_misses_give_background(self):
        scene = gen_scene(scene_cfg(5, 50, 1))
        dirs = np.random.default_rng(6).normal(size=(400, 3))
        got = self.assert_rays_match(scene, np.array([0.5, -0.2, 0.1]), dirs)
        assert np.any(got == 0.5) and np.any(got != 0.5)

    def test_interior_panels_occlude_walls(self):
        ds = build_dataset(DatasetConfig(n_planes=8, render_images=True, n_images=12))
        walls = SyntheticScene(
            ds.scene.points, ds.scene.planes[:6], ds.scene.bounds_lo, ds.scene.bounds_hi, 10.0
        )
        occluded = 0
        for image_id, pose in ds.poses.items():
            width, height = scenegen.WIDTH, scenegen.HEIGHT
            dirs = camera_rays(pose, ds.intrinsics, width, height)
            shade = self.assert_rays_match(ds.scene, pose.translation, dirs)
            want = np.round(shade.reshape(height, width) * 65535.0) / 65535.0
            assert_same_bits(ds.images[image_id].data, want)
            occluded += int(np.sum(shade != render_rays(walls, pose.translation, dirs)))
        assert occluded > 0


class TestCoVisibility:
    def test_single_view_point_not_corresponded(self):
        ds = build_dataset(small_cfg())
        first = {0: ds.observations[0]}
        graph = build_covis(first)
        assert graph.corresponded == set()
        index = build_multiview_index(ds.poses, first, graph.corresponded)
        assert len(index.other_pos) == 0

    def test_example_three_images(self):
        o = {
            i: SimpleNamespace(point_ids=np.array([7]), pixels=np.array([[i, 0.0]]))
            for i in (1, 2, 3)
        }
        graph = build_covis(o)
        assert graph.corresponded == {7}
        poses = {i: PoseSE3.identity() for i in o}
        index = build_multiview_index(poses, o, graph.corresponded)
        for i, others in ((1, [2, 3]), (2, [1, 3]), (3, [1, 2])):
            first, last = index.images[i].offsets
            assert index.image_ids[index.other_pos[first:last]].tolist() == others
            assert index.other_pixels[first:last, 0].tolist() == others

    def test_symmetry_exhaustive(self):
        ds = build_dataset(small_cfg())
        index = build_multiview_index(ds.poses, ds.observations, ds.covis.corresponded)
        pairs = set()
        for i, rows in index.images.items():
            for r, k in enumerate(ds.observations[i].point_ids.tolist()):
                for e in range(rows.offsets[r], rows.offsets[r + 1]):
                    j = int(index.image_ids[index.other_pos[e]])
                    obs_j = ds.observations[j]
                    (s,) = np.flatnonzero(obs_j.point_ids == k)
                    assert j != i
                    assert obs_j.pixels[s].tobytes() == index.other_pixels[e].tobytes()
                    pairs.add((i, j, k))
        assert len(pairs) > 20
        assert all((j, i, k) in pairs for i, j, k in pairs)

    def test_partition_into_single_and_multi(self):
        ds = build_dataset(small_cfg())
        index = build_multiview_index(ds.poses, ds.observations, ds.covis.corresponded)
        for i, obs in ds.observations.items():
            mask = np.isin(obs.point_ids, list(ds.covis.corresponded))
            others = np.diff(index.images[i].offsets) > 0
            assert len(mask) == len(obs.point_ids)
            assert mask.tolist() == others.tolist()

    def test_matches_loop_on_datasets(self):
        for seed in range(20):
            obs = build_dataset(small_cfg(seed=seed, n_images=6, n_points=300)).observations
            assert_same_covis(build_covis(obs), oracles.build_covis(obs))

    @pytest.mark.parametrize(
        "observations",
        [
            {},
            {4: SimpleNamespace(point_ids=np.array([], dtype=np.int64))},
            {0: SimpleNamespace(point_ids=np.array([]))},
            {
                5: SimpleNamespace(point_ids=np.array([3, 9, 1])),
                2: SimpleNamespace(point_ids=np.array([], dtype=np.int64)),
                0: SimpleNamespace(point_ids=np.array([9, 8, 3, 3])),
            },
            {i: SimpleNamespace(point_ids=np.array([7]), image_id=i) for i in (1, 2, 3)},
            {1: SimpleNamespace(point_ids=np.array([7]), image_id=1)},
        ],
    )
    def test_matches_loop_on_edge_cases(self, observations):
        assert_same_covis(build_covis(observations), oracles.build_covis(observations))

    def test_image_without_observations(self):
        ds = build_dataset(small_cfg())
        obs = dict(ds.observations)
        obs[2] = SimpleNamespace(
            point_ids=obs[2].point_ids[:0], pixels=obs[2].pixels[:0], image_id=2
        )
        graph = build_covis(obs)
        assert_same_covis(graph, oracles.build_covis(obs))
        index = build_multiview_index(ds.poses, obs, graph.corresponded)
        assert len(index.images[2].offsets) == 1
        assert 2 not in index.image_ids[index.other_pos]

    def test_sparsify(self):
        ds = build_dataset(small_cfg())
        full = len(ds.covis.corresponded)
        sparse = sparsify_covis(ds.covis, 0.2, seed=1)
        assert len(sparse.corresponded) == round(full * 0.2)
        assert sparse.corresponded <= ds.covis.corresponded
        again = sparsify_covis(ds.covis, 0.2, seed=1)
        assert sparse.corresponded == again.corresponded


class TestDatasetBuild:
    def test_split_sizes_default(self):
        ds = build_dataset(DatasetConfig(seed=1))
        assert len(ds.train_ids) == 30
        assert len(ds.test_ids) == 10
        assert not set(ds.train_ids) & set(ds.test_ids)

    def test_descriptors_unit_norm_and_shared(self):
        ds = build_dataset(small_cfg(descriptor_noise_sigma=0.0))
        norms = np.linalg.norm(ds.descriptors, axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)
        # same point in two images carries the same base descriptor
        k = min(ds.covis.corresponded)
        imgs = [i for i, obs in ds.observations.items() if k in obs.point_ids][:2]
        rows = []
        for i in imgs:
            obs = ds.observations[i]
            rows.append(obs.descriptors[list(obs.point_ids).index(k)])
        np.testing.assert_array_equal(rows[0], rows[1])

    def test_gt_projects_onto_recorded_pixel(self):
        ds = build_dataset(small_cfg())
        for obs in ds.observations.values():
            pose = ds.poses[obs.image_id]
            for k, pix, gt in zip(obs.point_ids[:10], obs.pixels[:10], obs.gt_coords[:10]):
                expected, _ = project(ds.intrinsics, pose.world_to_camera(gt))
                np.testing.assert_allclose(pix, expected, atol=1e-9)

    def test_photo_consistency_with_perfect_inputs(self):
        # reconstruct image i from neighbor j using GT coordinates and poses
        ds = build_dataset(
            small_cfg(
                render_images=True, free_space_fraction=0.0, n_images=10, n_points=300
            )
        )
        totals = []
        for i, j in ((0, 1), (4, 5), (8, 7)):
            obs = ds.observations[i]
            rep = photometric_image_loss(
                ds.intrinsics,
                ds.poses[j],
                obs.gt_coords,
                photo_target(obs, ds.images[i].data),
                ds.images[j].data,
            )
            valid = int(np.sum(rep.valid_mask))
            assert valid >= 4
            totals.append(rep.total / valid)
        assert np.mean(totals) < 5e-2


def dataset_sha256(ds):
    """Digest of everything ``build_dataset`` returns except the scene."""
    h = hashlib.sha256()
    for image_id in sorted(ds.observations):
        obs = ds.observations[image_id]
        for a in (obs.point_ids, obs.pixels, obs.gt_coords, obs.descriptors):
            h.update(np.ascontiguousarray(a).tobytes())
        pose = ds.poses[image_id]
        h.update(pose.rotation.tobytes() + pose.translation.tobytes())
        if image_id in ds.images:
            h.update(ds.images[image_id].data.tobytes())
    h.update(ds.descriptors.tobytes())
    h.update(repr((ds.train_ids, ds.test_ids, ds.diameter)).encode())
    # the point -> images map the package once stored, rebuilt from the observations
    h.update(repr(list(oracles.build_covis(ds.observations).point_to_images.items())).encode())
    h.update(repr(sorted(ds.covis.corresponded)).encode())
    return h.hexdigest()


class TestPinnedDatasets:
    """``build_dataset`` output pinned by digest, so that a faster build must
    reproduce the same rooms bit for bit. The digests also pin numpy's and
    the BLAS library's floating-point results (poses, projections, random
    normals), so a different build of either may change them."""

    @pytest.mark.parametrize(
        "kw, digest",
        [
            ({}, "da91dbfaa6dec53e02c5602ef43f4ac6e67b1389cf28d68cd6013780c13ec747"),
            (
                {"pixel_noise_sigma": 0.5},
                "6ecf229e9517f6589c4a3bb5ae0b6ea4cc8c3247ce8ae4036c5ca8af50e267c3",
            ),
            (
                {"render_images": True, "n_images": 8},
                "da4f4db1a5a3ec21ca201497a04a1c455a372d3af5316308140c9c744748d860",
            ),
            (
                {"n_points": 2000, "render_images": True, "seed": 4},
                "d80c56376277e8f8b3163a577d92f59ef1921ae89bcbbc77644e144e8ea0fcf7",
            ),
            (
                {"n_planes": 8, "render_images": True, "n_images": 12},
                "abb21c335c8b756f8299a6ed0c15c2a4453d4f452bd989d760b01d74bd5457e4",
            ),
        ],
        ids=["default", "pixel-noise", "rendered", "photo-rendered", "panels-rendered"],
    )
    def test_digest(self, kw, digest):
        assert dataset_sha256(build_dataset(DatasetConfig(**kw))) == digest


class TestDatasetIO:
    def test_roundtrip_bit_identical(self, tmp_path):
        ds = build_dataset(small_cfg(render_images=True, pixel_noise_sigma=0.5))
        save_dataset(ds, tmp_path / "d")
        # the descriptors are drawn again from the config, not saved
        assert not (tmp_path / "d" / "descriptors.txt").exists()
        back = load_dataset(tmp_path / "d")
        assert back.config == ds.config and back.intrinsics == ds.intrinsics
        assert back.diameter == ds.diameter
        assert back.train_ids == ds.train_ids and back.test_ids == ds.test_ids
        assert back.covis.corresponded == ds.covis.corresponded
        assert_same_bits(back.descriptors, ds.descriptors)
        for i, obs in ds.observations.items():
            b = back.observations[i]
            for name in ("point_ids", "pixels", "gt_coords", "descriptors"):
                assert_same_bits(getattr(b, name), getattr(obs, name))
            assert_same_bits(back.poses[i].as_matrix(), ds.poses[i].as_matrix())
        for i, img in ds.images.items():
            assert_same_bits(back.images[i].data, img.data)

    def test_pgm_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        img = Image(np.round(rng.uniform(size=(13, 17)) * 65535) / 65535)
        write_pgm(tmp_path / "x.pgm", img)
        back = read_pgm(tmp_path / "x.pgm")
        np.testing.assert_array_equal(back.data, img.data)

    @pytest.mark.parametrize(
        "blob",
        [
            b"P6\n6 5\n65535\n" + bytes(2 * 3 * 30),  # colour
            b"P5\n6 5\n255\n" + bytes(30),  # 8-bit
        ],
        ids=["colour", "8-bit"],
    )
    def test_colour_or_8_bit_file_raises_parse_error_with_the_path(self, tmp_path, blob):
        path = tmp_path / "x.pgm"
        path.write_bytes(blob)
        with pytest.raises(ParseError) as exc:
            read_pgm(path)
        assert exc.value.path == path and str(path) in str(exc.value)

    def test_image_is_grayscale_only(self):
        for shape in ((5, 6, 3), (5, 6, 1)):
            with pytest.raises(ValueError, match=r"\(H, W\)"):
                Image(np.zeros(shape))

    @pytest.mark.parametrize("cut", [1, 100])
    def test_truncated_pgm_raises_parse_error_with_the_path(self, tmp_path, cut):
        path = tmp_path / "x.pgm"
        write_pgm(path, Image(np.full((13, 17), 0.5)))
        path.write_bytes(path.read_bytes()[:-cut])
        with pytest.raises(ParseError, match="truncated") as exc:
            read_pgm(path)
        assert exc.value.path == path and str(path) in str(exc.value)

    def test_missing_pgm_raises_parse_error_with_the_path(self, tmp_path):
        path = tmp_path / "none.pgm"
        with pytest.raises(ParseError) as exc:
            read_pgm(path)
        assert exc.value.path == path

    @pytest.fixture
    def saved(self, tmp_path):
        ds = build_dataset(small_cfg(render_images=True))
        return save_dataset(ds, tmp_path / "d")

    @pytest.mark.parametrize(
        "name", ["poses/pose_0002.txt", "observations/obs_0003.txt", "covis.json"]
    )
    def test_missing_file_raises_parse_error_with_the_path(self, saved, name):
        (saved / name).unlink()
        with pytest.raises(ParseError) as exc:
            load_dataset(saved)
        assert exc.value.path == saved / name

    @pytest.mark.parametrize(
        "name, edit",
        [
            ("manifest.json", lambda m: m.pop("train_ids")),
            ("manifest.json", lambda m: m.pop("config")),
            ("manifest.json", lambda m: m["config"].update(bogus=1)),
            # a value DatasetConfig refuses
            ("manifest.json", lambda m: m["config"].update(free_space_fraction=2.0)),
            ("manifest.json", lambda m: m.update(diameter="wide")),
            ("manifest.json", lambda m: m["image_ids"].append("x")),
            ("covis.json", lambda c: c.pop("corresponded")),
            # a count DatasetConfig refuses
            ("manifest.json", lambda m: m["config"].update(n_points=150.5)),
        ],
    )
    def test_malformed_json_contents_raise_parse_error(self, saved, name, edit):
        path = saved / name
        blob = json.loads(path.read_text())
        edit(blob)
        path.write_text(json.dumps(blob))
        with pytest.raises(ParseError) as exc:
            load_dataset(saved)
        assert exc.value.path == path

    @pytest.mark.parametrize("bad", [999, 150, -1])  # the room has 150 points
    def test_observation_point_id_outside_the_room_raises_parse_error(self, saved, bad):
        path = saved / "observations" / "obs_0003.txt"
        lines = path.read_text().splitlines()
        lines[4] = f"{bad} " + lines[4].split(" ", 1)[1]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match=rf"point id {bad} outside \[0, 150\)") as exc:
            load_dataset(saved)
        assert exc.value.path == path and exc.value.line == 5 and exc.value.column == 1

    @pytest.mark.parametrize("key", ["train_ids", "test_ids"])
    def test_split_id_outside_image_ids_raises_parse_error(self, saved, key):
        path = saved / "manifest.json"
        blob = json.loads(path.read_text())
        blob[key].append(99)
        path.write_text(json.dumps(blob))
        with pytest.raises(ParseError, match="split id 99 is not in image_ids") as exc:
            load_dataset(saved)
        assert exc.value.path == path

    def test_covis_with_the_old_point_to_images_map_loads(self, saved):
        path = saved / "covis.json"
        want = load_dataset(saved)
        blob = json.loads(path.read_text())
        assert list(blob) == ["corresponded"]
        point_to_images = oracles.build_covis(want.observations).point_to_images
        blob["point_to_images"] = {str(k): list(v) for k, v in point_to_images.items()}
        path.write_text(json.dumps(blob))
        assert load_dataset(saved).covis.corresponded == want.covis.corresponded

    def test_manifest_with_the_old_intrinsics_object_loads(self, saved):
        # the camera is the config's, so the object is no longer written
        path = saved / "manifest.json"
        blob = json.loads(path.read_text())
        assert "intrinsics" not in blob
        blob["intrinsics"] = {"f": 40.0, "cx": 39.5, "cy": 29.5}
        path.write_text(json.dumps(blob))
        assert load_dataset(saved).intrinsics == scenegen.INTRINSICS

    def test_manifest_of_schema_version_1_raises_parse_error(self, saved):
        # version 1 carried the camera, orbit and descriptor width in its
        # config, and the base descriptors in descriptors.txt
        path = saved / "manifest.json"
        blob = json.loads(path.read_text())
        blob["schema_version"] = 1
        blob["config"].update(
            focal=40.0, width=80, height=60, orbit_radius=1.6, radius_jitter=0.3,
            height_jitter=0.5, yaw_jitter_deg=8.0, pitch_jitter_deg=14.0, descriptor_dim=16,
        )
        path.write_text(json.dumps(blob))
        with pytest.raises(ParseError, match="unsupported schema version 1") as exc:
            load_dataset(saved)
        assert exc.value.path == path and "manifest.json" in str(exc.value)

    @pytest.mark.parametrize(
        "bad, message",
        [
            ("7", "non-integer"),
            (7.0, "non-integer"),
            (True, "non-integer"),
            (None, "non-integer"),
            ([7], "non-integer"),
            (-1, "outside"),
            (150, "outside"),  # the room has 150 points
            (2**70, "outside"),
        ],
    )
    def test_bad_corresponded_id_raises_parse_error(self, saved, bad, message):
        path = saved / "covis.json"
        blob = json.loads(path.read_text())
        blob["corresponded"].insert(1, bad)
        path.write_text(json.dumps(blob))
        with pytest.raises(ParseError, match=message) as exc:
            load_dataset(saved)
        assert exc.value.path == path

    @pytest.mark.parametrize("text", ["[1, 2]", "{not json"])
    def test_manifest_that_is_no_json_object_raises_parse_error(self, saved, text):
        path = saved / "manifest.json"
        path.write_text(text)
        with pytest.raises(ParseError) as exc:
            load_dataset(saved)
        assert exc.value.path == path

    def test_truncated_render_raises_parse_error(self, saved):
        path = saved / "images" / "img_0001.pgm"
        path.write_bytes(path.read_bytes()[:-2])
        with pytest.raises(ParseError, match="truncated") as exc:
            load_dataset(saved)
        assert exc.value.path == path

    def test_correspondence_file_roundtrip(self, tmp_path):
        rng = np.random.default_rng(5)
        ids = np.array([3, 9, 12])
        pixels = rng.uniform(0, 80, size=(3, 2))
        coords = rng.uniform(-5, 5, size=(3, 3))
        path = tmp_path / "c.txt"
        write_correspondence_file(path, ids, pixels, coords, header="test block")
        rids, rpix, rcoords = read_correspondence_file(path, 13)
        np.testing.assert_array_equal(rids, ids)
        np.testing.assert_array_equal(rpix, pixels)
        np.testing.assert_array_equal(rcoords, coords)

    def test_correspondence_parse_error_context(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("# fine\n1 2.0 3.0 4.0 5.0 oops\n")
        with pytest.raises(ParseError) as exc:
            read_correspondence_file(path, 10)
        assert exc.value.line == 2
        assert exc.value.column == 6


class TestPoseParsing:
    def test_identity(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text(
            "1 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 1\n"
        )
        pose = parse_7scenes_pose(path)
        np.testing.assert_array_equal(pose.rotation, np.eye(3))
        np.testing.assert_array_equal(pose.translation, np.zeros(3))

    def test_translation_only(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("1 0 0 1\n0 1 0 2\n0 0 1 3\n0 0 0 1\n")
        pose = parse_7scenes_pose(path)
        np.testing.assert_array_equal(pose.translation, [1.0, 2.0, 3.0])

    def test_nonrigid_warns_and_projects(self, tmp_path):
        R = rotation_about_axis(np.array([0.3, 1.0, -0.2]), 0.7)
        noisy = R + 0.01  # well beyond the 1e-3 orthonormality gate
        m = np.eye(4)
        m[:3, :3] = noisy
        m[:3, 3] = [0.5, 0, 0]
        path = tmp_path / "p.txt"
        path.write_text("\n".join(" ".join(repr(float(v)) for v in row) for row in m) + "\n")
        with pytest.warns(NonRigidWarning):
            pose = parse_7scenes_pose(path)
        RT = pose.rotation
        assert np.linalg.norm(RT.T @ RT - np.eye(3)) < 1e-9

    def test_mild_drift_projects_silently(self, tmp_path):
        R = rotation_about_axis(np.array([0.0, 0.0, 1.0]), 0.3)
        noisy = R * (1 + 1e-6)
        m = np.eye(4)
        m[:3, :3] = noisy
        path = tmp_path / "p.txt"
        path.write_text("\n".join(" ".join(repr(float(v)) for v in row) for row in m) + "\n")
        import warnings as w

        with w.catch_warnings():
            w.simplefilter("error")
            pose = parse_7scenes_pose(path)
        assert np.linalg.norm(pose.rotation.T @ pose.rotation - np.eye(3)) < 1e-9

    def test_malformed_raises_with_context(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("1 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 1\n")
        with pytest.raises(ParseError) as exc:
            parse_7scenes_pose(path)
        assert exc.value.line == 1
