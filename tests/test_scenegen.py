"""Synthetic scene generation, rendering, co-visibility and dataset IO."""

import hashlib
import itertools
import json
import time
import warnings
from dataclasses import asdict, replace
from types import SimpleNamespace

import numpy as np
import pytest

from anglereloc import scenegen
from anglereloc.geometry import PoseSE3
from anglereloc.losses import (
    ConfigError,
    build_multiview_index,
    photo_target,
    photometric_image_loss,
)
from anglereloc.scenegen import (
    DatasetConfig,
    Image,
    InfeasibleViewpointError,
    NoGeometryError,
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
    render_image,
    room_digest,
    save_dataset,
    sparsify_covis,
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
    """The corresponded ids of ``got``, one ascending int64 array, are those
    of the oracle's set."""
    assert_same_bits(got.corresponded, np.array(sorted(want.corresponded), dtype=np.int64))


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
            # a bare OverflowError from n_free_space
            pytest.param("n_points", 10**400, id="n_points-1e400"),
            ("n_points", 2**63),  # beyond int64
            ("n_planes", -1),
            ("n_planes", 6.0),  # a bare TypeError in gen_scene's slice
            ("half_extent", -1.0),  # numpy's bare "high - low < 0" in gen_scene
            ("half_extent", 0.0),
            ("half_extent", float("nan")),
            ("half_extent", float("inf")),
            # no free-space candidate can clear FREE_SPACE_MIN_RADIUS: gen_scene hung
            ("half_extent", 2.0),
            ("half_extent", "5"),  # a bare TypeError from the comparison
            ("half_extent", True),
            # a bare OverflowError from the radius check
            pytest.param("half_extent", 10**400, id="half_extent-1e400"),
            ("free_space_fraction", 2.0),  # gen_scene made 2x the points
            ("free_space_fraction", -0.5),  # and 1.5x here
            ("free_space_fraction", float("nan")),
            ("free_space_fraction", True),  # built a room of free-space points only
            ("free_space_fraction", "0.2"),
            ("n_images", 0),
            ("n_images", 8.0),  # a bare TypeError deep in gen_trajectory
            ("test_every", -4),  # held out no view
            ("test_every", 2.5),  # held out views [4, 9] of 12
            ("test_every", True),
            ("pixel_noise_sigma", -0.1),
            ("pixel_noise_sigma", float("nan")),
            ("pixel_noise_sigma", float("inf")),  # pinned noisy pixels to the border
            ("pixel_noise_sigma", None),  # a bare TypeError from the comparison
            ("pixel_noise_sigma", True),
            ("descriptor_noise_sigma", -0.5),  # built a room without noise
            ("descriptor_noise_sigma", float("nan")),  # and so did this
            ("descriptor_noise_sigma", float("inf")),  # every descriptor non-finite
            ("descriptor_noise_sigma", False),
            ("descriptor_noise_sigma", "0.01"),
            ("render_images", "no"),  # rendered every view
            ("render_images", 1),
            ("covis_keep_fraction", 1.5),  # behaved as 1.0
            ("covis_keep_fraction", -0.1),
            ("covis_keep_fraction", "1"),  # a bare TypeError from the comparison
            ("covis_keep_fraction", True),
            ("min_visible", 2.5),  # behaved as 3
            ("min_visible", -1),
        ],
    )
    def test_bad_value_raises_naming_the_field(self, field, bad):
        with pytest.raises(ConfigError, match=f"^{field} must be"):
            DatasetConfig(**{field: bad})

    def test_limits_are_accepted(self):
        for kw in (
            dict(free_space_fraction=0.0, covis_keep_fraction=0.0, test_every=0),
            dict(pixel_noise_sigma=0.0, descriptor_noise_sigma=0.0, render_images=True),
            dict(free_space_fraction=1.0, covis_keep_fraction=1.0, n_planes=0),
        ):
            DatasetConfig(**kw)
        assert build_dataset(small_cfg(test_every=0)).test_ids == []

    def test_render_images_without_planes_raises(self):
        # load_dataset let render_image's bare NoGeometryError escape
        with pytest.raises(ConfigError, match="^render_images must be False in a room without"):
            DatasetConfig(n_planes=0, render_images=True)

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
        with pytest.raises(ConfigError, match="^half_extent 2.03 leaves too little free space"):
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
        assert np.abs(scene.points).max() <= 5.0
        assert scene.diameter == 10.0

    def test_zero_planes_points_only(self):
        scene = gen_scene(scene_cfg(2, 50, 0))
        assert scene.planes == []
        assert len(scene.points) == 50
        with pytest.raises(NoGeometryError):
            render_image(scene, PoseSE3.identity())

    @pytest.mark.parametrize("half_extent", [1e77, 1e200, 1e308])
    def test_walls_whose_area_overflows_raise_naming_half_extent(self, half_extent):
        # the area norm overflowed with a RuntimeWarning, and the surface
        # draw then raised a bare ValueError
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match="^half_extent .* gives walls whose area"):
                gen_scene(scene_cfg(0, 20, half_extent=half_extent))

    def test_largest_walls_that_hold_their_area_build(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scene = gen_scene(scene_cfg(0, 20, half_extent=1e76))
        assert scene.diameter == 2e76

    @pytest.mark.parametrize("half_extent", [1e-82, 1e-100, 1e-300])
    def test_walls_whose_area_underflows_raise_naming_half_extent(self, half_extent):
        # the areas summed to 0, the draw's probabilities divided 0 by 0 with
        # a RuntimeWarning, and rng.choice raised a bare ValueError
        cfg = scene_cfg(0, 20, half_extent=half_extent, free_space_fraction=0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match="^half_extent .* gives walls whose area under"):
                gen_scene(cfg)

    def test_smallest_walls_that_hold_their_area_build(self):
        # side 2e-80: side^4 is 1.6e-319, a subnormal area^2 above 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scene = gen_scene(scene_cfg(0, 20, half_extent=1e-80, free_space_fraction=0.0))
        assert scene.diameter == 2e-80

    @pytest.mark.parametrize("half_extent", [1e155, 1e200, 1e308])
    def test_free_space_whose_squares_overflow_raises_naming_half_extent(self, half_extent):
        # the candidates' squares overflowed with a RuntimeWarning, and the
        # room built
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match="^half_extent .* free-space points whose"):
                gen_scene(scene_cfg(0, 20, 0, half_extent=half_extent))

    def test_largest_free_space_that_holds_its_squares_builds(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scene = gen_scene(scene_cfg(0, 20, 0, half_extent=1e150))
        assert scene.diameter == 2e150 and len(scene.points) == 20


class TestTexturedPlane:
    """A plane is a rectangle with a finite origin and finite edges, or
    ``TexturedPlane`` refuses it."""

    def test_generated_planes_are_rectangles(self):
        # the refusal never fires on a room gen_scene builds: the largest
        # |cos| between a plane's edges is about 3.7e-15
        worst = 0.0
        for seed in range(50):
            for n_planes in range(6, 17):
                for p in gen_scene(scene_cfg(seed, 1, n_planes)).planes:
                    eu, ev = p.edge_u, p.edge_v
                    worst = max(worst, abs(eu @ ev) / np.linalg.norm(eu) / np.linalg.norm(ev))
        assert worst < 1e-14

    @pytest.mark.parametrize(
        "origin, edge_u, edge_v, message",
        [
            ([5.0, -1.0, -1.0], [0.0, 2.0, 0.0], [0.0, 1e-6, 2.0], "are not perpendicular"),
            ([5.0, np.nan, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 2.0], "origin must be finite"),
            ([5.0, 0.0, 0.0], [0.0, np.inf, 0.0], [0.0, 0.0, 2.0], "edge_u must be finite"),
            ([5.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, -np.inf], "edge_v must be finite"),
            # edges whose norms overflow are judged without overflow
            ([0.0, 0.0, 0.0], [1e200, 1e200, 0.0], [1e200, 0.0, 0.0], "are not perpendicular"),
        ],
        ids=["skewed", "nan-origin", "inf-edge_u", "inf-edge_v", "skewed-overflowing"],
    )
    def test_planes_that_are_no_rectangle_raise(self, origin, edge_u, edge_v, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match=message):
                scenegen.TexturedPlane(*(np.array(a) for a in (origin, edge_u, edge_v)), 7)

    def test_perpendicular_edges_whose_norms_overflow_are_accepted(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            plane = scenegen.TexturedPlane(
                np.zeros(3), np.array([0.0, 1e200, 0.0]), np.array([0.0, 0.0, 1e200]), 7
            )
        assert_same_bits(plane.corners[3], np.array([0.0, 1e200, 1e200]))


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


def whole_scene_rows(points, pose):
    """In-frame ids and pixels of a projection of every point."""
    cam = pose.world_to_camera(points)
    return _in_frame(cam)


def point_cells(grid):
    """Each point's flat cell index, read from the ids ``grid`` groups by
    cell."""
    cells = np.empty(len(grid.order), dtype=np.intp)
    cells[grid.order] = np.repeat(np.arange(len(grid.offsets) - 1), np.diff(grid.offsets))
    return cells


def assert_cull_matches_whole(points, grid, pose):
    """The culled projection's ids and pixels equal, bit for bit, those of a
    projection of every point, and the cull keeps whole cells, each id once
    and ascending; returns how many points are in the frame."""
    near = grid.ids_in_view(pose)
    cells = point_cells(grid)
    assert_same_bits(near, np.flatnonzero(np.isin(cells, cells[near])))
    ids, pixels = scenegen._in_view(points, grid, pose)
    want_ids, want_pixels = whole_scene_rows(points, pose)
    assert_same_bits(ids, want_ids)
    assert_same_bits(pixels, want_pixels)
    return len(ids)


class TestFrustumCull:
    """Rooms of ``CULL_MIN_POINTS`` or more points project, per pose draw,
    only the points of the grid cells whose spheres meet the frustum."""

    @pytest.mark.parametrize(
        "kw",
        [
            pytest.param({"n_points": scenegen.CULL_MIN_POINTS, "seed": 5}, id="at-threshold"),
            pytest.param({"n_points": 20000, "n_planes": 8, "seed": 2}, id="panels"),
            pytest.param({"n_points": 6000, "free_space_fraction": 1.0, "seed": 3}, id="free"),
            pytest.param({"n_points": 6000, "n_planes": 0, "seed": 4}, id="no-planes"),
            pytest.param({"n_points": 8000, "half_extent": 3.0, "seed": 6}, id="small-room"),
        ],
    )
    def test_accepted_views_equal_a_whole_scene_projection(self, monkeypatch, kw):
        kept = []
        ids_in_view = scenegen._CellGrid.ids_in_view

        def spy(grid, pose):
            near = ids_in_view(grid, pose)
            kept.append(len(near))
            return near

        monkeypatch.setattr(scenegen._CellGrid, "ids_in_view", spy)
        cfg = DatasetConfig(n_images=12, **kw)
        scene = gen_scene(cfg)
        views = gen_trajectory(scene, cfg)
        assert len(views) == 12 and len(kept) >= 12
        # every draw was culled: a view keeps about 12% of these rooms, and sees 4-7%
        assert max(kept) < 0.25 * len(scene.points)
        for pose, ids, pixels in views.values():
            want_ids, want_pixels = whole_scene_rows(scene.points, pose)
            assert_same_bits(ids, want_ids)
            assert_same_bits(pixels, want_pixels)

    def test_rooms_below_the_threshold_project_every_point(self, monkeypatch):
        rows = []
        in_frame = scenegen._in_frame

        def spy(cam):
            rows.append(len(cam))
            return in_frame(cam)

        monkeypatch.setattr(scenegen, "_in_frame", spy)
        cfg = DatasetConfig(n_points=scenegen.CULL_MIN_POINTS - 1, n_images=6)
        gen_trajectory(gen_scene(cfg), cfg)
        assert len(rows) >= 6 and set(rows) == {cfg.n_points}

    def test_no_grid_for_few_or_non_finite_points(self):
        n = scenegen.CULL_MIN_POINTS
        points = np.random.default_rng(0).uniform(-5, 5, size=(n, 3))
        assert scenegen._CellGrid.over(points[:-1]) is None
        assert scenegen._CellGrid.over(points) is not None
        for bad in (np.nan, np.inf, -np.inf):
            points[7, 1] = bad
            assert scenegen._CellGrid.over(points) is None


def random_rotation(rng):
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def rotation_taking(a, b, rng):
    """A rotation taking the unit vector ``a`` to ``b`` (up to rounding),
    turned by a random angle about ``b``."""

    def basis(v, helper):
        e2 = helper - (helper @ v) * v
        e2 /= np.linalg.norm(e2)
        return np.column_stack([v, e2, np.cross(v, e2)])

    return basis(b, rng.normal(size=3)) @ basis(a, rng.normal(size=3)).T


def axis_rotations():
    """The 24 rotations that map the axes onto the axes."""
    out = []
    for perm in itertools.permutations(range(3)):
        for signs in itertools.product((1.0, -1.0), repeat=3):
            R = np.zeros((3, 3))
            R[perm, range(3)] = signs
            if np.linalg.det(R) > 0:
                out.append(R)
    return out


class TestCullStress:
    """The cull against a projection of every point, on poses chosen to
    stress it: cameras inside cells and on cell boundaries, views along an
    axis, points on cell boundaries, and image edges that touch a cell's
    sphere from outside exactly at the cell's corner."""

    @pytest.fixture(scope="class")
    def room(self):
        """Points of the box [-5, 5]^3, whose grid cells are unit cubes (at
        10 cells per axis): every cell corner, points on cell faces, and
        points anywhere; with the grid over them."""
        rng = np.random.default_rng(11)
        ticks = np.linspace(-5.0, 5.0, scenegen.CULL_CELLS + 1)  # every cell boundary
        corners = np.stack(np.meshgrid(ticks, ticks, ticks, indexing="ij"), -1).reshape(-1, 3)
        faces = rng.uniform(-5, 5, size=(3000, 3))
        faces[np.arange(3000), rng.integers(3, size=3000)] = rng.choice(ticks, 3000)
        anywhere = rng.uniform(-5, 5, size=(3000, 3))
        points = np.concatenate([corners, faces, anywhere])
        grid = scenegen._CellGrid.over(points)
        assert grid is not None and grid.radius == pytest.approx(np.sqrt(3) / 2)
        return points, grid, corners

    def test_random_poses(self, room):
        points, grid, _ = room
        rng = np.random.default_rng(1)
        seen = 0
        for _ in range(300):
            pose = PoseSE3(random_rotation(rng), rng.uniform(-7, 7, size=3))
            seen += assert_cull_matches_whole(points, grid, pose)
        assert seen > 10000

    def test_cameras_inside_cells_and_on_their_boundaries(self, room):
        points, grid, corners = room
        rng = np.random.default_rng(2)
        cells = rng.integers(-5, 5, size=(150, 3)).astype(float)
        positions = np.concatenate(
            [
                cells + 0.5,  # cell centers
                cells + rng.uniform(0, 1, size=(150, 3)),  # anywhere in a cell
                cells,  # cell corners, which are points of the room
                cells + [0.0, 0.5, 0.5],  # face centers
            ]
        )
        seen = 0
        for position in positions:
            pose = PoseSE3(random_rotation(rng), position)
            seen += assert_cull_matches_whole(points, grid, pose)
        assert seen > 10000

    def test_views_along_an_axis(self, room):
        points, grid, _ = room
        positions = [
            [0.0, 0.0, 0.0],
            [0.5, 0.5, 0.5],
            [1.0, -2.0, 0.5],
            [-3.0, 4.0, -4.0],
            [2.25, 0.0, -1.0],
            [0.0, 0.0, -6.0],
        ]
        seen = 0
        for R in axis_rotations():
            for position in positions:
                seen += assert_cull_matches_whole(points, grid, PoseSE3(R, position))
        assert seen > 10000

    def test_image_edges_touching_a_cell_sphere_at_its_corner(self, room):
        # Each pose puts a cell corner q on one image edge, its plane's
        # inward normal pointing from the corner's cell center to q: the
        # sphere lies outside that plane and touches it at q. Whether q lands
        # in the frame is then decided by rounding, and in about half the
        # cases it does; the margin must keep its cell whenever it does.
        points, grid, corners = room
        intr, w, h = scenegen.INTRINSICS, scenegen.WIDTH, scenegen.HEIGHT
        rng = np.random.default_rng(3)
        ids = rng.choice(len(corners), size=400)  # corners are the room's first rows
        cells = point_cells(grid)
        on_edge = 0
        for k, point_id in enumerate(ids):
            q = points[point_id]
            center = grid.centers[:, cells[point_id]]
            normal = (q - center) / np.linalg.norm(q - center)
            plane = k % 4
            z = rng.uniform(0.5, 6.0)
            # q in the camera frame: on the edge of `plane`, mid-way along it
            q_cam = [
                [-intr.cx * z / intr.f, 0.0, z],
                [(w - 1 - intr.cx) * z / intr.f, 0.0, z],
                [0.0, -intr.cy * z / intr.f, z],
                [0.0, (h - 1 - intr.cy) * z / intr.f, z],
            ][plane]
            R = rotation_taking(scenegen.FRUSTUM_NORMALS[plane], normal, rng)
            pose = PoseSE3(R, q - R @ q_cam)
            assert_cull_matches_whole(points, grid, pose)
            on_edge += point_id in whole_scene_rows(points, pose)[0]
        assert 40 < on_edge < 360

    def test_flat_and_single_point_rooms(self):
        rng = np.random.default_rng(4)
        n = scenegen.CULL_MIN_POINTS
        flat = rng.uniform(-5, 5, size=(n, 3))
        flat[:, 2] = 1.5  # one layer of cells along z
        same = np.tile([2.0, 1.0, 0.5], (n, 1))
        for points in (flat, same):
            grid = scenegen._CellGrid.over(points)
            for _ in range(100):
                pose = PoseSE3(random_rotation(rng), rng.uniform(-3, 3, size=3))
                assert_cull_matches_whole(points, grid, pose)
            # looking straight at the layer or the point from 2 units away
            R = np.diag([1.0, -1.0, -1.0])
            target = points[0] if points is same else np.array([0.0, 0.0, 1.5])
            seen = assert_cull_matches_whole(points, grid, PoseSE3(R, target + [0, 0, 2.0]))
            assert seen > 0


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


def descriptor_source(cfg):
    """The ``DescriptorSource`` that ``build_dataset`` gives a room of ``cfg``."""
    return scenegen.DescriptorSource(cfg.seed, cfg.n_points, cfg.descriptor_noise_sigma)


def source_of(ds):
    """The ``DescriptorSource`` of ``ds``, which every observation holds."""
    return next(iter(ds.observations.values())).descriptor_source


class TestObserve:
    def _setup(self, **kw):
        cfg = scene_cfg(9, 300, n_images=3, min_visible=10, **kw)
        scene = gen_scene(cfg)
        pose, ids, pixels = gen_trajectory(scene, cfg)[0]
        return scene, cfg, pose, observe(scene, cfg, 0, ids, pixels, descriptor_source(cfg))

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
        scene = SyntheticScene(pts, [], 20.0)
        cfg = DatasetConfig(seed=1, pixel_noise_sigma=1.0)
        ids, clean = _in_frame(pts)
        assert len(ids) > 9000
        obs = observe(scene, cfg, 0, ids, clean, descriptor_source(cfg))
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
                    source = descriptor_source(noisy)
                    got = observe(scene, noisy, image_id, ids, pixels, source)
                    want = oracles.observe(
                        scene, pose, scenegen.INTRINSICS, 80, 60, sigma,
                        np.random.default_rng([seed, 2, image_id]), image_id, source,
                    )
                    for name in ("image_id", "point_ids", "pixels", "gt_coords"):
                        assert_same_bits(getattr(got, name), getattr(want, name))
                    assert got.descriptor_source is source

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
            rows = _in_frame(pose.world_to_camera(scene.points))
            assert_rows_match_oracle(rows, scene, pose)
            assert (len(rows[0]) > 0) == seen


class TestRender:
    @staticmethod
    def _setup():
        cfg = scene_cfg(5, 200, n_images=1, min_visible=5)
        scene = gen_scene(cfg)
        return scene, gen_trajectory(scene, cfg)[0][0]

    def test_same_pose_identical(self):
        scene, pose = self._setup()
        a = render_image(scene, pose)
        b = render_image(scene, pose)
        np.testing.assert_array_equal(a.data, b.data)

    def test_view_independence_at_surface_point(self):
        # two rays from different origins through the same wall point
        scene = gen_scene(scene_cfg(5, 50))
        plane = scene.planes[0]
        target = plane.origin + 0.3 * plane.edge_u + 0.6 * plane.edge_v
        o1 = np.array([0.5, 0.2, -0.1])
        o2 = np.array([-1.0, 0.8, 0.4])
        s1 = scenegen._trace(scene.planes, o1, (target - o1)[None, :])
        s2 = scenegen._trace(scene.planes, o2, (target - o2)[None, :])
        assert abs(s1[0] - s2[0]) < 1e-12

    def test_miss_gives_background(self):
        scene = gen_scene(scene_cfg(5, 50, half_extent=5.0))
        # ray escaping through where there is no plane: shrink to one wall
        scene.planes[:] = scene.planes[:1]
        shade = scenegen._trace(scene.planes, np.zeros(3), np.array([[-1.0, 0.0, 0.0]]))
        assert shade[0] == 0.5

    def test_render_values_in_range(self):
        scene, pose = self._setup()
        img = render_image(scene, pose)
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


class TestRenderMatchesOracle:
    """``_trace`` against every plane, and ``render_image``, against the
    renderer that recomputed every per-plane constant and hashed every
    corner per call."""

    @staticmethod
    def assert_rays_match(scene, origin, dirs):
        dirs = np.asarray(dirs, dtype=np.float64)
        got = scenegen._trace(scene.planes, origin, dirs)
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
        walls = ds.scene.planes[:6]
        occluded = 0
        for image_id, pose in ds.poses.items():
            width, height = scenegen.WIDTH, scenegen.HEIGHT
            dirs = camera_rays(pose, ds.intrinsics, width, height)
            shade = self.assert_rays_match(ds.scene, pose.translation, dirs)
            want = np.round(shade.reshape(height, width) * 65535.0) / 65535.0
            assert_same_bits(ds.images[image_id].data, want)
            occluded += int(np.sum(shade != scenegen._trace(walls, pose.translation, dirs)))
        assert occluded > 0


def texture_planes():
    """Walls of rooms of three sizes, whose texture scales are 8, 4.8 and
    3.36 cells, and the interior panels of an 8-plane room."""
    planes = []
    for half_extent in (5.0, 3.0, 2.1):
        planes += gen_scene(scene_cfg(1, 50, half_extent=half_extent)).planes
    return planes + gen_scene(scene_cfg(2, 50, 8)).planes[6:]


class TestPlaneShade:
    """``TexturedPlane.shade`` gathers from tables kept on the plane."""

    @pytest.mark.parametrize("plane", texture_planes())
    def test_equals_oracle_shade(self, plane):
        rng = np.random.default_rng(plane.texture_seed)
        edges = [0.0, 1.0, -0.0, 0.5, np.nextafter(1.0, 0.0), 5e-324]
        u = np.concatenate([rng.uniform(size=500), np.repeat(edges, len(edges))])
        v = np.concatenate([rng.uniform(size=500), np.tile(edges, len(edges))])
        for a, b in ((u, v), (u.reshape(-1, 4), v.reshape(-1, 4)), (1.0, 0.0), (u[:0], v[:0])):
            assert_same_bits(plane.shade(a, b), oracle(oracles.shade, plane, a, b))

    @pytest.mark.parametrize(
        "bad", [np.nextafter(0.0, -1.0), -1.0, np.nextafter(1.0, 2.0), 2.0, np.nan, np.inf, -np.inf]
    )
    def test_refuses_coordinates_outside_the_unit_square(self, bad):
        plane = gen_scene(scene_cfg(1, 50)).planes[0]
        good = np.array([0.0, 0.5, 1.0])
        for u, v in ((np.append(good, bad), np.append(good, 0.5)), (good[:1], np.array([bad]))):
            with pytest.raises(ValueError, match=r"in \[0, 1\]"):
                plane.shade(u, v)
            with pytest.raises(ValueError, match=r"in \[0, 1\]"):
                plane.shade(v, u)

    def test_tables_span_the_plane_and_are_hashed_once(self, monkeypatch):
        ds = build_dataset(DatasetConfig(n_images=8))
        wall = ds.scene.planes[0]  # 10 x 10 units, 8 lattice cells a side
        assert [(len(table), ny) for table, ny in wall.texture_tables] == [
            (10 * 10, 10),
            (18 * 18, 18),
            (34 * 34, 34),
        ]
        calls = []
        hash01 = scenegen._hash01
        monkeypatch.setattr(scenegen, "_hash01", lambda *a: calls.append(a) or hash01(*a))
        for pose in ds.poses.values():
            render_image(ds.scene, pose)
        # the wall's tables are cached; only the other walls' are hashed, once each
        assert 0 < len(calls) <= (len(ds.scene.planes) - 1) * scenegen.TEXTURE_OCTAVES
        before = len(calls)
        for pose in ds.poses.values():
            render_image(ds.scene, pose)
        assert len(calls) == before


def render_every_plane(scene, pose):
    """The image that ``_trace`` gives against every plane on the pixel rays
    of ``pose``, quantized as ``render_image`` quantizes."""
    w, h = scenegen.WIDTH, scenegen.HEIGHT
    rays = camera_rays(pose, scenegen.INTRINSICS, w, h)
    shade = scenegen._trace(scene.planes, pose.translation, rays)
    return np.round(shade.reshape(h, w) * 65535.0) / 65535.0


def assert_render_matches_every_plane(scene, pose):
    """``render_image`` equals the render against every plane bit for bit;
    returns how many planes the cull kept."""
    assert_same_bits(render_image(scene, pose).data, render_every_plane(scene, pose))
    return len(scenegen._planes_in_view(scene.planes, pose))


# the 0.5 background, quantized
BACKGROUND = np.round(0.5 * 65535.0) / 65535.0
# a camera at the origin looking along -x, with y down
LOOKING_ALONG_MINUS_X = PoseSE3(
    np.array([[0.0, 0.0, -1.0], [1.0, 0.0, 0.0], [0.0, -1.0, 0.0]]), np.zeros(3)
)

ROOMS = {
    "one-wall": scene_cfg(5, 50, 1),
    "walls": scene_cfg(5, 50),
    "panels": scene_cfg(2, 50, 8),
    "small-room": scene_cfg(4, 50, half_extent=3.0),
}


class TestRenderCull:
    """``render_image`` traces only the planes its view may see, and gives
    the bits of ``_trace`` against every plane."""

    @pytest.fixture(scope="class", params=list(ROOMS), ids=list(ROOMS))
    def scene(self, request):
        return gen_scene(ROOMS[request.param])

    def test_pixel_rays_lie_in_every_view_half_space(self):
        w, h = scenegen.WIDTH, scenegen.HEIGHT
        rays = scenegen._pixel_rays()
        assert rays is scenegen._pixel_rays() and not rays.flags.writeable
        pixels = np.stack(np.meshgrid(np.arange(w), np.arange(h)), -1).reshape(-1, 2)
        assert_same_bits(rays, scenegen.ray_vectors(scenegen.INTRINSICS, pixels))
        inner = scenegen.VIEW_HALF_SPACES @ rays.T
        assert inner.min() > -1e-12
        # the image's edge pixels lie on the edge planes, up to rounding
        on_edge = (np.abs(inner[:4]) < 1e-12).sum(axis=1)
        assert on_edge.tolist() == [h, h, w, w]

    def test_random_poses(self, scene):
        rng = np.random.default_rng(7)
        reach = scene.diameter / 2 + 2.0
        kept = 0
        for _ in range(40):
            pose = PoseSE3(random_rotation(rng), rng.uniform(-reach, reach, size=3))
            kept += assert_render_matches_every_plane(scene, pose)
        assert 0 < kept < 40 * len(scene.planes)

    def test_views_along_an_axis(self, scene):
        positions = [[0.0, 0.0, 0.0], [1.0, -2.0, 0.5], [0.0, 0.0, -2.5]]
        kept = 0
        for R in axis_rotations():
            for position in positions:
                kept += assert_render_matches_every_plane(scene, PoseSE3(R, position))
        assert kept < 72 * len(scene.planes)

    def test_cameras_on_a_wall(self, scene):
        rng = np.random.default_rng(8)
        for plane in scene.planes:
            for u, v in [(0.0, 0.0), (1.0, 1.0), (0.5, 0.0), *rng.uniform(size=(3, 2))]:
                position = plane.origin + u * plane.edge_u + v * plane.edge_v
                assert_render_matches_every_plane(scene, PoseSE3(random_rotation(rng), position))

    def test_plane_corner_on_an_image_edge(self):
        # Each pose puts a corner q of the one wall on the ray of a pixel at
        # the image edge, with the wall on the outer side of that edge's
        # plane: q lies on the plane, the rest of the wall outside it.
        # Whether the pixel's ray hits the wall is then decided by rounding;
        # the cull must keep the wall either way.
        scene = gen_scene(ROOMS["one-wall"])
        (plane,) = scene.planes
        intr, w, h = scenegen.INTRINSICS, scenegen.WIDTH, scenegen.HEIGHT
        rng = np.random.default_rng(9)
        hits = 0
        for k in range(200):
            corner = k % 4
            a, b = plane.edge_u, plane.edge_v
            q = plane.origin + [0, a, b, a + b][corner]
            away = [(a, b), (-a, b), (a, -b), (-a, -b)][corner]
            normal = -(away[0] / np.linalg.norm(a) + away[1] / np.linalg.norm(b))
            normal += rng.uniform(-1, 1) * np.cross(a, b) / np.linalg.norm(np.cross(a, b))
            normal /= np.linalg.norm(normal)
            edge = (k // 4) % 4
            row, col = rng.integers(h), rng.integers(w)
            x, y = [(0, row), (w - 1, row), (col, 0), (col, h - 1)][edge]
            z = rng.uniform(0.5, 6.0)
            q_cam = np.array([(x - intr.cx) * z / intr.f, (y - intr.cy) * z / intr.f, z])
            R = rotation_taking(scenegen.FRUSTUM_NORMALS[edge], normal, rng)
            pose = PoseSE3(R, q - R @ q_cam)
            assert assert_render_matches_every_plane(scene, pose) == 1
            hits += int(np.sum(render_every_plane(scene, pose) != BACKGROUND))
        assert 0 < hits < 200  # about three in four

    def test_planes_behind_the_camera_are_dropped(self):
        scene = gen_scene(ROOMS["one-wall"])  # the wall x = 5
        # the wall spans the image sideways but lies behind the camera
        pose = LOOKING_ALONG_MINUS_X
        corners = pose.world_to_camera(scene.planes[0].corners)
        assert (corners[:, 2] < 0).all()
        assert (scenegen.FRUSTUM_NORMALS @ corners.T > 0).any(axis=1).all()
        assert assert_render_matches_every_plane(scene, pose) == 0
        assert (render_image(scene, pose).data == BACKGROUND).all()

    def test_default_room_views_keep_at_most_half_their_planes(self):
        ds = build_dataset(DatasetConfig())
        kept = [len(scenegen._planes_in_view(ds.scene.planes, p)) for p in ds.poses.values()]
        assert 1 <= min(kept) and max(kept) <= len(ds.scene.planes) // 2

    def test_no_planes_raise(self):
        scene = gen_scene(scene_cfg(5, 50, 0))
        with pytest.raises(NoGeometryError):
            render_image(scene, PoseSE3.identity())


class TestCoVisibility:
    def test_single_view_point_not_corresponded(self):
        ds = build_dataset(small_cfg())
        first = {0: ds.observations[0]}
        graph = build_covis(first)
        assert graph.corresponded.dtype == np.int64 and graph.corresponded.tolist() == []
        index = build_multiview_index(ds.intrinsics, ds.poses, first, graph.corresponded)
        assert len(index.other_pos) == 0

    def test_example_three_images(self, intr):
        o = {
            i: SimpleNamespace(point_ids=np.array([7]), pixels=np.array([[i, 0.0]]))
            for i in (1, 2, 3)
        }
        graph = build_covis(o)
        assert graph.corresponded.dtype == np.int64 and graph.corresponded.tolist() == [7]
        poses = {i: PoseSE3.identity() for i in o}
        index = build_multiview_index(intr, poses, o, graph.corresponded)
        for i, others in ((1, [2, 3]), (2, [1, 3]), (3, [1, 2])):
            first, last = index.images[i].offsets
            assert index.image_ids[index.other_pos[first:last]].tolist() == others
            assert index.other_pixels[first:last, 0].tolist() == others

    def test_symmetry_exhaustive(self):
        ds = build_dataset(small_cfg())
        index = build_multiview_index(
            ds.intrinsics, ds.poses, ds.observations, ds.covis.corresponded
        )
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
        index = build_multiview_index(
            ds.intrinsics, ds.poses, ds.observations, ds.covis.corresponded
        )
        for i, obs in ds.observations.items():
            mask = np.isin(obs.point_ids, ds.covis.corresponded)
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
        index = build_multiview_index(ds.intrinsics, ds.poses, obs, graph.corresponded)
        assert len(index.images[2].offsets) == 1
        assert 2 not in index.image_ids[index.other_pos]

    def test_sparsify(self):
        ds = build_dataset(small_cfg())
        full = len(ds.covis.corresponded)
        sparse = sparsify_covis(ds.covis, 0.2, seed=1)
        assert len(sparse.corresponded) == round(full * 0.2)
        assert np.isin(sparse.corresponded, ds.covis.corresponded).all()
        assert (np.diff(sparse.corresponded) > 0).all()
        again = sparsify_covis(ds.covis, 0.2, seed=1)
        assert_same_bits(sparse.corresponded, again.corresponded)

    @pytest.mark.parametrize("bad", [1.5, -0.1, float("nan"), True, "0.5"])
    def test_sparsify_refuses_a_bad_fraction(self, bad):
        graph = build_covis(build_dataset(small_cfg()).observations)
        with pytest.raises(ConfigError, match="^keep_fraction must be in"):
            sparsify_covis(graph, bad, seed=1)

    @pytest.mark.parametrize("bad", [-1, 1.5, None, True, "3"])
    def test_sparsify_refuses_a_bad_seed(self, bad):
        graph = build_covis(build_dataset(small_cfg()).observations)
        with pytest.raises(ConfigError, match="^seed must be an integer >= 0, got "):
            sparsify_covis(graph, 0.5, seed=bad)


class TestDatasetBuild:
    def test_split_sizes_default(self):
        ds = build_dataset(DatasetConfig(seed=1))
        assert len(ds.train_ids) == 30
        assert len(ds.test_ids) == 10
        assert not set(ds.train_ids) & set(ds.test_ids)

    def test_descriptors_unit_norm_and_shared(self):
        ds = build_dataset(small_cfg(descriptor_noise_sigma=0.0))
        source = source_of(ds)
        assert all(o.descriptor_source is source for o in ds.observations.values())
        norms = np.linalg.norm(source.base, axis=1)
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
    h.update(source_of(ds).base.tobytes())
    h.update(repr((ds.train_ids, ds.test_ids, ds.diameter)).encode())
    # the point -> images map the package once stored, rebuilt from the observations
    h.update(repr(list(oracles.build_covis(ds.observations).point_to_images.items())).encode())
    h.update(repr(ds.covis.corresponded.tolist()).encode())
    return h.hexdigest()


# (config, digest) of the rooms that TestPinnedDatasets pins
PINNED_ROOMS = [
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
    # above CULL_MIN_POINTS: each pose draw projects only the cells in view
    (
        {"n_points": 60000, "n_images": 8},
        "d69393a4fb034fa7def3ada344acfc9d3adcf86217e2a42d821c8c87877edceb",
    ),
    # a small room, whose views see more walls; pinned before renders were culled
    (
        {"half_extent": 3.0, "n_points": 1000, "render_images": True, "n_images": 8},
        "bc1ee93293c7b631b085a3ff5c1a8749db324c5197b7f6b9924e0983b1c191c1",
    ),
]
PINNED_DATASETS = pytest.mark.parametrize(
    "kw, digest",
    PINNED_ROOMS,
    ids=[
        "default",
        "pixel-noise",
        "rendered",
        "photo-rendered",
        "panels-rendered",
        "dense",
        "small-room-rendered",
    ],
)


def drawn(ds):
    """Whether the base, and which views' descriptors, have been drawn."""
    views = [i for i, o in sorted(ds.observations.items()) if "descriptors" in vars(o)]
    return "base" in vars(source_of(ds)), views


class TestPinnedDatasets:
    """``build_dataset`` output pinned by digest, so that a faster build must
    reproduce the same rooms bit for bit. The digests also pin numpy's and
    the BLAS library's floating-point results (poses, projections, random
    normals), so a different build of either may change them."""

    @PINNED_DATASETS
    def test_digest(self, kw, digest):
        assert dataset_sha256(build_dataset(DatasetConfig(**kw))) == digest

    @PINNED_DATASETS
    def test_saved_and_loaded_room_has_the_digest(self, tmp_path, kw, digest):
        ds = load_dataset(save_dataset(build_dataset(DatasetConfig(**kw)), tmp_path / "room.json"))
        assert drawn(ds) == (False, [])
        assert dataset_sha256(ds) == digest

    @pytest.mark.parametrize(
        "kw, digest",
        [
            ({}, "0dbc726ca5565f0802df8f909b2b3c1a6f838109d547930edec48e097d6a3494"),
            (
                {"seed": 2, "covis_keep_fraction": 0.3},
                "22b657a78f53aa391246ce1e1919fddccc04318c04d3f5dc43aa160cbf18b632",
            ),
        ],
        ids=["default", "sparsified"],
    )
    def test_room_digest(self, kw, digest):
        """The ``sha256`` that a manifest holds, so that the manifests an
        earlier build saved still load."""
        assert room_digest(build_dataset(DatasetConfig(**kw))) == digest


class TestLazyDescriptors:
    """Neither ``build_dataset`` nor ``load_dataset`` draws a descriptor: a
    room's ``DescriptorSource`` draws the base and each view's noise on first
    read, each from its own stream, so the bits do not depend on what is read
    first."""

    @PINNED_DATASETS
    def test_views_read_in_reverse_give_the_pinned_digest(self, kw, digest):
        ds = build_dataset(DatasetConfig(**kw))
        assert drawn(ds) == (False, [])
        for i in sorted(ds.observations, reverse=True):
            ds.observations[i].descriptors
        assert dataset_sha256(ds) == digest

    def test_one_view_read_alone_has_the_pinned_bytes(self):
        kw, digest = PINNED_ROOMS[0]
        cfg = DatasetConfig(**kw)
        want = build_dataset(cfg)
        assert dataset_sha256(want) == digest
        for image_id in (0, 21, 39):
            ds = build_dataset(cfg)
            got = ds.observations[image_id].descriptors
            assert drawn(ds) == (True, [image_id])
            assert_same_bits(got, want.observations[image_id].descriptors)

    def test_loaded_room_reads_the_built_bytes_on_first_read(self, tmp_path):
        built = build_dataset(small_cfg(pixel_noise_sigma=0.5))
        ds = load_dataset(save_dataset(built, tmp_path / "room.json"))
        assert drawn(built) == drawn(ds) == (False, [])
        want = {i: o.descriptors for i, o in sorted(built.observations.items())}
        # the loaded room is read the other way round from the built one
        for i in sorted(ds.observations, reverse=True):
            assert_same_bits(ds.observations[i].descriptors, want[i])
        assert_same_bits(source_of(ds).base, source_of(built).base)

    def test_replaced_observation_reads_the_same_bytes(self):
        ds = build_dataset(small_cfg())
        obs = ds.observations[5]
        before = replace(obs, pixels=obs.pixels + 1.0)  # obs not read yet
        want = obs.descriptors
        after = replace(obs, pixels=obs.pixels + 1.0)
        for moved in (before, after):
            assert moved.descriptor_source is source_of(ds)
            assert_same_bits(moved.descriptors, want)


def replace_view(ds, image_id, **changes):
    ds.observations[image_id] = replace(ds.observations[image_id], **changes)


class TestDatasetIO:
    @pytest.fixture
    def path(self, tmp_path):
        ds = build_dataset(small_cfg(render_images=True))
        return save_dataset(ds, tmp_path / "room.json")

    def test_roundtrip_bit_identical(self, tmp_path):
        ds = build_dataset(small_cfg(render_images=True, pixel_noise_sigma=0.5))
        back = load_dataset(save_dataset(ds, tmp_path / "room.json"))
        assert back.config == ds.config and back.intrinsics == ds.intrinsics
        assert back.diameter == ds.diameter == ds.scene.diameter
        assert back.train_ids == ds.train_ids and back.test_ids == ds.test_ids
        assert_same_bits(back.covis.corresponded, ds.covis.corresponded)
        assert_same_bits(source_of(back).base, source_of(ds).base)
        for i, obs in ds.observations.items():
            b = back.observations[i]
            for name in ("point_ids", "pixels", "gt_coords", "descriptors"):
                assert_same_bits(getattr(b, name), getattr(obs, name))
            assert_same_bits(back.poses[i].as_matrix(), ds.poses[i].as_matrix())
        for i, img in ds.images.items():
            assert_same_bits(back.images[i].data, img.data)
        assert_same_bits(back.scene.points, ds.scene.points)

    def test_config_of_numpy_numbers_round_trips(self, tmp_path):
        # save_dataset raised "Object of type int64 is not JSON serializable"
        cfg = small_cfg(n_points=np.int64(150), half_extent=np.float32(5.0))
        assert type(cfg.n_points) is int and type(cfg.half_extent) is float
        assert load_dataset(save_dataset(build_dataset(cfg), tmp_path / "room.json")).config == cfg

    def test_saved_room_is_the_one_file_named(self, path):
        assert list(path.parent.iterdir()) == [path] and path.name == "room.json"
        blob = json.loads(path.read_text())
        assert sorted(blob) == ["config", "schema_version", "sha256"]
        assert blob["schema_version"] == scenegen.SCHEMA_VERSION == 3
        assert blob["config"] == asdict(small_cfg(render_images=True))
        assert blob["sha256"] == room_digest(load_dataset(path))

    def test_room_digest_draws_no_descriptor(self):
        ds = build_dataset(small_cfg())
        room_digest(ds)
        assert drawn(ds) == (False, [])

    def test_image_is_grayscale_only(self):
        for shape in ((5, 6, 3), (5, 6, 1)):
            with pytest.raises(ValueError, match=r"\(H, W\)"):
                Image(np.zeros(shape))

    @pytest.mark.parametrize("how", ["missing", "directory", "not-utf-8"])
    def test_missing_or_unreadable_manifest_raises_parse_error(self, path, how):
        path.unlink()
        if how == "directory":
            path.mkdir()
        elif how == "not-utf-8":
            path.write_bytes(b"\xff\xfe{}")
        with pytest.raises(ParseError, match="cannot read the manifest") as exc:
            load_dataset(path)
        assert exc.value.path == path and str(path) in str(exc.value)

    @pytest.mark.parametrize("text", ["[1, 2]", "{not json", "null", '"room"'])
    def test_manifest_that_is_no_json_object_raises_parse_error(self, path, text):
        path.write_text(text)
        with pytest.raises(ParseError) as exc:
            load_dataset(path)
        assert exc.value.path == path

    @pytest.mark.parametrize(
        "edit",
        [
            pytest.param(lambda m: m.pop("config"), id="manifest-no-config"),
            pytest.param(lambda m: m.pop("sha256"), id="manifest-no-sha256"),
            pytest.param(lambda m: m.update(config=[3, 150]), id="manifest-config-list"),
            pytest.param(
                lambda m: m["config"].update(bogus=1), id="manifest-unknown-config-key"
            ),
            # values DatasetConfig refuses
            pytest.param(
                lambda m: m["config"].update(free_space_fraction=2.0),
                id="manifest-free_space_fraction-2.0",
            ),
            pytest.param(
                lambda m: m["config"].update(free_space_fraction=True),
                id="manifest-free_space_fraction-true",
            ),
            pytest.param(
                lambda m: m["config"].update(descriptor_noise_sigma=-0.5),
                id="manifest-descriptor_noise_sigma--0.5",
            ),
            pytest.param(
                lambda m: m["config"].update(render_images="no"), id="manifest-render_images-no"
            ),
            # a count DatasetConfig refuses
            pytest.param(
                lambda m: m["config"].update(n_points=150.5), id="manifest-n_points-150.5"
            ),
            # these two raised a bare OverflowError
            pytest.param(
                lambda m: m["config"].update(n_points=10**400), id="manifest-n_points-1e400"
            ),
            pytest.param(
                lambda m: m["config"].update(half_extent=10**400), id="manifest-half_extent-1e400"
            ),
            # a bare NoGeometryError from render_image
            pytest.param(
                lambda m: m["config"].update(n_planes=0, render_images=True),
                id="manifest-render_images-without-planes",
            ),
        ],
    )
    def test_malformed_json_contents_raise_parse_error(self, path, edit):
        blob = json.loads(path.read_text())
        edit(blob)
        path.write_text(json.dumps(blob))
        with pytest.raises(ParseError, match="malformed contents") as exc:
            load_dataset(path)
        assert exc.value.path == path

    @pytest.mark.parametrize(
        "change, why",
        [
            # the room has 150 points
            pytest.param(dict(min_visible=1000), "no viewpoint with >= 1000", id="min_visible"),
            # gen_scene raised a bare ValueError
            pytest.param(
                dict(half_extent=2.03),
                "half_extent 2.03 leaves too little free space",
                id="half_extent-2.03",
            ),
            pytest.param(
                dict(half_extent=1e77),
                "half_extent 1e\\+77 gives walls whose area overflows a float",
                id="half_extent-1e77",
            ),
            # gen_scene raised a bare ValueError after a RuntimeWarning
            *(
                pytest.param(
                    dict(half_extent=h, free_space_fraction=0.0),
                    f"half_extent 1e-{e} gives walls whose area underflows to 0",
                    id=f"half_extent-1e-{e}",
                )
                for h, e in ((1e-100, 100), (1e-300, 300))
            ),
        ],
    )
    def test_config_that_cannot_be_built_raises_parse_error(self, path, change, why):
        blob = json.loads(path.read_text())
        blob["config"].update(change)
        path.write_text(json.dumps(blob))
        with pytest.raises(ParseError, match=rf"^cannot rebuild the room \({why}") as exc:
            load_dataset(path)
        assert exc.value.path == path

    def test_manifest_of_schema_version_1_raises_parse_error(self, path):
        # version 1 carried the camera, orbit and descriptor width in its
        # config, and the base descriptors in descriptors.txt
        blob = json.loads(path.read_text())
        blob["schema_version"] = 1
        blob["config"].update(
            focal=40.0, width=80, height=60, orbit_radius=1.6, radius_jitter=0.3,
            height_jitter=0.5, yaw_jitter_deg=8.0, pitch_jitter_deg=14.0, descriptor_dim=16,
        )
        path.write_text(json.dumps(blob))
        with pytest.raises(ParseError, match="unsupported schema version 1") as exc:
            load_dataset(path)
        assert exc.value.path == path and str(path) in str(exc.value)

    def test_manifest_of_schema_version_2_raises_parse_error(self, path):
        # version 2 held the image ids, split and diameter, with a text file
        # per pose and view, covis.json and 16-bit PGM renders beside it
        blob = json.loads(path.read_text())
        del blob["sha256"]
        ds = build_dataset(DatasetConfig(**blob["config"]))
        blob.update(
            schema_version=2,
            image_ids=sorted(ds.observations),
            train_ids=ds.train_ids,
            test_ids=ds.test_ids,
            diameter=ds.diameter,
            has_images=sorted(ds.images),
        )
        path.write_text(json.dumps(blob))
        with pytest.raises(ParseError, match="^unsupported schema version 2 in ") as exc:
            load_dataset(path)
        assert exc.value.path == path and str(path) in str(exc.value)

    def test_manifest_without_a_schema_version_raises_parse_error(self, path):
        blob = json.loads(path.read_text())
        del blob["schema_version"]
        path.write_text(json.dumps(blob))
        with pytest.raises(ParseError, match="^unsupported schema version None in ") as exc:
            load_dataset(path)
        assert exc.value.path == path

    @staticmethod
    def assert_refused_as_another_room(path):
        with pytest.raises(ParseError, match="differs from the saved one") as exc:
            load_dataset(path)
        assert exc.value.path == path

    def test_edited_digest_raises_parse_error(self, path):
        blob = json.loads(path.read_text())
        blob["sha256"] = blob["sha256"][:-1] + ("0" if blob["sha256"][-1] != "0" else "1")
        path.write_text(json.dumps(blob))
        self.assert_refused_as_another_room(path)

    def test_other_seed_with_the_old_digest_raises_parse_error(self, tmp_path):
        # seed 3 would build, so only the digest refuses the room (seed 4,
        # one more than small_cfg's, finds no viewpoint at this size)
        path = save_dataset(build_dataset(small_cfg(seed=2)), tmp_path / "room.json")
        blob = json.loads(path.read_text())
        blob["config"]["seed"] += 1
        path.write_text(json.dumps(blob))
        self.assert_refused_as_another_room(path)

    @pytest.mark.parametrize(
        "edit",
        [
            pytest.param(
                lambda ds: replace_view(ds, 3, pixels=ds.observations[3].pixels + 0.5),
                id="pixels",
            ),
            pytest.param(
                lambda ds: replace_view(ds, 3, gt_coords=ds.observations[3].gt_coords * 2.0),
                id="gt_coords",
            ),
            pytest.param(lambda ds: ds.poses.update({2: PoseSE3.identity()}), id="pose"),
            pytest.param(
                lambda ds: ds.images.update({1: Image(ds.images[1].data[::-1])}), id="render"
            ),
            pytest.param(lambda ds: ds.test_ids.pop(), id="split"),
            pytest.param(
                lambda ds: setattr(ds.covis, "corresponded", ds.covis.corresponded[1:]),
                id="corresponded",
            ),
        ],
    )
    def test_room_changed_before_the_save_raises_parse_error(self, tmp_path, edit):
        ds = build_dataset(small_cfg(render_images=True))
        edit(ds)
        self.assert_refused_as_another_room(save_dataset(ds, tmp_path / "room.json"))
