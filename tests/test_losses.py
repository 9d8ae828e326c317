"""Loss-function tests: values, analytic gradients vs finite differences,
pathology behavior, and the composite losses.

The finite-difference oracle is the independent check for every gradient:
central differences with step 1e-6 on the scene coordinate, compared at
relative error 1e-4.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from anglereloc.geometry import (
    DepthStatus,
    PoseSE3,
    depth_statuses,
    ray_vector,
    ray_vectors,
    rotation_about_axis,
)
from anglereloc.losses import (
    IndexMismatchError,
    DimensionMismatchError,
    LossConfig,
    MissingPoseError,
    PredictionGrid,
    angle_point,
    angle_terms,
    bilinear_sample,
    bilinear_values_and_grads,
    build_multiview_index,
    multiview_image_loss,
    photometric_image_loss,
    reproj_point,
    reproj_terms,
    ssim3x3,
)
from anglereloc.scenegen import DatasetConfig, build_dataset

from conftest import random_pose


def fd_grad(f, y, h=1e-6):
    g = np.zeros(3)
    for a in range(3):
        e = np.zeros(3)
        e[a] = h
        g[a] = (f(y + e) - f(y - e)) / (2 * h)
    return g


def rel_err(analytic, numeric):
    return np.linalg.norm(analytic - numeric) / max(np.linalg.norm(numeric), 1e-12)


def point_on_ray(pose, intr, pixel, depth_scale):
    """World point at D = depth_scale * ray(pixel)."""
    return pose.camera_to_world(depth_scale * ray_vector(intr, pixel))


def neighbor_pose(pose, rng, trans=0.15, rot_deg=2.0):
    """Small rigid motion away from ``pose``, like an adjacent video frame."""
    axis = rng.normal(size=3)
    delta = PoseSE3(
        rotation_about_axis(axis, np.radians(rot_deg)),
        rng.uniform(-trans, trans, size=3),
    )
    return pose.compose(delta)


class TestReprojPoint:
    def test_exact_prediction_is_zero(self, intr, rng):
        pose = random_pose(rng)
        pixel = rng.uniform(10, 90, size=2)
        y = point_on_ray(pose, intr, pixel, 0.03)
        term = reproj_point(intr, pose, y, pixel)
        assert term.value < 1e-9
        assert term.depth_status == DepthStatus.IN_FRONT

    def test_antipodal_prediction_also_zero(self, intr, rng):
        # the behind-camera pathology: zero loss for a geometrically wrong point
        pose = random_pose(rng)
        pixel = rng.uniform(10, 90, size=2)
        y = point_on_ray(pose, intr, pixel, -0.05)
        term = reproj_point(intr, pose, y, pixel)
        assert term.value < 1e-9
        assert term.depth_status == DepthStatus.BEHIND

    def test_near_plane_goes_nonfinite_not_raising(self, intr):
        # identity pose keeps Z exactly zero: the division is genuinely singular
        term = reproj_point(
            intr, PoseSE3.identity(), np.array([1.0, 1.0, 0.0]), np.array([20.0, 30.0])
        )
        assert not np.isfinite(term.value)
        assert term.depth_status == DepthStatus.NEAR_PLANE

    def test_near_plane_value_explodes(self, intr, rng):
        # just off the camera plane the raw loss is astronomically large
        pose = random_pose(rng)
        y = pose.camera_to_world(np.array([1.0, 1.0, 1e-12]))
        term = reproj_point(intr, pose, y, np.array([20.0, 30.0]))
        assert term.value > 1e10 or not np.isfinite(term.value)

    def test_gradient_matches_finite_differences(self, intr, rng):
        for _ in range(60):
            pose = random_pose(rng)
            pixel = rng.uniform(0, 100, size=2)
            D = rng.uniform(-3, 3, size=3)
            D[2] = rng.uniform(0.5, 10.0) * rng.choice([-1.0, 1.0])
            y = pose.camera_to_world(D)
            term = reproj_point(intr, pose, y, pixel)
            fd = fd_grad(lambda v: reproj_point(intr, pose, v, pixel).value, y)
            assert rel_err(term.grad, fd) < 1e-4


class TestAnglePoint:
    def test_forward_ray_is_zero_any_depth(self, intr, rng):
        pose = random_pose(rng)
        pixel = rng.uniform(0, 100, size=2)
        for s in (0.01, 1.0, 250.0):
            term = angle_point(intr, pose, point_on_ray(pose, intr, pixel, s), pixel)
            assert term.value < 1e-8

    def test_antipodal_chord_is_diameter(self, intr, rng):
        pose = random_pose(rng)
        pixel = rng.uniform(0, 100, size=2)
        nd = np.linalg.norm(ray_vector(intr, pixel))
        for s in (0.2, 1.0, 31.0):
            term = angle_point(intr, pose, point_on_ray(pose, intr, pixel, -s), pixel)
            assert abs(term.value - 2 * nd) < 1e-9 * nd
            assert term.depth_status == DepthStatus.BEHIND

    def test_right_angle_chord(self, intr):
        pose = PoseSE3.identity()
        pixel = np.array([intr.cx, intr.cy])  # ray = (0, 0, f)
        nd = intr.f
        y = np.array([3.0, 0.0, 0.0])  # 90 degrees off the optical axis
        term = angle_point(intr, pose, y, pixel)
        assert abs(term.value - np.sqrt(2) * nd) < 1e-9 * nd
        assert abs(term.angle_theta - np.pi / 2) < 1e-12

    def test_chord_identity(self, intr, rng):
        for _ in range(40):
            pose = random_pose(rng)
            pixel = rng.uniform(0, 100, size=2)
            y = rng.uniform(-8, 8, size=3)
            term = angle_point(intr, pose, y, pixel)
            nd = np.linalg.norm(ray_vector(intr, pixel))
            chord = 2 * nd * np.sin(term.angle_theta / 2)
            assert abs(term.value - chord) <= 1e-9 * max(chord, 1.0)

    def test_bounded_by_diameter(self, intr, rng):
        pose = random_pose(rng)
        for _ in range(200):
            pixel = rng.uniform(-50, 150, size=2)
            y = rng.uniform(-50, 50, size=3)
            term = angle_point(intr, pose, y, pixel)
            nd = np.linalg.norm(ray_vector(intr, pixel))
            assert term.value <= 2 * nd + 1e-9
            assert np.all(np.isfinite(term.grad))

    def test_finite_at_camera_center(self, intr, rng):
        pose = random_pose(rng)
        term = angle_point(intr, pose, pose.center.copy(), np.array([10.0, 20.0]))
        assert np.isfinite(term.value)
        assert np.all(np.isfinite(term.grad))

    def test_approximates_reproj_near_ground_truth(self, intr, rng):
        # close-to-truth predictions: both losses nearly agree (1% at 1e-3).
        # The agreement degrades with the off-axis angle of the observed ray
        # (the image-plane metric stretches radial displacements), so the
        # guarantee is checked where it holds: rays near the optical axis.
        pose = random_pose(rng)
        pixel = np.array([55.0, 53.0])
        gt = point_on_ray(pose, intr, pixel, 5.0 / intr.f)  # GT depth Z = 5
        for _ in range(20):
            u = rng.normal(size=3)
            u /= np.linalg.norm(u)
            y = gt + 1e-3 * 5.0 * u
            a = angle_point(intr, pose, y, pixel).value
            r = reproj_point(intr, pose, y, pixel).value
            assert abs(a - r) / r < 1e-2

    def test_gap_shrinks_linearly(self, intr, rng):
        # |L_ang - L_rep| decays linearly with the perturbation size, while
        # the ratio to L_rep stays small for near-axis rays
        pose = random_pose(rng)
        abs_gaps, rel_gaps = [], []
        for eps in (1e-2, 1e-3, 1e-4):
            a_gap, r_gap = [], []
            for _ in range(100):
                r = 10.0 * np.sqrt(rng.uniform())
                ang = rng.uniform(0, 2 * np.pi)
                pixel = np.array([50 + r * np.cos(ang), 50 + r * np.sin(ang)])
                depth = rng.uniform(1.0, 10.0)
                gt = point_on_ray(pose, intr, pixel, depth / intr.f)
                u = rng.normal(size=3)
                u /= np.linalg.norm(u)
                y = gt + eps * depth * u
                a = angle_point(intr, pose, y, pixel).value
                rr = reproj_point(intr, pose, y, pixel).value
                a_gap.append(abs(a - rr))
                r_gap.append(abs(a - rr) / rr)
            abs_gaps.append(np.mean(a_gap))
            rel_gaps.append(np.mean(r_gap))
        assert rel_gaps[1] <= 1e-2
        assert abs_gaps[1] <= abs_gaps[0] / 5
        assert abs_gaps[2] <= abs_gaps[1] / 5

    def test_gradient_matches_finite_differences(self, intr, rng):
        for _ in range(60):
            pose = random_pose(rng)
            pixel = rng.uniform(0, 100, size=2)
            y = rng.uniform(-8, 8, size=3)
            if np.linalg.norm(pose.world_to_camera(y)) < 1e-3:
                continue
            term = angle_point(intr, pose, y, pixel)
            fd = fd_grad(lambda v: angle_point(intr, pose, v, pixel).value, y)
            assert rel_err(term.grad, fd) < 1e-4

    def test_zero_set_characterization(self, intr, rng):
        # angle loss vanishes only on the forward ray; reproj on both sides
        pose = random_pose(rng)
        pixel = rng.uniform(10, 90, size=2)
        front = point_on_ray(pose, intr, pixel, 0.04)
        back = point_on_ray(pose, intr, pixel, -0.04)
        assert angle_point(intr, pose, front, pixel).value < 1e-8
        assert angle_point(intr, pose, back, pixel).value > 1.0
        assert reproj_point(intr, pose, front, pixel).value < 1e-9
        assert reproj_point(intr, pose, back, pixel).value < 1e-9


def make_obs(rng, pose, intr, n, depth_lo=0.5, depth_hi=5.0):
    pixels = rng.uniform(5, 95, size=(n, 2))
    scales = rng.uniform(depth_lo, depth_hi, size=n) / intr.f
    coords = np.array(
        [
            pose.camera_to_world(s * ray_vector(intr, p))
            for p, s in zip(pixels, scales)
        ]
    )
    ids = np.arange(n)
    return SimpleNamespace(point_ids=ids, pixels=pixels), coords


class TestImageLoss:
    """The per-point kernels over one image's observations."""

    def test_exact_predictions_zero_total(self, intr, rng):
        pose = random_pose(rng)
        obs, coords = make_obs(rng, pose, intr, 12)
        for kernel in (reproj_terms, angle_terms):
            values, grads, statuses, _ = kernel(intr, pose, coords, obs.pixels)
            assert np.all(np.isfinite(values)) and np.all(np.isfinite(grads))
            assert np.sum(values) < 1e-7
            assert np.sum(statuses == int(DepthStatus.BEHIND)) == 0

    def test_antipodal_total_is_sum_of_diameters(self, intr, rng):
        pose = random_pose(rng)
        obs, coords = make_obs(rng, pose, intr, 9)
        flipped = np.array(
            [2 * pose.center - c for c in coords]  # reflect through the camera center
        )
        values, _, statuses, _ = angle_terms(intr, pose, flipped, obs.pixels)
        expected = sum(
            2 * np.linalg.norm(ray_vector(intr, p)) for p in obs.pixels
        )
        assert abs(np.sum(values) - expected) < 1e-9 * expected
        assert np.sum(statuses == int(DepthStatus.BEHIND)) == 9


class _Covis:
    def __init__(self, mapping):
        self.mapping = mapping

    def other_images(self, point_id, image_id):
        return tuple(j for j in self.mapping.get(int(point_id), ()) if j != image_id)


class TestMultiviewLoss:
    def _two_view_setup(self, rng, intr, n=8, covis_points=()):
        pose0 = random_pose(rng)
        pose1 = neighbor_pose(pose0, rng)
        obs0, coords = make_obs(rng, pose0, intr, n, depth_lo=2.0, depth_hi=4.0)
        pix1 = []
        for c in coords:
            d = pose1.world_to_camera(c)
            pix1.append([intr.f * d[0] / d[2] + intr.cx, intr.f * d[1] / d[2] + intr.cy])
        obs1 = SimpleNamespace(point_ids=obs0.point_ids.copy(), pixels=np.array(pix1))
        poses = {0: pose0, 1: pose1}
        obs_by_img = {0: obs0, 1: obs1}
        covis = _Covis({k: (0, 1) for k in covis_points})
        return poses, obs_by_img, covis, coords

    def test_no_correspondences_reduces_to_angle_loss(self, intr, rng):
        poses, obs_by_img, covis, coords = self._two_view_setup(rng, intr)
        preds = PredictionGrid(obs_by_img[0].point_ids, rng.uniform(-5, 5, size=(8, 3)))
        multi = multiview_image_loss(
            intr,
            build_multiview_index(poses, obs_by_img, covis),
            0,
            preds,
            rng=np.random.default_rng(3),
        )
        values, grads, _, _ = angle_terms(
            intr, poses[0], preds.coords, obs_by_img[0].pixels
        )
        assert np.array_equal(multi.values, values)
        assert np.array_equal(multi.grads, grads)

    def test_triangulated_point_zero_in_both_views(self, intr, rng):
        poses, obs_by_img, covis, coords = self._two_view_setup(
            rng, intr, covis_points=range(8)
        )
        preds = PredictionGrid(obs_by_img[0].point_ids, coords)
        rep = multiview_image_loss(
            intr,
            build_multiview_index(poses, obs_by_img, covis),
            0,
            preds,
            rng=np.random.default_rng(3),
        )
        assert rep.total < 1e-6

    def test_hand_assembled_sum_one_covisible_point(self, intr, rng):
        cfg = LossConfig(lambda_multiview=60.0)
        poses, obs_by_img, covis, coords = self._two_view_setup(
            rng, intr, covis_points=(2,)
        )
        preds_arr = rng.uniform(-5, 5, size=(8, 3))
        preds = PredictionGrid(obs_by_img[0].point_ids, preds_arr)
        rep = multiview_image_loss(
            intr,
            build_multiview_index(poses, obs_by_img, covis),
            0,
            preds,
            cfg,
            np.random.default_rng(9),
        )
        # with two images, the drawn extra view for point 2 can only be image 1
        expected = 0.0
        for k in range(8):
            t0 = angle_point(intr, poses[0], preds_arr[k], obs_by_img[0].pixels[k], cfg)
            if k == 2:
                t1 = angle_point(intr, poses[1], preds_arr[k], obs_by_img[1].pixels[k], cfg)
                expected += 60.0 * (t0.value + t1.value)
            else:
                expected += t0.value
        assert abs(rep.total - expected) < 1e-9 * expected

    def test_missing_pose_raises(self, intr, rng):
        poses, obs_by_img, covis, coords = self._two_view_setup(
            rng, intr, covis_points=(0,)
        )
        del poses[1]
        preds = PredictionGrid(obs_by_img[0].point_ids, coords)
        with pytest.raises(MissingPoseError):
            multiview_image_loss(
                intr,
                build_multiview_index(poses, obs_by_img, covis),
                0,
                preds,
                rng=np.random.default_rng(0),
            )

    def test_missing_pose_of_undrawn_image_is_fine(self, intr, rng):
        # image 1 lacks a pose, but no point of image 0 can draw it
        poses, obs_by_img, covis, coords = self._two_view_setup(rng, intr)
        del poses[1]
        preds = PredictionGrid(obs_by_img[0].point_ids, coords)
        index = build_multiview_index(poses, obs_by_img, covis)
        rep = multiview_image_loss(intr, index, 0, preds, rng=np.random.default_rng(0))
        assert rep.total < 1e-6

    def test_index_mismatch_raises(self, intr, rng):
        poses, obs_by_img, covis, coords = self._two_view_setup(rng, intr)
        index = build_multiview_index(poses, obs_by_img, covis)
        grid = PredictionGrid(obs_by_img[0].point_ids + 1, coords)
        with pytest.raises(IndexMismatchError, match="point sets differ"):
            multiview_image_loss(intr, index, 0, grid, rng=np.random.default_rng(0))

    def test_inconsistent_covis_raises_index_mismatch(self, intr, rng):
        poses, obs_by_img, covis, coords = self._two_view_setup(
            rng, intr, covis_points=(0, 3)
        )
        keep = obs_by_img[1].point_ids != 3
        obs_by_img[1] = SimpleNamespace(
            point_ids=obs_by_img[1].point_ids[keep], pixels=obs_by_img[1].pixels[keep]
        )
        with pytest.raises(IndexMismatchError, match="image 1 sees point 3"):
            build_multiview_index(poses, obs_by_img, covis)
        # an image with no observations at all
        with pytest.raises(IndexMismatchError, match="image 5 sees point 4"):
            build_multiview_index(poses, obs_by_img, _Covis({4: (0, 5)}))

    def test_gradient_matches_finite_differences(self, intr, rng):
        cfg = LossConfig(lambda_multiview=60.0)
        poses, obs_by_img, covis, coords = self._two_view_setup(
            rng, intr, covis_points=(1, 4, 6)
        )
        preds_arr = rng.uniform(-5, 5, size=(8, 3))

        def total_for(arr):
            grid = PredictionGrid(obs_by_img[0].point_ids, arr)
            return multiview_image_loss(
                intr,
                build_multiview_index(poses, obs_by_img, covis),
                0,
                grid,
                cfg,
                np.random.default_rng(5),
            )

        rep = total_for(preds_arr)
        for k in (0, 1, 4):
            def f(v, k=k):
                arr = preds_arr.copy()
                arr[k] = v
                return total_for(arr).total

            fd = fd_grad(f, preds_arr[k].copy())
            assert rel_err(rep.grads[k], fd) < 1e-4


class TestBilinearSample:
    def test_integer_coordinates_exact(self, rng):
        img = rng.uniform(size=(6, 7))
        for _ in range(10):
            iy, ix = rng.integers(6), rng.integers(7)
            s = bilinear_sample(img, np.array([ix, iy], dtype=float))
            assert s.valid
            assert s.value == img[iy, ix]

    def test_block_center_is_mean(self, rng):
        img = rng.uniform(size=(2, 2))
        s = bilinear_sample(img, np.array([0.5, 0.5]))
        assert abs(s.value - img.mean()) < 1e-15

    def test_outside_invalid(self, rng):
        img = rng.uniform(size=(4, 4))
        for q in ([-0.1, 1.0], [1.0, 3.2], [5.0, 1.0]):
            s = bilinear_sample(img, np.array(q))
            assert not s.valid
            assert s.value == 0.0

    def test_gradient_matches_finite_differences(self, rng):
        img = rng.uniform(size=(16, 16))
        for _ in range(40):
            # keep away from the integer lattice where the gradient jumps
            q = rng.integers(1, 14, size=2) + rng.uniform(0.2, 0.8, size=2)
            _, grads, _ = bilinear_values_and_grads(img, q[None, :])
            fd = np.zeros(2)
            for a in range(2):
                e = np.zeros(2)
                e[a] = 1e-6
                fd[a] = (
                    bilinear_sample(img, q + e).value
                    - bilinear_sample(img, q - e).value
                ) / 2e-6
            assert np.linalg.norm(grads[0] - fd) < 1e-6


class TestSsim3x3:
    def test_self_similarity_is_one(self, rng):
        img = rng.uniform(size=(10, 12))
        m, _ = ssim3x3(img, img)
        np.testing.assert_allclose(m, 1.0, atol=1e-12)

    def test_equal_constants(self):
        a = np.full((8, 8), 0.5)
        m, _ = ssim3x3(a, a.copy())
        np.testing.assert_allclose(m, 1.0, atol=1e-12)

    def test_distinct_constants_closed_form(self):
        a = np.full((9, 9), 0.25)
        b = np.full((9, 9), 0.75)
        m, _ = ssim3x3(a, b)
        c1, c2 = 0.01**2, 0.03**2
        expected = (2 * 0.25 * 0.75 + c1) * c2 / ((0.25**2 + 0.75**2 + c1) * c2)
        # interior only: border windows see zero padding
        np.testing.assert_allclose(m[1:-1, 1:-1], expected, atol=1e-12)

    def test_map_range(self, rng):
        a, b = rng.uniform(size=(12, 12)), rng.uniform(size=(12, 12))
        m, _ = ssim3x3(a, b)
        assert np.all(m <= 1.0 + 1e-12) and np.all(m >= -1.0 - 1e-12)

    def test_gradient_matches_finite_differences(self, rng):
        a, b = rng.uniform(size=(7, 7)), rng.uniform(size=(7, 7))
        _, grad = ssim3x3(a, b)
        for _ in range(15):
            iy, ix = rng.integers(7), rng.integers(7)
            h = 1e-7
            ap, am = a.copy(), a.copy()
            ap[iy, ix] += h
            am[iy, ix] -= h
            fd = (ssim3x3(ap, b)[0].sum() - ssim3x3(am, b)[0].sum()) / (2 * h)
            assert abs(grad[iy, ix] - fd) < 1e-6

    def test_dimension_mismatch(self, rng):
        with pytest.raises(DimensionMismatchError):
            ssim3x3(np.zeros((4, 4)), np.zeros((4, 5)))


def smooth_image(rng, h, w):
    """Band-limited random image in [0, 1]: sum of a few sinusoids."""
    yy, xx = np.mgrid[0:h, 0:w]
    img = np.zeros((h, w))
    for _ in range(6):
        fx, fy = rng.uniform(0.02, 0.2, size=2)
        phase = rng.uniform(0, 2 * np.pi)
        img += rng.uniform(0.2, 1.0) * np.sin(2 * np.pi * (fx * xx + fy * yy) + phase)
    img -= img.min()
    return img / img.max()


class TestPhotometricLoss:
    def _setup(self, rng, intr, n=10):
        pose_i = random_pose(rng, t_scale=0.5)
        pose_j = neighbor_pose(pose_i, rng)
        obs, coords = make_obs(rng, pose_i, intr, n, depth_lo=3.0, depth_hi=6.0)
        obs.pixels = np.clip(obs.pixels, 6, 94)  # keep 3x3 target windows inside
        img_i = smooth_image(rng, 101, 101)
        img_j = smooth_image(rng, 101, 101)
        return pose_j, obs, coords, img_i, img_j

    def test_alpha_zero_reduces_to_l1(self, intr, rng):
        cfg = LossConfig(alpha_ssim=0.0)
        pose_j, obs, coords, img_i, img_j = self._setup(rng, intr)
        grid = PredictionGrid(obs.point_ids, coords)
        rep = photometric_image_loss(intr, pose_j, grid, obs, img_i, img_j, cfg)
        d_j = pose_j.world_to_camera(coords)
        for idx in np.flatnonzero(rep.valid_mask):
            q = intr.f * d_j[idx, :2] / d_j[idx, 2] + np.array([intr.cx, intr.cy])
            l1 = abs(
                bilinear_sample(img_j, q).value
                - bilinear_sample(img_i, obs.pixels[idx]).value
            )
            assert abs(rep.values[idx] - l1) < 1e-12

    def test_all_out_of_bounds_masks_everything(self, intr, rng):
        pose_j, obs, coords, img_i, img_j = self._setup(rng, intr)
        # push every prediction behind the neighbor camera
        flipped = np.array([2 * pose_j.center - c for c in coords])
        grid = PredictionGrid(obs.point_ids, flipped)
        rep = photometric_image_loss(intr, pose_j, grid, obs, img_i, img_j)
        assert rep.total == 0.0
        assert rep.valid_fraction == 0.0

    def test_gradient_matches_finite_differences(self, intr, rng):
        pose_j, obs, coords, img_i, img_j = self._setup(rng, intr)
        grid = PredictionGrid(obs.point_ids, coords)
        rep = photometric_image_loss(intr, pose_j, grid, obs, img_i, img_j)
        checked = 0
        for idx in np.flatnonzero(rep.valid_mask)[:6]:
            def f(v, idx=idx):
                arr = coords.copy()
                arr[idx] = v
                g = PredictionGrid(obs.point_ids, arr)
                out = photometric_image_loss(intr, pose_j, g, obs, img_i, img_j)
                return out.values[idx]

            fd = fd_grad(f, coords[idx].copy())
            if np.linalg.norm(fd) < 1e-8:
                continue
            assert rel_err(rep.grads[idx], fd) < 1e-4
            checked += 1
        assert checked >= 3

    def test_index_mismatch_raises(self, intr, rng):
        pose_j, obs, coords, img_i, img_j = self._setup(rng, intr)
        grid = PredictionGrid(obs.point_ids + 1, coords)
        with pytest.raises(IndexMismatchError, match="point sets differ"):
            photometric_image_loss(intr, pose_j, grid, obs, img_i, img_j)

    def test_dimension_mismatch(self, intr, rng):
        pose_j, obs, coords, img_i, img_j = self._setup(rng, intr)
        grid = PredictionGrid(obs.point_ids, coords)
        with pytest.raises(DimensionMismatchError):
            photometric_image_loss(
                intr, pose_j, grid, obs, img_i, img_j[:-3], LossConfig()
            )


# ---------------------------------------------------------------------------
# Equivalence with the per-point kernels the vectorized ones replaced
# ---------------------------------------------------------------------------


def _angle_terms_reference(intr, pose, preds, pixels, eps_norm=1e-8):
    """The angle kernel as it stood before the vectorized composite losses."""
    preds = np.asarray(preds, dtype=np.float64)
    pixels = np.asarray(pixels, dtype=np.float64)
    R = pose.rotation
    D = pose.world_to_camera(preds)
    rays = ray_vectors(intr, pixels)
    norms_d = np.linalg.norm(rays, axis=1)
    norms_D_raw = np.linalg.norm(D, axis=1)
    norms_D = np.maximum(norms_D_raw, eps_norm)
    scale = norms_d / norms_D
    g = scale[:, None] * D - rays
    values = np.linalg.norm(g, axis=1)
    with np.errstate(invalid="ignore"):
        ghat = np.where(values[:, None] > 0, g / values[:, None], 0.0)
    grad_D = scale[:, None] * ghat
    free = norms_D_raw > eps_norm
    dot = np.sum(D * ghat, axis=1)
    grad_D[free] -= (norms_d[free] * dot[free] / norms_D[free] ** 3)[:, None] * D[free]
    grads = grad_D @ R.T
    with np.errstate(invalid="ignore", divide="ignore"):
        cosines = np.sum(D * rays, axis=1) / (np.maximum(norms_D_raw, 1e-300) * norms_d)
    thetas = np.arccos(np.clip(cosines, -1.0, 1.0))
    return values, grads, depth_statuses(D[:, 2]), thetas


def _multiview_reference(intr, poses, image_id, predictions, obs_by_img, covis, cfg, rng):
    """Per-point multi-view loop with per-neighbor lookup dicts. Returns the
    report's (values, grads, statuses) and the neighbor drawn per row (-1
    where the row has no correspondence)."""
    obs_i = obs_by_img[image_id]
    values, grads, statuses, _ = _angle_terms_reference(
        intr, poses[image_id], predictions.coords, obs_i.pixels, cfg.epsilon_norm
    )
    point_ids = np.asarray(predictions.point_ids)
    drawn = np.full(len(point_ids), -1)
    extra: dict = {}
    for row, k in enumerate(point_ids):
        others = covis.other_images(k, image_id)
        if len(others) == 0:
            continue
        m = others[int(rng.integers(len(others)))]
        drawn[row] = m
        extra.setdefault(m, []).append(row)
    if extra:
        lam = cfg.lambda_multiview
        corresponded = np.concatenate([np.array(v) for v in extra.values()])
        values[corresponded] *= lam
        grads[corresponded] *= lam
        for m, rows in extra.items():
            obs_m = obs_by_img[m]
            lookup = {k: r for r, k in enumerate(np.asarray(obs_m.point_ids))}
            rows = np.array(rows)
            pix_m = np.array([obs_m.pixels[lookup[point_ids[r]]] for r in rows])
            v_m, g_m, _, _ = _angle_terms_reference(
                intr, poses[m], predictions.coords[rows], pix_m, cfg.epsilon_norm
            )
            values[rows] += lam * v_m
            grads[rows] += lam * g_m
    return values, grads, statuses, drawn


def _ssim_window_reference(a, b):
    n = a.size
    mu_a, mu_b = a.mean(), b.mean()
    var_a = np.mean(a * a) - mu_a**2
    var_b = np.mean(b * b) - mu_b**2
    cov = np.mean(a * b) - mu_a * mu_b
    n1 = 2 * mu_a * mu_b + 0.01**2
    n2 = 2 * cov + 0.03**2
    d1 = mu_a**2 + mu_b**2 + 0.01**2
    d2 = var_a + var_b + 0.03**2
    s = (n1 * n2) / (d1 * d2)
    grad = (
        (2 * mu_b * n2 + n1 * 2 * (b - mu_b)) / (d1 * d2)
        - s * (2 * mu_a / d1 + 2 * (a - mu_a) / d2)
    ) / n
    return s, grad


def _photometric_reference(intr, pose_j, preds, pix_i, img_i, img_j, alpha):
    """Per-point photometric loop with a per-point 2x3 projection Jacobian.
    Returns (values, grads, valid)."""
    n = len(preds)
    R = pose_j.rotation
    D = pose_j.world_to_camera(preds)
    z = D[:, 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        q = intr.f * D[:, :2] / z[:, None] + np.array([intr.cx, intr.cy])
    offsets = np.array([[dx, dy] for dy in (-1, 0, 1) for dx in (-1, 0, 1)], float)
    tgt = pix_i[:, None, :] + offsets[None]
    with np.errstate(invalid="ignore"):
        rec = q[:, None, :] + offsets[None]
    rec = np.where(np.isfinite(rec), rec, -1.0)
    tgt_vals, _, tgt_ok = bilinear_values_and_grads(img_i, tgt.reshape(-1, 2))
    rec_vals, rec_grads, rec_ok = bilinear_values_and_grads(img_j, rec.reshape(-1, 2))
    tgt_vals, rec_vals = tgt_vals.reshape(n, 9), rec_vals.reshape(n, 9)
    rec_grads = rec_grads.reshape(n, 9, 2)
    valid = (z > 0) & tgt_ok.reshape(n, 9).all(axis=1) & rec_ok.reshape(n, 9).all(axis=1)
    values, grads = np.zeros(n), np.zeros((n, 3))
    gx = intr.f / np.where(valid, z, 1.0)
    for i in np.flatnonzero(valid):
        a, b = rec_vals[i], tgt_vals[i]
        s, ds_da = _ssim_window_reference(a, b)
        diff = a[4] - b[4]
        values[i] = (1 - alpha) * abs(diff) + alpha * (1 - s) / 2
        dl_da = -(alpha / 2) * ds_da
        dl_da[4] += (1 - alpha) * np.sign(diff)
        dl_dq = rec_grads[i].T @ dl_da
        jac = np.array(
            [
                [gx[i], 0.0, -gx[i] * D[i, 0] / z[i]],
                [0.0, gx[i], -gx[i] * D[i, 1] / z[i]],
            ]
        )
        grads[i] = R @ (jac.T @ dl_dq)
    return values, grads, valid


def _close(new, ref, tol=1e-12):
    """Equal to ``tol`` relative to the largest reference magnitude (or 1)."""
    scale = max(np.max(np.abs(ref), initial=0.0), 1.0)
    return np.max(np.abs(new - ref), initial=0.0) <= tol * scale


@pytest.fixture(scope="module")
def room():
    return build_dataset(DatasetConfig(seed=7))


@pytest.fixture(scope="module")
def rendered_room():
    return build_dataset(DatasetConfig(seed=7, render_images=True))


def _noisy_predictions(ds, image_id, scale, seed):
    gt = ds.observations[image_id].gt_coords
    return gt + np.random.default_rng(seed).normal(scale=scale, size=gt.shape)


class TestVectorizedEquivalence:
    def test_angle_terms_bit_identical(self, room):
        for image_id in room.train_ids[:6]:
            obs = room.observations[image_id]
            preds = _noisy_predictions(room, image_id, 3.0, image_id)
            new = angle_terms(room.intrinsics, room.poses[image_id], preds, obs.pixels)
            ref = _angle_terms_reference(
                room.intrinsics, room.poses[image_id], preds, obs.pixels
            )
            for a, b in zip(new, ref):
                assert np.array_equal(a, b)

    def test_angle_terms_bit_identical_at_the_edges(self, room):
        """Rows at the camera centre, inside the eps_norm guard, on the
        optical axis, NaN and +-inf, and a dense batch of 4000 rows (many
        inside a wide guard): the same bytes as the reference kernel."""
        image_id = room.train_ids[0]
        pose, obs = room.poses[image_id], room.observations[image_id]
        intr = room.intrinsics
        rng = np.random.default_rng(11)
        axis = pose.camera_to_world(np.array([[0.0, 0.0, 2.0]]))[0]
        c = pose.center
        edge = np.array(
            [
                c,
                c + 1e-9,
                c - 3e-9 * np.array([1.0, 2.0, -1.0]),
                c + [2e-8, 0.0, 0.0],
                axis,
                [np.nan, 0.0, 0.0],
                [np.nan] * 3,
                [np.inf, 0.0, 0.0],
                [0.0, -np.inf, 1.0],
                [np.inf, -np.inf, np.inf],
            ]
        )
        edge_pixels = rng.uniform(0.0, 2 * intr.cx, size=(len(edge), 2))
        edge_pixels[4] = (intr.cx, intr.cy)  # the ray of the optical-axis point
        edge_pixels[-2] = (np.nan, 3.0)
        cases = [
            (
                np.concatenate([_noisy_predictions(room, image_id, 3.0, 0), edge]),
                np.concatenate([obs.pixels, edge_pixels]),
                1e-8,
            ),
            (
                c + rng.normal(scale=0.5, size=(4000, 3)),
                rng.uniform(0.0, 2 * intr.cx, size=(4000, 2)),
                0.5,
            ),
        ]
        with np.errstate(all="ignore"):
            for preds, pixels, eps in cases:
                new = angle_terms(intr, pose, preds, pixels, eps)
                ref = _angle_terms_reference(intr, pose, preds, pixels, eps)
                for a, b in zip(new, ref):
                    assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
                # reproj_terms reports its thetas through the same helper
                thetas = reproj_terms(intr, pose, preds, pixels)[3]
                assert thetas.tobytes() == ref[3].tobytes()
        assert np.sum(np.linalg.norm(pose.world_to_camera(cases[1][0]), axis=1) <= 0.5) > 100

    def test_multiview_matches_per_point_loop(self, room):
        cfg = LossConfig()
        index = build_multiview_index(room.poses, room.observations, room.covis)
        corresponded = 0
        for t, image_id in enumerate(room.train_ids):
            obs = room.observations[image_id]
            grid = PredictionGrid(obs.point_ids, _noisy_predictions(room, image_id, 2.0, t))
            rep = multiview_image_loss(
                room.intrinsics, index, image_id, grid, cfg, np.random.default_rng([t, 1])
            )
            values, grads, statuses, drawn = _multiview_reference(
                room.intrinsics, room.poses, image_id, grid, room.observations,
                room.covis, cfg, np.random.default_rng([t, 1]),
            )
            assert _close(rep.values, values) and _close(rep.grads, grads)
            assert np.array_equal(rep.statuses, statuses)
            rows, entries = index.draw(image_id, np.random.default_rng([t, 1]))
            assert np.array_equal(rows, np.flatnonzero(drawn >= 0))
            assert np.array_equal(index.image_ids[index.other_pos[entries]], drawn[rows])
            corresponded += len(rows)
        assert corresponded > 100

    def test_photometric_matches_per_point_loop(self, rendered_room):
        ds = rendered_room
        cfg = LossConfig()
        ids = ds.train_ids
        valid = 0
        for t, (i, j) in enumerate(zip(ids[:-1], ids[1:])):
            obs = ds.observations[i]
            preds = _noisy_predictions(ds, i, 0.05, t)
            rep = photometric_image_loss(
                ds.intrinsics, ds.poses[j], PredictionGrid(obs.point_ids, preds), obs,
                ds.images[i], ds.images[j], cfg,
            )
            values, grads, mask = _photometric_reference(
                ds.intrinsics, ds.poses[j], preds, obs.pixels,
                ds.images[i].data, ds.images[j].data, cfg.alpha_ssim,
            )
            assert np.array_equal(rep.valid_mask, mask)
            assert _close(rep.values, values) and _close(rep.grads, grads)
            valid += int(mask.sum())
        assert valid > 100
