"""Loss-function tests: values, analytic gradients vs finite differences,
pathology behavior, and the composite losses.

The finite-difference oracle is the independent check for every gradient:
central differences with step 1e-6 on the scene coordinate, compared at
relative error 1e-4.
"""

import hashlib
import re
import warnings
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np
import pytest

from anglereloc.geometry import (
    CameraIntrinsics,
    DepthStatus,
    PoseSE3,
    depth_statuses,
    ray_vectors,
    rotation_about_axis,
)
from anglereloc.losses import (
    ConfigError,
    IndexMismatchError,
    DimensionMismatchError,
    LossConfig,
    LossReport,
    ObservedRays,
    angle_terms,
    bilinear_values_and_grads,
    build_multiview_index,
    multiview_image_loss,
    observed_rays,
    photo_target,
    photometric_image_loss,
    reproj_terms,
    row_norms,
)
from anglereloc import losses
from anglereloc.scenegen import DatasetConfig, build_covis, build_dataset

import oracles
from conftest import random_pose
from oracles import ray_vector, ssim3x3


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


class PointLossTerm(NamedTuple):
    """One point's loss value, gradient w.r.t. its world coordinate, the
    depth status of the prediction and the angle between the rays."""

    value: float
    grad: np.ndarray
    depth_status: DepthStatus
    angle_theta: float


def _point_term(rep):
    return PointLossTerm(
        float(rep.values[0]),
        rep.grads[0],
        DepthStatus(int(rep.statuses[0])),
        float(rep.thetas[0]),
    )


def reproj_point(intr, pose, y, pixel):
    """Single-point plain reprojection loss: ``reproj_terms`` on a batch of one."""
    return _point_term(
        reproj_terms(intr, pose, np.asarray(y)[None, :], np.asarray(pixel)[None, :])
    )


def angle_point(intr, pose, y, pixel, cfg=LossConfig()):
    """Single-point angle loss: ``angle_terms`` on a batch of one."""
    return _point_term(
        angle_terms(
            intr, pose, np.asarray(y)[None, :], np.asarray(pixel)[None, :], cfg.epsilon_norm
        )
    )


class BilinearSample(NamedTuple):
    value: float
    grad: np.ndarray
    valid: bool


def bilinear_sample(img, q):
    """Single-sample form of ``bilinear_values_and_grads``."""
    values, grads, valid = bilinear_values_and_grads(img, np.asarray(q)[None, :])
    return BilinearSample(float(values[0]), grads[0], bool(valid[0]))


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
            rep = kernel(intr, pose, coords, obs.pixels)
            assert not rep.nonfinite
            assert np.sum(rep.values) < 1e-7
            assert np.sum(rep.statuses == int(DepthStatus.BEHIND)) == 0

    def test_antipodal_total_is_sum_of_diameters(self, intr, rng):
        pose = random_pose(rng)
        obs, coords = make_obs(rng, pose, intr, 9)
        flipped = np.array(
            [2 * pose.center - c for c in coords]  # reflect through the camera center
        )
        rep = angle_terms(intr, pose, flipped, obs.pixels)
        expected = sum(
            2 * np.linalg.norm(ray_vector(intr, p)) for p in obs.pixels
        )
        assert abs(np.sum(rep.values) - expected) < 1e-9 * expected
        assert np.sum(rep.statuses == int(DepthStatus.BEHIND)) == 9

    @pytest.mark.parametrize("kernel", [angle_terms, reproj_terms])
    @pytest.mark.parametrize(
        "shape",
        [
            (1, 3),  # the angle loss broadcast it to 4 values and a (4, 3) gradient
            (5, 3),  # a bare ValueError
            (3,),  # a bare IndexError
        ],
        ids=str,
    )
    def test_predictions_not_one_row_per_pixel_row_raise(self, intr, rng, kernel, shape):
        pose = random_pose(rng)
        obs, _ = make_obs(rng, pose, intr, 4)
        with pytest.raises(IndexMismatchError, match=r"do not match 4 observation rows$"):
            kernel(intr, pose, np.ones(shape), obs.pixels)

    @pytest.mark.parametrize("kernel", [angle_terms, reproj_terms])
    @pytest.mark.parametrize(
        "shape",
        [
            (4, 3),  # the angle loss ignored the third column; reproj raised a bare ValueError
            (4, 1),  # a bare IndexError
            (4,),  # a bare IndexError
        ],
        ids=str,
    )
    def test_pixels_that_are_not_rows_of_two_raise_naming_the_shape(
        self, intr, rng, kernel, shape
    ):
        pose = random_pose(rng)
        _, coords = make_obs(rng, pose, intr, 4)
        with pytest.raises(DimensionMismatchError) as err:
            kernel(intr, pose, coords, np.ones(shape))
        assert str(err.value) == f"pixels of shape {shape} are not (N, 2) rows"

    @pytest.mark.parametrize("entry", ["angle_terms", "multiview_image_loss"])
    @pytest.mark.parametrize(
        "bad",
        [
            0.0,  # a row at the camera center divided by zero
            -1.0,  # the guard was off
            float("nan"),  # every value was NaN
            float("inf"),  # every value was |ray|, with an all-zero gradient
            True,
            "1e-8",
        ],
        ids=repr,
    )
    def test_eps_norm_that_is_not_finite_and_positive_raises(self, intr, rng, entry, bad):
        pose = random_pose(rng)
        obs, coords = make_obs(rng, pose, intr, 4)
        want = rf"^eps_norm must be finite and > 0, got {re.escape(repr(bad))}$"
        with pytest.raises(ConfigError, match=want):
            if entry == "angle_terms":
                angle_terms(intr, pose, coords, obs.pixels, bad)
            else:
                # a LossConfig refuses the value, so a stand-in carries it
                cfg = SimpleNamespace(epsilon_norm=bad, lambda_multiview=1.0)
                index = build_multiview_index(intr, {0: pose}, {0: obs}, np.arange(4))
                multiview_image_loss(intr, index, 0, coords, cfg, rng=rng)


class TestLossReport:
    """The diagnostics ``train`` reads from every loss's report."""

    def report(self, valid_mask=None):
        grads = np.ones((4, 3))
        grads[2, 1] = np.inf
        # in front, behind, on the near plane, behind
        cam = np.array([[0.1, 0.2, 2.0], [0.0, 0.3, -1.0], [0.5, 0.0, 0.0], [1.0, 1.0, -3.0]])
        return LossReport(
            values=np.array([1.0, np.nan, 2.5, 0.5]),
            grads=grads,
            cam=cam,
            valid_mask=valid_mask,
        )

    def test_diagnostics(self):
        rep = self.report()
        assert rep.total == 4.0  # the NaN row stays out of the sum
        assert rep.nonfinite
        assert rep.behind_frac == 0.5  # a near-plane row is not behind
        assert rep.valid_fraction == 1.0  # no mask: every row counts
        # Python scalars: a np.float64 would change the repr of a TrainLog
        finite = rep._replace(values=np.ones(4), grads=np.ones((4, 3)))
        for r in (rep, finite):
            assert type(r.total) is float and type(r.behind_frac) is float
            assert type(r.nonfinite) is bool

    def test_valid_fraction_reads_the_mask(self):
        rep = self.report(np.array([True, False, False, True]))
        assert rep.valid_fraction == 0.5
        assert rep._replace(valid_mask=np.zeros(0, dtype=bool)).valid_fraction == 0.0

    def test_each_non_finite_array_sets_the_flag(self):
        rep = self.report()
        values = np.array([1.0, 0.0, 2.5, 0.5])
        assert rep._replace(values=values).nonfinite  # the infinite gradient alone
        assert rep._replace(values=values, grads=-rep.grads).nonfinite  # or -inf
        assert rep._replace(grads=np.zeros((4, 3))).nonfinite  # the NaN value alone
        assert not rep._replace(values=values, grads=np.zeros((4, 3))).nonfinite

    def test_a_report_without_rows(self):
        empty = LossReport(np.zeros(0), np.zeros((0, 3)), np.zeros((0, 3)), np.zeros((0, 3)))
        assert empty.behind_frac == 0.0 and type(empty.behind_frac) is float
        assert empty.total == 0.0 and not empty.nonfinite
        assert empty.statuses.shape == empty.thetas.shape == (0,)
        assert empty._replace(rays=None).thetas.shape == (0,)

    def test_statuses_and_thetas_are_derived_from_cam_and_rays(self):
        rep = self.report()
        assert rep.statuses.tolist() == [
            DepthStatus.IN_FRONT, DepthStatus.BEHIND, DepthStatus.NEAR_PLANE, DepthStatus.BEHIND
        ]
        # no rays: no angle
        assert rep.thetas.shape == (4,) and np.isnan(rep.thetas).all()
        # along the ray, opposite it, at right angles, and NaN and infinite rows
        rays = np.array([[0.2, 0.4, 4.0], [0.0, -0.3, 1.0], [0.0, 1.0, 0.0], [1.0, 1.0, 1.0]])
        cam = rep.cam.copy()
        cam[3] = (np.nan, 0.0, np.inf)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the angles silence their own warnings
            thetas = rep._replace(cam=cam, rays=rays).thetas
        assert thetas[0] == 0.0 and thetas[1] == np.pi and thetas[2] == np.pi / 2
        assert np.isnan(thetas[3])
        # each read is a new array, so a caller may write into it
        assert rep.statuses is not rep.statuses

    def test_finite_values_whose_sum_overflows(self):
        rep = self.report()._replace(values=np.array([1e308, 1e308]), grads=np.ones((2, 3)))
        with pytest.warns(RuntimeWarning, match="overflow"):
            assert rep.total == np.inf  # numpy's own sum, as before
        assert rep.nonfinite is False  # and the flag neither sums nor warns

    def test_is_a_tuple_led_by_the_values(self):
        rep = self.report()
        assert rep._fields == ("values", "grads", "cam", "rays", "valid_mask")
        assert rep[0] is rep.values

    def test_reproj_at_zero_depth_reports_nonfinite(self, intr):
        pose = PoseSE3.identity()
        preds = np.array([[0.3, -0.2, 0.0], [0.1, 0.1, 2.0]])
        pixels = np.array([[50.0, 50.0], [60.0, 40.0]])
        rep = reproj_terms(intr, pose, preds, pixels)
        assert rep.nonfinite
        assert not np.isfinite(rep.values[0]) and np.isfinite(rep.values[1])
        assert rep.statuses.tolist() == [DepthStatus.NEAR_PLANE, DepthStatus.IN_FRONT]
        # the angle loss stays finite at the same point
        assert not angle_terms(intr, pose, preds, pixels).nonfinite

    def test_subnormal_depth_inside_the_image_reports_nonfinite(self):
        # camera j at the identity with f = 64: the point projects to
        # (20, 20) + (cx, cy), inside the image, but f / z overflows to inf
        intr = CameraIntrinsics(f=64.0, cx=30.0, cy=30.0)
        pose = PoseSE3.identity()
        preds = np.array([[0.3125e-309, 0.3125e-309, 1e-309], [0.1, 0.2, 2.0]])
        pixels = np.array([[50.0, 50.0], [34.0, 36.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = reproj_terms(intr, pose, preds, pixels)
            assert rep.nonfinite
            assert np.isfinite(rep.values).all() and np.isfinite(rep.grads[1]).all()
            assert not np.isfinite(rep.grads[0]).all()
            obs = SimpleNamespace(point_ids=np.arange(2), pixels=pixels)
            rng = np.random.default_rng(5)
            img_i, img_j = smooth_image(rng, 60, 70), smooth_image(rng, 60, 70)
            photo = photometric_image_loss(intr, pose, preds, photo_target(obs, img_i), img_j)
            assert photo.valid_mask.tolist() == [True, True]
            assert photo.nonfinite
            assert not np.isfinite(photo.grads[0]).all() and np.isfinite(photo.grads[1]).all()


class TestMultiviewLoss:
    def _two_view_setup(self, rng, intr, n=8, corresponded=()):
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
        return poses, obs_by_img, np.array(corresponded, dtype=np.int64), coords

    def test_no_correspondences_reduces_to_angle_loss(self, intr, rng):
        poses, obs_by_img, corresponded, coords = self._two_view_setup(rng, intr)
        preds = rng.uniform(-5, 5, size=(8, 3))
        multi = multiview_image_loss(
            intr,
            build_multiview_index(intr, poses, obs_by_img, corresponded),
            0,
            preds,
            rng=np.random.default_rng(3),
        )
        single = angle_terms(intr, poses[0], preds, obs_by_img[0].pixels)
        assert np.array_equal(multi.values, single.values)
        assert np.array_equal(multi.grads, single.grads)

    def test_triangulated_point_zero_in_both_views(self, intr, rng):
        poses, obs_by_img, corresponded, coords = self._two_view_setup(
            rng, intr, corresponded=range(8)
        )
        rep = multiview_image_loss(
            intr,
            build_multiview_index(intr, poses, obs_by_img, corresponded),
            0,
            coords,
            rng=np.random.default_rng(3),
        )
        assert rep.total < 1e-6

    def test_hand_assembled_sum_one_covisible_point(self, intr, rng):
        cfg = LossConfig(lambda_multiview=60.0)
        poses, obs_by_img, corresponded, coords = self._two_view_setup(
            rng, intr, corresponded=(2,)
        )
        preds_arr = rng.uniform(-5, 5, size=(8, 3))
        rep = multiview_image_loss(
            intr,
            build_multiview_index(intr, poses, obs_by_img, corresponded),
            0,
            preds_arr,
            cfg,
            rng=np.random.default_rng(9),
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
        poses, obs_by_img, corresponded, coords = self._two_view_setup(
            rng, intr, corresponded=(0,)
        )
        del poses[1]
        with pytest.raises(IndexMismatchError, match="no pose for indexed image 1"):
            build_multiview_index(intr, poses, obs_by_img, corresponded)

    def test_missing_pose_of_undrawn_image_raises_unless_left_out(self, intr, rng):
        # image 1 lacks a pose and no point of image 0 can draw it: the index
        # still refuses it, and holds no pose for an image it does not index
        poses, obs_by_img, corresponded, coords = self._two_view_setup(rng, intr)
        del poses[1]
        with pytest.raises(IndexMismatchError, match="no pose for indexed image 1"):
            build_multiview_index(intr, poses, obs_by_img, corresponded)
        index = build_multiview_index(intr, poses, {0: obs_by_img[0]}, corresponded)
        assert list(index.poses) == [0]
        rep = multiview_image_loss(intr, index, 0, coords, rng=np.random.default_rng(0))
        assert rep.total < 1e-6

    def test_image_outside_the_index_raises_naming_it(self, intr, rng):
        # a bare KeyError: 1 for a view left out of the index, as a held-out one is
        poses, obs_by_img, corresponded, coords = self._two_view_setup(rng, intr)
        index = build_multiview_index(intr, poses, {0: obs_by_img[0]}, corresponded)
        with pytest.raises(IndexMismatchError) as err:
            multiview_image_loss(intr, index, 1, coords, rng=np.random.default_rng(0))
        assert str(err.value) == "the multi-view index has no rows for image 1"

    def test_index_mismatch_raises(self, intr, rng):
        poses, obs_by_img, corresponded, coords = self._two_view_setup(rng, intr)
        index = build_multiview_index(intr, poses, obs_by_img, corresponded)
        # one row short, one row long, and rows that are not 3-vectors
        for bad in (coords[:-1], np.vstack([coords, coords[:1]]), coords[:, :2]):
            with pytest.raises(IndexMismatchError, match="do not match 8 observation rows"):
                multiview_image_loss(intr, index, 0, bad, rng=np.random.default_rng(0))

    def test_gradient_matches_finite_differences(self, intr, rng):
        cfg = LossConfig(lambda_multiview=60.0)
        poses, obs_by_img, corresponded, coords = self._two_view_setup(
            rng, intr, corresponded=(1, 4, 6)
        )
        preds_arr = rng.uniform(-5, 5, size=(8, 3))

        def total_for(arr):
            return multiview_image_loss(
                intr,
                build_multiview_index(intr, poses, obs_by_img, corresponded),
                0,
                arr,
                cfg,
                rng=np.random.default_rng(5),
            )

        rep = total_for(preds_arr)
        for k in (0, 1, 4):
            def f(v, k=k):
                arr = preds_arr.copy()
                arr[k] = v
                return total_for(arr).total

            fd = fd_grad(f, preds_arr[k].copy())
            assert rel_err(rep.grads[k], fd) < 1e-4


def _obs(point_ids, pixels=None):
    ids = np.array(point_ids, dtype=np.int64)
    if pixels is None:
        pixels = np.arange(2.0 * len(ids)).reshape(-1, 2) + 100 * ids[:, None]
    return SimpleNamespace(point_ids=ids, pixels=np.asarray(pixels, dtype=np.float64))


def identity_poses(observations):
    return {i: PoseSE3.identity() for i in observations}


def index_sha256(index):
    """Digest of every array of a ``MultiviewIndex``, dtypes and shapes included."""
    arrays = [index.image_ids, index.rotations, index.translations]
    arrays += [index.other_pos, index.other_pixels]
    for i in index.image_ids.tolist():
        arrays += [index.images[i].pixels, index.images[i].offsets]
    h = hashlib.sha256()
    for a in arrays:
        h.update(repr((a.dtype.str, a.shape)).encode() + np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def assert_index_matches_oracle(index, observations, corresponded):
    """Every row's entries, in order, equal ``oracles.multiview_entries``, and
    the images' offsets tile the flat entry arrays in image order."""
    want = oracles.multiview_entries(observations, set(np.asarray(corresponded).tolist()))
    assert index.image_ids.tolist() == sorted(observations)
    assert index.other_pos.dtype == np.int64 and index.other_pixels.dtype == np.float64
    end = 0
    for i in index.image_ids.tolist():
        offsets, per_row = index.images[i].offsets, want[i]
        assert offsets.dtype == np.int64 and offsets[0] == end
        assert np.diff(offsets).tolist() == [len(row) for row in per_row]
        entries = slice(offsets[0], offsets[-1])
        others = [j for row in per_row for j, _ in row]
        assert index.image_ids[index.other_pos[entries]].tolist() == others
        pixels = np.array([p for row in per_row for _, p in row], dtype=np.float64)
        assert index.other_pixels[entries].tobytes() == pixels.tobytes()
        end = offsets[-1]
    assert end == len(index.other_pos) == len(index.other_pixels)


class TestMultiviewIndex:
    """``build_multiview_index`` reads co-visibility from the observations.
    The reference is ``oracles.multiview_entries``, one row at a time over
    the dict-based point -> images map. The digests cover the arrays the
    index holds; they were computed on the build that also held a pose flag
    per image and the point ids per row, whose own digests matched those of
    the per-row build that read that map from the co-visibility graph."""

    @pytest.mark.parametrize(
        "kw, digest",
        [
            (
                {"seed": 1},
                "431ccd89ecf4739d904400994aa7113bad76b0c926d0721e9140ab743b1260c3",
            ),
            (
                {"seed": 2, "covis_keep_fraction": 0.3},
                "0ae2abc77664d9e299e6075cb426880970bc18bf03dcd9ea9b982924829329ac",
            ),
            (
                {"seed": 3, "n_points": 2000, "pixel_noise_sigma": 0.5},
                "6808ecd7dcb21ccc5639f575d8d6dc9e82044e0aa7a1ac8a03c4fc1605e6e192",
            ),
        ],
        ids=["default", "sparsified", "2000-points-noisy"],
    )
    def test_all_observations_pinned(self, kw, digest):
        ds = build_dataset(DatasetConfig(**kw))
        index = build_multiview_index(
            ds.intrinsics, ds.poses, ds.observations, ds.covis.corresponded
        )
        assert index_sha256(index) == digest

    def test_matches_oracle_over_20_seeds(self):
        for seed in range(20):
            cfg = DatasetConfig(
                seed=seed,
                n_points=300,
                n_images=12,
                min_visible=10,
                covis_keep_fraction=(1.0, 0.3)[seed % 2],
                pixel_noise_sigma=0.5 if seed % 3 == 0 else 0.0,
            )
            ds = build_dataset(cfg)
            corresponded = ds.covis.corresponded
            index = build_multiview_index(ds.intrinsics, ds.poses, ds.observations, corresponded)
            assert_index_matches_oracle(index, ds.observations, corresponded)
            assert len(index.other_pos) > 0
            # the train views alone, as train() builds it
            train = {i: ds.observations[i] for i in ds.train_ids}
            index = build_multiview_index(ds.intrinsics, ds.poses, train, corresponded)
            assert_index_matches_oracle(index, train, corresponded)
            assert set(index.image_ids[index.other_pos].tolist()) <= set(ds.train_ids)

    def test_draw_for_an_image_outside_the_index_raises_naming_it(self):
        # a bare KeyError: 3 for the first held-out view of a 12-view room
        ds = build_dataset(DatasetConfig(seed=0, n_points=300, n_images=12, min_visible=10))
        train = {i: ds.observations[i] for i in ds.train_ids}
        index = build_multiview_index(ds.intrinsics, ds.poses, train, ds.covis.corresponded)
        assert ds.test_ids[0] == 3
        with pytest.raises(IndexMismatchError) as err:
            index.draw(3, np.random.default_rng(0))
        assert str(err.value) == "the multi-view index has no rows for image 3"
        rows, entries = index.draw(ds.train_ids[0], np.random.default_rng(0))
        assert len(rows) == len(entries) > 0

    def test_image_without_observations(self, intr):
        obs = {0: _obs([1, 2, 3]), 1: _obs([]), 2: _obs([3, 2])}
        corresponded = build_covis(obs).corresponded
        assert corresponded.dtype == np.int64 and corresponded.tolist() == [2, 3]
        index = build_multiview_index(intr, identity_poses(obs), obs, corresponded)
        assert_index_matches_oracle(index, obs, corresponded)
        assert index.images[1].offsets.tolist() == [2]
        assert 1 not in index.image_ids[index.other_pos]

    def test_missing_pose(self, intr, rng):
        pose = random_pose(rng)
        obs = {0: _obs([1, 2]), 4: _obs([2, 1])}
        with pytest.raises(IndexMismatchError, match="no pose for indexed image 4"):
            build_multiview_index(intr, {0: pose}, obs, np.array([1, 2]))
        # poses of images that are not indexed are neither needed nor kept
        other = random_pose(rng)
        ids = np.array([1, 2])
        index = build_multiview_index(intr, {0: pose, 4: other, 7: random_pose(rng)}, obs, ids)
        assert_index_matches_oracle(index, obs, ids)
        assert list(index.poses) == [0, 4]
        assert index.rotations.tobytes() == pose.rotation.tobytes() + other.rotation.tobytes()
        assert index.translations.tobytes() == (
            pose.translation.tobytes() + other.translation.tobytes()
        )
        assert index.image_ids[index.other_pos].tolist() == [4, 4, 0, 0]

    def test_duplicate_point_ids_within_one_image(self, intr):
        obs = {5: _obs([3, 9, 1]), 2: _obs([]), 0: _obs([9, 8, 3, 3])}
        corresponded = build_covis(obs).corresponded
        assert corresponded.dtype == np.int64 and corresponded.tolist() == [3, 9]
        index = build_multiview_index(intr, identity_poses(obs), obs, corresponded)
        assert_index_matches_oracle(index, obs, corresponded)
        # image 5's row of point 3 has one entry per row of image 0 that sees it
        first, last = index.images[5].offsets[:2]
        assert index.other_pixels[first:last].tobytes() == obs[0].pixels[2:].tobytes()
        # image 0's own second row of point 3 is not its neighbor
        assert np.diff(index.images[0].offsets).tolist() == [1, 0, 1, 1]

    def test_corresponded_point_seen_once_gets_no_entries(self, intr):
        obs = {0: _obs([1, 4]), 1: _obs([1])}
        ids = np.array([1, 4, 99])
        index = build_multiview_index(intr, identity_poses(obs), obs, ids)
        assert_index_matches_oracle(index, obs, ids)
        assert np.diff(index.images[0].offsets).tolist() == [1, 0]

    def test_no_images(self, intr):
        index = build_multiview_index(intr, {}, {}, np.array([], dtype=np.int64))
        assert index.image_ids.shape == (0,) and index.images == {}
        assert index.other_pos.shape == (0,) and index.other_pixels.shape == (0, 2)

    @pytest.mark.parametrize(
        "given, named",
        [
            ({1, 2}, "set of shape (), dtype object"),  # read as one object: no entries
            (np.array([1.0, 2.0]), "ndarray of shape (2,), dtype float64"),
            (np.array([[1, 2]]), "ndarray of shape (1, 2), dtype int64"),
        ],
        ids=["set", "float", "2-d"],
    )
    def test_corresponded_that_is_not_integer_ids_raises_naming_it(self, intr, given, named):
        obs = {0: _obs([1, 2]), 1: _obs([2, 1])}
        with pytest.raises(DimensionMismatchError) as err:
            build_multiview_index(intr, identity_poses(obs), obs, given)
        assert str(err.value) == f"corresponded ({named}) is not 1-D integer point ids"

    @pytest.mark.parametrize("given", [[1, 2], range(1, 3)], ids=["list", "range"])
    def test_corresponded_list_of_ints_builds_the_array_index(self, intr, given):
        obs = {0: _obs([1, 2]), 1: _obs([2, 1])}
        got = build_multiview_index(intr, identity_poses(obs), obs, given)
        want = build_multiview_index(intr, identity_poses(obs), obs, np.array([1, 2]))
        assert len(want.other_pos) == 4
        assert got.other_pos.tobytes() == want.other_pos.tobytes()
        assert got.other_pixels.tobytes() == want.other_pixels.tobytes()
        for i in obs:
            assert got.images[i].offsets.tolist() == want.images[i].offsets.tolist()


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

    @pytest.mark.parametrize(
        "q", [[np.nan, 1.0], [1.0, np.nan], [np.nan, np.nan], [np.inf, 1.0], [1.0, -np.inf]]
    )
    def test_non_finite_coordinate_is_invalid_and_zero(self, rng, q):
        # no RuntimeWarning either: the suite turns warnings into errors
        values, grads, valid = bilinear_values_and_grads(rng.uniform(size=(4, 5)), [q])
        assert valid.tolist() == [False]
        assert values.tobytes() == np.zeros(1).tobytes()
        assert grads.tobytes() == np.zeros((1, 2)).tobytes()

    def test_invalid_rows_leave_the_valid_rows_bytes(self, rng):
        img = rng.uniform(size=(9, 11))
        q = rng.uniform([0.0, 0.0], [10.0, 8.0], size=(40, 2))
        bad = [[np.nan, 2.0], [3.0, np.inf], [-0.5, 2.0], [10.5, 2.0], [2.0, -np.inf]]
        mixed = np.vstack([q[:20], bad, q[20:]])
        keep = np.r_[0:20, 25:45]
        ref = bilinear_values_and_grads(img, q)
        got = bilinear_values_and_grads(img, mixed)
        assert got[2].tolist() == [True] * 20 + [False] * 5 + [True] * 20
        assert got[0][keep].tobytes() == ref[0].tobytes()
        assert got[1][keep].tobytes() == ref[1].tobytes()
        assert not got[0][20:25].any() and not got[1][20:25].any()

    def test_matches_the_clamped_sampler(self, rng):
        h, w = 13, 17
        img = rng.uniform(-1.0, 1.0, size=(h, w))
        img[::3, ::2] = -0.0
        q = rng.uniform([-2.0, -2.0], [w + 1.0, h + 1.0], size=(3000, 2))
        q[::7] = np.round(q[::7])
        edges = [0.0, -0.0, np.nextafter(0.0, 1.0), 1.0, w - 1.0, np.nextafter(w - 1.0, 0.0)]
        edge_q = [[x, y] for x in edges for y in (0.0, -0.0, 5.5, h - 1.0)]
        q = np.vstack([q, edge_q, [[np.nan, 1.0], [2.0, np.inf], [-np.inf, np.nan]]])
        got = bilinear_values_and_grads(img, q)
        with np.errstate(invalid="ignore"):
            ref = oracles.bilinear_clamped(img, q)
        for a, b in zip(got, ref):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("shape", [(1, 1), (1, 5), (5, 1), (0, 0), (3,), (3, 3, 3)])
    def test_image_smaller_than_2x2_or_not_2d_raises(self, shape):
        with pytest.raises(DimensionMismatchError, match="H, W >= 2"):
            bilinear_values_and_grads(np.zeros(shape), [[0.0, 0.0]])

    @pytest.mark.parametrize("shape", [(2,), (3, 3), (4, 1), (2, 2, 1)])
    def test_coordinates_not_n_by_2_raise(self, shape):
        with pytest.raises(DimensionMismatchError, match=r"\(N, 2\)"):
            bilinear_values_and_grads(np.zeros((4, 4)), np.ones(shape))


class TestBilinearAllInsidePath:
    """A batch with every sample inside the image takes the sampler's path
    without clamps or masks; it must give the bytes of the general path,
    which a batch takes as soon as one of its samples is outside."""

    def check(self, img, q):
        q = np.asarray(q, dtype=np.float64)
        plain = bilinear_values_and_grads(img, q)
        assert plain[2].all()
        # one NaN row sends the same samples down the general path
        general = bilinear_values_and_grads(img, np.vstack([q, [[np.nan, 0.0]]]))
        assert general[2].tolist() == [True] * len(q) + [False]
        for a, b in zip(plain, general):
            assert a.tobytes() == b[: len(q)].tobytes()
        with np.errstate(invalid="ignore"):
            ref = oracles.bilinear_clamped(img, q)
        for a, b in zip(plain, ref):
            assert a.tobytes() == b.tobytes()

    def test_last_column_and_row_exactly(self, rng):
        h, w = 6, 8
        img = rng.uniform(size=(h, w))
        # floor(w - 1) is clamped to the last cell, w - 2, there
        self.check(img, [[w - 1.0, 2.5], [3.5, h - 1.0], [w - 1.0, h - 1.0], [w - 1.0, 0.0]])

    def test_integer_coordinates(self, rng):
        img = rng.uniform(size=(5, 7))
        yy, xx = np.mgrid[0:5, 0:7]
        self.check(img, np.column_stack([xx.ravel(), yy.ravel()]).astype(float))

    def test_just_inside_each_edge(self, rng):
        h, w = 7, 9
        img = rng.uniform(size=(h, w))
        img[0, :] = -0.0  # signed zeros at x = -0.0 and y = -0.0 too
        tiny = np.nextafter(0.0, 1.0)
        self.check(
            img,
            [
                [tiny, 3.0], [np.nextafter(w - 1.0, 0.0), 3.0],
                [4.0, tiny], [4.0, np.nextafter(h - 1.0, 0.0)],
                [tiny, tiny], [-0.0, 3.0], [4.0, -0.0], [-0.0, -0.0],
            ],
        )

    def test_window_whose_last_offset_rounds_onto_the_border(self, rng):
        img = rng.uniform(size=(40, 65))
        q = np.nextafter(63.0, 64.0)
        assert q + 1.0 == 64.0 and q > 63.0
        self.check(img, [[q + dx, 20.0 + dy] for dy in (-1.0, 0.0, 1.0) for dx in (-1.0, 0.0, 1.0)])

    def test_random_batches(self, rng):
        img = rng.uniform(size=(30, 40))
        for n in (0, 1, 9, 117, 1000):
            self.check(img, rng.uniform([0.0, 0.0], [39.0, 29.0], size=(n, 2)))


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
        rep = photometric_image_loss(intr, pose_j, coords, photo_target(obs, img_i), img_j, cfg)
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
        rep = photometric_image_loss(intr, pose_j, flipped, photo_target(obs, img_i), img_j)
        assert rep.total == 0.0
        assert rep.valid_fraction == 0.0

    def test_gradient_matches_finite_differences(self, intr, rng):
        pose_j, obs, coords, img_i, img_j = self._setup(rng, intr)
        rep = photometric_image_loss(intr, pose_j, coords, photo_target(obs, img_i), img_j)
        checked = 0
        for idx in np.flatnonzero(rep.valid_mask)[:6]:
            def f(v, idx=idx):
                arr = coords.copy()
                arr[idx] = v
                out = photometric_image_loss(intr, pose_j, arr, photo_target(obs, img_i), img_j)
                return out.values[idx]

            fd = fd_grad(f, coords[idx].copy())
            if np.linalg.norm(fd) < 1e-8:
                continue
            assert rel_err(rep.grads[idx], fd) < 1e-4
            checked += 1
        assert checked >= 3

    def test_index_mismatch_raises(self, intr, rng):
        pose_j, obs, coords, img_i, img_j = self._setup(rng, intr)
        target = photo_target(obs, img_i)
        for bad in (coords[:-1], np.vstack([coords, coords[:1]]), coords[:, :2]):
            with pytest.raises(IndexMismatchError, match="do not match 10 observation rows"):
                photometric_image_loss(intr, pose_j, bad, target, img_j)

    def test_dimension_mismatch(self, intr, rng):
        pose_j, obs, coords, img_i, img_j = self._setup(rng, intr)
        with pytest.raises(DimensionMismatchError):
            photometric_image_loss(
                intr, pose_j, coords, photo_target(obs, img_i), img_j[:-3], LossConfig()
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


def _multiview_reference(intr, poses, image_id, coords, obs_by_img, covis, cfg, rng):
    """Per-point multi-view loop with per-neighbor lookup dicts; ``covis`` is
    an ``oracles.CoVisibility`` and ``coords`` is aligned with the image's
    observation rows. Returns the report's (values, grads, statuses) and the
    neighbor drawn per row (-1 where the row has no correspondence)."""
    obs_i = obs_by_img[image_id]
    values, grads, statuses, _ = _angle_terms_reference(
        intr, poses[image_id], coords, obs_i.pixels, cfg.epsilon_norm
    )
    point_ids = np.asarray(obs_i.point_ids)
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
                intr, poses[m], coords[rows], pix_m, cfg.epsilon_norm
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


def _ssim_from_moments_reference(mu_a, mu_b, e_aa, e_bb, e_ab):
    """``anglereloc.losses._ssim_from_moments`` as it stood before the target
    statistics were precomputed and its repeated subexpressions shared."""
    var_a = e_aa - mu_a**2
    var_b = e_bb - mu_b**2
    cov = e_ab - mu_a * mu_b
    n1 = 2 * mu_a * mu_b + 0.01**2
    n2 = 2 * cov + 0.03**2
    d1 = mu_a**2 + mu_b**2 + 0.01**2
    d2 = var_a + var_b + 0.03**2
    ssim = (n1 * n2) / (d1 * d2)
    f_n1 = n2 / (d1 * d2)
    f_n2 = n1 / (d1 * d2)
    f_d1 = -ssim / d1
    f_d2 = -ssim / d2
    f_mu_a = 2 * mu_b * f_n1 + 2 * mu_a * f_d1 - 2 * mu_a * f_d2 - mu_b * 2 * f_n2
    return ssim, f_mu_a, f_d2, 2 * f_n2


def _photometric_per_call_reference(intr, pose_j, preds, observations_i, img_i, img_j, cfg):
    """``photometric_image_loss`` as it stood before ``PhotoTarget``: both
    windows sampled on every call, for every row in front of camera j, and
    masked afterwards. Takes (H, W) arrays; returns a ``LossReport``."""
    n = len(preds)
    R = pose_j.rotation
    D = pose_j.world_to_camera(preds)
    z = D[:, 2]
    front = np.flatnonzero(z > 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        q = intr.f * D[front, :2] / z[front, None] + np.array([intr.cx, intr.cy])
    offsets = np.array([[dx, dy] for dy in (-1, 0, 1) for dx in (-1, 0, 1)], float)
    pix_i = np.asarray(observations_i.pixels, dtype=np.float64)[front]
    tgt_coords = pix_i[:, None, :] + offsets
    rec_coords = q[:, None, :] + offsets
    safe_rec = np.where(np.isfinite(rec_coords), rec_coords, -1.0)
    tgt_vals, _, tgt_ok = bilinear_values_and_grads(img_i, tgt_coords.reshape(-1, 2))
    rec_vals, rec_grads, rec_ok = bilinear_values_and_grads(img_j, safe_rec.reshape(-1, 2))
    inside = tgt_ok.reshape(-1, 9).all(axis=1) & rec_ok.reshape(-1, 9).all(axis=1)
    ok = front[inside]
    valid = np.zeros(n, dtype=bool)
    valid[ok] = True
    alpha = cfg.alpha_ssim
    a = rec_vals.reshape(-1, 9)[inside]
    b = tgt_vals.reshape(-1, 9)[inside]
    s, f_mu_a, f_e_aa, f_e_ab = _ssim_from_moments_reference(
        a.mean(axis=1),
        b.mean(axis=1),
        (a * a).mean(axis=1),
        (b * b).mean(axis=1),
        (a * b).mean(axis=1),
    )
    ds_da = (f_mu_a[:, None] + 2 * a * f_e_aa[:, None] + b * f_e_ab[:, None]) / 9
    diff = a[:, 4] - b[:, 4]
    values = np.zeros(n)
    values[ok] = (1 - alpha) * np.abs(diff) + alpha * (1 - s) / 2
    dl_da = -(alpha / 2) * ds_da
    dl_da[:, 4] += (1 - alpha) * np.sign(diff)
    dl_dq = np.einsum("mk,mkc->mc", dl_da, rec_grads.reshape(-1, 9, 2)[inside])
    gx = intr.f / z[ok]
    grad_D = np.empty((len(ok), 3))
    grad_D[:, 0] = gx * dl_dq[:, 0]
    grad_D[:, 1] = gx * dl_dq[:, 1]
    grad_D[:, 2] = -gx / z[ok] * (D[ok, 0] * dl_dq[:, 0] + D[ok, 1] * dl_dq[:, 1])
    grads = np.zeros((n, 3))
    grads[ok] = grad_D @ R.T
    return LossReport(values, grads, D, None, valid)


def _reported(rep):
    """A report's values, gradients, statuses and ray angles, in the order of
    the reference kernels' tuples."""
    return rep.values, rep.grads, rep.statuses, rep.thetas


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
            for a, b in zip(_reported(new), ref):
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
                for a, b in zip(_reported(new), ref):
                    assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
                # reproj_terms reports its thetas through the same helper
                thetas = reproj_terms(intr, pose, preds, pixels).thetas
                assert thetas.tobytes() == ref[3].tobytes()
        assert np.sum(np.linalg.norm(pose.world_to_camera(cases[1][0]), axis=1) <= 0.5) > 100

    def test_angle_terms_bit_identical_on_zero_and_one_rows(self, room):
        image_id = room.train_ids[0]
        pose, obs, intr = room.poses[image_id], room.observations[image_id], room.intrinsics
        preds = _noisy_predictions(room, image_id, 3.0, 5)
        for rows in (slice(0, 0), slice(0, 1), slice(3, 4)):
            new = angle_terms(intr, pose, preds[rows], obs.pixels[rows])
            ref = _angle_terms_reference(intr, pose, preds[rows], obs.pixels[rows])
            for a, b in zip(_reported(new), ref):
                assert a.dtype == b.dtype and a.shape == b.shape
                assert a.tobytes() == b.tobytes()

    def test_multiview_reports_pinned(self, room):
        """Every train view of ``room`` against the index ``train`` builds,
        each report's values, gradients, statuses and ray angles hashed;
        recorded on the build whose angle loss was one whole-array pass
        without a separate camera-frame kernel."""
        index = build_multiview_index(
            room.intrinsics,
            room.poses,
            {i: room.observations[i] for i in room.train_ids},
            room.covis.corresponded,
        )
        h = hashlib.sha256()
        for t, image_id in enumerate(room.train_ids):
            preds = _noisy_predictions(room, image_id, 2.0, t)
            rng = np.random.default_rng([t, 1])
            rep = multiview_image_loss(
                room.intrinsics, index, image_id, preds, LossConfig(), rng=rng
            )
            assert rep.valid_mask is None
            for a in _reported(rep):
                h.update(repr((a.dtype.str, a.shape)).encode() + a.tobytes())
        assert h.hexdigest() == (
            "117c7ec58332cb0804895ef6a9c0ca0ca22e2baeca1e015a65bf296cad22de11"
        )

    def test_multiview_matches_per_point_loop(self, room):
        cfg = LossConfig()
        index = build_multiview_index(
            room.intrinsics, room.poses, room.observations, room.covis.corresponded
        )
        covis = oracles.build_covis(room.observations)
        assert room.covis.corresponded.tolist() == sorted(covis.corresponded)
        corresponded = 0
        for t, image_id in enumerate(room.train_ids):
            obs = room.observations[image_id]
            preds = _noisy_predictions(room, image_id, 2.0, t)
            rep = multiview_image_loss(
                room.intrinsics, index, image_id, preds, cfg, rng=np.random.default_rng([t, 1])
            )
            values, grads, statuses, drawn = _multiview_reference(
                room.intrinsics, room.poses, image_id, preds, room.observations,
                covis, cfg, np.random.default_rng([t, 1]),
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
                ds.intrinsics, ds.poses[j], preds, photo_target(obs, ds.images[i]),
                ds.images[j], cfg,
            )
            values, grads, mask = _photometric_reference(
                ds.intrinsics, ds.poses[j], preds, obs.pixels,
                ds.images[i].data, ds.images[j].data, cfg.alpha_ssim,
            )
            assert np.array_equal(rep.valid_mask, mask)
            assert _close(rep.values, values) and _close(rep.grads, grads)
            valid += int(mask.sum())
        assert valid > 100


def _assert_reports_bit_equal(new, ref):
    """The same bytes in every field of the two reports and in what is
    derived from them; a field None in one is None in the other."""
    for field in (*LossReport._fields, "statuses", "thetas"):
        a, b = getattr(new, field), getattr(ref, field)
        if a is None or b is None:
            assert a is b, field
            continue
        assert a.dtype == b.dtype and a.shape == b.shape, field
        assert a.tobytes() == b.tobytes(), field


class TestObservedRays:
    """``angle_terms`` on the ``ObservedRays`` that ``observed_rays`` builds
    once gives the bits of the call on the pixels, and the multi-view index
    holds the rays of its own pixels."""

    @staticmethod
    def assert_same_report(new, ref):
        for a, b in zip((new.values, new.grads, new.cam, new.rays), ref[:4]):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()

    def test_bits_of_the_pixel_call_on_the_room(self, room):
        intr = room.intrinsics
        for t, image_id in enumerate(room.train_ids):
            obs = room.observations[image_id]
            preds = _noisy_predictions(room, image_id, 3.0, t)
            observed = observed_rays(intr, obs.pixels)
            assert len(observed) == len(obs.pixels)
            pose = room.poses[image_id]
            self.assert_same_report(
                angle_terms(intr, pose, preds, observed),
                angle_terms(intr, pose, preds, obs.pixels),
            )

    def test_bits_of_the_pixel_call_on_special_rows(self, room):
        """Camera-frame rows (identity pose) at the camera center, inside
        the eps_norm guard, exactly on their rays (|g| = 0), NaN, and
        against NaN and +-inf pixels, the latter placed so that |g| is
        infinite without an inf - inf: no warning either way."""
        intr = room.intrinsics
        obs = room.observations[room.train_ids[0]]
        rays = ray_vectors(intr, obs.pixels[:2])
        special = np.array(
            [
                [0.0, 0.0, 0.0],
                [1e-9, -2e-9, 3e-9],
                rays[0],
                2.0 * rays[1],
                [np.nan, 0.0, 1.0],
                [np.nan] * 3,
                [0.0, 0.0, 2.0],
                [-1.0, 1.0, 2.0],
                [1.0, 1.0, 2.0],
                [1.0, -1.0, 2.0],
            ]
        )
        special_pixels = np.array(
            [
                [intr.cx + 3.0, intr.cy - 2.0],
                [intr.cx - 5.0, intr.cy + 1.0],
                obs.pixels[0],
                obs.pixels[1],
                [intr.cx, intr.cy],
                [intr.cx, intr.cy],
                [np.nan, 3.0],
                [np.inf, 3.0],
                [3.0, -np.inf],
                [-np.inf, np.inf],
            ]
        )
        n = len(obs.pixels)
        # camera-frame points in front of the camera for the image's own rows
        front = np.random.default_rng(5).uniform([-2.0, -2.0, 1.0], [2.0, 2.0, 6.0], size=(n, 3))
        preds = np.concatenate([front, special])
        pixels = np.concatenate([obs.pixels, special_pixels])
        pose = PoseSE3.identity()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ref = angle_terms(intr, pose, preds, pixels)
            new = angle_terms(intr, pose, preds, observed_rays(intr, pixels))
            # the guard and |g| = 0; NaN rows; infinite |g| alone
            for rows in (slice(n, n + 4), slice(n + 4, n + 7), slice(n + 7, None)):
                self.assert_same_report(
                    angle_terms(intr, pose, preds[rows], observed_rays(intr, pixels[rows])),
                    angle_terms(intr, pose, preds[rows], pixels[rows]),
                )
        self.assert_same_report(new, ref)
        assert new.values[n + 2] == new.values[n + 3] == 0.0
        assert np.isfinite(new.grads[n : n + 4]).all()
        assert np.isnan(new.values[n + 4 : n + 7]).all() and np.isfinite(new.values[:n]).all()
        assert (new.values[n + 7 :] == np.inf).all()

    def test_rays_are_read_only(self, intr):
        observed = observed_rays(intr, np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert isinstance(observed, ObservedRays) and len(observed) == 2
        rep = angle_terms(intr, PoseSE3.identity(), np.ones((2, 3)), observed)
        for a in (observed.vectors, observed.norms, rep.rays):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0.0

    def test_rays_of_another_row_count_raise(self, intr):
        observed = observed_rays(intr, np.zeros((5, 2)))
        for preds in (np.ones((4, 3)), np.ones((6, 3))):
            with pytest.raises(IndexMismatchError, match="do not match 5 observation rows"):
                angle_terms(intr, PoseSE3.identity(), preds, observed)
        with pytest.raises(DimensionMismatchError):
            observed_rays(intr, np.zeros((5, 3)))

    def test_index_rays_are_those_of_its_pixels(self, room):
        intr = room.intrinsics
        index = build_multiview_index(intr, room.poses, room.observations, room.covis.corresponded)

        def check(vectors, norms, pixels):
            rays = ray_vectors(intr, pixels)
            assert vectors.dtype == norms.dtype == np.float64
            assert vectors.shape == rays.shape and vectors.tobytes() == rays.tobytes()
            assert norms.shape == (len(pixels),)
            assert norms.tobytes() == row_norms(rays).tobytes()

        for rows in index.images.values():
            check(rows.rays.vectors, rows.rays.norms, rows.pixels)
        check(index.other_rays, index.other_norms, index.other_pixels)
        assert len(index.other_pos) > 0


class TestPhotoTarget:
    """``photometric_image_loss`` on a ``PhotoTarget`` gives the bytes of the
    per-call sampling it replaced, including rows at and just past the
    image border, non-finite projections and rows behind the camera."""

    def check(self, intr, pose_j, preds, obs, img_i, img_j, cfg=LossConfig()):
        new = photometric_image_loss(intr, pose_j, preds, photo_target(obs, img_i), img_j, cfg)
        ref = _photometric_per_call_reference(intr, pose_j, preds, obs, img_i, img_j, cfg)
        _assert_reports_bit_equal(new, ref)
        return new

    def test_target_holds_the_sampled_windows(self, rendered_room):
        ds = rendered_room
        i = ds.train_ids[0]
        obs, img = ds.observations[i], ds.images[i].data
        target = photo_target(obs, img)
        coords = obs.pixels[:, None, :] + np.array(
            [[dx, dy] for dy in (-1, 0, 1) for dx in (-1, 0, 1)], float
        )
        vals, _, ok = bilinear_values_and_grads(img, coords.reshape(-1, 2))
        assert target.shape == img.shape
        assert len(target.windows) == len(target.inside) == len(obs.point_ids)
        assert target.windows.tobytes() == vals.reshape(-1, 9).tobytes()
        assert np.array_equal(target.inside, ok.reshape(-1, 9).all(axis=1))

    def test_bit_identical_on_rendered_train_pairs(self, rendered_room):
        ds = rendered_room
        ids = ds.train_ids
        valid = invalid = 0
        for t, (i, j) in enumerate(zip(ids[:-1], ids[1:])):
            obs = ds.observations[i]
            for scale in (0.05, 1.0):
                preds = _noisy_predictions(ds, i, scale, t)
                rep = self.check(
                    ds.intrinsics, ds.poses[j], preds, obs,
                    ds.images[i].data, ds.images[j].data, LossConfig(alpha_ssim=0.6),
                )
                valid += int(rep.valid_mask.sum())
                invalid += int((~rep.valid_mask).sum())
        assert valid > 100 and invalid > 100

    def _border_case(self):
        """Camera j at the identity with f = 64 and the principal point at
        the origin, so a camera-frame point (qx / 64, qy / 64, 1) projects
        exactly onto pixel (qx, qy) of an 80 x 60 image."""
        intr = CameraIntrinsics(f=64.0, cx=0.0, cy=0.0)
        h, w = 60, 80
        below1 = np.nextafter(1.0, 0.0)
        proj = [
            (1.0, 30.0), (below1, 30.0),  # left border, one ulp beyond
            (w - 2.0, 30.0), (np.nextafter(w - 2.0, np.inf), 30.0),  # right
            (40.0, 1.0), (40.0, below1),  # top
            (40.0, h - 2.0), (40.0, np.nextafter(h - 2.0, np.inf)),  # bottom
            (1.0, 1.0), (w - 2.0, h - 2.0),  # corners
            (40.0, 30.0),  # its observed pixel is at x = 0
        ]
        D = [(qx / 64.0, qy / 64.0, 1.0) for qx, qy in proj]
        D += [
            (np.nan, 0.5, 1.0), (np.nan, np.nan, np.nan),  # NaN
            (np.inf, 0.5, 1.0), (-np.inf, 0.5, 1.0), (0.5, np.inf, 1.0),  # +-inf
            (1.0, 0.5, 1e-310), (-1.0, 0.5, 1e-310), (0.5, 1.0, 1e-310),  # overflow
            (0.5, 0.5, -1.0), (0.5, 0.5, 0.0), (0.5, 0.5, -1e-12),  # not in front
        ]
        pixels = np.full((len(D), 2), [40.0, 30.0])
        pixels[len(proj) - 1] = (0.0, 30.0)
        obs = SimpleNamespace(point_ids=np.arange(len(D)), pixels=pixels)
        rng = np.random.default_rng(5)
        return intr, np.array(D), obs, smooth_image(rng, h, w), smooth_image(rng, h, w)

    def test_bit_identical_at_the_border_and_non_finite(self):
        intr, D, obs, img_i, img_j = self._border_case()
        pose_j = PoseSE3.identity()
        with np.errstate(all="ignore"):
            rep = self.check(intr, pose_j, D, obs, img_i, img_j)
        want = np.zeros(len(D), dtype=bool)
        want[[0, 2, 4, 6, 8, 9]] = True
        assert np.array_equal(rep.valid_mask, want)

    def test_bit_identical_on_random_windows_around_the_border(self):
        intr, _, _, img_i, img_j = self._border_case()
        rng = np.random.default_rng(9)
        n = 2000
        q = rng.uniform([-2.0, -2.0], [81.0, 61.0], size=(n, 2))
        z = rng.uniform(-0.5, 4.0, size=n)
        D = np.column_stack([q * z[:, None] / 64.0, z])
        pixels = rng.uniform([-1.0, -1.0], [80.0, 60.0], size=(n, 2))
        obs = SimpleNamespace(point_ids=np.arange(n), pixels=pixels)
        pose_j = random_pose(rng)
        preds = pose_j.camera_to_world(D)
        rep = self.check(intr, pose_j, preds, obs, img_i, img_j)
        assert 100 < rep.valid_mask.sum() < n - 100

    @pytest.mark.parametrize("shape", [(4, 3), (4,), (4, 1)], ids=["3-col", "1-d", "1-col"])
    def test_pixels_that_are_not_rows_of_two_raise(self, shape):
        obs = SimpleNamespace(point_ids=np.arange(4), pixels=np.full(shape, 5.0))
        img = np.random.default_rng(0).uniform(size=(20, 30))
        with pytest.raises(DimensionMismatchError, match=r"are not \(N, 2\) rows"):
            photo_target(obs, img)

    def test_bit_identical_with_no_valid_row(self):
        intr, D, obs, img_i, img_j = self._border_case()
        behind = D[:4] * [1.0, 1.0, -1.0]
        obs = SimpleNamespace(point_ids=obs.point_ids[:4], pixels=obs.pixels[:4])
        rep = self.check(intr, PoseSE3.identity(), behind, obs, img_i, img_j)
        assert not rep.valid_mask.any() and rep.total == 0.0


class TestPhotoTargetStatistics:
    """``PhotoTarget`` holds each window's SSIM statistics with the bits the
    loss computed per call before, and a loss call samples ``img_j`` once,
    through the module-global sampler."""

    def test_statistics_are_the_window_moments(self, rendered_room):
        ds = rendered_room
        for i in ds.train_ids:
            t = photo_target(ds.observations[i], ds.images[i])
            mean = t.windows.mean(axis=1)
            assert t.mean.tobytes() == mean.tobytes()
            assert t.mean_sq.tobytes() == (mean**2).tobytes()
            var = (t.windows * t.windows).mean(axis=1) - mean**2
            assert t.var.tobytes() == var.tobytes()
            # gathering rows after the reduction equals reducing the gathered rows
            rows = np.flatnonzero(t.inside)[::3]
            b = t.windows[rows]
            assert t.mean[rows].tobytes() == b.mean(axis=1).tobytes()
            assert t.var[rows].tobytes() == ((b * b).mean(axis=1) - b.mean(axis=1) ** 2).tobytes()

    def _spied(self, monkeypatch):
        calls = []
        sampler = losses.bilinear_values_and_grads

        def spy(img, q):
            calls.append((img, np.asarray(q).shape))
            return sampler(img, q)

        monkeypatch.setattr(losses, "bilinear_values_and_grads", spy)
        return calls

    def test_one_sampler_call_per_loss_call(self, rendered_room, monkeypatch):
        ds = rendered_room
        ids = ds.train_ids
        targets = {i: photo_target(ds.observations[i], ds.images[i]) for i in ids}
        calls = self._spied(monkeypatch)
        valid = []
        for t, (i, j) in enumerate(zip(ids[:-1], ids[1:])):
            preds = _noisy_predictions(ds, i, 0.05, t)
            rep = photometric_image_loss(ds.intrinsics, ds.poses[j], preds, targets[i], ds.images[j])
            valid.append(int(rep.valid_mask.sum()))
            assert len(calls) == t + 1
            img, shape = calls[-1]
            assert np.array_equal(img, ds.images[j].data)
            assert shape == (9 * valid[-1], 2)
        assert sum(valid) > 100

    def test_one_sampler_call_without_valid_rows(self, rendered_room, monkeypatch):
        ds = rendered_room
        i, j = ds.train_ids[:2]
        target = photo_target(ds.observations[i], ds.images[i])
        pose_j = ds.poses[j]
        behind = 2 * pose_j.center - ds.observations[i].gt_coords
        calls = self._spied(monkeypatch)
        rep = photometric_image_loss(ds.intrinsics, pose_j, behind, target, ds.images[j])
        assert not rep.valid_mask.any()
        assert [shape for _, shape in calls] == [(0, 2)]

    def test_window_whose_last_offset_rounds_onto_the_border(self):
        # camera j at the identity with f = 64 and the principal point at the
        # origin: a camera-frame point (qx / 64, qy / 64, 1) projects onto (qx, qy)
        intr = CameraIntrinsics(f=64.0, cx=0.0, cy=0.0)
        h, w = 40, 65
        just_over = np.nextafter(63.0, 64.0)  # + 1.0 rounds to 64.0 = w - 1
        xs = [63.0, just_over, np.nextafter(64.0, 0.0), 1.0, np.nextafter(1.0, 0.0)]
        D = np.array([(x / 64.0, 20.0 / 64.0, 1.0) for x in xs])
        obs = SimpleNamespace(point_ids=np.arange(len(xs)), pixels=np.full((len(xs), 2), 20.0))
        rng = np.random.default_rng(3)
        img_i, img_j = smooth_image(rng, h, w), smooth_image(rng, h, w)
        pose = PoseSE3.identity()
        rep = photometric_image_loss(intr, pose, D, photo_target(obs, img_i), img_j)
        ref = _photometric_per_call_reference(intr, pose, D, obs, img_i, img_j, LossConfig())
        _assert_reports_bit_equal(rep, ref)
        assert rep.valid_mask.tolist() == [True, True, False, True, False]
