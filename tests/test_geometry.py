"""Geometry unit tests: projections, poses and their invariants.

Oracle strategy: pose algebra is checked against plain 4x4 homogeneous
matrix arithmetic, and rotation-error angles against a quaternion
computation, neither of which shares code with the module. The one-point
camera helpers (``project``, ``ray_vector``, ``depth_status``) live in
``tests/oracles.py`` and are checked against the package's batch forms.
"""

import numpy as np
import pytest

from anglereloc.geometry import (
    EPS_NEAR_PLANE,
    CameraIntrinsics,
    DepthStatus,
    PoseSE3,
    depth_statuses,
    nearest_rotation,
    pose_error,
    ray_vectors,
    rotation_about_axis,
    rotation_from_rotvec,
)
from anglereloc.losses import _project

from conftest import random_pose
from oracles import depth_status, project, project_points, ray_vector


def quaternion_angle_deg(R):
    """Rotation angle of ``R`` from its unit quaternion (x, y, z, w), built
    from the largest of the diagonal and the trace for stability."""
    tr = np.trace(R)
    c = int(np.argmax([R[0, 0], R[1, 1], R[2, 2], tr]))
    q = np.empty(4)
    if c == 3:
        q[:] = R[2, 1] - R[1, 2], R[0, 2] - R[2, 0], R[1, 0] - R[0, 1], 1 + tr
    else:
        i, j, k = c, (c + 1) % 3, (c + 2) % 3
        q[i] = 1 - tr + 2 * R[i, i]
        q[j] = R[j, i] + R[i, j]
        q[k] = R[k, i] + R[i, k]
        q[3] = R[k, j] - R[j, k]
    q /= np.linalg.norm(q)
    return np.degrees(2 * np.arctan2(np.linalg.norm(q[:3]), abs(q[3])))


class TestIntrinsics:
    def test_matrix_layout(self, intr):
        C = intr.matrix()
        assert C[0, 0] == C[1, 1] == intr.f
        assert C[2, 2] == 1.0
        assert C[1, 0] == C[2, 0] == C[2, 1] == 0.0

    def test_rejects_nonpositive_focal(self):
        with pytest.raises(ValueError):
            CameraIntrinsics(f=0.0, cx=10, cy=10)


class TestPoseSE3:
    def test_rejects_non_orthonormal(self):
        with pytest.raises(ValueError):
            PoseSE3(np.eye(3) * 1.5, np.zeros(3))

    def test_rejects_reflection(self):
        R = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(ValueError):
            PoseSE3(R, np.zeros(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("part", ["rotation", "translation"])
    def test_rejects_non_finite_entries_before_det(self, part, bad):
        # a NaN rotation passed the orthonormality tests and warned in det
        R, t = np.eye(3), np.zeros(3)
        if part == "rotation":
            R[1, 1] = bad
        else:
            t[2] = bad
        with pytest.raises(ValueError, match="must be finite"):
            PoseSE3(R, t)

    def test_double_inverse_roundtrip(self, rng):
        pose = random_pose(rng)
        back = pose.inverse().inverse()
        np.testing.assert_allclose(back.rotation, pose.rotation, atol=1e-12)
        np.testing.assert_allclose(back.translation, pose.translation, atol=1e-12)

    def test_compose_with_inverse_is_identity(self, rng):
        pose = random_pose(rng)
        ident = pose.compose(pose.inverse())
        np.testing.assert_allclose(ident.rotation, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(ident.translation, 0.0, atol=1e-12)

    def test_identity_composition(self, rng):
        b = random_pose(rng)
        out = PoseSE3.identity().compose(b)
        np.testing.assert_allclose(out.as_matrix(), b.as_matrix(), atol=1e-15)

    def test_compose_matches_homogeneous_oracle(self, rng):
        for _ in range(20):
            a, b = random_pose(rng), random_pose(rng)
            expected = a.as_matrix() @ b.as_matrix()
            np.testing.assert_allclose(a.compose(b).as_matrix(), expected, atol=1e-12)

    def test_inverse_matches_homogeneous_oracle(self, rng):
        for _ in range(20):
            a = random_pose(rng)
            expected = np.linalg.inv(a.as_matrix())
            np.testing.assert_allclose(a.inverse().as_matrix(), expected, atol=1e-12)

    def test_orthonormality_survives_long_chains(self, rng):
        pose = random_pose(rng)
        for _ in range(100):
            pose = pose.compose(random_pose(rng)).inverse()
        R = pose.rotation
        assert np.linalg.norm(R.T @ R - np.eye(3)) < 1e-9

    def test_arrays_are_readonly(self, rng):
        pose = random_pose(rng)
        with pytest.raises(ValueError):
            pose.rotation[0, 0] = 2.0


class TestWorldToCamera:
    def test_identity_pose_is_passthrough(self):
        y = np.array([1.0, 2.0, 3.0])
        np.testing.assert_array_equal(PoseSE3.identity().world_to_camera(y), y)

    def test_camera_center_maps_to_origin(self):
        pose = PoseSE3(np.eye(3), np.array([1.0, 0.0, 0.0]))
        np.testing.assert_allclose(
            pose.world_to_camera(np.array([1.0, 0.0, 0.0])), np.zeros(3), atol=1e-15
        )

    def test_matches_homogeneous_inverse_oracle(self, rng):
        for _ in range(50):
            pose = random_pose(rng)
            y = rng.uniform(-10, 10, size=3)
            hom = np.linalg.inv(pose.as_matrix()) @ np.append(y, 1.0)
            np.testing.assert_allclose(pose.world_to_camera(y), hom[:3], atol=1e-12)

    def test_batch_agrees_with_single(self, rng):
        pose = random_pose(rng)
        ys = rng.uniform(-10, 10, size=(7, 3))
        batch = pose.world_to_camera(ys)
        for row, y in zip(batch, ys):
            np.testing.assert_allclose(row, pose.world_to_camera(y), atol=1e-13)


def project_batch(intr, cam_points):
    """The package's projection (the one inside ``reproj_terms`` and
    ``photometric_image_loss``) and ``depth_statuses`` of (N, 3) points."""
    d = np.asarray(cam_points, dtype=np.float64).reshape(-1, 3)
    return _project(intr, d), depth_statuses(d[:, 2])


class TestProject:
    """The scalar ``oracles.project`` and the package's batch projection
    agree on each case, bit for bit."""

    def check(self, intr, point, pixel, status):
        pix, s = project(intr, np.array(point))
        np.testing.assert_array_equal(pix, pixel)
        assert s == status
        pix, s = project_batch(intr, [point])
        np.testing.assert_array_equal(pix[0], pixel)
        assert s.tolist() == [status]

    def test_optical_axis_point(self, intr):
        self.check(intr, [0.0, 0.0, 5.0], [50.0, 50.0], DepthStatus.IN_FRONT)

    def test_pinhole_arithmetic(self, intr):
        self.check(intr, [1.0, 1.0, 2.0], [100.0, 100.0], DepthStatus.IN_FRONT)

    def test_antipodal_point_same_pixel(self, intr):
        self.check(intr, [0.0, 0.0, -5.0], [50.0, 50.0], DepthStatus.BEHIND)

    def test_near_plane_status_and_raw_pixel(self, intr):
        self.check(intr, [1.0, 1.0, 0.0], [np.inf, np.inf], DepthStatus.NEAR_PLANE)
        # just off the plane, on either side, is still NearPlane
        for z in (0.5 * EPS_NEAR_PLANE, -0.5 * EPS_NEAR_PLANE):
            pix, s = project_batch(intr, [1.0, 1.0, z])
            assert depth_status(z) == s[0] == DepthStatus.NEAR_PLANE
            assert np.all(np.isfinite(pix))

    def test_statuses_at_every_boundary(self, rng):
        eps = EPS_NEAR_PLANE
        z = np.array(
            [0.0, -0.0, eps, -eps, np.nextafter(eps, 0), np.nextafter(-eps, 0),
             np.nextafter(eps, 1), np.nextafter(-eps, -1), 5e-324, -5e-324,
             np.nan, -np.nan, np.inf, -np.inf, 1e300, -1e300]
        )
        z = np.concatenate([z, rng.normal(scale=3 * eps, size=200), rng.normal(size=50)])
        got = depth_statuses(z)
        assert got.dtype == np.dtype(int) and got.shape == z.shape
        assert got.tolist() == [depth_status(v) for v in z.tolist()]
        assert depth_statuses(np.zeros(0)).dtype == np.dtype(int)
        # a column view, as the losses pass it
        assert depth_statuses(np.stack([z, z, -z], axis=1)[:, 2]).tolist() == [
            depth_status(v) for v in (-z).tolist()
        ]

    def test_batch_matches_single(self, intr, rng):
        pts = rng.uniform(-5, 5, size=(40, 3))
        pix, statuses = project_points(intr, pts)
        ours, our_statuses = project_batch(intr, pts)
        np.testing.assert_array_equal(ours, pix)
        np.testing.assert_array_equal(our_statuses, statuses)
        for i in range(len(pts)):
            p, s = project(intr, pts[i])
            np.testing.assert_allclose(pix[i], p, atol=1e-13)
            assert statuses[i] == s


class TestRayVector:
    def test_principal_point(self, intr):
        r = ray_vectors(intr, np.array([[50.0, 50.0]]))[0]
        np.testing.assert_array_equal(r, [0.0, 0.0, 100.0])
        assert np.linalg.norm(r) == intr.f

    def test_componentwise_subtraction(self, intr):
        np.testing.assert_array_equal(
            ray_vectors(intr, np.array([[53.0, 54.0]])), [[3.0, 4.0, 100.0]]
        )

    def test_roundtrip_grid(self, intr):
        xs = np.linspace(0.0, 100.0, 10)
        pixels = np.array([[x, y] for x in xs for y in xs])
        pix, statuses = project_batch(intr, ray_vectors(intr, pixels))
        np.testing.assert_allclose(pix, pixels, atol=1e-12)
        assert np.all(statuses == DepthStatus.IN_FRONT)

    def test_antipodal_projection_identity(self, intr, rng):
        # the geometric premise of the behind-camera pathology
        p = rng.uniform(-20, 120, size=(50, 2))
        s = rng.uniform(0.01, 100.0, size=(50, 1))
        pix, statuses = project_batch(intr, -s * ray_vectors(intr, p))
        np.testing.assert_allclose(pix, p, atol=1e-9)
        assert np.all(statuses == DepthStatus.BEHIND)

    def test_batch_matches_single(self, intr, rng):
        pixels = rng.uniform(0, 100, size=(25, 2))
        rays = ray_vectors(intr, pixels)
        for i in range(len(pixels)):
            np.testing.assert_array_equal(rays[i], ray_vector(intr, pixels[i]))


class TestRotationFromRotvec:
    def test_matches_rotation_about_axis(self, rng):
        for _ in range(50):
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            angle = rng.uniform(1e-6, np.pi)
            np.testing.assert_allclose(
                rotation_from_rotvec(angle * axis),
                rotation_about_axis(axis, angle),
                atol=1e-14,
            )

    @pytest.mark.parametrize("angle", [0.0, 1e-15, 0.999e-12, 1.001e-12, 1e-9])
    def test_orthonormal_around_the_small_angle_branch(self, rng, angle):
        axis = rng.normal(size=3)
        R = rotation_from_rotvec(angle * axis / np.linalg.norm(axis))
        assert np.linalg.norm(R.T @ R - np.eye(3)) < 1e-15
        assert abs(np.linalg.det(R) - 1.0) < 1e-15
        PoseSE3(R, np.zeros(3))  # passes the pose's own checks

    def test_pose_error_from_identity_is_the_angle(self, rng):
        for _ in range(50):
            omega = rng.normal(size=3)
            omega *= rng.uniform(0.01, np.pi - 0.01) / np.linalg.norm(omega)
            pose = PoseSE3(rotation_from_rotvec(omega), np.zeros(3))
            rot, trans = pose_error(pose, PoseSE3.identity())
            assert abs(rot - np.degrees(np.linalg.norm(omega))) < 1e-9
            assert trans == 0.0


class TestPoseError:
    def test_zero_for_equal_poses(self, rng):
        pose = random_pose(rng)
        rot, trans = pose_error(pose, pose)
        # arccos near 1 amplifies round-off; 1e-5 deg is effectively zero
        assert rot < 1e-5
        assert trans == 0.0

    def test_pure_rotation_about_z(self, rng):
        gt = random_pose(rng)
        Rz = rotation_about_axis(np.array([0.0, 0.0, 1.0]), np.radians(10.0))
        est = PoseSE3(gt.rotation @ Rz, gt.translation)
        rot, trans = pose_error(est, gt)
        assert abs(rot - 10.0) < 1e-9
        assert trans == 0.0

    def test_matches_quaternion_oracle(self, rng):
        for _ in range(50):
            est, gt = random_pose(rng), random_pose(rng)
            rot, trans = pose_error(est, gt)
            expected = quaternion_angle_deg(est.rotation.T @ gt.rotation)
            assert abs(rot - expected) < 1e-9
            assert abs(trans - np.linalg.norm(est.center - gt.center)) < 1e-12


class TestNearestRotation:
    def test_projects_perturbed_rotation(self, rng):
        R = random_pose(rng).rotation
        noisy = R + rng.normal(scale=1e-4, size=(3, 3))
        fixed = nearest_rotation(noisy)
        assert np.linalg.norm(fixed.T @ fixed - np.eye(3)) < 1e-12
        assert np.linalg.norm(fixed - R) < 1e-3
