"""Geometry unit tests: projections, poses and their invariants.

Oracle strategy: pose algebra is checked against plain 4x4 homogeneous
matrix arithmetic, and rotation-error angles against a quaternion
computation, neither of which shares code with the module.
"""

import numpy as np
import pytest

from anglereloc.geometry import (
    CameraIntrinsics,
    DepthStatus,
    PoseSE3,
    nearest_rotation,
    pose_error,
    project,
    ray_vector,
    ray_vectors,
    rotation_about_axis,
    world_to_camera,
)

from conftest import random_pose
from oracles import project_points


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
        np.testing.assert_array_equal(world_to_camera(PoseSE3.identity(), y), y)

    def test_camera_center_maps_to_origin(self):
        pose = PoseSE3(np.eye(3), np.array([1.0, 0.0, 0.0]))
        np.testing.assert_allclose(
            world_to_camera(pose, np.array([1.0, 0.0, 0.0])), np.zeros(3), atol=1e-15
        )

    def test_matches_homogeneous_inverse_oracle(self, rng):
        for _ in range(50):
            pose = random_pose(rng)
            y = rng.uniform(-10, 10, size=3)
            hom = np.linalg.inv(pose.as_matrix()) @ np.append(y, 1.0)
            np.testing.assert_allclose(world_to_camera(pose, y), hom[:3], atol=1e-12)

    def test_batch_agrees_with_single(self, rng):
        pose = random_pose(rng)
        ys = rng.uniform(-10, 10, size=(7, 3))
        batch = pose.world_to_camera(ys)
        for row, y in zip(batch, ys):
            np.testing.assert_allclose(row, pose.world_to_camera(y), atol=1e-13)


class TestProject:
    def test_optical_axis_point(self, intr):
        pix, status = project(intr, np.array([0.0, 0.0, 5.0]))
        np.testing.assert_array_equal(pix, [50.0, 50.0])
        assert status == DepthStatus.IN_FRONT

    def test_pinhole_arithmetic(self, intr):
        pix, status = project(intr, np.array([1.0, 1.0, 2.0]))
        np.testing.assert_array_equal(pix, [100.0, 100.0])
        assert status == DepthStatus.IN_FRONT

    def test_antipodal_point_same_pixel(self, intr):
        pix, status = project(intr, np.array([0.0, 0.0, -5.0]))
        np.testing.assert_array_equal(pix, [50.0, 50.0])
        assert status == DepthStatus.BEHIND

    def test_near_plane_status_and_raw_pixel(self, intr):
        pix, status = project(intr, np.array([1.0, 1.0, 0.0]))
        assert status == DepthStatus.NEAR_PLANE
        assert np.all(np.isinf(pix))

    def test_batch_matches_single(self, intr, rng):
        pts = rng.uniform(-5, 5, size=(40, 3))
        pix, statuses = project_points(intr, pts)
        for i in range(len(pts)):
            p, s = project(intr, pts[i])
            np.testing.assert_allclose(pix[i], p, atol=1e-13)
            assert statuses[i] == s


class TestRayVector:
    def test_principal_point(self, intr):
        r = ray_vector(intr, np.array([50.0, 50.0]))
        np.testing.assert_array_equal(r, [0.0, 0.0, 100.0])
        assert np.linalg.norm(r) == intr.f

    def test_componentwise_subtraction(self, intr):
        np.testing.assert_array_equal(
            ray_vector(intr, np.array([53.0, 54.0])), [3.0, 4.0, 100.0]
        )

    def test_roundtrip_grid(self, intr):
        xs = np.linspace(0.0, 100.0, 10)
        for x in xs:
            for y in xs:
                pix, status = project(intr, ray_vector(intr, np.array([x, y])))
                np.testing.assert_allclose(pix, [x, y], atol=1e-12)
                assert status == DepthStatus.IN_FRONT

    def test_antipodal_projection_identity(self, intr, rng):
        # the geometric premise of the behind-camera pathology
        for _ in range(50):
            p = rng.uniform(-20, 120, size=2)
            s = rng.uniform(0.01, 100.0)
            pix, status = project(intr, -s * ray_vector(intr, p))
            np.testing.assert_allclose(pix, p, atol=1e-9)
            assert status == DepthStatus.BEHIND

    def test_batch_matches_single(self, intr, rng):
        pixels = rng.uniform(0, 100, size=(25, 2))
        rays = ray_vectors(intr, pixels)
        for i in range(len(pixels)):
            np.testing.assert_array_equal(rays[i], ray_vector(intr, pixels[i]))


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
