"""Pinhole camera model, SE(3) poses, ray vectors, and pose-error metrics.

Conventions used throughout the package:

* World and camera frames are right-handed; the camera looks along +Z,
  X points right and Y points down in the image.
* ``PoseSE3`` stores the camera-to-world transform: ``X_world = R @ X_cam + t``.
  Its inverse maps world points into the camera frame.
* Camera-frame points, ray vectors and pixels are plain float64 ndarrays
  of shape (N, 3), (N, 3) and (N, 2); ``PoseSE3`` also maps a single (3,)
  point. A ray vector through pixel (x, y) is ``(x - cx, y - cy, f)``: its
  third component equals the focal length exactly.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

# |Z| below this is classified NearPlane. Classification only: projection
# never clamps, so the plain reprojection loss keeps its genuine instability.
EPS_NEAR_PLANE = 1e-12

_ORTHO_TOL = 1e-9


class DepthStatus(enum.IntEnum):
    """Sign classification of a camera-frame point's depth (Z component)."""

    IN_FRONT = 0
    BEHIND = 1
    NEAR_PLANE = 2


@dataclass(frozen=True)
class CameraIntrinsics:
    """Ideal pinhole intrinsics with a single focal length (fx == fy == f)."""

    f: float
    cx: float
    cy: float

    def __post_init__(self):
        if not self.f > 0:
            raise ValueError(f"focal length must be positive, got {self.f}")

    def matrix(self) -> np.ndarray:
        """3x3 intrinsic matrix, upper triangular with diagonal (f, f, 1)."""
        return np.array(
            [[self.f, 0.0, self.cx], [0.0, self.f, self.cy], [0.0, 0.0, 1.0]]
        )


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=np.float64)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class PoseSE3:
    """Rigid camera-to-world transform: ``X_world = rotation @ X_cam + translation``.

    The stored arrays are defensive read-only copies; all operations return
    new values, so poses are safe to share across threads.
    """

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        R = np.asarray(self.rotation, dtype=np.float64)
        t = np.asarray(self.translation, dtype=np.float64).reshape(-1)
        if R.shape != (3, 3) or t.shape != (3,):
            raise ValueError("pose needs a 3x3 rotation and a 3-vector translation")
        # each test is written so that NaN fails it; det warns on a NaN rotation
        if not (np.isfinite(R).all() and np.isfinite(t).all()):
            raise ValueError("pose rotation and translation must be finite")
        err = np.linalg.norm(R.T @ R - np.eye(3))
        if not err <= _ORTHO_TOL:
            raise ValueError(f"rotation is not orthonormal (|R'R - I| = {err:.3e})")
        if not abs(np.linalg.det(R) - 1.0) <= _ORTHO_TOL:
            raise ValueError("rotation must be proper (det +1)")
        object.__setattr__(self, "rotation", _readonly(R))
        object.__setattr__(self, "translation", _readonly(t))

    @classmethod
    def identity(cls) -> "PoseSE3":
        return cls(np.eye(3), np.zeros(3))

    def as_matrix(self) -> np.ndarray:
        """4x4 homogeneous camera-to-world matrix."""
        m = np.eye(4)
        m[:3, :3] = self.rotation
        m[:3, 3] = self.translation
        return m

    @property
    def center(self) -> np.ndarray:
        """Camera center in world coordinates."""
        return self.translation

    def inverse(self) -> "PoseSE3":
        Rt = self.rotation.T
        return PoseSE3(Rt, -Rt @ self.translation)

    def compose(self, other: "PoseSE3") -> "PoseSE3":
        """Group composition ``self ∘ other``: apply ``other`` first."""
        return PoseSE3(
            self.rotation @ other.rotation,
            self.rotation @ other.translation + self.translation,
        )

    def world_to_camera(self, y: np.ndarray) -> np.ndarray:
        """Map world point(s) into the camera frame: ``R.T @ (y - t)``.

        Accepts a single (3,) point or an (N, 3) batch.
        """
        y = np.asarray(y, dtype=np.float64)
        return (y - self.translation) @ self.rotation

    def camera_to_world(self, d: np.ndarray) -> np.ndarray:
        d = np.asarray(d, dtype=np.float64)
        return d @ self.rotation.T + self.translation


# -z falls in bin 0 (z >= EPS), 1 (|z| < EPS) or 2 (z <= -EPS) of these edges;
# searchsorted sorts NaN after every edge, so a NaN depth lands in bin 2 too
_STATUS_EDGES = np.array([-EPS_NEAR_PLANE, np.nextafter(EPS_NEAR_PLANE, 0.0)])
_STATUS_OF_BIN = np.array(
    [int(DepthStatus.IN_FRONT), int(DepthStatus.NEAR_PLANE), int(DepthStatus.BEHIND)]
)


def depth_statuses(z: np.ndarray) -> np.ndarray:
    """``DepthStatus`` of each depth in ``z``, as an int array: NEAR_PLANE
    where ``|z| < EPS_NEAR_PLANE``, else IN_FRONT for positive depths and BEHIND
    for the rest (NaN included). One ``searchsorted`` over two bin edges and
    one ``take``: on ~35 rows the cost is the count of numpy calls."""
    return _STATUS_OF_BIN.take(_STATUS_EDGES.searchsorted(-z))


def ray_vectors(intr: CameraIntrinsics, pixels: np.ndarray) -> np.ndarray:
    """Camera-frame rays through (N, 2) pixels: rows ``(x - cx, y - cy, f)``."""
    p = np.asarray(pixels, dtype=np.float64)
    out = np.empty((p.shape[0], 3))
    out[:, 0] = p[:, 0] - intr.cx
    out[:, 1] = p[:, 1] - intr.cy
    out[:, 2] = intr.f
    return out


def rotation_about_axis(axis: np.ndarray, angle_rad: float) -> np.ndarray:
    """Rotation matrix about ``axis`` by ``angle_rad`` (Rodrigues formula)."""
    a = np.asarray(axis, dtype=np.float64)
    a = a / np.linalg.norm(a)
    K = np.array([[0, -a[2], a[1]], [a[2], 0, -a[0]], [-a[1], a[0], 0]])
    return np.eye(3) + np.sin(angle_rad) * K + (1 - np.cos(angle_rad)) * (K @ K)


def rotation_from_rotvec(omega: np.ndarray) -> np.ndarray:
    """Exponential map: rotation vector (axis * angle) -> rotation matrix."""
    w = np.asarray(omega, dtype=np.float64)
    angle = np.linalg.norm(w)
    if angle < 1e-12:
        K = np.array([[0, -w[2], w[1]], [w[2], 0, -w[0]], [-w[1], w[0], 0]])
        # second-order Taylor keeps orthonormality to ~angle^3
        return np.eye(3) + K + 0.5 * (K @ K)
    return rotation_about_axis(w / angle, angle)


def nearest_rotation(m: np.ndarray) -> np.ndarray:
    """Orthogonal Procrustes projection of a 3x3 matrix onto SO(3)."""
    u, _, vt = np.linalg.svd(np.asarray(m, dtype=np.float64))
    r = u @ vt
    if np.linalg.det(r) < 0:
        u = u.copy()
        u[:, -1] = -u[:, -1]
        r = u @ vt
    return r


def pose_error(est: PoseSE3, gt: PoseSE3):
    """(rotation error in degrees, Euclidean distance between camera centers).

    The rotation angle comes from the trace of the relative rotation,
    clamped into the arccos domain against round-off.
    """
    rel = est.rotation.T @ gt.rotation
    c = (np.trace(rel) - 1.0) / 2.0
    rot_deg = np.degrees(np.arccos(np.clip(c, -1.0, 1.0)))
    trans = float(np.linalg.norm(est.center - gt.center))
    return float(rot_deg), trans
