"""Desk-scale camera relocalization toolkit.

Scene-coordinate regression with an angle-based reprojection loss (plus
multi-view and photometric extensions), trained and evaluated on a
synthetic scene generator that provides ground truth for every claim. No
pose solver ships yet: coordinates are evaluated against ground truth.
"""

from anglereloc.geometry import (
    CameraIntrinsics,
    DepthStatus,
    PoseSE3,
    pose_error,
)

__all__ = [
    "CameraIntrinsics",
    "DepthStatus",
    "PoseSE3",
    "pose_error",
]

__version__ = "0.1.0"
