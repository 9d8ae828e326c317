"""Reference implementations that the tests compare the package against.

``project_points`` is batch projection with depth statuses. ``gen_scene``,
``observe`` and ``build_covis`` are the per-point loop forms of their
``anglereloc.scenegen`` namesakes: one random draw, one projection check
and one dictionary update per point. The package's whole-array versions
must match them bit for bit.
"""

import numpy as np

from anglereloc.geometry import depth_statuses
from anglereloc.scenegen import (
    CoVisibilityGraph,
    ImageObservations,
    SyntheticScene,
    TexturedPlane,
    _room_planes,
)


def project_points(intr, cam_points):
    """Batch projection: (N, 3) camera points -> ((N, 2) pixels, (N,) statuses)."""
    d = np.asarray(cam_points, dtype=np.float64)
    z = d[:, 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        pix = intr.f * d[:, :2] / z[:, None]
    pix = pix + np.array([intr.cx, intr.cy])
    return pix, depth_statuses(z)


def gen_scene(
    seed,
    point_count=500,
    plane_count=6,
    half_extent=5.0,
    free_space_fraction=0.2,
    free_space_min_radius=3.5,
):
    rng = np.random.default_rng([seed, 1])
    planes = _room_planes(half_extent, seed)[: max(plane_count, 0)]
    for extra in range(max(plane_count - 6, 0)):
        center = rng.uniform(-half_extent, half_extent, size=3)
        center *= max(free_space_min_radius, np.linalg.norm(center)) / max(
            np.linalg.norm(center), 1e-9
        )
        eu = rng.normal(size=3)
        eu *= 2.0 / np.linalg.norm(eu)
        ev = rng.normal(size=3)
        ev -= (ev @ eu) / (eu @ eu) * eu
        ev *= 2.0 / np.linalg.norm(ev)
        planes.append(
            TexturedPlane(center - eu / 2 - ev / 2, eu, ev, seed * 100 + 50 + extra)
        )

    n_free = int(round(point_count * free_space_fraction)) if planes else point_count
    n_surface = point_count - n_free

    pts = []
    if n_surface > 0:
        areas = np.array(
            [np.linalg.norm(np.cross(p.edge_u, p.edge_v)) for p in planes]
        )
        choice = rng.choice(len(planes), size=n_surface, p=areas / areas.sum())
        for idx in choice:
            plane = planes[idx]
            u, v = rng.uniform(size=2)
            pts.append(plane.origin + u * plane.edge_u + v * plane.edge_v)
    while len(pts) < point_count:
        cand = rng.uniform(-half_extent, half_extent, size=3)
        if np.linalg.norm(cand) >= free_space_min_radius:
            pts.append(cand)
    points = np.array(pts)

    lo = np.full(3, -half_extent)
    hi = np.full(3, half_extent)
    for p in planes:
        for corner in (
            p.origin,
            p.origin + p.edge_u,
            p.origin + p.edge_v,
            p.origin + p.edge_u + p.edge_v,
        ):
            lo = np.minimum(lo, corner)
            hi = np.maximum(hi, corner)
    lo = np.minimum(lo, points.min(axis=0))
    hi = np.maximum(hi, points.max(axis=0))
    return SyntheticScene(points, planes, lo, hi, float(np.max(hi - lo)))


def observe(scene, pose, intr, width, height, pixel_noise_sigma=0.0, rng=None, image_id=0):
    if rng is None:
        rng = np.random.default_rng(0)
    cam = pose.world_to_camera(scene.points)
    pix, _ = project_points(intr, cam)
    keep = (
        (cam[:, 2] > 0)
        & (pix[:, 0] >= 0)
        & (pix[:, 0] <= width - 1)
        & (pix[:, 1] >= 0)
        & (pix[:, 1] <= height - 1)
    )
    pixels = pix[keep]
    if pixel_noise_sigma > 0:
        pixels = pixels + rng.normal(scale=pixel_noise_sigma, size=pixels.shape)
        pixels[:, 0] = np.clip(pixels[:, 0], 0, width - 1)
        pixels[:, 1] = np.clip(pixels[:, 1], 0, height - 1)
    return ImageObservations(
        image_id, np.flatnonzero(keep), pixels, scene.points[keep].copy(), cam[keep, 2].copy()
    )


def build_covis(observations_by_image):
    point_to_images = {}
    for image_id in sorted(observations_by_image):
        for k in observations_by_image[image_id].point_ids:
            point_to_images.setdefault(int(k), []).append(image_id)
    point_to_images = {k: tuple(v) for k, v in point_to_images.items()}
    corresponded = {k for k, v in point_to_images.items() if len(v) >= 2}
    return CoVisibilityGraph(point_to_images, corresponded)
