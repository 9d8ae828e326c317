"""Reference implementations that the tests compare the package against.

``world_to_camera``, ``depth_status``, ``project`` and ``ray_vector`` are
the one-point forms of the camera model: a pose applied to a point, a
depth's status, a pixel with its status, and a pixel's ray.
``project_points`` is batch projection with depth statuses. ``ssim3x3`` is
the SSIM map of two whole images over 3x3 box windows, with the gradient of
its sum; it calls ``anglereloc.losses._ssim_from_moments``, so it checks the
formula that the photometric loss applies to its windows.
``bilinear_clamped`` is the bilinear sampler as it was before it had a path
for batches that lie inside the image. ``gen_scene``,
``observe`` and ``build_covis`` are the per-point loop forms of their
``anglereloc.scenegen`` namesakes: one random draw, one projection check
and one dictionary update per point. The package's whole-array versions
must match them bit for bit; ``observe`` here projects the scene itself, so
it stands for ``anglereloc.scenegen._in_frame`` followed by the package's
``observe``. ``gen_scene`` takes the free-space min radius, which the
package fixes, so tests compare other radii against
``anglereloc.scenegen._free_space_points``. ``build_covis`` returns this
module's own ``CoVisibility``, which also keeps the point -> images map that
the package no longer stores; ``multiview_entries`` reads it one row at a
time, as the loop form of ``anglereloc.losses.build_multiview_index``.

``look_pose`` is ``anglereloc.scenegen._look_pose`` as it was before its
cross products were written out on Python floats: two ``np.cross`` calls
and ``np.column_stack``.

``value_noise``, ``shade`` and ``render_rays`` are the only reference for
the renderer, which the package no longer holds in this form: four
``_hash01`` calls per sample and octave, and the normal, squared edge
lengths, texture scale and hit point recomputed per call. A plane's
``shade`` gathers its lattice hashes from per-plane tables, and
``anglereloc.scenegen._trace`` reuses per-plane constants; both must match
these bit for bit. They warn where the package does not (scalar overflow on
0-d input, inf * 0 on rays parallel to a plane), so tests call them under
``np.errstate(all="ignore")``.
"""

from collections import Counter

import numpy as np

from anglereloc.geometry import (
    EPS_NEAR_PLANE,
    DepthStatus,
    PoseSE3,
    depth_statuses,
    nearest_rotation,
)
from anglereloc.losses import DimensionMismatchError, _ssim_from_moments
from anglereloc.scenegen import (
    TEXTURE_CELLS_PER_UNIT,
    DescriptorSource,
    ImageObservations,
    NoGeometryError,
    SyntheticScene,
    TexturedPlane,
    _hash01,
    _room_planes,
)


def world_to_camera(pose, y):
    """Camera-frame coordinates of world point(s) ``y`` under ``pose``."""
    return pose.world_to_camera(y)


def depth_status(z):
    if abs(z) < EPS_NEAR_PLANE:
        return DepthStatus.NEAR_PLANE
    return DepthStatus.IN_FRONT if z > 0 else DepthStatus.BEHIND


def project(intr, cam_point):
    """Perspective projection of one camera-frame point: ``(pixel, status)``.

    The raw pixel is returned for every status, including Behind and
    NearPlane; a zero depth gives non-finite pixel values, not an exception.
    """
    d = np.asarray(cam_point, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        px = intr.f * d[0] / d[2] + intr.cx
        py = intr.f * d[1] / d[2] + intr.cy
    return np.array([px, py]), depth_status(d[2])


def ray_vector(intr, pixel):
    """Camera-frame ray through ``pixel``: ``(x - cx, y - cy, f)``."""
    p = np.asarray(pixel, dtype=np.float64)
    return np.array([p[0] - intr.cx, p[1] - intr.cy, intr.f])


def _box3(a):
    """3x3 box filter with zero padding; self-adjoint, which keeps the
    gradient of the SSIM map sum a single extra filtering pass."""
    p = np.pad(a, 1)
    out = np.zeros_like(a)
    for dy in (0, 1, 2):
        for dx in (0, 1, 2):
            out += p[dy : dy + a.shape[0], dx : dx + a.shape[1]]
    return out / 9.0


def ssim3x3(a, b):
    """Per-pixel SSIM map between two images with 3x3 box-filtered
    statistics, plus the gradient of the map's sum w.r.t. ``a``."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 2:
        raise DimensionMismatchError("ssim3x3 needs two equal-shape 2D images")
    mu_b = _box3(b)
    ssim_map, f_mu_a, f_e_aa, f_e_ab = _ssim_from_moments(
        _box3(a), _box3(a * a), _box3(a * b), mu_b, mu_b**2, _box3(b * b) - mu_b**2
    )
    grad_a = _box3(f_mu_a) + 2 * a * _box3(f_e_aa) + b * _box3(f_e_ab)
    return ssim_map, grad_a


def bilinear_clamped(img, q):
    """``anglereloc.losses.bilinear_values_and_grads`` as it was before its
    all-inside path: every sample clamped into the image, integer cell
    corners clamped to the last cell, and the results of the samples outside
    replaced by zeros with two ``np.where``. A NaN coordinate warns in the
    integer cast here, so tests call it under ``np.errstate(invalid="ignore")``."""
    img = np.asarray(img, dtype=np.float64)
    h, w = img.shape
    q = np.asarray(q, dtype=np.float64)
    x, y = q[:, 0], q[:, 1]
    valid = (x >= 0) & (x <= w - 1) & (y >= 0) & (y <= h - 1)
    xs = np.minimum(np.maximum(x, 0), w - 1)
    ys = np.minimum(np.maximum(y, 0), h - 1)
    x0 = np.minimum(np.maximum(np.floor(xs).astype(int), 0), w - 2)
    y0 = np.minimum(np.maximum(np.floor(ys).astype(int), 0), h - 2)
    fx = xs - x0
    fy = ys - y0
    flat = img.ravel()
    i00 = y0 * w + x0
    v00 = flat[i00]
    v01 = flat[i00 + 1]
    v10 = flat[i00 + w]
    v11 = flat[i00 + w + 1]
    top = v00 * (1 - fx) + v01 * fx
    bot = v10 * (1 - fx) + v11 * fx
    values = top * (1 - fy) + bot * fy
    grads = np.empty_like(q)
    grads[:, 0] = (v01 - v00) * (1 - fy) + (v11 - v10) * fy
    grads[:, 1] = bot - top
    values = np.where(valid, values, 0.0)
    grads = np.where(valid[:, None], grads, 0.0)
    return values, grads, valid


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
    return SyntheticScene(points, planes, float(np.max(hi - lo)))


def observe(
    scene, pose, intr, width, height, pixel_noise_sigma=0.0, rng=None, image_id=0, source=None
):
    if rng is None:
        rng = np.random.default_rng(0)
    if source is None:
        source = DescriptorSource(0, len(scene.points), 0.0)
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
        image_id, np.flatnonzero(keep), pixels, scene.points[keep].copy(), source
    )


def look_pose(position, forward):
    z = forward / np.linalg.norm(forward)
    y_des = np.array([0.0, 0.0, -1.0])
    x = np.cross(y_des, z)
    x /= np.linalg.norm(x)
    y = np.cross(z, x)
    R = np.column_stack([x, y, z])
    return PoseSE3(nearest_rotation(R), position)


class CoVisibility:
    """Which images see each point (one entry per observation row, images
    ascending), and the points that are corresponded."""

    def __init__(self, point_to_images, corresponded):
        self.point_to_images = point_to_images
        self.corresponded = corresponded

    def other_images(self, point_id, image_id):
        k = int(point_id)
        if k not in self.corresponded:
            return ()
        return tuple(j for j in self.point_to_images.get(k, ()) if j != image_id)


def build_covis(observations_by_image):
    point_to_images = {}
    for image_id in sorted(observations_by_image):
        for k in observations_by_image[image_id].point_ids:
            point_to_images.setdefault(int(k), []).append(image_id)
    point_to_images = {k: tuple(v) for k, v in point_to_images.items()}
    corresponded = {k for k, v in point_to_images.items() if len(v) >= 2}
    return CoVisibility(point_to_images, corresponded)


def multiview_entries(observations_by_image, corresponded):
    """Per image id, per observation row, the list of ``(other image id,
    pixel)`` entries: ``covis.other_images`` of the row's point, each paired
    with the pixel of the next row of that image observing the point."""
    covis = CoVisibility(build_covis(observations_by_image).point_to_images, corresponded)
    pixels_of = {}  # (image id, point id) -> that image's pixels of the point
    for image_id, obs in observations_by_image.items():
        for k, pixel in zip(obs.point_ids, obs.pixels):
            pixels_of.setdefault((image_id, int(k)), []).append(pixel)
    entries = {}
    for image_id in sorted(observations_by_image):
        per_row = []
        for k in observations_by_image[image_id].point_ids:
            used = Counter()
            row = []
            for j in covis.other_images(k, image_id):
                row.append((j, pixels_of[(j, int(k))][used[j]]))
                used[j] += 1
            per_row.append(row)
        entries[image_id] = per_row
    return entries


def value_noise(s, t, seed, octaves=3, gain=0.5):
    s = np.asarray(s, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64)
    total = np.zeros_like(s)
    amp, freq, norm = 1.0, 1.0, 0.0
    for octave in range(octaves):
        xs, ys = s * freq, t * freq
        x0 = np.floor(xs).astype(np.int64)
        y0 = np.floor(ys).astype(np.int64)
        fx, fy = xs - x0, ys - y0
        wx = fx * fx * (3 - 2 * fx)
        wy = fy * fy * (3 - 2 * fy)
        oseed = seed * 1000003 + octave
        v00 = _hash01(x0, y0, oseed)
        v01 = _hash01(x0 + 1, y0, oseed)
        v10 = _hash01(x0, y0 + 1, oseed)
        v11 = _hash01(x0 + 1, y0 + 1, oseed)
        top = v00 * (1 - wx) + v01 * wx
        bot = v10 * (1 - wx) + v11 * wx
        total += amp * (top * (1 - wy) + bot * wy)
        norm += amp
        amp *= gain
        freq *= 2.0
    out = total / norm
    return 0.1 + 0.8 * out


def shade(plane, u, v):
    su = np.linalg.norm(plane.edge_u) * TEXTURE_CELLS_PER_UNIT
    sv = np.linalg.norm(plane.edge_v) * TEXTURE_CELLS_PER_UNIT
    return value_noise(np.asarray(u) * su, np.asarray(v) * sv, plane.texture_seed)


def render_rays(scene, origin, dirs):
    if not scene.planes:
        raise NoGeometryError("scene has no textured planes to render")
    n = len(dirs)
    best_s = np.full(n, np.inf)
    out = np.full(n, 0.5)
    for plane in scene.planes:
        normal = np.cross(plane.edge_u, plane.edge_v)
        denom = dirs @ normal
        with np.errstate(divide="ignore", invalid="ignore"):
            s = ((plane.origin - origin) @ normal) / denom
        local = origin + s[:, None] * dirs - plane.origin
        u = local @ plane.edge_u / (plane.edge_u @ plane.edge_u)
        v = local @ plane.edge_v / (plane.edge_v @ plane.edge_v)
        hit = (
            np.isfinite(s)
            & (s > 1e-9)
            & (s < best_s)
            & (u >= 0)
            & (u <= 1)
            & (v >= 0)
            & (v <= 1)
        )
        if np.any(hit):
            out[hit] = shade(plane, u[hit], v[hit])
            best_s[hit] = s[hit]
    return out
