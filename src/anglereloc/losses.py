"""Losses over scene-coordinate predictions, with analytic gradients.

Every loss reports its value, the per-point gradient with respect to the
predicted world coordinate, and stability diagnostics (behind-camera counts,
non-finite flags). The plain reprojection loss is deliberately unguarded:
its divergence near the camera plane and its zero-loss antipodal solutions
are the pathologies the angle-based loss exists to remove, so they must stay
observable. Only the angle loss carries an ``epsilon_norm`` guard, which
keeps its value and gradient finite for predictions arbitrarily close to the
camera center.

Array-first design: the ``*_terms`` kernels operate on (N, 3) prediction and
(N, 2) pixel batches and are what training uses; ``reproj_point`` /
``angle_point`` wrap them for single points. The composite losses do no
per-point Python work either. ``multiview_image_loss`` reads a
``MultiviewIndex`` that ``build_multiview_index`` makes once per training
run (CSR lists of the other images seeing each observation row, their
pixels, and the poses stacked by image); each call draws every corresponded
row's neighbor with one ``rng.integers`` call in row order and evaluates the
drawn pairs in one ``angle_terms`` pass. ``photometric_image_loss`` works on
all valid (M, 9) sampling windows at once, and its SSIM shares one formula
with ``ssim3x3``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from anglereloc.geometry import (
    CameraIntrinsics,
    DepthStatus,
    PoseSE3,
    depth_statuses,
    ray_vectors,
)


class IndexMismatchError(Exception):
    """Predictions and observations refer to different point sets."""


class MissingPoseError(Exception):
    """A referenced image has no known pose."""


class DimensionMismatchError(Exception):
    """Image operands have incompatible shapes."""


# SSIM stabilizers for intensities in [0, 1]
SSIM_C1 = 0.01**2
SSIM_C2 = 0.03**2


@dataclass(frozen=True)
class LossConfig:
    """Balance weights and guards shared by the composite losses."""

    lambda_multiview: float = 60.0
    lambda_photo: float = 20.0
    alpha_ssim: float = 0.85
    epsilon_norm: float = 1e-8

    def __post_init__(self):
        if min(self.lambda_multiview, self.lambda_photo, self.alpha_ssim) < 0:
            raise ValueError("loss weights must be non-negative")
        if not self.epsilon_norm > 0:
            raise ValueError("epsilon_norm must be positive")


@dataclass(frozen=True)
class PointLossTerm:
    """One point's loss value, gradient w.r.t. its world coordinate, and
    diagnostics: the depth status of the prediction and the angle between
    the predicted and observed rays."""

    value: float
    grad: np.ndarray
    depth_status: DepthStatus
    angle_theta: float


@dataclass
class LossReport:
    """Per-point loss arrays for one image plus aggregate diagnostics.

    ``total`` sums only the finite per-point values; non-finite terms are
    surfaced through ``nonfinite`` instead of poisoning the sum.
    """

    point_ids: np.ndarray
    values: np.ndarray
    grads: np.ndarray
    statuses: np.ndarray
    thetas: np.ndarray
    valid_mask: Optional[np.ndarray] = None

    @property
    def total(self) -> float:
        return float(np.sum(self.values[np.isfinite(self.values)]))

    @property
    def behind_count(self) -> int:
        return int(np.sum(self.statuses == int(DepthStatus.BEHIND)))

    @property
    def nonfinite(self) -> bool:
        return bool(
            np.any(~np.isfinite(self.values)) or np.any(~np.isfinite(self.grads))
        )

    @property
    def valid_fraction(self) -> float:
        if self.valid_mask is None:
            return 1.0
        return float(np.mean(self.valid_mask)) if len(self.valid_mask) else 0.0


def _row_dots(a, b):
    """Row-wise dot products of two (N, 3) arrays, column by column.

    The same bits as ``np.sum(a * b, axis=1)`` (which adds the three
    products in this order) except that three -0.0 products sum to -0.0
    here, +0.0 there; several times faster at thousands of rows.
    """
    return a[:, 0] * b[:, 0] + a[:, 1] * b[:, 1] + a[:, 2] * b[:, 2]


def _row_norms(a):
    """Row norms of an (N, 3) array: the bits of ``np.linalg.norm(a, axis=1)``."""
    return np.sqrt(_row_dots(a, a))


def _angles_between(D, rays, norms_D, norms_d):
    with np.errstate(invalid="ignore", divide="ignore"):
        cosines = _row_dots(D, rays) / (np.maximum(norms_D, 1e-300) * norms_d)
    return np.arccos(np.clip(cosines, -1.0, 1.0))


def reproj_terms(intr: CameraIntrinsics, pose: PoseSE3, preds, pixels):
    """Plain reprojection loss per point: pixel distance between the
    projected prediction and the observation.

    Returns ``(values, grads, statuses, thetas)`` over the batch. There is
    no guard at Z = 0: values and gradients go non-finite there, which is
    exactly what the diagnostics are meant to catch.
    """
    preds = np.asarray(preds, dtype=np.float64)
    pixels = np.asarray(pixels, dtype=np.float64)
    R = pose.rotation
    D = pose.world_to_camera(preds)
    rays = ray_vectors(intr, pixels)
    z = D[:, 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        proj = intr.f * D[:, :2] / z[:, None] + np.array([intr.cx, intr.cy])
        r = proj - pixels
        values = np.linalg.norm(r, axis=1)
        rhat = np.where(values[:, None] > 0, r / values[:, None], 0.0)
        # rows of the projection Jacobian dr/dD, contracted with rhat
        gx = intr.f / z
        grad_D = np.empty_like(D)
        grad_D[:, 0] = gx * rhat[:, 0]
        grad_D[:, 1] = gx * rhat[:, 1]
        grad_D[:, 2] = -gx / z * (D[:, 0] * rhat[:, 0] + D[:, 1] * rhat[:, 1])
    grads = grad_D @ R.T
    thetas = _angles_between(D, rays, _row_norms(D), _row_norms(rays))
    return values, grads, depth_statuses(z), thetas


def angle_terms(
    intr: CameraIntrinsics, pose: PoseSE3, preds, pixels, eps_norm: float = 1e-8
):
    """Angle-based reprojection loss per point.

    The prediction is rescaled onto the sphere of radius ``|ray|`` around
    the camera center and compared to the observed ray vector, so the value
    equals the chord ``2 |ray| sin(theta / 2)``. Bounded by ``2 |ray|``, and
    with the ``eps_norm`` guard its gradient stays finite all the way to the
    camera center.
    """
    preds = np.asarray(preds, dtype=np.float64)
    pixels = np.asarray(pixels, dtype=np.float64)
    R = pose.rotation
    D = pose.world_to_camera(preds)
    rays = ray_vectors(intr, pixels)
    norms_d = _row_norms(rays)
    norms_D_raw = _row_norms(D)
    norms_D = np.maximum(norms_D_raw, eps_norm)
    scale = norms_d / norms_D
    g = scale[:, None] * D - rays
    values = _row_norms(g)
    with np.errstate(invalid="ignore"):
        ghat = np.where(values[:, None] > 0, g / values[:, None], 0.0)
    grad_D = scale[:, None] * ghat
    # the 1/|D| factor is constant below the guard, so its derivative drops
    free = norms_D_raw > eps_norm
    coef = norms_d * _row_dots(D, ghat)
    np.divide(coef, norms_D**3, out=coef, where=free)
    np.subtract(grad_D, coef[:, None] * D, out=grad_D, where=free[:, None])
    grads = grad_D @ R.T
    thetas = _angles_between(D, rays, norms_D_raw, norms_d)
    return values, grads, depth_statuses(D[:, 2]), thetas


def reproj_point(
    intr: CameraIntrinsics, pose: PoseSE3, y, pixel
) -> PointLossTerm:
    """Single-point plain reprojection loss term."""
    values, grads, statuses, thetas = reproj_terms(
        intr, pose, np.asarray(y)[None, :], np.asarray(pixel)[None, :]
    )
    return PointLossTerm(
        float(values[0]), grads[0], DepthStatus(int(statuses[0])), float(thetas[0])
    )


def angle_point(
    intr: CameraIntrinsics,
    pose: PoseSE3,
    y,
    pixel,
    cfg: LossConfig = LossConfig(),
) -> PointLossTerm:
    """Single-point angle-based reprojection loss term."""
    values, grads, statuses, thetas = angle_terms(
        intr,
        pose,
        np.asarray(y)[None, :],
        np.asarray(pixel)[None, :],
        cfg.epsilon_norm,
    )
    return PointLossTerm(
        float(values[0]), grads[0], DepthStatus(int(statuses[0])), float(thetas[0])
    )


def _check_ids(pred_ids, obs_ids):
    pred_ids = np.asarray(pred_ids)
    obs_ids = np.asarray(obs_ids)
    if pred_ids.shape != obs_ids.shape or np.any(pred_ids != obs_ids):
        raise IndexMismatchError("prediction and observation point sets differ")


@dataclass(frozen=True)
class PredictionGrid:
    """Scene-coordinate predictions for one image, aligned with its
    observation list: ``coords[i]`` is the predicted world position of
    ``point_ids[i]``."""

    point_ids: np.ndarray
    coords: np.ndarray

    def __post_init__(self):
        ids = np.asarray(self.point_ids)
        coords = np.asarray(self.coords, dtype=np.float64)
        if coords.shape != (len(ids), 3):
            raise IndexMismatchError("coords must be (N, 3) matching point_ids")
        object.__setattr__(self, "point_ids", ids)
        object.__setattr__(self, "coords", coords)


class _ImageRows(NamedTuple):
    """One image's observation rows in a ``MultiviewIndex``."""

    point_ids: np.ndarray
    pixels: np.ndarray
    # (N + 1,) offsets into the index's flat entry arrays: the other images
    # seeing row r's point are entries offsets[r] .. offsets[r + 1] - 1
    offsets: np.ndarray


@dataclass(frozen=True)
class MultiviewIndex:
    """Correspondence lists and stacked poses for ``multiview_image_loss``.

    For every image with observations, a CSR list per observation row of the
    other images that see the row's point, in ``covis.other_images`` order.
    Each entry of the flat arrays holds the other image's position in
    ``image_ids`` and the point's pixel there; poses are stacked by that
    position. Built once by ``build_multiview_index`` and read-only after.
    """

    image_ids: np.ndarray  # (I,) sorted ids of the images with observations
    rotations: np.ndarray  # (I, 3, 3) camera-to-world rotations
    translations: np.ndarray  # (I, 3)
    has_pose: np.ndarray  # (I,) False where ``poses`` lacks the image
    poses: dict
    images: dict  # image id -> _ImageRows
    other_pos: np.ndarray  # (E,) position of each entry's other image
    other_pixels: np.ndarray  # (E, 2) the point's pixel in that image

    def draw(self, image_id, rng: np.random.Generator):
        """One other view per corresponded row of ``image_id``, uniform over
        the images that also see the row's point. All rows draw from one
        ``rng.integers`` call in row order, which yields the same stream as
        one scalar draw per row. Returns ``(rows, entries)``."""
        offsets = self.images[image_id].offsets
        counts = np.diff(offsets)
        rows = np.flatnonzero(counts)
        return rows, offsets[rows] + rng.integers(counts[rows])


def build_multiview_index(poses, observations_by_image, covis) -> MultiviewIndex:
    """Index the co-visibility of every observation row for the multi-view
    loss.

    ``poses`` and ``observations_by_image`` are mappings keyed by image id;
    ``covis.other_images(point_id, image_id)`` lists the other images seeing
    a point. Raises ``IndexMismatchError`` naming the image and the point
    when ``covis`` says an image sees a point that its observations lack.
    """
    image_ids = np.array(sorted(observations_by_image), dtype=np.int64)
    obs = [observations_by_image[i] for i in image_ids.tolist()]
    point_ids = [np.asarray(o.point_ids, dtype=np.int64) for o in obs]
    offsets, others = [], []
    for i, ids in zip(image_ids.tolist(), point_ids):
        starts = [len(others)]
        for k in ids.tolist():
            others.extend(covis.other_images(k, i))
            starts.append(len(others))
        offsets.append(np.array(starts))
    other_ids = np.array(others, dtype=np.int64)
    all_points = np.concatenate(point_ids)
    entry_points = np.repeat(all_points, np.concatenate([np.diff(s) for s in offsets]))

    # entry -> position of its other image, and of that image's observation row
    other_pos = np.minimum(np.searchsorted(image_ids, other_ids), len(image_ids) - 1)
    lo = all_points.min(initial=0)
    stride = all_points.max(initial=0) - lo + 1
    image_of_row = np.repeat(np.arange(len(obs)), [len(ids) for ids in point_ids])
    row_keys = image_of_row * stride + all_points - lo
    order = np.argsort(row_keys)
    entry_keys = other_pos * stride + entry_points - lo
    at = np.minimum(np.searchsorted(row_keys[order], entry_keys), len(order) - 1)
    bad = (image_ids[other_pos] != other_ids) | (row_keys[order[at]] != entry_keys)
    if np.any(bad):
        m, k = int(other_ids[bad][0]), int(entry_points[bad][0])
        raise IndexMismatchError(
            f"covis says image {m} sees point {k}, but image {m} has no observation of it"
        )
    pixels = [np.asarray(o.pixels, dtype=np.float64) for o in obs]

    has_pose = np.array([i in poses for i in image_ids.tolist()], dtype=bool)
    rotations = np.tile(np.eye(3), (len(image_ids), 1, 1))
    translations = np.zeros((len(image_ids), 3))
    for p in np.flatnonzero(has_pose):
        rotations[p] = poses[int(image_ids[p])].rotation
        translations[p] = poses[int(image_ids[p])].translation
    return MultiviewIndex(
        image_ids=image_ids,
        rotations=rotations,
        translations=translations,
        has_pose=has_pose,
        poses=dict(poses),
        images={
            i: _ImageRows(ids, pix, s)
            for i, ids, pix, s in zip(image_ids.tolist(), point_ids, pixels, offsets)
        },
        other_pos=other_pos,
        other_pixels=np.concatenate(pixels)[order[at]],
    )


# the angle loss of camera-frame points is ``angle_terms`` under this pose
_CAMERA_FRAME = PoseSE3.identity()


def multiview_image_loss(
    intr: CameraIntrinsics,
    index: MultiviewIndex,
    image_id,
    predictions: PredictionGrid,
    cfg: LossConfig = LossConfig(),
    rng: Optional[np.random.Generator] = None,
) -> LossReport:
    """Angle loss with multi-view correspondence terms for one image.

    Points without correspondences contribute their single-view angle term.
    Each corresponded point contributes, weighted by ``lambda_multiview``,
    its angle term in this image plus one more in a neighbor image drawn
    uniformly (via ``rng``) from the images that also see the point; the
    same predicted coordinate is reprojected there, so gradients from both
    views accumulate into it.

    ``index`` comes from ``build_multiview_index``, built once per training
    run. Neighbors are drawn by ``index.draw``: one ``rng.integers`` call
    over the corresponded rows in observation order. The loss is two
    ``angle_terms`` passes: the image's own rows under its pose, and every
    drawn (row, neighbor) pair at once in the neighbors' camera frames, with
    the per-row poses gathered from the index. With no correspondences this
    reduces exactly to ``angle_terms`` under the image's pose. Raises
    ``MissingPoseError`` when the image or a drawn neighbor has no pose.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    own = index.images[image_id]
    _check_ids(predictions.point_ids, own.point_ids)
    if image_id not in index.poses:
        raise MissingPoseError(f"no pose for image {image_id}")
    values, grads, statuses, thetas = angle_terms(
        intr, index.poses[image_id], predictions.coords, own.pixels, cfg.epsilon_norm
    )
    rows, entries = index.draw(image_id, rng)
    if len(rows):
        pos = index.other_pos[entries]
        missing = ~index.has_pose[pos]
        if np.any(missing):
            raise MissingPoseError(f"no pose for image {index.image_ids[pos[missing][0]]}")
        R = index.rotations[pos]
        D = np.einsum("ni,nij->nj", predictions.coords[rows] - index.translations[pos], R)
        v_m, g_cam, _, _ = angle_terms(
            intr, _CAMERA_FRAME, D, index.other_pixels[entries], cfg.epsilon_norm
        )
        lam = cfg.lambda_multiview
        values[rows] *= lam
        grads[rows] *= lam
        values[rows] += lam * v_m
        grads[rows] += lam * np.einsum("nj,nij->ni", g_cam, R)
    return LossReport(
        np.asarray(predictions.point_ids).copy(), values, grads, statuses, thetas
    )


class BilinearSample(NamedTuple):
    value: float
    grad: np.ndarray
    valid: bool


def bilinear_values_and_grads(img: np.ndarray, q: np.ndarray):
    """Bilinear interpolation of a grayscale image at continuous coords.

    ``q`` is (N, 2) as (x, y); returns values (N,), gradients (N, 2) with
    respect to the coordinates, and a validity mask that is False outside
    ``[0, W-1] x [0, H-1]`` (where value and gradient are zero).
    """
    img = np.asarray(img, dtype=np.float64)
    if img.ndim != 2:
        raise DimensionMismatchError("expected a (H, W) grayscale array")
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


def bilinear_sample(img: np.ndarray, q) -> BilinearSample:
    """Single-sample form of ``bilinear_values_and_grads``."""
    values, grads, valid = bilinear_values_and_grads(img, np.asarray(q)[None, :])
    return BilinearSample(float(values[0]), grads[0], bool(valid[0]))


def _box3(a: np.ndarray) -> np.ndarray:
    """3x3 box filter with zero padding; self-adjoint, which keeps the
    gradient of the SSIM map sum a single extra filtering pass."""
    p = np.pad(a, 1)
    out = np.zeros_like(a)
    for dy in (0, 1, 2):
        for dx in (0, 1, 2):
            out += p[dy : dy + a.shape[0], dx : dx + a.shape[1]]
    return out / 9.0


def _ssim_from_moments(mu_a, mu_b, e_aa, e_bb, e_ab):
    """SSIM from window statistics (means, second moments and the cross
    moment), plus its partials w.r.t. ``mu_a``, ``e_aa`` and ``e_ab``: the
    parts of the gradient w.r.t. ``a`` once chained through the window
    averaging."""
    var_a = e_aa - mu_a**2
    var_b = e_bb - mu_b**2
    cov = e_ab - mu_a * mu_b
    n1 = 2 * mu_a * mu_b + SSIM_C1
    n2 = 2 * cov + SSIM_C2
    d1 = mu_a**2 + mu_b**2 + SSIM_C1
    d2 = var_a + var_b + SSIM_C2
    ssim = (n1 * n2) / (d1 * d2)
    f_n1 = n2 / (d1 * d2)
    f_n2 = n1 / (d1 * d2)
    f_d1 = -ssim / d1
    f_d2 = -ssim / d2
    f_mu_a = 2 * mu_b * f_n1 + 2 * mu_a * f_d1 - 2 * mu_a * f_d2 - mu_b * 2 * f_n2
    return ssim, f_mu_a, f_d2, 2 * f_n2


def ssim3x3(a: np.ndarray, b: np.ndarray):
    """Per-pixel SSIM map between two images with 3x3 box-filtered
    statistics, plus the gradient of the map's sum w.r.t. ``a``.

    Values lie in [-1, 1]; identical images give 1 everywhere. Stabilizers
    are the conventional C1 = 0.01^2, C2 = 0.03^2 for intensities in [0, 1].
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 2:
        raise DimensionMismatchError("ssim3x3 needs two equal-shape 2D images")
    ssim_map, f_mu_a, f_e_aa, f_e_ab = _ssim_from_moments(
        _box3(a), _box3(b), _box3(a * a), _box3(b * b), _box3(a * b)
    )
    grad_a = _box3(f_mu_a) + 2 * a * _box3(f_e_aa) + b * _box3(f_e_ab)
    return ssim_map, grad_a


_PATCH_OFFSETS = np.array(
    [[dx, dy] for dy in (-1, 0, 1) for dx in (-1, 0, 1)], dtype=np.float64
)
_PATCH_CENTER = 4


def photometric_image_loss(
    intr: CameraIntrinsics,
    pose_j: PoseSE3,
    predictions: PredictionGrid,
    observations_i,
    img_i: np.ndarray,
    img_j: np.ndarray,
    cfg: LossConfig = LossConfig(),
) -> LossReport:
    """Photometric reconstruction loss against a neighboring view.

    Each predicted coordinate is projected into the neighbor image ``j``
    and a 3x3 patch of the reconstruction is bilinearly sampled around the
    projection; it is compared with the 3x3 patch of ``img_i`` around the
    point's observed pixel using ``(1 - alpha) * L1 + alpha * (1 - SSIM)/2``
    (L1 on the central pixel, SSIM over the window). Points that land
    behind the neighbor camera or whose sampling window touches the image
    border are masked out of the sum; the report carries the valid fraction.
    Gradients flow through the projection and the bilinear sampler into the
    predicted coordinates.
    """
    img_i = _as_gray(img_i)
    img_j = _as_gray(img_j)
    if img_i.shape != img_j.shape:
        raise DimensionMismatchError("image pair must share dimensions")
    _check_ids(predictions.point_ids, observations_i.point_ids)
    preds = predictions.coords
    n = len(preds)
    R = pose_j.rotation
    D = pose_j.world_to_camera(preds)
    z = D[:, 2]
    # rows behind camera j are masked, so only the rows in front are sampled
    front = np.flatnonzero(z > 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        q = intr.f * D[front, :2] / z[front, None] + np.array([intr.cx, intr.cy])

    # 3x3 windows around the target pixel (image i) and the projection (image j)
    pix_i = np.asarray(observations_i.pixels, dtype=np.float64)[front]
    tgt_coords = pix_i[:, None, :] + _PATCH_OFFSETS
    rec_coords = q[:, None, :] + _PATCH_OFFSETS
    safe_rec = np.where(np.isfinite(rec_coords), rec_coords, -1.0)
    tgt_vals, _, tgt_ok = bilinear_values_and_grads(img_i, tgt_coords.reshape(-1, 2))
    rec_vals, rec_grads, rec_ok = bilinear_values_and_grads(
        img_j, safe_rec.reshape(-1, 2)
    )
    inside = tgt_ok.reshape(-1, 9).all(axis=1) & rec_ok.reshape(-1, 9).all(axis=1)
    ok = front[inside]
    valid = np.zeros(n, dtype=bool)
    valid[ok] = True

    # every valid window at once: a = reconstruction, b = target, (M, 9)
    alpha = cfg.alpha_ssim
    a = rec_vals.reshape(-1, 9)[inside]
    b = tgt_vals.reshape(-1, 9)[inside]
    s, f_mu_a, f_e_aa, f_e_ab = _ssim_from_moments(
        a.mean(axis=1),
        b.mean(axis=1),
        (a * a).mean(axis=1),
        (b * b).mean(axis=1),
        (a * b).mean(axis=1),
    )
    ds_da = (f_mu_a[:, None] + 2 * a * f_e_aa[:, None] + b * f_e_ab[:, None]) / 9
    diff = a[:, _PATCH_CENTER] - b[:, _PATCH_CENTER]
    values = np.zeros(n)
    values[ok] = (1 - alpha) * np.abs(diff) + alpha * (1 - s) / 2
    dl_da = -(alpha / 2) * ds_da
    dl_da[:, _PATCH_CENTER] += (1 - alpha) * np.sign(diff)
    dl_dq = np.einsum("mk,mkc->mc", dl_da, rec_grads.reshape(-1, 9, 2)[inside])
    # chain through the projection into the neighbor camera: the columns of
    # the 2x3 Jacobian dq/dD are (gx, 0), (0, gx), -(gx / z) (Dx, Dy)
    gx = intr.f / z[ok]
    grad_D = np.empty((len(ok), 3))
    grad_D[:, 0] = gx * dl_dq[:, 0]
    grad_D[:, 1] = gx * dl_dq[:, 1]
    grad_D[:, 2] = -gx / z[ok] * (D[ok, 0] * dl_dq[:, 0] + D[ok, 1] * dl_dq[:, 1])
    grads = np.zeros((n, 3))
    grads[ok] = grad_D @ R.T
    return LossReport(
        np.asarray(predictions.point_ids).copy(),
        values,
        grads,
        depth_statuses(z),
        np.full(n, np.nan),
        valid_mask=valid,
    )


def _as_gray(img) -> np.ndarray:
    """Accept (H, W) or (H, W, 3) arrays, or an object with a ``.data``
    array of either shape; color is reduced to its channel mean."""
    data = getattr(img, "data", img)
    data = np.asarray(data, dtype=np.float64)
    if data.ndim == 3:
        data = data.mean(axis=2)
    if data.ndim != 2:
        raise DimensionMismatchError("expected (H, W) or (H, W, 3) image data")
    return data
