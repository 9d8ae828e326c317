"""Losses over scene-coordinate predictions, with analytic gradients.

Every loss returns one ``LossReport``: per-row values, the gradient of each
value with respect to its predicted world coordinate, the prediction's depth
status and ray angle, an optional validity mask, and the diagnostics read
from them (``total``, ``behind_frac``, ``nonfinite``, ``valid_fraction``).
A loss takes its predictions as an (N, 3) array whose row r belongs to row r
of the observations it is given; those rows are the only record of which
points it covers, and a composite loss refuses any other shape with
``IndexMismatchError``. The plain reprojection loss is deliberately
unguarded: its divergence near the camera plane and its zero-loss antipodal
solutions are the pathologies the angle-based loss exists to remove, so they
must stay observable. Only the angle loss carries an ``epsilon_norm`` guard,
which keeps its value and gradient finite for predictions arbitrarily close
to the camera center.

Array-first design: the ``*_terms`` kernels operate on (N, 3) prediction and
(N, 2) pixel batches, and a single point is a batch of one. The composite
losses do no per-point Python work either. At ~35 rows a call costs its
count of numpy calls, not its arithmetic, so the hot paths keep that count
low without changing a bit. ``angle_terms`` maps the predictions into the
camera frame and the pixels to rays, and hands both to ``_angle_kernel``,
which works in the camera frame alone: values, ``dL/dD``, depth statuses
and ray angles, with the guard's masked steps run only when some row needs
them. ``angle_terms`` then rotates ``dL/dD`` to the world frame once; a pose
solver can call the kernel on its own camera-frame points.
``multiview_image_loss`` reads a ``MultiviewIndex`` that
``build_multiview_index`` makes once per training run from the observations
alone, in whole-array passes: per observation row, a CSR list (one flat
entry array plus per-row offsets into it) of the other images' rows that
observe the same point, with their pixels, and the poses stacked by image;
per image, the rows that have entries, with their first entry and count.
Each call draws every corresponded row's neighbor with one ``rng.integers``
call in row order and evaluates the drawn pairs in one ``angle_terms``
pass, after the image's own rows in another. ``photometric_image_loss``
works on all valid (M, 9) sampling windows at once. Its target windows
depend only on (image, point), so ``photo_target`` samples them once per
training run; each call tests the reconstruction windows against the
neighbor image's bounds first and samples that image only where a window
can be valid. ``reproj_terms`` and ``photometric_image_loss`` share one
projection and one chain rule through it (``_project``, ``_project_grads``).
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
    """Predictions, observations and poses do not line up: a row count, an
    image or a pose that one side has and the other lacks."""


class DimensionMismatchError(Exception):
    """Image operands have incompatible shapes."""


class ConfigError(Exception):
    """Inconsistent loss or training configuration, or a checkpoint that
    cannot be loaded."""


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
            raise ConfigError("loss weights must be non-negative")
        if not self.epsilon_norm > 0:
            raise ConfigError("epsilon_norm must be positive")


class LossReport(NamedTuple):
    """What every loss returns: per-row arrays for one image, plus the
    diagnostics the training loop reads.

    Row r of each array belongs to row r of the coordinates the loss was
    given. ``statuses`` holds each prediction's ``DepthStatus`` in the camera
    the loss projects into first, and ``thetas`` the angle between the
    predicted and observed rays (NaN where the loss defines none).
    ``valid_mask`` marks the rows that count, for a loss that masks some
    (None: every row counts). ``total`` sums only the finite values;
    non-finite terms are surfaced through ``nonfinite`` instead of poisoning
    the sum. The training loop reads ``total``, ``behind_frac`` and
    ``nonfinite`` every iteration, so each counts with ``np.count_nonzero``
    and sums the values without a copy when all of them are finite. Each
    returns a Python float or bool, and a report without rows has
    ``behind_frac`` 0.0.
    """

    values: np.ndarray
    grads: np.ndarray
    statuses: np.ndarray
    thetas: np.ndarray
    valid_mask: Optional[np.ndarray] = None

    @property
    def total(self) -> float:
        finite = np.isfinite(self.values)
        if np.count_nonzero(finite) == finite.size:
            return float(self.values.sum())
        return float(np.sum(self.values[finite]))

    @property
    def behind_frac(self) -> float:
        n = len(self.statuses)
        behind = np.count_nonzero(self.statuses == int(DepthStatus.BEHIND))
        return float(behind / n) if n else 0.0

    @property
    def nonfinite(self) -> bool:
        return not (_all_finite(self.values) and _all_finite(self.grads))

    @property
    def valid_fraction(self) -> float:
        if self.valid_mask is None:
            return 1.0
        return float(np.mean(self.valid_mask)) if len(self.valid_mask) else 0.0


def _all_finite(a) -> bool:
    """``np.isfinite(a).all()`` in a third of its time on ~35 rows."""
    return np.count_nonzero(np.isfinite(a)) == a.size


def _row_dots(a, b):
    """Row-wise dot products of two (N, 3) arrays: one product pass, then its
    three columns added left to right.

    The same bits as ``np.sum(a * b, axis=1)`` (which adds the three
    products in this order) except that three -0.0 products sum to -0.0
    here, +0.0 there; several times faster at thousands of rows.
    """
    p = a * b
    return p[:, 0] + p[:, 1] + p[:, 2]


def _row_norms(a):
    """Row norms of an (N, 3) array: the bits of ``np.linalg.norm(a, axis=1)``."""
    return np.sqrt(_row_dots(a, a))


def _angles_between(D, rays, norms_D, norms_d):
    """Angle between each camera-frame point and its ray, given their norms;
    the clamp into [-1, 1] has ``np.clip``'s bits. A row with an infinite
    entry divides inf by inf here, so callers silence ``invalid`` and
    ``divide`` around it."""
    cosines = _row_dots(D, rays)
    cosines /= np.maximum(norms_D, 1e-300) * norms_d
    np.maximum(cosines, -1.0, out=cosines)
    np.minimum(cosines, 1.0, out=cosines)
    return np.arccos(cosines, out=cosines)


def _project(intr: CameraIntrinsics, D):
    """Pixels ``f * (Dx, Dy) / Dz + (cx, cy)`` of (N, 3) camera-frame points;
    non-finite where ``Dz`` is 0, never clamped."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return intr.f * D[:, :2] / D[:, 2:] + np.array([intr.cx, intr.cy])


def _project_grads(intr: CameraIntrinsics, R, D, dl_dq):
    """World-frame gradients of (N, 3) camera-frame points ``D`` under
    rotation ``R``, given the gradients ``dl_dq`` w.r.t. their ``_project``
    pixels: the columns of the 2x3 Jacobian dq/dD are (gx, 0), (0, gx) and
    -(gx / Dz) (Dx, Dy), with gx = f / Dz."""
    z = D[:, 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        gx = intr.f / z
        grad_D = np.empty_like(D)
        grad_D[:, 0] = gx * dl_dq[:, 0]
        grad_D[:, 1] = gx * dl_dq[:, 1]
        grad_D[:, 2] = -gx / z * (D[:, 0] * dl_dq[:, 0] + D[:, 1] * dl_dq[:, 1])
    return grad_D @ R.T


def reproj_terms(intr: CameraIntrinsics, pose: PoseSE3, preds, pixels):
    """Plain reprojection loss per point: pixel distance between the
    projected prediction and the observation.

    Returns a ``LossReport`` over the batch. There is no guard at Z = 0:
    values and gradients go non-finite there, which is exactly what its
    ``nonfinite`` flag is meant to catch.
    """
    preds = np.asarray(preds, dtype=np.float64)
    pixels = np.asarray(pixels, dtype=np.float64)
    D = pose.world_to_camera(preds)
    rays = ray_vectors(intr, pixels)
    with np.errstate(divide="ignore", invalid="ignore"):
        r = _project(intr, D) - pixels
        values = np.linalg.norm(r, axis=1)
        rhat = np.where(values[:, None] > 0, r / values[:, None], 0.0)
        thetas = _angles_between(D, rays, _row_norms(D), _row_norms(rays))
    grads = _project_grads(intr, pose.rotation, D, rhat)
    return LossReport(values, grads, depth_statuses(D[:, 2]), thetas)


def _angle_kernel(D, rays, eps_norm):
    """The angle loss in the camera frame: per-row values, gradients
    ``dL/dD``, depth statuses and ray angles of (N, 3) camera-frame points
    ``D`` against their (N, 3) ray vectors.

    With ``s = |ray| / max(|D|, eps_norm)`` and ``g = s D - ray``, a row's
    value is ``|g|`` and its gradient ``s ghat - |ray| (D . ghat) D / |D|^3``
    with ``ghat = g / |g|``. Two kinds of row are special: one whose ``|g|``
    is 0 or NaN gets ``ghat = 0``, and one within ``eps_norm`` of the camera
    center, where ``1/|D|`` is held constant, drops the second term. The
    masked steps that handle them cost several times the plain ones on ~35
    rows, so they run only when some row needs them; either way every other
    row gets the same bits.
    """
    norms_D_raw = _row_norms(D)
    norms_d = _row_norms(rays)
    norms_D = np.maximum(norms_D_raw, eps_norm)
    scale = (norms_d / norms_D)[:, None]
    g = scale * D
    g -= rays
    values = _row_norms(g)
    with np.errstate(invalid="ignore", divide="ignore"):
        ghat = g / values[:, None]
        thetas = _angles_between(D, rays, norms_D_raw, norms_d)
    has_dir = values > 0
    free = norms_D_raw > eps_norm
    plain = np.count_nonzero(has_dir & free) == len(values)
    if not plain:
        ghat[~has_dir] = 0.0
    grad_D = scale * ghat
    coef = norms_d * _row_dots(D, ghat)
    if plain:
        coef /= norms_D**3
        grad_D -= coef[:, None] * D
    else:
        # the 1/|D| factor is constant below the guard, so its derivative drops
        np.divide(coef, norms_D**3, out=coef, where=free)
        np.subtract(grad_D, coef[:, None] * D, out=grad_D, where=free[:, None])
    return values, grad_D, depth_statuses(D[:, 2]), thetas


def angle_terms(
    intr: CameraIntrinsics, pose: PoseSE3, preds, pixels, eps_norm: float = 1e-8
):
    """Angle-based reprojection loss per point.

    The prediction is rescaled onto the sphere of radius ``|ray|`` around
    the camera center and compared to the observed ray vector, so the value
    equals the chord ``2 |ray| sin(theta / 2)``. Bounded by ``2 |ray|``, and
    with the ``eps_norm`` guard its gradient stays finite all the way to the
    camera center. Returns a ``LossReport`` over the batch.

    The predictions go into the camera frame and the pixels become rays;
    ``_angle_kernel`` does the rest there, and its ``dL/dD`` is rotated back
    to the world frame once.
    """
    D = pose.world_to_camera(preds)
    values, grad_D, statuses, thetas = _angle_kernel(D, ray_vectors(intr, pixels), eps_norm)
    return LossReport(values, grad_D @ pose.rotation.T, statuses, thetas)


def _aligned(coords, n_rows):
    """``coords`` as float64, refused with ``IndexMismatchError`` unless it
    holds one 3-vector per row of the loss's observations."""
    coords = np.asarray(coords, dtype=np.float64)
    if coords.shape != (n_rows, 3):
        raise IndexMismatchError(
            f"coords of shape {coords.shape} do not match {n_rows} observation rows"
        )
    return coords


class _ImageRows(NamedTuple):
    """One image's observation rows in a ``MultiviewIndex``."""

    pixels: np.ndarray
    # (N + 1,) offsets into the index's flat entry arrays: the other rows
    # observing row r's point are entries offsets[r] .. offsets[r + 1] - 1
    offsets: np.ndarray
    # the rows with at least one entry, ascending, with their first entry
    # and entry count: what every ``MultiviewIndex.draw`` reads
    drawn_rows: np.ndarray
    drawn_first: np.ndarray
    drawn_counts: np.ndarray

    @classmethod
    def of(cls, pixels, offsets):
        counts = np.diff(offsets)
        rows = np.flatnonzero(counts)
        rows.setflags(write=False)  # draw hands it out as is
        return cls(pixels, offsets, rows, offsets[rows], counts[rows])


@dataclass(frozen=True)
class MultiviewIndex:
    """Correspondence lists and stacked poses for ``multiview_image_loss``.

    For every image with observations, a CSR list per observation row: the
    rows of the other images that observe the same point, when that point is
    corresponded, in ascending image order and then row order. An image
    that observes the point twice has two entries. Each entry of the flat
    arrays holds the other image's position in ``image_ids`` and the pixel
    of that row; poses are stacked by that position. Built once by
    ``build_multiview_index`` and read-only after.
    """

    image_ids: np.ndarray  # (I,) sorted ids of the images with observations
    rotations: np.ndarray  # (I, 3, 3) camera-to-world rotations
    translations: np.ndarray  # (I, 3)
    poses: dict  # image id -> PoseSE3, for the indexed images
    images: dict  # image id -> _ImageRows
    other_pos: np.ndarray  # (E,) position of each entry's other image
    other_pixels: np.ndarray  # (E, 2) the point's pixel in that image

    def draw(self, image_id, rng: np.random.Generator):
        """One other view per corresponded row of ``image_id``, uniform over
        the entries of the row. All rows draw from one ``rng.integers`` call
        in row order, which yields the same stream as one scalar draw per
        row. Returns ``(rows, entries)``."""
        own = self.images[image_id]
        return own.drawn_rows, own.drawn_first + rng.integers(own.drawn_counts)


def build_multiview_index(poses, observations_by_image, corresponded) -> MultiviewIndex:
    """Index the co-visibility of every observation row for the multi-view
    loss, read from the observations themselves.

    ``poses`` and ``observations_by_image`` are mappings keyed by image id;
    only the given images are indexed, so a row's entries never point at an
    image left out, and each of them needs a pose: the first one without
    raises ``IndexMismatchError``. ``corresponded`` holds the point ids that
    get entries. One stable argsort groups all rows by point id, images
    ascending and rows in order within a group; each corresponded row's
    entries are its group without the rows of its own image.
    """
    image_ids = np.array(sorted(observations_by_image), dtype=np.int64)
    missing = [i for i in image_ids.tolist() if i not in poses]
    if missing:
        raise IndexMismatchError(f"no pose for indexed image {missing[0]}")
    poses = {i: poses[i] for i in image_ids.tolist()}
    obs = [observations_by_image[i] for i in image_ids.tolist()]
    point_ids = [np.asarray(o.point_ids, dtype=np.int64) for o in obs]
    pixels = [np.asarray(o.pixels, dtype=np.float64) for o in obs]
    sizes = [len(ids) for ids in point_ids]
    rows = np.concatenate([np.empty(0, np.int64), *point_ids])
    image_of_row = np.repeat(np.arange(len(obs)), sizes)
    order = np.argsort(rows, kind="stable")
    grouped = rows[order]
    lo = np.searchsorted(grouped, rows)
    keep = np.isin(rows, np.fromiter(corresponded, np.int64, len(corresponded)))
    span = np.where(keep, np.searchsorted(grouped, rows, side="right") - lo, 0)

    # every corresponded row's whole group, then without its own image's rows
    owner = np.repeat(np.arange(len(rows)), span)
    first = np.repeat(lo - np.cumsum(span) + span, span)
    source = order[first + np.arange(len(owner))]
    other = image_of_row[source] != image_of_row[owner]
    source = source[other]
    offsets = np.concatenate([[0], np.cumsum(np.bincount(owner[other], minlength=len(rows)))])
    bounds = np.cumsum([0, *sizes]).tolist()

    return MultiviewIndex(
        image_ids=image_ids,
        rotations=np.array([p.rotation for p in poses.values()]).reshape(-1, 3, 3),
        translations=np.array([p.translation for p in poses.values()]).reshape(-1, 3),
        poses=poses,
        images={
            i: _ImageRows.of(pix, offsets[b : e + 1])
            for i, pix, b, e in zip(image_ids.tolist(), pixels, bounds, bounds[1:])
        },
        other_pos=image_of_row[source],
        other_pixels=np.concatenate([np.empty((0, 2)), *pixels])[source],
    )


# the angle loss of camera-frame points is ``angle_terms`` under this pose
_CAMERA_FRAME = PoseSE3.identity()


def multiview_image_loss(
    intr: CameraIntrinsics,
    index: MultiviewIndex,
    image_id,
    coords,
    cfg: LossConfig = LossConfig(),
    rng: Optional[np.random.Generator] = None,
) -> LossReport:
    """Angle loss with multi-view correspondence terms for one image.

    ``coords`` is (N, 3), one predicted world coordinate per observation row
    of the image in ``index``; any other shape raises
    ``IndexMismatchError``. Rows without correspondences contribute their
    single-view angle term. Each corresponded row contributes, weighted by
    ``lambda_multiview``, its angle term in this image plus one more in a
    neighbor image drawn uniformly (via ``rng``) from the indexed images that
    also see the point; the same predicted coordinate is reprojected there,
    so gradients from both views accumulate into it. The report's
    ``statuses`` and ``thetas`` are those of this image.

    ``index`` comes from ``build_multiview_index``, built once per training
    run. Neighbors are drawn by ``index.draw``: one ``rng.integers`` call
    over the corresponded rows in observation order. The loss is two
    ``angle_terms`` passes: the image's own rows under its pose, and every
    drawn (row, neighbor) pair at once in the neighbors' camera frames, with
    the per-row poses gathered from the index. With no correspondences this
    reduces exactly to ``angle_terms`` under the image's pose.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    own = index.images[image_id]
    coords = _aligned(coords, len(own.pixels))
    rep = angle_terms(intr, index.poses[image_id], coords, own.pixels, cfg.epsilon_norm)
    rows, entries = index.draw(image_id, rng)
    if len(rows):
        pos = index.other_pos[entries]
        R = index.rotations[pos]
        D = np.einsum("ni,nij->nj", coords[rows] - index.translations[pos], R)
        other = angle_terms(
            intr, _CAMERA_FRAME, D, index.other_pixels[entries], cfg.epsilon_norm
        )
        lam = cfg.lambda_multiview
        rep.values[rows] = rep.values[rows] * lam + lam * other.values
        rep.grads[rows] = rep.grads[rows] * lam + lam * np.einsum("nj,nij->ni", other.grads, R)
    return rep


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


_PATCH_OFFSETS = np.array(
    [[dx, dy] for dy in (-1, 0, 1) for dx in (-1, 0, 1)], dtype=np.float64
)
_PATCH_CENTER = 4


@dataclass(frozen=True)
class PhotoTarget:
    """The fixed half of the photometric loss for one image ``i``: the 3x3
    intensity window of ``img_i`` around each observed pixel. The windows
    depend only on (image, point), so training samples them once per run.
    ``inside`` is False where a window leaves image ``i``; those rows never
    count."""

    shape: tuple  # (H, W) of image i
    windows: np.ndarray  # (N, 9) intensities, row-major over the 3x3 offsets
    inside: np.ndarray  # (N,) bool


def photo_target(observations_i, img_i) -> PhotoTarget:
    """Sample ``img_i``'s 3x3 windows around every observed pixel, in one
    ``bilinear_values_and_grads`` call."""
    img_i = _as_gray(img_i)
    pixels = np.asarray(observations_i.pixels, dtype=np.float64)
    coords = pixels[:, None, :] + _PATCH_OFFSETS
    windows, _, ok = bilinear_values_and_grads(img_i, coords.reshape(-1, 2))
    return PhotoTarget(
        img_i.shape,
        windows.reshape(-1, 9),
        ok.reshape(-1, 9).all(axis=1),
    )


def photometric_image_loss(
    intr: CameraIntrinsics,
    pose_j: PoseSE3,
    coords,
    target: PhotoTarget,
    img_j: np.ndarray,
    cfg: LossConfig = LossConfig(),
) -> LossReport:
    """Photometric reconstruction loss against a neighboring view.

    ``coords`` is (N, 3), one predicted world coordinate per row of
    ``target``; any other shape raises ``IndexMismatchError``. Each predicted
    coordinate is projected into the neighbor image ``j`` and a 3x3 patch of
    the reconstruction is bilinearly sampled around the projection; it is
    compared with the target window of image ``i`` around the point's
    observed pixel (``target``, from ``photo_target``, sampled once per
    training run) using ``(1 - alpha) * L1 + alpha * (1 - SSIM)/2`` (L1 on
    the central pixel, SSIM over the window). Points that land behind the
    neighbor camera or whose target or reconstruction window leaves its
    image are masked out of the sum; the report's ``valid_mask`` marks the
    rows that count, its ``statuses`` are depths in camera ``j`` and its
    ``thetas`` are NaN. Each reconstruction window is tested against
    ``img_j``'s bounds before sampling, so ``img_j`` is sampled only for the
    valid rows. Gradients flow through the projection and the bilinear
    sampler into the predicted coordinates.
    """
    img_j = _as_gray(img_j)
    if img_j.shape != target.shape:
        raise DimensionMismatchError("image pair must share dimensions")
    n = len(target.windows)
    D = pose_j.world_to_camera(_aligned(coords, n))
    z = D[:, 2]
    # only rows in front of camera j with a whole target window can count
    cand = np.flatnonzero((z > 0) & target.inside)
    q = _project(intr, D[cand])
    # the sampler's own bounds test on the 3x3 reconstruction windows; every
    # comparison is False for NaN and +-inf, so such rows drop out here
    h, w = target.shape
    rec_coords = q[:, None, :] + _PATCH_OFFSETS
    x, y = rec_coords[..., 0], rec_coords[..., 1]
    inside = ((x >= 0) & (x <= w - 1) & (y >= 0) & (y <= h - 1)).all(axis=1)
    ok = cand[inside]
    valid = np.zeros(n, dtype=bool)
    valid[ok] = True
    rec_vals, rec_grads, _ = bilinear_values_and_grads(
        img_j, rec_coords[inside].reshape(-1, 2)
    )

    # every valid window at once: a = reconstruction, b = target, (M, 9)
    alpha = cfg.alpha_ssim
    a = rec_vals.reshape(-1, 9)
    b = target.windows[ok]
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
    dl_dq = np.einsum("mk,mkc->mc", dl_da, rec_grads.reshape(-1, 9, 2))
    grads = np.zeros((n, 3))
    grads[ok] = _project_grads(intr, pose_j.rotation, D[ok], dl_dq)
    return LossReport(values, grads, depth_statuses(z), np.full(n, np.nan), valid)


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
