"""Losses over scene-coordinate predictions, with analytic gradients.

Every loss returns one ``LossReport``: per-row values, the gradient of each
value with respect to its predicted world coordinate, the camera-frame
points and observed rays the loss worked on, an optional validity mask, and
what is derived from them when read (``statuses``, ``thetas``, ``total``,
``behind_frac``, ``nonfinite``, ``valid_fraction``). A training step reads
none of the depth statuses or ray angles, and a record reads the statuses
once, so no loss computes either.
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
low without changing a bit; their scalars are Python floats (``2.0``, not
``2``), which give the same bits without converting an int on every call.
``angle_terms`` maps the predictions into the camera frame and the pixels
to rays, and hands both to ``_angle_kernel``, which works in the camera
frame alone: values and ``dL/dD``, with the guard's masked steps run only
when some row needs them. ``angle_terms``
then rotates ``dL/dD`` to the world frame once; a pose solver can call the
kernel on its own camera-frame points.
``multiview_image_loss`` reads a ``MultiviewIndex`` that
``build_multiview_index`` makes once per training run from the observations
alone, in whole-array passes: per observation row, a CSR list (one flat
entry array plus per-row offsets into it) of the other images' rows that
observe the same point, with their pixels, and the poses stacked by image;
per image, the rows that have entries, with their first entry and count.
Each call draws every corresponded row's neighbor with one ``rng.integers``
call in row order and evaluates the drawn pairs in one ``angle_terms``
pass, after the image's own rows in another. ``photometric_image_loss``
works on all valid (M, 9) sampling windows at once. Its target windows,
and their mean, squared mean and variance (the target's share of SSIM),
depend only on (image, point), so ``photo_target`` computes them once per
training run and each call gathers its valid rows. Each call tests the
reconstruction windows against the neighbor image's bounds first, by their
two extreme offsets, and samples that image in one
``bilinear_values_and_grads`` call for the valid windows only; such a batch
is all inside the image, so the sampler takes its path without clamps or
masks. ``reproj_terms`` and ``photometric_image_loss`` share one
projection and one chain rule through it (``_project``, ``_project_grads``).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from typing import Callable, NamedTuple, Optional, get_type_hints

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
    """Image or sample-coordinate operands have unusable or incompatible
    shapes."""


class ConfigError(Exception):
    """Inconsistent dataset, loss or training configuration, or a checkpoint
    that cannot be loaded."""


def is_count(value, least) -> bool:
    """True for a Python or numpy integer of at least ``least``; False for a
    bool and for a float, even an integral one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool) and value >= least


def _is_real(value) -> bool:
    """True for a real number that is not a bool, NaN included."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    """True for a real number, not a bool, that a float holds finite: NaN,
    infinities and ints beyond the float range are not. A float skips the
    ABC test (about 1 us), as ``adam_step`` tests its lr every step."""
    try:
        return (type(value) is float or _is_real(value)) and math.isfinite(value)
    except OverflowError:
        return False


class Rule(NamedTuple):
    """What a config value must be: the test it passes, and the words that
    name the test in a refusal."""

    holds: Callable[[object], bool]
    text: str

    def check(self, name, value):
        """Raise ``ConfigError`` naming ``name`` unless ``value`` passes."""
        if not self.holds(value):
            raise ConfigError(f"{name} must be {self.text}, got {value!r}")


# a config count is at most what numpy's int64 sizes and draws take
_INT64_MAX = np.iinfo(np.int64).max
COUNT = Rule(lambda v: is_count(v, 0) and v <= _INT64_MAX, "an integer >= 0")
POSITIVE_COUNT = Rule(lambda v: is_count(v, 1) and v <= _INT64_MAX, "an integer > 0")
POSITIVE = Rule(lambda v: _is_finite(v) and v > 0, "finite and > 0")
NON_NEGATIVE = Rule(lambda v: _is_finite(v) and v >= 0, "finite and >= 0")
FRACTION = Rule(lambda v: _is_real(v) and 0 <= v <= 1, "in [0, 1]")


def ruled(rule, default=MISSING, default_factory=MISSING):
    """A dataclass field whose value must pass ``rule``."""
    return field(default=default, default_factory=default_factory, metadata={"rule": rule})


def check_fields(config):
    """Raise ``ConfigError`` naming the first field of the dataclass
    ``config`` whose value fails its ``ruled`` rule; store each accepted
    numpy number, in a tuple too, as the Python number ``.item()`` gives."""
    for f in fields(config):
        value = getattr(config, f.name)
        f.metadata["rule"].check(f.name, value)
        object.__setattr__(config, f.name, _python_numbers(value))


def _python_numbers(value):
    """``value`` with each numpy number, in a tuple too, as a Python one."""
    if isinstance(value, tuple):
        return tuple(map(_python_numbers, value))
    return value.item() if isinstance(value, np.generic) else value


def config_from_json(cls, raw, what):
    """The ``cls`` config whose ``asdict`` JSON decoded to ``raw``, named
    ``what`` in a refusal. Raises ``ConfigError`` for a ``raw`` that is no
    JSON object, that lacks a field or holds another key, or whose values
    ``cls`` refuses. A list in a ``tuple`` field comes back as a tuple, and
    a field whose type is a config is read by the same rules."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{what} is not a JSON object")
    names = {f.name for f in fields(cls)}
    unknown, missing = sorted(set(raw) - names), sorted(names - set(raw))
    if unknown or missing:
        raise ConfigError(f"{what} keys: unknown {unknown}, missing {missing}")
    types = get_type_hints(cls)
    values = {}
    for name, value in raw.items():
        if is_dataclass(types[name]):
            value = config_from_json(types[name], value, f"{what}.{name}")
        elif types[name] is tuple and isinstance(value, list):
            value = tuple(value)
        values[name] = value
    return cls(**values)


# SSIM stabilizers for intensities in [0, 1]
SSIM_C1 = 0.01**2
SSIM_C2 = 0.03**2


@dataclass(frozen=True)
class LossConfig:
    """Balance weights and guards shared by the composite losses; a value
    that fails its field's rule raises ``ConfigError`` naming the field."""

    lambda_multiview: float = ruled(NON_NEGATIVE, 60.0)
    lambda_photo: float = ruled(NON_NEGATIVE, 20.0)
    alpha_ssim: float = ruled(FRACTION, 0.85)
    epsilon_norm: float = ruled(POSITIVE, 1e-8)

    __post_init__ = check_fields


class LossReport(NamedTuple):
    """What every loss returns: per-row arrays for one image, plus the
    diagnostics the training loop reads.

    Row r of each array belongs to row r of the coordinates the loss was
    given. ``cam`` holds the predictions in the frame of the camera the loss
    projects into first, and ``rays`` the observed rays there (None for a
    loss that has none, such as the photometric one). ``valid_mask`` marks
    the rows that count, for a loss that masks some (None: every row
    counts). The rest is derived on each read, as training reads little of
    it: ``statuses``, each prediction's ``DepthStatus`` from its depth in
    ``cam``, and ``thetas``, the angle between the predicted and observed
    rays (NaN where ``rays`` is None). ``total`` sums only the finite
    values; non-finite terms are surfaced through ``nonfinite`` instead of
    poisoning the sum. The training loop reads ``nonfinite`` every
    iteration, and ``total`` and ``behind_frac`` at each record, so each
    counts with ``np.count_nonzero`` and sums the values without a copy
    when all of them are finite. Each returns a Python float or bool, and a
    report without rows has ``behind_frac`` 0.0.
    """

    values: np.ndarray
    grads: np.ndarray
    cam: np.ndarray
    rays: Optional[np.ndarray] = None
    valid_mask: Optional[np.ndarray] = None

    @property
    def statuses(self) -> np.ndarray:
        return depth_statuses(self.cam[:, 2])

    @property
    def thetas(self) -> np.ndarray:
        if self.rays is None:
            return np.full(len(self.values), np.nan)
        cam, rays = self.cam, self.rays
        with np.errstate(invalid="ignore", divide="ignore"):
            return _angles_between(cam, rays, row_norms(cam), row_norms(rays))

    @property
    def total(self) -> float:
        finite = np.isfinite(self.values)
        if np.count_nonzero(finite) == finite.size:
            return float(self.values.sum())
        return float(np.sum(self.values[finite]))

    @property
    def behind_frac(self) -> float:
        statuses = self.statuses
        n = len(statuses)
        behind = np.count_nonzero(statuses == int(DepthStatus.BEHIND))
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


def row_norms(a):
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
    non-finite where ``Dz`` is 0 or the quotient overflows, never clamped."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return intr.f * D[:, :2] / D[:, 2:] + np.array([intr.cx, intr.cy])


def _project_grads(intr: CameraIntrinsics, R, D, dl_dq):
    """World-frame gradients of (N, 3) camera-frame points ``D`` under
    rotation ``R``, given the gradients ``dl_dq`` w.r.t. their ``_project``
    pixels: the columns of the 2x3 Jacobian dq/dD are (gx, 0), (0, gx) and
    -(gx / Dz) (Dx, Dy), with gx = f / Dz. That overflows to inf for a
    subnormal ``Dz`` whose projection is finite, and the rotation then
    multiplies inf by 0: both give non-finite gradients, not warnings."""
    z = D[:, 2]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        gx = intr.f / z
        grad_D = np.empty_like(D)
        grad_D[:, 0] = gx * dl_dq[:, 0]
        grad_D[:, 1] = gx * dl_dq[:, 1]
        grad_D[:, 2] = -gx / z * (D[:, 0] * dl_dq[:, 0] + D[:, 1] * dl_dq[:, 1])
        return grad_D @ R.T


def _aligned(coords, n_rows):
    """``coords`` as float64, refused with ``IndexMismatchError`` unless it
    holds one 3-vector per row of the loss's observations."""
    coords = np.asarray(coords, dtype=np.float64)
    if coords.shape != (n_rows, 3):
        raise IndexMismatchError(
            f"coords of shape {coords.shape} do not match {n_rows} observation rows"
        )
    return coords


def _pixel_rows(pixels):
    """``pixels`` as float64, refused with ``DimensionMismatchError`` unless
    they are (N, 2) rows."""
    pixels = np.asarray(pixels, dtype=np.float64)
    if pixels.ndim != 2 or pixels.shape[1] != 2:
        raise DimensionMismatchError(f"pixels of shape {pixels.shape} are not (N, 2) rows")
    return pixels


def reproj_terms(intr: CameraIntrinsics, pose: PoseSE3, preds, pixels):
    """Plain reprojection loss per point: pixel distance between the
    projected prediction and the observation.

    Returns a ``LossReport`` over the batch. There is no guard at Z = 0:
    values and gradients go non-finite there, which is exactly what its
    ``nonfinite`` flag is meant to catch. Pixels that are not (N, 2) rows
    raise ``DimensionMismatchError``, and ``preds`` other than one (N, 3)
    row per pixel row ``IndexMismatchError``.
    """
    pixels = _pixel_rows(pixels)
    preds = _aligned(preds, len(pixels))
    D = pose.world_to_camera(preds)
    with np.errstate(divide="ignore", invalid="ignore"):
        r = _project(intr, D) - pixels
        values = np.linalg.norm(r, axis=1)
        rhat = np.where(values[:, None] > 0, r / values[:, None], 0.0)
    grads = _project_grads(intr, pose.rotation, D, rhat)
    return LossReport(values, grads, D, ray_vectors(intr, pixels))


def _angle_kernel(D, rays, eps_norm):
    """The angle loss in the camera frame: per-row values and gradients
    ``dL/dD`` of (N, 3) camera-frame points ``D`` against their (N, 3) ray
    vectors.

    With ``s = |ray| / max(|D|, eps_norm)`` and ``g = s D - ray``, a row's
    value is ``|g|`` and its gradient ``s ghat - |ray| (D . ghat) D / |D|^3``
    with ``ghat = g / |g|``. Two kinds of row are special: one whose ``|g|``
    is 0 or NaN gets ``ghat = 0``, and one within ``eps_norm`` of the camera
    center, where ``1/|D|`` is held constant, drops the second term. The
    masked steps that handle them cost several times the plain ones on ~35
    rows, so they run only when some row needs them; either way every other
    row gets the same bits.
    """
    norms_D_raw = row_norms(D)
    norms_d = row_norms(rays)
    norms_D = np.maximum(norms_D_raw, eps_norm)
    scale = (norms_d / norms_D)[:, None]
    g = scale * D
    g -= rays
    values = row_norms(g)
    with np.errstate(invalid="ignore", divide="ignore"):
        ghat = g / values[:, None]
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
    return values, grad_D


def angle_terms(
    intr: CameraIntrinsics, pose: PoseSE3, preds, pixels, eps_norm: float = LossConfig.epsilon_norm
):
    """Angle-based reprojection loss per point.

    The prediction is rescaled onto the sphere of radius ``|ray|`` around
    the camera center and compared to the observed ray vector, so the value
    equals the chord ``2 |ray| sin(theta / 2)``. Bounded by ``2 |ray|``, and
    with the ``eps_norm`` guard its gradient stays finite all the way to the
    camera center. Returns a ``LossReport`` over the batch. An ``eps_norm``
    that is not finite and > 0 raises ``ConfigError``, pixels that are not
    (N, 2) rows ``DimensionMismatchError``, and ``preds`` other than one
    (N, 3) row per pixel row ``IndexMismatchError``.

    The predictions go into the camera frame and the pixels become rays;
    ``_angle_kernel`` does the rest there, and its ``dL/dD`` is rotated back
    to the world frame once.
    """
    POSITIVE.check("eps_norm", eps_norm)
    pixels = _pixel_rows(pixels)
    D = pose.world_to_camera(_aligned(preds, len(pixels)))
    rays = ray_vectors(intr, pixels)
    values, grad_D = _angle_kernel(D, rays, eps_norm)
    return LossReport(values, grad_D @ pose.rotation.T, D, rays)


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

    def rows_of(self, image_id) -> _ImageRows:
        """``image_id``'s rows; ``IndexMismatchError`` if the index lacks it."""
        if image_id not in self.images:
            raise IndexMismatchError(f"the multi-view index has no rows for image {image_id}")
        return self.images[image_id]

    def draw(self, image_id, rng: np.random.Generator):
        """One other view per corresponded row of ``image_id``, uniform over
        the entries of the row. All rows draw from one ``rng.integers`` call
        in row order, which yields the same stream as one scalar draw per
        row. Returns ``(rows, entries)``; an image the index lacks raises
        ``IndexMismatchError``."""
        own = self.rows_of(image_id)
        return own.drawn_rows, own.drawn_first + rng.integers(own.drawn_counts)


def build_multiview_index(poses, observations_by_image, corresponded) -> MultiviewIndex:
    """Index the co-visibility of every observation row for the multi-view
    loss, read from the observations themselves.

    ``poses`` and ``observations_by_image`` are mappings keyed by image id;
    only the given images are indexed, so a row's entries never point at an
    image left out, and each of them needs a pose: the first one without
    raises ``IndexMismatchError``. ``corresponded`` holds the point ids that
    get entries: a 1-D integer array, list or range, or an empty one; any
    other (a set, floats, 2-D) raises ``DimensionMismatchError``. One stable
    argsort groups all rows by point id, images ascending and rows in order
    within a group; each corresponded row's entries are its group without
    the rows of its own image.
    """
    wanted = np.asarray(corresponded)
    if wanted.size and not (wanted.ndim == 1 and np.issubdtype(wanted.dtype, np.integer)):
        raise DimensionMismatchError(
            f"corresponded ({type(corresponded).__name__} of shape {wanted.shape}, dtype"
            f" {wanted.dtype}) is not 1-D integer point ids"
        )
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
    keep = np.isin(rows, wanted)
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
    *,
    rng: np.random.Generator,
) -> LossReport:
    """Angle loss with multi-view correspondence terms for one image.

    ``coords`` is (N, 3), one predicted world coordinate per observation row
    of the image in ``index``; any other shape, or an image the index lacks,
    raises ``IndexMismatchError``, and a ``cfg.epsilon_norm`` that
    ``angle_terms`` refuses raises ``ConfigError``. Rows without
    correspondences contribute their single-view angle term. Each
    corresponded row contributes, weighted by ``lambda_multiview``, its
    angle term in this image plus one more in a neighbor image drawn
    uniformly (via ``rng``, a required keyword) from the indexed images that
    also see the point; the same predicted coordinate is reprojected there,
    so gradients from both views accumulate into it. The report's ``cam``
    and ``rays``, hence its ``statuses`` and ``thetas``, are those of this
    image.

    ``index`` comes from ``build_multiview_index``, built once per training
    run. Neighbors are drawn by ``index.draw``: one ``rng.integers`` call
    over the corresponded rows in observation order. The loss is two
    ``angle_terms`` passes: the image's own rows under its pose, and every
    drawn (row, neighbor) pair at once in the neighbors' camera frames, with
    the per-row poses gathered from the index. With no correspondences this
    reduces exactly to ``angle_terms`` under the image's pose.
    """
    own = index.rows_of(image_id)
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

    ``img`` is (H, W) with H, W >= 2 and ``q`` is (N, 2) as (x, y); anything
    else raises ``DimensionMismatchError``. Returns values (N,), gradients
    (N, 2) with respect to the coordinates, and a validity mask that is False
    outside ``[0, W-1] x [0, H-1]`` and for NaN (where value and gradient are
    zero).

    A batch whose samples are all inside, as every batch of
    ``photometric_image_loss`` is, needs no clamps and no masking; only a
    batch with some invalid sample moves those samples onto pixel (0, 0)
    first and zeroes their results last. Either way a valid sample gets the
    same bits. The x and y columns are worked on as contiguous 1-D arrays
    (no copy when ``q`` is column-major), and the cell corners stay floats,
    so ``x - x0`` is +0.0 at ``x = -0.0``.
    """
    img = np.asarray(img, dtype=np.float64)
    if img.ndim != 2 or min(img.shape) < 2:
        raise DimensionMismatchError(
            f"expected an (H, W) grayscale array with H, W >= 2, got shape {img.shape}"
        )
    q = np.asarray(q, dtype=np.float64)
    if q.ndim != 2 or q.shape[1] != 2:
        raise DimensionMismatchError(f"expected (N, 2) coordinates, got shape {q.shape}")
    h, w = img.shape
    x, y = np.ascontiguousarray(q.T)
    valid = (x >= 0.0) & (x <= w - 1.0) & (y >= 0.0) & (y <= h - 1.0)
    plain = np.count_nonzero(valid) == len(valid)
    if not plain:
        x = np.where(valid, x, 0.0)
        y = np.where(valid, y, 0.0)
    x0 = np.minimum(np.floor(x), w - 2.0)
    y0 = np.minimum(np.floor(y), h - 2.0)
    fx = x - x0
    fy = y - y0
    i00 = (y0 * w + x0).astype(np.intp)
    flat = img.ravel()
    v00 = flat.take(i00)
    v01 = flat[1:].take(i00)
    v10 = flat[w:].take(i00)
    v11 = flat[w + 1 :].take(i00)
    # weights of the x0 column and the y0 row
    wx = 1.0 - fx
    wy = 1.0 - fy
    top = v00 * wx + v01 * fx
    bot = v10 * wx + v11 * fx
    values = top * wy + bot * fy
    grads = np.empty((len(x), 2))
    np.add((v01 - v00) * wy, (v11 - v10) * fy, out=grads[:, 0])
    np.subtract(bot, top, out=grads[:, 1])
    if not plain:
        invalid = ~valid
        values[invalid] = 0.0
        grads[invalid] = 0.0
    return values, grads, valid


def _ssim_from_moments(mu_a, e_aa, e_ab, mu_b, mu_b2, var_b):
    """SSIM from window statistics (``a``'s mean and second moment, the cross
    moment, and ``b``'s mean, squared mean and variance), plus its partials
    w.r.t. ``mu_a``, ``e_aa`` and ``e_ab``: the parts of the gradient w.r.t.
    ``a`` once chained through the window averaging. ``b`` is the fixed
    target, so its statistics come precomputed. Each repeated subexpression
    is computed once, with the bits of computing it each time."""
    mu_a2 = mu_a * mu_a
    two_mu_a = 2.0 * mu_a
    two_mu_b = 2.0 * mu_b
    n1 = two_mu_a * mu_b + SSIM_C1
    n2 = 2.0 * (e_ab - mu_a * mu_b) + SSIM_C2
    d1 = mu_a2 + mu_b2 + SSIM_C1
    d2 = (e_aa - mu_a2) + var_b + SSIM_C2
    d12 = d1 * d2
    ssim = (n1 * n2) / d12
    f_n1 = n2 / d12
    f_n2 = n1 / d12
    neg_ssim = -ssim
    f_d1 = neg_ssim / d1
    f_d2 = neg_ssim / d2
    f_mu_a = two_mu_b * f_n1 + two_mu_a * f_d1 - two_mu_a * f_d2 - two_mu_b * f_n2
    return ssim, f_mu_a, f_d2, 2.0 * f_n2


# the 3x3 window offsets, row-major over (dy, dx), as an x row and a y row
_PATCH_OFFSETS_XY = np.array([[[-1.0, 0.0, 1.0] * 3], [[-1.0] * 3 + [0.0] * 3 + [1.0] * 3]])
_PATCH_CENTER = 4


def _window_samples(centers):
    """Sample coordinates of the 3x3 windows around (M, 2) centers, as a
    (9 M, 2) column-major array: window m's samples are rows 9 m .. 9 m + 8,
    and its x and y columns are the contiguous rows the sampler works on."""
    return (centers.T[:, :, None] + _PATCH_OFFSETS_XY).reshape(2, -1).T


def _window_means(x):
    """Row means of (M, 9) windows: the bits of ``x.mean(axis=1)`` without
    ``np.mean``'s Python overhead."""
    return np.add.reduce(x, axis=1) / 9.0


@dataclass(frozen=True)
class PhotoTarget:
    """The fixed half of the photometric loss for one image ``i``: the 3x3
    intensity window of ``img_i`` around each observed pixel, and each
    window's mean, squared mean and variance (``E[b^2] - mean^2``), the
    target's share of SSIM. All of it depends only on (image, point), so
    training computes it once per run and each loss call gathers its valid
    rows. ``inside`` is False where a window leaves image ``i``; those rows
    never count."""

    shape: tuple  # (H, W) of image i
    windows: np.ndarray  # (N, 9) intensities, row-major over the 3x3 offsets
    inside: np.ndarray  # (N,) bool
    mean: np.ndarray  # (N,) window means
    mean_sq: np.ndarray  # (N,) mean**2
    var: np.ndarray  # (N,) mean of the squared window, minus mean_sq


def photo_target(observations_i, img_i) -> PhotoTarget:
    """Sample ``img_i``'s 3x3 windows around every observed pixel, in one
    ``bilinear_values_and_grads`` call, and their SSIM statistics."""
    img_i = _as_gray(img_i)
    pixels = np.asarray(observations_i.pixels, dtype=np.float64)
    windows, _, ok = bilinear_values_and_grads(img_i, _window_samples(pixels))
    windows = windows.reshape(-1, 9)
    mean = _window_means(windows)
    mean_sq = mean * mean
    return PhotoTarget(
        img_i.shape,
        windows,
        ok.reshape(-1, 9).all(axis=1),
        mean,
        mean_sq,
        _window_means(windows * windows) - mean_sq,
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
    rows that count, its ``cam`` holds the points in camera ``j`` (so its
    ``statuses`` are depths there) and it has no ``rays`` (so its ``thetas``
    are NaN). Gradients flow through the projection and the
    bilinear sampler into the predicted coordinates.

    Each reconstruction window is tested against ``img_j``'s bounds before
    sampling, by its two extreme offsets alone, so ``img_j`` is sampled once
    per call, for the valid rows only, and always on the sampler's
    all-inside path. The target's SSIM statistics come from ``target``.
    """
    img_j = _as_gray(img_j)
    if img_j.shape != target.shape:
        raise DimensionMismatchError("image pair must share dimensions")
    n = len(target.windows)
    D = pose_j.world_to_camera(_aligned(coords, n))
    z = D[:, 2]
    # only rows in front of camera j with a whole target window can count
    cand = ((z > 0.0) & target.inside).nonzero()[0]
    q = _project(intr, D.take(cand, axis=0))
    # the sampler's bounds test on the 3x3 windows around q, by the extreme
    # offsets alone: float addition is monotone, so the middle ones follow.
    # It must stay q + 1.0 <= W - 1, not q <= W - 2: on a 65-wide image,
    # q = nextafter(63, 64) has q + 1.0 == 64.0, inside. Every comparison
    # is False for NaN and +-inf, so such rows drop out here.
    h, w = target.shape
    fits = (q - 1.0 >= 0.0) & (q + 1.0 <= np.array((w - 1.0, h - 1.0)))
    inside = fits[:, 0] & fits[:, 1]
    ok = cand[inside]
    valid = np.zeros(n, dtype=bool)
    valid[ok] = True
    rec_vals, rec_grads, _ = bilinear_values_and_grads(img_j, _window_samples(q[inside]))

    # every valid window at once: a = reconstruction, b = target, (M, 9)
    alpha = cfg.alpha_ssim
    a = rec_vals.reshape(-1, 9)
    b = target.windows.take(ok, axis=0)
    s, f_mu_a, f_e_aa, f_e_ab = _ssim_from_moments(
        _window_means(a),
        _window_means(a * a),
        _window_means(a * b),
        target.mean[ok],
        target.mean_sq[ok],
        target.var[ok],
    )
    ds_da = (f_mu_a[:, None] + 2.0 * a * f_e_aa[:, None] + b * f_e_ab[:, None]) / 9.0
    diff = a[:, _PATCH_CENTER] - b[:, _PATCH_CENTER]
    values = np.zeros(n)
    values[ok] = (1.0 - alpha) * np.abs(diff) + alpha * (1.0 - s) / 2.0
    dl_da = -(alpha / 2.0) * ds_da
    dl_da[:, _PATCH_CENTER] += (1.0 - alpha) * np.sign(diff)
    dl_dq = np.einsum("mk,mkc->mc", dl_da, rec_grads.reshape(-1, 9, 2))
    grads = np.zeros((n, 3))
    grads[ok] = _project_grads(intr, pose_j.rotation, D.take(ok, axis=0), dl_dq)
    return LossReport(values, grads, D, None, valid)


def _as_gray(img) -> np.ndarray:
    """Accept an (H, W) array, or an object with a ``.data`` array of that
    shape; images are grayscale only."""
    data = np.asarray(getattr(img, "data", img), dtype=np.float64)
    if data.ndim != 2:
        raise DimensionMismatchError("expected (H, W) grayscale image data")
    return data
