"""Synthetic multi-view ground truth: scenes, trajectories, observations,
photometrically consistent renders, co-visibility, and dataset persistence
as a manifest from which the room is rebuilt.

The default scene is a textured room: six wall planes at half-extent 5
(a 10-unit span) with scene points sampled on the walls plus a fraction in
free space, and a camera trajectory orbiting *inside* the room at a small
radius, looking outward. Observed depths then span roughly 2-8 units, and
freshly initialized regressors (whose predictions start near the world
origin) genuinely begin behind every camera, which is the failure regime
the plain reprojection loss cannot escape.

One ``DatasetConfig`` sets every value of a room that the tests and the
benchmark's workloads vary; ``gen_scene``, ``gen_trajectory`` and ``observe``
read it and take no settings of their own. What no caller varies is a
module constant, the same for every room, read where it is used and never
passed: the camera (``INTRINSICS``, an 80 x 60 image of ``WIDTH`` x
``HEIGHT`` pixels at focal length 40, which ``_in_frame`` projects into and
``render_image`` renders), the orbit (``ORBIT_RADIUS`` and its
``RADIUS_JITTER``, ``HEIGHT_JITTER``, ``YAW_JITTER_DEG`` and
``PITCH_JITTER_DEG``), the descriptor width (``DESCRIPTOR_DIM``), and the
free-space and pose-draw limits.
``build_dataset`` runs them in turn: ``gen_trajectory`` projects the
scene's points in view once per pose it draws (see frustum culling below),
and hands the accepted pose's in-frame point ids and pixels to ``observe``,
which adds pixel noise and ground truth without projecting again. Drawing
poses is the largest set-up cost of the default room, so ``_look_pose``
writes its two 3-vector cross products out on Python floats: ``np.cross``
is almost all per-call overhead at that size. It forms the same products in
the same order, so every pose keeps its bits.

Frustum culling: a view of a dense room sees about a tenth of its points,
so ``gen_trajectory`` does not project them all for every pose it draws.
Once per call it lays a ``CULL_CELLS``^3 grid (10 cells per axis) over the
points' bounding box and gives each point a flat cell index; each cell's
bounding sphere is centered on the cell with half its diagonal as radius.
Per draw it keeps the cells whose sphere is not wholly outside one of the
four planes through the camera center and the image edges (together they
also exclude everything behind the camera), and calls ``world_to_camera``
and ``_in_frame`` once, on the kept points in ascending id order. Both
compute each row on its own, so every row has the bits of a whole-scene
projection, and poses, ids and pixels are unchanged. The spheres are
inflated by ``CULL_MARGIN`` (1e-9) times the largest coordinate magnitude
in play, the grid box's plus the camera's. The rounding in a point's cell
index, in the cull's plane distances and in the projection is a few ulps of
that magnitude, about 10^5 times less than the margin, so no point that the
projection puts in the frame is culled; and the margin is far too small to
keep a cell the cull would otherwise drop. Rooms of fewer than
``CULL_MIN_POINTS`` points are projected whole: the cull costs about 15
numpy calls per draw, which a small room does not repay. Measured on the
default room recipe (40 views, one BLAS thread, 2-vCPU host, alternated
pairs), the culled ``gen_trajectory`` is slower at 2000 points and below,
0-10% faster at 2500-3000, 9-15% faster at 4000 (35 of 36 pairs), and
faster in every pair from 5000 (27 against 66 ms at 60000 points).

Rendering is Lambertian by construction: wall intensity is a pure function
of the surface point, so two views of the same point agree exactly. A view
casts one ray per pixel and keeps each ray's nearest plane hit. The
camera-frame rays of every pixel are built once, on the first render, and
each view rotates them. Each plane computes its unnormalized normal,
squared edge lengths, corners, texture scale and texture tables once, on
first use, for every view. The texture is multi-octave value noise blended
between hashed lattice values. A plane's ``shade`` gathers them from tables
that span the plane's whole lattice, hashed on its first shade; they hold
about 13.4 float64 per square unit of a plane (12.6 KB for a default 10 x 10
wall), so their memory grows with the plane's area.

Render culling: ``render_image`` traces only the planes its view may see.
A plane is dropped when its four corners all lie outside one of five
half-spaces (``VIEW_HALF_SPACES``): the four of ``FRUSTUM_NORMALS`` and
depth >= 0. They must lie outside by more than ``CULL_MARGIN`` times the
largest coordinate magnitude in play, the corners' plus the camera's, as in
the point cull above. Every pixel ray lies inside all five half-spaces, so
in exact arithmetic no pixel ray meets a dropped rectangle. In floating
point, the hit test accepts a ray only when its rounded (u, v) lie in
[0, 1]^2; as ``TexturedPlane`` refuses edges that are not perpendicular,
that names a point of the rectangle within a few ulps of that magnitude of
a point on the ray. The rotated rays, the rotated normals and the cull's
distances round by as much, about 10^5 times less than the margin. So no
dropped plane would have had a hit, a plane without hits changes no pixel,
and every render keeps its bits.

Determinism: every random quantity is drawn from ``np.random.default_rng``
seeded with an integer list ``[seed, stream, ...]``, so a room is a pure
function of its ``DatasetConfig`` (on a given numpy and BLAS build). That is
how rooms persist: ``save_dataset`` writes a room as one JSON file, its
manifest, at the path the caller names, holding the config and the room's
``room_digest``; ``load_dataset`` reads that file, rebuilds the room with
``build_dataset`` and refuses it unless the digests match.
Descriptors are a pure function of the config and a view's point ids, and
neither ``build_dataset``, ``room_digest`` nor ``load_dataset`` draws them:
every observation of a room holds the room's one ``DescriptorSource``, which
draws the base and each view's noise on first read. Only ``PatchMLP`` reads
them, so training a ``FreeTable`` draws none.

Batching rule: dataset assembly works in whole-array passes, and every
stream is consumed in per-point order, so one ``size=(n, k)`` draw yields
the values of ``n`` scalar ``size=k`` draws. A generator may be over-drawn
(more candidates drawn than accepted) only when it is local to one call and
discarded afterwards, as in ``gen_scene``. Streams that later draws share,
such as ``gen_trajectory``'s ``[seed, 2]`` stream across images, are drawn
one attempt at a time.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass
from functools import cache, cached_property
from pathlib import Path

import numpy as np

from anglereloc.geometry import CameraIntrinsics, PoseSE3, nearest_rotation, ray_vectors
from anglereloc.losses import (
    COUNT,
    FRACTION,
    NON_NEGATIVE,
    POSITIVE,
    POSITIVE_COUNT,
    ConfigError,
    Rule,
    check_fields,
    config_from_json,
    ruled,
)


class NoGeometryError(Exception):
    """Rendering was requested for a scene without textured planes."""


class InfeasibleViewpointError(Exception):
    """No camera placement satisfied the minimum-visibility constraint."""


class ParseError(Exception):
    """A file that cannot be read as what it should hold, with its path."""

    def __init__(self, message, path):
        super().__init__(f"{message} in {path}")
        self.path = path


SCHEMA_VERSION = 3

# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

# free-space points keep this far from the origin, clear of the camera orbit
FREE_SPACE_MIN_RADIUS = 3.5
# a room is refused once it has drawn FREE_SPACE_PATIENCE free-space
# candidates and kept fewer than one in FREE_SPACE_DRAWS_PER_POINT of them
FREE_SPACE_PATIENCE = 1 << 20
FREE_SPACE_DRAWS_PER_POINT = 10_000
# pose draws per view before gen_trajectory gives up
MAX_ATTEMPTS = 60
# gen_trajectory culls each pose draw to the cells of a CULL_CELLS^3 grid
# whose bounding spheres, inflated by CULL_MARGIN of the largest coordinate
# magnitude, meet the view frustum; rooms of fewer than CULL_MIN_POINTS
# points are projected whole (see the module docstring)
CULL_MIN_POINTS = 4000
CULL_CELLS = 10
CULL_MARGIN = 1e-9
# the one camera of every view: focal length 40, principal point at the center
WIDTH, HEIGHT = 80, 60
INTRINSICS = CameraIntrinsics(40.0, (WIDTH - 1) / 2, (HEIGHT - 1) / 2)
# image i sits on a circle of ORBIT_RADIUS about the vertical axis, its
# radius jittered by up to RADIUS_JITTER and its height by HEIGHT_JITTER, and
# faces outward with its yaw and pitch jittered by up to these many degrees
ORBIT_RADIUS = 1.6
RADIUS_JITTER = 0.3
HEIGHT_JITTER = 0.5
YAW_JITTER_DEG = 8.0
PITCH_JITTER_DEG = 14.0
# length of each point's appearance descriptor
DESCRIPTOR_DIM = 16
# octaves of value noise, each at twice the frequency and TEXTURE_GAIN times
# the amplitude of the last
TEXTURE_OCTAVES = 3
TEXTURE_GAIN = 0.5


def column_bounds(rows):
    """Column minima and maxima of the (n, 3) array ``rows``, one column at
    a time: numpy reduces an (n, 3) array 3 elements at a time, about ten
    times slower at 60k rows."""
    return (
        np.array([rows[:, k].min() for k in range(3)]),
        np.array([rows[:, k].max() for k in range(3)]),
    )


@dataclass
class DatasetConfig:
    """Everything needed to regenerate a dataset deterministically, together
    with the module constants (the camera, the orbit and the descriptor
    width), which are the same for every room. Each field is here because a
    test or a benchmark workload varies it.

    A value that fails its field's rule raises ``ConfigError`` naming the
    field, as do a ``half_extent`` too small for the room's free-space
    points and ``render_images`` in a room without planes."""

    seed: int = ruled(COUNT, 0)
    n_points: int = ruled(POSITIVE_COUNT, 500)
    n_planes: int = ruled(COUNT, 6)
    half_extent: float = ruled(POSITIVE, 5.0)
    free_space_fraction: float = ruled(FRACTION, 0.2)
    n_images: int = ruled(POSITIVE_COUNT, 40)
    # every k-th image is held out for evaluation; 0 holds out none
    test_every: int = ruled(COUNT, 4)
    min_visible: int = ruled(COUNT, 20)
    pixel_noise_sigma: float = ruled(NON_NEGATIVE, 0.0)
    descriptor_noise_sigma: float = ruled(NON_NEGATIVE, 0.01)
    covis_keep_fraction: float = ruled(FRACTION, 1.0)
    render_images: bool = ruled(Rule(lambda v: isinstance(v, bool), "a bool"), False)

    def __post_init__(self):
        check_fields(self)
        # no free-space candidate of the cube [-h, h]^3 could clear the radius
        if self.n_free_space and not self.half_extent * math.sqrt(3) > FREE_SPACE_MIN_RADIUS:
            raise ConfigError(
                f"half_extent must be > FREE_SPACE_MIN_RADIUS / sqrt(3) = "
                f"{FREE_SPACE_MIN_RADIUS / math.sqrt(3):.4f} in a room with free-space "
                f"points, got {self.half_extent!r}"
            )
        if self.render_images and not self.n_planes:
            raise ConfigError("render_images must be False in a room without planes (n_planes 0)")

    @property
    def n_free_space(self) -> int:
        """Points that ``gen_scene`` places in free space: the
        ``free_space_fraction`` share, or every point of a room without
        planes."""
        if not self.n_planes:
            return self.n_points
        return int(round(self.n_points * self.free_space_fraction))


# ---------------------------------------------------------------------------
# Value-noise texture
# ---------------------------------------------------------------------------


def _hash01(ix, iy, seed):
    """Deterministic lattice hash -> [0, 1); pure function of its inputs."""
    seed_mix = np.uint64((int(seed) * 0x165667B19E3779F9) % (1 << 64))
    with np.errstate(over="ignore"):
        h = (
            ix.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
            + iy.astype(np.uint64) * np.uint64(0xC2B2AE3D27D4EB4F)
            + seed_mix
        )
    h ^= h >> np.uint64(30)
    h *= np.uint64(0xBF58476D1CE4E5B9)
    h ^= h >> np.uint64(27)
    h *= np.uint64(0x94D049BB133111EB)
    h ^= h >> np.uint64(31)
    return (h >> np.uint64(11)).astype(np.float64) / float(1 << 53)


def _blend(s, t, tables):
    """Multi-octave value noise at (s, t) from a plane's ``texture_tables``:
    per octave, at twice the frequency and ``TEXTURE_GAIN`` times the
    amplitude of the last, the smoothstep blend of the four hashed lattice
    values around each sample, gathered from the octave's table. The
    amplitude-weighted mean lies in [0, 1] and is mapped into [0.1, 0.9]."""
    total = np.zeros_like(s)
    amp, freq, norm = 1.0, 1.0, 0.0
    for table, ny in tables:
        xs, ys = s * freq, t * freq
        x0 = np.floor(xs).astype(np.int64)
        y0 = np.floor(ys).astype(np.int64)
        fx, fy = xs - x0, ys - y0
        wx = fx * fx * (3 - 2 * fx)
        wy = fy * fy * (3 - 2 * fy)
        # the table is flattened with y fastest: (x0 + 1, y0) is ny entries on
        i00 = x0 * ny + y0
        v00, v01, v10, v11 = (table.take(i) for i in (i00, i00 + ny, i00 + 1, i00 + ny + 1))
        top = v00 * (1 - wx) + v01 * wx
        bot = v10 * (1 - wx) + v11 * wx
        total += amp * (top * (1 - wy) + bot * wy)
        norm += amp
        amp *= TEXTURE_GAIN
        freq *= 2.0
    out = total / norm
    # keep a margin inside [0, 1] so quantized renders never saturate
    return 0.1 + 0.8 * out


# ---------------------------------------------------------------------------
# Scene
# ---------------------------------------------------------------------------

TEXTURE_CELLS_PER_UNIT = 0.8


@dataclass(frozen=True)
class TexturedPlane:
    """Finite textured rectangle: origin corner plus two perpendicular edge
    vectors. A non-finite origin or edge, or edges whose dot product exceeds
    1e-12 of their lengths' product, raise ``ConfigError``."""

    origin: np.ndarray
    edge_u: np.ndarray
    edge_v: np.ndarray
    texture_seed: int

    def __post_init__(self):
        for name in ("origin", "edge_u", "edge_v"):
            if not np.isfinite(getattr(self, name)).all():
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)!r}")
        # scaled to a largest entry of 1, so that no product overflows
        u, v = (e / (np.abs(e).max() or 1.0) for e in (self.edge_u, self.edge_v))
        if not abs(u @ v) <= 1e-12 * np.linalg.norm(u) * np.linalg.norm(v):
            raise ConfigError(f"edges {self.edge_u!r} and {self.edge_v!r} are not perpendicular")

    # Per-plane constants, computed on first use; the edges are never
    # changed in place.
    @cached_property
    def hit_constants(self):
        """The unnormalized normal ``edge_u x edge_v`` and the squared
        lengths of ``edge_u`` and ``edge_v``, as ``_trace`` uses them."""
        return (
            np.cross(self.edge_u, self.edge_v),
            self.edge_u @ self.edge_u,
            self.edge_v @ self.edge_v,
        )

    @cached_property
    def corners(self):
        """(4, 3) corners: ``origin``, plus ``edge_u``, ``edge_v`` or both."""
        o, eu, ev = self.origin, self.edge_u, self.edge_v
        return np.array([o, o + eu, o + ev, o + eu + ev], dtype=np.float64)

    @cached_property
    def texture_scale(self):
        """Texture lattice cells along ``edge_u`` and ``edge_v``."""
        return (
            np.linalg.norm(self.edge_u) * TEXTURE_CELLS_PER_UNIT,
            np.linalg.norm(self.edge_v) * TEXTURE_CELLS_PER_UNIT,
        )

    @cached_property
    def texture_tables(self):
        """Per octave, ``_hash01`` over every lattice point that ``shade``
        can reach, from (0, 0) to one past the cell of (u, v) = (1, 1),
        flattened with y fastest, with its column count. A table holds one
        float64 per lattice point, so the tables grow with the plane's area:
        about 13.4 float64 per square unit of a large plane
        ((1 + 4 + 16) x 0.64), and 1580 (12.6 KB) for a 10 x 10 wall."""
        su, sv = self.texture_scale
        tables = []
        for octave in range(TEXTURE_OCTAVES):
            freq = 2.0**octave
            nx, ny = math.floor(su * freq) + 2, math.floor(sv * freq) + 2
            seed = self.texture_seed * 1000003 + octave
            table = _hash01(np.arange(nx)[:, None], np.arange(ny)[None, :], seed)
            tables.append((table.ravel(), ny))
        return tables

    def shade(self, u, v):
        """Intensity at plane coordinates (u, v) in [0, 1]^2, scaled to the
        plane's physical size so texture frequency is uniform across walls:
        the value noise of ``texture_tables`` at (u * su, v * sv) for the
        ``texture_scale`` (su, sv). Raises ``ValueError`` for u or v outside
        [0, 1] or NaN, whose lattice cells lie outside the tables."""
        u = np.asarray(u, dtype=np.float64)
        v = np.asarray(v, dtype=np.float64)
        if not (((u >= 0) & (u <= 1)).all() and ((v >= 0) & (v <= 1)).all()):
            raise ValueError("plane coordinates u and v must lie in [0, 1]")
        su, sv = self.texture_scale
        return _blend(u * su, v * sv, self.texture_tables)


@dataclass
class SyntheticScene:
    """A room's points and textured planes, and its span: the largest side
    of the box that holds the cube [-h, h]^3, every plane corner and point."""

    points: np.ndarray  # (P, 3) world coordinates; point id == row index
    planes: list[TexturedPlane]
    diameter: float


def _room_planes(half_extent, seed):
    """Six inward-facing walls of the cubic room [-h, h]^3."""
    h = half_extent
    walls = [
        # origin, edge_u, edge_v
        ((+h, -h, -h), (0, 2 * h, 0), (0, 0, 2 * h)),
        ((-h, -h, -h), (0, 2 * h, 0), (0, 0, 2 * h)),
        ((-h, +h, -h), (2 * h, 0, 0), (0, 0, 2 * h)),
        ((-h, -h, -h), (2 * h, 0, 0), (0, 0, 2 * h)),
        ((-h, -h, +h), (2 * h, 0, 0), (0, 2 * h, 0)),
        ((-h, -h, -h), (2 * h, 0, 0), (0, 2 * h, 0)),
    ]
    return [
        TexturedPlane(*(np.array(a, dtype=float) for a in wall), texture_seed=seed * 100 + i)
        for i, wall in enumerate(walls)
    ]


def _free_space_points(rng, n, half_extent, min_radius):
    """``n`` points uniform in the cube [-h, h]^3 at least ``min_radius``
    from the origin: the accepted candidates of one ``size=3`` draw per
    candidate, in draw order. Candidates are drawn in batches, so ``rng`` ends
    over-drawn; it must be local to the caller.

    Where the corners of the cube barely clear the radius, almost no
    candidate is kept and the draws would run for minutes or forever. Once
    ``FREE_SPACE_PATIENCE`` candidates are drawn, a room that has kept fewer
    than one in ``FREE_SPACE_DRAWS_PER_POINT`` of them, and still needs
    points, raises ``ConfigError`` naming ``half_extent``, as
    ``DatasetConfig`` refuses a cube no candidate can clear. A room that gets
    its points keeps every bit."""
    batches = [np.empty((0, 3))]
    drawn = kept = 0
    while n > 0:
        cand = rng.uniform(-half_extent, half_extent, size=(max(2 * n, 64), 3))
        norms = np.sqrt(cand[:, 0] ** 2 + cand[:, 1] ** 2 + cand[:, 2] ** 2)
        accept = norms >= min_radius
        # a single vector's np.linalg.norm may differ from the row norm in the
        # last bit; near ties are decided by the former, as one draw at a time was
        for i in np.flatnonzero(np.abs(norms - min_radius) <= 1e-12 * min_radius):
            accept[i] = np.linalg.norm(cand[i]) >= min_radius
        batches.append(cand[accept][:n])
        n -= len(batches[-1])
        drawn += len(cand)
        kept += len(batches[-1])
        if n > 0 and drawn >= FREE_SPACE_PATIENCE and kept * FREE_SPACE_DRAWS_PER_POINT < drawn:
            raise ConfigError(
                f"half_extent {half_extent!r} leaves too little free space: {kept} of "
                f"{drawn} candidates in the cube lie at least {min_radius} from the "
                f"origin, fewer than one in {FREE_SPACE_DRAWS_PER_POINT}"
            )
    return np.concatenate(batches)


def gen_scene(cfg: DatasetConfig) -> SyntheticScene:
    """Deterministic synthetic scene: up to six room walls (plus random
    interior panels beyond six), with ``cfg.n_points`` points sampled on the
    plane surfaces and, a ``cfg.free_space_fraction`` of them, in free space
    at least ``FREE_SPACE_MIN_RADIUS`` from the origin. A room whose cube
    leaves almost no such space (see ``_free_space_points``), whose walls
    have an area that overflows a float or underflows to 0, or whose
    free-space draw squares coordinates whose sum overflows, raises
    ``ConfigError`` naming ``half_extent``."""
    seed, half_extent = cfg.seed, cfg.half_extent
    side = 2 * half_extent  # a wall's area is the norm of (side^2, 0, 0), which squares it
    area = side * side * (side * side)
    if cfg.n_planes and not (math.isfinite(area) and area > 0.0):
        raise ConfigError(
            f"half_extent {half_extent!r} gives walls whose area "
            f"{'overflows a float' if area else 'underflows to 0'}"
        )
    # a free-space candidate's squared norm is at most 3 h^2
    if cfg.n_free_space and not math.isfinite(3.0 * half_extent * half_extent):
        raise ConfigError(
            f"half_extent {half_extent!r} gives free-space points whose squared norm overflows"
        )
    rng = np.random.default_rng([seed, 1])
    planes = _room_planes(half_extent, seed)[: cfg.n_planes]
    for extra in range(max(cfg.n_planes - 6, 0)):
        center = rng.uniform(-half_extent, half_extent, size=3)
        center *= max(FREE_SPACE_MIN_RADIUS, np.linalg.norm(center)) / max(
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

    n_free = cfg.n_free_space
    n_surface = cfg.n_points - n_free

    surface = np.empty((0, 3))
    if n_surface > 0:
        # the cached normal is edge_u x edge_v, which _trace reuses
        areas = np.array([np.linalg.norm(p.hit_constants[0]) for p in planes])
        choice = rng.choice(len(planes), size=n_surface, p=areas / areas.sum())
        uv = rng.uniform(size=(n_surface, 2))
        origin, edge_u, edge_v = (
            np.array([getattr(p, name) for p in planes])[choice]
            for name in ("origin", "edge_u", "edge_v")
        )
        surface = origin + uv[:, :1] * edge_u + uv[:, 1:] * edge_v
    free = _free_space_points(rng, n_free, half_extent, FREE_SPACE_MIN_RADIUS)
    points = np.concatenate([surface, free])

    cube = np.array([[-half_extent] * 3, [half_extent] * 3])
    lo, hi = column_bounds(np.concatenate([cube, *(p.corners for p in planes), points]))
    return SyntheticScene(points, planes, float(np.max(hi - lo)))


# ---------------------------------------------------------------------------
# Trajectory
# ---------------------------------------------------------------------------


def _look_pose(position, forward):
    """Camera-to-world pose looking along ``forward`` with Y roughly down:
    the columns ``x = y_des x z``, ``y = z x x`` and ``z``, with
    ``y_des = (0, 0, -1)``, projected onto SO(3).

    This runs once per pose drawn, and ``np.cross`` on 3-vectors is almost
    all per-call overhead, so the two cross products are written out on
    Python floats. They form the products and differences that ``np.cross``
    forms, in its order, zero terms of ``y_des`` included so that signed
    zeros match, so every pose keeps its bits. The norms stay
    ``np.linalg.norm`` (BLAS ``ddot``, whose last bit a plain sum does not
    always match), and ``x`` is divided as an array: a forward along +-Z
    gives 0/0 there, numpy warns, and the NaN rotation fails in
    ``nearest_rotation``."""
    z = forward / np.linalg.norm(forward)
    z0, z1, z2 = z.tolist()
    a0, a1, a2 = 0.0, 0.0, -1.0  # y_des
    x = np.array([a1 * z2 - a2 * z1, a2 * z0 - a0 * z2, a0 * z1 - a1 * z0])
    x /= np.linalg.norm(x)
    x0, x1, x2 = x.tolist()
    R = np.empty((3, 3))
    R[:, 0] = x
    R[:, 1] = (z1 * x2 - z2 * x1, z2 * x0 - z0 * x2, z0 * x1 - z1 * x0)
    R[:, 2] = z
    return PoseSE3(nearest_rotation(R), position)


def _in_frame(cam):
    """Rows of the camera-frame points ``cam`` that lie in front of the
    camera and project inside the ``WIDTH`` x ``HEIGHT`` image of
    ``INTRINSICS``, ascending, with their (M, 2) pixels. Only the rows in
    front are projected."""
    intr = INTRINSICS
    front = np.flatnonzero(cam[:, 2] > 0)
    d = cam.take(front, axis=0)
    x = intr.f * d[:, 0] / d[:, 2] + intr.cx
    y = intr.f * d[:, 1] / d[:, 2] + intr.cy
    inside = np.flatnonzero((x >= 0) & (x <= WIDTH - 1) & (y >= 0) & (y <= HEIGHT - 1))
    pixels = np.empty((len(inside), 2))
    pixels[:, 0] = x.take(inside)
    pixels[:, 1] = y.take(inside)
    return front.take(inside), pixels


def _frustum_normals():
    """(4, 3) inward unit normals, in the camera frame, of the planes
    through the camera center and the four edges of the ``WIDTH`` x
    ``HEIGHT`` image of ``INTRINSICS``: a point is in the frame when it lies
    on the inner side of all four. Together they also require a depth >= 0,
    since the principal point lies inside the image."""
    f, cx, cy = INTRINSICS.f, INTRINSICS.cx, INTRINSICS.cy
    n = np.array(
        [
            [f, 0.0, cx],  # x >= 0
            [-f, 0.0, WIDTH - 1 - cx],  # x <= WIDTH - 1
            [0.0, f, cy],  # y >= 0
            [0.0, -f, HEIGHT - 1 - cy],  # y <= HEIGHT - 1
        ]
    )
    return n / np.linalg.norm(n, axis=1, keepdims=True)


FRUSTUM_NORMALS = _frustum_normals()


@dataclass(frozen=True)
class _CellGrid:
    """A ``CULL_CELLS``^3 grid over the bounding box of a room's points: the
    point ids grouped by flat cell index, and the centers of the cells'
    bounding spheres. Every sphere has the radius ``radius``, half the cell
    diagonal; ``reach`` is the largest coordinate magnitude of the box."""

    order: np.ndarray  # (P,) point ids grouped by cell
    offsets: np.ndarray  # (cells + 1,) cell c's ids are order[offsets[c]:offsets[c + 1]]
    centers: np.ndarray  # (3, CULL_CELLS**3): column c is cell c's center
    radius: float
    reach: float

    @classmethod
    def over(cls, points):
        """The grid over ``points``, or None when they are fewer than
        ``CULL_MIN_POINTS`` or a coordinate is not finite: such points are
        projected whole."""
        if len(points) < CULL_MIN_POINTS:
            return None
        lo, hi = column_bounds(points)
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            return None
        n = CULL_CELLS
        size = (hi - lo) / n
        cell = np.zeros(len(points), dtype=np.intp)
        for k in range(3):
            # truncation floors the offsets, which are >= 0; the maximum lands on n
            scale = n / (hi[k] - lo[k]) if hi[k] > lo[k] else 0.0
            index = ((points[:, k] - lo[k]) * scale).astype(np.intp)
            np.minimum(index, n - 1, out=index)
            cell *= n
            cell += index
        axes = lo[:, None] + size[:, None] * (np.arange(n) + 0.5)  # (3, n)
        centers = np.stack([a.ravel() for a in np.meshgrid(*axes, indexing="ij")])
        reach = float(max(np.abs(lo).max(), np.abs(hi).max()))
        offsets = np.zeros(n**3 + 1, dtype=np.intp)
        np.cumsum(np.bincount(cell, minlength=n**3), out=offsets[1:])
        order = np.argsort(cell)
        return cls(order, offsets, centers, float(np.linalg.norm(size)) / 2, reach)

    def ids_in_view(self, pose):
        """Ascending ids of the points in every cell whose inflated sphere is
        not wholly outside one of the four planes of ``FRUSTUM_NORMALS`` for
        ``pose``: a superset of the points in its frame."""
        t = pose.translation
        normals = FRUSTUM_NORMALS @ pose.rotation.T  # (4, 3), in the world frame
        radius = self.radius + CULL_MARGIN * (self.reach + float(np.abs(t).max()))
        # signed distance of each center from each plane, less the plane's limit
        signed = normals @ self.centers
        signed -= (normals @ t - radius)[:, None]
        kept = np.flatnonzero(signed.min(axis=0) >= 0)
        # gather the kept cells' runs of ``order``: entry k of a run of
        # ``lengths[c]`` ids is order[starts[c] + k]
        starts = self.offsets.take(kept)
        lengths = self.offsets.take(kept + 1) - starts
        firsts = np.cumsum(lengths) - lengths  # where each run lands
        index = np.repeat(starts - firsts, lengths) + np.arange(lengths.sum())
        return np.sort(self.order.take(index))


def _in_view(points, grid, pose):
    """The ids of the ``points`` in the frame of ``pose``, ascending, with
    their (M, 2) pixels: one ``_in_frame`` call, on the points of the cells
    that ``grid`` keeps, or on all points when ``grid`` is None."""
    if grid is None:
        return _in_frame(pose.world_to_camera(points))
    near = grid.ids_in_view(pose)
    rows, pixels = _in_frame(pose.world_to_camera(points.take(near, axis=0)))
    return near[rows], pixels


def gen_trajectory(scene: SyntheticScene, cfg: DatasetConfig) -> dict:
    """Ordered orbit of ``cfg.n_images`` cameras inside the scene, as image
    id -> ``(pose, point_ids, pixels)``: the accepted pose and the rows of
    the scene points in its frame, ascending, with their noiseless (M, 2)
    pixels.

    Image i sits near azimuth ``2*pi*i/n`` on a circle of ``ORBIT_RADIUS``
    with jittered radius and height, so consecutive image ids are
    neighboring views. Each camera faces away from the scene center with
    jittered yaw and pitch, which leaves the world origin behind every
    camera. Every pose is re-drawn, up to ``MAX_ATTEMPTS`` times, until at
    least ``min_visible`` scene points fall inside its frame. Each draw
    makes one ``_in_frame`` call: on every point in a room of fewer than
    ``CULL_MIN_POINTS``, else on the points of the grid cells whose inflated
    bounding spheres meet the view frustum (see the module docstring), with
    the same ids and pixels as projecting every point.
    """
    rng = np.random.default_rng([cfg.seed, 2])
    points = scene.points
    grid = _CellGrid.over(points)
    views = {}
    for i in range(cfg.n_images):
        base = 2 * np.pi * i / cfg.n_images
        for _ in range(MAX_ATTEMPTS):
            radius = ORBIT_RADIUS + rng.uniform(-RADIUS_JITTER, RADIUS_JITTER)
            z = rng.uniform(-HEIGHT_JITTER, HEIGHT_JITTER)
            yaw = base + np.radians(rng.uniform(-YAW_JITTER_DEG, YAW_JITTER_DEG))
            pitch = np.radians(rng.uniform(-PITCH_JITTER_DEG, PITCH_JITTER_DEG))
            position = np.array([radius * np.cos(base), radius * np.sin(base), z])
            forward = np.array(
                [np.cos(pitch) * np.cos(yaw), np.cos(pitch) * np.sin(yaw), np.sin(pitch)]
            )
            pose = _look_pose(position, forward)
            ids, pixels = _in_view(points, grid, pose)
            if len(ids) >= cfg.min_visible:
                views[i] = (pose, ids, pixels)
                break
        else:
            raise InfeasibleViewpointError(
                f"no viewpoint with >= {cfg.min_visible} visible points near "
                f"azimuth {np.degrees(base):.0f} deg after {MAX_ATTEMPTS} attempts"
            )
    return views


# ---------------------------------------------------------------------------
# Observations and co-visibility
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DescriptorSource:
    """The appearance descriptors of one room, drawn on first read: a
    unit-length base descriptor per point from the ``[seed, 3]`` stream, and
    per view its points' base rows plus ``noise_sigma`` noise from the
    ``[seed, 4, image_id]`` stream. The streams are independent, so every
    array has the same bits whatever is read first."""

    seed: int
    n_points: int
    noise_sigma: float

    @cached_property
    def base(self) -> np.ndarray:
        """(n_points, ``DESCRIPTOR_DIM``) base descriptors, drawn once."""
        rng = np.random.default_rng([self.seed, 3])
        d = rng.normal(size=(self.n_points, DESCRIPTOR_DIM))
        return d / np.linalg.norm(d, axis=1, keepdims=True)

    def view(self, image_id, point_ids) -> np.ndarray:
        """The descriptors that view ``image_id`` observes at ``point_ids``."""
        d = self.base[point_ids]
        if self.noise_sigma > 0:
            rng = np.random.default_rng([self.seed, 4, int(image_id)])
            d = d + rng.normal(scale=self.noise_sigma, size=d.shape)
        return d


@dataclass
class ImageObservations:
    """One image's observed points: pixel and ground-truth coordinate per
    point id, and the room's one ``DescriptorSource``, from which
    ``descriptors`` are drawn on first read and kept."""

    image_id: int
    point_ids: np.ndarray
    pixels: np.ndarray
    gt_coords: np.ndarray
    descriptor_source: DescriptorSource

    @cached_property
    def descriptors(self) -> np.ndarray:
        return self.descriptor_source.view(self.image_id, self.point_ids)


def observe(
    scene: SyntheticScene,
    cfg: DatasetConfig,
    image_id: int,
    point_ids: np.ndarray,
    pixels: np.ndarray,
    source: DescriptorSource,
) -> ImageObservations:
    """One view's observations from its in-frame rows, as ``gen_trajectory``
    returns them: Gaussian pixel noise of ``cfg.pixel_noise_sigma`` from the
    ``[seed, 2, image_id]`` stream, clamped back into the image, and the
    room's descriptor ``source``. Ground-truth coordinates are those of the
    points, free of the noise."""
    sigma = cfg.pixel_noise_sigma
    if sigma > 0:
        rng = np.random.default_rng([cfg.seed, 2, image_id])
        pixels = pixels + rng.normal(scale=sigma, size=pixels.shape)
        pixels[:, 0] = np.clip(pixels[:, 0], 0, WIDTH - 1)
        pixels[:, 1] = np.clip(pixels[:, 1], 0, HEIGHT - 1)
    return ImageObservations(
        image_id=image_id,
        point_ids=point_ids,
        pixels=pixels,
        gt_coords=scene.points[point_ids],
        descriptor_source=source,
    )


@dataclass
class CoVisibilityGraph:
    """The points that the multi-view loss corresponds: seen in at least two
    observation rows and not dropped by sparsification, as ascending int64
    point ids. Which images see a point is read from the observations
    themselves (``losses.build_multiview_index``), so it is stored nowhere
    else."""

    corresponded: np.ndarray


def build_covis(observations_by_image: dict) -> CoVisibilityGraph:
    """The points observed at least twice over all images, counted in one
    ``np.bincount`` pass over every observation row (point ids are scene
    rows, so they are >= 0 and there is one count per id up to the
    largest)."""
    rows = np.concatenate(
        [np.empty(0, np.int64)]
        + [np.asarray(o.point_ids).astype(np.int64) for o in observations_by_image.values()]
    )
    return CoVisibilityGraph(np.flatnonzero(np.bincount(rows) >= 2))


def sparsify_covis(
    graph: CoVisibilityGraph, keep_fraction: float, seed: int
) -> CoVisibilityGraph:
    """Keep correspondence status for a random fraction of the multi-view
    points, demoting the rest to single-view terms. Mirrors the sparse
    correspondence sets that reconstruction tooling provides in practice.
    Raises ``ConfigError`` unless ``keep_fraction`` is a number in [0, 1] and
    ``seed`` an integer >= 0."""
    FRACTION.check("keep_fraction", keep_fraction)
    COUNT.check("seed", seed)
    rng = np.random.default_rng([seed, 5])
    multi = graph.corresponded
    n_keep = int(round(len(multi) * keep_fraction))
    return CoVisibilityGraph(np.sort(multi[rng.permutation(len(multi))[:n_keep]]))


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


@dataclass
class Image:
    """Grayscale float intensities in [0, 1], shape (H, W)."""

    data: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.data, dtype=np.float64)
        if d.ndim != 2 or d.size == 0:
            raise ValueError("image data must be (H, W) and non-empty")
        if not np.all(np.isfinite(d)) or d.min() < 0 or d.max() > 1:
            raise ValueError("intensities must be finite and within [0, 1]")
        self.data = d


def _trace(planes, origin, dirs):
    """Shade the world-space rays ``dirs`` from ``origin`` against
    ``planes``, in their order: per ray, the nearest hit's ``shade``, or
    0.5 background where no plane is hit."""
    n = len(dirs)
    best_s = np.full(n, np.inf)
    shade = np.full(n, 0.5)
    local = np.empty((n, 3))  # hit point relative to the plane's origin
    for plane in planes:
        normal, uu, vv = plane.hit_constants
        denom = dirs @ normal
        # a ray parallel to the plane gets s = +-inf or NaN and a non-finite
        # hit point and (u, v), which the isfinite(s) test below rejects
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            s = ((plane.origin - origin) @ normal) / denom
            for k in range(3):
                col = local[:, k]
                np.multiply(s, dirs[:, k], out=col)
                col += origin[k]
                col -= plane.origin[k]
            u = local @ plane.edge_u / uu
            v = local @ plane.edge_v / vv
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
            shade[hit] = plane.shade(u[hit], v[hit])
            best_s[hit] = s[hit]
    return shade


@cache
def _pixel_rays():
    """(HEIGHT * WIDTH, 3) camera-frame rays of every pixel of ``INTRINSICS``,
    row by row, built on the first render and read-only."""
    ys, xs = np.mgrid[0:HEIGHT, 0:WIDTH]
    rays = ray_vectors(INTRINSICS, np.column_stack([xs.ravel(), ys.ravel()]))
    rays.flags.writeable = False
    return rays


# inward unit normals, in the camera frame, of the five half-spaces that hold
# every pixel ray: the four of FRUSTUM_NORMALS and depth >= 0
VIEW_HALF_SPACES = np.vstack([FRUSTUM_NORMALS, [0.0, 0.0, 1.0]])


def _planes_in_view(planes, pose):
    """The ``planes`` a pixel ray of ``pose`` may hit, in order: all but
    those whose four ``corners`` lie outside one of ``VIEW_HALF_SPACES`` by
    more than ``CULL_MARGIN`` times the largest coordinate magnitude in play,
    the corners' plus the camera's (see the module docstring)."""
    corners = np.array([p.corners for p in planes])  # (P, 4, 3)
    t = pose.translation
    normals = VIEW_HALF_SPACES @ pose.rotation.T  # (5, 3), in the world frame
    margin = CULL_MARGIN * (float(np.abs(corners).max()) + float(np.abs(t).max()))
    outside = ((corners - t) @ normals.T < -margin).all(axis=1).any(axis=1)
    return [p for p, out in zip(planes, outside.tolist()) if not out]


def render_image(scene: SyntheticScene, pose: PoseSE3) -> Image:
    """Lambertian render of the ``WIDTH`` x ``HEIGHT`` image of
    ``INTRINSICS``: per pixel, intersect the view ray with the nearest plane
    and evaluate its texture there. View-independent by construction.
    Intensities are quantized to 16-bit steps. Rays are traced against the
    planes the view may see (``_planes_in_view``), which gives the bits of
    ``_trace`` against every plane."""
    if not scene.planes:
        raise NoGeometryError("scene has no textured planes to render")
    dirs = _pixel_rays() @ pose.rotation.T
    shade = _trace(_planes_in_view(scene.planes, pose), pose.translation, dirs)
    data = np.round(shade.reshape(HEIGHT, WIDTH) * 65535.0) / 65535.0
    return Image(data)


# ---------------------------------------------------------------------------
# Dataset assembly
# ---------------------------------------------------------------------------


@dataclass
class Dataset:
    """A room as ``build_dataset`` makes it from ``config``; ``load_dataset``
    rebuilds it the same way, so every room holds its scene. Its descriptors
    are read through its observations, which share one ``DescriptorSource``."""

    config: DatasetConfig
    scene: SyntheticScene
    observations: dict  # image_id -> ImageObservations
    poses: dict  # image_id -> PoseSE3
    covis: CoVisibilityGraph
    images: dict  # image_id -> Image (renders; empty unless requested)
    train_ids: list
    test_ids: list

    @property
    def diameter(self) -> float:
        """The scene span, ``scene.diameter``."""
        return self.scene.diameter

    @property
    def intrinsics(self) -> CameraIntrinsics:
        """The one camera of every view, ``INTRINSICS``."""
        return INTRINSICS


def build_dataset(cfg: DatasetConfig) -> Dataset:
    """Generate a room from ``cfg``: the scene; the trajectory, whose
    acceptance test projects the points in view once per pose drawn (in a
    room of ``CULL_MIN_POINTS`` or more, only those of the grid cells its
    frustum can see) and keeps the accepted pose's in-frame rows; each
    view's observations from those rows
    (``observe``, which projects nothing); co-visibility and (optionally)
    renders. Views are split into interleaved train/test ids. No descriptor
    is drawn here: the observations share one ``DescriptorSource``, which
    draws them on first read."""
    scene = gen_scene(cfg)
    views = gen_trajectory(scene, cfg)
    poses = {i: pose for i, (pose, _, _) in views.items()}
    source = DescriptorSource(cfg.seed, cfg.n_points, cfg.descriptor_noise_sigma)
    observations = {
        i: observe(scene, cfg, i, ids, pixels, source) for i, (_, ids, pixels) in views.items()
    }
    covis = build_covis(observations)
    if cfg.covis_keep_fraction < 1.0:
        covis = sparsify_covis(covis, cfg.covis_keep_fraction, cfg.seed)
    images = {}
    if cfg.render_images:
        for image_id, pose in poses.items():
            images[image_id] = render_image(scene, pose)
    test_ids = [i for i in poses if cfg.test_every and (i % cfg.test_every == cfg.test_every - 1)]
    train_ids = [i for i in poses if i not in test_ids]
    return Dataset(
        config=cfg,
        scene=scene,
        observations=observations,
        poses=poses,
        covis=covis,
        images=images,
        train_ids=train_ids,
        test_ids=test_ids,
    )


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------


def room_digest(ds: Dataset) -> str:
    """sha256 of a room: per view in id order, its point ids, pixels, ground
    truth, pose and render (each with its dtype and shape), then the
    train/test split, the corresponded point ids and the diameter. The
    descriptors are left out, so computing it draws none."""
    h = hashlib.sha256()
    for image_id in sorted(ds.observations):
        obs, pose = ds.observations[image_id], ds.poses[image_id]
        arrays = [obs.point_ids, obs.pixels, obs.gt_coords, pose.rotation, pose.translation]
        if image_id in ds.images:
            arrays.append(ds.images[image_id].data)
        arrays = [np.ascontiguousarray(a) for a in arrays]
        h.update(repr((int(image_id), [(a.dtype.str, a.shape) for a in arrays])).encode())
        for a in arrays:
            h.update(a.tobytes())
    h.update(
        repr((ds.train_ids, ds.test_ids, ds.covis.corresponded.tolist(), ds.diameter)).encode()
    )
    return h.hexdigest()


def save_dataset(ds: Dataset, path) -> Path:
    """Write the room to ``path`` as one JSON file, its manifest: the schema
    version, the config the room is built from, and the ``room_digest`` of
    the room as saved. Returns ``path``. Draws no descriptor."""
    path = Path(path)
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "config": asdict(ds.config),
        "sha256": room_digest(ds),
    }
    path.write_text(json.dumps(manifest, indent=2) + "\n")
    return path


def load_dataset(path) -> Dataset:
    """The room that ``save_dataset`` wrote to ``path``, rebuilt from its
    manifest's config by ``build_dataset``. Raises ``ParseError`` naming
    ``path`` when the file is missing, unreadable or not a JSON object,
    holds another ``SCHEMA_VERSION``, lacks ``sha256``, holds a ``config``
    that ``config_from_json`` refuses (no JSON object, a missing field or
    another key, or a value that fails its field's rule) or that cannot be
    built, or when the rebuilt room's ``room_digest`` differs from the saved
    one: the room or the generator changed since the save (a different numpy
    or BLAS build can change a room's bits). So a load gives the saved room
    or refuses."""
    path = Path(path)
    try:
        manifest = json.loads(path.read_text())
    except (OSError, ValueError) as exc:  # a decode error or malformed JSON is a ValueError
        raise ParseError(f"cannot read the manifest ({exc})", path=path) from exc
    if not isinstance(manifest, dict):
        raise ParseError("the manifest is not a JSON object", path=path)
    version = manifest.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ParseError(f"unsupported schema version {version}", path=path)
    try:
        cfg = config_from_json(DatasetConfig, manifest.get("config"), "config")
        digest = manifest["sha256"]
    except (ConfigError, KeyError) as exc:
        raise ParseError(f"malformed contents ({exc!r})", path=path) from exc
    try:
        ds = build_dataset(cfg)
    except (InfeasibleViewpointError, ConfigError) as exc:
        raise ParseError(f"cannot rebuild the room ({exc})", path=path) from exc
    if room_digest(ds) != digest:
        raise ParseError("the rebuilt room differs from the saved one (sha256)", path=path)
    return ds
