"""Synthetic multi-view ground truth: scenes, trajectories, observations,
photometrically consistent renders, co-visibility, and dataset persistence.

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
module constant, the same for every room: the camera (``INTRINSICS``, an
80 x 60 image of ``WIDTH`` x ``HEIGHT`` pixels at focal length 40), the
orbit (``ORBIT_RADIUS`` and its ``RADIUS_JITTER``, ``HEIGHT_JITTER``,
``YAW_JITTER_DEG`` and ``PITCH_JITTER_DEG``), the descriptor width
(``DESCRIPTOR_DIM``), and the free-space and pose-draw limits.
``build_dataset`` runs them in turn: ``gen_trajectory`` projects the
scene once per pose it draws, and hands the accepted pose's in-frame point
ids and pixels to ``observe``, which adds pixel noise and ground truth
without projecting again. Drawing poses is the largest set-up cost of the
default room, so ``_look_pose`` writes its two 3-vector cross products out
on Python floats: ``np.cross`` is almost all per-call overhead at that size.
It forms the same products in the same order, so every pose keeps its bits.

Rendering is Lambertian by construction: wall intensity is a pure function
of the surface point, so two views of the same point agree exactly. A view
casts one ray per pixel and keeps each ray's nearest plane hit; each plane
computes its unnormalized normal, squared edge lengths and texture scale
once, on first use, for every view. The texture is multi-octave value
noise: per octave, the lattice hashes are computed once over the box of
lattice cells the hits span and gathered per sample, so each lattice point
is hashed once per call.

Determinism: every random quantity is drawn from ``np.random.default_rng``
seeded with an integer list ``[seed, stream, ...]``; datasets regenerate
bit-identically from their manifest. The base descriptors are drawn from
the config alone, so they are regenerated on load, not saved.

Batching rule: dataset assembly works in whole-array passes, and every
stream is consumed in per-point order, so one ``size=(n, k)`` draw yields
the values of ``n`` scalar ``size=k`` draws. A generator may be over-drawn
(more candidates drawn than accepted) only when it is local to one call and
discarded afterwards, as in ``gen_scene``. Streams that later draws share,
such as ``gen_trajectory``'s ``[seed, 2]`` stream across images, are drawn
one attempt at a time.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from anglereloc.geometry import CameraIntrinsics, PoseSE3, nearest_rotation, ray_vectors


class NoGeometryError(Exception):
    """Rendering was requested for a scene without textured planes."""


class InfeasibleViewpointError(Exception):
    """No camera placement satisfied the minimum-visibility constraint."""


class ParseError(Exception):
    def __init__(self, message, path=None, line=None, column=None):
        ctx = ""
        if path is not None:
            ctx += f" in {path}"
        if line is not None:
            ctx += f" at line {line}"
        if column is not None:
            ctx += f", column {column}"
        super().__init__(message + ctx)
        self.path, self.line, self.column = path, line, column


class NonRigidWarning(UserWarning):
    """A parsed rotation block failed orthonormality and was projected."""


SCHEMA_VERSION = 2

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


def is_count(value, least) -> bool:
    """True for a Python or numpy integer of at least ``least``; False for a
    bool and for a float, even an integral one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool) and value >= least


@dataclass
class DatasetConfig:
    """Everything needed to regenerate a dataset deterministically, together
    with the module constants (the camera, the orbit and the descriptor
    width), which are the same for every room. Each field is here because a
    test or a benchmark workload varies it.

    Values that would break a room or silently change it raise
    ``ValueError`` naming the field; the counts (``seed``, ``n_points``,
    ``n_planes``, ``n_images``, ``test_every``, ``min_visible``) must be
    integers, not bools or floats."""

    seed: int = 0
    n_points: int = 500
    n_planes: int = 6
    half_extent: float = 5.0
    free_space_fraction: float = 0.2
    n_images: int = 40
    test_every: int = 4  # every k-th image is held out for evaluation; 0 holds out none
    min_visible: int = 20
    pixel_noise_sigma: float = 0.0
    descriptor_noise_sigma: float = 0.01
    covis_keep_fraction: float = 1.0
    render_images: bool = False

    def __post_init__(self):
        # written so that NaN fails every rule
        for name, ok, rule in (
            ("seed", is_count(self.seed, 0), "an integer >= 0"),
            ("n_points", is_count(self.n_points, 1), "an integer > 0"),
            ("n_planes", is_count(self.n_planes, 0), "an integer >= 0"),
            ("half_extent", 0 < self.half_extent < math.inf, "finite and > 0"),
            ("free_space_fraction", 0 <= self.free_space_fraction <= 1, "in [0, 1]"),
            ("n_images", is_count(self.n_images, 1), "an integer > 0"),
            ("test_every", is_count(self.test_every, 0), "an integer >= 0"),
            ("min_visible", is_count(self.min_visible, 0), "an integer >= 0"),
            ("pixel_noise_sigma", self.pixel_noise_sigma >= 0, ">= 0"),
            ("covis_keep_fraction", 0 <= self.covis_keep_fraction <= 1, "in [0, 1]"),
        ):
            if not ok:
                raise ValueError(f"{name} must be {rule}, got {getattr(self, name)!r}")
        # no free-space candidate of the cube [-h, h]^3 could clear the radius
        if self.n_free_space and not self.half_extent * math.sqrt(3) > FREE_SPACE_MIN_RADIUS:
            raise ValueError(
                f"half_extent must be > FREE_SPACE_MIN_RADIUS / sqrt(3) = "
                f"{FREE_SPACE_MIN_RADIUS / math.sqrt(3):.4f} in a room with free-space "
                f"points, got {self.half_extent!r}"
            )

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


def value_noise(s, t, seed, octaves=3, gain=0.5):
    """Multi-octave value noise at coordinates (s, t), smoothstep-blended
    between hashed lattice values. Output roughly in [0, 1].

    Each octave hashes its lattice once: one ``_hash01`` table spans the
    lattice box of the samples' cells plus one corner row and column, and
    every sample gathers its four corners from it. The table holds one
    float64 per lattice point of that box, so its memory grows with the
    box's area (the coordinates' range times the octave's frequency, per
    axis), not with the number of samples. Raises ``ValueError`` for NaN or
    infinite coordinates, and for those whose scaled value at the finest
    octave is 2^53 or more in magnitude, where the lattice cell is lost."""
    s = np.asarray(s, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64)
    # the finest octave scales by a power of two, so this test is exact; it
    # is False for NaN and +-inf
    limit = 2.0**53 / 2.0 ** max(octaves - 1, 0)
    if not ((np.abs(s) < limit).all() and (np.abs(t) < limit).all()):
        raise ValueError(
            f"value_noise coordinates must be finite and below {limit:g} in magnitude"
        )
    total = np.zeros_like(s)
    amp, freq, norm = 1.0, 1.0, 0.0
    for octave in range(octaves):
        xs, ys = s * freq, t * freq
        x0 = np.floor(xs).astype(np.int64)
        y0 = np.floor(ys).astype(np.int64)
        fx, fy = xs - x0, ys - y0
        wx = fx * fx * (3 - 2 * fx)
        wy = fy * fy * (3 - 2 * fy)
        v00, v01, v10, v11 = _lattice_corners(x0, y0, seed * 1000003 + octave)
        top = v00 * (1 - wx) + v01 * wx
        bot = v10 * (1 - wx) + v11 * wx
        total += amp * (top * (1 - wy) + bot * wy)
        norm += amp
        amp *= gain
        freq *= 2.0
    out = total / norm
    # keep a margin inside [0, 1] so quantized renders never saturate
    return 0.1 + 0.8 * out


def _lattice_corners(x0, y0, seed):
    """``_hash01`` at the corners (x0, y0), (x0 + 1, y0), (x0, y0 + 1) and
    (x0 + 1, y0 + 1), gathered from one table over the box they span."""
    (lo_x, hi_x), (lo_y, hi_y) = (
        (a.min(), a.max()) if a.size else (0, 0) for a in (x0, y0)
    )
    ny = hi_y - lo_y + 2
    table = _hash01(
        np.arange(lo_x, hi_x + 2)[:, None], np.arange(lo_y, lo_y + ny)[None, :], seed
    ).ravel()
    i00 = (x0 - lo_x) * ny + (y0 - lo_y)
    return (table.take(i) for i in (i00, i00 + ny, i00 + 1, i00 + ny + 1))


# ---------------------------------------------------------------------------
# Scene
# ---------------------------------------------------------------------------

TEXTURE_CELLS_PER_UNIT = 0.8


@dataclass(frozen=True)
class TexturedPlane:
    """Finite textured rectangle: origin corner plus two edge vectors."""

    origin: np.ndarray
    edge_u: np.ndarray
    edge_v: np.ndarray
    texture_seed: int

    # Per-plane constants, computed on first use; the edges are never
    # changed in place.
    @cached_property
    def hit_constants(self):
        """The unnormalized normal ``edge_u x edge_v`` and the squared
        lengths of ``edge_u`` and ``edge_v``, as ``render_rays`` uses them."""
        return (
            np.cross(self.edge_u, self.edge_v),
            self.edge_u @ self.edge_u,
            self.edge_v @ self.edge_v,
        )

    @cached_property
    def texture_scale(self):
        """Texture lattice cells along ``edge_u`` and ``edge_v``."""
        return (
            np.linalg.norm(self.edge_u) * TEXTURE_CELLS_PER_UNIT,
            np.linalg.norm(self.edge_v) * TEXTURE_CELLS_PER_UNIT,
        )

    def shade(self, u, v):
        """Intensity at plane coordinates (u, v) in [0, 1]^2, scaled to the
        plane's physical size so texture frequency is uniform across walls."""
        su, sv = self.texture_scale
        return value_noise(np.asarray(u) * su, np.asarray(v) * sv, self.texture_seed)


@dataclass
class SyntheticScene:
    points: np.ndarray  # (P, 3) world coordinates; point id == row index
    planes: list[TexturedPlane]
    bounds_lo: np.ndarray
    bounds_hi: np.ndarray
    diameter: float  # scene span: the largest bounding-box side


def _room_planes(half_extent, seed):
    """Six inward-facing walls of the cubic room [-h, h]^3."""
    h = half_extent
    corners = [
        # origin, edge_u, edge_v
        ((+h, -h, -h), (0, 2 * h, 0), (0, 0, 2 * h)),
        ((-h, -h, -h), (0, 2 * h, 0), (0, 0, 2 * h)),
        ((-h, +h, -h), (2 * h, 0, 0), (0, 0, 2 * h)),
        ((-h, -h, -h), (2 * h, 0, 0), (0, 0, 2 * h)),
        ((-h, -h, +h), (2 * h, 0, 0), (0, 2 * h, 0)),
        ((-h, -h, -h), (2 * h, 0, 0), (0, 2 * h, 0)),
    ]
    return [
        TexturedPlane(
            np.array(o, dtype=float),
            np.array(u, dtype=float),
            np.array(v, dtype=float),
            texture_seed=seed * 100 + i,
        )
        for i, (o, u, v) in enumerate(corners)
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
    points, raises ``ValueError`` naming ``half_extent``. A room that gets
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
            raise ValueError(
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
    leaves almost no such space raises ``ValueError`` naming ``half_extent``
    (see ``_free_space_points``)."""
    seed, half_extent = cfg.seed, cfg.half_extent
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
        # the cached normal is edge_u x edge_v, which render_rays reuses
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

    lo = np.full(3, -half_extent)
    hi = np.full(3, half_extent)
    if planes:
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


def _in_frame(intr, cam, width, height):
    """Rows of the camera-frame points ``cam`` that lie in front of the
    camera and project inside the ``width`` x ``height`` image, ascending,
    with their (M, 2) pixels. Only the rows in front are projected."""
    front = np.flatnonzero(cam[:, 2] > 0)
    d = cam.take(front, axis=0)
    x = intr.f * d[:, 0] / d[:, 2] + intr.cx
    y = intr.f * d[:, 1] / d[:, 2] + intr.cy
    inside = (x >= 0) & (x <= width - 1) & (y >= 0) & (y <= height - 1)
    return front[inside], np.column_stack([x[inside], y[inside]])


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
    least ``min_visible`` scene points fall inside its frame; each draw
    projects the scene once.
    """
    rng = np.random.default_rng([cfg.seed, 2])
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
            ids, pixels = _in_frame(
                INTRINSICS, pose.world_to_camera(scene.points), WIDTH, HEIGHT
            )
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


@dataclass
class ImageObservations:
    """One image's observed points: pixel and ground-truth coordinate per
    point id. ``descriptors`` is attached at dataset assembly."""

    image_id: int
    point_ids: np.ndarray
    pixels: np.ndarray
    gt_coords: np.ndarray
    descriptors: np.ndarray | None = None


def observe(
    scene: SyntheticScene,
    cfg: DatasetConfig,
    image_id: int,
    point_ids: np.ndarray,
    pixels: np.ndarray,
) -> ImageObservations:
    """One view's observations from its in-frame rows, as ``gen_trajectory``
    returns them: Gaussian pixel noise of ``cfg.pixel_noise_sigma`` from the
    ``[seed, 2, image_id]`` stream, clamped back into the image. Ground-truth
    coordinates are those of the points, free of the noise."""
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
    )


@dataclass
class CoVisibilityGraph:
    """The points that the multi-view loss corresponds: seen in at least two
    observation rows and not dropped by sparsification, as a set of Python
    ints. Which images see a point is read from the observations themselves
    (``losses.build_multiview_index``), so it is stored nowhere else."""

    corresponded: set


def build_covis(observations_by_image: dict) -> CoVisibilityGraph:
    """The points observed at least twice over all images, counted in one
    ``np.unique`` pass over every observation row."""
    rows = np.concatenate(
        [np.empty(0, np.int64)]
        + [np.asarray(o.point_ids).astype(np.int64) for o in observations_by_image.values()]
    )
    keys, counts = np.unique(rows, return_counts=True)
    return CoVisibilityGraph(set(keys[counts >= 2].tolist()))


def sparsify_covis(
    graph: CoVisibilityGraph, keep_fraction: float, seed: int
) -> CoVisibilityGraph:
    """Keep correspondence status for a random fraction of the multi-view
    points, demoting the rest to single-view terms. Mirrors the sparse
    correspondence sets that reconstruction tooling provides in practice."""
    if not 0 <= keep_fraction <= 1:
        raise ValueError("keep_fraction must be in [0, 1]")
    rng = np.random.default_rng([seed, 5])
    multi = sorted(graph.corresponded)
    n_keep = int(round(len(multi) * keep_fraction))
    kept = set(
        np.array(multi)[rng.permutation(len(multi))[:n_keep]].tolist()
        if multi
        else []
    )
    return CoVisibilityGraph(kept)


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

    @property
    def height(self):
        return self.data.shape[0]

    @property
    def width(self):
        return self.data.shape[1]


def render_rays(scene: SyntheticScene, origin, dirs):
    """Shade world-space rays against the scene planes: nearest-hit
    intersection, value-noise texture at the hit, 0.5 background."""
    if not scene.planes:
        raise NoGeometryError("scene has no textured planes to render")
    n = len(dirs)
    best_s = np.full(n, np.inf)
    shade = np.full(n, 0.5)
    local = np.empty((n, 3))  # hit point relative to the plane's origin
    for plane in scene.planes:
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


def render_image(
    scene: SyntheticScene,
    pose: PoseSE3,
    intr: CameraIntrinsics,
    width: int,
    height: int,
) -> Image:
    """Lambertian render: per pixel, intersect the view ray with the nearest
    plane and evaluate its texture there. View-independent by construction.
    Intensities are quantized to 16-bit steps so saved images round-trip
    losslessly."""
    ys, xs = np.mgrid[0:height, 0:width]
    pixels = np.column_stack([xs.ravel(), ys.ravel()])
    dirs = ray_vectors(intr, pixels) @ pose.rotation.T
    shade = render_rays(scene, pose.translation, dirs)
    data = np.round(shade.reshape(height, width) * 65535.0) / 65535.0
    return Image(data)


# ---------------------------------------------------------------------------
# Dataset assembly
# ---------------------------------------------------------------------------


@dataclass
class Dataset:
    config: DatasetConfig
    observations: dict  # image_id -> ImageObservations
    poses: dict  # image_id -> PoseSE3
    covis: CoVisibilityGraph
    descriptors: np.ndarray  # (P, dim) base descriptor per point id
    images: dict  # image_id -> Image (renders; empty unless requested)
    train_ids: list
    test_ids: list
    diameter: float
    scene: SyntheticScene | None = None  # not persisted; regenerable from config

    @property
    def intrinsics(self) -> CameraIntrinsics:
        """The one camera of every view, ``INTRINSICS``."""
        return INTRINSICS


def _attach_descriptors(cfg: DatasetConfig, observations) -> np.ndarray:
    """Draw a unit-length base descriptor per point of ``cfg`` from the
    ``[seed, 3]`` stream, and give each observation its points' base
    descriptors plus ``descriptor_noise_sigma`` noise from the
    ``[seed, 4, image_id]`` stream. Returns the base. Both
    ``build_dataset`` and ``load_dataset`` call it, so a loaded room gets
    the bits of the built one."""
    rng = np.random.default_rng([cfg.seed, 3])
    d = rng.normal(size=(cfg.n_points, DESCRIPTOR_DIM))
    base = d / np.linalg.norm(d, axis=1, keepdims=True)
    sigma = cfg.descriptor_noise_sigma
    for obs in observations.values():
        d = base[obs.point_ids]
        if sigma > 0:
            rng = np.random.default_rng([cfg.seed, 4, int(obs.image_id)])
            d = d + rng.normal(scale=sigma, size=d.shape)
        obs.descriptors = d
    return base


def build_dataset(cfg: DatasetConfig) -> Dataset:
    """Generate a room from ``cfg``: the scene; the trajectory, whose
    acceptance test projects the scene once per pose drawn and keeps the
    accepted pose's in-frame rows; each view's observations from those rows
    (``observe``, which projects nothing); descriptors, co-visibility and
    (optionally) renders. Views are split into interleaved train/test ids."""
    scene = gen_scene(cfg)
    views = gen_trajectory(scene, cfg)
    poses = {i: pose for i, (pose, _, _) in views.items()}
    observations = {
        i: observe(scene, cfg, i, ids, pixels) for i, (_, ids, pixels) in views.items()
    }
    base = _attach_descriptors(cfg, observations)
    covis = build_covis(observations)
    if cfg.covis_keep_fraction < 1.0:
        covis = sparsify_covis(covis, cfg.covis_keep_fraction, cfg.seed)
    images = {}
    if cfg.render_images:
        for image_id, pose in poses.items():
            images[image_id] = render_image(scene, pose, INTRINSICS, WIDTH, HEIGHT)
    test_ids = [i for i in poses if cfg.test_every and (i % cfg.test_every == cfg.test_every - 1)]
    train_ids = [i for i in poses if i not in test_ids]
    return Dataset(
        config=cfg,
        observations=observations,
        poses=poses,
        covis=covis,
        descriptors=base,
        images=images,
        train_ids=train_ids,
        test_ids=test_ids,
        diameter=scene.diameter,
        scene=scene,
    )


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------


def write_correspondence_file(path, point_ids, pixels, coords, header=None):
    """Plain text correspondences: one `k x y X Y Z` line per point."""
    lines = []
    if header:
        lines.append(f"# {header}")
    for k, p, c in zip(point_ids, pixels, coords):
        nums = " ".join(repr(float(v)) for v in (p[0], p[1], c[0], c[1], c[2]))
        lines.append(f"{int(k)} {nums}")
    Path(path).write_text("\n".join(lines) + "\n")


def _read(path, binary=False):
    """The file's text (or bytes); ``ParseError`` naming the path when it
    cannot be read."""
    try:
        return Path(path).read_bytes() if binary else Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read file ({exc})", path=path) from exc


def _read_json(path):
    try:
        return json.loads(_read(path))
    except ValueError as exc:  # JSONDecodeError
        raise ParseError(f"malformed JSON ({exc})", path=path) from exc


def read_correspondence_file(path, n_points):
    """Parse `k x y X Y Z` lines; '#' starts a comment. Returns
    (point_ids, pixels, coords). A point id outside ``[0, n_points)`` raises
    ``ParseError`` at its line."""
    ids, pixels, coords = [], [], []
    for ln, raw in enumerate(_read(path).splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tok = line.split()
        if len(tok) != 6:
            raise ParseError(
                f"expected 6 fields, got {len(tok)}", path=path, line=ln
            )
        try:
            k = int(tok[0])
        except ValueError:
            raise ParseError(f"bad point id {tok[0]!r}", path=path, line=ln, column=1)
        if not 0 <= k < n_points:
            raise ParseError(f"point id {k} outside [0, {n_points})", path=path, line=ln, column=1)
        ids.append(k)
        vals = []
        for col, t in enumerate(tok[1:], start=2):
            try:
                vals.append(float(t))
            except ValueError:
                raise ParseError(f"bad number {t!r}", path=path, line=ln, column=col)
        pixels.append(vals[:2])
        coords.append(vals[2:])
    return (
        np.array(ids, dtype=int),
        np.array(pixels, dtype=np.float64).reshape(-1, 2),
        np.array(coords, dtype=np.float64).reshape(-1, 3),
    )


def write_pose_file(path, pose: PoseSE3):
    """4x4 row-major homogeneous camera-to-world matrix as whitespace text."""
    m = pose.as_matrix()
    Path(path).write_text(
        "\n".join(" ".join(repr(float(v)) for v in row) for row in m) + "\n"
    )


def parse_7scenes_pose(path) -> PoseSE3:
    """Read a 4-line, 4-column whitespace camera-to-world pose matrix (the
    7-Scenes text convention). A rotation block that fails
    orthonormality beyond 1e-3 is projected to the nearest rotation with a
    ``NonRigidWarning``; milder drift is projected silently."""
    rows = []
    for ln, raw in enumerate(_read(path).splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        tok = line.split()
        if len(tok) != 4:
            raise ParseError(f"expected 4 columns, got {len(tok)}", path=path, line=ln)
        row = []
        for col, t in enumerate(tok, start=1):
            try:
                row.append(float(t))
            except ValueError:
                raise ParseError(f"bad number {t!r}", path=path, line=ln, column=col)
        rows.append(row)
        if len(rows) == 4:
            break
    if len(rows) != 4:
        raise ParseError(f"expected 4 matrix rows, found {len(rows)}", path=path)
    m = np.array(rows)
    if np.linalg.norm(m[3] - [0, 0, 0, 1]) > 1e-6:
        raise ParseError("last row must be 0 0 0 1", path=path, line=4)
    R = m[:3, :3]
    err = np.linalg.norm(R.T @ R - np.eye(3))
    if err > 1e-9:
        if err > 1e-3:
            warnings.warn(
                f"rotation block fails orthonormality (|R'R - I| = {err:.2e}); "
                "projected to the nearest rotation",
                NonRigidWarning,
            )
        R = nearest_rotation(R)
    return PoseSE3(R, m[:3, 3])


def write_pgm(path, image: Image):
    """Binary 16-bit PGM (P5) with big-endian samples."""
    arr = np.round(image.data * 65535.0).astype(">u2")
    header = b"P5\n%d %d\n65535\n" % (image.width, image.height)
    Path(path).write_bytes(header + arr.tobytes())


def read_pgm(path) -> Image:
    """Read a binary 16-bit PGM as ``write_pgm`` writes it; values scaled to
    [0, 1]. Raises ``ParseError`` naming the path for an unreadable file, a
    bad header, a colour (P6) or 8-bit file, or truncated pixel data."""
    blob = _read(path, binary=True)
    parts = blob.split(b"\n", 3)
    if len(parts) < 4 or parts[0] != b"P5":
        raise ParseError("not a binary grayscale PGM (P5) file", path=path, line=1)
    try:
        w, h = (int(v) for v in parts[1].split())
        maxval = int(parts[2])
    except ValueError:
        raise ParseError("malformed PGM header", path=path, line=2)
    if w <= 0 or h <= 0 or not 255 < maxval < 65536:
        raise ParseError(
            f"bad PGM size {w}x{h} or maxval {maxval} (16-bit samples only)", path=path, line=2
        )
    count = w * h
    if len(parts[3]) < 2 * count:
        raise ParseError(
            f"truncated pixel data: {len(parts[3])} bytes, expected {2 * count}", path=path
        )
    arr = np.frombuffer(parts[3], dtype=">u2", count=count)
    return Image(arr.reshape(h, w).astype(np.float64) / maxval)


def save_dataset(ds: Dataset, out_dir) -> Path:
    """Persist the dataset directory layout: manifest JSON, per-image pose
    and observation text files, co-visibility, and any renders as 16-bit
    PGM. Loading reproduces the dataset bit-identically; the descriptors,
    drawn from the config alone, are regenerated rather than saved."""
    out = Path(out_dir)
    (out / "poses").mkdir(parents=True, exist_ok=True)
    (out / "observations").mkdir(exist_ok=True)
    if ds.images:
        (out / "images").mkdir(exist_ok=True)
    from dataclasses import asdict

    manifest = {
        "schema_version": SCHEMA_VERSION,
        "config": asdict(ds.config),
        "image_ids": sorted(ds.observations),
        "train_ids": ds.train_ids,
        "test_ids": ds.test_ids,
        "diameter": ds.diameter,
        "has_images": sorted(ds.images),
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    for image_id, obs in sorted(ds.observations.items()):
        write_pose_file(out / "poses" / f"pose_{image_id:04d}.txt", ds.poses[image_id])
        write_correspondence_file(
            out / "observations" / f"obs_{image_id:04d}.txt",
            obs.point_ids,
            obs.pixels,
            obs.gt_coords,
            header=f"image {image_id}: point_id pixel_x pixel_y world_x world_y world_z",
        )
    covis = {"corresponded": sorted(ds.covis.corresponded)}
    (out / "covis.json").write_text(json.dumps(covis) + "\n")
    for image_id, img in sorted(ds.images.items()):
        write_pgm(out / "images" / f"img_{image_id:04d}.pgm", img)
    return out


def _parsed(path, parse, data):
    """``parse(data)`` for data read from ``path``; a missing key or a wrong
    type or value becomes a ``ParseError`` naming the file."""
    try:
        return parse(data)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed contents ({exc!r})", path=path) from exc


def _manifest_fields(m):
    """The manifest's config (validated by ``DatasetConfig``), image ids,
    rendered ids, split and diameter. Other top-level keys are ignored."""
    return (
        DatasetConfig(**m["config"]),
        [int(i) for i in m["image_ids"]],
        [int(i) for i in m.get("has_images", [])],
        list(m["train_ids"]),
        list(m["test_ids"]),
        float(m["diameter"]),
    )


def _covis_fields(c, n_points):
    """``covis.json``'s ``corresponded`` list of point ids in [0, n_points);
    other keys, such as the point-to-images map that files of earlier
    versions carry, are ignored."""
    ids = c["corresponded"]
    for k in ids:
        if type(k) is not int:
            raise ValueError(f"corresponded holds a non-integer point id {k!r}")
        if not 0 <= k < n_points:
            raise ValueError(f"corresponded holds point id {k} outside [0, {n_points})")
    return CoVisibilityGraph(set(ids))


def load_dataset(in_dir) -> Dataset:
    """Inverse of ``save_dataset``; the base descriptors and each
    observation's descriptor noise are drawn again from the config, as
    ``build_dataset`` draws them. Raises ``ParseError`` naming the file when
    one is missing, unreadable or malformed (a manifest config value that
    ``DatasetConfig`` refuses included, and a manifest of another
    ``SCHEMA_VERSION``), when a train or test id is not among the image ids,
    or when an observation's point id is not one of the config's
    ``n_points`` (naming the line as well)."""
    src = Path(in_dir)
    manifest_path = src / "manifest.json"
    if not manifest_path.exists():
        raise ParseError("manifest.json not found", path=manifest_path)
    manifest = _read_json(manifest_path)
    version = _parsed(manifest_path, lambda m: m.get("schema_version"), manifest)
    if version != SCHEMA_VERSION:
        raise ParseError(f"unsupported schema version {version}", path=manifest_path)
    cfg, image_ids, rendered, train_ids, test_ids, diameter = _parsed(
        manifest_path, _manifest_fields, manifest
    )
    stray = [i for i in train_ids + test_ids if i not in image_ids]
    if stray:
        raise ParseError(f"split id {stray[0]!r} is not in image_ids", path=manifest_path)
    observations, poses = {}, {}
    for image_id in image_ids:
        poses[image_id] = parse_7scenes_pose(src / "poses" / f"pose_{image_id:04d}.txt")
        ids, pixels, coords = read_correspondence_file(
            src / "observations" / f"obs_{image_id:04d}.txt", cfg.n_points
        )
        observations[image_id] = ImageObservations(image_id, ids, pixels, coords)
    base = _attach_descriptors(cfg, observations)
    covis_path = src / "covis.json"
    covis = _parsed(
        covis_path, lambda c: _covis_fields(c, cfg.n_points), _read_json(covis_path)
    )
    images = {}
    for image_id in rendered:
        images[image_id] = read_pgm(src / "images" / f"img_{image_id:04d}.pgm")
    return Dataset(
        config=cfg,
        observations=observations,
        poses=poses,
        covis=covis,
        descriptors=base,
        images=images,
        train_ids=train_ids,
        test_ids=test_ids,
        diameter=diameter,
        scene=None,
    )
