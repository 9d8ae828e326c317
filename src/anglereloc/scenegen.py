"""Synthetic multi-view ground truth: scenes, trajectories, observations,
photometrically consistent renders, co-visibility, and dataset persistence.

The default scene is a textured room: six wall planes at half-extent 5
(a 10-unit span) with scene points sampled on the walls plus a fraction in
free space, and a camera trajectory orbiting *inside* the room at a small
radius, looking outward. Observed depths then span roughly 2-8 units, and
freshly initialized regressors (whose predictions start near the world
origin) genuinely begin behind every camera, which is the failure regime
the plain reprojection loss cannot escape. Rendering is Lambertian by
construction: wall intensity is a pure function of the surface point, so
two views of the same point agree exactly.

Determinism: every random quantity is drawn from ``np.random.default_rng``
seeded with an integer list ``[seed, stream, ...]``; datasets regenerate
bit-identically from their manifest.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from anglereloc.geometry import (
    CameraIntrinsics,
    PoseSE3,
    nearest_rotation,
    project_points,
)


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


SCHEMA_VERSION = 1

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
    between hashed lattice values. Output roughly in [0, 1]."""
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
    # keep a margin inside [0, 1] so quantized renders never saturate
    return 0.1 + 0.8 * out


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

    def normal(self) -> np.ndarray:
        n = np.cross(self.edge_u, self.edge_v)
        return n / np.linalg.norm(n)

    def shade(self, u, v):
        """Intensity at plane coordinates (u, v) in [0, 1]^2, scaled to the
        plane's physical size so texture frequency is uniform across walls."""
        su = np.linalg.norm(self.edge_u) * TEXTURE_CELLS_PER_UNIT
        sv = np.linalg.norm(self.edge_v) * TEXTURE_CELLS_PER_UNIT
        return value_noise(np.asarray(u) * su, np.asarray(v) * sv, self.texture_seed)


@dataclass
class SyntheticScene:
    points: np.ndarray  # (P, 3) world coordinates; point id == row index
    planes: list[TexturedPlane]
    bounds_lo: np.ndarray
    bounds_hi: np.ndarray
    diameter: float  # scene span: the largest bounding-box side

    @property
    def point_ids(self) -> np.ndarray:
        return np.arange(len(self.points))


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


def gen_scene(
    seed: int,
    point_count: int = 500,
    plane_count: int = 6,
    half_extent: float = 5.0,
    free_space_fraction: float = 0.2,
    free_space_min_radius: float = 3.5,
) -> SyntheticScene:
    """Deterministic synthetic scene: up to six room walls (plus random
    interior panels beyond six), with points sampled on the plane surfaces
    and the rest in free space away from the camera-orbit region."""
    if point_count <= 0:
        raise ValueError("point_count must be positive")
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


@dataclass
class Trajectory:
    sequence_id: str
    entries: list  # ordered (image_id, PoseSE3)

    @property
    def image_ids(self):
        return [i for i, _ in self.entries]


def _look_pose(position, forward):
    """Camera-to-world pose looking along ``forward`` with Y roughly down."""
    z = forward / np.linalg.norm(forward)
    y_des = np.array([0.0, 0.0, -1.0])
    x = np.cross(y_des, z)
    x /= np.linalg.norm(x)
    y = np.cross(z, x)
    R = np.column_stack([x, y, z])
    return PoseSE3(nearest_rotation(R), position)


def count_visible(scene, pose, intr, width, height):
    cam = pose.world_to_camera(scene.points)
    pix, _ = project_points(intr, cam)
    ok = (
        (cam[:, 2] > 0)
        & (pix[:, 0] >= 0)
        & (pix[:, 0] <= width - 1)
        & (pix[:, 1] >= 0)
        & (pix[:, 1] <= height - 1)
    )
    return int(np.sum(ok))


def gen_trajectory(
    scene: SyntheticScene,
    seed: int,
    n_images: int,
    intr: CameraIntrinsics,
    width: int = 80,
    height: int = 60,
    orbit_radius: float = 1.6,
    radius_jitter: float = 0.3,
    height_jitter: float = 0.5,
    yaw_jitter_deg: float = 8.0,
    pitch_jitter_deg: float = 14.0,
    min_visible: int = 20,
    max_attempts: int = 60,
    sequence_id: str = "seq0",
    look: str = "outward",
    turns: float = 1.0,
    height_span: float = 0.0,
) -> Trajectory:
    """Ordered orbit of cameras inside the scene.

    Image i sits near azimuth ``2*pi*turns*i/n`` on a circle of
    ``orbit_radius`` with jittered radius/height; with ``height_span`` > 0
    the orbit becomes a helix ramping from -span to +span over the
    sequence, so multi-turn trajectories sweep each wall region from
    different heights. Consecutive image ids are neighboring views. With
    ``look="outward"`` (the default) each camera faces away from the scene
    center with jittered yaw and pitch, which leaves the world origin
    behind every camera; ``look="center"`` aims at the scene centroid
    instead. Every pose is re-drawn until at least ``min_visible`` scene
    points fall inside its frustum.
    """
    if n_images <= 0:
        raise ValueError("n_images must be positive")
    if look not in ("outward", "center"):
        raise ValueError("look must be 'outward' or 'center'")
    centroid = scene.points.mean(axis=0)
    rng = np.random.default_rng([seed, 2])
    entries = []
    for i in range(n_images):
        base = 2 * np.pi * turns * i / n_images
        ramp = (
            height_span * (2 * i / max(n_images - 1, 1) - 1) if height_span else 0.0
        )
        pose = None
        for _ in range(max_attempts):
            radius = orbit_radius + rng.uniform(-radius_jitter, radius_jitter)
            z = ramp + rng.uniform(-height_jitter, height_jitter)
            yaw = base + np.radians(rng.uniform(-yaw_jitter_deg, yaw_jitter_deg))
            pitch = np.radians(rng.uniform(-pitch_jitter_deg, pitch_jitter_deg))
            position = np.array([radius * np.cos(base), radius * np.sin(base), z])
            if look == "center":
                forward = centroid - position
                if np.linalg.norm(forward) < 1e-9:
                    forward = np.array([1.0, 0.0, 0.0])
            else:
                forward = np.array(
                    [
                        np.cos(pitch) * np.cos(yaw),
                        np.cos(pitch) * np.sin(yaw),
                        np.sin(pitch),
                    ]
                )
            cand = _look_pose(position, forward)
            if count_visible(scene, cand, intr, width, height) >= min_visible:
                pose = cand
                break
        if pose is None:
            raise InfeasibleViewpointError(
                f"no viewpoint with >= {min_visible} visible points near "
                f"azimuth {np.degrees(base):.0f} deg after {max_attempts} attempts"
            )
        entries.append((i, pose))
    return Trajectory(sequence_id, entries)


# ---------------------------------------------------------------------------
# Observations and co-visibility
# ---------------------------------------------------------------------------


@dataclass
class ImageObservations:
    """One image's observed points: pixel, ground-truth coordinate and depth
    per point id. ``descriptors`` is attached at dataset assembly."""

    image_id: int
    point_ids: np.ndarray
    pixels: np.ndarray
    gt_coords: np.ndarray
    gt_depths: np.ndarray
    descriptors: np.ndarray | None = None


def observe(
    scene: SyntheticScene,
    pose: PoseSE3,
    intr: CameraIntrinsics,
    width: int,
    height: int,
    pixel_noise_sigma: float = 0.0,
    rng=None,
    image_id: int = 0,
) -> ImageObservations:
    """Project every scene point, keep the in-front in-bounds ones, then add
    Gaussian pixel noise (clamped back into bounds). Ground-truth pixels,
    coordinates and depths are recorded before noise."""
    if pixel_noise_sigma < 0:
        raise ValueError("pixel_noise_sigma must be >= 0")
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
    ids = np.flatnonzero(keep)
    pixels = pix[keep]
    if pixel_noise_sigma > 0:
        pixels = pixels + rng.normal(scale=pixel_noise_sigma, size=pixels.shape)
        pixels[:, 0] = np.clip(pixels[:, 0], 0, width - 1)
        pixels[:, 1] = np.clip(pixels[:, 1], 0, height - 1)
    return ImageObservations(
        image_id=image_id,
        point_ids=ids,
        pixels=pixels,
        gt_coords=scene.points[keep].copy(),
        gt_depths=cam[keep, 2].copy(),
    )


@dataclass
class CoVisibilityGraph:
    """Which images see each point. Correspondence structure for the
    multi-view loss: a point is 'corresponded' when it is seen in at least
    two images and has not been dropped by sparsification."""

    point_to_images: dict
    corresponded: set

    def images_seeing(self, point_id):
        return self.point_to_images.get(int(point_id), ())

    def other_images(self, point_id, image_id):
        k = int(point_id)
        if k not in self.corresponded:
            return ()
        return tuple(j for j in self.point_to_images.get(k, ()) if j != image_id)

    def corresponded_in(self, observations: ImageObservations):
        """Mask over the observation rows whose points have correspondences
        in other images."""
        return np.array(
            [
                len(self.other_images(k, observations.image_id)) > 0
                for k in observations.point_ids
            ],
            dtype=bool,
        )


def build_covis(observations_by_image: dict) -> CoVisibilityGraph:
    """Symmetric co-visibility from per-image observation sets."""
    point_to_images: dict = {}
    for image_id in sorted(observations_by_image):
        for k in observations_by_image[image_id].point_ids:
            point_to_images.setdefault(int(k), []).append(image_id)
    point_to_images = {k: tuple(v) for k, v in point_to_images.items()}
    corresponded = {k for k, v in point_to_images.items() if len(v) >= 2}
    return CoVisibilityGraph(point_to_images, corresponded)


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
    return CoVisibilityGraph(graph.point_to_images, kept)


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


@dataclass
class Image:
    """Float intensities in [0, 1], shape (H, W) or (H, W, 3)."""

    data: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.data, dtype=np.float64)
        if d.ndim not in (2, 3) or d.size == 0:
            raise ValueError("image data must be (H, W) or (H, W, C) and non-empty")
        if d.ndim == 3 and d.shape[2] not in (1, 3):
            raise ValueError("channel count must be 1 or 3")
        if not np.all(np.isfinite(d)) or d.min() < 0 or d.max() > 1:
            raise ValueError("intensities must be finite and within [0, 1]")
        self.data = d

    @property
    def height(self):
        return self.data.shape[0]

    @property
    def width(self):
        return self.data.shape[1]

    @property
    def channels(self):
        return 1 if self.data.ndim == 2 else self.data.shape[2]


def render_rays(scene: SyntheticScene, origin, dirs):
    """Shade world-space rays against the scene planes: nearest-hit
    intersection, value-noise texture at the hit, 0.5 background."""
    if not scene.planes:
        raise NoGeometryError("scene has no textured planes to render")
    n = len(dirs)
    best_s = np.full(n, np.inf)
    shade = np.full(n, 0.5)
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
    rays_cam = np.stack(
        [xs.ravel() - intr.cx, ys.ravel() - intr.cy, np.full(xs.size, intr.f)], axis=1
    )
    dirs = rays_cam @ pose.rotation.T
    shade = render_rays(scene, pose.translation, dirs)
    data = np.round(shade.reshape(height, width) * 65535.0) / 65535.0
    return Image(data)


# ---------------------------------------------------------------------------
# Dataset assembly
# ---------------------------------------------------------------------------


@dataclass
class DatasetConfig:
    """Everything needed to regenerate a dataset deterministically."""

    seed: int = 0
    n_points: int = 500
    n_planes: int = 6
    half_extent: float = 5.0
    free_space_fraction: float = 0.2
    n_images: int = 40
    test_every: int = 4  # every k-th image is held out for evaluation
    focal: float = 40.0
    width: int = 80
    height: int = 60
    orbit_radius: float = 1.6
    radius_jitter: float = 0.3
    height_jitter: float = 0.5
    yaw_jitter_deg: float = 8.0
    pitch_jitter_deg: float = 14.0
    min_visible: int = 20
    pixel_noise_sigma: float = 0.0
    descriptor_dim: int = 16
    descriptor_noise_sigma: float = 0.01
    covis_keep_fraction: float = 1.0
    render_images: bool = False

    def intrinsics(self) -> CameraIntrinsics:
        return CameraIntrinsics(self.focal, (self.width - 1) / 2, (self.height - 1) / 2)


@dataclass
class Dataset:
    config: DatasetConfig
    intrinsics: CameraIntrinsics
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
    def width(self):
        return self.config.width

    @property
    def height(self):
        return self.config.height


def _base_descriptors(n_points, dim, seed):
    rng = np.random.default_rng([seed, 3])
    d = rng.normal(size=(n_points, dim))
    return d / np.linalg.norm(d, axis=1, keepdims=True)


def _observation_descriptors(base, obs, sigma, seed):
    d = base[obs.point_ids]
    if sigma > 0:
        rng = np.random.default_rng([seed, 4, int(obs.image_id)])
        d = d + rng.normal(scale=sigma, size=d.shape)
    return d


def build_dataset(cfg: DatasetConfig) -> Dataset:
    """Generate scene, trajectory, observations, descriptors, co-visibility
    and (optionally) renders, split into interleaved train/test views."""
    scene = gen_scene(
        cfg.seed,
        cfg.n_points,
        cfg.n_planes,
        cfg.half_extent,
        cfg.free_space_fraction,
    )
    intr = cfg.intrinsics()
    traj = gen_trajectory(
        scene,
        cfg.seed,
        cfg.n_images,
        intr,
        cfg.width,
        cfg.height,
        cfg.orbit_radius,
        cfg.radius_jitter,
        cfg.height_jitter,
        cfg.yaw_jitter_deg,
        cfg.pitch_jitter_deg,
        cfg.min_visible,
    )
    poses = dict(traj.entries)
    observations = {}
    for image_id, pose in traj.entries:
        rng = np.random.default_rng([cfg.seed, 2, image_id])
        observations[image_id] = observe(
            scene,
            pose,
            intr,
            cfg.width,
            cfg.height,
            cfg.pixel_noise_sigma,
            rng,
            image_id,
        )
    base = _base_descriptors(cfg.n_points, cfg.descriptor_dim, cfg.seed)
    for obs in observations.values():
        obs.descriptors = _observation_descriptors(
            base, obs, cfg.descriptor_noise_sigma, cfg.seed
        )
    covis = build_covis(observations)
    if cfg.covis_keep_fraction < 1.0:
        covis = sparsify_covis(covis, cfg.covis_keep_fraction, cfg.seed)
    images = {}
    if cfg.render_images:
        for image_id, pose in traj.entries:
            images[image_id] = render_image(scene, pose, intr, cfg.width, cfg.height)
    ids = traj.image_ids
    test_ids = [i for i in ids if cfg.test_every and (i % cfg.test_every == cfg.test_every - 1)]
    train_ids = [i for i in ids if i not in test_ids]
    return Dataset(
        config=cfg,
        intrinsics=intr,
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


def read_correspondence_file(path):
    """Parse `k x y X Y Z` lines; '#' starts a comment. Returns
    (point_ids, pixels, coords)."""
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
            ids.append(int(tok[0]))
        except ValueError:
            raise ParseError(f"bad point id {tok[0]!r}", path=path, line=ln, column=1)
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


def parse_7scenes_pose(path, world_to_camera: bool = False) -> PoseSE3:
    """Read a 4-line, 4-column whitespace pose matrix (the 7-Scenes text
    convention), interpreted camera-to-world by default; pass
    ``world_to_camera=True`` to invert on load. A rotation block that fails
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
    pose = PoseSE3(R, m[:3, 3])
    return pose.inverse() if world_to_camera else pose


def write_pgm(path, image: Image):
    """Binary 16-bit PGM (P5) or PPM (P6) with big-endian samples."""
    data = image.data
    arr = np.round(data * 65535.0).astype(">u2")
    if data.ndim == 3 and data.shape[2] == 1:
        arr = arr[:, :, 0]
    magic = b"P5" if arr.ndim == 2 else b"P6"
    header = b"%s\n%d %d\n65535\n" % (magic, image.width, image.height)
    Path(path).write_bytes(header + arr.tobytes())


def read_pgm(path) -> Image:
    """Read binary PGM/PPM written by ``write_pgm``; values scaled to [0, 1].
    Raises ``ParseError`` naming the path for an unreadable file, a bad
    header or truncated pixel data."""
    blob = _read(path, binary=True)
    parts = blob.split(b"\n", 3)
    if len(parts) < 4 or parts[0] not in (b"P5", b"P6"):
        raise ParseError("not a binary PGM/PPM file", path=path, line=1)
    try:
        w, h = (int(v) for v in parts[1].split())
        maxval = int(parts[2])
    except ValueError:
        raise ParseError("malformed PGM header", path=path, line=2)
    if w <= 0 or h <= 0 or not 0 < maxval < 65536:
        raise ParseError(f"bad PGM size {w}x{h} or maxval {maxval}", path=path, line=2)
    channels = 1 if parts[0] == b"P5" else 3
    dtype = np.dtype(">u2" if maxval > 255 else np.uint8)
    count = w * h * channels
    if len(parts[3]) < count * dtype.itemsize:
        raise ParseError(
            f"truncated pixel data: {len(parts[3])} bytes, "
            f"expected {count * dtype.itemsize}",
            path=path,
        )
    arr = np.frombuffer(parts[3], dtype=dtype, count=count)
    shape = (h, w) if channels == 1 else (h, w, 3)
    return Image(arr.reshape(shape).astype(np.float64) / maxval)


def save_dataset(ds: Dataset, out_dir) -> Path:
    """Persist the dataset directory layout: manifest JSON, per-image pose
    and observation text files, base descriptors, co-visibility, and any
    renders as 16-bit PGM. Loading reproduces the dataset bit-identically."""
    out = Path(out_dir)
    (out / "poses").mkdir(parents=True, exist_ok=True)
    (out / "observations").mkdir(exist_ok=True)
    if ds.images:
        (out / "images").mkdir(exist_ok=True)
    from dataclasses import asdict

    manifest = {
        "schema_version": SCHEMA_VERSION,
        "config": asdict(ds.config),
        "intrinsics": {"f": ds.intrinsics.f, "cx": ds.intrinsics.cx, "cy": ds.intrinsics.cy},
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
    with (out / "descriptors.txt").open("w") as fh:
        for k, row in enumerate(ds.descriptors):
            fh.write(str(k) + " " + " ".join(repr(float(v)) for v in row) + "\n")
    covis = {
        "point_to_images": {str(k): list(v) for k, v in ds.covis.point_to_images.items()},
        "corresponded": sorted(ds.covis.corresponded),
    }
    (out / "covis.json").write_text(json.dumps(covis) + "\n")
    for image_id, img in sorted(ds.images.items()):
        write_pgm(out / "images" / f"img_{image_id:04d}.pgm", img)
    return out


def _read_descriptors(path, n_points, dim):
    """``descriptors.txt``: one `k d1 ... d_dim` line per point id k."""
    base = np.zeros((n_points, dim))
    for ln, raw in enumerate(_read(path).splitlines(), start=1):
        tok = raw.split()
        if not tok:
            continue
        if len(tok) != dim + 1:
            raise ParseError(f"expected {dim + 1} fields, got {len(tok)}", path=path, line=ln)
        try:
            k = int(tok[0])
        except ValueError:
            raise ParseError(f"bad point id {tok[0]!r}", path=path, line=ln, column=1)
        if not 0 <= k < n_points:
            raise ParseError(f"point id {k} outside [0, {n_points})", path=path, line=ln, column=1)
        for col, t in enumerate(tok[1:], start=2):
            try:
                base[k, col - 2] = float(t)
            except ValueError:
                raise ParseError(f"bad number {t!r}", path=path, line=ln, column=col)
    return base


def _parsed(path, parse, data):
    """``parse(data)`` for data read from ``path``; a missing key or a wrong
    type or value becomes a ``ParseError`` naming the file."""
    try:
        return parse(data)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed contents ({exc!r})", path=path) from exc


def _manifest_fields(m):
    return (
        DatasetConfig(**m["config"]),
        CameraIntrinsics(**m["intrinsics"]),
        [int(i) for i in m["image_ids"]],
        [int(i) for i in m.get("has_images", [])],
        list(m["train_ids"]),
        list(m["test_ids"]),
        float(m["diameter"]),
    )


def load_dataset(in_dir) -> Dataset:
    """Inverse of ``save_dataset``. Raises ``ParseError`` naming the file
    when one is missing, unreadable or malformed."""
    src = Path(in_dir)
    manifest_path = src / "manifest.json"
    if not manifest_path.exists():
        raise ParseError("manifest.json not found", path=manifest_path)
    manifest = _read_json(manifest_path)
    version = _parsed(manifest_path, lambda m: m.get("schema_version"), manifest)
    if version != SCHEMA_VERSION:
        raise ParseError(f"unsupported schema version {version}", path=manifest_path)
    cfg, intr, image_ids, rendered, train_ids, test_ids, diameter = _parsed(
        manifest_path, _manifest_fields, manifest
    )
    observations, poses = {}, {}
    for image_id in image_ids:
        pose = parse_7scenes_pose(src / "poses" / f"pose_{image_id:04d}.txt")
        ids, pixels, coords = read_correspondence_file(
            src / "observations" / f"obs_{image_id:04d}.txt"
        )
        cam = pose.world_to_camera(coords)
        observations[image_id] = ImageObservations(
            image_id, ids, pixels, coords, cam[:, 2].copy()
        )
        poses[image_id] = pose
    base = _read_descriptors(src / "descriptors.txt", cfg.n_points, cfg.descriptor_dim)
    for obs in observations.values():
        obs.descriptors = _observation_descriptors(
            base, obs, cfg.descriptor_noise_sigma, cfg.seed
        )
    covis_path = src / "covis.json"
    covis = _parsed(
        covis_path,
        lambda c: CoVisibilityGraph(
            {int(k): tuple(v) for k, v in c["point_to_images"].items()},
            set(c["corresponded"]),
        ),
        _read_json(covis_path),
    )
    images = {}
    for image_id in rendered:
        images[image_id] = read_pgm(src / "images" / f"img_{image_id:04d}.pgm")
    return Dataset(
        config=cfg,
        intrinsics=intr,
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
