"""Scene-coordinate regressors and their training loop.

Two trainable models stand in for the dense coordinate network at desk
scale: ``PatchMLP`` maps per-point appearance descriptors to world
coordinates through a small tanh network, and ``FreeTable`` gives every
(image, point) observation its own free 3-vector, isolating the geometry of
each loss from any appearance coupling. Training is plain Adam, one image
per iteration, fully deterministic given the config seed.

Each model's parameters are a few contiguous float64 arrays (one flat
vector for ``PatchMLP``, views of the coordinate table cut between images
for ``FreeTable``) that ``adam_step`` updates in place. Adam is dense in its
results: every row's moments decay on every step, including the table rows
of images not drawn. An array whose moments are still exactly zero and
whose gradient is all zero is skipped, since its update is exactly zero.

Non-finite losses or gradients are counted and applied as-is, never
repaired: under the plain reprojection loss they are part of the behavior
under study.
"""

from __future__ import annotations

import csv
import enum
import json
import math
import time
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from anglereloc.geometry import (
    CameraIntrinsics,
    DepthStatus,
    PoseSE3,
    depth_statuses,
    ray_vectors,
)
from anglereloc.losses import (
    DimensionMismatchError,
    IndexMismatchError,
    LossConfig,
    PredictionGrid,
    angle_terms,
    build_multiview_index,
    multiview_image_loss,
    photometric_image_loss,
    reproj_terms,
)
from anglereloc.scenegen import ParseError


class ConfigError(Exception):
    """Inconsistent training configuration for the given dataset, or a
    checkpoint that cannot be loaded."""


class TrainMode(enum.Enum):
    REPROJ = "reproj"
    ANGLE = "angle"
    ANGLE_MULTI = "angle-multi"
    ANGLE_PHOTO = "angle-photo"
    CONST_DEPTH_REPROJ = "const-depth-reproj"


# ---------------------------------------------------------------------------
# Models
# ---------------------------------------------------------------------------


class PatchMLP:
    """Fully-connected tanh network from descriptors to 3D coordinates.

    Weights are stored as (fan_in, fan_out) matrices; hidden layers use
    tanh, the output layer is linear. Every weight matrix and bias is a view
    into one flat float64 vector ``params``, laid out W0, b0, W1, b1, ...;
    ``backward`` returns the gradient in the same layout, so Adam updates
    the whole network as one array.
    """

    kind = "patch_mlp"

    def __init__(self, weights, biases):
        weights = [np.asarray(w, dtype=np.float64) for w in weights]
        biases = [np.asarray(b, dtype=np.float64) for b in biases]
        chained = (
            len(weights) == len(biases)
            and all(w.ndim == 2 and b.shape == w.shape[1:] for w, b in zip(weights, biases))
            and all(w.shape[1] == nxt.shape[0] for w, nxt in zip(weights, weights[1:]))
        )
        if not chained:
            raise DimensionMismatchError(
                f"weights {[w.shape for w in weights]} and biases "
                f"{[b.shape for b in biases]} do not form a network"
            )
        if weights[-1].shape[1] != 3:
            raise DimensionMismatchError("output layer must produce 3 values")
        arrays = [a for pair in zip(weights, biases) for a in pair]
        stops = np.cumsum([a.size for a in arrays]).tolist()
        # (start, stop, shape) of W0, b0, W1, b1, ... in the flat vector
        self._layout = [(stop - a.size, stop, a.shape) for a, stop in zip(arrays, stops)]
        self.params = np.concatenate([a.ravel() for a in arrays])
        views = self._views(self.params)
        self.weights, self.biases = views[0::2], views[1::2]

    def _views(self, flat):
        """Views of ``flat`` shaped W0, b0, W1, b1, ..."""
        return [flat[start:stop].reshape(shape) for start, stop, shape in self._layout]

    @classmethod
    def init(cls, layer_sizes=(16, 64, 64, 3), seed=0):
        """Uniform [-0.5, 0.5] weights scaled by 1/sqrt(fan_in), zero biases."""
        rng = np.random.default_rng(seed)
        weights, biases = [], []
        for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
            weights.append(
                rng.uniform(-0.5, 0.5, size=(fan_in, fan_out)) / np.sqrt(fan_in)
            )
            biases.append(np.zeros(fan_out))
        return cls(weights, biases)

    @property
    def input_dim(self):
        return self.weights[0].shape[0]

    def forward(self, x):
        """Evaluate the network on (N, in) descriptors -> (N, 3)."""
        return self.forward_cached(x)[0]

    def forward_cached(self, x):
        """Forward pass keeping activations for the backward pass."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape[1] != self.input_dim:
            raise DimensionMismatchError(
                f"descriptor length {x.shape[1]} != input layer {self.input_dim}"
            )
        acts = [x]
        h = x
        for W, b in zip(self.weights[:-1], self.biases[:-1]):
            h = np.tanh(h @ W + b)
            acts.append(h)
        return h @ self.weights[-1] + self.biases[-1], acts

    def backward(self, acts, upstream):
        """Gradient of sum(upstream * output) w.r.t. ``params``.

        ``acts`` comes from ``forward_cached``; returns ``[grad]``, one flat
        vector in the layout of ``params`` (``param_list`` order).
        """
        grad = np.empty_like(self.params)
        views = self._views(grad)
        grads_w, grads_b = views[0::2], views[1::2]
        g = np.asarray(upstream, dtype=np.float64)
        grads_w[-1][...] = acts[-1].T @ g
        grads_b[-1][...] = g.sum(axis=0)
        g = g @ self.weights[-1].T
        for layer in range(len(self.weights) - 2, -1, -1):
            g = g * (1.0 - acts[layer + 1] ** 2)  # tanh'
            grads_w[layer][...] = acts[layer].T @ g
            grads_b[layer][...] = g.sum(axis=0)
            if layer > 0:
                g = g @ self.weights[layer].T
        return [grad]

    # training-loop interface -------------------------------------------------

    def param_list(self):
        return [self.params]

    def predict_image(self, dataset, image_id):
        obs = dataset.observations[image_id]
        y, acts = self.forward_cached(obs.descriptors)
        return y, acts

    def grads_for_image(self, ctx, dl_dy):
        return self.backward(ctx, dl_dy)

    def state_dict(self):
        return {
            "kind": self.kind,
            "layer_sizes": [self.weights[0].shape[0]]
            + [w.shape[1] for w in self.weights],
            "weights": [w.tolist() for w in self.weights],
            "biases": [b.tolist() for b in self.biases],
        }

    @classmethod
    def from_state(cls, state):
        return cls(state["weights"], state["biases"])


class FreeTable:
    """One free 3-vector per (image, point) observation; the ablation model
    with no appearance coupling at all.

    ``point_ids[i]`` holds image i's point ids in the dataset's order and
    ``rows[i]`` the table row of each, so an image's predictions are one
    gather.

    ``param_list`` hands Adam views of ``coords`` cut only between images:
    consecutive images grouped into runs of at most ``ADAM_BLOCK`` elements,
    a single larger image being a run of its own. A run no image has drawn
    yet keeps zero moments, which ``adam_step`` skips at the cost of one
    ``any()``.
    """

    kind = "free_table"

    def __init__(self, coords, point_ids, rows):
        self.coords = np.ascontiguousarray(coords, dtype=np.float64)
        self.point_ids = point_ids  # image_id -> (n,) point ids
        self.rows = rows  # image_id -> (n,) table rows
        self._runs = self._run_slices()
        # gradient buffer reused by grads_for_image, its views by run, and
        # its nonzero rows
        self._grad = None
        self._grad_runs = None
        self._grad_rows = None

    @classmethod
    def init(cls, dataset, seed=0):
        """Entries uniform in the scene bounding box expanded 2x about its
        center (bounding box taken over all ground-truth coordinates). Rows
        follow the images in id order, each image's rows contiguous."""
        rng = np.random.default_rng(seed)
        all_gt = np.concatenate([o.gt_coords for o in dataset.observations.values()])
        lo, hi = all_gt.min(axis=0), all_gt.max(axis=0)
        center, half = (lo + hi) / 2, (hi - lo) / 2
        point_ids, rows = {}, {}
        n_rows = 0
        for image_id in sorted(dataset.observations):
            ids = dataset.observations[image_id].point_ids
            point_ids[image_id] = np.array(ids)
            rows[image_id] = np.arange(n_rows, n_rows + len(ids))
            n_rows += len(ids)
        coords = rng.uniform(center - 2 * half, center + 2 * half, size=(n_rows, 3))
        return cls(coords, point_ids, rows)

    def rows_for_image(self, dataset, image_id):
        """Table rows of the image's observations, in the dataset's order.

        Raises ``IndexMismatchError`` when the table has no rows for the
        image (a view it was not built on) or was built on other point ids
        for it.
        """
        rows = self.rows.get(image_id)
        if rows is None:
            raise IndexMismatchError(f"FreeTable has no rows for image {image_id}")
        if not np.array_equal(
            self.point_ids[image_id], dataset.observations[image_id].point_ids
        ):
            raise IndexMismatchError(
                f"image {image_id}: the dataset's point ids differ from the FreeTable's"
            )
        return rows

    def _run_slices(self):
        """Row slices tiling the table, cut only at an image's first row and
        greedily grouped up to ``ADAM_BLOCK`` elements (3 per row)."""
        n_rows = len(self.coords)
        cuts = sorted({int(r.min()) for r in self.rows.values() if len(r)} - {0})
        starts = [0]
        for cut, stop in zip(cuts, cuts[1:] + [n_rows]):
            if 3 * (stop - starts[-1]) > ADAM_BLOCK:
                starts.append(cut)
        return [slice(a, b) for a, b in zip(starts, starts[1:] + [n_rows])]

    def param_list(self):
        return [self.coords[run] for run in self._runs]

    def predict_image(self, dataset, image_id):
        rows = self.rows_for_image(dataset, image_id)
        return self.coords[rows], rows

    def grads_for_image(self, ctx, dl_dy):
        """Table gradient: ``dl_dy`` at the rows ``ctx``, zero elsewhere, as
        views matching ``param_list``. The buffer is reused, so the next call
        overwrites it."""
        if self._grad is None:
            self._grad = np.zeros_like(self.coords)
            self._grad_runs = [self._grad[run] for run in self._runs]
        else:
            self._grad[self._grad_rows] = 0.0
        self._grad[ctx] = dl_dy
        self._grad_rows = ctx
        return self._grad_runs

    def state_dict(self):
        index = [
            [int(image_id), k, r]
            for image_id in sorted(self.rows)
            for k, r in zip(self.point_ids[image_id].tolist(), self.rows[image_id].tolist())
        ]
        return {"kind": self.kind, "coords": self.coords.tolist(), "index": index}

    @classmethod
    def from_state(cls, state):
        """Inverse of ``state_dict``. Each image's points take the order of
        its ``[image, point, row]`` triples: the dataset's order, which for
        ``scenegen.observe`` is ascending point id, the order of the
        ``(image, point)``-sorted triples of older checkpoints."""
        index = np.asarray(state["index"], dtype=np.int64).reshape(-1, 3)
        point_ids, rows = {}, {}
        for image_id in np.unique(index[:, 0]).tolist():
            sel = index[:, 0] == image_id
            point_ids[image_id] = index[sel, 1]
            rows[image_id] = index[sel, 2]
        return cls(np.array(state["coords"]), point_ids, rows)


class GtLookup:
    """Oracle pseudo-model: predicts the recorded ground-truth coordinate."""

    kind = "gt_lookup"

    def predict_image(self, dataset, image_id):
        return dataset.observations[image_id].gt_coords.copy(), None

    def param_list(self):
        return []

    def state_dict(self):
        return {"kind": self.kind}

    @classmethod
    def from_state(cls, state):
        return cls()


class ConstantModel:
    """Degenerate pseudo-model emitting one fixed coordinate everywhere."""

    kind = "constant"

    def __init__(self, value=(0.0, 0.0, 0.0)):
        self.value = np.asarray(value, dtype=np.float64)

    def predict_image(self, dataset, image_id):
        n = len(dataset.observations[image_id].point_ids)
        return np.tile(self.value, (n, 1)), None

    def param_list(self):
        return []

    def state_dict(self):
        return {"kind": self.kind, "value": self.value.tolist()}

    @classmethod
    def from_state(cls, state):
        return cls(state["value"])


MODEL_KINDS = {
    "patch_mlp": PatchMLP,
    "free_table": FreeTable,
    "gt_lookup": GtLookup,
    "constant": ConstantModel,
}


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


# elements per pass of adam_step: a block of each of p, g, m, v and the two
# scratch buffers (6 x 128 KiB) stay in cache across the pass's operations
ADAM_BLOCK = 16384


@dataclass
class AdamState:
    """First/second moment accumulators, the step counter, and the scratch
    space of ``adam_step``. ``zero[i]`` is true while array i's moments are
    all exactly +0.0; ``adam_step`` sets it from the moments on first use."""

    m: list
    v: list
    step: int = 0
    lr: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    work: np.ndarray | None = field(default=None, repr=False)
    zero: list | None = field(default=None, repr=False)

    @classmethod
    def for_params(cls, params, lr=1e-4, beta1=0.9, beta2=0.999, eps=1e-8):
        return cls(
            m=[np.zeros_like(p) for p in params],
            v=[np.zeros_like(p) for p in params],
            lr=lr,
            beta1=beta1,
            beta2=beta2,
            eps=eps,
        )


def _flat_view(a):
    """1-D view of a C-contiguous array; refuses rather than copy, since the
    caller writes through it."""
    if not a.flags.c_contiguous:
        raise ValueError("adam_step updates in place: arrays must be C-contiguous")
    return a.reshape(-1)


def _all_positive_zero(a):
    """True when every element of the float64 array is +0.0 (not -0.0)."""
    return not _flat_view(a).view(np.uint64).any()


def adam_step(state: AdamState, params, grads):
    """One Adam update of ``params`` and the state's moments, in place.

    Every element goes through the operations of
    ``m = b1 m + (1 - b1) g``, ``v = b2 v + (1 - b2) g^2``,
    ``p = p - lr (m / bc1) / (sqrt(v / bc2) + eps)`` in that order, so the
    results equal those of the allocating form bit for bit. Each array is
    swept in blocks of ``ADAM_BLOCK`` elements, through two scratch buffers
    kept in ``state.work``, so one element makes one trip from memory.
    Parameters and moments must be C-contiguous float64 arrays. Non-finite
    gradients propagate into the moments and parameters.

    An array whose moments are all +0.0 (``state.zero``) and whose gradient
    is all zero, signed zeros included, is skipped: its moments would stay
    +0.0 and its update would be exactly ``p - 0.0``. That holds for
    ``0 < lr < inf``, ``0 < beta1 < 1``, ``0 <= beta2 < 1`` and ``eps > 0``;
    outside those ranges every array is swept. Its first nonzero gradient
    (NaN and +-inf included), or any other sweep, clears the flag for good.
    """
    if len(params) != len(grads) or any(
        p.shape != g.shape for p, g in zip(params, grads)
    ):
        raise DimensionMismatchError("parameter/gradient shapes disagree")
    state.step += 1
    t = state.step
    b1, b2, lr, eps = state.beta1, state.beta2, state.lr, state.eps
    bc1 = 1.0 - b1**t
    bc2 = 1.0 - b2**t
    if state.zero is None:
        state.zero = [
            _all_positive_zero(m) and _all_positive_zero(v) for m, v in zip(state.m, state.v)
        ]
    skippable = 0.0 < lr < math.inf and 0.0 < b1 < 1.0 and 0.0 <= b2 < 1.0 and eps > 0.0
    block = min(ADAM_BLOCK, max((p.size for p in params), default=0))
    if state.work is None or state.work.shape[1] < block:
        state.work = np.empty((2, block))
    for i, (p, g, m, v) in enumerate(zip(params, grads, state.m, state.v)):
        if state.zero[i]:
            if skippable and not g.any():
                continue
            state.zero[i] = False
        p, m, v = _flat_view(p), _flat_view(m), _flat_view(v)
        g = np.ravel(g)
        for start in range(0, p.size, ADAM_BLOCK):
            blk = slice(start, start + ADAM_BLOCK)
            pb, gb, mb, vb = p[blk], g[blk], m[blk], v[blk]
            a, b = state.work[:, : pb.size]
            np.multiply(mb, b1, out=mb)
            np.multiply(gb, 1 - b1, out=a)
            np.add(mb, a, out=mb)
            np.multiply(vb, b2, out=vb)
            np.multiply(gb, gb, out=a)
            np.multiply(a, 1 - b2, out=a)
            np.add(vb, a, out=vb)
            np.divide(vb, bc2, out=a)
            np.sqrt(a, out=a)
            np.add(a, eps, out=a)  # sqrt(v_hat) + eps
            np.divide(mb, bc1, out=b)
            np.multiply(b, lr, out=b)
            np.divide(b, a, out=b)
            np.subtract(pb, b, out=pb)


# ---------------------------------------------------------------------------
# Constant-depth initialization targets
# ---------------------------------------------------------------------------


def constant_depth_targets(
    intr: CameraIntrinsics, pose: PoseSE3, observations, d: float
):
    """Dummy scene coordinates at camera-frame depth ``d`` along each
    observation's viewing ray; the initialization baseline's regression
    targets."""
    if not d > 0:
        raise ValueError("constant depth d must be positive")
    rays = ray_vectors(intr, observations.pixels)
    cam = rays * (d / intr.f)  # third component becomes exactly d
    return pose.camera_to_world(cam)


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


@dataclass
class TrainConfig:
    """Training settings. Every loss weight and guard lives in ``loss``,
    validated when that ``LossConfig`` is built."""

    mode: str = TrainMode.ANGLE.value
    iterations: int = 20000
    lr: float = 1e-4
    lr_halving_fractions: tuple = (0.6, 0.8, 0.9)
    loss: LossConfig = field(default_factory=LossConfig)
    const_depth: float = 3.0
    init_fraction: float = 0.25
    seed: int = 0
    checkpoint_every: int = 500
    hidden_sizes: tuple = (64, 64)
    photo_neighbor_max_offset: int = 10

    def __post_init__(self):
        if self.iterations <= 0:
            raise ConfigError("iterations must be positive")
        if self.mode == TrainMode.CONST_DEPTH_REPROJ.value and not self.const_depth > 0:
            raise ConfigError("const_depth must be positive for the init mode")
        TrainMode(self.mode)  # validates the mode string


@dataclass
class TrainRecord:
    iteration: int
    loss: float
    behind_frac: float
    nonfinite_events: int
    median_err: float
    seconds: float


@dataclass
class TrainLog:
    records: list = field(default_factory=list)

    CSV_COLUMNS = ("iter", "loss", "behind_frac", "nonfinite_events", "median_err", "seconds")

    def append(self, rec: TrainRecord):
        if self.records and rec.iteration <= self.records[-1].iteration:
            raise ValueError("iteration numbers must increase")
        self.records.append(rec)

    @property
    def final(self) -> TrainRecord:
        return self.records[-1]

    def to_csv(self, path):
        with Path(path).open("w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(self.CSV_COLUMNS)
            for r in self.records:
                w.writerow(
                    [
                        r.iteration,
                        repr(float(r.loss)),
                        repr(float(r.behind_frac)),
                        r.nonfinite_events,
                        repr(float(r.median_err)),
                        f"{r.seconds:.3f}",
                    ]
                )

    @classmethod
    def from_csv(cls, path):
        """Inverse of ``to_csv``. Raises ``ParseError`` naming ``path`` for an
        unreadable file or a missing column, and also the line for a bad
        number or a non-increasing iteration."""
        log = cls()
        try:
            text = Path(path).read_text()
        except (OSError, UnicodeDecodeError) as exc:
            raise ParseError(f"cannot read file ({exc})", path=path) from exc
        reader = csv.DictReader(text.splitlines())
        missing = [c for c in cls.CSV_COLUMNS if c not in (reader.fieldnames or ())]
        if missing:
            raise ParseError(f"missing columns {missing}", path=path, line=1)
        for row in reader:
            try:
                log.append(
                    TrainRecord(
                        int(row["iter"]),
                        float(row["loss"]),
                        float(row["behind_frac"]),
                        int(row["nonfinite_events"]),
                        float(row["median_err"]),
                        float(row["seconds"]),
                    )
                )
            except (TypeError, ValueError) as exc:
                raise ParseError(str(exc), path=path, line=reader.line_num) from exc
        return log


def lr_at(cfg: TrainConfig, iteration: int) -> float:
    """Piecewise-constant schedule: halve at each configured fraction."""
    frac = iteration / cfg.iterations
    halvings = sum(1 for f in cfg.lr_halving_fractions if frac >= f)
    return cfg.lr * (0.5**halvings)


def _photo_neighbor(train_ids, image_id, max_offset, rng):
    cands = [j for j in train_ids if j != image_id and abs(j - image_id) <= max_offset]
    if not cands:
        return None
    return cands[int(rng.integers(len(cands)))]


def train(dataset, model_kind: str, cfg: TrainConfig):
    """Optimize a model on the dataset's training views under ``cfg.mode``.

    One training image per iteration (drawn uniformly with the config seed),
    per-point gradients from the mode's loss accumulated into the model by
    Adam. Returns ``(model, TrainLog)``; the log records loss, behind-camera
    fraction, the running count of non-finite loss/gradient events, the
    median 3D coordinate error over the training views, and wall time.
    """
    mode = TrainMode(cfg.mode)
    if mode is TrainMode.ANGLE_PHOTO and not dataset.images:
        raise ConfigError("angle-photo training needs rendered images")
    if model_kind == "patch_mlp":
        sizes = (dataset.config.descriptor_dim, *cfg.hidden_sizes, 3)
        model = PatchMLP.init(sizes, seed=[cfg.seed, 12])
    elif model_kind == "free_table":
        model = FreeTable.init(dataset, seed=[cfg.seed, 12])
    else:
        raise ConfigError(f"model kind {model_kind!r} is not trainable")
    params = model.param_list()
    adam = AdamState.for_params(params, lr=cfg.lr)
    train_ids = list(dataset.train_ids)
    intr, poses, observations = dataset.intrinsics, dataset.poses, dataset.observations
    order_rng = np.random.default_rng([cfg.seed, 11])
    image_order = order_rng.integers(0, len(train_ids), size=cfg.iterations)
    multiview = (
        build_multiview_index(poses, observations, dataset.covis)
        if mode is TrainMode.ANGLE_MULTI
        else None
    )

    # One loss per mode, each mapping (iteration, image id, predictions) to
    # per-point (values, grads, statuses). The kernels are looked up as
    # module globals on every call, so wrappers installed on them see every call.
    def reproj(t, image_id, preds):
        pixels = observations[image_id].pixels
        return reproj_terms(intr, poses[image_id], preds, pixels)[:3]

    def angle(t, image_id, preds):
        pixels = observations[image_id].pixels
        return angle_terms(intr, poses[image_id], preds, pixels, cfg.loss.epsilon_norm)[:3]

    def angle_multi(t, image_id, preds):
        rep = multiview_image_loss(
            intr,
            multiview,
            image_id,
            PredictionGrid(observations[image_id].point_ids, preds),
            cfg.loss,
            np.random.default_rng([cfg.seed, t, image_id]),
        )
        return rep.values, rep.grads, rep.statuses

    def angle_photo(t, image_id, preds):
        values, grads, statuses = angle(t, image_id, preds)
        nb_rng = np.random.default_rng([cfg.seed, t, image_id])
        j = _photo_neighbor(train_ids, image_id, cfg.photo_neighbor_max_offset, nb_rng)
        if j is not None:
            obs = observations[image_id]
            photo = photometric_image_loss(
                intr,
                poses[j],
                PredictionGrid(obs.point_ids, preds),
                obs,
                dataset.images[image_id].data,
                dataset.images[j].data,
                cfg.loss,
            )
            values = values + cfg.loss.lambda_photo * photo.values
            grads = grads + cfg.loss.lambda_photo * photo.grads
        return values, grads, statuses

    init_cutoff = int(cfg.init_fraction * cfg.iterations)

    def const_depth_reproj(t, image_id, preds):
        """Regress onto constant-depth targets, then the plain reprojection
        loss from ``init_cutoff`` on."""
        if t >= init_cutoff:
            return reproj(t, image_id, preds)
        pose = poses[image_id]
        targets = constant_depth_targets(intr, pose, observations[image_id], cfg.const_depth)
        diff = preds - targets
        statuses = depth_statuses(pose.world_to_camera(preds)[:, 2])
        return np.sum(diff * diff, axis=1), 2.0 * diff, statuses

    image_loss = {
        TrainMode.REPROJ: reproj,
        TrainMode.ANGLE: angle,
        TrainMode.ANGLE_MULTI: angle_multi,
        TrainMode.ANGLE_PHOTO: angle_photo,
        TrainMode.CONST_DEPTH_REPROJ: const_depth_reproj,
    }[mode]

    log = TrainLog()
    nonfinite_events = 0
    behind_frac = 0.0
    total = float("nan")
    start = time.perf_counter()

    def record(iteration):
        med, _ = evaluate_coords(model, dataset, train_ids)
        log.append(
            TrainRecord(
                iteration,
                total,
                behind_frac,
                nonfinite_events,
                med,
                time.perf_counter() - start,
            )
        )

    for t in range(cfg.iterations):
        image_id = train_ids[int(image_order[t])]
        preds, ctx = model.predict_image(dataset, image_id)
        values, grads, statuses = image_loss(t, image_id, preds)

        finite_vals = np.isfinite(values)
        total = float(np.sum(values[finite_vals]))
        behind_frac = float(np.mean(statuses == int(DepthStatus.BEHIND)))
        if not (np.all(finite_vals) and np.all(np.isfinite(grads))):
            nonfinite_events += 1

        model_grads = model.grads_for_image(ctx, grads)
        adam.lr = lr_at(cfg, t)
        adam_step(adam, params, model_grads)

        if cfg.checkpoint_every and (t + 1) % cfg.checkpoint_every == 0:
            record(t + 1)

    if not log.records or log.final.iteration != cfg.iterations:
        record(cfg.iterations)
    return model, log


def evaluate_coords(model, dataset, image_ids=None):
    """(median, mean) 3D error of predictions against ground truth over the
    observations of the given images (all images by default)."""
    ids = list(image_ids) if image_ids is not None else sorted(dataset.observations)
    errs = []
    for image_id in ids:
        preds, _ = model.predict_image(dataset, image_id)
        gt = dataset.observations[image_id].gt_coords
        errs.append(np.linalg.norm(preds - gt, axis=1))
    errs = np.concatenate(errs)
    with np.errstate(invalid="ignore"):
        return float(np.median(errs)), float(np.mean(errs))


def predict_correspondences(model, dataset, image_id):
    """(point_ids, pixels, predicted coords) for one image: the input to the
    pose solver."""
    obs = dataset.observations[image_id]
    preds, _ = model.predict_image(dataset, image_id)
    return obs.point_ids.copy(), obs.pixels.copy(), preds


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

CHECKPOINT_VERSION = 2


def save_checkpoint(path, model, cfg: TrainConfig):
    blob = {
        "schema_version": CHECKPOINT_VERSION,
        "train_config": asdict(cfg),
        "model": model.state_dict(),
    }
    Path(path).write_text(json.dumps(blob) + "\n")


def load_checkpoint(path):
    """Read a checkpoint written by ``save_checkpoint``: ``(model, TrainConfig)``.

    Raises ``ConfigError`` naming ``path`` when the file cannot be read or
    parsed, or does not hold the current schema version, a known model kind
    with its state, and exactly the ``TrainConfig`` fields with exactly the
    ``LossConfig`` fields under ``loss``.
    """
    try:
        blob = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:  # ValueError covers JSONDecodeError
        raise ConfigError(f"{path}: cannot read checkpoint: {exc}") from exc
    try:
        return _checkpoint_contents(blob)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    except (KeyError, IndexError, TypeError, ValueError, DimensionMismatchError) as exc:
        raise ConfigError(f"{path}: malformed checkpoint: {exc!r}") from exc


def _check_keys(what, raw, cls):
    if not isinstance(raw, dict):
        raise ConfigError(f"{what} is not a JSON object")
    names = {f.name for f in fields(cls)}
    if set(raw) != names:
        raise ConfigError(
            f"{what} keys: unknown {sorted(set(raw) - names)}, "
            f"missing {sorted(names - set(raw))}"
        )


def _checkpoint_contents(blob):
    if not isinstance(blob, dict):
        raise ConfigError("checkpoint is not a JSON object")
    if blob.get("schema_version") != CHECKPOINT_VERSION:
        raise ConfigError(f"unsupported checkpoint version {blob.get('schema_version')}")
    state, raw = blob.get("model"), blob.get("train_config")
    if not isinstance(state, dict) or not isinstance(raw, dict):
        raise ConfigError("checkpoint needs 'model' and 'train_config' objects")
    kind = state.get("kind")
    if kind not in MODEL_KINDS:
        raise ConfigError(f"unknown model kind {kind!r} in checkpoint")
    _check_keys("train_config", raw, TrainConfig)
    _check_keys("train_config.loss", raw["loss"], LossConfig)
    model = MODEL_KINDS[kind].from_state(state)
    raw = dict(
        raw,
        lr_halving_fractions=tuple(raw["lr_halving_fractions"]),
        loss=LossConfig(**raw["loss"]),
        hidden_sizes=tuple(raw["hidden_sizes"]),
    )
    return model, TrainConfig(**raw)
