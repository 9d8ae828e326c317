"""Scene-coordinate regressors and their training loop.

Two trainable models stand in for the dense coordinate network at desk
scale: ``PatchMLP`` maps per-point appearance descriptors to world
coordinates through a small tanh network, and ``FreeTable`` gives every
(image, point) observation its own free 3-vector, isolating the geometry of
each loss from any appearance coupling. Training is plain Adam with the
fixed betas ``ADAM_BETA1``, ``ADAM_BETA2`` and ``ADAM_EPS`` (only the
learning rate is set), one image per iteration, fully deterministic given
the config seed.

Each model's parameters are a few contiguous float64 arrays (one flat
vector for ``PatchMLP``, views of the coordinate table cut between images
for ``FreeTable``) that ``adam_step`` updates in place. Adam is dense in its
results: every row's moments decay on every step, including the table rows
of images not drawn. A model's gradient list may hold ``None`` for an array
the drawn image does not touch; ``adam_step`` reads it as an all +0.0
gradient with the same bits and never builds that array. An array whose
moments are still exactly zero and whose gradient is all zero is skipped,
since its update is exactly zero.

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
import warnings
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from anglereloc.geometry import (
    CameraIntrinsics,
    PoseSE3,
    depth_statuses,
    ray_vectors,
)
from anglereloc.losses import (  # ConfigError is re-exported here
    ConfigError,
    DimensionMismatchError,
    IndexMismatchError,
    LossConfig,
    LossReport,
    _row_norms,
    angle_terms,
    build_multiview_index,
    multiview_image_loss,
    photo_target,
    photometric_image_loss,
    reproj_terms,
)
from anglereloc.scenegen import DESCRIPTOR_DIM, ParseError, is_count


class PhotometricInactiveWarning(UserWarning):
    """An ``angle-photo`` run ended with no valid photometric point, so it
    trained as plain ``angle``."""


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
    """One free 3-vector per (image, point) observation of a train view; the
    ablation model with no appearance coupling at all. A view without rows,
    such as a held-out one, has no prediction: asking for one raises
    ``IndexMismatchError``.

    ``point_ids[i]`` holds image i's point ids in the dataset's order. The
    table is laid out image by image in id order, each image's rows in the
    order of its point ids, so an image's rows are one slice of the table
    (``predict_image``'s context) and its predictions are one slice copy.

    ``param_list`` hands Adam views of ``coords`` cut only between images:
    consecutive images grouped into runs of at most ``ADAM_BLOCK`` elements,
    a single larger image being a run of its own. ``grads_for_image``
    returns a gradient for the one run that holds the image and ``None`` for
    every other run, which ``adam_step`` reads as an all +0.0 gradient. A
    run no image has drawn yet keeps zero moments, which ``adam_step``
    skips.
    """

    kind = "free_table"

    def __init__(self, coords, point_ids):
        """``coords`` holds the rows of the images of ``point_ids`` in the
        table's layout: image by image in id order, one row per point id."""
        self.coords = np.ascontiguousarray(coords, dtype=np.float64)
        self.point_ids = point_ids  # image_id -> (n,) point ids
        self._spans = {}  # image_id -> slice of its table rows
        stop = 0
        for image_id in sorted(point_ids):
            start, stop = stop, stop + len(point_ids[image_id])
            self._spans[image_id] = slice(start, stop)
        if self.coords.shape != (stop, 3):
            raise DimensionMismatchError(
                f"FreeTable coords {self.coords.shape} do not hold {stop} rows of 3"
            )
        # Adam runs, and the run holding each image's first row
        self._runs, self._run_at = self._run_slices()
        # gradient buffer reused by grads_for_image, its views by run, and
        # the slice of its nonzero rows
        self._grad = None
        self._grad_runs = None
        self._grad_span = slice(0, 0)

    @classmethod
    def init(cls, dataset, seed=0):
        """Entries uniform in the scene bounding box expanded 2x about its
        center (bounding box taken over all ground-truth coordinates). Rows
        belong to the train views. One draw still covers every view's
        observations in id order and the train views keep their rows of it,
        so a train row's initial value does not depend on the held-out views
        being left out."""
        rng = np.random.default_rng(seed)
        observations = dataset.observations
        lo, hi = _column_bounds([o.gt_coords for o in observations.values()])
        center, half = (lo + hi) / 2, (hi - lo) / 2
        low, high = center - 2 * half, center + 2 * half
        image_ids = sorted(observations)
        train_ids = set(dataset.train_ids)
        point_ids = {
            i: np.array(observations[i].point_ids) for i in image_ids if i in train_ids
        }
        # rng.uniform(low, high) is low + (high - low) * rng.random(), element
        # by element: draw every view's rows in id order, keep the train
        # views' rows and map them, a column at a time as in _column_bounds
        coords = np.empty((sum(len(ids) for ids in point_ids.values()), 3))
        stop = 0
        for image_id in image_ids:
            if image_id in point_ids:
                start, stop = stop, stop + len(point_ids[image_id])
                rng.random(out=coords[start:stop])
            else:
                rng.random((len(observations[image_id].point_ids), 3))
        for k in range(3):
            column = coords[:, k]
            column *= high[k] - low[k]
            column += low[k]
        return cls(coords, point_ids)

    def rows_for_image(self, dataset, image_id):
        """The slice of table rows of the image's observations, in the
        dataset's order.

        Raises ``IndexMismatchError`` when the table has no rows for the
        image (a held-out view, or one it was not built on) or was built on
        other point ids for it.
        """
        rows = self._spans.get(image_id)
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
        greedily grouped up to ``ADAM_BLOCK`` elements (3 per row), and the
        index of the slice holding each image's first row."""
        n_rows = len(self.coords)
        firsts = sorted({s.start for s in self._spans.values() if s.stop > s.start})
        starts, run_at = [0], {}
        for first, stop in zip(firsts, firsts[1:] + [n_rows]):
            if first > 0 and 3 * (stop - starts[-1]) > ADAM_BLOCK:
                starts.append(first)
            run_at[first] = len(starts) - 1
        return [slice(a, b) for a, b in zip(starts, starts[1:] + [n_rows])], run_at

    def param_list(self):
        return [self.coords[run] for run in self._runs]

    def predict_image(self, dataset, image_id):
        rows = self.rows_for_image(dataset, image_id)
        return self.coords[rows].copy(), rows

    def grads_for_image(self, ctx, dl_dy):
        """Table gradient, one entry per ``param_list`` run: ``dl_dy`` at the
        row slice ``ctx`` that ``predict_image`` returned and +0.0 elsewhere.
        The run holding those rows gets a view of a reused buffer, which the
        next call overwrites; every other run gets ``None``."""
        if self._grad is None:
            self._grad = np.zeros_like(self.coords)
            self._grad_runs = [self._grad[run] for run in self._runs]
        else:
            self._grad[self._grad_span] = 0.0
        grads = [None] * len(self._runs)
        if ctx.stop > ctx.start:
            self._grad_span = ctx
            self._grad[ctx] = dl_dy
            k = self._run_at[ctx.start]
            grads[k] = self._grad_runs[k]
        return grads

    def state_dict(self):
        index = [
            [int(image_id), k, r]
            for image_id, rows in sorted(self._spans.items())
            for k, r in zip(self.point_ids[image_id].tolist(), range(rows.start, rows.stop))
        ]
        return {"kind": self.kind, "coords": self.coords.tolist(), "index": index}

    @classmethod
    def from_state(cls, state):
        """Inverse of ``state_dict``, laid out as ``init`` lays a table out
        whatever the row numbers of the index. Each image's points take the
        order of its ``[image, point, row]`` triples: the dataset's order,
        which for ``scenegen.observe`` is ascending point id, the order of
        the ``(image, point)``-sorted triples of older checkpoints. A row
        outside the table, or an index that does not use every row exactly
        once, raises ``ConfigError``."""
        coords = np.array(state["coords"])
        index = np.asarray(state["index"], dtype=np.int64).reshape(-1, 3)
        bad = (index[:, 2] < 0) | (index[:, 2] >= len(coords))
        if bad.any():
            raise ConfigError(
                f"FreeTable index row {index[bad][0, 2]} outside [0, {len(coords)})"
            )
        uses = np.bincount(index[:, 2], minlength=len(coords))
        if (uses != 1).any():
            row = int(np.flatnonzero(uses != 1)[0])
            raise ConfigError(
                f"FreeTable index uses row {row} {uses[row]} times; every row must be used once"
            )
        index = index[np.argsort(index[:, 0], kind="stable")]
        image_ids, firsts = np.unique(index[:, 0], return_index=True)
        ids = np.split(index[:, 1].copy(), firsts[1:])
        return cls(coords[index[:, 2]], dict(zip(image_ids.tolist(), ids)))


def _column_bounds(arrays):
    """Column minima and maxima over the rows of (n_i, 3) arrays, one column
    at a time: numpy reduces or broadcasts over an (n, 3) array 3 elements at
    a time, several times slower at 100k rows. The joined rows live only in
    this call, so ``FreeTable.init`` frees them before it draws the table."""
    rows = np.concatenate(arrays)
    return (
        np.array([rows[:, k].min() for k in range(3)]),
        np.array([rows[:, k].max() for k in range(3)]),
    )


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


MODEL_KINDS = {
    "patch_mlp": PatchMLP,
    "free_table": FreeTable,
    "gt_lookup": GtLookup,
}


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


# elements per pass of adam_step: a block of each of p, g, m, v and the two
# scratch buffers (6 x 128 KiB) stay in cache across the pass's operations
ADAM_BLOCK = 16384
# Adam's moment decay rates and the term that keeps its denominator positive
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    """First/second moment accumulators, the step counter, the learning
    rate, and the scratch space of ``adam_step``. ``zero[i]`` is true while
    array i's moments are all exactly +0.0; ``adam_step`` sets it from the
    moments on first use."""

    m: list
    v: list
    step: int = 0
    lr: float = 1e-4
    work: np.ndarray | None = field(default=None, repr=False)
    zero: list | None = field(default=None, repr=False)

    @classmethod
    def for_params(cls, params, lr=1e-4):
        return cls(
            m=[np.zeros_like(p) for p in params],
            v=[np.zeros_like(p) for p in params],
            lr=lr,
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
    ``p = p - lr (m / bc1) / (sqrt(v / bc2) + eps)`` in that order, with
    ``b1``, ``b2`` and ``eps`` the constants ``ADAM_BETA1``, ``ADAM_BETA2``
    and ``ADAM_EPS``, so the results equal those of the allocating form bit
    for bit. Each array is swept in blocks of ``ADAM_BLOCK`` elements,
    through two scratch buffers kept in ``state.work``, so one element makes
    one trip from memory. Parameters and moments must be C-contiguous
    float64 arrays. Non-finite gradients propagate into the moments and
    parameters.

    A gradient of ``None`` stands for an all +0.0 array of its parameter's
    shape, and gives the same bits without building it: with ``g = +0.0``
    the terms ``(1 - b1) g`` and ``(1 - b2) g^2`` are +0.0, so the moments
    become ``b1 m + 0.0`` and ``b2 v + 0.0``. The add is kept: it turns
    -0.0 moments into +0.0, as the full form does.

    An array whose moments are all +0.0 (``state.zero``) and whose gradient
    is all zero, signed zeros included, is skipped: its moments would stay
    +0.0 and its update would be exactly ``p - 0.0``. That holds for
    ``0 < lr < inf``; at any other learning rate every array is swept. Its
    first nonzero gradient (NaN and +-inf included), or any other sweep,
    clears the flag for good.
    """
    if len(params) != len(grads) or any(
        g is not None and p.shape != g.shape for p, g in zip(params, grads)
    ):
        raise DimensionMismatchError("parameter/gradient shapes disagree")
    b1, b2, lr, eps = ADAM_BETA1, ADAM_BETA2, state.lr, ADAM_EPS
    state.step += 1
    t = state.step
    bc1 = 1.0 - b1**t
    bc2 = 1.0 - b2**t
    if state.zero is None:
        state.zero = [
            _all_positive_zero(m) and _all_positive_zero(v) for m, v in zip(state.m, state.v)
        ]
    skippable = 0.0 < lr < math.inf
    block = min(ADAM_BLOCK, max((p.size for p in params), default=0))
    if state.work is None or state.work.shape[1] < block:
        state.work = np.empty((2, block))
    for i, (p, g, m, v) in enumerate(zip(params, grads, state.m, state.v)):
        if state.zero[i]:
            if skippable and (g is None or not g.any()):
                continue
            state.zero[i] = False
        if g is not None:
            g = np.ravel(g)
        p, m, v = _flat_view(p), _flat_view(m), _flat_view(v)
        for start in range(0, p.size, ADAM_BLOCK):
            blk = slice(start, start + ADAM_BLOCK)
            pb, mb, vb = p[blk], m[blk], v[blk]
            a, b = state.work[:, : pb.size]
            np.multiply(mb, b1, out=mb)
            if g is None:
                np.add(mb, 0.0, out=mb)  # the +0.0 terms of a +0.0 gradient
                np.multiply(vb, b2, out=vb)
                np.add(vb, 0.0, out=vb)
            else:
                gb = g[blk]
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
    validated when that ``LossConfig`` is built. Values that would break a
    run or silently change it raise ``ConfigError`` naming the field: the
    counts (``seed``, ``iterations``, ``checkpoint_every``,
    ``photo_neighbor_max_offset``) must be integers, not bools or floats,
    ``checkpoint_every`` 0 records only the end, and
    ``photo_neighbor_max_offset`` must leave each view a neighbor id."""

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
        # written so that NaN fails every rule
        for name, ok, rule in (
            ("seed", is_count(self.seed, 0), "an integer >= 0"),
            ("iterations", is_count(self.iterations, 1), "an integer > 0"),
            ("lr", 0 < self.lr < math.inf, "finite and > 0"),
            ("init_fraction", 0 <= self.init_fraction <= 1, "in [0, 1]"),
            ("checkpoint_every", is_count(self.checkpoint_every, 0), "an integer >= 0"),
            ("hidden_sizes", all(is_count(n, 1) for n in self.hidden_sizes), "integers > 0"),
            (
                "photo_neighbor_max_offset",
                is_count(self.photo_neighbor_max_offset, 1),
                "an integer > 0",
            ),
        ):
            if not ok:
                raise ConfigError(f"{name} must be {rule}, got {getattr(self, name)!r}")
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


def _photo_setup(dataset, train_ids, max_offset):
    """Each train view's photometric target and its neighbor candidates: the
    other train views within ``max_offset`` ids, in ``train_ids`` order.
    Raises ``ConfigError`` naming the first train view without a render."""
    missing = [i for i in train_ids if i not in dataset.images]
    if missing:
        raise ConfigError(
            f"angle-photo training needs rendered images; {len(missing)} train "
            f"view(s) have none, the first is view {missing[0]}"
        )
    targets, neighbors = {}, {}
    for i in train_ids:
        targets[i] = photo_target(dataset.observations[i], dataset.images[i].data)
        neighbors[i] = [j for j in train_ids if j != i and abs(j - i) <= max_offset]
    return targets, neighbors


def train(dataset, model_kind: str, cfg: TrainConfig):
    """Optimize a model on the dataset's training views under ``cfg.mode``.

    One training image per iteration (drawn uniformly with the config seed),
    per-point gradients from the mode's loss accumulated into the model by
    Adam. Each mode's loss returns the image's ``LossReport``, and the loop
    reads its diagnostics from it: ``total``, ``behind_frac`` and
    ``nonfinite``, and for ``angle-photo`` the photometric ``valid_mask``.
    Returns ``(model, TrainLog)``; the log records the last loss and
    behind-camera fraction, the running count of iterations with a
    non-finite loss or gradient, the median 3D coordinate error over the
    training views, and wall time.
    ``angle-multi`` and ``angle-photo`` draw their neighbor views from the
    train views only, so no held-out view's pose or pixels enter training.
    ``angle-photo`` samples every train view's photometric target once,
    before the loop, and warns with ``PhotometricInactiveWarning`` when no
    photometric point was valid in the whole run.
    """
    mode = TrainMode(cfg.mode)
    if model_kind == "patch_mlp":
        sizes = (DESCRIPTOR_DIM, *cfg.hidden_sizes, 3)
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
        build_multiview_index(
            poses, {i: observations[i] for i in train_ids}, dataset.covis.corresponded
        )
        if mode is TrainMode.ANGLE_MULTI
        else None
    )
    photo_targets, photo_neighbors = (
        _photo_setup(dataset, train_ids, cfg.photo_neighbor_max_offset)
        if mode is TrainMode.ANGLE_PHOTO
        else ({}, {})
    )

    # One loss per mode, each mapping (iteration, image id, predictions) to
    # the image's LossReport. The kernels are looked up as module globals on
    # every call, so wrappers installed on them see every call.
    def reproj(t, image_id, preds):
        return reproj_terms(intr, poses[image_id], preds, observations[image_id].pixels)

    def angle(t, image_id, preds):
        pixels = observations[image_id].pixels
        return angle_terms(intr, poses[image_id], preds, pixels, cfg.loss.epsilon_norm)

    def angle_multi(t, image_id, preds):
        rng = np.random.default_rng([cfg.seed, t, image_id])
        return multiview_image_loss(intr, multiview, image_id, preds, cfg.loss, rng)

    def angle_photo(t, image_id, preds):
        rep = angle(t, image_id, preds)
        cands = photo_neighbors[image_id]
        if not cands:
            return rep
        nb_rng = np.random.default_rng([cfg.seed, t, image_id])
        j = cands[int(nb_rng.integers(len(cands)))]
        photo = photometric_image_loss(
            intr, poses[j], preds, photo_targets[image_id], dataset.images[j].data, cfg.loss
        )
        lam = cfg.loss.lambda_photo
        return rep._replace(
            values=rep.values + lam * photo.values,
            grads=rep.grads + lam * photo.grads,
            valid_mask=photo.valid_mask,
        )

    init_cutoff = int(cfg.init_fraction * cfg.iterations)

    def const_depth_reproj(t, image_id, preds):
        """Regress onto constant-depth targets, then the plain reprojection
        loss from ``init_cutoff`` on."""
        if t >= init_cutoff:
            return reproj(t, image_id, preds)
        pose = poses[image_id]
        targets = constant_depth_targets(intr, pose, observations[image_id], cfg.const_depth)
        diff = preds - targets
        return LossReport(
            np.sum(diff * diff, axis=1),
            2.0 * diff,
            depth_statuses(pose.world_to_camera(preds)[:, 2]),
            np.full(len(preds), np.nan),
        )

    image_loss = {
        TrainMode.REPROJ: reproj,
        TrainMode.ANGLE: angle,
        TrainMode.ANGLE_MULTI: angle_multi,
        TrainMode.ANGLE_PHOTO: angle_photo,
        TrainMode.CONST_DEPTH_REPROJ: const_depth_reproj,
    }[mode]

    log = TrainLog()
    nonfinite_events = photo_valid = 0
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
        rep = image_loss(t, image_id, preds)
        total, behind_frac = rep.total, rep.behind_frac
        nonfinite_events += int(rep.nonfinite)
        if rep.valid_mask is not None:
            photo_valid += int(np.count_nonzero(rep.valid_mask))

        model_grads = model.grads_for_image(ctx, rep.grads)
        adam.lr = lr_at(cfg, t)
        adam_step(adam, params, model_grads)

        if cfg.checkpoint_every and (t + 1) % cfg.checkpoint_every == 0:
            record(t + 1)

    if not log.records or log.final.iteration != cfg.iterations:
        record(cfg.iterations)
    if mode is TrainMode.ANGLE_PHOTO and photo_valid == 0:
        warnings.warn(
            f"no valid photometric point in {cfg.iterations} iterations: "
            "the angle-photo run trained as plain angle",
            PhotometricInactiveWarning,
            stacklevel=2,
        )
    return model, log


def evaluate_coords(model, dataset, image_ids=None):
    """(median, mean) 3D error of predictions against ground truth over the
    observations of the given images (all images by default). A model with
    no prediction for one of them, such as a ``FreeTable`` for a held-out
    view, raises ``IndexMismatchError``."""
    ids = list(image_ids) if image_ids is not None else sorted(dataset.observations)
    errs = []
    for image_id in ids:
        preds, _ = model.predict_image(dataset, image_id)
        errs.append(_row_norms(preds - dataset.observations[image_id].gt_coords))
    errs = np.concatenate(errs)
    with np.errstate(invalid="ignore"):
        return float(np.median(errs)), float(np.mean(errs))


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
