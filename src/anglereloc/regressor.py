"""Scene-coordinate regressors and their training loop.

Two trainable models stand in for the dense coordinate network at desk
scale: ``PatchMLP`` maps per-point appearance descriptors to world
coordinates through a small tanh network, and ``FreeTable`` gives every
(image, point) observation its own free 3-vector, isolating the geometry of
each loss from any appearance coupling. Training is plain Adam with the
fixed betas ``ADAM_BETA1``, ``ADAM_BETA2`` and ``ADAM_EPS`` (only the
learning rate is set, finite and > 0), one image per iteration, fully
deterministic given the config seed. A run opens three random streams, each
once: ``[seed, 11]`` draws the image order, ``[seed, 12]`` the model's
initial values and ``[seed, 13]`` every neighbor view of ``angle-multi`` and
``angle-photo``. Their tags lie apart from the room's (``scenegen``'s 1-5),
so a room and a run of equal seeds share no stream. ``adam_step`` uses Kingma
& Ba's efficient form: both bias corrections fold into a per-step learning
rate and epsilon, so each element costs one divide and one sqrt.

Each model's parameters are a few contiguous float64 arrays (one flat
vector for ``PatchMLP``, views of the coordinate table cut between images
for ``FreeTable``) that ``adam_step`` updates in place. ``AdamState(params,
lr)`` starts their moments at +0.0 and only ``adam_step`` writes them, so,
given gradual underflow, no moment is ever -0.0. Adam is dense in its
results: every row's moments decay on every step, including the table rows
of images not drawn. A model's gradient list may hold ``None`` for an array
the drawn image does not touch, and a ``RowGradient`` for one it touches in
a few rows (a ``FreeTable`` run); ``adam_step`` reads the elements neither
covers as +0.0 with the same bits, never builds those zeros, and adds the
gradient's terms to the moments of the covered elements alone. An array
whose moments are still +0.0 and whose gradient is all zero is skipped,
since its update is exactly zero at every learning rate Adam accepts. Every
other array is swept at every step.

Non-finite losses or gradients are counted and applied as-is, never
repaired: under the plain reprojection loss they are part of the behavior
under study.
"""

from __future__ import annotations

import json
import math
import time
import warnings
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from anglereloc.geometry import CameraIntrinsics, PoseSE3, ray_vectors
from anglereloc.losses import (  # ConfigError is re-exported here
    COUNT,
    POSITIVE,
    POSITIVE_COUNT,
    ConfigError,
    DimensionMismatchError,
    IndexMismatchError,
    LossConfig,
    LossReport,
    Rule,
    angle_terms,
    build_multiview_index,
    check_fields,
    config_from_json,
    is_count,
    multiview_image_loss,
    observed_rays,
    photo_target,
    photometric_image_loss,
    reproj_terms,
    row_norms,
    ruled,
)
from anglereloc.scenegen import DESCRIPTOR_DIM, column_bounds


class PhotometricInactiveWarning(UserWarning):
    """An ``angle-photo`` run ended with no valid photometric point, so it
    trained as plain ``angle``."""


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

    def __init__(self, layer_sizes, params):
        """The network of ``layer_sizes``, ``(input, *hidden, 3)``, whose
        weights and biases are the flat vector ``params`` (copied as
        float64). Raises ``DimensionMismatchError`` for sizes that are not
        integers > 0 ending in 3, or for ``params`` that are not the
        ``param_count(layer_sizes)`` values of such a network."""
        sizes = tuple(layer_sizes)
        n = param_count(sizes)
        self.layer_sizes = sizes
        self.params = np.array(params, dtype=np.float64)
        if self.params.shape != (n,):
            raise DimensionMismatchError(
                f"params of shape {self.params.shape} are not the {n} values of layer sizes {sizes}"
            )
        # (start, stop, shape) of W0, b0, W1, b1, ... in the flat vector
        self._layout, stop = [], 0
        for fan_in, fan_out in zip(sizes, sizes[1:]):
            for shape in ((fan_in, fan_out), (fan_out,)):
                start, stop = stop, stop + math.prod(shape)
                self._layout.append((start, stop, shape))
        views = self._views(self.params)
        self.weights, self.biases = views[0::2], views[1::2]

    def _views(self, flat):
        """Views of ``flat`` shaped W0, b0, W1, b1, ..."""
        return [flat[start:stop].reshape(shape) for start, stop, shape in self._layout]

    @classmethod
    def init(cls, layer_sizes, seed=0):
        """Uniform [-0.5, 0.5] weights scaled by 1/sqrt(fan_in), zero biases."""
        rng = np.random.default_rng(seed)
        net = cls(layer_sizes, np.zeros(param_count(layer_sizes)))
        for W in net.weights:
            W[...] = rng.uniform(-0.5, 0.5, size=W.shape) / np.sqrt(W.shape[0])
        return net

    def forward(self, x):
        """Evaluate the network on (N, in) descriptors -> (N, 3)."""
        return self.forward_cached(x)[0]

    def forward_cached(self, x):
        """Forward pass keeping activations for the backward pass."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.layer_sizes[0]:
            raise DimensionMismatchError(
                f"descriptors of shape {x.shape} are not (N, {self.layer_sizes[0]}) rows"
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
        return self.forward_cached(_observations(dataset, image_id).descriptors)

    def grads_for_image(self, ctx, dl_dy):
        return self.backward(ctx, dl_dy)


def param_count(layer_sizes):
    """The number of values in the ``params`` of a ``PatchMLP`` of
    ``layer_sizes``: a weight per pair of units in consecutive layers and a
    bias per unit after the input. Sizes that are not integers > 0 from an
    input to 3 outputs raise ``DimensionMismatchError`` naming them."""
    sizes = tuple(layer_sizes)
    if not (len(sizes) > 1 and sizes[-1] == 3 and all(is_count(n, 1) for n in sizes)):
        raise DimensionMismatchError(
            f"layer sizes {sizes} are not integers > 0 from an input to 3 outputs"
        )
    return sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(sizes, sizes[1:]))


class FreeTable:
    """One free 3-vector per (image, point) observation of a train view; the
    ablation model with no appearance coupling at all. A view without rows,
    such as a held-out one, has no prediction: asking for one raises
    ``IndexMismatchError``.

    ``point_ids[i]`` holds train view i's point ids in the dataset's order.
    The table is laid out image by image in id order, each image's rows in
    the order of its point ids, so an image's rows are one slice of the
    table and its predictions are one slice copy.

    ``param_list`` hands Adam views of ``coords`` cut only between images:
    consecutive images grouped into runs of at most ``ADAM_BLOCK`` elements,
    a single larger image being a run of its own. Each train view keeps its
    ``(rows, run)``: its row slice and the index of the run that holds it,
    ``None`` for a view without observations. That pair is
    ``predict_image``'s context. ``grads_for_image`` returns a
    ``RowGradient`` for the image's run, the loss's gradient rows at their
    element offset in the run, and ``None`` for every other run; ``adam_step``
    reads every other element as +0.0, so no zeros are built for the rest of
    the run or the table. A run no image has drawn yet keeps zero moments,
    which ``adam_step`` skips.
    """

    def __init__(self, dataset, seed=0):
        """Entries uniform in the scene bounding box expanded 2x about its
        center (bounding box taken over all ground-truth coordinates). Rows
        belong to the train views. One draw still covers every view's
        observations in id order and the train views keep their rows of it,
        so a train row's initial value does not depend on the held-out views
        being left out. A room whose train views see no point, so that the
        table would have no rows, raises ``ConfigError``."""
        observations = dataset.observations
        if not any(len(observations[i].point_ids) for i in dataset.train_ids):
            raise ConfigError("FreeTable has no rows: no train view of the room sees a point")
        rng = np.random.default_rng(seed)
        # the joined rows live only in this call, freed before the table is drawn
        lo, hi = column_bounds(np.concatenate([o.gt_coords for o in observations.values()]))
        center, half = (lo + hi) / 2, (hi - lo) / 2
        low, high = center - 2 * half, center + 2 * half
        train_ids = set(dataset.train_ids)
        self.point_ids = {  # image_id -> (n,) point ids
            i: np.array(observations[i].point_ids) for i in sorted(observations) if i in train_ids
        }
        # rng.uniform(low, high) is low + (high - low) * rng.random(), element
        # by element: draw every view's rows in id order, keep the train
        # views' rows and map them, a column at a time as in column_bounds
        self.coords = np.empty((sum(map(len, self.point_ids.values())), 3))
        self._images = {}  # image_id -> (rows, run)
        starts, stop = [0], 0  # each run's first row
        for image_id in sorted(observations):
            n = len(observations[image_id].point_ids)
            if image_id not in train_ids:
                rng.random((n, 3))
                continue
            start, stop = stop, stop + n
            rng.random(out=self.coords[start:stop])
            # a new run starts at an image's first row once the run would
            # pass ADAM_BLOCK elements (3 per row)
            if n and start > 0 and 3 * (stop - starts[-1]) > ADAM_BLOCK:
                starts.append(start)
            self._images[image_id] = (slice(start, stop), len(starts) - 1 if n else None)
        self._runs = [slice(a, b) for a, b in zip(starts, starts[1:] + [stop])]
        for k in range(3):
            column = self.coords[:, k]
            column *= high[k] - low[k]
            column += low[k]

    def _image(self, image_id):
        """The image's ``(rows, run)``; ``IndexMismatchError`` if it has no rows."""
        if image_id not in self._images:
            raise IndexMismatchError(f"FreeTable has no rows for image {image_id}")
        return self._images[image_id]

    def param_list(self):
        return [self.coords[run] for run in self._runs]

    def predict_image(self, dataset, image_id):
        """The image's rows, in the dataset's order, and their ``(rows, run)``.
        Raises ``IndexMismatchError`` when the table has no rows for the
        image (a held-out view, or one it was not built on) or was built on
        other point ids for it."""
        ctx = self._image(image_id)
        if not np.array_equal(self.point_ids[image_id], dataset.observations[image_id].point_ids):
            raise IndexMismatchError(
                f"image {image_id}: the dataset's point ids differ from the FreeTable's"
            )
        return self.coords[ctx[0]].copy(), ctx

    def grads_for_image(self, ctx, dl_dy):
        """Table gradient, one entry per ``param_list`` run: ``dl_dy`` at the
        rows of the ``(rows, run)`` that ``predict_image`` returned and +0.0
        elsewhere. That run gets a ``RowGradient``, ``dl_dy`` at the rows'
        element offset in the run; every other run gets ``None``. A
        ``dl_dy`` other than one 3-vector per row raises
        ``DimensionMismatchError``."""
        rows, k = ctx
        dl_dy = np.asarray(dl_dy, dtype=np.float64)
        if dl_dy.shape != (rows.stop - rows.start, 3):
            raise DimensionMismatchError(
                f"gradient of shape {dl_dy.shape} does not match {rows.stop - rows.start} rows"
            )
        grads = [None] * len(self._runs)
        if k is not None:
            run = self._runs[k]
            grads[k] = RowGradient((run.stop - run.start, 3), 3 * (rows.start - run.start), dl_dy)
        return grads


class GtLookup:
    """Oracle pseudo-model: predicts the recorded ground-truth coordinate."""

    def predict_image(self, dataset, image_id):
        return _observations(dataset, image_id).gt_coords.copy(), None


def _observations(dataset, image_id):
    """The image's observations; ``IndexMismatchError`` if the dataset lacks it."""
    if image_id not in dataset.observations:
        raise IndexMismatchError(f"the dataset has no image {image_id}")
    return dataset.observations[image_id]


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


# the elements of a FreeTable Adam run, which FreeTable(dataset, seed) cuts at
# an image's first row and records in each image's (rows, run): a run's p, g,
# m, v and adam_step's scratch (5 x 128 KiB) stay in cache across a sweep
ADAM_BLOCK = 16384
# Adam's moment decay rates and the term that keeps its denominator positive
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class RowGradient:
    """A gradient of ``shape`` that is ``values`` at flat element ``offset``
    onward and +0.0 elsewhere, without building the zeros: ``adam_step``
    adds its terms on those elements alone. ``np.asarray`` gives the dense
    array. ``values`` that do not fit inside ``shape`` from ``offset`` raise
    ``DimensionMismatchError``."""

    __slots__ = ("shape", "offset", "values")

    def __init__(self, shape, offset, values):
        self.shape, self.offset, self.values = tuple(shape), offset, values
        if not 0 <= offset <= math.prod(self.shape) - np.size(values):
            raise DimensionMismatchError(
                f"{np.size(values)} gradient values at offset {offset} do not fit shape {shape}"
            )

    def __array__(self, dtype=None, copy=None):
        dense = np.zeros(self.shape)
        flat = dense.reshape(-1)
        flat[self.offset : self.offset + np.size(self.values)] = np.ravel(self.values)
        return dense if dtype is None else dense.astype(dtype, copy=False)


class AdamState:
    """Adam's moments, step counter, learning rate and scratch space for one
    list of parameter arrays. The state owns its moments: they start +0.0,
    as in Kingma & Ba, and only ``adam_step`` writes them, so, given gradual
    underflow, none is ever -0.0 (see ``adam_step``). ``zero[i]`` is true
    until array i is first swept, its moments +0.0. ``work`` is scratch the
    size of the largest array."""

    def __init__(self, params, lr):
        self.m = [np.zeros(p.shape) for p in params]
        self.v = [np.zeros(p.shape) for p in params]
        self.step = 0
        self.lr = lr
        self.zero = [True] * len(params)
        self.work = np.empty(max((p.size for p in params), default=0))


def _adam_sweep(p, m, v, a, lr_t, eps_t, g=None, lo=0):
    """One Adam step of flat p, m and v in place, with ``a`` as scratch; the
    flat gradient ``g`` covers elements ``lo`` onward, and every element it
    does not cover has gradient +0.0. Those elements' moments become
    ``b1 m`` and ``b2 v``, as ``x + 0.0`` is ``x`` for every moment (no
    moment is -0.0, see ``adam_step``)."""
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    np.multiply(m, b1, out=m)
    np.multiply(v, b2, out=v)
    if g is not None:
        hi = lo + g.size
        ag, mg, vg = a[lo:hi], m[lo:hi], v[lo:hi]
        np.multiply(g, 1 - b1, out=ag)
        np.add(mg, ag, out=mg)
        np.multiply(g, g, out=ag)
        np.multiply(ag, 1 - b2, out=ag)
        np.add(vg, ag, out=vg)
    np.sqrt(v, out=a)
    np.add(a, eps_t, out=a)
    np.divide(m, a, out=a)
    np.multiply(a, lr_t, out=a)
    np.subtract(p, a, out=p)


def adam_step(state: AdamState, params, grads):
    """One Adam update of ``params`` and the state's moments, in place.

    The update is Kingma & Ba's efficient form of Algorithm 1: both bias
    corrections ``bc1 = 1 - b1^t`` and ``bc2 = 1 - b2^t`` fold into the
    per-step scalars ``lr_t = lr sqrt(bc2) / bc1`` and
    ``eps_t = eps sqrt(bc2)``, which equals ``lr m_hat / (sqrt(v_hat) + eps)``
    in real arithmetic and costs one divide and one sqrt per element, where
    dividing ``m`` and ``v`` by their corrections first costs three divides.
    Every element goes through ``m = b1 m + (1 - b1) g``,
    ``v = b2 v + (1 - b2) g^2``, ``p = p - (m / (sqrt(v) + eps_t)) lr_t`` in
    that order (``b1``, ``b2``, ``eps``: ``ADAM_BETA1``, ``ADAM_BETA2``,
    ``ADAM_EPS``), the bits of the allocating form. Each array is swept
    whole through the scratch ``state.work``, but a ``RowGradient``'s terms
    ``(1 - b1) g`` and ``(1 - b2) g^2`` are added on its elements alone;
    a ``FreeTable``'s runs of at
    most ``ADAM_BLOCK`` elements keep a sweep in cache. ``params`` must be
    the state's arrays, C-contiguous float64: another dtype or layout
    raises ``ValueError``, and a count or shape other than the moments' (or
    a gradient's) ``DimensionMismatchError``, both before anything changes.
    Non-finite gradients propagate into the moments and parameters.

    A gradient of ``None`` stands for an all +0.0 array of its parameter's
    shape, and a ``RowGradient`` for its dense array, the same +0.0 outside
    its elements; both give the bits of that array without building it:
    where the gradient is +0.0 the moments become ``b1 m`` and ``b2 v``,
    since the terms ``(1 - b1) g`` and
    ``(1 - b2) g^2`` are +0.0 and ``x + 0.0`` is ``x`` for every x but -0.0,
    which no moment ever is. Moments start +0.0, a sum is -0.0 only when
    both its terms are, ``g^2`` never is, and, given gradual underflow (0.9
    and 0.999 times the smallest subnormal round back to it), ``b1 m`` or
    ``b2 v`` is -0.0 only when the moment is.

    ``state.lr`` must be finite and > 0, as in ``TrainConfig``; any other
    value raises ``ConfigError`` before anything changes. An array whose
    moments are all +0.0 (``state.zero``) and whose gradient is all zero,
    signed zeros included, is skipped: its moments would stay +0.0 and its
    update would be ``p - lr_t * 0.0``, exactly ``p - 0.0`` since ``lr_t``
    is finite and >= +0.0 at every such lr. From step 356 on ``bc1`` is
    exactly 1, so ``lr_t <= lr``; before that ``lr_t`` stays finite even at
    the largest finite lr. Its first nonzero gradient (NaN and +-inf
    included), or any other sweep, clears the flag for good. Every array
    that is not skipped is swept at every step.
    """
    if not len(params) == len(grads) == len(state.m) or any(
        p.shape != m.shape or (g is not None and g.shape != m.shape)
        for p, g, m in zip(params, grads, state.m)
    ):
        raise DimensionMismatchError("params, gradients and Adam moments differ in count or shape")
    lr = state.lr
    if not POSITIVE.holds(lr):
        raise ConfigError(f"adam_step needs a learning rate {POSITIVE.text}, got {lr!r}")
    # flat views, never copies or conversions: the sweeps write through them
    if any(p.dtype != np.float64 or not p.flags.c_contiguous for p in params):
        raise ValueError("adam_step updates in place: arrays must be C-contiguous float64")
    flat = [p.reshape(-1) for p in params]
    state.step += 1
    t = state.step
    bc1 = 1.0 - ADAM_BETA1**t
    bc2 = 1.0 - ADAM_BETA2**t
    lr_t = lr * math.sqrt(bc2) / bc1
    eps_t = ADAM_EPS * math.sqrt(bc2)
    for i, (p, g, m, v) in enumerate(zip(flat, grads, state.m, state.v)):
        lo = 0
        if isinstance(g, RowGradient):
            lo, g = g.offset, g.values
        if g is not None:
            g = np.ravel(g)
        if state.zero[i]:
            if g is None or not g.any():
                continue
            state.zero[i] = False
        _adam_sweep(p, m.reshape(-1), v.reshape(-1), state.work[: p.size], lr_t, eps_t, g, lo)


# ---------------------------------------------------------------------------
# Constant-depth initialization targets
# ---------------------------------------------------------------------------


def constant_depth_targets(
    intr: CameraIntrinsics, pose: PoseSE3, observations, d: float
):
    """Dummy scene coordinates at camera-frame depth ``d`` along each
    observation's viewing ray; the initialization baseline's regression
    targets. A ``d`` that is not finite and > 0 raises ``ConfigError``."""
    POSITIVE.check("constant depth d", d)
    rays = ray_vectors(intr, observations.pixels)
    cam = rays * (d / intr.f)  # third component becomes exactly d
    return pose.camera_to_world(cam)


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


# angle-photo draws each train view's photometric neighbor from the other
# train views within this many ids
PHOTO_NEIGHBOR_MAX_OFFSET = 10


# Each mode's phases as (start, loss name), and the fractions of a run at
# which the lr halves. A fraction f of a run of T iterations is reached at
# the first iteration t with t / T >= f; see schedule_at.
# const-depth-reproj is DSAC++'s two-stage recipe (Brachmann & Rother,
# CVPR 2018): regress constant-depth targets, then the reprojection loss.
MODES = {
    "reproj": ((0.0, "reproj"),),
    "angle": ((0.0, "angle"),),
    "angle-multi": ((0.0, "angle-multi"),),
    "angle-photo": ((0.0, "angle-photo"),),
    "const-depth-reproj": ((0.0, "const-depth"), (0.25, "reproj")),
}
LR_HALVINGS = (0.6, 0.8, 0.9)
_LR = Rule(
    lambda v: POSITIVE.holds(v) and v * 0.5 ** len(LR_HALVINGS) > 0,
    "finite and > 0 after its last halving",
)


def _tuple_of(rule, items):
    """The rule of a tuple whose every item passes ``rule``."""
    return Rule(lambda v: isinstance(v, tuple) and all(map(rule.holds, v)), f"a tuple of {items}")


@dataclass
class TrainConfig:
    """Training settings. Every loss weight and guard lives in ``loss``, a
    ``LossConfig``. A value that fails its field's rule raises
    ``ConfigError`` naming the field. ``mode`` is a key of ``MODES``, which
    holds its phases; ``lr`` halves at each fraction of ``LR_HALVINGS``
    and must stay > 0 after the last halving. A fraction f of the run is
    reached at the first iteration t with t / iterations >= f.
    ``checkpoint_every`` 0 records only the end; ``const_depth``, the depth
    of the ``const-depth`` loss's targets, is checked in every mode.
    ``angle-photo``'s neighbor reach is ``PHOTO_NEIGHBOR_MAX_OFFSET``. A
    ``PatchMLP`` has the layer sizes ``network_sizes(cfg)``."""

    mode: str = ruled(
        Rule(lambda v: isinstance(v, str) and v in MODES, f"one of {list(MODES)}"), "angle"
    )
    iterations: int = ruled(POSITIVE_COUNT, 20000)
    lr: float = ruled(_LR, 1e-4)
    loss: LossConfig = ruled(
        Rule(lambda v: isinstance(v, LossConfig), "a LossConfig"), default_factory=LossConfig
    )
    const_depth: float = ruled(POSITIVE, 3.0)
    seed: int = ruled(COUNT, 0)
    checkpoint_every: int = ruled(COUNT, 500)
    hidden_sizes: tuple = ruled(_tuple_of(POSITIVE_COUNT, "integers > 0"), (64, 64))

    __post_init__ = check_fields


def network_sizes(cfg: TrainConfig) -> tuple:
    """The layer sizes of a ``PatchMLP`` trained under ``cfg``."""
    return (DESCRIPTOR_DIM, *cfg.hidden_sizes, 3)


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

    def append(self, rec: TrainRecord):
        if self.records and rec.iteration <= self.records[-1].iteration:
            raise ValueError("iteration numbers must increase")
        self.records.append(rec)

    @property
    def final(self) -> TrainRecord:
        return self.records[-1]


def schedule_at(cfg: TrainConfig, t: int):
    """``(loss name, lr)`` of iteration ``t`` of a run under ``cfg``: the
    loss of the last phase in ``MODES[cfg.mode]`` whose start is reached,
    and ``cfg.lr`` halved once per fraction of ``LR_HALVINGS`` reached. A
    fraction f is reached at the first t with ``t / cfg.iterations >= f``."""
    frac = t / cfg.iterations
    name = [name for start, name in MODES[cfg.mode] if frac >= start][-1]
    return name, cfg.lr * (0.5 ** sum(frac >= f for f in LR_HALVINGS))


def _photo_setup(dataset, train_ids):
    """Each train view's photometric target and its neighbor candidates: the
    other train views within ``PHOTO_NEIGHBOR_MAX_OFFSET`` ids, in
    ``train_ids`` order.
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
        neighbors[i] = [j for j in train_ids if j != i and abs(j - i) <= PHOTO_NEIGHBOR_MAX_OFFSET]
    return targets, neighbors


def train(dataset, model_kind: str, cfg: TrainConfig):
    """Optimize a model on the dataset's training views under ``cfg.mode``.

    One training image per iteration (drawn uniformly from the ``[seed, 11]`` stream),
    per-point gradients from the current phase's loss accumulated into the
    model by Adam. ``schedule_at`` gives each iteration's loss, from the
    phases in the mode's row of ``MODES``, and its learning rate. Each loss
    returns the image's ``LossReport``; the loop counts its ``nonfinite``
    and, for ``angle-photo``, its photometric ``valid_mask`` at every
    iteration. Returns ``(model, TrainLog)``, recorded every
    ``checkpoint_every`` iterations and at the end; each record holds the
    ``total`` and ``behind_frac`` of the last report, the running count of
    iterations with a non-finite loss or gradient, the median 3D coordinate
    error over the training views, and wall time.
    ``angle-multi`` and ``angle-photo`` draw their neighbor views from the
    train views only, so no held-out view's pose or pixels enter training,
    and from one ``[seed, 13]`` stream opened before the loop; the model's
    initial values come from ``[seed, 12]``.
    A room without train views, or whose train views see no point, raises
    ``ConfigError`` before any model is built.
    The observed rays of every train view are built once, before the loop:
    as ``ObservedRays`` per view for an ``angle`` or ``angle-photo`` phase,
    and inside the multi-view index for ``angle-multi``, so no step builds
    a ray of the angle loss.
    A run with an ``angle-photo`` phase samples every train view's
    photometric target once, before the loop, and warns with
    ``PhotometricInactiveWarning`` when no photometric point was valid in
    the whole run.
    """
    used = {name for _, name in MODES[cfg.mode]}
    train_ids = list(dataset.train_ids)
    if not train_ids:
        raise ConfigError(
            f"the room has no train views: all {len(dataset.observations)} views "
            "are held out (test_every=1 holds out every view)"
        )
    if not any(len(dataset.observations[i].point_ids) for i in train_ids):
        raise ConfigError(f"the room's {len(train_ids)} train views see no point to train on")
    if model_kind == "patch_mlp":
        model = PatchMLP.init(network_sizes(cfg), seed=[cfg.seed, 12])
    elif model_kind == "free_table":
        model = FreeTable(dataset, seed=[cfg.seed, 12])
    else:
        raise ConfigError(f"model kind {model_kind!r} is not trainable")
    params = model.param_list()
    adam = AdamState(params, cfg.lr)
    intr, poses, observations = dataset.intrinsics, dataset.poses, dataset.observations
    order_rng = np.random.default_rng([cfg.seed, 11])
    drawn = order_rng.integers(0, len(train_ids), size=cfg.iterations)
    order = [train_ids[i] for i in drawn.tolist()]  # each iteration's image id
    neighbor_rng = np.random.default_rng([cfg.seed, 13])
    multiview = (
        build_multiview_index(
            intr, poses, {i: observations[i] for i in train_ids}, dataset.covis.corresponded
        )
        if "angle-multi" in used
        else None
    )
    rays = (
        {i: observed_rays(intr, observations[i].pixels) for i in train_ids}
        if used & {"angle", "angle-photo"}
        else {}
    )
    photo_targets, photo_neighbors = (
        _photo_setup(dataset, train_ids) if "angle-photo" in used else ({}, {})
    )

    # One loss per loss name, each mapping (image id, predictions) to the
    # image's LossReport. The kernels are looked up as module globals on
    # every call, so wrappers installed on them see every call.
    def reproj(image_id, preds):
        return reproj_terms(intr, poses[image_id], preds, observations[image_id].pixels)

    def angle(image_id, preds):
        return angle_terms(intr, poses[image_id], preds, rays[image_id], cfg.loss.epsilon_norm)

    def angle_multi(image_id, preds):
        return multiview_image_loss(intr, multiview, image_id, preds, cfg.loss, rng=neighbor_rng)

    def angle_photo(image_id, preds):
        rep = angle(image_id, preds)
        cands = photo_neighbors[image_id]
        if not cands:
            return rep
        j = cands[int(neighbor_rng.integers(len(cands)))]
        photo = photometric_image_loss(
            intr, poses[j], preds, photo_targets[image_id], dataset.images[j].data, cfg.loss
        )
        lam = cfg.loss.lambda_photo
        return rep._replace(
            values=rep.values + lam * photo.values,
            grads=rep.grads + lam * photo.grads,
            valid_mask=photo.valid_mask,
        )

    def const_depth(image_id, preds):
        """Regress onto targets at depth ``cfg.const_depth``."""
        pose = poses[image_id]
        targets = constant_depth_targets(intr, pose, observations[image_id], cfg.const_depth)
        diff = preds - targets
        return LossReport(np.sum(diff * diff, axis=1), 2.0 * diff, pose.world_to_camera(preds))

    image_losses = {
        "reproj": reproj,
        "angle": angle,
        "angle-multi": angle_multi,
        "angle-photo": angle_photo,
        "const-depth": const_depth,
    }
    image_losses = {name: image_losses[name] for name in used}  # an unknown name fails here

    log = TrainLog()
    nonfinite_events = photo_valid = 0
    every = cfg.checkpoint_every or cfg.iterations  # 0 records only the end
    start = time.perf_counter()
    for t, image_id in enumerate(order):
        name, adam.lr = schedule_at(cfg, t)
        preds, ctx = model.predict_image(dataset, image_id)
        rep = image_losses[name](image_id, preds)
        nonfinite_events += int(rep.nonfinite)
        if rep.valid_mask is not None:
            photo_valid += int(np.count_nonzero(rep.valid_mask))

        adam_step(adam, params, model.grads_for_image(ctx, rep.grads))

        if (t + 1) % every == 0 or t + 1 == cfg.iterations:
            med, _ = evaluate_coords(model, dataset, train_ids)
            wall = time.perf_counter() - start
            log.append(TrainRecord(t + 1, rep.total, rep.behind_frac, nonfinite_events, med, wall))

    if "angle-photo" in used and photo_valid == 0:
        warnings.warn(
            f"no valid photometric point in {cfg.iterations} iterations: "
            "the angle-photo run trained as plain angle",
            PhotometricInactiveWarning,
            stacklevel=2,
        )
    return model, log


def evaluate_coords(model, dataset, image_ids=None):
    """(median, mean) 3D error of predictions against ground truth over the
    observations of the given images (all images by default). An empty
    list of ids, an id the dataset lacks (the first one is named, whatever
    the model), ids whose images hold no observation row, and a model with
    no prediction for one of them, such as a ``FreeTable`` for a held-out
    view, raise ``IndexMismatchError``."""
    ids = list(image_ids) if image_ids is not None else sorted(dataset.observations)
    if not ids:
        raise IndexMismatchError("evaluate_coords needs at least one image id, got none")
    missing = [i for i in ids if i not in dataset.observations]
    if missing:
        raise IndexMismatchError(f"evaluate_coords: the dataset has no image {missing[0]}")
    if not any(len(dataset.observations[i].point_ids) for i in ids):
        raise IndexMismatchError(f"evaluate_coords: the {len(ids)} images hold no observation row")
    errs = []
    for image_id in ids:
        preds, _ = model.predict_image(dataset, image_id)
        errs.append(row_norms(preds - dataset.observations[image_id].gt_coords))
    errs = np.concatenate(errs)
    with np.errstate(invalid="ignore"):
        return float(np.median(errs)), float(np.mean(errs))


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

CHECKPOINT_VERSION = 7


def save_checkpoint(path, model, cfg: TrainConfig):
    """Write a ``PatchMLP`` trained under ``cfg`` to ``path`` as one JSON
    object at ``CHECKPOINT_VERSION`` with three keys: ``schema_version``,
    ``train_config`` (the config's fields) and ``params`` (the network's flat
    parameter vector, the one Adam trains). The network's shape is
    ``network_sizes(cfg)``, so it is stored once, in the config. Raises
    ``ConfigError`` naming ``path``, and writes no file, for any other model:
    a ``FreeTable``, a ``GtLookup``, or a network of other layer sizes."""
    sizes = network_sizes(cfg)
    if not isinstance(model, PatchMLP):
        raise ConfigError(f"{path}: a checkpoint holds a PatchMLP, got a {type(model).__name__}")
    if model.layer_sizes != sizes:
        raise ConfigError(
            f"{path}: network layer sizes {model.layer_sizes} are not {sizes}, "
            "the descriptor width, hidden_sizes and 3"
        )
    blob = {
        "schema_version": CHECKPOINT_VERSION,
        "train_config": asdict(cfg),
        "params": model.params.tolist(),
    }
    Path(path).write_text(json.dumps(blob) + "\n")


def load_checkpoint(path):
    """Read a checkpoint written by ``save_checkpoint``: ``(PatchMLP, TrainConfig)``.

    Raises ``ConfigError`` naming ``path`` when the file cannot be read or
    parsed, is not a JSON object at the current ``CHECKPOINT_VERSION``, or
    holds a ``train_config`` that ``config_from_json`` refuses (exactly the
    ``TrainConfig`` fields with exactly the ``LossConfig`` fields under
    ``loss``, each passing its rule). The config gives the network's layer
    sizes, ``network_sizes(cfg)``; ``params`` must then be a flat list of
    exactly ``param_count`` of them, checked before anything is built, each
    a number (see ``_numbers``).
    """
    try:
        blob = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:  # ValueError covers JSONDecodeError
        raise ConfigError(f"{path}: cannot read checkpoint: {exc}") from exc
    try:
        return _checkpoint_contents(blob)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _checkpoint_contents(blob):
    if not isinstance(blob, dict):
        raise ConfigError("checkpoint is not a JSON object")
    if blob.get("schema_version") != CHECKPOINT_VERSION:
        raise ConfigError(f"unsupported checkpoint version {blob.get('schema_version')}")
    cfg = config_from_json(TrainConfig, blob.get("train_config"), "train_config")
    sizes, params = network_sizes(cfg), blob.get("params")
    n = param_count(sizes)
    if not (isinstance(params, list) and len(params) == n):
        got = f"a list of {len(params)}" if isinstance(params, list) else type(params).__name__
        raise ConfigError(
            f"params must be a list of the {n} numbers of a PatchMLP of layer sizes "
            f"{sizes}, got {got}"
        )
    return PatchMLP(sizes, _numbers(params, "params")), cfg


def _is_number(value):
    """True for a float, NaN and infinities included, and for an int that a
    float holds; False for a bool, a string, None, a list and ``10**400``."""
    try:
        return type(value) is float or (type(value) is int and math.isfinite(value))
    except OverflowError:  # an int beyond the float range
        return False


def _numbers(values, what):
    """``values``, a flat list of numbers as JSON holds them, as a float64
    array. Raises ``ConfigError`` naming ``what`` for an entry that is not a
    number (see ``_is_number``): numpy would read the string ``"1.5"`` as
    1.5, ``true`` as 1.0 and ``null`` as NaN, and raise ``OverflowError`` on
    ``10**400``."""
    bad = [v for v in values if not _is_number(v)]
    if bad:
        raise ConfigError(f"{what} hold {bad[0]!r}, which is not a number")
    return np.array(values, dtype=np.float64)
