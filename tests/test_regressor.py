"""Training-loop tests."""

import hashlib
import json
import math
import time
import tracemalloc
import warnings
from dataclasses import asdict, astuple, fields, replace
from fractions import Fraction

import numpy as np
import pytest

from anglereloc import losses, regressor, scenegen
from anglereloc.losses import LossConfig, Rule
from anglereloc.regressor import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_BLOCK,
    ADAM_EPS,
    AdamState,
    ConfigError,
    FreeTable,
    GtLookup,
    PatchMLP,
    PhotometricInactiveWarning,
    RowGradient,
    TrainConfig,
    adam_step,
    constant_depth_targets,
    evaluate_coords,
    load_checkpoint,
    network_sizes,
    save_checkpoint,
    schedule_at,
    train,
)
from anglereloc.scenegen import DatasetConfig, build_dataset


@pytest.fixture(scope="module")
def room():
    return build_dataset(DatasetConfig(seed=3, n_points=300, n_images=12))


def reference_adam_step(state, params, grads):
    """The allocating Adam update that ``adam_step`` must match bit for bit,
    in Kingma & Ba's efficient form with both bias corrections folded into
    ``lr_t`` and ``eps_t``: returns new arrays and replaces the state's
    moment lists. Reads the betas from ``regressor`` on each call, so a test
    that patches them patches both."""
    b1, b2 = regressor.ADAM_BETA1, regressor.ADAM_BETA2
    state.step += 1
    t = state.step
    bc1 = 1.0 - b1**t
    bc2 = 1.0 - b2**t
    lr_t = state.lr * math.sqrt(bc2) / bc1
    eps_t = ADAM_EPS * math.sqrt(bc2)
    new_params, new_m, new_v = [], [], []
    for p, g, m, v in zip(params, grads, state.m, state.v):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * (g * g)
        new_params.append(p - (m / (np.sqrt(v) + eps_t)) * lr_t)
        new_m.append(m)
        new_v.append(v)
    state.m, state.v = new_m, new_v
    return new_params


def textbook_adam_step(state, params, grads):
    """Algorithm 1 of Kingma & Ba as printed, ``p - lr m_hat / (sqrt(v_hat)
    + eps)`` with the bias-corrected moments, allocating like the
    reference."""
    state.step += 1
    t = state.step
    new_params, new_m, new_v = [], [], []
    for p, g, m, v in zip(params, grads, state.m, state.v):
        m = ADAM_BETA1 * m + (1 - ADAM_BETA1) * g
        v = ADAM_BETA2 * v + (1 - ADAM_BETA2) * (g * g)
        m_hat = m / (1.0 - ADAM_BETA1**t)
        v_hat = v / (1.0 - ADAM_BETA2**t)
        new_params.append(p - state.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS))
        new_m.append(m)
        new_v.append(v)
    state.m, state.v = new_m, new_v
    return new_params


def run_both(params, grad_fn, steps, lr_fn=lambda t: 0.05):
    """Run ``adam_step`` and the reference side by side from ``params``."""
    mine = [p.copy() for p in params]
    ref = [p.copy() for p in params]
    state = AdamState(mine, lr_fn(0))
    ref_state = AdamState(ref, lr_fn(0))
    for t in range(steps):
        grads = grad_fn(t)
        state.lr = ref_state.lr = lr_fn(t)
        adam_step(state, mine, grads)
        ref = reference_adam_step(ref_state, ref, grads)
    return (mine, state), (ref, ref_state)


def assert_bit_equal(a, b):
    for x, y in zip(a, b):
        assert x.shape == y.shape
        assert x.tobytes() == y.tobytes()


def assert_no_negative_zero(arrays):
    for a in arrays:
        assert not np.signbit(a[a == 0.0]).any()


def test_numpy_keeps_subnormals_through_the_moment_decay():
    # no moment is ever -0.0 because b1 m and b2 v are zero only when m or v
    # is: 0.9 and 0.999 times the smallest subnormal round back to it
    tiny = np.array([5e-324, -5e-324] * 32)  # long enough for the SIMD loops
    for beta in (ADAM_BETA1, ADAM_BETA2):
        assert 5e-324 * beta == 5e-324 and -5e-324 * beta == -5e-324
        assert np.multiply(tiny, beta).tobytes() == tiny.tobytes()
        out = tiny.copy()
        np.multiply(out, beta, out=out)
        assert out.tobytes() == tiny.tobytes()


def test_adam_step_shape_mismatch_raises_the_losses_error():
    params = [np.zeros((4, 3)), np.zeros(3)]
    state = AdamState(params, 1e-4)
    with pytest.raises(losses.DimensionMismatchError):
        adam_step(state, params, [np.zeros((4, 3)), np.zeros(2)])
    with pytest.raises(losses.DimensionMismatchError):
        adam_step(state, params, [np.zeros((4, 3))])
    # None stands for a gradient of the right shape, but not for a missing one
    with pytest.raises(losses.DimensionMismatchError):
        adam_step(state, params, [None, np.zeros(2)])
    with pytest.raises(losses.DimensionMismatchError):
        adam_step(state, params, [None])
    with pytest.raises(losses.DimensionMismatchError):
        adam_step(state, params, [np.zeros((3, 4)), None])
    assert state.step == 0


@pytest.mark.parametrize(
    "change",
    [
        # a longer array raised a bare ValueError after counting the step
        pytest.param(lambda ps: [ps[0], np.ones(5)], id="longer-array"),
        pytest.param(lambda ps: [ps[0], np.ones(2)], id="shorter-array"),
        pytest.param(lambda ps: [ps[0], np.ones((1, 3))], id="reshaped-array"),
        # fewer arrays trained silently: zip dropped the extra moments
        pytest.param(lambda ps: ps[:1], id="fewer-arrays"),
        pytest.param(lambda ps: [*ps, np.ones(2)], id="more-arrays"),
    ],
)
def test_params_the_state_was_not_built_for_are_refused_before_anything_changes(change):
    params = [np.ones((4, 3)), np.ones(3)]
    state = AdamState(params, 0.05)
    adam_step(state, params, [np.ones((4, 3)), None])
    before = [p.copy() for p in params], [m.copy() for m in state.m], [v.copy() for v in state.v]
    others = change([p.copy() for p in params])
    kept = [p.copy() for p in others]
    with pytest.raises(losses.DimensionMismatchError, match="differ in count or shape$"):
        adam_step(state, others, [np.ones(p.shape) for p in others])
    assert state.step == 1 and state.zero == [False, True]
    for now, then in zip((params, state.m, state.v), before):
        assert_bit_equal(now, then)
    assert_bit_equal(others, kept)


class TestAdamStep:
    def test_table_shaped_sparse_gradients_bit_identical(self):
        rng = np.random.default_rng(0)
        # an array over twice the size of a FreeTable run
        n_rows = (2 * ADAM_BLOCK + 1000) // 3
        table = rng.uniform(-5, 5, size=(n_rows, 3))

        def grads(t):
            g = np.zeros_like(table)
            rows = rng.choice(n_rows, size=n_rows // 40, replace=False)
            g[rows] = rng.normal(scale=10.0 ** rng.integers(-6, 3), size=(len(rows), 3))
            return [g]

        (mine, state), (ref, ref_state) = run_both(
            [table], grads, 60, lr_fn=lambda t: 0.05 * 0.5 ** (t // 20)
        )
        assert_bit_equal(mine, ref)
        assert_bit_equal(state.m, ref_state.m)
        assert_bit_equal(state.v, ref_state.v)
        assert state.step == 60

    def test_network_shapes_bit_identical(self):
        rng = np.random.default_rng(1)
        shapes = [(16, 64), (64,), (64, 64), (64,), (64, 3), (3,)]
        params = [rng.normal(size=s) for s in shapes]
        flat = [np.concatenate([p.ravel() for p in params])]

        def grads_for(ps):
            return lambda t: [rng.normal(size=p.shape) for p in ps]

        (mine, state), (ref, ref_state) = run_both(params, grads_for(params), 50)
        assert_bit_equal(mine, ref)
        assert_bit_equal(state.m, ref_state.m)
        assert_bit_equal(state.v, ref_state.v)
        (mine, state), (ref, ref_state) = run_both(flat, grads_for(flat), 50)
        assert_bit_equal(mine, ref)
        assert_bit_equal(state.v, ref_state.v)

    def test_updates_in_place(self):
        p = np.ones((5, 3))
        state = AdamState([p], 1e-4)
        m = state.m[0]
        adam_step(state, [p], [np.full((5, 3), 2.0)])
        assert state.m[0] is m
        assert np.all(p < 1.0) and np.all(m > 0)

    def test_refuses_to_update_a_copy(self):
        p = np.ones((6, 4))[:, ::2]
        with pytest.raises(ValueError, match="contiguous"):
            adam_step(AdamState([p], 1e-4), [p], [np.ones_like(p)])

    @pytest.mark.parametrize("n", [3, 4])
    def test_refuses_an_array_that_is_not_float64(self, n):
        # float32 of length 3 failed inside numpy's view; of length 4 it trained
        params = [np.ones(5), np.ones(n, dtype=np.float32)]
        state = AdamState(params, 1e-4)
        with pytest.raises(ValueError, match="must be C-contiguous float64$"):
            adam_step(state, params, [np.ones(5), np.ones(n, dtype=np.float32)])
        assert state.step == 0 and all(state.zero)
        assert np.all(params[0] == 1.0) and np.all(params[1] == 1.0)

    def test_nonfinite_gradient_rows_propagate(self):
        rng = np.random.default_rng(2)
        table = rng.normal(size=(50, 3))
        g = rng.normal(size=(50, 3))
        g[3] = np.nan
        g[7, 1] = np.inf
        g[9, 2] = -np.inf
        with np.errstate(invalid="ignore"):
            (mine, state), (ref, ref_state) = run_both([table], lambda t: [g], 3)
        p, m, v = mine[0], state.m[0], state.v[0]
        assert np.all(np.isnan(p[3])) and np.all(np.isnan(m[3])) and np.all(np.isnan(v[3]))
        assert np.isinf(m[7, 1]) and np.isinf(v[7, 1]) and np.isnan(p[7, 1])
        assert m[9, 2] == -np.inf and v[9, 2] == np.inf and np.isnan(p[9, 2])
        finite = np.ones(50, dtype=bool)
        finite[[3, 7, 9]] = False
        assert np.all(np.isfinite(p[finite]))
        assert_bit_equal(mine, ref)
        assert_bit_equal(state.v, ref_state.v)

    def test_two_steps_by_hand(self):
        p = np.array([1.0, -2.0])
        state = AdamState([p], 0.1)
        adam_step(state, [p], [np.array([0.5, 0.0])])
        # m = 0.1 * 0.5, v = 0.001 * 0.25; bias-corrected 0.5 and 0.25
        assert state.m[0][0] == pytest.approx(0.05, rel=1e-12)
        assert state.v[0][0] == pytest.approx(0.00025, rel=1e-12)
        p1 = 1.0 - 0.1 * 0.5 / (0.5 + 1e-8)
        assert p[0] == pytest.approx(p1, rel=1e-15)
        adam_step(state, [p], [np.array([-1.0, 0.0])])
        # m = 0.9 * 0.05 - 0.1, v = 0.999 * 0.00025 + 0.001;
        # bias corrections 1 - 0.9^2 = 0.19 and 1 - 0.999^2 = 0.001999
        assert state.m[0][0] == pytest.approx(-0.055, rel=1e-12)
        assert state.v[0][0] == pytest.approx(0.00124975, rel=1e-12)
        p2 = p1 + 0.1 * (0.055 / 0.19) / (math.sqrt(0.00124975 / 0.001999) + 1e-8)
        assert p[0] == pytest.approx(p2, rel=1e-12)
        assert p[0] == pytest.approx(0.93661035, abs=1e-8)
        # a zero gradient leaves zero moments and the parameter unchanged
        assert (p[1], state.m[0][1], state.v[0][1]) == (-2.0, 0.0, 0.0)


class TestAdamZeroSkip:
    """Arrays whose moments are +0.0 and whose gradient is all zero are
    skipped; the results must still be those of the reference, byte for
    byte."""

    STEPS, FIRST = 12, 5

    def params(self):
        rng = np.random.default_rng(3)
        params = [rng.normal(size=(40, 3)) for _ in range(5)]
        for p in params:
            p[0] = (-0.0, 0.0, np.nan)  # p - 0.0 must keep all three
        return params

    def grads(self, t):
        rng = np.random.default_rng([4, t])
        late = rng.normal(size=(40, 3)) if t >= self.FIRST else np.zeros((40, 3))
        nan_first = np.zeros((40, 3))
        if t >= self.FIRST:
            nan_first[7, 1] = np.nan
        return [
            np.zeros((40, 3)),  # never a gradient
            late,  # first gradient at step FIRST
            nan_first,  # first nonzero gradient is NaN
            np.full((40, 3), -0.0),  # only ever -0.0
            rng.normal(size=(40, 3)),  # a gradient every step
        ]

    def test_bit_identical_to_the_reference(self):
        with np.errstate(invalid="ignore"):
            (mine, state), (ref, ref_state) = run_both(
                self.params(), self.grads, self.STEPS, lr_fn=lambda t: 0.05 * 0.5 ** (t // 4)
            )
        assert_bit_equal(mine, ref)
        assert_bit_equal(state.m, ref_state.m)
        assert_bit_equal(state.v, ref_state.v)
        assert state.zero == [True, False, False, True, False]
        assert np.all(np.isnan(mine[2][7, 1])) and np.isnan(state.m[2][7, 1])

    def test_flag_is_cleared_at_the_first_nonzero_gradient(self):
        params = self.params()
        state = AdamState(params, 0.05)
        with np.errstate(invalid="ignore"):
            for t in range(self.STEPS):
                adam_step(state, params, self.grads(t))
                assert state.zero[1:3] == [t < self.FIRST] * 2

    def test_array_with_nonzero_moments_is_never_skipped(self):
        # one gradient makes a few moments nonzero; zero gradients follow
        params = self.params()[:2]
        mine, ref = [p.copy() for p in params], [p.copy() for p in params]
        state, ref_state = AdamState(mine, 0.05), AdamState(ref, 0.05)
        warm = [np.zeros((40, 3)), np.zeros((40, 3))]
        warm[0][5], warm[1][9, 2] = 1e-3, -1e-3
        grads = [np.zeros((40, 3)), np.full((40, 3), -0.0)]
        for g in (warm, grads, grads, grads):
            adam_step(state, mine, g)
            ref = reference_adam_step(ref_state, ref, g)
        assert state.zero == [False, False]
        assert_bit_equal(mine, ref)
        assert_bit_equal(state.m, ref_state.m)
        assert_bit_equal(state.v, ref_state.v)
        assert np.all(state.m[0][5] > 0) and state.v[1][9, 2] > 0
        assert_no_negative_zero(state.m + state.v)

    @pytest.mark.parametrize(
        "lr",
        # 10**400 raised a bare OverflowError after counting the step
        [0.0, -0.0, -0.05, math.inf, -math.inf, math.nan, pytest.param(10**400, id="lr=1e400")],
        ids=lambda lr: f"lr={lr}",
    )
    def test_learning_rates_outside_the_accepted_range_raise(self, lr):
        params = self.params()[:2]
        start = [p.copy() for p in params]
        state = AdamState(params, lr)
        for grads in ([np.full((40, 3), -0.0), None], [np.ones((40, 3)), np.zeros((40, 3))]):
            with pytest.raises(ConfigError, match="^adam_step needs a learning rate finite"):
                adam_step(state, params, grads)
        # refused before anything changed
        assert state.step == 0 and all(state.zero)
        assert_bit_equal(params, start)
        assert not any(a.any() for a in state.m + state.v)

    @pytest.mark.parametrize(
        "lr, step",
        [
            (5e-324, 0),  # lr_t underflows to +0.0
            (1e308, 0),
            # bc1 and sqrt(bc2) round near 1 or to 1, so lr_t stays near lr
            (1.7976931348623157e308, 0),
            (1.7976931348623157e308, 400),
            (1.7976931348623157e308, 40_000),
            (1.7976931348623157e308, 10**6),
        ],
    )
    def test_learning_rates_at_the_edges_of_the_exact_range_skip(self, lr, step):
        # lr_t * +0.0 is +0.0 for every finite lr_t >= +0.0, so p - 0.0 keeps p
        params = self.params()[:1]
        mine, ref = [p.copy() for p in params], [p.copy() for p in params]
        state, ref_state = (AdamState(ps, lr) for ps in (mine, ref))
        state.step = ref_state.step = step
        grads = [np.full((40, 3), -0.0)]
        for _ in range(3):
            adam_step(state, mine, grads)
            ref = reference_adam_step(ref_state, ref, grads)
        assert state.zero == [True]
        assert_bit_equal(mine, ref)
        assert_bit_equal(state.m, ref_state.m)
        assert_bit_equal(state.v, ref_state.v)

    def test_folded_learning_rate_is_finite_at_the_largest_lr(self):
        # adam_step's own Python-float arithmetic: finite at the largest
        # finite lr is finite at every smaller one, since rounding is monotone
        lr = 1.7976931348623157e308
        for t in range(1, 401):
            bc1 = 1.0 - ADAM_BETA1**t
            bc2 = 1.0 - ADAM_BETA2**t
            lr_t = lr * math.sqrt(bc2) / bc1
            assert 0.0 < lr_t <= lr < math.inf
            assert (bc1 == 1.0) == (t >= 356)
        # from step 356 on bc1 is exactly 1, so lr_t = lr sqrt(bc2) <= lr
        assert 1.0 - ADAM_BETA1**356 == 1.0


class TestAdamFoldedForm:
    """The folded update equals Kingma & Ba's printed ``p - lr m_hat /
    (sqrt(v_hat) + eps)`` in real arithmetic, so in floating point the two
    agree to a few roundings at every step, from t = 1 through learning-rate
    halvings."""

    STEPS = 60
    # gradient scales from 1e-11, where sqrt(v_hat) is below eps, to 1e3
    SCALES = 10.0 ** np.arange(-11, 4).repeat(5)

    def grads(self, t):
        return [np.random.default_rng([9, t]).normal(size=self.SCALES.size) * self.SCALES]

    @staticmethod
    def lr(t):
        return 0.05 * 0.5 ** (t // 20)

    def test_each_update_matches_the_textbook_form(self):
        # from p = 0 the new parameter is minus the update itself, exactly
        n = self.SCALES.size
        state, book = AdamState([np.zeros(n)], self.lr(0)), AdamState([np.zeros(n)], self.lr(0))
        for t in range(self.STEPS):
            state.lr = book.lr = self.lr(t)
            p = [np.zeros(n)]
            adam_step(state, p, self.grads(t))
            expected = textbook_adam_step(book, [np.zeros(n)], self.grads(t))
            np.testing.assert_allclose(p[0], expected[0], rtol=1e-12, atol=0)
            # the moments take the same operations in both forms
            assert_bit_equal(state.m, book.m)
            assert_bit_equal(state.v, book.v)
        assert state.step == self.STEPS

    def test_trajectory_matches_the_textbook_form(self):
        start = np.random.default_rng(10).uniform(-5, 5, size=self.SCALES.size)
        mine, book = [start.copy()], [start.copy()]
        state, book_state = AdamState(mine, self.lr(0)), AdamState(book, self.lr(0))
        for t in range(self.STEPS):
            state.lr = book_state.lr = self.lr(t)
            adam_step(state, mine, self.grads(t))
            book = textbook_adam_step(book_state, book, self.grads(t))
        np.testing.assert_allclose(mine[0], book[0], rtol=1e-12, atol=0)
        assert not np.array_equal(mine[0], start)


class TestAdamNoneGradient:
    """A ``None`` gradient is an all +0.0 one: in every case it gives the
    bits of an explicit ``np.zeros`` gradient in p, m and v."""

    # signed zeros, NaN, infinities, subnormals and ordinary values
    SPECIAL = np.array([-0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1e-310, 1.5, -3.0])
    # warm-up gradients, which give moments that are NaN, +-inf, subnormal
    # (from +-5e-323 and smaller), +0.0 or ordinary
    WARM = np.append(SPECIAL, [5e-323, -5e-323, 1e-320])
    WARM_STEPS = 3

    def params(self):
        rng = np.random.default_rng(6)
        # the second array is larger than a FreeTable run
        params = [rng.normal(size=(40, 3)), rng.normal(size=(ADAM_BLOCK // 3 + 50, 3))]
        for p in params:
            p[:3] = self.SPECIAL[:9].reshape(3, 3)
        return params

    def warm_grads(self, t, params):
        rng = np.random.default_rng([7, t])
        return [rng.choice(self.WARM, size=p.shape) for p in params]

    def warmed(self, params):
        """A state whose moments went through ``WARM_STEPS`` steps of
        ``WARM`` gradients: ``adam_step`` is the only way to special
        moments."""
        state = AdamState(params, 0.05)
        with np.errstate(all="ignore"):
            for t in range(self.WARM_STEPS):
                adam_step(state, params, self.warm_grads(t, params))
        return state

    def grads(self, t):
        g = np.random.default_rng([8, t]).normal(size=(40, 3))
        return [g if t % 3 == 2 else None, None]

    def run(self, make_state, steps=6):
        """``adam_step`` from one state with ``None`` gradients and from an
        equal state with those turned into zeros."""
        with_none, with_zeros = self.params(), self.params()
        state, zeros_state = make_state(with_none), make_state(with_zeros)
        with np.errstate(all="ignore"):
            for t in range(steps):
                gs = self.grads(t)
                adam_step(state, with_none, gs)
                zeros = [np.zeros(p.shape) if g is None else g for p, g in zip(with_zeros, gs)]
                adam_step(zeros_state, with_zeros, zeros)
        assert_bit_equal(with_none, with_zeros)
        assert_bit_equal(state.m, zeros_state.m)
        assert_bit_equal(state.v, zeros_state.v)
        assert state.zero == zeros_state.zero
        return with_none, state

    def test_special_moments(self):
        mine, state = self.run(self.warmed)
        assert state.zero == [False, False]
        # NaN, inf and subnormal moments stayed, and no zero moment is -0.0
        m = np.abs(state.m[1])
        assert np.isnan(state.v[1]).any() and np.isinf(m).any()
        assert ((m > 0) & (m < np.finfo(float).smallest_normal)).any()
        assert_no_negative_zero(state.m + state.v)
        # and both equal the allocating reference
        ref = self.params()
        ref_state = AdamState(ref, 0.05)
        with np.errstate(all="ignore"):
            for t in range(self.WARM_STEPS):
                ref = reference_adam_step(ref_state, ref, self.warm_grads(t, ref))
            for t in range(6):
                grads = [np.zeros(p.shape) if g is None else g for p, g in zip(ref, self.grads(t))]
                ref = reference_adam_step(ref_state, ref, grads)
        assert_bit_equal(mine, ref)
        assert_bit_equal(state.m, ref_state.m)
        assert_bit_equal(state.v, ref_state.v)

    def test_first_step_of_a_fresh_state_skips_the_run(self):
        start = self.params()
        params, state = self.run(lambda ps: AdamState(ps, 0.05), steps=2)
        # no gradient yet in either array: both skipped, flags still set
        assert state.zero == [True, True]
        assert_bit_equal(params, start)
        assert not state.m[1].view(np.uint64).any() and not state.v[1].view(np.uint64).any()
        params, state = self.run(lambda ps: AdamState(ps, 0.05), steps=5)
        assert state.zero == [False, True]
        assert params[1].tobytes() == start[1].tobytes()

    @pytest.mark.parametrize(
        "lr",
        [-0.0, 0.0, math.inf, math.nan, -0.05, -math.inf, pytest.param(10**400, id="lr=1e400")],
        ids=lambda lr: f"lr={lr}",
    )
    @pytest.mark.parametrize("moments", ["fresh", "special"])
    def test_learning_rates_outside_the_accepted_range_raise(self, lr, moments):
        params = self.params()
        state = self.warmed(params) if moments == "special" else AdamState(params, 0.05)
        state.lr = lr
        step, flags = state.step, list(state.zero)
        start = [p.copy() for p in params]
        m0, v0 = [m.copy() for m in state.m], [v.copy() for v in state.v]
        with pytest.raises(ConfigError, match="^adam_step needs a learning rate finite"):
            adam_step(state, params, [None, None])
        # refused before the sweep: no step counted, no flag or moment changed
        assert state.step == step and state.zero == flags
        assert_bit_equal(params, start)
        assert_bit_equal(state.m, m0)
        assert_bit_equal(state.v, v0)


class TestRowGradient:
    """A ``RowGradient`` stands for the dense array ``np.asarray`` gives, and
    ``adam_step`` on one gives the bits of that array: random schedules of
    real, zero, ``None`` and ``RowGradient`` gradients, a new learning rate
    every step, arrays of several sizes, and moments that start +0.0, NaN,
    +-inf, subnormal or ordinary."""

    def test_dense_array_holds_the_values_at_the_offset(self):
        g = RowGradient((4, 3), 3, np.array([[-0.0, 1.0, np.nan], [np.inf, 5e-324, 2.0]]))
        dense = np.asarray(g)
        expected = np.zeros((4, 3))
        expected[1:3] = g.values
        assert dense.shape == (4, 3) and dense.tobytes() == expected.tobytes()
        assert np.signbit(dense[1, 0]) and not np.signbit(dense[3]).any()
        assert np.count_nonzero(g) == 5  # what the benchmark's Adam counter reads
        assert np.asarray(g, dtype=np.float32).dtype == np.float32

    @pytest.mark.parametrize("offset, n", [(-1, 3), (10, 3), (0, 13), (13, 0)])
    def test_values_outside_the_shape_are_refused(self, offset, n):
        with pytest.raises(losses.DimensionMismatchError, match="do not fit shape"):
            RowGradient((4, 3), offset, np.ones(n))

    def test_adam_step_refuses_a_row_gradient_of_another_shape(self):
        params = [np.zeros((4, 3))]
        state = AdamState(params, 1e-4)
        with pytest.raises(losses.DimensionMismatchError):
            adam_step(state, params, [RowGradient((5, 3), 0, np.ones(3))])
        assert state.step == 0

    SPECIAL = TestAdamNoneGradient.SPECIAL
    WARM = TestAdamNoneGradient.WARM
    WARM_STEPS = TestAdamNoneGradient.WARM_STEPS
    SHAPES = [(40, 3), (1,), (250,), (33, 3), (5, 3), (70,)]
    STEPS = 40
    # gradient entries: signed zeros, subnormals, NaN and infinities
    EDGE = np.array([0.0, -0.0, 5e-324, -5e-324, 5e-323, -5e-323, np.nan, np.inf, -np.inf])

    def row_gradient(self, rng, shape):
        """A ``RowGradient`` of ``shape`` on no rows, every row, the first
        row, the last row or a random range (a row of a 1-D array is one
        entry), whose ordinary values hold some ``EDGE`` entries."""
        n, width = shape[0], math.prod(shape[1:])
        ranges = [(0, 0), (n, n), (0, n), (0, 1), (n - 1, n), sorted(rng.integers(0, n + 1, 2))]
        lo, hi = ranges[rng.integers(len(ranges))]
        values = rng.normal(scale=10.0 ** rng.integers(-6, 3), size=(hi - lo, width))
        edge = rng.random(values.shape) < 0.2
        values[edge] = rng.choice(self.EDGE, size=np.count_nonzero(edge))
        return RowGradient(shape, lo * width, values)

    def start(self, seed):
        """Parameters and a state after ``WARM_STEPS`` steps: arrays 0
        and 1 with +0.0 moments and their flags set, 2 with special moments,
        3 with the +0.0 moments of +-5e-324 gradients and its flag cleared,
        the others ordinary."""
        rng = np.random.default_rng([11, seed])
        params = [rng.normal(size=s) for s in self.SHAPES]
        params[2][:9] = self.SPECIAL[:9]
        state = AdamState(params, 1e-4)
        with np.errstate(all="ignore"):
            for _ in range(self.WARM_STEPS):
                grads = [None, np.full(self.SHAPES[1], -0.0)]
                grads.append(rng.choice(self.WARM, size=self.SHAPES[2]))
                grads.append(rng.choice([5e-324, -5e-324], size=self.SHAPES[3]))
                grads += [rng.normal(size=s) for s in self.SHAPES[4:]]
                adam_step(state, params, grads)
        assert state.zero[:4] == [True, True, False, False]
        assert not np.concatenate(state.m[3:4] + state.v[3:4]).view(np.uint64).any()
        return params, state

    def schedule(self, seed):
        """Per step: the learning rate and the gradients, some of them
        ``RowGradient``."""
        rng = np.random.default_rng([12, seed])
        steps = []
        for _ in range(self.STEPS):
            grads = []
            for shape in self.SHAPES:
                kind = rng.random()
                if kind < 0.25:
                    g = rng.normal(scale=10.0 ** rng.integers(-6, 3), size=shape)
                    if rng.random() < 0.2:
                        g.flat[rng.integers(g.size)] = rng.choice([np.nan, np.inf, -np.inf])
                elif kind < 0.35:
                    g = np.full(shape, rng.choice([0.0, -0.0]))
                elif kind < 0.5:
                    g = self.row_gradient(rng, shape)
                else:
                    g = None
                grads.append(g)
            steps.append((10.0 ** rng.uniform(-4, 0), grads))
        return steps

    @pytest.mark.parametrize("seed", range(4))
    def test_random_schedules_give_the_bits_of_the_dense_arrays(self, seed):
        """Steps on ``RowGradient`` inputs give the bits of steps on the
        dense arrays they stand for, at every step."""
        mine, state = self.start(seed)
        dense, dense_state = self.start(seed)
        rows = 0
        with np.errstate(all="ignore"):
            for lr, grads in self.schedule(seed):
                state.lr = dense_state.lr = lr
                adam_step(state, mine, grads)
                as_dense = [np.asarray(g) if isinstance(g, RowGradient) else g for g in grads]
                adam_step(dense_state, dense, as_dense)
                rows += sum(isinstance(g, RowGradient) for g in grads)
                assert state.zero == dense_state.zero and state.step == dense_state.step
                assert_bit_equal(mine, dense)
                assert_bit_equal(state.m, dense_state.m)
                assert_bit_equal(state.v, dense_state.v)
        assert rows > 20
        # the special and +-5e-324 moments went through real sweeps
        assert state.zero[2:] == [False] * (len(self.SHAPES) - 2)
        assert np.isnan(state.v[2]).any()

    def edge_schedule(self, seed):
        """Per step: a learning rate, gradients that mix ``EDGE`` entries
        into ordinary ones, hold only zeros and subnormals, are a
        ``RowGradient`` or are None."""
        rng = np.random.default_rng([13, seed])
        steps = []
        for _ in range(self.STEPS):
            grads = []
            for shape in self.SHAPES:
                kind = rng.random()
                if kind < 0.4:
                    g = rng.normal(scale=10.0 ** rng.integers(-6, 3), size=shape)
                    edge = rng.random(shape) < 0.05
                    g[edge] = rng.choice(self.EDGE, size=np.count_nonzero(edge))
                elif kind < 0.55:
                    g = rng.choice(self.EDGE[:6], size=shape)
                elif kind < 0.7:
                    g = self.row_gradient(rng, shape)
                else:
                    g = None
                grads.append(g)
            steps.append((10.0 ** rng.uniform(-4, 0), grads))
        return steps

    @pytest.mark.parametrize("seed", range(4))
    def test_no_moment_is_ever_negative_zero(self, seed):
        """From fresh states, ``adam_step`` and the allocating reference,
        which reads each ``RowGradient`` as its dense array, agree bit for
        bit at every step, and no zero moment ever has its sign bit set."""
        start = [np.random.default_rng([14, seed]).normal(size=s) for s in self.SHAPES]
        mine, ref = ([p.copy() for p in start] for _ in range(2))
        state, ref_state = (AdamState(ps, 1e-4) for ps in (mine, ref))
        subnormal = False
        with np.errstate(all="ignore"):
            for lr, grads in self.edge_schedule(seed):
                state.lr = ref_state.lr = lr
                adam_step(state, mine, grads)
                zeros = [
                    np.zeros(p.shape) if g is None else np.asarray(g) for p, g in zip(ref, grads)
                ]
                ref = reference_adam_step(ref_state, ref, zeros)
                assert_bit_equal(mine, ref)
                assert_bit_equal(state.m, ref_state.m)
                assert_bit_equal(state.v, ref_state.v)
                assert_no_negative_zero(state.m + state.v)
                m = np.abs(np.concatenate([m.ravel() for m in state.m]))
                subnormal |= bool(((m > 0) & (m < np.finfo(float).smallest_normal)).any())
        assert subnormal

    def good_call(self):
        """Gradients that sweep every array of ``start``: ``RowGradient``s
        on arrays 0 and 2, ones elsewhere."""
        grads = [np.ones(s) for s in self.SHAPES]
        grads[0] = RowGradient(self.SHAPES[0], 3, np.full((2, 3), 0.5))
        grads[2] = RowGradient(self.SHAPES[2], 10, np.full((5, 1), -2.0))
        return grads

    @pytest.mark.parametrize(
        "bad, error, message",
        [
            # the bad entry sits after arrays that a lazy check would have swept
            pytest.param(
                lambda ps, gs: ([*ps[:-1], ps[-1].astype(np.float32)], gs),
                ValueError, "must be C-contiguous float64$", id="float32-last-param",
            ),
            pytest.param(
                lambda ps, gs: ([*ps[:-1], np.ones((70, 2))[:, 0]], gs),
                ValueError, "must be C-contiguous float64$", id="strided-last-param",
            ),
            pytest.param(
                lambda ps, gs: (ps[:-1], gs[:-1]),
                losses.DimensionMismatchError, "differ in count or shape$", id="fewer-arrays",
            ),
            pytest.param(
                lambda ps, gs: ([*ps, np.ones(3)], [*gs, np.ones(3)]),
                losses.DimensionMismatchError, "differ in count or shape$", id="more-arrays",
            ),
            pytest.param(
                lambda ps, gs: ([*ps[:-1], ps[-1].reshape(7, 10)], gs),
                losses.DimensionMismatchError, "differ in count or shape$", id="reshaped-last-param",
            ),
            pytest.param(
                lambda ps, gs: (ps, gs[:-1]),
                losses.DimensionMismatchError, "differ in count or shape$", id="fewer-gradients",
            ),
            pytest.param(
                lambda ps, gs: (ps, [*gs[:-1], np.ones(71)]),
                losses.DimensionMismatchError, "differ in count or shape$", id="longer-last-gradient",
            ),
            pytest.param(
                lambda ps, gs: (ps, [*gs[:-1], RowGradient((71,), 0, np.ones((3, 1)))]),
                losses.DimensionMismatchError, "differ in count or shape$",
                id="row-gradient-of-another-shape-last",
            ),
            pytest.param(
                lambda ps, gs: (ps, [gs[0], RowGradient((2,), 0, np.ones((1, 1))), *gs[2:]]),
                losses.DimensionMismatchError, "differ in count or shape$",
                id="row-gradient-of-another-shape-on-a-skipped-array",
            ),
            pytest.param(
                None, ConfigError, "^adam_step needs a learning rate finite", id="lr=nan",
            ),
        ],
    )
    def test_bad_call_is_refused_before_anything_changes(self, bad, error, message):
        """A refused call counts no step and changes no flag, parameter or
        moment, wherever its bad entry sits, and the next good step gives
        the bits of a state that never saw it."""
        params, state = self.start(0)
        clean, clean_state = self.start(0)
        before = [p.copy() for p in params], [m.copy() for m in state.m], [v.copy() for v in state.v]
        flags = list(state.zero)
        if bad is None:
            state.lr = math.nan
            args = params, self.good_call()
        else:
            args = bad(params, self.good_call())
        with pytest.raises(error, match=message):
            adam_step(state, *args)
        assert state.step == self.WARM_STEPS and state.zero == flags
        for now, then in zip((params, state.m, state.v), before):
            assert_bit_equal(now, then)
        state.lr = clean_state.lr
        with np.errstate(all="ignore"):
            adam_step(state, params, self.good_call())
            adam_step(clean_state, clean, self.good_call())
        assert state.zero == clean_state.zero == [False] * len(self.SHAPES)
        assert_bit_equal(params, clean)
        assert_bit_equal(state.m, clean_state.m)
        assert_bit_equal(state.v, clean_state.v)


def test_lr_halves_at_each_boundary():
    cfg = TrainConfig(iterations=100, lr=0.08)
    expected = {0: 0.08, 59: 0.08, 60: 0.04, 79: 0.04, 80: 0.02, 89: 0.02, 90: 0.01, 99: 0.01}
    assert {t: schedule_at(cfg, t) for t in expected} == {
        t: ("angle", lr) for t, lr in expected.items()
    }
    long = TrainConfig(iterations=20000, lr=1.0)
    assert [schedule_at(long, t)[1] for t in (11999, 12000, 15999, 16000, 17999, 18000)] == [
        1.0, 0.5, 0.5, 0.25, 0.25, 0.125,
    ]


@pytest.mark.parametrize("iterations", [4, 10, 90, 250])
@pytest.mark.parametrize("f", [0.25, 0.6, 0.7, 0.8, 0.9])
def test_phase_and_halving_start_at_the_first_iteration_reaching_their_fraction(
    iterations, f, monkeypatch
):
    """A phase starting at f and a halving at f both first apply at the first
    t with t / T >= f, the exact decimal boundary ceil(f * T): 63 of 90 for
    0.7, where int(0.7 * 90) is 62, and 3 of 10 for 0.25."""
    monkeypatch.setitem(regressor.MODES, "angle", ((0.0, "angle"), (f, "reproj")))
    monkeypatch.setattr(regressor, "LR_HALVINGS", (f,))
    cfg = TrainConfig(iterations=iterations, lr=1.0)
    first = math.ceil(Fraction(str(f)) * iterations)
    assert [schedule_at(cfg, t) for t in range(iterations)] == (
        [("angle", 1.0)] * first + [("reproj", 0.5)] * (iterations - first)
    )


class TestPatchMLP:
    def test_weights_are_views_of_the_flat_vector(self):
        net = PatchMLP.init((4, 5, 3), seed=0)
        assert [p.size for p in net.param_list()] == [4 * 5 + 5 + 5 * 3 + 3]
        net.params[:] = 0.0
        assert not np.any(net.weights[0]) and not np.any(net.biases[-1])
        assert np.all(net.forward(np.ones((2, 4))) == 0.0)

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        net = PatchMLP.init((4, 6, 5, 3), seed=1)
        net.params[:] += rng.normal(scale=0.1, size=net.params.shape)  # nonzero biases
        x = rng.normal(size=(7, 4))
        up = rng.normal(size=(7, 3))
        _, acts = net.forward_cached(x)
        (grad,) = net.backward(acts, up)
        assert grad.shape == net.params.shape
        h = 1e-6
        numeric = np.empty_like(grad)
        for i in range(net.params.size):
            keep = net.params[i]
            net.params[i] = keep + h
            hi = np.sum(up * net.forward(x))
            net.params[i] = keep - h
            lo = np.sum(up * net.forward(x))
            net.params[i] = keep
            numeric[i] = (hi - lo) / (2 * h)
        np.testing.assert_allclose(grad, numeric, rtol=1e-6, atol=1e-8)

    @pytest.mark.parametrize(
        "sizes",
        [(), (16,), (16, 4, 2), (16, 0, 3), (16, 4.0, 3)],
        ids=["none", "input-only", "2-outputs", "empty-layer", "float-size"],
    )
    def test_sizes_that_are_no_network_raise_naming_them(self, sizes):
        # () raised a bare IndexError when the network was built from its layers
        with pytest.raises(losses.DimensionMismatchError) as err:
            PatchMLP(sizes, [])
        assert str(err.value) == (
            f"layer sizes {sizes} are not integers > 0 from an input to 3 outputs"
        )

    @pytest.mark.parametrize("n", [82, 84])
    def test_params_of_another_count_raise(self, n):
        with pytest.raises(losses.DimensionMismatchError) as err:
            PatchMLP((16, 4, 3), np.zeros(n))
        assert str(err.value) == (
            f"params of shape ({n},) are not the 83 values of layer sizes (16, 4, 3)"
        )

    def test_holds_a_copy_of_its_params(self):
        params = np.arange(83.0)
        net = PatchMLP((16, 4, 3), params)
        params[0] = -1.0
        assert net.params[0] == 0.0 and net.weights[0][0, 1] == 1.0 and net.biases[-1][2] == 82.0

    @pytest.mark.parametrize(
        "shape", [(16,), (2, 2, 16), (3, 8), ()], ids=["flat", "3-d", "narrow", "scalar"]
    )
    def test_descriptors_that_are_not_rows_of_the_input_width_raise(self, shape):
        # (16,) and () raised a bare IndexError; (2, 2, 16) was read as length 2
        net = PatchMLP.init((16, 4, 3))
        with pytest.raises(losses.DimensionMismatchError) as err:
            net.forward(np.zeros(shape))
        assert str(err.value) == f"descriptors of shape {shape} are not (N, 16) rows"


class TestFreeTable:
    def test_init_rows_match_the_image_point_mapping(self, room):
        table = FreeTable(room, seed=5)
        # the mapping the table was once built as: every image in id order,
        # each image's points in the dataset's order, one uniform draw
        drawn, n = {}, 0
        for image_id in sorted(room.observations):
            for k in room.observations[image_id].point_ids:
                drawn[(image_id, int(k))] = n
                n += 1
        all_gt = np.concatenate([o.gt_coords for o in room.observations.values()])
        lo, hi = all_gt.min(axis=0), all_gt.max(axis=0)
        center, half = (lo + hi) / 2, (hi - lo) / 2
        draw = np.random.default_rng(5).uniform(center - 2 * half, center + 2 * half, (n, 3))
        # the train views keep their rows of that draw, in order
        train = set(room.train_ids)
        expected = {key: r for r, key in enumerate(k for k in drawn if k[0] in train)}
        got = {
            (image_id, int(k)): r
            for image_id in room.train_ids
            for k, r in zip(
                table.point_ids[image_id],
                range(len(table.coords))[table.predict_image(room, image_id)[1][0]],
            )
        }
        assert got == expected
        assert table.coords.shape == (len(expected), 3)
        kept = [drawn[key] for key in expected]
        assert table.coords.tobytes() == draw[kept].tobytes()
        # the table keeps each train view's point ids, in table order
        assert [(i, ids.tolist()) for i, ids in table.point_ids.items()] == [
            (i, room.observations[i].point_ids.tolist()) for i in sorted(train)
        ]
        for image_id in room.train_ids:
            obs = room.observations[image_id]
            rows = [drawn[(image_id, int(k))] for k in obs.point_ids]
            assert table.predict_image(room, image_id)[0].tobytes() == draw[rows].tobytes()

    def test_unknown_image_raises_index_mismatch(self, room):
        table = FreeTable(room)
        missing = max(room.observations) + 1
        with pytest.raises(losses.IndexMismatchError, match=f"image {missing}"):
            table.predict_image(room, missing)

    def test_other_point_ids_raise_index_mismatch(self, room):
        image_id = room.train_ids[0]
        table = FreeTable(room)
        table.point_ids[image_id] = table.point_ids[image_id] + 1
        with pytest.raises(losses.IndexMismatchError, match=f"image {image_id}"):
            table.predict_image(room, image_id)
        table.point_ids[image_id] = table.point_ids[image_id][:-1]
        with pytest.raises(losses.IndexMismatchError, match=f"image {image_id}"):
            table.predict_image(room, image_id)

    def test_held_out_view_raises_naming_it(self, room):
        table = FreeTable(room)
        held_out = room.test_ids[0]
        with pytest.raises(losses.IndexMismatchError) as err:
            table.predict_image(room, held_out)
        assert str(err.value) == f"FreeTable has no rows for image {held_out}"

    def test_room_whose_train_views_see_no_point_raises(self, pointless_room):
        with pytest.raises(ConfigError, match="^FreeTable has no rows: no train view of the room"):
            FreeTable(pointless_room)

    def test_gradient_buffer_holds_only_the_last_image(self, room):
        table = FreeTable(room)
        a, b = room.train_ids[:2]
        preds_a, ctx_a = table.predict_image(room, a)
        preds_b, ctx_b = table.predict_image(room, b)
        table.grads_for_image(ctx_a, np.ones_like(preds_a))
        (g,) = table.grads_for_image(ctx_b, np.full_like(preds_b, 2.0))
        expected = np.zeros_like(table.coords)
        expected[ctx_b[0]] = 2.0
        assert np.asarray(g).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("shape", [(0, 3), (1, 3), (5, 2), (5,)])
    def test_gradient_of_other_rows_raises_dimension_mismatch(self, room, shape):
        table = FreeTable(room)
        preds, ctx = table.predict_image(room, room.train_ids[0])
        shape = (len(preds) + 1, 3) if shape == (1, 3) else shape
        with pytest.raises(losses.DimensionMismatchError, match=f"{len(preds)} rows$"):
            table.grads_for_image(ctx, np.ones(shape))


class TestEvaluateCoords:
    def test_ground_truth_lookup_gives_zero_error(self, room):
        assert evaluate_coords(GtLookup(), room) == (0.0, 0.0)
        assert evaluate_coords(GtLookup(), room, room.test_ids) == (0.0, 0.0)

    @pytest.mark.parametrize(
        "model",
        [
            lambda room: GtLookup(),
            lambda room: FreeTable(room),
            lambda room: PatchMLP.init((scenegen.DESCRIPTOR_DIM, 4, 3)),
        ],
        ids=["gt_lookup", "free_table", "patch_mlp"],
    )
    def test_image_the_dataset_lacks_raises_naming_it(self, room, model):
        # GtLookup and PatchMLP raised a bare KeyError
        ids = [room.train_ids[0], 99, 100]
        with pytest.raises(losses.IndexMismatchError) as err:
            evaluate_coords(model(room), room, ids)
        assert str(err.value) == "evaluate_coords: the dataset has no image 99"

    def test_no_image_ids_raises(self, room):
        with pytest.raises(losses.IndexMismatchError, match="at least one image id"):
            evaluate_coords(GtLookup(), room, [])

    def test_images_without_observation_rows_raise(self):
        room = build_dataset(DatasetConfig(seed=0, n_points=3, n_images=8, min_visible=0))
        assert [len(room.observations[i].point_ids) for i in (0, 1, 5)] == [0, 0, 1]
        with pytest.raises(
            losses.IndexMismatchError, match="^evaluate_coords: the 2 images hold no observation row$"
        ):
            evaluate_coords(GtLookup(), room, [0, 1])
        # one row among the given images is enough
        assert evaluate_coords(GtLookup(), room, [0, 1, 5]) == (0.0, 0.0)

    def test_median_and_mean_over_the_given_views(self, room):
        table = FreeTable(room, seed=4)
        ids = room.train_ids[2:5]
        errs = np.concatenate(
            [table.predict_image(room, i)[0] - room.observations[i].gt_coords for i in ids]
        )
        errs = np.linalg.norm(errs, axis=1)
        assert evaluate_coords(table, room, ids) == (np.median(errs), np.mean(errs))

    def test_free_table_over_a_held_out_view_raises(self, room):
        table = FreeTable(room)
        first = min(room.test_ids)
        with pytest.raises(losses.IndexMismatchError, match=f"no rows for image {first}"):
            evaluate_coords(table, room)
        with pytest.raises(losses.IndexMismatchError):
            evaluate_coords(table, room, [room.train_ids[0], room.test_ids[-1]])


class TestFreeTableRuns:
    """``param_list`` cuts the table into image-aligned runs for Adam."""

    def check_runs(self, table, room):
        views = table.param_list()
        sizes = [len(v) for v in views]
        assert sum(sizes) == len(table.coords)
        for k, v in enumerate(views):
            v[...] = k  # views write through, cover every row once, in order
        assert np.array_equal(table.coords[:, 0], np.repeat(np.arange(len(views)), sizes))
        starts = set(np.cumsum([0] + sizes[:-1]).tolist())
        records = self.records(table, room)
        for rows, run in records.values():
            # no image straddles a cut, and its record names its run
            assert np.array_equal(table.coords[rows, 0], np.full(rows.stop - rows.start, run))
        firsts = {rows.start for rows, run in records.values() if run is not None}
        assert starts <= firsts | {0}
        return views

    @staticmethod
    def records(table, room):
        """Each train view's ``(rows, run)``, read from ``predict_image``."""
        return {i: table.predict_image(room, i)[1] for i in room.train_ids}

    # 60: every train view is over the bound, one run each; 150: mostly pairs
    @pytest.mark.parametrize("block, n_runs", [(60, 9), (150, 6), (10**6, 1)])
    def test_runs_are_image_aligned_and_bounded(self, room, monkeypatch, block, n_runs):
        monkeypatch.setattr(regressor, "ADAM_BLOCK", block)
        table = FreeTable(room, seed=1)
        views = self.check_runs(table, room)
        assert len(views) == n_runs
        records = self.records(table, room).values()
        for k, v in enumerate(views):
            images = [rows for rows, run in records if run == k]
            assert v.size <= block or len(images) == 1

    def test_gradient_views_match_the_parameter_views(self, room, monkeypatch):
        monkeypatch.setattr(regressor, "ADAM_BLOCK", 150)
        table = FreeTable(room)
        image_id = room.train_ids[3]
        preds, ctx = table.predict_image(room, image_id)
        grads = table.grads_for_image(ctx, np.full_like(preds, 2.0))
        params = table.param_list()
        # one run holds the image; every other run's gradient is None, +0.0
        assert sum(g is not None for g in grads) == 1
        dense = [np.zeros(p.shape) if g is None else np.asarray(g) for g, p in zip(grads, params)]
        assert [g.shape for g in dense] == [p.shape for p in params]
        assert [g.shape for g in grads if g is not None] == [
            p.shape for g, p in zip(grads, params) if g is not None
        ]
        expected = np.zeros_like(table.coords)
        expected[ctx[0]] = 2.0
        assert np.concatenate(dense).tobytes() == expected.tobytes()
        (held,) = [g for g in grads if g is not None]
        assert np.asarray(held).dtype == np.float64 and np.asarray(held).flags.c_contiguous
        kept = np.asarray(held).copy()
        # the next image's gradient holds that image only, and leaves the
        # gradient returned before it as it was
        preds_b, ctx_b = table.predict_image(room, room.train_ids[0])
        again = table.grads_for_image(ctx_b, np.ones_like(preds_b))
        assert sum(g is not None for g in again) == 1
        dense = [np.zeros(p.shape) if g is None else np.asarray(g) for g, p in zip(again, params)]
        assert np.count_nonzero(np.concatenate(dense)) == preds_b.size
        assert np.asarray(held).tobytes() == kept.tobytes()

    @pytest.fixture(scope="class")
    def sparse_room(self):
        """A room whose train views 0, 6 and 10 see no point."""
        room = build_dataset(DatasetConfig(seed=1, n_points=10, n_images=12, min_visible=0))
        empty = [i for i in room.train_ids if len(room.observations[i].point_ids) == 0]
        assert empty == [0, 6, 10]
        return room

    @pytest.mark.parametrize("block", [6, 60, ADAM_BLOCK])
    def test_a_view_without_observations_reads_and_writes_no_run(
        self, sparse_room, monkeypatch, block
    ):
        monkeypatch.setattr(regressor, "ADAM_BLOCK", block)
        table = FreeTable(sparse_room)
        for image_id in (0, 6, 10):
            preds, ctx = table.predict_image(sparse_room, image_id)
            assert preds.shape == (0, 3)
            grads = table.grads_for_image(ctx, np.zeros((0, 3)))
            assert len(grads) == len(table.param_list()) and all(g is None for g in grads)

    @pytest.mark.parametrize("block, n_runs", [(6, 4), (60, 1), (ADAM_BLOCK, 1)])
    @pytest.mark.parametrize("mode", ["angle", "angle-multi", "const-depth-reproj"])
    def test_train_over_views_without_observations_matches_the_reference_adam(
        self, sparse_room, monkeypatch, mode, block, n_runs
    ):
        cfg = TrainConfig(mode=mode, iterations=40, lr=0.05, checkpoint_every=10, seed=2)
        with monkeypatch.context() as patch:
            patch.setattr(regressor, "adam_step", _reference_in_place)
            ref_model, ref_log = train(sparse_room, "free_table", cfg)
        monkeypatch.setattr(regressor, "ADAM_BLOCK", block)
        drawn = []
        predict = FreeTable.predict_image

        def spy(table, dataset, image_id):
            drawn.append(image_id)
            return predict(table, dataset, image_id)

        monkeypatch.setattr(FreeTable, "predict_image", spy)
        model, log = train(sparse_room, "free_table", cfg)
        assert {0, 6, 10} <= set(drawn)
        assert model.coords.tobytes() == ref_model.coords.tobytes()
        assert [repr(astuple(r)[:-1]) for r in log.records] == [
            repr(astuple(r)[:-1]) for r in ref_log.records
        ]
        assert len(self.check_runs(model, sparse_room)) == n_runs


def _reference_in_place(state, params, grads):
    """The reference Adam, in place, with each ``None`` gradient turned into
    +0.0 zeros and every other one read through ``np.asarray``."""
    grads = [np.zeros(p.shape) if g is None else np.asarray(g) for p, g in zip(params, grads)]
    for p, new in zip(params, reference_adam_step(state, params, grads)):
        p[...] = new


@pytest.mark.parametrize("block", [60, 150])  # one image per run; two per run
@pytest.mark.parametrize(
    "mode", ["reproj", "angle", "angle-multi", "const-depth-reproj", "angle-photo"]
)
def test_train_with_skipped_runs_matches_the_reference_adam(request, monkeypatch, mode, block):
    room = request.getfixturevalue("rendered_room" if mode == "angle-photo" else "room")
    cfg = TrainConfig(mode=mode, iterations=40, lr=0.05, checkpoint_every=10, seed=2)
    with monkeypatch.context() as patch:
        patch.setattr(regressor, "adam_step", _reference_in_place)
        ref_model, ref_log = train(room, "free_table", cfg)
    monkeypatch.setattr(regressor, "ADAM_BLOCK", block)
    steps, states, lockstep = [], [], []

    def spy(state, params, grads):
        if not lockstep:  # the reference Adam, from the same start
            ref_params = [p.copy() for p in params]
            lockstep.extend((ref_params, AdamState(ref_params, state.lr)))
        ref_params, ref_state = lockstep
        ref_state.lr = state.lr
        adam_step(state, params, grads)
        _reference_in_place(ref_state, ref_params, grads)
        # every run, drawn or not, is current after every step
        assert_bit_equal(params, ref_params)
        assert_bit_equal(state.m, ref_state.m)
        assert_bit_equal(state.v, ref_state.v)
        steps.append(list(state.zero))
        states.append(state)

    monkeypatch.setattr(regressor, "adam_step", spy)
    model, log = train(room, "free_table", cfg)
    assert model.coords.tobytes() == ref_model.coords.tobytes()
    assert [repr(astuple(r)[:-1]) for r in log.records] == [
        repr(astuple(r)[:-1]) for r in ref_log.records
    ]
    # several runs; the first step skips every run but the drawn image's,
    # and a run's flag, once cleared, stays cleared
    n_runs = len(model.param_list())
    assert n_runs > 2 and sum(steps[0]) == n_runs - 1
    assert all(a >= b for before, after in zip(steps, steps[1:]) for a, b in zip(before, after))
    assert len(steps) == cfg.iterations and len({id(s) for s in states}) == 1


@pytest.fixture(scope="module")
def pointless_room():
    """A room in which no view sees a point."""
    room = build_dataset(DatasetConfig(seed=0, n_points=1, n_images=8, min_visible=0))
    assert len(room.train_ids) == 6
    assert not any(len(obs.point_ids) for obs in room.observations.values())
    return room


@pytest.mark.parametrize("kind", ["free_table", "patch_mlp"])
def test_room_whose_train_views_see_no_point_raises_config_error(pointless_room, kind):
    with pytest.raises(ConfigError, match="^the room's 6 train views see no point to train on$"):
        train(pointless_room, kind, TrainConfig(iterations=5))


@pytest.mark.parametrize("kind", ["free_table", "patch_mlp"])
def test_room_without_train_views_raises_config_error(kind):
    ds = build_dataset(DatasetConfig(seed=3, n_points=300, n_images=12, test_every=1))
    assert ds.train_ids == []
    with pytest.raises(ConfigError, match="no train views: all 12 views are held out"):
        train(ds, kind, TrainConfig(iterations=5))


def test_multiview_free_table_converges(monkeypatch):
    """Adam brings a FreeTable under the multi-view loss from an 11-unit
    median error to under 0.3 on its train views. Train seeds 1-8 of this
    room end between 0.04 and 0.14 with today's Adam and with Adam's printed
    form; a lazy Adam that does not decay the moments of untouched runs
    ends near 3, and one that folds ``bc2`` rather than its sqrt into the
    learning rate near 0.5. The small block cuts the table into several
    runs, so untouched runs get ``None`` gradients and skips, as in a dense
    room."""
    monkeypatch.setattr(regressor, "ADAM_BLOCK", 150)
    ds = build_dataset(DatasetConfig(seed=4, n_points=300, n_images=12))
    cfg = TrainConfig(mode="angle-multi", iterations=3000, lr=0.05, seed=1, checkpoint_every=0)
    model, log = train(ds, "free_table", cfg)
    assert len(model.param_list()) > 2
    assert evaluate_coords(FreeTable(ds, seed=[1, 12]), ds, ds.train_ids)[0] > 10
    assert log.final.median_err < 0.3


@pytest.mark.parametrize("room_seed", [1, 2, 3])
def test_angle_from_scratch_comes_in_front_where_reproj_stays_behind(room_seed):
    """The paper's headline claim on small fixed rooms: from a random table
    the plain reprojection loss leaves about half of the train rows behind
    their camera (0.53-0.58 on rooms 1-8, the same at 300 iterations), and
    the angle loss brings them in front (at most 0.017 behind on rooms
    1-8). The share counts every train row at the end, where
    ``log.final.behind_frac`` covers the last image only. ``min_visible``
    10 lets every room of 1-8 place its views."""
    ds = build_dataset(DatasetConfig(seed=room_seed, n_points=300, n_images=12, min_visible=10))

    def behind_share(mode):
        cfg = TrainConfig(mode=mode, iterations=1000, lr=0.05, seed=1, checkpoint_every=0)
        model, _ = train(ds, "free_table", cfg)
        depths = [
            ds.poses[i].world_to_camera(model.predict_image(ds, i)[0])[:, 2] for i in ds.train_ids
        ]
        return np.mean(np.concatenate(depths) < 0)

    assert behind_share("reproj") >= 0.4
    assert behind_share("angle") <= 0.05


@pytest.mark.parametrize(
    "mode", ["reproj", "angle", "angle-multi", "const-depth-reproj", "angle-photo"]
)
def test_free_table_draws_no_descriptor(monkeypatch, mode):
    """A FreeTable has no appearance input: building its room, training it
    and evaluating it draw neither the base descriptors nor any view's."""

    def drawn(*args):
        raise AssertionError("a descriptor was drawn")

    monkeypatch.setattr(scenegen.DescriptorSource, "base", property(drawn))
    monkeypatch.setattr(scenegen.DescriptorSource, "view", drawn)
    ds = build_dataset(DatasetConfig(seed=3, n_points=300, n_images=12, render_images=True))
    cfg = TrainConfig(mode=mode, iterations=40, lr=0.05, checkpoint_every=10, seed=1)
    model, _ = train(ds, "free_table", cfg)
    evaluate_coords(model, ds, ds.train_ids)
    with pytest.raises(AssertionError, match="a descriptor was drawn"):
        ds.observations[ds.test_ids[0]].descriptors


@pytest.fixture(scope="module")
def rendered_room():
    return build_dataset(DatasetConfig(seed=3, n_points=300, n_images=12, render_images=True))


@pytest.fixture(scope="module")
def uncorresponded_room():
    cfg = DatasetConfig(seed=3, n_points=300, n_images=12, covis_keep_fraction=0.0)
    return build_dataset(cfg)


@pytest.mark.parametrize("kind", ["free_table", "patch_mlp"])
class TestModeDispatch:
    """Each mode reaches its own loss through ``train``: modes that reduce to
    another give the same parameter bytes and log values. The learning rate
    is high enough for PatchMLP to bring points into the photometric
    neighbor's view within the run."""

    def run(self, ds, kind, **cfg):
        model, log = train(
            ds, kind, TrainConfig(iterations=60, lr=0.05, checkpoint_every=20, seed=1, **cfg)
        )
        params = b"".join(p.tobytes() for p in model.param_list())
        return params, [repr(astuple(r)[:-1]) for r in log.records]

    def test_photo_at_zero_weight_is_angle(self, rendered_room, kind):
        off = LossConfig(lambda_photo=0.0)
        photo = self.run(rendered_room, kind, mode="angle-photo", loss=off)
        assert photo == self.run(rendered_room, kind, mode="angle")

    def test_photo_at_default_weight_differs_from_angle(self, rendered_room, kind):
        photo = self.run(rendered_room, kind, mode="angle-photo")
        angle = self.run(rendered_room, kind, mode="angle")
        assert photo[0] != angle[0] and photo[1] != angle[1]

    def test_const_depth_without_init_phase_is_reproj(self, rendered_room, kind, monkeypatch):
        # a const-depth phase of no iterations: reproj from the first one
        phases = ((0.0, "const-depth"), (0.0, "reproj"))
        monkeypatch.setitem(regressor.MODES, "const-depth-reproj", phases)
        const = self.run(rendered_room, kind, mode="const-depth-reproj")
        assert const == self.run(rendered_room, kind, mode="reproj")

    def test_multi_without_correspondences_is_angle(self, uncorresponded_room, kind):
        multi = self.run(uncorresponded_room, kind, mode="angle-multi")
        assert multi == self.run(uncorresponded_room, kind, mode="angle")

    def test_multi_never_reads_the_test_views(self, rendered_room, kind):
        ds = rendered_room
        rng = np.random.default_rng(4)
        poses, observations = dict(ds.poses), dict(ds.observations)
        for i in ds.test_ids:
            poses[i] = ds.poses[ds.train_ids[0]]
            pixels = rng.uniform(0, 59, size=ds.observations[i].pixels.shape)
            observations[i] = replace(ds.observations[i], pixels=pixels)
        swapped = replace(ds, poses=poses, observations=observations)
        multi = self.run(ds, kind, mode="angle-multi")
        assert multi == self.run(swapped, kind, mode="angle-multi")
        assert multi != self.run(ds, kind, mode="angle")


class TestModes:
    """``MODES`` is the one table of training modes: ``TrainConfig`` accepts
    its keys, and ``train`` runs each row's phases."""

    def test_every_row_is_phases_from_zero_in_ascending_order(self):
        assert list(regressor.MODES) == [
            "reproj", "angle", "angle-multi", "angle-photo", "const-depth-reproj"
        ]
        for phases in regressor.MODES.values():
            starts = [start for start, _ in phases]
            assert starts[0] == 0.0 and starts == sorted(starts)
            assert all(0 <= start < 1 for start in starts)
        assert regressor.MODES["const-depth-reproj"] == ((0.0, "const-depth"), (0.25, "reproj"))

    def test_every_loss_a_row_names_trains(self, rendered_room, monkeypatch):
        names = {name for phases in regressor.MODES.values() for _, name in phases}
        assert names == {"reproj", "angle", "angle-multi", "angle-photo", "const-depth"}
        cfg = TrainConfig(iterations=2, lr=0.05, checkpoint_every=0)
        for name in names:
            monkeypatch.setitem(regressor.MODES, "angle", ((0.0, name),))
            train(rendered_room, "free_table", cfg)
        monkeypatch.setitem(regressor.MODES, "angle", ((0.0, "nope"),))
        with pytest.raises(KeyError, match="nope"):
            train(rendered_room, "free_table", cfg)

    def test_unknown_mode_is_refused_naming_every_mode(self):
        with pytest.raises(ConfigError) as err:
            TrainConfig(mode="nope")
        assert str(err.value) == (
            "mode must be one of ['reproj', 'angle', 'angle-multi', 'angle-photo', "
            "'const-depth-reproj'], got 'nope'"
        )

    def test_const_depth_phase_ends_at_the_first_iteration_reaching_its_share(
        self, room, monkeypatch
    ):
        """Of 10 iterations, const-depth-reproj regresses the constant-depth
        targets in 3, the iterations t with t / 10 < 0.25 (int(0.25 * 10)
        would give 2), then trains the reprojection loss."""
        losses_at = []
        targets, reproj = regressor.constant_depth_targets, regressor.reproj_terms

        def spy_targets(*args):
            losses_at.append("const-depth")
            return targets(*args)

        def spy_reproj(*args):
            losses_at.append("reproj")
            return reproj(*args)

        monkeypatch.setattr(regressor, "constant_depth_targets", spy_targets)
        monkeypatch.setattr(regressor, "reproj_terms", spy_reproj)
        cfg = TrainConfig(mode="const-depth-reproj", iterations=10, lr=0.05, checkpoint_every=0)
        train(room, "free_table", cfg)
        assert losses_at == ["const-depth"] * 3 + ["reproj"] * 7


class TestTracedLookups:
    """What the benchmark's span wrappers rely on: they replace
    ``angle_terms`` in ``regressor`` and in ``losses`` (and
    ``multiview_image_loss`` in ``regressor``), and count ``len(args[2])``
    points per ``angle_terms`` call. So every call goes through those module
    globals, with the predictions as the third positional argument."""

    @staticmethod
    def counting(monkeypatch, owner, name):
        calls, real = [], getattr(owner, name)

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
        return calls

    def test_multiview_loss_makes_two_calls(self, room, monkeypatch):
        train_ids = room.train_ids
        index = losses.build_multiview_index(
            room.poses, {i: room.observations[i] for i in train_ids}, room.covis.corresponded
        )
        image_id = train_ids[0]
        rows, _ = index.draw(image_id, np.random.default_rng(0))
        assert len(rows) > 0
        preds = room.observations[image_id].gt_coords + 0.25
        calls = self.counting(monkeypatch, losses, "angle_terms")
        losses.multiview_image_loss(
            room.intrinsics, index, image_id, preds, rng=np.random.default_rng(0)
        )
        assert [len(args) for args in calls] == [5, 5]
        assert calls[0][2].tobytes() == preds.tobytes()
        assert calls[1][2].shape == (len(rows), 3)

    def test_angle_training_calls_once_per_iteration(self, room, monkeypatch):
        calls = self.counting(monkeypatch, regressor, "angle_terms")
        train(room, "free_table", TrainConfig(mode="angle", iterations=7, lr=0.05, seed=1))
        assert len(calls) == 7
        for args in calls:
            assert args[2].shape == (len(args[3]), 3)

    def test_multiview_training_goes_through_both_modules(self, room, monkeypatch):
        outer = self.counting(monkeypatch, regressor, "multiview_image_loss")
        inner = self.counting(monkeypatch, losses, "angle_terms")
        direct = self.counting(monkeypatch, regressor, "angle_terms")
        cfg = TrainConfig(mode="angle-multi", iterations=7, lr=0.05, seed=1)
        train(room, "free_table", cfg)
        assert len(outer) == 7 and direct == []
        # one pass in the view itself, one in the neighbors of its corresponded rows
        assert 7 < len(inner) <= 14


@pytest.mark.parametrize("kind", ["free_table", "patch_mlp"])
@pytest.mark.parametrize("mode", list(regressor.MODES))
def test_a_step_derives_no_ray_angle_and_statuses_only_for_a_record(
    rendered_room, monkeypatch, kind, mode
):
    """Training reads no ray angle and the depth statuses of the last report
    at each record only, so a loss computes neither: ``_angles_between`` and
    ``depth_statuses``, spied on where the losses and ``train`` look them
    up, run at most once per record."""
    calls = {"_angles_between": 0, "depth_statuses": 0}

    def spy(name, real):
        def counted(*args):
            calls[name] += 1
            return real(*args)

        return counted

    for name in calls:
        real = getattr(losses, name)
        monkeypatch.setattr(losses, name, spy(name, real))
        monkeypatch.setattr(regressor, name, spy(name, real), raising=False)
    cfg = TrainConfig(mode=mode, iterations=24, lr=0.05, checkpoint_every=8, seed=1)
    _, log = train(rendered_room, kind, cfg)
    assert len(log.records) == 3
    assert calls["_angles_between"] == 0 and calls["depth_statuses"] <= len(log.records)


def training_digest(ds, kind, mode):
    """sha256 of a short run's train-view predictions and ``TrainLog`` values
    (wall time left out). Predictions rather than parameters, so the digest
    does not depend on how a model stores rows it never trains."""
    cfg = TrainConfig(mode=mode, iterations=80, lr=0.05, checkpoint_every=20, seed=1)
    model, log = train(ds, kind, cfg)
    h = hashlib.sha256()
    for image_id in ds.train_ids:
        h.update(model.predict_image(ds, image_id)[0].tobytes())
    h.update(repr([astuple(r)[:-1] for r in log.records]).encode())
    return h.hexdigest()


# re-recorded when adam_step took Kingma & Ba's efficient form (both bias
# corrections folded into lr_t and eps_t), which changed the last bits of
# every trained value; a refactor of training must keep them
PINNED_TRAINING = {
    ("free_table", "reproj"):
        "ab2ba9f82d56594713e6c588b469ef2cb02ee9c10ccf3a35cb457e0b65f24fc3",
    ("free_table", "angle"):
        "5e45f95770b1ed6f9f5e783e561ad91ed18d53ed8df2b38129156a4383f397c9",
    ("free_table", "angle-multi"):
        "be0eb7a9b17666e64dc3a4f41d311edccfb2442ee72e4533b8158a32af5834dd",
    ("free_table", "angle-photo"):
        "5d8ebd8e7252def1d88c360611a1c61fc7fc6ff2a9caa50c7bf7e1920984003e",
    ("free_table", "const-depth-reproj"):
        "0457d426497fcda33679a4859aa7cb049c66151e1164ae1f7403ea1e578fab83",
    ("patch_mlp", "reproj"):
        "08b1a8050c3fb91e4238e7ae09b5a733f2df6720a7366e9ecb126d90d6da1a6b",
    ("patch_mlp", "angle"):
        "8a90cf0db86f7f6a5414aa30b46b5ea89eef862bef5de30c2f6bae84e6e90d1a",
    ("patch_mlp", "angle-multi"):
        "50f9af42243020dd96017abafdc966f493d2abd9ae28af624621dee352f39034",
    ("patch_mlp", "angle-photo"):
        "7f44fa60c4581368593226df9921efd02574125f637134b9c1b5ce786d9d1713",
    ("patch_mlp", "const-depth-reproj"):
        "cfc89d3811f67924e33ee7b5fd53c8af1a233f06092fce55d8210ee41b5785fe",
}


@pytest.mark.parametrize("kind, mode", sorted(PINNED_TRAINING))
def test_training_outputs_are_pinned(rendered_room, kind, mode):
    assert training_digest(rendered_room, kind, mode) == PINNED_TRAINING[kind, mode]


class TestPhotoTraining:
    """``angle-photo`` samples each train view's target windows once per run,
    refuses a train view without a render before training, and warns when
    no photometric point was valid in the whole run."""

    def test_targets_sampled_once_then_only_valid_windows(self, rendered_room, monkeypatch):
        ds = rendered_room
        calls, valid = [], []
        sampler, loss = losses.bilinear_values_and_grads, regressor.photometric_image_loss

        def spy_sampler(img, q):
            calls.append((img, len(q)))
            return sampler(img, q)

        def spy_loss(*args, **kwargs):
            rep = loss(*args, **kwargs)
            valid.append(int(rep.valid_mask.sum()))
            return rep

        monkeypatch.setattr(losses, "bilinear_values_and_grads", spy_sampler)
        monkeypatch.setattr(regressor, "photometric_image_loss", spy_loss)
        cfg = TrainConfig(mode="angle-photo", iterations=60, lr=0.05, seed=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error", PhotometricInactiveWarning)
            train(ds, "free_table", cfg)
        n = len(ds.train_ids)
        for (img, samples), i in zip(calls[:n], ds.train_ids):
            assert np.array_equal(img, ds.images[i].data)
            assert samples == 9 * len(ds.observations[i].point_ids)
        assert len(valid) == cfg.iterations
        assert [samples for _, samples in calls[n:]] == [9 * v for v in valid]
        assert sum(valid) == 117

    def test_missing_render_raises_config_error_naming_the_view(self, rendered_room):
        missing = rendered_room.train_ids[2]
        images = {i: img for i, img in rendered_room.images.items() if i != missing}
        ds = replace(rendered_room, images=images)
        cfg = TrainConfig(mode="angle-photo", iterations=5)
        want = rf"1 train view\(s\) have none, the first is view {missing}$"
        with pytest.raises(ConfigError, match=want):
            train(ds, "free_table", cfg)
        no_renders = replace(rendered_room, images={})
        with pytest.raises(ConfigError, match="needs rendered images"):
            train(no_renders, "free_table", cfg)

    def test_run_without_valid_photo_points_warns(self, rendered_room):
        cfg = TrainConfig(mode="angle-photo", iterations=60, lr=3e-3, seed=1)
        with pytest.warns(PhotometricInactiveWarning, match="trained as plain angle"):
            train(rendered_room, "patch_mlp", cfg)


class TestTrainConfig:
    @pytest.mark.parametrize(
        "field, bad",
        [
            ("iterations", 0),
            ("lr", float("nan")),  # NaN parameters and a logged loss of 0.0
            ("lr", 0.0),  # trained nothing, without complaint
            ("lr", -0.01),
            ("lr", float("inf")),
            # a bare OverflowError from adam_step
            pytest.param("lr", 10**400, id="lr-1e400"),
            # halved to 0.0, so train died at 60% of the run
            ("lr", 2e-323),
            ("checkpoint_every", -1),  # evaluated and recorded at every iteration
            # a zero-width layer
            pytest.param("hidden_sizes", (0,), id="hidden_sizes-zero-width"),
            pytest.param("hidden_sizes", (8, -4), id="hidden_sizes-negative"),
            pytest.param("hidden_sizes", (8.5,), id="hidden_sizes-float"),
            ("seed", 1.5),  # a bare TypeError from default_rng deep in train
            ("seed", True),
            ("seed", -1),  # default_rng refuses negative entries
            ("iterations", 5.5),  # a bare TypeError deep in train
            ("iterations", True),
            ("iterations", 2**63),  # beyond int64
            ("checkpoint_every", 2.5),  # recorded at [5, 10] of 12 iterations
            ("checkpoint_every", True),
            pytest.param("hidden_sizes", (True,), id="hidden_sizes-bool"),
            # a bare TypeError from iterating over the int
            pytest.param("hidden_sizes", 64, id="hidden_sizes-bare-64"),
            pytest.param("hidden_sizes", [64, 64], id="hidden_sizes-list"),
            ("mode", "nope"),
            pytest.param("mode", b"angle", id="mode-bytes"),
            ("lr", True),
            ("lr", "0.1"),  # a bare TypeError from the comparison
            # accepted, and train failed reading loss.epsilon_norm
            pytest.param("loss", {}, id="loss-dict"),
            # const_depth is checked in every mode, not only const-depth-reproj
            ("const_depth", 0.0),
            ("const_depth", -1.0),
            ("const_depth", math.inf),  # trained to NaN coordinates
            ("const_depth", math.nan),
            ("const_depth", "x"),
            ("const_depth", True),
            # a bare OverflowError from constant_depth_targets
            pytest.param("const_depth", 10**400, id="const_depth-1e400"),
        ],
    )
    def test_bad_value_raises_config_error_naming_the_field(self, field, bad):
        with pytest.raises(ConfigError, match=f"^{field} must be"):
            TrainConfig(**{field: bad})

    def test_limits_are_accepted(self, room):
        TrainConfig(checkpoint_every=0)
        TrainConfig(const_depth=5e-324, lr=1.7976931348623157e308)
        TrainConfig(const_depth=2, lr=1)
        for mode in regressor.MODES:
            TrainConfig(mode=mode)
        TrainConfig(hidden_sizes=())
        # the smallest lr whose last halving is > 0 trains to the end
        cfg = TrainConfig(iterations=10, lr=4e-323, checkpoint_every=0)
        assert schedule_at(cfg, cfg.iterations - 1)[1] == 5e-324
        _, log = train(room, "free_table", cfg)
        assert log.final.iteration == cfg.iterations

    def test_numpy_numbers_train_as_python_numbers(self):
        # an np.float32 lr gave an np.float32 rate, and Adam's lr_t in float32
        cfg = TrainConfig(lr=np.float32(0.05))
        assert type(cfg.lr) is float
        assert type(schedule_at(cfg, 0)[1]) is float
        assert schedule_at(cfg, 0)[1] == float(np.float32(0.05))
        assert type(schedule_at(cfg, cfg.iterations - 1)[1]) is float


class TestLossConfig:
    @pytest.mark.parametrize(
        "kw, field",
        [
            ({"epsilon_norm": 0.0}, "epsilon_norm"),
            ({"epsilon_norm": float("nan")}, "epsilon_norm"),
            ({"lambda_photo": -1.0}, "lambda_photo"),
            ({"alpha_ssim": -0.5}, "alpha_ssim"),
        ],
    )
    def test_invalid_values_raise_config_error(self, kw, field):
        with pytest.raises(ConfigError, match=field):
            LossConfig(**kw)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("lambda_multiview", -1.0, "lambda_multiview must be finite and >= 0, got -1.0"),
            ("lambda_multiview", math.inf, "lambda_multiview must be finite and >= 0, got inf"),
            ("lambda_multiview", math.nan, "lambda_multiview must be finite and >= 0, got nan"),
            ("lambda_photo", math.nan, "lambda_photo must be finite and >= 0, got nan"),
            ("lambda_photo", math.inf, "lambda_photo must be finite and >= 0, got inf"),
            # these two constructed, and train raised a bare OverflowError
            pytest.param(
                "lambda_multiview",
                10**400,
                f"lambda_multiview must be finite and >= 0, got {10**400}",
                id="lambda_multiview-1e400",
            ),
            pytest.param(
                "lambda_photo",
                10**400,
                f"lambda_photo must be finite and >= 0, got {10**400}",
                id="lambda_photo-1e400",
            ),
            ("alpha_ssim", math.nan, "alpha_ssim must be in [0, 1], got nan"),
            ("alpha_ssim", 1.5, "alpha_ssim must be in [0, 1], got 1.5"),
            ("alpha_ssim", np.nextafter(1.0, 2.0), "alpha_ssim must be in [0, 1]"),
        ],
    )
    def test_bad_weight_names_the_field(self, field, value, message):
        with pytest.raises(ConfigError) as err:
            LossConfig(**{field: value})
        assert str(err.value).startswith(message)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            # these four constructed
            ("lambda_multiview", True, "lambda_multiview must be"),
            ("lambda_photo", True, "lambda_photo must be"),
            ("alpha_ssim", False, "alpha_ssim must be"),
            ("epsilon_norm", True, "epsilon_norm must be finite and > 0, got True"),
            # these raised a bare TypeError from the comparison
            ("lambda_multiview", "1", "lambda_multiview must be"),
            ("alpha_ssim", None, "alpha_ssim must be"),
            ("epsilon_norm", "x", "epsilon_norm must be finite and > 0, got 'x'"),
            ("epsilon_norm", [1e-8], "epsilon_norm must be finite and > 0, got [1e-08]"),
        ],
    )
    def test_bool_or_non_number_names_the_field(self, field, value, message):
        with pytest.raises(ConfigError) as err:
            LossConfig(**{field: value})
        assert str(err.value).startswith(message)

    def test_numpy_numbers_are_accepted(self):
        cfg = LossConfig(
            lambda_multiview=np.float32(2.5),
            lambda_photo=np.int64(3),
            alpha_ssim=np.float64(0.5),
            epsilon_norm=np.float64(1e-6),
        )
        # stored as Python numbers: a numpy one computed in its own precision
        # and could not be saved
        assert astuple(cfg) == (2.5, 3, 0.5, 1e-6)
        assert [type(v) for v in astuple(cfg)] == [float, int, float, float]

    @pytest.mark.parametrize(
        "value", [math.inf, -math.inf, -1e-300, 0.0, math.nan, pytest.param(10**400, id="1e400")]
    )
    def test_bad_epsilon_norm_names_the_field(self, value):
        with pytest.raises(ConfigError, match="^epsilon_norm must be finite and > 0, got"):
            LossConfig(epsilon_norm=value)

    def test_limits_are_accepted(self):
        LossConfig(lambda_multiview=0.0, lambda_photo=0.0, alpha_ssim=0.0, epsilon_norm=5e-324)
        LossConfig(lambda_multiview=1e300, lambda_photo=1e300, alpha_ssim=1.0, epsilon_norm=1e300)
        LossConfig(lambda_multiview=0, lambda_photo=3, alpha_ssim=1)

    def test_one_config_error_class(self):
        assert regressor.ConfigError is losses.ConfigError


@pytest.mark.parametrize("cls", [DatasetConfig, TrainConfig, LossConfig], ids=lambda c: c.__name__)
class TestConfigRules:
    def test_every_field_carries_a_rule(self, cls):
        unruled = [f.name for f in fields(cls) if not isinstance(f.metadata.get("rule"), Rule)]
        assert not unruled, f"{cls.__name__} fields without a rule: {unruled}"

    def test_default_config_round_trips_through_json(self, cls):
        raw = json.loads(json.dumps(asdict(cls())))
        assert losses.config_from_json(cls, raw, "config") == cls()


@pytest.mark.parametrize("d", [0, -1, math.nan, math.inf, pytest.param(10**400, id="1e400")])
def test_constant_depth_targets_refuse_a_depth_not_finite_and_positive(room, d):
    # a bare ValueError, and a bare OverflowError for 10**400; inf was accepted
    i = room.train_ids[0]
    with pytest.raises(ConfigError, match="^constant depth d must be finite and > 0, got"):
        constant_depth_targets(room.intrinsics, room.poses[i], room.observations[i], d)


# a config whose network is small: PatchMLP (DESCRIPTOR_DIM, 4, 3)
SMALL_NET = TrainConfig(hidden_sizes=(4,))


def _per_layer(blob):
    """The network of a current checkpoint ``blob`` of ``SMALL_NET`` as
    versions 2-6 stored it: its kind, and its weights and biases as nested
    lists."""
    net = PatchMLP(network_sizes(SMALL_NET), blob.pop("params"))
    weights, biases = [w.tolist() for w in net.weights], [b.tolist() for b in net.biases]
    return {"kind": "patch_mlp", "weights": weights, "biases": biases}


def _to_v1(blob):
    # version 1 kept the loss weights flat in train_config
    tc = blob["train_config"]
    tc.update(tc.pop("loss"), jitter_pixels=False)
    blob.update(schema_version=1, model=_per_layer(blob))


class TestCheckpoint:
    @pytest.mark.parametrize(
        "hidden", [(8, 8), (5,), ()], ids=["two-hidden", "one-hidden", "no-hidden"]
    )
    def test_trained_patch_mlp_round_trip(self, room, tmp_path, hidden):
        cfg = TrainConfig(iterations=6, lr=0.05, hidden_sizes=hidden, checkpoint_every=0)
        net, _ = train(room, "patch_mlp", cfg)
        path = tmp_path / "mlp.json"
        save_checkpoint(path, net, cfg)
        blob = json.loads(path.read_text())
        assert sorted(blob) == ["params", "schema_version", "train_config"]
        assert blob["schema_version"] == regressor.CHECKPOINT_VERSION == 7
        loaded, loaded_cfg = load_checkpoint(path)
        assert loaded_cfg == cfg and loaded.layer_sizes == network_sizes(cfg)
        assert loaded.params.tobytes() == net.params.tobytes()
        for image_id in sorted(room.observations):  # the train and the test views
            assert (
                loaded.predict_image(room, image_id)[0].tobytes()
                == net.predict_image(room, image_id)[0].tobytes()
            )

    def test_config_of_numpy_numbers_round_trips(self, tmp_path):
        # save_checkpoint raised "Object of type int64 is not JSON serializable"
        cfg = TrainConfig(
            iterations=np.int64(5),
            lr=np.float32(0.05),
            hidden_sizes=(np.int64(8),),
            loss=LossConfig(lambda_photo=np.int64(3)),
        )
        path = tmp_path / "mlp.json"
        save_checkpoint(path, PatchMLP.init(network_sizes(cfg)), cfg)
        assert load_checkpoint(path)[1] == cfg

    def test_patch_mlp_round_trip(self, room, tmp_path):
        net = PatchMLP.init((scenegen.DESCRIPTOR_DIM, 8, 3), seed=3)
        net.params[:] += np.random.default_rng(0).normal(size=net.params.shape)
        path = tmp_path / "mlp.json"
        save_checkpoint(path, net, TrainConfig(mode="angle-multi", hidden_sizes=(8,)))
        assert json.loads(path.read_text())["params"] == net.params.tolist()
        loaded, cfg = load_checkpoint(path)
        assert cfg.mode == "angle-multi" and cfg.hidden_sizes == (8,)
        assert loaded.params.tobytes() == net.params.tobytes()
        image_id = room.train_ids[0]
        assert np.array_equal(
            loaded.predict_image(room, image_id)[0], net.predict_image(room, image_id)[0]
        )

    @pytest.mark.parametrize(
        "make, message",
        [
            pytest.param(
                lambda room: FreeTable(room),
                "a checkpoint holds a PatchMLP, got a FreeTable",
                id="free-table",
            ),
            pytest.param(
                lambda room: GtLookup(), "a checkpoint holds a PatchMLP, got a GtLookup", id="gt"
            ),
            pytest.param(
                lambda room: None, "a checkpoint holds a PatchMLP, got a NoneType", id="none"
            ),
            pytest.param(
                lambda room: PatchMLP.init((scenegen.DESCRIPTOR_DIM, 8, 3)),
                "network layer sizes (16, 8, 3) are not (16, 4, 3), "
                "the descriptor width, hidden_sizes and 3",
                id="other-sizes",
            ),
        ],
    )
    def test_save_refuses_any_other_model_and_writes_no_file(
        self, room, tmp_path, make, message
    ):
        path = tmp_path / "ckpt.json"
        with pytest.raises(ConfigError) as err:
            save_checkpoint(path, make(room), SMALL_NET)
        assert str(err.value) == f"{path}: {message}"
        assert not path.exists()

    def test_loss_config_round_trip(self, tmp_path):
        loss = LossConfig(
            lambda_multiview=7.5, lambda_photo=0.25, alpha_ssim=0.5, epsilon_norm=1e-6
        )
        cfg = TrainConfig(mode="angle-photo", loss=loss)
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, PatchMLP.init(network_sizes(cfg)), cfg)
        blob = json.loads(path.read_text())
        assert blob["schema_version"] == 7
        assert blob["train_config"]["loss"]["lambda_photo"] == 0.25
        _, loaded_cfg = load_checkpoint(path)
        assert loaded_cfg == cfg and isinstance(loaded_cfg.loss, LossConfig)

    def _write(self, tmp_path, edit):
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, PatchMLP.init(network_sizes(SMALL_NET)), SMALL_NET)
        blob = json.loads(path.read_text())
        edit(blob)
        path.write_text(json.dumps(blob))
        return path

    @pytest.mark.parametrize(
        "edit, got",
        [
            pytest.param(lambda b: b["params"].pop(), "a list of 82", id="one-short"),
            pytest.param(lambda b: b["params"].append(0.0), "a list of 84", id="one-long"),
            pytest.param(lambda b: b.update(params=[b["params"]]), "a list of 1", id="nested"),
            pytest.param(lambda b: b.update(params=[]), "a list of 0", id="empty"),
            pytest.param(lambda b: b.pop("params"), "NoneType", id="no-params"),
            pytest.param(lambda b: b.update(params={"0": 0.0}), "dict", id="object"),
        ],
    )
    def test_params_that_are_not_a_list_of_the_network_count_raise(self, tmp_path, edit, got):
        path = self._write(tmp_path, edit)
        with pytest.raises(ConfigError) as err:
            load_checkpoint(path)
        assert str(err.value) == (
            f"{path}: params must be a list of the 83 numbers of a PatchMLP of layer "
            f"sizes (16, 4, 3), got {got}"
        )

    @pytest.mark.parametrize(
        "hidden, n, got",
        [
            # loaded silently while the sizes came from the weights
            pytest.param([5], 103, 83, id="hidden-5"),
            pytest.param([], 51, 83, id="no-hidden"),
            pytest.param([4, 4], 103, 83, id="two-hidden"),
        ],
    )
    def test_config_of_another_network_raises(self, tmp_path, hidden, n, got):
        path = self._write(tmp_path, lambda b: b["train_config"].update(hidden_sizes=hidden))
        with pytest.raises(ConfigError) as err:
            load_checkpoint(path)
        sizes = (scenegen.DESCRIPTOR_DIM, *hidden, 3)
        assert str(err.value) == (
            f"{path}: params must be a list of the {n} numbers of a PatchMLP of layer "
            f"sizes {sizes}, got a list of {got}"
        )

    def test_huge_hidden_size_is_refused_by_the_count_without_allocating(self, tmp_path):
        path = self._write(tmp_path, lambda b: b["train_config"].update(hidden_sizes=[10**9]))
        tracemalloc.start()
        start = time.perf_counter()
        try:
            with pytest.raises(ConfigError) as err:
                load_checkpoint(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - start < 1.0
        assert peak < 1e6  # a network of these sizes would take 160 GB
        assert str(err.value).endswith(
            "params must be a list of the 20000000003 numbers of a PatchMLP of layer "
            "sizes (16, 1000000000, 3), got a list of 83"
        )

    @pytest.mark.parametrize(
        "bad",
        [
            # loaded as 0.25, 1.0, NaN, and the last escaped as OverflowError
            pytest.param("0.25", id="string"),
            pytest.param(True, id="true"),
            pytest.param(False, id="false"),
            pytest.param(None, id="null"),
            pytest.param([0.5], id="list"),
            pytest.param(10**400, id="int-beyond-float"),
            pytest.param(-(10**400), id="negative-int-beyond-float"),
            pytest.param({"value": 0.5}, id="object"),
        ],
    )
    def test_param_that_is_not_a_number_raises_config_error(self, tmp_path, bad):
        path = self._write(tmp_path, lambda b: b["params"].__setitem__(7, bad))
        with pytest.raises(ConfigError) as err:
            load_checkpoint(path)
        assert str(err.value) == f"{path}: params hold {bad!r}, which is not a number"

    def test_integer_and_non_finite_params_load_as_floats(self, tmp_path):
        # training applies non-finite values as-is, so a checkpoint keeps them
        values = [1, -2, 0, float("nan"), float("inf"), -float("inf"), 10**300]
        path = self._write(tmp_path, lambda b: b["params"].__setitem__(slice(0, 7), values))
        net, _ = load_checkpoint(path)
        assert net.params.dtype == np.float64
        np.testing.assert_array_equal(net.params[:7], [float(v) for v in values])

    def test_bare_hidden_sizes_names_path_and_field(self, tmp_path):
        path = self._write(tmp_path, lambda b: b["train_config"].update(hidden_sizes=4))
        with pytest.raises(ConfigError) as err:
            load_checkpoint(path)
        assert str(err.value) == f"{path}: hidden_sizes must be a tuple of integers > 0, got 4"

    def test_unknown_train_config_key_raises_config_error(self, tmp_path):
        path = self._write(tmp_path, lambda b: b["train_config"].update(bogus=1))
        with pytest.raises(ConfigError, match="bogus") as err:
            load_checkpoint(path)
        assert str(path) in str(err.value)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda b: b.pop("train_config"), "train_config is not a JSON object"),
            (
                lambda b: b["train_config"].pop("lr"),
                "train_config keys: unknown [], missing ['lr']",
            ),
        ],
        ids=["no-train-config", "no-lr"],
    )
    def test_missing_config_entry_raises_config_error(self, tmp_path, edit, message):
        path = self._write(tmp_path, edit)
        with pytest.raises(ConfigError) as err:
            load_checkpoint(path)
        assert str(err.value) == f"{path}: {message}"

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda b: b["train_config"]["loss"].update(bogus=1), "bogus"),
            (lambda b: b["train_config"].update(loss=[60.0, 20.0]), "not a JSON object"),
            (lambda b: b["train_config"]["loss"].update(epsilon_norm=0), "epsilon_norm"),
        ],
    )
    def test_bad_loss_config_raises_config_error(self, tmp_path, edit, message):
        path = self._write(tmp_path, edit)
        with pytest.raises(ConfigError, match=message) as err:
            load_checkpoint(path)
        assert str(path) in str(err.value)

    def test_invalid_loss_weight_names_path_and_field(self, tmp_path):
        path = self._write(tmp_path, lambda b: b["train_config"]["loss"].update(epsilon_norm=0))
        with pytest.raises(ConfigError) as err:
            load_checkpoint(path)
        assert str(err.value) == f"{path}: epsilon_norm must be finite and > 0, got 0"

    def test_out_of_range_alpha_ssim_names_path_and_field(self, tmp_path):
        path = self._write(tmp_path, lambda b: b["train_config"]["loss"].update(alpha_ssim=1.5))
        with pytest.raises(ConfigError) as err:
            load_checkpoint(path)
        assert str(err.value) == f"{path}: alpha_ssim must be in [0, 1], got 1.5"

    def test_invalid_train_config_value_names_path_and_field(self, tmp_path):
        path = self._write(tmp_path, lambda b: b["train_config"].update(lr=-0.01))
        with pytest.raises(ConfigError) as err:
            load_checkpoint(path)
        assert str(err.value) == (
            f"{path}: lr must be finite and > 0 after its last halving, got -0.01"
        )

    def test_integer_lr_beyond_the_float_range_names_path_and_field(self, tmp_path):
        # a JSON integer that no float holds: it loaded
        path = self._write(tmp_path, lambda b: b["train_config"].update(lr=10**400))
        with pytest.raises(ConfigError) as err:
            load_checkpoint(path)
        assert str(err.value) == (
            f"{path}: lr must be finite and > 0 after its last halving, got {10**400}"
        )

    @pytest.mark.parametrize(
        "edit, message",
        [
            pytest.param(_to_v1, "unsupported checkpoint version 1", id="version-1"),
            # version 2 stored a table's [image, point, row] triples and a
            # network's layer_sizes beside its weights
            pytest.param(
                lambda b: b.update(
                    schema_version=2,
                    model={"kind": "free_table", "coords": [[0.0] * 3], "index": [[0, 0, 0]]},
                ),
                "unsupported checkpoint version 2",
                id="version-2-table",
            ),
            pytest.param(
                lambda b: b.update(
                    schema_version=2,
                    model=dict(_per_layer(b), layer_sizes=[16, 4, 3]),
                ),
                "unsupported checkpoint version 2",
                id="version-2-network",
            ),
            pytest.param(
                lambda b: b.update(schema_version=3),
                "unsupported checkpoint version 3",
                id="version-3",
            ),
            # no migration: a field a later version dropped is an unknown key
            pytest.param(
                lambda b: b["train_config"].update(photo_neighbor_max_offset=10),
                "train_config keys: unknown ['photo_neighbor_max_offset'], missing []",
                id="photo_neighbor_max_offset",
            ),
            pytest.param(
                lambda b: b.update(schema_version=4),
                "unsupported checkpoint version 4",
                id="version-4",
            ),
            pytest.param(
                lambda b: b["train_config"].update(init_fraction=0.25),
                "train_config keys: unknown ['init_fraction'], missing []",
                id="init_fraction",
            ),
            pytest.param(
                lambda b: b.update(schema_version=5),
                "unsupported checkpoint version 5",
                id="version-5",
            ),
            pytest.param(
                lambda b: b["train_config"].update(lr_halving_fractions=[0.6, 0.8, 0.9]),
                "train_config keys: unknown ['lr_halving_fractions'], missing []",
                id="lr_halving_fractions",
            ),
            # version 6 stored a model kind with per-layer weights and biases
            pytest.param(
                lambda b: b.update(schema_version=6, model=_per_layer(b)),
                "unsupported checkpoint version 6",
                id="version-6",
            ),
        ],
    )
    def test_earlier_versions_are_refused(self, tmp_path, edit, message):
        path = self._write(tmp_path, edit)
        with pytest.raises(ConfigError) as err:
            load_checkpoint(path)
        assert str(err.value) == f"{path}: {message}"

    @pytest.mark.parametrize("how", ["directory", "not-utf-8"])
    def test_directory_or_undecodable_file_raises_config_error(self, tmp_path, how):
        path = tmp_path / "ckpt.json"
        if how == "directory":
            path.mkdir()
        else:
            path.write_bytes(b"\xff\xfe{}")
        with pytest.raises(ConfigError) as err:
            load_checkpoint(path)
        assert str(err.value).startswith(f"{path}: cannot read checkpoint: ")

    @pytest.mark.parametrize("text", ['{"schema_version": 1, "model": ', "[1, 2]", None])
    def test_unreadable_or_malformed_json_raises_config_error(self, tmp_path, text):
        path = tmp_path / "broken.json"
        if text is not None:
            path.write_text(text)
        with pytest.raises(ConfigError) as err:
            load_checkpoint(path)
        assert str(path) in str(err.value)
