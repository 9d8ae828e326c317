"""Training-loop tests."""

import hashlib
import json
import math
import warnings
from dataclasses import astuple, replace

import numpy as np
import pytest

from anglereloc import losses, regressor, scenegen
from anglereloc.losses import LossConfig
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
    TrainConfig,
    TrainLog,
    TrainRecord,
    adam_step,
    evaluate_coords,
    load_checkpoint,
    lr_at,
    save_checkpoint,
    train,
)
from anglereloc.scenegen import DatasetConfig, ParseError, build_dataset


@pytest.fixture(scope="module")
def room():
    return build_dataset(DatasetConfig(seed=3, n_points=300, n_images=12))


def reference_adam_step(state, params, grads):
    """The allocating Adam update that ``adam_step`` must match bit for bit:
    returns new arrays and replaces the state's moment lists."""
    state.step += 1
    t = state.step
    bc1 = 1.0 - ADAM_BETA1**t
    bc2 = 1.0 - ADAM_BETA2**t
    new_params, new_m, new_v = [], [], []
    for p, g, m, v in zip(params, grads, state.m, state.v):
        m = ADAM_BETA1 * m + (1 - ADAM_BETA1) * g
        v = ADAM_BETA2 * v + (1 - ADAM_BETA2) * (g * g)
        m_hat = m / bc1
        v_hat = v / bc2
        new_params.append(p - state.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS))
        new_m.append(m)
        new_v.append(v)
    state.m, state.v = new_m, new_v
    return new_params


def run_both(params, grad_fn, steps, lr_fn=lambda t: 0.05):
    """Run ``adam_step`` and the reference side by side from ``params``."""
    mine = [p.copy() for p in params]
    ref = [p.copy() for p in params]
    state = AdamState.for_params(mine)
    ref_state = AdamState.for_params(ref)
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


def test_adam_step_shape_mismatch_raises_the_losses_error():
    params = [np.zeros((4, 3)), np.zeros(3)]
    state = AdamState.for_params(params)
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


class TestAdamStep:
    def test_table_shaped_sparse_gradients_bit_identical(self):
        rng = np.random.default_rng(0)
        # more than two blocks, the last one partial
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
        state = AdamState.for_params([p])
        m = state.m[0]
        adam_step(state, [p], [np.full((5, 3), 2.0)])
        assert state.m[0] is m
        assert np.all(p < 1.0) and np.all(m > 0)

    def test_refuses_to_update_a_copy(self):
        p = np.ones((6, 4))[:, ::2]
        with pytest.raises(ValueError, match="contiguous"):
            adam_step(AdamState.for_params([p]), [p], [np.ones_like(p)])

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
        state = AdamState.for_params([p], lr=0.1)
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
        state = AdamState.for_params(params, lr=0.05)
        with np.errstate(invalid="ignore"):
            for t in range(self.STEPS):
                adam_step(state, params, self.grads(t))
                assert state.zero[1:3] == [t < self.FIRST] * 2

    @pytest.mark.parametrize("start", [1e-3, -0.0])
    def test_state_with_nonzero_moments_is_never_skipped(self, start):
        # a -0.0 moment is not +0.0: a zero gradient turns it into +0.0
        params = self.params()[:2]
        mine, ref = [p.copy() for p in params], [p.copy() for p in params]
        state, ref_state = AdamState.for_params(mine), AdamState.for_params(ref)
        for st in (state, ref_state):
            st.m[0][5] = start
            st.v[1][9, 2] = start
        for _ in range(3):
            grads = [np.zeros((40, 3)), np.full((40, 3), -0.0)]
            adam_step(state, mine, grads)
            ref = reference_adam_step(ref_state, ref, grads)
        assert state.zero == [False, False]
        assert_bit_equal(mine, ref)
        assert_bit_equal(state.m, ref_state.m)
        assert_bit_equal(state.v, ref_state.v)
        assert not np.signbit(state.m[0][5]).any() and not np.signbit(state.v[1][9, 2])

    @pytest.mark.parametrize(
        "hyper",
        [
            dict(lr=-0.0),  # -0.0 * m_hat turns p = -0.0 into +0.0
            dict(lr=0.0),
            dict(lr=np.inf),  # inf * 0 is NaN
            dict(lr=-0.05),  # -lr * 0.0 is -0.0, and -0.0 - -0.0 is +0.0
            dict(lr=-np.inf),
        ],
    )
    def test_hyperparameters_outside_the_exact_range_sweep_every_array(self, hyper):
        params = self.params()[:1]
        mine, ref = [p.copy() for p in params], [p.copy() for p in params]
        state, ref_state = (AdamState.for_params(ps, **hyper) for ps in (mine, ref))
        grads = [np.full((40, 3), -0.0)]
        with np.errstate(invalid="ignore", divide="ignore"):
            adam_step(state, mine, grads)
            ref = reference_adam_step(ref_state, ref, grads)
        assert_bit_equal(mine, ref)
        assert_bit_equal(state.m, ref_state.m)
        assert_bit_equal(state.v, ref_state.v)

    @pytest.mark.parametrize("lr", [5e-324, 1e308])
    def test_learning_rates_at_the_edges_of_the_exact_range_skip(self, lr):
        # lr * +0.0 is +0.0 for every finite lr > 0, so p - 0.0 keeps p
        params = self.params()[:1]
        mine, ref = [p.copy() for p in params], [p.copy() for p in params]
        state, ref_state = (AdamState.for_params(ps, lr=lr) for ps in (mine, ref))
        grads = [np.full((40, 3), -0.0)]
        for _ in range(3):
            adam_step(state, mine, grads)
            ref = reference_adam_step(ref_state, ref, grads)
        assert state.zero == [True]
        assert_bit_equal(mine, ref)
        assert_bit_equal(state.m, ref_state.m)
        assert_bit_equal(state.v, ref_state.v)


class TestAdamNoneGradient:
    """A ``None`` gradient is an all +0.0 one: in every case it gives the
    bits of an explicit ``np.zeros`` gradient in p, m and v."""

    # signed zeros, NaN, infinities, subnormals and ordinary values
    SPECIAL = np.array([-0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1e-310, 1.5, -3.0])

    def params(self):
        rng = np.random.default_rng(6)
        # the second array spans more than one block of the sweep
        params = [rng.normal(size=(40, 3)), rng.normal(size=(ADAM_BLOCK // 3 + 50, 3))]
        for p in params:
            p[:3] = self.SPECIAL[:9].reshape(3, 3)
        return params

    def special_moments(self, state):
        rng = np.random.default_rng(7)
        for m, v in zip(state.m, state.v):
            m[...] = rng.choice(self.SPECIAL, size=m.shape)
            v[...] = rng.choice(self.SPECIAL, size=v.shape)
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
        mine, state = self.run(
            lambda ps: self.special_moments(AdamState.for_params(ps, lr=0.05))
        )
        assert state.zero == [False, False]
        # -0.0 moments turned +0.0, and NaN and inf stayed
        assert not np.signbit(state.m[1][state.m[1] == 0.0]).any()
        assert np.isnan(state.v[1]).any() and np.isinf(state.m[1]).any()
        # and both equal the allocating reference
        ref = self.params()
        ref_state = self.special_moments(AdamState.for_params(ref, lr=0.05))
        with np.errstate(all="ignore"):
            for t in range(6):
                grads = [np.zeros(p.shape) if g is None else g for p, g in zip(ref, self.grads(t))]
                ref = reference_adam_step(ref_state, ref, grads)
        assert_bit_equal(mine, ref)
        assert_bit_equal(state.m, ref_state.m)
        assert_bit_equal(state.v, ref_state.v)

    def test_first_step_of_a_fresh_state_skips_the_run(self):
        start = self.params()
        params, state = self.run(lambda ps: AdamState.for_params(ps, lr=0.05), steps=2)
        # no gradient yet in either array: both skipped, flags still set
        assert state.zero == [True, True]
        assert_bit_equal(params, start)
        assert not state.m[1].view(np.uint64).any() and not state.v[1].view(np.uint64).any()
        params, state = self.run(lambda ps: AdamState.for_params(ps, lr=0.05), steps=5)
        assert state.zero == [False, True]
        assert params[1].tobytes() == start[1].tobytes()

    @pytest.mark.parametrize(
        "hyper",
        [
            dict(lr=-0.0),
            dict(lr=0.0),
            dict(lr=np.inf),
            dict(lr=np.nan),
            dict(lr=-0.05),
            dict(lr=-np.inf),
        ],
    )
    @pytest.mark.parametrize("moments", ["fresh", "special"])
    def test_hyperparameters_outside_the_skippable_ranges(self, hyper, moments):
        def make_state(ps):
            state = AdamState.for_params(ps, **hyper)
            return self.special_moments(state) if moments == "special" else state

        _, state = self.run(make_state)
        # outside those ranges every array is swept from the first step
        assert state.zero == [False, False]


def test_lr_halves_at_each_boundary():
    cfg = TrainConfig(iterations=100, lr=0.08)
    expected = {0: 0.08, 59: 0.08, 60: 0.04, 79: 0.04, 80: 0.02, 89: 0.02, 90: 0.01, 99: 0.01}
    assert {t: lr_at(cfg, t) for t in expected} == expected
    long = TrainConfig(iterations=20000, lr=1.0)
    assert [lr_at(long, t) for t in (11999, 12000, 15999, 16000, 17999, 18000)] == [
        1.0, 0.5, 0.5, 0.25, 0.25, 0.125,
    ]


def test_train_log_csv_round_trip(tmp_path):
    log = TrainLog()
    log.append(TrainRecord(10, 0.1 + 0.2, 1 / 3, 0, 2.5e-17, 0.0123456))
    log.append(TrainRecord(20, float("inf"), 1.0, 4, float("nan"), 1.9996))
    log.append(TrainRecord(30, -0.0, 0.0, 4, 7.0, 12.0))
    path = tmp_path / "log.csv"
    log.to_csv(path)
    back = TrainLog.from_csv(path)
    assert len(back.records) == 3
    for r, b in zip(log.records, back.records):
        # every value exact, wall time to the millisecond
        assert repr(astuple(b)[:-1]) == repr(astuple(r)[:-1])
        assert b.seconds == float(f"{r.seconds:.3f}")
    assert path.read_text().splitlines()[0] == ",".join(TrainLog.CSV_COLUMNS)


class TestTrainLogFromCsv:
    ROWS = [
        "iter,loss,behind_frac,nonfinite_events,median_err,seconds",
        "10,0.5,0.0,0,1.5,0.010",
    ]

    def _read(self, tmp_path, lines):
        path = tmp_path / "log.csv"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as err:
            TrainLog.from_csv(path)
        assert str(path) in str(err.value)
        return err.value

    @pytest.mark.parametrize("data", [None, b"iter,loss\n\xff\xfe\n"])
    def test_missing_or_undecodable_file(self, tmp_path, data):
        path = tmp_path / "log.csv"
        if data is not None:
            path.write_bytes(data)
        with pytest.raises(ParseError) as err:
            TrainLog.from_csv(path)
        assert str(path) in str(err.value)

    def test_missing_column(self, tmp_path):
        header = self.ROWS[0].replace(",median_err", "")
        err = self._read(tmp_path, [header, "10,0.5,0.0,0,0.010"])
        assert "median_err" in str(err) and err.line == 1

    def test_bad_number(self, tmp_path):
        err = self._read(tmp_path, self.ROWS + ["20,0.4,zero,0,1.4,0.020"])
        assert "zero" in str(err) and err.line == 3

    def test_short_row(self, tmp_path):
        assert self._read(tmp_path, self.ROWS + ["20,0.4"]).line == 3

    def test_non_increasing_iteration(self, tmp_path):
        rows = ["20,0.4,0.0,0,1.4,0.020", "20,0.3,0.0,0,1.3,0.030"]
        err = self._read(tmp_path, self.ROWS + rows)
        assert "increase" in str(err) and err.line == 4


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


class TestFreeTable:
    def test_init_rows_match_the_image_point_mapping(self, room):
        table = FreeTable.init(room, seed=5)
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
                range(len(table.coords))[table.rows_for_image(room, image_id)],
            )
        }
        assert got == expected
        assert table.coords.shape == (len(expected), 3)
        kept = [drawn[key] for key in expected]
        assert table.coords.tobytes() == draw[kept].tobytes()
        # checkpoints keep the (image, point)-sorted triples of that mapping
        index = [[i, k, r] for (i, k), r in sorted(expected.items())]
        assert table.state_dict()["index"] == index
        for image_id in room.train_ids:
            obs = room.observations[image_id]
            rows = [drawn[(image_id, int(k))] for k in obs.point_ids]
            assert table.predict_image(room, image_id)[0].tobytes() == draw[rows].tobytes()

    def test_unknown_image_raises_index_mismatch(self, room):
        table = FreeTable.init(room)
        missing = max(room.observations) + 1
        with pytest.raises(losses.IndexMismatchError, match=f"image {missing}"):
            table.predict_image(room, missing)

    def test_other_point_ids_raise_index_mismatch(self, room):
        image_id = room.train_ids[0]
        table = FreeTable.init(room)
        table.point_ids[image_id] = table.point_ids[image_id] + 1
        with pytest.raises(losses.IndexMismatchError, match=f"image {image_id}"):
            table.predict_image(room, image_id)
        table.point_ids[image_id] = table.point_ids[image_id][:-1]
        with pytest.raises(losses.IndexMismatchError, match=f"image {image_id}"):
            table.predict_image(room, image_id)

    def test_gradient_buffer_holds_only_the_last_image(self, room):
        table = FreeTable.init(room)
        a, b = room.train_ids[:2]
        preds_a, rows_a = table.predict_image(room, a)
        preds_b, rows_b = table.predict_image(room, b)
        table.grads_for_image(rows_a, np.ones_like(preds_a))
        (g,) = table.grads_for_image(rows_b, np.full_like(preds_b, 2.0))
        expected = np.zeros_like(table.coords)
        expected[rows_b] = 2.0
        assert np.array_equal(g, expected)


class TestEvaluateCoords:
    def test_ground_truth_lookup_gives_zero_error(self, room):
        assert evaluate_coords(GtLookup(), room) == (0.0, 0.0)
        assert evaluate_coords(GtLookup(), room, room.test_ids) == (0.0, 0.0)

    def test_median_and_mean_over_the_given_views(self, room):
        table = FreeTable.init(room, seed=4)
        ids = room.train_ids[2:5]
        errs = np.concatenate(
            [table.predict_image(room, i)[0] - room.observations[i].gt_coords for i in ids]
        )
        errs = np.linalg.norm(errs, axis=1)
        assert evaluate_coords(table, room, ids) == (np.median(errs), np.mean(errs))

    def test_free_table_over_a_held_out_view_raises(self, room):
        table = FreeTable.init(room)
        first = min(room.test_ids)
        with pytest.raises(losses.IndexMismatchError, match=f"no rows for image {first}"):
            evaluate_coords(table, room)
        with pytest.raises(losses.IndexMismatchError):
            evaluate_coords(table, room, [room.train_ids[0], room.test_ids[-1]])


class TestFreeTableRuns:
    """``param_list`` cuts the table into image-aligned runs for Adam."""

    def check_runs(self, table):
        views = table.param_list()
        sizes = [len(v) for v in views]
        assert sum(sizes) == len(table.coords)
        for k, v in enumerate(views):
            v[...] = k  # views write through, cover every row once, in order
        assert np.array_equal(table.coords[:, 0], np.repeat(np.arange(len(views)), sizes))
        starts = set(np.cumsum([0] + sizes[:-1]).tolist())
        for rows in table._spans.values():
            # no image straddles a cut
            assert len(np.unique(table.coords[rows, 0])) == 1
        firsts = {rows.start for rows in table._spans.values()}
        assert starts <= firsts | {0}
        return views

    # 60: every train view is over the bound, one run each; 150: mostly pairs
    @pytest.mark.parametrize("block, n_runs", [(60, 9), (150, 6), (10**6, 1)])
    def test_runs_are_image_aligned_and_bounded(self, room, monkeypatch, block, n_runs):
        monkeypatch.setattr(regressor, "ADAM_BLOCK", block)
        table = FreeTable.init(room, seed=1)
        views = self.check_runs(table)
        assert len(views) == n_runs
        stops = np.cumsum([len(v) for v in views])
        for v, stop in zip(views, stops):
            images = [i for i, r in table._spans.items() if stop - len(v) <= r.start < stop]
            assert v.size <= block or len(images) == 1

    def test_gradient_views_match_the_parameter_views(self, room, monkeypatch):
        monkeypatch.setattr(regressor, "ADAM_BLOCK", 150)
        table = FreeTable.init(room)
        image_id = room.train_ids[3]
        preds, rows = table.predict_image(room, image_id)
        grads = table.grads_for_image(rows, np.full_like(preds, 2.0))
        params = table.param_list()
        # one run holds the image; every other run's gradient is None, +0.0
        assert sum(g is not None for g in grads) == 1
        dense = [np.zeros(p.shape) if g is None else g for g, p in zip(grads, params)]
        assert [g.shape for g in dense] == [p.shape for p in params]
        expected = np.zeros_like(table.coords)
        expected[rows] = 2.0
        assert np.concatenate(dense).tobytes() == expected.tobytes()
        (held,) = [g for g in grads if g is not None]
        assert held.base is table._grad
        # the same buffer again, now holding the next image only
        preds_b, rows_b = table.predict_image(room, room.train_ids[0])
        again = table.grads_for_image(rows_b, np.ones_like(preds_b))
        assert all(x is y for x, y in zip(again, table._grad_runs) if x is not None)
        assert sum(g is not None for g in again) == 1
        assert np.count_nonzero(table._grad) == preds_b.size
        dense = [np.zeros(p.shape) if g is None else g for g, p in zip(again, params)]
        assert np.count_nonzero(np.concatenate(dense)) == preds_b.size


def _reference_in_place(state, params, grads):
    """The reference Adam, in place, with each ``None`` gradient turned into
    +0.0 zeros."""
    grads = [np.zeros(p.shape) if g is None else g for p, g in zip(params, grads)]
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
    steps = []

    def spy(state, params, grads):
        adam_step(state, params, grads)
        steps.append(list(state.zero))

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

    def test_const_depth_without_init_phase_is_reproj(self, rendered_room, kind):
        const = self.run(rendered_room, kind, mode="const-depth-reproj", init_fraction=0.0)
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


# recorded with the tuple-returning losses and a FreeTable that still held
# rows for the held-out views; a refactor of training must keep them
PINNED_TRAINING = {
    ("free_table", "reproj"):
        "553e05218d95c317ab929055b9ae8c7c59e4683f2d7c60bdd0fafd2d74252bc2",
    ("free_table", "angle"):
        "f607f016cfc87cb8b4c68c8e352199b291ba4645300c7104735370e0bff2ecb5",
    ("free_table", "angle-multi"):
        "dff8bfc3ed568f70fe2ffd7a753d5656c0ae97ffd59583263bd12d98803d9634",
    ("free_table", "angle-photo"):
        "4766166f33e9fbe5dc95087f6582bf2a616c52c1ebafdc85daf538c9a2e7544d",
    ("free_table", "const-depth-reproj"):
        "60ef95103fdb7e4b017089571ba76990601f6b436d51d97e6a244a9e1b000aaa",
    ("patch_mlp", "reproj"):
        "0a446590bdba0384d7aa79a123b4d456f652b23fe1b423cc3a4f187ea3b3c1b1",
    ("patch_mlp", "angle"):
        "39acfd0ff69fb9c4bf2de8c411bb0fb9b25e7619035ba57ab280a75254189572",
    ("patch_mlp", "angle-multi"):
        "9ba1eaa2cef094bd4e6ba07c8777ae62641ffbe45a59136df8866d05cf5a178a",
    ("patch_mlp", "angle-photo"):
        "f925c48928646ed9a56d3b619549e577f0723d3536cb67aa8996dd6b015d44c5",
    ("patch_mlp", "const-depth-reproj"):
        "c63558b0fde3740bc00f881017f30a9bb37d4d6893042e2f60f5b89538162296",
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
            ("init_fraction", 2.0),  # never left the regression phase
            ("init_fraction", -0.1),
            ("init_fraction", float("nan")),
            ("checkpoint_every", -1),  # evaluated and recorded at every iteration
            ("photo_neighbor_max_offset", -1),  # no view had a neighbor
            ("photo_neighbor_max_offset", 0),
            ("hidden_sizes", (0,)),  # a zero-width layer
            ("hidden_sizes", (8, -4)),
            ("hidden_sizes", (8.5,)),
            ("seed", 1.5),  # a bare TypeError from default_rng deep in train
            ("seed", True),
            ("seed", -1),  # default_rng refuses negative entries
            ("iterations", 5.5),  # a bare TypeError deep in train
            ("iterations", True),
            ("checkpoint_every", 2.5),  # recorded at [5, 10] of 12 iterations
            ("checkpoint_every", True),
            ("hidden_sizes", (True,)),
            ("photo_neighbor_max_offset", 2.5),  # behaved as 2
        ],
    )
    def test_bad_value_raises_config_error_naming_the_field(self, field, bad):
        with pytest.raises(ConfigError, match=f"^{field} must be"):
            TrainConfig(**{field: bad})

    def test_limits_are_accepted(self):
        TrainConfig(init_fraction=0.0, checkpoint_every=0, photo_neighbor_max_offset=1)
        TrainConfig(init_fraction=1.0, hidden_sizes=())


class TestLossConfig:
    @pytest.mark.parametrize(
        "kw, field",
        [
            ({"epsilon_norm": 0.0}, "epsilon_norm"),
            ({"epsilon_norm": float("nan")}, "epsilon_norm"),
            ({"lambda_photo": -1.0}, "weights"),
            ({"alpha_ssim": -0.5}, "weights"),
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
            ("alpha_ssim", math.nan, "alpha_ssim must be in [0, 1], got nan"),
            ("alpha_ssim", 1.5, "alpha_ssim must be in [0, 1], got 1.5"),
            ("alpha_ssim", np.nextafter(1.0, 2.0), "alpha_ssim must be in [0, 1]"),
        ],
    )
    def test_bad_weight_names_the_field(self, field, value, message):
        with pytest.raises(ConfigError) as err:
            LossConfig(**{field: value})
        assert str(err.value).startswith("loss weights: " + message)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, -1e-300])
    def test_bad_epsilon_norm_names_the_field(self, value):
        with pytest.raises(ConfigError, match="^epsilon_norm must be"):
            LossConfig(epsilon_norm=value)

    def test_limits_are_accepted(self):
        LossConfig(lambda_multiview=0.0, lambda_photo=0.0, alpha_ssim=0.0, epsilon_norm=5e-324)
        LossConfig(lambda_multiview=1e300, lambda_photo=1e300, alpha_ssim=1.0, epsilon_norm=1e300)
        LossConfig(lambda_multiview=0, lambda_photo=3, alpha_ssim=1)

    def test_one_config_error_class(self):
        assert regressor.ConfigError is losses.ConfigError


class TestCheckpoint:
    def test_free_table_round_trip(self, room, tmp_path):
        table = FreeTable.init(room, seed=2)
        cfg = TrainConfig(iterations=10, lr=0.05, hidden_sizes=(8, 8))
        path = tmp_path / "table.json"
        save_checkpoint(path, table, cfg)
        loaded, loaded_cfg = load_checkpoint(path)
        assert loaded_cfg == cfg
        assert loaded.coords.tobytes() == table.coords.tobytes()
        assert loaded.state_dict() == table.state_dict()
        assert loaded._spans == table._spans
        for image_id in room.train_ids:
            assert np.array_equal(loaded.point_ids[image_id], table.point_ids[image_id])
            assert (
                loaded.predict_image(room, image_id)[0].tobytes()
                == table.predict_image(room, image_id)[0].tobytes()
            )

    def test_free_table_with_permuted_rows_loads_in_the_init_layout(self, room, tmp_path):
        table = FreeTable.init(room, seed=2)
        path = tmp_path / "table.json"
        save_checkpoint(path, table, TrainConfig())
        blob = json.loads(path.read_text())
        coords = np.array(blob["model"]["coords"])
        perm = np.random.default_rng(0).permutation(len(coords))  # old row -> new row
        shuffled = np.empty_like(coords)
        shuffled[perm] = coords
        blob["model"]["coords"] = shuffled.tolist()
        for triple in blob["model"]["index"]:
            triple[2] = int(perm[triple[2]])
        path.write_text(json.dumps(blob))
        loaded, _ = load_checkpoint(path)
        assert loaded.coords.tobytes() == table.coords.tobytes()
        assert loaded.state_dict() == table.state_dict()
        assert loaded._spans == table._spans
        for image_id in room.train_ids:
            assert (
                loaded.predict_image(room, image_id)[0].tobytes()
                == table.predict_image(room, image_id)[0].tobytes()
            )

    @pytest.mark.parametrize(
        "edit, row, uses",
        [
            # triple 5 takes triple 6's row: row 6 twice, row 5 never
            (lambda index: index[5].__setitem__(2, 6), 5, 0),
            (lambda index: index.pop(5), 5, 0),
            (lambda index: index.append([index[0][0], 10**6, 0]), 0, 2),
        ],
    )
    def test_free_table_index_repeating_or_skipping_a_row_raises_config_error(
        self, room, tmp_path, edit, row, uses
    ):
        path = tmp_path / "table.json"
        save_checkpoint(path, FreeTable.init(room, seed=2), TrainConfig())
        blob = json.loads(path.read_text())
        assert [r for _, _, r in blob["model"]["index"]][:7] == list(range(7))
        edit(blob["model"]["index"])
        path.write_text(json.dumps(blob))
        with pytest.raises(ConfigError, match=f"uses row {row} {uses} times") as err:
            load_checkpoint(path)
        assert str(err.value).startswith(f"{path}: ")

    def test_free_table_coords_that_are_not_rows_of_3_raise_config_error(self, room, tmp_path):
        path = tmp_path / "table.json"
        save_checkpoint(path, FreeTable.init(room, seed=2), TrainConfig())
        blob = json.loads(path.read_text())
        blob["model"]["coords"] = [c[:2] for c in blob["model"]["coords"]]
        path.write_text(json.dumps(blob))
        with pytest.raises(ConfigError, match="rows of 3") as err:
            load_checkpoint(path)
        assert str(err.value).startswith(f"{path}: ")

    def test_patch_mlp_round_trip(self, room, tmp_path):
        net = PatchMLP.init((scenegen.DESCRIPTOR_DIM, 8, 3), seed=3)
        net.params[:] += np.random.default_rng(0).normal(size=net.params.shape)
        path = tmp_path / "mlp.json"
        save_checkpoint(path, net, TrainConfig(mode="angle-multi"))
        loaded, cfg = load_checkpoint(path)
        assert cfg.mode == "angle-multi"
        assert loaded.params.tobytes() == net.params.tobytes()
        image_id = room.train_ids[0]
        assert np.array_equal(
            loaded.predict_image(room, image_id)[0], net.predict_image(room, image_id)[0]
        )

    def test_loss_config_round_trip(self, tmp_path):
        loss = LossConfig(
            lambda_multiview=7.5, lambda_photo=0.25, alpha_ssim=0.5, epsilon_norm=1e-6
        )
        cfg = TrainConfig(mode="angle-photo", loss=loss)
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, PatchMLP.init((4, 3)), cfg)
        blob = json.loads(path.read_text())
        assert blob["schema_version"] == 2
        assert blob["train_config"]["loss"]["lambda_photo"] == 0.25
        _, loaded_cfg = load_checkpoint(path)
        assert loaded_cfg == cfg and isinstance(loaded_cfg.loss, LossConfig)

    @pytest.mark.parametrize("bad_row", [10**6, -1])
    def test_free_table_row_outside_the_table_raises_config_error(
        self, room, tmp_path, bad_row
    ):
        path = tmp_path / "table.json"
        save_checkpoint(path, FreeTable.init(room, seed=2), TrainConfig())
        blob = json.loads(path.read_text())
        n_rows = len(blob["model"]["coords"])
        blob["model"]["index"][5][2] = bad_row
        path.write_text(json.dumps(blob))
        with pytest.raises(ConfigError, match=rf"row {bad_row} outside \[0, {n_rows}\)") as err:
            load_checkpoint(path)
        assert str(path) in str(err.value)

    def _write(self, tmp_path, edit):
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, PatchMLP.init((4, 3)), TrainConfig())
        blob = json.loads(path.read_text())
        edit(blob)
        path.write_text(json.dumps(blob))
        return path

    def test_unknown_train_config_key_raises_config_error(self, tmp_path):
        path = self._write(tmp_path, lambda b: b["train_config"].update(bogus=1))
        with pytest.raises(ConfigError, match="bogus") as err:
            load_checkpoint(path)
        assert str(path) in str(err.value)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda b: b.pop("model"),
            lambda b: b["train_config"].pop("lr"),
            lambda b: b["model"].pop("weights"),
            # a bias that does not match its layer
            lambda b: b["model"]["biases"][0].append(0.0),
        ],
    )
    def test_missing_or_inconsistent_entry_raises_config_error(self, tmp_path, edit):
        path = self._write(tmp_path, edit)
        with pytest.raises(ConfigError) as err:
            load_checkpoint(path)
        assert str(path) in str(err.value)

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
        assert str(err.value) == f"{path}: epsilon_norm must be positive"

    def test_out_of_range_alpha_ssim_names_path_and_field(self, tmp_path):
        path = self._write(tmp_path, lambda b: b["train_config"]["loss"].update(alpha_ssim=1.5))
        with pytest.raises(ConfigError) as err:
            load_checkpoint(path)
        assert str(err.value) == f"{path}: loss weights: alpha_ssim must be in [0, 1], got 1.5"

    def test_invalid_train_config_value_names_path_and_field(self, tmp_path):
        path = self._write(tmp_path, lambda b: b["train_config"].update(lr=-0.01))
        with pytest.raises(ConfigError) as err:
            load_checkpoint(path)
        assert str(err.value) == f"{path}: lr must be finite and > 0, got -0.01"

    def test_constant_model_kind_is_unknown(self, tmp_path):
        path = self._write(
            tmp_path, lambda b: b.update(model={"kind": "constant", "value": [0.0, 0.0, 0.0]})
        )
        with pytest.raises(ConfigError, match="unknown model kind 'constant'") as err:
            load_checkpoint(path)
        assert str(path) in str(err.value)

    def test_flat_version_1_checkpoint_is_refused(self, tmp_path):
        def to_v1(blob):
            tc = blob["train_config"]
            tc.update(tc.pop("loss"), jitter_pixels=False)
            blob["schema_version"] = 1

        path = self._write(tmp_path, to_v1)
        with pytest.raises(ConfigError, match="unsupported checkpoint version 1") as err:
            load_checkpoint(path)
        assert str(path) in str(err.value)

    @pytest.mark.parametrize("text", ['{"schema_version": 1, "model": ', "[1, 2]", None])
    def test_unreadable_or_malformed_json_raises_config_error(self, tmp_path, text):
        path = tmp_path / "broken.json"
        if text is not None:
            path.write_text(text)
        with pytest.raises(ConfigError) as err:
            load_checkpoint(path)
        assert str(path) in str(err.value)
