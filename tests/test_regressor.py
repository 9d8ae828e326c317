"""Training-loop tests."""

import json
import math
from dataclasses import astuple

import numpy as np
import pytest

from anglereloc import losses, regressor
from anglereloc.losses import LossConfig
from anglereloc.regressor import (
    ADAM_BLOCK,
    AdamState,
    ConfigError,
    FreeTable,
    PatchMLP,
    TrainConfig,
    TrainLog,
    TrainRecord,
    adam_step,
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
    bc1 = 1.0 - state.beta1**t
    bc2 = 1.0 - state.beta2**t
    new_params, new_m, new_v = [], [], []
    for p, g, m, v in zip(params, grads, state.m, state.v):
        m = state.beta1 * m + (1 - state.beta1) * g
        v = state.beta2 * v + (1 - state.beta2) * (g * g)
        m_hat = m / bc1
        v_hat = v / bc2
        new_params.append(p - state.lr * m_hat / (np.sqrt(v_hat) + state.eps))
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
            dict(beta1=-0.5),  # b1 * 0 is -0.0, and so is a -0.0 gradient
            dict(eps=0.0),  # 0 / 0 is NaN
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
        # the mapping the table was once built as: images in id order,
        # each image's points in the dataset's order
        expected, n = {}, 0
        for image_id in sorted(room.observations):
            for k in room.observations[image_id].point_ids:
                expected[(image_id, int(k))] = n
                n += 1
        got = {
            (image_id, int(k)): int(r)
            for image_id in table.rows
            for k, r in zip(table.point_ids[image_id], table.rows[image_id])
        }
        assert got == expected
        assert table.coords.shape == (n, 3)
        # checkpoints keep the (image, point)-sorted triples of that mapping
        old_index = [[i, k, r] for (i, k), r in sorted(expected.items())]
        assert table.state_dict()["index"] == old_index
        for image_id, obs in room.observations.items():
            old_rows = [expected[(image_id, int(k))] for k in obs.point_ids]
            assert np.array_equal(table.predict_image(room, image_id)[0], table.coords[old_rows])

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
        _, rows_a = table.predict_image(room, a)
        _, rows_b = table.predict_image(room, b)
        table.grads_for_image(rows_a, np.ones((len(rows_a), 3)))
        (g,) = table.grads_for_image(rows_b, np.full((len(rows_b), 3), 2.0))
        expected = np.zeros_like(table.coords)
        expected[rows_b] = 2.0
        assert np.array_equal(g, expected)


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
        for rows in table.rows.values():
            # no image straddles a cut
            assert len(np.unique(table.coords[rows, 0])) == 1
        firsts = {int(r.min()) for r in table.rows.values()}
        assert starts <= firsts | {0}
        return views

    # 60: every image is over the bound, one run each; 150: mostly pairs
    @pytest.mark.parametrize("block, n_runs", [(60, 12), (150, 7), (10**6, 1)])
    def test_runs_are_image_aligned_and_bounded(self, room, monkeypatch, block, n_runs):
        monkeypatch.setattr(regressor, "ADAM_BLOCK", block)
        table = FreeTable.init(room, seed=1)
        views = self.check_runs(table)
        assert len(views) == n_runs
        stops = np.cumsum([len(v) for v in views])
        for v, stop in zip(views, stops):
            images = [i for i, r in table.rows.items() if stop - len(v) <= r[0] < stop]
            assert v.size <= block or len(images) == 1

    def test_gradient_views_match_the_parameter_views(self, room, monkeypatch):
        monkeypatch.setattr(regressor, "ADAM_BLOCK", 150)
        table = FreeTable.init(room)
        image_id = room.train_ids[3]
        _, rows = table.predict_image(room, image_id)
        grads = table.grads_for_image(rows, np.full((len(rows), 3), 2.0))
        params = table.param_list()
        assert [g.shape for g in grads] == [p.shape for p in params]
        expected = np.zeros_like(table.coords)
        expected[rows] = 2.0
        assert np.array_equal(np.concatenate(grads), expected)
        # the same buffer again, now holding the next image only
        _, rows_b = table.predict_image(room, room.train_ids[0])
        again = table.grads_for_image(rows_b, np.ones((len(rows_b), 3)))
        assert all(x is y for x, y in zip(again, grads))
        assert np.count_nonzero(np.concatenate(again)) == 3 * len(rows_b)


def _reference_in_place(state, params, grads):
    for p, new in zip(params, reference_adam_step(state, params, grads)):
        p[...] = new


@pytest.mark.parametrize("block", [60, 150])  # one image per run; two per run
@pytest.mark.parametrize("mode", ["reproj", "angle", "angle-multi", "const-depth-reproj"])
def test_train_with_skipped_runs_matches_the_reference_adam(room, monkeypatch, mode, block):
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
    # several runs, some skipped; with one image per run, the test views'
    # runs are skipped to the end
    assert len(model.param_list()) > 2 and any(steps[0])
    assert sum(steps[-1]) >= (len(room.test_ids) if block == 60 else 0)
    init = FreeTable.init(room, seed=[cfg.seed, 12])
    for image_id in room.test_ids:
        rows = model.rows[image_id]
        assert model.coords[rows].tobytes() == init.coords[rows].tobytes()


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
        for image_id in room.observations:
            assert np.array_equal(
                loaded.predict_image(room, image_id)[0], table.predict_image(room, image_id)[0]
            )

    def test_patch_mlp_round_trip(self, room, tmp_path):
        net = PatchMLP.init((room.config.descriptor_dim, 8, 3), seed=3)
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
