"""One benchmark run: build the datasets, train, evaluate, check, report.

The loop is closed: one trainer, one image per iteration, the next
``train`` call starting only when the previous one has returned. A workload
has one room or several (``Workload.rooms``); a round trains every room
once. Every ``train`` call on a room uses the same configs, so its results
must repeat bit for bit.

Every step is timed by ``speed.Clock``, which rescales its wall time to the
reference host state. Each timing is the median over a run's builds or
rounds: ``setup_s`` sums each room's median build, throughput comes from the
median round, and ``total_s`` adds set-up, the median round and the median
final evaluation. The same figures in plain wall time are printed beside
them.
"""

from __future__ import annotations

import hashlib
import resource
import statistics

import numpy as np

import spans
import speed
from anglereloc import losses, regressor, scenegen

# set-up is repeated until it has taken this share of the run, within bounds
SETUP_SHARE = 0.15
# probe kinds for timing set-up: every workload's build is Python loops and
# numpy calls on small arrays, whatever the train step does
SETUP_PROBE = ("small",)
SETUP_REPS = (3, 25)
WARMUP_ITERATIONS = 20


class CheckFailed(Exception):
    """An output of the program is wrong; the run reports no numbers."""


def _check(ok, message):
    if not ok:
        raise CheckFailed(message)


def dataset_digest(ds):
    h = hashlib.sha256()
    for image_id in sorted(ds.observations):
        obs = ds.observations[image_id]
        for a in (obs.point_ids, obs.pixels, obs.gt_coords, obs.descriptors):
            h.update(np.ascontiguousarray(a).tobytes())
        pose = ds.poses[image_id]
        h.update(pose.rotation.tobytes() + pose.translation.tobytes())
        if image_id in ds.images:
            h.update(ds.images[image_id].data.tobytes())
    h.update(repr((ds.train_ids, ds.test_ids, sorted(ds.covis.corresponded))).encode())
    return h.hexdigest()


def build(dcfgs, clock, budget_s):
    """Build every room repeatedly: at least ``SETUP_REPS[0]`` times and until
    ``budget_s`` of wall time is spent. Returns the rooms of the last round
    and, per room, the (wall, reference) seconds of each build."""
    rooms = [None] * len(dcfgs)
    times = [[] for _ in dcfgs]
    digests = [None] * len(dcfgs)
    lo, hi = SETUP_REPS
    spent = 0.0
    while len(times[0]) < lo or (spent < budget_s and len(times[0]) < hi):
        for i, dcfg in enumerate(dcfgs):
            rooms[i] = None  # free the previous copy first, so peak memory holds one
            rooms[i], wall, ref = clock.time(scenegen.build_dataset, dcfg)
            times[i].append((wall, ref))
            spent += wall
            d = dataset_digest(rooms[i])
            _check(digests[i] in (None, d), "build_dataset gave different data for one config")
            digests[i] = d
    return rooms, times


def describe_inputs(rooms):
    """The working set each workload puts in front of the program."""
    counts = np.array(
        [len(ds.observations[i].point_ids) for ds in rooms for i in sorted(ds.observations)]
    )
    corresponded = sum(
        int(np.isin(o.point_ids, list(ds.covis.corresponded)).sum())
        for ds in rooms
        for o in ds.observations.values()
    )
    return {
        "rooms": len(rooms),
        "obs_per_image_median": float(np.median(counts)),
        "obs_per_image_min": int(counts.min()),
        "obs_per_image_max": int(counts.max()),
        "train_images": sum(len(ds.train_ids) for ds in rooms),
        "free_table_rows": int(counts.sum()),
        "corresponded_frac": corresponded / int(counts.sum()),
        "render_pixels": sum(img.data.size for ds in rooms for img in ds.images.values()),
    }


def check_oracle(ds):
    oracle = regressor.GtLookup()
    for ids in (ds.train_ids, None):
        _check(
            regressor.evaluate_coords(oracle, ds, ids) == (0.0, 0.0),
            "GtLookup does not give zero coordinate error",
        )


def outcome(model, ds, log, cfg):
    """Check one trained model and return what must repeat across calls:
    a digest of (per-observation errors, behind count, non-finite events,
    parameters), the errors, the behind count and the non-finite events."""
    _check(
        log.final.iteration == cfg.iterations,
        f"TrainLog ends at {log.final.iteration}, not {cfg.iterations}",
    )
    median, _ = regressor.evaluate_coords(model, ds, ds.train_ids)
    errs, behind = [], 0
    for image_id in ds.train_ids:
        obs = ds.observations[image_id]
        pose = ds.poses[image_id]
        preds, _ = model.predict_image(ds, image_id)
        errs.append(np.linalg.norm(preds - obs.gt_coords, axis=1))
        cam = pose.world_to_camera(preds)
        behind += int(np.sum(cam[:, 2] < 0))
        # the angle loss is the chord 2|d| sin(theta/2) between the observed
        # ray d and the prediction's ray; theta here is computed independently
        values = losses.angle_terms(ds.intrinsics, pose, preds, obs.pixels)[0]
        d = np.column_stack(
            [
                obs.pixels[:, 0] - ds.intrinsics.cx,
                obs.pixels[:, 1] - ds.intrinsics.cy,
                np.full(len(obs.pixels), ds.intrinsics.f),
            ]
        )
        nd = np.linalg.norm(d, axis=1)
        theta = np.arctan2(np.linalg.norm(np.cross(cam, d), axis=1), np.sum(cam * d, axis=1))
        _check(
            np.allclose(values, 2 * nd * np.sin(theta / 2), rtol=1e-9, atol=1e-9 * nd.max()),
            f"angle_terms disagrees with the chord formula on image {image_id}",
        )
    errs = np.concatenate(errs)
    _check(
        np.isclose(median, float(np.median(errs)), rtol=1e-12, atol=0.0),
        "evaluate_coords median is wrong",
    )
    nonfinite = log.final.nonfinite_events
    h = hashlib.sha256(errs.tobytes() + repr((behind, nonfinite)).encode())
    for p in model.param_list():
        h.update(np.ascontiguousarray(p).tobytes())
    return h.hexdigest(), errs, behind, nonfinite


def run(workload, seed, seconds, trace, iterations=None, out_dir=None):
    """Measure one workload for about ``seconds``. Returns
    ``(inputs, metrics, attempted, failed)`` with ``metrics`` mapping name to
    value; raises ``CheckFailed``."""
    dcfgs = workload.dataset_configs(seed)
    cfgs = [workload.train_config(d.seed, iterations) for d in dcfgs]
    start = speed.Clock.now()

    setup_tracer = spans.Tracer()
    if trace:
        with setup_tracer.patched():
            rooms = [scenegen.build_dataset(d) for d in dcfgs]
        setup_times = []
    else:
        rooms, setup_times = build(dcfgs, speed.Clock(SETUP_PROBE), SETUP_SHARE * seconds)
    inputs = describe_inputs(rooms)
    for ds in rooms:
        check_oracle(ds)
    regressor.train(rooms[0], workload.model, workload.train_config(seed, WARMUP_ITERATIONS))
    clock = speed.Clock(workload.probe)

    # per round: (train wall, train reference, eval wall, eval reference) seconds
    untraced, traced_rounds = [], []
    train_tracer = spans.Tracer()
    first = [None] * len(rooms)
    attempted = failed = 0
    while True:
        # untraced and traced rounds alternate in a traced run
        traced = trace and len(traced_rounds) < len(untraced)
        sums = np.zeros(4)
        for i, (ds, cfg) in enumerate(zip(rooms, cfgs)):
            if traced:
                with train_tracer.patched():
                    (model, log), wall, ref = clock.time(regressor.train, ds, workload.model, cfg)
            else:
                (model, log), wall, ref = clock.time(regressor.train, ds, workload.model, cfg)
            _, eval_wall, eval_ref = clock.time(
                regressor.evaluate_coords, model, ds, ds.train_ids
            )
            sums += (wall, ref, eval_wall, eval_ref)
            result = outcome(model, ds, log, cfg)
            _check(
                first[i] is None or first[i][0] == result[0],
                "two train calls with one config disagree",
            )
            first[i] = result
            attempted += cfg.iterations
            failed += result[3]
            model = log = None
        (traced_rounds if traced else untraced).append(sums)
        rounds = len(untraced) + len(traced_rounds)
        typical = statistics.median(r[0] + r[2] for r in untraced + traced_rounds)
        if rounds >= (4 if trace else 3) and clock.now() - start + typical > seconds:
            break

    errs = np.concatenate([r[1] for r in first])
    behind_frac = sum(r[2] for r in first) / len(errs)
    iters = sum(cfg.iterations for cfg in cfgs)

    def med(rows, col):
        return statistics.median(r[col] for r in rows)

    if trace:
        overhead = med(traced_rounds, 1) / med(untraced, 1) - 1
        metrics = spans.layer_metrics(
            setup_tracer, train_tracer, len(traced_rounds) * len(rooms), cfgs[0].iterations,
            overhead,
        )
        if out_dir is not None:
            out_dir.mkdir(parents=True, exist_ok=True)
            path = out_dir / f"spans-{workload.name}.jsonl"
            path.unlink(missing_ok=True)
            setup_tracer.write_jsonl(path, "setup")
            train_tracer.write_jsonl(path, "train")
    else:
        setup = [sum(statistics.median(t[col] for t in room) for room in setup_times)
                 for col in (0, 1)]
        metrics = {
            "setup_s": setup[1],
            "train_iters_per_s": iters / med(untraced, 1),
            "total_s": setup[1] + med(untraced, 1) + med(untraced, 3),
            "median_err": float(np.median(errs)),
            "infront_frac": 1.0 - behind_frac,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "behind_frac": behind_frac,
            "nonfinite_frac": failed / attempted,
            "wall.setup_s": setup[0],
            "wall.train_iters_per_s": iters / med(untraced, 0),
            "wall.total_s": setup[0] + med(untraced, 0) + med(untraced, 2),
        }
    for name, value in metrics.items():
        _check(np.isfinite(value), f"metric {name} is not finite")
    inputs["rounds"] = len(untraced) + len(traced_rounds)
    inputs["host_speed"] = clock.speed()
    return inputs, metrics, attempted, failed
