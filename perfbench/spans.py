"""Spans around the public functions of each layer, recorded from outside.

``Tracer.patched()`` replaces the module globals and class methods listed in
``_TARGETS`` with timing wrappers and restores the originals on exit. A
function is wrapped at every place a caller looks it up (``regressor``
imports ``angle_terms`` by name, ``multiview_image_loss`` finds it in
``losses``), and each place records under the defining module's name.
``geometry`` gets no span: its calls take under a microsecond and their time
lands in the self time of the ``losses`` caller.

Spans (name, start, end, parent) are kept in memory; ``write_jsonl`` writes
them out once the run is over. Counts taken at the same boundaries (points,
samples, array elements) go into ``Tracer.counts``.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict

import numpy as np

from anglereloc import losses, regressor, scenegen


def _count_angle(counts, args, kwargs, result):
    counts["losses.angle_terms.points"] += len(args[2])


def _count_photo(counts, args, kwargs, result):
    counts["losses.photometric_image_loss.points"] += len(result.values)
    counts["losses.photometric_image_loss.valid"] += int(np.sum(result.valid_mask))


def _count_bilinear(counts, args, kwargs, result):
    counts["losses.bilinear_values_and_grads.samples"] += len(args[1])


def _count_adam(counts, args, kwargs, result):
    params, grads = args[1], args[2]
    elements = sum(p.size for p in params)
    counts["regressor.adam_step.elements"] += elements
    counts["regressor.adam_step.nonzero_grad"] += sum(
        int(np.count_nonzero(g)) for g in grads
    )
    # computed, not measured: reads p, g, m, v and writes new p, m, v
    counts["regressor.adam_step.bytes"] += 7 * sum(p.nbytes for p in params)


def _count_observe(counts, args, kwargs, result):
    counts["scenegen.observe.points"] += len(result.point_ids)


def _count_render(counts, args, kwargs, result):
    counts["scenegen.render_image.pixels"] += result.data.size


# (owner, attribute, span name, counter)
_TARGETS = (
    (regressor, "train", "regressor.train", None),
    (regressor, "angle_terms", "losses.angle_terms", _count_angle),
    (losses, "angle_terms", "losses.angle_terms", _count_angle),
    (regressor, "multiview_image_loss", "losses.multiview_image_loss", None),
    (regressor, "photometric_image_loss", "losses.photometric_image_loss", _count_photo),
    (
        losses,
        "bilinear_values_and_grads",
        "losses.bilinear_values_and_grads",
        _count_bilinear,
    ),
    (regressor, "adam_step", "regressor.adam_step", _count_adam),
    (regressor, "evaluate_coords", "regressor.evaluate_coords", None),
    (regressor.FreeTable, "predict_image", "regressor.FreeTable.predict_image", None),
    (
        regressor.FreeTable,
        "grads_for_image",
        "regressor.FreeTable.grads_for_image",
        None,
    ),
    (
        regressor.PatchMLP,
        "forward_cached",
        "regressor.PatchMLP.forward_cached",
        None,
    ),
    (regressor.PatchMLP, "backward", "regressor.PatchMLP.backward", None),
    (scenegen, "build_dataset", "scenegen.build_dataset", None),
    (scenegen, "gen_scene", "scenegen.gen_scene", None),
    (scenegen, "gen_trajectory", "scenegen.gen_trajectory", None),
    (scenegen, "observe", "scenegen.observe", _count_observe),
    (scenegen, "build_covis", "scenegen.build_covis", None),
    (scenegen, "render_image", "scenegen.render_image", _count_render),
)


COUNTER_SPAN = "trace.counters"


class Tracer:
    """In-memory span recorder for one traced phase of a run."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1)
        self.counts = defaultdict(float)
        self._stack = []

    def _wrap(self, name, fn, counter):
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if counter is not None:
                # timed as a sibling span, so the caller's self time excludes it
                spans.append(None)
                start = time.perf_counter()
                counter(counts, args, kwargs, result)
                spans[-1] = (COUNTER_SPAN, start, time.perf_counter(), parent)
            return result

        return traced

    @contextlib.contextmanager
    def patched(self):
        """Install the wrappers for the duration of the block."""
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in _TARGETS]
        try:
            for (owner, attr, name, counter), (_, _, fn) in zip(_TARGETS, saved):
                setattr(owner, attr, self._wrap(name, fn, counter))
            yield self
        finally:
            for owner, attr, fn in saved:
                setattr(owner, attr, fn)

    def totals(self):
        """name -> (calls, inclusive seconds, self seconds). Self time is a
        span's duration minus the durations of its direct children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for (name, start, end, _), covered in zip(self.spans, child):
            agg = out[name]
            agg[0] += 1
            agg[1] += end - start
            agg[2] += end - start - covered
        return {k: tuple(v) for k, v in out.items()}

    def write_jsonl(self, path, phase):
        with open(path, "a") as fh:
            for name, start, end, parent in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "phase": phase,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                        }
                    )
                    + "\n"
                )


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(setup: Tracer, train: Tracer, train_runs, iterations, overhead):
    """Per-layer numbers from one traced ``build_dataset`` (``setup``) and
    ``train_runs`` traced ``train`` calls of ``iterations`` each (``train``).
    A layer the workload never calls reports 0. Returns name -> value."""
    s, t = setup.totals(), train.totals()
    sc, tc = setup.counts, train.counts
    iters = train_runs * iterations
    zero = (0, 0.0, 0.0)

    def self_ms(name):
        return 1e3 * t.get(name, zero)[2] / iters

    angle = t.get("losses.angle_terms", zero)
    photo = t.get("losses.photometric_image_loss", zero)
    bilin = t.get("losses.bilinear_values_and_grads", zero)
    evals = t.get("regressor.evaluate_coords", zero)
    trains = t.get("regressor.train", zero)
    render = s.get("scenegen.render_image", zero)
    observe = s.get("scenegen.observe", zero)
    m = {
        "losses.angle_terms.calls_per_iter": angle[0] / iters,
        "losses.angle_terms.us_per_call": 1e6 * _ratio(angle[1], angle[0]),
        "losses.angle_terms.us_per_point": 1e6
        * _ratio(angle[1], tc["losses.angle_terms.points"]),
        "losses.angle_terms.self_ms_per_iter": self_ms("losses.angle_terms"),
        "losses.multiview_image_loss.self_ms_per_iter": self_ms(
            "losses.multiview_image_loss"
        ),
        "losses.photometric_image_loss.self_ms_per_iter": self_ms(
            "losses.photometric_image_loss"
        ),
        "losses.photometric_image_loss.us_per_point": 1e6
        * _ratio(photo[1], tc["losses.photometric_image_loss.points"]),
        "losses.photometric_image_loss.valid_frac": _ratio(
            tc["losses.photometric_image_loss.valid"],
            tc["losses.photometric_image_loss.points"],
        ),
        "losses.bilinear_values_and_grads.self_ms_per_iter": self_ms(
            "losses.bilinear_values_and_grads"
        ),
        "losses.bilinear_values_and_grads.us_per_sample": 1e6
        * _ratio(bilin[1], tc["losses.bilinear_values_and_grads.samples"]),
        "regressor.adam_step.self_ms_per_iter": self_ms("regressor.adam_step"),
        "regressor.adam_step.elements_per_iter": tc["regressor.adam_step.elements"]
        / iters,
        "regressor.adam_step.useful_frac": _ratio(
            tc["regressor.adam_step.nonzero_grad"], tc["regressor.adam_step.elements"]
        ),
        "regressor.adam_step.bytes_per_iter": tc["regressor.adam_step.bytes"] / iters,
        "regressor.FreeTable.predict_image.self_ms_per_iter": self_ms(
            "regressor.FreeTable.predict_image"
        ),
        "regressor.FreeTable.grads_for_image.self_ms_per_iter": self_ms(
            "regressor.FreeTable.grads_for_image"
        ),
        "regressor.PatchMLP.forward_cached.self_ms_per_iter": self_ms(
            "regressor.PatchMLP.forward_cached"
        ),
        "regressor.PatchMLP.backward.self_ms_per_iter": self_ms("regressor.PatchMLP.backward"),
        "regressor.evaluate_coords.calls": evals[0] / train_runs,
        "regressor.evaluate_coords.ms_per_call": 1e3 * _ratio(evals[1], evals[0]),
        "regressor.train.self_ms_per_iter": self_ms("regressor.train"),
        "regressor.train.layer_frac": 1.0
        - _ratio(trains[2], trains[1] - t.get(COUNTER_SPAN, zero)[1]),
        "scenegen.render_image.s": render[1],
        "scenegen.render_image.us_per_pixel": 1e6
        * _ratio(render[1], sc["scenegen.render_image.pixels"]),
        "scenegen.points_per_image": _ratio(sc["scenegen.observe.points"], observe[0]),
        "trace.overhead_frac": overhead,
    }
    for name in ("build_dataset", "gen_scene", "gen_trajectory", "observe", "build_covis"):
        m[f"scenegen.{name}.s"] = s.get(f"scenegen.{name}", zero)[1]
    return m
