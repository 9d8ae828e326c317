"""Host-speed probe: express wall times in seconds of a reference host state.

On a shared host the speed of this process drifts by up to 2x, from second
to second and between states that last minutes, and a run of under a minute
cannot outlast those states. So every timed step is bracketed by a short,
fixed probe computation that exercises the same kinds of work as the
workload, and its wall time is rescaled by

    reference probe time / mean of the probes just before and just after it.

The probe is this file's own code and never calls the program, so a change
to the program cannot move it. Kinds of probe work:

- ``small``: numpy calls on arrays of tens of rows, dominated by the
  interpreter and per-call overhead, as in the per-image loss code and in
  every workload's set-up.
- ``medium``: Adam-like elementwise passes over arrays of 50k elements. On
  ``dense-table`` it follows the host's speed more closely (per-call
  quartile spread 0.07) than ``small`` (0.21) or passes over arrays of 500k
  elements (0.10), though Adam there runs over 500k.

``REFERENCE_S`` holds each kind's median time over many probes on a 2-vCPU
Intel Xeon VM (2.0 GHz nominal), so a rescaled time reads as a wall time on
that host in its usual state.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REFERENCE_S = {"small": 0.0115, "medium": 0.0150}

_rng = np.random.default_rng(0)
_POINTS = _rng.standard_normal((40, 3))
_ROTATION = _rng.standard_normal((3, 3))
_PARAMS = _rng.standard_normal(50_000)
_GRADS = _rng.standard_normal(50_000)


def _small():
    s = 0.0
    for _ in range(1000):
        x = _POINTS @ _ROTATION + 1.0
        n = np.linalg.norm(x, axis=1)
        s += float(np.sum(np.arctan2(n, x[:, 2])))
    return s


def _medium():
    m = np.zeros_like(_PARAMS)
    v = np.zeros_like(_PARAMS)
    for _ in range(40):
        m = 0.9 * m + 0.1 * _GRADS
        v = 0.999 * v + 0.001 * _GRADS * _GRADS
        p = _PARAMS - 0.01 * m / (np.sqrt(v) + 1e-8)
    return p


_KINDS = {"small": _small, "medium": _medium}


def probe(kinds):
    """Wall time of one probe made of ``kinds``, in seconds."""
    start = time.perf_counter()
    for kind in kinds:
        _KINDS[kind]()
    return time.perf_counter() - start


class Clock:
    """Times steps and rescales each by the probes on either side of it."""

    def __init__(self, kinds):
        self.kinds = tuple(kinds)
        self.reference = sum(REFERENCE_S[k] for k in self.kinds)
        self._probes = [probe(self.kinds)]

    @staticmethod
    def now():
        return time.perf_counter()

    def time(self, fn, *args):
        """Run ``fn(*args)``; return ``(result, wall seconds, reference seconds)``."""
        start = time.perf_counter()
        result = fn(*args)
        wall = time.perf_counter() - start
        self._probes.append(probe(self.kinds))
        return result, wall, wall * self.reference / statistics.fmean(self._probes[-2:])

    def speed(self):
        """Median host speed over the run, relative to the reference state."""
        return self.reference / statistics.median(self._probes)
