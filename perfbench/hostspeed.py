"""How fast the host runs right now, sampled while the program runs.

The shared host this benchmark was built on changes speed by up to 2x, in
spells from seconds to many minutes, and a spell can cover whole runs. A
``Probe`` measures that speed during a timed interval: a wall-clock interval
timer (``SIGALRM``) runs a short slice of fixed reference work every
``INTERVAL_S`` seconds, between the program's own Python steps, on the same
core. The slices' time is taken out of the interval, and their mean duration
against ``NOMINAL_SLICE_S`` says how much slower than nominal the host ran.

``normalized_s`` is then the interval's own time at nominal speed. Over two
minutes of repeated model fits on a 2-vCPU KVM guest, the fit time and the
slice time moved together (correlation 0.92 per 1-s fit, 0.99 over 10 s), and
rescaling cut the fits' coefficient of variation from 0.11 to 0.02 over 10-s
windows.

The reference work is this module's own code (a small dense SGD step in NumPy
and float formatting and parsing, the program's two kinds of work), so no
change to vibrosense changes it.
"""

from __future__ import annotations

import signal
import time

import numpy as np

INTERVAL_S = 0.05
SLICE_STEPS = 60
#: Slices taken after an interval that got fewer from the timer.
MIN_SLICES = 8

#: Mean slice duration, in seconds, that counts as nominal host speed (about
#: the usual value on the 2-vCPU Xeon guest the benchmark was built on).
NOMINAL_SLICE_S = 2.3e-3

_rng = np.random.default_rng(0)
_X = _rng.standard_normal((32, 16))
_Y = _rng.standard_normal((32, 1))
_W1 = _rng.standard_normal((16, 32)) * 0.1
_W2 = _rng.standard_normal((32, 1)) * 0.1


def reference_slice(steps: int = SLICE_STEPS) -> float:
    """Fixed work: ``steps`` SGD steps of a 16-32-1 tanh net on 32 rows, each
    also formatting and parsing eight floats. Returns a checksum."""
    w1, w2 = _W1.copy(), _W2.copy()
    acc = 0.0
    for _ in range(steps):
        h = np.tanh(_X @ w1)
        out = h @ w2
        g = (out - _Y) / 32
        gw2 = h.T @ g
        gw1 = _X.T @ ((g @ w2.T) * (1 - h * h))
        w1 -= 0.01 * gw1
        w2 -= 0.01 * gw2
        acc += sum(float(t) for t in ",".join(f"{v:.6f}" for v in out[:8, 0]).split(","))
    return acc


class Probe:
    """Context manager sampling host speed over the ``with`` body.

    After exit: ``wall_s`` (the body's wall time, slices included),
    ``probe_s`` and ``slices`` (time in and number of slices), ``own_s``
    (wall time without the slices), ``speed`` (mean slice time over nominal;
    above 1 means a slow host) and ``normalized_s``.
    """

    def __init__(self):
        self.wall_s = self.own_s = self.probe_s = 0.0
        self.slices = 0

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        reference_slice()
        self.probe_s += time.perf_counter() - t0
        self.slices += 1

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.wall_s = time.perf_counter() - self._t0
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.own_s = self.wall_s - self.probe_s
        while self.slices < MIN_SLICES:  # a short body: sample right after it
            self._tick(None, None)
        return False

    @property
    def speed(self) -> float:
        return self.probe_s / self.slices / NOMINAL_SLICE_S

    @property
    def normalized_s(self) -> float:
        return self.own_s / self.speed

    def record(self) -> dict:
        return {"wall_s": self.wall_s, "own_s": self.own_s, "probe_s": self.probe_s,
                "slices": self.slices, "speed": self.speed, "normalized_s": self.normalized_s}


def speed_of(records) -> float:
    """Mean slice time over nominal across several probes' ``record()``s."""
    return (sum(r["probe_s"] for r in records) / sum(r["slices"] for r in records)
            / NOMINAL_SLICE_S)
