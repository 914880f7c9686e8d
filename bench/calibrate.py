"""A fixed piece of work that tracks the speed of the machine, for scaling times.

The benchmark runs on virtual machines whose host changes their speed by up
to 1.6 times within minutes, which no bound on a raw time can carry. The
work here never changes and does not touch the package: small Hermitian
eigensolves and a scalar loop, the mix the package's per-point code runs.
Timed right next to the package's work, its seconds measure how fast the
machine is at that moment. A time t measured beside a calibration that took
c seconds is reported as t * REFERENCE_S / c: seconds on a machine where the
calibration takes REFERENCE_S.
"""

import math
import time

import numpy as np

# median time of calibrate() on the 2-vCPU Xeon at 2.1 GHz where the benchmark
# was written, so scaled times read about as that machine's seconds
REFERENCE_S = 0.2

_REPS = 45
_rng = np.random.default_rng(0)
_A = _rng.standard_normal((64, 4, 4)) + 1j * _rng.standard_normal((64, 4, 4))
_HERMITIAN = [a @ a.conj().T for a in _A]


def calibrate():
    """Seconds the fixed work took."""
    start = time.perf_counter()
    acc = 0.0
    for _ in range(_REPS):
        for h in _HERMITIAN:
            w, v = np.linalg.eigh(h)
            acc += float(np.trace((v * w) @ v.conj().T).real)
        for i in range(4000):
            acc += math.exp(-i * 1e-4) * math.sqrt(i + 1.0)
    seconds = time.perf_counter() - start
    if not math.isfinite(acc):
        raise ArithmeticError("calibration work went non-finite")
    return seconds


def scaled(seconds, calibration_s):
    """`seconds` measured beside a calibration of `calibration_s`, at the reference speed."""
    return seconds * REFERENCE_S / calibration_s
