"""Meter-state optimization and derived sweeps: best preparation, best
temperature, QFI crossing time, and dimension scaling.

The initial-state search runs Nelder-Mead on the unit sphere through the
parametrization c = |x| / ||x||, restarted from the equal superposition plus
seeded random points; the best of all starts is returned, so the result is
never worse than the equal superposition (up to the tolerance).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .bath import SensorParams, sensor_qfi
from .dynamics import MeterState, spin_x_spectrum
from .qfi import meter_qfi, meter_qfi_grid

__all__ = [
    "SweepGrid",
    "OptimizationReport",
    "BoundaryMaximumWarning",
    "NoCrossingError",
    "optimize_initial_state",
    "bures_distance_pure",
    "find_t_max",
    "dimension_scaling",
    "crossing_time",
]


class BoundaryMaximumWarning(UserWarning):
    """A sweep maximum landed on the edge of its search range."""


class NoCrossingError(RuntimeError):
    """The meter QFI never overtakes the sensor QFI inside the search window."""


@dataclass(frozen=True)
class SweepGrid:
    """Axes for CLI sweeps. Unused axes stay empty.

    Every axis must be strictly increasing; taus and times are strictly
    positive (times may end with inf), omegas are nonnegative so the
    uncoupled Omega = 0 point stays reachable, ns are integers >= 2.
    """

    taus: tuple = ()
    times: tuple = ()
    omegas: tuple = ()
    ns: tuple = ()

    def __post_init__(self):
        for name in ("taus", "times", "omegas", "ns"):
            vals = tuple(getattr(self, name))
            object.__setattr__(self, name, vals)
            if any(b <= a for a, b in zip(vals, vals[1:])):
                raise ValueError(f"{name} must be strictly increasing")
        if any(not (v > 0 and math.isfinite(v)) for v in self.taus):
            raise ValueError("taus must be positive and finite")
        if any(not v > 0 for v in self.times):
            raise ValueError("times must be positive")
        if any(not (v >= 0 and math.isfinite(v)) for v in self.omegas):
            raise ValueError("omegas must be nonnegative and finite")
        if any(not (float(v).is_integer() and v >= 2) for v in self.ns):
            raise ValueError("ns must be integers >= 2")


@dataclass(frozen=True)
class OptimizationReport:
    """Outcome of an initial-state search."""

    argmax: tuple
    value: float
    iterations: int
    converged: bool


def optimize_initial_state(params, meter, t, tol=1e-6, n_starts=8, seed=0):
    """Maximize the meter QFI over initial meter states.

    Returns (MeterState, OptimizationReport). Deterministic for a fixed seed.
    tol controls both the simplex termination and the guarantee that the
    returned value is within tol of the best start.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if n_starts < 1:
        raise ValueError("n_starts must be at least 1")
    n = meter.n

    def coefficients(x):
        a = np.abs(x)
        norm = np.linalg.norm(a)
        if norm < 1e-12:
            a = np.ones(n)
            norm = math.sqrt(n)
        return a / norm

    def negative_qfi(x):
        state = MeterState(coefficients(x))
        return -meter_qfi(params, meter, state, t).value

    rng = np.random.default_rng(seed)
    starts = [np.full(n, 1.0 / math.sqrt(n))]
    for _ in range(n_starts - 1):
        starts.append(rng.random(n) + 0.05)

    best = None
    iterations = 0
    for x0 in starts:
        res = minimize(negative_qfi, x0, method="Nelder-Mead",
                       options={"xatol": tol, "fatol": tol * tol * 10.0,
                                "maxfev": 4000 + 600 * n, "adaptive": n >= 6})
        iterations += int(res.nit)
        if best is None or res.fun < best.fun:
            best = res
    c = coefficients(best.x)
    value = -float(best.fun)
    report = OptimizationReport(argmax=tuple(c), value=value,
                                iterations=iterations, converged=bool(best.success))
    return MeterState(c), report


def bures_distance_pure(a, b):
    """Bures distance between pure states in the 2(1 - |<a|b>|) convention."""
    va = a.coefficients if isinstance(a, MeterState) else np.asarray(a, dtype=complex)
    vb = b.coefficients if isinstance(b, MeterState) else np.asarray(b, dtype=complex)
    if va.shape != vb.shape or va.ndim != 1:
        raise ValueError("states must be vectors of equal length")
    na, nb = np.linalg.norm(va), np.linalg.norm(vb)
    if abs(na - 1.0) > 1e-6 or abs(nb - 1.0) > 1e-6:
        raise ValueError("states must be normalized")
    overlap = min(abs(np.vdot(va, vb)) / (na * nb), 1.0)
    return 2.0 * (1.0 - overlap)


def find_t_max(meter, psi0, t, tau_range=(0.05, 1.0), *, gamma=1.0,
               sensor_omega=1.0, rel_tol=1e-4, n_grid=200):
    """Locate the most sensitive temperature T_max at a fixed time.

    Coarse geometric scan (n_grid points in one grid evaluation, ties
    resolved toward smaller tau) followed by golden-section refinement to
    relative width rel_tol. Returns (tau_max, qfi_at_max). A maximum on the
    range edge is returned as-is with a BoundaryMaximumWarning.

    A gapless meter (or meter=None) carries no temperature information, so
    the objective falls back to the bare sensor QFI.
    """
    lo, hi = float(tau_range[0]), float(tau_range[1])
    if not (0 < lo < hi):
        raise ValueError(f"invalid tau_range {tau_range!r}")
    if n_grid < 3:
        raise ValueError("n_grid must be at least 3")

    sensor_only = meter is None or np.ptp(meter.lambdas) == 0

    def objective(tau):
        params = SensorParams(temperature=tau, omega=sensor_omega, gamma=gamma)
        if sensor_only:
            return sensor_qfi(params, t)
        return meter_qfi(params, meter, psi0, t).value

    grid = np.geomspace(lo, hi, n_grid)
    if sensor_only:
        values = [objective(x) for x in grid]
    else:
        values = meter_qfi_grid(grid, t, meter, psi0, gamma)
    i = int(np.argmax(values))
    if i == 0 or i == n_grid - 1:
        warnings.warn(f"QFI maximum at the tau_range boundary tau={grid[i]:g}",
                      BoundaryMaximumWarning, stacklevel=2)
        return float(grid[i]), float(values[i])

    a, b = float(grid[i - 1]), float(grid[i + 1])
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = objective(c), objective(d)
    while (b - a) > rel_tol * 0.5 * (a + b):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = objective(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = objective(d)
    # ties resolve toward smaller tau (c < d)
    return (c, float(fc)) if fc >= fd else (d, float(fd))


def dimension_scaling(params, omega_drive, t, n_max):
    """QFI at (T_max, t) for meters n = 2..n_max with equal-superposition starts.

    Returns rows (n, qfi_at_tmax, r) where r = (I(n+1) - I(n))/I(n) is the
    relative gain of one more level; I(n_max + 1) is computed internally so
    the last row has its gain.
    """
    if not (isinstance(n_max, (int, np.integer)) and n_max >= 2):
        raise ValueError(f"n_max must be an integer >= 2, got {n_max!r}")
    values = {}
    for n in range(2, int(n_max) + 2):
        meter = spin_x_spectrum(n, omega_drive)
        psi0 = MeterState.equal_superposition(n)
        _, q = find_t_max(meter, psi0, t, gamma=params.gamma,
                          sensor_omega=params.omega)
        values[n] = q
    return [(n, values[n], (values[n + 1] - values[n]) / values[n])
            for n in range(2, int(n_max) + 1)]


def crossing_time(params, omega_drive, t_window=(0.05, 50.0), rel_tol=1e-6,
                  n_scan=240):
    """First time the two-level meter QFI overtakes the sensor QFI.

    Geometric scan of the window for the sign change of I_M - I_S, then
    bisection until |I_M - I_S| < rel_tol * I_S. Raises NoCrossingError when
    the meter stays below throughout (e.g. Omega = 0, where it has no
    temperature sensitivity at all).
    """
    lo, hi = float(t_window[0]), float(t_window[1])
    if not (0 < lo < hi and math.isfinite(hi)):
        raise ValueError(f"invalid t_window {t_window!r}")
    meter = spin_x_spectrum(2, omega_drive)
    psi0 = MeterState.equal_superposition(2)

    def gap(t):
        return meter_qfi(params, meter, psi0, t).value - sensor_qfi(params, t)

    ts = np.geomspace(lo, hi, n_scan)
    if gap(ts[0]) >= 0:
        raise NoCrossingError(
            f"meter QFI already above the sensor at the window start t={lo:g}")
    bracket = None
    for a, b in zip(ts, ts[1:]):
        if gap(b) >= 0:
            bracket = (a, b)
            break
    if bracket is None:
        raise NoCrossingError(
            f"no meter-sensor QFI crossing in t_window ({lo:g}, {hi:g})")
    a, b = bracket
    for _ in range(200):
        mid = 0.5 * (a + b)
        g = gap(mid)
        if abs(g) < rel_tol * sensor_qfi(params, mid):
            return mid
        if g >= 0:
            b = mid
        else:
            a = mid
    raise RuntimeError("bisection failed to reach the crossing tolerance")
