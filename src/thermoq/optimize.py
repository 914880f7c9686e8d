"""Meter-state optimization and derived sweeps: best preparation, best
temperature, QFI crossing time, and dimension scaling.

The initial-state search maximizes the meter QFI Q(c) over real unit vectors
c. The meter state rho = C o c c^T and its derivative rho' = C' o c c^T are
linear in c c^T, so for the symmetric logarithmic derivative L of rho the
QFI is Q = c^T G c with

    G = Re(2 C'^T o L - C^T o L^2),

and the gradient of Q is 2 G c (L maximizes 2 Tr[rho' L] - Tr[rho L^2], so
its own variation drops out). Each step from c tries a Newton step on the
unit sphere: its Hessian is a central difference of that analytic gradient,
its curvatures enter with negative sign so that it ascends also where Q is
not concave, and its length is capped at 1 and tried with four halvings in
one batch. The best length is kept if Q rises; otherwise the step is the
see-saw update c <- |top eigenvector of G| (Macieszczak, arXiv:1312.1356),
which never lowers Q. Taking moduli is free: a sign pattern is a
temperature-independent diagonal unitary and leaves Q unchanged, and by
convexity of the QFI the optimum over all states is pure. The search stops
when the relative Riemannian residual 2 ||G c - (c^T G c) c|| / Q falls to
tol, when no step raises Q above roundoff, or after _MAX_STEPS steps. It
starts from the equal superposition plus seeded random points and returns
the best of all starts, so the result is never worse than the equal
superposition.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .bath import bose_occupation, check_thermal, d_occupation_dT, sensor_qfi
from .dynamics import MeterState, meter_blocks, spin_x_spectrum
from .qfi import _jordan_qfi, meter_qfi_grid

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

# see-saw/Newton steps per start before the search stops unconverged
_MAX_STEPS = 200

# central-difference step of the Hessian; the gradient is homogeneous of
# degree 1 in c, so on unit vectors this step is relative
_HESSIAN_STEP = 1e-5

# Newton step lengths tried together: the full step and four halvings
_NEWTON_SCALES = 0.5 ** np.arange(5)


class BoundaryMaximumWarning(UserWarning):
    """A T_max search row found its maximum on the edge of the tau range.

    n is the meter's level count (None without a meter), t the row's time
    and tau the edge point returned."""

    def __init__(self, message, n=None, t=None, tau=None):
        super().__init__(message)
        self.n, self.t, self.tau = n, t, tau


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
    """Outcome of an initial-state search.

    iterations counts the see-saw and Newton steps of all starts; converged
    and residual (the relative Riemannian gradient norm) belong to the best
    start.
    """

    argmax: tuple
    value: float
    iterations: int
    converged: bool
    residual: float


def _ascent_terms(coh, dcoh, cs):
    """(Q, G) at the stacked real states cs (..., n): the meter QFI of
    rho = coh o c c^T and G = Re(2 dcoh^T o L - coh^T o L^2) from its SLD L."""
    cc = cs[..., :, None] * cs[..., None, :]
    q, sld = _jordan_qfi((coh * cc)[..., None, :, :], (dcoh * cc)[..., None, :, :],
                         sld=True)
    sld = sld[..., 0, :, :]
    return q, (2.0 * dcoh.T * sld - coh.T * (sld @ sld)).real


def _probe(coh, dcoh, c):
    """(Q, G, Hessian of Q) at the unit state c, from one evaluation of c and
    its central-difference stencil."""
    n = c.size
    shift = _HESSIAN_STEP * np.eye(n)
    points = np.concatenate([c[None], c + shift, c - shift])
    q, g = _ascent_terms(coh, dcoh, points)
    grad = 2.0 * (g @ points[..., None])[..., 0]
    hess = (grad[1:n + 1] - grad[n + 1:]) / (2.0 * _HESSIAN_STEP)
    return q[0], g[0], 0.5 * (hess + hess.T)


def _newton_direction(c, q, g, hess):
    """Newton step for Q on the unit sphere from c, of length at most 1.

    The Riemannian Hessian P (H - 2Q) P, P = 1 - c c^T, enters with its
    eigenvalues w replaced by -|w|, so the step ascends also where Q is not
    concave."""
    proj = np.eye(c.size) - np.outer(c, c)
    # the normal direction gets curvature -Q, so the step stays tangent
    hr = proj @ (hess - 2.0 * q * np.eye(c.size)) @ proj - q * np.outer(c, c)
    w, v = np.linalg.eigh(hr)
    step = v @ ((v.T @ (2.0 * (g @ c - q * c))) / np.maximum(np.abs(w), 1e-12 * q))
    return step / max(1.0, np.linalg.norm(step))


def _ascend(coh, dcoh, c, tol):
    """Newton/see-saw ascent from the unit state c: (c, Q, residual, steps)."""
    q, g, hess = _probe(coh, dcoh, c)
    steps = 0
    while True:
        if q == 0:  # t = 0 or a gapless meter: no state carries information
            return c, q, 0.0, steps
        gc = g @ c
        # scaled before the norm, whose squares underflow for Q below ~1e-154
        residual = 2.0 * np.linalg.norm((gc - (c @ gc) * c) / q)
        if residual <= tol or steps == _MAX_STEPS:
            return c, q, residual, steps
        newton = c + _NEWTON_SCALES[:, None] * _newton_direction(c, q, g, hess)
        seesaw = np.linalg.eigh(g)[1][:, -1]
        candidates = np.abs(np.vstack([newton, seesaw]))
        candidates /= np.linalg.norm(candidates, axis=1, keepdims=True)
        qs, _ = _ascent_terms(coh, dcoh, candidates)
        # the best Newton length if it rises, else the see-saw step
        i = int(np.argmax(qs[:-1]))
        if not qs[i] > q:
            i = -1
            if not qs[i] > q:  # no step rises above roundoff any more
                return c, q, residual, steps
        c = candidates[i]
        q, g, hess = _probe(coh, dcoh, c)
        steps += 1


def optimize_initial_state(tau, meter, t, tol=1e-6, n_starts=8, seed=0, gamma=1.0):
    """Maximize the meter QFI over initial meter states.

    Returns (MeterState, OptimizationReport). Deterministic for a fixed seed.
    A start has converged when its relative Riemannian residual is at most
    tol. The returned value is meter_qfi_grid at the returned state. When the
    QFI vanishes (t = 0, a gapless meter) the equal superposition is
    returned as converged.
    """
    check_thermal(tau, gamma)
    if tol <= 0:
        raise ValueError("tol must be positive")
    if n_starts < 1:
        raise ValueError("n_starts must be at least 1")
    if not t >= 0:
        raise ValueError("t must be nonnegative")
    n = meter.n
    rng = np.random.default_rng(seed)
    starts = [np.full(n, 1.0 / math.sqrt(n))]
    for _ in range(n_starts - 1):
        x = rng.random(n) + 0.05
        starts.append(x / np.linalg.norm(x))

    blocks = meter_blocks(bose_occupation(tau), d_occupation_dT(tau), gamma, meter, t)
    coh, dcoh = blocks.x + blocks.y, blocks.dx + blocks.dy
    runs = [_ascend(coh, dcoh, c0, tol) for c0 in starts]
    best, _, residual, _ = max(runs, key=lambda run: run[1])  # ties: first start
    state = MeterState(best / np.linalg.norm(best))
    value = meter_qfi_grid(tau, t, meter, state, gamma)
    report = OptimizationReport(argmax=tuple(state.coefficients),
                                value=float(value),
                                iterations=sum(run[3] for run in runs),
                                converged=bool(residual <= tol),
                                residual=float(residual))
    return state, report


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
               rel_tol=1e-4, n_grid=200):
    """Locate the most sensitive temperature T_max at fixed times.

    t is a scalar or a 1-D array of times, one search row each. A coarse
    geometric scan (n_grid points, one grid evaluation over all rows, ties
    resolved toward smaller tau) brackets each row's maximum, and golden
    section refines the rows together to relative width rel_tol, one grid
    evaluation per step over the rows still narrowing. The scan is
    geometric, so every bracket has the same relative width and the rows
    finish within a step of each other. Each row makes its own comparisons,
    so it comes out bitwise as if it were searched alone.

    Returns (tau_max, qfi_at_max): floats for a scalar t, arrays of t's
    shape otherwise. A row whose maximum lies on the range edge returns that
    grid point as-is and issues its own BoundaryMaximumWarning, which names
    the row.

    A gapless meter (or meter=None) carries no temperature information, so
    the objective falls back to the bare sensor QFI.
    """
    lo, hi = float(tau_range[0]), float(tau_range[1])
    if not (0 < lo < hi):
        raise ValueError(f"invalid tau_range {tau_range!r}")
    if n_grid < 3:
        raise ValueError("n_grid must be at least 3")
    times = np.asarray(t, dtype=float)
    if times.ndim > 1:
        raise ValueError("t must be a scalar or a 1-D array")
    rows = np.atleast_1d(times)

    if meter is None or np.ptp(meter.lambdas) == 0:
        def objective(taus, ts):
            return sensor_qfi(taus, ts, gamma)
    else:
        def objective(taus, ts):
            return meter_qfi_grid(taus, ts, meter, psi0, gamma)

    grid = np.geomspace(lo, hi, n_grid)
    values = objective(grid, rows[:, None])
    i = np.argmax(values, axis=1)
    tau_max, q = grid[i], values[np.arange(rows.size), i]
    edge = (i == 0) | (i == n_grid - 1)
    for k in np.flatnonzero(edge):
        warnings.warn(BoundaryMaximumWarning(
            f"QFI maximum at the tau_range boundary tau={tau_max[k]:g} "
            f"(t={rows[k]:g})", None if meter is None else meter.n,
            float(rows[k]), float(tau_max[k])), stacklevel=2)

    inner = np.flatnonzero(~edge)
    ts = rows[inner]
    a, b = grid[i[inner] - 1], grid[i[inner] + 1]
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = objective(np.stack([c, d]), ts)
    active = (b - a) > rel_tol * 0.5 * (a + b)
    while active.any():
        left = active & (fc >= fd)
        right = active & ~left
        b[left], d[left], fd[left] = d[left], c[left], fc[left]
        c[left] = b[left] - invphi * (b[left] - a[left])
        a[right], c[right], fc[right] = c[right], d[right], fd[right]
        d[right] = a[right] + invphi * (b[right] - a[right])
        f = objective(np.where(left, c, d)[active], ts[active])
        fc[left], fd[right] = f[left[active]], f[right[active]]
        active = (b - a) > rel_tol * 0.5 * (a + b)
    # ties resolve toward smaller tau (c < d)
    upper = fc >= fd
    tau_max[inner] = np.where(upper, c, d)
    q[inner] = np.where(upper, fc, fd)
    if times.ndim == 0:
        return float(tau_max[0]), float(q[0])
    return tau_max, q


def dimension_scaling(omega_drive, t, n_max, gamma=1.0):
    """QFI at (T_max, t) for meters n = 2..n_max with equal-superposition starts.

    t is a scalar or a 1-D array of times; each n takes one find_t_max call
    over all of them. Returns rows (n, qfi_at_tmax, r), where
    r = (I(n+1) - I(n))/I(n) is the relative gain of one more level, with
    qfi_at_tmax and r floats for a scalar t and arrays over t otherwise;
    I(n_max + 1) is computed internally so the last row has its gain. Raises
    ValueError, naming n and t, where I(n) = 0 leaves r undefined (a gapped
    meter at t = inf has decohered and carries no information).
    """
    if not (isinstance(n_max, (int, np.integer)) and n_max >= 2):
        raise ValueError(f"n_max must be an integer >= 2, got {n_max!r}")
    values = {}
    for n in range(2, int(n_max) + 2):
        meter = spin_x_spectrum(n, omega_drive)
        psi0 = MeterState.equal_superposition(n)
        _, q = find_t_max(meter, psi0, t, gamma=gamma)
        zero = np.flatnonzero(np.atleast_1d(q) == 0)
        if n <= n_max and zero.size:
            raise ValueError(f"QFI at T_max is zero at n={n} "
                             f"t={np.atleast_1d(t)[zero[0]]:g}, so its gain r "
                             f"is undefined")
        values[n] = q
    return [(n, values[n], (values[n + 1] - values[n]) / values[n])
            for n in range(2, int(n_max) + 1)]


def crossing_time(tau, omega_drive, t_window=(0.05, 50.0), rel_tol=1e-6,
                  n_scan=240, gamma=1.0):
    """First time the two-level meter QFI overtakes the sensor QFI.

    Geometric scan of the window (n_scan points in one grid evaluation) for
    the first sign change of I_M - I_S, then bisection until
    |I_M - I_S| < rel_tol * I_S. Raises NoCrossingError when the meter stays
    below throughout (e.g. Omega = 0, where it has no temperature
    sensitivity at all).
    """
    check_thermal(tau, gamma)
    lo, hi = float(t_window[0]), float(t_window[1])
    if not (0 < lo < hi and math.isfinite(hi)):
        raise ValueError(f"invalid t_window {t_window!r}")
    meter = spin_x_spectrum(2, omega_drive)
    psi0 = MeterState.equal_superposition(2)

    def gap(ts):
        return meter_qfi_grid(tau, ts, meter, psi0, gamma) - sensor_qfi(tau, ts, gamma)

    ts = np.geomspace(lo, hi, n_scan)
    above = gap(ts) >= 0
    if above[0]:
        raise NoCrossingError(
            f"meter QFI already above the sensor at the window start t={lo:g}")
    if not above.any():
        raise NoCrossingError(
            f"no meter-sensor QFI crossing in t_window ({lo:g}, {hi:g})")
    i = int(np.argmax(above))
    a, b = ts[i - 1], ts[i]
    for _ in range(200):
        mid = 0.5 * (a + b)
        g = gap(mid)
        if abs(g) < rel_tol * sensor_qfi(tau, mid, gamma):
            return mid
        if g >= 0:
            b = mid
        else:
            a = mid
    raise RuntimeError("bisection failed to reach the crossing tolerance")
