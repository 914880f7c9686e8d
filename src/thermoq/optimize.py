"""Meter-state optimization and derived sweeps: best preparation, best
temperature, and dimension scaling.

The initial-state search maximizes the meter QFI Q(c) over real unit vectors
c. The meter state rho = C o c c^T and its derivative rho' = C' o c c^T are
linear in c c^T, so for the symmetric logarithmic derivative L of rho the
QFI is Q = c^T G c with

    G = Re(2 C'^T o L - C^T o L^2),

and the gradient of Q is 2 G c (L maximizes 2 Tr[rho' L] - Tr[rho L^2], so
its own variation drops out). The Hessian is analytic too: the SLD's
derivative along each coordinate solves a Jordan equation whose
denominators p_a + p_b are already known in rho's eigenbasis (Paris, IJQI 7,
125, 2009), so the eigendecomposition that gives Q also gives G and the
Hessian (see `_ascent_terms`). Each step from c tries a Newton step on the
unit sphere: its curvatures enter with negative sign so that it ascends also
where Q is not concave, and its length is capped at 1 and tried with four
halvings in one batch. The best length is kept if Q rises; otherwise the
step is the see-saw update c <- |top eigenvector of G| (Macieszczak,
arXiv:1312.1356), which never lowers Q. Taking moduli is free: a sign
pattern is a temperature-independent diagonal unitary and leaves Q
unchanged, and by convexity of the QFI the optimum over all states is pure.
A start stops when the relative Riemannian residual 2 ||G c - (c^T G c) c|| / Q
falls to tol, when no step raises Q above roundoff, or after _MAX_STEPS
steps.

Every grid point starts from the equal superposition plus the same seeded
random points, and all starts of all points climb in lockstep: a step makes
one stacked eigendecomposition of the trial states and one of the
Riemannian Hessians, over every start still climbing. The best start of a
point is returned, so the result is never worse than the equal
superposition by more than _TIE_BAND, relative: a start within that band of
the best counts as a tie, and among ties a converged start wins.

The searches report their diagnostics as returned arrays, one return form
for scalar and array input: the optimizer's converged and residual per grid
point, and the T_max search's edge mask of rows whose maximum lies on the
edge of the tau range. None issues a warning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bath import sensor_qfi
from .dynamics import MeterState, spin_x_spectrum
from .qfi import _grid_blocks, _jordan_qfi, meter_qfi_grid

__all__ = [
    "OptimizationReport",
    "optimize_initial_state",
    "bures_distance_pure",
    "find_t_max",
    "dimension_scaling",
]

# see-saw/Newton steps per start before the search stops unconverged
_MAX_STEPS = 200

# Newton step lengths tried together: the full step and four halvings
_NEWTON_SCALES = 0.5 ** np.arange(5)

# matrix entries held at once by the ascent: a start holds n^2 max(n, 6)
# (the n derivative terms of its Hessian, or its six trial states), so a grid
# runs in chunks of _ASCENT_ENTRIES // (n_starts n^2 max(n, 6)) points, which
# bounds the working memory
_ASCENT_ENTRIES = 1 << 16

# starts whose Q lies within this relative band of the best are ties, and
# among ties a converged start is returned. Near a pure meter state Q is
# only resolved to roundoff: at tau = 0.05, t = 1 (n = 6, Omega = 2) the
# converged starts' Q are 0.8e-7 to 2.3e-7 off a 50-digit eigensolve, so
# starts at one optimum differ by up to 3e-7; the band leaves a margin
_TIE_BAND = 1e-6


@dataclass(frozen=True)
class OptimizationReport:
    """Outcome of an initial-state search.

    value, converged and residual (the relative Riemannian gradient norm)
    hold one entry per grid point and belong to its returned start;
    iterations counts the see-saw and Newton steps of all starts of every
    point.
    """

    value: np.ndarray
    iterations: int
    converged: np.ndarray
    residual: np.ndarray


def _sld(coh, dcoh, cs):
    """Q and the SLD parts (u, l, w) of `_jordan_qfi` at the stacked real
    states cs (..., n), for rho = coh o c c^T and rho' = dcoh o c c^T."""
    cc = cs[..., :, None] * cs[..., None, :]
    q, parts = _jordan_qfi((coh * cc)[..., None, :, :], (dcoh * cc)[..., None, :, :],
                           sld=True)
    return q, tuple(v[..., 0, :, :] for v in parts)


def _ascent_terms(coh, dcoh, cs, u, l, w):
    """(G, Hessian of Q) at the stacked states cs (..., n) from their SLD
    parts u, l, w (see `_sld`).

    Along e_k, rho and rho' move by X_k = coh o E_k and X'_k = dcoh o E_k,
    E_k = e_k c^T + c e_k^T, and the SLD by dL_k, which solves
    rho dL_k + dL_k rho = R_k = 2 X'_k - X_k L - L X_k. Differentiating the
    gradient 2 G c gives 2 G at fixed L and Tr[R_l dL_k] through L, so in
    rho's eigenbasis (R~ = u^dag R u)

        H_lk = 2 G_lk + sum_ab w_ab Re(R~_l[a, b] conj(R~_k[a, b])),

    one Gram product with the denominators of L. E_k has rank two, so
    R~_k = S_k + S_k^dag with S_k = conj(u_k) (x) (2 V'_k - (V l)_k)
    - conj((u l)_k) (x) V_k, where u_k is row k of u, V = (coh o c) u and
    V' = (dcoh o c) u."""
    sld = u @ l @ u.conj().swapaxes(-1, -2)
    # a new C-ordered array, not a strided .real view: matmul rounds by layout,
    # and a point must come out the same in any batch
    g = (2.0 * (dcoh.swapaxes(-1, -2) * sld).real
         - (coh.swapaxes(-1, -2) * (sld @ sld)).real)
    v = (coh * cs[..., None, :]) @ u
    dv = (dcoh * cs[..., None, :]) @ u
    s = (u.conj()[..., :, :, None] * (2.0 * dv - v @ l)[..., :, None, :]
         - (u @ l).conj()[..., :, :, None] * v[..., :, None, :])
    n = cs.shape[-1]
    r = (s + s.conj().swapaxes(-1, -2)).reshape(s.shape[:-2] + (n * n,))
    gram = ((r * w.reshape(w.shape[:-2] + (1, n * n))) @ r.conj().swapaxes(-1, -2)).real
    hess = 2.0 * g + gram
    return g, 0.5 * (hess + hess.swapaxes(-1, -2))


def _candidates(c, q, g, hess):
    """The trial states from each unit state c (m, n), shape (m, 6, n): the
    Newton step on the unit sphere at the lengths _NEWTON_SCALES, then the
    see-saw step |top eigenvector of G|. One stacked eigh serves both.

    The Riemannian Hessian P (H - 2Q) P, P = 1 - c c^T, enters with its
    eigenvalues w replaced by -|w|, so the step ascends also where Q is not
    concave; the normal direction gets curvature -Q, so the step stays
    tangent. The full step is capped at length 1."""
    n = c.shape[-1]
    eye = np.eye(n)
    cc = c[:, :, None] * c[:, None, :]
    proj = eye - cc
    hr = proj @ (hess - 2.0 * q[:, None, None] * eye) @ proj - q[:, None, None] * cc
    w, v = np.linalg.eigh(np.stack([hr, g]))
    grad = 2.0 * ((g @ c[..., None])[..., 0] - q[:, None] * c)
    along = (grad[:, None, :] @ v[0])[:, 0] / np.maximum(np.abs(w[0]), 1e-12 * q[:, None])
    step = (v[0] @ along[..., None])[..., 0]
    step /= np.maximum(1.0, np.linalg.norm(step, axis=-1))[:, None]
    newton = c[:, None, :] + _NEWTON_SCALES[:, None] * step[:, None, :]
    trial = np.abs(np.concatenate([newton, v[1][:, None, :, -1]], axis=1))
    return trial / np.linalg.norm(trial, axis=-1, keepdims=True)


def _ascend(coh, dcoh, c, tol):
    """Newton/see-saw ascents from the unit states c (m, n), state i on the
    coherences coh[i], dcoh[i] (m, n, n), all in lockstep.

    Each step makes one stacked eigh of the Riemannian Hessians and G and one
    of the trial states, over the states still climbing; every state stops on
    its own tests, so it comes out as if it climbed alone. Returns
    (c, Q, residual, steps), arrays of leading length m."""
    c = c.copy()
    q, parts = _sld(coh, dcoh, c)
    g, hess = _ascent_terms(coh, dcoh, c, *parts)
    residual = np.zeros(q.shape)
    steps = np.zeros(q.shape, dtype=int)
    live = np.arange(q.size)
    while live.size:
        ql, cl = q[live], c[live]
        gc = (g[live] @ cl[..., None])[..., 0]
        # Q = 0 (t = 0 or a gapless meter): no state carries information.
        # Scaled before the norm, whose squares underflow for Q below ~1e-154
        informative = ql != 0
        tangent = np.divide(gc - np.sum(cl * gc, axis=-1, keepdims=True) * cl,
                            ql[:, None], out=np.zeros_like(gc),
                            where=informative[:, None])
        residual[live] = 2.0 * np.linalg.norm(tangent, axis=-1)
        climb = informative & (residual[live] > tol) & (steps[live] < _MAX_STEPS)
        live, ql = live[climb], ql[climb]
        if not live.size:
            break
        trial = _candidates(c[live], ql, g[live], hess[live])
        qs, trial_parts = _sld(coh[live, None], dcoh[live, None], trial)
        # the best Newton length if it rises, else the see-saw step; a state
        # where no step rises above roundoff any more stops
        rows = np.arange(live.size)
        pick = np.argmax(qs[:, :-1], axis=1)
        pick = np.where(qs[rows, pick] > ql, pick, qs.shape[1] - 1)
        rise = qs[rows, pick] > ql
        live, rows, pick = live[rise], rows[rise], pick[rise]
        c[live], q[live] = trial[rows, pick], qs[rows, pick]
        g[live], hess[live] = _ascent_terms(coh[live], dcoh[live], c[live],
                                            *(v[rows, pick] for v in trial_parts))
        steps[live] += 1
    return c, q, residual, steps


def _pick_start(q, converged):
    """Index of the returned start in each row of q (points, starts): the
    largest Q, except that a converged start within _TIE_BAND of it wins over
    an unconverged best; ties go to the first start."""
    tied = converged & (q >= q.max(axis=1, keepdims=True) * (1.0 - _TIE_BAND))
    return np.where(tied.any(axis=1), np.argmax(np.where(tied, q, -np.inf), axis=1),
                    np.argmax(q, axis=1))


def optimize_initial_state(tau, meter, t, tol=1e-6, n_starts=8, seed=0, gamma=1.0):
    """Maximize the meter QFI over initial meter states.

    tau and t are scalars or arrays that broadcast together. Every grid point
    runs the same starts, and all ascents of all points run in lockstep (in
    chunks that bound the working memory), so each point comes out as if it
    were searched alone. Deterministic for a fixed seed.

    Returns (coefficients (..., n), OptimizationReport) over the broadcast
    grid shape (...): value, converged and residual have the grid shape
    (numpy scalars for scalar tau and t), and iterations is the total over
    the grid.

    A start has converged when its relative Riemannian residual is at most
    tol. The returned value is meter_qfi_grid at the returned state. When the
    QFI vanishes (t = 0, a gapless meter) the equal superposition is
    returned as converged.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if n_starts < 1:
        raise ValueError("n_starts must be at least 1")
    n = meter.n
    rng = np.random.default_rng(seed)
    starts = [np.full(n, 1.0 / math.sqrt(n))]
    for _ in range(n_starts - 1):
        x = rng.random(n) + 0.05
        starts.append(x / np.linalg.norm(x))
    starts = np.array(starts)

    per_point = n_starts * n * n * max(n, _NEWTON_SCALES.size + 1)
    shape, chunks = _grid_blocks(tau, t, meter, gamma,
                                 step=max(1, _ASCENT_ENTRIES // per_point))
    size = math.prod(shape)
    best, residual = np.empty((size, n)), np.empty(size)
    iterations = 0
    for part, blocks in chunks:
        coh, dcoh = blocks.x + blocks.y, blocks.dx + blocks.dy
        m = coh.shape[0]
        c, q, res, steps = _ascend(np.repeat(coh, n_starts, axis=0),
                                   np.repeat(dcoh, n_starts, axis=0),
                                   np.tile(starts, (m, 1)), tol)
        c, q, res = c.reshape(m, n_starts, n), q.reshape(m, -1), res.reshape(m, -1)
        pick = _pick_start(q, res <= tol)
        rows = np.arange(m)
        best[part], residual[part] = c[rows, pick], res[rows, pick]
        iterations += int(steps.sum())
    best = (best / np.linalg.norm(best, axis=-1, keepdims=True)).reshape(shape + (n,))
    residual = residual.reshape(shape)
    return best, OptimizationReport(value=meter_qfi_grid(tau, t, meter, best, gamma)[()],
                                    iterations=iterations,
                                    converged=(residual <= tol)[()], residual=residual[()])


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


# interior points per bracket and grid call. They split [a, b] into
# _REFINE + 1 equal geometric steps, and the next bracket is the two steps
# around their argmax, so a call narrows a bracket (_REFINE + 1)/2 = 5 times;
# an odd _REFINE makes the last maximum the middle point of the next call
_REFINE = 9


def find_t_max(meter, psi0, t, tau_range=(0.05, 1.0), *, gamma=1.0,
               rel_tol=1e-4, n_grid=200):
    """Locate the most sensitive temperature T_max at fixed times.

    t is a scalar or a 1-D array of times, one search row each. A coarse
    geometric scan (n_grid points, one grid evaluation over all rows)
    brackets each row's maximum by the scan points next to it. Each further
    grid evaluation rescans the bracket of every row still narrowing at
    _REFINE interior geometric points and keeps the neighbours of their
    maximum as the new bracket, until its relative width is at most rel_tol
    or a rescan leaves it no narrower. Ties resolve toward smaller tau. The
    points and maxima of a row do not depend on the other rows, so each row
    comes out bitwise as if it were searched alone.

    Returns (tau_max, qfi_at_max, edge), arrays of t's shape (numpy scalars
    for a scalar t). edge marks the rows whose maximum lies on the range
    edge: they return that grid point as-is.

    A gapless meter carries no temperature information, so the objective
    falls back to the bare sensor QFI.
    """
    lo, hi = float(tau_range[0]), float(tau_range[1])
    if not (0 < lo < hi):
        raise ValueError(f"invalid tau_range {tau_range!r}")
    if n_grid < 3:
        raise ValueError("n_grid must be at least 3")
    if not rel_tol > 0:
        raise ValueError("rel_tol must be positive")
    times = np.asarray(t, dtype=float)
    if times.ndim > 1:
        raise ValueError("t must be a scalar or a 1-D array")
    rows = np.atleast_1d(times)

    if np.ptp(meter.lambdas) == 0:
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

    live = np.flatnonzero(~edge)
    a, b = grid[i[live] - 1], grid[i[live] + 1]
    width = np.full(live.size, np.inf)
    while (keep := ((b - a) > rel_tol * 0.5 * (a + b)) & (b - a < width)).any():
        live, a, b, width = live[keep], a[keep], b[keep], (b - a)[keep]
        taus = np.geomspace(a, b, _REFINE + 2, axis=-1)
        values = objective(taus[:, 1:-1], rows[live, None])
        j, k = np.argmax(values, axis=1), np.arange(live.size)
        tau_max[live], q[live] = taus[k, j + 1], values[k, j]
        a, b = taus[k, j], taus[k, j + 2]
    return tuple(v.reshape(times.shape)[()] for v in (tau_max, q, edge))


def dimension_scaling(omega_drive, t, ns, gamma=1.0):
    """QFI at (T_max, t) for meters of n levels with equal-superposition starts.

    ns is a sequence of integers >= 2, one row each. t is a scalar or a 1-D
    array of times. Only the row levels n and their n + 1 are searched, each
    with one find_t_max call over all times. Returns rows
    (n, tau_max, qfi_at_tmax, edge, r) with the first three after n as
    find_t_max returns them, and r = (I(n+1) - I(n))/I(n) the relative gain
    of one more level, of t's shape. Raises ValueError, naming n and t, where
    I(n) = 0 leaves r undefined (a gapped meter at t = inf has decohered and
    carries no information).
    """
    rows = tuple(ns)
    if not rows or not all(isinstance(n, (int, np.integer)) and n >= 2 for n in rows):
        raise ValueError(f"ns must be a sequence of integers >= 2, got {ns!r}")
    found = {}
    for n in sorted(set(rows) | {n + 1 for n in rows}):
        found[n] = find_t_max(spin_x_spectrum(n, omega_drive),
                              MeterState.equal_superposition(n), t, gamma=gamma)
        zero = np.flatnonzero(np.atleast_1d(found[n][1]) == 0)
        if n in rows and zero.size:
            raise ValueError(f"QFI at T_max is zero at n={n} "
                             f"t={np.atleast_1d(t)[zero[0]]:g}, so its gain r "
                             f"is undefined")
    return [(n, *found[n], (found[n + 1][1] - found[n][1]) / found[n][1]) for n in rows]
