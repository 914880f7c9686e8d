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
falls to _TOL, when no step raises Q above roundoff, or after _MAX_STEPS
steps.

Every grid point climbs from the equal superposition first. Where that
climb ends unconverged, or at a state whose Riemannian Hessian does not show
a strict local maximum, the point also climbs from the same seeded random
starts, and the best of all its starts is returned, so the result is never
worse than the equal superposition by more than _TIE_BAND, relative: a
start within that band of the best counts as a tie, and among ties a
converged start wins. All climbs of a stage run in lockstep: a step makes
one stacked eigendecomposition of the trial states and one of the
Riemannian Hessians, over every start still climbing.

The T_max search takes several meters at once, of any lengths, and each of
its grid evaluations computes the sector blocks of a point once for all of
them (see `qfi`). dimension_scaling searches all its levels in one such
search.

The searches report their diagnostics as returned arrays, one return form
for scalar and array input: the optimizer's converged, residual and
restarted per grid point, and the T_max search's edge mask of rows whose
maximum lies on the edge of the tau range. None issues a warning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bath import sensor_qfi
from .dynamics import equal_superposition, gap_matrix
from .qfi import _coefficients, _grid_blocks, _jordan_qfi, meter_qfi_grid

__all__ = [
    "OptimizationReport",
    "optimize_initial_state",
    "bures_distance_pure",
    "find_t_max",
    "dimension_scaling",
]

# a start has converged at a relative Riemannian residual of at most _TOL
_TOL = 1e-5

# starts per point: the equal superposition, then _STARTS - 1 seeded ones
_STARTS = 8

# see-saw/Newton steps per start before the search stops unconverged
_MAX_STEPS = 200

# Newton step lengths tried together: the full step and four halvings
_NEWTON_SCALES = 0.5 ** np.arange(5)

# matrix entries held at once by the ascent: a start holds n^2 max(n, 6)
# (the n derivative terms of its Hessian, or its six trial states), so a
# stage runs in chunks of _ASCENT_ENTRIES // (starts n^2 max(n, 6)) points,
# with one start a point and then _STARTS - 1, which bounds the working
# memory
_ASCENT_ENTRIES = 1 << 16

# starts whose Q lies within this relative band of the best are ties, and
# among ties a converged start is returned. Near a pure meter state Q is
# only resolved to roundoff: at tau = 0.05, t = 1 (n = 6, Omega = 2) the
# converged starts' Q are 0.8e-7 to 2.3e-7 off a 50-digit eigensolve, so
# starts at one optimum differ by up to 3e-7; the band leaves a margin
_TIE_BAND = 1e-6

# a returned state with a tangent curvature of at least -_SADDLE_BAND Q is
# not taken for a local maximum. Of 2,240 equal-start maxima (n in
# {3, 4, 6, 8}, Omega in [0.25, 4], tau in [0.05, 1], gamma t in [0.1, 1e4])
# the flattest curves by -8.6e-4 Q
_SADDLE_BAND = 1e-6


@dataclass(frozen=True)
class OptimizationReport:
    """Outcome of an initial-state search.

    value, converged and residual (the relative Riemannian gradient norm)
    hold one entry per grid point and belong to its returned start;
    restarted marks the points that also ran the seeded starts; iterations
    counts the see-saw and Newton steps of every start that ran.
    """

    value: np.ndarray
    iterations: int
    converged: np.ndarray
    residual: np.ndarray
    restarted: np.ndarray


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


def _sphere_hessian(c, q, hess):
    """The Riemannian Hessian P (H - 2Q) P, P = 1 - c c^T, at the unit
    states c (m, n), with curvature -Q along the normal direction c."""
    eye = np.eye(c.shape[-1])
    cc = c[:, :, None] * c[:, None, :]
    proj = eye - cc
    return proj @ (hess - 2.0 * q[:, None, None] * eye) @ proj - q[:, None, None] * cc


def _candidates(c, q, g, hess):
    """The trial states from each unit state c (m, n), shape (m, 6, n): the
    Newton step on the unit sphere at the lengths _NEWTON_SCALES, then the
    see-saw step |top eigenvector of G|. One stacked eigh serves both.

    The eigenvalues w of `_sphere_hessian` are replaced by -|w|, so the step
    ascends also where Q is not concave; the normal direction's curvature -Q
    keeps the step tangent. The full step is capped at length 1."""
    w, v = np.linalg.eigh(np.stack([_sphere_hessian(c, q, hess), g]))
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
    (c, Q, residual, steps, Hessian of Q), arrays of leading length m."""
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
    return c, q, residual, steps, hess


def _saddle(c, q, hess):
    """True where the unit state c (m, n) with Q q and Hessian hess is not
    shown a strict local maximum on the sphere: some tangent curvature of
    `_sphere_hessian` is at least -_SADDLE_BAND Q. Never where Q = 0."""
    top = np.linalg.eigvalsh(_sphere_hessian(c, q, hess))[:, -1]
    return (q != 0) & (top >= -_SADDLE_BAND * q)


def _pick_start(q, converged):
    """Index of the returned start in each row of q (points, starts): the
    largest Q, except that a converged start within _TIE_BAND of it wins over
    an unconverged best; ties go to the first start."""
    tied = converged & (q >= q.max(axis=1, keepdims=True) * (1.0 - _TIE_BAND))
    return np.where(tied.any(axis=1), np.argmax(np.where(tied, q, -np.inf), axis=1),
                    np.argmax(q, axis=1))


def optimize_initial_state(tau, omega, t, n, seed=0):
    """Maximize the meter QFI over initial states of the n-level spin ladder.

    tau, the coupling omega and t are scalars or arrays that broadcast
    together. Every grid point climbs from the equal superposition. Where
    that climb fails, by ending unconverged or off a strict local maximum
    (see `_saddle`), the point also climbs from the _STARTS - 1 random
    starts drawn from seed, and the best of all its starts is returned (see
    `_pick_start`). All ascents of a stage run in lockstep (in chunks that
    bound the working memory), so each point comes out as if it were
    searched alone. Deterministic for a fixed seed.

    Returns (coefficients (..., n), OptimizationReport) over the broadcast
    grid shape (...): value, converged, residual and restarted have the grid
    shape (numpy scalars for scalar tau and t), and iterations is the total
    over the grid.

    A start has converged when its relative Riemannian residual is at most
    _TOL. The returned value is meter_qfi_grid at the returned state. When the
    QFI vanishes (t = 0, omega = 0) the equal superposition is returned as
    converged.
    """
    if not (isinstance(n, (int, np.integer)) and n >= 2):
        raise ValueError(f"the meter needs n >= 2 levels, got {n!r}")
    rng = np.random.default_rng(seed)
    starts = [equal_superposition(n)]
    for _ in range(_STARTS - 1):
        x = rng.random(n) + 0.05
        starts.append(x / np.linalg.norm(x))
    starts = np.array(starts)

    per_start, others = n * n * max(n, _NEWTON_SCALES.size + 1), _STARTS - 1
    shape, chunks = _grid_blocks(tau, t, omega, n,
                                 step=max(1, _ASCENT_ENTRIES // per_start))
    step = max(1, _ASCENT_ENTRIES // (others * per_start))
    size = math.prod(shape)
    best, residual = np.empty((size, n)), np.empty(size)
    restarted, iterations = np.zeros(size, dtype=bool), 0
    for part, blocks in chunks:
        coh, dcoh = (gap_matrix(v) for v in (blocks.x + blocks.y,
                                             blocks.dx + blocks.dy))
        c, q, res, steps, hess = _ascend(coh, dcoh, np.tile(starts[0], (coh.shape[0], 1)),
                                         _TOL)
        iterations += int(steps.sum())
        fail = np.flatnonzero((res > _TOL) | _saddle(c, q, hess))
        for lo in range(0, fail.size, step):  # the seeded starts where it failed
            at = fail[lo:lo + step]
            cs, qs, rs, steps, _ = _ascend(np.repeat(coh[at], others, axis=0),
                                           np.repeat(dcoh[at], others, axis=0),
                                           np.tile(starts[1:], (at.size, 1)), _TOL)
            cs = np.concatenate([c[at, None], cs.reshape(at.size, others, n)], axis=1)
            rs = np.concatenate([res[at, None], rs.reshape(at.size, others)], axis=1)
            pick = _pick_start(np.concatenate([q[at, None], qs.reshape(at.size, others)],
                                              axis=1), rs <= _TOL)
            c[at], res[at] = cs[np.arange(at.size), pick], rs[np.arange(at.size), pick]
            iterations += int(steps.sum())
        best[part], residual[part], restarted[part.start + fail] = c, res, True
    best = (best / np.linalg.norm(best, axis=-1, keepdims=True)).reshape(shape + (n,))
    residual = residual.reshape(shape)
    return best, OptimizationReport(value=meter_qfi_grid(tau, t, omega, best)[()],
                                    iterations=iterations,
                                    converged=(residual <= _TOL)[()], residual=residual[()],
                                    restarted=restarted.reshape(shape)[()])


def bures_distance_pure(a, b):
    """Bures distance 2(1 - |<a|b>|) between pure meter states: coefficient
    stacks (..., n) that broadcast together; returns the broadcast shape."""
    a, b = _coefficients(a), _coefficients(b)
    if a.shape[-1] != b.shape[-1]:
        raise ValueError(f"states of {a.shape[-1]} and {b.shape[-1]} levels")
    return 2.0 * (1.0 - np.minimum(np.abs(np.sum(a * b, axis=-1)), 1.0))


# interior points per bracket and grid call. They split [a, b] into
# _REFINE + 1 equal geometric steps, and the next bracket is the two steps
# around their argmax, so a call narrows a bracket (_REFINE + 1)/2 = 5 times;
# an odd _REFINE makes the last maximum the middle point of the next call
_REFINE = 9

# the T_max lattice has _N_GRID >= 3 geometric points; a bracket stops
# narrowing at a width of _REL_TOL relative to its midpoint
_N_GRID = 200
_REL_TOL = 1e-4


def find_t_max(omega, psi0, t, tau_range=(0.05, 1.0)):
    """Locate the most sensitive temperature T_max at fixed couplings and times.

    The coupling omega and t broadcast to a scalar or a 1-D array: one search
    row per (omega, t). psi0 is one meter, the coefficient vector of its
    initial state, or several meters, a tuple of such vectors of any lengths,
    each searched on every row. A two-level scan finds each row's maximum on
    a geometric lattice of _N_GRID points: one grid evaluation over all meters
    and rows takes every s-th point and the last, s = round(sqrt(_N_GRID/2)),
    and a second the 2s - 1 points around each row's best of them, which hold
    every point strictly between its sampled neighbours. That is the
    lattice's maximum whenever the row rises and then falls along it (a row
    with two peaks may settle on the other one), and its lattice neighbours
    bracket it. Each further grid evaluation rescans the bracket of every row
    still narrowing at _REFINE interior geometric points and keeps the
    neighbours of their maximum as the new bracket, until its relative width
    is at most _REL_TOL or a rescan leaves it no narrower (6 grid
    evaluations). Ties resolve toward smaller tau. The points and maxima
    of a row do not depend on the other rows or meters, so each comes out
    bitwise as if it were searched alone. A grid evaluation computes the
    sector blocks once for all meters (see `meter_qfi_grid`), so the first
    scan's blocks are shared by every meter.

    Returns (tau_max, qfi_at_max, edge), arrays of the broadcast shape (numpy
    scalars for scalar inputs), with a leading axis over the meters when
    psi0 is a tuple. edge marks the rows whose maximum lies on the edge of
    the tau range: they return that grid point as-is.

    A gapless meter (omega = 0) carries no temperature information, so the
    objective of its rows falls back to the bare sensor QFI.
    """
    lo, hi = float(tau_range[0]), float(tau_range[1])
    for name, bound in (("lower", lo), ("upper", hi)):
        if not math.isfinite(bound):
            raise ValueError(f"tau_range {name} bound {bound} is not finite")
    if not (0 < lo < hi):
        raise ValueError(f"invalid tau_range {tau_range!r}")
    several = isinstance(psi0, tuple)
    # checked here too: rows with omega = 0 never reach meter_qfi_grid
    states = tuple(map(_coefficients, psi0 if several else (psi0,)))
    if not states:
        raise ValueError("psi0 holds no meter")
    omegas, times = np.broadcast_arrays(np.asarray(omega, dtype=float),
                                        np.asarray(t, dtype=float))
    if times.ndim > 1:
        raise ValueError("omega and t must broadcast to a scalar or a 1-D array")
    shape, omegas, times = times.shape, np.atleast_1d(omegas), np.atleast_1d(times)
    rows, gapped = times.size, omegas != 0

    def objective(taus, pairs):
        """QFIs (pairs, points) of the search rows `pairs`, numbered meter
        first (meter pairs // rows, row pairs % rows), at the shared taus
        (points,) or at one row of taus (pairs, points) per pair."""
        if taus.ndim == 1:  # every pair: one scan for all meters
            values = np.empty((len(states), rows, taus.size))
            if not gapped.all():
                values[:, ~gapped] = sensor_qfi(taus, times[~gapped, None])
            if gapped.any():
                values[:, gapped] = meter_qfi_grid(taus, times[None, gapped, None],
                                                   omegas[None, gapped, None], states)
            return values.reshape(-1, taus.size)
        state, row = np.divmod(pairs, rows)
        meter = gapped[row]
        values = np.empty(taus.shape)
        if not meter.all():
            values[~meter] = sensor_qfi(taus[~meter], times[row[~meter], None])
        if meter.any():
            values[meter] = meter_qfi_grid(taus[meter], times[row[meter], None],
                                           omegas[row[meter], None],
                                           tuple(states[s] for s in state[meter]))
        return values

    grid = np.geomspace(lo, hi, _N_GRID)
    every = np.arange(len(states) * rows)
    stride = round(math.sqrt(_N_GRID / 2))
    coarse = np.append(np.arange(0, _N_GRID - 1, stride), _N_GRID - 1)
    j = np.argmax(objective(grid[coarse], every), axis=1)
    start = np.clip(coarse[j] - stride + 1, 0, _N_GRID - 2 * stride + 1)
    values = objective(grid[start[:, None] + np.arange(2 * stride - 1)], every)
    i = start + np.argmax(values, axis=1)
    tau_max, q = grid[i], values[every, i - start]
    edge = (i == 0) | (i == _N_GRID - 1)

    live = np.flatnonzero(~edge)
    a, b = grid[i[live] - 1], grid[i[live] + 1]
    width = np.full(live.size, np.inf)
    while (keep := ((b - a) > _REL_TOL * 0.5 * (a + b)) & (b - a < width)).any():
        live, a, b, width = live[keep], a[keep], b[keep], (b - a)[keep]
        taus = np.geomspace(a, b, _REFINE + 2, axis=-1)
        values = objective(taus[:, 1:-1], live)
        j, k = np.argmax(values, axis=1), np.arange(live.size)
        tau_max[live], q[live] = taus[k, j + 1], values[k, j]
        a, b = taus[k, j], taus[k, j + 2]
    if several:
        shape = (len(states),) + shape
    return tuple(v.reshape(shape)[()] for v in (tau_max, q, edge))


def dimension_scaling(omega_drive, t, ns):
    """QFI at (T_max, t) for meters of n levels with equal-superposition starts.

    ns is a sequence of integers >= 2, one row each. t is a scalar or a 1-D
    array of times. Only the row levels n and their n + 1 are searched, all
    of them in one find_t_max call over all times. Returns rows
    (n, tau_max, qfi_at_tmax, edge, r) with the first three after n as
    find_t_max returns them, and r = (I(n+1) - I(n))/I(n) the relative gain
    of one more level, of t's shape. Raises ValueError, naming n and t, where
    I(n) = 0 leaves r undefined (a gapped meter at t = inf has decohered and
    carries no information).
    """
    rows = tuple(ns)
    if not rows or not all(isinstance(n, (int, np.integer)) and n >= 2 for n in rows):
        raise ValueError(f"ns must be a sequence of integers >= 2, got {ns!r}")
    levels = sorted(set(rows) | {n + 1 for n in rows})
    tau_max, q, edge = find_t_max(omega_drive, tuple(map(equal_superposition, levels)), t)
    found = {n: (tau_max[i], q[i], edge[i]) for i, n in enumerate(levels)}
    for n in sorted(set(rows)):
        zero = np.flatnonzero(np.atleast_1d(found[n][1]) == 0)
        if zero.size:
            raise ValueError(f"QFI at T_max is zero at n={n} "
                             f"t={np.atleast_1d(t)[zero[0]]:g}, so its gain r "
                             f"is undefined")
    return [(n, *found[n], (found[n + 1][1] - found[n][1]) / found[n][1]) for n in rows]
