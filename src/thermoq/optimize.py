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

The T_max search takes several meters at once, of any lengths, checks each
of them once, and runs each of its grid evaluations as one call of the grid
driver `qfi._on_grid` with the meter-QFI kernel of `meter_qfi_grid`, one slab
of points per meter and row (see `qfi`). dimension_scaling searches all its
levels in one such search.

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
from .qfi import _coefficients, _jordan_qfi, _meter_qfis, _meters, _on_grid

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
    return _jordan_qfi(coh * cc, dcoh * cc, sld=True)


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
    starts drawn from seed (once per call, at the first such point), and the
    best of all its starts is returned (see `_pick_start`). The search is a
    kernel of the grid driver `qfi._on_grid`, which evaluates the sector
    blocks and hands them over in chunks of qfi._CHUNK_ENTRIES // n^2 points
    (113 at n = 6), the only memory bound: a chunk runs the first stage on
    all its points, then the seeded stage on all its failed points at once,
    which holds at most _STARTS - 1 times what the first stage holds. All
    ascents of a stage run in lockstep, and each point comes out as if it
    were searched alone. Deterministic for a fixed seed.

    Returns (coefficients (..., n), OptimizationReport) over the broadcast
    grid shape (...): value, converged, residual and restarted have the grid
    shape (numpy scalars for scalar tau and t), and iterations is the total
    over the grid.

    A start has converged when its relative Riemannian residual is at most
    _TOL. The returned value is meter_qfi_grid at the returned state, bitwise,
    evaluated from the sector blocks the ascent already holds. When the QFI
    vanishes (t = 0, omega = 0) the equal superposition is returned as
    converged.
    """
    if not (isinstance(n, (int, np.integer)) and n >= 2):
        raise ValueError(f"the meter needs n >= 2 levels, got {n!r}")
    others = _STARTS - 1
    seeded = None  # the seeded starts (others, n), drawn at the first restart

    def climb(blocks, c):
        """(value, c, residual, restarted, steps) per point of one chunk,
        from its blocks and the equal start c (1, n)."""
        nonlocal seeded
        coh, dcoh = gap_matrix(blocks.coh), gap_matrix(blocks.dcoh)
        c, q, res, steps, hess = _ascend(coh, dcoh, np.broadcast_to(c, blocks.coh.shape),
                                         _TOL)
        restarted = (res > _TOL) | _saddle(c, q, hess)
        at = np.flatnonzero(restarted)
        if at.size:  # the seeded starts where it failed
            if seeded is None:
                rng = np.random.default_rng(seed)
                seeded = np.array([x / np.linalg.norm(x)
                                   for x in (rng.random(n) + 0.05 for _ in range(others))])
            cs, qs, rs, more, _ = _ascend(np.repeat(coh[at], others, axis=0),
                                          np.repeat(dcoh[at], others, axis=0),
                                          np.tile(seeded, (at.size, 1)), _TOL)
            cs = np.concatenate([c[at, None], cs.reshape(at.size, others, n)], axis=1)
            rs = np.concatenate([res[at, None], rs.reshape(at.size, others)], axis=1)
            pick = _pick_start(np.concatenate([q[at, None], qs.reshape(at.size, others)],
                                              axis=1), rs <= _TOL)
            c[at], res[at] = cs[np.arange(at.size), pick], rs[np.arange(at.size), pick]
            steps[at] += more.reshape(at.size, others).sum(axis=1)
        # the QFI at the returned states, from this chunk's blocks, as
        # meter_qfi_grid evaluates it
        c = _coefficients(c / np.linalg.norm(c, axis=-1, keepdims=True))
        return (*_meter_qfis(blocks, c), c, res, restarted, steps)

    value, best, residual, restarted, steps = _on_grid(climb, tau, t, omega,
                                                       equal_superposition(n))
    return best, OptimizationReport(value=value[()], iterations=int(steps.sum()),
                                    converged=(residual <= _TOL)[()], residual=residual[()],
                                    restarted=restarted[()])


def bures_distance_pure(a, b):
    """Bures distance 2(1 - |<a|b>|) between pure meter states: coefficient
    stacks (..., n) that broadcast together; returns the broadcast shape."""
    a, b = _coefficients(a), _coefficients(b)
    if a.shape[-1] != b.shape[-1]:
        raise ValueError(f"states of {a.shape[-1]} and {b.shape[-1]} levels")
    return 2.0 * (1.0 - np.minimum(np.abs(np.sum(a * b, axis=-1)), 1.0))


# interior geometric points of the rescan that every refining grid call after
# the first adds to its probes: they split [a, b] into _REFINE + 1 equal
# geometric steps, so whatever wins, the next bracket is at most two of them,
# (_REFINE + 1)/2 = 5 times narrower
_REFINE = 9

# the T_max lattice has _N_GRID >= 3 geometric points; a bracket stops
# narrowing at a width of _REL_TOL relative to its midpoint
_N_GRID = 200
_REL_TOL = 1e-4

# the Taylor coefficients c_0..c_6 of the degree-6 polynomial through seven
# values at the offsets -3..3 are this matrix times the values: the inverse
# Vandermonde matrix of the offsets (Fornberg, Math. Comp. 51, 699, 1988)
_TAYLOR7 = np.array([[0, 0, 0, 720, 0, 0, 0],
                     [-12, 108, -540, 0, 540, -108, 12],
                     [4, -54, 540, -980, 540, -54, 4],
                     [15, -120, 195, 0, -195, 120, -15],
                     [-5, 60, -195, 280, -195, 60, -5],
                     [-3, 12, -15, 0, 15, -12, 3],
                     [1, -6, 15, -20, 15, -6, 1]]) / 720.0

# Newton steps on the derivative of that polynomial, from the vertex of its
# quadratic part
_NEWTON_VERTEX = 3


def _bracket(taus, values):
    """Each row's best point and its nearest neighbours in tau, from the
    points taus (rows, points) with values of the same shape, nan where a
    point was not evaluated: the argmax of the values, ties to the smaller
    tau, and the nearest points either side of it. Returns (taus, values) of
    shape (rows, 3), the argmax in the middle. Each row must hold a point
    either side of its argmax."""
    order = np.argsort(taus, axis=1, kind="stable")
    taus, values = (np.take_along_axis(v, order, axis=1) for v in (taus, values))
    k = np.nanargmax(values, axis=1)
    # a point evaluated twice has one value, so the argmax is its first copy,
    # the point before lies strictly below it, and `right` skips the others
    right = np.sum(taus <= np.take_along_axis(taus, k[:, None], axis=1), axis=1)
    pick = np.stack([k - 1, k, right], axis=1)
    return tuple(np.take_along_axis(v, pick, axis=1) for v in (taus, values))


def _horner(c, u):
    """The polynomials sum_k c[k] u^k, one per entry of u, coefficients c
    (degree + 1, ...)."""
    p = c[-1]
    for ck in c[-2::-1]:
        p = p * u + ck
    return p


def _lattice_vertex(seven, step):
    """Offset in ln tau from each row's lattice maximum to the maximum of the
    degree-6 polynomial through the seven lattice points around it, or nan.

    seven (rows, 7) holds the values at the lattice offsets -3..3 from each
    row's maximum, nan where a point was not evaluated, on a lattice equally
    spaced by `step` in ln tau. The polynomial's Taylor coefficients come
    from _TAYLOR7 by elementwise products, so a row rounds alike in any
    batch, and _NEWTON_VERTEX Newton steps on its derivative start at the
    vertex of its quadratic part. nan where a value is nan, or where the
    steps do not end within one lattice step at a point of negative
    curvature."""
    c = np.sum(_TAYLOR7 * seven[:, None, :], axis=-1).T
    slope = c[1:] * np.arange(1.0, 7.0)[:, None]
    curve = slope[1:] * np.arange(1.0, 6.0)[:, None]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        u = -0.5 * c[1] / c[2]
        for _ in range(_NEWTON_VERTEX):
            u = u - _horner(slope, u) / _horner(curve, u)
        peak = (_horner(curve, u) < 0) & (np.abs(u) < 1)
    return np.where(peak, u * step, np.nan)


def _vertex_probes(taus, values, vertex=None):
    """The probe triple v e^-h, v, v e^h (rows, 3), h = _REL_TOL/20, of each
    bracket (see `_bracket`): v is the middle point times e^vertex where
    vertex (rows,), an offset in ln tau, is given and not nan; elsewhere the
    vertex of the parabola through its three points in ln tau (successive
    parabolic interpolation; Brent, Algorithms for Minimization without
    Derivatives, 1973, ch. 5), or the middle point where the values leave no
    parabola (a nan end value leaves none). v is held 2h inside the
    bracket's ends so that the triple lies inside it."""
    h, x = _REL_TOL / 20, np.log(taus)
    left, right = x[:, 1] - x[:, 0], x[:, 2] - x[:, 1]
    # the middle value is the largest and strictly above the left one, so
    # the parabola opens downward unless the differences underflow
    rise, fall = values[:, 1] - values[:, 0], values[:, 1] - values[:, 2]
    den = left * fall + right * rise
    shift = -0.5 * np.divide(left * left * fall - right * right * rise, den,
                             out=np.zeros_like(den), where=den > 0)
    if vertex is not None:
        shift = np.where(np.isnan(vertex), shift, vertex)
    v = np.clip(x[:, 1] + shift, x[:, 0] + 2.0 * h, x[:, 2] - 2.0 * h)
    return np.clip(np.exp(v[:, None] + np.array([-h, 0.0, h])), taus[:, :1], taus[:, 2:])


def find_t_max(omega, psi0, t, tau_range=(0.05, 1.0)):
    """Locate the most sensitive temperature T_max at fixed couplings and times.

    The coupling omega and t broadcast to a scalar or a 1-D array: one search
    row per (omega, t). psi0 is one meter, the coefficient vector of its
    initial state, or several meters, a tuple of such vectors of any lengths,
    each searched on every row. A two-level scan finds each row's maximum on
    a geometric lattice of _N_GRID points: one grid evaluation over all meters
    and rows takes every s-th point and the last, s = round(sqrt(_N_GRID/2)),
    and a second the 2s - 1 points around each row's best of them, which hold
    every point strictly between its sampled neighbours. Whenever the row
    rises and then falls along the lattice, the largest value either scan
    holds is the lattice's maximum, and the scans hold both its lattice
    neighbours (a row with two peaks may settle on the other one, and a
    neighbour the scans miss there ends the bracket with a nan value, never
    its middle). The maximum and its neighbours make the row's first
    bracket. Each further grid evaluation takes, for every row still
    narrowing, a probe triple v e^-h, v, v e^h, h = _REL_TOL/20 (see
    `_vertex_probes`), and from the second such evaluation on also _REFINE
    interior geometric points of the bracket, which narrow it at least five
    times; the best evaluated point and its nearest evaluated neighbours make
    the new bracket. On the first, v is the vertex of the degree-6
    polynomial in ln tau through the seven lattice points around the row's
    maximum, which the scan has evaluated (see `_lattice_vertex`); where one
    of them was not evaluated (a maximum within three points of a range end),
    where that polynomial shows no maximum within one lattice step, and on
    every later evaluation, v is the vertex of the parabola in ln tau through
    the bracket's three points. A row stops when its relative width is at
    most _REL_TOL, which a winning middle probe gives at once, or when an
    evaluation leaves it no narrower (3 grid evaluations for the CLI
    defaults, at most 5 over tested rows). Ties resolve toward smaller tau.
    The points and maxima of a row do not depend on the other rows or
    meters, so each comes out bitwise as if it were searched alone. The
    meters are checked once, up front, and each grid evaluation is one call
    of the grid driver `qfi._on_grid` with meter_qfi_grid's kernel, with one
    slab of tau points per (meter, row).

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
    # checked once, here: the grid driver checks no meter, and rows with
    # omega = 0 never reach it
    states = _meters(psi0 if several else (psi0,))
    omegas, times = np.broadcast_arrays(np.asarray(omega, dtype=float),
                                        np.asarray(t, dtype=float))
    if times.ndim > 1:
        raise ValueError("omega and t must broadcast to a scalar or a 1-D array")
    shape, omegas, times = times.shape, np.atleast_1d(omegas), np.atleast_1d(times)
    rows, gapped = times.size, omegas != 0

    def objective(taus, pairs):
        """QFIs (pairs, points) of the search rows `pairs`, numbered meter
        first (meter pairs // rows, row pairs % rows), at one row of taus
        (pairs, points) per pair."""
        state, row = np.divmod(pairs, rows)
        meter = gapped[row]
        values = np.empty(taus.shape)
        if not meter.all():
            values[~meter] = sensor_qfi(taus[~meter], times[row[~meter], None])
        if meter.any():
            values[meter] = _on_grid(_meter_qfis, taus[meter], times[row[meter], None],
                                     omegas[row[meter], None],
                                     tuple(states[s] for s in state[meter]))[0]
        return values

    grid = np.geomspace(lo, hi, _N_GRID)
    every = np.arange(len(states) * rows)
    stride = round(math.sqrt(_N_GRID / 2))
    # every scanned value, lattice point k in column k + 3: nan where none was
    # evaluated and in the three columns past either end
    scanned = np.full((every.size, _N_GRID + 6), np.nan)
    coarse = np.append(np.arange(0, _N_GRID - 1, stride), _N_GRID - 1)
    scanned[:, coarse + 3] = objective(np.tile(grid[coarse], (every.size, 1)), every)
    start = np.clip(np.nanargmax(scanned, axis=1) - 2 - stride, 0, _N_GRID - 2 * stride + 1)
    window = start[:, None] + np.arange(2 * stride - 1)
    scanned[every[:, None], window + 3] = objective(grid[window], every)
    i = np.nanargmax(scanned, axis=1) - 3
    tau_max, q = grid[i], scanned[every, i + 3]
    edge = (i == 0) | (i == _N_GRID - 1)

    # each interior row's first bracket: its maximum and both lattice
    # neighbours, the middle three of the seven lattice points around it
    live = np.flatnonzero(~edge)
    seven = scanned[live[:, None], i[live, None] + np.arange(7)]
    vertex = _lattice_vertex(seven, math.log(hi / lo) / (_N_GRID - 1))
    taus, values = grid[i[live, None] + np.arange(-1, 2)], seven[:, 2:5]
    width, rescan = np.full(live.size, np.inf), False
    while (keep := ((span := taus[:, 2] - taus[:, 0])
                    > _REL_TOL * 0.5 * (taus[:, 0] + taus[:, 2])) & (span < width)).any():
        live, taus, values, width = live[keep], taus[keep], values[keep], span[keep]
        probes = _vertex_probes(taus, values, None if rescan else vertex[keep])
        if rescan:
            probes = np.concatenate(
                [probes, np.geomspace(taus[:, 0], taus[:, 2], _REFINE + 2, axis=-1)[:, 1:-1]],
                axis=1)
        taus, values = _bracket(np.concatenate([taus, probes], axis=1),
                                np.concatenate([values, objective(probes, live)], axis=1))
        tau_max[live], q[live], rescan = taus[:, 1], values[:, 1], True
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
