"""Independent reference implementations for the test suite.

Everything here is built from first principles with a different route than
the package: dense master-equation integration instead of the closed-form
blocks, explicit eigenbasis double loops instead of vectorized QFI, a dense
generator assembled from the master equation instead of its 2x2 blocks,
central finite differences and 60-digit mpmath instead of the analytic
temperature derivative, derivative-free Nelder-Mead instead of the
gradient-based meter-state search, the qubit determinant formula instead of
the general eigenbasis QFI. Agreement between the two routes is the
correctness evidence. The dense state assembly is the one exception: it lays
the package's closed-form blocks out as full matrices, so that the blocks can
meet the dense references.
"""

import math

import mpmath as mp
import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import minimize

from thermoq.bath import bose_occupation, d_occupation_dT
from thermoq.dynamics import MeterState, meter_blocks
from thermoq.qfi import meter_qfi_grid, qfi_general


def joint_hamiltonian(lambdas, sensor_splitting=None):
    """H = M (x) |e><e| built index by index; optionally adds the free sensor
    term (splitting/2) sigma_z on the sensor factor."""
    n = len(lambdas)
    dim = 2 * n
    h = np.zeros((dim, dim), dtype=complex)
    for m in range(n):
        h[2 * m, 2 * m] += lambdas[m]  # sensor index 0 is the excited level
        if sensor_splitting is not None:
            h[2 * m, 2 * m] += 0.5 * sensor_splitting
            h[2 * m + 1, 2 * m + 1] -= 0.5 * sensor_splitting
    return h


def joint_lowering(n):
    """1_n (x) sigma_minus with sensor index 0 = excited."""
    dim = 2 * n
    op = np.zeros((dim, dim), dtype=complex)
    for m in range(n):
        op[2 * m + 1, 2 * m] = 1.0
    return op


def master_rhs(rho, n_bar, gamma, lambdas, sensor_splitting=None):
    """Full Lindblad right-hand side for the joint sensor-meter state."""
    n = len(lambdas)
    h = joint_hamiltonian(lambdas, sensor_splitting)
    low = joint_lowering(n)
    raise_ = low.conj().T
    out = -1j * (h @ rho - rho @ h)
    for rate, op in (((n_bar + 1.0) * gamma, low), (n_bar * gamma, raise_)):
        opd = op.conj().T
        anti = opd @ op
        out = out + rate * (op @ rho @ opd - 0.5 * (anti @ rho + rho @ anti))
    return out


def vec(a):
    """Column-stacking vectorization."""
    return np.asarray(a, dtype=complex).reshape(-1, order="F")


def unvec(v):
    """Inverse of vec for a square matrix."""
    v = np.asarray(v, dtype=complex)
    dim = int(round(np.sqrt(v.size)))
    return v.reshape(dim, dim, order="F")


def dense_liouvillian(n_bar, gamma, lambdas):
    """(2n)^2 x (2n)^2 matrix of master_rhs on column-stacked states, built
    column by column from its action on the matrix units."""
    dim = 2 * len(lambdas)
    out = np.zeros((dim * dim, dim * dim), dtype=complex)
    for j in range(dim * dim):
        unit = np.zeros(dim * dim, dtype=complex)
        unit[j] = 1.0
        out[:, j] = vec(master_rhs(unvec(unit), n_bar, gamma, lambdas))
    return out


def zero_tolerance(matrix):
    """|lambda| below 1e-9 ||L||_F counts as a zero eigenvalue; the slow/null
    gap at the operating points of interest is six orders of magnitude wider."""
    return 1e-9 * np.linalg.norm(matrix)


def null_space_dimension(matrix):
    """Number of eigenvalues of a dense generator below zero_tolerance."""
    w = np.linalg.eigvals(matrix)
    return int(np.count_nonzero(np.abs(w) < zero_tolerance(matrix)))


def eigen_propagate(matrix, rho0, t, k=None):
    """Propagate rho0 by t through the eigenmode expansion of a dense generator.

    k = None keeps every mode; k = m keeps the null space plus the m slowest
    decaying modes, which isolates the long-time tail.
    """
    w, v = np.linalg.eig(matrix)
    order = np.lexsort((-w.imag, -w.real))
    w, v = w[order], v[:, order]
    cond = np.linalg.cond(v)
    if cond > 1e10:
        raise RuntimeError(f"eigenbasis condition number {cond:.3e} too large")
    coeff = np.linalg.solve(v, vec(rho0))
    keep = np.abs(w) < zero_tolerance(matrix)
    if k is None:
        keep[:] = True
    else:
        # modes are sorted by descending real part: the slowest come first
        keep[np.flatnonzero(~keep)[:k]] = True
    return unvec(v[:, keep] @ (coeff[keep] * np.exp(w[keep] * t)))


def evolve(rho0, n_bar, gamma, lambdas, t, sensor_splitting=None, tol=1e-11):
    """Integrate the joint master equation from rho0 to time t."""
    rho0 = np.asarray(rho0, dtype=complex)
    dim = rho0.shape[0]
    if t == 0:
        return rho0.copy()

    def rhs(_, y):
        rho = y.reshape(dim, dim)
        return master_rhs(rho, n_bar, gamma, lambdas, sensor_splitting).ravel()

    sol = solve_ivp(rhs, (0.0, t), rho0.ravel(), method="DOP853",
                    rtol=tol, atol=tol)
    if not sol.success:
        raise RuntimeError(sol.message)
    return sol.y[:, -1].reshape(dim, dim)


def initial_joint_state(coefficients):
    """(sum_m c_m |m>)(...)^dagger (x) |g><g| with sensor index order (e, g)."""
    c = np.asarray(coefficients, dtype=complex)
    n = c.size
    ground = np.zeros(2, dtype=complex)
    ground[1] = 1.0
    psi = np.kron(c, ground)
    return np.outer(psi, psi.conj())


def _blocks(params, meter, psi0, t):
    b = meter_blocks(bose_occupation(params), d_occupation_dT(params),
                     params.gamma, meter, t)
    return b, np.outer(psi0.coefficients, psi0.coefficients)


def joint_state(params, meter, psi0, t):
    """(rho, d rho/d tau) of the joint state as dense 2n x 2n matrices, index
    2 m + s (meter (x) sensor, s = 0 for |e>), interleaved from the package's
    meter_blocks: the excited sector at even, the ground sector at odd
    indices."""
    b, cc = _blocks(params, meter, psi0, t)
    dim = 2 * meter.n
    rho, drho = np.zeros((2, dim, dim), dtype=complex)
    rho[0::2, 0::2], rho[1::2, 1::2] = b.x * cc, b.y * cc
    drho[0::2, 0::2], drho[1::2, 1::2] = b.dx * cc, b.dy * cc
    return rho, drho


def meter_state(params, meter, psi0, t):
    """Reduced meter state C o c c^T from the package's meter_blocks."""
    b, cc = _blocks(params, meter, psi0, t)
    return (b.x + b.y) * cc


def partial_trace_sensor(rho):
    """Trace out the sensor (the second, two-dimensional factor)."""
    dim = rho.shape[0]
    n = dim // 2
    out = np.zeros((n, n), dtype=complex)
    for m in range(n):
        for mp in range(n):
            out[m, mp] = rho[2 * m, 2 * mp] + rho[2 * m + 1, 2 * mp + 1]
    return out


def thermal_qubit_ode(n_bar, gamma, t, p0=0.0, tol=1e-12):
    """Excited population of the bare thermal qubit by direct integration."""
    if t == 0:
        return p0

    def rhs(_, y):
        return [n_bar * gamma * (1.0 - y[0]) - (n_bar + 1.0) * gamma * y[0]]

    sol = solve_ivp(rhs, (0.0, t), [p0], method="DOP853", rtol=tol, atol=tol)
    if not sol.success:
        raise RuntimeError(sol.message)
    return float(sol.y[0, -1])


def qfi_reference(rho, drho, tol=1e-12):
    """QFI from the symmetric logarithmic derivative in the eigenbasis,
    written as the textbook double sum."""
    rho = np.asarray(rho, dtype=complex)
    drho = np.asarray(drho, dtype=complex)
    p, u = np.linalg.eigh(0.5 * (rho + rho.conj().T))
    e = u.conj().T @ drho @ u
    total = 0.0
    dim = p.size
    floor = tol * max(p.max(), 1e-300)
    for a in range(dim):
        for b in range(dim):
            denom = p[a] + p[b]
            if denom > floor:
                total += 2.0 * abs(e[a, b]) ** 2 / denom
    return total


def qfi_qubit(rho, drho):
    """Closed-form qubit QFI 4 Tr[rho (d rho)^2] + (d det rho)^2 / det rho;
    within 1e-14 of purity, where det rho is lost to roundoff, it falls back
    to the package's qfi_general."""
    rho = np.asarray(rho, dtype=complex)
    drho = np.asarray(drho, dtype=complex)
    det = (rho[0, 0] * rho[1, 1] - rho[0, 1] * rho[1, 0]).real
    if det < 1e-14:
        return qfi_general(rho, drho)
    term = 4.0 * np.trace(rho @ drho @ drho).real
    ddet = (drho[0, 0] * rho[1, 1] + rho[0, 0] * drho[1, 1]
            - drho[0, 1] * rho[1, 0] - rho[0, 1] * drho[1, 0]).real
    return float(term + ddet * ddet / det)


def state_derivative(state_fn, tau, step=None):
    """Central-difference temperature derivative of a matrix-valued map.

    step defaults to 1e-6 tau. The result of differencing Hermitian
    constant-trace states is Hermitian and traceless to roundoff. Trustworthy
    only where the occupation N = 1/(exp(1/tau) - 1) is not lost to rounding
    (tau above about 0.12 for the meter states).
    """
    h = 1e-6 * tau if step is None else float(step)
    if not (h > 0 and tau - h > 0):
        raise ValueError(f"step {h!r} invalid for tau = {tau!r}")
    d = (np.asarray(state_fn(tau + h), dtype=complex)
         - np.asarray(state_fn(tau - h), dtype=complex)) / (2.0 * h)
    if not np.all(np.isfinite(d)):
        raise ValueError("state derivative contains non-finite entries")
    return d


def _mp_block(tau, t, omega, gamma):
    """(x, y) of the gap-omega block: the matrix exponential of its 2x2
    generator applied to (x, y) = (0, 1), at the working precision."""
    n = 1 / mp.expm1(1 / tau)
    gen = mp.matrix([[-1j * omega - (n + 1) * gamma, n * gamma],
                     [(n + 1) * gamma, -n * gamma]])
    prop = mp.expm(gen * t)
    return prop[0, 1], prop[1, 1]


def sector_block_mp(tau, t, omega, gamma=1.0):
    """(x, y, dx/dtau, dy/dtau, x + y - 1) of the gap-omega block in
    60-digit mpmath, rounded to Python complex numbers."""
    with mp.workdps(60):
        tau, t, omega, gamma = (mp.mpf(float(v)) for v in (tau, t, omega, gamma))
        x, y = _mp_block(tau, t, omega, gamma)
        dx = mp.diff(lambda v: _mp_block(v, t, omega, gamma)[0], tau)
        dy = mp.diff(lambda v: _mp_block(v, t, omega, gamma)[1], tau)
        return tuple(complex(v) for v in (x, y, dx, dy, x + y - 1))


def meter_qfi_mp(tau, t, omega, gamma=1.0):
    """Two-level meter QFI for the equal superposition in 60-digit mpmath.

    rho = [[1, C], [conj(C), 1]] / 2 with the coherence C from the block's
    matrix exponential, its tau-derivative from mpmath.diff, and the
    Bloch-vector formula |dr|^2 + (r.dr)^2 / (1 - |r|^2), r = (Re C, -Im C, 0).
    """
    with mp.workdps(60):
        tau, t, omega, gamma = (mp.mpf(float(v)) for v in (tau, t, omega, gamma))
        coh = sum(_mp_block(tau, t, omega, gamma))
        dcoh = mp.diff(lambda v: sum(_mp_block(v, t, omega, gamma)), tau)
        value = abs(dcoh) ** 2
        if abs(coh) < 1:
            value += mp.re(mp.conj(coh) * dcoh) ** 2 / (1 - abs(coh) ** 2)
        return float(value)


def nelder_mead_initial_state(params, meter, t, tol=1e-6, n_starts=8, seed=0):
    """Largest meter QFI over initial states by Nelder-Mead on the unit sphere
    through c = |x| / ||x||, from the equal superposition plus n_starts - 1
    seeded points rng.random(n) + 0.05; returns (coefficients, value,
    converged) of the best start. The objective is the package's meter_qfi_grid:
    this is a reference for the search, not for the QFI."""
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
        return -float(meter_qfi_grid(params.temperature, t, meter, state, params.gamma))

    rng = np.random.default_rng(seed)
    starts = [np.full(n, 1.0 / math.sqrt(n))]
    for _ in range(n_starts - 1):
        starts.append(rng.random(n) + 0.05)
    best = None
    for x0 in starts:
        res = minimize(negative_qfi, x0, method="Nelder-Mead",
                       options={"xatol": tol, "fatol": tol * tol * 10.0,
                                "maxfev": 4000 + 600 * n, "adaptive": n >= 6})
        if best is None or res.fun < best.fun:
            best = res
    return coefficients(best.x), -float(best.fun), bool(best.success)


def fd_derivative(f, x, h):
    """Central difference."""
    return (f(x + h) - f(x - h)) / (2.0 * h)


def random_density_matrix(rng, dim, rank=None):
    """Haar-ish random mixed state via a Ginibre factor."""
    rank = rank or dim
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_hermitian(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return 0.5 * (g + g.conj().T)
