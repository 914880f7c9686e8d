"""Independent reference implementations for the test suite.

Everything here is built from first principles with a different route than
the package: dense master-equation integration instead of the closed-form
blocks, explicit eigenbasis double loops instead of vectorized QFI, a dense
generator assembled from the master equation instead of its 2x2 blocks,
central finite differences and mpmath (60 digits by default, more where N is
tiny) instead of the analytic temperature derivative, states assembled and
eigensolved in mpmath instead of the double eigensolve, 60-digit roots of each 2x2 block from its trace and
determinant instead of the closed-form Liouvillian eigenvalues,
derivative-free Nelder-Mead instead of the gradient-based meter-state search,
the qubit determinant formula instead of the general eigenbasis QFI, one
format call per CSV cell instead of one per distinct double of a column.
Agreement between the two routes is the correctness evidence. The dense
state assembly is the one exception: it lays the package's closed-form
blocks out as full matrices, so that the blocks can meet the dense
references. The paper's own results, the effective decay rate
Gamma_N, the long-time QFI and the meter-sensor crossing time, are written
here too: they are formulas the package is checked against, not stages it
runs.
"""

import functools
import math

import mpmath as mp
import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq, linear_sum_assignment, minimize

from thermoq.bath import bose_occupation, d_occupation_dT, sensor_qfi
from thermoq.dynamics import SectorBlocks, equal_superposition, sector_blocks
from thermoq.qfi import meter_qfi_grid


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


def meter_blocks(n_bar, dn_dtau, lambdas, t):
    """SectorBlocks of (..., n, n) matrices for the meter levels lambdas,
    entry by entry: sector_blocks at the gap lambda_m - lambda_m' on and
    above the diagonal, its conjugate below; n_bar, dn_dtau and t broadcast
    over the leading axes."""
    lam = np.asarray(lambdas, dtype=float)
    upper = np.triu(np.ones((lam.size, lam.size), dtype=bool))
    gap = np.where(upper, lam[:, None] - lam[None, :], lam[None, :] - lam[:, None])
    blocks = sector_blocks(np.asarray(n_bar)[..., None, None],
                           np.asarray(dn_dtau)[..., None, None], gap,
                           np.asarray(t, dtype=float)[..., None, None])
    return SectorBlocks(*(np.where(upper, v, v.conj()) for v in blocks))


def _blocks(tau, lambdas, psi0, t):
    b = meter_blocks(bose_occupation(tau), d_occupation_dT(tau), lambdas, t)
    return b, np.outer(psi0, psi0)


def joint_state(tau, lambdas, psi0, t):
    """(rho, d rho/d tau) of the joint state as dense 2n x 2n matrices for the
    meter levels lambdas, index 2 m + s (meter (x) sensor, s = 0 for |e>),
    interleaved from the package's closed-form blocks: the excited sector at
    even, the ground sector at odd indices."""
    b, cc = _blocks(tau, lambdas, psi0, t)
    dim = 2 * len(lambdas)
    rho, drho = np.zeros((2, dim, dim), dtype=complex)
    # the ground sector y = C - x
    rho[0::2, 0::2], rho[1::2, 1::2] = b.x * cc, (b.coh - b.x) * cc
    drho[0::2, 0::2], drho[1::2, 1::2] = b.dx * cc, (b.dcoh - b.dx) * cc
    return rho, drho


def meter_state(tau, lambdas, psi0, t):
    """Reduced meter state C o c c^T for the meter levels lambdas from the
    package's closed-form blocks."""
    b, cc = _blocks(tau, lambdas, psi0, t)
    return b.coh * cc


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
    to qfi_reference."""
    rho = np.asarray(rho, dtype=complex)
    drho = np.asarray(drho, dtype=complex)
    det = (rho[0, 0] * rho[1, 1] - rho[0, 1] * rho[1, 0]).real
    if det < 1e-14:
        return qfi_reference(rho, drho)
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
    """(x, C, dx/dtau, dC/dtau, C - 1) of the gap-omega block, C = x + y, in
    60-digit mpmath: C and dC/dtau are summed at that precision, and only
    then rounded to Python complex numbers."""
    with mp.workdps(60):
        tau, t, omega, gamma = (mp.mpf(float(v)) for v in (tau, t, omega, gamma))
        x, y = _mp_block(tau, t, omega, gamma)
        dx = mp.diff(lambda v: _mp_block(v, t, omega, gamma)[0], tau)
        dy = mp.diff(lambda v: _mp_block(v, t, omega, gamma)[1], tau)
        return tuple(complex(v) for v in (x, x + y, dx, dx + dy, x + y - 1))


def block_roots_mp(n_bar, gamma, gap):
    """The two eigenvalues (slow, fast) of the population block
    [[-i gap - (N+1) gamma, N gamma], [(N+1) gamma, -N gamma]] in 60-digit
    mpmath, rounded to Python complex numbers.

    The roots of lambda^2 - tr lambda + det from the block's entries: the
    larger by the quadratic formula with the sign that adds, the smaller as
    det over it, so that a tiny root keeps its relative precision."""
    with mp.workdps(60):
        n, g, w = (mp.mpf(float(v)) for v in (n_bar, gamma, gap))
        a, b = -1j * w - (n + 1) * g, n * g
        c, d = (n + 1) * g, -n * g
        tr, det = a + d, a * d - b * c
        disc = mp.sqrt(tr * tr - 4 * det)
        big = max((tr + disc) / 2, (tr - disc) / 2, key=abs)
        return complex(det / big if big != 0 else 0), complex(big)


def spectrum_mp(n_bar, levels, gamma=1.0):
    """All 4 n^2 eigenvalues of the joint generator for the meter levels:
    60-digit roots of every population block (block_roots_mp) and the sensor
    coherences -(N + 1/2) gamma -/+ i lambda_m, n times each."""
    ref = [r for a in levels for b in levels for r in block_roots_mp(n_bar, gamma, a - b)]
    with mp.workdps(60):
        decay = -(mp.mpf(float(n_bar)) + 0.5) * gamma
        ref += [complex(decay, sign * lam)
                for lam in levels for sign in (-1, 1)] * len(levels)
    return ref


def relative_mismatch(got, ref):
    """Largest |got - ref| / |ref| over the pairing of the two multisets that
    minimizes the sum of these ratios; a zero in ref pairs only with a zero."""
    dist = np.abs(np.asarray(got)[:, None] - np.asarray(ref)[None, :])
    cost = dist / np.maximum(np.abs(ref), 1e-300)[None, :]
    rows, cols = linear_sum_assignment(cost)
    return cost[rows, cols].max()


def meter_qfi_mp(tau, t, omega, gamma=1.0, dps=60):
    """Two-level meter QFI for the equal superposition in dps-digit mpmath.

    rho = [[1, C], [conj(C), 1]] / 2 with the coherence C from the block's
    matrix exponential, its tau-derivative from mpmath.diff, and the
    Bloch-vector formula |dr|^2 + (r.dr)^2 / (1 - |r|^2), r = (Re C, -Im C, 0).
    1 - |r|^2 is about N, so below tau ~ 0.01 (N ~ 1e-44) 60 digits lose it,
    and a reference there needs the digits of 1/N.
    """
    with mp.workdps(dps):
        tau, t, omega, gamma = (mp.mpf(float(v)) for v in (tau, t, omega, gamma))
        coh = sum(_mp_block(tau, t, omega, gamma))
        dcoh = mp.diff(lambda v: sum(_mp_block(v, t, omega, gamma)), tau)
        value = abs(dcoh) ** 2
        if abs(coh) < 1:
            value += mp.re(mp.conj(coh) * dcoh) ** 2 / (1 - abs(coh) ** 2)
        return float(value)


def excited_population_mp(tau, t, dps=60):
    """The sensor's excited population N/(2N+1) (1 - e^{-(2N+1) t}) in
    dps-digit mpmath, N = 1/(e^{1/tau} - 1); t may be inf."""
    with mp.workdps(dps):
        n = 1 / mp.expm1(1 / mp.mpf(float(tau)))
        r = 2 * n + 1
        return float(n / r if math.isinf(t) else n / r * -mp.expm1(-r * mp.mpf(float(t))))


def sensor_qfi_mp(tau, t, dps=60):
    """Bare sensor QFI (dp/dtau)^2 / (p (1 - p)) in dps-digit mpmath: p is
    the excited population of the zero-gap block's matrix exponential, or
    the steady N/(2N+1) at t = inf, and its tau-derivative from mpmath.diff."""
    with mp.workdps(dps):
        if math.isinf(t):
            def population(v):
                n = 1 / mp.expm1(1 / v)
                return n / (2 * n + 1)
        else:
            t = mp.mpf(float(t))

            def population(v):
                return mp.re(_mp_block(v, t, 0, 1)[0])
        tau = mp.mpf(float(tau))
        p, dp = population(tau), mp.diff(population, tau)
        return float(dp * dp / (p * (1 - p)))


@functools.lru_cache(maxsize=8)
def _mp_gaps(tau, t, omega, n, dps):
    """(x, y, dx/dtau, dy/dtau) at each gap -omega k, k = 0..n-1, from
    _mp_block at dps digits and mpmath.diff; cached, because they do not
    depend on the meter's coefficients."""
    with mp.workdps(dps):
        tau, t, omega = (mp.mpf(v) for v in (tau, t, omega))
        return tuple(tuple(_mp_block(tau, t, -omega * k, 1)) + tuple(
            mp.diff(lambda v, i=i: _mp_block(v, t, -omega * k, 1)[i], tau)
            for i in (0, 1)) for k in range(n))


def _mp_sectors(tau, t, omega, c):
    """The excited and ground sectors (rho_e, rho_g, d rho_e, d rho_g) of the
    joint state as mpmath matrices X o c c^T, ..., at the working precision,
    for the meter coefficients c (their doubles taken exactly): entry
    (m, m + k) from `_mp_gaps` at the gap -omega k, entry (m + k, m) its
    conjugate. Nothing is rounded to double."""
    gaps = _mp_gaps(float(tau), float(t), float(omega), len(c), mp.mp.dps)
    c = [mp.mpf(float(v)) for v in c]
    n = len(c)
    x, y, dx, dy = (mp.matrix(n, n) for _ in range(4))
    for m in range(n):
        for j in range(n):
            for out, value in zip((x, y, dx, dy), gaps[abs(j - m)]):
                out[m, j] = (value if j >= m else mp.conj(value)) * c[m] * c[j]
    return x, y, dx, dy


def _jordan_qfi_mp(rho, drho):
    """2 sum_{ab} |<a| d rho |b>|^2 / (p_a + p_b) in rho's eigenbasis from
    mpmath.eighe, over p_a + p_b above 1e-(dps - 10) of the largest."""
    p, u = mp.eighe(rho)
    e = u.H * drho * u
    n = rho.rows
    floor = mp.mpf(10) ** (10 - mp.mp.dps) * 2 * max(p)
    return 2 * mp.fsum(abs(e[a, b]) ** 2 / (p[a] + p[b])
                       for a in range(n) for b in range(n) if p[a] + p[b] > floor)


def meter_qfi_mp_n(tau, t, omega, c, dps=60):
    """Meter QFI of the n-level ladder prepared in sum_m c_m |m>, in dps-digit
    mpmath: the reduced state (X + Y) o c c^T of `_mp_sectors` through the
    Jordan formula."""
    with mp.workdps(dps):
        x, y, dx, dy = _mp_sectors(tau, t, omega, c)
        return float(_jordan_qfi_mp(x + y, dx + dy))


def joint_qfi_mp(tau, t, omega, c, dps=60):
    """Joint sensor-meter QFI of the n-level ladder prepared in sum_m c_m |m>,
    in dps-digit mpmath: the sum of the Jordan formula over the excited and
    the ground sector of `_mp_sectors`, with the cutoff taken over the whole
    joint state, their direct sum.

    That floor needs the digits of the state's smallest eigenvalues: at
    tau = 0.002, gamma t = 1 (n = 2) the excited sector and the ground
    sector's O(N) eigenvalues are about 1e-217, and 40 to 200 digits drop
    them at both precisions of agreed_mp, which then accepts 0 for a QFI of
    3.0e-207; its default digits (400, 450) keep them."""
    with mp.workdps(dps):
        x, y, dx, dy = _mp_sectors(tau, t, omega, c)
        return float(_jordan_qfi_mp(_direct_sum(x, y), _direct_sum(dx, dy)))


def _direct_sum(a, b):
    out = mp.matrix(a.rows + b.rows)
    for i in range(a.rows):
        for j in range(a.rows):
            out[i, j], out[a.rows + i, a.rows + j] = a[i, j], b[i, j]
    return out


def agreed_mp(reference, *args, digits=(400, 450)):
    """reference(*args, dps=d) at the larger of the two precisions d, after
    checking that the smaller gives the same double to 1e-15 relative: a
    reference is only as good as the digits it does not lose."""
    low, high = (reference(*args, dps=d) for d in digits)
    if not abs(low - high) <= 1e-15 * abs(high):
        raise AssertionError(f"{reference.__name__}{args} is {low!r} at {digits[0]} "
                             f"digits and {high!r} at {digits[1]}")
    return high


def effective_decay_rate(tau, omega, gamma=1.0):
    """Slow decoherence rate
    Gamma_N = N gamma (Omega^2 - N gamma^2) / (Omega^2 + gamma^2)."""
    n = bose_occupation(tau)
    return n * gamma * (omega ** 2 - n * gamma ** 2) / (omega ** 2 + gamma ** 2)


def qfi_longtime(tau, omega, t, gamma=1.0):
    """The paper's long-time approximation of the two-level meter QFI
    (equal superposition), valid for gamma t >> 1:

    I ~ (dN/dtau)^2 gamma^2 t^2 e^{-2 Gamma_N t} / (Omega^2 + gamma^2)
        * (Omega^2 + 4 gamma^2 N^2 + (Omega^2 - 2 gamma^2 N)^2
           / ((Omega^2 + gamma^2)(e^{2 Gamma_N t} - 1)))
    """
    if not t > 0:
        raise ValueError("the long-time approximation needs t > 0")
    n, dn, g2, o2 = bose_occupation(tau), d_occupation_dT(tau), gamma ** 2, omega ** 2
    rate = 2.0 * effective_decay_rate(tau, omega, gamma)
    decay = math.exp(-rate * t)
    if decay == 0.0:
        return 0.0
    tail = (o2 - 2.0 * g2 * n) ** 2 / ((o2 + g2) * math.expm1(rate * t))
    pref = dn * dn * g2 * t * t * decay / (o2 + g2)
    return float(pref * (o2 + 4.0 * g2 * n * n + tail))


def crossing_time(tau, omega, t_window=(0.05, 50.0)):
    """First time the package's two-level meter QFI (equal superposition)
    overtakes its sensor QFI: the first sign change of the difference on a
    geometric scan of t_window, refined by brentq."""
    psi0 = equal_superposition(2)

    def gap(t):
        return meter_qfi_grid(tau, t, omega, psi0) - sensor_qfi(tau, t)

    ts = np.geomspace(*t_window, 240)
    i = int(np.argmax(gap(ts) >= 0))
    if i == 0:
        raise ValueError(f"no meter-sensor QFI crossing inside t_window {t_window}")
    return brentq(gap, ts[i - 1], ts[i])


def nelder_mead_initial_state(tau, omega, t, n, tol=1e-6, n_starts=8, seed=0):
    """Largest meter QFI of the n-level ladder at coupling omega over initial
    states by Nelder-Mead on the unit sphere
    through c = |x| / ||x||, from the equal superposition plus n_starts - 1
    seeded points rng.random(n) + 0.05; returns (coefficients, value,
    converged) of the best start. The objective is the package's meter_qfi_grid:
    this is a reference for the search, not for the QFI."""

    def coefficients(x):
        a = np.abs(x)
        norm = np.linalg.norm(a)
        if norm < 1e-12:
            a = np.ones(n)
            norm = math.sqrt(n)
        return a / norm

    def negative_qfi(x):
        return -float(meter_qfi_grid(tau, t, omega, coefficients(x)))

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


def central_difference_hessian(grad, c, step=1e-4):
    """Hessian at the point c from central differences of the gradient:
    grad maps stacked points (k, n) to their gradients (k, n). Column k is
    (grad(c + step e_k) - grad(c - step e_k)) / (2 step), symmetrized. For a
    gradient homogeneous of degree 1, such as the meter QFI's 2 G c, the step
    is relative on unit vectors. For the meter QFI at tau = 0.1, t = 1 the
    gradient's roundoff over a 1e-5 step alone shows as 4e-7 relative; the
    1e-4 step's truncation error is 2e-8."""
    n = c.size
    shift = step * np.eye(n)
    g = grad(np.concatenate([c + shift, c - shift]))
    hess = (g[:n] - g[n:]) / (2.0 * step)
    return 0.5 * (hess + hess.T)


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


def _fmt_value(v):
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return format(float(v), ".17g")


def write_csv_reference(header, rows):
    """The CSV text a cell-by-cell writer writes: bools and integers as
    integers, every other value with 17 significant digits, LF line ends."""
    return "".join(",".join(line) + "\n"
                   for line in [header, *([_fmt_value(v) for v in row] for row in rows)])
