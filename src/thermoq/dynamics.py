"""Joint dynamics of the sensor and an n-level meter coupled through H_I = M (x) |e><e|.

The meter operator is M = Omega S_x in the spin-(n-1)/2 representation,
diagonal in its eigenbasis {|m>} with the equally spaced eigenvalues
lambda_m = Omega (m - (n-1)/2) (`spin_x_spectrum`). The joint state closes on
sensor-space blocks rho_mm'(t), one per meter matrix element, each driven
only by the gap Omega_mm' = lambda_m - lambda_m' = -Omega k, k = m' - m.
Times and Omega are in units of the sensor-bath rate gamma (see `bath`):

    dx/dt = (-i Omega_mm' - (N+1)) x + N y
    dy/dt = (N+1) x - N y        (x = <e| block |e>, y = <g| block |g>)

Off-diagonal sensor entries of every block stay zero for the ground-state
start used throughout, so the joint state is the direct sum of an excited
sector [c_m c_m' x_mm'] and a ground sector [c_m c_m' y_mm'], and the reduced
meter state is the Schur product rho_M = C o c c^T with the coherence
multiplier C_mm' = x_mm' + y_mm', which `sector_blocks` returns in place of
y (the ground sector is C - x). Each of these n x n matrices is Hermitian
and Toeplitz, fixed by its values at the n gaps -Omega k, k = 0..n-1:
`gap_matrix` lays them out, and `real_matrix` maps them to the real
symmetric form of the even/odd transform (`real_map`).

The closed form diagonalizes the 2x2 system. A block of gap Omega has trace
-(2N+1) - i Omega and determinant i N Omega, so with

    alpha = sqrt((2N+1)^2 - Omega^2 + 2 i Omega)

(principal branch, Re alpha > 0) its roots are (`block_roots`)

    s- = (-(2N+1) - i Omega - alpha) / 2,    s+ = i N Omega / s-.

The terms of s- share their signs, so nothing cancels: the small occupation
N ~ e^{-1/tau} survives in s+ to full relative precision, Re s+ <= 0 holds
in rounding, and a zero gap or N = 0 gives s+ = 0 exactly. With
D = e^{s+ t} (-expm1(-alpha t)) / alpha = (e^{s+ t} - e^{s- t})/alpha

    x = N D,    C = e^{s+ t} - s+ D,    delta = C - 1 = expm1(s+ t) - s+ D.

Every factor is bounded (Re s+ <= 0, Re alpha > 0), so nothing overflows
until alpha squares 2N+1 or Omega past double range (about 1e154). The
temperature derivatives are analytic: the formulas are differentiated in N,
with alpha' = 2(2N+1)/alpha and, from the determinant,
ds+/dN = (i Omega + s+ (1 + alpha'/2)) / s-, and chained through dN/dtau. A
zero gap is the bare relaxation curve of `bath.relaxation` (x = p_e, C = 1
exactly); t = inf takes the limits.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .bath import relaxation

__all__ = [
    "equal_superposition",
    "spin_x_spectrum",
    "gap_matrix",
    "real_map",
    "real_matrix",
    "block_roots",
    "SectorBlocks",
    "sector_blocks",
]


def gap_matrix(v):
    """(..., n, n) matrices F from values v (..., n) at the n ladder gaps:
    F[m, m + k] = v[..., k] on and above the diagonal and its conjugate
    below, so F is Hermitian (and Toeplitz) where v[..., 0] is real."""
    n = v.shape[-1]
    m = np.arange(n)
    # w[..., n - 1 + k] = v[..., k] and w[..., n - 1 - k] = conj v[..., k]
    w = np.concatenate([v[..., :0:-1].conj(), v], axis=-1)
    return w[..., n - 1 + m[None, :] - m[:, None]]


@lru_cache
def real_map(n):
    """The real (2n, n^2) matrix M with vec(Re(Q^dag F Q)) = [Re v, Im v] @ M
    for F = gap_matrix(v).

    Q is the even/odd unitary of Lee (Linear Algebra Appl. 29, 205, 1980).
    With m' = n - 1 - m, column m < m' is (e_m + e_m')/sqrt(2), column
    m > m' is i (e_m' - e_m)/sqrt(2), and the middle column of an odd n is
    e_m. F is Toeplitz and Hermitian, hence centrohermitian (J F J = conj F,
    J the exchange matrix), and for such an F, Q^dag F Q is real. A
    palindromic diag(c) (c = J c) acts on column m as c_m, so
    Q^dag (F o c c^T) Q = (Q^dag F Q) o c c^T.

    Every entry of Q^dag F Q is at most two values of v times 1, 2 or
    sqrt(2): M is exact, and a row of a product with M does not depend
    on the summation order."""
    m = np.arange(n)
    k = m[::-1]  # the mirror level n - 1 - m
    low, high, mid = m < k, m > k, m == k
    # Q = q diag(s): q holds 0, +-1 and +-i, so q^dag F q is exact, and
    # s_a s_b = sqrt(s_a^2 s_b^2) is 1/2, 1/sqrt(2) or 1, rounded once
    q = np.zeros((n, n), dtype=complex)
    q[m[low], m[low]] = q[k[low], m[low]] = 1.0
    q[k[high], m[high]], q[m[high], m[high]] = 1j, -1j
    q[mid, mid] = 1.0
    s2 = np.where(mid, 1.0, 0.5)
    f = gap_matrix(np.concatenate([np.eye(n), 1j * np.eye(n)]))
    real = (q.conj().T @ f @ q).real * np.sqrt(s2[:, None] * s2[None, :])
    real = real.reshape(2 * n, n * n)
    real.flags.writeable = False
    return real


def real_matrix(v):
    """(..., n, n) real symmetric matrices Re(Q^dag F Q), F = gap_matrix(v),
    from values v (..., n) at the ladder gaps by one product with real_map."""
    n = v.shape[-1]
    w = np.concatenate([v.real, v.imag], axis=-1)
    return (w.reshape(-1, 2 * n) @ real_map(n)).reshape(v.shape[:-1] + (n, n))


def equal_superposition(n):
    """The coefficients (n,) of the equal superposition of the n meter levels."""
    return np.full(n, 1.0 / math.sqrt(n))


def spin_x_spectrum(n, omega_drive):
    """The levels of M = Omega S_x in the spin-(n-1)/2 representation: the
    equally spaced ladder Omega (m - (n-1)/2), m = 0..n-1, ascending."""
    if not (isinstance(n, (int, np.integer)) and n >= 2):
        raise ValueError(f"spin meter needs n >= 2, got {n!r}")
    if not (math.isfinite(omega_drive) and omega_drive >= 0):
        raise ValueError("omega_drive must be a nonnegative finite number")
    return omega_drive * (np.arange(n) - (n - 1) / 2.0)


def block_roots(n_bar, gap):
    """(alpha, s-, s+) of the population block at `gap` (module docstring);
    n_bar and gap broadcast. Where alpha overflows, s- is not finite, and s+
    may not be either. Adding 0.0 makes a zero s+ +0, so that null modes
    print as 0, not -0."""
    g = 2.0 * n_bar + 1.0
    a = np.sqrt((g * g - gap * gap) + 2j * gap)
    s_minus = -0.5 * (g + 1j * gap + a)
    return a, s_minus, 1j * (n_bar * gap) / s_minus + 0.0


class SectorBlocks(NamedTuple):
    """Sector-block entries of one meter gap and their tau-derivatives."""

    x: np.ndarray      # <e| block |e>, the excited sector
    coh: np.ndarray    # the meter coherence C = x + <g| block |g>
    dx: np.ndarray     # dx/dtau
    dcoh: np.ndarray   # dC/dtau
    delta: np.ndarray  # C - 1, free of cancellation near full coherence


def sector_blocks(n_bar, dn_dtau, gap, t):
    """Block entries for gaps `gap` at times `t`, all arrays broadcast together.

    n_bar and dn_dtau are the occupation N and dN/dtau at each temperature;
    t may hold math.inf. Formulas in the module docstring; the zero-gap and
    t = inf limits are applied only where they occur."""
    n_bar, dn, gap, t = (np.asarray(v, dtype=float) for v in (n_bar, dn_dtau, gap, t))
    flat, late = gap == 0.0, np.isinf(t)
    # placeholders keep the general branch finite where a limit replaces it
    omega = np.where(flat, 1.0, gap)
    tt = np.where(late, 0.0, t)

    # general gap, as functions of N; primes are d/dN
    a, s_minus, s = block_roots(n_bar, omega)
    da = 2.0 * (2.0 * n_bar + 1.0) / a
    ds = (1j * omega + s * (1.0 + 0.5 * da)) / s_minus
    st, at = s * tt, -a * tt
    e_slow = np.exp(st)
    e_ratio = np.exp(at)  # e^{s- t} / e^{s+ t}
    d = e_slow * -np.expm1(at) / a
    dd = d * (tt * ds - da / a) + tt * da * e_slow * e_ratio / a
    x, dx = n_bar * d, d + n_bar * dd
    coh, dcoh = e_slow - s * d, tt * ds * e_slow - ds * d - s * dd
    delta = np.expm1(st) - s * d

    if flat.any():
        # zero gap: the bare relaxation p_e(t), and full coherence
        p, dp = relaxation(n_bar, t)
        x, dx = np.where(flat, p, x), np.where(flat, dp, dx)
        coh = np.where(flat, 1.0, coh)
        dcoh, delta = (np.where(flat, 0.0, v) for v in (dcoh, delta))

    if late.any():
        # finite gap at t = inf: the block has decayed, unless N = 0 freezes it
        gone = late & ~flat
        frozen = gone & (n_bar == 0.0)
        x, dx, dcoh = (np.where(gone, 0.0, v) for v in (x, dx, dcoh))
        coh = np.where(gone, np.where(frozen, 1.0, 0.0), coh)
        delta = np.where(gone, np.where(frozen, 0.0, -1.0), delta)
    return SectorBlocks(x, coh, dx * dn, dcoh * dn, delta)
