"""Joint dynamics of the sensor and an n-level meter coupled through H_I = M (x) |e><e|.

The meter operator M is diagonal in its eigenbasis {|m>} with eigenvalues
lambda_m, so the joint state closes on sensor-space blocks rho_mm'(t), one per
meter matrix element, each driven only by the gap Omega_mm' = lambda_m - lambda_m':

    dx/dt = (-i Omega_mm' - (N+1) gamma) x + N gamma y
    dy/dt = (N+1) gamma x + (-N gamma - 0) y        (x = <e| block |e>, y = <g| block |g>)

Off-diagonal sensor entries of every block stay zero for the ground-state
start used throughout, so the joint state is the direct sum of an excited
sector [c_m c_m' x_mm'] and a ground sector [c_m c_m' y_mm'], and the reduced
meter state is the Schur product rho_M = C o c c^T with the coherence
multiplier C_mm' = x_mm' + y_mm'.

The closed form diagonalizes the 2x2 system. With

    alpha = sqrt(((2N+1) gamma)^2 - Omega^2 + 2 i gamma Omega)

the block eigenvalues are s_pm = (-(2N+1) gamma - i Omega +/- alpha)/2. The
slow root is written without the cancellation of N inside 2N+1,

    s+ = -N gamma + q,    q = 2N(N+1) gamma^2 / (alpha + gamma + i Omega),

and with D = e^{s+ t} (-expm1(-alpha t)) / alpha = (e^{s+ t} - e^{s- t})/alpha

    x = N gamma D,    y = e^{s+ t} - q D,
    delta = x + y - 1 = expm1(s+ t) - s+ D.

Every factor is bounded (Re s+ <= 0, Re alpha > 0), so nothing overflows, and
the small occupation N ~ e^{-1/tau} survives in q, s+ and delta to full
relative precision. The temperature derivatives are analytic: the formulas
are differentiated in N and chained through dN/dtau. A zero gap is the bare
relaxation curve (x = p_e, y = 1 - p_e, x + y = 1 exactly); t = inf takes the
limits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

__all__ = [
    "MeterSpec",
    "MeterState",
    "spin_x_spectrum",
    "alpha",
    "SectorBlocks",
    "sector_blocks",
    "meter_blocks",
]


@dataclass(frozen=True, eq=False)
class MeterSpec:
    """Meter dimension and the eigenvalues of its coupling operator.

    Only the spectrum enters the dynamics. lambdas must be sorted ascending;
    omega_drive records the interaction strength when the spectrum was
    generated from a named operator (None for custom spectra).
    """

    n: int
    lambdas: np.ndarray
    omega_drive: float | None = None

    def __post_init__(self):
        if not (isinstance(self.n, (int, np.integer)) and self.n >= 2):
            raise ValueError(f"meter dimension must be an integer >= 2, got {self.n!r}")
        lam = np.asarray(self.lambdas, dtype=float)
        if lam.shape != (self.n,) or not np.all(np.isfinite(lam)):
            raise ValueError("lambdas must be n finite reals")
        if np.any(np.diff(lam) < 0):
            raise ValueError("lambdas must be sorted ascending")
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "lambdas", lam)

    @cached_property
    def gap_layout(self):
        """(gaps, rows, cols, which): the distinct gaps lambda_m - lambda_m' of
        the upper triangle (m <= m', at rows/cols) and, per entry, the index
        of its gap."""
        rows, cols = np.triu_indices(self.n)
        gaps, which = np.unique(self.lambdas[rows] - self.lambdas[cols],
                                return_inverse=True)
        return gaps, rows, cols, which


@dataclass(frozen=True, eq=False)
class MeterState:
    """Initial meter state sum_m c_m |m> with nonnegative real coefficients.

    Relative phases are irrelevant for the QFI of this model (they can be
    absorbed into the meter basis), so the global-phase-free convention is
    enforced at construction: coefficients real, nonnegative, unit norm.
    """

    coefficients: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coefficients, dtype=float)
        if c.ndim != 1 or c.size < 2 or not np.all(np.isfinite(c)):
            raise ValueError("coefficients must be a 1-D real vector, length >= 2")
        if np.any(c < 0):
            raise ValueError("coefficients must be nonnegative (global phases removed)")
        if abs(c @ c - 1.0) > 1e-12:
            raise ValueError("coefficients must have unit norm to 1e-12")
        object.__setattr__(self, "coefficients", c)

    @classmethod
    def equal_superposition(cls, n):
        return cls(np.full(n, 1.0 / math.sqrt(n)))

    @classmethod
    def eigenstate(cls, n, m):
        if not 0 <= m < n:
            raise ValueError(f"eigenstate index must satisfy 0 <= m < n, got m={m!r}")
        c = np.zeros(n)
        c[m] = 1.0
        return cls(c)


def spin_x_spectrum(n, omega_drive):
    """MeterSpec for M = Omega S_x in the spin-(n-1)/2 representation.

    The eigenvalues are the equally spaced ladder Omega (m - (n-1)/2),
    m = 0..n-1.
    """
    if not (isinstance(n, (int, np.integer)) and n >= 2):
        raise ValueError(f"spin meter needs n >= 2, got {n!r}")
    if not (math.isfinite(omega_drive) and omega_drive >= 0):
        raise ValueError("omega_drive must be a nonnegative finite number")
    lam = omega_drive * (np.arange(n) - (n - 1) / 2.0)
    return MeterSpec(n=int(n), lambdas=lam, omega_drive=float(omega_drive))


def alpha(n_bar, omega_diff, gamma=1.0):
    """Discriminant root alpha = sqrt(((2N+1) gamma)^2 - Omega^2 + 2 i gamma Omega).

    Principal branch, so Re alpha > 0 for gamma > 0; broadcasts over arrays.
    """
    g = (2.0 * n_bar + 1.0) * gamma
    return np.sqrt((g * g - omega_diff * omega_diff) + 2j * gamma * omega_diff)


class SectorBlocks(NamedTuple):
    """Sector-block entries of one meter gap and their tau-derivatives."""

    x: np.ndarray      # <e| block |e>, the excited sector
    y: np.ndarray      # <g| block |g>, the ground sector
    dx: np.ndarray     # dx/dtau
    dy: np.ndarray     # dy/dtau
    delta: np.ndarray  # x + y - 1, free of cancellation near full coherence


def sector_blocks(n_bar, dn_dtau, gamma, gap, t):
    """Block entries for gaps `gap` at times `t`, all arrays broadcast together.

    n_bar and dn_dtau are the occupation N and dN/dtau at each temperature;
    t may hold math.inf. Formulas in the module docstring.
    """
    n_bar, dn, gap, t = (np.asarray(v, dtype=float) for v in (n_bar, dn_dtau, gap, t))
    g = gamma
    flat, late = gap == 0.0, np.isinf(t)
    # placeholders keep the general branch finite where a limit replaces it
    omega = np.where(flat, 1.0, gap)
    tt = np.where(late, 0.0, t)

    # general gap, as functions of N; primes are d/dN
    a = alpha(n_bar, omega, g)
    da = 2.0 * (2.0 * n_bar + 1.0) * g * g / a
    b = a + g + 1j * omega
    q = 2.0 * n_bar * (n_bar + 1.0) * g * g / b
    dq = (2.0 * (2.0 * n_bar + 1.0) * g * g - q * da) / b
    s, ds = q - n_bar * g, dq - g
    e_slow = np.exp(s * tt)
    e_ratio = np.exp(-a * tt)  # e^{s- t} / e^{s+ t}
    d = e_slow * -np.expm1(-a * tt) / a
    dd = d * (tt * ds - da / a) + tt * da * e_slow * e_ratio / a
    x, dx = n_bar * g * d, g * d + n_bar * g * dd
    y, dy = e_slow - q * d, tt * ds * e_slow - dq * d - q * dd
    delta = np.expm1(s * tt) - s * d

    # zero gap: the bare relaxation p_e(t), with y = 1 - p_e so that x + y
    # rounds to exactly 1 (p_e <= 1/2)
    r = 2.0 * n_bar + 1.0
    grown = np.where(late, 1.0, -np.expm1(-r * g * tt))  # 1 - e^{-r gamma t}
    p = n_bar / r * grown
    dp = grown / (r * r) + n_bar / r * 2.0 * g * tt * np.exp(-r * g * tt)
    x, dx = np.where(flat, p, x), np.where(flat, dp, dx)
    y, dy = np.where(flat, 1.0 - p, y), np.where(flat, -dp, dy)
    delta = np.where(flat, 0.0, delta)

    # finite gap at t = inf: the block has decayed, unless N = 0 freezes it
    gone = late & ~flat
    frozen = gone & (n_bar == 0.0)
    x, dx, dy = (np.where(gone, 0.0, v) for v in (x, dx, dy))
    y = np.where(gone, np.where(frozen, 1.0, 0.0), y)
    delta = np.where(gone, np.where(frozen, 0.0, -1.0), delta)
    return SectorBlocks(x, y, dx * dn, dy * dn, delta)


def meter_blocks(n_bar, dn_dtau, gamma, meter, t):
    """SectorBlocks of (..., n, n) matrices whose (m, m') entries belong to the
    gap lambda_m - lambda_m'; n_bar, dn_dtau and t broadcast over the leading
    axes.

    Each distinct gap of the upper triangle is evaluated once; the lower
    triangle is its exact conjugate, so every matrix is Hermitian.
    """
    n = meter.n
    gaps, rows, cols, which = meter.gap_layout
    blocks = sector_blocks(np.asarray(n_bar)[..., None], np.asarray(dn_dtau)[..., None],
                           gamma, gaps, np.asarray(t, dtype=float)[..., None])

    def matrix(v):
        v = v[..., which]
        out = np.empty(v.shape[:-1] + (n, n), dtype=complex)
        out[..., cols, rows] = v.conj()
        out[..., rows, cols] = v
        return out

    return SectorBlocks(*(matrix(v) for v in blocks))

