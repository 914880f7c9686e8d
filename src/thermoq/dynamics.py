"""Joint dynamics of the sensor and an n-level meter coupled through H_I = M (x) |e><e|.

The meter operator M is diagonal in its eigenbasis {|m>} with eigenvalues
lambda_m, so the joint state closes on sensor-space blocks rho_mm'(t), one per
meter matrix element, each driven only by the gap Omega_mm' = lambda_m - lambda_m':

    dx/dt = (-i Omega_mm' - (N+1) gamma) x + N gamma y
    dy/dt = (N+1) gamma x + (-N gamma - 0) y        (x = <e| block |e>, y = <g| block |g>)

Off-diagonal sensor entries of every block stay zero for the ground-state
start used throughout. The closed form below diagonalizes the 2x2 system:
with mu = -((2N+1) gamma + i Omega)/2 and

    alpha = sqrt(((2N+1) gamma)^2 - Omega^2 + 2 i gamma Omega)

the two block eigenvalues are s_pm = mu +/- alpha/2, both with nonpositive
real part, and

    x(t) = N gamma (e^{s+ t} - e^{s- t}) / alpha
    y(t) = (e^{s+ t} + e^{s- t})/2 + (gamma + i Omega)(e^{s+ t} - e^{s- t})/(2 alpha)

The exponential form never overflows. The principal square root and either
branch give the same (x, y) since swapping the root swaps s+ and s-.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bath import bose_occupation

__all__ = [
    "MeterSpec",
    "MeterState",
    "spin_x_spectrum",
    "alpha",
    "coherence_block",
    "coherence_trace",
    "joint_state",
    "meter_state",
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

    Principal branch; the block components are branch-independent.
    """
    g = (2.0 * n_bar + 1.0) * gamma
    return complex(np.sqrt(complex(g * g - omega_diff * omega_diff,
                                   2.0 * gamma * omega_diff)))


def _block_components(n_bar, gamma, omega_diff, t):
    """(x, y) components of the block for gap omega_diff at time t."""
    if omega_diff == 0.0:
        # zero gap reduces exactly to the bare thermalization curve
        pinf = n_bar / (2.0 * n_bar + 1.0)
        p = pinf * (-math.expm1(-(2.0 * n_bar + 1.0) * gamma * t)) if not math.isinf(t) else pinf
        return complex(p), complex(1.0 - p)
    if math.isinf(t):
        # finite gap: the block decays away entirely unless N = 0,
        # where the ground component survives with unit magnitude phase-frozen
        if n_bar == 0.0:
            return 0.0 + 0.0j, 1.0 + 0.0j
        return 0.0 + 0.0j, 0.0 + 0.0j
    a = alpha(n_bar, omega_diff, gamma)
    mu = -0.5 * ((2.0 * n_bar + 1.0) * gamma + 1j * omega_diff)
    ep = np.exp((mu + 0.5 * a) * t)
    em = np.exp((mu - 0.5 * a) * t)
    diff = (ep - em) / a
    x = n_bar * gamma * diff
    y = 0.5 * (ep + em) + 0.5 * (gamma + 1j * omega_diff) * diff
    return complex(x), complex(y)


def coherence_block(params, omega_diff, t):
    """2x2 sensor-space block for a meter gap omega_diff, ground-state start.

    Diagonal in the sensor basis; for omega_diff = 0 it equals
    diag(p_e(t), 1 - p_e(t)) exactly.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    x, y = _block_components(bose_occupation(params), params.gamma, omega_diff, t)
    return np.array([[x, 0.0], [0.0, y]], dtype=complex)


def coherence_trace(params, omega_diff, t):
    """Trace of the coherence block: the decoherence factor of one meter coherence."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    x, y = _block_components(bose_occupation(params), params.gamma, omega_diff, t)
    return x + y


def joint_state(params, meter, psi0, t):
    """Joint sensor-meter state at time t for the product start |psi0><psi0| (x) |g><g|.

    Index convention: meter (x) sensor, so basis index 2 m + s with s = 0 for
    |e> and 1 for |g>. Hermitian by construction (lower blocks are exact
    conjugates of upper ones), positive semidefinite up to roundoff.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    n = meter.n
    c = psi0.coefficients
    if c.size != n:
        raise ValueError(f"psi0 has {c.size} coefficients but the meter has {n} levels")
    n_bar = bose_occupation(params)
    rho = np.zeros((2 * n, 2 * n), dtype=complex)
    for m in range(n):
        for mp in range(m, n):
            x, y = _block_components(n_bar, params.gamma,
                                     meter.lambdas[m] - meter.lambdas[mp], t)
            w = c[m] * c[mp]
            rho[2 * m, 2 * mp] = w * x
            rho[2 * m + 1, 2 * mp + 1] = w * y
            if mp > m:
                rho[2 * mp, 2 * m] = (w * x).conjugate()
                rho[2 * mp + 1, 2 * m + 1] = (w * y).conjugate()
    return rho


def meter_state(params, meter, psi0, t):
    """Reduced meter state: <m| rho_M |m'> = c_m c_m' tr rho_mm'(t).

    The diagonal is the initial population c_m^2 at every time; only the
    coherences evolve (and decay).
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    n = meter.n
    c = psi0.coefficients
    if c.size != n:
        raise ValueError(f"psi0 has {c.size} coefficients but the meter has {n} levels")
    n_bar = bose_occupation(params)
    rho = np.diag((c * c).astype(complex))
    for m in range(n):
        for mp in range(m + 1, n):
            x, y = _block_components(n_bar, params.gamma,
                                     meter.lambdas[m] - meter.lambdas[mp], t)
            e = c[m] * c[mp] * (x + y)
            rho[m, mp] = e
            rho[mp, m] = e.conjugate()
    return rho

