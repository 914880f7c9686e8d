"""Two-level sensor thermalizing in a bosonic bath.

Everything is expressed in reduced units: hbar = k_b = 1, the sensor gap
omega is the energy unit and the coupling gamma the rate unit, so the
temperature field is the dimensionless ratio tau = k_b T / (hbar omega) and
QFI values are the dimensionless combination I_T (hbar omega / k_b)^2. The
sensor Hamiltonian commutes with the meter coupling and the dissipator, so
omega enters only through tau and is not a separate input.

The sensor starts in the ground state and relaxes under

    d rho / dt = gamma (N + 1) D[sigma_minus] rho + gamma N D[sigma_plus] rho

with N the Bose occupation at the sensor frequency. Populations follow the
closed form p_e(t) = N/(2N+1) (1 - exp(-(2N+1) gamma t)) (`relaxation`);
since the state stays diagonal, the temperature QFI reduces to the
single-parameter Fisher information of p_e.

Every function takes the temperature tau (and the time gamma t) as a scalar
or an array and broadcasts; scalars come back as numpy scalars. No function
takes gamma: for a coupling gamma, pass gamma t and Omega / gamma, and
multiply rates and eigenvalues by gamma. `check_thermal` is the one
validation of tau, shared by every entry point that takes it.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "check_thermal",
    "bose_occupation",
    "d_occupation_dT",
    "relaxation",
    "excited_population",
    "sensor_qfi",
    "steady_sensor_qfi",
]


# every function of tau below is exactly 0 at and below this temperature (N
# underflows from tau ~ 1/745), so smaller tau are evaluated here, which
# keeps 1/tau finite down to the smallest positive double
_TAU_FLOOR = 1e-3


def check_thermal(tau):
    """tau as a float array, after checking that every tau is a positive
    finite number (ValueError otherwise)."""
    tau = np.asarray(tau, dtype=float)
    if not np.all((tau > 0) & np.isfinite(tau)):
        raise ValueError(f"tau must be positive and finite, got {tau!r}")
    return tau


def _check_time(t):
    t = np.asarray(t, dtype=float)
    if not np.all(t >= 0):
        raise ValueError(f"t must be a nonnegative time, got {t!r}")
    return t


def bose_occupation(tau):
    """Bose occupation N = 1/(exp(1/tau) - 1) at the sensor frequency.

    Once exp(1/tau) would overflow (tau below ~1/709) it is evaluated as
    exp(-1/tau)/(1 - exp(-1/tau)), which keeps N (subnormal from there) as
    long as d_occupation_dT is nonzero and underflows to exactly 0 below
    tau ~ 1/745, the zero-temperature regime to double precision.
    """
    arg = 1.0 / np.maximum(check_thermal(tau), _TAU_FLOOR)
    cold = arg > 709.0
    n = np.where(cold, np.exp(-arg) / -np.expm1(-arg),
                 1.0 / np.expm1(np.minimum(arg, 709.0)))
    return n[()]


def d_occupation_dT(tau):
    """dN/dtau, evaluated as 1/(2 tau sinh(1/(2 tau)))^2.

    The sinh form avoids the exp(1/tau) overflow of the naive quotient at
    small tau and its cancellation at large tau.
    """
    tau = np.maximum(check_thermal(tau), _TAU_FLOOR)
    arg = 1.0 / (2.0 * tau)
    # beyond 350 sinh would overflow; the derivative is exp(-1/tau)/tau^2 to
    # double precision, with tau^2 inside the exponent so that it stays normal
    s = 2.0 * tau * np.sinh(np.minimum(arg, 350.0))
    cold = np.exp(-2.0 * (arg + np.log(tau)))
    return np.where(arg > 350.0, cold, 1.0 / (s * s))[()]


def relaxation(n_bar, t):
    """(p_e, dp_e/dN): the bare relaxation from the ground state at time t,

        p_e = N/(2N+1) (1 - exp(-(2N+1) t)),

    and its derivative in the occupation N. Broadcasts; t may hold inf, for
    the steady value N/(2N+1). A decay exponent (2N+1) t beyond double range
    takes that t = inf limit too, where 2 t e^{-(2N+1) t} would be inf * 0.
    """
    r = 2.0 * n_bar + 1.0
    with np.errstate(over="ignore"):
        exponent = r * t
    late = np.isinf(exponent)
    t, exponent = np.where(late, 0.0, t), np.where(late, 0.0, exponent)
    grown = np.where(late, 1.0, -np.expm1(-exponent))  # 1 - e^{-r t}
    return (n_bar / r * grown,
            grown / r / r + n_bar / r * 2.0 * t * np.exp(-exponent))


def excited_population(tau, t):
    """Excited-state population at time t, starting from the ground state.

    t may be inf for the steady value N/(2N+1).
    """
    return relaxation(bose_occupation(tau), _check_time(t))[0][()]


def sensor_qfi(tau, t):
    """Temperature QFI of the bare sensor at time t.

    The state is diagonal at all times, so the QFI is the classical Fisher
    information of the population: (dp/dtau)^2 / (p (1-p)). Zero at t = 0.
    """
    n_bar, t = bose_occupation(tau), _check_time(t)
    p, dp_dn = relaxation(n_bar, t)
    dp = dp_dn * d_occupation_dT(tau)
    informative = (t != 0) & (p > 0.0) & (p < 1.0)
    # divide first: dp^2 underflows at low tau and at tiny t
    return (dp * np.divide(dp, p * (1.0 - p), out=np.zeros(np.shape(p)),
                           where=informative))[()]


def steady_sensor_qfi(tau):
    """Steady-state sensor QFI g(tau) = exp(1/tau) / ((1+exp(1/tau))^2 tau^4).

    Evaluated as 1/(2 tau^2 cosh(1/(2 tau)))^2, which underflows gracefully
    to 0 at small and at large tau instead of overflowing.
    """
    tau = np.maximum(check_thermal(tau), _TAU_FLOOR)
    arg = 1.0 / (2.0 * tau)
    root = 1.0 / (2.0 * tau * np.cosh(np.minimum(arg, 350.0))) / tau
    return np.where(arg > 350.0, 0.0, root * root)[()]
