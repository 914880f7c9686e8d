"""Two-level sensor thermalizing in a bosonic bath.

Everything is expressed in reduced units: hbar = k_b = 1, the sensor gap
omega is the energy unit and the coupling gamma the rate unit, so the
temperature field is the dimensionless ratio tau = k_b T / (hbar omega) and
QFI values are the dimensionless combination I_T (hbar omega / k_b)^2.

The sensor starts in the ground state and relaxes under

    d rho / dt = gamma (N + 1) D[sigma_minus] rho + gamma N D[sigma_plus] rho

with N the Bose occupation at the sensor frequency. Populations follow the
closed form p_e(t) = N/(2N+1) (1 - exp(-(2N+1) gamma t)); since the state
stays diagonal, the temperature QFI reduces to the single-parameter Fisher
information of p_e.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SensorParams",
    "ThermalRates",
    "bose_occupation",
    "d_occupation_dT",
    "thermal_rates",
    "excited_population",
    "excited_population_derivative",
    "sensor_state",
    "sensor_state_derivative",
    "sensor_qfi",
    "steady_sensor_qfi",
]


@dataclass(frozen=True)
class SensorParams:
    """Sensor and bath parameters in reduced units.

    temperature is tau = k_b T/(hbar omega); omega and gamma keep the energy
    and rate units explicit so nothing silently assumes them equal to 1.
    """

    temperature: float
    omega: float = 1.0
    gamma: float = 1.0

    def __post_init__(self):
        for name in ("temperature", "omega", "gamma"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be a positive finite number, got {v!r}")


@dataclass(frozen=True)
class ThermalRates:
    """Bose occupation and the induced decay/excitation rates."""

    n_bar: float
    gamma_minus: float
    gamma_plus: float


def bose_occupation(params):
    """Bose occupation N = 1/(exp(1/tau) - 1) at the sensor frequency.

    Once exp(1/tau) would overflow (tau below ~1/709) it is evaluated as
    exp(-1/tau)/(1 - exp(-1/tau)), which keeps N (subnormal from there) as
    long as d_occupation_dT is nonzero and underflows to exactly 0 below
    tau ~ 1/745, the zero-temperature regime to double precision.
    """
    arg = 1.0 / params.temperature
    if arg > 709.0:
        return math.exp(-arg) / -math.expm1(-arg)
    return 1.0 / math.expm1(arg)


def d_occupation_dT(params):
    """dN/dtau, evaluated as 1/(2 tau sinh(1/(2 tau)))^2.

    The sinh form avoids the exp(1/tau) overflow of the naive quotient at
    small tau and its cancellation at large tau.
    """
    tau = params.temperature
    arg = 1.0 / (2.0 * tau)
    if arg > 350.0:
        # sinh would overflow; the derivative is exp(-1/tau)/tau^2 to double precision
        return math.exp(-2.0 * arg) / (tau * tau)
    s = 2.0 * tau * math.sinh(arg)
    return 1.0 / (s * s)


def thermal_rates(params):
    """Decay and excitation rates gamma_minus = (N+1) gamma, gamma_plus = N gamma."""
    n = bose_occupation(params)
    return ThermalRates(n_bar=n, gamma_minus=(n + 1.0) * params.gamma,
                        gamma_plus=n * params.gamma)


def _check_time(t):
    if not (isinstance(t, (int, float)) and t >= 0):
        raise ValueError(f"t must be a nonnegative time, got {t!r}")


def excited_population(params, t):
    """Excited-state population at time t, starting from the ground state.

    t may be math.inf for the steady value N/(2N+1).
    """
    _check_time(t)
    n = bose_occupation(params)
    r = (2.0 * n + 1.0) * params.gamma
    return n / (2.0 * n + 1.0) * (-math.expm1(-r * t))


def excited_population_derivative(params, t):
    """d p_e / d tau at time t (analytic chain rule through N)."""
    _check_time(t)
    n = bose_occupation(params)
    r = 2.0 * n + 1.0
    if math.isinf(t):
        dp_dn = 1.0 / (r * r)
    else:
        e = math.exp(-r * params.gamma * t)
        dp_dn = (1.0 - e) / (r * r) + (n / r) * 2.0 * params.gamma * t * e
    return dp_dn * d_occupation_dT(params)


def sensor_state(params, t):
    """Sensor density matrix diag(p_e, 1 - p_e) in the {|e>, |g>} basis."""
    p = excited_population(params, t)
    return np.diag([p, 1.0 - p]).astype(complex)


def sensor_state_derivative(params, t):
    """d rho_S / d tau, diagonal and traceless."""
    dp = excited_population_derivative(params, t)
    return np.diag([dp, -dp]).astype(complex)


def sensor_qfi(params, t):
    """Temperature QFI of the bare sensor at time t.

    The state is diagonal at all times, so the QFI is the classical Fisher
    information of the population: (dp/dtau)^2 / (p (1-p)). Zero at t = 0.
    """
    _check_time(t)
    if t == 0:
        return 0.0
    p = excited_population(params, t)
    if p <= 0.0 or p >= 1.0:
        return 0.0
    dp = excited_population_derivative(params, t)
    return dp * dp / (p * (1.0 - p))


def steady_sensor_qfi(params):
    """Steady-state sensor QFI g(tau) = exp(1/tau) / ((1+exp(1/tau))^2 tau^4).

    Evaluated as 1/(2 tau^2 cosh(1/(2 tau)))^2, which underflows gracefully
    to 0 at small tau instead of overflowing.
    """
    tau = params.temperature
    arg = 1.0 / (2.0 * tau)
    if arg > 350.0:
        return 0.0
    d = 2.0 * tau * tau * math.cosh(arg)
    return 1.0 / (d * d)
