import math

import numpy as np
import pytest

import oracles
from thermoq.bath import (bose_occupation, d_occupation_dT, excited_population,
                          relaxation, sensor_qfi, steady_sensor_qfi)
from thermoq.dynamics import equal_superposition, sector_blocks, spin_x_spectrum
from thermoq.optimize import optimize_initial_state
from thermoq.qfi import joint_and_meter_qfi_grid, joint_qfi_grid, meter_qfi_grid
from thermoq.spectrum import slow_spectrum

_LEVELS = spin_x_spectrum(2, 2.0)
_PSI0 = equal_superposition(2)


def _dpe_dtau(tau, t):
    """dp_e/dtau as the package computes it: the zero-gap sector block's dx."""
    return sector_blocks(bose_occupation(tau), d_occupation_dT(tau), 0.0, t).dx.real


# every entry point that takes a temperature, as f(tau, **extra)
_ENTRY_POINTS = {
    "bose_occupation": lambda tau, **kw: bose_occupation(tau, **kw),
    "d_occupation_dT": lambda tau, **kw: d_occupation_dT(tau, **kw),
    "steady_sensor_qfi": lambda tau, **kw: steady_sensor_qfi(tau, **kw),
    "excited_population": lambda tau, **kw: excited_population(tau, 1.0, **kw),
    "sensor_qfi": lambda tau, **kw: sensor_qfi(tau, 1.0, **kw),
    "optimize_initial_state": lambda tau, **kw: optimize_initial_state(tau, 2.0, 1.0, 2,
                                                                       **kw),
    "slow_spectrum": lambda tau, **kw: slow_spectrum(tau, _LEVELS, 4, **kw),
    "slow_spectrum_closed_pair": (
        lambda tau, **kw: slow_spectrum(tau, 2.0 * spin_x_spectrum(2, 1.0), 4, **kw)[2:4]),
    "meter_qfi_grid": lambda tau, **kw: meter_qfi_grid(tau, 1.0, 2.0, _PSI0, **kw),
    "joint_qfi_grid": lambda tau, **kw: joint_qfi_grid(tau, 1.0, 2.0, _PSI0, **kw),
    "joint_and_meter_qfi_grid": (
        lambda tau, **kw: joint_and_meter_qfi_grid(tau, 1.0, 2.0, _PSI0, **kw)),
}


@pytest.mark.parametrize("name", sorted(_ENTRY_POINTS))
def test_entry_points_reject_invalid_tau_and_gamma(name):
    call = _ENTRY_POINTS[name]
    call(0.2)  # a valid point goes through
    for tau in (0.0, -0.1, math.inf, math.nan):
        with pytest.raises(ValueError):
            call(tau)
        with pytest.raises(ValueError):  # one bad entry in an array
            call(np.array([0.2, tau]))
    # gamma is the rate unit, not an argument: any gamma is refused
    with pytest.raises(TypeError):
        call(0.2, gamma=1.0)


def test_bath_arrays_match_scalar_calls():
    # one tau per branch: 1/tau > 709 (subnormal N), 1/(2 tau) > 350 (the
    # asymptotic dN/dtau), and ordinary temperatures
    taus = np.array([1.0 / 720.0, 1.0 / 705.0, 0.05, 0.2, 3.0])
    ts = np.array([0.0, 2.5, math.inf])[:, None]
    for f in (bose_occupation, d_occupation_dT, steady_sensor_qfi):
        batch = f(taus)
        assert batch.shape == taus.shape
        for j, tau in enumerate(taus):
            assert batch[j] == f(float(tau))
    for f in (excited_population, sensor_qfi):
        batch = f(taus, ts)
        assert batch.shape == (3, taus.size)
        for i, t in enumerate(ts.ravel()):
            for j, tau in enumerate(taus):
                assert batch[i, j] == f(float(tau), float(t))


def test_bose_occupation_frozen_values():
    assert bose_occupation(0.2) == pytest.approx(
        0.006783654906304231, rel=0, abs=1e-17)
    # high-temperature value, sensitive to cancellation in exp(1/tau) - 1
    assert bose_occupation(100.0) == pytest.approx(
        99.50083333194443, rel=1e-14)


def test_bose_occupation_underflows_to_zero():
    # exp(1/tau) overflows near tau = 1/709; the occupation must come back
    # as exactly 0 there, not raise
    assert bose_occupation(0.001) == 0.0
    assert bose_occupation(1.0 / 708.0) > 0.0
    assert excited_population(0.001, 5.0) == 0.0
    assert sensor_qfi(0.001, 5.0) == 0.0


def test_sensor_qfi_at_low_tau_and_tiny_t_against_mpmath():
    # (dp/dtau)^2 underflowed before the division by p (1 - p), which made
    # the QFI exactly 0 at every t below tau ~ 0.0029 (N ~ 1e-150) and at
    # gamma t below ~1e-162, where the values are 1e-279 to 1e-140 and
    # 3.35e-170
    points = [(tau, t) for tau in (0.0015, 0.002, 0.0025, 0.0029)
              for t in (1.0, 100.0, math.inf)] + [(0.5, 1e-170)]
    for tau, t in points:
        got = sensor_qfi(tau, t)
        assert got > 0.0
        assert got == pytest.approx(oracles.agreed_mp(oracles.sensor_qfi_mp, tau, t),
                                    rel=1e-13, abs=0), (tau, t)


def test_bose_occupation_against_direct_formula():
    for tau in (0.05, 0.1, 0.5, 1.0, 10.0):
        direct = 1.0 / (math.exp(1.0 / tau) - 1.0)
        assert bose_occupation(tau) == pytest.approx(direct, rel=1e-12)


def test_d_occupation_matches_finite_difference():
    rng = np.random.default_rng(21)
    for _ in range(25):
        tau = float(rng.uniform(0.05, 5.0))
        fd = oracles.fd_derivative(bose_occupation, tau, 1e-6 * tau)
        assert d_occupation_dT(tau) == pytest.approx(fd, rel=1e-6)


def test_d_occupation_cold_branch():
    # below the overflow threshold sinh(1/(2 tau)) overflows; the asymptotic
    # branch must stay finite, warning-free, and continuous across the switch
    with np.errstate(all="raise"):
        cold = d_occupation_dT(1.0 / 720.0)
    tau_switch = 1.0 / 700.0
    direct = math.exp(-700.0) / tau_switch ** 2
    assert d_occupation_dT(tau_switch * 0.999) == pytest.approx(
        direct, rel=1e-2)
    assert d_occupation_dT(tau_switch * 1.001) == pytest.approx(
        math.exp(-1.0 / (tau_switch * 1.001)) / (tau_switch * 1.001) ** 2,
        rel=1e-2)
    assert cold >= 0.0


def test_excited_population_frozen_ode_value():
    # reference from direct integration of the rate equation at tau=0.2, t=1
    assert excited_population(0.2, 1.0) == pytest.approx(
        0.0042638679984587455, rel=0, abs=1e-12)


def test_excited_population_endpoints():
    n = bose_occupation(0.2)
    assert excited_population(0.2, 0.0) == 0.0
    assert excited_population(0.2, math.inf) == pytest.approx(
        n / (2.0 * n + 1.0), rel=1e-15)
    with pytest.raises(ValueError):
        excited_population(0.2, -1.0)


def test_excited_population_against_ode_grid():
    rng = np.random.default_rng(22)
    for _ in range(6):
        tau = float(rng.uniform(0.1, 1.0))
        t = float(rng.uniform(0.1, 10.0))
        ode = oracles.thermal_qubit_ode(bose_occupation(tau), 1.0, t)
        assert excited_population(tau, t) == pytest.approx(ode, rel=0, abs=1e-10)


def test_excited_population_derivative_matches_fd():
    rng = np.random.default_rng(23)
    for _ in range(10):
        tau = float(rng.uniform(0.1, 1.0))
        t = float(rng.uniform(0.1, 20.0))
        fd = oracles.fd_derivative(
            lambda x: excited_population(x, t), tau, 1e-6 * tau)
        assert _dpe_dtau(tau, t) == pytest.approx(fd, rel=1e-5)
    fd_inf = oracles.fd_derivative(
        lambda x: excited_population(x, math.inf), 0.2, 2e-7)
    assert _dpe_dtau(0.2, math.inf) == pytest.approx(fd_inf, rel=1e-5)


def test_sensor_state_and_derivative():
    # the sensor marginal of the joint state (meter traced out) and its
    # tau-derivative are the bare relaxation diag(p_e, 1 - p_e)
    tau = 0.25
    rho, drho = (a.reshape(3, 2, 3, 2).trace(axis1=0, axis2=2) for a in
                 oracles.joint_state(tau, spin_x_spectrum(3, 2.0),
                                     equal_superposition(3), 2.0))
    assert rho.dtype == complex
    assert rho.shape == (2, 2)
    assert abs(np.trace(rho) - 1.0) < 1e-15
    assert rho[0, 1] == 0.0 and rho[1, 0] == 0.0
    assert rho[0, 0].real == pytest.approx(excited_population(tau, 2.0), rel=1e-15)
    assert abs(np.trace(drho)) < 1e-18
    assert drho[0, 0].real == pytest.approx(_dpe_dtau(tau, 2.0), rel=1e-15)


def test_sensor_qfi_frozen_and_endpoints():
    assert sensor_qfi(0.2, 1.0) == pytest.approx(
        2.6821581302422692, rel=1e-12)
    assert sensor_qfi(0.2, 0.0) == 0.0
    assert sensor_qfi(0.2, math.inf) == pytest.approx(
        steady_sensor_qfi(0.2), rel=1e-12)


def test_sensor_qfi_against_sld_reference():
    rng = np.random.default_rng(24)
    for _ in range(10):
        tau = float(rng.uniform(0.1, 1.0))
        t = float(rng.uniform(0.2, 30.0))
        pe, dp = excited_population(tau, t), _dpe_dtau(tau, t)
        ref = oracles.qfi_reference(np.diag([pe, 1.0 - pe]), np.diag([dp, -dp]))
        assert sensor_qfi(tau, t) == pytest.approx(ref, rel=1e-10)


def test_steady_sensor_qfi_frozen_value_and_tails():
    assert steady_sensor_qfi(0.2) == pytest.approx(
        4.155035419243846, rel=1e-14)
    assert steady_sensor_qfi(1e-4) == 0.0  # cosh overflow branch
    assert steady_sensor_qfi(1e6) < 1e-10



def test_overflowing_decay_exponent_is_the_steady_limit():
    # (2N+1) t = inf once made 2 t e^{-(2N+1) t} inf * 0: sensor_qfi came
    # back nan with a RuntimeWarning. At tau = 1, 2N+1 = 2.16 takes
    # t = 1e308 past the largest double
    steady = sensor_qfi(1.0, math.inf)
    assert steady == 0.19661193324148202
    assert sensor_qfi(1.0, 1e308) == steady
    n_bar = bose_occupation(np.array([0.5, 1.0, 1e300]))[:, None]
    for t in (1e308, 1e300, 1e10):
        late, limit = relaxation(n_bar, t), relaxation(n_bar, math.inf)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(late, limit))
    # a finite exponent, however large, keeps the closed form
    for n, t in ((n_bar[:1], 1e308), (n_bar[:1], 1e300), (n_bar[:1], 1e9), (n_bar, 3.0)):
        r = 2.0 * n + 1.0
        grown = -np.expm1(-r * t)
        want = (n / r * grown, grown / r / r + n / r * 2.0 * t * np.exp(-r * t))
        got = relaxation(n, t)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))
