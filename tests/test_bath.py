import math

import numpy as np
import pytest

import oracles
from thermoq.bath import (SensorParams, bose_occupation, d_occupation_dT,
                          excited_population, excited_population_derivative,
                          sensor_qfi, steady_sensor_qfi, thermal_rates)
from thermoq.dynamics import MeterState, spin_x_spectrum


def params(tau, gamma=1.0):
    return SensorParams(temperature=tau, gamma=gamma)


def test_params_validation():
    with pytest.raises(ValueError):
        SensorParams(temperature=0.0)
    with pytest.raises(ValueError):
        SensorParams(temperature=-0.1)
    with pytest.raises(ValueError):
        SensorParams(temperature=0.2, gamma=0.0)
    with pytest.raises(ValueError):
        SensorParams(temperature=math.inf)


def test_bose_occupation_frozen_values():
    assert bose_occupation(params(0.2)) == pytest.approx(
        0.006783654906304231, rel=0, abs=1e-17)
    # high-temperature value, sensitive to cancellation in exp(1/tau) - 1
    assert bose_occupation(params(100.0)) == pytest.approx(
        99.50083333194443, rel=1e-14)


def test_bose_occupation_underflows_to_zero():
    # exp(1/tau) overflows near tau = 1/709; the occupation must come back
    # as exactly 0 there, not raise
    assert bose_occupation(params(0.001)) == 0.0
    assert bose_occupation(params(1.0 / 708.0)) > 0.0
    assert excited_population(params(0.001), 5.0) == 0.0
    assert sensor_qfi(params(0.001), 5.0) == 0.0


def test_bose_occupation_against_direct_formula():
    for tau in (0.05, 0.1, 0.5, 1.0, 10.0):
        direct = 1.0 / (math.exp(1.0 / tau) - 1.0)
        assert bose_occupation(params(tau)) == pytest.approx(direct, rel=1e-12)


def test_d_occupation_matches_finite_difference():
    rng = np.random.default_rng(21)
    for _ in range(25):
        tau = float(rng.uniform(0.05, 5.0))
        fd = oracles.fd_derivative(lambda x: bose_occupation(params(x)),
                                   tau, 1e-6 * tau)
        assert d_occupation_dT(params(tau)) == pytest.approx(fd, rel=1e-6)


def test_d_occupation_cold_branch():
    # below the overflow threshold sinh(1/(2 tau)) overflows; the asymptotic
    # branch must stay finite, warning-free, and continuous across the switch
    with np.errstate(all="raise"):
        cold = d_occupation_dT(params(1.0 / 720.0))
    tau_switch = 1.0 / 700.0
    direct = math.exp(-700.0) / tau_switch ** 2
    assert d_occupation_dT(params(tau_switch * 0.999)) == pytest.approx(
        direct, rel=1e-2)
    assert d_occupation_dT(params(tau_switch * 1.001)) == pytest.approx(
        math.exp(-1.0 / (tau_switch * 1.001)) / (tau_switch * 1.001) ** 2,
        rel=1e-2)
    assert cold >= 0.0


def test_thermal_rates():
    p = params(0.3, gamma=2.0)
    n = bose_occupation(p)
    rates = thermal_rates(p)
    assert rates.n_bar == n
    assert rates.gamma_minus == pytest.approx((n + 1.0) * 2.0, rel=1e-15)
    assert rates.gamma_plus == pytest.approx(n * 2.0, rel=1e-15)


def test_excited_population_frozen_ode_value():
    # reference from direct integration of the rate equation at tau=0.2, t=1
    assert excited_population(params(0.2), 1.0) == pytest.approx(
        0.0042638679984587455, rel=0, abs=1e-12)


def test_excited_population_endpoints():
    p = params(0.2)
    n = bose_occupation(p)
    assert excited_population(p, 0.0) == 0.0
    assert excited_population(p, math.inf) == pytest.approx(
        n / (2.0 * n + 1.0), rel=1e-15)
    with pytest.raises(ValueError):
        excited_population(p, -1.0)


def test_excited_population_against_ode_grid():
    rng = np.random.default_rng(22)
    for _ in range(6):
        tau = float(rng.uniform(0.1, 1.0))
        t = float(rng.uniform(0.1, 10.0))
        p = params(tau)
        ode = oracles.thermal_qubit_ode(bose_occupation(p), 1.0, t)
        assert excited_population(p, t) == pytest.approx(ode, rel=0, abs=1e-10)


def test_excited_population_derivative_matches_fd():
    rng = np.random.default_rng(23)
    for _ in range(10):
        tau = float(rng.uniform(0.1, 1.0))
        t = float(rng.uniform(0.1, 20.0))
        fd = oracles.fd_derivative(
            lambda x: excited_population(params(x), t), tau, 1e-6 * tau)
        assert excited_population_derivative(params(tau), t) == pytest.approx(
            fd, rel=1e-5)
    fd_inf = oracles.fd_derivative(
        lambda x: excited_population(params(x), math.inf), 0.2, 2e-7)
    assert excited_population_derivative(params(0.2), math.inf) == pytest.approx(
        fd_inf, rel=1e-5)


def test_sensor_state_and_derivative():
    # the sensor marginal of the joint state (meter traced out) and its
    # tau-derivative are the bare relaxation diag(p_e, 1 - p_e)
    p = params(0.25)
    rho, drho = (a.reshape(3, 2, 3, 2).trace(axis1=0, axis2=2) for a in
                 oracles.joint_state(p, spin_x_spectrum(3, 2.0),
                                     MeterState.equal_superposition(3), 2.0))
    assert rho.dtype == complex
    assert rho.shape == (2, 2)
    assert abs(np.trace(rho) - 1.0) < 1e-15
    assert rho[0, 1] == 0.0 and rho[1, 0] == 0.0
    assert rho[0, 0].real == pytest.approx(excited_population(p, 2.0), rel=1e-15)
    assert abs(np.trace(drho)) < 1e-18
    assert drho[0, 0].real == pytest.approx(
        excited_population_derivative(p, 2.0), rel=1e-15)


def test_sensor_qfi_frozen_and_endpoints():
    assert sensor_qfi(params(0.2), 1.0) == pytest.approx(
        2.6821581302422692, rel=1e-12)
    assert sensor_qfi(params(0.2), 0.0) == 0.0
    assert sensor_qfi(params(0.2), math.inf) == pytest.approx(
        steady_sensor_qfi(params(0.2)), rel=1e-12)


def test_sensor_qfi_against_sld_reference():
    rng = np.random.default_rng(24)
    for _ in range(10):
        tau = float(rng.uniform(0.1, 1.0))
        t = float(rng.uniform(0.2, 30.0))
        p = params(tau)
        pe, dp = excited_population(p, t), excited_population_derivative(p, t)
        ref = oracles.qfi_reference(np.diag([pe, 1.0 - pe]), np.diag([dp, -dp]))
        assert sensor_qfi(p, t) == pytest.approx(ref, rel=1e-10)


def test_steady_sensor_qfi_frozen_value_and_tails():
    assert steady_sensor_qfi(params(0.2)) == pytest.approx(
        4.155035419243846, rel=1e-14)
    assert steady_sensor_qfi(params(1e-4)) == 0.0  # cosh overflow branch
    assert steady_sensor_qfi(params(1e6)) < 1e-10

