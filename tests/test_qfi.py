import math

import numpy as np
import pytest

import oracles
from thermoq.bath import (SensorParams, bose_occupation, excited_population,
                          excited_population_derivative, sensor_qfi,
                          steady_sensor_qfi)
from thermoq.dynamics import MeterState, spin_x_spectrum
from thermoq.qfi import (SupportError, _jordan_qfi, effective_decay_rate,
                         joint_qfi_grid, meter_qfi_grid, qfi_general,
                         qfi_longtime)


def params(tau):
    return SensorParams(temperature=tau)


def sensor_state(tau, t):
    p = excited_population(SensorParams(temperature=tau), t)
    return np.diag([p, 1.0 - p]).astype(complex)


def test_qfi_qubit_matches_sld_reference():
    rng = np.random.default_rng(41)
    for _ in range(300):
        rho = oracles.random_density_matrix(rng, 2)
        drho = oracles.random_hermitian(rng, 2)
        drho = drho - np.trace(drho) / 2.0 * np.eye(2)  # traceless perturbation
        ref = oracles.qfi_reference(rho, drho)
        assert oracles.qfi_qubit(rho, drho) == pytest.approx(ref, rel=1e-8)


def test_qfi_qubit_near_pure_falls_back():
    eps = 1e-16
    rho = np.diag([1.0 - eps, eps]).astype(complex)
    drho = np.array([[0.0, 0.5], [0.5, 0.0]], dtype=complex)
    assert oracles.qfi_qubit(rho, drho) == pytest.approx(
        oracles.qfi_reference(rho, drho), rel=1e-6)


def test_qfi_general_diagonal_case():
    p, dp = 0.3, 0.07
    rho = np.diag([p, 1.0 - p]).astype(complex)
    drho = np.diag([dp, -dp]).astype(complex)
    expected = dp * dp / (p * (1.0 - p))
    assert qfi_general(rho, drho) == pytest.approx(expected, rel=1e-12)


def test_qfi_general_matches_reference_on_random_states():
    rng = np.random.default_rng(42)
    for dim in (3, 4, 6):
        for _ in range(20):
            rho = oracles.random_density_matrix(rng, dim)
            drho = oracles.random_hermitian(rng, dim)
            drho = drho - (np.trace(drho) / dim) * np.eye(dim)
            got = qfi_general(rho, drho)
            ref = oracles.qfi_reference(rho, drho)
            assert got == pytest.approx(ref, rel=1e-8)


def test_qfi_general_scale_invariance():
    rng = np.random.default_rng(43)
    rho = oracles.random_density_matrix(rng, 4)
    drho = oracles.random_hermitian(rng, 4)
    drho = drho - (np.trace(drho) / 4) * np.eye(4)
    base = qfi_general(rho, drho)
    assert qfi_general(rho, 3.0 * drho) == pytest.approx(9.0 * base, rel=1e-10)


def test_qfi_general_support_violation():
    rho = np.diag([1.0, 0.0]).astype(complex)
    drho = np.diag([0.0, 1.0]).astype(complex)  # moves weight outside support
    with pytest.raises(SupportError):
        qfi_general(rho, drho)


def test_qfi_general_rank_deficient_but_supported():
    # derivative confined to the support must work on a rank-deficient state
    rho = np.diag([0.6, 0.4, 0.0]).astype(complex)
    drho = np.zeros((3, 3), dtype=complex)
    drho[0, 0], drho[1, 1] = 0.1, -0.1
    drho[0, 1] = drho[1, 0] = 0.05
    got = qfi_general(rho, drho)
    assert got == pytest.approx(oracles.qfi_reference(rho, drho), rel=1e-10)


def test_state_derivative_matches_analytic():
    got = oracles.state_derivative(lambda tau: sensor_state(tau, 3.0), 0.2)
    dp = excited_population_derivative(params(0.2), 3.0)
    ref = np.diag([dp, -dp]).astype(complex)
    np.testing.assert_allclose(got, ref, rtol=1e-5)


def test_state_derivative_validates_step():
    fn = lambda tau: sensor_state(tau, 1.0)
    with pytest.raises(ValueError):
        oracles.state_derivative(fn, 0.2, step=0.0)
    with pytest.raises(ValueError):
        oracles.state_derivative(fn, 1e-9, step=1e-8)  # tau - h would go negative


def test_effective_decay_rate_frozen_value():
    # Gamma_N = N gamma (Omega^2 - N gamma^2) / (Omega^2 + gamma^2)
    assert effective_decay_rate(params(0.2), 2.0) == pytest.approx(
        0.00541772033026582, rel=1e-14)
    n = bose_occupation(params(0.2))
    direct = n * (4.0 - n) / 5.0
    assert effective_decay_rate(params(0.2), 2.0) == pytest.approx(direct,
                                                                   rel=1e-14)


def test_qfi_longtime_frozen_values():
    assert qfi_longtime(params(0.2), 2.0, 100.0) == pytest.approx(
        110.99876704749084, rel=1e-12)
    assert qfi_longtime(params(0.2), 2.0, 200.0) == pytest.approx(
        117.80734441404591, rel=1e-12)
    with pytest.raises(ValueError):
        qfi_longtime(params(0.2), 2.0, 0.0)


def test_qfi_longtime_positive_over_validity_range():
    for t in np.geomspace(50.0, 5000.0, 12):
        assert qfi_longtime(params(0.2), 2.0, float(t)) >= 0.0


def test_meter_qfi_methods_and_against_reference():
    # the qubit closed form (n = 2) and the eigenbasis formula (n = 3)
    for n, omega, t in ((2, 2.0, 5.0), (3, 1.0, 8.0)):
        meter = spin_x_spectrum(n, omega)
        psi0 = MeterState.equal_superposition(n)
        result = meter_qfi_grid(0.2, t, meter, psi0)

        # independent route: master-equation evolution, finite differences,
        # and the double-loop SLD sum
        h = 1e-6 * 0.2

        def reduced(tau):
            pp = SensorParams(temperature=tau)
            rho = oracles.evolve(
                oracles.initial_joint_state(psi0.coefficients),
                bose_occupation(pp), 1.0, meter.lambdas, t)
            return oracles.partial_trace_sensor(rho)

        drho = (reduced(0.2 + h) - reduced(0.2 - h)) / (2.0 * h)
        ref = oracles.qfi_reference(reduced(0.2), drho)
        assert result == pytest.approx(ref, rel=1e-5)


def test_meter_qfi_matches_finite_difference_reference():
    # the analytic derivative against a central difference of the package's
    # own meter state, at a temperature where the difference is accurate
    p = params(0.2)
    for n, psi0 in ((2, MeterState.equal_superposition(2)),
                    (4, MeterState(np.array([0.1, 0.5, 0.3, np.sqrt(0.65)])))):
        meter = spin_x_spectrum(n, 2.0)
        drho = oracles.state_derivative(
            lambda tau: oracles.meter_state(SensorParams(temperature=tau), meter,
                                            psi0, 5.0),
            0.2, step=1e-7)
        ref = oracles.qfi_reference(oracles.meter_state(p, meter, psi0, 5.0), drho)
        assert meter_qfi_grid(0.2, 5.0, meter, psi0) == pytest.approx(ref, rel=1e-5)


def test_joint_qfi_frozen_against_ode_oracle():
    meter = spin_x_spectrum(2, 2.0)
    psi0 = MeterState.equal_superposition(2)
    # frozen from the independent master-equation + SLD-sum pipeline
    assert joint_qfi_grid(0.2, 1.0, meter, psi0) == pytest.approx(
        2.862732820885268, rel=1e-7)


def test_joint_qfi_dominates_sensor_and_meter():
    # the joint state majorizes both marginals, so its QFI bounds each one
    p = params(0.2)
    meter = spin_x_spectrum(2, 2.0)
    psi0 = MeterState.equal_superposition(2)
    for t in (0.5, 2.0, 10.0, 30.0):
        full = joint_qfi_grid(0.2, t, meter, psi0)
        assert full >= sensor_qfi(p, t) - 1e-9 * full
        assert full >= meter_qfi_grid(0.2, t, meter, psi0) - 1e-9 * full


def test_meter_qfi_low_temperature_against_mpmath():
    # tau in [0.02, 0.12], where N ~ e^{-1/tau} falls below 1e-21 and a
    # finite difference in tau loses it inside 2N+1; peak times t ~ 1/Gamma_N
    # reach 1e7
    meter = spin_x_spectrum(2, 2.0)
    psi0 = MeterState.equal_superposition(2)
    for tau in np.geomspace(0.02, 0.12, 6):
        for t in np.geomspace(1.0, 1e7, 8):
            got = meter_qfi_grid(tau, t, meter, psi0)
            ref = oracles.meter_qfi_mp(tau, t, 2.0)
            assert abs(got - ref) <= 1e-8 * max(abs(ref), 1e-4), (tau, t, got, ref)


def test_meter_qfi_where_the_occupation_is_subnormal():
    # 1/tau = 720: exp(1/tau) overflows, but N ~ 2e-313 and dN/dtau do not
    # vanish yet; an occupation flushed to 0 made the state pure with a
    # derivative out of its support (SupportError)
    value = meter_qfi_grid(1.0 / 720.0, 1e300, spin_x_spectrum(2, 2.0),
                           MeterState.equal_superposition(2))
    assert value == pytest.approx(oracles.meter_qfi_mp(1.0 / 720.0, 1e300, 2.0),
                                  rel=1e-6)


def test_jordan_sld_solves_the_lyapunov_equation():
    rng = np.random.default_rng(5)
    for rank in (4, 2):
        rho = oracles.random_density_matrix(rng, 4, rank)
        drho = oracles.random_hermitian(rng, 4)
        if rank < 4:  # keep the derivative inside the support
            p, u = np.linalg.eigh(rho)
            keep = u[:, p > 1e-12]
            drho = keep @ keep.conj().T @ drho @ keep @ keep.conj().T
        q, sld = _jordan_qfi(rho[None, None], drho[None, None], sld=True)
        sld = sld[0, 0]
        np.testing.assert_allclose(rho @ sld + sld @ rho, 2.0 * drho, atol=1e-12)
        np.testing.assert_allclose(sld, sld.conj().T, atol=1e-12)
        assert q[0] == pytest.approx(np.trace(drho @ sld).real, rel=1e-12)
        assert q[0] == _jordan_qfi(rho[None, None], drho[None, None])[0]


def test_meter_qfi_grid_matches_pointwise():
    taus = np.array([0.03, 0.12, 0.25, 0.8])
    ts = np.array([0.0, 0.4, 20.0, 3e4, math.inf])[:, None]
    for n, c in ((2, [0.6, 0.8]), (4, [0.1, 0.5, 0.3, np.sqrt(0.65)])):
        meter = spin_x_spectrum(n, 1.5)
        psi0 = MeterState(np.array(c))
        grid = meter_qfi_grid(taus, ts, meter, psi0, gamma=0.7)
        joint = joint_qfi_grid(taus, ts, meter, psi0, gamma=0.7)
        assert grid.shape == joint.shape == (5, 4)
        for i, t in enumerate(ts.ravel()):
            for j, tau in enumerate(taus):
                assert grid[i, j] == pytest.approx(
                    meter_qfi_grid(tau, t, meter, psi0, 0.7), rel=1e-12, abs=1e-300)
                assert joint[i, j] == pytest.approx(
                    joint_qfi_grid(tau, t, meter, psi0, 0.7), rel=1e-12, abs=1e-300)
        # one preparation per grid point
        per_point = np.broadcast_to(psi0.coefficients, (5, 4, n))
        np.testing.assert_array_equal(
            meter_qfi_grid(taus, ts, meter, per_point, gamma=0.7), grid)
    with pytest.raises(ValueError):
        meter_qfi_grid(taus, -1.0, meter, psi0)
    with pytest.raises(ValueError):
        meter_qfi_grid(taus, 1.0, spin_x_spectrum(3, 1.5), psi0)


def test_joint_qfi_sector_sum_matches_dense():
    # temperatures where the joint state's smallest eigenvalues sit far above
    # double roundoff: below tau ~ 0.05 they reach 1e-12..1e-18 and any double
    # eigensolve, dense or per sector, fixes them only to ~1e-17 absolute
    rng = np.random.default_rng(7)
    for n in (2, 5, 9):
        meter = spin_x_spectrum(n, 2.0)
        c = rng.random(n) + 0.05
        psi0 = MeterState(c / np.linalg.norm(c))
        for tau in (0.15, 0.3, 0.9):
            for t in (0.3, 5.0, 200.0):
                dense = qfi_general(*oracles.joint_state(params(tau), meter, psi0, t))
                assert joint_qfi_grid(tau, t, meter, psi0) == pytest.approx(
                    dense, rel=1e-12)
    # at t = inf the joint state keeps only the sensor populations
    assert joint_qfi_grid(0.3, math.inf, meter, psi0) == pytest.approx(
        steady_sensor_qfi(params(0.3)), rel=1e-12)


def test_sector_sum_cutoff_and_support_follow_the_whole_state():
    rng = np.random.default_rng(8)
    big = oracles.random_density_matrix(rng, 3)
    tiny = 1e-14 * oracles.random_density_matrix(rng, 3)  # below the joint cutoff only
    d_big = oracles.random_hermitian(rng, 3)
    d_tiny = 1e-14 * oracles.random_hermitian(rng, 3)
    dense = qfi_general(np.block([[big, np.zeros((3, 3))], [np.zeros((3, 3)), tiny]]),
                        np.block([[d_big, np.zeros((3, 3))], [np.zeros((3, 3)), d_tiny]]))
    sectors = _jordan_qfi(np.stack([big, tiny]), np.stack([d_big, d_tiny]))
    assert float(sectors) == pytest.approx(dense, rel=1e-12)
    assert dense == pytest.approx(qfi_general(big, d_big), rel=1e-12)
    # a derivative on a sector with no support is out of support for both
    zero = np.zeros((3, 3))
    with pytest.raises(SupportError):
        qfi_general(np.block([[big, zero], [zero, zero]]),
                    np.block([[d_big, zero], [zero, np.eye(3)]]))
    with pytest.raises(SupportError):
        _jordan_qfi(np.stack([big, zero]), np.stack([d_big, np.eye(3)]))
