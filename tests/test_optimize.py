import math

import numpy as np
import pytest

import oracles
from thermoq.bath import SensorParams, steady_sensor_qfi
from thermoq.dynamics import MeterSpec, MeterState, spin_x_spectrum
from thermoq.optimize import (BoundaryMaximumWarning, NoCrossingError,
                              SweepGrid, bures_distance_pure, crossing_time,
                              dimension_scaling, find_t_max,
                              optimize_initial_state)
from thermoq.qfi import meter_qfi_grid


def params(tau):
    return SensorParams(temperature=tau)


def test_sweep_grid_validation():
    grid = SweepGrid(taus=(0.1, 0.2), times=(1.0, math.inf), omegas=(0.0, 2.0),
                     ns=(2, 5))
    assert grid.taus == (0.1, 0.2)
    with pytest.raises(ValueError):
        SweepGrid(taus=(0.2, 0.1))  # not increasing
    with pytest.raises(ValueError):
        SweepGrid(taus=(0.0, 0.1))  # tau must be positive
    with pytest.raises(ValueError):
        SweepGrid(times=(-1.0, 2.0))
    with pytest.raises(ValueError):
        SweepGrid(omegas=(-0.5, 1.0))  # couplings are nonnegative
    with pytest.raises(ValueError):
        SweepGrid(omegas=(0.5, math.inf))
    with pytest.raises(ValueError):
        SweepGrid(ns=(1, 2))  # meter needs at least two levels


def test_bures_distance_frozen_and_properties():
    a = np.array([1.0, 0.0])
    b = np.array([1.0, 1.0]) / math.sqrt(2.0)
    assert bures_distance_pure(a, b) == pytest.approx(0.5857864376269051,
                                                      rel=1e-14)
    assert bures_distance_pure(a, a) == 0.0
    assert bures_distance_pure(a, b) == bures_distance_pure(b, a)
    state = MeterState.equal_superposition(2)
    assert bures_distance_pure(state, b) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        bures_distance_pure(np.array([1.0, 1.0]), b)  # not normalized
    with pytest.raises(ValueError):
        bures_distance_pure(np.array([1.0, 0.0, 0.0]), b)  # dimension mismatch


def test_optimize_two_level_recovers_equal_superposition():
    # for n = 2 the equal superposition is exactly optimal at every (tau, t)
    p = params(0.2)
    meter = spin_x_spectrum(2, 2.0)
    state, report = optimize_initial_state(p, meter, 10.0, tol=1e-7)
    np.testing.assert_allclose(state.coefficients,
                               [1.0 / math.sqrt(2.0)] * 2, atol=1e-4)
    equal_value = meter_qfi_grid(0.2, 10.0, meter, MeterState.equal_superposition(2))
    assert report.value >= equal_value - 1e-6 * equal_value
    assert report.converged
    assert report.iterations > 0
    np.testing.assert_allclose(report.argmax, state.coefficients, atol=1e-15)


def test_optimize_is_deterministic_for_fixed_seed():
    p = params(0.3)
    meter = spin_x_spectrum(3, 1.0)
    first = optimize_initial_state(p, meter, 5.0, seed=7)
    second = optimize_initial_state(p, meter, 5.0, seed=7)
    np.testing.assert_array_equal(first[0].coefficients, second[0].coefficients)
    assert first[1] == second[1]


def test_optimize_beats_every_neighbor():
    p = params(0.2)
    meter = spin_x_spectrum(3, 2.0)
    state, report = optimize_initial_state(p, meter, 10.0, tol=1e-7, n_starts=4)
    c = state.coefficients
    rng = np.random.default_rng(61)
    for _ in range(12):
        delta = rng.standard_normal(3) * 1e-3
        trial = np.abs(c + delta)
        trial = trial / np.linalg.norm(trial)
        trial_value = meter_qfi_grid(0.2, 10.0, meter, MeterState(trial))
        assert trial_value <= report.value + 1e-7 * report.value


def test_optimize_profile_is_symmetric():
    # the spin-x ladder is symmetric under level reversal, and so is the optimum
    state, _ = optimize_initial_state(params(0.2), spin_x_spectrum(3, 2.0),
                                      10.0, tol=1e-7)
    np.testing.assert_allclose(state.coefficients,
                               state.coefficients[::-1], atol=1e-3)


def test_optimize_validates_arguments():
    meter = spin_x_spectrum(2, 1.0)
    with pytest.raises(ValueError):
        optimize_initial_state(params(0.2), meter, 1.0, tol=0.0)
    with pytest.raises(ValueError):
        optimize_initial_state(params(0.2), meter, 1.0, n_starts=0)


# the last point has Q ~ 1e-265, whose squared gradient underflows
@pytest.mark.parametrize("n, tau, t", [(4, 0.2, 1.0), (4, 0.2, 20.0), (3, 0.2, 10.0),
                                       (4, 1.0, 1000.0)])
def test_optimize_matches_nelder_mead_reference(n, tau, t):
    meter = spin_x_spectrum(n, 2.0)
    state, report = optimize_initial_state(params(tau), meter, t)
    _, reference, _ = oracles.nelder_mead_initial_state(params(tau), meter, t)
    assert report.value >= reference - 1e-9 * report.value
    assert report.value == pytest.approx(reference, rel=1e-6)
    assert report.converged and report.residual <= 1e-6


def test_optimize_report_value_and_residual():
    # down to tau = 0.05, where roundoff in the near-pure meter state can keep
    # the residual above tol; the report must say so either way
    for n, tau, t in ((2, 0.3, 2.0), (3, 0.2, 1.0), (6, 0.05, 1.0), (5, 0.5, 300.0),
                      (6, 0.1, 30.0)):
        p, meter = params(tau), spin_x_spectrum(n, 2.0)
        state, report = optimize_initial_state(p, meter, t, tol=1e-5)
        assert report.value == pytest.approx(meter_qfi_grid(tau, t, meter, state),
                                             rel=1e-12)
        assert report.converged == (report.residual <= 1e-5)
        assert report.value >= meter_qfi_grid(
            tau, t, meter, MeterState.equal_superposition(n)) * (1 - 1e-9)


def test_optimize_without_temperature_information():
    # t = 0, t = inf and a gapless meter: the QFI vanishes for every state,
    # and the equal superposition comes back as converged
    cases = ((spin_x_spectrum(4, 2.0), 0.0), (spin_x_spectrum(4, 2.0), math.inf),
             (MeterSpec(n=3, lambdas=(0.5, 0.5, 0.5)), 10.0))
    for meter, t in cases:
        state, report = optimize_initial_state(params(0.2), meter, t)
        np.testing.assert_array_equal(
            state.coefficients, MeterState.equal_superposition(meter.n).coefficients)
        assert report.value == 0.0
        assert report.converged and report.residual == 0.0
        assert report.iterations == 0
    with pytest.raises(ValueError):
        optimize_initial_state(params(0.2), spin_x_spectrum(2, 1.0), -1.0)


def test_find_t_max_frozen_values():
    meter = spin_x_spectrum(2, 2.0)
    psi0 = MeterState.equal_superposition(2)
    tau, q = find_t_max(meter, psi0, 100.0)
    assert abs(tau - 0.18177709151624774) < 1e-3
    assert q == pytest.approx(119.74138467601784, rel=1e-5)
    tau20, q20 = find_t_max(meter, psi0, 20.0)
    assert abs(tau20 - 0.22469196293487026) < 1e-3
    assert q20 == pytest.approx(33.085229431406006, rel=1e-5)


def test_find_t_max_sensor_only_paths():
    # no meter at all, and a meter with a flat spectrum, both reduce to the
    # bare steady sensor whose optimum is tau* = 0.2421
    tau_none, q_none = find_t_max(None, None, math.inf)
    assert abs(tau_none - 0.2420911156630688) < 1e-3
    assert q_none == pytest.approx(4.532165450546346, rel=1e-5)
    flat = MeterSpec(n=2, lambdas=(0.0, 0.0))
    tau_flat, q_flat = find_t_max(flat, MeterState.equal_superposition(2),
                                  math.inf)
    assert tau_flat == pytest.approx(tau_none, abs=1e-6)
    assert q_flat == pytest.approx(q_none, rel=1e-8)
    assert q_none == pytest.approx(steady_sensor_qfi(params(tau_none)), rel=1e-6)


def test_find_t_max_boundary_warning():
    meter = spin_x_spectrum(2, 2.0)
    psi0 = MeterState.equal_superposition(2)
    with pytest.warns(BoundaryMaximumWarning):
        tau, _ = find_t_max(meter, psi0, 100.0, tau_range=(0.3, 1.0))
    assert tau == pytest.approx(0.3, abs=1e-12)


def test_find_t_max_validates_range():
    meter = spin_x_spectrum(2, 2.0)
    psi0 = MeterState.equal_superposition(2)
    with pytest.raises(ValueError):
        find_t_max(meter, psi0, 10.0, tau_range=(0.5, 0.1))
    with pytest.raises(ValueError):
        find_t_max(meter, psi0, 10.0, tau_range=(0.0, 0.5))


def test_dimension_scaling_frozen_values():
    table = dimension_scaling(2.0, 10.0, 6)
    ns = [row[0] for row in table]
    assert ns == [2, 3, 4, 5, 6]
    values = {n: q for n, q, _ in table}
    assert values[2] == pytest.approx(17.466254089861437, rel=1e-5)
    assert values[6] == pytest.approx(33.76350689081974, rel=1e-5)
    qs = [q for _, q, _ in table]
    assert all(b > a for a, b in zip(qs, qs[1:]))
    rs = [r for _, _, r in table]
    assert all(b < a for a, b in zip(rs, rs[1:]))  # diminishing returns
    # r is the relative gain of the next level: q(n+1)/q(n) - 1
    assert rs[0] == pytest.approx(values[3] / values[2] - 1.0, rel=1e-4)


def test_crossing_time_frozen_value():
    t_star = crossing_time(params(0.2), 2.0)
    assert abs(t_star - 2.6575538843199107) < 1e-4


def test_crossing_time_error_cases():
    with pytest.raises(NoCrossingError):
        crossing_time(params(0.2), 2.0, t_window=(0.05, 0.5))  # too early
    with pytest.raises(NoCrossingError):
        crossing_time(params(0.2), 2.0, t_window=(5.0, 50.0))  # starts past it
    with pytest.raises(ValueError):
        crossing_time(params(0.2), 2.0, t_window=(1.0, math.inf))
    with pytest.raises(NoCrossingError):
        # a decoupled meter never overtakes the sensor
        crossing_time(params(0.2), 0.0)
