import math

import numpy as np
import pytest

import oracles
from thermoq.bath import (SensorParams, bose_occupation, d_occupation_dT,
                          excited_population, excited_population_derivative)
from thermoq.dynamics import (MeterSpec, MeterState, alpha, meter_blocks,
                              sector_blocks, spin_x_spectrum)


def params(tau, gamma=1.0):
    return SensorParams(temperature=tau, gamma=gamma)


def test_meter_spec_validation():
    with pytest.raises(ValueError):
        MeterSpec(n=1, lambdas=(0.0,))
    with pytest.raises(ValueError):
        MeterSpec(n=2, lambdas=(1.0, -1.0))  # must be ascending
    with pytest.raises(ValueError):
        MeterSpec(n=2, lambdas=(0.0, math.inf))
    with pytest.raises(ValueError):
        MeterSpec(n=3, lambdas=(0.0, 1.0))  # length mismatch
    spec = MeterSpec(n=2, lambdas=(-1.0, 1.0))
    np.testing.assert_array_equal(spec.lambdas, [-1.0, 1.0])
    # ties are allowed: a flat spectrum is the decoupled meter
    MeterSpec(n=2, lambdas=(0.0, 0.0))


def test_meter_state_validation_and_factories():
    state = MeterState.equal_superposition(3)
    np.testing.assert_allclose(state.coefficients, np.full(3, 1.0 / math.sqrt(3)),
                               rtol=1e-15)
    basis = MeterState.eigenstate(4, 2)
    np.testing.assert_array_equal(basis.coefficients, [0.0, 0.0, 1.0, 0.0])
    with pytest.raises(ValueError):
        MeterState(np.array([0.8, -0.6]))  # negative amplitude
    with pytest.raises(ValueError):
        MeterState(np.array([0.5, 0.5]))  # not normalized
    with pytest.raises(ValueError):
        MeterState.eigenstate(3, 3)


def test_spin_x_spectrum_levels():
    spec = spin_x_spectrum(2, 2.0)
    np.testing.assert_array_equal(spec.lambdas, [-1.0, 1.0])
    spec5 = spin_x_spectrum(5, 1.0)
    diffs = np.diff(spec5.lambdas)
    np.testing.assert_allclose(diffs, np.ones(4), rtol=1e-15)
    assert sum(spec5.lambdas) == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(ValueError):
        spin_x_spectrum(1, 1.0)
    with pytest.raises(ValueError):
        spin_x_spectrum(3, -0.5)


def test_alpha_principal_branch_and_square():
    for n_bar, omega in ((0.01, 0.5), (0.2, 2.0), (1.5, 0.3), (0.0, 2.0)):
        a = alpha(n_bar, omega)
        assert a.real >= 0.0
        target = ((2.0 * n_bar + 1.0)) ** 2 - omega ** 2 + 2j * omega
        assert a * a == pytest.approx(target, rel=1e-12)


def blocks(p, gap, t):
    return sector_blocks(bose_occupation(p), d_occupation_dT(p), p.gamma, gap, t)


def test_coherence_block_initial_condition():
    b = blocks(params(0.2), 2.0, 0.0)
    np.testing.assert_allclose((b.x, b.y), (0.0, 1.0), atol=1e-15)
    assert b.x + b.y == pytest.approx(1.0, abs=1e-15)


def test_coherence_block_zero_detuning_is_population_dynamics():
    # with equal level shifts the block obeys the bare relaxation equation,
    # so x tracks p_e and the trace stays exactly 1
    p = params(0.3)
    for t in (0.1, 1.0, 7.0):
        b = blocks(p, 0.0, t)
        assert b.x.real == pytest.approx(excited_population(p, t), rel=1e-12)
        assert abs(b.x.imag) < 1e-15
        assert b.x + b.y == pytest.approx(1.0, rel=1e-14)


def test_coherence_block_long_time_limits():
    b = blocks(params(0.2), 2.0, math.inf)
    np.testing.assert_allclose((b.x, b.y), (0.0, 0.0), atol=1e-15)
    cold = SensorParams(temperature=0.001)  # N underflows to exactly 0
    b_cold = blocks(cold, 2.0, math.inf)
    np.testing.assert_allclose((b_cold.x, b_cold.y), (0.0, 1.0), atol=1e-12)


def test_zero_temperature_coherence_is_exactly_preserved():
    cold = SensorParams(temperature=0.001)  # exp(1/tau) overflows, N == 0
    assert bose_occupation(cold) == 0.0
    for t in np.geomspace(0.01, 100.0, 25):
        b = blocks(cold, 2.0, float(t))
        assert abs(b.x + b.y) == pytest.approx(1.0, abs=1e-12)


def test_joint_state_properties():
    p = params(0.2)
    meter = spin_x_spectrum(3, 2.0)
    psi0 = MeterState.equal_superposition(3)
    rho, _ = oracles.joint_state(p, meter, psi0, 5.0)
    assert rho.shape == (6, 6)
    np.testing.assert_array_equal(rho, rho.conj().T)  # exact by construction
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.eigvalsh(rho).min() > -1e-10


def test_joint_state_matches_master_equation():
    rng = np.random.default_rng(31)
    cases = [(2, 0.2, 2.0, 1.0), (3, 0.15, 0.5, 4.0), (4, 0.3, 4.0, 0.5)]
    for n, tau, omega, t in cases:
        p = params(tau)
        meter = spin_x_spectrum(n, omega)
        c = rng.random(n) + 0.1
        c = c / np.linalg.norm(c)
        psi0 = MeterState(c)
        ref = oracles.evolve(oracles.initial_joint_state(c),
                             bose_occupation(p), 1.0, meter.lambdas, t)
        got, _ = oracles.joint_state(p, meter, psi0, t)
        assert np.max(np.abs(got - ref)) < 1e-9


def test_joint_state_initial_condition():
    meter = spin_x_spectrum(2, 2.0)
    psi0 = MeterState.equal_superposition(2)
    rho0, _ = oracles.joint_state(params(0.2), meter, psi0, 0.0)
    np.testing.assert_allclose(rho0, oracles.initial_joint_state(psi0.coefficients),
                               atol=1e-15)


def test_meter_state_is_partial_trace_of_joint():
    p = params(0.25)
    meter = spin_x_spectrum(3, 1.5)
    psi0 = MeterState(np.array([0.2, 0.5, np.sqrt(1 - 0.04 - 0.25)]))
    for t in (0.5, 3.0, 40.0):
        joint, _ = oracles.joint_state(p, meter, psi0, t)
        reduced = oracles.meter_state(p, meter, psi0, t)
        np.testing.assert_allclose(reduced, oracles.partial_trace_sensor(joint),
                                   atol=1e-13)


def test_meter_state_populations_never_move():
    p = params(0.2)
    meter = spin_x_spectrum(4, 2.0)
    c = np.array([0.1, 0.3, 0.5, np.sqrt(1 - 0.01 - 0.09 - 0.25)])
    psi0 = MeterState(c)
    for t in (0.0, 2.0, 100.0, math.inf):
        reduced = oracles.meter_state(p, meter, psi0, t)
        np.testing.assert_array_equal(np.diag(reduced).real, c * c)


def test_lindblad_rhs_matches_time_derivative():
    p = params(0.2)
    meter = spin_x_spectrum(3, 2.0)
    psi0 = MeterState.equal_superposition(3)
    t, h = 2.0, 1e-6
    fd = (oracles.joint_state(p, meter, psi0, t + h)[0]
          - oracles.joint_state(p, meter, psi0, t - h)[0]) / (2.0 * h)
    # the free sensor term only rotates sensor coherences, which stay zero
    for splitting in (None, 1.0):
        rhs = oracles.master_rhs(oracles.joint_state(p, meter, psi0, t)[0],
                                 bose_occupation(p), 1.0, meter.lambdas,
                                 sensor_splitting=splitting)
        assert np.max(np.abs(fd - rhs)) < 1e-8
        assert abs(np.trace(rhs)) < 1e-14



def test_sector_blocks_against_mpmath():
    # values and analytic tau-derivatives down to tau = 0.02, where N ~ 2e-22
    # would vanish inside 2N+1, against the 60-digit matrix exponential
    for tau in (0.02, 0.05, 0.2, 1.0):
        p = params(tau)
        for gap in (-2.0, 0.3, 1.5):
            for t in (0.5, 30.0, 1e5):
                got = sector_blocks(bose_occupation(p), d_occupation_dT(p), 1.0,
                                    gap, t)
                ref = oracles.sector_block_mp(tau, t, gap)
                for value, expected in zip(got, ref):
                    assert abs(value - expected) <= 1e-9 * max(abs(expected), 1e-30)


def test_sector_blocks_zero_gap_and_late_limits():
    p = params(0.3)
    n_bar, dn = bose_occupation(p), d_occupation_dT(p)
    for t in (0.0, 0.7, 12.0, math.inf):
        b = sector_blocks(n_bar, dn, 1.0, 0.0, t)
        assert b.x + b.y == 1.0 and b.delta == 0.0
        assert b.x.real == pytest.approx(excited_population(p, t), rel=1e-14)
        assert b.dx.real == pytest.approx(excited_population_derivative(p, t),
                                          rel=1e-12)
        assert b.dx + b.dy == 0.0
    late = sector_blocks(n_bar, dn, 1.0, 2.0, math.inf)
    assert (late.x, late.y, late.dx, late.dy, late.delta) == (0, 0, 0, 0, -1)
    frozen = sector_blocks(0.0, 0.0, 1.0, 2.0, math.inf)
    assert (frozen.x, frozen.y, frozen.delta) == (0, 1, 0)


def test_sector_blocks_broadcast_matches_scalar_calls():
    taus = np.array([0.03, 0.2, 0.7])
    n_bar = np.array([bose_occupation(params(x)) for x in taus])
    dn = np.array([d_occupation_dT(params(x)) for x in taus])
    gaps = np.array([0.0, -1.0, 2.5])[:, None, None]
    ts = np.array([0.0, 3.0, math.inf])[:, None]
    batch = sector_blocks(n_bar, dn, 0.7, gaps, ts)
    assert batch.x.shape == (3, 3, 3)
    for i, gap in enumerate(gaps.ravel()):
        for j, t in enumerate(ts.ravel()):
            for k in range(taus.size):
                one = sector_blocks(n_bar[k], dn[k], 0.7, gap, t)
                for a, b in zip(batch, one):
                    assert a[i, j, k] == pytest.approx(complex(b), rel=1e-13, abs=1e-300)


def test_meter_blocks_hermitian_and_distinct_gaps():
    meter = MeterSpec(n=4, lambdas=(-1.0, 0.0, 0.0, 2.5))  # one repeated level
    p = params(0.15)
    ts = np.array([0.5, 40.0])
    b = meter_blocks(bose_occupation(p), d_occupation_dT(p), 1.0, meter, ts)
    for v in b:
        assert v.shape == (2, 4, 4)
        np.testing.assert_array_equal(v, v.conj().swapaxes(-1, -2))
    np.testing.assert_array_equal(np.diagonal(b.x + b.y, axis1=1, axis2=2), 1.0)
    for m in range(4):
        for mp in range(4):
            one = sector_blocks(bose_occupation(p), d_occupation_dT(p), 1.0,
                                meter.lambdas[m] - meter.lambdas[mp], 40.0)
            assert b.x[1, m, mp] == pytest.approx(complex(one.x), rel=1e-14)
            assert b.dy[1, m, mp] == pytest.approx(complex(one.dy), rel=1e-14)
