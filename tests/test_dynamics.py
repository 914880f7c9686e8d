import math

import numpy as np
import pytest

import oracles
from thermoq.bath import (bose_occupation, d_occupation_dT, excited_population,
                          relaxation)
from thermoq.dynamics import (block_roots, equal_superposition, gap_matrix, real_map,
                              real_matrix, sector_blocks, spin_x_spectrum)


def test_equal_superposition():
    np.testing.assert_array_equal(equal_superposition(3), np.full(3, 1.0 / math.sqrt(3)))


def test_spin_x_spectrum_levels():
    np.testing.assert_array_equal(spin_x_spectrum(2, 2.0), [-1.0, 1.0])
    spec5 = spin_x_spectrum(5, 1.0)
    diffs = np.diff(spec5)
    np.testing.assert_allclose(diffs, np.ones(4), rtol=1e-15)
    assert sum(spec5) == pytest.approx(0.0, abs=1e-15)
    # Omega = 0 is the decoupled meter: every level ties
    np.testing.assert_array_equal(spin_x_spectrum(3, 0.0), [0.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        spin_x_spectrum(1, 1.0)  # a meter needs at least two levels
    with pytest.raises(ValueError):
        spin_x_spectrum(3, -0.5)  # the levels would descend
    with pytest.raises(ValueError):
        spin_x_spectrum(2, math.inf)


def test_alpha_principal_branch_and_square():
    # and the roots: trace -(2N+1) - i Omega, determinant i N Omega, and
    # alpha = s+ - s-
    for n_bar, omega in ((0.01, 0.5), (0.2, 2.0), (1.5, 0.3), (0.0, 2.0)):
        a, s_minus, s_plus = block_roots(n_bar, omega)
        assert a.real >= 0.0
        target = ((2.0 * n_bar + 1.0)) ** 2 - omega ** 2 + 2j * omega
        assert a * a == pytest.approx(target, rel=1e-12)
        assert s_plus + s_minus == pytest.approx(-(2.0 * n_bar + 1.0) - 1j * omega,
                                                 rel=1e-14)
        assert s_plus * s_minus == pytest.approx(1j * n_bar * omega, rel=1e-14,
                                                 abs=1e-300)
        assert s_plus - s_minus == pytest.approx(a, rel=1e-14)
        assert s_plus.real <= 0.0


def test_slow_root_keeps_the_block_a_contraction():
    # the coherence C of a block is a contraction, |C| <= 1; the slow root
    # s+ = q - N lost about eps N of Re s+ to cancellation, and at 6 % of
    # these points its Re s+ > 0 grew |C| up to 1.12 at long times
    taus = np.geomspace(0.01, 1e3, 60)[:, None]
    n_bar, dn = bose_occupation(taus), d_occupation_dT(taus)
    gaps = np.geomspace(1e-300, 1e100, 801)
    gaps = np.concatenate([gaps, -gaps])
    assert np.all(block_roots(n_bar, gaps)[2].real <= 0.0)
    for t in (1e4, 1e8, 1e12):
        b = sector_blocks(n_bar, dn, gaps, t)
        assert np.all(np.abs(b.coh) <= 1.0 + 4.0 * np.finfo(float).eps), t


def blocks(tau, gap, t):
    return sector_blocks(bose_occupation(tau), d_occupation_dT(tau), gap, t)


def test_coherence_block_initial_condition():
    b = blocks(0.2, 2.0, 0.0)
    np.testing.assert_allclose(b.x, 0.0, atol=1e-15)
    assert b.coh == 1.0 and b.dcoh == 0.0


def test_coherence_block_zero_detuning_is_population_dynamics():
    # with equal level shifts the block obeys the bare relaxation equation,
    # so x tracks p_e and the trace C stays exactly 1
    tau = 0.3
    for t in (0.1, 1.0, 7.0):
        b = blocks(tau, 0.0, t)
        assert b.x.real == pytest.approx(excited_population(tau, t), rel=1e-12)
        assert abs(b.x.imag) < 1e-15
        assert b.coh == 1.0 and b.dcoh == 0.0


def test_coherence_block_long_time_limits():
    b = blocks(0.2, 2.0, math.inf)
    assert (b.x, b.coh) == (0.0, 0.0)
    cold = 0.001  # N underflows to exactly 0
    b_cold = blocks(cold, 2.0, math.inf)
    assert (b_cold.x, b_cold.coh) == (0.0, 1.0)


def test_zero_temperature_coherence_is_exactly_preserved():
    cold = 0.001  # exp(1/tau) overflows, N == 0
    assert bose_occupation(cold) == 0.0
    for t in np.geomspace(0.01, 100.0, 25):
        b = blocks(cold, 2.0, float(t))
        assert b.coh == 1.0 and b.dcoh == 0.0


def test_joint_state_properties():
    tau = 0.2
    meter = spin_x_spectrum(3, 2.0)
    psi0 = equal_superposition(3)
    rho, _ = oracles.joint_state(tau, meter, psi0, 5.0)
    assert rho.shape == (6, 6)
    np.testing.assert_array_equal(rho, rho.conj().T)  # exact by construction
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.eigvalsh(rho).min() > -1e-10


def test_joint_state_matches_master_equation():
    rng = np.random.default_rng(31)
    cases = [(2, 0.2, 2.0, 1.0), (3, 0.15, 0.5, 4.0), (4, 0.3, 4.0, 0.5)]
    for n, tau, omega, t in cases:
        meter = spin_x_spectrum(n, omega)
        c = rng.random(n) + 0.1
        c = c / np.linalg.norm(c)
        ref = oracles.evolve(oracles.initial_joint_state(c),
                             bose_occupation(tau), 1.0, meter, t)
        got, _ = oracles.joint_state(tau, meter, c, t)
        assert np.max(np.abs(got - ref)) < 1e-9


def test_joint_state_initial_condition():
    meter = spin_x_spectrum(2, 2.0)
    psi0 = equal_superposition(2)
    rho0, _ = oracles.joint_state(0.2, meter, psi0, 0.0)
    np.testing.assert_allclose(rho0, oracles.initial_joint_state(psi0),
                               atol=1e-15)


def test_meter_state_is_partial_trace_of_joint():
    tau = 0.25
    meter = spin_x_spectrum(3, 1.5)
    psi0 = np.array([0.2, 0.5, np.sqrt(1 - 0.04 - 0.25)])
    for t in (0.5, 3.0, 40.0):
        joint, _ = oracles.joint_state(tau, meter, psi0, t)
        reduced = oracles.meter_state(tau, meter, psi0, t)
        np.testing.assert_allclose(reduced, oracles.partial_trace_sensor(joint),
                                   atol=1e-13)


def test_meter_state_populations_never_move():
    tau = 0.2
    meter = spin_x_spectrum(4, 2.0)
    c = np.array([0.1, 0.3, 0.5, np.sqrt(1 - 0.01 - 0.09 - 0.25)])
    for t in (0.0, 2.0, 100.0, math.inf):
        reduced = oracles.meter_state(tau, meter, c, t)
        np.testing.assert_array_equal(np.diag(reduced).real, c * c)


def test_lindblad_rhs_matches_time_derivative():
    tau = 0.2
    meter = spin_x_spectrum(3, 2.0)
    psi0 = equal_superposition(3)
    t, h = 2.0, 1e-6
    fd = (oracles.joint_state(tau, meter, psi0, t + h)[0]
          - oracles.joint_state(tau, meter, psi0, t - h)[0]) / (2.0 * h)
    # the free sensor term only rotates sensor coherences, which stay zero
    for splitting in (None, 1.0):
        rhs = oracles.master_rhs(oracles.joint_state(tau, meter, psi0, t)[0],
                                 bose_occupation(tau), 1.0, meter,
                                 sensor_splitting=splitting)
        assert np.max(np.abs(fd - rhs)) < 1e-8
        assert abs(np.trace(rhs)) < 1e-14



def test_sector_blocks_against_mpmath():
    # values and analytic tau-derivatives down to tau = 0.02, where N ~ 2e-22
    # would vanish inside 2N+1, against the 60-digit matrix exponential
    for tau in (0.02, 0.05, 0.2, 1.0):
        for gap in (-2.0, 0.3, 1.5):
            for t in (0.5, 30.0, 1e5):
                got = sector_blocks(bose_occupation(tau), d_occupation_dT(tau), gap, t)
                ref = oracles.sector_block_mp(tau, t, gap)
                for value, expected in zip(got, ref):
                    assert abs(value - expected) <= 1e-9 * max(abs(expected), 1e-30)


def test_sector_blocks_zero_gap_and_late_limits():
    tau = 0.3
    n_bar, dn = bose_occupation(tau), d_occupation_dT(tau)
    for t in (0.0, 0.7, 12.0, math.inf):
        b = sector_blocks(n_bar, dn, 0.0, t)
        assert (b.coh, b.dcoh, b.delta) == (1, 0, 0)
        # the same bath.relaxation formula: equal, not just close
        assert b.x.real == excited_population(tau, t)
        assert b.dx.real == relaxation(n_bar, t)[1] * dn
    late = sector_blocks(n_bar, dn, 2.0, math.inf)
    assert (late.x, late.coh, late.dx, late.dcoh, late.delta) == (0, 0, 0, 0, -1)
    frozen = sector_blocks(0.0, 0.0, 2.0, math.inf)
    assert (frozen.x, frozen.coh, frozen.dx, frozen.dcoh, frozen.delta) == (0, 1, 0, 0, 0)


def test_sector_blocks_broadcast_matches_scalar_calls():
    taus = np.array([0.03, 0.2, 0.7])
    n_bar, dn = bose_occupation(taus), d_occupation_dT(taus)
    gaps = np.array([0.0, -1.0, 2.5])[:, None, None]
    ts = np.array([0.0, 3.0, math.inf])[:, None]
    batch = sector_blocks(n_bar, dn, gaps, ts)
    assert batch.x.shape == (3, 3, 3)
    for i, gap in enumerate(gaps.ravel()):
        for j, t in enumerate(ts.ravel()):
            for k in range(taus.size):
                one = sector_blocks(n_bar[k], dn[k], gap, t)
                for a, b in zip(batch, one):
                    assert a[i, j, k] == pytest.approx(complex(b), rel=1e-13, abs=1e-300)


def test_meter_blocks_hermitian_and_distinct_gaps():
    # the package evaluates the n distinct ladder gaps -Omega k once each and
    # lays them out by gap_matrix: entry by entry the oracle's blocks at
    # lambda_m - lambda_m', bitwise where Omega is dyadic and to roundoff at
    # Omega = 1.3, whose level differences round apart from -1.3 k
    tau = 0.15
    ts = np.array([0.5, 40.0])
    n_bar, dn = bose_occupation(tau), d_occupation_dT(tau)
    for omega in (2.0, 1.3):
        meter = spin_x_spectrum(5, omega)
        b = oracles.meter_blocks(n_bar, dn, meter, ts)
        gaps = sector_blocks(n_bar, dn, -omega * np.arange(5), ts[:, None])
        for v, at_gaps in zip(b, gaps):
            assert v.shape == (2, 5, 5)
            np.testing.assert_array_equal(v, v.conj().swapaxes(-1, -2))
            laid_out = gap_matrix(at_gaps)
            np.testing.assert_array_equal(laid_out, laid_out.conj().swapaxes(-1, -2))
            if omega == 2.0:
                np.testing.assert_array_equal(laid_out, v)
            np.testing.assert_allclose(laid_out, v, rtol=1e-14, atol=1e-300)
        np.testing.assert_array_equal(np.diagonal(b.coh, axis1=1, axis2=2), 1.0)


def test_real_map_is_the_even_odd_transform():
    # the dense Lee (1980) unitary: (e_m + e_m')/sqrt 2 below the middle,
    # i (e_m' - e_m)/sqrt 2 above it, e_m at the middle of an odd n
    rng = np.random.default_rng(3)
    for n in (2, 4, 5, 13):
        q = np.zeros((n, n), dtype=complex)
        for m in range(n):
            k = n - 1 - m
            q[[m, k], m] = ([1.0, 1.0] if m < k else [-1j, 1j] if m > k
                            else [math.sqrt(2.0)] * 2)
        q /= math.sqrt(2.0)
        v = rng.normal(size=n) + 1j * rng.normal(size=n)
        v[0] = 1.0  # the zero gap is real
        f = gap_matrix(v)
        c = rng.random(n)
        c += c[::-1]
        dense = q.conj().T @ (f * np.outer(c, c)) @ q
        real = real_matrix(v)
        np.testing.assert_allclose(dense.imag, 0.0, atol=1e-14)
        np.testing.assert_allclose(real * np.outer(c, c), dense.real, atol=1e-14)
        np.testing.assert_array_equal(real, real.T)
        # at most two nonzero terms per entry, with exact weights
        assert np.count_nonzero(real_map(n), axis=0).max() <= 2
        assert real_map(n) is real_map(n)  # built once per n
