"""gamma is the rate unit: the package takes times as gamma t and couplings
as Omega / gamma, and returns eigenvalues in units of gamma. For a coupling
gamma, the recipe is: pass gamma t and Omega / gamma, and multiply the
eigenvalues by gamma.

Each test runs an independent oracle, which keeps gamma as an argument, at
gamma = 0.5 and 2, and compares it with the package at (gamma t,
Omega / gamma). Powers of two make the rescaling exact, so every comparison
keeps the tolerance of the gamma = 1 test of the same oracle."""

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

import oracles
from thermoq.bath import bose_occupation, d_occupation_dT, sensor_qfi
from thermoq.dynamics import equal_superposition, sector_blocks, spin_x_spectrum
from thermoq.qfi import joint_and_meter_qfi_grid, meter_qfi_grid
from thermoq.spectrum import slow_spectrum

_GAMMAS = (0.5, 2.0)


@pytest.mark.parametrize("gamma", _GAMMAS)
def test_sensor_qfi_at_any_rate(gamma):
    # the 60-digit zero-gap block is the bare relaxation (x, dx/dtau) =
    # (p_e, dp_e/dtau); tolerance of test_sensor_qfi_against_sld_reference
    for tau in (0.15, 0.4, 1.0):
        for t in (0.25, 3.0, 40.0):
            x, _, dx, _, _ = (v.real for v in oracles.sector_block_mp(tau, t, 0.0, gamma))
            ref = oracles.qfi_reference(np.diag([x, 1.0 - x]), np.diag([dx, -dx]))
            assert sensor_qfi(tau, gamma * t) == pytest.approx(ref, rel=1e-10), (tau, t)


@pytest.mark.parametrize("gamma", _GAMMAS)
def test_sector_blocks_at_any_rate(gamma):
    # tolerance of test_sector_blocks_against_mpmath
    for tau in (0.02, 0.2, 1.0):
        n_bar, dn = bose_occupation(tau), d_occupation_dT(tau)
        for gap in (-2.0, 0.3):
            for t in (0.5, 30.0):
                got = sector_blocks(n_bar, dn, gap / gamma, gamma * t)
                ref = oracles.sector_block_mp(tau, t, gap, gamma)
                for value, expected in zip(got, ref):
                    assert abs(value - expected) <= 1e-9 * max(abs(expected), 1e-30), (
                        tau, gap, t)


@pytest.mark.parametrize("gamma", _GAMMAS)
def test_meter_and_joint_qfi_at_any_rate(gamma):
    # master-equation evolution at gamma, a central difference in tau and
    # the double-loop SLD sum, with the tolerance of
    # test_meter_qfi_methods_and_against_reference; the n = 2 meter also
    # against 60 digits, with that of test_meter_qfi_low_temperature_against_mpmath
    tau, h = 0.2, 1e-6 * 0.2
    for n, omega, t in ((2, 2.0, 5.0), (3, 1.0, 8.0)):
        meter, psi0 = spin_x_spectrum(n, omega), equal_superposition(n)

        def joint(v):
            return oracles.evolve(oracles.initial_joint_state(psi0),
                                  bose_occupation(v), gamma, meter, t)

        rho, drho = joint(tau), (joint(tau + h) - joint(tau - h)) / (2.0 * h)
        want_joint = oracles.qfi_reference(rho, drho)
        want_meter = oracles.qfi_reference(oracles.partial_trace_sensor(rho),
                                           oracles.partial_trace_sensor(drho))
        got_joint, got_meter = joint_and_meter_qfi_grid(tau, gamma * t, omega / gamma,
                                                        psi0)
        assert got_meter == pytest.approx(want_meter, rel=1e-5), n
        assert got_joint == pytest.approx(want_joint, rel=1e-5), n
    for tau in (0.05, 0.3):
        for t in (1.0, 1e3):
            got = meter_qfi_grid(tau, gamma * t, 2.0 / gamma, equal_superposition(2))
            ref = oracles.meter_qfi_mp(tau, t, 2.0, gamma)
            assert abs(got - ref) <= 1e-8 * max(abs(ref), 1e-4), (tau, t, got, ref)


@pytest.mark.parametrize("gamma", _GAMMAS)
def test_spectrum_at_any_rate(gamma):
    # every eigenvalue against 60-digit block roots and against the dense
    # generator, with the tolerances of test_every_eigenvalue_matches_60_digit_block_roots
    # and test_block_spectrum_matches_dense_oracle
    for n in (2, 3):
        for omega in (0.01, 2.0, 1e3):
            meter = spin_x_spectrum(n, omega)
            for tau in (0.05, 0.2, 5.0):
                n_bar = bose_occupation(tau)
                got = gamma * slow_spectrum(tau, spin_x_spectrum(n, omega / gamma),
                                            4 * n * n)
                ref = oracles.spectrum_mp(n_bar, meter, gamma)
                assert oracles.relative_mismatch(got, ref) <= 1e-13, (n, omega, tau)
                dense = np.linalg.eigvals(oracles.dense_liouvillian(n_bar, gamma, meter))
                dist = np.abs(got[:, None] - dense[None, :])
                rows, cols = linear_sum_assignment(dist)
                assert dist[rows, cols].max() <= 1e-12 * np.abs(dense).max(), (n, omega, tau)
                if n == 2:
                    pair = slow_spectrum(tau, (omega / gamma) * spin_x_spectrum(2, 1.0),
                                         4)[2:4]
                    for lam, gap in zip(pair, (-omega, omega)):
                        want = oracles.block_roots_mp(n_bar, gamma, gap)[0]
                        assert abs(gamma * lam - want) <= 1e-13 * abs(want), (omega, tau)
