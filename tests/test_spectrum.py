import re
import warnings

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

import oracles
from thermoq.bath import bose_occupation
from thermoq.dynamics import equal_superposition, spin_x_spectrum
from thermoq.spectrum import slow_spectrum


def dense(tau, levels):
    return oracles.dense_liouvillian(bose_occupation(tau), 1.0, levels)


def closed_pair(tau, omega):
    """The n = 2 closed-form pair as the CLI takes it: the third and fourth
    slowest eigenvalues at the couplings omega (scalar or 1-D)."""
    omega = np.asarray(omega, dtype=float)
    return slow_spectrum(tau, omega[..., None] * spin_x_spectrum(2, 1.0), 4)[..., 2:4]


def test_block_spectrum_matches_dense_oracle():
    meters = [spin_x_spectrum(n, omega) for n in (2, 3, 5) for omega in (0.0, 0.7, 2.0)]
    meters.append(np.array([-1.3, -0.2, 0.5, 2.1]))  # a general spectrum
    for meter in meters:
        for tau in (0.001, 0.2, 1.0):
            ref = np.linalg.eigvals(dense(tau, meter))
            got = slow_spectrum(tau, meter, (2 * meter.size) ** 2)
            # pair the two multisets by minimal total distance
            dist = np.abs(got[:, None] - ref[None, :])
            rows, cols = linear_sum_assignment(dist)
            assert dist[rows, cols].max() <= 1e-12 * np.abs(ref).max(), (meter, tau)


def test_slow_spectrum_eigenpairs_and_ordering():
    tau = 0.2
    w = slow_spectrum(tau, spin_x_spectrum(2, 2.0), 6)
    assert w.shape == (6,)
    # sorted by descending real part: slowest decay first
    assert np.all(np.diff(w.real) <= 1e-12)


def test_slow_spectrum_validates_its_levels():
    # any n >= 2 finite levels, in any order and with ties (a flat spectrum
    # is the decoupled meter)
    for bad in ((0.0,), (0.0, np.inf), (0.0, np.nan), ((0.0,), (1.0,)), 0.0):
        with pytest.raises(ValueError, match="levels"):
            slow_spectrum(0.2, bad, 1)
    assert slow_spectrum(0.2, (0.5, 0.5), 16).shape == (16,)
    descending = slow_spectrum(0.2, (1.0, -1.0), 16)
    np.testing.assert_allclose(descending, slow_spectrum(0.2, (-1.0, 1.0), 16),
                               atol=1e-15)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_stacked_slow_spectrum_is_one_call_per_meter(n):
    # a stack (k, n) of couplings, the same stack as (2, 3, n), and a stack
    # that holds one unsorted general level set
    ladder = np.array([0.0, 0.7, 2.0, 3.3, 1e-3, 40.0])[:, None] * spin_x_spectrum(n, 1.0)
    general = np.array([2.1, -1.3, 0.5, -0.2, 0.5])[:n]
    for levels in (ladder, ladder.reshape(2, 3, n), np.stack([ladder[2], general])):
        for k in (1, 4 * n * n):
            got = slow_spectrum(0.2, levels, k)
            assert got.shape == levels.shape[:-1] + (k,)
            for index in np.ndindex(levels.shape[:-1]):
                want = slow_spectrum(0.2, levels[index], k)
                assert got[index].tobytes() == want.tobytes(), (levels[index], k)


def test_slow_spectrum_validates_k():
    tau, meter = 0.2, spin_x_spectrum(2, 1.0)
    with pytest.raises(ValueError):
        slow_spectrum(tau, meter, 0)
    with pytest.raises(ValueError):
        slow_spectrum(tau, meter, 17)


def test_every_eigenvalue_matches_60_digit_block_roots():
    for n in (2, 3, 5):
        for omega in (0.01, 2.0, 1e3):
            meter = spin_x_spectrum(n, omega)
            for tau in np.geomspace(0.01, 1e3, 12):
                got = slow_spectrum(tau, meter, 4 * n * n)
                ref = oracles.spectrum_mp(bose_occupation(tau), meter)
                assert oracles.relative_mismatch(got, ref) <= 1e-13, (n, omega, tau)
                if n == 2:
                    # the closed pair is the slow root at gap -Omega, +Omega
                    n_bar = bose_occupation(tau)
                    pair = closed_pair(tau, omega)
                    for lam, gap in zip(pair, (-omega, omega)):
                        want = oracles.block_roots_mp(n_bar, 1.0, gap)[0]
                        assert abs(lam - want) <= 1e-13 * abs(want), (omega, tau)


def test_no_eigenvalue_has_a_positive_real_part():
    # gaps down to 1e-300, where the form s+ = q - N of sector_blocks rounds
    # above zero, and N = 0 at tau = 1e-3, where s+ is exactly zero
    omegas = np.concatenate([[0.0], np.geomspace(1e-300, 1e100, 401)])
    for tau in (1e-3, 0.02, 0.2, 1.0, 50.0, 1e4):
        for n in (2, 3):
            w = slow_spectrum(tau, omegas[:, None] * spin_x_spectrum(n, 1.0), 4 * n * n)
            assert np.all(w.real <= 0.0), (tau, n, w.real.max())
        pair = closed_pair(tau, omegas)
        assert np.all(pair.real <= 0.0), (tau, pair.real.max())
        if bose_occupation(tau) == 0.0:
            assert np.all(pair == 0.0)


def test_slow_spectrum_gap_overflow_names_the_gap():
    # alpha squares the gap, so a gap of 1e200 (or levels whose difference
    # overflows) raises instead of returning inf or nan, with numpy warnings
    # as errors
    for levels, gap in (((0.0, 1e200), "-1e+200"), ((1e308, -1e308), "inf"),
                        (((0.0, 1.0), (0.0, 1e160)), "-1e+160")):
        with pytest.raises(FloatingPointError, match=re.escape(
                f"overflow double precision at tau=0.2, gap={gap}")):
            slow_spectrum(0.2, levels, 4)


def test_null_space_dimensions():
    cases = ((0.2, 2.0, 2), (0.2, 0.0, 4),
             (0.001, 2.0, 4))  # tau = 0.001: N = 0, coherences stop decaying
    for tau, omega, want in cases:
        meter = spin_x_spectrum(2, omega)
        matrix = dense(tau, meter)
        assert oracles.null_space_dimension(matrix) == want
        w = slow_spectrum(tau, meter, 16)
        assert np.count_nonzero(np.abs(w) < oracles.zero_tolerance(matrix)) == want


def test_closed_form_pair_matches_numerics():
    # each of the pair is an eigenvalue of the dense generator
    tau = 0.2
    for omega in (0.3, 1.0, 2.0, 4.0):
        numeric = np.linalg.eigvals(dense(tau, spin_x_spectrum(2, omega)))
        for lam in closed_pair(tau, omega):
            assert np.abs(numeric - lam).min() <= 1e-10, (omega, lam)


def test_closed_form_pair_is_conjugate_and_slow():
    tau = 0.2
    lam1, lam2 = closed_pair(tau, 2.0)
    assert lam1 == lam2.conjugate()
    assert lam1.real < 0
    gamma_n = oracles.effective_decay_rate(tau, 2.0)
    assert abs(lam1.real + gamma_n) / gamma_n < 0.15


def test_closed_form_pair_overflow_names_the_first_point():
    # (2N+1)^2 and Omega^2 overflow inside alpha, which once gave inf and nan
    # with two RuntimeWarnings; the first gap of the meter at Omega is -Omega
    cases = ((1e300, 2.0, "tau=1e+300, gap=0"),
             (0.2, np.array([1.0, 1e200, 1e300]), "tau=0.2, gap=-1e+200"))
    for tau, omega, where in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FloatingPointError,
                               match=re.escape(f"precision at {where}")):
                closed_pair(tau, omega)


def test_slow_spectrum_overflow_names_tau():
    # the rates N and N + 1 (N ~ tau) overflow alpha's (2N+1)^2 at
    # tau = 1e300, which once raised numpy's LinAlgError after a RuntimeWarning
    meter = spin_x_spectrum(2, 2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FloatingPointError, match=re.escape(
                "Lindblad rates overflow double precision at tau=1e+300, gap=0")):
            slow_spectrum(1e300, meter, 4)


def test_closed_pair_is_the_third_and_fourth_slowest():
    # the CLI writes its closed columns as (conj lambda_4, lambda_4): for
    # n = 2 the third and fourth eigenvalues are a conjugate pair in value,
    # and lambda_4 is the slow root s+ at the gap +Omega, with Im <= 0.
    # Omega = 0 and N = 0 (tau = 1e-3) give exact zeros
    omegas = np.concatenate([[0.0], np.geomspace(1e-6, 1e6, 121)])
    for tau in np.geomspace(1e-3, 1e3, 61):
        lam3, lam4 = closed_pair(tau, omegas).T
        assert np.all(lam3 == lam4.conj()), tau
        assert np.all(lam4.imag <= 0.0), tau
        n_bar = bose_occupation(tau)
        for lam, omega in zip(lam4, omegas):
            want = oracles.block_roots_mp(n_bar, 1.0, omega)[0]
            assert abs(lam - want) <= 1e-13 * abs(want), (tau, omega)


def test_closed_form_pair_zero_coupling():
    lam1, lam2 = closed_pair(0.2, 0.0)
    assert lam1 == 0.0 and lam2 == 0.0


def test_spectral_propagation_matches_closed_form_state():
    tau = 0.2
    meter = spin_x_spectrum(2, 2.0)
    psi0 = equal_superposition(2)
    matrix = dense(tau, meter)
    rho0, _ = oracles.joint_state(tau, meter, psi0, 0.0)
    for t in (0.5, 5.0, 50.0):
        full = oracles.eigen_propagate(matrix, rho0, t)
        np.testing.assert_allclose(full, oracles.joint_state(tau, meter, psi0, t)[0],
                                   atol=1e-8)


def test_spectral_tail_truncation_captures_late_time_state():
    tau = 0.2
    meter = spin_x_spectrum(2, 2.0)
    psi0 = equal_superposition(2)
    rho0, _ = oracles.joint_state(tau, meter, psi0, 0.0)
    t = 200.0  # fast modes decay like exp(-(2N+1) gamma t), long gone here
    kept = oracles.eigen_propagate(dense(tau, meter), rho0, t, k=2)
    exact, _ = oracles.joint_state(tau, meter, psi0, t)
    assert np.max(np.abs(kept - exact)) < 1e-10
