import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

import oracles
from thermoq.bath import SensorParams, bose_occupation
from thermoq.dynamics import MeterSpec, MeterState, spin_x_spectrum
from thermoq.qfi import effective_decay_rate
from thermoq.spectrum import coherence_eigenvalues_closed_form, slow_spectrum


def params(tau):
    return SensorParams(temperature=tau)


def dense(p, meter):
    return oracles.dense_liouvillian(bose_occupation(p), p.gamma, meter.lambdas)


def test_block_spectrum_matches_dense_oracle():
    meters = [spin_x_spectrum(n, omega) for n in (2, 3, 5) for omega in (0.0, 0.7, 2.0)]
    meters.append(MeterSpec(n=4, lambdas=(-1.3, -0.2, 0.5, 2.1)))
    for meter in meters:
        for tau in (0.001, 0.2, 1.0):
            p = params(tau)
            ref = np.linalg.eigvals(dense(p, meter))
            got = slow_spectrum(p, meter, (2 * meter.n) ** 2)
            # pair the two multisets by minimal total distance
            dist = np.abs(got[:, None] - ref[None, :])
            rows, cols = linear_sum_assignment(dist)
            assert dist[rows, cols].max() <= 1e-12 * np.abs(ref).max(), (
                meter.lambdas, tau)


def test_slow_spectrum_eigenpairs_and_ordering():
    p = params(0.2)
    w = slow_spectrum(p, spin_x_spectrum(2, 2.0), 6)
    assert w.shape == (6,)
    # sorted by descending real part: slowest decay first
    assert np.all(np.diff(w.real) <= 1e-12)


def test_slow_spectrum_validates_k():
    p, meter = params(0.2), spin_x_spectrum(2, 1.0)
    with pytest.raises(ValueError):
        slow_spectrum(p, meter, 0)
    with pytest.raises(ValueError):
        slow_spectrum(p, meter, 17)


def test_slow_spectrum_rejects_growing_modes(monkeypatch):
    monkeypatch.setattr(np.linalg, "eigvals",
                        lambda a: np.ones(a.shape[:-1], dtype=complex))
    with pytest.raises(RuntimeError):
        slow_spectrum(params(0.2), spin_x_spectrum(2, 1.0), 2)


def test_null_space_dimensions():
    cases = ((params(0.2), 2.0, 2), (params(0.2), 0.0, 4),
             (params(0.001), 2.0, 4))  # tau = 0.001: N = 0, coherences stop decaying
    for p, omega, want in cases:
        meter = spin_x_spectrum(2, omega)
        matrix = dense(p, meter)
        assert oracles.null_space_dimension(matrix) == want
        w = slow_spectrum(p, meter, 16)
        assert np.count_nonzero(np.abs(w) < oracles.zero_tolerance(matrix)) == want


def test_closed_form_pair_matches_numerics():
    p = params(0.2)
    for omega in (0.3, 1.0, 2.0, 4.0):
        numeric = slow_spectrum(p, spin_x_spectrum(2, omega), 4)[2:]  # after the two nulls
        closed = np.array(coherence_eigenvalues_closed_form(p, omega))
        # real parts agree to the last ulp, so order the conjugates by imag
        got = sorted(numeric, key=lambda z: z.imag)
        want = sorted(closed, key=lambda z: z.imag)
        np.testing.assert_allclose(got, want, atol=1e-10)


def test_closed_form_pair_is_conjugate_and_slow():
    p = params(0.2)
    lam1, lam2 = coherence_eigenvalues_closed_form(p, 2.0)
    assert lam1 == lam2.conjugate()
    assert lam1.real < 0
    gamma_n = effective_decay_rate(p, 2.0)
    assert abs(lam1.real + gamma_n) / gamma_n < 0.15


def test_closed_form_pair_zero_coupling():
    lam1, lam2 = coherence_eigenvalues_closed_form(params(0.2), 0.0)
    assert lam1 == 0.0 and lam2 == 0.0


def test_spectral_propagation_matches_closed_form_state():
    p = params(0.2)
    meter = spin_x_spectrum(2, 2.0)
    psi0 = MeterState.equal_superposition(2)
    matrix = dense(p, meter)
    rho0, _ = oracles.joint_state(p, meter, psi0, 0.0)
    for t in (0.5, 5.0, 50.0):
        full = oracles.eigen_propagate(matrix, rho0, t)
        np.testing.assert_allclose(full, oracles.joint_state(p, meter, psi0, t)[0],
                                   atol=1e-8)


def test_spectral_tail_truncation_captures_late_time_state():
    p = params(0.2)
    meter = spin_x_spectrum(2, 2.0)
    psi0 = MeterState.equal_superposition(2)
    rho0, _ = oracles.joint_state(p, meter, psi0, 0.0)
    t = 200.0  # fast modes decay like exp(-(2N+1) gamma t), long gone here
    kept = oracles.eigen_propagate(dense(p, meter), rho0, t, k=2)
    exact, _ = oracles.joint_state(p, meter, psi0, t)
    assert np.max(np.abs(kept - exact)) < 1e-10
