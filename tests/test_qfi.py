import itertools
import math
import re

import numpy as np
import pytest

import oracles
from thermoq import qfi
from thermoq.bath import (bose_occupation, d_occupation_dT, excited_population,
                          relaxation, sensor_qfi, steady_sensor_qfi)
from thermoq.dynamics import equal_superposition, sector_blocks, spin_x_spectrum
from thermoq.optimize import bures_distance_pure, dimension_scaling, find_t_max
from thermoq.qfi import (SupportError, _jordan_qfi, joint_and_meter_qfi_grid,
                         joint_qfi_grid, meter_qfi_grid)


def sensor_state(tau, t):
    p = excited_population(tau, t)
    return np.diag([p, 1.0 - p]).astype(complex)


def one_state_qfi(rho, drho):
    """The package's general (Jordan eigenbasis) QFI of one state."""
    return float(_jordan_qfi(rho[None], drho[None]))


# every entry point that takes a meter, as f(psi0)
_METER_ENTRY_POINTS = {
    "meter_qfi_grid": lambda psi0: meter_qfi_grid(0.2, 10.0, 2.0, psi0),
    "joint_qfi_grid": lambda psi0: joint_qfi_grid(0.2, 10.0, 2.0, psi0),
    "joint_and_meter_qfi_grid": lambda psi0: joint_and_meter_qfi_grid(0.2, 10.0, 2.0,
                                                                      psi0),
    "find_t_max": lambda psi0: find_t_max(2.0, psi0, 10.0),
    "bures_distance_pure": lambda psi0: bures_distance_pure(psi0, [0.6, 0.8]),
}


@pytest.mark.parametrize("name", sorted(_METER_ENTRY_POINTS))
def test_entry_points_reject_invalid_meters(name):
    call = _METER_ENTRY_POINTS[name]
    # a list is one meter, taken as its array
    got, want = call([0.6, 0.8]), call(np.array([0.6, 0.8]))
    assert np.asarray(got, float).tobytes() == np.asarray(want, float).tobytes()
    for psi0, problem in ((np.ones(3), "unit norm"), ([np.nan, 1.0], "finite"),
                          ([np.inf, 0.0], "finite"), ([-0.6, 0.8], "nonnegative"),
                          (np.float64(1.0), "two coefficients"),
                          ((np.array([0.6, 0.8]), np.ones(2)), "unit norm")):
        # a ValueError that names the problem (numpy warnings are errors here)
        with pytest.raises(ValueError, match=problem):
            call(psi0)


@pytest.mark.parametrize("name", ["meter_qfi_grid", "joint_qfi_grid",
                                  "joint_and_meter_qfi_grid", "find_t_max"])
def test_a_tuple_psi0_holds_coefficient_vectors_only(name):
    with pytest.raises(ValueError, match="a tuple psi0 holds one or more coefficient vectors"):
        _METER_ENTRY_POINTS[name]((np.tile([0.6, 0.8], (2, 1)),))


def test_each_meter_is_checked_once_per_call(monkeypatch):
    # a public grid call checks each distinct meter of psi0 once, and
    # find_t_max each of its meters once over all its grid calls; the grid
    # driver checks none
    real, checked = qfi._coefficients, []
    monkeypatch.setattr(qfi, "_coefficients", lambda c: checked.append(1) or real(c))
    two, five = equal_superposition(2), equal_superposition(5)
    taus = np.array([[0.2, 0.5]])
    for grid in (meter_qfi_grid, joint_qfi_grid, joint_and_meter_qfi_grid):
        for psi0, count in ((two, 1), ([0.6, 0.8], 1), (np.tile(two, (2, 1)), 1),
                            ((two, five, two), 2), ((two, two, five), 2),
                            (([0.6, 0.8], [0.6, 0.8]), 2)):
            checked.clear()
            grid(taus, 10.0, 2.0, psi0)
            assert len(checked) == count, (grid.__name__, psi0)
    for omega, psi0, count in ((2.0, two, 1), (0.0, two, 1), (2.0, (two, five, two), 2)):
        checked.clear()
        find_t_max(omega, psi0, [10.0, 1e3])
        assert len(checked) == count
    checked.clear()
    dimension_scaling(2.0, [10.0, 1e5], range(2, 13))
    assert len(checked) == 12
    checked.clear()
    for psi0 in (two, (two, five)):
        qfi._on_grid(qfi._meter_qfis, taus, 10.0, 2.0, psi0)
    assert checked == []


def test_a_coefficient_vector_reaches_the_kernel_as_one_row():
    # a meter given as one vector, alone or in a tuple, reaches the kernel as
    # one (1, n) row for every point of its chunk; an array of one meter per
    # point as the chunk's rows
    two, three = equal_superposition(2), equal_superposition(3)
    per_point = np.tile(three, (2, 1))
    for psi0, want in ((two, [(1, 2)]), ((two, three), [(1, 2), (1, 3)]),
                       (per_point, [(2, 3)])):
        seen = []
        qfi._on_grid(lambda blocks, c: seen.append(c.shape) or (np.zeros(len(blocks.x)),),
                     np.array([[0.2, 0.5]]), 10.0, 2.0, psi0)
        assert seen == want


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
    assert one_state_qfi(rho, drho) == pytest.approx(expected, rel=1e-12)


def test_qfi_general_matches_reference_on_random_states():
    rng = np.random.default_rng(42)
    for dim in (3, 4, 6):
        for _ in range(20):
            rho = oracles.random_density_matrix(rng, dim)
            drho = oracles.random_hermitian(rng, dim)
            drho = drho - (np.trace(drho) / dim) * np.eye(dim)
            got = one_state_qfi(rho, drho)
            ref = oracles.qfi_reference(rho, drho)
            assert got == pytest.approx(ref, rel=1e-8)


def test_qfi_general_scale_invariance():
    rng = np.random.default_rng(43)
    rho = oracles.random_density_matrix(rng, 4)
    drho = oracles.random_hermitian(rng, 4)
    drho = drho - (np.trace(drho) / 4) * np.eye(4)
    base = one_state_qfi(rho, drho)
    assert one_state_qfi(rho, 3.0 * drho) == pytest.approx(9.0 * base, rel=1e-10)


def test_qfi_general_support_violation():
    rho = np.diag([1.0, 0.0]).astype(complex)
    drho = np.diag([0.0, 1.0]).astype(complex)  # moves weight outside support
    with pytest.raises(SupportError):
        one_state_qfi(rho, drho)


def test_qfi_general_rank_deficient_but_supported():
    # derivative confined to the support must work on a rank-deficient state
    rho = np.diag([0.6, 0.4, 0.0]).astype(complex)
    drho = np.zeros((3, 3), dtype=complex)
    drho[0, 0], drho[1, 1] = 0.1, -0.1
    drho[0, 1] = drho[1, 0] = 0.05
    got = one_state_qfi(rho, drho)
    assert got == pytest.approx(oracles.qfi_reference(rho, drho), rel=1e-10)


def test_state_derivative_matches_analytic():
    got = oracles.state_derivative(lambda tau: sensor_state(tau, 3.0), 0.2)
    dp = relaxation(bose_occupation(0.2), 3.0)[1] * d_occupation_dT(0.2)
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
    assert oracles.effective_decay_rate(0.2, 2.0) == pytest.approx(
        0.00541772033026582, rel=1e-14)
    n = bose_occupation(0.2)
    direct = n * (4.0 - n) / 5.0
    assert oracles.effective_decay_rate(0.2, 2.0) == pytest.approx(direct, rel=1e-14)


def test_qfi_longtime_frozen_values():
    assert oracles.qfi_longtime(0.2, 2.0, 100.0) == pytest.approx(
        110.99876704749084, rel=1e-12)
    assert oracles.qfi_longtime(0.2, 2.0, 200.0) == pytest.approx(
        117.80734441404591, rel=1e-12)
    with pytest.raises(ValueError):
        oracles.qfi_longtime(0.2, 2.0, 0.0)


def test_qfi_longtime_positive_over_validity_range():
    for t in np.geomspace(50.0, 5000.0, 12):
        assert oracles.qfi_longtime(0.2, 2.0, float(t)) >= 0.0


def test_meter_qfi_methods_and_against_reference():
    # the qubit closed form (n = 2) and the eigenbasis formula (n = 3)
    for n, omega, t in ((2, 2.0, 5.0), (3, 1.0, 8.0)):
        meter = spin_x_spectrum(n, omega)
        psi0 = equal_superposition(n)
        result = meter_qfi_grid(0.2, t, omega, psi0)

        # independent route: master-equation evolution, finite differences,
        # and the double-loop SLD sum
        h = 1e-6 * 0.2

        def reduced(tau):
            rho = oracles.evolve(
                oracles.initial_joint_state(psi0),
                bose_occupation(tau), 1.0, meter, t)
            return oracles.partial_trace_sensor(rho)

        drho = (reduced(0.2 + h) - reduced(0.2 - h)) / (2.0 * h)
        ref = oracles.qfi_reference(reduced(0.2), drho)
        assert result == pytest.approx(ref, rel=1e-5)


def test_meter_qfi_matches_finite_difference_reference():
    # the analytic derivative against a central difference of the package's
    # own meter state, at a temperature where the difference is accurate
    for n, psi0 in ((2, equal_superposition(2)),
                    (4, np.array([0.1, 0.5, 0.3, np.sqrt(0.65)]))):
        meter = spin_x_spectrum(n, 2.0)
        drho = oracles.state_derivative(
            lambda tau: oracles.meter_state(tau, meter, psi0, 5.0),
            0.2, step=1e-7)
        ref = oracles.qfi_reference(oracles.meter_state(0.2, meter, psi0, 5.0), drho)
        assert meter_qfi_grid(0.2, 5.0, 2.0, psi0) == pytest.approx(ref, rel=1e-5)


def test_joint_qfi_frozen_against_ode_oracle():
    psi0 = equal_superposition(2)
    # frozen from the independent master-equation + SLD-sum pipeline
    assert joint_qfi_grid(0.2, 1.0, 2.0, psi0) == pytest.approx(
        2.862732820885268, rel=1e-7)


def test_joint_qfi_dominates_sensor_and_meter():
    # the joint state majorizes both marginals, so its QFI bounds each one
    psi0 = equal_superposition(2)
    for t in (0.5, 2.0, 10.0, 30.0):
        full = joint_qfi_grid(0.2, t, 2.0, psi0)
        assert full >= sensor_qfi(0.2, t) - 1e-9 * full
        assert full >= meter_qfi_grid(0.2, t, 2.0, psi0) - 1e-9 * full


def test_meter_qfi_low_temperature_against_mpmath():
    # tau in [0.02, 0.12], where N ~ e^{-1/tau} falls below 1e-21 and a
    # finite difference in tau loses it inside 2N+1; peak times t ~ 1/Gamma_N
    # reach 1e7
    psi0 = equal_superposition(2)
    for tau in np.geomspace(0.02, 0.12, 6):
        for t in np.geomspace(1.0, 1e7, 8):
            got = meter_qfi_grid(tau, t, 2.0, psi0)
            ref = oracles.meter_qfi_mp(tau, t, 2.0)
            assert abs(got - ref) <= 1e-8 * max(abs(ref), 1e-4), (tau, t, got, ref)


def test_two_level_weak_coupling_against_mpmath():
    # Omega <= 1e-2 at long times: the slow root s+ = q - N lost about eps N
    # of Re s+ to cancellation, 2.4e-5 relative at tau = 10, Omega = 1e-4,
    # gamma t = 1e10; s+ = i N Omega / s- keeps it
    psi0 = equal_superposition(2)
    for tau, omega, t in itertools.product((0.3, 1.0, 10.0), (1e-6, 1e-4, 1e-2),
                                           (1e6, 1e8, 1e10)):
        got = meter_qfi_grid(tau, t, omega, psi0)
        ref = oracles.meter_qfi_mp(tau, t, omega)
        assert abs(got - ref) <= 1e-12 * ref, (tau, omega, t, got, ref)


def test_two_level_weak_coupling_at_moderate_times_against_mpmath():
    # Omega <= 1e-2 at 1 <= gamma t <= 1e4: a sum x' + y' of the sector
    # derivatives in place of the blocks' C' cancelled wherever |x'| >> |C'|,
    # 3.0e-4 relative at tau = 1, Omega = 1e-6, gamma t = 1
    psi0 = equal_superposition(2)
    for tau, omega, t in itertools.product((0.05, 0.1, 0.3, 1.0, 10.0), (1e-6, 1e-4, 1e-2),
                                           (1.0, 10.0, 1e2, 1e3, 1e4)):
        got = meter_qfi_grid(tau, t, omega, psi0)
        ref = oracles.meter_qfi_mp(tau, t, omega)
        assert abs(got - ref) <= 1e-12 * ref, (tau, omega, t, got, ref)


def test_two_level_weak_coupling_at_short_times_against_mpmath():
    # Omega <= 1e-2 at gamma t < 1, the band below the moderate times. The
    # coherence's mixedness Re delta, delta = C - 1, is formed as
    # expm1(s+ t) - s+ D, whose terms agree to first order in t, so it loses
    # about eps/(gamma t)^2 (ROADMAP item 12): at gamma t = 0.01 the QFI is
    # off by 2.2e-11 (tau = 0.05, Omega = 1e-4), held to 1e-10 until delta is
    # taken from its integral; gamma t >= 0.1 is within 3.8e-13
    psi0 = equal_superposition(2)
    for tau, omega, t in itertools.product((0.05, 0.1, 0.3, 1.0, 10.0), (1e-6, 1e-4, 1e-2),
                                           (0.01, 0.1, 0.3)):
        got = meter_qfi_grid(tau, t, omega, psi0)
        ref = oracles.meter_qfi_mp(tau, t, omega)
        tol = 1e-10 if t < 0.1 else 1e-12
        assert abs(got - ref) <= tol * ref, (tau, omega, t, got, ref)


def test_meter_qfi_where_the_occupation_is_subnormal():
    # 1/tau = 720: exp(1/tau) overflows, but N ~ 2e-313 and dN/dtau do not
    # vanish yet; an occupation flushed to 0 made the state pure with a
    # derivative out of its support (SupportError)
    value = meter_qfi_grid(1.0 / 720.0, 1e300, 2.0, equal_superposition(2))
    assert value == pytest.approx(oracles.meter_qfi_mp(1.0 / 720.0, 1e300, 2.0),
                                  rel=1e-6)


def test_two_level_meter_qfi_at_low_tau_against_mpmath():
    # (Re conj(C) C')^2 underflowed before the division by 1 - |C|^2 ~ N,
    # which made the QFI exactly 0 at every t below tau ~ 0.0029, where it is
    # 1e-279 to 1e-139; a 60-digit reference loses 1 - |C|^2 there too
    psi0 = equal_superposition(2)
    for tau, t in itertools.product((0.0015, 0.002, 0.0025, 0.0029), (1.0, 100.0)):
        got = meter_qfi_grid(tau, t, 2.0, psi0)
        assert got > 0.0
        assert got == pytest.approx(oracles.agreed_mp(oracles.meter_qfi_mp, tau, t, 2.0),
                                    rel=1e-13, abs=0), (tau, t)


def test_jordan_sld_solves_the_lyapunov_equation():
    rng = np.random.default_rng(5)
    for rank in (4, 2):
        rho = oracles.random_density_matrix(rng, 4, rank)
        drho = oracles.random_hermitian(rng, 4)
        if rank < 4:  # keep the derivative inside the support
            p, u = np.linalg.eigh(rho)
            keep = u[:, p > 1e-12]
            drho = keep @ keep.conj().T @ drho @ keep @ keep.conj().T
        q, (u, l_eig, w) = _jordan_qfi(rho[None, None], drho[None, None], sld=True)
        u, l_eig, w = u[0, 0], l_eig[0, 0], w[0, 0]
        uh = u.conj().T
        sld = u @ l_eig @ uh
        np.testing.assert_allclose(rho @ sld + sld @ rho, 2.0 * drho, atol=1e-12)
        # w solves any other Jordan equation on the same support
        y = drho @ drho
        x = u @ (w * (uh @ y @ u)) @ uh
        np.testing.assert_allclose(rho @ x + x @ rho, y, atol=1e-12)
        np.testing.assert_allclose(sld, sld.conj().T, atol=1e-12)
        assert q[0] == pytest.approx(np.trace(drho @ sld).real, rel=1e-12)
        assert q[0] == _jordan_qfi(rho[None, None], drho[None, None])[0]


def _state_pair(rng, n, rank, dtype):
    """A random state of the given rank and a derivative inside its support,
    real symmetric or complex Hermitian."""
    g = rng.standard_normal((n, rank))
    h = rng.standard_normal((n, n))
    if dtype is complex:
        g = g + 1j * rng.standard_normal((n, rank))
        h = h + 1j * rng.standard_normal((n, n))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    keep = np.linalg.qr(g)[0]  # the support's projector is keep keep^dag
    proj = keep @ keep.conj().T
    return rho, proj @ (h + h.conj().T) @ proj


@pytest.mark.parametrize("dtype", [float, complex])
def test_full_support_stack_matches_the_masked_route_bitwise(dtype, monkeypatch):
    # a stack with full support skips the support check; one with a Jordan
    # null space runs it. A full-support state's QFI and SLD parts must not
    # depend on which of them its stack is
    rng = np.random.default_rng(12)
    full = _state_pair(rng, 4, 4, dtype)
    deficient = _state_pair(rng, 4, 2, dtype)
    checks, check = [], qfi._check_support
    monkeypatch.setattr(qfi, "_check_support",
                        lambda *args: checks.append(args) or check(*args))
    stacks = [[full], [full, deficient], [deficient, full]]
    got = [_jordan_qfi(np.stack([r for r, _ in s])[:, None],
                       np.stack([d for _, d in s])[:, None], sld=True) for s in stacks]
    assert len(checks) == 2  # only the stacks with a null space are checked
    for (q, parts), row in zip(got, (0, 0, 1)):
        assert q[row] == got[0][0][0]
        assert q[row] == _jordan_qfi(full[0][None, None], full[1][None, None])[0]
        assert parts[0].dtype == np.dtype(dtype)  # u: the real or the complex eigensolve
        for part, alone in zip(parts, got[0][1]):
            assert part[row].tobytes() == alone[0].tobytes()
    # the rank-deficient state's QFI, w and l have the bytes of the masked
    # formula, which leaves the Jordan null space out of both divisions
    for (q, (_, l, w)), row, stack in zip(got[1:], (1, 0), stacks[1:]):
        p, u = np.linalg.eigh(np.stack([r for r, _ in stack])[:, None])
        e = (u.conj() if dtype is complex else u).swapaxes(-1, -2) @ np.stack(
            [d for _, d in stack])[:, None] @ u
        weights = e * e if dtype is float else np.abs(e) ** 2
        denom = p[..., :, None] + p[..., None, :]
        support = denom > qfi._RANK_TOL * (2.0 * p.max(axis=(-2, -1)))[:, None, None, None]
        assert not support[row].all() and support[1 - row].all()
        terms = np.divide(weights, denom, out=np.zeros_like(weights), where=support)
        masked_w = np.divide(1.0, denom, out=np.zeros_like(denom), where=support)
        assert q[row] == np.maximum(2.0 * terms.sum(axis=(-3, -2, -1)), 0.0)[row]
        assert w[row].tobytes() == masked_w[row].tobytes()
        assert l[row].tobytes() == (2.0 * masked_w * e)[row].tobytes()
    # the masked route still finds a derivative that leaves the support
    rho, _ = deficient
    with pytest.raises(SupportError):
        _jordan_qfi(np.stack([full[0], rho, full[0]])[:, None],
                    np.stack([full[1], full[1], full[1]])[:, None])


def test_meter_qfi_grid_matches_pointwise():
    taus = np.array([0.03, 0.12, 0.25, 0.8])
    ts = np.array([0.0, 0.4, 20.0, 3e4, math.inf])[:, None]
    # the last case is palindromic on a symmetric spectrum: the real route
    for n, c in ((2, [0.6, 0.8]), (4, [0.1, 0.5, 0.3, np.sqrt(0.65)]),
                 (5, [0.3, 0.4, np.sqrt(0.5), 0.4, 0.3])):
        psi0 = np.array(c)
        grid = meter_qfi_grid(taus, ts, 1.5, psi0)
        joint = joint_qfi_grid(taus, ts, 1.5, psi0)
        assert grid.shape == joint.shape == (5, 4)
        for i, t in enumerate(ts.ravel()):
            for j, tau in enumerate(taus):
                assert grid[i, j] == pytest.approx(
                    meter_qfi_grid(tau, t, 1.5, psi0), rel=1e-12, abs=1e-300)
                assert joint[i, j] == pytest.approx(
                    joint_qfi_grid(tau, t, 1.5, psi0), rel=1e-12, abs=1e-300)
        # one preparation per grid point
        per_point = np.broadcast_to(psi0, (5, 4, n))
        np.testing.assert_array_equal(
            meter_qfi_grid(taus, ts, 1.5, per_point), grid)
        np.testing.assert_array_equal(
            joint_qfi_grid(taus, ts, 1.5, per_point), joint)
        # Omega is a grid axis: one call over two couplings is two calls
        both = meter_qfi_grid(taus[:, None], ts[..., None], np.array([1.5, 0.5]), psi0)
        np.testing.assert_array_equal(both[..., 0], grid)
        np.testing.assert_array_equal(both[..., 1],
                                      meter_qfi_grid(taus, ts, 0.5, psi0))
    with pytest.raises(ValueError):
        meter_qfi_grid(taus, -1.0, 1.5, psi0)
    # n is the length of psi0, which must give a meter at least two levels
    for bad in ([1.0], 1.0):
        with pytest.raises(ValueError, match="psi0"):
            meter_qfi_grid(taus, 1.0, 1.5, bad)
    # M = -Omega S_x is the mirrored ladder, with the conjugate blocks
    np.testing.assert_allclose(meter_qfi_grid(taus, ts, -1.5, psi0), grid,
                               rtol=1e-12, atol=1e-300)
    with pytest.raises(FloatingPointError, match="Omega=inf"):
        meter_qfi_grid(taus, 1.0, math.inf, psi0)


def test_joint_qfi_sector_sum_matches_dense():
    # temperatures where the joint state's smallest eigenvalues sit far above
    # double roundoff: below tau ~ 0.05 they reach 1e-12..1e-18 and any double
    # eigensolve, dense or per sector, fixes them only to ~1e-17 absolute.
    # At the non-dyadic Omega = 1.3 the oracle's gaps lambda_m - lambda_m'
    # round apart from the package's -1.3 k (n >= 4), which once split them
    rng = np.random.default_rng(7)
    for n, omega in ((2, 2.0), (5, 2.0), (9, 2.0), (4, 1.3)):
        meter = spin_x_spectrum(n, omega)
        c = rng.random(n) + 0.05
        psi0 = c / np.linalg.norm(c)
        for tau in (0.15, 0.3, 0.9):
            for t in (0.3, 5.0, 200.0):
                dense = one_state_qfi(*oracles.joint_state(tau, meter, psi0, t))
                assert joint_qfi_grid(tau, t, omega, psi0) == pytest.approx(
                    dense, rel=1e-12)
    # at t = inf the joint state keeps only the sensor populations
    assert joint_qfi_grid(0.3, math.inf, omega, psi0) == pytest.approx(
        steady_sensor_qfi(0.3), rel=1e-12)


def test_sector_sum_cutoff_and_support_follow_the_whole_state():
    rng = np.random.default_rng(8)
    big = oracles.random_density_matrix(rng, 3)
    tiny = 1e-14 * oracles.random_density_matrix(rng, 3)  # below the joint cutoff only
    d_big = oracles.random_hermitian(rng, 3)
    d_tiny = 1e-14 * oracles.random_hermitian(rng, 3)
    dense = one_state_qfi(np.block([[big, np.zeros((3, 3))], [np.zeros((3, 3)), tiny]]),
                        np.block([[d_big, np.zeros((3, 3))], [np.zeros((3, 3)), d_tiny]]))
    sectors = _jordan_qfi(np.stack([big, tiny]), np.stack([d_big, d_tiny]))
    assert float(sectors) == pytest.approx(dense, rel=1e-12)
    assert dense == pytest.approx(one_state_qfi(big, d_big), rel=1e-12)
    # a derivative on a sector with no support is out of support for both
    zero = np.zeros((3, 3))
    with pytest.raises(SupportError):
        one_state_qfi(np.block([[big, zero], [zero, zero]]),
                    np.block([[d_big, zero], [zero, np.eye(3)]]))
    with pytest.raises(SupportError):
        _jordan_qfi(np.stack([big, zero]), np.stack([d_big, np.eye(3)]))


def test_overflowing_blocks_raise():
    # tau = 1e200 (N ~ 1e200) overflows the sector blocks, which came back
    # as nan from the meter route and as a silent 0 from the joint eigensolve
    psi0 = equal_superposition(3)
    for grid in (meter_qfi_grid, joint_qfi_grid):
        with pytest.raises(FloatingPointError, match="overflow"):
            grid([0.2, 1e200], 1.0, 2.0, psi0)


# t = inf with tau = 1e-3, where N = 0 freezes the blocks; Omega = 0 makes
# every gap zero, and 1.3 once split the ladder's gaps by rounding
_LIMIT_TAUS = np.array([1e-3, 0.2, 1.0])
_LIMIT_TS = np.array([1e-3, 1.0, math.inf])[:, None]


@pytest.mark.parametrize("n", [2, 5, 13])
@pytest.mark.parametrize("omega", [0.0, 1.3])
def test_grid_blocks_match_sector_blocks_at_every_gap(n, omega, monkeypatch):
    # the zero gap is built from bath.relaxation outside sector_blocks, and
    # must come out as sector_blocks gives it: bitwise, in kernel chunks that
    # tile the grid in order
    taus, ts = _LIMIT_TAUS, _LIMIT_TS
    shape = (3, 3)
    n_bar = np.broadcast_to(bose_occupation(taus), shape).ravel()[:, None]
    dn = np.broadcast_to(d_occupation_dT(taus), shape).ravel()[:, None]
    t = np.broadcast_to(ts, shape).ravel()[:, None]
    ref = sector_blocks(n_bar, dn, -omega * np.arange(n), t)
    for entries in (1, 14, qfi._CHUNK_ENTRIES):
        monkeypatch.setattr(qfi, "_CHUNK_ENTRIES", entries)
        chunks = []

        def record(blocks, c):
            # each point's output is its place in the order of the calls; the
            # meter arrives as one row for every point of the chunk
            assert c.shape == (1, n)
            done = sum(len(b.x) for b in chunks)
            chunks.append(blocks)
            return (done + np.arange(len(blocks.x)),)

        order, = qfi._on_grid(record, taus, ts, omega, equal_superposition(n))
        np.testing.assert_array_equal(order, np.arange(9).reshape(shape))
        # block chunks of `span` points, each run in kernel chunks of `step`
        span, step = max(1, entries // n), max(1, entries // (n * n))
        sizes = [min(step, lo + span - a, 9 - a)
                 for lo in range(0, 9, span) for a in range(lo, min(lo + span, 9), step)]
        for k, want in enumerate(ref):
            got = np.concatenate([b[k] for b in chunks])
            assert [len(b[k]) for b in chunks] == sizes
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [2, 5, 13])
@pytest.mark.parametrize("omega", [0.0, 1.3])
def test_chunks_leave_every_point_unchanged(n, omega, monkeypatch):
    psi0 = equal_superposition(n)
    taus, ts = _LIMIT_TAUS, _LIMIT_TS
    whole = [grid(taus, ts, omega, psi0) for grid in (meter_qfi_grid, joint_qfi_grid)]
    # one point per chunk; then at n = 2, Omega = 1.3 block chunks of 7 points
    # split into eigensolve chunks of 3, 3 and 1
    for entries in (1, 14):
        monkeypatch.setattr(qfi, "_CHUNK_ENTRIES", entries)
        for grid, want in zip((meter_qfi_grid, joint_qfi_grid), whole):
            np.testing.assert_array_equal(grid(taus, ts, omega, psi0), want)


@pytest.mark.parametrize("entries", [14, qfi._CHUNK_ENTRIES])
def test_joint_and_meter_columns_share_one_block_evaluation(entries, monkeypatch):
    # the two columns of `compare`: bitwise the two one-column calls, from
    # the sector blocks of one evaluation per chunk
    monkeypatch.setattr(qfi, "_CHUNK_ENTRIES", entries)
    calls = []
    blocks = qfi.sector_blocks
    monkeypatch.setattr(qfi, "sector_blocks",
                        lambda *args: calls.append(1) or blocks(*args))
    taus, ts = np.geomspace(0.12, 1.0, 7), np.array([1.0, 20.0, math.inf])[:, None]
    omegas = np.array([0.5, 2.0])[:, None, None]
    rng = np.random.default_rng(5)
    # the last case is a tuple of meters on the leading axis of Omega
    for psi0 in (equal_superposition(2), equal_superposition(4),
                 _palindromic(rng, 5), np.array([0.3, 0.9, 0.5]) / math.sqrt(1.15),
                 tuple(equal_superposition(n) for n in (2, 3))):
        calls.clear()
        joint, meter = joint_and_meter_qfi_grid(taus, ts, omegas, psi0)
        shared = len(calls)
        calls.clear()
        want = (joint_qfi_grid(taus, ts, omegas, psi0),
                meter_qfi_grid(taus, ts, omegas, psi0))
        assert len(calls) == 2 * shared
        for got, ref in zip((joint, meter), want):
            assert got.shape == ref.shape and got.tobytes() == ref.tobytes()


def _palindromic(rng, n):
    c = rng.random(n) + 0.05
    c = c + c[::-1]
    return c / np.linalg.norm(c)


def _one_ulp_off(c):
    """c with its first coefficient one ulp larger: no longer palindromic."""
    c = c.copy()
    c[0] = np.nextafter(c[0], 1.0)
    return c


@pytest.mark.parametrize("n", [3, 4, 7, 13])
def test_real_route_matches_the_dense_complex_oracle(n):
    # a palindromic state takes the real form (the ladder is symmetric); the
    # oracle eigensolves the same states as dense complex matrices. Where
    # rho is nearly pure (tau ~ 0.1 and below, ROADMAP item 1) no double
    # eigensolve is accurate: at n = 3, tau = 0.06, t = 0.3 both package
    # routes are 4.7e-5 off a 50-digit joint QFI and the oracle 7e-6, and
    # QFIs below ~1e-4 keep only an absolute accuracy of ~1e-11. Below
    # tau = 0.24 the real route must stay as close to the oracle as the
    # complex route, run on a state one ulp away, up to 1e-7 relative and
    # 1e-9 of the largest QFI; at the non-dyadic Omega = 1.3 too, whose
    # oracle gaps lambda_m - lambda_m' round apart from the package's -1.3 k
    rng = np.random.default_rng(60 + n)
    taus = np.geomspace(0.06, 1.0, 5)
    ts = np.array([0.3, 20.0, 3e4, math.inf])

    def joint(tau, t):
        return oracles.joint_state(tau, meter, psi0, t)

    def reduced(tau, t):
        return [oracles.partial_trace_sensor(v) for v in joint(tau, t)]

    for omega, psi0 in itertools.product(
            (2.0, 1.3), (equal_superposition(n), _palindromic(rng, n))):
        meter = spin_x_spectrum(n, omega)
        for grid, state in ((meter_qfi_grid, reduced), (joint_qfi_grid, joint)):
            ref = np.array([[oracles.qfi_reference(*state(tau, t)) for tau in taus]
                            for t in ts])
            real = grid(taus, ts[:, None], omega, psi0)
            cplx = grid(taus, ts[:, None], omega, _one_ulp_off(psi0))
            np.testing.assert_allclose(real[:, 2:], ref[:, 2:], rtol=1e-8, atol=1e-300)
            slack = 1e-7 * np.abs(ref) + 1e-9 * ref.max() + np.abs(cplx - ref)
            assert np.all(np.abs(real - ref) <= slack)


@pytest.mark.parametrize("n", [2, 4, 7])
def test_one_ulp_off_palindromic_takes_the_complex_route(n, monkeypatch):
    # a spy on the eigensolve: the symmetric case must not fall back to the
    # complex route unnoticed; the two-level meter QFI is the closed form, so
    # n = 2 checks the joint QFI alone
    solved, eigh = [], np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: solved.append(a.dtype) or eigh(a))
    c = _palindromic(np.random.default_rng(n), n)
    off = _one_ulp_off(c)
    taus = np.array([0.06, 0.12, 0.3, 1.0])
    ts = np.array([0.3, 20.0, 3e4])[:, None]
    for grid in (joint_qfi_grid,) if n == 2 else (meter_qfi_grid, joint_qfi_grid):
        solved.clear()
        real = grid(taus, ts, 2.0, c)
        assert solved and all(d == np.float64 for d in solved)
        solved.clear()
        cplx = grid(taus, ts, 2.0, off)
        assert solved and all(d == np.complex128 for d in solved)
        # the two eigensolves differ by roundoff, amplified where rho is
        # nearly pure (tau = 0.06)
        np.testing.assert_allclose(real[:, 1:], cplx[:, 1:], rtol=1e-9)
        np.testing.assert_allclose(real[:, 0], cplx[:, 0], rtol=1e-7)


def test_several_meters_in_one_call_match_one_meter_calls(monkeypatch):
    # meters of 13, 2 and 5 levels, one 5-level meter palindromic and one a
    # ulp off, so both routes run in one call: on a grid shared by every
    # meter (leading axis 1) and on one slab of points per meter (leading
    # axis 4), each meter's QFIs equal its one-meter call bitwise at any
    # chunk size, and a call evaluates the sector blocks once
    five = _palindromic(np.random.default_rng(5), 5)
    meters = (equal_superposition(13), equal_superposition(2),
              five, _one_ulp_off(five))
    taus, ts = _LIMIT_TAUS, _LIMIT_TS
    slab_taus = np.geomspace(0.1, 1.0, 12).reshape(4, 1, 3)
    solved, eigh = set(), np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh",
                        lambda a: solved.add((a.dtype.type, a.shape[-1])) or eigh(a))
    real, blocks = qfi.sector_blocks, []
    monkeypatch.setattr(qfi, "sector_blocks",
                        lambda *args: blocks.append(1) or real(*args))
    for grid in (meter_qfi_grid, joint_qfi_grid):
        alone = [grid(taus, ts, 1.3, m) for m in meters]
        per_slab = [grid(slab_taus[s], ts, 1.3, m) for s, m in enumerate(meters)]
        for entries in (1, 14, qfi._CHUNK_ENTRIES):
            monkeypatch.setattr(qfi, "_CHUNK_ENTRIES", entries)
            blocks.clear(), solved.clear()
            shared = grid(taus, ts[None], 1.3, meters)
            assert {(np.float64, 13), (np.float64, 5), (np.complex128, 5)} <= solved
            slabs = grid(slab_taus, ts[None], 1.3, meters)
            assert shared.shape == slabs.shape == (4, 3, 3)
            for s in range(len(meters)):
                np.testing.assert_array_equal(shared[s], alone[s])
                np.testing.assert_array_equal(slabs[s], per_slab[s])
        assert len(blocks) == 2
    with pytest.raises(ValueError, match="leading axis"):
        meter_qfi_grid(slab_taus[:3], ts[None], 1.3, meters)


@pytest.mark.parametrize("n", [2, 5, 13])
@pytest.mark.parametrize("omega", [0.0, 1.3])
def test_meters_sharing_points_match_their_own_calls(n, omega, monkeypatch):
    # three meters with one slab of points each: a tau in all three slabs,
    # one in two, one repeated within its slab, and t = inf. A call of
    # several meters evaluates the sector blocks once per distinct point of
    # each chunk and copies them to its repeats; each meter's QFIs must
    # equal its own one-meter call bitwise, and at entries = 14 the chunks of
    # 7 (n = 2) and 2 (n = 5) points cut across the slabs
    rng = np.random.default_rng(n)
    meters = (equal_superposition(n), _one_ulp_off(_palindromic(rng, n)),
              equal_superposition(2))
    taus = np.array([[0.2, 1e-3, 0.2], [0.2, 1.0, 0.5], [1e-3, 1.0, 0.2]])[:, None]
    ts = np.array([1e-3, 1.0, math.inf])[:, None]
    real, rows = qfi.sector_blocks, []
    monkeypatch.setattr(qfi, "sector_blocks",
                        lambda *args: rows.append(args[0].shape[0]) or real(*args))
    points = list(zip(*(np.broadcast_to(v, (3, 3, 3)).ravel() for v in (taus, ts))))
    own = [(joint_qfi_grid(taus[s], ts, omega, m), meter_qfi_grid(taus[s], ts, omega, m))
           for s, m in enumerate(meters)]
    for entries in (1, 14, qfi._CHUNK_ENTRIES):
        monkeypatch.setattr(qfi, "_CHUNK_ENTRIES", entries)
        rows.clear()
        meter = meter_qfi_grid(taus, ts, omega, meters)
        span = max(1, entries // n)
        assert rows == [len(set(points[lo:lo + span])) for lo in range(0, 27, span)]
        both = joint_and_meter_qfi_grid(taus, ts, omega, meters)
        for s in range(3):
            for got, want in zip((*both, meter), (*own[s], own[s][1])):
                assert got[s].tobytes() == want.tobytes()


def test_overflow_in_shared_blocks_names_the_first_grid_point(monkeypatch):
    # two meters share one slab holding tau = 1e200 and 1e250, which
    # overflow the sector blocks at both times. The first of them in grid
    # order (time outer) is tau = 1e250 at t = 3; the distinct points of a
    # chunk are evaluated sorted, where (1e200, 1) comes third
    meters = (equal_superposition(2), equal_superposition(5))
    taus, ts = np.array([0.2, 1e250, 1e200, 0.3]), np.array([3.0, 1.0])[:, None]
    for entries in (1, 14, qfi._CHUNK_ENTRIES):
        monkeypatch.setattr(qfi, "_CHUNK_ENTRIES", entries)
        for grid in (meter_qfi_grid, joint_and_meter_qfi_grid):
            with pytest.raises(FloatingPointError, match=re.escape(
                    "sector blocks overflow double precision at tau=1e+250, t=3, "
                    "Omega=2")):
                grid(taus, ts[None], 2.0, meters)


@pytest.mark.parametrize("entries", [1, qfi._CHUNK_ENTRIES])
def test_joint_overflow_is_reported_before_an_earlier_meter_overflow(entries, monkeypatch):
    # the outputs are checked in order after the whole grid: a joint QFI
    # that overflows from tau = 0.4 is named before a meter QFI that
    # overflows from tau = 0.2, an earlier grid point. A kernel returns inf
    # where the zero gap's excited population passes that of the midpoint
    # temperature, as no input reaches a QFI overflow with finite blocks
    monkeypatch.setattr(qfi, "_CHUNK_ENTRIES", entries)
    taus = np.array([0.1, 0.2, 0.3, 0.4, 0.5])
    for name, tau in (("_meter_kernel", 0.15), ("_joint_kernel", 0.35)):
        real, cut = getattr(qfi, name), excited_population(tau, 1.0)
        monkeypatch.setattr(qfi, name, lambda blocks, c, real=real, cut=cut: np.where(
            blocks.x[:, 0].real > cut, np.inf, real(blocks, c)))
    for n in (2, 3):
        with pytest.raises(FloatingPointError, match=re.escape(
                "QFI overflows double precision at tau=0.4, t=1, Omega=2")):
            joint_and_meter_qfi_grid(taus, 1.0, 2.0, equal_superposition(n))
        with pytest.raises(FloatingPointError, match=re.escape(
                "QFI overflows double precision at tau=0.2, t=1, Omega=2")):
            meter_qfi_grid(taus, 1.0, 2.0, equal_superposition(n))


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_route_is_chosen_per_point(n, monkeypatch):
    # one non-palindromic meter among 127 equal superpositions once sent the
    # whole call to the complex route, which moved the other points by up to
    # 2.5e-7 relative: the call runs both layouts, and every point must equal
    # its own call bitwise
    taus = np.geomspace(0.05, 1.0, 8)[:, None]
    ts = np.geomspace(1.0, 1e3, 16)
    c = np.broadcast_to(equal_superposition(n), (8, 16, n)).copy()
    c[3, 5] = np.arange(1.0, n + 1.0) / math.sqrt(n * (n + 1) * (2 * n + 1) / 6)
    solved, eigh = set(), np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: solved.add(a.dtype.type) or eigh(a))
    joint, meter = joint_and_meter_qfi_grid(taus, ts, 2.0, c)
    assert solved == {np.float64, np.complex128}
    for grid, values in ((joint_qfi_grid, joint), (meter_qfi_grid, meter)):
        alone = [[grid(taus[i, 0], ts[j], 2.0, c[i, j]) for j in range(16)]
                 for i in range(8)]
        np.testing.assert_array_equal(values, alone)


@pytest.mark.parametrize("n", [2, 3, 6])
def test_both_layouts_against_mpmath_sectors(n):
    # a palindromic meter takes the real layout and its one-ulp-off twin the
    # complex one; both against sectors assembled and eigensolved in mpmath
    # (40 and 55 digits agreeing). The two-level meter QFI is the closed
    # form, so n = 2 checks the joint QFI alone. Nearer purity (ROADMAP item
    # 1) both layouts lose more: at n = 6, gamma t = 0.3 the meter QFI is
    # 4.7e-8 off at tau = 0.1, and the joint QFI 1.0e-9 off at tau = 0.15
    c = _palindromic(np.random.default_rng(n), n)
    grids = [(joint_qfi_grid, oracles.joint_qfi_mp)]
    if n > 2:
        grids.append((meter_qfi_grid, oracles.meter_qfi_mp_n))
    for tau, t in ((0.2, 0.3), (0.2, 5.0), (0.6, 0.3), (0.6, 100.0)):
        for psi0, (grid, reference) in itertools.product((c, _one_ulp_off(c)), grids):
            want = oracles.agreed_mp(reference, tau, t, 2.0, psi0, digits=(40, 55))
            assert grid(tau, t, 2.0, psi0) == pytest.approx(want, rel=1e-10, abs=0), (
                tau, t, grid.__name__)


def test_empty_grids_return_empty_outputs():
    # a grid of no point gives every output of its call, empty, with the
    # grid's shape and the output's dtype
    three = equal_superposition(3)
    joint, meter = joint_and_meter_qfi_grid(np.full((0, 2), 0.2), 1.0, 2.0, three)
    assert joint.shape == meter.shape == (0, 2) and joint.dtype == meter.dtype == float
    assert meter_qfi_grid(0.2, 1.0, 2.0, np.zeros((0, 3)) + three).shape == (0,)
    pair = (three, equal_superposition(2))
    assert joint_qfi_grid(np.ones((1, 0)), 1.0, 2.0, pair).shape == (2, 0)
