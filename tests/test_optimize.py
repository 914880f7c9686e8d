import math
import warnings

import numpy as np
import pytest

import oracles
from thermoq import optimize
from thermoq.bath import bose_occupation, d_occupation_dT, sensor_qfi, steady_sensor_qfi
from thermoq.dynamics import MeterSpec, MeterState, meter_blocks, spin_x_spectrum
from thermoq.optimize import (bures_distance_pure, dimension_scaling, find_t_max,
                              optimize_initial_state)
from thermoq.qfi import meter_qfi_grid


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
    tau = 0.2
    meter = spin_x_spectrum(2, 2.0)
    c, report = optimize_initial_state(tau, meter, 10.0, tol=1e-7)
    np.testing.assert_allclose(c, [1.0 / math.sqrt(2.0)] * 2, atol=1e-4)
    equal_value = meter_qfi_grid(0.2, 10.0, meter, MeterState.equal_superposition(2))
    assert report.value >= equal_value - 1e-6 * equal_value
    assert report.converged
    assert report.iterations > 0


def test_optimize_is_deterministic_for_fixed_seed():
    tau = 0.3
    meter = spin_x_spectrum(3, 1.0)
    first = optimize_initial_state(tau, meter, 5.0, seed=7)
    second = optimize_initial_state(tau, meter, 5.0, seed=7)
    np.testing.assert_array_equal(first[0], second[0])
    assert first[1] == second[1]


def test_optimize_beats_every_neighbor():
    tau = 0.2
    meter = spin_x_spectrum(3, 2.0)
    c, report = optimize_initial_state(tau, meter, 10.0, tol=1e-7, n_starts=4)
    rng = np.random.default_rng(61)
    for _ in range(12):
        delta = rng.standard_normal(3) * 1e-3
        trial = np.abs(c + delta)
        trial = trial / np.linalg.norm(trial)
        trial_value = meter_qfi_grid(0.2, 10.0, meter, MeterState(trial))
        assert trial_value <= report.value + 1e-7 * report.value


def test_optimize_profile_is_symmetric():
    # the spin-x ladder is symmetric under level reversal, and so is the optimum
    c, _ = optimize_initial_state(0.2, spin_x_spectrum(3, 2.0), 10.0, tol=1e-7)
    np.testing.assert_allclose(c, c[::-1], atol=1e-3)


def test_optimize_validates_arguments():
    meter = spin_x_spectrum(2, 1.0)
    with pytest.raises(ValueError):
        optimize_initial_state(0.2, meter, 1.0, tol=0.0)
    with pytest.raises(ValueError):
        optimize_initial_state(0.2, meter, 1.0, n_starts=0)


# the last point has Q ~ 1e-265, whose squared gradient underflows
@pytest.mark.parametrize("n, tau, t", [(4, 0.2, 1.0), (4, 0.2, 20.0), (3, 0.2, 10.0),
                                       (4, 1.0, 1000.0)])
def test_optimize_matches_nelder_mead_reference(n, tau, t):
    meter = spin_x_spectrum(n, 2.0)
    _, report = optimize_initial_state(tau, meter, t)
    _, reference, _ = oracles.nelder_mead_initial_state(tau, meter, t)
    assert report.value >= reference - 1e-9 * report.value
    assert report.value == pytest.approx(reference, rel=1e-6)
    assert report.converged and report.residual <= 1e-6


def test_optimize_report_value_and_residual():
    # down to tau = 0.05, where roundoff in the near-pure meter state can keep
    # the residual above tol; the report must say so either way
    for n, tau, t in ((2, 0.3, 2.0), (3, 0.2, 1.0), (6, 0.05, 1.0), (5, 0.5, 300.0),
                      (6, 0.1, 30.0)):
        meter = spin_x_spectrum(n, 2.0)
        c, report = optimize_initial_state(tau, meter, t, tol=1e-5)
        assert report.value == pytest.approx(meter_qfi_grid(tau, t, meter, c),
                                             rel=1e-12)
        assert report.converged == (report.residual <= 1e-5)
        assert report.value >= meter_qfi_grid(
            tau, t, meter, MeterState.equal_superposition(n)) * (1 - 1e-9)


def test_optimize_without_temperature_information():
    # t = 0, t = inf and a gapless meter: the QFI vanishes for every state,
    # and the equal superposition comes back as converged
    cases = ((spin_x_spectrum(4, 2.0), 0.0), (spin_x_spectrum(4, 2.0), math.inf),
             (MeterSpec(lambdas=(0.5, 0.5, 0.5)), 10.0))
    for meter, t in cases:
        c, report = optimize_initial_state(0.2, meter, t)
        np.testing.assert_array_equal(
            c, MeterState.equal_superposition(meter.n).coefficients)
        assert report.value == 0.0
        assert report.converged and report.residual == 0.0
        assert report.iterations == 0
    with pytest.raises(ValueError):
        optimize_initial_state(0.2, spin_x_spectrum(2, 1.0), -1.0)


@pytest.mark.parametrize("n", [3, 4, 6])
@pytest.mark.parametrize("tau", [0.1, 0.2, 1.0])
@pytest.mark.parametrize("t", [1.0, 30.0])
def test_ascent_gradient_and_hessian_match_central_differences(n, tau, t):
    meter = spin_x_spectrum(n, 2.0)
    blocks = meter_blocks(bose_occupation(tau), d_occupation_dT(tau), 1.0, meter, t)
    coh, dcoh = blocks.x + blocks.y, blocks.dx + blocks.dy

    def terms(cs):
        _, parts = optimize._sld(coh, dcoh, cs)
        return optimize._ascent_terms(coh, dcoh, cs, *parts)

    def gradient(cs):
        return 2.0 * (terms(cs)[0] @ cs[..., None])[..., 0]

    rng = np.random.default_rng(17 + n)
    for _ in range(3):
        c = rng.random(n) + 0.05
        c /= np.linalg.norm(c)
        # the gradient 2 G c against differences of the package's QFI
        h = 1e-4
        steps = [meter_qfi_grid(tau, t, meter, c + s * h * e)
                 for e in np.eye(n) for s in (1.0, -1.0)]
        reference = (np.array(steps[0::2]) - np.array(steps[1::2])) / (2.0 * h)
        np.testing.assert_allclose(gradient(c[None])[0], reference, rtol=1e-6,
                                   atol=1e-6 * np.abs(reference).max())
        reference = oracles.central_difference_hessian(gradient, c)
        hess = terms(c[None])[1][0]
        np.testing.assert_allclose(hess, reference, rtol=1e-6,
                                   atol=1e-6 * np.abs(reference).max())


def test_optimize_grid_matches_single_points():
    # one lockstep call over a grid comes out bitwise as the single-point
    # calls: every start stops on its own tests, and every stacked kernel
    # rounds each matrix independently of the batch. The cases: t = 0 and
    # t = inf (Q = 0 for every state), and the low-tau half of the CLI
    # default grid, where starts tie and where a G kept as a strided .real
    # view makes 512 ascents round differently from 8 (matmul rounds by layout)
    for n, taus, ts in ((4, [0.05, 0.2, 1.0], [0.0, 1.0, 20.0, math.inf]),
                        (6, np.geomspace(0.05, 1.0, 16)[:8], np.geomspace(1.0, 1e3, 8))):
        meter = spin_x_spectrum(n, 2.0)
        taus, ts = np.asarray(taus), np.asarray(ts)[:, None]
        coefficients, report = optimize_initial_state(taus, meter, ts, tol=1e-5)
        assert coefficients.shape == (ts.size, taus.size, n)
        for field in ("value", "converged", "residual"):
            assert getattr(report, field).shape == (ts.size, taus.size)
        iterations = 0
        for i, t in enumerate(ts[:, 0]):
            for j, tau in enumerate(taus):
                c, alone = optimize_initial_state(tau, meter, t, tol=1e-5)
                np.testing.assert_array_equal(coefficients[i, j], c)
                assert alone.value == report.value[i, j]
                iterations += alone.iterations
                assert alone.converged == report.converged[i, j]
                assert alone.residual == report.residual[i, j]
        assert report.iterations == iterations


def test_optimize_chunks_leave_every_point_unchanged(monkeypatch):
    meter = spin_x_spectrum(3, 2.0)
    taus, ts = np.array([0.1, 0.3, 0.9]), np.array([2.0, 40.0])[:, None]
    whole = optimize_initial_state(taus, meter, ts, seed=4)
    monkeypatch.setattr(optimize, "_ASCENT_ENTRIES", 1)  # one point per chunk
    chunked = optimize_initial_state(taus, meter, ts, seed=4)
    np.testing.assert_array_equal(chunked[0], whole[0])
    for field in ("value", "iterations", "converged", "residual"):
        np.testing.assert_array_equal(getattr(chunked[1], field), getattr(whole[1], field))


def test_optimize_eigensolves_do_not_grow_with_the_grid(monkeypatch):
    # lockstep: one point and 16 copies of it make the same eigh calls
    real, calls = np.linalg.eigh, []

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    meter = spin_x_spectrum(4, 2.0)
    c, report = optimize_initial_state(0.2, meter, 1.0)
    single = len(calls)
    coefficients, copies = optimize_initial_state(np.full(16, 0.2), meter, 1.0)
    assert len(calls) - single == single <= 2 * optimize._MAX_STEPS + 2
    np.testing.assert_array_equal(coefficients, np.tile(c, (16, 1)))
    assert copies.iterations == 16 * report.iterations


def test_pick_start_prefers_a_converged_tie():
    band = optimize._TIE_BAND
    q = np.array([[1.0, 1.0 - 0.5 * band, 1.0 - 0.2 * band, 0.5],
                  [1.0, 1.0 - 2.0 * band, 0.9, 0.9],
                  [2.0, 2.0, 1.0, 1.0],
                  [0.0, 0.0, 0.0, 0.0]])
    converged = np.array([[False, True, True, True],   # best converged tie
                          [False, True, True, False],  # outside the band
                          [True, True, True, True],    # equal: first start
                          [True, True, True, True]])   # Q = 0: first start
    np.testing.assert_array_equal(optimize._pick_start(q, converged), [2, 0, 0, 0])


def test_find_t_max_frozen_values():
    meter = spin_x_spectrum(2, 2.0)
    psi0 = MeterState.equal_superposition(2)
    tau, q, edge = find_t_max(meter, psi0, 100.0)
    assert abs(tau - 0.18177709151624774) < 1e-3
    assert q == pytest.approx(119.74138467601784, rel=1e-5)
    assert not edge
    tau20, q20, _ = find_t_max(meter, psi0, 20.0)
    assert abs(tau20 - 0.22469196293487026) < 1e-3
    assert q20 == pytest.approx(33.085229431406006, rel=1e-5)


def test_find_t_max_sensor_only_paths():
    # a meter with a flat spectrum reduces to the bare steady sensor, whose
    # optimum is tau* = 0.2421
    flat = MeterSpec(lambdas=(0.0, 0.0))
    tau_flat, q_flat, _ = find_t_max(flat, MeterState.equal_superposition(2),
                                     math.inf)
    assert abs(tau_flat - 0.2420911156630688) < 1e-3
    assert q_flat == pytest.approx(4.532165450546346, rel=1e-5)
    assert q_flat == pytest.approx(steady_sensor_qfi(tau_flat), rel=1e-6)


def test_find_t_max_boundary_maximum():
    meter = spin_x_spectrum(2, 2.0)
    psi0 = MeterState.equal_superposition(2)
    tau, _, edge = find_t_max(meter, psi0, 100.0, tau_range=(0.3, 1.0))
    assert tau == pytest.approx(0.3, abs=1e-12)
    assert edge


def test_find_t_max_edge_rows_are_data_under_warnings_as_errors():
    # the edge row at t = 1e10 neither raises nor drops the interior row
    meter, psi0 = spin_x_spectrum(2, 2.0), MeterState.equal_superposition(2)
    times = np.array([100.0, 1e10])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tau_max, q, edge = find_t_max(meter, psi0, times)
    np.testing.assert_array_equal(edge, [False, True])
    assert tau_max[1] == 0.05
    assert (tau_max[0], q[0], edge[0]) == find_t_max(meter, psi0, 100.0)


def test_find_t_max_validates_range():
    meter = spin_x_spectrum(2, 2.0)
    psi0 = MeterState.equal_superposition(2)
    with pytest.raises(ValueError):
        find_t_max(meter, psi0, 10.0, tau_range=(0.5, 0.1))
    with pytest.raises(ValueError):
        find_t_max(meter, psi0, 10.0, tau_range=(0.0, 0.5))


def _golden_section_reference(objective, lo, hi, rel_tol=1e-4, n_grid=200):
    """One T_max search at one time by another method: the scan, the edge
    return, and the golden section with ties toward smaller tau. Returns
    (tau_max, qfi_at_max, edge)."""
    grid = np.geomspace(lo, hi, n_grid)
    values = objective(grid)
    i = int(np.argmax(values))
    if i == 0 or i == n_grid - 1:
        return float(grid[i]), float(values[i]), True
    a, b = float(grid[i - 1]), float(grid[i + 1])
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = b - invphi * (b - a), a + invphi * (b - a)
    fc, fd = objective(c), objective(d)
    while (b - a) > rel_tol * 0.5 * (a + b):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = objective(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = objective(d)
    return (c, float(fc), False) if fc >= fd else (d, float(fd), False)


def _assert_near_reference(found, reference, rel_tol=1e-4):
    # both searches stop at a bracket of relative width rel_tol around the
    # same maximum, where the QFI is flat to second order
    tau, q, edge = found
    tau_ref, q_ref, edge_ref = reference
    assert edge == edge_ref
    assert abs(tau - tau_ref) <= rel_tol * tau_ref
    assert abs(q - q_ref) <= 1e-7 * q_ref


def _counting(monkeypatch, name, limit=100):
    """Replace optimize.<name> by a wrapper that records the shape of each
    call's tau argument; the list it returns fills as the wrapper runs. A
    search that does not stop fails after `limit` calls instead of hanging."""
    real, calls = getattr(optimize, name), []

    def counted(taus, *args, **kwargs):
        calls.append(np.shape(taus))
        assert len(calls) <= limit, f"{name} called more than {limit} times"
        return real(taus, *args, **kwargs)
    monkeypatch.setattr(optimize, name, counted)
    return calls


@pytest.mark.parametrize("n", [2, 5])
@pytest.mark.parametrize("case", ["gapped", "no meter", "gapless"])
@pytest.mark.parametrize("tau_range", [(0.05, 1.0), (0.25, 1.0), (0.3, 1.0)])
def test_find_t_max_over_times_matches_per_time_calls(n, case, tau_range):
    # interior rows, edge rows (t = inf for the gapped meter, every row from
    # 0.3 up) and both in one call (from 0.25 up), for a meter and for the
    # sensor-only objective, which an uncoupled meter (Omega = 0, "no
    # meter") and a gapless one both reach
    omega = 0.0 if case == "no meter" else 2.0
    meter, psi0 = spin_x_spectrum(n, omega), MeterState.equal_superposition(n)
    if case == "gapless":
        meter = MeterSpec(lambdas=(0.5,) * n)
    times = np.array([0.01, 1.0, 20.0, 100.0, 1e4, math.inf])
    tau_max, q, edge = find_t_max(meter, psi0, times, tau_range)
    assert tau_max.shape == q.shape == edge.shape == times.shape

    if case != "gapped":
        def objective(t):
            return lambda taus: sensor_qfi(taus, t)
    else:
        def objective(t):
            return lambda taus: meter_qfi_grid(taus, t, meter, psi0)
    for j, t in enumerate(times):
        alone = find_t_max(meter, psi0, t, tau_range)
        assert alone == (tau_max[j], q[j], edge[j])  # bitwise, as floats
        _assert_near_reference(alone, _golden_section_reference(objective(t), *tau_range))
        if edge[j]:
            assert tau_max[j] in tau_range
    if tau_range[0] == 0.25:
        assert 0 < edge.sum() < times.size


def test_find_t_max_agrees_with_the_golden_section():
    # 12 meters over 31 times from the coherent to the decohered regime
    times = np.geomspace(1.0, 1e6, 31)
    for n in (2, 5, 13):
        psi0 = MeterState.equal_superposition(n)
        for omega in (0.25, 1.0, 2.0, 4.0):
            meter = spin_x_spectrum(n, omega)
            found = find_t_max(meter, psi0, times)
            for j, t in enumerate(times):
                _assert_near_reference(
                    tuple(v[j] for v in found), _golden_section_reference(
                        lambda taus: meter_qfi_grid(taus, t, meter, psi0), 0.05, 1.0))


def test_find_t_max_rows_that_finish_at_different_steps(monkeypatch):
    # a 5-point scan leaves wide brackets: the interior rows take six rescans,
    # the edge row at t = 1e10 none, and every row of the joint search comes
    # out as its one-row search
    meter, psi0 = spin_x_spectrum(2, 2.0), MeterState.equal_superposition(2)
    times = np.array([1.0, 20.0, 100.0, 1e3, 1e4, 1e10])
    tau_max, q, edge = find_t_max(meter, psi0, times, n_grid=5)
    calls, counts = _counting(monkeypatch, "meter_qfi_grid"), []
    for j, t in enumerate(times):
        calls.clear()
        assert find_t_max(meter, psi0, t, n_grid=5) == (tau_max[j], q[j], edge[j])
        counts.append(len(calls))
        _assert_near_reference((tau_max[j], q[j], edge[j]), _golden_section_reference(
            lambda taus: meter_qfi_grid(taus, t, meter, psi0), 0.05, 1.0, n_grid=5))
    assert counts == [7] * 5 + [1]


def test_find_t_max_rows_that_stop_mid_batch(monkeypatch):
    # rows of one search leave it after different numbers of rescans (at
    # rel_tol = 1e-17 a row stops once a rescan no longer narrows it, which
    # depends on its rounding), and each row still comes out bitwise as its
    # one-row search
    meter, psi0 = spin_x_spectrum(2, 2.0), MeterState.equal_superposition(2)
    times = np.geomspace(1.0, 1e4, 9)
    calls, mid_batch = _counting(monkeypatch, "meter_qfi_grid"), False
    for n_grid in (5, 17, 200):
        for rel_tol in (1e-4, 1e-7, 1e-17):
            found = find_t_max(meter, psi0, times, rel_tol=rel_tol, n_grid=n_grid)
            counts = []
            for j, t in enumerate(times):
                calls.clear()
                alone = find_t_max(meter, psi0, t, rel_tol=rel_tol, n_grid=n_grid)
                assert alone == tuple(v[j] for v in found)
                counts.append(len(calls))
                if rel_tol >= 1e-7:
                    _assert_near_reference(alone, _golden_section_reference(
                        lambda taus: meter_qfi_grid(taus, t, meter, psi0), 0.05, 1.0,
                        rel_tol=rel_tol, n_grid=n_grid), rel_tol)
            mid_batch |= len(set(counts)) > 1
    assert mid_batch


@pytest.mark.parametrize("gapless", [False, True])
def test_find_t_max_makes_at_most_six_calls(monkeypatch, gapless):
    # the scan, then rescans that narrow the 200-point bracket five times
    # each, down to rel_tol = 1e-4; a gapless meter counts sensor_qfi calls
    meter, psi0 = spin_x_spectrum(2, 2.0), MeterState.equal_superposition(2)
    name = "meter_qfi_grid"
    if gapless:
        meter, name = MeterSpec(lambdas=(0.5, 0.5)), "sensor_qfi"
    calls = _counting(monkeypatch, name)
    assert not find_t_max(meter, psi0, 100.0)[2]
    assert len(calls) <= 6


def test_find_t_max_makes_one_call_when_every_row_is_on_the_edge(monkeypatch):
    # at t = 1e10 T_max lies below the range: the scan is the only call
    calls = _counting(monkeypatch, "meter_qfi_grid")
    assert find_t_max(spin_x_spectrum(2, 2.0), MeterState.equal_superposition(2), 1e10)[2]
    assert calls == [(200,)]


@pytest.mark.parametrize("rel_tol", [0.0, -1.0])
def test_find_t_max_rejects_a_nonpositive_rel_tol(monkeypatch, rel_tol):
    # the wrapper turns a search that never narrows enough into a failure
    _counting(monkeypatch, "meter_qfi_grid")
    with pytest.raises(ValueError, match="rel_tol"):
        find_t_max(spin_x_spectrum(2, 2.0), MeterState.equal_superposition(2), 100.0,
                   rel_tol=rel_tol)


def test_find_t_max_stops_below_roundoff(monkeypatch):
    # no bracket narrows to 1e-17 relative; the search ends where a rescan
    # leaves a bracket no narrower
    meter, psi0 = spin_x_spectrum(2, 2.0), MeterState.equal_superposition(2)
    calls = _counting(monkeypatch, "meter_qfi_grid")
    tau, q, edge = find_t_max(meter, psi0, 100.0, rel_tol=1e-17)
    assert len(calls) < 30
    _assert_near_reference((tau, q, edge), find_t_max(meter, psi0, 100.0))


def test_find_t_max_rejects_a_grid_of_times():
    with pytest.raises(ValueError):
        find_t_max(spin_x_spectrum(2, 2.0), MeterState.equal_superposition(2),
                   np.ones((2, 2)))


def test_dimension_scaling_over_times_matches_per_time_calls():
    times = np.array([10.0, 1e5, 1e10])
    table = dimension_scaling(2.0, times, (2, 3, 4))
    alone = [dimension_scaling(2.0, t, (2, 3, 4)) for t in times]
    assert [row[0] for row in table] == [2, 3, 4]
    # t = 1e10 puts T_max below the default range
    assert [list(row[3]) for row in table] == [[False, False, True]] * 3
    for i, (n, tau, q, edge, r) in enumerate(table):
        for j in range(times.size):
            assert alone[j][i] == (n, tau[j], q[j], edge[j], r[j])


def test_dimension_scaling_names_a_zero_qfi():
    # at t = inf the gapped meter has decohered: I(n) = 0 and r = 0/0
    for t in (math.inf, np.array([10.0, math.inf])):
        with pytest.raises(ValueError, match="n=2 t=inf"):
            dimension_scaling(2.0, t, (2, 3))


def test_dimension_scaling_frozen_values():
    table = dimension_scaling(2.0, 10.0, range(2, 7))
    ns = [row[0] for row in table]
    assert ns == [2, 3, 4, 5, 6]
    values = {n: q for n, _, q, _, _ in table}
    assert values[2] == pytest.approx(17.466254089861437, rel=1e-5)
    assert values[6] == pytest.approx(33.76350689081974, rel=1e-5)
    qs = [q for _, _, q, _, _ in table]
    assert all(b > a for a, b in zip(qs, qs[1:]))
    rs = [r for *_, r in table]
    assert all(b < a for a, b in zip(rs, rs[1:]))  # diminishing returns
    # r is the relative gain of the next level: q(n+1)/q(n) - 1
    assert rs[0] == pytest.approx(values[3] / values[2] - 1.0, rel=1e-4)


def test_crossing_time_frozen_value():
    # the package's meter and sensor QFIs cross where the frozen value says
    t_star = oracles.crossing_time(0.2, 2.0)
    assert abs(t_star - 2.6575538843199107) < 1e-4


def test_crossing_time_error_cases():
    # no crossing inside windows that end before it or start after it, and
    # none at all for a decoupled meter, which has no temperature sensitivity
    for omega, window in ((2.0, (0.05, 0.5)), (2.0, (5.0, 50.0)), (0.0, (0.05, 50.0))):
        with pytest.raises(ValueError, match="no meter-sensor QFI crossing"):
            oracles.crossing_time(0.2, omega, window)
