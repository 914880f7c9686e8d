import math
import warnings

import numpy as np
import pytest

import oracles
from thermoq import cli, optimize, qfi
from thermoq.bath import bose_occupation, d_occupation_dT, sensor_qfi, steady_sensor_qfi
from thermoq.dynamics import equal_superposition, gap_matrix, spin_x_spectrum
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
    state = equal_superposition(2)
    assert bures_distance_pure(state, b) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        bures_distance_pure(np.array([1.0, 1.0]), b)  # not normalized
    with pytest.raises(ValueError, match="levels"):
        bures_distance_pure(np.array([1.0, 0.0, 0.0]), b)  # dimension mismatch
    # stacks broadcast: every row against one state, as the per-row overlap
    rng = np.random.default_rng(13)
    stack = rng.random((16, 8, 6))
    stack /= np.linalg.norm(stack, axis=-1, keepdims=True)
    fixed = equal_superposition(6)
    distances = bures_distance_pure(stack, fixed)
    assert distances.shape == (16, 8)
    per_row = [[2.0 * (1.0 - abs(np.dot(c, fixed))) for c in row] for row in stack]
    np.testing.assert_allclose(distances, per_row, rtol=0.0, atol=1e-15)
    np.testing.assert_array_equal(bures_distance_pure(fixed, stack), distances)
    # a state against itself: 0 up to the roundoff of its unit norm, never
    # below, and exactly 0 where sum c^2 rounds to 1 or above (n = 6 does)
    itself = bures_distance_pure(stack, stack)
    assert np.all((itself >= 0.0) & (itself <= 1e-15))
    assert bures_distance_pure(fixed, fixed) == 0.0
    with pytest.raises(ValueError, match="levels"):
        bures_distance_pure(stack, equal_superposition(5))


def test_optimize_two_level_recovers_equal_superposition(monkeypatch):
    # for n = 2 the equal superposition is exactly optimal at every (tau, t)
    monkeypatch.setattr(optimize, "_TOL", 1e-7)
    tau = 0.2
    c, report = optimize_initial_state(tau, 2.0, 10.0, 2)
    np.testing.assert_allclose(c, [1.0 / math.sqrt(2.0)] * 2, atol=1e-4)
    equal_value = meter_qfi_grid(0.2, 10.0, 2.0, equal_superposition(2))
    assert report.value >= equal_value - 1e-6 * equal_value
    assert report.converged
    # the equal superposition is stationary, so its climb takes no step and
    # no seeded start runs
    assert report.iterations == 0 and not report.restarted


def test_optimize_is_deterministic_for_fixed_seed():
    tau = 0.3
    first = optimize_initial_state(tau, 1.0, 5.0, 3, seed=7)
    second = optimize_initial_state(tau, 1.0, 5.0, 3, seed=7)
    np.testing.assert_array_equal(first[0], second[0])
    assert first[1] == second[1]


def test_optimize_beats_every_neighbor(monkeypatch):
    monkeypatch.setattr(optimize, "_TOL", 1e-7)
    monkeypatch.setattr(optimize, "_STARTS", 4)
    tau = 0.2
    c, report = optimize_initial_state(tau, 2.0, 10.0, 3)
    rng = np.random.default_rng(61)
    for _ in range(12):
        delta = rng.standard_normal(3) * 1e-3
        trial = np.abs(c + delta)
        trial = trial / np.linalg.norm(trial)
        trial_value = meter_qfi_grid(0.2, 10.0, 2.0, trial)
        assert trial_value <= report.value + 1e-7 * report.value


def test_optimize_profile_is_symmetric(monkeypatch):
    # the spin-x ladder is symmetric under level reversal, and so is the optimum
    monkeypatch.setattr(optimize, "_TOL", 1e-7)
    c, _ = optimize_initial_state(0.2, 2.0, 10.0, 3)
    np.testing.assert_allclose(c, c[::-1], atol=1e-3)


def test_optimize_validates_arguments():
    for n in (1, 2.0):
        with pytest.raises(ValueError, match="n >= 2"):
            optimize_initial_state(0.2, 1.0, 1.0, n)


# the last point has Q ~ 1e-265, whose squared gradient underflows
@pytest.mark.parametrize("n, tau, t", [(4, 0.2, 1.0), (4, 0.2, 20.0), (3, 0.2, 10.0),
                                       (4, 1.0, 1000.0)])
def test_optimize_matches_nelder_mead_reference(monkeypatch, n, tau, t):
    monkeypatch.setattr(optimize, "_TOL", 1e-6)
    _, report = optimize_initial_state(tau, 2.0, t, n)
    _, reference, _ = oracles.nelder_mead_initial_state(tau, 2.0, t, n)
    assert report.value >= reference - 1e-9 * report.value
    assert report.value == pytest.approx(reference, rel=1e-6)
    assert report.converged and report.residual <= 1e-6


def test_optimize_report_value_and_residual(monkeypatch):
    # the value is meter_qfi_grid at the returned state, bitwise. Down to
    # tau = 0.05, where roundoff in the near-pure meter state can keep the
    # residual above _TOL; the report must say so either way
    for n, tau, t in ((2, 0.3, 2.0), (3, 0.2, 1.0), (6, 0.05, 1.0), (5, 0.5, 300.0),
                      (6, 0.1, 30.0)):
        c, report = optimize_initial_state(tau, 2.0, t, n)
        assert report.value == meter_qfi_grid(tau, t, 2.0, c)
        assert report.converged == (report.residual <= 1e-5)
        assert report.value >= meter_qfi_grid(
            tau, t, 2.0, equal_superposition(n)) * (1 - 1e-9)
    # grids where the seeded starts run, whole and one point per chunk
    for chunk in (qfi._CHUNK_ENTRIES, 1):
        monkeypatch.setattr(qfi, "_CHUNK_ENTRIES", chunk)
        c, report = optimize_initial_state(_FALLBACK_TAUS, 2.0, _FALLBACK_TS, 6)
        assert report.restarted.any()
        np.testing.assert_array_equal(report.value,
                                      meter_qfi_grid(_FALLBACK_TAUS, _FALLBACK_TS, 2.0, c))
        c, report = optimize_initial_state([0.05, 0.3], 2.0, [[5.0], [50.0]], 3, seed=3)
        assert report.restarted.any()
        np.testing.assert_array_equal(report.value,
                                      meter_qfi_grid([0.05, 0.3], [[5.0], [50.0]], 2.0, c))


@pytest.mark.parametrize("entries", [None, 1])
def test_optimize_value_keeps_the_qfi_checks(monkeypatch, entries):
    # the checks meter_qfi_grid applies to the returned states still fire,
    # whole and one point per chunk: a QFI beyond double precision names the
    # first such point of the grid, and a non-finite state is rejected
    if entries:
        monkeypatch.setattr(qfi, "_CHUNK_ENTRIES", entries)
    taus, ts, omegas = np.array([0.1, 0.3, 0.9]), np.array([[2.0], [40.0]]), [[1.5], [2.5]]
    real, seen = optimize._meter_kernel, []

    def overflowing(blocks, c):
        out = real(blocks, c)
        # flattened points 4 and 5: (tau, t, Omega) = (0.3, 40, 2.5) and (0.9, 40, 2.5)
        out[np.isin(len(seen) + np.arange(out.size), (4, 5))] = np.inf
        seen.extend(out)
        return out

    monkeypatch.setattr(optimize, "_meter_kernel", overflowing)
    with pytest.raises(FloatingPointError, match=r"tau=0\.3, t=40, Omega=2\.5$"):
        optimize_initial_state(taus, omegas, ts, 3)
    monkeypatch.setattr(optimize, "_meter_kernel", real)

    ascend = optimize._ascend

    def lost(coh, dcoh, c, tol):
        c, *rest = ascend(coh, dcoh, c, tol)
        c[-1] = np.nan
        return (c, *rest)

    monkeypatch.setattr(optimize, "_ascend", lost)
    monkeypatch.setattr(optimize, "_saddle", lambda c, q, hess: np.zeros(q.shape, bool))
    with pytest.raises(ValueError, match="must be finite"):
        optimize_initial_state(taus, omegas, ts, 3)


def test_optimize_evaluates_the_blocks_once_per_ascent_chunk(monkeypatch):
    # the value comes from the blocks the ascent already holds, where a
    # closing meter_qfi_grid call evaluated every point's blocks again
    real, points = qfi.sector_blocks, []
    monkeypatch.setattr(qfi, "sector_blocks",
                        lambda *args: points.append(len(args[0])) or real(*args))
    optimize_initial_state(0.2, 2.0, 1.0, 4)
    assert points == [1]
    taus, ts = np.array([0.1, 0.3, 0.9]), np.array([[2.0], [40.0]])
    points.clear()
    optimize_initial_state(taus, 2.0, ts, 3)
    assert points == [6]
    # one point per kernel chunk and per sector_blocks call (n = 3)
    monkeypatch.setattr(qfi, "_CHUNK_ENTRIES", 3)
    points.clear()
    optimize_initial_state(taus, 2.0, ts, 3)
    assert points == [1] * 6


def test_optimize_without_temperature_information():
    # t = 0, t = inf and a gapless meter: the QFI vanishes for every state,
    # and the equal superposition comes back as converged
    for n, omega, t in ((4, 2.0, 0.0), (4, 2.0, math.inf), (3, 0.0, 10.0)):
        c, report = optimize_initial_state(0.2, omega, t, n)
        np.testing.assert_array_equal(
            c, equal_superposition(n))
        assert report.value == 0.0
        assert report.converged and report.residual == 0.0
        assert report.iterations == 0
    with pytest.raises(ValueError):
        optimize_initial_state(0.2, 1.0, -1.0, 2)


@pytest.mark.parametrize("n", [3, 4, 6])
@pytest.mark.parametrize("tau", [0.1, 0.2, 1.0])
@pytest.mark.parametrize("t", [1.0, 30.0])
def test_ascent_gradient_and_hessian_match_central_differences(n, tau, t):
    meter = spin_x_spectrum(n, 2.0)
    blocks = oracles.meter_blocks(bose_occupation(tau), d_occupation_dT(tau), meter, t)
    coh, dcoh = blocks.coh, blocks.dcoh

    def terms(cs):
        _, parts = optimize._sld(coh, dcoh, cs)
        return optimize._ascent_terms(coh, dcoh, cs, *parts)

    def gradient(cs):
        return 2.0 * (terms(cs)[0] @ cs[..., None])[..., 0]

    def qfi(x):
        # Q is homogeneous of degree 2 in c, and the package takes unit states
        norm2 = x @ x
        return norm2 * meter_qfi_grid(tau, t, 2.0, x / math.sqrt(norm2))

    rng = np.random.default_rng(17 + n)
    for _ in range(3):
        c = rng.random(n) + 0.05
        c /= np.linalg.norm(c)
        # the gradient 2 G c against differences of the package's QFI
        h = 1e-4
        steps = [qfi(c + s * h * e) for e in np.eye(n) for s in (1.0, -1.0)]
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
        taus, ts = np.asarray(taus), np.asarray(ts)[:, None]
        coefficients, report = optimize_initial_state(taus, 2.0, ts, n)
        assert coefficients.shape == (ts.size, taus.size, n)
        for field in ("value", "converged", "residual"):
            assert getattr(report, field).shape == (ts.size, taus.size)
        iterations = 0
        for i, t in enumerate(ts[:, 0]):
            for j, tau in enumerate(taus):
                c, alone = optimize_initial_state(tau, 2.0, t, n)
                np.testing.assert_array_equal(coefficients[i, j], c)
                assert alone.value == report.value[i, j]
                iterations += alone.iterations
                assert alone.converged == report.converged[i, j]
                assert alone.residual == report.residual[i, j]
        assert report.iterations == iterations


def test_optimize_chunks_leave_every_point_unchanged(monkeypatch):
    taus, ts = np.array([0.1, 0.3, 0.9]), np.array([2.0, 40.0])[:, None]
    entries = qfi._CHUNK_ENTRIES
    # as the first stage leaves the points, and with _saddle firing at every
    # point, so that a whole driver chunk runs the seeded stage
    for saddle in (optimize._saddle, lambda c, q, hess: np.ones(q.shape, bool)):
        monkeypatch.setattr(optimize, "_saddle", saddle)
        runs = []
        for chunk in (entries, 1):  # whole, and one point per chunk
            monkeypatch.setattr(qfi, "_CHUNK_ENTRIES", chunk)
            runs.append(optimize_initial_state(taus, 2.0, ts, 3, seed=4))
        (c, whole), (chunked_c, chunked) = runs
        np.testing.assert_array_equal(chunked_c, c)
        for field in ("value", "iterations", "converged", "residual", "restarted"):
            np.testing.assert_array_equal(getattr(chunked, field), getattr(whole, field))
    assert whole.restarted.all()


def test_optimize_empty_grid():
    c, report = optimize_initial_state([], 2.0, 1.0, 3)
    assert c.shape == (0, 3) and report.iterations == 0
    for field, dtype in (("value", float), ("converged", bool), ("residual", float),
                         ("restarted", bool)):
        assert getattr(report, field).shape == (0,)
        assert getattr(report, field).dtype == dtype


def test_optimize_eigensolves_do_not_grow_with_the_grid(monkeypatch):
    # lockstep: one point and 16 copies of it make the same eigh calls
    real, calls = np.linalg.eigh, []

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    c, report = optimize_initial_state(0.2, 2.0, 1.0, 4)
    single = len(calls)
    coefficients, copies = optimize_initial_state(np.full(16, 0.2), 2.0, 1.0, 4)
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


def _every_start(taus, ts, n, tol, n_starts=8, seed=0):
    """The search that climbs from every start at every point and returns
    each point's `_pick_start` pick: (c, Q, residual) over the grid."""
    rng = np.random.default_rng(seed)
    starts = [np.full(n, 1.0 / math.sqrt(n))]
    for _ in range(n_starts - 1):
        x = rng.random(n) + 0.05
        starts.append(x / np.linalg.norm(x))

    def climb(blocks, c):
        coh, dcoh = gap_matrix(blocks.coh), gap_matrix(blocks.dcoh)
        m = len(coh)  # c is the equal start, one row for the chunk
        c, q, res, _, _ = optimize._ascend(np.repeat(coh, n_starts, axis=0),
                                           np.repeat(dcoh, n_starts, axis=0),
                                           np.tile(starts, (m, 1)), tol)
        c, q, res = c.reshape(m, n_starts, n), q.reshape(m, -1), res.reshape(m, -1)
        pick, rows = optimize._pick_start(q, res <= tol), np.arange(m)
        c = c[rows, pick] / np.linalg.norm(c[rows, pick], axis=-1, keepdims=True)
        return c, res[rows, pick]

    c, res = qfi._on_grid(climb, taus, ts, 2.0, starts[0])
    return c, meter_qfi_grid(taus, ts, 2.0, c), res


# inside and next to the near-pure band (tau <= 0.0611 at t = 1), where the
# equal start ends unconverged
_FALLBACK_TAUS = np.array([0.05, 0.0611, 0.2])
_FALLBACK_TS = np.array([1.0, 2.68, 1000.0])[:, None]


def test_optimize_runs_the_seeded_starts_only_where_the_equal_start_fails():
    # a point that restarts returns bitwise what the search over every start
    # returns; elsewhere the equal start's Q is the best up to the tie band
    c, report = optimize_initial_state(_FALLBACK_TAUS, 2.0, _FALLBACK_TS, 6)
    ref_c, ref_value, ref_residual = _every_start(_FALLBACK_TAUS, _FALLBACK_TS, 6, 1e-5)
    again = report.restarted
    assert again.shape == (3, 3) and again.any() and not again.all()
    np.testing.assert_array_equal(c[again], ref_c[again])
    np.testing.assert_array_equal(report.value[again], ref_value[again])
    np.testing.assert_array_equal(report.residual[again], ref_residual[again])
    np.testing.assert_array_equal(report.converged[again], ref_residual[again] <= 1e-5)
    assert np.all(report.value[~again] >= ref_value[~again] * (1.0 - optimize._TIE_BAND))
    assert np.all(report.converged[~again])


def test_optimize_restarts_where_the_saddle_check_fires(monkeypatch):
    # the saddle check alone sends a point to the seeded starts, which then
    # return the search over every start bitwise
    monkeypatch.setattr(optimize, "_saddle", lambda c, q, hess: np.ones(q.shape, bool))
    c, report = optimize_initial_state(_FALLBACK_TAUS, 2.0, _FALLBACK_TS, 6)
    ref_c, ref_value, ref_residual = _every_start(_FALLBACK_TAUS, _FALLBACK_TS, 6, 1e-5)
    assert report.restarted.all()
    np.testing.assert_array_equal(c, ref_c)
    np.testing.assert_array_equal(report.value, ref_value)
    np.testing.assert_array_equal(report.residual, ref_residual)


def test_optimize_draws_the_seeded_starts_once_and_only_for_a_restart(monkeypatch):
    # no point of the first grid restarts, and no random start is drawn;
    # where every point restarts, one chunk each, the starts are drawn once
    real, drawn = np.random.default_rng, []
    monkeypatch.setattr(np.random, "default_rng", lambda seed: drawn.append(seed) or real(seed))
    _, report = optimize_initial_state(0.2, 2.0, [1.0, 20.0], 4, seed=5)
    assert not report.restarted.any() and drawn == []
    monkeypatch.setattr(optimize, "_saddle", lambda c, q, hess: np.ones(q.shape, bool))
    monkeypatch.setattr(qfi, "_CHUNK_ENTRIES", 1)
    _, report = optimize_initial_state([0.2, 0.5], 2.0, [1.0, 20.0], 3, seed=5)
    assert report.restarted.all() and drawn == [5]


def test_optimize_saddle_check():
    # at c = e_0 the tangent curvatures of P (H - 2Q) P are H_11 - 2Q and
    # H_22 - 2Q: a strict maximum, a saddle, a flat direction, and Q = 0
    c = np.tile(np.eye(3)[0], (4, 1))
    q = np.array([1.0, 1.0, 1.0, 0.0])
    hess = np.stack([np.diag(d) for d in ([0.0, 1.0, 1.0], [0.0, 1.0, 3.0],
                                          [0.0, 2.0, 0.0], [0.0, 1.0, 3.0])])
    np.testing.assert_array_equal(optimize._saddle(c, q, hess), [False, True, True, False])


def test_optimize_cli_default_grid_converges_from_the_equal_start(capsys):
    # the CLI default grid: every point converges, and the climbs take
    # 571 steps, where every start at every point takes 6,384
    cfg = cli.build_config(cli.build_parser().parse_args(["optimize"]))
    _, report = cli._optimized(cfg)
    assert report.converged.shape == (8, 16) and report.converged.all()
    assert report.iterations <= 1500
    assert capsys.readouterr().err == ""


def test_find_t_max_frozen_values():
    omega = 2.0
    psi0 = equal_superposition(2)
    tau, q, edge = find_t_max(omega, psi0, 100.0)
    assert abs(tau - 0.18177709151624774) < 1e-3
    assert q == pytest.approx(119.74138467601784, rel=1e-5)
    assert not edge
    tau20, q20, _ = find_t_max(omega, psi0, 20.0)
    assert abs(tau20 - 0.22469196293487026) < 1e-3
    assert q20 == pytest.approx(33.085229431406006, rel=1e-5)


def test_find_t_max_sensor_only_paths():
    # a gapless meter (Omega = 0) reduces to the bare steady sensor, whose
    # optimum is tau* = 0.2421
    tau_flat, q_flat, _ = find_t_max(0.0, equal_superposition(2), math.inf)
    assert abs(tau_flat - 0.2420911156630688) < 1e-3
    assert q_flat == pytest.approx(4.532165450546346, rel=1e-5)
    assert q_flat == pytest.approx(steady_sensor_qfi(tau_flat), rel=1e-6)


def test_find_t_max_boundary_maximum():
    omega = 2.0
    psi0 = equal_superposition(2)
    tau, _, edge = find_t_max(omega, psi0, 100.0, tau_range=(0.3, 1.0))
    assert tau == pytest.approx(0.3, abs=1e-12)
    assert edge


def test_find_t_max_edge_rows_are_data_under_warnings_as_errors():
    # the edge row at t = 1e10 neither raises nor drops the interior row
    omega, psi0 = 2.0, equal_superposition(2)
    times = np.array([100.0, 1e10])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tau_max, q, edge = find_t_max(omega, psi0, times)
    np.testing.assert_array_equal(edge, [False, True])
    assert tau_max[1] == 0.05
    assert (tau_max[0], q[0], edge[0]) == find_t_max(omega, psi0, 100.0)


def test_find_t_max_validates_range():
    omega = 2.0
    psi0 = equal_superposition(2)
    with pytest.raises(ValueError):
        find_t_max(omega, psi0, 10.0, tau_range=(0.5, 0.1))
    with pytest.raises(ValueError):
        find_t_max(omega, psi0, 10.0, tau_range=(0.0, 0.5))
    # a bound that is not finite is named, not dumped with a grid of inf and nan
    for bounds, bad in (((0.05, math.inf), "upper bound inf"),
                        ((math.nan, 1.0), "lower bound nan")):
        with pytest.raises(ValueError, match=f"^tau_range {bad} is not finite$"):
            find_t_max(omega, psi0, 10.0, tau_range=bounds)


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
    call's tau argument (the first, or for the grid driver `_on_grid` the
    one after its kernel); the list it returns fills as the wrapper runs. A
    search that does not stop fails after `limit` calls instead of hanging."""
    real, calls, at = getattr(optimize, name), [], int(name == "_on_grid")

    def counted(*args, **kwargs):
        calls.append(np.shape(args[at]))
        assert len(calls) <= limit, f"{name} called more than {limit} times"
        return real(*args, **kwargs)
    monkeypatch.setattr(optimize, name, counted)
    return calls


@pytest.mark.parametrize("n", [2, 5])
@pytest.mark.parametrize("case", ["gapped", "no meter", "gapless"])
@pytest.mark.parametrize("tau_range", [(0.05, 1.0), (0.25, 1.0), (0.3, 1.0)])
def test_find_t_max_over_times_matches_per_time_calls(n, case, tau_range):
    # interior rows, edge rows (t = inf for the gapped meter, every row from
    # 0.3 up) and both in one call (from 0.25 up), for a meter and for the
    # sensor-only objective, which an uncoupled meter (Omega = 0, "no
    # meter") reaches; "gapless" interleaves Omega = 0 rows with Omega = 2
    # rows in one search
    psi0 = equal_superposition(n)
    times = np.array([0.01, 1.0, 20.0, 100.0, 1e4, math.inf])
    omegas = {"gapped": np.full(times.size, 2.0), "no meter": np.zeros(times.size),
              "gapless": np.array([0.0, 2.0] * 3)}[case]
    tau_max, q, edge = find_t_max(omegas, psi0, times, tau_range)
    assert tau_max.shape == q.shape == edge.shape == times.shape

    def objective(omega, t):
        if omega == 0:
            return lambda taus: sensor_qfi(taus, t)
        return lambda taus: meter_qfi_grid(taus, t, omega, psi0)
    for j, (omega, t) in enumerate(zip(omegas, times)):
        alone = find_t_max(omega, psi0, t, tau_range)
        assert alone == (tau_max[j], q[j], edge[j])  # bitwise, as floats
        _assert_near_reference(alone, _golden_section_reference(objective(omega, t),
                                                                *tau_range))
        if edge[j]:
            assert tau_max[j] in tau_range
    if tau_range[0] == 0.25:
        assert 0 < edge.sum() < times.size


def test_find_t_max_agrees_with_the_golden_section():
    # 12 meters over 31 times from the coherent to the decohered regime
    times = np.geomspace(1.0, 1e6, 31)
    for n in (2, 5, 13):
        psi0 = equal_superposition(n)
        for omega in (0.25, 1.0, 2.0, 4.0):
            found = find_t_max(omega, psi0, times)
            for j, t in enumerate(times):
                _assert_near_reference(
                    tuple(v[j] for v in found), _golden_section_reference(
                        lambda taus: meter_qfi_grid(taus, t, omega, psi0), 0.05, 1.0))


def test_find_t_max_rows_that_finish_at_different_steps(monkeypatch):
    # a 5-point lattice leaves wide brackets: after the two-level scan (the
    # points 0, 2, 4 of the lattice, then 3 around the best of them) each
    # interior row takes one probe triple and then probe triples with a
    # 9-point rescan, as many as its probes lose, the edge row at t = 1e10
    # none, and every row of the joint search comes out as its one-row search
    monkeypatch.setattr(optimize, "_N_GRID", 5)
    omega, psi0 = 2.0, equal_superposition(2)
    times = np.array([1.0, 20.0, 100.0, 1e3, 1e4, 1e10])
    tau_max, q, edge = find_t_max(omega, psi0, times)
    calls, shapes = _counting(monkeypatch, "_on_grid"), []
    for j, t in enumerate(times):
        calls.clear()
        assert find_t_max(omega, psi0, t) == (tau_max[j], q[j], edge[j])
        shapes.append(list(calls))
        _assert_near_reference((tau_max[j], q[j], edge[j]), _golden_section_reference(
            lambda taus: meter_qfi_grid(taus, t, omega, psi0), 0.05, 1.0, n_grid=5))
    scan = [(1, 3), (1, 3)]
    assert shapes[-1] == scan
    for row in shapes[:-1]:
        assert row[:3] == scan + [(1, 3)] and set(row[3:]) == {(1, 12)}
    assert len({len(row) for row in shapes}) > 2


def test_find_t_max_rows_that_stop_mid_batch(monkeypatch):
    # rows of one search leave it after different numbers of grid calls (at
    # _REL_TOL = 1e-17 a row stops once a call no longer narrows it, which
    # depends on its rounding), and each row still comes out bitwise as its
    # one-row search
    omega, psi0 = 2.0, equal_superposition(2)
    times = np.geomspace(1.0, 1e4, 9)
    calls, mid_batch = _counting(monkeypatch, "_on_grid"), False
    for n_grid in (5, 17, 200):
        for rel_tol in (1e-4, 1e-7, 1e-17):
            monkeypatch.setattr(optimize, "_N_GRID", n_grid)
            monkeypatch.setattr(optimize, "_REL_TOL", rel_tol)
            found = find_t_max(omega, psi0, times)
            counts = []
            for j, t in enumerate(times):
                calls.clear()
                alone = find_t_max(omega, psi0, t)
                assert alone == tuple(v[j] for v in found)
                counts.append(len(calls))
                if rel_tol >= 1e-7:
                    _assert_near_reference(alone, _golden_section_reference(
                        lambda taus: meter_qfi_grid(taus, t, omega, psi0), 0.05, 1.0,
                        rel_tol=rel_tol, n_grid=n_grid), rel_tol)
            mid_batch |= len(set(counts)) > 1
    assert mid_batch


@pytest.mark.parametrize("n_grid", [3, 5, 17, 200])
def test_find_t_max_scan_is_the_argmax_of_the_whole_lattice(monkeypatch, n_grid):
    # at _REL_TOL = 10 no bracket is probed, so the search returns its
    # two-level scan: bitwise the argmax of one evaluation of the whole
    # lattice, ties to the smaller tau, over 3 meters x 15 rows from the
    # coherent to the decohered (t = inf, Q = 0 for a gapped meter) regime
    # and a gapless meter (Omega = 0, the sensor QFI); [0.01, 0.1] puts
    # short-time rows on the upper edge, [0.05, 1] long-time rows on the lower
    monkeypatch.setattr(optimize, "_N_GRID", n_grid)
    monkeypatch.setattr(optimize, "_REL_TOL", 10.0)
    meters = tuple(equal_superposition(n) for n in (2, 3, 13))
    omegas = np.repeat([0.0, 0.25, 4.0], 5)
    times = np.tile([0.01, 10.0, 1e6, 1e10, math.inf], 3)
    gapped = omegas != 0
    ends = set()
    for lo, hi in ((0.05, 1.0), (0.01, 0.1)):
        lattice = np.geomspace(lo, hi, n_grid)
        values = np.empty((len(meters), times.size, n_grid))
        values[:, ~gapped] = sensor_qfi(lattice, times[~gapped, None])
        values[:, gapped] = meter_qfi_grid(lattice, times[None, gapped, None],
                                           omegas[None, gapped, None], meters)
        i = np.argmax(values, axis=-1)
        found = find_t_max(omegas, meters, times, (lo, hi))
        np.testing.assert_array_equal(found[0], lattice[i])
        np.testing.assert_array_equal(
            found[1], np.take_along_axis(values, i[..., None], axis=-1)[..., 0])
        np.testing.assert_array_equal(found[2], (i == 0) | (i == n_grid - 1))
        ends |= set(i[found[2]].tolist())
    assert ends == {0, n_grid - 1}


@pytest.mark.parametrize("gapless", [False, True])
def test_find_t_max_makes_at_most_six_calls(monkeypatch, gapless):
    # the two-level scan, then a probe triple at the seven-point vertex and,
    # while the probes lose, probe triples with a rescan that narrows the
    # bracket at least five times, down to _REL_TOL = 1e-4 (three calls
    # here); a gapless meter counts sensor_qfi calls
    omega, psi0 = 2.0, equal_superposition(2)
    name = "_on_grid"
    if gapless:
        omega, name = 0.0, "sensor_qfi"
    calls = _counting(monkeypatch, name)
    assert not find_t_max(omega, psi0, 100.0)[2]
    assert len(calls) <= 6


def test_find_t_max_brackets_a_maximum_beside_a_point_no_scan_evaluated(monkeypatch):
    # a 25-point lattice (s = 4) scans 0, 4, ..., 24, and then 18..24 around
    # the best sampled point 24; a second, higher peak at 18 leaves its left
    # neighbour 17 unevaluated, so the first bracket ends there without a
    # value, and the search still climbs that peak
    monkeypatch.setattr(optimize, "_N_GRID", 25)
    step = math.log(20.0) / 24

    def two_peaks(taus, t):
        k = np.log(taus / 0.05) / step
        return 0.1 * k + 3.0 * np.exp(-((k - 18.2) / 0.8) ** 2)

    monkeypatch.setattr(optimize, "sensor_qfi", two_peaks)
    tau_max, q, edge = find_t_max(0.0, equal_superposition(2), 1.0)
    k = math.log(tau_max / 0.05) / step
    assert not edge and 17 < k < 19 and q == two_peaks(tau_max, 1.0)
    assert q >= max(two_peaks(tau_max * np.array([1 - 1e-4, 1 + 1e-4]), 1.0))


def test_lattice_vertex_recovers_the_peak_of_a_polynomial():
    # on the T_max lattice, the seven-point vertex of a polynomial of degree
    # 2 to 6 in ln tau is its peak, up to roundoff: 40 peaks within half a
    # lattice step of a lattice point, curvatures from 0.01 to 1 per squared
    # step, higher coefficients up to 2 % of the curvature
    rng = np.random.default_rng(3)
    lattice = np.log(np.geomspace(0.05, 1.0, optimize._N_GRID))
    step = math.log(20.0) / (optimize._N_GRID - 1)
    i = rng.integers(3, optimize._N_GRID - 3, 40)
    peak = lattice[i] + step * rng.uniform(-0.5, 0.5, 40)
    s = (lattice[i[:, None] + np.arange(-3, 4)] - peak[:, None]) / step
    curvature = rng.uniform(0.01, 1.0, 40)
    powers = np.arange(3, 7)
    higher = (curvature[:, None] * rng.uniform(-0.02, 0.02, (40, powers.size))
              * (powers <= rng.integers(2, 7, 40)[:, None]))
    values = 10.0 * (1.0 - curvature[:, None] * s ** 2
                     + np.sum(higher[:, None, :] * s[..., None] ** powers, axis=-1))
    np.testing.assert_allclose(lattice[i] + optimize._lattice_vertex(values, step), peak,
                               rtol=0, atol=1e-12)
    # no vertex where a point is missing, at a minimum, or more than one
    # lattice step away
    u = np.arange(-3.0, 4.0)
    missing = -u ** 2
    missing[0] = np.nan
    assert np.isnan(optimize._lattice_vertex(np.array([missing, u ** 2, -(u - 1.5) ** 2]),
                                             step)).all()


@pytest.mark.parametrize("end", ["lower", "upper", None])
def test_find_t_max_rows_near_a_range_end_take_the_three_point_vertex(monkeypatch, end):
    # the seven-point vertex needs the lattice points i - 3..i + 3 around a
    # row's lattice maximum i; a row whose maximum lies within three points
    # of a range end takes the parabola vertex through its bracket, which an
    # interior row (end None) does not
    omega, psi0, t = 2.0, equal_superposition(2), 10.0
    peak = find_t_max(omega, psi0, t)[0]
    ratio = 20.0 ** (1.0 / (optimize._N_GRID - 1))
    lo = {"lower": peak / ratio ** 1.6, "upper": peak * ratio ** 1.6 / 20.0, None: 0.05}[end]
    real, probes = optimize._vertex_probes, []
    monkeypatch.setattr(optimize, "_vertex_probes", lambda taus, values, vertex=None: (
        probes.append((taus, values, real(taus, values, vertex))) or probes[-1][2]))
    assert not find_t_max(omega, psi0, t, (lo, 20.0 * lo))[2]
    taus, values, first = probes[0]
    i = int(np.argmin(np.abs(np.geomspace(lo, 20.0 * lo, optimize._N_GRID) - taus[0, 1])))
    parabola = real(taus, values)
    if end is None:
        assert 3 <= i <= optimize._N_GRID - 4 and not np.array_equal(first, parabola)
    else:
        assert min(i, optimize._N_GRID - 1 - i) in (1, 2)
        np.testing.assert_array_equal(first, parabola)


def test_find_t_max_makes_two_calls_when_every_row_is_on_the_edge(monkeypatch):
    # at t = 1e10 T_max lies below the range: the two-level scan (every 10th
    # of the 200 lattice points and the last, then the 19 points around the
    # best of them) makes the only calls
    calls = _counting(monkeypatch, "_on_grid")
    assert find_t_max(2.0, equal_superposition(2), 1e10)[2]
    assert calls == [(1, 21), (1, 19)]


def test_find_t_max_evaluates_the_blocks_once_per_grid_call(monkeypatch):
    # at n = 13 a 200-point scan once made 9 sector_blocks calls, one per
    # eigensolve chunk, and a default search 13 over its grid calls: the
    # two-level scan (21 points, then 19 around the best), one probe triple
    # and, while the probes lose, probe triples with a 9-point rescan
    real, blocks = qfi.sector_blocks, []
    monkeypatch.setattr(qfi, "sector_blocks",
                        lambda *args: blocks.append(1) or real(*args))
    grids = _counting(monkeypatch, "_on_grid")
    find_t_max(2.0, equal_superposition(13), 10.0)
    assert grids[:3] == [(1, 21), (1, 19), (1, 3)] and set(grids[3:]) <= {(1, 12)}
    assert len(blocks) == len(grids)


# the rows of the certificate and budget tests: 3 meters x 2 couplings x 5
# times on two tau ranges. They leave out gamma t = 0.01, where the n > 2
# meter QFI is noisy (ROADMAP item 1) and the certificate fails at n >= 3
# whichever way the bracket is refined: over n in {2, 3, 5, 8, 13}, five
# couplings from 0.1 to 10 and both ranges, 6 of the 50 interior rows at
# gamma t = 0.01 fail it, by up to 6.8e-8, and all 565 at 0.1 <= gamma t <= 1e10
# pass
_SWEEP_METERS = tuple(equal_superposition(n) for n in (2, 5, 13))
_SWEEP_OMEGAS = np.repeat([0.25, 4.0], 5)
_SWEEP_TIMES = np.tile([1.0, 10.0, 1e3, 1e6, 1e10], 2)
_SWEEP_RANGES = ((0.05, 1.0), (0.01, 10.0))


def test_find_t_max_is_certified_at_its_tolerance():
    # every interior row's QFI is at least the QFI a relative _REL_TOL either
    # side of its tau_max, so no point of its final bracket's width beats it
    interior, sides = 0, 1.0 + np.array([-1.0, 1.0]) * optimize._REL_TOL
    for tau_range in _SWEEP_RANGES:
        tau_max, q, edge = find_t_max(_SWEEP_OMEGAS, _SWEEP_METERS, _SWEEP_TIMES, tau_range)
        for s, psi0 in enumerate(_SWEEP_METERS):
            for j in np.flatnonzero(~edge[s]):
                side = meter_qfi_grid(tau_max[s, j] * sides, _SWEEP_TIMES[j],
                                      _SWEEP_OMEGAS[j], psi0)
                assert q[s, j] >= side.max(), (psi0.size, _SWEEP_OMEGAS[j], _SWEEP_TIMES[j])
                interior += 1
    assert interior > 40


def test_find_t_max_call_budget(tmp_path, monkeypatch):
    # no one-row search over the sweep makes more than 5 grid calls, and the
    # default tmax and scaling, and scaling --t 10, at most 3 each: the two-level
    # scan and one probe triple at the seven-point vertex
    calls = _counting(monkeypatch, "_on_grid")
    counts = []
    for tau_range in _SWEEP_RANGES:
        for psi0 in _SWEEP_METERS:
            for omega, t in zip(_SWEEP_OMEGAS, _SWEEP_TIMES):
                calls.clear()
                find_t_max(omega, psi0, t, tau_range)
                counts.append(len(calls))
    assert max(counts) <= 5
    for argv in (["tmax"], ["scaling"], ["scaling", "--t", "10"]):
        calls.clear()
        assert cli.main(argv + ["--out", str(tmp_path / "out.csv")]) == 0
        assert len(calls) <= 3, argv


def test_find_t_max_stops_below_roundoff(monkeypatch):
    # no bracket narrows to 1e-17 relative; the search ends where a call
    # leaves a bracket no narrower
    omega, psi0 = 2.0, equal_superposition(2)
    default = find_t_max(omega, psi0, 100.0)
    monkeypatch.setattr(optimize, "_REL_TOL", 1e-17)
    calls = _counting(monkeypatch, "_on_grid")
    tau, q, edge = find_t_max(omega, psi0, 100.0)
    assert len(calls) < 30
    _assert_near_reference((tau, q, edge), default)


def test_find_t_max_rejects_a_grid_of_times():
    with pytest.raises(ValueError):
        find_t_max(2.0, equal_superposition(2),
                   np.ones((2, 2)))


def test_find_t_max_over_several_meters_matches_one_meter_one_row_calls(monkeypatch):
    # levels 2, 3, 6 and 13 in one search, with a non-palindromic 3-level
    # meter beside the palindromic ones, so the real and the complex route
    # run in one grid call; Omega = 0 rows (the sensor fallback) beside
    # Omega = 2 rows, and t = 1e10, whose T_max lies on the range edge,
    # beside interior rows. Every (meter, Omega, t) comes out bitwise as its
    # one-meter, one-row search
    meters = (equal_superposition(2), equal_superposition(3),
              np.array([0.5, 0.7, 0.3]) / math.sqrt(0.83),
              equal_superposition(6), equal_superposition(13))
    omegas = np.array([2.0, 0.0, 2.0, 0.0, 2.0])
    times = np.array([10.0, 10.0, 1e3, 1e10, 1e10])
    solved, eigh = set(), np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh",
                        lambda a: solved.add((a.dtype.type, a.shape[-1])) or eigh(a))
    tau_max, q, edge = find_t_max(omegas, meters, times)
    assert {(np.float64, 3), (np.complex128, 3), (np.float64, 6),
            (np.float64, 13)} <= solved
    assert tau_max.shape == q.shape == edge.shape == (len(meters), times.size)
    for s, psi0 in enumerate(meters):
        for j, (omega, t) in enumerate(zip(omegas, times)):
            assert find_t_max(omega, psi0, t) == (tau_max[s, j], q[s, j], edge[s, j])
    assert edge[:, -1].all() and not edge[:, :3].any()
    # a tuple of one meter keeps its leading axis
    one = find_t_max(omegas, (meters[1],), times)
    assert all(np.array_equal(v[0], w[1]) for v, w in zip(one, (tau_max, q, edge)))
    with pytest.raises(ValueError, match="no meter"):
        find_t_max(2.0, (), 10.0)


def test_find_t_max_is_sound_on_a_fine_scan():
    # one search over 3 meters x 6 rows: on [0.05, 1] each row's QFI has a
    # single interior maximum, and the QFI found is at most 1e-7 below the
    # best of a 5,000-point geometric scan (ROADMAP item 2 checked 1,260
    # rows against 20,000 points once; this keeps a cheap form of it)
    meters = tuple(equal_superposition(n) for n in (2, 5, 13))
    omegas = np.repeat([0.25, 4.0], 3)
    times = np.tile([10.0, 1e3, 1e6], 2)
    tau_max, q, edge = find_t_max(omegas, meters, times)
    scan = np.geomspace(0.05, 1.0, 5000)
    values = meter_qfi_grid(scan, times[None, :, None], omegas[None, :, None], meters)
    rise = np.diff(values, axis=-1) > 0
    # a maximum: a rise, then no rise. At t = 1e3, Omega = 0.25 the QFI rises
    # again from tau ~ 0.9 toward a second, far lower peak beyond the range;
    # at t = 1e6 (and at t = 1e3, Omega = 4) it falls to an exact 0 past its
    # peak, where the meter has decohered
    peaks = rise[..., :-1] & ~rise[..., 1:]
    assert (peaks.sum(axis=-1) == 1).all()
    assert (np.argmax(peaks, axis=-1) + 1 == np.argmax(values, axis=-1)).all()
    assert not edge.any()
    assert (q >= values.max(axis=-1) * (1.0 - 1e-7)).all()


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
