"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pytest verdicts. Every tolerance is asserted exactly as
stated; nothing is loosened to make a criterion pass.
"""

import math
import time

import numpy as np
import pytest

import oracles
from thermoq.bath import bose_occupation, sensor_qfi, steady_sensor_qfi
from thermoq.cli import main as cli_main
from thermoq.dynamics import equal_superposition, spin_x_spectrum
from thermoq.optimize import dimension_scaling, find_t_max
from thermoq.qfi import _jordan_qfi, joint_qfi_grid, meter_qfi_grid
from thermoq.spectrum import slow_spectrum


def _report(number, ok, detail, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number:>2} {status}  {detail}  [{elapsed:.2f}s / {budget:g}s]",
          flush=True)
    assert ok, f"criterion {number}: {detail}"
    assert elapsed < budget, (
        f"criterion {number}: runtime {elapsed:.2f}s exceeds {budget:g}s")


def test_criterion_01_sensor_optimum():
    start = time.perf_counter()
    taus = np.arange(0.05, 2.0 + 1e-12, 1e-4)
    values = steady_sensor_qfi(taus)
    best = int(np.argmax(values))
    max_value, tau_star = values[best], taus[best]
    elapsed = time.perf_counter() - start
    ok = abs(max_value - 4.532) < 0.005 and abs(tau_star - 0.242) < 0.002
    _report(1, ok,
            f"steady sensor QFI max {max_value:.6f} at tau={tau_star:.4f} "
            f"(want 4.532+-0.005 at 0.242+-0.002)", elapsed, 1.0)


def test_criterion_02_closed_form_vs_ode():
    start = time.perf_counter()
    rng = np.random.default_rng(2)
    grid = [(n, tau, omega, t)
            for n in (2, 3, 4)
            for tau in (0.15, 0.2, 0.3)
            for omega in (0.5, 2.0, 4.0)
            for t in (1.0, 10.0, 50.0)]
    picks = list(rng.choice(len(grid), size=11, replace=False))
    picks.append(grid.index((4, 0.3, 4.0, 50.0)))  # hardest case always runs
    worst = 0.0
    for idx in picks:
        n, tau, omega, t = grid[int(idx)]
        meter = spin_x_spectrum(n, omega)
        c = rng.random(n) + 0.1
        c = c / np.linalg.norm(c)
        ref = oracles.evolve(oracles.initial_joint_state(c),
                             bose_occupation(tau), 1.0, meter, t)
        got, _ = oracles.joint_state(tau, meter, c, t)
        worst = max(worst, float(np.max(np.abs(got - ref))))
    elapsed = time.perf_counter() - start
    _report(2, worst < 1e-8,
            f"max |closed form - ODE| = {worst:.2e} over {len(picks)} random "
            f"grid points (want < 1e-8)", elapsed, 30.0)


def test_criterion_03_crossing_time():
    start = time.perf_counter()
    t_star = oracles.crossing_time(0.2, 2.0)
    elapsed = time.perf_counter() - start
    _report(3, 2.2 <= t_star <= 3.0,
            f"meter QFI overtakes sensor at gamma t = {t_star:.4f} "
            f"(want within [2.2, 3.0])", elapsed, 5.0)


def _criterion_4_sweep():
    """Meter states and QFIs near T_max at gamma t = 20, Omega = 2 gamma."""
    meter = spin_x_spectrum(2, 2.0)
    psi0 = equal_superposition(2)
    taus = np.linspace(0.18, 0.28, 11)
    rows = []
    for tau in taus:
        tau = float(tau)
        rows.append((tau,
                     oracles.meter_state(tau, meter, psi0, 20.0),
                     float(meter_qfi_grid(tau, 20.0, 2.0, psi0)),
                     float(joint_qfi_grid(tau, 20.0, 2.0, psi0))))
    return meter, psi0, rows


def test_criterion_04_meter_dominates_at_tmax():
    start = time.perf_counter()
    _, _, rows = _criterion_4_sweep()
    tau, _, meter_value, joint_value = max(rows, key=lambda r: r[2])
    ratio = meter_value / joint_value
    elapsed = time.perf_counter() - start
    ok = meter_value > 4.532 and ratio > 0.9
    _report(4, ok,
            f"at tau={tau:.3f}, t=20: meter QFI {meter_value:.3f} > 4.532 and "
            f"meter/joint = {ratio:.4f} > 0.9", elapsed, 5.0)


def test_criterion_05_qubit_formula_concordance():
    start = time.perf_counter()
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(10_000):
        rho = oracles.random_density_matrix(rng, 2)
        drho = oracles.random_hermitian(rng, 2)
        drho = drho - (np.trace(drho) / 2.0) * np.eye(2)
        a = oracles.qfi_qubit(rho, drho)
        b = float(_jordan_qfi(rho, drho))
        worst = max(worst, abs(a - b) / max(abs(b), 1e-300))
    meter, psi0, rows = _criterion_4_sweep()
    for tau, rho_m, _, _ in rows:
        drho_m = oracles.state_derivative(
            lambda x: oracles.meter_state(x, meter, psi0, 20.0), tau)
        a = oracles.qfi_qubit(rho_m, drho_m)
        b = float(_jordan_qfi(rho_m, drho_m))
        worst = max(worst, abs(a - b) / max(abs(b), 1e-300))
    elapsed = time.perf_counter() - start
    _report(5, worst < 1e-6,
            f"max relative spread between qubit closed form and general QFI = "
            f"{worst:.2e} on 10^4 random qubits + the criterion-4 sweep "
            f"(want < 1e-6)", elapsed, 30.0)


def _exact_meter_qfi_curve(ts):
    psi0 = equal_superposition(2)
    return np.array([float(meter_qfi_grid(0.2, float(t), 2.0, psi0)) for t in ts])


def test_criterion_06a_longtime_band():
    start = time.perf_counter()
    ts = np.geomspace(100.0, 1000.0, 25)
    exact = _exact_meter_qfi_curve(ts)
    approx = np.array([oracles.qfi_longtime(0.2, 2.0, float(t)) for t in ts])
    worst = float(np.max(np.abs(approx / exact - 1.0)))
    elapsed = time.perf_counter() - start
    _report("6a", worst < 0.05,
            f"long-time approximation within {100 * worst:.3f}% of the exact "
            f"meter QFI on gamma t in [100, 1000] (want < 5%)", elapsed, 10.0)


def test_criterion_06b_longtime_peak_location():
    # The stated window is (1 +- 0.15)/Gamma_N, the leading-order peak of
    # t^2 exp(-2 Gamma_N t). The exact peak sits near 0.843/Gamma_N (the
    # approximation's own peak is near 0.841/Gamma_N; the 1/(e^{2 Gamma t}-1)
    # correction pulls it below 1/Gamma_N), so this clause fails as written.
    # The assertion is kept at the stated tolerance instead of widening it.
    start = time.perf_counter()
    gamma_n = oracles.effective_decay_rate(0.2, 2.0)
    ts = np.geomspace(50.0, 400.0, 60)
    values = _exact_meter_qfi_curve(ts)
    i = int(np.argmax(values))
    lo, hi = ts[max(i - 1, 0)], ts[min(i + 1, len(ts) - 1)]
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c, d = b - phi * (b - a), a + phi * (b - a)
    fc, fd = _exact_meter_qfi_curve([c])[0], _exact_meter_qfi_curve([d])[0]
    while b - a > 1e-3:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = _exact_meter_qfi_curve([c])[0]
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = _exact_meter_qfi_curve([d])[0]
    t_peak = 0.5 * (a + b)
    scaled = t_peak * gamma_n
    elapsed = time.perf_counter() - start
    ok = 0.85 <= scaled <= 1.15
    _report("6b", ok,
            f"exact meter QFI peaks at gamma t = {t_peak:.3f} = "
            f"{scaled:.4f}/Gamma_N (want within [0.85, 1.15]/Gamma_N)",
            elapsed, 10.0)


def test_criterion_07_spectrum_structure():
    start = time.perf_counter()
    tau = 0.2

    def null_dims(omega):
        # (dense oracle, package block spectrum) counts of zero eigenvalues
        meter = spin_x_spectrum(2, omega)
        matrix = oracles.dense_liouvillian(bose_occupation(tau), 1.0, meter)
        w = slow_spectrum(tau, meter, 16)
        return (oracles.null_space_dimension(matrix),
                int(np.count_nonzero(np.abs(w) < oracles.zero_tolerance(matrix))))

    null_zero = null_dims(0.0)
    null_counts = [null_dims(om) for om in (0.5, 1.0, 2.0, 4.0)]
    slow = slow_spectrum(tau, spin_x_spectrum(2, 2.0), 4)[2:]
    gamma_n = oracles.effective_decay_rate(tau, 2.0)
    rate_dev = max(abs(lam.real + gamma_n) / gamma_n for lam in slow)
    # the closed pair of the CLI's columns against the dense generator
    closed = slow_spectrum(tau, 2.0 * spin_x_spectrum(2, 1.0), 4)[2:4]
    numeric = np.linalg.eigvals(
        oracles.dense_liouvillian(bose_occupation(tau), 1.0, spin_x_spectrum(2, 2.0)))
    pair_dev = max(np.abs(numeric - lam).min() for lam in closed)
    elapsed = time.perf_counter() - start
    ok = (null_zero == (4, 4) and all(c == (2, 2) for c in null_counts)
          and rate_dev < 0.15 and pair_dev < 1e-6)
    _report(7, ok,
            f"null dim {null_zero} at Omega=0, {null_counts} at Omega>0; "
            f"|Re(lambda)+Gamma_N|/Gamma_N = {rate_dev:.3f} (< 0.15); "
            f"closed form off by {pair_dev:.1e} (< 1e-6)", elapsed, 5.0)


def test_criterion_08_dimension_scaling():
    start = time.perf_counter()
    table = dimension_scaling(2.0, 10.0, range(2, 13))
    values = [q for _, _, q, _, _ in table]
    increasing = all(b > a for a, b in zip(values, values[1:]))
    r12 = table[-1][4]
    elapsed = time.perf_counter() - start
    ok = increasing and table[-1][0] == 12 and r12 < 0.05
    _report(8, ok,
            f"QFI at T_max strictly increasing over n=2..12 "
            f"({values[0]:.2f} -> {values[-1]:.2f}), r(12) = {r12:.4f} "
            f"(want < 0.05)", elapsed, 120.0)


def test_criterion_09_tmax_decreases_with_time():
    start = time.perf_counter()
    psi0 = equal_superposition(2)
    tau_fast, _, _ = find_t_max(2.0, psi0, 1e2)
    tau_slow, _, _ = find_t_max(2.0, psi0, 1e4)
    elapsed = time.perf_counter() - start
    _report(9, tau_slow < tau_fast,
            f"tau_max drops from {tau_fast:.4f} at gamma t=100 to "
            f"{tau_slow:.4f} at gamma t=10^4", elapsed, 30.0)


def test_criterion_10_zero_temperature_protection():
    start = time.perf_counter()
    cold = 0.001  # exp(1/tau) overflows: N = 0 to double precision
    assert bose_occupation(cold) == 0.0
    meter = spin_x_spectrum(2, 2.0)
    psi0 = equal_superposition(2)
    ts = list(np.geomspace(0.01, 1e4, 60)) + [math.inf]
    worst = 0.0
    for t in ts:
        rho_m = oracles.meter_state(cold, meter, psi0, float(t))
        worst = max(worst, abs(abs(rho_m[0, 1]) * 2.0 - 1.0))
    elapsed = time.perf_counter() - start
    _report(10, worst < 1e-12,
            f"at N=0 the meter coherence keeps unit magnitude "
            f"(max deviation {worst:.1e} over {len(ts)} times)", elapsed, 1.0)


def test_criterion_11_eigenstate_preparations_blind():
    start = time.perf_counter()
    worst = 0.0
    for n, m in ((2, 0), (3, 1), (5, 4)):
        psi0 = np.eye(n)[m]
        for t in (1.0, 20.0, 200.0):
            worst = max(worst, float(meter_qfi_grid(0.2, t, 2.0, psi0)))
    elapsed = time.perf_counter() - start
    _report(11, worst < 1e-12,
            f"eigenstate-initialized meters carry no temperature information "
            f"(max QFI {worst:.1e}, want < 1e-12)", elapsed, 1.0)


def test_criterion_12_csv_determinism(tmp_path):
    start = time.perf_counter()
    runs = {
        "sensor": ["sensor", "--tau", "0.1,0.2", "--t", "1,inf"],
        "compare": ["compare", "--tau", "0.15,0.2", "--t", "1"],
        "meter-map": ["meter-map", "--tau", "0.15", "--t", "50,100"],
        "tmax": ["tmax", "--t", "50,100", "--omega", "2"],
        "optimize": ["optimize", "--tau", "0.15,0.25", "--t", "5", "--n", "3",
                     "--seed", "3"],
        "optimize-default": ["optimize"],
        "scaling": ["scaling", "--n", "2:4", "--t", "10"],
        "spectrum": ["spectrum", "--omega", "0:4:5:lin"],
    }
    stable = []
    for name, argv in runs.items():
        a = tmp_path / f"{name}-a.csv"
        b = tmp_path / f"{name}-b.csv"
        assert cli_main(argv + ["--out", str(a)]) == 0
        assert cli_main(argv + ["--out", str(b)]) == 0
        stable.append(a.read_bytes() == b.read_bytes())
    elapsed = time.perf_counter() - start
    _report(12, all(stable),
            f"all {len(runs)} runs (every command, and optimize at its "
            f"default) reproduce bitwise-identical CSV on repeated runs with "
            f"a fixed seed", elapsed, 120.0)
