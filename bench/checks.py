"""Correctness checks on the CSVs a run wrote, made after the timing stops.

Every checked row and every invocation is one operation; `check_workload`
returns how many were attempted and how many failed, and the worst relative
error of the rows compared with the reference. `measure_probe` compares the
probe's rows with the same reference but fails no operation: it returns
their worst error and the share beyond the tolerance.

Reference (independent of the package): the n = 2 meter QFI in 60-digit
mpmath, from the closed-form coherence x + y of the (+-) block,
differentiated in tau with `mpmath.diff`, then the qubit formula
I = |dc|^2 + (Re conj(c) dc)^2 / (1 - |c|^2) for rho = (1 + Re c sx - Im c sy)/2.

A row passes when |q - ref| <= REL_TOL * max(|q|, |ref|, ABS_FLOOR / REL_TOL).
Its relative error is the left side over the right side's max, so it is at
most 1 and a value of about 1 means the row is wrong in every digit.
"""

from __future__ import annotations

import csv
import math
import random
from collections import defaultdict

import mpmath as mp

REL_TOL = 1e-6
ABS_FLOOR = 1e-9
# meter-map rows checked: one tau in every META_STRIDE, offset chosen per t by
# the seed, so each of the 25 times gets 40 of its 400 temperatures
META_STRIDE = 10
# coupling and sensor parameters the grid invocations use (CLI defaults)
GAMMA = 1.0
SENSOR_OMEGA = 1.0


class Tally:
    """Operations attempted and failed, and the worst reference error."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.worst = 0.0
        self.notes = []

    def op(self, ok, note=None):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if note and len(self.notes) < 20:
                self.notes.append(note)

    def compare(self, got, ref, label, ok=True):
        """One reference row: record its error; it passes within REL_TOL and ok."""
        err = _rel_err(got, ref)
        self.worst = max(self.worst, err)
        self.op(ok and err <= REL_TOL,
                f"{label}: got {got:.17g}, reference {mp.nstr(ref, 17)}")


def _rel_err(got, ref):
    if not math.isfinite(got):
        return 1.0
    scale = max(abs(mp.mpf(got)), abs(ref), mp.mpf(ABS_FLOOR / REL_TOL))
    return float(abs(mp.mpf(got) - ref) / scale)


def _coherence(tau, t, omega):
    """x + y of the (+-) meter block at temperature tau and time t."""
    n = 1 / mp.expm1(SENSOR_OMEGA / tau)
    g = mp.mpf(GAMMA)
    gap = -omega
    root = mp.sqrt(((2 * n + 1) * g) ** 2 - gap ** 2 + 2j * g * gap)
    mu = -((2 * n + 1) * g + 1j * gap) / 2
    ep = mp.exp((mu + root / 2) * t)
    em = mp.exp((mu - root / 2) * t)
    diff = (ep - em) / root
    return n * g * diff + (ep + em) / 2 + (g + 1j * gap) * diff / 2


def reference_meter_qfi(tau, t, omega):
    """60-digit temperature QFI of the n = 2 meter, equal superposition start."""
    with mp.workdps(60):
        tau, t, omega = mp.mpf(tau), mp.mpf(t), mp.mpf(omega)
        c = _coherence(tau, t, omega)
        dc = mp.diff(lambda x: _coherence(x, t, omega), tau)
        return abs(dc) ** 2 + mp.re(mp.conj(c) * dc) ** 2 / (1 - abs(c) ** 2)


def reference_steady_sensor_qfi(tau):
    """exp(1/tau) / ((1 + exp(1/tau))^2 tau^4) in 60 digits."""
    with mp.workdps(60):
        tau = mp.mpf(tau) / SENSOR_OMEGA
        e = mp.exp(1 / tau)
        return e / ((1 + e) ** 2 * tau ** 4)


def _near(a, b, rel=REL_TOL, floor=ABS_FLOOR):
    return abs(a - b) <= max(rel * max(abs(a), abs(b)), floor)


def read_csv(path, header):
    """Rows of floats, or None when the file is missing or malformed."""
    try:
        with open(path, encoding="utf-8", newline="") as f:
            reader = csv.reader(f)
            if next(reader, None) != header:
                return None
            return [[float(v) for v in row] for row in reader]
    except (OSError, ValueError):
        return None


def _check_sensor(rows, tally, rng):
    for tau, t, p_e, q, q_steady in rows:
        # at t = inf the transient columns must equal the steady state too
        n = 1.0 / math.expm1(SENSOR_OMEGA / tau)
        ok = not math.isinf(t) or (_near(q, q_steady) and _near(p_e, n / (2 * n + 1)))
        tally.compare(q_steady, reference_steady_sensor_qfi(tau),
                      f"sensor tau={tau:g} t={t:g} (qfi_sensor {q!r}, p_e {p_e!r})", ok)


def _check_compare(rows, tally, rng):
    for tau, t, full, sensor, meter in rows:
        bound = max(meter, sensor)
        tally.op(full >= bound - max(REL_TOL * bound, ABS_FLOOR),
                 f"compare tau={tau:g} t={t:g}: qfi_full {full!r} < {bound!r}")


def _check_meter_map(rows, tally, rng, omega=2.0):  # meter-map runs at --omega 2
    by_t = defaultdict(list)
    for row in rows:
        by_t[row[1]].append(row)
    for t, column in by_t.items():
        for tau, _t, q in column[rng.randrange(META_STRIDE)::META_STRIDE]:
            tally.compare(q, reference_meter_qfi(tau, t, omega),
                          f"meter-map tau={tau!r} t={t!r}")


def _check_spectrum(rows, tally, rng):
    for row in rows:
        omega, lam = row[0], [complex(row[1 + i], row[5 + i]) for i in range(4)]
        closed = (complex(row[9], row[11]), complex(row[10], row[12]))
        ok = all(min(abs(c - v) for v in lam) <= max(REL_TOL * abs(c), ABS_FLOOR)
                 for c in closed)
        tally.op(ok, f"spectrum omega={omega:g}: closed pair {closed} not in {lam}")


def _check_tmax(rows, tally, rng):
    for omega, t, tau_max, q in rows:
        tally.compare(q, reference_meter_qfi(tau_max, t, omega),
                      f"tmax omega={omega:g} t={t:g} tau_max={tau_max!r}")


def _check_scaling(rows, tally, rng):
    for (n, t, q, r), nxt in zip(rows, rows[1:]):
        if nxt[1] == t and nxt[0] == n + 1:
            tally.op(_near(r, (nxt[2] - q) / q, rel=1e-9, floor=1e-12),
                     f"scaling n={n:g} t={t:g}: r {r!r} vs next row")


def _check_optimize(rows, tally, rng):
    by_t = defaultdict(list)
    for row in rows:
        by_t[row[1]].append(row)
    for t, column in by_t.items():
        flags_ok = (sum(r[3] == 1 for r in column) == 1
                    and sum(r[4] == 1 for r in column) == 1
                    and all(r[3] in (0, 1) and r[4] in (0, 1) for r in column))
        for tau, _t, bures, _w, _m in column:
            tally.op(flags_ok and 0.0 <= bures <= 2.0,
                     f"optimize tau={tau:g} t={t:g}: bures {bures!r}, flags ok {flags_ok}")


# command -> (CSV header, row checker, operations the checker makes)
CHECKS = {
    "sensor": (["tau", "t", "p_e", "qfi_sensor", "qfi_steady"], _check_sensor,
               lambda inv: inv.rows),
    "compare": (["tau", "t", "qfi_full", "qfi_sensor", "qfi_meter"], _check_compare,
                lambda inv: inv.rows),
    "meter-map": (["tau", "t", "qfi_meter"], _check_meter_map,
                  lambda inv: inv.rows // META_STRIDE),
    "spectrum": (["omega"] + [f"re_lambda_{i}" for i in range(1, 5)]
                 + [f"im_lambda_{i}" for i in range(1, 5)]
                 + ["re_closed_1", "re_closed_2", "im_closed_1", "im_closed_2"],
                 _check_spectrum, lambda inv: inv.rows),
    "tmax": (["omega", "t", "tau_max", "qfi_at_max"], _check_tmax,
             lambda inv: inv.rows),
    # the last n of each t has no next row to check r against
    "scaling": (["n", "t", "qfi_at_tmax", "r"], _check_scaling,
                lambda inv: inv.rows - len(inv.args[inv.args.index("--t") + 1].split(","))),
    "optimize": (["tau", "t", "bures_to_equal", "tau_white_line_flag",
                  "tau_max_flag"], _check_optimize, lambda inv: inv.rows),
}


def check_workload(invocations, csv_paths, codes, digests, seed):
    """Check one run. codes: exit codes of pass 0; digests: per pass, per invocation.

    An invocation that exited nonzero, or wrote a missing or malformed CSV,
    fails itself and every row it would have had checked.
    """
    tally = Tally()
    rng = random.Random(seed)
    for i, (inv, path, code) in enumerate(zip(invocations, csv_paths, codes)):
        header, checker, expected_ops = CHECKS[inv.command]
        rows = read_csv(path, header) if code == 0 else None
        ok = rows is not None and len(rows) == inv.rows
        tally.op(ok, f"{inv.command}: exit {code}, "
                     f"{'no CSV' if rows is None else f'{len(rows)} rows'}")
        before = tally.attempted
        if ok:
            checker(rows, tally, rng)
        missing = expected_ops(inv) - (tally.attempted - before)
        for _ in range(max(missing, 0)):
            tally.op(False)
        column = {d[i] for d in digests}
        tally.op(len(column) == 1 and None not in column,
                 f"{inv.command}: CSV bytes differ across {len(digests)} passes")
    return tally


def measure_probe(probe, path, code, tally):
    """(worst relative error, share of rows beyond REL_TOL) of the probe's rows.

    Only the probe's own run is an operation: a nonzero exit or a wrong CSV
    fails it and reads as every row wrong.
    """
    header = CHECKS[probe.command][0]
    rows = read_csv(path, header) if code == 0 else None
    ok = rows is not None and len(rows) == probe.rows
    tally.op(ok, f"probe {probe.command}: exit {code}, "
                 f"{'no CSV' if rows is None else f'{len(rows)} rows'}")
    if not ok:
        return 1.0, 1.0
    errors = [_rel_err(q, reference_meter_qfi(tau, t, 2.0)) for tau, t, q in rows]
    return max(errors), sum(e > REL_TOL for e in errors) / len(errors)


def row_count(path):
    try:
        with open(path, encoding="utf-8") as f:
            return max(sum(1 for _ in f) - 1, 0)
    except OSError:
        return 0
