"""The CLI corpus: every command line whose output the tests check, and what
it must produce. `test_cli_corpus.py` runs it in process, `diff_trees.py`
in two source trees; `test_cli.py` holds only what cannot be a line here
(unit tests, and runs that patch the package, spy on it, write a config
file or need a path to exist first). Each line runs in an empty working
directory, so its CSV goes to `<subcommand>.csv` (or to the line's own
--out).

`CASES` holds each line with its exit code, stderr, CSV row count and the
named row checks of `test_cli_corpus.CHECKS`. `PAIRS` holds (one, many)
command lines: each row of `one` is, byte for byte, the row of `many` with
the same first two columns; on the same grid, the two CSVs are the same
bytes.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path
from typing import NamedTuple


class Case(NamedTuple):
    argv: str  # after `thermoq`
    code: int = 0
    # a line count; or the prefix of the one line (an argparse rejection's
    # follows the usage block); or None, left to a row check
    stderr: int | str | None = 0
    rows: int | None = None  # CSV rows; None: no file written
    checks: tuple = ()  # names in test_cli_corpus.CHECKS


_DEFAULT_ROWS = {"sensor": 200, "compare": 600, "meter-map": 1000, "tmax": 105,
                 "optimize": 128, "scaling": 22, "spectrum": 81}
# one small grid per subcommand, and its CSV row count
SMALL_RUNS = {
    "sensor": ("--tau 0.1,0.2 --t 1,inf", 4),
    "compare": ("--tau 0.15,0.3 --t 1,20", 4),
    "meter-map": ("--tau 0.15,0.3 --t 100,1000 --n 3", 4),
    "tmax": ("--tau 0.05,1 --t 10,100 --omega 0.5,2", 4),
    "optimize": ("--tau 0.15,0.25 --t 5 --n 3", 2),
    "scaling": ("--t 10 --n 2:3", 2),
    "spectrum": ("--omega 0,1,2", 3),
}
_BLOCKS = "error: sector blocks overflow double precision at "
_RATES = "error: Lindblad rates overflow double precision at tau="
_NO_ARG = "thermoq: error: unrecognized arguments: "

# every compare line: the joint QFI bounds both marginal QFIs
_BOUNDS = {"compare": ("full_ge_sensor", "full_ge_meter")}

CASES = (
    *(Case(f"{sub}{svg}", rows=rows, checks=_BOUNDS.get(sub, ()))
      for sub, rows in _DEFAULT_ROWS.items() for svg in ("", " --svg")),
    *(Case(f"{sub} {args}", rows=rows, checks=_BOUNDS.get(sub, ()))
      for sub, (args, rows) in SMALL_RUNS.items()),
    Case("sensor --tau 0.1,0.2 --t inf", rows=2, checks=("sensor_columns",)),
    Case("compare --tau 0.1,0.2 --t 1,2", rows=4, checks=("time_outer",)),
    Case("--help"),
    # a gapless meter (C = 1, C' = 0 at every gap: qfi_meter exactly 0) and a
    # non-dyadic ladder at t = inf; gapless and gapped rows in one T_max
    # search; non-contiguous meter levels at two times in one search
    Case("compare --omega 0 --t 1,inf", rows=400, checks=("meter_zero", "full_is_sensor")),
    Case("meter-map --omega 0 --n 3 --t 1,inf", rows=400, checks=("meter_zero",)),
    Case("meter-map --n 4 --omega 1.3 --t 1,inf", rows=400),
    Case("tmax --omega 0,2", rows=42),
    Case("scaling --n 3,5 --t 10,1e5", rows=4),
    # the equal start fails at tau = 0.05, and the seed-3 starts converge there
    Case("optimize --n 3 --seed 3 --tau 0.05,0.3 --t 5,50", rows=4),
    # and the same seed where they run nowhere
    Case("optimize --n 3 --seed 3 --tau 0.05,0.3 --t 1,100", rows=4),
    # coefficients normalized by the CLI, and returned by the optimizer, pass
    # the library's unit-norm check
    Case("compare --n 3 --psi0 3,4,5", rows=600, checks=_BOUNDS["compare"]),
    Case("meter-map --n 3 --psi0 optimize --tau 0.1,0.3 --t 1,10", rows=4),
    # a slow root that cancelled N away once overflowed the QFI here
    Case("meter-map --tau 1e6 --t 1e300 --omega 0.01", rows=1,
         checks=("meter_zero", "mp_meter_zero")),
    Case("compare --tau 1e6 --t 1e300 --omega 0.01", rows=1,
         checks=("meter_zero", "full_is_steady_sensor")),
    # a decay exponent (2N+1) t past double range once made qfi_sensor nan,
    # and failed compare at Omega = 0 with "sector blocks overflow"
    *(Case(f"{sub} --tau 1 --t 1e308", rows=1, checks=("steady_row",))
      for sub in ("sensor", "compare --omega 0")),
    # 2N + 1 and 2 tau once overflowed from tau ~ 9e307 on: p_e came out 0
    # and qfi_sensor nan, after numpy warnings
    Case("sensor --tau 1e307,1e308,1.7e308 --t 1e-308,1,inf", rows=9,
         checks=("population_mp",)),
    # a derivative squared before the division once underflowed every QFI to 0
    Case("sensor --tau 0.002 --t 1,inf", rows=2, checks=("qfi_positive",)),
    Case("sensor --tau 0.002,0.0025 --t 1,inf", rows=4,
         checks=("qfi_positive", "time_outer", "sensor_mp")),
    Case("meter-map --tau 0.002,0.0025 --t 1", rows=2, checks=("qfi_positive",)),
    # s+ = q - N once lost N here, and the derivative left the state's support
    Case("compare --n 6 --omega 1e-6 --t 1e9", rows=200,
         checks=("full_ge_sensor", "full_ge_meter")),
    # T_max at an end of the range: one warning line per such row, and none
    # where no row is; at --tau 0.3,1 the count is whatever the platform's
    # rounding makes of the rows near the end
    Case("tmax --tau 0.3,1", stderr=None, rows=105, checks=("edge_lines",)),
    Case("tmax --tau 0.2,1 --t 10,100,1000 --omega 0.5,2", stderr=3, rows=6,
         checks=("edge_lines",)),
    Case("tmax --tau 0.05,1 --t 10,100 --omega 2", rows=2),
    # one search over every row, gapless Omega = 0 rows among them
    Case("tmax --tau 0.2,1 --t 10,100,1000,inf --omega 0,0.5,2", stderr=None, rows=12,
         checks=("tmax_per_row",)),
    # at t = 1e10, T_max lies below the range for n = 2, 3 and 4; one line
    # per CSV row, so the n = 4 search behind r(3) prints none
    Case("scaling --t 10,1e10 --n 2:3", stderr=2, rows=4, checks=("scaling_library",)),
    Case("scaling --t 10,1e10 --n 3", rows=2, checks=("scaling_library",),
         stderr="warning: T_max on the tau-range edge at n=3 t=1e+10 (tau=0.05)"),
    Case("scaling --t 10,100 --n 2:3", rows=4, checks=("scaling_library",)),
    # an n > 2 meter from gamma t = 1 up, where its QFI is smooth enough
    Case("tmax --tau 0.01,10 --t 1:1e10:11 --omega 0.1,1,10", rows=33, checks=("certificate",)),
    Case("tmax --tau 0.05,1 --n 5 --omega 1 --t 1:1e6:31", rows=31, checks=("certificate",)),
    # the slow pair (about -1.5e-22 -/+ 7.7e-23 i) once cancelled to 0
    Case("spectrum --tau 0.02", rows=81, checks=("closed_pair",)),
    Case("spectrum --omega 1,2,3", rows=3, checks=("closed_pair", "spectrum_per_coupling")),
    # these once wrote nan, inf or 0 with exit 0, or numpy warnings before
    # the error line
    *(Case(argv, code=1, stderr=_BLOCKS) for argv in (
        "meter-map --tau 1e200", "compare --tau 1e200 --t 1",
        "compare --omega 1e300 --tau 0.2 --t 1", "tmax --tau 0.05,1e300",
        "optimize --tau 1e200 --t 1")),
    Case("spectrum --tau 1e300", code=1, stderr=_RATES + "1e+300, gap=0"),
    *(Case(f"spectrum --omega {omegas}", code=1, stderr=_RATES + "0.2, gap=-1e+300")
      for omegas in ("1e300", "1,1e300")),
    # a decohered gapped meter has I(n) = 0
    Case("scaling --t inf", code=1,
         stderr="error: QFI at T_max is zero at n=2 t=inf, so its gain r is undefined"),
    Case("tmax --tau 0.05", code=2, stderr="configuration error: tmax needs two taus"),
    Case("sensor --tau bogus --out x.csv", code=2,
         stderr="configuration error: invalid tau value 'bogus'"),
    Case("sensor --tau a:1:3", code=2, stderr="configuration error: invalid tau range 'a:1:3'"),
    Case("sensor --config no/such.json", code=2,
         stderr="configuration error: cannot read config file no/such.json: "),
    Case("no-such-command", code=2,
         stderr="thermoq: error: argument subcommand: invalid choice: 'no-such-command'"),
    # gamma is the rate unit, not an option; the seed only where it is read
    *(Case(f"{sub} {flag}", code=2, stderr=_NO_ARG + flag) for sub, flag in (
        *((sub, "--gamma 2") for sub in _DEFAULT_ROWS), ("sensor", "--seed 5"),
        ("compare", "--sensor-omega 2"))),
    Case("sensor --svg --out x.svg", code=2,
         stderr="configuration error: the --svg chart would overwrite the CSV x.svg"),
    # an output that cannot be written is a configuration error, not a numerical one
    *(Case(f"{sub} --out {out}", code=2, stderr=f"configuration error: cannot write {out}: ")
      for sub, out in (("spectrum", "no/such/dir/x.csv"), ("sensor", "."))),
    # a near-pure joint state, whose whole-state eigensolve once wrote a
    # qfi_full below qfi_sensor: in 25 of the 200 rows, 0 against 2.8e-207,
    # and 9.0e-28 against 3.8e-11
    Case("compare --t 1e-6", rows=200, checks=("full_ge_sensor",)),
    Case("compare --tau 0.002 --t 1", rows=1, checks=("full_ge_sensor",)),
    Case("compare --tau 0.0275 --t 0.146 --omega 22 --n 3", rows=1,
         checks=("full_ge_sensor",)),
)

# the benchmark's timed command lines and its probe; bench/ is no package
_spec = importlib.util.spec_from_file_location(
    "workloads", Path(__file__).resolve().parents[1] / "bench" / "workloads.py")
_bench = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = _bench  # its frozen dataclass looks the module up
_spec.loader.exec_module(_bench)
CASES += tuple(Case(" ".join((inv.command, *inv.args)), rows=inv.rows,
                    checks=_BOUNDS.get(inv.command, ()))
               for inv in (*sum(_bench.WORKLOADS.values(), ()), _bench.PROBE))

PAIRS = (
    # alone full support; beside near-pure states, the masked QFI route
    ("compare --n 4 --tau 0.3 --t 1", "compare --n 4 --tau 0.05,0.3 --t 1e-6,1"),
    # searched beside other times, and beside 11 meters sharing sector blocks
    ("scaling --n 3,5 --t 10", "scaling --n 3,5 --t 10,1e5"),
    ("scaling --n 5 --t 10,1e5", "scaling --n 2:12 --t 10,1e5"),
    # an optimized meter beside points that run the seeded starts
    ("meter-map --n 3 --psi0 optimize --tau 0.3 --t 1",
     "meter-map --n 3 --psi0 optimize --tau 0.05,0.3 --t 1,10"),
    # a non-palindromic meter (the complex route) beside another coupling and time
    ("tmax --n 4 --psi0 1,2,3,4 --omega 2 --t 10",
     "tmax --n 4 --psi0 1,2,3,4 --omega 0.5,2 --t 10,1e5"),
    # --n 12 searches I(12) and I(13) only
    ("scaling --n 12", "scaling --n 2:12"),
    # coefficients at any scale normalize to the same meter
    *((f"compare --tau 0.1,0.3 --t 2 --psi0 {c},{c}", "compare --tau 0.1,0.3 --t 2 --psi0 1,1")
      for c in ("1e200", "1e-200")),
    # the chart leaves the CSV alone
    *((f"{argv} --svg", argv) for argv in (
        *(f"{sub} {args}" for sub, (args, _) in SMALL_RUNS.items()),
        "sensor --tau 0.1:1:20 --t inf")),
)
