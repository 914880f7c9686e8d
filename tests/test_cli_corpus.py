"""The CLI corpus (`cli_corpus.py`), run in process through `thermoq.cli.main`.
Under the tests' warning filter a numpy warning raises, so it would reach
`main` as the error line itself and fail that line's prefix.

Every line that writes a CSV also passes `_output`'s checks, and `diff_trees.py`
runs the whole corpus in two fresh interpreters."""

import contextlib
import dataclasses
import io
import math
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

import oracles
from cli_corpus import CASES, PAIRS
from thermoq import cli
from thermoq.bath import steady_sensor_qfi
from thermoq.dynamics import spin_x_spectrum
from thermoq.optimize import dimension_scaling, find_t_max
from thermoq.qfi import meter_qfi_grid
from thermoq.spectrum import slow_spectrum

_SVG = "{http://www.w3.org/2000/svg}"


def run(argv, workdir):
    """Run `thermoq <argv>` with workdir as the working directory: the exit
    code, the stderr text, and {name: text} of every file it wrote."""
    err, cwd = io.StringIO(), os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv.split())
    finally:
        os.chdir(cwd)
    return code, err.getvalue(), {path.name: path.read_bytes().decode("utf-8")
                                  for path in sorted(Path(workdir).iterdir())}


class Output(NamedTuple):
    """What one exit-0 line wrote, as a check reads it."""
    rows: list  # {column: value} per CSV row
    lines: list  # stderr lines
    cfg: cli.RunConfig
    csv: str


def _output(argv, err, files):
    """The line wrote its CSV and, under --svg, a chart that parses as an SVG
    holding a polyline, and nothing else. Every CSV line has a field per
    column, and the CSV is the reference writer's text of the table that the
    subcommand computes again."""
    cfg = cli.build_config(cli.build_parser().parse_args(argv.split()))
    csv, svg = cfg.out.name, cfg.out.with_suffix(".svg").name
    assert set(files) == ({csv, svg} if cfg.svg else {csv})
    if cfg.svg:
        root = ET.fromstring(files[svg])
        assert root.tag == _SVG + "svg" and root.find(f".//{_SVG}polyline") is not None
    names, *fields = (line.split(",") for line in files[csv].splitlines())
    assert all(len(row) == len(names) for row in fields)
    header, table, _ = cli._COMMANDS[cfg.subcommand](cfg)
    assert table.dtype == np.float64 and table.shape[1] == len(header)
    assert files[csv] == oracles.write_csv_reference(header, table)
    return Output([dict(zip(names, map(float, row))) for row in fields], err.splitlines(),
                  cfg, files[csv])


def _edge_lines(out):
    """Some row's T_max is an end of the tau range, and stderr is one warning
    line for each such row, in row order."""
    taus = out.cfg.taus
    edge = [r for r in out.rows if r["tau_max"] in (taus[0], taus[-1])]
    return edge and out.lines == [f"warning: T_max on the tau-range edge at omega={r['omega']:g} "
                                  f"t={r['t']:g} (tau={r['tau_max']:g})" for r in edge]


def _certificate(out):
    """Every row interior, its QFI the meter QFI at its tau_max, and no less
    than the meter QFI a relative 1e-4 (the search's tolerance) either side."""
    taus = out.cfg.taus
    for r in out.rows:
        q, (left, at, right) = r["qfi_at_max"], meter_qfi_grid(
            r["tau_max"] * np.array([1 - 1e-4, 1, 1 + 1e-4]), r["t"], r["omega"],
            cli._grid_psi0(out.cfg))
        if (r["tau_max"] in (taus[0], taus[-1])
                or abs(q - at) > 1e-12 * at or not q >= max(left, right)):
            return False
    return True


def _tmax_per_row(out):
    """The CSV and stderr lines of one find_t_max search per row, in row
    order, with some rows on the tau-range edge and some inside it."""
    cfg, rows, lines = out.cfg, [], []
    for omega in cfg.omegas:
        for t in cfg.times:
            tau_max, q, edge = find_t_max(omega, cli._grid_psi0(cfg), t,
                                          (cfg.taus[0], cfg.taus[-1]))
            rows.append([omega, t, tau_max, q])
            if edge:
                lines.append(f"warning: T_max on the tau-range edge at omega={omega:g} "
                             f"t={t:g} (tau={tau_max:g})")
    return (0 < len(lines) < len(rows) and out.lines == lines and out.csv
            == oracles.write_csv_reference(["omega", "t", "tau_max", "qfi_at_max"], rows))


def _scaling_library(out):
    """The rows of dimension_scaling in row order (time outer, n inner), and
    one stderr line for each of them on the tau-range edge, in that order."""
    cfg, rows, lines = out.cfg, [], []
    table = dimension_scaling(cfg.omegas[0], cfg.times, cfg.ns)
    for j, t in enumerate(cfg.times):
        for n, tau_max, q, edge, r in table:
            rows.append([n, t, q[j], r[j]])
            if edge[j]:
                lines.append(f"warning: T_max on the tau-range edge at n={n} t={t:g} "
                             f"(tau={tau_max[j]:g})")
    return out.lines == lines and out.csv == oracles.write_csv_reference(
        ["n", "t", "qfi_at_tmax", "r"], rows)


def _spectrum_per_coupling(out):
    """The CSV of one slow_spectrum call per coupling, the closed pair from a
    call on the unit ladder scaled by Omega, and that pair's first root the
    third numeric one to 1e-9 (its imaginary part up to sign)."""
    tau, header, rows = out.cfg.taus[0], list(out.rows[0]), []
    for omega in out.cfg.omegas:
        w = slow_spectrum(tau, spin_x_spectrum(2, omega), 4)
        c1, c2 = slow_spectrum(tau, omega * spin_x_spectrum(2, 1.0), 4)[2:4]
        rows.append([omega, *w.real, *w.imag, c1.real, c2.real, c1.imag, c2.imag])
    return (header[0] == "omega" and header[-1] == "im_closed_2"
            and out.csv == oracles.write_csv_reference(header, rows)
            and all(r["re_lambda_3"] == pytest.approx(r["re_closed_1"], abs=1e-9)
                    and abs(r["im_lambda_3"]) == pytest.approx(abs(r["im_closed_1"]), abs=1e-9)
                    for r in out.rows))


def _steady_row(out):
    """Each row is, from its third field on, the command's row at t = inf."""
    steady = dataclasses.replace(out.cfg, times=(math.inf,))
    header, table, _ = cli._COMMANDS[out.cfg.subcommand](steady)
    steady = oracles.write_csv_reference(header, table).splitlines()[1:]
    return [line.split(",")[2:] for line in out.csv.splitlines()[1:]] == [
        line.split(",")[2:] for line in steady]


def _population_mp(out):
    """p_e within 1e-15 of the 60-digit N/(2N+1) (1 - e^{-(2N+1) t}) at the
    row's tau and t, and both QFIs 0, the double their true values underflow
    to."""
    return all(
        r["p_e"] == pytest.approx(oracles.excited_population_mp(r["tau"], r["t"]),
                                  rel=1e-15, abs=0)
        and r["qfi_sensor"] == r["qfi_steady"] == 0 for r in out.rows)


def _sensor_mp(out):
    """qfi_sensor within 1e-13 of the mpmath reference, and at t = inf of
    qfi_steady."""
    return all(
        r["qfi_sensor"] == pytest.approx(oracles.agreed_mp(oracles.sensor_qfi_mp, r["tau"], r["t"]),
                                         rel=1e-13, abs=0)
        and (math.isfinite(r["t"])
             or r["qfi_sensor"] == pytest.approx(r["qfi_steady"], rel=1e-13, abs=0))
        for r in out.rows)


# Output -> whether the line passes
CHECKS = {
    "qfi_positive": lambda out: all(
        v > 0 for r in out.rows for col, v in r.items() if col.startswith("qfi_")),
    "meter_zero": lambda out: all(r["qfi_meter"] == 0 for r in out.rows),
    "full_ge_sensor": lambda out: all(r["qfi_full"] >= r["qfi_sensor"] for r in out.rows),
    "full_ge_meter": lambda out: all(r["qfi_full"] >= r["qfi_meter"] for r in out.rows),
    # at every Omega > 0 the closed pair's real part is the slow numeric one
    "closed_pair": lambda out: all(
        r["re_closed_1"] < 0 and r["re_closed_1"] == r["re_lambda_3"]
        for r in out.rows if r["omega"] > 0),
    "edge_lines": _edge_lines,
    "certificate": _certificate,
    "sensor_columns": lambda out: out.csv.startswith("tau,t,p_e,qfi_sensor,qfi_steady\n"),
    # CSV row order: time outer, tau inner
    "time_outer": lambda out: [(r["tau"], r["t"]) for r in out.rows] == [
        (tau, t) for t in out.cfg.times for tau in out.cfg.taus],
    "sensor_mp": _sensor_mp,
    "population_mp": _population_mp,
    # the 60-digit QFI of the equal two-level meter
    "mp_meter_zero": lambda out: all(
        oracles.meter_qfi_mp(r["tau"], r["t"], out.cfg.omegas[0]) == 0 for r in out.rows),
    "full_is_steady_sensor": lambda out: all(
        r["qfi_full"] == pytest.approx(steady_sensor_qfi(r["tau"]), rel=1e-12) for r in out.rows),
    "steady_row": _steady_row,
    "tmax_per_row": _tmax_per_row,
    "scaling_library": _scaling_library,
    "spectrum_per_coupling": _spectrum_per_coupling,
}


@pytest.mark.parametrize("case", [
    pytest.param(case, id=case.argv.replace(" ", "_"), marks=[pytest.mark.xfail(
        strict=True, reason=case.xfail)] if case.xfail else []) for case in CASES])
def test_case(case, tmp_path):
    code, err, files = run(case.argv, tmp_path)
    lines = err.splitlines()
    assert code == case.code, err
    if isinstance(case.stderr, str):
        assert lines and lines[-1].startswith(case.stderr), err
        assert len(lines) == 1 or (case.stderr.startswith("thermoq")
                                   and lines[0].startswith("usage: ")), err
    elif case.stderr is not None:
        assert len(lines) == case.stderr, err
    if case.rows is None:
        assert not files
        return
    out = _output(case.argv, err, files)
    assert len(out.rows) == case.rows
    for check in case.checks:
        assert CHECKS[check](out), check


@pytest.mark.parametrize("one, many", PAIRS, ids=[one.replace(" ", "_") for one, _ in PAIRS])
def test_pair(one, many, tmp_path):
    tables = []
    for name, argv in (("one", one), ("many", many)):
        (tmp_path / name).mkdir()
        code, err, files = run(argv, tmp_path / name)
        assert code == 0, err
        tables.append(_output(argv, err, files).csv.splitlines())
    (head, *rows), (many_head, *many_rows) = tables
    keys = [row.split(",")[:2] for row in rows]
    assert rows and head == many_head
    assert [row for row in many_rows if row.split(",")[:2] in keys] == rows


def test_readme_lists_every_input_that_exits_1():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    assert [c.argv for c in CASES if c.code == 1 and f"`thermoq {c.argv}`" not in readme] == []


def test_diff_trees_finds_a_tree_unchanged_against_itself():
    # every corpus line writes the same bytes in two fresh interpreters
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, str(root / "tests" / "diff_trees.py"), root, root],
                          capture_output=True, text=True, timeout=600)
    lines = dict.fromkeys([*(c.argv for c in CASES), *sum(PAIRS, ())])
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == f"0 of {len(lines)} command lines changed"
