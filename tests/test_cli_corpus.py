"""The CLI corpus (`cli_corpus.py`), run in process through `thermoq.cli.main`.
Under the tests' warning filter a numpy warning raises, so it would reach
`main` as the error line itself and fail that line's prefix."""

import contextlib
import io
import os
from pathlib import Path

import numpy as np
import pytest

from cli_corpus import CASES, PAIRS
from thermoq import cli
from thermoq.qfi import meter_qfi_grid


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
    return code, err.getvalue(), {path.name: path.read_text(encoding="utf-8")
                                  for path in sorted(Path(workdir).iterdir())}


def _edge_lines(rows, lines, cfg):
    """Some row's T_max is an end of the tau range, and stderr is one warning
    line for each such row, in row order."""
    edge = [r for r in rows if r["tau_max"] in (cfg.grid.taus[0], cfg.grid.taus[-1])]
    return edge and lines == [f"warning: T_max on the tau-range edge at omega={r['omega']:g} "
                              f"t={r['t']:g} (tau={r['tau_max']:g})" for r in edge]


def _certificate(rows, lines, cfg):
    """Every row interior, its QFI the meter QFI at its tau_max, and no less
    than the meter QFI a relative 1e-4 (the search's tolerance) either side."""
    for r in rows:
        q, (left, at, right) = r["qfi_at_max"], meter_qfi_grid(
            r["tau_max"] * np.array([1 - 1e-4, 1, 1 + 1e-4]), r["t"], r["omega"],
            cli._grid_psi0(cfg))
        if (r["tau_max"] in (cfg.grid.taus[0], cfg.grid.taus[-1])
                or abs(q - at) > 1e-12 * at or not q >= max(left, right)):
            return False
    return True


# (CSV rows, stderr lines, the run's RunConfig) -> whether the rows pass
CHECKS = {
    "qfi_positive": lambda rows, lines, cfg: all(
        v > 0 for r in rows for col, v in r.items() if col.startswith("qfi_")),
    "gapless_meter_zero": lambda rows, lines, cfg: all(r["qfi_meter"] == 0 for r in rows),
    "full_ge_sensor": lambda rows, lines, cfg: all(r["qfi_full"] >= r["qfi_sensor"] for r in rows),
    "full_ge_meter": lambda rows, lines, cfg: all(r["qfi_full"] >= r["qfi_meter"] for r in rows),
    # at every Omega > 0 the closed pair's real part is the slow numeric one
    "closed_pair": lambda rows, lines, cfg: all(
        r["re_closed_1"] < 0 and r["re_closed_1"] == r["re_lambda_3"]
        for r in rows if r["omega"] > 0),
    "edge_lines": _edge_lines,
    "certificate": _certificate,
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
    cfg = cli.build_config(cli.build_parser().parse_args(case.argv.split()))
    csv, svg = cfg.out.name, cfg.out.with_suffix(".svg").name
    assert set(files) == ({csv, svg} if cfg.svg else {csv})
    assert not cfg.svg or files[svg]
    header, *body = files[csv].splitlines()
    assert len(body) == case.rows
    rows = [dict(zip(header.split(","), map(float, line.split(",")))) for line in body]
    for check in case.checks:
        assert CHECKS[check](rows, lines, cfg), check


@pytest.mark.parametrize("one, many", PAIRS, ids=[one.replace(" ", "_") for one, _ in PAIRS])
def test_pair(one, many, tmp_path):
    tables = []
    for name, argv in (("one", one), ("many", many)):
        (tmp_path / name).mkdir()
        code, err, files = run(argv, tmp_path / name)
        assert code == 0, err
        (text,) = files.values()
        tables.append(text.splitlines())
    (head, *rows), (many_head, *many_rows) = tables
    keys = [row.split(",")[:2] for row in rows]
    assert rows and head == many_head
    assert [row for row in many_rows if row.split(",")[:2] in keys] == rows


def test_readme_lists_every_input_that_exits_1():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    assert [c.argv for c in CASES if c.code == 1 and f"`thermoq {c.argv}`" not in readme] == []
