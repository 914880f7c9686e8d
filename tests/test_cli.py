import dataclasses
import importlib
import json
import math
import os
import pkgutil
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import oracles
import thermoq
from thermoq import cli, optimize, qfi
from thermoq.bath import steady_sensor_qfi
from thermoq.cli import (ConfigError, SweepGrid, _parse_axis, _parse_ns,
                         _parse_psi0, build_config, build_parser, main,
                         render_svg, write_csv)
from thermoq.dynamics import equal_superposition, spin_x_spectrum
from thermoq.optimize import dimension_scaling, find_t_max
from thermoq.spectrum import slow_spectrum


def make_config(argv):
    return build_config(build_parser().parse_args(argv))


def test_parse_axis_forms():
    assert _parse_axis("0.1,0.2,0.5", "tau") == (0.1, 0.2, 0.5)
    assert _parse_axis("1,inf", "t") == (1.0, math.inf)
    log = _parse_axis("1:100:3", "t")
    np.testing.assert_allclose(log, (1.0, 10.0, 100.0), rtol=1e-12)
    lin = _parse_axis("0:4:5:lin", "omega")
    np.testing.assert_allclose(lin, (0.0, 1.0, 2.0, 3.0, 4.0), rtol=1e-12)
    assert _parse_axis([0.1, 0.3], "tau") == (0.1, 0.3)


def test_parse_axis_errors():
    for bad in ("1:2", "1:2:3:4:5", "2:1:5", "1:2:1", "0:2:5", "a,b",
                "1:2:3:cubic"):
        with pytest.raises(ConfigError):
            _parse_axis(bad, "tau")


def test_parse_ns_forms_and_errors():
    assert _parse_ns(4) == (4,)
    assert _parse_ns("2,5,9") == (2, 5, 9)
    assert _parse_ns("2:5") == (2, 3, 4, 5)
    assert _parse_ns([2, 3]) == (2, 3)
    assert _parse_ns([2.0, 3]) == (2, 3)  # JSON numbers that are integral
    assert _parse_ns(3.0) == (3,)  # a scalar JSON number takes the list path
    for bad in ("5:2", "2.5", "x", ["a"], [2.7], [True], [None], 2.5):
        with pytest.raises(ConfigError):
            _parse_ns(bad)
    with pytest.raises(ConfigError, match="n list entries must be integers"):
        _parse_ns(True)


def test_parse_psi0():
    assert _parse_psi0("equal") == "equal"
    assert _parse_psi0("optimize") == "optimize"
    assert _parse_psi0("0.6,0.8") == (0.6, 0.8)
    assert _parse_psi0([0.6, 0.8]) == (0.6, 0.8)
    for bad in ("ground", ["x", 1], [None, 1]):
        with pytest.raises(ConfigError):
            _parse_psi0(bad)
    # coefficients are normalized without overflow or underflow at any scale
    equal = make_config(["compare", "--psi0", "1,1"]).psi0
    for spec in ("1e200,1e200", "1e-200,1e-200"):
        assert make_config(["compare", "--psi0", spec]).psi0 == equal
    assert make_config(["compare", "--psi0", "1e-200,1"]).psi0 == (1e-200, 1.0)


def test_default_configs():
    cfg = make_config(["sensor"])
    assert cfg.grid.times == (math.inf,)
    assert len(cfg.grid.taus) == 200
    assert cfg.out.name == "sensor.csv"
    cfg = make_config(["compare"])
    assert cfg.grid.times == (1.0, 2.6, 20.0)
    assert cfg.grid.omegas == (2.0,)
    assert cfg.n == 2
    cfg = make_config(["scaling"])
    assert cfg.grid.ns == tuple(range(2, 13))
    cfg = make_config(["spectrum"])
    assert len(cfg.grid.omegas) == 81 and cfg.grid.taus == (0.2,)


def test_flag_overrides_and_psi0_normalization():
    cfg = make_config(["compare", "--tau", "0.1,0.2", "--psi0", "3,4",
                       "--seed", "5", "--out", "x.csv"])
    assert cfg.grid.taus == (0.1, 0.2)
    np.testing.assert_allclose(cfg.psi0, (0.6, 0.8), rtol=1e-12)
    assert cfg.seed == 5 and cfg.out.name == "x.csv"


def test_sweep_grid_validation():
    grid = SweepGrid(taus=(0.1, 0.2), times=(1.0, math.inf), omegas=(0.0, 2.0),
                     ns=(2, 5))
    assert grid.taus == (0.1, 0.2)
    with pytest.raises(ValueError):
        SweepGrid(taus=(0.2, 0.1))  # not increasing
    with pytest.raises(ValueError):
        SweepGrid(taus=(0.0, 0.1))  # tau must be positive
    with pytest.raises(ValueError):
        SweepGrid(times=(-1.0, 2.0))
    with pytest.raises(ValueError):
        SweepGrid(omegas=(-0.5, 1.0))  # couplings are nonnegative
    with pytest.raises(ValueError):
        SweepGrid(omegas=(0.5, math.inf))
    with pytest.raises(ValueError):
        SweepGrid(ns=(1, 2))  # meter needs at least two levels


def test_config_file_merging(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"tau": "0.1,0.3", "t": [2.0], "seed": 9}),
                    encoding="utf-8")
    cfg = make_config(["compare", "--config", str(path), "--tau", "0.2,0.4"])
    assert cfg.grid.taus == (0.2, 0.4)  # flag wins over file
    assert cfg.grid.times == (2.0,)
    assert cfg.seed == 9
    # a scalar n is a one-entry list: an integral JSON number is accepted
    path.write_text(json.dumps({"n": 3.0}), encoding="utf-8")
    assert make_config(["compare", "--config", str(path)]).n == 3


def test_config_errors():
    for argv in (
        ["compare", "--omega", "1,2"],       # one coupling per run
        ["compare", "--n", "2,3"],           # scalar n
        ["compare", "--psi0", "0.6,0.6,0.5"],  # wrong length
        ["compare", "--psi0=-1,0"],
        ["compare", "--psi0", "nan,1"],
        ["compare", "--psi0", "inf,1"],
        ["compare", "--psi0", "0,0"],
        ["compare", "--seed", "-1"],
        ["spectrum", "--n", "3"],
        ["spectrum", "--tau", "0.1,0.2"],
        ["tmax", "--psi0", "optimize"],
        ["tmax", "--tau", "0.5"],            # one tau is no search range
        ["sensor", "--tau", "0.2,0.1"],
    ):
        with pytest.raises(ConfigError):
            make_config(argv)


def test_config_file_rejects_unknown_keys(tmp_path, monkeypatch):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"temperature": 1}), encoding="utf-8")
    with pytest.raises(ConfigError):
        make_config(["sensor", "--config", str(path)])
    # known keys holding values of the wrong type exit 2, not with a traceback
    monkeypatch.chdir(tmp_path)  # a run that got through would write compare.csv
    for values in ({"n": ["a"]}, {"n": [2.7]}, {"n": True}, {"psi0": ["x", 1]},
                   {"svg": "false"}, {"svg": 1}, {"out": 5},
                   {"seed": 1.5}, {"seed": True}, {"seed": "3"},
                   {"sensor_omega": "2"},
                   {"sensor_omega": False}, {"t": [True, 2]}, {"tau": [0.1, False]},
                   {"omega": [True]}, {"psi0": [True, 1]}):
        path.write_text(json.dumps(values), encoding="utf-8")
        with pytest.raises(ConfigError):
            make_config(["compare", "--config", str(path)])
        assert main(["compare", "--config", str(path)]) == 2
    assert not (tmp_path / "compare.csv").exists()


def test_config_file_takes_exactly_the_subcommand_flags(tmp_path, monkeypatch,
                                                        capsys):
    # a key the subcommand has no flag for exits 2, as the flag does; such
    # keys were once read and ignored
    monkeypatch.chdir(tmp_path)  # a run that got through would write <sub>.csv
    path = tmp_path / "keys.json"
    for sub, values in (("spectrum", {"psi0": "optimize", "t": "1,2"}),
                        ("sensor", {"omega": "1,2", "n": 3}),
                        ("scaling", {"tau": "0.2"}), ("sensor", {"temperature": 1}),
                        *((sub, {"gamma": 1}) for sub in cli._DEFAULTS)):
        path.write_text(json.dumps(values), encoding="utf-8")
        assert main([sub, "--config", str(path)]) == 2, sub
        assert capsys.readouterr().err == (f"configuration error: {sub} takes no "
                                           f"{', '.join(sorted(values))}\n")
    assert not list(tmp_path.glob("*.csv"))
    # every own flag is a key: the defaults written out give the default run
    for sub, defaults in cli._DEFAULTS.items():
        want = make_config([sub])
        own = {**defaults, "out": str(want.out), "svg": False}
        if sub in cli._SEEDED:
            own["seed"] = 0
        path.write_text(json.dumps(own), encoding="utf-8")
        assert make_config([sub, "--config", str(path)]) == want, sub


def test_config_file_empty_axis_lists_exit_2(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # a run that got through would write <sub>.csv
    path = tmp_path / "empty.json"
    for sub, defaults in cli._DEFAULTS.items():
        for key in ("tau", "t", "omega", "n"):
            if key not in defaults:
                continue
            path.write_text(json.dumps({key: []}), encoding="utf-8")
            assert main([sub, "--config", str(path)]) == 2, (sub, key)
            assert capsys.readouterr().err.startswith("configuration error:")
    assert not list(tmp_path.glob("*.csv"))


def test_write_csv_roundtrip(tmp_path):
    path = tmp_path / "t.csv"
    rng = np.random.default_rng(71)
    values = rng.standard_normal(20) * 10.0 ** rng.integers(-8, 8, size=20)
    write_csv(path, ["a", "b"], [[v, i] for i, v in enumerate(values)])
    raw = path.read_bytes()
    assert b"\r" not in raw and raw.endswith(b"\n")
    lines = raw.decode("utf-8").splitlines()
    assert lines[0] == "a,b"
    for line, v in zip(lines[1:], values):
        text, idx = line.split(",")
        assert float(text) == v  # 17 significant digits reproduce the double
        assert "." not in idx  # integers stay integers


def test_write_csv_matches_the_per_cell_reference(tmp_path, monkeypatch):
    # signed zeros in one column, infinities and nan, the extreme doubles,
    # integral values passed as Python ints, and rows repeated down the table
    header = ["zero", "nonfinite", "extreme", "count"]
    rows = [[0.0, math.inf, 5e-324, 0],
            [-0.0, -math.inf, 2.2250738585072014e-308, 1],
            [0.0, math.nan, 1.7976931348623157e308, 2],
            [-0.0, math.inf, -5e-324, 13]] * 3
    ref, out = tmp_path / "ref.csv", tmp_path / "out.csv"
    oracles.write_csv_reference(ref, header, rows)
    assert ref.read_text(encoding="utf-8").splitlines()[1:5] == [
        "0,inf,4.9406564584124654e-324,0", "-0,-inf,2.2250738585072014e-308,1",
        "0,nan,1.7976931348623157e+308,2", "-0,inf,-4.9406564584124654e-324,13"]
    for chunk in (cli._CSV_CHUNK_ROWS, 5):  # one chunk, then rows split across chunks
        monkeypatch.setattr(cli, "_CSV_CHUNK_ROWS", chunk)
        write_csv(out, header, rows)
        assert out.read_bytes() == ref.read_bytes(), chunk


# one small grid per subcommand
_SMALL_RUNS = {
    "sensor": ["--tau", "0.1,0.2", "--t", "1,inf"],
    "compare": ["--tau", "0.15,0.3", "--t", "1,20"],
    "meter-map": ["--tau", "0.15,0.3", "--t", "100,1000", "--n", "3"],
    "tmax": ["--tau", "0.05,1", "--t", "10,100", "--omega", "0.5,2"],
    "optimize": ["--tau", "0.15,0.25", "--t", "5", "--n", "3"],
    "scaling": ["--t", "10", "--n", "2:3"],
    "spectrum": ["--omega", "0,1,2"],
}


def test_every_subcommand_writes_its_table_as_the_reference_does(tmp_path):
    assert set(_SMALL_RUNS) == set(cli._COMMANDS)
    for sub, args in _SMALL_RUNS.items():
        plain, charted, ref = (tmp_path / f"{sub}-{k}.csv" for k in ("plain", "svg", "ref"))
        assert main([sub, *args, "--out", str(plain)]) == 0
        header, table, _ = cli._COMMANDS[sub](make_config([sub, *args]))
        assert table.dtype == np.float64 and table.shape[1] == len(header), sub
        oracles.write_csv_reference(ref, header, table)
        assert plain.read_bytes() == ref.read_bytes(), sub
        # the chart leaves the CSV bytes alone
        assert main([sub, *args, "--svg", "--out", str(charted)]) == 0
        assert charted.read_bytes() == plain.read_bytes(), sub
        assert charted.with_suffix(".svg").is_file(), sub


def test_charts_are_built_only_for_svg(tmp_path, monkeypatch, capsys):
    def no_chart(*args):
        raise AssertionError("chart series built")

    monkeypatch.setattr(cli, "_points", no_chart)
    for sub, args in _SMALL_RUNS.items():
        out = tmp_path / f"{sub}.csv"
        assert main([sub, *args, "--out", str(out)]) == 0, sub
        assert main([sub, *args, "--svg", "--out", str(out)]) == 1, sub
        assert capsys.readouterr().err.endswith("error: chart series built\n"), sub
        assert not out.with_suffix(".svg").exists(), sub


def test_main_writes_expected_csv(tmp_path):
    out = tmp_path / "s.csv"
    code = main(["sensor", "--tau", "0.1,0.2", "--t", "inf",
                 "--out", str(out)])
    assert code == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "tau,t,p_e,qfi_sensor,qfi_steady"
    assert len(lines) == 3
    assert lines[1].split(",")[1] == "inf"


def test_main_exit_codes(tmp_path):
    assert main(["sensor", "--tau", "bogus",
                 "--out", str(tmp_path / "x.csv")]) == 2
    assert main(["no-such-command"]) == 2
    assert main(["compare", "--sensor-omega", "2"]) == 2  # not an option
    for sub in cli._DEFAULTS:  # gamma is the rate unit, not an option
        assert main([sub, "--gamma", "2"]) == 2, sub
    assert main(["--help"]) == 0


def test_seed_only_where_it_is_read(tmp_path, monkeypatch, capsys):
    # optimize, and compare or meter-map under psi0=optimize, read the seed;
    # the other subcommands reject it as a flag and as a config key (exit 2)
    monkeypatch.chdir(tmp_path)  # a run that got through would write <sub>.csv
    path = tmp_path / "seed.json"
    path.write_text(json.dumps({"seed": 5}), encoding="utf-8")
    for sub in cli._DEFAULTS:
        if sub in ("optimize", "compare", "meter-map"):
            assert make_config([sub, "--seed", "5"]).seed == 5
            assert make_config([sub, "--config", str(path)]).seed == 5
        else:
            assert main([sub, "--seed", "5"]) == 2, sub
            assert main([sub, "--config", str(path)]) == 2, sub
            assert capsys.readouterr().err.endswith(f"{sub} takes no seed\n")
    assert not list(tmp_path.glob("*.csv"))



def test_main_builds_the_parser_once_per_process(tmp_path, monkeypatch):
    # the one parser parses each call afresh, also after a usage error
    real, builds = cli.build_parser, []
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or real())
    cli._parser.cache_clear()
    try:
        assert main(["no-such-command"]) == 2
        assert main(["sensor", "--tau", "0.1", "--t", "1",
                     "--out", str(tmp_path / "s.csv")]) == 0
        assert main(["spectrum", "--out", str(tmp_path / "p.csv")]) == 0
    finally:
        cli._parser.cache_clear()
    assert builds == [1]
    assert (tmp_path / "s.csv").read_text(encoding="utf-8").startswith("tau,t,p_e,")
    assert (tmp_path / "p.csv").read_text(encoding="utf-8").startswith("omega,")


def test_public_names_resolve():
    modules = [thermoq] + [importlib.import_module(f"thermoq.{info.name}")
                           for info in pkgutil.iter_modules(thermoq.__path__)
                           if not info.name.startswith("_")]
    for module in modules:
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, (module.__name__, missing)


def test_rows_ordered_time_outer_tau_inner(tmp_path):
    out = tmp_path / "c.csv"
    assert main(["compare", "--tau", "0.1,0.2", "--t", "1,2",
                 "--out", str(out)]) == 0
    rows = [line.split(",")[:2] for line in
            out.read_text(encoding="utf-8").splitlines()[1:]]
    assert [(float(a), float(b)) for a, b in rows] == [
        (0.1, 1.0), (0.2, 1.0), (0.1, 2.0), (0.2, 2.0)]


def test_csv_bitwise_deterministic(tmp_path):
    # every subcommand on its small grid, and the optimizer on two grids of
    # the same seed: CI's fallback smoke grid, where the seeded starts run at
    # tau = 0.05, and one where they run nowhere
    runs = [[sub, *args] for sub, args in _SMALL_RUNS.items()]
    runs += [["optimize", "--n", "3", "--seed", "3", "--tau", "0.05,0.3", "--t", t]
             for t in ("5,50", "1,100")]
    assert {args[0] for args in runs} == set(cli._COMMANDS)
    for i, args in enumerate(runs):
        a, b = tmp_path / f"{i}-a.csv", tmp_path / f"{i}-b.csv"
        assert main(args + ["--out", str(a)]) == 0, args
        assert main(args + ["--out", str(b)]) == 0, args
        assert a.read_bytes() == b.read_bytes(), args


def test_svg_output_is_wellformed(tmp_path):
    out = tmp_path / "s.csv"
    assert main(["sensor", "--tau", "0.1:1:20", "--t", "inf",
                 "--out", str(out), "--svg"]) == 0
    svg = (tmp_path / "s.svg").read_text(encoding="utf-8")
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")
    assert "polyline" in svg
    # writing the chart must not perturb the CSV bytes
    plain = tmp_path / "p.csv"
    assert main(["sensor", "--tau", "0.1:1:20", "--t", "inf",
                 "--out", str(plain)]) == 0
    assert plain.read_bytes() == out.read_bytes()


def test_low_tau_sensor_qfis_are_not_zero(tmp_path):
    # (dp/dtau)^2 underflowed, and qfi_sensor read 0 beside a qfi_steady of
    # 4.45e-207 at tau = 0.002
    out = tmp_path / "s.csv"
    assert main(["sensor", "--tau", "0.002,0.0025", "--t", "1,inf", "--out", str(out)]) == 0
    header, *lines = out.read_text(encoding="utf-8").splitlines()
    rows = [dict(zip(header.split(","), map(float, line.split(",")))) for line in lines]
    assert [(r["tau"], r["t"]) for r in rows] == [
        (0.002, 1.0), (0.0025, 1.0), (0.002, math.inf), (0.0025, math.inf)]
    for r in rows:
        assert r["qfi_sensor"] > 0.0
        ref = oracles.agreed_mp(oracles.sensor_qfi_mp, r["tau"], r["t"])
        assert r["qfi_sensor"] == pytest.approx(ref, rel=1e-13, abs=0)
        if math.isinf(r["t"]):
            assert r["qfi_sensor"] == pytest.approx(r["qfi_steady"], rel=1e-13, abs=0)


def test_render_svg_drops_nonpositive_on_log_axes():
    svg = render_svg(("x", "y", True, True, [("s", [0.0, 1.0, 10.0], [1.0, 2.0, 0.0])]))
    ET.fromstring(svg)
    assert "polyline" in svg
    empty = render_svg(("x", "y", True, True, [("s", [0.0], [0.0])]))
    assert "no plottable data" in empty


def test_spectrum_command_closed_form_columns_match(tmp_path):
    out = tmp_path / "sp.csv"
    assert main(["spectrum", "--omega", "1,2,3", "--out", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    assert header[0] == "omega" and header[-1] == "im_closed_2"
    for line in lines[1:]:
        row = dict(zip(header, map(float, line.split(","))))
        # the two decaying numeric eigenvalues match the closed form
        assert row["re_lambda_3"] == pytest.approx(row["re_closed_1"], abs=1e-9)
        assert abs(row["im_lambda_3"]) == pytest.approx(abs(row["im_closed_1"]),
                                                        abs=1e-9)
    # the same bytes as one slow_spectrum call per coupling, whose third and
    # fourth eigenvalues are the closed pair
    rows = []
    for omega in (1.0, 2.0, 3.0):
        w = slow_spectrum(0.2, spin_x_spectrum(2, omega), 4)
        c1, c2 = slow_spectrum(0.2, omega * spin_x_spectrum(2, 1.0), 4)[2:4]
        rows.append([omega, *w.real, *w.imag, c1.real, c2.real, c1.imag, c2.imag])
    ref = tmp_path / "ref.csv"
    oracles.write_csv_reference(ref, header, rows)
    assert out.read_bytes() == ref.read_bytes()



def test_low_tau_closed_pair_is_the_slow_numeric_pair(tmp_path):
    # at tau = 0.02 the slow pair is about -1.5e-22 -/+ 7.7e-23 i, which the
    # closed-form columns once cancelled to 0
    out = tmp_path / "sp.csv"
    assert main(["spectrum", "--tau", "0.02", "--out", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, map(float, line.split(",")))) for line in lines[1:]]
    assert len(rows) == 81
    for row in rows[1:]:  # every Omega > 0
        assert row["re_closed_1"] < 0 and row["re_closed_1"] == row["re_lambda_3"], row


def test_optimizer_nonconvergence_goes_to_stderr(tmp_path, monkeypatch, capsys):
    argv = ["optimize", "--tau", "0.15,0.25", "--t", "5", "--n", "3", "--omega", "2"]
    assert main(argv + ["--out", str(tmp_path / "a.csv")]) == 0
    assert capsys.readouterr().err == ""
    real = cli.optimize_initial_state

    def unconverged(*args, **kwargs):
        state, report = real(*args, **kwargs)
        # one flag per grid point: the CLI makes one call over the grid
        return state, dataclasses.replace(report, converged=np.zeros_like(report.converged),
                                          residual=np.full_like(report.residual, 0.25))

    monkeypatch.setattr(cli, "optimize_initial_state", unconverged)
    assert main(argv + ["--out", str(tmp_path / "b.csv")]) == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2
    for line, tau in zip(err, ("0.15", "0.25")):
        assert f"tau={tau} t=5 " in line and "residual 0.25" in line
    # psi0=optimize on the grid commands reports through the same path
    assert main(["compare", "--tau", "0.2", "--t", "5", "--n", "3", "--omega", "2",
                 "--psi0", "optimize", "--out", str(tmp_path / "c.csv")]) == 0
    assert len(capsys.readouterr().err.splitlines()) == 1


def test_optimizer_stderr_lines_follow_csv_row_order(tmp_path, monkeypatch, capsys):
    real = cli.optimize_initial_state

    def unconverged(*args, **kwargs):
        state, report = real(*args, **kwargs)
        return state, dataclasses.replace(report, converged=np.zeros_like(report.converged))

    monkeypatch.setattr(cli, "optimize_initial_state", unconverged)
    assert main(["optimize", "--tau", "0.15,0.25", "--t", "5,10", "--n", "3",
                 "--out", str(tmp_path / "o.csv")]) == 0
    err = capsys.readouterr().err.splitlines()
    assert [line.split(" (")[0].split(" at ")[1] for line in err] == [
        "tau=0.15 t=5", "tau=0.25 t=5", "tau=0.15 t=10", "tau=0.25 t=10"]


def _python(*args):
    """Run a fresh interpreter on this source tree, with its default warning
    filters; returns the CompletedProcess."""
    src = str(Path(thermoq.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=120)


def test_cli_import_leaves_scipy_unloaded():
    code = ("import sys, thermoq.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = _python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_extreme_psi0_scales_write_the_equal_superposition_csv(tmp_path):
    grid = ["compare", "--tau", "0.1,0.3", "--t", "2"]
    for name, spec in (("one", "1,1"), ("big", "1e200,1e200"), ("small", "1e-200,1e-200")):
        assert main(grid + ["--psi0", spec, "--out", str(tmp_path / f"{name}.csv")]) == 0
    one = (tmp_path / "one.csv").read_bytes()
    assert (tmp_path / "big.csv").read_bytes() == one
    assert (tmp_path / "small.csv").read_bytes() == one


def test_tmax_reports_every_boundary_maximum(tmp_path, capsys):
    out = tmp_path / "tmax.csv"
    assert main(["tmax", "--tau", "0.2,1", "--t", "10,100,1000", "--omega", "0.5,2",
                 "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    edge = [(o, t) for o, t, tau_max, _ in rows if float(tau_max) in (0.2, 1.0)]
    assert 1 < len(edge) < len(rows)
    err = capsys.readouterr().err.splitlines()
    assert len(err) == len(edge)
    for line, (omega, t) in zip(err, edge):
        assert line.startswith(f"warning: T_max on the tau-range edge at "
                               f"omega={omega} t={t} (tau=0.2)")
    # no row on the edge, no line
    assert main(["tmax", "--tau", "0.05,1", "--t", "10,100", "--omega", "2",
                 "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""


def test_tmax_rows_and_edge_lines_match_per_row_searches(tmp_path, capsys):
    # one search over all (Omega, t) rows, gapless Omega = 0 rows among them,
    # writes the CSV and the stderr lines of one search per row, in the same
    # order
    omegas, times = (0.0, 0.5, 2.0), (10.0, 100.0, 1000.0, math.inf)
    out, ref = tmp_path / "tmax.csv", tmp_path / "ref.csv"
    assert main(["tmax", "--tau", "0.2,1", "--t", "10,100,1000,inf",
                 "--omega", "0,0.5,2", "--out", str(out)]) == 0
    rows, lines = [], []
    for omega in omegas:
        for t in times:
            tau_max, q, edge = find_t_max(omega, equal_superposition(2), t,
                                          (0.2, 1.0))
            rows.append([omega, t, tau_max, q])
            if edge:
                lines.append(f"warning: T_max on the tau-range edge at omega={omega:g} "
                             f"t={t:g} (tau={tau_max:g})")
    write_csv(ref, ["omega", "t", "tau_max", "qfi_at_max"], rows)
    assert out.read_bytes() == ref.read_bytes()
    assert capsys.readouterr().err.splitlines() == lines
    assert 0 < len(lines) < len(rows)


def test_scaling_reports_edge_rows_and_a_zero_qfi(tmp_path, capsys):
    out = tmp_path / "scaling.csv"
    # at t = 1e10, T_max lies below the range for n = 2, 3 and 4
    assert main(["scaling", "--t", "10,1e10", "--n", "2:3", "--out", str(out)]) == 0
    assert capsys.readouterr().err.splitlines() == [
        f"warning: T_max on the tau-range edge at n={n} t=1e+10 (tau=0.05)"
        for n in (2, 3)]
    # one line per CSV row: the n = 4 search behind r(3) prints none
    assert main(["scaling", "--t", "10,1e10", "--n", "3", "--out", str(out)]) == 0
    assert capsys.readouterr().err.splitlines() == [
        "warning: T_max on the tau-range edge at n=3 t=1e+10 (tau=0.05)"]
    # a decohered gapped meter has I(n) = 0, so r is undefined
    zero = tmp_path / "zero.csv"
    assert main(["scaling", "--t", "inf", "--out", str(zero)]) == 1
    assert capsys.readouterr().err == (
        "error: QFI at T_max is zero at n=2 t=inf, so its gain r is undefined\n")
    assert not zero.exists()


def test_scaling_rows_are_the_library_rows(tmp_path):
    out, ref = tmp_path / "scaling.csv", tmp_path / "ref.csv"
    times = (10.0, 100.0)
    assert main(["scaling", "--t", "10,100", "--n", "2:3", "--out", str(out)]) == 0
    table = dimension_scaling(2.0, times, (2, 3))
    oracles.write_csv_reference(ref, ["n", "t", "qfi_at_tmax", "r"],
                                [[n, t, q[j], r[j]] for j, t in enumerate(times)
                                 for n, _, q, _, r in table])
    assert out.read_bytes() == ref.read_bytes()


def test_scaling_searches_only_the_requested_levels(tmp_path, monkeypatch):
    # --n 12 needs I(12) and I(13) only, both from one search, and its row
    # is the n = 12 row of 2:12
    full, one = tmp_path / "full.csv", tmp_path / "one.csv"
    assert main(["scaling", "--n", "2:12", "--out", str(full)]) == 0
    real, levels = optimize.find_t_max, []

    def counted(omega, psi0, *args, **kwargs):
        levels.append([state.size for state in psi0])
        return real(omega, psi0, *args, **kwargs)

    monkeypatch.setattr(optimize, "find_t_max", counted)
    assert main(["scaling", "--n", "12", "--out", str(one)]) == 0
    assert levels == [[12, 13]]
    header, *rows = full.read_text(encoding="utf-8").splitlines()
    assert one.read_text(encoding="utf-8").splitlines() == [
        header, *(row for row in rows if row.startswith("12,"))]


def test_default_scaling_evaluates_each_grid_once_for_every_level(tmp_path,
                                                                  monkeypatch):
    # scaling --t 10 searches n = 2..13 in one find_t_max call: its scan and
    # refining calls are grid evaluations shared by every level, each with one
    # sector_blocks call, where one search per level made about 60 of each:
    # the two-level scan and one probe triple at the seven-point vertex. The
    # meters' slabs repeat points, and each sector_blocks call evaluates its
    # chunk's distinct (tau, t, Omega) points once (21, 19 and 36 of 252, 228
    # and 36 slab points)
    real, blocks = qfi.sector_blocks, []
    monkeypatch.setattr(qfi, "sector_blocks",
                        lambda *args: blocks.append(args[0].shape[0]) or real(*args))
    grid, grids, distinct = optimize._on_grid, [], []

    def spy(kernel, taus, ts, omegas, psi0):
        grids.append(1)
        points = list(zip(*(v.ravel() for v in np.broadcast_arrays(taus, ts, omegas))))
        span = qfi._CHUNK_ENTRIES // max(c.size for c in psi0)
        distinct.extend(len(set(points[lo:lo + span]))
                        for lo in range(0, len(points), span))
        return grid(kernel, taus, ts, omegas, psi0)

    monkeypatch.setattr(optimize, "_on_grid", spy)
    assert main(["scaling", "--t", "10", "--out", str(tmp_path / "s.csv")]) == 0
    assert len(blocks) <= 3 and len(grids) <= 3 and blocks == distinct


def test_overflowing_blocks_exit_1_without_csv(tmp_path, capsys):
    # N ~ tau = 1e200 or Omega = 1e300 overflow the sector blocks, which once
    # wrote qfi_meter = nan and qfi_full = 0 with exit 0
    out = tmp_path / "c.csv"
    for args in (["--tau", "1e200", "--t", "1"],
                 ["--omega", "1e300", "--tau", "0.2", "--t", "1"]):
        assert main(["compare", *args, "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: sector blocks overflow")
        assert not out.exists()


def test_overflowing_blocks_write_one_stderr_line(tmp_path):
    # numpy's overflow warnings from the block evaluation once came before
    # the error line: nine of them here
    out = tmp_path / "t.csv"
    proc = _python("-m", "thermoq", "tmax", "--tau", "0.05,1e300", "--out", str(out))
    assert proc.returncode == 1
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("error: sector blocks overflow")
    assert not out.exists()


@pytest.mark.parametrize("args", [[], ["--t", "10", "--omega", "2"]])
def test_overflow_names_the_first_point_at_any_chunk_size(tmp_path, capsys,
                                                          monkeypatch, args):
    # the message once named the largest N and t of the failing chunk, so it
    # changed with the chunk size: "t up to 3162.28" at the defaults, but
    # "t up to 10" with --t 10
    out, messages = tmp_path / "t.csv", []
    for entries in (qfi._CHUNK_ENTRIES, 7):
        monkeypatch.setattr(qfi, "_CHUNK_ENTRIES", entries)
        assert main(["tmax", "--tau", "0.05,1e300", *args, "--out", str(out)]) == 1
        messages.append(capsys.readouterr().err)
    assert messages[0] == messages[1]
    omega = "2" if args else "0.25"
    assert messages[0].startswith("error: sector blocks overflow double precision at "
                                  "tau=")
    assert messages[0].endswith(f", t=10, Omega={omega}\n")
    assert not out.exists()


def test_overflowing_closed_form_spectrum_exits_1_without_csv(tmp_path, capsys):
    # alpha's (2N+1)^2 or Omega^2 overflows, which once wrote inf and nan in
    # the closed-form columns with exit 0
    out = tmp_path / "sp.csv"
    for args, where in ((["--tau", "1e300"], "tau=1e+300, gap=0"),
                        (["--omega", "1,1e300"], "tau=0.2, gap=-1e+300")):
        assert main(["spectrum", *args, "--out", str(out)]) == 1
        assert capsys.readouterr().err == ("error: Lindblad rates overflow "
                                           f"double precision at {where}\n")
        assert not out.exists()


def test_overflowing_decay_exponent_writes_the_steady_row(tmp_path):
    # a decay exponent (2N+1) t beyond double range (2N+1 = 2.16 at tau = 1)
    # once made qfi_sensor nan, and failed compare with "sector blocks
    # overflow" at Omega = 0
    for sub in (["sensor"], ["compare", "--omega", "0"]):
        rows = {}
        for t in ("1e308", "inf"):
            out = tmp_path / f"c-{t}.csv"
            assert main([*sub, "--tau", "1", "--t", t, "--out", str(out)]) == 0
            rows[t] = out.read_text(encoding="utf-8").splitlines()[1].split(",")
        assert rows["1e308"][2:] == rows["inf"][2:], sub
        assert float(rows["1e308"][3]) == 0.19661193324148202, sub


def test_large_tau_and_t_qfis_are_computed(tmp_path):
    # tau = 1e6, t = 1e300 once overflowed the QFIs (exit 1, "QFI overflows"),
    # from a slow root s+ = q - N that lost N to cancellation; the meter QFI
    # there is 0, the 60-digit value, and qfi_full is the steady sensor QFI
    values = {}
    for command in ("meter-map", "compare"):
        out = tmp_path / f"{command}.csv"
        assert main([command, "--tau", "1e6", "--t", "1e300", "--omega", "0.01",
                     "--out", str(out)]) == 0
        header, row = out.read_text(encoding="utf-8").splitlines()
        values[command] = dict(zip(header.split(","), map(float, row.split(","))))
    assert oracles.meter_qfi_mp(1e6, 1e300, 0.01) == 0.0
    assert values["meter-map"]["qfi_meter"] == values["compare"]["qfi_meter"] == 0.0
    assert values["compare"]["qfi_full"] == pytest.approx(steady_sensor_qfi(1e6),
                                                          rel=1e-12)


@pytest.mark.parametrize("n", ["2", "3"])
def test_qfi_overflow_names_the_first_point_at_any_chunk_size(tmp_path, capsys,
                                                              monkeypatch, n):
    # the message once named the largest tau and t of the whole grid and no
    # Omega. No input reaches a QFI overflow with finite sector blocks, so a
    # kernel returns inf wherever the excited population p_e(tau, t) of the
    # zero gap exceeds 0.06: at (tau, t) = (0.5, 1), (0.4, 10) and (0.5, 10)
    # of this grid (p_e = 0.087, 0.076 and 0.119; 0.053 at (0.4, 1)). The
    # first of them in row order (time outer) is (0.5, 1)
    real = qfi._meter_kernel
    monkeypatch.setattr(qfi, "_meter_kernel", lambda blocks, c: np.where(
        blocks.x[:, 0].real > 0.06, np.inf, real(blocks, c)))
    out, messages = tmp_path / "m.csv", []
    for entries in (qfi._CHUNK_ENTRIES, 1):
        monkeypatch.setattr(qfi, "_CHUNK_ENTRIES", entries)
        assert main(["meter-map", "--tau", "0.1,0.2,0.3,0.4,0.5", "--t", "1,10",
                     "--omega", "0.01", "--n", n, "--out", str(out)]) == 1
        messages.append(capsys.readouterr().err)
    assert messages == ["error: QFI overflows double precision at tau=0.5, "
                        "t=1, Omega=0.01\n"] * 2
    assert not out.exists()


def test_six_level_weak_coupling_compare_runs(tmp_path):
    # at Omega = 1e-6 the slow root s+ = q - N lost N to cancellation, and
    # the derivative left the state's support: exit 1 with a SupportError.
    # Every row must satisfy the monotonicity of the QFI under the partial
    # traces, qfi_full >= qfi_sensor and qfi_full >= qfi_meter
    out = tmp_path / "c.csv"
    assert main(["compare", "--n", "6", "--omega", "1e-6", "--t", "1e9",
                 "--out", str(out)]) == 0
    header, *lines = out.read_text(encoding="utf-8").splitlines()
    assert header == "tau,t,qfi_full,qfi_sensor,qfi_meter"
    rows = np.array([[float(v) for v in line.split(",")] for line in lines])
    assert len(rows) == 200
    assert np.all(rows[:, 2] >= np.maximum(rows[:, 3], rows[:, 4]))
