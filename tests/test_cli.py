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

import thermoq
from thermoq import cli
from thermoq.cli import (ConfigError, _parse_axis, _parse_ns, _parse_psi0,
                         build_config, build_parser, main, render_svg,
                         write_csv)


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
    for bad in ("5:2", "2.5", "x", ["a"], [2.7], [True], [None]):
        with pytest.raises(ConfigError):
            _parse_ns(bad)


def test_parse_psi0():
    assert _parse_psi0("equal") == "equal"
    assert _parse_psi0("optimize") == "optimize"
    assert _parse_psi0("0.6,0.8") == (0.6, 0.8)
    assert _parse_psi0([0.6, 0.8]) == (0.6, 0.8)
    for bad in ("ground", ["x", 1], [None, 1]):
        with pytest.raises(ConfigError):
            _parse_psi0(bad)


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


def test_config_file_merging(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"tau": "0.1,0.3", "t": [2.0], "seed": 9}),
                    encoding="utf-8")
    cfg = make_config(["compare", "--config", str(path), "--tau", "0.2,0.4"])
    assert cfg.grid.taus == (0.2, 0.4)  # flag wins over file
    assert cfg.grid.times == (2.0,)
    assert cfg.seed == 9


def test_config_errors():
    for argv in (
        ["compare", "--omega", "1,2"],       # one coupling per run
        ["compare", "--n", "2,3"],           # scalar n
        ["compare", "--psi0", "0.6,0.6,0.5"],  # wrong length
        ["compare", "--psi0=-1,0"],
        ["compare", "--psi0", "nan,1"],
        ["compare", "--psi0", "inf,1"],
        ["compare", "--seed", "-1"],
        ["compare", "--gamma", "0"],
        ["spectrum", "--n", "3"],
        ["spectrum", "--tau", "0.1,0.2"],
        ["tmax", "--psi0", "optimize"],
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
    for values in ({"n": ["a"]}, {"n": [2.7]}, {"psi0": ["x", 1]},
                   {"svg": "false"}, {"svg": 1}, {"out": 5},
                   {"seed": 1.5}, {"seed": True}, {"seed": "3"},
                   {"gamma": True}, {"gamma": "1"}, {"sensor_omega": "2"},
                   {"sensor_omega": False}, {"t": [True, 2]}, {"tau": [0.1, False]},
                   {"omega": [True]}, {"psi0": [True, 1]}):
        path.write_text(json.dumps(values), encoding="utf-8")
        with pytest.raises(ConfigError):
            make_config(["compare", "--config", str(path)])
        assert main(["compare", "--config", str(path)]) == 2
    assert not (tmp_path / "compare.csv").exists()


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
    assert main(["--help"]) == 0


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
    args = ["compare", "--tau", "0.15,0.2", "--t", "1"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


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


def test_render_svg_drops_nonpositive_on_log_axes():
    svg = render_svg(["x", "y"], ("x", "y", True, True,
                                  [("s", [0.0, 1.0, 10.0], [1.0, 2.0, 0.0])]))
    ET.fromstring(svg)
    assert "polyline" in svg
    empty = render_svg(["x", "y"], ("x", "y", True, True,
                                    [("s", [0.0], [0.0])]))
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



def test_optimizer_nonconvergence_goes_to_stderr(tmp_path, monkeypatch, capsys):
    argv = ["optimize", "--tau", "0.15,0.25", "--t", "5", "--n", "3", "--omega", "2"]
    assert main(argv + ["--out", str(tmp_path / "a.csv")]) == 0
    assert capsys.readouterr().err == ""
    real = cli.optimize_initial_state

    def unconverged(*args, **kwargs):
        state, report = real(*args, **kwargs)
        return state, dataclasses.replace(report, converged=False, residual=0.25)

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


def test_cli_import_leaves_scipy_unloaded():
    src = str(Path(thermoq.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = ("import sys, thermoq.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    assert out.strip() == "[]"
