"""What cannot be a line of the CLI corpus (`cli_corpus.py`): unit tests of
the parsers, `build_config`, `write_csv` and `render_svg`, and `main` runs
that patch the package, spy on it, write a config file or need a path to
exist first. Every other check of what a command line writes is a corpus
row, pair or check."""

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
from cli_corpus import SMALL_RUNS
from thermoq import cli, optimize, qfi
from thermoq.cli import (ConfigError, _parse_axis, _parse_ns,
                         _parse_psi0, build_config, build_parser, main,
                         render_svg, write_csv)


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
    assert cfg.times == (math.inf,)
    assert len(cfg.taus) == 200
    assert cfg.out.name == "sensor.csv"
    cfg = make_config(["compare"])
    assert cfg.times == (1.0, 2.6, 20.0)
    assert cfg.omegas == (2.0,)
    assert cfg.n == 2
    cfg = make_config(["scaling"])
    assert cfg.ns == tuple(range(2, 13))
    cfg = make_config(["spectrum"])
    assert len(cfg.omegas) == 81 and cfg.taus == (0.2,)


def test_flag_overrides_and_psi0_normalization():
    cfg = make_config(["compare", "--tau", "0.1,0.2", "--psi0", "3,4",
                       "--seed", "5", "--out", "x.csv"])
    assert cfg.taus == (0.1, 0.2)
    np.testing.assert_allclose(cfg.psi0, (0.6, 0.8), rtol=1e-12)
    assert cfg.seed == 5 and cfg.out.name == "x.csv"


def test_axis_rules():
    cfg = make_config(["tmax", "--tau", "0.1,0.2", "--t", "1,inf", "--omega", "0,2"])
    assert (cfg.taus, cfg.times, cfg.omegas, cfg.ns) == ((0.1, 0.2), (1.0, math.inf),
                                                         (0.0, 2.0), (2,))
    cfg = make_config(["scaling", "--n", "2,5"])
    assert cfg.ns == (2, 5) and cfg.n == 5 and make_config(["sensor"]).n == 2
    for argv, message in (
        (["sensor", "--tau", "0.2,0.1"], "taus must be strictly increasing"),
        (["sensor", "--tau", "0,0.1"], "taus must be positive and finite"),
        (["sensor", "--tau", "0.1,inf"], "taus must be positive and finite"),
        (["sensor", "--t=-1,2"], "times must be positive"),
        (["tmax", "--omega=-0.5,1"], "omegas must be nonnegative and finite"),
        (["tmax", "--omega", "0.5,inf"], "omegas must be nonnegative and finite"),
        (["scaling", "--n", "1,2"], "ns must be integers >= 2"),  # a meter has two levels
    ):
        with pytest.raises(ConfigError, match=message):
            make_config(argv)


def test_config_file_merging(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"tau": "0.1,0.3", "t": [2.0], "seed": 9}),
                    encoding="utf-8")
    cfg = make_config(["compare", "--config", str(path), "--tau", "0.2,0.4"])
    assert cfg.taus == (0.2, 0.4)  # flag wins over file
    assert cfg.times == (2.0,)
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
    path.write_text("[1, 2]", encoding="utf-8")
    with pytest.raises(ConfigError, match="config file must hold a JSON object"):
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
    out, ref = tmp_path / "out.csv", oracles.write_csv_reference(header, rows)
    assert ref.splitlines()[1:5] == [
        "0,inf,4.9406564584124654e-324,0", "-0,-inf,2.2250738585072014e-308,1",
        "0,nan,1.7976931348623157e+308,2", "-0,inf,-4.9406564584124654e-324,13"]
    for chunk in (cli._CSV_CHUNK_ROWS, 5):  # one chunk, then rows split across chunks
        monkeypatch.setattr(cli, "_CSV_CHUNK_ROWS", chunk)
        write_csv(out, header, rows)
        assert out.read_bytes() == ref.encode("utf-8"), chunk


def test_charts_are_built_only_for_svg(tmp_path, monkeypatch, capsys):
    def no_chart(*args):
        raise AssertionError("chart series built")

    monkeypatch.setattr(cli, "_points", no_chart)
    assert set(SMALL_RUNS) == set(cli._COMMANDS)
    for sub, (args, _) in SMALL_RUNS.items():
        out, argv = tmp_path / f"{sub}.csv", [sub, *args.split()]
        assert main([*argv, "--out", str(out)]) == 0, sub
        assert main([*argv, "--svg", "--out", str(out)]) == 1, sub
        assert capsys.readouterr().err.endswith("error: chart series built\n"), sub
        assert not out.with_suffix(".svg").exists(), sub


def test_a_chart_that_cannot_be_written_leaves_no_csv(tmp_path, monkeypatch, capsys):
    # the CSV is written first; an exit-2 run takes it back
    monkeypatch.chdir(tmp_path)
    (tmp_path / "x.svg").mkdir()
    assert main(["sensor", "--svg", "--out", "x.csv"]) == 2
    assert capsys.readouterr().err.startswith("configuration error: cannot write x.svg: ")
    assert [path.name for path in tmp_path.iterdir()] == ["x.svg"]


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


def test_main_builds_the_parser_once_per_process(tmp_path):
    # the one parser parses each call afresh, also after a usage error
    cli.build_parser.cache_clear()
    assert main(["no-such-command"]) == 2
    assert main(["sensor", "--tau", "0.1", "--t", "1",
                 "--out", str(tmp_path / "s.csv")]) == 0
    assert main(["spectrum", "--out", str(tmp_path / "p.csv")]) == 0
    assert cli.build_parser.cache_info()[:2] == (2, 1)  # (hits, misses)
    assert (tmp_path / "s.csv").read_text(encoding="utf-8").startswith("tau,t,p_e,")
    assert (tmp_path / "p.csv").read_text(encoding="utf-8").startswith("omega,")


def test_public_names_resolve():
    modules = [thermoq] + [importlib.import_module(f"thermoq.{info.name}")
                           for info in pkgutil.iter_modules(thermoq.__path__)
                           if not info.name.startswith("_")]
    for module in modules:
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, (module.__name__, missing)


def test_render_svg_drops_nonpositive_on_log_axes():
    svg = render_svg(("x", "y", True, True, [("s", [0.0, 1.0, 10.0], [1.0, 2.0, 0.0])]))
    ET.fromstring(svg)
    assert "polyline" in svg
    empty = render_svg(("x", "y", True, True, [("s", [0.0], [0.0])]))
    assert "no plottable data" in empty


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


def _fresh_python(*args):
    """Run python with args in a fresh interpreter on this source tree."""
    src = str(Path(thermoq.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=120)


def test_cli_import_leaves_scipy_unloaded():
    proc = _fresh_python("-c", "import sys, thermoq.cli; print(sorted("
                               "m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_module_entry_point_runs(tmp_path):
    proc = _fresh_python("-m", "thermoq", "spectrum", "--out", str(tmp_path / "s.csv"))
    assert proc.returncode == 0, proc.stderr
    header, _, _ = cli.cmd_spectrum(make_config(["spectrum"]))
    assert (tmp_path / "s.csv").read_text(encoding="utf-8").startswith(",".join(header) + "\n")


def test_scaling_searches_only_the_requested_levels(tmp_path, monkeypatch):
    # --n 12 needs I(12) and I(13) only, both from one search (the corpus
    # pair `scaling --n 12` holds that its row is the n = 12 row of 2:12)
    real, levels = optimize.find_t_max, []

    def counted(omega, psi0, *args, **kwargs):
        levels.append([state.size for state in psi0])
        return real(omega, psi0, *args, **kwargs)

    monkeypatch.setattr(optimize, "find_t_max", counted)
    assert main(["scaling", "--n", "12", "--out", str(tmp_path / "one.csv")]) == 0
    assert levels == [[12, 13]]


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


@pytest.mark.parametrize("n", ["2", "3"])
def test_qfi_overflow_names_the_first_point_at_any_chunk_size(tmp_path, capsys,
                                                              monkeypatch, n):
    # the message once named the largest tau and t of the whole grid and no
    # Omega. No input reaches a QFI overflow with finite sector blocks, so a
    # kernel returns inf wherever the excited population p_e(tau, t) of the
    # zero gap exceeds 0.06: at (tau, t) = (0.5, 1), (0.4, 10) and (0.5, 10)
    # of this grid (p_e = 0.087, 0.076 and 0.119; 0.053 at (0.4, 1)). The
    # first of them in row order (time outer) is (0.5, 1)
    real = qfi._meter_qfis
    monkeypatch.setattr(qfi, "_meter_qfis", lambda blocks, c: (np.where(
        blocks.x[:, 0].real > 0.06, np.inf, *real(blocks, c)),))
    out, messages = tmp_path / "m.csv", []
    for entries in (qfi._CHUNK_ENTRIES, 1):
        monkeypatch.setattr(qfi, "_CHUNK_ENTRIES", entries)
        assert main(["meter-map", "--tau", "0.1,0.2,0.3,0.4,0.5", "--t", "1,10",
                     "--omega", "0.01", "--n", n, "--out", str(out)]) == 1
        messages.append(capsys.readouterr().err)
    assert messages == ["error: QFI overflows double precision at tau=0.5, "
                        "t=1, Omega=0.01\n"] * 2
    assert not out.exists()
