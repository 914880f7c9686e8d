"""Command line interface: sweep commands that write CSV tables (optionally
with an SVG chart alongside).

Every command is deterministic for a fixed configuration and seed: rows are
emitted in grid order, numbers are written with 17 significant digits, files
use UTF-8 with LF line endings.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bath import SensorParams, excited_population, sensor_qfi, steady_sensor_qfi
from .dynamics import MeterState, spin_x_spectrum
from .optimize import (SweepGrid, bures_distance_pure, dimension_scaling,
                       find_t_max, optimize_initial_state)
from .qfi import joint_qfi_grid, meter_qfi_grid
from .spectrum import coherence_eigenvalues_closed_form, slow_spectrum

__all__ = ["RunConfig", "ConfigError", "main",
           "cmd_sensor", "cmd_compare", "cmd_meter_map", "cmd_tmax",
           "cmd_optimize", "cmd_scaling", "cmd_spectrum"]


class ConfigError(Exception):
    """Invalid command line, config file, or grid."""


@dataclass(frozen=True)
class RunConfig:
    """A fully resolved run: subcommand, grids, and output options."""

    subcommand: str
    grid: SweepGrid
    n: int = 2
    psi0: object = "equal"  # "equal" | "optimize" | tuple of coefficients
    gamma: float = 1.0
    out: Path = Path("out.csv")
    svg: bool = False
    seed: int = 0


_TAU_DEFAULT = "0.05:1:200"

_DEFAULTS = {
    "sensor": {"tau": _TAU_DEFAULT, "t": "inf"},
    "compare": {"tau": _TAU_DEFAULT, "t": "1,2.6,20", "omega": "2", "n": 2,
                "psi0": "equal"},
    "meter-map": {"tau": _TAU_DEFAULT, "t": "100,1000,10000,100000,1000000",
                  "omega": "2", "n": 2, "psi0": "equal"},
    "tmax": {"tau": "0.05,1", "t": "10:1000000:21", "omega": "0.25,0.5,1,2,4",
             "n": 2, "psi0": "equal"},
    "optimize": {"tau": "0.05:1:16", "t": "1:1000:8", "omega": "2", "n": 6},
    "scaling": {"t": "10,100000", "omega": "2", "n": "2:12"},
    "spectrum": {"tau": "0.2", "omega": "0:4:81:lin", "n": 2},
}

# keys a config file may hold; each is also a flag, and explicit flags win
_CONFIG_KEYS = ("tau", "t", "omega", "n", "psi0", "gamma", "out", "svg", "seed")


def _parse_axis(spec, name):
    """Parse a float axis: comma list ("0.1,0.2,inf") or range syntax
    "lo:hi:count[:log|lin]" (log-spaced by default)."""
    if isinstance(spec, (list, tuple)):
        if not all(_is_number(v) for v in spec):
            raise ConfigError(f"invalid {name} list: {spec!r}")
        return tuple(float(v) for v in spec)
    text = str(spec).strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) not in (3, 4):
            raise ConfigError(f"{name} range must be lo:hi:count[:log|lin], got {text!r}")
        scale = parts[3] if len(parts) == 4 else "log"
        if scale not in ("log", "lin"):
            raise ConfigError(f"{name} range scale must be log or lin, got {scale!r}")
        try:
            lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError as exc:
            raise ConfigError(f"invalid {name} range {text!r}") from exc
        if count < 2 or not lo < hi:
            raise ConfigError(f"{name} range needs lo < hi and count >= 2")
        if scale == "log":
            if lo <= 0:
                raise ConfigError(f"log-spaced {name} range needs lo > 0")
            return tuple(np.geomspace(lo, hi, count))
        return tuple(np.linspace(lo, hi, count))
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"invalid {name} value {text!r}") from exc


def _is_number(value):
    """A real JSON/flag number; bool is an int subclass but not a number here."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _parse_ns(spec):
    """Integer list for --n: "4", "2,3,4", or "2:12" (inclusive range)."""
    if isinstance(spec, (int, np.integer)):
        return (int(spec),)
    if isinstance(spec, (list, tuple)):
        # config-file lists: JSON numbers, rejected unless integral
        if not all(_is_number(v) and float(v).is_integer() for v in spec):
            raise ConfigError(f"n list entries must be integers, got {spec!r}")
        return tuple(int(v) for v in spec)
    text = str(spec).strip()
    try:
        if ":" in text:
            lo, hi = (int(p) for p in text.split(":"))
            if hi < lo:
                raise ValueError
            return tuple(range(lo, hi + 1))
        return tuple(int(v) for v in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"invalid n specification {spec!r}") from exc


def _parse_psi0(spec):
    if isinstance(spec, (list, tuple)):
        if not all(_is_number(v) for v in spec):
            raise ConfigError(f"psi0 coefficients must be numbers, got {spec!r}")
        return tuple(float(v) for v in spec)
    text = str(spec).strip()
    if text in ("equal", "optimize"):
        return text
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"psi0 must be 'equal', 'optimize', or comma-separated "
                          f"coefficients, got {text!r}") from exc


def build_parser():
    parser = argparse.ArgumentParser(
        prog="thermoq",
        description="Thermometry sweeps for a bath-coupled sensor read out "
                    "through an ancilla meter. Writes CSV; see README for "
                    "the column layout of each subcommand.")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    specs = {
        "sensor": ("bare sensor: populations, transient and steady QFI",
                   ("tau", "t")),
        "compare": ("joint, sensor, and meter QFI on a (tau, t) grid",
                    ("tau", "t", "omega", "n", "psi0")),
        "meter-map": ("meter QFI map over (tau, t)",
                      ("tau", "t", "omega", "n", "psi0")),
        "tmax": ("most sensitive temperature vs time per coupling",
                 ("tau", "t", "omega", "n", "psi0")),
        "optimize": ("optimal initial meter states across (tau, t)",
                     ("tau", "t", "omega", "n")),
        "scaling": ("QFI gain with meter dimension",
                    ("t", "omega", "n")),
        "spectrum": ("slow Liouvillian eigenvalues vs coupling, n = 2",
                     ("tau", "omega", "n")),
    }
    help_text = {
        "tau": "temperatures: comma list or lo:hi:count[:log|lin] "
               "(tmax: first,last give the search range)",
        "t": "times (gamma t): comma list or range; inf allowed",
        "omega": "interaction strengths Omega: comma list or range",
        "n": "meter levels: integer, comma list, or lo:hi range",
        "psi0": "initial meter state: equal, optimize, or comma coefficients",
    }
    for name, (desc, extra) in specs.items():
        p = sub.add_parser(name, help=desc, description=desc)
        for flag in extra:
            p.add_argument(f"--{flag}", default=None, help=help_text[flag])
        p.add_argument("--config", type=Path, default=None,
                       help="JSON file with the same field names as the flags; "
                            "explicit flags win")
        p.add_argument("--out", type=Path, default=None,
                       help="output CSV path (default <subcommand>.csv)")
        p.add_argument("--svg", action="store_true", default=None,
                       help="also write a chart next to the CSV")
        p.add_argument("--seed", type=int, default=None,
                       help="seed for optimizer restarts (default 0)")
        p.add_argument("--gamma", type=float, default=None,
                       help="sensor-bath coupling rate (default 1)")
    return parser


def build_config(args):
    sub = args.subcommand
    merged = dict(_DEFAULTS[sub])
    if args.config is not None:
        try:
            loaded = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file {args.config}: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError("config file must hold a JSON object")
        unknown = set(loaded) - set(_CONFIG_KEYS)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        merged.update(loaded)
    for key in _CONFIG_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            merged[key] = flag

    taus = _parse_axis(merged["tau"], "tau") if "tau" in merged else ()
    times = _parse_axis(merged["t"], "t") if "t" in merged else ()
    omegas = _parse_axis(merged["omega"], "omega") if "omega" in merged else ()
    ns = _parse_ns(merged["n"]) if "n" in merged else ()
    try:
        grid = SweepGrid(taus=taus, times=times, omegas=omegas, ns=ns)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    if sub == "scaling":
        if not ns:
            raise ConfigError("scaling needs at least one n")
        n_scalar = max(ns)
    else:
        if len(ns) > 1:
            raise ConfigError(f"{sub} takes a single n")
        n_scalar = ns[0] if ns else 2
        if n_scalar < 2:
            raise ConfigError("n must be at least 2")
    if sub == "spectrum" and n_scalar != 2:
        raise ConfigError("spectrum supports n = 2 only (four slow-eigenvalue columns)")

    psi0 = _parse_psi0(merged.get("psi0", "equal"))
    if isinstance(psi0, tuple):
        if len(psi0) != n_scalar:
            raise ConfigError(f"psi0 has {len(psi0)} coefficients but n = {n_scalar}")
        arr = np.asarray(psi0, dtype=float)
        if not np.all(np.isfinite(arr)) or np.any(arr < 0) or np.linalg.norm(arr) == 0:
            raise ConfigError("psi0 coefficients must be finite, nonnegative, "
                              "not all zero")
        psi0 = tuple(arr / np.linalg.norm(arr))
    if sub == "tmax" and psi0 == "optimize":
        raise ConfigError("tmax does not support psi0=optimize; pass explicit "
                          "coefficients or use the optimize subcommand")

    # config-file values arrive as any JSON type; flags are already typed
    gamma, seed = merged.get("gamma", 1.0), merged.get("seed", 0)
    if not _is_number(gamma) or not (math.isfinite(gamma) and gamma > 0):
        raise ConfigError(f"gamma must be a positive finite number, got {gamma!r}")
    if not _is_number(seed) or not float(seed).is_integer() or seed < 0:
        raise ConfigError(f"seed must be a nonnegative integer, got {seed!r}")
    gamma, seed = float(gamma), int(seed)

    out = merged.get("out") or f"{sub.replace('-', '_')}.csv"
    if not isinstance(out, (str, Path)):
        raise ConfigError(f"out must be a path string, got {out!r}")
    svg = merged.get("svg", False)
    if not isinstance(svg, bool):
        raise ConfigError(f"svg must be true or false, got {svg!r}")

    # every command needs its own axes populated
    required = {"sensor": ("taus", "times"), "compare": ("taus", "times", "omegas"),
                "meter-map": ("taus", "times", "omegas"),
                "tmax": ("taus", "times", "omegas"),
                "optimize": ("taus", "times", "omegas"),
                "scaling": ("times", "omegas"), "spectrum": ("taus", "omegas")}
    for axis in required[sub]:
        if not getattr(grid, axis):
            raise ConfigError(f"{sub} needs a nonempty {axis} grid")
    single_omega = {"compare", "meter-map", "optimize", "scaling"}
    if sub in single_omega and len(grid.omegas) != 1:
        raise ConfigError(f"{sub} takes a single omega")
    if sub == "spectrum" and len(grid.taus) != 1:
        raise ConfigError("spectrum takes a single tau")

    return RunConfig(subcommand=sub, grid=grid, n=n_scalar, psi0=psi0,
                     gamma=gamma, out=Path(out), svg=svg, seed=seed)


def _params(cfg, tau):
    return SensorParams(temperature=tau, gamma=cfg.gamma)


def _fixed_psi0(cfg):
    """Resolved MeterState when psi0 does not depend on the grid point."""
    if cfg.psi0 == "equal":
        return MeterState.equal_superposition(cfg.n)
    if isinstance(cfg.psi0, tuple):
        return MeterState(np.asarray(cfg.psi0))
    return None  # "optimize": resolved per grid point


def _grid_psi0(cfg, meter):
    """psi0 for a times x taus grid: the fixed MeterState, or one optimized
    coefficient vector per grid point, shape (times, taus, n)."""
    fixed = _fixed_psi0(cfg)
    if fixed is not None:
        return fixed
    return np.array([[_optimized(cfg, meter, tau, t)[0].coefficients
                      for tau in cfg.grid.taus] for t in cfg.grid.times])


def _optimized(cfg, meter, tau, t):
    """optimize_initial_state at one grid point; a best start that did not
    converge is reported on stderr, which leaves the CSV untouched."""
    state, report = optimize_initial_state(_params(cfg, tau), meter, t, tol=1e-5,
                                           seed=cfg.seed)
    if not report.converged:
        print(f"warning: meter-state optimizer did not converge at tau={tau:g} "
              f"t={t:g} (residual {report.residual:.3g})", file=sys.stderr)
    return state, report


def _grid_axes(cfg):
    """(taus, times[:, None]): broadcast to the times x taus grid whose
    row-major order is the CSV row order (time outer, tau inner)."""
    times = np.asarray(cfg.grid.times, dtype=float)
    return np.asarray(cfg.grid.taus, dtype=float), times[:, None]


def cmd_sensor(cfg):
    header = ["tau", "t", "p_e", "qfi_sensor", "qfi_steady"]
    rows = []
    for t in cfg.grid.times:
        for tau in cfg.grid.taus:
            p = _params(cfg, tau)
            rows.append([tau, t, excited_population(p, t), sensor_qfi(p, t),
                         steady_sensor_qfi(p)])
    series = [(f"qfi_sensor t={_fmt_label(t)}",
               [r[0] for r in rows if r[1] == t], [r[3] for r in rows if r[1] == t])
              for t in cfg.grid.times]
    first_t = cfg.grid.times[0]
    series.append(("qfi_steady", [r[0] for r in rows if r[1] == first_t],
                   [r[4] for r in rows if r[1] == first_t]))
    return header, rows, ("tau", "QFI", True, True, series)


def cmd_compare(cfg):
    header = ["tau", "t", "qfi_full", "qfi_sensor", "qfi_meter"]
    meter = spin_x_spectrum(cfg.n, cfg.grid.omegas[0])
    psi0 = _grid_psi0(cfg, meter)
    full = joint_qfi_grid(*_grid_axes(cfg), meter, psi0, cfg.gamma)
    meter_q = meter_qfi_grid(*_grid_axes(cfg), meter, psi0, cfg.gamma)
    rows = [[tau, t, full[i, j], sensor_qfi(_params(cfg, tau), t), meter_q[i, j]]
            for i, t in enumerate(cfg.grid.times)
            for j, tau in enumerate(cfg.grid.taus)]
    series = []
    for col, name in ((2, "full"), (3, "sensor"), (4, "meter")):
        for t in cfg.grid.times:
            series.append((f"{name} t={_fmt_label(t)}",
                           [r[0] for r in rows if r[1] == t],
                           [r[col] for r in rows if r[1] == t]))
    return header, rows, ("tau", "QFI", True, True, series)


def cmd_meter_map(cfg):
    header = ["tau", "t", "qfi_meter"]
    meter = spin_x_spectrum(cfg.n, cfg.grid.omegas[0])
    values = meter_qfi_grid(*_grid_axes(cfg), meter, _grid_psi0(cfg, meter), cfg.gamma)
    rows = [[tau, t, values[i, j]] for i, t in enumerate(cfg.grid.times)
            for j, tau in enumerate(cfg.grid.taus)]
    series = [(f"t={_fmt_label(t)}", [r[0] for r in rows if r[1] == t],
               [r[2] for r in rows if r[1] == t]) for t in cfg.grid.times]
    return header, rows, ("tau", "meter QFI", True, True, series)


def cmd_tmax(cfg):
    header = ["omega", "t", "tau_max", "qfi_at_max"]
    tau_range = (cfg.grid.taus[0], cfg.grid.taus[-1])
    psi0 = _fixed_psi0(cfg)  # build_config rejects psi0=optimize here

    def work(omega, t):
        meter = spin_x_spectrum(cfg.n, omega)
        tau_max, q = find_t_max(meter, psi0, t, tau_range, gamma=cfg.gamma)
        return [omega, t, tau_max, q]

    rows = [work(o, t) for o in cfg.grid.omegas for t in cfg.grid.times]
    series = [(f"Omega={_fmt_label(o)}", [r[1] for r in rows if r[0] == o],
               [r[2] for r in rows if r[0] == o]) for o in cfg.grid.omegas]
    return header, rows, ("t", "tau_max", True, False, series)


def cmd_optimize(cfg):
    header = ["tau", "t", "bures_to_equal", "tau_white_line_flag", "tau_max_flag"]
    meter = spin_x_spectrum(cfg.n, cfg.grid.omegas[0])
    equal = MeterState.equal_superposition(cfg.n)
    rows = []
    for t in cfg.grid.times:
        def work(tau, t=t):
            state, report = _optimized(cfg, meter, tau, t)
            return bures_distance_pure(state, equal), report.value

        results = [work(tau) for tau in cfg.grid.taus]
        distances = [r[0] for r in results]
        values = [r[1] for r in results]
        white = int(np.argmin(distances))  # ties resolve toward smaller tau
        best = int(np.argmax(values))
        for j, tau in enumerate(cfg.grid.taus):
            rows.append([tau, t, distances[j],
                         1 if j == white else 0, 1 if j == best else 0])
    series = [(f"t={_fmt_label(t)}", [r[0] for r in rows if r[1] == t],
               [r[2] for r in rows if r[1] == t]) for t in cfg.grid.times]
    return header, rows, ("tau", "Bures distance to equal", True, False, series)


def cmd_scaling(cfg):
    header = ["n", "t", "qfi_at_tmax", "r"]
    omega = cfg.grid.omegas[0]
    wanted = set(cfg.grid.ns)

    def work(t):
        table = dimension_scaling(omega, t, max(cfg.grid.ns), cfg.gamma)
        return [[n, t, q, r] for n, q, r in table if n in wanted]

    rows = [row for t in cfg.grid.times for row in work(t)]
    series = [(f"t={_fmt_label(t)}", [r[0] for r in rows if r[1] == t],
               [r[2] for r in rows if r[1] == t]) for t in cfg.grid.times]
    return header, rows, ("n", "QFI at T_max", False, True, series)


def cmd_spectrum(cfg):
    header = (["omega"]
              + [f"re_lambda_{i}" for i in range(1, 5)]
              + [f"im_lambda_{i}" for i in range(1, 5)]
              + ["re_closed_1", "re_closed_2", "im_closed_1", "im_closed_2"])
    p = _params(cfg, cfg.grid.taus[0])

    def work(omega):
        w = slow_spectrum(p, spin_x_spectrum(2, omega), 4)
        c1, c2 = coherence_eigenvalues_closed_form(p, omega)
        return ([omega] + [v.real for v in w] + [v.imag for v in w]
                + [c1.real, c2.real, c1.imag, c2.imag])

    rows = [work(omega) for omega in cfg.grid.omegas]
    series = []
    for i in range(1, 5):
        series.append((f"re_lambda_{i}", [r[0] for r in rows],
                       [r[i] for r in rows]))
        series.append((f"im_lambda_{i}", [r[0] for r in rows],
                       [r[4 + i] for r in rows]))
    return header, rows, ("Omega", "eigenvalue", False, False, series)


_COMMANDS = {
    "sensor": cmd_sensor,
    "compare": cmd_compare,
    "meter-map": cmd_meter_map,
    "tmax": cmd_tmax,
    "optimize": cmd_optimize,
    "scaling": cmd_scaling,
    "spectrum": cmd_spectrum,
}


def _fmt_label(v):
    return format(float(v), "g")


def _fmt_value(v):
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return format(float(v), ".17g")


def write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(_fmt_value(v) for v in row) + "\n")


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
            "#8c564b", "#e377c2", "#17becf", "#7f7f7f", "#bcbd22")


def _chart_ticks(lo, hi, log_scale):
    if log_scale:
        first = math.ceil(math.log10(lo) - 1e-9)
        last = math.floor(math.log10(hi) + 1e-9)
        ticks = [10.0 ** k for k in range(first, last + 1)]
        return ticks if ticks else [lo, hi]
    return list(np.linspace(lo, hi, 5))


def render_svg(header, plot):
    """Stand-alone polyline chart. Points outside a log axis domain are dropped."""
    xlabel, ylabel, logx, logy, series = plot
    width, height = 760, 480
    ml, mr, mt, mb = 64, 16, 16, 48
    pw, ph = width - ml - mr, height - mt - mb

    cleaned = []
    for label, xs, ys in series:
        pts = [(x, y) for x, y in zip(xs, ys)
               if math.isfinite(x) and math.isfinite(y)
               and (not logx or x > 0) and (not logy or y > 0)]
        if pts:
            cleaned.append((label, pts))
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
             f'height="{height}" viewBox="0 0 {width} {height}">',
             f'<rect width="{width}" height="{height}" fill="white"/>']
    if not cleaned:
        parts.append(f'<text x="{width / 2}" y="{height / 2}" '
                     f'text-anchor="middle" font-size="14">no plottable data</text>')
        parts.append("</svg>")
        return "\n".join(parts)

    xs_all = [x for _, pts in cleaned for x, _ in pts]
    ys_all = [y for _, pts in cleaned for _, y in pts]
    x0, x1 = min(xs_all), max(xs_all)
    y0, y1 = min(ys_all), max(ys_all)
    if x0 == x1:
        x0, x1 = x0 * 0.9 if x0 else -1.0, x1 * 1.1 if x1 else 1.0
    if y0 == y1:
        y0, y1 = y0 * 0.9 if y0 else -1.0, y1 * 1.1 if y1 else 1.0

    def sx(x):
        u = (math.log10(x) - math.log10(x0)) / (math.log10(x1) - math.log10(x0)) \
            if logx else (x - x0) / (x1 - x0)
        return ml + u * pw

    def sy(y):
        u = (math.log10(y) - math.log10(y0)) / (math.log10(y1) - math.log10(y0)) \
            if logy else (y - y0) / (y1 - y0)
        return mt + (1.0 - u) * ph

    parts.append(f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" '
                 f'fill="none" stroke="#444"/>')
    for tick in _chart_ticks(x0, x1, logx):
        if x0 <= tick <= x1:
            px = sx(tick)
            parts.append(f'<line x1="{px:.2f}" y1="{mt + ph}" x2="{px:.2f}" '
                         f'y2="{mt + ph + 5}" stroke="#444"/>')
            parts.append(f'<text x="{px:.2f}" y="{mt + ph + 18}" '
                         f'text-anchor="middle" font-size="11">{tick:.3g}</text>')
    for tick in _chart_ticks(y0, y1, logy):
        if y0 <= tick <= y1:
            py = sy(tick)
            parts.append(f'<line x1="{ml - 5}" y1="{py:.2f}" x2="{ml}" '
                         f'y2="{py:.2f}" stroke="#444"/>')
            parts.append(f'<text x="{ml - 8}" y="{py + 4:.2f}" '
                         f'text-anchor="end" font-size="11">{tick:.3g}</text>')
    parts.append(f'<text x="{ml + pw / 2}" y="{height - 10}" '
                 f'text-anchor="middle" font-size="12">{xlabel}</text>')
    parts.append(f'<text x="16" y="{mt + ph / 2}" text-anchor="middle" '
                 f'font-size="12" transform="rotate(-90 16 {mt + ph / 2})">{ylabel}</text>')
    for idx, (label, pts) in enumerate(cleaned):
        color = _PALETTE[idx % len(_PALETTE)]
        coords = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in pts)
        parts.append(f'<polyline points="{coords}" fill="none" '
                     f'stroke="{color}" stroke-width="1.5"/>')
        ly = mt + 14 + 14 * idx
        if ly < mt + ph:
            parts.append(f'<line x1="{ml + pw - 150}" y1="{ly - 4}" '
                         f'x2="{ml + pw - 130}" y2="{ly - 4}" stroke="{color}" '
                         f'stroke-width="2"/>')
            parts.append(f'<text x="{ml + pw - 125}" y="{ly}" '
                         f'font-size="11">{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts)


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = build_config(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    try:
        header, rows, plot = _COMMANDS[cfg.subcommand](cfg)
        write_csv(cfg.out, header, rows)
        if cfg.svg:
            svg_path = cfg.out.with_suffix(".svg")
            svg_path.write_text(render_svg(header, plot), encoding="utf-8")
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # numerical failure: nonzero but distinct from usage errors
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
