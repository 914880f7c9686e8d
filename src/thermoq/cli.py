"""Command line interface: sweep commands that write CSV tables (optionally
with an SVG chart alongside).

Every command returns (header, table, chart): the table is one 2-D float
array, built in one batched pass of the library, and chart a zero-argument
callable that builds the chart's series from the table, called only under
--svg. Every command is deterministic for a fixed configuration and seed:
rows follow grid order, every value is written as "%.17g" (17 significant
digits, so each double round-trips, and integral values such as n and the
flags print without a decimal point), files use UTF-8 with LF line endings.
Diagnostics (T_max rows on the tau-range edge, unconverged optimizer points)
go to stderr, one line per CSV row in CSV row order, printed from the arrays
the library returns.

`build_config` resolves the flags, a config file and the defaults into one
checked `RunConfig`: every axis goes through the one rule table `_AXES`,
and `_SINGLE` names the axes a subcommand takes one value of. A fault is a
`ConfigError`, which `main` reports with exit code 2.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from .bath import excited_population, sensor_qfi, steady_sensor_qfi
from .dynamics import equal_superposition, spin_x_spectrum
from .optimize import (bures_distance_pure, dimension_scaling, find_t_max,
                       optimize_initial_state)
from .qfi import joint_and_meter_qfi_grid, meter_qfi_grid
from .spectrum import slow_spectrum

__all__ = ["RunConfig", "ConfigError", "main",
           "cmd_sensor", "cmd_compare", "cmd_meter_map", "cmd_tmax",
           "cmd_optimize", "cmd_scaling", "cmd_spectrum"]


class ConfigError(Exception):
    """Invalid command line, config file, or grid."""


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """A fully resolved and checked run: the subcommand, its axes, the meter
    state and the output options.

    An axis the subcommand has no flag for stays empty. Every axis is
    strictly increasing and keeps the rule of its row in `_AXES`; the axes
    of `_SINGLE` hold one value. psi0 is "equal", "optimize" or a tuple of n
    coefficients scaled to unit norm.
    """

    subcommand: str
    psi0: object
    out: Path
    svg: bool
    seed: int
    taus: tuple = ()
    times: tuple = ()
    omegas: tuple = ()
    ns: tuple = ()

    @property
    def n(self):
        """The meter dimension: the largest of ns, or 2 without --n."""
        return max(self.ns, default=2)


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

# each grid key, the RunConfig axis it fills, the rule every value of that
# axis keeps, and the message when one does not
_AXES = (
    ("tau", "taus", lambda v: 0 < v < math.inf, "taus must be positive and finite"),
    # times may end with inf
    ("t", "times", lambda v: v > 0, "times must be positive"),
    # the uncoupled Omega = 0 stays reachable
    ("omega", "omegas", lambda v: 0 <= v < math.inf,
     "omegas must be nonnegative and finite"),
    ("n", "ns", lambda v: v >= 2, "ns must be integers >= 2"),
)

# the grid keys each subcommand takes a single value of
_SINGLE = {"sensor": (), "compare": ("omega", "n"), "meter-map": ("omega", "n"), "tmax": ("n",),
           "optimize": ("omega", "n"), "scaling": ("omega",), "spectrum": ("tau", "n")}

# the subcommands that read a seed (optimize, and psi0=optimize), as a flag
# or a config key
_SEEDED = ("optimize", "compare", "meter-map")


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
    if isinstance(spec, (int, float)):
        spec = [spec]  # a scalar JSON number (or bool) is a one-entry list
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


@functools.cache
def build_parser():
    """The parser, built once per process; every caller shares it."""
    parser = argparse.ArgumentParser(
        prog="thermoq",
        description="Thermometry sweeps for a bath-coupled sensor read out "
                    "through an ancilla meter. Writes CSV; see README for "
                    "the column layout of each subcommand.")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    descriptions = {
        "sensor": "bare sensor: populations, transient and steady QFI",
        "compare": "joint, sensor, and meter QFI on a (tau, t) grid",
        "meter-map": "meter QFI map over (tau, t)",
        "tmax": "most sensitive temperature vs time per coupling",
        "optimize": "optimal initial meter states across (tau, t)",
        "scaling": "QFI gain with meter dimension",
        "spectrum": "slow Liouvillian eigenvalues vs coupling, n = 2",
    }
    help_text = {
        "tau": "temperatures: comma list or lo:hi:count[:log|lin] "
               "(tmax: first,last give the search range)",
        "t": "times (gamma t): comma list or range; inf allowed",
        "omega": "interaction strengths Omega in units of gamma: comma list or range",
        "n": "meter levels: integer, comma list, or lo:hi range",
        "psi0": "initial meter state: equal, optimize, or comma coefficients",
    }
    for name, desc in descriptions.items():
        p = sub.add_parser(name, help=desc, description=desc)
        for flag in _DEFAULTS[name]:  # each subcommand's own flags
            p.add_argument(f"--{flag}", default=None, help=help_text[flag])
        p.add_argument("--config", type=Path, default=None,
                       help="JSON file with the same field names as the flags; "
                            "explicit flags win")
        p.add_argument("--out", type=Path, default=None,
                       help="output CSV path (default <subcommand>.csv)")
        p.add_argument("--svg", action="store_true", default=None,
                       help="also write a chart next to the CSV")
        if name in _SEEDED:
            p.add_argument("--seed", type=int, default=None,
                           help="seed for optimizer restarts (default 0)")
    return parser


def build_config(args):
    sub = args.subcommand
    merged = dict(_DEFAULTS[sub])
    # a config file holds exactly the subcommand's own flags; explicit flags win
    keys = (*merged, "out", "svg", *(("seed",) if sub in _SEEDED else ()))
    if args.config is not None:
        try:
            loaded = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file {args.config}: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError("config file must hold a JSON object")
        unknown = sorted(set(loaded) - set(keys))
        if unknown:
            raise ConfigError(f"{sub} takes no {', '.join(unknown)}")
        merged.update(loaded)
    for key in keys:
        flag = getattr(args, key)
        if flag is not None:
            merged[key] = flag

    axes = {}
    for key, axis, rule, message in _AXES:
        if key not in merged:
            continue
        values = _parse_ns(merged[key]) if key == "n" else _parse_axis(merged[key], key)
        if any(b <= a for a, b in zip(values, values[1:])):
            raise ConfigError(f"{axis} must be strictly increasing")
        if not all(rule(v) for v in values):
            raise ConfigError(message)
        if not values:
            raise ConfigError(f"{sub} needs a nonempty {axis} grid")
        if key in _SINGLE[sub] and len(values) != 1:
            raise ConfigError(f"{sub} takes a single {key}")
        axes[axis] = values

    # config-file values arrive as any JSON type; flags are already typed
    seed = merged.get("seed", 0)
    if not _is_number(seed) or not float(seed).is_integer() or seed < 0:
        raise ConfigError(f"seed must be a nonnegative integer, got {seed!r}")
    out = merged.get("out") or f"{sub.replace('-', '_')}.csv"
    if not isinstance(out, (str, Path)):
        raise ConfigError(f"out must be a path string, got {out!r}")
    svg = merged.get("svg", False)
    if not isinstance(svg, bool):
        raise ConfigError(f"svg must be true or false, got {svg!r}")
    # the chart goes to the CSV path with the suffix .svg
    if svg and Path(out).suffix == ".svg":
        raise ConfigError(f"the --svg chart would overwrite the CSV {out}")

    cfg = RunConfig(subcommand=sub, psi0=_parse_psi0(merged.get("psi0", "equal")),
                    out=Path(out), svg=svg, seed=int(seed), **axes)
    if sub == "spectrum" and cfg.n != 2:
        raise ConfigError("spectrum supports n = 2 only (four slow-eigenvalue columns)")
    if sub == "tmax" and len(cfg.taus) < 2:
        raise ConfigError("tmax needs two taus, the first and last of its search range")
    if sub == "tmax" and cfg.psi0 == "optimize":
        raise ConfigError("tmax does not support psi0=optimize; pass explicit "
                          "coefficients or use the optimize subcommand")
    if not isinstance(cfg.psi0, tuple):
        return cfg
    if len(cfg.psi0) != cfg.n:
        raise ConfigError(f"psi0 has {len(cfg.psi0)} coefficients but n = {cfg.n}")
    arr = np.asarray(cfg.psi0, dtype=float)
    if not np.all(np.isfinite(arr)) or np.any(arr < 0) or not np.any(arr > 0):
        raise ConfigError("psi0 coefficients must be finite, nonnegative, not all zero")
    # scaled to a largest entry of 1 first, so the norm's squares neither
    # overflow nor underflow
    arr = arr / arr.max()
    return dataclasses.replace(cfg, psi0=tuple(arr / np.linalg.norm(arr)))


def _grid_psi0(cfg):
    """psi0 for a times x taus grid: its coefficients (n,), or under
    psi0=optimize one optimized coefficient vector per grid point, shape
    (times, taus, n)."""
    if cfg.psi0 == "optimize":
        return _optimized(cfg)[0]
    return equal_superposition(cfg.n) if cfg.psi0 == "equal" else np.asarray(cfg.psi0)


def _optimized(cfg):
    """optimize_initial_state over the times x taus grid in one call; each
    grid point whose returned start did not converge is reported on stderr,
    in CSV row order, which leaves the CSV untouched."""
    taus, times = _grid_axes(cfg)
    coefficients, report = optimize_initial_state(taus, cfg.omegas[0], times,
                                                  cfg.n, seed=cfg.seed)
    for i, t in enumerate(cfg.times):
        for j, tau in enumerate(cfg.taus):
            if not report.converged[i, j]:
                print(f"warning: meter-state optimizer did not converge at "
                      f"tau={tau:g} t={t:g} (residual {report.residual[i, j]:.3g})",
                      file=sys.stderr)
    return coefficients, report


def _grid_axes(cfg):
    """(taus, times[:, None]): broadcast to the times x taus grid whose
    row-major order is the CSV row order (time outer, tau inner)."""
    times = np.asarray(cfg.times, dtype=float)
    return np.asarray(cfg.taus, dtype=float), times[:, None]


def _grid_rows(inner, times, *columns):
    """Table [inner, t, *values] over the times x inner grid, one row per
    grid point in CSV row order (time outer), each value column an array
    broadcast to that grid."""
    times = np.reshape(times, (-1, 1))
    shape = (len(times), len(inner))
    return np.column_stack([np.broadcast_to(c, shape).ravel()
                            for c in (inner, times, *columns)])


def _points(table, x, y, key=None, value=None):
    """One chart series: columns x and y of the rows whose column `key`
    equals value, or of every row when key is None."""
    kept = slice(None) if key is None else table[:, key] == value
    return table[kept, x].tolist(), table[kept, y].tolist()


def cmd_sensor(cfg):
    header = ["tau", "t", "p_e", "qfi_sensor", "qfi_steady"]
    taus, times = _grid_axes(cfg)
    rows = _grid_rows(taus, times, excited_population(taus, times),
                      sensor_qfi(taus, times), steady_sensor_qfi(taus))
    return header, rows, lambda: ("tau", "QFI", True, True, [
        (f"qfi_sensor t={_fmt_label(t)}", *_points(rows, 0, 3, 1, t))
        for t in cfg.times] + [
        ("qfi_steady", *_points(rows, 0, 4, 1, cfg.times[0]))])


def cmd_compare(cfg):
    header = ["tau", "t", "qfi_full", "qfi_sensor", "qfi_meter"]
    taus, times = _grid_axes(cfg)
    joint, meter = joint_and_meter_qfi_grid(taus, times, cfg.omegas[0],
                                            _grid_psi0(cfg))
    rows = _grid_rows(taus, times, joint, sensor_qfi(taus, times), meter)
    return header, rows, lambda: ("tau", "QFI", True, True, [
        (f"{name} t={_fmt_label(t)}", *_points(rows, 0, col, 1, t))
        for col, name in ((2, "full"), (3, "sensor"), (4, "meter"))
        for t in cfg.times])


def cmd_meter_map(cfg):
    header = ["tau", "t", "qfi_meter"]
    taus, times = _grid_axes(cfg)
    rows = _grid_rows(taus, times, meter_qfi_grid(taus, times, cfg.omegas[0],
                                                  _grid_psi0(cfg)))
    return header, rows, lambda: ("tau", "meter QFI", True, True, [
        (f"t={_fmt_label(t)}", *_points(rows, 0, 2, 1, t)) for t in cfg.times])


def cmd_tmax(cfg):
    header = ["omega", "t", "tau_max", "qfi_at_max"]
    tau_range = (cfg.taus[0], cfg.taus[-1])
    psi0 = _grid_psi0(cfg)  # build_config rejects psi0=optimize here
    # one search over every (Omega, t) row, in CSV row order (Omega outer)
    omegas = np.repeat(cfg.omegas, len(cfg.times))
    times = np.tile(cfg.times, len(cfg.omegas))
    tau_max, q, edge = find_t_max(omegas, psi0, times, tau_range)
    for omega, t, tau in zip(omegas[edge], times[edge], tau_max[edge]):
        print(f"warning: T_max on the tau-range edge at omega={omega:g} "
              f"t={t:g} (tau={tau:g})", file=sys.stderr)
    rows = np.column_stack([omegas, times, tau_max, q])
    return header, rows, lambda: ("t", "tau_max", True, False, [
        (f"Omega={_fmt_label(o)}", *_points(rows, 1, 2, 0, o)) for o in cfg.omegas])


def cmd_optimize(cfg):
    header = ["tau", "t", "bures_to_equal", "tau_white_line_flag", "tau_max_flag"]
    coefficients, report = _optimized(cfg)
    distances = bures_distance_pure(coefficients, equal_superposition(cfg.n))
    # one flag per time; argmin/argmax ties resolve toward smaller tau
    column = np.arange(len(cfg.taus))
    white = column == distances.argmin(axis=1)[:, None]
    best = column == report.value.argmax(axis=1)[:, None]
    rows = _grid_rows(*_grid_axes(cfg), distances, white, best)
    return header, rows, lambda: ("tau", "Bures distance to equal", True, False, [
        (f"t={_fmt_label(t)}", *_points(rows, 0, 2, 1, t)) for t in cfg.times])


def cmd_scaling(cfg):
    header = ["n", "t", "qfi_at_tmax", "r"]
    table = dimension_scaling(cfg.omegas[0], cfg.times, cfg.ns)
    for j, t in enumerate(cfg.times):  # CSV row order: time outer, n inner
        for n, tau_max, _, edge, _ in table:
            if edge[j]:
                print(f"warning: T_max on the tau-range edge at n={n} t={t:g} "
                      f"(tau={tau_max[j]:g})", file=sys.stderr)
    ns, _, q, _, r = zip(*table)
    rows = _grid_rows(ns, cfg.times, np.transpose(q), np.transpose(r))
    return header, rows, lambda: ("n", "QFI at T_max", False, True, [
        (f"t={_fmt_label(t)}", *_points(rows, 0, 2, 1, t)) for t in cfg.times])


def cmd_spectrum(cfg):
    header = (["omega"]
              + [f"re_lambda_{i}" for i in range(1, 5)]
              + [f"im_lambda_{i}" for i in range(1, 5)]
              + ["re_closed_1", "re_closed_2", "im_closed_1", "im_closed_2"])
    omegas = np.asarray(cfg.omegas)
    # one meter per coupling, all in one call; the closed pair is
    # (conj lambda_4, lambda_4), lambda_4 the slow root at the gap +Omega
    w = slow_spectrum(cfg.taus[0], omegas[:, None] * spin_x_spectrum(2, 1.0), 4)
    c1, c2 = w[:, 3].conj(), w[:, 3]
    rows = np.column_stack([omegas, w.real, w.imag, c1.real, c2.real, c1.imag, c2.imag])
    return header, rows, lambda: ("Omega", "eigenvalue", False, False, [
        (f"{part}_lambda_{i}", *_points(rows, 0, col + i))
        for i in range(1, 5) for part, col in (("re", 0), ("im", 4))])


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


# rows formatted per write: bounds the text held at once
_CSV_CHUNK_ROWS = 4096


def write_csv(path, header, rows):
    """Write the header and a 2-D table of doubles, every value as "%.17g".

    Each distinct double of a column, keyed by its bits so that -0.0 stays
    apart from 0.0, is formatted once per chunk of rows: the tau and t
    axes repeat down the table.
    """
    bits = np.asarray(rows, dtype=float).view(np.int64)
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(",".join(header) + "\n")
        for start in range(0, len(bits), _CSV_CHUNK_ROWS):
            columns = []
            for column in bits[start:start + _CSV_CHUNK_ROWS].T:
                keys, inverse = np.unique(column, return_inverse=True)
                # one % operation for the whole column chunk
                values = tuple(keys.view(float).tolist())
                text = ("%.17g\n" * len(values) % values).split("\n")[:-1]
                columns.append(np.array(text, dtype=object)[inverse].tolist())
            f.write("\n".join(map(",".join, zip(*columns))) + "\n")


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
            "#8c564b", "#e377c2", "#17becf", "#7f7f7f", "#bcbd22")


def _chart_axis(values, log_scale):
    """(place, ticks) of one chart axis over the range of values, widened
    when they are all equal: place maps a value to its fraction of the way
    along the axis, on a log or a linear scale, and ticks lie in the range."""
    lo, hi = min(values), max(values)
    if lo == hi:
        lo, hi = lo * 0.9 if lo else -1.0, hi * 1.1 if hi else 1.0
    if log_scale:
        first = math.ceil(math.log10(lo) - 1e-9)
        last = math.floor(math.log10(hi) + 1e-9)
        ticks = [10.0 ** k for k in range(first, last + 1)] or [lo, hi]
    else:
        ticks = list(np.linspace(lo, hi, 5))
    scale = math.log10 if log_scale else float
    a, b = scale(lo), scale(hi)
    return (lambda v: (scale(v) - a) / (b - a)), [t for t in ticks if lo <= t <= hi]


def render_svg(plot):
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

    (ux, xticks), (uy, yticks) = (
        _chart_axis([p[k] for _, pts in cleaned for p in pts], log_scale)
        for k, log_scale in ((0, logx), (1, logy)))
    parts.append(f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" '
                 f'fill="none" stroke="#444"/>')
    for tick in xticks:
        x = ml + ux(tick) * pw
        parts.append(f'<line x1="{x:.2f}" y1="{mt + ph}" x2="{x:.2f}" '
                     f'y2="{mt + ph + 5}" stroke="#444"/>')
        parts.append(f'<text x="{x:.2f}" y="{mt + ph + 18}" '
                     f'text-anchor="middle" font-size="11">{tick:.3g}</text>')
    for tick in yticks:
        y = mt + (1.0 - uy(tick)) * ph
        parts.append(f'<line x1="{ml - 5}" y1="{y:.2f}" x2="{ml}" '
                     f'y2="{y:.2f}" stroke="#444"/>')
        parts.append(f'<text x="{ml - 8}" y="{y + 4:.2f}" '
                     f'text-anchor="end" font-size="11">{tick:.3g}</text>')
    parts.append(f'<text x="{ml + pw / 2}" y="{height - 10}" '
                 f'text-anchor="middle" font-size="12">{xlabel}</text>')
    parts.append(f'<text x="16" y="{mt + ph / 2}" text-anchor="middle" '
                 f'font-size="12" transform="rotate(-90 16 {mt + ph / 2})">{ylabel}</text>')
    for idx, (label, pts) in enumerate(cleaned):
        color = _PALETTE[idx % len(_PALETTE)]
        coords = " ".join(f"{ml + ux(x) * pw:.2f},{mt + (1.0 - uy(y)) * ph:.2f}"
                          for x, y in pts)
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
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = build_config(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    try:
        header, rows, chart = _COMMANDS[cfg.subcommand](cfg)
        svg = render_svg(chart()) if cfg.svg else None
    except Exception as exc:  # numerical failure: nonzero but distinct from usage errors
        print(f"error: {exc}", file=sys.stderr)
        return 1
    path = cfg.out
    try:
        write_csv(path, header, rows)
        if svg is not None:
            path = path.with_suffix(".svg")
            path.write_text(svg, encoding="utf-8")
    except OSError as exc:  # an output path that cannot be written
        if path != cfg.out:  # the chart failed: no exit-2 run leaves a file
            cfg.out.unlink()
        print(f"configuration error: cannot write {path}: {exc.strerror or exc}",
              file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
