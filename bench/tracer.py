"""Spans around the package's public functions, installed from outside.

The package is not changed. Each traced function is wrapped in its home
module and in every other `thermoq` module that bound it with
`from .x import y`, because a caller looks the name up in its own module. A
name missing at some commit is skipped, so its metrics read zero calls.

Spans hold name, start, end, parent and thread id. They stay in memory until
`take_pass`, which folds them into per-name call counts and self times (a
span's duration minus the time its child spans cover).
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from collections import Counter

_LAYERS = ("bath", "dynamics", "qfi", "optimize", "spectrum")

# (span name, home module, attribute); span names start with the layer
TARGETS = (
    *((f"bath.{name}", "thermoq.bath", name) for name in (
        "bose_occupation", "d_occupation_dT", "thermal_rates",
        "excited_population", "excited_population_derivative",
        "sensor_state", "sensor_state_derivative", "sensor_qfi",
        "steady_sensor_qfi")),
    ("dynamics.meter_state", "thermoq.dynamics", "meter_state"),
    ("dynamics.joint_state", "thermoq.dynamics", "joint_state"),
    ("dynamics.spin_x_spectrum", "thermoq.dynamics", "spin_x_spectrum"),
    ("qfi.meter_qfi", "thermoq.qfi", "meter_qfi"),
    ("qfi.joint_qfi", "thermoq.qfi", "joint_qfi"),
    ("qfi.state_derivative", "thermoq.qfi", "state_derivative"),
    ("qfi.qfi_qubit", "thermoq.qfi", "qfi_qubit"),
    ("qfi.qfi_general", "thermoq.qfi", "qfi_general"),
    ("optimize.find_t_max", "thermoq.optimize", "find_t_max"),
    ("optimize.optimize_initial_state", "thermoq.optimize", "optimize_initial_state"),
    ("optimize.dimension_scaling", "thermoq.optimize", "dimension_scaling"),
    ("optimize.bures_distance_pure", "thermoq.optimize", "bures_distance_pure"),
    ("spectrum.build_superoperator", "thermoq.spectrum", "build_superoperator"),
    ("spectrum.slow_spectrum", "thermoq.spectrum", "slow_spectrum"),
    ("spectrum.coherence_eigenvalues_closed_form", "thermoq.spectrum",
     "coherence_eigenvalues_closed_form"),
    ("cli.write_csv", "thermoq.cli", "write_csv"),
)

QFI_METHODS = ("qubit-closed-form", "vectorized")

# spans reported as a .calls / .self_s pair (per_layer in BENCHMARK.json)
_CALLS_AND_SELF = ("dynamics.meter_state", "dynamics.joint_state",
                   "qfi.meter_qfi", "qfi.joint_qfi", "qfi.state_derivative",
                   "qfi.qfi_qubit", "qfi.qfi_general", "optimize.find_t_max",
                   "optimize.optimize_initial_state",
                   "spectrum.build_superoperator", "spectrum.slow_spectrum")


def _count_blocks(counters, name, args, kwargs, result):
    meter = args[1] if len(args) > 1 else kwargs.get("meter")
    n = int(meter.n)
    # meter_state needs the n(n-1)/2 coherences, joint_state n(n+1)/2 blocks
    counters["dynamics.blocks"] += n * (n - 1) // 2 if name.endswith("meter_state") \
        else n * (n + 1) // 2


def _count_method(counters, name, args, kwargs, result):
    method = getattr(result, "method", None)
    counters[f"qfi.method.{method if method in QFI_METHODS else 'other'}"] += 1


def _count_optimizer(counters, name, args, kwargs, result):
    report = result[1]
    counters["optimize.iterations"] += int(report.iterations)
    counters["optimize.converged"] += bool(report.converged)


_HOOKS = {
    "dynamics.meter_state": _count_blocks,
    "dynamics.joint_state": _count_blocks,
    "qfi.meter_qfi": _count_method,
    "qfi.joint_qfi": _count_method,
    "optimize.optimize_initial_state": _count_optimizer,
}


class Tracer:
    """Installs span wrappers, records spans, and restores the originals."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent span or None, thread id, child time]
        self.counters = Counter()
        self._local = threading.local()
        self._undo = []

    def wrap(self, name, fn):
        spans, local, clock = self.spans, self._local, time.perf_counter
        counters, hook = self.counters, _HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
                local.tid = threading.get_ident()
            rec = [name, clock(), 0.0, stack[-1] if stack else None, local.tid, 0.0]
            spans.append(rec)
            stack.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[2] = clock()
                if rec[3] is not None:
                    rec[3][5] += rec[2] - rec[1]
            if hook is not None:
                try:
                    hook(counters, name, args, kwargs, result)
                except (AttributeError, IndexError, TypeError, ValueError):
                    counters[f"hook_errors.{name}"] += 1
            return result

        return traced

    def _set(self, owner, key, value):
        """Replace a module attribute or a dict entry until `uninstall`."""
        if isinstance(owner, dict):
            original = owner[key]
            owner[key] = value
            self._undo.append(lambda: owner.__setitem__(key, original))
        else:
            original = getattr(owner, key)
            setattr(owner, key, value)
            self._undo.append(lambda: setattr(owner, key, original))

    def install(self):
        """Wrap every target that exists at this commit."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "thermoq" or n.startswith("thermoq.")) and m is not None]
        for span, home, attr in TARGETS:
            try:
                original = getattr(importlib.import_module(home), attr)
            except (ImportError, AttributeError):
                continue
            wrapper = self.wrap(span, original)
            for module in modules:
                if getattr(module, attr, None) is original:
                    self._set(module, attr, wrapper)
        commands = getattr(sys.modules.get("thermoq.cli"), "_COMMANDS", None)
        if isinstance(commands, dict):
            for key, fn in list(commands.items()):
                self._set(commands, key, self.wrap(f"cli.command.{key}", fn))

    def uninstall(self):
        while self._undo:
            self._undo.pop()()

    def take_pass(self):
        """Fold the recorded spans into one pass's metrics and clear them.

        Returns (metrics, spans) where spans is the raw list for writing out.
        """
        calls, self_s, children = Counter(), Counter(), Counter()
        for name, start, end, parent, _tid, child in self.spans:
            calls[name] += 1
            self_s[name] += end - start - child
            if parent is not None:
                children[(parent[0], name)] += 1
        metrics = {}
        for span in _CALLS_AND_SELF:
            metrics[f"{span}.calls"] = calls[span]
            metrics[f"{span}.self_s"] = self_s[span]
        for layer in _LAYERS:
            metrics[f"{layer}.self_s"] = sum(v for k, v in self_s.items()
                                             if k.startswith(layer + "."))
        metrics["bath.calls"] = sum(v for k, v in calls.items() if k.startswith("bath."))
        metrics["cli.self_s"] = sum(v for k, v in self_s.items()
                                    if k.startswith("cli.command."))
        metrics["cli.main.self_s"] = self_s["cli.main"]
        metrics["cli.write_csv.self_s"] = self_s["cli.write_csv"]
        metrics["trace.self_sum_s"] = sum(self_s.values())
        metrics["trace.spans"] = len(self.spans)
        metrics["optimize.find_t_max.evals"] = sum(
            v for (p, _c), v in children.items() if p == "optimize.find_t_max")
        metrics["qfi.fallback_general"] = children[("qfi.qfi_qubit", "qfi.qfi_general")]
        metrics["dynamics.blocks"] = self.counters["dynamics.blocks"]
        for method in (*QFI_METHODS, "other"):
            metrics[f"qfi.method.{method}"] = self.counters[f"qfi.method.{method}"]
        metrics["optimize.iterations"] = self.counters["optimize.iterations"]
        runs = calls["optimize.optimize_initial_state"]
        metrics["optimize.converged_frac"] = (self.counters["optimize.converged"] / runs
                                              if runs else 0.0)
        metrics["optimize.boundary_maxima"] = self.counters["warning.BoundaryMaximumWarning"]
        metrics["trace.hook_errors"] = sum(v for k, v in self.counters.items()
                                           if k.startswith("hook_errors."))
        spans = list(self.spans)
        self.spans.clear()
        self.counters.clear()
        return metrics, spans


def write_spans(path, spans):
    """Write spans as JSON lines [name, start, end, parent index, thread id]."""
    index = {id(rec): i for i, rec in enumerate(spans)}
    with open(path, "w", encoding="utf-8") as f:
        for rec in spans:
            parent = index[id(rec[3])] if rec[3] is not None else -1
            f.write(json.dumps([rec[0], rec[1], rec[2], parent, rec[4]]) + "\n")
