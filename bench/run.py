"""Benchmark of the thermoq CLI sweeps: end to end, or module by module.

Run from the repository root:

    python3 bench/run.py --workload grid --seed 1 --seconds 30 --trace 0

Workloads are in workloads.py and the metrics in BENCHMARK.json; README.md
in this directory explains both. One run:

1. --trace 0 only: imports `thermoq.cli` in SETUP_SAMPLES fresh interpreters
   (after one untimed warm-up import) for the set-up time.
2. Starts worker.py in a fresh interpreter, which imports `thermoq.cli` and
   calls `main(argv)` for the workload's invocations in a closed loop with
   one client until --seconds is used up. With --trace 1 the interpreter
   runs under `-X importtime` and every other pass is traced.
3. Checks the CSVs after the timing has stopped (checks.py).
4. Prints the manifest, every metric with its unit, and as the last line one
   JSON object: {"correct", "attempted", "failed", "metrics"}.

The program under test is the source tree in ./src; the benchmark exits with
status 2 and prints no result when it is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import mpmath as mp

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

sys.path.insert(0, str(BENCH_DIR))
from checks import (ABS_FLOOR, REL_TOL, check_workload, measure_probe,  # noqa: E402
                    row_count)
from calibrate import REFERENCE_S, scaled  # noqa: E402
from workloads import OPTIMIZER_SEED, PROBE, TAU_CORRECT, WORKLOADS  # noqa: E402

SETUP_SAMPLES = 4
RUN_LIMIT_S = 170  # every run must end within 180 s
# serial grid points and BLAS (README.md gives the pool's measured cost); a
# fixed hash seed so every measuring interpreter lays out its dicts alike
PINNED_ENV = {"THERMOQ_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
              "PYTHONHASHSEED": "0"}
# the import, then the calibration in the same interpreter
SETUP_SNIPPET = ("import sys, time; t = time.perf_counter(); import thermoq.cli; "
                 "t = time.perf_counter() - t; sys.path.insert(0, {bench!r}); "
                 "from calibrate import calibrate; print(repr(t), repr(calibrate()))")
# modules whose cumulative import time the traced run reports
IMPORT_MODULES = ("thermoq.cli", "numpy", "scipy", "scipy.linalg",
                  "scipy.optimize", "scipy.integrate")
POOL_NOTE = ("THERMOQ_THREADS=1 pins serial grid points. Measured once on a "
             "2-core Xeon at 2.1 GHz, first pass in 5 fresh processes each: "
             "the default pool (2 workers) took 4.33-5.36 s on grid and "
             "8.80-9.35 s on search, serial 2.46-2.97 s and 7.67-8.56 s. "
             "The pool slows this GIL-bound code.")
STATE_OPT_NOTE = ("state-opt runs optimize --n 4 --tau 0.2 at --t 1 and at --t 20, "
                  "reduced from the CLI default of n = 6 on 128 points "
                  "(about 35 s per point); the optimizer seed is fixed at "
                  f"{OPTIMIZER_SEED}.")

KNOWN_DEFECT_NOTE = (
    f"The timed workloads keep their finite-difference QFIs at tau >= "
    f"{TAU_CORRECT}. Below that the package's temperature derivative loses the "
    "occupation to rounding; the untimed probe measures that "
    "band as low_tau_max_rel_err and low_tau_fail_frac, which fail no run.")

SCALING_NOTE = (
    "wall_s, rows_per_s and setup_s are at the reference speed: each "
    "invocation and each import is scaled by calibrate.REFERENCE_S over the "
    "calibration measured beside it; the trace.* times are as measured.")


def declared_metrics(trace):
    """(name, unit) pairs BENCHMARK.json declares for this kind of run, in order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [(m["name"], m["unit"]) for m in spec["per_layer" if trace else "end_to_end"]]


def _fail(message):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def _env():
    env = dict(os.environ)
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


def _deadline_left(start):
    left = RUN_LIMIT_S - (time.perf_counter() - start)
    if left <= 5:
        _fail("out of time before the run finished")
    return left


def _setup_samples(env, start):
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        try:
            proc = subprocess.run([sys.executable, "-c",
                                   SETUP_SNIPPET.format(bench=str(BENCH_DIR))], env=env,
                                  cwd=ROOT, capture_output=True, text=True,
                                  timeout=_deadline_left(start))
        except subprocess.TimeoutExpired:
            _fail("importing thermoq.cli did not finish in time")
        if proc.returncode != 0:
            _fail(f"importing thermoq.cli failed:\n{proc.stderr}")
        if i:  # the first import is a warm-up: bytecode and file cache
            samples.append(scaled(*map(float, proc.stdout.split()[-2:])))
    return samples


def _scaled_wall(passes):
    """Seconds of one pass at the reference speed: the sum over invocations
    of each one's median over the passes. An invocation is scaled by the mean
    of the calibrations right before and right after it. Medians per
    invocation, not per pass, so that a slow spell in one invocation of one
    pass and another in a different invocation of another pass both drop out.
    """
    def one(p, i):
        cal = p["calibration_s"]
        return scaled(p["seconds"][i], (cal[i] + cal[i + 1]) / 2)
    return sum(statistics.median(one(p, i) for p in passes)
               for i in range(len(passes[0]["seconds"])))


def _import_times(stderr_text):
    """Cumulative seconds per module from `-X importtime` output."""
    cumulative = {}
    for line in stderr_text.splitlines():
        m = re.match(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|\s+(\S.*)$", line)
        if m:
            cumulative[m.group(3).strip()] = int(m.group(2)) * 1e-6
    return {f"setup.import.{name}_s": cumulative.get(name, 0.0)
            for name in IMPORT_MODULES}


def _git_commit():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def manifest(args, versions):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": versions["numpy"],
        "scipy": versions["scipy"],
        "mpmath": mp.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "pinned_env": PINNED_ENV,
        "inherited_blas_env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "thread_pool_note": POOL_NOTE,
        "reduction_note": STATE_OPT_NOTE if args.workload == "state-opt" else None,
        "tolerance": {"rel": REL_TOL, "abs_floor": ABS_FLOOR},
        "known_defect_note": KNOWN_DEFECT_NOTE,
        "scaling_note": SCALING_NOTE,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    start = time.perf_counter()

    if not (SRC / "thermoq" / "cli.py").is_file():
        _fail(f"no thermoq source tree at {SRC}")
    env = _env()
    invocations = WORKLOADS[args.workload]
    setup = [] if args.trace else _setup_samples(env, start)

    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        cmd = [sys.executable, *(["-X", "importtime"] if args.trace else []),
               str(BENCH_DIR / "worker.py"), "--workload", args.workload,
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--dir", str(work), "--src", str(SRC)]
        with open(work / "stderr.txt", "w", encoding="utf-8") as err:
            try:
                proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
                                      stderr=err, timeout=_deadline_left(start))
            except subprocess.TimeoutExpired:
                _fail(f"worker did not finish within {RUN_LIMIT_S} s")
        stderr_text = (work / "stderr.txt").read_text(encoding="utf-8", errors="replace")
        if proc.returncode != 0 or not (work / "result.json").is_file():
            _fail(f"worker exited with {proc.returncode}:\n{stderr_text[-4000:]}")
        result = json.loads((work / "result.json").read_text(encoding="utf-8"))

        passes = result["passes"]
        csv_paths = [work / "pass0" / f"{i}-{inv.command}.csv"
                     for i, inv in enumerate(invocations)]
        tally = check_workload(invocations, csv_paths, passes[0]["codes"],
                               result["digests"], args.seed)
        probe_err, probe_bad = measure_probe(PROBE, work / "probe.csv",
                                             result["probe_code"], tally)
        rows = sum(row_count(p) for p in csv_paths)
        untraced = [p for p in passes if not p["traced"]]
        raw_wall = statistics.median(sum(p["seconds"]) for p in untraced)
        wall = _scaled_wall(untraced)

        if args.trace:
            metrics = dict(result["layers"])
            metrics.update(_import_times(stderr_text))
            metrics["cli.csv_bytes"] = sum(p.stat().st_size for p in csv_paths
                                           if p.is_file())
            metrics["trace.untraced_wall_s"] = raw_wall
            metrics["trace.overhead_frac"] = metrics["trace.wall_s"] / raw_wall - 1.0
            spans_file = work / "spans.jsonl"
            if spans_file.is_file():
                shutil.move(spans_file, OUT / f"spans-{args.workload}.jsonl")
        else:
            setup.append(scaled(result["setup_s"], result["setup_calibration_s"]))
            metrics = {
                "wall_s": wall,
                "rows_per_s": rows / wall,
                "setup_s": statistics.median(setup),
                "peak_rss_mb": result["peak_rss_mb"],
                # floored at the tolerance: every row below it passes, and the
                # value must never read 0
                "qfi_max_rel_err": max(tally.worst, REL_TOL),
                # half an operation when none failed, so it is never 0
                "fail_frac": max(tally.failed, 0.5) / tally.attempted,
                # the known defect below TAU_CORRECT, floored alike
                "low_tau_max_rel_err": max(probe_err, REL_TOL),
                "low_tau_fail_frac": max(probe_bad, 0.5 / PROBE.rows),
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print("manifest " + json.dumps(manifest(args, result["versions"]), sort_keys=True))
    print(f"passes {len(passes)} ({len(untraced)} untraced); per invocation, "
          "seconds by pass:")
    for i, inv in enumerate(invocations):
        print(f"  {inv.command:10s} " + " ".join(f"{p['seconds'][i]:.3f}" for p in passes)
              + ("" if not args.trace else "   traced: "
                 + " ".join(str(int(p["traced"])) for p in passes)))
    print("  calibration " + " ".join(f"{statistics.median(p['calibration_s']):.3f}"
                                      for p in passes)
          + f"   (median per pass; reference {REFERENCE_S:g} s)")
    print(f"untraced passes: median {raw_wall:.3f} s as measured; "
          f"wall_s {wall:.3f} s at the reference speed")
    print(f"checks: {tally.attempted} operations, {tally.failed} failed, "
          f"worst reference error {tally.worst:.3g} (tolerance {REL_TOL:g})")
    print(f"probe below tau = {TAU_CORRECT:g} (fails no operation): worst "
          f"reference error {probe_err:.3g}, {probe_bad:.1%} of {PROBE.rows} "
          "rows beyond the tolerance")
    for note in tally.notes:
        print(f"  FAIL {note}")
    declared = declared_metrics(args.trace)
    missing = [name for name, _unit in declared if name not in metrics]
    if missing:
        _fail(f"metrics declared in BENCHMARK.json but not measured: {missing}")
    for name, unit in declared:
        print(f"{name} = {metrics[name]!r} {unit}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in declared},
    }))


if __name__ == "__main__":
    main()
