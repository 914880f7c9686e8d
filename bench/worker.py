"""One benchmark run inside a fresh interpreter.

Imports `thermoq.cli` (timed: one set-up sample), then calls `main(argv)` for
each invocation of the workload, in order, pass after pass, until the next
pass would overrun the time budget. Only the `main()` calls are timed. The
calibration (calibrate.py) runs after the import, before the first
invocation of every pass and after each invocation, so every time has a
measure of the machine's speed beside it.

Pass 0 keeps its CSVs for the checks; later passes keep only their SHA-256
digests for the determinism check. After the last pass, the untimed probe
(workloads.PROBE) writes probe.csv. With --trace, even passes run untraced
and odd passes traced, so the tracing overhead is measured under the same
conditions; the spans of the first traced pass stay in memory and are
written out when the run ends. Writes a JSON result file; the parent
process does the checks.

Usage: python3 worker.py --workload NAME --seconds S --trace 0|1 --dir DIR --src SRC
"""

import argparse
import hashlib
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
import warnings
from pathlib import Path

MIN_PASSES = 2  # the determinism check needs a second pass


def _digest(path):
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except OSError:
        return None


def _call(main, argv):
    """Run one invocation; a raised exception counts as a failed exit."""
    try:
        rc = main(argv)
    except Exception:  # the program under test failed; record and go on
        traceback.print_exc()
        return -1
    return rc if isinstance(rc, int) else -1


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--dir", type=Path, required=True)
    parser.add_argument("--src", type=Path, required=True)
    args = parser.parse_args()

    start = time.perf_counter()
    import thermoq.cli as cli
    setup_s = time.perf_counter() - start
    from calibrate import calibrate
    setup_calibration_s = calibrate()
    if args.src.resolve() not in Path(cli.__file__).resolve().parents:
        sys.exit(f"thermoq.cli was imported from {cli.__file__}, not {args.src}")

    from workloads import PROBE, WORKLOADS
    invocations = WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        from tracer import Tracer, write_spans
        tracer = Tracer()

    passes, digests, layer_passes, first_spans = [], [], [], None
    durations = []  # whole passes, calibration and checks' digests included
    loop_start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        traced = tracer is not None and len(passes) % 2 == 1
        pass_dir = args.dir / f"pass{len(passes)}"
        pass_dir.mkdir(parents=True)
        main_fn = cli.main
        if traced:
            tracer.install()
            main_fn = tracer.wrap("cli.main", cli.main)
        times, codes, calibration = [], [], [calibrate()]
        for i, inv in enumerate(invocations):
            argv = inv.argv(pass_dir / f"{i}-{inv.command}.csv")
            # recorded in every pass, so traced and untraced passes do the same
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                t0 = time.perf_counter()
                codes.append(_call(main_fn, argv))
                times.append(time.perf_counter() - t0)
            calibration.append(calibrate())
            if traced:
                for w in caught:
                    tracer.counters[f"warning.{w.category.__name__}"] += 1
        if traced:
            tracer.uninstall()
            metrics, spans = tracer.take_pass()
            metrics["trace.wall_s"] = sum(times)
            metrics["trace.unattributed_s"] = sum(times) - metrics["trace.self_sum_s"]
            if first_spans is None:
                first_spans = spans
            layer_passes.append(metrics)
        passes.append({"seconds": times, "codes": codes, "traced": traced,
                       "calibration_s": calibration})
        digests.append([_digest(pass_dir / f"{i}-{inv.command}.csv")
                        for i, inv in enumerate(invocations)])
        if len(passes) > 1:
            shutil.rmtree(pass_dir)

        durations.append(time.perf_counter() - pass_start)
        elapsed = time.perf_counter() - loop_start
        typical = statistics.median(durations)
        need_traced = tracer is not None and not layer_passes
        if len(passes) >= MIN_PASSES and not need_traced \
                and elapsed + typical > args.seconds:
            break

    probe_code = _call(cli.main, PROBE.argv(args.dir / "probe.csv"))

    layers = {}
    if layer_passes:
        write_spans(args.dir / "spans.jsonl", first_spans)
        # one whole pass, so its self times add up to its wall time
        layers = sorted(layer_passes, key=lambda m: m["trace.wall_s"])[
            (len(layer_passes) - 1) // 2]
    result = {
        "setup_s": setup_s,
        "setup_calibration_s": setup_calibration_s,
        "passes": passes,
        "digests": digests,
        "probe_code": probe_code,
        "layers": layers,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {name: getattr(sys.modules.get(name), "__version__", None)
                     for name in ("numpy", "scipy")},
    }
    (args.dir / "result.json").write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
