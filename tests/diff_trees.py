"""Compare what the CLI writes in two source trees:

    python tests/diff_trees.py OLD NEW

This tree's corpus (`cli_corpus.py`, pairs included) runs against each tree's
package in one subprocess, with PYTHONPATH=<tree>/src, as `test_cli_corpus.py`
runs it. For each command line it prints `identical`, or the change in exit
code and stderr and each CSV column's worst relative movement |new - old| /
|old|. It stores no output, and exits 1 when anything changed.
"""

import itertools
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path


def record(path):
    """Write {"package": thermoq's file, argv: [code, stderr, {name: text}]}
    for every command line of the corpus to path."""
    import warnings
    warnings.simplefilter("error")
    import thermoq
    from cli_corpus import CASES, PAIRS
    from test_cli_corpus import run
    results = {"package": thermoq.__file__}
    with tempfile.TemporaryDirectory() as top:
        for i, argv in enumerate(dict.fromkeys([*(c.argv for c in CASES), *sum(PAIRS, ())])):
            (Path(top) / str(i)).mkdir()
            results[argv] = run(argv, Path(top) / str(i))
    Path(path).write_text(json.dumps(results), encoding="utf-8")


def _outputs(tree, path):
    src = Path(tree).resolve() / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(Path(__file__).parent)]))
    subprocess.run([sys.executable, "-c", "import sys, diff_trees; diff_trees.record(sys.argv[1])",
                    str(path)], env=env, cwd=path.parent, check=True)
    results = json.loads(path.read_text(encoding="utf-8"))
    if src not in Path(results.pop("package")).resolve().parents:
        raise SystemExit(f"{tree}: thermoq was not imported from {src}")
    return results


def _movement(old, new):
    """Each column's worst |new - old| / |old| between two CSV texts."""
    (head, *old_rows), (new_head, *new_rows) = old.splitlines(), new.splitlines()
    if head != new_head or len(old_rows) != len(new_rows):
        return f"header or row count changed ({len(old_rows)} -> {len(new_rows)} rows)"
    worst = dict.fromkeys(head.split(","), 0.0)
    for old_row, new_row in zip(old_rows, new_rows):
        for name, a, b in zip(worst, map(float, old_row.split(",")),
                              map(float, new_row.split(","))):
            if a != b and not (math.isnan(a) and math.isnan(b)):
                worst[name] = max(worst[name], abs(b - a) / abs(a)
                                  if a and math.isfinite(a) else math.inf)
    return ", ".join(f"{name} {value:.3g}" for name, value in worst.items())


def _changes(old, new):
    (old_code, old_err, old_files), (new_code, new_err, new_files) = old, new
    notes = [f"exit {old_code} -> {new_code}"] if old_code != new_code else []
    if old_err != new_err:
        a, b = old_err.splitlines(), new_err.splitlines()
        first = next(f"{x!r} -> {y!r}" for x, y in itertools.zip_longest(a, b) if x != y)
        notes.append(f"stderr {len(a)} -> {len(b)} lines, {first}")
    for name in sorted(old_files.keys() | new_files.keys()):
        a, b = old_files.get(name), new_files.get(name)
        if a != b:
            notes.append(f"{name}: {_movement(a, b)}" if name.endswith(".csv") and a and b
                         else f"{name} {'changed' if a and b else 'written' if b else 'gone'}")
    return notes


def main(old, new):
    with tempfile.TemporaryDirectory() as top:
        before, after = (_outputs(tree, Path(top) / f"{name}.json")
                         for name, tree in (("old", old), ("new", new)))
    changed = 0
    for argv in before:
        notes = _changes(before[argv], after[argv])
        print(f"{argv}: {'; '.join(notes) or 'identical'}")
        changed += bool(notes)
    print(f"{changed} of {len(before)} command lines changed")
    return 1 if changed else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        raise SystemExit(__doc__)
    raise SystemExit(main(*sys.argv[1:]))
