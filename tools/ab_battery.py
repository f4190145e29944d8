"""Time the self-test battery under two source trees, alternating in one process.

    python3 tools/ab_battery.py OLD_SRC NEW_SRC [--rounds N] [--trials T]

OLD_SRC and NEW_SRC are the ``src`` directories (or the ``kubota_meta``
package directories) of two checkouts.  Each tree is copied to a
temporary directory under its own package name, so both import side by
side.  A slot is one ``run_suite`` call of the ``selftest-all`` battery:
one suite on one field, at T trials per randomized check.  Every round
runs each slot once under each tree, old first in one slot and new first
in the next, the order flipping between rounds, so a drift in the
machine's speed falls on both trees alike; one untimed warm-up round comes
first.  The output is the total-time ratio old / new and the quartiles of
the per-slot ratios; above 1 the new tree is faster.  Separate processes
cannot size a change of a few percent where one thread's speed swings by
more than that between runs; alternating slots in one process can.

The exit status is 1 if the two trees' reports differ in anything but
their timings, 2 on bad arguments, else 0.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path


def package_dir(src: str):
    """The ``kubota_meta`` package at or under ``src``, or None."""
    path = Path(src)
    for pkg in (path / "kubota_meta", path):
        if (pkg / "__init__.py").is_file() and (pkg / "suites.py").is_file():
            return pkg
    return None


def load(pkg: Path, name: str, tmp: Path):
    """The ``suites`` module of the package ``pkg``, imported as ``name``."""
    shutil.copytree(pkg, tmp / name, ignore=shutil.ignore_patterns("__pycache__"))
    return importlib.import_module(f"{name}.suites")


def slots(suites) -> list:
    """(field spec, suite) of each ``run_suite`` call of the battery."""
    return ([(spec, "all") for spec in suites.SELFTEST_BASE_SPECS + suites.SELFTEST_EXT_SPECS]
            + [(spec, "omega") for spec in suites.SELFTEST_INDEX_SPECS])


def timed(suites, spec: str, suite: str, trials: int) -> tuple:
    """(seconds, report as JSON) of one slot."""
    config = suites.RunConfig(spec, trials=trials)
    gc.collect()
    t0 = time.perf_counter()
    report = suites.run_suite(config, suite)
    elapsed = time.perf_counter() - t0
    return elapsed, json.dumps(report.to_dict(), sort_keys=True)


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("old_src")
    parser.add_argument("new_src")
    parser.add_argument("--rounds", type=int, default=6)
    parser.add_argument("--trials", type=int, default=300)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    if args.rounds < 1 or args.trials < 1:
        print("--rounds and --trials must be positive", file=sys.stderr)
        return 2
    pkgs = [package_dir(src) for src in (args.old_src, args.new_src)]
    for src, pkg in zip((args.old_src, args.new_src), pkgs):
        if pkg is None:
            print(f"{src}: no kubota_meta package here", file=sys.stderr)
            return 2

    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        trees = (load(pkgs[0], "ab_old_kubota_meta", Path(tmp)),
                 load(pkgs[1], "ab_new_kubota_meta", Path(tmp)))
        battery = slots(trees[1])
        if slots(trees[0]) != battery:
            print("the two trees run different batteries", file=sys.stderr)
            return 2

        differ = []
        for spec, suite in battery:
            reports = [timed(t, spec, suite, args.trials)[1] for t in trees]
            if reports[0] != reports[1]:
                differ.append(f"{spec} {suite}")

        totals, ratios = [0.0, 0.0], []
        for r in range(args.rounds):
            for i, (spec, suite) in enumerate(battery):
                order = (0, 1) if (r + i) % 2 == 0 else (1, 0)
                t = [0.0, 0.0]
                for side in order:
                    t[side] = timed(trees[side], spec, suite, args.trials)[0]
                totals[0] += t[0]
                totals[1] += t[1]
                ratios.append(t[0] / t[1])

    q1, median, q3 = statistics.quantiles(ratios, n=4)
    print(f"{args.rounds} rounds x {len(battery)} slots at {args.trials} trials: "
          f"old {totals[0]:.2f} s, new {totals[1]:.2f} s")
    print(f"total-time ratio old/new {totals[0] / totals[1]:.3f}")
    print(f"per-slot ratio quartiles {q1:.3f} {median:.3f} {q3:.3f}")
    for slot in differ:
        print(f"reports differ: {slot}", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
