"""Size a change: time the battery and long cover folds under two source trees.

    python3 tools/ab.py OLD_SRC NEW_SRC [--rounds N] [--trials T] [--seed S]

OLD_SRC and NEW_SRC are the ``src`` directories (or the ``kubota_meta``
package directories) of two checkouts.  Each tree is copied to a temporary
directory under its own package name, so both import side by side in one
process.  The units of a round are the two workloads of the library
benchmark:

* battery: each ``run_suite`` slot of the ``selftest-all`` battery, one
  suite on one field at T trials per randomized check and master seed S.
  The slots are read off the reports of a one-trial ``selftest_reports``.
* folds: for each field whose slot runs every suite, one left fold with
  ``meta_mul`` of a word of LENGTH matrices, sign +1, drawn by the tree's
  own ``rand_mat2`` from ``SplitMix64(S)``, so the entries grow to
  thousands of bits.  The words are drawn before any timing.

One untimed warm-up round compares the trees: reports by ``to_dict()``,
folds by their sign and the Fractions of their entries.  Then each of the N
rounds runs every unit once under each tree, and which tree goes first
flips with the parity of round + unit, so a drift in the machine's speed
falls on both trees alike.  Separate processes cannot size a change of a
few percent where one thread's speed swings by more than that between runs;
alternating units in one process can.  For each workload the output is the
total-time ratio old / new and the quartiles of the per-unit ratios; above
1 the new tree is faster.

The exit status is 1 if the two trees' reports or folds differ, 2 on bad
arguments or when the trees run different batteries, else 0.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import shutil
import statistics
import sys
import tempfile
import time
from functools import reduce
from pathlib import Path

LENGTH = 128
HEIGHT = 50
DIFFER = {"battery": "reports differ", "folds": "folds differ"}


def package_dir(src: str):
    """The ``kubota_meta`` package at or under ``src``, or None."""
    path = Path(src)
    for pkg in (path / "kubota_meta", path):
        if (pkg / "__init__.py").is_file() and (pkg / "suites.py").is_file():
            return pkg
    return None


def load(pkg: Path, name: str, tmp: Path):
    """The package ``pkg``, imported as ``name``, with its ``suites``."""
    shutil.copytree(pkg, tmp / name, ignore=shutil.ignore_patterns("__pycache__"))
    importlib.import_module(f"{name}.suites")
    return sys.modules[name]


def battery(tree) -> list:
    """(field spec, suite) of each ``run_suite`` call of the battery."""
    reports = tree.suites.selftest_reports(tree.suites.RunConfig("Qp(3)", trials=1))
    return [(r.config.field_spec, r.command.split(":", 1)[1]) for r in reports]


def units(tree, slots: list, trials: int, seed: int) -> list:
    """(workload, label, run) of each unit; ``run()`` returns what is compared.
    The fold words are drawn here, by the tree's own sampler."""
    suites, gen = tree.suites, tree.rng.SplitMix64(seed)

    def suite_run(spec, suite):
        config = suites.RunConfig(spec, trials=trials, seed=seed)
        return lambda: suites.run_suite(config, suite).to_dict()

    def fold_run(spec):
        field = tree.parse_field_spec(spec)
        word = [tree.MetaElement(suites.rand_mat2(gen, field, HEIGHT)) for _ in range(LENGTH)]

        def run():
            m = reduce(tree.meta_mul, word)
            return m.eps, [(x.a, x.b) for x in m.g.entries()]
        return run

    return ([("battery", f"{spec} {suite}", suite_run(spec, suite)) for spec, suite in slots]
            + [("folds", spec, fold_run(spec)) for spec, suite in slots if suite == "all"])


def timed(run) -> float:
    """Seconds of one unit."""
    gc.collect()
    t0 = time.perf_counter()
    run()
    return time.perf_counter() - t0


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("old_src")
    parser.add_argument("new_src")
    parser.add_argument("--rounds", type=int, default=6)
    parser.add_argument("--trials", type=int, default=300)
    parser.add_argument("--seed", type=int, default=0)
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
        slots = battery(trees[1])
        if battery(trees[0]) != slots:
            print("the two trees run different batteries", file=sys.stderr)
            return 2
        sides = [units(t, slots, args.trials, args.seed) for t in trees]

        differ = [f"{DIFFER[kind]}: {label}"
                  for (kind, label, old), (_, _, new) in zip(*sides) if old() != new()]

        samples = {}
        for r in range(args.rounds):
            for i, ((kind, _, old), (_, _, new)) in enumerate(zip(*sides)):
                t = [0.0, 0.0]
                for side in ((0, 1) if (r + i) % 2 == 0 else (1, 0)):
                    t[side] = timed((old, new)[side])
                samples.setdefault(kind, []).append(t)

    print(f"{args.rounds} rounds at {args.trials} trials, seed {args.seed}, "
          f"folds of {LENGTH} matrices")
    for kind, pairs in samples.items():
        old, new = (sum(side) for side in zip(*pairs))
        q1, median, q3 = statistics.quantiles([o / n for o, n in pairs], n=4)
        print(f"{kind} x {len(pairs) // args.rounds}: old {old:.3f} s, new {new:.3f} s, "
              f"total-time ratio old/new {old / new:.3f}, "
              f"per-unit ratio quartiles {q1:.3f} {median:.3f} {q3:.3f}")
    for line in differ:
        print(line, file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
