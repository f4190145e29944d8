"""Time long folds in the cover under two source trees, alternating in one process.

    python3 tools/ab_folds.py OLD_SRC NEW_SRC [--rounds N] [--seed S]

OLD_SRC and NEW_SRC are the ``src`` directories (or the ``kubota_meta``
package directories) of two checkouts, loaded side by side as in
``tools/ab_battery.py``.  One seed draws a word of LENGTH invertible
matrices for each field of the self-test battery, as integer triples
(A, B, D) with numerators in [-50, 50] and denominators in [1, 50], and
c = 0 in a fifth of the draws; each tree builds the same words through its
public API (``FieldElement.from_ints``, ``Mat2``, ``MetaElement``).  A fold
is one left fold of one word with ``meta_mul``, so the entries grow to
thousands of bits.  Every round folds each word once under each tree, old
first for one word and new first for the next, the order flipping between
rounds; one untimed warm-up round comes first and compares the folds.  The
output is the total-time ratio old / new and the quartiles of the
per-round ratios; above 1 the new tree is faster.

The exit status is 1 if the two trees' folded matrices (their stored ints)
or signs differ, 2 on bad arguments, else 0.
"""

from __future__ import annotations

import argparse
import gc
import random
import statistics
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from ab_battery import load, package_dir  # noqa: E402

LENGTH = 128
HEIGHT = 50


def draw_triples(rng, ext: bool) -> list:
    """Four entries (A, B, D) of n0/m0 + (n1/m1) sqrt(d); c = 0 in a fifth."""
    entries = []
    for _ in range(4):
        n0, m0 = rng.randint(-HEIGHT, HEIGHT), rng.randint(1, HEIGHT)
        if ext:
            n1, m1 = rng.randint(-HEIGHT, HEIGHT), rng.randint(1, HEIGHT)
            entries.append((n0 * m1, n1 * m0, m0 * m1))
        else:
            entries.append((n0, 0, m0))
    if rng.random() < 0.2:
        entries[2] = (0, 0, 1)
    return entries


def build(pkg, spec: str, word: list) -> list:
    """The word as cover elements of the package ``pkg``, sign +1."""
    field = pkg.parse_field_spec(spec)
    return [pkg.MetaElement(pkg.Mat2(field, *(pkg.FieldElement.from_ints(field, *t)
                                              for t in triple)))
            for triple in word]


def draw_words(pkg, specs, seed: int) -> list:
    """LENGTH nonsingular matrices per field, as integer triples; a draw
    that ``pkg`` finds singular is drawn again."""
    rng = random.Random(seed)
    words = []
    for spec in specs:
        field = pkg.parse_field_spec(spec)
        word = []
        while len(word) < LENGTH:
            triples = draw_triples(rng, field.is_extension)
            try:
                build(pkg, spec, [triples])
            except ValueError:
                continue
            word.append(triples)
        words.append(word)
    return words


def fold(pkg, word: list):
    m = word[0]
    for w in word[1:]:
        m = pkg.meta_mul(m, w)
    return m


def timed(pkg, word: list) -> float:
    """Seconds of one left fold."""
    gc.collect()
    t0 = time.perf_counter()
    fold(pkg, word)
    return time.perf_counter() - t0


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("old_src")
    parser.add_argument("new_src")
    parser.add_argument("--rounds", type=int, default=20)
    parser.add_argument("--seed", type=int, default=0)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    if args.rounds < 2:
        print("--rounds must be at least 2", file=sys.stderr)
        return 2
    pkgs = [package_dir(src) for src in (args.old_src, args.new_src)]
    for src, pkg in zip((args.old_src, args.new_src), pkgs):
        if pkg is None:
            print(f"{src}: no kubota_meta package here", file=sys.stderr)
            return 2

    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        suites = (load(pkgs[0], "ab_old_kubota_meta", Path(tmp)),
                  load(pkgs[1], "ab_new_kubota_meta", Path(tmp)))
        trees = [sys.modules[s.__package__] for s in suites]
        specs = suites[1].SELFTEST_BASE_SPECS + suites[1].SELFTEST_EXT_SPECS
        if suites[0].SELFTEST_BASE_SPECS + suites[0].SELFTEST_EXT_SPECS != specs:
            print("the two trees have different battery fields", file=sys.stderr)
            return 2
        ints = draw_words(trees[1], specs, args.seed)
        words = [[build(t, spec, word) for spec, word in zip(specs, ints)] for t in trees]

        differ = []
        for i, spec in enumerate(specs):
            folded = [fold(t, w[i]) for t, w in zip(trees, words)]
            if (folded[0].g._q, folded[0].eps) != (folded[1].g._q, folded[1].eps):
                differ.append(spec)

        totals, ratios = [0.0, 0.0], []
        for r in range(args.rounds):
            t = [0.0, 0.0]
            for i in range(len(specs)):
                for side in ((0, 1) if (r + i) % 2 == 0 else (1, 0)):
                    t[side] += timed(trees[side], words[side][i])
            totals[0] += t[0]
            totals[1] += t[1]
            ratios.append(t[0] / t[1])

    q1, median, q3 = statistics.quantiles(ratios, n=4)
    print(f"{args.rounds} rounds x {len(specs)} folds of {LENGTH} matrices, "
          f"seed {args.seed}: old {totals[0]:.3f} s, new {totals[1]:.3f} s")
    print(f"total-time ratio old/new {totals[0] / totals[1]:.3f}")
    print(f"per-round ratio quartiles {q1:.3f} {median:.3f} {q3:.3f}")
    for spec in differ:
        print(f"folds differ: {spec}", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
