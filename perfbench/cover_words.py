"""cover_words: long words in the cover, folded with ``meta_mul``.

Each battery field gets one word of WORD_LENGTH GL2 matrices, built from
the benchmark's own integer draws through ``FieldElement.from_ints``, so
the package's sampler and RNG are bypassed.  A round folds every word from
the left; prefix entries grow to thousands of bits, so this measures
big-integer arithmetic and gcd cost rather than many small draws.

The checks fold the words again from the right, recompute the matrix
product in plain ``Fraction`` coordinates, multiply by the inverse, and
fold two kinds of words whose sign is known in closed form: upper
triangular words (the Borel formula) and words of base-field matrices in an
extension (the splitting).
"""

from __future__ import annotations

import random
import statistics
from fractions import Fraction

import oracle
from common import draw_ints, field_tuple, mat_coords

from kubota_meta import kubota
from kubota_meta.local_field import FieldElement
from kubota_meta.parsing import parse_field_spec

SPECS = ("Qp(3)", "Qp(5)", "Qp(7)", "Qp(3)[unram:2]", "Qp(3)[ram:3]",
         "Qp(5)[unram:2]", "Qp(5)[ram:5]", "Qp(7)[unram:3]", "Qp(7)[ram:7]")
WORD_LENGTH = 128
CHECK_WORD_LENGTH = 32  # the Borel and base-field words

ZERO = (Fraction(0), Fraction(0))
ONE = (Fraction(1), Fraction(0))


def draw_word(rng, field, length, shape="gl2"):
    """``length`` invertible matrices as cover elements with sign +1.

    shape "gl2": general entries, c = 0 in a fifth of the draws;
    "upper": c = 0 always; "rational": entries in the base field.
    """
    ext = field.is_extension and shape != "rational"
    word = []
    while len(word) < length:
        a, b, c, d = (FieldElement.from_ints(field, *draw_ints(rng, ext)) for _ in range(4))
        if shape == "upper" or rng.random() < 0.2:
            c = field.zero()
        if not (a * d - b * c).is_zero():
            word.append(kubota.MetaElement(kubota.Mat2(field, a, b, c, d)))
    return word


def fold_left(word):
    m = word[0]
    for w in word[1:]:
        m = kubota.meta_mul(m, w)
    return m


def fold_right(word):
    m = word[-1]
    for w in reversed(word[:-1]):
        m = kubota.meta_mul(w, m)
    return m


def snapshot(m) -> tuple:
    """(matrix as Fraction coordinates, sign) of a cover element."""
    return (mat_coords(m.g), m.eps)


# -- checks on plain data ------------------------------------------------------


def check_folds(spec, left, right) -> list:
    if left != right:
        return [f"{spec}: left and right folds differ "
                f"(signs {left[1]} and {right[1]})"]
    return []


def check_matrix(spec, left, reference) -> list:
    if left[0] != reference:
        return [f"{spec}: folded matrix differs from the Fraction product"]
    return []


def check_identity(spec, product) -> list:
    if product != ((ONE, ZERO, ZERO, ONE), 1):
        return [f"{spec}: w * w^-1 = {product!r}, not (1, +1)"]
    return []


def borel_sign(word_coords, field) -> int:
    """prod over k >= 2 of the symbol (a_1 ... a_(k-1), d_k)."""
    d = field[2]
    sign, prefix = 1, word_coords[0][0]
    for a, _, _, dk in word_coords[1:]:
        sign *= oracle.tame_symbol(prefix, dk, field)
        prefix = oracle.q_mul(prefix, a, d)
    return sign


def check_sign(spec, what, got, expected) -> list:
    if got != expected:
        return [f"{spec}: {what} word has sign {got}, expected {expected}"]
    return []


# -- workload interface ------------------------------------------------------


class Workload:
    fixed_rounds = None  # fold the words again until the time is up
    traced_rounds = 3

    def __init__(self, seed: int, seconds: float):
        rng = random.Random(seed)
        self.fields = [parse_field_spec(s) for s in SPECS]
        self.words = [draw_word(rng, f, WORD_LENGTH) for f in self.fields]
        self.upper = [draw_word(rng, f, CHECK_WORD_LENGTH, "upper") for f in self.fields]
        self.rational = [draw_word(rng, f, CHECK_WORD_LENGTH, "rational")
                         for f in self.fields if f.is_extension]
        self.last = None
        self.muls_per_round = sum(len(w) - 1 for w in self.words)

    def run_round(self, index: int, traced: bool = False) -> dict:
        self.last = [fold_left(w) for w in self.words]
        n = self.muls_per_round
        return {"attempted": n, "failed": 0, "done": n}

    def suite_ms(self) -> dict:
        return {}

    def check(self) -> list:
        problems = []
        ext_fields = [f for f in self.fields if f.is_extension]
        for spec, field, word, left in zip(SPECS, self.fields, self.words, self.last):
            ft = field_tuple(field)
            left_s = snapshot(left)
            problems += check_folds(spec, left_s, snapshot(fold_right(word)))
            reference = mat_coords(word[0].g)
            for w in word[1:]:
                reference = oracle.mat_mul(reference, mat_coords(w.g), ft[2])
            problems += check_matrix(spec, left_s, reference)
            problems += check_identity(
                spec, snapshot(kubota.meta_mul(left, kubota.meta_inv(left))))
        for spec, field, word in zip(SPECS, self.fields, self.upper):
            expected = borel_sign([mat_coords(w.g) for w in word], field_tuple(field))
            problems += check_sign(spec, "upper triangular", fold_left(word).eps, expected)
        for field, word in zip(ext_fields, self.rational):
            problems += check_sign(field.spec_string(), "base-field", fold_left(word).eps, 1)
        return problems

    @staticmethod
    def rate(rounds: list, key: str) -> float:
        """Median over rounds of meta_mul calls per second of ``key``."""
        return statistics.median(r["done"] / r[key] for r in rounds)
