"""Square-class combinatorics: quadratic characters, central-character
torsors, and the index formulas comparing E* with F* E*^2.

A genuine character of the cover's center is pinned down, once its values on
squares are fixed, by a quadratic twist, so the set of such characters is a
4-element torsor under E*/E*^2.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BaseFieldInput, ZeroElement
from .hilbert import Sign, hilbert, pair_class_keys
from .local_field import (
    FieldElement,
    LocalField,
    SquareClass,
    embed_base,
    square_class,
    square_class_reps,
)


@dataclass(frozen=True)
class GenuineZCharacter:
    """A genuine central character, given by its quadratic twist."""

    twist: SquareClass


def chi_a_eval(a: FieldElement, x: FieldElement) -> Sign:
    """The quadratic character attached to a, evaluated at x: (a, x).

    Trivial exactly when a is a square; depends only on the classes of
    both arguments.
    """
    if a.is_zero() or x.is_zero():
        raise ZeroElement("quadratic characters live on nonzero elements")
    return hilbert(a, x)


def omega_of(field: LocalField) -> tuple:
    """The torsor of genuine central characters, one per square class in
    canonical order."""
    return tuple(GenuineZCharacter(c) for c in square_class_reps(field))


def conjugate_char(mu: GenuineZCharacter, a: FieldElement) -> GenuineZCharacter:
    """Conjugation twist mu -> mu^a; multiplies the twist by class(a)."""
    if a.is_zero():
        raise ZeroElement("cannot twist by zero")
    return GenuineZCharacter(mu.twist * square_class(a))


def f_image_classes(E: LocalField) -> tuple:
    """Image of F* E*^2 in E*/E*^2, as a sorted tuple of classes.

    Always a subgroup containing the identity; for every quadratic E/F at
    odd p it has order 2 (one base-field class becomes a square upstairs).
    """
    if not E.is_extension:
        raise BaseFieldInput("image computation needs a quadratic extension")
    keys = set()
    for rep in square_class_reps(E.base()):
        keys.add(square_class(embed_base(rep.rep, E)).key)
    return tuple(SquareClass(E, k) for k in sorted(keys))


def index_FEsq(E: LocalField) -> int:
    """The index [E* : F* E*^2] = 4 / |image of F*|."""
    return 4 // len(f_image_classes(E))


def count_agreeing_extensions(E: LocalField) -> int:
    """Number of classes pairing trivially with every base-field element.

    Counts a in E*/E*^2 with (a, f) = +1 for all four base-field class
    representatives f; this is the number of genuine central characters
    that agree with a given character on F*, and it equals index_FEsq(E).
    """
    if not E.is_extension:
        raise BaseFieldInput("agreement count needs a quadratic extension")
    f_keys = [c.key for c in f_image_classes(E)]
    count = 0
    for a in square_class_reps(E):
        if all(pair_class_keys(E, a.key, fk) == 1 for fk in f_keys):
            count += 1
    return count
