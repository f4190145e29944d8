"""Quadratic Hilbert symbol at odd residue characteristic.

One algorithm for every field kind, the tame formula: for nonzero x, y with
m = v(x), n = v(y), the element t = (-1)^(m n) x^n y^(-m) is a unit, and

    (x, y) = +1  iff  the residue of t is a square.

Because the symbol only depends on square classes, the implementation
evaluates the formula on class keys instead of forming t: with
x = pi^m u_x and y = pi^n u_y,

    (x, y) = s(-1)^(mn) * s(u_x)^n * s(u_y)^m,

where s is the residue Euler sign.  A class key is the int
k = 2*(m mod 2) + (0 if s(u) = 1 else 1), so bit 1 holds the valuation
parity, bit 0 the unit-part sign, and XOR of keys is the class product.
The exponent of -1 above is then three bit operations on two keys.  This
is an exact rewrite of the tame formula and is what keeps the cocycle
self-tests fast.
"""

from __future__ import annotations

from .errors import FieldMismatch
from .local_field import (
    FieldElement,
    LocalField,
    class_key,
    norm,
    square_class_reps,
)

Sign = int  # always +1 or -1


def pair_class_keys(field: LocalField, kx: int, ky: int) -> Sign:
    """Tame Hilbert symbol evaluated on two square-class keys."""
    # exponent parity of s(u_x)^n * s(u_y)^m * s(-1)^(mn): the first two
    # terms are the unit bit of one key times the parity bit of the other;
    # the third, the two parity bits, counts only when -1 has key 1
    e = ((kx & (ky >> 1)) ^ (ky & (kx >> 1))
         ^ ((kx & ky) >> 1 & field.minus_one_key))
    return -1 if e else 1


def hilbert(x: FieldElement, y: FieldElement) -> Sign:
    """Quadratic Hilbert symbol (x, y); bilinear, symmetric, +-1 valued."""
    if x.field is not y.field:
        raise FieldMismatch("Hilbert symbol needs both arguments in one field")
    return pair_class_keys(x.field, class_key(x), class_key(y))


def hilbert_via_norm(a: FieldElement, b: FieldElement) -> Sign:
    """(a, b)_E computed downstairs as (a, N(b))_F for a in F, b in E.

    Agreement with the direct symbol is a theorem, exercised by the
    self-test suites; this function always takes the norm route.
    """
    E = b.field
    if a.field is not E.base():
        raise FieldMismatch("first argument must lie in the base field")
    return hilbert(a, norm(b))


def pairing_table(field: LocalField):
    """4x4 symbol table over the canonical square-class representatives.

    Symmetric; the row of class 1 is all +1; every other row contains a -1
    (the pairing is nondegenerate).
    """
    reps = square_class_reps(field)
    return [
        [pair_class_keys(field, r.key, s.key) for s in reps] for r in reps
    ]
