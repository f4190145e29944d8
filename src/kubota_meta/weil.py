"""Additive characters as exact roots of unity, the eighth-root index
gamma(a, psi) from its exact table, and quadratic character sums.

Conventions
-----------
The reference character psi0 of each field has conductor exactly the ring
of integers:

* base:       psi0(x) = exp(2 pi i {x}_p), the p-power fractional part;
* unramified: psi0(x) = exp(2 pi i {Tr(x)}_p);
* ramified:   psi0(x) = exp(2 pi i {Tr(x / sqrt(d))}_p), the 1/sqrt(d)
  shift compensating for the nontrivial different.

gamma(a, psi0) is the Weil index with respect to x -> psi0(pi x), i.e.
(a, pi) times the classical normalized index of psi0 (Weil, Acta Math. 111,
1964; Ranga Rao, Pacific J. Math. 157, 1993): a unit gets the Euler sign of its
residue, and gamma(pi) = 1/N(S(1/pi)), where S(c) sums psi0(c y^2) over
O/pi^k and N(z) = z/|z|.  S(1/pi) is a residue-field Gauss sum, so over the
classes (1, u, pi, u*pi) the index is (0, 4, g, g) in eighths: on Q_p,
g = 0 or 6 as p = 1 or 3 mod 4 (1/N(G_p), G_p = sqrt(p) or i sqrt(p)); on
the unramified field, g = 4 or 0 likewise (1/N(-G_p^2), Hasse-Davenport); on a
ramified field, the base value plus 4 when 2 (d/p) is a non-square mod p,
since psi0(y^2 / sqrt(d)) = exp(2 pi i 2 y^2 / d) for rational y.  Then
gamma(a, psi_s) = (a, s) gamma(a, psi0), and the product relation

    gamma(a) gamma(b) = (a, b) gamma(ab)

holds on the nose.  Values of psi, gamma and chi_psi are all one exact
type, :class:`RootOfUnity`, stored as two ints n / M; as for field
elements, ``Fraction`` is only the API boundary (the constructor and
``.exponent``), and :func:`central_sign` divides two roots exactly on the
ints.  Complex numbers appear only in :func:`gauss_sum`, which computes
S(c) numerically to cross-check the table in the tests: it counts the
integer exponents over the residue grid and sums at most one ``cmath``
root per residue of the character's denominator.  The tests also check the
factor (a, pi) against the classical index summed term by term over
pi^-1 O / pi O.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import (
    FieldMismatch,
    LevelTooSmall,
    NotASign,
    ZeroElement,
)
from .hilbert import Sign, pair_class_keys
from .local_field import (
    FieldElement,
    LocalField,
    _is_qr,
    _strip,
    class_key,
    rational_mod,
    vp_fraction,
)

SNAP_TOLERANCE = 1e-9
DEFAULT_LEVEL = 2


# ---------------------------------------------------------------------------
# exact roots of unity


class RootOfUnity:
    """exp(2 pi i n / M), stored as two ints with 0 <= n < M and
    gcd(n, M) = 1; ``.exponent`` reads n / M back as a ``Fraction``."""

    __slots__ = ("_n", "_M")

    def __init__(self, exponent):
        e = Fraction(exponent)
        self._n = e.numerator % e.denominator
        self._M = e.denominator

    @property
    def exponent(self) -> Fraction:
        return Fraction(self._n, self._M)

    def __mul__(self, other: "RootOfUnity") -> "RootOfUnity":
        return _root(self._n * other._M + other._n * self._M, self._M * other._M)

    def __eq__(self, other) -> bool:
        if other.__class__ is not RootOfUnity:
            return NotImplemented
        return self._n == other._n and self._M == other._M

    def __hash__(self):
        return hash((self._n, self._M))

    def __repr__(self) -> str:
        return f"RootOfUnity(exponent={self.exponent!r})"

    def is_one(self) -> bool:
        return not self._n

    @property
    def eighths(self) -> int:
        """k with self = exp(2 pi i k / 8); ValueError unless self^8 = 1."""
        if 8 % self._M:
            raise ValueError(f"{self.exponent} is not a multiple of 1/8")
        return self._n * (8 // self._M)

    @property
    def label(self) -> str:
        return f"{self.eighths}/8"

    def as_sign(self) -> Sign:
        if self._M == 1:
            return 1
        if self._M == 2:
            return -1
        raise NotASign(f"exp(2 pi i {self.exponent}) is not +-1")


_new_root = object.__new__


def _root(n: int, M: int) -> RootOfUnity:
    """exp(2 pi i n / M) for ints n and M > 0, in lowest terms."""
    n %= M
    g = gcd(n, M)
    r = _new_root(RootOfUnity)
    r._n, r._M = n // g, M // g
    return r


# exp(pi i) = -1
MINUS_ONE_ROOT = _root(1, 2)


# ---------------------------------------------------------------------------
# additive characters


@dataclass(frozen=True)
class AdditiveChar:
    """psi_scale(x) := psi0(scale * x) for the field's reference psi0."""

    field: LocalField
    scale: FieldElement

    def __post_init__(self):
        if self.scale.field is not self.field:
            raise FieldMismatch("character scale must lie in the field")
        if self.scale.is_zero():
            raise ZeroElement("character scale must be nonzero")

    def scaled(self, a: FieldElement) -> "AdditiveChar":
        """The twist x -> psi(a x)."""
        return AdditiveChar(self.field, self.scale * a)


def standard_char(field: LocalField) -> AdditiveChar:
    """The reference character, conductor exactly the ring of integers."""
    return AdditiveChar(field, field.one())


def psi_eval(psi: AdditiveChar, x: FieldElement) -> RootOfUnity:
    """Evaluate the character exactly; x = 0 is allowed and gives 1.

    psi0(c) = exp(2 pi i n / D) for c = (A + B sqrt(d)) / D and n = A, 2A
    (the trace) or 2B (ramified: Tr(c / sqrt(d))); with D = p^m u, u prime
    to p, the p-power fractional part of n / D is (n / u mod p^m) / p^m.
    """
    if x.field is not psi.field:
        raise FieldMismatch("argument lies in a different field")
    c = psi.scale * x
    f = psi.field
    if f.kind == "base":
        n = c._A
    elif f.kind == "unram":
        n = 2 * c._A
    else:
        n = 2 * c._B
    m = _strip(c._D, f.p, *f._digit)[0]
    M = f.p ** m
    return _root(n * pow(c._D // M, -1, M), M)


# ---------------------------------------------------------------------------
# quadratic character sums


def _char_sum(psi: AdditiveChar, a: FieldElement, k: int) -> complex:
    """sum of psi(a y^2) over a complete residue system for O/pi^k.

    The exponent of each term is a quadratic form in the residue
    coordinates; its coefficients are reduced once modulo the p-power
    denominator M, so it depends on each coordinate only mod M.  A
    coordinate range n (a power of p) past M is therefore the M residues,
    each counted n / M times: the exponents are counted over the reduced
    grid, and at most M roots of unity are summed.
    """
    import cmath

    f = psi.field
    p = f.p
    c = psi.scale * a
    if f.kind == "base":
        coeffs = (c.a, Fraction(0), Fraction(0))
        n0, n1 = p ** k, 1
    elif f.kind == "unram":
        # residue system y0 + y1 sqrt(d), both coordinates mod p^k
        coeffs = (2 * c.a, 2 * c.a * f.d, 4 * c.b * f.d)
        n0 = n1 = p ** k
    else:
        # residue system with y0 mod p^ceil(k/2), y1 mod p^floor(k/2)
        coeffs = (2 * c.b, 2 * c.b * f.d, 4 * c.a)
        n0, n1 = p ** ((k + 1) // 2), p ** (k // 2)

    vals = [vp_fraction(t, p) for t in coeffs if t]
    m = max(0, -min(vals)) if vals else 0
    if m == 0:
        return complex(n0 * n1)
    M = p ** m
    r0, r1 = min(n0, M), min(n1, M)
    if r0 * r1 > 30_000_000:
        raise ValueError(f"residue grid at level {k} is too large to enumerate")
    A, B, C = (rational_mod(t * M, M) if t else 0 for t in coeffs)
    counts = Counter((A * y0 * y0 + B * y1 * y1 + C * y0 * y1) % M
                     for y0 in range(r0) for y1 in range(r1))
    weight = (n0 // r0) * (n1 // r1)
    return weight * sum(n * cmath.exp(2j * cmath.pi * e / M) for e, n in counts.items())


def gauss_sum(psi: AdditiveChar, a: FieldElement, level: int) -> complex:
    """Truncated sum of psi(a y^2) over O/pi^level, stability-checked.

    The normalized value (sum divided by its modulus) must agree at levels
    k and k+1 within 1e-9, else LevelTooSmall; a vanishing sum is reported
    the same way since it cannot be normalized.
    """
    if level < 1:
        raise LevelTooSmall("level must be at least 1")
    if a.field is not psi.field:
        raise FieldMismatch("argument lies in a different field")
    s0 = _char_sum(psi, a, level)
    s1 = _char_sum(psi, a, level + 1)
    m0, m1 = abs(s0), abs(s1)
    if m0 < SNAP_TOLERANCE or m1 < SNAP_TOLERANCE:
        raise LevelTooSmall("character sum vanishes at this level")
    if abs(s0 / m0 - s1 / m1) > SNAP_TOLERANCE:
        raise LevelTooSmall(
            f"normalized sum not stable between levels {level} and {level + 1}"
        )
    return s0


# ---------------------------------------------------------------------------
# the index


def _class_eighths(field: LocalField) -> tuple:
    """gamma(a, psi0) in eighths for the classes (1, u, pi, u*pi)."""
    p = field.p
    if field.kind == "unram":
        g = 4 if p % 4 == 1 else 0
    else:
        g = 0 if p % 4 == 1 else 6
        if field.kind == "ram" and not _is_qr(2 * field._d_unit, p):
            g = (g + 4) % 8
    return (0, 4, g, g)


def weil_index(a: FieldElement, psi: AdditiveChar) -> RootOfUnity:
    """gamma(a, psi): an eighth root of unity, constant on square classes.

    gamma(1, psi) = 1; for a unit u and the reference character, gamma is
    the Euler sign of u's residue; scaling the character twists the value
    by a Hilbert symbol, gamma(a, psi_s) = (a, s) gamma(a, psi).
    """
    if a.is_zero():
        raise ZeroElement("index of the zero form is undefined")
    if a.field is not psi.field:
        raise FieldMismatch("argument lies in a different field")
    key = class_key(a)
    eighths = _class_eighths(psi.field)[key]
    if pair_class_keys(psi.field, key, class_key(psi.scale)) == -1:
        eighths += 4
    return _root(eighths, 8)


def chi_psi_eval(z: FieldElement, eps: Sign, psi: AdditiveChar) -> RootOfUnity:
    """The genuine central character: chi_psi(z, eps) = eps * gamma(z, psi)."""
    if eps not in (1, -1):
        raise NotASign("eps must be +1 or -1")
    root = weil_index(z, psi)
    return root if eps == 1 else root * MINUS_ONE_ROOT


def central_sign(omega: RootOfUnity, psi: AdditiveChar) -> Sign:
    """The sign omega / chi_psi(-1, +1) of a central character value omega
    at -1; NotASign unless omega is an exact root within a sign of it.

    Twisting the representation by x multiplies the result by (x, -1).
    """
    if not isinstance(omega, RootOfUnity):
        raise NotASign(f"central character value {omega!r} is not an exact root of unity")
    ref = chi_psi_eval(psi.field.elt(-1), 1, psi)
    return _root(omega._n * ref._M - ref._n * omega._M, omega._M * ref._M).as_sign()
