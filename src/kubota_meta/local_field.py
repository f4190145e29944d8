"""Exact arithmetic in Q_p and its quadratic extensions at odd p.

An element a + b*sqrt(d) is stored as three Python ints (A, B, D) with
a = A/D, b = B/D, D > 0 and gcd(A, B, D) = 1, so every arithmetic result
costs integer products and one gcd.  The rules of these ints are written
here for every module: ``_mul`` multiplies two pairs (A, B), scaled by the
denominator of d, and ``_divide`` divides pairs by P + Q*sqrt(d) over a
positive denominator (only ``kubota._product``, a hot loop, inlines
``_mul``).  The algebra is exact and float-free;
``Fraction`` is the API boundary: constructors take rationals and the
coordinates ``.a`` and ``.b`` read back as ``Fraction``.  The elements are
dense in the completed field, so valuations, residue reduction, norms, and
square classes are all computed without any precision management, from the
p-adic valuations of the three ints and one Euler power mod p; only
``unit_part``, which returns the residue itself, takes a modular inverse.

Fields come in three kinds:

* ``base``  - Q_p itself, residue field F_p, uniformizer p.
* ``unram`` - Q_p(sqrt(d)) with d a non-square unit; residue field F_{p^2},
  uniformizer still p.
* ``ram``   - Q_p(sqrt(d)) with v_p(d) odd (normalized to 1); residue field
  F_p, uniformizer sqrt(d).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

from .errors import (
    BaseFieldInput,
    DIsSquare,
    EvenResidueCharUnsupported,
    FieldMismatch,
    NotPrime,
    ZeroElement,
)

# ---------------------------------------------------------------------------
# rational helpers


# Miller-Rabin with the primes up to 41 as bases decides primality exactly
# below PRIME_BOUND (Sorenson and Webster, 2015); make_field refuses larger p
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_BOUND = 3_317_044_064_679_887_385_961_981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; past PRIME_BOUND a True is unproven."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    if n < 41 * 41:  # no prime factor up to 41
        return True
    t, s = n - 1, 0
    while t % 2 == 0:
        t, s = t // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, t, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def vp_int(n: int, p: int) -> int:
    """p-adic valuation of a nonzero integer."""
    if n == 0:
        raise ZeroElement("valuation of 0 is undefined")
    return _strip(n, p, *_digit_power(p))[0]


# CPython stores ints in 30-bit digits; a divisor below 2^30 is one digit,
# and n % P, n // P by it are single passes over n with no big temporaries
_DIGIT = 1 << 30


def _digit_power(p: int) -> tuple:
    """(P, K) with P = p^K the largest power of p below 2^30 (P = p past it)."""
    P, K = p, 1
    while P * p < _DIGIT:
        P, K = P * p, K + 1
    return P, K


def _strip(n: int, p: int, P: int, K: int) -> tuple:
    """(v_p(n), (n / p^v_p(n)) mod p) for a nonzero integer n, with
    (P, K) = _digit_power(p); the unit itself is never built."""
    v, r = 0, n % P
    # take out whole chunks P = p^K while r = n mod P is 0; after that
    # k = v_p(n) - v < K, and r / p^k = n / p^(v+k) mod p^(K-k) with
    # K - k >= 1, so the rest is read off the small r
    while not r:
        n //= P
        v += K
        r = n % P
    while r % p == 0:
        r //= p
        v += 1
    return v, r % p


def _is_qr(n: int, p: int) -> bool:
    """Euler's criterion: whether n is a nonzero square mod the odd prime p."""
    return pow(n, (p - 1) // 2, p) == 1


def vp_fraction(x: Fraction, p: int) -> int:
    """p-adic valuation of a nonzero rational."""
    if x == 0:
        raise ZeroElement("valuation of 0 is undefined")
    return vp_int(x.numerator, p) - vp_int(x.denominator, p)


def rational_mod(x, m: int) -> int:
    """Reduce a p-integral rational mod m (m a power of p).

    The denominator must be coprime to m; that holds exactly when the
    rational has nonnegative p-adic valuation, which is the only situation
    this helper is used in.
    """
    if isinstance(x, int):
        return x % m
    return x.numerator * pow(x.denominator, -1, m) % m


# ---------------------------------------------------------------------------
# fields


@dataclass(frozen=True, eq=False)
class LocalField:
    """Descriptor of Q_p or a quadratic extension Q_p(sqrt(d)), p odd.

    There is one instance per field: build it with :func:`make_field` or
    ``parse_field_spec``, which validate and normalize d and return the
    same descriptor for the same field, so a field equals only itself and
    "same field" is one ``is``.  The hash is by value all the same, over
    (p, d), which fix the kind: sets of square classes then iterate in an
    order that repeats from run to run, whatever ``PYTHONHASHSEED`` is.
    """

    p: int
    kind: str  # "base" | "unram" | "ram"
    d: Fraction  # 0 for base; non-square unit (unram); v_p(d) = 1 (ram)

    @property
    def is_extension(self) -> bool:
        return self.kind != "base"

    @property
    def residue_degree(self) -> int:
        return 2 if self.kind == "unram" else 1

    @property
    def ramification_index(self) -> int:
        return 2 if self.kind == "ram" else 1

    @property
    def residue_size(self) -> int:
        return self.p ** self.residue_degree

    @cached_property
    def dbar(self) -> int:
        """Residue of d mod p (unramified fields only)."""
        return rational_mod(self.d, self.p)

    @cached_property
    def _d_num(self) -> int:
        return self.d.numerator

    @cached_property
    def _d_den(self) -> int:
        return self.d.denominator

    @cached_property
    def _d_den_key(self) -> int:
        """Class key of dd = ``_d_den``, a factor of a product's denominator."""
        return _class_key(self, self._d_den, 0, 1)

    @cached_property
    def _digit(self) -> tuple:
        """:func:`_digit_power` of p, the chunk valuations strip by."""
        return _digit_power(self.p)

    @cached_property
    def _d_unit(self) -> int:
        """Residue of d/p mod p (ramified fields only): d = p * unit."""
        return rational_mod(self.d / self.p, self.p)

    def __hash__(self):
        return hash((self.p, self.d))

    @cached_property
    def _base(self) -> "LocalField":
        return self if self.kind == "base" else _field(self.p, "base", Fraction(0))

    def base(self) -> "LocalField":
        """The base field Q_p: the descriptor ``make_field(p)`` returns."""
        return self._base

    # -- element constructors ------------------------------------------------

    def elt(self, a, b=0) -> "FieldElement":
        return FieldElement(self, a, b)

    def zero(self) -> "FieldElement":
        return _reduced(self, 0, 0, 1)

    def one(self) -> "FieldElement":
        return _reduced(self, 1, 0, 1)

    @cached_property
    def uniformizer(self) -> "FieldElement":
        if self.kind == "ram":
            return self.elt(0, 1)
        return self.elt(self.p)

    @cached_property
    def nonsquare_unit(self) -> "FieldElement":
        """Canonical non-square unit u.

        Base and ramified fields: the smallest integer >= 2 that is a
        non-square unit mod p.  Unramified fields: sqrt(d) itself when it is
        a non-square (exactly the case p = 1 mod 4); otherwise the smallest
        m >= 1 with m + sqrt(d) a non-square.  Such an m always exists: the
        norms m^2 - d hit more residues than F_p has squares.
        """
        if self.kind == "unram":
            if self.p % 4 == 1:
                return self.elt(0, 1)
            m = 1
            while True:
                cand = self.elt(m, 1)
                if not is_square(cand):
                    return cand
                m += 1
        n = 2
        while n % self.p == 0 or _is_qr(n, self.p):
            n += 1
        return self.elt(n)

    @cached_property
    def _rep_elements(self) -> tuple:
        """Canonical square-class representatives, indexed by class key."""
        u = self.nonsquare_unit
        pi = self.uniformizer
        return (self.one(), u, pi, u * pi)

    @cached_property
    def minus_one_is_square(self) -> bool:
        # residue field F_{p^2} always contains i; F_p does iff p = 1 mod 4
        return True if self.kind == "unram" else self.p % 4 == 1

    @cached_property
    def minus_one_key(self) -> int:
        """:func:`class_key` of -1: a unit, so 0 or 1."""
        return 0 if self.minus_one_is_square else 1

    # -- formatting -----------------------------------------------------------

    def spec_string(self) -> str:
        if self.kind == "base":
            return f"Qp({self.p})"
        return f"Qp({self.p})[{self.kind}:{self.d}]"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LocalField({self.spec_string()})"


# the interned descriptors; a plain dict, not a functools cache, which a
# cache_clear() between two passes would split into two Q_5s
_FIELDS: dict = {}


def _field(p: int, kind: str, d: Fraction) -> LocalField:
    """The one descriptor of the field (p, kind, d), d normalized."""
    f = _FIELDS.get((p, kind, d))
    if f is None:
        f = _FIELDS[p, kind, d] = LocalField(p, kind, d)
    return f


def make_field(p: int, ext_spec="base") -> LocalField:
    """Validate a field and return its one descriptor.

    ``ext_spec`` is ``"base"`` (or None) for Q_p, or a pair
    ``("unram", d)`` / ``("ram", d)`` with d an integer, Fraction, or
    string rational.  d is normalized: even powers of p are stripped, so a
    ramified d ends up with v_p(d) = 1 and an unramified d becomes a unit.
    p must be an odd prime below PRIME_BOUND.  Specs that normalize to the
    same (p, kind, d) give the same object.
    """
    if not isinstance(p, int) or not _is_prime(p):
        raise NotPrime(f"{p!r} is not a prime")
    if p >= PRIME_BOUND:
        raise ValueError(f"p = {p} is not below {PRIME_BOUND}, where primality is proven")
    if p == 2:
        raise EvenResidueCharUnsupported("p = 2 is not supported")

    if ext_spec in (None, "base"):
        return _field(p, "base", Fraction(0))
    try:
        kind, d_raw = ext_spec
    except (TypeError, ValueError):
        raise ValueError(f"bad extension descriptor {ext_spec!r}") from None
    if kind not in ("unram", "ram"):
        raise ValueError(f"bad extension kind {kind!r}")
    d = Fraction(d_raw)
    if d == 0:
        raise DIsSquare("d = 0 adjoins no root")
    v = vp_fraction(d, p)

    if kind == "unram":
        if v % 2 != 0:
            raise ValueError(
                f"d = {d} has odd p-valuation and describes a ramified extension"
            )
        d = d * Fraction(p) ** (-v)
        if _is_qr(rational_mod(d, p), p):
            raise DIsSquare(f"d = {d} is a square in Q_{p}")
        return _field(p, "unram", d)

    if v % 2 == 0:
        unit = d * Fraction(p) ** (-v)
        if _is_qr(rational_mod(unit, p), p):
            raise DIsSquare(f"d = {d} is a square in Q_{p}")
        raise ValueError(
            f"d = {d} has even p-valuation and describes an unramified extension"
        )
    d = d * Fraction(p) ** (-(v - 1))
    return _field(p, "ram", d)


# ---------------------------------------------------------------------------
# elements


class FieldElement:
    """An element a + b*sqrt(d) of a :class:`LocalField`, stored exactly.

    The storage is three ints (A, B, D) with a = A/D, b = B/D, D > 0 and
    gcd(A, B, D) = 1, so equal elements have equal triples.  The
    constructor takes rationals (int, ``Fraction``, or anything
    ``Fraction`` accepts); ``.a`` and ``.b`` return ``Fraction``.
    """

    __slots__ = ("field", "_A", "_B", "_D")

    def __init__(self, field: LocalField, a, b=0):
        if type(a) is int and type(b) is int:
            A, B, D = a, b, 1
        else:
            a = a if type(a) is Fraction else Fraction(a)
            b = b if type(b) is Fraction else Fraction(b)
            # with a and b in lowest terms, the common denominator leaves
            # gcd(A, B, D) = 1
            D = lcm(a.denominator, b.denominator)
            A = a.numerator * (D // a.denominator)
            B = b.numerator * (D // b.denominator)
        if B and not field.is_extension:
            raise FieldMismatch("base-field element cannot have a sqrt(d) part")
        self.field = field
        self._A, self._B, self._D = A, B, D

    @classmethod
    def from_ints(cls, field: LocalField, A: int, B: int, D: int) -> "FieldElement":
        """The element (A + B*sqrt(d)) / D for integers A, B and D != 0."""
        if not D:
            raise ZeroElement("denominator must be nonzero")
        if B and not field.is_extension:
            raise FieldMismatch("base-field element cannot have a sqrt(d) part")
        if D < 0:
            A, B, D = -A, -B, -D
        return _reduced(field, A, B, D)

    @property
    def a(self) -> Fraction:
        return Fraction(self._A, self._D)

    @property
    def b(self) -> Fraction:
        return Fraction(self._B, self._D)

    # -- plumbing -------------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.field is self.field:
                return other
            raise FieldMismatch(
                f"{other.field.spec_string()} element used in {self.field.spec_string()}"
            )
        if isinstance(other, (int, Fraction)):
            return FieldElement(self.field, other)
        return None

    def is_zero(self) -> bool:
        return not self._A and not self._B

    def __bool__(self) -> bool:
        return bool(self._A or self._B)

    def __eq__(self, other) -> bool:
        if isinstance(other, FieldElement):
            return (
                self.field is other.field
                and self._A == other._A
                and self._B == other._B
                and self._D == other._D
            )
        if isinstance(other, (int, Fraction)):
            return (
                not self._B
                and self._A * other.denominator == other.numerator * self._D
            )
        return NotImplemented

    def __hash__(self):
        # a rational element equals its int or Fraction, so it hashes as one
        if not self._B:
            return hash(Fraction(self._A, self._D))
        return hash((self.field, self._A, self._B, self._D))

    def __repr__(self) -> str:
        return format_element(self)

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        D1, D2 = self._D, o._D
        return _reduced(
            self.field,
            self._A * D2 + o._A * D1,
            self._B * D2 + o._B * D1,
            D1 * D2,
        )

    __radd__ = __add__

    def __neg__(self):
        return _reduced(self.field, -self._A, -self._B, self._D)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        D1, D2 = self._D, o._D
        return _reduced(
            self.field,
            self._A * D2 - o._A * D1,
            self._B * D2 - o._B * D1,
            D1 * D2,
        )

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        f = self.field
        A, B = _mul(f, self._A, self._B, o._A, o._B)
        return _reduced(f, A, B, self._D * o._D * f._d_den)

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        if not (self._A or self._B):
            raise ZeroElement("division by zero")
        n, (X, Y) = _divide(self.field, self._A, self._B, ((self._D, 0),))
        return _reduced(self.field, X, Y, n)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, n: int) -> "FieldElement":
        if n < 0:
            return self.inverse() ** (-n)
        result = self.field.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def conj(self) -> "FieldElement":
        """Galois conjugate a - b*sqrt(d) (identity on the base field)."""
        return _reduced(self.field, self._A, -self._B, self._D)


_new_element = object.__new__


def _reduced(field: LocalField, A: int, B: int, D: int) -> FieldElement:
    """Build (A + B*sqrt(d)) / D in lowest terms; D must be positive."""
    g = gcd(A, B, D)
    if g != 1:
        A //= g
        B //= g
        D //= g
    x = _new_element(FieldElement)
    x.field = field
    x._A, x._B, x._D = A, B, D
    return x


def _mul(f: LocalField, A1: int, B1: int, A2: int, B2: int) -> tuple:
    """dd * (A1 + B1 sqrt(d)) (A2 + B2 sqrt(d)) as an int pair, d = dn/dd:
    the factor dd keeps the sqrt(d)^2 term integral."""
    dd = f._d_den
    return (dd * A1 * A2 + f._d_num * B1 * B2, dd * (A1 * B2 + B1 * A2))


def _divide(f: LocalField, P: int, Q: int, pairs) -> tuple:
    """(n, [X, Y, ...]) with n > 0 and (A + B sqrt(d)) / (P + Q sqrt(d)) =
    (X + Y sqrt(d)) / n for each (A, B) in ``pairs``; P + Q sqrt(d) != 0.
    g = gcd(P, Q) is taken out before the conjugate: on a base field n is
    then dd |P|, not dd P^2."""
    g = gcd(P, Q)
    P, Q = P // g, Q // g
    n = _mul(f, P, Q, P, -Q)[0] * g
    out = []
    for A, B in pairs:
        out += _mul(f, A, B, P, -Q)
    if n < 0:
        return -n, [-X for X in out]
    return n, out


def format_element(x: FieldElement) -> str:
    """Canonical string form: ``a``, ``b*sqrt``, or ``a+b*sqrt``."""
    if not x.b:
        return str(x.a)
    if x.b == 1:
        root = "sqrt"
    elif x.b == -1:
        root = "-sqrt"
    else:
        root = f"{x.b}*sqrt"
    if not x.a:
        return root
    if x.b > 0:
        return f"{x.a}+{root}"
    return f"{x.a}{root}"


# ---------------------------------------------------------------------------
# residue field


class ResidueElement:
    """An element of the residue field F_p or F_{p^2} = F_p(sqrt(dbar)).

    Stored as a pair of integers mod p; r1 is identically 0 unless the
    field is unramified.  It equals an int congruent to it mod p, which no
    hash can agree with: ``hash(r) == hash(n)`` fails for such an int n.
    """

    __slots__ = ("field", "r0", "r1")

    def __init__(self, field: LocalField, r0: int, r1: int = 0):
        self.field = field
        self.r0 = r0 % field.p
        self.r1 = r1 % field.p

    def is_zero(self) -> bool:
        return self.r0 == 0 and self.r1 == 0

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return self.r0 == other % self.field.p and self.r1 == 0
        if not isinstance(other, ResidueElement):
            return NotImplemented
        return (
            self.field is other.field
            and self.r0 == other.r0
            and self.r1 == other.r1
        )

    def __hash__(self):
        return hash((self.field, self.r0, self.r1))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.r1 == 0:
            return f"{self.r0} (mod {self.field.p})"
        return f"{self.r0}+{self.r1}*sqrt ({self.field.spec_string()} residue)"

    def euler_sign(self) -> int:
        """+1 if this nonzero residue is a square, -1 otherwise."""
        if self.is_zero():
            raise ZeroElement("0 has no Euler sign")
        return 1 if _residue_is_square(self.field, self.r0, self.r1) else -1


def _residue_is_square(field: LocalField, r0: int, r1: int) -> bool:
    """Euler criterion for a nonzero residue r0 + r1*sqrt(dbar).

    On F_{p^2} the norm n = r0^2 - dbar r1^2 lies in F_p and
    x^((p^2-1)/2) = (x^(p+1))^((p-1)/2) = n^((p-1)/2), so one F_p power
    decides both residue fields.
    """
    n = r0 * r0 - field.dbar * r1 * r1 if field.kind == "unram" else r0
    return _is_qr(n, field.p)


# ---------------------------------------------------------------------------
# valuation, residue reduction, square classes


def _valuation_and_residue(f: LocalField, A: int, B: int, D: int) -> tuple:
    """(v(x), r0, r1, u) for x = (A + B*sqrt(d)) / D with D > 0: the
    valuation, and the residue of x * pi^(-v(x)) as (r0 + r1*sqrt(dbar)) / u
    with u a unit mod p, left undivided.

    The triple need not be in lowest terms: scaling A, B and D by one
    common factor leaves v and the residue unchanged.
    """
    if not (A or B):
        raise ZeroElement("valuation of 0 is undefined")
    p = f.p
    ram = f.kind == "ram"
    Du = D % p
    if Du and (A % p or B % p and not ram):
        # the common unit, nothing to strip: v = 0 and the residue is x mod p
        return 0, A % p, 0 if ram else B % p, Du
    P, K = f._digit
    vD = 0
    if not Du:
        vD, Du = _strip(D, p, P, K)
    if ram:
        # v(A + B*sqrt(d)) = min(2 v_p(A), 2 v_p(B) + 1); the two candidates
        # have opposite parity so the min is never a tie.  With d = p*w,
        # dividing by sqrt(d)^v leaves the sqrt(d) coordinate in the maximal
        # ideal, so the residue is one coordinate's unit over (D's unit) *
        # w^k; for k < 0 the w^-k goes on top, so no inverse is taken.
        if A:
            vA, Au = _strip(A, p, P, K)
        if B:
            vB, Bu = _strip(B, p, P, K)
        if A and (not B or vA <= vB):
            k = vA - vD
            v, unit = 2 * k, Au
        else:
            k = vB - vD
            v, unit = 2 * k + 1, Bu
        if k < 0:
            return v, unit * pow(f._d_unit, -k, p), 0, Du
        return v, unit, 0, Du * pow(f._d_unit, k, p)
    # base and unramified: pi = p, so v = min(v_p(A), v_p(B)) - v_p(D), and
    # a coordinate of higher valuation has residue 0
    m, a, b = None, 0, 0
    if A:
        m, a = _strip(A, p, P, K)
    if B:
        vB, b = _strip(B, p, P, K)
        if m is None or vB < m:
            m, a = vB, 0
        elif vB > m:
            b = 0
    return m - vD, a, b, Du


def valuation(x: FieldElement) -> int:
    """Normalized additive valuation (value group Z, uniformizer -> 1)."""
    return _valuation_and_residue(x.field, x._A, x._B, x._D)[0]


def unit_part(x: FieldElement) -> ResidueElement:
    """Residue of x * pi^(-v(x)) mod the maximal ideal; always nonzero."""
    _, r0, r1, u = _valuation_and_residue(x.field, x._A, x._B, x._D)
    inv = pow(u, -1, x.field.p)
    return ResidueElement(x.field, r0 * inv, r1 * inv)


def class_key(x: FieldElement) -> int:
    """Square-class invariant k = 2*(v mod 2) + (0 if the unit part is a
    square else 1), an int in 0..3.

    Bit 1 is the valuation parity and bit 0 the unit-part sign, so k is a
    group isomorphism E*/E*^2 -> (Z/2)^2 at odd p with XOR as the product:
    class_key(x*y) == class_key(x) ^ class_key(y).  k also indexes the
    canonical representatives (1, u, pi, u*pi), and it is the only data
    the Hilbert symbol ever consumes.
    """
    return _class_key(x.field, x._A, x._B, x._D)


def _class_key(f: LocalField, A: int, B: int, D: int) -> int:
    """:func:`class_key` of (A + B*sqrt(d)) / D, D > 0, in any terms.

    The residue (r0 + r1*sqrt(dbar)) / u is never divided out: on F_p it
    has the square class of r0 * u, and on F_{p^2} the unit u of F_p is a
    square, so the norm r0^2 - dbar r1^2 decides (see
    :func:`_residue_is_square`).
    """
    v, r0, r1, u = _valuation_and_residue(f, A, B, D)
    n = r0 * r0 - f.dbar * r1 * r1 if f.kind == "unram" else r0 * u
    return 2 * (v & 1) + (0 if _is_qr(n, f.p) else 1)


def is_square(x: FieldElement) -> bool:
    """Odd-p criterion: even valuation and unit part a residue square."""
    return class_key(x) == 0


@dataclass(frozen=True)
class SquareClass:
    """A coset of E*^2 in E*, identified by its :func:`class_key`."""

    field: LocalField
    key: int

    @property
    def rep(self) -> FieldElement:
        """Canonical representative, one of {1, u, pi, u*pi}."""
        return self.field._rep_elements[self.key]

    @property
    def label(self) -> str:
        return format_element(self.rep)

    def __mul__(self, other: "SquareClass") -> "SquareClass":
        if self.field is not other.field:
            raise FieldMismatch("square classes of different fields")
        return SquareClass(self.field, self.key ^ other.key)

    def __repr__(self) -> str:
        return f"[{self.label}]"


def square_class(x: FieldElement) -> SquareClass:
    return SquareClass(x.field, class_key(x))


def square_class_reps(field: LocalField) -> tuple:
    """The four classes in canonical order (1, u, pi, u*pi): keys 0..3."""
    return tuple(SquareClass(field, k) for k in range(4))


# ---------------------------------------------------------------------------
# maps between E and F


def norm(x: FieldElement) -> FieldElement:
    """Norm down to the base field: N(a + b*sqrt(d)) = a^2 - d b^2."""
    f = x.field
    if not f.is_extension:
        raise BaseFieldInput("norm requires a quadratic extension")
    # N((A + B sqrt d) / D) = dd (A^2 - d B^2) / (dd D^2)
    n = _mul(f, x._A, x._B, x._A, -x._B)[0]
    return _reduced(f.base(), n, 0, f._d_den * x._D * x._D)


def trace(x: FieldElement) -> FieldElement:
    """Trace down to the base field: Tr(a + b*sqrt(d)) = 2a."""
    f = x.field
    if not f.is_extension:
        raise BaseFieldInput("trace requires a quadratic extension")
    return _reduced(f.base(), 2 * x._A, 0, x._D)


def embed_base(f_elt: FieldElement, E: LocalField) -> FieldElement:
    """Inclusion of the base field F into E, f -> f + 0*sqrt(d)."""
    if f_elt.field is E:
        return f_elt
    if f_elt.field is not E.base():
        raise FieldMismatch(
            f"{f_elt.field.spec_string()} does not embed in {E.spec_string()}"
        )
    return _reduced(E, f_elt._A, 0, f_elt._D)
