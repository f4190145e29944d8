"""Independent reference implementations the test suite trusts.

Everything here recomputes a quantity by direct enumeration or by a
textbook formula sharing no code with the package internals: nothing is
imported from ``kubota_meta``, and package objects passed in are read
only through their public coordinates (``.a``, ``.b``, ``entries()``,
``field.p``, ``.kind``, ``.d``).  Elements of Q_p(sqrt d) are handled as
pairs (a, b) of ``Fraction`` meaning a + b sqrt(d).  Frozen expected
values in the tests trace back to something simpler than the code under
test.
"""

import cmath
from fractions import Fraction
from functools import lru_cache
from math import gcd


def vp_int(n: int, p: int) -> int:
    assert n != 0
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def vp(x: Fraction, p: int) -> int:
    return vp_int(x.numerator, p) - vp_int(x.denominator, p)


def unit_residue(x: Fraction, p: int) -> int:
    """(x / p^v(x)) mod p as an integer in [1, p)."""
    v = vp(x, p)
    num = x.numerator // p ** max(v, 0)
    den = x.denominator // p ** max(-v, 0)
    return num * pow(den, -1, p) % p


def legendre_enum(a: int, p: int) -> int:
    """Legendre symbol by listing squares mod p; a must be prime to p."""
    a %= p
    assert a, "unit residue required"
    squares = {x * x % p for x in range(1, p)}
    return 1 if a in squares else -1


@lru_cache(maxsize=None)
def residue_squares(p: int, dbar: int = None) -> frozenset:
    """Nonzero squares of F_p, or of F_p(sqrt(dbar)) as pairs (r0, r1)."""
    if dbar is None:
        return frozenset(x * x % p for x in range(1, p))
    return frozenset(((x0 * x0 + x1 * x1 * dbar) % p, 2 * x0 * x1 % p)
                     for x0 in range(p) for x1 in range(p) if x0 or x1)


def hilbert_classical(a: Fraction, b: Fraction, p: int) -> int:
    """Tame symbol over Q_p, odd p: write a = p^m u, b = p^n v, then
    (a, b) = leg(-1)^(mn) leg(u)^n leg(v)^m with leg the Legendre symbol
    of the unit residues."""
    m, n = vp(a, p), vp(b, p)
    sign = 1
    if m * n % 2:
        sign *= legendre_enum(-1, p)
    if n % 2:
        sign *= legendre_enum(unit_residue(a, p), p)
    if m % 2:
        sign *= legendre_enum(unit_residue(b, p), p)
    return sign


def coord_mul(x: tuple, y: tuple, d: Fraction) -> tuple:
    """(a1 + b1 sqrt d)(a2 + b2 sqrt d) on Fraction coordinate pairs."""
    (a1, b1), (a2, b2) = x, y
    return (a1 * a2 + d * b1 * b2, a1 * b2 + b1 * a2)


def coord_div(x: tuple, y: tuple, d: Fraction) -> tuple:
    """x / y: x times the conjugate of y over the norm a^2 - d b^2."""
    a, b = y
    n = a * a - d * b * b
    return coord_mul(x, (a / n, -b / n), d)


def coord_det(m: tuple, d: Fraction) -> tuple:
    """The determinant of a 2x2 matrix of four pairs, row by row."""
    (p0, p1), (q0, q1) = coord_mul(m[0], m[3], d), coord_mul(m[1], m[2], d)
    return (p0 - q0, p1 - q1)


def mat_mul(x: tuple, y: tuple, d: Fraction) -> tuple:
    """Product of 2x2 matrices given as four (a, b) Fraction pairs each,
    row by row: entry (a, b) stands for a + b sqrt d."""
    def entry(i, j):
        (p0, p1), (q0, q1) = (coord_mul(x[2 * i + k], y[2 * k + j], d) for k in (0, 1))
        return (p0 + q0, p1 + q1)
    return (entry(0, 0), entry(0, 1), entry(1, 0), entry(1, 1))


def coords(g) -> tuple:
    """The entries of a matrix as four Fraction pairs, row by row."""
    return tuple((x.a, x.b) for x in g.entries())


def content_reduced(q: tuple) -> tuple:
    """The ints q divided by their plain gcd, with no seed."""
    g = gcd(*q)
    return tuple(n // g for n in q)


# ---------------------------------------------------------------------------
# the tame symbol and the cocycle on coordinates


def valuation_residue(x: tuple, field) -> tuple:
    """(v(x), (r0, r1)) for a nonzero pair x: the normalized valuation and
    the residue of x / pi^v, with pi = p, or pi = sqrt(d) on a ramified
    field (d = p u).  There x = a + b sqrt(d) has v = min(2 v_p(a),
    2 v_p(b) + 1), and x / pi^v leaves a / d^k or b / d^k as the residue."""
    p = field.p
    if field.kind == "ram":
        # v(a) = 2 v_p(a) and v(b sqrt d) = 2 v_p(b) + 1 have opposite parity
        v, c = min((2 * vp(t, p) + i, t) for i, t in enumerate(x) if t)
        return v, (unit_residue(c / field.d ** (v // 2), p), 0)
    v = min(vp(t, p) for t in x if t)
    s = Fraction(p) ** v
    return v, tuple(unit_residue(t / s, p) if t and vp(t, p) == v else 0 for t in x)


def residue_is_square(r: tuple, field) -> bool:
    """Whether the nonzero residue r0 + r1 sqrt(dbar) is a square, by
    listing the squares of F_p or F_p^2."""
    p = field.p
    if field.kind == "unram":
        return (r[0] % p, r[1] % p) in residue_squares(p, unit_residue(field.d, p))
    return r[0] % p in residue_squares(p)


def tame_symbol(x: tuple, y: tuple, field) -> int:
    """(x, y) = chi(-1)^(mn) chi(u)^n chi(w)^m for x = pi^m u, y = pi^n w,
    chi the quadratic character of the residue field."""
    m, u = valuation_residue(x, field)
    n, w = valuation_residue(y, field)
    chi = lambda r: 1 if residue_is_square(r, field) else -1
    sign = chi((-1, 0)) if m * n % 2 else 1
    if n % 2:
        sign *= chi(u)
    if m % 2:
        sign *= chi(w)
    return sign


ZERO = (Fraction(0), Fraction(0))


def _x(m: tuple) -> tuple:
    """c when c != 0, else d."""
    return m[2] if m[2] != ZERO else m[3]


def beta_sl2_literal(h1: tuple, h2: tuple, field) -> int:
    """Kubota's SL2 cocycle (x1, x2) (-x2 / x1, x12) on two matrices of
    determinant 1, given as four Fraction pairs each."""
    d = field.d
    x1, x2, x12 = _x(h1), _x(h2), _x(mat_mul(h1, h2, d))
    minus = coord_div((-x2[0], -x2[1]), x1, d)
    return tame_symbol(x1, x2, field) * tame_symbol(minus, x12, field)


def beta_literal(g1, g2) -> int:
    """beta(g1, g2) = beta_sl2(p(g1)^(det g2), p(g2)) v(det g2, p(g1)),
    composed on Fraction coordinates with p(g) = diag(1, det g)^(-1) g,
    g^y = diag(1, y)^(-1) g diag(1, y) and v(y, h) = (y, d) when c = 0."""
    field = g1.field
    d = field.d

    def p_part(g):
        a, b, c, e = coords(g)
        det = coord_det((a, b, c, e), d)
        return (a, b, coord_div(c, det, d), coord_div(e, det, d))

    y = coord_det(coords(g2), d)
    a, b, c, e = p_part(g1)
    conj = (a, coord_mul(b, y, d), coord_div(c, y, d), e)
    sign = beta_sl2_literal(conj, p_part(g2), field)
    if c == ZERO:
        sign *= tame_symbol(y, e, field)
    return sign


def psi_exponent(field, c: tuple) -> Fraction:
    """The exponent of psi0(c) in [0, 1), c given as a Fraction pair (a, b):
    the p-power fractional part of a (base), 2a (unramified: the trace) or
    2b (ramified: the trace of c / sqrt(d))."""
    a, b = c
    x = {"base": a, "unram": 2 * a, "ram": 2 * b}[field.kind]
    p = field.p
    if x == 0 or vp(x, p) >= 0:
        return Fraction(0)
    M = p ** -vp(x, p)
    # x M has a denominator prime to p, and x - r / M is p-integral for the
    # residue r of x M mod M
    y = x * M
    return Fraction(y.numerator * pow(y.denominator, -1, M) % M, M)


def integral_points(field, k: int):
    """Representatives of the integers modulo the k-th uniformizer power."""
    p = field.p
    if not field.is_extension:
        for y in range(p ** k):
            yield field.elt(y)
        return
    if field.kind == "unram":
        r0, r1 = p ** k, p ** k
    else:
        r0, r1 = p ** ((k + 1) // 2), p ** (k // 2)
    for y0 in range(r0):
        for y1 in range(r1):
            yield field.elt(y0, y1)


def root_value(root) -> complex:
    """A root of unity exp(2 pi i e) as a complex number."""
    return cmath.exp(2j * cmath.pi * float(root.exponent))


def gauss_sum_brute(psi, a, k: int) -> complex:
    """Direct term-by-term character sum over O mod pi^k of
    psi(a y^2) = psi0(scale a y^2)."""
    field = psi.field
    d = field.d
    c = coord_mul((psi.scale.a, psi.scale.b), (a.a, a.b), d)
    total = 0j
    for y in integral_points(field, k):
        y = (y.a, y.b)
        e = psi_exponent(field, coord_mul(c, coord_mul(y, y, d), d))
        total += cmath.exp(2j * cmath.pi * float(e))
    return total


def weil_index_classical(psi, a, n: int) -> complex:
    """The classical Weil index of x -> psi(a x^2) for integral a: the sum
    over x in pi^-n O / pi^n O, normalized to modulus one.  With
    x = y / pi^n, y runs over O mod pi^(2n)."""
    total = gauss_sum_brute(psi, a * psi.field.uniformizer ** (-2 * n), 2 * n)
    return total / abs(total)


def splitmix64(seed: int, n: int) -> list:
    """The first n outputs of SplitMix64 (Steele, Lea and Flood, 2014) from
    ``seed``, one at a time as the published loop computes them, each as
    (state after the output, output)."""
    mask = (1 << 64) - 1
    state = seed & mask
    out = []
    for _ in range(n):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        out.append((state, z ^ (z >> 31)))
    return out
