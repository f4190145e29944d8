"""Independent reference implementations the test suite trusts.

Everything here recomputes a quantity by direct enumeration or by a
textbook formula sharing no code with the package internals, so frozen
expected values in the tests trace back to something simpler than the
code under test.
"""

from fractions import Fraction
from math import gcd

from kubota_meta.kubota import Mat2, beta_sl2, conj_by_det, p_part, v_factor
from kubota_meta.weil import psi_eval


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


def residue_squares(p: int, dbar: int = None) -> set:
    """Nonzero squares of F_p, or of F_p(sqrt(dbar)) as pairs (r0, r1)."""
    if dbar is None:
        return {x * x % p for x in range(1, p)}
    sq = set()
    for x0 in range(p):
        for x1 in range(p):
            if x0 or x1:
                sq.add(((x0 * x0 + x1 * x1 * dbar) % p, 2 * x0 * x1 % p))
    return sq


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


def mat_mul(x: tuple, y: tuple, d: Fraction) -> tuple:
    """Product of 2x2 matrices given as four (a, b) Fraction pairs each,
    row by row: entry (a, b) stands for a + b sqrt d."""
    def entry(i, j):
        (p0, p1), (q0, q1) = (coord_mul(x[2 * i + k], y[2 * k + j], d) for k in (0, 1))
        return (p0 + q0, p1 + q1)
    return (entry(0, 0), entry(0, 1), entry(1, 0), entry(1, 1))


def content_reduced(q: tuple) -> tuple:
    """The ints q divided by their plain gcd, with no seed."""
    g = gcd(*q)
    return tuple(n // g for n in q)


def beta_literal(g1: Mat2, g2: Mat2) -> int:
    """The cocycle composed literally from the displayed maps, with full
    matrix products and no class-key shortcuts."""
    det2 = g2.det
    left = conj_by_det(p_part(g1), det2)
    return beta_sl2(left, p_part(g2)) * v_factor(det2, p_part(g1))


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


def gauss_sum_brute(psi, a, k: int) -> complex:
    """Direct term-by-term character sum over O mod pi^k."""
    total = 0j
    for y in integral_points(psi.field, k):
        total += psi_eval(psi, a * y * y).complex_value
    return total


def weil_index_classical(psi, a, n: int) -> complex:
    """The classical Weil index of x -> psi(a x^2) for integral a: the sum
    over x in pi^-n O / pi^n O, normalized to modulus one.  With
    x = y / pi^n, y runs over O mod pi^(2n)."""
    total = gauss_sum_brute(psi, a * psi.field.uniformizer ** (-2 * n), 2 * n)
    return total / abs(total)
