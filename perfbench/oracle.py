"""Reference arithmetic that shares no code with the package.

Elements of Q_p(sqrt d) are pairs (a, b) of ``Fraction`` meaning a + b*sqrt(d);
the field is described by (p, kind, d) with kind "base", "unram" or "ram"
and d normalized as the package's field specs normalize it (a non-square
unit for "unram", p times a unit for "ram").  Residue squares come from
enumerating k*k mod p, never from Euler's criterion.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from functools import lru_cache

# -- quadratic numbers and 2x2 matrices -----------------------------------


def q_mul(x, y, d):
    (a1, b1), (a2, b2) = x, y
    return (a1 * a2 + d * b1 * b2, a1 * b2 + b1 * a2)


def q_add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def q_sub(x, y):
    return (x[0] - y[0], x[1] - y[1])


def q_div(x, y, d):
    a, b = y
    n = a * a - d * b * b
    return q_mul(x, (a / n, -b / n), d)


def mat_mul(m1, m2, d):
    """Product of 2x2 matrices given as (a, b, c, d) tuples of pairs."""
    a1, b1, c1, d1 = m1
    a2, b2, c2, d2 = m2
    return (
        q_add(q_mul(a1, a2, d), q_mul(b1, c2, d)),
        q_add(q_mul(a1, b2, d), q_mul(b1, d2, d)),
        q_add(q_mul(c1, a2, d), q_mul(d1, c2, d)),
        q_add(q_mul(c1, b2, d), q_mul(d1, d2, d)),
    )


def mat_det(m, d):
    a, b, c, dd = m
    return q_sub(q_mul(a, dd, d), q_mul(b, c, d))


# -- valuations, residues, the tame symbol ---------------------------------


def vp(x: Fraction, p: int) -> int:
    v, n, m = 0, x.numerator, x.denominator
    while n % p == 0:
        n //= p
        v += 1
    while m % p == 0:
        m //= p
        v -= 1
    return v


def mod_p(x: Fraction, p: int) -> int:
    """Residue of a p-integral rational."""
    return x.numerator * pow(x.denominator, -1, p) % p


def valuation_residue(x, field):
    """(v(x), (r0, r1)): normalized valuation and the residue of x / pi^v,
    with pi = p for base and unramified fields and pi = sqrt(d) for ramified."""
    p, kind, d = field
    a, b = x
    if kind == "ram":
        u = d / p
        va = vp(a, p) if a else None
        vb = vp(b, p) if b else None
        if va is not None and (vb is None or 2 * va < 2 * vb + 1):
            k = va
            return 2 * k, (mod_p(a / Fraction(p) ** k / u ** k, p), 0)
        k = vb
        return 2 * k + 1, (mod_p(b / Fraction(p) ** k / u ** k, p), 0)
    v = min(vp(t, p) for t in (a, b) if t)
    s = Fraction(p) ** v
    return v, (mod_p(a / s, p), mod_p(b / s, p) if b else 0)


@lru_cache(maxsize=None)
def squares_mod(p: int) -> frozenset:
    return frozenset(k * k % p for k in range(1, p))


def residue_char(r, field) -> int:
    """Quadratic character of a nonzero residue; on F_{p^2} a residue is a
    square exactly when its norm r0^2 - d r1^2 is a square of F_p."""
    p, kind, d = field
    r0, r1 = r
    n = (r0 * r0 - mod_p(d, p) * r1 * r1) % p if kind == "unram" else r0 % p
    return 1 if n in squares_mod(p) else -1


def tame_symbol(x, y, field) -> int:
    """(x, y) = chi(-1)^(mn) chi(u_x)^n chi(u_y)^m for x = pi^m u_x, y = pi^n u_y."""
    p, kind, _ = field
    m, ux = valuation_residue(x, field)
    n, uy = valuation_residue(y, field)
    q = p * p if kind == "unram" else p
    sign = -1 if (m * n) % 2 and ((q - 1) // 2) % 2 else 1
    if n % 2:
        sign *= residue_char(ux, field)
    if m % 2:
        sign *= residue_char(uy, field)
    return sign


# -- the cocycle from its displayed maps -------------------------------------


def _x(m):
    return m[2] if m[2] != (0, 0) else m[3]


def beta_sl2(h1, h2, field):
    """(x1, x2) (-x2/x1, x12) with x = c, or d when c = 0."""
    d = field[2]
    x1, x2, x12 = _x(h1), _x(h2), _x(mat_mul(h1, h2, d))
    minus = q_sub((Fraction(0), Fraction(0)), q_div(x2, x1, d))
    return tame_symbol(x1, x2, field) * tame_symbol(minus, x12, field)


def beta(g1, g2, field):
    """beta(g1, g2) = beta_sl2(p(g1)^(det g2), p(g2)) v(det g2, p(g1)), with
    p(g) = diag(1, det g)^(-1) g and g^y = diag(1, y)^(-1) g diag(1, y)."""
    d = field[2]

    def p_part(g):
        det = mat_det(g, d)
        return (g[0], g[1], q_div(g[2], det, d), q_div(g[3], det, d))

    y = mat_det(g2, d)
    p1 = p_part(g1)
    conj = (p1[0], q_mul(p1[1], y, d), q_div(p1[2], y, d), p1[3])
    sign = beta_sl2(conj, p_part(g2), field)
    if p1[2] == (0, 0):
        sign *= tame_symbol(y, p1[3], field)
    return sign


# -- the reference character and term-by-term Gauss sums --------------------


def p_fraction(x: Fraction, p: int) -> Fraction:
    """The p-power-denominator rational in [0, 1) congruent to x mod Z_(p)."""
    m, den = 0, x.denominator
    while den % p == 0:
        den //= p
        m += 1
    M = p ** m
    return Fraction(x.numerator * pow(den, -1, M) % M, M) if m else Fraction(0)


def psi0_exponent(x, field) -> Fraction:
    """psi0(x) = exp(2 pi i e): e = {x}, {Tr x} or {Tr(x / sqrt d)} by kind."""
    p, kind, _ = field
    a, b = x
    if kind == "base":
        return p_fraction(a, p)
    return p_fraction(2 * (a if kind == "unram" else b), p)


def gauss_sum_terms(c, level: int, field) -> complex:
    """sum of psi0(c y^2) over a residue system of O / pi^level, term by term."""
    p, kind, d = field
    if kind == "base":
        n0, n1 = p ** level, 1
    elif kind == "unram":
        n0 = n1 = p ** level
    else:
        n0, n1 = p ** ((level + 1) // 2), p ** (level // 2)
    total = 0j
    for y0 in range(n0):
        for y1 in range(n1):
            y = (Fraction(y0), Fraction(y1))
            e = psi0_exponent(q_mul(c, q_mul(y, y, d), d), field)
            total += cmath.exp(2j * cmath.pi * float(e))
    return total
