"""Additive characters, quadratic Gauss sums, and the eighth-root index.

Frozen directions below were recomputed with oracles.gauss_sum_brute, a
term-by-term complex summation that never touches the reduced counting grid.
"""

import cmath
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from kubota_meta.errors import (
    FieldMismatch,
    LevelTooSmall,
    NotASign,
    ZeroElement,
)
from kubota_meta.hilbert import hilbert
from kubota_meta.kubota import Mat2, MetaElement, meta_mul
from kubota_meta.local_field import (
    LocalField,
    make_field,
    square_class_reps,
    unit_part,
)
from kubota_meta.parsing import parse_field_spec
from kubota_meta.weil import (
    DEFAULT_LEVEL,
    AdditiveChar,
    MINUS_ONE_ROOT,
    RootOfUnity,
    _char_sum,
    central_sign,
    chi_psi_eval,
    gauss_sum,
    psi_eval,
    standard_char,
    weil_index,
)
from oracles import (
    coord_mul,
    gauss_sum_brute,
    integral_points,
    legendre_enum,
    psi_exponent,
    residue_squares,
    root_value,
    unit_residue,
    weil_index_classical,
)

Q3 = make_field(3)
Q5 = make_field(5)
Q7 = make_field(7)
E5U = make_field(5, ("unram", 2))
E5R = make_field(5, ("ram", 5))
E3R = make_field(3, ("ram", 3))

FIELDS = [Q3, Q5, Q7, E5U, E5R, E3R]


# ---------------------------------------------------------------------------
# roots of unity


def test_root_of_unity_arithmetic():
    r = RootOfUnity(Fraction(1, 5))
    assert (r * r * r * r * r).is_one()
    assert not r.is_one()
    assert RootOfUnity(Fraction(7, 5)) == RootOfUnity(Fraction(2, 5))
    # check witnesses print roots in this form
    assert repr(r) == "RootOfUnity(exponent=Fraction(1, 5))"
    assert repr(RootOfUnity(Fraction(-9, 8))) == "RootOfUnity(exponent=Fraction(7, 8))"
    # an int exponent reads back as a Fraction too
    assert repr(RootOfUnity(3)) == "RootOfUnity(exponent=Fraction(0, 1))"


def test_eighth_root_arithmetic():
    i = RootOfUnity(Fraction(1, 4))
    assert i.eighths == 2
    assert i.label == "2/8"
    assert (i * i).label == "4/8"
    assert (i * i).as_sign() == -1
    assert i * i == MINUS_ONE_ROOT
    assert RootOfUnity(Fraction(0)).as_sign() == 1
    assert RootOfUnity(Fraction(-9, 8)).label == "7/8"
    with pytest.raises(NotASign):
        i.as_sign()
    with pytest.raises(ValueError):
        RootOfUnity(Fraction(1, 3)).eighths
    with pytest.raises(NotASign):
        RootOfUnity(Fraction(1, 3)).as_sign()


# denominators of the roots the package builds: eighths, and p-powers
ROOT_DENOMINATORS = (1, 2, 4, 8, 3, 9, 27, 5, 125, 7, 343, 13, 169)


def exponents():
    return st.builds(Fraction, st.integers(-10**6, 10**6), st.sampled_from(ROOT_DENOMINATORS))


@given(exponents(), exponents())
@example(Fraction(-9, 8), Fraction(17, 8))
@example(Fraction(5, 2), Fraction(-1, 2))
@example(Fraction(-250, 125), Fraction(0))
def test_int_root_matches_fraction_arithmetic(x, y):
    # the two ints n / M against the Fraction exponent they stand for
    r, s = RootOfUnity(x), RootOfUnity(y)
    e = x % 1
    assert type(r.exponent) is Fraction and r.exponent == e
    assert RootOfUnity(exponent=x).exponent == e
    assert (r == s) == (e == y % 1)
    if r == s:
        assert hash(r) == hash(s)
    assert r * s == RootOfUnity(x + y)
    assert (r * s).exponent == (x + y) % 1
    assert r.is_one() == (e == 0)
    assert repr(r) == f"RootOfUnity(exponent={e!r})"
    if (8 * e).denominator == 1:
        assert r.eighths == 8 * e
        assert r.label == f"{8 * e}/8"
    else:
        with pytest.raises(ValueError, match="not a multiple of 1/8"):
            r.eighths
        with pytest.raises(ValueError):
            r.label
    if e in (0, Fraction(1, 2)):
        assert r.as_sign() == (1 if e == 0 else -1)
    else:
        with pytest.raises(NotASign):
            r.as_sign()
    with pytest.raises(AttributeError):
        r.exponent = e


# ---------------------------------------------------------------------------
# additive characters


def test_additive_char_validation():
    with pytest.raises(ZeroElement):
        AdditiveChar(Q5, Q5.zero())
    with pytest.raises(FieldMismatch):
        AdditiveChar(Q5, Q3.elt(1))
    psi = standard_char(Q5)
    assert psi.scaled(Q5.elt(3)).scale == Q5.elt(3)
    with pytest.raises(FieldMismatch):
        psi_eval(psi, Q3.elt(1))


@pytest.mark.parametrize("field", FIELDS)
def test_reference_char_conductor_is_the_integer_ring(field):
    psi = standard_char(field)
    assert psi_eval(psi, field.zero()).is_one()
    for y in integral_points(field, 2):
        assert psi_eval(psi, y).is_one()
    assert not psi_eval(psi, field.uniformizer.inverse()).is_one()


@pytest.mark.parametrize("field", [Q5, E5U, E5R])
def test_psi_is_additive(field):
    psi = standard_char(field)
    pts = [field.elt(Fraction(1, field.p)), field.elt(2),
           field.uniformizer.inverse(), field.elt(Fraction(3, field.p ** 2))]
    if field.is_extension:
        pts.append(field.elt(Fraction(1, field.p), Fraction(2, field.p)))
    for x in pts:
        for y in pts:
            assert psi_eval(psi, x + y) == psi_eval(psi, x) * psi_eval(psi, y)


def test_psi_frozen_value():
    psi = standard_char(Q5)
    assert psi_eval(psi, Q5.elt(Fraction(1, 5))) == RootOfUnity(Fraction(1, 5))
    assert psi_eval(psi.scaled(Q5.elt(2)), Q5.elt(Fraction(1, 5))) == \
        RootOfUnity(Fraction(2, 5))


# psi_eval reads the stored ints; the oracle works on Fraction coordinates.
# Fields with a d that has a denominator, ramified d with a unit cofactor,
# and a 61-bit prime.
PSI_FIELDS = [parse_field_spec(spec) for spec in (
    "Qp(5)", "Qp(5)[unram:2]", "Qp(5)[unram:1/2]", "Qp(7)[ram:7]", "Qp(7)[ram:7/3]",
    f"Qp({2**61 - 1})")]


@st.composite
def scale_and_argument(draw):
    """A field, a nonzero scale s and an argument x, both as Fraction pairs;
    the p-power in a coordinate runs from p^-4 to p^3."""
    field = draw(st.sampled_from(PSI_FIELDS))
    rational = st.builds(lambda n, m, k: Fraction(n, m) * Fraction(field.p) ** k,
                         st.integers(-10**6, 10**6), st.integers(1, 10**6),
                         st.integers(-4, 3))
    zero = st.just(Fraction(0))
    pair = st.tuples(rational, rational if field.is_extension else zero)
    return field, draw(pair.filter(any)), draw(pair)


@example((PSI_FIELDS[2], (Fraction(3), Fraction(1)), (Fraction(1, 125), Fraction(2, 375))))
@example((PSI_FIELDS[4], (Fraction(1), Fraction(1, 7)), (Fraction(4, 343), Fraction(5, 7))))
@given(scale_and_argument())
def test_psi_eval_matches_the_fraction_oracle(case):
    field, s, x = case
    psi = standard_char(field).scaled(field.elt(*s))
    want = psi_exponent(field, coord_mul(s, x, field.d))
    assert psi_eval(psi, field.elt(*x)).exponent == want


# ---------------------------------------------------------------------------
# Gauss sums


def test_gauss_sum_frozen_classic_value():
    # sum of e(y^2/5) over y mod 5 is sqrt(5) since 5 = 1 mod 4
    g = gauss_sum(standard_char(Q5), Q5.elt(Fraction(1, 5)), 1)
    assert abs(g - 5 ** 0.5) < 1e-9


@pytest.mark.parametrize("field", [Q3, Q5, E5U, E5R])
def test_gauss_sum_matches_term_by_term_oracle(field):
    psi = standard_char(field)
    pi_inv = field.uniformizer.inverse()
    # at pi^-1 every coordinate range reaches the denominator M; at pi^-2 the
    # level-1 range is below it, and the sum there is too deep to be stable
    for c in square_class_reps(field):
        for a in (c.rep * pi_inv, c.rep * pi_inv ** 2):
            for level in (1, 2):
                want = gauss_sum_brute(psi, a, level)
                try:
                    got = gauss_sum(psi, a, level)
                except LevelTooSmall:
                    after = gauss_sum_brute(psi, a, level + 1)
                    assert abs(want / abs(want) - after / abs(after)) > 1e-9
                    got = _char_sum(psi, a, level)
                assert abs(got - want) < 1e-9


def test_gauss_sum_level_guards():
    psi = standard_char(Q5)
    with pytest.raises(LevelTooSmall):
        gauss_sum(psi, Q5.elt(Fraction(1, 5)), 0)
    # scale too deep for the truncation: direction not yet stable
    with pytest.raises(LevelTooSmall):
        gauss_sum(psi, Q5.elt(Fraction(1, 125)), 1)
    with pytest.raises(FieldMismatch):
        gauss_sum(psi, Q3.elt(1), 1)
    # the reduced grid of Q_p at pi^-1 is the p residues, here about 2^61
    p = 2**61 - 1
    big = make_field(p)
    with pytest.raises(ValueError, match="too large to enumerate"):
        gauss_sum(standard_char(big), big.elt(Fraction(1, p)), DEFAULT_LEVEL)


# ---------------------------------------------------------------------------
# the index


def test_weil_index_frozen_tables():
    tables = {
        Q3: ["0/8", "4/8", "6/8", "6/8"],
        Q5: ["0/8", "4/8", "0/8", "0/8"],
        Q7: ["0/8", "4/8", "6/8", "6/8"],
        E5U: ["0/8", "4/8", "4/8", "4/8"],
        E5R: ["0/8", "4/8", "4/8", "4/8"],
    }
    for field, expected in tables.items():
        psi = standard_char(field)
        got = [weil_index(c.rep, psi).label for c in square_class_reps(field)]
        assert got == expected, field.spec_string()


def test_weil_index_basic_properties():
    psi = standard_char(Q5)
    assert weil_index(Q5.one(), psi).label == "0/8"
    # constant on square classes
    assert weil_index(Q5.elt(2), psi) == weil_index(Q5.elt(18), psi)
    assert weil_index(Q5.elt(5), psi) == weil_index(Q5.elt(Fraction(5, 4)), psi)
    with pytest.raises(ZeroElement):
        weil_index(Q5.zero(), psi)
    with pytest.raises(FieldMismatch):
        weil_index(Q3.elt(1), psi)


@pytest.mark.parametrize("field", FIELDS)
def test_weil_index_of_units_is_the_euler_sign(field):
    psi = standard_char(field)
    for c in square_class_reps(field)[:2]:
        u = c.rep
        assert weil_index(u, psi).as_sign() == unit_part(u).euler_sign()


@pytest.mark.parametrize("field", FIELDS)
def test_product_relation_all_sixteen_pairs(field):
    # gamma(a) gamma(b) = gamma(ab) (a, b)
    psi = standard_char(field)
    reps = [c.rep for c in square_class_reps(field)]
    for a in reps:
        for b in reps:
            lhs = weil_index(a, psi) * weil_index(b, psi)
            rhs = weil_index(a * b, psi)
            if hilbert(a, b) == -1:
                rhs = rhs * MINUS_ONE_ROOT
            assert lhs == rhs


@pytest.mark.parametrize("field", [Q3, Q5, E5R])
def test_snapped_index_is_within_tolerance_of_the_raw_quotient(field):
    psi = standard_char(field)
    pi_inv = field.uniformizer.inverse()
    den = gauss_sum_brute(psi, pi_inv, 2)
    for c in square_class_reps(field):
        num = gauss_sum_brute(psi, c.rep * pi_inv, 2)
        q = (num / abs(num)) / (den / abs(den))
        assert abs(q - root_value(weil_index(c.rep, psi))) < 1e-9


def _primes(lo, hi):
    return [n for n in range(lo, hi) if all(n % q for q in range(2, n))]


def _snap(z: complex) -> int:
    """The k in 0..7 with z within 1e-9 of exp(2 pi i k / 8)."""
    (k,) = [k for k in range(8) if abs(z - cmath.exp(2j * cmath.pi * k / 8)) < 1e-9]
    return k


TABLE_SWEEP = (
    [make_field(p) for p in _primes(3, 60)]
    + [make_field(p, ("ram", p * u)) for p in _primes(3, 24)
       for u in range(1, 6) if u % p]
    + [make_field(7, ("ram", "7/3")), make_field(5, ("ram", "-5/3"))]
    + [make_field(p, ("unram", d)) for p, d in (
        (3, 2), (3, -1), (3, 5), (5, 2), (5, 3), (5, "1/2"),
        (7, 3), (7, -1), (7, 5))]
)


# fields whose residue grids were too large for the unreduced numpy grid;
# reduced mod the character's denominator, at most p^2 points are summed
PAST_GRID_LIMIT = [make_field(331), make_field(19, ("unram", 2)), make_field(100003)]


@pytest.mark.parametrize("field", TABLE_SWEEP + PAST_GRID_LIMIT, ids=LocalField.spec_string)
def test_index_table_is_the_snapped_gauss_sum_quotient(field):
    # gamma(a, psi0) = N(S(a-hat / pi)) / N(S(1 / pi)), computed numerically
    psi = standard_char(field)
    pi_inv = field.uniformizer.inverse()
    den = gauss_sum(psi, pi_inv, DEFAULT_LEVEL)
    for c in square_class_reps(field):
        num = gauss_sum(psi, c.rep * pi_inv, DEFAULT_LEVEL)
        q = (num / abs(num)) / (den / abs(den))
        assert weil_index(c.rep, psi).eighths == _snap(q), c.label


@pytest.mark.parametrize("field", TABLE_SWEEP, ids=LocalField.spec_string)
def test_index_is_the_pi_symbol_times_the_classical_index(field):
    # the convention: gamma(a, psi0) = (a, pi) gamma_classical(a, psi0)
    psi = standard_char(field)
    pi = field.uniformizer
    for c in square_class_reps(field):
        sign = 4 if hilbert(c.rep, pi) == -1 else 0
        want = (_snap(weil_index_classical(psi, c.rep, 1)) + sign) % 8
        assert weil_index(c.rep, psi).eighths == want, c.label


# level 2 sums over p^4 points per class on base and ramified fields and
# p^8 on unramified ones, so unramified p = 7 is left out
LEVEL_2_SWEEP = [f for f in TABLE_SWEEP
                 if f.p <= 5 and f.kind != "unram" or f.p == 3 and f.kind == "unram"]


@pytest.mark.parametrize("field", LEVEL_2_SWEEP, ids=LocalField.spec_string)
def test_classical_index_is_already_stable_at_level_1(field):
    psi = standard_char(field)
    for c in square_class_reps(field):
        level1 = weil_index_classical(psi, c.rep, 1)
        assert abs(weil_index_classical(psi, c.rep, 2) - level1) < 1e-9, c.label


@pytest.mark.parametrize("field", PAST_GRID_LIMIT, ids=LocalField.spec_string)
def test_index_past_the_grid_limit(field):
    psi = standard_char(field)
    units = [field.elt(n) for n in range(2, 12)]
    if field.kind == "unram":
        units += [field.elt(m, 1) for m in range(6)]
        squares = residue_squares(field.p, unit_residue(field.d, field.p))
    for u in units:
        r = unit_part(u)
        if field.kind == "unram":
            want = 1 if (r.r0, r.r1) in squares else -1
        else:
            want = legendre_enum(r.r0, field.p)
        assert weil_index(u, psi).as_sign() == want, u
    reps = [c.rep for c in square_class_reps(field)]
    for a in reps:
        for b in reps:
            rhs = weil_index(a * b, psi)
            if hilbert(a, b) == -1:
                rhs = rhs * MINUS_ONE_ROOT
            assert weil_index(a, psi) * weil_index(b, psi) == rhs
    if field.kind == "base":
        assert field.p % 4 == 3
        assert weil_index(field.elt(field.p), psi).label == "6/8"


def test_character_scaling_twists_by_a_symbol():
    # gamma(a, psi_s) = (a, s) gamma(a, psi)
    for field in (Q3, Q5, E5R):
        psi = standard_char(field)
        for s in [c.rep for c in square_class_reps(field)]:
            psi_s = psi.scaled(s)
            for a in [c.rep for c in square_class_reps(field)]:
                expected = weil_index(a, psi)
                if hilbert(a, s) == -1:
                    expected = expected * MINUS_ONE_ROOT
                assert weil_index(a, psi_s) == expected


# ---------------------------------------------------------------------------
# the genuine central character and its sign


def test_chi_psi_is_genuine():
    psi = standard_char(Q3)
    for z in (Q3.elt(2), Q3.elt(3), Q3.elt(-1)):
        plus = chi_psi_eval(z, 1, psi)
        minus = chi_psi_eval(z, -1, psi)
        assert minus == plus * MINUS_ONE_ROOT
    with pytest.raises(NotASign):
        chi_psi_eval(Q3.elt(2), 0, psi)


@pytest.mark.parametrize("field", [Q3, Q5, E5U, E5R])
def test_chi_psi_multiplicative_for_the_cover_law(field):
    # (diag(z1), e1)(diag(z2), e2) = (diag(z1 z2), e1 e2 (z1, z2))
    psi = standard_char(field)
    reps = [c.rep for c in square_class_reps(field)]
    for z1 in reps:
        for z2 in reps:
            for e1 in (1, -1):
                for e2 in (1, -1):
                    m = meta_mul(MetaElement(Mat2.diag(z1, z1), e1),
                                 MetaElement(Mat2.diag(z2, z2), e2))
                    assert m.g == Mat2.diag(z1 * z2, z1 * z2)
                    assert chi_psi_eval(z1 * z2, m.eps, psi) == \
                        chi_psi_eval(z1, e1, psi) * chi_psi_eval(z2, e2, psi)


def test_central_sign_comparison():
    psi = standard_char(Q3)
    ref = chi_psi_eval(Q3.elt(-1), 1, psi)
    assert central_sign(ref, psi) == 1
    assert central_sign(ref * MINUS_ONE_ROOT, psi) == -1
    for inexact in (0.5, root_value(ref), -root_value(ref)):
        with pytest.raises(NotASign):
            central_sign(inexact, psi)   # only an exact root compares
    with pytest.raises(NotASign):
        central_sign(ref * RootOfUnity(Fraction(1, 4)), psi)  # off by a quarter turn


def test_central_sign_twist_law():
    # twisting by x multiplies the sign by (x, -1)
    for field in (Q3, Q5, E5R):
        psi = standard_char(field)
        ref = chi_psi_eval(field.elt(-1), 1, psi)
        for c in square_class_reps(field):
            tw = hilbert(c.rep, field.elt(-1))
            omega = ref if tw == 1 else ref * MINUS_ONE_ROOT
            assert central_sign(omega, psi) == tw
