"""Field constructors, exact arithmetic, valuations, and square classes.

Expected values for the square-criterion tests come from the residue
enumeration oracles in oracles.py, not from the code under test.
"""

import os
import random
import subprocess
import sys
from fractions import Fraction
from math import isqrt
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import kubota_meta
from kubota_meta.errors import (
    BaseFieldInput,
    DIsSquare,
    EvenResidueCharUnsupported,
    FieldMismatch,
    NotPrime,
    ZeroElement,
)
from kubota_meta.local_field import (
    PRIME_BOUND,
    FieldElement,
    LocalField,
    ResidueElement,
    SquareClass,
    _class_key,
    _is_prime,
    _valuation_and_residue,
    class_key,
    embed_base,
    format_element,
    is_square,
    make_field,
    norm,
    square_class,
    square_class_reps,
    trace,
    unit_part,
    valuation,
    vp_int,
)
from kubota_meta.hilbert import hilbert
from kubota_meta.kubota import Mat2
from kubota_meta.parsing import parse_field_spec
from kubota_meta.weil import psi_eval, standard_char
from oracles import (
    legendre_enum,
    psi_exponent,
    residue_is_square,
    residue_squares,
    unit_residue,
    valuation_residue,
    vp,
)
from oracles import vp_int as oracle_vp_int

Q3 = make_field(3)
Q5 = make_field(5)
Q7 = make_field(7)
E5U = make_field(5, ("unram", 2))   # Q5(sqrt 2)
E5R = make_field(5, ("ram", 5))     # Q5(sqrt 5)
E3U = make_field(3, ("unram", 2))
E3R = make_field(3, ("ram", 3))
E7R = make_field(7, ("ram", 7))

ALL_FIELDS = [Q3, Q5, Q7, E5U, E5R, E3U, E3R, E7R]

# normalized d with a denominator or a unit part other than 1
RATIONAL_D_FIELDS = [
    make_field(5, ("unram", Fraction(1, 2))),   # d = 1/2
    make_field(5, ("ram", 10)),                 # d = 5 * 2
    make_field(7, ("ram", Fraction(7, 3))),     # d = 7 * (1/3)
]


# ---------------------------------------------------------------------------
# constructor validation


@pytest.mark.parametrize(
    "p, ext, exc",
    [
        (4, "base", NotPrime),
        (1, "base", NotPrime),
        (-5, "base", NotPrime),
        (2, "base", EvenResidueCharUnsupported),
        (5, ("unram", 1), DIsSquare),
        (5, ("unram", 4), DIsSquare),
        (5, ("unram", 6), DIsSquare),      # 6 = 1 mod 5
        (5, ("unram", 0), DIsSquare),
        (5, ("ram", 25), DIsSquare),       # unit part 1 after stripping p^2
        (5, ("unram", 5), ValueError),     # odd valuation is ramified data
        (5, ("ram", 2), ValueError),       # even valuation is unramified data
        (5, ("ram", 50), ValueError),
        (5, ("bogus", 2), ValueError),
        (5, 17, ValueError),
        ((2**31 - 1) * (2**61 - 1), "base", NotPrime),
        (2**89 - 1, "base", ValueError),   # prime, but past PRIME_BOUND
        (PRIME_BOUND, "base", ValueError), # composite, passes every base
    ],
)
def test_make_field_rejects_bad_input(p, ext, exc):
    with pytest.raises(exc):
        make_field(p, ext)


def test_is_prime_matches_trial_division():
    def by_division(n):
        return n > 1 and all(n % q for q in range(2, isqrt(n) + 1))
    assert [n for n in range(10**5) if _is_prime(n)] == [
        n for n in range(10**5) if by_division(n)]
    for carmichael in (561, 41041, 825265):
        assert not _is_prime(carmichael)
    assert _is_prime(2**61 - 1)
    # a strong pseudoprime to every base up to 37: base 41 exposes it
    assert 318665857834031151167461 == 399165290221 * 798330580441
    assert not _is_prime(318665857834031151167461)


def test_make_field_normalizes_d():
    # even powers of p are stripped from d before classification
    assert make_field(5, ("ram", 125)).d == 5
    assert make_field(5, ("ram", 125)).spec_string() == "Qp(5)[ram:5]"
    assert make_field(5, ("unram", 50)).d == 2
    assert make_field(5, ("unram", Fraction(1, 2))).d == Fraction(1, 2)
    # 1/3 and 3 differ by the square 1/9
    assert make_field(3, ("ram", Fraction(1, 3))).d == 3


def test_field_shape_constants():
    for f in (Q3, Q5, Q7):
        assert (f.residue_degree, f.ramification_index) == (1, 1)
        assert f.residue_size == f.p
        assert not f.is_extension
    for f in (E5U, E3U):
        assert (f.residue_degree, f.ramification_index) == (2, 1)
        assert f.residue_size == f.p ** 2
    for f in (E5R, E3R, E7R):
        assert (f.residue_degree, f.ramification_index) == (1, 2)
        assert f.residue_size == f.p


def test_base_of_extension():
    assert E5U.base() is Q5
    assert E5R.base() is Q5
    assert Q5.base() is Q5
    # one descriptor per field, so its cached data is computed once
    assert E5U.base() is E5U.base()


def test_one_descriptor_per_field():
    assert make_field(5) is make_field(5)
    assert parse_field_spec("Qp(5)[ram:125]") is make_field(5, ("ram", 5))
    assert make_field(5, ("unram", "2")) is make_field(5, ("unram", Fraction(2)))
    for E in (make_field(5, ("unram", 2)), make_field(5, ("ram", 10)), make_field(5)):
        assert E.base() is make_field(E.p)


def test_elements_of_separately_parsed_fields_mix():
    E1, E2 = parse_field_spec("Qp(5)[unram:2]"), parse_field_spec("Qp(5)[unram:2]")
    x, y = E1.elt(1, 2), E2.elt(3, -1)
    assert x + y == E1.elt(4, 1)
    assert hilbert(x, y) == hilbert(E2.elt(1, 2), E1.elt(3, -1))
    g = Mat2.diag(x, E1.one()) @ Mat2.diag(E2.one(), y)
    assert g.det == x * y
    assert embed_base(parse_field_spec("Qp(5)").elt(3), E2) == E1.elt(3)


def test_a_directly_built_descriptor_is_another_field():
    # only make_field returns the field's descriptor; any other instance is
    # a different field, whatever its data
    stray = LocalField(5, "base", Fraction(0))
    assert stray != Q5
    assert stray.elt(1) != Q5.elt(1)
    with pytest.raises(FieldMismatch):
        stray.elt(1) + Q5.elt(1)
    with pytest.raises(FieldMismatch):
        embed_base(stray.elt(1), E5U)


SRC = Path(kubota_meta.__file__).resolve().parents[1]


def test_square_class_set_order_ignores_the_hash_seed():
    code = ("from kubota_meta.parsing import parse_field_spec\n"
            "from kubota_meta.local_field import square_class_reps\n"
            "for s in ('Qp(5)', 'Qp(5)[unram:2]', 'Qp(7)[ram:7]'):\n"
            "    print([c.key for c in frozenset(square_class_reps(parse_field_spec(s)))])\n")
    orders = set()
    for seed in range(5):
        env = {**os.environ, "PYTHONHASHSEED": str(seed), "PYTHONPATH": str(SRC)}
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=env, check=True)
        orders.add(proc.stdout)
    assert len(orders) == 1, orders


def test_base_field_element_cannot_carry_root():
    with pytest.raises(FieldMismatch):
        Q5.elt(1, 1)


# ---------------------------------------------------------------------------
# valuation and unit part


def test_valuation_frozen_examples():
    assert valuation(Q5.elt(50)) == 2
    assert valuation(Q5.elt(Fraction(1, 25))) == -2
    assert valuation(E5U.elt(10, 5)) == 1
    assert valuation(E5R.elt(0, 1)) == 1          # sqrt(5)
    assert valuation(E5R.elt(5)) == 2
    assert valuation(E5R.elt(10, 5)) == 2         # 10 + 5*sqrt(5)
    assert valuation(E3R.elt(0, Fraction(1, 3))) == -1


@pytest.mark.parametrize("p", [3, 5, 7, 13])
@given(
    n=st.integers(-10**6, 10**6).filter(bool),
    m=st.integers(1, 10**6),
    i=st.integers(0, 6),
    j=st.integers(0, 6),
)
def test_base_valuation_and_unit_part_match_oracles(p, n, m, i, j):
    x = Fraction(n * p ** i, m * p ** j)
    elt = make_field(p).elt(x)
    assert valuation(elt) == vp(x, p)
    assert unit_part(elt) == unit_residue(x, p)


def test_valuation_of_zero_is_undefined():
    for f in (Q5, E5U, E5R):
        with pytest.raises(ZeroElement):
            valuation(f.zero())
        with pytest.raises(ZeroElement):
            unit_part(f.zero())


def test_unit_part_frozen_examples():
    assert unit_part(Q5.elt(50)) == 2
    # (10 + 5*sqrt(5)) / sqrt(5)^2 = 2 + sqrt(5), residue 2
    assert unit_part(E5R.elt(10, 5)) == 2
    r = unit_part(E5U.elt(10, 5))
    assert (r.r0, r.r1) == (2, 1)


def test_uniformizer_has_valuation_one():
    for f in ALL_FIELDS:
        assert valuation(f.uniformizer) == 1
        assert valuation(f.uniformizer ** 3) == 3


@pytest.mark.parametrize("field", ALL_FIELDS)
def test_valuation_is_multiplicative_and_ultrametric(field):
    pts = [
        field.elt(1), field.elt(2), field.elt(-3), field.elt(field.p),
        field.elt(Fraction(1, field.p)), field.elt(field.p + 1),
    ]
    if field.is_extension:
        pts += [field.elt(0, 1), field.elt(1, 1), field.elt(field.p, 2),
                field.elt(Fraction(2, field.p), 3)]
    for x in pts:
        for y in pts:
            assert valuation(x * y) == valuation(x) + valuation(y)
            s = x + y
            if not s.is_zero():
                m = min(valuation(x), valuation(y))
                assert valuation(s) >= m
                if valuation(x) != valuation(y):
                    assert valuation(s) == m
            assert valuation(x.inverse()) == -valuation(x)


# ---------------------------------------------------------------------------
# element arithmetic


fractions_st = st.fractions(min_value=-50, max_value=50, max_denominator=30)


def elements_st(field):
    if field.is_extension:
        return st.builds(lambda a, b: field.elt(a, b), fractions_st, fractions_st)
    return st.builds(field.elt, fractions_st)


@given(x=elements_st(E5U), y=elements_st(E5U), z=elements_st(E5U))
def test_ring_axioms_sampled(x, y, z):
    assert (x + y) * z == x * z + y * z
    assert (x * y) * z == x * (y * z)
    assert x + y == y + x
    assert x - x == E5U.zero()
    assert x * E5U.one() == x


@given(x=elements_st(E5R))
def test_inverse_and_powers(x):
    if x.is_zero():
        with pytest.raises(ZeroElement):
            x.inverse()
        return
    assert x * x.inverse() == E5R.one()
    assert x ** 3 == x * x * x
    assert x ** -2 == (x * x).inverse()
    assert x ** 0 == E5R.one()


def _residue(t: Fraction, p: int) -> int:
    """Residue mod p of a p-integral rational."""
    return unit_residue(t, p) if t and vp(t, p) == 0 else 0


@pytest.mark.parametrize("field", RATIONAL_D_FIELDS, ids=lambda f: f.spec_string())
@given(a1=fractions_st, b1=fractions_st, a2=fractions_st, b2=fractions_st)
def test_arithmetic_with_rational_d_matches_coordinate_formulas(field, a1, b1, a2, b2):
    d = field.d
    x, y = field.elt(a1, b1), field.elt(a2, b2)
    z = x * y
    assert (z.a, z.b) == (a1 * a2 + d * b1 * b2, a1 * b2 + b1 * a2)
    s = x - y
    assert (s.a, s.b) == (a1 - a2, b1 - b2)
    assert norm(x) == field.base().elt(a1 * a1 - d * b1 * b1)
    assert trace(x) == field.base().elt(2 * a1)
    assert embed_base(norm(x), field) == x * x.conj()
    assert embed_base(trace(x), field) == x + x.conj()
    if x.is_zero():
        return
    n = a1 * a1 - d * b1 * b1
    inv = x.inverse()
    assert (inv.a, inv.b) == (a1 / n, -b1 / n)
    assert norm(x).inverse() == field.base().elt(1 / n)
    assert x * inv == field.one()
    assert x ** -2 == (x * x).inverse()


def _oracle_square_data(field, a: Fraction, b: Fraction) -> tuple:
    """(valuation, residue pair, is a square) of a + b sqrt(d) from the
    Fraction coordinates, by the oracles' valuations and residues."""
    p, d = field.p, field.d
    if field.kind != "ram":
        v = min(vp(t, p) for t in (a, b) if t)
        res = (_residue(a / Fraction(p) ** v, p), _residue(b / Fraction(p) ** v, p))
    else:
        # v(a + b sqrt d) = min(2 v(a), 2 v(b) + 1); divide by sqrt(d)^v
        v = min(2 * vp(t, p) + e for t, e in ((a, 0), (b, 1)) if t)
        res = (_residue((a if v % 2 == 0 else b) / d ** (v // 2), p), 0)
    if p > 100:
        # too many residues to list: Euler's criterion on the norm to F_p
        n = res[0] ** 2 - unit_residue(d, p) * res[1] ** 2 if field.kind == "unram" else res[0]
        square = pow(n, (p - 1) // 2, p) == 1
    elif field.kind == "unram":
        square = res in residue_squares(p, unit_residue(d, p))
    else:
        square = res[0] in residue_squares(p)
    return v, res, square


@pytest.mark.parametrize("field", RATIONAL_D_FIELDS, ids=lambda f: f.spec_string())
@given(a=fractions_st, b=fractions_st, i=st.integers(-3, 3), j=st.integers(-3, 3))
def test_square_class_data_with_rational_d_match_oracles(field, a, b, i, j):
    p = field.p
    a, b = a * Fraction(p) ** i, b * Fraction(p) ** j
    x = field.elt(a, b)
    if x.is_zero():
        return
    v, res, square = _oracle_square_data(field, a, b)
    assert valuation(x) == v
    r = unit_part(x)
    assert (r.r0, r.r1) == res
    assert class_key(x) == 2 * (v % 2) + (0 if square else 1)
    y = field.elt(b, a) if a else field.uniformizer
    assert class_key(x * y) == class_key(x) ^ class_key(y)


@pytest.mark.parametrize("field", ALL_FIELDS + RATIONAL_D_FIELDS, ids=lambda f: f.spec_string())
@given(a=st.integers(-2000, 2000), b=st.integers(-2000, 2000), m=st.integers(1, 2000),
       i=st.integers(0, 3), j=st.integers(0, 3), k=st.integers(0, 4),
       s=st.integers(1, 60), t=st.integers(0, 3))
def test_residue_is_left_undivided_and_scale_free(field, a, b, m, i, j, k, s, t):
    # x = (A + B sqrt(d)) / D with p-powers in A, B and D, then the same
    # triple scaled by s p^t: v and the residue class (r0, r1) / u agree
    # with the Fraction oracle, and the class key with the listed squares
    p = field.p
    A, B, D = a * p**i, b * p**j if field.is_extension else 0, m * p**k
    if not (A or B):
        return
    want_v, want_r = valuation_residue((Fraction(A, D), Fraction(B, D)), field)
    want_key = 2 * (want_v % 2) + (0 if residue_is_square(want_r, field) else 1)
    for scale in (1, s * p**t):
        triple = (A * scale, B * scale, D * scale)
        v, r0, r1, u = _valuation_and_residue(field, *triple)
        inv = pow(u, -1, p)
        assert v == want_v
        assert (r0 * inv % p, r1 * inv % p) == want_r
        assert _class_key(field, *triple) == want_key


# a prime past 2^30: its powers never fit one 30-bit CPython digit
M61 = 2**61 - 1
DEEP_FIELDS = [Q3, Q5, E5U, E5R, E3R, *RATIONAL_D_FIELDS[::2],
               make_field(M61), make_field(M61, ("unram", -1)), make_field(M61, ("ram", M61))]


def deep_exponents(p: int) -> list:
    """K - 1, K, K + 1, 2K + 3 and 300, for K the largest exponent with
    p^K below 2^30 (1 when p itself is not)."""
    K = 1
    while p ** (K + 1) < 2**30:
        K += 1
    return sorted({K - 1, K, K + 1, 2 * K + 3, 300})


@pytest.mark.parametrize("field", DEEP_FIELDS, ids=lambda f: f.spec_string())
def test_deep_valuations_match_oracles(field):
    p = field.p
    rng = random.Random(p)

    def unit() -> Fraction:
        # a multi-digit rational prime to p
        u, w = (rng.randrange(1, 2**90) for _ in range(2))
        return Fraction(u + (u % p == 0), w + (w % p == 0))

    psi = standard_char(field)
    for e in deep_exponents(p):
        for s in (e, -e):
            # the sqrt(d) coordinate absent, or one p-power below, at or above a
            offsets = (None, -1, 0, 1) if field.is_extension else (None,)
            for a_zero in (False, True):
                for j in offsets:
                    if a_zero and j is None:
                        continue
                    a = 0 if a_zero else Fraction(p) ** s * unit()
                    b = 0 if j is None else Fraction(p) ** (s + j) * unit()
                    x = field.elt(a, b)
                    v, res, square = _oracle_square_data(field, Fraction(a), Fraction(b))
                    assert valuation(x) == v
                    r = unit_part(x)
                    assert (r.r0, r.r1) == res
                    assert class_key(x) == 2 * (v % 2) + (0 if square else 1)
                    for n in (x._A, x._B, x._D):
                        if n:
                            assert vp_int(n, p) == oracle_vp_int(n, p)
                    assert psi_eval(psi, x).exponent == psi_exponent(field, (a, b))


def test_int_and_fraction_coercion():
    x = Q5.elt(3)
    assert x + 1 == Q5.elt(4)
    assert 1 + x == Q5.elt(4)
    assert 2 * x == Q5.elt(6)
    assert x / 2 == Q5.elt(Fraction(3, 2))
    assert 1 / x == Q5.elt(Fraction(1, 3))
    assert x - Fraction(1, 2) == Q5.elt(Fraction(5, 2))
    assert x == 3
    assert x != 4


def test_rational_elements_hash_as_their_rationals():
    for F in (Q5, E5U):
        assert F.elt(5) == 5 and 5 in {F.elt(5)}
        assert len({5, F.elt(5)}) == 1
        assert F.elt(Fraction(1, 3)) == Fraction(1, 3)
        assert Fraction(1, 3) in {F.elt(Fraction(1, 3))}
    assert len({E5U.elt(1, 1), E5U.elt(2, 2) / 2, E5U.elt(1, -1)}) == 2


def test_cross_field_arithmetic_raises():
    with pytest.raises(FieldMismatch):
        Q5.elt(1) + Q3.elt(1)
    with pytest.raises(FieldMismatch):
        E5U.elt(1) * E5R.elt(1)
    # embedding is explicit, never implicit
    with pytest.raises(FieldMismatch):
        Q5.elt(1) + E5U.elt(1)


def test_format_element_shapes():
    assert format_element(Q5.elt(Fraction(-3, 2))) == "-3/2"
    assert format_element(E5U.elt(0, 1)) == "sqrt"
    assert format_element(E5U.elt(0, 5)) == "5*sqrt"
    assert format_element(E5U.elt(2, 1)) == "2+sqrt"
    assert format_element(E5U.elt(1, -1)) == "1-sqrt"
    assert format_element(E5U.elt(0, -1)) == "-sqrt"


# ---------------------------------------------------------------------------
# Galois structure


def test_norm_trace_conjugate_identities():
    for E in (E5U, E5R, E3U, E7R):
        samples = [E.elt(1, 2), E.elt(-3, 1), E.elt(Fraction(1, 5), 4),
                   E.elt(0, 7), E.elt(2)]
        for x in samples:
            xb = x.conj()
            assert xb.conj() == x
            assert embed_base(norm(x), E) == x * xb
            assert embed_base(trace(x), E) == x + xb
            assert norm(x).field == E.base()
        x, y = samples[0], samples[1]
        assert norm(x * y) == norm(x) * norm(y)
        assert (x * y).conj() == x.conj() * y.conj()


def test_norm_of_embedded_base_element_is_square():
    a = Q5.elt(7)
    assert norm(embed_base(a, E5U)) == a * a
    assert trace(embed_base(a, E5U)) == 2 * a


def test_conjugate_fixes_base_field_embeds():
    x = embed_base(Q5.elt(Fraction(3, 4)), E5R)
    assert x.conj() == x


def test_norm_trace_need_an_extension():
    with pytest.raises(BaseFieldInput):
        norm(Q5.elt(2))
    with pytest.raises(BaseFieldInput):
        trace(Q5.elt(2))


def test_embed_base_rejects_foreign_fields():
    with pytest.raises(FieldMismatch):
        embed_base(Q3.elt(1), E5U)
    # already upstairs: identity, not an error
    x = E5U.elt(1, 1)
    assert embed_base(x, E5U) is x


# ---------------------------------------------------------------------------
# residue field and Euler criterion


@pytest.mark.parametrize("p", [3, 5, 7, 13])
def test_euler_sign_matches_legendre_enumeration(p):
    f = make_field(p)
    sq = residue_squares(p)
    for a in range(1, p):
        expected = 1 if a in sq else -1
        assert ResidueElement(f, a).euler_sign() == expected
        assert expected == legendre_enum(a, p)


def test_euler_sign_unramified_residue_field():
    # all of F_9 = F_3(sqrt 2), against squares listed by brute force
    sq = residue_squares(3, unit_residue(E3U.d, 3))
    for r0 in range(3):
        for r1 in range(3):
            if r0 == r1 == 0:
                continue
            expected = 1 if (r0, r1) in sq else -1
            assert ResidueElement(E3U, r0, r1).euler_sign() == expected


def test_euler_sign_of_zero_raises():
    with pytest.raises(ZeroElement):
        ResidueElement(Q5, 0).euler_sign()


# ---------------------------------------------------------------------------
# square classes


def test_square_class_reps_frozen():
    assert [c.rep for c in square_class_reps(Q5)] == [
        Q5.elt(1), Q5.elt(2), Q5.elt(5), Q5.elt(10)]
    assert [c.rep for c in square_class_reps(E5U)] == [
        E5U.elt(1), E5U.elt(0, 1), E5U.elt(5), E5U.elt(0, 5)]
    assert [c.rep for c in square_class_reps(E5R)] == [
        E5R.elt(1), E5R.elt(2), E5R.elt(0, 1), E5R.elt(0, 2)]
    assert [c.label for c in square_class_reps(Q3)] == ["1", "2", "3", "6"]


@pytest.mark.parametrize("field", ALL_FIELDS)
def test_canonical_nonsquare_unit_is_neither_square_nor_pi(field):
    u = field.nonsquare_unit
    assert valuation(u) == 0
    r = unit_part(u)
    if field.kind == "unram":
        assert (r.r0, r.r1) not in residue_squares(field.p, unit_residue(field.d, field.p))
    else:
        assert r.r0 not in residue_squares(field.p)


def test_is_square_frozen_examples():
    assert not is_square(Q5.elt(2))
    assert is_square(Q5.elt(4))
    assert not is_square(E5U.elt(0, 1))   # sqrt(2) itself
    assert is_square(E5U.elt(2))          # 2 = sqrt(2)^2 upstairs
    assert is_square(E5R.elt(5))          # 5 = sqrt(5)^2 upstairs
    assert not is_square(Q5.elt(5))


@pytest.mark.parametrize("field", [Q3, Q5, E5U, E5R, E3R])
def test_square_criterion_matches_residue_enumeration(field):
    # grid of elements with both parities of valuation and varied units
    p = field.p
    pts = []
    for a in range(1, p + 3):
        pts.append(field.elt(a))
        pts.append(field.elt(a * p))
        if field.is_extension:
            pts.append(field.elt(a, 1))
            pts.append(field.elt(0, a))
    if field.kind == "unram":
        sq = residue_squares(p, unit_residue(field.d, p))
        in_sq = lambda r: (r.r0, r.r1) in sq
    else:
        sq = residue_squares(p)
        in_sq = lambda r: r.r0 in sq
    for x in pts:
        expected = valuation(x) % 2 == 0 and in_sq(unit_part(x))
        assert is_square(x) == expected
        assert (square_class(x).key == 0) == expected


def test_class_key_squares_are_trivial():
    for field in ALL_FIELDS:
        for x in [field.elt(3), field.elt(Fraction(2, field.p)),
                  field.uniformizer + field.one()]:
            assert class_key(x * x) == 0


@given(a=fractions_st, b=fractions_st, c=fractions_st, d=fractions_st)
def test_class_key_is_a_homomorphism(a, b, c, d):
    x = E5R.elt(a, b)
    y = E5R.elt(c, d)
    if x.is_zero() or y.is_zero():
        return
    assert class_key(x * y) == class_key(x) ^ class_key(y)
    assert square_class(x * y) == square_class(x) * square_class(y)


def test_square_class_group_structure():
    reps = square_class_reps(Q7)
    one = reps[0]
    for c in reps:
        assert c * c == one
        assert c * one == c
    assert reps[1] * reps[2] == reps[3]
    with pytest.raises(FieldMismatch):
        reps[0] * square_class_reps(Q5)[0]


def test_square_class_of_rep_is_itself():
    for field in ALL_FIELDS:
        for c in square_class_reps(field):
            assert square_class(c.rep) == c


def test_minus_one_square_pattern():
    # p = 1 mod 4 downstairs, always in the unramified quadratic
    assert not Q3.minus_one_is_square
    assert Q5.minus_one_is_square
    assert not Q7.minus_one_is_square
    assert E3U.minus_one_is_square
    assert E3R.minus_one_is_square is False
    assert is_square(E3U.elt(-1))
    assert not is_square(E3R.elt(-1))
    for F in ALL_FIELDS:
        assert F.minus_one_key == class_key(F.elt(-1))
        # the key indexes the canonical representatives
        for k, cls in enumerate(square_class_reps(F)):
            assert cls.key == k
            assert class_key(cls.rep) == k
