"""Cocycle values, cover arithmetic, and the GL2(F) splitting.

beta is cross-checked against oracles.beta_literal, which composes the
displayed maps on Fraction coordinates, with full matrix products, tame
symbols read off valuations and residue squares found by enumeration, and
no code from the package; check_cocycle is cross-checked against the
naive four-symbol evaluation.
"""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from kubota_meta.errors import (
    BaseFieldInput,
    FieldMismatch,
    NotFRational,
    ZeroElement,
)
from kubota_meta.branching import NilpotentSl2
from kubota_meta.hilbert import hilbert
from kubota_meta.kubota import (
    SEED_GATE,
    Mat2,
    MetaElement,
    beta,
    check_cocycle,
    commutator_pairing,
    is_split_on_GL2F,
    meta_inv,
    meta_mul,
    p_part,
    _content_bound,
    _product,
)
from kubota_meta.local_field import FieldElement, class_key, make_field
from kubota_meta.parsing import parse_field_spec
from kubota_meta.rng import SplitMix64
from kubota_meta.suites import rand_mat2
from oracles import (
    beta_literal,
    beta_sl2_literal,
    content_reduced,
    coord_det,
    coords,
    mat_mul,
)

Q3 = make_field(3)
Q5 = make_field(5)
E5U = make_field(5, ("unram", 2))
E5R = make_field(5, ("ram", 5))
E3R = make_field(3, ("ram", 3))


def M(field, a, b, c, d):
    mk = lambda v: field.elt(*v) if isinstance(v, tuple) else field.elt(v)
    return Mat2(field, mk(a), mk(b), mk(c), mk(d))


def sample_matrices(field, rng, n, allow_ext=True):
    """n invertible matrices with mixed valuations and a fair share of c = 0."""
    def entry():
        a = Fraction(rng.randint(-9, 9)) * Fraction(field.p) ** rng.randint(-1, 1)
        if allow_ext and field.is_extension and rng.random() < 0.5:
            return field.elt(a, rng.randint(-4, 4))
        return field.elt(a)
    out = []
    while len(out) < n:
        c = field.zero() if rng.random() < 0.3 else entry()
        try:
            g = Mat2(field, entry(), entry(), c, entry())
        except ValueError:
            continue
        out.append(g)
    return out


# ---------------------------------------------------------------------------
# Mat2 plumbing


def test_mat2_rejects_bad_input():
    with pytest.raises(ValueError):
        M(Q5, 1, 2, 2, 4)
    with pytest.raises(FieldMismatch):
        Mat2(Q5, Q5.elt(1), Q5.elt(0), Q3.elt(0), Q5.elt(1))
    with pytest.raises(FieldMismatch):
        Mat2(Q5, 1, 0, 0, 1)  # raw ints are not field elements


def test_mat2_product_and_inverse():
    g = M(Q5, 1, 2, 3, 4)
    h = M(Q5, 0, 1, -1, 5)
    gh = g @ h
    assert gh.entries() == (Q5.elt(-2), Q5.elt(11), Q5.elt(-4), Q5.elt(23))
    assert gh.det == g.det * h.det
    ident = Mat2.identity(Q5)
    assert g @ g.inverse() == ident
    assert g.inverse() @ g == ident
    assert ident @ g == g
    with pytest.raises(FieldMismatch):
        g @ M(Q3, 1, 0, 0, 1)


def test_diag_and_x_of():
    g = Mat2.diag(Q5.elt(2), Q5.elt(3))
    assert g.entries() == (Q5.elt(2), Q5.elt(0), Q5.elt(0), Q5.elt(3))


def test_p_part_recovers_the_factorization():
    g = M(Q5, 1, 2, 3, 4)
    s = p_part(g)
    assert s.det == Q5.one()
    assert Mat2.diag(Q5.one(), g.det) @ s == g
    assert p_part(s) == s


# ---------------------------------------------------------------------------
# beta itself


def test_weyl_element_pin():
    # beta(w, w) = (-1,-1)(-1,-1) = +1 in every field
    for f in (Q3, Q5, E5U, E5R):
        w = M(f, 0, 1, -1, 0)
        assert beta(w, w) == 1


def test_borel_pairs_collapse_to_one_symbol():
    # frozen instance: (2, 5) = -1 over Q5
    assert beta(Mat2.diag(Q5.elt(2), Q5.elt(1)),
                Mat2.diag(Q5.elt(1), Q5.elt(5))) == -1
    rng = random.Random(11)
    for field in (Q5, E5R):
        for _ in range(60):
            vals = sample_matrices(field, rng, 4)
            # determinants are guaranteed nonzero, entries are not
            a1, d1, a2, d2 = (v.det for v in vals)
            b1 = Mat2(field, a1, vals[0].b, field.zero(), d1)
            b2 = Mat2(field, a2, vals[1].b, field.zero(), d2)
            assert beta(b1, b2) == hilbert(a1, d2)


def test_unipotent_pairs_are_free():
    for field in (Q5, E5U):
        n1 = M(field, 1, 7, 0, 1)
        n2 = M(field, 1, (0, 1) if field.is_extension else Fraction(-2, 5), 0, 1)
        assert beta(n1, n2) == 1
        assert beta(n2, n1) == 1


# -1 is a square in the first three fields and not in the last two, where
# the (-1)^(mn) term of the symbol counts
@pytest.mark.parametrize("field", [Q5, E5U, E5R, Q3, E3R])
def test_beta_matches_literal_composition(field):
    rng = random.Random(5)
    mats = sample_matrices(field, rng, 26)
    for g1 in mats[:13]:
        for g2 in mats[13:]:
            assert beta(g1, g2) == beta_literal(g1, g2)


def test_beta_restricted_to_sl2_is_beta_sl2():
    rng = random.Random(7)
    for field in (Q5, E5R, Q3, E3R):
        mats = [p_part(g) for g in sample_matrices(field, rng, 20)]
        for g1, g2 in zip(mats[:10], mats[10:]):
            assert beta(g1, g2) == beta_sl2_literal(coords(g1), coords(g2), field)


def test_beta_field_mismatch():
    with pytest.raises(FieldMismatch):
        beta(Mat2.identity(Q5), Mat2.identity(Q3))


# ---------------------------------------------------------------------------
# the cocycle identity


@pytest.mark.parametrize("field", [Q3, Q5, E5U, E5R])
def test_cocycle_identity_on_random_triples(field):
    rng = random.Random(field.p)
    mats = sample_matrices(field, rng, 45)
    for g1, g2, g3 in zip(mats[:15], mats[15:30], mats[30:]):
        assert check_cocycle(g1, g2, g3)


def test_check_cocycle_agrees_with_naive_evaluation():
    # check_cocycle shares the products g1 g2 and g2 g3 between its two
    # sides; make sure it computes the same booleans as the definition,
    # term by term
    rng = random.Random(23)
    for field in (Q5, E5R):
        mats = sample_matrices(field, rng, 30)
        for g1, g2, g3 in zip(mats[:10], mats[10:20], mats[20:]):
            lhs = beta(g1, g2) * beta(g1 @ g2, g3)
            rhs = beta(g1, g2 @ g3) * beta(g2, g3)
            assert check_cocycle(g1, g2, g3) == (lhs == rhs)
            assert lhs == rhs


# ---------------------------------------------------------------------------
# cover arithmetic


def test_meta_element_validation():
    with pytest.raises(ValueError):
        MetaElement(Mat2.identity(Q5), 0)


def test_meta_group_laws():
    rng = random.Random(3)
    field = E5R
    ident = MetaElement(Mat2.identity(field))
    mats = sample_matrices(field, rng, 30)
    for g1, g2, g3 in zip(mats[:10], mats[10:20], mats[20:]):
        m1 = MetaElement(g1, rng.choice((1, -1)))
        m2 = MetaElement(g2, rng.choice((1, -1)))
        m3 = MetaElement(g3)
        assert meta_mul(meta_mul(m1, m2), m3) == meta_mul(m1, meta_mul(m2, m3))
        assert meta_mul(m1, meta_inv(m1)) == ident
        assert meta_mul(meta_inv(m1), m1) == ident
        assert meta_mul(ident, m1) == m1


def test_central_kernel_element_squares_to_identity():
    z = MetaElement(Mat2.identity(Q5), -1)
    assert meta_mul(z, z) == MetaElement(Mat2.identity(Q5), 1)
    g = MetaElement(M(Q5, 1, 2, 3, 4))
    assert meta_mul(z, g).eps == -g.eps
    assert meta_mul(z, g).g == g.g


def test_associativity_fails_if_a_sign_is_tampered():
    # guards against check_cocycle degenerating into "return True"
    g1, g2, g3 = M(Q5, 0, 1, -1, 0), M(Q5, 1, 0, 5, 1), M(Q5, 2, 1, 3, 2)
    lhs = beta(g1, g2) * beta(g1 @ g2, g3)
    rhs = beta(g1, g2 @ g3) * beta(g2, g3)
    assert lhs == rhs
    assert (-lhs) != rhs


# ---------------------------------------------------------------------------
# splitting over the base points and the center


def test_split_on_f_rational_pairs():
    rng = random.Random(17)
    for E in (E5U, E5R):
        mats = sample_matrices(E, rng, 20, allow_ext=False)
        for g1, g2 in zip(mats[:10], mats[10:]):
            assert is_split_on_GL2F(g1, g2)
            assert beta(g1, g2) == 1


def test_split_checker_input_guards():
    with pytest.raises(BaseFieldInput):
        is_split_on_GL2F(Mat2.identity(Q5), Mat2.identity(Q5))
    g = M(E5U, (1, 1), 0, 0, 1)
    with pytest.raises(NotFRational):
        is_split_on_GL2F(g, Mat2.identity(E5U))


def test_commutator_pairing_is_z_against_det():
    rng = random.Random(29)
    for field in (Q5, E5R):
        mats = sample_matrices(field, rng, 8)
        zs = [field.elt(2), field.elt(field.p), field.elt(-1),
              field.elt(Fraction(3, field.p))]
        for g in mats:
            for z in zs:
                assert commutator_pairing(z, g) == hilbert(z, g.det)
    # frozen: z = 2 against det 5 over Q5
    assert commutator_pairing(Q5.elt(2), Mat2.diag(Q5.elt(1), Q5.elt(5))) == -1
    # squares in either slot are invisible
    assert commutator_pairing(Q5.elt(4), M(Q5, 1, 1, 5, 10)) == 1
    with pytest.raises(ZeroElement):
        commutator_pairing(Q5.zero(), Mat2.identity(Q5))


# ---------------------------------------------------------------------------
# integer storage against Fraction coordinates

# two fields whose d has a denominator, so products carry its factor dd
ORACLE_FIELDS = [parse_field_spec(s) for s in (
    "Qp(5)", "Qp(5)[unram:2]", "Qp(5)[ram:5]", "Qp(5)[unram:1/2]", "Qp(7)[ram:7/3]")]


def coord_diag(x: tuple, y: tuple) -> tuple:
    zero = (Fraction(0), Fraction(0))
    return (x, zero, zero, y)


ONE = (Fraction(1), Fraction(0))


def elements(field):
    rational = st.builds(lambda n, m, k: Fraction(n, m) * Fraction(field.p) ** k,
                         st.integers(-40, 40), st.integers(1, 40), st.integers(-3, 3))
    if field.is_extension:
        return st.builds(field.elt, rational, rational)
    return st.builds(field.elt, rational)


def invertible(field):
    entries = st.tuples(*[elements(field)] * 4)
    return entries.filter(lambda e: not (e[0] * e[3] - e[1] * e[2]).is_zero()).map(
        lambda e: Mat2(field, *e))


@st.composite
def field_mats(draw, n):
    field = draw(st.sampled_from(ORACLE_FIELDS))
    mats = draw(st.lists(invertible(field), min_size=n, max_size=n))
    return field, mats


@given(field_mats(2))
def test_integer_ops_match_fraction_oracle(fm):
    field, (g, h) = fm
    d = field.d
    gc, hc = coords(g), coords(h)
    assert coords(g @ h) == mat_mul(gc, hc, d)
    ident = coord_diag(ONE, ONE)
    assert mat_mul(gc, coords(g.inverse()), d) == ident
    assert mat_mul(coord_diag(ONE, coord_det(gc, d)), coords(p_part(g)), d) == gc
    # keys read off the stored ints agree with the keys of the reduced entries
    for m in (g, g @ h, g.inverse(), p_part(g)):
        assert m.det_key() == class_key(m.det)
        assert m.x_key() == class_key(m.c if m.c else m.d)


@given(field_mats(1), st.data())
def test_nilpotent_conjugation_matches_fraction_oracle(fm, data):
    field, (g,) = fm
    # Y = c (s, t)^T (t, -s) is traceless with det 0
    s, t = data.draw(st.tuples(elements(field), elements(field)).filter(any))
    c = data.draw(elements(field).filter(bool))
    y = NilpotentSl2(field, c * s * t, -c * s * s, c * t * t)
    moved = y.conjugate_by(g)
    yc, movedc = coords(y), coords(moved)
    # moved = g Y g^-1 exactly when moved g = g Y, g being invertible
    gc = coords(g)
    assert mat_mul(movedc, gc, field.d) == mat_mul(gc, yc, field.d)


@given(field_mats(1))
def test_product_with_inverse_is_the_identity(fm):
    field, (g,) = fm
    ident = Mat2.identity(field)
    for m in (g @ g.inverse(), g.inverse() @ g):
        assert m == ident
        assert hash(m) == hash(ident)


E7R3 = parse_field_spec("Qp(7)[ram:7/3]")


# -1 is a non-square on Q_3 and on Q_7(sqrt(7/3)), so a lost (-1)^(mn)
# term of the tame symbol shows there; these folds are pinned as examples
# rather than left to the derandomized draw
@settings(max_examples=10)
@given(st.sampled_from(ORACLE_FIELDS), st.integers(0, 2**64 - 1))
@example(Q3, 0)
@example(Q3, 1)
@example(E7R3, 0)
@example(E7R3, 1)
def test_long_fold_matches_oracle_product_and_literal_sign(field, seed):
    # the word comes from one int, so a failure shrinks in a few steps
    rng = SplitMix64(seed)
    word = [rand_mat2(rng, field, 50) for _ in range(64)]
    prod = MetaElement(word[0])
    ref = coords(word[0])
    sign = 1
    for g in word[1:]:
        sign *= beta_literal(prod.g, g)
        prod = meta_mul(prod, MetaElement(g))
        ref = mat_mul(ref, coords(g), field.d)
        # every step, so that an even number of wrong steps cannot cancel
        assert prod.eps == sign
    assert coords(prod.g) == ref
    assert meta_mul(prod, meta_inv(prod)) == MetaElement(Mat2.identity(field), 1)


def replay_mat2(rng, field, height, f_rational=False):
    """The sampler's draws rebuilt through reduced FieldElements and
    ``Mat2(...)``: (matrix, whether c was forced to 0, singular redraws)."""
    force_c_zero = rng.chance(1, 5)
    ext = field.is_extension and not f_rational

    def entry():
        n0, m0 = rng.randint(-height, height), rng.randint(1, height)
        if not ext:
            return FieldElement.from_ints(field, n0, 0, m0)
        n1, m1 = rng.randint(-height, height), rng.randint(1, height)
        return FieldElement.from_ints(field, n0 * m1, n1 * m0, m0 * m1)

    redraws = 0
    while True:
        a, b, c, d = entry(), entry(), entry(), entry()
        if force_c_zero:
            c = field.zero()
        try:
            return Mat2(field, a, b, c, d), force_c_zero, redraws
        except ValueError:
            redraws += 1


@pytest.mark.parametrize("height", [1, 50])
@pytest.mark.parametrize("field", [Q3, *ORACLE_FIELDS], ids=lambda f: f.spec_string())
def test_sampler_matches_the_element_route(field, height):
    # at height 1 the entries are -1, 0 and 1, so singular draws are common
    forced = redraws = 0
    for seed in range(40):
        for f_rational in (False, True) if field.is_extension else (False,):
            rng, ref_rng = SplitMix64(seed), SplitMix64(seed)
            for _ in range(3):
                g = rand_mat2(rng, field, height, f_rational)
                ref, c_zero, n = replay_mat2(ref_rng, field, height, f_rational)
                assert g._q == ref._q
                assert g == ref and hash(g) == hash(ref)
                forced += c_zero
                redraws += n
            assert rng._state == ref_rng._state
    assert forced
    assert redraws or height > 1


# ---------------------------------------------------------------------------
# the seeded content gcd of a product


@given(field_mats(2))
def test_content_bound_is_a_multiple_of_the_product_content(fm):
    field, (g, h) = fm
    for x, y in ((g, h), (h, g), (g, g.inverse())):
        q = _product(field, x._q, y._q)
        content = gcd(*q)
        assert _content_bound(x) % content == 0
        assert _content_bound(y) % content == 0


def fold(field, seed: int, length: int) -> Mat2:
    rng = SplitMix64(seed)
    m = rand_mat2(rng, field, 50)
    for _ in range(length - 1):
        m = m @ rand_mat2(rng, field, 50)
    return m


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=lambda f: f.spec_string())
def test_seeded_product_gcd_matches_the_plain_reduction(field):
    small = [fold(field, seed, 1) for seed in (1, 2)]
    big = [fold(field, seed, 64) for seed in (3, 4)]
    # the big factors cross the gate, so their products take the seed
    assert all(m._q[8] < SEED_GATE for m in small)
    assert all(m._q[8] >= SEED_GATE for m in big)
    for x, y in ((small[0], small[1]), (big[0], small[0]),
                 (small[1], big[1]), (big[0], big[1])):
        q = _product(field, x._q, y._q)
        assert (x @ y)._q == content_reduced(q)
        content = gcd(*q)
        assert _content_bound(x) % content == 0
        assert _content_bound(y) % content == 0


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=lambda f: f.spec_string())
def test_products_past_the_gate_carry_their_denominator_key(field):
    # a product with a factor past the gate keys its denominator D E dd / g
    # from its factors' keys, the key of dd and the key of the content g;
    # the fold alternates sides, so the big factor is on the left and right
    rng = SplitMix64(7)
    m = rand_mat2(rng, field, 50)
    carried = p_in_content = 0
    for step in range(80):
        x, y = (m, rand_mat2(rng, field, 50))[::1 if step % 2 else -1]
        content = gcd(*_product(field, x._q, y._q))
        past_gate = max(x._q[8], y._q[8]) >= SEED_GATE
        m = x @ y
        if past_gate:
            carried += 1
            p_in_content += content % field.p == 0
            assert m._kden == class_key(FieldElement.from_ints(field, m._q[8], 0, 1))
        c, d = m.c, m.d
        assert m.x_key() == class_key(c if c else d)
    assert carried > 40 and p_in_content
