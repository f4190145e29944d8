"""Self-twist models, packet counting, sign chains, and nilpotent orbits."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from kubota_meta.branching import (
    NilpotentSl2,
    TauTwistModel,
    complementary_support,
    epsilon_sign_chain,
    is_waldspurger_conjugate,
    multiplicity,
    orbit_invariant,
    packet_product,
    whittaker_datum_eval,
)
from kubota_meta.errors import (
    FieldMismatch,
    MinusOneIsSquare,
    MinusOneNotSquare,
    NotACoset,
    NotDiscrete,
    NotNilpotent,
    NotRamifiedClass,
    ZeroElement,
    ZeroMatrix,
)
from kubota_meta.hilbert import hilbert
from kubota_meta.kubota import Mat2, p_part
from kubota_meta.local_field import (
    SquareClass,
    make_field,
    square_class,
    square_class_reps,
)
from kubota_meta.weil import psi_eval, standard_char

Q3 = make_field(3)
Q5 = make_field(5)
Q7 = make_field(7)
E5U = make_field(5, ("unram", 2))
E3U = make_field(3, ("unram", 2))


def cls(field, key):
    return SquareClass(field, key)


def subgroups(field):
    """All five subgroups of the square-class four-group."""
    one = cls(field, 0)
    reps = square_class_reps(field)
    subs = [frozenset({one})]
    subs += [frozenset({one, r}) for r in reps[1:]]
    subs.append(frozenset(reps))
    return subs


# ---------------------------------------------------------------------------
# model validation


def test_self_twist_set_must_be_a_subgroup_containing_one():
    with pytest.raises(ValueError):
        TauTwistModel(Q5, frozenset({cls(Q5, 1)}), True)
    bad = frozenset({cls(Q5, 0), cls(Q5, 1), cls(Q5, 2)})
    with pytest.raises(ValueError):
        TauTwistModel(Q5, bad, True)


def test_principal_series_self_twists_must_avoid_minus_one():
    # over Q3 the ramified classes pair -1 against -1
    S = frozenset({cls(Q3, 0), cls(Q3, 2)})
    with pytest.raises(ValueError):
        TauTwistModel(Q3, S, False)
    TauTwistModel(Q3, S, True)                      # discrete: fine
    TauTwistModel(Q3, frozenset({cls(Q3, 0), cls(Q3, 1)}), False)
    # over Q5 every class is orthogonal to -1, so even the full group works
    TauTwistModel(Q5, frozenset(square_class_reps(Q5)), False)


# ---------------------------------------------------------------------------
# multiplicities and packet products


def test_multiplicity_frozen_cases():
    one3 = cls(Q3, 0)
    # S = {1, a} with (a, -1) = -1: only the identity survives
    m = TauTwistModel(Q3, frozenset({one3, cls(Q3, 2)}), True)
    assert multiplicity(m) == 1
    # S = {1, a} with (a, -1) = +1
    m = TauTwistModel(Q3, frozenset({one3, cls(Q3, 1)}), True)
    assert multiplicity(m) == 2
    # full group over Q3: the two ramified classes drop out
    m = TauTwistModel(Q3, frozenset(square_class_reps(Q3)), True)
    assert multiplicity(m) == 2
    # full group over Q5: -1 is a square, nothing drops
    m = TauTwistModel(Q5, frozenset(square_class_reps(Q5)), False)
    assert multiplicity(m) == 4
    m = TauTwistModel(Q5, frozenset({cls(Q5, 0)}), False)
    assert multiplicity(m) == 1


def test_multiplicity_equals_surviving_twist_count():
    for field in (Q3, Q5, Q7, E5U):
        minus = square_class(field.elt(-1))
        for S in subgroups(field):
            m = TauTwistModel(field, S, True)
            expected = sum(
                1 for a in S if hilbert(a.rep, minus.rep) == 1)
            assert multiplicity(m) == expected
            assert multiplicity(m) in (1, 2, 4)


def test_packet_product_frozen_triples():
    one3 = cls(Q3, 0)
    got = packet_product(TauTwistModel(Q3, frozenset({one3}), True))
    assert (got["m1"], got["m2"], got["product"]) == (8, 1, 8)
    got = packet_product(TauTwistModel(Q3, frozenset(square_class_reps(Q3)), True))
    assert (got["m1"], got["m2"], got["product"]) == (2, 4, 8)
    S = frozenset({cls(Q3, 0), cls(Q3, 1)})
    got = packet_product(TauTwistModel(Q3, S, False))
    assert (got["m1"], got["m2"], got["product"]) == (2, 2, 4)


def test_packet_product_exhaustive_invariant():
    # product is 8 for discrete models and 4 otherwise, over every field
    # kind and every admissible subgroup
    for field in (Q3, Q5, Q7, E5U, make_field(5, ("ram", 5))):
        for S in subgroups(field):
            for discrete in (True, False):
                try:
                    m = TauTwistModel(field, S, discrete)
                except ValueError:
                    assert not discrete
                    continue
                got = packet_product(m)
                assert got["product"] == (8 if discrete else 4)
                assert got["m1"] * got["m2"] == got["product"]
                assert got["m2"] == len(S)


def test_waldspurger_involution_flags():
    S = frozenset({cls(Q3, 0), cls(Q3, 2)})
    m = TauTwistModel(Q3, S, True)
    assert is_waldspurger_conjugate(m, cls(Q3, 2))
    assert not is_waldspurger_conjugate(m, cls(Q3, 0))
    assert not is_waldspurger_conjugate(m, cls(Q3, 1))   # not in S
    assert not is_waldspurger_conjugate(m, cls(Q3, 3))   # not in S
    with pytest.raises(NotDiscrete):
        is_waldspurger_conjugate(
            TauTwistModel(Q3, frozenset({cls(Q3, 0)}), False),
            cls(Q3, 0))
    # -1 a square: the involution never moves anything
    m5 = TauTwistModel(Q5, frozenset(square_class_reps(Q5)), True)
    for a in square_class_reps(Q5):
        assert not is_waldspurger_conjugate(m5, a)


# ---------------------------------------------------------------------------
# support partitions


@pytest.mark.parametrize("field", [Q5, E5U, E3U, make_field(13)])
def test_every_two_class_support_has_a_complement(field):
    reps = square_class_reps(field)
    for pair in combinations(reps, 2):
        support = frozenset(pair)
        b = complementary_support(support, field)
        shifted = frozenset(b * s for s in support)
        assert shifted | support == frozenset(reps)
        assert not (shifted & support)
        # b itself moved: it is not in the coset stabilizer
        assert b * pair[0] not in support


def test_complement_for_off_identity_coset():
    # {u, pi} is a coset of {1, u*pi}; the complement shift must come from
    # outside that stabilizer even though 1 is already outside the support
    support = frozenset({cls(Q5, 1), cls(Q5, 2)})
    b = complementary_support(support, Q5)
    assert b == cls(Q5, 1)
    assert frozenset(b * s for s in support) == \
        frozenset({cls(Q5, 0), cls(Q5, 3)})


def test_complement_guards():
    with pytest.raises(MinusOneNotSquare):
        complementary_support(frozenset({cls(Q3, 0), cls(Q3, 1)}), Q3)
    with pytest.raises(NotACoset):
        complementary_support(frozenset({cls(Q5, 0)}), Q5)
    with pytest.raises(NotACoset):
        complementary_support(frozenset(square_class_reps(Q5)), Q5)


# ---------------------------------------------------------------------------
# the epsilon sign chain


def test_sign_chain_frozen_assignment():
    out = epsilon_sign_chain(Q3, cls(Q3, 2), seed=1)
    one = cls(Q3, 0)
    minus_one = square_class(Q3.elt(-1))
    a = out["a"]
    assert out["order"] == (one, minus_one, a, cls(Q3, 2))
    assert [out["assignment"][c] for c in out["order"]] == [1, -1, -1, 1]
    assert out["holds"]


@pytest.mark.parametrize("field", [Q3, Q7, make_field(3, ("ram", 3))])
@pytest.mark.parametrize("key", [2, 3], ids=["key0", "key1"])
@pytest.mark.parametrize("seed", [1, -1])
def test_sign_chain_relation_everywhere(field, key, seed):
    b = cls(field, key)
    out = epsilon_sign_chain(field, b, seed=seed)
    assignment, a = out["assignment"], out["a"]
    assert set(out["order"]) == set(square_class_reps(field))
    assert assignment[cls(field, 0)] == seed
    # the chain relation, recomputed here instead of trusting `holds`
    for x in out["order"]:
        assert assignment[x] == -assignment[a * x]
    assert out["holds"]


def test_sign_chain_guards():
    with pytest.raises(MinusOneIsSquare):
        epsilon_sign_chain(Q5, cls(Q5, 2))
    with pytest.raises(NotRamifiedClass):
        epsilon_sign_chain(Q3, cls(Q3, 1))
    with pytest.raises(ValueError):
        epsilon_sign_chain(Q3, cls(Q3, 2), seed=0)


# ---------------------------------------------------------------------------
# nilpotent orbits


def test_nilpotent_validation():
    with pytest.raises(ZeroMatrix):
        NilpotentSl2(Q5, Q5.zero(), Q5.zero(), Q5.zero())
    with pytest.raises(NotNilpotent):
        NilpotentSl2(Q5, Q5.elt(1), Q5.zero(), Q5.zero())
    with pytest.raises(NotNilpotent):
        NilpotentSl2.from_entries(Q5, Q5.elt(1), Q5.zero(), Q5.zero(), Q5.elt(1))
    y = NilpotentSl2.from_entries(Q5, Q5.elt(1), Q5.elt(-1), Q5.elt(1), Q5.elt(-1))
    assert y.entries() == (Q5.elt(1), Q5.elt(-1), Q5.elt(1), Q5.elt(-1))
    with pytest.raises(FieldMismatch):
        NilpotentSl2(Q5, Q5.zero(), Q5.zero(), E5U.elt(3))
    with pytest.raises(FieldMismatch):
        NilpotentSl2.from_entries(Q5, Q7.zero(), Q7.elt(2), Q7.zero(), Q7.zero())
    # unchecked, the unramified g gave a Q_5 entry with a sqrt(d) part
    for g in (Mat2(E5U, E5U.one(), E5U.elt(0, 1), E5U.zero(), E5U.one()),
              Mat2.diag(Q7.elt(2), Q7.one())):
        with pytest.raises(FieldMismatch):
            NilpotentSl2.lower(Q5.elt(3)).conjugate_by(g)


def test_reference_point_and_its_invariant():
    y = NilpotentSl2.lower(Q5.elt(10))
    assert y.entries() == (Q5.elt(0), Q5.elt(0), Q5.elt(10), Q5.elt(0))
    assert orbit_invariant(y) == square_class(Q5.elt(10))


def test_upper_corner_carries_minus_the_class():
    # conjugating [[0,b],[0,0]] by [[0,1],[-1,0]] lands on [[0,0],[-b,0]]
    for field in (Q5, Q3, E5U):
        b = field.elt(2) * field.uniformizer
        y = NilpotentSl2.from_entries(field, field.zero(), b,
                                      field.zero(), field.zero())
        assert orbit_invariant(y) == square_class(-b)
        w = Mat2(field, field.zero(), field.one(),
                 -field.one(), field.zero())
        moved = y.conjugate_by(w)
        assert moved.entries() == (field.zero(), field.zero(), -b, field.zero())


def test_orbit_invariant_is_sl2_conjugation_invariant():
    rng = random.Random(41)
    for field in (Q5, Q3):
        for _ in range(40):
            a = field.elt(Fraction(rng.randint(1, 20))
                          * Fraction(field.p) ** rng.randint(-1, 1))
            y = NilpotentSl2.lower(a)
            while True:
                try:
                    g = Mat2(field, *(field.elt(rng.randint(-6, 6))
                                      for _ in range(4)))
                    break
                except ValueError:
                    continue
            s = p_part(g)
            assert orbit_invariant(y.conjugate_by(s)) == square_class(a)
            # composition law while we are here
            assert y.conjugate_by(s).conjugate_by(s).entries() == \
                y.conjugate_by(s @ s).entries()


def test_whittaker_datum_is_psi_of_ax():
    for field in (Q5, E5U):
        psi = standard_char(field)
        probes = [field.zero(), field.one(), field.uniformizer.inverse(),
                  field.elt(Fraction(3, field.p ** 2))]
        for a in (field.elt(2), field.uniformizer, field.elt(-1)):
            for x in probes:
                assert whittaker_datum_eval(a, x, psi) == psi_eval(psi, a * x)
    assert whittaker_datum_eval(Q5.elt(2), Q5.zero(), standard_char(Q5)).is_one()
    with pytest.raises(ZeroElement):
        whittaker_datum_eval(Q5.zero(), Q5.elt(1), standard_char(Q5))
