"""Genuine central characters: the four-element torsor and its twists."""

import pytest

from kubota_meta.characters import (
    GenuineZCharacter,
    chi_a_eval,
    conjugate_char,
    count_agreeing_extensions,
    f_image_classes,
    index_FEsq,
    omega_of,
)
from kubota_meta.errors import BaseFieldInput, ZeroElement
from kubota_meta.hilbert import pair_class_keys
from kubota_meta.local_field import (
    embed_base,
    is_square,
    make_field,
    square_class,
    square_class_reps,
)

Q5 = make_field(5)
E5U = make_field(5, ("unram", 2))
E5R = make_field(5, ("ram", 5))

QUADRATICS = [
    make_field(p, (kind, d))
    for p, kind, d in [(3, "unram", 2), (3, "ram", 3), (5, "unram", 2),
                       (5, "ram", 5), (7, "unram", 3), (7, "ram", 7),
                       (13, "unram", 2), (13, "ram", 13)]
]


def test_square_class_group_is_klein_four():
    els = square_class_reps(Q5)
    identity = els[0]
    assert identity.key == 0
    t = [[a * b for b in els] for a in els]
    for i, row in enumerate(t):
        assert set(row) == set(els)             # Latin square
        assert t[i][i] == identity              # 2-torsion
        for j in range(4):
            assert t[i][j] == t[j][i]


def test_omega_is_a_four_element_torsor():
    om = omega_of(Q5)
    assert om == tuple(GenuineZCharacter(c) for c in square_class_reps(Q5))
    assert len(om) == 4
    assert len(set(om)) == 4
    assert {mu.twist for mu in om} == set(square_class_reps(Q5))
    assert GenuineZCharacter(square_class_reps(Q5)[2]) in om


def test_conjugation_action_on_the_torsor():
    om = omega_of(E5R)
    for mu in om:
        # squares act trivially, and that is the only trivial action
        assert conjugate_char(mu, E5R.elt(4)) == mu
        for a in (E5R.elt(2), E5R.elt(0, 1), E5R.elt(0, 2), E5R.elt(-1)):
            fixed = conjugate_char(mu, a) == mu
            assert fixed == is_square(a)
    mu = next(iter(om))
    a, b = E5R.elt(2), E5R.elt(0, 1)
    assert conjugate_char(conjugate_char(mu, a), b) == conjugate_char(mu, a * b)
    # conjugation permutes the torsor transitively
    a = E5R.elt(2)
    assert {conjugate_char(mu, a) for mu in om} == set(om)
    with pytest.raises(ZeroElement):
        conjugate_char(mu, E5R.zero())


def test_quadratic_character_values():
    assert chi_a_eval(Q5.elt(2), Q5.elt(5)) == -1
    assert chi_a_eval(Q5.elt(4), Q5.elt(5)) == 1
    # multiplicative in the argument
    x, y = Q5.elt(5), Q5.elt(10)
    a = Q5.elt(2)
    assert chi_a_eval(a, x * y) == chi_a_eval(a, x) * chi_a_eval(a, y)
    with pytest.raises(ZeroElement):
        chi_a_eval(Q5.zero(), Q5.elt(1))
    with pytest.raises(ZeroElement):
        chi_a_eval(Q5.elt(2), Q5.zero())


def test_quadratic_character_trivial_iff_square():
    probes = [Q5.elt(v) for v in (2, 5, 10, -1, 3, 7)]
    for a in probes + [Q5.elt(4), Q5.elt(9)]:
        trivial = all(chi_a_eval(a, x) == 1 for x in probes)
        assert trivial == is_square(a)


def test_f_image_frozen_examples():
    assert [c.key for c in f_image_classes(E5U)] == [0, 2]
    assert [c.label for c in f_image_classes(E5U)] == ["1", "5"]
    assert [c.key for c in f_image_classes(E5R)] == [0, 1]
    assert [c.label for c in f_image_classes(E5R)] == ["1", "2"]


@pytest.mark.parametrize("E", QUADRATICS)
def test_f_image_is_an_order_two_subgroup(E):
    img = f_image_classes(E)
    assert len(img) == 2
    assert img[0].key == 0
    assert img[1] * img[1] == img[0]
    # really the image: each base class lands in it
    for rep in square_class_reps(E.base()):
        assert square_class(embed_base(rep.rep, E)) in img


@pytest.mark.parametrize("E", QUADRATICS)
def test_indices_are_two(E):
    assert index_FEsq(E) == 2
    assert count_agreeing_extensions(E) == 2


@pytest.mark.parametrize("E", QUADRATICS)
def test_agreeing_classes_are_exactly_the_f_image(E):
    # the orthogonal complement of an order-2 subgroup of the four-group
    # under a perfect pairing has order 2; here it coincides with the image
    f_keys = [square_class(embed_base(r.rep, E)).key
              for r in square_class_reps(E.base())]
    agreeing = [c for c in square_class_reps(E)
                if all(pair_class_keys(E, c.key, k) == 1 for k in f_keys)]
    assert agreeing == list(f_image_classes(E))


def test_extension_only_guards():
    for fn in (f_image_classes, index_FEsq, count_agreeing_extensions):
        with pytest.raises(BaseFieldInput):
            fn(Q5)
