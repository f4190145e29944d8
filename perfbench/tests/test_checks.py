"""Each correctness check of the benchmark passes on real outputs and
fails when a single value it checks is flipped."""

import contextlib
import copy
import io
import json
import random

import pytest

import cover_words
import oracle
import selftest
import weil_cold
from common import coords, field_tuple, mat_coords
from kubota_meta import cli, kubota, weil
from kubota_meta.local_field import make_field
from kubota_meta.parsing import parse_field_spec

# -- selftest -------------------------------------------------------------------

SMALL_TRIALS = 3


@pytest.fixture(scope="module")
def battery():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(["selftest-all", "--seed", "7", "--trials", str(SMALL_TRIALS)])
    return rc, json.loads(out.getvalue())


def _check(doc, rc=0):
    return selftest.check_battery(doc, rc, 7, trials=SMALL_TRIALS)


def test_battery_passes_as_run(battery):
    rc, doc = battery
    assert _check(doc, rc) == []


def test_battery_flags_a_failure(battery):
    doc = copy.deepcopy(battery[1])
    doc["reports"][4]["checks"][3]["failures"] = 1
    assert _check(doc)


def test_battery_flags_a_trial_count(battery):
    for index in (0, 4):  # a randomized check, an exhaustive one
        doc = copy.deepcopy(battery[1])
        check = doc["reports"][0]["checks"][index]
        check["trials"] += 1
        assert _check(doc), check["name"]


def test_battery_flags_the_check_names(battery):
    doc = copy.deepcopy(battery[1])
    doc["reports"][1]["checks"][2]["name"] = "split_gl2f"  # extension-only on a base field
    assert _check(doc)


def test_battery_flags_exit_status_and_pass(battery):
    assert _check(battery[1], rc=1)
    doc = copy.deepcopy(battery[1])
    doc["pass"] = False
    assert _check(doc)


@pytest.mark.parametrize("sample", [selftest.hilbert_sample, selftest.beta_sample])
def test_samples_agree_and_a_flip_shows(sample):
    rows = sample(3)
    assert rows and selftest.check_sample(rows, "x") == []
    assert {r[3] for r in rows} == {1, -1}
    flipped = list(rows)
    r = flipped[5]
    flipped[5] = r[:3] + (-r[3],) + r[4:]
    assert len(selftest.check_sample(flipped, "x")) == 1


# -- cover_words ------------------------------------------------------------------


@pytest.fixture(scope="module", params=["Qp(5)", "Qp(3)[unram:2]", "Qp(7)[ram:7]"])
def word(request):
    field = parse_field_spec(request.param)
    rng = random.Random(5)
    return field, cover_words.draw_word(rng, field, 12)


def _flip_sign(snap):
    return (snap[0], -snap[1])


def _flip_entry(snap):
    (a, b), *rest = snap[0]
    return (((a + 1, b), *rest), snap[1])


def test_folds_agree_and_flips_show(word):
    field, w = word
    left = cover_words.snapshot(cover_words.fold_left(w))
    right = cover_words.snapshot(cover_words.fold_right(w))
    assert cover_words.check_folds("f", left, right) == []
    assert cover_words.check_folds("f", left, _flip_sign(right))
    assert cover_words.check_folds("f", left, _flip_entry(right))


def test_fraction_product_agrees_and_a_flip_shows(word):
    field, w = word
    left = cover_words.snapshot(cover_words.fold_left(w))
    ref = mat_coords(w[0].g)
    for m in w[1:]:
        ref = oracle.mat_mul(ref, mat_coords(m.g), field.d)
    assert cover_words.check_matrix("f", left, ref) == []
    assert cover_words.check_matrix("f", _flip_entry(left), ref)


def test_inverse_gives_identity_and_a_flip_shows(word):
    m = cover_words.fold_left(word[1])
    prod = cover_words.snapshot(kubota.meta_mul(m, kubota.meta_inv(m)))
    assert cover_words.check_identity("f", prod) == []
    assert cover_words.check_identity("f", _flip_sign(prod))
    assert cover_words.check_identity("f", _flip_entry(prod))


@pytest.mark.parametrize("spec", ["Qp(3)", "Qp(5)[unram:2]", "Qp(3)[ram:3]"])
def test_borel_sign_matches_and_a_flip_shows(spec):
    field = parse_field_spec(spec)
    rng = random.Random(9)
    signs = set()
    for _ in range(6):
        w = cover_words.draw_word(rng, field, 10, "upper")
        got = cover_words.fold_left(w).eps
        expected = cover_words.borel_sign([mat_coords(m.g) for m in w], field_tuple(field))
        signs.add(expected)
        assert cover_words.check_sign(spec, "upper", got, expected) == []
        assert cover_words.check_sign(spec, "upper", -got, expected)
    assert signs == {1, -1}


def test_base_field_words_keep_sign_plus_one_and_a_flip_shows():
    field = parse_field_spec("Qp(3)[ram:3]")
    w = cover_words.draw_word(random.Random(2), field, 16, "rational")
    assert all(not e.b for m in w for e in m.g.entries())
    got = cover_words.fold_left(w).eps
    assert cover_words.check_sign("f", "base-field", got, 1) == []
    assert cover_words.check_sign("f", "base-field", -got, 1)


# -- weil_cold ---------------------------------------------------------------------


def _table_data(spec_args):
    field = make_field(*spec_args)
    rng = random.Random(4)
    a = weil_cold.class_members(rng, field)
    s = weil_cold.class_members(rng, field)
    tab = weil_cold.table(field, a, s)
    psi0 = weil.standard_char(field)
    prod = [[weil.weil_index(x * y, psi0).eighths for y in a] for x in a]
    gamma_p = weil.weil_index(field.elt(field.p), psi0).eighths if field.kind == "base" else None
    return [field.spec_string(), field_tuple(field), [coords(x) for x in a],
            [coords(x) for x in s], tab, prod, weil.weil_index(field.one(), psi0).eighths,
            gamma_p]


FIELDS = [(7,), (13,), (5, ("ram", 5)), (7, ("ram", 21)), (5, ("unram", 2))]


@pytest.mark.parametrize("spec_args", FIELDS)
def test_weil_table_passes_as_computed(spec_args):
    assert weil_cold.check_table(*_table_data(spec_args)) == []


def _flipped(data, where, value):
    data = copy.deepcopy(data)
    target = data
    for key in where[:-1]:
        target = target[key]
    target[where[-1]] = value(target[where[-1]])
    return data


FLIPS = {
    "gamma_one": ((6,), lambda v: (v + 4) % 8),
    "unit_sign": ((4, 1, 0), lambda v: (v + 4) % 8),
    "scaling": ((4, 3, 2), lambda v: (v + 4) % 8),
    "product": ((5, 2, 3), lambda v: (v + 4) % 8),
}


@pytest.mark.parametrize("flip", sorted(FLIPS))
@pytest.mark.parametrize("spec_args", FIELDS)
def test_weil_table_flip_shows(spec_args, flip):
    where, value = FLIPS[flip]
    assert weil_cold.check_table(*_flipped(_table_data(spec_args), where, value))


@pytest.mark.parametrize("p", [7, 13])
def test_gamma_p_closed_form_flip_shows(p):
    data = _table_data((p,))
    assert data[7] == (6 if p % 4 == 3 else 0)
    assert weil_cold.check_table(*_flipped(data, (7,), lambda v: (v + 2) % 8))


def test_gauss_sum_terms_match_and_a_flip_shows():
    field = make_field(3, ("unram", 2))
    psi0 = weil.standard_char(field)
    c = field.elt(1, 1) * field.uniformizer.inverse()
    got = weil.gauss_sum(psi0, c, 2)
    expected = oracle.gauss_sum_terms(coords(c), 2, field_tuple(field))
    assert abs(expected) > 1
    assert weil_cold.check_gauss_sum("f", 2, c, got, expected) == []
    assert weil_cold.check_gauss_sum("f", 2, c, -got, expected)
