"""Spec parsing, report plumbing, and the command line surface."""

import contextlib
import hashlib
import io
import json
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from kubota_meta import suites
from kubota_meta.cli import main
from kubota_meta.errors import (
    BaseFieldInput,
    DIsSquare,
    EvenResidueCharUnsupported,
    NotPrime,
    ParseError,
)
from kubota_meta.local_field import format_element, make_field
from kubota_meta.parsing import (
    parse_element,
    parse_field_spec,
    parse_matrix,
    parse_matrix_entries,
)
from kubota_meta.suites import Check, RunConfig, run_suite

Q5 = make_field(5)
E5U = make_field(5, ("unram", 2))


# ---------------------------------------------------------------------------
# parsers


def test_parse_field_spec_good():
    assert parse_field_spec("Qp(5)") == Q5
    assert parse_field_spec("  Qp(5)[unram:2] ") == E5U
    assert parse_field_spec("Qp(3)[ram:3]") == make_field(3, ("ram", 3))
    assert parse_field_spec("Qp(5)[ram:1/5]").d == 5
    assert parse_field_spec("Qp(7)[unram:-1]").d == -1


@pytest.mark.parametrize(
    "spec, exc",
    [
        ("Qp(2)", EvenResidueCharUnsupported),
        ("Qp(9)", NotPrime),
        ("Qp(5)[unram:4]", DIsSquare),
        ("Qp(5)[ram:2]", ParseError),      # even-valuation d is unramified data
        ("Qp(5)[unram:2/0]", ParseError),
        ("Q5", ParseError),
        ("", ParseError),
        ("Qp(5)[unram:2", ParseError),
        ("Qp(5)[weird:2]", ParseError),
        ("Qp(-3)", ParseError),            # sign not part of the grammar
    ],
)
def test_parse_field_spec_bad(spec, exc):
    with pytest.raises(exc):
        parse_field_spec(spec)


def test_parse_element_forms():
    assert parse_element(Q5, "5") == Q5.elt(5)
    assert parse_element(Q5, "-3/2") == Q5.elt(Fraction(-3, 2))
    assert parse_element(Q5, "1+2") == Q5.elt(3)
    assert parse_element(E5U, "sqrt") == E5U.elt(0, 1)
    assert parse_element(E5U, "-sqrt") == E5U.elt(0, -1)
    assert parse_element(E5U, "2*sqrt") == E5U.elt(0, 2)
    assert parse_element(E5U, "-1/2*sqrt") == E5U.elt(0, Fraction(-1, 2))
    assert parse_element(E5U, "3-1/2*sqrt") == E5U.elt(3, Fraction(-1, 2))
    assert parse_element(E5U, " 2 + sqrt ") == E5U.elt(2, 1)


@pytest.mark.parametrize(
    "field, text",
    [
        (Q5, "sqrt"),          # no root downstairs
        (Q5, ""),
        (Q5, "abc"),
        (Q5, "1/0"),
        (Q5, "++1"),
        (E5U, "sqrt*2"),
        (Q5, "1.5"),
        (Q5, "1e3"),
        (Q5, "1e1000000000"),  # Fraction would expand the exponent
        (E5U, "1.5*sqrt"),
        (E5U, "2sqrt"),        # a coefficient needs its *
        (E5U, "2**sqrt"),
        (E5U, "1/2sqrt"),
        (E5U, "*sqrt"),
        (E5U, "3-*sqrt"),
    ],
)
def test_parse_element_bad(field, text):
    with pytest.raises(ParseError):
        parse_element(field, text)


def test_element_format_parse_roundtrip():
    samples = [Q5.elt(Fraction(-7, 3)), Q5.elt(0), E5U.elt(1, -1),
               E5U.elt(0, Fraction(2, 5)), E5U.elt(Fraction(-1, 2), -3)]
    for x in samples:
        assert parse_element(x.field, format_element(x)) == x


def test_parse_matrix():
    g = parse_matrix(Q5, "[[1,2],[3,4]]")
    assert g.entries() == (Q5.elt(1), Q5.elt(2), Q5.elt(3), Q5.elt(4))
    g = parse_matrix(E5U, "[[sqrt, 0], [1, 2+sqrt]]")
    assert g.a == E5U.elt(0, 1)
    for bad in ("[1,2]", "[[1,2],[3,4],[5,6]]", "[[1,2],[3]]", "[[1,2],[2,4]]"):
        with pytest.raises(ParseError):
            parse_matrix(Q5, bad)
    assert len(parse_matrix_entries(Q5, "[[0,0],[0,0]]")) == 4  # no det check


# ---------------------------------------------------------------------------
# config and report plumbing


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig("Qp(5)", trials=0)
    with pytest.raises(ValueError):
        RunConfig("Qp(5)", height=0)


def test_run_suite_name_guard():
    with pytest.raises(ValueError):
        run_suite(RunConfig("Qp(5)", trials=2), "frobenius")
    # the names come from the check registry, in order of first registration
    with pytest.raises(ValueError) as exc:
        run_suite(RunConfig("Qp(5)"), "nope")
    assert str(exc.value) == (
        "unknown suite 'nope'; expected one of "
        "('cocycle', 'split', 'hilbert', 'omega', 'weil', 'packets', 'all')")


def test_report_shape_and_determinism():
    cfg = RunConfig("Qp(5)", trials=4, seed=9)
    r1 = run_suite(cfg, "hilbert")
    r2 = run_suite(cfg, "hilbert")
    assert r1.to_dict() == r2.to_dict()
    d = r1.to_dict()
    assert d["schema"] == 1
    assert d["command"] == "suite:hilbert"
    assert d["pass"] is True
    assert d["config"] == {"field": "Qp(5)", "trials": 4, "seed": 9, "height": 50}
    names = [c["name"] for c in d["checks"]]
    assert names == sorted(names)
    assert all("elapsed_ms" not in c for c in d["checks"])
    assert all("elapsed_ms" in c for c in r1.to_dict(timings=True)["checks"])


# every check of the registry with its trial count at trials=3: randomized
# checks run 3 trials, exhaustive ones their fixed number of cases
REGISTRY_AT_3 = {
    "cocycle_borel_formula": 3,
    "cocycle_commutator_center": 3,
    "cocycle_identity": 3,
    "cocycle_meta_group_laws": 3,
    "cocycle_sl2_triples": 3,
    "split_gl2f": 3,
    "split_unipotent": 3,
    "hilbert_bilinear": 3,
    "hilbert_f_pairs_trivial": 3,
    "hilbert_nondegenerate": 4,
    "hilbert_norm_compat": 3,
    "hilbert_square_class_invariance": 3,
    "hilbert_steinberg": 3,
    "hilbert_symmetric": 3,
    "omega_chi_quadratic": 3,
    "omega_image_subgroup": 1,
    "omega_index_agreement": 1,
    "omega_torsor_shape": 1,
    "omega_twist_action": 4,
    "weil_central_sign_twist": 3,
    "weil_chi_genuine": 1,
    "weil_chi_multiplicative": 3,
    "weil_conductor": 3,
    "weil_product_relation": 16,
    "weil_square_class_invariance": 3,
    "weil_unit_euler_sign": 3,
    "packets_complementary_partition": 8,
    "packets_epsilon_sign_chain": 8,
    "packets_model_arithmetic": 10,
    "packets_not_discrete_guard": 1,
    "packets_orbit_bijection": 1,
    "packets_orbit_conjugation": 3,
    "packets_waldspurger_flags": 5,
    "packets_whittaker_trace": 3,
}
EXTENSION_ONLY = {"split_gl2f", "split_unipotent", "hilbert_f_pairs_trivial",
                  "hilbert_norm_compat", "omega_image_subgroup", "omega_index_agreement"}


@pytest.mark.parametrize("spec, total", [("Qp(5)", 28), ("Qp(5)[ram:5]", 34)])
def test_check_registry_shape(spec, total):
    is_extension = "[" in spec
    expected = {name: trials for name, trials in REGISTRY_AT_3.items()
                if is_extension or name not in EXTENSION_ONLY}
    cfg = RunConfig(spec, trials=3)
    got = {c.name: c.trials for c in run_suite(cfg, "all").checks}
    assert got == expected and len(got) == total
    for suite in ("cocycle", "split", "hilbert", "omega", "weil", "packets"):
        if suite == "split" and not is_extension:
            with pytest.raises(BaseFieldInput):
                run_suite(cfg, suite)
            continue
        got = {c.name: c.trials for c in run_suite(cfg, suite).checks}
        assert got == {name: trials for name, trials in expected.items()
                       if name.startswith(suite + "_")}, suite


# ---------------------------------------------------------------------------
# command line, value mode


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_cli_hilbert_value(capsys):
    rc, out, _ = run_cli(capsys, "hilbert", "--field", "Qp(5)", "2", "5")
    assert rc == 0
    d = json.loads(out)
    assert d == {"schema": 1, "command": "hilbert", "field": "Qp(5)",
                 "x": "2", "y": "5", "value": -1}
    rc, out, _ = run_cli(capsys, "hilbert", "--field", "Qp(5)",
                         "--format", "text", "2", "5")
    assert (rc, out) == (0, "-1\n")
    rc, out, _ = run_cli(capsys, "hilbert", "--field", "Qp(5)",
                         "--format", "csv", "4", "5")
    assert out == "command,field,x,y,value\nhilbert,Qp(5),4,5,1\n"


def test_cli_hilbert_needs_both_or_neither(capsys):
    rc, _, err = run_cli(capsys, "hilbert", "--field", "Qp(5)", "2")
    assert rc == 2
    assert err.startswith("error:")


def test_cli_cocycle_value(capsys):
    rc, out, _ = run_cli(capsys, "cocycle", "--field", "Qp(3)",
                         "--format", "text", "[[0,1],[-1,0]]", "[[0,1],[-1,0]]")
    assert (rc, out) == (0, "+1\n")
    rc, out, _ = run_cli(capsys, "cocycle", "--field", "Qp(5)",
                         "[[2,0],[0,1]]", "[[1,0],[0,5]]")
    assert json.loads(out)["value"] == -1
    rc, _, err = run_cli(capsys, "cocycle", "--field", "Qp(5)",
                         "[[1,2],[2,4]]", "[[1,0],[0,1]]")
    assert rc == 2 and "singular" in err


def test_cli_weil_value(capsys):
    rc, out, _ = run_cli(capsys, "weil", "--field", "Qp(5)",
                         "--format", "text", "2")
    assert (rc, out) == (0, "4/8\n")
    rc, out, _ = run_cli(capsys, "weil", "--field", "Qp(5)", "2",
                         "--psi-scale", "5")
    d = json.loads(out)
    assert d["gamma"] == "0/8" and d["gamma_eighths"] == 0
    assert d["psi_scale"] == "5"
    # scale flag is meaningless for the randomized suite
    rc, _, err = run_cli(capsys, "weil", "--field", "Qp(5)",
                         "--psi-scale", "5")
    assert rc == 2 and "psi-scale" in err


def test_cli_weil_value_past_the_grid_limit(capsys):
    rc, out, _ = run_cli(capsys, "weil", "--field", "Qp(331)",
                         "--format", "text", "2")
    assert (rc, out) == (0, "4/8\n")


def test_cli_runs_without_numpy():
    # a None entry makes any import of numpy raise, in the CLI and in the
    # Gauss sum alike
    code = ("import sys; sys.modules['numpy'] = None; "
            "from fractions import Fraction; from kubota_meta.cli import main; "
            "from kubota_meta.local_field import make_field; "
            "from kubota_meta.weil import gauss_sum, standard_char; "
            "q5 = make_field(5); "
            "g = gauss_sum(standard_char(q5), q5.elt(Fraction(1, 5)), 1); "
            "assert abs(g - 5 ** 0.5) < 1e-9, g; "
            "rc = [main(['weil', '--field', 'Qp(5)', '--trials', '20']), "
            "main(['selftest-all', '--trials', '1'])]; "
            "sys.exit(max(rc))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True)
    assert proc.returncode == 0, proc.stderr.decode()[-500:]


P61 = 2**61 - 1


def test_cli_field_primes_up_to_the_proven_bound(capsys):
    rc, out, _ = run_cli(capsys, "hilbert", "--field", f"Qp({P61})",
                         "--format", "text", "2", "3")
    assert (rc, out) == (0, "+1\n")
    # 2^89 - 1 is prime, but past the bound where Miller-Rabin is exact
    rc, _, err = run_cli(capsys, "hilbert", "--field", f"Qp({2**89 - 1})", "2", "3")
    assert rc == 2 and err.startswith("error:") and "proven" in err


@pytest.mark.parametrize("spec", [f"Qp({P61})", f"Qp({P61})[ram:{P61}]", f"Qp({P61})[unram:3]"])
def test_suites_pass_at_a_61_bit_prime(spec):
    cfg = RunConfig(spec, trials=3)
    for suite in ("hilbert", "cocycle", "weil", "packets"):
        assert run_suite(cfg, suite).passed, suite


def test_cli_orbit(capsys):
    rc, out, _ = run_cli(capsys, "orbit", "--field", "Qp(5)",
                         "--format", "text", "[[0,0],[10,0]]")
    assert (rc, out) == (0, "10\n")
    # upper corner b maps to the class of -b; here -10 is again class 10
    rc, out, _ = run_cli(capsys, "orbit", "--field", "Qp(5)",
                         "--format", "text", "[[0,10],[0,0]]")
    assert (rc, out) == (0, "10\n")
    rc, out, _ = run_cli(capsys, "orbit", "--field", "Qp(5)",
                         "--format", "text", "[[5,5],[-5,-5]]")
    assert (rc, out) == (0, "5\n")
    rc, _, err = run_cli(capsys, "orbit", "--field", "Qp(5)", "[[1,0],[0,1]]")
    assert rc == 2 and err.startswith("error:")


def test_cli_indices(capsys):
    rc, out, _ = run_cli(capsys, "indices", "--field", "Qp(7)[ram:7]")
    assert rc == 0
    d = json.loads(out)
    assert (d["square_classes"], d["index_norm_image"],
            d["agreeing_characters"], d["pass"]) == (4, 2, 2, True)
    rc, _, err = run_cli(capsys, "indices", "--field", "Qp(5)")
    assert rc == 2 and "extension" in err


def test_cli_multiplicity_table_golden_csv(capsys):
    rc, out, _ = run_cli(capsys, "multiplicity-table", "--field", "Qp(3)",
                         "--format", "csv")
    assert rc == 0
    assert out == (
        "S,discrete,m,m1,m2,product\n"
        "1,true,1,8,1,8\n"
        "1,false,1,4,1,4\n"
        "1+2,true,2,4,2,8\n"
        "1+2,false,2,2,2,4\n"
        "1+3,true,1,4,2,8\n"
        "1+6,true,1,4,2,8\n"
        "1+2+3+6,true,2,2,4,8\n"
    )


def test_cli_multiplicity_table_golden_text(capsys):
    rc, out, _ = run_cli(capsys, "multiplicity-table", "--field", "Qp(3)",
                         "--format", "text")
    assert rc == 0
    assert out == (
        "S=1 discrete=true m=1 m1=8 m2=1 product=8\n"
        "S=1 discrete=false m=1 m1=4 m2=1 product=4\n"
        "S=1+2 discrete=true m=2 m1=4 m2=2 product=8\n"
        "S=1+2 discrete=false m=2 m1=2 m2=2 product=4\n"
        "S=1+3 discrete=true m=1 m1=4 m2=2 product=8\n"
        "S=1+6 discrete=true m=1 m1=4 m2=2 product=8\n"
        "S=1+2+3+6 discrete=true m=2 m1=2 m2=4 product=8\n"
    )


def test_cli_multiplicity_table_json(capsys):
    rc, out, _ = run_cli(capsys, "multiplicity-table", "--field", "Qp(5)")
    d = json.loads(out)
    assert rc == 0 and d["schema"] == 1
    # -1 is a square: every subgroup admits both flags, so 10 rows
    assert len(d["rows"]) == 10
    for row in d["rows"]:
        assert row["product"] == (8 if row["discrete"] else 4)


# ---------------------------------------------------------------------------
# command line, exit codes and output stability


def test_emit_report_exit_codes(capsys, monkeypatch):
    broken = Check("hilbert_broken", lambda run, rng: "w1")
    monkeypatch.setattr(suites, "CHECKS", [broken])
    argv = ("hilbert", "--field", "Qp(5)", "--trials", "2")
    rc, out, _ = run_cli(capsys, *argv, "--format", "text")
    assert rc == 1
    assert "FAIL" in out and "witness: w1" in out
    rc, out, _ = run_cli(capsys, *argv, "--format", "csv")
    assert rc == 1 and "hilbert_broken,2,2,w1 | w1" in out
    rc, out, _ = run_cli(capsys, "selftest-all", "--trials", "1", "--format", "csv")
    assert rc == 1 and "Qp(3),hilbert_broken,1,1\n" in out
    monkeypatch.setattr(suites, "CHECKS", [Check("hilbert_ok", lambda run, rng: None)])
    rc, out, _ = run_cli(capsys, *argv, "--format", "text")
    assert rc == 0
    assert "PASS" in out and "FAIL" not in out


# sha256 of stdout (its first 16 hex digits) in json, csv and text format;
# every one of these runs exits 0 and writes nothing to stderr
CLI_OUTPUT = {
    "hilbert --field Qp(5) 2 5": (
        "83d16265cde411af", "d25349fbdc87e4fb", "ee3aa64bb94a5084"),
    "hilbert --field Qp(5)[unram:2] sqrt 5/3": (
        "43445cca29d2dd01", "c8f4d9be60019c54", "ee3aa64bb94a5084"),
    "hilbert --field Qp(5) --trials 3": (
        "1e6f112c14e119ca", "f33d641d9cefb7d9", "8dff6fbc4e661b66"),
    "cocycle --field Qp(5) [[2,0],[0,1]] [[1,0],[0,5]]": (
        "be0c2288fc4215f1", "04d2ed38cab5d33e", "ee3aa64bb94a5084"),
    "cocycle --field Qp(5)[unram:2] --trials 3 --seed 4": (
        "e972d000a9669fd8", "eb721ec412a3bf4f", "da47794261462e08"),
    "split-check --field Qp(5)[ram:5] --trials 3": (
        "64c8efb78d390111", "81ead03e1028930c", "17dcf64b08164f2c"),
    "omega --field Qp(3)[unram:2] --trials 3": (
        "97a7960ff815a3f1", "23d448227c5eaa2c", "788fc3ee89982150"),
    "indices --field Qp(7)[ram:7]": (
        "e2c0b16f4c53ab03", "e83693bacd7ea0fc", "c3296226ae0f3675"),
    "weil --field Qp(5)[unram:2] 1+sqrt --psi-scale 5": (
        "09d239494607ce45", "5652dd8381d40930", "569da672de91826b"),
    "weil --field Qp(7) --trials 3 --height 5": (
        "5de082fbdb1ae14c", "12d7f9e40d5fc1ee", "e2eaf511bbf190a8"),
    "multiplicity-table --field Qp(3)": (
        "00d48c1e85602e50", "da26ce08ee7e9f63", "4c432f73aae4c361"),
    "multiplicity-table --field Qp(5)[ram:5]": (
        "a2d801ff84bedbd8", "b436b5ef15d69a69", "6795cd6340085058"),
    "packet-check --field Qp(5)[ram:5] --trials 3": (
        "432f06eff0c12a55", "ea639aa452ebfa45", "1727ca58611b6504"),
    "orbit --field Qp(5) [[0,0],[10,0]]": (
        "e29232592365f084", "5268ff9063b2e8f5", "917df3320d778ddb"),
    "selftest-all --trials 2 --seed 3": (
        "899efc2343fbadca", "8ee41638cb4e328f", "5a3206b9274ff543"),
}
# each of these exits 2 in every format, writes nothing to stdout and
# this one line to stderr
CLI_ERRORS = {
    "hilbert --field Qp(5) 2":
        "error: hilbert needs both x and y, or neither\n",
    "hilbert --field Qp(2) --trials 2":
        "error: in field spec 'Qp(2)': p = 2 is not supported\n",
    "cocycle --field Qp(5) [[1,2],[2,4]] [[1,0],[0,1]]":
        "error: matrix '[[1,2],[2,4]]' is singular\n",
    "weil --field Qp(5) --psi-scale 5":
        "error: --psi-scale only applies to a single evaluation\n",
    "orbit --field Qp(5) [[1,0],[0,1]]":
        "error: trace must vanish\n",
    "indices --field Qp(5)":
        "error: image computation needs a quadratic extension\n",
    "omega --field Qp(5) --trials 0":
        "error: trials must be at least 1\n",
    "hilbert --field Qp(5) 2 5 --trials -1 --height 0 --timings":
        "error: --trials only applies to a suite run\n",
    "hilbert --field Qp(5) 2 5 --timings":
        "error: --timings only applies to a suite run\n",
    "cocycle --field Qp(5) [[2,0],[0,1]] [[1,0],[0,5]] --seed 0":
        "error: --seed only applies to a suite run\n",
    "weil --field Qp(5) 2 --height 50":
        "error: --height only applies to a suite run\n",
}


def test_cli_output_is_unchanged(capsys, monkeypatch):
    monkeypatch.delenv("KUBOTA_META_SEED", raising=False)
    want, got = {}, {}
    for argv, digests in CLI_OUTPUT.items():
        for fmt, digest in zip(("json", "csv", "text"), digests):
            want[argv, fmt] = (0, digest, "")
    for argv, err in CLI_ERRORS.items():
        for fmt in ("json", "csv", "text"):
            want[argv, fmt] = (2, hashlib.sha256(b"").hexdigest()[:16], err)
    for argv, fmt in want:
        rc, out, err = run_cli(capsys, *argv.split(), "--format", fmt)
        got[argv, fmt] = (rc, hashlib.sha256(out.encode()).hexdigest()[:16], err)
    assert got == want


@pytest.mark.parametrize("argv", [
    "indices --field Qp(7)[ram:7] --trials 3",
    "multiplicity-table --field Qp(3) --seed 1",
    "orbit --field Qp(5) [[0,0],[10,0]] --height 5",
    "orbit --field Qp(5) [[0,0],[10,0]] --timings",
])
def test_cli_suite_flags_are_not_options_where_no_suite_runs(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv.split())
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert "unrecognized arguments: --" in captured.err


# ---------------------------------------------------------------------------
# command line, suite mode


def test_cli_suite_run_and_seed_plumbing(capsys, monkeypatch):
    args = ("cocycle", "--field", "Qp(5)", "--trials", "3")
    rc, out1, _ = run_cli(capsys, *args, "--seed", "1")
    assert rc == 0
    d = json.loads(out1)
    assert d["command"] == "suite:cocycle"
    assert d["config"]["seed"] == 1 and d["config"]["trials"] == 3
    assert d["pass"] is True and len(d["checks"]) >= 4
    rc, out2, _ = run_cli(capsys, *args, "--seed", "1")
    assert out2 == out1                        # byte determinism
    monkeypatch.setenv("KUBOTA_META_SEED", "7")
    rc, out3, _ = run_cli(capsys, *args)
    assert json.loads(out3)["config"]["seed"] == 7
    rc, out4, _ = run_cli(capsys, *args, "--seed", "1")
    assert out4 == out1                        # explicit seed beats the env
    monkeypatch.setenv("KUBOTA_META_SEED", "abc")
    rc, _, err = run_cli(capsys, *args)
    assert rc == 2 and "KUBOTA_META_SEED" in err


def test_cli_split_check_needs_extension(capsys):
    rc, out, _ = run_cli(capsys, "split-check", "--field", "Qp(5)[ram:5]",
                         "--trials", "3")
    assert rc == 0 and json.loads(out)["pass"] is True
    rc, _, err = run_cli(capsys, "split-check", "--field", "Qp(5)", "--trials", "3")
    assert rc == 2 and err.startswith("error:")


def test_cli_packet_check_covers_ramified_minus_one_square(capsys):
    # regression: the support {u, pi} complement used to pick the identity
    rc, out, _ = run_cli(capsys, "packet-check", "--field", "Qp(5)[ram:5]",
                         "--trials", "3")
    assert rc == 0 and json.loads(out)["pass"] is True


def test_cli_omega_text_format(capsys):
    rc, out, _ = run_cli(capsys, "omega", "--field", "Qp(3)", "--trials", "3",
                         "--format", "text")
    assert rc == 0
    assert out.strip().endswith("overall: PASS")
    assert "FAIL" not in out


def test_cli_bad_field_is_a_usage_error(capsys):
    rc, _, err = run_cli(capsys, "hilbert", "--field", "Qp(2)", "--trials", "2")
    assert rc == 2 and err.startswith("error:")
    rc, _, err = run_cli(capsys, "hilbert", "--field", "nope", "--trials", "2")
    assert rc == 2 and "field spec" in err


def test_cli_requires_a_subcommand():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        main(["not-a-command"])


def test_cli_timings_flag_adds_elapsed(capsys):
    rc, out, _ = run_cli(capsys, "hilbert", "--field", "Qp(5)", "--trials", "2",
                         "--timings")
    assert rc == 0
    assert all("elapsed_ms" in c for c in json.loads(out)["checks"])


# ---------------------------------------------------------------------------
# command line, fuzzed argv

# positional arguments each subcommand takes when it evaluates one value
FUZZ_ARITY = {"hilbert": 2, "cocycle": 2, "split-check": 0, "omega": 0, "indices": 0,
              "weil": 1, "multiplicity-table": 0, "packet-check": 0, "orbit": 1,
              "selftest-all": 0}
# subcommands that never run a suite and take no suite flags
NO_SUITE = {"indices", "multiplicity-table", "orbit"}
GOOD_SPECS = ["Qp(3)", "Qp(5)[unram:2]", "Qp(5)[ram:5]", "Qp(7)[ram:-7]"]
BAD_SPECS = ["Qp(2)", "Qp(9)", "Qp(5)[unram:4]", "Qp(3)[ram:0]", "Qp(5)[ram:2]",
             "nope", "", f"Qp({2**89 - 1})"]
LITERALS = ["2", "-3/5", "0", "sqrt", "1+2*sqrt", "2sqrt", "1/0", "abc", "1e3", "",
            "[[1,2],[3,4]]", "[[0,1],[0,0]]", "[[1,2],[2,4]]", "[[0,0],[0,0]]",
            "[[1,2]]", "[[sqrt,0],[0,1]]", "[[0,5],[0,0]]"]
SMALL = ["-1", "0", "1", "2"]


def _mostly(good: list, bad: list):
    """Draw from ``good`` three times as often as from ``bad``."""
    return st.sampled_from(good * 3 * max(1, len(bad)) + bad * len(good))


@st.composite
def fuzzed_argv(draw):
    command = draw(st.sampled_from(sorted(FUZZ_ARITY)))
    arity = FUZZ_ARITY[command]
    argv = [command]
    positional = draw(st.lists(st.sampled_from(LITERALS), min_size=arity, max_size=arity)
                      | st.lists(st.sampled_from(LITERALS), max_size=3))
    argv += positional
    # every subcommand but selftest-all needs --field; now and then flip that
    if (command != "selftest-all") != draw(_mostly([False], [True])):
        argv += ["--field", draw(_mostly(GOOD_SPECS, BAD_SPECS))]
    # the suite flags belong to a suite run; now and then flip that
    suite_run = command not in NO_SUITE and not (arity and positional)
    if suite_run != draw(_mostly([False], [True])):
        argv += ["--trials", draw(_mostly(["1", "2"], ["-1", "0"]))]
        height = draw(_mostly([None, "1", "2"], ["-1", "0"]))
        if height is not None:
            argv += ["--height", height]
        argv += draw(_mostly([[], ["--timings"], ["--seed", "-3"]], [["--trials"]]))
    argv += ["--format", draw(_mostly(["json", "csv", "text"], ["xml"]))]
    argv += draw(_mostly([[]], [["--psi-scale", "5"], ["--psi-scale", "0"]]))
    return argv


@settings(max_examples=200)
@given(fuzzed_argv())
def test_cli_exit_codes_under_fuzzed_argv(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as e:       # argparse rejects the argv
            rc = e.code
    assert rc in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue(), argv
    if rc == 2 and not err.getvalue().startswith("usage:"):
        assert err.getvalue().startswith("error:") and err.getvalue().count("\n") == 1
