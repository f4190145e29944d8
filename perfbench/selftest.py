"""selftest: the standard battery, ``kubota-meta selftest-all``, as users run it.

One round is one battery at the CLI's default trials and height, run through
``cli.main`` with stdout captured; its seed is drawn from the benchmark seed.
The checks read the battery's JSON report and recompute two seeded samples
with the reference code in ``oracle``.
"""

from __future__ import annotations

import contextlib
import io
import json
import random

import oracle
from common import HEIGHT, draw_ints, field_tuple, mat_coords

from kubota_meta import cli, kubota
from kubota_meta.hilbert import hilbert
from kubota_meta.local_field import FieldElement
from kubota_meta.parsing import parse_field_spec

TRIALS = 1000  # the CLI default
BASE_SPECS = ("Qp(3)", "Qp(5)", "Qp(7)")
EXT_SPECS = ("Qp(3)[unram:2]", "Qp(3)[ram:3]", "Qp(5)[unram:2]", "Qp(5)[ram:5]",
             "Qp(7)[unram:3]", "Qp(7)[ram:7]")
INDEX_SPECS = ("Qp(13)[unram:2]", "Qp(13)[ram:13]")

# check name -> fixed exhaustive size, or None for a randomized check that
# runs TRIALS trials; split by the field kinds each check applies to
ALL_FIELDS = {
    "cocycle_identity": None, "cocycle_sl2_triples": None,
    "cocycle_borel_formula": None, "cocycle_meta_group_laws": None,
    "cocycle_commutator_center": None,
    "hilbert_bilinear": None, "hilbert_symmetric": None,
    "hilbert_square_class_invariance": None, "hilbert_steinberg": None,
    "hilbert_nondegenerate": 4,
    "omega_torsor_shape": 1, "omega_twist_action": 4, "omega_chi_quadratic": None,
    "weil_conductor": None, "weil_square_class_invariance": None,
    "weil_unit_euler_sign": None, "weil_product_relation": 16, "weil_chi_genuine": 1,
    "weil_chi_multiplicative": None, "weil_central_sign_twist": None,
    "packets_model_arithmetic": 10, "packets_waldspurger_flags": 5,
    "packets_not_discrete_guard": 1, "packets_complementary_partition": 8,
    "packets_epsilon_sign_chain": 8, "packets_whittaker_trace": None,
    "packets_orbit_conjugation": None, "packets_orbit_bijection": 1,
}
EXTENSION_ONLY = {
    "split_gl2f": None, "split_unipotent": None,
    "hilbert_f_pairs_trivial": None, "hilbert_norm_compat": None,
    "omega_image_subgroup": 1, "omega_index_agreement": 1,
}
OMEGA_EXT = {n: v for n, v in {**ALL_FIELDS, **EXTENSION_ONLY}.items()
             if n.startswith("omega_")}

SAMPLE_PAIRS = 40  # per field, for the Hilbert and cocycle samples


def expected_battery(trials: int = TRIALS) -> list:
    """(field spec, {check name: trials}) in the battery's report order."""
    def sized(table):
        return {n: trials if v is None else v for n, v in table.items()}
    return ([(s, sized(ALL_FIELDS)) for s in BASE_SPECS]
            + [(s, sized({**ALL_FIELDS, **EXTENSION_ONLY})) for s in EXT_SPECS]
            + [(s, sized(OMEGA_EXT)) for s in INDEX_SPECS])


def check_battery(doc: dict, rc: int, seed: int, trials: int = TRIALS) -> list:
    """Problems with one battery's exit code and JSON report (with or
    without ``--timings``)."""
    problems = []
    if rc != 0 or doc.get("pass") is not True:
        problems.append(f"battery seed {seed}: exit {rc}, pass={doc.get('pass')}")
    if doc.get("config") != {"trials": trials, "seed": seed, "height": HEIGHT}:
        problems.append(f"battery seed {seed}: config {doc.get('config')}")
    expected = expected_battery(trials)
    reports = doc.get("reports", [])
    got_specs = [r["config"]["field"] for r in reports]
    if got_specs != [s for s, _ in expected]:
        problems.append(f"battery seed {seed}: fields {got_specs}")
        return problems
    for report, (spec, checks) in zip(reports, expected):
        names = {c["name"]: c for c in report["checks"]}
        if set(names) != set(checks):
            problems.append(f"{spec}: check names differ by "
                            f"{sorted(set(names) ^ set(checks))}")
        for name, c in names.items():
            if c["failures"] or c["witnesses"]:
                problems.append(f"{spec} {name}: {c['failures']} failures")
            if name in checks and c["trials"] != checks[name]:
                problems.append(f"{spec} {name}: {c['trials']} trials, "
                                f"expected {checks[name]}")
    return problems


def trials_in(doc: dict) -> tuple:
    checks = [c for r in doc.get("reports", []) for c in r["checks"]]
    return sum(c["trials"] for c in checks), sum(c["failures"] for c in checks)


def suite_ms(doc: dict) -> dict:
    """Per-suite elapsed milliseconds from a ``--timings`` report."""
    out = {}
    for r in doc["reports"]:
        for c in r["checks"]:
            suite = c["name"].split("_", 1)[0]
            out[suite] = out.get(suite, 0.0) + c["elapsed_ms"]
    return out


# -- the seeded samples ------------------------------------------------------


def _element(rng, field):
    while True:
        ints = draw_ints(rng, field.is_extension)
        if ints[0] or ints[1]:
            return ints


def hilbert_sample(seed: int) -> list:
    """(spec, x, y, library symbol, reference symbol) on the base fields,
    with p-power factors so that every valuation parity occurs."""
    rng = random.Random(seed ^ 0x48494C42)
    rows = []
    for spec in BASE_SPECS:
        field = parse_field_spec(spec)
        for _ in range(SAMPLE_PAIRS):
            A, _, D = _element(rng, field)
            B, _, E = _element(rng, field)
            x = FieldElement.from_ints(field, A * field.p ** rng.randint(0, 3), 0,
                                       D * field.p ** rng.randint(0, 3))
            y = FieldElement.from_ints(field, B * field.p ** rng.randint(0, 3), 0,
                                       E * field.p ** rng.randint(0, 3))
            rows.append((spec, x.a, y.a, hilbert(x, y),
                         oracle.tame_symbol((x.a, x.b), (y.a, y.b), field_tuple(field))))
    return rows


def beta_sample(seed: int) -> list:
    """(spec, g1, g2, library beta, beta composed from the displayed maps)
    on every battery field except the index-only ones."""
    rng = random.Random(seed ^ 0x42455441)
    rows = []
    for spec in BASE_SPECS + EXT_SPECS:
        field = parse_field_spec(spec)
        mats = []
        while len(mats) < 2 * SAMPLE_PAIRS:
            ents = [FieldElement.from_ints(field, *_element(rng, field)) for _ in range(4)]
            if rng.random() < 0.25:
                ents[2] = field.zero()
            if not (ents[0] * ents[3] - ents[1] * ents[2]).is_zero():
                mats.append(kubota.Mat2(field, *ents))
        for g1, g2 in zip(mats[::2], mats[1::2]):
            c1, c2 = mat_coords(g1), mat_coords(g2)
            rows.append((spec, c1, c2, kubota.beta(g1, g2),
                         oracle.beta(c1, c2, field_tuple(field))))
    return rows


def check_sample(rows: list, what: str) -> list:
    return [f"{what} {r[0]}: library {r[3]}, reference {r[4]} at {r[1]!r}, {r[2]!r}"
            for r in rows if r[3] != r[4]]


# -- workload interface ------------------------------------------------------


class Workload:
    """Whole batteries until the time is up; battery i has a seed drawn
    from (seed, i)."""

    fixed_rounds = None
    traced_rounds = 1

    def __init__(self, seed: int, seconds: float):
        self.seed = seed
        self.outputs = []  # (battery seed, exit code, report)

    def run_round(self, index: int, traced: bool = False) -> dict:
        """One battery; traced batteries add ``--timings`` for the suite times."""
        battery_seed = random.Random(self.seed * 1_000_003 + index).getrandbits(32)
        argv = ["selftest-all", "--seed", str(battery_seed)]
        if traced:
            argv.append("--timings")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = cli.main(argv)
        doc = json.loads(out.getvalue())
        self.outputs.append((battery_seed, rc, doc))
        trials, failures = trials_in(doc)
        return {"attempted": trials, "failed": failures, "done": trials - failures}

    def suite_ms(self) -> dict:
        return suite_ms(self.outputs[0][2])

    def check(self) -> list:
        problems = []
        for battery_seed, rc, doc in self.outputs:
            problems += check_battery(doc, rc, battery_seed)
        problems += check_sample(hilbert_sample(self.seed), "hilbert")
        problems += check_sample(beta_sample(self.seed), "beta")
        return problems

    @staticmethod
    def rate(rounds: list, key: str) -> float:
        """Check trials completed per second of ``key`` over the batteries."""
        return sum(r["done"] for r in rounds) / sum(r[key] for r in rounds)
