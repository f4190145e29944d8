"""Seeded randomized and exhaustive verification suites, as one check registry.

The CLI subcommands and the acceptance tests both call `run_suite`, so a
passing command line run and a passing test run mean literally the same
checks: the entries of `CHECKS`.  A check's suite is its name up to the
first underscore.  Every randomized check draws from its own deterministic
stream, seeded from (master seed, canonical field spec, check name);
reports are therefore byte-stable for a fixed config and independent of
check order.

To add a check, write `_<suite>_<law>(run, case)` under its suite's heading:
it returns None when the law holds and a witness string when it fails.
`run` is the `_Run` of one field, holding the values all trials share.
Register it with `@_check()` for a randomized check, called `trials` times
with the check's own `SplitMix64` as `case`; or with `@_check(cases=f)` for
an exhaustive one, called once per element of `f(run)`.  Pass
`extension_only=True` to leave it out on base fields.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass, replace
from itertools import combinations, product, repeat

from .branching import (
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
from .characters import (
    chi_a_eval,
    conjugate_char,
    count_agreeing_extensions,
    f_image_classes,
    index_FEsq,
    omega_of,
)
from .errors import (
    BaseFieldInput,
    MinusOneIsSquare,
    MinusOneNotSquare,
    NotACoset,
    NotDiscrete,
    NotRamifiedClass,
)
from .hilbert import hilbert, hilbert_via_norm, pairing_table
from .kubota import (
    Mat2,
    MetaElement,
    _common,
    _det_ints,
    _mat2,
    beta,
    check_cocycle,
    commutator_pairing,
    is_split_on_GL2F,
    meta_inv,
    meta_mul,
    p_part,
)
from .local_field import (
    LocalField,
    _reduced,
    embed_base,
    square_class,
    square_class_reps,
    unit_part,
    valuation,
)
from .parsing import parse_field_spec
from .rng import SplitMix64, derive_seed
from .weil import (
    MINUS_ONE_ROOT,
    central_sign,
    chi_psi_eval,
    psi_eval,
    standard_char,
    weil_index,
)

MAX_WITNESSES = 3


@dataclass(frozen=True)
class RunConfig:
    """Knobs shared by every suite run."""

    field_spec: str
    trials: int = 1000
    seed: int = 0
    height: int = 50

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if self.height < 1:
            raise ValueError("height must be at least 1")


@dataclass
class CheckResult:
    name: str
    trials: int
    failures: int
    witnesses: list
    elapsed_ms: float

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def to_dict(self, timings: bool = False) -> dict:
        d = {
            "name": self.name,
            "trials": self.trials,
            "failures": self.failures,
            "witnesses": list(self.witnesses),
        }
        if timings:
            d["elapsed_ms"] = round(self.elapsed_ms, 3)
        return d


@dataclass
class Report:
    command: str
    config: RunConfig
    checks: list

    @property
    def passed(self) -> bool:
        return all(c.failures == 0 for c in self.checks)

    def to_dict(self, timings: bool = False) -> dict:
        return {
            "schema": 1,
            "command": self.command,
            "config": {
                "field": self.config.field_spec,
                "trials": self.config.trials,
                "seed": self.config.seed,
                "height": self.config.height,
            },
            "checks": [c.to_dict(timings) for c in self.checks],
            "pass": self.passed,
        }


@dataclass(frozen=True)
class Check:
    """One law: `holds(run, case)` is None on pass, a witness on failure.

    With no `cases` the check is randomized: `config.trials` calls, each
    given the check's own stream.  Otherwise it is exhaustive: one call per
    element of `cases(run)`.
    """

    name: str
    holds: Callable
    cases: Callable | None = None
    extension_only: bool = False

    @property
    def suite(self) -> str:
        return self.name.split("_", 1)[0]


CHECKS: list = []


def _check(cases=None, extension_only=False):
    """Register the decorated function in CHECKS under its own name."""
    def register(holds):
        CHECKS.append(Check(holds.__name__.lstrip("_"), holds, cases, extension_only))
        return holds
    return register


def _once(run):
    return range(1)


class _Run:
    """One field, the sampling height, and the values every trial of the run shares."""

    def __init__(self, field: LocalField, config: RunConfig):
        self.field = field
        self.height = config.height
        self.base = field.base()
        self.minus_one = field.elt(-1)
        self.reps = square_class_reps(field)
        self.subgroups = class_subgroups(field)
        self.omega = omega_of(field)
        self.psi = standard_char(field)
        self.ident = MetaElement(Mat2.identity(field), 1)
        # chi_psi(-1, +1): the central-sign reference
        self.chi_minus_one = chi_psi_eval(self.minus_one, 1, self.psi)


def _rng(field: LocalField, config: RunConfig, check_name: str) -> SplitMix64:
    return SplitMix64(derive_seed(config.seed, field.spec_string(), check_name))


# ---------------------------------------------------------------------------
# samplers


def _rand_entry(rng, height, base_only):
    """The ints (A, B, D) of a + b*sqrt(d), with a and b drawn as n/m, n in
    [-height, height] and m in [1, height], numerator first; b = 0 (and
    undrawn) if base_only.

    The triple is not reduced: the callers build their element or matrix
    from it directly.
    """
    n0, m0 = rng.randint(-height, height), rng.randint(1, height)
    if base_only:
        return n0, 0, m0
    n1, m1 = rng.randint(-height, height), rng.randint(1, height)
    return n0 * m1, n1 * m0, m0 * m1


def rand_element(rng, field, height, nonzero=False):
    while True:
        A, B, D = _rand_entry(rng, height, not field.is_extension)
        if not nonzero or A or B:
            return _reduced(field, A, B, D)


def rand_unit(rng, field, height):
    x = rand_element(rng, field, height, nonzero=True)
    return x * field.uniformizer ** (-valuation(x))


def rand_mat2(rng, field, height, f_rational=False):
    """A random invertible matrix, with c = 0 in a fifth of draws so the
    degenerate Kubota branch stays exercised.

    The coin is flipped before the entries, and c is drawn even when it is
    then set to 0, to keep the stream aligned across redraws.  The four
    triples go over one denominator and ``_mat2`` divides out the content,
    which gives the nine ints ``Mat2(field, a, b, c, d)`` would store; a
    singular draw is detected on the ints and drawn again.
    """
    force_c_zero = rng.chance(1, 5)
    base_only = f_rational or not field.is_extension
    while True:
        entries = [_rand_entry(rng, height, base_only) for _ in range(4)]
        if force_c_zero:
            entries[2] = (0, 0, 1)
        q = _common(entries)
        if _det_ints(field, q) != (0, 0):
            return _mat2(field, q, None)


def rand_sl2(rng, field, height):
    return p_part(rand_mat2(rng, field, height))


def rand_upper(rng, field, height):
    a = rand_element(rng, field, height, nonzero=True)
    d = rand_element(rng, field, height, nonzero=True)
    b = rand_element(rng, field, height)
    return Mat2(field, a, b, field.zero(), d)


def rand_sign(rng) -> int:
    return 1 if rng.chance(1, 2) else -1


# ---------------------------------------------------------------------------
# cocycle suite


@_check()
def _cocycle_identity(run, rng):
    g1, g2, g3 = (rand_mat2(rng, run.field, run.height) for _ in range(3))
    return None if check_cocycle(g1, g2, g3) else f"g1={g1!r} g2={g2!r} g3={g3!r}"


@_check()
def _cocycle_sl2_triples(run, rng):
    g1, g2, g3 = (rand_sl2(rng, run.field, run.height) for _ in range(3))
    return None if check_cocycle(g1, g2, g3) else f"g1={g1!r} g2={g2!r} g3={g3!r}"


@_check()
def _cocycle_borel_formula(run, rng):
    g1 = rand_upper(rng, run.field, run.height)
    g2 = rand_upper(rng, run.field, run.height)
    expected = hilbert(g1.a, g2.d)
    return None if beta(g1, g2) == expected else f"g1={g1!r} g2={g2!r} expected={expected}"


@_check()
def _cocycle_meta_group_laws(run, rng):
    ident = run.ident
    m = MetaElement(rand_mat2(rng, run.field, run.height), rand_sign(rng))
    if meta_mul(ident, m) != m or meta_mul(m, ident) != m:
        return f"identity law fails at {m!r}"
    if meta_mul(m, meta_inv(m)) != ident or meta_mul(meta_inv(m), m) != ident:
        return f"inverse law fails at {m!r}"
    return None


@_check()
def _cocycle_commutator_center(run, rng):
    z = rand_element(rng, run.field, run.height, nonzero=True)
    g = rand_mat2(rng, run.field, run.height)
    got = commutator_pairing(z, g)
    expected = hilbert(z, g.det)
    return None if got == expected else f"z={z!r} g={g!r} got={got} expected={expected}"


# ---------------------------------------------------------------------------
# split suite (extensions only: the rational subgroup of GL2 over the base)


@_check(extension_only=True)
def _split_gl2f(run, rng):
    g1 = rand_mat2(rng, run.field, run.height, f_rational=True)
    g2 = rand_mat2(rng, run.field, run.height, f_rational=True)
    return None if is_split_on_GL2F(g1, g2) else f"g1={g1!r} g2={g2!r}"


@_check(extension_only=True)
def _split_unipotent(run, rng):
    field = run.field
    one, zero = field.one(), field.zero()
    n1 = Mat2(field, one, rand_element(rng, field, run.height), zero, one)
    n2 = Mat2(field, one, rand_element(rng, field, run.height), zero, one)
    return None if beta(n1, n2) == 1 else f"n1={n1!r} n2={n2!r}"


# ---------------------------------------------------------------------------
# hilbert suite


@_check()
def _hilbert_bilinear(run, rng):
    x1, x2, y = (rand_element(rng, run.field, run.height, nonzero=True) for _ in range(3))
    if hilbert(x1 * x2, y) == hilbert(x1, y) * hilbert(x2, y):
        return None
    return f"x1={x1!r} x2={x2!r} y={y!r}"


@_check()
def _hilbert_symmetric(run, rng):
    x, y = (rand_element(rng, run.field, run.height, nonzero=True) for _ in range(2))
    return None if hilbert(x, y) == hilbert(y, x) else f"x={x!r} y={y!r}"


@_check()
def _hilbert_square_class_invariance(run, rng):
    x, y, s, t = (rand_element(rng, run.field, run.height, nonzero=True) for _ in range(4))
    if hilbert(x * s * s, y * t * t) == hilbert(x, y):
        return None
    return f"x={x!r} y={y!r} s={s!r} t={t!r}"


@_check()
def _hilbert_steinberg(run, rng):
    x = rand_element(rng, run.field, run.height, nonzero=True)
    one = run.field.one()
    if hilbert(x, -x) != 1:
        return f"x={x!r} pairs nontrivially with -x"
    if x != one and hilbert(x, one - x) != 1:
        return f"x={x!r} pairs nontrivially with 1-x"
    return None


@_check(cases=lambda run: range(4))
def _hilbert_nondegenerate(run, row):
    values = list(pairing_table(run.field)[row])
    if row == 0:
        return None if all(v == 1 for v in values) else f"row {run.reps[row]!r}: {values}"
    if any(v == -1 for v in values):
        return None
    return f"row {run.reps[row]!r} pairs trivially with every class: {values}"


@_check(extension_only=True)
def _hilbert_f_pairs_trivial(run, rng):
    a, b = (rand_element(rng, run.base, run.height, nonzero=True) for _ in range(2))
    got = hilbert(embed_base(a, run.field), embed_base(b, run.field))
    return None if got == 1 else f"a={a!r} b={b!r} got={got}"


@_check(extension_only=True)
def _hilbert_norm_compat(run, rng):
    a = rand_element(rng, run.base, run.height, nonzero=True)
    b = rand_element(rng, run.field, run.height, nonzero=True)
    via_norm = hilbert_via_norm(a, b)
    direct = hilbert(embed_base(a, run.field), b)
    if via_norm == direct:
        return None
    return f"a={a!r} b={b!r} via_norm={via_norm} direct={direct}"


# ---------------------------------------------------------------------------
# omega suite


@_check(cases=_once)
def _omega_torsor_shape(run, _):
    omega = run.omega
    if len(omega) != 4:
        return f"expected 4 genuine characters, got {len(omega)}"
    if len({ch.twist for ch in omega}) != 4:
        return "twists are not pairwise distinct"
    for ch in omega:
        if conjugate_char(ch, run.field.one()) != ch:
            return f"conjugating {ch!r} by 1 moved it"
    return None


@_check(cases=lambda run: run.omega)
def _omega_twist_action(run, ch):
    seen = set()
    for a in run.reps:
        moved = conjugate_char(ch, a.rep)
        if moved not in run.omega:
            return f"conjugate of {ch!r} by {a!r} left the set"
        seen.add(moved)
        for b in run.reps:
            if conjugate_char(moved, b.rep) != conjugate_char(ch, a.rep * b.rep):
                return f"action not compatible at ch={ch!r} a={a!r} b={b!r}"
    if len(seen) != 4:
        return f"orbit of {ch!r} has size {len(seen)}, not 4"
    return None


@_check()
def _omega_chi_quadratic(run, rng):
    a, x, y = (rand_element(rng, run.field, run.height, nonzero=True) for _ in range(3))
    if chi_a_eval(a, x * y) != chi_a_eval(a, x) * chi_a_eval(a, y):
        return f"chi_a not multiplicative at a={a!r} x={x!r} y={y!r}"
    if chi_a_eval(a, x * x) != 1:
        return f"chi_a nontrivial on a square at a={a!r} x={x!r}"
    if chi_a_eval(a * x * x, y) != chi_a_eval(a, y):
        return f"chi_a sees more than the class of a at a={a!r} x={x!r} y={y!r}"
    return None


@_check(cases=_once, extension_only=True)
def _omega_image_subgroup(run, _):
    image = f_image_classes(run.field)
    if len(image) != 2:
        return f"norm-trivial image has order {len(image)}, expected 2"
    keys = {cls.key for cls in image}
    if 0 not in keys:
        return "image misses the identity class"
    for u in image:
        for v in image:
            if (u * v).key not in keys:
                return f"image not closed under product at {u!r}*{v!r}"
    return None


@_check(cases=_once, extension_only=True)
def _omega_index_agreement(run, _):
    idx = index_FEsq(run.field)
    agreeing = count_agreeing_extensions(run.field)
    if idx != 2:
        return f"index of F-classes inside E-classes is {idx}, expected 2"
    if agreeing != 2:
        return f"{agreeing} characters agree on the F-image, expected 2"
    return None


# ---------------------------------------------------------------------------
# weil suite


@_check()
def _weil_conductor(run, rng):
    field, psi, pi = run.field, run.psi, run.field.uniformizer
    x = rand_element(rng, field, run.height, nonzero=True)
    unit = x * pi ** (-valuation(x))
    if psi_eval(psi, unit) != psi_eval(psi, field.zero()):
        return f"psi nontrivial on a unit from x={x!r}"
    if psi_eval(psi, unit * pi) != psi_eval(psi, field.zero()):
        return f"psi nontrivial at valuation 1 from x={x!r}"
    y = rand_element(rng, field, run.height)
    if psi_eval(psi, x + y) != psi_eval(psi, x) * psi_eval(psi, y):
        return f"psi not additive at x={x!r} y={y!r}"
    if psi_eval(psi, field.one() / pi).is_one():
        return "psi trivial one level below the integers"
    return None


@_check()
def _weil_square_class_invariance(run, rng):
    a, t = (rand_element(rng, run.field, run.height, nonzero=True) for _ in range(2))
    if weil_index(a * t * t, run.psi) == weil_index(a, run.psi):
        return None
    return f"a={a!r} t={t!r}"


@_check()
def _weil_unit_euler_sign(run, rng):
    u = rand_unit(rng, run.field, run.height)
    got = weil_index(u, run.psi).as_sign()
    expected = unit_part(u).euler_sign()
    return None if got == expected else f"u={u!r} got={got} expected={expected}"


@_check(cases=lambda run: product(run.reps, repeat=2))
def _weil_product_relation(run, pair):
    a, b = pair
    lhs = weil_index(a.rep, run.psi) * weil_index(b.rep, run.psi)
    rhs = weil_index(a.rep * b.rep, run.psi)
    if hilbert(a.rep, b.rep) == -1:
        rhs = rhs * MINUS_ONE_ROOT
    return None if lhs == rhs else f"a={a!r} b={b!r} lhs={lhs!r} rhs={rhs!r}"


@_check(cases=_once)
def _weil_chi_genuine(run, _):
    plus = chi_psi_eval(run.field.one(), 1, run.psi)
    minus = chi_psi_eval(run.field.one(), -1, run.psi)
    if minus != plus * MINUS_ONE_ROOT:
        return f"chi_psi not genuine: chi(1,+1)={plus!r} chi(1,-1)={minus!r}"
    return None


@_check()
def _weil_chi_multiplicative(run, rng):
    z1, z2 = (rand_element(rng, run.field, run.height, nonzero=True) for _ in range(2))
    m1 = MetaElement(Mat2.diag(z1, z1), rand_sign(rng))
    m2 = MetaElement(Mat2.diag(z2, z2), rand_sign(rng))
    prod = meta_mul(m1, m2)
    lhs = chi_psi_eval(z1, m1.eps, run.psi) * chi_psi_eval(z2, m2.eps, run.psi)
    rhs = chi_psi_eval(prod.g.a, prod.eps, run.psi)
    if lhs == rhs:
        return None
    return f"z1={z1!r} z2={z2!r} eps=({m1.eps},{m2.eps}) lhs={lhs!r} rhs={rhs!r}"


@_check()
def _weil_central_sign_twist(run, rng):
    s = rand_sign(rng)
    x = rand_element(rng, run.field, run.height, nonzero=True)
    twist = hilbert(x, run.minus_one)
    omega = run.chi_minus_one * MINUS_ONE_ROOT if s * twist == -1 else run.chi_minus_one
    got = central_sign(omega, run.psi)
    return None if got == s * twist else f"s={s} x={x!r} got={got}"


# ---------------------------------------------------------------------------
# packets suite (includes the nilpotent-orbit and Whittaker-datum checks)


def class_subgroups(field):
    """All 5 subgroups of the Klein four-group of square classes."""
    classes = square_class_reps(field)
    ident = classes[0]
    subs = [frozenset([ident])]
    subs.extend(frozenset([ident, c]) for c in classes[1:])
    subs.append(frozenset(classes))
    return subs


def _pairs_plus(run, cls) -> bool:
    return hilbert(cls.rep, run.minus_one) == 1


@_check(cases=lambda run: product(run.subgroups, (True, False)))
def _packets_model_arithmetic(run, case):
    S, discrete = case
    field = run.field
    valid = discrete or all(_pairs_plus(run, a) for a in S)
    if not valid:
        try:
            TauTwistModel(field, S, discrete)
        except ValueError:
            return None
        return f"principal-series model with self-twists off the kernel accepted (|S|={len(S)})"
    model = TauTwistModel(field, S, discrete)
    m = multiplicity(model)
    if m not in (1, 2, 4):
        return f"multiplicity {m} outside {{1,2,4}} for |S|={len(S)} discrete={discrete}"
    if m != sum(1 for a in S if _pairs_plus(run, a)):
        return f"multiplicity {m} disagrees with the kernel count for |S|={len(S)}"
    out = packet_product(model)
    if out["m2"] != len(S):
        return f"m2={out['m2']} but |S|={len(S)}"
    expected = 8 if discrete else 4
    if out["m1"] * out["m2"] != expected or out["product"] != expected:
        return f"size product {out} for |S|={len(S)} discrete={discrete}"
    return None


@_check(cases=lambda run: [TauTwistModel(run.field, S, True) for S in run.subgroups])
def _packets_waldspurger_flags(run, model):
    for cls in run.reps:
        expected = cls in model.S and not _pairs_plus(run, cls)
        if is_waldspurger_conjugate(model, cls) != expected:
            return f"flag mismatch at |S|={len(model.S)} a={cls!r}"
    return None


@_check(cases=_once)
def _packets_not_discrete_guard(run, _):
    model = TauTwistModel(run.field, run.subgroups[0], False)
    try:
        is_waldspurger_conjugate(model, run.reps[0])
    except NotDiscrete:
        return None
    return "principal-series model accepted by the discrete-only predicate"


@_check(cases=lambda run: [*combinations(run.reps, 2), run.reps, run.reps[:1]])
def _packets_complementary_partition(run, case):
    field = run.field
    support = frozenset(case)
    if not field.minus_one_is_square:
        try:
            complementary_support(support, field)
        except MinusOneNotSquare:
            return None
        return "complementary support defined although -1 is not a square"
    if len(support) != 2:
        try:
            complementary_support(support, field)
        except NotACoset:
            return None
        return f"support of size {len(support)} accepted"
    b = complementary_support(support, field)
    shifted = frozenset(b * c for c in support)
    if shifted & support:
        return f"support {sorted(c.label for c in support)} not moved off itself"
    if shifted | support != frozenset(run.reps):
        return f"translate of {sorted(c.label for c in support)} misses classes"
    return None


@_check(cases=lambda run: product(run.reps, (1, -1)))
def _packets_epsilon_sign_chain(run, case):
    b, seed = case
    field = run.field
    if field.minus_one_is_square:
        try:
            epsilon_sign_chain(field, b, seed)
        except MinusOneIsSquare:
            return None
        return "sign chain defined although -1 is a square"
    if not b.key & 2:
        try:
            epsilon_sign_chain(field, b, seed)
        except NotRamifiedClass:
            return None
        return f"even-valuation twist {b!r} accepted"
    out = epsilon_sign_chain(field, b, seed)
    if not out["holds"]:
        return f"alternation fails for b={b!r} seed={seed}"
    assignment = out["assignment"]
    if assignment[out["order"][0]] != seed:
        return f"seed not honored for b={b!r} seed={seed}"
    if sorted(assignment.values()) != [-1, -1, 1, 1]:
        return f"signs unbalanced for b={b!r} seed={seed}"
    return None


@_check()
def _packets_whittaker_trace(run, rng):
    a = rand_element(rng, run.field, run.height, nonzero=True)
    x = rand_element(rng, run.field, run.height)
    got = whittaker_datum_eval(a, x, run.psi)
    if got == psi_eval(run.psi, a * x) and got == psi_eval(run.psi.scaled(a), x):
        return None
    return f"a={a!r} x={x!r}"


@_check()
def _packets_orbit_conjugation(run, rng):
    a = rand_element(rng, run.field, run.height, nonzero=True)
    y = NilpotentSl2.lower(a)
    g = rand_sl2(rng, run.field, run.height)
    got = orbit_invariant(y.conjugate_by(g))
    return None if got == square_class(a) else f"a={a!r} g={g!r} got={got!r}"


@_check(cases=_once)
def _packets_orbit_bijection(run, _):
    seen = {orbit_invariant(NilpotentSl2.lower(c.rep)) for c in run.reps}
    if len(seen) == 4:
        return None
    return f"lower-triangular orbits only reach {len(seen)} classes"


# ---------------------------------------------------------------------------
# dispatch

# every suite with a registered check, in order of first registration
SUITE_NAMES = tuple(dict.fromkeys(check.suite for check in CHECKS))


def run_suite(config: RunConfig, suite: str) -> Report:
    if suite != "all" and suite not in SUITE_NAMES:
        raise ValueError(f"unknown suite {suite!r}; expected one of {SUITE_NAMES + ('all',)}")
    field = parse_field_spec(config.field_spec)
    if suite == "split" and not field.is_extension:
        raise BaseFieldInput(
            f"split suite needs a quadratic extension, got {field.spec_string()}"
        )
    run = _Run(field, config)
    checks = []
    for check in CHECKS:
        if suite not in ("all", check.suite):
            continue
        if check.extension_only and not field.is_extension:
            continue
        t0 = time.perf_counter()
        if check.cases is None:
            cases = repeat(_rng(field, config, check.name), config.trials)
        else:
            cases = check.cases(run)
        trials = failures = 0
        witnesses = []
        for case in cases:
            trials += 1
            w = check.holds(run, case)
            if w is not None:
                failures += 1
                if len(witnesses) < MAX_WITNESSES:
                    witnesses.append(w)
        checks.append(CheckResult(check.name, trials, failures, witnesses,
                                  (time.perf_counter() - t0) * 1000.0))
    checks.sort(key=lambda c: c.name)
    return Report(command=f"suite:{suite}", config=config, checks=checks)


# battery used by `selftest-all`: every suite on each base and extension
# config, plus the index checks at p = 13 where the residue field is larger.
SELFTEST_BASE_SPECS = ("Qp(3)", "Qp(5)", "Qp(7)")
SELFTEST_EXT_SPECS = (
    "Qp(3)[unram:2]",
    "Qp(3)[ram:3]",
    "Qp(5)[unram:2]",
    "Qp(5)[ram:5]",
    "Qp(7)[unram:3]",
    "Qp(7)[ram:7]",
)
SELFTEST_INDEX_SPECS = ("Qp(13)[unram:2]", "Qp(13)[ram:13]")


def selftest_reports(config: RunConfig) -> list:
    """Run the full battery; config.field_spec is ignored in favor of the list."""
    reports = [run_suite(replace(config, field_spec=spec), "all")
               for spec in SELFTEST_BASE_SPECS + SELFTEST_EXT_SPECS]
    reports.extend(run_suite(replace(config, field_spec=spec), "omega")
                   for spec in SELFTEST_INDEX_SPECS)
    return reports
