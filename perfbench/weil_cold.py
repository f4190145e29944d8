"""weil_cold: full 4x4 tables gamma(a, psi_s) on fields seen once per process.

The fields come in groups of five, each field used once, so every table starts
with the package's Weil cache cold and its cost is the numpy Gauss-sum
grids.  Group g holds a base field Q_q (q the g-th prime from 101), a
ramified field over Q_151 and an unramified field over Q_13 (distinct d per
group, same grid sizes), and two fields past the grid limit,
Q_q' with q' >= 311 and an unramified field over Q_19, whose index the
package cannot compute today: those two count as failed operations.

A round is one field's table.  Cold tables cannot be repeated in one
process, so a run does a fixed number of groups, one per GROUP_SECONDS of
``--seconds``, and every run with the same ``--seconds`` does the same grid
work; the seed picks the random representatives a and scales s of each
square class.
"""

from __future__ import annotations

import random

import oracle
from common import coords, field_tuple

from kubota_meta import weil
from kubota_meta.local_field import FieldElement, make_field, square_class_reps

GROUP_SECONDS = 1.5
GRID_LIMIT_MESSAGE = "too large to enumerate"


def _primes(lo, count):
    out, n = [], lo
    while len(out) < count:
        if all(n % q for q in range(2, int(n ** 0.5) + 1)):
            out.append(n)
        n += 1
    return out


def _nonsquare_units(p, count):
    squares = oracle.squares_mod(p)
    return [n for n in range(2, 40 * count) if n % p and n % p not in squares][:count]


MAX_GROUPS = 38  # the 38 primes from 101 to 307 stay below the grid limit at 311
BASE_PRIMES = _primes(101, MAX_GROUPS)
LIMIT_PRIMES = _primes(311, MAX_GROUPS)
RAM_P, UNRAM_P, LIMIT_UNRAM_P = 151, 13, 19
RAM_UNITS = range(1, MAX_GROUPS + 1)  # all below RAM_P, so units
UNRAM_D = _nonsquare_units(UNRAM_P, MAX_GROUPS)
LIMIT_UNRAM_D = _nonsquare_units(LIMIT_UNRAM_P, MAX_GROUPS)

SMALL_SPECS = ((3, "base", 0), (5, "base", 0), (3, "unram", 2), (5, "ram", 5), (7, "ram", 7))


def group_fields(index: int) -> list:
    """The five fields of group ``index``."""
    return [
        make_field(BASE_PRIMES[index]),
        make_field(RAM_P, ("ram", RAM_P * RAM_UNITS[index])),
        make_field(UNRAM_P, ("unram", UNRAM_D[index])),
        make_field(LIMIT_PRIMES[index]),
        make_field(LIMIT_UNRAM_P, ("unram", LIMIT_UNRAM_D[index])),
    ]


def class_members(rng, field) -> list:
    """One random element of each square class: rep * t^2, t a unit."""
    p, H = field.p, 50
    out = []
    for cls in square_class_reps(field):
        x = rng.choice([n for n in range(1, H + 1) if n % p])
        m = rng.choice([n for n in range(1, H + 1) if n % p])
        y = rng.randint(-H, H) if field.is_extension else 0
        t = FieldElement.from_ints(field, x, y, m)
        out.append(cls.rep * t * t)
    return out


def table(field, a_list, s_list) -> list:
    psi0 = weil.standard_char(field)
    return [[weil.weil_index(a, psi0.scaled(s)).eighths for s in s_list] for a in a_list]


# -- checks on plain data ------------------------------------------------------


def _sign(eighths):
    return {0: 1, 4: -1}.get(eighths)


def check_table(spec, ft, a, s, tab, prod, gamma_one, gamma_p) -> list:
    """a, s: coordinates of the class members; tab[k][j] = gamma(a_k, psi_(s_j))
    in eighths; prod[k][l] = gamma(a_k a_l, psi0); gamma_one = gamma(1, psi0);
    gamma_p = gamma(p, psi0) on base fields, else None."""
    problems = []
    if gamma_one != 0 or any(v != 0 for v in tab[0]):
        problems.append(f"{spec}: gamma(1, psi) = {gamma_one}/8, row of 1 is {tab[0]}")
    for k in (0, 1):
        v, r = oracle.valuation_residue(a[k], ft)
        expected = oracle.residue_char(r, ft) if v == 0 else None
        if _sign(tab[k][0]) != expected:
            problems.append(f"{spec}: gamma of unit {a[k]} is {tab[k][0]}/8, "
                            f"Legendre sign {expected}")
    for k in range(4):
        for j in range(4):
            twist = 4 if oracle.tame_symbol(a[k], s[j], ft) == -1 else 0
            if tab[k][j] != (tab[k][0] + twist) % 8:
                problems.append(f"{spec}: gamma(a_{k}, psi_s{j}) = {tab[k][j]}/8 is not "
                                f"(a, s) gamma(a, psi)")
        for l in range(4):
            twist = 4 if oracle.tame_symbol(a[k], a[l], ft) == -1 else 0
            if (tab[k][0] + tab[l][0]) % 8 != (prod[k][l] + twist) % 8:
                problems.append(f"{spec}: product relation fails at classes {k}, {l}")
    if gamma_p is not None:
        closed = 0 if ft[0] % 4 == 1 else 6  # 1 / N(G), G = sqrt(p) or i sqrt(p)
        if gamma_p != closed or tab[2][0] != closed:
            problems.append(f"{spec}: gamma(p, psi0) = {gamma_p}/8, closed form {closed}/8")
    return problems


def check_gauss_sum(spec, level, c, got, expected) -> list:
    if abs(got - expected) > 1e-6 * max(1.0, abs(expected)):
        return [f"{spec}: Gauss sum of {c} at level {level} is {got}, "
                f"term by term {expected}"]
    return []


# -- workload interface ------------------------------------------------------


class Workload:
    """round(seconds / GROUP_SECONDS) groups, at most MAX_GROUPS; a round is
    one field."""

    def __init__(self, seed: int, seconds: float):
        self.seed = seed
        groups = max(1, min(MAX_GROUPS, round(seconds / GROUP_SECONDS)))
        rng = random.Random(seed)
        self.fields = [(f, class_members(rng, f), class_members(rng, f))
                       for g in range(groups) for f in group_fields(g)]
        self.fixed_rounds = self.traced_rounds = len(self.fields)
        self.tables = {}  # round index -> (field, a list, s list, table)

    def run_round(self, index: int, traced: bool = False) -> dict:
        field, a_list, s_list = self.fields[index]
        try:
            self.tables[index] = (field, a_list, s_list, table(field, a_list, s_list))
        except ValueError as e:
            if GRID_LIMIT_MESSAGE not in str(e):
                raise
            return {"attempted": 1, "failed": 1, "done": 0}
        return {"attempted": 1, "failed": 0, "done": 1}

    def suite_ms(self) -> dict:
        return {}

    def check(self) -> list:
        problems = []
        for field, a_list, s_list, tab in self.tables.values():
            psi0 = weil.standard_char(field)
            prod = [[weil.weil_index(x * y, psi0).eighths for y in a_list] for x in a_list]
            gamma_p = (weil.weil_index(field.elt(field.p), psi0).eighths
                       if field.kind == "base" else None)
            problems += check_table(field.spec_string(), field_tuple(field),
                                    [coords(x) for x in a_list], [coords(x) for x in s_list],
                                    tab, prod, weil.weil_index(field.one(), psi0).eighths,
                                    gamma_p)
        rng = random.Random(self.seed ^ 0x47415553)
        for p, kind, d in SMALL_SPECS:
            field = make_field(p, "base" if kind == "base" else (kind, d))
            psi0 = weil.standard_char(field)
            pi_inv = field.uniformizer.inverse()
            for x in class_members(rng, field):
                c = x * pi_inv
                got = weil.gauss_sum(psi0, c, weil.DEFAULT_LEVEL)
                expected = oracle.gauss_sum_terms(coords(c), weil.DEFAULT_LEVEL,
                                                  field_tuple(field))
                problems += check_gauss_sum(field.spec_string(), weil.DEFAULT_LEVEL, c,
                                            got, expected)
        return problems

    @staticmethod
    def rate(rounds: list, key: str) -> float:
        """Complete tables per second of ``key`` over all fields, failed
        fields included in the time but not in the count."""
        return sum(r["done"] for r in rounds) / sum(r[key] for r in rounds)
