"""The oracles stay independent of the code they check.

``tests/oracles.py`` may read package objects passed to it, but it must not
import the package: an oracle that runs the package's own square-class or
symbol code agrees with that code when it is wrong.
"""

import ast
from fractions import Fraction
from pathlib import Path

from oracles import hilbert_classical, tame_symbol

ORACLES = Path(__file__).with_name("oracles.py")


def package_imports(source: str) -> list:
    """(line, module) for each import of kubota_meta in the source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        found += [(node.lineno, n) for n in names if n.split(".")[0] == "kubota_meta"]
    return found


def test_oracles_import_nothing_from_the_package():
    assert package_imports(ORACLES.read_text()) == []


def test_guard_sees_both_import_forms():
    source = (
        "import fractions\n"
        "import kubota_meta.kubota as kb\n"
        "from kubota_meta.weil import psi_eval\n"
        "def f():\n"
        "    from kubota_meta import hilbert\n"
    )
    assert package_imports(source) == [
        (2, "kubota_meta.kubota"), (3, "kubota_meta.weil"), (5, "kubota_meta")]


class _BaseField:
    kind, d = "base", Fraction(0)

    def __init__(self, p):
        self.p = p


def test_tame_symbol_on_q_p_is_the_classical_symbol():
    # the coordinate symbol and the three-factor Legendre formula are two
    # separate oracles; on Q_p they must agree
    for p in (3, 5, 7, 11):
        field = _BaseField(p)
        values = [Fraction(n, m) * Fraction(p) ** k
                  for n in (1, -1, 2, 3, -6) for m in (1, 2) for k in (-1, 0, 1, 2)]
        for a in values:
            for b in values:
                zero = Fraction(0)
                assert tame_symbol((a, zero), (b, zero), field) == hilbert_classical(a, b, p)
