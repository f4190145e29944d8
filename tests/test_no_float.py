"""No floating point on the package's algebraic paths.

The AST of every module in ``kubota_meta`` is walked for float and complex
literals, the names ``float`` and ``complex``, and imports of ``cmath`` and
``numpy``.  Each hit must be one of the tokens allowlisted for its scope:
``cmath`` and complex values in the numerical Gauss sums that cross-check
the Weil-index table, and floats in the wall-clock timings of the suites.
No scope allows ``numpy``, so importing it anywhere in the package fails.
An allowlist entry that no longer matches anything fails too, so the list
shrinks with the code.
"""

import ast
from pathlib import Path

import kubota_meta

PACKAGE = Path(kubota_meta.__file__).parent

# scope -> the tokens allowed in it
ALLOWLIST = {
    "weil._char_sum": {"cmath", "complex", "2j"},
    "weil.gauss_sum": {"complex"},
    "weil.SNAP_TOLERANCE": {"1e-09"},
    "suites.CheckResult.elapsed_ms": {"float"},
    "suites.run_suite": {"1000.0"},
}

FLOAT_NAMES = {"float", "complex"}
FLOAT_MODULES = {"cmath", "numpy"}


def _token(node) -> str:
    """What makes the node a float use, or '' if nothing does."""
    if isinstance(node, ast.Constant) and type(node.value) in (float, complex):
        return repr(node.value)
    if isinstance(node, ast.Name) and node.id in FLOAT_NAMES:
        return node.id
    if isinstance(node, ast.Import):
        roots = {alias.name.split(".")[0] for alias in node.names}
        return ",".join(sorted(roots & FLOAT_MODULES))
    if isinstance(node, ast.ImportFrom) and node.module:
        root = node.module.split(".")[0]
        return root if root in FLOAT_MODULES else ""
    return ""


def _scope_name(node) -> str:
    """The name a definition or a single-name assignment adds to the scope."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return node.name
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return node.target.id
    if (isinstance(node, ast.Assign) and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)):
        return node.targets[0].id
    return ""


def float_uses(source: str, module: str) -> list:
    """(scope, token, line) for each float use in the source of a module."""
    found = []

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            name = _scope_name(child)
            inner = f"{scope}.{name}" if name else scope
            token = _token(child)
            if token:
                found.append((inner, token, child.lineno))
            walk(child, inner)

    walk(ast.parse(source), module)
    return found


def _allowed_by(scope: str, token: str):
    """The allowlist entry covering this use, or None."""
    parts = scope.split(".")
    for i in range(len(parts), 0, -1):
        key = ".".join(parts[:i])
        if token in ALLOWLIST.get(key, ()):
            return key
    return None


def test_float_uses_stay_inside_the_allowlist():
    used, stray = set(), []
    for path in sorted(PACKAGE.glob("*.py")):
        for scope, token, line in float_uses(path.read_text(), path.stem):
            key = _allowed_by(scope, token)
            if key is None:
                stray.append(f"{path.name}:{line} {token} in {scope}")
            else:
                used.add(key)
    assert not stray, stray
    assert used == set(ALLOWLIST), f"stale allowlist entries: {set(ALLOWLIST) - used}"


def test_guard_sees_each_kind_of_float_use():
    source = (
        "import cmath\n"
        "from numpy import array\n"
        "def f(x):\n"
        "    y = x * 0.5 + 1j\n"
        "    return float(y) + complex(x)\n"
        "def g(x):\n"
        "    return x // 2\n"
    )
    tokens = {(scope, token) for scope, token, _ in float_uses(source, "m")}
    assert tokens == {("m", "cmath"), ("m", "numpy"), ("m.f.y", "0.5"),
                      ("m.f.y", "1j"), ("m.f", "float"), ("m.f", "complex")}
    assert _allowed_by("weil.gauss_sum.s0", "complex") == "weil.gauss_sum"
    assert _allowed_by("suites.run_suite", "2.0") is None
    assert _allowed_by("weil._char_sum", "numpy") is None
