"""Every error class stays live.

Each subclass of ``KubotaMetaError`` in ``kubota_meta.errors`` must be the
target of at least one ``raise`` in the package and must be named somewhere
under ``tests/``.  A class that nothing raises is a name with no behaviour,
and one that no test names is a behaviour nothing pins down; either way the
class set grows without the guarantees it advertises.  Both checks read the
AST, so a class mentioned only in a comment or a string does not count.
"""

import ast
from pathlib import Path

import kubota_meta
from kubota_meta import errors

PACKAGE = Path(kubota_meta.__file__).parent
TESTS = Path(__file__).parent

ERROR_CLASSES = sorted(
    name for name, obj in vars(errors).items()
    if isinstance(obj, type) and issubclass(obj, errors.KubotaMetaError)
    and obj is not errors.KubotaMetaError
)


def _ident(node) -> str:
    """The name a Name or Attribute node ends in, or ''."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return ""


def raised_names(source: str) -> set:
    """Names of the classes raised in the source, called or bare."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            found.add(_ident(exc))
    return found - {""}


def named(source: str) -> set:
    """Every identifier the source uses as a name or an attribute."""
    return {_ident(node) for node in ast.walk(ast.parse(source))} - {""}


def _union(paths, collect) -> set:
    out = set()
    for path in paths:
        out |= collect(path.read_text())
    return out


def test_every_error_class_is_raised_in_the_package():
    raised = _union(sorted(PACKAGE.glob("*.py")), raised_names)
    assert [c for c in ERROR_CLASSES if c not in raised] == []


def test_every_error_class_is_named_in_the_tests():
    seen = _union(sorted(TESTS.glob("*.py")), named)
    assert [c for c in ERROR_CLASSES if c not in seen] == []


def test_guard_sees_each_raise_form_and_ignores_text():
    source = (
        "from m import errors\n"
        "def f(x):\n"
        "    if x:\n"
        "        raise ZeroElement('zero')\n"
        "    if x is None:\n"
        "        raise errors.NotPrime\n"
        "    try:\n"
        "        g()\n"
        "    except KeyError:\n"
        "        raise\n"
        "    # raise ZeroMatrix\n"
        "    return 'NoComplement'\n"
    )
    assert raised_names(source) == {"ZeroElement", "NotPrime"}
    assert {"ZeroElement", "NotPrime", "errors", "KeyError"} <= named(source)
    assert not {"ZeroMatrix", "NoComplement"} & named(source)


def test_the_class_list_is_read_from_the_module():
    assert "ZeroElement" in ERROR_CLASSES
    assert "KubotaMetaError" not in ERROR_CLASSES
