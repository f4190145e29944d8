"""Parsers for field specs, element literals, and matrix literals.

Grammar, shared by the CLI and config surfaces:

* field spec: ``Qp(p)``, ``Qp(p)[unram:d]``, ``Qp(p)[ram:d]`` with d a
  rational like ``2`` or ``-1/3``.
* element: sum of terms; a term is a rational, ``sqrt``, or
  ``<rational>*sqrt`` with exactly one ``*`` (``sqrt`` denotes the
  adjoined root of the field's d).  Examples: ``5``, ``-2/3``, ``sqrt``,
  ``3-1/2*sqrt``.
* matrix: ``[[a,b],[c,d]]`` with element entries and no nested brackets.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import KubotaMetaError, ParseError
from .kubota import Mat2
from .local_field import FieldElement, LocalField, make_field

_FIELD_RE = re.compile(r"^Qp\((\d+)\)(?:\[(unram|ram):(-?\d+(?:/\d+)?)\])?$")
_TERM_RE = re.compile(r"[+-]?[^+-]+")
_RATIONAL_RE = re.compile(r"[+-]?\d+(?:/\d+)?")


def _rational(text: str) -> Fraction:
    """A coefficient in the grammar's form ``2`` or ``-1/3``.

    ``Fraction`` alone also takes ``1.5`` and ``1e1000000``, and expands
    the exponent into an int of millions of bits before it returns.
    """
    if not _RATIONAL_RE.fullmatch(text):
        raise ValueError(f"{text!r} is not a rational")
    return Fraction(text)


def parse_field_spec(s: str) -> LocalField:
    text = s.strip()
    m = _FIELD_RE.match(text)
    if not m:
        raise ParseError(
            f"bad field spec {s!r}: expected Qp(p), Qp(p)[unram:d], or Qp(p)[ram:d]"
        )
    p = int(m.group(1))
    try:
        if m.group(2) is None:
            return make_field(p)
        return make_field(p, (m.group(2), Fraction(m.group(3))))
    except KubotaMetaError as e:
        raise type(e)(f"in field spec {s!r}: {e}") from None
    except (ValueError, ZeroDivisionError) as e:
        raise ParseError(f"in field spec {s!r}: {e}") from None


def parse_element(field: LocalField, s: str) -> FieldElement:
    text = s.strip().replace(" ", "")
    if not text:
        raise ParseError("empty element literal")
    a = Fraction(0)
    b = Fraction(0)
    pos = 0
    for m in _TERM_RE.finditer(text):
        if m.start() != pos:
            raise ParseError(f"bad element literal {s!r} at position {m.start()}")
        pos = m.end()
        term = m.group()
        try:
            if term.endswith("sqrt"):
                # [+-]sqrt, or <rational>*sqrt with exactly one *
                coef = term[:-4]
                if coef in ("", "+", "-"):
                    coef += "1*"
                if not coef.endswith("*"):
                    raise ValueError(term)
                b += _rational(coef[:-1])
            else:
                a += _rational(term)
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"bad term {term!r} in element literal {s!r}") from None
    if pos != len(text):
        raise ParseError(f"bad element literal {s!r} at position {pos}")
    if b and not field.is_extension:
        raise ParseError(f"{s!r} uses sqrt but {field.spec_string()} adjoins no root")
    return FieldElement(field, a, b)


def parse_matrix_entries(field: LocalField, s: str) -> list:
    text = s.strip().replace(" ", "")
    if not (text.startswith("[[") and text.endswith("]]")):
        raise ParseError(f"bad matrix literal {s!r}: expected [[a,b],[c,d]]")
    rows = text[2:-2].split("],[")
    if len(rows) != 2:
        raise ParseError(f"bad matrix literal {s!r}: need exactly two rows")
    entries = []
    for row in rows:
        parts = row.split(",")
        if len(parts) != 2:
            raise ParseError(f"bad matrix row {row!r}: need exactly two entries")
        entries.extend(parse_element(field, part) for part in parts)
    return entries


def parse_matrix(field: LocalField, s: str) -> Mat2:
    entries = parse_matrix_entries(field, s)
    try:
        return Mat2(field, *entries)
    except ValueError:
        raise ParseError(f"matrix {s!r} is singular") from None
