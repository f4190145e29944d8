"""Command line front end.

Every subcommand takes ``--format`` and, except ``selftest-all``, ``--field``.
Those that can run a suite take ``--trials/--seed/--height/--timings``, which
a single evaluation (``hilbert x y``, ``cocycle M1 M2``, ``weil a``) refuses.
A handler returns ``(ok, doc, rows, text)``: the JSON document, the CSV rows
(header first) and the text lines of one report or value; `main` writes the
one that ``--format`` picks to stdout, and nothing else writes there.  Output is
byte-identical across runs for a fixed seed unless ``--timings`` is
passed.  Exit status: 0 when every check passes, 1 when a check fails, 2
for usage or domain errors, with one ``error:`` line on stderr.

The environment variable KUBOTA_META_SEED overrides the default seed; an
explicit ``--seed`` beats both.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

from .branching import (
    NilpotentSl2,
    TauTwistModel,
    multiplicity,
    orbit_invariant,
    packet_product,
)
from .characters import count_agreeing_extensions, index_FEsq
from .errors import KubotaMetaError
from .hilbert import hilbert
from .kubota import beta
from .local_field import format_element, square_class_reps
from .parsing import parse_element, parse_field_spec, parse_matrix, parse_matrix_entries
from .suites import Report, RunConfig, class_subgroups, run_suite, selftest_reports
from .weil import standard_char, weil_index


def _default_seed() -> int:
    raw = os.environ.get("KUBOTA_META_SEED")
    if raw is None:
        return 0
    try:
        return int(raw, 0)
    except ValueError:
        raise KubotaMetaError(f"KUBOTA_META_SEED={raw!r} is not an integer") from None


def _add_common(sp, with_field=True, suite_flags=True):
    if with_field:
        sp.add_argument("--field", required=True, metavar="SPEC",
                        help="field spec: Qp(p), Qp(p)[unram:d], Qp(p)[ram:d]")
    if suite_flags:
        # None marks a flag as not given; RunConfig holds the defaults
        sp.add_argument("--trials", type=int, default=None,
                        help="randomized trials per check (default 1000)")
        sp.add_argument("--seed", type=int, default=None,
                        help="master seed (default 0, or KUBOTA_META_SEED)")
        sp.add_argument("--height", type=int, default=None,
                        help="numerator/denominator bound for random rationals (default 50)")
        sp.add_argument("--timings", action="store_true",
                        help="include elapsed_ms in reports (breaks byte determinism)")
    sp.add_argument("--format", choices=("json", "csv", "text"), default="json",
                    dest="fmt", help="output format (default json)")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="kubota-meta",
        description="Exact verification suites for the metaplectic double "
                    "cover of GL2 over p-adic fields (odd p).",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("hilbert", help="Hilbert symbol: evaluate one pair or run the law suite")
    _add_common(sp)
    sp.add_argument("x", nargs="?", help="element literal; with y, evaluate (x, y)")
    sp.add_argument("y", nargs="?", help="element literal")

    sp = sub.add_parser("cocycle", help="cocycle value on a pair or the cocycle suite")
    _add_common(sp)
    sp.add_argument("g1", nargs="?", metavar="M1", help="matrix [[a,b],[c,d]]")
    sp.add_argument("g2", nargs="?", metavar="M2", help="matrix [[a,b],[c,d]]")

    sp = sub.add_parser("split-check", help="splitting over the base-rational subgroup")
    _add_common(sp)

    sp = sub.add_parser("omega", help="genuine-character torsor suite")
    _add_common(sp)

    sp = sub.add_parser("indices", help="square-class and norm-image index summary")
    _add_common(sp, suite_flags=False)

    sp = sub.add_parser("weil", help="Weil index of one element or the index-calculus suite")
    _add_common(sp)
    sp.add_argument("a", nargs="?", help="element literal; evaluate gamma(a, psi)")
    sp.add_argument("--psi-scale", default=None, metavar="S",
                    help="rescale the standard additive character by S")

    sp = sub.add_parser("multiplicity-table", help="restriction multiplicities over all twist models")
    _add_common(sp, suite_flags=False)

    sp = sub.add_parser("packet-check", help="packet-size identities, pass/fail")
    _add_common(sp)

    sp = sub.add_parser("orbit", help="nilpotent orbit class of a matrix")
    _add_common(sp, suite_flags=False)
    sp.add_argument("matrix", metavar="M", help="nilpotent matrix [[a,b],[c,d]]")

    sp = sub.add_parser("selftest-all", help="full battery over the standard field list")
    _add_common(sp, with_field=False)
    return p


# ---------------------------------------------------------------------------
# rendering


def _render(fmt: str, doc: dict, rows: list, text: list) -> None:
    """Write one command's output: the document, the table or the lines."""
    if fmt == "json":
        out = json.dumps(doc, indent=2) + "\n"
    elif fmt == "csv":
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(rows)
        out = buf.getvalue()
    else:
        out = "".join(line + "\n" for line in text)
    sys.stdout.write(out)


def _value(args, values: dict, text: list, ok: bool = True) -> tuple:
    """The output of one evaluation: the CSV is the document's keys but
    ``schema`` over their values."""
    doc = {"schema": 1, "command": args.command, "field": args.field, **values}
    keys = [k for k in doc if k != "schema"]
    return ok, doc, [keys, [doc[k] for k in keys]], text


def _check_rows(reports: list, timings: bool, by_field: bool = False) -> list:
    """The CSV of the checks of ``reports``: one suite's rows end with the
    witnesses; ``by_field`` rows start with the field and have none."""
    header = ["name", "trials", "failures"]
    header = ["field", *header] if by_field else [*header, "witnesses"]
    rows = [header + ["elapsed_ms"] * timings]
    for r in reports:
        for c in r.checks:
            row = [c.name, c.trials, c.failures]
            row = [r.config.field_spec, *row] if by_field else [*row, " | ".join(c.witnesses)]
            rows.append(row + [round(c.elapsed_ms, 3)] * timings)
    return rows


def _report_text(report: Report, timings: bool) -> list:
    cfg = report.config
    lines = [f"{report.command}  field={cfg.field_spec} seed={cfg.seed} "
             f"trials={cfg.trials} height={cfg.height}"]
    for c in report.checks:
        status = "PASS" if c.passed else "FAIL"
        suffix = f"  [{c.elapsed_ms:.1f} ms]" if timings else ""
        lines.append(f"  {status}  {c.name}  trials={c.trials} failures={c.failures}{suffix}")
        lines += [f"        witness: {w}" for w in c.witnesses]
    lines.append(f"overall: {'PASS' if report.passed else 'FAIL'}")
    return lines


# ---------------------------------------------------------------------------
# subcommands: each returns (ok, JSON document, CSV rows, text lines)


def _config(args, field_spec=None) -> RunConfig:
    seed = args.seed if args.seed is not None else _default_seed()
    given = {k: getattr(args, k) for k in ("trials", "height") if getattr(args, k) is not None}
    return RunConfig(field_spec or args.field, seed=seed, **given)


def _refuse_suite_flags(args) -> None:
    """A single evaluation runs no suite: a suite flag is a usage error."""
    given = [k for k in ("trials", "seed", "height") if getattr(args, k) is not None]
    given += ["timings"] * args.timings
    if given:
        raise KubotaMetaError(f"--{given[0]} only applies to a suite run")


def _suite(args, suite: str) -> tuple:
    report = run_suite(_config(args), suite)
    return (report.passed, report.to_dict(args.timings),
            _check_rows([report], args.timings), _report_text(report, args.timings))


def _cmd_hilbert(args) -> tuple:
    if (args.x is None) != (args.y is None):
        raise KubotaMetaError("hilbert needs both x and y, or neither")
    if args.x is None:
        return _suite(args, "hilbert")
    _refuse_suite_flags(args)
    field = parse_field_spec(args.field)
    x = parse_element(field, args.x)
    y = parse_element(field, args.y)
    value = hilbert(x, y)
    return _value(args, {"x": format_element(x), "y": format_element(y), "value": value},
                  [f"{value:+d}"])


def _cmd_cocycle(args) -> tuple:
    if (args.g1 is None) != (args.g2 is None):
        raise KubotaMetaError("cocycle needs both matrices, or neither")
    if args.g1 is None:
        return _suite(args, "cocycle")
    _refuse_suite_flags(args)
    field = parse_field_spec(args.field)
    g1 = parse_matrix(field, args.g1)
    g2 = parse_matrix(field, args.g2)
    value = beta(g1, g2)
    return _value(args, {"g1": repr(g1), "g2": repr(g2), "value": value}, [f"{value:+d}"])


def _cmd_indices(args) -> tuple:
    field = parse_field_spec(args.field)
    sq = len(square_class_reps(field))
    idx = index_FEsq(field)
    agreeing = count_agreeing_extensions(field)
    ok = sq == 4 and idx == 2 and agreeing == 2
    values = {"square_classes": sq, "index_norm_image": idx,
              "agreeing_characters": agreeing, "pass": ok}
    text = [f"square classes: {sq}", f"index of base classes: {idx}",
            f"agreeing characters: {agreeing}", f"overall: {'PASS' if ok else 'FAIL'}"]
    return _value(args, values, text, ok)


def _cmd_weil(args) -> tuple:
    if args.a is None:
        if args.psi_scale is not None:
            raise KubotaMetaError("--psi-scale only applies to a single evaluation")
        return _suite(args, "weil")
    _refuse_suite_flags(args)
    field = parse_field_spec(args.field)
    psi = standard_char(field)
    if args.psi_scale is not None:
        psi = psi.scaled(parse_element(field, args.psi_scale))
    a = parse_element(field, args.a)
    root = weil_index(a, psi)
    values = {"a": format_element(a), "psi_scale": format_element(psi.scale),
              "gamma": root.label, "gamma_eighths": root.eighths}
    return _value(args, values, [root.label])


def _cmd_multiplicity_table(args) -> tuple:
    field = parse_field_spec(args.field)
    subgroups = class_subgroups(field)
    header = ["S", "discrete", "m", "m1", "m2", "product"]
    table = []
    for S in subgroups:
        desc = "+".join(c.label for c in sorted(S, key=lambda c: c.key))
        for discrete in (True, False):
            try:
                model = TauTwistModel(field, S, discrete)
            except ValueError:
                continue
            out = packet_product(model)
            table.append(dict(zip(header, (desc, discrete, multiplicity(model),
                                           out["m1"], out["m2"], out["product"]))))
    rows = [[str(v).lower() if k == "discrete" else v for k, v in r.items()] for r in table]
    text = [" ".join(f"{k}={v}" for k, v in zip(header, row)) for row in rows]
    doc = {"schema": 1, "command": "multiplicity-table", "field": args.field, "rows": table}
    return True, doc, [header] + rows, text


def _cmd_orbit(args) -> tuple:
    field = parse_field_spec(args.field)
    entries = parse_matrix_entries(field, args.matrix)
    nil = NilpotentSl2.from_entries(field, *entries)
    cls = orbit_invariant(nil)
    return _value(args, {"matrix": repr(nil), "orbit_class": cls.label}, [cls.label])


def _cmd_selftest_all(args) -> tuple:
    config = _config(args, "Qp(3)")
    reports = selftest_reports(config)
    ok = all(r.passed for r in reports)
    doc = {"schema": 1, "command": "selftest-all",
           "config": {"trials": config.trials, "seed": config.seed, "height": config.height},
           "reports": [r.to_dict(args.timings) for r in reports], "pass": ok}
    text = [line for r in reports for line in _report_text(r, args.timings)]
    text.append(f"selftest-all: {'PASS' if ok else 'FAIL'}")
    return ok, doc, _check_rows(reports, args.timings, by_field=True), text


_DISPATCH = {
    "hilbert": _cmd_hilbert,
    "cocycle": _cmd_cocycle,
    "split-check": lambda args: _suite(args, "split"),
    "omega": lambda args: _suite(args, "omega"),
    "indices": _cmd_indices,
    "weil": _cmd_weil,
    "multiplicity-table": _cmd_multiplicity_table,
    "packet-check": lambda args: _suite(args, "packets"),
    "orbit": _cmd_orbit,
    "selftest-all": _cmd_selftest_all,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        ok, doc, rows, text = _DISPATCH[args.command](args)
    except (KubotaMetaError, ValueError) as e:
        sys.stderr.write(f"error: {e}\n")
        return 2
    _render(args.fmt, doc, rows, text)
    return 0 if ok else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
