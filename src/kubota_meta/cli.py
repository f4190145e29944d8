"""Command line front end.

Every subcommand takes ``--field`` (except ``selftest-all``), the shared
``--trials/--seed/--height/--format/--timings`` flags, and prints one
report or value to stdout.  Output is byte-identical across runs for a
fixed seed unless ``--timings`` is passed.  Exit status: 0 when every
check passes, 1 when a check fails, 2 for usage or domain errors.

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
from .parsing import (
    parse_element,
    parse_field_spec,
    parse_matrix,
    parse_matrix_entries,
)
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


def _add_common(sp, with_field=True):
    if with_field:
        sp.add_argument("--field", required=True, metavar="SPEC",
                        help="field spec: Qp(p), Qp(p)[unram:d], Qp(p)[ram:d]")
    sp.add_argument("--trials", type=int, default=1000,
                    help="randomized trials per check (default 1000)")
    sp.add_argument("--seed", type=int, default=None,
                    help="master seed (default 0, or KUBOTA_META_SEED)")
    sp.add_argument("--height", type=int, default=50,
                    help="numerator/denominator bound for random rationals")
    sp.add_argument("--format", choices=("json", "csv", "text"), default="json",
                    dest="fmt", help="output format (default json)")
    sp.add_argument("--timings", action="store_true",
                    help="include elapsed_ms in reports (breaks byte determinism)")


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
    _add_common(sp)

    sp = sub.add_parser("weil", help="Weil index of one element or the index-calculus suite")
    _add_common(sp)
    sp.add_argument("a", nargs="?", help="element literal; evaluate gamma(a, psi)")
    sp.add_argument("--psi-scale", default=None, metavar="S",
                    help="rescale the standard additive character by S")

    sp = sub.add_parser("multiplicity-table", help="restriction multiplicities over all twist models")
    _add_common(sp)

    sp = sub.add_parser("packet-check", help="packet-size identities, pass/fail")
    _add_common(sp)

    sp = sub.add_parser("orbit", help="nilpotent orbit class of a matrix")
    _add_common(sp)
    sp.add_argument("matrix", metavar="M", help="nilpotent matrix [[a,b],[c,d]]")

    sp = sub.add_parser("selftest-all", help="full battery over the standard field list")
    _add_common(sp, with_field=False)
    return p


# ---------------------------------------------------------------------------
# rendering


def _emit(line: str) -> None:
    sys.stdout.write(line + "\n")


def _emit_json(obj) -> None:
    _emit(json.dumps(obj, indent=2))


def _csv_writer():
    buf = io.StringIO()
    return buf, csv.writer(buf, lineterminator="\n")


def emit_report(report: Report, fmt: str) -> int:
    if fmt == "json":
        _emit_json(report.to_dict())
    elif fmt == "csv":
        buf, w = _csv_writer()
        header = ["name", "trials", "failures", "witnesses"]
        if report.config.timings:
            header.append("elapsed_ms")
        w.writerow(header)
        for c in report.checks:
            row = [c.name, c.trials, c.failures, " | ".join(c.witnesses)]
            if report.config.timings:
                row.append(round(c.elapsed_ms, 3))
            w.writerow(row)
        sys.stdout.write(buf.getvalue())
    else:
        cfg = report.config
        _emit(f"{report.command}  field={cfg.field_spec} seed={cfg.seed} "
              f"trials={cfg.trials} height={cfg.height}")
        for c in report.checks:
            status = "PASS" if c.passed else "FAIL"
            suffix = f"  [{c.elapsed_ms:.1f} ms]" if cfg.timings else ""
            _emit(f"  {status}  {c.name}  trials={c.trials} failures={c.failures}{suffix}")
            for wtn in c.witnesses:
                _emit(f"        witness: {wtn}")
        _emit(f"overall: {'PASS' if report.passed else 'FAIL'}")
    return 0 if report.passed else 1


def emit_value(payload: dict, fmt: str, text_value: str) -> int:
    if fmt == "json":
        _emit_json(payload)
    elif fmt == "csv":
        buf, w = _csv_writer()
        keys = [k for k in payload if k != "schema"]
        w.writerow(keys)
        w.writerow([payload[k] for k in keys])
        sys.stdout.write(buf.getvalue())
    else:
        _emit(text_value)
    return 0


# ---------------------------------------------------------------------------
# subcommands


def _config(args, field_spec=None) -> RunConfig:
    seed = args.seed if args.seed is not None else _default_seed()
    return RunConfig(
        field_spec=field_spec if field_spec is not None else args.field,
        trials=args.trials,
        seed=seed,
        height=args.height,
        timings=args.timings,
    )


def _cmd_hilbert(args) -> int:
    if (args.x is None) != (args.y is None):
        raise KubotaMetaError("hilbert needs both x and y, or neither")
    if args.x is None:
        return emit_report(run_suite(_config(args), "hilbert"), args.fmt)
    field = parse_field_spec(args.field)
    x = parse_element(field, args.x)
    y = parse_element(field, args.y)
    value = hilbert(x, y)
    payload = {
        "schema": 1,
        "command": "hilbert",
        "field": args.field,
        "x": format_element(x),
        "y": format_element(y),
        "value": value,
    }
    return emit_value(payload, args.fmt, f"{value:+d}")


def _cmd_cocycle(args) -> int:
    if (args.g1 is None) != (args.g2 is None):
        raise KubotaMetaError("cocycle needs both matrices, or neither")
    if args.g1 is None:
        return emit_report(run_suite(_config(args), "cocycle"), args.fmt)
    field = parse_field_spec(args.field)
    g1 = parse_matrix(field, args.g1)
    g2 = parse_matrix(field, args.g2)
    value = beta(g1, g2)
    payload = {
        "schema": 1,
        "command": "cocycle",
        "field": args.field,
        "g1": repr(g1),
        "g2": repr(g2),
        "value": value,
    }
    return emit_value(payload, args.fmt, f"{value:+d}")


def _cmd_indices(args) -> int:
    field = parse_field_spec(args.field)
    sq = len(square_class_reps(field))
    idx = index_FEsq(field)
    agreeing = count_agreeing_extensions(field)
    ok = sq == 4 and idx == 2 and agreeing == 2
    payload = {
        "schema": 1,
        "command": "indices",
        "field": args.field,
        "square_classes": sq,
        "index_norm_image": idx,
        "agreeing_characters": agreeing,
        "pass": ok,
    }
    text = (f"square classes: {sq}\nindex of base classes: {idx}\n"
            f"agreeing characters: {agreeing}\noverall: {'PASS' if ok else 'FAIL'}")
    rc = emit_value(payload, args.fmt, text)
    return rc if ok else 1


def _cmd_weil(args) -> int:
    if args.a is None:
        if args.psi_scale is not None:
            raise KubotaMetaError("--psi-scale only applies to a single evaluation")
        return emit_report(run_suite(_config(args), "weil"), args.fmt)
    field = parse_field_spec(args.field)
    psi = standard_char(field)
    if args.psi_scale is not None:
        psi = psi.scaled(parse_element(field, args.psi_scale))
    a = parse_element(field, args.a)
    root = weil_index(a, psi)
    payload = {
        "schema": 1,
        "command": "weil",
        "field": args.field,
        "a": format_element(a),
        "psi_scale": format_element(psi.scale),
        "gamma": root.label,
        "gamma_eighths": root.eighths,
    }
    return emit_value(payload, args.fmt, root.label)


def _cmd_multiplicity_table(args) -> int:
    field = parse_field_spec(args.field)
    classes, subgroups = class_subgroups(field)
    rows = []
    for S in subgroups:
        desc = "+".join(c.label for c in sorted(S, key=lambda c: c.key))
        for discrete in (True, False):
            try:
                model = TauTwistModel(field, S, discrete)
            except ValueError:
                continue
            out = packet_product(model)
            rows.append({
                "S": desc,
                "discrete": discrete,
                "m": multiplicity(model),
                "m1": out["m1"],
                "m2": out["m2"],
                "product": out["product"],
            })
    if args.fmt == "json":
        _emit_json({
            "schema": 1,
            "command": "multiplicity-table",
            "field": args.field,
            "rows": rows,
        })
        return 0
    header = ["S", "discrete", "m", "m1", "m2", "product"]
    cells = [[r["S"], str(r["discrete"]).lower(), r["m"], r["m1"], r["m2"], r["product"]]
             for r in rows]
    if args.fmt == "csv":
        buf, w = _csv_writer()
        w.writerow(header)
        w.writerows(cells)
        sys.stdout.write(buf.getvalue())
    else:
        for row in cells:
            _emit(" ".join(f"{k}={v}" for k, v in zip(header, row)))
    return 0


def _cmd_orbit(args) -> int:
    field = parse_field_spec(args.field)
    entries = parse_matrix_entries(field, args.matrix)
    nil = NilpotentSl2.from_entries(field, *entries)
    cls = orbit_invariant(nil)
    payload = {
        "schema": 1,
        "command": "orbit",
        "field": args.field,
        "matrix": repr(nil),
        "orbit_class": cls.label,
    }
    return emit_value(payload, args.fmt, cls.label)


def _cmd_selftest_all(args) -> int:
    seed = args.seed if args.seed is not None else _default_seed()
    config = RunConfig(field_spec="Qp(3)", trials=args.trials, seed=seed,
                       height=args.height, timings=args.timings)
    reports = selftest_reports(config)
    ok = all(r.passed for r in reports)
    if args.fmt == "json":
        _emit_json({
            "schema": 1,
            "command": "selftest-all",
            "config": {"trials": args.trials, "seed": seed, "height": args.height},
            "reports": [r.to_dict() for r in reports],
            "pass": ok,
        })
    elif args.fmt == "csv":
        buf, w = _csv_writer()
        header = ["field", "name", "trials", "failures"]
        if args.timings:
            header.append("elapsed_ms")
        w.writerow(header)
        for r in reports:
            for c in r.checks:
                row = [r.config.field_spec, c.name, c.trials, c.failures]
                if args.timings:
                    row.append(round(c.elapsed_ms, 3))
                w.writerow(row)
        sys.stdout.write(buf.getvalue())
    else:
        for r in reports:
            emit_report(r, "text")
        _emit(f"selftest-all: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


_DISPATCH = {
    "hilbert": _cmd_hilbert,
    "cocycle": _cmd_cocycle,
    "split-check": lambda args: emit_report(run_suite(_config(args), "split"), args.fmt),
    "omega": lambda args: emit_report(run_suite(_config(args), "omega"), args.fmt),
    "indices": _cmd_indices,
    "weil": _cmd_weil,
    "multiplicity-table": _cmd_multiplicity_table,
    "packet-check": lambda args: emit_report(run_suite(_config(args), "packets"), args.fmt),
    "orbit": _cmd_orbit,
    "selftest-all": _cmd_selftest_all,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except KubotaMetaError as e:
        sys.stderr.write(f"error: {e}\n")
        return 2
    except ValueError as e:
        sys.stderr.write(f"error: {e}\n")
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
