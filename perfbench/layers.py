"""The layer map: which package functions belong to which per-layer metric.

``install(tracer)`` wraps them all and returns a function that reads the
per-layer metrics off the tracer.  Every workload reports every metric;
a layer the workload does not reach reads 0.
"""

from __future__ import annotations

import importlib

from spans import public_functions, rebind

PACKAGE = "kubota_meta"

ARITH_METHODS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__",
    "__rmul__", "__truediv__", "__rtruediv__", "__pow__", "inverse",
)
SUITES = ("cocycle", "split", "hilbert", "omega", "weil", "packets")

# per-layer metric name -> (unit, better); the order is the report order
PER_LAYER = {}
for _layer in ("local_field.arith", "local_field.class_key"):
    PER_LAYER[_layer + "_calls"] = ("count", "lower")
    PER_LAYER[_layer + "_self_s"] = ("s", "lower")
PER_LAYER["local_field.max_entry_bits"] = ("bits", "lower")
for _layer in ("hilbert", "characters", "branching"):
    PER_LAYER[_layer + ".calls"] = ("count", "lower")
    PER_LAYER[_layer + ".self_s"] = ("s", "lower")
for _layer in ("check_cocycle", "beta", "meta_mul", "meta_inv", "mat_ops"):
    PER_LAYER[f"kubota.{_layer}_calls"] = ("count", "lower")
    PER_LAYER[f"kubota.{_layer}_self_s"] = ("s", "lower")
PER_LAYER["kubota.inversions_per_mat_inverse"] = ("ratio", "lower")
for _layer in ("weil_index", "gauss_sum"):
    PER_LAYER[f"weil.{_layer}_calls"] = ("count", "lower")
    PER_LAYER[f"weil.{_layer}_self_s"] = ("s", "lower")
PER_LAYER["weil.grid_points"] = ("count", "lower")
PER_LAYER["weil.gauss_sum_useful_ratio"] = ("ratio", "higher")
PER_LAYER["suites.sampler_calls"] = ("count", "lower")
PER_LAYER["suites.sampler_self_s"] = ("s", "lower")
for _suite in SUITES:
    PER_LAYER[f"suites.{_suite}_s"] = ("s", "lower")
PER_LAYER["rng.draws"] = ("count", "lower")
PER_LAYER["rng.self_s"] = ("s", "lower")
PER_LAYER["parsing.self_s"] = ("s", "lower")
PER_LAYER["cli.render_s"] = ("s", "lower")
PER_LAYER["setup.numpy_import_s"] = ("s", "lower")
PER_LAYER["trace.overhead_ratio"] = ("ratio", "lower")
PER_LAYER["trace.traced_wall_s"] = ("s", "lower")
PER_LAYER["trace.untraced_wall_s"] = ("s", "lower")

# counts that are a function of the seed alone and must repeat exactly
EXACT = tuple(n for n, (unit, _) in PER_LAYER.items() if unit in ("count", "bits")) + (
    "kubota.inversions_per_mat_inverse", "weil.gauss_sum_useful_ratio")


def entry_bits(x) -> int:
    """Largest bit length among the element's integer numerators and
    denominator, read from the stored (A, B, D) triple."""
    return max(abs(x._A).bit_length(), abs(x._B).bit_length(), x._D.bit_length())


def grid_points(field, level: int) -> int:
    """Residue points the Gauss sum enumerates at levels k and k+1 when its
    argument is not integral."""
    degree = 2 if field.kind == "unram" else 1  # residue coordinates per level
    return field.p ** (degree * level) + field.p ** (degree * (level + 1))


def _wrap_functions(tracer, group, module, names):
    for name in names:
        original = getattr(module, name)
        rebind(tracer, PACKAGE, original,
               tracer.wrap(group, f"{module.__name__}.{name}", original))


def _wrap_methods(tracer, group, cls, names, after=None):
    for name in names:
        original = cls.__dict__[name]
        tracer.replace(cls, name, tracer.wrap(group, f"{cls.__name__}.{name}", original, after))


def install(tracer):
    """Wrap every layer; returns ``collect(suite_ms) -> dict`` of metrics."""
    mods = {m: importlib.import_module(f"{PACKAGE}.{m}") for m in (
        "local_field", "hilbert", "characters", "branching", "kubota", "weil",
        "suites", "rng", "parsing", "cli")}
    lf, kb, wl = mods["local_field"], mods["kubota"], mods["weil"]
    # unwrapped, for the hooks that read the grids
    multiply, valuation = lf.FieldElement.__mul__, lf.valuation

    max_bits = [0]

    def track_bits(result, _args):
        if isinstance(result, lf.FieldElement):
            b = entry_bits(result)
            if b > max_bits[0]:
                max_bits[0] = b

    _wrap_methods(tracer, "local_field.arith", lf.FieldElement, ARITH_METHODS, track_bits)
    _wrap_functions(tracer, "local_field.class_key", lf,
                    ("class_key", "valuation", "unit_part"))
    for layer in ("hilbert", "characters", "branching"):
        _wrap_functions(tracer, layer, mods[layer], public_functions(mods[layer]))
    for name in ("check_cocycle", "beta", "meta_mul", "meta_inv"):
        _wrap_functions(tracer, f"kubota.{name}", kb, (name,))
    _wrap_functions(tracer, "kubota.mat_ops", kb, ("p_part",))
    _wrap_methods(tracer, "kubota.mat_ops", kb.Mat2, ("__matmul__",))

    # FieldElement.inverse calls made inside Mat2.inverse
    inverse_stat = tracer.stats["FieldElement.inverse"]
    nested = [0, 0]  # Mat2.inverse calls, element inversions under them
    mat_inverse = kb.Mat2.inverse

    def counted_inverse(self):
        before = inverse_stat[0]
        result = mat_inverse(self)
        nested[0] += 1
        nested[1] += inverse_stat[0] - before
        return result

    tracer.replace(kb.Mat2, "inverse",
                   tracer.wrap("kubota.mat_ops", "Mat2.inverse", counted_inverse))

    _wrap_functions(tracer, "weil.weil_index", wl, ("weil_index",))
    points = [0]
    distinct = set()

    def track_grid(_result, args):
        psi, a, level = args
        # an integral psi.scale * a makes every term 1: the sum is returned
        # without enumerating a grid
        if valuation(multiply(psi.scale, a)) < 0:
            points[0] += grid_points(psi.field, level)
        distinct.add((psi.field, psi.scale, a, level))

    original = wl.gauss_sum
    rebind(tracer, PACKAGE, original,
           tracer.wrap("weil.gauss_sum", "weil.gauss_sum", original, track_grid))

    _wrap_functions(tracer, "suites.sampler", mods["suites"],
                    [n for n in public_functions(mods["suites"]) if n.startswith("rand_")])
    _wrap_methods(tracer, "rng", mods["rng"].SplitMix64,
                  ("next_u64", "randint", "chance", "choice"))
    _wrap_functions(tracer, "parsing", mods["parsing"],
                    [n for n in public_functions(mods["parsing"]) if n.startswith("parse_")])
    _wrap_functions(tracer, "cli", mods["cli"], ("main",))
    # the battery is a child span of main, so main's self time is the
    # argument parsing and the rendering of the report
    _wrap_functions(tracer, "suites.battery", mods["suites"], ("selftest_reports",))

    def collect(suite_ms: dict) -> dict:
        out = {}
        for layer in ("local_field.arith", "local_field.class_key"):
            out[layer + "_calls"] = tracer.calls(layer)
            out[layer + "_self_s"] = tracer.self_s(layer)
        out["local_field.max_entry_bits"] = max_bits[0]
        for layer in ("hilbert", "characters", "branching"):
            out[layer + ".calls"] = tracer.calls(layer)
            out[layer + ".self_s"] = tracer.self_s(layer)
        for layer in ("check_cocycle", "beta", "meta_mul", "meta_inv", "mat_ops"):
            out[f"kubota.{layer}_calls"] = tracer.calls(f"kubota.{layer}")
            out[f"kubota.{layer}_self_s"] = tracer.self_s(f"kubota.{layer}")
        out["kubota.inversions_per_mat_inverse"] = nested[1] / nested[0] if nested[0] else 0
        for layer in ("weil_index", "gauss_sum"):
            out[f"weil.{layer}_calls"] = tracer.calls(f"weil.{layer}")
            out[f"weil.{layer}_self_s"] = tracer.self_s(f"weil.{layer}")
        out["weil.grid_points"] = points[0]
        gs_calls = tracer.calls("weil.gauss_sum")
        out["weil.gauss_sum_useful_ratio"] = len(distinct) / gs_calls if gs_calls else 0
        out["suites.sampler_calls"] = tracer.calls("suites.sampler")
        out["suites.sampler_self_s"] = tracer.self_s("suites.sampler")
        for suite in SUITES:
            out[f"suites.{suite}_s"] = suite_ms.get(suite, 0.0) / 1000.0
        out["rng.draws"] = tracer.stats["SplitMix64.next_u64"][0]
        out["rng.self_s"] = tracer.self_s("rng")
        out["parsing.self_s"] = tracer.self_s("parsing")
        out["cli.render_s"] = tracer.self_s("cli")
        tracer.extra.update(out)
        return out

    return collect
