"""Write a BENCH_<pr>.json record from benchmark result files.

    python3 tools/bench_record.py PR PARENT_OUT CHANGE_OUT

PARENT_OUT and CHANGE_OUT are the ``perfbench/out`` directories of two
checkouts, the parent commit and the change, each holding the
``result_<workload>_seed<n>_trace<t>.json`` files that
``perfbench/run.py`` wrote there.  Untraced runs (trace 0) with the same
workload and seed on both sides form a pair.  For every workload and
end-to-end metric the record gives each side's median and quartiles
(``statistics.quantiles(values, n=4)``), the parent's quartile distance,
the median ratio change / parent, and how many pairs the change won, lost
and tied, with "better" read from ``BENCHMARK.json``.  Traced runs
(trace 1) are recorded as their per-layer values, side by side.  Every run
keeps its environment stamp, seed, attempted and failed counts and
correctness.  The record is written to ``BENCH_<pr>.json`` at the
repository root.

Each side also gets ``src_sha256``, a hash over the names and bytes of the
``src/kubota_meta/*.py`` files of the checkout that holds its out
directory (``<out>/../../src``), or null when there is none.  The
result files' own ``git_sha`` stamp reads ``unknown`` outside a git
checkout and names a commit, not an edited tree; the hash names the code.
It is taken when the record is written, so it names the code that ran
only if neither tree was edited between the runs and the record.
"""

from __future__ import annotations

import hashlib
import json
import re
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULT = re.compile(r"result_(?P<workload>\w+?)_seed(?P<seed>\d+)_trace(?P<trace>[01])\.json")


def load_runs(out_dir: Path) -> dict:
    """{(workload, seed, trace): result file contents} of one side."""
    runs = {}
    for path in sorted(out_dir.glob("result_*.json")):
        m = RESULT.fullmatch(path.name)
        if m:
            key = (m["workload"], int(m["seed"]), int(m["trace"]))
            runs[key] = json.loads(path.read_text())
    return runs


def src_sha256(out_dir: Path):
    """sha256 over the sorted names and bytes of the package sources of the
    checkout ``out_dir`` belongs to, or None without such sources."""
    pkg = out_dir.resolve().parent.parent / "src" / "kubota_meta"
    if not pkg.is_dir():
        return None
    h = hashlib.sha256()
    for path in sorted(pkg.glob("*.py")):
        data = path.read_bytes()
        h.update(f"{path.name}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()


def summary(values: list) -> dict:
    out = {"n": len(values), "median": statistics.median(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
    return out


def run_entry(run: dict) -> dict:
    result = run["result"]
    return {
        "seed": run["seed"], "seconds": run["seconds"], "environment": run["environment"],
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
    }


def compare(workload: str, seeds: list, parent: dict, change: dict, better: dict) -> dict:
    """The pairs of one workload: per-metric summaries and pair wins."""
    metrics = {}
    for name, lower in better.items():
        p = [parent[(workload, s, 0)]["result"]["metrics"][name]["value"] for s in seeds]
        c = [change[(workload, s, 0)]["result"]["metrics"][name]["value"] for s in seeds]
        wins = sum((cv < pv) if lower else (cv > pv) for pv, cv in zip(p, c))
        ties = sum(cv == pv for pv, cv in zip(p, c))
        ps, cs = summary(p), summary(c)
        metrics[name] = {
            "better": "lower" if lower else "higher",
            "parent": ps, "change": cs,
            "parent_quartile_distance": ps.get("q3", ps["median"]) - ps.get("q1", ps["median"]),
            "median_ratio": cs["median"] / ps["median"] if ps["median"] else None,
            "pairs": len(seeds), "change_wins": wins, "ties": ties,
            "change_losses": len(seeds) - wins - ties,
        }
    return {
        "seeds": seeds,
        "metrics": metrics,
        "runs": {"parent": [run_entry(parent[(workload, s, 0)]) for s in seeds],
                 "change": [run_entry(change[(workload, s, 0)]) for s in seeds]},
    }


def traced(workload: str, parent: dict, change: dict) -> dict:
    """Per-layer values of the traced runs both sides made, by seed."""
    out = {}
    for (w, seed, t) in sorted(parent):
        if w == workload and t == 1 and (w, seed, 1) in change:
            out[str(seed)] = {side: run_entry(runs[(w, seed, 1)])
                              for side, runs in (("parent", parent), ("change", change))}
    return out


def build(pr: str, parent_dir: Path, change_dir: Path) -> dict:
    """The record of the runs in two out directories."""
    parent, change = load_runs(parent_dir), load_runs(change_dir)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] == "lower" for m in bench["end_to_end"]}
    record = {"pr": pr, "benchmark_command": bench["command"],
              "src_sha256": {"parent": src_sha256(parent_dir),
                             "change": src_sha256(change_dir)},
              "workloads": {}}
    for wl in (w["name"] for w in bench["workloads"]):
        seeds = sorted(s for (w, s, t) in parent if w == wl and t == 0 and (w, s, 0) in change)
        entry = compare(wl, seeds, parent, change, better) if seeds else {"seeds": []}
        entry["traced"] = traced(wl, parent, change)
        record["workloads"][wl] = entry
    return record


def main(argv: list) -> int:
    if len(argv) != 3:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    pr, parent_dir, change_dir = argv
    record = build(pr, Path(parent_dir), Path(change_dir))
    out = ROOT / f"BENCH_{pr}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out.name}: " + ", ".join(
        f"{w} {len(e['seeds'])} pairs" for w, e in record["workloads"].items()))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
