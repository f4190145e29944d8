"""One measured process: set up a workload, run it, check it, report.

Started by ``run.py`` with the package's ``src`` on PYTHONPATH, numpy's
thread pools pinned to one thread, and PERFBENCH_T0 holding the launcher's
``time.monotonic()`` just before the process was started, so that setup_s
runs from process start to the first timed operation.  Prints one JSON
object as its last line.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

import calibrate

WORKLOADS = ("selftest", "cover_words", "weil_cold")
OUT_DIR = Path(__file__).resolve().parent / "out"
ROOT = OUT_DIR.parent.parent


def _git_sha() -> str:
    """HEAD of the checkout's .git, or "unknown" where there is none."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "cpu": cpu, "nproc": os.cpu_count(), "git_sha": _git_sha()}


def _timed_rounds(work, speed, seconds: float, traced: bool = False, count=None) -> list:
    """Round results with their wall "seconds" and "ref_seconds" (at the
    quiet machine's speed): ``count`` rounds, or when count is None whole
    rounds until ``seconds`` have passed."""
    rounds = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        result = work.run_round(len(rounds), traced)
        t1 = time.perf_counter()
        rounds.append({**result, "seconds": t1 - t0, "ref_seconds": speed.ref_seconds(t0, t1)})
        if len(rounds) == count or (count is None and t1 - start >= seconds):
            return rounds


def clear_caches() -> None:
    """Empty the package's function caches (the Weil index table), so that
    the untraced pass repeats the traced pass's work from the same state."""
    for name, mod in list(sys.modules.items()):
        if name.startswith("kubota_meta"):
            for value in list(vars(mod).values()):
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # the launcher's monotonic clock and perf_counter run at the same rate
    t_launch = time.perf_counter() - (time.monotonic() - float(os.environ["PERFBENCH_T0"]))
    speed = calibrate.SpeedLog()
    speed.start()
    OUT_DIR.mkdir(exist_ok=True)

    t0 = time.perf_counter()
    import numpy  # noqa: F401  (timed on its own: most of the package import)
    numpy_import_s = time.perf_counter() - t0
    import kubota_meta  # noqa: F401

    module = importlib.import_module(args.workload)
    work = module.Workload(args.seed, args.seconds)

    t_ready = time.perf_counter()
    wall_setup_s = t_ready - t_launch
    if not args.trace:
        rounds = _timed_rounds(work, speed, args.seconds, count=work.fixed_rounds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        problems = work.check()
        metrics = {
            "setup_s": (speed.ref_seconds(t_launch, t_ready), "s"),
            "ops_per_s": (work.rate(rounds, "ref_seconds"), "1/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        import layers
        from spans import Tracer

        tracer = Tracer()
        collect = layers.install(tracer)
        count = work.traced_rounds
        rounds = _timed_rounds(work, speed, args.seconds, traced=True, count=count)
        values = collect(work.suite_ms())
        tracer.restore()
        clear_caches()
        untraced = _timed_rounds(work, speed, args.seconds, count=count)
        problems = work.check()
        values["setup.numpy_import_s"] = numpy_import_s
        values["trace.traced_wall_s"] = sum(r["seconds"] for r in rounds)
        values["trace.untraced_wall_s"] = sum(r["seconds"] for r in untraced)
        values["trace.overhead_ratio"] = (sum(r["ref_seconds"] for r in rounds)
                                          / sum(r["ref_seconds"] for r in untraced))
        tracer.write(OUT_DIR / f"trace_{args.workload}_seed{args.seed}.json")
        metrics = {name: (values[name], unit) for name, (unit, _) in layers.PER_LAYER.items()}

    speed.stop()
    for line in problems:
        print(f"check failed: {line}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    stamp = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
             "trace": args.trace, "environment": environment(), "result": result,
             "wall_ops_per_s": work.rate(rounds, "seconds"), "wall_setup_s": wall_setup_s,
             "mean_speed": speed.mean_speed()}
    (OUT_DIR / f"result_{args.workload}_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps(stamp, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
