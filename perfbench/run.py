"""Benchmark entry point: one workload, one measured process.

    python3 perfbench/run.py --workload selftest --seed 1 --seconds 15 --trace 0

Run from the repository root.  The measured work runs in a child process
(``worker.py``) so that setup_s counts from the moment that process is
started, and so that numpy's thread pools are pinned to one thread before
numpy loads.  The last line of stdout is the result JSON; the exit status
is 0 when a result was printed.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIMEOUT_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    src = ROOT / "src"
    if not (src / "kubota_meta" / "__init__.py").is_file():
        print(f"error: no package source at {src}; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    # the package iterates frozensets of square classes with all(), which
    # stops early, so how many calls a battery makes depends on the hash seed
    env["PYTHONHASHSEED"] = "0"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    env["PERFBENCH_T0"] = repr(time.monotonic())
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print(f"error: worker did not finish within {TIMEOUT_S} s", file=sys.stderr)
        return 3
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(out)
        print(f"error: worker exited with status {proc.returncode}", file=sys.stderr)
        return proc.returncode or 1
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
