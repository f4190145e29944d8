"""The benchmark as the command line runs it: traced counts repeat exactly,
and a directory without the package source gives no result."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import layers

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent


def _run(cwd, workload, seed, seconds, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=400)


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


# the traced selftest runs one full battery traced and one untraced (about a minute)
@pytest.mark.parametrize("workload,seconds", [("cover_words", 2), ("weil_cold", 3),
                                              ("selftest", 1)])
def test_traced_counts_repeat_exactly(workload, seconds):
    first, second = (_result(_run(ROOT, workload, 5, seconds, 1)) for _ in range(2))
    assert first["correct"] and second["correct"]
    assert set(first["metrics"]) == set(layers.PER_LAYER)
    for name in layers.EXACT:
        assert first["metrics"][name] == second["metrics"][name], name
    assert (first["attempted"], first["failed"]) == (second["attempted"], second["failed"])
    calls = [n for n in layers.EXACT if n.endswith("calls") or n.endswith(".draws")]
    assert any(first["metrics"][n]["value"] for n in calls)


def test_untraced_run_reports_end_to_end_metrics():
    result = _result(_run(ROOT, "cover_words", 3, 1, 0))
    assert result["correct"] and result["attempted"] > 0 and result["failed"] == 0
    assert set(result["metrics"]) == {"setup_s", "ops_per_s", "peak_rss_mb"}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_without_the_package_source_it_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(tmp_path, "cover_words", 1, 1, 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
