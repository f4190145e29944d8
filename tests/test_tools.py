"""tools/ab_battery.py times the battery and tools/ab_folds.py long cover
folds under two trees in one process; tools/bench_record.py pairs the
benchmark runs of two checkouts; the benchmark in perfbench/ still finds
every package name it uses."""

import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def ab_battery(*args):
    return subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab_battery.py"), *map(str, args),
         "--rounds", "1", "--trials", "2"],
        capture_output=True, text=True, timeout=120)


def test_ab_battery_times_two_trees_with_equal_reports():
    proc = ab_battery(SRC, SRC / "kubota_meta")
    assert proc.returncode == 0, proc.stderr
    assert "total-time ratio old/new" in proc.stdout
    assert "per-slot ratio quartiles" in proc.stdout


def test_ab_battery_fails_when_reports_differ(tmp_path):
    broken = tmp_path / "kubota_meta"
    shutil.copytree(SRC / "kubota_meta", broken,
                    ignore=shutil.ignore_patterns("__pycache__"))
    # the first registered check now fails every trial
    with open(broken / "suites.py", "a") as f:
        f.write("\nCHECKS[0] = replace(CHECKS[0], holds=lambda run, case: 'broken')\n")
    proc = ab_battery(SRC, tmp_path)
    assert proc.returncode == 1
    assert "reports differ: Qp(3) all" in proc.stderr


def test_ab_battery_refuses_a_tree_without_the_package(tmp_path):
    proc = ab_battery(SRC, tmp_path)
    assert proc.returncode == 2
    assert "no kubota_meta package" in proc.stderr


def ab_folds(*args):
    return subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab_folds.py"), *map(str, args),
         "--rounds", "2"],
        capture_output=True, text=True, timeout=120)


def test_ab_folds_times_two_trees_with_equal_folds():
    proc = ab_folds(SRC, SRC / "kubota_meta")
    assert proc.returncode == 0, proc.stderr
    assert "total-time ratio old/new" in proc.stdout
    assert "per-round ratio quartiles" in proc.stdout


def test_ab_folds_fails_when_folds_differ(tmp_path):
    broken = tmp_path / "kubota_meta"
    shutil.copytree(SRC / "kubota_meta", broken,
                    ignore=shutil.ignore_patterns("__pycache__"))
    # every cocycle value flips, so a fold of 128 matrices flips its sign
    with open(broken / "kubota.py", "a") as f:
        f.write("\n_kept_beta = _beta\n"
                "def _beta(g1, g2, h):\n    return -_kept_beta(g1, g2, h)\n")
    proc = ab_folds(SRC, tmp_path)
    assert proc.returncode == 1
    assert "folds differ: Qp(3)" in proc.stderr


def test_ab_folds_refuses_a_tree_without_the_package(tmp_path):
    proc = ab_folds(SRC, tmp_path)
    assert proc.returncode == 2
    assert "no kubota_meta package" in proc.stderr


def bench_record():
    spec = importlib.util.spec_from_file_location("bench_record", ROOT / "tools" / "bench_record.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def fake_checkout(root, source, rates):
    """A checkout with one package file and one untraced selftest run per
    seed, at the given ops_per_s."""
    (root / "src" / "kubota_meta").mkdir(parents=True)
    (root / "src" / "kubota_meta" / "rng.py").write_text(source)
    out = root / "perfbench" / "out"
    out.mkdir(parents=True)
    for seed, rate in rates.items():
        metrics = {"setup_s": 0.2, "ops_per_s": rate, "peak_rss_mb": 31.5}
        (out / f"result_selftest_seed{seed}_trace0.json").write_text(json.dumps({
            "seed": seed, "seconds": 15.0, "environment": {"git_sha": "unknown"},
            "result": {"correct": True, "attempted": 10, "failed": 0,
                       "metrics": {k: {"value": v} for k, v in metrics.items()}}}))
    return out


def test_bench_record_pairs_runs_and_names_the_measured_sources(tmp_path):
    parent = fake_checkout(tmp_path / "parent", "A = 1\n",
                           {1: 100.0, 2: 110.0, 3: 90.0, 4: 105.0})
    # seed 5 has no parent run, so it forms no pair
    change = fake_checkout(tmp_path / "change", "A = 2\n",
                           {1: 120.0, 2: 105.0, 3: 130.0, 4: 125.0, 5: 1.0})
    module = bench_record()
    record = module.build("0", parent, change)
    selftest = record["workloads"]["selftest"]
    assert selftest["seeds"] == [1, 2, 3, 4]
    rate = selftest["metrics"]["ops_per_s"]
    assert rate["parent"]["median"] == 102.5 and rate["change"]["median"] == 122.5
    assert (rate["change_wins"], rate["ties"], rate["change_losses"]) == (3, 0, 1)
    assert rate["median_ratio"] == 122.5 / 102.5
    assert selftest["metrics"]["peak_rss_mb"]["ties"] == 4
    assert record["workloads"]["cover_words"] == {"seeds": [], "traced": {}}
    hashes = record["src_sha256"]
    assert hashes["parent"] == module.src_sha256(tmp_path / "parent" / "perfbench" / "out")
    assert len({hashes["parent"], hashes["change"]}) == 2
    assert all(len(h) == 64 for h in hashes.values())
    # an out directory outside a checkout names no sources
    assert module.src_sha256(tmp_path / "elsewhere" / "out") is None


def test_perfbench_resolves_every_package_name():
    # perfbench/tests sit outside the default test run, so a renamed
    # function, constant or traced method would otherwise break only the
    # benchmark
    code = (
        "import cover_words, selftest, weil_cold, layers, spans\n"
        "tracer = spans.Tracer()\n"
        "layers.install(tracer)\n"
        "tracer.restore()\n"
        "work = weil_cold.Workload(0, 1.5)\n"
        "for i in range(work.fixed_rounds):\n"
        "    work.run_round(i)\n"
        "assert work.check() == [], work.check()\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC), str(ROOT / "perfbench")])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr[-1000:]
