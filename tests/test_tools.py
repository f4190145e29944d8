"""tools/ab.py times the battery and long cover folds under two trees in
one process; tools/bench_record.py pairs the benchmark runs of two
checkouts; the benchmark in perfbench/ still finds every package name it
uses."""

import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def ab(*args):
    return subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab.py"), "--rounds", "1", "--trials", "2",
         *map(str, args)],
        capture_output=True, text=True, timeout=120)


def broken_copy(tmp_path, module, tail):
    """A copy of the package under tmp_path with ``tail`` appended to ``module``."""
    broken = tmp_path / "kubota_meta"
    shutil.copytree(SRC / "kubota_meta", broken,
                    ignore=shutil.ignore_patterns("__pycache__"))
    with open(broken / module, "a") as f:
        f.write(tail)
    return tmp_path


@pytest.fixture(scope="module")
def equal_trees():
    """One run of the harness on the same package, given once as ``src``
    and once as the package directory."""
    proc = ab(SRC, SRC / "kubota_meta")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("total-time ratio old/new") == 2
    return proc.stdout


def workload_line(stdout, kind):
    lines = [line for line in stdout.splitlines() if line.startswith(f"{kind}: old ")]
    assert len(lines) == 1, stdout
    return lines[0]


def test_ab_battery_times_two_trees_with_equal_reports(equal_trees):
    line = workload_line(equal_trees, "battery x 11")
    assert "total-time ratio old/new" in line and "per-unit ratio quartiles" in line


def test_ab_folds_times_two_trees_with_equal_folds(equal_trees):
    line = workload_line(equal_trees, "folds x 9")
    assert "total-time ratio old/new" in line and "per-unit ratio quartiles" in line


def test_ab_fails_when_reports_differ(tmp_path):
    # the first registered check now fails every trial
    tree = broken_copy(tmp_path, "suites.py",
                       "\nCHECKS[0] = replace(CHECKS[0], holds=lambda run, case: 'broken')\n")
    proc = ab(SRC, tree)
    assert proc.returncode == 1
    assert "reports differ: Qp(3) all" in proc.stderr


def test_ab_fails_when_folds_differ(tmp_path):
    # every cocycle value flips, so a fold of 128 matrices flips its sign
    tree = broken_copy(tmp_path, "kubota.py",
                       "\n_kept_beta = _beta\n"
                       "def _beta(g1, g2, h):\n    return -_kept_beta(g1, g2, h)\n")
    proc = ab(SRC, tree)
    assert proc.returncode == 1
    assert "folds differ: Qp(3)" in proc.stderr


def test_ab_battery_refuses_a_tree_without_the_package(tmp_path):
    # the old tree is the one missing
    proc = ab(tmp_path, SRC)
    assert proc.returncode == 2
    assert f"{tmp_path}: no kubota_meta package" in proc.stderr


def test_ab_folds_refuses_a_tree_without_the_package(tmp_path):
    # the new tree is the one missing
    proc = ab(SRC, tmp_path)
    assert proc.returncode == 2
    assert f"{tmp_path}: no kubota_meta package" in proc.stderr


def test_ab_refuses_two_different_batteries(tmp_path):
    tree = broken_copy(tmp_path, "suites.py", "\nBATTERY = BATTERY[:-1]\n")
    proc = ab(SRC, tree)
    assert proc.returncode == 2
    assert "the two trees run different batteries" in proc.stderr


def test_ab_refuses_zero_rounds():
    # a later --rounds beats the helper's
    proc = ab(SRC, SRC, "--rounds", "0")
    assert proc.returncode == 2
    assert "--rounds and --trials must be positive" in proc.stderr


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
