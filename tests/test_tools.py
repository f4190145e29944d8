"""tools/ab_battery.py: one process runs the battery under two trees."""

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
