"""Tests for the benchmark comparison gate (benchmarks/compare_bench.py).

The script is not an importable package module, so these tests run it
the way CI does: as a subprocess, asserting exit codes and messages.
"""

import json
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
SCRIPT = REPO_ROOT / "benchmarks" / "compare_bench.py"


def compare(*argv) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(SCRIPT), *map(str, argv)],
        capture_output=True, text=True, cwd=REPO_ROOT)


def write_report(path: Path, metrics: dict) -> Path:
    path.write_text(json.dumps(metrics))
    return path


class TestBadReports:
    def test_missing_baseline_exits_2_with_message(self, tmp_path):
        current = write_report(tmp_path / "current.json", {"wall_s": 1.0})
        result = compare(tmp_path / "nope.json", current)
        assert result.returncode == 2
        assert "error:" in result.stderr
        assert "does not exist" in result.stderr
        assert "Traceback" not in result.stderr

    def test_missing_current_names_the_role(self, tmp_path):
        baseline = write_report(tmp_path / "base.json", {"wall_s": 1.0})
        result = compare(baseline, tmp_path / "nope.json")
        assert result.returncode == 2
        assert "current report" in result.stderr

    def test_malformed_json_exits_2_with_line_number(self, tmp_path):
        baseline = tmp_path / "base.json"
        baseline.write_text('{"wall_s": 1.0')  # truncated mid-write
        current = write_report(tmp_path / "current.json", {"wall_s": 1.0})
        result = compare(baseline, current)
        assert result.returncode == 2
        assert "not valid JSON" in result.stderr
        assert "Traceback" not in result.stderr

    def test_non_object_top_level_exits_2(self, tmp_path):
        baseline = tmp_path / "base.json"
        baseline.write_text("[1, 2, 3]")
        current = write_report(tmp_path / "current.json", {"wall_s": 1.0})
        result = compare(baseline, current)
        assert result.returncode == 2
        assert "must be a JSON object" in result.stderr


class TestComparison:
    def test_equal_reports_pass(self, tmp_path):
        baseline = write_report(tmp_path / "base.json", {"sweep_wall_s": 2.0})
        current = write_report(tmp_path / "curr.json", {"sweep_wall_s": 2.0})
        result = compare(baseline, current)
        assert result.returncode == 0
        assert "1 shared timing metric" in result.stdout

    def test_large_regression_fails(self, tmp_path):
        baseline = write_report(tmp_path / "base.json", {"sweep_wall_s": 1.0})
        current = write_report(tmp_path / "curr.json", {"sweep_wall_s": 10.0})
        result = compare(baseline, current)
        assert result.returncode == 1
        assert "REGRESSION" in result.stderr

    def test_tiny_metrics_ignored_as_noise(self, tmp_path):
        baseline = write_report(tmp_path / "base.json", {"wall_s": 0.001})
        current = write_report(tmp_path / "curr.json", {"wall_s": 0.01})
        result = compare(baseline, current)
        assert result.returncode == 0

    def test_null_leaves_are_skipped(self, tmp_path):
        """A null leaf (an empty sample's statistic) is not compared."""
        baseline = write_report(tmp_path / "base.json",
                                {"p99_s": None, "sweep_wall_s": 2.0})
        current = write_report(tmp_path / "curr.json",
                               {"p99_s": 9.0, "sweep_wall_s": 2.0})
        result = compare(baseline, current)
        assert result.returncode == 0
        assert "1 shared timing metric" in result.stdout

    def test_null_bounded_leaf_fails(self, tmp_path):
        """A bound on a null leaf fails: a 0.0 would have passed it."""
        baseline = write_report(tmp_path / "base.json",
                                {"replay": {"replay_p99_s": 0.01}})
        current = write_report(tmp_path / "curr.json",
                               {"replay": {"replay_p99_s": None},
                                "other": {"replay_p99_s": 0.01}})
        result = compare(baseline, current,
                         "--require-max", "replay_p99_s=2.0")
        assert result.returncode == 1
        assert "replay.replay_p99_s: null" in result.stderr
