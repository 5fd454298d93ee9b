"""The chaos CLI's one runner: every mode prints, writes ``--json`` and,
when an invariant fails, leaves a ``--journal`` flight-recorder dump that
names each violation and passes the CI schema checker."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro.chaos as chaos

REPO_ROOT = Path(__file__).resolve().parents[1]


def _crash_points_fail(monkeypatch):
    monkeypatch.setattr(
        chaos, "check_crash_point", lambda journal, offset: [f"forced at {offset}"]
    )


#: mode -> (tiny-size arguments, how to force at least one violation)
MODES = {
    "wal": (["--txns", "10", "--torn", "2"], _crash_points_fail),
    "overload": (
        ["--horizon", "2000000"],
        lambda mp: mp.setattr(chaos, "OLTP_P99_BOUND_CYCLES", -1.0),
    ),
    "shard-kill": (
        ["--txns", "10"],
        lambda mp: mp.setattr(chaos, "_oracle_groups", lambda *a: [("forced",)]),
    ),
    "sql-fuzz": (["--steps", "5", "--torn", "2"], _crash_points_fail),
}


def test_every_cli_mode_is_covered():
    assert set(MODES) == set(chaos.MODES)


@pytest.mark.parametrize("mode", sorted(MODES))
def test_failed_run_dumps_the_journal(mode, monkeypatch, tmp_path):
    args, force_violation = MODES[mode]
    force_violation(monkeypatch)
    report_path, dump = tmp_path / "report.json", tmp_path / "journal.json"
    rc = chaos.main(
        ["--mode", mode, "--seed", "1", *args,
         "--json", str(report_path), "--journal", str(dump)]
    )
    assert rc == 1
    report = json.loads(report_path.read_text())
    assert report["passed"] is False and report["violations"]

    doc = json.loads(dump.read_text())
    recorded = [
        e["attrs"]["violation"] for e in doc["events"] if e["kind"] == "chaos.violation"
    ]
    assert recorded == report["violations"]
    assert f"{mode} chaos seed=1" in doc["reason"]
    proc = subprocess.run(
        [sys.executable, str(REPO_ROOT / "scripts/check_trace_schema.py"), str(dump)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_passing_run_leaves_no_dump(tmp_path):
    dump = tmp_path / "journal.json"
    assert chaos.main(["--txns", "10", "--torn", "2", "--journal", str(dump)]) == 0
    assert not dump.exists()
