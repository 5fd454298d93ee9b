"""Smoke tests: every example script runs to completion.

The examples are the library's public walkthroughs; a refactor that
breaks one should fail the suite, not a user. Sizes are kept small by
monkeypatching the entry points where the scripts allow it.
"""

import runpy
import sys
from pathlib import Path

import pytest

from repro.bench.figures import CLAIMS

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str, argv=None, monkeypatch=None):
    if monkeypatch is not None:
        monkeypatch.setattr(sys, "argv", [name] + (argv or []))
    runpy.run_path(str(EXAMPLES / name), run_name="__main__")


class TestExamples:
    def test_quickstart(self, capsys, monkeypatch):
        run_example("quickstart.py", monkeypatch=monkeypatch)
        out = capsys.readouterr().out
        assert "identical" in out
        assert "rm" in out

    def test_tpch_analytics_small(self, capsys, monkeypatch):
        run_example("tpch_analytics.py", argv=["20000"], monkeypatch=monkeypatch)
        out = capsys.readouterr().out
        assert "TPC-H Q1" in out and "TPC-H Q6" in out
        assert "optimizer" in out

    def test_htap_mvcc(self, capsys, monkeypatch):
        run_example("htap_mvcc.py", monkeypatch=monkeypatch)
        out = capsys.readouterr().out
        assert "first committer wins" in out
        assert "freshness lag" in out
        assert "oltp.txn" in out  # OLTP span tree
        assert "fabric.refresh" in out  # OLAP span tree

    def test_sql_htap(self, capsys, monkeypatch):
        run_example("sql_htap.py", monkeypatch=monkeypatch)
        out = capsys.readouterr().out
        assert "SQL == programmatic" in out
        assert "sql.analyze" in out  # EXPLAIN ANALYZE span tree
        assert "sql_statements_total" in out
        assert "identical through both doors" in out

    def test_physical_design(self, capsys, monkeypatch):
        run_example("physical_design.py", monkeypatch=monkeypatch)
        out = capsys.readouterr().out
        assert "partitioning" in out
        assert "<== chosen" in out

    def test_storage_pushdown(self, capsys, monkeypatch):
        run_example("storage_pushdown.py", monkeypatch=monkeypatch)
        out = capsys.readouterr().out
        assert "relational storage" in out
        assert "speedup" in out

    def test_fabric_extensions(self, capsys, monkeypatch):
        run_example("fabric_extensions.py", monkeypatch=monkeypatch)
        out = capsys.readouterr().out
        assert "sharding" in out
        assert "tiered fabric" in out

    def test_reproduce_figures(self, capsys, monkeypatch):
        run_example("reproduce_figures.py", monkeypatch=monkeypatch)
        out = capsys.readouterr().out
        assert "[MISS]" not in out
        assert out.count("[ok]") == len(CLAIMS)
