"""Smoke test of the end-to-end benchmark: all five workloads at small scale.

Each workload runs twice in this process, untraced and traced, at
``--scale smoke`` with a zero-second loop (so only the fixed prefix runs).
Run with::

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e.py -q
"""

from __future__ import annotations

import json

import pytest

import compare
import layers
import run


@pytest.fixture(scope="module")
def reports():
    out = {}
    for name in run.WORKLOAD_NAMES:
        untraced = run.run_workload(name, 3, 0.0, trace=False, scale_name="smoke")
        assert layers.installed() == []
        traced = run.run_workload(name, 3, 0.0, trace=True, scale_name="smoke")
        assert layers.installed() == []
        out[name] = (untraced, traced)
    return out


def _units(section):
    return {m["name"]: m["unit"] for m in run.BENCHMARK[section]}


def test_every_metric_is_emitted_with_its_unit(reports):
    e2e, per_layer = _units("end_to_end"), _units("per_layer")
    for name, (untraced, traced) in reports.items():
        assert {k: m["unit"] for k, m in untraced["metrics"].items()} == e2e, name
        assert {k: m["unit"] for k, m in traced["metrics"].items()} == per_layer, name
        for m in untraced["metrics"].values():
            assert m["value"] > 0, name


def test_no_operation_fails(reports):
    for name, pair in reports.items():
        for report in pair:
            assert report["correct"], (name, report["failures"])
            assert report["failed"] == 0 and report["attempted"] > 0
            assert report["details"]["error_rate"]["value"] == 0.0


def test_simulated_metrics_repeat_exactly(reports):
    # Same seed, same prefix: every simulated-cycle figure must match,
    # with or without the layer wrappers installed.
    for name, (untraced, traced) in reports.items():
        sim = [k for k, m in untraced["details"].items() if "cycles" in m["unit"]]
        assert sim, name
        for key in sim:
            assert untraced["details"][key] == traced["details"][key], (name, key)


def test_traced_run_writes_a_chrome_trace(reports):
    for name in reports:
        with open(run.RESULTS / f"TRACE_e2e_{name}.json") as f:
            events = json.load(f)["traceEvents"]
        spans = [e for e in events if e["ph"] == "X"]
        assert spans and all(e["cat"] in layers.LAYERS for e in spans), name


def test_wrappers_install_and_restore():
    tracer = layers.LayerTracer()
    tracer.install()
    try:
        assert len(layers.installed()) == len(tracer._saved) > 20
        with pytest.raises(RuntimeError):
            layers.assert_clean()
    finally:
        tracer.uninstall()
    assert layers.installed() == []


def test_compare_verdicts():
    parent = [100.0, 101.0, 99.0, 100.5, 100.2, 99.8, 100.1, 99.9, 100.3, 99.7]
    same = list(parent)
    slower = [v * 1.3 for v in parent]
    faster = [v * 0.8 for v in parent]
    assert compare.verdict(parent, same, "lower", 0.1)[0] == "unchanged"
    assert compare.verdict(parent, slower, "lower", 0.1)[0] == "regressed"
    assert compare.verdict(parent, faster, "lower", 0.1)[0] == "improved"
    assert compare.verdict(parent, slower, "higher", 0.1)[0] == "improved"
    noisy = [50.0, 150.0, 100.0, 60.0, 140.0]
    assert compare.verdict(noisy, noisy[::-1], "lower", 0.1)[0] == "unresolved"
