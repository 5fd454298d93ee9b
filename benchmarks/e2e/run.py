"""End-to-end benchmark: five workloads through the real front doors.

Run one workload (in this process)::

    python3 benchmarks/e2e/run.py --workload sql-short --seed 1 --seconds 10 --trace 0

or every workload, each in a fresh subprocess, writing all reports::

    python3 benchmarks/e2e/run.py --workload all --json runs.json

A run has three phases: set-up (repeated; its median is ``setup_s``), a
timed closed loop that runs the seeded operation stream for ``--seconds``
(and at least the workload's fixed prefix, over which the simulated
metrics are taken), then an untimed check of every answer kept. With
``--trace 1`` half the loop runs untraced and half under the layer
wrappers of ``layers.py``; the run then reports the per-layer metrics and
writes ``results/TRACE_e2e_<workload>.json``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics of
``BENCHMARK.json`` untraced, its per-layer metrics traced). The exit code
is 1 when any operation failed or any answer was wrong.

Compare two sets of runs (see ``compare.py``)::

    python3 benchmarks/e2e/run.py --compare parent1.json parent2.json -- change1.json change2.json
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import subprocess
import sys
import traceback
from collections import defaultdict
from pathlib import Path
from time import perf_counter, perf_counter_ns
from typing import Any, Dict, List, Optional

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RESULTS = HERE / "results"
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402  (needs the src path above)
from compare import compare  # noqa: E402
from workloads import L2_BYTES, SCALES, WORKLOADS, samples_array, shape_of  # noqa: E402

with open(ROOT / "BENCHMARK.json") as _f:
    BENCHMARK = json.load(_f)

WORKLOAD_NAMES = [w["name"] for w in BENCHMARK["workloads"]]


#: Host times are reported at the speed of a quiet reference machine:
#: the fixed kernel below takes about this long on the 2-vCPU machine the
#: bounds were set on, when no neighbour is busy.
REFERENCE_KERNEL_NS = 500_000
#: Shortest gap between two speed probes.
PROBE_EVERY_S = 0.1


def _kernel_ns() -> int:
    """One run of the reference kernel: interpreter and numpy work."""
    t0 = perf_counter_ns()
    d: Dict[int, int] = {}
    for i in range(4000):
        d[i % 97] = d.get(i % 97, 0) + i
    np.sort(np.arange(20_000)[::-1]) * 3 + 1
    return perf_counter_ns() - t0


class SpeedProbe:
    """The machine's current speed, read from the reference kernel.

    On a shared machine the same work runs up to ~1.5x slower for seconds
    at a time while neighbours are busy. The loop probes between
    operations and rescales each operation's host time by
    ``REFERENCE_KERNEL_NS / kernel time`` (the mean of the probes before
    and after it), which removes most of that drift; raw times stay in
    the report's details.
    """

    def __init__(self):
        self.samples: List[int] = []
        self._measure()

    def _measure(self) -> None:
        self.kernel_ns = min(_kernel_ns() for _ in range(3))
        self.at = perf_counter()
        self.samples.append(self.kernel_ns)

    def step(self, fresh: bool = False) -> float:
        """Scale factor for the host time of work that just ended (probing
        again when ``fresh`` or when the last probe is old enough)."""
        before = self.kernel_ns
        if fresh or perf_counter() - self.at >= PROBE_EVERY_S:
            self._measure()
        return 2 * REFERENCE_KERNEL_NS / (before + self.kernel_ns)


class Tally:
    """What the timed loop accumulates across one run (both halves)."""

    def __init__(self):
        self.ops = 0
        self.counted = 0
        self.busy_ns = 0
        self.scaled_ns = 0.0
        self.prefix_cycles = 0.0
        self.prefix_count = 0
        #: Peak RSS once set-up and the fixed prefix have run: the same
        #: amount of work on every commit, however fast the loop goes.
        self.prefix_rss_mb = 0.0
        self.texts: set = set()
        self.shapes: set = set()
        self.text_seen = 0
        self.shape_seen = 0
        self.with_text = 0


def run_loop(w, stream, tally: Tally, probe: SpeedProbe, seconds: float,
             min_ops: int, tracer=None):
    """Run operations until ``seconds`` have passed and at least
    ``min_ops`` ran. Returns ``(counted, busy host seconds)``."""
    ops = counted = busy = 0
    start = perf_counter()
    while ops < min_ops or perf_counter() - start < seconds:
        op = next(stream)
        if tracer is None:
            w.prepare(op)
        else:
            tracer.paused = True
            w.prepare(op)
            tracer.paused = False
            tracer.op = tally.ops
        marks = {k: len(v) for k, v in w.samples.items()}
        t0 = perf_counter_ns()
        try:
            cycles, count = w.run(op)
        except Exception:  # a failed operation is counted; the run goes on
            w.fail(traceback.format_exc(limit=3))
            cycles, count = 0.0, 1
        dt = perf_counter_ns() - t0
        factor = probe.step()
        if op.cls is not None:
            w.samples[op.cls].append(dt)
        for k, xs in list(w.samples.items()):
            w.scaled[k].extend(round(x * factor) for x in xs[marks.get(k, 0):])
        if tally.ops < w.min_ops:
            tally.prefix_cycles += cycles
            tally.prefix_count += count
            if tally.ops == w.min_ops - 1:
                tally.prefix_rss_mb = _peak_rss_mb()
        if op.text is not None:
            shape = shape_of(op.text)
            tally.with_text += 1
            tally.text_seen += op.text in tally.texts
            tally.shape_seen += shape in tally.shapes
            tally.texts.add(op.text)
            tally.shapes.add(shape)
        tally.ops += 1
        tally.counted += count
        tally.busy_ns += dt
        tally.scaled_ns += dt * factor
        ops += 1
        counted += count
        busy += dt
    return counted, busy / 1e9


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _median_ms(samples) -> float:
    return statistics.median(samples) / 1e6


def _geomean(values: List[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def latency_details(samples: Dict[str, Any]) -> Dict[str, tuple]:
    """Per class: the median and the highest percentile with at least ten
    samples beyond it, each with its sample count."""
    out = {}
    for cls, xs in samples.items():
        n = len(xs)
        out[f"{cls}_p50_ms"] = (_median_ms(xs), "ms", "lower")
        out[f"{cls}_n"] = (float(n), "count", "higher")
        for p in (99.9, 99.0, 90.0):
            if n * (100.0 - p) / 100.0 >= 10:
                ordered = sorted(xs)
                tail = ordered[min(n - 1, math.ceil(p / 100.0 * n) - 1)] / 1e6
                out[f"{cls}_p{p:g}_ms"] = (tail, "ms", "lower")
                break
    return out


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, scale_name: str = "full"
) -> Dict[str, Any]:
    """One workload run in this process; returns its full report."""
    w = WORKLOADS[name](seed, SCALES[scale_name])
    probe = SpeedProbe()
    setup_s, setup_raw = [], []
    for i in range(w.scale.setup_repeats):
        if i:
            w.teardown()
            gc.collect()
        probe.step(fresh=True)
        t0 = perf_counter()
        w.setup()
        setup_raw.append(perf_counter() - t0)
        setup_s.append(setup_raw[-1] * probe.step(fresh=True))

    tally = Tally()
    details: Dict[str, tuple] = {}
    per_layer = None
    try:
        layers.assert_clean()
        stream = w.ops()
        if not trace:
            run_loop(w, stream, tally, probe, seconds, w.min_ops)
            w.finish()
        else:
            run_loop(w, stream, tally, probe, seconds / 2, w.min_ops)
            untraced = w.samples, w.scaled
            w.samples, w.scaled = defaultdict(samples_array), defaultdict(samples_array)
            tracer = layers.LayerTracer()
            before = layers.snapshot(w.probes())
            tracer.install()
            w.tracer = tracer
            try:
                counted, busy = run_loop(
                    w, stream, tally, probe, seconds / 2, max(1, len(w.classes)), tracer
                )
                t0 = perf_counter()
                w.finish()
                busy += perf_counter() - t0
            finally:
                tracer.uninstall()
                w.tracer = None
            layers.assert_clean()
            after = layers.snapshot(w.probes())
            plain = untraced[1]
            both = [c for c in w.classes if plain.get(c) and w.scaled.get(c)]
            overhead = _geomean(
                [_median_ms(w.scaled[c]) / _median_ms(plain[c]) for c in both]
            )
            per_layer = layers.layer_metrics(tracer, counted, busy, before, after,
                                             overhead)
            RESULTS.mkdir(exist_ok=True)
            path = RESULTS / f"TRACE_e2e_{name}.json"
            spans = tracer.write_chrome(str(path), name)
            details["traced_spans"] = (float(spans), "count", "lower")
            w.samples, w.scaled = untraced
        attempted = tally.counted + w.verify()
        own_descriptors = w.descriptors()
    finally:
        w.teardown()

    failed = len(w.failures)
    classes = [c for c in w.classes if w.samples.get(c)]
    e2e = {
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (tally.prefix_rss_mb, "MB"),
        "throughput_ops": (tally.counted / (tally.scaled_ns / 1e9), "ops/s"),
        "p50_ms": (_geomean([_median_ms(w.scaled[c]) for c in classes]), "ms"),
        "sim_cycles_per_op": (tally.prefix_cycles / tally.prefix_count, "cycles/op"),
    }
    details.update(latency_details({c: w.scaled[c] for c in classes}))
    # The same figures on the raw host clock, before speed scaling.
    details["raw_setup_s"] = (statistics.median(setup_raw), "s", "lower")
    details["raw_throughput_ops"] = (tally.counted / (tally.busy_ns / 1e9), "ops/s",
                                     "higher")
    details["raw_p50_ms"] = (
        _geomean([_median_ms(w.samples[c]) for c in classes]), "ms", "lower")
    details["probe_kernel_us"] = (statistics.median(probe.samples) / 1e3, "us", "lower")
    details.update(w.details)
    details["error_rate"] = (failed / max(attempted, 1), "failed/attempted", "lower")
    # Simulated cycles over the fixed prefix: exact per seed, kept in the
    # details so traced and untraced runs can be checked against each other.
    details["sim_cycles_prefix"] = (tally.prefix_cycles, "cycles", "lower")
    descriptors = {
        "ops": tally.ops,
        "ops_counted": tally.counted,
        "prefix_ops": w.min_ops,
        "clients": 1,
        "flush_policy": w.flush_policy,
        "l2_bytes": L2_BYTES,
    }
    if tally.with_text:
        descriptors["exact_text_seen_share"] = tally.text_seen / tally.with_text
        descriptors["shape_seen_share"] = tally.shape_seen / tally.with_text
    descriptors.update(own_descriptors)

    if per_layer is None:
        want = [m["name"] for m in BENCHMARK["end_to_end"]]
        metrics = {k: e2e[k] for k in want}
    else:
        want = [m["name"] for m in BENCHMARK["per_layer"]]
        metrics = {k: per_layer[k] for k in want}
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "scale": scale_name,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failures": [f[:500] for f in w.failures[:10]],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "details": {k: {"value": v, "unit": u, "better": b}
                    for k, (v, u, b) in details.items()},
        "descriptors": descriptors,
    }


def print_report(report: Dict[str, Any]) -> None:
    print(f"== {report['workload']}  seed={report['seed']}  "
          f"seconds={report['seconds']:g}  trace={report['trace']}  "
          f"scale={report['scale']}")
    for name, m in report["metrics"].items():
        print(f"  {name:<34} {m['value']:>16.6g} {m['unit']}")
    print("  -- details")
    for name, m in report["details"].items():
        print(f"  {name:<34} {m['value']:>16.6g} {m['unit']}")
    print("  -- workload")
    for name, v in report["descriptors"].items():
        print(f"  {name:<34} {v}")
    print(f"  correct={report['correct']} attempted={report['attempted']} "
          f"failed={report['failed']}")
    for f in report["failures"]:
        print("  FAILED: " + f.strip().replace("\n", "\n          "))


def result_line(report: Dict[str, Any]) -> str:
    return json.dumps({k: report[k] for k in ("correct", "attempted", "failed", "metrics")})


def run_all(args) -> int:
    """Each workload in a fresh subprocess, one after another."""
    RESULTS.mkdir(exist_ok=True)
    runs: Dict[str, Any] = {}
    for name in WORKLOAD_NAMES:
        out = RESULTS / f"run_{name}.json"
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--scale", args.scale, "--json", str(out)]
        subprocess.run(cmd, check=False)
        if out.exists():
            with open(out) as f:
                runs.update(json.load(f)["runs"])
            out.unlink()
        else:
            runs[name] = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    if args.json:
        with open(args.json, "w") as f:
            json.dump({"runs": runs}, f, indent=1)
    summary = {
        "correct": all(r["correct"] for r in runs.values()),
        "attempted": sum(r["attempted"] for r in runs.values()),
        "failed": sum(r["failed"] for r in runs.values()),
        "metrics": {f"{w}/{k}": m for w, r in runs.items()
                    for k, m in r["metrics"].items()},
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(BENCHMARK["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--json", default="", help="write the full report(s) here")
    parser.add_argument("--compare", nargs="+", metavar="PARENT.json",
                        help="parent run files; change run files follow '--'")
    parser.add_argument("change", nargs="*", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.compare:
        if not args.change:
            parser.error("--compare needs change run files after '--'")
        lines, regressed = compare(args.compare, args.change, BENCHMARK)
        print("\n".join(lines))
        return 1 if regressed else 0
    if args.change:
        parser.error(f"unexpected arguments: {args.change}")
    if args.workload == "all":
        return run_all(args)

    report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                          args.scale)
    if args.json:
        with open(args.json, "w") as f:
            json.dump({"runs": {args.workload: report}}, f, indent=1)
    print_report(report)
    print(result_line(report), flush=True)
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
