"""Integration tests: the paper's figure *shapes* as assertions.

One test per row of ``repro.bench.figures.CLAIMS``, the reproduction's
acceptance criteria (EXPERIMENTS.md): who wins, where the crossovers
fall, and the rough factors. Each sweep runs once per process, at the
one scale the bench targets also run.
"""

import re
from pathlib import Path

import pytest

from repro.bench.figures import CLAIMS, crossover, judge, sweep
from repro.bench.harness import Experiment

EXPERIMENTS_MD = Path(__file__).resolve().parent.parent / "EXPERIMENTS.md"
#: A claim id as the prose cites it: `fig6b.corner_high`, `ablation.buffer_monotone`.
CITED_ID = re.compile(r"`((?:fig\d+[a-z0-9]*|ablation)\.\w+)`")


@pytest.mark.parametrize("claim", CLAIMS, ids=lambda c: c.id)
def test_claim(claim):
    verdict = judge(claim)
    assert verdict.ok, str(verdict)


def test_claim_ids_unique_and_citable():
    ids = [c.id for c in CLAIMS]
    assert len(set(ids)) == len(ids)
    assert all(CITED_ID.fullmatch(f"`{i}`") for i in ids)


def test_fig7_rows_tracked_per_point():
    assert all(r > 0 for r in sweep("fig7b").series["rows"].values)


def test_crossover_missing_is_past_the_end_and_named():
    """COL never reaching RM puts the crossover at ``len + 1``, and the
    failing claim names itself."""
    exp = Experiment(name="no-crossing", x_label="projectivity")
    for k in range(1, 12):
        exp.add_point(k, "column", 1.0)
        exp.add_point(k, "rm", 2.0)
    assert crossover(exp) == 12
    claim = next(c for c in CLAIMS if c.id == "fig5.crossover_max")
    verdict = judge(claim, {"fig5": exp})
    assert not verdict.ok
    assert "fig5.crossover_max" in str(verdict)


def _prose_mismatch(text):
    """(claims the prose never cites, cited ids that are no claim)."""
    cited = set(CITED_ID.findall(text))
    ids = {c.id for c in CLAIMS}
    return ids - cited, cited - ids


def test_experiments_md_cites_exactly_the_claims():
    text = EXPERIMENTS_MD.read_text()
    assert _prose_mismatch(text) == (set(), set())
    planted = text + "\n| planted | `fig5.no_such_claim` | ✓ |\n"
    assert _prose_mismatch(planted) == (set(), {"fig5.no_such_claim"})
