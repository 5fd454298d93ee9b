"""The paired-timing helper behind every host-ratio gate."""

import gc
from unittest import mock

import pytest

from repro.bench import timing


class FakeClock:
    """A clock that moves only when told to."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def timed_with(clock, durations, log=None, name=""):
    """A side whose set-up advances ``clock`` by 100 s (untimed work) and
    whose pair-``i`` thunk advances it by ``durations[i]`` and returns
    ``(name, i)``."""

    def setup(pair):
        clock.now += 100.0
        if log is not None:
            log.append((name, pair))

        def run():
            clock.now += durations[pair]
            return name, pair

        return run

    return setup


@pytest.fixture
def clock():
    fake = FakeClock()
    with mock.patch.object(timing, "_clock", fake):
        yield fake


def test_sides_alternate_first_between_pairs(clock):
    log = []
    timing.paired_timing(
        timed_with(clock, [1.0] * 4, log, "a"), timed_with(clock, [1.0] * 4, log, "b"), 4
    )
    assert log == [("a", 0), ("b", 0), ("b", 1), ("a", 1), ("a", 2), ("b", 2), ("b", 3), ("a", 3)]


def test_only_the_thunk_is_timed(clock):
    result = timing.paired_timing(
        timed_with(clock, [3.0, 5.0, 7.0], name="a"), timed_with(clock, [1.0, 1.0, 2.0], name="b"), 3
    )
    assert result.seconds == ([3.0, 5.0, 7.0], [1.0, 1.0, 2.0])
    assert result.outputs == ([("a", 0), ("a", 1), ("a", 2)], [("b", 0), ("b", 1), ("b", 2)])


def test_median_and_quartiles_of_the_pair_ratios(clock):
    # Per-pair ratios 4, 1, 7, 3, 6, 2, 5 (unsorted on purpose).
    result = timing.paired_timing(
        timed_with(clock, [8.0, 2.0, 14.0, 6.0, 12.0, 4.0, 10.0]), timed_with(clock, [2.0] * 7)
    )
    assert result.ratio == 4.0
    assert (result.q1, result.q3) == (2.5, 5.5)
    assert str(result) == "4 [2.5–5.5]"


def test_default_pair_count():
    result = timing.paired_timing(lambda _: lambda: 1, lambda _: lambda: 2)
    assert len(result.seconds[0]) == len(result.outputs[1]) == timing.PAIRS


@pytest.mark.parametrize("enabled", [True, False])
def test_collector_off_while_timing_and_restored(enabled):
    seen = []

    def side(_pair):
        def run():
            seen.append(gc.isenabled())
            return sum(range(1000))

        return run

    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        timing.paired_timing(side, side, 2)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert seen == [False] * 4


@pytest.mark.parametrize("enabled", [True, False])
def test_collector_restored_when_a_side_raises(enabled):
    def broken(pair):
        def run():
            raise RuntimeError(f"pair {pair}")

        return run

    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        with pytest.raises(RuntimeError, match="pair 0"):
            timing.paired_timing(lambda _: lambda: None, broken)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
