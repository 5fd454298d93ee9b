"""Batched trace kernel vs the scalar reference: exact equivalence.

The whole value of :mod:`repro.hw.batch` is that it is *not* an
approximation: for any sequence of line batches — mixed strides, writes,
random scatter, re-references — the batched path must leave the
hierarchy in the same state (every cache set, prefetcher stream, open
DRAM row, counter, and tick) and return the same cycle totals as the
scalar per-line loop. These property tests drive both implementations
with identical inputs and compare full state snapshots.
"""

import contextlib
import dataclasses
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw import batch as hwbatch
from repro.hw.analytic import TraceMemoryModel
from repro.hw.cache import Cache
from repro.hw.config import TEST_PLATFORM, default_platform
from repro.hw.hierarchy import MemoryHierarchy


# ----------------------------------------------------------------------
# Full-state snapshots (private attributes on purpose: the equivalence
# claim covers *end state*, not just the public counters).
# ----------------------------------------------------------------------
def cache_state(cache):
    """Tick, stats and each set's sorted ``(tag, last_use, use_count,
    dirty)`` tuples; way position inside a set carries no meaning."""
    return (
        cache._tick,
        dataclasses.asdict(cache.stats),
        [
            sorted(
                (tag, last, uses, dirty)
                for tag, last, uses, dirty in zip(*cols)
                if tag >= 0
            )
            for cols in zip(
                cache.tags.tolist(),
                cache.last_use.tolist(),
                cache.use_count.tolist(),
                cache.dirty.tolist(),
            )
        ],
    )


def prefetcher_state(pf):
    return (
        pf._tick,
        pf._next_id,
        pf.covered,
        pf.uncovered,
        sorted(
            (sid, s.next_line, s.stride_lines, s.trained, s.hits, s.last_use)
            for sid, s in pf._streams.items()
        ),
    )


def hierarchy_state(h):
    return (
        dataclasses.asdict(h.stats),
        cache_state(h.l1),
        cache_state(h.l2),
        dataclasses.asdict(h.dram.stats),
        list(h.dram._open_rows),
        prefetcher_state(h.prefetcher),
    )


def replay(platform, batches, batched: bool):
    """Run ``[(lines, write, stride_hint), ...]`` through one hierarchy."""
    h = MemoryHierarchy(platform)
    cycles = []
    for lines, write, stride in batches:
        if batched:
            c = h.access_lines_batch(
                np.asarray(lines, dtype=np.int64), write=write, stride_hint=stride
            )
        else:
            c = h.access_lines([int(x) for x in lines], write=write, stride_hint=stride)
        cycles.append(c)
    return cycles, hierarchy_state(h)


# ----------------------------------------------------------------------
# Hypothesis strategies: batches that exercise every kernel path —
# contiguous runs (prefetcher trains), strided runs (set-conflicts),
# random scatter (stack-distance route), and re-references.
# ----------------------------------------------------------------------
LINE = st.integers(min_value=0, max_value=4096)


@st.composite
def line_batch(draw):
    kind = draw(st.sampled_from(["seq", "strided", "random", "rerun"]))
    n = draw(st.integers(min_value=1, max_value=120))
    start = draw(LINE)
    if kind == "seq":
        lines = list(range(start, start + n))
        stride = 64
    elif kind == "strided":
        step = draw(st.integers(min_value=2, max_value=33))
        lines = list(range(start, start + n * step, step))
        stride = step * 64
    elif kind == "rerun":
        base = draw(st.integers(min_value=0, max_value=64))
        lines = [base + (i % draw(st.integers(min_value=1, max_value=16))) for i in range(n)]
        stride = 0
    else:
        lines = [draw(LINE) for _ in range(min(n, 40))]
        stride = draw(st.sampled_from([0, 64, 2**20]))
    write = draw(st.booleans())
    return lines, write, stride


@st.composite
def trace_scenario(draw):
    return draw(st.lists(line_batch(), min_size=1, max_size=6))


class TestBatchEqualsScalar:
    @settings(max_examples=150, deadline=None)
    @given(trace_scenario())
    def test_mixed_batches_bit_identical(self, batches):
        scalar_cycles, scalar_state = replay(TEST_PLATFORM, batches, batched=False)
        batch_cycles, batch_state = replay(TEST_PLATFORM, batches, batched=True)
        assert batch_cycles == scalar_cycles
        assert batch_state == scalar_state

    @settings(max_examples=40, deadline=None)
    @given(trace_scenario())
    def test_default_platform_bit_identical(self, batches):
        scalar_cycles, scalar_state = replay(
            default_platform(), batches, batched=False
        )
        batch_cycles, batch_state = replay(default_platform(), batches, batched=True)
        assert batch_cycles == scalar_cycles
        assert batch_state == scalar_state

    def test_empty_batch(self):
        h = MemoryHierarchy(TEST_PLATFORM)
        assert h.access_lines_batch(np.empty(0, dtype=np.int64)) == 0
        assert hierarchy_state(h) == hierarchy_state(MemoryHierarchy(TEST_PLATFORM))

    def test_write_dirtiness_matches(self):
        batches = [
            (list(range(0, 50)), True, 64),
            (list(range(0, 50)), False, 64),
            (list(range(1000, 1010)), True, 0),
        ]
        assert replay(TEST_PLATFORM, batches, True) == replay(
            TEST_PLATFORM, batches, False
        )


# ----------------------------------------------------------------------
# Stack-distance cases on the default platform (1024 x 16-way L2). The
# small strategies above never fill a set of it; these reach warm
# residents, working sets between L1 and L2 capacity, and re-reference
# windows far longer than the associativity.
# ----------------------------------------------------------------------
DEFAULT = default_platform()
L1_LINES = DEFAULT.l1.num_lines
L2_LINES = DEFAULT.l2.num_lines
L2_SETS = DEFAULT.l2.num_sets
L2_WAYS = DEFAULT.l2.ways


@st.composite
def warm_rescan(draw):
    """A scan, then a second scan over the same lines (or a shifted,
    strided or shortened view of them) while they are partly resident."""
    n = draw(st.sampled_from([L1_LINES, L2_LINES // 2, L2_LINES, L2_LINES + L2_LINES // 4]))
    n += draw(st.integers(min_value=0, max_value=L1_LINES))
    start = draw(st.integers(min_value=n // 2, max_value=1 << 20))
    first = list(range(start, start + n))
    shift = draw(st.integers(min_value=-n // 2, max_value=n // 2))
    step = draw(st.sampled_from([1, 1, 2, 3]))
    length = draw(st.integers(min_value=1, max_value=n))
    second = list(range(start + shift, start + shift + length * step, step))
    write = draw(st.booleans())
    return [(first, write, 64), (second, not write, step * 64)]


@st.composite
def hammered_set(draw):
    """One L2 set hammered by a hot group of lines between two references
    of a third line: with two hot lines the L1 window is long, with 5-15
    the L1 misses and the L2 window is long, with more the third misses."""
    base = draw(st.integers(min_value=0, max_value=1 << 16))
    hot = draw(st.integers(min_value=2, max_value=20))
    # Windows longer than 4 * ways reach the walk's exact-count finish.
    reps = draw(st.integers(min_value=4 * L2_WAYS // hot + 1, max_value=2000 // hot))
    group = [base + (k + 1) * L2_SETS for k in range(hot)]
    noise = draw(st.lists(st.integers(0, 4 * L2_LINES), max_size=8))
    body = group * reps
    for pos, line in zip(draw(st.permutations(range(len(body))))[: len(noise)], noise):
        body[pos] = line
    lines = [base] + body + [base] + group
    return [(lines, draw(st.booleans()), 0)]


class TestStackDistanceDefaultPlatform:
    @settings(max_examples=12, deadline=None)
    @given(warm_rescan())
    def test_warm_rescan_bit_identical(self, batches):
        assert replay(DEFAULT, batches, True) == replay(DEFAULT, batches, False)

    @settings(max_examples=25, deadline=None)
    @given(hammered_set())
    def test_hammered_set_bit_identical(self, batches):
        assert replay(DEFAULT, batches, True) == replay(DEFAULT, batches, False)

    @settings(max_examples=12, deadline=None)
    @given(
        st.integers(min_value=1, max_value=4000),
        st.integers(min_value=2 * L1_LINES, max_value=L2_LINES),
        st.integers(min_value=1, max_value=3),
    )
    def test_probe_walk_between_l1_and_l2_bit_identical(self, n, ws_lines, walks):
        """LCG probe walks (a hash-join probe) over a working set larger
        than L1 and smaller than L2, after a scan that warms L2."""
        fast = TraceMemoryModel(DEFAULT, use_batch=True)
        slow = TraceMemoryModel(DEFAULT, use_batch=False)
        for model in (fast, slow):
            model.sequential(L1_LINES * 64)
            for _ in range(walks):
                model.random(n, ws_lines * 64)
        assert fast._rng_state == slow._rng_state
        assert hierarchy_state(fast.hierarchy) == hierarchy_state(slow.hierarchy)


# ----------------------------------------------------------------------
# One case per narrow-key path of the kernel, on the default platform:
# the chain key over a wide and a narrow line range, residents outside
# and inside it, the cold route into partly filled sets, and DRAM demand
# misses ordered by bank.
# ----------------------------------------------------------------------
SEED = st.integers(min_value=0, max_value=2**32 - 1)


def bank_state(h):
    dram = h.dram
    return (dram.bank_lines, dram.bank_row_hits, dram.bank_row_misses)


class TestNarrowKeyPaths:
    @settings(max_examples=6, deadline=None)
    @given(st.integers(70_000, 200_000), st.integers(1_000, 6_000), SEED)
    def test_wide_probe_walk_after_scan_bit_identical(self, ws_lines, n, seed):
        """A probe walk spanning more than 2**16 lines (a two-pass chain
        key) after a scan that leaves L2 full of lines below its range."""
        rng = np.random.default_rng(seed)
        scan = list(range(L2_LINES + L1_LINES))
        base = L2_LINES + L1_LINES + 64
        walk = [base, *(base + rng.integers(0, ws_lines, n)).tolist(), base + ws_lines - 1]
        assert max(walk) - min(walk) >= 1 << 16
        batches = [(scan, False, 64), (walk, False, 2**20)]
        assert replay(DEFAULT, batches, True) == replay(DEFAULT, batches, False)

    @settings(max_examples=10, deadline=None)
    @given(
        st.integers(L1_LINES, 2 * L2_LINES),
        st.integers(L1_LINES, 3 * L2_LINES),
        st.integers(500, 5_000),
        st.booleans(),
        SEED,
    )
    def test_walk_over_preceding_scan_bit_identical(self, scan_len, ws_lines, n, write, seed):
        """A probe walk whose line range holds residents of the scan before
        it, some of which it re-references."""
        rng = np.random.default_rng(seed)
        start = 1 << 18
        scan = list(range(start, start + scan_len))
        lo = start + scan_len - ws_lines // 2
        walk = (lo + rng.integers(0, ws_lines, n)).tolist() + [start + scan_len - 1]
        batches = [(scan, write, 64), (walk, not write, 2**20)]
        assert replay(DEFAULT, batches, True) == replay(DEFAULT, batches, False)

    @settings(max_examples=10, deadline=None)
    @given(
        st.integers(1, L2_LINES - 1),
        st.integers(1, 2 * L2_LINES),
        st.sampled_from([1, 3]),
        st.booleans(),
    )
    def test_cold_scan_into_partly_filled_sets_bit_identical(
        self, first_len, second_len, step, write
    ):
        """A distinct scan of a fresh region (contiguous, or strided so its
        sets come from the line array) into sets a shorter scan left
        partly filled."""
        first = list(range(first_len))
        start = 4 * L2_LINES
        second = list(range(start, start + second_len * step, step))
        batches = [(first, write, 64), (second, not write, 64 * step)]
        assert replay(DEFAULT, batches, True) == replay(DEFAULT, batches, False)

    @settings(max_examples=5, deadline=None)
    @given(SEED)
    def test_demand_misses_over_all_banks_bit_identical(self, seed):
        """Random and unprefetchable strided misses land in all eight DRAM
        banks, with row hits among them; per-bank counters match."""
        rng = np.random.default_rng(seed)
        walk = rng.integers(1 << 20, (1 << 20) + 4 * L2_LINES, 8_000)
        strided = np.arange(1 << 22, (1 << 22) + 4_000, 2)
        batches = [(walk, False, 2**20), (strided, False, 2**20)]
        fast, slow = MemoryHierarchy(DEFAULT), MemoryHierarchy(DEFAULT)
        for lines, write, stride in batches:
            assert fast.access_lines_batch(lines, write=write, stride_hint=stride) == (
                slow.access_lines(lines.tolist(), write=write, stride_hint=stride)
            )
        assert hierarchy_state(fast) == hierarchy_state(slow)
        assert bank_state(fast) == bank_state(slow)
        assert len(fast.dram.bank_lines) == 8 and min(fast.dram.bank_lines) > 0
        assert sum(fast.dram.bank_row_hits) > 0


# ----------------------------------------------------------------------
# The closed-form routes at one cache level, against the scalar loop: the
# full-cache sweep (a contiguous cold batch of at least ways * num_sets
# lines) and the fit route (a cold re-referencing walk with at most
# `ways` distinct lines in any set). A spy records which route decided
# each call, so a route that silently fell back to stack distance shows.
# ----------------------------------------------------------------------
@contextlib.contextmanager
def spy_routes():
    """Yields ``(route, cache)`` per kernel call; ``fit`` only when the fit
    route took the walk, ``fit-rejected`` when it handed it on."""
    taken = []

    def spy(name, fn):
        def wrapped(cache, *args):
            out = fn(cache, *args)
            taken.append((name if out is not None else f"{name}-rejected", cache))
            return out

        return wrapped

    with pytest.MonkeyPatch.context() as mp:
        for name in ("sweep", "cold", "fit", "stack"):
            attr = f"_{name}_access"
            mp.setattr(hwbatch, attr, spy(name, getattr(hwbatch, attr)))
        yield taken


@pytest.fixture
def routes():
    with spy_routes() as taken:
        yield taken


def run_level(config, prefill, lines, write):
    """``lines`` through a fresh batch cache and a scalar cache, both
    prefilled by the scalar loop with ``[(line, write), ...]``; returns
    both hit lists and end states."""
    fast, slow = Cache(config), Cache(config)
    for cache in (fast, slow):
        for line, w in prefill:
            cache.access_line(line, write=w)
    arr = np.asarray(lines, dtype=np.int64)
    contiguous = arr.size > 1 and bool(np.all(np.diff(arr) == 1))
    distinct = np.unique(arr).size == arr.size
    hits = hwbatch.batch_cache_access(fast, arr, write, contiguous, distinct).tolist()
    want = [slow.access_line(line, write=write) for line in arr.tolist()]
    return (hits, cache_state(fast)), (want, cache_state(slow))


def outside_prefill(seed, n, below):
    """``n`` accesses to lines below ``below``, with repeats (hit residents)
    and writes (dirty ones)."""
    rng = np.random.default_rng(seed)
    lines = rng.integers(0, below, n).tolist()
    return [(line, bool(w)) for line, w in zip(lines, rng.integers(0, 2, n))]


LEVELS = {
    "test-l2": TEST_PLATFORM.l2,
    "default-l1": DEFAULT.l1,
    "default-l2": DEFAULT.l2,
}


class TestSweepRoute:
    @pytest.mark.parametrize("level", sorted(LEVELS))
    @pytest.mark.parametrize("extra", [-1, 0, 1])
    @pytest.mark.parametrize("write", [False, True])
    def test_sweep_around_capacity_bit_identical(self, routes, level, extra, write):
        """Sweeps of ``cap - 1``, ``cap`` and ``cap + 1`` lines over sets
        holding residents (hit, unhit, dirty) and empty ways."""
        config = LEVELS[level]
        cap = config.num_sets * config.ways
        prefill = outside_prefill(cap + extra, cap // 2, 3 * cap)
        start = 4 * cap + 5  # not set-aligned
        lines = range(start, start + cap + extra)
        got, want = run_level(config, prefill, lines, write)
        assert got == want
        assert [name for name, _ in routes] == ["cold" if extra < 0 else "sweep"]

    @pytest.mark.parametrize("write", [False, True])
    def test_sweep_into_empty_cache_bit_identical(self, routes, write):
        config = TEST_PLATFORM.l2
        cap = config.num_sets * config.ways
        got, want = run_level(config, [], range(7, 7 + 3 * cap + 2), write)
        assert got == want
        assert [name for name, _ in routes] == ["sweep"]

    def test_sweep_with_resident_in_range_takes_stack_route(self, routes):
        config = TEST_PLATFORM.l2
        cap = config.num_sets * config.ways
        start = 4 * cap
        prefill = [(start + cap // 2, False)]
        got, want = run_level(config, prefill, range(start, start + 2 * cap), False)
        assert got == want
        assert [name for name, _ in routes] == ["stack"]


def fitting_walk(config, seed, per_set, base, spread, refs):
    """A walk over ``per_set[s]`` distinct lines of set ``s`` (one entry
    per set), each line a line of its set at a tag offset below
    ``spread``, referenced ``refs`` times on average in a random order;
    every distinct line appears."""
    rng = np.random.default_rng(seed)
    distinct = []
    for s, k in enumerate(per_set):
        tags = rng.choice(spread, size=k, replace=False)
        distinct += [base + s + int(t) * config.num_sets for t in tags]
    walk = distinct + rng.choice(distinct, size=len(distinct) * (refs - 1)).tolist()
    rng.shuffle(walk)
    return walk


class TestFitRoute:
    @pytest.mark.parametrize("level", sorted(LEVELS))
    @pytest.mark.parametrize("write", [False, True])
    def test_residents_outside_range_bit_identical(self, routes, level, write):
        """Full sets of residents below the range: every install evicts one
        of them, oldest first."""
        config = LEVELS[level]
        cap = config.num_sets * config.ways
        prefill = outside_prefill(1, 3 * cap, 2 * cap)
        per_set = [(s * 7) % (config.ways + 1) for s in range(config.num_sets)]
        walk = fitting_walk(config, 2, per_set, 4 * cap, 3 * config.ways, 4)
        got, want = run_level(config, prefill, walk, write)
        assert got == want
        assert [name for name, _ in routes] == ["fit"]

    @pytest.mark.parametrize("write", [False, True])
    def test_empty_ways_bit_identical(self, routes, write):
        """Partly filled sets: installs take empty ways before any resident
        is evicted."""
        config = DEFAULT.l2
        cap = config.num_sets * config.ways
        prefill = outside_prefill(3, cap // 3, 2 * cap)
        per_set = [s % (config.ways + 1) for s in range(config.num_sets)]
        walk = fitting_walk(config, 4, per_set, 4 * cap, 4 * config.ways, 3)
        got, want = run_level(config, prefill, walk, write)
        assert got == want
        assert [name for name, _ in routes] == ["fit"]

    @pytest.mark.parametrize("level", sorted(LEVELS))
    def test_exactly_ways_per_set_bit_identical(self, routes, level):
        """Every set takes exactly ``ways`` distinct lines, so each one
        ends holding only the walk's lines."""
        config = LEVELS[level]
        cap = config.num_sets * config.ways
        prefill = outside_prefill(5, 2 * cap, 2 * cap)
        walk = fitting_walk(config, 6, [config.ways] * config.num_sets, 4 * cap, 2 * config.ways, 3)
        got, want = run_level(config, prefill, walk, True)
        assert got == want
        assert [name for name, _ in routes] == ["fit"]

    @pytest.mark.parametrize("level", sorted(LEVELS))
    def test_ways_plus_one_falls_back(self, routes, level):
        """One set with ``ways + 1`` distinct lines evicts a line of the
        walk: the fit route hands the walk to stack distance."""
        config = LEVELS[level]
        cap = config.num_sets * config.ways
        prefill = outside_prefill(7, cap, 2 * cap)
        per_set = [1] * config.num_sets
        per_set[3] = config.ways + 1
        walk = fitting_walk(config, 8, per_set, 4 * cap, 2 * config.ways, 5)
        got, want = run_level(config, prefill, walk, False)
        assert got == want
        assert [name for name, _ in routes] == ["fit-rejected", "stack"]

    @pytest.mark.parametrize("spread", [8, 4096])
    def test_more_lines_than_fit_falls_back(self, routes, spread):
        """Twice as many distinct lines as the cache holds, dense (a few
        tag offsets per set) or sparse (thousands) in their range."""
        config = TEST_PLATFORM.l2
        cap = config.num_sets * config.ways
        walk = fitting_walk(config, 10, [2 * config.ways] * config.num_sets, 4 * cap, spread, 3)
        got, want = run_level(config, outside_prefill(11, cap, 2 * cap), walk, True)
        assert got == want
        assert [name for name, _ in routes] == ["fit-rejected", "stack"]

    def test_more_lines_than_fit_in_a_short_walk_falls_back(self, routes):
        """A walk of fewer than twice the capacity in references, over more
        distinct lines than fit: the full count rejects it."""
        config = TEST_PLATFORM.l2
        cap = config.num_sets * config.ways
        lines = list(range(4 * cap, 4 * cap + cap + 20))
        walk = lines + lines[:40]
        got, want = run_level(config, outside_prefill(12, cap, 2 * cap), walk, False)
        assert got == want
        assert [name for name, _ in routes] == ["fit-rejected", "stack"]

    def test_resident_in_range_falls_back(self, routes):
        config = TEST_PLATFORM.l2
        cap = config.num_sets * config.ways
        walk = fitting_walk(config, 9, [2] * config.num_sets, 4 * cap, 8, 3)
        prefill = [(min(walk) + 1, False), (max(walk) - 1, True)]
        got, want = run_level(config, prefill, walk, False)
        assert got == want
        assert [name for name, _ in routes] == ["fit-rejected", "stack"]

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(sorted(LEVELS)),
        SEED,
        st.integers(0, 4),
        st.sampled_from([1, 4, 1 << 12]),
        st.integers(1, 6),
        st.booleans(),
        st.floats(0.0, 3.0),
    )
    def test_walks_bit_identical(self, level, seed, over, spread, refs, write, fill):
        """Walks dense and sparse in their range (``spread`` tag offsets per
        set), with and without a set over ``ways``, over caches filled to
        ``fill`` times their capacity below the range."""
        config = LEVELS[level]
        cap = config.num_sets * config.ways
        rng = np.random.default_rng(seed)
        spread = max(spread, config.ways + 1)
        per_set = rng.integers(0, config.ways + 1, config.num_sets)
        per_set[rng.integers(0, config.num_sets, over)] = config.ways + 1
        prefill = outside_prefill(seed, int(fill * cap), 2 * cap)
        walk = fitting_walk(config, seed, per_set.tolist(), 4 * cap, spread, refs)
        if not walk:
            return
        with spy_routes() as routes:
            got, want = run_level(config, prefill, walk, write)
        assert got == want
        if refs > 1:  # a walk with repeats: fit exactly when no set is over
            assert routes[0][0] == ("fit-rejected" if over else "fit")


class TestQ3WalkRoutes:
    def test_second_probe_walk_takes_fit_route_at_l2(self, routes):
        """The trace model in the shape of Q3: a cold scan, the first probe walk (39,299
        lines, too many for L2's sets) and the second (7,458 lines, which
        fit). Only the second walk's L2 call takes the fit route."""
        model = TraceMemoryModel(DEFAULT)
        h = model.hierarchy
        model.sequential(87_500 * 64)
        del routes[:]
        model.random(107_703, 39_299 * 64)
        first = list(routes)
        del routes[:]
        model.random(107_703, 7_458 * 64)
        assert first == [
            ("fit-rejected", h.l1), ("stack", h.l1),
            ("fit-rejected", h.l2), ("stack", h.l2),
        ]
        assert routes == [
            ("fit-rejected", h.l1), ("stack", h.l1), ("fit", h.l2),
        ]


class TestSingleMissRunPrefetch:
    """A cold contiguous batch reaches the prefetcher as one unit-stride
    run of misses: its covered misses are a suffix, so a count decides
    the split, with no mask. Other strides and a stream sitting mid-run
    hand the batch to the general segmentation."""

    def test_runs_bit_identical(self, monkeypatch):
        counts = []
        real = hwbatch.batch_prefetch_run

        def spy(*args):
            counts.append(real(*args))
            return counts[-1]

        monkeypatch.setattr(hwbatch, "batch_prefetch_run", spy)
        max_stride = TEST_PLATFORM.prefetcher.max_stride_bytes
        batches = [
            (range(10_000, 10_100), False, 0),  # allocates a stream
            (range(10_100, 10_200), True, 64),  # continues it, trained
            (range(20_000, 20_002), False, 0),  # shorter than training
            (range(30_000, 30_050), False, 128),  # a two-line stride
            (range(40_000, 40_050), False, max_stride + 64),  # unprefetchable
            (range(50_000, 50_010), False, 0),  # a stream waits at 50,010
            (range(100_000, 100_400), False, 0),  # evicts 50,000..50,009
            (range(49_990, 50_030), False, 0),  # that stream is mid-run
        ]
        want = replay(TEST_PLATFORM, batches, batched=False)
        assert replay(TEST_PLATFORM, batches, batched=True) == want
        assert counts == [97, 100, 0, None, None, 7, 397, None]


# ----------------------------------------------------------------------
# Model-level equivalence: the TraceMemoryModel drives the same kernel
# through its four access shapes (plus the shared LCG stream).
# ----------------------------------------------------------------------
@st.composite
def model_op(draw):
    kind = draw(st.sampled_from(["seq", "multi", "random", "gather"]))
    if kind == "seq":
        return ("sequential", draw(st.integers(1, 8192)), draw(st.booleans()))
    if kind == "multi":
        sizes = draw(st.lists(st.integers(0, 4096), min_size=1, max_size=4))
        return ("multi_stream", sizes)
    if kind == "random":
        return ("random", draw(st.integers(1, 200)), draw(st.integers(1, 64)) * 64)
    n_candidates = draw(st.integers(1, 400))
    n_rows = draw(st.integers(1, n_candidates))
    return ("gather", n_candidates, n_rows, draw(st.integers(1, 32)))


def apply_op(model, op):
    name = op[0]
    if name == "sequential":
        return model.sequential(op[1], write=op[2])
    if name == "multi_stream":
        return model.multi_stream(op[1])
    if name == "random":
        return model.random(op[1], op[2])
    return model.gather(op[1], op[2], op[3])


class TestTraceModelBatchFlag:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(model_op(), min_size=1, max_size=5))
    def test_use_batch_equivalent(self, ops):
        fast = TraceMemoryModel(TEST_PLATFORM, use_batch=True)
        slow = TraceMemoryModel(TEST_PLATFORM, use_batch=False)
        for op in ops:
            cf, cs = apply_op(fast, op), apply_op(slow, op)
            assert (cf.covered, cf.exposed) == (cs.covered, cs.exposed)
        assert fast._rng_state == slow._rng_state
        assert hierarchy_state(fast.hierarchy) == hierarchy_state(slow.hierarchy)


# ----------------------------------------------------------------------
# Line builders vs plain loops. Both kernels consume the arrays that
# repro.hw.batch builds, so the builders are pinned here to the per-line
# Python loops that spell out each access pattern.
# ----------------------------------------------------------------------
LCG_A = 6364136223846793005
LCG_C = 1442695040888963407
U64_MASK = 2**64 - 1


def lcg_loop(state, n):
    states = []
    for _ in range(n):
        state = (state * LCG_A + LCG_C) & U64_MASK
        states.append(state)
    return states


def sequential_loop(base_addr, total_bytes, line_bytes):
    first = base_addr // line_bytes
    last = (base_addr + total_bytes - 1) // line_bytes
    return list(range(first, last + 1))


def round_robin_loop(cursors, nlines):
    """Lockstep round-robin: one line from each live stream per round."""
    lines_left, cur, lines = list(nlines), list(cursors), []
    while any(n > 0 for n in lines_left):
        for i in range(len(cur)):
            if lines_left[i] > 0:
                lines.append(cur[i])
                cur[i] += 1
                lines_left[i] -= 1
    return lines


def random_loop(state, base_line, nlines, n_accesses):
    lines = []
    for _ in range(n_accesses):
        state = (state * LCG_A + LCG_C) & U64_MASK
        lines.append(base_line + (state >> 33) % nlines)
    return lines, state


def gather_loop(state, base_line, step, per_line, n_candidates):
    lines, idx = [], 0
    for _ in range(n_candidates):
        state = (state * LCG_A + LCG_C) & U64_MASK
        idx += 1 + (state >> 33) % (2 * step - 1)
        lines.append(base_line + idx // per_line)
    return lines, state


class RecordingHierarchy(MemoryHierarchy):
    """A hierarchy that records every line array either kernel receives."""

    def __init__(self, platform):
        super().__init__(platform)
        self.recorded = []

    def access_lines(self, lines, write=False, stride_hint=0):
        self.recorded.append([int(x) for x in lines])
        return super().access_lines(lines, write=write, stride_hint=stride_hint)

    def access_lines_batch(self, lines, write=False, stride_hint=0):
        self.recorded.append([int(x) for x in lines])
        return super().access_lines_batch(lines, write=write, stride_hint=stride_hint)


def recording_model(use_batch, rng_state):
    model = TraceMemoryModel(
        TEST_PLATFORM, hierarchy=RecordingHierarchy(TEST_PLATFORM), use_batch=use_batch
    )
    model._rng_state = rng_state
    return model


U64 = st.integers(min_value=0, max_value=U64_MASK)


class TestLineBuildersMatchLoops:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 1 << 40),
        st.integers(1, 5000),
        st.sampled_from([16, 32, 64, 128]),
    )
    def test_sequential_lines(self, base_addr, total_bytes, line_bytes):
        got = hwbatch.sequential_lines(base_addr, total_bytes, line_bytes)
        assert got.tolist() == sequential_loop(base_addr, total_bytes, line_bytes)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 1 << 30), st.integers(1, 60)),
            min_size=1,
            max_size=6,
        )
    )
    def test_interleaved_lines(self, streams):
        cursors = [c for c, _ in streams]
        nlines = [n for _, n in streams]
        got = hwbatch.interleaved_lines(cursors, nlines)
        assert got.tolist() == round_robin_loop(cursors, nlines)

    @settings(max_examples=60, deadline=None)
    @given(U64, st.integers(1, 300))
    def test_lcg_states(self, state0, n):
        assert hwbatch.LcgTable().states(state0, n).tolist() == lcg_loop(state0, n)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.tuples(U64, st.integers(1, 3000)), min_size=2, max_size=6))
    def test_lcg_states_across_growing_and_shrinking_walks(self, walks):
        """One table of multiplier powers serves every later walk, longer
        (it grows) or shorter (it is sliced)."""
        table = hwbatch.LcgTable()
        for state0, n in walks:
            assert table.states(state0, n).tolist() == lcg_loop(state0, n)

    @pytest.mark.parametrize("use_batch", [True, False])
    @settings(max_examples=30, deadline=None)
    @given(U64, st.integers(1, 300), st.integers(1, 64))
    def test_random_sends_loop_lines(self, use_batch, state0, n, ws_lines):
        model = recording_model(use_batch, state0)
        base_line = model._alloc_cursor // model.line_bytes
        model.random(n, ws_lines * model.line_bytes)
        lines, state = random_loop(state0, base_line, ws_lines, n)
        assert model.hierarchy.recorded == [lines]
        assert model._rng_state == state

    @pytest.mark.parametrize("use_batch", [True, False])
    @settings(max_examples=30, deadline=None)
    @given(U64, st.integers(1, 400), st.integers(1, 400), st.integers(1, 32))
    def test_gather_sends_loop_lines(self, use_batch, state0, n_candidates, n_rows, value_bytes):
        model = recording_model(use_batch, state0)
        base_line = model._alloc_cursor // model.line_bytes
        model.gather(n_candidates, n_rows, value_bytes)
        step = max(1, n_rows // n_candidates)
        per_line = max(1, model.line_bytes // value_bytes)
        lines, state = gather_loop(state0, base_line, step, per_line, n_candidates)
        assert model.hierarchy.recorded == [lines]
        assert model._rng_state == state


# ----------------------------------------------------------------------
# The perf claim, pinned at reduced scale (the 1M-row / >=20x version
# lives in benchmarks/bench_trace_batch.py).
# ----------------------------------------------------------------------
class TestBatchSpeedup:
    def test_batch_beats_scalar_on_small_trace(self):
        nbytes = 200_000 * 64  # 200k lines, sequential

        def run(use_batch):
            model = TraceMemoryModel(default_platform(), use_batch=use_batch)
            t0 = time.perf_counter()
            cost = model.sequential(nbytes)
            return time.perf_counter() - t0, (cost.covered, cost.exposed)

        t_batch, c_batch = run(True)
        t_scalar, c_scalar = run(False)
        assert c_batch == c_scalar
        speedup = t_scalar / t_batch
        assert speedup > 5.0, f"batch only {speedup:.1f}x faster"
