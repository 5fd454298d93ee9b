"""Vectorized batch kernel for the trace-mode memory hierarchy.

The scalar reference path (:meth:`repro.hw.hierarchy.MemoryHierarchy.access_lines`)
pays one Python-level cache transaction per line, which caps the
event-accurate model at toy trace sizes. This module simulates the same
hardware — set-associative LRU caches, the bounded stream prefetcher and
banked open-row DRAM — over whole numpy arrays of line addresses at once,
producing **bit-identical** stats, cycles and end state.

The algorithm exploits three structural facts of the hardware:

* **Caches have no cross-set coupling, and LRU is a stack algorithm.**
  Cache state is four ``[num_sets, ways]`` arrays (see
  :class:`repro.hw.cache.Cache`), so one kernel resolves every touched
  set at once, with no Python loop per set or per access. A batch with
  no resident of its touched sets inside its line range is *cold*: no
  access can hit a resident, and three closed forms decide it. A
  contiguous cold batch of at least ``ways * num_sets`` lines *sweeps*
  the cache: every resident is evicted and its last ``ways * num_sets``
  lines stay. Any other distinct cold batch misses everywhere:
  evictions drain each set's LRU queue — residents oldest first, then
  batch installs FIFO — and only each set's last installs survive. A
  cold re-referencing walk with at most ``ways`` distinct lines in every
  set *fits*: none of its lines is evicted, so each misses once and
  then hits. Every other batch goes by LRU stack distance (Mattson et
  al., "Evaluation techniques for storage hierarchies", IBM Sys. J.
  1970): each set's residents are prepended as pseudo-references in LRU
  order, one stable sort chains the references to each line, and an
  access hits iff fewer than ``ways`` distinct lines of its set were
  referenced since its previous reference. Hits, evictions, polluted
  evictions and the end state all follow from the chains.
* **Every sort over a batch is a radix sort on a narrow key.** numpy
  sorts keys of 16 bits or less by counting, so each key is made as
  narrow as the answer allows. The set grouping keys by set index. The
  line chains key by a line's offset inside the batch's line range;
  residents outside that range can never be referenced again, so they
  share one sentinel key past it, and a walk over fewer than 65,536
  lines chains in one pass. A surviving line is always its line's last
  reference, so its chain position comes from the inverse permutation
  of the chain, not from a search. The cold and fit routes rank each
  touched set's free ways once, and DRAM demand misses group by bank
  index.
* **The prefetcher only reacts to L2 misses, in stride runs.** The miss
  subsequence is segmented into maximal arithmetic runs; a run either
  continues one stream (coverage is then a closed form of the stream's
  training count) or allocates one. Runs that another same-stride stream
  could hijack mid-run (its ``next_line`` falls on a run element) replay
  through the scalar :meth:`~repro.hw.prefetcher.StreamPrefetcher.observe_miss`.
* **DRAM banks are independent.** Demand misses group by bank; a row hit
  is a comparison against the previous row in the same bank's
  subsequence, fully vectorized.

Every cache route is exact where it is taken, and the prefetcher's
fallback replays the scalar logic, so equality with the scalar path
holds for *arbitrary* traces (property-tested against :meth:`repro.hw.cache.Cache.access_line`),
while the patterns the query engines emit (sequential, lockstep
multi-stream, LCG random and gather) stay vectorized.

The line builders at the top of the module are the only source of those
patterns' line numbers: :class:`repro.hw.analytic.TraceMemoryModel` hands
the same array to this kernel or, as the reference, to the scalar loop.
Each model's :class:`LcgTable` keeps the LCG multiplier's powers and
their prefix sums between its random/gather walks.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.hw.cache import Cache
from repro.hw.dram import Dram
from repro.hw.prefetcher import StreamPrefetcher, _Stream

__all__ = [
    "LcgTable",
    "batch_cache_access",
    "batch_dram_demand",
    "batch_prefetch",
    "batch_prefetch_run",
    "hierarchy_access_lines_batch",
    "interleaved_lines",
    "sequential_lines",
]

#: The LCG multiplier/increment of the trace model's random/gather walks.
_LCG_A = 6364136223846793005
_LCG_C = 1442695040888963407
_U64 = np.uint64


# ----------------------------------------------------------------------
# Line-address array builders (the trace model's access patterns).
# ----------------------------------------------------------------------
def sequential_lines(base_addr: int, total_bytes: int, line_bytes: int) -> np.ndarray:
    """Line numbers of a contiguous byte region, in scan order."""
    if total_bytes <= 0:
        return np.empty(0, dtype=np.int64)
    shift = line_bytes.bit_length() - 1
    first = base_addr >> shift
    last = (base_addr + total_bytes - 1) >> shift
    return np.arange(first, last + 1, dtype=np.int64)


def interleaved_lines(cursors: List[int], nlines: List[int]) -> np.ndarray:
    """Lockstep round-robin interleave of ascending unit-stride streams:
    one line from each live stream per round (a column engine consuming
    several columns row-wise)."""
    if not cursors:
        return np.empty(0, dtype=np.int64)
    c = np.asarray(cursors, dtype=np.int64)
    ln = np.asarray(nlines, dtype=np.int64)
    max_len = int(ln.max())
    rounds = np.arange(max_len, dtype=np.int64)[:, None]
    grid = c[None, :] + rounds
    mask = rounds < ln[None, :]
    return grid[mask]  # row-major: round by round, stream by stream


class LcgTable:
    """The states of the 64-bit LCG the trace model's random/gather walks
    draw from. State ``k`` after a seed ``s`` is ``a**(k+1) * s + c *
    sum_{j<=k} a**j``: every walk shares the multiplier's powers and their
    prefix sums, so the table keeps them, grown to the longest walk asked
    for, and a walk costs one multiply-add per state."""

    def __init__(self) -> None:
        self._powers = np.empty(0, dtype=_U64)  # a**(k+1)
        self._c_geo = np.empty(0, dtype=_U64)  # c * sum_{j<=k} a**j

    def states(self, state0: int, n: int) -> np.ndarray:
        """The ``n`` successor states of ``state0``, as a uint64 array
        (wraps mod 2**64)."""
        if n <= 0:
            return np.empty(0, dtype=_U64)
        with np.errstate(over="ignore"):
            if self._powers.size < n:
                self._powers = np.cumprod(np.full(n, _LCG_A, dtype=_U64))
                geo = np.cumsum(self._powers) - self._powers + _U64(1)
                self._c_geo = geo * _U64(_LCG_C)
            states = self._powers[:n] * _U64(state0 & (2**64 - 1))
            states += self._c_geo[:n]
        return states


# ----------------------------------------------------------------------
# Cache level: whole-array cold closed form + LRU stack distance.
# ----------------------------------------------------------------------
#: Stack-distance walks step back this many times ``ways`` positions;
#: queries still open then finish with an exact slice count.
_WALK_STEPS = 4


def _radix_argsort(keys: np.ndarray, span: int) -> np.ndarray:
    """``np.argsort(keys, kind="stable")`` for int64 keys in ``[0, span]``,
    as 16-bit radix passes (numpy sorts 16-bit keys by counting): one
    below ``2**16``, two below ``2**32``, else a comparison sort."""
    if span < 1 << 16:
        return np.argsort(keys.astype(np.uint16), kind="stable")
    if span < 1 << 32:
        order = np.argsort((keys & 0xFFFF).astype(np.uint16), kind="stable")
        high = (keys >> 16).astype(np.uint16)[order]
        return order[np.argsort(high, kind="stable")]
    return np.argsort(keys, kind="stable")


def _touched_sets(lines, idx, num_sets: int):
    """Sorted touched set indices and each one's access count. ``idx`` is
    None for a contiguous batch: its lines cycle through the sets, so its
    counts are arithmetic and it needs no set index per line."""
    n = lines.size
    if idx is None:
        if n < num_sets:
            return np.sort(lines & (num_sets - 1)), np.ones(n, dtype=np.int64)
        first = int(lines[0]) & (num_sets - 1)
        sets = np.arange(num_sets, dtype=np.int64)
        counts = np.full(num_sets, n // num_sets, dtype=np.int64)
        counts[(sets - first) % num_sets < n % num_sets] += 1
        return sets, counts
    counts = np.bincount(idx, minlength=num_sets)
    sets = np.flatnonzero(counts)
    return sets, counts[sets]


def _is_cold(cache, lo: int, hi: int, sets) -> bool:
    """True when no resident line of the touched sets lies within the
    batch's line range ``[lo, hi]``, which proves that no access of the
    batch references a resident. A batch with a resident inside its range
    is left to the stack-distance route, which is exact either way."""
    # An empty way's tag -1 reads as a negative line, outside any range.
    resident = (cache.tags[sets] << cache._tag_shift) | sets[:, None]
    return not bool(np.any((resident >= lo) & (resident <= hi)))


def _evict_oldest(cache, sets, r0, k0) -> int:
    """Empty the ``k0`` least recently used residents of each set in
    ``sets`` (which holds ``r0`` residents); returns how many of them were
    never hit."""
    evict = k0 > 0
    if not evict.any():
        return 0
    ways = cache.config.ways
    vsets = sets[evict]
    # Empty ways (last_use 0) sort first, then residents in LRU order.
    order = np.argsort(cache.last_use[vsets], axis=1)
    rank = np.arange(ways)[None, :]
    empty = (ways - r0[evict])[:, None]
    pick = (rank >= empty) & (rank < empty + k0[evict][:, None])
    vr, vk = np.nonzero(pick)
    vs, vw = vsets[vr], order[vr, vk]
    polluted = int(np.count_nonzero(cache.use_count[vs, vw] == 0))
    cache.tags[vs, vw] = -1
    cache.last_use[vs, vw] = 0
    cache.use_count[vs, vw] = 0
    cache.dirty[vs, vw] = False
    return polluted


def _fill_free_ways(cache, sets, s_pos, q, tags, last_use, use_count, dirty) -> None:
    """Install lines into free ways: the line for set ``s_pos[k]`` takes
    that set's ``q[k]``-th free way. Each touched set's free ways are
    ranked once."""
    free_order = np.argsort(cache.tags[sets] >= 0, axis=1, kind="stable")
    row = np.empty(cache.config.num_sets, dtype=np.int64)
    row[sets] = np.arange(sets.size)
    ways_pos = free_order[row[s_pos], q]
    cache.tags[s_pos, ways_pos] = tags
    cache.last_use[s_pos, ways_pos] = last_use
    cache.use_count[s_pos, ways_pos] = use_count
    cache.dirty[s_pos, ways_pos] = dirty


def _cold_access(cache, lines, idx, sets, counts, write, tick0):
    """Every access misses. Per set, evictions drain the LRU queue —
    residents oldest first, then batch installs FIFO — and only the last
    ``ways - kept residents`` installs survive. ``idx`` is None for a
    contiguous batch. Returns (evictions, polluted evictions)."""
    n = lines.size
    num_sets, ways = cache.config.num_sets, cache.config.ways
    r0 = np.count_nonzero(cache.tags[sets] >= 0, axis=1)
    excess = np.maximum(r0 + counts - ways, 0)
    k0 = np.minimum(r0, excess)  # residents evicted per set
    polluted = int((excess - k0).sum())  # batch installs evicted unhit
    polluted += _evict_oldest(cache, sets, r0, k0)
    surv = np.zeros(num_sets, dtype=np.int64)  # installs that stay, per set
    surv[sets] = np.minimum(ways - (r0 - k0), counts)
    # `later`: accesses after each candidate position in the same set.
    if idx is None:
        # A set's accesses recur every num_sets positions, so only the
        # last ways * num_sets accesses can survive.
        pos = np.arange(max(0, n - num_sets * ways), n, dtype=np.int64)
        later = (n - 1 - pos) // num_sets
        s_pos = lines[pos] & cache._set_mask
    else:
        pos = _radix_argsort(idx, num_sets - 1)
        s_pos = idx[pos]
        ends = np.r_[np.flatnonzero(s_pos[1:] != s_pos[:-1]), n - 1]
        later = np.repeat(ends, np.diff(np.r_[-1, ends])) - np.arange(n)
    keep = later < surv[s_pos]
    pos, s_pos = pos[keep], s_pos[keep]
    q = surv[s_pos] - 1 - later[keep]  # survivor's rank within its set
    _fill_free_ways(
        cache, sets, s_pos, q, lines[pos] >> cache._tag_shift, tick0 + 1 + pos, 0, write
    )
    return int(excess.sum()), polluted


def _sweep_access(cache, lines, write, tick0):
    """A contiguous cold batch of at least ``ways * num_sets`` lines: every
    set takes ``ways`` or more installs, so every resident is evicted, the
    batch's last ``ways * num_sets`` lines stay (``ways`` per set) and
    every earlier line is evicted unhit. Returns (evictions, polluted
    evictions)."""
    n = lines.size
    num_sets, ways = cache.config.num_sets, cache.config.ways
    cap = num_sets * ways
    T, LU = cache.tags, cache.last_use
    resident = T >= 0
    evictions = int(np.count_nonzero(resident)) + n - cap
    polluted = int(np.count_nonzero(resident & (cache.use_count == 0))) + n - cap
    # Row w of the block holds installs w * num_sets ... of the survivors:
    # one line per set, every row starting at the same set.
    block = lines[n - cap :].reshape(ways, num_sets)
    s = block[0] & cache._set_mask
    T[s] = (block >> cache._tag_shift).T
    LU[s] = (tick0 + 1 + n - cap + np.arange(cap, dtype=np.int64)).reshape(ways, num_sets).T
    cache.use_count.fill(0)
    cache.dirty.fill(write)
    return evictions, polluted


def _fit_access(cache, lines, write, tick0):
    """Exact LRU for a cold walk whose distinct lines fit their sets, or
    None when the walk is not one.

    When no set holds more than ``ways`` of the walk's distinct lines and
    no resident lies in the walk's range, no line of the walk is ever
    evicted: a set's victims are its empty ways, then its residents in
    LRU order, exactly as on the cold route. So each distinct line misses
    once, at its first reference, and hits on every later one. Returns
    (hit mask, misses, evictions, polluted evictions)."""
    n = lines.size
    num_sets, ways = cache.config.num_sets, cache.config.ways
    lo, hi = int(lines.min()), int(lines.max())
    span = hi - lo + 1
    key = lines - lo
    cap = num_sets * ways
    dense = span <= 4 * n
    if dense:  # presence counts over the range
        if n > 2 * cap and np.count_nonzero(np.bincount(key[: 2 * cap])) > cap:
            return None  # its head alone has more distinct lines than fit
        refs = np.bincount(key, minlength=span)
        present = np.flatnonzero(refs)
    else:  # a sort groups each line's references in batch order
        order = _radix_argsort(key, span - 1)
        skey = key[order]
        starts = np.flatnonzero(np.r_[True, skey[1:] != skey[:-1]])
        present = skey[starts]
    if present.size > cap:
        return None
    u = present + lo  # distinct lines, ascending
    u_set = u & cache._set_mask
    per_set = np.bincount(u_set, minlength=num_sets)
    if int(per_set.max()) > ways:
        return None
    sets = np.flatnonzero(per_set)
    counts = per_set[sets]
    if not _is_cold(cache, lo, hi, sets):
        return None

    if dense:
        at = np.arange(n, dtype=np.int64)
        first = np.full(span, n, dtype=np.int64)
        np.minimum.at(first, key, at)
        last = np.full(span, -1, dtype=np.int64)
        np.maximum.at(last, key, at)
        first, last, refs = first[present], last[present], refs[present]
    else:
        ends = np.r_[starts[1:], n] - 1
        first, last, refs = order[starts], order[ends], ends - starts + 1

    r0 = np.count_nonzero(cache.tags[sets] >= 0, axis=1)
    k0 = np.maximum(r0 + counts - ways, 0)  # at most r0: the lines fit
    polluted = _evict_oldest(cache, sets, r0, k0)
    # Rank each distinct line within its set, then fill the free ways.
    by_set = _radix_argsort(u_set, num_sets - 1)
    s_pos = u_set[by_set]
    q = np.arange(u.size) - np.repeat(np.cumsum(counts) - counts, counts)
    _fill_free_ways(
        cache,
        sets,
        s_pos,
        q,
        u[by_set] >> cache._tag_shift,
        tick0 + 1 + last[by_set],
        refs[by_set] - 1,
        write,
    )
    hits = np.ones(n, dtype=bool)
    hits[first] = False
    return hits, u.size, int(k0.sum()), polluted


def _walk_hits(nxt: np.ndarray, qi: np.ndarray, qp: np.ndarray, ways: int):
    """Decide LRU hits by stack distance.

    Query ``k`` re-references at position ``qi[k]`` the line last referenced
    at ``qp[k]``, within one set's reference sequence. It hits iff fewer
    than ``ways`` distinct lines appear strictly between, i.e. fewer than
    ``ways`` positions ``j`` in ``(qp, qi)`` whose next reference ``nxt[j]``
    lies beyond ``qi`` (``j``'s line is still live at ``qi``).

    The walk steps back from every query at once, ``_WALK_STEPS * ways``
    steps in all, then finishes the queries still open with an exact count
    over the rest of their window. When queries are dense, the first
    ``2 * ways`` steps run over whole shifted arrays: position ``j`` is
    live at ``i`` iff its reuse distance ``nxt[j] - j`` exceeds ``i - j``,
    which does not depend on the query. The other steps gather each open
    query's window, ``ways`` positions per block.
    """
    m = nxt.size
    hit = np.zeros(qi.size, dtype=bool)
    open_ = np.arange(qi.size, dtype=np.int64)
    count = np.zeros(qi.size, dtype=np.int64)
    done = 0
    if 4 * qi.size >= m:  # dense: shifted whole arrays beat gathers
        done = 2 * ways
        span = qi - qp - 1  # window length
        # Reuse distance, clipped to what the whole-array steps compare.
        reuse = nxt - np.arange(m)
        np.minimum(reuse, done + 1, out=reuse)
        reuse = reuse.astype(np.uint16)
        live = np.zeros(m, dtype=np.uint16)  # live positions among the last s
        step_live = np.empty(m, dtype=bool)
        by_span = np.argsort(np.minimum(span, done + 1).astype(np.uint16), kind="stable")
        cuts = np.searchsorted(span[by_span], np.arange(done + 2), side="left")
        hit[by_span[: cuts[1]]] = True  # empty window
        for s in range(min(done, m - 1)):  # a window never exceeds m - 2
            now = step_live[: m - s - 1]
            np.greater(reuse[: m - s - 1], s + 1, out=now)
            np.add(live[s + 1 :], now, out=live[s + 1 :])
            ends_now = by_span[cuts[s + 1] : cuts[s + 2]]  # span == s + 1
            hit[ends_now] = live[qi[ends_now]] < ways
        rest = by_span[cuts[done + 1] :]
        count = live[qi[rest]].astype(np.int64)
        keep = count < ways
        open_, count = rest[keep], count[keep]
    steps = np.arange(ways, dtype=np.int64)[None, :]
    while open_.size and done < _WALK_STEPS * ways:
        i = qi[open_][:, None]
        j = i - 1 - done - steps
        inside = j > qp[open_][:, None]
        total = count + np.count_nonzero(
            inside & (nxt[np.where(inside, j, 0)] > i), axis=1
        )
        more = inside[:, -1] & (total < ways)
        hit[open_[~more & (total < ways)]] = True
        open_, count = open_[more], total[more]
        done += ways
    for k, i, p, c in zip(
        open_.tolist(), qi[open_].tolist(), qp[open_].tolist(), count.tolist()
    ):
        hit[k] = c + np.count_nonzero(nxt[p + 1 : i - done] > i) < ways
    return hit


def _stack_access(cache, lines, idx, tags, sets, counts, write, tick0):
    """Exact LRU over re-referencing or warm batches by stack distance.

    Each touched set's residents are prepended to its accesses as
    pseudo-references in LRU order, which rebuilds the set's LRU stack.
    One stable sort by line chains the references to each line; every
    hit, eviction and the end state follow from those chains. Returns
    (hit mask, misses, evictions, polluted evictions)."""
    n = idx.size
    ways = cache.config.ways
    shift = cache._tag_shift
    T, LU, UC, DT = cache.tags, cache.last_use, cache.use_count, cache.dirty

    # Pseudo-references: residents of touched sets, by set then LRU order.
    order = np.argsort(LU[sets], axis=1)
    p_tag, p_last, p_uses, p_dirty = (
        np.take_along_axis(a[sets], order, axis=1) for a in (T, LU, UC, DT)
    )
    valid = p_tag >= 0
    p_set = sets[np.nonzero(valid)[0]]
    p_tag, p_last, p_uses, p_dirty = (
        a[valid] for a in (p_tag, p_last, p_uses, p_dirty)
    )
    r = p_set.size

    # The set-grouped reference sequence: stable by set keeps each set's
    # pseudo-references first, then its accesses in batch order. Sequence
    # position k holds merged reference g[k]: a resident when below r,
    # else batch access g[k] - r.
    g = _radix_argsort(np.concatenate([p_set, idx]), cache.config.num_sets - 1)
    m = g.size
    r_per_set = np.count_nonzero(valid, axis=1)
    g_set = np.repeat(sets, r_per_set + counts)
    # Residents keep their order in the sequence, at the head of each set.
    resident = np.repeat(
        np.tile([True, False], sets.size), np.stack([r_per_set, counts], 1).ravel()
    )

    # Reference chains: one stable sort by line keeps each line's
    # references in sequence order. The key is a line's offset in the
    # batch's range [lo, hi]. Residents outside the range are never
    # referenced again, so they share one sentinel key past it and sort
    # last; a batch spanning fewer than 2**16 lines sorts in one radix
    # pass.
    lo = int(lines.min())
    sentinel = int(lines.max()) - lo + 1
    p_key = ((p_tag << shift) | p_set) - lo
    p_key[(p_key < 0) | (p_key >= sentinel)] = sentinel
    key = np.concatenate([p_key, lines - lo])[g]
    inner = m - int(np.count_nonzero(p_key == sentinel))  # in-range references
    chain = _radix_argsort(key, sentinel)[:inner]
    chain_key = key[chain]  # ascending
    # (a, b) are consecutive references to one line, at chain positions
    # (sel, sel + 1); b is always a batch access (residents come first).
    sel = np.flatnonzero(chain_key[1:] == chain_key[:-1])
    a, b = chain[sel], chain[sel + 1]
    nxt = np.full(m, m, dtype=np.int64)
    nxt[a] = b

    hit_b = _walk_hits(nxt, b, a, ways)
    hit_seq = b[hit_b]  # sequence positions of the hits
    is_hit = np.zeros(m, dtype=bool)
    is_hit[hit_seq] = True
    chain_hit = np.zeros(inner, dtype=bool)
    chain_hit[sel[hit_b] + 1] = True

    # Lifetimes start at pseudo-references and misses; the references
    # after a start in its chain, up to the next start, hit on it.
    life = np.arange(inner)
    life *= ~chain_hit
    np.maximum.accumulate(life, out=life)
    # Whether a lifetime starting at each position begins unused.
    unused = np.ones(m, dtype=bool)
    unused[resident] = p_uses == 0

    # End state: per set, the `ways` most recent last references, most
    # recent first.
    last = np.flatnonzero(nxt == m)  # in sequence order
    lset = g_set[last]
    tail = np.r_[np.flatnonzero(lset[1:] != lset[:-1]), last.size - 1]
    keep = np.minimum(np.diff(np.r_[-1, tail]), ways)
    depth = np.arange(keep.sum()) - np.repeat(np.cumsum(keep) - keep, keep)
    k = last[np.repeat(tail, keep) - depth]

    # Polluted evictions: lifetimes that begin unused and end in an
    # eviction — their line's next reference misses, or there is none
    # and the line does not stay resident.
    polluted = int(np.count_nonzero(unused[a] & ~chain_hit[sel] & ~hit_b))
    polluted += int(np.count_nonzero(unused[last] & ~is_hit[last]))
    polluted -= int(np.count_nonzero(unused[k] & ~is_hit[k]))

    # A survivor is its line's last reference; an in-range one reads its
    # chain position from the inverse permutation of the chain. One
    # outside the range is a resident the batch never touched, a lifetime
    # of its own.
    k_in = key[k] < sentinel
    inv = np.empty(m, dtype=np.int64)
    inv[chain] = np.arange(inner)
    t = inv[k[k_in]]
    start = k.copy()
    start[k_in] = chain[life[t]]
    uses = np.zeros(k.size, dtype=np.int64)
    uses[k_in] = t - life[t]
    src, start_src = g[k], g[start]
    kreal = src >= r
    kres = src[~kreal]
    k_tag = tags[np.maximum(src - r, 0)]
    k_tag[~kreal] = p_tag[kres]
    last_use = tick0 + 1 + src - r
    last_use[~kreal] = p_last[kres]
    dirty = kreal & write
    carried = start_src < r  # the lifetime began as a resident
    uses[carried] += p_uses[start_src[carried]]
    dirty[carried] |= p_dirty[start_src[carried]]

    ks = g_set[k]
    T[sets] = -1
    LU[sets] = 0
    UC[sets] = 0
    DT[sets] = False
    T[ks, depth] = k_tag
    LU[ks, depth] = last_use
    UC[ks, depth] = uses
    DT[ks, depth] = dirty

    hits = np.zeros(n, dtype=bool)
    hits[g[hit_seq] - r] = True
    n_miss = n - hit_seq.size
    evictions = r + n_miss - k.size
    return hits, n_miss, evictions, polluted


def batch_cache_access(
    cache: Cache,
    lines: np.ndarray,
    write: bool,
    contiguous: bool,
    batch_distinct: bool,
) -> np.ndarray:
    """Access ``lines`` (in order) against one cache level; returns the
    per-access hit mask. State, stats and LRU ticks end bit-identical to
    per-access :meth:`~repro.hw.cache.Cache.access_line` calls.

    Four routes, each exact where it is taken:

    * a *sweep* — a contiguous batch of at least ``ways * num_sets``
      lines with no resident in its range — writes the end state from its
      last ``ways * num_sets`` lines;
    * any other distinct batch with no resident in its range takes the
      *cold* closed form: every access misses, and each set keeps its last
      installs;
    * a re-referencing batch with no resident in its range and at most
      ``ways`` distinct lines in any set takes the *fit* route: no line of
      it is evicted, so each line misses once and then hits;
    * every other batch is decided by LRU stack distance.
    """
    n = lines.size
    if n == 0:
        return np.zeros(0, dtype=bool)
    num_sets, ways = cache.config.num_sets, cache.config.ways
    tick0 = cache._tick
    idx = sets = None
    result = None
    if contiguous or batch_distinct:
        if contiguous:
            lo, hi = int(lines[0]), int(lines[-1])
        else:
            idx = lines & cache._set_mask
            lo, hi = int(lines.min()), int(lines.max())
        sets, counts = _touched_sets(lines, idx, num_sets)
        if _is_cold(cache, lo, hi, sets):
            if contiguous and n >= num_sets * ways:
                evictions, polluted = _sweep_access(cache, lines, write, tick0)
            else:
                evictions, polluted = _cold_access(
                    cache, lines, idx, sets, counts, write, tick0
                )
            result = np.zeros(n, dtype=bool), n, evictions, polluted
    else:
        result = _fit_access(cache, lines, write, tick0)
    if result is None:
        if idx is None:
            idx = lines & cache._set_mask
        if sets is None:
            sets, counts = _touched_sets(lines, idx, num_sets)
        result = _stack_access(
            cache, lines, idx, lines >> cache._tag_shift, sets, counts, write, tick0
        )
    hits, n_miss, evictions, polluted = result
    cache._tick = tick0 + n
    stats = cache.stats
    stats.hits += n - n_miss
    stats.misses += n_miss
    stats.evictions += evictions
    stats.polluted_evictions += polluted
    return hits


# ----------------------------------------------------------------------
# Prefetcher: stride-run segmentation.
# ----------------------------------------------------------------------
def batch_prefetch(
    pf: StreamPrefetcher, miss_lines: np.ndarray, stride_bytes: int
) -> np.ndarray:
    """Feed the L2-miss subsequence through the stream prefetcher; returns
    the per-miss coverage mask, bit-identical to per-access
    :meth:`~repro.hw.prefetcher.StreamPrefetcher.observe_miss` calls."""
    n = miss_lines.size
    covered = np.zeros(n, dtype=bool)
    if n == 0:
        return covered
    if stride_bytes > pf.config.max_stride_bytes:
        # Unprefetchable stride: no stream-table interaction at all.
        pf._tick += n
        pf.uncovered += n
        return covered
    stride = _stride_lines(pf, stride_bytes)
    starts = np.flatnonzero(
        np.r_[True, miss_lines[1:] != miss_lines[:-1] + stride]
    ).tolist()
    ends = starts[1:] + [n]
    line_list: Optional[List[int]] = None

    for s, e in zip(starts, ends):
        n_cov = _run_coverage(pf, int(miss_lines[s]), e - s, stride)
        if n_cov is None:
            if line_list is None:
                line_list = miss_lines.tolist()
            for i in range(s, e):
                covered[i] = pf.observe_miss(line_list[i], stride_bytes=stride_bytes)
        elif n_cov:
            covered[e - n_cov : e] = True
    return covered


def batch_prefetch_run(
    pf: StreamPrefetcher, start_line: int, length: int, stride_bytes: int
) -> Optional[int]:
    """:func:`batch_prefetch` of a miss subsequence known to be the one
    unit-stride run of ``length`` lines from ``start_line``.

    Its covered misses are then the run's last ones, so the count is the
    whole answer: the caller splits demand prefix from covered suffix
    with no mask. Returns None, with the prefetcher untouched, when the
    stride hint does not train unit-stride streams or another stream
    could hijack the run; :func:`batch_prefetch` then decides.
    """
    if stride_bytes > pf.config.max_stride_bytes or _stride_lines(pf, stride_bytes) != 1:
        return None
    return _run_coverage(pf, start_line, length, 1)


def _stride_lines(pf: StreamPrefetcher, stride_bytes: int) -> int:
    """The stream stride, in lines, that a stride hint trains."""
    return max(1, stride_bytes // pf.line_bytes) if stride_bytes else 1


def _run_coverage(
    pf: StreamPrefetcher, start_line: int, length: int, stride: int
) -> Optional[int]:
    """Feed one stride run of misses through the stream table; returns
    how many of them (all at the run's end) were covered. Returns None,
    touching nothing, when another same-stride stream sits on a mid-run
    line: that run must replay through the scalar path."""
    streams = pf._streams
    matched_sid = None
    for sid, st in streams.items():
        if st.stride_lines != stride:
            continue
        if matched_sid is None and st.next_line == start_line:
            matched_sid = sid
            continue
        delta = st.next_line - start_line
        if stride <= delta <= (length - 1) * stride and delta % stride == 0:
            return None  # another stream sits on a mid-run line
    # Coverage closed form. Access k (0-based) of the run is covered
    # iff the stream was trained *before* it; training completes on
    # the match that brings hits to `train` (that access is itself a
    # demand miss), and an allocation never sets trained even when
    # train == 1 — so the first covered access is k = max(1, train -
    # h0) for a matched stream, k = max(2, train) for an allocation.
    train = pf.config.train_lines
    if matched_sid is None:
        if len(streams) >= pf.config.max_streams:
            victim = min(streams, key=lambda k: streams[k].last_use)
            del streams[victim]
        sid = pf._next_id
        pf._next_id += 1
        st = _Stream(
            next_line=0, stride_lines=stride, trained=False, hits=0, last_use=0
        )
        streams[sid] = st
        n_cov = max(0, length - max(2, train))
        st.trained = length >= 2 and length >= train
        st.hits = length
    else:
        st = streams[matched_sid]
        h0, trained0 = st.hits, st.trained
        n_cov = length if trained0 else max(0, length - max(1, train - h0))
        st.trained = trained0 or (h0 + length >= train)
        st.hits = h0 + length
    pf._tick += length
    pf.covered += n_cov
    pf.uncovered += length - n_cov
    st.next_line = start_line + length * stride
    st.last_use = pf._tick
    return n_cov


# ----------------------------------------------------------------------
# DRAM: per-bank grouping.
# ----------------------------------------------------------------------
def batch_dram_demand(dram: Dram, demand_lines: np.ndarray) -> int:
    """Cost of the demand (uncovered) line accesses, honouring open rows
    per bank; bit-identical to per-access
    :meth:`~repro.hw.dram.Dram.access_line` calls."""
    n = demand_lines.size
    if n == 0:
        return 0
    rows = demand_lines // dram._lines_per_row
    banks = rows % dram.config.banks
    order = _radix_argsort(banks, dram.config.banks - 1)
    srows = rows[order]
    sbanks = banks[order]
    open0 = np.array(
        [-1 if r is None else r for r in dram._open_rows], dtype=np.int64
    )
    hit = np.empty(n, dtype=bool)
    if n > 1:
        hit[1:] = (srows[1:] == srows[:-1]) & (sbanks[1:] == sbanks[:-1])
    group_starts = np.flatnonzero(np.r_[True, sbanks[1:] != sbanks[:-1]])
    hit[group_starts] = srows[group_starts] == open0[sbanks[group_starts]]
    group_ends = np.r_[group_starts[1:], n] - 1
    for g_end in group_ends.tolist():
        dram._open_rows[int(sbanks[g_end])] = int(srows[g_end])
    row_hits = int(np.count_nonzero(hit))
    row_misses = n - row_hits
    dram.stats.row_hits += row_hits
    dram.stats.row_misses += row_misses
    dram.stats.lines_transferred += n
    # Per-bank counters, identical to what the scalar access_line loop
    # would have accumulated (read by repro.obs.collectors).
    nbanks = dram.config.banks
    per_bank_lines = np.bincount(sbanks, minlength=nbanks)
    per_bank_hits = np.bincount(sbanks[hit], minlength=nbanks)
    for b in range(nbanks):
        lines_b = int(per_bank_lines[b])
        if not lines_b:
            continue
        hits_b = int(per_bank_hits[b])
        dram.bank_lines[b] += lines_b
        dram.bank_row_hits[b] += hits_b
        dram.bank_row_misses[b] += lines_b - hits_b
    return row_hits * dram.config.row_hit_cycles + row_misses * dram.config.row_miss_cycles


# ----------------------------------------------------------------------
# The full hierarchy kernel.
# ----------------------------------------------------------------------
def hierarchy_access_lines_batch(
    hierarchy, lines, write: bool = False, stride_hint: int = 0
) -> int:
    """Batched equivalent of :meth:`MemoryHierarchy.access_lines`.

    Filters the batch through L1 then L2 (order-preserving), runs the L2
    misses through the prefetcher and prices covered lines at streaming
    cost and the rest at demand DRAM timing. Every counter — CacheStats
    per level, prefetcher coverage, DRAM stats, AccessStats — and the
    cycle total match the scalar loop exactly.
    """
    arr = np.ascontiguousarray(np.asarray(lines, dtype=np.int64))
    n = arr.size
    if n == 0:
        return 0
    platform = hierarchy.platform
    if n == 1:
        contiguous, distinct = False, True
    else:
        diffs = np.diff(arr)
        ascending = bool(np.all(diffs > 0))
        # Ascending with a span of n - 1 lines leaves only unit steps.
        contiguous = ascending and int(arr[-1]) - int(arr[0]) == n - 1
        distinct = ascending or bool(np.all(diffs < 0))
        if not distinct:
            lo = int(arr.min())
            if int(arr.max()) - lo < 4 * n:  # dense: a presence count
                distinct = int(np.bincount(arr - lo).max()) == 1
            else:
                distinct = np.unique(arr).size == n

    # A level with no hits passes the whole batch on, uncopied.
    l1_hits = batch_cache_access(hierarchy.l1, arr, write, contiguous, distinct)
    n_l1_hits = int(np.count_nonzero(l1_hits))
    miss1 = arr[~l1_hits] if n_l1_hits else arr
    miss1_contig = contiguous and n_l1_hits == 0
    l2_hits = batch_cache_access(hierarchy.l2, miss1, write, miss1_contig, distinct)
    n_l2_hits = int(np.count_nonzero(l2_hits))
    miss2 = miss1[~l2_hits] if n_l2_hits else miss1

    hierarchy.stats.dram_lines += miss2.size
    n_cov = None
    if miss1_contig and n_l2_hits == 0:
        # miss2 is the batch itself, one unit-stride run: its covered
        # misses are a suffix, its demand misses the prefix before it.
        n_cov = batch_prefetch_run(
            hierarchy.prefetcher, int(miss2[0]), miss2.size, stride_hint
        )
    if n_cov is not None:
        demand = miss2[: miss2.size - n_cov]
    else:
        covered = batch_prefetch(hierarchy.prefetcher, miss2, stride_hint)
        n_cov = int(np.count_nonzero(covered))
        demand = miss2[~covered] if n_cov else miss2

    total = n_l1_hits * platform.l1.hit_cycles
    total += n_l2_hits * platform.l2.hit_cycles
    if n_cov:
        total += hierarchy.dram.stream_cost(n_cov)
    total += demand.size * platform.l2.hit_cycles
    total += batch_dram_demand(hierarchy.dram, demand)

    hierarchy.stats.cycles += total
    hierarchy.stats.accesses += n
    return int(total)
