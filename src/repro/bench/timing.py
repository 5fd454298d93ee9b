"""One timing discipline for every host-time ratio.

A ``*host_ratio*`` gate divides the host time of one side by that of
another measured in the same process, so runner speed cancels out. Every
such ratio is timed by :func:`paired_timing`:

* each side is a *factory*: called with the pair's index, it does its
  set-up untimed and returns a zero-argument thunk, and only the thunk's
  call is timed;
* the two sides run in ``pairs`` back-to-back pairs, the first side first
  in even pairs and second in odd ones, so drift in host speed or cache
  state during the run hits both alike;
* the garbage collector is off while the pairs run (as in ``timeit``), so
  a collection pass lands in neither side, and is restored afterwards;
* the clock is ``time.process_time``, the CPU time of this process, so
  time spent descheduled by neighbours on a shared runner is charged to
  neither side;
* the ratio is the median of the per-pair ratios, reported with their
  quartiles (first side over second).
"""

from __future__ import annotations

import gc
import statistics
import time
from dataclasses import dataclass
from typing import Callable, List, Tuple

__all__ = ["PAIRS", "PairedTiming", "paired_timing"]

#: Pairs per ratio, unless a site's wall time forces fewer.
PAIRS = 7

_clock = time.process_time

Factory = Callable[[int], Callable[[], object]]


@dataclass(frozen=True)
class PairedTiming:
    """The per-pair timings of two sides and what their thunks returned."""

    #: Median of the per-pair ratios, first side over second.
    ratio: float
    #: First and third quartile of the per-pair ratios.
    q1: float
    q3: float
    #: Seconds of each pair's thunk call, per side.
    seconds: Tuple[List[float], List[float]]
    #: Each pair's thunk result, per side.
    outputs: Tuple[List[object], List[object]]

    def __str__(self) -> str:
        return f"{self.ratio:.4g} [{self.q1:.4g}–{self.q3:.4g}]"


def paired_timing(first: Factory, second: Factory, pairs: int = PAIRS) -> PairedTiming:
    """Time ``first`` against ``second`` in ``pairs`` (at least 2)
    alternating pairs, under the discipline in the module docstring."""
    sides = (first, second)
    seconds: Tuple[List[float], List[float]] = ([], [])
    outputs: Tuple[List[object], List[object]] = ([], [])
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for i in range(pairs):
            for k in (0, 1) if i % 2 == 0 else (1, 0):
                thunk = sides[k](i)
                t0 = _clock()
                out = thunk()
                seconds[k].append(_clock() - t0)
                outputs[k].append(out)
                del thunk  # free what the set-up built, untimed
    finally:
        if was_enabled:
            gc.enable()
    ratios = [a / b for a, b in zip(*seconds)]
    q1, median, q3 = statistics.quantiles(ratios, n=4, method="inclusive")
    return PairedTiming(median, q1, q3, seconds, outputs)
