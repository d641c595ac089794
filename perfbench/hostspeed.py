"""Scaling of in-process times to a nominal host speed.

The host's CPU speed swings by up to 1.7x within seconds. A fixed task
in the benchmark's own code is timed next to each measured operation, and
the operation's time is scaled by nominal over measured task time: the
result is the time the operation would take on a host where the task
takes CAL_NOMINAL_S. No change to orderdim can move the task, so program
changes show in full while the host's swings cancel.
"""

from __future__ import annotations

from time import perf_counter

import checks

CAL_ROWS = [
    (1 << i) | sum(1 << j for j in range(i + 1, 9) if (7 * i + 3 * j) % 5 < 2)
    for i in range(9)
]
CAL_NOMINAL_S = 0.003


def calibration_s() -> float:
    t = perf_counter()
    pairs, ap = checks.pair_digraph(len(CAL_ROWS), CAL_ROWS)
    checks.first_fit_cover(len(pairs), ap)
    return perf_counter() - t


def scaled(raw: list[float], before: float, after: float,
           nominal: float = CAL_NOMINAL_S) -> list[float]:
    factor = 2 * nominal / (before + after)
    return [t * factor for t in raw]
