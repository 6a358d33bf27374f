"""The machine's momentary speed, read from a fixed reference computation.

The processor this benchmark runs on is shared with other tenants of the
host. Its speed drifts by up to 1.7 times over seconds to minutes, and the
CPU time of a process drifts with it, so raw operation times change from one
run to the next by more than any change worth measuring. A pass therefore
times a fixed reference computation between its operations, and each
operation's time is divided by the speed the nearby probes read.

The reference is pure Python of the kind slopecert runs (sparse dict
polynomials with integer coefficients, tuple keys, function calls) and uses
nothing from slopecert, so a change to the program does not move it.
"""

from __future__ import annotations

import statistics
import time
from bisect import bisect_left
from typing import List, Sequence, Tuple

# Time of one reference probe at nominal speed, rounded from its median
# reading between operations on a quiet Intel Xeon host under CPython 3.11.
# Normalized times are in seconds at that speed.
NOMINAL_PROBE_S = 0.0008

# A probe is taken before an operation once this much time has gone by since
# the last one, and always at the start and end of a pass.
PROBE_EVERY_S = 0.02

# An operation's speed is the median of this many probes on each side of it.
PROBES_EACH_SIDE = 2


def _poly_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for (i, j), c in a.items():
        for (k, l), d in b.items():
            key = (i + k, j + l)
            s = out.get(key, 0) + c * d
            if s:
                out[key] = s
            elif key in out:
                del out[key]
    return out


_A = {(i % 7 - 3, i // 7 - 2): (i * 37) % 11 - 5 or 1 for i in range(24)}
_B = {(i % 5 - 2, i // 5 - 3): (i * 53) % 13 - 6 or 1 for i in range(24)}
_EXPECTED = sum(_poly_mul(_poly_mul(_A, _B), _B).values())


def probe() -> Tuple[float, float]:
    """Run the reference once; return (midpoint, duration) in perf_counter seconds."""
    start = time.perf_counter()
    value = sum(_poly_mul(_poly_mul(_A, _B), _B).values())
    end = time.perf_counter()
    if value != _EXPECTED:
        raise AssertionError("reference computation gave a different result")
    return (start + end) / 2, end - start


def slowdown(probes: Sequence[Tuple[float, float]], start: float, end: float) -> float:
    """How many times slower than nominal the machine ran over [start, end]:
    the median of the probes nearest before and after it, over nominal."""
    mids = [m for m, _ in probes]
    lo = bisect_left(mids, start)
    hi = bisect_left(mids, end)
    near = [d for _, d in probes[max(0, lo - PROBES_EACH_SIDE):lo]]
    near += [d for _, d in probes[hi:hi + PROBES_EACH_SIDE]]
    if not near:
        raise ValueError("no speed probe near the interval")
    return statistics.median(near) / NOMINAL_PROBE_S


def normalize(probes: List[Tuple[float, float]], start: float, end: float) -> float:
    """Seconds the interval [start, end] would have taken at nominal speed."""
    return (end - start) / slowdown(probes, start, end)
