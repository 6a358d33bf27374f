"""Benchmark workloads: which slopes each one certifies, and at which budget.

Every workload is a list of coprime slopes p/q fed one at a time to
``certify_slope``. The workload seed only shuffles the order, which changes
how much of the fast engine's memo work carries from one slope to the next.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from math import gcd
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
DIGESTS_PATH = HERE / "digests.json"

Slope = Tuple[int, int]

# Each run certifies its slope list at least this many times, each pass in a
# fresh interpreter. Passes come in pairs (see pass_order), so it is even.
MIN_PASSES = 6

# The ROADMAP grid slopes whose cables make the direct route raise
# SquareSearchError at gamma budget 80 (the breadth-first square search runs
# out of nodes). ``direct-route`` leaves them out so that no timed operation
# fails; ``direct-grid`` keeps them and reports each failure by name.
SQUARE_SEARCH_FAILURES = frozenset({(2, 5), (3, 2), (3, 4), (3, 5)})


def _grid(p_range: range, q_range: range) -> List[Slope]:
    return [(p, q) for q in q_range for p in p_range if gcd(p, q) == 1]


def _roadmap_grid() -> List[Slope]:
    return _grid(range(2, 10), range(1, 6))


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    slopes: Tuple[Slope, ...]
    gamma_budget: int

    @property
    def tail_percentile(self) -> int:
        """Highest whole percentile with at least ten slopes beyond it."""
        return int(100 * (1 - 10 / len(self.slopes)))


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "small-slopes",
            "q <= 2, 2 <= p < 400: 2-strand cables, so skein_tree and SkeinElem arithmetic dominate",
            tuple(_grid(range(2, 400), range(1, 3))),
            16,
        ),
        Workload(
            "wide-slopes",
            "2 <= p <= 40, 1 <= q <= 12: cables of tens of thousands of letters, so braid and surgery dominate",
            tuple(_grid(range(2, 41), range(1, 13))),
            16,
        ),
        Workload(
            "direct-route",
            "ROADMAP grid at gamma budget 80 without its 4 SquareSearchError slopes: homfly and LaurentPoly dominate",
            tuple(s for s in _roadmap_grid() if s not in SQUARE_SEARCH_FAILURES),
            80,
        ),
        Workload(
            "direct-grid",
            "the whole ROADMAP grid at gamma budget 80, its SquareSearchError failures included",
            tuple(_roadmap_grid()),
            80,
        ),
    )
}


def pass_order(workload: Workload, seed: int, pass_index: int) -> List[Slope]:
    """The slope order of one pass: a shuffle fixed by the seed and pass.

    Pass 2j+1 runs pass 2j's order backwards, so over a pair of passes each
    slope comes before each other slope once. How much memo work one slope
    leaves for another then evens out over the pair instead of varying with
    the seed: at budget 80, 5/3 takes about 0.03 s or 0.3 s depending on
    what ran before it."""
    order = list(workload.slopes)
    random.Random(seed * 1_000_003 + pass_index // 2).shuffle(order)
    if pass_index % 2:
        order.reverse()
    return order


def digest_key(p: int, q: int) -> str:
    return f"{p}/{q}"


def certificate_digest(cert_json: str) -> str:
    return hashlib.sha256(cert_json.encode("utf-8")).hexdigest()


def load_digests(gamma_budget: int) -> Dict[str, str]:
    """Committed certificate digests for one gamma budget, keyed 'p/q'."""
    with DIGESTS_PATH.open(encoding="utf-8") as fh:
        table = json.load(fh)
    return table.get(str(gamma_budget), {})
