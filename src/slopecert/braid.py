"""Braid words, closures, torus braids, and the positive cable construction.

A braid on n strands is a word in the Artin generators, stored as a
sequence of nonzero integers: letter i means the generator that crosses
strand position |i| over position |i|+1, with the sign giving the crossing
sign. Everything here is combinatorial bookkeeping on those words.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from itertools import chain
from typing import Optional, TYPE_CHECKING

if TYPE_CHECKING:
    from .surgery import SlopeParams


@dataclass(frozen=True)
class BraidWord:
    strands: int
    letters: tuple

    def __post_init__(self):
        if self.strands < 1:
            raise ValueError("need at least one strand")
        letters = tuple(self.letters)
        object.__setattr__(self, "letters", letters)
        n = self.strands
        if letters and (0 in letters or max(letters) >= n or min(letters) <= -n):
            # name the first bad letter
            for x in letters:
                if x == 0 or abs(x) >= n:
                    raise ValueError(f"letter {x} is not a generator on {n} strands")

    @property
    def exponent_sum(self) -> int:
        return sum(1 if x > 0 else -1 for x in self.letters)

    @property
    def is_positive(self) -> bool:
        return not self.letters or min(self.letters) > 0

    def reversed(self) -> "BraidWord":
        return BraidWord(self.strands, tuple(reversed(self.letters)))

    def __str__(self) -> str:
        if not self.letters:
            return f"{self.strands}:"
        return f"{self.strands}: " + " ".join(map(str, self.letters))

    @classmethod
    def parse(cls, text: str) -> "BraidWord":
        """Parse the 'n: i1 i2 ...' text form (empty word: 'n:')."""
        head, sep, tail = text.partition(":")
        if not sep:
            raise ValueError(f"missing ':' in braid word {text!r}")
        n = int(head.strip())
        letters = tuple(int(tok) for tok in tail.split())
        return cls(n, letters)


@dataclass(frozen=True)
class ClosureInfo:
    components: int
    euler_char: int
    genus: Optional[int]  # only defined for knot closures


def closure_labels(n: int, letters) -> list:
    """labels[i] = closure component of the strand entering at top position
    i, numbered from 0 in order of each component's lowest position.

    One walk of cur[position] = strand gives the inverse of the closure
    permutation, whose cycles are the same sets of positions."""
    cur = list(range(n))
    for x in letters:
        i = abs(x) - 1
        cur[i], cur[i + 1] = cur[i + 1], cur[i]
    labels = [-1] * n
    count = 0
    for i in range(n):
        if labels[i] < 0:
            j = i
            while labels[j] < 0:
                labels[j] = count
                j = cur[j]
            count += 1
    return labels


def closure_components(w: BraidWord) -> int:
    """Number of components of the braid closure."""
    return max(closure_labels(w.strands, w.letters)) + 1


def total_linking(w: BraidWord) -> int:
    """Total linking number of the closure: half the signed count of
    crossings between distinct components."""
    comp = closure_labels(w.strands, w.letters)
    cur = list(range(w.strands))  # cur[pos] = strand currently at pos
    acc = 0
    for x in w.letters:
        i = abs(x) - 1
        if comp[cur[i]] != comp[cur[i + 1]]:
            acc += 1 if x > 0 else -1
        cur[i], cur[i + 1] = cur[i + 1], cur[i]
    if acc % 2:
        raise ValueError("inter-component crossing count is odd; bad word")
    return acc // 2


def torus_braid(r: int, s: int) -> BraidWord:
    """The standard positive braid on s strands closing to the (r, s) torus
    link: (sigma_1 ... sigma_{s-1}) repeated r times."""
    _check_torus(r, s)
    return BraidWord(s, tuple(range(1, s)) * r)


def _check_torus(r: int, s: int) -> None:
    if r < 0 or s < 1:
        raise ValueError("need r >= 0 and s >= 1")


def _bundle_swap(base_index: int, q: int) -> tuple:
    """Positive crossings exchanging adjacent bundles of q strands.

    The bundles sit at positions (base_index-1)*q+1 .. base_index*q and the
    next q positions. Each of the q right-bundle strands walks left across
    the whole left bundle, giving q*q positive crossings in a fixed
    row-major order.
    """
    a = (base_index - 1) * q
    out = []
    for i in range(q):
        for k in range(a + q + i, a + i, -1):
            out.append(k)
    return tuple(out)


def cable_word(q: int, r: int, s: int, twists: int) -> BraidWord:
    """Blackboard q-cabling of the (r, s) torus braid plus ``twists`` copies
    of the q-strand root-twist block (sigma_1 ... sigma_{q-1}).

    The torus braid is its period (sigma_1 ... sigma_{s-1}) repeated r
    times, so its cabling is the cabled period, one bundle swap per
    generator, repeated r times.

    The closure is the (q*r*(s-1) + twists, q)-cable of the (r, s) torus
    knot: the cabling inherits the diagram framing r*(s-1), and each extra
    block adds one right-handed 1/q twist.
    """
    if q < 1:
        raise ValueError("cable needs q >= 1")
    if twists < 0:
        raise ValueError("negative twist count would break positivity")
    _check_torus(r, s)
    length = q * q * (s - 1) * r + (q - 1) * twists
    if length > sys.maxsize:
        raise ValueError(f"cable word of {length} letters is too long to build")
    period = tuple(chain.from_iterable(_bundle_swap(g, q) for g in range(1, s)))
    return BraidWord(q * s, period * r + tuple(range(1, q)) * twists)


def cable_braid(params: "SlopeParams") -> BraidWord:
    """Positive braid whose closure is the companion cable knot of the
    parameter tuple: the (t, q)-cable of the (r, s) torus knot.

    Rejects parameter tuples whose net twist count (p-1)*s - 1 is negative,
    since those cannot be drawn with positive letters this way.
    """
    p, q, r, s, t = params.p, params.q, params.r, params.s, params.t
    net = (p - 1) * s - 1
    if net < 0:
        raise ValueError("net twist count is negative; need p >= 2")
    if t - q * r * (s - 1) != net:
        raise ValueError("inconsistent parameter tuple: twist identity fails")
    w = cable_word(q, r, s, net)
    if closure_components(w) != 1:
        raise ValueError("cable closure is not a knot; parameters invalid")
    return w


def bennequin_euler_char(w: BraidWord) -> int:
    """Euler characteristic of the fiber surface of a positive braid
    closure: strands minus exponent sum, which for a positive word is its
    length. Rejects non-positive words."""
    if not w.is_positive:
        raise ValueError("Euler characteristic formula needs a positive word")
    return w.strands - len(w.letters)


def closure_info(w: BraidWord) -> ClosureInfo:
    """Component count, Euler characteristic and (for knots) genus of the
    closure of a positive word."""
    comps = closure_components(w)
    chi = bennequin_euler_char(w)
    genus = None
    if comps == 1:
        if (1 - chi) % 2:
            raise ValueError("knot closure with even 1 - chi; bad bookkeeping")
        genus = (1 - chi) // 2
    return ClosureInfo(components=comps, euler_char=chi, genus=genus)
