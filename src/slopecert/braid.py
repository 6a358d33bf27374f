"""Braid words, closures, torus braids, and the positive cable construction.

A braid on n strands is a word in the Artin generators, stored as a
sequence of nonzero integers: letter i means the generator that crosses
strand position |i| over position |i|+1, with the sign giving the crossing
sign. Everything here is combinatorial bookkeeping on those words.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass, field
from itertools import chain
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .surgery import SlopeParams

# physical memory in bytes, against which cable_word sizes a word before building it
_MEMORY_BYTES = sys.maxsize
if hasattr(os, "sysconf"):
    _MEMORY_BYTES = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


@dataclass(frozen=True)
class BraidWord:
    """A braid word on ``strands`` strands, held as ``runs``: pairs
    (block, count), each a block of letters repeated count times, in order.

    ``letters`` is always built from ``runs``, so the two cannot disagree;
    ``BraidWord(n, letters)`` is the one run (letters, 1), and ``from_runs``
    takes the runs themselves. Validation, positivity and the text work
    per run; equality compares strands and letters only.
    """

    strands: int
    letters: tuple
    runs: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._set_runs(((self.letters, 1),))

    @classmethod
    def from_runs(cls, strands: int, runs) -> "BraidWord":
        w = cls.__new__(cls)
        object.__setattr__(w, "strands", strands)
        w._set_runs(runs)
        return w

    def _set_runs(self, runs) -> None:
        n = self.strands
        if n < 1:
            raise ValueError("need at least one strand")
        kept, letters = [], ()
        for block, count in runs:
            block = tuple(block)
            if count < 0:
                raise ValueError(f"run count {count} is negative")
            if not (block and count):
                continue  # a run of no letters is dropped
            if 0 in block or max(block) >= n or min(block) <= -n:
                # name the first bad letter
                x = next(x for x in block if x == 0 or abs(x) >= n)
                raise ValueError(f"letter {x} is not a generator on {n} strands")
            kept.append((block, count))
            letters += block * count
        object.__setattr__(self, "runs", tuple(kept))
        object.__setattr__(self, "letters", letters)

    @property
    def is_positive(self) -> bool:
        return all(min(block) > 0 for block, _ in self.runs)

    def __str__(self) -> str:
        # each block is formatted once and its text repeated
        parts = [f"{self.strands}:"]
        for block, count in self.runs:
            parts += [" ".join(map(str, block))] * count
        return " ".join(parts)

    @classmethod
    def parse(cls, text: str) -> "BraidWord":
        """Parse the 'n: i1 i2 ...' text form (empty word: 'n:'). Each
        number is ASCII digits with an optional leading '-'; an error names
        the first token that is not, and its place."""
        head, sep, tail = text.partition(":")
        if not sep:
            raise ValueError(f"missing ':' in braid word {text!r}")
        tokens = [head.strip()] + tail.split()
        for i, tok in enumerate(tokens):
            if not (tok.isascii() and tok.removeprefix("-").isdigit()):
                where = f"letter {tok!r} at place {i}" if i else f"strand count {tok!r}"
                raise ValueError(f"braid word {where} is not an integer")
        return cls(int(tokens[0]), tuple(map(int, tokens[1:])))


def _permutation(n: int, letters) -> list:
    """cur[position] = top position of the strand that ends there: the
    inverse of the closure permutation, whose cycles are the same sets."""
    cur = list(range(n))
    for g in map(abs, letters):
        cur[g - 1], cur[g] = cur[g], cur[g - 1]
    return cur


def _cycle_labels(perm: list) -> list:
    """labels[i] = index of the cycle of ``perm`` through i, numbered from
    0 in order of each cycle's lowest element."""
    labels = [-1] * len(perm)
    count = 0
    for i in range(len(perm)):
        if labels[i] < 0:
            j = i
            while labels[j] < 0:
                labels[j] = count
                j = perm[j]
            count += 1
    return labels


def closure_labels(n: int, letters) -> list:
    """labels[i] = closure component of the strand entering at top position
    i, numbered from 0 in order of each component's lowest position."""
    return _cycle_labels(_permutation(n, letters))


def closure_components(w: BraidWord) -> int:
    """Number of components of the braid closure: the cycles of the product
    over runs of each block's permutation raised to its count by square
    and multiply, so a run costs its block and log(count) products."""
    perm = list(range(w.strands))
    for block, count in w.runs:
        step = _permutation(w.strands, block)
        while count:
            if count & 1:
                perm = [perm[k] for k in step]
            step = [step[k] for k in step]
            count >>= 1
    return max(_cycle_labels(perm)) + 1


def component_words(n: int, letters) -> tuple:
    """Each closure component's braid word, by strand deletion, and the
    total linking number, from one walk: (words, linking), where words[k]
    = (strands, letters) for the component that ``closure_labels`` numbers k.

    Each strand carries its rank among its component's strands, counted
    from the left. A crossing within a component is kept as the generator
    at the left strand's rank and swaps the two ranks; one between
    components keeps them, and half their signed count is the linking
    number. A knot's one word is the word itself."""
    labels = closure_labels(n, letters)
    sizes = [0] * (max(labels) + 1)
    if len(sizes) == 1:
        return [(n, tuple(letters))], 0
    rank = []  # rank[strand], the strand named by its top position
    for label in labels:
        rank.append(sizes[label])
        sizes[label] += 1
    kept = [[] for _ in sizes]
    cur = list(range(n))  # cur[pos] = strand currently at pos
    acc = 0
    for x in letters:
        g = x if x > 0 else -x
        left, right = cur[g - 1], cur[g]
        label = labels[left]
        if label == labels[right]:
            r = rank[left]
            kept[label].append(r + 1 if x > 0 else -r - 1)
            rank[left], rank[right] = r + 1, r
        else:
            acc += 1 if x > 0 else -1
        cur[g - 1], cur[g] = right, left
    if acc % 2:
        raise ValueError("inter-component crossing count is odd; bad word")
    return list(zip(sizes, map(tuple, kept))), acc // 2


def total_linking(w: BraidWord) -> int:
    """Total linking number of the closure: half the signed count of
    crossings between distinct components."""
    return component_words(w.strands, w.letters)[1]


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


def _count_text(n: int) -> str:
    """``str(n)``, or a lower bound when n has more digits than int-to-text
    conversion allows (``sys.get_int_max_str_digits()``)."""
    try:
        return str(n)
    except ValueError:
        return f"at least 2**{n.bit_length() - 1}"


def cable_word(q: int, r: int, s: int, twists: int) -> BraidWord:
    """Blackboard q-cabling of the (r, s) torus braid plus ``twists`` copies
    of the q-strand root-twist block (sigma_1 ... sigma_{q-1}).

    The torus braid is its period (sigma_1 ... sigma_{s-1}) repeated r
    times, so its cabling is the cabled period, one bundle swap per
    generator, repeated r times. The word is built as those two runs,
    (period, r) and (twist block, twists), and its letters from them, so
    validation, text and closure cost one pass per period, not per letter.

    The closure is the (q*r*(s-1) + twists, q)-cable of the (r, s) torus
    knot: the cabling inherits the diagram framing r*(s-1), and each extra
    block adds one right-handed 1/q twist.
    """
    if q < 1:
        raise ValueError("cable needs q >= 1")
    if twists < 0:
        raise ValueError("negative twist count would break positivity")
    if r < 0 or s < 1:
        raise ValueError("need r >= 0 and s >= 1")
    length = q * q * (s - 1) * r + (q - 1) * twists
    # each letter is an 8-byte tuple slot; with twist letters, ``period * r``
    # and the joined word are alive together, so the build holds two slots
    slots = 2 if q > 1 and twists else 1
    if length * slots * 8 > _MEMORY_BYTES:
        raise ValueError(f"cable word of {_count_text(length)} letters is too long to build")
    try:
        period = tuple(chain.from_iterable(_bundle_swap(g, q) for g in range(1, s)))
        return BraidWord.from_runs(q * s, ((period, r), (tuple(range(1, q)), twists)))
    except MemoryError:
        raise ValueError(
            f"cable_braid: out of memory building a cable word of {length} letters"
        ) from None


def torus_braid(r: int, s: int) -> BraidWord:
    """The standard positive braid on s strands closing to the (r, s) torus
    link: (sigma_1 ... sigma_{s-1}) repeated r times, the untwisted 1-cable."""
    return cable_word(1, r, s, 0)


def cable_braid(params: "SlopeParams") -> BraidWord:
    """Positive braid whose closure is the companion cable knot of the
    parameter tuple: the (t, q)-cable of the (r, s) torus knot.

    ``SlopeParams`` guarantees what this needs: p > 1 and s >= 1 make the
    twist count (p-1)*s - 1 nonnegative, and ps - qr = 1 makes it equal to
    t - q*r*(s-1) and makes gcd(r, s) = gcd(t, q) = 1, so the closure is a
    knot (``certify_slope`` checks that on the cable it accepts).
    """
    return cable_word(params.q, params.r, params.s, (params.p - 1) * params.s - 1)


def bennequin_euler_char(w: BraidWord) -> int:
    """Euler characteristic of the fiber surface of a positive braid
    closure: strands minus exponent sum, which for a positive word is its
    length. Rejects non-positive words. Each letter is a transposition, so
    the length is strands - components mod 2: chi has the parity of the
    component count."""
    if not w.is_positive:
        raise ValueError("Euler characteristic formula needs a positive word")
    return w.strands - len(w.letters)
