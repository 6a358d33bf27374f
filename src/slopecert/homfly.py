"""Two engines for HOMFLYPT-derived invariants of braid closures.

``homfly_oracle`` is the ground truth: an exact skein recursion on braid
words. It walks the closure from a fixed basepoint scheme, switches the
first crossing that is not descending, and smooths it, terminating because
(letter count, bad-crossing count) drops lexicographically at every step.
Descending diagrams are unlinks, whose polynomial is a power of
delta = (v^-1 - v)/z. The cost is exponential, so calls are budgeted.

``gamma_positive`` is the fast engine for positive braid words. It cuts
the closure into its components' words, by strand deletion
(``braid.component_words``), and joins their values by the
Lickorish-Millett formula (Topology 26, 1987; ``gamma_linking_formula``).
It holds each component's word as ``bytes``, one letter a byte, so a memo
key is (n, bytes) and rotations are compared by memcmp; a letter is at
most 255, so it takes words on at most 256 strands (``MAX_STRANDS``) and
raises ValueError naming that limit past it. Its memo holds knots only:
for a knot of e letters on n strands, the normalised polynomial
N = gamma / (-a)^h, where gamma is the zeroth coefficient polynomial and
h = (e - n + 1)/2 is the genus. N lies in Z[a] with nonnegative
coefficients (``gamma_positive``'s lemma), so the engine holds it as the
tuple of its coefficients from a^0 up, with no trailing zero: a product is
a short convolution (``_times``), (a+1) X is X plus X shifted by one
(``_plus``), and ``gamma_positive`` turns each component's N into a
``LaurentPoly`` once. Three rules give N, each by adding or multiplying:
1. a knot of n - 1 letters on n strands uses each generator once, so
   rule 2 cuts it into one-strand knots and it is the unknot: N = 1. It is
   answered where it is requested, by ``gamma_positive`` or by the rule
   that cut it off, so it starts no node and takes no memo entry;
2. a knot with a generator g used once is a connected sum: without that
   letter it closes to the split link of the two summands, whose words
   ``_split_link`` gives, and N is the product of the summands' N;
3. any other knot is conjugated to a word g g R, and
   N = N(R) + (a+1) N(K1) N(K2), where K1 and K2 are the two components of
   the link g R: the skein step, with the Lickorish-Millett formula for
   g R and its linking number absorbed into h.
Both cuts leave a two-component link of a positive word, and no rule reads
a linking number, so one positive walk, ``_split_link``, gives the two
words in place of the signed ``component_words``: the first component is
the cycle of the closure permutation through position 0, followed by one
walk of its own. So only knots are squared or stored. For rule 3, in a
rotation of the word, the prefix P before the first letter g whose two
strands have already crossed is a permutation braid with right descent g,
so P = Q g for a reduced word Q read off its permutation (Garside;
El-Rifai and Morton). The rotation taken is the first whose first
recrossing is at the least generator g; one window sliding over the
doubled word finds it, because a suffix of a permutation braid is one, so
the window's end only moves right. The window keeps the permutation of P
at the best rotation, so the square is written from it without walking P
again. That choice sets which sub-words a cold walk meets: 8/3's cable
reaches 107 rotation classes of knots (104 memo entries and the unknot on
1, 2 and 3 strands), against 232 when the first rotation with any
recrossing is taken. The window is the engine's only recrossing finder.
When every rotation is a permutation braid, a walk over descent
conjugates, read off each word's permutation in one pass, reaches a word
with a rotation that is not (Geck and Pfeiffer), so the square search
always ends and the engine never calls the oracle. The skein triple at
the square g g R is of positive braid words: R is a knot, g R a
two-component link, and both have fewer letters; so do K1 and K2, on fewer
strands. Each engine's rules are a generator, ``_oracle_node`` or
``_gamma_node``, that yields each sub-word it needs; one loop, ``_run``,
runs both engines from a list of suspended nodes and alone reads and
writes the memos, so Python's stack does not bound the depth.

The zeroth coefficient polynomial of a link L is the z-degree-0 layer of
(z/v)^{|L|-1} * P_L(v, z) with a = -v^2 substituted. For an n-component
unlink it is (-1)^{n-1} (1 + a^-1)^{n-1}, and it is multiplicative across
a connected sum.
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass
from operator import add
from typing import Optional

from .braid import BraidWord, _permutation, closure_components, closure_labels, component_words
from .poly import BiLaurent, LaurentPoly, ONE_PLUS_ALPHA, ONE_PLUS_INV_ALPHA, neg_alpha_pow
from .quote import quote

DEFAULT_ORACLE_BUDGET = 14
MAX_STRANDS = 256  # the fast engine holds a word as bytes, one letter in 1..255 a byte
_HEADROOM = 8 << 20  # bytes of address space ``_run`` keeps free

# delta = (v^-1 - v) / z, the unknot-disjoint-union multiplier
_DELTA = BiLaurent({(-1, -1): 1, (1, -1): -1})

_oracle_memo: dict = {}
_gamma_memo: dict = {}


class OracleBudgetError(Exception):
    """The skein oracle was asked for more crossings than its budget."""


def clear_caches() -> None:
    _oracle_memo.clear()
    _gamma_memo.clear()


@dataclass(frozen=True)
class HomflyResult:
    poly: BiLaurent
    components: int


@dataclass(frozen=True)
class GammaResult:
    gamma: LaurentPoly
    gamma_normalized: LaurentPoly


def _probe_headroom() -> None:
    """Raise MemoryError unless ``_HEADROOM`` more bytes can be mapped.

    When an allocation fails with no memory to spare, the allocations the
    interpreter makes to unwind can fail too, and the MemoryError is lost:
    no handler runs, and the caller gets SystemError. Failing here first
    leaves that much room. The mapping is never written, so it adds nothing
    to the resident size."""
    try:
        mmap.mmap(-1, _HEADROOM).close()
    except OSError:
        raise MemoryError(f"less than {_HEADROOM} bytes of address space left") from None


def _run(rules, memo: dict, n: int, letters):
    """Run the steps of the generator ``rules`` for the word (n, letters):
    only a memo miss starts a node, and a finished node's value is stored
    under the key (n, least rotation) and sent to its parent. The oracle's
    words are tuples of signed letters, the fast engine's ``bytes``.

    Every 256 entries it probes for headroom (``_probe_headroom``), so that
    running out of memory raises MemoryError here, where it is caught; it
    then empties ``memo``, the table that filled it, before the error
    leaves."""
    pending = []  # (suspended node, its memo key), innermost last
    request = (n, letters)
    try:
        while True:
            key = (request[0], _min_rotation(request[1]))
            value = memo.get(key)
            if value is None:
                pending.append((rules(*request), key))
            # None starts a node; run nodes until one asks for a sub-word
            while pending:
                node, key = pending[-1]
                try:
                    request = node.send(value)
                    break
                except StopIteration as done:
                    value = memo[key] = done.value
                    if not len(memo) & 255:
                        _probe_headroom()
                    pending.pop()
            else:  # the outermost request is answered
                return value
    except MemoryError:
        memo.clear()
        raise


# ---------------------------------------------------------------------------
# the exact oracle
# ---------------------------------------------------------------------------


def _free_cyclic_reduce(letters: tuple) -> tuple:
    """Cancel adjacent inverse pairs, including across the wrap-around."""
    word = []
    for x in letters:
        if word and word[-1] == -x:
            word.pop()
        else:
            word.append(x)
    # the freely reduced word cancels cyclically only between its two ends
    while len(word) >= 2 and word[0] == -word[-1]:
        word = word[1:-1]
    return tuple(word)


def _min_rotation(letters):
    """The least rotation of ``letters``, a tuple or ``bytes``: only a
    rotation that starts at a least letter can be it, so only those are
    compared, as slices of the doubled word (for ``bytes``, by memcmp)."""
    least = min(letters, default=None)
    if least is None or least == max(letters):
        return letters
    L = len(letters)
    doubled = letters + letters
    best, i = None, -1
    for _ in range(letters.count(least)):
        i = letters.index(least, i + 1)
        rotation = doubled[i : i + L]
        if best is None or rotation < best:
            best = rotation
    return best


def _first_bad_crossing(n: int, letters: tuple) -> Optional[int]:
    """Index of the first crossing whose first visit (walking the closure
    from canonical basepoints) is on the under-strand, or None if the
    diagram is descending.

    The walk starts at the top of the lowest unvisited strand position and
    follows the closure. For a positive letter the strand entering on the
    left is the over-strand.
    """
    visited = [False] * len(letters)
    started = set()
    for start in range(n):
        if start in started:
            continue
        pos = start
        while True:
            started.add(pos)
            for j, x in enumerate(letters):
                g = abs(x)
                if pos == g - 1:
                    under = x < 0
                    pos = g
                elif pos == g:
                    under = x > 0
                    pos = g - 1
                else:
                    continue
                if not visited[j]:
                    if under:
                        return j
                    visited[j] = True
            if pos == start:
                break
    return None


def _oracle_node(n: int, letters: tuple):
    """The skein rules for one freely reduced word, stepped as in ``_gamma_node``:
    switch and smooth its first bad crossing, yielding each sub-word reduced."""
    j = _first_bad_crossing(n, letters)
    if j is None:
        # the largest label is the component count less one
        return _DELTA ** max(closure_labels(n, letters))
    # Free reduction only shrinks the word, so it cannot upset the
    # termination measure. Rotation is used purely as a memo key: rotating
    # the word mid-recursion could raise the bad-crossing count and loop.
    x = letters[j]
    p_switch = yield n, _free_cyclic_reduce(letters[:j] + (-x,) + letters[j + 1 :])
    p_smooth = yield n, _free_cyclic_reduce(letters[:j] + letters[j + 1 :])
    if x > 0:
        # current word is the positive side: P+ = v^2 P- + v z P0
        return p_switch.times_monomial(2, 0) + p_smooth.times_monomial(1, 1)
    # current word is the negative side: P- = v^-2 P+ - v^-1 z P0
    return p_switch.times_monomial(-2, 0) - p_smooth.times_monomial(-1, 1)


def homfly_oracle(w: BraidWord, budget: int = DEFAULT_ORACLE_BUDGET) -> HomflyResult:
    """Exact HOMFLYPT polynomial of the closure of ``w``.

    Raises OracleBudgetError when the word is longer than ``budget``; the
    recursion is exponential and silent truncation is never acceptable.
    """
    if len(w.letters) > budget:
        raise OracleBudgetError(
            f"oracle budget exceeded: {len(w.letters)} crossings > budget {budget}"
        )
    poly = _run(_oracle_node, _oracle_memo, w.strands, _free_cyclic_reduce(w.letters))
    return HomflyResult(poly=poly, components=closure_components(w))


def zeroth_gamma(h: HomflyResult) -> LaurentPoly:
    """Extract the zeroth coefficient polynomial from an oracle result.

    Multiplies by (z/v)^{|L|-1}, takes the z^0 layer, and substitutes
    a = -v^2. Any odd v-power or odd/negative z-power at that point means
    an orientation or convention bug upstream, and is reported loudly.
    """
    k = h.components - 1
    shifted = h.poly.times_monomial(-k, k)
    terms = {}
    for (ve, ze), c in shifted.items():
        if ze < 0 or ze % 2:
            raise ValueError(f"z-exponent {ze} after normalization; convention bug")
        if ze != 0:
            continue
        if ve % 2:
            raise ValueError(f"odd v-exponent {ve} in the z^0 layer; convention bug")
        half = ve // 2
        terms[half] = terms.get(half, 0) + c * (-1 if half % 2 else 1)
    return LaurentPoly(terms)


def gamma_linking_formula(component_gammas, total_linking: int) -> LaurentPoly:
    """Zeroth coefficient polynomial of a link assembled from its
    components: (-1)^{n-1} (1+a^-1)^{n-1} (-a)^{lk} times the product of
    the component polynomials."""
    gammas = list(component_gammas)
    if not gammas:
        raise ValueError("need at least one component")
    n = len(gammas)
    if n == 1:
        # a knot has no pairwise linking; the argument is vacuous
        return gammas[0]
    acc = (-ONE_PLUS_INV_ALPHA) ** (n - 1) * neg_alpha_pow(total_linking)
    for g in gammas:
        acc = acc * g
    return acc


# ---------------------------------------------------------------------------
# the positive-braid engine
# ---------------------------------------------------------------------------


def _sorting_word(pos: list, g: int) -> bytes:
    """A reduced word Q with Q g = P, for the permutation braid P whose
    arrangement of strands is ``pos`` (as in ``braid._permutation``: pos[k]
    is the top position of the strand now at k) and whose right descent is
    g: undo the crossing at g, then read the swaps of a bubble sort
    backwards. Reduced words of one permutation differ only by braid
    relations (Matsumoto), so Q g and P are one braid."""
    arr = list(pos)
    arr[g - 1], arr[g] = arr[g], arr[g - 1]
    swaps = []
    for end in range(len(arr) - 1, 0, -1):
        for j in range(end):
            if arr[j] > arr[j + 1]:
                arr[j], arr[j + 1] = arr[j + 1], arr[j]
                swaps.append(j + 1)
    return bytes(reversed(swaps))


def _descent_conjugates(n: int, word: bytes):
    """The conjugates of the permutation braid ``word`` that move one
    descent to the other end, read off its permutation: g Q for each right
    descent g of ``word`` = Q g, in ascending g; then Q' g for each left
    descent g of ``word`` = g Q', by the same move on the reversed word,
    reversed back."""
    for step in (1, -1):
        pos = _permutation(n, word[::step])
        for g in range(1, n):
            if pos[g - 1] > pos[g]:
                yield (bytes((g,)) + _sorting_word(pos, g))[::step]


def _least_recrossing_rotation(n: int, word: bytes) -> Optional[bytes]:
    """The square g g rest Q of the first rotation word[i:] + word[:i]
    whose first recrossing is at the least generator g, where that rotation
    is P g rest and P = Q g (``_sorting_word``); None if every rotation is
    a permutation braid.

    One pass over the doubled word: the window doubled[i:e] is the longest
    prefix of rotation i that is a permutation braid, held as pos[k], the
    label of the strand at position k, and its inverse at[label]. Dropping
    the window's first letter g relabels the strands that start at
    positions g-1 and g, which swaps two labels; what is left is a suffix
    of a permutation braid and so one itself, so e only moves right and
    the pass costs O(L). It stops at generator 1, which no rotation can
    beat. At each better rotation it keeps e and a copy of pos, the
    permutation of P, so Q is read off that copy at the end and P is never
    walked again."""
    L = len(word)
    doubled = word + word
    pos, at = list(range(n)), list(range(n))
    best, best_g, e = None, n, 0
    for i in range(L):
        end = i + L
        while e < end:
            g = doubled[e]
            left, right = pos[g - 1], pos[g]
            if left > right:  # the two strands at g-1 and g have crossed
                if g < best_g:
                    best, best_g = (i, e, pos[:]), g
                break
            pos[g - 1], pos[g] = right, left
            at[left], at[right] = g, g - 1
            e += 1
        if best_g == 1:
            break
        g = doubled[i]  # drop the window's first letter
        left, right = at[g - 1], at[g]
        pos[left], pos[right] = g, g - 1
        at[g - 1], at[g] = right, left
    if best is None:
        return None
    i, e, pos = best
    return bytes((best_g, best_g)) + doubled[e + 1 : i + L] + _sorting_word(pos, best_g)


def _find_square(letters: bytes, n: int) -> bytes:
    """A positive word of the same length and closure as ``letters`` that
    starts with a square (g, g): the square of the first rotation whose
    first recrossing is at the least generator
    (``_least_recrossing_rotation``), of ``letters`` and then of each word
    a breadth-first walk over descent conjugates reaches; each word's
    conjugates are read off its permutation in one pass
    (``_descent_conjugates``), and the window is the only recrossing finder.
    Raises ValueError if the walk ends without one. Words are ``bytes``,
    one letter a byte.

    Any rotation with a recrossing gives a square; which one is taken sets
    the sub-words the skein steps yield. The least generator was chosen by
    measurement: on every iterated cable measured, a cold walk meets fewer
    of them than with the first rotation that has a recrossing (rotation
    classes of knots reached, unknots included: 8/3 107 against 232, 3/4
    137 against 511, 11/3 187 against 446, 8/5 1,514 against 3,121).

    The walk always finds a square, so this never raises, when each
    generator occurs at least twice, as in every word ``_gamma_node``
    searches. Proof: suppose no word reached has a rotation with a
    recrossing; each is then a reduced word, and its moves depend only on
    its permutation.
    - The permutation w of ``letters`` has length 2(n-1) or more, above
      n - c, the least length in its conjugacy class (c cycles).
    - By Geck and Pfeiffer (Adv. Math. 102, 1993, Thm 1.1), conjugations
      by simple reflections s, none raising the length, lead w to the least
      length; so one drops it. Before the first drop each step that moves
      the permutation keeps its length, so s is a left or a right descent
      (else s w s is w or two longer), and the walk takes that step.
    - At the first drop, from w', s is a right descent of w' and a left
      descent of w' s, so the move g = s gives s Q with Q a reduced word
      of w' s: a word with a recrossing, against the supposition."""
    walk, seen = [letters], {letters}
    for word in walk:  # breadth first: the walk grows while it is read
        found = _least_recrossing_rotation(n, word)
        if found is not None:
            return found
        for conjugate in _descent_conjugates(n, word):
            if conjugate not in seen:
                seen.add(conjugate)
                walk.append(conjugate)
    raise ValueError(f"no square for {BraidWord(n, letters)}: a generator occurs less than twice")


def _split_link(n: int, letters: bytes) -> tuple:
    """The words ((n1, word1), (n2, word2)) of the two components of the
    closure of the positive word ``letters``, the first through position 0:
    what ``component_words`` gives for a two-component link, by the same
    strand deletion, with no signs and no linking number to count.

    It follows positions, not strands: side[k] is the component of the
    strand at position k and rank[k] its rank among that component's
    strands, counted from 1 on the left. The cycle through position 0 of
    the closure permutation is the first component, and every other
    position is the second. Two strands of one component at g-1 and g have
    ranks r and r+1, and as they cross each takes the other's place and
    rank, so a crossing within a component changes neither list and is kept
    as generator r; one between components swaps both lists' entries at g-1
    and g."""
    perm = list(range(n))  # perm[k]: the top position of the strand ending at k
    for g in letters:
        perm[g - 1], perm[g] = perm[g], perm[g - 1]
    side, k = [1] * n, 0
    while side[k]:
        side[k] = 0
        k = perm[k]
    rank, sizes = [], [0, 0]
    for k in side:
        sizes[k] += 1
        rank.append(sizes[k])
    kept = (bytearray(), bytearray())
    for g in letters:
        k = side[g - 1]
        if k == side[g]:
            kept[k].append(rank[g - 1])
        else:
            side[g - 1], side[g] = side[g], k
            rank[g - 1], rank[g] = rank[g], rank[g - 1]
    return (sizes[0], bytes(kept[0])), (sizes[1], bytes(kept[1]))


def _times(x: tuple, y: tuple) -> tuple:
    """The product of two polynomials in Z[a], each the tuple of its
    coefficients from a^0 up."""
    out = [0] * (len(x) + len(y) - 1)
    for i, c in enumerate(x):
        for j, d in enumerate(y, i):
            out[j] += c * d
    return tuple(out)


def _plus(x: tuple, y: tuple) -> tuple:
    """The sum of two coefficient tuples, as in ``_times``."""
    if len(x) < len(y):
        x, y = y, x
    return tuple(map(add, x, y)) + x[len(y) :]


def _gamma_node(n: int, letters: bytes):
    """The rules for one knot: yield each sub-knot (n, letters) needed, be
    sent its N, and return this knot's N = gamma / (-a)^h, h its genus, as
    the tuple of its coefficients from a^0 up. Rules 2 and 3 each delete
    one letter, which leaves a two-component link, and take its
    components' words from ``_split_link``. A sub-knot of k - 1 letters on
    k strands is the unknot, N = 1 (rule 1), and is not yielded."""
    counts = [letters.count(g) for g in range(1, n)]
    if 1 in counts:
        # a knot uses every generator; without the least one used once it
        # closes to the split link of the two summands, and N is their product
        i = letters.index(counts.index(1) + 1)
        r, link = None, letters[:i] + letters[i + 1 :]
    else:
        # found = g g rest; skein triple of positive words. rest has the
        # knot's permutation, and the smoothing g rest two components.
        found = _find_square(letters, n)
        rest = found[2:]
        r = (yield n, rest) if len(rest) >= n else (1,)
        link = found[1:]
    (n1, word1), (n2, word2) = _split_link(n, link)
    k1 = (yield n1, word1) if len(word1) >= n1 else (1,)
    k2 = (yield n2, word2) if len(word2) >= n2 else (1,)
    product = _times(k1, k2)
    return product if r is None else _plus(r, _plus(product, (0,) + product))


def gamma_positive(w: BraidWord) -> GammaResult:
    """Zeroth coefficient polynomial of a positive braid closure, with its
    normalized form.

    For a word of e letters on n strands whose closure has c components,
    gamma = (a+1)^{s-1} (-a)^h N, where s = n - (number of distinct
    generators) counts split factors, h = (e - n + 2 - c)/2, a whole number
    since e has the parity of n - c, and N, the normalized polynomial, is
    (a+1)^{c-s} times the product of the memo's N over the closure's
    components, which are knots (see the module docstring); an unknot
    component, k - 1 letters on k strands, gives 1 without the memo. The
    loop ``_run``, which runs both engines, takes words of any length; only
    the caller's crossing budget bounds the work, which grows fast with the
    strand count. On more than ``MAX_STRANDS`` (256) strands, or out of
    memory, this raises ValueError. Measured through the ``certify`` CLI
    (median of 5 runs, Intel Xeon 2 vCPU, Python 3.11.7): 1000/3 at budget
    2000 (1,996 letters on 3 strands) takes 0.40 s and a VmPeak of 30 MB,
    7/5 at budget 300 (268 letters on 15 strands) 5.1 s and 68 MB, and 4/5
    at budget 300 (269 letters on 20 strands) 3.6 s and 59 MB.

    Lemma: N lies in Z[a], its coefficients are nonnegative and N(0) >= 1.
    Proof. For a knot, c = s = 1 and h = (e - n + 1)/2 is the genus. First,
    each rule of ``_gamma_node`` gives N = gamma / (-a)^h of its knot: with
    gamma_i, N_i, h_i, e_i and n_i for the sub-knots,
    - the unknot, e = n - 1: each generator occurs once, so the closure
      destabilises to one strand, h = 0 and N = gamma = 1;
    - a connected sum at g, which the knot uses once: the word without
      that letter is a braid on strands 1..g beside one on g+1..n, whose
      closures are the summands, so ``_split_link`` gives their words.
      e = e1 + e2 + 1, n = n1 + n2 and both summands are knots, so
      h = h1 + h2, and as gamma = gamma1 gamma2, N = N1 N2;
    - the square: the conjugate g g R has the closure, e and n of the knot.
      R is a knot of e - 2 letters, so h(R) = h - 1. The link g R of e - 1
      letters has two components, knots K_i on n_i strands, n1 + n2 = n;
      the e - 1 - e1 - e2 letters that are in neither word are the
      crossings between them, each positive, so they number 2 lk, where lk
      is the linking number, and h1 + h2 + lk = h. As
      -(1 + a^-1) = (a+1)/(-a), the Lickorish-Millett formula
      gamma(g R) = -(1 + a^-1) (-a)^lk gamma1 gamma2 gives
      gamma(g R) = (a+1) (-a)^{h-1} N1 N2; and as
      gamma = -a (gamma(R) + gamma(g R)), N = N(R) + (a+1) N1 N2.
    Each sub-knot has fewer letters. So by induction on e, N of every
    positive knot lies in Z[a], has nonnegative coefficients and has a
    constant term of at least 1: the rules only add and multiply such
    polynomials and a+1, whose constant term is 1, and a sum or product of
    them has a constant term at least that of one term or factor. Last, for
    the word's c components, counted as in the square step,
    h = sum h_i + lk + 1 - c, and the Lickorish-Millett formula
    gamma = (-1)^{c-1} (1 + a^-1)^{c-1} (-a)^lk prod gamma_i gives
    gamma = (a+1)^{c-1} (-a)^h prod N_i; it covers split links and the
    empty word on two or more strands. As c >= s, because each split factor
    holds a component, N = (a+1)^{c-s} prod N_i has the same three
    properties, and gamma = (a+1)^{s-1} (-a)^h N.

    For a knot, gamma = (-a)^h N with h the genus, so the lowest term of
    gamma^2 is N(0)^2 a^{2h}: gamma^2 = +-(-a)^m needs m = 2h.
    """
    if not w.is_positive:
        raise ValueError("gamma_positive needs a positive braid word")
    if w.strands > MAX_STRANDS:
        raise ValueError(
            f"gamma_positive: a word on {quote(w.strands)} strands is past the engine's limit of {MAX_STRANDS} strands"
        )
    words, _ = component_words(w.strands, w.letters)
    c, s = len(words), w.strands - len(set(w.letters))
    normalized = ONE_PLUS_ALPHA ** (c - s)
    try:
        for k, word in words:
            if len(word) >= k:  # else the unknot, N = 1
                coefficients = _run(_gamma_node, _gamma_memo, k, bytes(word))
                normalized = normalized * LaurentPoly(dict(enumerate(coefficients)))
    except MemoryError:
        raise ValueError(
            f"gamma_positive: out of memory on a word of {len(w.letters)} letters on {w.strands} strands"
        ) from None
    half = (len(w.letters) - w.strands + 2 - c) // 2  # exact: e has the parity of n - c
    gamma = ONE_PLUS_ALPHA ** (s - 1) * neg_alpha_pow(half) * normalized
    return GammaResult(gamma=gamma, gamma_normalized=normalized)
