"""Two engines for HOMFLYPT-derived invariants of braid closures.

``homfly_oracle`` is the ground truth: an exact skein recursion on braid
words. It walks the closure from a fixed basepoint scheme, switches the
first crossing that is not descending, and smooths it, terminating because
(letter count, bad-crossing count) drops lexicographically at every step.
Descending diagrams are unlinks, whose polynomial is a power of
delta = (v^-1 - v)/z. The cost is exponential, so calls are budgeted.

``gamma_positive`` is the fast engine for positive braid words. It computes
the zeroth coefficient polynomial directly in Z[a^{+-1}] by peeling split
factors and connected summands off the word, and otherwise conjugating it
to a word that starts with a square: in a rotation of the word, the prefix
before the first letter g whose two strands have already crossed is a
permutation braid with right descent g, so it equals Q g for a reduced
word Q read off its permutation (Garside; El-Rifai and Morton). The skein
triple at the square is of positive braid links and drops the letter count
on both branches.

The zeroth coefficient polynomial of a link L is the z-degree-0 layer of
(z/v)^{|L|-1} * P_L(v, z) with a = -v^2 substituted. For an n-component
unlink it is (-1)^{n-1} (1 + a^-1)^{n-1}, and across a split union or
connected sum it is multiplicative up to the (-(1 + a^-1)) split factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .braid import BraidWord, bennequin_euler_char, closure_components, closure_labels
from .poly import ALPHA, BiLaurent, LaurentPoly, ONE_PLUS_INV_ALPHA, neg_alpha_pow

DEFAULT_ORACLE_BUDGET = 14
_MEMO_CAP = 1_000_000  # entries per memo table

# delta = (v^-1 - v) / z, the unknot-disjoint-union multiplier
_DELTA = BiLaurent({(-1, -1): 1, (1, -1): -1})

_oracle_memo: dict = {}
_gamma_memo: dict = {}


class OracleBudgetError(Exception):
    """The skein oracle was asked for more crossings than its budget."""


class SquareSearchError(Exception):
    """Every rotation of a word is a permutation braid, so no square was
    found, and the word is too long for the oracle fallback."""


def clear_caches() -> None:
    _oracle_memo.clear()
    _gamma_memo.clear()


def _memo_put(table: dict, key, value) -> None:
    if len(table) < _MEMO_CAP:
        table[key] = value


@dataclass(frozen=True)
class HomflyResult:
    poly: BiLaurent
    components: int


@dataclass(frozen=True)
class GammaResult:
    gamma: LaurentPoly
    gamma_normalized: LaurentPoly
    split_components: int
    euler_char: int


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


def _min_rotation(letters: tuple) -> tuple:
    if not letters:
        return letters
    return min(letters[i:] + letters[:i] for i in range(len(letters)))


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


def _oracle(n: int, letters: tuple) -> BiLaurent:
    # Free reduction only shrinks the word, so it cannot upset the
    # termination measure. Rotation is used purely as a memo key: rotating
    # the word mid-recursion could raise the bad-crossing count and loop.
    letters = _free_cyclic_reduce(letters)
    key = (n, _min_rotation(letters))
    cached = _oracle_memo.get(key)
    if cached is not None:
        return cached
    j = _first_bad_crossing(n, letters)
    if j is None:
        # the largest label is the component count less one
        result = _DELTA ** max(closure_labels(n, letters))
    else:
        x = letters[j]
        switched = letters[:j] + (-x,) + letters[j + 1 :]
        smoothed = letters[:j] + letters[j + 1 :]
        p_switch = _oracle(n, switched)
        p_smooth = _oracle(n, smoothed)
        if x > 0:
            # current word is the positive side: P+ = v^2 P- + v z P0
            result = p_switch.times_monomial(2, 0) + p_smooth.times_monomial(1, 1)
        else:
            # current word is the negative side: P- = v^-2 P+ - v^-1 z P0
            result = p_switch.times_monomial(-2, 0) - p_smooth.times_monomial(-1, 1)
    _memo_put(_oracle_memo, key, result)
    return result


def homfly_oracle(w: BraidWord, budget: int = DEFAULT_ORACLE_BUDGET) -> HomflyResult:
    """Exact HOMFLYPT polynomial of the closure of ``w``.

    Raises OracleBudgetError when the word is longer than ``budget``; the
    recursion is exponential and silent truncation is never acceptable.
    """
    if len(w.letters) > budget:
        raise OracleBudgetError(
            f"oracle budget exceeded: {len(w.letters)} crossings > budget {budget}"
        )
    return HomflyResult(poly=_oracle(w.strands, w.letters), components=closure_components(w))


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


def _unlink_gamma(n: int) -> LaurentPoly:
    g = ONE_PLUS_INV_ALPHA ** (n - 1)
    return -g if (n - 1) % 2 else g


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
    acc = _unlink_gamma(n) * neg_alpha_pow(total_linking)
    for g in gammas:
        acc = acc * g
    return acc


# ---------------------------------------------------------------------------
# the positive-braid engine
# ---------------------------------------------------------------------------


def split_factors(w: BraidWord) -> int:
    """Number of split factors of the closure: components of the path on
    strand positions whose edges are the generators that occur (g joins
    positions g-1 and g, and no other generator does), so the strand count
    minus the number of distinct generators."""
    return w.strands - len({abs(x) for x in w.letters})


def _sorting_word(pos: list) -> tuple:
    """A reduced word that carries the identity arrangement of strands to
    ``pos``: the swaps of a bubble sort of ``pos``, read backwards."""
    arr = list(pos)
    swaps = []
    for end in range(len(arr) - 1, 0, -1):
        for j in range(end):
            if arr[j] > arr[j + 1]:
                arr[j], arr[j + 1] = arr[j + 1], arr[j]
                swaps.append(j + 1)
    return tuple(reversed(swaps))


def _square_at_recrossing(n: int, word: tuple) -> Optional[tuple]:
    """Conjugate ``word`` = P g rest, where g is the first letter on two
    strands that P already crossed, to (g, g) + rest + Q; None if ``word``
    is a permutation braid.

    P is a permutation braid with right descent g, so P = Q g for the
    reduced word Q of its permutation times s_g (reduced words of one
    permutation differ only by braid relations, Matsumoto)."""
    pos = list(range(n))
    for k, g in enumerate(word):
        crossed = pos[g - 1] > pos[g]
        pos[g - 1], pos[g] = pos[g], pos[g - 1]
        if crossed:
            return (g, g) + word[k + 1 :] + _sorting_word(pos)
    return None


def _find_square(letters: tuple, n: int) -> Optional[tuple]:
    """A positive word of the same length and closure as ``letters`` that
    starts with a square (g, g), or None."""
    rotations = [letters[i:] + letters[:i] for i in range(len(letters))]
    for word in rotations:
        found = _square_at_recrossing(n, word)
        if found is not None:
            return found
    # every rotation is a permutation braid: write each as Q g through each
    # right descent g, and try the conjugate g Q
    for word in rotations:
        for g in range(1, n):
            descent = _square_at_recrossing(n, word + (g,))
            if descent is not None:
                found = _square_at_recrossing(n, (g,) + descent[2:])
                if found is not None:
                    return found
    return None


def _split_word(n: int, letters: tuple, g: int):
    """Cut the word at generator g, which occurs at most once, into the
    sub-braids on strands 1..g and g+1..n, dropping g."""
    left = tuple(x for x in letters if x < g)
    right = tuple(x - g for x in letters if x > g)
    return (g, left), (n - g, right)


def _gamma_rec(n: int, letters: tuple) -> LaurentPoly:
    key = (n, _min_rotation(letters))
    cached = _gamma_memo.get(key)
    if cached is not None:
        return cached

    if not letters:
        result = _unlink_gamma(n)
        _memo_put(_gamma_memo, key, result)
        return result

    counts = [0] * n
    for x in letters:
        counts[x] += 1

    result = None
    for g in range(1, n):
        if counts[g] == 0:
            # split union across position g
            (ln, lw), (rn, rw) = _split_word(n, letters, g)
            left = _gamma_rec(ln, lw)
            right = _gamma_rec(rn, rw)
            result = -(ONE_PLUS_INV_ALPHA * left * right)
            break
    if result is None:
        for g in range(1, n):
            if counts[g] == 1:
                # single crossing between the halves: connected sum
                (ln, lw), (rn, rw) = _split_word(n, letters, g)
                left = _gamma_rec(ln, lw)
                right = _gamma_rec(rn, rw)
                result = left * right
                break

    if result is None:
        found = _find_square(letters, n)
        if found is not None:
            # found = (g, g) + rest; skein triple of positive words. The
            # smoothing (g,) + rest splits a component of rest's closure iff
            # its strands at positions g-1 and g lie on one component, and
            # merges two components otherwise.
            g, rest = found[0], found[2:]
            labels = closure_labels(n, rest)
            g_minus = _gamma_rec(n, rest)
            if labels[g - 1] == labels[g]:
                g_zero = _gamma_rec(n, found[1:])
                result = -(ALPHA * (g_minus + g_zero))
            else:
                result = -(ALPHA * g_minus)

    if result is None:
        # no square found; fall back to the oracle if affordable
        if len(letters) <= DEFAULT_ORACLE_BUDGET:
            result = zeroth_gamma(homfly_oracle(BraidWord(n, letters)))
        else:
            raise SquareSearchError(
                f"no square found for {BraidWord(n, letters)}: every rotation is a "
                f"permutation braid, and the word exceeds the oracle budget "
                f"({len(letters)} > {DEFAULT_ORACLE_BUDGET})"
            )

    _memo_put(_gamma_memo, key, result)
    return result


def gamma_positive(w: BraidWord) -> GammaResult:
    """Zeroth coefficient polynomial of a positive braid closure, with its
    normalized form.

    The normalized polynomial divides out (a+1)^{s-1} (-a)^{(2-chi-|L|)/2},
    where s counts split factors and chi comes from the fiber-surface count
    strands - letters; the division must be exact, and for positive braid
    closures the result has nonnegative coefficients.
    """
    if not w.is_positive:
        raise ValueError("gamma_positive needs a positive braid word")
    gamma = _gamma_rec(w.strands, w.letters)
    s = split_factors(w)
    chi = bennequin_euler_char(w)
    comps = closure_components(w)
    if (2 - chi - comps) % 2:
        raise ValueError("half-integer normalization exponent; bad bookkeeping")
    half = (2 - chi - comps) // 2
    denom = (LaurentPoly({0: 1, 1: 1}) ** (s - 1)) * neg_alpha_pow(half)
    normalized = gamma.divexact(denom)
    return GammaResult(
        gamma=gamma,
        gamma_normalized=normalized,
        split_components=s,
        euler_char=chi,
    )
