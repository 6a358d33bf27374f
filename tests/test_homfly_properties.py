"""Both Γ engines agree, and are unchanged by the moves that preserve a
braid closure: rotation (conjugation), a far commutation and a braid
relation. Checked by hypothesis on positive words within the oracle budget.
The oracle's HOMFLYPT polynomial is also unchanged by Markov stabilisation,
checked on signed words.

The fast engine's driver is checked against the recursive evaluator it
replaced, kept here as a reference: both must give the same polynomial and
fill the memo with the same entries in the same order. The reference cuts a
connected sum by its own split, splits a square's smoothing with the
signed ``component_words`` and computes in ``LaurentPoly``, so that check
compares two cuts, two splits and two arithmetics; the engine's positive
split is also checked against ``component_words`` directly. Every key in
that memo must close to a knot, and every value must be a canonical
coefficient tuple with the three properties of ``gamma_positive``'s lemma.

The memos are cleared before every evaluation, since both key on the least
rotation of the word and would otherwise answer a rotated word from memory.
That key is checked against every rotation of the word, as a tuple and as
``bytes``, the fast engine's word type. Runs are derandomized, so every
failure reproduces.
"""

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import knot_word
from slopecert import homfly
from slopecert.braid import BraidWord, closure_labels, component_words
from slopecert.homfly import (
    _find_square,
    _min_rotation,
    _split_link,
    clear_caches,
    gamma_linking_formula,
    gamma_positive,
    homfly_oracle,
    zeroth_gamma,
)
from slopecert.poly import ONE_PLUS_ALPHA, LaurentPoly
from slopecert.surgery import choose_params

PROFILE = settings(derandomize=True, max_examples=40, deadline=None, database=None)


def letters_on(n, max_size):
    return st.lists(st.integers(1, n - 1), max_size=max_size).map(tuple)


@st.composite
def words(draw, min_strands=2, core=()):
    """(strands, prefix, suffix) for a positive word prefix + core + suffix
    of at most 10 letters."""
    n = draw(st.integers(min_strands, 5))
    room = 10 - len(core)
    prefix = draw(letters_on(n, room))
    suffix = draw(letters_on(n, room - len(prefix)))
    return n, prefix, suffix


def both_gammas(n, letters):
    w = BraidWord(n, letters)
    clear_caches()
    fast = gamma_positive(w).gamma
    clear_caches()
    return fast, zeroth_gamma(homfly_oracle(w))


def assert_same_closure_gamma(n, first, second):
    fast, oracle = both_gammas(n, first)
    assert fast == oracle
    assert both_gammas(n, second) == (fast, oracle)


@PROFILE
@given(words(), st.integers(0, 9))
def test_rotation(word, k):
    n, prefix, suffix = word
    letters = prefix + suffix
    k = k % len(letters) if letters else 0
    assert_same_closure_gamma(n, letters, letters[k:] + letters[:k])


@PROFILE
@given(st.data())
def test_far_commutation(data):
    n, prefix, suffix = data.draw(words(min_strands=4, core=(1, 3)))
    a = data.draw(st.integers(1, n - 3))
    b = data.draw(st.integers(a + 2, n - 1))
    assert_same_closure_gamma(n, prefix + (a, b) + suffix, prefix + (b, a) + suffix)


@PROFILE
@given(st.data())
def test_braid_relation(data):
    n, prefix, suffix = data.draw(words(min_strands=3, core=(1, 2, 1)))
    a = data.draw(st.integers(1, n - 2))
    b = a + 1
    assert_same_closure_gamma(n, prefix + (a, b, a) + suffix, prefix + (b, a, b) + suffix)


def signed_words(n):
    """Signed words of at most 9 letters on n strands."""
    letters = [g for g in range(1 - n, n) if g]
    return st.lists(st.sampled_from(letters), max_size=9).map(tuple) if letters else st.just(())


@PROFILE
@given(st.data())
def test_stabilisation(data):
    n = data.draw(st.integers(1, 4))
    w = data.draw(signed_words(n))
    x = data.draw(st.sampled_from((n, -n)))
    clear_caches()
    stabilised = homfly_oracle(BraidWord(n + 1, w + (x,))).poly
    clear_caches()
    assert stabilised == homfly_oracle(BraidWord(n, w)).poly



def assert_least_rotation(w):
    least = min((w[i:] + w[:i] for i in range(len(w))), default=())
    assert _min_rotation(w) == least
    # and as bytes, the fast engine's word type: shifting every letter by 8
    # keeps their order, so it keeps the least rotation
    assert _min_rotation(bytes(x + 8 for x in w)) == bytes(x + 8 for x in least)


@PROFILE
@given(st.data())
def test_min_rotation_of_signed_words(data):
    # signed words are what the oracle keys on; on 2 strands ties abound
    assert_least_rotation(data.draw(signed_words(data.draw(st.integers(2, 5)))))


@PROFILE
@given(st.data(), st.integers(1, 5))
def test_min_rotation_of_periodic_words(data, k):
    u = data.draw(signed_words(data.draw(st.integers(2, 4))))
    assert_least_rotation(u * k)


@PROFILE
@given(st.sampled_from((-3, -1, 1, 2)), st.integers(0, 30))
def test_min_rotation_of_constant_words(x, k):
    # k = 0 is the empty word
    assert_least_rotation((x,) * k)


@PROFILE
@given(st.integers(2, 7).flatmap(lambda n: st.tuples(st.just(n), letters_on(n, 14))))
@example((2, (1, 1)))
@example((4, (1, 3, 3, 2, 2)))
def test_linking_formula_over_the_component_words(word):
    # the link rule of gamma_positive: the oracle's gamma of a positive
    # braid link is the Lickorish-Millett formula over its component words
    n, letters = word
    words, linking = component_words(n, letters)
    clear_caches()
    gammas = [zeroth_gamma(homfly_oracle(BraidWord(k, w))) for k, w in words]
    clear_caches()
    assert gamma_linking_formula(gammas, linking) == zeroth_gamma(homfly_oracle(BraidWord(n, letters)))


@PROFILE
@given(st.integers(2, 9).flatmap(lambda n: st.tuples(st.just(n), letters_on(n, 30), st.integers(1, n - 1))))
@example((2, (), 1))
@example((4, (1, 3, 3, 2, 2), 2))
def test_split_link_equals_component_words(word):
    # a positive knot with one more letter closes to a two-component link;
    # the engine's positive split gives component_words' two words
    n, letters, g = word
    link = knot_word(n, letters) + bytes((g,))
    words, _ = component_words(n, link)
    assert _split_link(n, link) == tuple((k, bytes(w)) for k, w in words)


def reference_gamma_rec(n, letters):
    """The recursive evaluator that the driver loop replaced: the same
    rules, memo reads and memo writes, on the call stack. It takes a knot,
    as ``bytes`` like the engine, and returns N = gamma / (-a)^h, h its
    genus, as a ``LaurentPoly``; the memo holds it as the engine's
    coefficient tuple does. It splits the square's smoothing with
    ``component_words``, not the engine's ``_split_link``, and answers the
    unknot, n - 1 letters, without the memo."""
    if len(letters) == n - 1:
        return LaurentPoly.one()
    key = (n, _min_rotation(letters))
    cached = homfly._gamma_memo.get(key)
    if cached is not None:
        return cached

    once = [g for g in range(1, n) if letters.count(g) == 1]
    if once:
        # cut directly, not by strand deletion as the driver does: the
        # summands are the braids on strands 1..g and g+1..n, without g
        g = once[0]
        left = reference_gamma_rec(g, bytes(x for x in letters if x < g))
        result = left * reference_gamma_rec(n - g, bytes(x - g for x in letters if x > g))
    else:
        found = _find_square(letters, n)
        r = reference_gamma_rec(n, found[2:])
        ((n1, first), (n2, second)), _ = component_words(n, found[1:])
        k1 = reference_gamma_rec(n1, bytes(first))
        result = r + ONE_PLUS_ALPHA * k1 * reference_gamma_rec(n2, bytes(second))

    homfly._gamma_memo[key] = result
    return result


def assert_driver_matches_reference(w):
    # gamma_positive evaluates the closure's components one by one, and N
    # is (a+1)^(c - s) times the product of their values
    words, _ = component_words(w.strands, w.letters)
    clear_caches()
    expected = ONE_PLUS_ALPHA ** (len(words) - (w.strands - len(set(w.letters))))
    for k, word in words:
        expected = expected * reference_gamma_rec(k, bytes(word))
    expected_memo = list(homfly._gamma_memo.items())
    clear_caches()
    assert gamma_positive(w).gamma_normalized == expected
    memo = [(key, LaurentPoly(dict(enumerate(value)))) for key, value in homfly._gamma_memo.items()]
    assert memo == expected_memo


@PROFILE
@given(st.data())
def test_driver_matches_the_recursive_reference(data):
    n = data.draw(st.integers(2, 5))
    assert_driver_matches_reference(BraidWord(n, data.draw(letters_on(n, 14))))


@pytest.mark.parametrize("slope", [(8, 3), (5, 3)])
def test_driver_matches_the_recursive_reference_on_cables(slope):
    _, w = choose_params(*slope)
    assert_driver_matches_reference(w)


@pytest.mark.parametrize("k", list(range(9)) + [699, 1099])
def test_odd_power_of_sigma_1(k):
    # sigma_1^(2k+1) closes to T(2, 2k+1); from cold memos the engine peels
    # one square per level, about k levels deep
    clear_caches()
    result = gamma_positive(BraidWord(2, (1,) * (2 * k + 1)))
    assert result.gamma_normalized == LaurentPoly({0: k + 1, 1: k})


@PROFILE
@given(st.integers(2, 4).flatmap(lambda n: st.tuples(st.just(n), letters_on(n, 14))))
@example((2, (1, 1, 1)))
def test_exponents_lie_in_the_morton_franks_williams_window(word):
    # every v-degree of P lies in [e - n + 1, e + n - 1] (Morton 1986; Franks
    # and Williams 1987), and a = -v^2, so every a-degree k has 2k there
    n, letters = word
    assume(max(closure_labels(n, letters)) == 0)
    e = len(letters)
    for k, _ in gamma_positive(BraidWord(n, letters)).gamma.items():
        assert e - n + 1 <= 2 * k <= e + n - 1


@st.composite
def positive_links(draw):
    """(strands, letters) for a positive word of at most 14 letters on 1-6
    strands; a generator that is missing makes a split link."""
    n = draw(st.integers(1, 6))
    return n, draw(letters_on(n, 14)) if n > 1 else ()


@PROFILE
@given(positive_links())
@example((1, ()))
@example((3, (1, 1, 2, 2)))
@example((4, (1, 1, 3, 3, 3)))
def test_normalized_gamma_has_a_positive_constant_term(word):
    # the lemma that gamma_positive's docstring proves: on every positive
    # braid link, split ones included, the normalised polynomial lies in
    # Z[a] and takes a value of at least 1 at a = 0
    n, letters = word
    normalized = gamma_positive(BraidWord(n, letters)).gamma_normalized
    assert all(k >= 0 for k, _ in normalized.items())
    assert dict(normalized.items()).get(0, 0) >= 1


def assert_memo_holds_normalized_polynomials(w):
    # the induction of gamma_positive's lemma, entry by entry: every value
    # the rules compute lies in Z[a], has nonnegative coefficients and a
    # constant term of at least 1; the engine holds it as the tuple of its
    # coefficients from a^0 up, with no trailing zero
    clear_caches()
    gamma_positive(w)
    for value in homfly._gamma_memo.values():
        assert type(value) is tuple and all(type(c) is int and c >= 0 for c in value), value
        assert value[0] >= 1 and value[-1] != 0, value


@PROFILE
@given(positive_links())
@example((2, (1, 1, 1)))
def test_every_memo_value_is_a_normalized_polynomial(word):
    assert_memo_holds_normalized_polynomials(BraidWord(*word))


@pytest.mark.parametrize("slope", [(8, 3), (5, 3), (21, 5)])
def test_every_memo_value_is_a_normalized_polynomial_on_cables(slope):
    assert_memo_holds_normalized_polynomials(choose_params(*slope)[1])
    assert homfly._gamma_memo


def assert_memo_holds_knots(w):
    # the engine's rules take knots only: the link formula runs on the
    # input and inside the square rule, and its links are never stored
    clear_caches()
    gamma_positive(w)
    for key in homfly._gamma_memo:
        assert max(closure_labels(*key)) == 0, key


@PROFILE
@given(positive_links())
@example((2, (1, 1, 1)))
def test_every_memo_key_is_a_knot(word):
    assert_memo_holds_knots(BraidWord(*word))


@pytest.mark.parametrize("slope", [(8, 3), (21, 5)])
def test_every_memo_key_is_a_knot_on_cables(slope):
    assert_memo_holds_knots(choose_params(*slope)[1])
    assert homfly._gamma_memo
