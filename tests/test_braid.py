import random
import re
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import slopecert.braid
from conftest import exponent_sum, random_valid_params, slope_params
from slopecert.braid import (
    BraidWord,
    _bundle_swap,
    bennequin_euler_char,
    cable_braid,
    cable_word,
    closure_components,
    closure_labels,
    component_words,
    torus_braid,
    total_linking,
)
from slopecert.surgery import SlopeParams

# hypothesis runs are derandomized
PROFILE = settings(derandomize=True, max_examples=60, deadline=None, database=None)


def _signed_letters(n):
    letters = st.integers(1, n - 1).flatmap(lambda g: st.sampled_from((g, -g)))
    return st.lists(letters, max_size=60) if n > 1 else st.just([])


signed_words = st.integers(1, 50).flatmap(
    lambda n: _signed_letters(n).map(lambda letters: BraidWord(n, tuple(letters)))
)

# Python's int() digit limit where the tests run; 0 means there is none
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
# one digit more than the default limit, so over it wherever a limit is set
OVER_LIMIT = "1" * (max(DIGIT_LIMIT, 4300) + 1)

# an int as an error quotes it: whole, or by its start and length when long
_QUOTED_INT = r"-?\d+(\.\.\. \(\d+ characters\))?"
# every message BraidWord.parse raises, by BraidWord's own checks
PARSE_ERROR = re.compile(
    r"missing ':' in braid word .*"
    r"|braid word (strand count|letter) .* is not an integer"
    r"|braid word (strand count|letter at place \d+) has \d+ digits, more than Python's int\(\) limit of \d+"
    r"|need at least one strand"
    rf"|letter {_QUOTED_INT} is not a generator on {_QUOTED_INT} strands",
    re.DOTALL,
)


def _braid_text(head, tail):
    return f"{head}: {' '.join(map(str, tail))}"


# arbitrary text, and 'n: ...' texts of small integers, some with junk tokens
_tokens = st.one_of(st.integers(-5, 5).map(str), st.text(max_size=3))
braid_texts = st.one_of(
    st.text(),
    st.builds(_braid_text, st.integers(1, 6), st.lists(st.integers(-2, 2), max_size=4)),
    st.builds(_braid_text, _tokens, st.lists(_tokens, max_size=6)),
)


class TestBraidWord:
    def test_validation(self):
        with pytest.raises(ValueError):
            BraidWord(0, ())
        with pytest.raises(ValueError):
            BraidWord(2, (2,))
        with pytest.raises(ValueError):
            BraidWord(3, (0,))

    def test_text_round_trip(self):
        w = BraidWord(2, (1, 1, 1))
        assert str(w) == "2: 1 1 1"
        assert BraidWord.parse("2: 1 1 1") == w
        assert BraidWord.parse("3:") == BraidWord(3, ())
        assert BraidWord.parse(" 4 : -1 3  -2 ") == BraidWord(4, (-1, 3, -2))

    @pytest.mark.parametrize(
        "text, message",
        [
            ("3: 1 x", "braid word letter 'x' at place 2 is not an integer"),
            ("3: \u0661 \u0662", "braid word letter '\u0661' at place 1 is not an integer"),
            ("3: 1 +2", "braid word letter '+2' at place 2 is not an integer"),
            ("3: 1_0", "braid word letter '1_0' at place 1 is not an integer"),
            ("x: 1", "braid word strand count 'x' is not an integer"),
            (": 1", "braid word strand count '' is not an integer"),
        ],
    )
    def test_parse_names_the_first_token_that_is_not_an_ascii_integer(self, text, message):
        with pytest.raises(ValueError) as info:
            BraidWord.parse(text)
        assert str(info.value) == message

    @pytest.mark.skipif(not DIGIT_LIMIT, reason="int() has no digit limit")
    @pytest.mark.parametrize(
        "template, where",
        [("{}: 1", "strand count"), ("3: 1 {}", "letter at place 2"), ("3: -{}", "letter at place 1")],
    )
    def test_parse_names_a_number_past_the_int_digit_limit(self, template, where):
        limit = sys.get_int_max_str_digits()
        with pytest.raises(ValueError) as info:
            BraidWord.parse(template.format("1" * (limit + 1)))
        message = str(info.value)
        assert message == f"braid word {where} has {limit + 1} digits, more than Python's int() limit of {limit}"
        assert len(message) < 200

    @PROFILE
    @given(braid_texts)
    @example("3: 1 " + OVER_LIMIT)
    @example(OVER_LIMIT + ": 1")
    @example("3: " + "1" * 4000)
    @example("3: 1 2 -2 1")
    def test_parse_returns_a_word_or_raises_its_own_error(self, text):
        try:
            w = BraidWord.parse(text)
        except ValueError as exc:
            assert PARSE_ERROR.fullmatch(str(exc)), str(exc)[:200]
        else:
            assert BraidWord.parse(str(w)) == w

    @PROFILE
    @given(signed_words)
    @example(BraidWord(1, ()))
    @example(BraidWord(4, ()))
    @example(BraidWord(50, (49, -1)))
    def test_text_is_the_letters_joined(self, w):
        n, letters = w.strands, w.letters
        assert str(w) == (f"{n}: " + " ".join(map(str, letters)) if letters else f"{n}:")
        assert BraidWord.parse(str(w)) == w

    def test_exponent_sum(self):
        assert exponent_sum(BraidWord(3, (1, -2, 2, 1)).letters) == 2
        assert BraidWord(2, (1, 1, 1)).is_positive
        assert not BraidWord(2, (1, -1)).is_positive


class TestWordChecks:
    def test_rejects_zero_and_out_of_range_letters_naming_the_first(self):
        for n in (2, 3, 5):
            for bad in (0, n, -n):
                message = rf"^letter {bad} is not a generator on {n} strands$"
                for letters in ((bad,), (1, -1, bad), (1, bad, n - 1, 0, n + 1)):
                    with pytest.raises(ValueError, match=message):
                        BraidWord(n, letters)

    def test_signed_word_properties_match_per_letter_references(self):
        rng = random.Random(41)
        for _ in range(400):
            n = rng.randint(1, 6)
            gens = [g for i in range(1, n) for g in (i, -i)]
            if rng.random() < 0.5:
                gens = [g for g in gens if g > 0]
            letters = tuple(rng.choice(gens) for _ in range(rng.randint(0, 12))) if gens else ()
            w = BraidWord(n, letters)
            positive = all(x > 0 for x in letters)
            exp_sum = exponent_sum(letters)
            assert w.is_positive == positive
            if positive:
                assert bennequin_euler_char(w) == n - exp_sum
            else:
                with pytest.raises(ValueError):
                    bennequin_euler_char(w)


def _run_tuples(n):
    """Runs (block, count) on n strands: empty blocks and count 0 included,
    with an occasional letter that is not a generator on n strands."""
    good = st.integers(1, n - 1).flatmap(lambda g: st.sampled_from((g, -g))) if n > 1 else st.nothing()
    letter = st.one_of(good, good, good, st.sampled_from((0, n, -n, n + 1)))
    return st.lists(st.tuples(st.lists(letter, max_size=5), st.integers(0, 40)), max_size=4)


run_words = st.integers(1, 8).flatmap(lambda n: st.tuples(st.just(n), _run_tuples(n)))


def _assert_run_route_matches_letters(w, letters):
    """Every per-run answer of ``w`` equals the per-letter one on ``letters``."""
    n = w.strands
    assert w.letters == letters
    assert closure_components(w) == max(closure_labels(n, letters)) + 1
    assert str(w) == " ".join([f"{n}:", *map(str, letters)])
    assert w.is_positive == all(x > 0 for x in letters)


class TestRuns:
    @PROFILE
    @given(run_words)
    @example((3, [((1, 2), 0), ((), 5), ((2, 1, 1), 37)]))
    @example((4, [((), 0)]))
    @example((3, [((2,), 1), ((1, 2), 1), ((1,), 1)]))  # in reverse run order: 3 circles, not 1
    @example((5, [((1, 2), 2), ((4, 5), 0), ((3, -5), 1)]))
    def test_run_route_matches_the_letter_route(self, word):
        n, runs = word
        letters = tuple(x for block, count in runs for _ in range(count) for x in block)
        bad = next((x for x in letters if x == 0 or abs(x) >= n), None)
        if bad is not None:
            with pytest.raises(ValueError, match=rf"^letter {bad} is not a generator on {n} strands$"):
                BraidWord.from_runs(n, runs)
        else:
            _assert_run_route_matches_letters(BraidWord.from_runs(n, runs), letters)

    def test_a_plain_word_is_one_run(self):
        assert BraidWord(3, (1, -2, 1)).runs == (((1, -2, 1), 1),)
        assert BraidWord(3, ()).runs == ()
        assert BraidWord.from_runs(3, [([1, 2], 2)]) == BraidWord(3, (1, 2, 1, 2))

    def test_rejects_a_negative_count(self):
        with pytest.raises(ValueError, match=r"^run count -1 is negative$"):
            BraidWord.from_runs(3, [((1,), -1)])


class TestCableWord:
    def test_equals_bundle_swaps_over_the_torus_letters(self):
        for q in range(1, 5):
            for r in range(7):
                for s in range(1, 6):
                    for twists in range(4):
                        ref = []
                        for x in torus_braid(r, s).letters:
                            ref.extend(_bundle_swap(x, q))
                        ref.extend(tuple(range(1, q)) * twists)
                        w = cable_word(q, r, s, twists)
                        assert w.strands == q * s
                        _assert_run_route_matches_letters(w, tuple(ref))
                        # held as one cabled period and one twist block
                        runs = [(q * q * (s - 1), r), (q - 1, twists)]
                        assert [(len(b), c) for b, c in w.runs] == [(k, c) for k, c in runs if k and c]

    @pytest.mark.parametrize("twists, bytes_per_letter", [(5, 16), (0, 8)])
    def test_memory_bound_counts_what_the_build_holds(self, monkeypatch, twists, bytes_per_letter):
        """With twist letters, ``period * r`` and the joined word are alive
        together: two 8-byte slots per letter; without, one."""
        length = len(cable_word(2, 3, 2, twists).letters)
        monkeypatch.setattr(slopecert.braid, "_MEMORY_BYTES", bytes_per_letter * length - 1)
        with pytest.raises(ValueError, match=f"^cable word of {length} letters is too long to build$"):
            cable_word(2, 3, 2, twists)
        monkeypatch.setattr(slopecert.braid, "_MEMORY_BYTES", bytes_per_letter * length)
        assert len(cable_word(2, 3, 2, twists).letters) == length

    def test_rejects_bad_torus_parameters(self):
        with pytest.raises(ValueError, match="need r >= 0 and s >= 1"):
            cable_word(2, -1, 2, 0)
        with pytest.raises(ValueError, match="need r >= 0 and s >= 1"):
            cable_word(2, 1, 0, 0)


class TestClosureComponents:
    def test_empty_word(self):
        assert closure_components(BraidWord(3, ())) == 3

    def test_hopf_braid(self):
        assert closure_components(BraidWord(2, (1, 1))) == 2

    def test_trefoil_braid(self):
        assert closure_components(BraidWord(2, (1, 1, 1))) == 1


class TestTorusBraid:
    def test_trefoil(self):
        assert torus_braid(3, 2) == BraidWord(2, (1, 1, 1))

    def test_unknot(self):
        assert torus_braid(1, 1) == BraidWord(1, ())

    def test_4_3(self):
        w = torus_braid(4, 3)
        assert w == BraidWord(3, (1, 2) * 4)
        assert exponent_sum(w.letters) == 8

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            torus_braid(-1, 2)
        with pytest.raises(ValueError):
            torus_braid(2, 0)

    def test_is_the_untwisted_one_cable(self):
        for r in range(30):
            for s in range(1, 12):
                w = torus_braid(r, s)
                assert w == BraidWord(s, tuple(range(1, s)) * r)
                assert w == cable_word(1, r, s, 0)

    def test_memory_bound(self, monkeypatch):
        # one 8-byte slot per letter, as for any cable without twist letters
        monkeypatch.setattr(slopecert.braid, "_MEMORY_BYTES", 8 * 6 - 1)
        with pytest.raises(ValueError, match="^cable word of 6 letters is too long to build$"):
            torus_braid(3, 3)
        monkeypatch.setattr(slopecert.braid, "_MEMORY_BYTES", 8 * 6)
        assert torus_braid(3, 3) == BraidWord(3, (1, 2) * 3)


class TestCableBraid:
    def test_q1_returns_base_torus_braid(self):
        P = SlopeParams(p=2, q=1, r=3, s=2, t=4)
        assert cable_braid(P) == torus_braid(3, 2)

    def test_strand_and_letter_counts(self):
        P = SlopeParams(p=3, q=2, r=4, s=3, t=21)
        w = cable_braid(P)
        assert w.strands == 6
        assert len(w.letters) == 37  # 4 * 8 bundle crossings + 5 twist letters
        assert w.is_positive

    def test_exponent_sum_formula(self):
        rng = random.Random(3)
        for _ in range(25):
            P = random_valid_params(rng)
            w = cable_braid(P)
            expected = P.q**2 * P.r * (P.s - 1) + ((P.p - 1) * P.s - 1) * (P.q - 1)
            assert exponent_sum(w.letters) == expected

    def test_closure_is_always_a_knot(self):
        rng = random.Random(13)
        for _ in range(25):
            P = random_valid_params(rng)
            assert closure_components(cable_braid(P)) == 1

    def test_twist_identity_against_parameters(self):
        rng = random.Random(29)
        for _ in range(25):
            P = random_valid_params(rng)
            assert P.t - P.q * P.r * (P.s - 1) == (P.p - 1) * P.s - 1

    @PROFILE
    @given(slope_params())
    def test_parameters_alone_make_a_positive_knot_cable(self, P):
        # what cable_braid relies on SlopeParams for, and certify_slope's
        # Euler characteristic check, also on tuples the selector skips
        twists = (P.p - 1) * P.s - 1
        assert twists >= 0
        assert P.t - P.q * P.r * (P.s - 1) == twists
        w = cable_braid(P)
        assert w == cable_word(P.q, P.r, P.s, twists)
        assert closure_components(w) == 1
        chi = bennequin_euler_char(w)
        assert chi >= 1 or (1 - chi) % 2 == 0

    def test_rejects_negative_net_twists(self):
        with pytest.raises(ValueError):
            cable_word(2, 1, 2, -1)


class TestBennequin:
    def test_trefoil(self):
        w = BraidWord(2, (1, 1, 1))
        chi = bennequin_euler_char(w)
        assert (closure_components(w), chi, (1 - chi) // 2) == (1, -1, 1)

    def test_unknot_disk(self):
        w = BraidWord(1, ())
        chi = bennequin_euler_char(w)
        assert (closure_components(w), chi, (1 - chi) // 2) == (1, 1, 0)

    def test_cable_genus(self):
        P = SlopeParams(p=3, q=2, r=4, s=3, t=21)
        w = cable_braid(P)
        chi = bennequin_euler_char(w)
        assert (closure_components(w), chi, (1 - chi) // 2) == (1, -31, 16)

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            bennequin_euler_char(BraidWord(2, (1, -1)))


class TestLinking:
    def test_hopf(self):
        assert total_linking(BraidWord(2, (1, 1))) == 1

    def test_torus_2_4(self):
        assert total_linking(BraidWord(2, (1, 1, 1, 1))) == 2

    def test_knot_has_no_inter_component_crossings(self):
        assert total_linking(BraidWord(2, (1, 1, 1))) == 0

    def test_negative_hopf(self):
        assert total_linking(BraidWord(2, (-1, -1))) == -1

    def test_blackboard_two_cable_of_trefoil(self):
        # 2-cable inherits the writhe-3 framing, so the components link 3 times
        w = cable_word(2, 3, 2, 0)
        assert closure_components(w) == 2
        assert total_linking(w) == 3


# closure_labels, by hypothesis against references that track pos[strand]
# instead of the strand at each position.


@st.composite
def words(draw, positive=False):
    """(strands, letters): a word of at most 20 letters on at most 6 strands."""
    n = draw(st.integers(1, 6))
    if n == 1:
        return n, ()
    letter = st.integers(1, n - 1)
    if not positive:
        letter = st.builds(lambda g, sign: g * sign, letter, st.sampled_from((1, -1)))
    return n, tuple(draw(st.lists(letter, max_size=20)))


def reference_cycles(n, letters):
    """The cycles of the closure permutation, perm[strand] = bottom position."""
    pos = list(range(n))
    for x in letters:
        i = abs(x) - 1
        a, b = pos.index(i), pos.index(i + 1)
        pos[a], pos[b] = pos[b], pos[a]
    cycles, seen = [], set()
    for i in range(n):
        if i not in seen:
            cycle, j = set(), i
            while j not in cycle:
                cycle.add(j)
                j = pos[j]
            seen |= cycle
            cycles.append(frozenset(cycle))
    return cycles


def reference_linking(n, letters):
    comp = {i: k for k, cycle in enumerate(reference_cycles(n, letters)) for i in cycle}
    pos = list(range(n))
    acc = 0
    for x in letters:
        i = abs(x) - 1
        a, b = pos.index(i), pos.index(i + 1)
        if comp[a] != comp[b]:
            acc += 1 if x > 0 else -1
        pos[a], pos[b] = pos[b], pos[a]
    assert acc % 2 == 0
    return acc // 2


class TestClosureLabels:
    @PROFILE
    @given(words())
    def test_labels_are_the_permutation_cycles(self, word):
        n, letters = word
        labels = closure_labels(n, letters)
        cycles = reference_cycles(n, letters)
        assert sorted(set(labels)) == list(range(len(cycles)))
        assert {frozenset(i for i in range(n) if labels[i] == k) for k in labels} == set(cycles)
        assert closure_components(BraidWord(n, letters)) == len(cycles)

    @PROFILE
    @given(words())
    def test_length_has_the_parity_of_strands_minus_components(self, word):
        # each letter is a transposition, so 1 - chi is even for a knot
        # closure: certify_slope and gamma_positive rely on it
        n, letters = word
        components = closure_components(BraidWord(n, letters))
        assert (len(letters) - n + components) % 2 == 0

    @PROFILE
    @given(words())
    def test_total_linking_matches_reference(self, word):
        n, letters = word
        assert total_linking(BraidWord(n, letters)) == reference_linking(n, letters)

    @PROFILE
    @given(words(positive=True))
    def test_one_letter_splits_or_merges_by_labels(self, word):
        # the skein square step of gamma_positive relies on this
        n, letters = word
        labels = closure_labels(n, letters)
        before = closure_components(BraidWord(n, letters))
        for g in range(1, n):
            change = 1 if labels[g - 1] == labels[g] else -1
            assert closure_components(BraidWord(n, (g,) + letters)) == before + change


def labelled_linking(n, letters):
    """The total linking number from the closure labels alone: half the
    signed count of crossings whose strands have different labels."""
    comp = closure_labels(n, letters)
    cur = list(range(n))  # cur[pos] = strand currently at pos
    acc = 0
    for x in letters:
        i = abs(x) - 1
        if comp[cur[i]] != comp[cur[i + 1]]:
            acc += 1 if x > 0 else -1
        cur[i], cur[i + 1] = cur[i + 1], cur[i]
    assert acc % 2 == 0
    return acc // 2


signed_links = st.integers(2, 7).flatmap(
    lambda n: st.tuples(st.just(n), _signed_letters(n).map(tuple))
)


class TestComponentWords:
    @PROFILE
    @given(signed_links)
    @example((2, ()))
    @example((3, (1, -2, 1, 1, -2)))
    def test_one_knot_word_per_component(self, word):
        n, letters = word
        words, linking = component_words(n, letters)
        assert len(words) == closure_components(BraidWord(n, letters))
        assert all(closure_components(BraidWord(k, w)) == 1 for k, w in words)
        assert sum(k for k, _ in words) == n
        assert linking == labelled_linking(n, letters) == total_linking(BraidWord(n, letters))

    def test_a_knot_is_its_own_word(self):
        assert component_words(3, (1, -2)) == ([(3, (1, -2))], 0)

    def test_two_cable_of_the_trefoil(self):
        # each component is a trefoil on 2 strands; they link 3 times
        w = cable_word(2, 3, 2, 0)
        assert component_words(w.strands, w.letters) == ([(2, (1, 1, 1)), (2, (1, 1, 1))], 3)
