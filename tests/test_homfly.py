import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import exponent_sum, random_word
from slopecert import homfly
from slopecert.braid import (
    BraidWord,
    bennequin_euler_char,
    cable_word,
    closure_components,
    torus_braid,
    total_linking,
)
from slopecert.homfly import (
    DEFAULT_ORACLE_BUDGET,
    HomflyResult,
    OracleBudgetError,
    _descent_conjugates,
    _find_square,
    _least_recrossing_rotation,
    _square_at_recrossing,
    clear_caches,
    gamma_linking_formula,
    gamma_positive,
    homfly_oracle,
    zeroth_gamma,
)
from slopecert.poly import ALPHA, BiLaurent, LaurentPoly, ONE_PLUS_INV_ALPHA
from slopecert.surgery import choose_params

UNKNOT = BraidWord(1, ())
HOPF = BraidWord(2, (1, 1))
TREFOIL = BraidWord(2, (1, 1, 1))

GAMMA_TREFOIL = LaurentPoly({1: -2, 2: -1})
GAMMA_HOPF = LaurentPoly({0: 1, 1: 1})


def oracle_gamma(w: BraidWord) -> LaurentPoly:
    return zeroth_gamma(homfly_oracle(w))


def split_factors(w: BraidWord) -> int:
    """Number of split factors of the closure: components of the path on
    strand positions whose edges are the generators that occur (g joins
    positions g-1 and g, and no other generator does), so the strand count
    minus the number of distinct generators."""
    return w.strands - len({abs(x) for x in w.letters})


class TestOracleGroundTruth:
    def test_unknot(self):
        assert homfly_oracle(UNKNOT).poly == BiLaurent.one()

    def test_positive_hopf(self):
        expected = BiLaurent({(1, -1): 1, (3, -1): -1, (1, 1): 1})
        assert homfly_oracle(HOPF).poly == expected

    def test_trefoil(self):
        expected = BiLaurent({(2, 0): 2, (4, 0): -1, (2, 2): 1})
        assert homfly_oracle(TREFOIL).poly == expected

    def test_unlink_powers_of_delta(self):
        delta = BiLaurent({(-1, -1): 1, (1, -1): -1})
        for n in range(1, 5):
            assert homfly_oracle(BraidWord(n, ())).poly == delta ** (n - 1)

    def test_mirror_trefoil(self):
        expected = BiLaurent({(-2, 0): 2, (-4, 0): -1, (-2, 2): 1})
        assert homfly_oracle(BraidWord(2, (-1, -1, -1))).poly == expected

    def test_figure_eight(self):
        # published table value: v^-2 - 1 - z^2 + v^2
        fig8 = BraidWord(3, (1, -2, 1, -2))
        expected = BiLaurent({(-2, 0): 1, (0, 0): -1, (0, 2): -1, (2, 0): 1})
        assert homfly_oracle(fig8).poly == expected
        gamma = oracle_gamma(fig8)
        assert gamma == LaurentPoly({-1: -1, 0: -1, 1: -1})
        assert gamma.evaluate(-1) == 1

    def test_budget_error(self):
        long_word = BraidWord(2, (1,) * 15)
        with pytest.raises(OracleBudgetError, match="budget"):
            homfly_oracle(long_word)
        # explicit budgets are honored
        assert homfly_oracle(long_word, budget=15).components == 1

    def test_a_word_deeper_than_the_recursion_limit(self):
        # sigma_1^401 peels one letter per level, about 400 levels deep; the
        # driver keeps suspended nodes in a list, not on Python's stack
        script = (
            "import sys; sys.setrecursionlimit(120)\n"
            "from slopecert.braid import BraidWord\n"
            "from slopecert.homfly import gamma_positive, homfly_oracle, zeroth_gamma\n"
            "w = BraidWord(2, (1,) * 401)\n"
            "assert zeroth_gamma(homfly_oracle(w, budget=401)) == gamma_positive(w).gamma\n"
        )
        src = Path(__file__).resolve().parent.parent / "src"
        done = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True,
        )
        assert done.returncode == 0, done.stderr


class TestZerothGamma:
    def test_examples(self):
        assert oracle_gamma(TREFOIL) == GAMMA_TREFOIL
        assert oracle_gamma(HOPF) == GAMMA_HOPF
        assert oracle_gamma(UNKNOT) == LaurentPoly.one()

    def test_odd_power_rejected(self):
        fake = HomflyResult(poly=BiLaurent({(1, 0): 1}), components=1)
        with pytest.raises(ValueError, match="odd"):
            zeroth_gamma(fake)

    def test_stray_z_power_rejected(self):
        fake = HomflyResult(poly=BiLaurent({(0, 1): 1}), components=1)
        with pytest.raises(ValueError, match="convention"):
            zeroth_gamma(fake)

    def test_normalization_point_determined_empirically(self):
        # Under this skein convention the evaluation point that is
        # identically 1 on knots is a = -1, not a = +1: the trefoil already
        # separates the two candidates.
        knots = [UNKNOT, TREFOIL, BraidWord(2, (1,) * 5), BraidWord(3, (1, 2, 1, 2))]
        for w in knots:
            assert oracle_gamma(w).evaluate(-1) == 1
        assert oracle_gamma(TREFOIL).evaluate(1) == -3


class TestSkeinRelationFuzz:
    def test_homflypt_relation_random_sites(self):
        rng = random.Random(8120)
        for _ in range(60):
            w = random_word(rng, max_strands=4, max_letters=7)
            site = rng.randrange(len(w.letters))
            g = abs(w.letters[site])
            plus = BraidWord(w.strands, w.letters[:site] + (g,) + w.letters[site + 1 :])
            minus = BraidWord(w.strands, w.letters[:site] + (-g,) + w.letters[site + 1 :])
            zero = BraidWord(w.strands, w.letters[:site] + w.letters[site + 1 :])
            p_plus = homfly_oracle(plus).poly
            p_minus = homfly_oracle(minus).poly
            p_zero = homfly_oracle(zero).poly
            lhs = p_plus.times_monomial(-1, 0) - p_minus.times_monomial(1, 0)
            assert lhs == p_zero.times_monomial(0, 1)

    def test_gamma_relation_both_cases(self):
        rng = random.Random(605)
        seen_vanishing = seen_two_term = False
        for _ in range(60):
            w = random_word(rng, max_strands=4, max_letters=7)
            site = rng.randrange(len(w.letters))
            g = abs(w.letters[site])
            plus = BraidWord(w.strands, w.letters[:site] + (g,) + w.letters[site + 1 :])
            minus = BraidWord(w.strands, w.letters[:site] + (-g,) + w.letters[site + 1 :])
            zero = BraidWord(w.strands, w.letters[:site] + w.letters[site + 1 :])
            c_pm = closure_components(plus)
            assert c_pm == closure_components(minus)
            c_zero = closure_components(zero)
            g_plus, g_minus, g_zero = map(oracle_gamma, (plus, minus, zero))
            if c_zero == c_pm + 1:
                assert g_plus + ALPHA * g_minus == -(ALPHA * g_zero)
                seen_two_term = True
            else:
                assert c_zero == c_pm - 1
                assert g_plus + ALPHA * g_minus == LaurentPoly.zero()
                seen_vanishing = True
        assert seen_two_term and seen_vanishing

    def test_reversal_invariance(self):
        rng = random.Random(2024)
        words = [TREFOIL, BraidWord(3, (1, 2, 1, 2)), BraidWord(3, (1, -2, 1, 1))]
        words += [random_word(rng, max_strands=3, max_letters=6) for _ in range(10)]
        for w in words:
            assert oracle_gamma(w) == oracle_gamma(BraidWord(w.strands, w.letters[::-1]))


class TestLinkingFormula:
    def test_two_unknots_split(self):
        one = LaurentPoly.one()
        assert gamma_linking_formula([one, one], 0) == -ONE_PLUS_INV_ALPHA

    def test_hopf_from_components(self):
        one = LaurentPoly.one()
        assert gamma_linking_formula([one, one], 1) == GAMMA_HOPF

    def test_single_component_identity(self):
        assert gamma_linking_formula([GAMMA_TREFOIL], 5) == GAMMA_TREFOIL

    def test_needs_a_component(self):
        with pytest.raises(ValueError):
            gamma_linking_formula([], 0)

    def test_split_union_against_oracle(self):
        # trefoil next to an unused strand
        w = BraidWord(3, (1, 1, 1))
        expected = gamma_linking_formula([GAMMA_TREFOIL, LaurentPoly.one()], 0)
        assert oracle_gamma(w) == expected

    def test_torus_links_against_oracle(self):
        one = LaurentPoly.one()
        for k in (1, 2, 3):
            w = BraidWord(2, (1,) * (2 * k))
            assert total_linking(w) == k
            assert oracle_gamma(w) == gamma_linking_formula([one, one], k)


class TestGammaPositive:
    def test_examples(self):
        res = gamma_positive(TREFOIL)
        assert res.gamma == GAMMA_TREFOIL
        assert res.gamma_normalized == LaurentPoly({0: 2, 1: 1})
        assert (split_factors(TREFOIL), bennequin_euler_char(TREFOIL)) == (1, -1)
        unknot = gamma_positive(UNKNOT)
        assert unknot.gamma == unknot.gamma_normalized == LaurentPoly.one()

    def test_t_5_2_against_oracle(self):
        w = BraidWord(2, (1,) * 5)
        res = gamma_positive(w)
        assert res.gamma == oracle_gamma(w)
        assert res.gamma.evaluate(-1) == 1
        assert not res.gamma.is_unit()

    def test_odd_torus_knot_family(self):
        # (2k+1, 2) torus knots: (-1)^k ((k+1) a^k + k a^{k+1})
        for k in (1, 2, 3, 4):
            w = BraidWord(2, (1,) * (2 * k + 1))
            sign = -1 if k % 2 else 1
            expected = LaurentPoly({k: sign * (k + 1), k + 1: sign * k})
            assert gamma_positive(w).gamma == expected
            if 2 * k + 1 <= 9:
                assert oracle_gamma(w) == expected

    def test_t_5_3_value(self):
        # published z^0 layer of the (5,3) torus knot: 7v^8 - 8v^10 + 2v^12
        w = BraidWord(3, (1, 2) * 5)
        assert gamma_positive(w).gamma == LaurentPoly({4: 7, 5: 8, 6: 2})

    def test_rejects_negative_letters(self):
        with pytest.raises(ValueError):
            gamma_positive(BraidWord(2, (1, -1)))

    def test_split_reduction(self):
        # generator 2 never occurs: split union across it
        w = BraidWord(4, (1, 1, 3, 3))
        expected = -(ONE_PLUS_INV_ALPHA * GAMMA_HOPF * GAMMA_HOPF)
        assert gamma_positive(w).gamma == expected
        assert split_factors(w) == 2

    def test_connected_sum_reduction(self):
        # generator 2 occurs once: granny knot, product of trefoils
        w = BraidWord(4, (1, 1, 1, 2, 3, 3, 3))
        assert gamma_positive(w).gamma == GAMMA_TREFOIL * GAMMA_TREFOIL
        assert gamma_positive(w).gamma == oracle_gamma(w)

    def test_unlink_bases(self):
        for n in range(1, 5):
            res = gamma_positive(BraidWord(n, ()))
            sign = -1 if (n - 1) % 2 else 1
            assert res.gamma == sign * ONE_PLUS_INV_ALPHA ** (n - 1)
            assert res.gamma_normalized == LaurentPoly.one()
            assert split_factors(BraidWord(n, ())) == n

    def test_exhaustive_small_words(self):
        for length in range(0, 7):
            for letters in itertools.product((1, 2), repeat=length):
                w = BraidWord(3, letters)
                assert gamma_positive(w).gamma == oracle_gamma(w)

    def test_braid_relation_needed(self):
        # (1,2)^3 has no square until a braid relation fires
        w = BraidWord(3, (1, 2, 1, 2, 1, 2))
        assert gamma_positive(w).gamma == oracle_gamma(w)


class TestConversionCalibration:
    def test_split_unions(self):
        # conversion identity: gamma = (a+1)^{s-1} (-a)^{(2-chi-|L|)/2} gamma~
        from slopecert.poly import neg_alpha_pow

        words = [
            BraidWord(2, ()),
            BraidWord(3, ()),
            BraidWord(3, (1, 1, 1)),
            BraidWord(4, (1, 1, 3, 3)),
            BraidWord(4, (1, 1, 1, 3, 3)),
        ]
        for w in words:
            res = gamma_positive(w)
            comps = closure_components(w)
            half = (2 - bennequin_euler_char(w) - comps) // 2
            rebuilt = (
                LaurentPoly({0: 1, 1: 1}) ** (split_factors(w) - 1)
                * neg_alpha_pow(half)
                * res.gamma_normalized
            )
            assert rebuilt == res.gamma == oracle_gamma(w)

    def test_split_count_examples(self):
        assert split_factors(BraidWord(4, ())) == 4
        assert split_factors(BraidWord(4, (1, 2, 3))) == 1
        assert split_factors(BraidWord(4, (1, 3))) == 2
        assert split_factors(BraidWord(1, ())) == 1
        assert split_factors(BraidWord(5, (2, -3, 2))) == 3
        assert split_factors(BraidWord(3, (1, -1, 2))) == 1


class TestRewrites:
    def test_free_reduction_preserves_exponent_sum(self):
        from slopecert.homfly import _free_cyclic_reduce

        rng = random.Random(2)
        for _ in range(60):
            w = random_word(rng, max_strands=4, max_letters=8)
            reduced = _free_cyclic_reduce(w.letters)
            assert exponent_sum(reduced) == exponent_sum(w.letters)
            # and the reduced word has no adjacent cancelling pair left
            for a, b in zip(reduced, reduced[1:]):
                assert a != -b
            if len(reduced) >= 2:
                assert reduced[0] != -reduced[-1]

    @staticmethod
    def check_square(n, letters):
        found = _find_square(letters, n)
        assert found is not None
        assert len(found) == len(letters) and found[0] == found[1]
        assert exponent_sum(found) == exponent_sum(letters)
        if len(letters) <= DEFAULT_ORACLE_BUDGET:
            assert oracle_gamma(BraidWord(n, found)) == oracle_gamma(BraidWord(n, letters))

    @staticmethod
    def square_search_words():
        """(n, letters) for the words _gamma_node searches for a square:
        each generator occurs at least twice."""
        for n in (2, 3, 4):
            for length in range(2 * (n - 1), 9):
                for letters in itertools.product(range(1, n), repeat=length):
                    if all(letters.count(g) >= 2 for g in range(1, n)):
                        yield n, letters
        rng = random.Random(3)
        for _ in range(300):
            n = rng.randint(5, 6)
            letters = ()
            while not all(letters.count(g) >= 2 for g in range(1, n)):
                length = rng.randint(2 * (n - 1), n * (n - 1) // 2)
                letters = tuple(rng.randint(1, n - 1) for _ in range(length))
            yield n, letters

    # every rotation of these words is a permutation braid, so only the
    # descent step finds a square
    DESCENT_ONLY = (
        BraidWord(5, (1, 2, 4, 1, 3, 2, 4, 3)),
        BraidWord.parse("8: 2 1 3 2 1 4 3 2 5 4 3 7 6 5 4 7 6 5 1"),
    )

    def test_find_square_conjugates_to_a_square(self):
        for n, letters in self.square_search_words():
            self.check_square(n, letters)

    def test_find_square_through_a_right_descent(self):
        for w in self.DESCENT_ONLY:
            L = len(w.letters)
            rotations = [w.letters[i:] + w.letters[:i] for i in range(L)]
            assert all(_square_at_recrossing(w.strands, r) is None for r in rotations)
            self.check_square(w.strands, w.letters)

    @staticmethod
    def reduced_words(n):
        """Every nonempty reduced word on n strands, shortest first: each
        extends a shorter one by a letter on two strands not yet crossed."""
        level, words = [()], []
        while level:
            level = [w + (g,) for w in level for g in range(1, n) if _square_at_recrossing(n, w + (g,)) is None]
            words += level
        return words

    def test_find_square_on_every_reduced_word_on_5_strands(self):
        n = 5
        words = [w for w in self.reduced_words(n) if all(w.count(g) >= 2 for g in range(1, n))]
        assert len(words) == 1226
        walked = [w for w in words if all(_square_at_recrossing(n, w[i:] + w[:i]) is None for i in range(len(w)))]
        assert len(walked) == 64
        for letters in words:
            self.check_square(n, letters)

    @staticmethod
    def permutation(n, letters):
        pos = list(range(n))
        for g in letters:
            pos[g - 1], pos[g] = pos[g], pos[g - 1]
        return pos

    @pytest.mark.parametrize("left", [False, True])
    def test_descent_conjugates_are_conjugates(self, left):
        # g Q (right) or Q' g (left) with g moved back to the other end is a
        # reduced word of the start's permutation, so the same permutation
        # braid; the oracle's gamma must agree as well
        checked = 0
        for n in (2, 3, 4, 5):
            for letters in self.reduced_words(n):
                start = oracle_gamma(BraidWord(n, letters))
                for conjugate in _descent_conjugates(n, letters, left):
                    undone = conjugate[-1:] + conjugate[:-1] if left else conjugate[1:] + conjugate[:1]
                    assert _square_at_recrossing(n, undone) is None
                    assert self.permutation(n, undone) == self.permutation(n, letters)
                    assert oracle_gamma(BraidWord(n, conjugate)) == start
                    checked += 1
        assert checked == 9326

    def test_find_square_raises_outside_its_precondition(self):
        # sigma_1 alone: its one rotation and its descent conjugates are itself
        with pytest.raises(ValueError, match="a generator occurs less than twice"):
            _find_square((1,), 2)

    @staticmethod
    def least_recrossing_square(n, word):
        """Every rotation of ``word`` run through _square_at_recrossing: the
        square with the least found[0], first in rotation order; None if no
        rotation has a recrossing."""
        squares = (_square_at_recrossing(n, word[i:] + word[:i]) for i in range(len(word)))
        return min((f for f in squares if f is not None), key=lambda f: f[0], default=None)

    @classmethod
    def eager_find_square(cls, letters, n):
        """_find_square by brute force, on the word and then on its descent
        conjugates, right ones first."""
        conjugates = [c for left in (False, True) for c in _descent_conjugates(n, letters, left)]
        for word in (letters, *conjugates):
            found = cls.least_recrossing_square(n, word)
            if found is not None:
                return found
        return None

    def test_find_square_returns_the_eager_search_word(self):
        words = [*self.square_search_words(), *((w.strands, w.letters) for w in self.DESCENT_ONLY)]
        for n, letters in words:
            assert _find_square(letters, n) == self.eager_find_square(letters, n)

    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(st.integers(2, 7).flatmap(lambda n: st.tuples(st.just(n), st.lists(st.integers(1, n - 1), max_size=24).map(tuple))))
    def test_window_search_matches_every_rotation(self, word):
        n, letters = word
        i = _least_recrossing_rotation(n, letters)
        found = None if i is None else _square_at_recrossing(n, letters[i:] + letters[:i])
        assert found == self.least_recrossing_square(n, letters)


class TestCableClosuresEmpirically:
    """The cable construction and its twist-insertion convention, checked
    against the oracle on words small enough to afford it."""

    def test_two_cable_of_unknot_with_twists(self):
        # 0 twists: the (2,2) torus link; 1 twist: trefoil; 2: the (4,2) link
        one = LaurentPoly.one()
        w0 = cable_word(2, 1, 2, 0)
        assert oracle_gamma(w0) == gamma_linking_formula([one, one], 1)
        w1 = cable_word(2, 1, 2, 1)
        assert closure_components(w1) == 1
        assert oracle_gamma(w1) == GAMMA_TREFOIL
        w2 = cable_word(2, 1, 2, 2)
        assert oracle_gamma(w2) == gamma_linking_formula([one, one], 2)

    def test_insertion_site_does_not_change_closure(self):
        # valid insertion sites are bundle-block boundaries (multiples of q*q)
        base = cable_word(2, 3, 2, 0).letters  # 2-cable of the trefoil braid
        variants = [
            base + (1,),
            (1,) + base,
            base[:4] + (1,) + base[4:],
            base[:8] + (1,) + base[8:],
        ]
        gammas = {oracle_gamma(BraidWord(4, v)) for v in variants}
        assert len(gammas) == 1
        fast = gamma_positive(BraidWord(4, base + (1,))).gamma
        assert gammas == {fast}


class TestWorkIsPinned:
    """A cold evaluation of a benchmark cable fills the memo to a fixed size.
    The size depends on the sub-words a walk meets, and ``_find_square``
    picks its rotation relative to the word it is given, so it depends on
    the order of the requests as well as on rotation classes: requesting K1
    and K2 before R leaves 105 entries for 8/3, not 107. So the counts pin
    the three rules of ``_gamma_node`` and its request order R, K1, K2."""

    @pytest.mark.parametrize(
        "slope, entries",
        [((8, 3), 107), ((5, 3), 43), ((3, 4), 137), ((11, 3), 187), ((25, 6), 1745), ((21, 5), 349)],
    )
    def test_cold_gamma_memo_size(self, slope, entries):
        _, w = choose_params(*slope)
        clear_caches()
        gamma_positive(w)
        assert len(homfly._gamma_memo) == entries

    @pytest.mark.parametrize(
        "w, entries",
        [
            (BraidWord.parse("3: 1 -2 1 -2"), 9),
            (torus_braid(5, 3), 43),
            (BraidWord(4, (1, 2, 3) * 4), 141),
        ],
    )
    def test_cold_oracle_memo_size(self, w, entries):
        clear_caches()
        homfly_oracle(w)
        assert len(homfly._oracle_memo) == entries


class TestMemoCap:
    """The memos are bounded by memory alone."""

    def test_no_headroom_is_out_of_memory(self, monkeypatch):
        # no 2**60-byte mapping can be made, so the probe at the 256th memo
        # entry fails, and the memo that filled is emptied
        monkeypatch.setattr(homfly, "_HEADROOM", 1 << 60)
        _, w = choose_params(21, 5)
        clear_caches()
        with pytest.raises(ValueError, match="^gamma_positive: out of memory on a word of 76 letters on 5 strands$"):
            gamma_positive(w)
        assert homfly._gamma_memo == {}
