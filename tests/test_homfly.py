import itertools
import random

import pytest

from conftest import random_word
from slopecert import homfly
from slopecert.braid import BraidWord, cable_word, closure_components, total_linking
from slopecert.homfly import (
    DEFAULT_ORACLE_BUDGET,
    HomflyResult,
    OracleBudgetError,
    _find_square,
    _square_at_recrossing,
    clear_caches,
    gamma_linking_formula,
    gamma_positive,
    homfly_oracle,
    split_factors,
    zeroth_gamma,
)
from slopecert.poly import ALPHA, BiLaurent, LaurentPoly, ONE_PLUS_INV_ALPHA

UNKNOT = BraidWord(1, ())
HOPF = BraidWord(2, (1, 1))
TREFOIL = BraidWord(2, (1, 1, 1))

GAMMA_TREFOIL = LaurentPoly({1: -2, 2: -1})
GAMMA_HOPF = LaurentPoly({0: 1, 1: 1})


def oracle_gamma(w: BraidWord) -> LaurentPoly:
    return zeroth_gamma(homfly_oracle(w))


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
            assert oracle_gamma(w) == oracle_gamma(w.reversed())


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
        assert (res.split_components, res.euler_char) == (1, -1)
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
            assert res.split_components == n

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
            half = (2 - res.euler_char - comps) // 2
            rebuilt = (
                LaurentPoly({0: 1, 1: 1}) ** (res.split_components - 1)
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
            assert BraidWord(w.strands, reduced).exponent_sum == w.exponent_sum
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
        assert BraidWord(n, found).exponent_sum == BraidWord(n, letters).exponent_sum
        if len(letters) <= DEFAULT_ORACLE_BUDGET:
            assert oracle_gamma(BraidWord(n, found)) == oracle_gamma(BraidWord(n, letters))

    def test_find_square_conjugates_to_a_square(self):
        # the words _gamma_rec passes on: each generator occurs at least twice
        for n in (2, 3, 4):
            for length in range(2 * (n - 1), 9):
                for letters in itertools.product(range(1, n), repeat=length):
                    if all(letters.count(g) >= 2 for g in range(1, n)):
                        self.check_square(n, letters)
        rng = random.Random(3)
        for _ in range(300):
            n = rng.randint(5, 6)
            letters = ()
            while not all(letters.count(g) >= 2 for g in range(1, n)):
                length = rng.randint(2 * (n - 1), n * (n - 1) // 2)
                letters = tuple(rng.randint(1, n - 1) for _ in range(length))
            self.check_square(n, letters)

    def test_find_square_through_a_right_descent(self):
        # every rotation of these words is a permutation braid, so only the
        # descent step finds a square
        for w in (
            BraidWord(5, (1, 2, 4, 1, 3, 2, 4, 3)),
            BraidWord.parse("8: 2 1 3 2 1 4 3 2 5 4 3 7 6 5 4 7 6 5 1"),
        ):
            L = len(w.letters)
            rotations = [w.letters[i:] + w.letters[:i] for i in range(L)]
            assert all(_square_at_recrossing(w.strands, r) is None for r in rotations)
            self.check_square(w.strands, w.letters)


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


class TestMemoCap:
    def test_zero_cap_still_correct(self, monkeypatch):
        monkeypatch.setattr(homfly, "_MEMO_CAP", 0)
        clear_caches()
        try:
            assert oracle_gamma(TREFOIL) == GAMMA_TREFOIL
            assert gamma_positive(TREFOIL).gamma == GAMMA_TREFOIL
            assert homfly._oracle_memo == {} and homfly._gamma_memo == {}
        finally:
            clear_caches()
