import random
import re

import pytest

from slopecert.poly import (
    ALPHA,
    BiLaurent,
    LaurentPoly,
    ONE_PLUS_INV_ALPHA,
    SkeinElem,
)

A = ALPHA
ONE = LaurentPoly.one()


def LP(d):
    return LaurentPoly(d)


def random_poly(rng, max_terms=4):
    return LaurentPoly(
        {rng.randint(-8, 8): rng.randint(-9, 9) for _ in range(rng.randint(0, max_terms))}
    )


class TestLaurentArithmetic:
    def test_difference_of_squares(self):
        assert (ONE + A) * (ONE - A) == LP({0: 1, 2: -1})

    def test_inverse_monomials(self):
        cube = LP({1: -1}) ** 3
        inv_cube = LP({-1: -1}) ** 3
        assert cube * inv_cube == ONE

    def test_distribute_over_shift(self):
        assert (A + ONE) * LP({-1: 1}) == LP({-1: 1, 0: 1})

    def test_zero_coefficients_never_stored(self):
        p = LP({3: 5}) + LP({3: -5})
        assert p.is_zero()
        assert p.to_pairs() == []

    def test_ring_axioms_randomized(self):
        rng = random.Random(20260809)
        for _ in range(1000):
            a, b, c = (random_poly(rng) for _ in range(3))
            assert (a + b) * c == a * c + b * c
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a * ONE == a

    def test_pow(self):
        assert (ONE + A) ** 0 == ONE
        assert (ONE + A) ** 3 == LP({0: 1, 1: 3, 2: 3, 3: 1})
        with pytest.raises(ValueError):
            (ONE + A) ** -1


class TestUnits:
    def test_signed_monomial_is_unit(self):
        assert LP({3: -1}).is_unit()
        assert LP({-7: 1}).is_unit()

    def test_two_terms_not_unit(self):
        assert not (ONE + A).is_unit()

    def test_trefoil_gamma_not_unit(self):
        # zeroth coefficient polynomial of the right trefoil
        assert not LP({1: -2, 2: -1}).is_unit()

    def test_non_unit_coefficient(self):
        assert not LP({5: 2}).is_unit()
        assert not LaurentPoly.zero().is_unit()

    def test_unit_multiplicative(self):
        rng = random.Random(7)
        for _ in range(500):
            a, b = random_poly(rng), random_poly(rng)
            assert (a * b).is_unit() == (a.is_unit() and b.is_unit())


class TestEvaluation:
    def test_examples(self):
        assert (ONE + A).evaluate(-1) == 0
        assert LP({1: -2, 2: -1}).evaluate(-1) == 1
        assert ONE.evaluate(7) == 1

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            (ONE + A).evaluate(0)

    def test_negative_exponents(self):
        from fractions import Fraction

        assert ONE_PLUS_INV_ALPHA.evaluate(Fraction(1, 2)) == 3


class TestSerialization:
    def test_text_form(self):
        assert str(LP({1: -2, 2: -1})) == "-2*a^1 + -1*a^2"
        assert str(LaurentPoly.zero()) == "0"

    def test_round_trip_randomized(self):
        rng = random.Random(99)
        for _ in range(300):
            p = random_poly(rng)
            assert LaurentPoly.from_pairs(p.to_pairs()) == p

    def test_json_pairs_sorted(self):
        assert LP({2: 1, -1: 3}).to_pairs() == [[-1, 3], [2, 1]]

    @pytest.mark.parametrize("pairs", [[[0, 2.7]], [[1.9, 3]], [[0, "3"]], [[True, 1]], [[0, False]]])
    def test_pairs_take_exact_ints(self, pairs):
        with pytest.raises(ValueError, match=r"every field must be an int"):
            LaurentPoly.from_pairs(pairs)

    @pytest.mark.parametrize(
        "pairs, entry", [([[0, 1, 2]], "[0, 1, 2]"), ([[0]], "[0]"), ([[]], "[]"), ([5], "5")]
    )
    def test_pairs_name_an_entry_of_the_wrong_length(self, pairs, entry):
        with pytest.raises(ValueError, match=rf"^{re.escape(entry)}: expected 2 fields$"):
            LaurentPoly.from_pairs(pairs)

    @pytest.mark.parametrize(
        "read, value, message",
        [
            (LaurentPoly.from_pairs, 3, "3: expected a list of pairs"),
            (LaurentPoly.from_pairs, None, "None: expected a list of pairs"),
            (LaurentPoly.from_pairs, "ab", "'ab': expected a list of pairs"),
            (LaurentPoly.from_pairs, {"0": 1}, "{'0': 1}: expected a list of pairs"),
            (SkeinElem.from_rows, 7, "7: expected a list of rows"),
            (SkeinElem.from_rows, [[0, 0, None]], "None: expected a list of pairs"),
        ],
    )
    def test_a_container_that_is_not_a_list_is_rejected(self, read, value, message):
        with pytest.raises(ValueError) as info:
            read(value)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "read, value, message",
        [
            (LaurentPoly.from_pairs, [[0, 1], [0, 1]], "[0, 1]: exponents must strictly ascend"),
            (LaurentPoly.from_pairs, [[1, 0]], "[1, 0]: a coefficient is never 0"),
            (LaurentPoly.from_pairs, [[2, 1], [1, 3]], "[1, 3]: exponents must strictly ascend"),
            (LaurentPoly.from_pairs, [[0, 1], [2, 0], [1, 1]], "[2, 0]: a coefficient is never 0"),
            (
                SkeinElem.from_rows,
                [[0, 0, [[0, 1]]], [0, 0, [[0, 2]]]],
                "[0, 0, [[0, 2]]]: (h, c) degrees must strictly ascend",
            ),
            (
                SkeinElem.from_rows,
                [[1, 0, [[0, 1]]], [0, 2, [[0, 2]]]],
                "[0, 2, [[0, 2]]]: (h, c) degrees must strictly ascend",
            ),
            (SkeinElem.from_rows, [[0, 1, []]], "[0, 1, []]: a row is never empty"),
            (SkeinElem.from_rows, [[0, -1, [[0, 1]]]], "[0, -1, [[0, 1]]]: H and C degrees must be nonnegative"),
            (SkeinElem.from_rows, [[0, 0, [[0, 1], [0, 1]]]], "[0, 1]: exponents must strictly ascend"),
            (SkeinElem.from_rows, [["x", 0, [[0, 1]]]], "['x', 0, [[0, 1]]]: every field must be an int"),
            (SkeinElem.from_rows, [[True, 0, [[0, 1]]]], "[True, 0, [[0, 1]]]: every field must be an int"),
        ],
    )
    def test_text_the_writers_never_emit_is_rejected(self, read, value, message):
        # a repeated exponent was summed, a zero coefficient dropped, unsorted
        # pairs sorted and a repeated row overwritten, so a changed
        # certificate could read as a different valid one
        with pytest.raises(ValueError) as info:
            read(value)
        assert str(info.value) == message


class TestBiLaurent:
    def test_arithmetic(self):
        delta = BiLaurent({(-1, -1): 1, (1, -1): -1})
        assert delta * BiLaurent.one() == delta
        assert delta - delta == BiLaurent.zero()
        assert dict((delta**2).items())[(-2, -2)] == 1

    def test_times_monomial(self):
        p = BiLaurent({(0, 0): 3, (1, 2): -1})
        assert p.times_monomial(2, -1) == BiLaurent({(2, -1): 3, (3, 1): -1})


class TestSkeinElem:
    def test_substitute_square_of_trefoil(self):
        c2 = SkeinElem.indeterminate_c() ** 2
        tre = LP({1: -2, 2: -1})
        assert c2.substitute(c_value=tre) == SkeinElem.scalar(LP({2: 4, 3: 4, 4: 1}))

    def test_substitute_partial_keeps_other(self):
        e = SkeinElem({(1, 1): ONE})
        out = e.substitute(c_value=A)
        assert out == SkeinElem({(1, 0): A})

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            SkeinElem({(-1, 0): ONE})

    def test_evaluate_alpha(self):
        e = SkeinElem.scalar(ONE + A) + SkeinElem({(1, 0): ONE})
        assert e.evaluate_alpha(-1) == {(1, 0): 1}

    def test_rows_round_trip(self):
        e = SkeinElem({(0, 0): -A, (1, 2): ONE + A})
        assert SkeinElem.from_rows(e.to_rows()) == e

    @pytest.mark.parametrize(
        "rows", [[[0.5, 0, [[0, 1]]]], [[0, True, [[0, 1]]]], [["1", 0, [[0, 1]]]], [[0, 0, [[0, 1.0]]]]]
    )
    def test_rows_take_exact_ints(self, rows):
        with pytest.raises(ValueError, match=r"every field must be an int"):
            SkeinElem.from_rows(rows)

    @pytest.mark.parametrize(
        "rows, entry, size",
        [
            ([[0, 0]], "[0, 0]", 3),
            ([[0, 0, [], 1]], "[0, 0, [], 1]", 3),
            ([7], "7", 3),
            ([[0, 0, [[0, 1, 2]]]], "[0, 1, 2]", 2),
        ],
    )
    def test_rows_name_an_entry_of_the_wrong_length(self, rows, entry, size):
        with pytest.raises(ValueError, match=rf"^{re.escape(entry)}: expected {size} fields$"):
            SkeinElem.from_rows(rows)

    def test_ring_axioms_randomized(self):
        rng = random.Random(4242)
        for _ in range(200):
            def rand_elem():
                return SkeinElem(
                    {
                        (rng.randint(0, 2), rng.randint(0, 2)): random_poly(rng, 2)
                        for _ in range(rng.randint(0, 3))
                    }
                )

            x, y, z = rand_elem(), rand_elem(), rand_elem()
            assert (x + y) * z == x * z + y * z
            assert x * y == y * x
