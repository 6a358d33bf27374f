import random
from fractions import Fraction

import pytest

from conftest import random_gluing_tuple, random_valid_params
from slopecert.braid import cable_braid
from slopecert.certify import certify_slope
from slopecert.surgery import (
    GluingMatrix,
    SlopeParams,
    choose_params,
    dual_gluing,
    double_dual_gluing,
    induced_slopes,
)

I2 = GluingMatrix(1, 0, 0, 1)


class TestGluingMatrix:
    def test_determinant_enforced(self):
        with pytest.raises(ValueError):
            GluingMatrix(2, 0, 0, 2)

    def test_inverse_and_product(self):
        A = GluingMatrix(3, 4, 2, 3)
        assert A @ A.inverse() == I2
        assert A.inverse() @ A == I2

    def test_apply(self):
        A = GluingMatrix(3, 4, 2, 3)
        assert A.apply((0, 1)) == (4, 3)
        assert A.apply((1, 0)) == (3, 2)


class TestDualGluing:
    def test_identity(self):
        assert dual_gluing(I2) == I2
        assert double_dual_gluing(I2) == I2

    def test_worked_example(self):
        A = GluingMatrix(3, 4, 2, 3)
        assert dual_gluing(A) == GluingMatrix(-21, 32, -2, 3)
        assert double_dual_gluing(A) == GluingMatrix(195, 292, 2, 3)

    def test_small_example(self):
        A = GluingMatrix(2, 1, 1, 1)
        assert dual_gluing(A) == GluingMatrix(0, 1, -1, 2)
        assert double_dual_gluing(A) == GluingMatrix(4, 3, 1, 1)

    def test_matches_correction_times_inverse(self):
        rng = random.Random(11)
        for _ in range(300):
            p, q, r, s = random_gluing_tuple(rng)
            A = GluingMatrix(p, r, q, s)
            Z = GluingMatrix(1, r * s, 0, 1)
            Zp = GluingMatrix(1, p * q * r * r, 0, 1)
            assert dual_gluing(A) == Z @ A.inverse()
            assert double_dual_gluing(A) == Zp @ A
            assert dual_gluing(A).det == 1
            assert double_dual_gluing(A).det == 1


class TestSlopeParams:
    def test_validation(self):
        SlopeParams(p=3, q=2, r=4, s=3, t=21)
        with pytest.raises(ValueError):
            SlopeParams(p=1, q=2, r=0, s=1, t=-1)  # p too small
        with pytest.raises(ValueError):
            SlopeParams(p=3, q=2, r=4, s=3, t=20)  # wrong t
        with pytest.raises(ValueError):
            SlopeParams(p=3, q=2, r=1, s=2, t=2)  # determinant fails
        with pytest.raises(ValueError):
            SlopeParams(p=4, q=2, r=1, s=1, t=1)  # not coprime

    def test_matrix_columns(self):
        P = SlopeParams(p=3, q=2, r=4, s=3, t=21)
        assert P.matrix().apply((0, 1)) == (4, 3)

    def test_json_fragment(self):
        P = SlopeParams(p=3, q=2, r=4, s=3, t=21)
        assert P.to_obj() == {"p": 3, "q": 2, "r": 4, "s": 3, "t": 21}


class TestInducedSlopes:
    def test_worked_example(self):
        P = SlopeParams(p=3, q=2, r=4, s=3, t=21)
        assert induced_slopes(P) == (Fraction(3, 2), Fraction(21, 2), Fraction(195, 2))

    def test_degenerate_twist(self):
        P = SlopeParams(p=2, q=1, r=1, s=1, t=0)
        assert induced_slopes(P) == (Fraction(2), Fraction(0), Fraction(4))

    def test_middle_numerator_is_t(self):
        rng = random.Random(5)
        for _ in range(50):
            P = random_valid_params(rng)
            middle = induced_slopes(P)[1]
            assert middle == Fraction(P.t, P.q)
            assert middle.numerator == P.t and middle.denominator == P.q


class TestChooseParams:
    def test_slope_2_1(self):
        P, _ = choose_params(2, 1, s_start=1)
        assert (P.r, P.s, P.t) == (3, 2, 4)

    def test_slope_3_2(self):
        P, _ = choose_params(3, 2, s_start=1)
        assert (P.r, P.s, P.t) == (4, 3, 21)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            choose_params(1, 3)
        with pytest.raises(ValueError):
            choose_params(4, 2)

    def test_net_twist_identity(self):
        rng = random.Random(17)
        for _ in range(40):
            P = random_valid_params(rng)
            w = P.t - P.q * P.r * (P.s - 1)
            assert w == (P.p - 1) * P.s - 1

    def test_dual_meridian_image(self):
        rng = random.Random(23)
        for _ in range(40):
            P = random_valid_params(rng)
            assert dual_gluing(P.matrix()).apply((1, 0)) == (-P.t, -P.q)

    def test_s_start_advances_the_progression(self):
        base, _ = choose_params(2, 1, s_start=1)
        later, _ = choose_params(2, 1, s_start=base.s + 1)
        assert later.s > base.s
        assert (later.s - base.s) % base.q == 0

    def test_returns_the_accepted_cable(self):
        for p, q in ((2, 1), (3, 1), (5, 1), (3, 2), (5, 2)):
            params, w = choose_params(p, q)
            assert w == cable_braid(params)
            assert certify_slope(p, q).braid == w

    def test_selected_cable_is_nontrivial(self):
        rng = random.Random(31)
        for _ in range(20):
            P = random_valid_params(rng)
            w = cable_braid(P)
            assert w.strands - len(w.letters) < 1
