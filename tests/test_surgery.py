import random
import time
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import slopecert.braid
from conftest import random_gluing_tuple, random_valid_params, slope_params
from slopecert.braid import bennequin_euler_char, cable_braid
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

# hypothesis runs are derandomized
PROFILE = settings(derandomize=True, max_examples=60, deadline=None, database=None)


# any valid tuple with p, q <= 10**6; no cable is built from these
wide_params = slope_params(max_p=10**6, max_q=10**6, solutions=10)


def reference_choose_params(p, q, s_start):
    """choose_params by a scan of every s, one at a time."""
    s = max(1, s_start)
    while True:
        if (p * s - 1) % q == 0:
            r = (p * s - 1) // q
            params = SlopeParams(p=p, q=q, r=r, s=s, t=-s * (1 - q * r))
            w = cable_braid(params)
            if bennequin_euler_char(w) < 1:
                return params, w
        s += 1


class TestGluingMatrix:
    def test_determinant_enforced(self):
        with pytest.raises(ValueError):
            GluingMatrix(2, 0, 0, 2)

    def test_inverse_and_product(self):
        A = GluingMatrix(3, 4, 2, 3)
        assert A @ A.inverse() == I2
        assert A.inverse() @ A == I2


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
        # certify_slope relies on both products instead of checking them
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
        with pytest.raises(ValueError, match="^need s >= 1$"):
            SlopeParams(p=3, q=2, r=-2, s=-1, t=-3)  # p*s - q*r = 1 but s < 1

    @PROFILE
    @given(wide_params)
    def test_matrix_columns(self, P):
        # certify_slope relies on the second column instead of checking it
        assert P.matrix().rows() == [[P.p, P.r], [P.q, P.s]]

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

    @PROFILE
    @given(wide_params)
    def test_middle_numerator_is_t(self, P):
        # certify_slope relies on this instead of checking it
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

    @PROFILE
    @given(wide_params)
    def test_dual_meridian_image(self, P):
        # dual_gluing's formula and t = -s(1 - qr) give (-t, -q) as the first
        # column; certify_slope relies on this
        assert [row[0] for row in dual_gluing(P.matrix()).rows()] == [-P.t, -P.q]

    @PROFILE
    @given(st.integers(2, 20), st.integers(1, 8), st.integers(-2, 20))
    def test_matches_a_scan_of_every_s(self, p, q, s_start):
        if gcd(p, q) == 1:
            assert choose_params(p, q, s_start) == reference_choose_params(p, q, s_start)

    def test_large_q_fails_without_scanning(self, cable_never_built):
        # the least s is about q/2: a scan by ones took seconds to get there
        start = time.perf_counter()
        with pytest.raises(ValueError, match="letters is too long to build$"):
            choose_params(2, 10**8 + 7)
        assert time.perf_counter() - start < 1

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

    @pytest.mark.parametrize("s_start", [1, 2])
    @pytest.mark.parametrize("p, q", [(2, 1), (3, 1), (3, 2), (5, 2), (4, 3), (7, 3)])
    def test_builds_only_the_cable_it_returns(self, monkeypatch, p, q, s_start):
        built = []

        def counted(params):
            built.append(params)
            return cable_braid(params)

        def no_euler_test(w):
            pytest.fail("choose_params ran an Euler characteristic test")

        monkeypatch.setattr(slopecert.braid, "cable_braid", counted)
        monkeypatch.setattr(slopecert.braid, "bennequin_euler_char", no_euler_test)
        params, w = choose_params(p, q, s_start)
        assert built == [params]
        assert (params, w) == reference_choose_params(p, q, s_start)

    @PROFILE
    @given(st.integers(2, 40), st.integers(1, 12), st.integers(-2, 20))
    def test_genus_route_integer_facts(self, p, q, s_start):
        """With e letters on n strands: 1 - chi = e - n + 1 is even, the degree
        identity holds, and qt lies above the Morton-Franks-Williams window
        [e - n + 1, e + n - 1] exactly when p >= q + 2."""
        assume(gcd(p, q) == 1)
        params, w = choose_params(p, q, s_start)
        e, n, s, t = len(w.letters), w.strands, params.s, params.t
        assert (e - n + 1) % 2 == 0
        assert q * t - (e - n + 1) == s * (p + q - 1) - 2 >= 1
        assert (q * t > e + n - 1) == (p >= q + 2)
