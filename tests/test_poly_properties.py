"""Ring properties of the three sparse polynomial rings, by hypothesis.

Runs are derandomized, so every failure reproduces.
"""

from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slopecert.poly import BiLaurent, LaurentPoly, SkeinElem

PROFILE = settings(derandomize=True, max_examples=40, deadline=None, database=None)

coeffs = st.integers(-9, 9)
laurent = st.dictionaries(st.integers(-6, 6), coeffs, max_size=4).map(LaurentPoly)
bilaurent = st.dictionaries(
    st.tuples(st.integers(-3, 3), st.integers(-3, 3)), coeffs, max_size=4
).map(BiLaurent)
skein = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)),
    st.dictionaries(st.integers(-3, 3), coeffs, max_size=3).map(LaurentPoly),
    max_size=3,
).map(SkeinElem)

RINGS = {LaurentPoly: laurent, BiLaurent: bilaurent, SkeinElem: skein}
ring = pytest.mark.parametrize("cls", list(RINGS), ids=lambda cls: cls.__name__)


@ring
def test_add_and_mul_are_associative_commutative_and_distribute(cls):
    @PROFILE
    @given(RINGS[cls], RINGS[cls], RINGS[cls])
    def check(a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c

    check()


@ring
def test_zero_and_one_identities(cls):
    @PROFILE
    @given(RINGS[cls])
    def check(a):
        assert a + cls.zero() == a
        assert a * cls.one() == a
        assert a * cls.zero() == cls.zero()
        assert a - a == cls.zero()
        assert a - a == 0
        assert (a - a).is_zero() and not (a - a)

    check()


@ring
def test_equal_values_hash_equal(cls):
    @PROFILE
    @given(RINGS[cls], RINGS[cls])
    def check(a, b):
        rebuilt = (a + b) - b
        assert rebuilt == a and hash(rebuilt) == hash(a)
        if a == b:
            assert hash(a) == hash(b)

    check()


@ring
def test_power_is_repeated_multiplication(cls):
    @PROFILE
    @given(RINGS[cls], st.integers(0, 4))
    def check(a, n):
        assert a**n == reduce(lambda acc, _: acc * a, range(n), cls.one())

    check()


@PROFILE
@given(laurent, laurent)
def test_laurent_divexact_undoes_multiplication(a, b):
    if b:
        assert (a * b).divexact(b) == a


@PROFILE
@given(laurent)
def test_laurent_text_and_pair_round_trips(a):
    assert LaurentPoly.parse(str(a)) == a
    assert LaurentPoly.from_pairs(a.to_pairs()) == a


@PROFILE
@given(skein)
def test_skein_rows_round_trip(x):
    assert SkeinElem.from_rows(x.to_rows()) == x
