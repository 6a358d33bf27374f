"""Ring properties of the three sparse polynomial rings, by hypothesis.

Runs are derandomized, so every failure reproduces.
"""

from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import example, given, settings
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
def test_constants_hash_like_their_scalar(cls):
    scalars = st.one_of(coeffs, laurent) if cls is SkeinElem else coeffs

    @PROFILE
    @given(RINGS[cls], scalars)
    def check(x, c):
        for value in (x, x - x, cls.one() * c):
            if value == c:
                assert hash(value) == hash(c)
        assert cls.one() * c == c

    check()


@ring
def test_power_is_repeated_multiplication(cls):
    @PROFILE
    @given(RINGS[cls], st.integers(0, 4))
    def check(a, n):
        assert a**n == reduce(lambda acc, _: acc * a, range(n), cls.one())

    check()


@PROFILE
@given(laurent)
def test_laurent_text_and_pair_round_trips(a):
    assert LaurentPoly.from_pairs(a.to_pairs()) == a


# arbitrary JSON values: scalars (ints past Python's int-to-text digit
# limit among them) nested in lists and dicts
json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.builds(lambda k, sign: sign * 10**k, st.integers(4300, 4400), st.sampled_from((1, -1))),
    st.floats(),
    st.text(max_size=8),
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=12,
)


@PROFILE
@given(json_values)
@example(3)
@example("ab")
@example({"0": 1})
@example([[0, 0, None]])
@example([[10**5000, 1]])
@example([[0, 0, [[10**5000, "x"]]]])
@example([["x" * 5000, 1]])
def test_readers_return_a_polynomial_or_a_short_value_error(value):
    for read, cls in ((LaurentPoly.from_pairs, LaurentPoly), (SkeinElem.from_rows, SkeinElem)):
        try:
            assert type(read(value)) is cls
        except ValueError as exc:
            assert len(str(exc)) < 200


@PROFILE
@given(skein)
def test_skein_rows_round_trip(x):
    assert SkeinElem.from_rows(x.to_rows()) == x


# lists that look like the writers' output and often are not: small
# exponents repeat, coefficients can be 0, degrees can be negative
small = st.integers(-2, 2)
pair_lists = st.lists(st.lists(small, min_size=2, max_size=2), max_size=4)
any_pairs = st.one_of(laurent.map(LaurentPoly.to_pairs), pair_lists)
row_lists = st.one_of(
    skein.map(SkeinElem.to_rows),
    st.lists(st.tuples(st.integers(-1, 2), st.integers(-1, 2), any_pairs).map(list), max_size=3),
)


def first_unwritten_pair(pairs):
    """The first pair that ``to_pairs`` would not write after the ones
    before it, or None."""
    for i, (e, c) in enumerate(pairs):
        if not c or (i and e <= pairs[i - 1][0]):
            return [e, c]
    return None


def rows_are_written(rows):
    """Whether ``to_rows`` of some value is ``rows``."""
    keys = [(h, c) for h, c, _ in rows]
    return (
        all(h >= 0 and c >= 0 for h, c in keys)
        and all(a < b for a, b in zip(keys, keys[1:]))
        and all(pairs and first_unwritten_pair(pairs) is None for _, _, pairs in rows)
    )


@PROFILE
@given(any_pairs)
@example([[0, 1], [0, 1]])
@example([[1, 0]])
@example([[1, 1], [0, 1]])
def test_from_pairs_reads_exactly_what_to_pairs_writes(pairs):
    bad = first_unwritten_pair(pairs)
    if bad is None:
        assert LaurentPoly.from_pairs(pairs).to_pairs() == pairs
    else:
        with pytest.raises(ValueError) as info:
            LaurentPoly.from_pairs(pairs)
        assert str(info.value).startswith(f"{bad!r}: ")


@PROFILE
@given(row_lists)
@example([[0, 0, [[0, 1]]], [0, 0, [[0, 2]]]])
@example([[0, 1, [[0, 1]]], [0, 0, [[0, 1]]]])
@example([[0, 0, []]])
@example([[-1, 0, [[0, 1]]]])
def test_from_rows_reads_exactly_what_to_rows_writes(rows):
    if rows_are_written(rows):
        assert SkeinElem.from_rows(rows).to_rows() == rows
    else:
        with pytest.raises(ValueError):
            SkeinElem.from_rows(rows)


nonzero_rationals = st.one_of(
    st.sampled_from([-1, 1, 2, -3, Fraction(1, 2), Fraction(-2, 3)]),
    st.integers(-7, 7).filter(bool),
    st.fractions(-5, 5, max_denominator=9).filter(bool),
)


@PROFILE
@given(laurent, nonzero_rationals)
@example(LaurentPoly.zero(), -1)
@example(LaurentPoly({2: 3, 5: -1}), Fraction(-2, 3))  # exponents all positive
@example(LaurentPoly({-4: 1, -1: 2}), Fraction(3, 5))  # exponents all negative
@example(LaurentPoly({-2: 1, 0: -1, 3: 4}), -1)
def test_laurent_evaluate_is_exact(a, x):
    value = a.evaluate(x)
    assert isinstance(value, Fraction)
    assert value == sum((c * Fraction(x) ** e for e, c in a.items()), Fraction(0))
    with pytest.raises(ValueError):
        a.evaluate(0)
