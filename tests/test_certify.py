import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import slopecert.braid
import slopecert.certify
import slopecert.homfly
from slopecert.braid import BraidWord
from slopecert.certify import (
    REASON_DIRECT,
    REASON_GENUS,
    Certificate,
    CertificateError,
    _json_text,
    batch,
    certify_slope,
    parse_slope,
)
from slopecert.cli import main
from slopecert.poly import LaurentPoly, SkeinElem
from slopecert.quote import clip, count_text, digits

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def cable_out_of_memory(monkeypatch):
    """Building any cable with s >= 2 raises MemoryError, without allocating."""

    def no_memory(*args):
        raise MemoryError

    monkeypatch.setattr(slopecert.braid, "_bundle_swap", no_memory)


@pytest.fixture
def engine_out_of_memory(monkeypatch):
    """The fast engine's rule raises MemoryError, without allocating, on an
    empty memo but for one unrelated entry; returns that memo."""

    def no_memory(n, letters):
        raise MemoryError

    memo = {(1, ()): None}
    monkeypatch.setattr(slopecert.homfly, "_gamma_node", no_memory)
    monkeypatch.setattr(slopecert.homfly, "_gamma_memo", memo)
    return memo


# the tests that use it write ints of more than 4,300 digits
needs_digit_limit = pytest.mark.skipif(
    getattr(sys, "get_int_max_str_digits", lambda: 0)() != 4300,
    reason="int-to-text conversion does not have its default limit of 4,300 digits",
)


@pytest.fixture
def gamma_is_a_unit(monkeypatch):
    """The fast engine gives the unit a, so the direct route's unit check fails."""
    unit = slopecert.homfly.GammaResult(LaurentPoly({1: 1}), LaurentPoly({0: 1}))
    monkeypatch.setattr(slopecert.certify, "gamma_positive", lambda w: unit)


@pytest.fixture
def too_deep_slope():
    """A slope p/1 whose 2-strand cable, sigma_1^(2p-1), takes the fast
    engine about p levels deep from empty memos: past the recursion limit
    on any Python. Returns the slope and a budget that admits its cable."""
    slopecert.homfly.clear_caches()
    p = sys.getrecursionlimit() + 100
    return f"{p}/1", 2 * p


class TestCertifySlope:
    def test_slope_2_1(self):
        cert = certify_slope(2, 1)
        assert (cert.params.r, cert.params.s, cert.params.t) == (3, 2, 4)
        assert cert.braid == BraidWord.parse("2: 1 1 1")
        assert cert.genus == 1
        assert cert.gamma_cr == LaurentPoly({1: -2, 2: -1})
        assert cert.gamma_cr_is_unit is False
        assert cert.diff_nonzero_reason == REASON_DIRECT

    def test_slope_3_2(self):
        cert = certify_slope(3, 2)
        assert (cert.params.r, cert.params.s, cert.params.t) == (4, 3, 21)
        assert cert.braid.strands == 6
        assert len(cert.braid.letters) == 37
        assert cert.genus == 16
        assert cert.diff_nonzero_reason == REASON_GENUS
        assert cert.gamma_cr is None
        assert cert.to_obj()["gamma_cr_is_unit"] == "not-computed"

    def test_long_two_strand_cable_takes_the_direct_route(self):
        # a budget of 800 crossings covers every 2-strand cable with p < 400
        cert = certify_slope(399, 1, gamma_budget=800)
        assert (cert.braid.strands, len(cert.braid.letters)) == (2, 797)
        assert cert.diff_nonzero_reason == REASON_DIRECT

    def test_a_certificate_stores_only_what_certify_slope_computed(self, monkeypatch):
        fields = [f.name for f in dataclasses.fields(Certificate)]
        assert fields == ["params", "braid", "gamma_cr", "kb", "kg", "diff"]
        derived = ["bennequin_euler_char", "double_dual_gluing", "dual_gluing", "induced_slopes"]
        calls = []
        for name in derived:
            fn = getattr(slopecert.certify, name)
            monkeypatch.setattr(slopecert.certify, name, lambda *a, name=name, fn=fn: calls.append(name) or fn(*a))
        cert = certify_slope(5, 2)
        assert calls == []
        cert.to_json()
        assert sorted(set(calls)) == derived

    def test_a_failed_check_raises(self, gamma_is_a_unit):
        with pytest.raises(CertificateError, match="^cable polynomial is a unit; cannot certify$"):
            certify_slope(2, 1)

    def test_a_closure_that_is_not_a_knot_raises(self, monkeypatch):
        monkeypatch.setattr(slopecert.certify, "closure_components", lambda w: 2)
        with pytest.raises(CertificateError, match="^cable closure is not a knot$"):
            certify_slope(2, 1)

    def test_a_gamma_off_one_at_minus_one_raises(self, monkeypatch):
        # 2a + a^2 is not a unit, and is -1 at a = -1
        gamma = slopecert.homfly.GammaResult(LaurentPoly({1: 2, 2: 1}), LaurentPoly({0: 2, 1: 1}))
        monkeypatch.setattr(slopecert.certify, "gamma_positive", lambda w: gamma)
        with pytest.raises(CertificateError, match=r"^knot normalization Gamma\(-1\) = 1 fails$"):
            certify_slope(2, 1)

    def test_a_negative_normalized_coefficient_raises(self, monkeypatch):
        # the trefoil's gamma, which passes the two checks before, with a
        # normalized form that has a negative coefficient
        gamma = slopecert.homfly.GammaResult(LaurentPoly({1: -2, 2: -1}), LaurentPoly({0: 2, 1: -1}))
        monkeypatch.setattr(slopecert.certify, "gamma_positive", lambda w: gamma)
        with pytest.raises(CertificateError, match="^normalized polynomial has a negative coefficient$"):
            certify_slope(2, 1)

    def test_an_oracle_disagreement_raises(self, monkeypatch):
        # the oracle is consulted only with verify_oracle
        monkeypatch.setattr(slopecert.certify, "zeroth_gamma", lambda poly: LaurentPoly({1: -3, 2: -2}))
        assert certify_slope(2, 1).gamma_cr == LaurentPoly({1: -2, 2: -1})
        with pytest.raises(CertificateError, match="^fast engine disagrees with the skein oracle$"):
            certify_slope(2, 1, verify_oracle=True)

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="other constructions"):
            certify_slope(1, 5)
        with pytest.raises(ValueError, match="other constructions"):
            certify_slope(0, 1)
        with pytest.raises(ValueError, match="lowest terms"):
            certify_slope(4, 2)
        with pytest.raises(ValueError):
            certify_slope(3, -2)

    def test_internal_identities_stored(self):
        cert = certify_slope(5, 2)
        assert cert.kb - cert.kg == cert.diff
        if cert.diff_nonzero_reason == REASON_GENUS:
            assert cert.genus >= 1
        else:
            assert cert.gamma_cr_is_unit is False

    def test_verify_oracle_route(self):
        cert = certify_slope(2, 1, verify_oracle=True)
        assert cert.diff_nonzero_reason == REASON_DIRECT

    def test_gamma_budget_gates_direct_route(self):
        cert = certify_slope(2, 1, gamma_budget=0)
        assert cert.gamma_cr is None
        assert cert.diff_nonzero_reason == REASON_GENUS
        assert cert.genus >= 1

    def test_s_start_gives_alternate_certificate(self):
        cert = certify_slope(2, 1, s_start=3, verify_oracle=True)
        assert (cert.params.r, cert.params.s, cert.params.t) == (5, 3, 12)
        assert cert.genus == 4
        assert cert.gamma_cr == LaurentPoly({4: 7, 5: 8, 6: 2})

    def test_direct_route_on_non_simple_cables(self):
        # cables on which some pair of strands crosses more than once; a
        # breadth-first square search once gave up on each of them
        for p, q in ((3, 2), (3, 4), (2, 5), (3, 5)):
            cert = certify_slope(p, q, gamma_budget=80)
            assert cert.diff_nonzero_reason == REASON_DIRECT
            assert cert.gamma_cr_is_unit is False

    def test_larger_slopes_use_genus_route(self):
        for p, q in ((7, 5), (11, 4)):
            cert = certify_slope(p, q)
            assert cert.diff_nonzero_reason == REASON_GENUS
            assert cert.genus >= 1
            assert len(cert.braid.letters) > 100

    def test_determinism(self):
        a = certify_slope(3, 1).to_json()
        b = certify_slope(3, 1).to_json()
        assert a == b
        obj = json.loads(a)
        assert obj["schema_version"] == 1
        assert obj["slope"] == {"p": 3, "q": 1}

    def test_json_fields(self):
        obj = certify_slope(2, 1).to_obj()
        assert obj["braid"] == "2: 1 1 1"
        assert obj["params"] == {"p": 2, "q": 1, "r": 3, "s": 2, "t": 4}
        assert obj["induced_slopes"] == [[2, 1], [4, 1], [20, 1]]
        assert obj["gamma_cr"] == [[1, -2], [2, -1]]
        assert obj["diff_nonzero_reason"] == REASON_DIRECT
        assert obj["genus"] == 1
        # every polynomial row is [h, c, pairs]
        for row in obj["kb"]:
            assert len(row) == 3

    @pytest.mark.parametrize("slope", [(2, 1), (5, 2), (101, 2)])
    def test_to_json_writes_to_obj(self, slope):
        # to_json writes the polynomials straight from the ring values;
        # to_obj converts them to the lists it writes
        cert = certify_slope(*slope)
        assert cert.to_json() == json.dumps(cert.to_obj(), sort_keys=True, indent=2) + "\n"
        assert cert.to_json() == _json_text(cert.to_obj())


class TestRingWorkIsPinned:
    """Both skein trees of a slope are one DAG with one value per distinct
    pattern, and each edge's weight is a shift by a power of -a: the 7
    skein weights -a and the 4 linking weights (a + 1)(-a)^(lk-1) multiply
    nothing. So a certificate takes a fixed number of SkeinElem products:
    4, the linking nodes' x * y. ``difference`` shifts a fixed template
    and multiplies nothing."""

    def test_skein_products_of_one_certificate(self, monkeypatch):
        products = []
        multiply = SkeinElem.__dict__["__mul__"]

        def counted(a, b):
            products.append((a, b))
            return multiply(a, b)

        monkeypatch.setattr(SkeinElem, "__mul__", counted)
        monkeypatch.setattr(SkeinElem, "__rmul__", counted)
        certify_slope(3, 2)
        assert len(products) == 4


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-(10**30), 10**30) | st.text(),
    lambda children: st.lists(children, max_size=5)
    | st.dictionaries(st.text() | st.just("mirror_of"), children, max_size=5),
    max_leaves=40,
)


big_ints = st.integers(-(10**30), 10**30)
laurent_values = st.dictionaries(big_ints, big_ints | st.integers(-2, 2), max_size=6).map(LaurentPoly)
skein_values = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 10**30)), laurent_values, max_size=4
).map(SkeinElem)
pair_entries = st.lists(big_ints | st.booleans() | st.none() | st.text(max_size=2), min_size=1, max_size=3)
pair_lists = st.lists(st.lists(big_ints, min_size=2, max_size=2) | pair_entries, max_size=5)
polynomial_values = st.recursive(
    laurent_values | skein_values | pair_lists | big_ints | st.booleans(),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=4), children, max_size=4),
    max_leaves=12,
)


def json_form(v):
    """``v`` with each polynomial replaced by its to_pairs() or to_rows() list."""
    if isinstance(v, LaurentPoly):
        return v.to_pairs()
    if isinstance(v, SkeinElem):
        return v.to_rows()
    if type(v) is list:
        return [json_form(x) for x in v]
    if type(v) is dict:
        return {k: json_form(x) for k, x in v.items()}
    return v


class TestJsonText:
    @settings(derandomize=True, max_examples=150, deadline=None, database=None)
    @given(json_values)
    @example({"mirror_of": "-5/2", "braid": "2: 1 1 1", "gamma_cr": None, "gamma_cr_is_unit": False})
    @example([1, [2, [], {}], -3])
    @example([[1], 2, "x", True, None])
    @example({"\u00e9\x00\n\"\\\u2028": [-(2**70), 2**70]})
    def test_equals_json_dumps(self, v):
        assert _json_text(v) == json.dumps(v, sort_keys=True, indent=2) + "\n"

    @settings(derandomize=True, max_examples=150, deadline=None, database=None)
    @given(polynomial_values)
    @example([LaurentPoly.zero(), SkeinElem.zero(), []])
    @example({"gamma_cr": LaurentPoly({-(10**30): 10**30, 0: -1}), "kb": SkeinElem({(0, 2): LaurentPoly({1: -1})})})
    @example([[1, True], [2, 3]])
    @example([[True, 1]])
    @example([[1, 2], [3, "x"]])
    @example([[1, 2], [3, None], [4]])
    def test_polynomials_and_pair_lists_equal_json_dumps(self, v):
        # polynomials and lists of two-int lists are written flat, with the
        # text json.dumps writes for their to_pairs()/to_rows() lists
        assert _json_text(v) == json.dumps(json_form(v), sort_keys=True, indent=2) + "\n"

    @pytest.mark.parametrize("v", [1.5, (1, 2), {1: 2}, [b"x"]])
    def test_a_type_no_certificate_holds_raises(self, v):
        with pytest.raises(TypeError):
            _json_text(v)


class TestParseSlope:
    def test_forms(self):
        assert parse_slope("3/2") == (3, 2)
        assert parse_slope("7") == (7, 1)
        assert parse_slope("-3/2") == (-3, 2)
        assert parse_slope("3/-2") == (-3, 2)

    def test_rejects(self):
        with pytest.raises(ValueError):
            parse_slope("3/0")
        with pytest.raises(ValueError):
            parse_slope("")

    @pytest.mark.parametrize("text", ["abc", "2.5", "10**3", "3/2/1"])
    def test_an_unparsable_slope_is_named(self, text, capsys):
        message = f"invalid slope {text!r}: a slope is P/Q or an integer P"
        with pytest.raises(ValueError) as info:
            parse_slope(text)
        assert str(info.value) == message
        assert main(["certify", f"--slope={text}"]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert batch([text]).summary_lines()[0] == f"FAIL slope {text}: {message}"

    @pytest.mark.parametrize(
        "text, slope",
        [("1_000/7", (1000, 7)), ("+5/2", (5, 2)), ("3 /2", (3, 2)), (" -3 / -2 ", (3, 2))],
        ids=["grouped", "plus", "space", "signs"],
    )
    def test_int_literal_forms_parse(self, text, slope):
        assert parse_slope(text) == slope

    @needs_digit_limit
    @pytest.mark.parametrize(
        "text, part, digits",
        [
            ("2/1" + "0" * 4400 + "1", "denominator", 4402),
            ("1" + "_0" * 4400 + "/3", "numerator", 4401),
            ("1" * 4301 + "/" + "2" * 4302, "numerator", 4301),
        ],
        ids=["denominator", "grouped-numerator", "both"],
    )
    def test_a_part_past_the_digit_limit_is_named(self, text, part, digits, capsys):
        message = (
            f"invalid slope {text[:32]!r}... ({len(text)} characters): its {part} has {digits}"
            " digits, more than Python's int() limit of 4300"
        )
        with pytest.raises(ValueError) as info:
            parse_slope(text)
        assert str(info.value) == message
        assert main(["certify", "--slope", text]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        label = f"{text[:32]}... ({len(text)} characters)"
        assert batch([text]).summary_lines()[0] == f"FAIL slope {label}: {message}"

    def test_a_long_unparsable_text_is_quoted_by_its_start(self):
        text = "x" * 99_999 + "/"
        (line, _) = batch([text]).summary_lines()
        assert line == (
            f"FAIL slope {'x' * 32}... (100000 characters): invalid slope {'x' * 32!r}..."
            " (100000 characters): a slope is P/Q or an integer P"
        )
        assert len(line) < 300


# each reader of outside text, with an input whose error once quoted it
# whole, and the text that the error quotes
LONG_INPUTS = {
    "parse-no-colon": (BraidWord.parse, "x" * 5000, "x" * 5000),
    "parse-strand-count": (BraidWord.parse, "y" * 5000 + ": 1", "y" * 5000),
    "parse-letter": (BraidWord.parse, "3: " + "x" * 5000, "x" * 5000),
    "parse-generator": (BraidWord.parse, "3: " + "1" * 4000, "1" * 4000),
    "pairs-field": (LaurentPoly.from_pairs, [["x" * 5000, 1]], repr(["x" * 5000, 1])),
    "pairs-length": (LaurentPoly.from_pairs, [[1] * 5000], repr([1] * 5000)),
    "rows-length": (SkeinElem.from_rows, [[0] * 5000], repr([0] * 5000)),
}


@pytest.mark.parametrize("read, value, quoted", LONG_INPUTS.values(), ids=LONG_INPUTS)
def test_a_reader_quotes_a_long_input_by_its_start_and_length(read, value, quoted):
    with pytest.raises(ValueError) as info:
        read(value)
    message = str(info.value)
    assert len(message) < 200
    assert quoted[:32] in message
    assert f"({len(quoted)} characters)" in message


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(st.integers(0, 10**80) | st.integers(0, 40).map(lambda k: 10**k) | st.integers(1, 40).map(lambda k: 10**k - 1))
def test_a_count_is_written_whole_or_by_its_first_32_digits(n):
    text = str(n)
    assert digits(n) == digits(-n) == len(text)
    assert count_text(n) == (text if len(text) <= 32 else f"{text[:32]}... ({len(text)} digits)")


class TestBatch:
    def test_three_good_slopes(self):
        report = batch(["2/1", "3/1", "5/1"])
        assert report.all_ok
        assert len(report.entries) == 3
        assert report.summary_lines()[-1] == "3/3 slopes certified"

    def test_empty(self):
        report = batch([])
        assert report.all_ok
        assert report.summary_lines() == ["0/0 slopes certified"]

    def test_rejection_recorded_not_fatal(self):
        report = batch(["1/1", "2/1"])
        assert not report.all_ok
        assert report.entries[0].error is not None
        assert report.entries[1].ok

    def test_tuple_input(self):
        report = batch([(2, 1)])
        assert report.all_ok

    @pytest.mark.parametrize(
        "item, label",
        [
            ((3,), "(3,)"),
            ((3, 2, 1), "(3, 2, 1)"),
            (("3", "2"), "('3', '2')"),
            ((3.0, 2), "(3.0, 2)"),
            ((1,) * 50, repr((1,) * 50)[:32] + "... (150 characters)"),
        ],
    )
    def test_an_item_that_is_not_a_pair_of_ints_is_recorded(self, item, label):
        bad, good = batch([item, (2, 1)]).entries
        assert (bad.slope, bad.ok, good.ok) == (label, False, True)
        assert bad.error == f"tuple {label} is not a slope: give 'P/Q', 'P' or a pair of ints"

    def test_tuple_slopes_normalise_like_text(self):
        def fields(report):
            return [(e.slope, e.mirror_of, e.ok, e.error) for e in report.entries]

        assert fields(batch([(5, -2), (-5, -2), (3, 0)])) == fields(batch(["5/-2", "-5/-2", "3/0"]))

    def test_direct_route_batch(self):
        report = batch(["3/2", "5/2"], gamma_budget=40)
        assert report.all_ok
        assert [e.certificate.diff_nonzero_reason for e in report.entries] == [REASON_DIRECT] * 2

    def test_negative_slope_is_certified_as_its_mirror(self):
        report = batch(["-5/2", (-3, 1), "-1/2"])
        first, second, third = report.entries
        assert first.ok and second.ok
        assert (first.mirror_of, second.mirror_of) == ("-5/2", "-3/1")
        assert first.certificate.to_json() == certify_slope(5, 2).to_json()
        assert second.certificate.to_json() == certify_slope(3, 1).to_json()
        assert not third.ok
        assert "outside the working range" in third.error

    def test_slope_too_large_to_build_is_recorded(self):
        report = batch(["99999999999999999999/7", "2/1"])
        assert [e.ok for e in report.entries] == [False, True]
        assert "too long to build" in report.entries[0].error

    def test_cable_too_large_for_memory_is_recorded(self, cable_never_built):
        # 5.0e17 letters: below sys.maxsize, but more 8-byte slots than memory
        report = batch(["2/1000003"])
        assert report.summary_lines()[0].endswith("letters is too long to build")

    def test_a_long_parsed_slope_is_labelled_by_its_start(self):
        text = "2/1" + "0" * 3000 + "1"
        (line, _) = batch([text]).summary_lines()
        (entry,) = batch(["-" + text]).entries
        assert line.startswith(f"FAIL slope 2/1{'0' * 29}... (3004 characters): cable word of ")
        assert line.endswith(" letters is too long to build")
        assert (entry.slope, entry.mirror_of) == (
            f"2/1{'0' * 29}... (3004 characters)",
            f"-2/1{'0' * 28}... (3005 characters)",
        )

    @pytest.mark.parametrize(
        "text, label",
        [
            ("\x1b[2Jx/1", "'\\x1b[2Jx/1'"),
            ("3/\x002", "'3/\\x002'"),
            ("\x07" * 40, repr("\x07" * 32) + "... (40 characters)"),
            ("x/1", "x/1"),
        ],
        ids=["escape", "nul", "long", "printable"],
    )
    def test_a_text_that_is_not_printable_is_labelled_by_its_repr(self, text, label):
        # a terminal escape in a slopes file is never written to the report
        # as it is; a printable label stays as it is
        (entry,) = batch([text]).entries
        assert entry.slope == label
        assert entry.error.startswith(f"invalid slope {clip(text, repr)}: ")

    def test_a_long_letter_count_is_quoted_by_its_start(self):
        # the count has 4,300 digits, so it could be written whole; it is
        # quoted by its first 32 and its digit count instead
        (entry,) = batch([(10**4299, 1)]).entries
        assert entry.error == f"cable word of 1{'9' * 31}... (4300 digits) letters is too long to build"
        assert len(entry.error) < 200

    def test_out_of_memory_building_the_cable_is_recorded(self, cable_out_of_memory):
        report = batch(["3/2"])
        assert report.summary_lines()[0] == (
            "FAIL slope 3/2: cable_braid: out of memory building a cable word of 37 letters"
        )

    def test_out_of_memory_in_the_engine_is_recorded(self, engine_out_of_memory):
        report = batch(["3/2", "2/1"], gamma_budget=40)
        assert report.summary_lines()[0] == (
            "FAIL slope 3/2: gamma_positive: out of memory on a word of 37 letters on 6 strands"
        )
        # the batch goes on, and the memo that filled memory is emptied
        assert report.summary_lines()[1] == (
            "FAIL slope 2/1: gamma_positive: out of memory on a word of 3 letters on 2 strands"
        )
        assert engine_out_of_memory == {}

    @needs_digit_limit
    def test_an_int_too_long_to_write_is_recorded(self):
        big = 10**5000
        pair, den, both, single, good = batch([(big, 7), (7, -big), (-big, 10**4300), (big,), (2, 1)]).entries
        assert (pair.slope, pair.ok) == ("<int of 16610 bits>/7", False)
        # named as parse_slope names a part past the limit of 4300 digits
        limit = "more than Python's int() limit of 4300"
        assert pair.error == f"invalid slope <int of 16610 bits>/7: its numerator has 5001 digits, {limit}"
        assert den.error == f"invalid slope 7/<int of 16610 bits>: its denominator has 5001 digits, {limit}"
        assert both.error.endswith(f": its numerator has 5001 digits, {limit}")
        assert (single.slope, single.ok) == ("(<int of 16610 bits>,)", False)
        assert single.error == "tuple (<int of 16610 bits>,) is not a slope: give 'P/Q', 'P' or a pair of ints"
        assert good.ok

    def test_a_failed_check_is_recorded(self, gamma_is_a_unit):
        report = batch(["2/1"])
        assert report.summary_lines()[0] == "FAIL slope 2/1: cable polynomial is a unit; cannot certify"

    def test_a_cable_deeper_than_the_recursion_limit_passes(self, too_deep_slope):
        slope, budget = too_deep_slope
        (entry,) = batch([slope], gamma_budget=budget).entries
        assert entry.ok
        assert entry.certificate.braid.strands == 2
        assert entry.certificate.diff_nonzero_reason == REASON_DIRECT

    def test_verdict_does_not_depend_on_slope_order(self):
        slopecert.homfly.clear_caches()
        (alone,) = batch(["1100/1"], gamma_budget=2200).entries
        slopecert.homfly.clear_caches()
        _, after = batch(["700/1", "1100/1"], gamma_budget=2200).entries
        assert alone.ok and after.ok
        assert alone.certificate.to_json() == after.certificate.to_json()

    def test_engine_errors_recorded_not_fatal(self, monkeypatch):
        real = slopecert.certify.gamma_positive
        errors = iter([ValueError("no square found"), CertificateError("word too long")])

        def failing_twice(w, *args, **kwargs):
            error = next(errors, None)
            if error is not None:
                raise error
            return real(w, *args, **kwargs)

        monkeypatch.setattr(slopecert.certify, "gamma_positive", failing_twice)
        report = batch(["2/1", "3/1", "5/2"])
        assert [e.ok for e in report.entries] == [False, False, True]
        assert report.summary_lines()[:2] == [
            "FAIL slope 2/1: no square found",
            "FAIL slope 3/1: word too long",
        ]


class TestCli:
    def test_certify_json(self, tmp_path, capsys):
        out = tmp_path / "cert.json"
        code = main(["certify", "--slope", "2/1", "--json", str(out), "--verify-oracle"])
        assert code == 0
        obj = json.loads(out.read_text())
        assert obj["slope"] == {"p": 2, "q": 1}
        assert obj["mirror_of"] is None
        assert "genus 1" in capsys.readouterr().out

    def test_negative_slope_mirrors(self, tmp_path, capsys):
        out = tmp_path / "cert.json"
        code = main(["certify", "--slope=-2/1", "--json", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["mirror_of"] == "-2/1"
        assert "mirror" in capsys.readouterr().out

    @pytest.mark.parametrize("slope", ["--slope=2/1", "--slope=-2/1"])
    def test_json_to_stdout_is_json_alone(self, slope, capsys):
        assert main(["certify", slope, "--json", "-"]) == 0
        captured = capsys.readouterr()
        obj = json.loads(captured.out)
        assert captured.out == json.dumps(obj, sort_keys=True, indent=2) + "\n"
        assert obj["slope"] == {"p": 2, "q": 1}
        assert "genus 1" in captured.err
        assert ("mirror" in captured.err) == (obj["mirror_of"] is not None)

    def test_slope_too_large_to_build_is_an_error_line(self, capsys):
        assert main(["certify", "--slope=99999999999999999999/7"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cable word of ")
        assert err.rstrip().endswith("letters is too long to build")

    def test_cable_too_large_for_memory_is_an_error_line(self, cable_never_built, capsys):
        assert main(["certify", "--slope", "2/1000003"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cable word of ")
        assert err.rstrip().endswith("letters is too long to build")

    def test_out_of_memory_is_an_error_line(self, cable_out_of_memory, capsys):
        assert main(["certify", "--slope", "3/2", "--s-start", "1000"]) == 1
        err = capsys.readouterr().err
        assert err.rstrip() == (
            "error: cable_braid: out of memory building a cable word of 6006001 letters"
        )

    def test_out_of_memory_in_the_engine_is_an_error_line(self, engine_out_of_memory, capsys):
        assert main(["certify", "--slope", "3/2", "--gamma-budget", "40"]) == 1
        assert capsys.readouterr().err == (
            "error: gamma_positive: out of memory on a word of 37 letters on 6 strands\n"
        )

    @needs_digit_limit
    def test_a_letter_count_too_long_to_write_is_too_long_to_build(self, capsys):
        # the cable of 2/(10**3001 + 1) has more than 4,300 digits of letters
        assert main(["certify", "--slope", "2/1" + "0" * 3000 + "1"]) == 1
        err = capsys.readouterr().err
        assert err == f"error: cable word of 5{'0' * 31}... (9003 digits) letters is too long to build\n"

    def test_a_failed_check_is_an_error_line(self, gamma_is_a_unit, capsys):
        assert main(["certify", "--slope", "2/1"]) == 1
        assert capsys.readouterr().err == "error: cable polynomial is a unit; cannot certify\n"

    def test_a_cable_deeper_than_the_recursion_limit_exits_0(self, too_deep_slope):
        slope, budget = too_deep_slope
        done = subprocess.run(
            [sys.executable, "-m", "slopecert", "certify", "--slope", slope,
             "--gamma-budget", str(budget)],
            env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True, text=True,
        )
        assert done.returncode == 0
        assert "reason: direct-gamma-non-unit" in done.stdout
        assert "Traceback" not in done.stderr

    def test_batch_help_describes_the_shared_options(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["batch", "--help"])
        assert exit_info.value.code == 0
        out = " ".join(capsys.readouterr().out.split())
        assert "run the direct polynomial route only up to this many crossings" in out

    def test_out_of_range_slope_fails(self, capsys):
        code = main(["certify", "--slope", "1/2"])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_batch_exit_codes(self, tmp_path, capsys):
        slopes = tmp_path / "slopes.txt"
        slopes.write_text("# demo slopes\n2/1\n5/2\n")
        assert main(["batch", "--slopes", str(slopes)]) == 0
        slopes.write_text("2/1\n1/1\n")
        assert main(["batch", "--slopes", str(slopes)]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out

    def test_batch_labels_a_slope_that_is_not_printable_by_its_repr(self, tmp_path, capsys):
        slopes = tmp_path / "slopes.txt"
        slopes.write_text("\x1b[2Jx/1\n2/1\n")
        assert main(["batch", "--slopes", str(slopes)]) == 1
        out = capsys.readouterr().out
        assert "\x1b" not in out
        assert out.splitlines()[0].startswith("FAIL slope '\\x1b[2Jx/1': invalid slope '\\x1b[2Jx/1': ")

    def test_batch_json_dir(self, tmp_path):
        slopes = tmp_path / "slopes.txt"
        slopes.write_text("2/1\n")
        outdir = tmp_path / "certs"
        assert main(["batch", "--slopes", str(slopes), "--json-dir", str(outdir)]) == 0
        assert (outdir / "certificate_2_1.json").exists()

    def test_certify_unwritable_json_is_an_error_line(self, tmp_path, capsys):
        out = tmp_path / "no" / "such" / "cert.json"
        assert main(["certify", "--slope", "3/2", "--json", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {out}")
        assert not out.parent.exists()

    def test_batch_unwritable_json_dir_is_an_error_line(self, tmp_path, capsys):
        slopes = tmp_path / "slopes.txt"
        slopes.write_text("2/1\n")
        outdir = slopes / "sub"  # a directory under a regular file
        assert main(["batch", "--slopes", str(slopes), "--json-dir", str(outdir)]) == 1
        assert capsys.readouterr().err.startswith(f"error: cannot write {outdir}")

    def test_batch_non_utf8_slopes_file_is_an_error_line(self, tmp_path, capsys):
        slopes = tmp_path / "slopes.txt"
        slopes.write_bytes(b"\xff\xfe5/2\n")
        assert main(["batch", "--slopes", str(slopes)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: cannot read {slopes}")
        assert "Traceback" not in captured.err

    def test_batch_slopes_file_may_start_with_a_bom(self, tmp_path, capsys):
        slopes = tmp_path / "slopes.txt"
        slopes.write_bytes(b"\xef\xbb\xbf2/1\n3/1\n")
        assert main(["batch", "--slopes", str(slopes)]) == 0
        assert "2/2 slopes certified" in capsys.readouterr().out

    def test_batch_keeps_a_slope_and_its_mirror_apart(self, tmp_path):
        slopes = tmp_path / "slopes.txt"
        slopes.write_text("5/2\n-5/2\n")
        outdir = tmp_path / "certs"
        assert main(["batch", "--slopes", str(slopes), "--json-dir", str(outdir)]) == 0
        plain = json.loads((outdir / "certificate_5_2.json").read_text())
        mirrored = (outdir / "certificate_5_2_mirror.json").read_text()
        assert plain["mirror_of"] is None
        assert json.loads(mirrored) == {**plain, "mirror_of": "-5/2"}
        single = tmp_path / "cert.json"
        assert main(["certify", "--slope=-5/2", "--json", str(single)]) == 0
        assert single.read_text() == mirrored
