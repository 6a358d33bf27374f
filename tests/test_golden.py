"""Certificates for the five acceptance slopes, checked byte for byte.

Each file under ``golden/`` holds ``certify_slope(p, q).to_json()``. A
change that alters any certificate byte must be deliberate, and must
rewrite these files with it. Long multi-strand cables, which the golden
files (q <= 2) do not reach, are pinned by the benchmark's committed
digests instead.
"""

import hashlib
import json
from pathlib import Path

import pytest

from slopecert.certify import certify_slope
from slopecert.poly import LaurentPoly, SkeinElem

GOLDEN = Path(__file__).resolve().parent / "golden"
DIGESTS = Path(__file__).resolve().parent.parent / "perfbench" / "digests.json"


@pytest.mark.parametrize("p, q", [(2, 1), (3, 1), (5, 1), (3, 2), (5, 2)])
def test_certificate_is_byte_identical_to_golden(p, q):
    expected = (GOLDEN / f"certificate_{p}_{q}.json").read_bytes()
    assert certify_slope(p, q).to_json().encode() == expected


@pytest.mark.parametrize("p, q", [(35, 12), (23, 12), (7, 5), (4, 3)])
def test_long_cable_certificate_matches_committed_digest(p, q):
    """35/12 is a cable of 50,183 letters on 132 strands; the digests are
    read, never written."""
    expected = json.loads(DIGESTS.read_text())["16"][f"{p}/{q}"]
    text = certify_slope(p, q, gamma_budget=16).to_json()
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == expected


@pytest.mark.parametrize("path", sorted(GOLDEN.glob("*.json")), ids=lambda path: path.name)
def test_polynomials_read_back_exactly(path):
    obj = json.loads(path.read_text())
    for key in ("kb", "kg", "diff"):
        assert SkeinElem.from_rows(obj[key]).to_rows() == obj[key]
    if obj["gamma_cr"] is not None:
        assert LaurentPoly.from_pairs(obj["gamma_cr"]).to_pairs() == obj["gamma_cr"]
