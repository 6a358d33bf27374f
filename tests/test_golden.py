"""Certificates for the five acceptance slopes, checked byte for byte.

Each file under ``golden/`` holds ``certify_slope(p, q).to_json()``. A
change that alters any certificate byte must be deliberate, and must
rewrite these files with it.
"""

from pathlib import Path

import pytest

from slopecert.certify import certify_slope

GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize("p, q", [(2, 1), (3, 1), (5, 1), (3, 2), (5, 2)])
def test_certificate_is_byte_identical_to_golden(p, q):
    expected = (GOLDEN / f"certificate_{p}_{q}.json").read_bytes()
    assert certify_slope(p, q).to_json().encode() == expected
