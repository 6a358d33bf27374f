"""Shared generators for the randomized tests, and a fixture that keeps
huge cables from being built. Everything is seeded by the caller, or
derandomized by hypothesis, so failures reproduce."""

from math import gcd

import pytest
from hypothesis import strategies as st

import slopecert.braid
from slopecert.braid import BraidWord, closure_labels
from slopecert.surgery import SlopeParams, choose_params


def extended_gcd(a, b):
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        k = old_r // r
        old_r, r = r, old_r - k * r
        old_x, x = x, old_x - k * x
        old_y, y = y, old_y - k * y
    return old_r, old_x, old_y


def random_gluing_tuple(rng, bound=50):
    """Random (p, q, r, s) with p*s - q*r = 1 and all entries within bound."""
    while True:
        p = rng.randint(-bound, bound)
        q = rng.randint(-bound, bound)
        if (p, q) == (0, 0) or gcd(p, q) != 1:
            continue
        g, x, y = extended_gcd(p, q)
        if g == -1:
            x, y = -x, -y
        # p*x + q*y = 1, so (r, s) = (-y + k*p, x + k*q) for any k
        ks = list(range(-80, 81))
        rng.shuffle(ks)
        for k in ks:
            r = -y + k * p
            s = x + k * q
            if abs(r) <= bound and abs(s) <= bound:
                return p, q, r, s
        # no in-range completion found; retry with a fresh (p, q)


def random_valid_params(rng, max_p=7, max_q=5) -> SlopeParams:
    """Random working-range parameter tuple via the production selector."""
    while True:
        p = rng.randint(2, max_p)
        q = rng.randint(1, max_q)
        if gcd(p, q) == 1:
            params, _ = choose_params(p, q, s_start=rng.randint(1, 3))
            return params


@st.composite
def slope_params(draw, max_p=9, max_q=4, solutions=3):
    """A valid tuple with 2 <= p <= max_p, q <= max_q and s among the first
    ``solutions`` solutions of p*s - q*r = 1. The defaults keep cables under
    3,300 letters."""
    q = draw(st.integers(1, max_q))
    p = draw(st.integers(2, max_p).filter(lambda p: gcd(p, q) == 1))
    s = (pow(p, -1, q) or q) + draw(st.integers(0, solutions - 1)) * q
    r = (p * s - 1) // q
    return SlopeParams(p=p, q=q, r=r, s=s, t=-s * (1 - q * r))


def exponent_sum(letters) -> int:
    """The sign sum of a braid word's letters."""
    return sum(1 if x > 0 else -1 for x in letters)


def knot_word(n, letters) -> bytes:
    """The positive word ``letters`` on n strands as ``bytes``, followed by
    each generator g, in turn, whose strands g-1 and g lie on two closure
    components: each such letter joins them, so the closure is a knot."""
    word = bytes(letters)
    for g in range(1, n):
        labels = closure_labels(n, word)
        if labels[g - 1] != labels[g]:
            word += bytes((g,))
    return word


def random_word(rng, max_strands=4, max_letters=8, positive=False) -> BraidWord:
    n = rng.randint(2, max_strands)
    length = rng.randint(1, max_letters)
    letters = []
    for _ in range(length):
        g = rng.randint(1, n - 1)
        letters.append(g if positive or rng.random() < 0.5 else -g)
    return BraidWord(n, tuple(letters))


@pytest.fixture
def cable_never_built(monkeypatch):
    """Building any cable with s >= 2 fails the test, so a slope whose cable
    would not fit in memory is never started."""

    def unexpected(*args):
        pytest.fail("a cable word was built")

    monkeypatch.setattr(slopecert.braid, "_bundle_swap", unexpected)
