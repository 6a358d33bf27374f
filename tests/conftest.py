"""Shared generators for the randomized tests. Everything is seeded by the
caller so failures reproduce."""

from math import gcd

from slopecert.braid import BraidWord
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


def random_word(rng, max_strands=4, max_letters=8, positive=False) -> BraidWord:
    n = rng.randint(2, max_strands)
    length = rng.randint(1, max_letters)
    letters = []
    for _ in range(length):
        g = rng.randint(1, n - 1)
        letters.append(g if positive or rng.random() < 0.5 else -g)
    return BraidWord(n, tuple(letters))
