"""Gluing-matrix calculus for rational surgery slopes.

A surgery gluing is an SL(2,Z) matrix whose columns are the images of the
meridian and longitude. The dual and double-dual maps below express, in
Seifert-framed coordinates, the gluings that undo and redo a surgery; the
upper-triangular correction factors are surface-framing offsets of cables
(an (r, s) curve on a torus inherits the r*s framing from the torus).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from . import braid

OUT_OF_RANGE_MESSAGE = (
    "slope {p}/{q} is outside the working range: this construction needs p > 1; "
    "slopes with |p| <= 1 are covered by other constructions and are not handled here"
)


@dataclass(frozen=True)
class GluingMatrix:
    a11: int
    a12: int
    a21: int
    a22: int

    def __post_init__(self):
        if self.det != 1:
            raise ValueError(f"gluing matrix must have determinant 1, got {self.det}")

    @property
    def det(self) -> int:
        return self.a11 * self.a22 - self.a12 * self.a21

    def __matmul__(self, other: "GluingMatrix") -> "GluingMatrix":
        return GluingMatrix(
            self.a11 * other.a11 + self.a12 * other.a21,
            self.a11 * other.a12 + self.a12 * other.a22,
            self.a21 * other.a11 + self.a22 * other.a21,
            self.a21 * other.a12 + self.a22 * other.a22,
        )

    def inverse(self) -> "GluingMatrix":
        return GluingMatrix(self.a22, -self.a12, -self.a21, self.a11)

    def rows(self):
        return [[self.a11, self.a12], [self.a21, self.a22]]


@dataclass(frozen=True)
class SlopeParams:
    """Integer tuple (p, q, r, s, t) describing one certified slope.

    p/q is the surgery slope; (r, s) completes p/q to a determinant-1
    matrix; t is the cabling parameter -s*(1 - q*r) of the companion knot.
    """

    p: int
    q: int
    r: int
    s: int
    t: int

    def __post_init__(self):
        if self.p <= 1 or self.q < 1:
            raise ValueError("working range is p > 1, q >= 1")
        if gcd(self.p, self.q) != 1:
            raise ValueError("p and q must be coprime")
        if self.p * self.s - self.q * self.r != 1:
            raise ValueError("need p*s - q*r = 1")
        if self.s < 1:
            raise ValueError("need s >= 1")
        if self.t != -self.s * (1 - self.q * self.r):
            raise ValueError("t must equal -s*(1 - q*r)")

    def matrix(self) -> GluingMatrix:
        return GluingMatrix(self.p, self.r, self.q, self.s)

    def to_obj(self) -> dict:
        return {"p": self.p, "q": self.q, "r": self.r, "s": self.s, "t": self.t}


def dual_gluing(A: GluingMatrix) -> GluingMatrix:
    """Gluing map of the dual knot in Seifert-framed coordinates: Z A^-1,
    with the surface-framing correction Z = [[1, r*s], [0, 1]].

    For A = [[p, r], [q, s]], Z A^-1 = [[s(1-qr), r(ps-1)], [-q, p]], and
    r(ps-1) = qr^2 + r(ps-qr-1) = qr^2 since ps - qr = det A = 1. So this
    returns [[s(1-qr), qr^2], [-q, p]], and no caller re-checks the product.
    """
    p, r, q, s = A.a11, A.a12, A.a21, A.a22
    return GluingMatrix(s * (1 - q * r), q * r * r, -q, p)


def double_dual_gluing(A: GluingMatrix) -> GluingMatrix:
    """Gluing map of the double dual knot in Seifert-framed coordinates:
    Z' A with Z' = [[1, pqr^2], [0, 1]], which is
    [[p(1 + q^2 r^2), r(1 + pqrs)], [q, s]] over Z[p, q, r, s], with no
    hypothesis, so no caller re-checks the product.
    """
    p, r, q, s = A.a11, A.a12, A.a21, A.a22
    return GluingMatrix(p * (1 + q * q * r * r), r * (1 + p * q * r * s), q, s)


def induced_slopes(params: SlopeParams):
    """Framings of the knot, its dual, and its double dual, viewed as a
    3-component link: (p/q, t/q, p*(1+q^2 r^2)/q)."""
    p, q, r, t = params.p, params.q, params.r, params.t
    return (Fraction(p, q), Fraction(t, q), Fraction(p * (1 + q * q * r * r), q))


def choose_params(p: int, q: int, s_start: int = 1) -> tuple[SlopeParams, braid.BraidWord]:
    """Smallest completion of p/q whose companion cable knot is non-trivial,
    and the cable braid of that knot, the one cable this builds.

    The solutions of p*s - q*r = 1 are s = p^-1 mod q plus multiples of q.
    The selection rule: s is the least solution >= max(1, s_start), plus q
    when that least solution is s = 1 with q = 1 or p <= 3.

    Proof that the rule returns the least solution whose cable has Euler
    characteristic chi = n - e < 1, where the cable has n = q*s strands and
    e = q^2 r (s-1) + (q-1)((p-1)s - 1) letters:

    - s >= 2: then r >= 1 and e >= q^2 r = q(ps - 1) >= q(2s - 1) > qs = n,
      so chi < 0.
    - s = 1: e = (q-1)(p-2) letters on q strands, so 1 - chi = (q-1)(p-3),
      and chi < 1 fails exactly when q = 1 or p <= 3. The next solution,
      s = 1 + q >= 2, then passes by the first case.
    - s = 1 solves ps - qr = 1 only when q divides p - 1. With p <= 3 that
      leaves q = 1 and the slope 3/2, whose s = 1 cables close to the
      unknot (chi = 1).
    """
    if q < 1:
        raise ValueError("q must be at least 1 (normalize the sign into p)")
    if gcd(p, q) != 1:
        raise ValueError(f"{p}/{q} is not in lowest terms")
    if p <= 1:
        raise ValueError(OUT_OF_RANGE_MESSAGE.format(p=p, q=q))
    s = max(1, s_start)
    s += (pow(p, -1, q) - s) % q  # the least solution: s = p^-1 mod q
    if s == 1 and (q == 1 or p <= 3):
        s += q  # the s = 1 cable closes to the unknot
    r = (p * s - 1) // q
    params = SlopeParams(p=p, q=q, r=r, s=s, t=-s * (1 - q * r))
    return params, braid.cable_braid(params)
