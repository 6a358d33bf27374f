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

    def apply(self, vec) -> tuple:
        x, y = vec
        return (self.a11 * x + self.a12 * y, self.a21 * x + self.a22 * y)

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
    """Gluing map of the dual knot in Seifert-framed coordinates.

    Equals the surface-framing correction [[1, r*s], [0, 1]] times the
    inverse of A, which works out to [[s*(1-q*r), q*r*r], [-q, p]].
    """
    p, r, q, s = A.a11, A.a12, A.a21, A.a22
    return GluingMatrix(s * (1 - q * r), q * r * r, -q, p)


def double_dual_gluing(A: GluingMatrix) -> GluingMatrix:
    """Gluing map of the double dual knot in Seifert-framed coordinates.

    Equals [[1, p*q*r*r], [0, 1]] times A, which works out to
    [[p*(1+q^2 r^2), r*(1+p*q*r*s)], [q, s]].
    """
    p, r, q, s = A.a11, A.a12, A.a21, A.a22
    return GluingMatrix(p * (1 + q * q * r * r), r * (1 + p * q * r * s), q, s)


def induced_slopes(params: SlopeParams):
    """Framings of the knot, its dual, and its double dual, viewed as a
    3-component link: (p/q, t/q, p*(1+q^2 r^2)/q)."""
    p, q, r, s, t = params.p, params.q, params.r, params.s, params.t
    return (
        Fraction(p, q),
        Fraction(-s * (1 - q * r), q),
        Fraction(p * (1 + q * q * r * r), q),
    )


def choose_params(p: int, q: int, s_start: int = 1) -> tuple[SlopeParams, braid.BraidWord]:
    """Smallest completion of p/q whose companion cable knot is non-trivial,
    and the cable braid of that knot.

    Walks s upward from max(1, s_start) through the arithmetic progression
    solving p*s - q*r = 1 with integer r, and returns the first tuple whose
    cable braid closes to a knot of positive genus (Euler characteristic
    below 1). Small solutions can close to the unknot, which would make the
    certificate vacuous, so the genus test is part of the selection.
    """
    if q < 1:
        raise ValueError("q must be at least 1 (normalize the sign into p)")
    if gcd(p, q) != 1:
        raise ValueError(f"{p}/{q} is not in lowest terms")
    if p <= 1:
        raise ValueError(OUT_OF_RANGE_MESSAGE.format(p=p, q=q))
    s = max(1, s_start)
    while True:
        if (p * s - 1) % q == 0:
            r = (p * s - 1) // q
            t = -s * (1 - q * r)
            params = SlopeParams(p=p, q=q, r=r, s=s, t=t)
            w = braid.cable_braid(params)
            if braid.bennequin_euler_char(w) < 1:
                return params, w
            s += q  # later solutions differ by q
        else:
            s += 1
