"""Exact arithmetic for the three polynomial rings behind the certificates.

All rings are dict-backed and sparse, with Python integers at the bottom of
every coefficient, so no precision is ever lost:

- ``LaurentPoly``: the ring Z[a^{+-1}] of one-variable Laurent polynomials.
  Zeroth-coefficient skein invariants live here, and "is this a unit" is
  the question the whole certificate hinges on.
- ``BiLaurent``: Z[v^{+-1}, z^{+-1}], home of the two-variable HOMFLYPT
  polynomial.
- ``SkeinElem``: polynomials in two formal indeterminates H and C with
  ``LaurentPoly`` coefficients. H and C stand in for two knot polynomials
  that the symbolic computation deliberately never evaluates.

The three share one sparse core, ``_Sparse``; each ring only names its unit
key, how keys add when monomials multiply, and which scalars it coerces.
Values are immutable after construction; every operation is a pure function
returning a new value, so results can be shared freely between tasks.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import Callable, Mapping, Optional, TypeVar, Union

_R = TypeVar("_R", bound="_Sparse")


def _gather(items, out: Optional[dict] = None) -> dict:
    """Accumulate (key, coeff) pairs into ``out`` (a new dict by default),
    dropping zero totals."""
    if out is None:
        out = {}
    for k, c in items:
        if k in out:
            c = out[k] + c
        if c:
            out[k] = c
        else:
            out.pop(k, None)
    return out


def _add_pairs(k1: tuple, k2: tuple) -> tuple:
    return (k1[0] + k2[0], k1[1] + k2[1])


class _Sparse:
    """Sparse polynomial: a mapping from monomial keys to nonzero coefficients.

    A ring declares ``_UNIT`` (the key of the monomial 1), ``_add_keys``
    (the key of a product of two monomials) and ``_SCALARS`` (the types
    coerced to constant polynomials). Instances are immutable and hashable;
    arithmetic returns new objects.
    """

    __slots__ = ("_terms", "_hash")
    _UNIT: object
    _SCALARS: tuple
    _add_keys: Callable

    def __init__(self, terms=None):
        if terms is None:
            self._terms = {}
        else:
            self._terms = _gather(terms.items() if isinstance(terms, Mapping) else terms)
        self._hash = None

    @classmethod
    def _wrap(cls: type[_R], terms: dict) -> _R:
        """Adopt an already gathered dict without copying or checking it."""
        out = cls.__new__(cls)
        out._terms = terms
        out._hash = None
        return out

    @classmethod
    def zero(cls: type[_R]) -> _R:
        return cls()

    @classmethod
    def one(cls: type[_R]) -> _R:
        return cls({cls._UNIT: 1})

    @classmethod
    def _coerce(cls: type[_R], x) -> _R:
        if isinstance(x, cls):
            return x
        if isinstance(x, cls._SCALARS):
            return cls({cls._UNIT: x})
        raise TypeError(f"cannot treat {type(x).__name__} as a {cls.__name__}")

    def items(self):
        """Terms as (key, coefficient) pairs in ascending key order."""
        return sorted(self._terms.items())

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __neg__(self: _R) -> _R:
        return self._wrap({k: -c for k, c in self._terms.items()})

    def __add__(self: _R, other) -> _R:
        other = self._coerce(other)
        return self._wrap(_gather(other._terms.items(), dict(self._terms)))

    __radd__ = __add__

    def __sub__(self: _R, other) -> _R:
        return self + (-self._coerce(other))

    def __rsub__(self: _R, other) -> _R:
        return self._coerce(other) + (-self)

    def __mul__(self: _R, other) -> _R:
        other = self._coerce(other)
        add_keys = self._add_keys
        # Accumulated in place: feeding _gather a generator of the term
        # products doubles the cost of the small products that dominate.
        prod: dict = {}
        for k1, c1 in self._terms.items():
            for k2, c2 in other._terms.items():
                k = add_keys(k1, k2)
                c = c1 * c2
                if k in prod:
                    c = prod[k] + c
                if c:
                    prod[k] = c
                else:
                    prod.pop(k, None)
        return self._wrap(prod)

    def __pow__(self: _R, n: int) -> _R:
        if not isinstance(n, int) or n < 0:
            raise ValueError("only nonnegative integer powers are supported")
        result = self.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, self._SCALARS):
            other = self._coerce(other)
        elif not isinstance(other, type(self)):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(tuple(self.items()))
        return self._hash

    def __repr__(self) -> str:
        return f"{type(self).__name__}({dict(self.items())!r})"


class LaurentPoly(_Sparse):
    """Sparse Laurent polynomial sum_e c_e * a^e with integer coefficients,
    keyed by the exponent e."""

    __slots__ = ()
    _UNIT = 0
    _SCALARS = (int,)
    _add_keys = operator.add
    # bound on each ring, not inherited, so a profiler that patches the
    # class's own __mul__ sees this ring's products only
    __mul__ = __rmul__ = _Sparse.__mul__

    @classmethod
    def monomial(cls, coeff: int, exp: int) -> "LaurentPoly":
        return cls({exp: coeff})

    def coeff(self, exp: int) -> int:
        return self._terms.get(exp, 0)

    def coefficients(self):
        """Coefficients in ascending-exponent order."""
        return [c for _, c in self.items()]

    def min_exp(self) -> int:
        if not self._terms:
            raise ValueError("zero polynomial has no exponents")
        return min(self._terms)

    def max_exp(self) -> int:
        if not self._terms:
            raise ValueError("zero polynomial has no exponents")
        return max(self._terms)

    def is_unit(self) -> bool:
        """True iff the value is +-a^k, the only invertible elements here."""
        if len(self._terms) != 1:
            return False
        (c,) = self._terms.values()
        return c in (1, -1)

    def evaluate(self, x) -> Fraction:
        """Exact evaluation at a nonzero rational point."""
        x = Fraction(x)
        if x == 0:
            raise ValueError("cannot evaluate at 0: negative exponents")
        total = Fraction(0)
        for e, c in self._terms.items():
            total += c * x**e
        return total

    def divexact(self, other: "LaurentPoly") -> "LaurentPoly":
        """Divide by ``other`` in Z[a^{+-1}], raising if not exact."""
        other = self._coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero():
            return LaurentPoly.zero()
        # Shift both operands into ordinary polynomials.
        av, bv = self.min_exp(), other.min_exp()
        da, db = self.max_exp() - av, other.max_exp() - bv
        if db > da:
            raise ValueError("not divisible: divisor degree too large")
        A = [0] * (da + 1)
        for e, c in self._terms.items():
            A[e - av] = c
        B = [0] * (db + 1)
        for e, c in other._terms.items():
            B[e - bv] = c
        Q = [0] * (da - db + 1)
        R = A[:]
        lead = B[db]
        for i in range(da - db, -1, -1):
            top = R[i + db]
            if top % lead != 0:
                raise ValueError("not divisible in Z[a^{+-1}]")
            qi = top // lead
            Q[i] = qi
            if qi:
                for j in range(db + 1):
                    R[i + j] -= qi * B[j]
        if any(R):
            raise ValueError("not divisible: nonzero remainder")
        return LaurentPoly({i + av - bv: c for i, c in enumerate(Q) if c})

    # Text form: terms "coeff*a^exp" in ascending exponent, joined by " + ".
    def __str__(self) -> str:
        if not self._terms:
            return "0"
        return " + ".join(f"{c}*a^{e}" for e, c in self.items())

    @classmethod
    def parse(cls, text: str) -> "LaurentPoly":
        """Inverse of ``str``: parse '(-2)*a^1 + ...' style term lists."""
        text = text.strip()
        if not text or text == "0":
            return cls.zero()
        pairs = []
        for chunk in text.split("+"):
            chunk = chunk.strip()
            if not chunk:
                continue
            coeff_s, sep, exp_s = chunk.partition("*a^")
            if not sep:
                raise ValueError(f"malformed Laurent term: {chunk!r}")
            pairs.append((int(exp_s), int(coeff_s)))
        return cls(pairs)

    def to_pairs(self):
        """JSON form: [exponent, coefficient] pairs, ascending exponent."""
        return [[e, c] for e, c in self.items()]

    @classmethod
    def from_pairs(cls, pairs) -> "LaurentPoly":
        return cls((int(e), int(c)) for e, c in pairs)


ALPHA = LaurentPoly({1: 1})
ONE_PLUS_INV_ALPHA = LaurentPoly({0: 1, -1: 1})


def neg_alpha_pow(k: int) -> LaurentPoly:
    """(-a)^k for any integer k."""
    return LaurentPoly({k: -1 if k % 2 else 1})


class BiLaurent(_Sparse):
    """Sparse integer Laurent polynomial in two variables v and z, keyed by
    the exponent pair (v_exp, z_exp)."""

    __slots__ = ()
    _UNIT = (0, 0)
    _SCALARS = (int,)
    _add_keys = staticmethod(_add_pairs)
    __mul__ = __rmul__ = _Sparse.__mul__

    @classmethod
    def monomial(cls, coeff: int, v_exp: int, z_exp: int) -> "BiLaurent":
        return cls({(v_exp, z_exp): coeff})

    def coeff(self, v_exp: int, z_exp: int) -> int:
        return self._terms.get((v_exp, z_exp), 0)

    def times_monomial(self, v_exp: int, z_exp: int, coeff: int = 1) -> "BiLaurent":
        return BiLaurent(
            {(v + v_exp, z + z_exp): c * coeff for (v, z), c in self._terms.items()}
        )

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        return " + ".join(f"{c}*v^{v}*z^{z}" for (v, z), c in self.items())


class SkeinElem(_Sparse):
    """Polynomial in formal indeterminates H and C over LaurentPoly.

    Terms are keyed by (degree in H, degree in C); both degrees are
    nonnegative. Coefficients identically zero are never stored.
    """

    __slots__ = ()
    _UNIT = (0, 0)
    _SCALARS = (int, LaurentPoly)
    _add_keys = staticmethod(_add_pairs)
    __mul__ = __rmul__ = _Sparse.__mul__

    def __init__(self, terms: Optional[Mapping[tuple, LaurentPoly]] = None):
        super().__init__(terms)
        if any(h < 0 or c < 0 for h, c in self._terms):
            raise ValueError("H and C degrees must be nonnegative")
        self._terms = {k: LaurentPoly._coerce(poly) for k, poly in self._terms.items()}

    @classmethod
    def scalar(cls, value) -> "SkeinElem":
        return cls({(0, 0): value})

    @classmethod
    def indeterminate_h(cls) -> "SkeinElem":
        return cls({(1, 0): 1})

    @classmethod
    def indeterminate_c(cls) -> "SkeinElem":
        return cls({(0, 1): 1})

    def coeff(self, h_deg: int, c_deg: int) -> LaurentPoly:
        return self._terms.get((h_deg, c_deg), LaurentPoly.zero())

    def substitute(
        self,
        c_value: Optional[LaurentPoly] = None,
        h_value: Optional[LaurentPoly] = None,
    ) -> Union["SkeinElem", LaurentPoly]:
        """Substitute Laurent values for C and/or H.

        With both values given the result collapses to a LaurentPoly; with
        one given the other indeterminate survives; with neither this is
        the identity.
        """
        if c_value is None and h_value is None:
            return self
        if c_value is not None and h_value is not None:
            total = LaurentPoly.zero()
            for (h, c), poly in self._terms.items():
                total = total + poly * h_value**h * c_value**c
            return total
        acc = SkeinElem.zero()
        for (h, c), poly in self._terms.items():
            if c_value is not None:
                acc = acc + SkeinElem({(h, 0): poly * c_value**c})
            else:
                acc = acc + SkeinElem({(0, c): poly * h_value**h})
        return acc

    def evaluate_alpha(self, x) -> dict:
        """Evaluate every coefficient at a rational point of the a-variable.

        Returns {(h_deg, c_deg): Fraction} with zero values dropped; H and C
        stay symbolic.
        """
        out = {}
        for k, poly in self._terms.items():
            val = poly.evaluate(x)
            if val:
                out[k] = val
        return out

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for (h, c), poly in self.items():
            factors = [f"({poly})"]
            if h:
                factors.append(f"H^{h}")
            if c:
                factors.append(f"C^{c}")
            parts.append("*".join(factors))
        return " + ".join(parts)

    def to_rows(self):
        """JSON form: [h_deg, c_deg, laurent_pairs] rows sorted by degree."""
        return [[h, c, poly.to_pairs()] for (h, c), poly in self.items()]

    @classmethod
    def from_rows(cls, rows) -> "SkeinElem":
        return cls({(int(h), int(c)): LaurentPoly.from_pairs(p) for h, c, p in rows})
