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
from collections.abc import Mapping
from fractions import Fraction
from typing import Callable, Optional, TypeVar

from .quote import quote

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


def _entries(value, what: str):
    """``value``, which must be a JSON list (or tuple); ``what`` names its
    entries in the error."""
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{quote(value)}: expected a list of {what}")
    return value


def _fields(entry, size: int) -> tuple:
    """The fields of a JSON entry, a list (or tuple) of exactly ``size``."""
    if not isinstance(entry, (list, tuple)) or len(entry) != size:
        raise ValueError(f"{quote(entry)}: expected {size} fields")
    return tuple(entry)


def _ints(entry) -> tuple:
    """The two fields of a JSON pair, each an int (a bool is not one)."""
    pair = _fields(entry, 2)
    if not all(type(x) is int for x in pair):
        raise ValueError(f"{quote(entry)}: every field must be an int")
    return pair


def _add_pairs(k1: tuple, k2: tuple) -> tuple:
    return (k1[0] + k2[0], k1[1] + k2[1])


class _Sparse:
    """Sparse polynomial: a mapping from monomial keys to nonzero coefficients.

    A ring declares ``_UNIT`` (the key of the monomial 1), ``_add_keys``
    (the key of a product of two monomials) and ``_SCALARS`` (the types
    coerced to constant polynomials). Instances are immutable and hashable;
    arithmetic returns new objects.
    """

    __slots__ = ("_terms",)
    _UNIT: object
    _SCALARS: tuple
    _add_keys: Callable

    def __init__(self, terms=None):
        if terms is None:
            self._terms = {}
        else:
            self._terms = _gather(terms.items() if isinstance(terms, Mapping) else terms)

    @classmethod
    def _wrap(cls: type[_R], terms: dict) -> _R:
        """Adopt an already gathered dict without copying or checking it."""
        out = cls.__new__(cls)
        out._terms = terms
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
        if self._terms.keys() <= {self._UNIT}:
            # zero or a constant: equal to its scalar, so hash as it
            return hash(self._terms.get(self._UNIT, 0))
        return hash(tuple(self.items()))

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

    def coefficients(self):
        """Coefficients in ascending-exponent order."""
        return [c for _, c in self.items()]

    def is_unit(self) -> bool:
        """True iff the value is +-a^k, the only invertible elements here."""
        if len(self._terms) != 1:
            return False
        (c,) = self._terms.values()
        return c in (1, -1)

    def evaluate(self, x) -> Fraction:
        """Exact evaluation at a nonzero rational point.

        For x = n/d, the sum of c * n^(e-lo) * d^(hi-e) over the terms,
        with lo <= 0 <= hi spanning every exponent, is an integer; the value
        is that integer over n^(-lo) * d^hi, one exact division."""
        x = Fraction(x)
        if x == 0:
            raise ValueError("cannot evaluate at 0: negative exponents")
        if not self._terms:
            return Fraction(0)
        n, d = x.numerator, x.denominator
        lo, hi = min(min(self._terms), 0), max(max(self._terms), 0)
        num = sum(c * n ** (e - lo) * d ** (hi - e) for e, c in self._terms.items())
        return Fraction(num, n ** -lo * d**hi)

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        return " + ".join(f"{c}*a^{e}" for e, c in self.items())

    def to_pairs(self):
        """JSON form: [exponent, coefficient] pairs, ascending exponent."""
        return [[e, c] for e, c in self.items()]

    @classmethod
    def from_pairs(cls, pairs) -> "LaurentPoly":
        """The inverse of ``to_pairs``: anything it would not write, such as
        a zero coefficient or an exponent not above the one before it, is
        rejected, naming the first such pair."""
        terms = {}
        for pair in _entries(pairs, "pairs"):
            e, c = _ints(pair)
            if not c:
                raise ValueError(f"{quote(pair)}: a coefficient is never 0")
            if terms and e <= last:
                raise ValueError(f"{quote(pair)}: exponents must strictly ascend")
            terms[e] = c
            last = e
        return cls._wrap(terms)


ALPHA = LaurentPoly({1: 1})
ONE_PLUS_ALPHA = LaurentPoly({0: 1, 1: 1})
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

    def times_monomial(self, v_exp: int, z_exp: int) -> "BiLaurent":
        return BiLaurent({(v + v_exp, z + z_exp): c for (v, z), c in self._terms.items()})

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

    def substitute(self, c_value: LaurentPoly) -> "SkeinElem":
        """Substitute a Laurent value for C; H stays an indeterminate."""
        acc = SkeinElem.zero()
        for (h, c), poly in self._terms.items():
            acc = acc + SkeinElem({(h, 0): poly * c_value**c})
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
        """The inverse of ``to_rows``: anything it would not write, such as a
        negative degree, an empty row or an (h, c) not above the one before
        it, is rejected, naming the first such row."""
        terms = {}
        for row in _entries(rows, "rows"):
            h, c, pairs = _fields(row, 3)
            key = _ints((h, c))
            if h < 0 or c < 0:
                raise ValueError(f"{quote(row)}: H and C degrees must be nonnegative")
            if terms and key <= last:
                raise ValueError(f"{quote(row)}: (h, c) degrees must strictly ascend")
            poly = LaurentPoly.from_pairs(pairs)
            if not poly:
                raise ValueError(f"{quote(row)}: a row is never empty")
            terms[key] = poly
            last = key
        return cls._wrap(terms)
