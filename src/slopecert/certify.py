"""End-to-end certification that a slope admits two distinct knots with a
common surgery.

For a slope p/q with p > 1, the pipeline picks parameters, builds the
positive cable braid of the companion knot, and justifies that the two
symbolic polynomials differ. Two independent justifications exist:

- genus route (always on): the cable closes to a knot of positive genus.
  The difference, with C set to the cable's zeroth coefficient polynomial
  C(R), vanishes exactly when C(R)^2 = (-a)^{qt}, so that is all the
  certificate must exclude. With e letters on n strands, the lemma proved
  in ``gamma_positive`` makes that need qt = e - n + 1 (twice the genus),
  but qt - (e - n + 1) = s(p + q - 1) - 2 >= 1 on every cable
  ``choose_params`` returns. So no certificate rests on an assumption; the
  Morton-Franks-Williams bound alone settles p >= q + 2, and parity odd qt;
- direct route (budget-gated): actually compute the cable polynomial and
  test unit-ness, which large cables make too expensive.

Per slope, ``certify_slope`` checks only what the slope computed: the
cable closes to a knot and, on the direct route, the cable polynomial is
not a unit, Gamma(-1) = 1, its normalised form is nonnegative and
(``verify_oracle``) the oracle agrees. A failed check raises instead of
emitting a certificate. Facts true for every slope are proved in
``dual_gluing``, ``double_dual_gluing``, ``expand`` (the skein trees equal
their closed forms) and ``difference``, and pinned by tests, instead.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _json_string
from typing import Iterable, List, Optional, Tuple, Union

# cable_braid, closed_form_kb and closed_form_kg are unused here;
# perfbench/tracer.py wraps each layer by its name in this module
from .braid import BraidWord, bennequin_euler_char, cable_braid, closure_components
from .homfly import DEFAULT_ORACLE_BUDGET, gamma_positive, homfly_oracle, zeroth_gamma
from .poly import LaurentPoly, SkeinElem
from .skein_tree import (
    closed_form_kb,
    closed_form_kg,
    difference,
    eval_tree,
    expand,
    kb_root,
    kg_root,
)
from .surgery import (
    GluingMatrix,
    SlopeParams,
    choose_params,
    dual_gluing,
    double_dual_gluing,
    induced_slopes,
)

SCHEMA_VERSION = 1
DEFAULT_GAMMA_BUDGET = 16

REASON_GENUS = "genus-positive-braid"
REASON_DIRECT = "direct-gamma-non-unit"

class CertificateError(Exception):
    """An internal cross-check failed; no certificate is emitted."""


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise CertificateError(message)


_JSON_CONSTANTS = {None: "null", True: "true", False: "false"}


def _json_value(v, nl: str) -> str:
    """``v`` as ``json.dumps(v, sort_keys=True, indent=2)`` writes it, where
    ``nl`` is a newline plus the indent of the line ``v`` starts on.

    Types are matched exactly, so an int subclass raises instead of being
    written as a bool; strings go through the encoder ``json.dumps`` uses."""
    t = type(v)
    if t is int:
        return repr(v)
    if t is list:
        if not v:
            return "[]"
        inner = nl + "  "
        return "[" + inner + ("," + inner).join([_json_value(x, inner) for x in v]) + nl + "]"
    if t is str:
        return _json_string(v)
    if t is dict:
        if not v:
            return "{}"
        inner = nl + "  "
        items = [_json_string(k) + ": " + _json_value(v[k], inner) for k in sorted(v)]
        return "{" + inner + ("," + inner).join(items) + nl + "}"
    if v is None or t is bool:
        return _JSON_CONSTANTS[v]
    raise TypeError(f"a certificate holds no {t.__name__} value")


def _json_text(obj: dict) -> str:
    """The one JSON text form of a certificate object:
    ``json.dumps(obj, sort_keys=True, indent=2)`` plus a newline, written by
    ``_json_value`` because the indented ``json.dumps`` never uses the C
    encoder."""
    return _json_value(obj, "\n") + "\n"


@dataclass(frozen=True)
class Certificate:
    params: SlopeParams
    induced: Tuple[Fraction, Fraction, Fraction]
    dual_matrix: GluingMatrix
    double_dual_matrix: GluingMatrix
    braid: BraidWord
    euler_char: int
    genus: int
    gamma_cr: Optional[LaurentPoly]
    gamma_cr_is_unit: Optional[bool]  # None means "not-computed"
    kb: SkeinElem
    kg: SkeinElem
    diff: SkeinElem
    diff_nonzero_reason: str

    @property
    def slope(self) -> Tuple[int, int]:
        return (self.params.p, self.params.q)

    def to_obj(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "slope": {"p": self.params.p, "q": self.params.q},
            "params": self.params.to_obj(),
            "induced_slopes": [[f.numerator, f.denominator] for f in self.induced],
            "gluing_matrix": self.params.matrix().rows(),
            "dual_matrix": self.dual_matrix.rows(),
            "double_dual_matrix": self.double_dual_matrix.rows(),
            "braid": str(self.braid),
            "euler_char": self.euler_char,
            "genus": self.genus,
            "gamma_cr": None if self.gamma_cr is None else self.gamma_cr.to_pairs(),
            "gamma_cr_is_unit": (
                "not-computed" if self.gamma_cr_is_unit is None else self.gamma_cr_is_unit
            ),
            "kb": self.kb.to_rows(),
            "kg": self.kg.to_rows(),
            "diff": self.diff.to_rows(),
            "diff_nonzero_reason": self.diff_nonzero_reason,
        }

    def to_json(self) -> str:
        return _json_text(self.to_obj())

    def summary(self) -> str:
        p, q = self.slope
        direct = ""
        if self.gamma_cr is not None:
            direct = f", gamma(C(R)) = {self.gamma_cr}, unit: {self.gamma_cr_is_unit}"
        return (
            f"slope {p}/{q}: params (r,s,t) = ({self.params.r},{self.params.s},"
            f"{self.params.t}), cable braid on {self.braid.strands} strands with "
            f"{len(self.braid.letters)} letters, genus {self.genus}, "
            f"reason: {self.diff_nonzero_reason}{direct}"
        )


def certify_slope(
    p: int,
    q: int,
    s_start: int = 1,
    gamma_budget: int = DEFAULT_GAMMA_BUDGET,
    verify_oracle: bool = False,
) -> Certificate:
    """Build and check the certificate for the slope p/q.

    Raises ValueError outside the working range (p > 1, q >= 1, coprime)
    and CertificateError if a per-slope check (module docstring) fails.
    """
    params, w = choose_params(p, q, s_start)
    A = params.matrix()
    dual = dual_gluing(A)
    double_dual = double_dual_gluing(A)
    induced = induced_slopes(params)

    _check(closure_components(w) == 1, "cable closure is not a knot")
    # choose_params returns only chi < 1 (its docstring proves it), and a knot
    # closure has 1 - chi even
    chi = bennequin_euler_char(w)
    genus = (1 - chi) // 2

    q, r, t = params.q, params.r, params.t
    # the two trees are one DAG: each distinct pattern of this slope is
    # expanded and evaluated once, and the memo ends with this call
    nodes = {}
    kb = eval_tree(expand(kb_root(q, t), q, r, nodes))
    kg = eval_tree(expand(kg_root(q, t), q, r, nodes))
    diff = difference(q, r, t)

    gamma_cr: Optional[LaurentPoly] = None
    gamma_is_unit: Optional[bool] = None
    if len(w.letters) <= gamma_budget:
        gres = gamma_positive(w)
        gamma_cr = gres.gamma
        gamma_is_unit = gamma_cr.is_unit()
        _check(not gamma_is_unit, "cable polynomial is a unit; cannot certify")
        _check(gamma_cr.evaluate(-1) == 1, "knot normalization Gamma(-1) = 1 fails")
        _check(
            all(c >= 0 for c in gres.gamma_normalized.coefficients()),
            "normalized polynomial has a negative coefficient",
        )
        if verify_oracle and len(w.letters) <= DEFAULT_ORACLE_BUDGET:
            _check(
                zeroth_gamma(homfly_oracle(w)) == gamma_cr,
                "fast engine disagrees with the skein oracle",
            )

    reason = REASON_DIRECT if gamma_cr is not None else REASON_GENUS
    return Certificate(
        params=params,
        induced=induced,
        dual_matrix=dual,
        double_dual_matrix=double_dual,
        braid=w,
        euler_char=chi,
        genus=genus,
        gamma_cr=gamma_cr,
        gamma_cr_is_unit=gamma_is_unit,
        kb=kb,
        kg=kg,
        diff=diff,
        diff_nonzero_reason=reason,
    )


_INTEGER = re.compile(r"\s*[+-]?(\d+(?:_\d+)*)\s*")  # an int() literal; group 1 is its digit groups


def _clip(text: str, show=str) -> str:
    """``show(text)``, or ``show`` of its first 32 characters and its length."""
    return show(text) if len(text) <= 32 else f"{show(text[:32])}... ({len(text)} characters)"


def parse_slope(text: str) -> Tuple[int, int]:
    """Parse 'P/Q' or a bare integer 'P' into a (p, q) pair with q >= 1,
    moving the sign into p; a zero denominator is an error. An error quotes
    a long text by its start, and names the part (the numerator if both)
    with more digits than Python's int() limit."""
    text = text.strip()
    num, slash, den = text.partition("/")
    try:
        p, q = int(num), int(den) if slash else 1
    except ValueError:
        reason = "a slope is P/Q or an integer P"
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        for name, part in (("denominator", den), ("numerator", num)):
            match = _INTEGER.fullmatch(part)
            n = len(match[1].replace("_", "")) if match else 0
            if 0 < limit < n:
                reason = f"its {name} has {n} digits, more than Python's int() limit of {limit}"
        raise ValueError(f"invalid slope {_clip(text, repr)}: {reason}") from None
    if q == 0:
        raise ValueError("slope denominator is zero")
    return (-p, -q) if q < 0 else (p, q)


@dataclass
class BatchEntry:
    slope: str
    certificate: Optional[Certificate] = None
    error: Optional[str] = None
    mirror_of: Optional[str] = None  # the negative slope certified as its mirror

    @property
    def ok(self) -> bool:
        return self.certificate is not None


@dataclass
class BatchReport:
    entries: List[BatchEntry] = field(default_factory=list)

    @property
    def all_ok(self) -> bool:
        return all(e.ok for e in self.entries)

    def summary_lines(self) -> List[str]:
        lines = []
        for e in self.entries:
            if e.ok:
                lines.append(f"PASS {e.certificate.summary()}")
            else:
                lines.append(f"FAIL slope {e.slope}: {e.error}")
        n_ok = sum(1 for e in self.entries if e.ok)
        lines.append(f"{n_ok}/{len(self.entries)} slopes certified")
        return lines


def _text(item) -> str:
    """``repr(item)``, writing an int with more digits than int-to-text
    conversion allows (alone or in a tuple) by its bit length, and any
    other item whose repr fails by its type."""
    if type(item) is tuple:
        return "(" + ", ".join(map(_text, item)) + ("," if len(item) == 1 else "") + ")"
    try:
        return repr(item)
    except ValueError:
        return f"<int of {item.bit_length()} bits>" if type(item) is int else f"<{type(item).__name__}>"


def batch(
    slopes: Iterable[Union[str, Tuple[int, int]]],
    s_start: int = 1,
    gamma_budget: int = DEFAULT_GAMMA_BUDGET,
    verify_oracle: bool = False,
) -> BatchReport:
    """Certify each slope, collecting per-slope failures instead of raising.

    A negative slope p/q is certified as its mirror -p/q, recorded in the
    entry's ``mirror_of``. A failure is an item that is neither a text nor
    a pair of ints (labelled by its repr), a pair holding an int too long to
    write as text (labelled by its bit length), a slope that does not parse,
    one outside the working range, a cable too large to build, an engine
    out of memory, or a failed internal check. A text label (and
    ``mirror_of``) longer than 32 characters is quoted by its start.
    """
    report = BatchReport()
    for item in slopes:
        pair = isinstance(item, (tuple, list)) and len(item) == 2 and all(type(x) is int for x in item)
        if not (pair or isinstance(item, str)):
            text = _text(item)
            error = f"{type(item).__name__} {text} is not a slope: give 'P/Q', 'P' or a pair of ints"
            report.entries.append(BatchEntry(slope=text, error=error))
            continue
        try:
            # an int with more digits than int-to-text conversion allows fails here
            p, q = parse_slope("{}/{}".format(*item) if pair else item)
        except ValueError as exc:
            label = "{}/{}".format(*map(_text, item)) if pair else _clip(item.strip())
            report.entries.append(BatchEntry(slope=label, error=str(exc)))
            continue
        entry = BatchEntry(slope=_clip(f"{abs(p)}/{q}"), mirror_of=_clip(f"{p}/{q}") if p < 0 else None)
        try:
            entry.certificate = certify_slope(
                abs(p), q, s_start=s_start, gamma_budget=gamma_budget, verify_oracle=verify_oracle
            )
        except (ValueError, CertificateError) as exc:
            entry.error = str(exc)
        report.entries.append(entry)
    return report
