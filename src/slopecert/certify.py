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

A ``Certificate`` stores only what ``certify_slope`` computed: ``params``,
``braid``, ``gamma_cr``, ``kb``, ``kg`` and ``diff``. The gluing, dual and
double-dual matrices, the induced slopes and the Euler characteristic are
derived from ``params`` and ``braid`` when the certificate is written, and
``genus``, ``gamma_cr_is_unit`` and ``diff_nonzero_reason`` are properties
read from the stored fields.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _json_string
from typing import Iterable, List, Optional, Tuple, Union

# cable_braid, closed_form_kb and closed_form_kg are unused here;
# perfbench/tracer.py wraps each layer by its name in this module
from .braid import BraidWord, bennequin_euler_char, cable_braid, closure_components
from .homfly import DEFAULT_ORACLE_BUDGET, gamma_positive, homfly_oracle, zeroth_gamma
from .poly import LaurentPoly, SkeinElem
from .quote import clip, digits, past_int_limit, quote, safe_repr
from .skein_tree import (
    closed_form_kb,
    closed_form_kg,
    difference,
    eval_tree,
    expand,
    kb_root,
    kg_root,
)
from .surgery import SlopeParams, choose_params, dual_gluing, double_dual_gluing, induced_slopes

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


def _json_pairs(pairs, nl: str) -> str:
    """A list of (int, int) tuples as ``_json_value`` writes a list of
    two-int lists: one %-format per pair."""
    if not pairs:
        return "[]"
    inner = nl + "  "
    pair = "[" + inner + "  %d," + inner + "  %d" + inner + "]"
    return "[" + inner + ("," + inner).join([pair % p for p in pairs]) + nl + "]"


def _json_rows(elem: SkeinElem, nl: str) -> str:
    """``elem.to_rows()`` as ``_json_value`` writes it, without building it."""
    if not elem:
        return "[]"
    inner = nl + "  "
    field = inner + "  "
    row = "[" + field + "%d," + field + "%d," + field + "%s" + inner + "]"
    rows = [row % (h, c, _json_pairs(poly.items(), field)) for (h, c), poly in elem.items()]
    return "[" + inner + ("," + inner).join(rows) + nl + "]"


def _json_value(v, nl: str) -> str:
    """``v`` as ``json.dumps(v, sort_keys=True, indent=2)`` writes it, where
    ``nl`` is a newline plus the indent of the line ``v`` starts on; a
    ``LaurentPoly`` or ``SkeinElem`` is written flat as its ``to_pairs()``
    or ``to_rows()``, and so is any list of two-int lists.

    Types are matched exactly, so an int subclass raises instead of being
    written as a bool; strings go through the encoder ``json.dumps`` uses."""
    t = type(v)
    if t is int:
        return repr(v)
    if t is list:
        if not v:
            return "[]"
        if all(type(x) is list and len(x) == 2 and type(x[0]) is type(x[1]) is int for x in v):
            return _json_pairs([(x[0], x[1]) for x in v], nl)
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
    if t is LaurentPoly:
        return _json_pairs(v.items(), nl)
    if t is SkeinElem:
        return _json_rows(v, nl)
    if v is None or t is bool:
        return _JSON_CONSTANTS[v]
    raise TypeError(f"a certificate holds no {t.__name__} value")


def _json_text(obj: dict) -> str:
    """The one JSON text form of a certificate object:
    ``json.dumps(obj, sort_keys=True, indent=2)`` plus a newline (with each
    polynomial as its ``to_pairs()`` or ``to_rows()``), written by
    ``_json_value`` because the indented ``json.dumps`` never uses the C
    encoder."""
    return _json_value(obj, "\n") + "\n"


@dataclass(frozen=True)
class Certificate:
    """What ``certify_slope`` computed for one slope (``gamma_cr`` is None
    off the direct route); every other field of the written certificate is
    derived from these (module docstring)."""

    params: SlopeParams
    braid: BraidWord
    gamma_cr: Optional[LaurentPoly]
    kb: SkeinElem
    kg: SkeinElem
    diff: SkeinElem

    @property
    def slope(self) -> Tuple[int, int]:
        return (self.params.p, self.params.q)

    @property
    def genus(self) -> int:
        # choose_params returns only chi < 1 (its docstring proves it), and a
        # knot closure has 1 - chi even
        return (1 - bennequin_euler_char(self.braid)) // 2

    @property
    def gamma_cr_is_unit(self) -> Optional[bool]:
        """None when the direct route was not run."""
        return None if self.gamma_cr is None else self.gamma_cr.is_unit()

    @property
    def diff_nonzero_reason(self) -> str:
        return REASON_GENUS if self.gamma_cr is None else REASON_DIRECT

    def _fields(self) -> dict:
        """The certificate object, with its polynomials as ``LaurentPoly``
        and ``SkeinElem`` values: ``to_obj`` converts them, and
        ``_json_text`` writes them directly."""
        A = self.params.matrix()
        is_unit = self.gamma_cr_is_unit
        return {
            "schema_version": SCHEMA_VERSION,
            "slope": {"p": self.params.p, "q": self.params.q},
            "params": self.params.to_obj(),
            "induced_slopes": [[f.numerator, f.denominator] for f in induced_slopes(self.params)],
            "gluing_matrix": A.rows(),
            "dual_matrix": dual_gluing(A).rows(),
            "double_dual_matrix": double_dual_gluing(A).rows(),
            "braid": str(self.braid),
            "euler_char": bennequin_euler_char(self.braid),
            "genus": self.genus,
            "gamma_cr": self.gamma_cr,
            "gamma_cr_is_unit": "not-computed" if is_unit is None else is_unit,
            "kb": self.kb,
            "kg": self.kg,
            "diff": self.diff,
            "diff_nonzero_reason": self.diff_nonzero_reason,
        }

    def to_obj(self) -> dict:
        obj = self._fields()
        for key in ("kb", "kg", "diff"):
            obj[key] = obj[key].to_rows()
        if self.gamma_cr is not None:
            obj["gamma_cr"] = self.gamma_cr.to_pairs()
        return obj

    def to_json(self) -> str:
        return _json_text(self._fields())

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

    Returns the six computed fields (the module docstring says which fields
    are derived when the certificate is written). Raises ValueError outside
    the working range (p > 1, q >= 1, coprime) and CertificateError if a
    per-slope check (module docstring) fails.
    """
    params, w = choose_params(p, q, s_start)
    _check(closure_components(w) == 1, "cable closure is not a knot")

    q, r, t = params.q, params.r, params.t
    # the two trees are one DAG: each distinct pattern of this slope is
    # expanded and evaluated once, and the memo ends with this call
    nodes = {}
    kb = eval_tree(expand(kb_root(q, t), q, r, nodes))
    kg = eval_tree(expand(kg_root(q, t), q, r, nodes))
    diff = difference(q, r, t)

    gamma_cr: Optional[LaurentPoly] = None
    if len(w.letters) <= gamma_budget:
        gres = gamma_positive(w)
        gamma_cr = gres.gamma
        _check(not gamma_cr.is_unit(), "cable polynomial is a unit; cannot certify")
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
    return Certificate(params=params, braid=w, gamma_cr=gamma_cr, kb=kb, kg=kg, diff=diff)


_INTEGER = re.compile(r"\s*[+-]?(\d+(?:_\d+)*)\s*")  # an int() literal; group 1 is its digit groups


def _past_int_limit(numerator: int, denominator: int) -> Optional[str]:
    """Why a slope with parts of these digit counts cannot be converted
    between int and text, naming the numerator if both are past Python's
    int() limit; None if neither is."""
    for name, count in (("numerator", numerator), ("denominator", denominator)):
        reason = past_int_limit(count)
        if reason:
            return f"its {name} {reason}"
    return None


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
        counts = []
        for part in (num, den):
            match = _INTEGER.fullmatch(part)
            counts.append(len(match[1].replace("_", "")) if match else 0)
        reason = _past_int_limit(*counts) or "a slope is P/Q or an integer P"
        raise ValueError(f"invalid slope {clip(text, repr)}: {reason}") from None
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
    write as text (labelled by its bit length; the error names the part and
    its digit count as ``parse_slope`` does), a slope that does not parse,
    one outside the working range, a cable too large to build, an engine
    out of memory, or a failed internal check. A label (and ``mirror_of``)
    longer than 32 characters is quoted by its start and its length
    (``quote.clip``), and a text that is not printable, such as one holding
    a terminal escape, by its repr.
    """
    report = BatchReport()
    for item in slopes:
        pair = isinstance(item, (tuple, list)) and len(item) == 2 and all(type(x) is int for x in item)
        if not (pair or isinstance(item, str)):
            text = quote(item)
            error = f"{type(item).__name__} {text} is not a slope: give 'P/Q', 'P' or a pair of ints"
            report.entries.append(BatchEntry(slope=text, error=error))
            continue
        text = "{}/{}".format(*map(safe_repr, item)) if pair else item.strip()
        label = clip(text, str if text.isprintable() else repr)
        too_long = pair and _past_int_limit(digits(item[0]), digits(item[1]))
        if too_long:
            report.entries.append(BatchEntry(slope=label, error=f"invalid slope {label}: {too_long}"))
            continue
        try:
            p, q = parse_slope("{}/{}".format(*item) if pair else item)
        except ValueError as exc:
            report.entries.append(BatchEntry(slope=label, error=str(exc)))
            continue
        entry = BatchEntry(slope=clip(f"{abs(p)}/{q}"), mirror_of=clip(f"{p}/{q}") if p < 0 else None)
        try:
            entry.certificate = certify_slope(
                abs(p), q, s_start=s_start, gamma_budget=gamma_budget, verify_oracle=verify_oracle
            )
        except (ValueError, CertificateError) as exc:
            entry.error = str(exc)
        report.entries.append(entry)
    return report
