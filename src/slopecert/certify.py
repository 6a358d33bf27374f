"""End-to-end certification that a slope admits two distinct knots with a
common surgery.

For a slope p/q with p > 1, the pipeline picks parameters, builds the
positive cable braid of the companion knot, and justifies that the two
symbolic polynomials differ. Two independent justifications exist:

- genus route (always on): the cable closes to a knot of positive genus,
  and a non-trivial positive braid knot never has a unit zeroth coefficient
  polynomial (trusted theorem, checked empirically in the test suite);
- direct route (budget-gated): actually compute the cable polynomial and
  test unit-ness, which large cables make too expensive.

Every certificate is re-verified internally before being emitted; an
identity failure raises instead of producing a bad certificate.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, List, Optional, Tuple, Union

# cable_braid is unused here; perfbench/tracer.py wraps each layer by its name in this module
from .braid import BraidWord, bennequin_euler_char, cable_braid, closure_components
from .homfly import (
    DEFAULT_ORACLE_BUDGET,
    OracleBudgetError,
    SquareSearchError,
    gamma_positive,
    homfly_oracle,
    zeroth_gamma,
)
from .poly import LaurentPoly, SkeinElem, neg_alpha_pow
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
        return json.dumps(self.to_obj(), sort_keys=True, indent=2) + "\n"

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
    """Build and internally verify the certificate for the slope p/q.

    Raises ValueError outside the working range (p > 1, q >= 1, coprime)
    and CertificateError if any internal identity fails. The direct route
    can also raise SquareSearchError or OracleBudgetError.
    """
    params, w = choose_params(p, q, s_start)
    A = params.matrix()
    dual = dual_gluing(A)
    double_dual = double_dual_gluing(A)

    # matrix identities
    Z = GluingMatrix(1, params.r * params.s, 0, 1)
    _check(dual == Z @ A.inverse(), "dual map disagrees with Z * A^-1")
    Zp = GluingMatrix(1, params.p * params.q * params.r**2, 0, 1)
    _check(double_dual == Zp @ A, "double dual map disagrees with Z' * A")
    _check(dual.det == 1 and double_dual.det == 1, "determinant drifted")
    _check(A.apply((0, 1)) == (params.r, params.s), "longitude column mismatch")
    _check(
        dual.apply((1, 0)) == (-params.t, -params.q),
        "dual image of the meridian is not (-t, -q)",
    )
    _check(
        params.t - params.q * params.r * (params.s - 1) == (params.p - 1) * params.s - 1,
        "net twist identity fails",
    )

    induced = induced_slopes(params)
    _check(induced[1] == Fraction(params.t, params.q), "middle induced slope is not t/q")

    _check(closure_components(w) == 1, "cable closure is not a knot")
    chi = bennequin_euler_char(w)
    _check(chi < 1 and (1 - chi) % 2 == 0, "Euler characteristic bookkeeping broken")
    genus = (1 - chi) // 2
    _check(genus >= 1, "cable knot is trivial; parameter selection failed")

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

    q, r, t = params.q, params.r, params.t
    kb = closed_form_kb(q, r, t)
    kg = closed_form_kg(q, r, t)
    _check(eval_tree(expand(kb_root(q, t), q, r)) == kb, "first tree != closed form")
    _check(eval_tree(expand(kg_root(q, t), q, r)) == kg, "second tree != closed form")
    diff = difference(q, r, t)
    _check(kb - kg == diff, "difference identity fails")
    _check(kb.evaluate_alpha(-1) == {(0, 0): 1}, "kb normalization at a = -1 fails")
    _check(kg.evaluate_alpha(-1) == {(0, 0): 1}, "kg normalization at a = -1 fails")
    _check(diff.evaluate_alpha(-1) == {}, "difference should vanish at a = -1")

    if gamma_cr is not None:
        # with C specialized to a non-unit, the C^2 factor of the difference
        # cannot vanish, and the HC factor cannot vanish for any H
        factor2 = LaurentPoly.one() - neg_alpha_pow(-params.q * params.t) * gamma_cr**2
        _check(not factor2.is_zero(), "difference factor vanished unexpectedly")
        _check(not diff.substitute(c_value=gamma_cr).is_zero(), "difference vanished")

    reason = REASON_DIRECT if gamma_cr is not None else REASON_GENUS
    cert = Certificate(
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
    # final certificate-level invariants
    _check(cert.kb - cert.kg == cert.diff, "stored difference mismatch")
    if cert.diff_nonzero_reason == REASON_GENUS:
        _check(cert.genus >= 1, "genus route requires positive genus")
    else:
        _check(cert.gamma_cr_is_unit is False, "direct route requires a non-unit")
    return cert


def parse_slope(text: str) -> Tuple[int, int]:
    """Parse 'P/Q' or a bare integer 'P' into a (p, q) pair with q >= 1."""
    text = text.strip()
    if not text:
        raise ValueError("empty slope")
    if "/" in text:
        num, _, den = text.partition("/")
        p, q = int(num), int(den)
    else:
        p, q = int(text), 1
    if q == 0:
        raise ValueError("slope denominator is zero")
    if q < 0:
        p, q = -p, -q
    return p, q


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
    entry's ``mirror_of``. A failure is a slope that does not parse, one
    outside the working range, a failed internal check, or the direct
    route's engine giving up on the cable.
    """
    report = BatchReport()
    for item in slopes:
        if isinstance(item, str):
            try:
                p, q = parse_slope(item)
            except ValueError as exc:
                report.entries.append(BatchEntry(slope=item.strip(), error=str(exc)))
                continue
        else:
            p, q = item
        entry = BatchEntry(slope=f"{abs(p)}/{q}", mirror_of=f"{p}/{q}" if p < 0 else None)
        try:
            entry.certificate = certify_slope(
                abs(p), q, s_start=s_start, gamma_budget=gamma_budget, verify_oracle=verify_oracle
            )
        except (ValueError, CertificateError, SquareSearchError, OracleBudgetError) as exc:
            entry.error = str(exc)
        report.entries.append(entry)
    return report
