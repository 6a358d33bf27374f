"""Symbolic skein/linking trees for the two banded satellite knots.

The two knots sharing a surgery are band sums of iterated twisted Whitehead
doubles applied to a reversed 2-cable of a companion knot. Their zeroth
coefficient polynomials can be computed without ever evaluating the hard
ingredients: the recursion bottoms out in the unknot, the companion cable
knot (indeterminate C), and one band-sum knot (indeterminate H).

Internal tree nodes combine their children in one of two ways:

- skein edges: -a * (child1 + child2), the two-term crossing relation;
- linking edges: -(1 + a^-1) * (-a)^lk * (child1 * child2), the splitting
  of a 2-component link into its factors, weighted by linking number lk.

This module builds the trees by rewriting, evaluates them exactly over
Z[a^{+-1}][H, C], and cross-checks against closed-form products and the
factorized difference of the two polynomials.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from .poly import ALPHA, LaurentPoly, ONE_PLUS_INV_ALPHA, SkeinElem, neg_alpha_pow

_ALPHA_SQ = LaurentPoly({2: 1})
_ALPHA_SQ_MINUS_1 = LaurentPoly({2: 1, 0: -1})
_ALPHA_PLUS_1 = LaurentPoly({1: 1, 0: 1})

# Leaf values and the skein-edge factor -a, shared by every tree: values
# are immutable.
_LEAVES = {
    "unknot": SkeinElem.one(),
    "cable": SkeinElem.indeterminate_c(),
    "band": SkeinElem.indeterminate_h(),
}
_SKEIN_FACTOR = SkeinElem.scalar(-ALPHA)


@dataclass(frozen=True)
class PatternExpr:
    """A node label: a pattern (or banded pattern) applied to the companion.

    Tags and integer parameters:
      unknot                          U
      cable                           the companion cable knot C(R)
      band                            the band-sum knot [H]
      double (k, m)                   banded double [D^k_m]
      iterated_double (l, n, k, m)    banded iterated double [D^l_n o D^k_m]
      two_cable (m)                   banded reversed 2-cable [Cbar_{2m,2}]
      two_cable_double (n, k, m)      banded [Cbar_{2n,2} o D^k_m]
      double_of_cable (k, m)          plain satellite D^k_m(C(R))
      two_cable_of_cable (m)          plain satellite Cbar_{2m,2}(C(R))
    """

    tag: str
    params: Tuple[int, ...] = ()

    def label(self) -> str:
        t, p = self.tag, self.params
        if t == "unknot":
            return "U"
        if t == "cable":
            return "C(R)"
        if t == "band":
            return "[H]"
        if t == "double":
            return f"[{_d_label(*p)}]"
        if t == "iterated_double":
            l, n, k, m = p
            return f"[{_d_label(l, n)} o {_d_label(k, m)}]"
        if t == "two_cable":
            return f"[Cbar_{{{2 * p[0]},2}}]"
        if t == "two_cable_double":
            n, k, m = p
            return f"[Cbar_{{{2 * n},2}} o {_d_label(k, m)}]"
        if t == "double_of_cable":
            return f"{_d_label(*p)}(C(R))"
        if t == "two_cable_of_cable":
            return f"Cbar_{{{2 * p[0]},2}}(C(R))"
        raise ValueError(f"unknown pattern tag {t!r}")


def _d_label(k: int, m: int) -> str:
    return f"D^{k}" if m == 0 else f"D^{k}_{{{m}}}"


def unknot() -> PatternExpr:
    return PatternExpr("unknot")


def cable_knot() -> PatternExpr:
    return PatternExpr("cable")


def band_knot() -> PatternExpr:
    return PatternExpr("band")


def banded_double(k: int, m: int) -> PatternExpr:
    return unknot() if k == 0 else PatternExpr("double", (k, m))


def banded_iterated_double(l: int, n: int, k: int, m: int) -> PatternExpr:
    # a zero-clasp outer double unknots the whole banded pattern
    return unknot() if l == 0 else PatternExpr("iterated_double", (l, n, k, m))


def banded_two_cable(m: int) -> PatternExpr:
    return PatternExpr("two_cable", (m,))


def banded_two_cable_double(n: int, k: int, m: int) -> PatternExpr:
    return PatternExpr("two_cable_double", (n, k, m))


def double_of_cable(k: int, m: int) -> PatternExpr:
    return unknot() if k == 0 else PatternExpr("double_of_cable", (k, m))


def two_cable_of_cable(m: int) -> PatternExpr:
    return PatternExpr("two_cable_of_cable", (m,))


@dataclass(frozen=True)
class SkeinTree:
    expr: PatternExpr
    kind: str  # "leaf" | "skein" | "linking"
    children: Tuple["SkeinTree", ...] = ()
    lk: Optional[int] = None


def kb_root(q: int, t: int) -> PatternExpr:
    """Root pattern of the first knot: single clasp outside, twisted double
    clasp inside, twist parameter q*t."""
    return banded_iterated_double(1, 0, 2, q * t)


def kg_root(q: int, t: int) -> PatternExpr:
    """Root pattern of the second knot: the clasp counts exchanged."""
    return banded_iterated_double(2, 0, 1, q * t)


def expand(expr: PatternExpr, q: int, r: int) -> SkeinTree:
    """Expand a pattern expression to a full tree; only the product q*r
    enters (through the linking number of the band knot with the cable)."""
    t, p = expr.tag, expr.params
    if t in ("unknot", "cable", "band"):
        return SkeinTree(expr, "leaf")
    if t == "iterated_double":
        l, n, k, m = p
        left = expand(banded_iterated_double(l - 1, n, k, m), q, r)
        right = expand(banded_two_cable_double(n, k, m), q, r)
        return SkeinTree(expr, "skein", (left, right))
    if t == "double":
        k, m = p
        left = expand(banded_double(k - 1, m), q, r)
        right = expand(banded_two_cable(m), q, r)
        return SkeinTree(expr, "skein", (left, right))
    if t == "double_of_cable":
        k, m = p
        left = expand(double_of_cable(k - 1, m), q, r)
        right = expand(two_cable_of_cable(m), q, r)
        return SkeinTree(expr, "skein", (left, right))
    if t == "two_cable":
        (m,) = p
        children = (expand(band_knot(), q, r), expand(cable_knot(), q, r))
        return SkeinTree(expr, "linking", children, lk=q * r - m)
    if t == "two_cable_double":
        n, k, m = p
        children = (
            expand(banded_double(k, m), q, r),
            expand(double_of_cable(k, m), q, r),
        )
        return SkeinTree(expr, "linking", children, lk=-n)
    if t == "two_cable_of_cable":
        (m,) = p
        children = (expand(cable_knot(), q, r), expand(cable_knot(), q, r))
        return SkeinTree(expr, "linking", children, lk=-m)
    raise ValueError(f"no rewrite rule for pattern tag {t!r}")


def eval_tree(tree: SkeinTree) -> SkeinElem:
    """Bottom-up exact evaluation in Z[a^{+-1}][H, C]."""
    if tree.kind == "leaf":
        t = tree.expr.tag
        if t in _LEAVES:
            return _LEAVES[t]
        raise ValueError(f"pattern {t!r} is not a leaf")
    values = [eval_tree(child) for child in tree.children]
    if tree.kind == "skein":
        return _SKEIN_FACTOR * (values[0] + values[1])
    if tree.kind == "linking":
        weight = -(ONE_PLUS_INV_ALPHA * neg_alpha_pow(tree.lk))
        return SkeinElem.scalar(weight) * values[0] * values[1]
    raise ValueError(f"unknown tree kind {tree.kind!r}")


def format_tree(tree: SkeinTree, indent: int = 0) -> str:
    """Indented diagnostic rendering with the linking numbers boxed."""
    lines = ["  " * indent + tree.expr.label()]
    if tree.kind == "linking":
        lines[0] += f"  --[lk={tree.lk}]--"
    for child in tree.children:
        lines.append(format_tree(child, indent + 1))
    return "\n".join(lines)


def _hc(e1_weight: LaurentPoly) -> SkeinElem:
    return SkeinElem({(1, 1): e1_weight})


def _cc(e2_weight: LaurentPoly) -> SkeinElem:
    return SkeinElem({(0, 2): e2_weight})


def closed_form_kb(q: int, r: int, t: int) -> SkeinElem:
    """-a + (a+1) (a^2 - (a^2-1)(-a)^{q(r-t)} HC) (a^2 - (a^2-1)(-a)^{-qt} C^2)."""
    e1, e2 = q * (r - t), -q * t
    first = SkeinElem.scalar(_ALPHA_SQ) - _hc(_ALPHA_SQ_MINUS_1 * neg_alpha_pow(e1))
    second = SkeinElem.scalar(_ALPHA_SQ) - _cc(_ALPHA_SQ_MINUS_1 * neg_alpha_pow(e2))
    return SkeinElem.scalar(-ALPHA) + SkeinElem.scalar(_ALPHA_PLUS_1) * first * second


def closed_form_kg(q: int, r: int, t: int) -> SkeinElem:
    """a^2 - (a^2-1) (a - (a+1)(-a)^{q(r-t)} HC) (a - (a+1)(-a)^{-qt} C^2)."""
    e1, e2 = q * (r - t), -q * t
    first = SkeinElem.scalar(ALPHA) - _hc(_ALPHA_PLUS_1 * neg_alpha_pow(e1))
    second = SkeinElem.scalar(ALPHA) - _cc(_ALPHA_PLUS_1 * neg_alpha_pow(e2))
    return SkeinElem.scalar(_ALPHA_SQ) - SkeinElem.scalar(_ALPHA_SQ_MINUS_1) * first * second


def difference(q: int, r: int, t: int) -> SkeinElem:
    """The first closed form minus the second, in factored form:
    a (1+a)^2 (a^2-1) (1 - (-a)^{q(r-t)} HC) (1 - (-a)^{-qt} C^2).

    The unit prefactor never vanishes away from a = +-1, so the difference
    can only vanish if one of the two right-hand factors does after
    substituting actual polynomial values for H and C."""
    e1, e2 = q * (r - t), -q * t
    unit_part = ALPHA * _ALPHA_PLUS_1 * _ALPHA_PLUS_1 * _ALPHA_SQ_MINUS_1
    first = SkeinElem.one() - _hc(neg_alpha_pow(e1))
    second = SkeinElem.one() - _cc(neg_alpha_pow(e2))
    return SkeinElem.scalar(unit_part) * first * second


# the same functions under the names the acceptance suite imports
expand_qrt = expand
closed_form_kb_qrt = closed_form_kb
closed_form_kg_qrt = closed_form_kg
difference_qrt = difference
