"""Symbolic skein/linking trees for the two banded satellite knots.

The two knots sharing a surgery are band sums of iterated twisted Whitehead
doubles applied to a reversed 2-cable of a companion knot. So every node of
their trees is a stack of satellite layers, the double D^k_m and the
2-cable Cbar_{2m,2}, on one base knot: the unknot, the companion cable knot
(indeterminate C) or one band-sum knot (indeterminate H). Their zeroth
coefficient polynomials can be computed without ever evaluating the hard
ingredients: the recursion peels the outer layer off until only a base is
left.

Internal tree nodes combine their children in one of two ways, one per
layer kind:

- skein edges (a double): -a * (child1 + child2), the two-term crossing
  relation;
- linking edges (a 2-cable): -(1 + a^-1) * (-a)^lk * (child1 * child2), the
  splitting of a 2-component link into its factors, weighted by linking
  number lk.

Each weight is a power of -a, times a + 1 on a linking edge: -a = (-a)^1,
and -(1 + a^-1)(-a)^lk = (a + 1)(-a)^(lk-1). So a weight is applied as a
shift of every coefficient's exponents (``_shift``), with the a + 1 folded
into the shift, and the only ring products are the linking nodes'
child1 * child2.

This module builds the trees by rewriting, with one node per distinct
pattern, and evaluates each node exactly over Z[a^{+-1}][H, C] as it builds
it. An expansion's memo is keyed by each pattern's (base, layers) pair, and
a ``PatternExpr`` is built only for a node that is made. The module also
gives both polynomials in closed form, and their difference: each is four
fixed Laurent polynomials, one per (H, C) bucket, shifted by powers of -a
that depend on (q, r, t). ``expand`` proves that the trees
equal the closed forms for every (q, r, t).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from .poly import ALPHA, LaurentPoly, ONE_PLUS_ALPHA, SkeinElem

_ALPHA_SQ = LaurentPoly({2: 1})
_ALPHA_SQ_MINUS_1 = LaurentPoly({2: 1, 0: -1})
_DIFFERENCE_UNIT = ALPHA * ONE_PLUS_ALPHA * ONE_PLUS_ALPHA * _ALPHA_SQ_MINUS_1  # a(1+a)^2(a^2-1)

# Leaf values by base knot, shared by every tree: values are immutable.
_LEAVES = {
    "U": SkeinElem.one(),
    "C": SkeinElem.indeterminate_c(),
    "H": SkeinElem.indeterminate_h(),
}


def _layer_label(layer: Tuple) -> str:
    if layer[0] == "D":
        _, k, m = layer
        return f"D^{k}" if m == 0 else f"D^{k}_{{{m}}}"
    return f"Cbar_{{{2 * layer[1]},2}}"


@dataclass(frozen=True)
class PatternExpr:
    """A node label: satellite layers applied to a base knot.

    ``base`` is "U" (the unknot), "H" (the band-sum knot [H], banded) or
    "C" (the companion cable knot C(R)). ``layers`` lists the satellite
    operations, outermost first: ("D", k, m) is the k-clasp double D^k_m
    with m twists, and ("Cbar", m) the reversed 2-cable Cbar_{2m,2}.
    """

    base: str
    layers: Tuple[Tuple, ...] = ()

    def __post_init__(self) -> None:
        if self.base not in _LEAVES:
            raise ValueError(f"unknown base knot {self.base!r}")
        for layer in self.layers:
            if layer[0] not in ("D", "Cbar"):
                raise ValueError(f"unknown satellite layer {layer!r}")
            if layer[0] == "D" and layer[1] < 0:
                raise ValueError(f"double layer {layer!r} has a negative clasp count")

    def label(self) -> str:
        if not self.layers:
            return {"U": "U", "H": "[H]", "C": "C(R)"}[self.base]
        stack = " o ".join(_layer_label(layer) for layer in self.layers)
        return f"[{stack}]" if self.base == "H" else f"{stack}(C(R))"


def _key(base: str, layers: Tuple[Tuple, ...]) -> Tuple[str, Tuple[Tuple, ...]]:
    """The (base, layers) pair of the layers, outermost first, on ``base``;
    a zero-clasp outer double unknots the whole pattern."""
    if layers and layers[0][0] == "D" and layers[0][1] == 0:
        return "U", ()
    return base, layers


def _pattern(base: str, *layers: Tuple) -> PatternExpr:
    """The pattern ``_key`` names."""
    return PatternExpr(*_key(base, layers))


def unknot() -> PatternExpr:
    return PatternExpr("U")


def banded_double(k: int, m: int) -> PatternExpr:
    return _pattern("H", ("D", k, m))


def banded_iterated_double(l: int, n: int, k: int, m: int) -> PatternExpr:
    return _pattern("H", ("D", l, n), ("D", k, m))


def banded_two_cable(m: int) -> PatternExpr:
    return _pattern("H", ("Cbar", m))


def double_of_cable(k: int, m: int) -> PatternExpr:
    return _pattern("C", ("D", k, m))


def two_cable_of_cable(m: int) -> PatternExpr:
    return _pattern("C", ("Cbar", m))


@dataclass(frozen=True, eq=False)
class SkeinTree:
    """A node of an expanded tree and its exact value in Z[a^{+-1}][H, C].
    Nodes compare and hash by identity: an expansion gives each distinct
    pattern one node, which every parent of that pattern shares."""

    expr: PatternExpr
    kind: str  # "leaf" | "skein" | "linking"
    value: SkeinElem
    children: Tuple["SkeinTree", ...] = ()
    lk: Optional[int] = None


def kb_root(q: int, t: int) -> PatternExpr:
    """Root pattern of the first knot: single clasp outside, twisted double
    clasp inside, twist parameter q*t."""
    return banded_iterated_double(1, 0, 2, q * t)


def kg_root(q: int, t: int) -> PatternExpr:
    """Root pattern of the second knot: the clasp counts exchanged."""
    return banded_iterated_double(2, 0, 1, q * t)


def expand(expr: PatternExpr, q: int, r: int, memo: Optional[dict] = None) -> SkeinTree:
    """Expand a pattern expression to its tree, one rule per layer kind,
    and evaluate each node as it is made from its children's values; only
    the product q*r enters (through the linking number of the band knot
    with the cable).

    Each edge's weight is a power of -a, applied as a shift (``_weigh``):
    -a on a skein edge, and on a linking edge
    -(1 + a^-1)(-a)^lk = (a + 1)(-a)^(lk-1), with the a + 1 folded into the
    shift. So the only ring products are the linking nodes' x * y.

    Equal patterns get one node, so the tree is a DAG and each distinct
    pattern is expanded and evaluated once. ``memo`` maps the (base,
    layers) pair of each pattern expanded so far to its node; calls with
    the same q*r that pass one dict share nodes.

    The trees of ``kb_root`` and ``kg_root`` equal ``closed_form_kb`` and
    ``closed_form_kg`` for every (q, r, t), by Kronecker's substitution:
    - Unfolded, the DAG's shape and operations do not depend on (q, r, t),
      and its linking numbers are 0, qr - qt and -qt. So every node value
      and each closed form is the image of one element of
      Z[a^{+-1}, X^{+-1}, Y^{+-1}][H, C] under X -> (-a)^{qr}, Y -> (-a)^{qt}.
    - In size, a node's exponents of a, X and Y are at most 1 plus the sum
      of its children's bounds, and the DAG is 5 edges deep, so all are
      below 2^5 = 32.
    - With K = 2^10, (1, K, K^2) sends a^i X^j Y^k to a^{i + jK + kK^2}
      (no sign: K is even), one-to-one on |i|, |j|, |k| < K/2 = 512.
    So equality at (1, K, K^2), which ``TestClosedForms`` in
    tests/test_skein_tree.py checks, is equality in the free ring, and then
    at every (q, r, t)."""
    return _expand(expr.base, expr.layers, q, r, {} if memo is None else memo)


def _expand(base: str, layers: Tuple[Tuple, ...], q: int, r: int, memo: dict) -> SkeinTree:
    """The node of the pattern (base, layers), from ``memo`` or made and
    stored there."""
    node = memo.get((base, layers))
    if node is not None:
        return node
    expr = PatternExpr(base, layers)  # checks the layers before expanding them
    if not layers:
        node = SkeinTree(expr, "leaf", _LEAVES[base])
    else:
        outer, inner = layers[0], layers[1:]
        if outer[0] == "D":
            # D^k_m o X: change a clasp crossing (D^{k-1}_m o X) or smooth
            # it (Cbar_{2m,2} o X), on the same base
            _, k, m = outer
            left = _expand(*_key(base, (("D", k - 1, m),) + inner), q, r, memo)
            right = _expand(base, (("Cbar", m),) + inner, q, r, memo)
            value = _weigh(left.value + right.value, 1)
            node = SkeinTree(expr, "skein", value, (left, right))
        else:
            # Cbar_{2m,2} o X splits into X on the base and X on the cable;
            # only the band knot itself links the cable, as a double has
            # winding number 0
            m = outer[1]
            lk = q * r - m if base == "H" and not inner else -m
            x, y = _expand(*_key(base, inner), q, r, memo), _expand(*_key("C", inner), q, r, memo)
            value = _weigh(x.value * y.value, lk - 1, fold=True)
            node = SkeinTree(expr, "linking", value, (x, y), lk=lk)
    memo[base, layers] = node
    return node


def eval_tree(tree: SkeinTree) -> SkeinElem:
    """The exact value of ``tree`` in Z[a^{+-1}][H, C], which ``expand``
    computed as it made the node."""
    return tree.value


def format_tree(tree: SkeinTree, indent: int = 0) -> str:
    """Indented diagnostic rendering with the linking numbers boxed."""
    lines = ["  " * indent + tree.expr.label()]
    if tree.kind == "linking":
        lines[0] += f"  --[lk={tree.lk}]--"
    for child in tree.children:
        lines.append(format_tree(child, indent + 1))
    return "\n".join(lines)


def _template(c0, c1, u, v) -> dict:
    """The four buckets of c0 + c1 (u - v X HC)(u - v Y C^2) at X = Y = 1,
    keyed by their (H, C) degrees: the shape of both closed forms and of
    their difference."""
    return {(0, 0): c0 + c1 * u * u, (1, 1): -(c1 * u * v), (0, 2): -(c1 * u * v), (1, 3): c1 * v * v}


def _shift(poly: LaurentPoly, k: int, fold: bool = False) -> LaurentPoly:
    """(-a)^k poly: every exponent moved by k, every sign flipped if k is
    odd. With ``fold``, (a + 1)(-a)^k poly, in the same pass: each shifted
    term is also added one exponent up, and a sum that cancels is dropped."""
    sign = -1 if k % 2 else 1
    if not fold:
        return LaurentPoly._wrap({e + k: sign * c for e, c in poly._terms.items()})
    out = {}
    for e, c in poly._terms.items():
        e += k
        c *= sign
        out[e] = out.get(e, 0) + c
        out[e + 1] = out.get(e + 1, 0) + c
    return LaurentPoly._wrap({e: c for e, c in out.items() if c})


def _weigh(x: SkeinElem, k: int, fold: bool = False) -> SkeinElem:
    """(-a)^k x, or (a + 1)(-a)^k x with ``fold``: ``_shift`` on each (H, C)
    bucket. A nonzero bucket stays nonzero, as Z[a^{+-1}] has no zero
    divisors."""
    return SkeinElem._wrap({key: _shift(poly, k, fold) for key, poly in x._terms.items()})


def _instance(template: dict, q: int, r: int, t: int) -> SkeinElem:
    """The form at (q, r, t): with X = (-a)^{q(r-t)} and Y = (-a)^{-qt},
    bucket (h, c) is its template times X^h Y^{(c-h)/2} = (-a)^k, with
    k = q(hr - (h+c)t/2): 0, q(r-t), -qt and q(r-2t)."""
    return SkeinElem._wrap(
        {(h, c): _shift(poly, q * (h * r - (h + c) // 2 * t)) for (h, c), poly in template.items()}
    )


_KB = _template(-ALPHA, ONE_PLUS_ALPHA, _ALPHA_SQ, _ALPHA_SQ_MINUS_1)
_KG = _template(_ALPHA_SQ, -_ALPHA_SQ_MINUS_1, ALPHA, ONE_PLUS_ALPHA)
_DIFFERENCE = _template(LaurentPoly.zero(), _DIFFERENCE_UNIT, LaurentPoly.one(), LaurentPoly.one())


def closed_form_kb(q: int, r: int, t: int) -> SkeinElem:
    """-a + (a+1) (a^2 - (a^2-1)(-a)^{q(r-t)} HC) (a^2 - (a^2-1)(-a)^{-qt} C^2)."""
    return _instance(_KB, q, r, t)


def closed_form_kg(q: int, r: int, t: int) -> SkeinElem:
    """a^2 - (a^2-1) (a - (a+1)(-a)^{q(r-t)} HC) (a - (a+1)(-a)^{-qt} C^2)."""
    return _instance(_KG, q, r, t)


def difference(q: int, r: int, t: int) -> SkeinElem:
    """The first closed form minus the second, in factored form:
    U (1 - X HC)(1 - Y C^2), with U = a(1+a)^2(a^2-1), X = (-a)^{q(r-t)}
    and Y = (-a)^{-qt}.

    All three forms shift a ``_template`` of four buckets: bucket (h, c) of
    each is a constant times X^h Y^{(c-h)/2}, for (h, c) in (0,0), (1,1),
    (0,2), (1,3). Both sides of kb - kg = difference have the constants U,
    -U, -U, U, so it holds for every (q, r, t). At a = -1,
    a + 1 = a^2 - 1 = 0 and X = Y = 1, so kb = -a = 1 and kg = a^2 = 1.
    With C a non-unit gamma, the difference vanishes only if
    gamma^2 = (-a)^{qt}, which would make gamma a unit."""
    return _instance(_DIFFERENCE, q, r, t)


# the same functions under the names the acceptance suite imports
expand_qrt = expand
closed_form_kb_qrt = closed_form_kb
closed_form_kg_qrt = closed_form_kg
difference_qrt = difference
