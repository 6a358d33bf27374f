"""The symbolic computation that distinguishes the two knots.

Both knots are band sums of iterated twisted Whitehead doubles of a cable
of the companion knot. Expanding skein and linking relations turns each
into a tree whose leaves are only the unknot, the companion cable knot
(indeterminate C), and one band-sum knot (indeterminate H). The two trees
repeat many patterns, so both are expanded and evaluated as one DAG, each
distinct pattern once. The two resulting polynomials differ by a product
that can only vanish if C's polynomial were a unit.

The genus route needs only that C's polynomial squared is not (-a)^{qt}.
A lemma proved in gamma_positive's docstring puts the lowest term of a
positive braid knot's polynomial at a^g, for g its genus, so that square
would need qt = 2g, which the cable's letter and strand counts rule out:
no certificate rests on an assumption. The direct route computes the cable
polynomial and checks that it is not a unit.
"""

from slopecert import (
    SlopeParams,
    closed_form_kb,
    closed_form_kg,
    difference,
    eval_tree,
    expand,
    format_tree,
    kb_root,
    kg_root,
)
from slopecert.poly import LaurentPoly


def internal_nodes(tree):
    """Skein and linking nodes of ``tree`` walked as a tree."""
    return 0 if tree.kind == "leaf" else 1 + sum(internal_nodes(c) for c in tree.children)


params = SlopeParams(p=3, q=2, r=4, s=3, t=21)

q, r, t = params.q, params.r, params.t
nodes = {}  # one node, evaluated as it is made, per distinct pattern
tree = expand(kb_root(q, t), q, r, nodes)
print("skein/linking tree of the first knot (boxed numbers are linking numbers):")
print(format_tree(tree))

kb = eval_tree(tree)
kg_tree = expand(kg_root(q, t), q, r, nodes)
kg = eval_tree(kg_tree)
print()
print("first polynomial :", kb)
print()
print("second polynomial:", kg)
print()
distinct = sum(node.kind != "leaf" for node in nodes.values())
print(f"skein and linking nodes: {internal_nodes(tree) + internal_nodes(kg_tree)} in the two trees,"
      f" {distinct} distinct, each evaluated once")

print()
agree = kb == closed_form_kb(q, r, t) and kg == closed_form_kg(q, r, t)
print("closed forms agree with the trees:", agree)
assert agree
diff = difference(q, r, t)
factors = kb - kg == diff
print("difference factors exactly      :", factors)
assert factors
vanishes = diff.evaluate_alpha(-1) == {}
print("difference vanishes at a = -1   :", vanishes)
assert vanishes

print()
print("substituting the actual (non-unit) cable polynomial keeps the difference nonzero:")
trefoil_gamma = LaurentPoly({1: -2, 2: -1})
nonzero = not diff.substitute(c_value=trefoil_gamma).is_zero()
print("  with C -> trefoil polynomial:", nonzero)
assert nonzero
print("  with C -> the unit -a^0     :", "vanishing is only possible for units;")
print("  unit detection:", trefoil_gamma.is_unit(), "(trefoil polynomial is not a unit)")
assert not trefoil_gamma.is_unit()
