"""The symbolic computation that distinguishes the two knots.

Both knots are band sums of iterated twisted Whitehead doubles of a cable
of the companion knot. Expanding skein and linking relations turns each
into a tree whose leaves are only the unknot, the companion cable knot
(indeterminate C), and one band-sum knot (indeterminate H). The two
resulting polynomials differ by a product that can only vanish if C's
polynomial were a unit, and positive braid knots never have unit
polynomials.
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

params = SlopeParams(p=3, q=2, r=4, s=3, t=21)

q, r, t = params.q, params.r, params.t
tree = expand(kb_root(q, t), q, r)
print("skein/linking tree of the first knot (boxed numbers are linking numbers):")
print(format_tree(tree))

kb = eval_tree(tree)
kg = eval_tree(expand(kg_root(q, t), q, r))
print()
print("first polynomial :", kb)
print()
print("second polynomial:", kg)

print()
print("closed forms agree with the trees:", kb == closed_form_kb(q, r, t) and kg == closed_form_kg(q, r, t))
diff = difference(q, r, t)
print("difference factors exactly      :", kb - kg == diff)
print("difference vanishes at a = -1   :", diff.evaluate_alpha(-1) == {})

print()
print("substituting the actual (non-unit) cable polynomial keeps the difference nonzero:")
trefoil_gamma = LaurentPoly({1: -2, 2: -1})
print("  with C -> trefoil polynomial:", not diff.substitute(c_value=trefoil_gamma).is_zero())
print("  with C -> the unit -a^0     :", "vanishing is only possible for units;")
print("  unit detection:", trefoil_gamma.is_unit(), "(trefoil polynomial is not a unit)")
