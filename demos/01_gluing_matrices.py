"""Gluing-matrix bookkeeping for a surgery slope.

A p/q surgery is encoded by a determinant-1 integer matrix whose first
column is (p, q). Undoing the surgery is another surgery, on the dual knot,
and redoing it is a third one, on the double dual; both gluings have closed
forms once cables are measured in their Seifert framing.
"""

from slopecert import GluingMatrix, SlopeParams, dual_gluing, double_dual_gluing, induced_slopes

params = SlopeParams(p=3, q=2, r=4, s=3, t=21)
A = params.matrix()
print("slope 3/2 with completion (r, s) = (4, 3)")
print("gluing matrix A          :", A.rows())

dual = dual_gluing(A)
print("dual gluing map          :", dual.rows())
Z = GluingMatrix(1, params.r * params.s, 0, 1)
same = dual == Z @ A.inverse()
print("equals Z @ A^-1?         :", same, " (Z carries the r*s surface framing)")
assert same
meridian = tuple(row[0] for row in dual.rows())  # the first column
print("meridian image           :", meridian, "= (-t, -q): the dual meridian is a (-t,-q) cable curve")
assert meridian == (-params.t, -params.q)

double = double_dual_gluing(A)
print("double dual gluing map   :", double.rows())
Zp = GluingMatrix(1, params.p * params.q * params.r**2, 0, 1)
same = double == Zp @ A
print("equals Z' @ A?           :", same)
assert same

print()
print("the knot, its dual, and its double dual form a 3-component link")
print("with framings p/q, t/q, p(1+q^2 r^2)/q:")
for name, slope in zip(("knot", "dual", "double dual"), induced_slopes(params)):
    print(f"  {name:12s} {slope}")
