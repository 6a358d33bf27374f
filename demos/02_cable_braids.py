"""From a slope to a positive cable braid.

Each certified slope p/q needs a companion knot: the (t, q)-cable of the
(r, s) torus knot, where (r, s, t) complete the slope. The completion is
not unique; the selector walks the arithmetic progression of solutions and
keeps the first one whose cable is a genuinely knotted positive braid.
"""

from slopecert import bennequin_euler_char, cable_braid, choose_params, closure_components, closure_info

for p, q in ((2, 1), (3, 1), (3, 2), (5, 2)):
    params, w = choose_params(p, q)
    info = closure_info(w)
    print(f"slope {p}/{q}: completion (r, s, t) = ({params.r}, {params.s}, {params.t})")
    print(f"  cable braid: {w}")
    print(
        f"  {w.strands} strands, {len(w.letters)} positive letters,"
        f" components = {closure_components(w)}, chi = {info.euler_char}, genus = {info.genus}"
    )

print()
print("why the progression matters: for 3/2 the first solution s = 1 gives an")
print("unknotted cable (chi = 1), so the selector moves on to s = 3:")
from slopecert import SlopeParams, cable_word

rejected = cable_word(2, 1, 1, 1)  # the s = 1 candidate braid for 3/2
print(f"  s = 1 candidate closes to chi = {bennequin_euler_char(rejected)} (unknot), rejected")
accepted = cable_braid(SlopeParams(p=3, q=2, r=4, s=3, t=21))
print(f"  s = 3 candidate closes to chi = {bennequin_euler_char(accepted)} (genus 16), accepted")
