"""From a slope to a positive cable braid.

Each certified slope p/q needs a companion knot: the (t, q)-cable of the
(r, s) torus knot, where (r, s, t) complete the slope. The completion is
not unique; the solutions of p*s - q*r = 1 form an arithmetic progression
in s with step q. The selection rule: s is the least solution >=
max(1, s_start), plus q when that least solution is s = 1 with q = 1 or
p <= 3, because those s = 1 cables close to the unknot. Every other
solution gives a genuinely knotted positive braid, so the selector builds
only the cable it returns.
"""

from slopecert import bennequin_euler_char, cable_braid, choose_params, closure_components

for p, q in ((2, 1), (3, 1), (3, 2), (5, 2)):
    params, w = choose_params(p, q)
    chi = bennequin_euler_char(w)
    print(f"slope {p}/{q}: completion (r, s, t) = ({params.r}, {params.s}, {params.t})")
    print(f"  cable braid: {w}")
    print(
        f"  {w.strands} strands, {len(w.letters)} positive letters,"
        f" components = {closure_components(w)}, chi = {chi}, genus = {(1 - chi) // 2}"
    )
    assert closure_components(w) == 1
    assert chi < 1

print()
print("why the progression matters: for 3/2 the first solution s = 1 gives an")
print("unknotted cable (chi = 1), so the selector moves on to s = 3:")
from slopecert import SlopeParams, cable_word

rejected = cable_word(2, 1, 1, 1)  # the s = 1 candidate braid for 3/2
print(f"  s = 1 candidate closes to chi = {bennequin_euler_char(rejected)} (unknot), rejected")
assert bennequin_euler_char(rejected) == 1
accepted = cable_braid(SlopeParams(p=3, q=2, r=4, s=3, t=21))
print(f"  s = 3 candidate closes to chi = {bennequin_euler_char(accepted)} (genus 16), accepted")
assert bennequin_euler_char(accepted) == -31
assert accepted == choose_params(3, 2)[1]
