"""Two ways to the zeroth coefficient polynomial.

The oracle computes the full two-variable HOMFLYPT polynomial by switching
and smoothing crossings until the diagram descends to an unlink; it is
exact and exponential. The zeroth coefficient polynomial is its z-degree-0
layer after normalization, with a = -v^2. For positive braids a much
faster recursion works on the normalized polynomial N, which for a knot
of genus g is Gamma / (-a)^g and lies in Z[a] with nonnegative
coefficients. It squares and stores only knots, and it uses the
Lickorish-Millett formula, on its input and on the two-component link
that each square's smoothing makes, in the normalized form shown last:
a link's N is (a+1)^{c-s} times its components' N, for c components and
s split factors, the linking number having gone into the power of -a.
Each component's braid word is found by deleting the other components'
strands.
"""

from slopecert import (
    BraidWord,
    gamma_linking_formula,
    gamma_positive,
    homfly_oracle,
    torus_braid,
    total_linking,
    zeroth_gamma,
)
from slopecert.braid import cable_word, component_words
from slopecert.poly import ONE_PLUS_ALPHA, LaurentPoly

for name, w in (
    ("unknot", BraidWord(1, ())),
    ("positive Hopf link", BraidWord(2, (1, 1))),
    ("right trefoil", BraidWord(2, (1, 1, 1))),
    ("(5,2) torus knot", torus_braid(5, 2)),
):
    h = homfly_oracle(w)
    print(f"{name}  ({w})")
    print(f"  P(v, z) = {h.poly}")
    print(f"  Gamma   = {zeroth_gamma(h)}")

print()
print("the fast engine agrees on positive braids and adds the normalized form:")
for name, w in (("right trefoil", BraidWord(2, (1, 1, 1))), ("(4,3) torus knot", torus_braid(4, 3))):
    res = gamma_positive(w)
    same = res.gamma == zeroth_gamma(homfly_oracle(w))
    print(f"  {name}: Gamma = {res.gamma}")
    print(f"    matches oracle: {same}, normalized = {res.gamma_normalized} (all coefficients >= 0)")
    print(f"    Gamma(-1) = {res.gamma.evaluate(-1)} (knot normalization)")
    assert same and res.gamma.evaluate(-1) == 1
    assert all(c >= 0 for c in res.gamma_normalized.coefficients())

print()
print("links split into their components up to a linking-number weight;")
print("the fast engine computes every link this way, in the normalized form shown last:")
hopf = BraidWord(2, (1, 1))
one = LaurentPoly.one()
lk = total_linking(hopf)
formula, oracle = gamma_linking_formula([one, one], lk), zeroth_gamma(homfly_oracle(hopf))
print(f"  Hopf link: lk = {lk}, formula gives {formula}, oracle gives {oracle}")
assert formula == oracle
cable = cable_word(2, 3, 2, 0)
words, lk = component_words(cable.strands, cable.letters)
formula = gamma_linking_formula([gamma_positive(BraidWord(*word)).gamma for word in words], lk)
print(f"  2-cable of the trefoil ({cable}): components {words}, lk = {lk}")
print(f"    formula gives {formula}, oracle gives {zeroth_gamma(homfly_oracle(cable))}")
assert formula == zeroth_gamma(homfly_oracle(cable)) == gamma_positive(cable).gamma
normalized = ONE_PLUS_ALPHA * gamma_positive(BraidWord(*words[0])).gamma_normalized
normalized = normalized * gamma_positive(BraidWord(*words[1])).gamma_normalized
print(f"    normalized: (a+1) N(component) N(component) = {normalized} (c = 2, s = 1)")
assert normalized == gamma_positive(cable).gamma_normalized
