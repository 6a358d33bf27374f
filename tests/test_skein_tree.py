import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from slopecert.poly import ALPHA, LaurentPoly, ONE_PLUS_ALPHA, ONE_PLUS_INV_ALPHA, SkeinElem, neg_alpha_pow
from slopecert.skein_tree import (
    PatternExpr,
    _weigh,
    banded_double,
    banded_iterated_double,
    banded_two_cable,
    closed_form_kb,
    closed_form_kg,
    difference,
    double_of_cable,
    eval_tree,
    expand,
    format_tree,
    kb_root,
    kg_root,
    two_cable_of_cable,
    unknot,
)
from slopecert.surgery import choose_params

# (q, r, t) of the 3/2 certificate, SlopeParams(p=3, q=2, r=4, s=3, t=21)
Q, R, T = 2, 4, 21

H = SkeinElem.indeterminate_h()
C = SkeinElem.indeterminate_c()

# hypothesis runs are derandomized
PROFILE = settings(derandomize=True, max_examples=60, deadline=None, database=None)

TREFOIL_GAMMA = LaurentPoly({1: -2, 2: -1})
non_units = (
    st.dictionaries(st.integers(-6, 6), st.integers(-9, 9), max_size=4)
    .map(LaurentPoly)
    .filter(lambda g: not g.is_unit())
)


# format_tree text of the two roots of the 3/2 certificate, and of a
# zero-clasp inner double under a 2-cable: any change to how patterns are
# represented must leave every tree, label and linking number as it is
GOLDEN_TREES = [
    (
        kb_root(Q, T),
        Q,
        R,
        """\
[D^1 o D^2_{42}]
  U
  [Cbar_{0,2} o D^2_{42}]  --[lk=0]--
    [D^2_{42}]
      [D^1_{42}]
        U
        [Cbar_{84,2}]  --[lk=-34]--
          [H]
          C(R)
      [Cbar_{84,2}]  --[lk=-34]--
        [H]
        C(R)
    D^2_{42}(C(R))
      D^1_{42}(C(R))
        U
        Cbar_{84,2}(C(R))  --[lk=-42]--
          C(R)
          C(R)
      Cbar_{84,2}(C(R))  --[lk=-42]--
        C(R)
        C(R)""",
    ),
    (
        kg_root(Q, T),
        Q,
        R,
        """\
[D^2 o D^1_{42}]
  [D^1 o D^1_{42}]
    U
    [Cbar_{0,2} o D^1_{42}]  --[lk=0]--
      [D^1_{42}]
        U
        [Cbar_{84,2}]  --[lk=-34]--
          [H]
          C(R)
      D^1_{42}(C(R))
        U
        Cbar_{84,2}(C(R))  --[lk=-42]--
          C(R)
          C(R)
  [Cbar_{0,2} o D^1_{42}]  --[lk=0]--
    [D^1_{42}]
      U
      [Cbar_{84,2}]  --[lk=-34]--
        [H]
        C(R)
    D^1_{42}(C(R))
      U
      Cbar_{84,2}(C(R))  --[lk=-42]--
        C(R)
        C(R)""",
    ),
    (
        banded_iterated_double(1, 3, 0, 5),
        1,
        1,
        """\
[D^1_{3} o D^0_{5}]
  U
  [Cbar_{6,2} o D^0_{5}]  --[lk=-3]--
    U
    U""",
    ),
]


def boxed_linking_numbers(tree):
    """Linking labels in depth-first order."""
    out = []
    if tree.kind == "linking":
        out.append(tree.lk)
    for child in tree.children:
        out.extend(boxed_linking_numbers(child))
    return out


def reference_value(expr, q, r):
    """The value of ``expr`` by the skein and linking rules, as a plain
    recursion that shares nothing: every repeated pattern is expanded and
    evaluated again."""
    if not expr.layers:
        return {"U": SkeinElem.one(), "H": H, "C": C}[expr.base]
    base, outer, inner = expr.base, expr.layers[0], expr.layers[1:]

    def value(base, *layers):
        if layers and layers[0][0] == "D" and layers[0][1] == 0:
            return SkeinElem.one()  # a zero-clasp outer double unknots
        return reference_value(PatternExpr(base, layers), q, r)

    if outer[0] == "D":
        _, k, m = outer
        both = value(base, ("D", k - 1, m), *inner) + value(base, ("Cbar", m), *inner)
        return SkeinElem.scalar(-ALPHA) * both
    m = outer[1]
    lk = q * r - m if base == "H" and not inner else -m
    weight = -(ONE_PLUS_INV_ALPHA * neg_alpha_pow(lk))
    return SkeinElem.scalar(weight) * value(base, *inner) * value("C", *inner)


def internal_nodes(tree):
    """Internal nodes of ``tree`` walked as a tree: a shared node counts once
    per path to it."""
    if tree.kind == "leaf":
        return 0
    return 1 + sum(internal_nodes(child) for child in tree.children)


def distinct_internal_nodes(*roots):
    """Internal node objects reachable from ``roots``, each counted once;
    by ``id``, so the count does not depend on how nodes compare."""
    seen, stack = set(), list(roots)
    while stack:
        node = stack.pop()
        if node.kind != "leaf" and id(node) not in seen:
            seen.add(id(node))
            stack.extend(node.children)
    return len(seen)


clasps = st.integers(0, 3)
twists = st.integers(-60, 60)
patterns = st.one_of(
    st.builds(banded_double, clasps, twists),
    st.builds(banded_iterated_double, clasps, twists, clasps, twists),
    st.builds(banded_two_cable, twists),
    st.builds(double_of_cable, clasps, twists),
    st.builds(two_cable_of_cable, twists),
)


class TestRoots:
    def test_twist_parameter_lands_on_the_inner_double(self):
        assert kb_root(Q, T) == banded_iterated_double(1, 0, 2, 42)
        assert kg_root(Q, T) == banded_iterated_double(2, 0, 1, 42)

    def test_zero_clasp_collapses_to_unknot(self):
        assert banded_iterated_double(0, 0, 2, 7) == unknot()
        assert banded_double(0, 5) == unknot()
        assert double_of_cable(0, 5) == unknot()

    def test_negative_clasp_count_is_rejected(self):
        # the skein rule lowers k and stops only at 0, so expanding k < 0 never ended
        with pytest.raises(ValueError, match=r"^double layer \('D', -1, 0\) has a negative clasp count$"):
            banded_double(-1, 0)
        with pytest.raises(ValueError, match=r"\('D', -2, 7\)"):
            banded_iterated_double(1, 0, -2, 7)
        with pytest.raises(ValueError, match=r"\('D', -3, 5\)"):
            double_of_cable(-3, 5)


class TestExpansion:
    def test_two_cable_linking_number(self):
        # with (q, r, t) = (2, 4, 21) the banded 2-cable links q*r - q*t = -34
        tree = expand(banded_two_cable(42), 2, 4)
        assert tree.kind == "linking"
        assert tree.lk == -34
        assert eval_tree(tree) == SkeinElem.scalar(
            -(ONE_PLUS_INV_ALPHA * neg_alpha_pow(-34))
        ) * H * C

    def test_single_clasp_double_of_cable(self):
        tree = expand(double_of_cable(1, 5), 1, 1)
        assert tree.kind == "skein"
        assert tree.children[0].expr == unknot()
        assert tree.children[1].expr == two_cable_of_cable(5)

    def test_kb_tree_boxed_labels(self):
        tree = expand(kb_root(Q, T), Q, R)
        assert boxed_linking_numbers(tree) == [0, -34, -34, -42, -42]

    def test_kg_tree_boxed_labels(self):
        tree = expand(kg_root(Q, T), Q, R)
        # the extra outer clasp duplicates the inner subtree labels
        assert boxed_linking_numbers(tree) == [0, -34, -42, 0, -34, -42]

    def test_unreachable_tag(self):
        with pytest.raises(ValueError):
            expand(PatternExpr("mystery", (1,)), 1, 1)
        with pytest.raises(ValueError):
            expand(PatternExpr("H", (("E", 1),)), 1, 1)


class TestSharing:
    @PROFILE
    @given(st.integers(-6, 6), st.integers(-6, 6), st.integers(-50, 50), st.lists(patterns, max_size=4))
    @example(0, 0, 0, [])
    @example(Q, R, T, [banded_two_cable(Q * T), double_of_cable(2, -Q * T)])
    def test_shared_dag_equals_unshared_reference(self, q, r, t, drawn):
        nodes = {}
        for expr in (kb_root(q, t), kg_root(q, t), *drawn):
            expected = reference_value(expr, q, r)
            assert eval_tree(expand(expr, q, r)) == expected
            assert eval_tree(expand(expr, q, r, nodes)) == expected

    @PROFILE
    @given(st.integers(-6, 6), st.integers(-6, 6), st.integers(-50, 50), st.lists(patterns, max_size=4))
    @example(Q, R, T, [banded_two_cable(Q * T), double_of_cable(2, -Q * T)])
    def test_every_node_holds_its_value(self, q, r, t, drawn):
        nodes = {}
        for expr in (kb_root(q, t), kg_root(q, t), *drawn):
            expand(expr, q, r, nodes)
        for (base, layers), node in nodes.items():
            assert node.expr == PatternExpr(base, layers)
            assert node.value == reference_value(node.expr, q, r)

    @pytest.mark.parametrize("slope", [(3, 2), (7, 2), (101, 2), (37, 11)])
    def test_one_slope_evaluates_half_its_nodes(self, slope):
        params, _ = choose_params(*slope)
        q, r, t = params.q, params.r, params.t
        nodes = {}
        kb = expand(kb_root(q, t), q, r, nodes)
        kg = expand(kg_root(q, t), q, r, nodes)
        assert internal_nodes(kb) + internal_nodes(kg) == 22
        assert distinct_internal_nodes(kb, kg) == 11
        # each node is evaluated once, as expand makes it
        assert sum(node.kind != "leaf" for node in nodes.values()) == 11

    def test_equal_patterns_get_one_node(self):
        tree = expand(kb_root(Q, T), Q, R)
        inner = tree.children[1].children[0]  # [D^2_{42}]
        assert inner.children[0].children[1] is inner.children[1]  # [Cbar_{84,2}]


laurent_polys = st.dictionaries(st.integers(-40, 40), st.integers(-9, 9), max_size=6).map(LaurentPoly)
skein_elems = st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)), laurent_polys, max_size=4).map(SkeinElem)


class TestWeights:
    """``expand`` weighs each edge by shifting exponents, not by a ring
    product: these pin the shift to the product it replaces."""

    @PROFILE
    @given(skein_elems, st.integers(-10**6, 10**6))
    @example(SkeinElem.zero(), 0)
    @example(SkeinElem.zero(), -7)
    @example(SkeinElem.scalar(LaurentPoly({0: 1, 1: -1})), 3)  # (a+1)(1-a) = 1-a^2 cancels a term
    @example(H * C + SkeinElem.scalar(LaurentPoly({-2: 5, 4: -3})), -1)
    def test_shift_is_the_product_by_a_power_of_minus_a(self, x, k):
        assert _weigh(x, k) == SkeinElem.scalar(neg_alpha_pow(k)) * x
        assert _weigh(x, k, fold=True) == SkeinElem.scalar(ONE_PLUS_ALPHA * neg_alpha_pow(k)) * x

    def test_linking_weight_is_a_shifted_one_plus_a(self):
        for lk in range(-50, 51):
            assert -(ONE_PLUS_INV_ALPHA * neg_alpha_pow(lk)) == ONE_PLUS_ALPHA * neg_alpha_pow(lk - 1)


class TestEvaluation:
    def test_single_clasp_banded_double(self):
        # -a + (a+1) (-a)^{q r - m} H C
        for (q, r, m) in [(1, 1, 0), (2, 4, 42), (3, 2, -5)]:
            got = eval_tree(expand(banded_double(1, m), q, r))
            expected = (
                SkeinElem.scalar(-ALPHA)
                + SkeinElem.scalar(LaurentPoly({0: 1, 1: 1}) * neg_alpha_pow(q * r - m)) * H * C
            )
            assert got == expected

    def test_zero_twist_two_cable_of_cable(self):
        got = eval_tree(expand(two_cable_of_cable(0), 1, 1))
        assert got == SkeinElem.scalar(-ONE_PLUS_INV_ALPHA) * C * C

    def test_kb_tree_normalizes_at_minus_one(self):
        tree = expand(kb_root(Q, T), Q, R)
        assert eval_tree(tree).evaluate_alpha(-1) == {(0, 0): 1}


def product_form(c0, c1, u, v, q, r, t):
    """c0 + c1 (u - v X HC)(u - v Y C^2) with X = (-a)^{q(r-t)} and
    Y = (-a)^{-qt}, by ring products: the shape both closed forms and their
    difference are written in."""
    x, y = neg_alpha_pow(q * (r - t)), neg_alpha_pow(-q * t)
    first = SkeinElem.scalar(u) - SkeinElem.scalar(v * x) * H * C
    second = SkeinElem.scalar(u) - SkeinElem.scalar(v * y) * C * C
    return SkeinElem.scalar(c0) + SkeinElem.scalar(c1) * first * second


# (c0, c1, u, v) of each form, from the docstrings' products; the difference
# is U (1 - X HC)(1 - Y C^2) with U = a(1+a)^2(a^2-1) = -a - 2a^2 + 2a^4 + a^5
PRODUCT_FACTORS = {
    closed_form_kb: (-ALPHA, LaurentPoly({0: 1, 1: 1}), LaurentPoly({2: 1}), LaurentPoly({0: -1, 2: 1})),
    closed_form_kg: (LaurentPoly({2: 1}), LaurentPoly({0: 1, 2: -1}), ALPHA, LaurentPoly({0: 1, 1: 1})),
    difference: (0, LaurentPoly({1: -1, 2: -2, 4: 2, 5: 1}), 1, 1),
}


class TestClosedForms:
    def test_tree_equals_closed_form_for_production_params(self):
        assert eval_tree(expand(kb_root(Q, T), Q, R)) == closed_form_kb(Q, R, T)
        assert eval_tree(expand(kg_root(Q, T), Q, R)) == closed_form_kg(Q, R, T)

    def test_tree_equals_closed_form_randomized(self):
        rng = random.Random(77)
        for _ in range(20):
            q, r = rng.randint(-6, 6), rng.randint(-6, 6)
            t = rng.randint(-50, 50)
            m = q * t
            kb = eval_tree(expand(banded_iterated_double(1, 0, 2, m), q, r))
            kg = eval_tree(expand(banded_iterated_double(2, 0, 1, m), q, r))
            assert kb == closed_form_kb(q, r, t)
            assert kg == closed_form_kg(q, r, t)
            assert kb - kg == difference(q, r, t)

    def test_trees_equal_closed_forms_in_the_free_ring(self):
        # Kronecker's substitution (``expand``'s docstring): a^i X^j Y^k
        # becomes a^(i + jK + kK^2) here, so equality at this one point is
        # equality in the free ring while every exponent stays small
        K = 2**10
        q, r, t = 1, K, K * K
        nodes = {}
        kb = eval_tree(expand(kb_root(q, t), q, r, nodes))
        kg = eval_tree(expand(kg_root(q, t), q, r, nodes))
        assert kb == closed_form_kb(q, r, t)
        assert kg == closed_form_kg(q, r, t)
        assert kb - kg == difference(q, r, t)
        for value in [node.value for node in nodes.values()] + [kb, kg, difference(q, r, t)]:
            for _, poly in value.items():
                for e, _ in poly.items():
                    digits = []
                    for _ in range(3):
                        digits.append((e + K // 2) % K - K // 2)
                        e = (e - digits[-1]) // K
                    assert e == 0 and all(abs(d) < K // 4 for d in digits)

    def test_difference_matches_closed_forms(self):
        assert closed_form_kb(Q, R, T) - closed_form_kg(Q, R, T) == difference(Q, R, T)

    @PROFILE
    @given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
    @example(Q, R, T)
    @example(0, 0, 0)
    @example(-3, 5, -7)
    def test_identities_hold_for_every_tuple(self, q, r, t):
        # each form equals its product, multiplied out in the ring: the
        # reference shares no code with the templates the forms shift
        forms = {}
        for form, factors in PRODUCT_FACTORS.items():
            forms[form] = form(q, r, t)
            assert forms[form] == product_form(*factors, q, r, t)
            assert dict(forms[form].items()).keys() == {(0, 0), (1, 1), (0, 2), (1, 3)}
        assert forms[closed_form_kb] - forms[closed_form_kg] == forms[difference]
        assert forms[closed_form_kb].evaluate_alpha(-1) == forms[closed_form_kg].evaluate_alpha(-1) == {(0, 0): 1}

    def test_normalization_at_minus_one(self):
        assert closed_form_kb(Q, R, T).evaluate_alpha(-1) == {(0, 0): 1}
        assert closed_form_kg(Q, R, T).evaluate_alpha(-1) == {(0, 0): 1}
        assert difference(Q, R, T).evaluate_alpha(-1) == {}


class TestUnitObstruction:
    def test_unit_substitution_can_kill_a_factor(self):
        # with -q*t = -2, substituting the unit a for C zeroes 1 - (-a)^{-2} C^2
        d = difference(1, 1, 2)
        collapsed = d.substitute(c_value=ALPHA)
        assert collapsed.is_zero()

    @PROFILE
    @given(non_units, st.integers(-60, 60), st.integers(1, 6), st.integers(-20, 20), st.integers(-60, 60))
    @example(TREFOIL_GAMMA, 3, 1, 1, -3)
    @example(TREFOIL_GAMMA, 0, 1, 1, 0)
    @example(TREFOIL_GAMMA, -2, 1, 1, 2)
    @example(TREFOIL_GAMMA, -21, 1, 1, 21)
    def test_non_unit_substitution_cannot(self, gamma, k, q, r, t):
        # 1 = (-a)^k gamma^2 would make gamma a unit, so certify_slope's
        # non-unit check implies that the substituted difference is nonzero
        assert not (LaurentPoly.one() - neg_alpha_pow(k) * gamma**2).is_zero()
        assert not difference(q, r, t).substitute(c_value=gamma).is_zero()


class TestPrettyPrinter:
    def test_labels(self):
        text = format_tree(expand(kb_root(Q, T), Q, R))
        assert "[D^1 o D^2_{42}]" in text
        assert "[Cbar_{84,2}]" in text
        assert "lk=-42" in text
        assert "C(R)" in text and "[H]" in text and "U" in text

    def test_omits_zero_twist_subscript(self):
        assert banded_double(2, 0).label() == "[D^2]"
        assert banded_double(2, 7).label() == "[D^2_{7}]"

    @pytest.mark.parametrize("root, q, r, text", GOLDEN_TREES, ids=["kb", "kg", "zero-clasp-inner"])
    def test_full_text_is_golden(self, root, q, r, text):
        assert format_tree(expand(root, q, r)) == text
