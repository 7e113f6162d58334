"""Instance orders, decreasingness of diagrams, monomiality checks."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from srw.critical import enumerate_critical_pairs
from srw.diagrams import ElementaryDiagram, transpose_ed
from srw.hecke import chosen_critical_ed_tagged, hecke_system
from srw.order import (
    InstanceOrder,
    check_decreasing,
    check_naturals,
    is_decreasing_ed,
    rule_rank_order,
)
from srw.words import Path, Rule, RuleInstance, SrsSystem

from oracles import (
    compared_decreasing,
    monomial_counterexamples,
    natural_square,
    natural_squares_upto,
    tiny_system,
)


def test_rule_rank_order():
    sys = tiny_system()
    ord_ = rule_rank_order({"dbl": 1, "swp": 0})
    a = RuleInstance((), sys.rule("dbl"), ())
    b = RuleInstance((2,), sys.rule("swp"), ())
    assert ord_.greater(a, b)
    assert not ord_.greater(b, a)
    assert ord_.equivalent(a, RuleInstance((1, 2), sys.rule("dbl"), ()))
    by_len = rule_rank_order({"dbl": 0, "swp": 0}, tie="length")
    long = RuleInstance((1, 2), sys.rule("dbl"), ())
    short = RuleInstance((), sys.rule("dbl"), ())
    assert by_len.greater(long, short)
    # The rank decides before the length does.
    ranked = rule_rank_order({"dbl": 1, "swp": 0}, tie="length")
    assert ranked.greater(short, RuleInstance((1, 1), sys.rule("swp"), ()))


def test_hecke_order_idempotence_by_total_length():
    sys = hecke_system(3, "rfull")
    ord_ = sys.order
    a1 = sys.rule("a1")
    wide = RuleInstance((), a1, (2,))
    tight = RuleInstance((), a1, ())
    assert ord_.greater(wide, tight)
    assert ord_.equivalent(wide, RuleInstance((3,), sys.rule("a2"), ()))


def test_hecke_order_families():
    sys = hecke_system(3, "rfull")
    ord_ = sys.order
    b = RuleInstance((), sys.rule("b21"), ())
    cf = RuleInstance((), sys.rule("c31"), ())
    ci = RuleInstance((), sys.rule("c13"), ())
    a = RuleInstance((1, 2, 3), sys.rule("a1"), (1, 2, 3))
    assert ord_.greater(b, cf) and ord_.greater(b, ci) and ord_.greater(b, a)
    assert ord_.greater(cf, a) and ord_.greater(ci, a)
    assert ord_.greater(ci, cf)


def test_hecke_order_forward_commutation_refinement():
    sys = hecke_system(3, "rfull")
    ord_ = sys.order
    c31 = sys.rule("c31")
    assert ord_.greater(RuleInstance((3,), c31, ()), RuleInstance((), c31, (2,)))
    assert ord_.equivalent(RuleInstance((2,), c31, ()), RuleInstance((), c31, (2,)))


def test_hecke_order_braid_normalization():
    sys = hecke_system(3, "rfull")
    ord_ = sys.order
    for w in [(), (1,), (2, 3), (1, 1, 2)]:
        long = RuleInstance((), sys.rule("b31"), w)
        basic = RuleInstance((), sys.rule("b32"), (1,) + w)
        assert ord_.equivalent(long, basic)


def test_hecke_order_inverse_commutations_tie():
    sys = hecke_system(4, "rfull")
    ord_ = sys.order
    c13 = sys.rule("c13")
    assert ord_.equivalent(
        RuleInstance((4,), c13, ()), RuleInstance((), c13, (2, 2))
    )
    assert ord_.greater(
        RuleInstance((), sys.rule("c24"), ()), RuleInstance((), sys.rule("c14"), ())
    )


def _random_instances(seed, count, sys, max_ctx=3):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        rule = rng.choice(sys.rules)
        u = tuple(rng.randint(1, sys.n) for _ in range(rng.randint(0, max_ctx)))
        v = tuple(rng.randint(1, sys.n) for _ in range(rng.randint(0, max_ctx)))
        out.append(RuleInstance(u, rule, v))
    return out


def test_hecke_order_is_total_asymmetric_transitive():
    sys = hecke_system(3, "rfull")
    ord_ = sys.order
    insts = _random_instances(5, 60, sys)
    for a in insts:
        for b in insts:
            g_ab, g_ba = ord_.greater(a, b), ord_.greater(b, a)
            eq = ord_.equivalent(a, b)
            assert g_ab + g_ba + eq == 1  # totality and asymmetry
    for a in insts[:20]:
        for b in insts[:20]:
            for c in insts[:20]:
                if ord_.equivalent(a, b) and ord_.equivalent(b, c):
                    assert ord_.equivalent(a, c)
                if ord_.greater(a, b) and ord_.greater(b, c):
                    assert ord_.greater(a, c)


def test_decreasing_square_of_idempotences():
    sys = hecke_system(2, "rfull")
    a1 = sys.rule("a1")
    top = RuleInstance((1,), a1, ())
    left = RuleInstance((), a1, (1,))
    mid = RuleInstance((), a1, ())
    ed = ElementaryDiagram(
        top=top,
        left=left,
        right=Path(top.target, (mid,)),
        bottom=Path(left.target, (mid,)),
    )
    ok, wit = is_decreasing_ed(sys.order, ed)
    assert ok and (wit.j, wit.s) == (0, 0)


def test_not_decreasing_reports_reason():
    sys = tiny_system()
    ord_ = rule_rank_order({"dbl": 0, "swp": 1})
    # 1121 -> 121 -> 112: closing a dbl/dbl corner through the bigger swp rule
    top = RuleInstance((), sys.rule("dbl"), (2, 1))
    left = RuleInstance((), sys.rule("dbl"), (2, 1))
    swp = RuleInstance((1,), sys.rule("swp"), ())
    bad = ElementaryDiagram(
        top=top,
        left=left,
        right=Path(top.target, (swp,)),
        bottom=Path(left.target, (swp,)),
    )
    ok, wit = is_decreasing_ed(ord_, bad)
    assert not ok and wit.reason


def test_natural_square_decreasing_under_hecke_order():
    sys = hecke_system(3, "rfull")
    squares = {
        w: ElementaryDiagram(*ed)
        for (r1, w, r2), ed in natural_squares_upto(sys, 3)
        if (r1.name, r2.name) == ("a1", "c31")
    }
    for w in [(), (1,), (2, 2), (3, 1, 2)]:
        ed = squares[w]
        ok, _ = is_decreasing_ed(sys.order, ed)
        assert ok
        ok, _ = is_decreasing_ed(sys.order, transpose_ed(ed))
        assert ok


def test_decreasing_is_transpose_invariant():
    # Why the suite checks each natural square once, not also transposed.
    # A rule-rank order by position in the rule list also exercises the
    # failing side: under it some of the diagrams are not decreasing.
    sys = hecke_system(3, "rfull")
    diagrams = [ed for _, ed in natural_squares_upto(sys, 2)]
    diagrams += [chosen_critical_ed_tagged(p, sys)[0] for p in enumerate_critical_pairs(sys)]
    assert len(diagrams) == 832 + 50
    by_position = rule_rank_order({r.name: i for i, r in enumerate(sys.rules)})
    for order in (sys.order, by_position):
        verdicts = set()
        for ed in diagrams:
            ok, wit = is_decreasing_ed(order, ed)
            ok_t, wit_t = is_decreasing_ed(order, transpose_ed(ed))
            assert ok == ok_t
            assert (wit_t.j, wit_t.s) == (wit.s, wit.j)
            verdicts.add(ok)
        assert verdicts == ({True} if order is sys.order else {True, False})


def test_keyed_check_matches_per_comparison_oracle():
    """`is_decreasing_ed` keys each step once; the oracle asks the order on
    each comparison.  Every curated diagram and its transpose at ranks 3-5
    and the rank-3 natural squares up to separator length 2 get the same
    verdict, split indices and reason, under the hecke order and under
    rule-rank orders, which fail some of them."""
    full3 = hecke_system(3, "rfull")
    cases = [(full3, ed) for _, ed in natural_squares_upto(full3, 2)]
    for n in (3, 4, 5):
        sys = hecke_system(n, "rfull")
        for p in enumerate_critical_pairs(sys):
            ed = chosen_critical_ed_tagged(p, sys)[0]
            cases += [(sys, ed), (sys, transpose_ed(ed))]
    assert len(cases) == 832 + 2 * (50 + 146 + 326)
    verdicts = set()
    for sys, ed in cases:
        by_position = rule_rank_order({r.name: i for i, r in enumerate(sys.rules)})
        for order in (sys.order, rule_rank_order({}), by_position):
            ok, wit = is_decreasing_ed(order, ed)
            got = (ok, wit.j, wit.s, wit.reason)
            assert got == compared_decreasing(order, ed), (order.name, ed)
            verdicts.add((order is sys.order, ok))
    assert verdicts == {(True, True), (False, True), (False, False)}


def test_check_decreasing_counts_and_labels_failures():
    sys = tiny_system()
    ord_ = rule_rank_order({"dbl": 0, "swp": 1})
    top = RuleInstance((), sys.rule("dbl"), (2, 1))
    swp = RuleInstance((1,), sys.rule("swp"), ())
    bad = ElementaryDiagram(
        top=top,
        left=top,
        right=Path(top.target, (swp,)),
        bottom=Path(top.target, (swp,)),
    )
    good = ElementaryDiagram(*natural_square(sys.rule("dbl"), (), sys.rule("dbl")))
    rep = check_decreasing(ord_, [("good", good), ("bad", bad), ("none", None)])
    assert rep.checked == 3 and not rep.ok
    assert [label for label, _ in rep.failures] == ["bad", "none"]
    assert rep.failures[0][1] == is_decreasing_ed(ord_, bad)[1].reason
    assert rep.failures[1][1] == "no joining square"
    assert check_decreasing(ord_, []).ok


# --- natural squares under a rule-rank order ----------------------------------


@st.composite
def _ranked_systems(draw, tie):
    """Small systems, erasing and lengthening rules among them, under a
    rule-rank order with two ranks, so that ranks often tie."""
    n = draw(st.integers(1, 3))
    letters = st.integers(1, n)
    sides = draw(
        st.lists(
            st.tuples(
                st.lists(letters, min_size=1, max_size=3), st.lists(letters, max_size=3)
            ),
            min_size=1,
            max_size=4,
        )
    )
    rules = tuple(Rule(f"r{k}", tuple(lhs), tuple(rhs)) for k, (lhs, rhs) in enumerate(sides))
    ranks = {r.name: draw(st.integers(0, 1)) for r in rules}
    return SrsSystem(n, rules, order=rule_rank_order(ranks, tie))


@pytest.mark.parametrize("tie", ["equivalent", "length"])
@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_rule_rank_key_is_additive(tie, data):
    """What `check_naturals` needs of an order: the head is fixed by the
    rule, and inserting letters x into either context shifts the rest of
    the key by a vector that depends on the rule, x and the side only."""
    sys = data.draw(_ranked_systems(tie))
    rule = data.draw(st.sampled_from(sys.rules))
    words = st.lists(st.integers(1, sys.n), max_size=6).map(tuple)
    a, b, x = data.draw(words), data.draw(words), data.draw(words)

    def key(left, right):
        return sys.order.key(RuleInstance(left, rule, right))

    def delta(left, right, base_left, base_right):
        stats, base = key(left, right)[1:], key(base_left, base_right)[1:]
        assert len(stats) == len(base)
        return tuple(p - q for p, q in zip(stats, base))

    assert key(a, b)[0] == key((), ())[0]
    k = data.draw(st.integers(0, len(a)))
    assert delta(a[:k] + x + a[k:], b, a, b) == delta(x, (), (), ())
    k = data.draw(st.integers(0, len(b)))
    assert delta(a, b[:k] + x + b[k:], a, b) == delta((), x, (), ())


@pytest.mark.parametrize("tie", ["equivalent", "length"])
@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_check_naturals_fails_what_enumeration_fails(tie, data):
    """Per rule pair, the verdict from the w = () square against
    `check_decreasing` over the pair's squares with |w| <= 2: a pair fails
    exactly when some enumerated square is not decreasing.  A rule-rank
    order leaves no pair undecided."""
    sys = data.draw(_ranked_systems(tie))
    rep = check_naturals(sys.order, [(r1, r2) for r1 in sys.rules for r2 in sys.rules])
    assert rep.checked == len(sys.rules) ** 2 and not rep.ties
    failed = {label for label, _ in rep.failures}
    by_pair = {}
    for (r1, w, r2), ed in natural_squares_upto(sys, 2):
        by_pair.setdefault((r1, r2), []).append((w, ed))
    for pair, squares in by_pair.items():
        assert (pair in failed) == (not check_decreasing(sys.order, squares).ok), pair


def test_monomial_sample_hecke_order_clean():
    sys = hecke_system(3, "rfull")
    assert not monomial_counterexamples(sys.order, sys, trials=500, seed=3)


def _first_letter_order() -> InstanceOrder:
    """Compare instances by the first letter of their left context.

    Looks as if it measures the context, but whiskering on the left
    changes the first letter, so verdicts flip under composition.
    """
    return InstanceOrder(name="first-letter", key=lambda a: (a.left[0] if a.left else 0,))


def test_monomial_sample_catches_broken_order():
    sys = hecke_system(3, "rfull")
    assert monomial_counterexamples(_first_letter_order(), sys, trials=500, seed=3)
