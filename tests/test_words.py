"""Words, rules, instances, paths, zigzags, systems, reachability."""

import dataclasses

import pytest
from hypothesis import example, given, settings, strategies as st

from srw.words import (
    BACKWARD,
    FORWARD,
    Path,
    Rule,
    RuleInstance,
    SourceMismatch,
    SrsSystem,
    Zigzag,
    explore,
    find_redexes,
    reach,
    successors,
    word_from_str,
    word_to_str,
)
from srw.hecke import hecke_system
from srw.order import rule_rank_order

from oracles import all_words, fixpoint_reach, naive_redexes, tiny_system


def test_word_str_digits():
    assert word_to_str((1, 2, 3), 3) == "123"
    assert word_to_str((), 3) == "-"
    assert word_from_str("123", 3) == (1, 2, 3)
    assert word_from_str("-", 3) == ()
    assert word_from_str("", 3) == ()


def test_word_str_wide_alphabet():
    assert word_to_str((10, 2), 12) == "10.2"
    assert word_from_str("10.2", 12) == (10, 2)
    assert word_from_str("-", 12) == ()


@given(st.lists(st.integers(1, 3), max_size=8))
def test_word_str_roundtrip_small(letters):
    w = tuple(letters)
    assert word_from_str(word_to_str(w, 3), 3) == w


@given(st.lists(st.integers(1, 14), max_size=8))
def test_word_str_roundtrip_wide(letters):
    w = tuple(letters)
    assert word_from_str(word_to_str(w, 14), 14) == w


def test_rule_validation():
    with pytest.raises(ValueError):
        Rule("empty", (), (1,))


def test_instance_endpoints_and_whisker():
    r = Rule("swp", (2, 1), (1, 2))
    inst = RuleInstance((1,), r, (2, 2))
    assert inst.source == (1, 2, 1, 2, 2)
    assert inst.target == (1, 1, 2, 2, 2)
    w = inst.whisker((2,), ())
    assert w.source == (2,) + inst.source
    assert inst.render(2) == "1:swp:22"
    assert RuleInstance((), r, ()).render(2) == "-:swp:-"


def test_path_validates_chaining():
    sys = tiny_system()
    dbl = sys.rule("dbl")
    s1 = RuleInstance((), dbl, (1,))  # 111 -> 11
    s2 = RuleInstance((), dbl, ())  # 11 -> 1
    p = Path((1, 1, 1), (s1, s2))
    assert p.end == (1,)
    assert len(p) == 2
    with pytest.raises(SourceMismatch):
        Path((1, 1, 1), (s2,))
    with pytest.raises(SourceMismatch):
        Path((1, 1, 1), (s1, s1))


def test_path_whisker_and_concat():
    sys = tiny_system()
    dbl = sys.rule("dbl")
    p = Path((1, 1), (RuleInstance((), dbl, ()),))
    q = p.whisker((2,), (2,))
    assert q.start == (2, 1, 1, 2) and q.end == (2, 1, 2)
    first = Path((1, 1, 1), (RuleInstance((), dbl, (1,)),))
    joined = Path(first.start, first.steps + p.steps)
    assert joined.start == (1, 1, 1) and joined.end == (1,)
    with pytest.raises(SourceMismatch):
        Path(first.start, first.steps + q.steps)
    assert p.render(2) == "-:dbl:-"
    assert Path((1, 2)).render(2) == "-"


def test_zigzag_validation():
    sys = tiny_system()
    dbl = sys.rule("dbl")
    step = RuleInstance((), dbl, ())  # 11 -> 1
    z = Zigzag((1, 1), ((FORWARD, step), (BACKWARD, step)))
    assert z.end == (1, 1)
    assert len(z) == 2
    with pytest.raises(SourceMismatch):
        Zigzag((1,), ((FORWARD, step),))
    with pytest.raises(ValueError):
        Zigzag((1, 1), (("x", step),))


def test_system_validation():
    with pytest.raises(ValueError):
        SrsSystem(n=2, rules=(Rule("r", (1, 1), (1,)), Rule("r", (2, 2), (2,))))
    with pytest.raises(ValueError):
        SrsSystem(n=1, rules=(Rule("r", (1, 2), (1,)),))
    sys = tiny_system()
    assert sys.rule("dbl").lhs == (1, 1)
    with pytest.raises(KeyError):
        sys.rule("nope")
    assert sys.length_nonincreasing()


def test_find_redexes_ordered():
    sys = tiny_system()
    insts = find_redexes((1, 1, 2, 1), sys)
    assert [i.render(2) for i in insts] == ["-:dbl:21", "11:swp:-"]


def _in_scan_order(insts):
    return sorted(insts, key=lambda i: (len(i.left), i.rule.name))


@st.composite
def systems_with_words(draw):
    """Random systems (names shuffled against declaration order, small
    alphabets so first letters repeat) and a word over their alphabet."""
    n = draw(st.integers(1, 3))
    letters = st.integers(1, n)
    sides = draw(
        st.lists(
            st.tuples(
                st.lists(letters, min_size=1, max_size=4),
                st.lists(letters, max_size=3),
            ),
            min_size=1,
            max_size=6,
        )
    )
    names = draw(st.permutations([f"r{k}" for k in range(len(sides))]))
    rules = tuple(
        Rule(name, tuple(lhs), tuple(rhs)) for name, (lhs, rhs) in zip(names, sides)
    )
    return SrsSystem(n=n, rules=rules), tuple(draw(st.lists(letters, max_size=7)))


# Declared out of name order; z, m and b share the first letter 1; z's
# left-hand side overlaps itself; long's is longer than the example words.
_EDGE_SYSTEM = SrsSystem(
    n=2,
    rules=(
        Rule("z", (1, 1, 1), (1,)),
        Rule("m", (1, 2), (2, 1)),
        Rule("long", (2, 1, 2, 1, 2, 1, 2, 1), ()),
        Rule("b", (1,), (2,)),
    ),
)


@given(systems_with_words())
@example((_EDGE_SYSTEM, (1, 1, 1, 1, 2, 1)))
@example((_EDGE_SYSTEM, ()))
@example((tiny_system(), (1, 1, 2, 1)))
@settings(max_examples=300)
def test_find_redexes_matches_oracle(case):
    sys, w = case
    assert find_redexes(w, sys) == _in_scan_order(naive_redexes(w, sys))


def test_find_redexes_matches_oracle_rank4_rfull():
    sys = hecke_system(4, "rfull")
    for w in all_words(4, 6):
        assert find_redexes(w, sys) == _in_scan_order(naive_redexes(w, sys))


@given(systems_with_words())
@example((_EDGE_SYSTEM, (1, 1, 1, 1, 2, 1)))
@example((_EDGE_SYSTEM, ()))
@settings(max_examples=300)
def test_successors_are_redex_targets(case):
    sys, w = case
    assert successors(w, sys) == [i.target for i in find_redexes(w, sys)]


def test_successors_are_redex_targets_rank4_rfull():
    sys = hecke_system(4, "rfull")
    for w in all_words(4, 6):
        assert successors(w, sys) == [i.target for i in find_redexes(w, sys)]


# Declared out of name order.  The rules a and s have one letter, so they
# join every bucket whose key starts with 2; p and q share the key 12; q
# and t are longer than their key; at a word's last letter only a and s
# can match.
_MIXED_SYSTEM = SrsSystem(
    n=3,
    rules=(
        Rule("t", (2, 3, 2, 1), (1,)),
        Rule("s", (2,), (1,)),
        Rule("q", (1, 2, 3), (3,)),
        Rule("p", (1, 2), (2, 1)),
        Rule("u", (3, 3), (3,)),
        Rule("a", (2,), ()),
    ),
)


def test_two_letter_keys_match_the_oracle_on_mixed_lengths():
    sys = _MIXED_SYSTEM
    assert [e[0].name for e in sys._table.buckets[2, 3]] == ["a", "s", "t"]
    assert [e[0].name for e in sys._table.buckets[2,]] == ["a", "s"]
    assert [e[0].name for e in sys._table.buckets[1, 2]] == ["p", "q"]
    ends_in_two = 0
    for w in all_words(3, 6):
        insts = find_redexes(w, sys)
        assert insts == _in_scan_order(naive_redexes(w, sys))
        assert successors(w, sys) == [i.target for i in insts]
        ends_in_two += bool(w) and w[-1] == 2 and insts[-1].right == ()
    assert ends_in_two == sum(3**k for k in range(6))


def test_rule_table_grows_with_the_rules_not_the_alphabet():
    n = 2000
    rules = tuple(Rule(f"d{g}", (g, g), (g,)) for g in range(1, n + 1)) + tuple(
        Rule(f"s{g}", (g,), (g + 1,)) for g in range(1, n, 2)
    )
    sys = SrsSystem(n=n, rules=rules)
    buckets = sys._table.buckets
    assert len(buckets) == len(rules)
    assert sum(map(len, buckets.values())) == len(rules) + n // 2
    w = (1, 1, 2, 2, n - 1, n)
    assert find_redexes(w, sys) == _in_scan_order(naive_redexes(w, sys))
    assert successors(w, sys) == [i.target for i in find_redexes(w, sys)]


def test_rule_hash_is_cached_and_follows_equality():
    r = Rule("swp", (2, 1), (1, 2))
    again = Rule("swp", tuple([2, 1]), tuple([1, 2]))
    assert r == again and r is not again
    assert hash(r) == hash(again) == r._hash == hash(("swp", (2, 1), (1, 2)))
    assert r != dataclasses.replace(r, name="swp2") != dataclasses.replace(r, rhs=(2, 1))
    assert len({r, again, dataclasses.replace(r, rhs=(2, 1))}) == 2
    assert "_hash" not in repr(r) and repr(r) == "Rule(name='swp', lhs=(2, 1), rhs=(1, 2))"


def test_system_hash_is_cached_and_follows_equality():
    a = tiny_system()
    ranked = dataclasses.replace(a, order=rule_rank_order({"dbl": 0, "swp": 1}))
    assert ranked == a and hash(ranked) == hash(a) == hash((a.n, a.rules))
    assert hash(a) == hash(a) == a._hash
    renamed = SrsSystem(a.n, (dataclasses.replace(a.rules[0], name="dbl2"),) + a.rules[1:])
    rewired = SrsSystem(a.n, (dataclasses.replace(a.rules[0], rhs=a.rules[0].lhs),) + a.rules[1:])
    assert renamed != a and rewired != a and renamed != rewired
    assert len({a, ranked, renamed, rewired}) == 3
    assert "_hash" not in repr(a) and "_table" not in repr(a) and "dbl" in repr(a)


def test_reach_frozen_example():
    sys = tiny_system()
    res = reach((2, 1, 1), sys)
    assert res.complete
    assert res.words == fixpoint_reach((2, 1, 1), sys)


@given(st.lists(st.integers(1, 2), max_size=7))
@settings(max_examples=100)
def test_reach_matches_fixpoint_oracle(letters):
    sys = tiny_system()
    w = tuple(letters)
    res = reach(w, sys)
    assert res.complete
    assert res.words == fixpoint_reach(w, sys)


def test_reach_lengthening_needs_bound():
    grow = SrsSystem(n=1, rules=(Rule("g", (1,), (1, 1)),))
    with pytest.raises(ValueError):
        reach((1,), grow)
    res = reach((1,), grow, max_words=5)
    assert not res.complete
    assert res.words == {(1,) * k for k in range(1, 6)}


def test_explore_truncates_only_on_a_new_word():
    def grow(w):
        return [w + (1,), w + (2,)] if len(w) < 2 else [w]

    assert explore((), grow) == ({(), (1,), (2,), (1, 1), (1, 2), (2, 1), (2, 2)}, True)
    assert explore((), grow, max_words=3) == ({(), (1,), (2,)}, False)
    # Seven words fill the bound exactly: no eighth turns up, so no cut.
    assert explore((), grow, max_words=7)[1]
    assert not explore((), grow, max_words=6)[1]
