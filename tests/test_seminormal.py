"""Attractor classes, canonical forms, word equality."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from srw import seminormal
from srw.hecke import classify_rule, hecke_system
from srw.seminormal import (
    MEMO_WORDS,
    Inexact,
    NotOneClass,
    attractor,
    attractors,
    canon,
    words_equal,
)
from srw.words import Rule, SrsSystem, find_redexes

from oracles import all_words, attractor_classes, congruence_closure, fixpoint_reach


def _h3():
    return hecke_system(3, "rdoubleprime")


def _seminormal(w, sys):
    """Whether every descendant of w reaches w back, by fixpoint closures."""
    return all(w in fixpoint_reach(x, sys) for x in fixpoint_reach(w, sys))


def test_attractor_frozen_examples():
    sys = _h3()
    a = attractor((1, 1, 3, 1), sys)
    assert a.members == frozenset({(1, 3), (3, 1)})
    assert a.canon == (1, 3)
    assert attractor((1, 1, 1), sys).members == frozenset({(1,)})
    assert attractor((2, 1, 2), sys).members == frozenset({(1, 2, 1)})
    assert canon((1, 1, 3, 1), sys) == (1, 3)
    assert canon((), sys) == ()


def test_is_seminormal():
    sys = _h3()
    for w in [(1, 3), (3, 1), (1, 2, 1), ()]:
        assert w in attractor(w, sys).members, w
    for w in [(1, 1), (2, 1, 2)]:
        assert w not in attractor(w, sys).members, w


def test_is_seminormal_iff_in_own_attractor():
    sys = _h3()
    for w in all_words(3, 5):
        assert _seminormal(w, sys) == (w in attractor(w, sys).members), w


def test_seminormal_members_all_seminormal():
    sys = _h3()
    for w in [(1, 1, 3, 1), (3, 2, 1, 3), (2, 1, 2, 2)]:
        for m in attractor(w, sys).members:
            assert _seminormal(m, sys)
            assert attractor(m, sys).members == attractor(w, sys).members


def test_not_one_class():
    sys = SrsSystem(
        n=3, rules=(Rule("r2", (1,), (2,)), Rule("r3", (1,), (3,)))
    )
    with pytest.raises(NotOneClass):
        attractor((1,), sys)


def test_inexact_on_truncated_graph():
    grow = SrsSystem(n=1, rules=(Rule("g", (1,), (1, 1)),))
    with pytest.raises(ValueError):
        attractor((1,), grow)
    with pytest.raises(Inexact, match="^descendant graph of 1 truncated at 5 words$"):
        attractor((1,), grow, max_words=5)


def _memo_words() -> int:
    return sum(map(len, seminormal._MEMO.values()))


def test_memo_is_bounded(monkeypatch):
    # A small bound, so that a few queries overflow it many times over.
    bound = 200
    monkeypatch.setattr(seminormal, "MEMO_WORDS", bound)
    monkeypatch.setattr(seminormal, "_MEMO", {})
    sys = hecke_system(4, "rfull")
    oracle: dict = {}
    passed: set = set()
    held = []
    for w in itertools.islice(itertools.product((4, 3, 2, 1), repeat=6), 0, None, 97):
        found = attractor(w, sys)
        held.append(_memo_words())
        assert held[-1] <= bound
        assert attractor_classes(w, sys, oracle) == {found.members}, w
        passed |= fixpoint_reach(w, sys)
    assert len(passed) > 3 * bound
    assert any(b < a for a, b in zip(held, held[1:]))  # it overflowed
    # Bounded queries of a word the memo knows: each bound that fits gives
    # the unbounded answer, and one that does not still truncates.
    assert MEMO_WORDS >= 32768  # a word_problem pass records about 29,000 words
    h3 = _h3()
    for cap in (1, 2, 5, MEMO_WORDS + 50):
        assert attractor((1,), h3, cap) == attractor((1,), h3)
    word = (3, 2, 1, 3, 2, 1, 3, 2)
    assert canon(word, h3) == canon(word, h3, 1000)
    with pytest.raises(Inexact, match="^descendant graph of 32132132 truncated at 10 words$"):
        canon(word, h3, 10)


_STREAM_SYSTEMS = {
    "h3": hecke_system(3, "rfull"),
    "h4": hecke_system(4, "rfull"),
    "p3": hecke_system(3, "rprime"),
}
# Starts that settle into two classes on rprime, or that outgrow small bounds.
_FIXED_STARTS = [(3, 2, 3, 1), (1, 3, 2, 3, 1), (3, 2, 1, 3, 2, 1, 3, 2), (2, 1, 2, 3, 2)]


@st.composite
def _calls(draw):
    name = draw(st.sampled_from(sorted(_STREAM_SYSTEMS)))
    n = _STREAM_SYSTEMS[name].n
    # Fixed starts come up often, so that one start is asked both with and
    # without a bound in one stream.
    fixed = st.sampled_from([w for w in _FIXED_STARTS if max(w) <= n])
    words = st.one_of(fixed, fixed, st.lists(st.integers(1, n), max_size=7).map(tuple))
    kind = draw(st.sampled_from(["canon", "words_equal", "attractors", "evict"]))
    return kind, name, draw(st.lists(words, min_size=2, max_size=4)), draw(
        st.one_of(st.none(), st.integers(1, 40))
    )


def _outcome(kind, name, ws, bound):
    sys = _STREAM_SYSTEMS[name]
    try:
        if kind == "canon":
            return canon(ws[0], sys, bound)
        if kind == "words_equal":
            return words_equal(ws[0], ws[1], sys, bound)
        return list(attractors(ws, sys, bound).items())
    except (Inexact, NotOneClass) as exc:
        return type(exc), str(exc)


@given(st.lists(_calls(), min_size=1, max_size=12), st.randoms())
@settings(max_examples=100, deadline=None)
def test_memo_stream_matches_empty_memo(calls, rnd):
    kept = seminormal._MEMO
    seminormal._MEMO = {}
    try:
        for kind, name, ws, bound in calls:
            if kind == "evict":  # drop a random part of every recorded class
                for memo in seminormal._MEMO.values():
                    for w in rnd.sample(sorted(memo), len(memo) // 2):
                        del memo[w]
                continue
            got = _outcome(kind, name, ws, bound)
            stream = seminormal._MEMO
            seminormal._MEMO = {}
            try:
                assert got == _outcome(kind, name, ws, bound), (kind, name, ws, bound)
            finally:
                seminormal._MEMO = stream
    finally:
        seminormal._MEMO = kept


def test_partly_recorded_sink_class(monkeypatch):
    monkeypatch.setattr(seminormal, "_MEMO", {})
    sys = _h3()
    whole = attractor((1, 1, 3, 1), sys)
    assert whole.members == frozenset({(1, 3), (3, 1)})
    memo = seminormal._MEMO[sys]
    for w in list(memo):  # keep one member of the class, as an eviction might
        if w != (1, 3):
            del memo[w]
    # 31 is explored again, and its only step leads to the leaf 13.
    assert attractor((3, 1), sys) == whole
    assert attractor((1, 1, 3, 1), sys) == whole
    assert memo[(3, 1)] == memo[(1, 3)] == frozenset({whole})


@pytest.mark.parametrize(
    "n,variant,max_len", [(3, "rfull", 6), (3, "rdoubleprime", 6), (4, "rfull", 5)]
)
def test_attractors_match_oracle(n, variant, max_len):
    sys = hecke_system(n, variant)
    words = list(all_words(n, max_len))
    found = attractors(words, sys)
    assert list(found) == words
    memo: dict = {}
    for w in words:
        assert attractor_classes(w, sys, memo) == {found[w].members}, w
        assert found[w].canon == min(found[w].members)


_RANK3_WORDS = st.lists(st.integers(1, 3), max_size=6).map(tuple)


@given(st.lists(_RANK3_WORDS, min_size=1, max_size=10), st.randoms())
@settings(max_examples=60, deadline=None)
def test_attractors_batch_equals_single(ws, rnd):
    sys = hecke_system(3, "rfull")
    batch = ws + ws[: len(ws) // 2]
    rnd.shuffle(batch)
    found = attractors(batch, sys)
    assert set(found) == set(batch)
    for w in batch:
        assert found[w] == attractors((w,), sys)[w]


def test_attractors_batch_with_one_nonconfluent_start():
    sys = hecke_system(3, "rprime")
    assert set(attractors([(1, 3), (2,), (3, 2, 1)], sys)) == {(1, 3), (2,), (3, 2, 1)}
    with pytest.raises(NotOneClass, match="3231 settles into 2"):
        attractors([(1, 3), (3, 2, 3, 1), (2,)], sys)


def test_words_equal_frozen():
    sys = _h3()
    assert words_equal((2, 1, 2), (1, 2, 1), sys)
    assert words_equal((1, 3), (3, 1), sys)
    assert not words_equal((1, 3), (1, 2), sys)
    assert words_equal((), (), sys)


def test_attractor_loop_steps_commutations_only():
    sys = _h3()
    members = attractor((1, 1, 3, 1), sys).members
    steps = [s for m in members for s in find_redexes(m, sys)]
    assert steps
    assert all(s.target in members for s in steps)  # sink classes are closed
    assert all(classify_rule(s.rule)[0] in ("cf", "ci") for s in steps)
    assert {s.source for s in steps} == {(1, 3), (3, 1)}


def test_words_equal_matches_congruence_oracle():
    sys = hecke_system(2, "rdoubleprime")
    max_len = 5
    uf = congruence_closure(sys, max_len)
    words = [
        w
        for length in range(max_len + 1)
        for w in itertools.product((1, 2), repeat=length)
    ]
    for u in words:
        for v in words:
            assert words_equal(u, v, sys) == uf.same(u, v)


@given(st.lists(st.integers(1, 3), max_size=6), st.lists(st.integers(1, 3), max_size=6))
@settings(max_examples=150, deadline=None)
def test_canon_is_a_class_invariant(a, b):
    sys = _h3()
    u, v = tuple(a), tuple(b)
    if words_equal(u, v, sys):
        assert canon(u, sys) == canon(v, sys)
    else:
        assert canon(u, sys) != canon(v, sys)
