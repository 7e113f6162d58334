"""Attractor classes, canonical forms, word equality."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from srw import seminormal
from srw.hecke import classify_rule, hecke_system
from srw.seminormal import (
    MEMO_WORDS,
    Inexact,
    NoDescent,
    NotOneClass,
    attractor,
    attractors,
    canon,
    descend,
    sink_forms,
    words_equal,
)
from srw.traces import normal_form
from srw.words import Rule, SrsSystem, find_redexes

from oracles import (
    all_words,
    attractor_classes,
    commutation_class,
    congruence_closure,
    fixpoint_reach,
    labelled_class,
)


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


def _w0(n):
    """The longest element's word 1 21 321 ... n(n-1)...1, irreducible in rfull."""
    return tuple(a for k in range(1, n + 1) for a in range(k, 0, -1))


def test_members_are_listed_only_when_read(monkeypatch):
    monkeypatch.setattr(seminormal, "_MEMO", {})
    found = attractor(_w0(6), hecke_system(6, "rfull"))
    assert found.canon == _w0(6)
    assert "members" not in vars(found)
    assert found.canon in found.members
    assert "members" in vars(found)


@pytest.mark.parametrize("n,size", [(4, 12), (5, 286)])
def test_members_of_the_longest_element_are_its_class(n, size):
    members = attractor(_w0(n), hecke_system(n, "rfull")).members
    assert members == commutation_class(_w0(n), n)
    assert len(members) == size


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


def test_inexact_names_the_start_that_overflows_the_shared_graph():
    # On rprime, 212 and 323 have two-node word graphs each: either fits
    # three nodes alone, but the shared graph of both does not.
    sys = hecke_system(3, "rprime")
    u, v = (2, 1, 2), (3, 2, 3)
    assert attractors([u], sys, 3)[u].canon == (1, 2, 1)
    assert attractors([v], sys, 3)[v].canon == (2, 3, 2)
    with pytest.raises(Inexact, match="^descendant graph of 323 truncated at 3 words$"):
        attractors([u, v], sys, 3)


def _memo_words() -> int:
    return sum(map(len, seminormal._MEMO.values()))


def _word_graph_only(mp) -> None:
    """Send every query to the word graph: no system passes the quotient
    route's eligibility check."""
    mp.setattr(seminormal, "_premises", lambda sys: None)


def test_memo_is_bounded(monkeypatch):
    # A small bound, so that a few queries overflow it many times over.
    bound = 200
    monkeypatch.setattr(seminormal, "MEMO_WORDS", bound)
    monkeypatch.setattr(seminormal, "_MEMO", {})
    _word_graph_only(monkeypatch)
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
    assert MEMO_WORDS >= 32768  # a word_problem pass on the word graph records about 29,000
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
    _word_graph_only(monkeypatch)
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


def test_quotient_memo_is_bounded(monkeypatch):
    # The quotient route records class normal forms under the same bound.
    bound = 40
    monkeypatch.setattr(seminormal, "MEMO_WORDS", bound)
    monkeypatch.setattr(seminormal, "_MEMO", {})
    sys = hecke_system(4, "rfull")
    independent, _ = seminormal._premises(sys)
    oracle: dict = {}
    held = []
    for w in itertools.islice(itertools.product((4, 3, 2, 1), repeat=6), 0, None, 97):
        found = attractor(w, sys)
        held.append(_memo_words())
        assert held[-1] <= bound
        assert attractor_classes(w, sys, oracle) == {found.members}, w
        assert all(normal_form(k, independent) == k for k in seminormal._MEMO[sys])  # class normal forms
    assert any(b < a for a, b in zip(held, held[1:]))  # it overflowed


def _both_routes(words, sys):
    """Each word's answer on an empty memo, by the default route and then
    by the word graph alone: its sink class, or NotOneClass's message."""

    def answers():
        out = {}
        for w in words:
            try:
                out[w] = attractor(w, sys)
            except NotOneClass as exc:
                out[w] = str(exc)
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(seminormal, "_MEMO", {})
        default = answers()
        mp.setattr(seminormal, "_MEMO", {})
        _word_graph_only(mp)
        return default, answers()


@pytest.mark.parametrize("n,variant", [(4, "rfull"), (3, "rdoubleprime"), (4, "rdoubleprime")])
def test_quotient_route_matches_word_graph(n, variant):
    sys = hecke_system(n, variant)
    assert seminormal._premises(sys) is not None
    quotient, graph = _both_routes(all_words(n, 6), sys)
    assert quotient == graph


def _swap_pairs(rules, pairs):
    for s, t in sorted(pairs):
        rules += [Rule(f"c{s}{t}", (s, t), (t, s)), Rule(f"c{t}{s}", (t, s), (s, t))]
    return rules


@st.composite
def _paired_systems(draw):
    """Paired interchanges, plus random rules that lower the measure and
    whose right-hand sides use only letters of their left-hand sides."""
    n = draw(st.integers(2, 4))
    letter = st.integers(1, n)
    pairs = draw(st.sets(st.tuples(letter, letter).filter(lambda p: p[0] < p[1]), max_size=3))
    rules = _swap_pairs([], pairs)
    lhss = draw(st.lists(st.lists(letter, min_size=1, max_size=3).map(tuple), min_size=1, max_size=5))
    for k, lhs in enumerate(lhss):
        rhs = tuple(draw(st.lists(st.sampled_from(lhs), min_size=len(lhs) - 1, max_size=len(lhs))))
        if seminormal._measure(rhs, n) < seminormal._measure(lhs, n):
            rules.append(Rule(f"r{k}", lhs, rhs))
    return SrsSystem(n, tuple(rules))


@given(_paired_systems(), st.data())
@settings(max_examples=100, deadline=None)
def test_quotient_route_matches_word_graph_on_random_systems(sys, data):
    assert seminormal._premises(sys) is not None
    word = st.lists(st.integers(1, sys.n), min_size=2, max_size=6).map(tuple)
    words = data.draw(st.lists(word, min_size=4, max_size=8))
    quotient, graph = _both_routes(words, sys)
    assert quotient == graph


def test_every_placement_of_a_rule_counts():
    # 2 commutes with 1 and 3, so 2131's class holds 12 at two placements,
    # in 1231 and in 1312; erasing it leaves 31 or 13, two classes.  The
    # first placement alone would reach only 31.
    sys = SrsSystem(3, tuple(_swap_pairs([Rule("e", (1, 2), ())], {(1, 2), (2, 3)})))
    assert seminormal._premises(sys) is not None
    with pytest.raises(NotOneClass, match="^2131 settles into 2 distinct classes$"):
        attractor((2, 1, 3, 1), sys)
    quotient, graph = _both_routes(all_words(3, 5), sys)
    assert quotient == graph


_BASE = _swap_pairs(
    [Rule("a1", (1, 1), (1,)), Rule("a3", (3, 3), (3,)), Rule("b", (2, 1, 2), (1, 2, 1))], {(1, 3)}
)


@pytest.mark.parametrize(
    "rules",
    [
        [r for r in _BASE if r.name != "c13"],  # an interchange without its inverse
        _BASE + [Rule("p", (1, 2, 1), (2, 1, 1))],  # keeps the measure, swaps no two letters
        _BASE + [Rule("x", (3,), (2,))],  # lowers the measure, but 2 is not in its lhs
    ],
    ids=["unpaired", "not-lower", "rhs-letter"],
)
def test_each_broken_premise_keeps_the_word_graph(rules):
    assert seminormal._premises(SrsSystem(3, tuple(_BASE))) is not None
    sys = SrsSystem(3, tuple(rules))
    assert seminormal._premises(sys) is None
    words = all_words(3, 5)
    default, graph = _both_routes(words, sys)
    assert default == graph
    oracle: dict = {}
    for w in words:
        classes = attractor_classes(w, sys, oracle)
        if isinstance(default[w], str):
            assert default[w] == f"{sys.fmt(w)} settles into {len(classes)} distinct classes"
        else:
            assert classes == {default[w].members}, w


def test_an_rhs_letter_outside_the_lhs_splits_a_class():
    # 13 and 31 are one class, but 3 -> 2 sends them to 12 and 21, two
    # classes: one placement of the lhs, two targets modulo commutations.
    sys = SrsSystem(3, tuple(_BASE + [Rule("x", (3,), (2,))]))
    with pytest.raises(NotOneClass, match="^13 settles into 2 distinct classes$"):
        attractor((1, 3), sys)


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


@pytest.mark.parametrize("n, max_len, count", [(3, 6, 1093), (4, 5, 1365)])
def test_descent_matches_canon_on_rfull(n, max_len, count, monkeypatch):
    """The first-placement descent ends at the graph route's canon on every
    rfull word of up to max_len letters, each from empty memos (longest
    words first, so that descents run whole chains)."""
    monkeypatch.setattr(seminormal, "_MEMO", {})
    monkeypatch.setattr(seminormal, "_DESCENTS", {})
    sys = hecke_system(n, "rfull")
    words = all_words(n, max_len)[::-1]
    assert len(words) == count
    descents = [descend(w, sys) for w in words]
    assert [w for w, d in zip(words, descents) if d != canon(w, sys)] == []


def test_descent_needs_the_quotient_premises():
    with pytest.raises(NoDescent, match="paired with its inverse"):
        descend((3, 2, 1), hecke_system(3, "rprime"))
    assert descend((2, 1, 2, 2), hecke_system(2, "rprime")) == (1, 2, 1)


def test_descent_memo_shares_the_bound(monkeypatch):
    # Descents and attractors together stay under one bound.
    sys = hecke_system(4, "rfull")
    words = list(itertools.islice(itertools.product((4, 3, 2, 1), repeat=6), 0, None, 97))
    want = [canon(w, sys) for w in words]
    bound = 40
    monkeypatch.setattr(seminormal, "MEMO_WORDS", bound)
    monkeypatch.setattr(seminormal, "_MEMO", {})
    monkeypatch.setattr(seminormal, "_DESCENTS", {})
    held = []
    for w, c in zip(words, want):
        assert descend(w, sys) == c == attractor(w, sys).canon, w
        held.append(_memo_words() + sum(map(len, seminormal._DESCENTS.values())))
        assert held[-1] <= bound
        assert all(descend(k, sys, {}) == d for k, d in seminormal._DESCENTS[sys].items())
    assert any(b < a for a, b in zip(held, held[1:]))  # it overflowed


def test_sink_forms_are_lazy():
    # Every word without 11 is a sink form: infinitely many, listed lazily.
    sys = SrsSystem(2, (Rule("a1", (1, 1), (1,)),))
    assert list(itertools.islice(sink_forms(sys), 8)) == [
        (), (1,), (2,), (1, 2), (2, 1), (2, 2), (1, 2, 1), (1, 2, 2),
    ]


def test_sink_forms_need_the_quotient_premises():
    forms = sink_forms(hecke_system(3, "rprime"))
    with pytest.raises(NoDescent, match="paired with its inverse"):
        next(forms)


@given(_paired_systems())
@settings(max_examples=60, deadline=None)
def test_sink_forms_match_an_oracle_on_random_systems(sys):
    """Up to four letters, the sink forms are the words that are the least
    member of their commutation class (by the oracle's swaps) when no member
    holds a left-hand side other than an interchange's, and the descents of
    all words, confluent system or not."""
    swapping = [len(set(r.lhs)) == 2 and r.rhs == r.lhs[::-1] for r in sys.rules]
    swaps = {r.lhs for r, s in zip(sys.rules, swapping) if s}
    lhss = [r.lhs for r, s in zip(sys.rules, swapping) if not s]
    words = all_words(sys.n, 4)

    def is_sink_form(w):
        members = {tuple(a for a, _ in x) for x in labelled_class(w, swaps)}
        return w == min(members) and not any(
            x[i : i + len(lhs)] == lhs for x in members for lhs in lhss for i in range(len(x))
        )

    got = list(itertools.takewhile(lambda w: len(w) <= 4, sink_forms(sys)))
    assert got == sorted(filter(is_sink_form, words), key=lambda w: (len(w), w))
    assert set(got) == {descend(w, sys, {}) for w in words}
