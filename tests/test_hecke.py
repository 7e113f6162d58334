"""Hecke systems, curated diagrams, cell family, translation, enumeration."""

import itertools
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from srw.critical import CriticalPair, enumerate_critical_pairs
from srw.diagrams import (
    CellFamily,
    ElementaryDiagram,
    PathVerdict,
    paths_equivalent_mod_cells,
    whisker_ed,
)
from srw.hecke import (
    CapExceeded,
    InvalidRank,
    UnclassifiedPair,
    VerifyItem,
    VerifyReport,
    c_sort_path,
    cells_P,
    chosen_critical_ed_tagged,
    classify_rule,
    enumerate_monoid,
    hecke_canon,
    hecke_system,
    translate_to_basic,
    verify_suite,
)
from srw import hecke, seminormal
from srw.hecke import NotCSortable
from srw.order import (
    InstanceOrder,
    check_decreasing,
    check_naturals,
    is_decreasing_ed,
    rule_rank_order,
)
from srw.seminormal import attractor, canon as generic_canon, measure_split, words_equal
from srw.traces import normal_form
from srw.words import (
    Path,
    Rule,
    RuleInstance,
    SourceMismatch,
    SrsSystem,
    find_redexes,
)

from oracles import (
    all_words,
    demazure_product,
    inversions,
    natural_square,
    natural_squares_upto,
)


def test_system_rule_names():
    assert sorted(r.name for r in hecke_system(3, "rprime").rules) == [
        "a1", "a2", "a3", "b2", "b3", "c31",
    ]
    assert sorted(r.name for r in hecke_system(3, "rdoubleprime").rules) == [
        "a1", "a2", "a3", "b2", "b3", "c13", "c31",
    ]
    assert sorted(r.name for r in hecke_system(3, "rfull").rules) == [
        "a1", "a2", "a3", "b21", "b31", "b32", "c13", "c31",
    ]
    assert len(hecke_system(4, "rfull").rules) == 16
    assert sorted(r.name for r in hecke_system(1, "rfull").rules) == ["a1"]


def test_system_rule_shapes():
    sys = hecke_system(3, "rfull")
    assert sys.rule("b31").lhs == (3, 2, 1, 3)
    assert sys.rule("b31").rhs == (2, 3, 2, 1)
    assert sys.rule("b32").lhs == (3, 2, 3)
    assert sys.rule("b32").rhs == (2, 3, 2)
    assert sys.rule("c31").lhs == (3, 1) and sys.rule("c31").rhs == (1, 3)
    assert sys.rule("c13").lhs == (1, 3) and sys.rule("c13").rhs == (3, 1)
    assert hecke_system(3, "rdoubleprime").rule("b3").lhs == (3, 2, 3)


def test_wide_rank_naming():
    sys = hecke_system(10, "rfull")
    names = {r.name for r in sys.rules}
    assert "a10" in names and "b10_9" in names and "c3_1" in names
    assert sys.rule("b10_1").lhs == (10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 10)


def test_invalid_rank_and_variant():
    with pytest.raises(InvalidRank):
        hecke_system(0, "rfull")
    with pytest.raises(InvalidRank):
        hecke_system(-2, "rprime")
    with pytest.raises(ValueError):
        hecke_system(3, "nope")


def test_classify_rule():
    sys = hecke_system(4, "rfull")
    assert classify_rule(sys.rule("a2")) == ("a", 2)
    assert classify_rule(sys.rule("b42")) == ("b", 4, 2)
    assert classify_rule(sys.rule("c41")) == ("cf", 4, 1)
    assert classify_rule(sys.rule("c14")) == ("ci", 1, 4)
    with pytest.raises(ValueError):
        classify_rule(Rule("weird", (1, 2), (2, 2)))
    with pytest.raises(ValueError):
        classify_rule(Rule("weird", (1, 2, 1), (1,)))


def test_redexes_frozen():
    sys2 = hecke_system(2, "rfull")
    assert [i.render(2) for i in find_redexes((2, 1, 2), sys2)] == ["-:b21:-"]
    sys3 = hecke_system(3, "rfull")
    assert [i.render(3) for i in find_redexes((1, 1, 2, 1), sys3)] == ["-:a1:21"]
    assert [i.render(3) for i in find_redexes((3, 2, 1, 3), sys3)] == [
        "-:b31:-",
        "32:c13:-",
    ]


def test_c_sort_path():
    sys = hecke_system(4, "rdoubleprime")
    p = c_sort_path((3, 1, 2, 4), (1, 3, 4, 2), sys)
    assert p.start == (3, 1, 2, 4) and p.end == (1, 3, 4, 2)
    assert all(classify_rule(s.rule)[0] in ("cf", "ci") for s in p.steps)
    with pytest.raises(NotCSortable):
        c_sort_path((1, 2), (2, 1), sys)
    with pytest.raises(NotCSortable):
        c_sort_path((1, 1), (1,), sys)
    assert len(c_sort_path((), (), sys)) == 0


def test_c_sort_path_equal_letters_keep_order():
    sys = hecke_system(4, "rdoubleprime")
    # the two 1s cannot pass each other, so sorting must keep their relative order
    p = c_sort_path((1, 3, 1), (1, 1, 3), sys)
    assert p.end == (1, 1, 3)
    with pytest.raises(NotCSortable):
        c_sort_path((1, 2, 1), (1, 1, 2), sys)


def test_curated_step_must_match_its_word():
    sys = hecke_system(3, "rfull")
    b31 = sys.rule("b31")
    assert hecke._at((2, 3, 2, 1, 3), 1, b31) == RuleInstance((2,), b31, ())
    with pytest.raises(SourceMismatch):
        hecke._at((2, 3, 2, 1, 3), 0, b31)
    with pytest.raises(SourceMismatch):
        hecke._at((3, 2, 1), 0, b31)


def _length_vector(w, n):
    """(length, count of n, count of n-1, ..., count of 2)."""
    return (len(w),) + tuple(sum(1 for g in w if g == m) for m in range(n, 1, -1))


def test_length_vector():
    assert _length_vector((3, 1, 3, 2), 3) == (4, 2, 1)
    assert _length_vector((), 3) == (0, 0, 0)


@given(st.lists(st.integers(1, 3), max_size=6))
@settings(max_examples=150)
def test_length_vector_monotone_along_steps(letters):
    # Idempotence and braid steps strictly decrease the length vector in
    # lexicographic order; commutations preserve it.
    sys = hecke_system(3, "rfull")
    w = tuple(letters)
    for inst in find_redexes(w, sys):
        before, after = _length_vector(w, 3), _length_vector(inst.target, 3)
        kind = classify_rule(inst.rule)[0]
        if kind in ("cf", "ci"):
            assert after == before
        else:
            assert after < before


def test_chosen_family_census():
    def census(n):
        sys = hecke_system(n, "rfull")
        out = {}
        for p in enumerate_critical_pairs(sys):
            name = chosen_critical_ed_tagged(p, sys)[1]
            out[name] = out.get(name, 0) + 1
        return out

    assert census(3) == {
        "BB": 4, "Ba": 2, "Bc2": 2, "Bc3": 2, "aB": 2, "aa": 6, "ab": 4,
        "ac": 2, "ac-mirror": 2, "bB": 2, "ba": 4, "bb": 4, "undo": 14,
    }
    assert census(4) == {
        "BB": 16, "Ba": 6, "Bc1": 2, "Bc2": 6, "Bc3": 6, "Bc4": 2, "aB": 6,
        "aa": 8, "ab": 6, "ac": 6, "ac-mirror": 6, "bB": 6, "ba": 6,
        "bb": 6, "bc": 2, "undo": 56,
    }


def test_chosen_family_frozen_peaks():
    sys = hecke_system(3, "rfull")
    by_peak = {}
    for p in enumerate_critical_pairs(sys):
        by_peak.setdefault(p.peak, set()).add(chosen_critical_ed_tagged(p, sys)[1])
    assert by_peak[(3, 2, 1, 3, 1)] == {"Bc3"}
    assert by_peak[(3, 2, 3, 1)] == {"Bc2"}
    assert by_peak[(3, 2, 1, 3, 2, 1, 3)] == {"BB"}
    assert by_peak[(3, 2, 3, 2, 1, 3)] == {"bB"}
    assert by_peak[(3, 3, 2, 1, 3)] == {"aB"}
    assert by_peak[(3, 2, 1, 3, 3)] == {"Ba"}
    assert by_peak[(3, 1, 1)] == {"ac"}
    assert by_peak[(3, 3, 1)] == {"ac-mirror"}
    assert by_peak[(3, 2, 1, 3)] == {"undo"}


def test_chosen_diagrams_fit_and_decrease():
    for n in (1, 2, 3):
        sys = hecke_system(n, "rfull")
        for p in enumerate_critical_pairs(sys):
            ed, name, transposed = chosen_critical_ed_tagged(p, sys)
            assert ed.top == p.first and ed.left == p.second
            ok, wit = is_decreasing_ed(sys.order, ed)
            assert ok, (name, p.render(n), wit)


def test_chosen_orientations_are_paired():
    sys = hecke_system(3, "rfull")
    flags = {}
    for p in enumerate_critical_pairs(sys):
        key = frozenset([(p.first.left, p.first.rule.name), (p.second.left, p.second.rule.name)])
        flags.setdefault((p.peak, key), []).append(
            chosen_critical_ed_tagged(p, sys)[2]
        )
    for (peak, _), pair_flags in flags.items():
        assert sorted(pair_flags) == [False, True], peak


def test_unclassified_inclusion_pair():
    sys = hecke_system(3, "rfull")
    b31 = sys.rule("b31")
    a2 = sys.rule("a2")
    pair = CriticalPair(
        kind="inclusion",
        first=RuleInstance((), b31, ()),
        second=RuleInstance((1,), a2, (3,)),
        peak=(3, 2, 1, 3),
    )
    with pytest.raises(UnclassifiedPair):
        chosen_critical_ed_tagged(pair, sys)


def test_cells_family_sizes_and_labels():
    p2 = cells_P(2)
    assert len(p2.members) == 5
    assert list(p2.labels) == ["aa(1)", "aa(2)", "ba(2)", "ab(2)", "bb(2)"]
    p3 = cells_P(3)
    assert len(p3.members) == 14
    assert list(p3.labels) == [
        "loop(1,3)", "loop(3,1)", "aa(1)", "aa(2)", "aa(3)",
        "ba(2)", "ab(2)", "bb(2)", "ba(3)", "ab(3)", "bb(3)",
        "ac(1,3)", "ac(3,1)", "zz(2)",
    ]
    p4 = cells_P(4)
    assert len(p4.members) == 29


def test_cells_are_parallel_pairs():
    sizes = {}
    for n in (2, 3, 4, 5, 6, 7):
        fam = cells_P(n)
        for s1, s2 in fam.members:
            assert s1.start == s2.start and s1.end == s2.end
        sizes[n] = len(fam.members)
    assert sizes == {2: 5, 3: 14, 4: 29, 5: 51, 6: 81, 7: 120}


def test_zz_member_shape():
    fam = cells_P(3)
    s1, s2 = fam.members[list(fam.labels).index("zz(2)")]
    assert s1.start == (3, 2, 1, 3, 2, 3)
    assert s1.end == (1, 2, 1, 3, 2, 1)
    assert len(s1) == 7 and len(s2) == 7


def test_translate_to_basic_frozen():
    sys = hecke_system(3, "rfull")
    rdp = hecke_system(3, "rdoubleprime")
    b31 = sys.rule("b31")
    t = translate_to_basic(Path((3, 2, 1, 3), (RuleInstance((), b31, ()),)), rdp)
    assert [s.render(3) for s in t.steps] == ["32:c13:-", "-:b3:1"]
    assert t.end == (2, 3, 2, 1)


def test_translate_wide_braid():
    sys = hecke_system(4, "rfull")
    rdp = hecke_system(4, "rdoubleprime")
    b41 = sys.rule("b41")
    t = translate_to_basic(Path(b41.lhs, (RuleInstance((), b41, ()),)), rdp)
    assert t.start == b41.lhs and t.end == b41.rhs
    assert [s.rule.name for s in t.steps] == ["c14", "c24", "b4"]


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_translation_fixes_cells(n):
    """Full translation leaves every `cells_P` member as it is."""
    rdp = hecke_system(n, "rdoubleprime")
    for pair in cells_P(n).members:
        assert tuple(translate_to_basic(p, rdp) for p in pair) == pair


# --- coherence: the quotient search against the concrete one ----------------


def _members(n: int, *kinds: str) -> CellFamily:
    """The members of `cells_P(n)` of the given kinds, as named in their labels."""
    base = cells_P(n)
    keep = [i for i, label in enumerate(base.labels) if label.split("(")[0] in kinds]
    return CellFamily(
        base.name, tuple(base.members[i] for i in keep), tuple(base.labels[i] for i in keep)
    )


@pytest.mark.parametrize("n", [3, 4, 5])
def test_quotient_verdicts_match_the_concrete_search(n):
    """With `cells_P` alone, the quotient derives every class, so every
    class that the concrete search (no commutations) derives within its
    bound: all 25 at rank 3, 70 of 73 at rank 4, 148 of 163 at rank 5."""
    bound, derived = {3: (1000, 25), 4: (10000, 70), 5: (10000, 148)}[n]
    rdp = hecke_system(n, "rdoubleprime")
    independent = frozenset(r.lhs for r in measure_split(rdp)[0])
    family = cells_P(n)
    classes = hecke._coherence_classes(hecke_system(n, "rfull"))
    assert len(classes) == {3: 25, 4: 73, 5: 163}[n]
    concrete = 0
    for label, sides in classes:
        p, q = (translate_to_basic(side, rdp) for side in sides)
        quotient = paths_equivalent_mod_cells(p, q, family, 100000, independent=independent)
        assert quotient is PathVerdict.EQUIVALENT, label
        concrete += paths_equivalent_mod_cells(p, q, family, bound) is PathVerdict.EQUIVALENT
    assert concrete == derived


_RANK4_CONTROLS = {
    "zz": "BB@3213213 BB@321323 BB@432143214 BB@43214324 "
    "BB@4321434 BB@43243214 BB@4324324 BB@432434",
    "aa": "aa@111 aa@222 aa@333 aa@444",
    "ab": "ab@2212 aB@33213 ab@3323 aB@443214 aB@44324 ab@4434",
    "ba": "ba@2122 Ba@32133 ba@3233 Ba@432144 Ba@43244 ba@4344",
    "bb": "bb@21212 bB@323213 bb@32323 bB@4343214 bB@434324 bb@43434",
}


@pytest.mark.parametrize("dropped", sorted(_RANK4_CONTROLS))
def test_coherence_rank4_negative_controls(monkeypatch, dropped):
    """Without one family of the members that survive the quotient, rank 4
    loses exactly the classes named, each EXHAUSTED (its search ran dry),
    none cut by the bound."""
    kinds = ("loop", "aa", "ab", "ba", "bb", "ac", "bc", "cc", "zz")
    family = _members(4, *(k for k in kinds if k != dropped))
    monkeypatch.setattr(hecke, "cells_P", lambda n: family)
    item = hecke._verify_coherence(hecke_system(4, "rfull"), 100000)
    lost = _RANK4_CONTROLS[dropped].split()
    assert item.status == "UNKNOWN"
    assert item.detail == (
        f"{73 - len(lost)}/73 diagram classes derivable from the base family; "
        f"not derivable by positive moves: {','.join(lost)}"
    )


def test_coherence_count_never_falls_as_the_bound_rises():
    sys = hecke_system(3, "rfull")
    counts = [
        int(hecke._verify_coherence(sys, bound).detail.split("/")[0]) for bound in range(6)
    ]
    assert counts == sorted(counts) and counts[0] < counts[-1] == 25, counts


def _crossings(n: int):
    """Premise (B)'s squares: each letter x independent of every letter of
    an idempotence or braid rule, on the left or the right of its source,
    crosses the rule's step.  Yields (label, rewrite then move x, move x
    then rewrite)."""
    rdp = hecke_system(n, "rdoubleprime")
    swaps, lower, _ = measure_split(rdp)
    independent = frozenset(r.lhs for r in swaps)
    for r in lower:
        for x in range(1, n + 1):
            if all((x, a) in independent for a in r.lhs):
                for u, v in (((x,), ()), ((), (x,))):
                    rewrite = RuleInstance(u, r, v)
                    after = c_sort_path(rewrite.target, v + r.rhs + u, rdp)
                    before = c_sort_path(rewrite.source, v + r.lhs + u, rdp)
                    p = Path(rewrite.source, (rewrite,) + after.steps)
                    q = Path(rewrite.source, before.steps + (RuleInstance(v, r, u),))
                    yield f"{r.name}:{x}{'<' if u else '>'}", p, q


@pytest.mark.parametrize("n, squares", [(3, 4), (4, 16), (5, 36), (6, 64)])
def test_premise_b_crossings_derivable_from_commutation_members(n, squares):
    """Premise (B) of the search modulo commutations: every crossing joins,
    by the same search with no commutations, with the loop, ac, bc and cc
    members alone."""
    family = _members(n, "loop", "ac", "bc", "cc")
    crossings = list(_crossings(n))
    assert len(crossings) == squares
    for label, p, q in crossings:
        assert paths_equivalent_mod_cells(p, q, family, 20000) is PathVerdict.EQUIVALENT, label


@pytest.mark.parametrize("n, length", [(4, 6), (5, 7)])
def test_premise_a_commutation_paths_sampled(n, length):
    """Premise (A) of the search modulo commutations, sampled: a random
    walk of commutations and the sorting path to its end are equivalent, by
    the same search with no commutations, modulo the loop and cc members."""
    rdp = hecke_system(n, "rdoubleprime")
    H = hecke._hecke_rules(rdp)
    independent = frozenset(r.lhs for r in measure_split(rdp)[0])
    family = _members(n, "loop", "cc")
    rng = random.Random(n)
    for _ in range(30):
        w = cur = tuple(rng.randint(1, n) for _ in range(length))
        steps = []
        for _ in range(5):
            free = [i for i in range(len(cur) - 1) if cur[i : i + 2] in independent]
            if not free:
                break
            i = rng.choice(free)
            steps.append(RuleInstance(cur[:i], H.c(*cur[i : i + 2]), cur[i + 2 :]))
            cur = steps[-1].target
        p, q = Path(w, tuple(steps)), c_sort_path(w, cur, rdp)
        assert paths_equivalent_mod_cells(p, q, family, 50000) is PathVerdict.EQUIVALENT, p


@given(st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_translate_preserves_endpoints(seed):
    import random

    rng = random.Random(seed)
    sys = hecke_system(3, "rfull")
    rdp = hecke_system(3, "rdoubleprime")
    w = tuple(rng.randint(1, 3) for _ in range(rng.randint(0, 7)))
    steps = []
    cur = w
    for _ in range(rng.randint(0, 5)):
        reds = find_redexes(cur, sys)
        if not reds:
            break
        st_ = rng.choice(reds)
        steps.append(st_)
        cur = st_.target
    p = Path(w, tuple(steps))
    t = translate_to_basic(p, rdp)
    assert t.start == p.start and t.end == p.end
    assert len(t) >= len(p)


def test_enumerate_monoid_counts():
    assert len(enumerate_monoid(1)) == 2
    assert len(enumerate_monoid(2)) == 6
    assert len(enumerate_monoid(3)) == 24
    assert len(enumerate_monoid(4)) == 120
    assert enumerate_monoid(2) == [(), (1,), (2,), (1, 2), (2, 1), (1, 2, 1)]


def test_enumerate_monoid_variants_agree():
    assert len(enumerate_monoid(2, variant="rprime")) == 6
    got = {len(w) for w in enumerate_monoid(3, variant="rfull")}
    assert max(got) == 6  # the longest element has n(n+1)/2 letters


def test_unpaired_commutations_rejected_at_once():
    sys = hecke_system(3, "rprime")  # c31 without c13
    with pytest.raises(ValueError):
        hecke_canon((3, 2, 1), sys)
    t0 = time.perf_counter()
    with pytest.raises(ValueError):
        enumerate_monoid(3, variant="rprime")
    assert time.perf_counter() - t0 < 1.0


def test_enumerate_cap():
    with pytest.raises(CapExceeded):
        enumerate_monoid(7)
    assert len(enumerate_monoid(5, cap=5)) == 720


def test_equal_hecke_systems_are_one_object(monkeypatch):
    assert hecke_system(5, "rfull") is hecke_system(5, "rfull")
    assert hecke_system(3) is hecke_system(3, "rdoubleprime")
    assert hecke_system(3, "rfull") is not hecke_system(3, "rdoubleprime")
    enumerate_monoid(5)
    calls = []
    eq = SrsSystem.__eq__
    monkeypatch.setattr(SrsSystem, "__eq__", lambda a, b: calls.append(1) or eq(a, b))
    # The system caches find the system by identity, comparing no rules.
    assert len(enumerate_monoid(5)) == 720
    assert calls == []


def test_enumerate_matches_demazure_products():
    """One canonical word per permutation of 1..6, each a reduced word of
    its Demazure product: its length is the permutation's inversions."""
    words = enumerate_monoid(5)
    products = [demazure_product(w, 5) for w in words]
    assert len(words) == len(set(products)) == 720
    assert all(len(w) == inversions(p) for w, p in zip(words, products))


def _word_graph_canons(words, sys):
    """The generic canon of each word on the word graph alone, from an
    empty memo, so that it never calls `srw.traces`."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(seminormal, "_premises", lambda sys: None)
        mp.setattr(seminormal, "_MEMO", {})
        return [generic_canon(w, sys) for w in words]


def test_enumerate_rank5_words_are_their_own_generic_canon():
    """Pins the canonical forms against any change to `srw.traces`: each
    element's word is irreducible, so its attractor is only its commutation
    class, whose least member the generic `canon` returns."""
    sys = hecke_system(5, "rdoubleprime")
    words = enumerate_monoid(5)
    assert [w for w, c in zip(words, _word_graph_canons(words, sys)) if c != w] == []


@given(st.lists(st.integers(1, 3), max_size=6))
@settings(max_examples=150, deadline=None)
def test_hecke_canon_matches_generic(letters):
    sys = hecke_system(3, "rdoubleprime")
    w = tuple(letters)
    assert [hecke_canon(w, sys)] == _word_graph_canons([w], sys)


@pytest.mark.parametrize("variant", ["rdoubleprime", "rfull"])
def test_hecke_canon_matches_generic_rank4(variant):
    sys = hecke_system(4, variant)
    memo = {}
    # longest words first, so that calls miss the memo and run whole chains
    words = list(reversed(all_words(4, 6)))
    for w, c in zip(words, _word_graph_canons(words, sys)):
        assert hecke_canon(w, sys, memo) == c, w
    # the memo is keyed by trace normal forms only
    independent = frozenset(
        (s, t) for s in range(1, 5) for t in range(1, 5) if abs(s - t) >= 2
    )
    assert memo and all(normal_form(k, independent) == k for k in memo)


def test_verify_suite_rank2():
    rep = verify_suite(2)
    assert rep.ok and rep.verdict == "PASS"
    assert [i.status for i in rep.items] == ["PASS"] * 5
    assert all(i.seconds >= 0.0 for i in rep.items)
    names = [i.name for i in rep.items]
    assert names == [
        "natural-diagrams-decreasing",
        "critical-pairs-covered",
        "commutation-subsystem",
        "attractor-loops-are-commutations",
        "coherence",
    ]


def test_c_subsystem_inverse_step_in_a_cc_diagram_is_unknown(monkeypatch):
    """Negative control: a cc diagram whose right side detours through an
    inverse commutation still joins its peak, but no longer closes it by
    forward commutations, so the item is UNKNOWN and names the peak."""
    sys = hecke_system(5, "rfull")
    assert hecke._verify_c_subsystem(sys).status == "PASS"

    def detour_cell(k, j, i, H):
        ckj, cki, cji, cik = H.c(k, j), H.c(k, i), H.c(j, i), H.c(i, k)
        right = [(0, cki), (0, cik), (0, cki), (1, ckj)]
        return hecke._square((k, j, i), (1, cji), (0, ckj), right, [(1, cki), (0, cji)], H)

    monkeypatch.setattr(hecke, "_cc_cell", detour_cell)
    hecke._diagram_classes.cache_clear()
    try:
        item = hecke._verify_c_subsystem(sys)
    finally:
        monkeypatch.undo()
        hecke._diagram_classes.cache_clear()
    assert item.status == "UNKNOWN", item.detail
    assert item.detail == (
        "cc diagram for critical pair overlap 531: 5:c31:- | -:c53:1 "
        "has a step that is not a forward commutation"
    )
    assert hecke._verify_c_subsystem(sys).status == "PASS"


@pytest.mark.parametrize("n", [5, 6, 7, 8, 9])
def test_cc_classes_are_the_premise_a_members(n):
    """The commutation item's PASS speaks of the members that premise (A)
    names: each cc diagram class, its two sides as an unordered pair, is a
    cc member of `cells_P(n)` and each cc member is one class, and each
    forward commutation has a loop member from each of its two words."""
    family = cells_P(n)
    members = dict(zip(family.labels, family.members))
    sys = hecke_system(n, "rfull")
    classes = hecke._diagram_classes(sys)
    cc = {frozenset(hecke._sides(ed)) for _, ed, name in classes if name == "cc"}
    want = {frozenset(pair) for label, pair in members.items() if label.startswith("cc(")}
    assert cc == want and len(cc) == {5: 1, 6: 4, 7: 10, 8: 20, 9: 35}[n]
    for rule in sys.rules:
        if classify_rule(rule)[0] == "cf":
            for a, b in (rule.lhs, rule.rhs):
                loop, empty = members[f"loop({a},{b})"]
                assert empty == Path((a, b)) and loop.start == (a, b)
                assert [st.rule.lhs for st in loop.steps] == [(a, b), (b, a)]
                assert [st.rule.rhs for st in loop.steps] == [(b, a), (a, b)]


def test_verify_report_verdict_fold():
    def report(*statuses):
        return VerifyReport(1, tuple(VerifyItem(f"i{k}", s, "") for k, s in enumerate(statuses)))

    assert report("PASS", "PASS").verdict == "PASS" and report("PASS").ok
    assert report("PASS", "UNKNOWN").verdict == "UNKNOWN"
    assert not report("UNKNOWN", "PASS").ok
    assert report("UNKNOWN", "FAIL", "PASS").verdict == "FAIL"


def test_mirror_commutation_cell_derivable_from_base():
    sys = hecke_system(3, "rfull")
    rdp = hecke_system(3, "rdoubleprime")
    fam = cells_P(3)
    pair = next(
        p
        for p in enumerate_critical_pairs(sys)
        if chosen_critical_ed_tagged(p, sys)[1] == "ac-mirror"
    )
    ed = chosen_critical_ed_tagged(pair, sys)[0]
    s1 = Path(ed.top.source, (ed.top,) + ed.right.steps)
    s2 = Path(ed.left.source, (ed.left,) + ed.bottom.steps)
    v = paths_equivalent_mod_cells(
        translate_to_basic(s1, rdp), translate_to_basic(s2, rdp), fam, bound=50000
    )
    assert v is PathVerdict.EQUIVALENT


# --- natural squares once per rule pair --------------------------------------


def _stats_delta(rule, left, right, base_left, base_right):
    key = hecke._instance_key
    a = key(RuleInstance(left, rule, right))[1]
    b = key(RuleInstance(base_left, rule, base_right))[1]
    assert len(a) == len(b)
    return tuple(p - q for p, q in zip(a, b))


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_instance_key_is_additive(data):
    """The lemma behind `_verify_naturals`: the head is fixed by the rule,
    and inserting letters x into either context shifts the stats by a
    vector that depends on the rule, x and the side only."""
    n = data.draw(st.integers(2, 7))
    rule = data.draw(st.sampled_from(hecke_system(n, "rfull").rules))
    words = st.lists(st.integers(1, n), max_size=6).map(tuple)
    a, b, x = data.draw(words), data.draw(words), data.draw(words)
    assert hecke._instance_key(RuleInstance(a, rule, b))[0] == (
        hecke._instance_key(RuleInstance((), rule, ()))[0]
    )
    k = data.draw(st.integers(0, len(a)))
    assert _stats_delta(rule, a[:k] + x + a[k:], b, a, b) == _stats_delta(rule, x, (), (), ())
    k = data.draw(st.integers(0, len(b)))
    assert _stats_delta(rule, a, b[:k] + x + b[k:], a, b) == _stats_delta(rule, (), x, (), ())


def _sign(x, y):
    return (x > y) - (x < y)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_forward_commutation_removes_one_inversion(data):
    """The lemma behind `_verify_c_subsystem`: in any context a forward
    commutation removes exactly one inversion, as it does alone."""
    n = data.draw(st.integers(3, 7))  # rank 2 has no forward commutation
    forward = [r for r in hecke_system(n, "rfull").rules if classify_rule(r)[0] == "cf"]
    rule = data.draw(st.sampled_from(forward))
    words = st.lists(st.integers(1, n), max_size=8).map(tuple)
    a, b = data.draw(words), data.draw(words)

    def inversions(w):
        return sum(1 for p in range(len(w)) for q in range(p + 1, len(w)) if w[p] > w[q])

    assert inversions(a + rule.lhs + b) - inversions(a + rule.rhs + b) == 1
    assert inversions(rule.lhs) - inversions(rule.rhs) == 1


@pytest.mark.parametrize("variant", ["rfull", "rdoubleprime"])
def test_every_forward_commutation_removes_exactly_one_inversion(variant):
    """The shape fact that lets `_verify_c_subsystem` skip a termination
    check: each "cf" rule, at ranks 3-7, removes exactly one inversion."""
    for n in range(3, 8):
        forward = [r for r in hecke_system(n, variant).rules if classify_rule(r)[0] == "cf"]
        assert len(forward) == (n - 1) * (n - 2) // 2
        for rule in forward:
            assert inversions(rule.lhs) - inversions(rule.rhs) == 1, rule.name


def test_forward_commutation_pairs_are_cc_overlaps():
    """The shape fact that lets `_verify_c_subsystem` read the "cc" diagram
    classes as the forward critical pairs: every critical pair of the
    forward commutations, at ranks 3-7, is an overlap whose curated cell
    is "cc"."""
    for n in range(3, 8):
        sys = hecke_system(n, "rfull")
        forward = tuple(r for r in sys.rules if classify_rule(r)[0] == "cf")
        pairs = enumerate_critical_pairs(SrsSystem(n=n, rules=forward, order=sys.order))
        assert len(pairs) > 0 or n < 5
        for pair in pairs:
            assert pair.kind == "overlap", pair.render(n)
            assert chosen_critical_ed_tagged(pair, sys)[1] == "cc", pair.render(n)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_rfull_steps_keep_or_lower_the_measure_in_every_context(data):
    """The lemma behind `_verify_attractor_loops` and the quotient route:
    `seminormal._measure` adds up over concatenation, so a step compares
    with its source as its rule's two sides do: equal for a two-letter
    swap, lower for any other rule."""
    n = data.draw(st.integers(2, 7))
    rule = data.draw(st.sampled_from(hecke_system(n, "rfull").rules))
    words = st.lists(st.integers(1, n), max_size=8).map(tuple)
    a, b = data.draw(words), data.draw(words)

    def m(w):
        return seminormal._measure(w, n)

    def plus(*vs):
        return tuple(map(sum, zip(*vs)))

    source, target = a + rule.lhs + b, a + rule.rhs + b
    assert m(source) == plus(m(a), m(rule.lhs), m(b))
    assert m(target) == plus(m(a), m(rule.rhs), m(b))
    verdict = _sign(m(rule.rhs), m(rule.lhs))
    assert _sign(m(target), m(source)) == verdict
    assert verdict == (0 if rule.rhs == rule.lhs[::-1] else -1), rule


def test_attractor_loops_unknown_names_the_rule_the_measure_cannot_order():
    up = Rule("up", (1, 2), (2, 2))
    item = hecke._verify_attractor_loops(SrsSystem(2, (Rule("a1", (1, 1), (1,)), up)))
    assert item.status == "UNKNOWN"
    assert item.detail.startswith("rules up neither swap two letters nor lower"), item.detail
    # Where the claim is false, the item stays UNKNOWN too: 1 and 2 form one
    # attractor class whose loop steps are not swaps.
    loop = SrsSystem(2, (Rule("down", (2,), (1,)), Rule("rise", (1,), (2,))))
    assert attractor((1,), loop).members == {(1,), (2,)}
    item = hecke._verify_attractor_loops(loop)
    assert item.status == "UNKNOWN" and item.detail.startswith("rules rise "), item.detail


def test_verify_attractor_loops_tells_swaps_from_the_words():
    # An interchange of adjacent letters has no Hecke shape; a rule whose
    # sides are one letter twice is no swap.
    swap = Rule("s", (2, 1), (1, 2))
    item = hecke._verify_attractor_loops(SrsSystem(2, (Rule("a1", (1, 1), (1,)), swap)))
    assert item.status == "PASS", item.detail
    assert item.detail.startswith("1 interchanges keep the measure"), item.detail
    still = Rule("still", (1, 1), (1, 1))
    assert hecke._verify_attractor_loops(SrsSystem(1, (still,))).status == "UNKNOWN"


def _keyed(sys, key):
    return SrsSystem(sys.n, sys.rules, order=InstanceOrder("test", key))


def _inverted_heads(inst):
    head, stats = hecke._instance_key(inst)
    return tuple(-h for h in head), stats


def _tied_heads(inst):
    return (), hecke._instance_key(inst)[1]


def _flat_heads(inst):
    """The Hecke order with every head tied: the head moves into the stats."""
    head, stats = hecke._instance_key(inst)
    return (), head + stats


def _symbolic(order, r1, r2):
    rep = check_naturals(order, [(r1, r2)])
    return "FAIL" if rep.failures else "UNKNOWN" if rep.ties else "PASS"


@pytest.mark.parametrize(
    "n,max_mid,key",
    [(n, 3, None) for n in (1, 2, 3, 4)]
    + [(5, 2, None)]
    + [(n, 2, _inverted_heads) for n in (3, 4)],
)
def test_symbolic_naturals_match_enumeration(n, max_mid, key):
    """Per rule pair, the verdict from the w = () square agrees with
    `check_decreasing` over the pair's enumerated squares: PASS means all
    are decreasing, and FAIL here that none is, since a lower head fails
    a side for every separator."""
    sys = hecke_system(n, "rfull")
    if key is not None:
        sys = _keyed(sys, key)
    symbolic = {
        (r1.name, r2.name): _symbolic(sys.order, r1, r2) for r1 in sys.rules for r2 in sys.rules
    }
    by_pair = {}
    for (r1, w, r2), ed in natural_squares_upto(sys, max_mid):
        by_pair.setdefault((r1.name, r2.name), []).append((w, ed))
    assert by_pair.keys() == symbolic.keys()
    for pair, squares in by_pair.items():
        rep = check_decreasing(sys.order, squares)
        want = {"PASS": 0, "FAIL": rep.checked}[symbolic[pair]]
        assert len(rep.failures) == want, (pair, symbolic[pair])
    verdicts = set(symbolic.values())
    assert verdicts == ({"PASS"} if key is None else {"PASS", "FAIL"})


@pytest.mark.parametrize("n", [5, 6, 7])
def test_whiskered_natural_squares_follow_the_pair_verdict(n):
    """Seeded squares x · r1 · w · r2 · y with long separators and whiskers:
    all decreasing under the Hecke order, and under inverted heads
    decreasing exactly when the pair's symbolic verdict is PASS."""
    rng = random.Random(n)
    sys = hecke_system(n, "rfull")
    inverted = _keyed(sys, _inverted_heads).order
    verdict = {(r1, r2): _symbolic(inverted, r1, r2) for r1 in sys.rules for r2 in sys.rules}

    def word(k):
        return tuple(rng.randint(1, n) for _ in range(rng.randint(0, k)))

    for _ in range(300):
        r1, r2 = rng.choice(sys.rules), rng.choice(sys.rules)
        ed = whisker_ed(ElementaryDiagram(*natural_square(r1, word(8), r2)), word(5), word(5))
        assert is_decreasing_ed(sys.order, ed)[0]
        assert is_decreasing_ed(inverted, ed)[0] == (verdict[r1, r2] == "PASS")


def _square_named(sys, label):
    """The w = () square that a failure detail r1|-|r2 names, and its reason."""
    names, why = label.split(": ", 1)
    r1, w, r2 = names.split("|")
    assert w == "-"
    r1, r2 = sys.rule(r1), sys.rule(r2)
    return [((r1, r2), ElementaryDiagram(*natural_square(r1, (), r2)))], why


def test_verify_naturals_fail_names_a_failing_square():
    sys = _keyed(hecke_system(4, "rfull"), _inverted_heads)
    item = hecke._verify_naturals(sys)
    assert item.status == "FAIL"
    square, why = _square_named(sys, item.detail)
    rep = check_decreasing(sys.order, square)
    assert [reason for _, reason in rep.failures] == [why]


def _margin_failures(sys):
    """(r1|r2, whether the other step's key is greater) for each side of a
    w = () natural square whose same-rule comparison fails."""
    key = sys.order.key
    return [
        (f"{r1.name}|{r2.name}", key(other) > key(step))
        for r1 in sys.rules
        for r2 in sys.rules
        for ed in [natural_square(r1, (), r2)]
        for same, other, step in (
            (ed.top, ed.left, ed.bottom.steps[0]),
            (ed.left, ed.top, ed.right.steps[0]),
        )
        if not key(same) >= key(step)
    ]


def test_verify_naturals_tied_heads_are_unknown():
    """With every head tied and the order otherwise unchanged, each w = ()
    square stays decreasing, so the 20 sides the heads decided become
    ties, and the item names each of them."""
    sys = hecke_system(4, "rfull")
    sides = _margin_failures(sys)
    assert len(sides) == 20 and all(held for _, held in sides)
    by_head = ",".join(label for label, _ in sides)
    item = hecke._verify_naturals(_keyed(sys, _flat_heads))
    assert item.status == "UNKNOWN"
    assert item.detail.startswith(f"20 sides tie on the head: {by_head};")


def test_verify_naturals_without_heads_fail():
    """Dropping the heads altogether fails each of those 20 sides on its
    w = () square, so the item is FAIL and names a square that
    `check_decreasing` rejects."""
    sys = hecke_system(4, "rfull")
    tied = _keyed(sys, _tied_heads)
    assert _margin_failures(tied) == [(label, False) for label, _ in _margin_failures(sys)]
    item = hecke._verify_naturals(tied)
    assert item.status == "FAIL"
    square, why = _square_named(tied, item.detail)
    rep = check_decreasing(tied.order, square)
    assert [reason for _, reason in rep.failures] == [why]


def test_verify_naturals_covers_every_separator():
    item = hecke._verify_naturals(hecke_system(4, "rfull"))
    assert item.status == "PASS"
    assert item.detail == (
        "256 rule pairs decreasing for every separator and whisker "
        "(492 sides by the context margin, 20 by the head)"
    )


def test_certificate_is_computed_once_per_rank():
    hecke.certified.cache_clear()
    assert [hecke.certified(n) for n in (1, 2, 3, 4, 4)] == [True] * 5
    info = hecke.certified.cache_info()
    assert (info.misses, info.hits) == (4, 1)


def _answer(decide, u, v, sys):
    try:
        return decide(u, v, sys)
    except (hecke.Undecided, seminormal.NotOneClass) as exc:
        return type(exc).__name__


@pytest.mark.parametrize("n, max_len, undecided, not_one_class", [(3, 5, 54, 125), (4, 4, 2, 4)])
def test_rprime_answers_are_never_wrong(n, max_len, undecided, not_one_class):
    """Every pair of rprime words: "equal" and "different" agree with the
    Demazure product, and the rest is undecided.  The graph route alone
    answered 54 and 2 of these pairs wrongly "different"."""
    sys = hecke_system(n, "rprime")
    got = {"Undecided": 0, "NotOneClass": 0}
    for u, v in itertools.combinations(all_words(n, max_len), 2):
        a = _answer(hecke.decide_equal, u, v, sys)
        if a in got:
            got[a] += 1
        else:
            assert a == (demazure_product(u, n) == demazure_product(v, n)), (u, v)
    assert got == {"Undecided": undecided, "NotOneClass": not_one_class}


@pytest.mark.parametrize("n, classes", [(3, 25), (4, 73), (5, 163)])
def test_verify_builds_each_diagram_class_once(n, classes, monkeypatch):
    """The criticals and coherence items share one curated diagram per
    unordered critical pair, built once per system."""
    calls = []
    build = hecke.chosen_critical_ed_tagged

    def counted(pair, sys):
        calls.append(pair)
        return build(pair, sys)

    monkeypatch.setattr(hecke, "chosen_critical_ed_tagged", counted)
    hecke._diagram_classes.cache_clear()
    assert verify_suite(n).ok
    assert len(calls) == classes
    assert len({frozenset((p.first, p.second)) for p in calls}) == classes
    assert hecke.certified.__wrapped__(n)
    assert len(calls) == classes


def test_uncertified_order_fails_on_the_first_class():
    """The all-zero rule-rank order ties every step, so the first undo
    diagram, met in its first orientation, names the failure."""
    full = hecke_system(3, "rfull")
    sys = SrsSystem(3, full.rules, order=rule_rank_order({}))
    assert hecke._verify_criticals(sys).detail == (
        "undo diagram for overlap 113: 1:c13:- | -:a1:3 not decreasing: "
        "right path: step 1 not dominated by either side"
    )


def test_uncertified_order_answers_as_the_graph_route():
    """Negative control: rfull's rules under a rule-rank order.  Its
    naturals item passes, as no rfull rule lengthens, but its curated
    diagrams are not decreasing, so its own items certify nothing.  Every
    answer is the graph route's: "equal" from one descent, "different"
    from certified rfull under the hecke order, whose rules it has."""
    full = hecke_system(3, "rfull")
    sys = SrsSystem(3, full.rules, order=rule_rank_order({}))
    assert hecke._verify_naturals(sys).status == "PASS"
    assert hecke._verify_criticals(sys).status == "FAIL"
    words = all_words(3, 3)
    for u, v in itertools.product(words, words):
        assert _answer(hecke.decide_equal, u, v, sys) == _answer(
            words_equal, u, v, sys
        ), (u, v)
