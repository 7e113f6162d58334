"""Trace normal forms and factors against the commutation-class oracle."""

import pytest
from hypothesis import given, settings, strategies as st

from srw.hecke import classify_rule, hecke_system
from srw.traces import class_factors, normal_form

from oracles import all_words, class_placements, commutation_class, labelled_class


def _independent(n):
    return frozenset(
        (s, t) for s in range(1, n + 1) for t in range(1, n + 1) if abs(s - t) >= 2
    )


def _classes(n, max_len):
    """The commutation classes of all rank-n words up to max_len, once each."""
    seen = set()
    for w in all_words(n, max_len):
        if w not in seen:
            cls = commutation_class(w, n)
            seen |= cls
            yield cls


def test_normal_form_is_least_class_member_rank4():
    ind = _independent(4)
    for cls in _classes(4, 6):
        least = min(cls)
        for w in cls:
            assert normal_form(w, ind) == least, w


@given(st.lists(st.integers(1, 6), max_size=9))
@settings(max_examples=200, deadline=None)
def test_normal_form_is_least_class_member_rank6(letters):
    w = tuple(letters)
    assert normal_form(w, _independent(6)) == min(commutation_class(w, 6))


@pytest.mark.parametrize("variant", ["rdoubleprime", "rfull"])
def test_factor_in_class_matches_oracle_rank4(variant):
    ind = _independent(4)
    lhss = [
        r.lhs for r in hecke_system(4, variant).rules if classify_rule(r)[0] in ("a", "b")
    ]
    hits = 0
    for cls in _classes(4, 6):
        for lhs in lhss:
            has = any(
                x[i : i + len(lhs)] == lhs for x in cls for i in range(len(x))
            )
            for w in cls:
                got = next(class_factors(w, ind)(lhs), None)
                assert (got is not None) == has, (w, lhs)
                if got is not None:
                    assert got[0] + lhs + got[1] in cls, (w, lhs, got)
                    hits += 1
    assert hits > 0


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_factor_in_class_matches_oracle_rank6(data):
    """Any lhs of 1 to 4 letters, independent ones too, against a random
    rank-6 word; half the time lhs is spelled from the word's letters."""
    w = tuple(data.draw(st.lists(st.integers(1, 6), max_size=9)))
    pick = st.sampled_from(w) if w and data.draw(st.booleans()) else st.integers(1, 6)
    lhs = tuple(data.draw(st.lists(pick, min_size=1, max_size=4)))
    cls = commutation_class(w, 6)
    has = any(x[i : i + len(lhs)] == lhs for x in cls for i in range(len(x)))
    got = next(class_factors(w, _independent(6))(lhs), None)
    assert (got is not None) == has
    if got is not None:
        assert got[0] + lhs + got[1] in cls


def test_factor_in_class_examples():
    ind = _independent(4)
    # 3231 has no increasing placement of 3213, yet 3213 is in its class
    assert next(class_factors((3, 2, 3, 1), ind)((3, 2, 1, 3)), None) == ((), ())
    # the 3 between the two 2s lies above one and below the other
    assert next(class_factors((2, 3, 2), ind)((2, 2)), None) is None
    # the 4 lies above the first 3 and below the second
    assert next(class_factors((1, 3, 4, 3), ind)((3, 3)), None) is None
    # an lhs of independent letters, unlike every descent: its second
    # letter may sit anywhere, even before the first
    assert next(class_factors((3, 1, 4, 3), ind)((1, 4)), None) == ((3,), (3,))
    assert next(class_factors((4, 1), ind)((1, 4)), None) == ((), ())


def _check_placements(w, lhss, ind):
    """Every placement `class_factors` yields, against the oracle's position
    sets: one per set, the same (u, v), none twice, each in the class, and
    a fresh `class_factors` yields the same first one."""
    labelled = labelled_class(w, ind)
    members = {tuple(a for a, _ in x) for x in labelled}
    factor = class_factors(w, ind)
    for lhs in lhss:
        got = list(factor(lhs))
        want = class_placements(w, lhs, labelled)
        assert len(got) == len(want) == len(set(got)), (w, lhs)
        assert set(got) == set(want.values()), (w, lhs)
        assert all(u + lhs + v in members for u, v in got), (w, lhs)
        assert next(class_factors(w, ind)(lhs), None) == (got[0] if got else None), (w, lhs)


def _descent_lhss(n):
    return sorted(
        {
            r.lhs
            for variant in ("rdoubleprime", "rfull")
            for r in hecke_system(n, variant).rules
            if classify_rule(r)[0] in ("a", "b")
        }
    )


def test_every_placement_matches_oracle_rank4():
    ind, lhss = _independent(4), _descent_lhss(4)
    for w in all_words(4, 6):
        _check_placements(w, lhss, ind)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_every_placement_matches_oracle_rank6(data):
    w = tuple(data.draw(st.lists(st.integers(1, 6), max_size=9)))
    pick = st.sampled_from(w) if w and data.draw(st.booleans()) else st.integers(1, 6)
    lhs = tuple(data.draw(st.lists(pick, max_size=4)))
    _check_placements(w, [lhs, *_descent_lhss(6)], _independent(6))


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_any_independence_relation(data):
    """Any independent letter pairs, not only Hecke shapes: a random
    symmetric relation on up to 6 letters, its normal forms and placements."""
    k = data.draw(st.integers(1, 6))
    pairs = [(s, t) for s in range(1, k + 1) for t in range(s + 1, k + 1)]
    chosen = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    ind = frozenset(chosen) | frozenset((t, s) for s, t in chosen)
    w = tuple(data.draw(st.lists(st.integers(1, k), max_size=8)))
    lhs = tuple(data.draw(st.lists(st.integers(1, k), max_size=4)))
    members = {tuple(a for a, _ in x) for x in labelled_class(w, ind)}
    assert normal_form(w, ind) == min(members)
    _check_placements(w, [lhs], ind)
