"""Critical pair enumeration, joining, and local confluence reports."""

import itertools

from hypothesis import given, settings, strategies as st

from srw.critical import (
    enumerate_critical_pairs,
    join_pair,
    local_confluence_report,
)
from srw.hecke import hecke_system
from srw.words import Rule, SrsSystem, find_redexes

from oracles import layered_joinable, tiny_system


def test_single_rule_self_overlap():
    sys = hecke_system(1, "rfull")
    pairs = enumerate_critical_pairs(sys)
    assert len(pairs) == 2
    assert all(p.peak == (1, 1, 1) for p in pairs)
    assert all(p.kind == "overlap" for p in pairs)
    firsts = {p.first.render(1) for p in pairs}
    assert firsts == {"1:a1:-", "-:a1:1"}


def test_pair_counts_hecke():
    assert len(enumerate_critical_pairs(hecke_system(2, "rfull"))) == 10
    assert len(enumerate_critical_pairs(hecke_system(3, "rfull"))) == 50
    assert len(enumerate_critical_pairs(hecke_system(4, "rfull"))) == 146


def test_no_inclusion_pairs_in_hecke_full():
    pairs = enumerate_critical_pairs(hecke_system(4, "rfull"))
    assert all(p.kind == "overlap" for p in pairs)


def test_inclusion_pair_detected():
    sys = SrsSystem(
        n=2,
        rules=(Rule("outer", (1, 2, 1), (1,)), Rule("inner", (2,), (1,))),
    )
    pairs = enumerate_critical_pairs(sys)
    inc = [p for p in pairs if p.kind == "inclusion"]
    assert len(inc) == 2
    assert {p.first.rule.name for p in inc} == {"outer", "inner"}
    assert all(p.peak == (1, 2, 1) for p in inc)
    # the inner instance sits strictly inside
    inner = next(p.first for p in inc if p.first.rule.name == "inner")
    assert inner.left == (1,) and inner.right == (1,)


def test_prefix_inclusion_is_an_overlap():
    sys = SrsSystem(
        n=2,
        rules=(Rule("outer", (1, 2), (1,)), Rule("pre", (1,), (2,))),
    )
    pairs = enumerate_critical_pairs(sys)
    assert pairs and all(p.kind == "overlap" for p in pairs)


def _brute_force_overlap_peaks(sys: SrsSystem, max_len: int) -> set:
    """Every distinct redex pair with overlapping spans, context stripped."""
    peaks = set()
    for length in range(max_len + 1):
        for w in itertools.product(range(1, sys.n + 1), repeat=length):
            insts = find_redexes(w, sys)
            for i1 in insts:
                for i2 in insts:
                    if i1 == i2:
                        continue
                    a1, b1 = len(i1.left), len(i1.left) + len(i1.rule.lhs)
                    a2, b2 = len(i2.left), len(i2.left) + len(i2.rule.lhs)
                    if b1 <= a2 or b2 <= a1:
                        continue  # disjoint spans commute naturally
                    lo, hi = min(a1, a2), max(b1, b2)
                    peaks.add(
                        (
                            w[lo:hi],
                            (i1.left[lo:], i1.rule.name),
                            (i2.left[lo:], i2.rule.name),
                        )
                    )
    return peaks


def test_enumeration_matches_brute_force_scan():
    for sys in (tiny_system(), hecke_system(2, "rfull"), hecke_system(3, "rprime")):
        scanned = _brute_force_overlap_peaks(sys, 6)
        listed = {
            (p.peak, (p.first.left, p.first.rule.name), (p.second.left, p.second.rule.name))
            for p in enumerate_critical_pairs(sys)
        }
        assert scanned == listed


def test_join_pair_bound_sensitivity():
    sys = hecke_system(2, "rdoubleprime")
    pairs = [p for p in enumerate_critical_pairs(sys) if p.peak == (2, 1, 2, 2)]
    assert len(pairs) == 2
    for p in pairs:
        assert join_pair(p, sys, bound=1) is None
        j = join_pair(p, sys, bound=2)
        assert j is not None and j.target == (1, 2, 1)


def test_join_paths_land_on_target():
    sys = hecke_system(3, "rfull")
    for p in enumerate_critical_pairs(sys):
        j = join_pair(p, sys, bound=16)
        assert j is not None
        assert j.from_first.start == p.first.target
        assert j.from_second.start == p.second.target
        assert j.from_first.end == j.from_second.end == j.target


def test_local_confluence_verdicts():
    rp = local_confluence_report(hecke_system(3, "rprime"), bound=16)
    assert not rp.ok
    assert {p.peak for p in rp.failures} == {(3, 2, 3, 1)}
    assert rp.cut == () and rp.verdict == "FAIL"
    for variant in ("rdoubleprime", "rfull"):
        rep = local_confluence_report(hecke_system(3, variant), bound=16)
        assert rep.ok and not rep.failures


def test_cut_join_search_is_not_a_refutation():
    rdp = hecke_system(3, "rdoubleprime")
    cut = local_confluence_report(rdp, bound=1)
    assert len(cut.failures) == 24 and cut.cut == cut.failures
    assert cut.verdict == "UNKNOWN"
    assert local_confluence_report(rdp, bound=16).verdict == "PASS"
    # rprime's 3231 pairs are exhausted at depth 1: refuted from bound 1 on,
    # only cut at bound 0, where a pair with equal targets still joins.
    rp = hecke_system(3, "rprime")
    assert local_confluence_report(rp, bound=1).verdict == "FAIL"
    at0 = local_confluence_report(rp, bound=0)
    assert at0.verdict == "UNKNOWN" and at0.cut == at0.failures
    assert len(at0.failures) < at0.total
    rp4 = hecke_system(4, "rprime")
    full = local_confluence_report(rp4, bound=16)
    assert (len(full.failures), full.total, full.cut) == (4, 46, ())
    at1 = local_confluence_report(rp4, bound=1)
    assert set(at1.failures) - set(at1.cut) == set(full.failures)


@given(st.integers(0, 1))
@settings(max_examples=2, deadline=None)
def test_joinability_matches_layered_oracle(_):
    sys = hecke_system(2, "rdoubleprime")
    for p in enumerate_critical_pairs(sys):
        j = join_pair(p, sys, bound=6)
        oracle = layered_joinable(p.first.target, p.second.target, sys, depth=6)
        assert (j is not None) == oracle
