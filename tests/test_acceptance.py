"""Acceptance gate: eleven end-to-end checks with explicit time budgets.

Each test prints a single summary line on success; pytest's own report is
the pass/fail record.  Budgets use wall-clock time and are deliberately
loose so the checks stay meaningful on slow machines.
"""

import itertools
import random
import time

import pytest

from srw.cli import main
from srw.critical import enumerate_critical_pairs
from srw.diagrams import FuelExhausted, complete_peak, complete_zigzag
from srw.hecke import (
    _instance_key,
    _verify_attractor_loops,
    _verify_coherence,
    chosen_critical_ed_tagged,
    enumerate_monoid,
    hecke_order,
    hecke_provider,
    hecke_system,
)
from srw.order import check_decreasing
from srw.seminormal import attractor, attractors, canon, words_equal
from srw.words import BACKWARD, FORWARD, Path, RuleInstance, SrsSystem, Zigzag, find_redexes

from oracles import (
    all_words,
    congruence_closure,
    monomial_counterexamples,
    naive_redexes,
    natural_squares_upto,
)

ALLOWED_TAGS = {"improper", "natural", "transposed", "whiskered", "critical"}


def _budget(t0: float, limit: float, label: str) -> float:
    elapsed = time.monotonic() - t0
    assert elapsed < limit, f"{label} took {elapsed:.1f}s, budget {limit}s"
    return elapsed


def test_criterion_01_monoid_cardinalities():
    t0 = time.monotonic()
    sizes = {n: len(enumerate_monoid(n)) for n in (1, 2, 3, 4)}
    assert sizes == {1: 2, 2: 6, 3: 24, 4: 120}
    for n in (1, 2, 3):
        sys = hecke_system(n, "rdoubleprime")
        uf = congruence_closure(sys, 6)
        words = all_words(n, 6)
        roots = {uf.find(w) for w in words}
        assert len(roots) == sizes[n]
        root_to_canon = {}
        for w in words:
            c = canon(w, sys)
            r = uf.find(w)
            assert root_to_canon.setdefault(r, c) == c
        assert len(set(root_to_canon.values())) == sizes[n]
    elapsed = _budget(t0, 10.0, "criterion 1")
    print(f"criterion 1 PASS: cardinalities 2/6/24/120, oracle partition "
          f"matches for ranks 1-3 ({elapsed:.1f}s)")


def test_criterion_02_natural_squares_decreasing():
    t0 = time.monotonic()
    total = 0
    for n in (1, 2, 3, 4):
        sys = hecke_system(n, "rfull")
        rep = check_decreasing(sys.order, natural_squares_upto(sys, 3))
        assert rep.ok, rep.failures[:3]
        total += rep.checked
    assert total == 4 + 135 + 2560 + 21760
    elapsed = _budget(t0, 60.0, "criterion 2")
    print(f"criterion 2 PASS: {total} natural squares decreasing, "
          f"ranks 1-4, separators up to length 3 ({elapsed:.1f}s)")


def test_criterion_03_chosen_family_coverage():
    t0 = time.monotonic()
    counts = {}
    for n in (1, 2, 3, 4, 5, 6, 7):
        sys = hecke_system(n, "rfull")
        pairs = enumerate_critical_pairs(sys)
        rep = check_decreasing(sys.order, ((p, chosen_critical_ed_tagged(p, sys)[0]) for p in pairs))
        assert rep.ok, rep.failures[:3]
        counts[n] = rep.checked
    assert counts == {1: 2, 2: 10, 3: 50, 4: 146, 5: 326, 6: 618, 7: 1050}
    elapsed = _budget(t0, 60.0, "criterion 3")
    print(f"criterion 3 PASS: every critical pair classified and decreasing, "
          f"counts {counts} ({elapsed:.1f}s)")


def test_criterion_04_confluence_verdicts(tmp_path):
    t0 = time.monotonic()
    codes = {}
    for variant in ("rdoubleprime", "rfull", "rprime"):
        path = tmp_path / f"{variant}.json"
        assert main(["hecke", "gen", "3", "--variant", variant,
                     "-o", str(path)]) == 0
        codes[variant] = main(["confluence", str(path)])
    assert codes == {"rdoubleprime": 0, "rfull": 0, "rprime": 1}
    elapsed = _budget(t0, 10.0, "criterion 4")
    print(f"criterion 4 PASS: confluence passes rdoubleprime and rfull, "
          f"fails rprime at rank 3 ({elapsed:.1f}s)")


def test_criterion_05_tiling_terminates():
    t0 = time.monotonic()
    rng = random.Random(50)
    systems = {n: hecke_system(n, "rfull") for n in (1, 2, 3)}

    def random_path(w, sys):
        steps = []
        for _ in range(rng.randint(1, 3)):
            redexes = find_redexes(w, sys)
            if not redexes:
                break
            step = rng.choice(redexes)
            steps.append(step)
            w = step.target
        return steps

    done = 0
    cells_total = 0
    while done < 1000:
        n = rng.randint(1, 3)
        sys = systems[n]
        w = tuple(rng.randint(1, n) for _ in range(rng.randint(1, 8)))
        top_steps = random_path(w, sys)
        left_steps = random_path(w, sys)
        if not top_steps or not left_steps:
            continue
        top = Path(w, tuple(top_steps))
        left = Path(w, tuple(left_steps))
        try:
            t = complete_peak(sys, hecke_provider(sys), top, left, fuel=10000)
        except FuelExhausted:
            pytest.fail(f"fuel exhausted on peak at {w}")
        b = t.boundary()
        assert b.from_start.start == top.end
        assert b.from_end.start == left.end
        assert b.from_start.end == b.sink and b.from_end.end == b.sink
        for cell in t.cells:
            assert cell.tag in ALLOWED_TAGS, cell.tag
        cells_total += len(t.cells)
        done += 1
    elapsed = _budget(t0, 120.0, "criterion 5")
    print(f"criterion 5 PASS: 1000 random multi-step peaks tiled to "
          f"completion, {cells_total} recognized cells ({elapsed:.1f}s)")


def _random_zigzag(rng, sys):
    n = sys.n
    cur = tuple(rng.randint(1, n) for _ in range(rng.randint(1, 6)))
    start = cur
    legs = []
    for _ in range(rng.randint(0, 6)):
        want_forward = rng.random() < 0.5
        forward_opts = find_redexes(cur, sys)
        backward_opts = []
        for rule in sys.rules:
            m = len(rule.rhs)
            for p in range(len(cur) - m + 1):
                if cur[p:p + m] == rule.rhs:
                    backward_opts.append(
                        RuleInstance(cur[:p], rule, cur[p + m:])
                    )
        if want_forward and forward_opts:
            step = rng.choice(forward_opts)
            legs.append((FORWARD, step))
            cur = step.target
        elif backward_opts:
            step = rng.choice(backward_opts)
            legs.append((BACKWARD, step))
            cur = step.source
        elif forward_opts:
            step = rng.choice(forward_opts)
            legs.append((FORWARD, step))
            cur = step.target
        else:
            break
    return Zigzag(start, tuple(legs))


def test_criterion_06_zigzag_completion():
    t0 = time.monotonic()
    rng = random.Random(60)
    systems = {n: hecke_system(n, "rfull") for n in (1, 2, 3)}
    for _ in range(500):
        n = rng.randint(1, 3)
        sys = systems[n]
        z = _random_zigzag(rng, sys)
        comp = complete_zigzag(sys, hecke_provider(sys), z, fuel=10000)
        c = canon(comp.common, sys)
        assert c == canon(z.start, sys) == canon(z.end, sys)
    elapsed = _budget(t0, 60.0, "criterion 6")
    print(f"criterion 6 PASS: 500 random zigzags meet at a common reduct in "
          f"the endpoints' class ({elapsed:.1f}s)")


def test_criterion_07_attractor_single_class():
    t0 = time.monotonic()
    classes = 0
    for n in (1, 2, 3):
        sys = hecke_system(n, "rfull")
        seen = set()
        for length in range(7):
            for w in itertools.product(range(1, n + 1), repeat=length):
                if w in seen:
                    continue
                a = attractor(w, sys)  # raises NotOneClass on failure
                assert w in a.members or a.members
                seen.update(a.members)
                classes += 1
    elapsed = _budget(t0, 60.0, "criterion 7")
    print(f"criterion 7 PASS: {classes} attractor classes computed, each a "
          f"single interchange class ({elapsed:.1f}s)")


def _sweep_attractor_loops(n: int) -> tuple[int, int]:
    """The word sweep that `_verify_attractor_loops`'s per-rule measure
    replaced, kept as its oracle: every attractor class of the rank-n rfull
    words up to length 6, each member checked by brute force for a step of
    a rule that is not a two-letter swap.  Returns (classes, words)."""
    sys = hecke_system(n, "rfull")
    descents = SrsSystem(n, tuple(r for r in sys.rules if r.rhs != r.lhs[::-1]))
    found = attractors(all_words(n, 6), sys)
    classes = {cls.canon: cls for cls in found.values()}
    for cls in classes.values():
        for m in cls.members:
            assert not naive_redexes(m, descents), (n, m)
    return len(classes), len(found)


def test_criterion_08_attractor_loops_commute():
    t0 = time.monotonic()
    for n in range(1, 9):
        item = _verify_attractor_loops(hecke_system(n, "rfull"))
        assert item.status == "PASS", item.detail
    for n in (1, 2, 3, 4):
        _sweep_attractor_loops(n)
    elapsed = _budget(t0, 30.0, "criterion 8")
    print(f"criterion 8 PASS: all attractor loop steps are commutations for "
          f"every word at ranks 1-8, and in the sweep of ranks 1-4 up to length 6 "
          f"({elapsed:.1f}s)")


def test_criterion_08_attractor_loops_commute_rank5():
    t0 = time.monotonic()
    classes, words = _sweep_attractor_loops(5)
    elapsed = _budget(t0, 5.0, "criterion 8 at rank 5")
    assert (classes, words) == (259, 19531)
    print(f"criterion 8 PASS at rank 5: {classes} attractor classes over {words} "
          f"words, all loop steps are commutations ({elapsed:.1f}s)")


def test_criterion_09_word_problem_oracle():
    t0 = time.monotonic()
    checked = 0
    for n in (1, 2, 3):
        sys = hecke_system(n, "rfull")
        uf = congruence_closure(sys, 5)
        words = all_words(n, 5)
        for w in words:
            canon(w, sys)  # warm the per-word cache
        for u, v in itertools.combinations(words, 2):
            assert words_equal(u, v, sys) == uf.same(u, v), (u, v)
            checked += 1
    elapsed = _budget(t0, 120.0, "criterion 9")
    print(f"criterion 9 PASS: equality agrees with congruence closure on "
          f"{checked} pairs ({elapsed:.1f}s)")


def test_criterion_10_coherence():
    t0 = time.monotonic()
    sys = hecke_system(3, "rfull")
    assert all(len(p.peak) <= 7 for p in enumerate_critical_pairs(sys))
    item = _verify_coherence(sys, 100000)
    assert item.status == "PASS", item.detail
    assert item.detail.startswith("25/25")
    elapsed = _budget(t0, 600.0, "criterion 10")
    print(f"criterion 10 PASS: {item.detail} ({elapsed:.1f}s)")


def test_criterion_10_coherence_rank5():
    t0 = time.monotonic()
    item = _verify_coherence(hecke_system(5, "rfull"), 100000)
    assert item.status == "PASS", item.detail
    assert item.detail.startswith("163/163")
    elapsed = _budget(t0, 30.0, "criterion 10 at rank 5")
    print(f"criterion 10 PASS at rank 5: {item.detail} ({elapsed:.1f}s)")


def test_criterion_11_order_sanity():
    t0 = time.monotonic()
    sys = hecke_system(4, "rfull")
    order = hecke_order()
    instances = []
    for rule in sys.rules:
        room = 8 - len(rule.lhs)
        for m in range(room + 1):
            for i in range(m + 1):
                for u in itertools.product(range(1, 5), repeat=i):
                    for v in itertools.product(range(1, 5), repeat=m - i):
                        instances.append(RuleInstance(u, rule, v))
    keys = [_instance_key(p) for p in instances]
    keys.sort()  # a total key ranking exists, so the strict part is acyclic
    assert len(keys) == len(instances)

    rng = random.Random(11)
    nonvacuous = 0
    for _ in range(10000):
        p, q, r = (rng.choice(instances) for _ in range(3))
        pq, qp, eq = order.greater(p, q), order.greater(q, p), order.equivalent(p, q)
        assert pq + qp + eq == 1
        kp, kq = _instance_key(p), _instance_key(q)
        assert (pq, qp, eq) == (kp > kq, kq > kp, kp == kq)
        if eq and order.equivalent(q, r):
            assert order.equivalent(p, r)
            nonvacuous += 1
    assert nonvacuous > 0

    bad = monomial_counterexamples(order, sys, trials=10000, seed=7)
    assert not bad, bad[:3]
    elapsed = _budget(t0, 60.0, "criterion 11")
    print(f"criterion 11 PASS: order total and asymmetric on {len(instances)} "
          f"instances, equivalence transitive ({nonvacuous} live triples), "
          f"monomial on 10000 sampled contexts ({elapsed:.1f}s)")
