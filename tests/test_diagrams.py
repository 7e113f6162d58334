"""Elementary diagrams, tiling, completion, path equivalence, dot export."""

import time

import pytest
from hypothesis import given, settings, strategies as st

from srw.diagrams import (
    CellFamily,
    CellRecord,
    CornerMismatch,
    ElementaryDiagram,
    FuelExhausted,
    NoCellForCorner,
    NotParallel,
    PathVerdict,
    Tiling,
    bfs_join_chooser,
    complete_peak,
    complete_tiling,
    complete_zigzag,
    export_dot,
    paths_equivalent_mod_cells,
    transpose_ed,
    whisker_ed,
)
from srw import hecke
from srw.critical import enumerate_critical_pairs
from srw.hecke import cells_P, hecke_provider, hecke_system
from srw.seminormal import canon, measure_split
from srw.words import (
    BACKWARD,
    FORWARD,
    Path,
    Rule,
    RuleInstance,
    SourceMismatch,
    SrsSystem,
    Zigzag,
    find_redexes,
)

from oracles import (
    all_words,
    natural_square,
    rescan_tiling,
    scan_neighbours,
    scan_path_search,
    tiny_system,
)
from test_words import systems_with_words


def _h3():
    return hecke_system(3, "rfull")


def _peak_tiling(sys, top: RuleInstance, left: RuleInstance) -> Tiling:
    """The untiled peak of two co-initial steps."""
    return Tiling(sys.n, Zigzag(top.target, ((BACKWARD, top), (FORWARD, left))))


def test_diagram_shapes():
    sys = tiny_system()
    dbl = sys.rule("dbl")
    top = RuleInstance((1,), dbl, ())
    left = RuleInstance((), dbl, (1,))
    mid = RuleInstance((), dbl, ())
    proper = ElementaryDiagram(
        top=top,
        left=left,
        right=Path(top.target, (mid,)),
        bottom=Path(left.target, (mid,)),
    )
    assert proper.right.end == proper.bottom.end == (1,)

    other = RuleInstance((2,), dbl, ())  # source 211, not 111
    bad_shapes = [
        (other, left, Path(other.target), Path(left.target, (mid,))),
        (top, left, Path(top.source, (top,)), Path(left.target, (mid,))),
        (top, left, Path(top.target, (mid,)), Path(left.source, (left,))),
        (top, left, Path(top.target, (mid,)), Path(left.target)),  # no convergence
    ]
    for t, l, r, b in bad_shapes:
        with pytest.raises(SourceMismatch):
            ElementaryDiagram(top=t, left=l, right=r, bottom=b)


def test_natural_whisker_transpose():
    sys = _h3()
    ed = ElementaryDiagram(*natural_square(sys.rule("a1"), (3,), sys.rule("c31")))
    assert ed.top.source == ed.left.source == (1, 1, 3, 3, 1)
    assert ed.right.end == ed.bottom.end == (1, 3, 1, 3)
    w = whisker_ed(ed, (2,), (2,))
    assert w.top.source == (2,) + ed.top.source + (2,)
    t = transpose_ed(ed)
    assert t.top == ed.left and t.left == ed.top
    assert t.right.steps == ed.bottom.steps and t.bottom.steps == ed.right.steps


def test_tiling_walk_and_corners():
    sys = _h3()
    w = (3, 2, 1, 3)
    top = find_redexes(w, sys)[1]  # 32:c13:-
    left = find_redexes(w, sys)[0]  # -:b31:-
    t = _peak_tiling(sys, top, left)
    assert t.open_corners()
    corners = t.open_corners()
    assert len(corners) == 1
    idx, h, v = corners[0]
    assert h == top and v == left
    assert (t.walk_start, t.walk_end) == (top.target, left.target)


def test_adjoin_validates_corner():
    sys = _h3()
    w = (3, 2, 1, 3)
    t = _peak_tiling(sys, find_redexes(w, sys)[1], find_redexes(w, sys)[0])
    idx, h, v = t.open_corners()[0]
    # the improper cell of the vertical step does not fit: its top is not h
    unit = ElementaryDiagram(top=v, left=v, right=Path(v.target), bottom=Path(v.target))
    with pytest.raises(CornerMismatch):
        t.adjoin_at_corner(idx, unit, tag="improper")
    # A cell adjoined by hand keeps its origin, the default "" included,
    # after the tiler has glued more cells, which it names from their steps.
    top, left = h, v
    more = find_redexes(top.target, sys)[0]
    t = Tiling(3, Zigzag(more.target, ((BACKWARD, more), (BACKWARD, top), (FORWARD, left))))
    ((idx, _, _),) = t.open_corners()
    pair = next(p for p in enumerate_critical_pairs(sys) if (p.first, p.second) == (top, left))
    ed, _ = hecke_provider(sys)(pair)
    t.adjoin_at_corner(idx, ed, "critical")
    assert t.open_corners()
    complete_tiling(t, hecke_provider(sys))
    assert t.cells[0] == CellRecord(ed, "critical", "") and len(t.cells) > 1
    assert all(c.origin.startswith(("natural(", "critical(", "repeated-step")) for c in t.cells[1:])


def test_complete_peak_undo_square():
    sys = _h3()
    w = (3, 2, 1, 3)
    top = Path(w, (find_redexes(w, sys)[1],))
    left = Path(w, (find_redexes(w, sys)[0],))
    t = complete_peak(sys, hecke_provider(sys), top, left)
    assert not t.open_corners()
    b = t.boundary()
    assert b.sink == (2, 3, 2, 1)
    assert [s.render(3) for s in b.from_start.steps] == ["32:c31:-", "-:b31:-"]
    assert len(b.from_end) == 0
    assert [rec.tag for rec in t.cells] == ["critical"]


def test_complete_peak_trivial_and_degenerate():
    sys = _h3()
    w = (1, 1)
    step = find_redexes(w, sys)[0]
    p = Path(w, (step,))
    # identical paths close with a single improper cell
    t = complete_peak(sys, hecke_provider(sys), p, p)
    assert not t.open_corners()
    b = t.boundary()
    assert b.sink == (1,)
    assert len(b.from_start) == 0 and len(b.from_end) == 0
    assert [rec.tag for rec in t.cells] == ["improper"]
    dot = export_dot(t)
    assert "style=dashed" in dot
    # An empty left path still has to start where the top path does.
    with pytest.raises(SourceMismatch):
        complete_peak(sys, hecke_provider(sys), p, Path((1,)))


def test_fuel_exhausted():
    sys = _h3()
    w = (3, 2, 1, 3)
    top = Path(w, (find_redexes(w, sys)[1],))
    left = Path(w, (find_redexes(w, sys)[0],))
    with pytest.raises(FuelExhausted):
        complete_peak(sys, hecke_provider(sys), top, left, fuel=0)


def _no_critical_cells(pair):
    raise AssertionError(f"disjoint redexes reached the chooser: {pair}")


def test_natural_cells_in_place_equal_the_three_stage_build():
    """The tiler's natural and transposed cells, each the one cell of a
    one-corner tiling, equal the bare square whiskered into place."""
    sys = hecke_system(4, "rfull")
    checked = {"natural": 0, "transposed": 0}
    for w in all_words(4, 6):
        redexes = find_redexes(w, sys)
        for h in redexes:
            for v in redexes:
                ah, bh = len(h.left), len(h.left) + len(h.rule.lhs)
                av, bv = len(v.left), len(v.left) + len(v.rule.lhs)
                if bh <= av:
                    built = ElementaryDiagram(*natural_square(h.rule, w[bh:av], v.rule))
                    built = whisker_ed(built, h.left, v.right)
                    tag = "natural"
                elif bv <= ah:
                    built = transpose_ed(ElementaryDiagram(*natural_square(v.rule, w[bv:ah], h.rule)))
                    built = whisker_ed(built, v.left, h.right)
                    tag = "transposed"
                else:
                    continue
                t = complete_tiling(_peak_tiling(sys, h, v), _no_critical_cells, 1)
                (cell,) = t.cells
                assert cell.ed == built
                assert (cell.tag, cell.origin) == (tag, f"natural({h.rule.name},{v.rule.name})")
                checked[tag] += 1
    assert checked["natural"] == checked["transposed"] > 10000


def _inverse_steps(w, sys: SrsSystem) -> list[RuleInstance]:
    """Every step whose target is w."""
    return [
        RuleInstance(w[:i], r, w[i + len(r.rhs) :])
        for r in sys.rules
        for i in range(len(w) - len(r.rhs) + 1)
        if w[i : i + len(r.rhs)] == r.rhs
    ]


def _seeded_zigzags(rng, sys: SrsSystem, count: int) -> list[Zigzag]:
    """Peaks (some sharing a first step, so repeated-step cells occur)
    and zigzags whose legs run either way (a step walked back and then
    forward again is a repeated-step corner)."""
    out = []
    while len(out) < count:
        w = tuple(rng.randint(1, sys.n) for _ in range(rng.randint(4, 12)))
        if rng.random() < 0.5:
            top = _random_walk(rng, sys, w, rng.randint(1, 5))
            left = _random_walk(rng, sys, w, rng.randint(1, 5))
            if rng.random() < 0.3 and top.steps:
                rest = _random_walk(rng, sys, top.steps[0].target, 3)
                left = Path(w, top.steps[:1] + rest.steps)
            legs = tuple((BACKWARD, s) for s in reversed(top.steps))
            legs += tuple((FORWARD, s) for s in left.steps)
            out.append(Zigzag(top.end, legs))
            continue
        legs, cur = [], w
        for _ in range(rng.randint(2, 8)):
            forward = find_redexes(cur, sys)
            if legs and legs[-1][0] == BACKWARD and rng.random() < 0.2:
                leg = (FORWARD, legs[-1][1])
            elif forward and rng.random() < 0.5:
                leg = (FORWARD, rng.choice(forward))
            else:
                leg = (BACKWARD, rng.choice(_inverse_steps(cur, sys)))
            legs.append(leg)
            cur = leg[1].target if leg[0] == FORWARD else leg[1].source
        out.append(Zigzag(w, tuple(legs)))
    return out


def _cells(t: Tiling) -> list[tuple]:
    return [(c.ed.top, c.ed.left, c.ed.right, c.ed.bottom, c.tag, c.origin) for c in t.cells]


@pytest.mark.parametrize("n", [4, 5])
def test_resumed_corner_scan_glues_cells_in_the_rescan_order(n):
    """The coded tiler against the object-level reference tiler: the same
    cells in the same order, the same boundary, and at every fuel short
    of completion the same `FuelExhausted` text after the same cells."""
    import random

    rng = random.Random(1100 + n)
    sys = hecke_system(n, "rfull")
    chooser = hecke_provider(sys)
    tags = set()
    for zig in _seeded_zigzags(rng, sys, 150):
        ref_cells, ref_boundary = rescan_tiling(zig, chooser, 10000)
        t = complete_tiling(Tiling(n, zig), chooser, 10000)
        assert _cells(t) == ref_cells
        b = t.boundary()
        assert (b.sink, b.from_start, b.from_end) == ref_boundary
        tags.update(c.tag for c in t.cells)
        for fuel in range(len(ref_cells)):
            ref_cut, message = rescan_tiling(zig, chooser, fuel)
            cut = Tiling(n, zig)
            with pytest.raises(FuelExhausted) as exc:
                complete_tiling(cut, chooser, fuel)
            assert str(exc.value) == message
            assert _cells(cut) == ref_cut
        assert _cells(complete_tiling(Tiling(n, zig), chooser, len(ref_cells))) == ref_cells
    assert {"improper", "natural", "transposed", "whiskered"} <= tags


@pytest.mark.parametrize(
    "n,variant,make_chooser",
    [(4, "rfull", hecke_provider), (5, "rfull", hecke_provider), (3, "rdoubleprime", bfs_join_chooser)],
    ids=["rfull4", "rfull5", "rdoubleprime3-bfs"],
)
def test_tiling_nodes_and_edges_hold_their_steps(n, variant, make_chooser):
    """Every solid edge's step runs between its two nodes' words, every
    dashed edge joins two equal words, and the nodes are the walk's plus
    one per step of each reference cell's sides but the last."""
    import random

    sys = hecke_system(n, variant)
    chooser = make_chooser(sys)
    kinds = {"V": 0, "H": 0, "dashed": 0}
    for zig in _seeded_zigzags(random.Random(3500 + n), sys, 100):
        t = complete_tiling(Tiling(n, zig), chooser)
        nodes = t.nodes
        for e in t.edges:
            if e.step is None:
                assert e.kind == "H" and nodes[e.src] == nodes[e.dst]
                kinds["dashed"] += 1
            else:
                assert (e.step.source, e.step.target) == (nodes[e.src], nodes[e.dst])
                kinds[e.kind] += 1
        ref_cells, _ = rescan_tiling(zig, chooser, 10000)
        made = sum(max(len(right) + len(bottom) - 1, 0) for _, _, right, bottom, _, _ in ref_cells)
        assert len(nodes) == len(zig.legs) + 1 + made
    assert min(kinds.values()) > 0


def test_chooser_is_asked_once_per_bare_pair():
    """The tiler remembers each chooser's cells: over many tilings it asks
    once per bare pair, and a tiling repeated with the same chooser asks
    nothing."""
    import random

    sys = hecke_system(4, "rfull")
    curated = hecke_provider(sys)
    asked = []

    def chooser(pair):
        asked.append(pair)
        return curated(pair)

    zigs = _seeded_zigzags(random.Random(7), sys, 200)
    first = [_cells(complete_tiling(Tiling(4, z), chooser)) for z in zigs]
    assert len(asked) == len(set(asked)) > 20
    before = len(asked)
    assert [_cells(complete_tiling(Tiling(4, z), chooser)) for z in zigs] == first
    assert len(asked) == before
    # A chooser that takes no weak reference gets a memo per tiling.
    assert [_cells(complete_tiling(Tiling(4, z), _Slotted(curated))) for z in zigs] == first


class _Slotted:
    __slots__ = ("choose",)

    def __init__(self, choose):
        self.choose = choose

    def __call__(self, pair):
        return self.choose(pair)


def test_one_numbering_serves_the_tiler(monkeypatch):
    """From an empty numbering, tilings built while later systems' rules
    are numbered, a critical cell and a diagram adjoined by hand whose
    rule c31 is new all equal the reference tiler's; a path search then
    leaves the numbering as the tilings made it."""
    import random
    import weakref

    from srw import diagrams

    def fresh_numbering():
        monkeypatch.setattr(diagrams, "_CODER", diagrams._Coder())
        monkeypatch.setattr(diagrams, "_CHOSEN", weakref.WeakKeyDictionary())

    fresh_numbering()
    rng = random.Random(21)
    for n in (3, 4, 5):
        sys = hecke_system(n, "rfull")
        zigs = _seeded_zigzags(rng, sys, 40)
        early = Tiling(n, zigs[0])  # coded before the later systems' rules
        chooser = hecke_provider(sys)
        for zig in zigs[1:]:
            ref_cells, ref_boundary = rescan_tiling(zig, chooser, 10000)
            t = complete_tiling(Tiling(n, zig), chooser)
            b = t.boundary()
            assert _cells(t) == ref_cells
            assert (b.sink, b.from_start, b.from_end) == ref_boundary
        assert _cells(complete_tiling(early, chooser)) == rescan_tiling(zigs[0], chooser, 10000)[0]
    # A critical cell, then a diagram adjoined by hand, whose rule c31 is
    # new to a numbering that holds only the corner's two rules.
    sys = _h3()
    w = (3, 2, 1, 3)
    top, left = find_redexes(w, sys)[1], find_redexes(w, sys)[0]
    zig = Zigzag(top.target, ((BACKWARD, top), (FORWARD, left)))
    fresh_numbering()
    t = complete_tiling(Tiling(3, zig), hecke_provider(sys))
    assert _cells(t) == rescan_tiling(zig, hecke_provider(sys), 1)[0]
    assert len(diagrams._CODER.rules) == 3
    fresh_numbering()
    t = Tiling(3, zig)
    ((_, h, v),) = t.open_corners()
    ed = next(
        ed
        for pair in enumerate_critical_pairs(sys)
        if (pair.first, pair.second) == (h, v)
        for ed in [hecke.chosen_critical_ed_tagged(pair, sys)[0]]
    )
    t.adjoin_at_corner(0, ed, "critical", "by hand")
    assert t.cells == [CellRecord(ed, "critical", "by hand")]
    assert t.boundary().sink == (2, 3, 2, 1)
    # A path search after tilings numbers no rule.
    for zig in _seeded_zigzags(rng, sys, 20):
        complete_tiling(Tiling(3, zig), hecke_provider(sys))
    tiled = list(diagrams._CODER.rules)
    base = cells_P(3)
    m = dict(zip(base.labels, base.members))
    assert paths_equivalent_mod_cells(*m["loop(1,3)"], base, 100) is PathVerdict.EQUIVALENT
    assert diagrams._CODER.rules == tiled


def test_the_numbering_stops_at_the_stride(monkeypatch):
    """A rule past the stride is refused, not coded into a wrong decode."""
    from srw import diagrams

    monkeypatch.setattr(diagrams, "_STRIDE", 4)
    monkeypatch.setattr(diagrams, "_CODER", diagrams._Coder())
    steps = [RuleInstance((), r, ()) for r in _h3().rules[:5]]
    assert diagrams._CODER.codes(steps[:4]) == ((0, 1, 2, 3),)
    with pytest.raises(ValueError, match="stride 4"):
        diagrams._CODER.codes(steps)
    assert diagrams._CODER.rules == [st.rule for st in steps[:4]]


def test_chooser_cells_must_fit_their_pair():
    sys = _h3()
    w = (3, 2, 1, 3)
    top = Path(w, (find_redexes(w, sys)[1],))
    left = Path(w, (find_redexes(w, sys)[0],))
    with pytest.raises(NoCellForCorner, match=r"no cell for corner \(32:c13:-, -:b31:-\)"):
        complete_peak(sys, lambda pair: None, top, left)
    curated = hecke_provider(sys)

    def flipped(pair):
        ed, transposed = curated(pair)
        return transpose_ed(ed), not transposed

    with pytest.raises(CornerMismatch, match="critical cell does not fit its corner"):
        complete_peak(sys, flipped, top, left)


def test_bfs_chooser_provider_completes():
    sys = hecke_system(3, "rdoubleprime")
    w = (2, 1, 2, 2)
    insts = find_redexes(w, sys)
    t = complete_peak(sys, bfs_join_chooser(sys), Path(w, (insts[0],)), Path(w, (insts[1],)))
    b = t.boundary()
    assert b.from_start.end == b.from_end.end == b.sink


def test_bfs_join_chooser_one_step_square():
    sys = _h3()
    pair = next(
        p
        for p in enumerate_critical_pairs(sys)
        if p.peak == (3, 2, 1, 3) and p.first.rule.name == "c13"
    )
    ed, transposed = bfs_join_chooser(sys)(pair)
    assert ed.top == pair.first and ed.left == pair.second and not transposed
    assert [s.render(3) for s in ed.right.steps] == ["-:b32:1"]
    assert len(ed.bottom) == 0


def test_zigzag_completion_forward_only():
    sys = _h3()
    w = (1, 1, 3)
    s1 = find_redexes(w, sys)[0]
    s2 = find_redexes(s1.target, sys)[0]
    z = Zigzag(w, ((FORWARD, s1), (FORWARD, s2)))
    comp = complete_zigzag(sys, hecke_provider(sys), z)
    assert comp.from_start.steps == (s1, s2)
    assert len(comp.from_end) == 0
    assert comp.common == (3, 1)


def test_zigzag_completion_mixed_legs():
    sys = _h3()
    a1 = sys.rule("a1")
    up = RuleInstance((), a1, (3,))  # 113 -> 13 traversed backward
    down = RuleInstance((), sys.rule("c13"), ())  # 13 -> 31
    z = Zigzag((1, 3), ((BACKWARD, up), (FORWARD, up), (FORWARD, down)))
    comp = complete_zigzag(sys, hecke_provider(sys), z)
    assert canon(comp.common, sys) == canon((1, 3), sys)
    assert comp.from_start.start == (1, 3) and comp.from_end.start == (3, 1)
    assert comp.from_start.end == comp.from_end.end == comp.common


def test_paths_equivalent_trivial_and_swap():
    sys = _h3()
    fam = CellFamily(name="empty", members=())
    a1 = RuleInstance((), sys.rule("a1"), (2, 2))
    a2 = RuleInstance((1, 1), sys.rule("a2"), ())
    p = Path((1, 1, 2, 2), (a1, RuleInstance((1,), sys.rule("a2"), ())))
    q = Path((1, 1, 2, 2), (a2, RuleInstance((), sys.rule("a1"), (2,))))
    assert paths_equivalent_mod_cells(p, p, fam, bound=10) is PathVerdict.EQUIVALENT
    assert paths_equivalent_mod_cells(p, q, fam, bound=1000) is PathVerdict.EQUIVALENT


def test_paths_equivalent_needs_the_right_cells():
    sys = hecke_system(3, "rdoubleprime")
    c31 = RuleInstance((), sys.rule("c31"), ())
    c13 = RuleInstance((), sys.rule("c13"), ())
    loop = Path((3, 1), (c31, c13))
    empty = Path((3, 1))
    bare = CellFamily(name="bare", members=())
    assert paths_equivalent_mod_cells(loop, empty, bare, bound=500) is PathVerdict.EXHAUSTED
    fam = cells_P(3)
    assert paths_equivalent_mod_cells(loop, empty, fam, bound=500) is PathVerdict.EQUIVALENT


@pytest.mark.parametrize("bound", [100, 2000, 20000])
def test_a_missing_member_runs_the_search_dry(bound):
    """Without loop(1,3) and zz(2), loop(1,3)'s sides have no chain: the
    search says so at once, whatever the bound."""
    base = cells_P(3)
    m = dict(zip(base.labels, base.members))
    kept = [label for label in base.labels if label not in ("loop(1,3)", "zz(2)")]
    family = CellFamily(name="P", members=tuple(m[x] for x in kept), labels=tuple(kept))
    t0 = time.perf_counter()
    assert paths_equivalent_mod_cells(*m["loop(1,3)"], family, bound) is PathVerdict.EXHAUSTED
    assert time.perf_counter() - t0 < 1.0


def _erasing_square():
    """12 -e-> 2 -f-> () against 12 -f-> 1 -e-> (): one natural square of
    two erasing steps."""
    e, f = Rule("e", (1,), ()), Rule("f", (2,), ())
    p = Path((1, 2), (RuleInstance((), e, (2,)), RuleInstance((), f, ())))
    q = Path((1, 2), (RuleInstance((1,), f, ()), RuleInstance((), e, ())))
    return p, q


def test_erasing_steps_commute_by_their_natural_square():
    p, q = _erasing_square()
    empty = CellFamily(name="empty", members=())
    none = frozenset()
    assert paths_equivalent_mod_cells(p, q, empty, 1, independent=none) is PathVerdict.EQUIVALENT
    assert paths_equivalent_mod_cells(q, p, empty, 1, independent=none) is PathVerdict.EQUIVALENT


def test_commutations_refuse_an_erasing_rule():
    p, q = _erasing_square()
    empty = CellFamily(name="empty", members=())
    ind = frozenset({(1, 3), (3, 1)})
    with pytest.raises(ValueError, match="rule e: "):
        paths_equivalent_mod_cells(p, q, empty, 10, independent=ind)
    grow = Rule("grow", (1,), (1, 2))
    p = Path((1,), (RuleInstance((), grow, ()),))
    with pytest.raises(ValueError, match="rule grow: "):
        paths_equivalent_mod_cells(p, p, empty, 10, independent=ind)


def _hand_made_searches():
    """Searches that need a loop inserted, or that meet a member's start
    word twice in one word, over the rank-3 base family."""
    base = cells_P(3)
    m = dict(zip(base.labels, base.members))
    loops = (m["loop(1,3)"], m["loop(3,1)"])
    loop = m["loop(1,3)"][0]
    side1, side2 = m["aa(1)"]

    def twice(x: Path, y: Path) -> Path:
        """x on the first 111 of 1113111, then y on the second."""
        first = x.whisker((), (3, 1, 1, 1))
        return Path(first.start, first.steps + y.whisker(first.end[:-3], ()).steps)

    # Only inserting loop(1,3) at the second 13 of 13213 reaches q.
    yield Path((1, 3, 2, 1, 3)), loop.whisker((1, 3, 2), ()), loops[:1]
    yield twice(side1, side1), twice(side2, side2), (m["aa(1)"],) + loops
    yield twice(side1, side2), twice(side2, side1), loops + (m["aa(1)"],)


def _assert_matches_scan(p: Path, q: Path, members: tuple) -> None:
    """q is a few of the oracle's moves from p: the oracle's scan and the
    search both join them, the search without running dry."""
    fam = CellFamily(name="t", members=members)
    assert scan_path_search(p, q, members, 20000), (p, q)
    assert paths_equivalent_mod_cells(p, q, fam, 20000) is PathVerdict.EQUIVALENT, (p, q)


@pytest.mark.parametrize("case", range(3))
def test_path_search_matches_scan_reference(case):
    _assert_matches_scan(*list(_hand_made_searches())[case])


def test_path_search_matches_scan_reference_rank3_coherence():
    """Each rank-3 class, translated to rdoubleprime, against `cells_P(3)`."""
    rdp = hecke_system(3, "rdoubleprime")
    classes = hecke._coherence_classes(hecke_system(3, "rfull"))
    assert len(classes) == 25
    for _, sides in classes:
        _assert_matches_scan(*(hecke.translate_to_basic(s, rdp) for s in sides), cells_P(3).members)


def _loop_rules(m: int) -> tuple[Rule, ...]:
    """A lengthening and two shortening rules on a letter m that the drawn
    rules never touch, so that loops exist; `twin` rewrites like `drop`
    and `fold`, but only family members use it, so it occurs in neither
    searched path."""
    return (
        Rule("grow", (m,), (m, m)),
        Rule("drop", (m, m), (m,)),
        Rule("fold", (m, m), (m,)),
        Rule("twin", (m, m), (m,)),
    )


def _random_walk(rng, sys: SrsSystem, start, length: int) -> Path:
    steps, cur = [], start
    for _ in range(length):
        reds = find_redexes(cur, sys)
        if not reds:
            break
        steps.append(rng.choice(reds))
        cur = steps[-1].target
    return Path(start, tuple(steps))


def _random_family(rng, sys: SrsSystem, twin: Rule) -> tuple:
    """Loop members (a loop against the empty path) and members through
    `twin`, each in a random context of at most one letter a side, and
    parallel pairs of random walks from short words."""
    grow, drop, fold = (RuleInstance((), sys.rule(name), ()) for name in ("grow", "drop", "fold"))
    tw, m = RuleInstance((), twin, ()), (sys.n,)

    def context():
        return tuple(rng.randint(1, sys.n) for _ in range(rng.randint(0, 1)))

    members = []
    for a, b in [
        (Path(m, (grow, drop)), Path(m)),
        (Path(m + m, (drop,)), Path(m + m, (tw,))),
        (Path(m + m, (tw,)), Path(m + m, (fold,))),
        (Path(m, (grow, tw)), Path(m)),
    ]:
        u, v = context(), context()
        members.append((a.whisker(u, v), b.whisker(u, v)))
    by_end: dict = {}
    for _ in range(40):
        u = tuple(rng.randint(1, sys.n) for _ in range(rng.randint(1, 3)))
        walk = _random_walk(rng, sys, u, rng.randint(0, 3))
        by_end.setdefault((u, walk.end), set()).add(walk)
    for walks in by_end.values():
        walks = sorted(walks, key=lambda w: w.render(sys.n))
        members += [(a, b) for a, b in zip(walks, walks[1:])][:2]
    rng.shuffle(members)
    return tuple(members[:8])


@given(systems_with_words(), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_path_search_matches_scan_reference_on_random_systems(case, rng):
    drawn, w = case
    m = drawn.n + 1
    *loops, twin = _loop_rules(m)
    sys = SrsSystem(n=m, rules=drawn.rules + tuple(loops))
    members = _random_family(rng, sys, twin)
    # A start word longer than the number of rules, so that some steps
    # sit at offsets past it, with the loop letter once or twice.
    start = list(w) + [rng.randint(1, drawn.n) for _ in range(len(sys.rules) + 2 - len(w))]
    for _ in range(rng.randint(1, 2)):
        start.insert(rng.randint(0, len(start)), m)
    p = _random_walk(rng, sys, tuple(start), rng.randint(2, 5))
    # q: one adjacent swap from p in half of the cases where p has one,
    # else one to three moves of the search.
    swaps = scan_neighbours(p.start, p.steps, [])
    moves = [move for a, b in members for move in ((a, b), (b, a))]
    steps = rng.choice(swaps) if swaps and rng.random() < 0.5 else p.steps
    for _ in range(0 if steps != p.steps else rng.randint(1, 3)):
        found = scan_neighbours(p.start, steps, moves)
        nexts = [n for n in found if n != p.steps and all(s.rule != twin for s in n)]
        if nexts:
            steps = rng.choice(nexts)
    _assert_matches_scan(p, Path(p.start, steps), members)


def test_paths_equivalent_rejects_non_parallel():
    sys = _h3()
    fam = CellFamily(name="empty", members=())
    p = Path((1, 1), (RuleInstance((), sys.rule("a1"), ()),))
    q = Path((1, 1))
    with pytest.raises(NotParallel):
        paths_equivalent_mod_cells(p, q, fam, bound=10)


# --- path equivalence modulo commutations ----------------------------------


def _rank3_independent():
    swaps = measure_split(hecke_system(3, "rdoubleprime"))[0]
    return frozenset(r.lhs for r in swaps)


def test_skeleton_reads_commutations_away():
    sys = hecke_system(3, "rdoubleprime")
    ind = _rank3_independent()
    a1, c31, c13 = sys.rule("a1"), sys.rule("c31"), sys.rule("c13")
    # 311 -> 131 -> 113 -> 13 and 311 -> 31 -> 13 rewrite the same two 1s.
    p = Path((3, 1, 1), (
        RuleInstance((), c31, (1,)),
        RuleInstance((1,), c31, ()),
        RuleInstance((), a1, (3,)),
    ))
    q = Path((3, 1, 1), (RuleInstance((3,), a1, ()), RuleInstance((), c31, ())))
    # Bound 0 generates no neighbour: EQUIVALENT exactly when the two
    # skeletons agree.
    empty = CellFamily(name="empty", members=())
    assert paths_equivalent_mod_cells(p, q, empty, 0, independent=ind) is PathVerdict.EQUIVALENT
    assert paths_equivalent_mod_cells(p, q, empty, 0) is not PathVerdict.EQUIVALENT
    # Commutations alone read the empty skeleton.
    swap = Path((1, 3), (RuleInstance((), c13, ()),))
    back_and_forth = Path((1, 3), swap.steps + (RuleInstance((), c31, ()),) + swap.steps)
    assert paths_equivalent_mod_cells(swap, back_and_forth, empty, 0, independent=ind) is (
        PathVerdict.EQUIVALENT
    )
    # The labels tell the two 1s that a step rewrites: 111 -> 11 at its
    # first two 1s, or at its last two.
    first = Path((1, 1, 1), (RuleInstance((), a1, (1,)), RuleInstance((), a1, ())))
    last = Path((1, 1, 1), (RuleInstance((1,), a1, ()), RuleInstance((), a1, ())))
    assert paths_equivalent_mod_cells(first, last, empty, 0, independent=ind) is not (
        PathVerdict.EQUIVALENT
    )


def test_skeleton_search_swaps_disjoint_steps_across_a_trace():
    sys = hecke_system(3, "rdoubleprime")
    ind = _rank3_independent()
    a1, a3, c13 = sys.rule("a1"), sys.rule("a3"), sys.rule("c13")
    # From 1133 to 31: a1 first, then a3 on 331, a word of 133's trace; or
    # a3 first.  The two steps are a natural square in 1133.
    p = Path((1, 1, 3, 3), (
        RuleInstance((), a1, (3, 3)),
        RuleInstance((), c13, (3,)),
        RuleInstance((3,), c13, ()),
        RuleInstance((), a3, (1,)),
    ))
    q = Path((1, 1, 3, 3), (
        RuleInstance((1, 1), a3, ()),
        RuleInstance((), a1, (3,)),
        RuleInstance((), c13, ()),
    ))
    empty = CellFamily(name="empty", members=())

    def search(p, q, bound, family=empty):
        return paths_equivalent_mod_cells(p, q, family, bound, independent=ind)

    assert search(p, q, 1) is PathVerdict.EQUIVALENT
    assert search(p, q, 0) is PathVerdict.UNKNOWN
    # The two a1 steps on 111 overlap: no move, and the search runs dry.
    first = Path((1, 1, 1), (RuleInstance((), a1, (1,)), RuleInstance((), a1, ())))
    second = Path((1, 1, 1), (RuleInstance((1,), a1, ()), RuleInstance((), a1, ())))
    assert search(first, second, 100) is PathVerdict.EXHAUSTED
    assert search(first, second, 1, cells_P(3)) is PathVerdict.EQUIVALENT
    with pytest.raises(NotParallel):
        search(p, first, 10)


def test_skeleton_search_inserts_a_member_with_an_empty_side():
    grow, drop = Rule("grow", (1,), (1, 1)), Rule("drop", (1, 1), (1,))
    loop = Path((1,), (RuleInstance((), grow, ()), RuleInstance((), drop, ())))
    family = CellFamily(name="loop", members=((loop, Path((1,))),))
    there = Path((2, 1, 2), tuple(st.whisker((2,), (2,)) for st in loop.steps))
    assert paths_equivalent_mod_cells(Path((2, 1, 2)), there, family, 1) is PathVerdict.EQUIVALENT
    assert paths_equivalent_mod_cells(there, Path((2, 1, 2)), family, 1) is PathVerdict.EQUIVALENT


def test_cell_family_validates_members():
    sys = _h3()
    p = Path((1, 1), (RuleInstance((), sys.rule("a1"), ()),))
    q = Path((1, 1))
    with pytest.raises(ValueError):
        CellFamily(name="bad", members=((p, q),))


def test_export_dot_shape():
    sys = _h3()
    w = (3, 2, 1, 3)
    top = Path(w, (find_redexes(w, sys)[1],))
    left = Path(w, (find_redexes(w, sys)[0],))
    t = complete_peak(sys, hecke_provider(sys), top, left)
    dot = export_dot(t)
    assert dot.startswith("digraph tiling {")
    assert 'label="3213"' in dot
    assert 'label="32:c31:-"' in dot
    assert "rank=same" in dot
    assert dot.endswith("}\n")


@given(st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_random_peaks_close_and_agree_with_canon(seed):
    import random

    rng = random.Random(seed)
    sys = _h3()
    provider = hecke_provider(sys)
    w = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 7)))
    top = _random_walk(rng, sys, w, rng.randint(0, 4))
    left = _random_walk(rng, sys, w, rng.randint(0, 4))
    t = complete_peak(sys, provider, top, left, fuel=10000)
    b = t.boundary()
    assert b.from_start.start == top.end
    assert b.from_end.start == left.end
    assert b.from_start.end == b.from_end.end == b.sink
    assert canon(b.sink, sys) == canon(w, sys)
