"""Elementary diagrams, tilings of peaks and zigzags, and cell families.

An elementary diagram is a rectangle of reductions: a top step and a
left step from a common word, and two convergence paths (right and
bottom, possibly empty) from their targets to a common word.
`natural_squares` lists the square that commutes two adjacent redexes,
one per ordered rule pair, from which `srw.order.check_naturals` decides
the squares for every separator; whiskering extends a diagram by outer
context, transposition swaps the two sides.

A `Tiling` fills the area under a zigzag with elementary diagrams.  The
untiled boundary (the frontier) is walked from the zigzag's start to its
end: backward legs are horizontal edges, forward legs vertical edges.
An open corner is a horizontal edge immediately followed by a vertical
one: a word with two diverging steps and nothing glued beneath.
Adjoining a diagram whose top and left match those steps replaces the
two edges by the diagram's right and bottom sides.  When no corner
remains the frontier has the shape V*H*: a path from the walk's start
down to a common sink, then a path from the walk's end to the same sink.
Completing a peak (a two-sided zigzag: reversed top path, then left
path) yields the right and bottom boundary of the classical confluence
diagram; completing an arbitrary zigzag yields a common reduct with
reduction paths from both endpoints.  `complete_tiling` always glues at
the first open corner, and after each cell resumes its scan one place
before that corner: gluing rewrites only that corner's two entries, so no
earlier corner can appear.  The standard provider builds a natural cell
in place, as one diagram from the corner's two steps; `natural_squares`
builds each of its squares the same way.

A `CellFamily` is a set of parallel path pairs; `paths_equivalent_mod_cells`
searches for a rewrite of one path into another by replacing whiskered
occurrences of a member path with its partner (in both directions,
including insertion and deletion of whiskered loops) and by commuting
adjacent steps with disjoint redexes.  The verdict is
one-sided: Equivalent means a chain of substitutions was found, Unknown
means none was found within the search budget.

A family numbers the R distinct rules of its members on its first search
and codes each step as one int, `len(step.left) * R + rule number`, so a
state is a tuple of ints, cheap to hash, whose words are computed once
when it is expanded.  Whiskering by x letters on the left adds x * R to
every code: a member path occurs where the gaps between adjacent codes
agree and its base word sits at the offset that shift names.  So moves
are keyed by their first rule and (first gap,), loop insertions by their
base word (a word holds no tuple, so keys never clash), and each move
memoises its whiskered copies.  `CellFamily.extended` codes only the new
member and shares the parent's moves.  A member, p or q with a rule the
numbering lacks gets a new numbering, and the codes built under the old
one stay as they were.  Renumbering is a bijection on states that keeps
the order in which neighbours come out: the order a full scan would find
them (move, step index, offset, then swaps).  That order matters, because
the budget cuts the search after a fixed number of new states: another
order could change an Unknown at a given bound into Equivalent or back.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterator, NamedTuple

from .critical import CriticalPair, join_pair
from .words import (
    BACKWARD,
    FORWARD,
    Path,
    Rule,
    RuleInstance,
    SourceMismatch,
    SrsSystem,
    Word,
    Zigzag,
    word_to_str,
)

__all__ = [
    "ElementaryDiagram",
    "natural_squares",
    "whisker_ed",
    "transpose_ed",
    "CornerMismatch",
    "FuelExhausted",
    "NoCellForCorner",
    "CellRecord",
    "Tiling",
    "Boundary",
    "complete_tiling",
    "complete_peak",
    "complete_zigzag",
    "ZigzagCompletion",
    "bfs_join_chooser",
    "standard_provider",
    "CellFamily",
    "PathVerdict",
    "NotParallel",
    "paths_equivalent_mod_cells",
    "export_dot",
]


@dataclass(frozen=True)
class ElementaryDiagram:
    """One tile: top and left steps from a common word, right and bottom
    paths from their targets to a common end."""

    top: RuleInstance
    left: RuleInstance
    right: Path
    bottom: Path

    def __post_init__(self) -> None:
        t, l = self.top, self.left
        if t.source != l.source:
            raise SourceMismatch("top and left must share their source")
        if self.right.start != t.target:
            raise SourceMismatch("right side must start at the top's target")
        if self.bottom.start != l.target:
            raise SourceMismatch("bottom side must start at the left's target")
        if self.right.end != self.bottom.end:
            raise SourceMismatch("right and bottom must converge")


def natural_squares(sys: SrsSystem) -> Iterator[tuple[tuple[Rule, Rule], ElementaryDiagram]]:
    """The natural square r1 · r2 of each ordered rule pair, labelled
    (r1, r2): top applies r1 with lhs(r2) on its right, left applies r2
    with lhs(r1) on its left.  Transposes are left out: decreasingness is
    transpose-invariant."""
    for r1 in sys.rules:
        for r2 in sys.rules:
            h = RuleInstance((), r1, r2.lhs)
            v = RuleInstance(r1.lhs, r2, ())
            yield (r1, r2), _natural_cell(h, v)[0]


def whisker_ed(ed: ElementaryDiagram, u: Word, v: Word) -> ElementaryDiagram:
    """The same diagram inside the outer context u·(-)·v."""
    return ElementaryDiagram(
        top=ed.top.whisker(u, v),
        left=ed.left.whisker(u, v),
        right=ed.right.whisker(u, v),
        bottom=ed.bottom.whisker(u, v),
    )


def transpose_ed(ed: ElementaryDiagram) -> ElementaryDiagram:
    """Swap the horizontal and vertical roles; an involution."""
    return ElementaryDiagram(
        top=ed.left, left=ed.top, right=ed.bottom, bottom=ed.right
    )


class CornerMismatch(ValueError):
    """The diagram offered for a corner does not match its two steps."""


class FuelExhausted(RuntimeError):
    """Corner resolution ran out of fuel with open corners remaining."""


class NoCellForCorner(RuntimeError):
    """The cell provider had no diagram for a corner's step pair."""


@dataclass(frozen=True)
class CellRecord:
    """An adjoined cell with its provenance tag and origin label."""

    ed: ElementaryDiagram
    tag: str  # natural | critical | whiskered | transposed | improper
    origin: str


class _Edge(NamedTuple):
    kind: str  # "H" or "V"
    step: RuleInstance | None  # None only for dashed identification edges
    src: int
    dst: int


@dataclass(frozen=True)
class Boundary:
    """The two convergence paths of a complete tiling."""

    sink: Word
    from_start: Path  # from the frontier walk's start word
    from_end: Path  # from the frontier walk's end word


class Tiling:
    """A partially tiled region under a zigzag.

    The frontier is kept as the walk from the zigzag's start to its end:
    its backward legs become horizontal entries, traversed backward, and
    its forward legs vertical entries, traversed forward.  Cells are glued
    at the first open corner; the scan for the next one resumes one place
    before the last, since gluing leaves every earlier entry as it was.
    Node identifiers exist for rendering; the reduction content lives in
    the step instances themselves.
    """

    def __init__(self, n: int, zig: Zigzag):
        self.n = n
        self.nodes: dict[int, Word] = {}
        self.edges: list[_Edge] = []
        self.cells: list[CellRecord] = []
        self._frontier: list[_Edge] = []
        self.walk_start = zig.start
        cur = self._new_node(zig.start)
        for direction, step in zig.legs:
            if direction == FORWARD:
                nxt = self._new_node(step.target)
                e = _Edge("V", step, cur, nxt)
            else:
                nxt = self._new_node(step.source)
                e = _Edge("H", step, nxt, cur)
            cur = nxt
            self.edges.append(e)
            self._frontier.append(e)
        self.walk_end = self.nodes[cur]

    def _new_node(self, w: Word) -> int:
        i = len(self.nodes)
        self.nodes[i] = w
        return i

    def _first_corner(self, start: int) -> int | None:
        """The frontier position of the first open corner at or after `start`."""
        f = self._frontier
        for i in range(start, len(f) - 1):
            if f[i].kind == "H" and f[i + 1].kind == "V":
                return i
        return None

    def open_corners(self) -> list[tuple[int, RuleInstance, RuleInstance]]:
        """Positions where a horizontal step meets a diverging vertical one."""
        out = []
        i = self._first_corner(0)
        while i is not None:
            out.append((i, self._frontier[i].step, self._frontier[i + 1].step))
            i = self._first_corner(i + 1)
        return out

    def adjoin_at_corner(self, index: int, ed: ElementaryDiagram, tag: str, origin: str = "") -> None:
        """Glue `ed` at the open corner starting at frontier position `index`."""
        f = self._frontier
        if not (
            0 <= index < len(f) - 1 and f[index].kind == "H" and f[index + 1].kind == "V"
        ):
            raise CornerMismatch(f"no open corner at frontier position {index}")
        h, v = f[index], f[index + 1]
        if ed.top != h.step or ed.left != v.step:
            raise CornerMismatch(
                "diagram's top/left do not match the corner's steps"
            )
        y, z = h.dst, v.dst
        ventries: list[_Edge] = []
        hchain: list[_Edge] = []
        rsteps, bsteps = ed.right.steps, ed.bottom.steps
        cur = y
        for i, st in enumerate(rsteps):
            last = i == len(rsteps) - 1
            dst = z if (last and not bsteps) else self._new_node(st.target)
            ventries.append(_Edge("V", st, cur, dst))
            cur = dst
        sink_node = cur if rsteps else y
        cur = z
        for i, st in enumerate(bsteps):
            last = i == len(bsteps) - 1
            dst = sink_node if last else self._new_node(st.target)
            hchain.append(_Edge("H", st, cur, dst))
            cur = dst
        if not rsteps and not bsteps:
            self.edges.append(_Edge("H", None, y, z))
        new_entries = ventries + list(reversed(hchain))
        self.edges.extend(ventries)
        self.edges.extend(hchain)
        self._frontier[index : index + 2] = new_entries
        self.cells.append(CellRecord(ed=ed, tag=tag, origin=origin))

    def boundary(self) -> Boundary:
        """The convergence paths of a complete tiling."""
        corners = self.open_corners()
        if corners:
            raise ValueError(f"tiling still has {len(corners)} open corner(s)")
        vsteps = [e.step for e in self._frontier if e.kind == "V"]
        hsteps = [e.step for e in self._frontier if e.kind == "H"]
        from_start = Path(self.walk_start, tuple(vsteps))
        from_end = Path(self.walk_end, tuple(reversed(hsteps)))
        if from_start.end != from_end.end:
            raise SourceMismatch("boundary paths fail to converge")
        return Boundary(
            sink=from_start.end, from_start=from_start, from_end=from_end
        )


CellProvider = Callable[
    [RuleInstance, RuleInstance], tuple[ElementaryDiagram, str, str] | None
]


def complete_tiling(t: Tiling, provider: CellProvider, fuel: int = 10000) -> Tiling:
    """Adjoin provider cells at the first open corner until none remain."""
    index = t._first_corner(0)
    while index is not None:
        if fuel <= 0:
            raise FuelExhausted(
                f"{len(t.open_corners())} open corner(s) remain with no fuel left"
            )
        h, v = t._frontier[index].step, t._frontier[index + 1].step
        got = provider(h, v)
        if got is None:
            raise NoCellForCorner(
                f"no cell for corner ({h.render(t.n)}, {v.render(t.n)})"
            )
        ed, tag, origin = got
        t.adjoin_at_corner(index, ed, tag, origin)
        fuel -= 1
        # Gluing rewrites only positions index and index + 1, and no corner lies before index.
        index = t._first_corner(max(index - 1, 0))
    return t


def complete_peak(
    sys: SrsSystem,
    provider: CellProvider,
    top: Path,
    left: Path,
    fuel: int = 10000,
) -> Tiling:
    """Tile the peak formed by two co-initial paths: the zigzag that walks
    the top path backward, then the left path forward."""
    if top.start != left.start:
        raise SourceMismatch("peak paths must share their start word")
    zig = Zigzag(
        top.end,
        tuple((BACKWARD, s) for s in reversed(top.steps))
        + tuple((FORWARD, s) for s in left.steps),
    )
    return complete_tiling(Tiling(sys.n, zig), provider, fuel)


@dataclass(frozen=True)
class ZigzagCompletion:
    common: Word
    from_start: Path
    from_end: Path
    tiling: Tiling


def complete_zigzag(
    sys: SrsSystem,
    provider: CellProvider,
    zig: Zigzag,
    fuel: int = 10000,
) -> ZigzagCompletion:
    """Tile a zigzag down to a common reduct of its two endpoints."""
    t = complete_tiling(Tiling(sys.n, zig), provider, fuel)
    b = t.boundary()
    return ZigzagCompletion(
        common=b.sink, from_start=b.from_start, from_end=b.from_end, tiling=t
    )


# --- cell providers -------------------------------------------------------


def _relative_pair(h: RuleInstance, v: RuleInstance):
    """Strip the common outer context of two overlapping co-initial steps.

    Returns (bare critical pair, left context, right context) with h's
    stripped copy first.
    """
    w = h.source
    ah, bh = len(h.left), len(h.left) + len(h.rule.lhs)
    av, bv = len(v.left), len(v.left) + len(v.rule.lhs)
    lo, hi = min(ah, av), max(bh, bv)
    u_ctx, v_ctx = w[:lo], w[hi:]
    h_rel = RuleInstance(h.left[lo:], h.rule, h.right[: len(h.right) - len(v_ctx)])
    v_rel = RuleInstance(v.left[lo:], v.rule, v.right[: len(v.right) - len(v_ctx)])
    strictly_inside = (ah < av and bv < bh) or (av < ah and bh < bv)
    kind = "inclusion" if strictly_inside else "overlap"
    pair = CriticalPair(kind=kind, first=h_rel, second=v_rel, peak=w[lo:hi])
    return pair, u_ctx, v_ctx


def _natural_cell(
    h: RuleInstance, v: RuleInstance
) -> tuple[ElementaryDiagram, str, str] | None:
    """The commuting square of two disjoint co-initial redexes, built in
    context: the right side applies v's rule after h, the bottom side h's
    rule after v.  Tagged natural, or transposed when v's redex lies to
    the left of h's."""
    ah, bh = len(h.left), len(h.left) + len(h.rule.lhs)
    av, bv = len(v.left), len(v.left) + len(v.rule.lhs)
    if bh <= av:
        mid = v.left[bh:]
        right = RuleInstance(h.left + h.rule.rhs + mid, v.rule, v.right)
        bottom = RuleInstance(h.left, h.rule, mid + v.rule.rhs + v.right)
        tag = "natural"
    elif bv <= ah:
        mid = h.left[bv:]
        right = RuleInstance(v.left, v.rule, mid + h.rule.rhs + h.right)
        bottom = RuleInstance(v.left + v.rule.rhs + mid, h.rule, h.right)
        tag = "transposed"
    else:
        return None
    ed = ElementaryDiagram(
        top=h, left=v, right=Path(h.target, (right,)), bottom=Path(v.target, (bottom,))
    )
    return ed, tag, f"natural({h.rule.name},{v.rule.name})"


def _degenerate_cell(h: RuleInstance) -> tuple[ElementaryDiagram, str, str]:
    ed = ElementaryDiagram(
        top=h, left=h, right=Path(h.target), bottom=Path(h.target)
    )
    return ed, "improper", "repeated-step"


def bfs_join_chooser(sys: SrsSystem):
    """Critical-cell chooser that joins pairs by breadth-first search.

    The pair's first component becomes the top step and the second the
    left step; the join's paths become the right and bottom sides.
    """

    def choose(pair: CriticalPair) -> tuple[ElementaryDiagram, bool] | None:
        j = join_pair(pair, sys)
        if j is None:
            return None
        ed = ElementaryDiagram(
            top=pair.first, left=pair.second, right=j.from_first, bottom=j.from_second
        )
        return ed, False

    return choose


def standard_provider(sys: SrsSystem, chooser) -> CellProvider:
    """Cells for every corner: repeated steps close improperly, disjoint
    redexes commute naturally, overlapping redexes defer to a critical-pair
    chooser and are whiskered back into context."""

    def provide(h: RuleInstance, v: RuleInstance):
        if h.source != v.source:
            raise CornerMismatch("corner steps must share their source")
        if h == v:
            return _degenerate_cell(h)
        nat = _natural_cell(h, v)
        if nat is not None:
            return nat
        pair, u_ctx, v_ctx = _relative_pair(h, v)
        got = chooser(pair)
        if got is None:
            return None
        ed, transposed = got
        ed = whisker_ed(ed, u_ctx, v_ctx)
        if ed.top != h or ed.left != v:
            raise CornerMismatch("critical cell does not fit its corner")
        if transposed:
            tag = "transposed"
        elif u_ctx or v_ctx:
            tag = "whiskered"
        else:
            tag = "critical"
        return ed, tag, f"critical({pair.first.rule.name},{pair.second.rule.name})"

    return provide


# --- path equivalence modulo a cell family --------------------------------


class PathVerdict(Enum):
    EQUIVALENT = "equivalent"
    UNKNOWN = "unknown"


class NotParallel(ValueError):
    """The two paths do not share both endpoints."""


@dataclass(frozen=True)
class CellFamily:
    """Named parallel path pairs; the path search takes them together with
    all commuting squares of disjoint redexes.

    The search codes the members on its first call and keeps that table
    with the family.  `extended(pair, label)` is the family with one more
    member; it codes only that member and reuses the parent's coded moves,
    so a family grown a member at a time is coded once.  The parent is
    unchanged, so one family can be extended twice."""

    name: str
    members: tuple[tuple[Path, Path], ...]
    labels: tuple[str, ...] = ()
    _table: _Table | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for p, q in self.members:
            if p.start != q.start or p.end != q.end:
                raise NotParallel(f"family {self.name}: member paths are not parallel")
        if self.labels and len(self.labels) != len(self.members):
            raise ValueError("labels must match members")

    def extended(self, pair: tuple[Path, Path], label: str = "") -> CellFamily:
        labels = self.labels + (label,) if len(self.labels) == len(self.members) else ()
        child = CellFamily(self.name, self.members + (pair,), labels)
        object.__setattr__(child, "_table", self._coded().plus(pair))
        return child

    def _coded(self) -> _Table:
        if self._table is None:
            object.__setattr__(self, "_table", _Table.of(self.members))
        return self._table


# A path's steps from a known start word, each coded as one int.
_Codes = tuple[int, ...]


def _gaps(c: _Codes) -> _Codes:
    return tuple(y - x for x, y in zip(c, c[1:]))


class _Table(NamedTuple):
    """Members coded over one rule numbering, two moves each: (base, frm,
    to, frm's gaps, key, whiskered), listed in `by_key` under their key."""

    index: dict[Rule, int]
    moves: tuple[tuple, ...]
    by_key: dict[tuple, tuple[int, ...]]

    @classmethod
    def of(cls, members, paths: tuple[Path, ...] = ()) -> _Table:
        index: dict[Rule, int] = {}
        for path in (*(m for pair in members for m in pair), *paths):
            for st in path.steps:
                index.setdefault(st.rule, len(index))
        table = cls(index, (), {})
        for pair in members:
            table = table.plus(pair)
        return table

    def code(self, path: Path) -> _Codes:
        return tuple(len(st.left) * len(self.index) + self.index[st.rule] for st in path.steps)

    def plus(self, pair: tuple[Path, Path]) -> _Table | None:
        """A new table with pair's two moves after these, sharing them; None
        if pair has a rule that the numbering lacks."""
        if any(st.rule not in self.index for m in pair for st in m.steps):
            return None
        moves, by_key = list(self.moves), dict(self.by_key)
        ca, cb = self.code(pair[0]), self.code(pair[1])
        for frm, to in ((ca, cb), (cb, ca)):
            g = _gaps(frm)
            key = (frm[0] % len(self.index), g[:1]) if frm else pair[0].start
            by_key[key] = by_key.get(key, ()) + (len(moves),)
            moves.append((pair[0].start, frm, to, g, key, {}))
        return _Table(self.index, tuple(moves), by_key)


def _replacements(
    steps: _Codes, words: list[Word], gaps: _Codes, at: list[int], move: tuple, R: int
) -> Iterator[_Codes]:
    """Replace each whiskered occurrence of a move's coded path `frm`, from
    `base`, by its `to`, trying the step indices `at` (ascending) where
    frm's first rule, and gap to its second step, occur.  A whisker adds
    one shift to every code, so frm occurs at i iff the gaps between
    adjacent codes agree there and `base` sits at the offset shift names."""
    base, frm, to, frm_gaps, _, whiskered = move
    k = len(frm)
    for i in at:
        if i + k > len(steps):
            break
        shift = steps[i] - frm[0]  # offset * R: the rules agree
        if shift >= 0 and gaps[i : i + k - 1] == frm_gaps:
            x = shift // R
            if words[i][x : x + len(base)] == base:
                if shift not in whiskered:
                    whiskered[shift] = tuple(c + shift for c in to)
                yield steps[:i] + whiskered[shift] + steps[i + k :]


def _insertions(steps: _Codes, places: list[tuple[int, int]], move: tuple, R: int) -> Iterator[_Codes]:
    """Insert a whiskered copy of a move's `to`, a coded loop, at each (step
    index, word offset) of `places`, where its base word occurs."""
    to, whiskered = move[2], move[5]
    for i, x in places:
        shift = x * R
        if shift not in whiskered:
            whiskered[shift] = tuple(c + shift for c in to)
        yield steps[:i] + whiskered[shift] + steps[i:]


def _natural_swaps(steps: _Codes, lhs: list[Word], rhs: list[Word], R: int) -> Iterator[_Codes]:
    """Commute adjacent coded steps whose redexes do not touch."""
    for i in range(len(steps) - 1):
        c1, c2 = steps[i], steps[i + 1]
        a1, r1 = divmod(c1, R)
        a2, r2 = divmod(c2, R)
        if a2 >= a1 + len(rhs[r1]):  # second redex right of the first rewrite
            moved = (c2 + (len(lhs[r1]) - len(rhs[r1])) * R, c1)
        elif a2 + len(lhs[r2]) <= a1:  # second redex left of the first rewrite
            moved = (c2, c1 + (len(rhs[r2]) - len(lhs[r2])) * R)
        else:
            continue
        yield steps[:i] + moved + steps[i + 2 :]


def paths_equivalent_mod_cells(
    p: Path, q: Path, family: CellFamily, bound: int = 10000
) -> PathVerdict:
    """Search for a chain of member substitutions turning p into q.

    Bidirectional breadth-first search over step sequences; `bound`
    limits the total number of explored states.  Equivalent is
    definitive; Unknown only means the budget ran out.
    """
    if p.start != q.start or p.end != q.end:
        raise NotParallel("paths must share start and end words")
    if p.steps == q.steps:
        return PathVerdict.EQUIVALENT
    table = family._coded()
    if any(st.rule not in table.index for path in (p, q) for st in path.steps):
        table = _Table.of(family.members, (p, q))  # renumbered for this call only
    index, moves, by_key = table
    R = len(index)
    bases = {move[0] for move in moves if not move[1]}
    lhs, rhs = [r.lhs for r in index], [r.rhs for r in index]
    found: dict[Word, list[tuple[Word, int]]] = {}  # word -> (loop base, offset) in it

    def neighbours(steps: _Codes) -> Iterator[_Codes]:
        words = [p.start]
        for c in steps:
            a, r = divmod(c, R)
            words.append(words[-1][:a] + rhs[r] + words[-1][a + len(lhs[r]) :])
        state_gaps = _gaps(steps)
        at: dict[tuple, list[int]] = {}
        for i, c in enumerate(steps):
            at.setdefault((c % R, ()), []).append(i)
            if i < len(state_gaps):
                at.setdefault((c % R, state_gaps[i : i + 1]), []).append(i)
        places: dict[Word, list[tuple[int, int]]] = {}
        for i, w in enumerate(words):
            if w not in found:
                found[w] = [
                    (b, x) for x in range(len(w) + 1) for b in bases if w[x : x + len(b)] == b
                ]
            for b, x in found[w]:
                places.setdefault(b, []).append((i, x))
        # In move order, then step index and offset, as a full scan would
        # find them: the verdict at a given budget depends on that order.
        for j in sorted(j for key in (*at, *places) for j in by_key.get(key, ())):
            move = moves[j]
            if move[1]:
                yield from _replacements(steps, words, state_gaps, at[move[4]], move, R)
            else:
                yield from _insertions(steps, places[move[4]], move, R)
        yield from _natural_swaps(steps, lhs, rhs, R)

    frontiers = [[table.code(p)], [table.code(q)]]
    seen = tuple(set(f) for f in frontiers)
    budget = bound
    while frontiers[0] and frontiers[1] and budget > 0:
        me = 0 if len(frontiers[0]) <= len(frontiers[1]) else 1
        mine, other = seen[me], seen[1 - me]
        new: list[_Codes] = []
        for state in frontiers[me]:
            for nxt in neighbours(state):
                if nxt in mine:
                    continue
                if nxt in other:
                    return PathVerdict.EQUIVALENT
                mine.add(nxt)
                new.append(nxt)
                budget -= 1
                if budget <= 0:
                    break
            if budget <= 0:
                break
        frontiers[me] = new
    return PathVerdict.UNKNOWN


# --- graphviz export ------------------------------------------------------


def export_dot(t: Tiling) -> str:
    """Render a tiling as graphviz dot.

    Solid edges carry their step's "left:rule:right" label; dashed edges
    mark identified words from improper closures.  Rank groups keep each
    row of the diagram on one level so the drawing reads top-to-bottom,
    left-to-right like the underlying rectangle.
    """
    n = t.n
    indeg: dict[int, list[_Edge]] = {i: [] for i in t.nodes}
    for e in t.edges:
        indeg[e.dst].append(e)
    row: dict[int, int] = {}
    col: dict[int, int] = {}
    expanding: set[int] = set()
    for start in t.nodes:
        stack = [start]
        while stack:
            v = stack[-1]
            if v in row:
                stack.pop()
                continue
            if v not in expanding:
                expanding.add(v)
                deps = [
                    e.src
                    for e in indeg[v]
                    if e.src not in row and e.src not in expanding
                ]
                if deps:
                    stack.extend(deps)
                    continue
            best_r = best_c = 0
            for e in indeg[v]:
                if e.src not in row:
                    continue
                r, c = row[e.src], col[e.src]
                if e.step is not None:
                    if e.kind == "V":
                        r += 1
                    else:
                        c += 1
                best_r, best_c = max(best_r, r), max(best_c, c)
            row[v], col[v] = best_r, best_c
            stack.pop()
    lines = ["digraph tiling {", "  rankdir=TB;", '  node [shape=box, fontname="monospace"];']
    for v in sorted(t.nodes):
        lines.append(f'  n{v} [label="{word_to_str(t.nodes[v], n)}"];')
    for e in t.edges:
        if e.step is None:
            lines.append(f"  n{e.src} -> n{e.dst} [style=dashed];")
        else:
            lines.append(
                f'  n{e.src} -> n{e.dst} [label="{e.step.render(n)}"];'
            )
    by_row: dict[int, list[int]] = {}
    for v in sorted(t.nodes):
        by_row.setdefault(row[v], []).append(v)
    for r in sorted(by_row):
        members = "; ".join(f"n{v}" for v in by_row[r])
        lines.append(f"  {{rank=same; {members};}}")
    lines.append("}")
    return "\n".join(lines) + "\n"
