"""Elementary diagrams, tilings of peaks and zigzags, and cell families.

An elementary diagram is a rectangle of reductions: a top step and a
left step from a common word, and two convergence paths (right and
bottom, possibly empty) from their targets to a common word.
Whiskering extends a diagram by outer context, transposition swaps the
two sides.

A `Tiling` fills the area under a zigzag with elementary diagrams.  Its
frontier walks from the zigzag's start to its end, backward legs as
horizontal edges and forward legs as vertical ones.  An open corner is a
horizontal edge followed by a vertical one; gluing a cell there replaces
them by its right and bottom sides, until the frontier runs from both
ends to a common sink.  `complete_tiling` glues at the first open corner
and resumes its scan one place before it.

The tiler codes a step at word offset a as one int, a * _STRIDE + its
rule's number, over one numbering for the process (`_CODER`, which
numbers a rule on first sight, keeps its sides, and raises ValueError
rather than number more rules than the stride holds).  A code never
changes once made, so tilings and the chooser memo share them, and
whiskering by x letters on the left adds x * _STRIDE to every code.

In a tiling a node holds its word once; the frontier, edges and cells
hold codes.  A repeated step closes with an improper cell, disjoint
redexes with their natural square (its right side is the vertical step,
its bottom side the horizontal one, each moved by the other's length
change if the other lies left of it), glued in place as one new word
and two edges, overlapping ones with the critical-pair chooser's cell.
A tiler's cell keeps no origin label: reading `Tiling.cells` names it
from its two codes.  The chooser takes the bare `CriticalPair`
and returns (diagram, transposed), the pair's first step on top and its
second on the left, or None.  It must depend on the pair alone: while it
lives the tiler asks it once per bare pair and shifts the coded sides
into place.  Objects are built and validated only at the API: the
`Zigzag`, the chooser's diagram, the boundary `Path`s, the decoded
`Tiling.cells`, `open_corners`, `nodes` and `edges`, `adjoin_at_corner`,
`export_dot` and the exceptions' messages.

A `CellFamily` is a set of parallel path pairs.  The one path search,
`paths_equivalent_mod_cells`, rewrites one path into another by
replacing whiskered occurrences of a member path with its partner (in
both directions, including insertion and deletion of whiskered loops)
and by natural squares of adjacent steps, modulo a given set of
commutations.  Its states are skeletons, the paths with their
commutation steps read away; with no commutations a skeleton is the path
itself.  The verdict is Equivalent when a chain of moves was found,
Exhausted when a side's whole space was searched without one, and
Unknown when the budget ran out first.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from enum import Enum
from graphlib import TopologicalSorter
from typing import Iterator, NamedTuple

from .critical import CriticalPair, join_pair
from .traces import Pairs, class_factors, normal_form, trace_order
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
    """The critical-pair chooser had no diagram for a corner's step pair."""


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


# A step at word offset a codes as a * _STRIDE + its rule's number: codes
# stay below 2**30, one machine digit, for offsets under 2**14.
_STRIDE = 1 << 16

# A path's steps from a known start word, each coded as one int.
_Codes = tuple[int, ...]


class _Coder:
    """Every rule the process has met, numbered in order of first sight,
    and each numbered rule's sides (see the module docstring)."""

    def __init__(self) -> None:
        self.index: dict[Rule, int] = {}
        self.rules: list[Rule] = []
        self.lhs: list[Word] = []
        self.rhs: list[Word] = []

    def codes(self, *paths) -> tuple[_Codes, ...]:
        """Each sequence of steps coded, after numbering its rules.  A step
        whose rule is numbered costs one lookup."""
        S, index = _STRIDE, self.index
        try:
            return tuple(tuple(len(st.left) * S + index[st.rule] for st in steps) for steps in paths)
        except KeyError:
            for st in (st for steps in paths for st in steps):
                if st.rule not in index:
                    if len(self.rules) == S:
                        raise ValueError(f"more rules than the step code's stride {S} can number")
                    index[st.rule] = len(self.rules)
                    self.rules.append(st.rule)
                    self.lhs.append(st.rule.lhs)
                    self.rhs.append(st.rule.rhs)
            return self.codes(*paths)


_CODER = _Coder()

# Per chooser, for each bare pair (first code, second code), which also
# fixes its peak: the chooser's right and bottom codes and its transposed
# flag, or None where it had no cell.
_CHOSEN: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _apply(c: int, w: Word) -> Word:
    a, r = divmod(c, _STRIDE)
    return w[:a] + _CODER.rhs[r] + w[a + len(_CODER.lhs[r]) :]


def _step(c: int, w: Word) -> RuleInstance:
    a, r = divmod(c, _STRIDE)
    return RuleInstance(w[:a], _CODER.rules[r], w[a + len(_CODER.lhs[r]) :])


def _path(w: Word, codes: _Codes) -> Path:
    steps: list[RuleInstance] = []
    for c in codes:
        steps.append(_step(c, steps[-1].target if steps else w))
    return Path(w, tuple(steps))


def _diagram(w: Word, h: int, v: int, right: _Codes, bottom: _Codes) -> ElementaryDiagram:
    """The coded cell at word w as a validated diagram."""
    top, left = _step(h, w), _step(v, w)
    return ElementaryDiagram(top, left, _path(top.target, right), _path(left.target, bottom))


def _natural(h: int, v: int) -> tuple[int, int, str] | None:
    """The right and bottom step and the tag of the square of two coded
    co-initial steps with disjoint redexes; None if they overlap."""
    S, lhs, rhs = _STRIDE, _CODER.lhs, _CODER.rhs
    (ah, rh), (av, rv) = divmod(h, S), divmod(v, S)
    if ah + len(lhs[rh]) <= av:
        return v + (len(rhs[rh]) - len(lhs[rh])) * S, h, "natural"
    if av + len(lhs[rv]) <= ah:
        return v, h + (len(rhs[rv]) - len(lhs[rv])) * S, "transposed"
    return None


def _origin(h: int, v: int) -> str:
    """The label of the tiler's cell for the coded corner (h, v)."""
    if h == v:
        return "repeated-step"
    kind = "critical" if _natural(h, v) is None else "natural"
    return f"{kind}({_CODER.rules[h % _STRIDE].name},{_CODER.rules[v % _STRIDE].name})"


def _critical(n: int, chooser, w: Word, h: int, v: int):
    """Right and bottom codes and tag of the chooser's cell for the
    overlapping steps h and v at w, shifted into place; n names letters in
    the error message."""
    C, S = _CODER, _STRIDE
    try:
        memo = _CHOSEN.setdefault(chooser, {})
    except TypeError:  # the chooser takes no weak reference: a memo for this corner
        memo = {}
    ah, rh = divmod(h, S)
    av, rv = divmod(v, S)
    bh, bv = ah + len(C.lhs[rh]), av + len(C.lhs[rv])
    lo, hi = min(ah, av), max(bh, bv)
    shift = lo * S
    key = (h - shift, v - shift)
    if key not in memo:
        pair = CriticalPair(
            "inclusion" if (ah < av and bv < bh) or (av < ah and bh < bv) else "overlap",
            RuleInstance(w[lo:ah], C.rules[rh], w[bh:hi]),
            RuleInstance(w[lo:av], C.rules[rv], w[bv:hi]),
            w[lo:hi],
        )
        got = chooser(pair)
        if got is not None:
            ed, transposed = got
            if ed.top != pair.first or ed.left != pair.second:
                raise CornerMismatch("critical cell does not fit its corner")
            got = C.codes(ed.right.steps, ed.bottom.steps) + (transposed,)
        memo[key] = got
    if memo[key] is None:
        raise NoCellForCorner(
            f"no cell for corner ({_step(h, w).render(n)}, {_step(v, w).render(n)})"
        )
    right, bottom, transposed = memo[key]
    tag = "transposed" if transposed else "whiskered" if lo or hi < len(w) else "critical"
    return tuple(c + shift for c in right), tuple(c + shift for c in bottom), tag


class Tiling:
    """A partially tiled region under a zigzag, as coded steps between
    numbered nodes; the public readers decode them."""

    def __init__(self, n: int, zig: Zigzag):
        self.n = n
        self.walk_start = zig.start
        (codes,) = _CODER.codes([st for _, st in zig.legs])
        words = self._words = [zig.start]
        self._edges: list[tuple] = []  # (kind, code or None, src node, dst node)
        self._cells: list[tuple] = []  # (node, top, left, right, bottom, tag, origin)
        for (direction, st), c in zip(zig.legs, codes):
            cur, forward = len(words) - 1, direction == FORWARD
            words.append(st.target if forward else st.source)
            self._edges.append(("V", c, cur, cur + 1) if forward else ("H", c, cur + 1, cur))
        self._frontier = list(self._edges)
        self.walk_end = words[-1]

    @property
    def nodes(self) -> dict[int, Word]:
        return dict(enumerate(self._words))

    @property
    def edges(self) -> list[_Edge]:
        return [_Edge(e[0], None if e[1] is None else self._decode(e), *e[2:]) for e in self._edges]

    @property
    def cells(self) -> list[CellRecord]:
        words = self._words
        return [
            CellRecord(_diagram(words[x], h, v, r, b), tag, _origin(h, v) if o is None else o)
            for x, h, v, r, b, tag, o in self._cells
        ]

    def _decode(self, entry: tuple) -> RuleInstance:
        return _step(entry[1], self._words[entry[2]])

    def _first_corner(self, start: int) -> int | None:
        """The frontier position of the first open corner at or after `start`."""
        f = self._frontier
        for i in range(start, len(f) - 1):
            if f[i][0] == "H" and f[i + 1][0] == "V":
                return i
        return None

    def _corners(self) -> list[int]:
        f = self._frontier
        return [i for i in range(len(f) - 1) if f[i][0] == "H" and f[i + 1][0] == "V"]

    def open_corners(self) -> list[tuple[int, RuleInstance, RuleInstance]]:
        """Positions where a horizontal step meets a diverging vertical one."""
        f = self._frontier
        return [(i, self._decode(f[i]), self._decode(f[i + 1])) for i in self._corners()]

    def adjoin_at_corner(self, index: int, ed: ElementaryDiagram, tag: str, origin: str = "") -> None:
        """Glue `ed` at the open corner starting at frontier position `index`."""
        f = self._frontier
        if index not in self._corners():
            raise CornerMismatch(f"no open corner at frontier position {index}")
        if ed.top != self._decode(f[index]) or ed.left != self._decode(f[index + 1]):
            raise CornerMismatch("diagram's top/left do not match the corner's steps")
        right, bottom = _CODER.codes(ed.right.steps, ed.bottom.steps)
        self._glue(index, right, bottom, tag, origin)

    def _glue(self, index: int, right: _Codes, bottom: _Codes, tag: str, origin: str | None) -> None:
        """Replace the open corner at `index` by the coded right side from
        its top's target, then the bottom side from its left's target to
        where the right side ends, numbering new nodes in that order (both
        empty: a dashed edge).  Origin None is named when `cells` is read."""
        f, words = self._frontier, self._words
        (_, h, x, y), (_, v, _, z) = f[index], f[index + 1]
        vs, hs, cur = [], [], y
        for k, c in enumerate(right, 1):
            dst = z if k == len(right) and not bottom else len(words)
            if dst == len(words):
                words.append(_apply(c, words[cur]))
            vs.append(("V", c, cur, dst))
            cur = dst
        sink, cur = cur, z
        for k, c in enumerate(bottom, 1):
            dst = sink if k == len(bottom) else len(words)
            if dst == len(words):
                words.append(_apply(c, words[cur]))
            hs.append(("H", c, cur, dst))
            cur = dst
        if not right and not bottom:
            self._edges.append(("H", None, y, z))
        self._edges += vs + hs
        f[index : index + 2] = vs + hs[::-1]
        self._cells.append((x, h, v, right, bottom, tag, origin))

    def boundary(self) -> Boundary:
        """The convergence paths of a complete tiling."""
        corners = self._corners()
        if corners:
            raise ValueError(f"tiling still has {len(corners)} open corner(s)")
        f = self._frontier
        from_start = Path(self.walk_start, tuple(self._decode(e) for e in f if e[0] == "V"))
        from_end = Path(self.walk_end, tuple(self._decode(e) for e in reversed(f) if e[0] == "H"))
        if from_start.end != from_end.end:
            raise SourceMismatch("boundary paths fail to converge")
        return Boundary(sink=from_start.end, from_start=from_start, from_end=from_end)


def complete_tiling(t: Tiling, chooser, fuel: int = 10000) -> Tiling:
    """Glue a cell at the first open corner until none remain: an improper
    cell for a repeated step, the natural square for disjoint redexes, and
    the chooser's critical cell, whiskered into place, for overlapping
    ones (see the module docstring)."""
    f, words, edges, cells = t._frontier, t._words, t._edges, t._cells
    index = t._first_corner(0)
    while index is not None:
        if fuel <= 0:
            raise FuelExhausted(f"{len(t._corners())} open corner(s) remain with no fuel left")
        (_, h, x, y), (_, v, _, z) = f[index], f[index + 1]
        if h == v:
            t._glue(index, (), (), "improper", None)
        elif (nat := _natural(h, v)) is not None:  # one new word, as _glue lays a square out
            right, bottom, tag = nat
            words.append(_apply(right, words[y]))
            f[index] = down = ("V", right, y, len(words) - 1)
            f[index + 1] = across = ("H", bottom, z, len(words) - 1)
            edges += down, across
            cells.append((x, h, v, (right,), (bottom,), tag, None))
        else:
            t._glue(index, *_critical(t.n, chooser, words[x], h, v), None)
        fuel -= 1
        # Gluing rewrites only positions index and index + 1, and no corner lies before index.
        index = t._first_corner(max(index - 1, 0))
    return t


def complete_peak(sys: SrsSystem, chooser, top: Path, left: Path, fuel: int = 10000) -> Tiling:
    """Tile the peak formed by two co-initial paths: the zigzag that walks
    the top path backward, then the left path forward."""
    if top.start != left.start:
        raise SourceMismatch("peak paths must share their start word")
    legs = [(BACKWARD, s) for s in reversed(top.steps)] + [(FORWARD, s) for s in left.steps]
    return complete_tiling(Tiling(sys.n, Zigzag(top.end, tuple(legs))), chooser, fuel)


@dataclass(frozen=True)
class ZigzagCompletion:
    common: Word
    from_start: Path
    from_end: Path
    tiling: Tiling


def complete_zigzag(sys: SrsSystem, chooser, zig: Zigzag, fuel: int = 10000) -> ZigzagCompletion:
    """Tile a zigzag down to a common reduct of its two endpoints."""
    t = complete_tiling(Tiling(sys.n, zig), chooser, fuel)
    b = t.boundary()
    return ZigzagCompletion(common=b.sink, from_start=b.from_start, from_end=b.from_end, tiling=t)


def bfs_join_chooser(sys: SrsSystem):
    """Critical-pair chooser that joins pairs by breadth-first search.

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


# --- path equivalence modulo a cell family --------------------------------


class PathVerdict(Enum):
    EQUIVALENT = "equivalent"
    EXHAUSTED = "exhausted"  # a side's whole space searched: no chain under these moves
    UNKNOWN = "unknown"


class NotParallel(ValueError):
    """The two paths do not share both endpoints."""


@dataclass(frozen=True)
class CellFamily:
    """Named parallel path pairs; the path search takes them together with
    all natural squares, and keeps its memos with the family, one set per
    commutation relation."""

    name: str
    members: tuple[tuple[Path, Path], ...]
    labels: tuple[str, ...] = ()
    _searches: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for p, q in self.members:
            if p.start != q.start or p.end != q.end:
                raise NotParallel(f"family {self.name}: member paths are not parallel")
        if self.labels and len(self.labels) != len(self.members):
            raise ValueError("labels must match members")


SkeletonStep = tuple[Word, tuple[tuple[int, int], ...], Rule]


def _is_swap(rule: Rule, independent: Pairs) -> bool:
    return len(rule.lhs) == 2 and rule.rhs == rule.lhs[::-1] and rule.lhs in independent


def _skeleton_step(left: Word, rule: Rule, right: Word, independent: Pairs) -> SkeletonStep:
    lhs = rule.lhs
    labels = tuple((a, left.count(a) + lhs[:j].count(a)) for j, a in enumerate(lhs))
    return normal_form(left + lhs + right, independent), labels, rule


def paths_equivalent_mod_cells(
    p: Path, q: Path, family: CellFamily, bound: int = 10000, *, independent: Pairs = frozenset()
) -> PathVerdict:
    """Whether p and q are equivalent modulo `family`, natural squares and
    commutations, by a bidirectional breadth-first search over skeletons.

    Commutations are the rules s t -> t s with (s, t) in `independent`.
    With none, a skeleton is the path itself: normal forms are the words,
    placements are plain factors and a swap is the natural square of the
    concrete word, for any system.  With some, any other rule's right side
    must be non-empty and use letters of its left side only, as in the
    Hecke systems; ValueError otherwise.  Equal letters never commute, so a
    redex's labels are the same in every word of a trace, and the trace
    after a step depends on the trace and the redex alone: a letter left of
    the redex in one word and right of it in another is independent of
    each letter of the redex.

    A state is a skeleton, its steps numbered on first sight.  Two moves:
    - replace a whiskered occurrence of a member side's skeleton by the
      other side's: the member, whiskered concretely by every placement
      (u, v) of its start word in the step's trace (`class_factors`), has
      its skeletons compared.  Members with one skeleton on both sides are
      left out; a side with an empty skeleton is inserted anywhere;
    - swap adjacent steps whose redexes are disjoint, and not ordered both
      ways, in the trace between them: some word of that trace then holds
      both as blocks, where the two steps form a natural square.
    Moves come in inverse pairs, so a side whose frontier runs dry has
    searched through its whole space without meeting the other: EXHAUSTED.
    The budget charges each generated neighbour before it is built, so
    bound 0 generates none; UNKNOWN means it ran out.  The smaller frontier
    is expanded, and on a tie the side that waited.

    Soundness.  A chain of moves lifts to a derivation modulo `family` when
    the family's commutation cells give two premises:
    - (A) parallel paths of commutations are equivalent.  The forward
      commutations terminate and their critical pairs join by cc members
      (`srw.hecke` checks both), so by Squier's theorem (Squier, Otto and
      Kobayashi, TCS 131, 1994) parallel forward paths are equivalent
      modulo cc members and natural squares; the loop members make each
      inverse commutation the inverse of a forward one;
    - (B) a letter independent of each letter of a non-commutation rule
      crosses a step of that rule by a derivable square (for the Hecke
      systems, by loop, ac, bc and cc members).
    With both, the concrete paths that read one skeleton are equivalent, as
    their commutations can be moved to the steps' blocks.  So a replacement
    lifts to a whiskered member between commutation paths, and a swap to a
    natural square.  Conversely each concrete replacement or natural square
    maps to one move or to none, so EXHAUSTED proves that no chain of
    positive moves exists.  This is rewriting modulo an equational theory
    (Jouannaud and Kirchner, SIAM J. Comput. 15, 1986); for coherence
    modulo, Dupont and Malbos, JPAA 226, 2022.  The premises themselves are
    checked by this search with no commutations.
    """
    if p.start != q.start or p.end != q.end:
        raise NotParallel("paths must share start and end words")
    if independent not in family._searches:
        family._searches[independent] = _search(family, independent)
    return family._searches[independent](p, q, bound)


def _search(family: CellFamily, independent: Pairs):
    """(p, q, bound) -> PathVerdict, the search of
    `paths_equivalent_mod_cells` over `family` modulo `independent`, with
    its memos: numbered steps, placements and whiskered members."""
    ids: dict[SkeletonStep, int] = {}
    steps: list[SkeletonStep] = []
    where: list[tuple[Word, Word]] = []  # step id -> (left, right) of one word with its redex
    placements: dict[tuple[Word, Word], list[tuple[Word, Word]]] = {}
    whiskered: dict[tuple[int, Word, Word], tuple[tuple[int, ...], tuple[int, ...]]] = {}

    def number(left: Word, rule: Rule, right: Word) -> int:
        st = _skeleton_step(left, rule, right, independent)
        if st not in ids:
            if independent and not (rule.rhs and set(rule.rhs) <= set(rule.lhs)):
                raise ValueError(
                    f"rule {rule.name}: modulo commutations a right side must be "
                    "non-empty and use letters of the left side only"
                )
            ids[st] = len(steps)
            steps.append(st)
            where.append((left, right))
        return ids[st]

    def read(path: Path) -> tuple[int, ...]:
        return tuple(
            number(st.left, st.rule, st.right)
            for st in path.steps
            if not _is_swap(st.rule, independent)
        )

    sides: list[tuple[Path, Path]] = []
    by_rule: dict[Rule | None, list[int]] = {}  # first rule of a side's skeleton -> sides
    for p, q in family.members:
        sp, sq = read(p), read(q)
        if sp != sq:
            for frm, to, skel in ((p, q, sp), (q, p, sq)):
                by_rule.setdefault(steps[skel[0]][2] if skel else None, []).append(len(sides))
                sides.append((frm, to))

    def places(trace: Word, start: Word) -> list[tuple[Word, Word]]:
        if (trace, start) not in placements:
            placements[trace, start] = list(class_factors(trace, independent)(start))
        return placements[trace, start]

    def swap(x: int, y: int) -> tuple[int, int] | None:
        """The two steps of the natural square on steps x then y, y first."""
        left, right = where[x]
        r1, r2 = steps[x][2], steps[y][2]
        w = left + r1.rhs + right
        count: dict[int, int] = {}
        pos: dict[tuple[int, int], int] = {}  # label -> position in w
        for k, a in enumerate(w):
            count[a] = count.get(a, -1) + 1
            pos[a, count[a]] = k
        redex = [pos[label] for label in steps[y][1]]
        if not independent:  # w is its own trace: y's redex is the factor w[lo:hi]
            lo, hi, end = redex[0], redex[-1] + 1, len(left) + len(r1.rhs)
            y_first = hi <= len(left)
            if not y_first and lo < end:
                return None
            a, b, c = (w[:lo], w[hi : len(left)], right) if y_first else (left, w[end:lo], w[hi:])
        else:
            block = ((1 << len(r1.rhs)) - 1) << len(left)
            mask = sum(1 << k for k in redex)
            if mask & block:
                return None
            down = trace_order(w, independent)[2]
            y_first = any(down[k] & mask for k in range(len(left), len(left) + len(r1.rhs)))
            if y_first and any(down[k] & block for k in redex):
                return None
            one, two = (mask, block) if y_first else (block, mask)
            above = [(d & one != 0, d & two != 0) for d in down]
            a = tuple(w[k] for k, (o, t) in enumerate(above) if not o and not t)
            b = tuple(w[k] for k, (o, t) in enumerate(above) if o and not t and not one >> k & 1)
            c = tuple(w[k] for k, (_, t) in enumerate(above) if t and not two >> k & 1)
        if y_first:  # a lhs2 b rhs1 c is in the trace
            return number(a, r2, b + r1.lhs + c), number(a + r2.rhs + b, r1, c)
        return number(a + r1.lhs + b, r2, c), number(a, r1, b + r2.rhs + c)

    def moves(state: tuple[int, ...], end: Word) -> Iterator[tuple[int, int, tuple[int, ...]]]:
        """(i, k, new): replace state[i : i + k] by new."""
        for i in range(len(state) + 1):
            trace, _, rule = steps[state[i]] if i < len(state) else (end, None, None)
            for j in (j for key in dict.fromkeys((rule, None)) for j in by_rule.get(key, ())):
                frm, to = sides[j]
                for u, v in places(trace, frm.start):
                    if (j, u, v) not in whiskered:
                        whiskered[j, u, v] = read(frm.whisker(u, v)), read(to.whisker(u, v))
                    old, new = whiskered[j, u, v]
                    if state[i : i + len(old)] == old:
                        yield i, len(old), new
        for i in range(len(state) - 1):
            new = swap(state[i], state[i + 1])
            if new is not None:
                yield i, 2, new

    def search(p: Path, q: Path, bound: int) -> PathVerdict:
        end = normal_form(p.end, independent)
        frontiers = [[read(p)], [read(q)]]
        if frontiers[0] == frontiers[1]:
            return PathVerdict.EQUIVALENT
        seen = (set(frontiers[0]), set(frontiers[1]))
        budget, me = bound, 1
        while frontiers[0] and frontiers[1]:
            a, b = len(frontiers[0]), len(frontiers[1])
            me = 0 if a < b else 1 if b < a else 1 - me
            mine, other = seen[me], seen[1 - me]
            new: list[tuple[int, ...]] = []
            for state in frontiers[me]:
                for i, k, put in moves(state, end):
                    if not budget:
                        return PathVerdict.UNKNOWN
                    budget -= 1
                    nxt = state[:i] + put + state[i + k :]
                    if nxt in other:
                        return PathVerdict.EQUIVALENT
                    if nxt not in mine:
                        mine.add(nxt)
                        new.append(nxt)
            frontiers[me] = new
        return PathVerdict.EXHAUSTED

    return search


# --- graphviz export ------------------------------------------------------


def export_dot(t: Tiling) -> str:
    """Render a tiling as graphviz dot.

    Solid edges carry their step's "left:rule:right" label; dashed edges
    mark identified words from improper closures.  Rank groups keep each
    row of the diagram on one level so the drawing reads top-to-bottom,
    left-to-right like the underlying rectangle.
    """
    n, nodes, edges = t.n, t.nodes, t.edges
    indeg: dict[int, list[_Edge]] = {i: [] for i in nodes}
    for e in edges:
        indeg[e.dst].append(e)
    # A node's row counts the V steps (dashed edges are H) on the longest
    # path to it.  Acyclic: from a frontier node, V edges move forward along
    # the walk and H edges backward, and interior nodes get no new out-edges.
    row: dict[int, int] = {}
    for v in TopologicalSorter({v: [e.src for e in es] for v, es in indeg.items()}).static_order():
        row[v] = max((row[e.src] + (e.kind == "V") for e in indeg[v]), default=0)
    lines = ["digraph tiling {", "  rankdir=TB;", '  node [shape=box, fontname="monospace"];']
    for v in sorted(nodes):
        lines.append(f'  n{v} [label="{word_to_str(nodes[v], n)}"];')
    for e in edges:
        if e.step is None:
            lines.append(f"  n{e.src} -> n{e.dst} [style=dashed];")
        else:
            lines.append(
                f'  n{e.src} -> n{e.dst} [label="{e.step.render(n)}"];'
            )
    by_row: dict[int, list[int]] = {}
    for v in sorted(nodes):
        by_row.setdefault(row[v], []).append(v)
    for r in sorted(by_row):
        members = "; ".join(f"n{v}" for v in by_row[r])
        lines.append(f"  {{rank=same; {members};}}")
    lines.append("}")
    return "\n".join(lines) + "\n"
