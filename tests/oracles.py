"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written with different algorithms and
data structures than the library: a double-loop substring scan instead
of the library's position/rule sweep, a fixpoint set closure instead of
a worklist BFS (and instead of trace normal forms for commutation
classes, and of one condensed descendant graph for attractors), a
union-find congruence closure over a bounded word universe instead of
attractor canonical forms, and a layered set-intersection join instead
of a bidirectional meet-in-the-middle search.  Tests compare the two
routes; the oracle side is never implemented by calling into the
package.

`scan_path_search` is the reference for
`srw.diagrams.paths_equivalent_mod_cells` with no commutations: a
bidirectional search over concrete `RuleInstance` steps that finds each
member occurrence by a plain scan of every step index and word offset,
where the library searches numbered skeleton steps at the placements of
a trace.  Tests compare verdicts, not the order of neighbours.
`scan_neighbours` lists one state's neighbours; the random-system test
also walks it to build paths that the search should join.

`natural_square` is the bare formula of a natural square, the reference
for the four instances that `srw.order.check_naturals` keys and for the
tiler's natural cells.  `rescan_tiling` is the reference tiler: it keeps
the frontier as zigzag legs of `RuleInstance` steps, rescans it after
every cell, builds natural cells from `natural_square` and whiskers the
chooser's bare cells itself, and calls no tiling code of `srw.diagrams`.  `natural_squares_upto` enumerates those squares
up to a separator length: the reference for `srw.order.check_naturals`,
which decides them all from the squares without a separator.

`compared_decreasing` decides decreasingness with one call of the
order's `greater` or `equivalent` per comparison, the reference for
`srw.order.is_decreasing_ed`, which keys each step once.

`labelled_class` is the commutation class under any independent letter
pairs, each member's letters tagged with their positions in the start
word; `class_placements` reads from it the position sets that spell a
factor, the reference for `srw.traces.class_factors`.

`demazure_product` is the 0-Hecke action on permutations, the reference
for the element count and the reducedness of `srw.hecke.enumerate_monoid`.

`monomial_counterexamples` is no reference implementation but a sampler
that two test modules share: it puts the order under test to random
instances and their whiskered copies.
"""

from __future__ import annotations

import itertools
import random
from typing import NamedTuple

from srw.critical import CriticalPair
from srw.words import BACKWARD, FORWARD, Path, Rule, RuleInstance, SrsSystem, Word, Zigzag


def naive_redexes(w: Word, sys: SrsSystem) -> set[RuleInstance]:
    """Every (context, rule) placement, found by brute substring checks."""
    found: set[RuleInstance] = set()
    for r in sys.rules:
        for i in range(len(w) + 1):
            for j in range(i, len(w) + 1):
                if w[i:j] == r.lhs:
                    found.add(RuleInstance(w[:i], r, w[j:]))
    return found


def one_step_images(w: Word, sys: SrsSystem) -> set[Word]:
    out: set[Word] = set()
    for r in sys.rules:
        m = len(r.lhs)
        for i in range(len(w) - m + 1):
            if w[i : i + m] == r.lhs:
                out.add(w[:i] + r.rhs + w[i + m :])
    return out


def fixpoint_reach(w: Word, sys: SrsSystem, cap: int = 100000) -> set[Word]:
    """Reachable set by iterating the one-step image to a fixpoint."""
    closure: set[Word] = {w}
    while True:
        new = set()
        for x in closure:
            new |= one_step_images(x, sys)
        if new <= closure:
            return closure
        closure |= new
        if len(closure) > cap:
            raise RuntimeError("fixpoint_reach cap exceeded")


def attractor_classes(
    w: Word, sys: SrsSystem, memo: dict[Word, set[Word]] | None = None
) -> set[frozenset[Word]]:
    """The mutual-reachability classes that reduction from w settles in:
    the descendants x of w that every descendant of x can reach back,
    grouped by their own reachable sets (for such an x that set is its
    class).  Reachable sets are `fixpoint_reach` closures, kept in `memo`
    when the caller passes one to share between calls."""
    memo = {} if memo is None else memo

    def closure(x: Word) -> set[Word]:
        if x not in memo:
            memo[x] = fixpoint_reach(x, sys)
        return memo[x]

    return {
        frozenset(closure(x))
        for x in closure(w)
        if all(x in closure(y) for y in closure(x))
    }


def commutation_class(w: Word, n: int) -> set[Word]:
    """Every word reached from w by swapping adjacent letters at distance
    >= 2 (the rank-n Hecke commutations)."""
    assert all(1 <= a <= n for a in w), f"{w} is not a rank-{n} word"
    pairs = {(s, t) for s in range(1, n + 1) for t in range(1, n + 1) if abs(s - t) >= 2}
    return {tuple(a for a, _ in x) for x in labelled_class(w, pairs)}


def labelled_class(w: Word, independent) -> set[tuple[tuple[int, int], ...]]:
    """Every word reached from w by swapping adjacent letters that form a
    pair in `independent`, by iterating all swaps of all members to a
    fixpoint; each letter is kept as (letter, its position in w)."""
    closure = {tuple((a, k) for k, a in enumerate(w))}
    while True:
        new = {
            x[:i] + (x[i + 1], x[i]) + x[i + 2 :]
            for x in closure
            for i in range(len(x) - 1)
            if (x[i][0], x[i + 1][0]) in independent
        }
        if new <= closure:
            return closure
        closure |= new


def class_placements(
    w: Word, lhs: Word, labelled: set[tuple[tuple[int, int], ...]]
) -> dict[frozenset[int], tuple[Word, Word]]:
    """Each set of w's positions that spells lhs as a factor of some member
    of `labelled`, w's `labelled_class`, mapped to (u, v): w's letters, in
    w's order, at the positions that come before the set in some such
    member, and at the other positions outside it."""
    before: dict[frozenset[int], set[int]] = {}
    for x in labelled:
        for i in range(len(x) - len(lhs) + 1):
            if tuple(a for a, _ in x[i : i + len(lhs)]) == lhs:
                at = frozenset(k for _, k in x[i : i + len(lhs)])
                before.setdefault(at, set()).update(k for _, k in x[:i])
    return {
        at: (
            tuple(a for k, a in enumerate(w) if k in ks),
            tuple(a for k, a in enumerate(w) if k not in ks and k not in at),
        )
        for at, ks in before.items()
    }


def demazure_product(w: Word, n: int) -> tuple[int, ...]:
    """The permutation of 1..n+1, in one-line notation, that the 0-Hecke
    monoid of the symmetric group assigns to the rank-n word w: letter i
    swaps the entries at positions i and i+1 when that adds an inversion,
    and leaves the permutation alone otherwise."""
    perm = list(range(1, n + 2))
    for i in w:
        if perm[i - 1] < perm[i]:
            perm[i - 1], perm[i] = perm[i], perm[i - 1]
    return tuple(perm)


def inversions(perm: tuple[int, ...]) -> int:
    return sum(a > b for a, b in itertools.combinations(perm, 2))


def all_words(n: int, max_len: int) -> list[Word]:
    out: list[Word] = []
    for length in range(max_len + 1):
        out.extend(itertools.product(range(1, n + 1), repeat=length))
    return out


class UnionFind:
    def __init__(self) -> None:
        self.parent: dict[object, object] = {}

    def find(self, x: object) -> object:
        self.parent.setdefault(x, x)
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: object, b: object) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb

    def same(self, a: object, b: object) -> bool:
        return self.find(a) == self.find(b)


def congruence_closure(sys: SrsSystem, max_len: int) -> UnionFind:
    """Union-find over all words of length <= max_len, merging each word
    with each of its one-step images.

    For length-nonincreasing systems the universe is closed under steps,
    so two words of length <= max_len are congruent iff they can be
    connected by steps through words of length <= max_len: any zigzag
    between them stays inside the universe because no intermediate word
    on a connecting zigzag needs to be longer than the words already
    joined (every step either keeps length or shrinks, and backward legs
    re-grow only what a forward leg shrank).  The tests only rely on the
    sound direction (merged implies congruent) plus agreement with the
    library on the full universe, so the bound never has to be argued
    exactly.
    """
    uf = UnionFind()
    for w in all_words(sys.n, max_len):
        for img in one_step_images(w, sys):
            if len(img) <= max_len:
                uf.union(w, img)
    return uf


def layered_joinable(u: Word, v: Word, sys: SrsSystem, depth: int) -> bool:
    """Whether u and v have a common reduct within `depth` steps each side,
    computed by expanding both full reachable-set layerings and
    intersecting them."""
    layers_u = {u}
    layers_v = {v}
    for _ in range(depth):
        layers_u |= {y for x in layers_u for y in one_step_images(x, sys)}
        layers_v |= {y for x in layers_v for y in one_step_images(x, sys)}
    return bool(layers_u & layers_v)


def tiny_system() -> SrsSystem:
    """A small non-Hecke system used to exercise generic code paths."""
    return SrsSystem(
        n=2,
        rules=(
            Rule("dbl", (1, 1), (1,)),
            Rule("swp", (2, 1), (1, 2)),
        ),
    )


class Square(NamedTuple):
    """An elementary diagram's four sides, as `srw.order`'s checks read them."""

    top: RuleInstance
    left: RuleInstance
    right: Path
    bottom: Path


def natural_square(r1: Rule, w: Word, r2: Rule) -> Square:
    """The square commuting r1 and r2 across w.

    Top applies r1 with the word w·lhs(r2) on its right; left applies r2
    with lhs(r1)·w on its left; either order reaches rhs(r1)·w·rhs(r2).
    """
    top = RuleInstance((), r1, w + r2.lhs)
    left = RuleInstance(r1.lhs + w, r2, ())
    right = Path(top.target, (RuleInstance(r1.rhs + w, r2, ()),))
    bottom = Path(left.target, (RuleInstance((), r1, w + r2.rhs),))
    return Square(top, left, right, bottom)


def natural_squares_upto(sys: SrsSystem, max_mid: int):
    """Every natural square r1 · w · r2 with |w| <= max_mid, labelled
    (r1, w, r2); transposes are left out."""
    separators = all_words(sys.n, max_mid)
    for r1 in sys.rules:
        for r2 in sys.rules:
            for w in separators:
                yield (r1, w, r2), natural_square(r1, w, r2)


def compared_decreasing(order, ed) -> tuple[bool, int | None, int | None, str | None]:
    """(ok, j, s, reason) of the decreasingness conditions for a diagram
    with top, left, right and bottom, each comparison one `order.greater`
    or `order.equivalent` call: the least split index j of the bottom path
    and s of the right path, or the first side that has none, named by
    its first step dominated by neither boundary step."""

    def split(anchor, other, steps):
        def dominated(k, st, j):
            if k < j:
                return order.greater(other, st)
            return order.greater(other, st) or order.greater(anchor, st)

        for j in range(len(steps) + 1):
            if j and not order.equivalent(anchor, steps[j - 1]):
                continue
            if all(dominated(k, st, j) for k, st in enumerate(steps, 1) if k != j):
                return j, None
        k = next(k for k, st in enumerate(steps, 1) if not dominated(k, st, 0))
        return None, f"step {k} not dominated by either side"

    j, why = split(ed.top, ed.left, tuple(ed.bottom.steps))
    if j is None:
        return False, None, None, f"bottom path: {why}"
    s, why = split(ed.left, ed.top, tuple(ed.right.steps))
    if s is None:
        return False, None, None, f"right path: {why}"
    return True, j, s, None


def _whisker_square(sq: Square, u: Word, v: Word) -> Square:
    return Square(sq.top.whisker(u, v), sq.left.whisker(u, v), sq.right.whisker(u, v), sq.bottom.whisker(u, v))


def _oracle_cell(h: RuleInstance, v: RuleInstance, chooser) -> tuple:
    """(right, bottom, tag, origin) of the cell closing the corner (h, v),
    built from whole objects: the bare natural square or the chooser's
    bare cell, whiskered back into the corner's word."""
    w = h.source
    ah, bh = len(h.left), len(h.left) + len(h.rule.lhs)
    av, bv = len(v.left), len(v.left) + len(v.rule.lhs)
    names = f"({h.rule.name},{v.rule.name})"
    if h == v:
        return Path(h.target), Path(h.target), "improper", "repeated-step"
    if bh <= av:
        sq = _whisker_square(natural_square(h.rule, w[bh:av], v.rule), h.left, v.right)
        return sq.right, sq.bottom, "natural", "natural" + names
    if bv <= ah:
        sq = _whisker_square(natural_square(v.rule, w[bv:ah], h.rule), v.left, h.right)
        return sq.bottom, sq.right, "transposed", "natural" + names
    lo, hi = min(ah, av), max(bh, bv)
    inside = (ah < av and bv < bh) or (av < ah and bh < bv)
    pair = CriticalPair(
        "inclusion" if inside else "overlap",
        RuleInstance(w[lo:ah], h.rule, w[bh:hi]),
        RuleInstance(w[lo:av], v.rule, w[bv:hi]),
        w[lo:hi],
    )
    ed, transposed = chooser(pair)
    sq = _whisker_square(Square(ed.top, ed.left, ed.right, ed.bottom), w[:lo], w[hi:])
    assert (sq.top, sq.left) == (h, v)
    tag = "transposed" if transposed else "whiskered" if lo or hi < len(w) else "critical"
    return sq.right, sq.bottom, tag, "critical" + names


def rescan_tiling(zig: Zigzag, chooser, fuel: int) -> tuple[list[tuple], tuple | str]:
    """Reference tiler over objects: after every cell, rescan the whole
    frontier for its first open corner, a backward leg followed by a
    forward one.  Returns the cells, as (top, left, right, bottom, tag,
    origin), and either the boundary (sink, path from the start, path
    from the end) or, when the fuel runs out, the tiler's message."""
    frontier = list(zig.legs)
    cells = []
    while True:
        corners = [
            i
            for i in range(len(frontier) - 1)
            if frontier[i][0] == BACKWARD and frontier[i + 1][0] == FORWARD
        ]
        if not corners:
            break
        if fuel <= 0:
            return cells, f"{len(corners)} open corner(s) remain with no fuel left"
        i = corners[0]
        h, v = frontier[i][1], frontier[i + 1][1]
        right, bottom, tag, origin = _oracle_cell(h, v, chooser)
        cells.append((h, v, right, bottom, tag, origin))
        frontier[i : i + 2] = [(FORWARD, s) for s in right.steps] + [
            (BACKWARD, s) for s in reversed(bottom.steps)
        ]
        fuel -= 1
    from_start = Path(zig.start, tuple(s for d, s in frontier if d == FORWARD))
    from_end = Path(zig.end, tuple(s for d, s in reversed(frontier) if d == BACKWARD))
    assert from_start.end == from_end.end
    return cells, (from_start.end, from_start, from_end)


def monomial_counterexamples(
    order, sys: SrsSystem, trials: int, seed: int, max_context: int = 3
) -> list[str]:
    """Random-test that whiskering preserves comparison verdicts.

    For sampled instances p, q and words w the verdicts of (w·p, w·q) and
    (p·w, q·w) must equal the verdict of (p, q), where a verdict is
    "greater", "less" or "equivalent" as `order.greater` and
    `order.equivalent` say.  Returns the first ten counterexamples,
    rendered; none means the sample found the order compatible with
    contexts.
    """
    rng = random.Random(seed)

    def word(length: int) -> Word:
        return tuple(rng.randrange(1, sys.n + 1) for _ in range(length))

    def instance() -> RuleInstance:
        rule = rng.choice(sys.rules)
        lu, lv = rng.randrange(max_context + 1), rng.randrange(max_context + 1)
        return RuleInstance(word(lu), rule, word(lv))

    def verdict(a: RuleInstance, b: RuleInstance) -> str:
        if order.greater(a, b):
            return "greater"
        return "equivalent" if order.equivalent(a, b) else "less"

    bad: list[str] = []
    for _ in range(trials):
        p, q = instance(), instance()
        w = word(rng.randrange(max_context + 1))
        base = verdict(p, q)
        lv = verdict(p.whisker(w, ()), q.whisker(w, ()))
        rv = verdict(p.whisker((), w), q.whisker((), w))
        if lv != base or rv != base:
            bad.append(
                f"{p.render(sys.n)} vs {q.render(sys.n)} -> {base}, "
                f"under w={sys.fmt(w)}: left {lv}, right {rv}"
            )
            if len(bad) >= 10:
                break
    return bad


def _at(w: Word, pos: int, rule: Rule) -> RuleInstance:
    """The step applying `rule` at position `pos` of w."""
    return RuleInstance(w[:pos], rule, w[pos + len(rule.lhs) :])


def _adjacent_swaps(steps: tuple) -> list[tuple]:
    """Swap each pair of adjacent steps whose redexes do not touch, by
    positions in the words between them."""
    out = []
    for i in range(len(steps) - 1):
        s1, s2 = steps[i], steps[i + 1]
        w0 = s1.source
        p1, p2 = len(s1.left), len(s2.left)
        l1, r1, l2 = len(s1.rule.lhs), len(s1.rule.rhs), len(s2.rule.lhs)
        if p2 >= p1 + r1:  # s2 rewrites to the right of s1's result
            first = _at(w0, p2 - r1 + l1, s2.rule)
            out.append(steps[:i] + (first, _at(first.target, p1, s1.rule)) + steps[i + 2 :])
        elif p2 + l2 <= p1:  # s2 rewrites to the left of s1's result
            first = _at(w0, p2, s2.rule)
            shift = len(s2.rule.rhs) - l2
            out.append(
                steps[:i] + (first, _at(first.target, p1 + shift, s1.rule)) + steps[i + 2 :]
            )
    return out


def scan_neighbours(start: Word, steps: tuple, moves: list) -> list[tuple]:
    """The states one move from the path `steps` from `start`: every move
    (frm, to), step index and word offset, in that nesting, then the
    adjacent swaps."""
    words = [start] + [s.target for s in steps]
    out = []
    for frm, to in moves:
        k, base = len(frm.steps), frm.start
        for i in range(len(steps) - k + 1):
            w = words[i]
            for x in range(len(w) - len(base) + 1):
                if w[x : x + len(base)] != base:
                    continue
                u, v = w[:x], w[x + len(base) :]
                moved = [RuleInstance(u + s.left, s.rule, s.right + v) for s in frm.steps]
                if list(steps[i : i + k]) == moved:
                    put = tuple(RuleInstance(u + s.left, s.rule, s.right + v) for s in to.steps)
                    out.append(steps[:i] + put + steps[i + k :])
    out.extend(_adjacent_swaps(steps))
    return out


def scan_path_search(p: Path, q: Path, members: tuple, bound: int) -> bool:
    """Whether a chain of member substitutions (and adjacent swaps) turns
    p into q before `bound` new states are explored."""
    if p.steps == q.steps:
        return True
    moves = [m for a, b in members for m in ((a, b), (b, a))]
    sides = {"p": ({p.steps}, [p.steps]), "q": ({q.steps}, [q.steps])}
    budget = bound
    while sides["p"][1] and sides["q"][1] and budget > 0:
        me = "p" if len(sides["p"][1]) <= len(sides["q"][1]) else "q"
        seen, frontier = sides[me]
        other = sides["q" if me == "p" else "p"][0]
        grown: list[tuple] = []
        for state in frontier:
            for nxt in scan_neighbours(p.start, state, moves):
                if nxt in seen:
                    continue
                if nxt in other:
                    return True
                seen.add(nxt)
                grown.append(nxt)
                budget -= 1
                if budget <= 0:
                    break
            if budget <= 0:
                break
        sides[me] = (seen, grown)
    return False
