"""Critical pairs, joinability and local confluence.

Two rule instances with the same source word form a critical pair when
their redexes genuinely interfere:

- overlap: the peak is u·lhs(r) = lhs(r')·v, i.e. a suffix of one
  left-hand side equals a prefix of the other (u or v may be empty, which
  covers one lhs being a prefix or suffix of the other, but not both
  empty with r = r');
- inclusion: lhs(r') sits strictly inside lhs(r), with non-empty context
  on both sides.

Pairs are enumerated in both orders because downstream constructions
place the first component on top of a square.  `join_pair` searches for
a common reduct of the two targets by bidirectional breadth-first
search (`srw.diagrams.bfs_join_chooser` turns a found join into the
elementary diagram whose top is the pair's first component).
`local_confluence_report` runs the joinability check over every critical
pair, and tells a pair that is refuted (both reachable sets exhausted
without meeting) from one whose search the bound cut.
"""

from __future__ import annotations

from dataclasses import dataclass

from .words import Path, RuleInstance, SrsSystem, Word, find_redexes, word_to_str

__all__ = [
    "CriticalPair",
    "Joinability",
    "ConfluenceReport",
    "enumerate_critical_pairs",
    "join_pair",
    "local_confluence_report",
]


@dataclass(frozen=True)
class CriticalPair:
    """An ordered interfering pair of co-initial instances."""

    kind: str  # "overlap" or "inclusion"
    first: RuleInstance
    second: RuleInstance
    peak: Word

    def render(self, n: int) -> str:
        return (
            f"{self.kind} {word_to_str(self.peak, n)}: "
            f"{self.first.render(n)} | {self.second.render(n)}"
        )


def enumerate_critical_pairs(sys: SrsSystem) -> list[CriticalPair]:
    """All critical pairs of the system, both orderings, deduplicated."""
    rules = sorted(sys.rules, key=lambda r: r.name)
    seen: dict[tuple, CriticalPair] = {}

    def emit(kind: str, a: RuleInstance, b: RuleInstance, peak: Word) -> None:
        for first, second in ((a, b), (b, a)):
            key = (kind, first, second)
            if key not in seen:
                seen[key] = CriticalPair(kind, first, second, peak)

    for rp in rules:  # rule whose lhs is the prefix of the peak
        for rs in rules:  # rule whose lhs is the suffix of the peak
            a, b = rp.lhs, rs.lhs
            for o in range(1, min(len(a), len(b)) + 1):
                if a[len(a) - o :] != b[:o]:
                    continue
                u = a[: len(a) - o]
                v = b[o:]
                if not u and not v and rp == rs:
                    continue  # the same redex, not a pair
                peak = a + v
                emit(
                    "overlap",
                    RuleInstance(u, rs, ()),
                    RuleInstance((), rp, v),
                    peak,
                )
    for outer in rules:
        for inner in rules:
            m = len(inner.lhs)
            for p in range(1, len(outer.lhs) - m):
                if outer.lhs[p : p + m] == inner.lhs:
                    emit(
                        "inclusion",
                        RuleInstance((), outer, ()),
                        RuleInstance(outer.lhs[:p], inner, outer.lhs[p + m :]),
                        outer.lhs,
                    )
    return list(seen.values())


@dataclass(frozen=True)
class Joinability:
    """A common reduct with shortest paths from the two pair targets."""

    target: Word
    from_first: Path
    from_second: Path


def _expand_layer(
    frontier: list[Word],
    parents: dict[Word, tuple[Word, RuleInstance] | None],
    sys: SrsSystem,
) -> list[Word]:
    new: list[Word] = []
    for w in frontier:
        for inst in find_redexes(w, sys):
            t = inst.target
            if t not in parents:
                parents[t] = (w, inst)
                new.append(t)
    return new


def _path_from_parents(
    parents: dict[Word, tuple[Word, RuleInstance] | None], end: Word
) -> Path:
    steps: list[RuleInstance] = []
    cur = end
    while True:
        back = parents[cur]
        if back is None:
            break
        prev, inst = back
        steps.append(inst)
        cur = prev
    steps.reverse()
    return Path(cur, tuple(steps))


def _join(
    pair: CriticalPair, sys: SrsSystem, bound: int
) -> tuple[Joinability | None, bool]:
    """`join_pair`'s search; the flag says whether the bound cut it short."""
    t1, t2 = pair.first.target, pair.second.target
    parents1: dict[Word, tuple[Word, RuleInstance] | None] = {t1: None}
    parents2: dict[Word, tuple[Word, RuleInstance] | None] = {t2: None}
    frontier1, frontier2 = [t1], [t2]

    def meet() -> Word | None:
        common = parents1.keys() & parents2.keys()
        if common:
            return min(common)
        return None

    m = meet()
    depth1 = depth2 = 0
    while m is None:
        grow_first = (depth1 <= depth2 and frontier1) or not frontier2
        if grow_first and frontier1 and depth1 < bound:
            frontier1 = _expand_layer(frontier1, parents1, sys)
            depth1 += 1
        elif frontier2 and depth2 < bound:
            frontier2 = _expand_layer(frontier2, parents2, sys)
            depth2 += 1
        else:
            # A side with words left to expand was stopped by the bound.
            return None, bool(frontier1 or frontier2)
        m = meet()
    return Joinability(
        target=m,
        from_first=_path_from_parents(parents1, m),
        from_second=_path_from_parents(parents2, m),
    ), False


def join_pair(pair: CriticalPair, sys: SrsSystem, bound: int = 16) -> Joinability | None:
    """Find a common reduct of the two targets within `bound` steps per side.

    Both reachable sets are grown breadth-first one layer at a time; the
    first meeting word (lexicographically least among the earliest layer)
    is returned together with the shortest paths leading to it.  None
    means no join within the bound; `local_confluence_report` tells a
    refutation (both sets exhausted) from a search the bound cut.
    """
    return _join(pair, sys, bound)[0]


@dataclass(frozen=True)
class ConfluenceReport:
    """`failures` lists every pair not joined within the bound, and `cut`
    those of them whose search the bound stopped: only the rest are
    refuted, their two reachable sets exhausted and disjoint."""

    bound: int
    total: int
    failures: tuple[CriticalPair, ...]
    cut: tuple[CriticalPair, ...]

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def refuted(self) -> tuple[CriticalPair, ...]:
        return tuple(p for p in self.failures if p not in self.cut)

    @property
    def verdict(self) -> str:
        """FAIL if some pair is refuted, else UNKNOWN if some search was
        cut, else PASS."""
        return "FAIL" if self.refuted else "UNKNOWN" if self.cut else "PASS"


def local_confluence_report(sys: SrsSystem, bound: int = 16) -> ConfluenceReport:
    """Try to join every critical pair; report the ones that resist."""
    pairs = enumerate_critical_pairs(sys)
    failures = tuple(p for p in pairs if join_pair(p, sys, bound) is None)
    # Search a failed pair again to learn whether the bound cut it: failures
    # are few, and every join still goes through `join_pair`.
    cut = tuple(p for p in failures if _join(p, sys, bound)[1])
    return ConfluenceReport(bound=bound, total=len(pairs), failures=failures, cut=cut)
