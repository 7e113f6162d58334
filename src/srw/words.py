"""Words, rules, rewriting steps and reachability.

A word is a tuple of generators; a generator is an integer in 1..n.
Words over alphabets of at most nine generators print as digit strings
("212"), larger alphabets print dot-separated ("2.12.3").

A rule rewrites a fixed left-hand side to a fixed right-hand side.  A
rule instance places a rule inside a context: the instance (u, r, v)
rewrites the word u·lhs(r)·v to u·rhs(r)·v.  Instances double as the
steps of reduction paths; a path stores its start word plus the chained
instances, and a zigzag is a path whose legs may also run backward.

Each `SrsSystem` is compiled once, when it is built, into a rule table:
the rules bucketed, in rule-name order, by the first two letters of their
left-hand side (only keys that begin one get a bucket; a one-letter rule
also joins each bucket its letter starts), plus a name -> rule map.

`find_redexes` lists every way a rule applies inside a word, ordered by
(start position, rule name): at each position it looks up the two letters
there, or the one letter when they have no bucket, and compares only the
left-hand sides longer than two letters.  `successors` makes the same
sweep but returns only the rewritten words, without the instances.

`explore` is the one breadth-first search of the package: given a start
word and a step function listing the next words, it returns the words
reached and whether the search ran to the end or stopped at its bound on
explored words.  `reach` runs it over one-step rewriting, as does
`srw.seminormal.AttractorClass.members` to list a sink class.  For systems
whose rules never lengthen words the closure under rewriting is finite and
`reach` is exact, otherwise it needs a bound and may be truncated.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterable

__all__ = [
    "Word",
    "word_from_str",
    "word_to_str",
    "Rule",
    "RuleInstance",
    "Path",
    "Zigzag",
    "SrsSystem",
    "SourceMismatch",
    "ReachResult",
    "find_redexes",
    "successors",
    "explore",
    "reach",
]

Word = tuple[int, ...]


def word_to_str(w: Word, n: int) -> str:
    """Render a word: digit string for n <= 9, dot-separated otherwise.

    The empty word renders as "-" so that it survives a round trip
    through command lines and step specs.
    """
    if not w:
        return "-"
    if n <= 9:
        return "".join(str(g) for g in w)
    return ".".join(str(g) for g in w)


def word_from_str(s: str, n: int) -> Word:
    """Parse the rendering produced by `word_to_str` ("" also means empty)."""
    if s in ("", "-"):
        return ()
    if n <= 9:
        parts = list(s)
    else:
        parts = s.split(".")
    try:
        w = tuple(int(p) for p in parts)
    except ValueError:
        raise ValueError(f"not a word over 1..{n}: {s!r}")
    for g in w:
        if not 1 <= g <= n:
            raise ValueError(f"generator {g} out of range 1..{n} in {s!r}")
    return w


@dataclass(frozen=True)
class Rule:
    """A rewriting rule lhs -> rhs, both words, lhs non-empty; hashed once."""

    name: str
    lhs: Word
    rhs: Word
    _hash: int = field(init=False, repr=False, compare=False, hash=False)

    def __post_init__(self) -> None:
        if not self.lhs:
            raise ValueError(f"rule {self.name}: empty left-hand side")
        object.__setattr__(self, "_hash", hash((self.name, self.lhs, self.rhs)))

    def __hash__(self) -> int:
        return self._hash


@dataclass(frozen=True, slots=True)
class RuleInstance:
    """A rule in context: rewrites left·lhs·right to left·rhs·right."""

    left: Word
    rule: Rule
    right: Word

    @property
    def source(self) -> Word:
        return self.left + self.rule.lhs + self.right

    @property
    def target(self) -> Word:
        return self.left + self.rule.rhs + self.right

    def whisker(self, u: Word, v: Word) -> "RuleInstance":
        """The same rule applied inside the larger context u·(-)·v."""
        return RuleInstance(u + self.left, self.rule, self.right + v)

    def render(self, n: int) -> str:
        return (
            f"{word_to_str(self.left, n)}:{self.rule.name}:"
            f"{word_to_str(self.right, n)}"
        )


class SourceMismatch(ValueError):
    """Raised when a step of a path, zigzag or diagram does not chain with
    the word it is placed at."""


@dataclass(frozen=True)
class Path:
    """A forward reduction path: a start word plus chained steps."""

    start: Word
    steps: tuple[RuleInstance, ...] = ()

    def __post_init__(self) -> None:
        cur = self.start
        for s in self.steps:
            if s.source != cur:
                raise SourceMismatch(
                    f"path breaks at {s}: expected source {cur}, got {s.source}"
                )
            cur = s.target

    @property
    def end(self) -> Word:
        return self.steps[-1].target if self.steps else self.start

    def __len__(self) -> int:
        return len(self.steps)

    def whisker(self, u: Word, v: Word) -> "Path":
        return Path(u + self.start + v, tuple(s.whisker(u, v) for s in self.steps))

    def render(self, n: int) -> str:
        if not self.steps:
            return "-"
        return ",".join(s.render(n) for s in self.steps)


FORWARD = ">"
BACKWARD = "<"


@dataclass(frozen=True)
class Zigzag:
    """A chain of steps walked forward ('>') or backward ('<').

    A '>' leg moves from the step's source to its target, a '<' leg the
    other way, so a zigzag witnesses equality in the congruence generated
    by the rules without committing to a direction.
    """

    start: Word
    legs: tuple[tuple[str, RuleInstance], ...] = ()

    def __post_init__(self) -> None:
        cur = self.start
        for direction, s in self.legs:
            if direction == FORWARD:
                if s.source != cur:
                    raise SourceMismatch(
                        f"forward leg at {cur}: step source is {s.source}"
                    )
                cur = s.target
            elif direction == BACKWARD:
                if s.target != cur:
                    raise SourceMismatch(
                        f"backward leg at {cur}: step target is {s.target}"
                    )
                cur = s.source
            else:
                raise ValueError(f"bad leg direction {direction!r}")

    @property
    def end(self) -> Word:
        cur = self.start
        for direction, s in self.legs:
            cur = s.target if direction == FORWARD else s.source
        return cur

    def __len__(self) -> int:
        return len(self.legs)


class _RuleTable:
    """The compiled form of a system's rules (see the module docstring)."""

    __slots__ = ("buckets", "by_name")

    def __init__(self, rules: tuple[Rule, ...]):
        by_key: dict[Word, list[Rule]] = {}
        for r in rules:
            by_key.setdefault(r.lhs[:2], []).append(r)
        for key, bucket in by_key.items():
            bucket += by_key.get(key[:1], ()) if len(key) == 2 else ()
        self.buckets = {
            key: tuple((r, r.lhs, r.rhs, len(r.lhs)) for r in sorted(bucket, key=lambda r: r.name))
            for key, bucket in by_key.items()
        }
        self.by_name = {r.name: r for r in rules}


@dataclass(frozen=True)
class SrsSystem:
    """A string rewriting system: alphabet size n plus named rules.

    `order`, when present, compares rule instances (see srw.order); it is
    excluded from equality and hashing so systems with the same rules are
    interchangeable as cache keys.  The compiled rule table and the hash,
    computed once from (n, rules), are excluded from equality, hashing and
    repr as well.
    """

    n: int
    rules: tuple[Rule, ...]
    order: object | None = field(default=None, compare=False, hash=False)
    _table: _RuleTable = field(init=False, repr=False, compare=False, hash=False)
    _hash: int = field(init=False, repr=False, compare=False, hash=False)

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"alphabet size must be >= 1, got {self.n}")
        seen: set[str] = set()
        for r in self.rules:
            if r.name in seen:
                raise ValueError(f"duplicate rule name {r.name}")
            seen.add(r.name)
            for g in r.lhs + r.rhs:
                if not 1 <= g <= self.n:
                    raise ValueError(
                        f"rule {r.name}: generator {g} out of range 1..{self.n}"
                    )
        object.__setattr__(self, "_table", _RuleTable(self.rules))
        object.__setattr__(self, "_hash", hash((self.n, self.rules)))

    def __hash__(self) -> int:
        return self._hash

    def rule(self, name: str) -> Rule:
        return self._table.by_name[name]

    def length_nonincreasing(self) -> bool:
        return all(len(r.rhs) <= len(r.lhs) for r in self.rules)

    def fmt(self, w: Word) -> str:
        return word_to_str(w, self.n)


def find_redexes(w: Word, sys: SrsSystem) -> list[RuleInstance]:
    """All instances whose source is w, ordered by (position, rule name)."""
    get = sys._table.buckets.get
    out: list[RuleInstance] = []
    for pos in range(len(w)):
        for r, lhs, _, m in get(w[pos : pos + 2]) or get(w[pos : pos + 1], ()):
            if m < 3 or w[pos : pos + m] == lhs:
                out.append(RuleInstance(w[:pos], r, w[pos + m :]))
    return out


def successors(w: Word, sys: SrsSystem) -> list[Word]:
    """The targets of `find_redexes(w, sys)`, in the same order, built as
    words without the instances."""
    get = sys._table.buckets.get
    out: list[Word] = []
    for pos in range(len(w)):
        for _, lhs, rhs, m in get(w[pos : pos + 2]) or get(w[pos : pos + 1], ()):
            if m < 3 or w[pos : pos + m] == lhs:
                out.append(w[:pos] + rhs + w[pos + m :])
    return out


def explore(
    start: Word,
    step: Callable[[Word], Iterable[Word]],
    max_words: int | None = None,
) -> tuple[set[Word], bool]:
    """Breadth-first search from `start`, where `step(w)` lists the words
    one step from w.

    Returns the words seen and whether the search is complete.  With a
    bound, the search stops as soon as a new word turns up while
    `max_words` words are already seen, and reports itself incomplete.
    """
    seen = {start}
    queue = deque([start])
    while queue:
        for t in step(queue.popleft()):
            if t not in seen:
                if max_words is not None and len(seen) >= max_words:
                    return seen, False
                seen.add(t)
                queue.append(t)
    return seen, True


@dataclass(frozen=True)
class ReachResult:
    """Words reachable from a start word; `complete` is False when the
    closure was truncated by the explored-words bound."""

    words: frozenset[Word]
    complete: bool


def reach(w: Word, sys: SrsSystem, max_words: int | None = None) -> ReachResult:
    """Breadth-first closure of {w} under one-step rewriting.

    For length-nonincreasing systems the closure is finite and no bound
    is needed.  Otherwise a bound on the number of explored words must be
    given, and a closure it truncates is flagged incomplete.
    """
    if max_words is None and not sys.length_nonincreasing():
        raise ValueError(
            "system has lengthening rules: reach needs a max_words bound"
        )
    seen, complete = explore(w, lambda v: successors(v, sys), max_words)
    return ReachResult(frozenset(seen), complete)
