"""Words modulo commutations: normal forms and factors of traces.

`independent` is a frozenset of letter pairs, holding (a, b) and (b, a)
together and never (a, a).  Words that differ by swapping adjacent
independent letters form a class, a Mazurkiewicz trace; a position lies
below a later one in the trace order when a chain of pairwise dependent
letters leads from one to the other (Diekert and Rozenberg, *The Book of
Traces*, 1995).  `normal_form` is the class's lex-least word (Anisimov and
Knuth, *Inhomogeneous sorting*, 1979; Cartier and Foata, LNM 85, 1969);
`factor_in_class` finds a member with a given factor.  Neither lists it.
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import lru_cache

Word = tuple[int, ...]
Positions = tuple[int, ...]
Pairs = frozenset[tuple[int, int]]
Dep = dict[int, frozenset[int]]


@lru_cache(maxsize=256)
def _dependent(letters: frozenset[int], independent: Pairs) -> Dep:
    """Each letter mapped to the letters it depends on, itself too; cached,
    as both public functions need it on every call."""
    return {a: frozenset(b for b in letters if (b, a) not in independent) for a in letters}


def normal_form(w: Word, independent: Pairs) -> Word:
    """The lex-least word of w's commutation class: emit the least letter
    with no dependent letter before it, until none is left."""
    dep = _dependent(frozenset(w), independent)
    rest = list(w)
    out: list[int] = []
    while rest:
        best = 0
        before: set[int] = set()
        for k, a in enumerate(rest):
            if a < rest[best] and before.isdisjoint(dep[a]):
                best = k
            before.add(a)
        out.append(rest.pop(best))
    return tuple(out)


def _above(w: Word, chosen: Positions, dep: Dep) -> set[int]:
    """The positions outside `chosen` above some chosen one in the trace
    order, found in one pass that carries the letters on or above `chosen`."""
    letters: set[int] = set()
    out: set[int] = set()
    for k in range(min(chosen, default=len(w)), len(w)):
        if k in chosen:
            letters.add(w[k])
        elif not letters.isdisjoint(dep[w[k]]):
            letters.add(w[k])
            out.add(k)
    return out


def _placements(w: Word, lhs: Word, dep: Dep, chosen: Positions = ()) -> Iterator[Positions]:
    """Positions spelling lhs letter by letter, each after those chosen for
    the earlier letters of lhs it depends on: the subword is in lhs's class."""
    if len(chosen) == len(lhs):
        yield chosen
        return
    a = lhs[len(chosen)]
    floor = max((p for b, p in zip(lhs, chosen) if b in dep[a]), default=-1)
    for p in range(floor + 1, len(w)):
        if w[p] == a:
            yield from _placements(w, lhs, dep, chosen + (p,))
            if floor >= 0:
                break  # a later a would leave this one between floor and it


def factor_in_class(w: Word, lhs: Word, independent: Pairs) -> tuple[Word, Word] | None:
    """(u, v) with u + lhs + v in w's class, or None when no member of the
    class has lhs as a factor.

    A placement of lhs is accepted when its position set is convex in the
    trace order: no other position lies above one chosen position and
    below another.  Then u is the positions not above the set and v the
    positions above it, each in word order.
    """
    dep = _dependent(frozenset(w), independent)
    if not dep.keys() >= set(lhs):  # each letter of lhs needs a `dep` entry
        return None
    last = len(w) - 1
    for chosen in _placements(w, lhs, dep):
        above = _above(w, chosen, dep)
        below = _above(w[::-1], tuple(last - p for p in chosen), dep)
        if not any(last - k in above for k in below):
            u = tuple(a for k, a in enumerate(w) if k not in above and k not in chosen)
            return u, tuple(w[k] for k in sorted(above))
    return None
