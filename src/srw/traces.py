"""Words modulo commutations: normal forms and factors of traces.

`independent` is a frozenset of letter pairs, holding (a, b) and (b, a)
together and never (a, a).  Words that differ by swapping adjacent
independent letters form a class, a Mazurkiewicz trace; a position lies
below a later one in the trace order when a chain of pairwise dependent
letters leads from one to the other (Diekert and Rozenberg, *The Book of
Traces*, 1995).  `normal_form` is the class's lex-least word (Anisimov and
Knuth, *Inhomogeneous sorting*, 1979; Cartier and Foata, LNM 85, 1969);
`factor_in_class` finds a member with a given factor.  Neither lists it,
and `class_factors` keeps a word's trace order as bit sets of positions,
so that a placement's convexity is one AND.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Callable
from functools import lru_cache

Word = tuple[int, ...]
Pairs = frozenset[tuple[int, int]]
Dep = dict[int, frozenset[int]]


@lru_cache(maxsize=256)
def _dependent(letters: frozenset[int], independent: Pairs) -> Dep:
    """Each letter mapped to the letters it depends on, itself too; cached,
    as every word's normal form and trace order need it."""
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


def _reach(w: Word, dep: Dep, order: range) -> list[int]:
    """For each position k, the bit set of k and of the positions a chain of
    dependent letters reaches from k in `order`: k's bit and the sets of
    the nearest dependent occurrences."""
    out = [0] * len(w)
    near: dict[int, int] = {}
    for k in order:
        out[k] = 1 << k
        for b in dep[w[k]]:
            if b in near:
                out[k] |= out[near[b]]
        near[w[k]] = k
    return out


def class_factors(w: Word, independent: Pairs) -> Callable[[Word], tuple[Word, Word] | None]:
    """`lambda lhs: factor_in_class(w, lhs, independent)`, with w's trace
    order built once: `up[k]` and `down[k]` are the bit sets of k and the
    positions above, respectively below, it; `at[a]` lists a's positions
    and `deps[a]` is the bit set of the positions of letters a depends on."""
    dep = _dependent(frozenset(w), independent)
    up = _reach(w, dep, range(len(w) - 1, -1, -1))
    down = _reach(w, dep, range(len(w)))
    at: dict[int, list[int]] = {}
    for k, a in enumerate(w):
        at.setdefault(a, []).append(k)
    deps = {a: sum(1 << k for b in dep[a] for k in at[b]) for a in at}

    def factor(lhs: Word) -> tuple[Word, Word] | None:
        if not lhs:
            return w, ()
        # depth first over the placements; each level holds the candidates
        # for its letter and the chosen, above and below masks before it
        todo = [iter(at.get(lhs[0], ()))]
        masks = [(0, 0, 0)]
        while todo:
            p = next(todo[-1], None)
            if p is None:
                todo.pop(), masks.pop()
                continue
            mask, above, below = masks[-1]
            mask, above, below = mask | 1 << p, above | up[p], below | down[p]
            if len(todo) < len(lhs):
                a = lhs[len(todo)]
                ps = at.get(a, [])
                # past the last chosen position of a letter a depends on,
                # only the first a: a later one would leave it in between
                floor = (mask & deps.get(a, 0)).bit_length() - 1
                if floor >= 0:
                    k = bisect_right(ps, floor)
                    ps = ps[k : k + 1]
                todo.append(iter(ps))
                masks.append((mask, above, below))
            elif not above & below & ~mask:
                u = tuple(a for k, a in enumerate(w) if not above >> k & 1)
                return u, tuple(a for k, a in enumerate(w) if (above & ~mask) >> k & 1)
        return None

    return factor


def factor_in_class(w: Word, lhs: Word, independent: Pairs) -> tuple[Word, Word] | None:
    """(u, v) with u + lhs + v in w's class, or None when no member of the
    class has lhs as a factor.

    A placement spells lhs letter by letter, each after the positions
    chosen for the earlier letters of lhs it depends on (then only the
    first such occurrence), so its subword is in lhs's class.  It is
    accepted when its position set is convex in the trace order: no other
    position is both above and below it, one AND of the bit sets that
    `class_factors` builds.  Then u is the positions not above the set
    and v those above it, each in word order.
    """
    return class_factors(w, independent)(lhs)
