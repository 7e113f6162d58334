"""Words modulo commutations: normal forms and factors of traces.

`independent` is a frozenset of letter pairs, holding (a, b) and (b, a)
together and never (a, a).  Words that differ by swapping adjacent
independent letters form a class, a Mazurkiewicz trace; a position lies
below a later one in the trace order when a chain of pairwise dependent
letters leads from one to the other (Diekert and Rozenberg, *The Book of
Traces*, 1995).  `normal_form` is the class's lex-least word (Anisimov and
Knuth, *Inhomogeneous sorting*, 1979; Cartier and Foata, LNM 85, 1969),
built in one pass: each letter, appended to the normal form so far, moves
left past the run of letters at its end that are independent of it and
stops just before the first letter of that run greater than itself.  The
result is lex-least as it has no factor b u c with c < b, c independent of
b and of u, the mark of the lex-least member (Anisimov and Knuth): the new
letter passed no greater letter, and any other such factor gives one in
the old normal form.  `class_factors` yields every placement of a factor
in the class, from bit sets of the trace order (`trace_order`), without
listing it.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from functools import lru_cache

Word = tuple[int, ...]
Pairs = frozenset[tuple[int, int]]
Placements = Iterator[tuple[Word, Word]]


@lru_cache(maxsize=256)
def _free(independent: Pairs) -> dict[int, frozenset[int]]:
    """Each letter mapped to the letters independent of it; cached, as every
    normal form and trace order needs it."""
    return {a: frozenset(c for b, c in independent if b == a) for a, _ in independent}


def normal_form(w: Word, independent: Pairs) -> Word:
    """The lex-least word of w's commutation class, by insertion."""
    free = _free(independent)
    out: list[int] = []
    for a in w:
        run = free.get(a, ())
        k = j = len(out)
        while j and out[j - 1] in run:
            j -= 1
            if out[j] > a:
                k = j
        out.insert(k, a)
    return tuple(out)


def trace_order(w: Word, independent: Pairs) -> tuple[dict[int, int], dict[int, int], list[int]]:
    """w's trace order as bit sets: `at[a]` is the set of a's positions,
    `deps[a]` that of the positions of the letters a depends on, a's own
    too, and `down[k]` that of k and the positions below it."""
    free = _free(independent)
    at: dict[int, int] = {}
    for k, a in enumerate(w):
        at[a] = at.get(a, 0) | 1 << k
    full = (1 << len(w)) - 1
    deps = {a: full ^ sum([at.get(b, 0) for b in free.get(a, ())]) for a in at}
    down = [0] * len(w)
    for k, a in enumerate(w):
        # each nearest dependent position below k not yet covered adds its set
        d, m = deps[a] & ~(-1 << k), 1 << k
        while d:
            m |= down[d.bit_length() - 1]
            d &= ~m
        down[k] = m
    return at, deps, down


def class_factors(w: Word, independent: Pairs) -> Callable[[Word], Placements]:
    """lhs -> every placement (u, v) of lhs in w's class, u + lhs + v a
    member, from w's `trace_order` built once; none when no class member
    has lhs as a factor.

    A placement spells lhs letter by letter, each after the positions
    chosen for the earlier letters it depends on, and then only at the
    first such occurrence (a later one would leave the first in between).
    It is accepted when its position set is convex in the trace order: no
    other position is above one chosen position and below another.  Then
    u is the positions not above the set and v those above it, in word
    order.  Placements come depth first, candidates in word order; u holds
    each letter's occurrences before the set's, so no (u, v) comes twice.
    """
    at, deps, down = trace_order(w, independent)

    def factor(lhs: Word) -> Placements:
        if not lhs:
            yield w, ()
            return
        # an entry: untried positions for lhs[i - 1], the chosen positions and
        # those below them before it, and i; a letter that depends on a
        # chosen one has one candidate, so it takes no entry
        stack = [(at.get(lhs[0], 0), 0, 0, 1)]
        while stack:
            ps, mask, below, i = stack.pop()
            bit = ps & -ps
            if ps ^ bit:
                stack.append((ps ^ bit, mask, below, i))
            while bit:
                mask, below = mask | bit, below | down[bit.bit_length() - 1]
                if i == len(lhs):
                    # convex unless a position below the set, and after
                    # its first one, lies above some chosen position
                    inner = below & ~mask & -(mask & -mask)
                    while inner and not down[inner.bit_length() - 1] & mask:
                        inner ^= 1 << inner.bit_length() - 1
                    if not inner:
                        u = tuple(a for a, d in zip(w, down) if not d & mask)
                        v = (a for k, a in enumerate(w) if down[k] & mask and not mask >> k & 1)
                        yield u, tuple(v)
                    break
                a, i = lhs[i], i + 1
                floor = (mask & deps.get(a, 0)).bit_length()
                if not floor:
                    stack.append((at.get(a, 0), mask, below, i))
                    break
                bit = at.get(a, 0) >> floor << floor
                bit &= -bit

    return factor

