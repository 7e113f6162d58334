"""Semi-normal forms, attractors and word equality.

A word is *semi-normal* when every word reachable from it can reach it
back: reduction can wander but never escape.  The *attractor* of a word
is the set of semi-normal words reachable from it.  In the descendant
graph (all words reachable from the start, with one-step edges) the
semi-normal words are exactly the members of sink strongly connected
components; for a confluent, terminating-up-to-loops system there is one
sink component and it is the attractor, a single mutual-reachability
class.  Its lexicographically least member serves as a canonical form,
so two words are congruent iff their canonical forms coincide.

`attractors` reads every start's attractor off one shared descendant
graph, which `srw.words.explore` builds from each start in turn (a
bound on its words that cuts it short raises `Inexact`).  One pass of
Tarjan's algorithm condenses it; as a component is finished after every
component it reaches, the same pass gives it the sink components it
reaches: itself if no edge leaves it, else the union over its edges.
A word is semi-normal iff it lies in its own attractor.

`attractors` keeps one memo per system: each word of each graph it
condensed, with the sink classes that word reaches.  Each entry is exact,
as `_descendant_graph` never returns a truncated graph.  An unbounded
exploration makes a recorded word a leaf without successors, whose
one-word component takes the recorded sinks: its whole closure lay in an
earlier complete graph.  A sink class recorded in part still answers
right: an unrecorded member has an edge to a recorded one, a leaf, so its
component is no sink and the union over its edges is the recorded class.
Bounded queries only write the memo, so their answers and `Inexact`
messages never depend on earlier queries.  The memo holds at most
MEMO_WORDS words over all systems; a graph that would overflow it clears
it first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .words import SrsSystem, Word, explore, successors

__all__ = [
    "Inexact",
    "NotOneClass",
    "AttractorClass",
    "attractors",
    "attractor",
    "canon",
    "words_equal",
]


class Inexact(RuntimeError):
    """The descendant closure was truncated, so the answer is unreliable."""


class NotOneClass(RuntimeError):
    """The descendants settle into more than one mutual-reachability class."""


@dataclass(frozen=True)
class AttractorClass:
    members: frozenset[Word]
    canon: Word


def _descendant_graph(
    starts: Iterable[Word], sys: SrsSystem, max_words: int | None, known: dict
) -> dict[Word, list[Word]]:
    """Each word reachable from some start, with its successors (none for
    a word in `known`); a word past the first `max_words` (the first start
    always fits) is `Inexact`, and the error names the start being
    explored."""
    if max_words is None and not sys.length_nonincreasing():
        raise ValueError(
            "system has lengthening rules: descendant graphs need a bound"
        )
    adj: dict[Word, list[Word]] = {}

    def step(v: Word) -> list[Word]:
        if v in adj:
            return []
        if max_words is not None and adj and len(adj) >= max_words:
            words = "word" if max_words == 1 else "words"
            raise Inexact(
                f"descendant graph of {sys.fmt(start)} truncated at {max_words} {words}"
            )
        adj[v] = [] if v in known else successors(v, sys)
        return adj[v]

    for start in starts:  # `step` names the start it is exploring from
        explore(start, step)
    return adj


def _condense(
    adj: dict[Word, list[Word]], known: dict[Word, frozenset[AttractorClass]]
) -> tuple[dict[Word, int], list[frozenset[AttractorClass]]]:
    """Tarjan's components, iteratively: each word's component id, and
    for each component the sink components it reaches (a word in `known`
    is a leaf that reaches its recorded sinks)."""
    comp: dict[Word, int] = {}
    sinks: list[frozenset[AttractorClass]] = []
    index: dict[Word, int] = {}
    low: dict[Word, int] = {}
    stack: list[Word] = []
    for root in adj:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        work = [(root, iter(adj[root]))]
        while work:
            v, it = work[-1]
            for u in it:
                if u not in index:
                    index[u] = low[u] = len(index)
                    stack.append(u)
                    work.append((u, iter(adj[u])))
                    break
                if u not in comp and index[u] < low[v]:  # u is on the stack
                    low[v] = index[u]
            else:
                work.pop()
                if work and low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
                if low[v] != index[v]:
                    continue
                cid = len(sinks)
                members: set[Word] = set()
                while v not in members:
                    u = stack.pop()
                    comp[u] = cid
                    members.add(u)
                reached = None
                for u in members:
                    for t in adj[u]:
                        c = comp[t]
                        if c != cid and sinks[c] is not reached:
                            reached = sinks[c] if reached is None else reached | sinks[c]
                if reached is None:
                    reached = known.get(v)
                if reached is None:
                    cls = frozenset(members)
                    reached = frozenset((AttractorClass(cls, min(cls)),))
                sinks.append(reached)
    return comp, sinks


# Words the memo holds over all systems.  A word_problem pass of the
# benchmark records about 29,000 (29,201, 28,404 and 29,032 at seeds 1,
# 9020 and 777), so the bound leaves a pass room to spare.
MEMO_WORDS = 65536
_MEMO: dict[SrsSystem, dict[Word, frozenset[AttractorClass]]] = {}


def _record(memo: dict, adj: dict, comp: dict, sinks: list) -> None:
    """Record each word of a condensed graph in `memo`, `_MEMO`'s part for
    its system; a graph larger than MEMO_WORDS is not kept."""
    fresh = [w for w in adj if w not in memo]
    if sum(map(len, _MEMO.values())) + len(fresh) > MEMO_WORDS:
        if len(adj) > MEMO_WORDS:
            return
        for m in _MEMO.values():
            m.clear()
        fresh = adj
    for w in fresh:
        memo[w] = sinks[comp[w]]


def attractors(
    starts: Iterable[Word], sys: SrsSystem, max_words: int | None = None
) -> dict[Word, AttractorClass]:
    """The unique sink class of each start, all read off one shared graph
    of at most `max_words` words.  Raises NotOneClass when reduction can
    settle into two classes below some start (it is not confluent there).
    Only an unbounded call reads the memo; every call that finishes its
    graph records it, NotOneClass or not."""
    starts = tuple(starts)
    memo = _MEMO.setdefault(sys, {})
    known = memo if max_words is None else {}
    adj = _descendant_graph(starts, sys, max_words, known)
    comp, sinks = _condense(adj, known)
    _record(memo, adj, comp, sinks)
    out: dict[Word, AttractorClass] = {}
    for w in starts:
        reached = sinks[comp[w]]
        if len(reached) != 1:
            raise NotOneClass(
                f"{sys.fmt(w)} settles into {len(reached)} distinct classes"
            )
        (out[w],) = reached
    return out


def attractor(w: Word, sys: SrsSystem, max_words: int | None = None) -> AttractorClass:
    """The unique sink class of w's descendant graph: `attractors` of the
    one start w."""
    return attractors((w,), sys, max_words)[w]


def canon(w: Word, sys: SrsSystem, max_words: int | None = None) -> Word:
    """Canonical form: the least member of the attractor."""
    return attractor(w, sys, max_words).canon


def words_equal(u: Word, v: Word, sys: SrsSystem, max_words: int | None = None) -> bool:
    """Congruence test via canonical forms.

    Sound for confluent systems whose reduction admits no infinite
    strictly descending behaviour: congruent words share their attractor.
    """
    return canon(u, sys, max_words) == canon(v, sys, max_words)
