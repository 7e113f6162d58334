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

The descendant graph is built by `srw.words.explore`, whose step records
each word's successors as its edges; a bound on explored words that cuts
the graph short raises `Inexact`.  `is_seminormal` and `attractor` both
read the sink components (Tarjan's components that no edge leaves).

`attractor_loop_steps` returns every step between members of a word's
attractor: the loops that reduction keeps running around once it has
settled.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .words import RuleInstance, SrsSystem, Word, explore, find_redexes, successors

__all__ = [
    "Inexact",
    "NotOneClass",
    "AttractorClass",
    "is_seminormal",
    "attractor",
    "canon",
    "words_equal",
    "attractor_loop_steps",
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
    w: Word, sys: SrsSystem, max_words: int | None
) -> dict[Word, list[Word]]:
    if max_words is None and not sys.length_nonincreasing():
        raise ValueError(
            "system has lengthening rules: descendant graphs need a bound"
        )
    adj: dict[Word, list[Word]] = {}

    def step(v: Word) -> list[Word]:
        adj[v] = successors(v, sys)
        return adj[v]

    if not explore(w, step, max_words)[1]:
        raise Inexact(f"descendant graph truncated at {max_words} words")
    return adj


def _sccs(adj: dict[Word, list[Word]]) -> list[list[Word]]:
    """Tarjan's strongly connected components, iteratively."""
    index: dict[Word, int] = {}
    low: dict[Word, int] = {}
    onstack: set[Word] = set()
    stack: list[Word] = []
    out: list[list[Word]] = []
    counter = 0
    for root in adj:
        if root in index:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        onstack.add(root)
        work: list[tuple[Word, "object"]] = [(root, iter(adj[root]))]
        while work:
            v, it = work[-1]
            advanced = False
            for u in it:
                if u not in index:
                    index[u] = low[u] = counter
                    counter += 1
                    stack.append(u)
                    onstack.add(u)
                    work.append((u, iter(adj[u])))
                    advanced = True
                    break
                if u in onstack:
                    low[v] = min(low[v], index[u])
            if advanced:
                continue
            work.pop()
            if work:
                pv = work[-1][0]
                low[pv] = min(low[pv], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    u = stack.pop()
                    onstack.discard(u)
                    comp.append(u)
                    if u == v:
                        break
                out.append(comp)
    return out


def _sink_components(adj: dict[Word, list[Word]]) -> list[set[Word]]:
    """The strongly connected components that no edge leaves."""
    comps = [set(comp) for comp in _sccs(adj)]
    return [c for c in comps if all(t in c for v in c for t in adj[v])]


def is_seminormal(w: Word, sys: SrsSystem, max_words: int | None = None) -> bool:
    """Whether every descendant of w can reach w back."""
    adj = _descendant_graph(w, sys, max_words)
    return any(w in c for c in _sink_components(adj))


@lru_cache(maxsize=None)
def _attractor_cached(w: Word, sys: SrsSystem, max_words: int | None) -> AttractorClass:
    adj = _descendant_graph(w, sys, max_words)
    sinks = _sink_components(adj)
    if len(sinks) != 1:
        raise NotOneClass(
            f"{sys.fmt(w)} settles into {len(sinks)} distinct classes"
        )
    members = frozenset(sinks[0])
    return AttractorClass(members=members, canon=min(members))


def attractor(w: Word, sys: SrsSystem, max_words: int | None = None) -> AttractorClass:
    """The unique sink class of w's descendant graph.

    Raises NotOneClass when reduction can settle into two different
    classes (the system is not confluent below w).
    """
    return _attractor_cached(w, sys, max_words)


def canon(w: Word, sys: SrsSystem, max_words: int | None = None) -> Word:
    """Canonical form: the least member of the attractor."""
    return attractor(w, sys, max_words).canon


def words_equal(u: Word, v: Word, sys: SrsSystem, max_words: int | None = None) -> bool:
    """Congruence test via canonical forms.

    Sound for confluent systems whose reduction admits no infinite
    strictly descending behaviour: congruent words share their attractor.
    """
    return canon(u, sys, max_words) == canon(v, sys, max_words)


def attractor_loop_steps(
    w: Word, sys: SrsSystem, max_words: int | None = None
) -> frozenset[RuleInstance]:
    """All steps between members of w's attractor class."""
    cls = attractor(w, sys, max_words).members
    steps: set[RuleInstance] = set()
    for m in cls:
        for inst in find_redexes(m, sys):
            if inst.target not in cls:  # pragma: no cover - sink classes are closed
                raise NotOneClass("attractor class is not closed under steps")
            steps.add(inst)
    return frozenset(steps)
