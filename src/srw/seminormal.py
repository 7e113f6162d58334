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

`attractors` condenses one of two graphs, with one explorer and one
condensation pass.  An unbounded query on a system that `_quotient`
admits takes the quotient by interchanges; every other query takes the
word graph.

The quotient route.  An *interchange* is a rule s t -> t s with s != t;
`measure_split` sorts the other rules by `_measure`, the length and then
the count of each letter from n down to 1, compared lexicographically.
A context adds the same vector to both sides of a step, so the measure
of a step is that of its rule.  `_quotient` admits a system when

- every interchange s t -> t s has its inverse t s -> s t as a rule;
- every other rule strictly lowers `_measure`;
- every other rule's right-hand side uses only letters of its left-hand
  side.

Then each strongly connected component of the word graph is one
interchange class, a trace over the swapped letter pairs (`srw.traces`).
Interchanges keep the measure and every other step lowers it, so a cycle
has no other step: a component lies inside one class.  Each interchange
step is undone by its inverse rule, so a class is strongly connected:
the class is the component.  Modulo the classes the graph is a DAG whose
edges lower the measure, and its sinks are the sink components.  An edge
leaves a class wherever some member has a non-interchange rule's lhs as a
factor, which is at a placement that `traces.class_factors` yields from
the class's normal form.  A member x lhs y of one placement differs from
its (u, v) only in which letters off the placement, each independent of
every letter of the lhs, stand left or right of it; by the third premise
they are independent of every letter of the rhs too, so x rhs y and
u rhs v lie in one class.  So the quotient graph has one node per class,
its normal form, which is also its lex-least member and so its `canon`,
and one edge per distinct target class; a class's members are listed
only when it is a sink.  A start reaches the sinks that its class
reaches.

The graphs.  `srw.words.explore` builds one descendant graph from each
start in turn, or from each start's class normal form (a bound on its
words that cuts it short raises `Inexact`).  One pass of Tarjan's
algorithm condenses it; as a component is finished after every
component it reaches, the same pass gives it the sink components it
reaches: itself if no edge leaves it, else the union over its edges.  On
the quotient every component is one node.  A word is semi-normal iff it
lies in its own attractor.

`attractors` keeps one memo per system: each word of each graph it
condensed, or each class normal form that the quotient route met, with
the sink classes it reaches.  Each entry is exact, as neither route
records a truncated graph, and under the premises a word reaches the
sinks of its whole class.  An unbounded exploration makes a recorded word
a leaf without successors, whose one-word component takes the recorded
sinks: its whole closure lay in an earlier complete graph.  A sink class
recorded in part still answers right: an unrecorded member has an edge to
a recorded one, a leaf, so its component is no sink and the union over
its edges is the recorded class.  Bounded queries only write the memo, so
their answers and `Inexact` messages never depend on earlier queries.
The memo holds at most MEMO_WORDS entries over all systems; a graph that
would overflow it clears it first.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Collection, Iterable

from .traces import class_factors, normal_form
from .words import Rule, SrsSystem, Word, explore, successors

__all__ = [
    "Inexact",
    "NotOneClass",
    "AttractorClass",
    "measure_split",
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


def _measure(w: Word, n: int) -> tuple[int, ...]:
    """The length of w, then its count of each letter from n down to 1."""
    return (len(w),) + tuple(w.count(g) for g in range(n, 0, -1))


def measure_split(sys: SrsSystem) -> tuple[tuple[Rule, ...], tuple[Rule, ...], tuple[Rule, ...]]:
    """The rules in three parts, each in rule order: the interchanges
    s t -> t s with s != t, told from their words; the other rules that
    strictly lower `_measure`; and the rest, which do neither."""
    swaps, lower, rest = [], [], []
    for r in sys.rules:
        if len(set(r.lhs)) == len(r.lhs) == 2 and r.rhs == r.lhs[::-1]:
            swaps.append(r)
        elif _measure(r.rhs, sys.n) < _measure(r.lhs, sys.n):
            lower.append(r)
        else:
            rest.append(r)
    return tuple(swaps), tuple(lower), tuple(rest)


_Route = tuple[
    Callable[[Word], Word],
    Callable[[Word], Collection[Word]],
    Callable[[set[Word]], frozenset[Word]],
]


@lru_cache(maxsize=16)
def _quotient(sys: SrsSystem) -> _Route | None:
    """The quotient route for a system that meets its three premises
    (module docstring), else None.  The route's three functions give a
    word's class normal form; the normal forms one non-interchange step
    from a class, at every placement of every rule; and the members of the
    class of a one-node component."""
    swaps, lower, rest = measure_split(sys)
    independent = frozenset(r.lhs for r in swaps)
    if rest or any(r.lhs[::-1] not in independent for r in swaps):
        return None
    if any(not set(r.rhs) <= set(r.lhs) for r in lower):
        return None

    def key(w: Word) -> Word:
        return normal_form(w, independent)

    def step(v: Word) -> set[Word]:
        factor, present = class_factors(v, independent), set(v)
        return {
            key(u + r.rhs + x)
            for r in lower
            if present.issuperset(r.lhs)
            for u, x in factor(r.lhs)
        }

    def swapped(w: Word) -> list[Word]:
        return [
            w[:i] + (b, a) + w[i + 2 :]
            for i, (a, b) in enumerate(zip(w, w[1:]))
            if (a, b) in independent
        ]

    def whole(members: set[Word]) -> frozenset[Word]:
        (v,) = members
        return frozenset(explore(v, swapped)[0])

    return key, step, whole


def _descendant_graph(
    starts: Iterable[Word],
    sys: SrsSystem,
    max_words: int | None,
    known: dict,
    step_from: Callable[[Word], Collection[Word]],
) -> dict[Word, Collection[Word]]:
    """Each word reachable from some start, with its successors by
    `step_from` (none for a word in `known`); a word past the first
    `max_words` (the first start always fits) is `Inexact`, and the error
    names the start being explored."""
    if max_words is None and not sys.length_nonincreasing():
        raise ValueError(
            "system has lengthening rules: descendant graphs need a bound"
        )
    adj: dict[Word, Collection[Word]] = {}

    def step(v: Word) -> Collection[Word]:
        if v in adj:
            return []
        if max_words is not None and adj and len(adj) >= max_words:
            words = "word" if max_words == 1 else "words"
            raise Inexact(
                f"descendant graph of {sys.fmt(start)} truncated at {max_words} {words}"
            )
        adj[v] = () if v in known else step_from(v)
        return adj[v]

    for start in starts:  # `step` names the start it is exploring from
        explore(start, step)
    return adj


def _condense(
    adj: dict[Word, Collection[Word]],
    known: dict[Word, frozenset[AttractorClass]],
    whole: Callable[[set[Word]], frozenset[Word]],
) -> tuple[dict[Word, int], list[frozenset[AttractorClass]]]:
    """Tarjan's components, iteratively: each word's component id, and
    for each component the sink components it reaches (a word in `known`
    is a leaf that reaches its recorded sinks).  A sink component's class
    is `whole` of its words."""
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
                    cls = whole(members)
                    reached = frozenset((AttractorClass(cls, min(cls)),))
                sinks.append(reached)
    return comp, sinks


# Words the memo holds over all systems.  A word_problem pass of the
# benchmark records about 6,100 (6,097, 6,120 and 6,139 at seeds 1, 9020
# and 777; about 29,000 on the word graph alone), so the bound leaves a
# pass room to spare.
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
    """The unique sink class of each start, all read off one shared graph:
    the quotient graph when the call is unbounded and `_quotient` admits
    the system, else the word graph of at most `max_words` words.  Raises
    NotOneClass when reduction can settle into two classes below some
    start (it is not confluent there).  Only an unbounded call reads the
    memo; every call that finishes its graph records it, NotOneClass or
    not."""
    starts = tuple(starts)
    memo = _MEMO.setdefault(sys, {})
    known = memo if max_words is None else {}
    quotient = _quotient(sys) if max_words is None else None
    if quotient is None:
        key, step, whole = (lambda w: w), (lambda v: successors(v, sys)), frozenset
    else:
        key, step, whole = quotient
    keys = {w: key(w) for w in starts}
    adj = _descendant_graph(keys.values(), sys, max_words, known, step)
    comp, sinks = _condense(adj, known, whole)
    _record(memo, adj, comp, sinks)
    out: dict[Word, AttractorClass] = {}
    for w in starts:
        reached = sinks[comp[keys[w]]]
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
