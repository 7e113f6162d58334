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

`attractors` condenses one of two graphs in the one pass that discovers
it, and the system alone picks it: a system that `_premises` admits
takes the quotient by interchanges, every other system the word graph.
A bound counts the nodes of the graph taken.  A sink class is named by
its canon; its members, the words reachable from the canon (a sink class
is closed under rewriting), are listed only when read.

The quotient route.  An *interchange* is a rule s t -> t s with s != t;
`measure_split` sorts the other rules by `_measure`, the length and then
the count of each letter from n down to 1, compared lexicographically.
A context adds the same vector to both sides of a step, so the measure
of a step is that of its rule.  `_premises` admits a system when

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
and one edge per distinct target class.  A start reaches the sinks that
its class reaches.

The descent.  `descend` follows one path of the quotient graph instead
of building it: from a class's normal form it takes the first placement
that `traces.class_factors` yields of the first lowering rule, in rule
order, that has one, to the next class's normal form, and stops at a
class where no lowering rule has a placement, a sink class.  Each step
lowers `_measure`, and words of one length have finitely many measures,
so the chain ends.  Its steps are interchanges and rule steps of the
system, so a word is congruent to its descent, and two words with one
descent are congruent on every system the route admits.  The converse
needs confluence.  On a confluent system a word reaches one sink class
only: two that it reaches have a common reduct, and a sink class
reaches only itself.  Congruent words have a common reduct
(Church-Rosser), and each reaches that reduct's sink class; so they
descend to one class.  Distinct descents therefore prove two words
different only with a confluence certificate, which `srw.hecke.certified`
gives rfull by decreasing diagrams (van Oostrom, *Confluence by
decreasing diagrams*, TCS 126, 1994).  Each normal form of a chain is
memoised with the chain's end.

The graphs.  One depth-first pass of Tarjan's algorithm both discovers
a descendant graph and condenses it into its strongly connected
components (Tarjan, *Depth-first search and linear graph algorithms*,
SIAM J. Comput. 1, 1972).  It searches from each start in turn, or from
each start's class normal form, and lists a node's successors when it
first meets the node; a bound on the nodes that cuts it short raises
`Inexact` naming the start being searched from.  As a component is
finished after every component it reaches, the same pass gives it the
sink components it reaches: itself if no edge leaves it, else the union
over its edges.  On the quotient every component is one node.  A word is
semi-normal iff it lies in its own attractor.

`attractors` keeps one memo per system: each node of each graph it
condensed, a word or a class normal form as the system's route has it,
with the sink classes it reaches.  Each entry is exact, as no truncated
graph is recorded.  An unbounded exploration makes a recorded word
a leaf without successors, whose one-word component takes the recorded
sinks: its whole closure lay in an earlier complete graph.  A sink class
recorded in part still answers right: an unrecorded member has an edge to
a recorded one, a leaf, so its component is no sink and the union over
its edges is the recorded class.  Bounded queries only write the memo, so
their answers and `Inexact` messages never depend on earlier queries.
The attractor memo and the descent memo hold at most MEMO_WORDS entries
together, over all systems, and `_room` alone keeps them so: a graph or
chain that would overflow them clears both first.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Callable, Collection, Iterable, Iterator

from .traces import Pairs, class_factors, normal_form
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
    "NoDescent",
    "descend",
]


class Inexact(RuntimeError):
    """The descendant closure was truncated, so the answer is unreliable."""


class NotOneClass(RuntimeError):
    """The descendants settle into more than one mutual-reachability class."""


@dataclass(frozen=True)
class AttractorClass:
    """A sink class of `sys`, named by its canon, its lex-least member;
    equality and hashing read the canon alone.  `members` lists the class
    when first read: the words reachable from the canon, as a sink class
    is closed under rewriting."""

    canon: Word
    sys: SrsSystem = field(compare=False, repr=False)

    @cached_property
    def members(self) -> frozenset[Word]:
        return frozenset(explore(self.canon, lambda v: successors(v, self.sys))[0])


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


class NoDescent(ValueError):
    """The system fails the quotient route's premises, so it has no descent."""


@lru_cache(maxsize=16)
def _premises(sys: SrsSystem) -> tuple[Pairs, tuple[Rule, ...]] | None:
    """The independent letter pairs and the lowering rules of a system
    that meets the quotient route's three premises (module docstring),
    else None."""
    swaps, lower, rest = measure_split(sys)
    independent = frozenset(r.lhs for r in swaps)
    if rest or any(r.lhs[::-1] not in independent for r in swaps):
        return None
    if any(not set(r.rhs) <= set(r.lhs) for r in lower):
        return None
    return independent, lower


def _condense(
    nodes: dict[Word, Word],
    sys: SrsSystem,
    max_words: int | None,
    known: dict[Word, frozenset[AttractorClass]],
    step: Callable[[Word], Collection[Word]],
) -> tuple[dict[Word, int], list[frozenset[AttractorClass]]]:
    """Tarjan's components, iteratively, of the graph reachable from each
    start's node in `nodes`, in the pass that discovers it: a node's
    successors by `step` are listed when the search first meets it (a node
    in `known` is a leaf that reaches its recorded sinks).  Returns each
    node's component id, and for each component the sink components it
    reaches; a sink component is named by its least node.  A node past the
    first `max_words` (the first start's node always fits) is `Inexact`,
    and the error names the start being searched from."""
    if max_words is None and not sys.length_nonincreasing():
        raise ValueError(
            "system has lengthening rules: descendant graphs need a bound"
        )
    comp: dict[Word, int] = {}
    sinks: list[frozenset[AttractorClass]] = []
    index: dict[Word, int] = {}
    low: dict[Word, int] = {}
    succ: dict[Word, Collection[Word]] = {}
    stack: list[Word] = []
    work: list[tuple[Word, Iterator[Word]]] = []

    def meet(v: Word) -> None:
        if max_words is not None and index and len(index) >= max_words:
            words = "word" if max_words == 1 else "words"
            raise Inexact(
                f"descendant graph of {sys.fmt(start)} truncated at {max_words} {words}"
            )
        index[v] = low[v] = len(index)
        stack.append(v)
        succ[v] = () if v in known else step(v)
        work.append((v, iter(succ[v])))

    for start, root in nodes.items():  # `meet` names the start it is searching from
        if root not in index:
            meet(root)
        while work:
            v, it = work[-1]
            for u in it:
                if u not in index:
                    meet(u)
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
                    for t in succ[u]:
                        c = comp[t]
                        if c != cid and sinks[c] is not reached:
                            reached = sinks[c] if reached is None else reached | sinks[c]
                if reached is None:
                    reached = known.get(v)
                if reached is None:
                    reached = frozenset((AttractorClass(min(members), sys),))
                sinks.append(reached)
    return comp, sinks


# Entries the memos hold over all systems, attractors' and descents'
# together.  A word_problem pass of the benchmark records about 3,700
# (2,305 descents and 1,390 rprime words at seed 3101; about 6,100 class
# normal forms when every query took the graph route, and about 29,000 on
# the word graph alone), so the bound leaves a pass room to spare.
MEMO_WORDS = 65536
_MEMO: dict[SrsSystem, dict[Word, frozenset[AttractorClass]]] = {}
_DESCENTS: dict[SrsSystem, dict[Word, Word]] = {}


def _room(fresh: int, total: int) -> bool:
    """Whether the memos can take `total` entries, `fresh` of them new:
    as they are, if they stay within MEMO_WORDS, else after both are
    cleared.  More than MEMO_WORDS entries clear nothing and are not kept."""
    held = sum(map(len, _MEMO.values())) + sum(map(len, _DESCENTS.values()))
    if held + fresh > MEMO_WORDS:
        if total > MEMO_WORDS:
            return False
        for m in (*_MEMO.values(), *_DESCENTS.values()):
            m.clear()
    return True


def attractors(
    starts: Iterable[Word], sys: SrsSystem, max_words: int | None = None
) -> dict[Word, AttractorClass]:
    """The unique sink class of each start, all read off one shared graph
    of at most `max_words` nodes: the quotient graph when `_premises`
    admits the system, its nodes class normal forms and its edges the
    lowering steps at every placement of every rule, else the word graph.
    Raises NotOneClass when reduction can settle into two classes below
    some start (it is not confluent there).  Only an unbounded call reads
    the memo; every call that finishes its graph records it, NotOneClass
    or not."""
    memo = _MEMO.setdefault(sys, {})
    known = memo if max_words is None else {}
    premises = _premises(sys)
    if premises is None:
        key, step = (lambda w: w), (lambda v: successors(v, sys))
    else:
        independent, lower = premises

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

    keys = {w: key(w) for w in starts}
    comp, sinks = _condense(keys, sys, max_words, known, step)
    if _room(sum(w not in memo for w in comp), len(comp)):
        for w, c in comp.items():
            memo[w] = sinks[c]
    out: dict[Word, AttractorClass] = {}
    for w, k in keys.items():
        reached = sinks[comp[k]]
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


def descend(w: Word, sys: SrsSystem, memo: dict[Word, Word] | None = None) -> Word:
    """The normal form of the sink class that w's first-placement chain
    reaches (module docstring): from each class normal form, the first
    placement of the first lowering rule, in rule order, that has one.
    `memo` maps each normal form met on a chain to the chain's end; by
    default it is the system's part of `_DESCENTS`, under MEMO_WORDS.
    Raises NoDescent when the system fails the quotient route's premises."""
    premises = _premises(sys)
    if premises is None:
        raise NoDescent(
            "descent needs every interchange paired with its inverse and the "
            "other rules lowering the measure within their left-hand letters"
        )
    independent, lower = premises
    shared = memo is None
    if memo is None:
        memo = _DESCENTS.setdefault(sys, {})
    chain: list[Word] = []
    key = normal_form(w, independent)
    while key not in memo:
        chain.append(key)
        factor = class_factors(key, independent)
        for r in lower:
            hit = next(factor(r.lhs), None)
            if hit is not None:
                key = normal_form(hit[0] + r.rhs + hit[1], independent)
                break
        else:
            result = key
            break
    else:
        result = memo[key]
    if shared and not _room(len(chain), len(chain)):
        return result
    for k in chain:
        memo[k] = result
    return result
