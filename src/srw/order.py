"""Well-founded preorders on rule instances and decreasing diagrams.

An instance order is a sort key: each instance maps to a finite tuple,
a > b when key(a) > key(b) and a ~ b when the keys are equal.  So
equivalence is transitive, and no infinite strictly descending chain
exists (keys live in a finite product of well-ordered sets once a
system is fixed).

An elementary diagram with top step u, left step l, right path
r_1 .. r_m and bottom path d_1 .. d_n is *decreasing* when

  (1) there is j in 0..n with u ~ d_j when j > 0, l > d_k for all k < j,
      and (l > d_k or u > d_k) for all k > j; and
  (2) there is s in 0..m with l ~ r_s when s > 0, u > r_t for all t < s,
      and (u > r_t or l > r_t) for all t > s.

Transposing a diagram swaps the two conditions, so decreasingness is
transpose-invariant.  `is_decreasing_ed` keys each step once per check
and compares the keys.  `check_decreasing` runs the check over a family
of labelled diagrams: the critical diagrams of `srw check-decreasing` and
the diagram classes of `verify_suite` go through it.

`check_naturals` is the one natural-square check of both.  It decides the
natural squares x · r1 · w · r2 · y for every separator w and whisker
x, y from the w = () square of each ordered rule pair (r1, r2), when the
order's key is additive: its first entry, the head, is fixed by the
rule, and the rest is a rule constant plus one term per context letter
that depends only on the rule, the letter and its side.  (`hecke_order`'s
key and both `rule_rank_order` keys are.)  The square has top
u = ((), r1, lhs r2), left l = (lhs r1, r2, ()), right r' = (rhs r1, r2, ())
and bottom d = ((), r1, rhs r2), and is decreasing iff (u >= d or l > d)
and (l >= r' or u > r').  u and d differ only in lhs(r2) against rhs(r2)
in their right context, l and r' only in lhs(r1) against rhs(r1) in
their left one, and lexicographic order on equal-length integer vectors
survives adding one vector to both sides.  So u against d (l against r')
compares the same way for every w, x and y ("margin"), and otherwise a
greater head of the other rule decides the side everywhere ("head").  A
pair with a side left open fails when its w = () square is not
decreasing, which refutes it, and is undecided otherwise.  Each check
reads the four instances' keys and builds no diagram.

`rule_rank_order` builds the simplest useful order: instances compare by
an integer rank attached to their rule's name, with ties either declared
equivalent or broken by total instance length.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping

from .words import Rule, RuleInstance

if TYPE_CHECKING:  # pragma: no cover
    from .diagrams import ElementaryDiagram

__all__ = [
    "InstanceOrder",
    "rule_rank_order",
    "DecreasingWitness",
    "is_decreasing_ed",
    "DecreasingReport",
    "check_decreasing",
    "check_naturals",
]


@dataclass(frozen=True)
class InstanceOrder:
    """A named total preorder on rule instances, given by a sort key."""

    name: str
    key: Callable[[RuleInstance], tuple]

    def greater(self, a: RuleInstance, b: RuleInstance) -> bool:
        return self.key(a) > self.key(b)

    def equivalent(self, a: RuleInstance, b: RuleInstance) -> bool:
        return self.key(a) == self.key(b)


def rule_rank_order(ranks: Mapping[str, int], tie: str = "equivalent") -> InstanceOrder:
    """Compare instances by the rank of their rule.

    Rules missing from `ranks` get rank 0.  Equal ranks are Equivalent
    under tie="equivalent", or compared by total source length under
    tie="length".  Either key is additive: the rank is the head, and the
    source length gains one per context letter.
    """
    if tie == "equivalent":
        def key(a: RuleInstance) -> tuple:
            return (ranks.get(a.rule.name, 0),)
    elif tie == "length":
        def key(a: RuleInstance) -> tuple:
            return (ranks.get(a.rule.name, 0), len(a.source))
    else:
        raise ValueError(f"unknown tie policy {tie!r}")
    return InstanceOrder(name=f"rule-rank/{tie}", key=key)


@dataclass(frozen=True)
class DecreasingWitness:
    """Outcome of the decreasingness check.

    On success, (j, s) are the split indices satisfying the two
    conditions (0 means "no equivalent step on that side").  On failure
    `reason` names the first clause that cannot be satisfied.
    """

    ok: bool
    j: int | None = None
    s: int | None = None
    reason: str | None = None


def _side_split(anchor: tuple, other: tuple, steps: list[tuple]) -> tuple[int | None, str]:
    """Find a split index for one convergence side, from the steps' keys.

    `anchor` is the parallel boundary step (top for the bottom path, left
    for the right path); steps before the split must be dominated by
    `other`, the split step must be equivalent to `anchor`, and steps
    after the split must be dominated by `other` or `anchor`.
    """
    for j in range(len(steps) + 1):
        if j > 0 and anchor != steps[j - 1]:
            continue
        for k, st in enumerate(steps, start=1):
            if k < j and not other > st:
                break
            if k > j and not (other > st or anchor > st):
                break
        else:
            return j, ""
        if j == 0:
            # Tried first, so its blocking step k gives the reason.
            reason = f"step {k} not dominated by either side"
    return None, reason


def _witness(u: tuple, l: tuple, right: list[tuple], bottom: list[tuple]) -> DecreasingWitness:
    """The two decreasingness conditions on keys: u and l of the top and
    left steps, `right` and `bottom` of the two paths' steps."""
    j, why_j = _side_split(u, l, bottom)
    if j is None:
        return DecreasingWitness(ok=False, reason=f"bottom path: {why_j}")
    s, why_s = _side_split(l, u, right)
    if s is None:
        return DecreasingWitness(ok=False, reason=f"right path: {why_s}")
    return DecreasingWitness(ok=True, j=j, s=s)


def is_decreasing_ed(
    order: InstanceOrder, ed: "ElementaryDiagram"
) -> tuple[bool, DecreasingWitness]:
    """Check the two decreasingness conditions for an elementary diagram,
    keying each of its steps once."""
    key = order.key
    right, bottom = ([key(st) for st in p.steps] for p in (ed.right, ed.bottom))
    wit = _witness(key(ed.top), key(ed.left), right, bottom)
    return wit.ok, wit


@dataclass(frozen=True)
class DecreasingReport:
    """The number of diagrams checked and (label, reason) for each one
    that is not decreasing, in input order.  `check_naturals` also counts
    the square sides that the margin and the head decide, and gives
    (label, side) for each side it leaves open: that side's heads tie,
    since a lower head would fail its w = () square."""

    checked: int
    failures: tuple[tuple[Any, str], ...]
    margin: int = 0
    head: int = 0
    ties: tuple[tuple[Any, str], ...] = ()

    @property
    def ok(self) -> bool:
        return not self.failures and not self.ties


def check_decreasing(
    order: InstanceOrder,
    labelled: Iterable[tuple[Any, "ElementaryDiagram | None"]],
) -> DecreasingReport:
    """Check every (label, diagram) pair for decreasingness.

    A diagram of None stands for a peak that no square joins and counts
    as a failure.
    """
    checked = 0
    failures: list[tuple[Any, str]] = []
    for label, ed in labelled:
        checked += 1
        if ed is None:
            failures.append((label, "no joining square"))
            continue
        ok, wit = is_decreasing_ed(order, ed)
        if not ok:
            failures.append((label, wit.reason))
    return DecreasingReport(checked=checked, failures=tuple(failures))


def check_naturals(
    order: InstanceOrder, pairs: Iterable[tuple[Rule, Rule]]
) -> DecreasingReport:
    """Decide every natural square of each ordered rule pair (r1, r2), the
    pair its label, from the keys of its w = () square, under an order
    whose key is additive (see the module docstring).  Only a pair with an
    open side costs a decreasingness check."""
    key = order.key
    checked = margin = head = 0
    ties: list[tuple[Any, str]] = []
    failures: list[tuple[Any, str]] = []
    for r1, r2 in pairs:
        checked += 1
        u, l = key(RuleInstance((), r1, r2.lhs)), key(RuleInstance(r1.lhs, r2, ()))
        r, d = key(RuleInstance(r1.rhs, r2, ())), key(RuleInstance((), r1, r2.rhs))
        sides = []
        for side, same, other, step in (("bottom", u, l, d), ("right", l, u, r)):
            if same >= step:
                margin += 1
            elif other[0] > step[0]:
                head += 1
            else:
                sides.append(((r1, r2), side))
        if sides:
            wit = _witness(u, l, [r], [d])
            if wit.ok:
                ties += sides
            else:
                failures.append(((r1, r2), wit.reason))
    return DecreasingReport(checked, tuple(failures), margin, head, tuple(ties))
