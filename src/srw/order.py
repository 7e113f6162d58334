"""Well-founded preorders on rule instances and decreasing diagrams.

A preorder on rule instances is given by a total comparison returning
Greater, Less or Equivalent.  The orders used here are key-based: each
instance maps to a finite tuple and instances compare by their tuples,
which makes equivalence transitive and rules out infinite strictly
descending chains (keys live in a finite product of well-ordered sets
once a system is fixed).

An elementary diagram with top step u, left step l, right path
r_1 .. r_m and bottom path d_1 .. d_n is *decreasing* when

  (1) there is j in 0..n with u ~ d_j when j > 0, l > d_k for all k < j,
      and (l > d_k or u > d_k) for all k > j; and
  (2) there is s in 0..m with l ~ r_s when s > 0, u > r_t for all t < s,
      and (u > r_t or l > r_t) for all t > s.

A dashed top or left imposes no conditions of its own; the check simply
never lets a missing side dominate anything.  Transposing a diagram
swaps the two conditions, so decreasingness is transpose-invariant.
`check_decreasing` runs the check over a family of labelled diagrams; it
is the one place that family checks (natural squares, chosen critical
diagrams) go through.

`rule_rank_order` builds the simplest useful order: instances compare by
an integer rank attached to their rule's name, with ties either declared
equivalent or broken by total instance length.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping

from .words import RuleInstance

if TYPE_CHECKING:  # pragma: no cover
    from .diagrams import ElementaryDiagram

__all__ = [
    "Verdict",
    "InstanceOrder",
    "rule_rank_order",
    "DecreasingWitness",
    "is_decreasing_ed",
    "DecreasingReport",
    "check_decreasing",
]


class Verdict(Enum):
    GREATER = "greater"
    LESS = "less"
    EQUIVALENT = "equivalent"


@dataclass(frozen=True)
class InstanceOrder:
    """A named total preorder on rule instances."""

    name: str
    compare: Callable[[RuleInstance, RuleInstance], Verdict]

    def greater(self, a: RuleInstance, b: RuleInstance) -> bool:
        return self.compare(a, b) is Verdict.GREATER

    def equivalent(self, a: RuleInstance, b: RuleInstance) -> bool:
        return self.compare(a, b) is Verdict.EQUIVALENT


def rule_rank_order(ranks: Mapping[str, int], tie: str = "equivalent") -> InstanceOrder:
    """Compare instances by the rank of their rule.

    Rules missing from `ranks` get rank 0.  Equal ranks are Equivalent
    under tie="equivalent", or compared by total source length under
    tie="length".
    """
    if tie not in ("equivalent", "length"):
        raise ValueError(f"unknown tie policy {tie!r}")

    def cmp(a: RuleInstance, b: RuleInstance) -> Verdict:
        ra = ranks.get(a.rule.name, 0)
        rb = ranks.get(b.rule.name, 0)
        if ra != rb:
            return Verdict.GREATER if ra > rb else Verdict.LESS
        if tie == "length":
            la, lb = len(a.source), len(b.source)
            if la != lb:
                return Verdict.GREATER if la > lb else Verdict.LESS
        return Verdict.EQUIVALENT

    return InstanceOrder(name=f"rule-rank/{tie}", compare=cmp)


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


def _side_split(
    order: InstanceOrder,
    anchor: RuleInstance | None,
    other: RuleInstance | None,
    steps: tuple[RuleInstance, ...],
) -> tuple[int | None, str]:
    """Find a split index for one convergence side.

    `anchor` is the parallel boundary step (top for the bottom path, left
    for the right path); steps before the split must be dominated by
    `other`, the split step must be equivalent to `anchor`, and steps
    after the split must be dominated by `other` or `anchor`.  A missing
    (dashed) boundary step dominates nothing and is equivalent to
    nothing.
    """

    def gt(a: RuleInstance | None, b: RuleInstance) -> bool:
        return a is not None and order.greater(a, b)

    def sim(a: RuleInstance | None, b: RuleInstance) -> bool:
        return a is not None and order.equivalent(a, b)

    best_block = ""
    for j in range(len(steps) + 1):
        ok = True
        if j > 0 and not sim(anchor, steps[j - 1]):
            continue
        for k, st in enumerate(steps, start=1):
            if k == j:
                continue
            if k < j:
                if not gt(other, st):
                    ok = False
                    block = f"step {k} not dominated by the opposite side"
                    break
            else:
                if not (gt(other, st) or gt(anchor, st)):
                    ok = False
                    block = f"step {k} not dominated by either side"
                    break
        if ok:
            return j, ""
        if not best_block:
            best_block = block
    if not best_block:
        best_block = "no step is equivalent to the parallel side"
    return None, best_block


def is_decreasing_ed(
    order: InstanceOrder, ed: "ElementaryDiagram"
) -> tuple[bool, DecreasingWitness]:
    """Check the two decreasingness conditions for an elementary diagram."""
    u = ed.top
    l = ed.left
    j, why_j = _side_split(order, anchor=u, other=l, steps=tuple(ed.bottom.steps))
    if j is None:
        return False, DecreasingWitness(
            ok=False, reason=f"bottom path: {why_j}"
        )
    s, why_s = _side_split(order, anchor=l, other=u, steps=tuple(ed.right.steps))
    if s is None:
        return False, DecreasingWitness(ok=False, reason=f"right path: {why_s}")
    return True, DecreasingWitness(ok=True, j=j, s=s)


@dataclass(frozen=True)
class DecreasingReport:
    """The number of diagrams checked and (label, reason) for each one
    that is not decreasing, in input order."""

    checked: int
    failures: tuple[tuple[Any, str], ...]

    @property
    def ok(self) -> bool:
        return not self.failures


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
