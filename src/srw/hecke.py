"""Rewriting systems for the 0-Hecke monoids and their coherence data.

The 0-Hecke monoid on n generators is presented by idempotence
T_i T_i = T_i, braiding T_{i+1} T_i T_{i+1} = T_i T_{i+1} T_i and
commutation T_s T_t = T_t T_s for |s - t| >= 2.  Three rewriting systems
are provided:

- rprime: idempotence shortens (a-rules), the basic braid rules rewrite
  the descending side to the other (b-rules), and commutations are
  oriented descending-to-ascending only (forward c-rules);
- rdoubleprime: rprime plus the ascending-to-descending commutations
  (inverse c-rules), which makes the system confluent;
- rfull: rdoubleprime with the braid family closed under overlaps: for
  every j > i a rule turns j (j-1) ... i j into (j-1) j (j-1) ... i.

Rule naming: a1, a2, ...; b2, b3, ... for the basic braids of the first
two variants; b21, b31, b32, ... for the full braid family; c31, c13,
... for commutations (the source pair read off the name).  Ranks above
nine separate indices with underscores.

`hecke_order` is the well-founded monomial preorder of instances that
makes all the natural and chosen critical diagrams decreasing.  Keys:
braid instances outrank commutations outrank idempotence; a non-basic
braid instance is first rewritten to its basic rule with the skipped
descending letters moved into the right context; within a family the
order refines by context statistics (total length for idempotence,
letters >= j on the left and <= i on the right for a forward
commutation c_{ji}, letter counts of the surrounding context for basic
braids); ascending commutations with the same source compare equal.

`chosen_critical_ed_tagged` returns, for every critical pair of rfull, a
curated elementary diagram that the order makes decreasing, with its
family name and whether it was transposed.  `cells_P` is the finite
family of parallel path pairs over rdoubleprime that generates all loops.
Each curated diagram and member is written as a peak word plus, step by
step, the position where a rule rewrites the current word (a run of
commutations is given by the word it reaches).

The coherence item searches each diagram class modulo commutations.
Both sides of the class's curated diagram are translated to rdoubleprime
by `translate_to_basic`, which peels each long braid b(j, i), j - i >= 2,
into c(i, j) past its foot and then b(j, i+1), until only basic braids
are left.  `srw.diagrams.paths_equivalent_mod_cells`, given rdoubleprime's
commutations, then looks for a chain of whiskered `cells_P` members and
natural squares between the two sides' skeletons, the paths with their
commutation steps read away.  The loop, ac, bc and cc members have one
skeleton on both sides and drop out of the search; they carry its
premises (A) and (B).  The commutation item checks (A), and the tests
check (B) by the same search with no commutations.  Every class is
derivable at ranks 2 to 8.

`verify_suite` machine-checks the whole setup in five items, each with
its status, detail and seconds, and folds the statuses into one verdict:
FAIL over UNKNOWN over PASS.  A diagram class is one unordered critical
pair with its curated diagram, in the orientation met first; the classes
are built once per system, and the criticals, commutation and coherence
items and `certified` share them.  The criticals item checks each class
once through `srw.order.check_decreasing`, as decreasingness is
transpose-invariant, and the natural squares go through
`srw.order.check_naturals`, the checks that `srw check-decreasing` runs.
`_instance_key` is additive in that module's sense, so the keys of one
square per ordered rule pair cover every separator and outer whisker.  The
two other measures the suite uses are additive as well, so their items
check rules, not words, and each PASS holds for every word:

- inversions: a forward commutation s t -> t s, s > t, removes exactly
  one inversion in any context, since a letter outside the redex keeps
  its order against both letters of it.  So the forward commutations
  terminate.
- `srw.seminormal._measure`, the length and then the count of each
  letter from n down to 1, compared lexicographically: a context adds the
  same vector to both sides of a step.  An interchange (a rule
  s t -> t s, s != t, told from its words) keeps it, and idempotence and
  braids lower it.  A word of an attractor class reaches back every word
  it reaches, and no step raises the measure, so no step inside the class
  lowers it: every loop of every attractor class is made of interchanges.

`certified(n)` is the confluence certificate that the naturals and
criticals items make of rank-n rfull, computed once per rank and
process.  `decide_equal` answers the word problem from it: one descent
(`srw.seminormal.descend`) proves two words equal on any system that has
one; distinct descents in certified rfull prove them different on every
system whose rules are rfull rules (rprime, rdoubleprime, rfull under any
order), as such a system's congruence lies inside rfull's; elsewhere the
attractors decide, and distinct attractors that certified rfull joins
leave the answer `Undecided`, bounded or not.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import product

from .critical import CriticalPair, enumerate_critical_pairs
from .diagrams import (
    CellFamily,
    ElementaryDiagram,
    PathVerdict,
    paths_equivalent_mod_cells,
    transpose_ed,
)
from .order import InstanceOrder, check_decreasing, check_naturals
from .seminormal import NoDescent, NotOneClass, descend, measure_split, sink_forms, words_equal
from .words import Path, Rule, RuleInstance, SourceMismatch, SrsSystem, Word

__all__ = [
    "InvalidRank",
    "CapExceeded",
    "UnclassifiedPair",
    "VARIANTS",
    "hecke_system",
    "classify_rule",
    "hecke_order",
    "c_sort_path",
    "chosen_critical_ed_tagged",
    "hecke_provider",
    "cells_P",
    "translate_to_basic",
    "enumerate_monoid",
    "VerifyItem",
    "VerifyReport",
    "verify_suite",
    "Undecided",
    "is_rfull",
    "certified",
    "decide_equal",
]


class InvalidRank(ValueError):
    """The requested number of generators is not a positive integer."""


class CapExceeded(ValueError):
    """Enumeration refused: the rank exceeds the safety cap."""


class UnclassifiedPair(ValueError):
    """A critical pair did not match any curated diagram family."""


def _D(x: int, y: int) -> Word:
    """The descending interval x, x-1, ..., y (empty when x < y)."""
    return tuple(range(x, y - 1, -1)) if x >= y else ()


def _nm(prefix: str, n: int, *idx: int) -> str:
    sep = "" if n <= 9 else "_"
    return prefix + sep.join(str(i) for i in idx)


VARIANTS = ("rprime", "rdoubleprime", "rfull")


def hecke_system(n: int, variant: str = "rdoubleprime") -> SrsSystem:
    """One of the three 0-Hecke rewriting systems on n generators, built
    once per (n, variant): equal calls return one object, so the caches
    keyed on a system find it by identity, without comparing rules."""
    if not isinstance(n, int) or n < 1:
        raise InvalidRank(f"rank must be a positive integer, got {n!r}")
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    return _hecke_system(n, variant)


@lru_cache(maxsize=None)
def _hecke_system(n: int, variant: str) -> SrsSystem:
    rules: list[Rule] = []
    for i in range(1, n + 1):
        rules.append(Rule(_nm("a", n, i), (i, i), (i,)))
    if variant == "rfull":
        for j in range(2, n + 1):
            for i in range(1, j):
                rules.append(
                    Rule(
                        _nm("b", n, j, i),
                        _D(j, i) + (j,),
                        (j - 1, j) + _D(j - 1, i),
                    )
                )
    else:
        for j in range(2, n + 1):
            rules.append(Rule(_nm("b", n, j), (j, j - 1, j), (j - 1, j, j - 1)))
    for s in range(1, n + 1):
        for t in range(1, n + 1):
            if s >= t + 2:
                rules.append(Rule(_nm("c", n, s, t), (s, t), (t, s)))
    if variant != "rprime":
        for s in range(1, n + 1):
            for t in range(1, n + 1):
                if s <= t - 2:
                    rules.append(Rule(_nm("c", n, s, t), (s, t), (t, s)))
    return SrsSystem(n=n, rules=tuple(rules), order=hecke_order())


@lru_cache(maxsize=None)
def classify_rule(rule: Rule) -> tuple:
    """Recognize a rule's family from its shape, independent of its name.

    Returns ("a", i), ("b", j, i), ("cf", s, t) with s > t for a forward
    commutation, or ("ci", s, t) with s < t for an inverse one.  Memoised:
    the instance order asks for the kind of a rule on every comparison.
    """
    lhs, rhs = rule.lhs, rule.rhs
    if len(lhs) == 2 and lhs[0] == lhs[1] and rhs == (lhs[0],):
        return ("a", lhs[0])
    if len(lhs) == 2 and len(rhs) == 2 and rhs == (lhs[1], lhs[0]):
        s, t = lhs
        if s >= t + 2:
            return ("cf", s, t)
        if s <= t - 2:
            return ("ci", s, t)
    if len(lhs) >= 3 and lhs[-1] == lhs[0]:
        j = lhs[0]
        i = lhs[-2]
        if lhs == _D(j, i) + (j,) and rhs == (j - 1, j) + _D(j - 1, i) and j > i >= 1:
            return ("b", j, i)
    raise ValueError(f"rule {rule.name} ({rule.lhs}->{rule.rhs}) is not Hecke-shaped")


def _instance_key(inst: RuleInstance) -> tuple:
    """The sort key of `hecke_order`: instances compare by their keys.

    The key is (head, stats), and it is additive: the head depends on the
    rule only, and stats is a rule constant plus one vector per context
    letter that depends only on the rule, the letter and its side.  Per
    kind: the source length for idempotence; letters >= s on the left
    and <= t on the right for c_{st}; nothing for an inverse commutation;
    the letter counts of left + D + right for a braid.  So
    `srw.order.check_naturals` checks each pair of rules once.
    """
    kind = classify_rule(inst.rule)
    u, v = inst.left, inst.right
    if kind[0] == "a":
        return ((0, 0, 0, 0), (len(inst.source),))
    if kind[0] == "cf":
        s, t = kind[1], kind[2]
        return (
            (1, 0, s, t),
            (sum(1 for g in u if g >= s), sum(1 for g in v if g <= t)),
        )
    if kind[0] == "ci":
        return ((1, 1, kind[1], kind[2]), ())
    j, i = kind[1], kind[2]
    ctx = u + _D(j - 2, i) + v  # rewrite to the basic braid rule b_{j,j-1}
    return ((2, 0, j, 0), tuple(map(ctx.count, range(j, 0, -1))))


def hecke_order() -> InstanceOrder:
    return InstanceOrder(name="hecke", key=_instance_key)


class _HeckeRules:
    """Shape-indexed access to the rules of `sys`, built once per system
    by `_hecke_rules`."""

    def __init__(self, sys: SrsSystem):
        self.sys = sys
        self._by_kind = {classify_rule(r): r for r in sys.rules}

    def a(self, i: int) -> Rule:
        return self._by_kind[("a", i)]

    def b(self, j: int, i: int) -> Rule:
        return self._by_kind[("b", j, i)]

    def c(self, s: int, t: int) -> Rule:
        key = ("cf", s, t) if s > t else ("ci", s, t)
        return self._by_kind[key]

    def of(self, rule: Rule) -> Rule:
        """This system's rule of the same shape as `rule`."""
        return self._by_kind[classify_rule(rule)]


@lru_cache(maxsize=16)
def _hecke_rules(sys: SrsSystem) -> _HeckeRules:
    return _HeckeRules(sys)


class NotCSortable(ValueError):
    """The words are not connected by commutations alone."""


def c_sort_path(start: Word, target: Word, sys: SrsSystem) -> Path:
    """The deterministic commutation path from start to target.

    Greedy leftmost selection: bring target's letters into place one
    position at a time by adjacent swaps of letters at distance >= 2.
    Equal letters never commute past each other, so the leftmost
    matching occurrence is the only possible choice; when the two words
    are commutation-equivalent the greedy strategy always succeeds.
    """
    if sorted(start) != sorted(target):
        raise NotCSortable(f"{start} and {target} differ as multisets")
    H = _hecke_rules(sys)
    cur = list(start)
    steps: list[RuleInstance] = []
    for pos in range(len(target)):
        want = target[pos]
        try:
            q = cur.index(want, pos)
        except ValueError:
            raise NotCSortable(f"letter {want} unavailable at position {pos}")
        while q > pos:
            x, y = cur[q - 1], cur[q]
            if abs(x - y) < 2:
                raise NotCSortable(
                    f"stuck moving {want} left past {x} in {tuple(cur)}"
                )
            steps.append(RuleInstance(tuple(cur[: q - 1]), H.c(x, y), tuple(cur[q + 1 :])))
            cur[q - 1], cur[q] = y, x
            q -= 1
    return Path(start, tuple(steps))


# --- curated critical diagrams over rfull ----------------------------------


def _at(word: Word, pos: int, rule: Rule) -> RuleInstance:
    """The step that rewrites the occurrence of `rule.lhs` at `pos` in `word`."""
    end = pos + len(rule.lhs)
    if word[pos:end] != rule.lhs:
        raise SourceMismatch(f"{rule.name} does not apply at {pos} in {word}")
    return RuleInstance(word[:pos], rule, word[end:])


def _walk(start: Word, moves, H: _HeckeRules) -> Path:
    """The path from `start` that makes each move in turn: a (pos, rule)
    pair rewrites the current word at pos, a word is reached by
    `c_sort_path`."""
    steps: list[RuleInstance] = []
    cur = start
    for move in moves:
        if isinstance(move[-1], Rule):
            steps.append(_at(cur, *move))
            cur = steps[-1].target
        else:
            steps.extend(c_sort_path(cur, move, H.sys).steps)
            cur = move
    return Path(start, tuple(steps))


def _square(peak: Word, top, left, right, bottom, H: _HeckeRules) -> ElementaryDiagram:
    """The diagram on `peak` with (pos, rule) steps `top` and `left`, whose
    right and bottom sides walk their moves from the top's and the left's
    targets."""
    t, l = _at(peak, *top), _at(peak, *left)
    return ElementaryDiagram(
        top=t, left=l, right=_walk(t.target, right, H), bottom=_walk(l.target, bottom, H)
    )


def _aa_cell(k: int, H: _HeckeRules) -> ElementaryDiagram:
    a = H.a(k)
    return _square((k, k, k), (1, a), (0, a), [(0, a)], [(0, a)], H)


def _aB_cell(k: int, j: int, H: _HeckeRules) -> ElementaryDiagram:
    """Idempotence at the left end of a braid source: peak k · (k...jk)."""
    kp = k - 1
    return _square(
        (k,) + _D(k, j) + (k,), (1, H.b(k, j)), (0, H.a(k)),
        [(0, H.b(k, kp)), (2, H.a(kp))],
        [(0, H.b(k, j))],
        H,
    )


def _Ba_cell(k: int, j: int, H: _HeckeRules) -> ElementaryDiagram:
    """Idempotence at the right end of a braid source: peak (k...jk) · k."""
    return _square(
        _D(k, j) + (k, k), (k - j + 1, H.a(k)), (0, H.b(k, j)),
        [(0, H.b(k, j))],
        [(1, H.b(k, j)), (0, H.a(k - 1))],
        H,
    )


def _bB_cell(k: int, i: int, H: _HeckeRules) -> ElementaryDiagram:
    """Basic braid overlapping a braid: peak (k k' k) · (k'...i k)."""
    kp = k - 1
    b, bi, a = H.b(k, kp), H.b(k, i), H.a(kp)
    return _square(
        (k, kp) + _D(k, i) + (k,), (2, bi), (0, b),
        [(1, a), (0, b), (2, a)],
        [(2, a), (1, bi), (0, a)],
        H,
    )


def _BB_cell(k: int, j: int, i: int, H: _HeckeRules) -> ElementaryDiagram:
    """Long braid overlapping a braid: peak (k...jk) · (k'...ik), j <= k-2."""
    kp, kpp = k - 1, k - 2
    S = _D(k - 3, j) + _D(kpp, i)
    b, bp = H.b(k, kp), H.b(kp, kpp)
    return _square(
        _D(k, j) + _D(k, i) + (k,), (k - j + 1, H.b(k, i)), (0, H.b(k, j)),
        [
            (k, kp, kpp, kp, k, kp) + S, (1, bp),
            (kpp, k, kp, k, kpp, kp) + S, (1, b), (3, bp),
        ],
        [
            (kp, k, kp, kpp, kp, k) + S, (2, bp),
            (kp, kpp, k, kp, k, kpp) + S, (2, b), (0, bp),
            (kpp, kp, k, kpp, kp, kpp) + S,
        ],
        H,
    )


def _cB_cell(k: int, j: int, i: int, H: _HeckeRules) -> ElementaryDiagram:
    """Commutation then braid: peak k · (j...ij), k >= j+2."""
    b = H.b(j, i)
    return _square(
        (k,) + b.lhs, (1, b), (0, H.c(k, j)),
        [b.rhs + (k,)],
        [_D(j, i) + (k, j), (j - i + 1, H.c(k, j)), (0, b)],
        H,
    )


def _Bc1_cell(k: int, j: int, s: int, H: _HeckeRules) -> ElementaryDiagram:
    """Braid then small commutation: peak (k...jk) · s with s <= j-2."""
    b = H.b(k, j)
    return _square(
        b.lhs + (s,), (k - j + 1, H.c(k, s)), (0, b),
        [(k, s) + _D(k - 1, j) + (k,), (0, H.c(k, s)), (1, b)],
        [(s,) + b.rhs],
        H,
    )


def _Bc2_cell(k: int, j: int, H: _HeckeRules) -> ElementaryDiagram:
    """Braid absorbing the commutation below its foot: peak (k...jk) · (j-1)."""
    return _square(
        _D(k, j) + (k, j - 1), (k - j + 1, H.c(k, j - 1)), (0, H.b(k, j)),
        [(0, H.b(k, j - 1))],
        [],
        H,
    )


def _Bc3_cell(k: int, j: int, H: _HeckeRules) -> ElementaryDiagram:
    """Braid meeting the commutation of its own foot letter: peak (k...jk) · j."""
    return _square(
        _D(k, j) + (k, j), (k - j + 1, H.c(k, j)), (0, H.b(k, j)),
        [(k - j, H.a(j)), (0, H.b(k, j))],
        [(k - j + 1, H.a(j))],
        H,
    )


def _Bc4_cell(k: int, j: int, s: int, H: _HeckeRules) -> ElementaryDiagram:
    """Braid then mid-range commutation: peak (k...jk) · s, j < s <= k-2."""
    bsj = H.b(s, j)
    return _square(
        _D(k, j) + (k, s), (k - j + 1, H.c(k, s)), (0, H.b(k, j)),
        [_D(k, s + 1) + (k,) + bsj.lhs, (k - s + 1, bsj), (0, H.b(k, s + 1))],
        [(k - s + 1, bsj)],
        H,
    )


def _cc_cell(k: int, j: int, i: int, H: _HeckeRules) -> ElementaryDiagram:
    """Two chained commutations: peak k j i with k >= j+2 >= i+4."""
    ckj, cki, cji = H.c(k, j), H.c(k, i), H.c(j, i)
    return _square(
        (k, j, i), (1, cji), (0, ckj), [(0, cki), (1, ckj)], [(1, cki), (0, cji)], H
    )


def _ac_cell(s: int, t: int, H: _HeckeRules) -> ElementaryDiagram:
    """Commutation into idempotence: peak s t t."""
    c, a = H.c(s, t), H.a(t)
    return _square((s, t, t), (1, a), (0, c), [(0, c)], [(1, c), (0, a)], H)


def _ac_mirror_cell(s: int, t: int, H: _HeckeRules) -> ElementaryDiagram:
    """Idempotence into commutation: peak s s t."""
    c, a = H.c(s, t), H.a(s)
    return _square((s, s, t), (0, a), (1, c), [(0, c)], [(0, c), (1, a)], H)


def _undo_cell(inv: RuleInstance, other: RuleInstance, H: _HeckeRules) -> ElementaryDiagram:
    """Any pair touching an inverse commutation: undo it and replay the other."""
    s, t = inv.rule.lhs
    undo = _at(inv.target, len(inv.left), H.c(t, s))
    return ElementaryDiagram(
        top=inv, left=other, right=Path(inv.target, (undo, other)), bottom=Path(other.target)
    )


def _display_cell(
    i1: RuleInstance, i2: RuleInstance, H: _HeckeRules
) -> tuple[ElementaryDiagram, str]:
    """Build the curated diagram for an unordered pair, display-oriented.

    A pair with an inverse commutation gets the undo cell.  In any other
    pair one redex starts the peak and the other ends it, and the family
    follows from the kinds of that prefix and suffix."""
    for inv, other in ((i1, i2), (i2, i1)):
        if classify_rule(inv.rule)[0] == "ci":
            return _undo_cell(inv, other, H), "undo"
    pre, suf = (i1, i2) if not i1.left else (i2, i1)
    match classify_rule(pre.rule), classify_rule(suf.rule):
        case ("a", k), ("a", _):
            return _aa_cell(k, H), "aa"
        case ("a", _), ("b", k, j):
            return _aB_cell(k, j, H), "ab" if j == k - 1 else "aB"
        case ("b", k, j), ("a", _):
            return _Ba_cell(k, j, H), "ba" if j == k - 1 else "Ba"
        case ("b", k, j), ("b", _, i) if j == k - 1:
            return _bB_cell(k, i, H), "bb" if i == k - 1 else "bB"
        case ("b", k, j), ("b", _, i):
            return _BB_cell(k, j, i, H), "BB"
        case ("cf", k, j), ("b", _, i):
            return _cB_cell(k, j, i, H), "bc" if i == j - 1 else "cB"
        case ("b", k, j), ("cf", _, s) if s <= j - 2:
            return _Bc1_cell(k, j, s, H), "Bc1"
        case ("b", k, j), ("cf", _, s) if s == j - 1:
            return _Bc2_cell(k, j, H), "Bc2"
        case ("b", k, j), ("cf", _, s) if s == j:
            return _Bc3_cell(k, j, H), "Bc3"
        case ("b", k, j), ("cf", _, s):
            return _Bc4_cell(k, j, s, H), "Bc4"
        case ("cf", k, j), ("cf", _, i):
            return _cc_cell(k, j, i, H), "cc"
        case ("cf", s, t), ("a", _):
            return _ac_cell(s, t, H), "ac"
        case ("a", _), ("cf", s, t):
            return _ac_mirror_cell(s, t, H), "ac-mirror"
    raise UnclassifiedPair(f"no curated family for rules {i1.rule.name}, {i2.rule.name}")


def chosen_critical_ed_tagged(
    pair: CriticalPair, sys: SrsSystem
) -> tuple[ElementaryDiagram, str, bool]:
    """Curated diagram for a critical pair: (diagram, family, transposed).

    The diagram always carries pair.first as its top step; the flag says
    whether the curated display had to be transposed to achieve that.
    """
    if pair.kind != "overlap":
        raise UnclassifiedPair(f"unexpected {pair.kind} pair at {pair.peak}")
    H = _hecke_rules(sys)
    ed, name = _display_cell(pair.first, pair.second, H)
    if ed.top == pair.first and ed.left == pair.second:
        return ed, name, False
    if ed.top == pair.second and ed.left == pair.first:
        return transpose_ed(ed), name, True
    raise UnclassifiedPair(
        f"curated {name} diagram does not match the pair at {pair.peak}"
    )


def hecke_provider(sys: SrsSystem):
    """The curated family as a critical-pair chooser for the tiler."""

    def choose(pair: CriticalPair):
        ed, _, transposed = chosen_critical_ed_tagged(pair, sys)
        return ed, transposed

    return choose


# --- the coherence cell family over rdoubleprime ---------------------------


def _sides(ed: ElementaryDiagram) -> tuple[Path, Path]:
    """(top then right, left then bottom) as parallel composite paths."""
    side1 = Path(ed.top.source, (ed.top,) + ed.right.steps)
    side2 = Path(ed.left.source, (ed.left,) + ed.bottom.steps)
    return side1, side2


def _tz_member(k: int, H: _HeckeRules) -> tuple[Path, Path]:
    """The hexagon-like pair relating the two braid routes on k+1 k k-1 k+1 k k+1."""
    kp, kh = k - 1, k + 1
    b, bp, c, ci = H.b(kh, k), H.b(k, kp), H.c(kh, kp), H.c(kp, kh)
    start = (kh, k, kp, kh, k, kh)
    return (
        _walk(start, [(3, b), (1, bp), (0, c), (3, ci), (1, b), (3, bp), (2, c)], H),
        _walk(start, [(2, ci), (0, b), (2, bp), (1, c), (4, ci), (2, b), (0, bp)], H),
    )


def _bc_member(s: int, t: int, H: _HeckeRules) -> tuple[Path, Path]:
    """Commutation walking through a basic braid: peak t s s-1 s."""
    sp = s - 1
    b, cs, csp = H.b(s, sp), H.c(t, s), H.c(t, sp)
    start = (t, s, sp, s)
    return (
        _walk(start, [(1, b), (0, csp), (1, cs), (2, csp)], H),
        _walk(start, [(0, cs), (1, csp), (2, cs), (0, b)], H),
    )


def cells_P(n: int) -> CellFamily:
    """The finite generating family of parallel path pairs over rdoubleprime."""
    H = _hecke_rules(hecke_system(n, "rdoubleprime"))
    members: list[tuple[Path, Path]] = []
    labels: list[str] = []

    def add(label: str, pair: tuple[Path, Path]) -> None:
        members.append(pair)
        labels.append(label)

    for s in range(1, n + 1):
        for t in range(1, n + 1):
            if abs(s - t) >= 2:
                loop = _walk((s, t), [(0, H.c(s, t)), (0, H.c(t, s))], H)
                add(f"loop({s},{t})", (loop, Path((s, t))))
    for k in range(1, n + 1):
        add(f"aa({k})", _sides(_aa_cell(k, H)))
    for k in range(2, n + 1):
        add(f"ba({k})", _sides(_Ba_cell(k, k - 1, H)))
        add(f"ab({k})", _sides(_aB_cell(k, k - 1, H)))
        add(f"bb({k})", _sides(_bB_cell(k, k - 1, H)))
    for s in range(1, n + 1):
        for t in range(1, n + 1):
            if abs(s - t) >= 2:
                add(f"ac({s},{t})", _sides(_ac_cell(s, t, H)))
    for s in range(2, n + 1):
        for t in range(1, n + 1):
            if abs(s - t) >= 2 and abs(s - 1 - t) >= 2:
                add(f"bc({s},{t})", _bc_member(s, t, H))
    for k in range(1, n + 1):
        for j in range(1, n + 1):
            for i in range(1, n + 1):
                if k >= j + 2 and j >= i + 2:
                    add(f"cc({k},{j},{i})", _sides(_cc_cell(k, j, i, H)))
    for k in range(2, n):
        add(f"zz({k})", _tz_member(k, H))
    return CellFamily(name=f"P({n})", members=tuple(members), labels=tuple(labels))


def translate_to_basic(path: Path, target: SrsSystem) -> Path:
    """Rewrite an rfull path into the rdoubleprime presentation `target`:
    peel each long braid b(j, i) one level, c(i, j) past its foot and then
    b(j, i+1) with i moved into the right context, until it is basic."""
    H = _hecke_rules(target)
    out: list[RuleInstance] = []
    for st in path.steps:
        kind, right = classify_rule(st.rule), st.right
        if kind[0] != "b":
            out.append(RuleInstance(st.left, H.of(st.rule), right))
            continue
        j, i = kind[1:]
        for foot in range(i, j - 1):
            out.append(RuleInstance(st.left + _D(j, foot + 1), H.c(foot, j), right))
            right = (foot,) + right
        out.append(RuleInstance(st.left, H.b(j, j - 1), right))
    return Path(path.start, tuple(out))


# --- enumeration ------------------------------------------------------------


def hecke_canon(w: Word, sys: SrsSystem, _memo: dict | None = None) -> Word:
    """Canonical form of one word in a Hecke system with paired
    commutations: the descent of `srw.seminormal.descend`, which takes
    each class's normal form and rewrites the first placement of the first
    idempotence or braid rule until none is left.  `_memo` maps the normal
    forms met along the way to the result.  It stays as the one-word entry
    point that the tests and the benchmark's tracer name.

    Raises ValueError when some commutation lacks its inverse (rprime
    from rank 3 on): commutation classes are then not the attractors,
    and distinct irreducible words may present one element.
    """
    return descend(w, sys, _memo)


def enumerate_monoid(
    n: int, variant: str = "rdoubleprime", cap: int = 6
) -> list[Word]:
    """All monoid elements as canonical words in shortlex order: the
    system's `srw.seminormal.sink_forms`, no word descended.  The cap guards
    against listing a monoid with tens of thousands of elements by accident.
    Raises ValueError where `hecke_canon` does (rprime from rank 3 on).
    """
    if n > cap:
        raise CapExceeded(f"rank {n} exceeds the enumeration cap {cap}")
    return list(sink_forms(hecke_system(n, variant)))


# --- the verification suite -------------------------------------------------


@dataclass(frozen=True)
class VerifyItem:
    name: str
    status: str  # PASS | FAIL | UNKNOWN
    detail: str
    seconds: float = 0.0


@dataclass(frozen=True)
class VerifyReport:
    n: int
    items: tuple[VerifyItem, ...]

    @property
    def verdict(self) -> str:
        """FAIL if any item failed, else UNKNOWN if any is undecided, else PASS."""
        for status in ("FAIL", "UNKNOWN"):
            if any(item.status == status for item in self.items):
                return status
        return "PASS"

    @property
    def ok(self) -> bool:
        return self.verdict == "PASS"


def _verify_naturals(sys: SrsSystem) -> VerifyItem:
    """Every natural square r1 · w · r2, for every separator w and outer
    whisker, from one w = () square per ordered rule pair (transposes by
    symmetry)."""
    name = "natural-diagrams-decreasing"
    rep = check_naturals(sys.order, product(sys.rules, repeat=2))
    if rep.failures:
        (r1, r2), why = rep.failures[0]
        return VerifyItem(name, "FAIL", f"{r1.name}|-|{r2.name}: {why}")
    scope = f"{rep.margin} sides by the context margin, {rep.head} by the head"
    if rep.ties:
        ties = ",".join(f"{r1.name}|{r2.name}" for (r1, r2), _ in rep.ties)
        return VerifyItem(
            name, "UNKNOWN", f"{len(rep.ties)} sides tie on the head: {ties}; {scope}"
        )
    detail = f"{rep.checked} rule pairs decreasing for every separator and whisker ({scope})"
    return VerifyItem(name, "PASS", detail)


@lru_cache(maxsize=16)
def _diagram_classes(sys: SrsSystem) -> tuple[tuple[CriticalPair, ElementaryDiagram, str], ...]:
    """Each diagram class of `sys`: one unordered critical pair, in the
    orientation met first, with its curated diagram and family.  Built once
    per system; the criticals, commutation and coherence items and
    `certified` read it."""
    chosen: dict[frozenset, tuple[CriticalPair, ElementaryDiagram, str]] = {}
    for pair in enumerate_critical_pairs(sys):
        key = frozenset((pair.first, pair.second))
        if key not in chosen:
            chosen[key] = (pair,) + chosen_critical_ed_tagged(pair, sys)[:2]
    return tuple(chosen.values())


def _verify_criticals(sys: SrsSystem) -> VerifyItem:
    """Each diagram class checked once: decreasingness is transpose-invariant
    (`srw.order`), so its diagram and the transpose close both orders of the
    pair, which `enumerate_critical_pairs` both lists."""
    classes = _diagram_classes(sys)
    rep = check_decreasing(sys.order, (((name, pair), ed) for pair, ed, name in classes))
    if not rep.ok:
        (name, pair), why = rep.failures[0]
        return VerifyItem(
            "critical-pairs-covered",
            "FAIL",
            f"{name} diagram for {pair.render(sys.n)} not decreasing: {why}",
        )
    families = Counter(name for _, _, name in classes)
    fam = ",".join(f"{k}:{2 * v}" for k, v in sorted(families.items()))
    return VerifyItem(
        "critical-pairs-covered",
        "PASS",
        f"{2 * rep.checked} ordered pairs covered by decreasing diagrams ({fam})",
    )


def _verify_c_subsystem(sys: SrsSystem) -> VerifyItem:
    """The forward commutations terminate, and each of their critical
    pairs closes by its cc diagram of forward commutations: premise (A) of
    the coherence search, by Squier's theorem.  `classify_rule` calls a
    rule "cf" only when it is s t -> t s with s > t + 1: that shape removes
    exactly one inversion in every context (module docstring), and two such
    rules meet only in an overlap, which `_display_cell` names "cc".  So
    the cc diagram classes are the forward critical pairs, each class both
    orders of one, and only their steps need a check."""
    name = "commutation-subsystem"
    forward = {r for r in sys.rules if classify_rule(r)[0] == "cf"}
    cc = [(pair, ed) for pair, ed, family in _diagram_classes(sys) if family == "cc"]
    for pair, ed in cc:
        if not {st.rule for st in (ed.top, ed.left, *ed.right.steps, *ed.bottom.steps)} <= forward:
            return VerifyItem(
                name,
                "UNKNOWN",
                f"cc diagram for critical pair {pair.render(sys.n)} "
                "has a step that is not a forward commutation",
            )
    return VerifyItem(
        name,
        "PASS",
        f"terminating (each of {len(forward)} rules removes one inversion in every "
        f"context), {2 * len(cc)} critical pairs all cc-shaped and joinable",
    )


def _verify_attractor_loops(sys: SrsSystem) -> VerifyItem:
    """Every loop of every attractor class is made of interchanges, from
    one check per rule, `srw.seminormal.measure_split`: interchanges keep
    the measure and every other rule must lower it (module docstring).  A
    rule that does not is named, and the item is UNKNOWN: the measure
    cannot decide it."""
    name = "attractor-loops-are-commutations"
    swaps, _, open_ = measure_split(sys)
    scale = "(length, count of each letter, largest first)"
    if open_:
        return VerifyItem(
            name,
            "UNKNOWN",
            f"rules {','.join(r.name for r in open_)} neither swap two letters "
            f"nor lower the measure {scale}",
        )
    return VerifyItem(
        name,
        "PASS",
        f"{len(swaps)} interchanges keep the measure {scale} and {len(sys.rules) - len(swaps)} "
        "other rules lower it, so every loop step is a commutation, for every word",
    )


def _coherence_classes(sys: SrsSystem) -> list[tuple[str, tuple[Path, Path]]]:
    """Each diagram class of `sys` as its label, family@peak, and the two
    sides of its curated diagram."""
    return [(f"{name}@{sys.fmt(pair.peak)}", _sides(ed)) for pair, ed, name in _diagram_classes(sys)]


def _verify_coherence(sys: SrsSystem, bound: int) -> VerifyItem:
    """Each class's sides, translated to rdoubleprime, searched against
    `cells_P` modulo commutations (`srw.diagrams.paths_equivalent_mod_cells`).
    A class whose search runs dry is not derivable by positive moves, which
    does not refute coherence: the item is then UNKNOWN, as when the bound
    cuts a search."""
    rdp = hecke_system(sys.n, "rdoubleprime")
    family, ind = cells_P(sys.n), frozenset(r.lhs for r in measure_split(rdp)[0])
    verdicts = []
    for label, sides in _coherence_classes(sys):
        p, q = (translate_to_basic(side, rdp) for side in sides)
        verdicts.append((label, paths_equivalent_mod_cells(p, q, family, bound, independent=ind)))
    exhausted = [label for label, v in verdicts if v is PathVerdict.EXHAUSTED]
    unknown = [label for label, v in verdicts if v is PathVerdict.UNKNOWN]
    derivable = len(verdicts) - len(exhausted) - len(unknown)
    detail = f"{derivable}/{len(verdicts)} diagram classes derivable from the base family"
    if exhausted:
        detail += f"; not derivable by positive moves: {','.join(exhausted)}"
    if unknown:
        detail += f"; unknown: {','.join(unknown)}"
    return VerifyItem("coherence", "PASS" if derivable == len(verdicts) else "UNKNOWN", detail)


def verify_suite(n: int, coherence_bound: int = 100000) -> VerifyReport:
    """Run the five machine checks for the rank-n Hecke systems, timing each.
    `coherence_bound` is the number of neighbours that each class's
    coherence search may generate."""
    sys = hecke_system(n, "rfull")
    checks = (
        lambda: _verify_naturals(sys),
        lambda: _verify_criticals(sys),
        lambda: _verify_c_subsystem(sys),
        lambda: _verify_attractor_loops(sys),
        lambda: _verify_coherence(sys, coherence_bound),
    )
    items = []
    for check in checks:
        t0 = time.perf_counter()
        item = check()
        items.append(replace(item, seconds=time.perf_counter() - t0))
    return VerifyReport(n=n, items=tuple(items))


# --- the word problem, certified --------------------------------------------


class Undecided(RuntimeError):
    """No certificate backs an answer, so the words may or may not be equal."""


def is_rfull(sys: SrsSystem) -> bool:
    """Whether the rules are those of `hecke_system(sys.n, "rfull")`."""
    n = sys.n
    # a-, b- and c-rules of rfull; counted first, so a large alphabet with
    # few rules never builds the quadratically many rfull rules.
    if len(sys.rules) != n + n * (n - 1) // 2 + (n - 1) * (n - 2):
        return False
    return set(sys.rules) == set(hecke_system(n, "rfull").rules)


@lru_cache(maxsize=None)
def certified(n: int) -> bool:
    """Whether rank-n rfull under the hecke order carries a confluence
    certificate: the naturals and criticals items of `verify_suite(n)`
    both PASS.  Then every local peak, natural or critical, closes by a
    diagram that the well-founded hecke order makes decreasing, and the
    system is confluent (van Oostrom, TCS 126, 1994).  Computed once per
    rank and process; keyed by the rank, as a system's order takes no part
    in its equality."""
    sys = hecke_system(n, "rfull")
    return _verify_naturals(sys).status == "PASS" and _verify_criticals(sys).status == "PASS"


@lru_cache(maxsize=16)
def _rfull_letters(sys: SrsSystem) -> int | None:
    """The largest letter of the rules when each is a rule of rfull
    (`classify_rule` knows its shape), else None."""
    try:
        for r in sys.rules:
            classify_rule(r)
    except ValueError:
        return None
    return max(g for r in sys.rules for g in r.lhs + r.rhs)


def _apart(u: Word, v: Word, sys: SrsSystem) -> bool | None:
    """Whether certified rfull tells u and v apart, or None where it does
    not apply: rank-m rfull, m the largest letter of u, v and the rules,
    when each rule is one of its rules and `certified(m)`.  Derivations
    from u and v use no other letters, so sys's congruence on them lies
    inside that rfull's, and distinct descents there prove u and v
    different in sys too."""
    m = _rfull_letters(sys)
    if m is None:
        return None
    m = max((m, *u, *v))
    if not certified(m):
        return None
    full = hecke_system(m, "rfull")
    return descend(u, full) != descend(v, full)


def decide_equal(u: Word, v: Word, sys: SrsSystem, max_words: int | None = None) -> bool:
    """Whether u and v present one element, where some certificate backs
    the answer:

    - "equal" when the system has a descent (`srw.seminormal.descend`)
      and u and v descend to one class: sound on every system;
    - "different" when certified rfull tells them apart (`_apart`): on
      rfull itself under any order, and on rprime and rdoubleprime;
    - else the attractors of `srw.seminormal.words_equal`.  A shared one
      proves "equal".  Distinct ones prove nothing without confluence:
      where certified rfull holds the rules and joins u and v, the answer
      is Undecided, and on any other system it is "different" as ever.

    Under `max_words` the attractors, each graph within that bound, answer
    first.  Either way, where the attractors differ, `_apart` is asked
    whether their "different" stands; unbounded, that second call reads
    the descent memo and the cached certificate.

    Raises NotOneClass, Inexact and ValueError on lengthening rules, as
    `words_equal` does."""
    if max_words is None:
        try:
            if descend(u, sys) == descend(v, sys):
                return True
        except NoDescent:
            pass
        if _apart(u, v, sys):
            return False
    if words_equal(u, v, sys, max_words):
        return True
    if _apart(u, v, sys) is not False:
        return False
    raise Undecided(
        f"{sys.fmt(u)} and {sys.fmt(v)} settle into distinct classes, which proves "
        "nothing without a confluence certificate, and certified rfull, whose "
        "rules include this system's, gives them one canonical form"
    )
