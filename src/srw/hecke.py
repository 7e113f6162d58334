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

The coherence search runs over a mixed alphabet: the rdoubleprime rules
plus rfull's long braids b(j, i), j - i >= 2.  `definitions` holds one
member per long braid: the step against its one-level peel, c(i, j) past
the foot then b(j, i+1).  A class has only its widest braids peeled one
level.  This is a Tietze transformation (Gaussent, Guiraud and Malbos,
Compositio 151, 2015, section 2): `translate_to_basic` maps both sides of
each definition to one rdoubleprime path, fixes `cells_P` and commutes
with whiskers and disjoint swaps, so a derivation found over the mixed
alphabet translates to one modulo `cells_P`.

`verify_suite` machine-checks the whole setup in five items, each with
its status, detail and seconds, and folds the statuses into one verdict:
FAIL over UNKNOWN over PASS.  The chosen critical diagrams go through
`srw.order.check_decreasing` and the natural squares through
`srw.order.check_naturals`, the checks that `srw check-decreasing` runs.
`_instance_key` is additive in that module's sense, so one square per
ordered rule pair covers every separator and every outer whisker.  The
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
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from functools import lru_cache

from .critical import CriticalPair, enumerate_critical_pairs, local_confluence_report
from .diagrams import (
    CellFamily,
    ElementaryDiagram,
    PathVerdict,
    natural_squares,
    paths_equivalent_mod_cells,
    transpose_ed,
)
from .order import InstanceOrder, check_decreasing, check_naturals
from .seminormal import measure_split
from .traces import class_factors, normal_form
from .words import Path, Rule, RuleInstance, SourceMismatch, SrsSystem, Word, explore

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
    "definitions",
    "translate_to_basic",
    "enumerate_monoid",
    "VerifyItem",
    "VerifyReport",
    "verify_suite",
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
    counts = tuple(sum(1 for g in ctx if g == m) for m in range(j, 0, -1))
    return ((2, 0, j, 0), counts)


def hecke_order() -> InstanceOrder:
    return InstanceOrder(name="hecke", key=_instance_key)


class _HeckeRules:
    """Shape-indexed access to a system's rules, built once per system by
    `_hecke_rules`.

    Besides the rules by kind it holds `descent_rules`: the idempotence
    and braid rules in name order, `independent`: the letter pairs (s, t)
    that some commutation rule rewrites s t to t s, and `paired`: whether
    every commutation's inverse is a rule as well, which makes
    `independent` symmetric.  `sys` is the system indexed.
    """

    def __init__(self, sys: SrsSystem):
        self.sys = sys
        self._by_kind = {classify_rule(r): r for r in sys.rules}
        swaps = {k[1:] for k in self._by_kind if k[0] in ("cf", "ci")}
        rest = (r for r in sys.rules if classify_rule(r)[0] not in ("cf", "ci"))
        self.independent = frozenset(swaps)
        self.descent_rules = tuple(sorted(rest, key=lambda r: r.name))
        self.paired = all((t, s) in swaps for s, t in swaps)

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


def _width(rule: Rule) -> int:
    """The letters j - i + 1 that a braid b(j, i) spans; 0 for other rules."""
    kind = classify_rule(rule)
    return kind[1] - kind[2] + 1 if kind[0] == "b" else 0


def _mixed_rules(rdp: SrsSystem) -> _HeckeRules:
    """The coherence search's alphabet: `rdp`'s rules plus rfull's long
    braids b(j, i), j - i >= 2.  rfull's b(j, j-1) is read as rdp's b(j)."""
    wide = tuple(r for r in hecke_system(rdp.n, "rfull").rules if _width(r) >= 3)
    return _hecke_rules(SrsSystem(rdp.n, rdp.rules + wide))


def _peel(path: Path, M: _HeckeRules, width: int) -> Path:
    """`path` over M's rules, each braid b(j, i) that spans `width` >= 3
    letters peeled one level by its definition: c(i, j) past the foot,
    then b(j, i+1) with i moved into the right context."""
    out: list[RuleInstance] = []
    for st in path.steps:
        if width > 2 and _width(st.rule) == width:
            j, i = classify_rule(st.rule)[1:]
            out.append(RuleInstance(st.left + _D(j, i + 1), M.c(i, j), st.right))
            out.append(RuleInstance(st.left, M.b(j, i + 1), (i,) + st.right))
        else:
            out.append(RuleInstance(st.left, M.of(st.rule), st.right))
    return Path(path.start, tuple(out))


def definitions(n: int) -> CellFamily:
    """One member per long braid b(j, i), j - i >= 2, in (j, i) order: on
    the peak D(j, i)·j, the step b(j, i) against its one-level peel."""
    M = _mixed_rules(hecke_system(n, "rdoubleprime"))
    members: list[tuple[Path, Path]] = []
    labels: list[str] = []
    for j in range(3, n + 1):
        for i in range(1, j - 1):
            step = _walk(_D(j, i) + (j,), [(0, M.b(j, i))], M)
            members.append((step, _peel(step, M, j - i + 1)))
            labels.append(f"def({j},{i})")
    return CellFamily(name=f"D({n})", members=tuple(members), labels=tuple(labels))


def translate_to_basic(path: Path, target: SrsSystem) -> Path:
    """Rewrite an rfull path into the rdoubleprime presentation `target`:
    peel the widest braids one level, then the next width, until no long
    braid is left.  So each `definitions` member translates to one path."""
    M = _mixed_rules(target)
    for width in range(target.n, 1, -1):
        path = _peel(path, M, width)
    return path


# --- enumeration ------------------------------------------------------------


def hecke_canon(w: Word, sys: SrsSystem, _memo: dict | None = None) -> Word:
    """Canonical form in a Hecke system with paired commutations.

    Words modulo the commutation rules are traces (`srw.traces`), and a
    class is named by its lex-least word, its normal form.  A class is the
    attractor iff no idempotence or braid step applies anywhere in it;
    otherwise any such step strictly lowers `_measure`, which commutations
    keep (see the module docstring).  So the loop takes the normal form and
    tries the descents in name order against the class's trace order, built
    once by `class_factors` without listing the class; it rewrites the first
    placement of the first rule that has one, until no descent is left.
    The result is the final class's normal form.
    `_memo` maps the normal forms met along the way to the result.
    Cross-checked against the generic sink-class attractor in the tests.

    Raises ValueError when some commutation lacks its inverse (rprime
    from rank 3 on): commutation classes are then not the attractors,
    and distinct irreducible words may present one element.
    """
    H = _hecke_rules(sys)
    if not H.paired:
        raise ValueError(
            "canonical forms by commutation classes need every commutation "
            "rule paired with its inverse"
        )
    memo: dict[Word, Word] = _memo if _memo is not None else {}
    chain: list[Word] = []
    cur = w
    while True:
        key = normal_form(cur, H.independent)
        if key in memo:
            result = memo[key]
            break
        chain.append(key)
        factor = class_factors(key, H.independent)
        for rule in H.descent_rules:
            hit = next(factor(rule.lhs), None)
            if hit is not None:
                cur = hit[0] + rule.rhs + hit[1]
                break
        else:
            result = key
            break
    for key in chain:
        memo[key] = result
    return result


def enumerate_monoid(
    n: int, variant: str = "rdoubleprime", cap: int = 6
) -> list[Word]:
    """All monoid elements as canonical words, shortlex sorted.

    Breadth-first closure (`srw.words.explore`) of the canonical forms
    under right multiplication by generators; the cap guards against
    accidentally enumerating a monoid with tens of thousands of elements.
    Raises ValueError where `hecke_canon` does (rprime from rank 3 on).
    """
    if n > cap:
        raise CapExceeded(f"rank {n} exceeds the enumeration cap {cap}")
    sys = hecke_system(n, variant)
    memo: dict[Word, Word] = {}
    seen, _ = explore(
        hecke_canon((), sys, memo),
        lambda w: [hecke_canon(w + (g,), sys, memo) for g in range(1, n + 1)],
    )
    return sorted(seen, key=lambda t: (len(t), t))


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
    rep = check_naturals(sys.order, natural_squares(sys))
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


def _verify_criticals(sys: SrsSystem) -> VerifyItem:
    labelled = []
    families: dict[str, int] = {}
    for pair in enumerate_critical_pairs(sys):
        ed, name, _ = chosen_critical_ed_tagged(pair, sys)
        labelled.append(((name, pair), ed))
        families[name] = families.get(name, 0) + 1
    rep = check_decreasing(sys.order, labelled)
    if not rep.ok:
        (name, pair), why = rep.failures[0]
        return VerifyItem(
            "critical-pairs-covered",
            "FAIL",
            f"{name} diagram for {pair.render(sys.n)} not decreasing: {why}",
        )
    fam = ",".join(f"{k}:{v}" for k, v in sorted(families.items()))
    return VerifyItem(
        "critical-pairs-covered",
        "PASS",
        f"{rep.checked} ordered pairs covered by decreasing diagrams ({fam})",
    )


def _verify_c_subsystem(sys: SrsSystem) -> VerifyItem:
    """The forward commutations terminate, and their critical pairs are
    cc-shaped and join.  Only joining needs a check.  `classify_rule` calls
    a rule "cf" only when it is s t -> t s with s > t + 1: that shape
    removes exactly one inversion in every context (module docstring), and
    two such rules, both with two-letter sides, meet only in an overlap,
    which `_display_cell` names "cc"."""
    forward = tuple(r for r in sys.rules if classify_rule(r)[0] == "cf")
    sub = SrsSystem(n=sys.n, rules=forward, order=sys.order)
    rep = local_confluence_report(sub, bound=4)
    if not rep.ok:
        return VerifyItem(
            "commutation-subsystem",
            rep.verdict,
            f"critical pair {(rep.refuted or rep.cut)[0].render(sys.n)} does not join"
            + ("" if rep.refuted else f" within bound {rep.bound}"),
        )
    return VerifyItem(
        "commutation-subsystem",
        "PASS",
        f"terminating (each of {len(forward)} rules removes one inversion in every "
        f"context), {rep.total} critical pairs all cc-shaped and joinable",
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


_FAMILY_RANK = {
    "undo": 0,
    "aa": 1,
    "ac": 2,
    "ac-mirror": 3,
    "ab": 4,
    "ba": 5,
    "bb": 6,
    "bc": 7,
    "cc": 8,
    "aB": 9,
    "Ba": 10,
    "bB": 11,
    "BB": 12,
    "cB": 13,
    "Bc1": 14,
    "Bc2": 15,
    "Bc3": 16,
    "Bc4": 17,
}


def _coherence_sort_key(name: str, pair: CriticalPair) -> tuple:
    k1 = classify_rule(pair.first.rule)
    k2 = classify_rule(pair.second.rule)
    params = tuple(x for k in (k1, k2) for x in k[1:])
    if name in ("aB", "Ba", "Bc1", "bB", "cB"):
        # induct downward on the braid's foot: larger feet first
        foot = min(k[2] for k in (k1, k2) if k[0] == "b")
        return (_FAMILY_RANK[name], -foot, params)
    if name == "BB":
        feet = sorted(k[2] for k in (k1, k2) if k[0] == "b")
        # verify the pairs with the widest second braid first, then by foot
        return (_FAMILY_RANK[name], -feet[1], -feet[0], params)
    return (_FAMILY_RANK[name], 0, params)


def _verify_coherence(sys: SrsSystem, bound: int) -> VerifyItem:
    M = _mixed_rules(hecke_system(sys.n, "rdoubleprime"))
    base, defs = cells_P(sys.n), definitions(sys.n)
    pairs = enumerate_critical_pairs(sys)
    # One curated diagram per unordered pair: the first orientation met.
    chosen: dict[frozenset, tuple[str, CriticalPair, ElementaryDiagram]] = {}
    for pair in pairs:
        key = frozenset((pair.first, pair.second))
        if key not in chosen:
            ed, name, _ = chosen_critical_ed_tagged(pair, sys)
            chosen[key] = (name, pair, ed)
    todo = sorted(
        chosen.values(), key=lambda it: _coherence_sort_key(it[0], it[1])
    )
    family = CellFamily(base.name, base.members + defs.members, base.labels + defs.labels)
    unknown: list[str] = []
    equivalent = 0
    for name, pair, ed in todo:
        sides = tuple(_peel(side, M, 0) for side in _sides(ed))  # width 0: none peeled
        widest = max(_width(st.rule) for side in sides for st in side.steps)
        p, q = (_peel(side, M, widest) for side in sides)
        verdict = paths_equivalent_mod_cells(p, q, family, bound=bound)
        label = f"{name}@{sys.fmt(pair.peak)}"
        if verdict is PathVerdict.EQUIVALENT:
            equivalent += 1
            family = family.extended(sides, label)
        else:
            unknown.append(label)
    status = "PASS" if not unknown else "UNKNOWN"
    detail = f"{equivalent}/{len(todo)} diagram classes derivable from the base family"
    if unknown:
        detail += f"; unknown: {','.join(unknown)}"
    return VerifyItem("coherence", status, detail)


def verify_suite(n: int, coherence_bound: int = 100000) -> VerifyReport:
    """Run the five machine checks for the rank-n Hecke systems, timing each."""
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
