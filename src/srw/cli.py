"""Command line interface for the string rewriting toolkit.

Systems travel as JSON documents:

    {"generators": 3,
     "rules": [{"name": "a1", "lhs": [1, 1], "rhs": [1]}, ...],
     "order": {"kind": "hecke"}}

The order field is optional; besides "hecke" it accepts
{"kind": "rule-rank", "ranks": {"a1": 0, ...}, "tie": "equivalent"}
("tie" may also be "length").  Words on the command line use the same
syntax as in reports: a digit string for up to nine generators,
dot-separated numbers above that, and "-" for the empty word.  Steps are
written LEFT:RULE:RIGHT, paths as comma-separated steps (or "-"), and
zigzags as semicolon-separated steps each prefixed with ">" (traversed
forward) or "<" (traversed backward).

`check-decreasing` runs the two checks behind `hecke verify`:
`srw.order.check_naturals` on each ordered rule pair, which decides its
natural squares for every separator and whisker, and
`srw.order.check_decreasing` on critical diagrams.  The critical
diagrams, like the tiling commands' cells, come from the curated Hecke
family under the hecke order on the rfull rules, which that family
covers, and from BFS joins otherwise.  Its verdict is FAIL when a natural
square or a curated diagram is not decreasing, but only UNKNOWN when all
failures are BFS joins (another join of the same pair may still be
decreasing) or natural squares whose heads tie.  Each critical failure
line and the `--json` output name the chooser.  `hecke verify --json`
names its `verdict`, as `confluence` and `check-decreasing` do, and
gives each item's seconds.

`normal-form` and `equal` take `--max-words`, a bound on the nodes of
the descendant graph behind each canonical form: commutation classes on
a system that `srw.seminormal` takes modulo interchanges (rdoubleprime,
rfull), words on any other; a graph cut short by it leaves the answer
undecided.  `equal` goes through `srw.hecke.decide_equal`, which answers
"different" on Hecke rules only with certified rfull's backing and
"undecided" where that is missing; under `--max-words` the bounded
graphs answer first.

Exit status: 0 for success or a passing check, 1 for a failing check or
an undecided computation (`hecke verify` exits 1 on UNKNOWN as on FAIL),
2 for unusable input.  The library raises ValueError on unusable input
and RuntimeError on an undecided or out-of-fuel computation; `main` maps
every ValueError (`UsageError` is one) to 2 and every RuntimeError to 1.

Each `cmd_*` builds its answer once and returns it as (exit code, the
`--json` document, the text lines); it writes only notes and undecided
answers to stderr, the same with or without `--json`.  `main` alone
prints to stdout: the document as indented JSON under `--json`, else the
lines.  An undecided answer has no document, so `--json` prints nothing.
`--dot` makes the two tiling commands answer with Graphviz text, which
has no JSON form: `--dot` and `--json` exclude each other (exit 2).

`main` may be called repeatedly in one process: every call shares one
parser, built by the first call, and parses its own arguments afresh.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys as _sysmod
from collections import Counter
from itertools import product
from typing import Any

from .critical import enumerate_critical_pairs, local_confluence_report
from .diagrams import (
    Tiling,
    bfs_join_chooser,
    complete_peak,
    complete_zigzag,
    export_dot,
)
from .hecke import (
    VARIANTS,
    Undecided,
    decide_equal,
    enumerate_monoid,
    hecke_order,
    hecke_provider,
    hecke_system,
    is_rfull,
    verify_suite,
)
from .order import check_decreasing, check_naturals, rule_rank_order
from .seminormal import Inexact, NotOneClass, canon
from .words import (
    BACKWARD,
    FORWARD,
    Path,
    Rule,
    RuleInstance,
    SrsSystem,
    Zigzag,
    find_redexes,
    reach,
    word_from_str,
    word_to_str,
)


class UsageError(ValueError):
    """Unusable input that the CLI's own parsing finds: an unreadable file,
    a bad document, step or zigzag.  The library's ValueErrors cover the rest."""


def system_to_doc(sys: SrsSystem) -> dict[str, Any]:
    doc: dict[str, Any] = {
        "generators": sys.n,
        "rules": [
            {"name": r.name, "lhs": list(r.lhs), "rhs": list(r.rhs)}
            for r in sys.rules
        ],
    }
    if sys.order is not None:
        doc["order"] = {"kind": sys.order.name}
    return doc


def _is_int(x: Any) -> bool:
    """A JSON integer: JSON's true and false load as Python ints."""
    return isinstance(x, int) and not isinstance(x, bool)


def system_from_doc(doc: Any) -> SrsSystem:
    if not isinstance(doc, dict):
        raise UsageError("system document must be a JSON object")
    n = doc.get("generators", doc.get("n"))
    if not _is_int(n) or n < 1:
        raise UsageError("field 'generators' must be a positive integer")
    raw_rules = doc.get("rules")
    if not isinstance(raw_rules, list) or not raw_rules:
        raise UsageError("field 'rules' must be a non-empty list")
    rules = []
    for r in raw_rules:
        try:
            name = r["name"]
            lhs = tuple(r["lhs"])
            rhs = tuple(r["rhs"])
        except (TypeError, KeyError) as exc:
            raise UsageError(f"malformed rule entry {r!r}") from exc
        if not isinstance(name, str) or not name:
            raise UsageError(f"rule name must be a non-empty string, got {name!r}")
        if not all(_is_int(g) for g in lhs + rhs):
            raise UsageError(f"rule {name}: sides must be lists of integers")
        rules.append(Rule(name=name, lhs=lhs, rhs=rhs))
    order = None
    odoc = doc.get("order")
    if odoc is not None:
        if not isinstance(odoc, dict) or "kind" not in odoc:
            raise UsageError("field 'order' must be an object with a 'kind'")
        kind = odoc["kind"]
        if kind == "hecke":
            order = hecke_order()
        elif kind == "rule-rank":
            ranks = odoc.get("ranks")
            if not isinstance(ranks, dict):
                raise UsageError("rule-rank order needs a 'ranks' object")
            names = {r.name for r in rules}
            for name, rank in ranks.items():
                if name not in names:
                    raise UsageError(f"rank for unknown rule {name!r}")
                if not _is_int(rank):
                    raise UsageError(f"rank of rule {name} must be an integer, got {rank!r}")
            tie = odoc.get("tie", "equivalent")
            if tie not in ("equivalent", "length"):
                raise UsageError(f"unknown tie policy {tie!r}")
            order = rule_rank_order(ranks, tie=tie)
        else:
            raise UsageError(f"unknown order kind {kind!r}")
    return SrsSystem(n=n, rules=tuple(rules), order=order)


@functools.lru_cache(maxsize=8)
def _system_from_text(text: str) -> SrsSystem:
    return system_from_doc(json.loads(text))


def load_system(path: str) -> SrsSystem:
    """`system_from_doc` of the file's current text, read on every call; a
    recent text gives back the same system object, a failing one fails again."""
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    try:
        return _system_from_text(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"{path} is not valid JSON: {exc}") from exc


def parse_word(s: str, sys: SrsSystem) -> tuple[int, ...]:
    return word_from_str(s, sys.n)


def parse_step(s: str, sys: SrsSystem) -> RuleInstance:
    parts = s.split(":")
    if len(parts) != 3:
        raise UsageError(f"step {s!r} is not LEFT:RULE:RIGHT")
    left, name, right = parts
    try:
        rule = sys.rule(name)
    except KeyError as exc:
        raise UsageError(f"unknown rule {name!r}") from exc
    return RuleInstance(parse_word(left, sys), rule, parse_word(right, sys))


def parse_path(s: str, sys: SrsSystem) -> Path:
    if s == "-":
        raise UsageError("an empty path needs a start word from elsewhere")
    steps = tuple(parse_step(part, sys) for part in s.split(","))
    return Path(steps[0].source, steps)


def parse_zigzag(s: str, sys: SrsSystem) -> Zigzag:
    legs = []
    for part in s.split(";"):
        if not part or part[0] not in (FORWARD, BACKWARD):
            raise UsageError(f"zigzag leg {part!r} must start with '>' or '<'")
        legs.append((part[0], parse_step(part[1:], sys)))
    d0, s0 = legs[0]
    start = s0.source if d0 == FORWARD else s0.target
    return Zigzag(start, tuple(legs))


def _critical_chooser(sys: SrsSystem):
    """("curated", the curated Hecke diagrams) under the hecke order on rfull,
    the rules they cover; ("bfs", BFS joins) otherwise."""
    if sys.order is not None and sys.order.name == "hecke" and is_rfull(sys):
        return "curated", hecke_provider(sys)
    return "bfs", bfs_join_chooser(sys)


# --- subcommand bodies ------------------------------------------------------

# (exit code, --json document or None, text lines): see the module docstring.
Answer = tuple[int, Any, list[str]]


def cmd_validate(args: argparse.Namespace) -> Answer:
    sys = load_system(args.system)
    doc = {"valid": True, "rules": len(sys.rules), "generators": sys.n}
    return 0, doc, [f"valid: {len(sys.rules)} rules over {sys.n} generators"]


def cmd_redexes(args: argparse.Namespace) -> Answer:
    sys = load_system(args.system)
    w = parse_word(args.word, sys)
    redexes = [i.render(sys.n) for i in find_redexes(w, sys)]
    return 0, {"word": sys.fmt(w), "redexes": redexes}, redexes


def cmd_reach(args: argparse.Namespace) -> Answer:
    sys = load_system(args.system)
    res = reach(parse_word(args.word, sys), sys, max_words=args.max)
    words = [sys.fmt(x) for x in sorted(res.words, key=lambda t: (len(t), t))]
    if not res.complete:
        print(f"(truncated at {args.max} words)", file=_sysmod.stderr)
    return 0, {"complete": res.complete, "count": len(words), "words": words}, words


def cmd_normal_form(args: argparse.Namespace) -> Answer:
    sys = load_system(args.system)
    w = parse_word(args.word, sys)
    try:
        c = sys.fmt(canon(w, sys, args.max_words))
    except (NotOneClass, Inexact) as exc:
        print(f"no canonical form: {exc}", file=_sysmod.stderr)
        return 1, None, []
    return 0, {"word": sys.fmt(w), "normal-form": c}, [c]


def cmd_equal(args: argparse.Namespace) -> Answer:
    sys = load_system(args.system)
    u = parse_word(args.word1, sys)
    v = parse_word(args.word2, sys)
    try:
        eq = decide_equal(u, v, sys, args.max_words)
    except (NotOneClass, Inexact, Undecided) as exc:
        print(f"undecided: {exc}", file=_sysmod.stderr)
        return 1, None, []
    return 0 if eq else 1, {"equal": eq}, ["equal" if eq else "different"]


def cmd_critical_pairs(args: argparse.Namespace) -> Answer:
    sys = load_system(args.system)
    pairs = enumerate_critical_pairs(sys)
    doc = {
        "count": len(pairs),
        "pairs": [
            {
                "kind": p.kind,
                "peak": sys.fmt(p.peak),
                "first": p.first.render(sys.n),
                "second": p.second.render(sys.n),
            }
            for p in pairs
        ],
    }
    return 0, doc, [p.render(sys.n) for p in pairs]


def cmd_confluence(args: argparse.Namespace) -> Answer:
    sys = load_system(args.system)
    rep = local_confluence_report(sys, bound=args.bound)
    failures = [(p, p.render(sys.n)) for p in rep.failures]
    lines = [f"{'undecided' if p in rep.cut else 'unjoinable'}: {r}" for p, r in failures]
    if rep.ok:
        lines.append(f"PASS: {rep.total} critical pairs join (bound {rep.bound})")
    else:
        lines.append(
            f"{rep.verdict}: {len(failures)} of {rep.total} critical pairs "
            f"did not join (bound {rep.bound})"
        )
    doc = {
        "ok": rep.ok,
        "verdict": rep.verdict,
        "bound": rep.bound,
        "pairs": rep.total,
        "failures": [r for _, r in failures],
        "cut": [r for p, r in failures if p in rep.cut],
    }
    return 0 if rep.ok else 1, doc, lines


def cmd_check_decreasing(args: argparse.Namespace) -> Answer:
    sys = load_system(args.system)
    if sys.order is None:
        raise UsageError("check-decreasing needs a system with an order")
    chooser, choose = _critical_chooser(sys)

    def critical_diagrams():
        for pair in enumerate_critical_pairs(sys):
            got = choose(pair)
            yield pair, None if got is None else got[0]

    naturals = check_naturals(sys.order, product(sys.rules, repeat=2))
    criticals = check_decreasing(sys.order, critical_diagrams())
    failures = [
        f"natural {r1.name}|-|{r2.name}: {why}" for (r1, r2), why in naturals.failures
    ] + [
        f"critical {pair.render(sys.n)}: {why} ({chooser} chooser)"
        for pair, why in criticals.failures
    ]
    ties = [
        f"natural {r1.name}|-|{r2.name}: {side} side undecided, the heads tie"
        for (r1, r2), side in naturals.ties
    ]
    # One BFS join that is not decreasing leaves other joins of the pair
    # untried, so it decides nothing; a failing natural square does.
    if not failures and not ties:
        verdict = "PASS"
    elif naturals.failures or (criticals.failures and chooser == "curated"):
        verdict = "FAIL"
    else:
        verdict = "UNKNOWN"
    checked = naturals.checked + criticals.checked
    doc = {
        "ok": verdict == "PASS",
        "verdict": verdict,
        "chooser": chooser,
        "checked": checked,
        "failures": failures + ties,
    }
    summary = f"{verdict}: {checked} diagrams checked, {len(failures)} not decreasing"
    return 0 if verdict == "PASS" else 1, doc, doc["failures"] + [summary]


def _completion(
    args: argparse.Namespace,
    sys: SrsSystem,
    t: Tiling,
    names: tuple[str, str, str],
    common: tuple[int, ...],
    p1: Path,
    p2: Path,
) -> Answer:
    """The tiling commands' answer: the DOT text under --dot, else the
    common word and the two paths to it, under `names`, and the cells."""
    if args.dot:
        if args.json:
            raise UsageError("--dot and --json exclude each other")
        return 0, None, [export_dot(t).removesuffix("\n")]
    values = (sys.fmt(common), p1.render(sys.n), p2.render(sys.n))
    doc: dict[str, Any] = dict(zip(names, values))
    lines = [f"{name} {value}" for name, value in doc.items()] + [f"cells {len(t.cells)}"]
    doc.update(cells=len(t.cells), tags=Counter(rec.tag for rec in t.cells))
    return 0, doc, lines


def cmd_complete_peak(args: argparse.Namespace) -> Answer:
    sys = load_system(args.system)
    if args.top == "-" and args.left == "-":
        raise UsageError("at least one of --top/--left must contain a step")
    top = parse_path(args.top, sys) if args.top != "-" else None
    left = parse_path(args.left, sys) if args.left != "-" else None
    if top is None:
        top = Path(left.start)
    if left is None:
        left = Path(top.start)
    if top.start != left.start:
        raise UsageError("--top and --left must start at the same word")
    t = complete_peak(sys, _critical_chooser(sys)[1], top, left, fuel=args.fuel)
    b = t.boundary()
    return _completion(args, sys, t, ("sink", "right", "bottom"), b.sink, b.from_start, b.from_end)


def cmd_complete_zigzag(args: argparse.Namespace) -> Answer:
    sys = load_system(args.system)
    z = parse_zigzag(args.zigzag, sys)
    comp = complete_zigzag(sys, _critical_chooser(sys)[1], z, fuel=args.fuel)
    names = ("common", "from-start", "from-end")
    return _completion(args, sys, comp.tiling, names, comp.common, comp.from_start, comp.from_end)


def cmd_hecke_gen(args: argparse.Namespace) -> Answer:
    sys = hecke_system(args.rank, args.variant)
    text = json.dumps(system_to_doc(sys), sort_keys=True, indent=2)
    if not args.output:
        return 0, None, [text]
    try:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
    except OSError as exc:
        raise UsageError(f"cannot write {args.output}: {exc}") from exc
    return 0, None, []


def cmd_hecke_enumerate(args: argparse.Namespace) -> Answer:
    elems = enumerate_monoid(args.rank, variant=args.variant, cap=args.cap)
    words = [word_to_str(w, args.rank) for w in elems]
    return 0, {"count": len(words), "elements": words}, [f"count {len(words)}", *words]


def cmd_hecke_verify(args: argparse.Namespace) -> Answer:
    rep = verify_suite(args.rank, coherence_bound=args.coherence_bound)
    doc = {
        "rank": rep.n,
        "verdict": rep.verdict,
        "items": [
            {"name": i.name, "status": i.status, "detail": i.detail, "seconds": i.seconds}
            for i in rep.items
        ],
    }
    lines = [f"{i.name}: {i.status} ({i.detail})" for i in rep.items]
    return 0 if rep.ok else 1, doc, lines + [f"VERDICT: {rep.verdict}"]


# --- parser -----------------------------------------------------------------


def _budget(least: int = 0):
    """An argparse type: an integer budget of at least `least`."""

    def budget(text: str) -> int:
        value = int(text)
        if value < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {value}")
        return value

    return budget


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `srw` parser, built on the first call and shared by later ones:
    building it costs far more than one `parse_args`."""
    ap = argparse.ArgumentParser(
        prog="srw",
        description="String rewriting: reduction, critical pairs, diagram tiling.",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    cmd: dict[str, argparse.ArgumentParser] = {}

    def add(group, name: str, fn, help: str, *positionals: str) -> None:
        p = cmd[name] = group.add_parser(name, help=help)
        p.set_defaults(fn=fn)
        for dest in positionals:
            p.add_argument(dest, type=int if dest == "rank" else None)

    for name, fn, help, *positionals in (
        ("validate", cmd_validate, "check a system document"),
        ("redexes", cmd_redexes, "list the rule instances applicable to a word", "word"),
        ("reach", cmd_reach, "list all words reachable by rewriting", "word"),
        ("normal-form", cmd_normal_form, "canonical form of a word", "word"),
        ("equal", cmd_equal, "decide whether two words present the same element", "word1", "word2"),
        ("critical-pairs", cmd_critical_pairs, "enumerate critical pairs"),
        ("confluence", cmd_confluence, "joinability of all critical pairs"),
        (
            "check-decreasing",
            cmd_check_decreasing,
            "verify the order makes natural and critical diagrams decreasing",
        ),
        ("complete-peak", cmd_complete_peak, "tile a peak of two reductions"),
        ("complete-zigzag", cmd_complete_zigzag, "tile a zigzag of reductions"),
    ):
        add(sub, name, fn, help, "system", *positionals)
    hecke = sub.add_parser("hecke", help="the 0-Hecke monoid presentations")
    hsub = hecke.add_subparsers(dest="hecke_command", required=True)
    add(hsub, "gen", cmd_hecke_gen, "emit a Hecke system document", "rank")
    add(hsub, "enumerate", cmd_hecke_enumerate, "list all monoid elements", "rank")
    add(hsub, "verify", cmd_hecke_verify, "run the machine checks for rank n", "rank")

    cmd["reach"].add_argument("--max", type=_budget(1), default=None)
    for name in ("normal-form", "equal"):
        cmd[name].add_argument(
            "--max-words",
            type=_budget(1),
            default=None,
            help="bound on the descendant graph's nodes, words or commutation classes"
            " as the system has it (default: unbounded)",
        )
    cmd["confluence"].add_argument("--bound", type=_budget(), default=16)
    cmd["complete-peak"].add_argument("--top", required=True, help="comma-separated steps, or -")
    cmd["complete-peak"].add_argument("--left", required=True, help="comma-separated steps, or -")
    cmd["complete-zigzag"].add_argument("--zigzag", required=True, help="semicolon-separated >/< steps")
    for name in ("complete-peak", "complete-zigzag"):
        cmd[name].add_argument("--fuel", type=_budget(), default=10000)
        cmd[name].add_argument("--dot", action="store_true")
    for name in ("gen", "enumerate"):
        cmd[name].add_argument("--variant", choices=VARIANTS, default="rdoubleprime")
    cmd["gen"].add_argument("-o", "--output", default=None)
    cmd["enumerate"].add_argument("--cap", type=_budget(), default=6)
    cmd["verify"].add_argument(
        "--coherence-bound",
        type=_budget(),
        default=100000,
        help="neighbours that each diagram class's search may generate (default: 100000)",
    )
    # Last, so that it closes every usage line.
    for name, p in cmd.items():
        if name != "gen":
            p.add_argument("--json", action="store_true")
    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        code, doc, lines = args.fn(args)
    except ValueError as exc:
        print(f"error: {exc}", file=_sysmod.stderr)
        return 2
    except RuntimeError as exc:
        print(f"error: {exc}", file=_sysmod.stderr)
        return 1
    if getattr(args, "json", False):  # `hecke gen` has no --json
        lines = [] if doc is None else [json.dumps(doc, sort_keys=True, indent=2)]
    for line in lines:
        print(line)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
