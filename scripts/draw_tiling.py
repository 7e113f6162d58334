"""Tile one peak and write the reduction diagram as Graphviz DOT.

Builds the rank-n rfull Hecke system, parses the two sides of a peak from
step specs (LEFT:RULE:RIGHT with '-' for an empty context, comma
separated), closes the peak with the curated cell family, and emits DOT
on stdout or to a file.  Render with `dot -Tsvg out.dot -o out.svg`.

Usage:
    python3 scripts/draw_tiling.py --rank 3 --top=32:c13:- --left=-:b31:-
    python3 scripts/draw_tiling.py --rank 3 --word 32131 --all-pairs
"""

import argparse
import itertools
import sys as _sys

from srw.cli import parse_path, parse_word
from srw.diagrams import FuelExhausted, complete_peak, export_dot
from srw.hecke import hecke_provider, hecke_system
from srw.words import Path, find_redexes
from tile_random_peaks import at_least


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--rank", type=at_least(1), default=3)
    ap.add_argument("--top", help="comma separated step specs")
    ap.add_argument("--left", help="comma separated step specs")
    ap.add_argument("--word", help="peak word; use with --all-pairs")
    ap.add_argument("--all-pairs", action="store_true",
                    help="tile every redex pair of --word, print summaries")
    ap.add_argument("--fuel", type=at_least(0), default=10000)
    ap.add_argument("-o", "--output", help="write DOT here instead of stdout")
    args = ap.parse_args()
    if args.all_pairs and not args.word:
        ap.error("--all-pairs needs --word")
    if not args.all_pairs and not (args.top and args.left):
        ap.error("give --top and --left, or --word with --all-pairs")
    try:
        draw(args)
    except ValueError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 2
    except FuelExhausted as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 1
    return 0


def draw(args: argparse.Namespace) -> None:
    sys = hecke_system(args.rank, "rfull")
    provider = hecke_provider(sys)

    if args.all_pairs:
        w = parse_word(args.word, sys)
        redexes = find_redexes(w, sys)
        print(f"word {args.word}: {len(redexes)} redexes")
        for s1, s2 in itertools.combinations(redexes, 2):
            t = complete_peak(sys, provider, Path(w, (s1,)), Path(w, (s2,)),
                              fuel=args.fuel)
            b = t.boundary()
            print(f"  {s1.render(sys.n)} vs {s2.render(sys.n)}: "
                  f"sink {sys.fmt(b.sink)}, {len(t.cells)} cells")
        return

    top = parse_path(args.top, sys)
    left = parse_path(args.left, sys)
    t = complete_peak(sys, provider, top, left, fuel=args.fuel)
    dot = export_dot(t)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(dot)
        b = t.boundary()
        print(f"wrote {args.output}: sink {sys.fmt(b.sink)}, "
              f"{len(t.cells)} cells")
    else:
        _sys.stdout.write(dot)


if __name__ == "__main__":
    _sys.exit(main())
