"""Sample random peaks over an rfull Hecke system and tile them to completion.

For each trial the script draws a random word, two random reduction paths
out of it, and asks the tiler to close the peak using the curated cell
family.  It reports how many cells of each provenance tag were adjoined
and the largest tiling seen.  Termination of every trial is the empirical
face of the decreasingness of the cell family.

Usage:
    python3 scripts/tile_random_peaks.py --rank 3 --trials 2000
"""

import argparse
import collections
import random
import sys as _sys
import time

from srw.diagrams import FuelExhausted, complete_peak
from srw.hecke import hecke_provider, hecke_system
from srw.words import Path, find_redexes


def random_path(rng: random.Random, w, sys, max_steps: int) -> Path:
    steps = []
    for _ in range(rng.randint(1, max_steps)):
        redexes = find_redexes(w, sys)
        if not redexes:
            break
        step = rng.choice(redexes)
        steps.append(step)
        w = step.target
    return Path(steps[0].source, tuple(steps)) if steps else None


def at_least(least: int):
    """An argparse type: an integer of at least `least`."""

    def integer(text: str) -> int:
        value = int(text)
        if value < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {value}")
        return value

    return integer


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--rank", type=at_least(1), default=3)
    ap.add_argument("--trials", type=int, default=1000)
    # A word needs two letters to hold a redex, so a cap of 1 never ends.
    ap.add_argument("--max-len", type=at_least(2), default=8, help="word length cap")
    ap.add_argument("--max-steps", type=at_least(1), default=3, help="steps per side")
    ap.add_argument("--fuel", type=at_least(0), default=10000)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    sys = hecke_system(args.rank, "rfull")
    provider = hecke_provider(sys)
    rng = random.Random(args.seed)
    tags = collections.Counter()
    families = collections.Counter()
    biggest = 0
    done = 0
    t0 = time.monotonic()
    while done < args.trials:
        w = tuple(rng.randint(1, args.rank)
                  for _ in range(rng.randint(1, args.max_len)))
        top = random_path(rng, w, sys, args.max_steps)
        left = random_path(rng, w, sys, args.max_steps)
        if top is None or left is None:
            continue
        try:
            t = complete_peak(sys, provider, top, left, fuel=args.fuel)
        except FuelExhausted as exc:
            print(f"error: {exc}", file=_sys.stderr)
            return 1
        for cell in t.cells:
            tags[cell.tag] += 1
            families[cell.origin] += 1
        biggest = max(biggest, len(t.cells))
        done += 1
    dt = time.monotonic() - t0

    print(f"{done} peaks tiled in {dt:.2f}s over rank {args.rank} "
          f"(rfull), all within fuel {args.fuel}")
    print(f"largest tiling: {biggest} cells")
    print("cells by tag:")
    for tag, k in tags.most_common():
        print(f"  {tag:11s} {k}")
    print("top cell origins:")
    for origin, k in families.most_common(10):
        print(f"  {origin:28s} {k}")
    return 0


if __name__ == "__main__":
    _sys.exit(main())
