"""The srw benchmark: seeded workloads against the public API of `srw`.

    python3 srwbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 srwbench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the repository root.  Workloads (see WORKLOADS.md):

  certify       verify_suite(4) plus the rank-4 confluence reports
  enumerate     enumerate_monoid(5)
  word_problem  a stream of `srw equal ... --json` queries through srw.cli.main
  tiling        random peaks and zigzags on rfull ranks 4 and 5, hecke_provider

Inputs come from the seed through reference.py, which never imports srw,
and every answer is checked against it.  Each pass over the inputs runs in
a fresh process (passrun.py), one process at a time, single-threaded.
Before the passes the run makes SETUP_SAMPLES set-up-only processes, so
`setup_s` is a median of several set-ups.  Passes repeat until the next
one would end after `--seconds`; there is always at least one.  Times are
scaled to nominal-host seconds by a probe interleaved with the workload
(see passrun.py), because the shared host's speed drifts by a third.

With --trace 0 the run reports the end-to-end metrics.  With --trace 1 it
alternates untraced and traced passes, again for `--seconds`, and reports
the per-layer metrics of the traced passes with the tracing overhead
(traced minus untraced wall time, medians over passes); the spans of the
last traced pass are written to srwbench/.work/spans-<workload>.bin.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  An operation fails when it
raised, ran out of fuel or budget, came back undecided, or gave a wrong
definitive answer.  `correct` is false on any wrong answer except the
known defect: on rprime, which has no confluence certificate, `equal`
can answer "different" for congruent words (the fixed query 3213/2321 on
rank 3 does so at the seed).  Those answers are still counted in
wrong_answers and failed_ratio.  `attempted` counts each distinct
operation of the workload once, not once per pass; an operation failed if
it failed in any pass.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKDIR = os.path.join(HERE, ".work")
sys.path.insert(0, HERE)

import reference as ref  # noqa: E402

SETUP_SAMPLES = 7
CHILD_TIMEOUT_S = 170
WORD_PROBLEM_BLOCKS = 6  # 1 + 6 * 160 = 961 queries
TILING_PEAKS = 2500
TILING_ZIGZAGS = 2500

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}
# Per-layer metrics: name -> unit.  Spanned functions give calls and self_s.
PER_LAYER = {
    "words.find_redexes.calls": "count",
    "words.find_redexes.self_s": "s",
    "words.find_redexes.instances": "count",
    "order.is_decreasing_ed.calls": "count",
    "order.is_decreasing_ed.self_s": "s",
    "order.compare.calls": "count",
    "critical.enumerate_critical_pairs.self_s": "s",
    "critical.enumerate_critical_pairs.pairs": "count",
    "critical.join_pair.calls": "count",
    "critical.join_pair.self_s": "s",
    "critical.join_pair.joined_ratio": "1",
    "critical.wall_share": "1",
    "diagrams.complete_tiling.calls": "count",
    "diagrams.complete_tiling.self_s": "s",
    "diagrams.cells_adjoined": "count",
    "diagrams.provider.calls": "count",
    "diagrams.provider.self_s": "s",
    "diagrams.paths_equivalent_mod_cells.calls": "count",
    "diagrams.paths_equivalent_mod_cells.self_s": "s",
    "diagrams.paths_equivalent_mod_cells.equivalent_ratio": "1",
    "seminormal.attractor.calls": "count",
    "seminormal.attractor.self_s": "s",
    "seminormal.attractor.members": "count",
    "hecke.hecke_canon.calls": "count",
    "hecke.hecke_canon.self_s": "s",
    "hecke.chosen_critical_ed_tagged.calls": "count",
    "hecke.chosen_critical_ed_tagged.self_s": "s",
    "hecke.verify.naturals_s": "s",
    "hecke.verify.criticals_s": "s",
    "hecke.verify.c_subsystem_s": "s",
    "hecke.verify.attractor_loops_s": "s",
    "hecke.verify.coherence_s": "s",
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
    "trace.spans": "count",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
}


# --- inputs and reference checks -------------------------------------------


def make_inputs(workload: str, seed: int) -> list:
    """The workload's inputs; certify and enumerate have fixed ones."""
    if workload == "word_problem":
        return ref.word_problem_inputs(seed, WORD_PROBLEM_BLOCKS)
    if workload == "tiling":
        return ref.tiling_inputs(seed, TILING_PEAKS, TILING_ZIGZAGS)
    return []


def check_certify(inputs, answers) -> list[tuple[bool, bool, bool]]:
    """(failed, wrong, known defect) for the five items and three reports."""
    out = []
    (items,) = answers
    if isinstance(items, dict):
        items = [items] * 8
    for expected, ans in zip(ref.CERTIFY_ITEMS, items[:5]):
        if isinstance(ans, dict):
            out.append((True, False, False))
            continue
        name, status, detail = ans
        if name != expected or status == "FAIL":
            out.append((True, True, False))
        elif status != "PASS":
            out.append((True, False, False))
        elif name == "critical-pairs-covered":
            ok = detail.startswith(f"{ref.CERTIFY_CRITICAL_PAIRS} ordered pairs")
            out.append((not ok, not ok, False))
        elif name == "coherence":
            got, total = ref.CERTIFY_COHERENCE_CLASSES
            ok = detail.startswith(f"{got}/{total} ")
            out.append((not ok, not ok, False))
        else:
            out.append((False, False, False))
    for ans in items[5:]:
        if isinstance(ans, dict):
            out.append((True, False, False))
            continue
        variant, total, unjoinable = ans
        ok = (total, unjoinable) == ref.CERTIFY_CONFLUENCE[variant]
        out.append((not ok, not ok, False))
    return out


def check_enumerate(inputs, answers):
    (words,) = answers
    if isinstance(words, dict):
        return [(True, False, False)]
    products = {ref.demazure(w, ref.ENUMERATE_RANK) for w in words}
    ok = len(words) == ref.ENUMERATE_SIZE and len(products) == ref.ENUMERATE_SIZE
    return [(not ok, not ok, False)]


def check_word_problem(inputs, answers):
    out = []
    for q, ans in zip(inputs, answers):
        if isinstance(ans, dict):
            out.append((True, False, False))
        elif ans != q["equal"]:
            known = q["variant"] == "rprime" and ans is False
            out.append((True, True, known))
        else:
            out.append((False, False, False))
    return out


def check_tiling(inputs, answers):
    out = []
    for it, ans in zip(inputs, answers):
        if isinstance(ans, dict):
            out.append((True, False, False))
        else:
            ok = ref.demazure(ans, it["n"]) == tuple(it["product"])
            out.append((not ok, not ok, False))
    return out


CHECKS = {
    "certify": check_certify,
    "enumerate": check_enumerate,
    "word_problem": check_word_problem,
    "tiling": check_tiling,
}
# On certify and enumerate a pass is one operation: the verdict, the enumeration.
PER_OP_LATENCY = {"word_problem", "tiling"}


# --- child processes --------------------------------------------------------


class ChildFailed(RuntimeError):
    pass


def run_child(job: dict) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "passrun.py")],
        input=json.dumps(job),
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        cwd=ROOT,
        # A fixed hash seed gives every pass the same dict and set layouts.
        env=dict(os.environ, PYTHONHASHSEED="0"),
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(
            f"{job['workload']} {job['mode']} exited {proc.returncode}: "
            f"{proc.stderr.strip()[-2000:]}"
        )
    return json.loads(lines[-1])


def _job(workload, mode, inputs, trace=0, spans=None) -> dict:
    return {
        "workload": workload,
        "mode": mode,
        "trace": trace,
        "inputs": inputs,
        "workdir": WORKDIR,
        "spans": spans,
    }


# --- statistics ---------------------------------------------------------------


def percentile(sorted_vals: list[float], p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    k = max(1, math.ceil(p / 100 * len(sorted_vals)))
    return sorted_vals[k - 1]


def tail_level(per_pass: int) -> float | None:
    """The highest of p90, p95, p99, p99.9 with >= 10 of one pass's samples beyond it."""
    levels = [p for p in (90, 95, 99, 99.9) if per_pass * (1 - p / 100) >= 10]
    return levels[-1] if levels else None


# --- one workload -------------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    os.makedirs(WORKDIR, exist_ok=True)
    inputs = make_inputs(workload, seed)
    digest = ref.digest(inputs)
    print(f"# workload {workload}  seed {seed}  inputs {len(inputs)}  digest {digest}")

    setups = []
    if trace:
        # Untraced and traced passes alternate, so both see the same machine.
        spans_path = os.path.join(WORKDIR, f"spans-{workload}.bin")
        jobs = [_job(workload, "pass", inputs), _job(workload, "pass", inputs, 1, spans_path)]
    else:
        for _ in range(SETUP_SAMPLES):
            setups.append(run_child(_job(workload, "setup", []))["setup_s"])
        jobs = [_job(workload, "pass", inputs)]
    passes = []
    began = perf_counter()
    durations = []
    while True:
        t = perf_counter()
        passes += [run_child(job) for job in jobs]
        durations.append(perf_counter() - t)
        if perf_counter() - began + statistics.median(durations) > seconds:
            break

    # Each operation counts once, however many passes repeat it for timing;
    # it failed, or was wrong, if it did so in any pass.
    checks = CHECKS[workload]
    per_pass = [checks(inputs, p["answers"]) for p in passes]
    verdicts = [tuple(map(any, zip(*op))) for op in zip(*per_pass)]
    attempted = len(verdicts)
    failed = sum(f for f, _, _ in verdicts)
    wrong = sum(w for _, w, _ in verdicts)
    known = sum(k for _, _, k in verdicts)
    correct = wrong == known

    if trace:
        metrics = layer_metrics(passes[0::2], passes[1::2])
        units = PER_LAYER
    else:
        metrics = end_to_end_metrics(workload, passes, setups)
        units = END_TO_END
    for name, value in metrics.items():
        print(f"{name:<52} {value:>14.6g} {units[name]}")
    print(
        f"{'failed_ratio':<52} {failed / attempted:>14.6g} 1  ({failed}/{attempted})"
    )
    print(
        f"{'wrong_answers':<52} {wrong:>14d} count  "
        f"({known} of them the known rprime defect)"
    )
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def end_to_end_metrics(workload: str, passes: list[dict], setups: list[float]) -> dict:
    setups = setups + [p["setup_s"] for p in passes]
    walls = [p["wall_s"] for p in passes]
    if workload in PER_OP_LATENCY:
        lat = sorted(x for p in passes for x in p["latencies"])
        level = tail_level(len(passes[0]["latencies"]))
    else:
        lat = sorted(walls)
        level = None
    tail = percentile(lat, level) if level else lat[-1]
    print(
        f"# {len(setups)} set-ups, {len(passes)} passes, {len(lat)} latency samples; "
        f"op_tail_ms is {'p%g' % level if level else 'the maximum'}; host slowdown "
        f"{statistics.median(p['slowdown'] for p in passes):.3f}, unscaled wall "
        f"{statistics.median(p['raw_wall_s'] for p in passes):.4g} s"
    )
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "op_p50_ms": 1000 * statistics.median(lat),
        "op_tail_ms": 1000 * tail,
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
    }


def layer_metrics(plain: list[dict], traced: list[dict]) -> dict:
    """Per-layer metrics of each traced pass, then the median over passes."""
    per_pass = [_layers(p) for p in traced]
    m = {name: statistics.median(d[name] for d in per_pass) for name in per_pass[0]}
    m["trace.untraced_wall_s"] = statistics.median(p["wall_s"] for p in plain)
    m["trace.overhead_s"] = m["trace.wall_s"] - m["trace.untraced_wall_s"]
    return {name: m[name] for name in PER_LAYER}


def _layers(traced: dict) -> dict:
    layers, counts = traced["layers"], traced["counts"]

    def calls(name):
        return layers.get(name, [0, 0.0, 0.0])[0]

    def total(name):
        return layers.get(name, [0, 0.0, 0.0])[1]

    def self_s(name):
        return layers.get(name, [0, 0.0, 0.0])[2]

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    for name in PER_LAYER:
        base, _, field = name.rpartition(".")
        if field == "calls" and base != "order.compare":
            m[name] = calls(base)
        elif field == "self_s":
            m[name] = self_s(base)
    for key in (
        "words.find_redexes.instances",
        "order.compare.calls",
        "critical.enumerate_critical_pairs.pairs",
        "diagrams.cells_adjoined",
        "seminormal.attractor.members",
    ):
        m[key] = counts.get(key, 0)
    m["critical.join_pair.joined_ratio"] = ratio(
        counts.get("critical.join_pair.joined", 0), calls("critical.join_pair")
    )
    m["critical.wall_share"] = ratio(
        self_s("critical.enumerate_critical_pairs") + self_s("critical.join_pair"),
        traced["wall_s"],
    )
    m["diagrams.paths_equivalent_mod_cells.equivalent_ratio"] = ratio(
        counts.get("diagrams.paths_equivalent_mod_cells.equivalent", 0),
        calls("diagrams.paths_equivalent_mod_cells"),
    )
    for item in ("naturals", "criticals", "c_subsystem", "attractor_loops", "coherence"):
        m[f"hecke.verify.{item}_s"] = total(f"hecke.verify.{item}")
    m["trace.spans"] = traced["spans"]
    m["trace.wall_s"] = traced["wall_s"]
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*CHECKS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "srw")):
        print(f"error: no srw package under {ROOT}/src", file=sys.stderr)
        return 1
    names = list(CHECKS) if args.workload == "all" else [args.workload]
    try:
        for name in names:
            result = run_workload(name, args.seed, args.seconds, args.trace)
            print(json.dumps(result))
    except (ChildFailed, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
