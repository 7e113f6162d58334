"""One set-up or one timed pass of a workload, in a fresh process.

Reads a job from standard input as JSON and prints one JSON result line.
Each pass runs in its own process so that no earlier pass or warm-up has
filled seminormal's attractor cache or the enumeration memo.

    job = {"workload": name, "mode": "setup" | "pass", "trace": 0 | 1,
           "inputs": [...], "workdir": dir, "spans": file or null}

The answers go back raw; run.py checks them against reference.py, which
does not import srw.  set-up covers importing srw and building the
workload's systems (and, for word_problem, writing the system JSON the
CLI loads); converting inputs into srw objects is outside every timer.

Times are reported in nominal-host seconds.  The host this was built on
is shared, and its speed drifts by a third within a minute.  So a
`HostClock` runs `reference.probe` every PROBE_PERIOD_S of wall time (from
SIGALRM, between bytecodes of the workload) and divides each measured
time by the local slowdown: the median probe time near it over
NOMINAL_PROBE_S.  Probe time is subtracted from the operation it
interrupted.  The probe does not call srw, so a change to srw moves the
workload's time and not the divisor.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import resource
import signal
import statistics
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import reference  # noqa: E402

VARIANTS = ("rprime", "rdoubleprime", "rfull")
PROBE_PERIOD_S = 0.05
# Median probe time on the reference host (2-core Xeon VM, CPython 3.11).
NOMINAL_PROBE_S = 0.00037
PROBE_WINDOW = 10  # probes on each side of an operation that set its slowdown


class HostClock:
    """Probes the host's speed while a pass runs; see the module docstring."""

    def __init__(self) -> None:
        self.probes: list[float] = []
        self.spent = 0.0  # seconds spent inside the probe handler

    def probe(self) -> None:
        t = perf_counter()
        gc_was_on = gc.isenabled()
        gc.disable()  # a collection would make the probe depend on the workload's heap
        reference.probe()
        if gc_was_on:
            gc.enable()
        dt = perf_counter() - t
        self.probes.append(dt)
        self.spent += dt

    def burst(self, k: int = 2 * PROBE_WINDOW) -> None:
        for _ in range(k):
            self.probe()

    def start(self) -> None:
        signal.signal(signal.SIGALRM, lambda signum, frame: self.probe())
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def slowdown(self, first: int = 0, end: int | None = None) -> float:
        """Median probe time over probes[first - W : end + W], relative to nominal."""
        end = len(self.probes) if end is None else end
        lo, hi = max(0, first - PROBE_WINDOW), end + PROBE_WINDOW
        return statistics.median(self.probes[lo:hi]) / NOMINAL_PROBE_S


def _word(s) -> str:
    return "".join(str(g) for g in s) or "-"


def _instances(srw, sys_, start, legs):
    """Rebuild generated (direction, rule, position) legs as rule instances."""
    out, cur = [], tuple(start)
    for direction, name, pos in legs:
        rule = sys_.rule(name)
        width = len(rule.lhs if direction == ">" else rule.rhs)
        inst = srw.words.RuleInstance(cur[:pos], rule, cur[pos + width :])
        cur = inst.target if direction == ">" else inst.source
        out.append((direction, inst))
    return out


class Certify:
    def setup(self, job):
        import srw.critical
        import srw.hecke

        self.srw = srw
        self.systems = {v: srw.hecke.hecke_system(4, v) for v in VARIANTS}

    def ops(self, inputs):
        hecke, critical = self.srw.hecke, self.srw.critical

        def run():
            answers = []
            try:
                report = hecke.verify_suite(4)
                answers += [[it.name, it.status, it.detail] for it in report.items]
            except Exception as exc:  # every item of the suite is then failed
                answers += [{"error": repr(exc)}] * 5
            for v in VARIANTS:
                try:
                    rep = critical.local_confluence_report(self.systems[v])
                    answers.append([v, rep.total, len(rep.failures)])
                except Exception as exc:
                    answers.append({"error": repr(exc)})
            return answers

        return [run]


class Enumerate:
    def setup(self, job):
        import srw.hecke

        self.srw = srw

    def ops(self, inputs):
        return [lambda: [list(w) for w in self.srw.hecke.enumerate_monoid(5)]]


class WordProblem:
    def setup(self, job):
        import srw.cli
        import srw.hecke

        self.srw = srw
        self.paths = {}
        for n, variant in ((4, "rfull"), (3, "rprime"), (4, "rprime")):
            doc = srw.cli.system_to_doc(srw.hecke.hecke_system(n, variant))
            path = os.path.join(job["workdir"], f"wp-{os.getpid()}-{variant}{n}.json")
            with open(path, "w") as fh:
                json.dump(doc, fh)
            self.paths[n, variant] = path

    def ops(self, inputs):
        cli = self.srw.cli

        def query(q):
            argv = ["equal", self.paths[q["n"], q["variant"]], _word(q["u"]), _word(q["v"]), "--json"]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(argv)
            text = out.getvalue()
            if rc in (0, 1) and text.strip():
                return json.loads(text)["equal"]
            return {"error": f"exit {rc}: {err.getvalue().strip()[:200]}"}

        return [lambda q=q: query(q) for q in inputs]

    def close(self):
        for path in self.paths.values():
            os.remove(path)


class TilingWork:
    def setup(self, job):
        import srw.diagrams
        import srw.hecke

        self.srw = srw
        self.systems = {n: srw.hecke.hecke_system(n, "rfull") for n in (4, 5)}
        self.providers = {n: srw.hecke.hecke_provider(s) for n, s in self.systems.items()}

    def ops(self, inputs):
        srw = self.srw
        words = srw.words
        out = []
        for it in inputs:
            sys_, provider = self.systems[it["n"]], self.providers[it["n"]]
            start = tuple(it["start"])
            if it["kind"] == "peak":
                top = words.Path(start, tuple(i for _, i in _instances(srw, sys_, start, it["top"])))
                left = words.Path(start, tuple(i for _, i in _instances(srw, sys_, start, it["left"])))

                def op(sys_=sys_, provider=provider, top=top, left=left):
                    t = srw.diagrams.complete_peak(sys_, provider, top, left)
                    return list(t.boundary().sink)
            else:
                zig = words.Zigzag(start, tuple(_instances(srw, sys_, start, it["legs"])))

                def op(sys_=sys_, provider=provider, zig=zig):
                    return list(srw.diagrams.complete_zigzag(sys_, provider, zig).common)
            out.append(op)
        return out


WORKLOADS = {
    "certify": Certify,
    "enumerate": Enumerate,
    "word_problem": WordProblem,
    "tiling": TilingWork,
}


def main() -> int:
    job = json.load(sys.stdin)
    work = WORKLOADS[job["workload"]]()
    clock = HostClock()
    clock.burst()
    t0 = perf_counter()
    import srw  # noqa: F401  (set-up starts with the first import of the package)

    tracer = None
    if job["trace"]:
        import layertrace

        # Installing the wrappers before set-up lets it build traced providers.
        tracer = layertrace.Tracer()
        layertrace.install(tracer)
    work.setup(job)
    setup_raw = perf_counter() - t0
    result = {"setup_s": setup_raw / clock.slowdown()}
    if job["mode"] == "pass":
        ops = work.ops(job["inputs"])
        if tracer is not None:
            ops = [tracer.spanned("bench.op", op) for op in ops]
        raw, windows, answers = [], [], []
        clock.burst()
        clock.start()
        t1, spent1, first = perf_counter(), clock.spent, len(clock.probes)
        for op in ops:
            n0, spent0 = len(clock.probes), clock.spent
            s = perf_counter()
            try:
                ans = op()
            except Exception as exc:  # a raising operation counts as failed
                ans = {"error": repr(exc)[:300]}
            raw.append(perf_counter() - s - (clock.spent - spent0))
            windows.append((n0, len(clock.probes)))
            answers.append(ans)
        wall_raw = perf_counter() - t1 - (clock.spent - spent1)
        clock.stop()
        latencies = [t / clock.slowdown(a, b) for t, (a, b) in zip(raw, windows)]
        slowdown = clock.slowdown(first)
        result["wall_s"] = sum(latencies)
        result["raw_wall_s"] = wall_raw
        result["slowdown"] = slowdown
        result["latencies"] = latencies
        result["answers"] = answers
        if tracer is not None:
            result["layers"] = {
                k: [calls, total / slowdown, own / slowdown]
                for k, (calls, total, own) in tracer.self_times().items()
            }
            result["counts"] = tracer.counts
            result["spans"] = len(tracer.name)
            if job["spans"]:
                tracer.write(job["spans"])
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if hasattr(work, "close"):
        work.close()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
