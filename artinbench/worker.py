"""One benchmark process: set up a workload, then run its ops in passes.

Started by run.py in a fresh interpreter under a memory ceiling.  Setup
imports artin from the checkout, builds the seeded inputs, and notes the
moment the first op may start.  Each pass runs every task of the workload
once, one op after another, from cold caches (a user session starts cold),
and passes repeat until the time budget is spent.  The whole result goes to
one JSON file named by --out.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import subprocess
import sys
import time

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(ROOT, "src")


# Host speed.  On a shared host the same op can take 1.7 times longer from
# one second to the next while a neighbour loads the core.  A fixed
# pure-Python loop of tuple and dict work, like artin's own, is timed next to
# the ops; each op's time is scaled by REF_SECONDS / (the loop's time around
# it), i.e. reported at the speed where the loop takes REF_SECONDS.
REF_SECONDS = 0.0005
REF_GAP = 0.005  # an op more than this after the last loop gets a new one


def reference_time() -> float:
    """The loop's time, best of two: the first run after a wait (a CLI child,
    a sleep) pays for cold caches."""
    best = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        seen = {}
        w = (1, 2, 3, 4, 5, 6, 7, 8)
        for i in range(2000):
            w = w[1:] + (w[0] ^ i,)
            seen[w] = i
        best = min(best, time.perf_counter() - t0)
    return best


class Speed:
    """Reference-loop samples around the ops; each op record gets the
    samples just before and just after it."""

    def __init__(self):
        self.last = reference_time()
        self.at = time.perf_counter()
        self.pending = []

    def before(self, record):
        if time.perf_counter() - self.at > REF_GAP:
            self.sample()
        record.append(self.last)
        self.pending.append(record)

    def sample(self):
        self.last = reference_time()
        self.at = time.perf_counter()
        for record in self.pending:
            record.append(self.last)
        self.pending = []


def _artin_caches():
    """cache_clear of every memoized function in artin, found generically."""
    out = []
    for name, mod in list(sys.modules.items()):
        if name == "artin" or name.startswith("artin."):
            for val in vars(mod).values():
                clear = getattr(val, "cache_clear", None)
                if callable(clear) and clear not in out:
                    out.append(clear)
    return out


class Context:
    """What a workload may use besides artin: its output directory and a
    way to run one CLI process."""

    def __init__(self, outdir: str, tracer):
        self.outdir = outdir
        self.tracer = tracer
        self.env = dict(os.environ, PYTHONPATH=SRC)

    def cli(self, *args):
        if self.tracer is None:
            cmd = [sys.executable, "-c", "from artin.cli import entry; entry()", *args]
        else:
            cmd = [sys.executable, os.path.join(HERE, "cli_child.py"), *args]

        def run():
            env = self.env
            if self.tracer is not None:
                trace_file = os.path.join(self.outdir, "child-trace.json")
                env = dict(env, ARTINBENCH_TRACE=trace_file,
                           ARTINBENCH_SPANS=str(int(self.tracer.keep_spans)))
            p = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=ROOT, timeout=120)
            if self.tracer is not None:
                with open(trace_file, encoding="utf-8") as fh:
                    _merge(self.tracer, json.load(fh))
            return p.returncode, p.stdout, p.stderr

        return run


def _merge(tracer, snap):
    for k, v in snap["calls"].items():
        tracer.calls[k] = tracer.calls.get(k, 0) + v
    for k, v in snap["self_s"].items():
        tracer.self_s[k] = tracer.self_s.get(k, 0.0) + v
    for k, v in snap["counters"].items():
        tracer.count(k, v)
    if tracer.keep_spans:
        base = len(tracer.spans)
        for name, start, end, parent, _ in snap.get("spans", ()):
            tracer.spans.append([name, start, end, parent + base if parent >= 0 else -1, tracer.op_id])


def run_pass(tasks, ops, tracer, wrong, failures_by_layer):
    """Run every task once; each op record is [label, seconds, status,
    reference time before, reference time after]."""
    from workloads import Mismatch

    from artin.errors import CapExceededError

    speed = Speed()
    for task in tasks:
        gen = task()
        result = None
        while True:
            try:
                label, call = gen.send(result)
            except StopIteration:
                break
            except Mismatch as exc:
                ops[-1][2] = "wrong"
                wrong.append(f"{label}: {exc}")
                if tracer is not None:
                    layer = label.split(".")[0]
                    failures_by_layer[layer] = failures_by_layer.get(layer, 0) + 1
                break
            if tracer is not None:
                tracer.op_id += 1
            record = [label]
            speed.before(record)
            t0 = time.perf_counter()
            try:
                result = call()
            except (CapExceededError, MemoryError, RecursionError) as exc:
                status = "fail"
                error = exc
            except Exception as exc:  # a traceback on valid input: wrong output
                status = "wrong"
                error = exc
                wrong.append(f"{label}: {type(exc).__name__}: {exc}")
            else:
                status = "ok"
                error = None
            dt = time.perf_counter() - t0
            record[1:1] = [dt, status]
            ops.append(record)
            if dt > REF_GAP:
                speed.sample()
            if error is not None:
                if tracer is not None:
                    origin = getattr(error, "bench_origin", label)
                    layer = origin.split(".")[0]
                    failures_by_layer[layer] = failures_by_layer.get(layer, 0) + 1
                gen.close()
                break
    speed.sample()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--budget", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    import artin

    if os.path.dirname(os.path.abspath(artin.__file__)) != os.path.join(SRC, "artin"):
        raise SystemExit(f"artin imported from {artin.__file__}, not from {SRC}")
    if tracer is not None and args.workload != "cli-survey":
        tracer.install()
    import workloads

    outdir = os.path.dirname(os.path.abspath(args.out))
    ctx = Context(outdir, tracer)
    tasks = workloads.WORKLOADS[args.workload](random.Random(args.seed), ctx)
    caches = _artin_caches()
    ready = time.monotonic()
    result = {"ready": ready, "ready_ref": reference_time(), "ops": [], "pass_wall": [],
              "wrong": [], "layers": []}
    if not args.setup_only:
        start = time.perf_counter()
        while True:
            for clear in caches:
                clear()
            gc.collect()
            ops, failures = [], {}
            if tracer is not None:
                tracer.reset()
            run_pass(tasks, ops, tracer, result["wrong"], failures)
            result["ops"].append(ops)
            result["pass_wall"].append(sum(op[1] for op in ops))
            if tracer is not None:
                result["layers"].append({**tracer.snapshot(), "failed": failures})
                if tracer.keep_spans:
                    tracer.write_spans(os.path.join(outdir, "spans.jsonl"))
                    tracer.keep_spans = False
            # Whole passes only; stop before one that would overrun the budget.
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / len(result["ops"]) > args.budget:
                break
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["child_rss_kb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
