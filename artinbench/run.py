"""artin benchmark: run one seeded workload and print its metrics.

    python3 artinbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ./src.  The
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  --trace 0 measures the end-to-end metrics with tracing
off; --trace 1 makes a traced run for the per-layer metrics (see README.md).
The exit code is 1 when any output disagrees with its oracle, 2 when the
benchmark cannot run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

from worker import REF_SECONDS, reference_time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("coxeter-enum", "artin-words", "homology", "cli-survey")
LAYERS = ("diagram", "tits", "coxeter", "monoid", "group", "complexes", "shelling", "cli")
MEMORY_CEILING = 2 << 30  # address-space limit of each worker and its children
SETUP_SAMPLES = 5  # setups per run; setup_s is their median
IMPORT_SAMPLES = 5
DEADLINE = 170.0  # seconds for the whole run

# Function-level self times: metric -> the spans it sums.  Homology counts
# the Smith normal forms (invariant_factors) it runs.
FUNCTION_SELF = {
    "monoid.lcm.self_s": ("monoid.lcm",),
    "monoid.gcd.self_s": ("monoid.gcd",),
    "complexes.homology.self_s": ("complexes.homology", "complexes.invariant_factors"),
    "complexes.poset.self_s": ("complexes.poset",),
    "shelling.verify.self_s": ("shelling.verify_claims",),
    "diagram.finite_type_subsets.self_s": ("diagram.finite_type_subsets",),
}
COUNTERS = (
    "coxeter.elements",
    "complexes.poset_relations",
    "complexes.faces",
    "complexes.boundary_nnz",
    "shelling.chambers",
    "group.letters",
)


def fail(message: str):
    print(f"artinbench: {message}", file=sys.stderr)
    sys.exit(2)


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CEILING, MEMORY_CEILING))


class Runner:
    def __init__(self, args, root: str):
        self.args = args
        self.root = root
        self.outdir = os.path.join(root, ".artinbench-out", f"{args.workload}-t{args.trace}")
        os.makedirs(self.outdir, exist_ok=True)
        self.t_start = time.monotonic()
        # String hashing orders artin's set iterations, and so its work: tie
        # it to the seed so that one seed always measures the same work.
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"),
                        PYTHONHASHSEED=str(args.seed % 4294967296))

    def remaining(self) -> float:
        return DEADLINE - (time.monotonic() - self.t_start)

    def worker(self, tag: str, budget: float, trace: int = 0, setup_only: bool = False):
        """Run worker.py in a fresh interpreter; returns the result and its
        set-up time scaled to reference speed."""
        out = os.path.join(self.outdir, f"{tag}.json")
        cmd = [
            sys.executable, os.path.join(HERE, "worker.py"),
            "--workload", self.args.workload, "--seed", str(self.args.seed),
            "--budget", str(budget), "--trace", str(trace), "--out", out,
        ] + (["--setup-only"] if setup_only else [])
        ref0 = reference_time()
        t0 = time.monotonic()
        try:
            p = subprocess.run(cmd, cwd=self.root, env=self.env, preexec_fn=_limit_memory,
                               stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                               timeout=max(self.remaining(), 1.0))
        except subprocess.TimeoutExpired:
            fail(f"{tag} worker passed the {DEADLINE:.0f} s deadline")
        if p.returncode != 0:
            fail(f"{tag} worker exited with {p.returncode}:\n{p.stderr[-2000:]}")
        with open(out, encoding="utf-8") as fh:
            res = json.load(fh)
        return res, (res["ready"] - t0) * REF_SECONDS / ((ref0 + res["ready_ref"]) / 2)

    def import_probes(self) -> tuple[list[float], int]:
        """Fresh-interpreter `import artin.cli` times (ms) and the largest
        peak RSS (kB) of those processes."""
        code = ("import time; t = time.perf_counter(); import artin.cli; "
                "print((time.perf_counter() - t) * 1000)")
        times, rss = [], 0
        for _ in range(IMPORT_SAMPLES):
            out = os.path.join(self.outdir, "import.txt")
            with open(out, "w", encoding="utf-8") as fh:
                p = subprocess.Popen([sys.executable, "-c", code], cwd=self.root, env=self.env,
                                     preexec_fn=_limit_memory, stdout=fh)
                _, status, usage = os.wait4(p.pid, 0)
                p.returncode = os.waitstatus_to_exitcode(status)
            if p.returncode != 0:
                fail("import artin.cli failed in a fresh interpreter")
            with open(out, encoding="utf-8") as fh:
                times.append(float(fh.read()))
            rss = max(rss, usage.ru_maxrss)
        return times, rss


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _scaled(op) -> float:
    """An op's seconds at reference speed."""
    _, seconds, _, before, after = op
    return seconds * REF_SECONDS / ((before + after) / 2)


def _pass_walls(res) -> list[float]:
    return [sum(_scaled(op) for op in p) for p in res["ops"]]


def _check(results) -> tuple[int, int, bool, list]:
    ops = [op for r in results for p in r["ops"] for op in p]
    wrong = [w for r in results for w in r["wrong"]]
    failed = sum(1 for op in ops if op[2] != "ok")
    return len(ops), failed, not wrong, wrong


def end_to_end(runner: Runner) -> tuple[dict, list]:
    setups = []
    for i in range(SETUP_SAMPLES - 1):
        setups.append(runner.worker(f"setup{i}", 0, setup_only=True)[1])
    res, setup = runner.worker("main", runner.args.seconds)
    setups.append(setup)
    # Every pass runs the same ops from cold caches, so each op's latency is
    # its median over the passes: a stall in one pass does not move it.
    passes = res["ops"]
    times = [statistics.median(_scaled(p[i]) for p in passes) for i in range(len(passes[0]))]
    ok = sum(1 for op in passes[0] if op[2] == "ok")
    rss_kb = res["child_rss_kb"] if runner.args.workload == "cli-survey" else res["peak_rss_kb"]
    metrics = {
        "setup_s": _metric(statistics.median(setups), "s"),
        "ops_per_s": _metric(ok / sum(times), "1/s"),
        "op_p50_ms": _metric(statistics.median(times) * 1000, "ms"),
        "op_p90_ms": _metric(statistics.quantiles(times, n=10)[8] * 1000, "ms"),
        "ok_ratio": _metric(ok / len(times), "ratio"),
        "peak_rss_mb": _metric(rss_kb / 1024, "MB"),
    }
    return metrics, [res]


def per_layer(runner: Runner) -> tuple[dict, list]:
    half = runner.args.seconds / 2
    base, _ = runner.worker("untraced", half)
    traced, _ = runner.worker("traced", half, trace=1)
    import_ms, probe_rss = runner.import_probes()
    passes = traced["layers"]
    first = passes[0]

    def self_of(match):
        return statistics.median(sum(v for k, v in p["self_s"].items() if match(k)) for p in passes)

    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = _metric(
            sum(v for k, v in first["calls"].items() if k.startswith(layer + ".")), "count")
        metrics[f"{layer}.self_s"] = _metric(self_of(lambda k: k.startswith(layer + ".")), "s")
        metrics[f"{layer}.failed"] = _metric(first["failed"].get(layer, 0), "count")
    for name, spans in FUNCTION_SELF.items():
        metrics[name] = _metric(self_of(spans.__contains__), "s")
    for name in COUNTERS:
        metrics[name] = _metric(first["counters"].get(name, 0), "count")
    space = first["counters"].get("diagram.sf_space", 0)
    metrics["diagram.sf_ratio"] = _metric(
        first["counters"].get("diagram.sf_size", 0) / space if space else 0.0, "ratio")
    metrics["cli.import_ms"] = _metric(statistics.median(import_ms), "ms")
    child_kb = base["child_rss_kb"] if runner.args.workload == "cli-survey" else probe_rss
    metrics["cli.child_rss_mb"] = _metric(child_kb / 1024, "MB")
    metrics["trace.overhead_ratio"] = _metric(
        statistics.median(_pass_walls(traced)) / statistics.median(_pass_walls(base)), "ratio")
    metrics["trace.op_wall_s"] = _metric(statistics.median(traced["pass_wall"]), "s")
    metrics["trace.self_share"] = _metric(
        sum(sum(p["self_s"].values()) / w for p, w in zip(passes, traced["pass_wall"])) / len(passes),
        "ratio")
    return metrics, [base, traced]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="artin benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "artin", "__init__.py")):
        fail(f"no artin sources under {os.path.join(root, 'src')}; run from the root of a checkout")
    runner = Runner(args, root)
    metrics, results = (per_layer if args.trace else end_to_end)(runner)
    attempted, failed, correct, wrong = _check(results)
    for line in wrong[:20]:
        print(f"oracle mismatch: {line}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
