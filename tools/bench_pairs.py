"""Run the benchmark on two checkouts in alternating pairs and record the
end-to-end metrics as a BENCH_*.json file.

    python3 tools/bench_pairs.py --parent ../parent --change . \
        --workload coxeter-enum --seeds 1301-1311 --out BENCH_13.json

Each seed gives one pair: both checkouts run `artinbench/run.py` with that
seed for the `run_seconds` of the change's BENCHMARK.json, in turn, the side
that goes first alternating from pair to pair so a drift in host speed falls
on both.  For every end-to-end metric the file keeps each side's per-pair
values, median and quartiles (the `inclusive` method of
`statistics.quantiles`), and the number of pairs the change won, "better"
taken from BENCHMARK.json.  Both checkouts must be git checkouts: the file
records the parent's short commit id, and each workload records the change's,
with the first 8 hex digits of the sha256 of `git diff HEAD` when the change's
tracked files differ from its commit.  Workloads already in `--out` are kept,
so one file collects several invocations against one parent.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys


def _seeds(text: str) -> list[int]:
    """The seeds of "1301-1310" or "5,9,12": at least two, for the quartiles,
    each once, and no range reversed."""
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        lo, hi = int(lo), int(hi or lo)
        if hi < lo:
            raise argparse.ArgumentTypeError(f"reversed seed range {part}")
        out.extend(range(lo, hi + 1))
    if len(set(out)) < len(out):
        raise argparse.ArgumentTypeError(f"a seed repeats in {text}")
    if len(out) < 2:
        raise argparse.ArgumentTypeError(f"{text} gives {len(out)} seed(s); quartiles need two")
    return out


def _run(root: str, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, "artinbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True, check=False,
    )
    failed = f"{root}: {workload} seed {seed} failed"
    if proc.returncode or not proc.stdout.strip():
        raise SystemExit(f"{failed} (exit {proc.returncode}): {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{failed}: incorrect result\n{proc.stderr[-2000:]}")
    return result


def _git(root: str, *args: str) -> bytes:
    return subprocess.run(["git", "-C", root, *args], capture_output=True, check=True).stdout


def _summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"values": values, "median": statistics.median(values), "q1": q1, "q3": q3}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="checkout of the parent commit")
    ap.add_argument("--change", required=True, help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, type=_seeds, help="e.g. 1301-1310 or 5,9,12")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    with open(os.path.join(args.change, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    parent = _git(args.parent, "rev-parse", "--short", "HEAD").decode().strip()
    version = {"change_commit": _git(args.change, "rev-parse", "--short", "HEAD").decode().strip()}
    if diff := _git(args.change, "diff", "HEAD"):
        version["change_diff"] = hashlib.sha256(diff).hexdigest()[:8]
    seeds = args.seeds
    runs = {"parent": [], "change": []}
    failed = {"parent": 0, "change": 0}
    for k, seed in enumerate(seeds):
        sides = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for side in sides:
            result = _run(getattr(args, side), args.workload, seed, seconds)
            failed[side] += result["failed"]
            runs[side].append({m: v["value"] for m, v in result["metrics"].items()})
        print(f"{args.workload} seed {seed}: " + ", ".join(
            f"{m} {runs['parent'][-1][m]:.4g} -> {runs['change'][-1][m]:.4g}" for m in better
        ), file=sys.stderr)

    metrics = {}
    for m, direction in better.items():
        old = [r[m] for r in runs["parent"]]
        new = [r[m] for r in runs["change"]]
        wins = sum((b > a) if direction == "higher" else (b < a) for a, b in zip(old, new))
        metrics[m] = {"better": direction, "parent": _summary(old), "change": _summary(new),
                      "change_wins": wins}
    record = {"pairs": len(seeds), "seeds": seeds, "seconds": seconds, **version,
              "failed_ops": failed, "metrics": metrics}

    doc = {}
    if os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as fh:
            doc = json.load(fh)
    if doc.setdefault("parent", parent) != parent:
        raise SystemExit(f"{args.out} holds runs against {doc['parent']}, not {parent}")
    doc.setdefault("workloads", {})[args.workload] = record
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
