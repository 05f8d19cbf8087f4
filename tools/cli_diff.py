"""Run one argv corpus through `artin.cli.main` on two checkouts and print
every argv whose exit code, stdout or stderr differ.

    python3 tools/cli_diff.py --parent ../parent --change .

Each side runs the whole corpus in one subprocess with `src/` of its
checkout on PYTHONPATH, calling `main` in process and clearing
`coxeter._engine` before each argv, so every argv starts from cold engines.
Both sides share one temporary directory of input files, the same
environment (without ARTIN_CAP, with COLUMNS=80 for help text) and the
same PYTHONHASHSEED.  The corpus covers every subcommand in json and text,
and in dot where offered, on six presets, `--help` of the tool and of every
subcommand, the usage and domain error paths, and a low-cap section: the
Garside and group subcommands and `tmin` on A3, B3, H3, F4 and I2(6) at six
caps from 5 to 40, where a change to the work a call does shows as a cap
trip that moves (the group words name u, so on I2(6) they end in an error;
`tmin` peels right descents off a coset), plus three malformed inputs (an
unknown letter in `tmin --t` and in `grp-equal --right`, a non-integer
`shelling-check --index`) whose error must read the same at every cap, so
an input checked after capped work shows as a diff.  `shelling-check --index
-1,0` and `is-shelling --order -1,0` on each preset, `signature --tol -1e-3`
and the abbreviation `is-shelling --ord -1,0` check that a negative value
given apart from its flag reaches the value check, as `--order=-1,0` does,
and `enumerate --cap -5` that a value argparse already reads stays as it was.
Heavier argv cover the routes that list no face.  In json and text,
`homology --preset A4 --complex salvetti` runs on the poset's 1,920 cells,
and `deligne-fd --preset A8` counts the f-vector of 2,183,339 faces from the
poset's chains; in text and dot, `deligne-fd --preset A8` and `salvetti
--preset A4` build only the payload asked for.  `homology --complex
salvetti`, in json and text, runs Salvetti's boundary on the cells of B2,
I2(8), A3, A1 x A1 x A1 and A1 x A2, each from a diagram file in its
vertex order and in the reverse one, since the order moves the signs.
`shelling-check --index` and `is-shelling --order` run the chamber systems
of F4 (json and text) and H4 (json) under a fixed shuffle of the length
index or of the chambers, where most chambers fail, and both read
`--chambers` files of points (n = 0), with a repeated chamber, and with a
Claim B failure.  `sf`, `taxonomy`, `quotient-cells`, `deligne-fd` (json,
text and dot) and `homology --complex deligne-fd` read seeded random diagram
files of rank 6 to 12 in the cli-survey style (labels 3, 4, 5, 6 and inf, edge
probability 0.45 and 0.9), each in its vertex order and in the reverse one,
since the order fixes the listing of Sf and the Deligne poset's elements.
`salvetti` and `davis` on `--preset B3 --ball 6` and `--ball 7` and on
`--preset H3 --ball 10`, in json and dot, cover balls of a finite group, where
a Salvetti cover can pass a face outside the ball and a Davis cell's covers
are its faces.  `homology --preset E8 --ball 1` with `--complex davis` and
`--complex salvetti` stop at the facet guard inside `homology`, which counts
the 362,880 and 2,419,200 maximal chains without listing one.
`homology --complex davis --preset Atilde2 --ball 6` and `homology --complex
salvetti --preset Atilde2 --ball 3`, in json and text, list the chains of an
order complex that is not a cone, off its poset's up-closure bitsets.
Exit code 1 if any argv differs, else 0.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import random
import shlex
import subprocess
import sys
import tempfile

_CHILD = """
import contextlib, io, json, sys, traceback
from artin import cli, coxeter
results = []
for argv in json.load(sys.stdin):
    coxeter._engine.cache_clear()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception:
            code = "traceback"
            traceback.print_exc()
    results.append([code, out.getvalue(), err.getvalue()])
json.dump(results, sys.stdout)
"""

PRESETS = {"A1": "s", "A2": "s t", "B3": "s t u", "I2(5)": "s t", "Atilde2": "s t u", "H3": "s t u"}
SUBCOMMANDS = (
    "classify", "taxonomy", "sf", "form", "signature", "rep-check", "cox-nf", "enumerate",
    "longest", "reflections", "tmin", "coxeter-elements", "mon-nf", "mon-equal", "divides",
    "gcd", "lcm", "delta", "sigma", "garside-nf", "axioms", "grp-nf", "grp-equal", "fraction",
    "section", "project", "salvetti", "davis", "deligne-fd", "homology", "quotient-cells",
    "abelianization", "shelling-check", "is-shelling",
)
DOT = ("salvetti", "davis", "deligne-fd")
# a diagram with labels 3, 6 and inf, the triangle the cap thresholds use
TRIANGLE = {"vertices": ["a", "b", "c"], "edges": [
    {"a": "a", "b": "b", "m": "inf"}, {"a": "a", "b": "c", "m": 3}, {"a": "b", "b": "c", "m": 6}]}
# the low-cap section: each subcommand and its arguments, on every preset at every cap;
# F4 and I2(6) act over Z with unequal Cartan constants, B3 too
LOW_CAP_PRESETS = ("A3", "B3", "H3", "F4", "I2(6)")
LOW_CAP_ARGS = (
    ["delta"], ["delta", "--t", "s,t"], ["sigma"], ["longest"],
    ["grp-nf", "--word", "s u^-1 t s"],
    ["grp-equal", "--left", "s u^-1 t s", "--right", "t^-1 t s u^-1 t s"],
    ["fraction", "--word", "s u^-1 t s"],
    ["tmin", "--word", "s t s t s", "--t", "t"],
    # malformed inputs, checked before any capped work
    ["tmin", "--word", "s t", "--t", "zz"],
    ["grp-equal", "--left", "s t^-1 s t", "--right", "s zz"],
    ["shelling-check", "--index", "x"],
)
LOW_CAPS = (5, 8, 10, 20, 32, 40)
CHAMBERS = {"n": 1, "chambers": [["a", "b"], ["b", "c"], ["c", "d"], ["a", "d"]],
            "index": [0, 1, 2, 1]}
# chamber files the verifier handles apart: points, a repeated chamber, two
# triangles at one level glued to the first along its edges but sharing the edge ax
CHAMBER_FILES = {
    "points": {"n": 0, "chambers": [["a"], ["b"], ["a"], ["c"]], "index": [0, 1, 1, 2]},
    "repeated": {"n": 1, "chambers": [["a", "b"], ["b", "c"], ["a", "b"], ["c", "d"]],
                 "index": [0, 1, 1, 2]},
    "claim_b": {"n": 2, "chambers": [["a", "b", "c"], ["a", "b", "x"], ["a", "c", "x"]],
                "index": [0, 1, 1]},
}
# degrees of the finite groups whose chamber systems get a shuffled index
DEGREES = {"F4": (2, 6, 8, 12), "H4": (2, 12, 20, 30)}
# finite Salvetti cells from diagram files, each also written in the reverse vertex order;
# the two products are the homology benchmark's
SALVETTI_FILES = {
    "b2": {"vertices": ["s", "t"], "edges": [{"a": "s", "b": "t", "m": 4}]},
    "i2_8": {"vertices": ["s", "t"], "edges": [{"a": "s", "b": "t", "m": 8}]},
    "a3": {"vertices": ["s", "t", "u"], "edges": [
        {"a": "s", "b": "t", "m": 3}, {"a": "t", "b": "u", "m": 3}]},
    "a1a1a1": {"vertices": ["a", "b", "c"], "edges": []},
    "a1a2": {"vertices": ["a", "b", "c"], "edges": [{"a": "b", "b": "c", "m": 3}]},
}

# seeded random diagrams in the cli-survey style, ranks 6 to 12 at edge
# probabilities 0.45 and 0.9, each also written in the reverse vertex order,
# which moves the listing order of Sf and so the Deligne poset's elements
SF_ARGV = (["sf"], ["taxonomy"], ["quotient-cells"], ["deligne-fd"],
           ["homology", "--complex", "deligne-fd"])
SF_RANKS, SF_EDGE_PROBABILITIES = range(6, 13), (0.45, 0.9)


def _random_diagram(rank: int, p_edge: float, seed: int) -> dict:
    """Each pair of the letters a, b, ... joined with probability `p_edge` by a
    label drawn from 3, 3, 4, 5, 6 and inf."""
    rng = random.Random(seed)
    names = list("abcdfghijklmnopqrstuvwxyz"[:rank])
    edges = [{"a": a, "b": b, "m": rng.choice((3, 3, 4, 5, 6, "inf"))}
             for a, b in itertools.combinations(names, 2) if rng.random() < p_edge]
    return {"vertices": names, "edges": edges}


def _args(name: str, letters: list[str], infinite: bool) -> list[list[str]]:
    """The subcommand-specific arguments to try on a diagram with these
    letters: one or more argument lists."""
    s, last = letters[0], letters[-1]
    word = " ".join(letters + letters[:1])
    signed = f"{s} {last}^-1 {s}"
    lr = ["--left", " ".join(letters), "--right", " ".join(reversed(letters))]
    ball = ["--ball", "2"] if infinite else []
    return {
        "signature": [[], ["--tol", "1e-3"]],
        "rep-check": [[], ["--tol", "1e-3"]],
        "cox-nf": [["--word", word]],
        "enumerate": [["--max-length", "3"], ["--max-length", "2", "--words"]]
        + ([] if infinite else [[]]),
        "reflections": [ball],
        "tmin": [["--word", word, "--t", s]],
        "mon-nf": [["--word", word]],
        "mon-equal": [lr],
        "divides": [["--dvr", s, "--word", word], ["--dvr", last, "--word", s, "--side", "right"]],
        "gcd": [lr, lr + ["--side", "right"]],
        "lcm": [lr, lr + ["--side", "right", "--length-bound", "3"]],
        "delta": [[], ["--t", s]],
        "garside-nf": [["--word", word]],
        "axioms": [["--length-cap", "2"]],
        "grp-nf": [["--word", signed]],
        "grp-equal": [["--left", signed, "--right", f"{s}^-1 {s} {signed}"]],
        "fraction": [["--word", signed]],
        "section": [["--word", word]],
        "project": [["--word", signed]],
        "salvetti": [ball],
        "davis": [ball, ["--ball", "1"]],
        "homology": [["--complex", c] + (ball if c != "deligne-fd" else [])
                     for c in ("salvetti", "davis", "deligne-fd")],
        "shelling-check": [["--ball", "1"] if infinite else []],
        "is-shelling": [["--ball", "1"] if infinite else []],
    }.get(name, [[]])


def _shuffled_lengths(degrees, seed: int) -> str:
    """A fixed shuffle of the element lengths of a finite Coxeter group,
    counted by its Poincare polynomial, the product of [d]_q over its degrees."""
    counts = [1]
    for d in degrees:
        counts = [sum(counts[max(0, k - d + 1):k + 1]) for k in range(len(counts) + d - 1)]
    index = [k for k, c in enumerate(counts) for _ in range(c)]
    random.Random(seed).shuffle(index)
    return ",".join(map(str, index))


def _shuffled_order(size: int, seed: int) -> str:
    return ",".join(map(str, random.Random(seed).sample(range(size), size)))


def _corpus(tmp: str) -> list[list[str]]:
    """The argv list, reading its input files from `tmp`."""
    files = {"triangle": TRIANGLE, "chambers": CHAMBERS, "bad": {"vertices": 5}}
    triangle, chambers, bad = (os.path.join(tmp, f"{stem}.json") for stem in files)
    files.update(CHAMBER_FILES)
    for stem, obj in SALVETTI_FILES.items():
        files[stem] = obj
        files[f"{stem}_reversed"] = {**obj, "vertices": obj["vertices"][::-1]}
    sf_stems = []
    for rank in SF_RANKS:
        for k, p_edge in enumerate(SF_EDGE_PROBABILITIES):
            obj = _random_diagram(rank, p_edge, 100 * rank + k)
            files[f"random{rank}_{k}"] = obj
            files[f"random{rank}_{k}_reversed"] = {**obj, "vertices": obj["vertices"][::-1]}
            sf_stems += [f"random{rank}_{k}", f"random{rank}_{k}_reversed"]
    for stem, obj in files.items():
        with open(os.path.join(tmp, f"{stem}.json"), "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
    corpus = [[], ["--help"], ["--version"], ["nosuch"]]
    for name in SUBCOMMANDS:
        corpus.append([name, "--help"])
        formats = ("json", "text", "dot") if name in DOT else ("json", "text")
        sources = [(["--preset", p], letters.split(), p == "Atilde2") for p, letters in PRESETS.items()]
        sources.append((["--file", triangle], ["a", "b", "c"], True))
        for source, letters, infinite in sources:
            for extra in _args(name, letters, infinite):
                corpus += [[name, *source, *extra, "--format", f] for f in formats]
        corpus += [
            [name], [name, "--preset", "A2", "--file", triangle], [name, "--preset", "Z9"],
            [name, "--file", bad], [name, "--file", os.path.join(tmp, "missing.json")],
            [name, "--preset", "A2", "--bogus"], [name, "--preset", "A2", "--format", "xml"],
            [name, "--preset", "A2", "--cap", "0"], [name, "--preset", "A2", "--cap", "x"],
            [name, "--preset", "A2", "--cap", "3"],
        ]
    for name in ("shelling-check", "is-shelling"):
        corpus += [[name, "--chambers", chambers, "--format", f] for f in ("json", "text")]
        corpus += [[name, "--chambers", chambers, "--preset", "A2"],
                   [name, "--chambers", bad], [name, "--chambers", os.path.join(tmp, "no.json")]]
    corpus += [[name, "--chambers", os.path.join(tmp, f"{stem}.json"), "--format", f]
               for stem in CHAMBER_FILES for name in ("shelling-check", "is-shelling")
               for f in ("json", "text")]
    # chamber systems with a shuffled index or order: most chambers fail
    for p, formats in (("F4", ("json", "text")), ("H4", ("json",))):
        size = len(_shuffled_lengths(DEGREES[p], 0).split(","))
        corpus += [[name, "--preset", p, flag, value, "--format", f]
                   for name, flag, value in (
                       ("shelling-check", "--index", _shuffled_lengths(DEGREES[p], 1)),
                       ("is-shelling", "--order", _shuffled_order(size, 2)))
                   for f in formats]
    corpus += [
        ["shelling-check", "--chambers", chambers, "--index", "0,2,1,1"],
        ["shelling-check", "--preset", "A2", "--index", "0,1"],
        ["is-shelling", "--chambers", chambers, "--order", "3,2,1,0"],
        ["is-shelling", "--preset", "A2", "--order", "0,0"],
    ]
    # a negative first value, spelled apart from its flag
    corpus += [[name, "--preset", p, flag, "-1,0"] for p in PRESETS
               for name, flag in (("shelling-check", "--index"), ("is-shelling", "--order"))]
    corpus += [["signature", "--preset", "A2", "--tol", "-1e-3"],
               ["is-shelling", "--preset", "B3", "--ord", "-1,0"],
               ["enumerate", "--preset", "A2", "--cap", "-5"]]
    for flag, argv in (("--ball", ["salvetti", "--preset", "Atilde2"]),
                       ("--ball", ["reflections", "--preset", "Atilde2"]),
                       ("--ball", ["shelling-check", "--preset", "Atilde2"]),
                       ("--length-cap", ["axioms", "--preset", "A2"]),
                       ("--length-bound", ["lcm", "--preset", "A2", "--left", "s", "--right", "t"])):
        corpus += [argv + [flag, v] for v in ("-1", "0", "x")]
    corpus += [
        ["enumerate", "--preset", "A2", "--max-length", "-1"],
        ["enumerate", "--preset", "A2", "--max-length", "x"],
        ["enumerate", "--preset", "Atilde2"],
        ["signature", "--preset", "A2", "--tol", "-1"],
        ["rep-check", "--preset", "A2", "--tol", "nan"],
        ["cox-nf", "--preset", "A2", "--word", "s x"],
        ["delta", "--preset", "A2", "--t", "s,x"],
        ["delta", "--preset", "A2", "--t", ""],
        ["homology", "--preset", "A2", "--complex", "nosuch"],
        ["homology", "--preset", "A9", "--complex", "deligne-fd"],
        ["homology", "--preset", "A4", "--complex", "salvetti", "--format", "json"],
        ["homology", "--preset", "A4", "--complex", "salvetti", "--format", "text"],
        ["deligne-fd", "--preset", "A8", "--format", "json"],
        ["deligne-fd", "--preset", "A8", "--format", "text"],
        ["deligne-fd", "--preset", "A8", "--format", "dot"],
        ["salvetti", "--preset", "A4", "--format", "text"],
        ["salvetti", "--preset", "A4", "--format", "dot"],
        *([name, "--preset", p, "--ball", ball, "--format", f]
          for name in ("salvetti", "davis") for p, ball in (("B3", "6"), ("B3", "7"), ("H3", "10"))
          for f in ("json", "dot")),
        ["homology", "--preset", "E8", "--ball", "1", "--complex", "davis"],
        ["homology", "--preset", "E8", "--ball", "1", "--complex", "salvetti"],
        *(["homology", "--complex", name, "--preset", "Atilde2", "--ball", ball, "--format", f]
          for name, ball in (("davis", "6"), ("salvetti", "3")) for f in ("json", "text")),
        ["divides", "--preset", "A2", "--dvr", "s", "--word", "t", "--side", "up"],
    ]
    corpus += [["homology", "--file", os.path.join(tmp, f"{stem}{order}.json"), "--complex",
                "salvetti", "--format", f]
               for stem in SALVETTI_FILES for order in ("", "_reversed") for f in ("json", "text")]
    corpus += [[name, "--file", os.path.join(tmp, f"{stem}.json"), *extra, "--format", f]
               for stem in sf_stems for name, *extra in SF_ARGV
               for f in (("json", "text", "dot") if name in DOT else ("json", "text"))]
    corpus += [[name, "--preset", p, *extra, "--cap", str(cap)]
               for p in LOW_CAP_PRESETS for name, *extra in LOW_CAP_ARGS for cap in LOW_CAPS]
    return corpus


def _run(root: str, corpus: list[list[str]], cwd: str) -> list[list]:
    env = {k: v for k, v in os.environ.items() if k != "ARTIN_CAP"}
    env.update(PYTHONPATH=os.path.join(os.path.abspath(root), "src"), COLUMNS="80",
               PYTHONHASHSEED="0")
    proc = subprocess.run([sys.executable, "-c", _CHILD], input=json.dumps(corpus), cwd=cwd,
                          env=env, capture_output=True, text=True, check=False)
    if proc.returncode:
        raise SystemExit(f"{root}: the corpus run failed (exit {proc.returncode}):\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="checkout of the parent commit")
    ap.add_argument("--change", required=True, help="checkout of the change")
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        corpus = _corpus(tmp)
        parent = _run(args.parent, corpus, tmp)
        change = _run(args.change, corpus, tmp)
    differ = 0
    for argv_, old, new in zip(corpus, parent, change):
        if old == new:
            continue
        differ += 1
        print(shlex.join(argv_))
        for label, a, b in zip(("exit", "stdout", "stderr"), old, new):
            if a != b:
                print(f"  {label}: {a!r:.200} -> {b!r:.200}")
    print(f"{differ} of {len(corpus)} argv differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
