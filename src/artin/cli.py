"""Command-line surface: one subcommand per library operation.

Output is deterministic; JSON is the default format, `text` renders the
same data for humans, and `dot` emits Hasse diagrams for the poset
subcommands.  Exit codes: 0 success, 1 domain error (typed library
errors), 2 usage error.  Each subcommand imports only the library modules
it calls, and the parser is built for that subcommand alone.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from . import diagram
from .diagram import INF, classify_taxonomy, is_finite_type, preset
from .errors import DEFAULT_CAP, ArtinError, CapExceededError

FORMAT_VERSION = 1


def _positive_cap(text: str) -> int:
    try:
        cap = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if cap <= 0:
        raise argparse.ArgumentTypeError(f"cap must be positive, got {cap}")
    return cap


def _env_cap(parser) -> int:
    raw = os.environ.get("ARTIN_CAP")
    if raw is None:
        return DEFAULT_CAP
    try:
        cap = int(raw)
    except ValueError:
        raise ArtinError(f"ARTIN_CAP must be an integer, got {raw!r}") from None
    if cap <= 0:
        parser.error(f"ARTIN_CAP must be positive, got {cap}")
    return cap


def _split_subset(text: str) -> tuple[str, ...]:
    return tuple(x for x in re.split(r"[,\s]+", text.strip()) if x)


def _word(text: str) -> tuple[str, ...]:
    return tuple(text.split())


def _word_str(word) -> str:
    return "".join(word) or "e"


def _subset_list(d, T) -> list[str]:
    return sorted(T, key=d.index)


def _resolve_diagram(args, parser):
    if getattr(args, "preset", None) and getattr(args, "file", None):
        parser.error("pass exactly one diagram source (--preset or --file)")
    if getattr(args, "preset", None):
        return preset(args.preset)
    if getattr(args, "file", None):
        try:
            with open(args.file, encoding="utf-8") as fh:
                return diagram.parse_diagram(fh.read())
        except OSError as exc:
            raise ArtinError(f"cannot read {args.file}: {exc}") from None
    parser.error("a diagram source is required (--preset or --file)")


def _ball(args):
    return "all" if args.ball is None else int(args.ball)


# ---------------------------------------------------------------- handlers
# Each handler returns (json_obj, text, dot_or_None).


def _cmd_classify(d, args):
    finite, labels = is_finite_type(d)
    obj = {"finite_type": finite}
    if finite:
        obj["components"] = [lab.name for lab in labels]
        obj["witness"] = [
            {"component": lab.name, "assignment": dict(lab.assignment)} for lab in labels
        ]
        text = "finite type: yes\ncomponents: " + ", ".join(obj["components"])
    else:
        text = "finite type: no"
    return obj, text, None


def _cmd_taxonomy(d, args):
    rep = classify_taxonomy(d)
    obj = {
        "finite_type": rep.finite_type,
        "fc_type": rep.fc_type,
        "two_dimensional": rep.two_dimensional,
        "large_type": rep.large_type,
        "locally_reducible": rep.locally_reducible,
        "free_of_infinity": rep.free_of_infinity,
        "almost_spherical": rep.almost_spherical,
        "components": [
            lab.name if lab is not None else "non-spherical component"
            for lab in rep.components
        ],
    }
    text = "\n".join(f"{k}: {v}" for k, v in obj.items() if k != "components")
    text += "\ncomponents: " + ", ".join(obj["components"])
    return obj, text, None


def _cmd_sf(d, args):
    from . import complexes

    subsets = [_subset_list(d, T) for T in complexes._sf_sorted(d)]
    obj = {"count": len(subsets), "subsets": subsets}
    text = f"{len(subsets)} finite-type subsets\n" + "\n".join(
        "{" + ",".join(T) + "}" for T in subsets
    )
    return obj, text, None


def _cmd_form(d, args):
    from . import tits

    B = tits.bilinear_form(d)
    obj = {"vertices": list(d.vertices), "matrix": [[float(x) for x in row] for row in B]}
    text = "\n".join(
        "  ".join(f"{x: .6f}" for x in row) for row in B
    )
    return obj, text, None


def _cmd_signature(d, args):
    from . import tits

    sig = tits.signature(tits.bilinear_form(d), args.tol)
    obj = {
        "n_pos": sig.n_pos,
        "n_zero": sig.n_zero,
        "n_neg": sig.n_neg,
        "tol": sig.tol,
        "eigenvalues": list(sig.eigenvalues),
        "positive_definite": sig.n_zero == 0 and sig.n_neg == 0,
    }
    text = (
        f"signature (n_pos, n_zero, n_neg) = ({sig.n_pos}, {sig.n_zero}, {sig.n_neg})\n"
        f"positive definite: {obj['positive_definite']}"
    )
    return obj, text, None


def _cmd_rep_check(d, args):
    import numpy as np

    from . import tits

    tits._check_tol(args.tol)
    pairs = []
    ok = True
    for s, t, m in d.pairs():
        order = tits.pair_order(d, s, t, tol=args.tol)
        expected = None if m == INF else int(m)
        good = order == expected
        ok = ok and good
        pairs.append(
            {"s": s, "t": t, "m": "inf" if m == INF else int(m), "order": order, "ok": good}
        )
    dev = max(float(np.max(np.abs(M @ M - np.eye(d.rank))))
              for M in tits.reflection_matrices(d))
    involutions_ok = dev <= args.tol
    obj = {"ok": ok and involutions_ok, "involutions_ok": involutions_ok, "pairs": pairs}
    text = f"representation check: {'pass' if obj['ok'] else 'FAIL'}"
    for p in pairs:
        text += f"\n  ({p['s']},{p['t']}): m = {p['m']}, order = {p['order']}"
    return obj, text, None


def _cmd_cox_nf(d, args):
    from . import coxeter

    el = coxeter.normalize(d, _word(args.word), args.cap)
    obj = {"word": list(el.word), "length": el.length}
    return obj, _word_str(el.word), None


def _cmd_enumerate(d, args):
    from . import coxeter

    max_length = args.max_length if args.max_length == "all" else int(args.max_length)
    layers = coxeter.enumerate_elements(d, max_length, args.cap)
    counts = {str(k): len(layer) for k, layer in enumerate(layers)}
    obj = {"max_length": max_length, "counts": counts, "total": sum(map(len, layers))}
    if args.words:
        obj["words"] = [[list(e.word) for e in layer] for layer in layers]
    text = "\n".join(f"length {k}: {len(layer)}" for k, layer in enumerate(layers))
    text += f"\ntotal: {obj['total']}"
    return obj, text, None


def _cmd_longest(d, args):
    from . import coxeter

    el = coxeter.longest_element(d, args.cap)
    return {"word": list(el.word), "length": el.length}, _word_str(el.word), None


def _cmd_reflections(d, args):
    from . import coxeter

    ball = None if args.ball is None else int(args.ball)
    refl = sorted(coxeter.reflections(d, ball, args.cap), key=lambda e: e.sort_key())
    obj = {"count": len(refl), "reflections": [list(e.word) for e in refl]}
    text = f"{len(refl)} reflections\n" + "\n".join(_word_str(e.word) for e in refl)
    return obj, text, None


def _cmd_tmin(d, args):
    from . import coxeter

    w = coxeter.normalize(d, _word(args.word), args.cap)
    el = coxeter.t_minimal_representative(d, w, _split_subset(args.t), args.cap)
    return {"word": list(el.word), "length": el.length}, _word_str(el.word), None


def _cmd_coxeter_elements(d, args):
    from . import coxeter

    els = sorted(coxeter.coxeter_elements(d, cap=args.cap), key=lambda e: e.sort_key())
    obj = {"count": len(els), "elements": [list(e.word) for e in els]}
    text = "\n".join(_word_str(e.word) for e in els)
    return obj, text, None


def _cmd_mon_nf(d, args):
    from . import monoid

    el = monoid.canonicalize(d, _word(args.word), args.cap)
    return {"word": list(el.word), "length": el.length}, _word_str(el.word), None


def _cmd_mon_equal(d, args):
    from . import monoid

    eq = monoid.monoid_equal(d, _word(args.left), _word(args.right), args.cap)
    return eq, "true" if eq else "false", None


def _cmd_divides(d, args):
    from . import monoid

    cof = monoid.divides(d, _word(args.dvr), _word(args.word), args.side, args.cap)
    if cof is None:
        return {"divides": False, "cofactor": None}, "no", None
    return (
        {"divides": True, "cofactor": list(cof.word)},
        f"yes, cofactor {_word_str(cof.word)}",
        None,
    )


def _cmd_gcd(d, args):
    from . import monoid

    el = monoid.gcd(d, _word(args.left), _word(args.right), args.side, args.cap)
    return {"word": list(el.word), "length": el.length}, _word_str(el.word), None


def _cmd_lcm(d, args):
    from . import monoid

    el = monoid.lcm(
        d, _word(args.left), _word(args.right), args.side, args.cap, args.length_bound
    )
    if el is None:
        return {"word": None}, "none within bound", None
    return {"word": list(el.word), "length": el.length}, _word_str(el.word), None


def _cmd_delta(d, args):
    from . import monoid

    T = d.vertices if args.t is None else _split_subset(args.t)
    el = monoid.garside_element(d, T, args.cap)
    return {"word": list(el.word), "length": el.length}, _word_str(el.word), None


def _cmd_sigma(d, args):
    from . import monoid

    table = monoid.garside_permutation(d, args.cap)
    obj = {"sigma": {s: table[s] for s in d.vertices}}
    text = "\n".join(f"{s} -> {table[s]}" for s in d.vertices)
    return obj, text, None


def _cmd_garside_nf(d, args):
    from . import monoid

    nf = monoid.garside_normal_form(d, _word(args.word), args.cap)
    obj = {"blocks": nf.to_json_obj()}
    text = " . ".join("{" + ",".join(T) + "}" for T in nf.blocks) or "e"
    return obj, text, None


def _cmd_axioms(d, args):
    from . import monoid

    rep = monoid.verify_garside_axioms(d, args.length_cap, args.cap)
    obj = rep.to_json_obj()
    text = "\n".join(
        f"{k}: {v}" for k, v in obj.items() if k != "lcm_failures"
    )
    if obj["lcm_failures"]:
        text += "\nlcm failures: " + "; ".join(
            f"({_word_str(a)}, {_word_str(b)})" for a, b in rep.lcm_failures
        )
    return obj, text, None


def _cmd_grp_nf(d, args):
    from . import group

    g = group.from_letters(d, args.word, args.cap)
    obj = g.to_json_obj()
    return obj, f"Delta^{g.k} * {_word_str(g.a.word)}", None


def _cmd_grp_equal(d, args):
    from . import group

    g = group.from_letters(d, args.left, args.cap)
    h = group.from_letters(d, args.right, args.cap)
    eq = group.equal(g, h)
    return eq, "true" if eq else "false", None


def _cmd_fraction(d, args):
    from . import group

    g = group.from_letters(d, args.word, args.cap)
    a, b = group.fraction_decomposition(g, args.cap)
    obj = {"a": list(a.word), "b": list(b.word)}
    return obj, f"({_word_str(a.word)})^-1 * {_word_str(b.word)}", None


def _cmd_section(d, args):
    from . import coxeter, group

    w = coxeter.normalize(d, _word(args.word), args.cap)
    g = group.canonical_section(d, w, args.cap)
    return g.to_json_obj(), f"Delta^{g.k} * {_word_str(g.a.word)}", None


def _cmd_project(d, args):
    from . import group

    g = group.from_letters(d, args.word, args.cap)
    w = group.project(g, args.cap)
    obj = {"word": list(w.word), "pure": w.length == 0}
    return obj, _word_str(w.word), None


def _cmd_cell_poset(d, args):
    from . import complexes

    p = getattr(complexes, f"{args.command}_poset")(d, _ball(args), args.cap)
    text = f"{len(p)} elements, {len(p.covers())} cover relations"
    return p.to_json_obj(), text, p.to_dot()


def _cmd_deligne_fd(d, args):
    from . import complexes

    p, c = complexes.deligne_fundamental_domain(d)
    obj = {"poset": p.to_json_obj(), "complex": c.to_json_obj()}
    text = f"{len(p)} elements, order complex f-vector {obj['complex']['f_vector']}"
    return obj, text, p.to_dot("deligne_fd")


def _cmd_homology(d, args):
    from . import complexes

    if args.complex == "deligne-fd":
        p = complexes._deligne_poset(d)
    else:
        p = getattr(complexes, f"{args.complex}_poset")(d, _ball(args), args.cap)
    # every maximal chain is a facet: count them before order_complex lists them
    if p._count_maximal_chains() > complexes.DEFAULT_FACE_GUARD:
        raise CapExceededError("homology face count", complexes.DEFAULT_FACE_GUARD)
    h = complexes.homology(complexes.order_complex(p))
    obj = {
        "complex": args.complex,
        **h.to_json_obj(),
        # Euler-Poincare: the alternating sum of the Betti numbers
        "euler": sum((-1) ** k * b for k, b in enumerate(h.betti)),
    }
    return obj, h.pretty(), None


def _cmd_quotient_cells(d, args):
    from . import complexes

    q = complexes.salvetti_quotient_cells(d)
    obj = q.to_json_obj()
    text = f"f-vector {list(q.f_vector)}, euler {q.euler_characteristic}"
    return obj, text, None


def _cmd_abelianization(d, args):
    from . import complexes

    ab = complexes.abelianization(d)
    return ab.to_json_obj(), ab.pretty(), None


def _chamber_input(args, parser):
    from . import shelling

    if args.chambers:
        if args.preset or args.file:
            parser.error("pass either --chambers or a diagram source, not both")
        try:
            with open(args.chambers, encoding="utf-8") as fh:
                cc, idx = shelling.parse_chamber_json(fh.read())
        except OSError as exc:
            raise ArtinError(f"cannot read {args.chambers}: {exc}") from None
    else:
        d = _resolve_diagram(args, parser)
        cc, idx = shelling.coxeter_chamber_system(d, _ball(args), args.cap)
    if getattr(args, "index", None):
        idx = tuple(int(v) for v in args.index.split(","))
    return cc, idx


def _cmd_shelling_check(args, parser):
    from . import shelling

    cc, idx = _chamber_input(args, parser)
    if idx is None:
        raise ArtinError("no index function: add \"index\" to the JSON or pass --index")
    rep = shelling.verify_claims(cc, idx)
    obj = rep.to_json_obj()
    if rep.passed:
        text = f"claims A and B pass at all levels; conclusion: {rep.conclusion}"
    else:
        first = (rep.claim_a + rep.claim_b)[0]
        text = f"FAIL at level {first.level}, chambers {list(first.chambers)}: {first.witness}"
    return obj, text, None


def _cmd_is_shelling(args, parser):
    from . import shelling

    cc, _ = _chamber_input(args, parser)
    if args.order:
        order = tuple(int(v) for v in args.order.split(","))
    else:
        order = tuple(range(len(cc.chambers)))
    chk = shelling.is_shelling(cc, order)
    obj = chk.to_json_obj()
    text = "true" if chk.ok else f"false ({chk.witness})"
    return obj, text, None


# ---------------------------------------------------------------- parser

_DIAGRAM_CMDS = {
    "classify": (_cmd_classify, {}),
    "taxonomy": (_cmd_taxonomy, {}),
    "sf": (_cmd_sf, {}),
    "form": (_cmd_form, {}),
    "signature": (_cmd_signature, {"tol": 1e-8}),
    "rep-check": (_cmd_rep_check, {"tol": 1e-9}),
    "cox-nf": (_cmd_cox_nf, {"word": True}),
    "enumerate": (_cmd_enumerate, {"max_length": True}),
    "longest": (_cmd_longest, {}),
    "reflections": (_cmd_reflections, {"ball_opt": True}),
    "tmin": (_cmd_tmin, {"word": True, "t": True}),
    "coxeter-elements": (_cmd_coxeter_elements, {}),
    "mon-nf": (_cmd_mon_nf, {"word": True}),
    "mon-equal": (_cmd_mon_equal, {"left_right": True}),
    "divides": (_cmd_divides, {"dvr": True, "word": True, "side": True}),
    "gcd": (_cmd_gcd, {"left_right": True, "side": True}),
    "lcm": (_cmd_lcm, {"left_right": True, "side": True, "length_bound": True}),
    "delta": (_cmd_delta, {"t_opt": True}),
    "sigma": (_cmd_sigma, {}),
    "garside-nf": (_cmd_garside_nf, {"word": True}),
    "axioms": (_cmd_axioms, {"length_cap": 4}),
    "grp-nf": (_cmd_grp_nf, {"word": True}),
    "grp-equal": (_cmd_grp_equal, {"left_right": True}),
    "fraction": (_cmd_fraction, {"word": True}),
    "section": (_cmd_section, {"word": True}),
    "project": (_cmd_project, {"word": True}),
    "salvetti": (_cmd_cell_poset, {"ball_opt": True, "dot": True}),
    "davis": (_cmd_cell_poset, {"ball_opt": True, "dot": True}),
    "deligne-fd": (_cmd_deligne_fd, {"dot": True}),
    "homology": (_cmd_homology, {"complex": True, "ball_opt": True}),
    "quotient-cells": (_cmd_quotient_cells, {}),
    "abelianization": (_cmd_abelianization, {}),
}

_CHAMBER_CMDS = {
    "shelling-check": (_cmd_shelling_check, {"index_opt": True}),
    "is-shelling": (_cmd_is_shelling, {"order_opt": True}),
}


def build_parser() -> argparse.ArgumentParser:
    return _build_parser(None)


def _build_parser(only) -> argparse.ArgumentParser:
    """The artin parser; with `only` a subcommand name, that subparser alone."""
    from . import __version__

    parser = argparse.ArgumentParser(
        prog="artin",
        description="Exact combinatorics of Coxeter diagrams, Artin monoids and groups, "
        "and their complexes.",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"artin {__version__} (format {FORMAT_VERSION})",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="SUBCOMMAND")

    def add_common(sp, opts, chambers=False):
        sp.add_argument("--preset", help="preset diagram name, e.g. A2, B3, I2(5), Atilde2")
        sp.add_argument("--file", help="path to a diagram JSON file")
        formats = ["json", "text"] + (["dot"] if opts.get("dot") else [])
        sp.add_argument("--format", choices=formats, default="json")
        sp.add_argument(
            "--cap",
            type=_positive_cap,
            default=None,
            help="work bound per call: new root coefficients, monoid and group "
            "normal-form steps (default ARTIN_CAP or 10^6)",
        )
        if "tol" in opts:
            sp.add_argument("--tol", type=float, default=opts["tol"])
        if opts.get("word"):
            sp.add_argument("--word", required=True, help="whitespace-separated letters")
        if opts.get("left_right"):
            sp.add_argument("--left", required=True)
            sp.add_argument("--right", required=True)
        if opts.get("dvr"):
            sp.add_argument("--dvr", required=True, help="the divisor word")
        if opts.get("side"):
            sp.add_argument("--side", choices=["left", "right"], default="left")
        if opts.get("t"):
            sp.add_argument("--t", required=True, help="subset, comma-separated")
        if opts.get("t_opt"):
            sp.add_argument("--t", default=None, help="subset, comma-separated (default: all)")
        if opts.get("max_length"):
            sp.add_argument("--max-length", default="all")
            sp.add_argument("--words", action="store_true", help="include full word lists")
        if opts.get("ball_opt") or chambers:
            sp.add_argument("--ball", type=int, default=None, help="radius for infinite groups")
        if opts.get("length_bound"):
            sp.add_argument("--length-bound", type=int, default=None)
        if "length_cap" in opts:
            sp.add_argument("--length-cap", type=int, default=opts["length_cap"])
        if opts.get("complex"):
            sp.add_argument(
                "--complex",
                choices=["salvetti", "davis", "deligne-fd"],
                required=True,
            )
        if chambers:
            sp.add_argument("--chambers", help="chamber complex JSON file")
        if opts.get("index_opt"):
            sp.add_argument("--index", help="comma-separated index function override")
        if opts.get("order_opt"):
            sp.add_argument("--order", help="comma-separated chamber order (default: listed)")

    for chambers, table in ((False, _DIAGRAM_CMDS), (True, _CHAMBER_CMDS)):
        for name, (handler, opts) in table.items():
            if only is not None and name != only:
                continue
            sp = sub.add_parser(name)
            add_common(sp, opts, chambers)
            sp.set_defaults(handler=handler, chamber_cmd=chambers, subparser=sp)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # A known subcommand needs only its own subparser; anything else (help,
    # --version, a bad name) gets the full parser and its choice list.
    known = argv and (argv[0] in _DIAGRAM_CMDS or argv[0] in _CHAMBER_CMDS)
    parser = _build_parser(argv[0] if known else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.cap is None:
            args.cap = _env_cap(args.subparser)
        if args.chamber_cmd:
            obj, text, dot = args.handler(args, args.subparser)
        else:
            d = _resolve_diagram(args, args.subparser)
            obj, text, dot = args.handler(d, args)
    except SystemExit as exc:  # parser.error inside handlers
        return int(exc.code or 0)
    except (ArtinError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.format == "json":
        print(json.dumps(obj, indent=2))
    elif args.format == "text":
        print(text)
    else:
        if dot is None:
            print("error: dot output is not available for this subcommand", file=sys.stderr)
            return 2
        print(dot)
    return 0


def entry() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout: send what is left to /dev/null so the
        # interpreter's final flush cannot raise again, and report failure.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":
    entry()
