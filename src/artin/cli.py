"""Command-line surface: one subcommand per library operation.

Output is deterministic; JSON is the default format, `text` renders the
same data for humans, and `dot` emits Hasse diagrams for the poset
subcommands.  Exit codes: 0 success, 1 domain error (typed library
errors), 2 usage error.

Each row of the one subcommand table names its handler and declares its
own arguments, as (flag, add_argument keywords) specs that follow the common
ones.  Every handler takes (diagram, args); `main` resolves the diagram, or
passes None when --chambers replaces it.  The library modules other than
`diagram` and `errors` are bound to handles that import the module on its
first attribute access, so a subcommand loads only the library modules its
handler calls, and the parser is built for that subcommand alone.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import json
import os
import re
import sys

from . import diagram
from .diagram import INF, classify_taxonomy, is_finite_type, preset
from .errors import DEFAULT_CAP, ArtinError

FORMAT_VERSION = 1


class _Lazy:
    """A library module, imported on its first attribute access."""

    def __init__(self, name: str):
        self._name = f"artin.{name}"

    def __getattr__(self, attr: str):
        return getattr(importlib.import_module(self._name), attr)


complexes, coxeter, group, monoid, shelling, tits = map(
    _Lazy, ("complexes", "coxeter", "group", "monoid", "shelling", "tits")
)


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _positive_cap(text: str) -> int:
    cap = _int(text)
    if cap <= 0:
        raise argparse.ArgumentTypeError(f"cap must be positive, got {cap}")
    return cap


def _natural(text: str) -> int:
    n = _int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {n}")
    return n


def _max_length(text: str) -> int | str:
    return text if text == "all" else _natural(text)


def _ints(text: str) -> tuple[int, ...]:
    """Comma-separated integers; empty text gives (), so the default applies."""
    return tuple(_int(v) for v in text.split(",")) if text else ()


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
    if args.preset and args.file:
        parser.error("pass exactly one diagram source (--preset or --file)")
    if args.preset:
        return preset(args.preset)
    if args.file:
        try:
            with open(args.file, encoding="utf-8") as fh:
                return diagram.parse_diagram(fh.read())
        except OSError as exc:
            raise ArtinError(f"cannot read {args.file}: {exc}") from None
    parser.error("a diagram source is required (--preset or --file)")


def _ball(args):
    return "all" if args.ball is None else args.ball


def _element(el):
    return {"word": list(el.word), "length": el.length}, _word_str(el.word), None


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
    names = [lab.name if lab is not None else "non-spherical component" for lab in rep.components]
    obj = dataclasses.asdict(dataclasses.replace(rep, components=names))
    *flags, _ = obj.items()  # components is the last field
    text = "\n".join(f"{k}: {v}" for k, v in flags) + "\ncomponents: " + ", ".join(names)
    return obj, text, None


def _cmd_sf(d, args):
    subsets = [_subset_list(d, T) for T in diagram._sf_sorted(d)]
    obj = {"count": len(subsets), "subsets": subsets}
    text = f"{len(subsets)} finite-type subsets\n" + "\n".join(
        "{" + ",".join(T) + "}" for T in subsets
    )
    return obj, text, None


def _cmd_form(d, args):
    B = tits.bilinear_form(d)
    obj = {"vertices": list(d.vertices), "matrix": [[float(x) for x in row] for row in B]}
    text = "\n".join("  ".join(f"{x: .6f}" for x in row) for row in B)
    return obj, text, None


def _cmd_signature(d, args):
    sig = tits.signature(tits.bilinear_form(d), args.tol)
    obj = {**dataclasses.asdict(sig), "positive_definite": sig.n_zero == 0 and sig.n_neg == 0}
    text = (
        f"signature (n_pos, n_zero, n_neg) = ({sig.n_pos}, {sig.n_zero}, {sig.n_neg})\n"
        f"positive definite: {obj['positive_definite']}"
    )
    return obj, text, None


def _cmd_rep_check(d, args):
    sigmas, pairs = tits.reflection_matrices(d), []
    for s, t, m in d.pairs():
        order = tits._pair_order(d, sigmas, s, t, args.tol)
        pairs.append({"s": s, "t": t, "m": "inf" if m == INF else int(m), "order": order,
                      "ok": order == (None if m == INF else int(m))})
    involutions_ok = all(tits._pair_order(d, sigmas, s, s, args.tol) == 1 for s in d.vertices)
    ok = all(p["ok"] for p in pairs) and involutions_ok
    obj = {"ok": ok, "involutions_ok": involutions_ok, "pairs": pairs}
    text = f"representation check: {'pass' if obj['ok'] else 'FAIL'}"
    for p in pairs:
        text += f"\n  ({p['s']},{p['t']}): m = {p['m']}, order = {p['order']}"
    return obj, text, None


def _cmd_cox_nf(d, args):
    return _element(coxeter.normalize(d, _word(args.word), args.cap))


def _cmd_enumerate(d, args):
    layers = coxeter.enumerate_elements(d, args.max_length, args.cap)
    counts = {str(k): len(layer) for k, layer in enumerate(layers)}
    obj = {"max_length": args.max_length, "counts": counts, "total": sum(map(len, layers))}
    if args.words:
        obj["words"] = [[list(e.word) for e in layer] for layer in layers]
    text = "\n".join(f"length {k}: {len(layer)}" for k, layer in enumerate(layers))
    text += f"\ntotal: {obj['total']}"
    return obj, text, None


def _cmd_longest(d, args):
    return _element(coxeter.longest_element(d, args.cap))


def _cmd_reflections(d, args):
    refl = sorted(coxeter.reflections(d, args.ball, args.cap), key=lambda e: e.sort_key())
    obj = {"count": len(refl), "reflections": [list(e.word) for e in refl]}
    text = f"{len(refl)} reflections\n" + "\n".join(_word_str(e.word) for e in refl)
    return obj, text, None


def _cmd_tmin(d, args):
    T = d._subset(_split_subset(args.t))  # checked before any capped work
    w = coxeter.normalize(d, _word(args.word), args.cap)
    return _element(coxeter.t_minimal_representative(d, w, T, args.cap))


def _cmd_coxeter_elements(d, args):
    els = sorted(coxeter.coxeter_elements(d, cap=args.cap), key=lambda e: e.sort_key())
    obj = {"count": len(els), "elements": [list(e.word) for e in els]}
    text = "\n".join(_word_str(e.word) for e in els)
    return obj, text, None


def _cmd_mon_nf(d, args):
    return _element(monoid.canonicalize(d, _word(args.word), args.cap))


def _cmd_mon_equal(d, args):
    eq = monoid.monoid_equal(d, _word(args.left), _word(args.right), args.cap)
    return eq, "true" if eq else "false", None


def _cmd_divides(d, args):
    cof = monoid.divides(d, _word(args.dvr), _word(args.word), args.side, args.cap)
    if cof is None:
        return {"divides": False, "cofactor": None}, "no", None
    obj = {"divides": True, "cofactor": list(cof.word)}
    return obj, f"yes, cofactor {_word_str(cof.word)}", None


def _cmd_gcd(d, args):
    return _element(monoid.gcd(d, _word(args.left), _word(args.right), args.side, args.cap))


def _cmd_lcm(d, args):
    el = monoid.lcm(d, _word(args.left), _word(args.right), args.side, args.cap, args.length_bound)
    if el is None:
        return {"word": None}, "none within bound", None
    return _element(el)


def _cmd_delta(d, args):
    T = d.vertices if args.t is None else _split_subset(args.t)
    return _element(monoid.garside_element(d, T, args.cap))


def _cmd_sigma(d, args):
    table = monoid.garside_permutation(d, args.cap)
    obj = {"sigma": {s: table[s] for s in d.vertices}}
    text = "\n".join(f"{s} -> {table[s]}" for s in d.vertices)
    return obj, text, None


def _cmd_garside_nf(d, args):
    nf = monoid.garside_normal_form(d, _word(args.word), args.cap)
    obj = {"blocks": nf.to_json_obj()}
    text = " . ".join("{" + ",".join(T) + "}" for T in nf.blocks) or "e"
    return obj, text, None


def _cmd_axioms(d, args):
    rep = monoid.verify_garside_axioms(d, args.length_cap, args.cap)
    obj = rep.to_json_obj()
    text = "\n".join(f"{k}: {v}" for k, v in obj.items() if k != "lcm_failures")
    if obj["lcm_failures"]:
        text += "\nlcm failures: " + "; ".join(
            f"({_word_str(a)}, {_word_str(b)})" for a, b in rep.lcm_failures
        )
    return obj, text, None


def _cmd_grp_nf(d, args):
    g = group.from_letters(d, args.word, args.cap)
    obj = g.to_json_obj()
    return obj, f"Delta^{g.k} * {_word_str(g.a.word)}", None


def _cmd_grp_equal(d, args):
    left, right = (group._letters(d, w)[1] for w in (args.left, args.right))  # both checked first
    eq = group.equal(group.from_letters(d, left, args.cap), group.from_letters(d, right, args.cap))
    return eq, "true" if eq else "false", None


def _cmd_fraction(d, args):
    g = group.from_letters(d, args.word, args.cap)
    a, b = group.fraction_decomposition(g, args.cap)
    obj = {"a": list(a.word), "b": list(b.word)}
    return obj, f"({_word_str(a.word)})^-1 * {_word_str(b.word)}", None


def _cmd_section(d, args):
    w = coxeter.normalize(d, _word(args.word), args.cap)
    g = group.canonical_section(d, w, args.cap)
    return g.to_json_obj(), f"Delta^{g.k} * {_word_str(g.a.word)}", None


def _cmd_project(d, args):
    g = group.from_letters(d, args.word, args.cap)
    w = group.project(g, args.cap)
    obj = {"word": list(w.word), "pure": w.length == 0}
    return obj, _word_str(w.word), None


def _cmd_cell_poset(d, args):
    p = getattr(complexes, f"{args.command}_poset")(d, _ball(args), args.cap)
    return _asked(args, p.to_json_obj,
                  lambda: f"{len(p)} elements, {len(p.covers())} cover relations", p.to_dot)


def _cmd_deligne_fd(d, args):
    p, c = complexes.deligne_fundamental_domain(d)
    return _asked(args, lambda: {"poset": p.to_json_obj(), "complex": c.to_json_obj()},
                  lambda: f"{len(p)} elements, order complex f-vector {list(c.f_vector())}",
                  lambda: p.to_dot("deligne_fd"))


def _asked(args, *builds):
    """(json_obj, text, dot) with only the payload for `args.format` built."""
    return tuple(build() if f == args.format else None
                 for f, build in zip(("json", "text", "dot"), builds))


def _cmd_homology(d, args):
    if args.complex == "deligne-fd":
        c = complexes.deligne_fundamental_domain(d)[1]
    else:
        p = getattr(complexes, f"{args.complex}_poset")(d, _ball(args), args.cap)
        c = complexes.order_complex(p)
    h = complexes.homology(c)
    obj = {
        "complex": args.complex,
        **h.to_json_obj(),
        # Euler-Poincare: the alternating sum of the Betti numbers
        "euler": sum((-1) ** k * b for k, b in enumerate(h.betti)),
    }
    return obj, h.pretty(), None


def _cmd_quotient_cells(d, args):
    q = diagram.salvetti_quotient_cells(d)
    obj = q.to_json_obj()
    text = f"f-vector {list(q.f_vector)}, euler {q.euler_characteristic}"
    return obj, text, None


def _cmd_abelianization(d, args):
    ab = diagram.abelianization(d)
    return ab.to_json_obj(), ab.pretty(), None


def _chamber_input(d, args):
    if d is None:  # --chambers
        if args.preset or args.file:
            args.subparser.error("pass either --chambers or a diagram source, not both")
        try:
            with open(args.chambers, encoding="utf-8") as fh:
                cc, idx = shelling.parse_chamber_json(fh.read())
        except OSError as exc:
            raise ArtinError(f"cannot read {args.chambers}: {exc}") from None
    else:
        # what can be checked without the chambers is checked before the capped work
        if getattr(args, "index", None):
            shelling._check_index(None, args.index)
        if getattr(args, "order", None):
            shelling._check_order(None, args.order)
        cc, idx = shelling.coxeter_chamber_system(d, _ball(args), args.cap)
    return cc, getattr(args, "index", None) or idx


def _cmd_shelling_check(d, args):
    cc, idx = _chamber_input(d, args)
    if idx is None:
        raise ArtinError("no index function: add \"index\" to the JSON or pass --index")
    rep = shelling.verify_claims(cc, idx)

    def text():
        if rep.passed:
            return f"claims A and B pass at all levels; conclusion: {rep.conclusion}"
        first = (rep.claim_a + rep.claim_b)[0]
        return f"FAIL at level {first.level}, chambers {list(first.chambers)}: {first.witness}"
    return _asked(args, rep.to_json_obj, text, None)


def _cmd_is_shelling(d, args):
    cc, _ = _chamber_input(d, args)
    chk = shelling.is_shelling(cc, args.order or tuple(range(len(cc.chambers))))
    return _asked(args, chk.to_json_obj,
                  lambda: "true" if chk.ok else f"false ({chk.witness})", None)


# ---------------------------------------------------------------- parser
# A row is (handler, specs): each spec is (flag, add_argument keywords), added
# after the common specs; a spec for a common flag replaces it, None drops it.

_COMMON = (
    ("--preset", {"help": "preset diagram name, e.g. A2, B3, I2(5), Atilde2"}),
    ("--file", {"help": "path to a diagram JSON file"}),
    ("--format", {"choices": ["json", "text"], "default": "json"}),
    ("--cap", {"type": _positive_cap, "default": None,
               "help": "work bound per call: new root coefficients, monoid and group "
               "normal-form steps (default ARTIN_CAP or 10^6)"}),
)
_NO_CAP = ("--cap", None)  # rows whose work --cap does not bound
_DOT_FORMAT = ("--format", {"choices": ["json", "text", "dot"], "default": "json"})
_WORD = ("--word", {"required": True, "help": "whitespace-separated letters"})
_LEFT_RIGHT = (("--left", {"required": True}), ("--right", {"required": True}))
_SIDE = ("--side", {"choices": ["left", "right"], "default": "left"})
_BALL = ("--ball", {"type": _natural, "default": None, "help": "radius for infinite groups"})
_CHAMBERS = ("--chambers", {"help": "chamber complex JSON file"})

_COMMANDS = {
    "classify": (_cmd_classify, (_NO_CAP,)),
    "taxonomy": (_cmd_taxonomy, (_NO_CAP,)),
    "sf": (_cmd_sf, (_NO_CAP,)),
    "form": (_cmd_form, (_NO_CAP,)),
    "signature": (_cmd_signature, (_NO_CAP, ("--tol", {"type": float, "default": 1e-8}),)),
    "rep-check": (_cmd_rep_check, (_NO_CAP, ("--tol", {"type": float, "default": 1e-9}),)),
    "cox-nf": (_cmd_cox_nf, (_WORD,)),
    "enumerate": (_cmd_enumerate, (
        ("--max-length", {"type": _max_length, "default": "all"}),
        ("--words", {"action": "store_true", "help": "include full word lists"}),
    )),
    "longest": (_cmd_longest, ()),
    "reflections": (_cmd_reflections, (_BALL,)),
    "tmin": (_cmd_tmin, (_WORD, ("--t", {"required": True, "help": "subset, comma-separated"}))),
    "coxeter-elements": (_cmd_coxeter_elements, ()),
    "mon-nf": (_cmd_mon_nf, (_WORD,)),
    "mon-equal": (_cmd_mon_equal, _LEFT_RIGHT),
    "divides": (_cmd_divides, (
        _WORD, ("--dvr", {"required": True, "help": "the divisor word"}), _SIDE,
    )),
    "gcd": (_cmd_gcd, (*_LEFT_RIGHT, _SIDE)),
    "lcm": (_cmd_lcm, (
        *_LEFT_RIGHT, _SIDE, ("--length-bound", {"type": _natural, "default": None}),
    )),
    "delta": (_cmd_delta, (
        ("--t", {"default": None, "help": "subset, comma-separated (default: all)"}),
    )),
    "sigma": (_cmd_sigma, ()),
    "garside-nf": (_cmd_garside_nf, (_WORD,)),
    "axioms": (_cmd_axioms, (("--length-cap", {"type": _natural, "default": 4}),)),
    "grp-nf": (_cmd_grp_nf, (_WORD,)),
    "grp-equal": (_cmd_grp_equal, _LEFT_RIGHT),
    "fraction": (_cmd_fraction, (_WORD,)),
    "section": (_cmd_section, (_WORD,)),
    "project": (_cmd_project, (_WORD,)),
    "salvetti": (_cmd_cell_poset, (_DOT_FORMAT, _BALL)),
    "davis": (_cmd_cell_poset, (_DOT_FORMAT, _BALL)),
    "deligne-fd": (_cmd_deligne_fd, (_DOT_FORMAT, _NO_CAP)),
    "homology": (_cmd_homology, (
        _BALL, ("--complex", {"choices": ["salvetti", "davis", "deligne-fd"], "required": True}),
    )),
    "quotient-cells": (_cmd_quotient_cells, (_NO_CAP,)),
    "abelianization": (_cmd_abelianization, (_NO_CAP,)),
    "shelling-check": (_cmd_shelling_check, (
        _BALL, _CHAMBERS,
        ("--index", {"type": _ints, "help": "comma-separated index function override"}),
    )),
    "is-shelling": (_cmd_is_shelling, (
        _BALL, _CHAMBERS,
        ("--order", {"type": _ints, "help": "comma-separated chamber order (default: listed)"}),
    )),
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
    for name, (handler, specs) in _COMMANDS.items():
        if only is not None and name != only:
            continue
        sp = sub.add_parser(name)
        for flag, kwargs in dict(_COMMON + specs).items():
            if kwargs is not None:
                sp.add_argument(flag, **kwargs)
        sp.set_defaults(handler=handler, subparser=sp)
    return parser


def _takes_value(name: str, token: str) -> bool:
    """Whether argparse reads `token` as a flag of subcommand `name` that
    takes a value: the flag itself, or a prefix of that flag alone."""
    specs = {flag: kw for flag, kw in dict(_COMMON + _COMMANDS[name][1]).items() if kw is not None}
    specs["--help"] = {"action": "help"}
    flags = [token] if token in specs else [flag for flag in specs if flag.startswith(token)]
    return len(flags) == 1 and "action" not in specs[flags[0]]


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # A known subcommand needs only its own subparser; anything else (help,
    # --version, a bad name) gets the full parser and its choice list.
    known = argv and argv[0] in _COMMANDS
    # argparse reads a separate "-1,0" or "-1e-3" as an option: join it to
    # the flag before it, as "--order=-1,0"
    for i in range(len(argv) - 1, 1, -1) if known else ():
        if re.match(r"-[\d.]", argv[i]) and _takes_value(argv[0], argv[i - 1]):
            argv[i - 1 : i + 1] = [f"{argv[i - 1]}={argv[i]}"]
    parser = _build_parser(argv[0] if known else None)
    try:
        args, extra = parser.parse_known_args(argv)
        if extra:  # reported with the usage line of the subcommand they follow
            (args.subparser if known else parser).error(
                f"unrecognized arguments: {' '.join(extra)}")
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if vars(args).get("cap", 0) is None:  # ARTIN_CAP only where --cap is offered
            args.cap = _env_cap(args.subparser)
        # --chambers replaces the diagram: the handler gets d = None
        d = None if vars(args).get("chambers") else _resolve_diagram(args, args.subparser)
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
