"""The four workloads: seeded inputs made in setup, and the ops run on them.

A task is a generator function.  It yields ``(label, thunk)`` for each
public call it makes -- one call is one op, timed by the worker -- gets the
call's result back, and checks it against the oracles, raising Mismatch on
disagreement.  Oracle code never calls artin; every random choice is made
while the workload is built, so a task's inputs depend on the seed alone.

Why each workload exists (BENCHMARK.json says the same in one line each):

- coxeter-enum: whole-group work on finite presets up to B4 plus balls in
  affine and random infinite groups; `_Rewriter.reduce` closures do almost
  all the work, and `monoid`, `group` and SNF stay idle.
- artin-words: signed words through the Delta-form group and positive words
  through gcd/lcm/normal forms; closure BFS in `monoid`/`group` dominates.
- homology: Salvetti, Davis and Deligne complexes; `_snf_diagonal` sets the
  tail, the many small posets exercise `_poset` and `coxeter.multiply`.
- cli-survey: one CLI process per op on random diagrams of rank 4-12 plus
  fixed queries and malformed inputs; interpreter start and import dominate.
"""

from __future__ import annotations

import itertools
import json
import os
import random
from dataclasses import dataclass
from functools import partial

from oracles import (
    INF,
    RootModel,
    bott_series,
    degrees,
    odd_components,
    poincare,
    salvetti_betti,
)

CAP = 100_000  # the one closure/enumeration cap passed to every library op


class Mismatch(Exception):
    """An artin result disagrees with its oracle."""


def expect(ok: bool, message: str):
    if not ok:
        raise Mismatch(message)


# ------------------------------------------------------------------ diagrams

_FAMILY_LABELS = {
    "A": lambda n: [3] * (n - 1),
    "B": lambda n: [4] + [3] * (n - 2),
    "H3": lambda n: [5, 3],
}

# Affine diagrams with the degrees of their finite Weyl group (Bott's formula).
_AFFINE = {
    "Atilde2": (3, [(0, 1, 3), (1, 2, 3), (0, 2, 3)], (2, 3)),
    "Ctilde2": (3, [(0, 1, 4), (1, 2, 4)], (2, 4)),
    "Gtilde2": (3, [(0, 1, 6), (1, 2, 3)], (2, 6)),
    "Atilde3": (4, [(0, 1, 3), (1, 2, 3), (2, 3, 3), (0, 3, 3)], (2, 3, 4)),
}


@dataclass(frozen=True)
class Spec:
    """A diagram as the benchmark knows it: declared vertex order, labelled
    edges, and (for finite type) the degrees of its Coxeter group."""

    name: str
    vertices: tuple
    edges: tuple
    degs: tuple | None = None

    def diagram(self):
        from artin.diagram import CoxeterDiagram

        return CoxeterDiagram(self.vertices, self.edges)

    def model(self) -> RootModel | None:
        return RootModel(self.vertices, self.edges) if RootModel.supports(self.edges) else None

    def json_text(self) -> str:
        edges = [{"a": a, "b": b, "m": "inf" if m == INF else m} for a, b, m in self.edges]
        return json.dumps({"vertices": list(self.vertices), "edges": edges})


# No generator is called "e": coxeter_chamber_system names the identity coset
# "e", so a generator e merges two chamber vertices and the verifier fails.
_LETTERS = "abcdfghijklmnopqrstuvwxyz"


def _names(k: int) -> list[str]:
    return list(_LETTERS[:k])


def finite_spec(rng: random.Random, *parts, orient: int = 0) -> Spec:
    """Product of irreducible finite types, each part (family, rank[, m]), on
    seeded vertex names.

    The declared vertex order fixes ShortLex and so changes the work: it is
    seeded when orient is 0, and the path order (1) or its reverse (-1)
    otherwise."""
    total = sum(p[1] for p in parts)
    names = rng.sample(_LETTERS, total)
    edges, degs, labels, at = [], [], [], 0
    for family, n, *m in parts:
        v = names[at : at + n]
        at += n
        if family == "I2":
            edges.append((v[0], v[1], m[0]))
            degs += degrees("I2", m=m[0])
        elif family == "D":
            edges += [(v[0], v[2], 3), (v[1], v[2], 3)]
            edges += [(v[i], v[i + 1], 3) for i in range(2, n - 1)]
            degs += degrees("D", n)
        else:
            edges += [(v[i], v[i + 1], lab) for i, lab in enumerate(_FAMILY_LABELS[family](n))]
            degs += degrees(family, n)
        labels.append(family + (f"({m[0]})" if m else str(n) if len(family) == 1 else ""))
    order = names[::orient] if orient else rng.sample(names, len(names))
    return Spec("x".join(labels), tuple(order), tuple(edges), tuple(sorted(degs)))


def affine_spec(rng: random.Random, name: str) -> tuple[Spec, tuple]:
    n, raw, fin = _AFFINE[name]
    names = _names(n)
    order = names[:]
    rng.shuffle(order)
    return Spec(name, tuple(order), tuple((names[i], names[j], m) for i, j, m in raw)), fin


def random_spec(rng: random.Random, rank: int, p_edge: float, labels, force_inf=False) -> Spec:
    """Random diagram: each pair joined with probability p_edge by a label
    drawn from `labels`; force_inf adds an infinite label so the group is
    infinite."""
    names = _names(rank)
    edges = []
    for a, b in itertools.combinations(names, 2):
        if rng.random() < p_edge:
            edges.append((a, b, rng.choice(labels)))
    if force_inf and not any(m == INF for _, _, m in edges):
        a, b = rng.sample(names, 2)
        edges = [e for e in edges if {e[0], e[1]} != {a, b}] + [(a, b, INF)]
    return Spec(f"random{rank}", tuple(names), tuple(edges))


def random_word(rng: random.Random, letters, length: int) -> tuple:
    return tuple(rng.choice(letters) for _ in range(length))


def braid_moved(rng: random.Random, spec: Spec, word: tuple, moves: int) -> tuple:
    """Apply random braid and commutation moves: an equal monoid element."""
    label = {frozenset((a, b)): m for a, b, m in spec.edges}
    w = list(word)
    for _ in range(moves):
        sites = []
        for i in range(len(w) - 1):
            a, b = w[i], w[i + 1]
            if a == b:
                continue
            m = label.get(frozenset((a, b)), 2)
            if m != INF and w[i : i + m] == [a if k % 2 == 0 else b for k in range(m)]:
                sites.append((i, m, b, a))
        if not sites:
            break
        i, m, a, b = rng.choice(sites)
        w[i : i + m] = [a if k % 2 == 0 else b for k in range(m)]
    return tuple(w)


# ------------------------------------------------------------------ coxeter-enum

# Finite groups run on seeded vertex names but in fixed vertex orders, the
# path order and its reverse (B4 in path order only, to keep a pass short).
# The order fixes ShortLex, and the work depends on it: over the 24 orders of
# B4, enumeration + chamber system + longest element cost 1.9 to 5.5 s, so a
# seeded order would make a run's cost hinge on its seed.
_ENUM_FINITE = [
    [("A", 3)], [("B", 3)], [("H3", 3)], [("A", 4)], [("D", 4)],
    [("I2", 2, 5)], [("I2", 2, 6)], [("I2", 2, 8)], [("A", 1), ("A", 2)],
]
_ENUM_AFFINE = [("Atilde2", 8), ("Ctilde2", 6), ("Gtilde2", 6), ("Atilde3", 5)]


def _finite_group(spec: Spec, d, words, subsets):
    from artin import coxeter, shelling

    model = spec.model()
    expected = poincare(spec.degs)
    top = len(expected) - 1
    layers = yield "coxeter.enumerate_elements", lambda: coxeter.enumerate_elements(d, "all", CAP)
    expect([len(x) for x in layers] == expected, f"{spec.name}: layer sizes {[len(x) for x in layers]}")
    if model is not None:
        images = set()
        for k, layer in enumerate(layers):
            for el in layer:
                expect(len(el.word) == k and model.is_reduced(el.word), f"{spec.name}: {el.word} not reduced")
                images.add(model.element(el.word))
        expect(len(images) == sum(expected), f"{spec.name}: repeated elements")
    w0 = yield "coxeter.longest_element", lambda: coxeter.longest_element(d, CAP)
    expect(len(w0.word) == top, f"{spec.name}: l(w0) = {len(w0.word)}")
    if model is not None:
        w = model.element(w0.word)
        expect(all(model.is_descent(w, s) for s in spec.vertices), f"{spec.name}: w0 not longest")
    refl = yield "coxeter.reflections", lambda: coxeter.reflections(d, cap=CAP)
    expect(len(refl) == sum(x - 1 for x in spec.degs) == top, f"{spec.name}: |R| = {len(refl)}")
    cox = yield "coxeter.coxeter_elements", lambda: coxeter.coxeter_elements(d, cap=CAP)
    # Every diagram here is a forest, with 2^edges Coxeter elements.
    expect(len(cox) == 2 ** len(spec.edges), f"{spec.name}: {len(cox)} Coxeter elements")
    expect(all(len(c.word) == d.rank for c in cox), f"{spec.name}: Coxeter element not of length rank")
    for word, T in zip(words, subsets):
        w = yield "coxeter.normalize", lambda word=word: coxeter.normalize(d, word, CAP)
        r = yield "coxeter.t_minimal_representative", (
            lambda w=w, T=T: coxeter.t_minimal_representative(d, w, T, CAP)
        )
        if model is not None:
            expect(model.element(w.word) == model.element(word) and model.is_reduced(w.word),
                   f"{spec.name}: normalize{word} = {w.word}")
            best = model.min_coset_rep(model.element(word), T)
            expect(model.element(r.word) == best and len(r.word) == model.length(best),
                   f"{spec.name}: t-min of {word} in {T} = {r.word}")
        else:
            expect(len(r.word) <= len(w.word) <= len(word), f"{spec.name}: t-min longer than w")
    cc, idx = yield "shelling.coxeter_chamber_system", lambda: shelling.coxeter_chamber_system(d, "all", CAP)
    expect([idx.count(k) for k in range(top + 1)] == expected, f"{spec.name}: chamber index counts")
    rep = yield "shelling.verify_claims", lambda: shelling.verify_claims(cc, idx)
    expect(rep.passed and rep.conclusion == f"{d.rank - 2}-connected",
           f"{spec.name}: chamber verifier says {rep.passed}, {rep.conclusion}")


def _ball(spec: Spec, d, radius: int, fin_degs, refl_ball: int):
    from artin import coxeter

    layers = yield "coxeter.enumerate_elements", lambda: coxeter.enumerate_elements(d, radius, CAP)
    model = spec.model()
    spheres = model.spheres(radius)
    sizes = [len(x) for x in layers]
    expect(sizes == [len(s) for s in spheres], f"{spec.name}: sphere sizes {sizes}")
    if fin_degs is not None:
        expect(sizes == bott_series(fin_degs, radius), f"{spec.name}: sizes differ from Bott's series")
    refl = yield "coxeter.reflections", lambda: coxeter.reflections(d, refl_ball, CAP)
    conj = set()
    for layer in spheres[: refl_ball + 1]:
        for w in layer:
            for s in spec.vertices:
                conj.add(model.compose(model.times(w, s), model.inverse(w)))
    expect(len(refl) == len(conj), f"{spec.name}: {len(refl)} reflections in ball, expected {len(conj)}")


def coxeter_enum(rng: random.Random, ctx):
    from artin import coxeter, shelling  # noqa: F401  (imported in setup)

    specs = [finite_spec(rng, *parts, orient=o) for parts in _ENUM_FINITE for o in (1, -1)]
    specs.append(finite_spec(rng, ("B", 4), orient=1))
    tasks = []
    for spec in specs:
        n = len(spec.vertices)
        words = [random_word(rng, spec.vertices, k * n) for k in (1, 2, 3, 4) * 3]
        subsets = [tuple(rng.sample(spec.vertices, rng.randint(1, n - 1))) for _ in words]
        tasks.append(partial(_finite_group, spec, spec.diagram(), words, subsets))
    for name, radius in _ENUM_AFFINE:
        spec, fin = affine_spec(rng, name)
        tasks.append(partial(_ball, spec, spec.diagram(), radius, fin, 2))
    for rank in (3, 3, 4, 4):
        spec = random_spec(rng, rank, 0.8, (3, 4, 6, INF), force_inf=True)
        tasks.append(partial(_ball, spec, spec.diagram(), 6 if rank == 3 else 5, None, 2))
    return tasks


# ------------------------------------------------------------------ artin-words

# (family parts, signed-word lengths).  A run must have no failing op and a
# light enough tail to repeat: A3 hits the cap at 3 letters, and g * g^-1
# takes up to 0.6 s at 7 letters in A2 and 0.4 s at 6 in B2.
_GROUP_WORDS = [([("A", 2)], range(1, 7)), ([("B", 2)], range(1, 6)), ([("A", 3)], (1, 2, 1, 2))]
# (family parts, positive-word length range, pairs).
_MONOID_WORDS = [([("A", 3)], (1, 4), 6), ([("B", 3)], (1, 3), 6)]
# lcm is heavy-tailed: in B3 it passed 4 GB at 4 letters and took 8 s on one
# 3-letter pair, and over 2-letter pairs it ranges from 1 ms to 0.33 s.  So
# every pass takes the lcm of every pair of 2-letter words, in the path order
# of A3 and B3: each seed then meets the same tail.
_LCM_GROUPS = [[("A", 3)], [("B", 3)]]
_WORD_ROUNDS = 2  # each round draws fresh vertex orders and words


def _signed_word(spec: Spec, d, letters):
    from artin import coxeter, group

    model = spec.model()
    w0, top = model.parabolic_longest(spec.vertices)
    plain = tuple(s for s, _ in letters)
    image = model.element(plain)
    expsum = sum(e for _, e in letters)

    def image_of(g):
        return model.element(g.a.word, start=w0 if g.k % 2 else None)

    g = yield "group.from_letters", lambda: group.from_letters(d, letters, CAP)
    expect(g.k * top + len(g.a.word) == expsum and image_of(g) == image,
           f"{spec.name}: from_letters{letters} = {g}")
    gi = yield "group.invert", lambda: group.invert(g, CAP)
    expect(gi.k * top + len(gi.a.word) == -expsum and image_of(gi) == model.inverse(image),
           f"{spec.name}: invert({g}) = {gi}")
    e = yield "group.multiply", lambda: group.multiply(g, gi, CAP)
    expect(e.k == 0 and e.a.word == (), f"{spec.name}: g * g^-1 = {e}")
    a, b = yield "group.fraction_decomposition", lambda: group.fraction_decomposition(g, CAP)
    expect(len(b.word) - len(a.word) == expsum and model.element(a.word[::-1] + b.word) == image,
           f"{spec.name}: fraction of {g} = ({a}, {b})")
    p = yield "group.project", lambda: group.project(g, CAP)
    expect(model.element(p.word) == image and model.is_reduced(p.word), f"{spec.name}: project = {p}")
    n = yield "coxeter.normalize", lambda: coxeter.normalize(d, plain, CAP)
    expect(n == p, f"{spec.name}: project {p.word} != normalize {n.word}")


def _cofactor_ok(model: RootModel, dvr, z, whole) -> bool:
    """z is a left cofactor of dvr in whole: lengths add up and the images in
    W agree (necessary conditions, checked without artin)."""
    return (z is not None and len(dvr) + len(z.word) == len(whole)
            and model.element(tuple(dvr) + z.word) == model.element(whole))


def _positive_pair(spec: Spec, d, a, b, moved):
    from artin import monoid

    model = spec.model()

    c = yield "monoid.canonicalize", lambda: monoid.canonicalize(d, a, CAP)
    expect(len(c.word) == len(a) and model.element(c.word) == model.element(a),
           f"{spec.name}: canonicalize{a} = {c}")
    same = yield "monoid.monoid_equal", lambda: monoid.monoid_equal(d, a, moved, CAP)
    expect(same is True, f"{spec.name}: {a} and its braid-moved copy {moved} compare unequal")
    g = yield "monoid.gcd", lambda: monoid.gcd(d, a, b, "left", CAP)
    for x in (a, b):
        z = yield "monoid.divides", lambda x=x: monoid.divides(d, g, x, "left", CAP)
        expect(_cofactor_ok(model, g.word, z, x), f"{spec.name}: gcd{a, b} = {g} does not divide {x}")
    nf = yield "monoid.garside_normal_form", lambda: monoid.garside_normal_form(d, a + b, CAP)
    w = model.identity
    total = 0
    for T in nf.blocks:
        w0, n = model.parabolic_longest(T)
        w = model.compose(w, w0)
        total += n
    expect(total == len(a + b) and w == model.element(a + b),
           f"{spec.name}: normal form {nf.blocks} does not multiply back to {a + b}")


def _lcm_task(spec: Spec, d, a, b):
    from artin import monoid

    model = spec.model()
    m = yield "monoid.lcm", lambda: monoid.lcm(d, a, b, "left", CAP)
    expect(m is not None, f"{spec.name}: no lcm of {a}, {b}")
    for x in (a, b):
        z = yield "monoid.divides", lambda x=x: monoid.divides(d, x, m, "left", CAP)
        expect(_cofactor_ok(model, x, z, m.word), f"{spec.name}: {x} does not divide lcm({a}, {b}) = {m}")
        same = yield "monoid.monoid_equal", lambda x=x, z=z: monoid.monoid_equal(d, x + z.word, m, CAP)
        expect(same is True, f"{spec.name}: {x} * {z} != lcm({a}, {b}) = {m}")


def artin_words(rng: random.Random, ctx):
    from artin import coxeter, group, monoid  # noqa: F401  (imported in setup)

    tasks = []
    for parts, lengths in _GROUP_WORDS * _WORD_ROUNDS:
        spec = finite_spec(rng, *parts)
        d = spec.diagram()
        for n in lengths:
            letters = tuple((rng.choice(spec.vertices), rng.choice((1, -1))) for _ in range(n))
            tasks.append(partial(_signed_word, spec, d, letters))
    for parts, (lo, hi), pairs in _MONOID_WORDS * _WORD_ROUNDS:
        spec = finite_spec(rng, *parts)
        d = spec.diagram()
        for _ in range(pairs):
            a = random_word(rng, spec.vertices, rng.randint(lo, hi))
            b = random_word(rng, spec.vertices, rng.randint(lo, hi))
            tasks.append(partial(_positive_pair, spec, d, a, b, braid_moved(rng, spec, a, 6)))
    for parts in _LCM_GROUPS:
        spec = finite_spec(rng, *parts, orient=1)
        words = list(itertools.product(spec.vertices, repeat=2))
        tasks += [partial(_lcm_task, spec, spec.diagram(), a, b) for a in words for b in words]
    rng.shuffle(tasks)
    return tasks


# ------------------------------------------------------------------ homology

# (parts, vertex orders).  Fixed orders, as in coxeter-enum, so the SNF tail
# does not hinge on a seeded order; the cheaper groups run in both path
# orientations.  A1xB2 (4 s of SNF alone) is left out so that a pass stays
# near 6 s and a run holds several passes; A1xA2 still puts SNF in the tail.
_SALVETTI = [([("I2", 2, m)], (1, -1)) for m in range(3, 9)] + [
    ([("A", 1), ("A", 1), ("A", 1)], (1, -1)), ([("A", 1), ("A", 2)], (1,)),
]
# (parts, ball, vertex orders)
_DAVIS = [([("A", 3)], "all", (1, -1)), ([("B", 3)], "all", (1,))]
_DAVIS_AFFINE = [("Atilde2", 2), ("Atilde2", 3)]


def _acyclic(h) -> bool:
    return tuple(h.betti[:1]) == (1,) and not any(h.betti[1:]) and not any(h.torsion)


def _complex_task(spec: Spec, d, kind: str, ball):
    from artin import complexes

    build = complexes.salvetti_poset if kind == "salvetti" else complexes.davis_poset
    p = yield f"complexes.{kind}_poset", lambda: build(d, ball, CAP)
    c = yield "complexes.order_complex", lambda: complexes.order_complex(p)
    h = yield "complexes.homology", lambda: complexes.homology(c)
    if kind == "salvetti":
        expect(list(h.betti) == salvetti_betti(spec.degs) and not any(h.torsion),
               f"{spec.name}: Salvetti homology {h.pretty()}")
    else:
        expect(_acyclic(h), f"{spec.name}: Davis complex (ball {ball}) has homology {h.pretty()}")


def _deligne_task(spec: Spec, d):
    from artin import complexes

    p, c = yield "complexes.deligne_fundamental_domain", lambda: complexes.deligne_fundamental_domain(d)
    h = yield "complexes.homology", lambda: complexes.homology(c)
    expect(_acyclic(h), f"{spec.name}: Deligne domain has homology {h.pretty()}")
    ab = yield "complexes.abelianization", lambda: complexes.abelianization(d)
    expect(ab.rank == odd_components(spec.vertices, spec.edges) and ab.torsion == (),
           f"{spec.name}: abelianization {ab.pretty()}")


def homology(rng: random.Random, ctx):
    from artin import complexes  # noqa: F401  (imported in setup)

    cases = [(finite_spec(rng, *parts, orient=o), "salvetti", "all")
             for parts, orients in _SALVETTI for o in orients]
    cases += [(finite_spec(rng, *parts, orient=o), "davis", ball)
              for parts, ball, orients in _DAVIS for o in orients]
    cases += [(affine_spec(rng, name)[0], "davis", ball) for name, ball in _DAVIS_AFFINE]
    tasks = [partial(_complex_task, spec, spec.diagram(), kind, ball) for spec, kind, ball in cases]
    for rank in (5, 6, 7, 8) * 10:
        spec = random_spec(rng, rank, 0.9, (3, 4, 5, 6, INF))
        tasks.append(partial(_deligne_task, spec, spec.diagram()))
    return tasks


# ------------------------------------------------------------------ cli-survey

_SURVEY = ("classify", "taxonomy", "sf", "signature", "abelianization", "quotient-cells")


def _clean_json(out) -> object:
    code, stdout, stderr = out
    expect(code == 0 and "Traceback" not in stderr, f"exit {code}: {stderr[-300:]}")
    try:
        return json.loads(stdout)
    except json.JSONDecodeError:
        raise Mismatch(f"stdout is not JSON: {stdout[:200]!r}") from None


def _survey_task(ctx, spec: Spec, path: str):
    res = {}
    for cmd in _SURVEY:
        out = yield f"cli.{cmd}", ctx.cli(cmd, "--file", path)
        res[cmd] = _clean_json(out)
    fin = res["classify"]["finite_type"]
    sig = res["signature"]
    expect(fin == sig["positive_definite"], f"{spec.name}: classify {fin} vs signature {sig}")
    expect(sig["n_pos"] + sig["n_zero"] + sig["n_neg"] == len(spec.vertices), f"{spec.name}: signature size")
    tax = res["taxonomy"]
    subsets = [frozenset(T) for T in res["sf"]["subsets"]]
    family = set(subsets)
    expect(res["sf"]["count"] == len(subsets) == len(family), f"{spec.name}: sf count")
    expect(frozenset() in family and all(frozenset((v,)) in family for v in spec.vertices),
           f"{spec.name}: sf misses the empty set or a singleton")
    expect(all(T - {v} in family for T in subsets for v in T), f"{spec.name}: sf not downward closed")
    expect((frozenset(spec.vertices) in family) == fin == tax["finite_type"], f"{spec.name}: finite type")
    top = max(len(T) for T in subsets)
    expect(tax["two_dimensional"] == (top <= 2), f"{spec.name}: two_dimensional")
    ab = res["abelianization"]
    expect(ab["rank"] == odd_components(spec.vertices, spec.edges) and ab["torsion"] == [],
           f"{spec.name}: abelianization {ab}")
    f = [sum(1 for T in subsets if len(T) == k) for k in range(top + 1)]
    q = res["quotient-cells"]
    expect(q["f_vector"] == f and q["euler"] == sum((-1) ** k * c for k, c in enumerate(f)),
           f"{spec.name}: quotient cells {q}")


def _fixed_task(ctx, label, args, check):
    out = yield label, ctx.cli(*args)
    check(_clean_json(out))


def _malformed_task(ctx, args):
    code, stdout, stderr = yield f"cli.malformed.{args[0]}", ctx.cli(*args)
    expect(code in (1, 2) and not stdout and "error" in stderr and "Traceback" not in stderr,
           f"malformed {args}: exit {code}, stderr {stderr[-300:]!r}")


def cli_survey(rng: random.Random, ctx):
    def write(name, text):
        path = os.path.join(ctx.outdir, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path

    tasks = []
    for i, rank in enumerate([*range(4, 13), *range(5, 12)]):
        spec = random_spec(rng, rank, 0.45, (3, 3, 4, 5, 6, INF))
        tasks.append(partial(_survey_task, ctx, spec, write(f"survey{i}.json", spec.json_text())))

    b3 = finite_spec(rng, ("B", 3))
    b3_path = write("b3.json", b3.json_text())
    word = random_word(rng, b3.vertices, 10)

    def cox_ok(obj, model=b3.model()):
        expect(model.is_reduced(obj["word"]) and model.element(obj["word"]) == model.element(word),
               f"cox-nf {word} = {obj}")

    a3 = finite_spec(rng, ("A", 3))
    a3_path = write("a3.json", a3.json_text())
    pos = random_word(rng, a3.vertices, 6)
    moved = braid_moved(rng, a3, pos, 6)

    a2 = finite_spec(rng, ("A", 2))
    a2_path = write("a2.json", a2.json_text())
    letters = [(rng.choice(a2.vertices), rng.choice((1, -1))) for _ in range(6)]
    signed = " ".join(s if e == 1 else f"{s}^-1" for s, e in letters)

    def grp_ok(obj, model=a2.model()):
        w0, top = model.parabolic_longest(a2.vertices)
        image = model.element(obj["a"], start=w0 if obj["k"] % 2 else None)
        expect(obj["k"] * top + len(obj["a"]) == sum(e for _, e in letters)
               and image == model.element([s for s, _ in letters]), f"grp-nf {signed} = {obj}")

    i5 = finite_spec(rng, ("I2", 2, 5))
    i5_path = write("i5.json", i5.json_text())
    fixed = [
        ("cli.cox-nf", ("cox-nf", "--file", b3_path, "--word", " ".join(word)), cox_ok),
        ("cli.mon-equal", ("mon-equal", "--file", a3_path, "--left", " ".join(pos), "--right",
                           " ".join(moved)), lambda obj: expect(obj is True, f"mon-equal {pos} {moved}")),
        ("cli.grp-nf", ("grp-nf", "--file", a2_path, "--word", signed), grp_ok),
        ("cli.homology", ("homology", "--file", i5_path, "--complex", "salvetti"),
         lambda obj: expect(obj["betti"] == [1, 5, 4], f"I2(5) Salvetti homology {obj}")),
        ("cli.shelling-check", ("shelling-check", "--file", a3_path),
         lambda obj: expect(obj["passed"] and obj["conclusion"] == "1-connected", "A3 chambers")),
    ]
    tasks += [partial(_fixed_task, ctx, *f) for f in fixed]

    # Malformed inputs on which today's CLI keeps its exit-code contract.  Two
    # inputs from the robustness item of the roadmap ("edges": 5 and
    # "chambers": 5) end in a traceback today and are left out: a run must
    # have no failing op.
    bad_label = write("bad_label.json", '{"vertices": ["s", "t"], "edges": [{"a": "s", "b": "t", "m": 2}]}')
    bad_syntax = write("bad_syntax.json", '{"vertices": ["s",')
    bad_array = write("bad_array.json", '["s", "t"]')
    malformed = [
        ("classify", "--file", bad_label),
        ("classify", "--file", bad_syntax),
        ("classify", "--file", bad_array),
        ("enumerate", "--file", a3_path, "--cap", "-5"),
    ]
    tasks += [partial(_malformed_task, ctx, args) for args in malformed]
    return tasks


WORKLOADS = {
    "coxeter-enum": coxeter_enum,
    "artin-words": artin_words,
    "homology": homology,
    "cli-survey": cli_survey,
}
