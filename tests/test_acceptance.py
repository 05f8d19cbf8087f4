"""Acceptance gate: timed criteria, one pass line each.

Each test prints "PASS criterion N: ..." with its elapsed time and asserts
the stated runtime budget, so a -v -s run shows one line per criterion.
"""

import itertools
import json
import os
import random
import subprocess
import sys
import time

import artin
from artin import complexes, coxeter, group, monoid, shelling, tits
from artin.diagram import INF, CoxeterDiagram, is_finite_type, preset
from conftest import random_diagram

INF_PAIR = CoxeterDiagram(("s", "t"), (("s", "t", INF),))


def _report(num: int, limit: float, t0: float, msg: str) -> None:
    elapsed = time.perf_counter() - t0
    print(f"PASS criterion {num}: {msg} ({elapsed:.2f}s < {limit:g}s)")
    assert elapsed < limit, f"criterion {num} took {elapsed:.2f}s, budget {limit}s"


FINITE_PRESETS = [
    "A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "D4", "D5",
    "I2(5)", "I2(6)", "I2(7)", "I2(8)", "F4", "H3", "H4", "E6",
]


def _witness_ok(d: CoxeterDiagram, labels) -> bool:
    """The witnessed vertex maps must carry each component onto its
    reference diagram label-for-label."""
    for lab in labels:
        pos = lab.assignment_map()
        ref = preset(lab.name)
        ref_names = {i + 1: v for i, v in enumerate(ref.vertices)}
        comp = sorted(pos)
        for u, v in itertools.combinations(comp, 2):
            if d.m(u, v) != ref.m(ref_names[pos[u]], ref_names[pos[v]]):
                return False
    return True


def test_criterion_01_classification():
    t0 = time.perf_counter()
    for name in FINITE_PRESETS:
        d = preset(name)
        finite, labels = is_finite_type(d)
        assert finite, name
        assert labels[0].name == name.replace("I2(3)", "A2"), name
        assert _witness_ok(d, labels), name
    for d in (preset("Atilde2"), INF_PAIR):
        assert not is_finite_type(d)[0]
        # any diagram containing an infinite-type piece is infinite type
        bigger = CoxeterDiagram(
            d.vertices + ("z",), d.edges + ((d.vertices[0], "z", 3),)
        )
        assert not is_finite_type(bigger)[0]
    _report(1, 1.0, t0, f"{len(FINITE_PRESETS)} finite presets with verified "
            "witnesses, infinite presets and supersets rejected")


def test_criterion_02_dihedral_orders():
    t0 = time.perf_counter()
    for p in range(3, 11):
        d = preset(f"I2({p})")
        s, t = d.vertices
        assert tits.pair_order(d, s, t, tol=1e-9) == p
    _report(2, 1.0, t0, "rotation order of the dihedral product equals the "
            "edge label for p = 3..10")


def test_criterion_03_signature_vs_finite_type():
    t0 = time.perf_counter()
    rng = random.Random(31337)
    for _ in range(50):
        d = random_diagram(rng, max_rank=5)
        sig = tits.signature(tits.bilinear_form(d), tol=1e-8)
        definite = sig.n_zero == 0 and sig.n_neg == 0
        assert definite == is_finite_type(d)[0], d
    _report(3, 10.0, t0, "positive-definite form iff finite type on 50 "
            "random diagrams of rank <= 5")


def test_criterion_04_group_orders_and_divisors():
    t0 = time.perf_counter()
    expected = {"A2": 6, "B2": 8, "I2(5)": 10, "A3": 24, "B3": 48, "H3": 120}
    for name, order in expected.items():
        d = preset(name)
        layers = coxeter.enumerate_elements(d, "all")
        elements = [w for layer in layers for w in layer]
        assert len(elements) == order, name
        delta = monoid.garside_element(d, d.vertices)
        left = monoid.divisor_set(d, delta, "left")
        right = monoid.divisor_set(d, delta, "right")
        assert left == right, name
        assert len(left) == order, name
        section = {monoid.canonicalize(d, w.word) for w in elements}
        assert left == section, name
    _report(4, 120.0, t0, "|W| = 6, 8, 10, 24, 48, 120 and divisors(Delta) "
            "= section image, left = right, for all six groups")


def test_criterion_05_garside_axioms():
    t0 = time.perf_counter()
    for name in ("A2", "B2"):
        rep = monoid.verify_garside_axioms(preset(name), length_cap=4)
        assert rep.passed, name
        assert rep.cancellative and rep.length_additive
        assert rep.gcd_ok and rep.lcm_ok
        assert rep.divisors_symmetric and rep.divisors_match_section
    rep = monoid.verify_garside_axioms(INF_PAIR, length_cap=4)
    assert rep.cancellative and rep.length_additive and rep.gcd_ok
    assert not rep.lcm_ok
    assert (("s",), ("t",)) in rep.lcm_failures
    assert not rep.passed
    _report(5, 60.0, t0, "axioms exhaustively verified at cap 4 on A2 and "
            "B2; infinite pair fails only lcm existence")


def _right_letter_divisors(d, x):
    return {s for s in d.vertices
            if monoid.divides(d, (s,), x, side="right") is not None}


def test_criterion_06_normal_form_soundness():
    t0 = time.perf_counter()
    checked = 0
    for name in ("A2", "B2", "Atilde2"):
        d = preset(name)
        for length in range(1, 7):
            for word in itertools.product(d.vertices, repeat=length):
                nf = monoid.garside_normal_form(d, word)
                # round trip to an equal monoid element
                assert monoid.monoid_equal(d, nf.word(), word)
                # identical blocks for every word of the closure class
                el = monoid.canonicalize(d, word)
                cl = monoid.relation_closure(d, word)
                for member in cl:
                    assert monoid.garside_normal_form(d, member).blocks == nf.blocks
                # each block is the length-1 right-divisor set at its step
                rest = el
                for T in reversed(nf.blocks):
                    assert set(T) == _right_letter_divisors(d, rest)
                    rest = monoid.divides(
                        d, monoid.garside_element(d, T), rest, side="right"
                    )
                assert rest.length == 0
                checked += 1
    _report(6, 120.0, t0, f"normal form round-trip, closure invariance and "
            f"block rule on {checked} positive words of length <= 6")


def _relator_mutation(rng, d, letters):
    moves = []
    for s in d.vertices:
        moves.append([f"{s}", f"{s}^-1"])
        moves.append([f"{s}^-1", f"{s}"])
    for a, b, m in d.pairs():
        if m == INF:
            continue
        lhs = [a if i % 2 == 0 else b for i in range(int(m))]
        rhs = [b if i % 2 == 0 else a for i in range(int(m))]
        moves.append(lhs + [f"{x}^-1" for x in reversed(rhs)])
    pos = rng.randrange(len(letters) + 1)
    return letters[:pos] + rng.choice(moves) + letters[pos:]


def _abelian_image(d, text):
    """Exponent sums per component of the odd-label graph, the true
    abelianization invariant (an odd braid relation glues its endpoints)."""
    comp = {s: s for s in d.vertices}

    def find(x):
        while comp[x] != x:
            comp[x] = comp[comp[x]]
            x = comp[x]
        return x

    for a, b, m in d.edges:
        if m != INF and int(m) % 2 == 1:
            comp[find(a)] = find(b)
    img = {find(s): 0 for s in d.vertices}
    for letter, sign in group.parse_signed_word(text):
        img[find(letter)] += sign
    return img


def test_criterion_07_group_word_problem():
    t0 = time.perf_counter()
    for name in ("A2", "B2"):
        d = preset(name)
        signed = [f"{s}{e}" for s in d.vertices for e in ("", "^-1")]
        rng = random.Random(hash(name) & 0xFFFF)
        for _ in range(100):
            base = [rng.choice(signed) for _ in range(rng.randrange(5))]
            mutated = list(base)
            for _ in range(rng.randrange(1, 4)):
                mutated = _relator_mutation(rng, d, mutated)
            g1 = group.from_letters(d, " ".join(base))
            g2 = group.from_letters(d, " ".join(mutated))
            assert group.equal(g1, g2), (base, mutated)
        done = 0
        while done < 100:
            u = " ".join(rng.choice(signed) for _ in range(rng.randrange(6)))
            v = " ".join(rng.choice(signed) for _ in range(rng.randrange(6)))
            if _abelian_image(d, u) == _abelian_image(d, v):
                continue
            assert not group.equal(group.from_letters(d, u),
                                   group.from_letters(d, v)), (u, v)
            done += 1
        sigma = monoid.garside_permutation(d)
        delta = group.delta_element(d)
        for s in d.vertices:
            lhs = group.multiply(
                group.multiply(delta, group.from_letters(d, s)),
                group.invert(delta),
            )
            assert group.equal(lhs, group.from_letters(d, sigma[s])), s
    _report(7, 60.0, t0, "200 relator-equivalent pairs equal, 200 pairs "
            "with distinct abelianizations unequal, Delta conjugation "
            "realizes sigma")


def test_criterion_08_complexes():
    t0 = time.perf_counter()
    h = complexes.homology(complexes.order_complex(
        complexes.salvetti_poset(preset("A1"))))
    assert h.betti == (1, 1) and h.torsion == ((), ())
    for p in (3, 4):
        d = preset(f"I2({p})")
        h = complexes.homology(complexes.order_complex(complexes.salvetti_poset(d)))
        assert h.betti[0] == 1
        assert h.betti[1] == len(coxeter.reflections(d)) == p
        assert all(not t for t in h.torsion)
    for name in ("A2", "B2", "A3"):
        d = preset(name)
        h = complexes.homology(complexes.order_complex(complexes.davis_poset(d)))
        assert h.betti[0] == 1 and all(b == 0 for b in h.betti[1:]), name
        assert all(not t for t in h.torsion), name
    for name in ("A2", "B3", "Atilde2"):
        _, c = complexes.deligne_fundamental_domain(preset(name))
        h = complexes.homology(c)
        assert h.betti[0] == 1 and all(b == 0 for b in h.betti[1:]), name
        assert all(not t for t in h.torsion), name
    assert complexes.salvetti_quotient_cells(preset("A2")).f_vector == (1, 2, 1)
    assert complexes.salvetti_quotient_cells(preset("Atilde2")).f_vector == (1, 3, 3)
    _report(8, 60.0, t0, "Salvetti H matches reflection counts, Davis "
            "complexes acyclic, fundamental domains contractible, quotient "
            "f-vectors (1,2,1) and (1,3,3)")


def test_criterion_09_abelianization():
    t0 = time.perf_counter()
    for name, rank in [("A2", 1), ("A4", 1), ("I2(4)", 2), ("I2(6)", 2),
                       ("I2(5)", 1), ("I2(7)", 1), ("B3", 2)]:
        ab = complexes.abelianization(preset(name))
        assert (ab.rank, ab.torsion) == (rank, ()), name
    rng = random.Random(987)
    for _ in range(30):
        d = random_diagram(rng, max_rank=5)
        # oracle: count components of the graph of odd-labelled edges
        parent = {v: v for v in d.vertices}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for a, b, m in d.edges:
            if m != INF and int(m) % 2 == 1:
                parent[find(a)] = find(b)
        want = len({find(v) for v in d.vertices})
        ab = complexes.abelianization(d)
        assert (ab.rank, ab.torsion) == (want, ()), d
    _report(9, 5.0, t0, "free abelianization rank equals odd-graph "
            "component count on presets and 30 random diagrams")


def test_criterion_10_shelling():
    t0 = time.perf_counter()
    for name in ("I2(3)", "I2(4)"):
        cc, idx = shelling.coxeter_chamber_system(preset(name))
        rep = shelling.verify_claims(cc, idx)
        assert rep.passed, name
        assert rep.conclusion == "0-connected", name
    # adversarial index: promote the top chamber below its neighbours
    cc, idx = shelling.coxeter_chamber_system(preset("I2(3)"))
    bad = list(idx)
    bad[bad.index(3)] = 1
    bad[bad.index(2)] = 3
    rep = shelling.verify_claims(cc, bad)
    assert not rep.passed
    failures = [c for c in rep.claim_a if not c.ok]
    assert failures
    assert any("empty" in c.witness or "dimension" in c.witness
               for c in failures)
    assert rep.conclusion is None
    # every facet order of the tetrahedron boundary is a shelling
    tet = shelling.ChamberComplex(
        2, tuple(frozenset(c) for c in itertools.combinations("abcd", 3))
    )
    for order in itertools.permutations(range(4)):
        assert shelling.is_shelling(tet, order).ok, order
    _report(10, 5.0, t0, "length index shells the hexagon and octagon, "
            "adversarial index fails Claim A with witness, all 24 "
            "tetrahedron orders shell")


def test_criterion_11_h4_shelling_report_is_bounded():
    # H4 has 2,559,149 same-level chamber pairs; the report counts them and
    # lists only failures, so it stays a few kB
    t0 = time.perf_counter()
    src = os.path.dirname(os.path.dirname(os.path.abspath(artin.__file__)))
    p = subprocess.run(
        [sys.executable, "-m", "artin", "shelling-check", "--preset", "H4"],
        capture_output=True, timeout=120, env=dict(os.environ, PYTHONPATH=src),
    )
    assert (p.returncode, p.stderr) == (0, b"")
    assert len(p.stdout) < 10_000, len(p.stdout)
    rep = json.loads(p.stdout)
    assert rep["passed"] and rep["conclusion"] == "2-connected"
    assert sum(lv["pairs"] for lv in rep["levels"]) == 2_559_149
    _report(11, 20.0, t0, f"shelling-check --preset H4 passes in {len(p.stdout):,} B of JSON")
