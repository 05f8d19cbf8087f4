"""Chamber complexes, filtration claims, and shelling orders."""

import collections
import itertools
import json
import os
import subprocess
import sys

import pytest

from artin import shelling
from artin.diagram import CoxeterDiagram, preset
from artin.errors import DiagramError
from artin.shelling import (
    ChamberComplex,
    LevelCounts,
    build_filtration,
    coxeter_chamber_system,
    is_shelling,
    parse_chamber_json,
    verify_claims,
)


def tetrahedron_boundary():
    facets = [frozenset(c) for c in itertools.combinations("abcd", 3)]
    return ChamberComplex(2, tuple(facets))


def path_complex():
    # three segments in a row: a-b, b-c, c-d
    return ChamberComplex(
        1, (frozenset("ab"), frozenset("bc"), frozenset("cd"))
    )


# ---------------------------------------------------------------- type checks

def test_chamber_complex_validation():
    with pytest.raises(ValueError):
        ChamberComplex(1, ())
    with pytest.raises(ValueError):
        ChamberComplex(1, (frozenset("abc"),))  # wrong chamber size
    with pytest.raises(ValueError):
        ChamberComplex(-1, (frozenset("a"),))


def test_parse_chamber_json():
    text = json.dumps(
        {"n": 1, "chambers": [["a", "b"], ["b", "c"]], "index": [0, 1]}
    )
    cc, idx = parse_chamber_json(text)
    assert cc.n == 1 and len(cc.chambers) == 2
    assert idx == (0, 1)
    cc2, idx2 = parse_chamber_json(json.dumps({"n": 1, "chambers": [["a", "b"]]}))
    assert idx2 is None
    with pytest.raises(ValueError):
        parse_chamber_json(json.dumps({"n": 1}))
    with pytest.raises(ValueError):
        parse_chamber_json(json.dumps({"n": 1, "chambers": [["a", "b"]], "x": 1}))


# ---------------------------------------------------------------- coxeter systems

def test_hexagon_chamber_system():
    cc, idx = coxeter_chamber_system(preset("I2(3)"))
    assert cc.n == 1
    assert len(cc.chambers) == 6
    assert sorted(idx) == [0, 1, 1, 2, 2, 3]
    # the chambers form a single cycle: every vertex lies in exactly 2
    from collections import Counter

    counts = Counter(v for ch in cc.chambers for v in ch)
    assert all(c == 2 for c in counts.values())


def test_octagon_chamber_system():
    cc, idx = coxeter_chamber_system(preset("I2(4)"))
    assert len(cc.chambers) == 8
    assert sorted(idx) == [0, 1, 1, 2, 2, 3, 3, 4]


def test_chamber_system_a3():
    cc, idx = coxeter_chamber_system(preset("A3"))
    assert cc.n == 2
    assert len(cc.chambers) == 24
    assert max(idx) == 6


def test_chamber_system_rank1_rejected():
    with pytest.raises(DiagramError):
        coxeter_chamber_system(preset("A1"))


@pytest.mark.parametrize("names, size, conclusion", [
    (("e", "f", "g"), 4 + 6 + 4, "1-connected"),
    (("a", "b", "c", "ab"), 5 + 10 + 10 + 5, "2-connected"),
])
def test_chamber_system_vertex_names_stay_distinct(names, size, conclusion):
    # A3 and A4 paths whose joined coset words collide: "e" with the identity
    # coset, and a.b.c with ab.c among the cosets of W_(S-c).
    d = CoxeterDiagram(names, tuple((x, y, 3) for x, y in zip(names, names[1:])))
    cc, idx = coxeter_chamber_system(d)
    assert len(cc.vertices) == size  # sum over s of |W| / |W_(S-s)|
    assert all(isinstance(rep, tuple) for _, rep in cc.vertices)
    rep = verify_claims(cc, idx)
    assert rep.passed and rep.conclusion == conclusion


def test_chamber_system_keeps_joined_names_for_one_letter_generators():
    cc, _ = coxeter_chamber_system(preset("I2(3)"))
    assert {v for c in cc.chambers for v in c} == {
        ("s", "e"), ("s", "s"), ("s", "ts"), ("t", "e"), ("t", "t"), ("t", "st"),
    }


def test_chamber_system_keeps_joined_names_that_do_not_collide():
    d = CoxeterDiagram(("s1", "s2", "s3"), (("s1", "s2", 3), ("s2", "s3", 3)))
    cc, _ = coxeter_chamber_system(d)
    assert ("s3", "s1s2s3") in cc.vertices and ("s1", "e") in cc.vertices
    assert all(isinstance(rep, str) for _, rep in cc.vertices)


def test_chamber_system_infinite_needs_ball():
    cc, idx = coxeter_chamber_system(preset("Atilde2"), ball=3)
    assert len(cc.chambers) == 1 + 3 + 6 + 9  # W ball sizes for Atilde2
    assert max(idx) == 3


# ---------------------------------------------------------------- claims

def test_hexagon_claims_pass():
    cc, idx = coxeter_chamber_system(preset("I2(3)"))
    rep = verify_claims(cc, idx)
    assert rep.passed
    assert rep.conclusion == "0-connected"
    assert rep.claim_a == rep.claim_b == ()
    # lengths 1 and 2 hold two chambers each, one pair; length 3 one chamber
    assert rep.levels == (LevelCounts(1, 2, 2, 1, 1), LevelCounts(2, 2, 2, 1, 1),
                          LevelCounts(3, 1, 1, 0, 0))


def test_octagon_claims_pass():
    cc, idx = coxeter_chamber_system(preset("I2(4)"))
    rep = verify_claims(cc, idx)
    assert rep.passed and rep.conclusion == "0-connected"


def test_a3_claims_pass():
    cc, idx = coxeter_chamber_system(preset("A3"))
    rep = verify_claims(cc, idx)
    assert rep.passed
    assert rep.conclusion == "1-connected"


def test_path_claims_contractible():
    cc = path_complex()
    rep = verify_claims(cc, (0, 1, 2))
    assert rep.passed
    assert rep.conclusion == "contractible"


def test_single_chamber_is_contractible():
    cc = ChamberComplex(2, (frozenset("abc"),))
    rep = verify_claims(cc, (0,))
    assert rep.passed and rep.conclusion == "contractible"


def test_adversarial_index_fails_claim_a_with_witness():
    # hexagon, but a chamber far from the base gets level 1: its
    # intersection with the level-0 part is empty
    cc, idx = coxeter_chamber_system(preset("I2(3)"))
    bad = list(idx)
    bad[idx.index(3)] = 1
    bad[idx.index(2)] = 3
    rep = verify_claims(cc, tuple(bad))
    assert not rep.passed
    assert rep.conclusion is None
    failures = [c for c in rep.claim_a if not c.ok]
    assert failures
    assert "empty" in failures[0].witness or "dimension" in failures[0].witness


def test_low_dimensional_intersection_fails_claim_a():
    # two triangles sharing only a vertex
    cc = ChamberComplex(2, (frozenset("abc"), frozenset("cde")))
    rep = verify_claims(cc, (0, 1))
    assert not rep.passed
    bad = [c for c in rep.claim_a if not c.ok]
    assert bad and bad[0].level == 1


def test_claim_b_holds_on_a_face_shared_with_the_previous_level():
    # three triangles around the edge ab: the level-1 chambers meet each
    # other exactly in the face each shares with C(0)
    cc = ChamberComplex(2, (frozenset("abc"), frozenset("abd"), frozenset("abe")))
    rep = verify_claims(cc, (0, 1, 1))
    assert rep.passed and rep.conclusion == "contractible"
    assert rep.claim_b == ()
    assert rep.levels == (LevelCounts(1, 2, 2, 1, 1),)


def test_claim_b_violation():
    # two level-1 triangles meet C(0) in edges (claim A holds) but share
    # the edge bd with each other, which is not a face of C(0)
    cc = ChamberComplex(
        2,
        (frozenset("abc"), frozenset("abd"), frozenset("bcd")),
    )
    rep = verify_claims(cc, (0, 1, 1))
    assert not rep.passed
    assert rep.claim_a == ()
    assert [c.chambers for c in rep.claim_b] == [(1, 2)]
    assert "not a face" in rep.claim_b[0].witness
    assert rep.levels == (LevelCounts(1, 2, 2, 1, 0),)


def test_index_validation():
    cc = path_complex()
    with pytest.raises(ValueError):
        verify_claims(cc, (0, 1))  # wrong length
    with pytest.raises(ValueError):
        verify_claims(cc, (1, 1, 2))  # no chamber at level 0
    with pytest.raises(ValueError):
        verify_claims(cc, (0, 0, -1))


def test_build_filtration():
    cc, idx = coxeter_chamber_system(preset("I2(3)"))
    sub = build_filtration(cc, idx, 1)
    assert len(sub.chambers) == 3
    assert all(
        c in cc.chambers for c in sub.chambers
    )
    with pytest.raises(ValueError, match=r"C\(-1\) is empty; the base chamber has index 0"):
        build_filtration(cc, idx, -1)


# ---------------------------------------------------------------- shelling

def test_all_tetrahedron_orders_shell():
    tet = tetrahedron_boundary()
    for order in itertools.permutations(range(4)):
        assert is_shelling(tet, order).ok


def test_path_orders():
    cc = path_complex()
    assert is_shelling(cc, (0, 1, 2)).ok
    assert is_shelling(cc, (1, 0, 2)).ok
    chk = is_shelling(cc, (0, 2, 1))
    assert not chk.ok
    assert chk.violation_position == 1
    assert chk.witness


def test_is_shelling_validates_order():
    cc = path_complex()
    with pytest.raises(ValueError):
        is_shelling(cc, (0, 1))
    with pytest.raises(ValueError):
        is_shelling(cc, (0, 1, 1))


def test_claims_imply_index_sorted_orders_shell():
    # any index-nondecreasing order of a claims-passing complex shells
    for name in ["I2(3)", "I2(4)", "A3"]:
        cc, idx = coxeter_chamber_system(preset(name))
        assert verify_claims(cc, idx).passed
        order = sorted(range(len(cc.chambers)), key=lambda i: idx[i])
        assert is_shelling(cc, tuple(order)).ok


# ---------------------------------------------------------------- oracles

import random  # noqa: E402

import shelling_oracle  # noqa: E402

from artin import coxeter  # noqa: E402
from artin.diagram import INF  # noqa: E402

SMALL_PRESETS = ["A2", "A3", "A4", "B2", "B3", "B4", "D4", "F4", "H3", "H4",
                 "I2(5)", "I2(6)", "I2(8)"]


def _shuffled(d, rng):
    names = list(d.vertices)
    rng.shuffle(names)
    return CoxeterDiagram(tuple(names), d.edges)


def _same_chamber_system(d, ball="all", verify=True):
    coxeter._engine.cache_clear()
    got = coxeter_chamber_system(d, ball)
    coxeter._engine.cache_clear()
    want = shelling_oracle.coxeter_chamber_system(d, ball)
    assert got == want
    if verify:
        assert verify_claims(*got) == shelling_oracle.verify_claims(*want)


@pytest.mark.parametrize("name", SMALL_PRESETS)
def test_chamber_system_matches_oracle_in_shuffled_vertex_orders(name):
    rng = random.Random(name)
    d = preset(name)
    for k in range(3):
        # the oracle checks H4's 2.6 M same-level pairs one by one; its chambers
        # are compared alone, and its report in test_h4_claims_count_every_pair
        _same_chamber_system(d if k == 0 else _shuffled(d, rng), verify=name != "H4")


def test_h4_claims_count_every_pair():
    cc, idx = coxeter_chamber_system(preset("H4"))
    rep = verify_claims(cc, idx)
    assert rep.passed and rep.conclusion == "2-connected"
    assert rep.claim_a == rep.claim_b == ()
    sizes = sorted(collections.Counter(idx).items())[1:]
    assert [(c.level, c.chambers) for c in rep.levels] == sizes
    for c in rep.levels:
        assert c.claim_a_passed == c.chambers
        assert c.claim_b_passed == c.pairs == c.chambers * (c.chambers - 1) // 2
    assert sum(c.pairs for c in rep.levels) == 2_559_149


def _random_infinite(rng, rank):
    names = tuple("abcd"[:rank])
    labels = [2, 3, 4, 5, 6, INF]
    while True:
        edges = tuple((x, y, m) for x, y in itertools.combinations(names, 2)
                      if (m := rng.choice(labels)) != 2)
        d = CoxeterDiagram(names, edges)
        if not coxeter._engine(d).finite:
            return d


@pytest.mark.parametrize("ball", [1, 2, 3])
def test_chamber_system_matches_oracle_on_infinite_balls(ball):
    rng = random.Random(ball)
    diagrams = [preset("Atilde2"), _shuffled(preset("Atilde2"), rng)]
    diagrams += [_random_infinite(rng, rank) for rank in (3, 3, 4, 4)]
    for d in diagrams:
        _same_chamber_system(d, ball)


@pytest.mark.parametrize("names", [("e", "f", "g"), ("a", "b", "c", "ab"), ("ab", "c", "a", "b")])
def test_chamber_system_matches_oracle_on_colliding_names(names):
    d = CoxeterDiagram(names, tuple((x, y, 3) for x, y in zip(names, names[1:])))
    _same_chamber_system(d)
    _same_chamber_system(d, 2)


def _random_indexed_complex(rng):
    """A chamber complex on integer vertices, mostly grown by gluing new
    chambers along facets of old ones, with a mostly increasing index."""
    n = rng.randint(0, 3)
    chambers = [frozenset(range(n + 1))]
    top = n + 1
    for _ in range(rng.randint(0, 9)):
        if n and rng.random() < 0.75:
            base = sorted(rng.choice(chambers))
            facet = set(base) - {rng.choice(base)}
            x = top if rng.random() < 0.6 else rng.randrange(top)
            if x in facet:
                x = top
            chamber = frozenset(facet | {x})
        else:
            chamber = frozenset(rng.sample(range(top + 2), n + 1))
        top = max(top, max(chamber) + 1)
        chambers.append(chamber)
    index = [0] + sorted(rng.randint(1, 4) for _ in chambers[1:])
    if rng.random() < 0.3:
        rest = index[1:]
        rng.shuffle(rest)
        index = [0] + rest
    return ChamberComplex(n, tuple(chambers)), tuple(index)


def test_claims_and_shellings_match_oracle_on_random_complexes():
    rng = random.Random(2024)
    outcomes = set()
    for _ in range(3000):
        cc, index = _random_indexed_complex(rng)
        got = verify_claims(cc, index)
        assert got == shelling_oracle.verify_claims(cc, index), (cc, index)
        order = sorted(range(len(index)), key=lambda i: (index[i], rng.random()))
        if rng.random() < 0.3:
            rng.shuffle(order)
        chk = is_shelling(cc, order)
        assert chk == shelling_oracle.is_shelling(cc, order), (cc, order)
        outcomes.add((cc.n, got.passed, chk.ok))
    # every dimension, with passing and failing reports and orders; for n = 0
    # only a single chamber passes
    both = {(n, x) for n in (1, 2, 3) for x in (True, False)}
    assert {(n, p) for n, p, _ in outcomes} >= both | {(0, False)}
    assert {(n, ok) for n, _, ok in outcomes} >= both


def _relabel(v):
    """Integer vertex v as an int, a string or a tuple, so one complex mixes
    vertex types (and hash orders)."""
    return (v, f"v{v}", ("t", v))[v % 3]


def _large_indexed_complex(rng, size, n, shelled):
    """`_random_indexed_complex` grown to `size` chambers with about 20 per
    level, plus planted failures at chamber indices past 64 and past 1,000
    (where the complex reaches them), all at one new top level: a Claim A
    failure (a chamber meeting the rest in one vertex, or in nothing), a
    Claim B pair (two facets of earlier chambers coned to one new vertex)
    and a duplicated chamber.  If `shelled`, every other chamber cones a
    facet of an earlier one to a new vertex, so the index order shells up
    to the planted chambers."""
    chambers = [frozenset(range(n + 1))]
    top = n + 1
    while len(chambers) < size:
        if n and (shelled or rng.random() < 0.9):
            base = sorted(rng.choice(chambers))
            facet = set(base) - {rng.choice(base)}
            x = top if shelled or rng.random() < 0.7 else rng.randrange(top)
            chamber = frozenset(facet | {top if x in facet else x})
        else:
            chamber = frozenset(rng.sample(range(top + 2), n + 1))
        top = max(top, max(chamber) + 1)
        chambers.append(chamber)
    index = [0] + sorted(rng.randint(1, max(1, size // 20)) for _ in chambers[1:])
    planted = []
    if n:
        f, g = (sorted(rng.choice(chambers))[1:] for _ in range(2))
        planted += [frozenset(f) | {top}, frozenset(g) | {top}]  # Claim B, unless f == g
        planted.append(frozenset([rng.choice(f)] + list(range(top + 1, top + n + 1))))
    planted += [frozenset(range(top + n + 1, top + 2 * n + 2)), rng.choice(chambers)]
    level = max(index) + 1
    for at in (65, 1001):
        if at < len(chambers):
            for k, chamber in enumerate(planted):
                chambers.insert(at + 3 * k, chamber)
                index.insert(at + 3 * k, level)
    relabelled = tuple(frozenset(map(_relabel, c)) for c in chambers)
    return ChamberComplex(n, relabelled), tuple(index)


@pytest.mark.parametrize("size, n, shelled", [
    (100, 0, False), (150, 1, False), (400, 2, True), (1100, 3, False), (1100, 2, True),
    (2000, 2, False),
])
def test_bitsets_over_many_words_match_the_oracle(size, n, shelled):
    rng = random.Random(size + n)
    cc, index = _large_indexed_complex(rng, size, n, shelled)
    rep = verify_claims(cc, index)
    assert rep == shelling_oracle.verify_claims(cc, index)
    # the planted failures are reported past the first machine word
    assert any(c.chambers[0] > 64 for c in rep.claim_a)
    if len(cc.chambers) > 1000:
        assert any(c.chambers[0] > 1000 for c in rep.claim_a)
    if n:
        assert any(c.chambers[0] > 64 for c in rep.claim_b)
    orders = [sorted(range(len(index)), key=index.__getitem__), list(range(len(index)))]
    rng.shuffle(orders[1])
    for order in orders:
        chk = is_shelling(cc, order)
        assert chk == shelling_oracle.is_shelling(cc, order)
    if shelled:  # the index order fails first at a planted chamber, past the first word
        assert is_shelling(cc, orders[0]).violation_position > 64


def test_f4_report_does_not_depend_on_the_hash_seed():
    # vertex ids follow frozenset iteration order, which the hash seed moves
    script = (
        "import json, random; from artin.diagram import preset; from artin import shelling\n"
        "cc, idx = shelling.coxeter_chamber_system(preset('F4'))\n"
        "idx = list(idx); random.Random(4).shuffle(idx)\n"
        "print(json.dumps(shelling.verify_claims(cc, idx).to_json_obj()))\n"
        "print(json.dumps(shelling.is_shelling(cc, random.Random(5).sample(range(len(idx)), len(idx))).to_json_obj()))"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    outs = set()
    for seed in ("1", "2", "5"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, check=True)
        outs.add(proc.stdout)
    assert len(outs) == 1
    report = json.loads(outs.pop().splitlines()[0])
    assert report["claim_a"] and report["claim_b"]


# ---------------------------------------------------------------- gates

def test_chamber_system_calls_no_coset_representative(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("t_minimal_representative called")

    monkeypatch.setattr(coxeter, "t_minimal_representative", boom)
    coxeter._engine.cache_clear()
    cc, idx = coxeter_chamber_system(preset("B4"))
    assert len(cc.vertices) == 8 + 24 + 32 + 16  # |W(B4)| / |W(S - s)| over s
    assert len(cc.chambers) == 384 and max(idx) == 16


def _passes_without_the_fallback(name, monkeypatch, conclusion):
    cc, idx = coxeter_chamber_system(preset(name))

    def boom(*args, **kwargs):
        raise AssertionError("all-chambers fallback called")

    monkeypatch.setattr(shelling, "_meets_in_facet_union", boom)
    rep = verify_claims(cc, idx)
    assert rep.passed and rep.conclusion == conclusion
    order = sorted(range(len(idx)), key=lambda i: idx[i])
    assert is_shelling(cc, order).ok


def test_claims_on_b4_intersect_no_chamber_with_all_earlier_ones(monkeypatch):
    _passes_without_the_fallback("B4", monkeypatch, "2-connected")


@pytest.mark.parametrize("name", ["F4", "H4"])
def test_claims_on_f4_and_h4_intersect_no_chamber_with_all_earlier_ones(name, monkeypatch):
    _passes_without_the_fallback(name, monkeypatch, "2-connected")


@pytest.mark.parametrize("name", ["F4", "H4"])
def test_failing_chambers_meet_only_their_neighbours(name, monkeypatch):
    # with a shuffled length index most chambers fail Claim A; each is handed
    # only the earlier chambers that share one of its vertices
    cc, idx = coxeter_chamber_system(preset(name))
    idx = list(idx)
    random.Random(name).shuffle(idx)
    handed = []
    meets = shelling._meets_in_facet_union

    def checked(chamber, others, n):
        assert all(chamber & o for o in others)
        handed.append(chamber)
        return meets(chamber, others, n)

    monkeypatch.setattr(shelling, "_meets_in_facet_union", checked)
    rep = verify_claims(cc, idx)
    assert len(handed) == len(rep.claim_a) > len(cc.chambers) // 3
    order = random.Random(1).sample(range(len(idx)), len(idx))
    chk = is_shelling(cc, order)
    assert not chk.ok and len(handed) == len(rep.claim_a) + 1
    if name == "F4":
        monkeypatch.undo()
        assert rep == shelling_oracle.verify_claims(cc, idx)
        assert chk == shelling_oracle.is_shelling(cc, order)


def test_witness_names_the_first_face_by_size_then_reprs():
    # chamber 2 meets the earlier chambers in the vertices p and s alone
    cc = ChamberComplex(2, tuple(map(frozenset, ("pqr", "qas", "psx"))))
    rep = verify_claims(cc, (0, 1, 2))
    assert [c.chambers for c in rep.claim_a] == [(1,), (2,)]
    assert rep.claim_a[1].witness == "maximal shared face ['p'] has dimension 0, expected 1"
    # the same chamber 2 after two chambers glued along the edge qr
    chk = is_shelling(ChamberComplex(2, tuple(map(frozenset, ("pqr", "qrs", "psx")))), (0, 1, 2))
    assert (chk.violation_position, chk.witness) == (
        2, "chamber 2: maximal shared face ['p'] has dimension 0, expected 1"
    )
