"""Chamber complexes, filtration claims, and shelling orders."""

import collections
import itertools
import json

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


# ---------------------------------------------------------------- gates

def test_chamber_system_calls_no_coset_representative(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("t_minimal_representative called")

    monkeypatch.setattr(coxeter, "t_minimal_representative", boom)
    coxeter._engine.cache_clear()
    cc, idx = coxeter_chamber_system(preset("B4"))
    assert len(cc.vertices) == 8 + 24 + 32 + 16  # |W(B4)| / |W(S - s)| over s
    assert len(cc.chambers) == 384 and max(idx) == 16


def test_claims_on_b4_intersect_no_chamber_with_all_earlier_ones(monkeypatch):
    cc, idx = coxeter_chamber_system(preset("B4"))

    def boom(*args, **kwargs):
        raise AssertionError("all-chambers fallback called")

    monkeypatch.setattr(shelling, "_meets_in_facet_union", boom)
    rep = verify_claims(cc, idx)
    assert rep.passed and rep.conclusion == "2-connected"
    order = sorted(range(len(idx)), key=lambda i: idx[i])
    assert is_shelling(cc, order).ok


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
