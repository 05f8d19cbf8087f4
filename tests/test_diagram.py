"""Diagram construction, parsing, classification, and taxonomy flags."""

import itertools
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from artin import diagram
from artin.diagram import (
    INF,
    CoxeterDiagram,
    classify_taxonomy,
    finite_type_subsets,
    is_finite_type,
    parse_diagram,
    preset,
)
from artin.errors import DiagramError, RankGuardError

from classify_oracle import is_finite_type as trial_is_finite_type
from classify_oracle import spherical_subsets
from classify_oracle import taxonomy as literal_taxonomy
from conftest import random_diagram

FINITE_PRESETS = [
    "A1", "A2", "A3", "A4", "A5",
    "B2", "B3", "B4",
    "D4", "D5",
    "I2(5)", "I2(6)", "I2(7)", "I2(8)",
    "F4", "H3", "H4", "E6", "E7", "E8",
]


def inf_pair():
    return CoxeterDiagram(("s", "t"), (("s", "t", INF),))


@pytest.mark.parametrize("name", FINITE_PRESETS)
def test_finite_presets_classify(name):
    d = preset(name)
    finite, labels = is_finite_type(d)
    assert finite
    assert len(labels) == 1
    assert labels[0].name == name


def test_i2_small_points_canonicalize():
    assert [l.name for l in is_finite_type(preset("I2(3)"))[1]] == ["A2"]
    assert [l.name for l in is_finite_type(preset("I2(4)"))[1]] == ["B2"]


def test_infinite_diagrams():
    assert not is_finite_type(preset("Atilde2"))[0]
    assert not is_finite_type(inf_pair())[0]


def test_diagram_containing_infinite_component_is_infinite():
    # A2 disjoint-union Atilde2: one bad component poisons the whole diagram
    at = preset("Atilde2")
    d = CoxeterDiagram(
        ("a", "b") + at.vertices,
        (("a", "b", 3),) + at.edges,
    )
    finite, labels = is_finite_type(d)
    assert not finite and labels is None


def test_disjoint_union_classifies_componentwise():
    d = CoxeterDiagram(("a", "b", "x", "y", "z"),
                       (("a", "b", 3), ("x", "y", 4), ("y", "z", 3)))
    finite, labels = is_finite_type(d)
    assert finite
    assert sorted(l.name for l in labels) == ["A2", "B3"]


def test_witness_reproduces_component_labels():
    # applying the witnessed vertex map to the reference diagram must give
    # back the component's edge labels exactly
    for name in ["A3", "B3", "D4", "F4", "H3", "E6"]:
        d = preset(name)
        finite, labels = is_finite_type(d)
        assert finite
        lab = labels[0]
        pos = lab.assignment_map()
        ref = preset(lab.name)
        ref_names = {i + 1: v for i, v in enumerate(ref.vertices)}
        for u in d.vertices:
            for v in d.vertices:
                if u != v:
                    assert d.m(u, v) == ref.m(ref_names[pos[u]], ref_names[pos[v]])


def test_parse_json_roundtrip():
    d = preset("B3")
    text = json.dumps(d.to_json_obj())
    assert parse_diagram(text) == d


def test_parse_inf_label():
    d = parse_diagram('{"vertices":["s","t"],"edges":[{"a":"s","b":"t","m":"inf"}]}')
    assert d.m("s", "t") == INF


def test_parse_errors():
    with pytest.raises(DiagramError):
        parse_diagram("NotAPreset")
    with pytest.raises(DiagramError):
        parse_diagram("{not json")
    with pytest.raises(DiagramError):
        # explicit label 2 must be encoded by edge absence
        parse_diagram('{"vertices":["s","t"],"edges":[{"a":"s","b":"t","m":2}]}')
    with pytest.raises(DiagramError):
        parse_diagram('{"vertices":["s","s"],"edges":[]}')
    with pytest.raises(DiagramError):
        parse_diagram('{"vertices":["s","t"],"edges":[{"a":"s","b":"x","m":3}]}')
    with pytest.raises(DiagramError):
        preset("I2(2)")
    with pytest.raises(DiagramError):
        preset("B1")
    with pytest.raises(DiagramError, match="cannot parse diagram from int"):
        parse_diagram(123)
    with pytest.raises(DiagramError, match="self-loop at s"):
        CoxeterDiagram(("s",), (("s", "s", 3),))


@pytest.mark.parametrize("name", ["A(3", "A3)", "An(3", "An3)", "Bn(4", "D(4))", "A()", "A(3)(4)"])
def test_preset_rejects_unbalanced_parentheses(name):
    with pytest.raises(DiagramError, match="unknown preset"):
        preset(name)


@pytest.mark.parametrize("name, plain", [
    ("A(3)", "A3"), ("An(3)", "A3"), ("An3", "A3"), (" A3 ", "A3"), ("B(3)", "B3"),
    ("Bn4", "B4"), ("Dn(4)", "D4"), ("D(5)", "D5"),
])
def test_preset_family_spellings(name, plain):
    assert preset(name) == preset(plain)


def test_rank_one_diagram():
    d = parse_diagram('{"vertices":["s"],"edges":[]}')
    finite, labels = is_finite_type(d)
    assert finite and labels[0].name == "A1"


def test_finite_type_subsets_examples():
    at = preset("Atilde2")
    sf = finite_type_subsets(at)
    assert len(sf) == 7
    assert frozenset(at.vertices) not in sf

    a2 = preset("A2")
    assert len(finite_type_subsets(a2)) == 4

    sf_inf = finite_type_subsets(inf_pair())
    assert sf_inf == {frozenset(), frozenset({"s"}), frozenset({"t"})}


def test_finite_type_subsets_downward_closed(rng):
    for _ in range(15):
        d = random_diagram(rng, max_rank=4)
        sf = finite_type_subsets(d)
        assert frozenset() in sf
        for T in sf:
            for v in T:
                assert T - {v} in sf


def test_subset_consistency_with_classifier(rng):
    for _ in range(15):
        d = random_diagram(rng, max_rank=4)
        sf = finite_type_subsets(d)
        assert (frozenset(d.vertices) in sf) == is_finite_type(d)[0]


def test_finite_type_subsets_match_brute_force(rng):
    # every subset classified on its own, against the level-by-level search
    # that classifies only connected trees
    for _ in range(150):
        n = rng.randint(1, 8)
        names = tuple(f"s{i}" for i in range(n))
        p_edge = rng.choice((0.2, 0.4, 0.7))
        edges = tuple(
            (a, b, rng.choice((3, 4, 5, 6, INF)))
            for a, b in itertools.combinations(names, 2)
            if rng.random() < p_edge
        )
        d = CoxeterDiagram(names, edges)
        brute = {
            frozenset(T)
            for r in range(n + 1)
            for T in itertools.combinations(names, r)
            if not T or is_finite_type(d.subdiagram(T))[0]
        }
        assert finite_type_subsets(d) == brute, d


def test_sf_search_matches_every_subset_classified_by_candidate_trial(rng):
    # Sf, its listing order and its minimal non-members against an oracle
    # that classifies each subset on its own by isomorphism, sharing no code
    # with the mask search; names are declared out of sorted order, since the
    # declared order fixes the bits and the listing
    for _ in range(200):
        n = rng.randint(1, 9)
        names = [f"v{i}" for i in range(n)]
        rng.shuffle(names)
        p_edge = rng.choice((0.2, 0.4, 0.7))
        edges = tuple((a, b, rng.choice((3, 4, 5, 6, 7, 8, INF)))
                      for a, b in itertools.combinations(names, 2) if rng.random() < p_edge)
        d = CoxeterDiagram(tuple(names), edges)
        brute = spherical_subsets(d)
        members = set(brute)
        subsets = [frozenset(T) for k in range(n + 1) for T in itertools.combinations(names, k)]
        minimal = [T for T in subsets if T not in members and all(T - {v} in members for v in T)]
        assert finite_type_subsets(d) == members, d
        assert diagram._sf_sorted(d) == brute, d
        sf, found = diagram._sf_search(d)
        assert list(sf.values()) == brute and found == minimal, d
        assert list(sf) == [sum(1 << d.index(v) for v in T) for T in brute]


def test_sf_sorted_keeps_the_rank_guard():
    d = CoxeterDiagram(tuple(f"s{i}" for i in range(21)), ())
    errors = []
    for sf in (finite_type_subsets, diagram._sf_sorted):
        with pytest.raises(RankGuardError) as err:
            sf(d)
        e = err.value
        errors.append((e.what, e.rank, e.guard, str(e)))
    assert errors[0] == errors[1]
    message = "finite_type_subsets: rank 21 exceeds guard 20"
    assert errors[0] == ("finite_type_subsets", 21, 20, message)


def test_unpickled_diagram_hashes_like_a_fresh_one(tmp_path):
    # A string's hash depends on the interpreter's hash seed, so a hash cached
    # before pickling must not travel with the diagram to another interpreter.
    src = os.path.dirname(os.path.dirname(os.path.abspath(diagram.__file__)))
    path = str(tmp_path / "a3.pickle")
    dump = ("import pickle, sys\nfrom artin.diagram import preset\n"
            "d = preset('A3')\nhash(d)\n"
            "with open(sys.argv[1], 'wb') as f:\n    pickle.dump(d, f)\n")
    load = ("import pickle, sys\nfrom artin.diagram import preset\n"
            "with open(sys.argv[1], 'rb') as f:\n    d = pickle.load(f)\n"
            "a3 = preset('A3')\n"
            "assert d == a3 and hash(d) == hash(a3) and len({d, a3}) == 1\n")
    for seed, script in (("1", dump), ("2", load)):
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
        p = subprocess.run([sys.executable, "-c", script, path],
                           capture_output=True, text=True, env=env, timeout=60)
        assert p.returncode == 0, p.stderr


def test_index_and_labels_by_position():
    d = preset("B3")
    assert [d.index(v) for v in d.vertices] == [0, 1, 2]
    assert (d.m("s", "t"), d.m("u", "t"), d.m("s", "u")) == (4, 3, 2)
    for bad in ("x", ["s"], None):
        with pytest.raises(DiagramError, match="unknown generator"):
            d.index(bad)
    with pytest.raises(DiagramError, match="unknown generator 'x'"):
        d.m("s", "x")
    with pytest.raises(DiagramError, match=r"m\(s,s\) is undefined"):
        preset("A2").m("s", "s")


def test_rank_guard():
    names = tuple(f"s{i}" for i in range(25))
    d = CoxeterDiagram(names, ())
    with pytest.raises(RankGuardError):
        finite_type_subsets(d)
    with pytest.raises(RankGuardError, match="classify_taxonomy: rank 25 exceeds guard 20"):
        classify_taxonomy(d)


def test_taxonomy_atilde2():
    rep = classify_taxonomy(preset("Atilde2"))
    assert not rep.finite_type
    assert rep.large_type
    assert rep.two_dimensional
    assert not rep.fc_type
    assert rep.almost_spherical
    assert rep.free_of_infinity
    assert rep.locally_reducible


def test_taxonomy_a3():
    rep = classify_taxonomy(preset("A3"))
    assert rep.finite_type
    assert rep.fc_type
    assert rep.locally_reducible
    assert not rep.large_type
    assert not rep.almost_spherical


def test_taxonomy_inf_pair():
    rep = classify_taxonomy(inf_pair())
    assert rep.fc_type
    assert rep.two_dimensional
    assert not rep.free_of_infinity
    assert not rep.almost_spherical


def test_taxonomy_finite_implies_fc_and_inf_free(rng):
    for _ in range(20):
        d = random_diagram(rng, max_rank=4)
        rep = classify_taxonomy(d)
        if rep.finite_type:
            assert rep.free_of_infinity
            assert rep.fc_type


def test_subdiagram_is_induced():
    d = preset("B3")
    sub = d.subdiagram(("s", "t"))
    assert sub.vertices == ("s", "t")
    assert sub.m("s", "t") == 4


def _random_labelled(rng, n, p_edge, labels):
    names = tuple(f"s{i}" for i in range(n))
    edges = tuple(
        (a, b, rng.choice(labels))
        for a, b in itertools.combinations(names, 2)
        if rng.random() < p_edge
    )
    return CoxeterDiagram(names, edges)


SMALL_PRESETS = [
    "A1", "A2", "A3", "A4", "A5", "A6", "B2", "B3", "B4", "B5", "B6",
    "D4", "D5", "D6", "I2(5)", "I2(6)", "I2(7)", "I2(9)",
    "F4", "H3", "H4", "E6", "Atilde2",
]


def test_classification_matches_candidate_trial_in_every_vertex_order():
    for name in SMALL_PRESETS:
        d = preset(name)
        for order in itertools.permutations(d.vertices):
            r = CoxeterDiagram(order, d.edges)
            assert is_finite_type(r) == trial_is_finite_type(r), (name, order)


def test_classification_matches_candidate_trial_in_random_vertex_orders(rng):
    for name in ("E7", "E8", "B8", "D8"):
        d = preset(name)
        order = list(d.vertices)
        for _ in range(200):
            rng.shuffle(order)
            r = CoxeterDiagram(tuple(order), d.edges)
            assert is_finite_type(r) == trial_is_finite_type(r), (name, order)
    # the long families up to the rank guard
    for name in [f"{f}{k}" for f in "ABD" for k in range(9, 21)]:
        d = preset(name)
        order = list(d.vertices)
        for _ in range(25):
            rng.shuffle(order)
            r = CoxeterDiagram(tuple(order), d.edges)
            assert is_finite_type(r) == trial_is_finite_type(r), (name, order)


PRODUCT_FACTORS = [
    "A1", "A2", "A3", "A5", "B2", "B3", "B5", "D4", "D5", "D6", "I2(5)", "I2(8)",
    "F4", "H3", "H4", "E6", "E7", "E8",
]


def _shuffled_product(rng, names):
    """The disjoint union of the named presets, vertex names made distinct,
    vertices declared in a random interleaved order."""
    verts, edges = [], []
    for i, name in enumerate(names):
        d = preset(name)
        verts += [f"{v}_{i}" for v in d.vertices]
        edges += [(f"{a}_{i}", f"{b}_{i}", m) for a, b, m in d.edges]
    rng.shuffle(verts)
    rng.shuffle(edges)
    return CoxeterDiagram(tuple(verts), tuple(edges))


def test_classification_matches_candidate_trial_on_shuffled_products(rng):
    for _ in range(300):
        names = rng.choices(PRODUCT_FACTORS, k=rng.randint(2, 4))
        d = _shuffled_product(rng, names)
        finite, labels = is_finite_type(d)
        assert finite and sorted(l.name for l in labels) == sorted(names)
        assert (finite, labels) == trial_is_finite_type(d), d


@given(
    st.lists(st.sampled_from(PRODUCT_FACTORS + ["A9", "B12", "D11"]), min_size=1, max_size=3),
    st.randoms(use_true_random=False),
)
def test_witness_is_a_label_preserving_bijection_onto_the_reference(names, order_rng):
    d = _shuffled_product(order_rng, names)
    for lab in is_finite_type(d)[1]:
        ref = diagram._build_family(lab.family, lab.rank, lab.p)
        pos = lab.assignment_map()
        assert sorted(pos.values()) == list(range(1, lab.rank + 1))
        at = {u: ref.vertices[i - 1] for u, i in pos.items()}
        for u, v in itertools.combinations(pos, 2):
            assert d.m(u, v) == ref.m(at[u], at[v]), (lab, u, v)


def test_classification_matches_candidate_trial_on_random_diagrams(rng):
    labels = (3, 3, 3, 3, 4, 5, 6, 7, INF)
    finite = 0
    for _ in range(500):
        d = _random_labelled(rng, rng.randint(1, 8), rng.choice((0.15, 0.3, 0.5)), labels)
        got = is_finite_type(d)
        assert got == trial_is_finite_type(d), d
        finite += got[0]
    assert 100 < finite < 400  # both answers well represented


def test_sf_builds_no_diagram_and_searches_no_isomorphism(rng, monkeypatch):
    # Sf, the classifier and the taxonomy read shapes off adjacency maps:
    # none of them builds a CoxeterDiagram (no subdiagram, no reference
    # diagram to search against)
    diagrams = [_random_labelled(rng, 8, 0.25, (3, 3, 3, 4, 5, 6, INF)) for _ in range(20)]
    diagrams += [preset(name) for name in ("E8", "D8", "F4", "H4", "Atilde2")]
    calls = {"built": 0, "recognized": 0}

    def counting(key, fn):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(
        CoxeterDiagram, "__post_init__", counting("built", CoxeterDiagram.__post_init__)
    )
    monkeypatch.setattr(diagram, "_tree_family", counting("recognized", diagram._tree_family))
    for d in diagrams:
        finite_type_subsets(d)
        is_finite_type(d)
        classify_taxonomy(d)
    assert calls["built"] == 0
    assert calls["recognized"] > 200  # the diagrams hold many candidate trees
    # the counter sees a diagram being built
    diagrams[-1].subdiagram(("s", "t"))
    assert calls["built"] == 1


EVERY_PRESET = (
    [f"A{k}" for k in range(1, 9)]
    + [f"B{k}" for k in range(2, 9)]
    + [f"D{k}" for k in range(4, 9)]
    + [f"I2({p})" for p in range(3, 10)]
    + ["F4", "H3", "H4", "E6", "E7", "E8", "Atilde2"]
)


def test_taxonomy_flags_match_their_definitions(rng):
    diagrams = [preset(name) for name in EVERY_PRESET]
    diagrams += [
        _random_labelled(rng, rng.randint(1, 8), rng.choice((0.2, 0.4, 0.7)), (3, 4, 5, 6, INF))
        for _ in range(300)
    ]
    seen = set()
    for d in diagrams:
        order = list(d.vertices)
        rng.shuffle(order)
        d = CoxeterDiagram(tuple(order), d.edges)
        rep = classify_taxonomy(d)
        assert rep == literal_taxonomy(d), d
        seen.update((flag, value) for flag, value in vars(rep).items() if flag != "components")
    # every flag takes both values
    assert len(seen) == 2 * 7, seen
