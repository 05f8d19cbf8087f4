"""Bilinear form, reflection matrices, signatures, and dihedral orders."""

import itertools
import math

import numpy as np
import pytest

from artin.diagram import INF, CoxeterDiagram, is_finite_type, preset
from artin import diagram, tits

from conftest import random_diagram


def test_form_entries_a2():
    B = tits.bilinear_form(preset("A2"))
    assert B[0, 0] == 1.0 and B[1, 1] == 1.0
    assert B[0, 1] == pytest.approx(-0.5)
    assert np.allclose(B, B.T)


def test_form_entries_special_labels():
    d = CoxeterDiagram(("s", "t", "u"), (("s", "t", INF), ("t", "u", 4)))
    B = tits.bilinear_form(d)
    assert B[0, 1] == -1.0  # infinity is exactly -1, no cosine rounding
    assert B[0, 2] == 0.0  # absent edge (m=2) is exactly 0
    assert B[1, 2] == pytest.approx(-math.cos(math.pi / 4))


def test_reflections_are_involutions():
    for name in ["A2", "B3", "H3", "Atilde2"]:
        d = preset(name)
        n = d.rank
        for M in tits.reflection_matrices(d):
            assert np.allclose(M @ M, np.eye(n), atol=1e-12)


def test_reflections_preserve_form():
    # each sigma_s is an isometry of the bilinear form
    for name in ["A3", "B2", "I2(7)", "Atilde2"]:
        d = preset(name)
        B = tits.bilinear_form(d)
        for M in tits.reflection_matrices(d):
            assert np.allclose(M.T @ B @ M, B, atol=1e-12)


def test_signature_finite_presets_positive_definite():
    for name in ["A1", "A4", "B3", "D4", "F4", "H4", "E8", "I2(11)"]:
        sig = tits.signature(tits.bilinear_form(preset(name)))
        assert (sig.n_zero, sig.n_neg) == (0, 0), name
        assert sig.n_pos == preset(name).rank


def test_signature_affine_and_indefinite():
    sig = tits.signature(tits.bilinear_form(preset("Atilde2")))
    assert (sig.n_pos, sig.n_zero, sig.n_neg) == (2, 1, 0)
    d = CoxeterDiagram(("s", "t"), (("s", "t", INF),))
    sig2 = tits.signature(tits.bilinear_form(d))
    assert (sig2.n_pos, sig2.n_zero, sig2.n_neg) == (1, 1, 0)


def test_signature_negative_part_exists():
    # a triangle with labels (3, 3, 7) is hyperbolic: signature (2, 0, 1)
    d = CoxeterDiagram(("s", "t", "u"),
                       (("s", "t", 3), ("t", "u", 3), ("s", "u", 7)))
    sig = tits.signature(tits.bilinear_form(d))
    assert (sig.n_pos, sig.n_zero, sig.n_neg) == (2, 0, 1)


@pytest.mark.parametrize("p", range(3, 11))
def test_dihedral_rotation_order(p):
    d = preset(f"I2({p})")
    assert tits.pair_order(d, "s", "t") == p


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf, -math.inf])
def test_tolerance_must_be_finite_and_positive(tol):
    d = preset("A3")
    with pytest.raises(ValueError, match="tolerance must be positive"):
        tits.signature(tits.bilinear_form(d), tol)
    with pytest.raises(ValueError, match="tolerance must be positive"):
        tits.pair_order(d, "s", "t", tol=tol)


def test_pair_order_commuting_and_infinite():
    d = CoxeterDiagram(("s", "t", "u"), (("s", "t", INF),))
    assert tits.pair_order(d, "t", "u") == 2
    assert tits.pair_order(d, "s", "t") is None


def test_pair_order_matches_labels_everywhere():
    for name in ["A3", "B3", "F4", "H3"]:
        d = preset(name)
        for s, t, m in d.pairs():
            assert tits.pair_order(d, s, t) == m


def test_word_to_matrix_respects_relations():
    d = preset("B2")
    sts_t = tits.word_to_matrix(d, ("s", "t", "s", "t"))
    tst_s = tits.word_to_matrix(d, ("t", "s", "t", "s"))
    assert np.allclose(sts_t, tst_s, atol=1e-12)


def test_positive_definite_iff_finite_type(rng):
    for _ in range(30):
        d = random_diagram(rng, max_rank=5)
        sig = tits.signature(tits.bilinear_form(d))
        numeric = sig.n_zero == 0 and sig.n_neg == 0
        assert numeric == is_finite_type(d)[0], d


def _positive_definite(d):
    sig = tits.signature(tits.bilinear_form(d))
    return sig.n_zero == 0 and sig.n_neg == 0


def _recognized(edges, n):
    d = CoxeterDiagram(tuple(f"v{i}" for i in range(n)), tuple(edges))
    return diagram._tree_family(d._nbrs) is not None, d


def test_tree_recognizer_agrees_with_signature_on_random_trees(rng):
    labels = (3, 3, 3, 3, 3, 3, 4, 5, 6, 7, INF)
    finite = 0
    for _ in range(1000):
        n = rng.randint(1, 8)
        order = list(range(n))
        rng.shuffle(order)
        edges = [
            (f"v{order[i]}", f"v{order[rng.randrange(i)]}", rng.choice(labels))
            for i in range(1, n)
        ]
        got, d = _recognized(edges, n)
        assert got == _positive_definite(d), d
        finite += got
    assert 300 < finite < 700  # both answers well represented


def test_tree_recognizer_agrees_with_signature_on_every_small_shape():
    # the shapes on either side of each rule, up to rank 10: a branch vertex
    # with three or four arms, paths with one label other than 3 anywhere,
    # and paths with two of them
    stars = [
        arms for arms in itertools.combinations_with_replacement(range(1, 8), 3)
        if sum(arms) <= 9
    ]
    for arms in stars + [(1, 1, 1, 1), (1, 1, 1, 2)]:
        n, edges = 1, []
        for length in arms:
            prev = "v0"
            for _ in range(length):
                edges.append((prev, f"v{n}", 3))
                prev, n = f"v{n}", n + 1
        got, d = _recognized(edges, n)
        assert got == _positive_definite(d), arms
    for n in range(2, 11):
        path = [(f"v{i}", f"v{i + 1}") for i in range(n - 1)]
        specials = [[(i, m)] for i in range(n - 1) for m in (3, 4, 5, 6, 7, INF)]
        specials += [
            [(i, a), (j, b)]
            for i, j in itertools.combinations(range(n - 1), 2)
            for a in (4, 5)
            for b in (4, 5)
        ]
        for special in specials:
            labels = dict(special)
            edges = [(a, b, labels.get(i, 3)) for i, (a, b) in enumerate(path)]
            got, d = _recognized(edges, n)
            assert got == _positive_definite(d), (n, special)
