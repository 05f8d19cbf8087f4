"""Posets, order complexes, Smith normal form homology, quotient cells."""

import collections
import copy
import itertools
import json
import math
import pickle
import time

import numpy as np
import pytest

from artin import cli, complexes, coxeter, diagram
from artin.complexes import (
    Poset,
    SimplicialComplex,
    abelianization,
    davis_poset,
    deligne_fundamental_domain,
    homology,
    invariant_factors,
    order_complex,
    salvetti_poset,
    salvetti_quotient_cells,
)
from artin.diagram import CoxeterDiagram, INF, is_finite_type, preset
from artin.errors import CapExceededError, FiniteTypeRequiredError

import poset_oracle
from classify_oracle import spherical_subsets
from conftest import random_diagram
from cw_oracle import cw_chains
from homology_oracle import plain_homology


def inf_pair():
    return CoxeterDiagram(("s", "t"), (("s", "t", INF),))


# ---------------------------------------------------------------- poset type

def test_poset_rejects_nontransitive_relation():
    with pytest.raises(ValueError):
        Poset(elements=(0, 1, 2), labels=("a", "b", "c"),
              less=frozenset({(0, 1), (1, 2)}))  # missing (0, 2)


def test_poset_rejects_cycles():
    for less in ({(0, 1), (1, 0)}, {(0, 1), (1, 1)}):
        with pytest.raises(ValueError, match="not antisymmetric"):
            Poset(elements=(0, 1), labels=("a", "b"), less=frozenset(less))


@pytest.mark.parametrize("pair", [(0, 5), (5, 0), (-1, 1), (0, 2)])
def test_poset_rejects_indices_outside_its_elements(pair):
    with pytest.raises(ValueError, match="not two element indices"):
        Poset(elements=("a", "b"), labels=("a", "b"), less=frozenset({pair}))


def test_covers_and_chains_on_a_diamond():
    # 0 < 1,2 < 3
    less = frozenset({(0, 1), (0, 2), (0, 3), (1, 3), (2, 3)})
    p = Poset(elements=(0, 1, 2, 3), labels=("o", "l", "r", "i"), less=less)
    assert set(p.covers()) == {(0, 1), (0, 2), (1, 3), (2, 3)}
    assert sorted(p.maximal_chains()) == [(0, 1, 3), (0, 2, 3)]


def _random_poset(rng, n):
    """Subsets of a small set under strict inclusion, in shuffled order."""
    sets = list({frozenset(rng.sample(range(5), rng.randint(0, 5))) for _ in range(n)})
    rng.shuffle(sets)
    less = frozenset(
        (i, j) for i, a in enumerate(sets) for j, b in enumerate(sets) if a < b
    )
    return Poset(tuple(sets), tuple(map(str, range(len(sets)))), less)


def test_covers_match_their_definition(rng):
    for _ in range(200):
        p = _random_poset(rng, rng.randint(0, 14))
        expect = sorted(
            (i, j) for i, j in p.less
            if not any((i, k) in p.less and (k, j) in p.less for k in range(len(p)))
        )
        assert p.covers() == expect


def _brute_maximal_chains(p):
    """Maximal chains from their definition on `less` alone: the sequences
    from a minimal to a maximal element, each step i < j with no k between."""
    n = len(p)
    ups = {i: [j for j in range(n) if (i, j) in p.less
               and not any((i, k) in p.less and (k, j) in p.less for k in range(n))]
           for i in range(n)}
    todo = [(i,) for i in range(n) if not any((j, i) in p.less for j in range(n))]
    chains = []
    while todo:
        c = todo.pop()
        if ups[c[-1]]:
            todo.extend(c + (j,) for j in ups[c[-1]])
        else:
            chains.append(c)
    return sorted(chains)


def _chain_cases(rng):
    posets = [_random_poset(rng, rng.randint(0, 14)) for _ in range(200)]
    for d in (preset("A3"), preset("B3"), preset("Atilde2")):
        posets += [salvetti_poset(d, 2), davis_poset(d, 2), deligne_fundamental_domain(d)[0]]
    return posets


def test_maximal_chains_are_listed_in_lexicographic_order(rng):
    for p in _chain_cases(rng):
        assert p.maximal_chains() == _brute_maximal_chains(p)


def test_maximal_chains_are_counted_without_listing_them(rng):
    for p in _chain_cases(rng):
        assert p._count_maximal_chains() == len(_brute_maximal_chains(p))


def test_order_complex_is_the_complex_of_maximal_chains(rng):
    posets = _chain_cases(rng) + [salvetti_poset(preset("A2")), davis_poset(preset("B2")),
                                  deligne_fundamental_domain(preset("A3"))[0]]
    for p in posets:
        # copies of a complex whose facets are unread
        c, copied, unpickled = order_complex(p), copy.copy(order_complex(p)), pickle.loads(
            pickle.dumps(order_complex(p)))
        assert "facets" not in vars(copied) and "facets" not in vars(unpickled)
        want = SimplicialComplex.from_faces(p.maximal_chains())
        assert c == want and repr(c) == repr(want) and hash(c) == hash(want)
        assert c.to_json_obj() == want.to_json_obj()
        assert copied == c == unpickled and unpickled._poset == p


def _bowtie():
    """0, 1 < 2 < 3, 4: a cone on its middle element 2 alone."""
    less = frozenset({(0, 2), (1, 2), (2, 3), (2, 4), (0, 3), (0, 4), (1, 3), (1, 4)})
    return Poset((0, 1, 2, 3, 4), tuple("abcde"), less)


def test_order_complex_reads_its_cone_point_and_homology_off_its_poset(rng):
    posets = _chain_cases(rng) + [_bowtie()]
    assert order_complex(_bowtie()).facets == tuple(map(frozenset, _bowtie().maximal_chains()))
    cones = 0
    for p in posets:
        c = order_complex(p)
        plain = SimplicialComplex(c.vertices, c.facets)
        assert p._has_cone_point() == bool(c.facets and frozenset.intersection(*c.facets)), p
        assert c.dimension == plain.dimension
        assert homology(c) == plain_homology(plain), p.labels
        cones += p._has_cone_point()
    assert 0 < cones < len(posets)


def _rank_three_ball(rng):
    """A random rank-3 diagram of infinite type (labels 3..6 and infinity)."""
    while True:
        names = ("s", "t", "u")
        edges = tuple(
            (a, b, m) for a, b in (("s", "t"), ("s", "u"), ("t", "u"))
            if (m := rng.choice((2, 3, 4, 5, 6, INF))) != 2
        )
        d = CoxeterDiagram(names, edges)
        if not is_finite_type(d)[0]:
            return d


def test_lower_set_posets_match_the_pairwise_oracle(rng):
    # Salvetti and Davis posets on I2(3..8), A1^3, A1 x A2, and A3 and B3 in
    # every vertex order, Davis H3, balls of radius 1 to 3 in the affine
    # groups A~2, C~2 and G~2, and balls in random infinite rank-3 groups,
    # each also in a shuffled vertex order.  The oracle sorts its elements,
    # so equal element tuples show that the lower-set builder needs no sort.
    finite = [preset(f"I2({m})") for m in range(3, 9)]
    finite += [CoxeterDiagram(("a", "b", "c"), ()),
               CoxeterDiagram(("a", "b", "c"), (("b", "c", 3),))]
    finite += [CoxeterDiagram(order, d.edges) for d in (preset("A3"), preset("B3"))
               for order in itertools.permutations(d.vertices)]
    cases = [(kind, d, "all") for d in finite for kind in ("salvetti", "davis")]
    cases.append(("davis", preset("H3"), "all"))
    affine = [preset("Atilde2"),
              CoxeterDiagram(("s", "t", "u"), (("s", "t", 4), ("t", "u", 4))),
              CoxeterDiagram(("s", "t", "u"), (("s", "t", 6), ("t", "u", 3)))]
    balls = [_rank_three_ball(rng) for _ in range(4)]
    # permutations() lists the declared order first, so each copy is reordered
    affine += balls + [CoxeterDiagram(rng.choice(list(itertools.permutations(d.vertices))[1:]),
                                      d.edges) for d in balls]
    cases += [(kind, d, ball) for d in affine for ball in (1, 2, 3)
              for kind in ("salvetti", "davis")]
    for kind, d, ball in cases:
        p = getattr(complexes, f"{kind}_poset")(d, ball)
        q = getattr(poset_oracle, f"{kind}_poset")(d, ball)
        assert (p.elements, p.labels, p.metadata) == (q.elements, q.labels, q.metadata)
        assert p.less == q.less, (kind, d, ball)


def test_davis_poset_finds_no_coset_representative(monkeypatch):
    # The Davis cells are read off the walks that build the Salvetti order,
    # not found coset by coset; a call count gates where wall time cannot.
    calls = []
    real = coxeter.t_minimal_representative

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(coxeter, "t_minimal_representative", counted)
    sizes = [len(davis_poset(d, ball)) for d, ball in
             ((preset("A3"), "all"), (preset("B3"), "all"), (preset("Atilde2"), 3))]
    assert calls == [] and min(sizes) > 0


def test_cell_posets_walk_w_r_only_as_far_as_the_ball():
    # W(E6) has 51,840 elements and W(E8) 696,729,600.  A cell (v, R) in a
    # ball of radius r lies over v x with x in W_R only if l(x) <= 2r, so the
    # radius-1 Salvetti poset creates at most the elements of length 1 to 3:
    # 76 in E6 and 155 in E8.  A Davis cell needs l(v) + l(x) <= r, and the
    # walks only read the edges leaving their last layer, so the radius-1
    # Davis poset creates the generators and nothing else.  E6 comes first,
    # where a full walk fails fast.
    for d, seen in ((preset("E6"), 76), (preset("E8"), 155)):
        n = len(d.vertices)
        coxeter._engine.cache_clear()
        eng = coxeter._engine(d)
        assert len(davis_poset(d, 1)) == 2**n + n * 2 ** (n - 1)
        assert len(eng.sig) - 1 == n
        assert len(salvetti_poset(d, 1)) == (n + 1) * 2**n
        assert len(eng.sig) - 1 <= seen


def test_cell_posets_make_no_element_or_root_on_a_warm_engine():
    # The cells are keyed by engine ids, and the walks of W_R step from v
    # only along Cayley edges an enumeration set: a Davis cell over v x needs
    # l(v x) <= r, a Salvetti cell needs l(x) <= r + l(v), so l(v x) <= 3r.
    # Once those are enumerated, building a poset adds no element and no root.
    cases = [(preset(name), "all") for name in ("A3", "B3", "H3", "I2(7)")]
    cases += [(preset("Atilde2"), ball) for ball in (1, 2)]
    cases += [(CoxeterDiagram(("a", "b", "c"), (("a", "b", INF), ("a", "c", 3), ("b", "c", 6))), 2)]
    for d, ball in cases:
        coxeter._engine.cache_clear()
        eng = coxeter._engine(d)
        far = ball if ball == "all" else 3 * ball
        for build, radius in ((davis_poset, ball), (salvetti_poset, far)):
            coxeter.enumerate_elements(d, radius)
            sizes = len(eng.sig), len(eng.coords)
            assert len(build(d, ball)) > 0
            assert (len(eng.sig), len(eng.coords)) == sizes, (build, d, ball)


def test_cell_posets_stop_at_the_poset_guard():
    # |W(E6)| = 51,840: the cells past the 3,000-element guard are never
    # listed and no W_R is walked, so each call stops in well under 3 s.
    for build in (davis_poset, salvetti_poset):
        coxeter._engine.cache_clear()
        t0 = time.perf_counter()
        with pytest.raises(CapExceededError, match="poset size exceeded cap 3000"):
            build(preset("E6"))
        assert time.perf_counter() - t0 < 3


def test_salvetti_poset_guard_counts_cells_not_elements():
    # D4's ball has 192 elements, under the guard, but the Salvetti complex
    # has 3,072 cells, over it; the Davis complex has 865 cells and builds.
    with pytest.raises(CapExceededError, match="poset size exceeded cap 3000"):
        salvetti_poset(preset("D4"))
    assert len(davis_poset(preset("D4"))) == 865


def test_whole_davis_poset_needs_finite_type():
    with pytest.raises(FiniteTypeRequiredError, match="ball='all' needs a finite-type diagram"):
        davis_poset(preset("Atilde2"), "all")


def test_cell_posets_stop_enumerating_w_at_the_poset_guard():
    # Each element u of the ball gives the cell (u, {}), so an enumeration
    # past 3,000 elements already decides the guard: the engine stops near
    # the guard instead of meeting all of W, and E7 and E8, over the 10^6
    # size guard of a whole enumeration, report the poset guard too.
    for name in ("E6", "E7", "E8"):
        for build in (davis_poset, salvetti_poset):
            coxeter._engine.cache_clear()
            with pytest.raises(CapExceededError) as err:
                build(preset(name))
            assert (err.value.what, err.value.cap, str(err.value)) == (
                "poset size", 3000, "poset size exceeded cap 3000"
            )
            assert len(coxeter._engine(preset(name)).sig) < 4000


def test_davis_cells_spend_no_roots_on_descents():
    # T-minimality is read off the descents the enumeration set, so the
    # Davis poset makes no element u s outside the ball: at radius 2 this
    # diagram needs 43 root coefficients, as many as its radius-2 enumeration.
    d = CoxeterDiagram(("a", "b", "c"), (("a", "b", INF), ("a", "c", 3), ("b", "c", 6)))
    coxeter._engine.cache_clear()
    full = davis_poset(d, 2)
    coxeter._engine.cache_clear()
    assert davis_poset(d, 2, cap=43) == full
    coxeter._engine.cache_clear()
    with pytest.raises(CapExceededError):
        davis_poset(d, 2, cap=42)


# ---------------------------------------------------------------- SNF

def test_invariant_factors_examples():
    assert invariant_factors({0: {0: 2}, 1: {1: 3}}) == [1, 6]
    assert invariant_factors({0: {0: 4}, 1: {1: 6}}) == [2, 12]
    assert invariant_factors({}) == []
    assert invariant_factors({0: {0: 5}}) == [5]
    # a unimodular matrix has all factors 1
    assert invariant_factors({0: {0: 1, 1: 7}, 1: {1: 1}}) == [1, 1]


def test_invariant_factors_against_dense_oracle(rng):
    # random small integer matrices: product of factors = |det| gcd checks
    for _ in range(25):
        n = rng.randint(1, 4)
        M = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        rows = {
            i: {j: v for j, v in enumerate(row) if v}
            for i, row in enumerate(M)
            if any(row)
        }
        factors = invariant_factors(rows)
        det = round(float(np.linalg.det(np.array(M, dtype=np.float64))))
        prod = 1
        for f in factors:
            prod *= f
        if det != 0:
            assert len(factors) == n
            assert prod == abs(det)
        for a, b in zip(factors, factors[1:]):
            assert b % a == 0


def _unimodular(rng, n):
    """A random n x n integer matrix of determinant +-1: a signed
    permutation times random elementary row operations."""
    perm = list(range(n))
    rng.shuffle(perm)
    M = [[rng.choice((1, -1)) if j == perm[i] else 0 for j in range(n)] for i in range(n)]
    for _ in range(3 * (n - 1)):
        i, j = rng.sample(range(n), 2)
        q = rng.randint(-3, 3)
        M[i] = [a + q * b for a, b in zip(M[i], M[j])]
    return M


def _matmul(A, B):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)] for row in A]


def test_invariant_factors_of_a_disguised_diagonal(rng):
    # U D V with U, V unimodular has the invariant factors of D; D is
    # m x n, its chain may start with units, and its last rows are zero.
    for _ in range(60):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        chain, d = [], 1
        for _ in range(rng.randint(0, min(m, n))):
            d *= rng.choice((1, 1, 2, 3, 6))
            chain.append(d)
        D = [[chain[i] if i == j and i < len(chain) else 0 for j in range(n)] for i in range(m)]
        M = _matmul(_matmul(_unimodular(rng, m), D), _unimodular(rng, n))
        rows = {i: {j: v for j, v in enumerate(row) if v} for i, row in enumerate(M)}
        assert invariant_factors(rows) == chain, M


# ---------------------------------------------------------------- complexes

def test_from_faces_keeps_the_maximal_faces():
    faces = [(0, 1, 2), (0, 1), (2, 1, 0), (2, 3), (3,), (4,), (1,), ()]
    c = SimplicialComplex.from_faces(faces)
    assert c.vertices == (0, 1, 2, 3, 4)
    assert c.facets == (frozenset({4}), frozenset({2, 3}), frozenset({0, 1, 2}))


def test_from_faces_matches_the_pairwise_definition(rng):
    for _ in range(200):
        faces = [
            frozenset(rng.sample(range(7), rng.randint(0, 4)))
            for _ in range(rng.randint(0, 12))
        ]
        nonempty = [f for f in faces if f]
        maximal = {f for f in nonempty if not any(f < g for g in nonempty)}
        assert set(SimplicialComplex.from_faces(faces).facets) == maximal


def _json_in_repr_order(c):
    """The JSON of `c` with vertices sorted by repr, each facet's vertices
    too, and the facets by size, then by their sorted vertex reprs."""
    def name(v):
        return v if isinstance(v, str) else repr(v)

    facets = sorted((sorted(f, key=repr) for f in c.facets),
                    key=lambda f: (len(f), list(map(repr, f))))
    return {"vertices": [name(v) for v in sorted(c.vertices, key=repr)],
            "facets": [[name(v) for v in f] for f in facets],
            "f_vector": list(c.f_vector())}


def test_facets_are_stored_in_the_order_their_json_lists_them(rng):
    c = SimplicialComplex.from_faces(
        [(3, "b", (1,)), ("a", 10), (2, 3), ("b", (1,), "a"), (10, 2), ("c",)]
    )
    assert c.to_json_obj() == {
        "vertices": ["a", "b", "c", "(1,)", "10", "2", "3"],
        "facets": [["c"], ["a", "10"], ["10", "2"], ["2", "3"], ["a", "b", "(1,)"],
                   ["b", "(1,)", "3"]],
        "f_vector": [7, 8, 2],
    }
    complexes_ = [
        order_complex(build(d, ball))
        for d, ball in ((preset("A3"), "all"), (preset("B3"), "all"),
                        (preset("I2(5)"), "all"), (preset("Atilde2"), 2))
        for build in (salvetti_poset, davis_poset)
    ]
    complexes_ += [deligne_fundamental_domain(preset(name))[1]
                   for name in ("A3", "B3", "I2(5)", "Atilde2")]
    pool = list(range(8)) + list("abcdefgh") + [(i,) for i in range(4)] + [("a", 1), 2.5]
    for _ in range(300):
        complexes_.append(SimplicialComplex.from_faces(
            rng.sample(pool, rng.randint(1, 4)) for _ in range(rng.randint(1, 10))
        ))
    for c in complexes_:
        assert c.to_json_obj() == _json_in_repr_order(c)


# ---------------------------------------------------------------- homology oracles

def _complex(faces):
    return SimplicialComplex.from_faces([tuple(f) for f in faces])


def test_homology_circle():
    h = homology(_complex([(0, 1), (1, 2), (0, 2)]))
    assert h.betti == (1, 1)
    assert h.torsion == ((), ())


def test_homology_two_sphere():
    # boundary of the tetrahedron
    faces = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
    h = homology(_complex(faces))
    assert h.betti == (1, 0, 1)


def test_homology_torus():
    # the 7-vertex torus: faces {i, i+1, i+3} and {i, i+2, i+3} mod 7
    faces = [((i) % 7, (i + 1) % 7, (i + 3) % 7) for i in range(7)]
    faces += [((i) % 7, (i + 2) % 7, (i + 3) % 7) for i in range(7)]
    c = _complex(faces)
    assert c.f_vector() == (7, 21, 14)
    h = homology(c)
    assert h.betti == (1, 2, 1)
    assert all(t == () for t in h.torsion)


def test_homology_projective_plane():
    # minimal 6-vertex triangulation of RP^2: torsion Z/2 in H_1
    faces = [
        (1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6),
        (2, 3, 5), (3, 5, 6), (3, 4, 6), (2, 4, 6), (2, 4, 5),
    ]
    h = homology(_complex(faces))
    assert h == plain_homology(_complex(faces))
    assert h.betti == (1, 0, 0)
    assert h.torsion[1] == (2,)
    assert h.group(1) == "Z/2"
    assert h.pretty() == "H_0 = Z, H_1 = Z/2, H_2 = 0"


def test_homology_klein_bottle():
    # 3x3 grid on the square, sides glued cylinder-wise in x and with a
    # flip in y: H_1 = Z + Z/2
    def vert(x, y):
        if y == 3:
            return (3 - x) % 3  # top edge glued to the bottom, reversed
        return 3 * y + (x % 3)

    faces = []
    for x in range(3):
        for y in range(3):
            a, b = vert(x, y), vert(x + 1, y)
            c, d = vert(x, y + 1), vert(x + 1, y + 1)
            faces.append((a, b, c))
            faces.append((b, c, d))
    cx = _complex(faces)
    assert cx.f_vector() == (9, 27, 18)
    h = homology(cx)
    assert h == plain_homology(cx)
    assert h.betti == (1, 1, 0)
    assert h.torsion[1] == (2,)


def test_homology_euler_consistency(rng):
    # chi from the f-vector equals the alternating Betti sum (torsion cancels)
    for faces in [
        [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)],
        [(0, 1), (1, 2), (2, 3), (0, 3)],
        [(0, 1, 2)],
    ]:
        c = _complex(faces)
        h = homology(c)
        assert c.euler_characteristic() == sum(
            (-1) ** k * b for k, b in enumerate(h.betti)
        )


def _random_complex(rng):
    """A few random simplices on a few vertices, so the complex is often
    disconnected and its faces of each dimension come in random order."""
    n = rng.randint(1, 9)
    return _complex(
        rng.sample(range(n), rng.randint(1, min(n, 4))) for _ in range(rng.randint(1, 10))
    )


def test_f_vector_counts_the_faces_that_faces_by_dim_lists(rng, monkeypatch):
    cases = [_random_complex(rng) for _ in range(300)] + [SimplicialComplex((), ())]
    want = [tuple(map(len, c.faces_by_dim())) for c in cases]

    def listing(self):
        raise AssertionError("f_vector sorted the faces")

    monkeypatch.setattr(SimplicialComplex, "faces_by_dim", listing)
    assert [c.f_vector() for c in cases] == want


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 8])
def test_deligne_f_vector_counts_the_chains_of_a_boolean_lattice(n, monkeypatch):
    # A_n's Sf is every subset of S, and a j-element chain of subsets of an
    # n-set is a map S -> {1, ..., j + 1} that hits 2, ..., j: by inclusion-
    # exclusion there are sum_i (-1)^i C(j - 1, i) (j + 1 - i)^n of them.
    want = tuple(sum((-1) ** i * math.comb(j - 1, i) * (j + 1 - i) ** n for i in range(j))
                 for j in range(1, n + 2))

    def listing(self):
        raise AssertionError("an order complex listed its faces or chains")

    monkeypatch.setattr(SimplicialComplex, "_faces", listing)  # A8 would list 2,183,339
    monkeypatch.setattr(Poset, "maximal_chains", listing)  # and its 40,320 facets
    c = deligne_fundamental_domain(preset(f"A{n}"))[1]
    assert c.f_vector() == want and c.dimension == n
    monkeypatch.undo()  # reading the facets lists the chains
    assert "facets" not in vars(c) and len(c.facets) == math.factorial(n)
    assert want[:2] == (2 ** n, 3 ** n - 2 ** n) and want[-1] == math.factorial(n)


def test_coreduced_homology_matches_plain_smith_normal_form(rng):
    for _ in range(400):
        c = _random_complex(rng)
        assert homology(c) == plain_homology(c), c
    h_empty = homology(SimplicialComplex((), ()))
    assert h_empty == plain_homology(SimplicialComplex((), ())) == complexes.HomologyResult((), ())


# the minimal triangulations of RP^2 (6 vertices) and of the torus (7)
_RP2 = [(1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6),
        (2, 3, 5), (3, 5, 6), (3, 4, 6), (2, 4, 6), (2, 4, 5)]
_TORUS = [(i, (i + 1) % 7, (i + 3) % 7) for i in range(7)] + [
    (i, (i + 2) % 7, (i + 3) % 7) for i in range(7)]


def _is_cone(c):
    return bool(c.facets) and bool(frozenset.intersection(*c.facets))


def _point(dim):
    return complexes.HomologyResult((1,) + (0,) * dim, ((),) * (dim + 1))


def test_morse_reduction_matches_plain_smith_normal_form_off_cones(rng):
    # Random 2- and 3-complexes on 8-12 vertices, none a cone, so homology
    # takes the Morse path.  A Betti number or torsion past H_0 needs a
    # critical cell in that dimension besides the critical vertex.
    randoms = []
    while len(randoms) < 150:
        n = rng.randint(8, 12)
        c = _complex(rng.sample(range(n), rng.choice((3, 4))) for _ in range(rng.randint(4, 16)))
        if not _is_cone(c):
            randoms.append(c)
    suspension = _complex(f + (pole,) for f in _RP2 for pole in (7, 8))
    wedge = _complex(_RP2 + [tuple(10 + v if v else 1 for v in f) for f in _TORUS])
    for c, want in ((suspension, "H_0 = Z, H_1 = 0, H_2 = Z/2, H_3 = 0"),
                    (wedge, "H_0 = Z, H_1 = Z^2 + Z/2, H_2 = Z")):
        assert not _is_cone(c)
        assert homology(c) == plain_homology(c)
        assert homology(c).pretty() == want
    higher = 0
    for c in randoms:
        h = homology(c)
        assert h == plain_homology(c), c
        higher += any(h.betti[1:]) or any(h.torsion)
    assert higher >= 100
    for name in ("A1", "A2", "B2", "I2(5)", "I2(6)"):
        d = preset(name)
        for c in (order_complex(salvetti_poset(d)), order_complex(davis_poset(d)),
                  deligne_fundamental_domain(d)[1]):
            assert homology(c) == plain_homology(c), name
    for ball in (1, 2, 3):
        for build in (salvetti_poset, davis_poset):
            c = order_complex(build(inf_pair(), ball))
            assert homology(c) == plain_homology(c), (build, ball)


def test_cones_answer_without_listing_faces(monkeypatch):
    cone = _complex(f + (0,) for f in _RP2)
    assert plain_homology(cone) == _point(3)
    assert sum(cone.f_vector()) > len(cone.facets)
    # the Davis complex with ball="all" is a cone on W, the Deligne domain one on {}
    davis = order_complex(davis_poset(preset("B4")))
    deligne = deligne_fundamental_domain(preset("A7"))[1]

    def unlisted(self):
        raise AssertionError("a cone listed its faces")

    monkeypatch.setattr(SimplicialComplex, "faces_by_dim", unlisted)
    assert homology(cone) == _point(3)
    assert homology(cone, face_guard=len(cone.facets)) == _point(3)  # below its face count
    with pytest.raises(CapExceededError, match="homology face count"):
        homology(cone, face_guard=len(cone.facets) - 1)
    assert homology(davis) == _point(4)
    assert homology(deligne) == _point(7)


def test_salvetti_smith_normal_form_runs_on_critical_cells_only(monkeypatch):
    # Smith normal form sees only the Morse complex: at most one row per
    # critical cell, and here no more rows in all than the Betti numbers' sum.
    handed = []

    def counting(rows):
        handed.append(len(rows))
        return invariant_factors(rows)

    monkeypatch.setattr(complexes, "invariant_factors", counting)
    for name, total in (("A3", 24), ("B3", 48)):
        handed.clear()
        h = homology(order_complex(salvetti_poset(preset(name))))
        assert sum(h.betti) == total, name
        assert sum(handed) <= total, (name, handed)


# ---------------------------------------------------------------- salvetti

def test_salvetti_a1_is_a_four_cycle():
    p = salvetti_poset(preset("A1"))
    assert len(p) == 4
    c = order_complex(p)
    assert c.f_vector() == (4, 4)
    h = homology(c)
    assert h.betti == (1, 1)


def test_salvetti_element_counts():
    assert len(salvetti_poset(preset("A2"))) == 24
    assert len(salvetti_poset(preset("I2(4)"))) == 32


def test_salvetti_homology_matches_arrangement_complement():
    # Poincare polynomial of the braid arrangement complement:
    # I2(p): (1+t)(1+(p-1)t)
    for p, expect in [(3, (1, 3, 2)), (4, (1, 4, 3))]:
        poset = salvetti_poset(preset(f"I2({p})"))
        h = homology(order_complex(poset))
        assert h.betti == expect, p
        assert all(t == () for t in h.torsion)


def test_salvetti_rank_three_homology_is_orlik_solomon():
    # Betti numbers of the complement are the coefficients of
    # prod (1 + (d_i - 1) t) over the degrees d_i (Orlik-Solomon).
    t0 = time.perf_counter()
    for name, degrees in (("A3", (2, 3, 4)), ("B3", (2, 4, 6))):
        poly = [1]
        for deg in degrees:
            poly = [a + (deg - 1) * b for a, b in zip(poly + [0], [0] + poly)]
        h = homology(order_complex(salvetti_poset(preset(name))))
        assert list(h.betti) == poly, name
        assert not any(h.torsion), name
    assert time.perf_counter() - t0 < 10


@pytest.mark.parametrize("name, betti", [("H3", (1, 15, 59, 45)), ("A4", (1, 10, 35, 50, 24))],
                         ids=["H3", "A4"])
def test_salvetti_order_complex_answers_on_the_cells(monkeypatch, name, betti):
    # H3's 86,400 maximal chains, under the face guard, would list 270,720
    # faces, past it, and A4 has 345,600 chains, past the facet guard; the
    # poset's 960 and 1,920 cells answer instead, with no chain listed.
    def unlisted(self):
        raise AssertionError("a Salvetti complex listed its chains or faces")

    monkeypatch.setattr(SimplicialComplex, "faces_by_dim", unlisted)
    monkeypatch.setattr(Poset, "maximal_chains", unlisted)
    t0 = time.perf_counter()
    h = homology(order_complex(salvetti_poset(preset(name))))
    assert h.betti == betti and not any(h.torsion)
    assert time.perf_counter() - t0 < 6


def test_face_guard_counts_facets_before_listing_faces(monkeypatch):
    # a hand-built copy of Salvetti A2's poset, so not run on its cells
    p = salvetti_poset(preset("A2"))
    c = order_complex(Poset(p.elements, p.labels, p.less, p.metadata))
    count = len(p.maximal_chains())

    def unlisted(self):
        raise AssertionError("faces listed past the face guard")

    monkeypatch.setattr(SimplicialComplex, "faces_by_dim", unlisted)
    monkeypatch.setattr(Poset, "maximal_chains", unlisted)
    with pytest.raises(CapExceededError, match="homology face count"):
        homology(c, face_guard=count - 1)
    assert homology(order_complex(p), face_guard=count - 1).betti == (1, 3, 2)  # on its cells


def test_face_guard_counts_the_chains_of_a_ball_before_listing_faces(monkeypatch):
    c = order_complex(salvetti_poset(preset("Atilde2"), 2))
    count = sum(c.f_vector())
    assert c.f_vector() == SimplicialComplex(c.vertices, c.facets).f_vector()
    assert count > len(c.facets)

    def unlisted(self):
        raise AssertionError("faces listed past the face guard")

    monkeypatch.setattr(SimplicialComplex, "faces_by_dim", unlisted)
    with pytest.raises(CapExceededError, match="homology face count"):
        homology(c, face_guard=count - 1)


def test_chain_count_equals_the_order_complex_face_count(rng):
    for p in _chain_cases(rng):
        c = order_complex(p)
        assert c.f_vector() == SimplicialComplex(c.vertices, c.facets).f_vector()


# ---------------------------------------------------------------- cellular homology

def _both_orientations(d):
    return (d, CoxeterDiagram(d.vertices[::-1], d.edges))


def _cw_cases():
    """Finite Salvetti posets: the rank-2 and rank-3 presets, and the
    products of the homology benchmark, each in both vertex orders."""
    ds = [preset(name) for name in ("A1", "A2", "B2", "A3", "B3")]
    ds += [preset(f"I2({m})") for m in range(3, 9)]
    ds += [CoxeterDiagram(("a", "b", "c"), ()), CoxeterDiagram(("a", "b", "c"), (("b", "c", 3),))]
    return [salvetti_poset(e) for d in ds for e in _both_orientations(d)]


def _salvetti_cases():
    """`_cw_cases()` and the two largest finite Salvetti posets within the guard."""
    return _cw_cases() + [salvetti_poset(preset(name)) for name in ("H3", "A4")]


def test_cell_homology_equals_the_order_complex_homology():
    for p in _cw_cases():
        c = order_complex(p)
        simplicial = SimplicialComplex(c.vertices, c.facets)  # no poset: lists its faces
        assert simplicial._poset is None and c._poset is p and p._finite_salvetti
        cells = complexes._chain_homology(*complexes._salvetti_chains(p))
        assert cells == complexes._chain_homology(*cw_chains(p)), p.labels[-1]
        assert homology(c) == cells == homology(simplicial), p.labels[-1]


def test_cell_boundaries_square_to_zero():
    cases = [(complexes._salvetti_chains, p) for p in _salvetti_cases()]
    for chains, p in cases + [(cw_chains, p) for p in _cw_cases()]:
        boundary, coefficients, offset = chains(p)
        assert offset[-1] == len(p) == len(boundary) == len(coefficients)
        for a in range(len(p)):
            assert all(x in (1, -1) for x in coefficients[a])
            square = collections.Counter()
            for b, x in zip(boundary[a], coefficients[a]):
                for y, z in zip(boundary[b], coefficients[b]):
                    square[y] += x * z
            assert not any(square.values()), (p.labels[-1], a)


def test_formula_signs_are_the_diamond_signs_up_to_orientation():
    # one sign per cell, e[a], with [a:b] = e[a] e[b] [a:b]_diamond on every
    # face: spread e from one cell over the connected face graph, then check
    for p in _salvetti_cases():
        boundary, coefficients, offset = complexes._salvetti_chains(p)
        old_boundary, old_coefficients, old_offset = cw_chains(p)
        assert offset == old_offset, p.labels[-1]
        ratio, linked = {}, collections.defaultdict(list)
        for a in range(len(p)):
            new = dict(zip(boundary[a], coefficients[a]))
            old = dict(zip(old_boundary[a], old_coefficients[a]))
            assert new.keys() == old.keys(), (p.labels[-1], a)
            for b in new:
                ratio[a, b] = new[b] * old[b]
                linked[a].append(b)
                linked[b].append(a)
        orientation, todo = {0: 1}, [0]
        while todo:
            a = todo.pop()
            for b in linked[a]:
                if b not in orientation:
                    orientation[b] = orientation[a] * ratio.get((a, b), ratio.get((b, a)))
                    todo.append(b)
        assert len(orientation) == len(p), p.labels[-1]
        for (a, b), x in ratio.items():
            assert x == orientation[a] * orientation[b], (p.labels[-1], p.labels[a], p.labels[b])


def _poset_guarded_presets():
    """Every finite preset whose Salvetti poset, |W| 2^rank cells, is within
    the poset guard, with its degrees: all of A, B, D, E, F and H, and the
    dihedral I2(p) for p up to 12 and p = 60 (I2(375) is the largest)."""
    degrees = {f"A{n}": range(2, n + 2) for n in range(1, 9)}
    degrees |= {f"B{n}": range(2, 2 * n + 1, 2) for n in range(2, 9)}
    degrees |= {f"D{n}": [*range(2, 2 * n - 1, 2), n] for n in range(4, 9)}
    degrees |= {"E6": (2, 5, 6, 8, 9, 12), "E7": (2, 6, 8, 10, 12, 14, 18),
                "E8": (2, 8, 12, 14, 18, 20, 24, 30), "F4": (2, 6, 8, 12),
                "H3": (2, 6, 10), "H4": (2, 12, 20, 30)}
    degrees |= {f"I2({m})": (2, m) for m in [*range(3, 13), 60]}
    return [(name, tuple(ds)) for name, ds in degrees.items()
            if math.prod(ds) << len(ds) <= complexes.DEFAULT_POSET_GUARD]


def test_poset_guarded_presets_are_listed_to_the_guard():
    listed = _poset_guarded_presets()
    assert [name for name, _ in listed[:7]] == ["A1", "A2", "A3", "A4", "B2", "B3", "H3"]
    assert [name for name, _ in listed[7:]] == [f"I2({m})" for m in [*range(3, 13), 60]]
    for name, degrees in listed[:4]:
        assert len(salvetti_poset(preset(name))) == math.prod(degrees) << len(degrees)
    with pytest.raises(CapExceededError, match="poset size"):  # 3,072 cells, the next
        salvetti_poset(preset("D4"))


@pytest.mark.parametrize("name, degrees", _poset_guarded_presets(),
                         ids=[name for name, _ in _poset_guarded_presets()])
def test_finite_salvetti_homology_is_orlik_solomon(name, degrees):
    for d in _both_orientations(preset(name)):
        h = homology(order_complex(salvetti_poset(d)))
        assert list(h.betti) == _orlik_solomon(degrees) and not any(h.torsion), d.vertices


def _poincare(d, T):
    """W_T(q) as its coefficient list, from the layer counts of all of W_T."""
    return [len(layer) for layer in coxeter.enumerate_elements(d.subdiagram(T))] if T else [1]


def _divide(num, den):
    """num / den in Z[q], coefficient lists from q^0, exactly."""
    num, quotient = list(num), []
    for k in range(len(num) - len(den), -1, -1):
        c, rem = divmod(num[k + len(den) - 1], den[-1])
        assert rem == 0
        quotient.insert(0, c)
        for i, x in enumerate(den):
            num[k + i] -= c * x
    assert not any(num)
    return quotient


def test_face_signs_count_the_cosets_at_minus_one():
    # Summed over the faces (w b, T - s) of one cell, the signs (-1)^(i + l(b))
    # give (-1)^i [W_T(q) / W_(T-s)(q)] at q = -1.  This is the one check
    # that sees (-1)^l(b): on the cover it only reorients cells.
    for p in _salvetti_cases():
        d = p.elements[0][0].diagram
        boundary, coefficients, _ = complexes._salvetti_chains(p)
        want = {}  # T -> the signed count per face T - s
        for T in {T for _, T in p.elements}:
            want[T] = {}
            for i, s in enumerate(t for t in d.vertices if t in T):
                quotient = _divide(_poincare(d, T), _poincare(d, T - {s}))
                want[T][T - {s}] = (-1) ** i * sum((-1) ** k * c for k, c in enumerate(quotient))
        for a, (u, T) in enumerate(p.elements):
            counts = dict.fromkeys(want[T], 0)
            for b, x in zip(boundary[a], coefficients[a]):
                counts[p.elements[b][1]] += x
            assert counts == want[T], p.labels[a]


@pytest.mark.parametrize("name", ["I2(5)", "A3", "B3", "H3", "A4"])
def test_finite_salvetti_homology_creates_nothing_on_a_warm_engine(name):
    d = preset(name)
    p = salvetti_poset(d)
    eng = coxeter._engine(d)
    elements, roots = len(eng.sig), len(eng.coords)
    homology(order_complex(p))
    assert (len(eng.sig), len(eng.coords)) == (elements, roots)


def _orlik_solomon(degrees):
    poly = [1]
    for deg in degrees:
        poly = [a + (deg - 1) * b for a, b in zip(poly + [0], [0] + poly)]
    return poly


@pytest.mark.parametrize("name, degrees", [("H3", (2, 6, 10)), ("A4", (2, 3, 4, 5))])
def test_cli_salvetti_homology_runs_on_the_cells(capsys, monkeypatch, name, degrees):
    # the order complex would list 270,720 (H3) and more (A4) faces, past the guard
    def unused(self):
        raise AssertionError("the CLI listed maximal chains")

    monkeypatch.setattr(Poset, "maximal_chains", unused)
    assert cli.main(["homology", "--preset", name, "--complex", "salvetti"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["betti"] == _orlik_solomon(degrees)
    assert not any(obj["torsion"]) and obj["euler"] == 0


@pytest.mark.parametrize("ball", [1, 2, 3])
@pytest.mark.parametrize("build", [salvetti_poset, davis_poset])
def test_the_sign_walk_rejects_balls(build, ball):
    p = build(preset("Atilde2"), ball)
    assert not p._finite_salvetti
    with pytest.raises(ValueError, match="an edge without two ends"):
        cw_chains(p)


def _subset_poset(faces, top=False):
    """The nonempty subsets of the given faces under inclusion, with a top
    element over all of them if `top`."""
    cells = sorted({frozenset(c) for f in faces for k in range(1, len(f) + 1)
                    for c in itertools.combinations(f, k)}, key=lambda c: (len(c), sorted(c)))
    if top:
        cells.append(frozenset().union(*cells) | {"top"})
    less = frozenset((i, j) for i, a in enumerate(cells) for j, b in enumerate(cells) if a < b)
    return Poset(tuple(cells), tuple(map(str, range(len(cells)))), less)


@pytest.mark.parametrize("faces, top, message", [
    ([(0, 1)], False, None),  # a simplex is a regular CW complex
    ([(0, 1, 2, 3)], False, None),
    ([(0, 1), (1, 2), (2, 0)], True, None),  # a disc
    ([(0, 1), (1, 2)], True, "a diamond without two middles"),  # a 2-cell on a path
    ([(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)], True,
     "the sign walk of a cell misses a facet"),  # a 2-cell on two circles
    ([(0, 1), (0, 2), (0, 3)], True, "a diamond without two middles"),
    (_RP2, True, "the diamond signs of a cell are inconsistent"),  # a 3-cell on RP^2
], ids=["edge", "simplex", "disc", "path", "two-circles", "tripod", "rp2"])
def test_the_sign_walk_checks_what_it_relies_on(faces, top, message):
    p = _subset_poset(faces, top)
    if message is None:
        assert complexes._chain_homology(*cw_chains(p)) == homology(order_complex(p))
    else:
        with pytest.raises(ValueError, match=message):
            cw_chains(p)


def test_the_sign_walk_needs_adjacent_dimensions():
    # 0 < 1 < 2 and 3 < 2: the cover (3, 2) skips a dimension
    p = Poset((0, 1, 2, 3), ("a", "b", "c", "d"), frozenset({(0, 1), (1, 2), (0, 2), (3, 2)}))
    with pytest.raises(ValueError, match="dimensions are not adjacent"):
        cw_chains(p)
    edge = Poset((0, 1), ("a", "b"), frozenset({(0, 1)}))
    with pytest.raises(ValueError, match="an edge without two ends"):
        cw_chains(edge)


def test_salvetti_order_complex_homology_lists_no_faces(monkeypatch):
    c = order_complex(salvetti_poset(preset("A3")))

    def unlisted(self):
        raise AssertionError("a Salvetti complex listed its faces")

    monkeypatch.setattr(SimplicialComplex, "faces_by_dim", unlisted)
    assert homology(c).betti == (1, 6, 11, 6)


def test_an_equal_hand_built_poset_takes_the_simplicial_path(monkeypatch):
    p = salvetti_poset(preset("A2"))
    q = Poset(p.elements, p.labels, p.less, p.metadata)
    assert q == p and repr(q) == repr(p) and p._finite_salvetti and not q._finite_salvetti
    c, want = order_complex(p), homology(order_complex(p))
    # the poset an order complex keeps is outside its fields
    assert order_complex(q) == c and repr(order_complex(q)) == repr(c)
    assert c.to_json_obj() == SimplicialComplex(c.vertices, c.facets).to_json_obj()

    def cellular(p):
        raise AssertionError("a hand-built poset ran on its cells")

    monkeypatch.setattr(complexes, "_salvetti_chains", cellular)
    assert homology(order_complex(q)) == want


def test_coreduction_pairs_only_across_a_unit():
    # one vertex, two loops a and b, and a 2-cell with boundary 2a + 2b:
    # H_1 = Z + Z/2.  Once a is critical, the 2-cell has b left, across a 2.
    boundary = [[], [], [], [1, 2]]
    coefficients = [(), (), (), (2, 2)]
    h = complexes._chain_homology(boundary, coefficients, [0, 1, 3, 4])
    assert h.pretty() == "H_0 = Z, H_1 = Z + Z/2, H_2 = 0"


def test_salvetti_h1_rank_equals_reflection_count():
    for name in ["A2", "I2(4)", "I2(5)"]:
        d = preset(name)
        h = homology(order_complex(salvetti_poset(d)))
        assert h.betti[1] == len(coxeter.reflections(d)), name


def test_salvetti_ball_infinite_type():
    p = salvetti_poset(preset("Atilde2"), ball=2)
    # elements (u, T): u in the radius-2 ball with support in finite T
    assert len(p) > 10
    h = homology(order_complex(p))
    assert h.betti[0] == 1


# ---------------------------------------------------------------- davis

def test_davis_a2_counts_cosets():
    p = davis_poset(preset("A2"))
    # 6 cosets of W_{}, 3 of W_s, 3 of W_t, 1 of W_{s,t}
    assert len(p) == 13


def test_davis_complexes_are_acyclic():
    for name in ["A2", "B2", "A3"]:
        h = homology(order_complex(davis_poset(preset(name))))
        assert h.betti[0] == 1
        assert all(b == 0 for b in h.betti[1:]), name
        assert all(t == () for t in h.torsion)


def test_davis_infinite_ball():
    p = davis_poset(preset("Atilde2"), ball=2)
    h = homology(order_complex(p))
    assert h.betti[0] == 1


# ---------------------------------------------------------------- deligne FD

def test_deligne_fd_sizes():
    p, _ = deligne_fundamental_domain(preset("Atilde2"))
    assert len(p) == 7
    p3, _ = deligne_fundamental_domain(preset("B3"))
    assert len(p3) == 8


def test_deligne_order_is_strict_inclusion_of_sf(rng):
    # Sf from classifying every subset, and its order from frozensets, against
    # the poset keyed by vertex bitmasks; declared orders are shuffled
    for _ in range(60):
        d = random_diagram(rng, max_rank=7)
        order = list(d.vertices)
        rng.shuffle(order)
        d = CoxeterDiagram(tuple(order), d.edges)
        p, _ = deligne_fundamental_domain(d)
        sf = spherical_subsets(d)
        assert p.elements == tuple(sf), d
        assert p.labels == tuple(f"A{complexes._set_label(d, T)}" for T in sf)
        assert p.less == {(i, j) for i, S in enumerate(sf) for j, T in enumerate(sf) if S < T}
    # A12's Sf is all 4,096 subsets, over the poset guard
    with pytest.raises(CapExceededError) as err:
        deligne_fundamental_domain(preset("A12"))
    assert (err.value.what, err.value.cap) == ("poset size", 3000)


def test_deligne_fd_is_contractible_like():
    for name in ["A2", "B3", "Atilde2"]:
        _, c = deligne_fundamental_domain(preset(name))
        h = homology(c)
        assert h.betti[0] == 1
        assert all(b == 0 for b in h.betti[1:]), name
        assert all(t == () for t in h.torsion)


# ---------------------------------------------------------------- quotient cells

def test_quotient_cells_examples():
    assert salvetti_quotient_cells(preset("A2")).f_vector == (1, 2, 1)
    assert salvetti_quotient_cells(preset("Atilde2")).f_vector == (1, 3, 3)
    assert salvetti_quotient_cells(inf_pair()).f_vector == (1, 2)
    assert salvetti_quotient_cells(preset("B3")).f_vector == (1, 3, 3, 1)


def test_quotient_cells_counts_finite_type_subsets(rng):
    for _ in range(10):
        d = random_diagram(rng, max_rank=4)
        q = salvetti_quotient_cells(d)
        from artin.diagram import finite_type_subsets

        sf = finite_type_subsets(d)
        assert sum(q.f_vector) == len(sf)
        for k, count in enumerate(q.f_vector):
            assert count == sum(1 for T in sf if len(T) == k)


# ---------------------------------------------------------------- abelianization

def test_abelianization_presets():
    assert abelianization(preset("A4")).rank == 1
    assert abelianization(preset("I2(4)")).rank == 2
    assert abelianization(preset("I2(5)")).rank == 1
    assert abelianization(preset("B3")).rank == 2
    assert abelianization(preset("Atilde2")).rank == 1
    assert abelianization(inf_pair()).rank == 2
    for name in ["A4", "B3", "Atilde2"]:
        assert abelianization(preset(name)).torsion == ()


def test_abelianization_rank_is_odd_graph_components(rng):
    for _ in range(20):
        d = random_diagram(rng, max_rank=5)
        ab = abelianization(d)
        # oracle: count components of the graph with odd-labelled edges only
        parent = {v: v for v in d.vertices}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for a, b, m in d.pairs():
            if m != INF and int(m) % 2 == 1:
                parent[find(a)] = find(b)
        comps = len({find(v) for v in d.vertices})
        assert ab.rank == comps
        assert ab.torsion == ()


def test_abelianization_equals_the_smith_normal_form_of_its_relations(rng):
    # the reference: invariant factors of the +-1 rows of the odd relations
    assert complexes.abelianization is diagram.abelianization
    for _ in range(20):
        d = random_diagram(rng, max_rank=5)
        odd = [(s, t) for s, t, m in d.edges if m != INF and m % 2]
        factors = invariant_factors(
            {i: {d.index(s): 1, d.index(t): -1} for i, (s, t) in enumerate(odd)})
        ab = abelianization(d)
        assert (ab.rank, ab.torsion) == (d.rank - len(factors), tuple(t for t in factors if t > 1))


def test_abelianization_pretty():
    assert abelianization(preset("A2")).pretty() == "Z"
    assert abelianization(preset("B2")).pretty() == "Z^2"
