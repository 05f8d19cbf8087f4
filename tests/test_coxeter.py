"""Coxeter word problem against independent permutation-model oracles."""

import itertools
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from artin import coxeter
from artin.coxeter import _Cyclotomic, _prime_powers
from artin.diagram import INF, CoxeterDiagram, finite_type_subsets, preset
from artin.errors import (
    CapExceededError,
    DiagramError,
    FiniteTypeRequiredError,
    RankGuardError,
)
from braid_oracle import braid_reduce
from conftest import random_diagram

# ---------------------------------------------------------------- oracles
# Exact matrix models, independent of the rewriting machinery.

def _perm(n, cycle):
    M = np.eye(n, dtype=np.int64)
    src = list(cycle)
    dst = cycle[1:] + cycle[:1]
    for i, j in zip(src, dst):
        M[i, i] = 0
        M[j, i] = 1
        if i != j:
            M[j, j] = 0
            M[i, j] = 1
    return M


ORACLES = {
    "A2": {"s": _perm(3, [0, 1]), "t": _perm(3, [1, 2])},
    "A3": {"s": _perm(4, [0, 1]), "t": _perm(4, [1, 2]), "u": _perm(4, [2, 3])},
    "B2": {
        "s": np.array([[0, 1], [1, 0]], dtype=np.int64),
        "t": np.array([[1, 0], [0, -1]], dtype=np.int64),
    },
}


def oracle_matrix(name, word):
    gens = ORACLES[name]
    n = next(iter(gens.values())).shape[0]
    M = np.eye(n, dtype=np.int64)
    for x in word:
        M = M @ gens[x]
    return M


def words(letters, max_len):
    return st.lists(st.sampled_from(letters), max_size=max_len).map(tuple)


# ---------------------------------------------------------------- normalize

def test_normalize_examples():
    d = preset("A2")
    assert coxeter.normalize(d, ("t", "s", "t")).word == ("s", "t", "s")
    assert coxeter.normalize(d, ("s", "s")).word == ()
    assert coxeter.normalize(d, ("s", "t", "s", "t")).word == ("t", "s")
    b = preset("B2")
    assert coxeter.normalize(b, ("t", "s", "t", "s")).word == ("s", "t", "s", "t")


def test_normalize_rejects_unknown_letters():
    with pytest.raises(DiagramError):
        coxeter.normalize(preset("A2"), ("s", "x"))


@given(words(["s", "t"], 8))
def test_normalize_idempotent_b2(w):
    d = preset("B2")
    nf = coxeter.normalize(d, w)
    assert coxeter.normalize(d, nf.word).word == nf.word
    assert nf.length <= len(w)


@given(words(["s", "t", "u"], 7), st.data())
def test_normalize_invariant_under_relator_insertion_a3(w, data):
    d = preset("A3")
    pos = data.draw(st.integers(0, len(w)))
    letter = data.draw(st.sampled_from(d.vertices))
    mutated = w[:pos] + (letter, letter) + w[pos:]
    assert coxeter.normalize(d, mutated).word == coxeter.normalize(d, w).word


@given(words(["s", "t", "u"], 7))
def test_normalize_agrees_with_permutation_oracle_a3(w):
    d = preset("A3")
    nf = coxeter.normalize(d, w)
    assert np.array_equal(oracle_matrix("A3", w), oracle_matrix("A3", nf.word))


@given(words(["s", "t"], 8), words(["s", "t"], 8))
def test_equality_matches_signed_permutation_oracle_b2(u, v):
    d = preset("B2")
    same_oracle = np.array_equal(oracle_matrix("B2", u), oracle_matrix("B2", v))
    same_nf = coxeter.normalize(d, u).word == coxeter.normalize(d, v).word
    assert same_oracle == same_nf


@given(words(["s", "t", "u"], 6))
def test_normalize_atilde2_terminates_and_is_stable(w):
    d = preset("Atilde2")
    nf = coxeter.normalize(d, w)
    assert coxeter.normalize(d, nf.word) == nf


def _rank3(labels):
    """Triangle diagram on s, t, u with labels m_st, m_tu, m_su (2 = no edge)."""
    pairs = (("s", "t"), ("t", "u"), ("s", "u"))
    edges = tuple((a, b, m) for (a, b), m in zip(pairs, labels) if m != 2)
    return CoxeterDiagram(("s", "t", "u"), edges)


# Labels 3, 4, 5, 6, 7, 8 and infinity, in finite, affine and hyperbolic groups.
# 4-4-4 gets the Cartan constants c_st c_tu c_us = 1 * 1 * 2 one way round the
# triangle and 2 * 2 * 1 the other, so its matrix is not symmetrizable.
DIFFERENTIAL_DIAGRAMS = {
    "B3": preset("B3"),
    "H3": preset("H3"),
    "Atilde2": preset("Atilde2"),
    "I2(8)": preset("I2(8)"),
    "6-inf": _rank3((6, INF, 2)),
    "7-8": _rank3((7, 8, 2)),
    "4-4-5": _rank3((4, 4, 5)),
    "3-6-inf": _rank3((3, 6, INF)),
    "4-4-4": _rank3((4, 4, 4)),
    "6-6-6": _rank3((6, 6, 6)),
    "4-6-inf": _rank3((4, 6, INF)),
    "4-5-6": _rank3((4, 5, 6)),
}


@pytest.mark.parametrize("name", sorted(DIFFERENTIAL_DIAGRAMS))
def test_normalize_matches_braid_move_oracle(name):
    d = DIFFERENTIAL_DIAGRAMS[name]
    for k in range(7):
        for w in itertools.product(d.vertices, repeat=k):
            assert coxeter.normalize(d, w).word == braid_reduce(d, w), w


def test_normalize_matches_braid_move_oracle_on_random_diagrams(rng):
    for _ in range(12):
        d = random_diagram(rng, max_rank=4)
        for _ in range(150):
            w = tuple(rng.choice(d.vertices) for _ in range(rng.randint(0, 9)))
            assert coxeter.normalize(d, w).word == braid_reduce(d, w), (d, w)


@pytest.mark.parametrize("name", ["A3", "B3", "H3", "Atilde2", "4-4-5"])
def test_engine_descents_match_normal_form_lengths(name, rng):
    # s is a left descent of w exactly when l(s w) < l(w); H3 and 4-4-5 act
    # over the cyclotomic ring, the others over Z
    d = DIFFERENTIAL_DIAGRAMS.get(name) or preset(name)
    coxeter._engine.cache_clear()
    eng = coxeter._engine(d)
    for _ in range(150):
        w = tuple(rng.choice(d.vertices) for _ in range(rng.randint(0, 12)))
        length = coxeter.normalize(d, w).length
        expected = sum(1 << i for i, s in enumerate(d.vertices)
                       if coxeter.normalize(d, (s, *w)).length < length)
        assert eng.descents(eng.walk(0, w)) == expected, w


# ---------------------------------------------------------------- exact ring

def test_prime_powers():
    assert _prime_powers(2) == [(2, 2)]
    assert _prime_powers(240) == [(2, 16), (3, 3), (5, 5)]
    assert _prime_powers(18018) == [(2, 2), (3, 9), (7, 7), (11, 11), (13, 13)]


def _value(ring, a):
    return sum(x * np.exp(1j * np.pi * j / ring.M) for j, x in a)


@pytest.mark.parametrize("M", [4, 5, 6, 60, 9009])
def test_cyclotomic_reduction_keeps_the_value(M):
    # Every reduced zeta^k has the value of zeta^k, uses only basis exponents
    # (each reduces to itself), and zeta^k * zeta^-k is exactly one.
    ring = _Cyclotomic(M)
    step = max(1, ring.period // 600)
    for k in range(0, ring.period, step):
        a = ring.combo([(ring.one, ((k, 1),))])
        assert abs(_value(ring, a) - np.exp(1j * np.pi * k / M)) < 1e-9
        assert all(ring.combo([(ring.one, ((j, 1),))]) == ((j, 1),) for j, _ in a)
        assert ring.combo([(a, ((ring.period - k, 1),))]) == ring.one


def test_ring_golden_ratio_identity_is_exactly_zero():
    ring = _Cyclotomic(5)
    phi = ring.combo([(ring.one, ring.two_cos(5))])  # 2cos(pi/5), the golden ratio
    assert ring.combo([(phi, phi), (phi, ring.minus_one), (ring.one, ring.minus_one)]) == ring.zero
    assert phi != ring.one and ring.sign(phi) == 1


def test_ring_sign_refines_past_floating_point():
    # F_n * phi - F_(n+1) = -psi^n with psi = -1/phi: about 3e-13 at n = 60,
    # far inside the rounding bound of coefficients near 10^12.
    ring = _Cyclotomic(5)
    phi = ring.combo([(ring.one, ring.two_cos(5))])
    fib = [0, 1]
    while len(fib) < 63:
        fib.append(fib[-1] + fib[-2])
    for n in (59, 60):
        x = ring.combo([(phi, ((0, fib[n]),)), (ring.one, ((0, -fib[n + 1]),))])
        assert ring._float_sign(x) is None
        assert ring.sign(x) == (-1) ** (n + 1)


def _path(*labels):
    names = tuple(f"s{i}" for i in range(len(labels) + 1))
    return CoxeterDiagram(names, tuple(zip(names, names[1:], labels)))


def test_large_coprime_labels_stay_sparse():
    # lcm(7, 9, 11, 13) = 9009: Z[zeta_18018] has degree 4320, yet short
    # words only reach roots with a few coefficients each.
    d = _path(7, 9, 11, 13)
    start = time.perf_counter()
    for k in range(5):
        for w in itertools.product(d.vertices, repeat=k):
            assert coxeter.normalize(d, w).word == braid_reduce(d, w), w
    assert len(coxeter.enumerate_elements(d, 6)[-1]) == 380
    assert time.perf_counter() - start < 60


def test_cap_bounds_root_coefficients_on_a_huge_field():
    # lcm(11, 13, 17, 19) = 46189, degree 34560: a deep ball runs into the
    # cap after at most cap coefficients' worth of roots.
    d = _path(11, 13, 17, 19)
    start = time.perf_counter()
    with pytest.raises(CapExceededError, match="enumerate_elements root action"):
        coxeter.enumerate_elements(d, 30, cap=20_000)
    eng = coxeter._engine(d)
    assert sum(eng.ring.size(x) for root in eng.coords for x in root) <= 20_000 + 2 * d.rank
    assert time.perf_counter() - start < 30


@pytest.mark.parametrize("name, M", [
    ("B3", 1), ("3-6-inf", 1), ("4-6-inf", 1), ("H3", 5), ("4-4-5", 5), ("4-5-6", 5), ("I2(8)", 8),
])
def test_ring_is_z_unless_a_label_is_not_3_4_6_or_inf(name, M):
    # Labels 3, 4, 6 and infinity take integral Cartan constants; any other
    # label m needs 2cos(pi/m) in Z[zeta_2M], M the lcm of those labels.
    ring = coxeter._Engine(DIFFERENTIAL_DIAGRAMS[name]).ring
    assert (ring.M if isinstance(ring, _Cyclotomic) else 1) == M


@pytest.mark.parametrize("reverse", [False, True], ids=["declared", "reversed"])
@pytest.mark.parametrize("name", ["B3", "B4", "F4", "I2(6)"])
def test_weyl_groups_act_on_integral_root_systems(name, reverse):
    # The later vertex of a 4 or 6 edge gets the larger constant, so the two
    # vertex orders give B_n and C_n.  Either way W has 2N roots, N its number
    # of reflections, all over Z, and the highest has height h - 1 = 2N/n - 1,
    # h the Coxeter number (Bourbaki, Lie VI, 1.11, Prop. 31).
    d = preset(name)
    if reverse:
        d = CoxeterDiagram(d.vertices[::-1], d.edges)
    coxeter._engine.cache_clear()
    coxeter.enumerate_elements(d, "all")
    eng = coxeter._engine(d)
    roots = len(eng.coords)
    N = len(coxeter.reflections(d))
    assert roots == 2 * N
    assert all(type(x) is int for root in eng.coords for x in root)
    heights = [sum(root) for root, positive in zip(eng.coords, eng.positive) if positive]
    assert max(heights) == 2 * N // d.rank - 1


# ---------------------------------------------------------------- group ops

@given(words(["s", "t", "u"], 6))
def test_invert_gives_identity_a3(w):
    d = preset("A3")
    a = coxeter.normalize(d, w)
    assert coxeter.multiply(a, coxeter.invert(a)).length == 0
    assert coxeter.multiply(coxeter.invert(a), a).length == 0


@given(words(["s", "t"], 5), words(["s", "t"], 5), words(["s", "t"], 5))
def test_multiply_associative_b2(u, v, w):
    d = preset("B2")
    a, b, c = (coxeter.normalize(d, x) for x in (u, v, w))
    assert coxeter.multiply(coxeter.multiply(a, b), c) == coxeter.multiply(
        a, coxeter.multiply(b, c)
    )


# ---------------------------------------------------------------- enumeration

def test_enumerate_profiles():
    prof = [len(l) for l in coxeter.enumerate_elements(preset("I2(4)"))]
    assert prof == [1, 2, 2, 2, 1]
    prof3 = [len(l) for l in coxeter.enumerate_elements(preset("A3"))]
    assert prof3 == [1, 3, 5, 6, 5, 3, 1]
    assert sum(prof3) == 24


def test_enumerate_ball_atilde2():
    layers = coxeter.enumerate_elements(preset("Atilde2"), 2)
    assert [len(l) for l in layers] == [1, 3, 6]


def test_enumerate_all_requires_finite_type():
    with pytest.raises(FiniteTypeRequiredError):
        coxeter.enumerate_elements(preset("Atilde2"), "all")
    with pytest.raises(FiniteTypeRequiredError,
                       match="longest_element needs a finite-type diagram"):
        coxeter.longest_element(preset("Atilde2"))


@pytest.mark.parametrize("radius", [2.7, 2.0, True, "2", None, -1])
def test_enumerate_takes_all_or_a_natural_radius(radius):
    # int() would truncate 2.7 to 2 and read True as 1
    d = preset("Atilde2")
    with pytest.raises(ValueError, match="max_length must be"):
        coxeter.enumerate_elements(d, radius)
    with pytest.raises(ValueError, match="max_length must be"):
        coxeter._ball(d, radius, 10**6)
    assert [len(layer) for layer in coxeter.enumerate_elements(d, 0)] == [1]


def test_enumerate_size_guard():
    with pytest.raises(CapExceededError):
        coxeter.enumerate_elements(preset("Atilde2"), 6, size_guard=10)


def test_ball_reads_descents_off_the_enumeration(rng):
    diagrams = [(preset(name), "all") for name in ("A3", "B3", "H3")]
    diagrams += [(preset("Atilde2"), 3)] + [(random_diagram(rng, 4), 2) for _ in range(6)]
    for d, ball in diagrams:
        coxeter._engine.cache_clear()
        coxeter.enumerate_elements(d, ball)
        created = len(coxeter._engine(d).sig)
        coxeter._engine.cache_clear()
        elements, ids, down = coxeter._ball(d, ball, 10**6)
        eng = coxeter._engine(d)
        assert len(eng.sig) == created  # the descents come from edges already set
        assert elements == [w for layer in coxeter.enumerate_elements(d, ball) for w in layer]
        assert [eng.element(e) for e in ids] == elements
        for w, descents in zip(elements, down):
            assert [(d.vertices[t], elements[j]) for t, j in descents] == [
                (s, ws) for s in d.vertices
                if (ws := coxeter.normalize(d, w.word + (s,))).length < w.length
            ]
        # The walk of each finite parabolic subgroup W_R in W's engine lists
        # the ball of the subdiagram R: same words (so same lengths) and descents.
        for R in filter(None, finite_type_subsets(d)):
            sub = d.subdiagram(R)
            letters = [s for s, x in enumerate(d.vertices) if x in R]
            ids, _, down = coxeter._walk(eng, letters, math.inf, 10**6)
            sub_elements, _, sub_down = coxeter._ball(sub, "all", 10**6)
            assert [eng.element(e).word for e in ids] == [w.word for w in sub_elements]
            assert [[(d.vertices[t], j) for t, j in D] for D in down] == [
                [(sub.vertices[t], j) for t, j in D] for D in sub_down
            ]


def test_closure_cap():
    # fresh vertex names: the per-diagram rewriter memoizes closures, and a
    # cache hit legitimately bypasses the work cap
    d = CoxeterDiagram(("p", "q"), (("p", "q", 3),))
    with pytest.raises(CapExceededError):
        coxeter.normalize(d, ("p", "q", "p"), cap=1)


def poincare(degrees):
    """Coefficients of prod_i [d_i]_q, the Poincare polynomial of a finite
    Coxeter group with these degrees."""
    poly = [1]
    for deg in degrees:
        out = [0] * (len(poly) + deg - 1)
        for k, c in enumerate(poly):
            for j in range(deg):
                out[k + j] += c
        poly = out
    return poly


@pytest.mark.parametrize("name, degrees", [
    ("F4", (2, 6, 8, 12)),
    ("H4", (2, 12, 20, 30)),
    ("E6", (2, 5, 6, 8, 9, 12)),
])
def test_layer_counts_match_poincare_series(name, degrees):
    d = preset(name)
    layers = coxeter.enumerate_elements(d)
    assert [len(l) for l in layers] == poincare(degrees)
    assert layers[-1] == [coxeter.longest_element(d)]


def test_affine_ball_matches_bott_series():
    # Gtilde2: the finite part I2(6) has degrees 2 and 6, and Bott's formula
    # gives W(q) = [2]_q [6]_q / ((1 - q)(1 - q^5)).
    d = _rank3((3, 6, 2))
    radius = 12
    series = poincare((2, 6)) + [0] * radius
    for deg in (2, 6):
        for k in range(deg - 1, len(series)):
            series[k] += series[k - deg + 1]
    layers = coxeter.enumerate_elements(d, radius)
    assert [len(l) for l in layers] == series[: radius + 1]


def test_group_orders():
    for name, order in [("A2", 6), ("B2", 8), ("I2(5)", 10), ("A3", 24),
                        ("B3", 48), ("H3", 120)]:
        layers = coxeter.enumerate_elements(preset(name))
        assert sum(len(l) for l in layers) == order, name


# ---------------------------------------------------------------- longest

def test_longest_element():
    assert coxeter.longest_element(preset("A2")).word == ("s", "t", "s")
    assert coxeter.longest_element(preset("A3")).length == 6
    assert coxeter.longest_element(preset("B3")).length == 9
    assert coxeter.longest_element(preset("H3")).length == 15


def test_longest_element_is_an_involution():
    for name in ["A2", "B2", "A3", "I2(5)"]:
        w0 = coxeter.longest_element(preset(name))
        assert coxeter.multiply(w0, w0).length == 0


# ---------------------------------------------------------------- reflections

def test_reflection_counts():
    for name, count in [("A2", 3), ("B2", 4), ("A3", 6), ("B3", 9), ("I2(7)", 7)]:
        refl = coxeter.reflections(preset(name))
        assert len(refl) == count, name
        for r in refl:
            assert r.length % 2 == 1
            assert coxeter.multiply(r, r).length == 0


def test_reflections_infinite_needs_ball():
    d = preset("Atilde2")
    with pytest.raises(FiniteTypeRequiredError):
        coxeter.reflections(d)
    refl = coxeter.reflections(d, ball=2)
    assert {r.word for r in refl if r.length == 1} == {("s",), ("t",), ("u",)}
    assert all(r.length % 2 == 1 for r in refl)


# ---------------------------------------------------------------- tmin

@pytest.mark.parametrize("name", ["A2", "B2", "A3", "H3", "Atilde2"])
def test_t_minimal_representative_brute_force(name):
    # T runs over the subsets of size 1 and 2 in Sf, so W_T is finite; the
    # affine group is tried on its ball of radius 4
    d = preset(name)
    ball = 4 if name == "Atilde2" else "all"
    elements = [e for layer in coxeter.enumerate_elements(d, ball) for e in layer]
    subsets = [T for T in finite_type_subsets(d) if len(T) in (1, 2)]
    for T in subsets:
        wt = [e for layer in coxeter.enumerate_elements(d.subdiagram(T))
              for e in layer]
        for w in elements:
            coset = {coxeter.normalize(d, w.word + x.word) for x in wt}
            rep = coxeter.t_minimal_representative(d, w, T)
            assert rep in coset
            assert rep.length == min(x.length for x in coset)
            assert rep.length < min((x.length for x in coset if x != rep),
                                    default=rep.length + 1)


def test_tmin_rejects_an_element_of_another_diagram():
    # B3's s t s is minimal in its coset s t s W_{t}; in A3, s t s = t s t and
    # the minimum would be t s
    w = coxeter.normalize(preset("B3"), ("s", "t", "s"))
    with pytest.raises(DiagramError, match="element belongs to a different diagram"):
        coxeter.t_minimal_representative(preset("A3"), w, ("t",))


def test_tmin_of_coset_representative_is_fixed_point():
    d = preset("B2")
    w = coxeter.normalize(d, ("s", "t", "s"))
    rep = coxeter.t_minimal_representative(d, w, ("t",))
    again = coxeter.t_minimal_representative(d, rep, ("t",))
    assert rep == again


# ---------------------------------------------------------------- coxeter elements

def count_acyclic_orientations(d):
    """Coxeter elements biject with acyclic orientations of the diagram."""
    edges = [(a, b) for a, b, _ in d.edges]
    count = 0
    for mask in range(2 ** len(edges)):
        arcs = [
            (a, b) if mask >> i & 1 else (b, a) for i, (a, b) in enumerate(edges)
        ]
        indeg = {v: 0 for v in d.vertices}
        for _, b in arcs:
            indeg[b] += 1
        order = [v for v in d.vertices if indeg[v] == 0]
        seen = 0
        while order:
            v = order.pop()
            seen += 1
            for a, b in arcs:
                if a == v:
                    indeg[b] -= 1
                    if indeg[b] == 0:
                        order.append(b)
        count += seen == d.rank
    return count


def test_coxeter_elements_a2():
    els = coxeter.coxeter_elements(preset("A2"))
    assert {e.word for e in els} == {("s", "t"), ("t", "s")}


@pytest.mark.parametrize("name", ["A3", "B3", "Atilde2", "D4"])
def test_coxeter_elements_count_matches_acyclic_orientations(name):
    d = preset(name)
    els = coxeter.coxeter_elements(d)
    assert len(els) == count_acyclic_orientations(d)
    for e in els:
        assert e.length == d.rank


def test_coxeter_elements_rank_guard():
    with pytest.raises(RankGuardError):
        coxeter.coxeter_elements(preset("A9"), rank_guard=8)
