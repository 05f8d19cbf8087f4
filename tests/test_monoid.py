"""Artin monoid divisibility, Garside element, and normal forms."""

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from artin import coxeter, group, monoid
from artin.diagram import CoxeterDiagram, INF, preset
from artin.errors import CapExceededError, DiagramError, FiniteTypeRequiredError, GarsideError


def inf_pair():
    return CoxeterDiagram(("s", "t"), (("s", "t", INF),))


def words(letters, max_len):
    return st.lists(st.sampled_from(letters), max_size=max_len).map(tuple)


# ---------------------------------------------------------------- closure

def test_closure_preserves_length():
    d = preset("B2")
    for w in [("s", "t", "s", "t"), ("t", "s", "t"), ("s", "s", "t")]:
        cl = monoid.relation_closure(d, w)
        assert all(len(x) == len(w) for x in cl)
        assert w in cl


def test_closure_stops_at_its_cap():
    # s t s u t s has more than three spellings in the A3 monoid
    with pytest.raises(CapExceededError, match="relation closure exceeded cap 3"):
        monoid.relation_closure(preset("A3"), ("s", "t", "s", "u", "t", "s"), cap=3)


def test_monoid_does_not_cancel_squares():
    # ss is trivial in the group but not in the monoid
    d = preset("A2")
    assert monoid.canonicalize(d, ("s", "s")).length == 2
    assert not monoid.monoid_equal(d, ("s", "s"), ())


@given(words(["s", "t"], 7), st.data())
def test_canonical_form_is_class_invariant_b2(w, data):
    d = preset("B2")
    cl = sorted(monoid.relation_closure(d, w))
    pick = data.draw(st.sampled_from(cl))
    assert monoid.canonicalize(d, pick) == monoid.canonicalize(d, w)


@given(words(["s", "t", "u"], 6))
def test_product_length_additive_atilde2(w):
    d = preset("Atilde2")
    a = monoid.canonicalize(d, w)
    b = monoid.canonicalize(d, w[::-1])
    assert monoid.product(a, b).length == a.length + b.length


# ---------------------------------------------------------------- divisibility

def test_divides_examples():
    d = preset("A2")
    cof = monoid.divides(d, ("s",), ("s", "t", "s"), "left")
    assert cof is not None and cof.word == ("t", "s")
    # sts = tst, so t also left-divides it
    assert monoid.divides(d, ("t",), ("s", "t", "s"), "left") is not None
    assert monoid.divides(d, ("s", "s"), ("s", "t", "s"), "left") is None
    assert monoid.divides(d, ("t",), ("s", "t"), "right") is not None
    assert monoid.divides(d, ("s",), ("s", "t"), "right") is None


@given(words(["s", "t"], 5), words(["s", "t"], 5))
def test_left_factor_divides_product_b2(u, v):
    d = preset("B2")
    a = monoid.canonicalize(d, u + v)
    cof = monoid.divides(d, u, a, "left")
    assert cof is not None
    assert monoid.monoid_equal(d, cof, v)
    cof_r = monoid.divides(d, v, a, "right")
    assert cof_r is not None
    assert monoid.monoid_equal(d, cof_r, u)


def test_divisor_set_of_delta_a2():
    d = preset("A2")
    delta = monoid.garside_element(d, d.vertices)
    left = monoid.divisor_set(d, delta, "left")
    right = monoid.divisor_set(d, delta, "right")
    assert len(left) == 6
    assert left == right
    words_found = {x.word for x in left}
    assert words_found == {(), ("s",), ("t",), ("s", "t"), ("t", "s"),
                           ("s", "t", "s")}


def test_gcd_examples():
    d = preset("A2")
    assert monoid.gcd(d, ("s", "t"), ("s", "s"), "left").word == ("s",)
    assert monoid.gcd(d, ("s", "t"), ("t", "s"), "left").word == ()
    # sts = tst is divisible by both generators on both sides
    delta = ("s", "t", "s")
    assert monoid.gcd(d, delta, ("t", "t"), "left").word == ("t",)


@given(words(["s", "t"], 5), words(["s", "t"], 5))
def test_gcd_divides_both_b2(u, v):
    d = preset("B2")
    g = monoid.gcd(d, u, v, "left")
    assert monoid.divides(d, g, u, "left") is not None
    assert monoid.divides(d, g, v, "left") is not None


def test_gcd_is_maximal_common_divisor_exhaustive():
    # cross-check against the full divisor sets on short A2 words
    d = preset("A2")
    pool = [("s",), ("t", "s"), ("s", "t", "s"), ("s", "s", "t"), ("t", "t")]
    for u, v in itertools.product(pool, repeat=2):
        g = monoid.gcd(d, u, v, "left")
        common = {x.word for x in monoid.divisor_set(d, u, "left")} & {
            x.word for x in monoid.divisor_set(d, v, "left")
        }
        assert g.word in common
        assert len(g.word) == max(len(w) for w in common)


def test_lcm_examples():
    d = preset("A2")
    assert monoid.lcm(d, ("s",), ("t",), "left").word == ("s", "t", "s")
    b = preset("B2")
    assert monoid.lcm(b, ("s",), ("t",), "left").length == 4
    assert monoid.lcm(d, ("s",), ("s", "t"), "left").word == ("s", "t")


def test_lcm_is_divisible_by_both_and_minimal():
    d = preset("B2")
    pool = [("s",), ("t",), ("s", "t"), ("t", "s"), ("s", "s")]
    for u, v in itertools.product(pool, repeat=2):
        m = monoid.lcm(d, u, v, "left")
        assert monoid.divides(d, u, m, "left") is not None
        assert monoid.divides(d, v, m, "left") is not None
        # no shorter common multiple exists among all words up to that length
        shorter = [
            w
            for k in range(m.length)
            for w in itertools.product(d.vertices, repeat=k)
            if monoid.divides(d, u, w, "left") is not None
            and monoid.divides(d, v, w, "left") is not None
        ]
        assert shorter == []


def test_lcm_infinite_pair_not_found():
    d = inf_pair()
    assert monoid.lcm(d, ("s",), ("t",), "left") is None
    # ... but compatible elements still have one
    assert monoid.lcm(d, ("s",), ("s", "t"), "left").word == ("s", "t")


def test_lcm_longer_than_an_explicit_bound_is_none_on_finite_type():
    d = preset("A2")
    for side in ("left", "right"):
        assert monoid.lcm(d, ("s",), ("t",), side, length_bound=2) is None
        assert monoid.lcm(d, ("s",), ("t",), side, length_bound=3).word == ("s", "t", "s")
    assert monoid.lcm(preset("B3"), ("s",), ("u",), length_bound=1) is None


# ---------------------------------------------------------------- Garside

def test_garside_element_examples():
    d = preset("A2")
    assert monoid.garside_element(d, ("s", "t")).word == ("s", "t", "s")
    assert monoid.garside_element(d, ("s",)).word == ("s",)
    assert monoid.garside_element(d, ()).word == ()
    assert monoid.garside_element(preset("B2"), ("s", "t")).length == 4


def test_garside_element_rejects_unknown_generators():
    with pytest.raises(DiagramError, match=r"unknown generators \['zz'\]"):
        monoid.garside_element(preset("A3"), ("s", "zz"))


def test_garside_element_needs_finite_type():
    with pytest.raises(FiniteTypeRequiredError):
        monoid.garside_element(preset("Atilde2"), ("s", "t", "u"))
    with pytest.raises(FiniteTypeRequiredError, match="sigma requires a finite-type diagram"):
        monoid.garside_permutation(preset("Atilde2"))
    with pytest.raises(FiniteTypeRequiredError,
                       match="group elements require a finite-type diagram"):
        group.identity(preset("Atilde2"))


# On a cold engine, Delta_T of a proper subset costs the climb in W_T and the
# ShortLex word of its top, and no inverses along the way.
@pytest.mark.parametrize("name, cap, word", [
    ("H3", 31, ("s", "t", "s", "t", "s")),
    ("A3", 7, ("s", "t", "s")),
])
def test_garside_element_of_a_pair_fits_a_low_cap_on_a_cold_engine(name, cap, word):
    coxeter._engine.cache_clear()
    assert monoid.garside_element(preset(name), ("s", "t"), cap).word == word


# Delta of all of S on a cold engine, at README's full-S thresholds (B3's roots
# are integral).
@pytest.mark.parametrize("name, cap, length", [("A3", 14, 6), ("B3", 30, 9), ("H3", 124, 15)])
def test_garside_element_fits_its_full_s_threshold_on_a_cold_engine(name, cap, length):
    d = preset(name)
    coxeter._engine.cache_clear()
    assert monoid.garside_element(d, d.vertices, cap).length == length


def test_sigma_examples():
    assert monoid.garside_permutation(preset("A2")) == {"s": "t", "t": "s"}
    assert monoid.garside_permutation(preset("B2")) == {"s": "s", "t": "t"}
    # A3: sigma is the diagram flip
    assert monoid.garside_permutation(preset("A3")) == {"s": "u", "t": "t", "u": "s"}


def test_sigma_conjugation_identity():
    # Delta s = sigma(s) Delta as monoid elements
    for name in ["A2", "B2", "A3"]:
        d = preset(name)
        delta = monoid.garside_element(d, d.vertices)
        sigma = monoid.garside_permutation(d)
        for s in d.vertices:
            assert monoid.monoid_equal(
                d, delta.word + (s,), (sigma[s],) + delta.word
            )


# ---------------------------------------------------------------- normal form

def test_normal_form_examples():
    d = preset("A2")
    nf = monoid.garside_normal_form(d, ("s", "t", "s", "t"))
    assert [sorted(b) for b in nf.blocks] == [["s"], ["s", "t"]]
    nf_delta = monoid.garside_normal_form(d, ("s", "t", "s"))
    assert [sorted(b) for b in nf_delta.blocks] == [["s", "t"]]
    at = preset("Atilde2")
    nf_at = monoid.garside_normal_form(at, ("s", "t"))
    assert [sorted(b) for b in nf_at.blocks] == [["s"], ["t"]]
    assert monoid.garside_normal_form(d, ()).blocks == ()


@pytest.mark.parametrize("name", ["A2", "B2", "Atilde2"])
def test_normal_form_roundtrip_and_block_rule(name):
    """Soundness on every positive word of length <= 5: the normal form
    re-multiplies to the input, is constant on closure classes, and each
    block is the right-descent set at its step."""
    d = preset(name)
    for k in range(6):
        for w in itertools.product(d.vertices, repeat=k):
            nf = monoid.garside_normal_form(d, w)
            assert monoid.monoid_equal(d, nf.word(), w)
            for other in monoid.relation_closure(d, w):
                assert monoid.garside_normal_form(d, other) == nf
            # replay: block T_j must be the right-divisor letter set
            rest = monoid.canonicalize(d, w)
            for T in reversed(nf.blocks):
                letters = {
                    s for s in d.vertices
                    if monoid.divides(d, (s,), rest, "right") is not None
                }
                assert set(T) == letters
                rest = monoid.divides(
                    d, monoid.garside_element(d, T), rest, "right"
                )
            assert rest.length == 0


def test_normal_form_blocks_are_finite_type():
    # the affine monoid never produces the full vertex set as a block
    at = preset("Atilde2")
    for k in range(5):
        for w in itertools.product(at.vertices, repeat=k):
            for T in monoid.garside_normal_form(at, w).blocks:
                assert len(T) <= 2


# ---------------------------------------------------------------- axioms

def test_axioms_a2():
    rep = monoid.verify_garside_axioms(preset("A2"), 4)
    assert rep.passed
    assert rep.finite_type
    assert rep.cancellative and rep.length_additive and rep.gcd_ok and rep.lcm_ok
    assert rep.divisors_symmetric and rep.divisors_match_section
    assert rep.divisor_count == 6
    assert rep.group_order == 6


def test_axioms_b2():
    rep = monoid.verify_garside_axioms(preset("B2"), 4)
    assert rep.passed
    assert rep.divisor_count == 8
    assert rep.group_order == 8


def test_axioms_inf_pair():
    rep = monoid.verify_garside_axioms(inf_pair(), 4)
    assert not rep.finite_type
    assert rep.cancellative
    assert rep.length_additive
    assert rep.gcd_ok
    assert not rep.lcm_ok
    assert (("s",), ("t",)) in rep.lcm_failures
    assert rep.divisor_count is None
    assert not rep.passed


def test_divisors_match_canonical_section():
    # divisors(Delta) = section(W), both directions, via the group module
    for name in ["A2", "B2"]:
        d = preset(name)
        delta = monoid.garside_element(d, d.vertices)
        divisors = {x.word for x in monoid.divisor_set(d, delta, "left")}
        section = set()
        for layer in coxeter.enumerate_elements(d):
            for w in layer:
                g = group.canonical_section(d, w)
                word = (monoid.garside_element(d, d.vertices).word * g.k
                        + g.a.word)
                section.add(monoid.canonicalize(d, word).word)
        assert divisors == section


def test_monoid_elements_layer_counts():
    d = preset("A2")
    layers = monoid.monoid_elements(d, 4)
    assert [len(l) for l in layers] == [1, 2, 4, 7, 12]


@pytest.mark.parametrize("length", [-1, -2, True, 2.0, "3", None])
def test_monoid_lengths_must_be_natural_numbers(length):
    # a negative length used to yield the identity layer alone, so the axiom
    # check passed on the identity without checking anything
    d = preset("A2")
    with pytest.raises(ValueError, match="max_length"):
        monoid.monoid_elements(d, length)
    with pytest.raises(ValueError, match="length_cap"):
        monoid.verify_garside_axioms(d, length)
