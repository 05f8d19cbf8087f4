"""Greedy normal forms against the braid-move closure oracle, cap
determinism, and long signed words."""

import itertools
import random
import time

import pytest

from artin import coxeter, group, monoid
from artin.diagram import INF, CoxeterDiagram, preset
from artin.errors import CapExceededError
from closure_oracle import ClosureOracle

NAMES = ["A3", "B3", "H3", "I2(5)", "Atilde2", "inf"]


def diagram(name):
    if name == "inf":
        return CoxeterDiagram(("s", "t"), (("s", "t", INF),))
    return preset(name)


def words(d, max_len):
    return [w for k in range(max_len + 1) for w in itertools.product(d.vertices, repeat=k)]


@pytest.mark.parametrize("name", NAMES)
def test_canonical_word_and_block_form_match_closures(name):
    d = diagram(name)
    oracle = ClosureOracle(d)
    for w in words(d, 6):
        assert monoid.canonicalize(d, w).word == oracle.canon(w), w
        assert monoid.garside_normal_form(d, w).blocks == oracle.garside_normal_form(w), w


@pytest.mark.parametrize("name", NAMES)
def test_divides_and_gcd_match_closures(name):
    d = diagram(name)
    oracle = ClosureOracle(d)
    pool = words(d, 4)
    for side in ("left", "right"):
        for u, v in itertools.product(pool, repeat=2):
            z = monoid.divides(d, u, v, side)
            assert (z and z.word) == oracle.divides(u, v, side), (side, u, v)
            assert monoid.gcd(d, u, v, side).word == oracle.gcd(u, v, side), (side, u, v)


# (diagram, word length, length_bound): the breadth-first oracle is
# exponential in the lcm's length, so the finite types stop at short words.
LCM_CASES = [
    ("A3", 2, None),
    ("B3", 2, None),
    ("H3", 1, None),
    ("I2(5)", 3, None),
    ("inf", 3, None),
    ("Atilde2", 4, 6),
    ("inf", 4, 6),
    ("Atilde2", 3, 2),
]


@pytest.mark.parametrize("name, max_len, bound", LCM_CASES)
def test_lcm_matches_closure_search(name, max_len, bound):
    d = diagram(name)
    oracle = ClosureOracle(d)
    nones = 0
    for side in ("left", "right"):
        for u, v in itertools.product(words(d, max_len), repeat=2):
            m = monoid.lcm(d, u, v, side, length_bound=bound)
            assert (m and m.word) == oracle.lcm(u, v, side, bound), (side, u, v)
            nones += m is None
    assert nones > 0 if name in ("inf", "Atilde2") else nones == 0


def test_lcm_is_least_on_longer_a3_words():
    """lcm(u, v) = u x = v y with x and y sharing no right letter, checked
    through closures on pairs too long for the breadth-first oracle."""
    d = preset("A3")
    oracle = ClosureOracle(d)
    for u, v in itertools.product(words(d, 3), repeat=2):
        m = monoid.lcm(d, u, v).word
        x, y = oracle.divides(u, m), oracle.divides(v, m)
        assert x is not None and y is not None, (u, v)
        lasts = [{w[-1] for w in oracle.closure(z)} if z else set() for z in (x, y)]
        assert not lasts[0] & lasts[1], (u, v, m)


def test_cap_counts_the_same_work_warm_or_cold():
    word = ("s", "t", "u") * 4
    coxeter._engine.cache_clear()
    with pytest.raises(CapExceededError):
        monoid.canonicalize(preset("A3"), word, cap=5)
    monoid.canonicalize(preset("A3"), word, cap=10**6)
    with pytest.raises(CapExceededError):
        monoid.canonicalize(preset("A3"), word, cap=5)
    with pytest.raises(CapExceededError):
        monoid.lcm(preset("B3"), ("s", "u"), ("t",), cap=3)


@pytest.mark.parametrize("name", ["A3", "B4", "F4"])
def test_long_signed_word_round_trip(name):
    d = preset(name)
    rng = random.Random(2026)
    letters = [(rng.choice(d.vertices), rng.choice((1, -1))) for _ in range(200)]
    coxeter._engine.cache_clear()
    t0 = time.perf_counter()
    g = group.from_letters(d, letters)
    e = group.multiply(g, group.invert(g))
    assert (e.k, e.a.word) == (0, ())
    assert time.perf_counter() - t0 < 2.0


def test_axiom_verifier_catches_a_wrong_gcd_or_lcm(monkeypatch):
    """verify_garside_axioms checks the results, so a gcd that is too small
    or an lcm that is too large fails it."""
    d = preset("A2")
    delta = monoid.garside_element(d, d.vertices).word
    real_lcm = monoid.lcm
    assert monoid.verify_garside_axioms(d, 2).passed
    monkeypatch.setattr(monoid, "gcd", lambda d, a, b, side="left", cap=None: monoid.identity(d))
    assert not monoid.verify_garside_axioms(d, 2).gcd_ok
    monkeypatch.undo()
    monkeypatch.setattr(
        monoid, "lcm",
        lambda d, a, b, side="left", cap=None, length_bound=None: monoid.canonicalize(
            d, real_lcm(d, a, b).word + delta
        ),
    )
    rep = monoid.verify_garside_axioms(d, 2)
    assert rep.gcd_ok and not rep.lcm_ok and not rep.passed


def test_rank_one_group_is_the_integers():
    d = preset("A1")
    rng = random.Random(5)
    for _ in range(30):
        letters = [("s", rng.choice((1, -1))) for _ in range(rng.randrange(12))]
        g = group.from_letters(d, letters)
        assert (g.k, g.a.word) == (sum(e for _, e in letters), ())
        h = group.invert(g)
        assert (h.k, h.a.word) == (-g.k, ())
