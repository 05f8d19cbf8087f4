"""Finite-type Artin group elements as Delta-normalized pairs (k, a).

Every element factors as Delta^k * a with a a positive-monoid element not
left-divisible by Delta; taking k maximal makes the pair unique, so group
equality is syntactic.  The work runs on the left-greedy normal form of a:
Delta divides a exactly when the first factor is Delta, a * Delta^k =
Delta^k * sigma^k(a) with sigma applied factor by factor, and an inverse
letter s^-1 = Delta^-1 * (w0 s) is one more simple factor.  ``cap`` bounds
the normal-form work of one call, as in ``monoid``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from . import monoid
from .coxeter import DEFAULT_CAP, CoxeterElement, _check_letters
from .diagram import CoxeterDiagram
from .errors import DiagramError, FiniteTypeRequiredError
from .monoid import MonoidElement


@dataclass(frozen=True)
class GroupElement:
    """Delta^k * a with k maximal (Delta does not left-divide a)."""

    diagram: CoxeterDiagram
    k: int
    a: MonoidElement

    def __repr__(self):
        return f"GroupElement(k={self.k}, a={''.join(self.a.word) or 'e'})"

    def to_json_obj(self) -> dict:
        return {"k": self.k, "a": list(self.a.word)}


def _state(d: CoxeterDiagram, cap: int, what: str):
    st = monoid._begin(d, cap, what)
    if not st.eng.finite:
        raise FiniteTypeRequiredError("group elements require a finite-type diagram")
    return st


def _times(st, k: int, F: list, hk: int, G) -> tuple[int, list]:
    """(Delta^k F) * (Delta^hk G) = Delta^(k+hk) sigma^hk(F) G, with the
    leading Delta factors counted into the exponent.  A factor of G may be
    trivial (s^-1 = Delta^-1 in rank one) and is then skipped."""
    if hk % 2:
        F = [st.twist(x) for x in F]
    for y in G:
        if y:
            st.append(F, y)
    w0, j = st.w0(), 0
    while j < len(F) and F[j] == w0:
        j += 1
    return k + hk + j, F[j:]


def _element(st, k: int, F: list) -> GroupElement:
    return GroupElement(st.diagram, k, monoid._element(st, F))


def identity(d: CoxeterDiagram) -> GroupElement:
    _state(d, DEFAULT_CAP, "identity")
    return GroupElement(d, 0, monoid.identity(d))


def delta_element(d: CoxeterDiagram) -> GroupElement:
    """Delta as a group element: the pair (1, e)."""
    _state(d, DEFAULT_CAP, "delta_element")
    return GroupElement(d, 1, monoid.identity(d))


def embed(d: CoxeterDiagram, a, cap: int = DEFAULT_CAP) -> GroupElement:
    """The image of a positive monoid element in the group."""
    st = _state(d, cap, "embed")
    return _element(st, *_times(st, 0, [], 0, st.nf(monoid._word(st, a))))


def parse_signed_word(text: str) -> tuple[tuple[str, int], ...]:
    """Parse 's t^-1 s' into ((s,+1), (t,-1), (s,+1))."""
    out = []
    for tok in text.split():
        m = re.fullmatch(r"([^\^\s]+)(?:\^(-?1))?", tok)
        if m is None:
            raise DiagramError(f"bad group-word token {tok!r} (use s or s^-1)")
        out.append((m.group(1), int(m.group(2) or 1)))
    return tuple(out)


def _letters(d: CoxeterDiagram, word, cap: int = DEFAULT_CAP) -> tuple:
    """The state of a `from_letters` call and the (generator, +-1) letters
    of its word, every one checked before any is multiplied, so an error
    does not depend on the cap."""
    if isinstance(word, str):
        word = parse_signed_word(word)
    st, word = _state(d, cap, "from_letters"), tuple(word)
    for s, e in word:
        if s not in st.key:
            raise DiagramError(f"unknown generator {s!r}")
        if e not in (1, -1):
            raise DiagramError(f"exponent must be +1 or -1, got {e}")
    return st, word


def from_letters(d: CoxeterDiagram, word, cap: int = DEFAULT_CAP) -> GroupElement:
    """Build a group element from (generator, +-1) letters, left to right.

    A positive letter multiplies by (0, s); an inverse letter by (-1, b)
    where Delta = b*s.
    """
    st, word = _letters(d, word, cap)
    k, F = 0, []
    for s, e in word:
        hk = 0 if e == 1 else -1
        k, F = _times(st, k, F, hk, [st.right(st.w0() if hk else 0, st.key[s])])
    return _element(st, k, F)


def multiply(g: GroupElement, h: GroupElement, cap: int = DEFAULT_CAP) -> GroupElement:
    if g.diagram != h.diagram:
        raise DiagramError("cannot multiply elements over different diagrams")
    st = _state(g.diagram, cap, "multiply")
    return _element(st, *_times(st, g.k, list(st.nf(g.a.word)), h.k, st.nf(h.a.word)))


def invert(g: GroupElement, cap: int = DEFAULT_CAP) -> GroupElement:
    """g = Delta^k x_1...x_r  =>  g^{-1} = x_r^{-1}...x_1^{-1} Delta^{-k}, with
    each x^{-1} = Delta^{-1} c for the simple c with c x = Delta."""
    st = _state(g.diagram, cap, "invert")
    k, F = 0, []
    for x in reversed(st.nf(g.a.word)):
        k, F = _times(st, k, F, -1, [st.complement(x)])
    return _element(st, *_times(st, k, F, -g.k, ()))


def equal(g: GroupElement, h: GroupElement) -> bool:
    return g == h


def fraction_decomposition(
    g: GroupElement, cap: int = DEFAULT_CAP
) -> tuple[MonoidElement, MonoidElement]:
    """Left fraction g = A^{-1} B with A, B positive and left-coprime.

    Starting from the Delta-form (A, B) = (Delta^{-k}, a) when k < 0 and
    (e, Delta^k a) otherwise, the common left gcd is cancelled so the pair
    is reduced.
    """
    st = _state(g.diagram, cap, "fraction_decomposition")
    A, B = [st.w0()] * max(-g.k, 0), [st.w0()] * max(g.k, 0) + list(st.nf(g.a.word))
    st.common_prefix(A, B)
    return monoid._element(st, A), monoid._element(st, B)


def canonical_section(d: CoxeterDiagram, w: CoxeterElement, cap: int = DEFAULT_CAP) -> GroupElement:
    """The set-theoretic section W -> A sending w to its minimal word."""
    if w.diagram != d:
        raise DiagramError("element belongs to a different diagram")
    return embed(d, w.word, cap)


def project(g: GroupElement, cap: int = DEFAULT_CAP) -> CoxeterElement:
    """The natural map A -> W.  Delta maps to the longest element w0, and
    w0 is an involution, so Delta^k contributes w0^(k mod 2)."""
    st = _state(g.diagram, cap, "project")
    eng = st.eng
    e = eng.walk(st.w0() if g.k % 2 else 0, _check_letters(eng.key, g.a.word))
    return eng.element(e)


def is_pure(g: GroupElement, cap: int = DEFAULT_CAP) -> bool:
    """Pure elements are the kernel of the projection to W."""
    return project(g, cap).length == 0
