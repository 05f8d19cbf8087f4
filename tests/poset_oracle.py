"""The pairwise construction of the Salvetti, Davis and Deligne posets, kept
as a test oracle.

Every ordered pair of elements is tested against the defining order with
Coxeter multiplication: (u, T) <= (v, R) in the Salvetti poset iff T is a
subset of R, v^-1 u has support in R and no letter of T is a right descent
of it; w W_T <= v W_R in the Davis poset iff T is a subset of R and v^-1 w
has support in R; A_S <= A_T in Deligne's fundamental domain iff S is a
subset of T.  The product v^-1 u is taken once per pair of group elements
and read for every pair of cells over them.  Quadratic in the number of
elements, but it reads the order straight from its definition, so it checks
the face and lower-set constructions in `complexes` from outside.  Elements,
labels and their order are built as `complexes` builds them, but Sf comes
from `classify_oracle.spherical_subsets`, which classifies every vertex
subset on its own, not from the search the posets are built on.
"""

import collections

from artin import coxeter
from artin.complexes import Poset, _set_label, _w_elements
from artin.coxeter import DEFAULT_CAP

from classify_oracle import spherical_subsets


def _sort_key(d, elem):
    w, T = elem
    return (len(T), sorted(d.index(v) for v in T), w.sort_key())


def _meta(kind, ball):
    return (("complex", kind), ("ball", "all" if ball == "all" else int(ball)))


def _by_element(elems):
    """w -> the (T, index) of each cell (w, T), in index order."""
    cells = collections.defaultdict(list)
    for i, (w, T) in enumerate(elems):
        cells[w].append((T, i))
    return cells


def salvetti_poset(d, ball="all", cap=DEFAULT_CAP) -> Poset:
    elements_w = _w_elements(d, ball, cap)[0]
    sf = spherical_subsets(d)
    elems = sorted(((u, T) for u in elements_w for T in sf), key=lambda e: _sort_key(d, e))
    labels = [f"({''.join(u.word) or 'e'},{_set_label(d, T)})" for u, T in elems]
    cells = _by_element(elems)
    gens = [(t, coxeter.normalize(d, (t,), cap)) for t in d.vertices]
    less = set()
    for v in elements_w:
        inv = coxeter.invert(v, cap)
        for u in elements_w:
            w = coxeter.multiply(inv, u, cap)
            support = set(w.word)
            ascents = {t for t, g in gens if coxeter.multiply(w, g, cap).length > w.length}
            for R, j in cells[v]:
                if support <= R:
                    less.update((i, j) for T, i in cells[u] if T <= R and T <= ascents and i != j)
    return Poset(tuple(elems), tuple(labels), frozenset(less), _meta("salvetti", ball))


def davis_poset(d, ball="all", cap=DEFAULT_CAP) -> Poset:
    elements_w = _w_elements(d, ball, cap)[0]
    elems = list(dict.fromkeys(
        (coxeter.t_minimal_representative(d, w, T, cap), T)
        for T in spherical_subsets(d)
        for w in elements_w
    ))
    elems.sort(key=lambda e: _sort_key(d, e))
    labels = [f"{''.join(rep.word) or 'e'}W{_set_label(d, T)}" for rep, T in elems]
    cells = _by_element(elems)
    less = set()
    for v in cells:
        inv = coxeter.invert(v, cap)
        for w in cells:
            support = set(coxeter.multiply(inv, w, cap).word)
            for R, j in cells[v]:
                if support <= R:
                    less.update((i, j) for T, i in cells[w] if T <= R and i != j)
    return Poset(tuple(elems), tuple(labels), frozenset(less), _meta("davis", ball))


def deligne_poset(d) -> Poset:
    sf = spherical_subsets(d)
    labels = [f"A{_set_label(d, T)}" for T in sf]
    less = frozenset((i, j) for i, S in enumerate(sf) for j, T in enumerate(sf) if S < T)
    return Poset(tuple(sf), tuple(labels), less, (("complex", "deligne-fd"),))
