"""The pairwise construction of the Salvetti and Davis posets, kept as a test
oracle.

Every ordered pair of elements is tested against the defining order with
Coxeter multiplication: (u, T) <= (v, R) in the Salvetti poset iff T is a
subset of R, v^-1 u has support in R and no letter of T is a right descent
of it; w W_T <= v W_R in the Davis poset iff T is a subset of R and v^-1 w
has support in R.  Quadratic in the number of elements, but it reads the
order straight from its definition, so it checks the lower-set
constructions in `complexes` from outside.  Elements, labels and their
order are built as `complexes` builds them.
"""

from artin import coxeter
from artin.complexes import Poset, _set_label, _sf_sorted, _w_elements
from artin.coxeter import DEFAULT_CAP


def _pairwise_poset(elements, labels, leq, metadata) -> Poset:
    less = frozenset(
        (i, j)
        for i, x in enumerate(elements)
        for j, y in enumerate(elements)
        if i != j and leq(x, y)
    )
    return Poset(tuple(elements), tuple(labels), less, tuple(metadata))


def _sort_key(d, elem):
    w, T = elem
    return (len(T), sorted(d.index(v) for v in T), w.sort_key())


def salvetti_poset(d, ball="all", cap=DEFAULT_CAP) -> Poset:
    elements_w = _w_elements(d, ball, cap)[0]
    elems = [(u, frozenset(T)) for u in elements_w for T in _sf_sorted(d)]
    elems.sort(key=lambda e: _sort_key(d, e))
    labels = [f"({''.join(u.word) or 'e'},{_set_label(d, T)})" for u, T in elems]
    inv = {u: coxeter.invert(u, cap) for u in elements_w}

    def leq(x, y):
        (u, T), (v, R) = x, y
        if not T <= R:
            return False
        w = coxeter.multiply(inv[v], u, cap)
        if not set(w.word) <= R:
            return False
        return all(
            coxeter.multiply(w, coxeter.normalize(d, (t,), cap), cap).length > w.length
            for t in T
        )

    meta = (("complex", "salvetti"), ("ball", "all" if ball == "all" else int(ball)))
    return _pairwise_poset(elems, labels, leq, meta)


def davis_poset(d, ball="all", cap=DEFAULT_CAP) -> Poset:
    elements_w = _w_elements(d, ball, cap)[0]
    elems = list(dict.fromkeys(
        (coxeter.t_minimal_representative(d, w, T, cap), frozenset(T))
        for T in _sf_sorted(d)
        for w in elements_w
    ))
    elems.sort(key=lambda e: _sort_key(d, e))
    labels = [f"{''.join(rep.word) or 'e'}W{_set_label(d, T)}" for rep, T in elems]
    inv = {rep: coxeter.invert(rep, cap) for rep, _ in elems}

    def leq(x, y):
        (w, T), (v, R) = x, y
        return T <= R and set(coxeter.multiply(inv[v], w, cap).word) <= R

    meta = (("complex", "davis"), ("ball", "all" if ball == "all" else int(ball)))
    return _pairwise_poset(elems, labels, leq, meta)
