"""Finite-type classification by candidate-family trial, kept as a test
oracle.

For each connected component it lists every family whose rank and label
multiset fit, builds that family's reference diagram, and keeps the first
one a label-preserving isomorphism reaches.  It decides nothing from the
shape of the tree, so it checks the shape recognizer in artin.diagram from
outside; the two must agree on the flag and on every TypeLabel, witness
included.
"""

from artin.diagram import INF, TypeLabel, _build_family, _find_isomorphism


def candidate_families(sub):
    n = sub.rank
    labels = sorted(m for _, _, m in sub.edges)
    if n == 1:
        yield ("A", n, None)
        return
    if all(m == 3 for m in labels):
        yield ("A", n, None)
        if n >= 4:
            yield ("D", n, None)
        if n in (6, 7, 8):
            yield (f"E{n}", n, None)
    if n >= 2 and labels.count(4) == 1:
        yield ("B", n, None)
    if n == 2 and len(labels) == 1 and labels[0] != INF and labels[0] >= 5:
        yield ("I2", n, int(labels[0]))
    if n == 4 and labels == [3, 3, 4]:
        yield ("F4", n, None)
    if n == 3 and labels == [3, 5]:
        yield ("H3", n, None)
    if n == 4 and labels == [3, 3, 5]:
        yield ("H4", n, None)


def component_label(d, comp):
    sub = d.subdiagram(comp)
    if len(sub.edges) != sub.rank - 1:
        return None
    for family, n, p in candidate_families(sub):
        iso = _find_isomorphism(sub, _build_family(family, n, p))
        if iso is not None:
            return TypeLabel(
                family=family,
                rank=n,
                p=p,
                assignment=tuple(sorted(iso.items(), key=lambda kv: d.index(kv[0]))),
            )
    return None


def is_finite_type(d):
    labels = []
    for comp in d.components():
        lab = component_label(d, comp)
        if lab is None:
            return False, None
        labels.append(lab)
    return True, labels
