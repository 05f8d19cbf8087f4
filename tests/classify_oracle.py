"""Finite-type classification by candidate-family trial, kept as a test
oracle.

For each connected component it lists every family whose rank and label
multiset fit, builds that family's reference diagram, and keeps the first
one a label-preserving isomorphism reaches: a backtracking search that tries
component vertices in declared order.  It decides nothing from the shape of
the tree and keeps its own component scan, so it checks the shape reader in
artin.diagram from outside; the two must agree on the flag and on every
TypeLabel, witness included.

``spherical_subsets`` lists Sf by classifying every vertex subset that way,
where the library searches Sf level by level on vertex bitmasks and reads
the shape of a candidate tree.

``taxonomy`` evaluates every TaxonomyReport flag from its literal
definition, by brute force over all vertex subsets, where the library reads
the flags off Sf and its minimal non-members.
"""

import itertools

from artin.diagram import INF, CoxeterDiagram, TaxonomyReport, TypeLabel, _build_family


def degree_key(d: CoxeterDiagram, v: str) -> tuple:
    labels = sorted(d.m(v, u) for u in d.neighbors(v))
    return (len(labels), tuple(labels))


def find_isomorphism(comp: CoxeterDiagram, ref: CoxeterDiagram):
    """Label-preserving isomorphism comp -> ref as a vertex -> position map.

    Backtracking over reference positions in a connectivity-friendly order;
    candidates must match degree and incident-label multiset, and agree with
    every already-placed vertex on the pair label (including m = 2 pairs).
    """
    if comp.rank != ref.rank:
        return None
    comp_key = {v: degree_key(comp, v) for v in comp.vertices}
    ref_key = {v: degree_key(ref, v) for v in ref.vertices}
    if sorted(comp_key.values()) != sorted(ref_key.values()):
        return None

    order = []
    placed = set()
    # BFS over the reference graph so each new position touches a placed one
    for start in ref.vertices:
        if start in placed:
            continue
        queue = [start]
        placed.add(start)
        while queue:
            x = queue.pop(0)
            order.append(x)
            for y in ref.neighbors(x):
                if y not in placed:
                    placed.add(y)
                    queue.append(y)

    position = {v: i + 1 for i, v in enumerate(ref.vertices)}
    assignment: dict[str, str] = {}

    def extend(i: int) -> bool:
        if i == len(order):
            return True
        target = order[i]
        for cand in comp.vertices:
            if cand in assignment:
                continue
            if comp_key[cand] != ref_key[target]:
                continue
            if any(
                comp.m(cand, placed_v) != ref.m(placed_t, target)
                for placed_v, placed_t in assignment.items()
            ):
                continue
            assignment[cand] = target
            if extend(i + 1):
                return True
            del assignment[cand]
        return False

    if not extend(0):
        return None
    return {v: position[t] for v, t in assignment.items()}



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
        iso = find_isomorphism(sub, _build_family(family, n, p))
        if iso is not None:
            return TypeLabel(
                family=family,
                rank=n,
                p=p,
                assignment=tuple(sorted(iso.items(), key=lambda kv: d.index(kv[0]))),
            )
    return None


def components(d):
    """Connected components by a scan of every pair through d.neighbors."""
    remaining = set(d.vertices)
    comps = []
    for v in d.vertices:
        if v not in remaining:
            continue
        stack, comp = [v], set()
        while stack:
            x = stack.pop()
            if x in comp:
                continue
            comp.add(x)
            stack.extend(y for y in d.neighbors(x) if y not in comp)
        remaining -= comp
        comps.append(tuple(u for u in d.vertices if u in comp))
    return tuple(comps)


def is_finite_type(d):
    labels = []
    for comp in components(d):
        lab = component_label(d, comp)
        if lab is None:
            return False, None
        labels.append(lab)
    return True, labels


def spherical_subsets(d):
    """Sf by brute force, listed by size, then by vertex positions: every
    vertex subset, taken by `itertools.combinations` in declared order and
    classified on its own subdiagram by candidate trial."""
    return [frozenset(T) for k in range(d.rank + 1) for T in itertools.combinations(d.vertices, k)
            if not T or is_finite_type(d.subdiagram(T))[0]]


def infinity_free_subsets(d):
    """Subsets containing no pair with an infinite label, smallest first."""
    inf_pairs = {frozenset((a, b)) for a, b, m in d.edges if m == INF}
    level = [frozenset()]
    yield frozenset()
    while level:
        nxt = []
        for T in level:
            top = max((d.index(v) for v in T), default=-1)
            for v in d.vertices[top + 1 :]:
                if any(frozenset((u, v)) in inf_pairs for u in T):
                    continue
                T2 = T | {v}
                nxt.append(T2)
                yield T2
        level = nxt


def taxonomy(d):
    """The TaxonomyReport of d, each flag from its definition."""
    S = frozenset(d.vertices)
    subsets = [frozenset(T) for k in range(d.rank + 1) for T in itertools.combinations(S, k)]
    spherical = {T: not T or is_finite_type(d.subdiagram(T))[0] for T in subsets}
    labels = [d.m(s, t) for s, t in itertools.combinations(d.vertices, 2)]
    free_inf = INF not in labels
    return TaxonomyReport(
        finite_type=spherical[S],
        # FC: every infinity-free subset is spherical
        fc_type=all(spherical[T] for T in infinity_free_subsets(d)),
        # no spherical subset of three generators
        two_dimensional=not any(spherical[T] for T in subsets if len(T) == 3),
        # every pair labelled at least 3
        large_type=all(m >= 3 for m in labels),
        # every connected spherical subset of at least three generators is A3
        locally_reducible=all(
            [(lab.family, lab.rank) for lab in is_finite_type(sub)[1]] == [("A", 3)]
            for T in subsets
            if len(T) >= 3 and spherical[T]
            for sub in (d.subdiagram(T),)
            if len(components(sub)) == 1
        ),
        free_of_infinity=free_inf,
        # free of infinity, not spherical, every proper subset spherical
        almost_spherical=free_inf
        and not spherical[S]
        and all(spherical[T] for T in subsets if T != S),
        components=tuple(component_label(d, comp) for comp in components(d)),
    )
