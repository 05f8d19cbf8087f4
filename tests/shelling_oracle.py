"""All-pairs chamber checks and a chamber system built one greedy coset
representative at a time, kept as test oracles for `shelling`.

`verify_claims` and `is_shelling` intersect every chamber with every earlier
one, and `verify_claims` checks every same-level pair;
`coxeter_chamber_system` calls `coxeter.t_minimal_representative` once per
element and generator.  Witnesses name the first wrong-dimension face
by (size, sorted reprs), as `shelling` does.
"""

import itertools

from artin import coxeter
from artin.errors import DiagramError
from artin.shelling import (
    ChamberComplex,
    ClaimCheck,
    ClaimsReport,
    LevelCounts,
    ShellingCheck,
    _check_index,
)


def meets_in_facet_union(chamber, others, n):
    shared = {chamber & o for o in others}
    shared.discard(frozenset())
    maximal = [f for f in shared if not any(f < g for g in shared)]
    if not shared:
        return False, "empty intersection with the previous union", maximal
    for f in sorted(maximal, key=lambda f: (len(f), sorted(map(repr, f)))):
        if len(f) != n:
            return (
                False,
                f"maximal shared face {sorted(f, key=repr)} has dimension "
                f"{len(f) - 1}, expected {n - 1}",
                maximal,
            )
    return True, None, maximal


def verify_claims(cc, index):
    """Every Claim A chamber and every same-level Claim B pair, checked
    against all earlier chambers, then reported as `shelling` reports them:
    the failing checks, and per level the chambers, pairs and passes."""
    idx = _check_index(cc, index)
    by_level = {}
    for i, v in enumerate(idx):
        by_level.setdefault(v, []).append(i)
    claim_a, claim_b = [], []
    full_boundary_glue = False
    for lv in sorted(by_level):
        if lv == 0:
            continue
        previous = [cc.chambers[i] for i, v in enumerate(idx) if v < lv]
        maximal = {}
        for i in by_level[lv]:
            ok, witness, maximal[i] = meets_in_facet_union(cc.chambers[i], previous, cc.n)
            claim_a.append(ClaimCheck(lv, (i,), ok, witness))
            if ok and len(maximal[i]) == cc.n + 1:
                full_boundary_glue = True
        for a, b in itertools.combinations(by_level[lv], 2):
            inter = cc.chambers[a] & cc.chambers[b]
            inside = not inter or any(inter <= f for f in maximal[a])
            witness = None
            if not inside:
                witness = (
                    f"chambers {a} and {b} share {sorted(inter, key=repr)}, "
                    f"which is not a face of C({lv - 1})"
                )
            claim_b.append(ClaimCheck(lv, (a, b), inside, witness))
    levels = tuple(
        LevelCounts(
            lv,
            sum(c.level == lv for c in claim_a),
            sum(c.level == lv and c.ok for c in claim_a),
            sum(c.level == lv for c in claim_b),
            sum(c.level == lv and c.ok for c in claim_b),
        )
        for lv in sorted(by_level) if lv
    )
    conclusion = None
    if all(c.ok for c in claim_a + claim_b):
        if len(cc.chambers) == 1 or not full_boundary_glue:
            conclusion = "contractible"
        else:
            conclusion = f"{cc.n - 1}-connected"
    return ClaimsReport(
        cc.n,
        tuple(c for c in claim_a if not c.ok),
        tuple(c for c in claim_b if not c.ok),
        levels,
        conclusion,
    )


def is_shelling(cc, order):
    order = tuple(int(i) for i in order)
    if sorted(order) != list(range(len(cc.chambers))):
        raise ValueError("order must be a permutation of the chamber indices")
    for pos in range(1, len(order)):
        previous = [cc.chambers[j] for j in order[:pos]]
        ok, witness, _ = meets_in_facet_union(cc.chambers[order[pos]], previous, cc.n)
        if not ok:
            return ShellingCheck(False, pos, f"chamber {order[pos]}: {witness}")
    return ShellingCheck(True)


def coxeter_chamber_system(d, ball="all", cap=coxeter.DEFAULT_CAP):
    if d.rank < 2:
        raise DiagramError("chamber system needs rank >= 2 (chambers must be simplices)")
    elements = [w for layer in coxeter.enumerate_elements(d, ball, cap) for w in layer]
    rows = []
    for w in elements:
        row = []
        for s in d.vertices:
            T = tuple(t for t in d.vertices if t != s)
            row.append((s, coxeter.t_minimal_representative(d, w, T, cap).word))
        rows.append(row)
    cosets = {v for row in rows for v in row}
    joined = len({(s, "".join(rep) or "e") for s, rep in cosets}) == len(cosets)
    chambers = [
        frozenset((s, "".join(rep) or "e") if joined else (s, rep) for s, rep in row)
        for row in rows
    ]
    return ChamberComplex(d.rank - 1, tuple(chambers)), tuple(w.length for w in elements)
