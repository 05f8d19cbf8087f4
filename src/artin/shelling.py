"""Union-of-chambers connectivity verifier and shelling-order checks.

A chamber complex is a pure family of n-simplices given combinatorially by
their vertex sets.  An index function filters it into levels C(k); the
verifier checks, level by level, that every new chamber meets the previous
union in a non-empty union of its own facets (Claim A) and that same-level
chambers meet each other inside the previous level (Claim B).  When both
hold the complex is contractible, unless some chamber glues along its
entire boundary, in which case only (n-1)-connectivity is certified.

Claim A, and the shelling check, are decided per chamber from the facets
it shares with earlier chambers, found in a facet index, and the chambers
at one of its vertices; only a chamber that fails is intersected with every
earlier one, to name a witness.  Claim B is decided only for the
same-level pairs that share a vertex, since the rest meet in the empty
face.  A report lists the failing checks and counts, per level, the
chambers, the pairs and how many of each pass, so its size grows with the
number of levels and failures, not of pairs.  A witness face is the first
by size, then by sorted vertex reprs, so reports do not depend on hashing.

The Coxeter chamber system reads every coset representative off one table
per generator, filled in length order over the enumerated ball.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

from . import coxeter
from .coxeter import DEFAULT_CAP
from .diagram import CoxeterDiagram
from .errors import DiagramError


@dataclass(frozen=True)
class ChamberComplex:
    """Pure n-dimensional complex listed by its chambers (n-simplices)."""

    n: int
    chambers: tuple[frozenset, ...]

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"dimension must be >= 0, got {self.n}")
        if not self.chambers:
            raise ValueError("chamber complex needs at least one chamber")
        for i, c in enumerate(self.chambers):
            if len(c) != self.n + 1:
                raise ValueError(
                    f"chamber {i} has {len(c)} vertices, expected {self.n + 1}"
                )

    @property
    def vertices(self) -> tuple:
        return tuple(sorted({v for c in self.chambers for v in c}, key=repr))

    def to_json_obj(self) -> dict:
        return {
            "n": self.n,
            "chambers": [sorted(c, key=repr) for c in self.chambers],
        }


def _check_index(cc: ChamberComplex | None, index) -> tuple[int, ...]:
    """The index function as integers: naturals, exactly one of them 0, and
    one per chamber, which is left unchecked when cc is None."""
    idx = tuple(int(v) for v in index)
    if any(v < 0 for v in idx):
        raise ValueError("index values must be naturals")
    if idx.count(0) != 1:
        raise ValueError(f"exactly one chamber must have index 0, found {idx.count(0)}")
    if cc is not None and len(idx) != len(cc.chambers):
        raise ValueError(
            f"index function covers {len(idx)} chambers, complex has {len(cc.chambers)}"
        )
    return idx


def _check_order(cc: ChamberComplex | None, order) -> tuple[int, ...]:
    """The chamber order as integers, a permutation of the chamber indices;
    when cc is None, only free of negative and repeated entries."""
    order = tuple(int(i) for i in order)
    if (min(order, default=0) < 0 or len(set(order)) < len(order)
            or cc is not None and sorted(order) != list(range(len(cc.chambers)))):
        raise ValueError("order must be a permutation of the chamber indices")
    return order


def build_filtration(cc: ChamberComplex, index, k: int) -> ChamberComplex:
    """C(k): the union of the chambers with index <= k, as a facet list."""
    idx = _check_index(cc, index)
    kept = tuple(c for c, v in zip(cc.chambers, idx) if v <= k)
    if not kept:
        raise ValueError(f"C({k}) is empty; the base chamber has index 0")
    return ChamberComplex(cc.n, kept)


def _meets_in_facet_union(chamber: frozenset, others, n: int):
    """(witness, maximal) for: the intersection of `chamber` with the union
    of `others` is a non-empty union of (n-1)-faces of `chamber`; the witness
    is None when it is, and `maximal` lists the maximal faces that `chamber`
    shares with `others`.

    Maximal shared vertex sets must all have size n.  An empty intersection
    or a maximal shared face of another dimension is a violation; the
    witness names the one that comes first by size, then by sorted reprs.
    This walks every chamber in `others`, so it is used only for a chamber
    that `_glued_vertices` does not certify.
    """
    shared = {chamber & o for o in others}
    shared.discard(frozenset())
    maximal = [f for f in shared if not any(f < g for g in shared)]
    if not shared:
        return "empty intersection with the previous union", maximal
    for f in sorted(maximal, key=lambda f: (len(f), sorted(map(repr, f)))):
        if len(f) != n:
            return (
                f"maximal shared face {sorted(f, key=repr)} has dimension "
                f"{len(f) - 1}, expected {n - 1}",
                maximal,
            )
    return None, maximal


def _glued_vertices(cc: ChamberComplex, level) -> list[frozenset | None]:
    """Per chamber c, the vertices x whose facet c - x lies in an earlier
    chamber (one of lower level), when c meets the earlier chambers in a
    non-empty union of its facets; None when it does not.

    Let X be that vertex set.  A face c & o lies in a shared facet c - x
    exactly when x is in X and not in o, so c glues along facets exactly
    when X is non-empty and no earlier chamber contains all of X.  A facet
    index finds X, and the chambers at one vertex of X decide the rest.
    Facets of a 0-simplex are empty, and an empty union fails, so for
    n = 0 every chamber gets None.
    """
    chambers = cc.chambers
    if cc.n == 0:
        return [None] * len(chambers)
    holders: dict = {}  # vertex -> chambers containing it
    facets: dict[frozenset, list[int]] = {}  # facet -> chambers containing it
    for i, c in enumerate(chambers):
        for x in c:
            holders.setdefault(x, []).append(i)
            facets.setdefault(c - {x}, []).append(i)
    out = []
    for i, c in enumerate(chambers):
        lv = level[i]
        glued = frozenset(x for x in c if any(level[j] < lv for j in facets[c - {x}]))
        if glued:
            x = min(glued, key=lambda v: len(holders[v]))
            if any(level[j] < lv and glued <= chambers[j] for j in holders[x]):
                glued = None
        out.append(glued or None)
    return out


@dataclass(frozen=True)
class ClaimCheck:
    level: int
    chambers: tuple[int, ...]
    ok: bool
    witness: str | None = None

    def to_json_obj(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class LevelCounts:
    """The checks at one level k >= 1: its chambers and how many pass Claim
    A, its same-level pairs m(m-1)/2 and how many pass Claim B; a pair that
    shares no vertex passes."""

    level: int
    chambers: int
    claim_a_passed: int
    pairs: int
    claim_b_passed: int

    def to_json_obj(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class ClaimsReport:
    """The failing checks of each claim, in level order, then chamber order,
    and the counts of every level above 0."""

    n: int
    claim_a: tuple[ClaimCheck, ...]
    claim_b: tuple[ClaimCheck, ...]
    levels: tuple[LevelCounts, ...]
    conclusion: str | None

    @property
    def passed(self) -> bool:
        return not self.claim_a and not self.claim_b

    def to_json_obj(self) -> dict:
        return {
            "n": self.n,
            "claim_a": [c.to_json_obj() for c in self.claim_a],
            "claim_b": [c.to_json_obj() for c in self.claim_b],
            "levels": [c.to_json_obj() for c in self.levels],
            "passed": self.passed,
            "conclusion": self.conclusion,
        }


def verify_claims(cc: ChamberComplex, index) -> ClaimsReport:
    """Check Claims (A) and (B) at every level of the filtration.

    (A): each chamber at level k+1 meets C(k) in a non-empty union of its
    facets.  (B): two distinct chambers at the same level k+1 intersect
    inside C(k).  When both pass everywhere, the union is contractible if
    no chamber glued along its whole boundary, and (n-1)-connected
    otherwise.

    Claim A is read off the facets each chamber shares with lower levels
    (`_glued_vertices`); only a chamber that fails it is intersected with
    all of C(k), for its witness and for its Claim B pairs.  Claim B looks
    only for failures, among the later chambers of the level that share a
    vertex with chamber a, found in a (vertex, level) index: a pair that
    shares no vertex meets in the empty face.
    """
    idx = _check_index(cc, index)
    chambers = cc.chambers
    by_level: dict[int, list[int]] = {}
    at: dict = {}  # (vertex, level) -> the chambers of that level at that vertex
    for i, (c, lv) in enumerate(zip(chambers, idx)):
        by_level.setdefault(lv, []).append(i)
        for x in c:
            at.setdefault((x, lv), []).append(i)
    glued = _glued_vertices(cc, idx)

    claim_a, claim_b, levels = [], [], []
    full_boundary_glue = False
    for lv in sorted(by_level):
        if lv == 0:
            continue
        earlier_a, earlier_b = len(claim_a), len(claim_b)  # failures below lv
        previous = None
        for a in by_level[lv]:
            ca, ga = chambers[a], glued[a]
            if ga is not None:
                # ca & cb lies in C(lv - 1) iff it lies in a facet a - x with
                # x glued and not in b: b fails iff it holds all of ga.
                full_boundary_glue |= len(ga) == cc.n + 1
                x = min(ga, key=lambda v: len(at[v, lv]))
                bad = [b for b in at[x, lv] if b > a and ga <= chambers[b]]
            else:
                if previous is None:
                    previous = [c for c, v in zip(chambers, idx) if v < lv]
                witness, maximal = _meets_in_facet_union(ca, previous, cc.n)
                claim_a.append(ClaimCheck(lv, (a,), False, witness))
                near = sorted({b for x in ca for b in at[x, lv] if b > a})
                bad = [b for b in near if not any(ca & chambers[b] <= f for f in maximal)]
            claim_b.extend(
                ClaimCheck(lv, (a, b), False,
                           f"chambers {a} and {b} share {sorted(ca & chambers[b], key=repr)}, "
                           f"which is not a face of C({lv - 1})")
                for b in bad
            )
        m = len(by_level[lv])
        pairs = m * (m - 1) // 2
        levels.append(LevelCounts(lv, m, m - len(claim_a) + earlier_a,
                                  pairs, pairs - len(claim_b) + earlier_b))

    conclusion = None
    if not claim_a and not claim_b:
        if len(chambers) == 1 or not full_boundary_glue:
            conclusion = "contractible"
        else:
            conclusion = f"{cc.n - 1}-connected"
    return ClaimsReport(cc.n, tuple(claim_a), tuple(claim_b), tuple(levels), conclusion)


@dataclass(frozen=True)
class ShellingCheck:
    ok: bool
    violation_position: int | None = None
    witness: str | None = None

    def to_json_obj(self) -> dict:
        return asdict(self)


def is_shelling(cc: ChamberComplex, order) -> ShellingCheck:
    """Check a total chamber order: every chamber after the first must meet
    the union of its predecessors in a non-empty union of its facets."""
    order = _check_order(cc, order)
    position = [0] * len(order)
    for pos, i in enumerate(order):
        position[i] = pos
    glued = _glued_vertices(cc, position)
    for pos in range(1, len(order)):
        if glued[order[pos]] is None:
            previous = [cc.chambers[j] for j in order[:pos]]
            witness, _ = _meets_in_facet_union(cc.chambers[order[pos]], previous, cc.n)
            return ShellingCheck(False, pos, f"chamber {order[pos]}: {witness}")
    return ShellingCheck(True)


def coxeter_chamber_system(
    d: CoxeterDiagram, ball="all", cap: int = DEFAULT_CAP
) -> tuple[ChamberComplex, tuple[int, ...]]:
    """The chamber system of a Coxeter group with its length index.

    Chambers are the group elements; the chamber of w is the (rank-1)-simplex
    whose vertex for each generator s is the coset w W_{S \\ {s}}, named by
    (s, its minimal representative).  The representative is written as its
    joined letters ("e" for the identity) unless two cosets of one W_{S \\ {s}}
    would get the same name that way (a generator called "e", or names such as
    a, b and ab), and then as its word tuple.  The index function is Coxeter
    length, so the unique index-0 chamber is the identity.

    Representatives come from one table per generator s, filled in length
    order: w is its own representative unless it has a right descent t != s,
    and then it shares the representative of w t.  The descents are read off
    the enumeration (`coxeter._ball`), so the table creates no element and
    spends no root budget.
    """
    if d.rank < 2:
        raise DiagramError("chamber system needs rank >= 2 (chambers must be simplices)")
    elements, _, down = coxeter._ball(d, ball, cap)
    n = d.rank
    rep = [list(range(len(elements))) for _ in range(n)]  # rep[s][i]: w_i W_(S-s)
    for i, descents in enumerate(down):
        for s in range(n):
            rep[s][i] = rep[s][next((j for t, j in descents if t != s), i)]
    names = ["".join(w.word) or "e" for w in elements]
    cosets = {(s, j) for k, s in enumerate(d.vertices) for j in rep[k]}
    joined = len({(s, names[i]) for s, i in cosets}) == len(cosets)
    if not joined:
        names = [w.word for w in elements]
    chambers = tuple(
        frozenset((s, names[rep[k][i]]) for k, s in enumerate(d.vertices))
        for i in range(len(elements))
    )
    return ChamberComplex(d.rank - 1, chambers), tuple(w.length for w in elements)


def parse_chamber_json(text: str) -> tuple[ChamberComplex, tuple[int, ...] | None]:
    """Read {"n": int, "chambers": [[ids]...], "index": [naturals...]}."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed chamber JSON: {exc}") from None
    if not isinstance(obj, dict) or "n" not in obj or "chambers" not in obj:
        raise ValueError("chamber JSON needs keys 'n' and 'chambers'")
    extra = set(obj) - {"n", "chambers", "index"}
    if extra:
        raise ValueError(f"unexpected chamber JSON keys {sorted(extra)}")
    n, chambers, idx = obj["n"], obj["chambers"], obj.get("index")
    try:
        if not (
            _is_int(n)
            and isinstance(chambers, list)
            and all(isinstance(c, list) for c in chambers)
            and (idx is None or isinstance(idx, list) and all(map(_is_int, idx)))
        ):
            raise TypeError
        chambers = tuple(frozenset(c) for c in chambers)
    except TypeError:
        raise ValueError(
            "chamber JSON needs an integer 'n', a list of vertex-id lists "
            "'chambers' and a list of integers 'index'"
        ) from None
    return ChamberComplex(n, chambers), None if idx is None else tuple(idx)


def _is_int(v) -> bool:
    """A JSON integer: an int that is not a bool."""
    return isinstance(v, int) and not isinstance(v, bool)
