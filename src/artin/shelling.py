"""Union-of-chambers connectivity verifier and shelling-order checks.

A chamber complex is a pure family of n-simplices given combinatorially by
their vertex sets.  An index function filters it into levels C(k); the
verifier checks, level by level, that every new chamber meets the previous
union in a non-empty union of its own facets (Claim A) and that same-level
chambers meet each other inside the previous level (Claim B).  When both
hold the complex is contractible, unless some chamber glues along its
entire boundary, in which case only (n-1)-connectivity is certified.

Chambers are ranked by level, then index; each vertex gets a small integer
id and an int bitset of the ranks of its chambers.  A facet index keyed by
vertex masks finds the facets a chamber shares with earlier chambers, and
Claim A, the shelling check and Claim B are then a few ANDs of bitsets.
Only a chamber that fails Claim A is intersected with others, to name a
witness, and only with the earlier chambers at its vertices; Claim B looks
only at same-level pairs that share a vertex: the rest meet in the empty
face.  A report lists the failing checks and counts, per level, the
chambers, the pairs and how many of each pass, so its size grows with the
number of levels and failures, not of pairs.  A witness face is the first
by size, then by sorted vertex reprs, so reports do not depend on hashing.

The Coxeter chamber system makes each coset vertex once and, in length
order over the enumerated ball, gives every element the vertices of w t,
for t its first right descent, but one.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import asdict, dataclass

from . import coxeter
from .coxeter import DEFAULT_CAP, _bits
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
    It walks every chamber in `others`, so it is used only for a chamber
    that `_glued_vertices` does not certify, and handed only the earlier
    chambers that share a vertex with it.
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


def _glued_vertices(cc: ChamberComplex, level, order):
    """Per chamber c in `order` (sorted by `level`; its place there is its
    rank), (g, bits): g = |X| and bits the ranks of the chambers that hold
    all of X, when c meets the earlier chambers (those of lower level) in a
    non-empty union of its facets; else g = 0 and bits the ranks of the
    chambers that share a vertex with c.

    X is the set of vertices x whose facet c - x lies in an earlier chamber.
    A face c & o lies in a shared facet c - x exactly when x is in X and not
    in o, so c glues along facets exactly when X is non-empty and no earlier
    chamber holds all of X.  A facet index keyed by vertex masks finds X,
    and each vertex's int bitset of chamber ranks makes the rest |X| ANDs.
    Facets of a 0-simplex are empty, so for n = 0 every chamber gets g = 0.
    Chambers are yielded lazily, so a caller may stop at the first failure.
    """
    n, chambers = cc.n, cc.chambers
    ids: dict = {}  # vertex -> id
    holders: list[int] = []  # id -> bitset of the ranks of the chambers holding it
    facets: dict[int, int] = {}  # vertex mask of a facet -> the lowest rank holding it
    first = 0
    for _, group in itertools.groupby(order, key=level.__getitem__):
        earlier = (1 << first) - 1
        rows = []  # per chamber of the level: its vertex ids, then the glued ones
        for r, i in enumerate(group, first):
            vs = [ids.setdefault(x, len(ids)) for x in chambers[i]]
            holders += [0] * (len(ids) - len(holders))
            bit, mask = 1 << r, 0
            for v in vs:
                holders[v] |= bit
                mask |= 1 << v
            rows.append((vs, [v for v in vs if facets.setdefault(mask ^ (1 << v), r) < first]
                         if n else ()))
        first += len(rows)
        for vs, glued in rows:
            if glued:
                bits = holders[glued[0]]
                for v in glued[1:]:
                    bits &= holders[v]
                if not bits & earlier:
                    yield len(glued), bits
                    continue
            bits = 0
            for v in vs:
                bits |= holders[v]
            yield 0, bits


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
    (`_glued_vertices`).  A chamber a that passes glues along the facets
    a - x, x in X, and b of its level fails Claim B with it exactly when b
    holds all of X: the later such b are an AND of the bitsets of X, cut to
    the level's ranks.  A chamber that fails Claim A is intersected with
    the chambers of C(k) at its vertices, for its witness, and with the
    later chambers of its level at its vertices, for its Claim B pairs: a
    pair that shares no vertex meets in the empty face.
    """
    idx = _check_index(cc, index)
    chambers = cc.chambers
    order = sorted(range(len(chambers)), key=idx.__getitem__)
    glued = _glued_vertices(cc, idx, order)

    claim_a, claim_b, levels = [], [], []
    full_boundary_glue = False
    first = 0
    for lv, group in itertools.groupby(idx[i] for i in order):
        end = first + sum(1 for _ in group)
        if not lv:  # the base chamber
            next(glued)
            first = end
            continue
        earlier = (1 << first) - 1
        here = ((1 << end) - 1) ^ earlier  # the ranks of level lv
        earlier_a, earlier_b = len(claim_a), len(claim_b)  # failures below lv
        for r, (g, bits) in zip(range(first, end), glued):
            a, ca = order[r], chambers[order[r]]
            later = [order[r + 1 + b] for b in _bits((bits & here) >> (r + 1))]
            if g:
                # ca & cb lies in C(lv - 1) iff it lies in a facet a - x with
                # x glued and not in b: b fails iff it holds every glued x.
                full_boundary_glue |= g == cc.n + 1
                bad = later
            else:
                previous = [chambers[order[b]] for b in _bits(bits & earlier)]
                witness, maximal = _meets_in_facet_union(ca, previous, cc.n)
                claim_a.append(ClaimCheck(lv, (a,), False, witness))
                bad = [b for b in later if not any(ca & chambers[b] <= f for f in maximal)]
            claim_b.extend(
                ClaimCheck(lv, (a, b), False,
                           f"chambers {a} and {b} share {sorted(ca & chambers[b], key=repr)}, "
                           f"which is not a face of C({lv - 1})")
                for b in bad
            )
        m = end - first
        pairs = m * (m - 1) // 2
        levels.append(LevelCounts(lv, m, m - len(claim_a) + earlier_a,
                                  pairs, pairs - len(claim_b) + earlier_b))
        first = end

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
    for pos, (g, bits) in enumerate(_glued_vertices(cc, position, order)):
        if pos and not g:
            previous = [cc.chambers[order[b]] for b in _bits(bits & ((1 << pos) - 1))]
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

    Vertices are filled in length order, each made once: w shares every
    coset vertex of w t, for t its first right descent, but the one for t,
    which it shares with w t' for a second right descent t'; with no second
    one, w is its own representative for t.  The descents are read off the
    enumeration (`coxeter._ball`), so this creates no element and spends no
    root budget.
    """
    if d.rank < 2:
        raise DiagramError("chamber system needs rank >= 2 (chambers must be simplices)")
    elements, _, down = coxeter._ball(d, ball, cap)
    names = ["".join(w.word) or "e" for w in elements]
    # w is its own representative for s exactly when no right descent of w but s
    cosets = [(s, 0) for s in range(d.rank)] + [(t, i) for i, ((t, _), *more) in
                                               enumerate(down[1:], 1) if not more]
    if len({(s, names[i]) for s, i in cosets}) < len(cosets):
        names = [w.word for w in elements]
    rows = [[(s, names[0]) for s in d.vertices]]  # per element, its coset vertices
    for i, ((t, j), *more) in enumerate(down[1:], 1):
        row = rows[j].copy()
        row[t] = rows[more[0][1]][t] if more else (d.vertices[t], names[i])
        rows.append(row)
    chambers = tuple(map(frozenset, rows))
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
