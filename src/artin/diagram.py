"""Labelled Coxeter diagrams: parsing, presets, classification, taxonomy.

A diagram is a finite labelled graph on generator names.  An edge {s, t}
carries an integer label m >= 3 or infinity; a missing edge means m = 2.
Finite type is decided from the shape of each connected component: a
finite-type component is a tree, and its family follows from its branch
vertex and arm lengths or from where its one label other than 3 sits on a
path.  The same shape fixes the witness a TypeLabel carries: the position
of each vertex in the family's reference diagram, where ties between
symmetric vertices go to the vertex declared first.  So the answer is exact
and independent of floating point, and neither classification nor the set Sf
of finite-type subsets builds a subdiagram or runs an isomorphism search.
The numeric signature test (module tits) is a cross-check, never the
authority.

One level-by-level search finds Sf and, as the candidates it rejects, the
minimal subsets outside Sf; the taxonomy reads its flags off the two.  It
runs on vertex bitmasks, tests a candidate's proper subsets by one lookup
per vertex and its connectivity by its edge count, classifies only trees of
three or more vertices, and lists Sf by size, then vertex positions, with
no sort.  FC type means Sf is a flag complex: every minimal non-member is a
pair, which then carries an infinite label.

The invariants read off the diagram alone live here too: Sf in its listing
order, the cell counts of the quotient Salvetti complex (one k-cell per T in
Sf with |T| = k), and H_1 of the Artin group, free on the components of the
graph of odd finite labels.
"""

from __future__ import annotations

import collections
import itertools
import json
import re
from dataclasses import asdict, dataclass, field

from .errors import DiagramError, RankGuardError

INF = float("inf")

DEFAULT_RANK_GUARD = 20

@dataclass(frozen=True)
class CoxeterDiagram:
    """Vertex set S with symmetric labels m_st in {3, 4, ...} or infinity.

    ``vertices`` is the declared generator order; it fixes the ShortLex
    order used by every normal form downstream.  ``edges`` holds triples
    (a, b, m) with a before b in vertex order; absent pairs mean m = 2.
    """

    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str, float], ...]

    def __post_init__(self):
        verts = tuple(self.vertices)
        if not verts:
            raise DiagramError("diagram needs at least one vertex")
        for v in verts:
            if not isinstance(v, str) or not v:
                raise DiagramError(f"vertex names must be nonempty strings, got {v!r}")
        if len(set(verts)) != len(verts):
            raise DiagramError(f"duplicate vertices in {verts}")
        pos = {v: i for i, v in enumerate(verts)}
        seen = set()
        canon = []
        for a, b, m in self.edges:
            if a not in pos or b not in pos:
                raise DiagramError(f"edge ({a},{b}) uses an unknown vertex")
            if a == b:
                raise DiagramError(f"self-loop at {a}")
            if m != INF:
                if not isinstance(m, int) or isinstance(m, bool) or m < 3:
                    raise DiagramError(
                        f"edge ({a},{b}) label {m!r}: labels must be integers >= 3 "
                        "or infinity (m = 2 is encoded by edge absence)"
                    )
            lo, hi = (a, b) if pos[a] < pos[b] else (b, a)
            if (lo, hi) in seen:
                raise DiagramError(f"duplicate edge ({a},{b})")
            seen.add((lo, hi))
            canon.append((lo, hi, m))
        canon.sort(key=lambda e: (pos[e[0]], pos[e[1]]))
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "edges", tuple(canon))
        # {vertex: {neighbour: label}}, each neighbour map in vertex order
        nbrs = {v: {} for v in verts}
        for a, b, m in canon:
            nbrs[a][b] = nbrs[b][a] = m
        object.__setattr__(self, "_nbrs", nbrs)
        object.__setattr__(self, "_pos", pos)

    def __reduce__(self):
        # Rebuild on unpickling: the cached hash depends on the string hash seed.
        return (CoxeterDiagram, (self.vertices, self.edges))

    def __hash__(self) -> int:
        # Per-diagram caches key on the diagram, so hash it once, on first
        # use: most subdiagrams built while classifying are never hashed.
        try:
            return self._hash
        except AttributeError:
            object.__setattr__(self, "_hash", hash((self.vertices, self.edges)))
            return self._hash

    @property
    def rank(self) -> int:
        return len(self.vertices)

    def index(self, s: str) -> int:
        try:
            return self._pos[s]
        except (KeyError, TypeError):
            raise DiagramError(f"unknown generator {s!r}") from None

    def m(self, s: str, t: str) -> float:
        """Label m_st; 2 when no edge.  m_ss is undefined."""
        if self.index(s) == self.index(t):
            raise DiagramError(f"m({s},{s}) is undefined")
        return self._nbrs[s].get(t, 2)

    def pairs(self):
        """All unordered vertex pairs (s, t, m_st), including m = 2 pairs."""
        for s, t in itertools.combinations(self.vertices, 2):
            yield s, t, self.m(s, t)

    def neighbors(self, s: str) -> tuple[str, ...]:
        """Vertices joined to s by an edge (label >= 3 or infinity)."""
        self.index(s)  # DiagramError for an unknown s
        return tuple(self._nbrs[s])

    def _subset(self, T) -> set:
        """T as a set; DiagramError naming its letters that are not vertices."""
        keep = set(T)
        unknown = keep - set(self.vertices)
        if unknown:
            raise DiagramError(f"unknown generators {sorted(unknown)}")
        return keep

    def subdiagram(self, T) -> "CoxeterDiagram":
        """Induced subdiagram spanned by T, keeping the declared order."""
        keep = self._subset(T)
        verts = tuple(v for v in self.vertices if v in keep)
        edges = tuple(e for e in self.edges if e[0] in keep and e[1] in keep)
        return CoxeterDiagram(verts, edges)

    def components(self) -> tuple[tuple[str, ...], ...]:
        """Connected components, each ordered by vertex position."""
        return _components(self._nbrs)

    def to_json_obj(self) -> dict:
        edges = [
            {"a": a, "b": b, "m": "inf" if m == INF else m} for a, b, m in self.edges
        ]
        return {"vertices": list(self.vertices), "edges": edges}


@dataclass(frozen=True)
class TypeLabel:
    """A classification family name with an isomorphism witness.

    ``assignment`` maps each component vertex, in vertex order, to its
    1-based position in the reference diagram of the named family.  Where
    the component has symmetries, ties go to the vertex declared first: the
    first-declared end of A, F4, B2 and I2(p), the first-declared short
    leaves of D (and of D4, the first two leaves), the first-declared
    length-2 arm of E6.
    """

    family: str
    rank: int
    p: int | None = None
    assignment: tuple[tuple[str, int], ...] = ()

    @property
    def name(self) -> str:
        if self.family == "I2":
            return f"I2({self.p})"
        if self.family in ("A", "B", "D"):
            return f"{self.family}{self.rank}"
        return self.family

    def assignment_map(self) -> dict[str, int]:
        return dict(self.assignment)


@dataclass(frozen=True)
class TaxonomyReport:
    """Boolean taxonomy flags plus per-component classification labels.

    ``components`` holds one entry per connected component, in vertex
    order: a TypeLabel when the component is finite type, else None.
    """

    finite_type: bool
    fc_type: bool
    two_dimensional: bool
    large_type: bool
    locally_reducible: bool
    free_of_infinity: bool
    almost_spherical: bool
    components: tuple[TypeLabel | None, ...] = field(default=())


def _names(n: int) -> tuple[str, ...]:
    """Generator names for presets: single letters up to rank 8, then s1..sn."""
    if n <= 8:
        return tuple("stuvwxyz"[:n])
    return tuple(f"s{i}" for i in range(1, n + 1))


def _path(names, labels) -> CoxeterDiagram:
    edges = tuple((names[i], names[i + 1], labels[i]) for i in range(len(names) - 1))
    return CoxeterDiagram(tuple(names), edges)


def _build_family(family: str, n: int, p: int | None = None) -> CoxeterDiagram:
    v = _names(n)
    if family == "A":
        return _path(v, [3] * (n - 1))
    if family == "B":
        return _path(v, [4] + [3] * (n - 2))
    if family == "D":
        edges = [(v[0], v[2], 3), (v[1], v[2], 3)]
        edges += [(v[i], v[i + 1], 3) for i in range(2, n - 1)]
        return CoxeterDiagram(v, tuple(edges))
    if family == "I2":
        return CoxeterDiagram(v, ((v[0], v[1], p),))
    if family == "F4":
        return _path(v, [3, 4, 3])
    if family == "H3":
        return _path(v, [5, 3])
    if family == "H4":
        return _path(v, [5, 3, 3])
    if family in ("E6", "E7", "E8"):
        # path on n-1 vertices with the last vertex hung off the third one
        edges = [(v[i], v[i + 1], 3) for i in range(n - 2)]
        edges.append((v[2], v[n - 1], 3))
        return CoxeterDiagram(v, tuple(edges))
    raise DiagramError(f"unknown family {family!r}")


_PRESET_RE = re.compile(r"^([ABD])n?([0-9]+|\([0-9]+\))$")
_I2_RE = re.compile(r"^I2\(([0-9]+)\)$")


def preset(name: str) -> CoxeterDiagram:
    """Build a named preset diagram.

    Accepted: A<k> (k >= 1), B<k> (k >= 2), D<k> (k >= 4), I2(p) (p >= 3),
    F4, H3, H4, E6, E7, E8, Atilde2.  An(k)-style spellings are accepted
    for the parametric families.
    """
    name = name.strip()
    if name == "Atilde2":
        v = _names(3)
        return CoxeterDiagram(v, ((v[0], v[1], 3), (v[0], v[2], 3), (v[1], v[2], 3)))
    if name in ("F4", "H3", "H4", "E6", "E7", "E8"):
        return _build_family(name, int(name[1]))
    m = _I2_RE.match(name)
    if m:
        point = int(m.group(1))
        if point < 3:
            raise DiagramError(f"I2({point}): dihedral presets need p >= 3")
        return _build_family("I2", 2, point)
    m = _PRESET_RE.match(name)
    if m:
        family, k = m.group(1), int(m.group(2).strip("()"))
        minimum = {"A": 1, "B": 2, "D": 4}[family]
        if k < minimum:
            raise DiagramError(f"{family}{k}: family {family} needs rank >= {minimum}")
        return _build_family(family, k)
    raise DiagramError(f"unknown preset {name!r}")


def _from_json_obj(obj) -> CoxeterDiagram:
    if not isinstance(obj, dict):
        raise DiagramError(f"diagram JSON must be an object, got {type(obj).__name__}")
    extra = set(obj) - {"vertices", "edges"}
    if extra:
        raise DiagramError(f"unexpected diagram keys {sorted(extra)}")
    verts = obj.get("vertices")
    if not isinstance(verts, list):
        raise DiagramError("diagram JSON needs a 'vertices' list")
    raw_edges = obj.get("edges", [])
    if not isinstance(raw_edges, list):
        raise DiagramError("diagram JSON 'edges' must be a list")
    edges = []
    for e in raw_edges:
        if not isinstance(e, dict) or set(e) - {"a", "b", "m"}:
            raise DiagramError(f"bad edge entry {e!r}")
        if not isinstance(e.get("a"), str) or not isinstance(e.get("b"), str):
            raise DiagramError(f"bad edge entry {e!r}: 'a' and 'b' must be vertex names")
        m = e.get("m")
        if m == "inf":
            m = INF
        edges.append((e.get("a"), e.get("b"), m))
    return CoxeterDiagram(tuple(verts), tuple(edges))


def parse_diagram(source) -> CoxeterDiagram:
    """Parse a diagram from JSON text, a parsed JSON object, or a preset name."""
    if isinstance(source, CoxeterDiagram):
        return source
    if isinstance(source, dict):
        return _from_json_obj(source)
    if not isinstance(source, str):
        raise DiagramError(f"cannot parse diagram from {type(source).__name__}")
    text = source.strip()
    if text.startswith(("{", "[")):
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise DiagramError(f"malformed diagram JSON: {exc}") from None
        return _from_json_obj(obj)
    return preset(text)


def _components(nbrs) -> tuple[tuple[str, ...], ...]:
    """Connected components of an adjacency map, each in the map's vertex
    order, listed by their first vertex."""
    root = {}
    for v in nbrs:
        if v in root:
            continue
        root[v], stack = v, [v]
        while stack:
            for u in nbrs[stack.pop()]:
                if u not in root:
                    root[u] = v
                    stack.append(u)
    comps = {}
    for v in nbrs:
        comps.setdefault(root[v], []).append(v)
    return tuple(map(tuple, comps.values()))


def _induced(nbrs, T) -> dict[str, dict[str, float]]:
    """The adjacency map nbrs restricted to the vertex set T."""
    return {u: {w: nbrs[u][w] for w in nbrs[u].keys() & T} for u in T}


def _arm(nbrs, leaf) -> list[str]:
    """The walk from a leaf of a tree through its vertices of degree 2, up to
    the first vertex of another degree: the branch vertex, or the far end of a
    path.  A lone vertex is its own walk."""
    arm = [leaf, *nbrs[leaf]]
    while len(arm) > 1 and len(nbrs[arm[-1]]) == 2:
        arm.append(next(w for w in nbrs[arm[-1]] if w != arm[-2]))
    return arm


def _tree_family(nbrs) -> tuple[str, int, int | None] | None:
    """(family, rank, p) of a labelled tree; None when it is not a tree or
    not finite.

    ``nbrs`` is {vertex: {neighbour: label}}, a connected graph or a forest:
    either is a tree exactly when it has n - 1 edges.  The classification
    theorem (Humphreys, Reflection Groups and Coxeter Groups, 2.4-2.7) reads
    the family off the shape: the arm lengths at the one branch vertex, or
    the place of the one label other than 3 on a path.
    """
    n = len(nbrs)
    if sum(map(len, nbrs.values())) != 2 * n - 2:
        return None
    special = [(u, w, m) for u in nbrs for w, m in nbrs[u].items() if m != 3]
    if any(m == INF for _, _, m in special):
        return None
    if n <= 2:
        if not special:
            return ("A", n, None)
        m = special[0][2]
        return ("B", 2, None) if m == 4 else ("I2", 2, int(m))
    branch = [u for u in nbrs if len(nbrs[u]) > 2]
    if branch:
        if special or len(branch) > 1 or len(nbrs[branch[0]]) > 3:
            return None
        a, b, c = sorted(len(_arm(nbrs, u)) - 1 for u in nbrs if len(nbrs[u]) == 1)
        if a == b == 1:
            return ("D", n, None)
        if (a, b) == (1, 2) and c <= 4:
            return (f"E{n}", n, None)
        return None
    if not special:
        return ("A", n, None)
    if len(special) > 2:  # each edge appears from both of its ends
        return None
    u, w, m = special[0]
    at_end = len(nbrs[u]) == 1 or len(nbrs[w]) == 1
    if m == 4 and at_end:
        return ("B", n, None)
    if m == 4 and n == 4:
        return ("F4", 4, None)
    if m == 5 and at_end and n <= 4:
        return (f"H{n}", n, None)
    return None


def _reference_order(nbrs, family: str) -> list[str]:
    """The vertices of a finite-type tree listed by their position in
    _build_family's reference diagram of ``family``.

    A path is read from its end whose edge label is not 3, else (A, F4, and
    two such ends in B2 and I2(p)) from its end declared first.  D lists its
    two short leaves, then the branch vertex and the long arm outward; E its
    length-2 arm from the leaf inward, the branch vertex, the long arm
    outward and the short leaf last.  Where the tree has symmetries, ties go
    to the vertex declared first: sorting the arms by length is stable.
    """
    leaves = [u for u in nbrs if len(nbrs[u]) <= 1]
    if family == "D" or family[0] == "E":
        short, mid, long = sorted((_arm(nbrs, u) for u in leaves), key=len)
        if family == "D":
            return [short[0], mid[0], *reversed(long)]
        return [*mid[:-1], *reversed(long), short[0]]
    marked = [u for u in leaves if any(m != 3 for m in nbrs[u].values())]
    return _arm(nbrs, marked[0] if len(marked) == 1 else leaves[0])


def _component_label(nbrs, comp) -> TypeLabel | None:
    """Classify one connected component, listed in vertex order; None when it
    matches no family."""
    sub = {v: nbrs[v] for v in comp}
    found = _tree_family(sub)
    if found is None:
        return None
    position = {v: i for i, v in enumerate(_reference_order(sub, found[0]), 1)}
    return TypeLabel(*found, assignment=tuple((v, position[v]) for v in comp))


def is_finite_type(d: CoxeterDiagram):
    """(True, [TypeLabel per component]) when every component is classified.

    Rank-2 components with label 3 or 4 come back canonicalized as A2 / B2
    rather than I2(3) / I2(4).
    """
    labels = [_component_label(d._nbrs, comp) for comp in d.components()]
    return (True, labels) if all(labels) else (False, None)


def _sf_search(d: CoxeterDiagram) -> tuple[dict[int, frozenset], list[frozenset]]:
    """Sf keyed by vertex bitmask, bit i for ``d.vertices[i]``, and the
    minimal subsets outside it, each listed by size, then by vertex positions.

    Built level by level, each member extended only by vertices after its
    last, so each level comes out in lexicographic order.  A candidate is
    tried only when every proper subset is in Sf, so the candidates that fail
    are exactly the minimal non-members.  Those proper subsets are forests,
    since finite-type components are trees, so a cycle spans its candidate,
    and a candidate on k vertices is connected exactly when it has at least
    k - 1 edges, then finite type exactly when a tree of a finite family.
    """
    nbrs, verts = d._nbrs, d.vertices
    adj = [sum(1 << d._pos[u] for u in nbrs[v]) for v in verts]
    inf = [sum(1 << d._pos[u] for u, m in nbrs[v].items() if m == INF) for v in verts]
    sf = {0: ()}  # mask -> vertex positions, in listing order
    minimal = []
    level = [(0, (), 0)]  # (mask, positions, edges)
    while level:
        nxt = []
        for T, at, edges in level:
            for i in range(at[-1] + 1 if at else 0, len(verts)):
                T2, at2, k = T | 1 << i, at + (i,), len(at) + 1
                if any(T2 ^ 1 << j not in sf for j in at):
                    continue
                e2 = edges + (adj[i] & T).bit_count()
                if e2 < k - 1 or k == 1:  # disconnected, or one vertex
                    finite = True
                elif k == 2:  # a connected pair
                    finite = not inf[i] & T
                else:  # connected, so finite type only as a tree of a finite family
                    finite = e2 == k - 1 and _tree_family(
                        _induced(nbrs, {verts[j] for j in at2})) is not None
                if finite:
                    sf[T2] = at2
                    nxt.append((T2, at2, e2))
                else:
                    minimal.append(frozenset(verts[j] for j in at2))
        level = nxt
    return {T: frozenset(map(verts.__getitem__, at)) for T, at in sf.items()}, minimal


def _sf_masks(d: CoxeterDiagram, rank_guard: int = DEFAULT_RANK_GUARD) -> dict[int, frozenset]:
    """Sf keyed by vertex bitmask, by size, then by vertex positions."""
    if d.rank > rank_guard:
        raise RankGuardError("finite_type_subsets", d.rank, rank_guard)
    return _sf_search(d)[0]


def finite_type_subsets(
    d: CoxeterDiagram, rank_guard: int = DEFAULT_RANK_GUARD
) -> set[frozenset]:
    """All T subseteq S whose induced subdiagram is finite type.

    Always contains the empty set and every singleton.
    """
    return set(_sf_masks(d, rank_guard).values())


def _sf_sorted(d: CoxeterDiagram) -> list[frozenset]:
    return list(_sf_masks(d).values())


@dataclass(frozen=True)
class QuotientCells:
    """Cell counts of the quotient Salvetti complex: one k-cell per T in Sf
    with |T| = k, up to the dimension actually attained."""

    f_vector: tuple[int, ...]

    @property
    def euler_characteristic(self) -> int:
        return sum((-1) ** k * c for k, c in enumerate(self.f_vector))

    def to_json_obj(self) -> dict:
        return {**asdict(self), "euler": self.euler_characteristic}


def salvetti_quotient_cells(d: CoxeterDiagram) -> QuotientCells:
    sizes = collections.Counter(map(len, finite_type_subsets(d)))
    return QuotientCells(tuple(sizes[k] for k in range(max(sizes) + 1)))


def _abelian_group(rank: int, torsion) -> str:
    """Z^rank + Z/t + ... for a finitely generated abelian group, 0 if trivial."""
    parts = []
    if rank == 1:
        parts.append("Z")
    elif rank > 1:
        parts.append(f"Z^{rank}")
    parts.extend(f"Z/{t}" for t in torsion)
    return " + ".join(parts) if parts else "0"


@dataclass(frozen=True)
class Abelianization:
    """H_1 of the group presentation: free rank plus invariant factors."""

    rank: int
    torsion: tuple[int, ...]

    def pretty(self) -> str:
        return _abelian_group(self.rank, self.torsion)

    def to_json_obj(self) -> dict:
        return {**asdict(self), "pretty": self.pretty()}


def abelianization(d: CoxeterDiagram) -> Abelianization:
    """H_1 of the Artin group, free on the components of the graph of odd
    finite labels.

    A relation of odd length m identifies its two generators; even or
    infinite labels abelianize to nothing.  The relation matrix is the
    oriented incidence matrix of that graph, which is totally unimodular, so
    every invariant factor is 1 and there is no torsion.
    """
    odd = {v: [u for u, m in nbrs.items() if m != INF and m % 2] for v, nbrs in d._nbrs.items()}
    return Abelianization(rank=len(_components(odd)), torsion=())


def classify_taxonomy(
    d: CoxeterDiagram, rank_guard: int = DEFAULT_RANK_GUARD
) -> TaxonomyReport:
    """Read every taxonomy flag off Sf and its minimal non-members.

    A minimal non-member is a pair with an infinite label or an
    infinity-free set of at least three vertices, so the diagram is FC (Sf
    is a flag complex) exactly when every minimal non-member is a pair.
    """
    if d.rank > rank_guard:
        raise RankGuardError("classify_taxonomy", d.rank, rank_guard)
    nbrs = d._nbrs
    components = tuple(_component_label(nbrs, comp) for comp in d.components())
    sf, minimal = _sf_search(d)
    free_inf = all(m != INF for _, _, m in d.edges)
    return TaxonomyReport(
        finite_type=all(components),
        fc_type=all(len(T) == 2 for T in minimal),
        two_dimensional=max(map(len, sf.values())) <= 2,
        large_type=2 * len(d.edges) == d.rank * (d.rank - 1),
        # A component of a member of Sf is a member, so the connected members
        # with |T| >= 3 are the components with more than two vertices; a
        # disconnected member is no tree.
        locally_reducible=all(
            _tree_family(_induced(nbrs, T)) in (None, ("A", 3, None))
            for T in sf.values()
            if len(T) >= 3
        ),
        free_of_infinity=free_inf,
        # S is the only minimal non-member: S is not spherical, every proper
        # subset is
        almost_spherical=free_inf and minimal == [frozenset(d.vertices)],
        components=components,
    )
