"""Posets and complexes attached to a diagram, with exact integer homology.

Three posets are built: the Salvetti poset W x Sf with its T-minimality
order, the Davis poset of cosets w W_T under inclusion, and the
fundamental-domain poset Sf under subset order.  Each is built from the
lower sets of its elements, so the work grows with the relations, not with
the square of the size, and on integer keys: a cell (w, T) by the engine id
of w, a member of Sf by its vertex bitmask, whose lower set is its proper
submasks.  The Davis cells w W_T are the Salvetti cells
(w, T) with w T-minimal, under the Salvetti order, so one builder lists
both posets, already in order, without a sort.  A poset keeps one cover
table, built when it is checked, and its covers, its maximal chains (walked
on the table in lexicographic order), its dot output and its order complex
all read that table.  An order complex is a view of its poset, whose
maximal chains are its facets, listed only when they are read.

Homology is computed over Z on one sparse chain complex, which has two
producers.  The simplicial one lists the faces of a complex.  The cellular
one reads the cells (w, T) of a finite Salvetti poset, the face poset of
Salvetti's complex, whose barycentric subdivision is the poset's order
complex, so both give the same homology; its boundary is Salvetti's formula.
`homology(order_complex(p))` runs a finite Salvetti poset on its cells and
reads any other poset's facet count, cone point and f-vector off its
chains before it lists one.  Otherwise coreduction pairs off cells without
changing the homology, and a sparse Smith normal form with
arbitrary-precision integers runs on the critical cells left, so every
Betti number and torsion coefficient is exact.  The invariants that read Sf
alone live in `diagram`; this module imports them back.
"""

from __future__ import annotations

import collections
import itertools
import math
from dataclasses import asdict, dataclass

from . import coxeter
from .coxeter import DEFAULT_CAP
from .diagram import (Abelianization, CoxeterDiagram, QuotientCells, _abelian_group,
                      _sf_masks, _sf_sorted, abelianization, salvetti_quotient_cells)
from .errors import CapExceededError, FiniteTypeRequiredError

DEFAULT_POSET_GUARD = 3000
DEFAULT_FACE_GUARD = 200_000


@dataclass(frozen=True)
class Poset:
    """Finite poset: opaque element labels plus the strict order as index pairs
    (i, j) meaning elements[i] < elements[j], checked once into a cover table."""

    elements: tuple
    labels: tuple[str, ...]
    less: frozenset
    metadata: tuple = ()
    _finite_salvetti = False  # set on salvetti_poset(d, "all"): homology runs on its cells

    def __post_init__(self):
        above: dict[int, set[int]] = {i: set() for i in range(len(self.elements))}
        for i, j in self.less:
            if i not in above or j not in above:
                raise ValueError(f"order relation pair {(i, j)} is not two element indices")
            above[i].add(j)
        up = []
        for i, ups in above.items():
            beyond = set()  # what lies above something above i
            for k in ups:
                beyond |= above[k]
            if i in beyond:  # i < k <= i for some k
                raise ValueError("order relation is not antisymmetric")
            if not beyond <= ups:
                raise ValueError("order relation is not transitive")
            up.append(sorted(ups - beyond))
        object.__setattr__(self, "_up", up)

    def __len__(self):
        return len(self.elements)

    def covers(self) -> list[tuple[int, int]]:
        """Hasse diagram edges: i < j with nothing strictly between, sorted."""
        return [(i, j) for i, ups in enumerate(self._up) for j in ups]

    def maximal_chains(self) -> list[tuple[int, ...]]:
        """All inclusion-maximal chains, as index tuples bottom to top, in
        lexicographic order: the cover paths from a minimal to a maximal element."""
        has_lower = {j for ups in self._up for j in ups}
        stack = [(i,) for i in reversed(range(len(self))) if i not in has_lower]
        chains = []
        while stack:
            path = stack.pop()
            if ups := self._up[path[-1]]:
                stack.extend(path + (j,) for j in reversed(ups))
            else:
                chains.append(path)
        return chains

    def _count_maximal_chains(self) -> int:
        """len(self.maximal_chains()) without listing a chain: paths[i] is
        the number of cover paths from i up to a maximal element."""
        paths = [0] * len(self)
        stack = list(range(len(self)))
        while stack:
            if todo := [j for j in self._up[stack[-1]] if not paths[j]]:
                stack += todo
            else:
                i = stack.pop()
                paths[i] = sum(paths[j] for j in self._up[i]) or 1
        has_lower = {j for ups in self._up for j in ups}
        return sum(n for i, n in enumerate(paths) if i not in has_lower)

    def _chain_counts(self) -> tuple[int, ...]:
        """The f-vector of the order complex without listing a face: entry k
        counts the chains of k + 1 elements.  N_k(y), those with top y, is
        sum N_{k-1}(x) over x < y, and N_0(y) = 1.  Each N(y) is packed into
        one integer, digit k in base 2^b, where 2^b exceeds the number of
        all chains, which a first pass counts as 1 + sum N(x)."""
        below = [[] for _ in self.elements]
        for x, y in self.less:
            below[y].append(x)
        order = sorted(range(len(below)), key=lambda y: len(below[y]))  # x < y: fewer below x
        chains = [0] * len(below)
        for y in order:
            chains[y] = 1 + sum(chains[x] for x in below[y])
        b = sum(chains).bit_length()
        for y in order:
            chains[y] = 1 + (sum(chains[x] for x in below[y]) << b)
        packed, mask, counts = sum(chains), (1 << b) - 1, []
        while packed:
            counts.append(packed & mask)
            packed >>= b
        return tuple(counts)

    def _has_cone_point(self) -> bool:
        """Whether an element is comparable with all others (`less` is transitive)."""
        comparable = collections.Counter(itertools.chain.from_iterable(self.less))
        return len(self) == 1 or len(self) - 1 in comparable.values()

    def to_json_obj(self) -> dict:
        return {
            "elements": list(self.labels),
            "less": sorted([i, j] for i, j in self.less),
            "metadata": dict(self.metadata),
        }

    def to_dot(self, name: str = "poset") -> str:
        lines = [f"digraph {name} {{", "  rankdir=BT;"]
        for i, lab in enumerate(self.labels):
            lines.append(f'  n{i} [label="{lab}"];')
        for i, j in self.covers():
            lines.append(f"  n{i} -> n{j};")
        lines.append("}")
        return "\n".join(lines)


def _poset(keys, element, label, below, metadata=()) -> Poset:
    """The poset on the elements `element(k)` of the hashable `keys`, each
    named by `label`, in which x < y for every key x that `below(y)` yields;
    `below(y)` lists the keys of the elements strictly under y's.  Keys are
    drawn from their iterable only one past the guard."""
    keys = tuple(itertools.islice(keys, DEFAULT_POSET_GUARD + 1))
    if len(keys) > DEFAULT_POSET_GUARD:
        raise CapExceededError("poset size", DEFAULT_POSET_GUARD)
    index = {x: i for i, x in enumerate(keys)}
    less = frozenset((index[x], j) for j, y in enumerate(keys) for x in below(y))
    elements = tuple(map(element, keys))
    return Poset(elements, tuple(map(label, elements)), less, tuple(metadata))


@dataclass(frozen=True)
class SimplicialComplex:
    """Abstract simplicial complex given by its facets (maximal faces)."""

    vertices: tuple
    facets: tuple[frozenset, ...]
    _poset = None  # the poset of an order complex

    def __getattr__(self, name):  # reached while an order complex's facets are unread
        if name != "facets" or self._poset is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        facets = self._from_facets(map(frozenset, self._poset.maximal_chains())).facets
        object.__setattr__(self, "facets", facets)
        return facets

    @staticmethod
    def from_faces(faces) -> "SimplicialComplex":
        faces = {frozenset(f) for f in faces if f}
        containing: dict = {}
        for f in faces:
            for v in f:
                containing.setdefault(v, []).append(f)
        # A face strictly containing f contains f's rarest vertex.
        facets = [
            f for f in faces
            if not any(f < g for g in min((containing[v] for v in f), key=len))
        ]
        return SimplicialComplex._from_facets(facets)

    @staticmethod
    def _from_facets(facets) -> "SimplicialComplex":
        """The complex of pairwise incomparable nonempty frozensets, facets
        sorted by size, then by their vertices' ranks in repr order."""
        facets = list(facets)
        verts = sorted({v for f in facets for v in f}, key=repr)
        rank = {v: i for i, v in enumerate(verts)}
        facets.sort(key=lambda f: (len(f), sorted(map(rank.__getitem__, f))))
        return SimplicialComplex(tuple(verts), tuple(facets))

    @property
    def dimension(self) -> int:
        if self._poset is not None:
            return len(self._poset._chain_counts()) - 1
        return max((len(f) - 1 for f in self.facets), default=-1)

    def _faces(self) -> set[tuple[int, ...]]:
        """Every face as the ascending tuple of its vertices' positions."""
        index = {v: i for i, v in enumerate(self.vertices)}
        seen = set()
        for f in self.facets:
            fs = tuple(sorted(map(index.__getitem__, f)))
            for r in range(1, len(fs) + 1):
                seen.update(itertools.combinations(fs, r))
        return seen

    def faces_by_dim(self) -> list[list[tuple]]:
        """All faces, dimension by dimension, each as a sorted vertex tuple."""
        out = [[] for _ in range(self.dimension + 1)]
        for face in sorted(self._faces()):
            out[len(face) - 1].append(face)
        if (verts := self.vertices) != tuple(range(len(verts))):  # else positions are vertices
            out = [[tuple(map(verts.__getitem__, f)) for f in fs] for fs in out]
        return out

    def f_vector(self) -> tuple[int, ...]:
        """The number of faces of each dimension, counted without sorting
        them; an order complex counts its poset's chains and lists none."""
        if self._poset is not None:
            return self._poset._chain_counts()
        counts = collections.Counter(map(len, self._faces()))
        return tuple(counts[k] for k in range(1, self.dimension + 2))

    def euler_characteristic(self) -> int:
        return sum((-1) ** k * c for k, c in enumerate(self.f_vector()))

    def to_json_obj(self) -> dict:
        index = {v: i for i, v in enumerate(self.vertices)}
        facets = [sorted(f, key=index.__getitem__) for f in self.facets]
        return {
            "vertices": [repr(v) if not isinstance(v, str) else v for v in self.vertices],
            "facets": [[repr(v) if not isinstance(v, str) else v for v in f] for f in facets],
            "f_vector": list(self.f_vector()),
        }


def order_complex(p: Poset) -> SimplicialComplex:
    """Simplices are the chains of p; facets are its maximal chains, which
    are pairwise incomparable, so no facet filter is needed.  The complex
    keeps p outside its fields and lists its facets when they are first
    read; every element lies in one, so the vertices are p's indices."""
    c = object.__new__(SimplicialComplex)
    object.__setattr__(c, "vertices", tuple(sorted(range(len(p)), key=repr)))
    object.__setattr__(c, "_poset", p)
    return c


def _snf_diagonal(rows: dict[int, dict[int, int]]) -> list[int]:
    """Diagonalize an integer matrix (destructively) and return the nonzero
    diagonal entries, not yet arranged into a divisibility chain.

    rows maps row index -> {column index: nonzero value}.  Rows are taken in
    index order, and each pivots on its entry of least absolute value, ties
    going to the column with the fewest entries.  Euclidean steps isolate
    the pivot: row operations clear its column, then the pivot's row is
    reduced modulo it; a nonzero remainder in either becomes the pivot.
    """
    cols: dict[int, set[int]] = {}
    for r, rd in rows.items():
        for c in rd:
            cols.setdefault(c, set()).add(r)

    def row_axpy(dst: int, src: int, q: int):
        # row[dst] += q * row[src]
        rd = rows[dst]
        for c, v in rows[src].items():
            new = rd.get(c, 0) + q * v
            if new:
                rd[c] = new
                cols[c].add(dst)
            else:
                del rd[c]
                cols[c].discard(dst)

    diagonal = []
    for start in sorted(rows):
        while rows[start]:
            r, rd = start, rows[start]
            c = min(rd, key=lambda c: (abs(rd[c]), len(cols[c])))
            while True:
                rd = rows[r]
                v = rd[c]
                for r2 in sorted(cols[c] - {r}):
                    q = rows[r2][c] // v
                    if q:
                        row_axpy(r2, r, -q)
                    if c in rows[r2]:
                        r = r2  # its remainder, of smaller |value|, becomes the pivot
                        break
                else:
                    # Column c now holds row r alone, so a column operation
                    # changes row r only: it leaves a remainder modulo v.
                    for c2 in sorted(set(rd) - {c}):
                        rem = rd[c2] % v
                        if rem:
                            rd[c2] = rem
                            c = c2
                            break
                        del rd[c2]
                        cols[c2].discard(r)
                    else:
                        break
            diagonal.append(abs(rd.pop(c)))
            cols[c].discard(r)
    return diagonal


def invariant_factors(rows: dict[int, dict[int, int]]) -> list[int]:
    """Invariant factors d1 | d2 | ... of an integer matrix (sparse rows)."""
    diag = _snf_diagonal(rows)
    units = diag.count(1)
    diag = [x for x in diag if x != 1]
    # (d_i, d_j) := (gcd, lcm) for i < j; after step i, d_i divides all later d_j
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            g = math.gcd(diag[i], diag[j])
            diag[i], diag[j] = g, diag[i] * diag[j] // g
    return [1] * units + diag


@dataclass(frozen=True)
class HomologyResult:
    """Unreduced integer homology: per dimension a Betti number and the
    torsion coefficients (each > 1, each dividing the next)."""

    betti: tuple[int, ...]
    torsion: tuple[tuple[int, ...], ...]

    def group(self, k: int) -> str:
        if k >= len(self.betti):
            return "0"
        return _abelian_group(self.betti[k], self.torsion[k])

    def pretty(self) -> str:
        return ", ".join(f"H_{k} = {self.group(k)}" for k in range(len(self.betti)))

    def to_json_obj(self) -> dict:
        return {**asdict(self), "pretty": self.pretty()}


def homology(c: SimplicialComplex, face_guard: int = DEFAULT_FACE_GUARD) -> HomologyResult:
    """Integer simplicial homology by discrete Morse reduction.  A finite
    Salvetti order complex runs on its poset's cells, which it subdivides,
    with Salvetti's boundary, under the poset guard alone.  Otherwise more
    facets than `face_guard` stop it, a cone (a vertex in every facet) is
    contractible, and the faces are counted before they are listed; an order
    complex reads all three off its poset's chains.  Then `_chain_homology`
    reduces the chain complex."""
    if (p := c._poset) is not None and p._finite_salvetti:
        return _chain_homology(*_salvetti_chains(p))
    if (len(c.facets) if p is None else p._count_maximal_chains()) > face_guard:
        raise CapExceededError("homology face count", face_guard)
    if not (c.facets if p is None else len(p)):
        return HomologyResult((), ())
    if frozenset.intersection(*c.facets) if p is None else p._has_cone_point():
        return HomologyResult((1,) + (0,) * (k := c.dimension), ((),) * (k + 1))
    if p is not None and sum(p._chain_counts()) > face_guard:
        raise CapExceededError("homology face count", face_guard)
    index = {v: i for i, v in enumerate(c.vertices)}
    faces = SimplicialComplex(
        tuple(range(len(index))), tuple(frozenset(map(index.__getitem__, f)) for f in c.facets)
    ).faces_by_dim()
    if sum(len(fs) for fs in faces) > face_guard:
        raise CapExceededError("homology face count", face_guard)
    offset = list(itertools.accumulate((len(fs) for fs in faces), initial=0))
    position = {f: offset[len(f) - 1] + i for fs in faces for i, f in enumerate(fs)}
    # combinations drop the last vertex first, so the i-th face drops vertex i
    boundary = [[] for _ in faces[0]] + [
        list(map(position.__getitem__, itertools.combinations(f, len(f) - 1)))[::-1]
        for fs in faces[1:] for f in fs]
    signs = tuple((-1) ** i for i in range(len(faces)))  # its sign is (-1)^i
    coefficients = []
    for k, fs in enumerate(faces):
        coefficients += [signs[: k + 1] if k else ()] * len(fs)
    return _chain_homology(boundary, coefficients, offset)


def _salvetti_chains(p: Poset) -> tuple[list[list[int]], list[tuple[int, ...]], list[int]]:
    """The cellular chain complex of a finite Salvetti poset p, in
    `_chain_homology`'s form: the cells (w, T) in p's order, which is by
    dimension |T|, with Salvetti's boundary (Math. Res. Lett. 1, 1994)

        d(w, T) = sum over s in T of (-1)^#{t in T : t < s}
                  sum over b in W_T^(T-s) of (-1)^l(b) (w b, T - s),

    t < s in vertex order and W_T^(T-s) the b in W_T with no right descent
    in T - s.  Dropping (-1)^l(b) would only reorient each (w, T) by
    (-1)^l(w), but summed over w these signs are the quotient's
    coefficients.  The w b are read off a walk of w W_T along the walk of
    W_T, and on p's engine every step is a Cayley edge that p's walk of W
    set."""
    eng = coxeter._engine(p.elements[0][0].diagram)
    ids = {u: eng.walk(0, u.word) for u, T in p.elements if not T}  # all of W
    position = {(ids[u], T): a for a, (u, T) in enumerate(p.elements)}
    steps, faces = {}, {}  # per T: the W_T walk's steps; (b, T - s, sign) per face
    for T in dict.fromkeys(T for _, T in p.elements):
        letters = [eng.key[t] for t in eng.names if t in T]
        walk, steps[T], down = coxeter._walk(eng, letters, math.inf, math.inf)
        faces[T] = [(j, T - {eng.names[s]}, (-1) ** (i + len(eng.nf[walk[j]])))
                    for i, s in enumerate(letters) for j, descents in enumerate(down)
                    if all(t == s for t, _ in descents)]
    boundary = []
    for u, T in p.elements:
        at = [ids[u]]
        for parent, s in steps[T][1:]:
            at.append(eng.times(at[parent], s))
        boundary.append([position[at[j], R] for j, R, _ in faces[T]])
    signs = {T: tuple(x for *_, x in fs) for T, fs in faces.items()}
    counts = collections.Counter(len(T) for _, T in p.elements)
    offset = list(itertools.accumulate((counts[k] for k in range(len(counts))), initial=0))
    return boundary, [signs[T] for _, T in p.elements], offset


def _chain_homology(boundary: list[list[int]], coefficients: list, offset: list[int]
                    ) -> HomologyResult:
    """Homology of a sparse chain complex over Z.  Cells are numbered
    dimension by dimension, the k-cells from offset[k] to offset[k + 1];
    boundary[a] lists the faces of cell a, each once, and coefficients[a]
    their coefficients, in the same order.

    Coreduction (Mrozek-Batko, Discrete Comput. Geom. 41, 2009) builds the
    complex up by pairs that keep its homology, a cell with its one unbuilt
    face across a unit coefficient, and when it stalls the lowest unbuilt
    cell becomes critical.  Critical boundaries flow through the pairs,
    latest first, to the Morse complex (Harker-Mischaikow-Mrozek-Nanda,
    Found. Comput. Math. 14, 2014); Smith normal form runs there."""
    n = offset[-1]
    coboundary: list[list[int]] = [[] for _ in range(n)]
    for a, bd in enumerate(boundary):
        for b in bd:
            coboundary[b].append(a)

    partner = [None] * n  # the other cell of its pair, itself if critical
    left = list(map(len, boundary))  # faces not yet built; 0 once built
    order, queue, low = [], collections.deque(), 0  # queue: cells with one face left
    while low < n:
        if queue:
            if left[a := queue.popleft()] != 1:
                continue
            bd = boundary[a]
            b = next(b for b in bd if partner[b] is None)
            if coefficients[a][bd.index(b)] not in (1, -1):  # the flow divides by [a:b]
                continue
            partner[a], partner[b] = b, a
        elif partner[low] is not None:
            low += 1
            continue
        else:  # every cell below low is built, so are its faces
            a = b = partner[low] = low
        for x in (b, a) if a != b else (a,):
            order.append(x)
            for y in coboundary[x]:
                left[y] -= 1
                if left[y] == 1:
                    queue.append(y)

    # Undoing the pair (b, p) sends p to 0 and b to b - [p:b] dp, whose
    # other cells were built before b.  rows[b][a]: b's coefficient in a's chain.
    critical = [a for a in order if partner[a] == a]
    rows = collections.defaultdict(dict)
    for a in critical:
        for b, x in zip(boundary[a], coefficients[a]):
            rows[b][a] = x
    for b in reversed(order):
        if partner[b] > b and (row := rows.get(b)):  # b is its pair's lower cell
            bd, xs = boundary[partner[b]], coefficients[partner[b]]
            xb = xs[bd.index(b)]
            for y, x in zip(bd, xs):
                if y != b:
                    s, target = -x * xb, rows[y]
                    for a, z in row.items():
                        if v := target.get(a, 0) + s * z:
                            target[a] = v
                        else:
                            del target[a]
    # factors[k]: invariant factors of the Morse boundary_(k+1)
    factors = [invariant_factors({b: rows[b] for b in critical
                                  if offset[k] <= b < offset[k + 1] and rows.get(b)})
               for k in range(len(offset) - 2)]
    ranks = [0, *map(len, factors), 0]
    betti = tuple(sum(offset[k] <= a < offset[k + 1] for a in critical) - ranks[k] - ranks[k + 1]
                  for k in range(len(offset) - 1))
    return HomologyResult(betti, tuple(tuple(t for t in f if t > 1) for f in factors) + ((),))


def _set_label(d: CoxeterDiagram, T) -> str:
    return "{" + ",".join(sorted(T, key=d._pos.__getitem__)) + "}"


def _w_elements(d: CoxeterDiagram, ball, cap: int):
    """`coxeter._ball` for the cell posets, whose size guard it is."""
    if ball == "all" and not coxeter._engine(d).finite:
        raise FiniteTypeRequiredError(
            "ball='all' needs a finite-type diagram; pass an integer ball"
        )
    try:
        return coxeter._ball(d, ball, cap, size_guard=DEFAULT_POSET_GUARD)
    except CapExceededError as exc:
        if exc.what != "element enumeration":
            raise
        # every element u of the ball gives the cell (u, {}), so the poset is over its guard too
        raise CapExceededError("poset size", DEFAULT_POSET_GUARD) from None


def _subsets(A: frozenset) -> list[frozenset]:
    """Every subset of A, by size, so A itself comes last."""
    return [frozenset(c) for k in range(len(A) + 1) for c in itertools.combinations(A, k)]


def _cell_poset(d: CoxeterDiagram, ball, cap: int, minimal: bool):
    """The cells (u, T) of W x Sf, u in the ball, T by T in `_sf_sorted` order
    and u in ShortLex order, under the Salvetti order; if `minimal`, only
    those with u T-minimal, named as Davis cosets.  For v R-minimal and x in
    W_R, the right descents of v x in R are those of x, so walks meet no others."""
    kind, label = ("davis", "{}W{}") if minimal else ("salvetti", "({},{})")
    elements_w, ball_ids, down = _w_elements(d, ball, cap)
    sf = _sf_sorted(d)
    eng = coxeter._engine(d)
    eng.begin(cap, f"{kind}_poset")
    in_ball = dict(zip(ball_ids, elements_w))
    # v and v x in a ball of radius r need l(x) <= r + l(v) <= 2r, and
    # l(x) <= r - l(v) if v is R-minimal, for then l(v x) = l(v) + l(x).
    radius = math.inf if ball == "all" else ball
    walks = {}  # R -> W_R walk, built in `below`, so only past the poset guard
    subsets: dict[frozenset, list[frozenset]] = {}

    cells = ((e, T) for T in sf for e, descents in zip(ball_ids, down)
             if not (minimal and any(eng.names[t] in T for t, _ in descents)))

    def below(y):
        v, R = y
        reach = radius - len(eng.nf[v]) if minimal else radius + len(eng.nf[v])
        if R not in walks:
            letters = [eng.key[t] for t in eng.names if t in R]
            walk = coxeter._walk(eng, letters, radius if minimal else 2 * radius, math.inf)
            # per x in W_R: its length, its parent step, and R minus its right descents
            walks[R] = [(len(eng.nf[x]), step, R.difference(eng.names[t] for t, _ in descents))
                        for x, step, descents in zip(*walk)]
        at = []
        for length, (parent, s), free in walks[R]:
            if length > reach:
                break
            e = v if parent < 0 else eng.times(at[parent], s)
            at.append(e)
            if e in in_ball:
                if free not in subsets:
                    subsets[free] = _subsets(free)
                for T in subsets[free]:
                    if parent >= 0 or T != R:
                        yield e, T

    meta = (("complex", kind), ("ball", ball))
    p = _poset(cells, lambda c: (in_ball[c[0]], c[1]),
               lambda c: label.format("".join(c[0].word) or "e", _set_label(d, c[1])), below, meta)
    if ball == "all" and not minimal:  # the cells of Salvetti's complex, whole
        object.__setattr__(p, "_finite_salvetti", True)
    return p


def salvetti_poset(d: CoxeterDiagram, ball="all", cap: int = DEFAULT_CAP) -> Poset:
    """Elements (u, T) in W x Sf with (u,T) <= (v,R) iff T is a subset of R,
    v^-1 u lies in W_R, and v^-1 u is T-minimal.

    Every reduced word of an element of W_R uses letters of R only, so the
    elements under (v, R) are the (v x, T) for x in W_R and T a subset of R
    that avoids the right descents of x.
    """
    return _cell_poset(d, ball, cap, minimal=False)


def davis_poset(d: CoxeterDiagram, ball="all", cap: int = DEFAULT_CAP) -> Poset:
    """Cosets w W_T for T in Sf, named by T-minimal representatives and
    ordered by coset inclusion: w W_T lies in v W_R exactly when T is a
    subset of R and v is the R-minimal representative of w."""
    return _cell_poset(d, ball, cap, minimal=True)


def deligne_fundamental_domain(d: CoxeterDiagram) -> tuple[Poset, SimplicialComplex]:
    """The fundamental-domain poset {A_T : T in Sf} under inclusion (a copy
    of Sf ordered by subset), with its order complex."""
    def below(R):  # Sf is closed under subsets, so each proper submask of R is in it
        sub = R
        while sub:
            yield (sub := (sub - 1) & R)

    sf = _sf_masks(d)
    p = _poset(sf, sf.__getitem__, lambda T: f"A{_set_label(d, T)}", below,
               (("complex", "deligne-fd"),))
    return p, order_complex(p)
