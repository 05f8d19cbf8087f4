"""Coxeter group word problem from the exact action of W on its roots.

W acts on the real space with basis {alpha_s : s in S} by
s(v) = v - 2 B(alpha_s, v) alpha_s, where B(alpha_s, alpha_t) = -cos(pi/m_st),
and -1 when m_st is infinite.  This geometric representation is faithful, so
an element w is determined by its signature (w^-1(alpha_t))_t, and every
root is positive or negative: its nonzero coordinates share one sign.  A
generator s is a left descent of w exactly when w^-1(alpha_s) < 0
(Bjorner-Brenti, Combinatorics of Coxeter Groups, ch. 4).

Exact ring.  Every coefficient 2cos(pi/m) lies in Z[zeta], zeta a primitive
2M-th root of unity, where M is the lcm of the diagram's finite labels >= 4;
when every label is 2, 3 or infinity the ring is plain Z.  Z[zeta] is the
tensor product of the cyclotomic rings of the prime powers dividing 2M, and
a coefficient is the sparse tuple of its nonzero coordinates in the product
of their power bases.  That representation is canonical, so the zero test
is exact and roots are interned by their coordinates, and it stays as short
as the coefficient is, however large the degree of the ring.

Sign rule.  s(r) has the sign of r unless r = +-alpha_s, so applying a
generator needs no numerics.  Only left multiplication by s forms a root of
unknown sign, w^-1(alpha_t) + 2cos(pi/m_st) w^-1(alpha_s).  When the two
summands have one sign, or one of them vanishes at a coordinate where the
sum does not, the sign is known.  Otherwise one nonzero coordinate is
evaluated in floating point under a rounding bound and, where the bound does
not decide, in decimal arithmetic at rising precision until it does.

Normal forms.  The normal form of an element is its ShortLex-minimal reduced
word, ShortLex taken in the diagram's declared vertex order, which is
therefore part of the normal-form contract.  It is read off by taking the
smallest left descent first (Casselman, Electron. J. Combin. 9, 2002).  One
engine per diagram interns roots and elements as small integers and fills
the action tables and Cayley-graph edges lazily, so a repeated normalize is
one table step per letter plus a memo lookup.  One breadth-first walk lists
W, its balls and its parabolic subgroups W_R in ShortLex order, for the
enumeration, the reflections, the chamber system and the cell posets: each
normal form is its parent's plus one letter, and t is a right descent of w
exactly when the walk lists w t first.  The ``cap`` argument of every
function here bounds the new roots one call may create, counted in nonzero
integer coefficients: a root over Z costs its number of nonzero
coordinates, and a root over Z[zeta] the number of basis terms of all its
coordinates.  The Artin monoid and group build their normal forms on the
same engine, which also owns their state (module ``monoid``).  Engines are
kept for the 64 most recently used diagrams.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

from .diagram import INF, CoxeterDiagram, is_finite_type
from .errors import (
    DEFAULT_CAP,
    CapExceededError,
    DiagramError,
    FiniteTypeRequiredError,
    RankGuardError,
)

DEFAULT_SIZE_GUARD = 10**6


def _check_letters(key: dict[str, int], word) -> tuple:
    """The word as a tuple; DiagramError on a letter that is not in `key`."""
    w = tuple(word)
    for x in w:
        if x not in key:
            raise DiagramError(f"unknown generator {x!r}")
    return w


# ---------------------------------------------------------------- exact ring


def _decimal_pi():
    """pi at the current decimal precision, by Machin's formula."""
    from decimal import Decimal

    def atan_inv(k: int) -> Decimal:
        x = Decimal(1) / k
        power, total, i, last = x, x, 1, None
        while total != last:
            last = total
            power /= -k * k
            i += 2
            total += power / i
        return total

    return 4 * (4 * atan_inv(5) - atan_inv(239))


def _decimal_cos(x):
    from decimal import Decimal

    total, term, k, last = Decimal(1), Decimal(1), 0, None
    while total != last:
        last = total
        k += 2
        term = -term * x * x / (k * (k - 1))
        total += term
    return total


class _Integers:
    """Z, the coefficient ring when every label is 2, 3 or infinity.

    The ring interface used by the engine: ``combo(pairs)`` is the sum of
    a * c over (element, constant) pairs, ``size`` counts an element's
    nonzero integer coefficients, and ``sign`` is exact for a nonzero element.
    """

    zero, one, minus_one = 0, 1, -1

    @staticmethod
    def two_cos(m) -> int:
        return 2 if m == INF else 1

    @staticmethod
    def combo(pairs) -> int:
        return sum(a * c for a, c in pairs)

    @staticmethod
    def neg(a: int) -> int:
        return -a

    @staticmethod
    def size(a: int) -> int:
        return 1 if a else 0

    @staticmethod
    def sign(a: int) -> int:
        return 1 if a > 0 else -1


def _prime_powers(n: int) -> list[tuple[int, int]]:
    """(p, p^k) for each prime power p^k exactly dividing n."""
    out, p = [], 2
    while n > 1:
        if p * p > n:
            p = n
        if n % p == 0:
            q = 1
            while n % p == 0:
                n //= p
                q *= p
            out.append((p, q))
        p += 1
    return out


# math.cos is accurate to a few units in the last place and its arguments
# pi*j/M lie in [0, pi], so each product x*cos(pi*j/M) is within
# |x| * 4e-15 of its true value; fsum adds them with one final rounding.
_FLOAT_ERROR = 1e-14


class _Cyclotomic:
    """Z[zeta] for zeta = exp(i pi / M), M > 1, in a sparse canonical basis.

    2M is a product of coprime prime powers q = p^k, and Z[zeta] is the tensor
    product of the rings Z[zeta_q], zeta_q = zeta^(2M/q), each with the power
    basis 1, zeta_q, ..., zeta_q^(phi(q)-1).  A product of basis powers is
    zeta^j for one j mod 2M, so an element is the sorted tuple of its
    nonzero (j, coefficient) pairs on that basis: canonical, and only as long
    as the element needs, whatever the degree phi(2M) of the ring.  zeta^k
    is reduced factor by factor with
    zeta_q^(phi(q)+r) = -(zeta_q^r + zeta_q^(r+q/p) + ... + zeta_q^(r+(p-2)q/p)),
    and only the exponents a computation reaches are reduced and kept.
    Constants are given the same way, as (exponent, multiplicity) pairs that
    need not be reduced.
    """

    zero = ()
    one = ((0, 1),)
    minus_one = ((0, -1),)

    def __init__(self, M: int):
        self.M = M
        self.period = 2 * M
        # (q, q/p, phi(q), 2M/q, (2M/q)^-1 mod q): the exponent of zeta_q in
        # zeta^k is k * (2M/q)^-1 mod q.
        self.factors = [
            (q, q // p, q - q // p, self.period // q, pow(self.period // q, -1, q))
            for p, q in _prime_powers(self.period)
        ]
        self.reduced: dict[int, tuple] = {}
        self.cos: dict[int, float] = {}

    def two_cos(self, m) -> tuple[tuple[int, int], ...]:
        """2cos(pi/m) = zeta^(M/m) + zeta^(-M/m)."""
        if m == INF:
            return ((0, 2),)
        if m == 3:
            return ((0, 1),)
        k = self.M // int(m)
        return ((k, 1), (self.period - k, 1))

    def _reduce(self, k: int) -> tuple:
        terms = [(0, 1)]
        for q, qp, phi, step, inv in self.factors:
            a = k * inv % q
            if a < phi:
                parts = [(a * step, 1)]
            else:
                parts = [((a - phi + i * qp) * step, -1) for i in range(q // qp - 1)]
            terms = [(j + b, x * y) for j, x in terms for b, y in parts]
        red = self.reduced[k] = tuple((j % self.period, x) for j, x in terms)
        return red

    def combo(self, pairs) -> tuple:
        acc: dict[int, int] = {}
        period, reduced = self.period, self.reduced
        for a, c in pairs:
            for e, y in c:
                for j, x in a:
                    k = (j + e) % period
                    red = reduced.get(k)
                    if red is None:
                        red = self._reduce(k)
                    xy = x * y
                    for i, z in red:
                        acc[i] = acc.get(i, 0) + xy * z
        return tuple(sorted(item for item in acc.items() if item[1]))

    @staticmethod
    def neg(a: tuple) -> tuple:
        return tuple((j, -x) for j, x in a)

    @staticmethod
    def size(a: tuple) -> int:
        return len(a)

    def _angle(self, j: int) -> int:
        """j' in [0, M] with cos(pi j / M) = cos(pi j' / M)."""
        return min(j, self.period - j)

    def _float_sign(self, a: tuple) -> int | None:
        """Sign of a nonzero real element when the floating-point value
        clears its rounding bound, else None."""
        cos = self.cos
        for j, _ in a:
            if j not in cos:
                cos[j] = math.cos(math.pi * self._angle(j) / self.M)
        try:
            value = math.fsum(x * cos[j] for j, x in a)
        except OverflowError:
            return None
        if abs(value) > _FLOAT_ERROR * sum(abs(x) for _, x in a):
            return 1 if value > 0 else -1
        return None

    def sign(self, a: tuple) -> int:
        """Certified sign of a nonzero real element of the ring."""
        sgn = self._float_sign(a)
        if sgn is not None:
            return sgn
        import decimal  # rarely needed, so kept out of the import cost

        digits = 30
        while sgn is None:
            with decimal.localcontext() as ctx:
                # ten guard digits: each term's error stays below
                # |x| * 10^-(digits + 8), so the total is below `bound`
                ctx.prec = digits + 10
                pi = _decimal_pi()
                value = sum(x * _decimal_cos(pi * self._angle(j) / self.M) for j, x in a)
                bound = sum(abs(x) for _, x in a) * decimal.Decimal(10) ** -digits
                if abs(value) > bound:
                    sgn = 1 if value > 0 else -1
            digits *= 2
        return sgn


# ---------------------------------------------------------------- root engine


class _Engine:
    """Per-diagram exact root action with interned roots and elements.

    Roots are ids into ``coords`` (coordinate tuples over the ring) and
    ``positive``; ``act[s][r]`` is the id of s(r), -1 until first needed.
    Root ids 0..n-1 are the simple roots and n..2n-1 their negatives.
    Elements are ids keyed by their signature tuple of root ids; element 0
    is the identity.  ``right[e*n + s]`` and ``left[e*n + s]`` are the ids of
    e*s and s*e (-1 until first needed), and ``nf[e]`` the normal form.
    ``longest(mask)`` climbs to the longest element of a finite W_T.
    ``monoid`` is the Artin monoid state on this engine, built by ``monoid``
    on first use.
    """

    def __init__(self, d: CoxeterDiagram):
        n = d.rank
        self.diagram = d
        self.n = n
        self.names = d.vertices
        key = self.key = d._pos
        M = math.lcm(1, *(m for _, _, m in d.edges if m != INF and m >= 4))
        ring = self.ring = _Integers() if M == 1 else _Cyclotomic(M)
        # coupling[s]: (t, 2cos(pi/m_st)) for every t joined to s
        self.coupling: list[list] = [
            [(key[t], ring.two_cos(m)) for t, m in d._nbrs[s].items()] for s in d.vertices
        ]
        self.coords: list[tuple] = []
        self.root_id: dict[tuple, int] = {}
        self.positive: list[bool] = []
        self.act: list[list[int]] = [[] for _ in range(n)]
        self.budget, self.cap, self.what = math.inf, 0, ""
        for unit, positive in ((ring.one, True), (ring.neg(ring.one), False)):
            for s in range(n):
                self._root(tuple(unit if t == s else ring.zero for t in range(n)), positive)
        for s in range(n):
            self.act[s][s], self.act[s][n + s] = n + s, s
        self.blank = [-1] * n
        self.sig: list[tuple] = []
        self.elem_id: dict[tuple, int] = {}
        self.right: list[int] = []
        self.left: list[int] = []
        self.nf: list[tuple | None] = []
        self.objs: list[CoxeterElement | None] = []
        self._element(tuple(range(n)))
        self.nf[0] = ()
        self._finite: bool | None = None
        self.monoid = None

    @property
    def finite(self) -> bool:
        """Whether W is finite, classified on first use."""
        if self._finite is None:
            self._finite = is_finite_type(self.diagram)[0]
        return self._finite

    def begin(self, cap: int, what: str) -> None:
        """Start a call whose new roots may hold at most `cap` nonzero
        integer coefficients in all."""
        self.budget, self.cap, self.what = cap, cap, what

    # ------------------------------------------------------------ roots
    def _root(self, vec: tuple, positive: bool) -> int:
        r = self.root_id.get(vec)
        if r is None:
            self.budget -= sum(map(self.ring.size, vec))
            if self.budget < 0:
                raise CapExceededError(f"{self.what} root action", self.cap)
            r = len(self.coords)
            self.root_id[vec] = r
            self.coords.append(vec)
            self.positive.append(positive)
            for row in self.act:
                row.append(-1)
        return r

    def _apply(self, s: int, r: int) -> int:
        """Id of s(r): the s-coordinate becomes -r_s + sum_t 2cos(pi/m_st) r_t,
        and the sign is kept (r = +-alpha_s is filled in at construction)."""
        ring, vec = self.ring, self.coords[r]
        terms = [(vec[s], ring.minus_one)]
        terms += [(vec[t], c) for t, c in self.coupling[s] if vec[t]]
        new = ring.combo(terms)
        image = self._root(vec[:s] + (new,) + vec[s + 1 :], self.positive[r])
        self.act[s][r] = image
        self.act[s][image] = r
        return image

    def _combine(self, b: int, c, a: int) -> int:
        """Id of the root coords[b] + c * coords[a], for c = 2cos(pi/m) > 0."""
        ring, one = self.ring, self.ring.one
        va, vb = self.coords[a], self.coords[b]
        vec = tuple(ring.combo(((y, one), (x, c))) if x else y for x, y in zip(va, vb))
        pa, pb = self.positive[a], self.positive[b]
        if pa == pb:
            return self._root(vec, pa)
        # The summands have opposite signs: a coordinate where one of them
        # vanishes shows the other's sign, otherwise certify one numerically.
        for x, y, z in zip(va, vb, vec):
            if z:
                if not x:
                    return self._root(vec, pb)
                if not y:
                    return self._root(vec, pa)
        z = next(z for z in vec if z)
        return self._root(vec, ring.sign(z) > 0)

    # ------------------------------------------------------------ elements
    def _element(self, sig: tuple) -> int:
        e = self.elem_id.get(sig)
        if e is None:
            e = len(self.sig)
            self.elem_id[sig] = e
            self.sig.append(sig)
            self.right.extend(self.blank)
            self.left.extend(self.blank)
            self.nf.append(None)
            self.objs.append(None)
        return e

    def times(self, e: int, s: int) -> int:
        """e * s: (e s)^-1(alpha_t) = s(e^-1(alpha_t))."""
        f = self.right[e * self.n + s]
        if f < 0:
            act = self.act[s]
            sig = []
            for r in self.sig[e]:
                x = act[r]
                sig.append(x if x >= 0 else self._apply(s, r))
            f = self._element(tuple(sig))
            self.right[e * self.n + s] = f
            self.right[f * self.n + s] = e
        return f

    def left_times(self, s: int, e: int) -> int:
        """s * e: (s e)^-1(alpha_t) = e^-1(alpha_t) + 2cos(pi/m_st) e^-1(alpha_s)."""
        f = self.left[e * self.n + s]
        if f < 0:
            sig = self.sig[e]
            a = sig[s]
            new = list(sig)
            new[s] = self._root(tuple(map(self.ring.neg, self.coords[a])), not self.positive[a])
            for t, c in self.coupling[s]:
                new[t] = self._combine(sig[t], c, a)
            f = self._element(tuple(new))
            self.left[e * self.n + s] = f
            self.left[f * self.n + s] = e
        return f

    def walk(self, e: int, word) -> int:
        """e times the generators of a checked word, named as strings."""
        right, n, key = self.right, self.n, self.key
        for x in word:
            s = key[x]
            f = right[e * n + s]
            e = f if f >= 0 else self.times(e, s)
        return e

    def longest(self, mask: int) -> int:
        """w0 of W_T for T given as a mask (W_T must be finite): left-multiply
        the identity by the lowest non-descent in T until there is none."""
        e, positive, sig = 0, self.positive, self.sig
        gens = [s for s in range(self.n) if mask >> s & 1]
        while (up := next((s for s in gens if positive[sig[e][s]]), None)) is not None:
            e = self.left_times(up, e)
        return e

    def word(self, e: int) -> tuple[str, ...]:
        """Normal form of e: its smallest left descent, then the normal form of
        the rest; every suffix met on the way is memoized."""
        nf, positive = self.nf, self.positive
        chain = []
        while nf[e] is None:
            sig = self.sig[e]
            s = 0
            while positive[sig[s]]:
                s += 1
            chain.append((e, s))
            e = self.left_times(s, e)
        w = nf[e]
        for e, s in reversed(chain):
            w = (self.names[s],) + w
            nf[e] = w
        return w

    def element(self, e: int) -> CoxeterElement:
        el = self.objs[e]
        if el is None:
            el = self.objs[e] = CoxeterElement(self.diagram, self.word(e))
        return el


@lru_cache(maxsize=64)
def _engine(d: CoxeterDiagram) -> _Engine:
    return _Engine(d)


@dataclass(frozen=True)
class CoxeterElement:
    """A group element carried by its ShortLex-minimal reduced word.

    Build these through normalize / multiply / invert; equality and hashing
    are on the (diagram, word) pair.
    """

    diagram: CoxeterDiagram
    word: tuple[str, ...]

    @property
    def length(self) -> int:
        return len(self.word)

    def sort_key(self):
        key = self.diagram._pos
        return (len(self.word), tuple(key[x] for x in self.word))

    def __repr__(self):
        return f"CoxeterElement({''.join(self.word) or 'e'})"


def normalize(d: CoxeterDiagram, word, cap: int = DEFAULT_CAP) -> CoxeterElement:
    """Unique normal form of a word: reduced, ShortLex-minimal, idempotent."""
    eng = _engine(d)
    eng.begin(cap, "normalize")
    return eng.element(eng.walk(0, _check_letters(eng.key, word)))


def identity(d: CoxeterDiagram) -> CoxeterElement:
    return CoxeterElement(d, ())


def multiply(a: CoxeterElement, b: CoxeterElement, cap: int = DEFAULT_CAP) -> CoxeterElement:
    if a.diagram != b.diagram:
        raise DiagramError("cannot multiply elements over different diagrams")
    return normalize(a.diagram, a.word + b.word, cap)


def invert(a: CoxeterElement, cap: int = DEFAULT_CAP) -> CoxeterElement:
    """Generators are involutions, so inversion reverses the word."""
    return normalize(a.diagram, a.word[::-1], cap)


def _walk(eng: _Engine, letters, limit, size_guard) -> tuple[list, list, list, list]:
    """W_R up to length `limit` (math.inf for all of it), R the generator
    indices `letters`, in ShortLex order: per element w its engine id, its
    length, its parent step (i, s) with w = w_i s ((-1, -1) for the identity)
    and its right descents, (t, j) for each t in R with w t = w_j.  Fills `nf`.

    Scanning each layer in order and the letters in vertex order, the first
    path to reach an element is its ShortLex-least word.  w t is one letter
    longer or shorter, so t is a right descent exactly when w t is listed
    before w (Bjorner-Brenti, Combinatorics of Coxeter Groups, 3.4).  Edges
    leaving the last layer are only read: the walk set those to shorter
    neighbours when it stepped from them.
    """
    n, names, nf, right = eng.n, eng.names, eng.nf, eng.right
    ids, lengths, steps, down = [0], [0], [(-1, -1)], []
    at = {0: 0}
    for i, e in enumerate(ids):
        k, w, descents = lengths[i], nf[e], []
        for s in letters:
            f = right[e * n + s]
            if f < 0 and k < limit:
                f = eng.times(e, s)
            j = at.get(f)
            if j is not None:
                if j < i:
                    descents.append((s, j))
            elif k < limit:
                if len(ids) >= size_guard:
                    raise CapExceededError("element enumeration", size_guard)
                at[f] = len(ids)
                ids.append(f)
                lengths.append(k + 1)
                steps.append((i, s))
                if nf[f] is None:
                    nf[f] = w + (names[s],)
        down.append(descents)
    return ids, lengths, steps, down


def _ball(
    d: CoxeterDiagram, max_length, cap: int, size_guard: int = DEFAULT_SIZE_GUARD
) -> tuple[list[CoxeterElement], list[int], list[list[tuple[int, int]]]]:
    """The ball of W up to `max_length` ("all" for all of finite W): the
    elements of `_walk` in its order, their engine ids and their right
    descents, down[i] holding (t, j) for each t with w_i t = w_j shorter."""
    eng = _engine(d)
    if max_length == "all":
        if not eng.finite:
            raise FiniteTypeRequiredError(
                "enumerate_elements(max_length='all') needs a finite-type diagram"
            )
    elif isinstance(max_length, bool) or not isinstance(max_length, int):
        raise ValueError(f"max_length must be 'all' or an integer, got {max_length!r}")
    elif max_length < 0:
        raise ValueError(f"max_length must be >= 0, got {max_length}")
    eng.begin(cap, "enumerate_elements")
    limit = math.inf if max_length == "all" else max_length
    ids, _, _, down = _walk(eng, range(eng.n), limit, size_guard)
    return [eng.element(e) for e in ids], ids, down


def enumerate_elements(
    d: CoxeterDiagram,
    max_length="all",
    cap: int = DEFAULT_CAP,
    size_guard: int = DEFAULT_SIZE_GUARD,
) -> list[list[CoxeterElement]]:
    """BFS ball of the group, grouped by length (layer index = length), each
    layer in ShortLex order.

    max_length is "all", which walks the whole group and requires finite
    type, or an integer >= 0.
    """
    elements = _ball(d, max_length, cap, size_guard)[0]
    return [list(layer) for _, layer in itertools.groupby(elements, key=lambda w: w.length)]


def longest_element(d: CoxeterDiagram, cap: int = DEFAULT_CAP) -> CoxeterElement:
    """The unique maximal-length element of a finite Coxeter group, reached by
    left-multiplying by non-descents until every generator is a descent."""
    eng = _engine(d)
    if not eng.finite:
        raise FiniteTypeRequiredError("longest_element needs a finite-type diagram")
    eng.begin(cap, "longest_element")
    return eng.element(eng.longest((1 << eng.n) - 1))


def reflections(
    d: CoxeterDiagram, ball: int | None = None, cap: int = DEFAULT_CAP
) -> set[CoxeterElement]:
    """The set R of conjugates of generators.

    Finite type: closure of the generators under conjugation by generators.
    Infinite type: requires a ball bound; conjugates w s w^-1 over all w of
    length <= ball.
    """
    eng = _engine(d)
    n = eng.n
    if eng.finite:
        eng.begin(cap, "reflections")
        out = {eng.times(0, s) for s in range(n)}
        frontier = list(out)
        while frontier:
            nxt = []
            for e in frontier:
                for s in range(n):
                    conj = eng.left_times(s, eng.times(e, s))
                    if conj not in out:
                        out.add(conj)
                        nxt.append(conj)
            frontier = nxt
        return {eng.element(e) for e in out}
    if ball is None:
        raise FiniteTypeRequiredError(
            "reflections on a non-finite-type diagram needs a ball bound"
        )
    elements, ids, _ = _ball(d, ball, cap)
    eng.begin(cap, "reflections")
    out = set()
    for el, e in zip(elements, ids):
        for s in range(n):
            out.add(eng.walk(eng.times(e, s), reversed(el.word)))
    return {eng.element(e) for e in out}


def t_minimal_representative(
    d: CoxeterDiagram, w: CoxeterElement, T, cap: int = DEFAULT_CAP
) -> CoxeterElement:
    """Shortest element of the coset w W_T, by greedy right descent in T."""
    if w.diagram is not d and w.diagram != d:  # dataclass == compares every edge
        raise DiagramError("element belongs to a different diagram")
    unknown = set(T) - set(d.vertices)
    if unknown:
        raise DiagramError(f"unknown generators {sorted(unknown)}")
    eng = _engine(d)
    eng.begin(cap, "t_minimal_representative")
    keep = set(T)
    T = [eng.key[t] for t in d.vertices if t in keep]
    e = eng.walk(0, _check_letters(eng.key, w.word))
    length = len(eng.word(e))
    improved = True
    while improved:
        improved = False
        for t in T:
            f = eng.times(e, t)
            if len(eng.word(f)) < length:
                e, length = f, length - 1
                improved = True
                break
    return eng.element(e)


def coxeter_elements(
    d: CoxeterDiagram, rank_guard: int = 8, cap: int = DEFAULT_CAP
) -> set[CoxeterElement]:
    """Normal forms of products of all generators, one per permutation."""
    if d.rank > rank_guard:
        raise RankGuardError("coxeter_elements", d.rank, rank_guard)
    out = set()
    for perm in itertools.permutations(d.vertices):
        out.add(normalize(d, perm, cap))
    return out
