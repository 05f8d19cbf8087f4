"""Artin monoid word problem, divisibility, and Garside structure.

Simple elements are the positive lifts of the elements of W.  Every positive
element has a unique left-greedy normal form x_1 ... x_k over nontrivial
simples, in which each pair is left-weighted: every left descent of x_{i+1}
is a right descent of x_i, R(x_i) >= L(x_{i+1}) (Michel, J. Algebra 215,
1999).  One state per diagram, owned by the diagram's Coxeter root-action
engine, keeps factors as element ids of that engine: their descent sets are
the bitmasks the engine reads off signatures (``_Engine.descents``), a
simple's length is that of its engine word, and restoring left-weightedness
moves one letter at a time from x_{i+1} into x_i.  A letter appended on the
right sweeps leftwards and a letter peeled off the left sweeps rightwards;
both stop at the first pair that needs no move.

The ShortLex word of an element (ShortLex in the diagram's vertex order)
peels the smallest left-dividing letter, a letter of L(x_1), and repeats.
Divisibility peels the divisor's letters, gcd peels common head letters,
lcm reverses words with the complements s\\t = Pi(t, s; m_st - 1)
(Brieskorn-Saito, Invent. Math. 17, 1972), and the right-handed versions go
through the reversal anti-automorphism.  Delta_T is the engine's climb to
w0 of W_T, and sigma is the complement applied twice.

``cap`` bounds the work of one call: a normal form of l letters in k
factors counts l * (k + 1) steps, its ShortLex word l * k, each further
peeled letter or appended simple the factors it may sweep over, and lcm one
step per reversing cell.  These counts do not depend on what the memos hold,
so a call trips the cap warm or cold alike; the engine's new roots are
bounded by ``cap`` as well (see ``coxeter``).  ``relation_closure`` alone
enumerates a braid-move class; there ``cap`` bounds the class size.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, fields

from . import coxeter
from .coxeter import DEFAULT_CAP, _check_letters, _low
from .diagram import INF, CoxeterDiagram, is_finite_type
from .errors import CapExceededError, DiagramError, FiniteTypeRequiredError, GarsideError


# ---------------------------------------------------------------- state


class _Greedy:
    """Left-greedy normal forms of Artin monoid elements over one diagram's
    Coxeter engine, which owns this state (``_Engine.monoid``).  A simple
    element is an element of W, named by its engine id, and a normal form is
    a tuple of ids of nontrivial simples in which every pair is left-weighted.

    ``info[e]`` is (L mask, R mask, inverse id) of engine element e, the
    masks read off the signatures by ``_Engine.descents``; a simple's length
    is that of its engine word.  ``pairs`` memoizes the left-weighted form of
    a pair of simples, ``nfs`` word -> normal form (a tuple of element ids)
    and ``words`` normal form -> ShortLex word; every ShortLex word made is
    also a key of ``nfs``.  ``quotients`` maps (normal form, word) to the
    normal form of the left cofactor, or None; gcd records the cofactors it
    finds.  ``deltas`` maps a mask T to Delta_T, and ``complements`` a
    simple e to w0 e^-1; the twist sigma(e) = w0 e w0 is read off the
    complement of the complement.
    """

    def __init__(self, eng: coxeter._Engine):
        self.eng, d = eng, eng.diagram
        self.diagram, self.n, self.key, self.names = d, eng.n, eng.key, eng.names
        self.info = {0: (0, 0, 0)}
        self.pairs: dict[tuple, tuple] = {}
        self.nfs: dict[tuple, tuple] = {}
        self.words: dict[tuple, tuple] = {}
        self.quotients: dict[tuple, tuple | None] = {}
        self.deltas: dict[int, int] = {}
        self.complements: dict[int, int] = {}
        m = [[d._nbrs[a].get(b, 2) for b in self.names] for a in self.names]
        # comp[s][t] = s\t, the letters t s t ... with s * (s\t) = lcm(s, t)
        self.comp = [
            [None if m[s][t] == INF else tuple((t, s)[i % 2] for i in range(int(m[s][t]) - 1))
             for t in range(self.n)]
            for s in range(self.n)
        ]
        self.spent, self.cap, self.what = 0, DEFAULT_CAP, ""

    def begin(self, d: CoxeterDiagram, cap: int, what: str) -> None:
        """Start a public call; elements it makes and checks carry the
        caller's diagram object, equal to the one the state was built for."""
        self.diagram, self.spent, self.cap, self.what = d, 0, cap, what
        self.eng.begin(cap, what)

    def charge(self, work: int) -> None:
        self.spent += work
        if self.spent > self.cap:
            raise CapExceededError(f"{self.what} normal-form work", self.cap)

    def settle(self, total: int) -> None:
        """Bring the work of this call up to `total`, so a memo hit costs what
        computing afresh would: at most l * (k + 1) steps for a word of l
        letters and k factors, since a prefix has at most k factors."""
        if total > self.spent:
            self.charge(total - self.spent)

    # ------------------------------------------------------------ simples
    def _register(self, f: int, i: int) -> None:
        """Record f and its inverse i: R(f) = L(i)."""
        lf, li = self.eng.descents(f), self.eng.descents(i)
        self.info[f] = (lf, li, i)
        self.info[i] = (li, lf, f)

    def right(self, e: int, s: int) -> int:
        """e * s in W, registered: (e s)^-1 = s e^-1."""
        eng = self.eng
        f = eng.right[e * self.n + s]
        if f < 0:
            f = eng.times(e, s)
        if f not in self.info:
            self._register(f, eng.left_times(s, self.info[e][2]))
        return f

    def left(self, s: int, e: int) -> int:
        """s * e in W, registered: (s e)^-1 = e^-1 s."""
        eng = self.eng
        f = eng.left[e * self.n + s]
        if f < 0:
            f = eng.left_times(s, e)
        if f not in self.info:
            self._register(f, eng.times(self.info[e][2], s))
        return f

    def delta(self, mask: int) -> int:
        """w0 of W_T for T given as a mask (W_T must be finite), from the
        engine's climb; it is an involution, so it is its own inverse."""
        e = self.deltas.get(mask)
        if e is None:
            e = self.deltas[mask] = self.eng.longest(mask)
            if e not in self.info:
                self._register(e, e)
        return e

    def w0(self) -> int:
        return self.delta((1 << self.n) - 1)

    def complement(self, e: int) -> int:
        """The simple c with c * e = Delta, that is w0 e^-1."""
        c = self.complements.get(e)
        if c is None:
            c = self.w0()
            for x in reversed(self.eng.word(e)):
                c = self.right(c, self.key[x])
            self.complements[e] = c
        return c

    def twist(self, e: int) -> int:
        """sigma(e) = w0 e w0, the complement of the complement:
        w0 (w0 e^-1)^-1 = w0 e w0."""
        return self.complement(self.complement(e))

    # ------------------------------------------------------------ normal forms
    def pair(self, x: int, y: int) -> tuple[int, int]:
        """Left-weighted form of the simples x, y: move letters of
        L(y) - R(x) from y into x until none is left."""
        r = self.pairs.get((x, y))
        if r is None:
            info, a, b = self.info, x, y
            move = info[b][0] & ~info[a][1]
            while move:
                s = _low(move)
                a, b = self.right(a, s), self.left(s, b)
                move = info[b][0] & ~info[a][1]
            r = self.pairs[(x, y)] = (a, b)
        return r

    def append(self, F: list, y: int) -> None:
        """F := F * y for a simple y, sweeping leftwards over at most len(F) pairs."""
        self.charge(len(F) + 1)
        i = len(F)
        F.append(y)
        while i:
            x = F[i - 1]
            a, b = self.pair(x, F[i])
            if a == x:
                break
            F[i - 1] = a
            if b:
                F[i] = b
            else:
                del F[i]
            i -= 1

    def sweep(self, F: list) -> None:
        """Restore left-weightedness after the head F[0] lost letters, sweeping
        rightwards over at most len(F) pairs."""
        self.charge(len(F))
        i = 0
        while F[i] and i + 1 < len(F):
            x = F[i]
            a, b = self.pair(x, F[i + 1])
            if a == x:
                break
            F[i], F[i + 1] = a, b
            i += 1
        if not F[i]:
            del F[i]

    def peel(self, F: list, s: int) -> None:
        """F := s^-1 F for a letter s of L(F[0])."""
        F[0] = self.left(s, F[0])
        self.sweep(F)

    def nf(self, word: tuple) -> tuple:
        start, F = self.spent, self.nfs.get(word)
        if F is None:
            G = []
            for x in word:
                self.append(G, self.right(0, self.key[x]))
            F = self.nfs[word] = tuple(G)
        total = start + len(word) * (len(F) + 1)
        if total > self.spent:  # settle, inlined: this is the hot path
            self.spent = total
            if total > self.cap:
                self.charge(0)
        return F

    def shortlex(self, F: tuple) -> tuple[str, ...]:
        start, word = self.spent, self.words.get(F)
        if word is None:
            G, out = list(F), []
            while len(G) > 1:
                s = _low(self.info[G[0]][0])
                out.append(self.names[s])
                self.peel(G, s)
            if G:  # one simple: its ShortLex word in W (Matsumoto)
                out.extend(self.eng.word(G[0]))
            word = self.words[F] = tuple(out)
            self.nfs.setdefault(word, F)
        self.settle(start + len(word) * len(F))
        return word

    def canonical(self, word: tuple) -> tuple[str, ...]:
        return self.shortlex(self.nf(word))

    def divide(self, F: tuple, word: tuple) -> tuple | None:
        """The normal form of F with the letters of word peeled off its left,
        or None if they do not divide it.  Letters come off the head while
        they are left descents of it; the head is refilled only when one is
        not, so the work is at most (len(word) + 1) * len(F) steps."""
        start, q = self.spent, self.quotients.get((F, word), False)
        if q is False:
            info, key, G = self.info, self.key, list(F)
            for x in word:
                s = key[x]
                if G and not info[G[0]][0] >> s & 1:
                    self.sweep(G)
                if not G or not info[G[0]][0] >> s & 1:
                    G = None
                    break
                G[0] = self.left(s, G[0])
            if G:
                self.sweep(G)
            q = self.quotients[(F, word)] = None if G is None else tuple(G)
        self.settle(start + (len(word) + 1) * len(F))
        return q

    def common_prefix(self, A: list, B: list) -> list[int]:
        """Peel common left letters off A and B; the peeled letters spell gcd(A, B)."""
        info, out = self.info, []
        while A and B:
            common = info[A[0]][0] & info[B[0]][0]
            if not common:
                break
            s = _low(common)
            out.append(s)
            self.peel(A, s)
            self.peel(B, s)
        return out

    def reverse(self, u: tuple, v: tuple, bound: int) -> list[int] | None:
        """Right reversing of u^-1 v into v' u'^-1: returns v' (u v' = lcm) or
        None when some s\\t is undefined or a grid node is longer than bound."""
        key, comp = self.key, self.comp
        if len(v) > bound:
            return None
        todo = [key[x] for x in reversed(v)] + [~key[x] for x in u]
        out, h = [], len(u)  # h: length of the node the path `out` ends at
        while todo:
            t = todo.pop()
            if t >= 0 and out and out[-1] < 0:
                s = ~out.pop()
                h += 1
                self.charge(1)
                if s != t:
                    c = comp[s][t]
                    if c is None or h + len(c) > bound:
                        return None
                    todo.extend(~x for x in comp[t][s])
                    todo.extend(reversed(c))
            else:
                out.append(t)
                h += 1 if t >= 0 else -1
        return [t for t in out if t >= 0]


@dataclass(frozen=True)
class MonoidElement:
    """A positive-monoid element carried by its ShortLex-minimal word."""

    diagram: CoxeterDiagram
    word: tuple[str, ...]

    @property
    def length(self) -> int:
        return len(self.word)

    def __repr__(self):
        return f"MonoidElement({''.join(self.word) or 'e'})"


def _begin(d: CoxeterDiagram, cap: int, what: str) -> _Greedy:
    eng = coxeter._engine(d)
    st = eng.monoid
    if st is None:
        st = eng.monoid = _Greedy(eng)
    st.begin(d, cap, what)
    return st


def _word(st, w) -> tuple[str, ...]:
    """The letters of w, checked against the diagram of the call."""
    if isinstance(w, MonoidElement):
        if w.diagram is not st.diagram and w.diagram != st.diagram:
            raise DiagramError("element belongs to a different diagram")
        return w.word
    if isinstance(w, str):
        w = w.split()
    return _check_letters(st.key, w)


def _element(st, F, flip: bool = False) -> MonoidElement:
    """The element with normal form F, or with F read through the reversal
    anti-automorphism when flip is set."""
    if flip:
        word = [x for f in F for x in st.eng.word(f)]
        return MonoidElement(st.diagram, st.canonical(tuple(reversed(word))))
    return MonoidElement(st.diagram, st.shortlex(tuple(F)))


def _check_side(side: str) -> None:
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")


def relation_closure(d: CoxeterDiagram, w, cap: int = DEFAULT_CAP) -> frozenset:
    """All positive words reachable from w by braid moves (same length)."""
    word = _word(_begin(d, cap, "relation_closure"), w)
    by_first: dict[str, list] = {s: [] for s in d.vertices}
    for a, b, m in d.pairs():
        if m != INF:
            lhs = tuple((a, b)[i % 2] for i in range(int(m)))
            rhs = tuple((b, a)[i % 2] for i in range(int(m)))
            by_first[a].append((lhs, rhs))
            by_first[b].append((rhs, lhs))
    seen = {word}
    dq = deque([word])
    while dq:
        w = dq.popleft()
        for i, letter in enumerate(w):
            for lhs, rhs in by_first[letter]:
                if w[i : i + len(lhs)] == lhs:
                    w2 = w[:i] + rhs + w[i + len(lhs) :]
                    if w2 not in seen:
                        if len(seen) >= cap:
                            raise CapExceededError("relation closure", cap)
                        seen.add(w2)
                        dq.append(w2)
    return frozenset(seen)


def canonicalize(d: CoxeterDiagram, w, cap: int = DEFAULT_CAP) -> MonoidElement:
    st = _begin(d, cap, "canonicalize")
    return MonoidElement(d, st.canonical(_word(st, w)))


def identity(d: CoxeterDiagram) -> MonoidElement:
    return MonoidElement(d, ())


def product(a: MonoidElement, b: MonoidElement, cap: int = DEFAULT_CAP) -> MonoidElement:
    if a.diagram != b.diagram:
        raise DiagramError("cannot multiply elements over different diagrams")
    return canonicalize(a.diagram, a.word + b.word, cap)


def monoid_equal(d: CoxeterDiagram, u, v, cap: int = DEFAULT_CAP) -> bool:
    """Two positive words are equal iff their normal forms are."""
    st = _begin(d, cap, "monoid_equal")
    uw, vw = _word(st, u), _word(st, v)
    return len(uw) == len(vw) and st.nf(uw) == st.nf(vw)


def divides(
    d: CoxeterDiagram, dvr, a, side: str = "left", cap: int = DEFAULT_CAP
) -> MonoidElement | None:
    """Cofactor of a division, or None.

    side="left":  returns z with a = dvr * z when dvr left-divides a.
    side="right": returns z with a = z * dvr when dvr right-divides a.
    """
    _check_side(side)
    st = _begin(d, cap, "divides")
    dw, aw = _word(st, dvr), _word(st, a)
    if len(dw) > len(aw):
        return None
    flip = side == "right"
    if flip:
        dw, aw = dw[::-1], aw[::-1]
    F = st.divide(st.nf(aw), dw)
    return None if F is None else _element(st, F, flip)


def divisor_set(
    d: CoxeterDiagram, a, side: str = "left", cap: int = DEFAULT_CAP
) -> set[MonoidElement]:
    """All left (right) divisors of a, by a search that extends a divisor by
    each letter dividing its cofactor."""
    _check_side(side)
    st = _begin(d, cap, "divisor_set")
    flip = side == "right"
    aw = _word(st, a)
    cofactor = {(): st.nf(aw[::-1] if flip else aw)}  # divisor -> cofactor
    todo = [()]
    while todo:
        D = todo.pop()
        C = cofactor[D]
        mask = st.info[C[0]][0] if C else 0
        while mask:
            s = _low(mask)
            mask &= mask - 1
            G = list(D)
            st.append(G, st.right(0, s))
            G = tuple(G)
            if G not in cofactor:
                rest = list(C)
                st.peel(rest, s)
                cofactor[G] = tuple(rest)
                todo.append(G)
    return {_element(st, D, flip) for D in cofactor}


def gcd(d: CoxeterDiagram, a, b, side: str = "left", cap: int = DEFAULT_CAP) -> MonoidElement:
    """Greatest common divisor on the given side: the common letters of the
    heads, peeled off both arguments until none is left."""
    _check_side(side)
    st = _begin(d, cap, "gcd")
    aw, bw = _word(st, a), _word(st, b)
    flip = side == "right"
    if flip:
        aw, bw = aw[::-1], bw[::-1]
    Fa, Fb = st.nf(aw), st.nf(bw)
    A, B = list(Fa), list(Fb)
    word = tuple(st.names[s] for s in st.common_prefix(A, B))
    g = st.canonical(word[::-1] if flip else word)
    key = g[::-1] if flip else g
    st.quotients[(Fa, key)], st.quotients[(Fb, key)] = tuple(A), tuple(B)
    return MonoidElement(d, g)


def lcm(
    d: CoxeterDiagram,
    a,
    b,
    side: str = "left",
    cap: int = DEFAULT_CAP,
    length_bound: int | None = None,
) -> MonoidElement | None:
    """Least common multiple on the given side, or None when no common
    multiple exists within the bound.

    side="left" gives the shortest c with a and b both left-dividing c
    (c = a*x); side="right" symmetrically (c = x*a).  The lcm is returned
    when its length is at most max(l(a), length_bound), on every diagram.
    For a finite-type diagram the default bound (l(a)+l(b))*l(Delta) always
    contains it, so None is impossible there; for other diagrams the bound
    defaults to 2*(l(a)+l(b)), and None means either that no common
    multiple exists or that the lcm is longer than the bound.
    """
    _check_side(side)
    st = _begin(d, cap, "lcm")
    aw, bw = _word(st, a), _word(st, b)
    finite = st.eng.finite
    default_bound = length_bound is None
    if default_bound:
        scale = len(st.eng.word(st.w0())) if finite else 2
        length_bound = (len(aw) + len(bw)) * scale
    flip = side == "right"
    if flip:
        aw, bw = aw[::-1], bw[::-1]
    ext = st.reverse(aw, bw, max(len(aw), length_bound))
    if ext is None:
        if finite and default_bound:
            raise GarsideError(
                f"lcm search exhausted its bound {length_bound} on a finite-type diagram"
            )
        return None
    word = aw + tuple(st.names[s] for s in ext)
    return MonoidElement(d, st.canonical(word[::-1] if flip else word))


def garside_element(d: CoxeterDiagram, T, cap: int = DEFAULT_CAP) -> MonoidElement:
    """Delta_T: the positive word of the longest element of W_T.

    The empty subset is allowed and gives the identity (W_{} is trivial).
    """
    keep = d._subset(T)
    T = tuple(t for t in d.vertices if t in keep)
    if not T:
        return identity(d)
    if not is_finite_type(d.subdiagram(T))[0]:
        names = ", ".join(map(repr, T))
        raise FiniteTypeRequiredError(
            f"Delta_T requires a finite-type subset, got T = {{{names}}}"
        )
    st = _begin(d, cap, "garside_element")
    return MonoidElement(d, st.eng.word(st.delta(sum(1 << st.key[t] for t in T))))


def garside_permutation(d: CoxeterDiagram, cap: int = DEFAULT_CAP) -> dict[str, str]:
    """The permutation sigma of the generators with Delta*s = sigma(s)*Delta."""
    st = _begin(d, cap, "garside_permutation")
    if not st.eng.finite:
        raise FiniteTypeRequiredError("sigma requires a finite-type diagram")
    return {st.names[s]: st.eng.word(st.twist(st.right(0, s)))[0] for s in range(st.n)}


@dataclass(frozen=True)
class NormalForm:
    """Block normal form a = Delta_{T_k} ... Delta_{T_1} Delta_{T_0}.

    blocks holds T_k first (most significant), each as a tuple of generator
    names in diagram vertex order.
    """

    diagram: CoxeterDiagram
    blocks: tuple[tuple[str, ...], ...]

    def word(self, cap: int = DEFAULT_CAP) -> tuple[str, ...]:
        out: tuple[str, ...] = ()
        for T in self.blocks:
            out += garside_element(self.diagram, T, cap).word
        return out

    def to_json_obj(self) -> list[list[str]]:
        return [list(T) for T in self.blocks]


def garside_normal_form(d: CoxeterDiagram, a, cap: int = DEFAULT_CAP) -> NormalForm:
    """Peel blocks off the right: T_0 is the set of length-1 right divisors,
    divide by Delta_{T_0}, repeat.  On the reversed word these are the left
    descents of the head, so Delta_{T_0} is peeled off the head."""
    st = _begin(d, cap, "garside_normal_form")
    F = list(st.nf(_word(st, a)[::-1]))
    blocks = []
    while F:
        mask = st.info[F[0]][0]
        *first, last = st.eng.word(st.delta(mask))
        for x in first:
            F[0] = st.left(st.key[x], F[0])
        st.peel(F, st.key[last])
        blocks.append(tuple(st.names[s] for s in range(st.n) if mask >> s & 1))
    return NormalForm(d, tuple(reversed(blocks)))


def _check_length(name: str, n) -> None:
    if isinstance(n, bool) or not isinstance(n, int):
        raise ValueError(f"{name} must be an integer, got {n!r}")
    if n < 0:
        raise ValueError(f"{name} must be >= 0, got {n}")


def monoid_elements(
    d: CoxeterDiagram, max_length: int, cap: int = DEFAULT_CAP
) -> list[list[MonoidElement]]:
    """All monoid elements grouped by length, lengths 0..max_length, each
    layer in ShortLex order."""
    _check_length("max_length", max_length)
    st = _begin(d, cap, "monoid_elements")
    layer = [()]
    layers = [[identity(d)]]
    for _ in range(max_length):
        nxt = set()
        for F in layer:
            for s in range(st.n):
                G = list(F)
                st.append(G, st.right(0, s))
                nxt.add(tuple(G))
        layer = sorted(nxt, key=lambda G: [st.key[x] for x in st.shortlex(G)])
        layers.append([_element(st, G) for G in layer])
    return layers


@dataclass(frozen=True)
class GarsideAxiomReport:
    """Outcome of the bounded exhaustive axiom check.

    The finite-type-only fields (divisor symmetry, divisor/section match,
    divisor count, group order) are None when skipped.
    """

    diagram: CoxeterDiagram
    length_cap: int
    finite_type: bool
    cancellative: bool
    length_additive: bool
    gcd_ok: bool
    lcm_ok: bool
    lcm_failures: tuple[tuple[tuple[str, ...], tuple[str, ...]], ...] = ()
    divisors_symmetric: bool | None = None
    divisors_match_section: bool | None = None
    divisor_count: int | None = None
    group_order: int | None = None

    @property
    def passed(self) -> bool:
        checks = [self.cancellative, self.length_additive, self.gcd_ok, self.lcm_ok]
        for extra in (self.divisors_symmetric, self.divisors_match_section):
            if extra is not None:
                checks.append(extra)
        if self.divisor_count is not None:
            checks.append(self.divisor_count == self.group_order)
        return all(checks)

    def to_json_obj(self) -> dict:
        # every field after the leading diagram, then the verdict
        return {**{f.name: getattr(self, f.name) for f in fields(self)[1:]}, "passed": self.passed}


def _side_letters(d: CoxeterDiagram, x: MonoidElement, side: str, cap: int) -> set[str]:
    return {s for s in d.vertices if divides(d, (s,), x, side, cap) is not None}


def verify_garside_axioms(
    d: CoxeterDiagram, length_cap: int = 4, cap: int = DEFAULT_CAP
) -> GarsideAxiomReport:
    """Exhaustively check the Garside axioms on all elements up to length_cap.

    (i) left/right cancellativity; (ii) length additivity; (iii) on all
    pairs, the gcd on each side divides both and leaves cofactors with no
    common letter on that side; lcm existence and minimality, a*x = b*y with
    x, y sharing no right letter (all pairs in finite type, generator pairs
    otherwise, within the bound 2*length_cap); finite type only: (iv)
    left-divisors(Delta) = right-divisors(Delta) = section image of W, and
    (v) |divisors(Delta)| = |W|.
    """
    _check_length("length_cap", length_cap)
    finite = coxeter._engine(d).finite
    elements = [el for layer in monoid_elements(d, length_cap, cap) for el in layer]

    cancellative = True
    additive = True
    for c in elements:
        right_img = {}
        left_img = {}
        for x in elements:
            xc = canonicalize(d, x.word + c.word, cap).word
            cx = canonicalize(d, c.word + x.word, cap).word
            if len(xc) != x.length + c.length or len(cx) != x.length + c.length:
                additive = False
            if xc in right_img and right_img[xc] != x.word:
                cancellative = False
            if cx in left_img and left_img[cx] != x.word:
                cancellative = False
            right_img[xc] = x.word
            left_img[cx] = x.word

    gcd_ok = True
    for a in elements:
        for b in elements:
            for side in ("left", "right"):
                g = gcd(d, a, b, side, cap)
                x, y = divides(d, g, a, side, cap), divides(d, g, b, side, cap)
                if x is None or y is None or (
                    _side_letters(d, x, side, cap) & _side_letters(d, y, side, cap)
                ):
                    gcd_ok = False
    if finite:
        lcm_pairs = [(a, b) for a in elements for b in elements]
    else:
        gens = [canonicalize(d, (s,), cap) for s in d.vertices]
        lcm_pairs = [(a, b) for a in gens for b in gens]
    lcm_failures = []
    for a, b in lcm_pairs:
        m = lcm(d, a, b, "left", cap, length_bound=None if finite else 2 * length_cap)
        x = None if m is None else divides(d, a, m, "left", cap)
        y = None if m is None else divides(d, b, m, "left", cap)
        if x is None or y is None or (
            _side_letters(d, x, "right", cap) & _side_letters(d, y, "right", cap)
        ):
            lcm_failures.append((a.word, b.word))

    divisors_symmetric = None
    divisors_match_section = None
    divisor_count = None
    group_order = None
    if finite:
        delta = garside_element(d, d.vertices, cap)
        left = divisor_set(d, delta, "left", cap)
        right = divisor_set(d, delta, "right", cap)
        divisors_symmetric = left == right
        group = [el for layer in coxeter.enumerate_elements(d, "all", cap) for el in layer]
        section_image = {canonicalize(d, w.word, cap) for w in group}
        divisors_match_section = left == section_image
        divisor_count = len(left)
        group_order = len(group)

    return GarsideAxiomReport(
        diagram=d,
        length_cap=length_cap,
        finite_type=finite,
        cancellative=cancellative,
        length_additive=additive,
        gcd_ok=gcd_ok,
        lcm_ok=not lcm_failures,
        lcm_failures=tuple(lcm_failures),
        divisors_symmetric=divisors_symmetric,
        divisors_match_section=divisors_match_section,
        divisor_count=divisor_count,
        group_order=group_order,
    )
