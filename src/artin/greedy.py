"""Left-greedy normal forms of positive Artin monoid elements, kept per
diagram over the Coxeter root-action engine; ``monoid`` and ``group`` run on
this state (their docstrings give the method and what ``cap`` counts).

A simple element is an element of W, named by its engine id.  For each id
met the state records its left and right descent sets as bitmasks, its
inverse and its length; a normal form is a tuple of ids of nontrivial
simples in which every pair is left-weighted.
"""

from __future__ import annotations

from functools import lru_cache

from .coxeter import DEFAULT_CAP, _engine
from .diagram import INF, CoxeterDiagram
from .errors import CapExceededError


def _low(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


class _Greedy:
    """Per-diagram left-greedy normal forms of Artin monoid elements over the
    engine's elements, which stand for the simple elements.

    ``info[e]`` is (L mask, R mask, inverse id, length) of engine element e;
    ``pairs`` memoizes the left-weighted form of a pair of simples, ``nfs``
    word -> normal form (a tuple of element ids) and ``words`` normal form
    -> ShortLex word; every ShortLex word made is also a key of ``nfs``.
    ``quotients`` maps (normal form, word) to the normal form of the left
    cofactor, or None; gcd records the cofactors it finds.
    """

    def __init__(self, d: CoxeterDiagram):
        eng = self.eng = _engine(d)
        self.diagram, self.n, self.key, self.names = d, eng.n, eng.key, eng.names
        self.info = {0: (0, 0, 0, 0)}
        self.pairs: dict[tuple, tuple] = {}
        self.nfs: dict[tuple, tuple] = {}
        self.words: dict[tuple, tuple] = {}
        self.quotients: dict[tuple, tuple | None] = {}
        self.deltas: dict[int, int] = {}
        self.twists: dict[int, int] = {}
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
    def _register(self, f: int, i: int, length: int) -> None:
        """Record f and its inverse i; L(f) is read off f's signature."""
        pos, sig = self.eng.positive, self.eng.sig
        lf = sum(1 << t for t, r in enumerate(sig[f]) if not pos[r])
        li = sum(1 << t for t, r in enumerate(sig[i]) if not pos[r])
        self.info[f] = (lf, li, i, length)
        self.info[i] = (li, lf, f, length)

    def right(self, e: int, s: int) -> int:
        """e * s in W, registered: (e s)^-1 = s e^-1."""
        eng = self.eng
        f = eng.right[e * self.n + s]
        if f < 0:
            f = eng.times(e, s)
        if f not in self.info:
            _, rm, i, length = self.info[e]
            self._register(f, eng.left_times(s, i), length - 1 if rm >> s & 1 else length + 1)
        return f

    def left(self, s: int, e: int) -> int:
        """s * e in W, registered: (s e)^-1 = e^-1 s."""
        eng = self.eng
        f = eng.left[e * self.n + s]
        if f < 0:
            f = eng.left_times(s, e)
        if f not in self.info:
            lm, _, i, length = self.info[e]
            j = eng.right[i * self.n + s]
            if j < 0:
                j = eng.times(i, s)
            self._register(f, j, length - 1 if lm >> s & 1 else length + 1)
        return f

    def delta(self, mask: int) -> int:
        """w0 of W_T for T given as a mask (W_T must be finite): climb
        non-descents in T from the identity."""
        e = self.deltas.get(mask)
        if e is None:
            e, info = 0, self.info
            while mask & ~info[e][0]:
                e = self.left(_low(mask & ~info[e][0]), e)
            self.deltas[mask] = e
        return e

    def w0(self) -> int:
        return self.delta((1 << self.n) - 1)

    def sigma(self, s: int) -> int:
        """sigma(s) = w0 s w0: the one generator that is not a left descent of w0 s."""
        return _low(((1 << self.n) - 1) & ~self.info[self.right(self.w0(), s)][0])

    def twist(self, e: int) -> int:
        """sigma applied to a simple."""
        f = self.twists.get(e)
        if f is None:
            f = 0
            for x in self.eng.word(e):
                f = self.right(f, self.sigma(self.key[x]))
            self.twists[e] = f
        return f

    def complement(self, e: int) -> int:
        """The simple c with c * e = Delta, that is w0 e^-1."""
        c = self.complements.get(e)
        if c is None:
            c = self.w0()
            for x in reversed(self.eng.word(e)):
                c = self.right(c, self.key[x])
            self.complements[e] = c
        return c

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


@lru_cache(maxsize=None)
def _greedy(d: CoxeterDiagram) -> _Greedy:
    return _Greedy(d)
