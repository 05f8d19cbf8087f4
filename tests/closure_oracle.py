"""The braid-move closure solution of the Artin monoid word problem, kept as a
test oracle.

The defining relations preserve length, so the words of a positive element
form one finite braid-move class and its ShortLex minimum is canonical.
Divisibility compares prefixes (suffixes) across two classes, gcd searches
the divisor sets, lcm runs a breadth-first search over the multiples of one
argument, and the block normal form peels Delta_T for the set T of last
letters.  Exponential in the worst case, but it uses nothing beyond the
defining relations, so it checks the greedy normal forms from outside.
"""

from collections import deque

from artin.diagram import INF, is_finite_type


class ClosureOracle:
    def __init__(self, d):
        self.d = d
        self.key = {s: i for i, s in enumerate(d.vertices)}
        self.by_first = {s: [] for s in d.vertices}
        for a, b, m in d.pairs():
            if m == INF:
                continue
            lhs = tuple(a if i % 2 == 0 else b for i in range(int(m)))
            rhs = tuple(b if i % 2 == 0 else a for i in range(int(m)))
            self.by_first[a].append((lhs, rhs))
            self.by_first[b].append((rhs, lhs))
        self._canon = {}
        self._class_of = {}

    def closure(self, word) -> frozenset:
        word = tuple(word)
        if word in self._canon:
            return self._class_of[self._canon[word]]
        seen = {word}
        dq = deque([word])
        while dq:
            w = dq.popleft()
            for i, letter in enumerate(w):
                for lhs, rhs in self.by_first[letter]:
                    if w[i : i + len(lhs)] == lhs:
                        w2 = w[:i] + rhs + w[i + len(lhs) :]
                        if w2 not in seen:
                            seen.add(w2)
                            dq.append(w2)
        cl = frozenset(seen)
        rep = min(cl, key=lambda w: [self.key[x] for x in w])
        for w in cl:
            self._canon[w] = rep
        self._class_of[rep] = cl
        return cl

    def canon(self, word) -> tuple:
        word = tuple(word)
        self.closure(word)
        return self._canon[word]

    def divides(self, dvr, a, side="left"):
        """Canonical cofactor word, or None."""
        dcl, k = self.closure(dvr), len(dvr)
        for w in self.closure(a):
            if side == "left" and w[:k] in dcl:
                return self.canon(w[k:])
            if side == "right" and w[len(w) - k :] in dcl:
                return self.canon(w[: len(w) - k])
        return None

    def divisors(self, a, side="left") -> set:
        return {
            self.canon(w[:i] if side == "left" else w[len(w) - i :])
            for w in self.closure(a)
            for i in range(len(w) + 1)
        }

    def gcd(self, a, b, side="left") -> tuple:
        common = self.divisors(a, side) & self.divisors(b, side)
        top = max(len(w) for w in common)
        best = [w for w in common if len(w) == top]
        assert len(best) == 1, best
        return best[0]

    def lcm(self, a, b, side="left", length_bound=None):
        a, b = self.canon(a), self.canon(b)
        if length_bound is None:
            if is_finite_type(self.d)[0]:
                delta = self.longest()
                length_bound = (len(a) + len(b)) * len(delta)
            else:
                length_bound = 2 * (len(a) + len(b))

        def multiple_of_b(word):
            return self.divides(b, word, side) is not None

        if multiple_of_b(a):
            return a
        frontier, seen = [a], {a}
        while frontier and len(frontier[0]) < length_bound:
            nxt, hits = [], set()
            for w in frontier:
                for s in self.d.vertices:
                    c = self.canon(w + (s,) if side == "left" else (s,) + w)
                    if c not in seen:
                        seen.add(c)
                        (hits.add if multiple_of_b(c) else nxt.append)(c)
            if hits:
                assert len(hits) == 1, hits
                return hits.pop()
            frontier = nxt
        return None

    def longest(self, T=None) -> tuple:
        """Delta_T: grow a reduced word by a letter of T that is not a last
        letter of its class (so not a right descent) until there is none."""
        T = self.d.vertices if T is None else T
        w = ()
        while True:
            lasts = {x[-1] for x in self.closure(w)} if w else set()
            new = [s for s in T if s not in lasts]
            if not new:
                return self.canon(w)
            w += (new[0],)

    def garside_normal_form(self, a) -> tuple:
        rest, blocks = self.canon(a), []
        while rest:
            lasts = {w[-1] for w in self.closure(rest)}
            T = tuple(s for s in self.d.vertices if s in lasts)
            rest = self.divides(self.longest(T), rest, "right")
            blocks.append(T)
        return tuple(reversed(blocks))
