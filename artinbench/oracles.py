"""Independent mathematical oracles for the benchmark.

Nothing here imports artin: every expected value comes from classical
formulas (Coxeter degrees, Poincare and Bott series, Orlik-Solomon Betti
numbers) or from an integer model of the Coxeter group acting on its root
lattice through a generalized Cartan matrix (Kac, Infinite dimensional Lie
algebras, Prop. 3.13).  Labels 2, 3, 4, 6 and infinity have such a model;
label 5 and labels above 6 are checked by the counting formulas alone.
"""

from __future__ import annotations

INF = float("inf")

# Cartan entries (a_ij, a_ji) for each label; the products 0, 1, 2, 3, 4 give
# m = 2, 3, 4, 6, infinity.
_CARTAN = {2: (0, 0), 3: (-1, -1), 4: (-1, -2), 6: (-1, -3), INF: (-2, -2)}

def degrees(family: str, n: int = 0, m: int = 0) -> tuple[int, ...]:
    """Degrees of the basic invariants of an irreducible finite Coxeter group
    (Humphreys, Reflection Groups and Coxeter Groups, table 3.1), for the
    families the workloads use."""
    if family == "A":
        return tuple(range(2, n + 2))
    if family == "B":
        return tuple(range(2, 2 * n + 1, 2))
    if family == "D":
        return tuple(sorted(tuple(range(2, 2 * n - 1, 2)) + (n,)))
    if family == "I2":
        return (2, m)
    if family == "H3":
        return (2, 6, 10)
    raise ValueError(f"no degree table for {family}")


def _poly_mul(p: list[int], q: list[int]) -> list[int]:
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return out


def poincare(degs) -> list[int]:
    """Coefficients of W(q) = prod [d_i]_q: the number of elements by length."""
    out = [1]
    for d in degs:
        out = _poly_mul(out, [1] * d)
    return out


def salvetti_betti(degs) -> list[int]:
    """Betti numbers prod (1 + (d_i - 1) t) of the complement of the complexified
    reflection arrangement (Orlik-Solomon), i.e. of the Salvetti complex."""
    out = [1]
    for d in degs:
        out = _poly_mul(out, [1, d - 1])
    return out


def bott_series(degs, radius: int) -> list[int]:
    """Sphere sizes 0..radius of the affine Weyl group whose finite Weyl group
    has these degrees: W(q) / prod (1 - q^(d_i - 1)) (Bott, 1956)."""
    series = poincare(degs) + [0] * (radius + 1)
    for d in degs:
        e = d - 1
        for k in range(e, len(series)):
            series[k] += series[k - e]
    return series[: radius + 1]


def components(vertices, edges) -> list[set]:
    """Connected components of the graph on `vertices` with the given edges."""
    parent = {v: v for v in vertices}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for a, b in edges:
        parent[find(a)] = find(b)
    groups: dict = {}
    for v in vertices:
        groups.setdefault(find(v), set()).add(v)
    return list(groups.values())


def odd_components(vertices, labelled_edges) -> int:
    """Rank of the abelianization of the Artin group: generators joined by an
    odd label become equal, every other relation abelianizes away."""
    odd = [(a, b) for a, b, m in labelled_edges if m != INF and m % 2 == 1]
    return len(components(vertices, odd))


class RootModel:
    """The Coxeter group as integer matrices on the root lattice.

    An element w is the tuple of columns w(alpha_j), each in simple-root
    coordinates.  Right multiplication by s_i subtracts a_ij * w(alpha_i)
    from column j, and s_i is a right descent of w iff w(alpha_i) < 0.
    """

    def __init__(self, vertices, labelled_edges):
        self.vertices = tuple(vertices)
        self.index = {v: i for i, v in enumerate(self.vertices)}
        n = len(self.vertices)
        self.cartan = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
        for a, b, m in labelled_edges:
            i, j = self.index[a], self.index[b]
            self.cartan[i][j], self.cartan[j][i] = _CARTAN[m]
        self.identity = tuple(
            tuple(1 if r == c else 0 for r in range(n)) for c in range(n)
        )

    @staticmethod
    def supports(labelled_edges) -> bool:
        return all(m in _CARTAN for _, _, m in labelled_edges)

    def times(self, w: tuple, letter: str) -> tuple:
        i = self.index[letter]
        col_i = w[i]
        row = self.cartan[i]
        return tuple(
            col if not row[j] else tuple(c - row[j] * x for c, x in zip(col, col_i))
            for j, col in enumerate(w)
        )

    def element(self, word, start=None) -> tuple:
        w = self.identity if start is None else start
        for s in word:
            w = self.times(w, s)
        return w

    def is_descent(self, w: tuple, letter: str) -> bool:
        return any(c < 0 for c in w[self.index[letter]])

    def length(self, w: tuple) -> int:
        return len(self.reduced_word(w))

    def is_reduced(self, word) -> bool:
        w = self.identity
        for s in word:
            if self.is_descent(w, s):
                return False
            w = self.times(w, s)
        return True

    def reduced_word(self, w: tuple) -> list:
        """A reduced word for w, found by peeling right descents."""
        word = []
        while w != self.identity:
            s = next(v for v in self.vertices if self.is_descent(w, v))
            word.append(s)
            w = self.times(w, s)
        return word[::-1]

    def inverse(self, w: tuple) -> tuple:
        return self.element(self.reduced_word(w)[::-1])

    def compose(self, u: tuple, v: tuple) -> tuple:
        return self.element(self.reduced_word(v), start=u)

    def spheres(self, radius: int) -> list[set]:
        """Elements by length up to radius, by breadth-first ascent."""
        layers = [{self.identity}]
        for _ in range(radius):
            nxt = set()
            for w in layers[-1]:
                for s in self.vertices:
                    if not self.is_descent(w, s):
                        nxt.add(self.times(w, s))
            if not nxt:
                break
            layers.append(nxt)
        return layers

    def parabolic_longest(self, T) -> tuple[tuple, int]:
        """(w0 of W_T, its length) for a finite parabolic subgroup."""
        layer, depth = {self.identity}, 0
        while True:
            nxt = {
                self.times(w, s) for w in layer for s in T if not self.is_descent(w, s)
            }
            if not nxt:
                (w0,) = layer
                return w0, depth
            layer, depth = nxt, depth + 1

    def min_coset_rep(self, w: tuple, T) -> tuple:
        """The unique minimal-length element of w W_T."""
        while True:
            t = next((t for t in T if self.is_descent(w, t)), None)
            if t is None:
                return w
            w = self.times(w, t)
