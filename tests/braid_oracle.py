"""The braid-move solution of the Coxeter word problem, kept as a test oracle.

By Matsumoto's theorem a word is reduced exactly when no word reachable
from it by braid moves has an adjacent repeated letter, and the reduced
words of an element form one braid-move class.  So: delete a repeat found
anywhere in the closure, restart, and once the closure is repetition-free
return its ShortLex minimum.  Exponential in the worst case, but it uses
nothing beyond the defining relations, so it checks the root-action engine
from outside.
"""

from collections import deque

from artin.diagram import INF


def _moves(d):
    by_first = {s: [] for s in d.vertices}
    for a, b, m in d.pairs():
        if m == INF:
            continue
        lhs = tuple(a if i % 2 == 0 else b for i in range(int(m)))
        rhs = tuple(b if i % 2 == 0 else a for i in range(int(m)))
        by_first[a].append((lhs, rhs))
        by_first[b].append((rhs, lhs))
    return by_first


def _delete_repeat(w):
    for i in range(len(w) - 1):
        if w[i] == w[i + 1]:
            return w[:i] + w[i + 2 :]
    return None


def braid_reduce(d, word) -> tuple:
    """ShortLex normal form of the element a word represents."""
    by_first = _moves(d)
    key = {s: i for i, s in enumerate(d.vertices)}
    w = tuple(word)
    while True:
        shorter = _delete_repeat(w)
        seen = {w}
        dq = deque([w])
        while shorter is None and dq:
            x = dq.popleft()
            for i, letter in enumerate(x):
                for lhs, rhs in by_first[letter]:
                    if x[i : i + len(lhs)] != lhs:
                        continue
                    y = x[:i] + rhs + x[i + len(lhs) :]
                    if y not in seen:
                        shorter = _delete_repeat(y)
                        if shorter is not None:
                            break
                        seen.add(y)
                        dq.append(y)
                if shorter is not None:
                    break
        if shorter is None:
            return min(seen, key=lambda x: [key[c] for c in x])
        w = shorter
