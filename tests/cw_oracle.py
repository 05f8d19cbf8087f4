"""Two producers of cellular chains, kept as oracles for the Salvetti
boundary that `complexes._salvetti_chains` reads off a finite Salvetti
poset.  The diamond sign walk, `cw_chains`, works on the face poset of any
regular CW complex; `salvetti_chains` evaluates Salvetti's formula face by
face.  Both share only `Poset`'s cover table and elements with the library.

    boundary, coefficients, offset = cw_chains(p)
    complexes._chain_homology(boundary, coefficients, offset)
"""

import collections
import itertools


def cw_chains(p) -> tuple[list[list[int]], list[list[int]], list[int]]:
    """The cellular chain complex of a regular CW complex from its face poset
    p, in `_chain_homology`'s form: p's elements are the cells, by dimension
    and then in p's order, and a cell's faces are its lower covers.

    In a regular CW complex every interval of length 2 is a diamond, with two
    middles, and [s:t][t:r] + [s:t'][t':r] = 0 on it (Bjorner, Europ. J.
    Combin. 5, 1984).  So an edge takes +1 and -1 on its two ends, and in a
    higher cell s the first facet takes +1 and [s:t'] = -[s:t][t:r][t':r]
    across each ridge r shared by facets t and t'.  A ValueError is raised
    unless every cover joins adjacent dimensions, every edge has two ends,
    every diamond two middles, and each walk is consistent and reaches every
    facet.  These hold in every regular CW complex but do not make one."""
    down = [[] for _ in p._up]
    for i, ups in enumerate(p._up):
        for j in ups:
            down[j].append(i)
    # dimensions from the minimal elements up, each cell after all its facets
    dim = [0 if not facets else None for facets in down]
    left = list(map(len, down))
    stack = [i for i, n in enumerate(left) if not n]
    while stack:
        i = stack.pop()
        for j in p._up[i]:
            if dim[j] is None:
                dim[j] = dim[i] + 1
            elif dim[j] != dim[i] + 1:
                raise ValueError("a cover joins cells whose dimensions are not adjacent")
            left[j] -= 1
            if not left[j]:
                stack.append(j)
    cells = sorted(range(len(dim)), key=dim.__getitem__)
    position = {x: a for a, x in enumerate(cells)}
    counts = collections.Counter(dim)  # a k-cell has a (k-1)-cell below, so k runs from 0
    offset = list(itertools.accumulate((counts[k] for k in range(len(counts))), initial=0))

    incidence = [{} for _ in dim]  # incidence[s][t] = [s:t] for each facet t of s
    for s in cells:
        facets, sign = down[s], incidence[s]
        if dim[s] == 1:
            if len(facets) != 2:
                raise ValueError("an edge without two ends")
            sign.update(zip(facets, (1, -1)))
        elif facets:
            over = collections.defaultdict(list)  # ridge -> the facets of s above it
            for t in facets:
                for r in down[t]:
                    over[r].append(t)
            if any(len(ts) != 2 for ts in over.values()):
                raise ValueError("a diamond without two middles")
            sign[facets[0]] = 1
            todo = [facets[0]]
            while todo:
                t = todo.pop()
                for r in down[t]:
                    u = over[r][over[r][0] == t]  # the other middle of the diamond [r, s]
                    x = -sign[t] * incidence[t][r] * incidence[u][r]
                    if u not in sign:
                        sign[u] = x
                        todo.append(u)
                    elif sign[u] != x:
                        raise ValueError("the diamond signs of a cell are inconsistent")
            if len(sign) != len(facets):
                raise ValueError("the sign walk of a cell misses a facet")
    boundary = [[position[t] for t in down[s]] for s in cells]
    return boundary, [[incidence[s][t] for t in down[s]] for s in cells], offset


def salvetti_chains(p) -> tuple[list[list[int]], list[tuple[int, ...]], list[int]]:
    """Salvetti's boundary on a finite Salvetti poset p, face by face, in
    `_chain_homology`'s form: the cells (w, T) in p's order, which is by
    dimension |T|, each with the cells it covers in index order, and

        [(w, T) : (w b, T - s)] = (-1)^#{t in T : t < s} (-1)^l(b),

    t < s in vertex order.  (-1)^l is a character of W, so (-1)^l(b) is
    (-1)^(l(w) + l(w b)), read off the two cells' elements."""
    boundary = [[] for _ in p.elements]
    for a, ups in enumerate(p._up):
        for c in ups:
            boundary[c].append(a)
    names = p.elements[0][0].diagram.vertices
    sign = {}  # per T, per face T - s: (-1)^#{t in T : t < s}
    for T in dict.fromkeys(T for _, T in p.elements):
        sign[T] = {T - {s}: (-1) ** i for i, s in enumerate(t for t in names if t in T)}
    parity = [(-1) ** u.length for u, _ in p.elements]
    coefficients = [tuple(sign[T][p.elements[b][1]] * parity[a] * parity[b] for b in faces)
                    for a, ((_, T), faces) in enumerate(zip(p.elements, boundary))]
    counts = collections.Counter(len(T) for _, T in p.elements)
    offset = list(itertools.accumulate((counts[k] for k in range(len(counts))), initial=0))
    return boundary, coefficients, offset
