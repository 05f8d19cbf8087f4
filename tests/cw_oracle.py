"""The diamond sign walk: a second producer of cellular chains for a
regular CW complex, from its face poset alone, kept as the oracle for
Salvetti's boundary formula in `complexes._salvetti_chains`.  It shares
only `Poset`'s cover table with the library.

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

