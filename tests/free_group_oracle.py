"""Artin's action of the braid group on the free group, kept as a test oracle
for the word problem in types A and B.

Br_n acts faithfully on F_n = <x_1, ..., x_n> (Artin, Abh. Math. Sem.
Hamburg 4, 1925): sigma_i sends x_i to x_i x_(i+1) x_i^-1 and x_(i+1) to
x_i, and fixes the other generators.  A(A_n) is Br_(n+1), its i-th preset
generator sigma_i.  A(B_n) embeds in Br_(n+1) by t -> sigma_1^2 and
s_i -> sigma_(i+1), t the generator at the label-4 end (Crisp, "Injective
maps between Artin groups", 1999).  The positive monoid injects into the
group (Paris, Comment. Math. Helv. 77, 2002), so the same images decide
equality of positive words.  Two words are equal exactly when their
automorphisms send every x_j to the same reduced word.

Free words are tuples of nonzero integers, j for x_j and -j for x_j^-1.
Images grow exponentially with the braid word, so keep words short.
"""


def _reduce(word) -> tuple[int, ...]:
    out = []
    for x in word:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def _inverse(word) -> tuple[int, ...]:
    return tuple(-x for x in reversed(word))


def braid_letters(d, word) -> list[int]:
    """The Br_(n+1) letters (i for sigma_i, -i for its inverse) of a signed
    word [(generator, +-1), ...] over a preset of type A_n or B_n."""
    v = d.vertices
    labels = [d.m(a, b) for a, b in zip(v, v[1:])]
    if len(d.edges) != len(labels) or labels[1:] != [3] * (len(labels) - 1) or (
            labels and labels[0] not in (3, 4)):
        raise ValueError("the oracle decides types A and B, a path in vertex order, only")
    square = labels[:1] == [4]  # type B: the first vertex is t, at the label-4 end
    place = {s: i + 1 for i, s in enumerate(v)}
    out = []
    for s, e in word:
        i = place[s]
        out += [e, e] if square and i == 1 else [e * i]
    return out


def _sigma(i: int, n: int) -> list[tuple[int, ...]]:
    """Images of x_1 ... x_n under sigma_i (i > 0) or sigma_|i|^-1 (i < 0)."""
    images = [(j,) for j in range(1, n + 1)]
    a = abs(i)
    if i > 0:
        images[a - 1], images[a] = (a, a + 1, -a), (a,)
    else:
        images[a - 1], images[a] = (a + 1,), (-(a + 1), a, a + 1)
    return images


def action(d, word) -> tuple[tuple[int, ...], ...]:
    """The images of x_1 ... x_(n+1) under the automorphism of a signed word,
    a product of sigmas composed left to right, phi_(uv) = phi_u phi_v."""
    n = d.rank + 1
    images = [(j,) for j in range(1, n + 1)]
    for i in braid_letters(d, word):
        images = [
            _reduce(x for y in new for x in (images[y - 1] if y > 0 else _inverse(images[-y - 1])))
            for new in _sigma(i, n)
        ]
    return tuple(images)


def equal(d, u, v) -> bool:
    """Whether two signed words name the same element of A(d)."""
    return action(d, u) == action(d, v)


def strand_permutation(d, word) -> tuple[int, ...]:
    """Type A_n: the permutation of 0 ... n that a word's strands make,
    sigma_i swapping places i - 1 and i, signs ignored."""
    if braid_letters(d, [(s, 1) for s in d.vertices[:1]]) != [1]:
        raise ValueError("strand permutations are for type A")
    place = {s: i for i, s in enumerate(d.vertices)}
    perm = list(range(d.rank + 1))
    for s, _ in word:
        i = place[s]
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
    return tuple(perm)

