"""Integer simplicial homology by Smith normal form of the full boundary
matrices, with no coreduction first, kept as a test oracle for
`complexes.homology`."""

from artin.complexes import HomologyResult, invariant_factors


def plain_homology(c) -> HomologyResult:
    faces = c.faces_by_dim()
    if not faces:
        return HomologyResult((), ())
    dim = len(faces) - 1
    position = [{f: i for i, f in enumerate(fs)} for fs in faces]
    factors = []  # factors[k]: invariant factors of boundary_(k+1)
    for k in range(dim):
        rows: dict[int, dict[int, int]] = {}
        for j, face in enumerate(faces[k + 1]):
            for i in range(len(face)):
                sub = face[:i] + face[i + 1 :]
                rows.setdefault(position[k][sub], {})[j] = (-1) ** i
        factors.append(invariant_factors(rows))
    betti, torsion = [], []
    for k in range(dim + 1):
        rank_out = len(factors[k - 1]) if k >= 1 else 0
        rank_in = len(factors[k]) if k < dim else 0
        betti.append(len(faces[k]) - rank_out - rank_in)
        torsion.append(tuple(t for t in factors[k] if t > 1) if k < dim else ())
    return HomologyResult(tuple(betti), tuple(torsion))
