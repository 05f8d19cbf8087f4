"""Reflection representation over R^n: bilinear form, matrices, signature.

Everything here is double precision with explicit tolerances.  Labels such
as 5 or 7 force irrational cosines, so exact arithmetic is not attempted;
the exact classification in module diagram stays the authority on
finiteness, and these numerics serve as a cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .diagram import INF, CoxeterDiagram

DEFAULT_TOL = 1e-8


@dataclass(frozen=True)
class SignatureReport:
    """Eigenvalue sign counts of the bilinear form at a given tolerance."""

    n_pos: int
    n_zero: int
    n_neg: int
    tol: float
    eigenvalues: tuple[float, ...]


def bilinear_form(d: CoxeterDiagram) -> np.ndarray:
    """Symmetric matrix with unit diagonal and -cos(pi/m) off-diagonal.

    An infinite label contributes -1; label 2 contributes exactly 0.0.
    """
    n = d.rank
    B = np.eye(n)
    for s, t, m in d.edges:
        i, j = d.index(s), d.index(t)
        B[i, j] = B[j, i] = -1.0 if m == INF else -math.cos(math.pi / m)
    return B


def reflection_matrices(d: CoxeterDiagram) -> list[np.ndarray]:
    """One matrix per generator, acting by v -> v - 2 B(e_i, v) e_i."""
    B = bilinear_form(d)
    out = []
    for i in range(d.rank):
        M = np.eye(d.rank)
        M[i, :] -= 2.0 * B[i, :]
        out.append(M)
    return out


def _check_tol(tol: float) -> None:
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tolerance must be positive, got {tol}")


def signature(B: np.ndarray, tol: float = DEFAULT_TOL) -> SignatureReport:
    """Bucket the eigenvalues of a symmetric matrix by sign at tolerance tol."""
    _check_tol(tol)
    eigs = np.linalg.eigvalsh(B)
    n_pos = int(np.sum(eigs > tol))
    n_neg = int(np.sum(eigs < -tol))
    n_zero = len(eigs) - n_pos - n_neg
    return SignatureReport(n_pos, n_zero, n_neg, tol, tuple(float(e) for e in eigs))


def word_to_matrix(d: CoxeterDiagram, word) -> np.ndarray:
    """Ordered product of reflection matrices along the word."""
    sigmas = reflection_matrices(d)
    M = np.eye(d.rank)
    for letter in word:
        M = M @ sigmas[d.index(letter)]
    return M


def pair_order(
    d: CoxeterDiagram,
    s: str,
    t: str,
    tol: float = 1e-9,
    cap: int | None = None,
) -> int | None:
    """Smallest k >= 1 with (sigma_s sigma_t)^k = I, or None if none <= cap.

    The default cap is 4 * max(m_st) over the finite labels of the diagram,
    so an infinite pair reports None rather than looping.
    """
    return _pair_order(d, reflection_matrices(d), s, t, tol, cap)


def _pair_order(d: CoxeterDiagram, sigmas: list[np.ndarray], s: str, t: str, tol: float,
                cap: int | None = None) -> int | None:
    """`pair_order` on the reflection matrices `sigmas` of d, which a caller
    that asks about many pairs builds once."""
    _check_tol(tol)
    if cap is None:
        cap = 4 * max((m for _, _, m in d.edges if m != INF), default=2)
    M = np.eye(d.rank) @ sigmas[d.index(s)] @ sigmas[d.index(t)]  # as word_to_matrix does
    P = M.copy()
    eye = np.eye(d.rank)
    for k in range(1, cap + 1):
        if np.max(np.abs(P - eye)) < tol:
            return k
        P = P @ M
    return None
