"""Orthonormal bases for L2(mu_x), parity transforms, and moment tensors.

Parity (Walsh) transforms index tables and coefficient vectors the same way:
bit k-1 of the index is coordinate k, with bit value 1 meaning symbol -1 on
the uniform hypercube. That matches the row order of the JuntaProblem
tables that junta.expand_hypercube builds (marginal values (+1, -1)), whose
clean labels it tabulates with inverse_wht.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .junta import FiniteMarginal, JuntaProblem

ORTHO_TOL = 1e-10


@dataclass(frozen=True)
class OrthonormalBasis:
    """Row j of psi tabulates the basis function psi_j on the atoms of mu_x."""

    marginal: FiniteMarginal
    psi: np.ndarray

    @property
    def size(self) -> int:
        return self.psi.shape[0]


def gram_schmidt(marginal: FiniteMarginal) -> OrthonormalBasis:
    """Orthonormal basis of L2(mu_x) with psi_0 = 1.

    Seeds with monomials 1, x, x^2, ... in ascending degree and
    orthogonalizes twice for stability. Any orthonormal basis with psi_0 = 1
    yields the same detectability verdicts. It is orthonormal on the atoms of
    positive probability and tabulated on every atom, with psi_0 = 1 and
    psi_j = 0 (j >= 1) on an atom of probability 0.
    """
    kept = marginal.probs > 0
    n = int(np.count_nonzero(kept))
    vals = marginal.values[kept]
    probs = marginal.probs[kept]
    seeds = np.vander(vals, n, increasing=True).T.astype(float)

    def project(v, basis_rows):
        for b in basis_rows:
            v = v - (probs @ (v * b)) * b
        return v

    rows: list[np.ndarray] = []
    for k in range(n):
        v = project(seeds[k].astype(float), rows)
        v = project(v, rows)  # one re-orthogonalization pass
        norm = np.sqrt(probs @ v**2)
        if norm < 1e-8:
            raise ValueError("numerically degenerate marginal: seed functions not independent")
        rows.append(v / norm)
    psi = np.vstack(rows)
    psi[0] = 1.0  # exact constant

    gram = (psi * probs) @ psi.T
    if np.max(np.abs(gram - np.eye(n))) > ORTHO_TOL:
        raise ValueError("orthonormalization failed the tolerance check")
    if np.max(np.abs(psi[1:] @ probs)) > ORTHO_TOL:
        raise ValueError("zero-mean check failed for psi_j, j >= 1")
    full = np.zeros((n, marginal.nx))
    full[0] = 1.0
    full[:, kept] = psi
    return OrthonormalBasis(marginal, full)


# ---------------------------------------------------------------------------
# Fast parity (Walsh) transform
# ---------------------------------------------------------------------------


def _transform_axes(psi: np.ndarray, g: np.ndarray, p: int) -> np.ndarray:
    """Apply psi along each of the p axes of g, an (m, n^p) array read as
    (m, n, ..., n); the axes keep their order. Cost O(m p n^(p+1))."""
    m, n = g.shape[0], psi.shape[1]
    for _ in range(p):
        # transform the trailing axis and rotate it to the front
        g = (g.reshape(m, -1, n) @ psi.T).transpose(0, 2, 1)
    return g.reshape(m, -1)


def wht(table) -> np.ndarray:
    """Parity coefficients of a table on the uniform hypercube.

    Entry at mask U is E_{z ~ Unif}[table(z) chi_U(z)]; inverse_wht undoes it.
    """
    a = inverse_wht(table)  # the parity transform is its own inverse up to 1/n
    return a / a.size


def inverse_wht(coeffs) -> np.ndarray:
    """Tabulate sum_U coeffs[U] chi_U(z) over all hypercube points."""
    a = np.asarray(coeffs, dtype=float)
    n = a.size
    if n & (n - 1) or n == 0:
        raise ValueError(f"length must be a power of two, got {n}")
    return _transform_axes(np.array([[1.0, 1.0], [1.0, -1.0]]), a.reshape(1, n), n.bit_length() - 1)[0]


# ---------------------------------------------------------------------------
# Moment tables
# ---------------------------------------------------------------------------


def moment_table(problem: JuntaProblem, basis: OrthonormalBasis) -> np.ndarray:
    """Exact G[a, j_1..j_P] = E[1{y=a} prod_i psi_{j_i}(z_i)] for every basis tuple.

    Shape (|Y|,) + (basis.size,)*P, axis i the coordinate i; psi_0 = 1, so
    the support {i : j_i >= 1} of a column is the set it measures. psi is
    applied one coordinate axis at a time to row_weights * cond, at cost
    O(|Y| P |X|^(P+1)). This one table decides SQ, CSQ and DLQ detection.
    """
    if basis.psi.shape[1] != problem.marginal.nx:
        raise ValueError("basis tabulated on a different atom set")
    ny, nx, p = problem.ny, problem.marginal.nx, problem.p
    # rows run with coordinate 1 fastest; reverse the axes so coordinate 1 leads
    g = (problem.row_weights[:, None] * problem.cond).T.reshape((ny,) + (nx,) * p)
    g = g.transpose(0, *range(p, 0, -1)).reshape(ny, -1)
    return _transform_axes(basis.psi, g, p).reshape((ny,) + (basis.size,) * p)


def support_slice(table: np.ndarray, u: Iterable[int]) -> np.ndarray:
    """The moments of `table` with j_i >= 1 for i in U and j_i = 0 elsewhere,
    shape (|Y|,) + (size-1,)*|U| with the coordinates of U in ascending order."""
    u = set(u)
    return table[(slice(None),) + tuple(slice(1, None) if i in u else 0 for i in range(1, table.ndim))]


def conditional_moment_tensor(
    problem: JuntaProblem, basis: OrthonormalBasis, u: Iterable[int]
) -> np.ndarray:
    """Exact G[a, j_1..j_m] = E[1{y=a} prod_{i in U} psi_{j_i}(z_i)], all j_i >= 1.

    Shape (|Y|,) + (|X|-1,)*|U|: the slice of moment_table on U. These are
    the only moments the detectability criteria need: a set is witnessed iff
    some entry (or some fixed label combination of entries) is nonzero.
    """
    coords = sorted(set(int(c) for c in u))
    if not coords:
        raise ValueError("U must be non-empty")
    if coords[0] < 1 or coords[-1] > problem.p:
        raise ValueError(f"coordinates {coords} outside [1, {problem.p}]")
    return support_slice(moment_table(problem, basis), coords)
