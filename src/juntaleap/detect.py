"""Detectable-set systems C_SQ, C_CSQ, C_DLQ_l and their witnesses.

A subset U of the support is detectable for query model A when some test
function T in Psi_A and zero-mean coordinate functions T_i give
E[T(y) prod_{i in U} T_i(z_i)] != 0. Expanding the T_i in an orthonormal
basis reduces every verdict to the conditional moment tensor
G[a, j] = E[1{y=a} prod psi_{j_i}(z_i)]:

* SQ:   U detectable iff some column G[., j] is nonzero (the witness label
        function is xi_U(y) = E[prod psi_{j_i}(z_i) | y]).
* CSQ:  iff sum_a y_a G[a, j] != 0 for some j (T is the identity).
* DLQ:  iff sum_a l'(u, y_a) G[a, j] != 0 for some j and some u; u ranges
        over a grid that includes the derivative's branch points, so for
        piecewise losses the realizable threshold functions are all hit.

All decisions are made on normalized values |E| / (||T|| prod ||T_i||) with
an absolute tolerance; the expectations themselves are exact sums. One
moment table (fourier.moment_table) holds G for every basis tuple; each
model scores its columns and keeps, per support mask, the best column.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# conditional_moment_tensor stays a name of this module: perfbench/spans.py
# wraps the detection layers where this module looks them up
from .fourier import OrthonormalBasis, conditional_moment_tensor, gram_schmidt, moment_table  # noqa: F401
from .junta import JuntaProblem
from .losses import LossSpec
from .setsystem import INFINITY, SetSystem, coords_from_mask, cover, leap, rel_cover, rel_leap

DETECT_TOL = 1e-9
_NEGLIGIBLE_MASS = 1e-300


@dataclass(frozen=True)
class Witness:
    """Normalized test functions certifying one detectable set.

    t_label tabulates T on the labels, t_coords the zero-mean T_i on the
    atoms of X; ||T||_{mu_y} * prod ||T_i||_{mu_x} = 1 and beta is the exact
    expectation re-evaluable through joint_expectation.
    """

    coords: tuple[int, ...]
    t_label: np.ndarray
    t_coords: dict[int, np.ndarray]
    beta: float
    u_value: float | None = None


@dataclass
class DetectReport:
    model: str
    p: int
    system: SetSystem
    witnesses: dict[int, Witness]
    beta: float | None
    tol: float
    loss: LossSpec | None = None
    grid_negatives: tuple[int, ...] = ()

    def to_dict(self) -> dict:
        def num(x):
            return "infinity" if x is INFINITY else x

        lp, cv, rl, rc = exponents(self)
        wit = {}
        for mask, w in self.witnesses.items():
            wit[",".join(str(c) for c in w.coords)] = {
                "t_label": w.t_label.tolist(),
                "t_coords": {str(i): t.tolist() for i, t in w.t_coords.items()},
                "beta": w.beta,
                "u": w.u_value,
            }
        return {
            "model": self.model,
            "P": self.p,
            "sets": [list(s) for s in self.system.members_as_coords()],
            "leap": num(lp),
            "cover": num(cv),
            "rel_leap": rl,
            "rel_cover": rc,
            "beta": self.beta,
            "tol": self.tol,
            "loss": self.loss.name if self.loss is not None else None,
            "grid_negatives": [list(coords_from_mask(m)) for m in self.grid_negatives],
            "witnesses": wit,
        }


def exponents(report: DetectReport):
    """(leap, cover, rel_leap, rel_cover) of the detected system.

    rel entries are None for an empty system, where the relative notions are
    undefined (degenerate support).
    """
    system = report.system
    lp = leap(system)
    cv = cover(system)
    if system.support == 0:
        return lp, cv, None, None
    return lp, cv, rel_leap(system), rel_cover(system)


def _column_masks(p: int, size: int) -> np.ndarray:
    """Support mask of every flattened table column: bit i-1 set iff j_i >= 1."""
    masks = np.zeros(1, dtype=np.int64)
    for i in range(p):
        masks = (masks[:, None] | np.where(np.arange(size) > 0, 1 << i, 0)).ravel()
    return masks


def _report(problem, basis, tol, model, score, row, t_label, loss=None, u_values=None):
    """Per support mask, the column with the highest score decides the set
    and gives its witness; ties go to the lowest test row, then the lowest
    basis tuple (coordinate 1 the most significant digit). t_label(r, col)
    is the normalized label table of test row r on column col."""
    masks = _column_masks(problem.p, basis.size)
    order = np.lexsort((row, -score, masks))  # stable: lowest column first among ties
    best = order[np.flatnonzero(np.diff(masks[order], prepend=-1))]  # best[mask], every mask occurs
    detected: list[int] = []
    witnesses: dict[int, Witness] = {}
    misses: list[int] = []
    for mask in sorted(range(1, len(best)), key=lambda m: (m.bit_count(), m)):
        col = best[mask]
        if score[col] > tol:
            detected.append(mask)
            coords = coords_from_mask(mask)
            digits = np.unravel_index(col, (basis.size,) * problem.p)
            t_coords = {i: basis.psi[digits[i - 1]].copy() for i in coords}
            lab = t_label(row[col], col)
            beta = problem.joint_expectation(lab, t_coords, coords)
            u_val = None if u_values is None else float(u_values[row[col]])
            witnesses[mask] = Witness(coords, lab, t_coords, beta, u_val)
        elif loss is not None:
            misses.append(mask)
    system = SetSystem(problem.p, tuple(detected))
    beta = min((abs(w.beta) for w in witnesses.values()), default=None)
    return DetectReport(model, problem.p, system, witnesses, beta, tol, loss, tuple(misses))


def detect_sq(problem: JuntaProblem, tol: float = DETECT_TOL, basis: OrthonormalBasis | None = None) -> DetectReport:
    """C_SQ via the conditional-expectation criterion: U is detectable iff
    xi_U(y) = E[prod psi_{j_i}(z_i) | y] has positive norm for some basis tuple."""
    if basis is None:
        basis = gram_schmidt(problem.marginal)
    mu_y = problem.mu_y
    attained = mu_y > _NEGLIGIBLE_MASS
    g = moment_table(problem, basis).reshape(problem.ny, -1)
    xi = np.zeros_like(g)
    xi[attained] = g[attained] / mu_y[attained, None]
    norms = np.sqrt(mu_y @ xi**2)  # ||xi||_{mu_y} per basis tuple
    row = np.zeros(g.shape[1], dtype=np.int64)  # one test function per column
    return _report(problem, basis, tol, "SQ", norms, row, lambda r, col: xi[:, col] / norms[col])


def _detect_linear(problem, basis, tol, t_rows, model, loss=None, u_values=None):
    """Shared CSQ/DLQ scan: each row of t_rows is a candidate T over labels.

    The (rows, columns) score matrix is reduced in column chunks of at most
    max(table size, 2^16) entries, keeping per column its best score and
    test row."""
    t_rows = np.asarray(t_rows, dtype=float)
    norms = np.sqrt(t_rows**2 @ problem.mu_y)
    usable = norms > 0
    g = moment_table(problem, basis).reshape(problem.ny, -1)
    n_cols = g.shape[1]
    score = np.empty(n_cols)
    row = np.empty(n_cols, dtype=np.int64)
    step = max(1, max(g.size, 1 << 16) // len(t_rows))
    for lo in range(0, n_cols, step):
        chunk = g[:, lo:lo + step]
        s = np.zeros((len(t_rows), chunk.shape[1]))
        s[usable] = np.abs(t_rows[usable] @ chunk) / norms[usable, None]
        row[lo:lo + step] = np.argmax(s, axis=0)
        score[lo:lo + step] = np.max(s, axis=0)
    return _report(problem, basis, tol, model, score, row, lambda r, col: t_rows[r] / norms[r], loss, u_values)


def detect_csq(problem: JuntaProblem, tol: float = DETECT_TOL, basis: OrthonormalBasis | None = None) -> DetectReport:
    """C_CSQ: the label test is the identity, so U is detectable iff some
    basis tuple has E[y prod psi_{j_i}(z_i)] != 0."""
    labels = problem.labels_numeric()
    if basis is None:
        basis = gram_schmidt(problem.marginal)
    return _detect_linear(problem, basis, tol, labels[None, :], "CSQ")


def default_u_grid(loss: LossSpec, labels, n_uniform: int = 64, n_random: int = 16, seed: int = 1234) -> np.ndarray:
    """Evaluation points for the DLQ derivative test functions l'(u, .).

    Uniform points on [-R, R] with R = 4 max|label|, u = 0, seeded random
    points (zero sets of analytic derivatives have measure zero, so these
    find a nonzero u whenever one exists), and for piecewise losses the
    branch points, their midpoints, and points beyond both extremes.
    """
    labels = np.asarray(labels, dtype=float)
    r = 4.0 * float(np.max(np.abs(labels))) if np.any(labels != 0) else 1.0
    rng = np.random.default_rng(seed)
    pts = [np.linspace(-r, r, n_uniform), np.zeros(1), rng.uniform(-r, r, n_random)]
    bps = np.unique(loss.breakpoints_for(labels))
    if bps.size:
        pts.append(bps)
        if bps.size > 1:
            pts.append((bps[:-1] + bps[1:]) / 2.0)
        pts.append(np.array([bps[0] - 1.0, bps[-1] + 1.0]))
    return np.unique(np.concatenate(pts))


def detect_dlq(
    problem: JuntaProblem,
    loss: LossSpec,
    u_grid=None,
    tol: float = DETECT_TOL,
    basis: OrthonormalBasis | None = None,
    grid_seed: int = 1234,
) -> DetectReport:
    """C_DLQ_l: the label tests are the derivative slices l'(u, .) over u_grid.

    A single test function per query suffices: the detectability functional is
    linear in T, so a nonzero value over span{l'(u, .)} implies one at some u.
    Sets missed by every grid point are recorded in grid_negatives (a false
    negative needs the whole grid to land in the derivative's zero set).
    """
    labels = problem.labels_numeric()
    if basis is None:
        basis = gram_schmidt(problem.marginal)
    if u_grid is None:
        u_grid = default_u_grid(loss, labels, seed=grid_seed)
    u_grid = np.asarray(u_grid, dtype=float)
    if u_grid.size == 0:
        raise ValueError("u_grid must be non-empty")
    t_rows = loss.deriv(u_grid[:, None], labels[None, :])
    return _detect_linear(
        problem, basis, tol, t_rows, f"DLQ[{loss.name}]", loss=loss, u_values=u_grid
    )


def detect(problem: JuntaProblem, model: str, loss: LossSpec | None = None, **kw) -> DetectReport:
    if model == "SQ":
        return detect_sq(problem, **kw)
    if model == "CSQ":
        return detect_csq(problem, **kw)
    if model == "DLQ":
        if loss is None:
            raise ValueError("DLQ detection needs a loss")
        return detect_dlq(problem, loss, **kw)
    raise ValueError(f"unknown query model {model!r}")
