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

    t_label tabulates T on the labels, and tables the zero-mean T_i on the
    atoms of X, one per entry of coords and in that order (the slot order of
    a Query): read-only rows of the basis's psi, not copies.
    ||T||_{mu_y} * prod ||T_i||_{mu_x} = 1 and beta is the signed score that
    chose them, the exact E[T(y) prod T_i(z_i)] of the moment table.
    """

    coords: tuple[int, ...]
    t_label: np.ndarray
    tables: tuple[np.ndarray, ...]
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

    def summary(self) -> dict:
        """The detected sets, their exponents and the smallest |beta|."""
        def num(x):
            return "infinity" if x is INFINITY else x

        lp, cv, rl, rc = exponents(self)
        return {
            "sets": [list(s) for s in self.system.members_as_coords()],
            "leap": num(lp),
            "cover": num(cv),
            "rel_leap": rl,
            "rel_cover": rc,
            "beta": self.beta,
        }

    def to_dict(self) -> dict:
        wit = {}
        for w in self.witnesses.values():
            wit[",".join(str(c) for c in w.coords)] = {
                "t_label": w.t_label.tolist(),
                "t_coords": {str(i): t.tolist() for i, t in zip(w.coords, w.tables)},
                "beta": w.beta,
                "u": w.u_value,
            }
        return {
            "model": self.model,
            "P": self.p,
            **self.summary(),
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


def check_detect_params(tol=DETECT_TOL, u_grid=None) -> None:
    """A detection tolerance must be a finite number >= 0, and a DLQ grid
    u_grid (None for the default one) a non-empty sequence of finite numbers."""
    if not (np.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be finite and >= 0, got {tol!r}")
    if u_grid is not None:
        grid = np.asarray(u_grid, dtype=float)
        if grid.size == 0 or not np.isfinite(grid).all():
            raise ValueError(f"u_grid must be non-empty and finite, got {u_grid!r}")


def _report(problem, basis, tol, model, value, row, t_label, loss=None, u_values=None):
    """Per support mask, the column of largest |value| decides the set and
    gives its witness, whose beta is value[col]; ties go to the lowest test
    row, then the lowest basis tuple (coordinate 1 the most significant digit).
    t_label(r, col) is the normalized label table of test row r on column col."""
    p = problem.p
    masks = np.zeros(1, dtype=np.int64)  # support mask of every column: bit i-1 set iff j_i >= 1
    for i in range(p):
        masks = (masks[:, None] | np.where(np.arange(basis.size) > 0, 1 << i, 0)).ravel()
    score = np.abs(value)
    order = np.lexsort((row, -score, masks))  # stable: lowest column first among ties
    best = order[np.flatnonzero(np.diff(masks[order], prepend=-1))]  # best[mask], every mask occurs
    ranked = np.arange(1, len(best))
    ranked = ranked[np.argsort(sum((ranked >> i) & 1 for i in range(p)), kind="stable")]  # by (size, mask)
    hit = score[best[ranked]] > tol
    cols = best[ranked[hit]]
    digits = np.stack(np.unravel_index(cols, (basis.size,) * p), axis=1)
    psi = basis.psi.view()
    psi.flags.writeable = False
    psi_rows = list(psi)  # the witnesses' slot tables: shared, read-only rows
    witnesses: dict[int, Witness] = {}
    for mask, col, dig in zip(ranked[hit].tolist(), cols.tolist(), digits.tolist()):
        # digits >= 1 mark the coordinates of the mask
        coords = tuple(i for i, j in enumerate(dig, 1) if j)
        tables = tuple(psi_rows[j] for j in dig if j)
        u_val = None if u_values is None else float(u_values[row[col]])
        witnesses[mask] = Witness(coords, t_label(row[col], col), tables, float(value[col]), u_val)
    beta = float(score[cols].min()) if cols.size else None
    misses = tuple(ranked[~hit].tolist()) if loss is not None else ()
    return DetectReport(model, p, SetSystem(p, tuple(witnesses)), witnesses, beta, tol, loss, misses)


def _moments(problem, basis, table):
    """The basis and its moment table, shaped (|Y|, columns); a table passed in
    must be moment_table(problem, basis), and what is not passed is built."""
    if basis is None:
        basis = gram_schmidt(problem.marginal)
    if table is None:
        table = moment_table(problem, basis)
    return basis, table.reshape(problem.ny, -1)


def detect_sq(
    problem: JuntaProblem,
    tol: float = DETECT_TOL,
    basis: OrthonormalBasis | None = None,
    table: np.ndarray | None = None,
) -> DetectReport:
    """C_SQ via the conditional-expectation criterion: U is detectable iff
    xi_U(y) = E[prod psi_{j_i}(z_i) | y] has positive norm for some basis tuple."""
    check_detect_params(tol)
    basis, g = _moments(problem, basis, table)
    mu_y = problem.mu_y
    attained = mu_y > _NEGLIGIBLE_MASS
    xi = np.zeros_like(g)
    xi[attained] = g[attained] / mu_y[attained, None]
    norms = np.sqrt(mu_y @ xi**2)  # ||xi||_{mu_y} per basis tuple
    row = np.zeros(g.shape[1], dtype=np.int64)  # one test function per column; its beta is the norm
    return _report(problem, basis, tol, "SQ", norms, row, lambda r, col: xi[:, col] / norms[col])


def _detect_linear(problem, basis, g, tol, t_rows, model, loss=None, u_values=None):
    """Shared CSQ/DLQ scan over the moment table g: each row of t_rows is a
    candidate T over labels.

    The (rows, columns) matrix of normalized expectations is reduced in column
    chunks of at most max(table size, 2^16) entries, keeping per column the
    test row of largest magnitude and its signed value. A row whose norm is
    not finite and positive scores 0."""
    t_rows = np.asarray(t_rows, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.sqrt(t_rows**2 @ problem.mu_y)
    usable = np.isfinite(norms) & (norms > 0)
    n_cols = g.shape[1]
    value = np.empty(n_cols)
    row = np.empty(n_cols, dtype=np.int64)
    step = max(1, max(g.size, 1 << 16) // len(t_rows))
    for lo in range(0, n_cols, step):
        chunk = g[:, lo:lo + step]
        v = np.zeros((len(t_rows), chunk.shape[1]))
        v[usable] = (t_rows[usable] @ chunk) / norms[usable, None]
        best = np.argmax(np.abs(v), axis=0)
        row[lo:lo + step] = best
        value[lo:lo + step] = np.take_along_axis(v, best[None], axis=0)[0]
    return _report(problem, basis, tol, model, value, row, lambda r, col: t_rows[r] / norms[r], loss, u_values)


def detect_csq(
    problem: JuntaProblem,
    tol: float = DETECT_TOL,
    basis: OrthonormalBasis | None = None,
    table: np.ndarray | None = None,
) -> DetectReport:
    """C_CSQ: the label test is the identity, so U is detectable iff some
    basis tuple has E[y prod psi_{j_i}(z_i)] != 0."""
    check_detect_params(tol)
    labels = problem.labels_numeric()
    basis, g = _moments(problem, basis, table)
    return _detect_linear(problem, basis, g, tol, labels[None, :], "CSQ")


def default_u_grid(loss: LossSpec, labels) -> np.ndarray:
    """Evaluation points for the DLQ derivative test functions l'(u, .).

    64 uniform points on [-R, R] with R = 4 max|label|, u = 0, 16 random
    points drawn with seed 1234 (zero sets of analytic derivatives have
    measure zero, so these find a nonzero u whenever one exists), and for
    piecewise losses the branch points, their midpoints, and points beyond
    both extremes.
    """
    labels = np.asarray(labels, dtype=float)
    r = 4.0 * float(np.max(np.abs(labels))) if np.any(labels != 0) else 1.0
    rng = np.random.default_rng(1234)
    pts = [np.linspace(-r, r, 64), np.zeros(1), rng.uniform(-r, r, 16)]
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
    table: np.ndarray | None = None,
) -> DetectReport:
    """C_DLQ_l: the label tests are the derivative slices l'(u, .) over u_grid.

    A single test function per query suffices: the detectability functional is
    linear in T, so a nonzero value over span{l'(u, .)} implies one at some u.
    Sets missed by every grid point are recorded in grid_negatives (a false
    negative needs the whole grid to land in the derivative's zero set).
    """
    check_detect_params(tol, u_grid)
    labels = problem.labels_numeric()
    basis, g = _moments(problem, basis, table)
    if u_grid is None:
        u_grid = default_u_grid(loss, labels)
    u_grid = np.asarray(u_grid, dtype=float)
    # l'(u, .) may overflow at a far grid point (the exponential loss); such
    # a row is not used
    with np.errstate(over="ignore", invalid="ignore"):
        t_rows = loss.deriv(u_grid[:, None], labels[None, :])
    return _detect_linear(
        problem, basis, g, tol, t_rows, f"DLQ[{loss.name}]", loss=loss, u_values=u_grid
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
