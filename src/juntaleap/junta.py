"""Finite junta problems: marginal, conditional label law, planted embeddings.

A problem is the pair (mu_x, mu_{y|z}) on a finite coordinate space X and a
finite label space Y with support size P. Everything downstream (detection,
oracles, dynamics) consumes exact expectations enumerated over X^P x Y, so
the table size |X|^P is capped.

Support-assignment rows enumerate z in X^P with coordinate 1 varying fastest:
row r has coordinate k at symbol index (r // nx^(k-1)) % nx, symbols ordered
as in marginal.values.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from numbers import Integral, Real
from typing import Iterable, Mapping, Sequence

import numpy as np

# |X|^P cap on a problem's table: a problem at the cap holds cond and the row weights, 8 * (|Y| + 1) * 10^7 B
MAX_TABLE_ROWS = 10**7
_PROB_TOL = 1e-12
# entries of one row chunk of int64 symbols in Sampler.draw_symbols and draw_batch (512 KB)
DRAW_CHUNK_ENTRIES = 1 << 16


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


class FiniteMarginal:
    """A finite distribution mu_x over real coordinate symbols."""

    def __init__(self, values: Sequence[float], probs: Sequence[float]):
        values = np.asarray(values, dtype=float)
        probs = np.asarray(probs, dtype=float)
        if values.ndim != 1 or values.shape != probs.shape:
            raise ValueError("values and probs must be 1-D of equal length")
        if np.any(probs < 0):
            raise ValueError("probabilities must be nonnegative")
        if abs(probs.sum() - 1.0) > _PROB_TOL:
            raise ValueError(f"probabilities sum to {probs.sum()!r}, not 1")
        if np.count_nonzero(probs > 0) < 2:
            raise ValueError("marginal needs at least 2 atoms with positive probability")
        if len(np.unique(values)) != len(values):
            raise ValueError("marginal atoms must be distinct")
        self.values = _readonly(values)
        self.probs = _readonly(probs)

    @property
    def nx(self) -> int:
        return self.values.size

    def mean(self, table) -> float:
        """E_{mu_x}[f] for f tabulated on the atoms."""
        table = np.asarray(table, dtype=float)
        if table.shape != (self.nx,):
            raise ValueError(f"table must have length {self.nx}")
        return float(self.probs @ table)

    def to_dict(self) -> dict:
        return {"values": self.values.tolist(), "probs": self.probs.tolist()}

    @classmethod
    def from_dict(cls, d: Mapping) -> "FiniteMarginal":
        return cls(d["values"], d["probs"])

    def is_uniform_hypercube(self) -> bool:
        return (
            self.nx == 2
            and set(self.values.tolist()) == {1.0, -1.0}
            and abs(self.probs[0] - 0.5) <= _PROB_TOL
        )


def uniform_hypercube_marginal() -> FiniteMarginal:
    return FiniteMarginal([1.0, -1.0], [0.5, 0.5])


def _check_rows(cond: np.ndarray) -> None:
    """Raise ValueError unless every row of cond is a probability vector, up
    to _PROB_TOL. Takes no mask or copy of cond, and one row-sized array that
    is freed on return: min and max propagate NaN and +-inf, and initial=0.0
    lets a cond without labels through to the row sums."""
    lo, hi = cond.min(initial=0.0), cond.max(initial=0.0)
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ValueError("cond entries must be finite")
    if lo < -_PROB_TOL:
        raise ValueError("cond entries must be nonnegative")
    deviation = cond.sum(axis=1)
    deviation -= 1.0
    if np.abs(deviation, out=deviation).max() > _PROB_TOL:
        raise ValueError("every cond row must sum to 1")


class JuntaProblem:
    """Finite junta problem: support size P, marginal mu_x, table mu_{y|z}.

    cond has one row per support assignment z (see module docstring for the
    row order) and one column per label; every row is a probability vector.
    Besides cond the problem keeps only the row weights under mu_x^P and mu_y:
    coord_symbols derives a coordinate's symbols from the row index.
    """

    def __init__(self, p: int, marginal: FiniteMarginal, labels: Sequence, cond):
        if p < 1:
            raise ValueError("support size P must be >= 1")
        nx = marginal.nx
        nrows = nx**p
        if nrows > MAX_TABLE_ROWS:
            raise ValueError(f"|X|^P = {nrows} exceeds the cap {MAX_TABLE_ROWS}")
        cond = np.array(cond, dtype=float)
        labels = tuple(labels)
        if len(set(labels)) != len(labels):
            raise ValueError("labels must be distinct")
        if cond.shape != (nrows, len(labels)):
            raise ValueError(f"cond must have shape ({nrows}, {len(labels)}), got {cond.shape}")
        _check_rows(cond)

        self.p = p
        self.marginal = marginal
        self.labels = labels
        self.cond = _readonly(np.clip(cond, 0.0, None, out=cond))

        # weight of each row under mu_x^P: each further coordinate's factor takes the leading axis, so
        # coordinate 1 varies fastest and every weight is multiplied from coordinate 1 up
        w = marginal.probs
        for _ in range(p - 1):
            w = np.multiply.outer(marginal.probs, w)
        self.row_weights = _readonly(w.reshape(nrows))
        self.mu_y = _readonly(self.row_weights @ self.cond)

    # -- basic accessors -------------------------------------------------

    @property
    def ny(self) -> int:
        return len(self.labels)

    @property
    def n_rows(self) -> int:
        return self.cond.shape[0]

    def labels_numeric(self) -> np.ndarray:
        if not all(isinstance(v, Real) for v in self.labels):
            raise ValueError("labels are not numeric; only SQ analysis applies")
        return np.asarray(self.labels, dtype=float)

    def coord_symbols(self, i: int) -> np.ndarray:
        """Symbol index of support coordinate i (1-based) for every row."""
        if not 1 <= i <= self.p:
            raise ValueError(f"coordinate {i} outside [1, {self.p}]")
        nx = self.marginal.nx
        return np.arange(self.n_rows) // nx ** (i - 1) % nx

    def coord_values(self, i: int) -> np.ndarray:
        return self.marginal.values[self.coord_symbols(i)]

    def row_index(self, symbol_matrix: np.ndarray) -> np.ndarray:
        """Row indices for an (n, P) matrix of symbol indices."""
        nx = self.marginal.nx
        radix = nx ** np.arange(self.p)
        return symbol_matrix @ radix

    # -- exact expectations ----------------------------------------------

    def joint_expectation(self, t_label, t_coords: Mapping[int, Sequence[float]], u: Iterable[int]) -> float:
        """Exact E[T(y) prod_{i in U} T_i(z_i)] by enumeration over X^P x Y.

        Each T_i multiplies the row weights along coordinate i's axis of their
        (|X|,)*P view, axis P - i in the row order."""
        t_label = np.asarray(t_label, dtype=float)
        if t_label.shape != (self.ny,):
            raise ValueError(f"label table must have length {self.ny}")
        nx = self.marginal.nx
        factor = self.row_weights.reshape((nx,) * self.p)
        for i in sorted(set(int(c) for c in u)):
            if not 1 <= i <= self.p:
                raise ValueError(f"coordinate {i} outside [1, {self.p}]")
            if i not in t_coords:
                raise ValueError(f"no coordinate table supplied for {i}")
            table = np.asarray(t_coords[i], dtype=float)
            if table.shape != (nx,):
                raise ValueError(f"coordinate table for {i} must have length {nx}")
            factor = factor * table.reshape((nx,) + (1,) * (i - 1))
        return float(factor.reshape(self.n_rows) @ (self.cond @ t_label))

    def label_expectation(self, t_label) -> float:
        t_label = np.asarray(t_label, dtype=float)
        return float(self.mu_y @ t_label)

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "P": self.p,
            "marginal": self.marginal.to_dict(),
            "labels": list(self.labels),
            "cond": self.cond.tolist(),
        }

    @classmethod
    def from_dict(cls, d: Mapping) -> "JuntaProblem":
        return cls(d["P"], FiniteMarginal.from_dict(d["marginal"]), d["labels"], d["cond"])


# ---------------------------------------------------------------------------
# Hypercube-backed problems
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LabelNoise:
    """Finite label-noise kernel applied to the clean value h(z).

    kind "flip": output -h(z) with probability rate, else h(z).
    kind "additive": output h(z) + e with e drawn from (values, probs).
    """

    kind: str
    rate: float | None = None
    values: tuple[float, ...] | None = None
    probs: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.kind == "flip":
            if self.rate is None or not 0.0 <= self.rate <= 1.0:
                raise ValueError("flip noise needs a rate in [0, 1]")
        elif self.kind == "additive":
            if self.values is None or self.probs is None:
                raise ValueError("additive noise needs values and probs")
            if np.ndim(self.values) != 1 or np.shape(self.values) != np.shape(self.probs):
                raise ValueError("additive noise values and probs must be 1-D of equal length")
            pr = np.asarray(self.probs, dtype=float)
            if np.any(pr < 0) or abs(pr.sum() - 1.0) > _PROB_TOL:
                raise ValueError("additive noise probs must be a distribution")
        else:
            raise ValueError(f"unknown noise kind {self.kind!r}")

    def outcomes(self, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The noisy label of every clean value in h as (values, probs): row r
        lists the outcomes of h[r] and their probabilities, in outcome order.
        A flip of h = 0 gives h itself with all of the mass."""
        if self.kind == "flip":
            zero = (h == 0)[:, None]
            values = np.where(zero, h[:, None], np.stack([h, -h], axis=1))
            return values, np.where(zero, [1.0, 0.0], [1.0 - self.rate, self.rate])
        probs = np.asarray(self.probs, dtype=float)
        return h[:, None] + np.asarray(self.values, dtype=float), np.broadcast_to(probs, (h.size, probs.size))

    @classmethod
    def from_dict(cls, d: Mapping) -> "LabelNoise":
        return cls(d["kind"], rate=d.get("rate"), **{k: tuple(d[k]) for k in ("values", "probs") if k in d})


# expand_hypercube's arguments as one value, which it also takes; perfbench/test_checks.py is the one caller
HypercubeJunta = namedtuple("HypercubeJunta", "p fourier noise", defaults=(None,))


def expand_hypercube(p: int, fourier: Mapping | None = None, noise: LabelNoise | None = None) -> JuntaProblem:
    """Tabulate h(z) = sum_U fourier[U] prod_{i in U} z_i on the uniform hypercube
    {+1, -1}^P, for `fourier` a map from coordinate tuples to coefficients,
    under the label noise kernel `noise` (none by default).

    The labels are the distinct outcome values in ascending order; the
    outcomes of one row that share a label add up in outcome order."""
    from .fourier import inverse_wht
    from .setsystem import mask_from_coords

    if isinstance(p, HypercubeJunta):
        p, fourier, noise = p
    if p > 16:
        raise ValueError("hypercube expansion capped at P <= 16")
    coef = np.zeros(2**p)
    for coords, val in fourier.items():
        coef[mask_from_coords(coords, p)] += float(val)
    clean = inverse_wht(coef)
    values, probs = (clean[:, None], np.ones((clean.size, 1))) if noise is None else noise.outcomes(clean)
    if not np.all(np.isfinite(values)):
        raise ValueError("hypercube labels must be finite")
    labels, col = np.unique(values.ravel(), return_inverse=True)
    rows = np.repeat(np.arange(clean.size), values.shape[1])
    cond = np.bincount(rows * labels.size + col, weights=probs.ravel(), minlength=clean.size * labels.size)
    return JuntaProblem(p, uniform_hypercube_marginal(), labels.tolist(), cond.reshape(clean.size, labels.size))


# ---------------------------------------------------------------------------
# Planted instances and sampling
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PlantedInstance:
    """A junta problem planted at an ordered support s_star inside [d]."""

    problem: JuntaProblem
    d: int
    s_star: tuple[int, ...]

    def __post_init__(self):
        if any(isinstance(c, bool) or not isinstance(c, Integral) for c in self.s_star):
            raise ValueError(f"s_star entries must be integers, got {list(self.s_star)!r}")
        s = tuple(int(c) for c in self.s_star)
        object.__setattr__(self, "s_star", s)
        if self.d < self.problem.p:
            raise ValueError("ambient dimension d must be >= P")
        if len(s) != self.problem.p:
            raise ValueError("s_star must list P coordinates")
        if len(set(s)) != len(s) or any(not 1 <= c <= self.d for c in s):
            raise ValueError("s_star entries must be distinct coordinates in [1, d]")

    def sampler(self, seed: int) -> "Sampler":
        return Sampler(self, seed)


class Sampler:
    """Owns the RNG stream of one planted instance; not shareable across threads.

    Draws are in the internal support-first layout: column j < P holds
    coordinate s_star[j], the other columns the off-support coordinates. So
    two instances that differ only by a relabeling of ambient coordinates
    consume identical random streams and produce bit-identical draws. The
    labels must be numeric.
    """

    def __init__(self, instance: PlantedInstance, seed: int):
        self.instance = instance
        self.rng = np.random.default_rng(seed)
        prob = instance.problem
        self._cdf = np.cumsum(prob.cond, axis=1)
        self._labels = prob.labels_numeric()
        # integer draws only for an exactly uniform marginal
        probs = prob.marginal.probs
        self._uniform = bool(np.all(probs == probs[0]))

    def draw_symbols(self, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """n i.i.d. draws as (y, symbols, support row index): symbols[i, j] is
        the index into marginal.values of x[i, j] in the internal layout, of
        the smallest unsigned dtype that holds nx - 1.

        The stream is read in a fixed order: the support symbols, the
        off-support symbols in row chunks, then the label uniforms. Both
        generators fill a C-order array from the stream in sequence, so the
        chunks are the same bits as one (n, d - P) draw."""
        inst = self.instance
        prob = inst.problem
        symbols = np.empty((n, inst.d), dtype=np.min_scalar_type(prob.marginal.nx - 1))
        sym_support = self._symbols((n, prob.p))
        symbols[:, : prob.p] = sym_support
        width = inst.d - prob.p
        chunk = max(1, DRAW_CHUNK_ENTRIES // max(width, 1))
        for lo in range(0, n, chunk):
            hi = min(n, lo + chunk)
            symbols[lo:hi, prob.p :] = self._symbols((hi - lo, width))
        rows = prob.row_index(sym_support)
        u = self.rng.random(n)
        y_idx = (self._cdf[rows] < u[:, None]).sum(axis=1)
        return self._labels[y_idx], symbols, rows

    def draw_batch(self, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """n i.i.d. draws as (y, x, support row index), x in the internal layout:
        draw_symbols with each symbol replaced by its value. The values are
        taken in row chunks, since take first converts its indices to intp."""
        y, symbols, rows = self.draw_symbols(n)
        values = self.instance.problem.marginal.values
        x = np.empty(symbols.shape)
        chunk = max(1, DRAW_CHUNK_ENTRIES // max(self.instance.d, 1))
        for lo in range(0, n, chunk):
            np.take(values, symbols[lo : lo + chunk], out=x[lo : lo + chunk], mode="wrap")
        return y, x, rows

    def _symbols(self, shape: tuple[int, int]) -> np.ndarray:
        """Symbol indices of the marginal drawn i.i.d. into an array of shape."""
        nx = self.instance.problem.marginal.nx
        if self._uniform:
            return self.rng.integers(0, nx, size=shape)
        return self.rng.choice(nx, size=shape, p=self.instance.problem.marginal.probs)


# ---------------------------------------------------------------------------
# Hard instance of the DLQ-vs-SQ separation
# ---------------------------------------------------------------------------


def hard_instance(
    label_values: Sequence[float],
    label_probs: Sequence[float],
    t_label: Sequence[float],
    a_set: Sequence[float],
    lam: float,
    marginal_x: FiniteMarginal,
) -> JuntaProblem:
    """P=1 problem coupling y to z_1 only through 1[z_1 in A].

    P(A|y) = (1 - mu_x(A)) T(y) / lam + mu_x(A), which keeps both marginals
    exactly mu_y and mu_x and makes E[T_1(z_1)|y] proportional to T(y) for
    every zero-mean T_1.
    """
    labels = np.asarray(label_values, dtype=float)
    mu_y = np.asarray(label_probs, dtype=float)
    t = np.asarray(t_label, dtype=float)
    if labels.shape != mu_y.shape or labels.shape != t.shape:
        raise ValueError("label values, probs, and T must have equal length")
    if np.any(mu_y < 0) or abs(mu_y.sum() - 1.0) > _PROB_TOL:
        raise ValueError("label probs must be a distribution")
    if abs(mu_y @ t) > _PROB_TOL:
        raise ValueError("T must be zero-mean under the label marginal")
    if np.max(np.abs(t)) > 1.0 + 1e-12:
        raise ValueError("T must take values in [-1, 1]")

    in_a = np.isin(marginal_x.values, np.asarray(a_set, dtype=float))
    m_a = float(marginal_x.probs[in_a].sum())
    if not 0.0 < m_a < 1.0:
        raise ValueError("mu_x(A) must lie strictly in (0, 1)")
    if lam <= (1.0 - m_a) / m_a:
        raise ValueError("lambda too small: need lambda > (1 - mu_x(A)) / mu_x(A)")

    p_a_given_y = (1.0 - m_a) * t / lam + m_a
    if np.any(p_a_given_y <= 0.0) or np.any(p_a_given_y >= 1.0):
        raise ValueError("lambda too small: conditional probabilities leave (0, 1)")

    # cond rows are mu_{y|z=v}: joint(y, v) / mu_x(v)
    cond = np.where(in_a[:, None], p_a_given_y * mu_y / m_a, (1.0 - p_a_given_y) * mu_y / (1.0 - m_a))
    return JuntaProblem(1, marginal_x, labels.tolist(), cond)


# ---------------------------------------------------------------------------
# JSON problem specs (External Interfaces)
# ---------------------------------------------------------------------------


def problem_from_dict(d: Mapping) -> JuntaProblem:
    """A problem from its JSON spec: JuntaProblem.to_dict()'s form, or a
    "hypercube" block {"P", "fourier", "noise"} whose fourier keys list
    coordinates as "1,2,3" ("" or "const" for the constant)."""
    if "hypercube" not in d:
        return JuntaProblem.from_dict(d)
    h = d["hypercube"]
    if not isinstance(h["fourier"], Mapping):
        raise ValueError(f"hypercube fourier must map coordinate lists to coefficients, got {h['fourier']!r}")
    fourier = {
        () if key in ("", "const") else tuple(int(c) for c in key.split(",")): float(val)
        for key, val in h["fourier"].items()
    }
    noise = LabelNoise.from_dict(h["noise"]) if h.get("noise") else None
    return expand_hypercube(h["P"], fourier, noise)
