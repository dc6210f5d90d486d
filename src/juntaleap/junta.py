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

from dataclasses import dataclass
from numbers import Real
from typing import Iterable, Mapping, Sequence

import numpy as np

# |X|^P cap on a problem's table: cond alone then takes up to 8 * |Y| * 10^7 B
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

    def norm(self, table) -> float:
        """L2(mu_x) norm of a tabulated function."""
        table = np.asarray(table, dtype=float)
        return float(np.sqrt(self.probs @ table**2))

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


class JuntaProblem:
    """Finite junta problem: support size P, marginal mu_x, table mu_{y|z}.

    cond has one row per support assignment z (see module docstring for the
    row order) and one column per label; every row is a probability vector.
    """

    def __init__(self, p: int, marginal: FiniteMarginal, labels: Sequence, cond):
        if p < 1:
            raise ValueError("support size P must be >= 1")
        nx = marginal.nx
        nrows = nx**p
        if nrows > MAX_TABLE_ROWS:
            raise ValueError(f"|X|^P = {nrows} exceeds the cap {MAX_TABLE_ROWS}")
        cond = np.asarray(cond, dtype=float)
        labels = tuple(labels)
        if len(set(labels)) != len(labels):
            raise ValueError("labels must be distinct")
        if cond.shape != (nrows, len(labels)):
            raise ValueError(f"cond must have shape ({nrows}, {len(labels)}), got {cond.shape}")
        if not np.all(np.isfinite(cond)):
            raise ValueError("cond entries must be finite")
        if np.any(cond < -_PROB_TOL):
            raise ValueError("cond entries must be nonnegative")
        rowsums = cond.sum(axis=1)
        if np.max(np.abs(rowsums - 1.0)) > _PROB_TOL:
            raise ValueError("every cond row must sum to 1")

        self.p = p
        self.marginal = marginal
        self.labels = labels
        self.cond = _readonly(np.clip(cond, 0.0, None))

        # per-row weight under mu_x^P and per-coordinate symbol indices
        idx = np.arange(nrows)
        coord_idx = np.empty((p, nrows), dtype=np.int64)
        for k in range(p):
            coord_idx[k] = (idx // nx**k) % nx
        self._coord_idx = _readonly(coord_idx)
        w = np.ones(nrows)
        for k in range(p):
            w *= marginal.probs[coord_idx[k]]
        self.row_weights = _readonly(w)
        self.mu_y = _readonly(w @ self.cond)

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
        return self._coord_idx[i - 1]

    def coord_values(self, i: int) -> np.ndarray:
        return self.marginal.values[self.coord_symbols(i)]

    def row_index(self, symbol_matrix: np.ndarray) -> np.ndarray:
        """Row indices for an (n, P) matrix of symbol indices."""
        nx = self.marginal.nx
        radix = nx ** np.arange(self.p)
        return symbol_matrix @ radix

    # -- exact expectations ----------------------------------------------

    def joint_expectation(self, t_label, t_coords: Mapping[int, Sequence[float]], u: Iterable[int]) -> float:
        """Exact E[T(y) prod_{i in U} T_i(z_i)] by enumeration over X^P x Y."""
        t_label = np.asarray(t_label, dtype=float)
        if t_label.shape != (self.ny,):
            raise ValueError(f"label table must have length {self.ny}")
        factor = self.row_weights.copy()
        for i in sorted(set(int(c) for c in u)):
            if i not in t_coords:
                raise ValueError(f"no coordinate table supplied for {i}")
            table = np.asarray(t_coords[i], dtype=float)
            if table.shape != (self.marginal.nx,):
                raise ValueError(f"coordinate table for {i} must have length {self.marginal.nx}")
            factor *= table[self._coord_idx[i - 1]]
        return float(factor @ (self.cond @ t_label))

    def label_expectation(self, t_label) -> float:
        t_label = np.asarray(t_label, dtype=float)
        return float(self.mu_y @ t_label)

    def label_norm(self, t_label) -> float:
        t_label = np.asarray(t_label, dtype=float)
        return float(np.sqrt(self.mu_y @ t_label**2))

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
            pr = np.asarray(self.probs, dtype=float)
            if np.any(pr < 0) or abs(pr.sum() - 1.0) > _PROB_TOL:
                raise ValueError("additive noise probs must be a distribution")
        else:
            raise ValueError(f"unknown noise kind {self.kind!r}")

    def outcomes(self, h: float) -> list[tuple[float, float]]:
        if self.kind == "flip":
            if h == -h:
                return [(h, 1.0)]
            return [(h, 1.0 - self.rate), (-h, self.rate)]
        return [(h + v, q) for v, q in zip(self.values, self.probs)]

    def to_dict(self) -> dict:
        d = {"kind": self.kind}
        if self.rate is not None:
            d["rate"] = self.rate
        if self.values is not None:
            d["values"] = list(self.values)
            d["probs"] = list(self.probs)
        return d

    @classmethod
    def from_dict(cls, d: Mapping) -> "LabelNoise":
        return cls(
            d["kind"],
            rate=d.get("rate"),
            values=tuple(d["values"]) if "values" in d else None,
            probs=tuple(d["probs"]) if "probs" in d else None,
        )


@dataclass(frozen=True)
class HypercubeJunta:
    """A junta on the uniform hypercube given by its coefficients over parity
    products chi_U(z) = prod_{i in U} z_i, plus an optional label noise kernel."""

    p: int
    fourier: Mapping
    noise: LabelNoise | None = None

    def coefficient_vector(self) -> np.ndarray:
        from .setsystem import mask_from_coords

        coef = np.zeros(2**self.p)
        for key, val in self.fourier.items():
            if isinstance(key, int):
                mask = key
            else:
                mask = mask_from_coords(key, self.p)
            coef[mask] += float(val)
        return coef

    def clean_table(self) -> np.ndarray:
        """h(z) for every row, via the inverse parity transform."""
        from .fourier import inverse_wht

        return inverse_wht(self.coefficient_vector())

    def to_dict(self) -> dict:
        from .setsystem import coords_from_mask, mask_from_coords

        four = {}
        for key, val in self.fourier.items():
            mask = key if isinstance(key, int) else mask_from_coords(key, self.p)
            four[",".join(str(c) for c in coords_from_mask(mask))] = float(val)
        d = {"P": self.p, "fourier": four}
        if self.noise is not None:
            d["noise"] = self.noise.to_dict()
        return d

    @classmethod
    def from_dict(cls, d: Mapping) -> "HypercubeJunta":
        four = {}
        for key, val in d["fourier"].items():
            coords = tuple(int(c) for c in key.split(",")) if key not in ("", "const") else ()
            four[coords] = float(val)
        noise = LabelNoise.from_dict(d["noise"]) if d.get("noise") else None
        return cls(d["P"], four, noise)


def expand_hypercube(h: HypercubeJunta) -> JuntaProblem:
    """Tabulate a HypercubeJunta as a JuntaProblem (X = {+1,-1} uniform)."""
    if h.p > 16:
        raise ValueError("hypercube expansion capped at P <= 16")
    clean = h.clean_table()
    outcome_maps = []
    all_values = set()
    for hv in clean:
        if h.noise is None:
            outs = {float(hv): 1.0}
        else:
            outs = {}
            for v, q in h.noise.outcomes(float(hv)):
                outs[v] = outs.get(v, 0.0) + q
        outcome_maps.append(outs)
        all_values.update(outs)
    labels = sorted(all_values)
    col = {v: j for j, v in enumerate(labels)}
    cond = np.zeros((clean.size, len(labels)))
    for r, outs in enumerate(outcome_maps):
        for v, q in outs.items():
            cond[r, col[v]] += q
    return JuntaProblem(h.p, uniform_hypercube_marginal(), labels, cond)


# ---------------------------------------------------------------------------
# Planted instances and sampling
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PlantedInstance:
    """A junta problem planted at an ordered support s_star inside [d]."""

    problem: JuntaProblem
    d: int
    s_star: tuple[int, ...]
    seed: int = 0

    def __post_init__(self):
        s = tuple(int(c) for c in self.s_star)
        object.__setattr__(self, "s_star", s)
        if self.d < self.problem.p:
            raise ValueError("ambient dimension d must be >= P")
        if len(s) != self.problem.p:
            raise ValueError("s_star must list P coordinates")
        if len(set(s)) != len(s) or any(not 1 <= c <= self.d for c in s):
            raise ValueError("s_star entries must be distinct coordinates in [1, d]")

    @property
    def support_set(self) -> frozenset[int]:
        return frozenset(self.s_star)

    def internal_order(self) -> tuple[int, ...]:
        """Ambient coordinates in the sampler's internal column order:
        planted support first (in planted order), then the rest ascending."""
        rest = [c for c in range(1, self.d + 1) if c not in self.support_set]
        return self.s_star + tuple(rest)

    def sampler(self, seed: int | None = None) -> "Sampler":
        return Sampler(self, self.seed if seed is None else seed)

    def to_dict(self) -> dict:
        return {
            "problem": self.problem.to_dict(),
            "d": self.d,
            "s_star": list(self.s_star),
            "seed": self.seed,
        }


class Sampler:
    """Owns the RNG stream of one planted instance; not shareable across threads.

    Internally, columns are laid out support-first so two instances that differ
    only by a relabeling of ambient coordinates consume identical random streams
    and produce bit-identical internal draws.
    """

    def __init__(self, instance: PlantedInstance, seed: int):
        self.instance = instance
        self.rng = np.random.default_rng(seed)
        prob = instance.problem
        self._cdf = np.cumsum(prob.cond, axis=1)
        self._labels_arr = (
            prob.labels_numeric()
            if all(isinstance(v, Real) for v in prob.labels)
            else np.asarray(prob.labels, dtype=object)
        )
        # scatter map: internal column j holds ambient coordinate order[j]
        order = np.asarray(instance.internal_order(), dtype=np.int64) - 1
        self._scatter = order
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
        if n == 0:
            return self._labels_arr[:0], symbols, np.empty(0, dtype=np.int64)
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
        return self._labels_arr[y_idx], symbols, rows

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

    def draw_internal(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """n i.i.d. draws as (y, x) with x in the internal support-first layout."""
        y, x, _ = self.draw_batch(n)
        return y, x

    def draw(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """n i.i.d. draws with x in ambient coordinate order."""
        y, x_int = self.draw_internal(n)
        x = np.empty_like(x_int)
        x[:, self._scatter] = x_int
        return y, x


def sample(instance: PlantedInstance, n: int) -> list[tuple]:
    """n i.i.d. (y, x) pairs, reproducible from instance.seed."""
    if n < 0:
        raise ValueError("n must be >= 0")
    y, x = instance.sampler().draw(n)
    return [(y[i], x[i]) for i in range(n)]


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
    cond = np.empty((marginal_x.nx, labels.size))
    for r in range(marginal_x.nx):
        if in_a[r]:
            cond[r] = p_a_given_y * mu_y / m_a
        else:
            cond[r] = (1.0 - p_a_given_y) * mu_y / (1.0 - m_a)
    return JuntaProblem(1, marginal_x, labels.tolist(), cond)


# ---------------------------------------------------------------------------
# JSON problem specs (External Interfaces)
# ---------------------------------------------------------------------------


def problem_from_dict(d: Mapping) -> JuntaProblem:
    if "hypercube" in d:
        return expand_hypercube(HypercubeJunta.from_dict(d["hypercube"]))
    return JuntaProblem.from_dict(d)
