"""Shared fixtures: reference problems, brute-force oracles, random corpora."""

import itertools

import numpy as np
import pytest

from juntaleap import HypercubeJunta, JuntaProblem, FiniteMarginal, expand_hypercube
from juntaleap.setsystem import SetSystem, coords_from_mask


Y1_FOURIER = {(1,): 1.0, (1, 2): 1.0, (1, 2, 3): 1.0, (1, 2, 3, 4): 1.0}
Y2_FOURIER = {(1, 2, 3): 1.0, (1, 2, 4): 1.0, (1, 3, 4): 1.0, (2, 3, 4): 1.0}


@pytest.fixture(scope="session")
def y1_problem():
    return expand_hypercube(HypercubeJunta(4, Y1_FOURIER))


@pytest.fixture(scope="session")
def y2_problem():
    return expand_hypercube(HypercubeJunta(4, Y2_FOURIER))


FIG1_SETS = [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)]


def fig1_problem():
    """The Fig. 1 instance: the four 3-sets of [4] with coefficients U(-2, 2)."""
    rng = np.random.default_rng(5404)
    coef = dict(zip(FIG1_SETS, rng.uniform(-2, 2, 4)))
    return expand_hypercube(HypercubeJunta(4, coef))


@pytest.fixture(scope="session")
def prop62c_problem():
    """P = 6 instance y = z_1...z_6 (z_1 + ... + z_6): six 5-set coefficients."""
    sets = {tuple(sorted(set(range(1, 7)) - {i})): 1.0 for i in range(1, 7)}
    return expand_hypercube(HypercubeJunta(6, sets))


# ---------------------------------------------------------------------------
# Brute-force complexity oracles (independent of the greedy implementation)
# ---------------------------------------------------------------------------


def brute_leap(system: SetSystem, target: int | None = None):
    """Min over covering sequences of the max new-coordinate count, computed by
    the min-max recursion over coverage states (every sequence of length <= |C|
    is represented, since steps adding nothing never help)."""
    if target is None:
        target = (1 << system.p) - 1
    if system.support & target != target:
        return None
    memo = {}

    def rec(covered: int) -> int:
        if covered & target == target:
            return 0
        if covered in memo:
            return memo[covered]
        memo[covered] = 10**9  # cycle guard; real value below
        best = 10**9
        for mask in system.sets:
            new = mask & ~covered
            if not new:
                continue
            best = min(best, max(new.bit_count(), rec(covered | mask)))
        memo[covered] = best
        return best

    return rec(0)


def brute_leap_sequences(system: SetSystem, target: int | None = None):
    """Literal enumeration over all sequences from C of length <= |C|."""
    if target is None:
        target = (1 << system.p) - 1
    best = None
    for r in range(1, len(system.sets) + 1):
        for seq in itertools.product(system.sets, repeat=r):
            covered = 0
            worst = 0
            for mask in seq:
                worst = max(worst, (mask & ~covered).bit_count())
                covered |= mask
            if covered & target == target:
                best = worst if best is None else min(best, worst)
    return best


def brute_cover(system: SetSystem, target: int | None = None):
    if target is None:
        target = (1 << system.p) - 1
    worst = 0
    for i in range(system.p):
        if not target >> i & 1:
            continue
        sizes = [m.bit_count() for m in system.sets if m >> i & 1]
        if not sizes:
            return None
        worst = max(worst, min(sizes))
    return worst


def random_system(rng: np.random.Generator, max_p: int = 5, max_sets: int = 6) -> SetSystem:
    p = int(rng.integers(1, max_p + 1))
    n = int(rng.integers(1, max_sets + 1))
    masks = tuple(int(rng.integers(0, 1 << p)) for _ in range(n))
    return SetSystem(p, masks)


# ---------------------------------------------------------------------------
# Reference moments and problems
# ---------------------------------------------------------------------------


def factor_product_moments(problem: JuntaProblem, basis, u) -> np.ndarray:
    """G[a, j] for j_i >= 1 on U by the factor-product formula: one column of
    prod_{i in U} psi_{j_i}(z_i) per basis tuple, the last coordinate of U
    varying fastest, contracted with row_weights * cond. Shape (|Y|, nb^|U|)."""
    nb = basis.size - 1
    factors = np.ones((problem.n_rows, 1))
    for i in sorted(u):
        per_coord = basis.psi[1:, problem.coord_symbols(i)].T  # (rows, nb)
        factors = (factors[:, :, None] * per_coord[:, None, :]).reshape(problem.n_rows, -1)
    return (problem.row_weights[:, None] * problem.cond).T @ factors


def three_atom_blocks(p: int, blocks, q: float = 0.3) -> JuntaProblem:
    """y = sum over blocks of prod_{i in block} z_i on X = {-1, 0, 1} with
    probabilities (q, 1 - 2q, q). The marginal is symmetric, so z is the only
    odd basis function and C_CSQ is exactly the blocks."""
    values = np.array([-1.0, 0.0, 1.0])
    rows = np.arange(3**p)
    z = values[np.stack([(rows // 3**k) % 3 for k in range(p)])]
    y = sum(np.prod(z[[c - 1 for c in b]], axis=0) for b in blocks).astype(int)
    labels = list(range(-len(blocks), len(blocks) + 1))
    cond = np.zeros((rows.size, len(labels)))
    cond[rows, y + len(blocks)] = 1.0
    return JuntaProblem(p, FiniteMarginal(values, [q, 1.0 - 2 * q, q]), labels, cond)


# ---------------------------------------------------------------------------
# Random finite-problem corpus
# ---------------------------------------------------------------------------

_X_POOL = np.array([-1.5, -1.0, -0.5, 0.5, 1.0, 1.5, 2.0])
_Y_POOL = np.array([-2.0, -1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0])


def random_problem(rng: np.random.Generator, binary_labels: bool | None = None) -> JuntaProblem:
    """A random finite junta problem with |X| <= 3, |Y| <= 4, P <= 3, with all
    probabilities floored away from 0 so exact detectability margins stay
    far from the tolerance."""
    nx = int(rng.integers(2, 4))
    p = int(rng.integers(1, 4))
    if binary_labels is None:
        binary_labels = bool(rng.random() < 0.4)
    ny = 2 if binary_labels else int(rng.integers(2, 5))
    values = np.sort(rng.choice(_X_POOL, nx, replace=False))
    probs = rng.dirichlet(np.ones(nx)) + 0.25
    probs /= probs.sum()
    labels = np.sort(rng.choice(_Y_POOL, ny, replace=False))
    marginal = FiniteMarginal(values, probs)

    if rng.random() < 0.3 and p > 1:
        # y depends only on a strict subset of the support coordinates
        k = int(rng.integers(1, p))
        small = rng.dirichlet(np.ones(ny) * 0.8, size=nx**k) + 0.05
        small /= small.sum(axis=1, keepdims=True)
        reps = nx ** (p - k)
        cond = np.tile(small, (reps, 1))
    else:
        cond = rng.dirichlet(np.ones(ny) * 0.8, size=nx**p) + 0.05
        cond /= cond.sum(axis=1, keepdims=True)
    return JuntaProblem(p, marginal, labels.tolist(), cond)
