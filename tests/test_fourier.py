import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from juntaleap import FiniteMarginal, expand_hypercube, uniform_hypercube_marginal
from juntaleap.fourier import conditional_moment_tensor, gram_schmidt, inverse_wht, moment_table, support_slice, wht
from juntaleap.setsystem import coords_from_mask
from conftest import factor_product_moments, random_problem, three_atom_blocks


def gram(basis):
    """Gram matrix of the basis functions in L2(mu_x)."""
    return (basis.psi * basis.marginal.probs) @ basis.psi.T


def naive_wht(table):
    """O(4^P) direct summation oracle for the parity transform."""
    table = np.asarray(table, dtype=float)
    n = table.size
    out = np.zeros(n)
    for mask in range(n):
        acc = 0.0
        for r in range(n):
            sign = (-1) ** bin(mask & r).count("1")
            acc += table[r] * sign
        out[mask] = acc / n
    return out


class TestGramSchmidt:
    def test_uniform_pm1_is_walsh(self):
        basis = gram_schmidt(uniform_hypercube_marginal())
        np.testing.assert_allclose(basis.psi[0], [1.0, 1.0])
        np.testing.assert_allclose(basis.psi[1], [1.0, -1.0], atol=1e-12)

    def test_uniform_three_point(self):
        m = FiniteMarginal([-1.0, 0.0, 1.0], [1 / 3, 1 / 3, 1 / 3])
        basis = gram_schmidt(m)
        # psi_1(x) = x * sqrt(3/2); psi_2 the zero-mean unit quadratic orthogonal to it
        np.testing.assert_allclose(basis.psi[1], np.array([-1.0, 0.0, 1.0]) * np.sqrt(1.5), atol=1e-10)
        expected2 = (3 * np.array([-1.0, 0.0, 1.0]) ** 2 - 2) / np.sqrt(2.0)
        np.testing.assert_allclose(np.abs(basis.psi[2]), np.abs(expected2), atol=1e-10)

    def test_two_atom_dimension(self):
        m = FiniteMarginal([0.3, 1.7], [0.4, 0.6])
        assert gram_schmidt(m).size == 2

    def test_orthonormal_and_zero_mean(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            nx = int(rng.integers(2, 5))
            vals = np.sort(rng.normal(size=nx))
            pr = rng.dirichlet(np.ones(nx)) + 0.1
            pr /= pr.sum()
            m = FiniteMarginal(vals, pr)
            basis = gram_schmidt(m)
            np.testing.assert_allclose(gram(basis), np.eye(nx), atol=1e-10)
            np.testing.assert_allclose(basis.psi[1:] @ m.probs, 0.0, atol=1e-10)

    def test_null_atom_tabulated_as_zero(self):
        # orthonormal on the atoms of positive probability; psi_0 = 1 and
        # psi_j = 0 (j >= 1) on the atom of probability 0
        full = gram_schmidt(FiniteMarginal([-1.0, 0.0, 1.0], [0.5, 0.0, 0.5]))
        reduced = gram_schmidt(FiniteMarginal([-1.0, 1.0], [0.5, 0.5]))
        assert full.psi.shape == (2, 3)
        np.testing.assert_array_equal(full.psi[:, [0, 2]], reduced.psi)
        np.testing.assert_array_equal(full.psi[:, 1], [1.0, 0.0])
        np.testing.assert_array_equal(gram(full), gram(reduced))

    def test_degenerate_marginal_errors(self):
        m = FiniteMarginal([1.0, 1.0 + 1e-14], [0.5, 0.5])
        with pytest.raises(ValueError):
            gram_schmidt(m)


class TestWht:
    def test_pure_parity(self):
        # table of chi_{1,2} on P = 3
        table = inverse_wht(np.eye(8)[0b011])
        coefs = wht(table)
        expected = np.zeros(8)
        expected[0b011] = 1.0
        np.testing.assert_allclose(coefs, expected, atol=1e-14)

    def test_involution(self):
        rng = np.random.default_rng(0)
        t = rng.normal(size=16)
        np.testing.assert_allclose(inverse_wht(wht(t)), t, atol=1e-12)
        np.testing.assert_allclose(wht(inverse_wht(t)), t, atol=1e-12)

    @given(st.integers(0, 6), st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_matches_naive_summation(self, p, seed):
        rng = np.random.default_rng(seed)
        t = rng.normal(size=2**p)
        np.testing.assert_allclose(wht(t), naive_wht(t), atol=1e-12)

    def test_parseval(self):
        rng = np.random.default_rng(2)
        t = rng.normal(size=32)
        coefs = wht(t)
        assert np.sum(coefs**2) == pytest.approx(np.mean(t**2), rel=1e-12)

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError):
            wht(np.ones(6))


class TestConditionalMomentTensor:
    def test_independent_coordinate_is_zero(self):
        rng = np.random.default_rng(8)
        prob = random_problem(rng, binary_labels=True)
        # append a fresh independent coordinate by tiling the table
        from juntaleap import JuntaProblem

        cond = np.tile(prob.cond, (prob.marginal.nx, 1))
        bigger = JuntaProblem(prob.p + 1, prob.marginal, prob.labels, cond)
        basis = gram_schmidt(prob.marginal)
        g = conditional_moment_tensor(bigger, basis, [bigger.p])
        np.testing.assert_allclose(g, 0.0, atol=1e-12)

    def test_linear_junta_values(self):
        prob = expand_hypercube(1, {(1,): 1.0})
        basis = gram_schmidt(prob.marginal)
        g = conditional_moment_tensor(prob, basis, [1])
        # labels sorted (-1, +1); E[1{y=a} z_1] = -1/2 and +1/2
        got = {lab: g[j, 0] for j, lab in enumerate(prob.labels)}
        assert got[1.0] == pytest.approx(0.5)
        assert got[-1.0] == pytest.approx(-0.5)

    def test_y2_triple_has_signal(self, y2_problem):
        basis = gram_schmidt(y2_problem.marginal)
        g = conditional_moment_tensor(y2_problem, basis, [1, 2, 3])
        assert np.max(np.abs(g)) > 0.01

    def test_label_sum_recovers_zero_mean_product(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            prob = random_problem(rng)
            basis = gram_schmidt(prob.marginal)
            u = list(range(1, prob.p + 1))
            g = conditional_moment_tensor(prob, basis, u)
            summed = g.reshape(prob.ny, -1).sum(axis=0)
            np.testing.assert_allclose(summed, 0.0, atol=1e-12)

    def test_rejects_empty_set(self, y1_problem):
        with pytest.raises(ValueError):
            conditional_moment_tensor(y1_problem, gram_schmidt(y1_problem.marginal), [])


class TestMomentTable:
    def test_slices_match_factor_products(self):
        rng = np.random.default_rng(21)
        for _ in range(60):
            prob = random_problem(rng)
            basis = gram_schmidt(prob.marginal)
            table = moment_table(prob, basis)
            assert table.shape == (prob.ny,) + (prob.marginal.nx,) * prob.p
            for mask in range(1, 1 << prob.p):
                coords = coords_from_mask(mask)
                got = support_slice(table, coords).reshape(prob.ny, -1)
                np.testing.assert_allclose(got, factor_product_moments(prob, basis, coords), rtol=0, atol=1e-14)

    def test_hypercube_slices_bit_equal(self, y1_problem, y2_problem):
        for prob in (y1_problem, y2_problem):
            basis = gram_schmidt(prob.marginal)
            table = moment_table(prob, basis)
            for mask in range(1, 1 << prob.p):
                coords = coords_from_mask(mask)
                got = conditional_moment_tensor(prob, basis, coords).reshape(prob.ny, -1)
                assert np.array_equal(got, factor_product_moments(prob, basis, coords))
                assert np.array_equal(got, support_slice(table, coords).reshape(prob.ny, -1))

    def test_constant_column_is_label_marginal(self):
        prob = three_atom_blocks(4, [(1, 2), (3, 4)])
        table = moment_table(prob, gram_schmidt(prob.marginal))
        np.testing.assert_allclose(table[(slice(None),) + (0,) * prob.p], prob.mu_y, rtol=0, atol=1e-15)

    def test_rejects_basis_on_other_atoms(self, y1_problem):
        basis = gram_schmidt(FiniteMarginal([-1.0, 0.0, 1.0], [0.3, 0.4, 0.3]))
        with pytest.raises(ValueError, match="different atom set"):
            moment_table(y1_problem, basis)
        with pytest.raises(ValueError, match="different atom set"):
            conditional_moment_tensor(y1_problem, basis, [1])

    def test_rejects_coordinate_outside_support(self, y1_problem):
        with pytest.raises(ValueError):
            conditional_moment_tensor(y1_problem, gram_schmidt(y1_problem.marginal), [5])
