import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from juntaleap import (
    FiniteMarginal,
    HypercubeJunta,
    JuntaProblem,
    LabelNoise,
    PlantedInstance,
    expand_hypercube,
    hard_instance,
    problem_from_dict,
    sample,
    uniform_hypercube_marginal,
)
from juntaleap import junta
from juntaleap.fourier import wht
from conftest import fig1_problem, random_problem


class TestFiniteMarginal:
    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            FiniteMarginal([1.0, -1.0], [0.6, 0.6])

    def test_rejects_single_atom(self):
        with pytest.raises(ValueError):
            FiniteMarginal([1.0, -1.0], [1.0, 0.0])

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            FiniteMarginal([1.0, 1.0], [0.5, 0.5])

    def test_mean_and_norm(self):
        m = uniform_hypercube_marginal()
        assert m.mean([1.0, -1.0]) == 0.0
        assert m.norm([1.0, -1.0]) == 1.0


class TestJuntaProblem:
    def test_rejects_bad_rows(self):
        m = uniform_hypercube_marginal()
        with pytest.raises(ValueError):
            JuntaProblem(1, m, [0.0, 1.0], [[0.5, 0.4], [0.5, 0.5]])

    def test_rejects_non_finite_cond(self):
        m = FiniteMarginal([1.0, -1.0], [0.5, 0.5])
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                JuntaProblem(1, m, [0.0, 1.0], [[bad, 1.0], [0.5, 0.5]])

    def test_rejects_oversized_table(self):
        m = FiniteMarginal([0.0, 1.0, 2.0], [1 / 3, 1 / 3, 1 / 3])
        with pytest.raises(ValueError):
            JuntaProblem(20, m, [0.0], np.ones((1, 1)))

    def test_table_cap_is_checked_before_cond_is_read(self):
        """|X|^P above MAX_TABLE_ROWS is rejected before cond is converted: the
        cond given here cannot be converted at all, so only the cap can fire.
        At the cap, cond alone would take 8 * |Y| * 10^7 B (80 MB per label)."""
        m = FiniteMarginal([0.0, 1.0, 2.0], [1 / 3, 1 / 3, 1 / 3])
        p = 15  # 3^15 = 14,348,907 rows
        assert 3**p > junta.MAX_TABLE_ROWS >= 3 ** (p - 1)
        with pytest.raises(ValueError, match="exceeds the cap"):
            JuntaProblem(p, m, [0.0, 1.0], object())

    def test_conditional_rows_are_distributions(self, y2_problem):
        # finite spaces: the well-behavedness assumption holds automatically
        np.testing.assert_allclose(y2_problem.cond.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(y2_problem.cond >= 0)

    def test_json_round_trip(self, y1_problem):
        again = problem_from_dict(json.loads(json.dumps(y1_problem.to_dict())))
        np.testing.assert_allclose(again.cond, y1_problem.cond)
        assert again.labels == y1_problem.labels


class TestJointExpectation:
    def test_decoupled_zero_mean_coordinate(self):
        # y independent of z_1: zero-mean T_1 makes the expectation vanish
        m = uniform_hypercube_marginal()
        prob = JuntaProblem(1, m, [0.0, 1.0], [[0.3, 0.7], [0.3, 0.7]])
        val = prob.joint_expectation([1.0, 1.0], {1: [1.0, -1.0]}, [1])
        assert val == pytest.approx(0.0, abs=1e-15)

    def test_identity_on_linear_junta(self):
        prob = expand_hypercube(HypercubeJunta(1, {(1,): 1.0}))
        t_label = np.asarray(prob.labels, dtype=float)
        val = prob.joint_expectation(t_label, {1: [1.0, -1.0]}, [1])
        assert val == pytest.approx(1.0)

    def test_y2_triple_coefficient(self, y2_problem):
        t_label = np.asarray(y2_problem.labels, dtype=float)
        tables = {i: [1.0, -1.0] for i in (1, 2, 3)}
        val = y2_problem.joint_expectation(t_label, tables, [1, 2, 3])
        # exhaustive sum over the 16 assignments gives the chi_{123} coefficient
        brute = 0.0
        for r in range(16):
            z = [1.0 if not r >> k & 1 else -1.0 for k in range(4)]
            h = z[0] * z[1] * z[2] + z[0] * z[1] * z[3] + z[0] * z[2] * z[3] + z[1] * z[2] * z[3]
            brute += h * z[0] * z[1] * z[2] / 16.0
        assert brute == pytest.approx(1.0)
        assert val == pytest.approx(brute)

    def test_multilinearity(self):
        rng = np.random.default_rng(3)
        prob = random_problem(rng)
        t1 = rng.normal(size=prob.ny)
        t2 = rng.normal(size=prob.ny)
        tab = {i: rng.normal(size=prob.marginal.nx) for i in range(1, prob.p + 1)}
        u = list(range(1, prob.p + 1))
        a, b = 0.7, -1.3
        lhs = prob.joint_expectation(a * t1 + b * t2, tab, u)
        rhs = a * prob.joint_expectation(t1, tab, u) + b * prob.joint_expectation(t2, tab, u)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)
        # and in one coordinate table
        s1 = rng.normal(size=prob.marginal.nx)
        s2 = rng.normal(size=prob.marginal.nx)
        tab1 = {**tab, 1: s1}
        tab2 = {**tab, 1: s2}
        tab12 = {**tab, 1: a * s1 + b * s2}
        lhs = prob.joint_expectation(t1, tab12, u)
        rhs = a * prob.joint_expectation(t1, tab1, u) + b * prob.joint_expectation(t1, tab2, u)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_rejects_missing_table(self, y1_problem):
        with pytest.raises(ValueError):
            y1_problem.joint_expectation(np.zeros(y1_problem.ny), {}, [1])


class TestExpandHypercube:
    def test_linear_is_one_hot(self):
        prob = expand_hypercube(HypercubeJunta(1, {(1,): 1.0}))
        assert prob.labels == (-1.0, 1.0)
        assert set(np.unique(prob.cond)) == {0.0, 1.0}

    def test_y2_attained_labels(self, y2_problem):
        # enumerate all 16 assignments and tabulate the attained sums
        attained = set()
        for r in range(16):
            z = [1.0 if not r >> k & 1 else -1.0 for k in range(4)]
            attained.add(z[0] * z[1] * z[2] + z[0] * z[1] * z[3] + z[0] * z[2] * z[3] + z[1] * z[2] * z[3])
        assert set(y2_problem.labels) == attained

    def test_seeded_uniform_coefficients_table(self):
        rng = np.random.default_rng(71)
        coefs = {u: float(rng.uniform(-2, 2)) for u in [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)]}
        prob = expand_hypercube(HypercubeJunta(4, coefs))
        assert prob.cond.shape[0] == 16

    def test_fourier_round_trip(self):
        rng = np.random.default_rng(9)
        coefs = {(): 0.3, (1,): -0.7, (2, 3): 1.2, (1, 2, 3, 4): 0.1}
        h = HypercubeJunta(4, coefs)
        prob = expand_hypercube(h)
        labels = np.asarray(prob.labels)
        table = prob.cond @ labels  # E[y|z] per row
        got = wht(table)
        np.testing.assert_allclose(got, h.coefficient_vector(), atol=1e-12)

    def test_flip_noise_symmetrizes(self):
        h = HypercubeJunta(1, {(1,): 1.0}, noise=LabelNoise("flip", rate=0.25))
        prob = expand_hypercube(h)
        assert prob.labels == (-1.0, 1.0)
        np.testing.assert_allclose(prob.cond, [[0.75, 0.25], [0.25, 0.75]][::-1], atol=1e-15)

    def test_additive_noise_extends_labels(self):
        h = HypercubeJunta(1, {(1,): 1.0}, noise=LabelNoise("additive", values=(0.0, 0.5), probs=(0.5, 0.5)))
        prob = expand_hypercube(h)
        assert prob.labels == (-1.0, -0.5, 1.0, 1.5)

    def test_rejects_large_p(self):
        with pytest.raises(ValueError):
            expand_hypercube(HypercubeJunta(17, {(1,): 1.0}))


class TestSampling:
    def test_empty_draw(self, y1_problem):
        inst = PlantedInstance(y1_problem, 10, (2, 4, 6, 8), seed=0)
        assert sample(inst, 0) == []

    def test_noiseless_consistency(self, y1_problem):
        inst = PlantedInstance(y1_problem, 12, (3, 1, 7, 9), seed=5)
        for y, x in sample(inst, 200):
            z = [x[c - 1] for c in inst.s_star]
            h = z[0] + z[0] * z[1] + z[0] * z[1] * z[2] + z[0] * z[1] * z[2] * z[3]
            assert y == pytest.approx(h)

    def test_empirical_mean_within_3_sigma(self):
        rng = np.random.default_rng(11)
        prob = random_problem(rng)
        inst = PlantedInstance(prob, prob.p + 3, tuple(range(1, prob.p + 1)), seed=2)
        exact = prob.label_expectation(np.asarray(prob.labels, dtype=float))
        n = 100_000
        y, _ = inst.sampler().draw(n)
        sd = float(np.std(np.asarray(prob.labels, float))) + 1e-9
        assert abs(float(np.mean(y)) - exact) <= 3 * sd / np.sqrt(n) + 1e-3

    def test_reproducible(self, y2_problem):
        inst = PlantedInstance(y2_problem, 9, (1, 5, 7, 2), seed=42)
        a = sample(inst, 25)
        b = sample(inst, 25)
        for (ya, xa), (yb, xb) in zip(a, b):
            assert ya == yb
            np.testing.assert_array_equal(xa, xb)

    def test_near_uniform_marginal_is_not_sampled_as_uniform(self):
        def draws(probs):
            prob = JuntaProblem(1, FiniteMarginal([1.0, -1.0], probs), [0.0], np.ones((2, 1)))
            return PlantedInstance(prob, 3, (2,), seed=0).sampler().draw(2000)[1]

        assert not np.array_equal(draws([0.500004, 0.499996]), draws([0.5, 0.5]))

    def test_hypercube_draws_use_integer_symbols(self, y1_problem):
        # the uniform path: one integers() call for the support block, one for the rest
        inst = PlantedInstance(y1_problem, 7, (3, 1, 7, 5), seed=4)
        y, x, rows = inst.sampler().draw_batch(50)
        rng = np.random.default_rng(4)
        support = rng.integers(0, 2, size=(50, 4))
        rest = rng.integers(0, 2, size=(50, 3))
        values = y1_problem.marginal.values
        np.testing.assert_array_equal(x, np.hstack([values[support], values[rest]]))
        np.testing.assert_array_equal(rows, y1_problem.row_index(support))

    def test_validates_planting(self, y1_problem):
        with pytest.raises(ValueError):
            PlantedInstance(y1_problem, 3, (1, 2, 3, 4), seed=0)
        with pytest.raises(ValueError):
            PlantedInstance(y1_problem, 10, (1, 1, 2, 3), seed=0)


def reference_draw(problem, d, n, rng):
    """draw_batch as one unchunked draw: support symbols, all off-support
    symbols in one (n, d - P) array, then the label uniforms."""
    m = problem.marginal
    if np.all(m.probs == m.probs[0]):
        support = rng.integers(0, m.nx, size=(n, problem.p))
        rest = rng.integers(0, m.nx, size=(n, d - problem.p))
    else:
        support = rng.choice(m.nx, size=(n, problem.p), p=m.probs)
        rest = rng.choice(m.nx, size=(n, d - problem.p), p=m.probs)
    rows = problem.row_index(support)
    u = rng.random(n)
    y_idx = (np.cumsum(problem.cond, axis=1)[rows] < u[:, None]).sum(axis=1)
    return np.asarray(problem.labels)[y_idx], np.hstack([m.values[support], m.values[rest]]), rows


def _two_coordinate_problem(values, probs, seed=0):
    cond = np.random.default_rng(seed).dirichlet(np.ones(3), size=len(values) ** 2)
    return JuntaProblem(2, FiniteMarginal(values, probs), [-1.0, 0.0, 2.0], cond)


class TestChunkedDraws:
    """draw_symbols draws the off-support symbols in row chunks, and
    draw_batch expands them in row chunks; the stream and every draw must be
    bit-identical to one unchunked draw."""

    MARGINALS = {
        "hypercube": ([1.0, -1.0], [0.5, 0.5]),
        "uniform3": ([-1.0, 0.0, 2.0], [1 / 3, 1 / 3, 1 / 3]),
        "skewed3": ([-1.0, 0.5, 3.0], [0.2, 0.5, 0.3]),
    }

    def check_draws(self, draw, marginal, chunk_rows, n, monkeypatch):
        d = 40
        if chunk_rows is not None:
            monkeypatch.setattr(junta, "DRAW_CHUNK_ENTRIES", chunk_rows * (d - 2))
        prob = _two_coordinate_problem(*self.MARGINALS[marginal])
        sampler = PlantedInstance(prob, d, (5, 2), seed=0).sampler(9)
        rng = np.random.default_rng(9)
        for size in (n, 3):  # the batch after it reads the stream where the first left it
            got, want = draw(sampler, prob, size), reference_draw(prob, d, size, rng)
            for g, w in zip(got, want):
                assert g.dtype == w.dtype
                np.testing.assert_array_equal(g, w)

    # the default chunk holds 1724 rows of 38 off-support symbols: n = 5 is
    # below one chunk and n = 5000 above two, ending in a partial chunk
    @pytest.mark.parametrize("marginal", sorted(MARGINALS))
    @pytest.mark.parametrize("chunk_rows", [None, 1, 7])
    @pytest.mark.parametrize("n", [5, 5000])
    def test_matches_one_unchunked_draw(self, marginal, chunk_rows, n, monkeypatch):
        self.check_draws(lambda sampler, _, size: sampler.draw_batch(size), marginal, chunk_rows, n, monkeypatch)

    @pytest.mark.parametrize("marginal", sorted(MARGINALS))
    @pytest.mark.parametrize("chunk_rows", [None, 1, 7])
    @pytest.mark.parametrize("n", [5, 5000])
    def test_symbols_match_one_unchunked_draw(self, marginal, chunk_rows, n, monkeypatch):
        def expanded(sampler, prob, size):
            y, symbols, rows = sampler.draw_symbols(size)
            assert symbols.dtype == np.uint8 and symbols.shape == (size, 40)
            return y, prob.marginal.values[symbols], rows

        self.check_draws(expanded, marginal, chunk_rows, n, monkeypatch)

    def test_peak_memory_is_about_the_inputs(self):
        """At n = 8000, d = 300 the draw once held its int64 symbols, their
        float gather and x together, about 3 x.nbytes."""
        sampler = PlantedInstance(fig1_problem(), 300, (1, 2, 3, 4), seed=0).sampler(7)
        sampler.draw_batch(1)
        tracemalloc.start()
        try:
            _, x, _ = sampler.draw_batch(8000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * x.nbytes, f"traced peak {peak} B for x of {x.nbytes} B"


class TestHardInstance:
    def _binary_inputs(self):
        return dict(
            label_values=[-1.0, 1.0],
            label_probs=[0.5, 0.5],
            marginal_x=uniform_hypercube_marginal(),
        )

    def test_zero_t_gives_product(self):
        kw = self._binary_inputs()
        prob = hard_instance(t_label=[0.0, 0.0], a_set=[1.0], lam=2.0, **kw)
        np.testing.assert_allclose(prob.cond, [[0.5, 0.5], [0.5, 0.5]], atol=1e-15)

    def test_displayed_formula_values(self):
        # P(A|y) = (1 - 1/2) T(y) / 2 + 1/2 with T(y) = y
        kw = self._binary_inputs()
        prob = hard_instance(t_label=[-1.0, 1.0], a_set=[1.0], lam=2.0, **kw)
        # row for z = +1 (the A side): mu(y|z in A) = P(A|y) mu_y / mu_x(A)
        pa = np.array([0.25, 0.75])
        np.testing.assert_allclose(prob.cond[0], pa * 0.5 / 0.5, atol=1e-15)

    def test_marginals_exact(self):
        rng = np.random.default_rng(1)
        labels = [-1.0, 0.0, 1.0]
        mu_y = [0.25, 0.5, 0.25]
        t = [0.5, -0.5, 0.5]
        mx = FiniteMarginal([-1.0, 0.5, 2.0], [0.2, 0.5, 0.3])
        prob = hard_instance(labels, mu_y, t, a_set=[0.5, 2.0], lam=5.0, marginal_x=mx)
        np.testing.assert_allclose(prob.mu_y, mu_y, atol=1e-12)
        # z-marginal equals mu_x by construction (checked through row sums * weights)
        np.testing.assert_allclose(prob.row_weights, mx.probs, atol=1e-15)

    def test_rejects_small_lambda(self):
        kw = self._binary_inputs()
        with pytest.raises(ValueError):
            hard_instance(t_label=[-1.0, 1.0], a_set=[1.0], lam=0.9, **kw)

    def test_rejects_biased_t(self):
        kw = self._binary_inputs()
        with pytest.raises(ValueError):
            hard_instance(t_label=[0.5, 1.0], a_set=[1.0], lam=2.0, **kw)

    def test_rejects_leaving_unit_interval(self):
        # mu_x(A) = 0.9: lambda > (1-m)/m = 1/9 is not enough to keep P < 1
        mx = FiniteMarginal([0.0, 1.0], [0.1, 0.9])
        with pytest.raises(ValueError):
            hard_instance([-1.0, 1.0], [0.5, 0.5], [-1.0, 1.0], a_set=[1.0], lam=0.5, marginal_x=mx)
