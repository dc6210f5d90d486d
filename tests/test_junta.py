import json
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from juntaleap import (
    FiniteMarginal,
    JuntaProblem,
    LabelNoise,
    PlantedInstance,
    expand_hypercube,
    hard_instance,
    problem_from_dict,
    uniform_hypercube_marginal,
)
from juntaleap import junta
from juntaleap.dynamics import hypercube_tables
from juntaleap.fourier import gram_schmidt, inverse_wht, moment_table, wht
from juntaleap.setsystem import mask_from_coords
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
        assert np.sqrt(m.probs @ np.square([1.0, -1.0])) == 1.0


class TestJuntaProblem:
    def test_rejects_bad_rows(self):
        m = uniform_hypercube_marginal()
        with pytest.raises(ValueError, match="sum to 1"):
            JuntaProblem(1, m, [0.0, 1.0], [[0.5, 0.4], [0.5, 0.5]])

    def test_rejects_non_finite_cond(self):
        m = FiniteMarginal([1.0, -1.0], [0.5, 0.5])
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                JuntaProblem(1, m, [0.0, 1.0], [[bad, 1.0], [0.5, 0.5]])

    @pytest.mark.parametrize("rows,message", [
        ([[np.nan, -5.0], [0.5, 0.5]], "finite"),
        ([[-np.inf, 1.0], [0.5, 0.5]], "finite"),
        ([[-0.25, 1.25], [0.5, 0.5]], "nonnegative"),
        ([[], []], "sum to 1"),
    ])
    def test_cond_validation_messages(self, rows, message):
        labels = [0.0, 1.0][: len(rows[0])]
        with pytest.raises(ValueError, match=message):
            JuntaProblem(1, uniform_hypercube_marginal(), labels, np.array(rows).reshape(2, len(labels)))

    def test_cond_within_tolerance_is_clipped(self):
        prob = JuntaProblem(1, uniform_hypercube_marginal(), [0.0, 1.0], [[-1e-13, 1.0 + 1e-13], [0.5, 0.5]])
        assert prob.cond[0, 0] == 0.0

    def test_validation_allocates_no_full_size_temporaries(self):
        """Checking cond takes no mask or copy of it and at most one row-sized
        float array: at three-atom P = 13 with two labels, the construction
        peaks within one row-sized array of what the problem keeps."""
        m = FiniteMarginal([-1.0, 0.0, 1.0], [0.25, 0.5, 0.25])
        cond = np.zeros((3**13, 2))
        cond[::2, 0] = cond[1::2, 1] = 1.0
        tracemalloc.start()
        try:
            prob = JuntaProblem(13, m, [0, 1], cond)  # copies cond once and keeps it
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        bound = 3**13 * 8 + 2**20
        assert peak - retained <= bound, f"peak {peak} B for {retained} B retained, bound {bound} B over"

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

    def test_memory_is_its_tables(self):
        """A three-atom P = 12 problem keeps cond, the row weights and mu_y, and
        nothing that grows with P |X|^P."""
        m = FiniteMarginal([-1.0, 0.0, 1.0], [0.3, 0.4, 0.3])
        cond = np.zeros((3**12, 2))
        cond[::2, 0] = cond[1::2, 1] = 1.0
        tracemalloc.start()
        try:
            prob = JuntaProblem(12, m, [0, 1], cond)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        bound = cond.nbytes + prob.row_weights.nbytes + 2**20
        assert retained < bound, f"retained {retained} B, bound {bound} B"


def _reference_symbols(nx: int, p: int) -> np.ndarray:
    """The (P, |X|^P) symbol-index table of the documented row layout."""
    rows = np.arange(nx**p)
    return np.stack([(rows // nx**k) % nx for k in range(p)]).astype(np.int64)


def _reference_weights(problem: JuntaProblem, symbols: np.ndarray) -> np.ndarray:
    w = np.ones(problem.n_rows)
    for k in range(problem.p):
        w *= problem.marginal.probs[symbols[k]]
    return w


def layout_corpus():
    """Seeded problems with 2-4 atoms of random probabilities (case 0 has a
    zero-probability atom, every fifth case is the uniform hypercube), P from
    1 to 6 and 1-4 labels."""
    rng = np.random.default_rng(23)
    problems = []
    for case in range(40):
        p, ny = 1 + case % 6, int(rng.integers(1, 5))
        if case % 5 == 4:
            marginal = uniform_hypercube_marginal()
        else:
            nx = int(rng.integers(2, 5)) if case else 3
            probs = rng.random(nx) + 0.05
            probs[0] = 0.0 if case == 0 else probs[0]
            marginal = FiniteMarginal(np.sort(rng.normal(size=nx)), probs / probs.sum())
        cond = rng.random((marginal.nx**p, ny))
        problems.append(JuntaProblem(p, marginal, list(range(ny)), cond / cond.sum(axis=1, keepdims=True)))
    return problems


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


class TestRowLayout:
    """Each reader of the row layout, bit for bit, against a reference that
    gathers through the (P, |X|^P) symbol-index table of the documented layout."""

    def test_corpus_spans_the_shapes(self):
        corpus = layout_corpus()
        assert {prob.marginal.nx for prob in corpus} == {2, 3, 4}
        assert {prob.p for prob in corpus} == set(range(1, 7))
        assert {prob.ny for prob in corpus} == {1, 2, 3, 4}
        assert any(np.any(prob.marginal.probs == 0.0) for prob in corpus)
        assert sum(prob.marginal.is_uniform_hypercube() for prob in corpus) == 8

    def test_weights_and_coordinates(self):
        for prob in layout_corpus():
            symbols = _reference_symbols(prob.marginal.nx, prob.p)
            weights = _reference_weights(prob, symbols)
            assert _same_bits(prob.row_weights, weights)
            assert _same_bits(prob.mu_y, weights @ prob.cond)
            for i in range(1, prob.p + 1):
                got = prob.coord_symbols(i)
                assert got.dtype == np.int64 and np.array_equal(got, symbols[i - 1])
                assert _same_bits(prob.coord_values(i), prob.marginal.values[symbols[i - 1]])

    def test_joint_expectation(self):
        rng = np.random.default_rng(5)
        for prob in layout_corpus():
            symbols = _reference_symbols(prob.marginal.nx, prob.p)
            weights = _reference_weights(prob, symbols)
            for trial in range(6):
                u = [] if trial == 0 else [int(c) + 1 for c in np.nonzero(rng.random(prob.p) < 0.5)[0]]
                t_label = rng.normal(size=prob.ny)
                tables = {i: rng.normal(size=prob.marginal.nx) for i in range(1, prob.p + 1)}
                factor = weights.copy()
                for i in u:
                    factor *= tables[i][symbols[i - 1]]
                expected = float(factor @ (prob.cond @ t_label))
                assert _same_bits(prob.joint_expectation(t_label, tables, u), expected), (prob.p, u)

    def test_moment_table_and_hypercube_tables(self):
        for prob in layout_corpus():
            symbols = _reference_symbols(prob.marginal.nx, prob.p)
            weights = _reference_weights(prob, symbols)
            basis = gram_schmidt(prob.marginal)
            reference = SimpleNamespace(p=prob.p, ny=prob.ny, marginal=prob.marginal, cond=prob.cond,
                                        row_weights=weights)
            assert _same_bits(moment_table(prob, basis), moment_table(reference, basis))
            if prob.marginal.is_uniform_hypercube():
                zmat, wz, cond, labels = hypercube_tables(prob)
                assert _same_bits(zmat, prob.marginal.values[symbols.T])
                assert _same_bits(wz, weights) and cond is prob.cond
                assert _same_bits(labels, prob.labels)


class TestJointExpectation:
    def test_decoupled_zero_mean_coordinate(self):
        # y independent of z_1: zero-mean T_1 makes the expectation vanish
        m = uniform_hypercube_marginal()
        prob = JuntaProblem(1, m, [0.0, 1.0], [[0.3, 0.7], [0.3, 0.7]])
        val = prob.joint_expectation([1.0, 1.0], {1: [1.0, -1.0]}, [1])
        assert val == pytest.approx(0.0, abs=1e-15)

    def test_identity_on_linear_junta(self):
        prob = expand_hypercube(1, {(1,): 1.0})
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

    @pytest.mark.parametrize("coord", [0, -1, 5])
    def test_rejects_a_coordinate_outside_the_support(self, y1_problem, coord):
        with pytest.raises(ValueError, match="outside"):
            y1_problem.joint_expectation(np.ones(y1_problem.ny), {coord: [1.0, -1.0]}, [coord])


class TestExpandHypercube:
    def test_linear_is_one_hot(self):
        prob = expand_hypercube(1, {(1,): 1.0})
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
        prob = expand_hypercube(4, coefs)
        assert prob.cond.shape[0] == 16

    def test_fourier_round_trip(self):
        rng = np.random.default_rng(9)
        coefs = {(): 0.3, (1,): -0.7, (2, 3): 1.2, (1, 2, 3, 4): 0.1}
        prob = expand_hypercube(4, coefs)
        labels = np.asarray(prob.labels)
        table = prob.cond @ labels  # E[y|z] per row
        got = wht(table)
        want = np.zeros(16)
        for coords, val in coefs.items():
            want[mask_from_coords(coords, 4)] = val
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_flip_noise_symmetrizes(self):
        prob = expand_hypercube(1, {(1,): 1.0}, noise=LabelNoise("flip", rate=0.25))
        assert prob.labels == (-1.0, 1.0)
        np.testing.assert_allclose(prob.cond, [[0.75, 0.25], [0.25, 0.75]][::-1], atol=1e-15)

    def test_additive_noise_extends_labels(self):
        prob = expand_hypercube(1, {(1,): 1.0}, noise=LabelNoise("additive", values=(0.0, 0.5), probs=(0.5, 0.5)))
        assert prob.labels == (-1.0, -0.5, 1.0, 1.5)

    def test_rejects_large_p(self):
        with pytest.raises(ValueError):
            expand_hypercube(17, {(1,): 1.0})

    def test_rejects_non_finite_labels(self):
        with pytest.raises(ValueError, match="finite"):
            expand_hypercube(2, {(1,): 1.0, (2,): float("nan")})
        with pytest.raises(ValueError, match="finite"):
            expand_hypercube(1, {(1,): 1.0}, LabelNoise("additive", values=(0.0, float("inf")), probs=(0.5, 0.5)))

    @pytest.mark.parametrize("values,probs", [((0.0, 0.5), (1.0,)), ((0.0,), (0.5, 0.5)), (0.5, 1.0)])
    def test_additive_noise_needs_values_and_probs_of_equal_length(self, values, probs):
        with pytest.raises(ValueError, match="1-D of equal length"):
            LabelNoise("additive", values=values, probs=probs)


def reference_expand(p, fourier, noise=None):
    """The per-row tabulation that expand_hypercube replaced: a dict of the
    outcomes of each clean value, the labels sorted from their set, and cond
    filled row by row."""
    coef = np.zeros(2**p)
    for coords, val in fourier.items():
        coef[mask_from_coords(coords, p)] += float(val)
    outcome_maps, all_values = [], set()
    for hv in inverse_wht(coef):
        hv = float(hv)
        if noise is None:
            pairs = [(hv, 1.0)]
        elif noise.kind == "flip":
            pairs = [(hv, 1.0)] if hv == -hv else [(hv, 1.0 - noise.rate), (-hv, noise.rate)]
        else:
            pairs = [(hv + v, q) for v, q in zip(noise.values, noise.probs)]
        outs = {}
        for v, q in pairs:
            outs[v] = outs.get(v, 0.0) + q
        outcome_maps.append(outs)
        all_values.update(outs)
    labels = sorted(all_values)
    col = {v: j for j, v in enumerate(labels)}
    cond = np.zeros((len(outcome_maps), len(labels)))
    for r, outs in enumerate(outcome_maps):
        for v, q in outs.items():
            cond[r, col[v]] += q
    return JuntaProblem(p, uniform_hypercube_marginal(), labels, cond)


def hypercube_corpus():
    """Seeded (P, fourier, noise) specs for P = 1..12 and one P = 16: small
    integer coefficients (zeros among them, so rows with h = 0 and labels
    that collide) or uniform ones with some set to 0, a constant term or
    none, under no noise, flip noise (rates 0, 1 or uniform) and additive
    noise (repeated values and zero probabilities among them)."""
    rng = np.random.default_rng(2020)
    specs = []
    for p in [*range(1, 13), 16]:
        for style in ("integer", "uniform"):
            for noise_kind in (None, "flip", "additive"):
                if p == 16 and (style, noise_kind) != ("integer", "flip"):
                    continue
                n_terms = int(rng.integers(1, min(2**p, 8) + 1))
                masks = rng.choice(2**p, size=n_terms, replace=False)
                fourier = {tuple(i + 1 for i in range(p) if int(m) >> i & 1): 0.0 for m in masks}
                for coords in fourier:
                    if style == "integer":
                        fourier[coords] = float(rng.integers(-2, 3))
                    else:
                        fourier[coords] = 0.0 if rng.random() < 0.2 else float(rng.uniform(-2, 2))
                if noise_kind == "flip":
                    noise = LabelNoise("flip", rate=float(rng.choice([0.0, 1.0, rng.uniform(0, 1)])))
                elif noise_kind == "additive":
                    k = int(rng.integers(1, 5))
                    probs = rng.dirichlet(np.ones(k))
                    if k > 1 and rng.random() < 0.3:
                        probs[0] = 0.0
                        probs /= probs.sum()
                    noise = LabelNoise("additive", values=tuple(rng.choice([-0.5, 0.0, 0.25, 0.5, 1.5], k).tolist()),
                                       probs=tuple(probs.tolist()))
                else:
                    noise = None
                specs.append((p, fourier, noise))
    return specs


def test_expand_hypercube_matches_the_per_row_tabulation():
    """Labels (as float bits) and cond (as bytes) equal the per-row dict
    tabulation's on every spec of the corpus."""
    zero_rows_under_flip = 0
    for p, fourier, noise in hypercube_corpus():
        got, want = expand_hypercube(p, fourier, noise), reference_expand(p, fourier, noise)
        assert np.asarray(got.labels).view(np.uint64).tolist() == np.asarray(want.labels).view(np.uint64).tolist()
        assert got.cond.tobytes() == want.cond.tobytes()
        if noise is not None and noise.kind == "flip":
            zero_rows_under_flip += int(np.count_nonzero(got.cond @ np.abs(got.labels) == 0))
    assert zero_rows_under_flip > 0


class TestSampling:
    def test_empty_draw(self, y1_problem):
        inst = PlantedInstance(y1_problem, 10, (2, 4, 6, 8))
        y, x, rows = inst.sampler(0).draw_batch(0)
        assert y.shape == (0,) and x.shape == (0, 10) and rows.shape == (0,)

    def test_empty_draw_leaves_the_stream(self):
        # an empty draw consumes nothing, for a uniform and a non-uniform marginal
        for probs in ([0.5, 0.5], [0.3, 0.7]):
            mx = FiniteMarginal([-1.0, 1.0], probs)
            prob = JuntaProblem(1, mx, [0.0, 1.0], [[0.4, 0.6], [0.9, 0.1]])
            inst = PlantedInstance(prob, 5, (2,))
            sampler = inst.sampler(3)
            y, symbols, rows = sampler.draw_symbols(0)
            assert y.shape == (0,) and symbols.shape == (0, 5) and rows.shape == (0,)
            assert symbols.dtype == np.uint8 and rows.dtype == np.int64
            for got, want in zip(sampler.draw_symbols(6), inst.sampler(3).draw_symbols(6)):
                np.testing.assert_array_equal(got, want)

    def test_noiseless_consistency(self, y1_problem):
        # the support is columns [:P] of the internal layout, in s_star order
        inst = PlantedInstance(y1_problem, 12, (3, 1, 7, 9))
        y, x, _ = inst.sampler(5).draw_batch(200)
        z = x[:, :4].T
        h = z[0] + z[0] * z[1] + z[0] * z[1] * z[2] + z[0] * z[1] * z[2] * z[3]
        assert y == pytest.approx(h)

    def test_empirical_mean_within_3_sigma(self):
        rng = np.random.default_rng(11)
        prob = random_problem(rng)
        inst = PlantedInstance(prob, prob.p + 3, tuple(range(1, prob.p + 1)))
        exact = prob.label_expectation(np.asarray(prob.labels, dtype=float))
        n = 100_000
        y, _, _ = inst.sampler(2).draw_batch(n)
        sd = float(np.std(np.asarray(prob.labels, float))) + 1e-9
        assert abs(float(np.mean(y)) - exact) <= 3 * sd / np.sqrt(n) + 1e-3

    def test_reproducible(self, y2_problem):
        inst = PlantedInstance(y2_problem, 9, (1, 5, 7, 2))
        for a, b in zip(inst.sampler(42).draw_batch(25), inst.sampler(42).draw_batch(25)):
            np.testing.assert_array_equal(a, b)

    def test_near_uniform_marginal_is_not_sampled_as_uniform(self):
        def draws(probs):
            prob = JuntaProblem(1, FiniteMarginal([1.0, -1.0], probs), [0.0], np.ones((2, 1)))
            return PlantedInstance(prob, 3, (2,)).sampler(0).draw_batch(2000)[1]

        assert not np.array_equal(draws([0.500004, 0.499996]), draws([0.5, 0.5]))

    def test_hypercube_draws_use_integer_symbols(self, y1_problem):
        # the uniform path: one integers() call for the support block, one for the rest
        inst = PlantedInstance(y1_problem, 7, (3, 1, 7, 5))
        y, x, rows = inst.sampler(4).draw_batch(50)
        rng = np.random.default_rng(4)
        support = rng.integers(0, 2, size=(50, 4))
        rest = rng.integers(0, 2, size=(50, 3))
        values = y1_problem.marginal.values
        np.testing.assert_array_equal(x, np.hstack([values[support], values[rest]]))
        np.testing.assert_array_equal(rows, y1_problem.row_index(support))

    def test_validates_planting(self, y1_problem):
        with pytest.raises(ValueError):
            PlantedInstance(y1_problem, 3, (1, 2, 3, 4))
        with pytest.raises(ValueError):
            PlantedInstance(y1_problem, 10, (1, 1, 2, 3))

    @pytest.mark.parametrize("s_star", [(1.7, 2, 3, 4), (True, 2, 3, 4), ("2", 3, 4, 5), (1.0, 2, 3, 4)])
    def test_rejects_s_star_entries_that_are_not_integers(self, y1_problem, s_star):
        with pytest.raises(ValueError, match="s_star entries must be integers"):
            PlantedInstance(y1_problem, 10, s_star)

    def test_accepts_numpy_integer_s_star(self, y1_problem):
        inst = PlantedInstance(y1_problem, 10, tuple(np.array([4, 2, 9, 1])))
        assert inst.s_star == (4, 2, 9, 1) and all(type(c) is int for c in inst.s_star)

    def test_sampler_needs_numeric_labels(self):
        prob = JuntaProblem(1, uniform_hypercube_marginal(), ["a", "b"], [[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="not numeric"):
            PlantedInstance(prob, 3, (2,)).sampler(0)


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
        sampler = PlantedInstance(prob, d, (5, 2)).sampler(9)
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
        sampler = PlantedInstance(fig1_problem(), 300, (1, 2, 3, 4)).sampler(7)
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
