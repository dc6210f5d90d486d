import io
import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from juntaleap import (
    AdversarialOracle,
    FiniteMarginal,
    HonestOracle,
    JuntaProblem,
    PlantedInstance,
    Query,
    detect_csq,
    detect_sq,
    expand_hypercube,
    play_game,
)
from juntaleap.oracle import (
    _JSONL_CHUNK_LINES, BudgetExceededError, Transcript, _Block, _ordered_tuples, run_adaptive, run_grouped,
    run_nonadaptive,
)
from juntaleap.detect import DetectReport, Witness
from juntaleap.setsystem import SetSystem


@pytest.fixture(scope="module")
def p1_problem():
    return expand_hypercube(1, {(1,): 1.0})


def witness_query(witness, coords, scale=1.0):
    """The witness's query on one row of ambient coordinates."""
    return Query([coords], witness.tables, witness.t_label, scale)


def survivors(adv):
    """The adversary's surviving plantings as a set of tuples."""
    return set(map(tuple, adv.plantings.tolist()))


def assert_sound(result):
    """Every logged response of a game is within its oracle's tau times the
    query's null norm of the exact value."""
    for rec in result.transcript.records:
        assert abs(rec["response"] - rec["exact"]) <= result.tau * rec["norm"] + 1e-12, rec


class TestQuery:
    def test_single_term_norm_closed_form(self, y1_problem):
        rep = detect_csq(y1_problem)
        q = witness_query(rep.witnesses[0b0011], (4, 9))
        # normalized witnesses have unit null norm
        assert q.l2_null_norm(y1_problem) == pytest.approx(1.0, rel=1e-10)

    def test_grouped_norm_exact_summation(self, p1_problem):
        rep = detect_csq(p1_problem)
        w = rep.witnesses[0b1]
        table = w.tables[0]
        for n in (16, 2048):
            q = Query(np.arange(1, n + 1)[:, None], (table,), w.t_label, scale=1.0 / np.sqrt(n))
            # zero-mean tables on distinct coordinates: cross terms vanish,
            # norm^2 = scale^2 * n * ||T||^2 ||T_1||^2 = 1
            assert q.l2_null_norm(p1_problem) == pytest.approx(1.0, rel=1e-10)

    def test_grouped_norm_cross_terms(self):
        # three rows with nonzero means: E[phi^2] = 3 q + 6 m^2 under D0
        marginal = FiniteMarginal([-1.0, 0.0, 1.0], [0.3, 0.4, 0.3])
        problem = JuntaProblem(1, marginal, [0.0, 1.0], np.full((3, 2), 0.5))
        b, c = np.array([0.5, -1.0, 3.0]), np.array([2.0, 1.0, 1.0])
        q = Query([[1, 2], [3, 4], [6, 5]], (b, c), np.array([1.0, -2.0]), scale=0.5)
        qb, qc = (marginal.probs @ t**2 for t in (b, c))
        mb, mc = map(marginal.mean, (b, c))
        want = 0.25 * 2.5 * (3 * qb * qc + 6 * (mb * mc) ** 2)  # scale^2 E[T(y)^2] (...)
        assert q.l2_null_norm(problem) == pytest.approx(np.sqrt(want), rel=1e-14)

    def test_grouped_norm_takes_each_tables_moments_once(self, monkeypatch):
        """The rows share one tables tuple and its (q, m), taken once; the sums
        still run row by row, so the norm equals the per-row loop bit for bit,
        where n q would not."""
        marginal = FiniteMarginal([-1.0, 0.0, 1.0], [0.3, 0.4, 0.3])
        problem = JuntaProblem(1, marginal, [0.0, 1.0], np.full((3, 2), 0.5))
        a, b = np.array([1.0, 2.0, 0.1]), np.array([0.5, -1.0, 3.0])
        rows = np.arange(1, 399).reshape(199, 2)
        t_label, scale = np.array([1.0, -2.0]), 0.07
        total = m_sum = m_sq = 0.0
        for _ in rows:
            q = m = 1.0
            for tab in (a, b):
                q *= float(marginal.probs @ (tab * tab))
                m *= marginal.mean(tab)
            total += q
            m_sum += m
            m_sq += m * m
        assert total != len(rows) * q
        total += m_sum * m_sum - m_sq
        want = scale * float(np.sqrt(problem.mu_y @ t_label**2 * total))
        means = []
        mean = FiniteMarginal.mean
        monkeypatch.setattr(FiniteMarginal, "mean", lambda self, tab: means.append(1) or mean(self, tab))
        assert Query(rows, (a, b), t_label, scale).l2_null_norm(problem) == want
        assert len(means) == 2  # a and b

    def test_single_term_norm_independent_of_coordinates(self):
        marginal = FiniteMarginal([-1.0, 0.0, 1.0], [0.34, 0.32, 0.34])
        problem = JuntaProblem(1, marginal, [0.0, 1.0], np.full((3, 2), 0.5))
        tables = (np.array([-1.0, 0.0, 1.0]), np.array([1.0, -2.0, 1.0]), np.array([2.0, -1.0, 0.3]))
        e1, e2, e3 = (float(marginal.probs @ (t * t)) for t in tables)
        assert (e1 * e2) * e3 != (e1 * e3) * e2  # the slot order matters in floating point
        t_label = np.array([1.0, 3.0])
        norms = {coords: Query([coords], tables, t_label).l2_null_norm(problem)
                 for coords in itertools.permutations((1, 2, 3))}
        label_sq = problem.mu_y @ t_label**2
        assert set(norms.values()) == {float(np.sqrt(label_sq * (e1 * e2 * e3)))}

    def test_rejects_duplicate_coordinates(self, p1_problem):
        rep = detect_csq(p1_problem)
        w = rep.witnesses[0b1]
        with pytest.raises(ValueError):
            Query([[2, 2]], w.tables * 2, w.t_label)

    def test_rejects_terms_sharing_a_coordinate(self, p1_problem):
        w = detect_csq(p1_problem).witnesses[0b1]
        t = w.tables[0]
        with pytest.raises(ValueError, match="across rows"):
            Query([[1, 2], [3, 1]], (t, t), w.t_label)

    @pytest.mark.parametrize("coords", [[[1, 2]], [1], np.empty((0, 1), dtype=int), [[0]]])
    def test_rejects_coords_that_are_not_rows_of_slots(self, p1_problem, coords):
        w = detect_csq(p1_problem).witnesses[0b1]
        with pytest.raises(ValueError):
            Query(coords, w.tables, w.t_label)


class TestHonestOracle:
    def test_off_support_zero_mean_gives_zero(self, y1_problem):
        rep = detect_csq(y1_problem)
        inst = PlantedInstance(y1_problem, 10, (1, 2, 3, 4))
        oracle = HonestOracle(inst, tau=0.1, noise_mode="uniform", seed=1)
        q = witness_query(rep.witnesses[0b1], (9,))
        assert oracle.exact_expectation(q) == 0.0
        v = oracle.answer(q)
        assert abs(v) <= 0.1 * q.l2_null_norm(y1_problem) + 1e-12

    def test_witness_image_returns_beta(self, y2_problem):
        rep = detect_csq(y2_problem)
        inst = PlantedInstance(y2_problem, 9, (4, 6, 8, 2))
        oracle = HonestOracle(inst, tau=0.0)
        w = rep.witnesses[0b0111]  # positions {1,2,3}
        q = witness_query(w, (4, 6, 8))
        assert oracle.exact_expectation(q) == pytest.approx(w.beta, abs=1e-12)

    def test_tau_zero_is_exact(self, y1_problem):
        rep = detect_csq(y1_problem)
        inst = PlantedInstance(y1_problem, 8, (5, 6, 7, 8))
        oracle = HonestOracle(inst, tau=0.0, noise_mode="adversarial_sign")
        q = witness_query(rep.witnesses[0b1], (5,))
        assert oracle.answer(q) == oracle.exact_expectation(q)

    def test_rejects_out_of_range_coordinate(self, y1_problem):
        rep = detect_csq(y1_problem)
        inst = PlantedInstance(y1_problem, 8, (5, 6, 7, 8))
        oracle = HonestOracle(inst, tau=0.0)
        with pytest.raises(ValueError):
            oracle.answer(witness_query(rep.witnesses[0b1], (9,)))

    def test_grouped_exact_is_the_sum_of_its_rows(self, three_atom_problem):
        """Rows on and off the support, on a marginal where every table has a
        nonzero mean: the exact value is the row-by-row sum of one-row values."""
        rep = detect_sq(three_atom_problem)
        oracle = HonestOracle(PlantedInstance(three_atom_problem, 40, (7, 3, 30)), tau=0.1)
        for mask in rep.system.sets:
            w = rep.witnesses[mask]
            tables = tuple(t + 0.25 for t in w.tables)
            rows = np.random.default_rng(mask).permutation(np.arange(1, 41))[: 9 * len(tables)]
            rows = rows.reshape(9, len(tables))
            total = 0.0
            for row in rows:
                total += oracle.exact_expectation(Query([row], tables, w.t_label))
            assert oracle.exact_expectation(Query(rows, tables, w.t_label, 0.3)) == 0.3 * total

    def test_soundness_post_hoc(self, y2_problem):
        rep = detect_csq(y2_problem)
        inst = PlantedInstance(y2_problem, 12, (1, 5, 9, 11))
        result = play_game(inst, rep, tau=rep.beta / 4, noise_mode="uniform", seed=9)
        assert_sound(result)
        assert result.s_hat == frozenset({1, 5, 9, 11})


class TestAdaptiveLearner:
    def test_no_distractors(self, y1_problem):
        rep = detect_csq(y1_problem)
        inst = PlantedInstance(y1_problem, 4, (2, 1, 4, 3))
        result = play_game(inst, rep, tau=rep.beta / 4)
        assert result.s_hat == frozenset({1, 2, 3, 4})
        assert result.transcript.n_queries <= 100

    def test_y1_linear_scaling(self, y1_problem):
        rep = detect_csq(y1_problem)
        rng = np.random.default_rng(0)
        for trial in range(10):
            s = tuple(int(c) for c in rng.choice(np.arange(1, 31), 4, replace=False))
            inst = PlantedInstance(y1_problem, 30, s)
            result = play_game(inst, rep, tau=rep.beta / 4, noise_mode="adversarial_sign", seed=trial)
            assert result.s_hat == frozenset(s)
            assert result.transcript.n_queries <= 50 * 30

    def test_budget_exhaustion(self, y2_problem):
        rep = detect_csq(y2_problem)
        inst = PlantedInstance(y2_problem, 12, (9, 10, 11, 12))
        with pytest.raises(BudgetExceededError):
            run_adaptive(HonestOracle(inst, rep.beta / 4), inst.d, rep, budget=5)

    def test_relative_support_recovery(self):
        # the label ignores coordinate 2 of the support: the learner recovers
        # the image of supp(C_A) and stops without error
        prob = expand_hypercube(2, {(1,): 1.0})
        rep = detect_csq(prob)
        assert rep.system.support == 0b01
        inst = PlantedInstance(prob, 6, (4, 5))
        assert play_game(inst, rep, tau=rep.beta / 4).s_hat == frozenset({4})

    def test_sq_count_no_worse_than_csq_on_y2(self, y2_problem):
        sq = detect_sq(y2_problem)
        csq = detect_csq(y2_problem)
        inst = PlantedInstance(y2_problem, 12, (2, 5, 7, 11))
        t_sq = play_game(inst, sq, tau=sq.beta / 4).transcript
        t_csq = play_game(inst, csq, tau=csq.beta / 4).transcript
        assert t_sq.n_queries <= t_csq.n_queries


class TestNonadaptiveLearner:
    def test_y1_d8_block_structure(self, y1_problem):
        rep = detect_csq(y1_problem)
        inst = PlantedInstance(y1_problem, 8, (3, 6, 1, 8))
        result = play_game(inst, rep, learner="nonadaptive", tau=rep.beta / 4, noise_mode="adversarial_sign")
        assert result.s_hat == frozenset({3, 6, 1, 8})
        sizes = sorted({len(r["terms"][0]) for r in result.transcript.records})
        assert sizes == [1, 2, 3, 4]
        # P(8,1) + P(8,2) + P(8,3) + P(8,4)
        assert result.transcript.n_queries == 8 + 56 + 336 + 1680

    def test_all_singletons_needs_d_queries(self, p1_problem):
        rep = detect_csq(p1_problem)
        inst = PlantedInstance(p1_problem, 15, (11,))
        result = play_game(inst, rep, learner="nonadaptive", tau=rep.beta / 4)
        assert result.s_hat == frozenset({11})
        assert result.transcript.n_queries == 15


class TestGroupedLearner:
    def test_bit_decoding_d16(self, p1_problem):
        rep = detect_csq(p1_problem)
        for coord in (1, 7, 16):
            inst = PlantedInstance(p1_problem, 16, (coord,))
            result = play_game(inst, rep, learner="grouped", tau=0.0)
            assert result.s_hat == frozenset({coord})
            assert result.transcript.n_queries == 4

    def test_d1_zero_queries(self, p1_problem):
        rep = detect_csq(p1_problem)
        inst = PlantedInstance(p1_problem, 1, (1,))
        result = play_game(inst, rep, learner="grouped")
        assert result.s_hat == frozenset({1})
        assert result.transcript.n_queries == 0

    def test_adversarial_sign_noise_still_decodes(self, p1_problem):
        rep = detect_csq(p1_problem)
        beta = abs(rep.witnesses[0b1].beta)
        for coord in (37, 129, 256):
            inst = PlantedInstance(p1_problem, 256, (coord,))
            result = play_game(inst, rep, learner="grouped", tau=beta / (4 * np.sqrt(256)),
                               noise_mode="adversarial_sign")
            assert result.s_hat == frozenset({coord})
            assert result.transcript.n_queries == 8

    def test_d4096_in_12_queries(self, p1_problem):
        # the grouped norm is linear in the number of terms, so d in the
        # thousands costs a fraction of a second
        rep = detect_csq(p1_problem)
        inst = PlantedInstance(p1_problem, 4096, (2731,))
        result = play_game(inst, rep, learner="grouped", noise_mode="uniform", seed=3)
        assert result.success and result.s_hat == frozenset({2731})
        assert result.transcript.n_queries == 12
        assert_sound(result)

    def test_target_is_the_image_of_the_witness_position(self, y1_problem):
        # y1's one detectable singleton is position 1, so the grouped learner
        # recovers s_star[0] and every grouped game, budgeted or not, is graded
        # against it alone
        rep = detect_csq(y1_problem)
        inst = PlantedInstance(y1_problem, 16, (7, 2, 12, 5))
        s_hat, transcript = run_grouped(HonestOracle(inst, 0.0), inst.d, rep)
        assert s_hat == frozenset({7}) and transcript.n_queries == 4
        result = play_game(inst, rep, learner="grouped", tau=0.0)
        assert result.success and result.detail["target"] == [7]
        budgeted = play_game(inst, rep, learner="grouped", tau=0.0, budget=2)
        assert budgeted.verdict == "FAIL(budget)" and budgeted.detail["target"] == [7]

    def test_requires_singleton(self, y2_problem):
        rep = detect_csq(y2_problem)
        inst = PlantedInstance(y2_problem, 12, (1, 2, 3, 4))
        with pytest.raises(ValueError, match="singleton"):
            play_game(inst, rep, learner="grouped")


class TestAdversary:
    def test_null_answer_no_pruning_under_large_tau(self, y2_problem):
        rep = detect_csq(y2_problem)
        adv = AdversarialOracle(y2_problem, d=8, tau=100.0)
        n0 = len(adv.plantings)
        q = witness_query(rep.witnesses[0b0111], (1, 2, 3))
        assert adv.answer(q) == pytest.approx(0.0)
        assert len(adv.plantings) == n0

    def test_y2_singletons_and_pairs_carry_no_signal(self, y2_problem):
        # every singleton/pair CSQ expectation is exactly 0 for y2, so the
        # adversary answers 0 forever and never prunes
        rep = detect_csq(y2_problem)
        w3 = rep.witnesses[0b0111]
        table = w3.tables[0]
        adv = AdversarialOracle(y2_problem, d=10, tau=rep.beta / 4)
        n0 = len(adv.plantings)
        rng = np.random.default_rng(0)
        for _ in range(60):
            k = int(rng.integers(1, 3))
            coords = tuple(int(c) for c in rng.choice(np.arange(1, 11), k, replace=False))
            q = Query([coords], (table,) * k, w3.t_label)
            v = adv.answer(q)
            assert v == pytest.approx(0.0)
        assert len(adv.plantings) == n0

    def test_exhaustive_triples_prune_to_truth(self, y2_problem):
        # size-3 CSQ witness queries over all ordered triples: the adversary
        # survives until the detectable triples pin the support
        rep = detect_csq(y2_problem)
        d = 7
        adv = AdversarialOracle(y2_problem, d=d, tau=rep.beta / 4)
        import itertools

        w = rep.witnesses[0b0111]
        seen_fail = False
        for tup in itertools.permutations(range(1, d + 1), 3):
            v = adv.answer(witness_query(w, tup))
            if v is None:
                seen_fail = True
                break
        # with d slightly above P the adversary cannot keep two plantings alive
        # against the full sweep of triples
        assert seen_fail or len(adv.plantings) < 7 * 6 * 5 * 4

    def test_concession_is_none_and_logged_as_null(self, y2_problem):
        rep = detect_csq(y2_problem)
        w = rep.witnesses[0b0111]
        adv = AdversarialOracle(y2_problem, d=7, tau=rep.beta / 4)
        transcript = Transcript()
        answers = []
        for tup in itertools.permutations(range(1, 8), 3):
            answers.append(adv.answer(witness_query(w, tup), transcript, rep.beta / 2))
            if answers[-1] is None:
                break
        assert adv.conceded and answers[-1] is None and None not in answers[:-1]
        assert transcript.records[-1] == {"t": len(answers), "terms": [list(tup)], "scale": 1.0, "response": None,
                                          "norm": transcript.records[-1]["norm"]}
        buf = io.StringIO()
        transcript.to_jsonl(buf)
        assert '"response": null' in buf.getvalue().splitlines()[-1]

    def test_pairs_only_game_fails(self, y2_problem):
        rep = detect_csq(y2_problem)
        inst = PlantedInstance(y2_problem, 10, (1, 2, 3, 4))
        result = play_game(inst, rep, learner="adaptive", oracle_kind="adversarial",
                           tau_factor=0.25, max_tuple=2)
        assert result.verdict == "FAIL"
        assert result.detail["survivors"] == 10 * 9 * 8 * 7

    def test_scale_guard(self, y2_problem, monkeypatch):
        # at most 2^20 rows of plantings, d!/(d - P)!: y2 up to d = 33
        assert math.perm(33, 4) <= AdversarialOracle.MAX_PLANTINGS < math.perm(34, 4)
        assert len(AdversarialOracle(y2_problem, d=20, tau=0.1).plantings) == math.perm(20, 4)
        p5_problem = expand_hypercube(5, {(1, 2, 3, 4, 5): 1.0})
        # the bound is checked before the plantings are enumerated
        monkeypatch.setattr("juntaleap.oracle._ordered_tuples", lambda pool, k: pytest.fail("enumerated"))
        with pytest.raises(ValueError, match="plantings, got P = 4 at d = 34"):
            AdversarialOracle(y2_problem, d=34, tau=0.1)
        with pytest.raises(ValueError, match="P <= 4"):
            AdversarialOracle(p5_problem, d=5, tau=0.1)

    @pytest.mark.parametrize("tau", [-0.1, np.nan, np.inf])
    def test_both_oracles_reject_bad_tau(self, y2_problem, tau):
        with pytest.raises(ValueError, match="tau"):
            AdversarialOracle(y2_problem, d=8, tau=tau)
        with pytest.raises(ValueError, match="tau"):
            HonestOracle(PlantedInstance(y2_problem, 8, (1, 2, 3, 4)), tau)
        rep = detect_csq(y2_problem)
        for oracle_kind in ("honest", "adversarial"):
            with pytest.raises(ValueError, match="tau"):
                play_game(PlantedInstance(y2_problem, 8, (1, 2, 3, 4)), rep, oracle_kind=oracle_kind, tau=tau)


class TestOrderedTuples:
    """The array-built tuples are the rows of itertools.permutations, in its order."""

    @pytest.mark.parametrize("pool", [range(1, 7), [5, 2, 9, 1, 7], [3], []])
    def test_matches_itertools(self, pool):
        for k in range(len(pool) + 2):
            got = _ordered_tuples(pool, k)
            want = np.array(list(itertools.permutations(pool, k)), dtype=np.int64).reshape(math.perm(len(pool), k), k)
            assert got.dtype == np.int64 and got.shape == want.shape
            np.testing.assert_array_equal(got, want)

    def test_k_0_and_k_len_pool(self):
        assert _ordered_tuples([4, 1, 3], 0).shape == (1, 0)
        assert _ordered_tuples([4, 1, 3], 3).tolist() == [list(t) for t in itertools.permutations([4, 1, 3])]

    @given(n=st.integers(0, 8), k=st.integers(0, 5), limit=st.integers(0, 2000), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_limit_is_a_prefix(self, n, k, limit, seed):
        pool = np.random.default_rng(seed).permutation(np.arange(1, 3 * n + 1))[:n].tolist()
        got = _ordered_tuples(pool, k, limit)
        want = _ordered_tuples(pool, k)[:limit]
        assert got.dtype == np.int64 and got.shape == want.shape
        np.testing.assert_array_equal(got, want)


class TestTranscript:
    def test_jsonl_emission(self, y1_problem):
        rep = detect_csq(y1_problem)
        inst = PlantedInstance(y1_problem, 6, (1, 2, 3, 4))
        transcript = play_game(inst, rep, tau=rep.beta / 4).transcript
        buf = io.StringIO()
        transcript.to_jsonl(buf)
        lines = buf.getvalue().strip().split("\n")
        assert len(lines) == transcript.n_queries
        import json

        rec = json.loads(lines[0])
        assert {"t", "terms", "scale", "response"} <= set(rec)


class TestPlayGame:
    def test_grouped_default_tau_scales_with_d(self, p1_problem):
        # the default tolerance must shrink by 1/sqrt(d) for grouped queries
        rep = detect_csq(p1_problem)
        inst = PlantedInstance(p1_problem, 256, (185,))
        result = play_game(inst, rep, learner="grouped", noise_mode="adversarial_sign")
        assert result.success
        assert result.tau == pytest.approx(0.25 / np.sqrt(256))

    def test_honest_success_records_count(self, y1_problem):
        rep = detect_csq(y1_problem)
        inst = PlantedInstance(y1_problem, 20, (19, 3, 11, 7))
        result = play_game(inst, rep, tau_factor=0.25, noise_mode="adversarial_sign")
        assert result.success
        assert result.s_hat == frozenset({19, 3, 11, 7})

    def test_budget_verdict(self, y2_problem):
        rep = detect_csq(y2_problem)
        inst = PlantedInstance(y2_problem, 12, (9, 10, 11, 12))
        result = play_game(inst, rep, tau_factor=0.25, budget=3)
        assert result.verdict == "FAIL(budget)"

    @pytest.mark.parametrize("learner", ["adaptive", "nonadaptive"])
    def test_budgeted_game_memory_does_not_grow_with_d(self, y2_problem, learner):
        # a learner builds only the rows its budget allows plus one, not the
        # d!/(d - 4)! tuples of y2's 4-set (about 100 MiB at d = 120)
        rep = detect_csq(y2_problem)
        inst = PlantedInstance(y2_problem, 120, (3, 17, 41, 58))
        tracemalloc.start()
        try:
            result = play_game(inst, rep, learner=learner, tau_factor=0.25, budget=100, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.verdict == "FAIL(budget)" and result.transcript.n_queries == 100
        assert peak < 5 * 2**20

    @pytest.mark.parametrize("d", [2, 3, 8])
    def test_grouped_against_the_adversary_rejected_at_every_d(self, p1_problem, d):
        inst = PlantedInstance(p1_problem, d, (d,))
        with pytest.raises(ValueError, match="single-term"):
            play_game(inst, detect_csq(p1_problem), learner="grouped", oracle_kind="adversarial")

    def test_direct_grouped_call_against_the_adversary_raises(self, p1_problem):
        # at d = 3 the grouped queries have one row each, so the adversary
        # could answer them; the learner refuses before its first query
        inst = PlantedInstance(p1_problem, 3, (3,))
        with pytest.raises(ValueError, match="honest oracle"):
            run_grouped(AdversarialOracle(p1_problem, inst.d, 0.1), inst.d, detect_csq(p1_problem))

    @pytest.mark.parametrize("noise_mode", ["uniform", "adversarial_sign"])
    def test_noise_against_the_adversary_rejected(self, y2_problem, noise_mode):
        inst = PlantedInstance(y2_problem, 8, (1, 2, 3, 4))
        with pytest.raises(ValueError, match="honest oracle only"):
            play_game(inst, detect_csq(y2_problem), oracle_kind="adversarial", noise_mode=noise_mode)

    def test_seed_against_the_adversary_rejected(self, y2_problem):
        inst = PlantedInstance(y2_problem, 8, (1, 2, 3, 4))
        with pytest.raises(ValueError, match="takes no seed"):
            play_game(inst, detect_csq(y2_problem), oracle_kind="adversarial", seed=1)
        assert play_game(inst, detect_csq(y2_problem), oracle_kind="adversarial").transcript.n_queries == 197

    @pytest.mark.parametrize("learner", ["nonadaptive", "grouped"])
    def test_max_tuple_only_for_the_adaptive_learner(self, p1_problem, learner):
        inst = PlantedInstance(p1_problem, 8, (3,))
        with pytest.raises(ValueError, match="max_tuple"):
            play_game(inst, detect_csq(p1_problem), learner=learner, max_tuple=1)

    def test_adversary_game_holds_little_beyond_its_plantings(self, y2_problem):
        # y2 with max_tuple 2 asks no query, so the game is its plantings and
        # their grading; a set of their tuples took 7.4 times the array
        inst = PlantedInstance(y2_problem, 20, (1, 2, 3, 4))
        rep = detect_csq(y2_problem)
        tracemalloc.start()
        try:
            result = play_game(inst, rep, oracle_kind="adversarial", max_tuple=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        plantings_bytes = math.perm(20, 4) * 4 * np.dtype(np.int64).itemsize
        assert result.verdict == "FAIL" and result.detail["survivors"] == math.perm(20, 4)
        assert peak < 4 * plantings_bytes, f"traced peak {peak} B for {plantings_bytes} B of plantings"

    def test_adversary_verdict_is_graded_from_the_plantings(self, y2_problem, monkeypatch):
        # no adversary game reaches SUCCESS, so the learner is replaced by one
        # that leaves the given plantings on the oracle and outputs s_hat
        inst = PlantedInstance(y2_problem, 10, (1, 2, 3, 4))
        rep = detect_csq(y2_problem)
        support = (2, 5, 7, 9)
        perms = np.array(list(itertools.permutations(support)))

        def verdict(plantings, s_hat):
            def learner(oracle, d, report, budget=None, max_tuple=None):
                oracle.plantings = np.asarray(plantings, dtype=np.int64).reshape(-1, 4)
                return frozenset(s_hat), Transcript()

            monkeypatch.setattr("juntaleap.oracle.run_adaptive", learner)
            result = play_game(inst, rep, oracle_kind="adversarial")
            assert result.detail["survivors"] == len(plantings)
            return result.verdict

        assert verdict(perms, support) == "SUCCESS"
        assert verdict(perms[::7], support) == "SUCCESS"
        assert verdict(np.vstack([perms, [[2, 5, 7, 10]]]), support) == "FAIL"
        assert verdict(np.empty((0, 4)), support) == "FAIL"
        assert verdict(perms, support + (10,)) == "FAIL"
        assert verdict(perms, support[:3]) == "FAIL"


# ---------------------------------------------------------------------------
# Block answering against the query-by-query reference
# ---------------------------------------------------------------------------


def _charge(transcript):
    if transcript.budget is not None and transcript.n_queries >= transcript.budget:
        raise BudgetExceededError(transcript)


def scalar_adaptive(oracle, d, report, budget=None):
    """The adaptive learner with one `oracle.answer` per query."""
    threshold = report.beta / 2.0
    transcript = Transcript(budget)
    explored, assigned, s_hat = 0, {}, []
    while True:
        accepted = False
        cands = sorted(((m & ~explored).bit_count(), m) for m in report.system.sets if m & ~explored)
        for new_count, mask in cands:
            witness = report.witnesses[mask]
            old_pos = [p for p in witness.coords if explored >> (p - 1) & 1]
            new_pos = [p for p in witness.coords if not explored >> (p - 1) & 1]
            fresh_pool = [c for c in range(1, d + 1) if c not in s_hat]
            canonical = tuple(assigned[p] for p in old_pos)
            injections = [canonical] + [
                perm for perm in itertools.permutations(sorted(s_hat), len(old_pos)) if perm != canonical
            ]
            for fresh in itertools.permutations(fresh_pool, new_count):
                for inj in injections:
                    slot_map = dict(zip(old_pos, inj))
                    slot_map.update(zip(new_pos, fresh))
                    _charge(transcript)
                    v = oracle.answer(witness_query(witness, [slot_map[p] for p in witness.coords]), transcript,
                                      threshold)
                    hit = bool(abs(v) > threshold)
                    if hit:
                        assigned.update(slot_map)
                        s_hat.extend(fresh)
                        explored |= mask
                        accepted = True
                        break
                if accepted:
                    break
            if accepted:
                break
        if not accepted:
            return frozenset(s_hat), transcript


def scalar_nonadaptive(oracle, d, report, budget=None):
    """The non-adaptive learner with one `oracle.answer` per query."""
    threshold = report.beta / 2.0
    transcript = Transcript(budget)
    families = {min((m for m in report.system.sets if m >> (i - 1) & 1), key=lambda m: (m.bit_count(), m))
                for i in range(1, report.p + 1) if report.system.support >> (i - 1) & 1}
    recovered = set()
    for mask in sorted(families, key=lambda m: (m.bit_count(), m)):
        for tup in itertools.permutations(range(1, d + 1), mask.bit_count()):
            _charge(transcript)
            v = oracle.answer(witness_query(report.witnesses[mask], tup), transcript, threshold)
            hit = bool(abs(v) > threshold)
            if hit:
                recovered.update(tup)
    return frozenset(recovered), transcript


def run_both(learner, inst, report, tau, noise_mode, seed, budget=None):
    """(s_hat or None at the budget, transcript) from the block learner and the reference."""
    out = []
    for fn in ((run_adaptive, scalar_adaptive) if learner == "adaptive" else (run_nonadaptive, scalar_nonadaptive)):
        oracle = HonestOracle(inst, tau, noise_mode, seed)
        try:
            out.append(fn(oracle, inst.d, report, budget=budget))
        except BudgetExceededError as exc:
            out.append((None, exc.transcript))
    return out


def assert_same_records(block, scalar):
    assert len(block) == len(scalar)
    for got, want in zip(block, scalar):
        assert list(got) == list(want)
        for key in got:
            assert got[key] == want[key], key


@pytest.fixture(scope="module")
def three_atom_problem():
    """P = 3 on the marginal {-1, 0, 1}: y = z1 z2 + z2 z3 + z1 z3, noiseless."""
    marginal = FiniteMarginal([-1.0, 0.0, 1.0], [0.3, 0.4, 0.3])
    r = np.arange(27)
    z = marginal.values[(r[:, None] // 3 ** np.arange(3)) % 3]
    h = z[:, 0] * z[:, 1] + z[:, 1] * z[:, 2] + z[:, 0] * z[:, 2]
    labels = sorted(set(h.tolist()))
    cond = (h[:, None] == np.asarray(labels)[None, :]).astype(float)
    return JuntaProblem(3, marginal, labels, cond)


class TestBlockAnswers:
    @pytest.mark.parametrize("noise_mode", ["zero", "uniform", "adversarial_sign"])
    @pytest.mark.parametrize("learner", ["adaptive", "nonadaptive"])
    @pytest.mark.parametrize("name", ["y1", "y2", "three_atom"])
    def test_replay_through_scalar_answer(self, name, learner, noise_mode, request):
        problem = request.getfixturevalue(f"{name}_problem")
        rep = detect_csq(problem)
        d = 9 if learner == "adaptive" else 7
        rng = np.random.default_rng(len(name) + 10 * len(noise_mode))
        for seed, tau_factor in ((3, 0.25), (4, 0.7)):
            s = tuple(int(c) for c in rng.choice(np.arange(1, d + 1), problem.p, replace=False))
            inst = PlantedInstance(problem, d, s)
            (s_block, t_block), (s_ref, t_ref) = run_both(learner, inst, rep, tau_factor * rep.beta, noise_mode, seed)
            assert s_block == s_ref
            assert_same_records(t_block.records, t_ref.records)
            if tau_factor == 0.25:
                assert s_block == frozenset(s)

    @pytest.mark.parametrize("learner", ["adaptive", "nonadaptive"])
    def test_budget_truncation_matches_scalar_prefix(self, y2_problem, learner):
        rep = detect_csq(y2_problem)
        inst = PlantedInstance(y2_problem, 8, (6, 2, 8, 3))
        (_, full), _ = run_both(learner, inst, rep, rep.beta / 4, "uniform", 5)
        for budget in (0, 1, full.n_queries // 3, full.n_queries - 1):
            (s_block, t_block), (s_ref, t_ref) = run_both(learner, inst, rep, rep.beta / 4, "uniform", 5, budget)
            assert s_block is None and s_ref is None
            assert t_block.n_queries == budget
            assert_same_records(t_block.records, t_ref.records)
            result = play_game(inst, rep, learner=learner, tau_factor=0.25, noise_mode="uniform", seed=5,
                               budget=budget)
            assert result.verdict == "FAIL(budget)"
            assert result.transcript.records == t_block.records

    def test_uniform_vector_draw_equals_scalar_draws(self):
        a = np.random.default_rng(3)
        b = np.random.default_rng(3)
        vector = a.uniform(-0.37, 0.37, size=50)
        np.testing.assert_array_equal(vector, [b.uniform(-0.37, 0.37) for _ in range(50)])
        assert a.random() == b.random()

    def test_block_validation(self, y2_problem):
        rep = detect_csq(y2_problem)
        oracle = HonestOracle(PlantedInstance(y2_problem, 6, (1, 2, 3, 4)), 0.1)
        w = rep.witnesses[0b0111]
        for bad in ([[1, 2]], [[0, 1, 2]], [[1, 2, 7]], [[1, 2, 3], [4, 5, 4]]):
            with pytest.raises(ValueError):
                oracle.answer_block(w, np.array(bad), Transcript(), 0.1)

    def test_adversary_block_stops_at_concession(self, y2_problem):
        rep = detect_csq(y2_problem)
        w = rep.witnesses[0b0111]
        tuples = np.array(list(itertools.permutations(range(1, 8), 3)))
        block_adv, ref_adv = (AdversarialOracle(y2_problem, d=7, tau=rep.beta / 4) for _ in range(2))
        transcript = Transcript()
        hits, conceded = block_adv.answer_block(w, tuples, transcript, rep.beta / 2)
        ref = Transcript()
        for tup in tuples.tolist():
            v = ref_adv.answer(witness_query(w, tup), ref, rep.beta / 2)
            if v is None:
                break
        assert conceded and v is None
        assert transcript.records == ref.records
        assert survivors(block_adv) == survivors(ref_adv)

    def test_adversary_block_budget_matches_charged_loop(self, y2_problem):
        rep = detect_csq(y2_problem)
        w = rep.witnesses[0b0111]
        tuples = np.array(list(itertools.permutations(range(1, 8), 3)))

        def charged_loop(budget):
            adv = AdversarialOracle(y2_problem, d=7, tau=rep.beta / 4)
            ref = Transcript(budget)
            try:
                for tup in tuples.tolist():
                    _charge(ref)
                    v = adv.answer(witness_query(w, tup), ref, rep.beta / 2)
                    if v is None:
                        break
            except BudgetExceededError:
                return adv, ref, True
            return adv, ref, False

        _, full, _ = charged_loop(None)
        concession = full.n_queries
        for budget in (0, 1, concession // 2, concession - 1, concession, concession + 5):
            ref_adv, ref, ref_raised = charged_loop(budget)
            block_adv = AdversarialOracle(y2_problem, d=7, tau=rep.beta / 4)
            transcript = Transcript(budget)
            try:
                block_adv.answer_block(w, tuples, transcript, rep.beta / 2)
                raised = False
            except BudgetExceededError as exc:
                assert exc.transcript is transcript
                raised = True
            assert raised == ref_raised == (budget < concession)
            assert transcript.n_queries == ref.n_queries == min(budget, concession)
            assert transcript.records == ref.records
            assert survivors(block_adv) == survivors(ref_adv)
            assert block_adv.conceded == ref_adv.conceded == (budget >= concession)


class TestQueryCountScaling:
    """Theta(d^leap) adaptive queries (CSQ leap 1 for y1, 3 for y2) and the
    exact non-adaptive count sum over families of d!/(d-k)!."""

    @staticmethod
    def slope(problem, dims):
        rep = detect_csq(problem)
        rng = np.random.default_rng(0)
        means = []
        for d in dims:
            counts = []
            for _ in range(20):
                s = tuple(int(c) for c in rng.choice(np.arange(1, d + 1), 4, replace=False))
                result = play_game(PlantedInstance(problem, d, s), rep, tau_factor=0.25)
                assert result.success
                counts.append(result.transcript.n_queries)
            means.append(np.mean(counts))
        return np.polyfit(np.log(dims), np.log(means), 1)[0]

    def test_adaptive_slope_y2_leap3(self, y2_problem):
        assert 2.6 <= self.slope(y2_problem, (8, 12, 16, 24, 32)) <= 3.4

    def test_adaptive_slope_y1_leap1(self, y1_problem):
        assert 0.8 <= self.slope(y1_problem, (16, 32, 64, 128, 256)) <= 1.3

    @pytest.mark.parametrize("d", [10, 16])
    def test_nonadaptive_count_closed_form(self, y1_problem, y2_problem, d):
        # families: y1 {1}, {1,2}, {1,2,3}, {1,2,3,4}; y2 {1,2,3} and {1,2,4}
        for problem, sizes in ((y1_problem, (1, 2, 3, 4)), (y2_problem, (3, 3))):
            inst = PlantedInstance(problem, d, tuple(range(d - 3, d + 1)))
            result = play_game(inst, detect_csq(problem), learner="nonadaptive", tau_factor=0.25)
            assert result.success
            assert result.transcript.n_queries == sum(math.perm(d, k) for k in sizes)


class TestTranscriptLines:
    def test_template_matches_json_dumps(self):
        records = [
            {"t": 1, "terms": [[3, 1]], "scale": 1.0, "response": -0.1, "exact": 0.0, "norm": 1.0000000000000002,
             "accepted": False},
            {"t": 2, "terms": [[2]], "scale": 1.0, "response": 1e-300, "exact": 5e-324, "norm": 1e300,
             "accepted": True},
            {"t": 3, "terms": [[2]], "scale": 1.0, "response": float("nan"), "exact": 0.0, "norm": 1.0,
             "accepted": False},
            {"t": 4, "terms": [[2]], "scale": 1.0, "response": float("inf"), "exact": 0.0, "norm": 1.0,
             "accepted": True},
            {"t": 5, "terms": [[1], [2]], "scale": 0.5, "response": 0.25, "exact": 0.0, "norm": 1.0,
             "accepted": True},
            {"t": 6, "terms": [[1, 2]], "scale": 1.0, "response": None, "norm": 1.0},
            {"t": 7, "terms": [[True]], "scale": 1.0, "response": 0.5, "exact": 0.5, "norm": 1.0, "accepted": True},
        ]
        transcript = Transcript()
        expected = []
        for rec in records * 700:  # more than one chunk of lines
            transcript.log(rec["terms"], rec["scale"], rec["response"], rec["norm"],
                           **{k: rec[k] for k in ("exact", "accepted") if k in rec})
            expected.append({**rec, "t": len(expected) + 1})
        buf = io.StringIO()
        transcript.to_jsonl(buf)
        assert buf.getvalue() == "".join(json.dumps(r, sort_keys=True) + "\n" for r in expected)


# ---------------------------------------------------------------------------
# Column-stored transcripts
# ---------------------------------------------------------------------------


def block_records(t0, coords, responses, exact, norm, accepted):
    return [
        {"t": t0 + i, "terms": [[int(c) for c in row]], "scale": 1.0, "response": float(r), "exact": float(e),
         "norm": float(norm), "accepted": bool(a)}
        for i, (row, r, e, a) in enumerate(zip(coords, responses, exact, accepted))
    ]


class TestColumnTranscript:
    def test_mixed_records_and_blocks_write_json_dumps_lines(self):
        rng = np.random.default_rng(1)
        transcript = Transcript()
        expected = []

        def log(response, norm, exact=None, accepted=None):
            transcript.log([[4, 1]], 0.5, response, norm, exact=exact, accepted=accepted)
            optional = {"exact": exact, "norm": norm, "accepted": accepted}
            expected.append({"t": len(expected) + 1, "terms": [[4, 1]], "scale": 0.5, "response": response,
                             **{k: v for k, v in optional.items() if v is not None}})

        def block(n, k, floats, norm):
            coords = np.array([rng.choice(np.arange(1, 301), k, replace=False) for _ in range(n)])
            responses, exact = rng.choice(floats, n), rng.choice(floats, n)
            accepted = rng.random(n) < 0.3
            transcript.log_block(coords, responses, exact, norm, accepted)
            expected.extend(block_records(len(expected) + 1, coords, responses, exact, norm, accepted))

        finite = np.concatenate([[0.0, -0.0, 1e-300, 5e-324, -2.5e300, 1.0, 0.1 + 0.2], rng.normal(size=50)])
        log(0.25, 1.0, exact=0.25, accepted=True)
        block(5000, 3, finite, 1.0000000000000002)  # longer than one chunk of lines
        log(None, 2.0)
        block(0, 2, finite, 1.0)
        block(3, 1, finite, 0.5)
        with_nan = np.concatenate([finite, [np.nan, np.inf, -np.inf]])
        block(2500, 2, with_nan, 1.0)
        block(40, 4, finite, np.inf)
        log(-0.0, 1.0, exact=0.0, accepted=False)

        assert transcript.n_queries == len(expected) == 7546
        assert [r["t"] for r in transcript.records] == list(range(1, len(expected) + 1))
        assert repr(transcript.records) == repr(expected)  # keys in order; nan equal to nan
        buf = io.StringIO()
        transcript.to_jsonl(buf)
        assert buf.getvalue() == "".join(json.dumps(r, sort_keys=True) + "\n" for r in expected)

    # -0.0, subnormals, the extremes and floats whose repr needs 17 digits
    SPECIAL = [0.0, -0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308, 1e300, -1e300, 1.7976931348623157e308,
               0.1 + 0.2, 1 / 3, -1.0, 1.0]
    # NaN, a negative NaN and two NaNs with payloads: distinct bit patterns, each written NaN
    NON_FINITE = [np.nan, np.inf, -np.inf, *np.array([-1 << 51, 0x7FF8000000000001, 0x7FF0000000000ABC],
                                                     dtype=np.int64).view(np.float64).tolist()]

    @given(k=st.integers(1, 5), m=st.sampled_from([1, 2, 7, 2047, 2048, 2049, 4097]),
           t0=st.one_of(st.just(1), st.integers(1, 10**18)),
           pool=st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=8),
           norm=st.one_of(st.sampled_from(SPECIAL + NON_FINITE), st.floats(min_value=0.0, allow_infinity=False)),
           nonfinite=st.lists(st.sampled_from(NON_FINITE), max_size=6), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_block_chunks_write_json_dumps_lines(self, k, m, t0, pool, norm, nonfinite, seed):
        # finite and non-finite floats alike are written column by column, in chunks
        rng = np.random.default_rng(seed)
        floats = np.array(self.SPECIAL + pool + rng.normal(size=64).tolist())
        coords = rng.integers(1, 3000, size=(m, k))
        responses, exact = rng.choice(floats, m), rng.choice(floats, m)
        for value in nonfinite:
            (responses if rng.random() < 0.5 else exact)[rng.integers(m)] = value
        accepted = rng.random(m) < 0.3
        block = _Block(t0, coords, responses, exact, norm, accepted)
        text = "".join(block.jsonl(lo, lo + _JSONL_CHUNK_LINES) for lo in range(0, m, _JSONL_CHUNK_LINES))
        records = block_records(t0, coords, responses, exact, norm, accepted)
        assert text.splitlines(keepends=True) == [json.dumps(r, sort_keys=True) + "\n" for r in records]

    def test_records_view_grows_with_the_log(self):
        transcript = Transcript()
        assert transcript.records == []
        transcript.log_block(np.array([[1, 2], [3, 1]]), np.array([0.5, 0.0]), np.array([0.5, 0.0]), 1.0,
                             np.array([True, False]))
        transcript.log([[4, 1]], 0.5, 0.0, 1.0, exact=0.0)
        view = transcript.records
        assert [r["t"] for r in view] == [1, 2, 3]
        assert view[1]["terms"] == [[3, 1]] and view[2]["scale"] == 0.5


# ---------------------------------------------------------------------------
# Adversary pruning against a set-based reference
# ---------------------------------------------------------------------------


def pattern_value(problem, t_label, tables, assignment):
    """E[T(y) prod_i T_i] with slot i on support position assignment[i] and the
    other slots off support: the off-support means times the joint
    expectation, which `JuntaProblem` computes by enumeration."""
    off = math.prod(problem.marginal.mean(tab) for slot, tab in enumerate(tables) if slot not in assignment)
    on = {pos: tables[slot] for slot, pos in assignment.items()}
    return off * problem.joint_expectation(t_label, on)


class ReferenceAdversary:
    """The adversary over a set of surviving plantings: every slot -> support
    position pattern is enumerated, and the plantings inducing a pattern whose
    value strays from the null are found by enumerating permutations."""

    def __init__(self, problem, d, tau):
        self.helper = AdversarialOracle(problem, d, tau)  # for the null
        self.p, self.d, self.tau = problem.p, d, tau
        self.survivors = set(itertools.permutations(range(1, d + 1), problem.p))

    def answer(self, query):
        coords, tables = tuple(query.coords[0].tolist()), query.tables
        t_label = np.asarray(query.t_label, float)
        null = self.helper.null_value(query)
        tol = self.tau * query.l2_null_norm(self.helper.problem)
        to_prune = set()
        for k in range(1, min(len(coords), self.p) + 1):
            for slots in itertools.combinations(range(len(coords)), k):
                for pos_perm in itertools.permutations(range(1, self.p + 1), k):
                    assignment = dict(zip(slots, pos_perm))
                    val = query.scale * pattern_value(self.helper.problem, t_label, tables, assignment)
                    if abs(null - val) <= tol:
                        continue
                    to_prune |= self.matching(coords, assignment)
        if len(self.survivors - to_prune) < 2:
            return None
        self.survivors -= to_prune
        return null

    def matching(self, coords, assignment):
        fixed = {pos: coords[slot] for slot, pos in assignment.items()}
        others = set(coords) - set(fixed.values())
        free = [p for p in range(1, self.p + 1) if p not in fixed]
        pool = [c for c in range(1, self.d + 1) if c not in fixed.values() and c not in others]
        found = set()
        for rest in itertools.permutations(pool, len(free)):
            sigma = [0] * self.p
            for pos, c in itertools.chain(fixed.items(), zip(free, rest)):
                sigma[pos - 1] = c
            if tuple(sigma) in self.survivors:
                found.add(tuple(sigma))
        return found


class TestAdversaryPruning:
    @pytest.mark.parametrize("name,d", [("y1", 7), ("y2", 7), ("three_atom", 6)])
    def test_random_queries_until_concession(self, name, d, request):
        problem = request.getfixturevalue(f"{name}_problem")
        rep = detect_csq(problem)
        rng = np.random.default_rng(len(name))
        masks = list(rep.system.sets)
        for tau_factor in (0.05, 0.25):
            adv = AdversarialOracle(problem, d, tau_factor * rep.beta)
            ref = ReferenceAdversary(problem, d, tau_factor * rep.beta)
            sizes = []
            for _ in range(300):
                w = rep.witnesses[masks[rng.integers(len(masks))]]
                coords = tuple(int(c) for c in rng.choice(np.arange(1, d + 1), len(w.coords), replace=False))
                # witness tables, some shifted off zero mean so that slots differ
                tables = tuple(t + rng.choice([0.0, 0.0, 0.5]) for t in w.tables)
                query = Query([coords], tables, w.t_label, float(rng.choice([1.0, -0.5, 3.0])))
                got, want = adv.answer(query), ref.answer(query)
                assert (got is None) == (want is None)
                assert survivors(adv) == ref.survivors
                sizes.append(len(ref.survivors))
                if got is None:
                    break
                assert got == want
            assert got is None, "the query sequence should end in a concession"
            assert sizes[-1] < math.perm(d, problem.p)
