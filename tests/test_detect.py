import numpy as np
import pytest

from juntaleap import (
    detect_csq,
    detect_dlq,
    detect_sq,
    expand_hypercube,
    exponents,
    hard_instance,
    uniform_hypercube_marginal,
)
from juntaleap.detect import DETECT_TOL, check_detect_params, default_u_grid, detect
from juntaleap.fourier import OrthonormalBasis, gram_schmidt
from juntaleap.junta import FiniteMarginal, JuntaProblem, problem_from_dict
from juntaleap.losses import get_loss
from juntaleap.setsystem import INFINITY, SetSystem, coords_from_mask, cover, leap
from conftest import factor_product_moments, random_problem, three_atom_blocks


def coords_sets(report):
    return set(report.system.members_as_coords())


class TestCsq:
    def test_y1_fourier_support(self, y1_problem):
        rep = detect_csq(y1_problem)
        assert coords_sets(rep) == {(1,), (1, 2), (1, 2, 3), (1, 2, 3, 4)}
        assert exponents(rep) == (1, 4, 1, 4)

    def test_y2(self, y2_problem):
        rep = detect_csq(y2_problem)
        assert coords_sets(rep) == {(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)}
        assert exponents(rep) == (3, 3, 3, 3)

    def test_constant_label_empty(self):
        # constant h; make labels two atoms via flip noise on a nonzero value
        from juntaleap import LabelNoise

        prob = expand_hypercube(2, {(): 1.0}, noise=LabelNoise("flip", rate=0.3))
        rep = detect_csq(prob)
        assert rep.system.sets == ()
        lp, cv, rl, rc = exponents(rep)
        assert lp is INFINITY and cv is INFINITY and rl is None and rc is None

    def test_prop62c_all_five_sets(self, prop62c_problem):
        rep = detect_csq(prop62c_problem)
        assert all(len(s) == 5 for s in coords_sets(rep))
        assert len(rep.system.sets) == 6
        lp, cv, _, _ = exponents(rep)
        assert (lp, cv) == (5, 5)


class TestSq:
    def test_y1_leap_cover_one(self, y1_problem):
        rep = detect_sq(y1_problem)
        lp, cv, rl, rc = exponents(rep)
        assert (lp, cv, rl, rc) == (1, 1, 1, 1)

    def test_y2_leap_one(self, y2_problem):
        rep = detect_sq(y2_problem)
        assert exponents(rep)[0] == 1

    def test_prop62c_singletons(self, prop62c_problem):
        rep = detect_sq(prop62c_problem)
        singles = {s for s in coords_sets(rep) if len(s) == 1}
        assert singles == {(i,) for i in range(1, 7)}
        assert exponents(rep)[0] == 1

    def test_binary_labels_collapse_to_csq(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            prob = random_problem(rng, binary_labels=True)
            assert detect_sq(prob).system.sets == detect_csq(prob).system.sets

    def test_basis_independence(self):
        rng, rot = np.random.default_rng(4), np.random.default_rng(123)
        for _ in range(10):
            prob = random_problem(rng)
            b1 = gram_schmidt(prob.marginal)
            # a second orthonormal basis: psi_1.. rotated by a random orthogonal matrix
            q, _ = np.linalg.qr(rot.standard_normal((b1.size - 1,) * 2))
            b2 = OrthonormalBasis(prob.marginal, np.vstack((b1.psi[:1], q @ b1.psi[1:])))
            assert detect_sq(prob, basis=b1).system.sets == detect_sq(prob, basis=b2).system.sets


class TestDlq:
    def test_squared_equals_csq(self):
        rng = np.random.default_rng(1)
        loss = get_loss("squared")
        for _ in range(25):
            prob = random_problem(rng)
            assert detect_dlq(prob, loss).system.sets == detect_csq(prob).system.sets

    def test_generic_losses_equal_sq(self):
        rng = np.random.default_rng(2)
        losses = [get_loss("abs"), get_loss("hinge"), get_loss("exponential")]
        for _ in range(15):
            prob = random_problem(rng)
            sq_sets = detect_sq(prob).system.sets
            for loss in losses:
                assert detect_dlq(prob, loss).system.sets == sq_sets, loss.name

    def test_prop62c_separation(self, prop62c_problem):
        loss = get_loss("squared_plus_quartic_half")
        rep = detect_dlq(prop62c_problem, loss)
        sets = coords_sets(rep)
        assert all(len(s) >= 2 for s in sets)
        assert {(i, j) for i in range(1, 7) for j in range(i + 1, 7)} <= sets
        assert exponents(rep)[0] == 2

    def test_containment_in_sq(self):
        rng = np.random.default_rng(3)
        losses = [get_loss(n) for n in ("squared", "abs", "hinge", "logistic")]
        for _ in range(10):
            prob = random_problem(rng)
            sq = set(detect_sq(prob).system.sets)
            csq = set(detect_csq(prob).system.sets)
            assert csq <= sq
            for loss in losses:
                assert set(detect_dlq(prob, loss).system.sets) <= sq

    def test_grid_negatives_flagged(self, y2_problem):
        rep = detect_dlq(y2_problem, get_loss("squared"))
        # squared-loss DLQ misses everything CSQ misses; those sets are flagged
        assert set(rep.grid_negatives) == set(range(1, 16)) - set(rep.system.sets)

    def test_empty_grid_rejected(self, y1_problem):
        with pytest.raises(ValueError):
            detect_dlq(y1_problem, get_loss("abs"), u_grid=[])

    @pytest.mark.parametrize("grid", [[np.nan], [0.0, np.inf]])
    def test_non_finite_grid_rejected(self, y1_problem, grid):
        with pytest.raises(ValueError, match="u_grid must be non-empty and finite"):
            detect_dlq(y1_problem, get_loss("abs"), u_grid=grid)

    def test_exponential_overflow_at_a_grid_point(self):
        # labels +-5, +-15: the grid reaches |u| = 60, where e^(-u y) overflows;
        # those label tests are skipped, and the others detect what SQ does
        prob = expand_hypercube(2, {(1,): 10.0, (1, 2): 5.0})
        rep = detect_dlq(prob, get_loss("exponential"))
        assert rep.system.sets == detect_sq(prob).system.sets == (1, 2, 3)
        assert rep.grid_negatives == ()


class TestDetectionParameters:
    @pytest.mark.parametrize("tol", [-1.0, np.nan, np.inf])
    @pytest.mark.parametrize("model", ["SQ", "CSQ", "DLQ"])
    def test_bad_tol_rejected_by_every_model(self, y2_problem, model, tol):
        loss = get_loss("squared") if model == "DLQ" else None
        with pytest.raises(ValueError, match="tol must be finite and >= 0"):
            detect(y2_problem, model, loss, tol=tol)

    def test_check_accepts_zero_tol_and_a_finite_grid(self):
        check_detect_params(0.0)
        check_detect_params(DETECT_TOL, [-1.0, 0.0, 2.5])

    @pytest.mark.parametrize("bad", [{"tol": -1e-12}, {"u_grid": []}, {"u_grid": [1.0, np.nan]}])
    def test_check_rejects(self, bad):
        with pytest.raises(ValueError):
            check_detect_params(**bad)


class TestWitnesses:
    def test_round_trip_exactness(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            prob = random_problem(rng)
            for rep in (detect_sq(prob), detect_csq(prob), detect_dlq(prob, get_loss("abs"))):
                for mask, w in rep.witnesses.items():
                    again = prob.joint_expectation(w.t_label, dict(zip(w.coords, w.tables)))
                    assert again == pytest.approx(w.beta, abs=1e-10)
                    assert w.beta != 0.0

    def test_normalization(self, y1_problem):
        rep = detect_csq(y1_problem)
        for w in rep.witnesses.values():
            norm = np.sqrt(y1_problem.mu_y @ np.asarray(w.t_label) ** 2)
            for tab in w.tables:
                norm *= np.sqrt(y1_problem.marginal.probs @ np.asarray(tab) ** 2)
            assert norm == pytest.approx(1.0, rel=1e-10)

    def test_tables_are_read_only_rows_of_the_basis(self):
        # a witness holds views of psi, in the order of its coordinates
        rng = np.random.default_rng(9)
        for _ in range(5):
            prob = random_problem(rng)
            basis = gram_schmidt(prob.marginal)
            for rep in (detect_sq(prob, basis=basis), detect_csq(prob, basis=basis),
                        detect_dlq(prob, get_loss("abs"), basis=basis)):
                assert rep.witnesses, rep.model
                for w in rep.witnesses.values():
                    assert len(w.tables) == len(w.coords)
                    for table in w.tables:
                        assert not table.flags.writeable and np.shares_memory(table, basis.psi), rep.model
                assert basis.psi.flags.writeable

    def test_beta_is_the_winning_score(self, monkeypatch):
        # beta comes from the scan that chose the witness, never from a second
        # enumeration
        def enumerate_(*args, **kwargs):
            raise AssertionError("detection called joint_expectation")

        rng = np.random.default_rng(8)
        problems = [random_problem(rng) for _ in range(5)]
        monkeypatch.setattr(JuntaProblem, "joint_expectation", enumerate_)
        for prob in problems:
            for rep in (detect_sq(prob), detect_csq(prob), detect_dlq(prob, get_loss("abs"))):
                assert rep.witnesses
                assert rep.beta == min(abs(w.beta) for w in rep.witnesses.values())

    def test_beta_is_min(self, y2_problem):
        rep = detect_csq(y2_problem)
        assert rep.beta == pytest.approx(min(abs(w.beta) for w in rep.witnesses.values()))

    def test_report_serializes(self, y1_problem):
        import json

        rep = detect_sq(y1_problem)
        blob = json.dumps(rep.to_dict())
        data = json.loads(blob)
        assert data["leap"] == 1 and data["cover"] == 1


def _with_atoms(values, probs):
    """P = 2, y = z1 + z1 z2 on the given marginal; a row on an atom of
    probability 0 has a uniform label."""
    marginal = FiniteMarginal(values, probs)
    n = marginal.nx
    z = marginal.values[(np.arange(n**2)[:, None] // n ** np.arange(2)) % n]
    labels = np.array([-2.0, 0.0, 2.0])
    cond = (z[:, 0] + z[:, 0] * z[:, 1])[:, None] == labels
    return JuntaProblem(2, marginal, labels.tolist(), np.where(cond.any(axis=1)[:, None], cond, 1 / 3))


class TestNullAtoms:
    def test_same_report_as_without_the_atom(self):
        # rows on a null atom weigh nothing: the sets, exponents and betas
        # are those of the problem without it
        full = _with_atoms([1.0, -1.0, 0.0], [0.5, 0.5, 0.0])
        reduced = _with_atoms([1.0, -1.0], [0.5, 0.5])
        for run in (detect_sq, detect_csq, lambda p: detect_dlq(p, get_loss("squared")),
                    lambda p: detect_dlq(p, get_loss("abs"))):
            got, want = run(full), run(reduced)
            assert got.system.sets == want.system.sets
            assert exponents(got) == exponents(want)
            assert got.beta == pytest.approx(want.beta, rel=1e-15)
            for mask, w in got.witnesses.items():
                for table, want_table in zip(w.tables, want.witnesses[mask].tables, strict=True):
                    np.testing.assert_array_equal(table[:2], want_table)
                    assert table[2] == 0.0


class TestHardInstanceDetect:
    def test_sq_yes_dlq_squared_no(self):
        # T = (3y^2 - 2)/2 on uniform three-point labels: zero-mean, |T| <= 1,
        # orthogonal to the identity, hence invisible to d/du (u-y)^2 slices
        labels = [-1.0, 0.0, 1.0]
        mu_y = [1 / 3, 1 / 3, 1 / 3]
        t = [0.5, -1.0, 0.5]
        prob = hard_instance(labels, mu_y, t, a_set=[1.0], lam=2.0,
                             marginal_x=uniform_hypercube_marginal())
        assert detect_sq(prob).system.sets == (1,)
        assert detect_dlq(prob, get_loss("squared")).system.sets == ()
        assert detect_csq(prob).system.sets == ()
        # a generic loss still sees it
        assert detect_dlq(prob, get_loss("abs")).system.sets == (1,)

    def test_squared_plus_cubic_grid_has_its_breakpoints(self):
        # T orthogonal (and zero-mean) to the numerical span of l'(u, .) over
        # the breakpoint-free grid, which the squared loss's grid is: only
        # points between the labels, where l' changes polynomial, reach T
        labels = np.linspace(-2, 2, 32)
        mu_y = np.full(32, 1 / 32)
        loss = get_loss("squared_plus_cubic")
        rows = loss.deriv(default_u_grid(get_loss("squared"), labels)[:, None], labels[None, :])
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        _, sv, vt = np.linalg.svd(rows)
        rank = int((sv > 1e-9 * sv[0]).sum())
        q, _ = np.linalg.qr(np.vstack((vt[:rank], np.ones(32))).T)
        t = np.random.default_rng(0).standard_normal(32)
        t -= q @ (q.T @ t)
        t /= np.abs(t).max()
        prob = hard_instance(labels, mu_y, t, a_set=[1.0], lam=2.0, marginal_x=uniform_hypercube_marginal())
        assert rank == 22
        assert detect_sq(prob).system.sets == (1,)
        rep = detect_dlq(prob, loss)
        assert rep.system.sets == (1,) and rep.grid_negatives == ()


# ---------------------------------------------------------------------------
# Moment-table detection against the per-subset scan
# ---------------------------------------------------------------------------


def reference_scan(problem, t_rows=None, u_values=None):
    """Detection one subset at a time from factor-product moments.

    For every mask, the best (test row, basis tuple) by normalized score, ties
    to the lowest row and then the lowest tuple (last coordinate fastest), and
    the runner-up score over all other candidates. t_rows None means SQ, where
    the test row is the conditional expectation xi of the tuple.
    """
    basis = gram_schmidt(problem.marginal)
    mu_y = problem.mu_y
    out = {}
    for mask in range(1, 1 << problem.p):
        coords = coords_from_mask(mask)
        flat = factor_product_moments(problem, basis, coords)
        if t_rows is None:
            xi = np.zeros_like(flat)
            attained = mu_y > 1e-300
            xi[attained] = flat[attained] / mu_y[attained, None]
            scores = np.sqrt(mu_y @ xi**2)[None, :]
        else:
            norms = np.sqrt(t_rows**2 @ mu_y)
            usable = norms > 0
            scores = np.zeros((len(t_rows), flat.shape[1]))
            scores[usable] = np.abs(t_rows[usable] @ flat) / norms[usable, None]
        r, j = np.unravel_index(int(np.argmax(scores)), scores.shape)
        ranked = np.sort(scores.ravel())
        out[mask] = {"score": scores[r, j], "runner_up": ranked[-2] if ranked.size > 1 else 0.0}
        if scores[r, j] > DETECT_TOL:
            t_label = xi[:, j] / scores[0, j] if t_rows is None else t_rows[r] / norms[r]
            digits = np.unravel_index(j, (basis.size - 1,) * len(coords))
            tables = tuple(basis.psi[1 + d] for d in digits)
            out[mask].update(t_label=t_label, tables=tables, u=None if u_values is None else float(u_values[r]),
                             beta=problem.joint_expectation(t_label, dict(zip(coords, tables))))
    return out


def assert_matches_reference(problem, rep, ref):
    order = sorted(ref, key=lambda m: (m.bit_count(), m))
    detected = tuple(m for m in order if ref[m]["score"] > DETECT_TOL)
    assert rep.system.sets == detected, rep.model
    if rep.model.startswith("DLQ"):
        assert rep.grid_negatives == tuple(m for m in order if m not in detected)
    system = SetSystem(problem.p, detected)
    assert exponents(rep)[:2] == (leap(system), cover(system))
    for mask in detected:
        w, want = rep.witnesses[mask], ref[mask]
        assert w.coords == coords_from_mask(mask)
        again = problem.joint_expectation(w.t_label, dict(zip(w.coords, w.tables)))
        assert w.beta == pytest.approx(again, rel=1e-12, abs=0), (rep.model, mask)
        assert abs(w.beta) == pytest.approx(abs(want["beta"]), rel=1e-12, abs=0)
        if want["score"] - want["runner_up"] > 1e-12 * want["score"]:
            assert w.u_value == want["u"], (rep.model, mask)
            for table, want_table in zip(w.tables, want["tables"], strict=True):
                assert np.array_equal(table, want_table), (rep.model, mask)
            np.testing.assert_allclose(w.t_label, want["t_label"], rtol=1e-12, atol=1e-15)
    if detected:
        assert abs(rep.beta) == pytest.approx(min(abs(ref[m]["beta"]) for m in detected), rel=1e-12)


REFERENCE_LOSSES = ("squared", "abs", "hinge", "logistic", "squared_plus_cubic")


def check_against_reference(problem):
    assert_matches_reference(problem, detect_sq(problem), reference_scan(problem))
    labels = problem.labels_numeric()
    assert_matches_reference(problem, detect_csq(problem), reference_scan(problem, labels[None, :]))
    for name in REFERENCE_LOSSES:
        loss = get_loss(name)
        grid = default_u_grid(loss, labels)
        rep = detect_dlq(problem, loss)
        ref = reference_scan(problem, loss.deriv(grid[:, None], labels[None, :]), grid)
        assert_matches_reference(problem, rep, ref)


class TestMomentTableDetection:
    def test_random_corpus(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            check_against_reference(random_problem(rng))

    @pytest.mark.parametrize("name", ["y1", "y2", "fig1a", "fig1b", "fig1c", "prop62c_k3"])
    def test_bundled_configs(self, name):
        import json
        from importlib.resources import files

        cfg = json.loads(files("juntaleap").joinpath("configs", f"{name}.json").read_text())
        check_against_reference(problem_from_dict(cfg["problem"]))

    def test_tie_rule(self, y1_problem):
        # a dyadic basis (orthogonal, not normalized) keeps every score exact:
        # for y = z1 z2 (z1 + z2) the tuples (1, 2) and (2, 1) tie for {1, 2}, and
        # the lowest tuple with coordinate 1 as the most significant digit wins
        values = np.array([-1.0, 0.0, 1.0])
        basis = OrthonormalBasis(FiniteMarginal(values, [0.25, 0.5, 0.25]),
                                 np.array([[1.0, 1.0, 1.0], [-1.0, 0.0, 1.0], [1.0, -1.0, 1.0]]))
        z1, z2 = values[np.arange(9) % 3], values[np.arange(9) // 3]
        y = (z1 * z2 * (z1 + z2)).astype(int)
        labels = sorted(set(y.tolist()))
        cond = np.eye(len(labels))[[labels.index(v) for v in y]]
        prob = JuntaProblem(2, basis.marginal, labels, cond)
        w = detect_csq(prob, basis=basis).witnesses[0b11]
        assert np.array_equal(w.tables[0], basis.psi[1]) and np.array_equal(w.tables[1], basis.psi[2])
        # identical derivative rows of abs tie on the hypercube; the lowest grid point wins
        loss = get_loss("abs")
        labels = y1_problem.labels_numeric()
        grid = default_u_grid(loss, labels)
        ref = reference_scan(y1_problem, loss.deriv(grid[:, None], labels[None, :]), grid)
        rep = detect_dlq(y1_problem, loss)
        assert rep.witnesses and all(w.u_value == ref[m]["u"] for m, w in rep.witnesses.items())

    def test_three_atom_p10(self):
        blocks = [(1, 2, 3), (4, 5, 6), (7, 8, 9, 10)]
        prob = three_atom_blocks(10, blocks)
        assert prob.n_rows == 59_049
        csq = detect_csq(prob)
        assert coords_sets(csq) == set(blocks)
        assert exponents(csq)[:2] == (4, 4)
        assert detect_dlq(prob, get_loss("squared")).system.sets == csq.system.sets
        sq = set(detect_sq(prob).system.sets)
        assert set(csq.system.sets) <= sq
        assert set(detect_dlq(prob, get_loss("abs")).system.sets) <= sq
