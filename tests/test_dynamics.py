import copy
import tracemalloc

import numpy as np
import pytest

from juntaleap import (
    HypercubeJunta,
    PlantedInstance,
    TrainConfig,
    bayes_risk,
    detect_dlq,
    df_risk,
    df_step,
    expand_hypercube,
    init_df_state,
    init_ensemble,
    kernel,
    layerwise_train,
    poly_activation,
    run_df,
    run_sgd,
    sgd_step,
    smallest_eigenvalue,
    support_alignment,
    tanh_activation,
)
from juntaleap import dynamics
from juntaleap.dynamics import (
    DFState,
    DivergenceError,
    ParticleEnsemble,
    StepBuffers,
    _df_forward,
    gauss_hermite,
    hypercube_tables,
    make_activation,
    scaled_tanh,
)
from juntaleap.losses import get_loss
from conftest import fig1_problem


def small_ensemble(seed=3, d=5, m=4):
    rng = np.random.default_rng(seed)
    return ParticleEnsemble(
        a=rng.normal(size=m),
        w=rng.normal(size=(m, d)) * 0.3,
        b=rng.normal(size=m),
        c=np.full(m, 0.2),
        activation=tanh_activation(),
    )


class TestSgdStep:
    def test_zero_step_size_is_identity(self):
        ens = small_ensemble()
        before = copy.deepcopy(ens)
        rng = np.random.default_rng(0)
        x = rng.choice([-1.0, 1.0], size=(3, 5))
        y = rng.normal(size=3)
        sgd_step(ens, x, y, TrainConfig(loss=get_loss("squared"), eta=0.0))
        np.testing.assert_array_equal(ens.w, before.w)
        np.testing.assert_array_equal(ens.a, before.a)

    def test_finite_difference_gradient(self):
        # update equals eta * grad of M * (mean batch loss) + per-particle decay
        loss = get_loss("squared")
        ens = small_ensemble(m=1)
        before = copy.deepcopy(ens)
        rng = np.random.default_rng(1)
        x = rng.choice([-1.0, 1.0], size=(1, 5))
        y = rng.normal(size=1)
        eta = 1e-5
        sgd_step(ens, x, y, TrainConfig(loss=loss, eta=eta))
        h = 1e-5

        def batch_loss(e):
            return e.m * float(np.mean(loss.value(e.forward(x), y)))

        for name in ("a", "w", "b", "c"):
            arr0 = getattr(before, name)
            arr1 = getattr(ens, name)
            for idx in np.ndindex(arr0.shape):
                ep, em = copy.deepcopy(before), copy.deepcopy(before)
                getattr(ep, name)[idx] += h
                getattr(em, name)[idx] -= h
                fd = (batch_loss(ep) - batch_loss(em)) / (2 * h)
                got = (arr0[idx] - arr1[idx]) / eta
                assert got == pytest.approx(fd, rel=1e-6, abs=1e-8)

    def test_pure_weight_decay(self):
        # zero-signal data with a = c = 0: w decays by (1 - eta*lambda) per step
        act = tanh_activation()
        rng = np.random.default_rng(2)
        w0 = rng.normal(size=(3, 4))
        ens = ParticleEnsemble(np.zeros(3), w0.copy(), np.zeros(3), np.zeros(3), act)
        cfg = TrainConfig(loss=get_loss("squared"), eta=0.1, lam_w=0.5)
        x = rng.choice([-1.0, 1.0], size=(8, 4))
        y = np.zeros(8)
        sgd_step(ens, x, y, cfg)
        np.testing.assert_allclose(ens.w, w0 * (1 - 0.1 * 0.5), atol=1e-14)

    def test_divergence_raises(self):
        ens = small_ensemble()
        ens.a[:] = 1e300
        x = np.ones((1, 5))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError):
                sgd_step(ens, x, np.zeros(1), TrainConfig(loss=get_loss("squared"), eta=1.0))

    def test_rejects_empty_batch(self):
        ens = small_ensemble()
        with pytest.raises(ValueError):
            sgd_step(ens, np.empty((0, 5)), np.empty(0), TrainConfig(loss=get_loss("squared"), eta=0.1))

    def test_kappa_range_validated(self):
        with pytest.raises(ValueError):
            TrainConfig(loss=get_loss("squared"), eta=0.1, kappa=np.array([0.1]))

    @pytest.mark.parametrize("kappa", [1.0, np.ones((2, 2))])
    def test_rejects_kappa_that_is_not_one_dimensional(self, kappa):
        # a scalar would pass kappa_for(1) as a size-1 array, then fail where a list is read
        with pytest.raises(ValueError, match="kappa must be one-dimensional"):
            TrainConfig(loss=get_loss("squared"), eta=0.1, kappa=kappa)

    @pytest.mark.parametrize("bad", [{"eta": np.nan}, {"eta": np.inf}, {"kappa": [np.nan, 1.0]}, {"batch": 0}])
    def test_rejects_non_finite_eta_or_kappa_and_empty_batch(self, bad):
        with pytest.raises(ValueError):
            TrainConfig(**{"loss": get_loss("squared"), "eta": 0.1, **bad})

    @pytest.mark.parametrize("bad", [{"batch": 2.5}, {"batch": True}, {"batch": "2"}])
    def test_rejects_a_batch_that_is_not_an_integer(self, bad):
        with pytest.raises(TypeError, match="batch must be an integer"):
            TrainConfig(**{"loss": get_loss("squared"), "eta": 0.1, **bad})

    @pytest.mark.parametrize("lam", ["lam_a", "lam_w"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_decay(self, lam, value):
        with pytest.raises(ValueError, match="must be finite"):
            TrainConfig(loss=get_loss("squared"), eta=0.1, **{lam: value})

    def test_accepts_numpy_integer_batch(self):
        assert TrainConfig(loss=get_loss("squared"), eta=0.1, batch=np.int64(3)).batch == 3


def reference_sgd_step(ens, x, y, cfg, fused=False):
    """sgd_step as it was before the lean path: sigma and sigma' from separate
    f and df calls, a full grad_w, and every decay and kappa term applied.
    fused=True takes sigma and sigma' from value_and_deriv instead, as the
    lean step does."""
    n = x.shape[0]
    act = ens.activation
    z = x @ ens.w.T + ens.b
    if fused:
        s, sp = act.value_and_deriv(z.copy())
    else:
        s = act.f(z)
        sp = act.df(z)
    f = (s @ ens.a + ens.c.sum()) / ens.m
    if not np.all(np.isfinite(f)):
        raise DivergenceError(-1, "network value")
    g = cfg.loss.deriv(f, np.asarray(y, dtype=float)) / n
    grad_a = g @ s
    gsp = g[:, None] * (sp * ens.a)
    grad_b = gsp.sum(axis=0)
    grad_w = gsp.T @ x
    grad_c = g.sum()
    eta = cfg.eta
    kap = np.ones(ens.d) if cfg.kappa is None else cfg.kappa
    ens.a -= eta * cfg.rate_a * (grad_a + cfg.lam_a * ens.a)
    ens.w -= (eta * cfg.rate_w * kap) * (grad_w + cfg.lam_w * ens.w)
    ens.b -= eta * cfg.rate_b * grad_b
    ens.c -= eta * cfg.rate_c * grad_c
    if not all(np.all(np.isfinite(v)) for v in (ens.a, ens.w, ens.b, ens.c)):
        raise DivergenceError(-1)
    return ens


def max_relative_gap(ens, ref):
    return max(float(np.max(np.abs(getattr(ens, k) - getattr(ref, k))) / np.max(np.abs(getattr(ref, k))))
               for k in ("a", "w", "b", "c"))


class TestLeanSgdStep:
    """The in-place step against reference_sgd_step on one data stream, at the
    step sizes of criteria 6 (batch 1, eta = (1/32)/d, abs loss, tanh:4:2) and
    8 (batch d, eta = 0.5/d, squared-plus-cubic loss, tanh:2:2). Only the tanh
    derivative is computed differently, A g (1 - tanh^2) against A g / cosh^2,
    so polynomial activations must match bit for bit. Measured largest gap
    over 1,000 steps with tanh: 2.2e-15 relative; bound 1e-12. Given the same
    derivative, every case matches bit for bit: at batch 1 the einsum outer
    product gives each entry of grad_w as the k = 1 matmul does. A step that
    writes into a run's step buffers matches the allocating step bit for
    bit."""

    @pytest.mark.parametrize("act", ["tanh", "poly:3"])
    @pytest.mark.parametrize("batch", ["1", "d"])
    @pytest.mark.parametrize("kappa", [False, True])
    @pytest.mark.parametrize("lam_w", [0.0, 0.1])
    def test_matches_reference_over_1000_steps(self, act, batch, kappa, lam_w):
        d, m = 40, 64
        if batch == "1":
            n, eta, loss, spec = 1, (1 / 32) / d, "abs", "tanh:4:2"
        else:
            n, eta, loss, spec = d, 0.5 / d, "squared_plus_cubic", "tanh:2:2"
        if act.startswith("poly"):
            spec, eta = act, eta / 10
        inst = PlantedInstance(fig1_problem(), d, (3, 7, 11, 19), seed=0)
        ens = init_ensemble(d, m, make_activation(spec), seed=1, c_bar=0.1, mu_w="normal")
        ref = copy.deepcopy(ens)
        same_deriv = copy.deepcopy(ens)
        buffered = copy.deepcopy(ens)
        buffered.step_buffers = StepBuffers.empty(n, m, d)
        cfg = TrainConfig(loss=get_loss(loss), eta=eta, batch=n, lam_w=lam_w,
                          kappa=np.random.default_rng(4).uniform(0.5, 1.5, d) if kappa else None)
        sampler = inst.sampler(5)
        for _ in range(1000):
            y, x, _ = sampler.draw_batch(n)
            sgd_step(ens, x, y, cfg)
            sgd_step(buffered, x, y, cfg)
            reference_sgd_step(ref, x, y, cfg)
            reference_sgd_step(same_deriv, x, y, cfg, fused=True)
        for k in ("a", "w", "b", "c"):
            np.testing.assert_array_equal(getattr(ens, k), getattr(same_deriv, k))
            np.testing.assert_array_equal(getattr(buffered, k), getattr(ens, k))
        if act.startswith("poly"):
            for k in ("a", "w", "b", "c"):
                np.testing.assert_array_equal(getattr(ens, k), getattr(ref, k))
        else:
            assert max_relative_gap(ens, ref) <= 1e-12

    def test_fused_tanh_value_is_exact_and_derivative_close(self):
        x = np.linspace(-12.0, 12.0, 2001)
        for act in (tanh_activation(), scaled_tanh(4, 2), scaled_tanh(2, 2)):
            s, sp = act.value_and_deriv(x.copy())
            np.testing.assert_array_equal(s, act.f(x))
            np.testing.assert_allclose(sp, act.df(x), rtol=0, atol=1e-15 * max(2.0, act.amplitude * act.gain))

    @pytest.mark.parametrize("act", [tanh_activation(), scaled_tanh(4, 2), scaled_tanh(2, 2),
                                     poly_activation(1), poly_activation(2), poly_activation(3)])
    def test_inplace_value_is_f_bit_for_bit(self, act):
        x = np.linspace(-12.0, 12.0, 2001)
        buf = x.copy()
        s = act.value(buf)
        assert np.shares_memory(s, buf)
        np.testing.assert_array_equal(s, act.f(x))

    def test_only_first_layer_overflow_is_caught(self):
        # tanh saturates, so a, b, c and the network value stay finite
        ens = small_ensemble()
        ens.w[:] = 0.0
        ens.w[:, 0] = 1e307
        cfg = TrainConfig(loss=get_loss("squared"), eta=1.0, lam_w=100.0)
        with np.errstate(over="ignore"), pytest.raises(DivergenceError):
            sgd_step(ens, np.ones((1, 5)), np.zeros(1), cfg)
        assert all(np.all(np.isfinite(v)) for v in (ens.a, ens.b, ens.c))
        assert not np.all(np.isfinite(ens.w))

    def test_first_layer_overflow_to_plus_inf_is_caught(self):
        ens = small_ensemble()
        ens.w[:] = 0.0
        ens.w[:, 0] = -1e307
        cfg = TrainConfig(loss=get_loss("squared"), eta=1.0, lam_w=100.0)
        with np.errstate(over="ignore"), pytest.raises(DivergenceError):
            sgd_step(ens, np.ones((1, 5)), np.zeros(1), cfg)
        assert np.all(ens.w[:, 0] == np.inf)

    @pytest.mark.parametrize("spec,eta", [("poly:1", 0.5), ("poly:2", 0.5)])
    def test_run_sgd_reports_the_reference_divergence_step(self, spec, eta):
        d, m, batch = 12, 16, 4
        inst = PlantedInstance(fig1_problem(), d, (3, 7, 9, 11), seed=0)
        cfg = TrainConfig(loss=get_loss("squared"), eta=eta, batch=batch)

        def fresh():
            return init_ensemble(d, m, make_activation(spec), seed=1, c_bar=0.1, mu_w="normal")

        with np.errstate(all="ignore"):
            with pytest.raises(DivergenceError) as err:
                run_sgd(inst, fresh(), cfg, steps=1000, data_seed=3)
            ens, sampler = fresh(), inst.sampler(3)
            for step in range(1, 1001):
                y, x, _ = sampler.draw_batch(batch)
                try:
                    reference_sgd_step(ens, x, y, cfg)
                except DivergenceError:
                    break
        assert 1 < err.value.step == step < 1000

    def test_run_sgd_keeps_the_subject_of_a_divergence(self):
        # the first step's network value overflows, and run_sgd numbers it step 1
        inst = PlantedInstance(fig1_problem(), 6, (1, 2, 3, 4), seed=0)
        ens = init_ensemble(6, 8, make_activation("poly:3"), seed=1, c_bar=0.1)
        ens.b[:] = 1e120
        cfg = TrainConfig(loss=get_loss("squared"), eta=0.01)
        with np.errstate(all="ignore"), pytest.raises(DivergenceError) as err:
            run_sgd(inst, ens, cfg, steps=3, test_n=10)
        assert (err.value.step, err.value.what) == (1, "network value")
        assert str(err.value) == "non-finite network value at step 1"


class TestStreamedForward:
    def test_blocks_match_one_shot(self):
        d, m = 10, 1024  # 1024 rows a block: 3 blocks, the last one partial
        ens = init_ensemble(d, m, scaled_tanh(4, 2), seed=2, c_bar=0.3, mu_w="normal")
        x = np.random.default_rng(3).choice([-1.0, 1.0], size=(2500, d))
        assert x.shape[0] * m > 2 * dynamics.FORWARD_BLOCK_ENTRIES
        one_shot = (ens.activation.f(x @ ens.w.T + ens.b) @ ens.a + ens.c.sum()) / ens.m
        np.testing.assert_allclose(ens.forward(x), one_shot, rtol=1e-14, atol=1e-15)

    def test_block_size_does_not_change_the_value(self, monkeypatch):
        ens = init_ensemble(6, 32, poly_activation(3), seed=4, c_bar=0.1, mu_w="normal")
        x = np.random.default_rng(5).choice([-1.0, 1.0], size=(101, 6))
        whole = ens.forward(x)
        monkeypatch.setattr(dynamics, "FORWARD_BLOCK_ENTRIES", 7 * 32)
        np.testing.assert_allclose(ens.forward(x), whole, rtol=1e-14, atol=1e-15)
        monkeypatch.setattr(dynamics, "FORWARD_BLOCK_ENTRIES", 1)  # one row a block
        np.testing.assert_allclose(ens.forward(x), whole, rtol=1e-14, atol=1e-15)

    @pytest.mark.parametrize("spec", ["tanh:2:2", "poly:3"])
    def test_symbols_give_the_bits_of_their_values(self, spec):
        d, m = 12, 1024  # 256 rows a block: 3 blocks, the last one partial
        values = np.array([-1.0, 0.5, 2.0])
        symbols = np.random.default_rng(6).integers(0, 3, size=(700, d)).astype(np.uint8)
        ens = init_ensemble(d, m, make_activation(spec), seed=2, c_bar=0.3, mu_w="normal")
        assert 2 * dynamics.FORWARD_BLOCK_ENTRIES < symbols.shape[0] * m < 3 * dynamics.FORWARD_BLOCK_ENTRIES
        np.testing.assert_array_equal(ens.forward(symbols, values), ens.forward(values[symbols]))

    @pytest.mark.parametrize("spec", ["tanh:2:2", "poly:3"])
    def test_peak_memory_is_two_blocks_and_the_output(self, spec):
        """At the meanfield-batch test-risk shape (n = 8000, d = 300, M = 1024)
        forward once held a pre-activation block and two temporaries of the
        same size inside activation.f."""
        x = PlantedInstance(fig1_problem(), 300, (1, 2, 3, 4), seed=0).sampler(7).draw_batch(8000)[1]
        ens = init_ensemble(300, 1024, make_activation(spec), seed=1, c_bar=0.15, mu_w="normal")
        ens.forward(x[:1])
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            f = ens.forward(x)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        bound = 2 * dynamics.FORWARD_BLOCK_ENTRIES * 8 + f.nbytes
        assert peak <= bound, f"traced peak {peak} B above two blocks and the output, {bound} B"


class TestPermutationEquivariance:
    def test_bit_identical_risk_trajectories(self, y2_problem):
        d = 12
        base = (2, 5, 7, 11)
        perm = {old: new for old, new in zip(range(1, d + 1), [4, 9, 1, 12, 2, 8, 10, 3, 6, 11, 5, 7])}
        relabeled = tuple(perm[c] for c in base)

        def run(s_star):
            inst = PlantedInstance(y2_problem, d, s_star, seed=0)
            ens = init_ensemble(d, 16, tanh_activation(), seed=5, c_bar=0.2)
            cfg = TrainConfig(loss=get_loss("abs"), eta=0.01, batch=2)
            out = run_sgd(inst, ens, cfg, steps=30, data_seed=7, eval_every=10, test_n=200)
            return [row["mse"] for row in out.history]

        assert run(base) == run(relabeled)


class TestDfStep:
    def test_zero_rates_identity(self, y2_problem):
        st = init_df_state(4, tanh_activation(), c_bar=0.3, a_order=6, b_order=4)
        before = copy.deepcopy(st)
        cfg = TrainConfig(loss=get_loss("squared"), eta=0.0)
        df_step(st, y2_problem, cfg)
        np.testing.assert_array_equal(st.u, before.u)
        np.testing.assert_array_equal(st.a, before.a)

    def test_non_finite_bias_raises_at_that_step(self, y2_problem):
        # only b overflows: u, a and the network value stay finite in this step
        st = init_df_state(4, tanh_activation(), c_bar=0.3, a_order=6, b_order=4)
        # eta * rate_b overflows to inf; the other blocks have rate 0
        cfg = TrainConfig(loss=get_loss("squared"), eta=1e300, rate_a=0.0, rate_w=0.0, rate_b=1e300, rate_c=0.0)
        with np.errstate(over="ignore"), pytest.raises(DivergenceError) as err:
            df_step(st, y2_problem, cfg)
        assert err.value.step == 1
        assert np.all(np.isfinite(st.u)) and np.all(np.isfinite(st.a))
        assert not np.all(np.isfinite(st.b))

    def test_layerwise_init_invariants(self, y2_problem):
        # b0 = 0, s0 = 0, c0 = c_bar stay constant when only u and a are trained
        st = init_df_state(4, poly_activation(4), c_bar=0.4, a_order=8, mu_b="zero")
        cfg = TrainConfig(loss=get_loss("squared"), eta=0.001, rate_b=0.0, rate_c=0.0)
        for _ in range(5):
            df_step(st, y2_problem, cfg)
        np.testing.assert_array_equal(st.b, np.zeros(st.n))
        np.testing.assert_array_equal(st.s, np.zeros(st.n))
        np.testing.assert_array_equal(st.c, np.full(st.n, 0.4))

    def test_s_stays_zero_even_when_trained(self, y2_problem):
        # at s = 0 the Gaussian factor integrates to E[G] = 0 exactly
        st = init_df_state(4, tanh_activation(), c_bar=0.3, a_order=6, b_order=4)
        cfg = TrainConfig(loss=get_loss("squared_plus_cubic"), eta=0.01)
        for _ in range(10):
            df_step(st, y2_problem, cfg)
        np.testing.assert_array_equal(st.s, np.zeros(st.n))

    def test_duplicated_particles_match_merged_weights(self, y2_problem):
        act = tanh_activation()
        rng = np.random.default_rng(0)
        n = 5
        a = rng.uniform(-1, 1, n)
        b = rng.uniform(-1, 1, n)
        w = rng.dirichlet(np.ones(n))
        unique = DFState(a.copy(), b.copy(), np.zeros((n, 4)), np.full(n, 0.3),
                         np.zeros(n), w.copy(), act)
        dup = DFState(
            np.concatenate([a, a]), np.concatenate([b, b]), np.zeros((2 * n, 4)),
            np.full(2 * n, 0.3), np.zeros(2 * n),
            np.concatenate([w * 0.25, w * 0.75]), act,
        )
        cfg = TrainConfig(loss=get_loss("abs"), eta=0.02)
        for _ in range(20):
            df_step(unique, y2_problem, cfg)
            df_step(dup, y2_problem, cfg)
        r1 = df_risk(unique, y2_problem, get_loss("squared"))
        r2 = df_risk(dup, y2_problem, get_loss("squared"))
        assert r1 == pytest.approx(r2, rel=1e-12)

    def test_gaussian_residual_quadrature(self, y2_problem):
        # s != 0 engages the Gauss-Hermite path; compare against a dense grid
        st = init_df_state(4, tanh_activation(), c_bar=0.1, a_order=4, b_order=2, s0=0.7)
        zmat, _, _, _ = hypercube_tables(y2_problem)
        f20 = _df_forward(st, zmat, 20).sig
        f80 = _df_forward(st, zmat, 80).sig
        np.testing.assert_allclose(f20, f80, atol=1e-12)

    def test_gauss_hermite_computed_once_read_only(self):
        nodes, wts = gauss_hermite(20)
        again = gauss_hermite(20)
        assert again[0] is nodes and again[1] is wts
        assert not nodes.flags.writeable and not wts.flags.writeable
        with pytest.raises(ValueError):
            nodes[0] = 0.0
        fresh, fresh_wts = np.polynomial.hermite.hermgauss(20)
        assert np.array_equal(nodes, fresh * np.sqrt(2.0)) and np.array_equal(wts, fresh_wts / np.sqrt(np.pi))

    def test_requires_hypercube(self):
        rng = np.random.default_rng(0)
        from conftest import random_problem

        prob = random_problem(rng)
        if prob.marginal.is_uniform_hypercube():
            return
        st = init_df_state(prob.p, tanh_activation(), a_order=4, b_order=2)
        with pytest.raises(ValueError):
            df_step(st, prob, TrainConfig(loss=get_loss("squared"), eta=0.1))


class TestRunDf:
    @pytest.mark.parametrize("s0", [0.0, 0.5])
    def test_records_and_state_match_plain_steps(self, y2_problem, s0):
        """run_df reuses a recorded state's forward pass for the next step and,
        at s > 0, owns its quadrature work arrays: its risks and its final
        state equal those of plain df_step calls and df_risk bit for bit."""
        cfg = TrainConfig(loss=get_loss("squared_plus_cubic"), eta=0.05)
        losses = [("mse", get_loss("squared")), ("train_risk", cfg.loss)]
        st = init_df_state(4, scaled_tanh(2, 2), c_bar=0.15, a_order=8, b_order=4, s0=s0)
        ref = copy.deepcopy(st)
        run = run_df(y2_problem, cfg, 7, st, gh_order=10, risk_every=3, risk_losses=losses)
        want = []
        for step in range(8):
            if step in (0, 3, 6, 7):
                want.append([df_risk(ref, y2_problem, loss, gh_order=10) for _, loss in losses])
            if step < 7:
                df_step(ref, y2_problem, cfg, gh_order=10)
        assert [[row[name] for name, _ in losses] for row in run.history] == want
        for k in ("a", "b", "u", "c", "s"):
            np.testing.assert_array_equal(getattr(st, k), getattr(ref, k))

    def test_negative_step_count_rejected(self, y2_problem):
        st = init_df_state(4, tanh_activation(), c_bar=0.3, a_order=4, b_order=2)
        with pytest.raises(ValueError):
            run_df(y2_problem, TrainConfig(loss=get_loss("squared"), eta=0.01), -1, st)

    @pytest.mark.parametrize("risk_every", [None, 1])
    def test_keeps_the_subject_of_a_divergence(self, y2_problem, risk_every):
        # the first state's network value overflows, and run_df numbers it step 1
        st = init_df_state(4, poly_activation(3), c_bar=0.3, a_order=4, b_order=2)
        st.b[:] = 1e120
        cfg = TrainConfig(loss=get_loss("squared"), eta=0.01)
        with np.errstate(all="ignore"), pytest.raises(DivergenceError) as err:
            run_df(y2_problem, cfg, 3, st, risk_every=risk_every, risk_losses=[("mse", cfg.loss)])
        assert (err.value.step, err.value.what) == (1, "network value")
        assert str(err.value) == "non-finite network value at step 1"


class TestRunOwnedBuffers:
    """A training run allocates its steps' work arrays once. Each step once
    allocated them afresh: z, sigma' and grad_w of (n, M) and (M, d) in
    sgd_step, and the (N, R, K) quadrature pre-activations and sigma' in
    df_step at s > 0."""

    @staticmethod
    def step_peaks(monkeypatch, name):
        """Traced allocation peak of each call of dynamics.<name>, above what
        was allocated when it started."""
        step = getattr(dynamics, name)
        peaks = []

        def measured(*args, **kwargs):
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            result = step(*args, **kwargs)
            peaks.append(tracemalloc.get_traced_memory()[1] - before)
            return result

        monkeypatch.setattr(dynamics, name, measured)
        return peaks

    def batch_d_step_peaks(self, monkeypatch, n=300, m=1024, d=300, spec="tanh:2:2"):
        """Step peaks of a 3-step run_sgd at the meanfield-batch shape, and its ensemble."""
        inst = PlantedInstance(fig1_problem(), d, (1, 2, 3, 4), seed=0)
        ens = init_ensemble(d, m, make_activation(spec), seed=1, c_bar=0.15, mu_w="normal")
        cfg = TrainConfig(loss=get_loss("squared_plus_cubic"), eta=0.5 / d, batch=n)
        peaks = self.step_peaks(monkeypatch, "sgd_step")
        tracemalloc.start()
        try:
            run_sgd(inst, ens, cfg, steps=3, test_n=10)
        finally:
            tracemalloc.stop()
        assert len(peaks) == 3
        return peaks, ens

    def test_sgd_step_at_the_batch_d_shape(self, monkeypatch):
        n, m = 300, 1024
        peaks, ens = self.batch_d_step_peaks(monkeypatch, n, m)
        assert max(peaks[1:]) < n * m * 8, f"step peaks {peaks} B against one (n, M) block of {n * m * 8} B"
        assert ens.step_buffers is None  # the run takes its buffers back

    def test_poly_sgd_step_at_the_batch_d_shape(self, monkeypatch):
        """(1 + x)^L once allocated sigma and sigma' afresh, two (n, M) blocks."""
        n, m = 300, 1024
        peaks, _ = self.batch_d_step_peaks(monkeypatch, n, m, spec="poly:3")
        assert max(peaks[1:]) < n * m * 8, f"step peaks {peaks} B against one (n, M) block of {n * m * 8} B"

    def test_sgd_step_finiteness_check_needs_no_w_sized_temporary(self, monkeypatch):
        """np.isfinite(w) allocated an (M, d) boolean array, 307 KB, every step;
        min and max reduce w without one. Measured peak: 80 KB."""
        m, d = 1024, 300
        peaks, _ = self.batch_d_step_peaks(monkeypatch, m=m, d=d)
        assert max(peaks[1:]) < m * d, f"step peaks {peaks} B against one (M, d) boolean array of {m * d} B"

    def check_s_pos_step_peaks(self, monkeypatch, problem, act):
        """Each step of a 3-step run_df at s0 = 0.5 after the first peaks below one (N, R, K) block."""
        st = init_df_state(4, act, c_bar=0.3, a_order=24, b_order=12, s0=0.5)
        block = st.n * 2**4 * 20 * 8  # (N, R, K) at gh_order 20
        peaks = self.step_peaks(monkeypatch, "df_step")
        tracemalloc.start()
        try:
            run_df(problem, TrainConfig(loss=get_loss("squared"), eta=0.002), 3, st, gh_order=20)
        finally:
            tracemalloc.stop()
        assert len(peaks) == 3
        assert max(peaks[1:]) < block, f"step peaks {peaks} B against one (N, R, K) block of {block} B"

    def test_df_step_at_s_pos(self, monkeypatch, y2_problem):
        self.check_s_pos_step_peaks(monkeypatch, y2_problem, tanh_activation())

    def test_poly_df_step_at_s_pos(self, monkeypatch, y2_problem):
        """(1 + x)^L once left the run's work arrays unused, allocating two
        (N, R, K) arrays a step."""
        self.check_s_pos_step_peaks(monkeypatch, y2_problem, poly_activation(4))


class TestSupportAlignment:
    def test_y2_squared_all_frozen(self, y2_problem):
        st = init_df_state(4, tanh_activation(), c_bar=0.3, a_order=8, b_order=4)
        cfg = TrainConfig(loss=get_loss("squared"), eta=0.002)
        run = run_df(y2_problem, cfg, 200, st)
        rep = detect_dlq(y2_problem, get_loss("squared"))
        align = support_alignment(run.u_max, rep)
        assert align.first_activation == (None, None, None, None)
        assert align.u_star_mask == 0
        assert max(align.max_abs_u) <= 1e-12
        assert align.frozen_coords() == (1, 2, 3, 4)

    def test_y2_cubic_all_activate(self, y2_problem):
        st = init_df_state(4, tanh_activation(), c_bar=0.3, a_order=8, b_order=4)
        cfg = TrainConfig(loss=get_loss("squared_plus_cubic"), eta=0.002)
        run = run_df(y2_problem, cfg, 300, st)
        rep = detect_dlq(y2_problem, get_loss("squared_plus_cubic"))
        align = support_alignment(run.u_max, rep, threshold=0.01)
        assert all(step is not None for step in align.first_activation)

    def test_y1_staircase_order(self, y1_problem):
        st = init_df_state(4, tanh_activation(), c_bar=0.3, a_order=16, b_order=8)
        cfg = TrainConfig(loss=get_loss("squared"), eta=0.01)
        run = run_df(y1_problem, cfg, 400, st)
        rep = detect_dlq(y1_problem, get_loss("squared"))
        align = support_alignment(run.u_max, rep, threshold=0.01)
        steps = align.first_activation
        assert None not in steps
        assert list(steps) == sorted(steps)
        assert len(set(steps)) == 4


class TestFig1DfLimit:
    def test_dichotomy_at_half_over_d(self):
        # Fig. 1 constants in the exact DF limit: eta = 0.5/d for 10*d steps (t = 5)
        d = 100
        eta, steps = 0.5 / d, 10 * d
        problem = fig1_problem()
        mse = {}
        for name in ("squared", "abs", "squared_plus_cubic"):
            st = init_df_state(4, make_activation("tanh:4:2"), c_bar=0.1, a_order=24,
                               b_order=1, mu_b="zero")
            run = run_df(problem, TrainConfig(loss=get_loss(name), eta=eta), steps, st,
                         risk_every=steps, risk_losses=[("mse", get_loss("squared"))])
            mse[name] = (run.history[0]["mse"], run.history[-1]["mse"])
        m0, m1 = mse["squared"]
        assert m0 - m1 < 0.05 * m0
        for name in ("abs", "squared_plus_cubic"):
            m0, m1 = mse[name]
            assert m1 < 0.5 * m0, name


class TestKernel:
    def test_zero_weights_rank_one(self, y2_problem):
        st = init_df_state(4, tanh_activation(), c_bar=0.0, a_order=6, b_order=1, mu_b="zero")
        rep = kernel(st, y2_problem)
        sigma0 = float(np.tanh(0.0))
        np.testing.assert_allclose(rep.matrix, sigma0**2, atol=1e-12)
        assert rep.lambda_min == pytest.approx(0.0, abs=1e-10)

    def test_poly_zero_weights_constant(self, y2_problem):
        st = init_df_state(4, poly_activation(4), c_bar=0.0, a_order=6, b_order=1, mu_b="zero")
        rep = kernel(st, y2_problem)
        np.testing.assert_allclose(rep.matrix, 1.0, atol=1e-12)  # sigma(0)^2 = 1
        assert rep.lambda_min == pytest.approx(0.0, abs=1e-8)

    def test_gram_psd_on_random_states(self, y2_problem):
        rng = np.random.default_rng(6)
        for _ in range(5):
            st = init_df_state(4, tanh_activation(), c_bar=0.1, a_order=8, b_order=4)
            st.u = rng.normal(size=st.u.shape) * 0.5
            rep = kernel(st, y2_problem)
            np.testing.assert_allclose(rep.matrix, rep.matrix.T, atol=1e-12)
            assert rep.lambda_min >= -1e-10


class TestSmallestEigenvalue:
    def test_matches_eigvalsh_oracle(self):
        rng = np.random.default_rng(9)
        for n in (2, 4, 8, 16):
            m = rng.normal(size=(n, n))
            mat = m @ m.T
            got = smallest_eigenvalue(mat)
            expected = float(np.linalg.eigvalsh(mat)[0])
            assert got == pytest.approx(expected, rel=1e-8, abs=1e-9)

    def test_zero_matrix(self):
        assert smallest_eigenvalue(np.zeros((3, 3))) == 0.0

    def test_non_finite_matrix_not_certified(self):
        assert np.isnan(smallest_eigenvalue(np.array([[np.inf, 0.0], [0.0, 1.0]])))

    def test_tiny_pair_below_cluster_not_overestimated(self):
        # eigenvalues {1e-6, 2e-6} below a cluster in [0.5, 1]: a 1e-6
        # threshold must not be certified
        rng = np.random.default_rng(0)
        n = 64
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        eig = np.concatenate([[1e-6, 2e-6], rng.uniform(0.5, 1.0, n - 2)])
        mat = (q * eig) @ q.T
        mat = (mat + mat.T) / 2.0
        margin = n * np.finfo(float).eps * np.linalg.norm(mat, 2)
        got = smallest_eigenvalue(mat)
        assert got <= 1e-6 + margin
        assert got == pytest.approx(1e-6, abs=margin)


class TestRisk:
    def test_squared_bayes_is_conditional_mean(self, y2_problem):
        base, minimizers = bayes_risk(y2_problem, get_loss("squared"))
        labels = y2_problem.labels_numeric()
        cond_mean = y2_problem.cond @ labels
        np.testing.assert_allclose(minimizers, cond_mean, atol=1e-7)
        assert base == pytest.approx(0.0, abs=1e-12)

    def test_abs_bayes_is_conditional_median(self):
        # 3-label toy vs a brute-force grid over u
        from juntaleap import FiniteMarginal, JuntaProblem

        m = FiniteMarginal([1.0, -1.0], [0.5, 0.5])
        cond = np.array([[0.2, 0.5, 0.3], [0.6, 0.2, 0.2]])
        prob = JuntaProblem(1, m, [-1.0, 0.0, 2.0], cond)
        loss = get_loss("abs")
        base, minimizers = bayes_risk(prob, loss)
        labels = prob.labels_numeric()
        grid = np.linspace(-3, 4, 70001)
        for r in range(2):
            vals = cond[r] @ np.abs(grid[None, :] - labels[:, None])
            assert cond[r] @ np.abs(minimizers[r] - labels) <= vals.min() + 1e-8

    def test_grid_refinement_stability(self, y2_problem, monkeypatch):
        loss = get_loss("abs")
        v1, _ = bayes_risk(y2_problem, loss)
        monkeypatch.setattr(dynamics, "BAYES_GRID", 10 * dynamics.BAYES_GRID)
        v2, _ = bayes_risk(y2_problem, loss)
        assert abs(v1 - v2) <= 1e-8

    def test_constant_predictor_closed_form(self, y2_problem):
        st = init_df_state(4, tanh_activation(), c_bar=0.7, a_order=6, b_order=1, mu_b="zero")
        st.a[:] = 0.0  # pure constant c_bar
        loss = get_loss("squared")
        labels = y2_problem.labels_numeric()
        expected = float(y2_problem.mu_y @ (0.7 - labels) ** 2)
        assert df_risk(st, y2_problem, loss) == pytest.approx(expected, rel=1e-12)

    def test_excess_of_bayes_predictor_is_zero(self, y2_problem):
        labels = y2_problem.labels_numeric()
        zmat, wz, cond, _ = hypercube_tables(y2_problem)
        # a DF state can't represent E[y|z] exactly; check the functional directly
        base, minimizers = bayes_risk(y2_problem, get_loss("squared"))
        risk_of_minimizer = float(
            wz @ np.einsum("ry,ry->r", cond, (minimizers[:, None] - labels[None, :]) ** 2)
        )
        assert risk_of_minimizer - base == pytest.approx(0.0, abs=1e-12)

    def test_mc_risk_tracks_exact_for_df_free_model(self, y2_problem):
        inst = PlantedInstance(y2_problem, 30, (3, 9, 21, 27), seed=0)
        ens = init_ensemble(30, 8, tanh_activation(), seed=1, c_bar=0.5)
        ens.a[:] = 0.0
        # run_sgd's step-0 record: the label-averaged risk on its test sample
        row = run_sgd(inst, ens, TrainConfig(loss=get_loss("squared"), eta=0.01), 0, test_n=4000).history[0]
        est, se = row["mse"], row["mse_se"]
        labels = y2_problem.labels_numeric()
        exact = float(y2_problem.mu_y @ (0.5 - labels) ** 2)
        # constant model: only the label-conditional row varies across samples
        assert abs(est - exact) <= 4 * se + 1e-12
        assert se < 0.2


def reference_layerwise(problem, cfg, L, k1, k2, c_bar, eta2):
    """layerwise_train with its own phase-2 loop: df_step, then the excess risk
    from an independent forward formula, sigma = (1+x)^L evaluated on every
    particle x support point (s stays 0). A phase-2 divergence at step j is
    reported as step k1 + j. Returns (state, K, eta2, excess history)."""
    state = init_df_state(problem.p, poly_activation(L), c_bar=c_bar, a_order=64, mu_b="zero")
    zmat, wz, cond, labels = hypercube_tables(problem)

    def features(st):
        return st.activation.f(st.u @ zmat.T + st.b[:, None])

    def value(st):
        return (st.weights * st.a) @ features(st) + float(st.weights @ st.c)

    def risk(st):
        return float(wz @ np.einsum("ry,ry->r", cond, cfg.loss.value(value(st)[:, None], labels[None, :])))

    phase1 = TrainConfig(loss=cfg.loss, eta=cfg.eta, rate_a=0.0, rate_w=1.0, rate_b=0.0, rate_c=0.0,
                         kappa=cfg.kappa, lam_w=cfg.lam_w)
    for _ in range(k1):
        df_step(state, problem, phase1)
    feats = features(state)
    gram = (feats * state.weights[:, None]).T @ feats
    gram = (gram + gram.T) / 2.0
    if eta2 == "auto":
        root = np.sqrt(state.weights)
        m = (root[:, None] * feats * wz) @ (feats.T * root)
        lam = float(np.linalg.eigvalsh((m + m.T) / 2.0)[-1])
        spread = float(np.max(np.abs(value(state)))) + float(np.max(np.abs(labels))) + 1.0
        eta2 = 1.0 / (dynamics.second_derivative_bound(cfg.loss, labels, -spread, spread) * max(lam, 1e-12))
    base, _ = bayes_risk(problem, cfg.loss)
    phase2 = TrainConfig(loss=cfg.loss, eta=eta2, rate_a=1.0, rate_w=0.0, rate_b=0.0, rate_c=0.0, lam_a=cfg.lam_a)
    history = [risk(state) - base]
    for j in range(1, k2 + 1):
        try:
            df_step(state, problem, phase2)
        except DivergenceError:
            raise DivergenceError(k1 + j)
        history.append(risk(state) - base)
    return state, gram, eta2, history


C9 = {(1,): 1.0, (1, 2): 1.0}


class TestLayerwiseMatchesReference:
    """Phase 2 runs through run_df, which evaluates each state once for both
    its excess record and its next step."""

    @pytest.mark.parametrize("L,eta2", [(16, "auto"), (16, 0.05), (8, "auto"), (8, 0.01)])
    def test_bit_for_bit(self, L, eta2, y1_problem):
        problem = expand_hypercube(HypercubeJunta(2, C9)) if L == 16 else y1_problem
        rng = np.random.default_rng(L)
        cfg = TrainConfig(loss=get_loss("squared"), eta=0.002, kappa=rng.uniform(0.5, 1.5, problem.p))
        res = layerwise_train(problem, cfg, L=L, k1=problem.p, k2=60, c_bar=0.2, eta2=eta2)
        state, gram, want_eta2, excess = reference_layerwise(problem, cfg, L, problem.p, 60, 0.2, eta2)
        assert [row["excess"] for row in res.history] == excess
        assert [row["step"] for row in res.history] == list(range(61))
        assert res.eta2 == want_eta2
        np.testing.assert_array_equal(res.kernel_report.matrix, gram)
        assert res.kernel_report.lambda_min == float(np.linalg.eigvalsh(gram)[0])
        for k in ("a", "b", "u", "c", "s"):
            np.testing.assert_array_equal(getattr(res.state, k), getattr(state, k))
        assert res.state.k == problem.p + 60

    @pytest.mark.parametrize("eta,fault", [(0.002, "non-finite update"), (0.005, "non-finite network value")])
    def test_phase2_divergence_is_numbered_k1_plus_j(self, eta, fault):
        """eta2 = 1e300 diverges at phase-2 step j = 2. With eta = 0.005 the
        phase-1 features are large enough that the network value overflows
        before a does; that fault was once numbered k1 + j - 1."""
        problem = expand_hypercube(HypercubeJunta(2, C9))
        cfg = TrainConfig(loss=get_loss("squared"), eta=eta, kappa=[0.8, 1.2])
        with np.errstate(all="ignore"):
            with pytest.raises(DivergenceError) as err:
                layerwise_train(problem, cfg, L=16, k1=2, k2=5, c_bar=0.3, eta2=1e300)
            with pytest.raises(DivergenceError) as want:
                reference_layerwise(problem, cfg, 16, 2, 5, 0.3, 1e300)
        assert err.value.step == want.value.step == 2 + 2
        assert str(err.value.__cause__).startswith(fault)


class TestLayerwise:
    def test_leap1_p2_certificate(self):
        # frozen derived example: P = 2, y = z1 + z1 z2, L = 16, k1 = P
        prob = expand_hypercube(HypercubeJunta(2, {(1,): 1.0, (1, 2): 1.0}))
        rng = np.random.default_rng(0)
        cfg = TrainConfig(loss=get_loss("squared"), eta=0.002, kappa=rng.uniform(0.5, 1.5, 2))
        res = layerwise_train(prob, cfg, L=16, k1=2, k2=400, c_bar=0.31)
        assert res.kernel_report.lambda_min > 1e-6
        assert not res.trust_violation
        # cross-check the reported eigenvalue against a dense eigen-solve of K
        oracle = float(np.linalg.eigvalsh(res.kernel_report.matrix)[0])
        assert res.kernel_report.lambda_min == pytest.approx(oracle, rel=1e-6, abs=1e-10)
        assert res.history[-1]["excess"] <= 0.1

    def test_k1_zero_rank_one_kernel(self):
        prob = expand_hypercube(HypercubeJunta(2, {(1,): 1.0, (1, 2): 1.0}))
        cfg = TrainConfig(loss=get_loss("squared"), eta=0.002)
        res = layerwise_train(prob, cfg, L=16, k1=0, k2=1, c_bar=0.3)
        np.testing.assert_allclose(res.kernel_report.matrix, 1.0, atol=1e-12)
        assert res.kernel_report.lambda_min == pytest.approx(0.0, abs=1e-8)

    def test_monotone_phase2_descent(self):
        prob = expand_hypercube(HypercubeJunta(2, {(1,): 1.0, (1, 2): 1.0}))
        rng = np.random.default_rng(5)
        cfg = TrainConfig(loss=get_loss("squared"), eta=0.002, kappa=rng.uniform(0.5, 1.5, 2))
        res = layerwise_train(prob, cfg, L=16, k1=2, k2=50, c_bar=-0.2)
        ex = [row["excess"] for row in res.history]
        assert all(b <= a + 1e-12 for a, b in zip(ex, ex[1:]))

    def test_spec_step_size_example_diverges(self):
        # eta = 0.05 with L = 16 overflows: the documented infeasibility
        prob = expand_hypercube(HypercubeJunta(2, {(1,): 1.0, (1, 2): 1.0}))
        cfg = TrainConfig(loss=get_loss("squared"), eta=0.05)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError):
                layerwise_train(prob, cfg, L=16, k1=2, k2=1, c_bar=0.3)


class TestActivationSpecs:
    @pytest.mark.parametrize("spec", ["tanh", "tanh:4:2", "poly:1", "poly:2", "poly:3", "poly:4", "poly:8", "poly:16"])
    def test_value_and_deriv_writes_into_out(self, spec):
        """sigma' lands in the given `out`, for tanh and polynomial alike; the
        polynomial's is df bit for bit."""
        act = make_activation(spec)
        x = np.linspace(-1.9, 0.1, 2001) if spec.startswith("poly") else np.linspace(-12.0, 12.0, 2001)
        buf, out = x.copy(), np.empty_like(x)
        s, sp = act.value_and_deriv(buf, out)
        assert s is buf and sp is out
        np.testing.assert_array_equal(s, act.f(x))
        if spec.startswith("poly"):
            np.testing.assert_array_equal(sp, act.df(x))

    def test_make_activation_strings(self):
        assert make_activation("tanh").name == "tanh"
        assert make_activation("poly:3").degree == 3
        act = make_activation("tanh:4:2")
        assert act.f(0.1) == pytest.approx(4 * np.tanh(0.2))

    @pytest.mark.parametrize("spec", [{"kind": "poly", "L": 3}, tanh_activation(), "poly", "sigmoid", "tanh:4:2:9",
                                      "tanh:nan", "tanh:1:inf"])
    def test_only_the_string_specs(self, spec):
        with pytest.raises(ValueError, match="unknown activation spec"):
            make_activation(spec)

    @pytest.mark.parametrize("degree", [4.5, 4.0, True, "4"])
    def test_poly_degree_must_be_an_integer(self, degree):
        with pytest.raises(TypeError, match="degree must be an integer"):
            poly_activation(degree)


class TestInitialStatesAreFinite:
    @pytest.mark.parametrize("c_bar", [np.nan, np.inf])
    def test_init_ensemble_rejects_non_finite_c_bar(self, c_bar):
        with pytest.raises(ValueError, match="c_bar must be finite"):
            init_ensemble(4, 8, tanh_activation(), seed=0, c_bar=c_bar)

    @pytest.mark.parametrize("bad", [{"c_bar": np.nan}, {"c_bar": -np.inf}, {"s0": np.nan}, {"s0": np.inf}])
    def test_init_df_state_rejects_non_finite_c_bar_or_s0(self, bad):
        with pytest.raises(ValueError, match="must be finite"):
            init_df_state(2, tanh_activation(), a_order=4, b_order=2, **bad)
