"""The benchmark's checkers accept real juntaleap outputs and reject
corrupted copies of them.

Run with `python3 -m pytest -q perfbench/test_checks.py` from the root of
a checkout; the outputs come from small subcommand runs in a temporary
directory.
"""

import contextlib
import copy
import io
import itertools
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402
from juntaleap import HypercubeJunta, cli, dynamics, expand_hypercube  # noqa: E402
from juntaleap.dynamics import TrainConfig  # noqa: E402
from juntaleap.losses import get_loss  # noqa: E402

Y1 = {"hypercube": {"P": 4, "fourier": workloads.Y1}}
Y2 = {"hypercube": {"P": 4, "fourier": workloads.Y2}}


def run(tmp_path, name, command, config):
    out = tmp_path / name
    out.mkdir()
    (out / "config.json").write_text(json.dumps(config))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main([command, "--config", str(out / "config.json"), "--out", str(out)]) == 0
    return out


def read(path):
    return json.loads(Path(path).read_text())


def brute_leap(p, sets):
    """Min over member orders of the largest number of new coordinates."""
    masks = [sum(1 << (c - 1) for c in s) for s in sets]
    full = (1 << p) - 1
    best = None
    for order in itertools.permutations(masks):
        covered, worst = 0, 0
        for m in order:
            if m & ~covered:
                worst = max(worst, bin(m & ~covered).count("1"))
                covered |= m
        if covered == full and (best is None or worst < best):
            best = worst
    return best


def test_leap_matches_brute_force():
    rng = np.random.default_rng(3)
    for _ in range(200):
        p = int(rng.integers(1, 5))
        n = int(rng.integers(0, 5))
        sets = {tuple(sorted(int(c) for c in rng.choice(np.arange(1, p + 1), int(rng.integers(1, p + 1)),
                                                        replace=False))) for _ in range(n)}
        assert checks.leap_cover(p, sorted(sets))[0] == brute_leap(p, sorted(sets))


def test_exponents_accepted_and_leap_off_by_one_rejected(tmp_path):
    out = run(tmp_path, "exp", "exponents", {"problem": Y2, "exponents": {"models": workloads.MODELS}})
    models = read(out / "exponents.json")["models"]
    for name, entry in models.items():
        assert checks.check_exponent_report(4, name, entry) == []
    assert checks.check_loss_dichotomy(models) == []
    assert checks.check_csq_sets(models["CSQ"], workloads._sets(workloads.Y2)) == []

    bad = dict(models["CSQ"], leap=models["CSQ"]["leap"] + 1)
    assert checks.check_exponent_report(4, "CSQ", bad)
    bad = dict(models, **{"DLQ[squared]": dict(models["DLQ[squared]"], leap=models["CSQ"]["leap"] - 1)})
    assert checks.check_loss_dichotomy(bad)


def test_witnesses_and_moments(tmp_path):
    out = run(tmp_path, "det", "detect",
              {"problem": Y1, "detect": {"models": workloads.MODELS, "dump_moments": True}})
    table = checks.Table.hypercube(4, workloads.Y1)
    rep = read(out / "detect_SQ.json")
    assert checks.check_witnesses(table, rep, list(rep["witnesses"])) == []
    bad = copy.deepcopy(rep)
    key = next(iter(bad["witnesses"]))
    bad["witnesses"][key]["beta"] += 1e-6
    assert checks.check_witnesses(table, bad, [key])

    rows = workloads._read_csv(out / "moment_tensors.csv")
    assert checks.check_hypercube_moments(table, rows) == []
    rows[3]["moment"] = str(float(rows[3]["moment"]) + 1e-6)
    assert checks.check_hypercube_moments(table, rows)


def test_honest_game_count_and_tolerance(tmp_path):
    s_star = [5, 2, 6, 3]
    out = run(tmp_path, "game", "game",
              {"problem": Y2, "game": {"d": 6, "s_star": s_star, "learner": "nonadaptive",
                                       "noise_mode": "adversarial_sign"}, "seed": 4})
    verdict = read(out / "game_verdict.json")
    records = [json.loads(line) for line in (out / "game_transcript.jsonl").read_text().splitlines()]
    table = checks.Table.hypercube(4, workloads.Y2)
    count = checks.nonadaptive_count(6, workloads._sets(workloads.Y2))
    assert count == 2 * math.perm(6, 3)
    ok = checks.check_honest_game(verdict, records, verdict["tau"], table, s_star, expected_queries=count)
    assert ok == []

    assert checks.check_honest_game(verdict, records, verdict["tau"], table, s_star, expected_queries=count + 1)
    bad = copy.deepcopy(records)
    bad[7]["response"] = bad[7]["exact"] + 1.01 * verdict["tau"] * bad[7]["norm"]
    assert checks.check_honest_transcript(bad, verdict["tau"], table, s_star)
    hit = next(i for i, r in enumerate(records) if r["accepted"])
    bad = copy.deepcopy(records)
    bad[hit]["exact"] = bad[hit]["response"] = -bad[hit]["exact"]
    assert checks.check_honest_transcript(bad, verdict["tau"], table, s_star)


def test_adversarial_survivors(tmp_path):
    out = run(tmp_path, "adv", "game",
              {"problem": Y1, "game": {"d": 6, "oracle": "adversarial", "tau_factor": 0.25}})
    verdict = read(out / "game_verdict.json")
    records = [json.loads(line) for line in (out / "game_transcript.jsonl").read_text().splitlines()]
    assert checks.check_adversarial_game(verdict, records, math.perm(5, 3), 6) == []
    assert checks.check_adversarial_game(verdict, records, math.perm(5, 3) + 1, 6)
    assert checks.check_adversarial_game(verdict, records, math.perm(5, 3), 7)


def test_sgd_thresholds(tmp_path):
    fourier = {"1": 1.0}
    block = {"d": 10, "M": 64, "batch": 10, "eta": 0.1, "activation": "tanh", "c_bar": 0.1, "mu_b": "zero",
             "loss": "squared", "steps": 300, "eval_every": 100, "test_n": 4000, "trials": 1}
    out = run(tmp_path, "learn", "sgd", {"problem": {"hypercube": {"P": 1, "fourier": fourier}}, "sgd": block})
    history = workloads._read_csv(out / "sgd_trial0.csv")
    assert checks.check_sgd(history, 0.1, fourier, learn=True) == []
    missed = copy.deepcopy(history)
    missed[-1]["mse"] = str(0.6 * float(history[0]["mse"]))
    assert checks.check_sgd(missed, 0.1, fourier, learn=True)
    off = copy.deepcopy(history)
    off[0]["mse"] = str(0.1**2 + 1.0 + 5 * float(history[0]["mse_se"]))
    assert checks.check_sgd(off, 0.1, fourier, learn=True)

    out = run(tmp_path, "stuck", "sgd", {"problem": Y2, "sgd": dict(block, steps=50, eval_every=25)})
    history = workloads._read_csv(out / "sgd_trial0.csv")
    assert checks.check_sgd(history, 0.1, workloads.Y2, learn=False) == []
    dropped = copy.deepcopy(history)
    dropped[-1]["mse"] = str(0.9 * float(history[0]["mse"]))
    assert checks.check_sgd(dropped, 0.1, workloads.Y2, learn=False)


def test_df_freeze(tmp_path):
    block = {"eta": 0.002, "steps": 150, "loss": "squared", "c_bar": 0.3, "a_order": 8, "b_order": 4}
    out = run(tmp_path, "df", "df", {"problem": Y2, "df": block})
    summary, curve = read(out / "df_summary.json"), workloads._read_csv(out / "df_curve.csv")
    assert checks.check_df_freeze(summary, curve, frozen=True) == []
    assert checks.check_df_freeze(dict(summary, max_abs_u=[0.0, 1e-9, 0.0, 0.0]), curve, frozen=True)
    assert checks.check_df_freeze(summary, curve, frozen=False)


def test_sgd_df_coupling():
    sgd = [{"step": s, "train_risk": r} for s, r in ((0, 0.5), (10, 0.3), (20, 0.2))]
    df = [{"step": s, "train_risk": r} for s, r in ((0, 0.5), (10, 0.25), (20, 0.22))]
    assert checks.check_sgd_df_coupling(sgd, df) == []
    df[1]["train_risk"] = 0.45
    assert checks.check_sgd_df_coupling(sgd, df)


@pytest.mark.parametrize("seed", [0, 1])
def test_lambda_min_above_eigvalsh_rejected(seed):
    rng = np.random.default_rng(seed)
    problem = expand_hypercube(HypercubeJunta(2, {(1,): 1.0, (1, 2): 1.0}))
    cfg = TrainConfig(loss=get_loss("squared"), eta=0.002, kappa=rng.uniform(0.5, 1.5, 2))
    res = dynamics.layerwise_train(problem, cfg, L=16, k1=2, k2=5, c_bar=float(rng.uniform(-0.5, 0.5)))
    kmat = res.kernel_report.matrix
    assert checks.check_lambda_min(res.kernel_report.lambda_min, kmat) == []
    exact = float(np.linalg.eigvalsh(kmat)[0])
    assert checks.check_lambda_min(exact + 10 * checks.eig_margin(kmat), kmat)
