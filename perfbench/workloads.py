"""The benchmark's workloads: generated configs, the operations that run
them, and the checks of each operation's outputs.

An operation is one juntaleap subcommand call together with its checks.
Every input comes from the workload seed except where an operation says
otherwise. Each workload returns the same list of operations for every
round of a run, so a fault shows as the same share of failed operations.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import checks

ROOT = Path(__file__).resolve().parent.parent
MODELS = ["CSQ", "SQ", {"DLQ": "squared"}, {"DLQ": "abs"}]
MODEL_NAMES = ["CSQ", "SQ", "DLQ[squared]", "DLQ[abs]"]
Y1 = {"1": 1.0, "1,2": 1.0, "1,2,3": 1.0, "1,2,3,4": 1.0}
Y2 = {"1,2,3": 1.0, "1,2,4": 1.0, "1,3,4": 1.0, "2,3,4": 1.0}


@dataclass
class Op:
    """One subcommand call on a generated config, with its checks.

    `kind` groups operations for the throughput figures and `work` counts
    their units of work (detection subsets, queries, samples, DF steps).
    `fault` names a known program fault that makes the operation fail.
    """

    name: str
    command: str
    config: dict
    kind: str
    check: Callable[[Path], list]
    work: Callable[[Path], int] | int = 0
    fault: str | None = None
    out: Path = field(default=None)

    def argv(self):
        return [self.command, "--config", str(self.out / "config.json"), "--out", str(self.out)]

    def units(self):
        return self.work(self.out) if callable(self.work) else self.work


def _key(coords):
    return ",".join(str(int(c)) for c in sorted(coords))


def _sets(keys):
    return [tuple(int(c) for c in k.split(",")) for k in keys if k not in ("", "const")]


def _dyadic(rng):
    """A coefficient magnitude in [1/2, 3/2] with an exact binary expansion,
    so every sum of coefficients is exact and label values compare equal."""
    return int(rng.integers(4, 13)) / 8


def _read_json(path):
    return json.loads(Path(path).read_text())


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _bundled(name):
    return _read_json(ROOT / "src" / "juntaleap" / "configs" / name)


# ---------------------------------------------------------------------------
# exponents-large-p
# ---------------------------------------------------------------------------


def staircase(p, rng):
    """A leap-1 staircase sum_k s_k c z_{pi(1)}...z_{pi(k)}: P + 1 labels."""
    perm = rng.permutation(p) + 1
    signs = rng.choice([-1.0, 1.0], size=p)
    mag = _dyadic(rng)
    return {_key(perm[:k]): float(signs[k - 1] * mag) for k in range(1, p + 1)}


def triples(p, m, rng):
    """m triples covering [P]: disjoint blocks, one triple through the
    coordinates the blocks leave out, then random ones, all linearly
    independent over GF(2) so the label count is fixed; plus a constant
    that makes flip noise double the labels. Leap 3 whatever the draw."""
    perm = [int(c) for c in rng.permutation(p) + 1]
    n_blocks = p // 3
    family = [tuple(sorted(perm[3 * i:3 * i + 3])) for i in range(n_blocks)]
    left = perm[3 * n_blocks:]
    if left:
        family.append(tuple(sorted(left + [int(c) for c in rng.choice(perm[:3 * n_blocks], 3 - len(left), replace=False)])))
    rows = [sum(1 << (c - 1) for c in t) for t in family]

    def independent(vectors):
        basis = []
        for v in vectors:
            for b in basis:
                v = min(v, v ^ b)
            if v == 0:
                return False
            basis.append(v)
        return True

    while len(family) < m:
        cand = tuple(sorted(int(c) for c in rng.choice(np.arange(1, p + 1), 3, replace=False)))
        mask = sum(1 << (c - 1) for c in cand)
        if cand not in family and independent(rows + [mask]):
            family.append(cand)
            rows.append(mask)
    mag = _dyadic(rng)
    fourier = {_key(t): float(rng.choice([-1.0, 1.0]) * mag) for t in family}
    fourier["const"] = 3 * mag / 8
    return fourier


def three_atom(p, rng):
    """y = sum over blocks (sizes 2, 2, 3) of prod z_i on X = {-1, 0, 1} with probabilities
    (q, 1 - 2q, q). The marginal is symmetric, so z is the only odd basis
    function and C_CSQ is exactly the blocks."""
    q = int(rng.integers(20, 36)) / 100
    perm = [int(c) for c in rng.permutation(p) + 1]
    blocks, i = [], 0
    for s in (2, 2, 3):
        blocks.append(tuple(sorted(perm[i:i + s])))
        i += s
    values = np.array([-1.0, 0.0, 1.0])
    rows = np.arange(3**p)
    z = values[np.stack([(rows // 3**k) % 3 for k in range(p)])]
    y = sum(np.prod(z[[c - 1 for c in b]], axis=0) for b in blocks)
    labels = list(range(-len(blocks), len(blocks) + 1))
    cond = np.zeros((rows.size, len(labels)))
    cond[rows, (y + len(blocks)).astype(int)] = 1.0
    spec = {"P": p, "marginal": {"values": values.tolist(), "probs": [q, 1.0 - 2 * q, q]},
            "labels": labels, "cond": cond.tolist()}
    return spec, blocks


def _check_exponents(out, p, csq_sets, names=MODEL_NAMES):
    models = _read_json(out / "exponents.json")["models"]
    problems = []
    for name in names:
        if name not in models:
            problems.append(f"no {name} report")
            continue
        problems += checks.check_exponent_report(p, name, models[name])
        if models[name]["sets"] and not models[name]["beta"] > checks.TOL:
            problems.append(f"{name}: beta {models[name]['beta']} not above the tolerance")
    if problems:
        return problems
    return checks.check_loss_dichotomy(models) + checks.check_csq_sets(models["CSQ"], csq_sets)


def _check_detect(out, p, table, fourier, rng_seed):
    rng = np.random.default_rng(rng_seed)
    reports = {}
    problems = []
    for name in MODEL_NAMES:
        fname = name.replace("[", "_").replace("]", "")
        rep = _read_json(out / f"detect_{fname}.json")
        reports[name] = rep
        problems += checks.check_exponent_report(p, name, rep)
        problems += checks.check_witnesses(table, rep, checks.sampled_keys(rep["witnesses"], 8, rng))
    problems += checks.check_loss_dichotomy(reports)
    problems += checks.check_csq_sets(reports["CSQ"], _sets(fourier))
    problems += checks.check_hypercube_moments(table, _read_csv(out / "moment_tensors.csv"))
    return problems


def exponents_large_p(rng, captured):
    stair = staircase(11, rng)
    trip = triples(11, 6, rng)
    flip = int(rng.integers(1, 8)) / 32
    atoms_spec, blocks = three_atom(7, rng)
    perm = [int(c) for c in rng.permutation(9) + 1]
    mag = _dyadic(rng)
    dump = {_key(s): float(rng.choice([-1.0, 1.0]) * mag)
            for s in ([perm[0]], perm[1:3], [perm[0]] + perm[3:5], perm[5:9])}
    dump_table = checks.Table.hypercube(9, dump)
    subsets = lambda p: len(MODELS) * (2**p - 1)  # noqa: E731
    return [
        Op("staircase-p11", "exponents",
           {"problem": {"hypercube": {"P": 11, "fourier": stair}}, "exponents": {"models": MODELS}},
           "detect", lambda out: _check_exponents(out, 11, _sets(stair)), subsets(11)),
        Op("triples-flip-p11", "exponents",
           {"problem": {"hypercube": {"P": 11, "fourier": trip, "noise": {"kind": "flip", "rate": flip}}},
            "exponents": {"models": MODELS}},
           "detect", lambda out: _check_exponents(out, 11, _sets(trip)), subsets(11)),
        Op("three-atom-p7", "exponents", {"problem": atoms_spec, "exponents": {"models": MODELS}},
           "detect", lambda out: _check_exponents(out, 7, blocks), subsets(7)),
        Op("dump-moments-p9", "detect",
           {"problem": {"hypercube": {"P": 9, "fourier": dump}}, "detect": {"models": MODELS, "dump_moments": True}},
           "detect", lambda out: _check_detect(out, 9, dump_table, dump, 9), subsets(9)),
    ]


# ---------------------------------------------------------------------------
# games-sweep
# ---------------------------------------------------------------------------


def _game_records(out):
    with open(out / "game_transcript.jsonl") as fh:
        return [json.loads(line) for line in fh]


def _queries(out):
    return int(_read_json(out / "game_verdict.json")["queries"])


def _honest(name, fourier, d, s_star, seed, learner, noise, expected=None, budget=None):
    table = checks.Table.hypercube(4, fourier)

    def check(out):
        verdict = _read_json(out / "game_verdict.json")
        return checks.check_honest_game(verdict, _game_records(out), verdict["tau"], table, s_star,
                                        expected_queries=expected, budget=budget)

    cfg = {"problem": {"hypercube": {"P": 4, "fourier": fourier}},
           "game": {"d": d, "s_star": s_star, "learner": learner, "noise_mode": noise, "tau_factor": 0.25},
           "seed": seed}
    return Op(name, "game", cfg, "game", check, _queries)


def _adversarial(name, fourier, d, max_tuple=None, survivors=None, queries=None):
    def check(out):
        return checks.check_adversarial_game(_read_json(out / "game_verdict.json"), _game_records(out),
                                             expected_survivors=survivors, expected_queries=queries)

    game = {"d": d, "oracle": "adversarial", "tau_factor": 0.25}
    if max_tuple is not None:
        game["max_tuple"] = max_tuple
    return Op(name, "game", {"problem": {"hypercube": {"P": 4, "fourier": fourier}}, "game": game},
              "game", check, _queries)


def games_sweep(rng, captured):
    def plant(d):
        return [int(c) for c in rng.choice(np.arange(1, d + 1), 4, replace=False)]

    ops = [
        _honest("y2-nonadaptive-d24", Y2, 24, plant(24), int(rng.integers(1 << 30)), "nonadaptive", "zero",
                expected=checks.nonadaptive_count(24, _sets(Y2))),
        _honest("y1-nonadaptive-d16", Y1, 16, plant(16), int(rng.integers(1 << 30)), "nonadaptive", "uniform",
                expected=checks.nonadaptive_count(16, _sets(Y1))),
    ]
    for noise in ("zero", "uniform", "adversarial_sign"):
        for k in range(2):
            ops.append(_honest(f"y1-adaptive-d30-{noise}-{k}", Y1, 30, plant(30), int(rng.integers(1 << 30)),
                               "adaptive", noise, budget=50 * 30))
            ops.append(_honest(f"y2-adaptive-d12-{noise}-{k}", Y2, 12, plant(12), int(rng.integers(1 << 30)),
                               "adaptive", noise, budget=10 * 12**3))
    # the adversary has no planted support, so these do not depend on the seed
    ops += [
        _adversarial("y2-adversary-pairs-d10", Y2, 10, max_tuple=2, survivors=math.perm(10, 4), queries=0),
        _adversarial("y1-adversary-d10", Y1, 10, survivors=math.perm(9, 3), queries=10),
        _adversarial("y2-adversary-d8", Y2, 8),
    ]
    return ops


# ---------------------------------------------------------------------------
# sgd-online and meanfield-batch
# ---------------------------------------------------------------------------


def _fig1():
    return _bundled("fig1b.json")["problem"]


def _sgd_op(name, problem, block, seed, check):
    cfg = {"problem": problem, "sgd": dict(block, trials=1), "seed": seed}
    return Op(name, "sgd", cfg, "sgd", check, block["steps"] * block["batch"])


def _sgd_curve_check(block, fourier, learn):
    return lambda out: checks.check_sgd(_read_csv(out / "sgd_trial0.csv"), block["c_bar"], fourier, learn)


def sgd_online(rng, captured):
    problem = _fig1()
    fourier = problem["hypercube"]["fourier"]
    d = 100
    block = {"d": d, "M": 512, "batch": 1, "eta": (1 / 32) / d, "activation": "tanh:4:2", "c_bar": 0.1,
             "mu_b": "zero", "test_n": 4000}
    cubic = dict(block, loss="squared_plus_cubic", steps=240 * d, eval_every=24 * d)
    squared = dict(block, loss="squared", steps=40 * d, eval_every=4 * d)

    def check_prediction(out):
        problems = _check_exponents(out, 4, _sets(fourier), ["CSQ", "SQ", "DLQ[squared]", "DLQ[squared_plus_cubic]"])
        if problems:
            return problems
        models = _read_json(out / "exponents.json")["models"]
        if not models["DLQ[squared]"]["leap"] > 1 or models["DLQ[squared_plus_cubic]"]["leap"] != 1:
            problems.append("the DLQ leaps do not predict squared stuck and squared-plus-cubic learning")
        return problems

    return [
        Op("fig1-exponents", "exponents",
           {"problem": problem, "exponents": {"models": ["CSQ", "SQ", {"DLQ": "squared"}, {"DLQ": "squared_plus_cubic"}]}},
           "detect", check_prediction, 4 * (2**4 - 1)),
        _sgd_op("fig1-cubic-learns", problem, cubic, int(rng.integers(1 << 30)),
                _sgd_curve_check(cubic, fourier, learn=True)),
        _sgd_op("fig1-squared-stuck", problem, squared, int(rng.integers(1 << 30)),
                _sgd_curve_check(squared, fourier, learn=False)),
    ]


def _df_op(name, problem, block, frozen=None):
    def check(out):
        return checks.check_df_freeze(_read_json(out / "df_summary.json"), _read_csv(out / "df_curve.csv"), frozen)

    # without `frozen` the curve is checked by the SGD operation that reads it
    return Op(name, "df", {"problem": problem, "df": block}, "df",
              check if frozen is not None else (lambda out: []), block["steps"])


def meanfield_batch(rng, captured):
    fig1 = _fig1()
    d = 300
    eta = 0.5 / d
    steps = 150
    sgd_block = {"d": d, "M": 1024, "batch": d, "eta": eta, "activation": "tanh:2:2", "c_bar": 0.15,
                 "mu_b": "zero", "loss": "squared_plus_cubic", "steps": steps, "eval_every": steps // 5,
                 "test_n": 8000}
    df_block = {"eta": eta, "steps": steps, "activation": "tanh:2:2", "c_bar": 0.15, "mu_b": "zero",
                "loss": "squared_plus_cubic", "a_order": 24, "b_order": 1, "risk_every": steps // 5}
    df = _df_op("fig1-df", fig1, df_block)

    def coupling(out):
        return checks.check_sgd_df_coupling(_read_csv(out / "sgd_trial0.csv"), _read_csv(df.out / "df_curve.csv"))

    sgd = _sgd_op("fig1-batch-d-sgd", fig1, sgd_block, int(rng.integers(1 << 30)), coupling)
    y2 = {"hypercube": {"P": 4, "fourier": Y2}}
    c_bar = float(rng.uniform(0.2, 0.4))
    freeze = {"eta": 0.002, "steps": 2000, "activation": "tanh", "c_bar": c_bar, "a_order": 24, "b_order": 12}
    c9 = {"hypercube": {"P": 2, "fourier": {"1": 1.0, "1,2": 1.0}}}
    y1 = {"hypercube": {"P": 4, "fourier": Y1}}

    def certificate(out):
        summary = _read_json(out / "layerwise_summary.json")
        return checks.check_lambda_min(summary["lambda_min"], captured["kernel"])

    lw = {"L": 16, "k1": 2, "k2": 500, "eta": 0.002, "loss": "squared",
          "kappa": rng.uniform(0.5, 1.5, 2).tolist(), "c_bar": float(rng.uniform(-0.5, 0.5))}
    # fixed inputs: this certificate fails on every draw, so the failure must not depend on the seed
    lw_y1 = {"L": 8, "k2": 100, "eta": 0.002, "loss": "squared", "kappa": [0.75, 1.25, 0.9, 1.1], "c_bar": 0.2}
    return [
        df,  # runs first so that the SGD check can read its curve
        sgd,
        _df_op("y2-df-squared", y2, dict(freeze, loss="squared"), frozen=True),
        _df_op("y2-df-cubic", y2, dict(freeze, loss="squared_plus_cubic"), frozen=False),
        _df_op("y2-df-squared-s-pos", y2, dict(freeze, loss="squared", s0=0.5, steps=500), frozen=True),
        Op("c9-layerwise-L16", "layerwise", {"problem": c9, "layerwise": lw}, "layerwise", certificate),
        Op("y1-layerwise-L8", "layerwise", {"problem": y1, "layerwise": lw_y1}, "layerwise", certificate,
           fault="dynamics.smallest_eigenvalue over-estimates lambda_min (power iteration returns "
                 "lambda_max - mu with a Rayleigh quotient mu that is too low)"),
    ]


WORKLOADS = {
    "exponents-large-p": ("detect", exponents_large_p),
    "games-sweep": ("game", games_sweep),
    "sgd-online": ("sgd", sgd_online),
    "meanfield-batch": ("sgd", meanfield_batch),
}


def build(name, seed, out_root, captured):
    """Generate the workload's configs under out_root; return its operations
    and the kind of operation its throughput counts. `captured["kernel"]`
    must hold the kernel of the latest `layerwise_train` call."""
    primary, make = WORKLOADS[name]
    rng = np.random.default_rng([seed, list(WORKLOADS).index(name)])
    ops = make(rng, captured)
    for op in ops:
        op.out = Path(out_root) / op.name
        op.out.mkdir(parents=True, exist_ok=True)
        (op.out / "config.json").write_text(json.dumps(op.config))
    return ops, primary
