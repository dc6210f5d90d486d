import hashlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

from juntaleap.cli import main


def run_cli(args):
    return main(list(args))


def write_config(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


Y1_SPEC = {"hypercube": {"P": 4, "fourier": {"1": 1.0, "1,2": 1.0, "1,2,3": 1.0, "1,2,3,4": 1.0}}}
Y2_SPEC = {"hypercube": {"P": 4, "fourier": {"1,2,3": 1.0, "1,2,4": 1.0, "1,3,4": 1.0, "2,3,4": 1.0}}}
HARD_INSTANCE = {"marginal_y": {"values": [-1.0, 0.0, 1.0], "probs": [1 / 3, 1 / 3, 1 / 3]},
                 "T": [0.5, -1.0, 0.5], "A": [1.0], "lambda": 2.0,
                 "marginal_x": {"values": [1.0, -1.0], "probs": [0.5, 0.5]}, "losses": ["squared", "abs"]}


class TestExponents:
    def test_y1_bundled_config(self, tmp_path, capsys):
        assert run_cli(["exponents", "--config", "y1.json", "--out", str(tmp_path)]) == 0
        data = json.loads((tmp_path / "exponents.json").read_text())
        csq = data["models"]["CSQ"]
        sq = data["models"]["SQ"]
        assert (csq["leap"], csq["cover"], sq["leap"], sq["cover"]) == (1, 4, 1, 1)

    def test_y2_bundled_config(self, tmp_path):
        assert run_cli(["exponents", "--config", "y2.json", "--out", str(tmp_path)]) == 0
        data = json.loads((tmp_path / "exponents.json").read_text())
        csq = data["models"]["CSQ"]
        sq = data["models"]["SQ"]
        assert (csq["leap"], csq["cover"], sq["leap"], sq["cover"]) == (3, 3, 1, 1)

    def test_unknown_key_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, "bad.json", {"problem": Y1_SPEC, "bogus": 1})
        assert run_cli(["exponents", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_missing_config_exits_2(self, tmp_path):
        assert run_cli(["exponents", "--config", "nope.json", "--out", str(tmp_path)]) == 2

    def test_schema_violation_in_block(self, tmp_path):
        cfg = write_config(tmp_path, "bad2.json", {"problem": Y1_SPEC, "exponents": {"modes": []}})
        assert run_cli(["exponents", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_unknown_model_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "m.json", {"problem": Y1_SPEC, "exponents": {"models": ["CSQ", "BOGUS"]}})
        assert run_cli(["exponents", "--config", cfg, "--out", str(tmp_path)]) == 2
        cfg = write_config(tmp_path, "g.json", {"problem": Y1_SPEC, "game": {"d": 8, "model": "BOGUS"}})
        assert run_cli(["game", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.count("unknown query model 'BOGUS'") == 2

    def test_null_atom_marginal(self, tmp_path):
        # an atom of probability 0 reports the exponents of the problem without it
        def exponents_json(name, values, probs, cond):
            problem = {"P": 1, "marginal": {"values": values, "probs": probs}, "labels": [-1.0, 1.0], "cond": cond}
            cfg = write_config(tmp_path, f"{name}.json", {"problem": problem})
            assert run_cli(["exponents", "--config", cfg, "--out", str(tmp_path / name)]) == 0
            return (tmp_path / name / "exponents.json").read_text()

        full = exponents_json("full", [1.0, -1.0, 0.0], [0.5, 0.5, 0.0], [[0.0, 1.0], [1.0, 0.0], [0.5, 0.5]])
        assert full == exponents_json("reduced", [1.0, -1.0], [0.5, 0.5], [[0.0, 1.0], [1.0, 0.0]])
        assert json.loads(full)["models"]["CSQ"]["sets"] == [[1]]


class TestDetect:
    def test_emits_reports(self, tmp_path):
        cfg = write_config(
            tmp_path, "d.json",
            {"problem": Y1_SPEC, "detect": {"models": ["CSQ", {"DLQ": "abs"}]}},
        )
        assert run_cli(["detect", "--config", cfg, "--out", str(tmp_path)]) == 0
        rep = json.loads((tmp_path / "detect_CSQ.json").read_text())
        assert rep["leap"] == 1 and rep["cover"] == 4
        dlq = json.loads((tmp_path / "detect_DLQ_abs.json").read_text())
        assert dlq["leap"] == 1 and dlq["cover"] == 1
        assert dlq["witnesses"]


class TestDumpMoments:
    @pytest.mark.parametrize("spec", [
        Y1_SPEC,
        {"P": 3, "marginal": {"values": [-1.0, 0.0, 1.0], "probs": [0.3, 0.4, 0.3]},
         "labels": [0.0, 1.0], "cond": [[1.0 - (r % 3) / 4, (r % 3) / 4] for r in range(27)]},
    ])
    def test_rows_in_order_with_tensor_values(self, tmp_path, spec):
        import csv

        from juntaleap.fourier import conditional_moment_tensor, gram_schmidt
        from juntaleap.junta import problem_from_dict
        from juntaleap.setsystem import coords_from_mask

        cfg = write_config(tmp_path, "dm.json", {"problem": spec, "detect": {"models": ["CSQ"], "dump_moments": True}})
        assert run_cli(["detect", "--config", cfg, "--out", str(tmp_path)]) == 0
        with (tmp_path / "moment_tensors.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        prob = problem_from_dict(spec)
        basis = gram_schmidt(prob.marginal)
        nb = prob.marginal.nx - 1
        want = []
        for mask in range(1, 1 << prob.p):
            coords = coords_from_mask(mask)
            g = conditional_moment_tensor(prob, basis, coords).reshape(prob.ny, -1)
            want += [("|".join(map(str, coords)), str(label), str(j), g[a, j])
                     for a, label in enumerate(prob.labels) for j in range(nb ** len(coords))]
        assert len(rows) == sum(prob.ny * nb ** m.bit_count() for m in range(1, 1 << prob.p)) == len(want)
        assert [(r["U"], r["label"], r["basis_index"]) for r in rows] == [w[:3] for w in want]
        assert [float(r["moment"]) for r in rows] == [w[3] for w in want]


class TestGame:
    def test_adaptive_honest(self, tmp_path):
        cfg = write_config(
            tmp_path, "g.json",
            {"problem": Y1_SPEC,
             "game": {"d": 15, "model": "CSQ", "learner": "adaptive",
                      "tau_factor": 0.25, "noise_mode": "adversarial_sign"},
             "seed": 5},
        )
        assert run_cli(["game", "--config", cfg, "--out", str(tmp_path)]) == 0
        verdict = json.loads((tmp_path / "game_verdict.json").read_text())
        assert verdict["verdict"] == "SUCCESS"
        assert sorted(verdict["s_hat"]) == sorted(verdict["s_star"])
        lines = (tmp_path / "game_transcript.jsonl").read_text().strip().split("\n")
        assert len(lines) == verdict["queries"]

    @pytest.mark.parametrize("model", [{"model": "CSQ"}, {"model": "DLQ", "loss": "abs"}])
    def test_tol_above_every_witness_fails(self, tmp_path, capsys, model):
        # normalized witness scores are at most 1, so tol = 2 leaves no detectable set
        cfg = write_config(tmp_path, "gt.json", {"problem": Y1_SPEC, "game": {"d": 8, "tol": 2.0, **model}})
        assert run_cli(["game", "--config", cfg, "--out", str(tmp_path)]) == 1
        assert "no detectable sets" in capsys.readouterr().err

    def test_adversarial_pairs_only(self, tmp_path):
        cfg = write_config(
            tmp_path, "g2.json",
            {"problem": Y2_SPEC,
             "game": {"d": 8, "model": "CSQ", "learner": "adaptive", "oracle": "adversarial",
                      "tau_factor": 0.25, "max_tuple": 2},
             "seed": 1},
        )
        assert run_cli(["game", "--config", cfg, "--out", str(tmp_path)]) == 0
        verdict = json.loads((tmp_path / "game_verdict.json").read_text())
        assert verdict["verdict"] == "FAIL"

    def test_adversary_transcript_does_not_depend_on_the_seed(self, tmp_path):
        # the seed draws s_star only: the adversary has no planting to keep
        cfg = write_config(tmp_path, "g.json", {"problem": Y2_SPEC, "game": {"d": 8, "oracle": "adversarial"}})
        outs = [tmp_path / "a", tmp_path / "b"]
        for seed, out in zip(("1", "2"), outs):
            assert run_cli(["game", "--config", cfg, "--out", str(out), "--seed", seed]) == 0
        verdicts = [json.loads((out / "game_verdict.json").read_text()) for out in outs]
        assert verdicts[0]["s_star"] != verdicts[1]["s_star"]
        assert [v["verdict"] for v in verdicts] == ["FAIL", "FAIL"] and verdicts[0]["queries"] == 197
        assert (outs[0] / "game_transcript.jsonl").read_bytes() == (outs[1] / "game_transcript.jsonl").read_bytes()

    @pytest.mark.parametrize("oracle", ["honest", "adversarial"])
    @pytest.mark.parametrize("bad", [  # (block entry, the error it gives)
        ({"tau": -0.1}, "bad tau"), ({"tau": float("nan")}, "tau must be a finite number"),
        ({"tau_factor": float("inf")}, "tau_factor must be a finite number"), ({"tau_factor": -1.0}, "bad tau_factor"),
        ({"tau": "0.1"}, "tau must be a finite number"),
    ])
    def test_bad_tau_exits_2(self, tmp_path, capsys, oracle, bad):
        entry, message = bad
        game = {"d": 8, "model": "CSQ", "oracle": oracle, **entry}
        cfg = write_config(tmp_path, "gtau.json", {"problem": Y2_SPEC, "game": game, "seed": 1})
        assert run_cli(["game", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert f"config error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "game_verdict.json").exists()

    @pytest.mark.parametrize("tau", ["nan", "-0.5"])
    def test_bad_tau_flag_exits_2(self, tmp_path, tau):
        cfg = write_config(tmp_path, "g.json", {"problem": Y1_SPEC, "game": {"d": 8, "oracle": "adversarial"}})
        assert run_cli(["game", "--config", cfg, "--out", str(tmp_path), "--tau", tau]) == 2


class TestProblemNamedByString:
    def outputs(self, tmp_path, name, problem, command="game"):
        block = {"game": {"d": 12, "noise_mode": "uniform"}} if command == "game" else {}
        cfg = write_config(tmp_path, f"{name}.json", {"problem": problem, **block, "seed": 4})
        out = tmp_path / name
        assert run_cli([command, "--config", cfg, "--out", str(out)]) == 0
        return {f.name: f.read_bytes() for f in sorted(out.iterdir())}

    def test_bundled_config_gives_its_problem_block(self, tmp_path):
        # y1.json is a whole config: its spec sits under "problem"
        assert self.outputs(tmp_path, "named", "y1.json") == self.outputs(tmp_path, "inline", Y1_SPEC)

    def test_bare_problem_file(self, tmp_path):
        path = write_config(tmp_path, "y2_problem.json", Y2_SPEC)
        named = self.outputs(tmp_path, "named", path, "exponents")
        assert named == self.outputs(tmp_path, "inline", Y2_SPEC, "exponents")

    def test_problem_block_followed_one_level_only(self, tmp_path, capsys):
        path = write_config(tmp_path, "wrapper.json", {"problem": "y1.json"})
        cfg = write_config(tmp_path, "c.json", {"problem": path, "game": {"d": 12}})
        assert run_cli(["game", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert "bad problem spec" in capsys.readouterr().err


class TestDynamicsCommands:
    @pytest.mark.parametrize("command,block", [  # block: (the block, the error it gives)
        ("df", ({"eta": 0.002, "steps": 2, "kappa": [2.0, 1.0]}, "bad training parameters")),
        ("df", ({"eta": float("nan"), "steps": 2}, "eta must be a finite number")),
        ("df", ({"eta": 0.002, "steps": 2, "kappa": [float("nan"), 1.0]}, "kappa must be a list of finite numbers")),
        ("layerwise", ({"L": 4, "k1": 1, "k2": 1, "eta": float("inf")}, "eta must be a finite number")),
        ("layerwise", ({"L": 4, "k1": 1, "k2": 1, "kappa": [1.0, float("nan")]},
                       "kappa must be a list of finite numbers")),
        ("sgd", ({"d": 4, "M": 4, "steps": 1, "batch": 0}, "batch must be an integer >= 1")),
        ("sgd", ({"d": 4, "M": 4, "steps": 1, "eta": float("nan")}, "eta must be a finite number")),
    ])
    def test_bad_training_parameters_exit_2(self, tmp_path, capsys, command, block):
        block, message = block
        spec = {"hypercube": {"P": 2, "fourier": {"1": 1.0, "1,2": 1.0}}}
        cfg = write_config(tmp_path, "t.json", {"problem": spec, command: dict(block, c_bar=0.1), "seed": 0})
        assert run_cli([command, "--config", cfg, "--out", str(tmp_path)]) == 2
        assert f"config error: {message}" in capsys.readouterr().err

    def test_df_freeze_summary(self, tmp_path):
        cfg = write_config(
            tmp_path, "df.json",
            {"problem": Y2_SPEC,
             "df": {"eta": 0.002, "steps": 150, "loss": "squared", "c_bar": 0.3,
                    "a_order": 8, "b_order": 4},
             "seed": 2},
        )
        assert run_cli(["df", "--config", cfg, "--out", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "df_summary.json").read_text())
        assert summary["stuck"] is True
        assert summary["frozen_coords"] == [1, 2, 3, 4]
        header = (tmp_path / "df_curve.csv").read_text().splitlines()[0]
        assert header.split(",")[:2] == ["step", "t"]
        assert "umax_1" in header

    def test_df_judges_noisy_labels_against_bayes_mse(self, tmp_path):
        # y = z_1 flipped with probability 0.4: the run reaches the Bayes MSE
        # 1 - 0.2^2 = 0.96, a drop of only 4 % of the total MSE
        cfg = write_config(
            tmp_path, "flip.json",
            {"problem": {"hypercube": {"P": 1, "fourier": {"1": 1.0}, "noise": {"kind": "flip", "rate": 0.4}}},
             "df": {"eta": 0.5, "steps": 400, "loss": "squared", "activation": "tanh", "c_bar": 0.0},
             "seed": 0},
        )
        assert run_cli(["df", "--config", cfg, "--out", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "df_summary.json").read_text())
        assert summary["bayes_mse"] == pytest.approx(0.96, abs=1e-15)
        assert summary["final_mse"] == pytest.approx(0.96, abs=1e-6)
        assert summary["first_activation"] == [1]
        assert summary["stuck"] is False

    def test_sgd_zero_steps_single_row(self, tmp_path):
        cfg = write_config(
            tmp_path, "s.json",
            {"problem": Y2_SPEC,
             "sgd": {"d": 10, "M": 8, "eta": 0.01, "steps": 0, "trials": 1,
                     "test_n": 200, "c_bar": 0.2}},
        )
        assert run_cli(["sgd", "--config", cfg, "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "sgd_trial0.csv").read_text().strip().splitlines()
        assert len(rows) == 2  # header + the initial-risk row
        summary = json.loads((tmp_path / "sgd_summary.json").read_text())
        assert summary["trials"][0]["initial_mse"] == summary["trials"][0]["final_mse"]

    def test_sgd_judges_noisy_labels_against_bayes_mse(self, tmp_path):
        # y = z_1 flipped with probability 1/4: E[Var(y | z)] = 1 - (1/2)^2, so a
        # fit near the Bayes MSE learns though the MSE never halves
        cfg = write_config(
            tmp_path, "flip.json",
            {"problem": {"hypercube": {"P": 1, "fourier": {"1": 1.0}, "noise": {"kind": "flip", "rate": 0.25}}},
             "sgd": {"d": 8, "M": 32, "batch": 8, "eta": 0.1, "steps": 300, "loss": "squared",
                     "test_n": 2000, "c_bar": 0.0, "trials": 2},
             "seed": 1},
        )
        assert run_cli(["sgd", "--config", cfg, "--out", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "sgd_summary.json").read_text())
        assert summary["bayes_mse"] == pytest.approx(0.75, abs=1e-15)
        for trial in summary["trials"]:
            assert trial["final_mse"] > 0.5 * trial["initial_mse"]
            assert trial["final_mse"] - 0.75 < 0.5 * (trial["initial_mse"] - 0.75)
            assert trial["learned"] is True and trial["stuck"] is False

    def test_sgd_noiseless_bayes_mse_is_zero(self, tmp_path):
        cfg = write_config(tmp_path, "s.json", {"problem": Y2_SPEC, "sgd": {"d": 6, "M": 4, "steps": 0, "test_n": 50}})
        assert run_cli(["sgd", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert json.loads((tmp_path / "sgd_summary.json").read_text())["bayes_mse"] == 0.0

    @pytest.mark.parametrize("fourier,noise,why", [
        ({"1": 1.0}, {"kind": "additive", "values": [0.0, 0.5], "probs": [1.0]}, "equal length"),
        ({"1": 1.0}, {"kind": "additive", "values": [0.0], "probs": [0.5, 0.5]}, "equal length"),
        ({"1": 1.0, "2": float("nan")}, None, "finite"),
        ({"1": float("inf")}, {"kind": "flip", "rate": 0.1}, "finite"),
    ])
    def test_bad_hypercube_spec_exits_2_without_outputs(self, tmp_path, capsys, fourier, noise, why):
        spec = {"hypercube": {"P": 2, "fourier": fourier, "noise": noise}}
        cfg = write_config(tmp_path, "c.json", {"problem": spec})
        out = tmp_path / "out"
        assert run_cli(["exponents", "--config", cfg, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert "bad problem spec" in captured.err and why in captured.err and captured.out == ""
        assert not out.exists()

    def test_nan_in_cond_exits_2(self, tmp_path, capsys):
        path = tmp_path / "nan.json"
        path.write_text('{"problem": {"P": 1, "marginal": {"values": [1.0, -1.0], "probs": [0.5, 0.5]}, '
                        '"labels": [0.0, 1.0], "cond": [[NaN, 1.0], [0.5, 0.5]]}, "sgd": {"d": 4, "steps": 1}}')
        assert run_cli(["sgd", "--config", str(path), "--out", str(tmp_path)]) == 2
        assert "finite" in capsys.readouterr().err

    def test_layerwise_summary(self, tmp_path):
        cfg = write_config(
            tmp_path, "lw.json",
            {"problem": {"hypercube": {"P": 2, "fourier": {"1": 1.0, "1,2": 1.0}}},
             "layerwise": {"L": 16, "k1": 2, "k2": 150, "eta": 0.002, "loss": "squared"},
             "seed": 3},
        )
        assert run_cli(["layerwise", "--config", cfg, "--out", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "layerwise_summary.json").read_text())
        assert summary["lambda_min_ok"] is True

    def test_lambda_min_within_margin_is_not_certified(self, tmp_path):
        # a lambda_min above the threshold by less than eigvalsh's backward
        # error n * eps * ||K||_2 may be at or below it in truth
        block = {"L": 16, "k1": 2, "k2": 1, "eta": 0.002, "loss": "squared"}
        spec = {"problem": {"hypercube": {"P": 2, "fourier": {"1": 1.0, "1,2": 1.0}}}, "seed": 3}

        def summary(threshold=None):
            lw = block if threshold is None else dict(block, lambda_min_threshold=threshold)
            cfg = write_config(tmp_path, "lw.json", dict(spec, layerwise=lw))
            assert run_cli(["layerwise", "--config", cfg, "--out", str(tmp_path)]) == 0
            return json.loads((tmp_path / "layerwise_summary.json").read_text())

        first = summary()
        lam, margin = first["lambda_min"], first["lambda_min_margin"]
        assert 0.0 < margin < 1e-12
        assert summary(lam - margin / 2)["lambda_min_ok"] is False
        assert summary(lam - 2 * margin)["lambda_min_ok"] is True

    def test_divergence_exit_code_1(self, tmp_path):
        cfg = write_config(
            tmp_path, "lw2.json",
            {"problem": {"hypercube": {"P": 2, "fourier": {"1": 1.0, "1,2": 1.0}}},
             "layerwise": {"L": 16, "k1": 2, "k2": 1, "eta": 0.05, "loss": "squared",
                           "c_bar": 0.3, "kappa": [1.0, 1.0]},
             "seed": 3},
        )
        import numpy as np

        with np.errstate(over="ignore", invalid="ignore"):
            assert run_cli(["layerwise", "--config", cfg, "--out", str(tmp_path)]) == 1


def kind_slips():
    """(command, key, value) for each key of each `_COMMANDS` block whose kind is
    an integer, a number or a list of numbers, with a value of the wrong kind
    that Python reads as a number: true, 2.5 for an integer, [true] for a list;
    and for a list of specs, one spec not in a list or an empty list."""
    from juntaleap.cli import _COMMANDS, AUTO_OR_NUMBER, NUMBER, NUMBERS, SPECS

    for command, (_, _, _, kinds) in _COMMANDS.items():
        for key, kind in kinds.items():
            if isinstance(kind, int):
                yield from ((command, key, True), (command, key, 2.5))
            elif kind in (NUMBER, AUTO_OR_NUMBER):
                yield command, key, True
            elif kind == NUMBERS:
                yield command, key, [True]
            elif kind == SPECS:
                yield from ((command, key, {"models": "CSQ", "losses": "abs"}[key]), (command, key, []))


class TestConfigValuesRejectedUpFront:
    # mu_x(A) = 2/3: lambda = 1, the value Python reads `true` as, builds this
    # instance, so that only the kind check rejects "lambda": true
    HARD = dict(HARD_INSTANCE, A=[1.0, 0.0], marginal_x={"values": [1.0, 0.0, -1.0], "probs": [1 / 3] * 3})
    BASE = {
        "layerwise": {"L": 4, "k1": 1, "k2": 1, "c_bar": 0.1},
        "sgd": {"d": 4, "M": 4, "steps": 1, "test_n": 20, "c_bar": 0.1},
        "df": {"eta": 0.002, "steps": 2, "c_bar": 0.1},
        "game": {"d": 8},
        "exponents": {"models": ["CSQ", {"DLQ": "abs"}]},
        "detect": {"models": ["CSQ", {"DLQ": "abs"}], "dump_moments": True},
    }

    @pytest.mark.parametrize("command,bad", [
        ("layerwise", {"eta2": float("nan")}),
        ("layerwise", {"eta2": "fast"}),
        ("layerwise", {"L": 0}),
        ("sgd", {"activation": "relu"}),
        ("sgd", {"activation": "poly:0"}),
        ("df", {"activation": "relu"}),
        ("df", {"activation": "poly:0"}),
        ("df", {"mu_b": "normal"}),
        ("sgd", {"mu_w": "uniform"}),
        ("sgd", {"M": 0}),
        ("sgd", {"d": 1}),
        ("game", {"learner": "bogus"}),
        ("game", {"oracle": "bogus"}),
        ("game", {"noise_mode": "bogus"}),
        ("game", {"d": 1}),
        ("game", {"s_star": [3, 3]}),
        ("sgd", {"trials": 0}),
        ("sgd", {"steps": -3}),
        ("sgd", {"steps": 2.5}),
        ("sgd", {"steps": True}),
        ("sgd", {"eval_every": 0}),
        ("sgd", {"test_n": 0}),
        ("sgd", {"test_n": 1}),
        ("sgd", {"batch": 2.5}),
        ("sgd", {"batch": True}),
        ("sgd", {"lam_w": float("nan")}),
        ("sgd", {"lam_a": float("nan")}),
        ("sgd", {"c_bar": float("nan")}),
        ("sgd", {"c_bar": 10**400}),
        ("sgd", {"loss": {"name": "custom_polynomial", "coeffs": [0.0, 0.0, 1.0], "convex": True}}),
        ("df", {"steps": -3}),
        ("df", {"risk_every": 0}),
        ("df", {"gh_order": 0, "s0": 0.5}),
        ("df", {"c_bar": float("nan")}),
        ("df", {"s0": float("inf")}),
        ("layerwise", {"k1": -1}),
        ("layerwise", {"k2": -3}),
        ("layerwise", {"L": 4.5}),
        ("game", {"d": 8.5}),
        ("game", {"budget": -1}),
        ("game", {"max_tuple": 0}),
        ("exponents", {"tol": -1}),
        ("exponents", {"tol": float("nan")}),
        ("exponents", {"u_grid": []}),
        ("exponents", {"u_grid": [float("nan")]}),
        ("detect", {"tol": -1.0}),
        ("detect", {"u_grid": [0.0, float("nan")]}),
        ("game", {"tol": float("nan")}),
        ("layerwise", {"c_bar": float("nan")}),
        ("layerwise", {"c_bar": "x"}),
        ("layerwise", {"a_order": 0}),
        ("layerwise", {"a_order": True}),
        ("df", {"a_order": True}),
        ("df", {"a_order": 0}),
        ("df", {"b_order": 2.5}),
        ("sgd", {"eta_scale": "x"}),
        ("sgd", {"eta_scale": float("nan")}),
        ("sgd", {"c_bar": "x"}),
        ("df", {"threshold": "x"}),
        ("df", {"threshold": float("nan")}),
        ("layerwise", {"lambda_min_threshold": "x"}),
        ("layerwise", {"lambda_min_threshold": float("inf")}),
        ("sgd", {"activation": "tanh:nan"}),
        ("df", {"activation": "tanh:4:2:9"}),
        ("game", {"oracle": "adversarial", "d": 1025}),
        ("game", {"oracle": "adversarial", "learner": "grouped"}),
        ("game", {"oracle": "adversarial", "learner": "grouped", "d": 3}),
        ("game", {"learner": "nonadaptive", "max_tuple": 2}),
        ("game", {"learner": "grouped", "max_tuple": 1}),
        ("game", {"oracle": "adversarial", "noise_mode": "uniform"}),
        ("df", {"kappa": [True, 1.0]}),
        ("layerwise", {"kappa": [True, 1.0]}),
    ])
    def test_exits_2_without_outputs(self, tmp_path, capsys, command, bad):
        spec = {"hypercube": {"P": 2, "fourier": {"1": 1.0, "1,2": 1.0}}}
        cfg = write_config(tmp_path, "c.json", {"problem": spec, command: {**self.BASE[command], **bad}, "seed": 0})
        out = tmp_path / "out"
        assert run_cli([command, "--config", cfg, "--out", str(out)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command,key,bad", list(kind_slips()))
    def test_every_key_rejects_a_value_of_the_wrong_kind(self, tmp_path, capsys, command, key, bad):
        if command == "hard-instance":
            config = {"hard_instance": dict(self.HARD, **{key: bad})}
        else:
            spec = {"hypercube": {"P": 2, "fourier": {"1": 1.0, "1,2": 1.0}}}
            config = {"problem": spec, command: dict(self.BASE[command], **{key: bad}), "seed": 0}
        cfg = write_config(tmp_path, "c.json", config)
        out = tmp_path / "out"
        assert run_cli([command, "--config", cfg, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert f"config error: {key} must be " in captured.err and captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("command", ["df", "layerwise"])
    def test_scalar_kappa_exits_2_before_training(self, tmp_path, capsys, command):
        spec = {"hypercube": {"P": 1, "fourier": {"1": 1.0}}}
        cfg = write_config(tmp_path, "c.json", {"problem": spec, command: dict(self.BASE[command], kappa=1.0)})
        out = tmp_path / "out"
        assert run_cli([command, "--config", cfg, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert "config error: kappa must be a list of finite numbers" in captured.err and captured.out == ""
        assert not out.exists()  # no layerwise_curve.csv

    @pytest.mark.parametrize("command,config", [
        ("hard-instance", {"hard_instance": dict(HARD_INSTANCE, marginal_x=[1.0, -1.0])}),
        ("hard-instance", {"hard_instance": dict(HARD_INSTANCE, marginal_y="uniform")}),
        ("exponents", {"problem": {"hypercube": {"P": 1, "fourier": [1]}}}),
    ])
    def test_library_value_of_the_wrong_json_type_exits_2(self, tmp_path, capsys, command, config):
        cfg = write_config(tmp_path, "c.json", config)
        out = tmp_path / "out"
        assert run_cli([command, "--config", cfg, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert "config error" in captured.err and captured.out == ""
        assert not out.exists()

    def test_dump_moments_string_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", {"problem": Y1_SPEC, "detect": {"dump_moments": "false"}})
        out = tmp_path / "out"
        assert run_cli(["detect", "--config", cfg, "--out", str(out)]) == 2
        assert "config error: dump_moments must be true or false" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command,block", [
        ("exponents", {"models": None, "tol": None, "u_grid": None}),
        ("game", {"d": 8, "model": None, "learner": None, "tau_factor": None, "budget": None}),
        ("layerwise", {"L": None, "k1": 1, "k2": 1, "eta": None, "eta2": None, "kappa": None, "c_bar": 0.1}),
    ])
    def test_a_null_value_is_the_key_left_out(self, tmp_path, command, block):
        outputs = []
        for name, blk in (("null", block), ("left_out", {k: v for k, v in block.items() if v is not None})):
            cfg = write_config(tmp_path, f"{name}.json", {"problem": Y1_SPEC, command: blk, "seed": 2})
            assert run_cli([command, "--config", cfg, "--out", str(tmp_path / name)]) == 0
            outputs.append({f.name: f.read_bytes() for f in sorted((tmp_path / name).iterdir())})
        assert outputs[0] == outputs[1] and outputs[0]

    def test_adversary_size_found_before_detection(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("juntaleap.detect.detect", lambda *args, **kwargs: pytest.fail("detection ran"))
        spec = {"hypercube": {"P": 5, "fourier": {"1,2,3,4,5": 1.0}}}
        cfg = write_config(tmp_path, "c.json", {"problem": spec, "game": {"d": 8, "oracle": "adversarial"}})
        out = tmp_path / "out"
        assert run_cli(["game", "--config", cfg, "--out", str(out)]) == 2
        assert "P <= 4" in capsys.readouterr().err
        assert not out.exists()

    def test_grouped_without_a_singleton_exits_2_before_any_query(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("juntaleap.oracle.play_game", lambda *args, **kwargs: pytest.fail("game played"))
        cfg = write_config(tmp_path, "c.json", {"problem": Y2_SPEC, "game": {"d": 10, "learner": "grouped"}})
        out = tmp_path / "out"
        assert run_cli(["game", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "grouped learner needs a leap-1 singleton" in err
        assert not out.exists()

    def test_noise_mode_flag_against_the_adversary_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", {"problem": Y2_SPEC, "game": {"d": 8, "oracle": "adversarial"},
                                                "seed": 3})
        out = tmp_path / "out"
        assert run_cli(["game", "--config", cfg, "--out", str(out), "--noise-mode", "uniform"]) == 2
        assert "honest oracle only" in capsys.readouterr().err
        assert not out.exists()

    def test_budget_flag_below_0_exits_2_without_outputs(self, tmp_path, capsys):
        spec = {"hypercube": {"P": 2, "fourier": {"1": 1.0, "1,2": 1.0}}}
        cfg = write_config(tmp_path, "c.json", {"problem": spec, "game": self.BASE["game"], "seed": 0})
        out = tmp_path / "out"
        assert run_cli(["game", "--config", cfg, "--out", str(out), "--budget", "-1"]) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("seed", ["abc", 1.5, 1e30, -1, True])
    @pytest.mark.parametrize("command", ["exponents", "detect", "game", "sgd", "df", "layerwise", "hard-instance"])
    def test_seed_not_an_integer_at_least_0_exits_2(self, tmp_path, capsys, command, seed):
        if command == "hard-instance":
            config = {"hard_instance": HARD_INSTANCE, "seed": seed}
        else:
            config = {"problem": Y1_SPEC, command: self.BASE[command], "seed": seed}
        cfg = write_config(tmp_path, "c.json", config)
        out = tmp_path / "out"
        assert run_cli([command, "--config", cfg, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert "config error: seed must be an integer >= 0" in captured.err and captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("command", ["game", "sgd"])
    def test_seed_flag_below_0_exits_2(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path, "c.json", {"problem": Y1_SPEC, command: self.BASE[command], "seed": 0})
        out = tmp_path / "out"
        assert run_cli([command, "--config", cfg, "--out", str(out), "--seed", "-3"]) == 2
        captured = capsys.readouterr()
        assert "config error: seed must be an integer >= 0" in captured.err and captured.out == ""
        assert not out.exists()

    def test_null_seed_is_seed_0(self, tmp_path, capsys):
        texts = []
        for seed in (None, 0):
            cfg = write_config(tmp_path, "c.json", {"problem": Y1_SPEC, "game": {"d": 8}, "seed": seed})
            out = tmp_path / f"out{seed}"
            assert run_cli(["game", "--config", cfg, "--out", str(out)]) == 0
            texts.append([(out / name).read_bytes() for name in ("game_verdict.json", "game_transcript.jsonl")])
        assert texts[0] == texts[1]

    @pytest.mark.parametrize("s_star", [[1.7, 2, 3, 4], [True, 2, 3, 4], ["2", 3, 4, 5], [1.0, 2, 3, 4]])
    def test_s_star_entry_not_an_integer_exits_2_before_detection(self, tmp_path, capsys, monkeypatch, s_star):
        monkeypatch.setattr("juntaleap.detect.detect", lambda *args, **kwargs: pytest.fail("detection ran"))
        cfg = write_config(tmp_path, "c.json", {"problem": Y1_SPEC, "game": {"d": 10, "s_star": s_star}})
        out = tmp_path / "out"
        assert run_cli(["game", "--config", cfg, "--out", str(out)]) == 2
        assert "s_star entries must be integers" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command,target", [("df", "juntaleap.dynamics.init_df_state"),
                                                ("layerwise", "juntaleap.dynamics.layerwise_train")])
    def test_kappa_of_the_wrong_length_exits_2_before_training(self, tmp_path, capsys, monkeypatch, command,
                                                               target):
        monkeypatch.setattr(target, lambda *args, **kwargs: pytest.fail("training started"))
        block = dict(self.BASE[command], kappa=[1.0, 1.0])
        cfg = write_config(tmp_path, "c.json", {"problem": Y1_SPEC, command: block})
        out = tmp_path / "out"
        assert run_cli([command, "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "kappa has length 2, expected 4" in err
        assert not out.exists()


class TestDuplicateReportNames:
    """Two requested reports under one name once kept only the second: both
    custom polynomials are named custom_polynomial[diff]."""

    CUBIC_AND_LINEAR = [{"name": "custom_polynomial", "coeffs": [0, 1]},
                        {"name": "custom_polynomial", "coeffs": [0, 0, 0, 1]}]

    @pytest.mark.parametrize("command", ["exponents", "detect"])
    def test_two_models_exit_2_before_detection(self, tmp_path, capsys, monkeypatch, command):
        monkeypatch.setattr("juntaleap.detect.detect", lambda *args, **kwargs: pytest.fail("detection ran"))
        models = [{"DLQ": loss} for loss in self.CUBIC_AND_LINEAR]
        cfg = write_config(tmp_path, "c.json", {"problem": Y2_SPEC, command: {"models": models}})
        out = tmp_path / "out"
        assert run_cli([command, "--config", cfg, "--out", str(out)]) == 2
        assert "two models give the report name 'DLQ[custom_polynomial[diff]]'" in capsys.readouterr().err
        assert not out.exists()

    def test_two_losses_exit_2_before_detection(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("juntaleap.detect.detect", lambda *args, **kwargs: pytest.fail("detection ran"))
        cfg = write_config(tmp_path, "h.json", {"hard_instance": dict(HARD_INSTANCE, losses=self.CUBIC_AND_LINEAR)})
        out = tmp_path / "out"
        assert run_cli(["hard-instance", "--config", cfg, "--out", str(out)]) == 2
        assert "two losses give the report name 'custom_polynomial[diff]'" in capsys.readouterr().err
        assert not out.exists()


class TestHardInstance:
    def test_singleton_asymmetry(self, tmp_path):
        cfg = write_config(
            tmp_path, "h.json",
            {"hard_instance": HARD_INSTANCE},
        )
        assert run_cli(["hard-instance", "--config", cfg, "--out", str(tmp_path)]) == 0
        rep = json.loads((tmp_path / "hard_instance.json").read_text())
        assert rep["sq_detects_singleton"] is True
        assert rep["dlq_detects_singleton"]["squared"] is False
        assert rep["dlq_detects_singleton"]["abs"] is True

    def test_dict_loss_spec_is_keyed_by_its_name(self, tmp_path):
        losses = ["abs", {"name": "custom_polynomial", "coeffs": [0, 0, 1]}]
        cfg = write_config(tmp_path, "h.json", {"hard_instance": dict(HARD_INSTANCE, losses=losses)})
        assert run_cli(["hard-instance", "--config", cfg, "--out", str(tmp_path)]) == 0
        rep = json.loads((tmp_path / "hard_instance.json").read_text())
        # (u - y)^2 is the squared loss, which misses the singleton
        assert rep["dlq_detects_singleton"] == {"abs": True, "custom_polynomial[diff]": False}

    def test_dict_loss_spec_with_an_unknown_parameter_exits_2(self, tmp_path, capsys):
        losses = ["abs", {"name": "custom_polynomial", "coeffs": [0, 0, 1], "degree": 2}]
        cfg = write_config(tmp_path, "h.json", {"hard_instance": dict(HARD_INSTANCE, losses=losses)})
        out = tmp_path / "out"
        assert run_cli(["hard-instance", "--config", cfg, "--out", str(out)]) == 2
        assert "bad loss spec" in capsys.readouterr().err
        assert not out.exists()


class TestDeterminism:
    def test_byte_identical_outputs(self, tmp_path):
        cfg = write_config(
            tmp_path, "det.json",
            {"problem": Y2_SPEC,
             "sgd": {"d": 12, "M": 16, "eta": 0.01, "steps": 40, "trials": 1,
                     "eval_every": 20, "test_n": 300, "c_bar": 0.1}, "seed": 9},
        )
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run_cli(["sgd", "--config", cfg, "--out", str(out_a)]) == 0
        assert run_cli(["sgd", "--config", cfg, "--out", str(out_b)]) == 0
        assert (out_a / "sgd_summary.json").read_bytes() == (out_b / "sgd_summary.json").read_bytes()
        assert (out_a / "sgd_trial0.csv").read_bytes() == (out_b / "sgd_trial0.csv").read_bytes()

    @pytest.mark.parametrize("command,config", [
        ("exponents", {"problem": Y2_SPEC, "exponents": {"models": ["CSQ", "SQ", {"DLQ": "abs"}]}}),
        ("detect", {"problem": Y1_SPEC, "detect": {"models": ["CSQ", {"DLQ": "abs"}], "dump_moments": True}}),
        ("game", {"problem": Y1_SPEC, "game": {"d": 12, "noise_mode": "uniform"}, "seed": 4}),
        ("df", {"problem": Y2_SPEC, "df": {"eta": 0.002, "steps": 20, "c_bar": 0.3, "a_order": 6, "b_order": 3,
                                           "s0": 0.5, "gh_order": 8}, "seed": 2}),
        ("layerwise", {"problem": {"hypercube": {"P": 2, "fourier": {"1": 1.0, "1,2": 1.0}}},
                       "layerwise": {"L": 8, "k1": 2, "k2": 20, "a_order": 16}, "seed": 3}),
        ("hard-instance", {"hard_instance": HARD_INSTANCE}),
    ])
    def test_every_command_repeats_its_files_and_stdout(self, tmp_path, capsys, command, config):
        cfg = write_config(tmp_path, "det.json", config)

        def run(out):
            assert run_cli([command, "--config", cfg, "--out", str(out)]) == 0
            stdout = capsys.readouterr().out.replace(str(out), "OUT")
            return stdout, {f.name: f.read_bytes() for f in sorted(out.iterdir())}

        first = run(tmp_path / "a")
        assert first[1] and first == run(tmp_path / "b")

    def test_seed_flag_overrides(self, tmp_path):
        cfg = write_config(
            tmp_path, "det2.json",
            {"problem": Y1_SPEC, "game": {"d": 12, "model": "CSQ"}, "seed": 1},
        )
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run_cli(["game", "--config", cfg, "--out", str(out_a), "--seed", "2"])
        run_cli(["game", "--config", cfg, "--out", str(out_b), "--seed", "3"])
        va = json.loads((out_a / "game_verdict.json").read_text())
        vb = json.loads((out_b / "game_verdict.json").read_text())
        assert va["s_star"] != vb["s_star"]


class TestPinnedGames:
    """sha256 of a game's transcript and verdict, taken from the CLI before
    transcript chunks were assembled as one array of columns."""

    @pytest.mark.parametrize("config,transcript,verdict", [
        ({"problem": Y1_SPEC, "game": {"d": 10, "learner": "nonadaptive", "noise_mode": "uniform"}, "seed": 3},
         "13beced490391769b7adb6adbe94d500f585b4306fe9a55d24ad6e145337996f",
         "0b701a6742f2db1553342518fe1d9d43f107ab15e35a0e804615fbbf05f59df9"),
        ({"problem": Y2_SPEC, "game": {"d": 12, "learner": "adaptive", "noise_mode": "adversarial_sign"}, "seed": 7},
         "ad82918f2bfc140f3210960aa15db320df07094a0420525413cf6ccee46dc4b7",
         "cb939d07e4c846ce8f4c28119edabccbb34df8cfc998cfc5c25f41bdc7c21e08"),
        ({"problem": Y2_SPEC, "game": {"d": 8, "oracle": "adversarial"}, "seed": 1},
         "3f8ca663f09d47eeb906cbc0384cd22e9d04def1cab33655532e7fdfacba7dc8",
         "7094c2bf100a3cf843f138641cd1882acba875b9bf53da533a1b668f9eeb5c40"),
    ], ids=["y1-nonadaptive-uniform-d10", "y2-adaptive-adversarial_sign-d12", "y2-adversary-d8"])
    def test_digests(self, tmp_path, config, transcript, verdict):
        cfg = write_config(tmp_path, "g.json", config)
        assert run_cli(["game", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        digest = {f: hashlib.sha256((tmp_path / "out" / f).read_bytes()).hexdigest()
                  for f in ("game_transcript.jsonl", "game_verdict.json")}
        assert digest == {"game_transcript.jsonl": transcript, "game_verdict.json": verdict}


class TestParserReuse:
    """main builds its parser once; what one call parses must not reach the next."""

    def fresh(self, argv):
        """The stdout of `argv` run in a new interpreter."""
        proc = subprocess.run([sys.executable, "-m", "juntaleap.cli", *argv], capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    def test_flags_do_not_leak_into_the_next_call(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "g.json", {"problem": Y2_SPEC, "game": {"d": 12}, "seed": 1})
        flagged = ["--noise-mode", "uniform", "--tau", "0.01", "--budget", "50", "--seed", "4"]
        runs = {}
        for name, flags in (("flagged", flagged), ("plain", [])):
            for how in ("in-process", "fresh"):
                out = tmp_path / f"{name}-{how}"
                argv = ["game", "--config", cfg, "--out", str(out), *flags]
                if how == "fresh":
                    stdout = self.fresh(argv)
                else:
                    assert run_cli(argv) == 0
                    stdout = capsys.readouterr().out
                runs[name, how] = stdout, {f.name: f.read_bytes() for f in sorted(out.iterdir())}
        assert runs["flagged", "in-process"] == runs["flagged", "fresh"]
        assert runs["plain", "in-process"] == runs["plain", "fresh"]
        assert runs["flagged", "fresh"] != runs["plain", "fresh"]
        assert json.loads(runs["flagged", "fresh"][0])["verdict"] == "FAIL(budget)"

    @pytest.mark.parametrize("bad", [["game", "--config", "y1.json", "--tau", "x"], ["bogus"], ["game"]])
    def test_bad_argv_after_a_good_call_exits_2(self, tmp_path, capsys, bad):
        assert run_cli(["exponents", "--config", "y1.json", "--out", str(tmp_path)]) == 0
        with pytest.raises(SystemExit) as exc:
            run_cli(bad)
        assert exc.value.code == 2
        assert "usage: juntaleap" in capsys.readouterr().err

    def test_import_builds_no_parser(self):
        probe = ("import sys; from juntaleap import cli; "
                 "assert 'numpy' not in sys.modules and cli._parser.cache_info().currsize == 0")
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "juntaleap.cli", "exponents", "--config", "y1.json",
             "--out", str(tmp_path)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert '"leap": 1' in proc.stdout


# Runs the CLI in a fresh interpreter, then reads the thread count of the
# OpenBLAS that numpy loaded. Importing the CLI must not load numpy, or the
# BLAS would start before `main` sets its thread variables.
BLAS_THREADS_PROBE = """
import ctypes, sys
from juntaleap.cli import main
assert "numpy" not in sys.modules, "importing the CLI loaded numpy"
code = main(sys.argv[2:])
get = ctypes.CDLL(sys.argv[1]).scipy_openblas_get_num_threads64_
get.argtypes, get.restype = [], ctypes.c_int
print(code, get())
"""


class TestThreads:
    def test_threads_flag_sets_openblas_threads(self, tmp_path):
        import numpy

        libs = sorted((pathlib.Path(numpy.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas64_*.so"))
        if not libs:
            pytest.skip("numpy is not linked against scipy-openblas64")
        env = dict(os.environ, OPENBLAS_NUM_THREADS="2", OMP_NUM_THREADS="2")

        def threads(*flags):
            argv = ["exponents", "--config", "y1.json", "--out", str(tmp_path), *flags]
            proc = subprocess.run([sys.executable, "-c", BLAS_THREADS_PROBE, str(libs[0]), *argv],
                                  capture_output=True, text=True, env=env, timeout=120)
            assert proc.returncode == 0, proc.stderr
            code, n = proc.stdout.split()[-2:]
            assert code == "0"
            return int(n)

        # OpenBLAS caps the variable at the cores it may use
        assert threads() == min(2, len(os.sched_getaffinity(0)))
        assert threads("--threads", "1") == 1

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_is_a_config_error(self, tmp_path, monkeypatch, capsys, threads):
        # such a value capped nothing; it is rejected before the environment is touched
        variables = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        for var in variables:
            monkeypatch.setenv(var, "2")
        assert run_cli(["exponents", "--config", "y1.json", "--out", str(tmp_path / "out"), "--threads", threads]) == 2
        assert [os.environ[var] for var in variables] == ["2"] * 3
        assert not (tmp_path / "out").exists()
        out, err = capsys.readouterr()
        assert out == "" and f"--threads must be an integer >= 1, got {threads}" in err
