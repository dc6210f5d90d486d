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


class TestDynamicsCommands:
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


class TestHardInstance:
    def test_singleton_asymmetry(self, tmp_path):
        cfg = write_config(
            tmp_path, "h.json",
            {"hard_instance": {
                "marginal_y": {"values": [-1.0, 0.0, 1.0],
                               "probs": [1 / 3, 1 / 3, 1 / 3]},
                "T": [0.5, -1.0, 0.5], "A": [1.0], "lambda": 2.0,
                "marginal_x": {"values": [1.0, -1.0], "probs": [0.5, 0.5]},
                "losses": ["squared", "abs"]}},
        )
        assert run_cli(["hard-instance", "--config", cfg, "--out", str(tmp_path)]) == 0
        rep = json.loads((tmp_path / "hard_instance.json").read_text())
        assert rep["sq_detects_singleton"] is True
        assert rep["dlq_detects_singleton"]["squared"] is False
        assert rep["dlq_detects_singleton"]["abs"] is True


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
