"""Command-line surface: exponent reports, detection, oracle games, dynamics runs.

Subcommands: exponents, detect, game, sgd, df, layerwise, hard-instance.
Every command reads one JSON config (--config is a path or the name of a
bundled example such as y1.json), writes JSON/CSV under --out, and is
byte-deterministic for a fixed config and seed.

Exit codes: 0 success, 1 runtime failure, 2 config error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import numbers
import os
import sys
from pathlib import Path


class ConfigError(Exception):
    pass


def _load_config(path_str: str) -> dict:
    path = Path(path_str)
    if not path.exists():
        try:
            from importlib.resources import files

            bundled = files("juntaleap").joinpath("configs", path_str)
            if bundled.is_file():
                return json.loads(bundled.read_text())
        except (ModuleNotFoundError, FileNotFoundError):
            pass
        raise ConfigError(f"config not found: {path_str}")
    try:
        return json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path_str}: {exc}") from exc


def _check_keys(block, allowed: set, where: str) -> None:
    if not isinstance(block, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = set(block) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")


def _require(block: dict, key: str, where: str):
    if block.get(key) is None:
        raise ConfigError(f"missing key {key!r} in {where}")
    return block[key]


def _given(block: dict, *keys) -> dict:
    """The keys the block sets, so that each one left out takes the library's default."""
    return {k: block[k] for k in keys if k in block}


def _finite(value) -> bool:
    # NaN fails the comparison, and so does an integer too large for a float
    return not isinstance(value, bool) and isinstance(value, numbers.Real) and abs(value) <= sys.float_info.max


# a config value's kind: an int n for an integer >= n, or one of these, named by what
# its values must be (LIBRARY: the library call that reads the value checks it)
NUMBER, NUMBERS, AUTO_OR_NUMBER, FLAG, LIBRARY = (
    "a finite number", "a list of finite numbers", '"auto" or a finite number', "true or false", "library-checked")
_KIND_TESTS = {
    NUMBER: _finite,
    NUMBERS: lambda v: isinstance(v, list) and all(map(_finite, v)),
    AUTO_OR_NUMBER: lambda v: v == "auto" or _finite(v),
    FLAG: lambda v: isinstance(v, bool),
    LIBRARY: lambda v: True,
}


def _check_kind(key: str, value, kind) -> None:
    if isinstance(kind, int):
        ok = not isinstance(value, bool) and isinstance(value, numbers.Integral) and value >= kind
        kind = f"an integer >= {kind}"
    else:
        ok = _KIND_TESTS[kind](value)
    if not ok:
        raise ConfigError(f"{key} must be {kind}, got {value!r}")


def _checked(what: str, build, *args, **kwargs):
    """build(*args, **kwargs) from config values; what it rejects is a config error."""
    try:
        return build(*args, **kwargs)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{what}: {exc}") from exc


def _problem_from_config(cfg: dict):
    from .junta import problem_from_dict

    spec = _require(cfg, "problem", "config")
    if isinstance(spec, str):
        spec = _load_config(spec)
        # a whole config, such as a bundled example, holds its spec in a
        # "problem" block; that block is taken as it is, one level only
        if isinstance(spec, dict) and "problem" in spec:
            spec = spec["problem"]
    return _checked("bad problem spec", problem_from_dict, spec)


def _loss_from_spec(spec):
    from .losses import get_loss

    try:
        if isinstance(spec, str):
            return get_loss(spec)
        return get_loss(spec["name"], **{k: v for k, v in spec.items() if k != "name"})
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad loss spec {spec!r}: {exc}") from exc


def _json_default(obj):
    import numpy as np

    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _json_text(data) -> str:
    return json.dumps(data, indent=2, sort_keys=True, default=_json_default)


def _write_text(text: str, out_dir: Path, name: str) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / name
    path.write_text(text + "\n")
    return path


def _dump_json(data, out_dir: Path, name: str) -> Path:
    return _write_text(_json_text(data), out_dir, name)


def _emit(data, out_dir: Path, name: str) -> Path:
    """Write a summary JSON under out_dir and print the same text."""
    text = _json_text(data)
    path = _write_text(text, out_dir, name)
    print(text)
    return path


def _write_csv(rows: list[dict], out_dir: Path, name: str) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / name
    with path.open("w", newline="") as fh:
        if rows:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
    return path


def _detect(problem, model, loss=None, u_grid=None, **kw):
    """detect.detect for a config's query model: "SQ", "CSQ", or "DLQ" with a
    loss spec; `kw` may pass a tol and a prebuilt basis and table."""
    from .detect import detect

    if model not in ("SQ", "CSQ", "DLQ"):
        raise ConfigError(f"unknown query model {model!r}")
    if model != "DLQ":
        return detect(problem, model, **kw)
    if loss is None:
        raise ConfigError("query model DLQ needs a loss")
    return detect(problem, model, _loss_from_spec(loss), u_grid=u_grid, **kw)


def _detect_reports(cfg, block):
    """Shared by exponents/detect: the problem, its moment table, and one
    report per entry of `models`, where DLQ is written {"DLQ": loss}, all
    read from that one table."""
    from .detect import check_detect_params
    from .fourier import gram_schmidt, moment_table

    params = _given(block, "tol", "u_grid")
    _checked("bad detection parameters", check_detect_params, **params)
    problem = _problem_from_config(cfg)
    basis = gram_schmidt(problem.marginal)
    table = moment_table(problem, basis)
    reports = []
    for model in block.get("models", ["CSQ", "SQ"]):
        loss = None
        if isinstance(model, dict) and "DLQ" in model:
            model, loss = "DLQ", model["DLQ"]
        reports.append(_detect(problem, model, loss, basis=basis, table=table, **params))
    return problem, reports, table


def _planted(problem, d, s_star, rng, seed):
    """The PlantedInstance at s_star, or at P distinct coordinates of [d] drawn
    from rng when s_star is None."""
    import numpy as np

    from .junta import PlantedInstance

    if s_star is None:
        # a d below P draws from [P] instead, so that PlantedInstance rejects the d
        s_star = rng.choice(np.arange(1, max(d, problem.p) + 1), size=problem.p, replace=False)
    return PlantedInstance(problem, d, tuple(s_star), seed=seed)


def cmd_exponents(cfg: dict, block: dict, out_dir: Path, seed) -> int:
    problem, reports, _ = _detect_reports(cfg, block)
    report = {"P": problem.p, "models": {rep.model: rep.summary() for rep in reports}}
    print(f"wrote {_emit(report, out_dir, 'exponents.json')}", file=sys.stderr)
    return 0


def cmd_detect(cfg: dict, block: dict, out_dir: Path, seed) -> int:
    problem, reports, table = _detect_reports(cfg, block)
    paths = []
    for rep in reports:
        name = rep.model.replace("[", "_").replace("]", "").replace("/", "_")
        paths.append(_dump_json(rep.to_dict(), out_dir, f"detect_{name}.json"))
    if block.get("dump_moments"):
        from .fourier import support_slice
        from .setsystem import coords_from_mask

        rows = []
        for mask in range(1, 1 << problem.p):
            coords = coords_from_mask(mask)
            g = support_slice(table, coords).reshape(problem.ny, -1)
            for a, label in enumerate(problem.labels):
                for j in range(g.shape[1]):
                    rows.append({"U": "|".join(map(str, coords)), "label": label,
                                 "basis_index": j, "moment": g[a, j]})
        paths.append(_write_csv(rows, out_dir, "moment_tensors.csv"))
    for p in paths:
        print(f"wrote {p}")
    return 0


def cmd_game(cfg: dict, block: dict, out_dir: Path, seed) -> int:
    import numpy as np

    from .detect import check_detect_params
    from .oracle import check_adversary_size, check_game_kinds, check_tau, play_game, singleton_witness

    for key, value in _given(block, "tau", "tau_factor").items():
        _checked(f"bad {key}", check_tau, value)
    _checked("bad detection parameters", check_detect_params, **_given(block, "tol"))
    d = block["d"]
    limits = {"budget": block.get("budget"), "max_tuple": block.get("max_tuple")}
    kinds = {"learner": block.get("learner", "adaptive"), "oracle_kind": block.get("oracle", "honest"),
             "noise_mode": block.get("noise_mode", "zero")}
    _checked("bad game", check_game_kinds, **kinds, max_tuple=limits["max_tuple"])
    problem = _problem_from_config(cfg)
    if kinds["oracle_kind"] == "adversarial":
        _checked("bad game", check_adversary_size, problem.p, d)
    rng = np.random.default_rng(seed)
    instance = _checked("bad planted instance", _planted, problem, d, block.get("s_star"), rng, seed)
    report = _detect(problem, block.get("model", "CSQ"), block.get("loss"), **_given(block, "tol"))
    if kinds["learner"] == "grouped":
        _checked("bad game", singleton_witness, report)
    # the seed draws s_star for every game, and the noise of an honest one
    seeded = {"seed": seed} if kinds["oracle_kind"] == "honest" else {}
    result = play_game(instance, report, **kinds, **limits, **_given(block, "tau", "tau_factor"), **seeded)
    out_dir.mkdir(parents=True, exist_ok=True)
    with (out_dir / "game_transcript.jsonl").open("w") as fh:
        result.transcript.to_jsonl(fh)
    verdict = {
        "verdict": result.verdict,
        "s_star": list(instance.s_star),
        "s_hat": sorted(result.s_hat),
        "queries": result.transcript.n_queries,
        "tau": result.detail.get("tau"),
        "detail": {k: v for k, v in result.detail.items() if k != "tau"},
    }
    _emit(verdict, out_dir, "game_verdict.json")
    return 0


def _train_common(block, seed):
    import numpy as np

    from .dynamics import make_activation

    loss = _loss_from_spec(block.get("loss", "squared"))
    act = _checked("bad activation", make_activation, block.get("activation", "tanh"))
    rng = np.random.default_rng(seed)
    c_bar = float(block["c_bar"]) if "c_bar" in block else float(rng.uniform(-0.4, 0.4))
    return loss, act, c_bar, rng


def _bayes_mse(problem) -> float:
    """The exact Bayes MSE E[Var(y | z)], 0 for noiseless targets."""
    labels = problem.labels_numeric()
    return float(problem.row_weights @ (problem.cond @ labels**2 - (problem.cond @ labels) ** 2))


def cmd_sgd(cfg: dict, block: dict, out_dir: Path, seed) -> int:
    from .dynamics import TrainConfig, init_ensemble, run_sgd
    from .losses import squared

    d, steps = block["d"], block["steps"]
    eta = block["eta"] if "eta" in block else block.get("eta_scale", 0.5) / d
    problem = _problem_from_config(cfg)
    m = block.get("M", 512)
    loss, act, c_bar, rng = _train_common(block, seed)
    tc = _checked("bad training parameters", TrainConfig, loss=loss, eta=eta,
                  **_given(block, "batch", "lam_w", "lam_a"))
    eval_losses = [("mse", squared()), ("train_risk", loss)]

    bayes_mse = _bayes_mse(problem)
    summary = {"trials": [], "eta": eta, "steps": steps, "c_bar": c_bar, "loss": loss.name,
               "activation": act.name, "d": d, "M": m, "batch": tc.batch, "bayes_mse": bayes_mse}
    for trial in range(block.get("trials", 1)):
        instance = _checked("bad planted instance", _planted, problem, d, None, rng, seed + trial)
        ens = _checked("bad initialization", init_ensemble, d, m, act, seed=seed * 1000 + trial,
                       c_bar=c_bar, **_given(block, "mu_b", "mu_w"))
        run = run_sgd(instance, ens, tc, steps, data_seed=seed * 7919 + trial,
                      eval_every=block.get("eval_every", max(1, steps // 20)),
                      eval_losses=eval_losses, **_given(block, "test_n"))
        _write_csv(run.history, out_dir, f"sgd_trial{trial}.csv")
        first, last = run.history[0], run.history[-1]
        init_excess = first["mse"] - bayes_mse
        summary["trials"].append({
            "trial": trial,
            "s_star": list(instance.s_star),
            "initial_mse": first["mse"],
            "final_mse": last["mse"],
            "stuck": bool(first["mse"] - last["mse"] < 0.05 * init_excess),
            "learned": bool(last["mse"] - bayes_mse < 0.5 * init_excess),
        })
    summary["stuck"] = bool(all(t["stuck"] for t in summary["trials"]))
    _emit(summary, out_dir, "sgd_summary.json")
    return 0


def cmd_df(cfg: dict, block: dict, out_dir: Path, seed) -> int:
    from .detect import detect
    from .dynamics import TrainConfig, init_df_state, run_df, support_alignment
    from .losses import squared

    steps = block["steps"]
    problem = _problem_from_config(cfg)
    loss, act, c_bar, rng = _train_common(block, seed)
    tc = _checked("bad training parameters", TrainConfig, loss=loss, eta=block["eta"], **_given(block, "kappa"))
    _checked("bad training parameters", tc.kappa_for, problem.p)  # one kappa per support coordinate
    state = _checked("bad initialization", init_df_state, problem.p, act, c_bar=c_bar,
                     **_given(block, "a_order", "b_order", "mu_b", "s0"))
    run = run_df(problem, tc, steps, state, risk_every=block.get("risk_every", max(1, steps // 50)),
                 risk_losses=[("mse", squared()), ("train_risk", loss)], **_given(block, "gh_order"))
    _write_csv(run.history, out_dir, "df_curve.csv")
    dlq = detect(problem, "DLQ", loss)
    align = support_alignment(run.u_max, dlq, **_given(block, "threshold"))
    first = run.history[0]["mse"] if run.history else None
    last = run.history[-1]["mse"] if run.history else None
    bayes_mse = _bayes_mse(problem)
    summary = {
        "steps": steps, "eta": tc.eta, "c_bar": c_bar, "loss": loss.name,
        "activation": act.name,
        "first_activation": ["frozen" if s is None else s for s in align.first_activation],
        "frozen_coords": list(align.frozen_coords()),
        "max_abs_u": list(align.max_abs_u),
        "initial_mse": first,
        "final_mse": last,
        "bayes_mse": bayes_mse,
        "stuck": bool(last is not None and first - last < 0.05 * (first - bayes_mse)),
    }
    _emit(summary, out_dir, "df_summary.json")
    return 0


def cmd_layerwise(cfg: dict, block: dict, out_dir: Path, seed) -> int:
    import numpy as np

    # imported at call time, so that a caller may replace dynamics.layerwise_train
    from .dynamics import TrainConfig, layerwise_train

    problem = _problem_from_config(cfg)
    loss = _loss_from_spec(block.get("loss", "squared"))
    rng = np.random.default_rng(seed)
    kappa = block["kappa"] if "kappa" in block else rng.uniform(0.5, 1.5, problem.p).tolist()
    c_bar = block["c_bar"] if "c_bar" in block else float(rng.uniform(-0.5, 0.5))
    tc = _checked("bad training parameters", TrainConfig, loss=loss, eta=block.get("eta", 0.002), kappa=kappa)
    _checked("bad training parameters", tc.kappa_for, problem.p)  # one kappa per support coordinate
    result = layerwise_train(problem, tc, L=block.get("L", 16), c_bar=c_bar,
                             **_given(block, "k1", "k2", "a_order", "eta2"))
    _write_csv(result.history, out_dir, "layerwise_curve.csv")
    report = result.kernel_report
    summary = {
        "lambda_min": report.lambda_min,
        "lambda_min_margin": report.margin,
        "lambda_min_ok": bool(report.lambda_min - report.margin > block.get("lambda_min_threshold", 1e-6)),
        "final_excess": result.history[-1]["excess"],
        "eta2": result.eta2,
        "kappa": list(kappa),
        "c_bar": c_bar,
        "trust_violation": result.trust_violation,
    }
    _emit(summary, out_dir, "layerwise_summary.json")
    return 0


def cmd_hard_instance(cfg: dict, block: dict, out_dir: Path, seed) -> int:
    from .detect import detect
    from .junta import FiniteMarginal, hard_instance

    my = block["marginal_y"]
    try:
        problem = hard_instance(my["values"], my["probs"], block["T"], block["A"], block["lambda"],
                                FiniteMarginal.from_dict(block["marginal_x"]))
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"hard instance construction failed: {exc}") from exc
    report = {"problem": problem.to_dict()}
    report["sq_detects_singleton"] = bool(problem.p and detect(problem, "SQ").system.sets)
    report["dlq_detects_singleton"] = {lname: bool(detect(problem, "DLQ", _loss_from_spec(lname)).system.sets)
                                       for lname in block.get("losses", ["squared"])}
    _dump_json(report, out_dir, "hard_instance.json")
    print(_json_text({k: v for k, v in report.items() if k != "problem"}))
    return 0


# subcommand: (function, whether its block is required, the block's required keys, the
# kind of each key the block may set); the block is named after the subcommand, "_" for "-"
_DETECTION = {"models": LIBRARY, "tol": NUMBER, "u_grid": NUMBERS}
_COMMANDS = {
    "exponents": (cmd_exponents, False, (), _DETECTION),
    "detect": (cmd_detect, False, (), {**_DETECTION, "dump_moments": FLAG}),
    "game": (cmd_game, True, ("d",), {"d": 1, "s_star": LIBRARY, "model": LIBRARY, "loss": LIBRARY,
                                      "learner": LIBRARY, "oracle": LIBRARY, "tau": NUMBER, "tau_factor": NUMBER,
                                      "noise_mode": LIBRARY, "budget": 0, "max_tuple": 1, "tol": NUMBER}),
    "sgd": (cmd_sgd, True, ("d", "steps"), {"d": 1, "steps": 0, "M": 1, "eta": NUMBER, "eta_scale": NUMBER,
                                            "batch": 1, "loss": LIBRARY, "activation": LIBRARY, "c_bar": NUMBER,
                                            "mu_b": LIBRARY, "mu_w": LIBRARY, "trials": 1, "eval_every": 1,
                                            "test_n": 2, "lam_w": NUMBER, "lam_a": NUMBER}),
    "df": (cmd_df, True, ("eta", "steps"), {"eta": NUMBER, "steps": 0, "loss": LIBRARY, "activation": LIBRARY,
                                            "c_bar": NUMBER, "mu_b": LIBRARY, "a_order": 1, "b_order": 1,
                                            "s0": NUMBER, "gh_order": 1, "threshold": NUMBER, "risk_every": 1,
                                            "kappa": NUMBERS}),
    "layerwise": (cmd_layerwise, True, (), {"L": 1, "k1": 0, "k2": 0, "eta": NUMBER, "eta2": AUTO_OR_NUMBER,
                                            "loss": LIBRARY, "c_bar": NUMBER, "kappa": NUMBERS, "a_order": 1,
                                            "lambda_min_threshold": NUMBER}),
    "hard-instance": (cmd_hard_instance, True, ("marginal_y", "T", "A", "lambda", "marginal_x"),
                      {"marginal_y": LIBRARY, "T": NUMBERS, "A": NUMBERS, "lambda": NUMBER,
                       "marginal_x": LIBRARY, "losses": LIBRARY}),
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every `main` call."""
    parser = argparse.ArgumentParser(prog="juntaleap", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config path or bundled name")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--threads", type=int, default=None, help="cap BLAS threads")
        if name == "game":
            p.add_argument("--budget", type=int, default=None, help="override the query budget")
            p.add_argument("--tau", type=float, default=None, help="override the tolerance")
            p.add_argument("--noise-mode", default=None,
                           choices=["zero", "uniform", "adversarial_sign"],
                           help="override the honest-oracle noise mode")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

    if args.threads is not None:
        # read by the BLAS when numpy first loads; a caller that imported
        # numpy before `main` keeps the thread count it started with
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ[var] = str(args.threads)

    command, block_required, required, kinds = _COMMANDS[args.command]
    name = args.command.replace("-", "_")
    overrides = {k: getattr(args, k, None) for k in ("budget", "tau", "noise_mode")}  # game's flags
    try:
        cfg = _load_config(args.config)
        top = {name, "seed"} if name == "hard_instance" else {"problem", name, "seed"}
        _check_keys(cfg, top, "config")
        block = _require(cfg, name, "config") if block_required else cfg.get(name, {})
        _check_keys(block, set(kinds), name)
        # a null value is a key left out, and a flag given overrides the block
        block = {k: v for k, v in block.items() if v is not None}
        block.update((k, v) for k, v in overrides.items() if v is not None)
        for key in required:
            _require(block, key, name)
        seed = next((s for s in (args.seed, cfg.get("seed")) if s is not None), 0)
        _check_kind("seed", seed, 0)
        for key, value in block.items():
            _check_kind(key, value, kinds[key])
        return command(cfg, block, Path(args.out), seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
