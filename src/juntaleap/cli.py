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
import json
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


def _check_keys(block: dict, allowed: set, where: str) -> None:
    unknown = set(block) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")


def _require(block: dict, key: str, where: str):
    if key not in block:
        raise ConfigError(f"missing key {key!r} in {where}")
    return block[key]


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


def _dump_json(data, out_dir: Path, name: str) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / name
    path.write_text(json.dumps(data, indent=2, sort_keys=True, default=_json_default) + "\n")
    return path


def _write_csv(rows: list[dict], out_dir: Path, name: str) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / name
    if rows:
        fields = list(rows[0].keys())
        with path.open("w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=fields)
            writer.writeheader()
            for row in rows:
                writer.writerow(row)
    else:
        path.write_text("")
    return path


def _detect(problem, model, loss=None, tol=None, u_grid=None, **moments):
    """detect.detect for a config's query model: "SQ", "CSQ", or "DLQ" with a
    loss spec; `moments` may pass a prebuilt basis and table."""
    from .detect import DETECT_TOL, detect

    if model not in ("SQ", "CSQ", "DLQ"):
        raise ConfigError(f"unknown query model {model!r}")
    tol = DETECT_TOL if tol is None else tol
    if model != "DLQ":
        return detect(problem, model, tol=tol, **moments)
    if loss is None:
        raise ConfigError("query model DLQ needs a loss")
    return detect(problem, model, _loss_from_spec(loss), tol=tol, u_grid=u_grid, **moments)


def _detect_reports(problem, block, basis, table):
    """Shared by exponents/detect: one report per entry of `models`, where
    DLQ is written {"DLQ": loss}, all read from one moment table."""
    reports = []
    for model in block.get("models", ["CSQ", "SQ"]):
        loss = None
        if isinstance(model, dict) and "DLQ" in model:
            model, loss = "DLQ", model["DLQ"]
        reports.append(_detect(problem, model, loss, block.get("tol"), block.get("u_grid"),
                               basis=basis, table=table))
    return reports


def _moments(problem):
    """The problem's basis and moment table, built once per command."""
    from .fourier import gram_schmidt, moment_table

    basis = gram_schmidt(problem.marginal)
    return basis, moment_table(problem, basis)


def _planted(problem, d, s_star, rng, seed):
    """The PlantedInstance at s_star, or at P distinct coordinates of [d] drawn
    from rng when s_star is None."""
    import numpy as np

    from .junta import PlantedInstance

    if s_star is None:
        # a d below P draws from [P] instead, so that PlantedInstance rejects the d
        s_star = rng.choice(np.arange(1, max(d, problem.p) + 1), size=problem.p, replace=False)
    return PlantedInstance(problem, d, tuple(int(c) for c in s_star), seed=seed)


def cmd_exponents(cfg: dict, out_dir: Path, seed) -> int:
    _check_keys(cfg, {"problem", "exponents", "seed"}, "config")
    block = cfg.get("exponents", {})
    _check_keys(block, {"models", "tol", "u_grid"}, "exponents")
    problem = _problem_from_config(cfg)
    report = {"P": problem.p, "models": {}}
    for rep in _detect_reports(problem, block, *_moments(problem)):
        report["models"][rep.model] = rep.summary()
    path = _dump_json(report, out_dir, "exponents.json")
    print(json.dumps(report, indent=2, sort_keys=True, default=_json_default))
    print(f"wrote {path}", file=sys.stderr)
    return 0


def cmd_detect(cfg: dict, out_dir: Path, seed) -> int:
    _check_keys(cfg, {"problem", "detect", "seed"}, "config")
    block = cfg.get("detect", {})
    _check_keys(block, {"models", "tol", "u_grid", "dump_moments"}, "detect")
    problem = _problem_from_config(cfg)
    basis, table = _moments(problem)
    paths = []
    for rep in _detect_reports(problem, block, basis, table):
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


def cmd_game(cfg: dict, out_dir: Path, seed) -> int:
    import numpy as np

    from .oracle import check_game_kinds, check_tau, play_game

    _check_keys(cfg, {"problem", "game", "seed"}, "config")
    block = _require(cfg, "game", "config")
    _check_keys(
        block,
        {"d", "s_star", "model", "loss", "learner", "oracle", "tau", "tau_factor",
         "noise_mode", "budget", "max_tuple", "tol"},
        "game",
    )
    for key in ("tau", "tau_factor"):
        if block.get(key) is not None:
            _checked(f"bad {key}", check_tau, block[key])
    kinds = {"learner": block.get("learner", "adaptive"), "oracle_kind": block.get("oracle", "honest"),
             "noise_mode": block.get("noise_mode", "zero")}
    _checked("bad game", check_game_kinds, **kinds)
    problem = _problem_from_config(cfg)
    d = _require(block, "d", "game")
    rng = np.random.default_rng(seed)
    instance = _checked("bad planted instance", _planted, problem, d, block.get("s_star"), rng, int(seed))
    report = _detect(problem, block.get("model", "CSQ"), block.get("loss"), block.get("tol"))
    result = play_game(
        instance,
        report,
        **kinds,
        tau=block.get("tau"),
        tau_factor=block.get("tau_factor", 0.25),
        budget=block.get("budget"),
        seed=int(seed),
        max_tuple=block.get("max_tuple"),
    )
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
    _dump_json(verdict, out_dir, "game_verdict.json")
    print(json.dumps(verdict, indent=2, sort_keys=True, default=_json_default))
    return 0


def _train_common(block, problem, seed):
    import numpy as np

    from .dynamics import make_activation

    loss = _loss_from_spec(block.get("loss", "squared"))
    act = _checked("bad activation", make_activation, block.get("activation", "tanh"))
    rng = np.random.default_rng(seed)
    c_bar = block.get("c_bar")
    if c_bar is None:
        c_bar = float(rng.uniform(-0.4, 0.4))
    return loss, act, float(c_bar), rng


def _bayes_mse(problem) -> float:
    """The exact Bayes MSE E[Var(y | z)], 0 for noiseless targets."""
    labels = problem.labels_numeric()
    return float(problem.row_weights @ (problem.cond @ labels**2 - (problem.cond @ labels) ** 2))


def cmd_sgd(cfg: dict, out_dir: Path, seed) -> int:
    from .dynamics import TrainConfig, init_ensemble, run_sgd
    from .losses import squared

    _check_keys(cfg, {"problem", "sgd", "seed"}, "config")
    block = _require(cfg, "sgd", "config")
    _check_keys(
        block,
        {"d", "M", "eta", "eta_scale", "batch", "steps", "loss", "activation", "c_bar",
         "mu_b", "mu_w", "trials", "eval_every", "test_n", "lam_w", "lam_a"},
        "sgd",
    )
    problem = _problem_from_config(cfg)
    d = _require(block, "d", "sgd")
    m = block.get("M", 512)
    eta = block["eta"] if "eta" in block else block.get("eta_scale", 0.5) / d
    steps = _require(block, "steps", "sgd")
    trials = block.get("trials", 1)
    loss, act, c_bar, rng = _train_common(block, problem, seed)
    eval_losses = [("mse", squared()), ("train_risk", loss)]

    bayes_mse = _bayes_mse(problem)
    summary = {"trials": [], "eta": eta, "steps": steps, "c_bar": c_bar, "loss": loss.name,
               "activation": act.name, "d": d, "M": m, "batch": block.get("batch", 1),
               "bayes_mse": bayes_mse}
    for trial in range(trials):
        instance = _checked("bad planted instance", _planted, problem, d, None, rng, int(seed) + trial)
        ens = _checked("bad initialization", init_ensemble, d, m, act, seed=int(seed) * 1000 + trial,
                       c_bar=c_bar, mu_b=block.get("mu_b", "uniform"), mu_w=block.get("mu_w", "zero"))
        tc = _checked("bad training parameters", TrainConfig, loss=loss, eta=eta, batch=block.get("batch", 1),
                      lam_w=block.get("lam_w", 0.0), lam_a=block.get("lam_a", 0.0))
        run = run_sgd(
            instance, ens, tc, steps,
            data_seed=int(seed) * 7919 + trial,
            eval_every=block.get("eval_every", max(1, steps // 20)),
            test_n=block.get("test_n", 10_000),
            eval_losses=eval_losses,
        )
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
    _dump_json(summary, out_dir, "sgd_summary.json")
    print(json.dumps(summary, indent=2, sort_keys=True, default=_json_default))
    return 0


def cmd_df(cfg: dict, out_dir: Path, seed) -> int:
    from .detect import detect
    from .dynamics import TrainConfig, init_df_state, run_df, support_alignment
    from .losses import squared

    _check_keys(cfg, {"problem", "df", "seed"}, "config")
    block = _require(cfg, "df", "config")
    _check_keys(
        block,
        {"eta", "steps", "loss", "activation", "c_bar", "mu_b", "a_order", "b_order",
         "s0", "gh_order", "threshold", "risk_every", "kappa"},
        "df",
    )
    problem = _problem_from_config(cfg)
    steps = _require(block, "steps", "df")
    loss, act, c_bar, rng = _train_common(block, problem, seed)
    state = _checked(
        "bad initialization", init_df_state, problem.p, act, c_bar=c_bar,
        a_order=block.get("a_order", 32), b_order=block.get("b_order", 16),
        mu_b=block.get("mu_b", "uniform"), s0=block.get("s0", 0.0),
    )
    tc = _checked("bad training parameters", TrainConfig, loss=loss, eta=_require(block, "eta", "df"),
                  kappa=block.get("kappa"))
    run = run_df(
        problem, tc, steps, state,
        gh_order=block.get("gh_order", 20),
        risk_every=block.get("risk_every", max(1, steps // 50)),
        risk_losses=[("mse", squared()), ("train_risk", loss)],
    )
    _write_csv(run.history, out_dir, "df_curve.csv")
    dlq = detect(problem, "DLQ", loss)
    align = support_alignment(run.u_max, dlq, threshold=block.get("threshold", 0.01))
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
    _dump_json(summary, out_dir, "df_summary.json")
    print(json.dumps(summary, indent=2, sort_keys=True, default=_json_default))
    return 0


def cmd_layerwise(cfg: dict, out_dir: Path, seed) -> int:
    import numpy as np

    from .dynamics import TrainConfig, layerwise_train, poly_activation

    _check_keys(cfg, {"problem", "layerwise", "seed"}, "config")
    block = _require(cfg, "layerwise", "config")
    _check_keys(
        block,
        {"L", "k1", "k2", "eta", "eta2", "loss", "c_bar", "kappa", "a_order",
         "lambda_min_threshold"},
        "layerwise",
    )
    problem = _problem_from_config(cfg)
    loss = _loss_from_spec(block.get("loss", "squared"))
    rng = np.random.default_rng(seed)
    kappa = block.get("kappa")
    if kappa is None:
        kappa = rng.uniform(0.5, 1.5, problem.p).tolist()
    c_bar = block.get("c_bar")
    if c_bar is None:
        c_bar = float(rng.uniform(-0.5, 0.5))
    tc = _checked("bad training parameters", TrainConfig, loss=loss, eta=block.get("eta", 0.002), kappa=kappa)
    eta2 = block.get("eta2", "auto")
    if eta2 != "auto":  # the phase-2 step size
        _checked("bad training parameters", TrainConfig, loss=loss, eta=eta2)
    L = block.get("L", 16)
    _checked("bad activation", poly_activation, L)
    result = layerwise_train(
        problem, tc, L=L, k1=block.get("k1"), k2=block.get("k2", 500), c_bar=c_bar,
        a_order=block.get("a_order", 64), eta2=eta2,
    )
    _write_csv(result.history, out_dir, "layerwise_curve.csv")
    thresh = block.get("lambda_min_threshold", 1e-6)
    report = result.kernel_report
    summary = {
        "lambda_min": report.lambda_min,
        "lambda_min_margin": report.margin,
        "lambda_min_ok": bool(report.lambda_min - report.margin > thresh),
        "final_excess": result.history[-1]["excess"],
        "eta2": result.eta2,
        "kappa": list(kappa),
        "c_bar": c_bar,
        "trust_violation": result.trust_violation,
    }
    _dump_json(summary, out_dir, "layerwise_summary.json")
    print(json.dumps(summary, indent=2, sort_keys=True, default=_json_default))
    return 0


def cmd_hard_instance(cfg: dict, out_dir: Path, seed) -> int:
    from .detect import detect
    from .junta import FiniteMarginal, hard_instance

    _check_keys(cfg, {"hard_instance", "seed"}, "config")
    block = _require(cfg, "hard_instance", "config")
    _check_keys(block, {"marginal_y", "T", "A", "lambda", "marginal_x", "losses"}, "hard_instance")
    my = _require(block, "marginal_y", "hard_instance")
    try:
        problem = hard_instance(
            my["values"], my["probs"], _require(block, "T", "hard_instance"),
            _require(block, "A", "hard_instance"), _require(block, "lambda", "hard_instance"),
            FiniteMarginal.from_dict(_require(block, "marginal_x", "hard_instance")),
        )
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"hard instance construction failed: {exc}") from exc
    report = {"problem": problem.to_dict()}
    report["sq_detects_singleton"] = bool(problem.p and detect(problem, "SQ").system.sets)
    verdicts = {}
    for lname in block.get("losses", ["squared"]):
        verdicts[lname] = bool(detect(problem, "DLQ", _loss_from_spec(lname)).system.sets)
    report["dlq_detects_singleton"] = verdicts
    _dump_json(report, out_dir, "hard_instance.json")
    print(json.dumps({k: v for k, v in report.items() if k != "problem"}, indent=2, sort_keys=True, default=_json_default))
    return 0


_COMMANDS = {
    "exponents": cmd_exponents,
    "detect": cmd_detect,
    "game": cmd_game,
    "sgd": cmd_sgd,
    "df": cmd_df,
    "layerwise": cmd_layerwise,
    "hard-instance": cmd_hard_instance,
}


def main(argv=None) -> int:
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
    args = parser.parse_args(argv)

    if args.threads is not None:
        # read by the BLAS when numpy first loads; a caller that imported
        # numpy before `main` keeps the thread count it started with
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ[var] = str(args.threads)

    try:
        cfg = _load_config(args.config)
        if not isinstance(cfg, dict):
            raise ConfigError("config root must be a JSON object")
        seed = args.seed if args.seed is not None else cfg.get("seed", 0)
        if args.command == "game":
            overrides = {"budget": args.budget, "tau": args.tau,
                         "noise_mode": getattr(args, "noise_mode")}
            block = dict(cfg.get("game", {}))
            block.update({k: v for k, v in overrides.items() if v is not None})
            cfg = dict(cfg, game=block)
        return _COMMANDS[args.command](cfg, Path(args.out), seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
