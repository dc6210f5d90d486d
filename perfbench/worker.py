"""Run one workload in this fresh process and print its figures as JSON.

Set-up is timed from the first line of this file: importing juntaleap
(and numpy with it) and generating the workload's configs. Then whole
rounds of the workload's operations run until the next round would end
after `--seconds`. With `--trace 1` the rounds alternate untraced and
traced, so the tracing overhead is measured in the same process.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import juntaleap  # noqa: E402,F401
from juntaleap import cli, dynamics  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

# throughput name and unit of work for each kind of operation
RATES = {
    "detect": ("detect_subsets_per_s", "subsets/s"),
    "game": ("game_queries_per_s", "queries/s"),
    "sgd": ("sgd_samples_per_s", "samples/s"),
    "df": ("df_steps_per_s", "steps/s"),
}


def run_op(op):
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        start = time.perf_counter()
        code = cli.main(op.argv())
        seconds = time.perf_counter() - start
    problems = [f"exit code {code}: {sink.getvalue().strip()[-300:]}"] if code else []
    if not problems:
        try:
            problems = op.check(op.out)
        except (OSError, KeyError, ValueError, TypeError, IndexError) as exc:
            problems = [f"output unreadable: {type(exc).__name__}: {exc}"]
    written = sum(f.stat().st_size for f in op.out.iterdir() if f.name != "config.json")
    return {"name": op.name, "kind": op.kind, "seconds": seconds, "units": 0 if problems else op.units(),
            "problems": problems, "fault": op.fault, "bytes": written}


def run_figures(results, rounds, primary):
    """Totals over whole rounds: the mean round time and, per kind of
    operation, units of work over the time of those operations. Host load
    can make a machine's speed drift in phases of about a minute; a run's
    total averages over them where a median of rounds would pick one."""
    by_kind = {}
    for r in results:
        secs, units = by_kind.get(r["kind"], (0.0, 0))
        by_kind[r["kind"]] = (secs + r["seconds"], units + r["units"])
    rates = {RATES[k][0]: [units / secs, RATES[k][1]] for k, (secs, units) in by_kind.items() if k in RATES}
    secs, units = by_kind[primary]
    return {"wall_s": sum(r["seconds"] for r in results) / rounds, "throughput": units / secs, "rates": rates}


def layer_metrics(tracer, rounds, results):
    """Per-round averages over the traced rounds."""
    per = 1.0 / rounds
    times = tracer.self_times()
    out = {}
    for name in spans.LAYERS:
        calls, self_s = times.get(name, (0, 0.0))
        out[f"{name}.calls"] = calls * per
        out[f"{name}.self_s"] = self_s * per
    c = tracer.counters
    out["oracle.transcript_write_s"] = out["oracle.transcript_write.self_s"]
    out["cli.bytes_written"] = sum(r["bytes"] for r in results) * per
    for key in ("detect.subsets", "detect.sets_detected", "fourier.moment_tensor.flops", "oracle.queries"):
        out[key] = c.get(key, 0.0) * per
    queries = c.get("oracle.queries", 0.0)
    out["oracle.accepted_per_query"] = c.get("oracle.accepted", 0.0) / queries if queries else 0.0
    step_s = times.get("dynamics.sgd_step", (0, 0.0))[1]
    out["dynamics.sgd_step.gflops"] = c.get("dynamics.sgd_step.flops", 0.0) / step_s / 1e9 if step_s else 0.0
    out["trace.spans"] = len(tracer.start) * per
    return out


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    captured = {}
    ops, primary = workloads.build(args.workload, args.seed, Path(args.out), captured)
    setup_s = time.perf_counter() - T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    # the lambda_min check needs K from the very call the subcommand makes
    train = dynamics.layerwise_train

    def capturing(*a, **kw):
        result = train(*a, **kw)
        captured["kernel"] = result.kernel_report.matrix
        return result

    dynamics.layerwise_train = capturing

    tracer = spans.Tracer()
    targets = spans.juntaleap_targets(tracer) if args.trace else []
    traced = []
    results_all, plain_results, traced_results = [], [], []
    start = time.perf_counter()
    while True:
        trace_this = bool(args.trace) and len(traced) % 2 == 1
        round_start = time.perf_counter()
        with tracer.patched(targets if trace_this else []):
            results = [run_op(op) for op in ops]
        now = time.perf_counter()
        traced.append(trace_this)
        results_all += results
        (traced_results if trace_this else plain_results).extend(results)
        done = len(traced) >= (2 if args.trace else 1)
        if done and now - start + (now - round_start) > args.seconds:
            break

    n_traced = sum(traced)
    figures = run_figures(plain_results, len(traced) - n_traced, primary)
    failures = sorted({f"{r['name']}: {'; '.join(r['problems'])}" for r in results_all if r["problems"]})
    unexpected = [r for r in results_all if r["problems"] and not r["fault"]]
    report = {
        "workload": args.workload,
        "rounds": len(traced),
        "attempted": len(results_all),
        "failed": sum(1 for r in results_all if r["problems"]),
        "correct": not unexpected,
        "failures": failures,
        "setup_s": setup_s,
        **figures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if args.trace:
        layers = layer_metrics(tracer, n_traced, traced_results)
        layers["trace.overhead_s"] = sum(r["seconds"] for r in traced_results) / n_traced - report["wall_s"]
        report["layers"] = layers
        tracer.save(Path(args.out) / "trace.npz")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
