"""The juntaleap benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a checkout. Each workload runs in fresh worker
processes with BLAS threads pinned through the environment before numpy is
imported: SETUP_PROBES processes that only set up, then one that also runs
the workload. The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics of
BENCHMARK.json with `--trace 0`, its per-layer metrics with `--trace 1`.
Lines before it give the same figures for a reader. This file imports
nothing outside the standard library.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 6
DEADLINE_S = 170  # a workload's processes are stopped after this many seconds
# runnable by hand but not in BENCHMARK.json, whose runs are long enough for
# only two workloads: see the README
UNGATED = ["exponents-large-p", "sgd-online"]


def blas_threads():
    """BLAS threads for the workers: the cores this process may use, at most 2,
    so figures from machines with more cores stay comparable."""
    return max(1, min(2, len(os.sched_getaffinity(0))))


def worker(args, env, deadline, setup_only=False):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(HERE / "out" / f"{args.workload}-{args.seed}")]
    if setup_only:
        cmd.append("--setup-only")
    timeout = max(1.0, deadline - time.monotonic())
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True, timeout=timeout, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(args, spec):
    threads = str(blas_threads())
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
    deadline = time.monotonic() + DEADLINE_S
    setups = [worker(args, env, deadline, setup_only=True)["setup_s"] for _ in range(SETUP_PROBES)]
    report = worker(args, env, deadline)
    setups.append(report["setup_s"])

    values = {"setup_s": statistics.median(setups), "wall_s": report["wall_s"],
              "peak_rss_mb": report["peak_rss_mb"], "throughput": report["throughput"]}
    if args.trace:
        values = report["layers"]
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise RuntimeError(f"the worker reported no {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    print(f"workload {args.workload}  seed {args.seed}  BLAS threads {threads}  rounds {report['rounds']}")
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:.6g} {m['unit']}")
    if not args.trace:
        for name, (value, unit) in report["rates"].items():
            print(f"  {name:36s} {value:.6g} {unit}")
    print(f"  attempted {report['attempted']}  failed {report['failed']}  correct {report['correct']}")
    for line in report["failures"]:
        print(f"  FAILED {line}")
    return {"correct": report["correct"], "attempted": report["attempted"], "failed": report["failed"],
            "metrics": metrics}


def main(argv=None):
    if not (ROOT / "src" / "juntaleap" / "__init__.py").is_file():
        print(f"no juntaleap sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]] + UNGATED
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=workloads + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    names = workloads if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        args.workload = name
        try:
            results[name] = run_workload(args, spec)
        except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
            print(f"workload {name}: {exc}", file=sys.stderr)
            return 1
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
