#!/usr/bin/env python3
"""Builds lssbench from source and runs it.

One run (the form BENCHMARK.json's command uses), from the repository root:

    python3 bench/lssbench/run.py --workload NAME --seed N --seconds S \
        --trace 0|1

prints lssbench's report and, as the last line, one JSON object with
`correct`, `attempted`, `failed` and `metrics`: BENCHMARK.json's end-to-end
metrics, or with --trace 1 its per-layer metrics.

Sets of runs (what run.sh does):

    python3 bench/lssbench/run.py [--sets N] [--seed S] [--vary-seed]
        [--seconds S] [--trace] [--workloads a,b] [--json FILE]

runs every workload N times and prints each metric's median and quartiles
per workload, flagging a metric whose runs disagree by more than its bound.
--vary-seed gives set i the seed S + i; --trace adds a traced run per set
and reports the tracing overhead.

The build goes to $CARGO_TARGET_DIR/lssbench (default .bench_build/lssbench)
and run files to .bench_out/, both under the repository root.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
RUN_TIMEOUT_S = 175


def load_benchmark():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build():
    """Configures (once) and builds lssbench; returns the binary's path."""
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    build_dir = target / "lssbench"
    tmp = ROOT / ".bench_out" / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(ROOT / "bench" / "lssbench"),
                      "-B", str(build_dir)])
    steps.append(["cmake", "--build", str(build_dir), "-j", "4"])
    for cmd in steps:
        # Build output goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
            sys.exit("lssbench: build failed: " + " ".join(cmd))
    return build_dir / "lssbench"


def run_once(binary, workload, seed, seconds, trace):
    """Runs lssbench once; returns (exit code, stdout lines, result dict)."""
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    run_dir = out / f"run-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--dir", str(run_dir)]
    if trace:
        cmd += ["--trace", str(out / f"{workload}-seed{seed}.trace.json")]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        shutil.rmtree(run_dir, ignore_errors=True)
        print(f"lssbench: {workload} timed out", file=sys.stderr)
        return 1, [], None
    shutil.rmtree(run_dir, ignore_errors=True)
    lines = stdout.splitlines()
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    return proc.returncode, lines, result


def benchmark_result(bench, result, trace):
    """The result line BENCHMARK.json describes, or None if a metric is
    missing."""
    names = [m["name"] for m in bench["per_layer" if trace else "end_to_end"]]
    missing = [n for n in names if n not in result["metrics"]]
    if missing:
        print("lssbench: missing metrics: " + ", ".join(missing),
              file=sys.stderr)
        return None
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {n: result["metrics"][n] for n in names}}


def single(args, bench):
    binary = build()
    code, lines, result = run_once(binary, args.workload, args.seed,
                                   args.seconds, args.trace == 1)
    for line in lines[:-1]:
        print(line)
    if result is None:
        return code or 1
    line = benchmark_result(bench, result, args.trace == 1)
    if line is None:
        return 1
    print(json.dumps(line))
    return code


def spread(values):
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, med, med, 0.0, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (med, q1, q3, (q3 - q1) / abs(med),
            (max(values) - min(values)) / abs(med))


def sets(args, bench):
    binary = build()
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs = {w: {False: [], True: []} for w in workloads}
    failed = False
    for i in range(args.sets):
        seed = args.seed + (i if args.vary_seed else 0)
        for w in workloads:
            for trace in ([False, True] if args.trace else [False]):
                code, _, result = run_once(binary, w, seed, seconds, trace)
                ok = result is not None and result["correct"] and code == 0
                failed = failed or not ok
                print(f"set {i + 1}/{args.sets} {w} seed={seed} "
                      f"trace={int(trace)}: "
                      f"{'ok' if ok else 'FAILED (exit %d)' % code}",
                      file=sys.stderr)
                if result is not None:
                    runs[w][trace].append(result)

    merged = {}
    for w in workloads:
        merged[w] = {}
        for trace in ([False, True] if args.trace else [False]):
            results = runs[w][trace]
            if not results:
                continue
            print(f"\n{w} ({'traced' if trace else 'end-to-end'}, "
                  f"{len(results)} runs)")
            print(f"  {'metric':34} {'median':>12} {'q1':>12} {'q3':>12} "
                  f"{'iqr/med':>8} {'rng/med':>8} {'bound':>6}")
            for name in results[0]["metrics"]:
                values = [r["metrics"][name]["value"] for r in results
                          if name in r["metrics"]]
                unit = results[0]["metrics"][name]["unit"]
                med, q1, q3, iqr, rng = spread(values)
                bound = bounds.get(name) if not trace else None
                flag = ""
                if bound is not None and rng > bound:
                    flag = "  DISAGREE"
                elif bound is not None and iqr > bound / 3:
                    flag = "  iqr>bound/3"
                print(f"  {name:34} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                      f"{iqr:8.4f} {rng:8.4f} "
                      f"{'' if bound is None else bound:>6}{flag}")
                merged[w].setdefault(name, {"unit": unit})
                merged[w][name]["traced" if trace else "values"] = values
        if args.trace and runs[w][False] and runs[w][True]:
            untraced = statistics.median(
                r["metrics"]["ops_per_s"]["value"] for r in runs[w][False])
            traced = statistics.median(
                r["metrics"]["client.ops_per_s"]["value"]
                for r in runs[w][True])
            print(f"  tracing overhead: {untraced - traced:.6g} ops/s "
                  f"({100 * (untraced - traced) / untraced:.1f} % of "
                  f"{untraced:.6g})")
    if args.json:
        with open(args.json, "w") as f:
            json.dump(merged, f, indent=1)
    return 1 if failed else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                   choices=[0, 1])
    p.add_argument("--sets", type=int, default=1)
    p.add_argument("--vary-seed", action="store_true")
    p.add_argument("--workloads")
    p.add_argument("--json")
    args = p.parse_args()
    bench = load_benchmark()
    if args.workload:
        if args.seconds is None:
            args.seconds = bench["run_seconds"]
        return single(args, bench)
    return sets(args, bench)


if __name__ == "__main__":
    sys.exit(main())
