#!/usr/bin/env python3
"""Plant-throughput benchmark of steelnet.

Builds perfbench/plant_bench (Release) from the repository's sources, runs
one workload for a fixed wall-clock budget, checks its outputs and prints the
metrics. Run from the repository root:

    python3 perfbench/run.py --workload campus_uniform --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table
    python3 perfbench/run.py --workload radio_floor --trace 1   # per-layer run

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1. A traced
run also writes its spans to .bench_out/spans_<workload>_seed<n>.json.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import benchstats  # noqa: E402

ROOT = os.path.dirname(HERE)
WORKLOADS = ["campus_uniform", "campus_skew", "radio_floor", "flowmon_plant_tier"]


def run_timeout_s(seconds):
    """Wall-clock limit of one plant_bench run: its budget, the warm-up and
    the traced extras, with room to spare."""
    return seconds * 2 + 120


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    """Configures (once) and builds plant_bench; returns its path."""
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", out, "--target", "plant_bench", "-j", "2"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(out, "plant_bench")


def declared_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_workload(binary, workload, seed, seconds, trace):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if trace:
        spans_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans",
                os.path.join(spans_dir, f"spans_{workload}_seed{seed}.json")]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=run_timeout_s(seconds))
    if proc.returncode != 0:
        log(proc.stderr)
        raise RuntimeError(f"plant_bench exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_sha():
    try:
        return subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True,
                              timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def describe(workload, seed, doc, failed, spec):
    """Human-readable report of one run (everything before the JSON line)."""
    ctx = dict(doc["context"])
    ctx["git_sha"] = git_sha()
    ctx["nproc"] = len(os.sched_getaffinity(0))
    lines = ["context " + json.dumps(ctx, sort_keys=True)]
    if not ctx["baseline_ok"]:
        lines.append("WARNING: unoptimised or sanitizer build -- never a baseline")
    if ctx["host_lt_2_threads"]:
        lines.append("WARNING: host has fewer than 2 hardware threads -- "
                     "2-shard figures say nothing about scaling")
    # Every timed metric, bounded or not: the 2-shard rung is declared
    # per-layer (see README), but the untraced run prints it too.
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    for name, (value, samples) in benchstats.end_to_end_metrics(doc).items():
        unit = declared[name]["unit"]
        q1, _, q3 = benchstats.quartiles(samples)
        worse = "lower" if declared[name]["better"] == "higher" else "higher"
        tail = benchstats.tail_percentile(samples, worse=worse)
        tail_txt = (f"p{tail[0]}={tail[1]:.6g}" if tail
                    else "no percentile with >=10 samples beyond it")
        lines.append(f"{workload:19s} {name:24s} {value:14.6g} {unit:9s} "
                     f"q1={q1:.6g} q3={q3:.6g} n={len(samples)} {tail_txt}")
    unscaled = " ".join(
        f"{series}={benchstats.median(doc['samples'][series]):.6g}"
        for series, _ in benchstats.END_TO_END.values())
    lines.append(f"{workload:19s} host slowdown "
                 f"{benchstats.host_slowdown(doc):.4g} (timings above are "
                 f"corrected by slowdown^{benchstats.SPEED_EXPONENT:g}); "
                 f"unscaled {unscaled}")
    checks = doc["checks"]
    attempted = checks["attempted"]
    golden = (" = golden" if seed == benchstats.DEFAULT_SEED
              and checks["fingerprint"] == benchstats.GOLDEN[workload] else "")
    lines.append(f"{workload:19s} {'failed_frac':24s} "
                 f"{failed / attempted if attempted else 1.0:14.6g} ratio     "
                 f"({failed}/{attempted} ops; invariant {checks['invariant']}; "
                 f"fingerprint {checks['fingerprint']}{golden})")
    return lines


def result_line(workload, seed, doc, trace, spec):
    """The final JSON object of one run."""
    failed = benchstats.count_failed(doc["checks"], workload, seed)
    if trace:
        values = benchstats.layer_metrics(doc, spec["per_layer"])
    else:
        e2e = benchstats.end_to_end_metrics(doc)
        values = {m["name"]: (e2e[m["name"]][0], m["unit"])
                  for m in spec["end_to_end"]}
    attempted = doc["checks"]["attempted"]
    return {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in values.items()},
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=benchstats.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("run.py: no steelnet sources next to perfbench/ -- nothing to build")
        return 2
    spec = declared_metrics()
    seconds = args.seconds or spec["run_seconds"]
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"run.py: build failed: {e}")
        return 2

    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    results = []
    for workload in workloads:
        try:
            doc = run_workload(binary, workload, args.seed, seconds,
                               args.trace == 1)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as e:
            log(f"run.py: {workload}: {e}")
            return 1
        result = result_line(workload, args.seed, doc, args.trace == 1, spec)
        for line in describe(workload, args.seed, doc, result["failed"], spec):
            print(line)
        if args.trace == 1:
            for name, m in result["metrics"].items():
                print(f"{workload:19s} {name:32s} {m['value']:14.6g} {m['unit']}")
        results.append(result)

    if len(results) == 1:
        print(json.dumps(results[0]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {f"{w}.{k}": v for w, r in zip(workloads, results)
                        for k, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
