#!/usr/bin/env python3
"""Entry point of the gables end-to-end benchmark.

Builds the benchmark binary (and the program it links) from the
sources of this checkout, runs one workload, and relays its output;
the last line of stdout is the result object. See README.md here.

    python3 e2ebench/run.py --workload cli_sweep --seed 1 --seconds 10 --trace 0
    python3 e2ebench/run.py --steadiness --runs 10      # spread vs bounds
    python3 e2ebench/run.py --steadiness --runs 10 --write-manifest
    python3 e2ebench/run.py --selftest                  # helper unit tests

Run it from the repository root.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                         "e2ebench")
BINARY = os.path.join(BUILD_DIR, "gables_e2e")
MANIFEST = os.path.join(ROOT, "BENCHMARK.json")
RUN_TIMEOUT_S = 170

# Why each workload is in the benchmark (copied into BENCHMARK.json).
WORKLOADS = {
    "cli_sweep": "gables sweep over 1M points with a RunReport: output-bound "
                 "(table, report, file write); a model-kernel change must "
                 "not move it",
    "cli_compute": "gables robust, sim and ert x3: compute-bound (simulator, "
                   "Monte-Carlo) with tiny output; output changes must not "
                   "move it",
    "serve_mix": "closed-loop ServeService::handleLine over hot/cold evals, "
                 "config evals, sweeps, explores, advise, stats and bad "
                 "lines: request path, cache and grid ops",
}
RUN_SECONDS = 20
SETUP_BOUND = 0.25
MIN_BOUND = 0.05


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build(target="gables_e2e"):
    """Configure once, then build @target; exits on failure."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", target,
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            log("e2ebench: build step failed:", " ".join(cmd))
            sys.exit(1)


def git_rev():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None if out.returncode == 0 else None


def load_manifest():
    if not os.path.exists(MANIFEST):
        return None
    with open(MANIFEST) as f:
        return json.load(f)


def run_workload(workload, seed, seconds, trace, rev):
    """Run the binary once; returns (stdout lines, result dict)."""
    workdir = os.path.join(BUILD_DIR, "run-%d" % os.getpid())
    os.makedirs(workdir, exist_ok=True)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--workdir", workdir]
    if rev:
        cmd += ["--git-rev", rev]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("e2ebench: %s timed out" % workload)
        sys.exit(1)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        log(proc.stdout)
        log("e2ebench: %s exited with %d" % (workload, proc.returncode))
        sys.exit(1)
    result = json.loads(lines[-1])
    check_result(result, trace)
    return lines, result


def check_result(result, trace):
    """The result line must carry exactly the manifest's metrics."""
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        log("e2ebench: malformed result keys", sorted(result))
        sys.exit(1)
    manifest = load_manifest()
    if manifest is None:
        return
    want = {m["name"]: m["unit"]
            for m in manifest["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        log("e2ebench: metrics differ from BENCHMARK.json:",
            sorted(set(got) ^ set(want)))
        sys.exit(1)


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def steadiness(args):
    """Two sets of runs per workload: each metric's spread and median
    shift against its bound, plus the tracing overhead."""
    listing = json.loads(subprocess.run(
        [BINARY, "--list-metrics"], capture_output=True, text=True,
        check=True).stdout)
    manifest = load_manifest() or {}
    bounds = {m["name"]: m.get("bound")
              for m in manifest.get("end_to_end", [])}
    better = {m["name"]: m["better"] for m in listing["end_to_end"]}
    workloads = args.workloads.split(",") if args.workloads else \
        listing["workloads"]
    rev = git_rev()
    worst = {}
    ok = True
    for w in workloads:
        sets = []
        for s in range(2):
            runs = []
            for k in range(args.runs):
                seed = 1000 * (s + 1) + k + args.seed
                _, res = run_workload(w, seed, args.seconds, False, rev)
                ok = ok and res["correct"] and res["failed"] == 0
                runs.append({m: v["value"]
                             for m, v in res["metrics"].items()})
            sets.append(runs)
        _, traced = run_workload(w, args.seed, args.seconds, True, rev)
        overhead = traced["metrics"]["trace.overhead_share"]["value"]
        print("%s (%d runs x 2; tracing overhead %.2f%%)"
              % (w, args.runs, 100 * overhead))
        print("  %-12s %10s %10s %10s %10s %7s"
              % ("metric", "median1", "spread1", "spread2", "shift", "bound"))
        for m in better:
            v1 = [r[m] for r in sets[0]]
            v2 = [r[m] for r in sets[1]]
            m1, m2 = statistics.median(v1), statistics.median(v2)
            shift = (m2 - m1) / m1
            if better[m] == "higher":
                shift = -shift
            sp = max(spread(v1), spread(v2))
            bound = bounds.get(m)
            flag = ""
            if bound is not None:
                if (m != "setup_s" and sp > bound) or shift > bound:
                    flag = "  OVER BOUND"
                    ok = False
                elif m != "setup_s" and sp > bound / 3:
                    flag = "  above a third of the bound"
            worst[m] = max(worst.get(m, 0.0), sp, shift)
            print("  %-12s %10.6g %9.2f%% %9.2f%% %9.2f%% %7s%s"
                  % (m, m1, 100 * spread(v1), 100 * spread(v2),
                     100 * shift, "-" if bound is None else bound, flag))
        sys.stdout.flush()
    if args.write_manifest:
        write_manifest(listing, worst, workloads)
    return 0 if ok else 1


def write_manifest(listing, worst, workloads):
    """BENCHMARK.json with each bound three times the worst spread or
    shift seen (at least MIN_BOUND, at most SETUP_BOUND), setup_s at
    the largest bound."""
    end_to_end = []
    for m in listing["end_to_end"]:
        if m["name"] == "setup_s":
            bound = SETUP_BOUND
        else:
            bound = math.ceil(300 * worst.get(m["name"], 0.0)) / 100
            bound = min(SETUP_BOUND, max(MIN_BOUND, bound))
        end_to_end.append(dict(m, bound=bound))
    manifest = {
        "command": ["python3", "e2ebench/run.py"],
        "paths": ["e2ebench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w, "why": WORKLOADS[w]} for w in workloads],
        "end_to_end": end_to_end,
        "per_layer": listing["per_layer"],
    }
    with open(MANIFEST, "w") as f:
        json.dump(manifest, f, indent=2)
        f.write("\n")
    log("e2ebench: wrote", MANIFEST)


def selftest():
    build("e2e_harness_test")
    return subprocess.run(["ctest", "--test-dir", BUILD_DIR, "-R",
                           "^e2e_harness_test$", "--output-on-failure"]
                          ).returncode


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steadiness", action="store_true",
                    help="two sets of --runs runs per workload")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", help="comma list (default: all)")
    ap.add_argument("--write-manifest", action="store_true",
                    help="with --steadiness: rewrite BENCHMARK.json")
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    if args.selftest:
        return selftest()
    build()
    if args.steadiness:
        return steadiness(args)
    if not args.workload:
        ap.error("--workload is required")
    lines, _ = run_workload(args.workload, args.seed, args.seconds,
                            bool(args.trace), git_rev())
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
