#!/usr/bin/env python3
"""Build the GoPIM benchmark and run it.

One workload, as the benchmark contract runs it (from the repository
root):

    python3 perfbench/run.py --serve-rate R \\
        --workload grid-cold --seed 1 --seconds 10 --trace 0

The last line on stdout is the run's JSON result. Build output and
notes go to stderr.

Every workload, untraced and traced, with every metric printed by name
and unit, the simulated speedup next to the paper's figure, and the
layer each traced run found dominant:

    python3 perfbench/run.py --report [--seed 1] [--seconds 10]

The benchmark's own unit tests:

    python3 perfbench/run.py --selftest

The build lives in $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench) under the repository root.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["grid-cold", "grid-warm-event", "serve-mixed", "router-3shard"]
RUN_TIMEOUT_S = 170

# Fig. 13(a) GoPIM-vs-Serial speedup: the paper's average and this
# repository's own geomean over the same figure (EXPERIMENTS.md).
PAPER_FIG13A_SPEEDUP = 727.6
REPO_FIG13A_GEOMEAN = 569.0

# What each traced run should find dominant, by layer group.
EXPECTED_DOMINANT = {
    "grid-cold": "gcn.profile + mapping",
    "grid-warm-event": "sim",
}
LAYER_GROUPS = {
    "gcn.profile_ms": "gcn.profile + mapping",
    "mapping.artifacts_ms": "gcn.profile + mapping",
    "gcn.cost_ms": "gcn.cost",
    "alloc.allocate_ms": "alloc",
    "core.plan_self_ms": "core",
    "core.report_ms": "core",
    "workload.run_ms": "workload",
    "sim.schedule_ms": "sim",
    "isa.lower_ms": "isa",
    "isa.verify_ms": "isa",
    "isa.encode_ms": "isa",
    "isa.decode_ms": "isa",
    "serve.parse_ms": "serve",
    "serve.key_ms": "serve",
    "serve.cache_ms": "serve",
    "cluster.route_ms": "cluster",
}


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configure once, then build incrementally; exits on failure."""
    if not os.path.isdir(os.path.join(ROOT, "src")):
        log("perfbench: no simulator sources at", os.path.join(ROOT, "src"))
        sys.exit(2)
    bdir = build_dir()
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j", str(os.cpu_count() or 1)])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            log("perfbench: build step failed:", " ".join(step))
            sys.exit(2)
    return bdir


def run_once(bdir, workload, seed, seconds, trace, serve_rate):
    """One benchmark run; returns (exit code, stdout lines)."""
    run_dir = os.path.join(bdir, "run", "%s-%d-%d" % (workload, seed,
                                                      os.getpid()))
    os.makedirs(run_dir, exist_ok=True)
    cmd = [os.path.join(bdir, "perfbench"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--serve-rate", str(serve_rate),
           "--golden", os.path.join(HERE, "golden"),
           "--serve-bin", os.path.join(bdir, "gopim_serve"),
           "--run-dir", run_dir]
    if trace:
        traces = os.path.join(bdir, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, "%s-%d.json" % (workload, seed))]
    # Its own process group, so a timeout also stops the shards the
    # router workload spawned.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log("perfbench: %s timed out" % workload)
        return 3, []
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return proc.returncode, out.splitlines()


def configured_rate():
    """serve-mixed open-loop rate and run length from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    command = bench["command"]
    rate = float(command[command.index("--serve-rate") + 1])
    return rate, bench["run_seconds"]


def dominant_layer(metrics):
    groups = {}
    for name, group in LAYER_GROUPS.items():
        groups[group] = groups.get(group, 0.0) + metrics[name]["value"]
    return max(groups.items(), key=lambda kv: kv[1])


def report(args):
    bdir = build()
    serve_rate, seconds = configured_rate()
    if args.seconds is not None:
        seconds = args.seconds
    ok = True
    for workload in WORKLOADS:
        print("== %s (seed %d, %g s per run)" % (workload, args.seed, seconds))
        for trace in (False, True):
            code, lines = run_once(bdir, workload, args.seed, seconds, trace,
                                   serve_rate)
            if code != 0 or not lines:
                print("   %s run failed (exit %d)"
                      % ("traced" if trace else "untraced", code))
                ok = False
                continue
            result = json.loads(lines[-1])
            ok = ok and result["correct"]
            print("   %s: correct=%s attempted=%d failed=%d"
                  % ("per layer (traced run)" if trace else "end to end",
                     result["correct"], result["attempted"],
                     result["failed"]))
            metrics = result["metrics"]
            for name, m in metrics.items():
                print("     %-30s %16.6g %s" % (name, m["value"], m["unit"]))
            if not trace:
                print("     sim_speedup_geomean is simulated. Fig. 13(a) "
                      "GoPIM over Serial: paper average %.1fx, this "
                      "repository's geomean %.0fx. The model is not "
                      "validated against hardware."
                      % (PAPER_FIG13A_SPEEDUP, REPO_FIG13A_GEOMEAN))
            else:
                group, ms = dominant_layer(metrics)
                expected = EXPECTED_DOMINANT.get(workload)
                verdict = ""
                if expected:
                    verdict = (" (as expected)" if group == expected else
                               " (expected %s; reporting what was found)"
                               % expected)
                print("     dominant layer: %s, %.3f ms per operation%s"
                      % (group, ms, verdict))
        sys.stdout.flush()
    return 0 if ok else 1


def selftest():
    bdir = build()
    return subprocess.run([os.path.join(bdir, "perfbench_tests")]).returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--serve-rate", type=float)
    parser.add_argument("--report", action="store_true")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.selftest:
        return selftest()
    if args.report:
        return report(args)
    if not args.workload or args.seconds is None or args.serve_rate is None:
        parser.error("--workload, --seconds and --serve-rate are required")
    bdir = build()
    code, lines = run_once(bdir, args.workload, args.seed, args.seconds,
                           args.trace == 1, args.serve_rate)
    for line in lines:
        print(line)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
