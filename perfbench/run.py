#!/usr/bin/env python3
"""S3D++ benchmark: builds the s3d_perfbench binary from the checkout's
sources, runs a workload, checks it, and prints its metrics.

Single run (the benchmark contract; last stdout line is the result):
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
Every workload, untraced and traced, with the cross-workload checks:
    python3 perfbench/run.py --all [--holdout]
Run-to-run spread of the end-to-end metrics over K seeds:
    python3 perfbench/run.py --spread K [--workload NAME]
Self-tests of the benchmark's arithmetic:
    python3 perfbench/run.py --self-test

Build output goes to .bench_build/perfbench under the repository root
(the directory the command is run from); nothing outside it is written.
"""

import argparse
import fnmatch
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_LIMIT_S = 170  # one run must end well inside the 180 s budget

sys.path.insert(0, HERE)
import benchstats  # noqa: E402


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_json(path):
    with open(path) as f:
        return json.load(f)


def build():
    """Configure (once) and build s3d_perfbench; returns the binary path.
    Exits non-zero without a result when the sources are missing or the
    build fails."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: no library sources next to perfbench/ (src/ missing)")
        sys.exit(2)
    os.makedirs(BUILD, exist_ok=True)
    logpath = os.path.join(BUILD, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    with open(logpath, "w") as out:
        def step(cmd):
            return subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                                  cwd=ROOT).returncode == 0
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        ok = (os.path.isfile(os.path.join(BUILD, "CMakeCache.txt"))
              or step(configure))
        ok = ok and step(["cmake", "--build", BUILD, "--target",
                          "s3d_perfbench", "-j", jobs])
    if not ok:
        with open(logpath) as f:
            log(f.read()[-4000:])
        log("perfbench: build failed (log: %s)" % logpath)
        sys.exit(2)
    return os.path.join(BUILD, "s3d_perfbench")


def run_binary(binary, workload, seed, seconds, trace, deadline):
    """Run one workload; returns its raw record (dict)."""
    tag = "%s-s%d" % (workload, seed)
    work = os.path.join(BUILD, "work", "%s-p%d" % (tag, os.getpid()))
    os.makedirs(work, exist_ok=True)
    os.makedirs(os.path.join(BUILD, "traces"), exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds)), "--trace", str(int(trace)),
           "--work-dir", work,
           "--trace-file", os.path.join(BUILD, "traces", tag + ".json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.time()))
    except subprocess.TimeoutExpired:
        log("perfbench: %s exceeded its time budget" % workload)
        sys.exit(1)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log("perfbench: %s exited with %d" % (workload, proc.returncode))
        sys.exit(1)
    return json.loads(lines[-1])


def coverage_check(rec):
    """Traced runs: the per-layer times plus the named remainder sum to
    the traced step time, and no layer is double counted (remainder not
    negative beyond timer jitter)."""
    cov = rec["coverage"]
    if not cov:
        return None
    parts = {k: v for k, v in cov.items() if k != "step_ms"}
    total = sum(parts.values())
    ok = (abs(total - cov["step_ms"]) <= 1e-9 * max(1.0, cov["step_ms"])
          and parts["remainder.integrator"] >= -0.02 * cov["step_ms"])
    return {"name": "coverage.sums_to_step", "ok": ok,
            "detail": "layers + remainder = %.4f ms of %.4f ms traced step "
                      "(remainder %.1f%%)" % (
                          total, cov["step_ms"],
                          100 * parts["remainder.integrator"] / cov["step_ms"])}


def report(rec, units):
    """Print the human-readable record; returns the result dict."""
    if rec["trace"]:
        cov = coverage_check(rec)
        if cov:
            rec["checks"].append(cov)
    attempted, failed = benchstats.ops_counts(rec)
    correct = all(c["ok"] for c in rec["checks"])
    h, ws = rec["host"], rec["working_set"]
    print("== %s  seed %d  %s ==" % (rec["workload"], rec["seed"],
                                    "traced" if rec["trace"] else "untraced"))
    print("host: %s, nproc %d, L2 %.2f MiB, LLC %.1f MiB, %s, %s %s" % (
        h["cpu"], h["nproc"], h["l2_bytes"] / 2**20, h["llc_bytes"] / 2**20,
        h["compiler"], h["build_type"], h["flags"]))
    print("working set: %.3f MB (%.3f MB/rank, %d ghosted cells x %.1f "
          "fields x 8 B), %d ranks, %d global cells" % (
              ws["bytes"] / 1e6, ws["bytes_per_rank"] / 1e6,
              ws["ghosted_cells"], ws["fields"], rec["ranks"],
              rec["global_cells"]))
    for c in rec["checks"]:
        print("check %-28s %s  %s" % (c["name"], "ok  " if c["ok"] else "FAIL",
                                       c["detail"]))
    print("final-state checksum (FNV-1a): %s" % rec["checksum"])
    metrics = {}
    if rec["trace"]:
        for k, v in rec["layers"].items():
            u = units.get(k, "")
            print("  %-34s %14.6g %s" % (k, v, u))
            metrics[k] = {"value": v, "unit": u}
        print("coverage of the traced step (ms/step):")
        for k, v in rec["coverage"].items():
            print("  %-34s %14.6g" % (k, v))
    else:
        print("times normalised to the host-speed probe (reference %.3g s):"
              % rec["probe_ref_s"])
        for k, (v, u, n) in benchstats.end_to_end(rec).items():
            print("  %-20s %14.6g %-6s (n=%d)" % (k, v, u, n))
            if k != "ops_failed_frac":
                metrics[k] = {"value": v, "unit": u}
        print("raw wall clock: step p50 %.4g ms, setup median %.4g s, "
              "loop %.3f s" % (
                  benchstats.percentile(rec["step_ms_raw"], 50),
                  statistics.median(rec["setup_raw_s"]),
                  rec["loop_wall_raw_s"]))
    print("ops: %d attempted, %d failed" % (attempted, failed))
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def run_one(args, binary, workload, seed, trace):
    """One run; the result carries exactly the BENCHMARK.json metrics of
    its kind (end_to_end untraced, per_layer traced) that were measured."""
    rec = run_binary(binary, workload, seed, args.seconds, trace,
                     time.time() + RUN_LIMIT_S)
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    units = {m["name"]: m["unit"]
             for m in bench["end_to_end"] + bench["per_layer"]}
    res = report(rec, units)
    wanted = [m["name"] for m in bench["per_layer" if trace else "end_to_end"]]
    res["metrics"] = {k: res["metrics"][k] for k in wanted
                      if k in res["metrics"]}
    return rec, res


def zero_expected(spec, workload, name):
    return any(fnmatch.fnmatchcase(name, pat)
               for pat in spec["expect_zero"].get(workload, []))


def run_all(args, binary, spec, seed):
    """Every workload untraced + traced, then the cross-workload checks."""
    results, layers, setup = [], {}, {}
    for wl in spec["workloads"]:
        for trace in (False, True):
            rec, res = run_one(args, binary, wl, seed, trace)
            results.append(res)
            if trace:
                layers[wl] = rec["layers"]
            else:
                # Raw wall clock, like the directly timed equilibrium solve.
                setup[wl] = statistics.median(rec["setup_raw_s"])
    print("== cross-workload checks ==")
    ok = True
    for wl, lm in layers.items():
        for name, v in lm.items():
            if zero_expected(spec, wl, name):
                good = v == 0
                ok = ok and good
                print("bypass %-22s %-34s %s (%g)" % (
                    wl, name, "zero" if good else "NONZERO", v))
    # The equilibrium solve must account for most of the set-up gap
    # between the guarded box and the jets (the rest is the box's own
    # build and initialisation).
    gap = spec["expect_setup_gap"]
    eq_s = layers[gap["workload"]][gap["by"]] / 1e3
    lo, hi = gap["share_range"]
    for other in gap["over"]:
        d = setup[gap["workload"]] - setup[other]
        good = d > 0 and lo <= eq_s / d <= hi
        ok = ok and good
        print("setup gap %s - %s = %.3f s; %s %.3f s is %.0f%% of it: %s" % (
            gap["workload"], other, d, gap["by"], eq_s, 100 * eq_s / d,
            "ok" if good else "FAIL"))
    correct = ok and all(r["correct"] for r in results)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {}}))
    return 0 if correct else 1


def run_spread(args, binary, spec, k):
    """Run each selected workload at k seeds and compare each end-to-end
    metric's quartile spread (IQR / median) with a third of its bound."""
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    wls = [args.workload] if args.workload else list(spec["workloads"])
    ok = True
    for wl in wls:
        vals = {}
        for i in range(k):
            rec = run_binary(binary, wl, spec["default_seed"] + i,
                             args.seconds, False, time.time() + RUN_LIMIT_S)
            for name, (v, _, _) in benchstats.end_to_end(rec).items():
                vals.setdefault(name, []).append(v)
        for m in bench["end_to_end"]:
            xs = vals.get(m["name"], [])
            if len(xs) < 2:
                print("%s %s: missing" % (wl, m["name"]))
                ok = False
                continue
            sp = benchstats.quartile_spread(xs)
            steady = sp <= m["bound"] / 3 or m["name"] == "setup_s"
            ok = ok and steady
            print("%-20s %-18s median %12.6g  spread %6.2f%%  bound %4.0f%%"
                  "  %s" % (wl, m["name"], statistics.median(xs), 100 * sp,
                            100 * m["bound"], "ok" if steady else "UNSTEADY"))
    return 0 if ok else 1


def self_test():
    suite = unittest.defaultTestLoader.discover(HERE, pattern="test_*.py")
    res = unittest.TextTestRunner(stream=sys.stderr, verbosity=1).run(suite)
    return 0 if res.wasSuccessful() else 1


def main():
    spec = load_json(os.path.join(HERE, "spec.json"))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=list(spec["workloads"]))
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true")
    ap.add_argument("--holdout", action="store_true",
                    help="use the recorded hold-out seed")
    ap.add_argument("--spread", type=int, default=0, metavar="K")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    seed = (spec["holdout_seed"] if args.holdout else
            args.seed if args.seed is not None else spec["default_seed"])
    if not (args.all or args.spread or args.workload):
        ap.error("give --workload, --all or --spread")
    binary = build()
    if args.spread:
        return run_spread(args, binary, spec, args.spread)
    if args.all:
        return run_all(args, binary, spec, seed)
    _, res = run_one(args, binary, args.workload, seed, bool(args.trace))
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
