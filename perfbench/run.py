#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
        One run of one workload.  The last line of standard output is the
        run's JSON result (see README.md).

    python3 perfbench/run.py selftest
        Generator-shape and oracle self-test.

    python3 perfbench/run.py steadiness [--runs 10] [--workloads a,b]
        Run two sets of --runs runs each over seeds 1..runs, at the run
        length in BENCHMARK.json, and print per workload and end-to-end
        metric each set's median and spread (interquartile range over
        median) and the second median's change, against the metric's
        bound.  Exits 1 if a spread (setup_s excepted) or a change in the
        worse direction exceeds its bound, if an answer was wrong, or if
        an operation failed.

Run from the repository root.  The benchmark is built from source with
dune into _build/ (the dune cache is switched off, so nothing is written
outside the repository).  Exits non-zero, without a result, if the build
or the run fails.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, "_build", "default", "perfbench")


def build(exe):
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ROOT, "--display", "quiet",
           "./perfbench/" + exe]
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    except OSError as e:
        sys.exit("perfbench: cannot run dune: %s" % e)
    if r.returncode != 0:
        sys.exit("perfbench: build failed (exit %d)" % r.returncode)
    return os.path.join(BUILD, exe)


def run_once(exe, workload, seed, seconds, trace):
    """One run; returns its parsed result object."""
    r = subprocess.run(
        [exe, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        sys.exit("perfbench: %s seed %d exited %d" % (workload, seed, r.returncode))
    return json.loads(lines[-1])


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf"), q2


def one_set(exe, w, seeds, seconds, label):
    results = []
    for seed in seeds:
        res = run_once(exe, w, seed, seconds, 0)
        results.append(res)
        print("%-18s set %s seed %-3d attempted %-5d failed %-3d correct %s" % (
            w, label, seed, res["attempted"], res["failed"], res["correct"]),
            file=sys.stderr, flush=True)
    return results


def steadiness(args):
    opts = dict(zip(args[0::2], args[1::2]))
    if len(args) % 2 or set(opts) - {"--runs", "--workloads"}:
        sys.exit("usage: run.py steadiness [--runs N] [--workloads a,b]")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seeds = range(1, int(opts.get("--runs", 10)) + 1)
    names = opts.get("--workloads")
    names = names.split(",") if names else [w["name"] for w in bench["workloads"]]
    exe = build("main.exe")
    report, bad = {}, []
    for w in names:
        sets = [one_set(exe, w, seeds, bench["run_seconds"], label)
                for label in "AB"]
        counts = [(sum(r["attempted"] for r in rs), sum(r["failed"] for r in rs))
                  for rs in sets]
        correct = all(r["correct"] for rs in sets for r in rs)
        print("\n%s: %d runs per set; attempted %d / %d, failed %d / %d, all correct: %s"
              % (w, len(seeds), counts[0][0], counts[1][0], counts[0][1],
                 counts[1][1], correct))
        if not correct:
            bad.append("%s: wrong answers" % w)
        if counts[0][1] or counts[1][1]:
            bad.append("%s: failed operations" % w)
        print("  %-18s %12s %12s %8s %8s %8s %7s  %s" % (
            "metric", "median A", "median B", "change", "spread A",
            "spread B", "bound", "verdict"))
        rows = {}
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            vals = [[r["metrics"][name]["value"] for r in rs] for rs in sets]
            (sa, ma), (sb, mb) = spread(vals[0]), spread(vals[1])
            change = mb / ma - 1
            worse = change if m["better"] == "lower" else -change
            # The spread of setup_s is not gated, only its change.
            worst = max([worse] + ([] if name == "setup_s" else [sa, sb]))
            verdict = ("ok" if worst <= bound / 3 else
                       "within bound" if worst <= bound else "TOO NOISY")
            if verdict == "TOO NOISY":
                bad.append("%s %s" % (w, name))
            print("  %-18s %12.4f %12.4f %+7.2f%% %7.2f%% %7.2f%% %6.2f%%  %s" % (
                name, ma, mb, 100 * change, 100 * sa, 100 * sb, 100 * bound,
                verdict))
            rows[name] = {"medians": [ma, mb], "change": change,
                          "spreads": [sa, sb], "values": vals}
        report[w] = {"attempted": [c[0] for c in counts],
                     "failed": [c[1] for c in counts],
                     "correct": correct, "metrics": rows}
    out = os.path.join(HERE, "out")
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "steadiness.json"), "w") as f:
        json.dump(report, f, indent=1)
    if bad:
        sys.exit("perfbench: not steady: " + "; ".join(bad))


def main():
    args = sys.argv[1:]
    if args[:1] == ["selftest"]:
        exe = build("selftest.exe")
        sys.exit(subprocess.run([exe], cwd=ROOT).returncode)
    if args[:1] == ["steadiness"]:
        steadiness(args[1:])
        return
    exe = build("main.exe")
    sys.exit(subprocess.run([exe] + args, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
