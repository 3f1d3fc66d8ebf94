#!/usr/bin/env python3
"""The FloDB benchmark's one command: builds the standalone workspace in
benchmark/ offline, runs it, and compares two of its reports.

  run.py --workload W --seed N --seconds S --trace 0|1
      One run of one workload (the BENCHMARK.json contract). Prints every
      metric by name with its unit; the last line is the result object.
      --trace 0 reports the end-to-end metrics, --trace 1 the per-layer
      ones (traced windows, then the `layers` probes).

  run.py all [--seed N] [--smoke] [--traced] [--out FILE]
      All four workloads into one report (default <target>/bench-out/).
      --traced adds the traced run of each workload and the layer probes;
      --smoke shrinks everything so the whole thing takes seconds.

  run.py compare A.json B.json
      Per workload x end-to-end metric: both medians, both window spreads,
      the bound from BENCHMARK.json and a verdict. Exits 1 on any `worse`
      or on a larger failed share in B.

  run.py sweep [--runs N] [--first-seed S]
      The acceptance statistic: N runs (default 10) of every workload, each
      with another seed; per metric the values, their median and the
      interquartile range as a share of it, beside the bound. Exits 1 if a
      spread exceeds its bound or a run failed a check.

Exit codes: 0 ok, 1 a correctness check or comparison failed, 2 could not
build or run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MANIFEST = os.path.join(HERE, "Cargo.toml")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
E2E = "flodb-bench-e2e"
LAYERS = "flodb-bench-layers"


def target_dir():
    """CARGO_TARGET_DIR (the driver sets it, relative to the checkout it
    runs from) or benchmark/target."""
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR", os.path.join(HERE, "target")))


def child_env():
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    # An input of the engine that is not the benchmark's: pin it to the default.
    env.pop("FLODB_WAL_FOLLOWER_SPIN", None)
    return env


def build(package):
    """Builds one package; cargo's chatter goes to stderr."""
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", MANIFEST, "-p", package]
    done = subprocess.run(cmd, env=child_env(), stdout=sys.stderr)
    if done.returncode != 0:
        sys.exit(2)
    return os.path.join(target_dir(), "release", package)


def run_binary(binary, args):
    """Runs a benchmark binary to its end, echoes its metric lines and
    returns (exit code, its last line parsed)."""
    done = subprocess.run([binary] + args, env=child_env(), stdout=subprocess.PIPE, text=True)
    lines = done.stdout.splitlines()
    if done.returncode not in (0, 1) or not lines:
        sys.exit(2)
    for line in lines[:-1]:
        print(line)
    return done.returncode, json.loads(lines[-1])


def out_dir():
    path = os.path.join(target_dir(), "bench-out")
    os.makedirs(path, exist_ok=True)
    return path


def one_run(workload, seed, seconds, trace, smoke, report=None):
    """One contract run; returns (exit code, result object)."""
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", "1" if trace else "0"]
    if smoke:
        args.append("--smoke")
    if report:
        args += ["--report", report]
    if trace:
        args += ["--spans", os.path.join(out_dir(), "spans-%s.bin" % workload)]
    # Build everything first, so no compiler runs beside a measurement.
    e2e = build(E2E)
    layers = build(LAYERS) if trace else None
    code, result = run_binary(e2e, args)
    if trace:
        _, probes = run_binary(layers, ["--smoke"] if smoke else [])
        result["metrics"].update(probes["metrics"])
    return code, result


def contract(opts):
    code, result = one_run(opts.workload, opts.seed, opts.seconds, opts.trace == 1, opts.smoke)
    print(json.dumps(result))
    return code


def load(path):
    with open(path) as f:
        return json.load(f)


def all_workloads(opts):
    spec = load(SPEC)
    seconds = 2 if opts.smoke else spec["run_seconds"]
    report = {"seed": opts.seed, "smoke": opts.smoke, "seconds": seconds, "workloads": {}}
    worst = 0
    tmp = os.path.join(out_dir(), "last-run.json")
    for trace in ([False, True] if opts.traced else [False]):
        for workload in (w["name"] for w in spec["workloads"]):
            print("== %s%s" % (workload, " (traced)" if trace else ""))
            code, result = one_run(workload, opts.seed, seconds, trace, opts.smoke, tmp)
            worst = max(worst, code)
            detail = load(tmp)
            report.setdefault("machine", detail.pop("machine"))
            entry = report["workloads"].setdefault(workload, {})
            if trace:
                entry["per_layer"] = result["metrics"]
                entry["traced_detail"] = detail
            else:
                entry.update(correct=result["correct"], attempted=result["attempted"],
                             failed=result["failed"], end_to_end=result["metrics"],
                             detail=detail)
    out = opts.out or os.path.join(out_dir(), "report-seed%d.json" % opts.seed)
    with open(out, "w") as f:
        json.dump(report, f, indent=1)
        f.write("\n")
    print("report written to %s" % out)
    return worst


def verdict(a, b, range_a, range_b, better, bound):
    """`same`/`better`/`worse` by the medians against the bound; when a
    side's own window spread exceeds the bound the medians cannot resolve
    that little, so only non-overlapping ranges count, else `unresolved`."""
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (b - a) / abs(a) if a else 0.0
    spread = max((r[1] - r[0]) / abs(m) if m else 0.0 for r, m in ((range_a, a), (range_b, b)))
    if spread <= bound:
        if worse_by > bound:
            return "worse", worse_by, spread
        return ("better" if worse_by < -bound else "same"), worse_by, spread
    if range_a[1] < range_b[0] or range_b[1] < range_a[0]:
        return ("worse" if worse_by > 0 else "better"), worse_by, spread
    return "unresolved", worse_by, spread


def compare(opts):
    spec = load(SPEC)
    a, b = load(opts.a), load(opts.b)
    bad = False
    print("A: %s seed %s rev %s" % (opts.a, a["seed"], a["machine"]["git_rev"][:12]))
    print("B: %s seed %s rev %s" % (opts.b, b["seed"], b["machine"]["git_rev"][:12]))
    head = "%-11s %-12s %12s %12s %8s %18s %18s %6s  %s" % (
        "workload", "metric", "A median", "B median", "B vs A", "A min..max", "B min..max",
        "bound", "verdict")
    print(head)
    for w in (w["name"] for w in spec["workloads"]):
        wa, wb = a["workloads"][w], b["workloads"][w]
        for m in spec["end_to_end"]:
            name = m["name"]
            va, vb = wa["end_to_end"][name]["value"], wb["end_to_end"][name]["value"]
            ra, rb = wa["detail"]["window_range"][name], wb["detail"]["window_range"][name]
            word, worse_by, _ = verdict(va, vb, ra, rb, m["better"], m["bound"])
            bad |= word == "worse"
            print("%-11s %-12s %12.4g %12.4g %+7.1f%% %18s %18s %5.0f%%  %s" % (
                w, name, va, vb, 100 * (vb - va) / va if va else 0.0,
                "%.4g..%.4g" % tuple(ra), "%.4g..%.4g" % tuple(rb), 100 * m["bound"], word))
        fa, fb = wa["failed"] / wa["attempted"], wb["failed"] / wb["attempted"]
        grew = fb > fa
        bad |= grew
        print("%-11s %-12s %12.4g %12.4g %s" % (w, "failed_share", fa, fb,
                                               "LARGER" if grew else "ok"))
    return 1 if bad else 0


def spread_table(spec, runs):
    """`runs[workload]` is a list of result objects. Prints the table and
    returns whether every spread (setup_s aside, as in the driver's check)
    stays within its bound and no run failed."""
    ok = True
    for w in (w["name"] for w in spec["workloads"]):
        failed = sum(r["failed"] for r in runs[w])
        ok &= failed == 0
        print("== %s: %d runs, %d failed operations" % (w, len(runs[w]), failed))
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs[w]]
            median = statistics.median(values)
            q = statistics.quantiles(values, n=4)
            spread = (q[2] - q[0]) / median
            within = spread <= m["bound"] or m["name"] == "setup_s"
            ok &= within
            print("  %-12s median %12.5g  IQR/median %5.1f%%  bound %3.0f%%  %s  [%s]" % (
                m["name"], median, 100 * spread, 100 * m["bound"],
                "ok" if within else "OVER", " ".join("%.5g" % v for v in values)))
    return ok


def sweep(opts):
    spec = load(SPEC)
    runs = {w["name"]: [] for w in spec["workloads"]}
    for seed in range(opts.first_seed, opts.first_seed + opts.runs):
        for w in runs:
            _, result = one_run(w, seed, spec["run_seconds"], False, False)
            runs[w].append(result)
    return 0 if spread_table(spec, runs) else 1


def main():
    if len(sys.argv) > 1 and sys.argv[1] in ("all", "compare", "sweep"):
        parser = argparse.ArgumentParser(prog="run.py", description=__doc__,
                                         formatter_class=argparse.RawDescriptionHelpFormatter)
        sub = parser.add_subparsers(dest="mode", required=True)
        p = sub.add_parser("all")
        p.add_argument("--seed", type=int, default=1)
        p.add_argument("--smoke", action="store_true")
        p.add_argument("--traced", action="store_true")
        p.add_argument("--out")
        p = sub.add_parser("compare")
        p.add_argument("a")
        p.add_argument("b")
        p = sub.add_parser("sweep")
        p.add_argument("--runs", type=int, default=10)
        p.add_argument("--first-seed", type=int, default=1)
        opts = parser.parse_args()
        return {"all": all_workloads, "compare": compare, "sweep": sweep}[opts.mode](opts)
    parser = argparse.ArgumentParser(prog="run.py", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true")
    return contract(parser.parse_args())


if __name__ == "__main__":
    sys.exit(main())
