#!/usr/bin/env python3
"""Benchmark runner for the distributed deductive engine.

Runs one workload for a wall-clock budget. Every repetition is a fresh
process of the deduce_perfbench binary, which this script builds from the
checkout's src/ on first use (into .bench_build/). Every repetition is
checked against the centralized oracle, and at the default seed against
the counters pinned in expect.json. The script prints every metric by name
with its unit, then one JSON line:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1
reports its per-layer metrics, from traced repetitions interleaved with
untraced ones (the pair gives bench.trace_overhead).

Usage:
  python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                           [--trace 0|1]
  python3 perfbench/run.py --selftest   # a tampered expectation must fail
  python3 perfbench/run.py --pin        # rewrite expect.json's counters
"""

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "deduce_perfbench"
EXPECT = HERE / "expect.json"

BUILD_JOBS = 3
BUILD_TIMEOUT_S = 850
# A measuring run ends within this many seconds of its first repetition,
# even when a repetition hangs.
RUN_LIMIT_S = 170
MIN_UNTRACED_REPS = 3
MiB = 1024.0 * 1024.0

# Counters that must repeat exactly for one seed: a change in any of them
# is a behaviour change, never a speed-up. Those in PINNED are also fixed
# in expect.json for the default seed.
PINNED = ("hops", "bytes", "results", "replicas", "sim_events",
          "hotspot_max_msgs")
DETERMINISTIC = PINNED + ("updates", "hotspot_msgs", "derivations", "max_node_replicas",
                          "join_passes", "pass_messages", "results_emitted",
                          "frames_coalesced", "hops_store", "hops_sweep",
                          "hops_result", "backlog_max", "topology_draws")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail(msg, code=2):
    log("perfbench: " + msg)
    sys.exit(code)


def load_json(path):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def build():
    """Configures once, then builds incrementally; exits on failure."""
    if not (ROOT / "src" / "deduce").is_dir():
        fail("no sources at src/deduce; run from the root of a checkout")
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    log_path = BUILD_DIR.parent / "perfbench-build.log"
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", str(BUILD_JOBS),
                  "--target", "deduce_perfbench"])
    with open(log_path, "w") as out:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                                    timeout=BUILD_TIMEOUT_S).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                fail(f"build failed: {e}", 1)
            if rc != 0:
                tail = log_path.read_text().splitlines()[-30:]
                log("\n".join(tail))
                fail(f"build failed (log: {log_path})", 1)


def run_rep(workload, seed, traced, run_id, timeout=RUN_LIMIT_S):
    """One repetition in a fresh process; None if it crashed or hung."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--run-id", str(run_id)]
    if traced:
        ledger_dir = BUILD_DIR.parent / "ledger"
        ledger_dir.mkdir(parents=True, exist_ok=True)
        cmd += ["--traced", "--ledger",
                str(ledger_dir / f"{workload}-s{seed}-r{run_id}.jsonl")]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        log(f"{workload}: repetition {run_id} timed out")
        return None
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        log(f"{workload}: repetition {run_id} exited {proc.returncode}")
        return None
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        log(f"{workload}: repetition {run_id} printed no result")
        return None


def failed_updates(rep, reference, pinned, updates):
    """Updates of `rep` that count as failed (all of them when the run as
    a whole is wrong)."""
    if rep is None:
        return updates
    c = rep["counts"]
    problems = []
    if c["engine_errors"]:
        problems.append(f"{c['engine_errors']} engine errors")
    if not c["oracle_match"]:
        problems.append(f"{c['results']} results, oracle has "
                        f"{c['oracle_results']}")
    if rep.get("layers", {}).get("twin.hops", c["hops"]) != c["hops"]:
        problems.append("observability sinks changed the hop count")
    for key in DETERMINISTIC:
        if reference is not None and c[key] != reference["counts"][key]:
            problems.append(f"{key} {c[key]} differs from an earlier "
                            f"repetition's {reference['counts'][key]}")
    for key, want in (pinned or {}).items():
        if c.get(key) != want:
            problems.append(f"{key} {c.get(key)} != pinned {want}")
    if problems:
        log(f"{rep['workload']}: incorrect run: " + "; ".join(problems))
        return c["updates"]
    return c["inject_failed"]


def median(values):
    return statistics.median(values) if values else 0.0


def middle_mean(values):
    """Mean of the middle half of `values` (the median for up to four).
    Like the median it ignores the host's slow outliers, but it averages
    more repetitions, so it spreads less from run to run."""
    v = sorted(values)
    cut = (len(v) + 1) // 4
    return statistics.mean(v[cut:len(v) - cut])


def end_to_end(reps, attempted, failed):
    counts = reps[0]["counts"]
    timings = [r["timings"] for r in reps]
    return {
        "setup_s": middle_mean([t["setup_s"] for t in timings]),
        "updates_per_s": counts["updates"] / middle_mean(
            [t["loop_s"] for t in timings]),
        "total_s": middle_mean([t["total_s"] for t in timings]),
        "peak_rss_mib": median([t["peak_rss_mib"] for t in timings]),
        "hops_per_update": counts["hops"] / counts["updates"],
        "hotspot_msgs": counts["hotspot_msgs"],
        "ok_share": 1.0 - failed / attempted,
    }


def per_layer(traced, untraced):
    names = traced[0]["layers"].keys()
    out = {n: median([r["layers"][n] for r in traced]) for n in names}
    counts = traced[0]["counts"]
    out["engine.runtime.replicas"] = counts["replicas"]
    out["engine.runtime.max_node_replicas"] = counts["max_node_replicas"]
    out["engine.runtime.derivations"] = counts["derivations"]
    out["engine.runtime.bytes_per_replica"] = median([
        (r["timings"]["rss_quiesce_mib"] - r["timings"]["rss_setup_mib"]) *
        MiB / r["counts"]["replicas"] for r in untraced])
    out["engine.join_passes"] = counts["join_passes"]
    out["engine.pass_messages"] = counts["pass_messages"]
    out["engine.results_emitted"] = counts["results_emitted"]
    out["bench.trace_overhead"] = (
        median([r["timings"]["total_s"] for r in traced]) /
        median([r["timings"]["total_s"] for r in untraced]) - 1.0)
    return out


def ledger_table(traced):
    """Median total and self time per span name over traced repetitions."""
    rows = {}
    for rep in traced:
        for row in rep["ledger"]:
            rows.setdefault(row["name"], []).append(row)
    lines = [f"{'span':<16} {'spans':>7} {'total_s':>10} {'self_s':>10}"]
    for name, rs in rows.items():
        lines.append(f"{name:<16} {rs[0]['spans']:>7} "
                     f"{median([r['total_s'] for r in rs]):>10.4f} "
                     f"{median([r['self_s'] for r in rs]):>10.4f}")
    return "\n".join(lines)


def measure(workload, seed, seconds, trace, expect):
    """Runs repetitions for `seconds` and returns the result object."""
    pinned = None
    if seed == expect["default_seed"]:
        pinned = expect["pinned"].get(workload)
    untraced, traced = [], []
    durations = {False: [], True: []}
    attempted = failed = 0
    reference = None
    start = time.monotonic()
    run_id = 0
    while True:
        elapsed = time.monotonic() - start
        if trace:
            minimum = untraced and traced
            want_traced = len(traced) < len(untraced)
        else:
            minimum = len(untraced) >= MIN_UNTRACED_REPS
            want_traced = False
        # Past the minimum, start another repetition only if the run then
        # ends closer to `seconds`, so a run takes `seconds` on average.
        expected = median(durations[want_traced])
        if minimum and elapsed + expected / 2 >= seconds:
            break
        rep_start = time.monotonic()
        rep = run_rep(workload, seed, want_traced, run_id,
                      max(1.0, RUN_LIMIT_S - elapsed))
        durations[want_traced].append(time.monotonic() - rep_start)
        run_id += 1
        updates = rep["counts"]["updates"] if rep else (
            reference["counts"]["updates"] if reference else 1)
        attempted += updates
        failed += failed_updates(rep, reference, pinned, updates)
        if rep is None:
            break  # a crashed or hung binary is not run again
        if reference is None:
            reference = rep
        (traced if want_traced else untraced).append(rep)
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed}
    if not untraced or (trace and not traced):
        result["correct"] = False
        return result
    if trace:
        print(ledger_table(traced))
        result["values"] = per_layer(traced, untraced)
    else:
        result["values"] = end_to_end(untraced, attempted, failed)
    result["reps"] = {"untraced": len(untraced), "traced": len(traced)}
    return result


def report(result, spec_metrics):
    metrics = {}
    values = result.pop("values", {})
    reps = result.pop("reps", None)
    for m in spec_metrics:
        if m["name"] not in values:
            continue
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{m['name']:<36} {values[m['name']]:>16.6g} {m['unit']}")
    if reps:
        print(f"repetitions: {reps['untraced']} untraced, "
              f"{reps['traced']} traced; fail_share "
              f"{result['failed'] / max(result['attempted'], 1):g}")
    if values and len(metrics) != len(spec_metrics):
        missing = [m["name"] for m in spec_metrics if m["name"] not in values]
        log("perfbench: metrics missing from the run: " + ", ".join(missing))
        result["correct"] = False
    result["metrics"] = metrics
    print(json.dumps(result), flush=True)


def selftest(expect):
    """The correctness gate must reject a run whose expectation was
    tampered with, and accept the untampered one."""
    workload = "dense-window"
    seed = expect["default_seed"]
    pristine = measure(workload, seed, 0, 0, expect)
    tampered = json.loads(json.dumps(expect))
    tampered["pinned"][workload]["hops"] += 1
    broken = measure(workload, seed, 0, 0, tampered)
    ok = (pristine["correct"] and not broken["correct"] and
          broken["failed"] == broken["attempted"] > 0)
    print(f"selftest: pristine correct={pristine['correct']}, tampered "
          f"correct={broken['correct']} failed={broken['failed']}/"
          f"{broken['attempted']}: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def pin(expect, workloads):
    for workload in workloads:
        rep = run_rep(workload, expect["default_seed"], False, 0)
        if rep is None or failed_updates(rep, None, None, 1):
            fail(f"{workload}: cannot pin an incorrect run", 1)
        expect["pinned"][workload] = {k: rep["counts"][k] for k in PINNED}
    EXPECT.write_text(json.dumps(expect, indent=2) + "\n")
    print(f"pinned {', '.join(workloads)} in {EXPECT}")
    return 0


def main():
    spec = load_json(ROOT / "BENCHMARK.json")
    expect = load_json(EXPECT)
    # BENCHMARK.json lists the gated workloads; any workload with pinned
    # counters can be run by name.
    workloads = list(expect["pinned"])
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads)
    parser.add_argument("--seed", type=int, default=expect["default_seed"])
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--pin", action="store_true")
    args = parser.parse_args()
    if not (args.workload or args.selftest or args.pin):
        parser.error("--workload, --selftest or --pin is required")
    if shutil.which("cmake") is None:
        fail("cmake is not installed", 1)
    build()
    if args.selftest:
        return selftest(expect)
    if args.pin:
        return pin(expect, workloads)
    result = measure(args.workload, args.seed, args.seconds, args.trace,
                     expect)
    report(result, spec["per_layer" if args.trace else "end_to_end"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
