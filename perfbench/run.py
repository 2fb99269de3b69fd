#!/usr/bin/env python3
"""The repository benchmark: one command per (workload, seed) run.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Builds the e2esync libraries, the shipped
`e2e` CLI and the `perfbench` driver from source into `.bench_build/`
(first run only; later runs are a no-op rebuild), runs the driver, checks
its answers against the pins in perfbench/expected.json and against the
shipped CLI, and prints every metric by name with its unit. The last line
of standard output is the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`--trace 0` reports the end-to-end metrics of BENCHMARK.json, `--trace 1`
its per-layer metrics. `python3 perfbench/run.py --write-pins` recomputes
expected.json through the reference (full-recompute) paths. See
perfbench/README.md.
"""

import argparse
import concurrent.futures
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
DRIVER = os.path.join(BUILD, "perfbench")
CLI = os.path.join(BUILD, "e2e_tools", "e2e")
EXPECTED = os.path.join(HERE, "expected.json")
WORKLOADS = ["admit-pm-churn", "sim-fault-ladder"]
# Pinned self-check instances: the workloads, plus admit-ds-grow and
# analysis-grid, which only the traced run measures.
PIN_SETS = WORKLOADS + ["admit-ds-grow", "analysis-grid"]

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 150
CLI_TIMEOUT_S = 60


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def clean_env():
    # The E2E_* variables change the program's defaults; the benchmark
    # states every setting itself.
    return {k: v for k, v in os.environ.items() if not k.startswith("E2E_")}


def run(cmd, timeout, check=True):
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=clean_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("timed out after %ds: %s" % (timeout, " ".join(cmd)))
    if check and done.returncode != 0:
        sys.stderr.write(done.stderr[-4000:])
        fail("exit code %d: %s" % (done.returncode, " ".join(cmd)))
    return done


def jobs():
    return max(1, min(4, os.cpu_count() or 1))


def build():
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        run(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            BUILD_TIMEOUT_S)
    run(["cmake", "--build", BUILD, "-j", str(jobs()), "--target", "perfbench", "e2e"],
        BUILD_TIMEOUT_S)


def driver(args, timeout=RUN_TIMEOUT_S):
    done = run([DRIVER] + args, timeout)
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail("driver printed nothing")
    return json.loads(lines[-1])


def pins_of(result):
    """{pin set: {key: value}} from the driver's "pin.<set>.<key>" strings."""
    pins = {}
    for key, value in result["strings"].items():
        if key.startswith("pin."):
            name, field = key[len("pin."):].split(".", 1)
            pins.setdefault(name, {})[field] = value
    return pins


def write_pins():
    pins = {}
    for name in PIN_SETS:
        result = driver(["--pin", "--workload", name])
        if result["failed"]:
            fail("pin run of %s failed its own checks: %s" % (name, result["problems"]))
        pins.update(pins_of(result))
    with open(EXPECTED, "w") as out:
        json.dump(pins, out, indent=2, sort_keys=True)
        out.write("\n")
    print("wrote " + os.path.relpath(EXPECTED, ROOT))


def check_pins(result, problems):
    """Compares the self-check instances with the pins; returns failed ops."""
    with open(EXPECTED) as f:
        pinned = json.load(f)
    failed = 0
    for name, observed in pins_of(result).items():
        wrong = sorted(k for k, v in pinned[name].items() if observed.get(k) != v)
        if wrong:
            problems.append("%s: pinned answers differ: %s" % (name, ", ".join(wrong)))
            failed += int(pinned[name]["requests"])
    return failed


def cli_runs(commands):
    """Runs the CLI cross-checks, a few at a time; returns their results."""
    with concurrent.futures.ThreadPoolExecutor(max_workers=jobs()) as pool:
        return list(pool.map(lambda cmd: run(cmd, CLI_TIMEOUT_S, check=False), commands))


def cross_check_admission(result, problems):
    """Feeds every generated stream to the shipped `e2e admit`."""
    s = result["strings"]
    lists = result["lists"]
    done = cli_runs([[CLI, "admit", path, "--policy=" + s["policy"],
                      "--processors=" + s["processors"], "--report=json"]
                     for path in lists["stream_paths"]])
    failed = 0
    for j, (cli, ours, counts) in enumerate(zip(done, lists["stream_hashes"],
                                               lists["stream_counts"])):
        requests, admitted, rejected, removed, errors = (int(x) for x in counts.split())
        summary = json.loads(cli.stdout)["summary"] if cli.stdout.strip() else {}
        # `e2e admit` exits 2 whenever the stream has errors (unknown-task
        # removes are part of every churn stream), so its error count is
        # compared instead of treating that exit status as a failure.
        agree = (cli.returncode == (2 if errors else 0) and
                 int(summary.get("result_hash", "-1"), 16) == int(ours, 16) and
                 [summary.get(k) for k in ("requests", "admitted", "rejected", "removed",
                                           "errors")] ==
                 [requests, admitted, rejected, removed, errors])
        if not agree:
            failed += requests
            problems.append("stream %d disagrees with `e2e admit`" % j)
    return failed


def cross_check_sim(result, problems):
    """Runs every generated spec through `e2e run`, at two threads."""
    lists = result["lists"]
    done = cli_runs([[CLI, "run", path, "--report=json", "--threads=2"]
                     for path in lists["spec_paths"]])
    failed = 0
    for i, (cli, ours) in enumerate(zip(done, lists["cell_hashes"])):
        cells = json.loads(cli.stdout)["cells"] if cli.returncode == 0 else []
        theirs = ["%s/%s=%016x" % (c["severity"], c["protocol"], int(c["schedule_hash"], 16))
                  for c in cells]
        ours = ours.split()
        wrong = sum(1 for a, b in zip(theirs, ours) if a != b) + abs(len(theirs) - len(ours))
        if wrong:
            failed += wrong
            problems.append("pass %d: %d cells disagree with `e2e run`" % (i, wrong))
    return failed


CROSS_CHECKS = {
    "admit-pm-churn": cross_check_admission,
    "sim-fault-ladder": cross_check_sim,
}

# Per-workload names of the workload-independent end-to-end metrics,
# printed beside them (README.md, "End-to-end metrics").
ALIASES = {
    "admit-pm-churn": {"latency_p50_us": "admit_p50_us", "latency_p99_us": "admit_p99_us",
                       "throughput_per_s": "requests_per_s"},
    "sim-fault-ladder": {"throughput_per_s": "sim_events_per_s",
                         "latency_p50_us": "run_p50_us", "latency_p99_us": "run_p99_us"},
}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--write-pins", action="store_true")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    build()
    if args.write_pins:
        write_pins()
        return
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    out_dir = os.path.join(BUILD, "work", "%s-%d-%d" % (args.workload, args.seed, args.trace))
    result = driver(["--workload", args.workload, "--seed", str(args.seed),
                     "--seconds", repr(args.seconds), "--trace", str(args.trace),
                     "--out", out_dir])
    problems = list(result["problems"])
    failed = int(result["failed"])
    attempted = int(result["attempted"])
    failed += check_pins(result, problems)
    if args.trace == 0:
        failed += CROSS_CHECKS[args.workload](result, problems)
        # The generated inputs are large (tens of MB for admit-pm-churn);
        # a traced run keeps its span file.
        shutil.rmtree(out_dir)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for entry in wanted:
        if entry["name"] not in result["metrics"]:
            fail("driver did not report metric " + entry["name"])
        metrics[entry["name"]] = {"value": result["metrics"][entry["name"]],
                                  "unit": entry["unit"]}

    print("workload %s  seed %d  trace %d  (%d operations checked, %d failed)"
          % (args.workload, args.seed, args.trace, attempted, failed))
    for problem in problems:
        print("  problem: " + problem)
    aliases = {} if args.trace else ALIASES[args.workload]
    for name, m in metrics.items():
        alias = aliases.get(name)
        print("  %-44s %16.6g %-6s%s" % (name, m["value"], m["unit"],
                                         "  (" + alias + ")" if alias else ""))
    if not args.trace:
        print("  %-44s %16.6g %-6s" % ("failed_frac", failed / max(attempted, 1), "1"))
        extra = {"admit-pm-churn": ["remove_p99_us"],
                 "sim-fault-ladder": ["wall_p50_us", "wall_p99_us"]}[args.workload]
        for name in extra:
            print("  %-44s %16.6g %-6s" % (name, result["metrics"][name], "us"))
    print(json.dumps({"correct": failed == 0 and not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
