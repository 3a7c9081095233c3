#!/usr/bin/env python3
"""Request-level benchmark of the monomap mapping service.

Run from the repository root:

    python3 perfbench/run.py --workload paper-grids --seed 1 --seconds 40 --trace 0

Builds the mapper and the benchmark binary from source (CMake, into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench), runs one
workload, checks every returned mapping, compares per-request effort
counters across passes and against the previous run of the same workload
and seed, and prints a readable report followed by one JSON result line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end_to_end metrics of BENCHMARK.json, --trace 1 the
per_layer ones. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN_LIMIT_S = 170.0
# Set-up-only launches made before the measured run and again after it;
# setup_s is the median over them and the run, so one moment's host speed
# does not set it.
SETUP_LAUNCHES = 10


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "perfbench")


def build(out_dir):
    """Configure once, then build incrementally. Returns the binary path."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", out_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", out_dir, "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(out_dir, "perfbench_replay")


def tree_digest(top):
    """Digest of the files under `top` that build or run the benchmark;
    documentation (*.md) does not change what is measured."""
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(top):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".md"):
                continue
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()[:16]


def source_identity():
    """Commit id when the checkout is a git repository, and digests of
    src/ and of the benchmark that identify the code measured either way."""
    commit = "none"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"], check=True,
                capture_output=True, text=True, timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {"commit": commit,
            "source_digest": tree_digest(os.path.join(ROOT, "src")),
            "bench_digest": tree_digest(BENCH_DIR)}


def launch(cmd, timeout):
    """Run the binary; returns (last stdout line as JSON, set-up seconds).
    time.monotonic() and the binary's steady_clock both read
    CLOCK_MONOTONIC, so set-up runs from just before the process starts to
    the binary's ready_s: process start, input generation (which builds
    the suite) and service construction."""
    launched = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        log(proc.stderr.strip())
        raise RuntimeError("perfbench_replay exited with %d"
                           % proc.returncode)
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    return report, report.pop("ready_s") - launched


def cpu_ticks():
    """(steal, total) jiffies from /proc/stat, or None off Linux. Steal is
    time the hypervisor ran someone else on this machine's CPUs."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return fields[7] if len(fields) > 7 else 0, sum(fields)


def keyed(requests, fields=None):
    """Effort rows keyed by problem and occurrence: the k-th request for a
    problem is the same request in every pass over the same stream, and in
    every run of the same workload and seed. `fields` keeps a prefix of
    (outcome, ii, schedules_tried, space_truncated, sat_calls)."""
    seen = {}
    out = {}
    for row in requests:
        k = seen.get(row[0], 0)
        seen[row[0]] = k + 1
        out["%s#%d" % (row[0], k)] = row[1:][:fields]
    return out


def effort_diffs(a, b, fields=None):
    """Requests present in both lists whose outcome or effort counters
    differ."""
    a, b = keyed(a, fields), keyed(b, fields)
    return [{"problem": k, "a": a[k], "b": b[k]}
            for k in a if k in b and a[k] != b[k]]


def determinism(report, record_path, digest):
    """Within a run: every pass against the first pass of its kind, and
    each traced pass against the untraced pass of the same requests on the
    fields the wire carries (outcome, ii, schedules_tried). Across runs:
    every request of the run against the last run of this workload, seed
    and source."""
    found = {}
    by_kind = {}
    for p in report["effort"]:
        by_kind.setdefault(p["traced"], []).append(p["requests"])

    def note(diffs):
        for d in diffs:
            found.setdefault(d["problem"], d)

    for passes in by_kind.values():
        for later in passes[1:]:
            note(effort_diffs(passes[0], later))
    for plain, traced in zip(by_kind.get(False, []), by_kind.get(True, [])):
        note(effort_diffs(plain, traced, fields=3))
    run = {str(k): [row for p in v for row in p] for k, v in by_kind.items()}
    previous = None
    if os.path.exists(record_path):
        with open(record_path) as f:
            previous = json.load(f)
    if previous and previous.get("digest") == digest:
        for kind, rows in run.items():
            note(effort_diffs(previous.get("runs", {}).get(kind, []), rows))
    os.makedirs(os.path.dirname(record_path), exist_ok=True)
    with open(record_path, "w") as f:
        json.dump({"digest": digest, "runs": run}, f)
    return list(found.values())


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    # BENCHMARK.json lists the gated workloads; perfbench_replay also runs
    # serve-mix and fabric-64 (see README.md) and rejects unknown names.
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    out_dir = build_dir()
    try:
        binary = build(out_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        log("perfbench: build failed: %s" % e)
        return 1
    started = time.monotonic()
    identity = source_identity()

    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    spans = os.path.join(out_dir, "traces", tag + ".jsonl")
    os.makedirs(os.path.dirname(spans), exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--spans", spans]
    def set_up():
        return [launch(cmd + ["--setup-only", "1"], 30)[1]
                for _ in range(SETUP_LAUNCHES)]

    try:
        setups = set_up()
        budget = max(10.0, RUN_LIMIT_S - 15 - (time.monotonic() - started))
        ticks_before = cpu_ticks()
        report, setup = launch(cmd, budget)
        ticks_after = cpu_ticks()
        setups += set_up()
    except subprocess.TimeoutExpired:
        log("perfbench: run exceeded its time limit")
        return 1
    except (OSError, RuntimeError, ValueError, KeyError) as e:
        log("perfbench: %s" % e)
        return 1
    e2e = report["end_to_end"]
    e2e["setup_s"] = statistics.median(setups + [setup])
    report["env"].update(identity, seed=args.seed)
    if ticks_before and ticks_after and ticks_after[1] > ticks_before[1]:
        report["env"]["steal_share"] = round(
            (ticks_after[0] - ticks_before[0]) /
            (ticks_after[1] - ticks_before[1]), 4)
    with open(os.path.join(out_dir, "traces", tag + ".report.json"), "w") as f:
        json.dump(report, f)

    diffs = determinism(report, os.path.join(out_dir, "effort", tag + ".json"),
                        identity["source_digest"] + identity["bench_digest"])
    layers = report["layers"]
    values = layers if args.trace else e2e
    invalid = e2e["invalid_share"]
    correct = bool(report["correct"]) and invalid == 0

    print("env " + json.dumps(report["env"], sort_keys=True))
    print("workload %s seed %d: %d passes, %d client(s), %d worker(s)"
          % (report["workload"], args.seed, report["passes"],
             report["clients"], report["workers"]))
    for m in spec["end_to_end"]:
        print("  %-24s %14.6g %s" % (m["name"], e2e[m["name"]], m["unit"]))
    print("  %-24s %14.6g share (must be 0; %d mappings checked)"
          % ("invalid_share", invalid, e2e["mappings_checked"]))
    print("  tail = p%.2f of %d samples (%d beyond)"
          % (e2e["latency_ms.tail_percentile"], e2e["samples"],
             e2e["latency_ms.tail_beyond"]))
    print("  memo_field_mismatches %d" % e2e["memo_field_mismatches"])
    if args.trace:
        for m in spec["per_layer"]:
            print("  %-34s %14.6g %s" % (m["name"], layers[m["name"]],
                                         m["unit"]))
    print("determinism: %d request(s) with differing effort counters"
          % len(diffs))
    for d in diffs[:20]:
        print("  %s: %s vs %s" % (d["problem"], d["a"], d["b"]))
    for e in report["errors"]:
        print("  invalid: %s" % e)

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    print(json.dumps({"correct": correct, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
