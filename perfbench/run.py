#!/usr/bin/env python3
"""Build and run the volcast benchmark.

    python3 perfbench/run.py --workload crowd16 --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --smoke

Builds perfbench/ (which compiles the volcast library from the enclosing
checkout) as a Release tree under $CARGO_TARGET_DIR, or .bench_build when
that is unset, then runs the driver. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}. Lines
before it carry host provenance and the result digest. Every metric is
checked against BENCHMARK.json (name and unit) before the result is
printed; a mismatch, a failed build or a crashed driver exits non-zero
without printing a result.

Workloads are those of BENCHMARK.json plus crowd16, a radio-bound workload
kept for hand runs (see perfbench/interaction_map.json for why it is not
in BENCHMARK.json).

--smoke runs every workload at a tiny size with --trace 0 and --trace 1 and
checks that each metric named in BENCHMARK.json is emitted with its unit,
that the correctness gate passes, and that perfbench/interaction_map.json
covers every per-layer metric.
"""

import argparse
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def build():
    """Configures (once) and builds the driver; returns its path. The
    CMake package refuses any build type but Release."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no volcast sources next to perfbench/; run from a checkout")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    log = sys.stderr
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        r = subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=log, stderr=log)
        if r.returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    r = subprocess.run(
        ["cmake", "--build", build_dir, "-j", jobs,
         "--target", "volcast_perfbench"],
        stdout=log, stderr=log)
    if r.returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "volcast_perfbench")


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def run_driver(binary, workload, seed, seconds, trace, smoke=False):
    """Runs the driver; returns (output lines, parsed result)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if smoke:
        cmd.append("--smoke")
    try:
        r = subprocess.run(cmd, capture_output=True, text=True,
                           timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: driver exceeded {RUN_TIMEOUT_S} s")
    sys.stderr.write(r.stderr)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        fail(f"{workload}: driver exited with {r.returncode}")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail(f"{workload}: last line is not a JSON result")
    return lines, result


def check_metrics(spec, result, trace):
    """Every metric BENCHMARK.json names for this mode, with its unit, and
    nothing else."""
    wanted = spec["per_layer" if trace else "end_to_end"]
    got = result.get("metrics", {})
    problems = []
    for m in wanted:
        entry = got.get(m["name"])
        if entry is None:
            problems.append(f"missing {m['name']}")
        elif entry.get("unit") != m["unit"]:
            problems.append(f"{m['name']}: unit {entry.get('unit')!r}, "
                            f"BENCHMARK.json says {m['unit']!r}")
        elif not isinstance(entry.get("value"), (int, float)):
            problems.append(f"{m['name']}: value is not a number")
    extra = set(got) - {m["name"] for m in wanted}
    problems += [f"unexpected metric {name}" for name in sorted(extra)]
    return problems


def load_map():
    with open(os.path.join(HERE, "interaction_map.json")) as f:
        return json.load(f)


def check_interaction_map(spec, doc):
    """perfbench/interaction_map.json must cover every per-layer metric and
    every BENCHMARK.json workload, and name only end-to-end metrics and
    workloads that exist."""
    e2e = {m["name"] for m in spec["end_to_end"]}
    workloads = set(doc["workloads"])
    problems = []
    if not {w["name"] for w in spec["workloads"]} <= workloads:
        problems.append("map lacks a BENCHMARK.json workload")
    entries = doc["per_layer"]
    for m in spec["per_layer"]:
        entry = entries.get(m["name"])
        if entry is None:
            problems.append(f"map lacks {m['name']}")
            continue
        for ref in entry["moves"] + entry["unchanged"]:
            if ref["metric"] not in e2e or ref["workload"] not in workloads:
                problems.append(f"map entry {m['name']} names {ref}")
    extra = set(entries) - {m["name"] for m in spec["per_layer"]}
    problems += [f"map names unknown metric {name}" for name in sorted(extra)]
    return problems


def smoke(spec, doc, binary):
    problems = check_interaction_map(spec, doc)
    print("smoke interaction map: " + ("; ".join(problems) or "ok"))
    ok = not problems
    for name in doc["workloads"]:
        for trace in (0, 1):
            _, result = run_driver(binary, name, 1, 0, trace, smoke=True)
            problems = check_metrics(spec, result, trace)
            if not result.get("correct") or result.get("failed"):
                problems.append("correctness gate failed")
            status = "ok" if not problems else "; ".join(problems)
            print(f"smoke {name} --trace {trace}: {status}")
            ok = ok and not problems
    print("smoke: " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    spec = load_spec()
    doc = load_map()
    if not args.smoke and args.workload not in doc["workloads"]:
        fail(f"--workload must be one of {', '.join(doc['workloads'])}")
    binary = build()
    if args.smoke:
        return smoke(spec, doc, binary)

    lines, result = run_driver(binary, args.workload, args.seed,
                               args.seconds, args.trace)
    problems = check_metrics(spec, result, args.trace)
    if problems:
        fail("; ".join(problems))
    print(json.dumps({"host": {"nproc": os.cpu_count(),
                               "machine": platform.machine(),
                               "git_commit": git_commit()}}))
    for line in lines:
        print(line)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
