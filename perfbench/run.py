#!/usr/bin/env python3
"""The libvaq benchmark: one command for every workload.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload compile-cold --seed 1 \
        --seconds 30 --trace 0 [--out result.json]
    python3 perfbench/run.py --compare A.json B.json

The first run builds libvaq, vaqd and the runner (vaqbench) from the
checkout's own sources into .bench_build/ (Release); later runs only
rebuild what changed. Each run prints a report line (provenance,
machine block, sample counts, per-metric detail) and then, as its
last line, the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list. --compare prints two saved reports side
by side and refuses (exit 2) when their machine blocks differ.
"""

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")

WORKLOADS = ("compile-cold", "serve-drift", "mc-pst")
# A seed no tuning used: a later claim must also hold on it.
HELD_OUT_SEED = 90_211
BUILD_TIMEOUT = 850
RUN_TIMEOUT = 175


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configure once, then build vaqd and vaqbench incrementally."""
    log_path = os.path.join(BUILD, "build.log")
    os.makedirs(BUILD, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "vaqd",
                  "vaqbench", "-j", "4"])
    with open(log_path, "w") as log:
        for step in steps:
            try:
                code = subprocess.run(step, stdout=log, stderr=log,
                                      cwd=ROOT,
                                      timeout=BUILD_TIMEOUT).returncode
            except subprocess.TimeoutExpired:
                fail("build timed out; see " + log_path)
            if code != 0:
                fail("build failed; see " + log_path)


def cache_value(key):
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as cache:
            for line in cache:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return None


def compiler():
    files = os.path.join(BUILD, "CMakeFiles")
    for entry in sorted(os.listdir(files)):
        path = os.path.join(files, entry, "CMakeCXXCompiler.cmake")
        if os.path.exists(path):
            text = open(path).read()
            ident = re.search(r'CMAKE_CXX_COMPILER_ID "([^"]*)"', text)
            version = re.search(r'CMAKE_CXX_COMPILER_VERSION "([^"]*)"',
                                text)
            if ident and version:
                return ident.group(1) + " " + version.group(1)
    return None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def source_digest():
    """sha256 over the program and benchmark sources, so two results
    name the exact code they measured even outside a git checkout."""
    digest = hashlib.sha256()
    for top in ("src", "tools", "bench", "perfbench"):
        for base, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def commit():
    # Only a checkout's own repository: git would otherwise search the
    # parent directories.
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def machine_block():
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "compiler": compiler(),
        "build_type": cache_value("CMAKE_BUILD_TYPE"),
    }


def declared(trace):
    """BENCHMARK.json's metrics for the trace mode, after checking that
    layers.json tags exactly its per_layer metrics."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    with open(os.path.join(HERE, "layers.json")) as handle:
        tags = json.load(handle)
    differ = set(tags) ^ {m["name"] for m in bench["per_layer"]}
    if differ:
        fail("layers.json and BENCHMARK.json per_layer differ on %s"
             % sorted(differ))
    return bench["per_layer" if trace else "end_to_end"], tags


def run(args):
    wanted, tags = declared(args.trace == 1)
    build()
    tmp = os.path.join(BUILD, "tmp", str(os.getpid()))
    command = [os.path.join(BUILD, "vaqbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--vaqd", os.path.join(BUILD, "tools", "vaqd"),
               "--tmp", tmp]
    try:
        proc = subprocess.run(command, capture_output=True, text=True,
                              cwd=ROOT, timeout=RUN_TIMEOUT)
    except subprocess.TimeoutExpired:
        fail("vaqbench did not finish in %d s" % RUN_TIMEOUT)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        fail("vaqbench exited with status %d" % proc.returncode)
    result = json.loads(lines[-1])

    names = [m["name"] for m in wanted]
    if sorted(names) != sorted(result["metrics"]):
        fail("metrics %s do not match BENCHMARK.json %s"
             % (sorted(result["metrics"]), sorted(names)))
    for metric in wanted:
        if result["metrics"][metric["name"]]["unit"] != metric["unit"]:
            fail("unit of %s differs from BENCHMARK.json" % metric["name"])

    report = {
        "workload": args.workload,
        "trace": args.trace,
        "machine": machine_block(),
        "provenance": {
            "commit": commit(),
            "source_digest": source_digest(),
            "seed": args.seed,
            "held_out_seed": HELD_OUT_SEED,
            "seconds": args.seconds,
            "offered_rate": result["detail"].get("offered_rate"),
            "vaqd_flags": result["detail"].get("vaqd_flags"),
        },
        "detail": result["detail"],
        "failures": result["failures"],
        "metrics": result["metrics"],
    }
    if args.trace == 1:
        report["layer_tags"] = tags
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(report, handle, indent=1, sort_keys=True)
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: result["metrics"][name] for name in names},
    }))


def compare(path_a, path_b):
    with open(path_a) as a_file, open(path_b) as b_file:
        a, b = json.load(a_file), json.load(b_file)
    if a["machine"] != b["machine"]:
        print("refused: machine blocks differ\n  %s\n  %s"
              % (json.dumps(a["machine"]), json.dumps(b["machine"])))
        sys.exit(2)
    if (a["workload"], a["trace"]) != (b["workload"], b["trace"]):
        print("refused: different workloads or trace modes")
        sys.exit(2)
    print("%-34s %16s %16s %9s" % ("metric", "A", "B", "B/A"))
    for name, entry in a["metrics"].items():
        if name not in b["metrics"]:
            continue
        va, vb = entry["value"], b["metrics"][name]["value"]
        ratio = "%9.3f" % (vb / va) if va else "%9s" % "-"
        print("%-34s %16.6g %16.6g %s  %s"
              % (name, va, vb, ratio, entry["unit"]))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the report here")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args()
    if args.compare:
        compare(*args.compare)
    elif args.workload:
        run(args)
    else:
        parser.error("--workload or --compare is required")


if __name__ == "__main__":
    main()
