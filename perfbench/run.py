#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds the
library sources under src/ together with the benchmark (perfbench/src/) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); later runs only
rebuild what changed. Everything the binary prints goes through; its last
line, the result object, is printed last and only after its metric names and
units were checked against BENCHMARK.json (end_to_end with --trace 0,
per_layer with --trace 1). Each result is also appended, with the core count,
to .bench_out/results.jsonl.

Exit status: the binary's (0 = every output check passed, 1 = a check
failed), or 1 when the build fails, the binary fails or times out, or its
result does not match BENCHMARK.json; no result line is printed then.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        command = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            command += ["-G", "Ninja"]
        if subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            fail("configure failed")
    command = ["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1)]
    if subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "perfbench")


def check_result(line, expected):
    try:
        result = json.loads(line)
    except ValueError:
        return None, "last line is not a JSON object"
    keys = ["attempted", "correct", "failed", "metrics"]
    if not isinstance(result, dict) or sorted(result) != keys:
        return None, "result keys differ"
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in expected}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(n for n in set(got) & set(want) if got[n] != want[n])
        return None, "metrics differ from BENCHMARK.json: missing %s, extra %s, units %s" % (
            missing, extra, units)
    return result, None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        benchmark = json.load(f)

    binary = build()
    command = [binary, "--workload=" + args.workload, "--seed=%d" % args.seed,
               "--seconds=%d" % args.seconds, "--trace=%d" % args.trace]
    process = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    timed_out = threading.Event()

    def kill():
        timed_out.set()
        process.kill()

    watchdog = threading.Timer(RUN_TIMEOUT_S, kill)
    watchdog.start()
    last = None
    # Hold the newest line back: it may be the result, printed last.
    for line in process.stdout:
        if last is not None:
            sys.stdout.write(last)
            sys.stdout.flush()
        last = line
    process.wait()
    watchdog.cancel()
    if timed_out.is_set():
        fail("timed out after %d s" % RUN_TIMEOUT_S)
    if process.returncode not in (0, 1) or last is None:
        if last is not None:
            sys.stdout.write(last)
        fail("benchmark exited with status %d" % process.returncode)

    expected = benchmark["per_layer"] if args.trace else benchmark["end_to_end"]
    result, error = check_result(last, expected)
    if error:
        sys.stdout.write(last)
        fail(error)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "nproc": os.cpu_count(), "result": result}
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    with open(os.path.join(ROOT, ".bench_out", "results.jsonl"), "a") as f:
        f.write(json.dumps(record) + "\n")
    sys.stdout.write(last)
    sys.stdout.flush()
    sys.exit(process.returncode)


if __name__ == "__main__":
    main()
