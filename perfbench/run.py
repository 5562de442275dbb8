#!/usr/bin/env python3
"""Runs one prtr benchmark workload and prints its result.

    python3 perfbench/run.py --workload fig9_sweep --seed 1 --seconds 10 --trace 0

On first use it builds perfbench/ (the prtr library from src/ plus the
prtr_perfbench program) into $CARGO_TARGET_DIR, default .bench_build at
the repository root.
Then it runs prtr_perfbench, forwards its report lines (every metric by name
and unit) and prints one JSON object as the last line: correct, attempted,
failed and metrics. With --trace 0 the metrics are the end-to-end ones, and
setup_s is the median set-up CPU time of several processes. With --trace 1
they are the per-layer ones, and the spans go to <build dir>/traces/.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fig9_sweep", "fleet_steady", "fleet_chaos_surge")
SETUP_SAMPLES = 15  # processes whose set-up time feeds the setup_s median
CHILD_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def run_quiet(cmd):
    done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True, check=False)
    if done.returncode != 0:
        sys.stderr.write(done.stdout)
        fail(f"{' '.join(cmd)} exited {done.returncode}")


def build(out):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no prtr sources under {ROOT}/src: run from a full checkout")
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", HERE, "-B", out,
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    run_quiet(["cmake", "--build", out, "--target", "prtr_perfbench", "-j", jobs])
    return os.path.join(out, "prtr_perfbench")


def drive(binary, args):
    """Runs prtr_perfbench; returns (exit code, report lines, result or None)."""
    done = subprocess.run([binary, *args], stdout=subprocess.PIPE, text=True,
                          timeout=CHILD_TIMEOUT_S, check=False)
    lines = done.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
            lines = lines[:-1]
        except ValueError:
            pass
    return done.returncode, lines, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    out = build_dir()
    binary = build(out)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace),
              "--spec-dir", os.path.join(ROOT, "examples", "fleet"),
              "--digests", os.path.join(HERE, "digests.txt")]

    setup = []
    if args.trace == 0:
        for _ in range(SETUP_SAMPLES - 1):
            code, _, result = drive(binary, common + ["--setup-only"])
            if code != 0 or result is None:
                fail(f"set-up of {args.workload} exited {code}")
            setup.append(result["setup_s"])
    else:
        traces = os.path.join(out, "traces")
        os.makedirs(traces, exist_ok=True)
        common += ["--trace-out",
                   os.path.join(traces, f"{args.workload}-seed{args.seed}.json")]

    code, lines, result = drive(binary, common)
    for line in lines:
        print(line)
    if result is None:
        fail(f"{args.workload} exited {code} without a result")
    setup.append(result["setup_s"])

    metrics = result["metrics"]
    if args.trace == 0:
        print("setup_s samples: " + " ".join(f"{s:.6f}" for s in setup))
        metrics = {"setup_s": {"value": statistics.median(setup), "unit": "s"},
                   **metrics}
    correct = bool(result["correct"]) and code == 0
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
