#!/usr/bin/env python3
"""Build the benchmark and run one workload of it.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The script builds the `perfbench` package
(release profile, offline) into $CARGO_TARGET_DIR, or `.bench_build` when
that is unset, and runs it. It prints the host fingerprint, the
program's full result (every metric the workload measured, its digests
and check details), and, as the last line, the result restricted to the
metrics BENCHMARK.json lists: the end-to-end metrics with `--trace 0`,
the per-layer metrics with `--trace 1`. It exits non-zero without that
last line if the build or the run fails or a listed metric is missing.
"""

import argparse
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = os.path.join(HERE, os.pardir, "BENCHMARK.json")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def host_fingerprint():
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    rustc = subprocess.run(["rustc", "--version"], capture_output=True, text=True)
    return {
        "cores": os.cpu_count(),
        "cpu_model": model,
        "rustc": rustc.stdout.strip() or "unknown",
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    try:
        with open(SPEC) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"workload {args.workload} is not listed in BENCHMARK.json")
    listed = spec["end_to_end" if args.trace == "0" else "per_layer"]

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr)
    if build.returncode != 0:
        fail("build failed")

    print("host " + json.dumps(host_fingerprint()), flush=True)
    run = subprocess.run(
        [os.path.join(target, "release", "perfbench"),
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", repr(args.seconds), "--trace", args.trace],
        stdout=subprocess.PIPE, text=True)
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        fail(f"run failed with exit code {run.returncode}")
    full = json.loads(lines[-1])
    print("full " + lines[-1], flush=True)

    metrics = {}
    for m in listed:
        got = full["metrics"].get(m["name"])
        if got is None:
            fail(f"{args.workload} did not measure {m['name']}")
        if got["unit"] != m["unit"]:
            fail(f"{m['name']} measured in {got['unit']}, listed in {m['unit']}")
        metrics[m["name"]] = got
    print(json.dumps({
        "correct": full["correct"],
        "attempted": full["attempted"],
        "failed": full["failed"],
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
