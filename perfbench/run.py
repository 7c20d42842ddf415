"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload steady --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  Builds perfbench/main.exe with dune
(outputs stay in the checkout's _build/), runs it with the given arguments,
and checks that its result line names exactly the metrics BENCHMARK.json
lists for the mode: the end-to-end ones untraced, the per-layer ones traced.
The last line of standard output is the result object.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    result = json.loads(line)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"unexpected result keys {sorted(result)}")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = expected_metrics(trace)
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(n for n in set(got) & set(want) if got[n] != want[n])
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}, units {wrong}")


def main():
    args = sys.argv[1:]
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("--trace", default="0")
    trace = parser.parse_known_args(args)[0].trace == "1"
    for needed in ("dune-project", "lib", "perfbench/dune"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"{needed} not found under {ROOT}: run from a full checkout")
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "--display", "quiet", "./perfbench/main.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    if build.returncode != 0:
        fail("build failed")
    exe = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
    run = subprocess.run([exe] + args, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                         timeout=RUN_TIMEOUT_S)
    if run.returncode != 0:
        fail(f"benchmark exited with code {run.returncode}")
    lines = run.stdout.strip().splitlines()
    if not lines:
        fail("no result printed")
    check_result(lines[-1], trace)
    sys.stdout.write(run.stdout)


if __name__ == "__main__":
    main()
