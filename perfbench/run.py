"""qbarrier benchmark: run one workload in a child process and report its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The child imports ``qbarrier`` from ``src``
with ``OPENBLAS_NUM_THREADS=1`` and ``PYTHONHASHSEED=0``.  Workload names,
metric names and units come from BENCHMARK.json.  With ``--trace 0`` the
end-to-end metrics are reported, with ``--trace 1`` the per-layer ones.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the full result, with machine
facts and check notes, is also written under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD_TIMEOUT_S = 170
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one qbarrier benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="input size relative to the benchmark's; below 1 only for the benchmark's tests")
    args = parser.parse_args(argv)

    if not os.path.isfile("BENCHMARK.json"):
        return fail("BENCHMARK.json not found; run from the repository root")
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        return fail(f"unknown workload {args.workload!r}")
    if not os.path.isfile(os.path.join("src", "qbarrier", "cli.py")):
        return fail("no qbarrier sources under src/qbarrier; run from a checkout of the repository")

    env = dict(os.environ, **CHILD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.abspath("src"), env.get("PYTHONPATH")]))
    cmd = [sys.executable, os.path.join(HERE, "workloads.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scale", str(args.scale)]
    # a session of its own, so a timeout can stop the CLI processes the child started too
    with subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True, start_new_session=True) as child:
        try:
            stdout, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            child.communicate()
            return fail(f"workload {args.workload} did not finish within {CHILD_TIMEOUT_S} s")
    if child.returncode != 0 or not stdout.strip():
        return fail(f"workload {args.workload} exited {child.returncode}")
    result = json.loads(stdout.strip().splitlines()[-1])

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    source = result["layers"] if args.trace else result
    missing = [m["name"] for m in wanted if m["name"] not in source]
    if missing:
        return fail(f"workload {args.workload} did not report {', '.join(missing)}")
    metrics = {m["name"]: {"value": source[m["name"]], "unit": m["unit"]} for m in wanted}

    summarize(args, result, metrics)
    os.makedirs(".perfbench_out", exist_ok=True)
    path = os.path.join(".perfbench_out", f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"args": vars(args), "env": CHILD_ENV, **result, "metrics": metrics}, fh,
                  indent=1, sort_keys=True)
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


def summarize(args, result: dict, metrics: dict) -> None:
    """Human-readable lines ahead of the JSON result."""
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print("machine " + json.dumps(result["machine"], sort_keys=True))
    print("env " + json.dumps(CHILD_ENV, sort_keys=True))
    for name, metric in metrics.items():
        print(f"  {name:<48} {metric['value']:.6g} {metric['unit']}")
    print(f"  {'failed_ratio':<48} {result['failed'] / result['attempted']:.6g}"
          f" ({result['failed']} failed of {result['attempted']} {result['failed_unit']};"
          f" {result['incorrect']} of them wrong answers)")
    if not args.trace:
        print(f"  cmd_tail_s is p{result['cmd_tail_percentile']:.4g} of {result['cmd_samples']} command"
              f" latencies, each the median of {result['passes']} timed passes")
    else:
        print(f"  tracing overhead {100 * result['layers']['perfbench.trace_overhead_ratio']:.1f}%"
              " of the untraced pass time")
    for note in result["notes"]:
        print(f"  check: {note}")


if __name__ == "__main__":
    sys.exit(main())
