"""Benchmark entry point; run it from the root of a checkout:

    python3 bench/run.py --workload marked-solve --seed 1 --seconds 20 --trace 0

Workloads: marked-solve, big-ball, probe-cli (see bench/README.md). Each
run starts the workload in its own worker process with BLAS pinned to one
thread, plus a few set-up-only workers for the set-up time. The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of a traced run with ``--trace 1``. Any other outcome
(missing program, crashed worker, timeout) exits non-zero without a result.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("marked-solve", "big-ball", "probe-cli")
SETUP_PROBES = 8  # set-up-only workers; with the main worker's own, setup_s is a median of 9
PINNED = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}

END_TO_END_UNITS = {"setup_s": "s", "wall_scaled_s": "s", "slowest_case_scaled_s": "s", "peak_rss_mib": "MiB"}


def _worker(argv, env, root, timeout):
    """Run one worker to its end and return its JSON line, or None on failure."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), "--root", root] + argv,
        cwd=root, env=env, capture_output=True, text=True, timeout=timeout,
    )
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"bench: worker exited with code {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "bytes" if name.endswith("_bytes") else "count"


def main() -> int:
    parser = argparse.ArgumentParser(description="pharmonic benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    # whole passes may overrun --seconds by about one pass plus its checks
    deadline = time.monotonic() + 2 * args.seconds + 60
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "pharmonic", "__init__.py")):
        print(f"bench: no pharmonic sources under {root}/src; run from the repository root", file=sys.stderr)
        return 2
    env = dict(os.environ, **PINNED)
    base = ["--workload", args.workload, "--seed", str(args.seed)]

    try:
        setups = []
        for _ in range(SETUP_PROBES):
            probe = _worker(base + ["--setup-only"], env, root, deadline - time.monotonic())
            if probe is None:
                return 1
            setups.append(probe["setup_s"])
        argv = base + ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        result = _worker(argv, env, root, deadline - time.monotonic())
    except subprocess.TimeoutExpired:
        print("bench: worker timed out", file=sys.stderr)
        return 1
    if result is None:
        return 1
    setups.append(result["setup_s"])

    if args.trace:
        metrics = {name: {"value": value, "unit": _unit(name)} for name, value in result["layers"].items()}
    else:
        values = {
            "setup_s": statistics.median(setups),
            "wall_scaled_s": result["wall_scaled_s"],
            "slowest_case_scaled_s": result["slowest_case_scaled_s"],
            "peak_rss_mib": result["peak_rss_mib"],
        }
        metrics = {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in values.items()}
        print(
            f"bench: {args.workload} seed {args.seed}: {result['passes']} passes, "
            f"raw median pass {result['wall_raw_s']:.3f} s, slowest case {result['slowest_case']}",
            file=sys.stderr,
        )
    if not result["correct"]:
        print("bench: a case failed unexpectedly or unsteadily; see FAILED and UNSTEADY above", file=sys.stderr)
    out = {"correct": result["correct"], "attempted": result["attempted"], "failed": result["failed"], "metrics": metrics}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
