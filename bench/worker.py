"""One workload in one process: set up, run whole passes, check every case.

Started by ``run.py`` with BLAS pinned to one thread. Prints one JSON line:
set-up seconds, the median pass and the slowest case's median (or, in a
traced run, the per-layer numbers), operations attempted and failed, whether
the run is correct, and peak resident memory. Set-up, pass and case times
are scaled to the reference speed of ``speed.py``. The run is correct when
every failing case fails on every pass from the program fault its case
names. Failed cases and their problems go to stderr.
"""

import time

_T0 = time.perf_counter()

import argparse
import gc
import json
import os
import random
import resource
import statistics
import sys


def _import_program(root: str) -> None:
    """Import pharmonic from the checkout's src/, never from anywhere else."""
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import numpy  # noqa: F401
    import scipy.sparse.linalg  # noqa: F401
    import pharmonic

    here = os.path.realpath(os.path.dirname(pharmonic.__file__))
    if os.path.commonpath([here, os.path.realpath(src)]) != os.path.realpath(src):
        raise SystemExit(f"pharmonic was imported from {here}, not from {src}")


def run_case(case, tracer=None):
    """One timed run of a case (traced when a tracer is given) between two
    runs of the reference kernel, then its untimed check; returns (seconds
    at the reference speed, raw seconds, problems)."""
    import speed

    gc.collect()
    before = speed.kernel_time()
    if tracer is not None:
        tracer.install()
    start = time.perf_counter()
    try:
        result = case.run()
        error = None
    except Exception as exc:  # a raising case is a failed operation, not a crashed benchmark
        result, error = None, f"raised {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    if tracer is not None:
        tracer.uninstall()
        if case.report_path and os.path.exists(case.report_path):
            tracer.counts["cli.report_bytes"] += os.path.getsize(case.report_path)
    after = speed.kernel_time()
    problems = [error] if error else case.check(result)
    return speed.scale(elapsed, before, after), elapsed, problems


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    _import_program(args.root)
    import workloads

    out_root = os.path.join(args.root, "bench", "out")
    os.makedirs(out_root, exist_ok=True)
    cases = workloads.WORKLOADS[args.workload](os.path.join(out_root, args.workload))
    setup_raw = time.perf_counter() - _T0
    import speed

    speed.warm_up()
    kernel = statistics.median(speed.kernel_time() for _ in range(3))
    setup_s = speed.scale(setup_raw, kernel, kernel)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    rng = random.Random(args.seed)
    failures = {}
    outcomes = set()  # the set of failed case names of each kind of run (untraced, traced) of each pass
    counts = {"attempted": 0, "failed": 0, "passes": 0}

    def one_pass(tracer=None):
        """Every case once in a shuffled order; with a tracer, every case
        untraced and traced, back to back, so that drift of the host's speed
        cancels out of their difference. Which of the two goes first
        alternates from case to case, so that a warmer second run favours
        neither. Returns per-case seconds of the untraced runs and, with a
        tracer, of the traced runs."""
        order = list(range(len(cases)))
        rng.shuffle(order)
        tracers = [None] if tracer is None else [None, tracer]
        times = [[(0.0, 0.0)] * len(cases) for _ in tracers]
        failing = [set() for _ in tracers]
        for pos, idx in enumerate(order):
            case = cases[idx]
            if tracer is not None:
                tracer.case_id = [counts["passes"], case.name]
            runs = list(enumerate(tracers))
            for k, t in runs[::-1] if pos % 2 else runs:
                scaled, raw, problems = run_case(case, t)
                times[k][idx] = (scaled, raw)
                counts["attempted"] += 1
                if problems:
                    failures.setdefault(case.name, problems)
                    failing[k].add(case.name)
                    counts["failed"] += 1
        outcomes.update(frozenset(names) for names in failing)
        counts["passes"] += 1
        return times

    def repeat(body):
        """Whole rounds of body; another starts while it is expected to end within --seconds."""
        rounds = []
        start = time.perf_counter()
        while not rounds or (time.perf_counter() - start) * (1 + 1 / len(rounds)) <= args.seconds:
            rounds.append(body())
        return rounds

    result = {"setup_s": setup_s}
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        rounds = repeat(lambda: one_pass(tracer))
        layers = tracer.metrics(len(rounds))
        layers["trace.overhead_s"] = statistics.median(
            sum(s for s, _ in traced) - sum(s for s, _ in plain) for plain, traced in rounds
        )
        result["layers"] = layers
        trace_path = os.path.join(out_root, f"trace-{args.workload}-seed{args.seed}.jsonl")
        tracer.write(trace_path)
        print(f"trace: {len(tracer.spans)} spans -> {trace_path}", file=sys.stderr)
        if tracer.absent:
            print(f"trace: absent functions: {', '.join(tracer.absent)}", file=sys.stderr)
    else:
        case_times = [times for (times,) in repeat(one_pass)]
        per_case = [statistics.median(s for s, _ in col) for col in zip(*case_times)]
        slowest = max(range(len(cases)), key=per_case.__getitem__)
        result["wall_scaled_s"] = statistics.median(sum(s for s, _ in times) for times in case_times)
        result["wall_raw_s"] = statistics.median(sum(r for _, r in times) for times in case_times)
        result["slowest_case_scaled_s"] = per_case[slowest]
        result["slowest_case"] = cases[slowest].name

    known = {case.name: case.known_fault for case in cases}
    unexpected = sorted(name for name in failures if known[name] is None)
    unsteady = len(outcomes) > 1  # a case failed on some runs and not on others
    # a case fixed since the expected failures were listed leaves the run correct
    result["correct"] = not unexpected and not unsteady
    result["passes"] = counts["passes"]
    result["attempted"] = counts["attempted"]
    result["failed"] = counts["failed"]
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for name, problems in sorted(failures.items()):
        fault = f" [expected: {known[name]}]" if known[name] else " [UNEXPECTED]"
        print(f"FAILED {name}{fault}: {'; '.join(problems)}", file=sys.stderr)
    if unsteady:
        print("UNSTEADY: a case failed on some runs but not on others", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
