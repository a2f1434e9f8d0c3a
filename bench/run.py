"""rvqkit benchmark: one workload per process, one JSON result line.

    python3 bench/run.py --workload codec-euclid --seed 1 --seconds 42 --trace 0

Run from the root of a checkout; the rvqkit under test is imported from its
`src/`. The last line of stdout is a JSON object with `correct`, `attempted`,
`failed` and `metrics`. With `--trace 0` the metrics are the end-to-end ones;
with `--trace 1` they are the per-layer ones of the traced rounds, plus the
tracing overhead. See bench/README.md for what each workload and metric is.
"""

import os

# One BLAS thread for every run, on any machine: OpenBLAS would otherwise
# spread `train` over however many cores are free at the time. Set before
# numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import sys
import tempfile
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETUP_REPEATS = 5

# End-to-end metrics sampled in every round, each reported as the median of
# its samples in the rounds after the first: name -> unit. Every time is
# scaled to a fixed machine speed (see clock.py).
END_TO_END = {
    "round_s": "s",
    "batch_fps": "frames/s",
    "step_fps": "frames/s",
    "read_fps": "frames/s",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run(args, workload_cls) -> dict:
    import clock
    from tracing import Tracer
    from workloads import Harness

    os.makedirs(os.path.join(ROOT, "bench", "_work"), exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=os.path.join(ROOT, "bench", "_work"))
    try:
        harness = Harness(work)
        workload = workload_cls(harness, args.seed)
        setups = []
        for _ in range(SETUP_REPEATS):
            setups.append(clock.timed(workload.setup)[0])
        harness.attempted = harness.failed = 0

        # Whole rounds run while the next one, as long as the last, still ends
        # within the measured time; at least three. The first round is the one
        # whose outputs are checked, and the first at full size: later rounds
        # run at a steadier speed, so only their samples are reported. A traced
        # run alternates traced and untraced rounds after the first, so that
        # the overhead is measured in the same process.
        tracer = Tracer() if args.trace else None
        rounds = []  # (traced, samples)
        start = round_start = perf_counter()
        while True:
            traced = tracer is not None and len(rounds) % 2 == 1
            if traced:
                harness.tracer = tracer
                tracer.install()
            try:
                samples = workload.run_round(first=not rounds)
            finally:
                if traced:
                    tracer.uninstall()
                    harness.tracer = None
            rounds.append((traced, samples))
            print(f"round {len(rounds)}{' traced' if traced else ''}: "
                  + " ".join(f"{k}={v:.6g}" for k, vs in samples.items() for v in vs), file=sys.stderr)
            if harness.failed:
                break
            now = perf_counter()
            elapsed, last_round = now - start, now - round_start
            if elapsed + last_round > args.seconds and len(rounds) >= 3:
                break
            round_start = now
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = {"correct": not harness.errors, "attempted": harness.attempted, "failed": harness.failed}
    for error in harness.errors:
        print(f"check failed: {error}", file=sys.stderr)
    if harness.failed:
        result["metrics"] = {}
        return result
    if tracer is None:
        metrics = {
            name: (statistics.median([v for _, s in rounds[1:] for v in s[name]]), unit)
            for name, unit in END_TO_END.items()
        }
        metrics["setup_s"] = (statistics.median(setups), "s")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    else:
        plain = [s["round_s"][0] for traced, s in rounds[1:] if not traced]
        timed = [s["round_s"][0] for traced, s in rounds if traced]
        overhead = 100.0 * (statistics.median(timed) / statistics.median(plain) - 1.0)
        metrics = tracer.metrics(len(timed), overhead)
        tracer.write(os.path.join(ROOT, "bench", "_traces", f"{args.workload}-seed{args.seed}.jsonl"))
    result["metrics"] = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    return result


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "rvqkit", "__init__.py")):
        print(f"error: no rvqkit sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    result = run(args, WORKLOADS[args.workload])
    print(json.dumps(result))
    return 0 if result["metrics"] else 1


if __name__ == "__main__":
    sys.exit(main())
