"""Benchmark of banditlab's fitting and simulation paths.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from a checkout of the repository; the package is imported from its
`src/`.  One workload runs in this process, single-threaded, in whole
rounds (see workloads.py).  Every run, traced or not, does the same fixed
number of rounds, ceil(seconds / nominal round time), so that two commits
time the same operations and a traced run's counts repeat exactly for a
seed.  With --trace 0 the end-to-end metrics are printed; with --trace 1
the spans of tracing.py are recorded and the per-layer metrics printed.
Every run checks the workload's outputs.  The last line of standard output
is one JSON object: correct, attempted, failed and metrics.  Results and
spans are kept under bench/out/.
"""

import time

T0 = time.perf_counter()  # set-up time runs from here

import argparse
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_REPEATS = 3  # set-ups measured per untraced run: this one plus two children

END_TO_END = {"ops_per_s": "ops/s", "setup_s": "s", "peak_rss_mb": "MB"}


def parse_args(argv):
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print the set-up time and exit (used to repeat set-up)")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    return args


def import_package():
    """Import banditlab from this checkout's src/, or exit with status 1."""
    if not (SRC / "banditlab" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'banditlab'} not found; run the benchmark from a "
                 "checkout of the repository")
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401
    import scipy.optimize  # noqa: F401
    import banditlab
    import banditlab.cli  # noqa: F401
    if Path(banditlab.__file__).resolve().parent != SRC / "banditlab":
        sys.exit(f"error: imported banditlab from {banditlab.__file__}, not {SRC}")
    return banditlab


def repeat_setups(args) -> list[float]:
    """Set-up times of fresh processes doing this run's set-up."""
    times = []
    for _ in range(SETUP_REPEATS - 1):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", "0", "--setup-only"]
        res = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        if res.returncode != 0:
            raise RuntimeError(f"set-up child failed: {res.stderr.strip()}")
        times.append(json.loads(res.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def run(args, bl) -> dict:
    import tracing
    from workloads import WORKLOADS

    (OUT / "work").mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT / "work"))
    try:
        cls = WORKLOADS[args.workload]
        rounds = max(cls.min_rounds, math.ceil(args.seconds / cls.round_s))
        wl = cls(bl, work, args.seed, rounds)
        wl.setup()
        setup_s = time.perf_counter() - T0
        if args.setup_only:
            return {"setup_s": setup_s}

        tracer = None
        if args.trace:
            tracer = tracing.Tracer()
            tracing.install(tracer)
        round_times = []
        attempted = failed = 0
        try:
            for r in range(rounds):
                span = tracer.begin("bench.round") if tracer else None
                t = time.perf_counter()
                ok = wl.run_round(r)
                round_times.append(time.perf_counter() - t)
                if tracer:
                    tracer.finish(span)
                attempted += wl.ops_per_round
                if ok:
                    wl.collect(r)
                else:
                    failed += wl.ops_per_round
        finally:
            if tracer:
                tracer.uninstall()
        # the high-water mark of the rounds; collect parses row by row into
        # compact arrays, so it stays below what the scenarios themselves hold
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        busy = sum(round_times)
        ops_per_s = (attempted - failed) / busy

        problems = wl.check()
        for msg in problems:
            print(f"check failed: {msg}", file=sys.stderr)
        fits = wl.fits()
        info = {"workload": args.workload, "seed": args.seed, "rounds": rounds,
                "round_seconds": round_times, "ops_per_s": ops_per_s, "problems": problems[:50]}
        if tracer:
            metrics = tracing.layer_metrics(tracer)
            metrics.update(fit_metrics(bl, fits))
            metrics["trace.ops_per_s"] = ops_per_s
            plain = OUT / "results" / f"{args.workload}-seed{args.seed}-trace0.json"
            if plain.exists():
                # the same rounds, untraced: the gap in ops_per_s is the overhead
                plain_times = json.loads(plain.read_text())["info"]["round_seconds"]
                k = min(len(plain_times), len(round_times))
                info["tracing_overhead"] = 1.0 - sum(plain_times[:k]) / sum(round_times[:k])
                print(f"tracing overhead: {info['tracing_overhead']:.1%} of ops_per_s "
                      f"over {k} matched rounds", file=sys.stderr)
            (OUT / "spans").mkdir(parents=True, exist_ok=True)
            tracer.write(OUT / "spans" / f"{args.workload}-seed{args.seed}.npz", info)
        else:
            setups = [setup_s] + repeat_setups(args)
            info["setup_runs_s"] = setups
            metrics = {"ops_per_s": ops_per_s, "setup_s": statistics.median(setups),
                       "peak_rss_mb": peak_mb}
        units = END_TO_END if not tracer else tracing.PER_LAYER_UNITS
        result = {"correct": not problems, "attempted": attempted, "failed": failed,
                  "metrics": {k: {"value": float(v), "unit": units[k]}
                              for k, v in metrics.items()}}
        (OUT / "results").mkdir(parents=True, exist_ok=True)
        path = OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps({**result, "info": info}, indent=1) + "\n")
        return result
    finally:
        shutil.rmtree(work, ignore_errors=True)


def fit_metrics(bl, fits) -> dict:
    """Fit-quality metrics and the speed of the public `nll` on the run's own
    sessions at their fitted parameters (passes over all fits for >= 0.5 s)."""
    evals = 0
    t = time.perf_counter()
    while fits and time.perf_counter() - t < 0.5:
        for fam, params, session, _ in fits:
            bl.nll(fam, params, session)
        evals += len(fits)
    elapsed = time.perf_counter() - t
    return {"fitting.nll.evals_per_s": evals / elapsed if fits else 0.0,
            "fitting.beta_at_cap": sum(p["beta"] == bl.fitting.BETA_MAX
                                       for _, p, _, _ in fits),
            "fitting.fit_nll_sum": sum(n for *_, n in fits)}


def main(argv=None) -> int:
    args = parse_args(argv)
    bl = import_package()
    result = run(args, bl)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
