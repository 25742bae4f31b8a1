"""Benchmark of the wst package: three workloads, end-to-end metrics or a per-layer trace.

    python3 bench/run.py --workload loss_long --seed 1 --seconds 25 --trace 0

Run from the root of a checkout. The program is imported from ``src/`` of that
checkout and only its public functions are called. The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``. ``--workload all`` runs each workload in its own
process, one after the other. See bench/README.md for the workloads, the
metrics and reference figures.
"""

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"
BLAS_THREADS = "1"
SETUP_REPEATS = 21
NAMES = ("train_mixed50", "loss_long", "loss_wide_vocab")


def pin_threads() -> None:
    # Must run before numpy is imported. One thread: the toy model's matrices
    # are too small to gain from more, and a single thread is steadier on a
    # shared machine.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS


def import_wst():
    """Import ``wst`` afresh from this checkout's ``src/``."""
    for name in [m for m in sys.modules if m == "wst" or m.startswith("wst.")]:
        del sys.modules[name]
    wst = importlib.import_module("wst")
    if SRC.resolve() not in Path(wst.__file__).resolve().parents:
        raise ImportError(f"wst was imported from {wst.__file__}, not from {SRC}")
    return wst


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6  # ru_maxrss is KiB


def setup(workload, seed: int):
    """Import wst and make the inputs SETUP_REPEATS times; the median time is setup_s."""
    times = []
    for _ in range(SETUP_REPEATS):
        gc.collect()  # no garbage from the previous repeat is collected inside the timing
        start = time.perf_counter()
        wst = import_wst()
        inputs = workload.setup(wst, seed)
        times.append(time.perf_counter() - start)
    return wst, inputs, statistics.median(times)


def measure(workload, wst, inputs, seconds: float, tracer=None):
    """Warm-up rounds, then whole rounds until ``seconds`` have passed.

    With a tracer, every second measured round is traced. Returns the warm-up,
    untraced and traced rounds; the warm-up rounds are checked but not timed.
    """
    warm = [workload.run_round(wst, inputs) for _ in range(workload.warmup_rounds)]
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        trace_this = tracer is not None and len(plain) > len(traced)
        gc.collect()
        if trace_this:
            tracer.install()
        try:
            rnd = workload.run_round(wst, inputs)
        finally:
            if trace_this:
                tracer.uninstall()
        (traced if trace_this else plain).append(rnd)
        if time.perf_counter() - start >= seconds and (tracer is None or traced):
            return warm, plain, traced


def end_to_end(rounds, setup_s: float, peak_mb: float) -> dict:
    def rate(crit):
        return statistics.median(r.items[crit] / r.seconds[crit] for r in rounds)

    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "wall_s": {"value": statistics.median(r.wall_s for r in rounds), "unit": "s"},
        "rnnt_items_per_s": {"value": rate("rnnt"), "unit": "items/s"},
        "wst_items_per_s": {"value": rate("wst"), "unit": "items/s"},
        "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
    }


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    pin_threads()
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    import tracing
    import workloads
    from reference import CheckFailed

    workload = workloads.WORKLOADS[name]
    wst, inputs, setup_s = setup(workload, seed)
    tracer = tracing.Tracer() if trace else None
    warm, plain, traced = measure(workload, wst, inputs, seconds, tracer)
    peak_mb = peak_rss_mb()  # before the checks, whose lattices are not part of the workload

    rounds = warm + plain + traced
    problems = [p for r in rounds for p in r.problems]
    try:
        workload.check(wst, inputs, rounds)
    except CheckFailed as exc:
        problems.append(str(exc))
    for p in problems:
        print(f"CHECK FAILED [{name}]: {p}", file=sys.stderr)
    complete = [r for r in plain if len(r.seconds) == len(workloads.CRITERIA)]
    if trace:
        overhead = (statistics.median(r.wall_s for r in traced)
                    - statistics.median(r.wall_s for r in plain))
        metrics = tracing.layer_metrics(tracer, len(traced), wst.ExperimentConfig().batch_size, overhead)
        for target in tracer.missing:
            print(f"trace: {target} no longer exists; metrics that need it are missing", file=sys.stderr)
        write_json(f"trace_{name}_seed{seed}.json", tracing.trace_record(tracer))
    elif complete:
        metrics = end_to_end(complete, setup_s, peak_mb)
    else:
        metrics = {}
    return {
        "correct": not problems,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": metrics,
    }


def write_json(filename: str, data) -> None:
    OUT.mkdir(exist_ok=True)
    with open(OUT / filename, "w") as fh:
        json.dump(data, fh)


def run_all(seed: int, seconds: float, trace: bool) -> dict:
    """Each workload in its own process, so each reports its own peak memory."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            stdout=subprocess.PIPE, text=True, check=True)
        print(proc.stdout, end="")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    return merged


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "wst" / "__init__.py").is_file():
        print(f"error: no wst package under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, bool(args.trace))
    else:
        result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
        write_json(f"result_{args.workload}_seed{args.seed}_trace{args.trace}.json", result)
        for metric, m in result["metrics"].items():
            print(f"{args.workload} {metric} = {m['value']:.6g} {m['unit']}")
        print(f"{args.workload} attempted={result['attempted']} failed={result['failed']} "
              f"correct={result['correct']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
