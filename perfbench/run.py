"""Run one girthlab benchmark workload and print its metrics.

    python3 perfbench/run.py --workload extremal-search --seed 42 \
        --seconds 40 --trace 0

Run it from the root of a checkout; girthlab is imported from ``src/`` and
nothing needs building. It uses one process and one thread, and leaves the
searches on their default serial path.

With ``--trace 0`` it reports the end-to-end metrics: ``wall_s``, the mean
time of one pass with every output checked; ``setup_s``, the median time of
fresh interpreters that import girthlab and build the workload's inputs; and
``peak_rss_mb``, the peak resident memory of this process. Both times are
scaled to the host's reference speed (``workloads.reference_work``). With
``--trace 1`` it alternates untraced and traced passes on the run's seed and
reports the per-layer metrics of ``layers.py``. Either way every output is
checked against ``goldens.json``; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. Traced runs write their spans to ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
TRACE_DIR = BENCH_DIR.parent / ".perfbench"
SETUP_REPEATS = 7


def import_girthlab():
    """Put the checkout's girthlab first on the path, or stop."""
    if not (SRC / "girthlab" / "__init__.py").is_file():
        sys.exit(f"run.py: no girthlab source under {SRC}")
    sys.path.insert(0, str(SRC))
    import girthlab

    if Path(girthlab.__file__).resolve().parent != SRC / "girthlab":
        sys.exit(f"run.py: imported girthlab from {girthlab.__file__}, "
                 f"not from {SRC}")


def unit_of(name: str) -> str:
    if name == "peak_rss_mb":
        return "MiB"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    return "count"


def measure_setup(workload: str, seed: int) -> float:
    """Median over fresh interpreters of their time, divided by the host's
    slowdown measured between them, as in ``run_untraced``."""
    import workloads

    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           workload, "--seed", str(seed), "--setup-only"]
    times = []
    references = [workloads.timed(workloads.reference_work)]
    for _ in range(SETUP_REPEATS):
        # no timeout: with one, the wait polls and rounds times up to 50 ms
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
        references.append(workloads.timed(workloads.reference_work))
    return statistics.median(times) / workloads.slowdown(references)


def run_untraced(workload: str, seed: int, seconds: float, tally) -> dict:
    """Passes, each on inputs of its own, until the time is up. The host's
    speed drifts by up to a factor of two over seconds to minutes, so a
    pass's time, the sum over its operations, is divided by the host's
    slowdown measured between them (``workloads.slowdown``). The run
    reports the mean pass, the expected time of a pass over the seeds its
    inputs are drawn from."""
    import workloads

    setup, run_pass = workloads.WORKLOADS[workload]
    goldens = workloads.load_goldens()
    inputs = setup(seed)
    walls = []
    scaled = []
    workloads.Pass.calibrate = True
    start = time.perf_counter()
    try:
        while not walls or (time.perf_counter() - start
                            + statistics.mean(walls) <= seconds):
            t0 = time.perf_counter()
            p = run_pass(inputs[len(walls) % len(inputs)], goldens)
            walls.append(time.perf_counter() - t0)
            tally.merge(p)
            scaled.append(sum(p.times.values())
                          / workloads.slowdown(p.references))
    finally:
        workloads.Pass.calibrate = False
    print(f"{len(walls)} passes, seconds: "
          + " ".join(f"{w:.3f}" for w in walls) + "; at reference speed: "
          + " ".join(f"{w:.3f}" for w in scaled))
    return {"wall_s": statistics.mean(scaled)}


def run_traced(workload: str, seed: int, seconds: float, tally) -> dict:
    """After one warm-up pass, pairs of an untraced and a traced pass on the
    run's own seed. Times are medians over pairs; counts must repeat exactly
    in every pair."""
    import workloads
    from layers import Tracer

    setup, run_pass = workloads.WORKLOADS[workload]
    goldens = workloads.load_goldens()
    inp = setup(seed)[0]
    tracer = Tracer()
    pairs = []
    kept_spans = None
    start = time.perf_counter()
    tally.merge(run_pass(inp, goldens))
    warm = time.perf_counter()
    while not pairs or (time.perf_counter() - start + (time.perf_counter()
                        - warm) / len(pairs) <= seconds):
        t0 = time.perf_counter()
        plain = run_pass(inp, goldens)
        untraced = time.perf_counter() - t0
        tracer.reset()
        tracer.install()
        try:
            t0 = time.perf_counter()
            traced = run_pass(inp, goldens)
            wall = time.perf_counter() - t0
        finally:
            tracer.uninstall()
        tally.merge(plain)
        tally.merge(traced)
        tally.check("traced outputs equal untraced outputs",
                    lambda: traced.outputs == plain.outputs, bool)
        m = tracer.layer_metrics(wall)
        m["trace.overhead_s"] = wall - untraced
        if pairs:
            counts = {k for k in m if unit_of(k) in ("count", "ratio")}
            tally.check("layer counts repeat in every traced pass",
                        lambda: all(m[k] == pairs[0][k] for k in counts), bool)
        else:
            kept_spans = list(tracer.spans)
        pairs.append(m)
    TRACE_DIR.mkdir(exist_ok=True)
    (TRACE_DIR / f"{workload}-seed{seed}.json").write_text(json.dumps(
        {"workload": workload, "seed": seed, "missing": tracer.missing,
         "spans": kept_spans}))
    for name in tracer.missing:
        print(f"wrapped function no longer exists: {name}")
    return {k: statistics.median(m[k] for m in pairs)
            if unit_of(k) in ("s", "1/s") else pairs[0][k]
            for k in pairs[0]}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="import girthlab, build the inputs and exit; "
                    "setup_s times this")
    args = ap.parse_args()

    import_girthlab()
    sys.path.insert(0, str(BENCH_DIR))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; pick one of "
                 f"{', '.join(workloads.WORKLOADS)}")
    if args.setup_only:
        workloads.load_goldens()
        workloads.WORKLOADS[args.workload][0](args.seed)
        return 0

    tally = workloads.Pass()
    if args.trace:
        metrics = run_traced(args.workload, args.seed, args.seconds, tally)
        metrics["failed_frac"] = len(tally.failures) / tally.attempted
    else:
        setup_s = measure_setup(args.workload, args.seed)
        metrics = run_untraced(args.workload, args.seed, args.seconds, tally)
        metrics["setup_s"] = setup_s
        # ru_maxrss is in KiB on Linux
        metrics["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024
    for failure in tally.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed}: {tally.attempted} operations, "
          f"{len(tally.failures)} failed "
          f"(failed_frac {len(tally.failures) / tally.attempted})")
    for name, value in metrics.items():
        print(f"  {name:36s} {value!r} {unit_of(name)}")
    print(json.dumps({
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
