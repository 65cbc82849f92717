"""coharq benchmark: three workloads, end-to-end metrics, traced layer metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload outage_sweep_k2 --seed 1 --seconds 20 --trace 0

Workloads: outage_sweep_k2, energy_gap_k3, rate_optimize (see workloads.py).
Inputs (master seeds, SNR offsets) are generated from --seed; coharq only
receives configs. Everything runs in this one process with n_jobs=1 and
single-threaded BLAS; set-up is timed in fresh interpreters.

The number of repetitions is fixed by --seconds and the workload's typical
repetition time (repetitions()), not by the clock, so a seed always gives
the same inputs and the same operations attempted and failed.

--trace 0 prints the end-to-end metrics: after one warm-up repetition,
the repetitions run untraced. Every time is taken next to a fixed
reference loop and reported at the reference's nominal speed
(workloads.REF_NOMINAL_S), which cancels the machine's slow phases.
Workload timings sum, over the operations of a repetition, each
operation's median over the repetitions (workloads.summarize); set-up time
is the median of SETUP_RUNS fresh interpreters, spread between the
repetitions. --trace 1 prints the per-layer metrics from one traced
repetition (after the warm-up) plus the output checks, and the tracing
overhead against the untraced repetitions that follow it; spans are
written to .bench_out/.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics. `failed` counts every failed output check. `correct` is
false when a check fails other than the known one: RTD event tables with
near-equal fading parameters, which the partial-fraction closed form gets
wrong; those failures stay counted in `failed`.
"""

import os

# Pinned before numpy is imported anywhere in this process or its children.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

MIN_REPS = 3
SETUP_RUNS = 5
SETUP_TIMEOUT_S = 60
SETUP_REF_CALLS = 5


class BenchError(Exception):
    """The checkout cannot be benchmarked."""


def import_coharq() -> None:
    pkg = SRC / "coharq"
    if not (pkg / "__init__.py").is_file():
        raise BenchError(f"coharq sources not found at {pkg}")
    sys.path.insert(0, str(SRC))
    import coharq
    if Path(coharq.__file__).resolve().parent != pkg.resolve():
        raise BenchError(f"imported coharq from {coharq.__file__}, not from {pkg}")


def environment() -> dict:
    import numpy
    import scipy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "n_jobs": 1,
            **{var: os.environ[var] for var in THREAD_VARS}}


def setup_once() -> tuple:
    """Measured seconds of one fresh-interpreter set-up, and the same at
    the reference's nominal speed (workloads.REF_NOMINAL_S)."""
    import workloads
    refs = [workloads.reference_seconds() for _ in range(SETUP_REF_CALLS)]
    t = perf_counter()
    subprocess.run([sys.executable, str(HERE / "setup_probe.py"), str(SRC)],
                   check=True, timeout=SETUP_TIMEOUT_S)
    seconds = perf_counter() - t
    refs += [workloads.reference_seconds() for _ in range(SETUP_REF_CALLS)]
    return seconds, workloads.at_nominal_speed(seconds, statistics.median(refs))


def repetitions(wl, seconds: float) -> int:
    """Timed repetitions in a run: as many as fill `seconds` at the
    workload's typical pace, at least MIN_REPS."""
    return max(MIN_REPS, round(seconds / wl.rep_seconds))


def untraced_run(wl, inputs, n_reps, tally) -> dict:
    import tracing
    import workloads
    null = tracing.NULL
    wl.run_rep(next(inputs), tally, null)  # warm-up, not timed
    setup, reps = [], []
    for i in range(n_reps):
        # set-up runs are spread over the run, so they meet the same
        # machine phases as the repetitions
        while len(setup) < SETUP_RUNS * (i + 1) // n_reps:
            setup.append(setup_once())
        reps.append(wl.run_rep(next(inputs), tally, null))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    wl.finish(tally, null)
    print(f"samples: {len(reps)} repetitions, {len(setup)} set-up runs; measured repetition "
          f"walls (s): {[round(r.measured_wall_s, 4) for r in reps]}; at nominal speed: "
          f"{[round(r.wall_s, 4) for r in reps]}; measured set-up (s): "
          f"{[round(m, 4) for m, _ in setup]}; at nominal speed: {[round(n, 4) for _, n in setup]}")
    return {"setup_s": (statistics.median(n for _, n in setup), "s"), **workloads.summarize(reps),
            "peak_rss_mb": (peak_rss_mb, "MiB")}


def traced_run(wl, inputs, n_reps, tally, tag, env) -> dict:
    import tracing
    null = tracing.NULL
    tracer = tracing.Tracer()
    wl.run_rep(next(inputs), tally, null)  # warm-up, not timed
    traced = wl.run_rep(next(inputs), tally, tracer).wall_s
    untraced = [wl.run_rep(next(inputs), tally, null).wall_s for _ in range(n_reps - 1)]
    with tracer.installed():
        wl.finish(tally, tracer)
    metrics = tracer.layer_metrics()
    overhead = traced - statistics.median(untraced)
    metrics["trace.overhead_s"] = (overhead, "s")
    spans = tracer.span_table()
    print(tracing.format_span_table(spans), file=sys.stderr)
    print(f"traced wall {traced:.4f} s, untraced median {statistics.median(untraced):.4f} s "
          f"over {len(untraced)}, overhead {overhead:.4f} s", file=sys.stderr)
    tracer.write(OUT / f"trace-{tag}.npz", OUT / f"trace-{tag}.json",
                 {"env": env, "traced_wall_s": traced, "untraced_wall_s": untraced,
                  "metrics": {k: v for k, (v, _) in metrics.items()}})
    return metrics


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        import_coharq()
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2
    # the harness modules import coharq, so they load after its path is set
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    env = environment()
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    wl = workloads.make(args.workload, OUT)
    tally = workloads.Tally()
    inputs = workloads.rep_inputs(args.seed)
    n_reps = repetitions(wl, args.seconds)
    if args.trace:
        metrics = traced_run(wl, inputs, n_reps, tally, tag, env)
    else:
        metrics = untraced_run(wl, inputs, n_reps, tally)

    for msg in tally.messages[:20]:
        print(f"check failed: {msg}", file=sys.stderr)
    if tally.known_defect:
        print(f"known defect: {tally.known_defect} RTD event tables with near-equal fading "
              f"parameters failed the [0, 1] / sum-to-1 check", file=sys.stderr)
    result = {"correct": not tally.messages, "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    with open(OUT / f"result-{tag}.json", "w") as fh:
        json.dump({"env": env, "workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, **result}, fh, indent=1)
    print("env " + json.dumps(env))
    for k, (v, u) in metrics.items():
        print(f"{k} {v!r} {u}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
