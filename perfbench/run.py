"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload compile-cold --seed 1 \\
        --seconds 20 --trace 0

Run it from anywhere inside a checkout; it builds nothing (the program
is pure Python under ``src/``).  ``--trace 0`` prints every end-to-end
metric; ``--trace 1`` makes a separate traced run and prints every
per-layer metric, writing its spans to ``.perfbench/``.  The last line
of standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

The exit status is 0 when every output matched its reference, 1 when
any op failed or answered wrongly, and 2 when the benchmark could not
run at all (for instance outside a checkout of this repository).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("compile-cold", "sim-128", "service-mixed")


def clean_environment() -> dict:
    """Drop every ``REPRO_*`` and ``BENCH_*`` setting (simulator
    backend, fault plans, cache knobs, step limits, bench gates) so the
    program runs on its defaults; returns the child-process env."""
    for name in list(os.environ):
        if name.startswith(("REPRO_", "BENCH_")):
            del os.environ[name]
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH", "")) if p
    )
    return env


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # A terminated run still stops its server and removes its files.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no src/repro under {ROOT}; run it inside a "
              "checkout of the repository", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    env = clean_environment()
    workdir = os.path.join(
        ".perfbench", f"{args.workload}-{args.seed}-{os.getpid()}"
    )
    os.makedirs(workdir, exist_ok=True)
    os.environ["REPRO_CACHE_DIR"] = os.path.join(workdir, "cache")
    if args.workload != "service-mixed":
        os.environ["REPRO_CACHE"] = "off"

    from perfbench import layers, spans

    tracer = spans.Tracer() if args.trace else spans.NullTracer()
    traced = bool(args.trace)
    started = time.perf_counter()
    try:
        result = run_workload(args, tracer, traced, env, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    wall = time.perf_counter() - started

    report = result["report"]
    print(f"workload {args.workload}  seed {args.seed}  "
          f"wall {wall:.1f}s  ops {result['attempted']}  "
          f"failed {result['failed']}")
    print(f"sim_backend {','.join(result['backends']) or 'none'}")
    for error in result["errors"]:
        print(f"FAILED {error}")
    if traced:
        values = layers.from_tracer(tracer)
        values.update(result["layer"])
        metrics = layers.complete(values)
        trace_path = os.path.join(
            ".perfbench", f"trace-{args.workload}-{args.seed}.jsonl"
        )
        tracer.dump(trace_path)
        print(f"spans {len(tracer.spans)} written to {trace_path}")
    else:
        metrics = report.metrics
    if report.raw:
        print("unscaled " + "  ".join(
            f"{name} {value:.6g}" for name, value in report.raw.items()))
    for note in report.notes:
        print(f"note {note}")
    for name, metric in metrics.items():
        print(f"  {name:34s} {metric['value']:>14.6g} {metric['unit']}")
    correct = result["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


def run_workload(args, tracer, traced: bool, env: dict, workdir: str):
    if args.workload == "compile-cold":
        from perfbench.matrix import compile_cold

        return compile_cold(args.seed, args.seconds, tracer, traced, env)
    if args.workload == "sim-128":
        from perfbench.matrix import sim_128

        return sim_128(args.seed, args.seconds, tracer, traced, env)
    from perfbench.service_mixed import service_mixed

    return service_mixed(args.seed, args.seconds, tracer, traced, env,
                         os.path.join(workdir, "service"))


if __name__ == "__main__":
    sys.exit(main())
