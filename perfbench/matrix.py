"""The in-process workloads over the paper's benchmark matrix.

``compile-cold``
    Every program × the 4 table columns × 3 machines, compiled cold by
    ``compile_minic`` (no disk cache, no harness memo) and simulated
    once at 16×16 on the harness's own inputs, so each cell's cycles
    are the committed ``BENCH_seed.json`` figure.  The seed shuffles
    the cell order of every pass.
``sim-128``
    Every program × 3 machines × {vpo, coalesce-all}, compiled during
    set-up and simulated at 128×128 on inputs drawn from the seed.

A pass visits every cell once; a run makes whole passes until
``seconds`` have elapsed, so every run sees the same cell mix.  A
host-speed probe runs before every cell (see :mod:`perfbench.calibrate`).
"""

from __future__ import annotations

import random
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from perfbench.calibrate import HostSpeed
from perfbench.inputs import Inputs, make_inputs
from perfbench.stats import FAILED_MS, Report, median, ratio

MACHINES = ("alpha", "m88100", "m68030")
SIM_COLUMNS = ("vpo", "coalesce-all")
SETUP_REPEATS = 3
#: compile-cold's set-up is a short child process; more repeats keep
#: its median steady.
IMPORT_REPEATS = 9


@dataclass(frozen=True)
class Cell:
    program: str
    machine: str
    column: str

    @property
    def label(self) -> str:
        return f"{self.program}/{self.machine}/{self.column}"


@dataclass
class SimOutcome:
    cycles: int
    instrs: int
    call_s: float
    backend: str
    error: Optional[str]


def cells(columns: Sequence[str]) -> List[Cell]:
    from repro.bench.programs import BENCHMARKS

    return [
        Cell(program, machine, column)
        for program in BENCHMARKS
        for machine in MACHINES
        for column in columns
    ]


def column_config(machine: str, column: str):
    """The pipeline preset and overrides of a paper-table column, as
    the bench harness configures them."""
    from repro.bench.harness import COLUMN_CONFIGS, machine_overrides

    preset, overrides = COLUMN_CONFIGS[column]
    merged = dict(machine_overrides(machine))
    merged.update(overrides)
    return preset, merged


def compile_cell(cell: Cell, tracer):
    """``compile_minic`` on one cell, configured as the table column;
    its spans carry the cell's label as their request id."""
    from repro.bench.programs import BENCHMARKS
    from repro.pipeline import compile_minic

    preset, merged = column_config(cell.machine, cell.column)
    with tracer.span("pipeline", request=cell.label):
        return compile_minic(
            BENCHMARKS[cell.program].source, cell.machine, preset, **merged
        )


def simulate(program, inputs: Inputs, tracer,
             request: Optional[str] = None) -> SimOutcome:
    """Build a default-backend simulator, stage, run and check."""
    from repro.sim import Simulator

    with tracer.span("sim.build", request):
        sim = Simulator(program.module, program.machine)
    with tracer.span("sim.stage", request):
        args, addresses = inputs.stage(sim)
    with tracer.span("sim.call", request):
        started = time.perf_counter()
        value = sim.call(inputs.entry, *args)
        call_s = time.perf_counter() - started
    with tracer.span("sim.report", request):
        report = sim.report()
    with tracer.span("bench.check", request):
        error = inputs.mismatch(sim, value, addresses)
    return SimOutcome(report.total_cycles, report.instr_count, call_s,
                      sim.backend, error)


def static_instrs(module) -> int:
    """Static instructions in a compiled module (code size)."""
    return sum(len(block.instrs) for func in module for block in func.blocks)


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tally:
    """Samples, failures and per-pass totals of one run's ops.

    Times are kept raw with the probe mark they were taken at, and
    scaled to the reference host once the run is over."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        #: name -> [(seconds, mark)]; a failed op is (None, None).
        self.samples: Dict[str, List[Tuple[Optional[float],
                                           Optional[int]]]] = {}
        #: (busy seconds, seconds inside Simulator.call, mark) per op.
        self.busy: List[Tuple[float, float, int]] = []
        self.backends: set = set()
        self.instrs = 0
        #: One {"cycles", "code"} total per pass.
        self.totals: List[Dict[str, int]] = []
        self.coalesce = {"considered": 0, "applied": 0, "elided": 0}

    def add(self, name: str, seconds: float, mark: int) -> None:
        self.samples.setdefault(name, []).append((seconds, mark))

    def fail(self, label: str, why: str, *latencies: str) -> None:
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(f"{label}: {why}")
        for name in latencies:
            self.samples.setdefault(name, []).append((None, None))

    def scaled_ms(self, name: str, speed: HostSpeed) -> List[float]:
        """The samples of ``name`` in reference-host milliseconds; a
        failed op reads :data:`FAILED_MS`."""
        return [
            FAILED_MS if seconds is None
            else seconds * speed.factor_at(mark) * 1e3
            for seconds, mark in self.samples.get(name, [])
        ]

    def note_coalescing(self, program) -> None:
        self.coalesce["considered"] += len(program.coalesce_reports)
        self.coalesce["applied"] += program.coalesced_loops
        self.coalesce["elided"] += program.checks_elided


def import_seconds(env: Dict[str, str]) -> float:
    """Wall time for a fresh interpreter to import the compiler and
    simulator: what every compile-cold user process pays first."""
    started = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import repro.pipeline, repro.sim"],
        env=env, check=True, timeout=120,
    )
    return time.perf_counter() - started


def compile_cold(seed: int, seconds: float, tracer, traced: bool,
                 env: Dict[str, str]) -> dict:
    from repro.bench.harness import COLUMNS
    from repro.bench.programs import BENCHMARKS

    from perfbench import spans

    speed = HostSpeed()
    setup = []
    for _ in range(IMPORT_REPEATS):
        speed.measure()
        setup.append((import_seconds(env), speed.mark()))
    inputs = {name: make_inputs(name, 16, 16) for name in BENCHMARKS}
    grid = cells(COLUMNS)
    rng = random.Random(seed)
    tally = Tally()
    failure_samples = ("cell_ms", "compile_ms", "cold_ms", "hit_ms")

    def one_pass(active) -> float:
        order = list(grid)
        rng.shuffle(order)
        tally.totals.append({"cycles": 0, "code": 0})
        started = time.perf_counter()
        for cell in order:
            speed.measure()
            mark = speed.mark()
            tally.attempted += 1
            t0 = time.perf_counter()
            try:
                program = compile_cell(cell, active)
                t1 = time.perf_counter()
                outcome = simulate(program, inputs[cell.program], active,
                                   cell.label)
            except Exception as exc:  # noqa: BLE001 — a failed op
                tally.fail(cell.label, f"{type(exc).__name__}: {exc}",
                           *failure_samples)
                continue
            t2 = time.perf_counter()
            tally.backends.add(outcome.backend)
            if outcome.error is not None:
                tally.fail(cell.label, outcome.error, *failure_samples)
                continue
            tally.busy.append((t2 - t0, outcome.call_s, mark))
            tally.instrs += outcome.instrs
            tally.add("compile_ms", t1 - t0, mark)
            tally.add("cell_ms", t2 - t0, mark)
            tally.add("cold_ms", t2 - t0, mark)
            tally.add("hit_ms", t2 - t1, mark)
            tally.totals[-1]["cycles"] += outcome.cycles
            tally.totals[-1]["code"] += static_instrs(program.module)
            if active is tracer:
                tally.note_coalescing(program)
        return time.perf_counter() - started

    untraced = spans.NullTracer()
    elapsed = []
    if traced:
        # A warm-up pass first, so the untraced pass the traced one is
        # compared with does not carry first-use costs.
        one_pass(untraced)
        elapsed.append(one_pass(untraced))
        installed = spans.install(tracer)
        try:
            elapsed.append(one_pass(tracer))
        finally:
            installed.uninstall()
    else:
        while not elapsed or sum(elapsed) < seconds:
            elapsed.append(one_pass(untraced))
    setup_s = [seconds * speed.factor_at(mark) for seconds, mark in setup]
    return _matrix_result(tally, setup_s, speed, elapsed, traced)


def sim_128(seed: int, seconds: float, tracer, traced: bool,
            env: Dict[str, str]) -> dict:
    from repro.bench.programs import BENCHMARKS
    from repro.sim import shared_block_cache

    from perfbench import spans

    speed = HostSpeed()
    grid = cells(SIM_COLUMNS)
    tally = Tally()
    setup: List[float] = []
    programs: Dict[Cell, object] = {}
    installed = spans.install(tracer) if traced else None
    try:
        for _ in range(1 if traced else SETUP_REPEATS):
            programs = {}
            marks = []
            for cell in grid:
                speed.measure()
                t0 = time.perf_counter()
                programs[cell] = compile_cell(cell, tracer)
                marks.append((time.perf_counter() - t0, speed.mark()))
                tally.add("compile_ms", *marks[-1])
            setup.append(marks)
    finally:
        if installed is not None:
            installed.uninstall()
    for program in programs.values():
        tally.note_coalescing(program)
    tally.samples["cold_ms"] = list(tally.samples["compile_ms"])
    setup_s = [
        sum(seconds * speed.factor_at(mark) for seconds, mark in marks)
        for marks in setup
    ]
    with tracer.span("bench.check"):
        inputs = {
            name: make_inputs(name, 128, 128,
                              random.Random(f"{seed}:{name}"))
            for name in BENCHMARKS
        }
    rng = random.Random(seed)
    code = sum(static_instrs(p.module) for p in programs.values())

    def one_pass(active) -> float:
        order = list(grid)
        rng.shuffle(order)
        tally.totals.append({"cycles": 0, "code": code})
        started = time.perf_counter()
        for cell in order:
            speed.measure()
            mark = speed.mark()
            tally.attempted += 1
            t0 = time.perf_counter()
            try:
                outcome = simulate(programs[cell], inputs[cell.program],
                                   active, cell.label)
            except Exception as exc:  # noqa: BLE001 — a failed op
                tally.fail(cell.label, f"{type(exc).__name__}: {exc}",
                           "cell_ms", "hit_ms")
                continue
            t1 = time.perf_counter()
            tally.backends.add(outcome.backend)
            if outcome.error is not None:
                tally.fail(cell.label, outcome.error, "cell_ms", "hit_ms")
                continue
            tally.busy.append((t1 - t0, outcome.call_s, mark))
            tally.instrs += outcome.instrs
            tally.add("cell_ms", t1 - t0, mark)
            tally.add("hit_ms", t1 - t0, mark)
            tally.totals[-1]["cycles"] += outcome.cycles
        return time.perf_counter() - started

    untraced = spans.NullTracer()
    elapsed = []
    block_cache_hit_ratio = 0.0
    if traced:
        one_pass(untraced)
        elapsed.append(one_pass(untraced))
        before = shared_block_cache().stats()
        elapsed.append(one_pass(tracer))
        after = shared_block_cache().stats()
        hits = after["hits"] - before["hits"]
        block_cache_hit_ratio = ratio(
            hits, hits + after["misses"] - before["misses"]
        )
    else:
        while not elapsed or sum(elapsed) < seconds:
            elapsed.append(one_pass(untraced))
    result = _matrix_result(tally, setup_s, speed, elapsed, traced)
    if traced:
        result["layer"]["sim.block_cache_hit_ratio"] = block_cache_hit_ratio
    return result


def _matrix_result(tally: Tally, setup_s: List[float], speed: HostSpeed,
                   elapsed: List[float], traced: bool) -> dict:
    """End-to-end metrics, in reference-host time (``setup_s`` is
    already scaled)."""
    report = Report()
    totals = tally.totals
    if any(t != totals[0] for t in totals[1:]):
        report.notes.append(
            f"per-pass cycles/code differ across passes: {totals}")
    busy_s = sum(b * speed.factor_at(m) for b, _, m in tally.busy)
    call_s = sum(c * speed.factor_at(m) for _, c, m in tally.busy)
    report.add("setup_s", median(setup_s), "s")
    report.add("peak_rss_mb", peak_rss_mb(), "MB")
    report.add("ok_ratio",
               ratio(tally.attempted - tally.failed, tally.attempted),
               "ratio")
    report.add("cells_per_s", ratio(len(tally.busy), busy_s), "1/s")
    report.add_percentiles("cell_ms", tally.scaled_ms("cell_ms", speed))
    report.add_percentiles("compile_ms",
                           tally.scaled_ms("compile_ms", speed))
    report.add("sim_minstr_per_s", ratio(tally.instrs, call_s) / 1e6,
               "Minstr/s")
    report.add("sim_cycles", totals[0]["cycles"], "cycles")
    report.add("code_instrs", totals[0]["code"], "instrs")
    report.add_percentiles("hit_ms", tally.scaled_ms("hit_ms", speed))
    report.add_percentiles("cold_ms", tally.scaled_ms("cold_ms", speed))
    report.raw = {
        "host_factor": speed.factor,
        "cells_per_s": ratio(len(tally.busy),
                             sum(b for b, _, _ in tally.busy)),
        "sim_minstr_per_s": ratio(
            tally.instrs, sum(c for _, c, _ in tally.busy)) / 1e6,
    }
    layer: Dict[str, float] = {}
    if traced:
        layer["coalesce.applied_ratio"] = ratio(
            tally.coalesce["applied"], tally.coalesce["considered"])
        layer["coalesce.checks_elided"] = tally.coalesce["elided"]
        layer["trace.overhead_ratio"] = ratio(elapsed[-1], elapsed[-2])
    return {
        "report": report,
        "layer": layer,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "errors": tally.errors,
        "backends": sorted(tally.backends),
    }
