"""Compile-and-measure harness for the paper's experiments.

One *column* of a paper table = one pipeline configuration:

=====================  =====================================================
``cc``                 native-compiler proxy (no scheduling)
``vpo``                full optimizer, loops unrolled (the baseline column)
``coalesce-loads``     loads coalesced — **forced**, as the paper measures
                       the transformation itself (col. 4)
``coalesce-all``       loads and stores coalesced — forced (col. 5)
=====================  =====================================================

The Motorola 68030 needs ``unroll_factor=4`` forced in every column: its
256-byte instruction cache makes the unrolling heuristic refuse, and the
paper's point there is precisely what happens when the transformation is
applied anyway.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.bench.programs import get_benchmark
from repro.bench import workloads
from repro.bench.cache import cached_compile_minic
from repro.pipeline import CompiledProgram
from repro.sim import Simulator, instructions_per_second

COLUMN_CONFIGS: Dict[str, Tuple[str, Dict[str, object]]] = {
    "cc": ("cc", {}),
    "vpo": ("vpo", {}),
    "coalesce-loads": ("coalesce-loads", {"force_coalesce": True}),
    "coalesce-all": ("coalesce-all", {"force_coalesce": True}),
}

COLUMNS = ("cc", "vpo", "coalesce-loads", "coalesce-all")


def machine_overrides(machine: str) -> Dict[str, object]:
    """Per-machine pipeline overrides used by every column."""
    if machine == "m68030":
        return {"unroll_factor": 4}
    return {}


@dataclass
class BenchResult:
    """Outcome of one (benchmark, machine, column) measurement."""

    benchmark: str
    machine: str
    column: str
    cycles: int
    base_cycles: int
    dcache_miss_cycles: int
    icache_miss_cycles: int
    instr_count: int
    memory_accesses: int
    output_ok: bool
    coalesced_loops: int
    # Figure 5 runtime checks the static alias engine discharged.
    checks_elided: int = 0
    # Accepted runs per access shape ('unit'/'strided'/'affine'/
    # 'indirect') summed over applied loops.
    coalesced_by_shape: Dict[str, int] = field(default_factory=dict)
    result: Optional[int] = None
    loads: int = 0
    stores: int = 0
    dcache_misses: int = 0
    icache_misses: int = 0
    compile_seconds: float = 0.0
    sim_seconds: float = 0.0
    compile_cache_hit: bool = False
    # Which simulator backend actually ran (after any fallback) and its
    # throughput in simulated instructions per host second (None when the
    # run was too short to time).
    sim_backend: str = "interp"
    sim_instrs_per_sec: Optional[float] = None
    # stage name -> seconds, from CompiledProgram.pass_stats (describes
    # the original compilation when compile_cache_hit is True)
    phase_seconds: Dict[str, float] = field(default_factory=dict)

    def __repr__(self) -> str:
        return (
            f"<BenchResult {self.benchmark}/{self.machine}/{self.column}: "
            f"{self.cycles} cycles, ok={self.output_ok}>"
        )


def compile_benchmark(
    name: str, machine: str, column: str, cache=None, **extra
) -> CompiledProgram:
    """Compile one benchmark for one table column through the artifact
    store ``cache`` (default: the process-wide store)."""
    preset, overrides = COLUMN_CONFIGS[column]
    merged = dict(machine_overrides(machine))
    merged.update(overrides)
    merged.update(extra)
    return cached_compile_minic(
        get_benchmark(name).source, machine, preset, cache=cache, **merged
    )


def run_benchmark(
    name: str,
    machine: str,
    column: str,
    width: int = 64,
    height: int = 64,
    check: bool = True,
    sim_backend: Optional[str] = None,
    cache=None,
    **extra,
) -> BenchResult:
    """Compile, stage inputs, simulate, verify and measure one benchmark.

    ``sim_backend`` picks the simulator backend (``interp`` or
    ``compiled``); None defers to ``REPRO_SIM_BACKEND``.  The result
    records the backend that actually ran — the compiled backend falls
    back to the interpreter under fault injection.  ``cache`` is the
    artifact store the compile goes through (see
    :func:`compile_benchmark`); ``compile_cache_hit`` says whether it
    served the program.
    """
    compile_started = time.perf_counter()
    compiled = compile_benchmark(name, machine, column, cache=cache, **extra)
    compile_seconds = time.perf_counter() - compile_started
    sim_started = time.perf_counter()
    sim = compiled.simulator(backend=sim_backend)
    result, ok = _stage_and_run(name, sim, width, height, check)
    sim_seconds = time.perf_counter() - sim_started
    report = sim.report()
    return BenchResult(
        benchmark=name,
        machine=machine,
        column=column,
        cycles=report.total_cycles,
        base_cycles=report.base_cycles,
        dcache_miss_cycles=report.dcache_miss_cycles,
        icache_miss_cycles=report.icache_miss_cycles,
        instr_count=report.instr_count,
        memory_accesses=report.memory_accesses,
        output_ok=ok,
        coalesced_loops=compiled.coalesced_loops,
        checks_elided=compiled.checks_elided,
        coalesced_by_shape=compiled.coalesced_by_shape,
        result=result,
        loads=report.load_count,
        stores=report.store_count,
        dcache_misses=report.dcache_misses,
        icache_misses=report.icache_misses,
        compile_seconds=compile_seconds,
        sim_seconds=sim_seconds,
        compile_cache_hit=compiled.cache_hit,
        sim_backend=sim.backend,
        sim_instrs_per_sec=instructions_per_second(
            report.instr_count, sim.wall_seconds
        ),
        phase_seconds={
            stage: stats["seconds"]
            for stage, stats in compiled.pass_stats.items()
        },
    )


def _stage_and_run(
    name: str, sim: Simulator, width: int, height: int, check: bool
) -> Tuple[Optional[int], bool]:
    pixels = width * height

    if name == "convolution":
        src = workloads.lcg_bytes(pixels)
        a = sim.alloc_array("src", bytes(src))
        d = sim.alloc_array("dst", size=pixels)
        sim.call("convolve", a, d, width, height)
        if not check:
            return None, True
        got = sim.read_words(d, pixels, 1, signed=False)
        return None, got == workloads.ref_convolution(src, width, height)

    if name in ("image_add", "image_xor"):
        a_vals = workloads.lcg_bytes(pixels, seed=11)
        b_vals = workloads.lcg_bytes(pixels, seed=22)
        d = sim.alloc_array("dst", size=pixels)
        a = sim.alloc_array("a", bytes(a_vals))
        b = sim.alloc_array("b", bytes(b_vals))
        sim.call(get_benchmark(name).entry, d, a, b, pixels)
        if not check:
            return None, True
        got = sim.read_words(d, pixels, 1, signed=False)
        reference = (
            workloads.ref_image_add(a_vals, b_vals)
            if name == "image_add"
            else workloads.ref_image_xor(a_vals, b_vals)
        )
        return None, got == reference

    if name == "image_add16":
        a_vals = [v * 257 for v in workloads.lcg_bytes(pixels, seed=33)]
        b_vals = [v * 257 for v in workloads.lcg_bytes(pixels, seed=44)]
        d = sim.alloc_array("dst", size=2 * pixels)
        a = sim.alloc_array("a", size=2 * pixels)
        b = sim.alloc_array("b", size=2 * pixels)
        sim.write_words(a, a_vals, 2)
        sim.write_words(b, b_vals, 2)
        sim.call("image_add16", d, a, b, pixels)
        if not check:
            return None, True
        got = sim.read_words(d, pixels, 2, signed=False)
        return None, got == workloads.ref_image_add16(a_vals, b_vals)

    if name == "translate":
        tx, ty = 8, 4
        src = workloads.lcg_bytes(pixels, seed=55)
        a = sim.alloc_array("src", bytes(src))
        d = sim.alloc_array("dst", size=pixels)
        sim.call("translate", a, d, width, height, tx, ty)
        if not check:
            return None, True
        got = sim.read_words(d, pixels, 1, signed=False)
        return None, got == workloads.ref_translate(
            src, width, height, tx, ty
        )

    if name == "mirror":
        src = workloads.lcg_bytes(pixels, seed=66)
        a = sim.alloc_array("src", bytes(src))
        d = sim.alloc_array("dst", size=pixels)
        sim.call("mirror", a, d, width, height)
        if not check:
            return None, True
        got = sim.read_words(d, pixels, 1, signed=False)
        return None, got == workloads.ref_mirror(src, width, height)

    if name == "eqntott":
        nterms, term_width = max(height, 4), max(width, 8)
        terms = workloads.eqntott_terms(nterms, term_width)
        t = sim.alloc_array("terms", size=2 * len(terms))
        sim.write_words(t, terms, 2)
        w = sim.alloc_array("work", size=2 * term_width)
        value = sim.call("eqntott", t, w, nterms, term_width)
        value = _to_signed(value, sim.machine.word_bits)
        if not check:
            return value, True
        return value, value == workloads.ref_eqntott(
            terms, nterms, term_width
        )

    if name == "blockstage":
        src = workloads.lcg_bytes(pixels, seed=99)
        a = sim.alloc_array("src", bytes(src))
        value = sim.call("blockstage", a, pixels)
        value = _to_signed(value, sim.machine.word_bits)
        if not check:
            return value, True
        return value, value == workloads.ref_blockstage(src, pixels)

    if name == "spmv_csr":
        nrows = max(height, 4)
        vals, cols, rowptr = workloads.csr_matrix(nrows)
        ncols = 128
        x_vals = workloads.lcg_shorts(ncols, seed=4321, span=128)
        y = sim.alloc_array("y", size=4 * nrows)
        v = sim.alloc_array("val", size=2 * len(vals))
        c = sim.alloc_array("col", size=2 * len(cols))
        rp = sim.alloc_array("rowptr", size=4 * len(rowptr))
        x = sim.alloc_array("x", size=2 * ncols)
        sim.write_words(v, vals, 2)
        sim.write_words(c, cols, 2)
        sim.write_words(rp, rowptr, 4)
        sim.write_words(x, x_vals, 2)
        value = sim.call("spmv", y, v, c, rp, x, nrows)
        value = _to_signed(value, sim.machine.word_bits)
        if not check:
            return value, True
        got_y = sim.read_words(y, nrows, 4)
        ref_y, ref_total = workloads.ref_spmv(
            vals, cols, rowptr, x_vals, nrows
        )
        return value, value == ref_total and got_y == ref_y

    if name == "histogram":
        src = workloads.lcg_bytes(pixels, seed=17)
        h = sim.alloc_array("hist", size=4 * 256)
        s = sim.alloc_array("src", bytes(src))
        value = sim.call("histogram", h, s, pixels)
        value = _to_signed(value, sim.machine.word_bits)
        reference = workloads.ref_histogram(src)
        if not check:
            return value, True
        got = sim.read_words(h, 256, 4)
        return value, value == reference[0] and got == reference

    if name == "strided_copy":
        src = workloads.lcg_bytes(2 * pixels, seed=23)
        d = sim.alloc_array("dst", size=pixels)
        s = sim.alloc_array("src", bytes(src))
        sim.call("strided_copy", d, s, pixels)
        if not check:
            return None, True
        got = sim.read_words(d, pixels, 1, signed=False)
        return None, got == workloads.ref_strided_copy(src, pixels)

    if name == "conv2d_rowwalk":
        rows = max(height, 3)
        w = max(4, min(width, 64))
        m_vals = workloads.lcg_bytes(rows * 64, seed=29)
        m = sim.alloc_array("m", bytes(m_vals))
        out = sim.alloc_array("out", size=w)
        y_row = rows // 2
        value = sim.call("conv2d_rowwalk", m, out, y_row, w)
        value = _to_signed(value, sim.machine.word_bits)
        reference = workloads.ref_conv2d_rowwalk(m_vals, y_row, w)
        if not check:
            return value, True
        got = sim.read_words(out, w, 1, signed=False)
        return value, value == reference[1] and got == reference

    if name == "dotproduct":
        count = pixels
        a_vals = workloads.lcg_shorts(count, seed=77, span=2000)
        b_vals = workloads.lcg_shorts(count, seed=88, span=2000)
        a = sim.alloc_array("a", size=2 * count)
        b = sim.alloc_array("b", size=2 * count)
        sim.write_words(a, a_vals, 2)
        sim.write_words(b, b_vals, 2)
        value = sim.call("dotproduct", a, b, count)
        value = _to_signed(value, sim.machine.word_bits)
        if not check:
            return value, True
        return value, value == workloads.ref_dotproduct(a_vals, b_vals)

    raise KeyError(f"no staging recipe for benchmark {name!r}")


def _to_signed(value: int, bits: int) -> int:
    if value >= 1 << (bits - 1):
        value -= 1 << bits
    return value
