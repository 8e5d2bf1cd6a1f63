"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q

They pin what the numbers mean: compile-cold's cycles are the paper
numbers committed in ``BENCH_seed.json``; tracing changes no output;
seeds fix every generated input; and failures count against every
latency percentile.
"""

from __future__ import annotations

import importlib
import json
import os
import shutil
import subprocess
import sys
import threading
import time

import pytest

from perfbench import layers, spans
from perfbench.inputs import RECIPES, make_inputs
from perfbench.matrix import Cell, cells, compile_cell, simulate
from perfbench.stats import (FAILED_MS, MIN_BEYOND, Report, beyond,
                             percentile)

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

with open(os.path.join(ROOT, "BENCH_seed.json")) as _handle:
    SEED_RECORDS = {
        (r["program"], r["machine"], r["variant"]): r
        for r in json.load(_handle)["records"]
    }

#: Cells whose compiled code depends on the interpreter's string-hash
#: order (``PYTHONHASHSEED``): their cycles match the committed figure
#: only under some hash orders.  See test_compile_ignores_hash_order.
HASH_ORDER_SENSITIVE = {("blockstage", "alpha", "cc")}


def _anchor_params():
    from repro.bench.harness import COLUMNS

    for cell in cells(COLUMNS):
        key = (cell.program, cell.machine, cell.column)
        marks = []
        if key in HASH_ORDER_SENSITIVE:
            marks.append(pytest.mark.xfail(
                reason="compiled code depends on PYTHONHASHSEED",
                strict=False,
            ))
        yield pytest.param(cell, marks=marks, id=cell.label)


@pytest.fixture(autouse=True)
def _no_cache(monkeypatch):
    monkeypatch.setenv("REPRO_CACHE", "off")
    for name in ("REPRO_SIM_BACKEND", "REPRO_FAULTS", "REPRO_MAX_STEPS"):
        monkeypatch.delenv(name, raising=False)


# -- sim_cycles is anchored to the committed paper numbers ------------------

@pytest.mark.parametrize("cell", list(_anchor_params()))
def test_compile_cold_reproduces_seed_cell(cell):
    record = SEED_RECORDS[(cell.program, cell.machine, cell.column)]
    program = compile_cell(cell, spans.NullTracer())
    outcome = simulate(program, make_inputs(cell.program, 16, 16),
                       spans.NullTracer())
    assert outcome.error is None
    assert (outcome.cycles, outcome.instrs) == (
        record["cycles"], record["instr_count"]
    )


def test_anchor_covers_the_whole_seed_matrix():
    from repro.bench.harness import COLUMNS

    grid = {(c.program, c.machine, c.column) for c in cells(COLUMNS)}
    assert len(grid) == 156
    assert grid == set(SEED_RECORDS)


@pytest.mark.xfail(strict=True,
                   reason="compiled code depends on PYTHONHASHSEED")
def test_compile_ignores_hash_order():
    script = (
        "from repro.pipeline import compile_minic\n"
        "from repro.bench.programs import BENCHMARKS\n"
        "from repro.ir.printer import format_module\n"
        "p = compile_minic(BENCHMARKS['blockstage'].source, 'alpha', 'cc')\n"
        "print(format_module(p.module))\n"
    )
    texts = set()
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.path.join(ROOT, "src"))
        texts.add(subprocess.run(
            [sys.executable, "-c", script], env=env, check=True,
            capture_output=True, text=True, timeout=120,
        ).stdout)
    assert len(texts) == 1


# -- tracing changes nothing it observes ------------------------------------

FIDELITY_CELLS = [
    Cell(program, machine, column)
    for program in ("dotproduct", "blockstage", "spmv_csr", "convolution")
    for machine, column in (("alpha", "coalesce-all"), ("m68030", "vpo"))
]


def _compile_and_run(tracer):
    from repro.ir.printer import format_module

    out = []
    for cell in FIDELITY_CELLS:
        program = compile_cell(cell, tracer)
        outcome = simulate(program, make_inputs(cell.program, 16, 16),
                           tracer, cell.label)
        out.append({
            "rtl": format_module(program.module),
            "passes": {
                name: (stats["runs"], stats["changed"])
                for name, stats in program.pass_stats.items()
            },
            "cycles": outcome.cycles,
            "error": outcome.error,
        })
    return out


def test_traced_run_matches_untraced_run():
    plain = _compile_and_run(spans.NullTracer())
    tracer = spans.Tracer()
    installed = spans.install(tracer)
    try:
        traced = _compile_and_run(tracer)
    finally:
        installed.uninstall()
    assert traced == plain
    assert all(row["error"] is None for row in plain)
    names = set(tracer.calls())
    for expected in ("pipeline", "frontend", "opt.cleanup", "coalesce",
                     "coalesce.fig3", "machine.lower", "sched.schedule",
                     "ir.verify", "sim.build", "sim.stage", "sim.call",
                     "sim.report", "bench.check"):
        assert expected in names
    for _, _, name in spans.PASSES:
        assert f"opt.{name}" in names
    for _, _, name in spans.ANALYSES:
        assert f"analysis.{name}" in names


def test_children_fit_inside_their_parent():
    tracer = spans.Tracer()
    installed = spans.install(tracer)
    try:
        _compile_and_run(tracer)
    finally:
        installed.uninstall()
    by_id = {span.id: span for span in tracer.spans}
    children = {}
    for span in tracer.spans:
        if span.parent is not None:
            parent = by_id[span.parent]
            assert parent.start <= span.start <= span.end <= parent.end
            children[span.parent] = children.get(span.parent, 0.0) + \
                span.seconds
    for sid, child_total in children.items():
        assert child_total <= by_id[sid].seconds + 1e-9
    for span in tracer.spans:
        assert span.self_s >= -1e-9
        assert span.request in {cell.label for cell in FIDELITY_CELLS}


def test_wrappers_keep_name_and_preserves_then_uninstall():
    from repro.analysis import manager
    from repro.analysis.liveness import liveness

    originals = {}
    for module_name, attr, _ in spans.PASSES:
        originals[(module_name, attr)] = getattr(
            importlib.import_module(module_name), attr)
    # An analysis first resolved while tracing stores the wrapper.
    manager._resolved.pop("liveness", None)
    installed = spans.install(spans.Tracer())
    try:
        assert manager._resolve("liveness") is not liveness
        for (module_name, attr), original in originals.items():
            wrapped = getattr(importlib.import_module(module_name), attr)
            assert wrapped is not original
            assert wrapped.__name__ == original.__name__
            assert getattr(wrapped, "preserves", None) == \
                getattr(original, "preserves", None)
        from repro.opt.global_const import global_const_prop

        assert global_const_prop.preserves == frozenset(
            {"reaching", "dominators"})
    finally:
        installed.uninstall()
    for (module_name, attr), original in originals.items():
        assert getattr(importlib.import_module(module_name), attr) \
            is original
    assert manager._resolved["liveness"] is liveness
    wrapped = [name for name, fn in manager._resolved.items()
               if hasattr(fn, "__wrapped__")]
    assert wrapped == []
    import repro.pipeline

    assert repro.pipeline.compile_source is importlib.import_module(
        "repro.frontend").compile_source


# -- seeds fix every generated input -----------------------------------------

def _plan_fingerprint(planned):
    return [
        (p.due, p.cold, p.kernel, p.machine, p.column, p.inputs.arrays,
         p.inputs.args, p.inputs.result, p.source)
        for p in planned
    ]


def test_same_seed_same_schedule_other_seed_differs():
    from perfbench.service_mixed import plan

    first = _plan_fingerprint(plan(3, 2.0, spans.NullTracer()))
    again = _plan_fingerprint(plan(3, 2.0, spans.NullTracer()))
    other = _plan_fingerprint(plan(4, 2.0, spans.NullTracer()))
    assert first == again
    assert first != other
    assert [row[0] for row in first] == [row[0] for row in other]


def test_service_run_resolves_both_p90s():
    from perfbench import service_mixed as sm

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        seconds = json.load(handle)["run_seconds"]
    planned = sm.plan(1, seconds, spans.NullTracer())
    colds = sum(1 for p in planned if p.cold)
    hits = len(planned) - colds
    assert hits > colds
    assert beyond(colds, 0.9) >= MIN_BEYOND
    assert beyond(hits, 0.9) >= MIN_BEYOND
    # The smallest cold share that does so.
    assert beyond(colds - 1, 0.9) < MIN_BEYOND


def test_service_checks_dumped_output_arrays():
    from perfbench import service_mixed as sm

    for kernel in ("spmv_csr", "histogram"):
        inputs = make_inputs(kernel, sm.SIZE, sm.SIZE)
        fields = sm.simulate_fields("alpha", "vpo", inputs, "src")
        assert fields["dump"] == sm.DUMP_WORDS
        (name, (_, _, expected)), = inputs.outputs.items()
        # The server reads DUMP_WORDS words, past a shorter array too.
        dumped = (expected + [0] * sm.DUMP_WORDS)[:sm.DUMP_WORDS]
        answer = {"status": "ok", "result": inputs.result,
                  "cache_hit": True, "arrays": {name: dumped}}
        assert sm.check_response(answer, inputs, expect_hit=True) is None
        dumped[1] += 1
        assert "differs" in sm.check_response(answer, inputs,
                                              expect_hit=True)
        del answer["arrays"]
        assert "differs" in sm.check_response(answer, inputs,
                                              expect_hit=True)


def test_seeded_inputs_repeat_and_differ():
    import random

    for name in RECIPES:
        one = make_inputs(name, 16, 16, random.Random(f"5:{name}"))
        two = make_inputs(name, 16, 16, random.Random(f"5:{name}"))
        three = make_inputs(name, 16, 16, random.Random(f"6:{name}"))
        assert one.arrays == two.arrays
        assert one.arrays != three.arrays, name


# -- open loop: latency from the due time, failures count -------------------

class FakeServer:
    """A JSON-lines server that answers ``simulate`` by script."""

    def __init__(self, path: str, behaviour):
        from repro.service import protocol

        self.protocol = protocol
        self.listener = protocol.bind(path)
        self.behaviour = behaviour
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def _serve(self):
        while True:
            try:
                conn, _ = self.listener.accept()
            except OSError:
                return
            threading.Thread(target=self._answer, args=(conn,),
                             daemon=True).start()

    def _answer(self, conn):
        with conn:
            rfile = conn.makefile("rb")
            request = self.protocol.recv_message(rfile)
            status, fields = self.behaviour(request)
            self.protocol.send_message(conn, self.protocol.make_response(
                request["id"], status, **fields))
            rfile.close()

    def close(self):
        self.listener.close()


def test_open_loop_times_from_due_and_counts_failures(tmp_path,
                                                      monkeypatch):
    from perfbench import service_mixed as sm
    from perfbench.inputs import Inputs

    monkeypatch.chdir(tmp_path)
    inputs = Inputs("dotproduct", "dotproduct", [("a", 2, [1])], ["a", 1],
                    result=5)

    def behaviour(request):
        index = int(request["source"].split()[1])
        if index in (0, 1):
            time.sleep(0.3)
        answer = {"result": 5, "cache_hit": True, "wall_seconds": 0.001,
                  "instr_count": 10, "sim_backend": "interp"}
        if index == 2:
            return "rejected", {}
        if index == 3:
            answer["result"] = 6
        if index == 4:
            return "timeout", {}
        return "ok", answer

    server = FakeServer("fake.sock", behaviour)
    try:
        planned = [
            sm.Planned(i, 0.01 * i, False, "dotproduct", "alpha", "vpo",
                       inputs, f"src {i}")
            for i in range(20)
        ]
        holder = type("S", (), {"socket": "fake.sock"})()
        outcomes = sm.Outcomes()
        sm.send_all(holder, planned, spans.NullTracer(), outcomes)
    finally:
        server.close()
    rows = {row["index"]: row for row in outcomes.rows}
    assert len(rows) == 20
    failed = {i for i, row in rows.items() if row["problem"] is not None}
    assert failed == {2, 3, 4}
    # Both senders sat on the slow requests 0 and 1, so request 5 went
    # out late: its latency counts the wait, its round trip does not.
    assert rows[5]["late_ms"] > 200
    assert rows[5]["latency_ms"] >= rows[5]["late_ms"]
    assert rows[5]["round_trip_s"] < 0.2
    assert rows[2]["retries"] == 2

    report = sm.summarize(outcomes.rows, [1.0], 1.0,
                          {"cycles": 1, "code": 1})
    metrics = report.metrics
    assert metrics["ok_ratio"]["value"] == pytest.approx(17 / 20)
    # Served requests per second of server time, not the offered rate.
    assert metrics["cells_per_s"]["value"] == pytest.approx(1000.0)
    assert metrics["cell_ms_p90"]["value"] == FAILED_MS
    assert metrics["cell_ms_p50"]["value"] < FAILED_MS
    assert any(note.startswith("cell_ms_p90: only") for note in report.notes)


def test_percentile_rank_and_unresolved_note():
    values = list(range(1, 101))
    assert percentile(values, 0.5) == 50
    assert percentile(values, 0.9) == 90
    assert beyond(100, 0.9) == 10
    report = Report()
    report.add_percentiles("x_ms", values)
    assert report.notes == []
    report.add_percentiles("y_ms", values[:99])
    assert report.notes == [
        "y_ms_p90: only 9 of 99 samples lie beyond it (want 10); unresolved"
    ]


# -- the command and its contract --------------------------------------------

def test_clean_environment_drops_program_settings(monkeypatch):
    from perfbench.run import clean_environment

    for name in ("REPRO_SIM_BACKEND", "REPRO_FAULTS", "REPRO_CACHE",
                 "REPRO_CACHE_DIR", "REPRO_MAX_STEPS", "BENCH_CELL_TIMEOUT"):
        monkeypatch.setenv(name, "1")
    env = clean_environment()
    for name in ("REPRO_SIM_BACKEND", "REPRO_FAULTS", "REPRO_CACHE",
                 "REPRO_CACHE_DIR", "REPRO_MAX_STEPS", "BENCH_CELL_TIMEOUT"):
        assert name not in os.environ
        assert name not in env


def test_benchmark_json_names_every_printed_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    from perfbench.calibrate import HostSpeed
    from perfbench.matrix import Tally, _matrix_result
    from perfbench.service_mixed import summarize

    tally = Tally()
    tally.attempted = 1
    tally.totals.append({"cycles": 1, "code": 1})
    tally.busy.append((1.0, 1.0, 0))
    for name in ("cell_ms", "compile_ms", "hit_ms", "cold_ms"):
        tally.add(name, 1.0, 0)
    matrix = _matrix_result(tally, [1.0], HostSpeed(), [1.0],
                            traced=False)["report"]
    row = {"index": 0, "cold": False, "latency_ms": 1.0, "late_ms": 0.0,
           "round_trip_s": 0.001, "server_s": 0.001, "status": "ok",
           "cache_hit": True, "retries": 0, "instrs": 1,
           "backend": "interp", "problem": None, "scale": 1.0}
    service = summarize([row, dict(row, cold=True)], [1.0], 1.0,
                        {"cycles": 1, "code": 1})
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    for report in (matrix, service):
        assert {k: v["unit"] for k, v in report.metrics.items()} == \
            end_to_end
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        layers.metric_names()
    assert [w["name"] for w in spec["workloads"]] == \
        ["compile-cold", "sim-128", "service-mixed"]


def test_refuses_to_run_outside_a_checkout(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "compile-cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
