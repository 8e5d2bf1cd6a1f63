"""Pipeline configuration and driver tests."""

import json
import pathlib
import subprocess
import sys

import pytest

from repro.errors import ReproError
from repro.pipeline import (
    PRESETS,
    PipelineConfig,
    compile_and_run,
    compile_minic,
    get_config,
)

SOURCE = """
int triple(int x) { return x * 3; }
int f(short *a, int n) {
    int i, s;
    s = 0;
    for (i = 0; i < n; i++)
        s += a[i];
    return triple(s);
}
"""


class TestConfigs:
    def test_presets_exist(self):
        assert set(PRESETS) == {
            "naive", "cc", "vpo", "coalesce-loads", "coalesce-all"
        }

    def test_get_config_by_name(self):
        config = get_config("vpo")
        assert config.schedule and config.optimize

    def test_get_config_default_is_vpo(self):
        assert get_config(None).name == "vpo"

    def test_unknown_preset_rejected(self):
        with pytest.raises(ReproError, match="unknown pipeline preset"):
            get_config("O3")

    def test_overrides_do_not_mutate_preset(self):
        config = get_config("vpo", unroll_factor=2)
        assert config.unroll_factor == 2
        assert PRESETS["vpo"].unroll_factor is None

    def test_bad_coalesce_mode_rejected(self):
        with pytest.raises(ReproError):
            PipelineConfig(coalesce="sometimes")

    def test_cc_has_no_scheduling(self):
        assert not PRESETS["cc"].schedule
        assert PRESETS["vpo"].schedule


class TestCompileMinic:
    @pytest.mark.parametrize("preset", sorted(PRESETS))
    @pytest.mark.parametrize("machine", ["alpha", "m88100", "m68030"])
    def test_all_presets_compile_and_verify(self, preset, machine):
        program = compile_minic(SOURCE, machine, preset)
        assert program.machine.name == machine
        from repro.ir import verify_module

        verify_module(program.module)

    def test_machine_instance_accepted(self):
        from repro.machine import DecAlpha

        program = compile_minic(SOURCE, DecAlpha(), "vpo")
        assert program.machine.name == "alpha"

    def test_compile_and_run_convenience(self):
        values = [4, 5, 6, -1]
        program = compile_minic(SOURCE, "alpha", "vpo")
        sim = program.simulator()
        a = sim.alloc_array("a", size=8)
        sim.write_words(a, values, 2)
        assert sim.call("f", a, 4) == 3 * sum(values)

    def test_coalesce_reports_surface(self):
        program = compile_minic(
            SOURCE, "alpha", "coalesce-all", force_coalesce=True
        )
        assert program.coalesce_reports
        assert program.coalesced_loops >= 1

    def test_marginal_loop_skipped_without_force(self):
        # A single-stream reduction ties in the schedule estimate; the
        # paper's Figure 3 requires strictly fewer cycles to commit.
        program = compile_minic(SOURCE, "alpha", "coalesce-all")
        considered = [r for r in program.coalesce_reports if r.runs_found]
        assert considered
        report = considered[0]
        if not report.applied:
            assert "not profitable" in report.skipped_reason


# Prints the RTL of every (program, machine, column) cell as JSON.
_DUMP_RTL = """
import json, sys
from repro.bench.harness import COLUMN_CONFIGS, COLUMNS, machine_overrides
from repro.bench.programs import get_benchmark
from repro.ir import format_module
from repro.pipeline import compile_minic
cells = {}
for name in sys.argv[1:]:
    for machine in ("alpha", "m88100", "m68030"):
        for column in COLUMNS:
            preset, overrides = COLUMN_CONFIGS[column]
            merged = dict(machine_overrides(machine), **overrides)
            program = compile_minic(
                get_benchmark(name).source, machine, preset, **merged
            )
            cells[f"{name}/{machine}/{column}"] = format_module(
                program.module
            )
print(json.dumps(cells))
"""


def _rtl_under_hash_seed(seed, programs):
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-c", _DUMP_RTL, *programs],
        capture_output=True, text=True,
        env={"PYTHONPATH": str(src), "PYTHONHASHSEED": str(seed),
             "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_compiled_rtl_is_independent_of_hash_seed():
    # These three programs hoist loop invariants from several blocks of
    # one loop; the order they land in the preheader must not follow
    # string hashing.
    programs = ("blockstage", "convolution", "translate")
    first = _rtl_under_hash_seed(0, programs)
    second = _rtl_under_hash_seed(1, programs)
    assert len(first) == 3 * 3 * 4
    differing = sorted(cell for cell in first if first[cell] != second[cell])
    assert differing == []
