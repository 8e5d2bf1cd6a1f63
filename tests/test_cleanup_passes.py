"""The scalar cleanup fixpoint and its two indexed passes.

``local_cse`` keeps a reverse index (register -> expression keys) instead
of scanning its whole table on every definition, ``global_const_prop``
builds its def-use chains only over registers that can hold a constant,
and ``run_to_fixpoint`` skips a pass whose last run was a no-op until
another pass changes the function.  None of that may change what the
passes produce: the differential tests below run the earlier whole-table
``local_cse`` and the unrestricted ``global_const_prop`` as oracles on
every function the benchmark pipeline hands to ``cleanup``.
"""

import copy
from collections import deque
from typing import Dict, Tuple

import pytest

import repro.pipeline
from repro.analysis.defuse import def_use_chains
from repro.bench.harness import COLUMN_CONFIGS, machine_overrides
from repro.bench.programs import BENCHMARKS
from repro.ir import BinOp, Const, Load, Mov, Reg, Store, \
    format_function, parse_module
from repro.ir.rtl import Call
from repro.machine import get_machine
from repro.opt import global_const
from repro.opt.cse import _expression_key, local_cse
from repro.opt.global_const import global_const_prop
from repro.opt.pass_manager import PassContext, run_to_fixpoint
from repro.pipeline import compile_minic


def func_of(text):
    return next(iter(parse_module(text)))


@pytest.fixture
def ctx():
    return PassContext(get_machine("alpha"))


# -- oracles: the passes as they were before indexing ------------------------
# The CSE oracle shares ``_expression_key`` with the pass: the index
# changes how entries are killed, not which computations match.

def _oracle_key_reads(key: Tuple, reg_indices: set) -> bool:
    return any(
        isinstance(part, tuple) and len(part) == 2 and part[0] == "r"
        and part[1] in reg_indices
        for part in key
    )


def oracle_local_cse(func, ctx) -> bool:
    """Block-local CSE with a whole-table scan on every definition."""
    changed = False
    for block in func.blocks:
        available: Dict[Tuple, Reg] = {}
        new_instrs = []
        for instr in block.instrs:
            key = _expression_key(instr)
            if key is not None and any(
                _oracle_key_reads(key, {r.index}) for r in instr.defs()
            ):
                new_instrs.append(instr)
                defined = {r.index for r in instr.defs()}
                for k in [k for k, result in available.items()
                          if result.index in defined
                          or _oracle_key_reads(k, defined)]:
                    available.pop(k, None)
                continue
            if key is not None and key in available:
                instr = Mov(instr.defs()[0], available[key])
                changed = True
                key = None
            new_instrs.append(instr)
            defined = {r.index for r in instr.defs()}
            if defined:
                for k in [k for k, result in available.items()
                          if result.index in defined
                          or _oracle_key_reads(k, defined)]:
                    available.pop(k, None)
            if isinstance(instr, (Store, Call)):
                for k in [k for k in available if k[0] == "load"]:
                    available.pop(k)
            if key is not None and not _oracle_key_reads(key, defined):
                available[key] = instr.defs()[0]
        block.instrs = new_instrs
    return changed


def oracle_global_const_prop(func, ctx) -> bool:
    """Global constant propagation over chains for every register."""
    chains = def_use_chains(func)
    const_of: Dict[tuple, int] = {}
    worklist = deque()
    for sites in chains.reaching.defs_of.values():
        for site in sites:
            label, index = site
            instr = func.block(label).instrs[index]
            if isinstance(instr, Mov) and isinstance(instr.src, Const):
                const_of[site] = instr.src.value
                worklist.append(site)
    changed = False
    rewritten = set()
    while worklist:
        site = worklist.popleft()
        for use in chains.uses_of.get(site, ()):
            if use in rewritten:
                continue
            label, index, reg_index = use
            sites = chains.defs_for[use]
            if not sites:
                continue
            values = []
            for def_site in sites:
                value = const_of.get(def_site)
                if value is None and def_site not in const_of:
                    break
                values.append(value)
            else:
                if len(set(values)) != 1:
                    continue
                instr = func.block(label).instrs[index]
                if (isinstance(instr, (Load, Store))
                        and instr.base.index == reg_index):
                    continue
                instr.substitute_uses({Reg(reg_index): Const(values[0])})
                rewritten.add(use)
                changed = True
                if isinstance(instr, Mov) and isinstance(instr.src, Const):
                    own_site = (label, index)
                    if own_site not in const_of:
                        const_of[own_site] = instr.src.value
                        worklist.append(own_site)
    return changed


# -- differential: oracle vs. pass on the benchmark pipeline's IR ------------

PAIRS = (
    (oracle_local_cse, local_cse),
    (oracle_global_const_prop, global_const_prop),
)


def _assert_same(func, machine, label, changes) -> None:
    for oracle, rewritten in PAIRS:
        expected_func = copy.deepcopy(func)
        actual_func = copy.deepcopy(func)
        expected = oracle(expected_func, PassContext(machine))
        actual = rewritten(actual_func, PassContext(machine))
        where = f"{rewritten.__name__} on {func.name} at {label}"
        assert actual == expected, where
        assert (format_function(actual_func)
                == format_function(expected_func)), where
        changes[rewritten.__name__] += expected


@pytest.mark.parametrize("machine_name", ["alpha", "m88100", "m68030"])
def test_indexed_passes_match_oracles_at_every_cleanup_entry(
    monkeypatch, machine_name
):
    machine = get_machine(machine_name)
    preset, overrides = COLUMN_CONFIGS["coalesce-all"]
    options = dict(machine_overrides(machine_name))
    options.update(overrides)
    real_cleanup = repro.pipeline.cleanup
    entries = []
    changes = {rewritten.__name__: 0 for _, rewritten in PAIRS}

    def checked_cleanup(func, ctx):
        entries.append(func.name)
        _assert_same(func, machine, f"cleanup entry {len(entries)}",
                     changes)
        return real_cleanup(func, ctx)

    monkeypatch.setattr(repro.pipeline, "cleanup", checked_cleanup)
    for program in BENCHMARKS.values():
        compile_minic(program.source, machine_name, preset, **options)
    # Six cleanup stages per function: three around LICM and strength
    # reduction, one each after unrolling, coalescing and lowering.
    assert len(entries) >= 6 * len(BENCHMARKS)
    # Both passes found work to do, so the comparison is not vacuous.
    assert all(changes.values()), changes


# -- local_cse: index edge cases ---------------------------------------------

class TestLocalCseIndex:
    def test_stale_result_listing_does_not_drop_readded_key(self, ctx):
        # ``add r0, r1`` is dropped through r0, re-added with result r3,
        # and stays listed under its old result r2.  Redefining r2 must
        # not drop the re-added entry.
        func = func_of(
            "func f(r0, r1) {\nentry:\n    r2 = add r0, r1\n"
            "    r0 = 5\n    r3 = add r0, r1\n    r2 = 7\n"
            "    r4 = add r0, r1\n    r5 = add r4, r2\n"
            "    r6 = add r5, r3\n    ret r6\n}"
        )
        assert local_cse(func, ctx)
        reused = func.block("entry").instrs[4]
        assert isinstance(reused, Mov) and reused.src == Reg(3)

    def test_redefined_current_result_drops_key(self, ctx):
        func = func_of(
            "func f(r0, r1) {\nentry:\n    r2 = add r0, r1\n"
            "    r0 = 5\n    r3 = add r0, r1\n    r3 = 7\n"
            "    r4 = add r0, r1\n    r5 = add r4, r3\n    ret r5\n}"
        )
        assert not local_cse(func, ctx)
        assert isinstance(func.block("entry").instrs[4], BinOp)

    def test_self_increment_kept_and_not_recorded(self, ctx):
        func = func_of(
            "func f(r0) {\nentry:\n    r1 = add r0, 1\n"
            "    r0 = add r0, 1\n    r2 = add r0, 1\n"
            "    r3 = mul r1, r2\n    ret r3\n}"
        )
        assert not local_cse(func, ctx)
        instrs = func.block("entry").instrs
        assert isinstance(instrs[1], BinOp) and instrs[1].dst == Reg(0)
        assert isinstance(instrs[2], BinOp)

    @pytest.mark.parametrize(
        "barrier", ["store.4 [r1], 0", "r9 = call g(r1)"]
    )
    def test_store_and_call_kill_loads_only(self, ctx, barrier):
        func = func_of(
            "func f(r0, r1) {\nentry:\n    r2 = load.4s [r0]\n"
            f"    r3 = add r0, r1\n    {barrier}\n"
            "    r4 = load.4s [r0]\n    r5 = add r0, r1\n"
            "    r6 = add r4, r5\n    ret r6\n}"
        )
        assert local_cse(func, ctx)
        instrs = func.block("entry").instrs
        assert isinstance(instrs[3], Load)
        assert isinstance(instrs[4], Mov) and instrs[4].src == Reg(3)

    def test_commutative_key_reused_and_killed_by_either_operand(
        self, ctx
    ):
        func = func_of(
            "func f(r0, r1) {\nentry:\n    r2 = mul r1, r0\n"
            "    r3 = mul r0, r1\n    r1 = 0\n    r4 = mul r0, r1\n"
            "    r5 = add r3, r4\n    r6 = add r5, r2\n    ret r6\n}"
        )
        assert local_cse(func, ctx)
        instrs = func.block("entry").instrs
        assert isinstance(instrs[1], Mov) and instrs[1].src == Reg(2)
        assert isinstance(instrs[3], BinOp)


# -- run_to_fixpoint: idle passes ---------------------------------------------

def _counting_pass(name, outcomes):
    """A pass returning ``outcomes`` in turn, then ``False``."""
    pending = list(outcomes)

    def pass_fn(func, ctx):
        return pending.pop(0) if pending else False

    pass_fn.__name__ = name
    return pass_fn


TRIVIAL = "func f(r0) {\nentry:\n    ret r0\n}"


class TestFixpointSkipsIdlePasses:
    def test_idle_pass_waits_for_another_change(self, ctx):
        idle = _counting_pass("idle", [])
        once = _counting_pass("once", [True])
        last = _counting_pass("last", [])
        assert run_to_fixpoint(func_of(TRIVIAL), ctx, [idle, once, last])
        # Round 1: idle (no-op), once (change), last (no-op).
        # Round 2: idle reruns after the change, once is a no-op, and
        # last is skipped: nothing changed since its no-op.
        assert ctx.stats["idle"]["runs"] == 2
        assert ctx.stats["once"]["runs"] == 2
        assert ctx.stats["last"]["runs"] == 1

    def test_changing_pass_always_runs_again(self, ctx):
        twice = _counting_pass("twice", [True, True])
        assert run_to_fixpoint(func_of(TRIVIAL), ctx, [twice])
        assert ctx.stats["twice"]["runs"] == 3
        assert ctx.stats["twice"]["changed"] == 2

    def test_every_round_reruns_after_a_change(self, ctx):
        always = _counting_pass("always", [True] * 10)
        idle = _counting_pass("idle", [])
        run_to_fixpoint(func_of(TRIVIAL), ctx, [idle, always],
                        max_rounds=3)
        assert ctx.stats["always"]["runs"] == 3
        assert ctx.stats["idle"]["runs"] == 3

    def test_no_state_survives_the_call(self, ctx):
        idle = _counting_pass("idle", [])
        func = func_of(TRIVIAL)
        assert not run_to_fixpoint(func, ctx, [idle])
        assert not run_to_fixpoint(func, ctx, [idle])
        assert ctx.stats["idle"]["runs"] == 2


# -- global_const_prop: restricted chains -------------------------------------

class TestRestrictedGlobalConstProp:
    def test_copy_chain_across_blocks_folds(self, ctx, monkeypatch):
        built = []

        def recording_chains(func, regs=None):
            built.append(set(regs))
            return def_use_chains(func, regs)

        monkeypatch.setattr(global_const, "def_use_chains",
                            recording_chains)
        func = func_of(
            "func f(r0) {\nentry:\n    r1 = 3\n    r5 = add r0, 1\n"
            "    jump b1\nb1:\n    r2 = r1\n    jump b2\n"
            "b2:\n    r3 = r2\n    r4 = add r3, r5\n    ret r4\n}"
        )
        assert global_const_prop(func, ctx)
        assert built == [{1, 2, 3}]
        assert func.block("b1").instrs[0].src == Const(3)
        assert func.block("b2").instrs[0].src == Const(3)
        assert func.block("b2").instrs[1].a == Const(3)

    def test_constant_merged_with_non_constant_not_rewritten(self, ctx):
        func = func_of(
            "func f(r0) {\nentry:\n    br lt r0, 0, a, b\n"
            "a:\n    r1 = 3\n    jump join\n"
            "b:\n    r1 = add r0, 1\n    jump join\n"
            "join:\n    r2 = add r1, 0\n    ret r2\n}"
        )
        assert not global_const_prop(func, ctx)
        assert func.block("join").instrs[0].a == Reg(1)

    def test_no_constant_moves_builds_nothing(self, ctx, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("def_use_chains called")

        monkeypatch.setattr(global_const, "def_use_chains", forbidden)
        func = func_of(
            "func f(r0, r1) {\nentry:\n    r2 = r0\n"
            "    r3 = add r2, r1\n    ret r3\n}"
        )
        assert not global_const_prop(func, ctx)

