"""Pass management.

A pass is a callable ``pass_fn(func, ctx) -> bool`` returning whether it
changed anything.  The manager runs passes in order, optionally to a
fixpoint, verifying the IR after each pass so a transformation bug is
caught at its source.

The context also carries the sanitizer hooks: a ``sink`` collects
diagnostics from anything that wants to report instead of raise, and
``differential=True`` makes the manager snapshot each function before
every pass and compare observable behaviour afterwards (see
:mod:`repro.sanitize.differential`), so a miscompile is pinned to the
pass that introduced it.  ``stats`` records per-pass changed/unchanged
and wall-clock timing for every invocation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.analysis.manager import AnalysisManager, invalidate_after
from repro.ir.function import Function, Module
from repro.ir.verifier import verify_function
from repro.machine.machine import MachineDescription

PassFn = Callable[[Function, "PassContext"], bool]


@dataclass
class PassContext:
    """Target information and sanitizer hooks every pass may need."""

    machine: MachineDescription
    verify: bool = True
    # Sanitizer integration: diagnostics land in the sink; differential
    # mode re-executes each function before/after every pass.
    sink: Optional[object] = None
    differential: bool = False
    # Fault isolation: what to do when a pass raises/corrupts/miscompiles
    # ('raise' | 'skip' | 'fallback', see repro.resilience.transaction),
    # and an optional repro.resilience.FaultPlan to chaos-test with.
    on_pass_failure: str = "raise"
    faults: Optional[object] = None
    # pass name -> {"runs": int, "changed": int, "seconds": float}
    stats: Dict[str, Dict[str, float]] = field(default_factory=dict)
    # Cached dataflow (repro.analysis.manager).  A pass that changes a
    # function must let the manager know; declaring a ``preserves`` set
    # on the pass callable keeps the named analyses alive across it.
    analyses: AnalysisManager = field(default_factory=AnalysisManager)

    @property
    def word_bytes(self) -> int:
        return self.machine.word_bytes

    @property
    def word_mask(self) -> int:
        return self.machine.word_mask

    def record_pass(self, name: str, changed: bool, seconds: float) -> None:
        entry = self.stats.setdefault(
            name, {"runs": 0, "changed": 0, "seconds": 0.0}
        )
        entry["runs"] += 1
        entry["changed"] += 1 if changed else 0
        entry["seconds"] += seconds


class PassManager:
    """Runs a pipeline of function passes over a module."""

    def __init__(self, ctx: PassContext):
        self.ctx = ctx
        self.passes: List[Tuple[str, PassFn]] = []

    def add(self, name: str, pass_fn: PassFn) -> "PassManager":
        self.passes.append((name, pass_fn))
        return self

    def _sanitizer(self, module: Optional[Module]):
        if not (self.ctx.differential and module is not None
                and self.ctx.sink is not None):
            return None
        from repro.sanitize.differential import DifferentialSanitizer

        return DifferentialSanitizer(
            module, self.ctx.machine, self.ctx.sink
        )

    def run(self, module: Module) -> None:
        sanitizer = self._sanitizer(module)
        for func in module:
            self.run_on_function(func, module, _sanitizer=sanitizer)

    def run_on_function(
        self,
        func: Function,
        module: Optional[Module] = None,
        _sanitizer=None,
    ) -> None:
        sanitizer = _sanitizer
        if sanitizer is None:
            sanitizer = self._sanitizer(module)
        guard = self._guard(func, module, sanitizer)
        if guard is not None:
            for name, pass_fn in self.passes:
                outcome = guard.stage(
                    self.ctx, name,
                    lambda pass_fn=pass_fn: pass_fn(func, self.ctx),
                    func=func, verify_after=self.ctx.verify,
                )
                invalidate_after(
                    pass_fn, self.ctx.analyses, func, outcome
                )
            return
        for name, pass_fn in self.passes:
            snapshot = sanitizer.snapshot(func) if sanitizer else None
            started = time.perf_counter()
            changed = bool(pass_fn(func, self.ctx))
            self.ctx.record_pass(
                name, changed, time.perf_counter() - started
            )
            invalidate_after(pass_fn, self.ctx.analyses, func, changed)
            if self.ctx.verify:
                verify_function(func)
            if sanitizer is not None and changed:
                sanitizer.compare(snapshot, func, name)

    def _guard(self, func: Function, module: Optional[Module], sanitizer):
        """A PassGuard when fault isolation is on; ``None`` keeps the
        legacy fast path (and its exact behaviour) otherwise."""
        if self.ctx.on_pass_failure == "raise" and not self.ctx.faults:
            return None
        from repro.resilience.transaction import PassGuard

        scope = module
        if scope is None:
            # Snapshot scope for standalone runs: a throwaway module
            # wrapping just this function.
            scope = Module(name=f"<pm:{func.name}>")
            scope.functions[func.name] = func
        return PassGuard(
            scope,
            self.ctx.machine,
            policy=self.ctx.on_pass_failure,
            faults=self.ctx.faults,
            sink=self.ctx.sink,
            sanitizer=sanitizer,
            verify=self.ctx.verify,
        )


def run_to_fixpoint(
    func: Function,
    ctx: PassContext,
    passes: List[PassFn],
    max_rounds: int = 20,
) -> bool:
    """Iterate ``passes`` until none of them changes the function.

    A pass whose last run returned ``False`` is skipped until another
    pass changes the function: a pass is a function of the IR, so it
    would find nothing again.  The bookkeeping lives in this call only.
    """
    generation = 0  # bumped whenever a pass changes the function
    idle_at = [-1] * len(passes)  # generation of each pass's last no-op
    ever_changed = False
    for _ in range(max_rounds):
        changed = False
        for position, pass_fn in enumerate(passes):
            if idle_at[position] == generation:
                continue
            name = getattr(pass_fn, "__name__", str(pass_fn))
            started = time.perf_counter()
            pass_changed = bool(pass_fn(func, ctx))
            ctx.record_pass(
                name, pass_changed, time.perf_counter() - started
            )
            invalidate_after(pass_fn, ctx.analyses, func, pass_changed)
            if pass_changed:
                generation += 1
                changed = True
                if ctx.verify:
                    verify_function(func)
            else:
                idle_at[position] = generation
        ever_changed = ever_changed or changed
        if not changed:
            return ever_changed
    return ever_changed


def cleanup(func: Function, ctx: PassContext) -> bool:
    """The standard scalar cleanup bundle, run to a fixpoint."""
    from repro.opt.constant_fold import constant_fold
    from repro.opt.copy_prop import copy_propagate
    from repro.opt.cse import local_cse
    from repro.opt.dce import dead_code_elimination
    from repro.opt.global_const import global_const_prop
    from repro.opt.peephole import peephole
    from repro.opt.simplify_cfg import simplify_cfg

    return run_to_fixpoint(
        func,
        ctx,
        [
            simplify_cfg,
            constant_fold,
            copy_propagate,
            global_const_prop,
            local_cse,
            peephole,
            dead_code_elimination,
        ],
    )


# Names usable with Pipeline configuration.
STANDARD_PASSES = (
    "simplify_cfg",
    "constant_fold",
    "copy_propagate",
    "local_cse",
    "dead_code_elimination",
)
