"""Outside-in span tracing for the benchmark.

Spans are recorded only from this package.  The benchmark opens spans
around its own calls into each layer (``pipeline``, ``sim.*``,
``service.*``), and :func:`install` rebinds the public functions the
compiler's layers export to span-recording wrappers for the length of a
traced run.  Nothing inside ``src/repro`` knows it is being traced.

A span is ``(id, name, start, end, parent, request)``.  Spans live in
memory and are written out once, after the run (:meth:`Tracer.dump`).
A layer's *self* time is its span's duration minus the durations of its
direct children; wrapped calls nest strictly (one thread per request),
so children never overlap inside a parent.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from typing import Callable, Dict, Iterator, List, Optional, Tuple


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "request",
                 "child_s")

    def __init__(self, sid: int, name: str, start: float,
                 parent: Optional["Span"], request: Optional[str]):
        self.id = sid
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent.id if parent is not None else None
        self.request = request
        self.child_s = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.seconds - self.child_s

    def as_dict(self) -> dict:
        return {
            "id": self.id, "name": self.name,
            "start": self.start, "end": self.end,
            "parent": self.parent, "request": self.request,
        }


class NullTracer:
    """The untraced stand-in: spans and counts cost one call each."""

    enabled = False
    _null = nullcontext()

    def span(self, name: str, request: Optional[str] = None):
        return self._null

    def count(self, name: str, amount: float = 1) -> None:
        pass

    def sample(self, name: str, value: float) -> None:
        pass


class Tracer:
    """Collects spans and per-layer counters for one traced run."""

    enabled = True

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, request: Optional[str] = None
             ) -> Iterator[Span]:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if request is None and parent is not None:
            request = parent.request
        with self._lock:
            self._next_id += 1
            sid = self._next_id
        span = Span(sid, name, time.perf_counter(), parent, request)
        stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            if parent is not None:
                parent.child_s += span.seconds
            with self._lock:
                self.spans.append(span)

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] += amount

    def sample(self, name: str, value: float) -> None:
        with self._lock:
            self.samples[name].append(value)

    # -- aggregation ---------------------------------------------------------
    def self_seconds(self) -> Dict[str, float]:
        totals: Dict[str, float] = defaultdict(float)
        for span in self.spans:
            totals[span.name] += span.self_s
        return totals

    def calls(self) -> Dict[str, int]:
        totals: Dict[str, int] = defaultdict(int)
        for span in self.spans:
            totals[span.name] += 1
        return totals

    def dump(self, path) -> None:
        """Write every span as one JSON line, oldest first."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in sorted(self.spans, key=lambda s: s.start):
                handle.write(json.dumps(span.as_dict()) + "\n")


#: Optimizer passes traced as ``opt.<name>``, keyed by the module that
#: defines them.  The cleanup bundle's passes report whether they
#: changed the function, which feeds ``opt.<name>.changed``.
PASSES: Tuple[Tuple[str, str, str], ...] = (
    ("repro.opt.simplify_cfg", "simplify_cfg", "simplify_cfg"),
    ("repro.opt.constant_fold", "constant_fold", "constant_fold"),
    ("repro.opt.copy_prop", "copy_propagate", "copy_propagate"),
    ("repro.opt.global_const", "global_const_prop", "global_const_prop"),
    ("repro.opt.cse", "local_cse", "local_cse"),
    ("repro.opt.peephole", "peephole", "peephole"),
    ("repro.opt.dce", "dead_code_elimination", "dead_code_elimination"),
    ("repro.opt.licm", "loop_invariant_code_motion", "licm"),
    ("repro.opt.strength_reduction", "strength_reduce", "strength_reduce"),
    ("repro.opt.unroll", "unroll_function", "unroll"),
)

#: The other layer entry points: (module, function, span name).
LAYERS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.frontend", "compile_source", "frontend"),
    ("repro.opt.pass_manager", "cleanup", "opt.cleanup"),
    ("repro.coalesce.coalescer", "coalesce_function", "coalesce"),
    ("repro.coalesce.profitability", "estimate_block_cycles",
     "coalesce.fig3"),
    ("repro.machine.lowering", "lower_module", "machine.lower"),
    ("repro.sched.block_cost", "schedule_module", "sched.schedule"),
    ("repro.ir.verifier", "verify_function", "ir.verify"),
    ("repro.ir.verifier", "verify_module", "ir.verify"),
)

#: Analyses traced as ``analysis.<name>``: every build, whether asked
#: for through the AnalysisManager or called directly by a pass.
ANALYSES: Tuple[Tuple[str, str, str], ...] = (
    ("repro.analysis.reaching", "reaching_definitions", "reaching"),
    ("repro.analysis.defuse", "def_use_chains", "defuse"),
    ("repro.analysis.liveness", "liveness", "liveness"),
    ("repro.analysis.dominators", "immediate_dominators", "dominators"),
    ("repro.analysis.alias", "memory_dependence", "memdep"),
)


def _wrap(tracer: Tracer, fn: Callable, name: str,
          count_changed: bool = False) -> Callable:
    """A span-recording wrapper that keeps ``__name__``, ``__doc__``
    and the ``preserves`` declaration (``functools.wraps`` copies the
    function's ``__dict__``): the pass manager records passes by
    ``__name__`` and reads ``preserves`` to invalidate analyses."""
    changed_key = name + ".changed"

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            result = fn(*args, **kwargs)
        if count_changed and result:
            tracer.count(changed_key)
        return result

    return wrapper


class Installation:
    """Rebinds layer functions everywhere ``repro`` modules hold them,
    and undoes it on :meth:`uninstall`."""

    def __init__(self) -> None:
        self._undo: List[Tuple[object, str, object, bool]] = []
        #: id(wrapper) -> (wrapper, original)
        self._wrappers: Dict[int, Tuple[Callable, Callable]] = {}

    @staticmethod
    def _repro_modules():
        for module in list(sys.modules.values()):
            name = getattr(module, "__name__", "")
            if name == "repro" or name.startswith("repro."):
                yield module

    def rebind(self, original: Callable, wrapper: Callable) -> None:
        self._wrappers[id(wrapper)] = (wrapper, original)
        for module in self._repro_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._undo.append((module, attr, original, False))
        # The AnalysisManager resolves registered analyses once and keeps
        # the callables in its own table.
        from repro.analysis import manager

        table = getattr(manager, "_resolved", None)
        if isinstance(table, dict):
            for key, value in list(table.items()):
                if value is original:
                    table[key] = wrapper
                    self._undo.append((table, key, original, True))

    def patch_method(self, cls, attr: str, replacement) -> None:
        self._undo.append((cls, attr, getattr(cls, attr), False))
        setattr(cls, attr, replacement)

    def uninstall(self) -> None:
        for target, attr, original, is_item in reversed(self._undo):
            if is_item:
                target[attr] = original
            else:
                setattr(target, attr, original)
        self._undo.clear()
        # Modules first imported, and analyses first resolved, while
        # tracing bound the wrappers.
        for module in self._repro_modules():
            for attr, value in list(vars(module).items()):
                original = self._original_of(value)
                if original is not None:
                    setattr(module, attr, original)
        from repro.analysis import manager

        table = getattr(manager, "_resolved", None)
        if isinstance(table, dict):
            for key, value in list(table.items()):
                original = self._original_of(value)
                if original is not None:
                    table[key] = original
        self._wrappers.clear()

    def _original_of(self, value) -> Optional[Callable]:
        """The function ``value`` wraps, or None if it is no wrapper."""
        entry = self._wrappers.get(id(value))
        if entry is not None and entry[0] is value:
            return entry[1]
        return None


def install(tracer: Tracer) -> Installation:
    """Wrap every traced layer entry point; returns the undo handle."""
    import importlib

    import repro.pipeline  # noqa: F401 — load every layer before rebinding
    from repro.analysis.manager import AnalysisManager

    inst = Installation()
    for module_name, attr, span in LAYERS:
        fn = getattr(importlib.import_module(module_name), attr)
        inst.rebind(fn, _wrap(tracer, fn, span))
    for module_name, attr, span in PASSES:
        fn = getattr(importlib.import_module(module_name), attr)
        inst.rebind(fn, _wrap(tracer, fn, "opt." + span,
                              count_changed=True))
    for module_name, attr, span in ANALYSES:
        fn = getattr(importlib.import_module(module_name), attr)
        inst.rebind(fn, _wrap(tracer, fn, "analysis." + span))

    original_get = AnalysisManager.get

    @functools.wraps(original_get)
    def counted_get(self, func, name):
        before = self.hits
        result = original_get(self, func, name)
        tracer.count("analysis.get")
        if self.hits != before:
            tracer.count("analysis.get_hit")
        return result

    inst.patch_method(AnalysisManager, "get", counted_get)
    return inst
