"""The analysis manager: caching with pass-level invalidation.

The manager memoizes analyses per function; a pass that changes a
function reports which analyses it *preserves* (via a ``preserves``
attribute on the pass callable, a set of analysis names) and the manager
drops everything else.  The coalescer reads the alias engine's summary
(``memdep``) through it.  The scalar cleanup fixpoint does not: nearly
every cleanup pass invalidates the dataflow, so ``global_const_prop``
builds its own def-use chains, restricted to the registers that can hold
a constant (see :mod:`repro.opt.global_const`), and ``run_to_fixpoint``
skips passes whose last run was a no-op.

Registered analyses:

``reaching``
    :func:`repro.analysis.reaching.reaching_definitions`
``defuse``
    :func:`repro.analysis.defuse.def_use_chains`
``liveness``
    :func:`repro.analysis.liveness.liveness`
``dominators``
    :func:`repro.analysis.dominators.immediate_dominators`
``memdep``
    :func:`repro.analysis.alias.memory_dependence` — the symbolic alias
    and memory-dependence summary.

Functions are held through a :class:`weakref.WeakKeyDictionary`, so a
cached entry can never outlive (or be confused with) its function, and a
manager kept around between compilations leaks nothing.
"""

from __future__ import annotations

import weakref
from typing import Callable, Dict, FrozenSet, Iterable, Optional

from repro.errors import ReproError
from repro.ir.function import Function

#: Analysis name -> "module:callable" resolved lazily (the alias engine
#: imports back into analysis, so eager imports would cycle).
_REGISTRY: Dict[str, str] = {
    "reaching": "repro.analysis.reaching:reaching_definitions",
    "defuse": "repro.analysis.defuse:def_use_chains",
    "liveness": "repro.analysis.liveness:liveness",
    "dominators": "repro.analysis.dominators:immediate_dominators",
    "memdep": "repro.analysis.alias:memory_dependence",
}

ALL_ANALYSES: FrozenSet[str] = frozenset(_REGISTRY)

_resolved: Dict[str, Callable[[Function], object]] = {}


def _resolve(name: str) -> Callable[[Function], object]:
    fn = _resolved.get(name)
    if fn is None:
        try:
            module_name, attr = _REGISTRY[name].split(":")
        except KeyError:
            raise ReproError(
                f"unknown analysis {name!r}; known: "
                f"{', '.join(sorted(_REGISTRY))}"
            ) from None
        import importlib

        fn = getattr(importlib.import_module(module_name), attr)
        _resolved[name] = fn
    return fn


class AnalysisManager:
    """Per-function analysis cache with explicit invalidation."""

    def __init__(self) -> None:
        self._cache: "weakref.WeakKeyDictionary[Function, Dict[str, object]]"
        self._cache = weakref.WeakKeyDictionary()
        self.hits = 0
        self.misses = 0

    # -- retrieval ----------------------------------------------------------
    def get(self, func: Function, name: str) -> object:
        entry = self._cache.get(func)
        if entry is None:
            entry = {}
            self._cache[func] = entry
        if name in entry:
            self.hits += 1
            return entry[name]
        self.misses += 1
        result = _resolve(name)(func)
        entry[name] = result
        return result

    def reaching(self, func: Function):
        return self.get(func, "reaching")

    def defuse(self, func: Function):
        return self.get(func, "defuse")

    def liveness(self, func: Function):
        return self.get(func, "liveness")

    def dominators(self, func: Function):
        return self.get(func, "dominators")

    def memdep(self, func: Function):
        return self.get(func, "memdep")

    # -- invalidation -------------------------------------------------------
    def invalidate(
        self,
        func: Function,
        preserved: Optional[Iterable[str]] = None,
    ) -> None:
        """Drop ``func``'s cached analyses, keeping only ``preserved``.

        Called after a pass changed the function; the pass's ``preserves``
        declaration becomes ``preserved``.  An empty/absent declaration
        drops everything — conservatively correct for any mutation.
        """
        entry = self._cache.get(func)
        if not entry:
            return
        keep = frozenset(preserved or ())
        for name in list(entry):
            if name not in keep:
                del entry[name]

    def clear(self) -> None:
        """Drop every cached analysis for every function."""
        self._cache.clear()


def invalidate_after(pass_fn, manager: Optional[AnalysisManager],
                     func: Function, changed) -> None:
    """Apply ``pass_fn``'s ``preserves`` declaration to ``manager``.

    ``changed`` falsy (and not ``None``) means the pass left the function
    untouched, which preserves everything; ``None`` means the outcome is
    unknown (a guarded stage that rolled back or returned no verdict) and
    is treated as changed.
    """
    if manager is None or changed is False:
        return
    manager.invalidate(func, getattr(pass_fn, "preserves", None))
