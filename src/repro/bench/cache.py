"""Disk-backed compile-session cache.

Compiling one benchmark column takes seconds of pure-Python work
(front end, dataflow, unrolling, coalescing, lowering, scheduling);
simulating it takes milliseconds.  Because the final module round-trips
through the RTL text format bit-for-bit (``format_module`` /
``parse_module``), a finished compilation can be persisted and revived
in a later process, skipping the whole frontend/opt/lowering path.

A cache entry is keyed by the SHA-256 of four things:

* the MiniC **source text**,
* the **machine** name,
* the full **pipeline config** (every ``PipelineConfig`` field),
* the **pass-list fingerprint** — a hash over the contents of every
  Python file that participates in compilation (``pipeline.py`` plus the
  ``frontend``, ``ir``, ``analysis``, ``opt``, ``coalesce``, ``machine``
  and ``sched`` packages), so editing any pass invalidates every entry.

The cache is one :class:`repro.service.artifacts.ArtifactStore`.
Entries are written to a temp file, fsync'd, and hardlinked into place
(link-once — an existing entry is never replaced), framed by an
integrity header whose length and SHA-256 every read re-verifies.  A corrupted or stale entry is treated as a miss
and deleted; any ``OSError`` on the read or write path (disk full,
permissions, a yanked directory) logs a diagnostic and bypasses the
cache — the compile itself never fails because of cache I/O.  The cache
lives in ``$REPRO_CACHE_DIR`` (default ``~/.cache/repro-compile``) and
is disabled entirely by ``REPRO_CACHE=off``.  Disk usage is bounded by
the store's LRU cap (``REPRO_CACHE_MAX_BYTES``); ``python -m repro
cache --stats`` inspects the store, ``--clear`` empties it.

``cached_compile_minic`` runs the whole miss path through
``ArtifactStore.fetch_or_compute``, so concurrent requests for one cold
key — threads of the compile service's worker pool or separate
processes (the fleet's workers, CI shards, a human running ``bench``) —
compile it once: the first caller takes the key's lease and the rest
block-with-deadline on it and read the published artifact, or, if the
holder dies, steal the lease (fencing-token rule, DESIGN.md §8b) and
compile in its place.  Every result says which path served it:
``CompiledProgram.cache_hit`` is true exactly when the store did.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict
from functools import lru_cache
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Optional, Union

from repro.coalesce import CoalesceReport
from repro.errors import ReproError
from repro.ir.printer import format_module
from repro.machine import MachineDescription, get_machine
from repro.pipeline import (
    CompiledProgram,
    PipelineConfig,
    compile_minic,
    get_config,
)

if TYPE_CHECKING:
    from repro.service.artifacts import ArtifactStore

CACHE_SCHEMA = 1

#: Package subtrees whose source text participates in compilation.  The
#: sim/ and sanitize/ trees are deliberately absent: they run *after*
#: compilation and do not affect the cached module.
_COMPILE_TREES = (
    "frontend", "ir", "analysis", "opt", "coalesce", "machine", "sched",
)


@lru_cache(maxsize=1)
def pass_fingerprint() -> str:
    """Hash of every compiler source file; changes when any pass does."""
    import repro

    root = Path(repro.__file__).resolve().parent
    digest = hashlib.sha256()
    # PassGuard.stage runs every stage and retires cached dataflow after
    # it, so the guard shapes compiled output too.
    files = [
        root / "pipeline.py", root / "errors.py",
        root / "resilience" / "transaction.py",
    ]
    for tree in _COMPILE_TREES:
        files.extend(sorted((root / tree).rglob("*.py")))
    for path in files:
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def config_fingerprint(config: PipelineConfig) -> str:
    """Stable serialization of every pipeline knob."""
    return json.dumps(asdict(config), sort_keys=True)


def cache_key(
    source: str,
    machine_name: str,
    config: PipelineConfig,
    fingerprint: Optional[str] = None,
) -> str:
    """The cache key for one (source, machine, config) compilation."""
    if fingerprint is None:
        fingerprint = pass_fingerprint()
    blob = "\x00".join(
        (
            f"schema={CACHE_SCHEMA}",
            f"passes={fingerprint}",
            f"machine={machine_name}",
            f"config={config_fingerprint(config)}",
            source,
        )
    )
    return hashlib.sha256(blob.encode()).hexdigest()


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR``, or ``~/.cache/repro-compile``."""
    return Path(
        os.environ.get("REPRO_CACHE_DIR")
        or Path.home() / ".cache" / "repro-compile"
    )


def cache_enabled() -> bool:
    return os.environ.get("REPRO_CACHE", "on").lower() not in (
        "off", "0", "false", "no",
    )


_default_cache: Optional[ArtifactStore] = None


def default_cache() -> Optional[ArtifactStore]:
    """The process-wide store, or None when REPRO_CACHE=off."""
    global _default_cache
    if not cache_enabled():
        return None
    if (
        _default_cache is None
        or _default_cache.directory != default_cache_dir()
    ):
        from repro.sanitize import DiagnosticSink
        from repro.service.artifacts import ArtifactStore

        _default_cache = ArtifactStore(
            default_cache_dir(), sink=DiagnosticSink()
        )
    return _default_cache


# -- (de)serialization ------------------------------------------------------
def serialize_program(program: CompiledProgram) -> dict:
    """The JSON payload for one finished compilation."""
    return {
        "schema": CACHE_SCHEMA,
        "module_name": program.module.name,
        "module": format_module(program.module),
        "machine": program.machine.name,
        "coalesce_reports": [asdict(r) for r in program.coalesce_reports],
        "pass_stats": program.pass_stats,
    }


def validate_payload(payload) -> dict:
    """Shape-check a decoded payload; raises ``ValueError``.

    A truncated-then-concatenated or hand-edited entry can be valid
    JSON yet still unusable; check shape before reviving.
    """
    if not isinstance(payload, dict):
        raise ValueError("payload is not an object")
    if payload.get("schema") != CACHE_SCHEMA:
        raise ValueError("schema mismatch")
    if not isinstance(payload.get("module"), str):
        raise ValueError("missing or non-text 'module' field")
    if not isinstance(payload.get("machine"), str):
        raise ValueError("missing or non-text 'machine' field")
    return payload


def revive_program(
    payload: dict,
    machine: MachineDescription,
    config: PipelineConfig,
) -> Optional[CompiledProgram]:
    """Rebuild a CompiledProgram from a payload; None if it is unusable."""
    from repro.ir.parser import parse_module

    try:
        module = parse_module(
            payload["module"], name=payload.get("module_name", "module")
        )
        reports = []
        for entry in payload.get("coalesce_reports", []):
            entry = dict(entry)
            entry["rejections"] = [
                tuple(pair) for pair in entry.get("rejections", [])
            ]
            entry["elisions"] = [
                tuple(pair) for pair in entry.get("elisions", [])
            ]
            reports.append(CoalesceReport(**entry))
        stats: Dict[str, Dict[str, float]] = payload.get("pass_stats", {})
    except Exception:
        return None
    return CompiledProgram(
        module, machine, config,
        coalesce_reports=reports,
        pass_stats=stats,
        cache_hit=True,
    )


def cached_compile_minic(
    source: str,
    machine: Union[str, MachineDescription] = "alpha",
    config: Union[str, PipelineConfig, None] = None,
    cache: Optional[ArtifactStore] = None,
    cancel=None,
    faults=None,
    **overrides,
) -> CompiledProgram:
    """``compile_minic`` with the artifact store wrapped around it.

    Sanitizer/differential configurations are never cached: their value
    is in the diagnostics, which re-running the passes produces and a
    cache hit would silently drop.  Fault-isolated compilations
    (``on_pass_failure != 'raise'`` or an active ``REPRO_FAULTS`` plan)
    bypass the cache too: a degraded program must not be revived as if
    it were the full compilation, and a hit would lose its
    ``pass_failures``.  The one exception is a plan made purely of
    disk-fault kinds (``FaultPlan.disk_only()``): those faults target
    the artifact store itself, so the cache stays ON and the plan is
    armed *inside* the store instead.

    ``cache`` is the store (default: :func:`default_cache`).  Its lease
    protocol dedups concurrent identical keys across threads and
    processes; a waiter gives up on a rival's lease after the store's
    ``wait_timeout`` and compiles locally — degraded to duplicate work,
    never to an error.  ``cancel`` is the pipeline's cancellation probe
    (checked at stage boundaries and at every lease poll, so a waiter
    honours its own deadline); the cache-hit path never reaches it.
    """
    if isinstance(machine, str):
        machine = get_machine(machine)
    config = get_config(config, **overrides)
    if cache is None:
        cache = default_cache()
    plan = faults
    if plan is None and os.environ.get("REPRO_FAULTS"):
        from repro.resilience.faults import FaultPlan

        try:
            plan = FaultPlan.from_env()
        except ReproError:
            # Unparseable plan: stay out of the cache and let the
            # compile path surface the configuration error.
            plan = object()
    plan_blocks_cache = plan is not None and not (
        hasattr(plan, "disk_only") and plan.disk_only()
    )
    if (
        cache is None or config.sanitize or config.differential
        or config.on_pass_failure != "raise"
        or config.disabled_passes
        or plan_blocks_cache
    ):
        return compile_minic(source, machine, config, cancel=cancel)
    if plan is not None and cache.faults is None:
        cache.faults = plan  # arm disk faults inside the store

    def produce():
        compiled = compile_minic(source, machine, config, cancel=cancel)
        return compiled, json.dumps(serialize_program(compiled)).encode()

    def decode(data: bytes) -> CompiledProgram:
        revived = revive_program(
            validate_payload(json.loads(data)), machine, config
        )
        if revived is None:
            raise ValueError("payload does not revive to a program")
        return revived

    try:
        program, _role = cache.fetch_or_compute(
            cache_key(source, machine.name, config), produce,
            decode=decode, cancel=cancel,
        )
    except OSError:
        # Anything the store could not degrade internally (a dying
        # filesystem, a yanked cache directory): compile uncached.
        return compile_minic(source, machine, config, cancel=cancel)
    return program
