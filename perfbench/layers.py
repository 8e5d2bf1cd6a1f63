"""Per-layer metrics, computed from a traced run.

Every workload prints every metric below; a layer the workload does not
reach reads 0 there.  Layer names are the ``repro`` module names.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from perfbench.spans import ANALYSES, PASSES
from perfbench.stats import percentile, ratio

_PASS_NAMES = [span for _, _, span in PASSES]
_ANALYSIS_NAMES = [span for _, _, span in ANALYSES]


def metric_names() -> List[Tuple[str, str]]:
    """Every per-layer metric as ``(name, unit)``, in print order."""
    names: List[Tuple[str, str]] = [
        ("frontend.self_s", "s"), ("frontend.calls", "count"),
    ]
    for name in _PASS_NAMES:
        names += [
            (f"opt.{name}.self_s", "s"),
            (f"opt.{name}.calls", "count"),
            (f"opt.{name}.changed_ratio", "ratio"),
        ]
    names.append(("opt.cleanup.self_s", "s"))
    for name in _ANALYSIS_NAMES:
        names += [
            (f"analysis.{name}.builds", "count"),
            (f"analysis.{name}.self_s", "s"),
        ]
    names += [
        ("analysis.hit_ratio", "ratio"),
        ("ir.verify.self_s", "s"),
        ("pipeline.self_s", "s"),
        ("coalesce.self_s", "s"),
        ("coalesce.fig3_s", "s"),
        ("coalesce.applied_ratio", "ratio"),
        ("coalesce.checks_elided", "count"),
        ("machine.lower.self_s", "s"),
        ("sched.schedule.self_s", "s"),
        ("sim.build_s", "s"),
        ("sim.stage_s", "s"),
        ("sim.call_s", "s"),
        ("sim.report_s", "s"),
        ("sim.block_cache_hit_ratio", "ratio"),
        ("service.server_ms_p50", "ms"),
        ("service.server_ms_p90", "ms"),
        ("service.transport_ms_p50", "ms"),
        ("service.hit_ratio", "ratio"),
        ("service.retries", "count"),
        ("service.rejected", "count"),
        ("service.degraded", "count"),
        ("artifacts.publishes", "count"),
        ("artifacts.hits", "count"),
        ("artifacts.dedup", "count"),
        ("artifacts.drops", "count"),
        ("bench.check_s", "s"),
        ("bench.late_ms_p90", "ms"),
        ("trace.overhead_ratio", "ratio"),
    ]
    return names


def from_tracer(tracer) -> Dict[str, float]:
    """The span-derived per-layer values of one traced run."""
    self_s = tracer.self_seconds()
    calls = tracer.calls()
    counters = tracer.counters
    values: Dict[str, float] = {
        "frontend.self_s": self_s.get("frontend", 0.0),
        "frontend.calls": calls.get("frontend", 0),
        "opt.cleanup.self_s": self_s.get("opt.cleanup", 0.0),
        "ir.verify.self_s": self_s.get("ir.verify", 0.0),
        "pipeline.self_s": self_s.get("pipeline", 0.0),
        "coalesce.self_s": self_s.get("coalesce", 0.0),
        "coalesce.fig3_s": self_s.get("coalesce.fig3", 0.0),
        "machine.lower.self_s": self_s.get("machine.lower", 0.0),
        "sched.schedule.self_s": self_s.get("sched.schedule", 0.0),
        "sim.build_s": self_s.get("sim.build", 0.0),
        "sim.stage_s": self_s.get("sim.stage", 0.0),
        "sim.call_s": self_s.get("sim.call", 0.0),
        "sim.report_s": self_s.get("sim.report", 0.0),
        "bench.check_s": self_s.get("bench.check", 0.0),
        "analysis.hit_ratio": ratio(counters.get("analysis.get_hit", 0),
                                    counters.get("analysis.get", 0)),
    }
    for name in _PASS_NAMES:
        span = f"opt.{name}"
        values[f"{span}.self_s"] = self_s.get(span, 0.0)
        values[f"{span}.calls"] = calls.get(span, 0)
        values[f"{span}.changed_ratio"] = ratio(
            counters.get(f"{span}.changed", 0), calls.get(span, 0)
        )
    for name in _ANALYSIS_NAMES:
        span = f"analysis.{name}"
        values[f"{span}.builds"] = calls.get(span, 0)
        values[f"{span}.self_s"] = self_s.get(span, 0.0)

    server_ms = [s * 1e3 for s in tracer.samples.get("service.server_s", [])]
    transport_ms = [
        s * 1e3 for s in tracer.samples.get("service.transport_s", [])
    ]
    if server_ms:
        values["service.server_ms_p50"] = percentile(server_ms, 0.5)
        values["service.server_ms_p90"] = percentile(server_ms, 0.9)
    if transport_ms:
        values["service.transport_ms_p50"] = percentile(transport_ms, 0.5)
    return values


def complete(values: Dict[str, float]) -> Dict[str, dict]:
    """Every per-layer metric with its unit; unreached layers read 0."""
    return {
        name: {"value": values.get(name, 0), "unit": unit}
        for name, unit in metric_names()
    }
