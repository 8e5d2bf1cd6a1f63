"""service-mixed: an open loop of ``simulate`` requests against one
``python -m repro serve --workers 2`` process.

Set-up starts the server on a fresh private ``--cache-dir`` and
publishes every warm key (kernel × machine × column): one cold
``simulate`` that compiles and publishes, one that must come back a
cache hit, and one ``compile`` whose RTL gives the key's code size.
The measured load is a fixed-rate schedule drawn from the seed: most
requests reuse a warm key (reads of the artifact store), and a seeded
share carries new source text (a cold compile that publishes).  Every
request carries fresh seeded inputs and is checked against the Python
reference.  Latency is timed from when the request was due, so a
stalled sender charges its wait to every request behind it.

Two sender threads share the schedule, at :data:`RATE` requests per
second.  The client and the server run on one core (the server's two
workers share one interpreter lock anyway), so the host-speed probe the
idle client runs measures the core the server computes on.
"""

from __future__ import annotations

import os
import random
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional

from perfbench.calibrate import HostSpeed
from perfbench.inputs import Inputs, make_inputs
from perfbench.matrix import column_config, static_instrs
from perfbench.stats import FAILED_MS, Report, median, percentile, ratio

#: Kernels the service can check: each returns a value, and the
#: request asks back the first :data:`DUMP_WORDS` words of every array,
#: which hold all of ``spmv_csr``'s ``y`` and the first 64 of the 256
#: ``histogram`` bins.
KERNELS = ("dotproduct", "eqntott", "blockstage", "spmv_csr", "histogram")
MACHINES = ("alpha", "m88100", "m68030")
COLUMNS = ("vpo", "coalesce-all")
#: Inputs are SIZE×SIZE (256 elements for the vector kernels), so a
#: hit's server time is mostly the protocol and the artifact store
#: rather than simulation.
SIZE = 16
#: Requests per second.  Two closed-loop senders drew about 38/s from
#: the 2-worker server on this mix on a 2-core host.  At half of a
#: measured capacity the two workers, which share one interpreter lock,
#: overlapped so often that latency percentiles spread 18-25% from run
#: to run; at a third they rarely overlap and the queue stays short.
RATE = 12.0
#: Share of requests that carry new source text (cold compiles).  The
#: mix is synthetic: the repository holds no record of real traffic.
#: Hits are the majority, as on a warm service, and the share is the
#: smallest that leaves ten cold samples beyond the cold p90 in a
#: 20-second run (100 of 240 requests; the 140 hits leave 14).
COLD_SHARE = Fraction(5, 12)
SENDERS = 2
#: Words of each staged array a simulate response carries back (the
#: server's cap).
DUMP_WORDS = 64
DEADLINE_S = 20.0
#: Set-ups per run; ``setup_s`` is their median.  One takes about 1.4 s
#: and single ones spread about 18%, so five keep the median steady.
SETUP_REPEATS = 5
#: A sender probes host speed only while no request is in flight and
#: its next one is at least this far off, so a probe seldom delays a
#: send and never competes with the server.
PROBE_SLACK_S = 0.02


@dataclass
class Planned:
    """One scheduled request and what its answer must be."""

    index: int
    due: float
    cold: bool
    kernel: str
    machine: str
    column: str
    inputs: Inputs
    source: str


def key_fields(machine: str, column: str) -> dict:
    """The request fields that select a table column's pipeline."""
    preset, overrides = column_config(machine, column)
    return {"machine": machine, "config": preset, "overrides": overrides}


def simulate_fields(machine: str, column: str, inputs: Inputs,
                    source: str) -> dict:
    fields = key_fields(machine, column)
    fields.update(
        source=source, entry=inputs.entry, args=list(inputs.args),
        arrays=[[name, width, values]
                for name, width, values in inputs.arrays],
        deadline=DEADLINE_S,
    )
    if inputs.outputs:
        fields["dump"] = DUMP_WORDS
    return fields


def cold_source(source: str, seed: int, tag: str) -> str:
    """New source text for a cold compile that computes the same thing."""
    return f"/* cold variant {seed}-{tag} */\n{source}"


def plan(seed: int, seconds: float, tracer) -> List[Planned]:
    """The seeded schedule: due times, keys, inputs and sources.

    The mix is fixed by the run length alone: cold requests sit at
    evenly spaced slots, the cold and the warm requests each cycle
    through every key, and the seed shuffles the keys within each kind
    and draws the data.  So runs with different seeds do the same work
    in a different order, and no seed bunches the cold compiles.
    """
    from repro.bench.programs import BENCHMARKS

    rng = random.Random(seed)
    count = max(1, int(RATE * seconds))
    keys = [(k, m, c) for k in KERNELS for m in MACHINES for c in COLUMNS]
    cold_slots = [
        int((i + 1) * COLD_SHARE) > int(i * COLD_SHARE) for i in range(count)
    ]
    kinds = {}
    for cold in (True, False):
        slots = sum(1 for c in cold_slots if c == cold)
        order = [keys[i % len(keys)] for i in range(slots)]
        rng.shuffle(order)
        kinds[cold] = iter(order)
    mix = [(cold, next(kinds[cold])) for cold in cold_slots]
    planned = []
    with tracer.span("bench.check"):
        for index, (cold, (kernel, machine, column)) in enumerate(mix):
            inputs = make_inputs(kernel, SIZE, SIZE, rng)
            source = BENCHMARKS[kernel].source
            if cold:
                source = cold_source(source, seed, str(index))
            planned.append(Planned(index, index / RATE, cold, kernel,
                                   machine, column, inputs, source))
    return planned


class Server:
    """One ``repro serve`` child process on a private socket and cache."""

    def __init__(self, workdir: str, env: Dict[str, str], tag: str):
        self.socket = os.path.join(workdir, f"{tag}.sock")
        self.cache_dir = os.path.join(workdir, f"{tag}-cache")
        self.log_path = os.path.join(workdir, f"{tag}.log")
        self.env = env
        self.proc: Optional[subprocess.Popen] = None

    def start(self) -> None:
        from repro.service.client import wait_until_ready

        with open(self.log_path, "wb") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve",
                 "--socket", self.socket, "--workers", "2",
                 "--cache-dir", self.cache_dir,
                 "--crash-dir", self.cache_dir + "-crash",
                 # Exit if the benchmark dies without stopping it.
                 "--exit-with-parent"],
                env=self.env, stdout=log, stderr=subprocess.STDOUT,
            )
        if not wait_until_ready(self.socket, timeout=60.0, interval=0.02):
            raise RuntimeError(f"server did not come up; see {self.log_path}")

    def peak_rss_mb(self) -> float:
        """The server's own peak resident set (VmHWM)."""
        with open(f"/proc/{self.proc.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def artifact_counters(self) -> Dict[str, int]:
        from repro.service.artifacts import ArtifactStore

        return ArtifactStore(self.cache_dir).counters()

    def stop(self) -> None:
        from repro.service.client import ServiceClient

        if self.proc is None:
            return
        if self.proc.poll() is None:
            ServiceClient(self.socket, retries=0).shutdown_server()
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=15)
        self.proc = None


def check_response(response: dict, inputs: Inputs,
                   expect_hit: bool) -> Optional[str]:
    """None when a simulate response is served, right and from the
    expected cache layer; else what is wrong with it."""
    status = response.get("status")
    if status not in ("ok", "degraded"):
        return f"status {status}: {response.get('error', '')}"
    if response.get("result") != inputs.result:
        return (f"returned {response.get('result')}, expected "
                f"{inputs.result}")
    dumped = response.get("arrays") or {}
    for name, (_, _, expected) in inputs.outputs.items():
        # The server reads DUMP_WORDS words even past a shorter array.
        want = expected[:DUMP_WORDS]
        if (dumped.get(name) or [])[:len(want)] != want:
            return f"array {name!r} differs from its reference"
    if bool(response.get("cache_hit")) != expect_hit:
        return f"cache_hit {response.get('cache_hit')}, expected {expect_hit}"
    return None


def publish_warm_keys(server: Server) -> Dict[str, int]:
    """Compile and publish every warm key, prove each now hits, and
    total the keys' simulated cycles and static code size."""
    from repro.bench.programs import BENCHMARKS
    from repro.ir.parser import parse_module
    from repro.service.client import ServiceClient

    client = ServiceClient(server.socket, retries=2,
                           response_timeout=DEADLINE_S + 5)
    totals = {"cycles": 0, "code": 0, "backend": None}
    for kernel in KERNELS:
        inputs = make_inputs(kernel, SIZE, SIZE)
        source = BENCHMARKS[kernel].source
        for machine in MACHINES:
            for column in COLUMNS:
                fields = simulate_fields(machine, column, inputs, source)
                label = f"{kernel}/{machine}/{column}"
                for expect_hit in (False, True):
                    response = client.request("simulate", **fields)
                    problem = check_response(response, inputs, expect_hit)
                    if problem is not None:
                        raise RuntimeError(f"warm key {label}: {problem}")
                totals["cycles"] += response["cycles"]
                totals["backend"] = response.get("sim_backend")
                compiled = client.request(
                    "compile", source=source, include_rtl=True,
                    **key_fields(machine, column),
                )
                if not compiled.get("cache_hit"):
                    raise RuntimeError(f"warm key {label}: compile missed")
                totals["code"] += static_instrs(
                    parse_module(compiled["rtl"]))
    return totals


class Outcomes:
    """Per-request results gathered by the sender threads."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.rows: List[dict] = []
        self.errors: List[str] = []


def send_all(server: Server, planned: List[Planned], tracer,
             outcomes: Outcomes, speed: Optional[HostSpeed] = None
             ) -> None:
    """Run the open loop, gathering each answer into ``outcomes``.
    With ``speed``, a sender runs the host-speed probe when no request
    is in flight and its own next one is not yet due."""
    from repro.errors import ReproError
    from repro.service.client import ServiceClient

    position = [0]
    in_flight = [0]
    cursor_lock = threading.Lock()
    start = time.perf_counter() + 0.05

    def sender() -> None:
        client = ServiceClient(server.socket, retries=2,
                               response_timeout=DEADLINE_S + 5)
        while True:
            with cursor_lock:
                if position[0] >= len(planned):
                    return
                item = planned[position[0]]
                position[0] += 1
            due = start + item.due
            with cursor_lock:
                idle = in_flight[0] == 0
            slack = due - time.perf_counter()
            if speed is not None and idle and slack > PROBE_SLACK_S:
                speed.measure()
            pause = due - time.perf_counter()
            if pause > 0:
                time.sleep(pause)
            with cursor_lock:
                in_flight[0] += 1
            sent = time.perf_counter()
            attempts = client.attempts_made
            fields = simulate_fields(item.machine, item.column,
                                     item.inputs, item.source)
            response: dict = {}
            with tracer.span("service.request", request=str(item.index)):
                try:
                    response = client.request("simulate", **fields)
                    problem = check_response(response, item.inputs,
                                             expect_hit=not item.cold)
                except (ReproError, OSError) as exc:
                    problem = f"{type(exc).__name__}: {exc}"
            done = time.perf_counter()
            with cursor_lock:
                in_flight[0] -= 1
            row = {
                "index": item.index,
                "cold": item.cold,
                "latency_ms": (done - due) * 1e3,
                "late_ms": (sent - due) * 1e3,
                "round_trip_s": done - sent,
                "server_s": response.get("wall_seconds"),
                "status": response.get("status"),
                "cache_hit": response.get("cache_hit"),
                "retries": client.attempts_made - attempts - 1,
                "instrs": response.get("instr_count", 0),
                "backend": response.get("sim_backend"),
                "problem": problem,
                "mark": speed.mark() if speed is not None else None,
                "scale": 1.0,
            }
            with outcomes.lock:
                outcomes.rows.append(row)
                if problem is not None and len(outcomes.errors) < 10:
                    outcomes.errors.append(
                        f"request {item.index} ({item.kernel}/"
                        f"{item.machine}/{item.column}): {problem}"
                    )

    threads = [threading.Thread(target=sender, name=f"sender-{n}")
               for n in range(SENDERS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def service_mixed(seed: int, seconds: float, tracer, traced: bool,
                  env: Dict[str, str], workdir: str) -> dict:
    from perfbench import spans

    setup: List[tuple] = []
    speed = HostSpeed()
    server: Optional[Server] = None
    os.makedirs(workdir, exist_ok=True)
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(cpus)})
    try:
        for attempt in range(1 if traced else SETUP_REPEATS):
            if server is not None:
                server.stop()
            server = Server(workdir, env, f"s{attempt}")
            speed.measure()
            started = time.perf_counter()
            server.start()
            warm = publish_warm_keys(server)
            setup.append((time.perf_counter() - started, speed.mark()))
            speed.measure()
        planned = plan(seed, seconds, tracer)
        if traced:
            half = planned[: max(1, len(planned) // 2)]
            untraced_rows = Outcomes()
            send_all(server, half, spans.NullTracer(), untraced_rows)
            again = [
                Planned(p.index, p.due, p.cold, p.kernel, p.machine,
                        p.column, p.inputs,
                        cold_source(p.source, seed, f"{p.index}t")
                        if p.cold else p.source)
                for p in half
            ]
            outcomes = Outcomes()
            send_all(server, again, tracer, outcomes)
        else:
            outcomes = Outcomes()
            send_all(server, planned, tracer, outcomes, speed)
        rss = server.peak_rss_mb()
        counters = server.artifact_counters()
    finally:
        if server is not None:
            server.stop()
        os.sched_setaffinity(0, cpus)
        shutil.rmtree(workdir, ignore_errors=True)

    rows = outcomes.rows
    for row in rows:
        row["scale"] = (1.0 if row["mark"] is None
                        else speed.factor_at(row["mark"]))
    setup_s = [took * speed.factor_at(mark) for took, mark in setup]
    report = summarize(rows, setup_s, rss, warm)
    report.raw = {"host_factor": speed.factor,
                  "setup_s": median(took for took, _ in setup),
                  **report.raw}
    layer: Dict[str, float] = {}
    if traced:
        layer = layer_values(rows, untraced_rows.rows, counters, tracer)
    backends = {r["backend"] for r in rows if r["backend"]}
    backends.add(warm["backend"])
    return {
        "report": report,
        "layer": layer,
        "attempted": len(rows),
        "failed": sum(1 for r in rows if r["problem"] is not None),
        "errors": outcomes.errors,
        "backends": sorted(b for b in backends if b),
    }


def summarize(rows: List[dict], setup_s: List[float], rss: float,
              warm: dict) -> Report:
    """The end-to-end metrics of one open-loop run, with each request's
    times scaled to the reference host by its ``scale``.
    A request that failed, was refused, timed out or answered wrongly
    counts against ``ok_ratio`` and misses every latency percentile."""
    ok = [r for r in rows if r["problem"] is None]
    hits = [r for r in rows if not r["cold"]]
    colds = [r for r in rows if r["cold"]]

    def latencies(subset, key="latency_ms") -> List[float]:
        return [r[key] * r["scale"] if r["problem"] is None else FAILED_MS
                for r in subset]

    for r in rows:
        r["server_ms"] = (r["server_s"] or 0.0) * 1e3
    served_hits = [r for r in hits if r["problem"] is None]
    report = Report()
    report.add("setup_s", median(setup_s), "s")
    report.add("peak_rss_mb", rss, "MB")
    report.add("ok_ratio", ratio(len(ok), len(rows)), "ratio")
    # Requests served per second of server time: the offered rate would
    # read the same for any server that keeps up.
    report.add(
        "cells_per_s",
        ratio(len(ok), sum(r["server_s"] * r["scale"] for r in ok)),
        "1/s",
    )
    report.add_percentiles("cell_ms", latencies(rows))
    report.add_percentiles("compile_ms", latencies(colds, "server_ms"))
    report.add(
        "sim_minstr_per_s",
        ratio(sum(r["instrs"] for r in served_hits),
              sum(r["server_s"] * r["scale"] for r in served_hits)) / 1e6,
        "Minstr/s",
    )
    report.add("sim_cycles", warm["cycles"], "cycles")
    report.add("code_instrs", warm["code"], "instrs")
    report.add_percentiles("hit_ms", latencies(hits))
    report.add_percentiles("cold_ms", latencies(colds))
    if rows:
        report.raw["late_ms_p90"] = percentile(
            [r["late_ms"] for r in rows], 0.9)
    return report


def layer_values(rows: List[dict], untraced: List[dict],
                 counters: Dict[str, int], tracer) -> Dict[str, float]:
    """Client-side service and artifact-store figures of a traced run."""
    hits = [r for r in rows if not r["cold"]]
    for r in rows:
        if r["problem"] is None:
            tracer.sample("service.server_s", r["server_s"])
            tracer.sample("service.transport_s",
                          r["round_trip_s"] - r["server_s"])

    def mean_rtt(subset) -> float:
        return ratio(sum(r["round_trip_s"] for r in subset), len(subset))

    return {
        "service.hit_ratio": ratio(
            sum(1 for r in hits if r["cache_hit"]), len(hits)),
        "service.retries": sum(max(0, r["retries"]) for r in rows),
        "service.rejected": sum(
            1 for r in rows if r["status"] == "rejected"),
        "service.degraded": sum(
            1 for r in rows if r["status"] == "degraded"),
        "artifacts.publishes": counters["publishes"],
        "artifacts.hits": counters["log_hits"],
        "artifacts.dedup": counters["dedup_hits"],
        "artifacts.drops": counters["corruption_drops"],
        "bench.late_ms_p90": percentile(
            [r["late_ms"] for r in rows], 0.9) if rows else 0.0,
        "trace.overhead_ratio": ratio(mean_rtt(rows), mean_rtt(untraced)),
    }
