"""``python -m repro chaos`` — seeded fault sweeps and their audits.

The paper's contract is *degraded, not dead*: when a Fig. 5 check
fails, a coalesced loop falls back to the safe loop instead of
faulting.  The chaos sweeps audit the same contract one layer up, for
three fault families:

* **pass** (:func:`run_pass_chaos`) — one planted ``raise``/``corrupt``
  fault per pipeline stage per file: every compilation must recover,
  write a crash bundle that replays (and, with ``bisect``, bisects back
  to the injected stage), and still behave like the unoptimized
  baseline on the differential sanitizer's fixtures;
* **fleet** (:func:`run_fleet_chaos`) — seeded worker SIGKILLs and
  SIGSTOPs under a live mixed workload: zero lost requests;
* **disk** (:func:`run_disk_chaos`) — seeded disk faults against one
  shared artifact store under a live fleet: exactly-once dedup, and
  never a corrupt artifact served.

The two service families share one fleet start-up, one workload
driver and one audit.  The production service keeps only the fault
hooks they drive (``FleetSupervisor(fleet_faults=..., worker_inject=...)``).
Every entry point returns ``(summary, problems)``; an empty
``problems`` list is a pass.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import random
import subprocess
import sys
import tempfile
import threading
import time
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.bench.cache import cache_key
from repro.errors import ReproError
from repro.pipeline import compile_minic, get_config
from repro.resilience.bisect import bisect_bundle
from repro.resilience.bundle import load_bundle, replay_bundle
from repro.resilience.faults import FaultPlan, FaultSpec
from repro.sanitize.differential import make_fixtures, run_fixture
from repro.service.artifacts import ArtifactStore
from repro.service.client import (
    ServiceClient,
    ServiceUnavailable,
    wait_until_ready,
)
from repro.service.fleet import (
    DEFAULT_FLEET_WORKERS,
    FleetSupervisor,
    shard_index,
)
from repro.service.supervisor import WORKER_UP

Echo = Optional[Callable[[str], None]]


# -- the pass family ----------------------------------------------------------

#: Stages the pass sweep plants one fault into, in pipeline order.
PASS_SITES = (
    "cleanup", "licm", "strength_reduce", "unroll",
    "coalesce", "lower", "schedule",
)


def run_pass_chaos(
    files: List[str],
    seed: int = 0,
    machine: str = "alpha",
    policy: str = "skip",
    crash_dir: Optional[str] = None,
    bisect: bool = False,
    echo: Echo = None,
    warn: Echo = None,
) -> Tuple[dict, List[str]]:
    """One planted fault per pipeline stage per file.

    For every file and every stage in :data:`PASS_SITES`, compile
    ``coalesce-all`` under the ``policy`` recovery policy with one fault
    injected into that stage, then check (a) the compilation survived,
    (b) every fired fault was recovered (and produced a bundle that
    replays), and (c) the degraded program still behaves like the
    unoptimized baseline on the differential sanitizer's fixtures.
    With ``bisect``, every written bundle must also bisect back to the
    injected stage.  ``warn`` hears each unrecovered or diverging
    injection as it is found; ``echo`` hears the rest of the progress.

    Raises :class:`ReproError` or :class:`OSError` when a file cannot
    be read or its unoptimized baseline does not compile.
    """
    say = echo or (lambda message: None)
    warn = warn or (lambda message: None)
    crash_dir = crash_dir or tempfile.mkdtemp(prefix="repro-chaos-")
    problems: List[str] = []
    checked = recovered = 0

    for path in files:
        with open(path) as handle:
            source = handle.read()
        try:
            # An empty plan keeps a stray REPRO_FAULTS out of the baseline.
            baseline = compile_minic(
                source, machine, "naive", faults=FaultPlan()
            )
        except ReproError as exc:
            raise ReproError(f"{path}: {exc}") from exc
        fixtures = {
            func.name: make_fixtures(func) for func in baseline.module
        }
        expected = {
            name: [
                run_fixture(baseline.module, name, baseline.machine, f)
                for f in fixtures[name]
            ]
            for name in fixtures
        }

        for site in PASS_SITES:
            # Deterministic kind choice: the seed decides raise vs
            # corrupt per (file, site), so a sweep covers both.
            digest = hashlib.sha256(
                f"{seed}:{path}:{site}".encode()
            ).digest()
            kind = ("raise", "corrupt")[digest[0] % 2]
            plan = FaultPlan.parse(f"{site}={kind}")
            checked += 1
            tag = f"{path}:{site}={kind}"
            try:
                program = compile_minic(
                    source, machine, "coalesce-all",
                    faults=plan, crash_dir=crash_dir,
                    on_pass_failure=policy,
                )
            except Exception as exc:  # noqa: BLE001 — unrecovered = finding
                problems.append(
                    f"{tag}: UNRECOVERED {type(exc).__name__}: {exc}"
                )
                warn(f"{tag}: UNRECOVERED ({exc})")
                continue

            notes = []
            if plan.fired and not program.pass_failures:
                notes.append("fault fired but no failure was recorded")
            for failure in program.pass_failures:
                if not failure.bundle:
                    notes.append("no crash bundle was written")
                    continue
                replay = replay_bundle(failure.bundle)
                if not replay.reproduced:
                    notes.append(
                        f"bundle {failure.bundle} did not replay"
                    )
            for name, outcomes in expected.items():
                for fixture, want in zip(fixtures[name], outcomes):
                    if want.status != "ok":
                        continue  # inconclusive baseline
                    got = run_fixture(
                        program.module, name, program.machine, fixture
                    )
                    difference = want.diverges_from(got)
                    if difference is not None:
                        notes.append(
                            f"behaviour diverged from baseline in "
                            f"{name}{fixture.describe()}: {difference}"
                        )
                        break
            if notes:
                problems.extend(f"{tag}: {note}" for note in notes)
                warn(f"{tag}: " + "; ".join(notes))
            else:
                recovered += 1
                hit = "fired" if plan.fired else "did not fire"
                say(f"{tag}: recovered ({hit})")

            if bisect:
                for failure in program.pass_failures:
                    if not failure.bundle:
                        continue
                    result = bisect_bundle(
                        load_bundle(failure.bundle), reduce=True
                    )
                    if site not in result.culprit:
                        problems.append(
                            f"{tag}: bisect pinned {result.culprit} "
                            f"instead of {site}"
                        )
                    else:
                        say(
                            f"{tag}: bisect pinned "
                            f"{', '.join(result.culprit)} in "
                            f"{result.attempts} probes"
                        )

    summary = {
        "checked": checked,
        "recovered": recovered,
        "crash_dir": crash_dir,
    }
    return summary, problems


# -- the service families: workload and fault plan ----------------------------

_DOT = """
int dot(short *a, short *b, int n) {
    int i, s;
    s = 0;
    for (i = 0; i < n; i++)
        s += a[i] * b[i];
    return s;
}
"""

_COPY = """
void copy(char *dst, char *src, int n) {
    int i;
    for (i = 0; i < n; i++)
        dst[i] = src[i];
}
"""

_ADD = "int add(int a, int b) { return a + b; }"

#: The answer every simulate request in the workload must return:
#: [3,1,4,1,5,9,2,6] . [1]*8.
_DOT_ANSWER = 31

#: (machine, config) pairs the mixed workload cycles through — enough
#: keys that a 4-worker fleet has populated *and* untouched shards.
_KEYS = (
    ("alpha", "coalesce-all"),
    ("alpha", "vpo"),
    ("m88100", "coalesce-all"),
    ("m68030", "cc"),
    ("alpha", "cc"),
    ("m88100", "vpo"),
)


def build_chaos_plan(
    rng: random.Random,
    workers: int,
    workload: List[dict],
    kills: int,
    hangs: int,
) -> FaultPlan:
    """A seeded fleet fault plan: ``kills`` SIGKILLs and ``hangs``
    SIGSTOPs spread over worker dispatch arrivals.

    Sites and hit counts are drawn against the *actual* dispatch
    distribution of ``workload`` (sharding is deterministic), so every
    planted fault lands on a worker that really receives requests, at
    an arrival it will really reach.
    """
    arrivals: Dict[int, int] = {}
    for request in workload:
        shard = shard_index(request, workers)
        arrivals[shard] = arrivals.get(shard, 0) + 1
    busy = sorted(
        shard for shard, count in arrivals.items() if count >= 4
    ) or sorted(arrivals)
    specs: List[FaultSpec] = []
    seen = set()
    for kind, count in (("kill", kills), ("hang", hangs)):
        for _ in range(count):
            for _ in range(64):  # resample collisions
                shard = busy[rng.randrange(len(busy))]
                site = f"worker:{shard}"
                # Leave headroom below the arrival ceiling: requeues
                # shift later arrivals, and the last dispatches must
                # find a live worker to drain through.
                hit = rng.randint(
                    2, max(2, (arrivals[shard] * 2) // 3)
                )
                if (site, hit) not in seen:
                    seen.add((site, hit))
                    break
            else:
                continue
            specs.append(FaultSpec(
                site, kind, hit=hit,
                seconds=round(rng.uniform(0.02, 0.25), 3),
            ))
    return FaultPlan(specs)


def build_chaos_workload(
    rng: random.Random, requests: int, deadline: float
) -> List[dict]:
    """``requests`` mixed compile/simulate requests over several
    (machine, config) shards; a slice carry ``sleep`` faults to hold
    workers mid-compile (widening the kill window), a slice carry
    deliberately tight deadlines."""
    workload: List[dict] = []
    for index in range(requests):
        machine, config = _KEYS[index % len(_KEYS)]
        roll = rng.random()
        if roll < 0.15:
            request = {
                "op": "simulate",
                "source": _DOT,
                "entry": "dot",
                "machine": machine,
                "config": config,
                "arrays": [
                    ["a", 2, [3, 1, 4, 1, 5, 9, 2, 6]],
                    ["b", 2, [1, 1, 1, 1, 1, 1, 1, 1]],
                ],
                "args": ["a", "b", 8],
            }
        else:
            source = (_DOT, _COPY, _ADD)[index % 3]
            request = {
                "op": "compile",
                "source": source,
                "machine": machine,
                "config": config,
            }
        if roll > 0.7:
            # Hold the worker in the pipeline so armed kills land
            # mid-compile, not between requests.
            request["faults"] = (
                f"cleanup=sleep:{round(rng.uniform(0.1, 0.3), 2)}"
            )
        if roll > 0.95:
            request["deadline"] = 0.4  # must come back 'timeout'
        else:
            request["deadline"] = deadline
        workload.append(request)
    return workload


# -- the service families: one driver -----------------------------------------

@contextlib.contextmanager
def _live_fleet(
    run_dir: str, socket_path: Optional[str], **options
) -> Iterator[FleetSupervisor]:
    """A started fleet whose front socket and every worker answer ping;
    shut down on exit, whatever happened inside."""
    fleet = FleetSupervisor(
        # Never the default service socket: a chaos sweep must not
        # hijack (or probe-steal) a production server's address.
        socket_path=socket_path or os.path.join(run_dir, "fleet.sock"),
        run_dir=run_dir,
        heartbeat_interval=0.1,
        heartbeat_timeout=1.0,
        **options,
    )
    try:
        fleet.start()
        if not wait_until_ready(fleet.socket_path, timeout=10.0):
            raise OSError(
                f"fleet never became ready on {fleet.socket_path}"
            )
        for worker in fleet._workers:
            if not wait_until_ready(worker.socket_path, timeout=15.0):
                raise OSError(
                    f"worker {worker.index} never became ready"
                )
        yield fleet
    finally:
        fleet.shutdown()


def _send(socket_path: str, request: dict) -> dict:
    """One request; a client-side exception becomes a typed outcome
    (``client-deadline``, ``unavailable`` or ``client-error``) for the
    audit to judge, never a dead driver thread."""
    client = ServiceClient(
        socket_path, retries=8, backoff_base=0.02, backoff_cap=0.2,
    )
    try:
        return client.request(
            request["op"],
            **{k: v for k, v in request.items() if k != "op"},
        )
    except ServiceUnavailable as exc:
        return {
            "status": "client-deadline"
            if "deadline" in str(exc) else "unavailable",
            "error": str(exc),
        }
    except Exception as exc:  # noqa: BLE001 — audit, don't die
        return {
            "status": "client-error",
            "error": f"{type(exc).__name__}: {exc}",
        }


def _drive(
    targets: List[Tuple[str, dict]], threads: int
) -> Tuple[List[Optional[dict]], List[float]]:
    """Send every ``(socket path, request)`` target from ``threads``
    client threads pulling from one shared cursor; returns each
    request's response (``None`` = lost) and wall time."""
    outcomes: List[Optional[dict]] = [None] * len(targets)
    elapsed: List[float] = [0.0] * len(targets)
    cursor = iter(range(len(targets)))
    cursor_lock = threading.Lock()

    def drive() -> None:
        while True:
            with cursor_lock:
                index = next(cursor, None)
            if index is None:
                return
            began = time.monotonic()
            outcomes[index] = _send(*targets[index])
            elapsed[index] = time.monotonic() - began

    clients = [
        threading.Thread(target=drive, name=f"chaos-client-{i}")
        for i in range(max(1, threads))
    ]
    for thread in clients:
        thread.start()
    for thread in clients:
        # A bound on the whole drive, not a request budget: every
        # request carries its own deadline.
        thread.join(timeout=len(targets) * 10.0 + 30.0)
    return outcomes, elapsed


# -- the service families: one audit ------------------------------------------

def _audit(
    fleet: FleetSupervisor,
    status: dict,
    plan: FaultPlan,
    workload: List[dict],
    outcomes: List[Optional[dict]],
    elapsed: List[float],
    problems: List[str],
    fatal: str,
    known_answer: Optional[int] = None,
    **extra,
) -> dict:
    """The audit every service family ends with; returns the summary.

    Per request, the zero-lost-requests contract: a terminal answer,
    within 2x its deadline plus scheduling slack, of a typed outcome —
    and, with ``known_answer``, every served simulate returns it.  End
    of run: every fired kill/hang was answered by a worker restart
    (``fatal`` names the planted kinds), and a worker is still alive.
    """
    by_status: Dict[str, int] = {}
    max_elapsed = 0.0
    for index, response in enumerate(outcomes):
        request = workload[index]
        if response is None:
            problems.append(f"request {index}: LOST (no answer)")
            continue
        got = response.get("status")
        by_status[got] = by_status.get(got, 0) + 1
        max_elapsed = max(max_elapsed, elapsed[index])
        budget = request.get("deadline")
        if budget is not None and elapsed[index] > 2 * budget + 5.0:
            problems.append(
                f"request {index}: answered but only after "
                f"{elapsed[index]:.1f}s against a {budget:g}s deadline"
            )
        if (
            known_answer is not None
            and request["op"] == "simulate"
            and got in ("ok", "degraded")
            and response.get("result") != known_answer
        ):
            problems.append(
                f"request {index}: simulate answered "
                f"{response.get('result')!r}, wanted {known_answer} — "
                "a corrupt artifact was served"
            )
        if got in ("ok", "degraded", "timeout", "client-deadline"):
            continue
        if (
            got == "error"
            and response.get("error_type") == "QuarantinedRequest"
        ):
            continue
        problems.append(
            f"request {index}: untyped outcome {got!r} "
            f"({response.get('error', '')})"
        )

    fired_fatal = [
        spec for spec in plan.fired if spec.kind in ("kill", "hang")
    ]
    restarts = status["fleet"]["worker_restarts"]
    if fired_fatal and restarts == 0:
        problems.append(
            f"{len(fired_fatal)} {fatal} fault(s) fired but no worker "
            "was ever restarted"
        )
    live = [
        w for w in status["workers"]
        if w["state"] == WORKER_UP and not w.get("unreachable")
    ]
    if not live:
        problems.append("no worker was alive at the end of the run")

    return {
        "requests": len(workload),
        "answered": sum(1 for r in outcomes if r is not None),
        "by_status": dict(sorted(by_status.items())),
        "faults_planned": [str(s) for s in plan.specs],
        "faults_fired": [str(s) for s in plan.fired],
        "worker_restarts": restarts,
        "requeued": status["fleet"]["requeued"],
        "quarantined": status["fleet"]["quarantined"],
        "max_elapsed": round(max_elapsed, 3),
        "run_dir": fleet.run_dir,
        "supervisor_log": fleet.supervisor_log,
        "problems": len(problems),
        **extra,
    }


# -- the fleet family ---------------------------------------------------------

def run_fleet_chaos(
    requests: int = 100,
    workers: int = DEFAULT_FLEET_WORKERS,
    seed: int = 0,
    deadline: float = 10.0,
    kills: int = 3,
    hangs: int = 1,
    socket_path: Optional[str] = None,
    run_dir: Optional[str] = None,
    crash_dir: Optional[str] = None,
    client_threads: int = 8,
    echo: Echo = None,
) -> Tuple[dict, List[str]]:
    """SIGKILL/SIGSTOP workers under a live mixed workload and audit
    the zero-lost-requests contract.

    The audit: every request gets a terminal answer (ok, degraded,
    timeout, or a typed quarantine/deadline error), nothing runs past
    2x its deadline (plus scheduling slack), and every fired kill is
    matched by a worker restart.
    """
    rng = random.Random(seed)
    workload = build_chaos_workload(rng, requests, deadline)
    plan = build_chaos_plan(rng, workers, workload, kills, hangs)
    if echo is not None:
        echo(f"fleet chaos: plan {plan}")

    with _live_fleet(
        run_dir or tempfile.mkdtemp(prefix="repro-fleet-chaos-"),
        socket_path,
        workers=workers, crash_dir=crash_dir, fleet_faults=plan,
    ) as fleet:
        outcomes, elapsed = _drive(
            [(fleet.socket_path, request) for request in workload],
            client_threads,
        )
        status = fleet._status_payload(scrape=True)

    problems: List[str] = []
    summary = _audit(
        fleet, status, plan, workload, outcomes, elapsed, problems,
        "kill/hang", hang_kills=status["fleet"]["hang_kills"],
    )
    return summary, problems


# -- the disk family ----------------------------------------------------------

#: A dot-product the mixed workload never compiles: the contention
#: squad races it cold across every worker's private socket, so the
#: front-end sharding (which would route identical requests to one
#: worker) cannot hide a broken cross-process dedup.
_DISK_SQUAD = _DOT.replace("int dot(", "int dotsq(")

#: A key requested exactly once, after the harness has planted a dead
#: holder's lease for it — the canonical SIGKILLed-mid-compile wreck.
_DISK_ORPHAN = """
int orphan(int a, int b) {
    return a * b + 7;
}
"""


def _plant_dead_lease(cache_dir: str, key: str, ttl: float) -> int:
    """Leave the wreckage of a SIGKILLed holder: a lease file whose pid
    is already reaped and whose heartbeat stopped long ago.  Returns
    the dead pid."""
    proc = subprocess.Popen(
        [sys.executable, "-c", "pass"],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    proc.wait()
    os.makedirs(cache_dir, exist_ok=True)
    path = os.path.join(cache_dir, f"{key}.lease")
    body = json.dumps({
        "pid": proc.pid,
        "nonce": "deadc0de" * 2,
        "token": 1,
        "ttl": ttl,
        "created": round(time.time(), 4),
    })
    with open(path, "w") as handle:
        handle.write(body)
    past = time.time() - (ttl * 2.0 + 5.0)
    os.utime(path, (past, past))
    return proc.pid


def _disk_event_tally(events) -> Dict[str, Dict[str, int]]:
    """Per-key event counts from an :class:`ArtifactStore` journal."""
    tally: Dict[str, Dict[str, int]] = {}
    for event in events:
        key = event.get("key")
        if not key:
            continue
        per = tally.setdefault(str(key), {})
        name = str(event.get("ev"))
        if name == "disk-error" and event.get("op") == "publish":
            name = "disk-error-publish"
        per[name] = per.get(name, 0) + 1
    return tally


def _excused_compiles(per: Dict[str, int]) -> int:
    """How many *extra* compiles of one key the journal can explain.

    Each term is a recorded fault or crash consequence: a stolen lease
    (the thief recompiles), a dropped corrupt artifact, a publish that
    tore or hit a disk error (the artifact never became readable), or
    a fenced publish (the loser's bytes were discarded).
    """
    return (
        per.get("steal", 0)
        + per.get("corrupt-drop", 0)
        + per.get("publish-torn", 0)
        + per.get("disk-error-publish", 0)
        + per.get("publish-fenced", 0)
    )


def _audit_squad(
    key12: str,
    cold: Dict[str, int],
    warm: Dict[str, int],
    workers: int,
    problems: List[str],
) -> None:
    """The contention squad's dedup audit over the squad key's journal
    tally after the cold and after the warm round."""
    # Stage 1: the squad key compiled at most once per excuse — with the
    # floor that dedup saved at least one of the ``workers`` simultaneous
    # cold requesters.
    cold_compiles = cold.get("compile", 0)
    cold_fallbacks = cold.get("fallback", 0)
    if cold_compiles + cold_fallbacks >= workers:
        problems.append(
            f"squad key {key12}: all {workers} cold racers compiled "
            f"({cold_compiles} compiles, {cold_fallbacks} fallbacks) — "
            "cross-process dedup saved nothing"
        )

    # Stage 2: a warm key must not compile again without a recorded
    # corruption drop / steal / failed publish in between.
    warm_compiles = warm.get("compile", 0) - cold_compiles
    warm_excuse = _excused_compiles(warm) - _excused_compiles(cold)
    if warm_compiles > warm_excuse:
        problems.append(
            f"squad key {key12}: {warm_compiles} warm-round "
            f"compile(s) with only {warm_excuse} excusing event(s) — "
            "duplicate compile of a warm key"
        )


def run_disk_chaos(
    requests: int = 100,
    workers: int = DEFAULT_FLEET_WORKERS,
    seed: int = 0,
    deadline: float = 20.0,
    kills: int = 2,
    rate: float = 0.08,
    socket_path: Optional[str] = None,
    run_dir: Optional[str] = None,
    crash_dir: Optional[str] = None,
    client_threads: int = 8,
    lease_ttl: float = 1.0,
    echo: Echo = None,
) -> Tuple[dict, List[str]]:
    """Batter a shared artifact cache under a live fleet and audit the
    exactly-once dedup contract.

    Four stages, one shared on-disk store:

    1. a *contention squad* races one cold key straight at every
       worker's private socket (bypassing the sharded front end);
    2. the same key is re-raced warm — it must not compile again;
    3. an *orphan* key is requested once over a planted dead-holder
       lease — the worker must steal it and publish under the next
       fencing token;
    4. the standard mixed workload runs through the front socket while
       seeded worker SIGKILLs and per-worker disk-fault sweeps
       (torn writes, corrupt artifacts, silent leases, steal races,
       ENOSPC) fire underneath.

    The audit reads the store's durable event journal: every compile
    beyond the first must be excused by a recorded steal / corruption
    drop / failed publish; link-once must hold (never two surviving
    publishes without a corruption drop between); the planted wreck
    must be stolen exactly once and published at most once; known
    -answer simulations must return the right number (a corrupt
    artifact can never be served); no request may be lost.
    """
    say = echo or (lambda message: None)
    rng = random.Random(seed)
    workload = build_chaos_workload(rng, requests, deadline)
    plan = build_chaos_plan(rng, workers, workload, kills, 0)
    # Every worker gets the same disk-only plan (so FaultPlan.disk_only()
    # holds and the workers keep their cache on — the point is to batter
    # the artifact store) and rolls its dice per (site, arrival), so
    # faults land where that worker's artifact traffic goes.
    inject = (
        f"seed={seed},rate={rate:g},kinds=torn-write|corrupt-artifact|"
        "stale-lease|lease-steal-race|enospc"
    )
    say(f"disk chaos: fleet plan {plan}; worker sweep {inject}")

    run_dir = run_dir or tempfile.mkdtemp(prefix="repro-disk-chaos-")
    cache_dir = os.path.join(run_dir, "artifact-cache")
    # The exact artifact keys the workers compute for these compiles.
    squad12 = cache_key(_DISK_SQUAD, "alpha", get_config("coalesce-all"))[:12]
    orphan_key = cache_key(_DISK_ORPHAN, "alpha", get_config("coalesce-all"))
    orphan12 = orphan_key[:12]
    dead_pid = _plant_dead_lease(cache_dir, orphan_key, lease_ttl)
    say(f"disk chaos: planted dead lease pid={dead_pid} for {orphan12}")
    store = ArtifactStore(cache_dir, ttl=lease_ttl)

    compile_request = {
        "op": "compile", "machine": "alpha", "config": "coalesce-all",
        "deadline": deadline,
    }

    with _live_fleet(
        run_dir, socket_path,
        workers=workers, crash_dir=crash_dir, fleet_faults=plan,
        worker_inject=inject, cache_dir=cache_dir, lease_ttl=lease_ttl,
    ) as fleet:
        # Stages 1 + 2: the contention squad, cold then warm, one racer
        # per worker, straight at the workers' private sockets.
        squad = [
            (w.socket_path, {**compile_request, "source": _DISK_SQUAD})
            for w in fleet._workers
        ]
        squad_cold, _ = _drive(squad, len(squad))
        tally_after_cold = _disk_event_tally(store.events())
        squad_warm, _ = _drive(squad, len(squad))
        tally_after_warm = _disk_event_tally(store.events())
        # Stage 3: steal the planted wreck.
        orphan = {**compile_request, "source": _DISK_ORPHAN}
        (orphan_response,), _ = _drive([(fleet.socket_path, orphan)], 1)
        # Stage 4: the mixed workload under fire.
        outcomes, elapsed = _drive(
            [(fleet.socket_path, request) for request in workload],
            client_threads,
        )
        status = fleet._status_payload(scrape=True)

    # -- audit ---------------------------------------------------------------
    problems: List[str] = []
    tally = _disk_event_tally(store.events())
    counters = store.counters()

    # Every racer and the orphan request were served.
    answers = [
        (f"squad {which} racer at worker {index}", response)
        for which, round_results in (
            ("cold", squad_cold), ("warm", squad_warm)
        )
        for index, response in enumerate(round_results)
    ] + [("orphan request", orphan_response)]
    for label, response in answers:
        got = (response or {}).get("status")
        if got not in ("ok", "degraded"):
            problems.append(
                f"{label}: outcome {got!r} "
                f"({(response or {}).get('error', 'no answer')})"
            )

    # Stages 1 and 2: the squad key's compiles pass the dedup audit.
    _audit_squad(
        squad12,
        tally_after_cold.get(squad12, {}),
        tally_after_warm.get(squad12, {}),
        workers,
        problems,
    )

    # Stage 3: the planted wreck was stolen (fencing token advanced)
    # and at most one publish survived.
    orphan_tally = tally.get(orphan12, {})
    if orphan_tally.get("steal", 0) < 1:
        problems.append(
            f"orphan key {orphan12}: planted dead-holder lease was "
            "never stolen"
        )
    if orphan_tally.get("publish", 0) > 1:
        problems.append(
            f"orphan key {orphan12}: "
            f"{orphan_tally['publish']} surviving publishes after a "
            "steal — the fencing rule failed"
        )

    # Global per-key invariants: link-once, no unexcused compile, and
    # every steal followed by a writer.
    for key, per in sorted(tally.items()):
        if per.get("publish", 0) > 1 + per.get("corrupt-drop", 0):
            problems.append(
                f"key {key}: {per['publish']} publishes with only "
                f"{per.get('corrupt-drop', 0)} corruption drop(s) — "
                "link-once violated"
            )
        extra = per.get("compile", 0) - 1
        if extra > _excused_compiles(per):
            problems.append(
                f"key {key}: {per['compile']} compiles but only "
                f"{_excused_compiles(per)} excusing event(s) — "
                "redundant compile of a warm key"
            )
        writers = (
            per.get("publish", 0)
            + per.get("publish-fenced", 0)
            + per.get("publish-torn", 0)
            + per.get("disk-error-publish", 0)
        )
        if per.get("steal", 0) and writers < 1:
            problems.append(
                f"key {key}: a lease was stolen but no writer "
                "(surviving, fenced, torn, or errored) ever "
                "followed"
            )

    if counters.get("dedup_hits", 0) < 1:
        problems.append(
            "no dedup hit was ever journalled — the shared store "
            "deduplicated nothing"
        )

    # Stage 4: the fleet family's audit, plus the known-answer check —
    # a simulate that answered 'ok' off a corrupt artifact would answer
    # wrongly.
    summary = _audit(
        fleet, status, plan, workload, outcomes, elapsed, problems,
        "kill", known_answer=_DOT_ANSWER,
        squad_key=squad12,
        orphan_key=orphan12,
        cache_dir=cache_dir,
        cache=counters,
        worker_inject=inject,
        latency={
            str(w["index"]): w.get("latency")
            for w in status["workers"]
        },
    )
    return summary, problems
