"""The benchmark's three workloads, each one repetition ("rep") at a time.

Every rep builds its own cluster from the workload seed, times set-up and
the measured drive separately, checks the run's outputs, and returns a
:class:`Rep`.  ``REPS`` maps each workload name to its ``rep(seed)``.  Workloads drive the simulator only through its public entry
points: ``Cluster``/``start_broker``, the sweep drivers in ``WORKLOADS``,
the soak's public pieces, and the paper's ``run_*`` experiment functions.

Why each workload exists (one line each; ``BENCHMARK.json`` repeats them):

* ``churn``   -- 512 machines, a greedy adaptive master re-grown after every
  revoke: the processor-sharing CPU model and the revoke/regrow path.
* ``service`` -- the durable-broker soak: journal on, a broker crash and
  journal recovery, control-plane work per submission dominates.
* ``paper``   -- Tables 1-3, Fig. 7 and the utilization run: the only path
  through rsh/rshd, the PVM/LAM modules and Calypso revocation.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Sequence

from repro.cluster import Cluster, ClusterSpec, MachineSpec
from repro.experiments import (
    run_fig7,
    run_table1,
    run_table2,
    run_table3,
    run_utilization,
)
from repro.experiments.sweep import WORKLOADS
from repro.obs import HealthMonitor
from repro.workloads import (
    diurnal_owner_windows,
    replay_owner_windows,
    trace_arrivals,
)

from paper_checks import PAPER_CHECKS


@dataclass
class Rep:
    """What one repetition of a workload measured and checked."""

    #: Host seconds of each set-up timed in this rep.
    setups: List[float]
    #: Host seconds of each slice of the measured drive, in order.  Slices
    #: cut the drive at fixed simulated times (or paper runners), so every
    #: rep of one seed runs the same work in slice ``i``.
    slices: List[float]
    sim_s: float
    completed: int
    attempted: int
    failed: int
    failures: List[str]
    digest: str
    counters: Dict[str, Any]
    detail: Dict[str, Any] = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        """Host seconds of the whole measured drive."""
        return sum(self.slices)


def _digest(document: Any) -> str:
    text = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def decision_log(entries) -> List[list]:
    """The broker decision log as (kind, simulated time, host, job, exit).

    Only behaviour enters the digest -- never kernel heap counters -- so a
    change that merely removes events keeps the digest."""
    return [
        [
            entry.get("event"),
            round(entry.get("time", 0.0), 6),
            entry.get("host"),
            entry.get("jobid"),
            entry.get("code"),
        ]
        for entry in entries
    ]


# -- exact counters ---------------------------------------------------------

#: Registry counters copied into the exact-counter block.
_REGISTRY_COUNTERS = (
    "net.dropped_sends",
    "rbdaemon.reports",
    "rbdaemon.beacons",
    "rbdaemon.full_reports",
    "rbdaemon.report_bytes",
    "broker.sched_passes",
    "broker.policy_decisions",
    "broker.sweep_scans",
    "broker.grants",
    "broker.revokes",
    "broker.submits",
)


def counter_block(cluster) -> Dict[str, Any]:
    """Everything the program counts about one cluster: ``heap_stats()``,
    the metrics snapshot (read-only: nothing is created), ``journal.stats()``,
    the tracer and registry ``self_stats()`` and the broker's scan count."""
    heap = cluster.env.heap_stats()
    heap.pop("lanes", None)
    network = cluster.network
    service = cluster.broker
    journal = service.journal if service is not None else None
    return {
        "heap_stats": heap,
        "metrics": network.metrics.snapshot(),
        "journal": journal.stats() if journal is not None else {"enabled": False},
        "tracer": network.tracer.self_stats(),
        "registry": network.metrics.self_stats(),
        "machines_scanned": service.state.machines_scanned if service else 0,
    }


def named_counters(block, scanned_before_restarts: int = 0) -> Dict[str, Any]:
    """The exact counters the per-layer result carries, from ``block``.

    ``scanned_before_restarts`` adds the scans of broker incarnations a
    restart replaced (each starts a fresh state)."""
    heap, snapshot, journal = block["heap_stats"], block["metrics"], block["journal"]
    counters: Dict[str, Any] = {
        "sim.events": heap["processed"],
        "sim.heap_pushes": heap["pushes"],
        "sim.skipped_cancelled": heap["skipped_cancelled"],
        "sim.heap_high_water": heap["heap_high_water"],
        "sim.compactions": heap["compactions"],
    }
    for name in _REGISTRY_COUNTERS:
        counters[name] = int(snapshot.get(name, {}).get("value", 0))
    wait = snapshot.get("broker.grant_wait", {})
    counters["broker.grant_wait_count"] = int(wait.get("count", 0))
    counters["broker.grant_wait_total_sim_s"] = float(wait.get("total", 0.0))
    counters["broker.machines_scanned"] = (
        block["machines_scanned"] + scanned_before_restarts
    )
    for name in ("records", "flushes", "compactions", "total_bytes"):
        counters[f"journal.{name}"] = int(journal.get(name, 0))
    counters["obs.spans_started"] = block["tracer"]["spans_started"]
    counters["obs.spans_kept"] = block["tracer"]["spans_kept"]
    counters["obs.metric_updates"] = block["registry"]["updates"]
    return counters


def sum_counters(blocks: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """Fold several clusters' counters: sums, except high-water marks."""
    total: Dict[str, Any] = {}
    for block in blocks:
        for name, value in block.items():
            if name.endswith("high_water"):
                total[name] = max(total.get(name, 0), value)
            else:
                total[name] = total.get(name, 0) + value
    return total


def derived_counters(counters: Dict[str, Any]) -> Dict[str, Any]:
    """Ratios, each next to its base (``broker.grants``, the wait count)."""
    grants = counters["broker.grants"]
    waits = counters["broker.grant_wait_count"]
    return {
        **counters,
        "broker.scans_per_grant": (
            counters["broker.machines_scanned"] / grants if grants else 0.0
        ),
        "broker.grant_wait_mean_sim_s": (
            counters["broker.grant_wait_total_sim_s"] / waits if waits else 0.0
        ),
    }


def _allocation_leaks(service, now: float) -> List[str]:
    """Allocations held by a finished job, or reclaiming past the lease TTL
    (the health monitor's "stuck" rule, evaluated after the run)."""
    from repro.broker.state import AllocationState

    stuck_after = service.cluster.network.calibration.lease_ttl
    leaks = []
    for host, record in sorted(service.state.machines.items()):
        allocation = record.allocation
        if allocation is None:
            continue
        job = service.state.jobs.get(allocation.jobid)
        if job is not None and job.done:
            leaks.append(f"{host}: held by finished job {allocation.jobid}")
        elif (
            allocation.state is AllocationState.RECLAIMING
            and allocation.reclaiming_since >= 0.0
            and now - allocation.reclaiming_since > stuck_after
        ):
            leaks.append(f"{host}: reclaiming since {allocation.reclaiming_since}")
    return leaks


# -- churn: a sweep driver ---------------------------------------------------

CHURN_MACHINES = 512
CHURN_SIM_S = 120.0
#: Simulated seconds within which a brokered sequential job must have exited
#: (its compute time plus generous grant/revoke overhead); jobs submitted
#: later than this before the horizon may still be running.
CHURN_DRAIN_BOUND = 40.0
#: Simulated seconds per timed slice.
CHURN_SLICE_S = 1.0


def churn_rep(seed: int) -> Rep:
    """The ``churn`` sweep driver on 512 uniform machines."""
    t0 = time.perf_counter()
    cluster = Cluster(ClusterSpec.uniform(CHURN_MACHINES, seed=seed))
    service = cluster.start_broker()
    service.wait_ready()
    setup_s = time.perf_counter() - t0

    sim0 = cluster.now
    # The sweep driver starts its arrival process and runs the first slice;
    # the rest of the horizon runs slice by slice.  Stopping the kernel at a
    # time adds no event, so the simulation is the same as one call.
    slices = []
    t1 = time.perf_counter()
    WORKLOADS["churn"](cluster, service, CHURN_SLICE_S)
    slices.append(time.perf_counter() - t1)
    for _ in range(round(CHURN_SIM_S / CHURN_SLICE_S) - 1):
        t1 = time.perf_counter()
        cluster.env.run(until=cluster.now + CHURN_SLICE_S)
        slices.append(time.perf_counter() - t1)
    sim_s = cluster.now - sim0

    failures: List[str] = []
    exits = {e["jobid"]: e["code"] for e in service.events_of("job_done")}
    checked = 0
    for submit in service.events_of("submit"):
        if "adaptive" in (submit.get("rsl") or ""):
            continue  # the greedy master runs for the whole horizon
        if submit["time"] > cluster.now - CHURN_DRAIN_BOUND:
            continue
        checked += 1
        code = exits.get(submit["jobid"])
        if code != 0:
            failures.append(f"job {submit['jobid']} exit {code!r}")
    failed = len(failures)
    leaks = _allocation_leaks(service, cluster.now)
    failures += leaks
    failed += bool(leaks)
    try:
        cluster.assert_no_crashes()
    except AssertionError as exc:
        failures.append(str(exc))
        failed += 1
    completed = sum(1 for code in exits.values() if code == 0)
    digest = _digest(
        {
            "log": decision_log(service.events),
            "sim_s": round(sim_s, 6),
            "exits": sorted(exits.items()),
        }
    )
    block = counter_block(cluster)
    return Rep(
        setups=[setup_s],
        slices=slices,
        sim_s=sim_s,
        completed=completed,
        # Every checked submission, plus the leak and crash checks.
        attempted=checked + 2,
        failed=failed,
        failures=failures,
        digest=digest,
        counters=derived_counters(named_counters(block)),
        detail={"full_counters": block},
    )


# -- service: the durable-broker soak, assembled from its public pieces -------

#: ``run_soak``'s observability settings: bounded metrics and a fully
#: sampled-out tracer, decided when the network builds them.
_SOAK_ENV = {"RB_METRICS_MODE": "bounded", "RB_TRACE_SAMPLE": "0"}

#: ``run_soak``'s defaults: 12 workers, 3 of them private with diurnal
#: owners, plus the submit host ``n00``.
SOAK_PUBLIC = 9
SOAK_PRIVATE = 3
SOAK_DAY = 600.0
SOAK_BASE_RATE = 0.3
SOAK_PEAK_RATE = 1.5
SOAK_MIN_S = 0.5
SOAK_MAX_S = 6.0
SOAK_SUBMISSIONS = 2000
#: Set-ups timed per rep on ``service`` and ``paper`` (the rep's own, if it
#: has one, plus throw-away ones): those clusters boot in milliseconds, so
#: one sample would be mostly noise.
SETUPS_PER_REP = 25


def _soak_build(seed: int):
    specs = [MachineSpec(name="n00")]
    specs += [MachineSpec(name=f"n{i:02d}") for i in range(1, SOAK_PUBLIC + 1)]
    specs += [
        MachineSpec(name=f"p{i:02d}", private_owner=f"owner{i}")
        for i in range(SOAK_PRIVATE)
    ]
    os.environ.update(_SOAK_ENV)
    try:
        cluster = Cluster(ClusterSpec(machines=specs, seed=seed))
    finally:
        for key in _SOAK_ENV:
            os.environ.pop(key, None)
    service = cluster.start_broker(
        journal=True, event_log_cap=256, retain_done_jobs=False
    )
    return cluster, service, specs


def _soak_setup_once(seed: int) -> float:
    t0 = time.perf_counter()
    _cluster, service, _specs = _soak_build(seed)
    service.wait_ready()
    HealthMonitor(service).start()
    return time.perf_counter() - t0


def service_rep(seed: int) -> Rep:
    """``run_soak``'s cluster, trace and restart, keeping the cluster handle
    (``run_soak`` returns only a report)."""
    setups = [_soak_setup_once(seed) for _ in range(SETUPS_PER_REP - 1)]
    gc.collect()
    t0 = time.perf_counter()
    cluster, service, specs = _soak_build(seed)
    env = cluster.env
    # The event log is capped at 256 entries, as in service mode; record
    # the whole decision stream for the digest as it is written.  The time
    # is stamped here because ``BrokerService.log`` stamps its own copy.
    decisions: List[Dict[str, Any]] = []
    broker_log = service.log

    def log(**entry: Any) -> None:
        entry.setdefault("time", env.now)
        broker_log(**entry)
        decisions.append(entry)

    service.log = log
    service.wait_ready()
    monitor = HealthMonitor(service).start()
    setups.append(time.perf_counter() - t0)

    horizon = SOAK_DAY + 4.0 * SOAK_SUBMISSIONS / SOAK_BASE_RATE
    trace = trace_arrivals(
        env,
        horizon=horizon,
        base_rate=SOAK_BASE_RATE,
        peak_rate=SOAK_PEAK_RATE,
        day=SOAK_DAY,
        min_seconds=SOAK_MIN_S,
        max_seconds=SOAK_MAX_S,
        max_jobs=SOAK_SUBMISSIONS,
    )
    if len(trace) < SOAK_SUBMISSIONS:
        raise RuntimeError(f"trace has {len(trace)}/{SOAK_SUBMISSIONS} arrivals")
    last_arrival = trace.arrivals[-1]
    for host, windows in diurnal_owner_windows(
        env,
        [spec.name for spec in specs if spec.private_owner],
        horizon=last_arrival,
        day=SOAK_DAY,
    ):
        env.process(
            replay_owner_windows(env, cluster.machine(host), windows),
            name=f"soak-owner@{host}",
        )

    done = {"completed": 0, "failed": 0}
    exit_codes: Dict[int, int] = {}

    def on_exit(event) -> None:
        done["completed"] += 1
        exit_codes[event.value] = exit_codes.get(event.value, 0) + 1
        if event.value != 0:
            done["failed"] += 1

    submit_hosts = ("n00", "n01")

    def submissions():
        for i, (at, duration) in enumerate(trace.jobs()):
            if at > env.now:
                yield env.timeout(at - env.now)
            handle = service.submit(
                submit_hosts[i % len(submit_hosts)],
                ["rsh", "anylinux", "compute", f"{duration:g}"],
                uid="soak",
            )
            handle.proc.terminated.add_callback(on_exit)
            del handle

    env.process(submissions(), name="soak-arrivals")
    # One broker crash halfway through the arrivals, then a restart that
    # recovers from the journal.  The new incarnation starts a fresh state;
    # keep the scan count of the one it replaced.
    scanned = {"before": 0}

    def restart():
        yield env.timeout(last_arrival / 2.0 - env.now)
        service.crash_broker()
        yield env.timeout(2.0)
        scanned["before"] = service.state.machines_scanned
        service.restart_broker()

    env.process(restart(), name="soak-restarts")

    sim0 = env.now
    slices = []
    deadline = last_arrival + 600.0
    stride = max(1, SOAK_SUBMISSIONS // 20)
    next_mark = stride
    while env.now < deadline and done["completed"] < SOAK_SUBMISSIONS:
        t1 = time.perf_counter()
        env.run(until=min(env.now + 5.0, deadline))
        if done["completed"] >= next_mark:
            gc.collect()
            next_mark += stride
        slices.append(time.perf_counter() - t1)
    t1 = time.perf_counter()
    env.run(until=env.now + 2.0 * cluster.network.calibration.lease_ttl)
    slices.append(time.perf_counter() - t1)
    sim_s = env.now - sim0

    failures: List[str] = []
    completed = done["completed"] - done["failed"]
    failed = SOAK_SUBMISSIONS - completed
    if done["completed"] != SOAK_SUBMISSIONS:
        failures.append(f"drained {done['completed']}/{SOAK_SUBMISSIONS} submissions")
    failures += [f"exit {code} x{n}" for code, n in exit_codes.items() if code]
    health = monitor.report()
    if health.stuck_allocations:
        failures.append(f"stuck allocations: {health.allocated_hosts}")
        failed += 1
    try:
        cluster.assert_no_crashes()
    except AssertionError as exc:
        failures.append(str(exc))
        failed += 1
    digest = _digest(
        {
            "log": decision_log(decisions),
            "exits": sorted(exit_codes.items()),
            "finished_at": round(env.now, 6),
        }
    )
    block = counter_block(cluster)
    return Rep(
        setups=setups,
        slices=slices,
        sim_s=sim_s,
        completed=completed,
        # Every submission, plus the stuck-allocation and crash checks.
        attempted=SOAK_SUBMISSIONS + 2,
        failed=failed,
        failures=failures,
        digest=digest,
        counters=derived_counters(named_counters(block, scanned["before"])),
        detail={"full_counters": block},
    )


# -- paper: every table and figure ---------------------------------------------


class _ClusterCapture:
    """Stands in for a ``TraceCollector``: the paper runners hand it every
    cluster they build.  It reads what the rep needs at once and keeps no
    reference, so clusters are freed as they would be without it; the time
    it spends is reported so the rep can leave it out of its wall time."""

    def __init__(self) -> None:
        self.sim_s = 0.0
        self.completed = 0
        self.logs: List[list] = []
        self.counters: List[Dict[str, Any]] = []
        self.crashes: List[str] = []
        self.seconds = 0.0

    def add_cluster(self, cluster, label: str) -> None:
        start = time.perf_counter()
        self.sim_s += cluster.now
        self.counters.append(named_counters(counter_block(cluster)))
        if cluster.broker is not None:
            self.completed += sum(
                1 for e in cluster.broker.events_of("job_done") if e["code"] == 0
            )
            self.logs.append([label, decision_log(cluster.broker.events)])
        try:
            cluster.assert_no_crashes()
        except AssertionError as exc:
            self.crashes.append(f"{label}: {exc}")
        self.seconds += time.perf_counter() - start


#: (name, runner) in the order the paper presents them.
_PAPER_RUNNERS: Sequence[tuple] = (
    ("table1", run_table1),
    ("table2", run_table2),
    ("table3", run_table3),
    ("fig7", run_fig7),
    ("utilization", run_utilization),
)

#: Machines of the cluster whose set-up the ``paper`` rep times: the Fig. 7
#: cluster (16 workers + the submit host), the largest a paper runner builds.
PAPER_SETUP_MACHINES = 17


def _table_values(table) -> List[list]:
    return [
        [row.label, [round(float(v), 9) for v in row.values]] for row in table.rows
    ]


def _paper_setup_once(seed: int) -> float:
    t0 = time.perf_counter()
    cluster = Cluster(ClusterSpec.uniform(PAPER_SETUP_MACHINES, seed=seed))
    cluster.start_broker().wait_ready()
    return time.perf_counter() - t0


def paper_rep(seed: int) -> Rep:
    """Regenerate the paper's evaluation end to end."""
    setups = [_paper_setup_once(seed) for _ in range(SETUPS_PER_REP)]
    gc.collect()

    capture = _ClusterCapture()
    failures: List[str] = []
    failed_runners = set()
    tables: Dict[str, Any] = {}
    slices = []
    for name, runner in _PAPER_RUNNERS:
        captured = capture.seconds
        t1 = time.perf_counter()
        try:
            tables[name] = runner(seed=seed, trace=capture)
        except AssertionError as exc:
            failures.append(f"{name}: runner assertion: {exc}")
            failed_runners.add(name)
        slices.append(time.perf_counter() - t1 - (capture.seconds - captured))

    for name, table in tables.items():
        messages = PAPER_CHECKS[name](table, seed)
        failures += [f"{name}: {msg}" for msg in messages]
        if messages:
            failed_runners.add(name)
    failures += capture.crashes
    digest = _digest(
        {
            "logs": capture.logs,
            "tables": {name: _table_values(t) for name, t in tables.items()},
        }
    )
    counters = derived_counters(sum_counters(capture.counters))
    return Rep(
        setups=setups,
        slices=slices,
        sim_s=capture.sim_s,
        completed=capture.completed,
        # Every runner (shape and reference checks), plus the crash check.
        attempted=len(_PAPER_RUNNERS) + 1,
        failed=len(failed_runners) + bool(capture.crashes),
        failures=failures,
        digest=digest,
        counters=counters,
        detail={
            "clusters": len(capture.counters),
            "tables": {name: str(t) for name, t in tables.items()},
        },
    )


#: Workload name -> one rep of it at a seed.
REPS: Dict[str, Callable[[int], Rep]] = {
    "churn": churn_rep,
    "service": service_rep,
    "paper": paper_rep,
}
