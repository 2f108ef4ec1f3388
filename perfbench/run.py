"""The simulator's benchmark: one workload, one seed, one JSON result.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload churn --seed 1 --seconds 35 --trace 0

``--trace 0`` runs the workload's rep a fixed number of times, sized from
``--seconds``, and reports the end-to-end metrics over every rep but the
first, a warm-up.  ``--trace 1`` runs a warm-up rep, one untraced rep and
the same rep again under cProfile, and reports the per-layer metrics: the
program's exact counters, each layer's self time, entry-point call counts
and the tracing overhead.  Everything runs in this one process.  The last
line of standard output is the JSON result; the lines before it are a
header, one line per rep, the behaviour digest and the program's full
counter block.  See ``perfbench/METRICS.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Host seconds one rep (set-up, drive and checks) takes on the machine the
#: benchmark was built on.  A timed run makes ``--seconds / REP_S`` reps, a
#: number that depends on the settings alone, so every commit takes its
#: minimum over the same number of reps.
REP_S = {"churn": 2.3, "service": 3.2, "paper": 5.5}

#: Fewest reps a timed run takes.  The first rep is a warm-up: it is checked
#: but not timed, because it pays for lazy imports and its garbage
#: collections fall at other points of the drive than in every later rep of
#: the same seed.
MIN_REPS = 4


def _commit() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: ") :]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _pin_environment() -> list:
    """Clear every host-side ``RB_*`` knob (kernel lanes, scheduler mode,
    metrics mode, trace sampling, journal, federation shards, ...) so an
    ambient setting cannot change what is measured."""
    cleared = sorted(key for key in os.environ if key.startswith("RB_"))
    for key in cleared:
        del os.environ[key]
    return cleared


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _print_rep(index: int, rep, label: str = "rep") -> None:
    print(
        f"{label} {index}: setup_s={min(rep.setups):.4f} wall_s={rep.wall_s:.4f} "
        f"sim_s={rep.sim_s:.3f} completed={rep.completed} "
        f"attempted={rep.attempted} failed={rep.failed} digest={rep.digest[:16]}",
        flush=True,
    )
    for failure in rep.failures[:20]:
        print(f"  FAILED: {failure}", flush=True)


def _digest_failures(reps) -> int:
    """Reps of one seed whose behaviour digest differs from the first's."""
    return sum(1 for rep in reps[1:] if rep.digest != reps[0].digest)


def _timed_run(rep_fn, seed: int, count: int):
    """Run the rep ``count`` times."""
    reps = []
    for index in range(1, count + 1):
        rep = rep_fn(seed)
        reps.append(rep)
        _print_rep(index, rep)
        del rep
        gc.collect()
    return reps


def best_drive_s(reps) -> float:
    """Host seconds of the drive, taking each slice from its fastest rep.

    Every rep of one seed runs the same work in each slice, so this is the
    drive's cost with the interference of other load on the host filtered
    out slice by slice.  Slower phases of a shared CPU last from a fraction
    of a second to several seconds, which a per-rep median does not remove.
    """
    if len({len(rep.slices) for rep in reps}) != 1:
        return min(rep.wall_s for rep in reps)
    return sum(min(times) for times in zip(*(rep.slices for rep in reps)))


def _end_to_end(reps) -> dict:
    timed = reps[1:]
    drive_s = best_drive_s(timed)
    # Set-up is timed like the drive: the fastest of every sample taken in
    # the timed reps, which are spread over the whole run.
    setups = [setup for rep in timed for setup in rep.setups]
    print(
        f"drive_s best={drive_s:.4f} "
        f"median_rep={statistics.median(r.wall_s for r in timed):.4f} "
        f"timed_reps={len(timed)} "
        f"setup_s best={min(setups):.5f} median={statistics.median(setups):.5f} "
        f"samples={len(setups)}"
    )
    return {
        "setup_s": _metric(min(setups), "s"),
        "sim_s_per_wall_s": _metric(reps[0].sim_s / drive_s, "s/s"),
        "submissions_per_s": _metric(reps[0].completed / drive_s, "1/s"),
        "rep_wall_s": _metric(drive_s, "s"),
        "peak_rss_mib": _metric(_peak_rss_mib(), "MiB"),
    }


#: Per-layer metric units; counters not listed are plain counts.
_LAYER_UNITS = {
    "rbdaemon.report_bytes": "B",
    "journal.total_bytes": "B",
    "broker.scans_per_grant": "ratio",
    "broker.grant_wait_mean_sim_s": "sim_s",
    "trace.overhead_frac": "ratio",
    "failed_frac": "ratio",
}

#: The exact counters the per-layer result carries (METRICS.md lists them).
LAYER_COUNTERS = (
    "sim.events",
    "sim.heap_pushes",
    "sim.skipped_cancelled",
    "sim.heap_high_water",
    "net.dropped_sends",
    "rbdaemon.reports",
    "rbdaemon.beacons",
    "rbdaemon.full_reports",
    "rbdaemon.report_bytes",
    "broker.sched_passes",
    "broker.policy_decisions",
    "broker.machines_scanned",
    "broker.scans_per_grant",
    "broker.sweep_scans",
    "broker.grants",
    "broker.revokes",
    "broker.grant_wait_mean_sim_s",
    "broker.submits",
    "journal.records",
    "journal.flushes",
    "journal.compactions",
    "journal.total_bytes",
    "obs.spans_started",
    "obs.spans_kept",
    "obs.metric_updates",
)


def _unit(name: str) -> str:
    if name in _LAYER_UNITS:
        return _LAYER_UNITS[name]
    if name.endswith(".self_s"):
        return "s"
    if name.endswith(".self_frac"):
        return "ratio"
    return "count"


def _traced_run(rep_fn, seed: int):
    """A warm-up rep, an untraced rep, and the same rep under cProfile.

    The warm-up pays the first-run costs, so the untraced rep that is the
    overhead's denominator runs as warm as the traced one."""
    from profile_fold import profile_rep

    warm = rep_fn(seed)
    _print_rep(1, warm, "warm-up rep")
    gc.collect()
    start = time.perf_counter()
    plain = rep_fn(seed)
    plain_wall = time.perf_counter() - start
    _print_rep(2, plain, "untraced rep")
    gc.collect()
    traced, traced_wall, layers = profile_rep(
        lambda: rep_fn(seed), str(SRC / "repro"), str(HERE)
    )
    _print_rep(3, traced, "traced rep")
    per_layer = {name: plain.counters[name] for name in LAYER_COUNTERS}
    per_layer.update(layers)
    per_layer["trace.overhead_frac"] = traced_wall / plain_wall
    return [warm, plain, traced], per_layer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(REP_S))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources under {SRC}", file=sys.stderr)
        return 2
    cleared = _pin_environment()
    sys.path.insert(0, str(SRC))
    from workloads import REPS

    rep_fn = REPS[args.workload]
    count = max(MIN_REPS, int(args.seconds / REP_S[args.workload]))
    print(
        f"# perfbench workload={args.workload} seed={args.seed} "
        f"seconds={args.seconds:g} reps={3 if args.trace else count} "
        f"trace={args.trace} nproc={os.cpu_count()} "
        f"python={platform.python_version()} commit={_commit()} "
        f"cleared_env={','.join(cleared) or '-'}",
        flush=True,
    )
    if args.trace:
        reps, metrics_values = _traced_run(rep_fn, args.seed)
    else:
        reps = _timed_run(rep_fn, args.seed, count)

    attempted = sum(rep.attempted for rep in reps) + len(reps) - 1
    failed = sum(rep.failed for rep in reps) + _digest_failures(reps)
    print(f"digest {reps[0].digest}")
    print("counters " + json.dumps(reps[0].counters, sort_keys=True))
    print("program_counters " + json.dumps(reps[0].detail, sort_keys=True, default=str))
    if args.trace:
        metrics_values["failed_frac"] = failed / attempted
        metrics = {
            name: _metric(value, _unit(name))
            for name, value in metrics_values.items()
        }
    else:
        metrics = _end_to_end(reps)
        if args.workload == "paper":
            print(f"paper_wall_s {metrics['rep_wall_s']['value']} s")
    print(f"failed_frac {failed / attempted} ratio")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
