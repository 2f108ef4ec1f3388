"""Correctness checks for the ``paper`` workload.

Two kinds, per table: the shape assertions of ``benchmarks/bench_*.py``
(any seed), and at seed 0 the exact values EXPERIMENTS.md prints, compared
at the precision it prints them.  Each check returns a list of failure
messages; an empty list means the table is correct.
"""

from __future__ import annotations

from typing import Callable, Dict, List

#: EXPERIMENTS.md, seed 0: (row label, printed values, decimals printed).
_TABLE1 = {
    "rsh n01 null": 0.311,
    "rsh' n01 null": 0.601,
    "rsh' anylinux null": 0.675,
    "rsh n01 loop": 6.811,
    "rsh' n01 loop": 7.101,
    "rsh' anylinux loop": 7.175,
}
_TABLE2 = {
    "rsh n01 null": 0.311,
    "rsh' anylinux null": 1.626,
    "rsh n01 loop": 13.311,
    "rsh' anylinux loop": 8.126,
}
_TABLE3 = {
    "pvm w/ rsh": [2.102, 3.133, 4.164, 5.195],
    "pvm w/ host": [2.102, 3.133, 4.165, 5.196],
    "pvm w/ anylinux": [3.314, 5.507, 7.700, 9.893],
    "lam w/ rsh": [2.432, 3.543, 4.655, 5.767],
    "lam w/ host": [2.432, 3.544, 4.656, 5.767],
    "lam w/ anylinux": [3.914, 6.427, 8.941, 11.454],
}
_FIG7 = {"1": 2.06, "2": 3.06, "4": 5.05, "8": 9.02, "12": 13.00, "16": 16.97}
_UTILIZATION_JOBS = 179
_UTILIZATION_IDLENESS_PCT = 0.094  # printed to 3 decimals
_UTILIZATION_PCT = 99.9  # printed to 1 decimal


def _printed(measured: float, printed: float, decimals: int) -> bool:
    """``measured`` prints as ``printed`` at ``decimals`` places."""
    return abs(measured - printed) <= 0.5 * 10.0 ** -decimals + 1e-9


def _compare(table, reference: Dict[str, object], decimals: int) -> List[str]:
    failures = []
    for label, want in reference.items():
        wants = want if isinstance(want, list) else [want]
        row = next((r for r in table.rows if r.label == label), None)
        # Leading columns only: Fig. 7's derived s/machine column is unprinted.
        got = row.values[: len(wants)] if row is not None else []
        if len(got) != len(wants) or not all(
            _printed(float(g), w, decimals) for g, w in zip(got, wants)
        ):
            failures.append(f"{label}: {got} != EXPERIMENTS.md {wants}")
    return failures


def _expect(condition: bool, message: str, failures: List[str]) -> None:
    if not condition:
        failures.append(message)


def check_table1(table, seed: int) -> List[str]:
    failures: List[str] = []
    rsh_null = table.value("rsh n01 null")
    rshp_null = table.value("rsh' n01 null")
    any_null = table.value("rsh' anylinux null")
    rsh_loop = table.value("rsh n01 loop")
    rshp_loop = table.value("rsh' n01 loop")
    any_loop = table.value("rsh' anylinux loop")
    _expect(0.2 <= rsh_null <= 0.45, f"rsh null {rsh_null}", failures)
    _expect(
        0.15 <= rshp_null - rsh_null <= 0.45,
        f"rsh' overhead {rshp_null - rsh_null}",
        failures,
    )
    _expect(abs(any_null - rshp_null) <= 0.2, "anylinux vs named host", failures)
    for null_t, loop_t in [
        (rsh_null, rsh_loop),
        (rshp_null, rshp_loop),
        (any_null, any_loop),
    ]:
        burst = loop_t - null_t
        _expect(6.0 <= burst <= 7.0, f"loop burst {burst}", failures)
    if seed == 0:
        failures += _compare(table, _TABLE1, 3)
    return failures


def check_table2(table, seed: int) -> List[str]:
    failures: List[str] = []
    rsh_null = table.value("rsh n01 null")
    any_null = table.value("rsh' anylinux null")
    rsh_loop = table.value("rsh n01 loop")
    any_loop = table.value("rsh' anylinux loop")
    _expect(0.2 <= rsh_null <= 0.45, f"rsh null {rsh_null}", failures)
    realloc = any_null - 0.65
    _expect(0.7 <= realloc <= 1.3, f"reallocation {realloc}", failures)
    _expect(any_loop < rsh_loop, "loop crossover", failures)
    _expect(rsh_loop >= 1.8 * 6.5, f"shared-CPU loop {rsh_loop}", failures)
    _expect(any_loop <= any_null + 6.5 + 0.2, f"brokered loop {any_loop}", failures)
    if seed == 0:
        failures += _compare(table, _TABLE2, 3)
    return failures


def check_table3(table, seed: int) -> List[str]:
    failures: List[str] = []
    host_pvm = table.meta["pvm_host_overhead_per_machine"]
    host_lam = table.meta["lam_host_overhead_per_machine"]
    any_pvm = table.meta["pvm_anylinux_overhead_per_machine"]
    any_lam = table.meta["lam_anylinux_overhead_per_machine"]
    _expect(
        all(0.0 <= o < 0.0003 for o in host_pvm + host_lam),
        f"named-host overhead {host_pvm + host_lam}",
        failures,
    )
    _expect(all(0.9 <= o <= 1.5 for o in any_pvm), f"pvm anylinux {any_pvm}", failures)
    _expect(all(1.1 <= o <= 1.7 for o in any_lam), f"lam anylinux {any_lam}", failures)
    _expect(
        all(lam > pvm for lam, pvm in zip(any_lam, any_pvm)),
        "LAM costlier than PVM",
        failures,
    )
    pvm_rsh = [table.value("pvm w/ rsh", c) for c in table.columns[1:]]
    increments = [b - a for a, b in zip(pvm_rsh, pvm_rsh[1:])]
    _expect(max(increments) - min(increments) < 0.1, "linear growth", failures)
    if seed == 0:
        failures += _compare(table, _TABLE3, 3)
    return failures


def check_fig7(table, seed: int) -> List[str]:
    failures: List[str] = []
    sizes = [float(k) for k in table.meta["sizes"]]
    times = [float(row.values[0]) for row in table.rows]
    n = len(sizes)
    mean_x = sum(sizes) / n
    mean_y = sum(times) / n
    sxx = sum((x - mean_x) ** 2 for x in sizes)
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(sizes, times))
    slope = sxy / sxx
    intercept = mean_y - slope * mean_x
    ss_res = sum((y - (slope * x + intercept)) ** 2 for x, y in zip(sizes, times))
    ss_tot = sum((y - mean_y) ** 2 for y in times)
    _expect(0.8 <= slope <= 1.2, f"slope {slope:.3f} s/machine", failures)
    _expect(1.0 - ss_res / ss_tot > 0.995, "reallocation not linear", failures)
    _expect(times == sorted(times), "not monotone in request size", failures)
    if seed == 0:
        failures += _compare(table, _FIG7, 2)
    return failures


def check_utilization(table, seed: int) -> List[str]:
    failures: List[str] = []
    idleness = table.meta["idleness"]
    _expect(0.0 <= idleness < 0.01, f"idleness {idleness:.4%}", failures)
    for host, busy in table.meta["utilization_by_host"].items():
        _expect(busy > 0.97, f"{host} utilization {busy:.4f}", failures)
    jobs = table.value("sequential jobs submitted")
    _expect(jobs == _UTILIZATION_JOBS, f"{jobs} sequential jobs", failures)
    if seed == 0:
        _expect(
            _printed(100.0 * idleness, _UTILIZATION_IDLENESS_PCT, 3),
            f"idleness {100.0 * idleness:.4f}% != EXPERIMENTS.md 0.094%",
            failures,
        )
        utilization = table.value("mean utilization")
        _expect(
            _printed(100.0 * utilization, _UTILIZATION_PCT, 1),
            f"utilization {100.0 * utilization:.3f}% != EXPERIMENTS.md 99.9%",
            failures,
        )
    return failures


PAPER_CHECKS: Dict[str, Callable] = {
    "table1": check_table1,
    "table2": check_table2,
    "table3": check_table3,
    "fig7": check_fig7,
    "utilization": check_utilization,
}
