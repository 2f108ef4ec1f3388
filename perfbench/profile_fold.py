"""The traced run: cProfile one rep and fold self time into layers.

Each function's self time goes to the layer of the module that defines it
(``LAYER_MODULES``).  Functions defined outside ``repro`` -- builtins such
as ``heapq.heappush`` or generator ``send``, and pure-Python library code --
have no layer of their own: their self time is folded into the caller's
layer, split by the per-caller self time cProfile records.  Kernel dispatch
in ``Environment.run``'s own frame therefore lands in ``sim``.
"""

from __future__ import annotations

import cProfile
import os
import pstats
import time
from typing import Any, Callable, Dict, Tuple

#: Path prefixes (relative to the ``repro`` package) -> layer.  First match
#: wins, so the more specific prefix comes first.  Modules not listed fall
#: in ``other`` (experiment harnesses, workload programs, faults, the
#: benchmark itself).
LAYER_MODULES: Tuple[Tuple[str, str], ...] = (
    ("sim/pshare.py", "pshare"),
    ("sim/", "sim"),
    ("cluster/network.py", "net"),
    ("cluster/ports.py", "net"),
    ("broker/protocol.py", "net"),
    ("broker/daemon.py", "daemon"),
    ("broker/core.py", "sched"),
    ("broker/state.py", "sched"),
    ("broker/federation.py", "sched"),
    ("broker/replica.py", "sched"),
    ("policy/", "sched"),
    ("rsl/", "sched"),
    ("broker/journal.py", "journal"),
    ("broker/app.py", "app"),
    ("broker/rshprime.py", "app"),
    ("broker/service.py", "app"),
    ("broker/tools.py", "app"),
    ("rsh/", "app"),
    ("broker/modules.py", "systems"),
    ("systems/", "systems"),
    ("os/", "os"),
    ("cluster/builder.py", "os"),
    ("cluster/users.py", "os"),
    ("obs/", "obs"),
    ("metrics/", "obs"),
)

LAYERS = (
    "sim",
    "pshare",
    "net",
    "daemon",
    "sched",
    "journal",
    "app",
    "os",
    "systems",
    "obs",
    "other",
)

#: Call counts at named public entry points: metric -> (module, function).
ENTRY_POINTS: Dict[str, Tuple[str, str]] = {
    "pshare.execute_calls": ("sim/pshare.py", "execute"),
    "net.send_calls": ("cluster/network.py", "send"),
    "net.connect_calls": ("cluster/network.py", "connect"),
    "sched.best_idle_calls": ("broker/state.py", "best_idle"),
}

#: Guard against pathological caller cycles among layer-less frames.
_MAX_FOLD_DEPTH = 32


def _module_of(filename: str, package_dir: str) -> str:
    """Path of ``filename`` relative to the ``repro`` package, or ''."""
    if filename.startswith(package_dir):
        return filename[len(package_dir) :].replace(os.sep, "/")
    return ""


class LayerFold:
    """Fold one cProfile run's per-function self time into layers."""

    def __init__(self, stats: Dict[Any, tuple], package_dir: str, own_dir: str):
        self.stats = stats
        self.package_dir = os.path.join(package_dir, "")
        self.own_dir = os.path.join(own_dir, "")
        self.self_s = {layer: 0.0 for layer in LAYERS}

    def layer_of(self, key) -> str:
        """The layer a function belongs to, or '' if it folds into callers."""
        filename = key[0]
        module = _module_of(filename, self.package_dir)
        if module:
            for prefix, layer in LAYER_MODULES:
                if module.startswith(prefix):
                    return layer
            return "other"
        if filename.startswith(self.own_dir):
            return "other"
        return ""

    def _attribute(self, key, amount: float, depth: int) -> None:
        layer = self.layer_of(key)
        if layer:
            self.self_s[layer] += amount
            return
        callers = self.stats.get(key, (0, 0, 0.0, 0.0, {}))[4]
        weights = {caller: info[3] for caller, info in callers.items()}
        total = sum(weights.values())
        if depth >= _MAX_FOLD_DEPTH or total <= 0.0:
            self.self_s["other"] += amount
            return
        for caller, weight in weights.items():
            self._attribute(caller, amount * weight / total, depth + 1)

    def fold(self) -> Dict[str, float]:
        for key, (_cc, _nc, tt, _ct, callers) in self.stats.items():
            layer = self.layer_of(key)
            if layer:
                self.self_s[layer] += tt
            elif callers:
                # cProfile splits a function's self time by caller exactly.
                for caller, info in callers.items():
                    self._attribute(caller, info[2], 1)
            else:
                self.self_s["other"] += tt
        return self.self_s

    def entry_calls(self) -> Dict[str, int]:
        counts = {name: 0 for name in ENTRY_POINTS}
        for key, (_cc, nc, _tt, _ct, _callers) in self.stats.items():
            module = _module_of(key[0], self.package_dir)
            for name, (want_module, function) in ENTRY_POINTS.items():
                if module == want_module and key[2] == function:
                    counts[name] += nc
        return counts


def profile_rep(
    rep: Callable[[], Any], package_dir: str, own_dir: str
) -> Tuple[Any, float, Dict[str, float]]:
    """Run ``rep`` under cProfile; return its result, the traced wall time,
    and the per-layer metrics (``<layer>.self_s``/``self_frac`` and the
    entry-point call counts)."""
    profiler = cProfile.Profile()
    start = time.perf_counter()
    profiler.enable()
    try:
        result = rep()
    finally:
        profiler.disable()
    traced_wall = time.perf_counter() - start
    fold = LayerFold(pstats.Stats(profiler).stats, package_dir, own_dir)
    self_s = fold.fold()
    total = sum(self_s.values())
    metrics: Dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = self_s[layer]
        metrics[f"{layer}.self_frac"] = self_s[layer] / total if total else 0.0
    metrics.update(fold.entry_calls())
    return result, traced_wall, metrics
