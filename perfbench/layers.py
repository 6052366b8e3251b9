"""Per-layer time attribution for the traced benchmark runs.

The traced run profiles the program with :mod:`cProfile` (one profiler
per thread) and folds the raw call graph into the layers named after the
``repro`` package's modules (:data:`LAYERS`).  Rules:

- a function defined in a named ``repro`` module is charged to that
  module's layer;
- everything else -- C built-ins, numpy's Python wrappers, the standard
  library, and the small ``repro`` helpers that belong to no named layer
  (``config``, ``units``, ``traces``, ...) -- is charged to the layer of
  whoever called it, edge by edge;
- time with no ``repro`` caller at all (the benchmark itself, thread
  start-up, the HTTP server's socket loop) goes to ``other``.

So the layer self times add up to the profiled total.  ``calls`` counts
calls that cross into a layer from a different one.
"""

from __future__ import annotations

import cProfile
import os
import threading
from collections import defaultdict
from typing import Dict, List, Optional

#: The layers reported, in report order (``other`` is the remainder).
LAYERS = (
    "sim.engine",
    "sim.batch",
    "lte",
    "lte.shared_cell",
    "net",
    "rate_control",
    "compression",
    "video",
    "roi",
    "telephony",
    "metrics",
    "obs",
    "experiments",
    "service",
    "other",
)

#: ``repro`` modules (path below the package, without ``.py``) whose
#: layer is not simply their top-level package.
_MODULE_LAYERS = {
    "sim/__init__": "sim.engine",
    "sim/engine": "sim.engine",
    "sim/batch": "sim.batch",
    "sim/batch_cell": "sim.batch",
    "sim/blocks": "sim.batch",
    "sim/rng": "sim.batch",
    "lte/shared_cell": "lte.shared_cell",
}

#: Top-level ``repro`` packages that are layers of their own.
_PACKAGE_LAYERS = {
    "lte": "lte",
    "net": "net",
    "rate_control": "rate_control",
    "compression": "compression",
    "video": "video",
    "roi": "roi",
    "telephony": "telephony",
    "metrics": "metrics",
    "obs": "obs",
    "experiments": "experiments",
    "service": "service",
}


class LayerMap:
    """Maps a code object's file to a layer, ``None`` (inherit) or other."""

    def __init__(self, package_dir: str, root_dirs: List[str]):
        self.package_dir = os.path.realpath(package_dir) + os.sep
        self.root_dirs = [os.path.realpath(d) + os.sep for d in root_dirs]
        self._memo: Dict[str, Optional[str]] = {}

    def layer(self, code) -> Optional[str]:
        if isinstance(code, str):  # a C built-in
            return None
        filename = code.co_filename
        try:
            return self._memo[filename]
        except KeyError:
            pass
        path = os.path.realpath(filename)
        layer: Optional[str] = None
        if path.startswith(self.package_dir):
            module = path[len(self.package_dir):].rsplit(".", 1)[0]
            module = module.replace(os.sep, "/")
            layer = _MODULE_LAYERS.get(module)
            if layer is None:
                layer = _PACKAGE_LAYERS.get(module.split("/", 1)[0])
        elif any(path.startswith(d) for d in self.root_dirs):
            layer = "other"
        self._memo[filename] = layer
        return layer


class ThreadProfiles:
    """cProfile on the calling thread and on every thread started later.

    ``timer`` is passed to each :class:`cProfile.Profile`; ``None`` keeps
    cProfile's default wall clock.  New threads pick a profiler up through
    :func:`threading.setprofile`, whose hook swaps itself for the thread's
    own profiler on the thread's first call.
    """

    def __init__(self, timer=None):
        self.timer = timer
        self.profiles: List[cProfile.Profile] = []
        self._lock = threading.Lock()

    def _new(self) -> cProfile.Profile:
        profile = cProfile.Profile(self.timer) if self.timer else cProfile.Profile()
        with self._lock:
            self.profiles.append(profile)
        return profile

    def _bootstrap(self, frame, event, arg):
        self._new().enable()

    def __enter__(self) -> "ThreadProfiles":
        threading.setprofile(self._bootstrap)
        self._main = self._new()
        self._main.enable()
        return self

    def __exit__(self, *exc) -> None:
        self._main.disable()
        threading.setprofile(None)

    def stats(self) -> list:
        """Raw ``getstats()`` entries of every thread's profiler."""
        entries = []
        with self._lock:
            profiles = list(self.profiles)
        for profile in profiles:
            entries.extend(profile.getstats())
        return entries


def attribute(entries, layer_map: LayerMap):
    """Fold raw profiler entries into per-layer figures.

    Returns ``(report, total_s)``: ``report[layer]`` holds ``self_s``,
    ``share`` (of ``total_s``) and ``calls``; ``total_s`` is the profiled
    time of every thread added together.
    """
    inline: Dict[object, float] = defaultdict(float)
    # callee -> {caller: [calls, inline time, total time]}
    callers: Dict[object, Dict[object, list]] = defaultdict(dict)
    for entry in entries:
        inline[entry.code] += entry.inlinetime
        for sub in entry.calls or ():
            edge = callers[sub.code].setdefault(entry.code, [0, 0.0, 0.0])
            edge[0] += sub.callcount
            edge[1] += sub.inlinetime
            edge[2] += sub.totaltime

    def distributions(weight_index: int):
        """Per-code layer mix, inherited from callers by edge weight.

        ``weight_index`` picks the edge weight: 2 (time) to split time,
        0 (call count) to split crossings, which keeps them exact.
        """
        dists: Dict[object, Dict[str, float]] = {}
        visiting = set()

        def dist(code) -> Dict[str, float]:
            layer = layer_map.layer(code)
            if layer is not None:
                return {layer: 1.0}
            if code in dists:
                return dists[code]
            if code in visiting:  # recursion through unlayered code
                return {}
            visiting.add(code)
            mix: Dict[str, float] = defaultdict(float)
            for caller, edge in callers.get(code, {}).items():
                for name, part in dist(caller).items():
                    mix[name] += edge[weight_index] * part
            visiting.discard(code)
            norm = sum(mix.values())
            result = ({name: value / norm for name, value in mix.items()}
                      if norm > 0.0 else {"other": 1.0})
            dists[code] = result
            return result

        return dist

    dist = distributions(2)
    count_dist = distributions(0)

    self_s: Dict[str, float] = defaultdict(float)
    calls: Dict[str, float] = defaultdict(float)
    for code, own in inline.items():
        layer = layer_map.layer(code)
        if layer is not None:
            self_s[layer] += own
        else:
            # Split C / unlayered time over the calling edges.
            charged = 0.0
            for caller, (_, edge_inline, _) in callers.get(code, {}).items():
                for name, part in (dist(caller) or {"other": 1.0}).items():
                    self_s[name] += edge_inline * part
                charged += edge_inline
            rest = own - charged
            if rest > 0.0:
                for name, part in dist(code).items():
                    self_s[name] += rest * part
        if layer is not None and layer != "other":
            for caller, (count, _, _) in callers.get(code, {}).items():
                outside = 1.0 - count_dist(caller).get(layer, 0.0)
                calls[layer] += count * outside

    total = sum(self_s.values())
    report = {}
    for name in LAYERS:
        seconds = self_s.get(name, 0.0)
        report[name] = {
            "self_s": seconds,
            "share": seconds / total if total > 0.0 else 0.0,
            "calls": float(round(calls.get(name, 0.0))),
        }
    return report, total
