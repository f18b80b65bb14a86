"""Layer ledger: split a cProfile of a run across ``repro``'s modules.

Every ``.py`` under ``src/repro`` belongs to exactly one layer
(:func:`layer_of`).  A profiled function defined in ``src/repro`` is
charged to its own layer.  Time in anything else -- builtins, numpy, the
standard library -- is charged to the nearest ``src/repro`` caller, using
cProfile's per-caller breakdown: a function's self time is split over its
callers in proportion to the self time it spent on behalf of each, and a
caller outside ``src/repro`` passes its share up the same way (weighted by
cumulative time).  Time that reaches no ``src/repro`` caller, and the
modules no layer claims, are ``other``.
"""

from __future__ import annotations

import os
import pstats
import typing

#: The paths under ``src/repro`` each layer is made of.  A file belongs
#: to the layer of its longest matching path (``sim/wheel.py`` beats
#: ``sim/``); ``other`` lists the code no run exercises.
LAYER_PATHS: typing.Dict[str, typing.Tuple[str, ...]] = {
    "sim": ("sim/",),
    "sim.wheel": ("sim/wheel.py",),
    "cluster": ("cluster/",),
    "executors": ("executors/",),
    "topology": ("topology/",),
    "workloads": ("workloads/",),
    "scheduler": ("scheduler/",),
    "forecast": ("forecast/",),
    "state": ("state/",),
    "logic": ("logic/",),
    "metrics": ("metrics/",),
    "telemetry": ("telemetry/",),
    "faults": ("faults/",),
    "protocol": ("protocol.py", "sanitize.py"),
    "runtime": ("runtime/",),
    "other": ("__init__.py", "__main__.py", "cli.py", "analysis/", "lint/", "sweep/"),
}
LAYERS: typing.Tuple[str, ...] = tuple(LAYER_PATHS)

Func = typing.Tuple[str, int, str]
Shares = typing.Dict[str, float]


def claims(relpath: str) -> typing.List[typing.Tuple[str, str]]:
    """Every ``(path, layer)`` rule matching a file under ``src/repro``."""
    relpath = relpath.replace(os.sep, "/")
    return [
        (path, layer)
        for layer, paths in LAYER_PATHS.items()
        for path in paths
        if relpath == path or (path.endswith("/") and relpath.startswith(path))
    ]


def layer_of(relpath: str) -> str:
    """The layer of a file, given its path relative to ``src/repro``."""
    matches = claims(relpath)
    return max(matches, key=lambda match: len(match[0]))[1] if matches else "other"


class _Attributor:
    def __init__(self, stats: pstats.Stats, repro_dir: str) -> None:
        self.entries = stats.stats  # type: ignore[attr-defined]
        self.prefix = os.path.realpath(repro_dir) + os.sep
        self._file_layers: typing.Dict[str, typing.Optional[str]] = {}
        self._up: typing.Dict[Func, Shares] = {}

    def own_layer(self, func: Func) -> typing.Optional[str]:
        """The layer of a ``src/repro`` function, None for anything else."""
        filename = func[0]
        if filename not in self._file_layers:
            path = os.path.realpath(filename) if filename.endswith(".py") else ""
            self._file_layers[filename] = (
                layer_of(path[len(self.prefix):]) if path.startswith(self.prefix) else None
            )
        return self._file_layers[filename]

    def split(self, func: Func, edge: int, visiting: typing.FrozenSet[Func]) -> Shares:
        """Distribute one unit of ``func``'s time over its callers'
        layers, weighting each caller edge by field ``edge`` (2 = self
        time, 3 = cumulative time) and falling back to call counts."""
        callers = {
            caller: value
            for caller, value in self.entries[func][4].items()
            if caller in self.entries and caller not in visiting
        }
        for field in (edge, 0):
            total = sum(value[field] for value in callers.values())
            if total > 0:
                break
        else:
            return {"other": 1.0}
        shares: Shares = {}
        for caller, value in callers.items():
            weight = value[field] / total
            if weight == 0:
                continue
            for layer, part in self.up(caller, visiting | {func}).items():
                shares[layer] = shares.get(layer, 0.0) + weight * part
        return shares

    def up(self, func: Func, visiting: typing.FrozenSet[Func]) -> Shares:
        """Where time spent inside ``func``'s call tree is charged."""
        layer = self.own_layer(func)
        if layer is not None:
            return {layer: 1.0}
        if func not in self._up:
            self._up[func] = self.split(func, 3, visiting)
        return self._up[func]


def attribute(stats: pstats.Stats, repro_dir: str) -> typing.Dict[str, typing.Any]:
    """Per-layer ``self_s``, ``share`` and ``calls`` for one profile.

    ``repro_dir`` is the ``src/repro`` directory the profiled code was
    imported from.  Self times sum to the profile's total; ``other`` has
    no call count.
    """
    attributor = _Attributor(stats, repro_dir)
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = {layer: 0 for layer in LAYERS if layer != "other"}
    for func, (_cc, nc, tt, _ct, _callers) in attributor.entries.items():
        layer = attributor.own_layer(func)
        if layer is not None:
            self_s[layer] += tt
            if layer != "other":
                calls[layer] += nc
        elif tt > 0:
            for charged, part in attributor.split(func, 2, frozenset()).items():
                self_s[charged] += tt * part
    total = stats.total_tt  # type: ignore[attr-defined]
    return {
        "total_s": total,
        "layers": {
            layer: {
                "self_s": self_s[layer],
                "share": self_s[layer] / total if total > 0 else 0.0,
                **({"calls": calls[layer]} if layer in calls else {}),
            }
            for layer in LAYERS
        },
    }
