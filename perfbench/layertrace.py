"""Per-layer tracing from outside the program.

`Tracer.install` wraps the module-level functions of each layer module
and rebinds every module of the package that holds the same function
object, so calls made through `from .x import f` are seen too.  Most
wrappers record a span (name, start, end, parent) in memory and keep the
span's self time, which is its duration minus the time its child spans
cover.  Group arithmetic and a few tiny helpers are only counted: they
run tens of thousands of times per operation, and a span would cost more
than the call it measures.  Generator functions count the items they
yield.

Nothing is written until `write_spans` at the end of the run.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from array import array
from typing import Dict, List

PACKAGE = "nonzero_cycles"
LAYERS = ("cli", "graphs", "groups", "cycles", "packing", "obstructions", "walls", "reductions")
COUNT_ONLY_MODULES = ("groups",)
COUNT_ONLY = {
    "obstructions._bfs_walk",
    "obstructions._chords_cross",
    "obstructions._noncrossing",
}


class Tracer:
    def __init__(self):
        self.names: List[str] = []
        self.index: Dict[str, int] = {}
        self.calls: List[int] = []
        self.self_raw: List[float] = []  # since the last settle, raw seconds
        self.self_cal: List[float] = []  # all operations, calibrated seconds
        self.extra: Dict[str, int] = {}
        # span store, one entry per span; spans of one operation share its
        # number in span_op (-1 during set-up)
        self.op = -1
        self.span_op = array("i")
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: List[List] = []  # [span id, start, child seconds]

    # -- registration ---------------------------------------------------

    def _slot(self, name: str) -> int:
        if name not in self.index:
            self.index[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_raw.append(0.0)
            self.self_cal.append(0.0)
        return self.index[name]

    def install(self) -> None:
        modules = {
            m: importlib.import_module(f"{PACKAGE}.{m}")
            for m in LAYERS + ("lemmas", "linkage")
        }
        for layer in LAYERS:
            mod = modules[layer]
            for attr, fn in list(vars(mod).items()):
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                if inspect.isgeneratorfunction(fn):
                    wrapper = self._generator(name, fn)
                elif layer in COUNT_ONLY_MODULES or name in COUNT_ONLY:
                    wrapper = self._counter(name, fn)
                else:
                    wrapper = self._spanner(name, fn)
                for other in modules.values():
                    for key, value in list(vars(other).items()):
                        if value is fn:
                            setattr(other, key, wrapper)

    def _counter(self, name, fn):
        i = self._slot(name)
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[i] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _generator(self, name, fn):
        i = self._slot(name)
        y = self._slot(name + ".yielded")
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[i] += 1
            for item in fn(*args, **kwargs):
                calls[y] += 1
                yield item

        return wrapper

    def _spanner(self, name, fn):
        i = self._slot(name)
        tracer = self
        stack = self._stack
        hook = _RESULT_HOOKS.get(name)

        def wrapper(*args, **kwargs):
            tracer.calls[i] += 1
            sid = len(tracer.span_name)
            tracer.span_op.append(tracer.op)
            tracer.span_name.append(i)
            tracer.span_parent.append(stack[-1][0] if stack else -1)
            tracer.span_start.append(0.0)
            tracer.span_end.append(0.0)
            frame = [sid, time.perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                dur = end - frame[1]
                tracer.span_start[sid] = frame[1]
                tracer.span_end[sid] = end
                tracer.self_raw[i] += dur - frame[2]
                if stack:
                    stack[-1][2] += dur
            if hook is not None:
                hook(tracer, args, result)
            return result

        return wrapper

    # -- per-operation accounting ----------------------------------------

    def settle(self, cal_factor: float) -> None:
        """Fold the self times gathered since the last call into the
        calibrated totals, with this stretch's calibration factor."""
        for i, raw in enumerate(self.self_raw):
            if raw:
                self.self_cal[i] += raw * cal_factor
                self.self_raw[i] = 0.0

    def absent(self) -> List[str]:
        return [n for n in NAMED_FUNCTIONS if n not in self.index]

    def snapshot(self) -> dict:
        return {
            "calls": dict(zip(self.names, self.calls)),
            "self_cal_s": dict(zip(self.names, self.self_cal)),
            "extra": dict(self.extra),
        }

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    "names": self.names,
                    "op": self.span_op.tolist(),
                    "name": self.span_name.tolist(),
                    "parent": self.span_parent.tolist(),
                    "start": self.span_start.tolist(),
                    "end": self.span_end.tolist(),
                },
                fh,
            )


def _bump(tracer: Tracer, key: str, amount: int) -> None:
    tracer.extra[key] = tracer.extra.get(key, 0) + amount


def _on_enumerate(tracer, args, result):
    _bump(tracer, "cycles.enumerate_cycles.cycles", len(result))
    _bump(tracer, "cycles.enumerate_cycles.doubly_nonzero", sum(1 for c in result if c.doubly_nonzero))


def _on_max_disjoint(tracer, args, result):
    _bump(tracer, "packing._max_disjoint.items", len(args[0]))


def _on_find_cycle(tracer, args, result):
    _bump(tracer, "obstructions._find_cycle.found", result is not None)


def _on_route(tracer, args, result):
    _bump(tracer, "obstructions._route_chords.failures", result is None)


_RESULT_HOOKS = {
    "cycles.enumerate_cycles": _on_enumerate,
    "packing._max_disjoint": _on_max_disjoint,
    "obstructions._find_cycle": _on_find_cycle,
    "obstructions._route_chords": _on_route,
}


def diff(after: dict, before: dict) -> dict:
    return {
        section: {k: v - before[section].get(k, 0) for k, v in after[section].items()}
        for section in ("calls", "self_cal_s", "extra")
    }


def layer_metrics(setup: dict, timed: dict, passes: int) -> Dict[str, float]:
    """The per-layer metrics for one round: one set-up plus one pass over
    the workload's operations (the timed totals divided by the passes)."""
    calls = {k: setup["calls"].get(k, 0) + v / passes for k, v in timed["calls"].items()}
    self_ms = {
        k: 1000.0 * (setup["self_cal_s"].get(k, 0.0) + v / passes)
        for k, v in timed["self_cal_s"].items()
    }
    extra = {k: setup["extra"].get(k, 0) + v / passes for k, v in timed["extra"].items()}
    for k, v in setup["extra"].items():
        extra.setdefault(k, v)

    def layer_self(prefix: str) -> float:
        return sum(v for k, v in self_ms.items() if k.startswith(prefix))

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    return {
        "cli.self_cal_ms": layer_self("cli."),
        "graphs.self_cal_ms": layer_self("graphs."),
        "cycles.self_cal_ms": layer_self("cycles."),
        "packing.self_cal_ms": layer_self("packing."),
        "obstructions.self_cal_ms": layer_self("obstructions."),
        "walls.self_cal_ms": layer_self("walls."),
        "graphs.decode_graph.self_cal_ms": self_ms.get("graphs.decode_graph", 0.0),
        "graphs.walk_value.calls": calls.get("graphs.walk_value", 0),
        "graphs.walk_value.self_cal_ms": self_ms.get("graphs.walk_value", 0.0),
        "groups.op.calls": calls.get("groups.op", 0),
        "groups.inv.calls": calls.get("groups.inv", 0),
        "groups.is_zero.calls": calls.get("groups.is_zero", 0),
        "cycles.enumerate_cycles.calls": calls.get("cycles.enumerate_cycles", 0),
        "cycles.enumerate_cycles.self_cal_ms": self_ms.get("cycles.enumerate_cycles", 0.0),
        "cycles.enumerate_cycles.cycles": extra.get("cycles.enumerate_cycles.cycles", 0),
        "cycles.doubly_nonzero_ratio": ratio(
            extra.get("cycles.enumerate_cycles.doubly_nonzero", 0),
            extra.get("cycles.enumerate_cycles.cycles", 0),
        ),
        "cycles.is_robust.self_cal_ms": self_ms.get("cycles.is_robust", 0.0),
        "packing._max_disjoint.calls": calls.get("packing._max_disjoint", 0),
        "packing._max_disjoint.items": extra.get("packing._max_disjoint.items", 0),
        "packing._max_disjoint.self_cal_ms": self_ms.get("packing._max_disjoint", 0.0),
        "packing._min_hitting_set.self_cal_ms": self_ms.get("packing._min_hitting_set", 0.0),
        "packing.verify_packing.self_cal_ms": self_ms.get("packing.verify_packing", 0.0),
        "obstructions._find_cycle.calls": calls.get("obstructions._find_cycle", 0),
        "obstructions._find_cycle.self_cal_ms": self_ms.get("obstructions._find_cycle", 0.0),
        "obstructions._find_cycle.found_ratio": ratio(
            extra.get("obstructions._find_cycle.found", 0),
            calls.get("obstructions._find_cycle", 0),
        ),
        "obstructions._route_chords.calls": calls.get("obstructions._route_chords", 0),
        "obstructions._route_chords.failures": extra.get("obstructions._route_chords.failures", 0),
        "obstructions._route_chords.self_cal_ms": self_ms.get("obstructions._route_chords", 0.0),
        "obstructions._bfs_walk.calls": calls.get("obstructions._bfs_walk", 0),
        "obstructions._shapes.yielded": calls.get("obstructions._shapes.yielded", 0),
        "obstructions._exact_transversal.self_cal_ms": self_ms.get("obstructions._exact_transversal", 0.0),
        "obstructions._find_two_disjoint.self_cal_ms": self_ms.get("obstructions._find_two_disjoint", 0.0),
        "obstructions._half_integral_family.self_cal_ms": self_ms.get("obstructions._half_integral_family", 0.0),
        "walls.elementary_wall.calls": calls.get("walls.elementary_wall", 0),
        "walls.elementary_wall.self_cal_ms": self_ms.get("walls.elementary_wall", 0.0),
        "reductions.self_cal_ms": layer_self("reductions."),
    }


# Functions the metrics above name; one that the program no longer has is
# reported as absent on stderr and reads 0.
NAMED_FUNCTIONS = (
    "graphs.decode_graph", "graphs.walk_value", "groups.op", "groups.inv",
    "groups.is_zero", "cycles.enumerate_cycles", "cycles.is_robust",
    "packing._max_disjoint", "packing._min_hitting_set", "packing.verify_packing",
    "obstructions._find_cycle", "obstructions._route_chords", "obstructions._bfs_walk",
    "obstructions._shapes", "obstructions._exact_transversal",
    "obstructions._find_two_disjoint", "obstructions._half_integral_family",
    "walls.elementary_wall",
)
