"""Per-layer spans and counters, applied to quandlekit from outside.

Each layer is a set of public functions.  Tracing replaces every module
attribute that refers to one of those functions (in every loaded
``quandlekit`` module, the package namespace included) with a wrapper that
records a span: layer name, start, end and the index of the enclosing span.
Spans stay in memory until the run ends.  A layer's self time is its span
time minus the time of the spans nested inside it.

The tracing overhead is the number of spans times the cost of one traced
call, which ``wrapper_cost`` measures on a wrapped no-op.  Timing traced
against untraced batches does not resolve it: on a workload of a few
seconds the overhead is smaller than the batch-to-batch swing.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from typing import Callable, Dict, Iterator, List, Tuple

CALIBRATION_CALLS = 20_000
CALIBRATION_REPEATS = 7

# layer -> (functions as "module.name" under quandlekit, extra counts).
# ``Tracer._count`` reads the extra counts from each call's arguments and result.
LAYERS: Dict[str, Tuple[Tuple[str, ...], Tuple[str, ...]]] = {
    "groupmaps.aut": (
        ("groupmaps.enumerate_aut", "groupmaps.enumerate_aaut", "groupmaps.centralizer_in_aut",
         "groupmaps.centralizer_in_aaut", "groupmaps.out_coset_reps", "groupmaps.inner_auts"),
        ("maps_out",),
    ),
    "groupmaps.closure": (("groupmaps.closure_of_point_maps",), ("maps_out",)),
    "quandlemaps.semidirect": (
        ("quandlemaps.semidirect_verify", "quandlemaps.closure_group",
         "quandlemaps.inn_out_report"),
        ("materialized", "certified"),
    ),
    "groupmaps.families": (
        ("groupmaps.build_H", "groupmaps.build_F", "groupmaps.build_F_prime",
         "groupmaps.verify_F_iso"),
        (),
    ),
    "groupmaps.mask": (("groupmaps.preserving_mask", "groupmaps.reversing_mask"), ("rows",)),
    # are_isomorphic lives in quandles.py but runs the enumeration engine.
    "quandlemaps.enum": (
        ("quandlemaps.enumerate_quandle_auts", "quandlemaps.enumerate_quandle_antis",
         "quandles.are_isomorphic"),
        ("maps_out",),
    ),
    "constructions": (
        tuple(f"constructions.{name}" for name in (
            "conj_m", "core", "alex", "q1", "q2", "q3", "q4", "p1", "p2", "p3", "p4",
            "dihedral_quandle")),
        ("rejected",),
    ),
    "harness": (("harness.run_census", "harness.run_check"), ()),
    "verdicts": (("verdicts.report_json",), ("nodes",)),
}


class Patch:
    """Replaces a function everywhere quandlekit holds a reference to it."""

    def __init__(self) -> None:
        self._undo: List[Tuple[object, str, object]] = []

    def replace(self, original: Callable, replacement: Callable) -> None:
        for name, module in list(sys.modules.items()):
            if name != "quandlekit" and not name.startswith("quandlekit."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._undo.append((module, attr, original))

    def restore(self) -> None:
        for module, attr, original in reversed(self._undo):
            setattr(module, attr, original)
        self._undo.clear()


class Tracer:
    """In-memory span recorder with per-layer call, self-time and extra counts."""

    def __init__(self) -> None:
        self.spans: List[list] = []  # [layer, start, end, parent index or -1]
        self.calls: Dict[str, int] = {layer: 0 for layer in LAYERS}
        self.self_s: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
        self.counts: Dict[str, int] = {
            f"{layer}.{e}": 0 for layer, (_, extras) in LAYERS.items() for e in extras
        }
        self._open: List[int] = []
        self._nested: List[float] = []  # time of child spans, per open span
        self._patch = Patch()

    def begin(self, layer: str) -> None:
        parent = self._open[-1] if self._open else -1
        self._open.append(len(self.spans))
        self._nested.append(0.0)
        self.spans.append([layer, time.perf_counter(), 0.0, parent])

    def end(self) -> None:
        stop = time.perf_counter()
        span = self.spans[self._open.pop()]
        span[2] = stop
        duration = stop - span[1]
        self.self_s[span[0]] += duration - self._nested.pop()
        self.calls[span[0]] += 1
        if self._nested:
            self._nested[-1] += duration

    @contextlib.contextmanager
    def span(self, layer: str) -> Iterator[None]:
        """A span opened by the benchmark's own code."""
        self.begin(layer)
        try:
            yield
        finally:
            self.end()

    def install(self) -> None:
        """Wrap every traced function in every module that refers to it."""
        for layer, (functions, _) in LAYERS.items():
            for qualified in functions:
                module, name = qualified.rsplit(".", 1)
                fn = getattr(sys.modules[f"quandlekit.{module}"], name)
                self._patch.replace(fn, self._wrap(layer, fn))

    def uninstall(self) -> None:
        self._patch.restore()

    def _wrap(self, layer: str, fn: Callable) -> Callable:
        from quandlekit.errors import CompatibilityFail, WrongMapKind

        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.begin(layer)
            try:
                result = fn(*args, **kwargs)
            except (WrongMapKind, CompatibilityFail):
                if layer == "constructions":
                    tracer.counts["constructions.rejected"] += 1
                raise
            finally:
                tracer.end()
            tracer._count(layer, fn.__name__, args, result)
            return result

        return traced

    def _count(self, layer: str, name: str, args: tuple, result) -> None:
        counts = self.counts
        if layer in ("groupmaps.aut", "groupmaps.closure", "quandlemaps.enum"):
            found = (result is not None) if name == "are_isomorphic" else len(result)
            counts[f"{layer}.maps_out"] += found
        elif name == "semidirect_verify":
            counts[f"quandlemaps.semidirect.{result.mode}"] += 1
        elif layer == "groupmaps.mask":
            counts["groupmaps.mask.rows"] += int(args[1].shape[0])
        elif layer == "verdicts":
            counts["verdicts.nodes"] += int(result["summary"]["total"])

    def metrics(self, wall_s: float) -> Dict[str, float]:
        """Per-layer metrics; the unattributed remainder closes the sum to wall_s."""
        out: Dict[str, float] = {}
        for layer, (_, extras) in LAYERS.items():
            out[f"{layer}.calls"] = self.calls[layer]
            out[f"{layer}.self_s"] = self.self_s[layer]
            for e in extras:
                out[f"{layer}.{e}"] = self.counts[f"{layer}.{e}"]
        out["trace.wall_s"] = wall_s
        out["trace.unattributed_s"] = wall_s - sum(self.self_s.values())
        out["trace.overhead_s"] = len(self.spans) * wrapper_cost()
        return out

    def dump(self, path: str, origin: float) -> None:
        """Write the spans as JSON, times in seconds after ``origin``."""
        layers = list(LAYERS)
        index = {layer: i for i, layer in enumerate(layers)}
        rows = [[index[s[0]], s[1] - origin, s[2] - origin, s[3]] for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"layers": layers, "fields": ["layer", "start_s", "end_s", "parent"],
                       "spans": rows}, fh)


def wrapper_cost() -> float:
    """Seconds one traced call adds: a wrapped no-op against the bare one.

    Each side takes the fastest of several timed loops, which leaves out
    interruptions.  The cost is that of a ``harness`` span, which has no
    extra counts; the counts of the other layers are a few attribute reads.
    """

    def noop():
        return None

    traced = Tracer()._wrap("harness", noop)

    def fastest(fn: Callable) -> float:
        best = float("inf")
        for _ in range(CALIBRATION_REPEATS):
            start = time.perf_counter()
            for _ in range(CALIBRATION_CALLS):
                fn()
            best = min(best, time.perf_counter() - start)
        return best

    return max(0.0, fastest(traced) - fastest(noop)) / CALIBRATION_CALLS
