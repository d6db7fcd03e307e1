"""Span recorders wrapped around the entry points of each layer.

The benchmark's traced run calls :func:`SpanRecorder.install` before any
model is built: several components bind methods at construction (for
example ``host.on_receive(self._on_packet)``), so a wrapper installed
later would never see those calls.  Wrappers are plain functions that
pass arguments and return values through unchanged; the traced run
checks that its outputs are byte-identical to the untraced run's.

Every wrapped call updates a per-entry-point aggregate (calls, inclusive
time, self time).  Self time is a span's duration minus the time its
child spans cover, computed on the fly with a stack, so per-packet entry
points cost no memory per call.  Coarse entry points (``hot=False``)
and the benchmark's own phase spans are also kept as full span records
(id, parent, name, layer, start, end) and written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator

#: (module, attribute path, layer, hot).  ``hot`` entry points run once
#: per packet or per event and are aggregated only.  Private names are
#: listed where they are the event callbacks through which the kernel
#: enters a layer; a rename makes the self-test's call-count checks fail.
ENTRY_POINTS: tuple[tuple[str, str, str, bool], ...] = (
    ("repro.simcore.simulator", "Simulator.run", "simcore", False),
    ("repro.net.switch", "Switch.receive", "net", True),
    ("repro.net.switch", "Switch._forward", "net", True),
    ("repro.net.host", "Host.receive", "net", True),
    ("repro.net.host", "Host.send", "net", True),
    ("repro.net.link", "Port.send", "net", True),
    ("repro.net.link", "Port.try_transmit", "net", True),
    ("repro.net.link", "Port._finish_transmit", "net", True),
    ("repro.net.link", "Port.deliver", "net", True),
    ("repro.net.link", "Link.propagate", "net", True),
    ("repro.tsn.shaper", "TimeAwareShaper.select", "tsn", True),
    ("repro.tsn.gcl", "GateControlList.state_at", "tsn", True),
    ("repro.tsn.scheduler", "ScheduleSynthesizer.synthesize", "tsn", False),
    ("repro.tsn.scheduler", "TsnSchedule.install_gate_control", "tsn", False),
    ("repro.fieldbus.device", "IoDeviceApp._on_packet", "fieldbus", True),
    ("repro.fieldbus.device", "IoDeviceApp._publish_inputs", "fieldbus", True),
    ("repro.fieldbus.controller", "CyclicConnection.open", "fieldbus", False),
    ("repro.fieldbus.controller", "CyclicConnection._on_packet", "fieldbus",
     True),
    ("repro.fieldbus.controller", "CyclicConnection._publish_outputs",
     "fieldbus", True),
    ("repro.mlnet.topologies", "build_ring_deployment", "mlnet", False),
    ("repro.mlnet.topologies", "build_leaf_spine_deployment", "mlnet", False),
    ("repro.mlnet.topologies", "build_ml_aware_deployment", "mlnet", False),
    ("repro.mlnet.experiment", "run_deployment", "mlnet", False),
    ("repro.mlnet.serving", "MlClient._send_frame", "mlnet", True),
    ("repro.mlnet.serving", "MlClient._on_packet", "mlnet", True),
    ("repro.mlnet.serving", "InferenceServer._on_packet", "mlnet", True),
    ("repro.mlnet.serving", "InferenceServer._finish", "mlnet", True),
    ("repro.runner.engine", "run_jobs", "runner", False),
    ("repro.runner.cache", "ResultCache.get", "runner", False),
    ("repro.runner.cache", "ResultCache.put", "runner", False),
    ("repro.runner.manifest", "RunManifest.to_json", "runner", False),
)

#: Layers reported as ``<layer>.self_s``; ``bench`` is the benchmark's
#: own code between layer calls.
LAYERS = ("simcore", "net", "tsn", "fieldbus", "mlnet", "runner", "bench")


class _Aggregate:
    __slots__ = ("layer", "calls", "total_s", "self_s")

    def __init__(self, layer: str) -> None:
        self.layer = layer
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0


class SpanRecorder:
    """Collects spans for one traced run, identified by ``run_id``."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.aggregates: dict[str, _Aggregate] = {}
        #: Kept span records: (id, parent id, name, layer, start, end).
        self.spans: list[tuple[int, int | None, str, str, float, float]] = []
        # Open spans: [start, child time, own id or None, context id].
        self._stack: list[list[Any]] = []
        self._next_id = 1
        self._undo: list[tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------

    def _aggregate(self, name: str, layer: str) -> _Aggregate:
        entry = self.aggregates.get(name)
        if entry is None:
            entry = self.aggregates[name] = _Aggregate(layer)
        return entry

    def _enter(self, keep: bool) -> list[Any]:
        stack = self._stack
        context = stack[-1][3] if stack else None
        own = None
        if keep:
            own = self._next_id
            self._next_id += 1
            context = own
        frame = [time.perf_counter(), 0.0, own, context]
        stack.append(frame)
        return frame

    def _exit(self, frame: list[Any], entry: _Aggregate, name: str) -> None:
        end = time.perf_counter()
        stack = self._stack
        stack.pop()
        duration = end - frame[0]
        if stack:
            stack[-1][1] += duration
        entry.calls += 1
        entry.total_s += duration
        entry.self_s += duration - frame[1]
        if frame[2] is not None:
            parent = stack[-1][3] if stack else None
            self.spans.append(
                (frame[2], parent, name, entry.layer, frame[0], end)
            )

    @contextmanager
    def span(self, name: str, layer: str = "bench") -> Iterator[None]:
        """Record a kept span around a phase of the benchmark itself."""
        entry = self._aggregate(name, layer)
        frame = self._enter(True)
        try:
            yield
        finally:
            self._exit(frame, entry, name)

    def _wrap(self, fn: Callable[..., Any], name: str, layer: str,
              hot: bool) -> Callable[..., Any]:
        entry = self._aggregate(name, layer)
        enter = self._enter
        leave = self._exit
        keep = not hot

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            frame = enter(keep)
            try:
                return fn(*args, **kwargs)
            finally:
                leave(frame, entry, name)

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every entry point in :data:`ENTRY_POINTS`."""
        if self._undo:
            raise RuntimeError("span recorder is already installed")
        for module_name, path, layer, hot in ENTRY_POINTS:
            owner: Any = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            self._undo.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, path, layer, hot))

    def uninstall(self) -> None:
        """Restore the original entry points."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def calls(self, name: str) -> int:
        entry = self.aggregates.get(name)
        return entry.calls if entry is not None else 0

    def total_s(self, name: str) -> float:
        entry = self.aggregates.get(name)
        return entry.total_s if entry is not None else 0.0

    def layer_self_s(self) -> dict[str, float]:
        """Self time per layer, summed over its entry points' spans."""
        totals = {layer: 0.0 for layer in LAYERS}
        for entry in self.aggregates.values():
            totals[entry.layer] += entry.self_s
        return totals

    def write(self, path: Path) -> None:
        """Write kept spans and per-entry-point aggregates as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for span_id, parent, name, layer, start, end in self.spans:
                out.write(json.dumps({
                    "run": self.run_id, "id": span_id, "parent": parent,
                    "name": name, "layer": layer, "start": start, "end": end,
                }) + "\n")
            for name, entry in sorted(self.aggregates.items()):
                out.write(json.dumps({
                    "run": self.run_id, "aggregate": name,
                    "layer": entry.layer, "calls": entry.calls,
                    "total_s": entry.total_s, "self_s": entry.self_s,
                }) + "\n")
