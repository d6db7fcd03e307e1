"""The three benchmark workloads and the metrics they report.

Each workload is closed loop with one driver process: an *operation*
builds its inputs from the seed, runs them, and returns timings, exact
work counts and an output digest; the next operation starts when the
previous one has finished.  Only ``sweep-cells`` starts worker processes
(``WORKERS`` of them, through the runner's default backend).

- ``fig6-fabric``: the 256-client Figure 6 points on the ring and
  leaf-spine fabrics (plus the ML-aware point the shape check needs),
  built with the public topology builders and run with
  ``mlnet.experiment.run_deployment``.  Stresses ``simcore`` and ``net``
  (three events per switch hop); bypasses ``tsn`` entirely.
- ``tsn-gated-line``: a 4-node line with a PROFINET-style cyclic relation
  at a 2 ms cycle, a no-wait TSN schedule with gate control installed,
  and 40 kpps Poisson best-effort noise.  Stresses the ``tsn`` gate and
  shaper path and ``fieldbus``.
- ``sweep-cells``: a ``repro all``-shaped grid through ``runner.run_jobs``
  with an empty result cache and a checkpoint manifest (cold pass), then
  the same grid again against the filled cache (warm pass).  Stresses
  ``runner`` dispatch, cache writes and reads, and checkpointing; its one
  fig6 cell is the long pole.

The shared host this benchmark was built on drifts in speed by up to 2x
over tens of seconds (other tenants contend for the same cores), which
shows in every timing alike.  So while a phase is measured, a probe
times a fixed pure-Python loop that uses no code of the program every
50 ms, and end-to-end times are reported rescaled to the speed at which
that loop takes ``CAL_REFERENCE_S`` (see :func:`timed`).  The raw host
times are printed beside them.

End-to-end metrics are measured with tracing off.  With ``trace=True``
the run first measures untraced operations, then installs the span
recorders of :mod:`spans` and runs one traced operation, from which the
per-layer metrics come.
"""

from __future__ import annotations

import gc
import hashlib
import heapq
import json
import os
import resource
import shutil
import signal
import statistics
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from spans import SpanRecorder

WORKLOADS = ("fig6-fabric", "tsn-gated-line", "sweep-cells")

#: Worker processes of ``sweep-cells`` (the container has two cores).
WORKERS = 2

#: Seed whose digest and event count are pinned in ``reference.json``.
DEFAULT_SEED = 0

#: Per-workload input sizes.  ``full`` is what the benchmark measures;
#: ``smoke`` is the smallest size, used by the self-test.
SIZES: dict[str, dict[str, dict[str, Any]]] = {
    "full": {
        "fig6-fabric": {"clients": 256, "duration_ms": 250, "setup_reps": 3},
        "tsn-gated-line": {"duration_ms": 500, "setup_reps": 40},
        "sweep-cells": {
            "seeds": 3,
            "cells": (
                ("fig1", {}),
                ("fig4-delay", {"cycles": 100}),
                ("fig4-jitter", {"cycles": 100}),
                ("fig5", {"duration_ms": 1000, "crash_ms": 500}),
            ),
            # One fig6 cell: the shortest duration at which every
            # Figure 6 point still completes frames after warm-up.
            "long_cells": (("fig6", {"duration_ms": 300}),),
        },
    },
    "smoke": {
        "fig6-fabric": {"clients": 32, "duration_ms": 250, "setup_reps": 1},
        "tsn-gated-line": {"duration_ms": 40, "setup_reps": 2},
        "sweep-cells": {
            "seeds": 1,
            "cells": (
                ("fig1", {}),
                ("fig4-delay", {"cycles": 5}),
                ("fig4-jitter", {"cycles": 5}),
                ("fig5", {"duration_ms": 400, "crash_ms": 200}),
            ),
            "long_cells": (),
        },
    },
}

#: Figures whose sweep cells are charged under ``cells.<figure>.*``.
SWEEP_FIGURES = ("fig1", "fig4-delay", "fig4-jitter", "fig5", "fig6")

#: End-to-end metrics (tracing off): name -> unit.
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

NET_CALLS = (
    "Switch.receive", "Host.receive", "Port.send", "Port.try_transmit",
    "Port.deliver", "Link.propagate",
)

#: Per-layer metrics (traced run): name -> unit.
PER_LAYER: dict[str, str] = {
    "simcore.events_executed": "count",
    "simcore.events_scheduled": "count",
    "simcore.self_s": "s",
    "simcore.ns_per_event": "ns",
    "net.self_s": "s",
    **{f"net.{name}.calls": "count" for name in NET_CALLS},
    "net.packets_sent": "count",
    "tsn.self_s": "s",
    "tsn.select.calls": "count",
    "tsn.gcl_lookups": "count",
    "tsn.ns_per_select": "ns",
    "tsn.synthesize_s": "s",
    "fieldbus.self_s": "s",
    "fieldbus.cyclic_sent": "count",
    "fieldbus.cyclic_received": "count",
    "fieldbus.watchdog_expirations": "count",
    "mlnet.build_s": "s",
    "mlnet.self_s": "s",
    "mlnet.frames_sent": "count",
    "mlnet.results_received": "count",
    "runner.self_s": "s",
    "runner.parallel_efficiency": "ratio",
    "runner.lane_idle_s": "s",
    "runner.first_cell_s": "s",
    "runner.cached_wall_s": "s",
    "runner.cache_get_s": "s",
    "runner.cache_hit_ratio": "ratio",
    "runner.cache_put_s": "s",
    "runner.checkpoint_s": "s",
    "runner.cells_computed": "count",
    "runner.cells_cached": "count",
    "runner.cells_failed": "count",
    "runner.attempts": "count",
    **{
        f"cells.{figure}.{name}": unit
        for figure in SWEEP_FIGURES
        for name, unit in (("compute_s", "s"), ("events_executed", "count"))
    },
    "bench.self_s": "s",
    "trace.wall_s": "s",
    "trace.self_sum_s": "s",
    "trace.overhead_x": "x",
    "failed_frac": "ratio",
}

#: Entry points each workload must reach (``calls > 0`` in the traced
#: run), and those it must never reach (``calls == 0``).
EXPECTED_HIT = {
    "fig6-fabric": (
        "Simulator.run", *NET_CALLS, "build_ring_deployment",
        "run_deployment", "MlClient._send_frame", "InferenceServer._finish",
    ),
    "tsn-gated-line": (
        "Simulator.run", *NET_CALLS, "TimeAwareShaper.select",
        "GateControlList.state_at", "ScheduleSynthesizer.synthesize",
        "TsnSchedule.install_gate_control", "IoDeviceApp._on_packet",
        "CyclicConnection._publish_outputs",
    ),
    "sweep-cells": (
        "run_jobs", "ResultCache.get", "ResultCache.put",
        "RunManifest.to_json",
    ),
}
EXPECTED_ZERO = {
    "fig6-fabric": ("TimeAwareShaper.select", "GateControlList.state_at"),
    "tsn-gated-line": (),
    "sweep-cells": ("TimeAwareShaper.select", "GateControlList.state_at"),
}

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"


@dataclass
class OpResult:
    """What one operation measured and produced."""

    wall_s: float  #: rescaled host time of the measured phase
    raw_wall_s: float  #: host time of the measured phase, as measured
    op_s: float  #: host time of the whole operation, as measured
    setup_s: list[float]  #: rescaled set-up samples of this operation
    digest: str  #: sha256 over the operation's outputs
    counts: dict[str, float]  #: exact work and correctness counts
    attempted: int  #: operations (runs, or sweep cells) attempted
    failed: int  #: of those, how many failed or failed a check
    problems: list[str] = field(default_factory=list)
    extra: dict[str, float] = field(default_factory=dict)


@dataclass
class Outcome:
    """One benchmark run of one workload."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)
    digest: str = ""
    counts: dict[str, float] = field(default_factory=dict)
    #: Printed beside the metrics: raw host time and the speed rescaling.
    info: dict[str, float] = field(default_factory=dict)

    def fail(self, problem: str, count: int = 1) -> None:
        self.failed += count
        self.problems.append(problem)


def _digest(payload: Any) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# -- host speed probe ------------------------------------------------------

#: CPU time of one :func:`probe_pass` on the reference host (2-core Intel
#: Xeon container, Python 3.11.7) when no other tenant slows it down.
CAL_REFERENCE_S = 0.0014

#: Seconds between probe passes while a phase is measured.
PROBE_INTERVAL_S = 0.05


class _Item:
    __slots__ = ("key", "count")

    def __init__(self, key: int) -> None:
        self.key = key
        self.count = 0


def probe_pass(iterations: int = 1_000) -> float:
    """CPU time of a fixed mix of heap, dict, attribute and allocation work.

    The mix resembles the simulator's hot path but calls no code of the
    program, so a change to the program never moves it.  CPU time, not
    host time, so that a pass preempted by the sweep's workers does not
    read as a slow host.
    """
    start = time.thread_time()
    heap: list[tuple[int, int, _Item]] = []
    table: dict[int, _Item] = {}
    push, pop = heapq.heappush, heapq.heappop
    for index in range(iterations):
        key = index * 7919 % 1021
        item = table.get(key)
        if item is None:
            item = table[key] = _Item(key)
        item.count += 1
        push(heap, (key, index, item))
        if len(heap) > 64:
            pop(heap)
    return time.thread_time() - start


class SpeedProbe:
    """Runs :func:`probe_pass` every ``PROBE_INTERVAL_S`` from SIGALRM.

    The handler runs in the measured process between bytecodes, so its
    samples interleave with the phase being measured and see the same
    contention.  It touches no object of the program.  Interval timers
    are not inherited across ``fork``, so pool workers are not probed.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._previous: Any = None

    def _on_alarm(self, signum: int, frame: Any) -> None:
        self.samples.append(probe_pass())

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(
            signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S
        )
        return self

    def __exit__(self, *exc: Any) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def timed(fn: Callable[[], Any]) -> tuple[Any, float, float]:
    """Run ``fn`` under a :class:`SpeedProbe`.

    Returns ``(value, raw_s, scale)``: ``raw_s * scale`` is the host time
    rescaled to the reference speed, from the mean probe pass.
    """
    with SpeedProbe() as probe:
        start = time.perf_counter()
        value = fn()
        raw = time.perf_counter() - start
    samples = probe.samples or [probe_pass()]
    return value, raw, CAL_REFERENCE_S / statistics.fmean(samples)


# -- fig6-fabric -----------------------------------------------------------

FIG6_BUILDERS = (
    ("ring", "build_ring_deployment"),
    ("leaf-spine", "build_leaf_spine_deployment"),
    ("ml-aware", "build_ml_aware_deployment"),
)


def _fig6_build(seed: int, size: dict[str, Any]) -> list[tuple[Any, ...]]:
    from repro.mlnet import OBJECT_IDENTIFICATION, topologies
    from repro.simcore import Simulator

    built = []
    for topology, builder in FIG6_BUILDERS:
        sim = Simulator(seed=seed)
        # Looked up at call time so the traced run sees the wrapper.
        deployment = getattr(topologies, builder)(
            sim, size["clients"], OBJECT_IDENTIFICATION
        )
        built.append((topology, sim, deployment))
    return built


def fig6_op(seed: int, size: dict[str, Any], **_: Any) -> OpResult:
    from repro.mlnet import OBJECT_IDENTIFICATION, experiment
    from repro.mlnet.serving import MlClient
    from repro.net import Host
    from repro.simcore.stats import collect
    from repro.simcore.units import MS

    clients = size["clients"]
    start = time.perf_counter()
    with collect() as stats:
        built, build_s, scale = timed(lambda: _fig6_build(seed, size))
        setup = build_s * scale
        rows = []
        wall = raw_wall = 0.0
        for topology, sim, deployment in built:
            # Looked up at call time so the traced run sees the wrapper.
            point, point_s, scale = timed(
                lambda: experiment.run_deployment(
                    deployment, OBJECT_IDENTIFICATION, sim,
                    duration_ns=size["duration_ms"] * MS,
                )
            )
            wall += point_s * scale
            raw_wall += point_s
            rows.append([topology, clients, *point])
        end = time.perf_counter()
    counts = {
        "events_executed": stats.events_executed,
        "events_scheduled": stats.events_scheduled,
        "packets_sent": 0,
        "frames_sent": 0,
        "results_received": 0,
    }
    for _, _, deployment in built:
        for device in deployment.topo.devices.values():
            if isinstance(device, Host):
                counts["packets_sent"] += device.tx_count
        for host in deployment.client_hosts:
            # run_deployment does not return its clients; reach them
            # through the receive handlers they registered on their hosts.
            for handler in host._handlers:
                client = getattr(handler, "__self__", None)
                if isinstance(client, MlClient):
                    counts["frames_sent"] += client.stats.frames_sent
                    counts["results_received"] += (
                        client.stats.results_received
                    )
    problems = []
    latency = {row[0]: row[2] for row in rows}
    if not latency["ring"] >= latency["ml-aware"]:
        problems.append(
            f"ring latency {latency['ring']} < ml-aware {latency['ml-aware']}"
        )
    if any(row[4] <= 0 for row in rows):
        problems.append("a fig6 point measured no frames")
    return OpResult(
        wall_s=wall,
        raw_wall_s=raw_wall,
        op_s=end - start,
        setup_s=[setup],
        digest=_digest(rows),
        counts=counts,
        attempted=1,
        failed=1 if problems else 0,
        problems=problems,
    )


# -- tsn-gated-line --------------------------------------------------------

CYCLE_NS = 2_000_000


def _tsn_build(seed: int, size: dict[str, Any]) -> tuple[Any, Any, Any]:
    from repro.fieldbus import ConnectionParams, CyclicConnection, IoDeviceApp
    from repro.net import (
        FlowSpec, PoissonSender, TrafficClass, build_line,
        install_shortest_path_routes,
    )
    from repro.simcore import Simulator
    from repro.tsn import ScheduleSynthesizer

    sim = Simulator(seed=seed)
    topo = build_line(sim, 4)
    install_shortest_path_routes(topo)
    # The two cyclic flows of the relation h0 <-> h3, as schedule inputs.
    specs = [
        FlowSpec(
            "ctrl-out", "h0", "h3", period_ns=CYCLE_NS, payload_bytes=220,
            traffic_class=TrafficClass.CYCLIC_RT,
        ),
        FlowSpec(
            "dev-in", "h3", "h0", period_ns=CYCLE_NS, payload_bytes=220,
            traffic_class=TrafficClass.CYCLIC_RT,
        ),
    ]
    schedule = ScheduleSynthesizer(topo).synthesize(specs)
    schedule.install_gate_control(slack_ns=30_000)
    device = IoDeviceApp(sim, topo.devices["h3"])
    connection = CyclicConnection(
        sim, topo.devices["h0"], "h3",
        ConnectionParams(cycle_ns=CYCLE_NS, watchdog_factor=10),
    )
    connection.open()
    noise = PoissonSender(
        sim,
        topo.devices["h1"],
        FlowSpec(
            "noise", "h1", "h3", payload_bytes=1_400,
            traffic_class=TrafficClass.BEST_EFFORT,
        ),
        rate_pps=40_000,
        rng=sim.streams.stream("noise"),
    )
    noise.start()
    return sim, topo, (device, connection)


def tsn_op(seed: int, size: dict[str, Any], **_: Any) -> OpResult:
    from repro.metrics import jitter_report
    from repro.net import Host
    from repro.simcore.stats import collect
    from repro.simcore.units import MS

    start = time.perf_counter()
    with collect() as stats:
        built, build_s, setup_scale = timed(lambda: _tsn_build(seed, size))
        sim, topo, (device, connection) = built
        _, run_s, scale = timed(
            lambda: sim.run(until=size["duration_ms"] * MS)
        )
        end = time.perf_counter()
    dev, ctl = device.stats, connection.stats
    counts = {
        "events_executed": stats.events_executed,
        "events_scheduled": stats.events_scheduled,
        "packets_sent": sum(
            d.tx_count for d in topo.devices.values() if isinstance(d, Host)
        ),
        "cyclic_sent": dev.cyclic_sent + ctl.cyclic_sent,
        "cyclic_received": dev.cyclic_received + ctl.cyclic_received,
        "watchdog_expirations": (
            dev.watchdog_expirations + ctl.watchdog_expirations
        ),
    }
    problems = []
    if counts["watchdog_expirations"]:
        problems.append(
            f"{counts['watchdog_expirations']} watchdog expirations"
        )
    if dev.cyclic_received <= 10:
        problems.append(f"only {dev.cyclic_received} cyclic frames received")
    else:
        jitter = jitter_report(dev.rx_times_ns[10:], CYCLE_NS)
        if not jitter.max_abs_jitter_ns < CYCLE_NS / 4:
            problems.append(
                f"gated max jitter {jitter.max_abs_jitter_ns} ns "
                f">= cycle/4"
            )
    return OpResult(
        wall_s=run_s * scale,
        raw_wall_s=run_s,
        op_s=end - start,
        setup_s=[build_s * setup_scale],
        digest=_digest([dev.rx_times_ns, ctl.rx_times_ns]),
        counts=counts,
        attempted=1,
        failed=1 if problems else 0,
        problems=problems,
    )


# -- sweep-cells -----------------------------------------------------------


def _sweep_jobs(seed: int, size: dict[str, Any], inject_fault: bool):
    from repro.runner import make_job

    seeds = [seed + offset for offset in range(size["seeds"])]
    jobs = [
        make_job(figure, cell_seed, params)
        for figure, params in size["cells"]
        for cell_seed in seeds
    ]
    jobs += [make_job(figure, seed, params)
             for figure, params in size["long_cells"]]
    if inject_fault:
        # Needs REPRO_DEMO_FAULTS set; the marker never exists, so the
        # cell raises on every attempt.
        jobs.append(make_job("faulty-demo", seed, {"marker": ""}))
    return jobs


def _rows_json(rows: Any) -> str:
    return json.dumps(list(rows), sort_keys=True, default=str)


def sweep_op(seed: int, size: dict[str, Any], *, work: Path,
             inject_fault: bool = False, **_: Any) -> OpResult:
    from repro.runner import ResultCache, engine

    shutil.rmtree(work, ignore_errors=True)
    start = time.perf_counter()
    jobs = _sweep_jobs(seed, size, inject_fault)
    cache = ResultCache(work / "cache")
    checkpoint = work / "manifest.json"
    built = time.perf_counter()
    called: list[float] = []
    first: list[tuple[float, float]] = []

    def progress(record: Any) -> None:
        if not first:
            first.append((time.perf_counter(), record.wall_time_s))

    def cold_pass() -> Any:
        called.append(time.perf_counter())
        # Looked up at call time so the traced run sees the wrapper.
        return engine.run_jobs(
            jobs, workers=WORKERS, cache=cache, progress=progress,
            checkpoint=checkpoint,
        )

    try:
        cold, wall, scale = timed(cold_pass)
        warm_start = time.perf_counter()
        warm = engine.run_jobs(
            jobs, workers=WORKERS, cache=cache, checkpoint=checkpoint,
        )
        end = time.perf_counter()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    first_at, first_compute = first[0]
    problems = []
    failed = 0
    cold_rows = []
    per_figure = {
        figure: {"compute_s": 0.0, "events_executed": 0}
        for figure in SWEEP_FIGURES
    }
    events_executed = events_scheduled = attempts = 0
    computed_s = 0.0
    for cold_out, warm_out in zip(cold.outcomes, warm.outcomes):
        record, job = cold_out.record, cold_out.job
        label = f"{job.figure} seed={job.seed}"
        cold_json = _rows_json(cold_out.rows)
        cold_rows.append([job.figure, job.seed, list(job.params), cold_json])
        attempts += record.attempts
        if record.status != "ok" or record.cached:
            failed += 1
            problems.append(f"cold {label}: {record.status} {record.error}")
        else:
            computed_s += record.wall_time_s
            stats = record.stats or {}
            events_executed += stats.get("events_executed", 0)
            events_scheduled += stats.get("events_scheduled", 0)
            if job.figure in per_figure:
                per_figure[job.figure]["compute_s"] += record.wall_time_s
                per_figure[job.figure]["events_executed"] += stats.get(
                    "events_executed", 0
                )
        if warm_out.record.status != "cached":
            failed += 1
            problems.append(f"warm {label}: {warm_out.record.status}")
        elif _rows_json(warm_out.rows) != cold_json:
            failed += 1
            problems.append(f"warm {label}: rows differ from the cold pass")
    counts: dict[str, float] = {
        "events_executed": events_executed,
        "events_scheduled": events_scheduled,
        "cells_computed": sum(
            1 for o in cold.outcomes
            if o.record.status == "ok" and not o.record.cached
        ),
        "cells_cached": warm.manifest.cache_hits,
        "cells_failed": cold.manifest.failed + warm.manifest.failed,
        "attempts": attempts,
    }
    for figure, values in per_figure.items():
        counts[f"cells.{figure}.events_executed"] = values["events_executed"]
    extra = {
        f"cells.{figure}.compute_s": values["compute_s"]
        for figure, values in per_figure.items()
    }
    extra.update({
        "runner.parallel_efficiency": computed_s / (WORKERS * wall),
        "runner.lane_idle_s": WORKERS * wall - computed_s,
        "runner.first_cell_s": first_at - called[0],
        "runner.cached_wall_s": end - warm_start,
        "runner.cache_hit_ratio": warm.manifest.cache_hits / len(jobs),
    })
    # Set-up: building the grid and cache, plus everything run_jobs does
    # before the first cell starts computing (cache probes, pool start).
    setup = (built - start) + (first_at - called[0] - first_compute)
    return OpResult(
        wall_s=wall * scale,
        raw_wall_s=wall,
        op_s=end - start,
        setup_s=[setup * scale],
        digest=_digest(cold_rows),
        counts=counts,
        attempted=2 * len(jobs),
        failed=failed,
        problems=problems,
        extra=extra,
    )


OPS: dict[str, Callable[..., OpResult]] = {
    "fig6-fabric": fig6_op,
    "tsn-gated-line": tsn_op,
    "sweep-cells": sweep_op,
}
#: Set-up alone, repeated ``setup_reps`` times per run for ``setup_s``;
#: the sweep's set-up is only measurable inside an operation.
SETUP_ONLY: dict[str, Callable[[int, dict[str, Any]], Any] | None] = {
    "fig6-fabric": _fig6_build,
    "tsn-gated-line": _tsn_build,
    "sweep-cells": None,
}


# -- the run ---------------------------------------------------------------


def load_reference() -> dict[str, Any]:
    try:
        return json.loads(REFERENCE_PATH.read_text())
    except FileNotFoundError:
        return {}


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def _attempt(outcome: Outcome, fn: Callable[[], OpResult]) -> OpResult | None:
    """Run one operation; an exception counts as a failed operation."""
    gc.collect()
    try:
        result = fn()
    except Exception:  # the benchmark must report, not crash
        outcome.attempted += 1
        outcome.fail("operation raised:\n" + traceback.format_exc())
        return None
    outcome.attempted += result.attempted
    if result.failed:
        outcome.fail("; ".join(result.problems), result.failed)
    return result


def run_workload(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    *,
    size_name: str = "full",
    work_dir: Path,
    inject_fault: bool = False,
    check_reference: bool = True,
) -> Outcome:
    """Measure ``workload`` for ``seconds`` and return its metrics."""
    size = SIZES[size_name][workload]
    op = OPS[workload]
    kwargs = {"work": work_dir / f"sweep-{os.getpid()}",
              "inject_fault": inject_fault}
    outcome = Outcome()
    setup_samples: list[float] = []
    setup_only = SETUP_ONLY[workload]
    if setup_only is not None:

        def setup_reps() -> list[float]:
            samples = []
            for _ in range(size["setup_reps"]):
                gc.collect()
                start = time.perf_counter()
                setup_only(seed, size)
                samples.append(time.perf_counter() - start)
            return samples

        samples, _, scale = timed(setup_reps)
        setup_samples.extend(sample * scale for sample in samples)

    results: list[OpResult] = []
    begin = time.perf_counter()
    while True:
        result = _attempt(outcome, lambda: op(seed, size, **kwargs))
        if result is not None:
            results.append(result)
            setup_samples.extend(result.setup_s)
        if time.perf_counter() - begin >= seconds:
            break
    if not results:
        return outcome
    last = results[-1]
    outcome.digest, outcome.counts = last.digest, last.counts
    if any(r.digest != last.digest or r.counts != last.counts
           for r in results):
        outcome.fail("repeated operations produced different outputs")
    reference = load_reference().get(workload)
    if (check_reference and size_name == "full" and seed == DEFAULT_SEED
            and reference is not None):
        if (reference["digest"] != last.digest
                or reference["events_executed"]
                != last.counts["events_executed"]):
            outcome.fail(
                f"seed {seed} output differs from reference.json "
                f"(digest {last.digest}, "
                f"events {last.counts['events_executed']})"
            )
    outcome.info = {
        "operations": len(results),
        "raw_wall_s": statistics.median(r.raw_wall_s for r in results),
        "speed_scale": statistics.median(
            r.wall_s / r.raw_wall_s for r in results
        ),
    }
    if not trace:
        outcome.metrics = {
            "wall_s": statistics.median(r.wall_s for r in results),
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": _peak_rss_mb(),
        }
        return outcome
    _traced(outcome, workload, seed, size, kwargs, results, work_dir)
    return outcome


def _traced(outcome: Outcome, workload: str, seed: int, size: dict[str, Any],
            kwargs: dict[str, Any], untraced: list[OpResult],
            work_dir: Path) -> None:
    """Run one traced operation and fill the per-layer metrics."""
    baseline = untraced[-1]
    recorder = SpanRecorder(run_id=f"{workload}-seed{seed}-pid{os.getpid()}")

    def traced_op() -> OpResult:
        with recorder.span("bench.op"):
            return OPS[workload](seed, size, **kwargs)

    recorder.install()
    try:
        traced = _attempt(outcome, traced_op)
    finally:
        recorder.uninstall()
    recorder.write(work_dir / "trace" / f"{recorder.run_id}.jsonl")
    if traced is None:
        return
    if traced.digest != baseline.digest or traced.counts != baseline.counts:
        outcome.fail("traced outputs or counts differ from the untraced run")
    for name in EXPECTED_HIT[workload]:
        if recorder.calls(name) == 0:
            outcome.fail(f"traced run never called {name}")
    for name in EXPECTED_ZERO[workload]:
        if recorder.calls(name) != 0:
            outcome.fail(f"traced run called {name}, predicted zero calls")
    layer_self = recorder.layer_self_s()
    traced_wall = recorder.total_s("bench.op")
    self_sum = sum(layer_self.values())
    if self_sum > traced_wall * (1 + 1e-9) + 1e-6:
        outcome.fail(
            f"layer self times {self_sum} s exceed wall {traced_wall} s"
        )

    counts = baseline.counts
    events = counts["events_executed"]
    selects = recorder.calls("TimeAwareShaper.select")
    metrics: dict[str, float] = {
        "simcore.events_executed": events,
        "simcore.events_scheduled": counts["events_scheduled"],
        "simcore.ns_per_event": (
            layer_self["simcore"] / events * 1e9 if events else 0.0
        ),
        "net.packets_sent": counts.get("packets_sent", 0),
        "tsn.select.calls": selects,
        "tsn.gcl_lookups": recorder.calls("GateControlList.state_at"),
        "tsn.ns_per_select": (
            recorder.total_s("TimeAwareShaper.select") / selects * 1e9
            if selects else 0.0
        ),
        "tsn.synthesize_s": (
            recorder.total_s("ScheduleSynthesizer.synthesize")
            + recorder.total_s("TsnSchedule.install_gate_control")
        ),
        "fieldbus.cyclic_sent": counts.get("cyclic_sent", 0),
        "fieldbus.cyclic_received": counts.get("cyclic_received", 0),
        "fieldbus.watchdog_expirations": counts.get("watchdog_expirations", 0),
        "mlnet.build_s": sum(
            recorder.total_s(builder) for _, builder in FIG6_BUILDERS
        ),
        "mlnet.frames_sent": counts.get("frames_sent", 0),
        "mlnet.results_received": counts.get("results_received", 0),
        "runner.cache_get_s": recorder.total_s("ResultCache.get"),
        "runner.cache_put_s": recorder.total_s("ResultCache.put"),
        "runner.checkpoint_s": recorder.total_s("RunManifest.to_json"),
        "trace.wall_s": traced_wall,
        "trace.self_sum_s": self_sum,
        "trace.overhead_x": traced_wall / statistics.median(
            r.op_s for r in untraced
        ),
    }
    for layer, value in layer_self.items():
        metrics[f"{layer}.self_s"] = value
    for name in NET_CALLS:
        metrics[f"net.{name}.calls"] = recorder.calls(name)
    for name in ("cells_computed", "cells_cached", "cells_failed",
                 "attempts"):
        metrics[f"runner.{name}"] = counts.get(name, 0)
    for figure in SWEEP_FIGURES:
        metrics[f"cells.{figure}.events_executed"] = counts.get(
            f"cells.{figure}.events_executed", 0
        )
    for name in PER_LAYER:
        if name.startswith(("runner.", "cells.")) and name not in metrics:
            metrics[name] = baseline.extra.get(name, 0.0)
    metrics["failed_frac"] = outcome.failed / max(outcome.attempted, 1)
    outcome.metrics = metrics
