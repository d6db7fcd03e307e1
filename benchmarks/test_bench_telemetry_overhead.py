"""E-tel — cost of the in-band telemetry plane on the figure-6 kernel.

The design budget: with telemetry off (no capture scope, the default for
every figure run) the plane must cost the fig6 kernel **at most 1.05x**
of its pre-telemetry wall time.  The off path is the null-object
pattern — every component caches ``get_telemetry().*_probe(self)`` as
``None`` at construction and the hot paths pay one ``is not None`` check
— so the budget holds structurally.  Across commits, the perfbench
``fig6-fabric`` workload (``perfbench/``, declared in ``BENCHMARK.json``)
enforces it: it runs the fig6 kernel (256 clients, three topologies)
with telemetry off, and its ``wall_s`` bound fails a change that slows
the off path.  What *this* benchmark proves in-process:

- **off** and **telemetry** runs of the same seeded kernel produce
  *identical* figure numbers (the plane observes, never perturbs);
- telemetry-on overhead stays inside a loose hard bound — rings,
  postcard sampling, and the flight recorder are all O(1) per event;
- the off path really is unwired (probe attributes are ``None``).

The table reports the kernel wall time in both configurations, next to
the 1.05x off-mode budget.
"""

import time
import warnings

from conftest import print_table

from repro import obs
from repro.mlnet import OBJECT_IDENTIFICATION, run_point
from repro.simcore.units import MS

#: One mid-scale fig6 point: big enough to dominate setup, < a few s.
CLIENTS = 64
TOPOLOGY = "leaf-spine"
DURATION_NS = 400 * MS
SEED = 0
ROUNDS = 3

#: Design budget for the *off* path; perfbench fig6-fabric wall_s gates it.
OFF_BUDGET_RATIO = 1.05
#: Design target for telemetry *on* (warning only — this is a report).
ON_TARGET_RATIO = 2.0
#: Hard CI bound: only a real per-event regression reaches this.
ON_HARD_RATIO = 4.0


def _kernel():
    return run_point(
        OBJECT_IDENTIFICATION, TOPOLOGY, CLIENTS,
        duration_ns=DURATION_NS, seed=SEED,
    )


def _best_of(fn, rounds: int = ROUNDS):
    best, result = float("inf"), None
    for _ in range(rounds):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def test_bench_telemetry_overhead(benchmark):
    off_s, off_point = benchmark.pedantic(
        lambda: _best_of(_kernel), rounds=1, iterations=1
    )

    def telemetry_run():
        with obs.capture(metrics=False, tracing=False, telemetry=True) as cap:
            point = _kernel()
        return point, cap.telemetry

    on_s, (on_point, hub) = _best_of(telemetry_run)

    rows = [
        ["off", f"{off_s * 1e3:.0f}", "1.00x"],
        ["telemetry", f"{on_s * 1e3:.0f}", f"{on_s / off_s:.2f}x"],
    ]
    print_table(
        f"Telemetry — fig6 kernel overhead ({TOPOLOGY}, {CLIENTS} clients, "
        f"best of {ROUNDS}; off-mode budget {OFF_BUDGET_RATIO:.2f}x)",
        ["config", "wall ms", "vs off"],
        rows,
    )

    # The plane observes without perturbing: same seed, same numbers.
    assert (
        off_point.mean_latency_ms,
        off_point.p99_latency_ms,
        off_point.frames_measured,
    ) == (
        on_point.mean_latency_ms,
        on_point.p99_latency_ms,
        on_point.frames_measured,
    )
    # The telemetry run actually sampled something.
    assert hub.packets_sampled > 0

    on_ratio = on_s / off_s
    if on_ratio >= ON_TARGET_RATIO:
        warnings.warn(
            f"telemetry/off ratio {on_ratio:.2f}x exceeds the "
            f"{ON_TARGET_RATIO:.1f}x design target (non-blocking; hard "
            f"bound {ON_HARD_RATIO:.1f}x)",
            stacklevel=1,
        )
    assert on_ratio < ON_HARD_RATIO


def test_off_path_is_unwired():
    """Outside a capture scope no component holds a telemetry probe."""
    from repro.net.host import Host
    from repro.net.link import Link
    from repro.simcore import Simulator
    from repro.net.topology import Topology

    sim = Simulator(seed=0)
    topo = Topology(sim)
    a = topo.add_host("a")
    b = topo.add_host("b")
    topo.connect(a, b)
    assert isinstance(a, Host)
    for node in (a, b):
        assert node._tel is None
    for link in topo.links:
        assert isinstance(link, Link)
        assert link._tel is None
