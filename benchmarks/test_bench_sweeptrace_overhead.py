"""E-swt — cost of end-to-end sweep tracing on the sweep control plane.

The design budget: with ``sweeptrace`` off (the default) the trace plane
must cost a sweep **at most 1.05x** of its pre-tracing wall time.  With
neither ``sweeptrace`` nor a status file the engine builds no
control-plane fold (its "recorder") at all, and backends get no event
channel, so the budget holds structurally.  Across commits, the
perfbench ``sweep-cells`` workload (``perfbench/``, declared in
``BENCHMARK.json``) enforces it: it runs ``run_jobs`` with no status file
and no sweeptrace, so no fold, and its ``wall_s`` bound fails a change
that slows that path.  What *this* benchmark proves in-process:

- **off** and **traced** runs of the same seeded grid produce
  *byte-identical* rows (the trace observes the control plane, never
  perturbs job payloads or results);
- tracing-on overhead stays inside a loose hard bound — one fold step
  and one JSONL append per lifecycle event, O(1) each;
- the traced run actually recorded a full event stream.

The grid is a multi-job ``fig4-delay`` sweep rather than one huge
kernel: control-plane overhead scales with lifecycle events (jobs ×
attempts), not with kernel weight, so many small jobs are the honest
worst case.
"""

import time
import warnings

from conftest import print_table

from repro.runner import SerialBackend, make_job, run_jobs

#: Enough jobs for per-job event overhead to show, < 1 s per sweep.
SEEDS = 4
CYCLES = 200
ROUNDS = 3

#: Design budget for the *off* path; perfbench sweep-cells wall_s gates it.
OFF_BUDGET_RATIO = 1.05
#: Design target for tracing *on* (warning only — this is a report).
ON_TARGET_RATIO = 1.5
#: Hard CI bound: only a real per-event regression reaches this.
ON_HARD_RATIO = 3.0


def _sweep(sweeptrace=None):
    return run_jobs(
        [
            make_job("fig4-delay", seed=seed, params={"cycles": CYCLES})
            for seed in range(SEEDS)
        ],
        backend=SerialBackend(),
        sweeptrace=sweeptrace,
    )


def _best_of(fn, rounds: int = ROUNDS):
    best, result = float("inf"), None
    for _ in range(rounds):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def test_bench_sweeptrace_overhead(benchmark, tmp_path):
    off_s, off_result = benchmark.pedantic(
        lambda: _best_of(_sweep), rounds=1, iterations=1
    )
    events_path = tmp_path / "sweep.events.jsonl"
    on_s, on_result = _best_of(lambda: _sweep(sweeptrace=events_path))

    rows = [
        ["off", f"{off_s * 1e3:.0f}", "1.00x"],
        ["sweeptrace", f"{on_s * 1e3:.0f}", f"{on_s / off_s:.2f}x"],
    ]
    print_table(
        f"Sweep tracing — control-plane overhead (fig4-delay x{SEEDS}, "
        f"cycles={CYCLES}, best of {ROUNDS}; off-mode budget "
        f"{OFF_BUDGET_RATIO:.2f}x)",
        ["config", "wall ms", "vs off"],
        rows,
    )

    # The trace observes without perturbing: same grid, same bytes.
    for off_out, on_out in zip(off_result.outcomes, on_result.outcomes):
        assert off_out.rows.to_csv() == on_out.rows.to_csv()
    # The traced run recorded a full event stream.
    from repro.obs.sweeptrace import build_timeline, load_events

    events = load_events(events_path)
    assert events[0]["ev"] == "sweep_start"
    assert events[-1]["ev"] == "sweep_end"
    timeline = build_timeline(events)
    assert len(timeline.attempts) == SEEDS

    on_ratio = on_s / off_s
    if on_ratio >= ON_TARGET_RATIO:
        warnings.warn(
            f"sweeptrace/off ratio {on_ratio:.2f}x exceeds the "
            f"{ON_TARGET_RATIO:.1f}x design target (non-blocking; hard "
            f"bound {ON_HARD_RATIO:.1f}x)",
            stacklevel=1,
        )
    assert on_ratio < ON_HARD_RATIO


def test_off_path_builds_no_recorder():
    """Without ``sweeptrace=`` the engine never constructs a recorder —
    job payloads stay 11 elements and records carry no trace fields."""
    result = _sweep()
    for record in result.manifest.records:
        assert record.span is None
        assert record.queue_s is None
        assert record.attempt_timings is None
