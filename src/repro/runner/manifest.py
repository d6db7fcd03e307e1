"""Machine-readable run manifest for experiment sweeps.

Every :func:`repro.runner.run_jobs` call produces a :class:`RunManifest`
summarizing what ran, what failed, what was served from cache, and what
it cost.  The JSON schema (``repro.runner/manifest/v3``)::

    {
      "schema": "repro.runner/manifest/v3",
      "version": "1.4.0",            // repro package version
      "workers": 4,                  // pool size used
      "cache_dir": ".repro-cache",   // null when caching was disabled
      "cache_hits": 3,
      "cache_misses": 5,
      "failed": 1,                   // jobs with status failed/timeout
      "wall_time_s": 12.81,          // whole-sweep wall clock
      "jobs": [
        {
          "figure": "fig5",
          "seed": 0,
          "params": {"duration_ms": 3000, "crash_ms": 1500},
          "key": "ab3f…9c",          // content address in the cache
          "cached": false,
          "wall_time_s": 0.52,       // cache-service time for cache hits
          "rows": 60,
          // -- v3 supervision fields (see repro.runner.supervisor) ---------
          "status": "ok",            // "ok" | "failed" | "timeout" | "cached"
          "error": null,             // one-line error for failed/timeout jobs
          "traceback": null,         // worker traceback when one was caught
          "attempts": 1,             // executions incl. retries
          // -- PR-8 distributed/streaming fields (additive, optional) ------
          "backend": "local-pool",   // executor backend (null for cache hits)
          "row_chunks": null,        // chunked JSONL row files when streamed
          // -- PR-10 sweep-trace timing fields (additive; null unless the
          //    sweep ran with --sweeptrace; see repro.obs.sweeptrace) ------
          "queue_s": 0.004,          // submission -> first attempt start
          "compute_s": 0.52,         // execution time across all attempts
          "attempt_timings": [       // one entry per execution attempt
            {"attempt": 1, "outcome": "ok", "start_s": 0.004, "wall_s": 0.52}
          ],
          "span": "9d41c2b07a3e5f18",  // span id in sweep.events.jsonl
          "stats": {                 // Simulator.stats totals; null if cached
            "simulators": 1,
            "events_scheduled": 241035,
            "events_executed": 240911,
            "processes_started": 12,
            "sim_time_ns": 3000000000
          },
          "rows_path": "results/fig5.csv",  // when the caller exported rows
          // -- v2 observability fields (null unless the sweep ran with
          //    tracing/profiling enabled; see repro.obs) -------------------
          "metrics": {               // repro.obs MetricsRegistry.snapshot()
            "counters": {"net.host.frames{direction=rx,host=io}": 401, ...},
            "gauges": {},
            "histograms": {"net.port.tx_ns": {"edges": [...], "counts": [...],
                           "count": 1692, "sum": ..., "min": ..., "max": ...}}
          },
          "hotspots": [              // Profiler.as_rows(): hottest first
            {"name": "P4Switch.receive.<locals>.<lambda>", "calls": 846,
             "total_ns": 28610000, "max_ns": 865390, "mean_ns": 33814.4}
          ],
          "trace_path": "traces/fig5.seed0.job3.trace.json",
          // -- in-band network telemetry (null unless the sweep ran with
          //    telemetry_dir=; see repro.obs.telemetry) -------------------
          "telemetry": {"postcards": 910, "top_queues": [...],
                        "links": [...], "flight_snapshots": 0},
          "telemetry_path": "telemetry/fig5.seed0.job3.telemetry.json",
          // -- verdict (null unless the spec declares a verdict function;
          //    chaos campaigns record "pass"/"fail" compliance here) ------
          "verdict": "pass"
        }
      ]
    }

**Backward compatibility:** v2 manifests (schema
``repro.runner/manifest/v2``) are the same document minus the four
supervision fields, and v1 manifests additionally lack the observability
fields and ``verdict``; :meth:`RunManifest.from_dict` reads all three
versions, fills missing optional fields with ``None``, and derives
``status`` for pre-v3 records (``"cached"`` when the job was a cache hit,
``"ok"`` otherwise — pre-v3 sweeps aborted instead of recording
failures), so tooling written against v3 loads old manifests unchanged.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from .. import __version__

MANIFEST_SCHEMA_V1 = "repro.runner/manifest/v1"
MANIFEST_SCHEMA_V2 = "repro.runner/manifest/v2"
MANIFEST_SCHEMA = "repro.runner/manifest/v3"

#: Schemas :meth:`RunManifest.from_dict` knows how to read.
READABLE_SCHEMAS = (MANIFEST_SCHEMA_V1, MANIFEST_SCHEMA_V2, MANIFEST_SCHEMA)

#: Job statuses that carry usable rows (mirrors ``supervisor.OK_STATUSES``
#: without importing it: the manifest layer stays dependency-free).
_OK_STATUSES = ("ok", "cached")


@dataclass
class JobRecord:
    """One (figure, seed, params) cell of a sweep."""

    figure: str
    seed: int
    params: dict[str, Any]
    key: str
    cached: bool
    wall_time_s: float
    rows: int
    stats: dict[str, int] | None = None
    rows_path: str | None = None
    #: ``repro.obs`` metrics snapshot (v2; ``None`` when obs was off).
    metrics: dict[str, Any] | None = None
    #: Profiler hot-spot rows, hottest first (v2; ``None`` when not profiled).
    hotspots: list[dict[str, Any]] | None = None
    #: Chrome trace-event file written for this job (v2).
    trace_path: str | None = None
    #: Spec verdict over the rows (v2; chaos campaigns: "pass"/"fail").
    verdict: str | None = None
    #: In-band network telemetry digest (``TelemetryHub.summary()``;
    #: ``None`` unless the sweep ran with ``telemetry_dir=``).
    telemetry: dict[str, Any] | None = None
    #: Full ``.telemetry.json`` snapshot written for this job.
    telemetry_path: str | None = None
    #: Executor backend that computed the job ("serial" or "local-pool";
    #: older manifests may also name "subprocess").  ``None`` for cache
    #: hits and for manifests that predate the field.
    backend: str | None = None
    #: Chunked JSONL row files when the sweep streamed rows to disk
    #: (see :mod:`repro.runner.rowstream`); ``None`` for in-memory runs.
    row_chunks: list[str] | None = None
    #: Terminal state (v3): "ok", "failed", "timeout", or "cached".
    status: str = "ok"
    #: One-line error description for failed/timeout jobs (v3).
    error: str | None = None
    #: Worker traceback, when the failure raised inside the figure (v3).
    traceback: str | None = None
    #: Number of executions, including retries (v3).
    attempts: int = 1
    #: Seconds between submission to the backend and the first execution
    #: attempt (PR-10 sweep tracing; ``None`` when tracing was off).
    queue_s: float | None = None
    #: Seconds of actual execution across all attempts (PR-10).
    compute_s: float | None = None
    #: Per-attempt ``{"attempt", "outcome", "start_s", "wall_s"}`` log
    #: from the sweep trace (PR-10; ``None`` when tracing was off).
    attempt_timings: list[dict[str, Any]] | None = None
    #: Sweep-trace span id correlating this record with
    #: ``sweep.events.jsonl`` and the job's Chrome trace (PR-10).
    span: str | None = None

    @property
    def ok(self) -> bool:
        """Whether this record's rows are usable (status ok/cached)."""
        return self.status in _OK_STATUSES

    def as_dict(self) -> dict[str, Any]:
        return {
            "figure": self.figure,
            "seed": self.seed,
            "params": self.params,
            "key": self.key,
            "cached": self.cached,
            "wall_time_s": round(self.wall_time_s, 6),
            "rows": self.rows,
            "stats": self.stats,
            "rows_path": self.rows_path,
            "metrics": self.metrics,
            "hotspots": self.hotspots,
            "trace_path": self.trace_path,
            "verdict": self.verdict,
            "telemetry": self.telemetry,
            "telemetry_path": self.telemetry_path,
            "backend": self.backend,
            "row_chunks": self.row_chunks,
            "status": self.status,
            "error": self.error,
            "traceback": self.traceback,
            "attempts": self.attempts,
            "queue_s": self.queue_s,
            "compute_s": self.compute_s,
            "attempt_timings": self.attempt_timings,
            "span": self.span,
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "JobRecord":
        """Rebuild a record from manifest JSON (v1 fields always present).

        Pre-v3 records carry no ``status``; it is derived from ``cached``
        (pre-v3 sweeps aborted on the first failure, so every recorded
        job either computed or hit the cache).
        """
        cached = payload["cached"]
        return cls(
            figure=payload["figure"],
            seed=payload["seed"],
            params=dict(payload.get("params") or {}),
            key=payload["key"],
            cached=cached,
            wall_time_s=payload.get("wall_time_s", 0.0),
            rows=payload.get("rows", 0),
            stats=payload.get("stats"),
            rows_path=payload.get("rows_path"),
            metrics=payload.get("metrics"),
            hotspots=payload.get("hotspots"),
            trace_path=payload.get("trace_path"),
            verdict=payload.get("verdict"),
            telemetry=payload.get("telemetry"),
            telemetry_path=payload.get("telemetry_path"),
            backend=payload.get("backend"),
            row_chunks=payload.get("row_chunks"),
            status=payload.get("status") or ("cached" if cached else "ok"),
            error=payload.get("error"),
            traceback=payload.get("traceback"),
            attempts=payload.get("attempts", 1),
            queue_s=payload.get("queue_s"),
            compute_s=payload.get("compute_s"),
            attempt_timings=payload.get("attempt_timings"),
            span=payload.get("span"),
        )


@dataclass
class RunManifest:
    """Summary of one sweep: job records plus cache/timing counters."""

    workers: int
    cache_dir: str | None
    wall_time_s: float = 0.0
    records: list[JobRecord] = field(default_factory=list)

    @property
    def cache_hits(self) -> int:
        return sum(1 for record in self.records if record.cached)

    @property
    def cache_misses(self) -> int:
        return sum(1 for record in self.records if not record.cached)

    @property
    def failed(self) -> int:
        """Jobs that ended failed or timed out after exhausting retries."""
        return sum(1 for record in self.records if not record.ok)

    @property
    def degraded(self) -> bool:
        """Whether the sweep completed with at least one failed job."""
        return self.failed > 0

    def failures(self) -> list[JobRecord]:
        """The failed/timeout records, in job order."""
        return [record for record in self.records if not record.ok]

    def as_dict(self) -> dict[str, Any]:
        return {
            "schema": MANIFEST_SCHEMA,
            "version": __version__,
            "workers": self.workers,
            "cache_dir": self.cache_dir,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "failed": self.failed,
            "wall_time_s": round(self.wall_time_s, 6),
            "jobs": [record.as_dict() for record in self.records],
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.as_dict(), indent=indent)

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "RunManifest":
        """Rebuild a manifest from its JSON form (schema v1 or v2)."""
        schema = payload.get("schema")
        if schema not in READABLE_SCHEMAS:
            raise ValueError(
                f"unsupported manifest schema {schema!r}; "
                f"readable: {', '.join(READABLE_SCHEMAS)}"
            )
        return cls(
            workers=payload.get("workers", 1),
            cache_dir=payload.get("cache_dir"),
            wall_time_s=payload.get("wall_time_s", 0.0),
            records=[
                JobRecord.from_dict(job) for job in payload.get("jobs", [])
            ],
        )

    @classmethod
    def from_json(cls, text: str) -> "RunManifest":
        return cls.from_dict(json.loads(text))

    @classmethod
    def load(cls, path: Path | str) -> "RunManifest":
        """Read a manifest file written by ``repro sweep``/``repro all``."""
        return cls.from_json(Path(path).read_text())
