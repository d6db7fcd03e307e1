"""Parallel experiment engine with content-addressed result caching.

Public API:

- :func:`expand_grid` / :func:`make_job` — turn (figures × seeds × params)
  into concrete :class:`Job` cells, validated against the
  :class:`~repro.figures.FigureSpec` registry.
- :func:`run_jobs` — execute jobs across supervised worker processes,
  serving repeats from a :class:`ResultCache`, returning a
  :class:`SweepResult` (rows per job + a :class:`RunManifest`); supports
  per-job timeouts, bounded deterministic retries, incremental manifest
  checkpointing, and resuming an interrupted or degraded sweep.
- :class:`RetryPolicy` — timeout/retry/backoff knobs for
  :func:`run_jobs` (see :mod:`repro.runner.supervisor`).
- :class:`ResultCache` / :func:`cache_key` — the on-disk cache.
- :class:`RunManifest` / :class:`JobRecord` — the JSON run manifest
  (schema :data:`MANIFEST_SCHEMA`, with per-job ``status``).
- :class:`ExecutorBackend` + :func:`resolve_backend` — pluggable
  executors (:class:`SerialBackend`, :class:`LocalPoolBackend`); specs
  like ``"local-pool:2"`` come from ``--backend`` / the ``REPRO_BACKEND``
  env var.
- :func:`shard_jobs` — deterministic round-robin split of a job list
  (or lazy :class:`JobGrid`) across distributed participants.
- :class:`LazyRows` / :func:`write_row_chunks` — disk-backed streaming
  rows (see :mod:`repro.runner.rowstream`), used when ``run_jobs`` runs
  with ``stream_rows=``.

Example::

    from repro.runner import ResultCache, expand_grid, run_jobs

    jobs = expand_grid(["fig4-delay", "fig5"], seeds=[0, 1],
                       grid={"cycles": [100, 400]})
    result = run_jobs(jobs, workers=4, cache=ResultCache("/tmp/cache"),
                      timeout_s=120.0, retries=1,
                      checkpoint="sweep-manifest.json")
    if not result.ok:
        for outcome in result.failures:
            print(outcome.job, outcome.record.error)
    # Later: rerun only what failed.
    result = run_jobs(jobs, cache=ResultCache("/tmp/cache"),
                      resume_from="sweep-manifest.json")
"""

from .backends import (
    BACKEND_AUTO,
    BACKEND_ENV,
    ExecutorBackend,
    LocalPoolBackend,
    SerialBackend,
    parse_backend_spec,
    resolve_backend,
)
from .cache import DEFAULT_CACHE_DIR, ResultCache, cache_key
from .engine import (
    Job,
    JobGrid,
    JobOutcome,
    SweepResult,
    ensure_writable_dir,
    expand_grid,
    make_job,
    run_jobs,
    shard_jobs,
)
from .rowstream import (
    DEFAULT_CHUNK_ROWS,
    LazyRows,
    iter_chunk_rows,
    write_row_chunks,
)
from .manifest import (
    MANIFEST_SCHEMA,
    MANIFEST_SCHEMA_V1,
    MANIFEST_SCHEMA_V2,
    READABLE_SCHEMAS,
    JobRecord,
    RunManifest,
)
from .supervisor import (
    OK_STATUSES,
    RETRIES_COUNTER,
    STATUS_CACHED,
    STATUS_FAILED,
    STATUS_OK,
    STATUS_TIMEOUT,
    RetryPolicy,
)

__all__ = [
    "BACKEND_AUTO",
    "BACKEND_ENV",
    "DEFAULT_CACHE_DIR",
    "DEFAULT_CHUNK_ROWS",
    "ExecutorBackend",
    "Job",
    "JobGrid",
    "JobOutcome",
    "JobRecord",
    "LazyRows",
    "LocalPoolBackend",
    "MANIFEST_SCHEMA",
    "MANIFEST_SCHEMA_V1",
    "MANIFEST_SCHEMA_V2",
    "OK_STATUSES",
    "READABLE_SCHEMAS",
    "RETRIES_COUNTER",
    "ResultCache",
    "RetryPolicy",
    "RunManifest",
    "STATUS_CACHED",
    "STATUS_FAILED",
    "STATUS_OK",
    "STATUS_TIMEOUT",
    "SerialBackend",
    "SweepResult",
    "cache_key",
    "ensure_writable_dir",
    "expand_grid",
    "iter_chunk_rows",
    "make_job",
    "parse_backend_spec",
    "resolve_backend",
    "run_jobs",
    "shard_jobs",
    "write_row_chunks",
]
