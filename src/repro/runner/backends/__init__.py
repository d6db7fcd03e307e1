"""Executor backends for the sweep engine.

The engine (:func:`repro.runner.run_jobs`) is backend-agnostic: it
expands grids, serves cache hits, writes manifests/checkpoints/status —
and hands the pending tasks to an :class:`ExecutorBackend` to actually
run.  Two backends ship:

- :class:`SerialBackend` — in-process, deterministic, no worker processes;
- :class:`LocalPoolBackend` — forked single-job worker processes, each
  on its own pipe, so a dead or hung worker convicts only its own job.

Both honor one contract (retries, timeouts, heartbeat events), enforced
by ``tests/runner/test_backend_conformance.py``.
"""

from .base import (
    BACKEND_AUTO,
    BACKEND_ENV,
    ExecutorBackend,
    charge_failure,
    parse_backend_spec,
    resolve_backend,
)
from .local_pool import LocalPoolBackend
from .serial import SerialBackend

__all__ = [
    "BACKEND_AUTO",
    "BACKEND_ENV",
    "ExecutorBackend",
    "LocalPoolBackend",
    "SerialBackend",
    "charge_failure",
    "parse_backend_spec",
    "resolve_backend",
]
