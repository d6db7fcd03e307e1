"""Supervised job execution: crash isolation, timeouts, bounded retries.

This is the vocabulary every executor backend
(:mod:`repro.runner.backends`) shares underneath
:func:`repro.runner.run_jobs`.  Together they turn the events that would
otherwise abort a sweep into *data*:

- a worker exception becomes a structured failure result (error string +
  traceback) through :func:`guard`, and the sweep continues;
- a worker process that dies outright (``os._exit``, OOM kill, segfault)
  convicts the one job it was running — each worker holds a single job,
  so no innocent sibling is charged, rerun, or disturbed;
- a job that exceeds ``RetryPolicy.timeout_s`` has its worker killed and
  is recorded with status ``"timeout"``;
- every failed attempt with retry budget left is rescheduled after a
  *deterministic* exponential backoff (seeded jitter, no wall-clock
  randomness) and counted on the ``chaos.runner.retries`` obs counter.

Retries rerun the identical payload — same figure, same seed, same
params — so backoff can never perturb simulation results; only wall
time and the ``attempts`` field change.
"""

from __future__ import annotations

import hashlib
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable

#: Obs counter incremented (with a ``figure`` label) on every retry.
RETRIES_COUNTER = "chaos.runner.retries"

#: Job statuses recorded in the manifest (see ``JobRecord.status``).
STATUS_OK = "ok"
STATUS_FAILED = "failed"
STATUS_TIMEOUT = "timeout"
STATUS_CACHED = "cached"

#: Statuses that carry usable rows; anything else is a failure.
OK_STATUSES = (STATUS_OK, STATUS_CACHED)


@dataclass(frozen=True)
class RetryPolicy:
    """Timeout, retry budget, and deterministic backoff for one sweep.

    ``retries`` is the number of *additional* attempts after the first
    (``retries=2`` → at most 3 executions).  Backoff after attempt *n*
    is ``backoff_base_s * backoff_factor**(n-1)``, scaled by a jitter in
    ``[0.5, 1.5)`` derived from ``sha256(seed, job key, attempt)`` — the
    same sweep retries on the same schedule every run, with no
    wall-clock randomness to make campaign fingerprints flaky.
    """

    retries: int = 0
    timeout_s: float | None = None
    backoff_base_s: float = 0.05
    backoff_factor: float = 2.0
    backoff_max_s: float = 5.0
    seed: int = 0

    def backoff_s(self, key: str, attempt: int) -> float:
        """Delay before re-running ``key`` after failed attempt ``attempt``."""
        base = self.backoff_base_s * self.backoff_factor ** max(attempt - 1, 0)
        digest = hashlib.sha256(
            f"{self.seed}:{key}:{attempt}".encode("utf-8")
        ).digest()
        jitter = 0.5 + int.from_bytes(digest[:8], "big") / 2**64
        return min(base * jitter, self.backoff_max_s)


@dataclass(eq=False)
class Task:
    """One supervised unit of work: a pickled payload plus retry state."""

    index: int
    payload: Any
    key: str
    figure: str
    #: Attempts charged against the retry budget (an uncharged
    #: re-dispatch after a worker died idle is not counted).
    attempts: int = 0
    started_at: float = field(default=0.0, repr=False)

    def trace_fields(self) -> dict[str, Any]:
        """The job fields of this task's attempt-level trace events."""
        return {"job": self.index, "figure": self.figure,
                "attempt": self.attempts}


def guard(compute: Callable[[Any], tuple[int, dict]], payload: Any):
    """Run ``compute`` in a worker, converting exceptions to failure dicts.

    Keeping the try/except *inside* the worker means a worker that never
    answers can only mean the worker process itself died — which is
    exactly the classification the supervisor needs.  ``KeyboardInterrupt`` is
    re-raised so Ctrl-C still stops the workers promptly.
    """
    start = time.perf_counter()
    try:
        return compute(payload)
    except KeyboardInterrupt:
        raise
    except BaseException as exc:  # noqa: BLE001 - isolation is the point
        return payload[0], {
            "error": f"{type(exc).__name__}: {exc}",
            "traceback": traceback.format_exc(),
            "wall_time_s": time.perf_counter() - start,
        }

