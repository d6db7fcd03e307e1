"""The executor-backend contract and the ``--backend`` spec grammar.

An :class:`ExecutorBackend` is the thing :func:`repro.runner.run_jobs`
hands its pending tasks to.  The engine owns everything backend-agnostic
— grid expansion, cache lookups, manifest records, checkpointing, status
heartbeats — and the backend owns exactly one job: *execute these tasks
under this retry policy and call ``finish`` exactly once per task*.

The contract every backend (and any future SSH / work-queue backend)
must honor — enforced by ``tests/runner/test_backend_conformance.py``:

- ``finish(index, result)`` is called exactly once per task, from the
  supervising process.  ``result`` is the worker's success dict, or a
  failure dict with ``status`` (``"failed"``/``"timeout"``), ``error``,
  optionally ``traceback``, and ``attempts``.
- a raising figure becomes a ``failed`` result, never an exception out
  of :meth:`ExecutorBackend.run`;
- a failed attempt with retry budget left is retried after the
  deterministic :meth:`RetryPolicy.backoff_s` delay, counted on the
  ``chaos.runner.retries`` obs counter, with a ``retry_scheduled``
  event — and the retry reruns the *identical* payload;
- an ``attempt_start`` event fires before every execution attempt;
- a sibling's crash or timeout never charges, reruns, or disturbs an
  innocent job.

Backend specs (CLI ``--backend`` / env ``REPRO_BACKEND``) are
``name[:workers]``::

    serial            # in-process, deterministic, no worker processes
    local-pool        # forked single-job workers, one per CPU
    local-pool:8      # ... with an explicit worker count
"""

from __future__ import annotations

import os
from typing import Any, Callable, Protocol, Sequence, runtime_checkable

from ... import obs
from ..supervisor import (
    RETRIES_COUNTER,
    RetryPolicy,
    Task,
)

#: Environment variable supplying the default backend spec.
BACKEND_ENV = "REPRO_BACKEND"

#: Spec name resolved by the engine's own heuristic (serial for tiny
#: sweeps without timeouts, the local pool otherwise).
BACKEND_AUTO = "auto"


@runtime_checkable
class ExecutorBackend(Protocol):
    """What the engine requires of an executor backend."""

    #: Short name recorded on every job's manifest record.
    name: str

    #: Parallelism the backend offers (recorded in manifest/status).
    workers: int

    def run(
        self,
        tasks: Sequence[Task],
        compute: Callable[[Any], tuple[int, dict]],
        policy: RetryPolicy,
        finish: Callable[[int, dict], None],
        on_event: Callable[..., None] | None = None,
    ) -> None:
        """Execute ``tasks``, calling ``finish`` exactly once per task.

        ``on_event(ev, **fields)`` is the engine's lifecycle channel,
        spoken in the sweep-trace vocabulary (:mod:`repro.obs.sweeptrace`);
        attempt-level events carry :meth:`Task.trace_fields`.  Events
        every backend emits: ``attempt_start`` (before each attempt),
        and, via :func:`charge_failure`, ``attempt_end`` (``outcome``,
        ``wall_s``, ``error``) and ``retry_scheduled`` (``delay_s``) —
        plus ``attempt_end`` with ``outcome="preempted"`` for an
        uncharged re-dispatch.  The local pool additionally tags
        ``attempt_start`` with ``worker=id`` and emits worker-lifecycle
        events (``worker_spawn``/``worker_ready``/``worker_dead``).
        """
        ...


def charge_failure(
    task: Task,
    result: dict,
    status: str,
    policy: RetryPolicy,
    finish: Callable[..., None],
    on_event: Callable[..., None] | None,
    reschedule: Callable[[Task, float], None],
) -> None:
    """Shared retry bookkeeping: reschedule with backoff, or finalize.

    Increment the retry counter, emit ``retry_scheduled``, and hand the
    backend a backend-specific ``reschedule(task, delay_s)`` — one
    implementation, so the backends cannot drift apart.

    Every charged attempt closes with an ``attempt_end`` event carrying
    the outcome, so the sweep trace sees failed and timed-out attempts
    exactly like successful ones.
    """
    if on_event is not None:
        on_event(
            "attempt_end", **task.trace_fields(), outcome=status,
            wall_s=result.get("wall_time_s"), error=result.get("error"),
        )
    if task.attempts <= policy.retries:
        obs.get_registry().counter(
            RETRIES_COUNTER, figure=task.figure
        ).inc()
        delay_s = policy.backoff_s(task.key, task.attempts)
        if on_event is not None:
            on_event(
                "retry_scheduled", **task.trace_fields(), delay_s=delay_s
            )
        reschedule(task, delay_s)
        return
    result["status"] = status
    result["attempts"] = task.attempts
    finish(task.index, result)


def parse_backend_spec(spec: str) -> tuple[str, int | None]:
    """Split ``"name[:workers]"`` into its parts, validating the shape."""
    text = (spec or "").strip()
    name, _, workers_text = text.partition(":")
    name = name.strip().lower()
    if not name:
        raise ValueError(
            f"empty backend spec {spec!r}; expected NAME[:WORKERS], e.g. "
            f"'serial', 'local-pool', 'local-pool:2'"
        )
    if not workers_text:
        return name, None
    try:
        workers = int(workers_text)
    except ValueError:
        raise ValueError(
            f"bad worker count {workers_text!r} in backend spec {spec!r}; "
            f"expected NAME[:WORKERS], e.g. 'local-pool:2'"
        ) from None
    if workers < 1:
        raise ValueError(
            f"backend spec {spec!r} needs at least 1 worker"
        )
    return name, workers


def resolve_backend(
    spec: "str | ExecutorBackend | None",
    *,
    workers: int | None = None,
    env: "os._Environ[str] | dict[str, str] | None" = None,
) -> "ExecutorBackend | None":
    """Turn a ``--backend`` spec (or :data:`BACKEND_ENV`) into a backend.

    ``spec`` may already be an :class:`ExecutorBackend` instance (passed
    through unchanged), a spec string, or ``None`` — in which case the
    environment is consulted and, failing that, ``None`` is returned so
    the engine applies its auto heuristic.  ``workers`` is the
    engine's ``--jobs`` value; an explicit ``:N`` in the spec wins.
    """
    if spec is not None and not isinstance(spec, str):
        return spec
    if spec is None:
        spec = (env if env is not None else os.environ).get(BACKEND_ENV)
        if not spec:
            return None
    name, spec_workers = parse_backend_spec(spec)
    count = spec_workers or workers
    if name == BACKEND_AUTO:
        return None
    if name == "serial":
        from .serial import SerialBackend

        return SerialBackend()
    if name in ("local-pool", "local_pool", "pool"):
        from .local_pool import LocalPoolBackend

        return LocalPoolBackend(workers=count)
    raise ValueError(
        f"unknown backend {name!r}; available: serial, local-pool[:N] "
        f"(or 'auto')"
    )
