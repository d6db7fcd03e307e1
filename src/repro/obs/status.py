"""Live sweep telemetry: a heartbeated, machine-readable ``status.json``.

A multi-hour ``repro all`` used to be a black box between per-job progress
lines.  ``run_jobs(status_path=...)`` keeps one small file that anything
on the same filesystem can watch, without touching workers, cache keys,
or results.  The file is a projection of the sweep's control-plane fold
(:class:`repro.obs.sweeptrace.SweepTrace`): it is rewritten, atomically
and best-effort, after every ``sweep_start``, ``attempt_start``,
``retry_scheduled``, ``job_end`` and ``sweep_end`` event.  The JSON
schema (``repro.obs/status/v1``)::

    {
      "schema": "repro.obs/status/v1",
      "pid": 12345,
      "state": "running",          // "running" | "done" | "degraded"
      "total": 20,                 // jobs in the sweep
      "done": 12,                  // completed (any status)
      "ok": 9,
      "cached": 2,
      "failed": 1,                 // failed/timeout so far
      "retries": 3,                // retry attempts charged so far
      "workers": 4,                // of the backend that runs the sweep
      "backend": "local-pool",     // that backend's name
      "current": ["fig5 seed=3 cycles=200"],  // cells in flight right now
      "elapsed_s": 81.4,
      "eta_s": 42.0,               // null until a computed job finishes
      "updated_at": 1754476800.0,  // unix time of this heartbeat
      "last_error": "fig6 seed=1: ValueError: ..."   // or null
    }

The ETA is remaining jobs × mean successful attempt wall ÷ workers.
Readers use :func:`resolve_status_path` (accepts the file or the sweep's
run directory) and :func:`format_status` (the one-line rendering shared
by the in-terminal progress line and ``repro obs tail``).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Any

STATUS_SCHEMA = "repro.obs/status/v1"

#: Conventional file name inside a sweep's run directory.
STATUS_FILENAME = "status.json"

STATE_RUNNING = "running"
STATE_DONE = "done"
STATE_DEGRADED = "degraded"


def snapshot(timeline: Any) -> dict[str, Any]:
    """The status payload of a :class:`~repro.obs.sweeptrace.SweepTimeline`."""
    if not timeline.ended:
        state = STATE_RUNNING
    else:
        state = STATE_DEGRADED if timeline.failed else STATE_DONE
    eta = timeline.eta_s()
    return {
        "schema": STATUS_SCHEMA,
        "pid": os.getpid(),
        "state": state,
        "total": timeline.total,
        "done": timeline.done,
        "ok": timeline.ok,
        "cached": timeline.cached,
        "failed": timeline.failed,
        "retries": timeline.retries,
        "workers": max(timeline.workers, 1),
        "backend": timeline.backend,
        "current": [timeline.job_label(j) for j in sorted(timeline.running)],
        "elapsed_s": round(time.time() - timeline.t0, 3),
        "eta_s": round(eta, 3) if eta is not None else None,
        "updated_at": time.time(),
        "last_error": timeline.last_error,
    }


def write_status(path: Path, timeline: Any) -> bool:
    """Atomically rewrite ``path`` from ``timeline``; ``False`` on I/O
    failure (a full disk or vanished directory must not fail a sweep)."""
    tmp = path.with_name(f".{path.name}.tmp.{os.getpid()}")
    try:
        tmp.write_text(json.dumps(snapshot(timeline), indent=2) + "\n")
        os.replace(tmp, path)
    except OSError:
        return False
    return True


# -- reader side -----------------------------------------------------------


def resolve_status_path(target: Path | str) -> Path:
    """Resolve a status file from a path or a sweep run directory.

    Raises a friendly :class:`ValueError` (not a traceback) when nothing
    is there yet — e.g. ``repro obs tail`` pointed at a sweep that has not
    started, or at the wrong directory.
    """
    target = Path(target)
    candidate = target / STATUS_FILENAME if target.is_dir() else target
    if not candidate.exists():
        where = target if target.is_dir() else candidate.parent
        raise ValueError(
            f"no status file at {candidate}; point 'repro obs tail' at the "
            f"sweep's run directory (the one holding {STATUS_FILENAME}, "
            f"next to manifest.json) or start the sweep with --status. "
            f"Looked in: {where}"
        )
    return candidate


def load_status(path: Path | str) -> dict[str, Any]:
    """Read and validate one status snapshot."""
    payload = json.loads(Path(path).read_text())
    if payload.get("schema") != STATUS_SCHEMA:
        raise ValueError(
            f"{path} is not a sweep status file "
            f"(schema {payload.get('schema')!r}, expected {STATUS_SCHEMA})"
        )
    return payload


def _format_eta(eta: float | None) -> str:
    if eta is None:
        return ""
    if eta >= 90:
        return f" eta ~{eta / 60:.0f}m"
    return f" eta ~{eta:.0f}s"


def format_status(status: dict[str, Any]) -> str:
    """One-line human rendering, shared by progress lines and ``tail``."""
    parts = [
        f"[{status.get('done', 0)}/{status.get('total', 0)}]",
        f"ok={status.get('ok', 0)}",
        f"cached={status.get('cached', 0)}",
        f"failed={status.get('failed', 0)}",
    ]
    if status.get("retries"):
        parts.append(f"retries={status['retries']}")
    line = " ".join(parts)
    state = status.get("state", STATE_RUNNING)
    if state == STATE_RUNNING:
        current = status.get("current") or []
        if current:
            shown = ", ".join(current[:2])
            if len(current) > 2:
                shown += f", +{len(current) - 2} more"
            line += f" | running: {shown}"
        line += _format_eta(status.get("eta_s"))
    else:
        line += f" | {state} in {status.get('elapsed_s', 0):.1f}s"
    return line
