"""The process backend: forked single-job workers, one pipe each.

``LocalPoolBackend`` forks ``min(workers, runnable)`` children — with
the ``fork`` start method where available, so they inherit the parent's
figure registry, including specs registered at runtime by tests or
plugins.  Each child owns one :func:`multiprocessing.Pipe` and runs one
job at a time through :func:`~repro.runner.supervisor.guard`, which turns
a raising figure into a failure dict *inside* the child.  The parent
waits on every pipe and process sentinel at once with
:func:`multiprocessing.connection.wait` — no helper threads — so fault
attribution is direct:

- a child that dies mid-job convicts that job: it was the only job the
  child held, so there is no one else to suspect, and siblings keep
  running undisturbed;
- a job past ``RetryPolicy.timeout_s`` has its child killed; siblings
  keep running;
- failed attempts are retried through
  :func:`~repro.runner.backends.base.charge_failure`, like every backend.

Two deaths are *not* a job's fault: a child found dead when a job is
written to its pipe (the job is re-dispatched uncharged), and a child
that dies idle.  Each counts as a strike against a child that never
finished a job; :data:`_MAX_SPAWN_STRIKES` in a row abort the sweep
rather than respawn forever.
"""

from __future__ import annotations

import heapq
import itertools
import multiprocessing
import os
import time
from dataclasses import dataclass
from multiprocessing.connection import Connection, wait
from multiprocessing.process import BaseProcess
from typing import Any, Callable, Sequence

from ..supervisor import (
    STATUS_FAILED,
    STATUS_TIMEOUT,
    RetryPolicy,
    Task,
    guard,
)
from .base import charge_failure

#: Consecutive deaths of never-productive children, each one no job
#: explains, that abort the sweep instead of respawning forever.
_MAX_SPAWN_STRIKES = 5

#: Grace period for an idle child to exit after its shutdown message.
_SHUTDOWN_GRACE_S = 2.0


def _fork_context():
    """The ``fork`` context where available, else the platform default."""
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def _child_main(
    conn: Connection,
    inherited: Sequence[Connection],
    compute: Callable[[Any], tuple[int, dict]],
) -> None:
    """Worker loop: run each payload received on ``conn`` through ``guard``.

    ``inherited`` are parent-side pipe ends this child got a copy of by
    forking; closing them lets every child see EOF once the parent goes.
    ``None`` (or EOF) ends the loop.
    """
    for other in inherited:
        other.close()
    try:
        while True:
            payload = conn.recv()
            if payload is None:
                return
            conn.send(guard(compute, payload))
    except (EOFError, KeyboardInterrupt):
        return


@dataclass(eq=False)
class _Child:
    id: int
    proc: BaseProcess
    conn: Connection
    task: Task | None = None
    #: Jobs this child has finished (strike accounting).
    completed: int = 0


class LocalPoolBackend:
    """Execute tasks on forked single-job children (see module docstring)."""

    name = "local-pool"

    def __init__(self, workers: int | None = None) -> None:
        self.workers = max(workers or os.cpu_count() or 1, 1)

    def run(
        self,
        tasks: Sequence[Task],
        compute: Callable[[Any], tuple[int, dict]],
        policy: RetryPolicy,
        finish: Callable[[int, dict], None],
        on_event: Callable[..., None] | None = None,
    ) -> None:
        context = _fork_context()
        pending: list[Task] = list(tasks)
        sleeping: list[tuple[float, int, Task]] = []  # (due, tiebreak, task)
        tick = itertools.count()
        ids = itertools.count()
        children: dict[int, _Child] = {}
        strikes = 0

        def emit(ev: str, **fields: Any) -> None:
            if on_event is not None:
                on_event(ev, **fields)

        def spawn() -> None:
            conn, child_end = context.Pipe()
            inherited = [conn] + [c.conn for c in children.values()]
            proc = context.Process(
                target=_child_main, args=(child_end, inherited, compute)
            )
            proc.start()
            child_end.close()
            child = _Child(id=next(ids), proc=proc, conn=conn)
            children[child.id] = child
            emit("worker_spawn", worker=child.id, pid=proc.pid)
            emit("worker_ready", worker=child.id)

        def reap(child: _Child, grace_s: float = 0.0) -> None:
            del children[child.id]
            child.conn.close()
            child.proc.join(grace_s)
            if child.proc.exitcode is None:
                child.proc.kill()
                child.proc.join()
            child.proc.close()

        def reschedule(task: Task, delay_s: float) -> None:
            heapq.heappush(
                sleeping, (time.monotonic() + delay_s, next(tick), task)
            )

        def fail(task: Task, result: dict, status: str) -> None:
            result.setdefault(
                "wall_time_s", time.monotonic() - task.started_at
            )
            charge_failure(
                task, result, status, policy, finish, on_event, reschedule
            )

        def lost(child: _Child, reason: str) -> None:
            """``child`` died: convict its job, or strike if it had none."""
            nonlocal strikes
            task, child.task = child.task, None
            if task is not None:
                fail(
                    task,
                    {"error": "worker process died before returning a "
                              "result (killed, crashed, or exited)"},
                    STATUS_FAILED,
                )
            elif child.completed == 0:
                strikes += 1
                if strikes >= _MAX_SPAWN_STRIKES:
                    raise RuntimeError(
                        "worker processes keep dying before completing a "
                        "job; check stderr for the cause"
                    )
            emit("worker_dead", worker=child.id, reason=reason)
            reap(child)

        def dispatch(child: _Child, task: Task) -> None:
            task.attempts += 1
            task.started_at = time.monotonic()
            if on_event is not None:
                on_event(
                    "attempt_start", **task.trace_fields(), worker=child.id
                )
            try:
                child.conn.send(task.payload)
            except OSError:
                # The child died while idle — not this task's doing.
                # Uncharge it and let the loop respawn.
                if on_event is not None:
                    on_event(
                        "attempt_end", **task.trace_fields(),
                        outcome="preempted",
                    )
                task.attempts -= 1
                pending.insert(0, task)
                lost(child, "dead pipe")
                return
            child.task = task

        def settle(child: _Child) -> None:
            """Collect a finished result from ``child``, or bury it."""
            nonlocal strikes
            task = child.task
            if task is not None and child.conn.poll():
                try:
                    index, result = child.conn.recv()
                except (EOFError, OSError):
                    lost(child, "process exit")
                    return
                child.task = None
                child.completed += 1
                strikes = 0
                if "error" in result:
                    fail(task, result, STATUS_FAILED)
                else:
                    result["attempts"] = task.attempts
                    finish(index, result)
            if child.proc.exitcode is not None:
                lost(child, "process exit")

        try:
            while pending or sleeping or any(
                c.task is not None for c in children.values()
            ):
                now = time.monotonic()
                while sleeping and sleeping[0][0] <= now:
                    pending.append(heapq.heappop(sleeping)[2])

                busy = sum(c.task is not None for c in children.values())
                while len(children) < min(self.workers, len(pending) + busy):
                    spawn()
                for child in list(children.values()):
                    if pending and child.task is None:
                        dispatch(child, pending.pop(0))

                busy_children = [
                    c for c in children.values() if c.task is not None
                ]
                if not busy_children:
                    if pending:
                        continue  # a pipe died mid-dispatch; respawn
                    # Everything is in backoff: sleep until the first is
                    # due.
                    time.sleep(max(sleeping[0][0] - time.monotonic(), 0.0))
                    continue

                wait_s: float | None = None
                if policy.timeout_s is not None:
                    oldest = min(c.task.started_at for c in busy_children)
                    wait_s = max(oldest + policy.timeout_s - now, 0.01)
                if sleeping:
                    until_due = max(sleeping[0][0] - now, 0.01)
                    wait_s = (
                        until_due if wait_s is None else min(wait_s, until_due)
                    )
                owners: dict[Any, _Child] = {
                    c.proc.sentinel: c for c in children.values()
                }
                owners.update((c.conn, c) for c in busy_children)
                for ready in wait(list(owners), timeout=wait_s):
                    child = owners[ready]
                    if child.id in children:
                        settle(child)

                if policy.timeout_s is not None:
                    now = time.monotonic()
                    for child in list(children.values()):
                        task = child.task
                        if (
                            task is None
                            or now - task.started_at < policy.timeout_s
                        ):
                            continue
                        # Only the offender's child is killed; siblings
                        # keep running.
                        child.task = None
                        emit(
                            "worker_dead", worker=child.id,
                            reason="timeout kill",
                        )
                        reap(child)
                        fail(
                            task,
                            {"error": f"job exceeded timeout of "
                                      f"{policy.timeout_s:g}s"},
                            STATUS_TIMEOUT,
                        )
        finally:
            for child in list(children.values()):
                if child.task is None:
                    try:
                        child.conn.send(None)
                    except OSError:
                        pass
            for child in list(children.values()):
                reap(
                    child,
                    grace_s=_SHUTDOWN_GRACE_S if child.task is None else 0.0,
                )
