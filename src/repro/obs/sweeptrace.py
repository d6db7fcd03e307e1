"""End-to-end sweep tracing: the control plane's own distributed trace.

Sweep execution spans processes (engine → executor backend → forked
worker processes), yet without a trace a job is a single
``wall_time_s`` in the manifest and nothing explains where a sweep's
wall time actually went.  This module is the
knowledge plane over that control plane:

- the engine mints a run-level **trace id** (a digest of the sorted job
  keys — the same grid gets the same trace on every replay) and one
  **span id** per job cell;
- every backend emits structured lifecycle events through the engine's
  ``on_event`` channel — ``submitted``, ``queued``, ``attempt_start``,
  ``attempt_end`` (with outcome), ``retry_scheduled``,
  ``worker_spawn``/``worker_ready``/``worker_dead``, ``checkpoint``,
  ``cache_hit`` — which a :class:`SweepTraceRecorder` appends to
  ``sweep.events.jsonl`` (schema :data:`SWEEPTRACE_SCHEMA`) next to the
  manifest;
- each job payload carries the span context, so the child-side
  ``runner.job`` Chrome spans are correlated with the engine's job spans
  by span id;
- :func:`build_timeline` + :func:`critical_path` reconstruct the sweep
  and compute its **critical path**: a gap-free tiling of the sweep's
  wall-clock interval into ``compute`` / ``queue`` / ``spawn`` /
  ``retry`` / ``checkpoint`` / ``idle`` segments (they sum to the total
  wall time *exactly*, by construction);
- :func:`merge_chrome` folds the engine events and the per-job child
  traces into one cross-process Chrome trace — one track per backend
  slot / worker — loadable in Perfetto;
- :func:`format_timeline` renders the terminal Gantt + critical-path
  listing behind ``repro obs timeline RUN_DIR``.

Determinism: event *content* is a pure function of the grid and the
retry schedule — ids are digests, ordering follows the engine's
deterministic dispatch — so two replays of the same ``(grid, seed)``
produce byte-identical files modulo the volatile timing fields
(:data:`VOLATILE_KEYS`, compare with :func:`canonical_lines`).  The
writer is best-effort exactly like the status heartbeat: a full disk
never takes the sweep down, and results are byte-identical with tracing
on or off.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, TextIO

SWEEPTRACE_SCHEMA = "repro.obs/sweeptrace/v1"

#: Conventional file name inside a sweep's run directory.
EVENTS_FILENAME = "sweep.events.jsonl"

#: Top-level event fields that vary between replays (wall-clock stamps,
#: measured durations, process ids, timing-laden error text).  Everything
#: else is replay-stable; see :func:`canonical_lines`.
VOLATILE_KEYS = frozenset(
    {"ts", "dur_s", "wall_s", "delay_s", "pid", "error"}
)

#: Phase names :func:`phase_breakdown` reports, in display order.
PHASES = ("compute", "queue", "spawn", "retry", "checkpoint", "idle")

_EPS = 1e-9


# -- deterministic ids ------------------------------------------------------


def sweep_trace_id(keys: Iterable[str]) -> str:
    """Run-level trace id: a digest of the sorted job cache keys.

    Depends only on *what* the sweep computes — the same grid yields the
    same trace id on every replay, machine, and backend.
    """
    digest = hashlib.blake2s(
        "\n".join(sorted(keys)).encode("utf-8"), digest_size=8
    )
    return digest.hexdigest()


def job_span_id(trace: str, key: str) -> str:
    """Per-job span id, derived from the trace id and the job's key."""
    digest = hashlib.blake2s(
        f"{trace}/{key}".encode("utf-8"), digest_size=8
    )
    return digest.hexdigest()


# -- writer -----------------------------------------------------------------


class SweepTraceWriter:
    """Append-only JSONL event sink; best-effort like the status file."""

    def __init__(self, path: Path | str) -> None:
        self.path = Path(path)
        self._handle: TextIO | None = None
        self._broken = False
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = open(self.path, "w", encoding="utf-8")
        except OSError:
            self._broken = True

    def emit(self, ev: str, **fields: Any) -> None:
        """Append one event line; ``None`` fields are omitted."""
        if self._broken or self._handle is None:
            return
        record: dict[str, Any] = {"ev": ev, "ts": round(time.time(), 6)}
        record.update((k, v) for k, v in fields.items() if v is not None)
        try:
            self._handle.write(
                json.dumps(record, sort_keys=True, separators=(",", ":"))
            )
            self._handle.write("\n")
            self._handle.flush()
        except (OSError, ValueError):
            # Telemetry is best-effort: a full disk or a closed handle
            # mid-sweep must never fail the sweep itself.
            self._broken = True

    def close(self) -> None:
        if self._handle is not None:
            try:
                self._handle.close()
            except OSError:
                pass
            self._handle = None


class SweepTraceRecorder:
    """Engine-side recorder: turns ``on_event`` traffic into trace events
    plus per-job timing aggregates for the manifest.

    Owned by :func:`repro.runner.run_jobs`; one per sweep.  All clocks
    are the supervising process's wall clock — job payloads, cache keys,
    and results are byte-identical with or without a recorder.
    """

    def __init__(
        self,
        path: Path | str,
        keys: Iterable[str],
        total: int,
        workers: int,
    ) -> None:
        keys = list(keys)
        self.trace = sweep_trace_id(keys)
        self._spans = {
            index: job_span_id(self.trace, key)
            for index, key in enumerate(keys)
        }
        self._keys = list(keys)
        self._writer = SweepTraceWriter(path)
        self._started = time.time()
        #: index -> (figure, seed) labels for task-less event emission.
        self._labels: dict[int, tuple[str, int]] = {}
        self._submitted: dict[int, float] = {}
        self._first_start: dict[int, float] = {}
        self._open_attempts: dict[int, tuple[int, float]] = {}
        self._attempt_log: dict[int, list[dict[str, Any]]] = {}
        self._writer.emit(
            "sweep_start",
            schema=SWEEPTRACE_SCHEMA,
            trace=self.trace,
            total=total,
            workers=workers,
        )

    def span_for(self, index: int) -> str:
        return self._spans[index]

    def span_context(self, index: int) -> dict[str, str]:
        """The ``{"trace", "span"}`` dict a job payload carries into the
        worker process so child-side spans correlate."""
        return {"trace": self.trace, "span": self._spans[index]}

    # -- engine hooks ------------------------------------------------------

    def job_submitted(
        self, index: int, figure: str, seed: int, position: int
    ) -> None:
        now = time.time()
        self._labels[index] = (figure, seed)
        self._submitted[index] = now
        self._writer.emit(
            "submitted",
            span=self._spans[index],
            job=index,
            figure=figure,
            seed=seed,
            key=self._keys[index],
        )
        self._writer.emit(
            "queued", span=self._spans[index], job=index, position=position
        )

    def cache_hit(
        self, index: int, figure: str, seed: int, wall_s: float
    ) -> None:
        self._labels[index] = (figure, seed)
        self._writer.emit(
            "cache_hit",
            span=self._spans[index],
            job=index,
            figure=figure,
            seed=seed,
            wall_s=round(wall_s, 6),
        )

    def checkpoint(self, done: int, dur_s: float) -> None:
        self._writer.emit("checkpoint", done=done, dur_s=round(dur_s, 6))

    def handle(self, kind: str, task: Any, info: Any = None) -> None:
        """Dispatch one ``on_event`` emission from a backend."""
        info = info if isinstance(info, dict) else {}
        if task is None and kind in ("start", "retry", "attempt_end"):
            return  # job-level events need a task to attribute to
        if kind == "start":
            self._attempt_start(
                task.index, task.attempts, worker=info.get("worker")
            )
        elif kind == "retry":
            self._writer.emit(
                "retry_scheduled",
                span=self._spans.get(task.index),
                job=task.index,
                figure=task.figure,
                attempt=task.attempts,
                delay_s=info.get("delay_s"),
            )
        elif kind == "attempt_end":
            self.attempt_end(
                task.index,
                outcome=info.get("outcome", "failed"),
                wall_s=info.get("wall_s"),
                pid=info.get("pid"),
                error=info.get("error"),
            )
        elif kind in ("worker_spawn", "worker_ready", "worker_dead"):
            self._writer.emit(
                kind,
                worker=info.get("worker"),
                pid=info.get("pid"),
                reason=info.get("reason"),
            )

    def _attempt_start(
        self, index: int, attempt: int, worker: int | None = None
    ) -> None:
        now = time.time()
        self._first_start.setdefault(index, now)
        self._open_attempts[index] = (attempt, now)
        figure, _ = self._labels.get(index, ("?", 0))
        self._writer.emit(
            "attempt_start",
            span=self._spans.get(index),
            job=index,
            figure=figure,
            attempt=attempt,
            worker=worker,
        )

    def attempt_end(
        self,
        index: int,
        outcome: str,
        wall_s: float | None = None,
        pid: int | None = None,
        error: str | None = None,
    ) -> None:
        now = time.time()
        attempt, opened = self._open_attempts.pop(index, (1, now))
        if wall_s is None:
            wall_s = max(now - opened, 0.0)
        figure, _ = self._labels.get(index, ("?", 0))
        self._attempt_log.setdefault(index, []).append(
            {
                "attempt": attempt,
                "outcome": outcome,
                "start_s": round(opened - self._started, 6),
                "wall_s": round(wall_s, 6),
            }
        )
        self._writer.emit(
            "attempt_end",
            span=self._spans.get(index),
            job=index,
            figure=figure,
            attempt=attempt,
            outcome=outcome,
            wall_s=round(wall_s, 6),
            pid=pid,
            error=error,
        )

    def timings_for(self, index: int) -> dict[str, Any]:
        """Per-job ``queue_s``/``compute_s``/``attempt_timings`` for the
        manifest record (tolerant-read additive fields)."""
        log = self._attempt_log.get(index, [])
        queue_s = None
        if index in self._submitted and index in self._first_start:
            queue_s = max(
                self._first_start[index] - self._submitted[index], 0.0
            )
        return {
            "queue_s": round(queue_s, 6) if queue_s is not None else None,
            "compute_s": round(sum(a["wall_s"] for a in log), 6)
            if log
            else None,
            "attempt_timings": log or None,
        }

    def finalize(
        self, wall_s: float, ok: int, failed: int, cached: int,
        backend: str | None = None,
    ) -> None:
        self._writer.emit(
            "sweep_end",
            trace=self.trace,
            backend=backend,
            ok=ok,
            failed=failed,
            cached=cached,
            wall_s=round(wall_s, 6),
        )
        self._writer.close()


# -- loading ----------------------------------------------------------------


def resolve_events_path(target: Path | str) -> Path:
    """Resolve an events file from a path or a sweep run directory."""
    target = Path(target)
    candidate = target / EVENTS_FILENAME if target.is_dir() else target
    if not candidate.exists():
        where = target if target.is_dir() else candidate.parent
        raise ValueError(
            f"no sweep trace at {candidate}; run the sweep with "
            f"--sweeptrace (writes {EVENTS_FILENAME} next to the "
            f"manifest) and point 'repro obs timeline' at the run "
            f"directory. Looked in: {where}"
        )
    return candidate


def load_events(path: Path | str) -> list[dict[str, Any]]:
    """Read one events file; skips blank and truncated trailing lines."""
    events: list[dict[str, Any]] = []
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            event = json.loads(line)
        except ValueError:
            continue  # a crash mid-write can truncate the last line
        if isinstance(event, dict) and "ev" in event:
            events.append(event)
    return events


def canonical_lines(path: Path | str) -> list[str]:
    """Events re-serialized without the volatile timing fields.

    Two replays of the same ``(grid, seed)`` sweep compare equal on
    these lines — the byte-stability contract of the schema.
    """
    out = []
    for event in load_events(path):
        stable = {k: v for k, v in event.items() if k not in VOLATILE_KEYS}
        out.append(json.dumps(stable, sort_keys=True, separators=(",", ":")))
    return out


# -- timeline model ---------------------------------------------------------


@dataclass
class AttemptSpan:
    """One execution attempt reconstructed from start/end events."""

    job: int
    figure: str
    attempt: int
    start: float
    end: float
    outcome: str
    worker: int | None = None
    span: str | None = None
    pid: int | None = None

    @property
    def dur(self) -> float:
        return max(self.end - self.start, 0.0)


@dataclass
class JobTrack:
    job: int
    figure: str
    seed: int | None = None
    span: str | None = None
    key: str | None = None
    submitted: float | None = None
    cached: bool = False


@dataclass
class WorkerTrack:
    worker: int
    pid: int | None = None
    spawned: float | None = None
    ready: float | None = None
    died: float | None = None


@dataclass
class SweepTimeline:
    """A sweep reconstructed from its ``sweep.events.jsonl``."""

    trace: str = ""
    total: int = 0
    workers: int = 1
    backend: str | None = None
    t0: float = 0.0
    t1: float = 0.0
    ok: int = 0
    failed: int = 0
    cached: int = 0
    jobs: dict[int, JobTrack] = field(default_factory=dict)
    attempts: list[AttemptSpan] = field(default_factory=list)
    #: ``(start, end)`` manifest-checkpoint write windows.
    checkpoints: list[tuple[float, float]] = field(default_factory=list)
    #: ``(job, start, end)`` cache-lookup windows.
    cache_hits: list[tuple[int, float, float]] = field(default_factory=list)
    worker_tracks: dict[int, WorkerTrack] = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        return max(self.t1 - self.t0, 0.0)

    def job_label(self, index: int) -> str:
        track = self.jobs.get(index)
        if track is None:
            return f"job {index}"
        seed = f" seed={track.seed}" if track.seed is not None else ""
        return f"{track.figure}{seed}"


def build_timeline(events: list[dict[str, Any]]) -> SweepTimeline:
    """Reconstruct the sweep timeline from its event stream."""
    tl = SweepTimeline()
    last_ts = 0.0
    saw_end = False
    for event in events:
        kind = event.get("ev")
        ts = float(event.get("ts", last_ts))
        last_ts = max(last_ts, ts)
        if kind == "sweep_start":
            tl.trace = event.get("trace", "")
            tl.total = event.get("total", 0)
            tl.workers = event.get("workers", 1)
            tl.t0 = ts
        elif kind == "submitted":
            job = int(event["job"])
            tl.jobs[job] = JobTrack(
                job=job,
                figure=event.get("figure", "?"),
                seed=event.get("seed"),
                span=event.get("span"),
                key=event.get("key"),
                submitted=ts,
            )
        elif kind == "cache_hit":
            job = int(event["job"])
            wall = float(event.get("wall_s", 0.0))
            tl.jobs[job] = JobTrack(
                job=job,
                figure=event.get("figure", "?"),
                seed=event.get("seed"),
                span=event.get("span"),
                cached=True,
            )
            tl.cache_hits.append((job, ts - wall, ts))
        elif kind == "attempt_start":
            job = int(event["job"])
            tl.attempts.append(
                AttemptSpan(
                    job=job,
                    figure=event.get("figure", "?"),
                    attempt=event.get("attempt", 1),
                    start=ts,
                    end=ts,  # patched by the matching attempt_end
                    outcome="running",
                    worker=event.get("worker"),
                    span=event.get("span"),
                )
            )
        elif kind == "attempt_end":
            job = int(event["job"])
            open_span = next(
                (
                    a
                    for a in reversed(tl.attempts)
                    if a.job == job and a.outcome == "running"
                ),
                None,
            )
            if open_span is None:
                wall = float(event.get("wall_s", 0.0))
                open_span = AttemptSpan(
                    job=job,
                    figure=event.get("figure", "?"),
                    attempt=event.get("attempt", 1),
                    start=ts - wall,
                    end=ts,
                    outcome="?",
                    span=event.get("span"),
                )
                tl.attempts.append(open_span)
            open_span.end = ts
            open_span.outcome = event.get("outcome", "?")
            open_span.pid = event.get("pid")
        elif kind == "checkpoint":
            dur = float(event.get("dur_s", 0.0))
            tl.checkpoints.append((ts - dur, ts))
        elif kind == "worker_spawn":
            tl.worker_tracks[event.get("worker", 0)] = WorkerTrack(
                worker=event.get("worker", 0),
                pid=event.get("pid"),
                spawned=ts,
            )
        elif kind == "worker_ready":
            track = tl.worker_tracks.setdefault(
                event.get("worker", 0),
                WorkerTrack(worker=event.get("worker", 0)),
            )
            track.ready = ts
        elif kind == "worker_dead":
            track = tl.worker_tracks.setdefault(
                event.get("worker", 0),
                WorkerTrack(worker=event.get("worker", 0)),
            )
            track.died = ts
        elif kind == "sweep_end":
            tl.t1 = ts
            tl.backend = event.get("backend")
            tl.ok = event.get("ok", 0)
            tl.failed = event.get("failed", 0)
            tl.cached = event.get("cached", 0)
            saw_end = True
    if not saw_end:
        tl.t1 = last_ts  # interrupted sweep: report what happened so far
    for attempt in tl.attempts:
        if attempt.outcome == "running":  # open at interruption
            attempt.end = tl.t1
            attempt.outcome = "unfinished"
    return tl


def assign_lanes(tl: SweepTimeline) -> list[int]:
    """One lane per attempt (parallel to ``tl.attempts``).

    Attempts carrying a worker id (the local pool) map onto that
    worker's lane; the rest (serial) are packed greedily onto virtual
    slot lanes by start time — the classic interval-partitioning
    assignment, deterministic given the event stream.
    """
    worker_lane: dict[int, int] = {}
    for worker in sorted(tl.worker_tracks):
        worker_lane.setdefault(worker, len(worker_lane))
    for attempt in tl.attempts:
        if attempt.worker is not None:
            worker_lane.setdefault(attempt.worker, len(worker_lane))
    lanes = [0] * len(tl.attempts)
    greedy_base = len(worker_lane)
    greedy_busy_until: list[float] = []
    order = sorted(
        range(len(tl.attempts)),
        key=lambda i: (tl.attempts[i].start, tl.attempts[i].end, i),
    )
    for i in order:
        attempt = tl.attempts[i]
        if attempt.worker is not None:
            lanes[i] = worker_lane[attempt.worker]
            continue
        for lane, busy_until in enumerate(greedy_busy_until):
            if busy_until <= attempt.start + _EPS:
                greedy_busy_until[lane] = attempt.end
                lanes[i] = greedy_base + lane
                break
        else:
            greedy_busy_until.append(attempt.end)
            lanes[i] = greedy_base + len(greedy_busy_until) - 1
    return lanes


# -- critical path ----------------------------------------------------------


@dataclass
class Segment:
    """One critical-path interval; segments tile ``[t0, t1]`` exactly."""

    kind: str  # one of PHASES
    start: float
    end: float
    detail: str = ""

    @property
    def dur(self) -> float:
        return max(self.end - self.start, 0.0)


def _gap_marks(
    tl: SweepTimeline, a: float, b: float
) -> list[tuple[float, float, str, str]]:
    """Checkpoint / spawn windows overlapping ``[a, b]``, clipped."""
    marks: list[tuple[float, float, str, str]] = []
    for start, end in tl.checkpoints:
        s, e = max(start, a), min(end, b)
        if e > s + _EPS:
            marks.append((s, e, "checkpoint", "manifest checkpoint"))
    for track in tl.worker_tracks.values():
        if track.spawned is None or track.ready is None:
            continue
        s, e = max(track.spawned, a), min(track.ready, b)
        if e > s + _EPS:
            marks.append((s, e, "spawn", f"spawn worker {track.worker}"))
    marks.sort(key=lambda m: (m[0], m[1]))
    return marks


def _classify_gap(
    tl: SweepTimeline, a: float, b: float, default: str, detail: str
) -> list[Segment]:
    """Tile ``[a, b]`` with checkpoint/spawn windows + ``default`` fill."""
    a, b = max(a, tl.t0), min(b, tl.t1)
    if b <= a + _EPS:
        return []
    out: list[Segment] = []
    cursor = a
    for start, end, kind, mark_detail in _gap_marks(tl, a, b):
        start = max(start, cursor)
        end = min(end, b)
        if end <= start + _EPS:
            continue
        if start > cursor + _EPS:
            out.append(Segment(default, cursor, start, detail))
        out.append(Segment(kind, start, end, mark_detail))
        cursor = end
    if b > cursor + _EPS:
        out.append(Segment(default, cursor, b, detail))
    return out


def critical_path(tl: SweepTimeline) -> list[Segment]:
    """The chain of segments that determined the sweep's wall time.

    Walks backwards from the last attempt to finish: its compute interval
    is on the critical path; the gap before it is explained by (in
    preference order) the previous attempt of the same job (a retry
    backoff), the previous attempt on the same execution lane (the slot
    was busy — the path continues through that attempt), or the job's
    queue wait since submission.  Checkpoint writes and worker
    spawn→ready windows overlapping a gap are carved out and attributed
    to their own phases.  The returned segments tile ``[t0, t1]`` with
    no gaps or overlaps, so the phase breakdown sums to the sweep's wall
    time exactly.
    """
    if tl.t1 <= tl.t0 + _EPS:
        return []
    if not tl.attempts:
        detail = (
            "served from cache" if tl.cache_hits else "no attempts recorded"
        )
        return _classify_gap(tl, tl.t0, tl.t1, "idle", detail)
    lanes = assign_lanes(tl)
    lane_of = {id(a): lane for a, lane in zip(tl.attempts, lanes)}
    segments: list[Segment] = []  # built back-to-front, reversed at the end

    def extend_gap(a: float, b: float, default: str, detail: str) -> None:
        segments.extend(reversed(_classify_gap(tl, a, b, default, detail)))

    cur = max(tl.attempts, key=lambda a: (a.end, a.start))
    cursor = tl.t1
    if cursor > cur.end + _EPS:
        extend_gap(cur.end, cursor, "idle", "sweep finalize")
        cursor = cur.end
    visited = {id(cur)}
    while True:
        seg_end = min(cur.end, cursor)
        seg_start = max(min(cur.start, seg_end), tl.t0)
        if seg_end > seg_start + _EPS:
            label = f"{tl.job_label(cur.job)} attempt {cur.attempt}"
            if cur.outcome not in ("ok", "running"):
                label += f" ({cur.outcome})"
            segments.append(Segment("compute", seg_start, seg_end, label))
        cursor = seg_start
        if cursor <= tl.t0 + _EPS:
            break
        predecessors = [
            a
            for a in tl.attempts
            if id(a) not in visited
            and a.end <= cursor + _EPS
            and (a.job == cur.job or lane_of[id(a)] == lane_of[id(cur)])
        ]
        if predecessors:
            pred = max(predecessors, key=lambda a: (a.end, a.job == cur.job))
            if pred.job == cur.job:
                extend_gap(
                    pred.end, cursor, "retry",
                    f"retry backoff before {tl.job_label(cur.job)} "
                    f"attempt {cur.attempt}",
                )
            else:
                extend_gap(
                    pred.end, cursor, "idle",
                    f"lane idle before {tl.job_label(cur.job)}",
                )
            cursor = min(pred.end, cursor)
            cur = pred
            visited.add(id(cur))
            continue
        # First attempt on this chain: queue wait back to submission,
        # then whatever the engine was doing before (cache service,
        # startup) back to t0.
        track = tl.jobs.get(cur.job)
        submitted = (
            track.submitted
            if track is not None and track.submitted is not None
            else tl.t0
        )
        submitted = min(max(submitted, tl.t0), cursor)
        extend_gap(
            submitted, cursor, "queue",
            f"{tl.job_label(cur.job)} waiting for dispatch",
        )
        extend_gap(tl.t0, submitted, "idle", "sweep startup")
        break
    segments.reverse()
    return segments


def phase_breakdown(segments: list[Segment]) -> dict[str, float]:
    """Seconds per phase, every :data:`PHASES` key present."""
    totals = {phase: 0.0 for phase in PHASES}
    for segment in segments:
        totals[segment.kind] = totals.get(segment.kind, 0.0) + segment.dur
    return totals


# -- rendering --------------------------------------------------------------


def _lane_names(tl: SweepTimeline, lanes: list[int]) -> dict[int, str]:
    names: dict[int, str] = {}
    worker_by_lane: dict[int, int] = {}
    worker_lane: dict[int, int] = {}
    for worker in sorted(tl.worker_tracks):
        worker_lane.setdefault(worker, len(worker_lane))
    for attempt, lane in zip(tl.attempts, lanes):
        if attempt.worker is not None:
            worker_by_lane.setdefault(lane, attempt.worker)
    for worker, lane in worker_lane.items():
        worker_by_lane.setdefault(lane, worker)
    for lane in set(lanes) | set(worker_by_lane):
        if lane in worker_by_lane:
            worker = worker_by_lane[lane]
            track = tl.worker_tracks.get(worker)
            pid = f" pid {track.pid}" if track and track.pid else ""
            names[lane] = f"worker {worker}{pid}"
        else:
            names[lane] = f"slot {lane}"
    return names


def format_timeline(
    tl: SweepTimeline,
    segments: list[Segment] | None = None,
    width: int = 60,
    max_segments: int = 24,
) -> str:
    """Terminal Gantt summary + phase table + critical-path listing."""
    if segments is None:
        segments = critical_path(tl)
    lines = [
        f"Sweep timeline — trace {tl.trace or '?'}",
        f"  jobs: {tl.total} · workers: {tl.workers}"
        + (f" · backend: {tl.backend}" if tl.backend else "")
        + f" · wall: {tl.wall_s:.2f}s",
        f"  ok: {tl.ok} · failed: {tl.failed} · cached: {tl.cached}",
        "",
    ]
    lanes = assign_lanes(tl)
    span = max(tl.wall_s, _EPS)
    if tl.attempts:
        names = _lane_names(tl, lanes)
        lines.append("Lanes ('#' compute, 'x' failed attempt, '+' spawn):")
        label_w = max(len(n) for n in names.values())
        for lane in sorted(names):
            cells = ["."] * width
            for track in tl.worker_tracks.values():
                if names.get(lane, "").startswith(f"worker {track.worker}"):
                    if track.spawned is not None and track.ready is not None:
                        lo = int((track.spawned - tl.t0) / span * width)
                        hi = int((track.ready - tl.t0) / span * width)
                        for c in range(max(lo, 0), min(hi + 1, width)):
                            cells[c] = "+"
            for attempt, lane_i in zip(tl.attempts, lanes):
                if lane_i != lane:
                    continue
                mark = "#" if attempt.outcome in ("ok", "running") else "x"
                lo = int((attempt.start - tl.t0) / span * width)
                hi = int((attempt.end - tl.t0) / span * width)
                for c in range(max(lo, 0), min(max(hi, lo + 1), width)):
                    cells[c] = mark
            lines.append(
                f"  {names[lane]:<{label_w}} |{''.join(cells)}|"
            )
        lines.append("")
    phases = phase_breakdown(segments)
    total = sum(phases.values())
    lines.append("Where the time went (critical path):")
    for phase in PHASES:
        seconds = phases[phase]
        if seconds <= 0 and phase != "compute":
            continue
        share = (seconds / total * 100) if total else 0.0
        lines.append(f"  {phase:<11} {seconds:>8.3f}s  {share:5.1f}%")
    lines.append(f"  {'total':<11} {total:>8.3f}s")
    lines.append("")
    lines.append(f"Critical path ({len(segments)} segment(s)):")
    shown = segments[:max_segments]
    for segment in shown:
        lines.append(
            f"  +{segment.start - tl.t0:8.3f}s {segment.dur:8.3f}s  "
            f"{segment.kind:<11} {segment.detail}"
        )
    if len(segments) > len(shown):
        lines.append(f"  … {len(segments) - len(shown)} more")
    return "\n".join(lines)


# -- Chrome-trace merger ----------------------------------------------------


def _locate(path_text: str, base: Path) -> Path | None:
    # trace_path is recorded exactly as --trace-out was given, so a
    # relative path is relative to the *sweep's* cwd, not the run dir.
    # Try the run dir first (self-contained layouts), then the path
    # as-is, then a --trace-out sibling of the run dir, then a bare
    # file dropped next to the manifest.
    recorded = Path(path_text)
    candidates = (
        (recorded,)
        if recorded.is_absolute()
        else (base / recorded, recorded, base.parent / recorded,
              base / recorded.name)
    )
    for candidate in candidates:
        if candidate.exists():
            return candidate
    return None


def merge_chrome(
    tl: SweepTimeline,
    run_dir: Path | str | None = None,
    manifest: Any = None,
) -> dict[str, Any]:
    """One cross-process Chrome trace: engine control plane + one track
    per backend slot/worker + the per-job child traces, on a shared
    wall-clock timeline.

    Child trace files (``trace_path`` on each manifest record, written
    when the sweep ran with ``--trace-out``) are shifted onto the
    engine's timeline via the ``epoch_unix`` stamp their tracer records;
    traces predating that stamp are aligned to the job's attempt start.
    Their ``runner.job`` spans carry the same span id as the engine's
    attempt events (``args.span``), which is the cross-process
    correlation the timeline is for.
    """
    us = lambda t: round(max(t - tl.t0, 0.0) * 1e6, 3)  # noqa: E731
    events: list[dict[str, Any]] = []

    def meta(pid: int, name: str, sort_index: int) -> None:
        events.append(
            {
                "ph": "M", "name": "process_name", "pid": pid, "tid": 0,
                "ts": 0, "args": {"name": name},
            }
        )
        events.append(
            {
                "ph": "M", "name": "process_sort_index", "pid": pid,
                "tid": 0, "ts": 0, "args": {"sort_index": sort_index},
            }
        )

    meta(0, "sweep control plane", 0)
    for job, track in sorted(tl.jobs.items()):
        if track.cached:
            continue
        ends = [a.end for a in tl.attempts if a.job == job]
        start = track.submitted if track.submitted is not None else tl.t0
        end = max(ends) if ends else tl.t1
        events.append(
            {
                "ph": "X", "name": f"job {tl.job_label(job)}",
                "pid": 0, "tid": 0,
                "ts": us(start), "dur": round(max(end - start, 0) * 1e6, 3),
                "args": {"span": track.span, "job": job, "key": track.key},
            }
        )
    for job, start, end in tl.cache_hits:
        events.append(
            {
                "ph": "X", "name": f"cache hit {tl.job_label(job)}",
                "pid": 0, "tid": 1,
                "ts": us(start), "dur": round(max(end - start, 0) * 1e6, 3),
                "args": {"job": job},
            }
        )
    for start, end in tl.checkpoints:
        events.append(
            {
                "ph": "X", "name": "checkpoint", "pid": 0, "tid": 1,
                "ts": us(start), "dur": round(max(end - start, 0) * 1e6, 3),
                "args": {},
            }
        )

    lanes = assign_lanes(tl)
    names = _lane_names(tl, lanes)
    for lane, name in sorted(names.items()):
        meta(1000 + lane, f"lane {lane} ({name})", 10 + lane)
    for attempt, lane in zip(tl.attempts, lanes):
        events.append(
            {
                "ph": "X",
                "name": (
                    f"{tl.job_label(attempt.job)} #{attempt.attempt}"
                ),
                "pid": 1000 + lane, "tid": 0,
                "ts": us(attempt.start),
                "dur": round(attempt.dur * 1e6, 3),
                "args": {
                    "span": attempt.span,
                    "outcome": attempt.outcome,
                    "attempt": attempt.attempt,
                    "worker_pid": attempt.pid,
                },
            }
        )
    for track in tl.worker_tracks.values():
        lane = next(
            (
                l
                for l, n in names.items()
                if n.startswith(f"worker {track.worker}")
            ),
            None,
        )
        if lane is None or track.spawned is None:
            continue
        ready = track.ready if track.ready is not None else track.spawned
        events.append(
            {
                "ph": "X", "name": f"spawn worker {track.worker}",
                "pid": 1000 + lane, "tid": 0,
                "ts": us(track.spawned),
                "dur": round(max(ready - track.spawned, 0) * 1e6, 3),
                "args": {"pid": track.pid},
            }
        )

    # Child-side traces, when the sweep also ran with --trace-out.
    if manifest is None and run_dir is not None:
        manifest_path = Path(run_dir) / "manifest.json"
        if manifest_path.exists():
            from ..runner.manifest import RunManifest

            try:
                manifest = RunManifest.load(manifest_path)
            except (OSError, ValueError):
                manifest = None
    if manifest is not None and run_dir is not None:
        base = Path(run_dir)
        by_key = {
            track.key: job for job, track in tl.jobs.items() if track.key
        }
        lane_by_job: dict[int, int] = {}
        for attempt, lane in zip(tl.attempts, lanes):
            lane_by_job[attempt.job] = lane
        for record in manifest.records:
            if not record.trace_path or record.key not in by_key:
                continue
            trace_file = _locate(record.trace_path, base)
            if trace_file is None:
                continue
            try:
                payload = json.loads(trace_file.read_text())
            except (OSError, ValueError):
                continue
            job = by_key[record.key]
            lane = lane_by_job.get(job)
            if lane is None:
                continue
            epoch = (payload.get("otherData") or {}).get("epoch_unix")
            if epoch is not None:
                shift_us = (epoch - tl.t0) * 1e6
            else:
                ok_attempts = [
                    a for a in tl.attempts
                    if a.job == job and a.outcome == "ok"
                ]
                anchor = (
                    ok_attempts[-1].start if ok_attempts else tl.t0
                )
                shift_us = (anchor - tl.t0) * 1e6
            from .tracing import SIM_TRACK

            for event in payload.get("traceEvents", []):
                if event.get("ph") == "M" or event.get("tid") == SIM_TRACK:
                    continue
                merged = dict(event)
                merged["pid"] = 1000 + lane
                merged["tid"] = 1
                merged["ts"] = round(event.get("ts", 0) + shift_us, 3)
                events.append(merged)
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"schema": SWEEPTRACE_SCHEMA, "trace": tl.trace},
    }


def write_merged_chrome(
    events_path: Path | str, out: Path | str
) -> int:
    """Build and write the merged Chrome trace; returns the event count.

    ``events_path`` may be the events file or the run directory; the
    manifest (for child trace paths) is looked up next to it.
    """
    events_file = resolve_events_path(events_path)
    tl = build_timeline(load_events(events_file))
    merged = merge_chrome(tl, run_dir=events_file.parent)
    out = Path(out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(merged))
    return len(merged["traceEvents"])
