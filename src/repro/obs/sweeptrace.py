"""End-to-end sweep tracing: the control plane's one event record.

Sweep execution spans processes (engine → executor backend → forked
worker processes), yet without a trace a job is a single
``wall_time_s`` in the manifest and nothing explains where a sweep's
wall time actually went.  This module is the knowledge plane over that
control plane, built on one stream of lifecycle events:

- the engine mints a run-level **trace id** (a digest of the sorted job
  keys — the same grid gets the same trace on every replay) and one
  **span id** per job cell;
- the engine and its backend report every lifecycle event through one
  call, :meth:`SweepTrace.emit` — ``sweep_start``, ``submitted``,
  ``queued``, ``cache_hit``, ``attempt_start``, ``attempt_end`` (with
  outcome), ``retry_scheduled``, ``job_end``, ``checkpoint``,
  ``worker_spawn``/``worker_ready``/``worker_dead`` and ``sweep_end``;
- each event is folded into a :class:`SweepTimeline` by
  :meth:`SweepTimeline.apply` and, with ``sweeptrace=`` on, appended to
  ``sweep.events.jsonl`` (schema :data:`SWEEPTRACE_SCHEMA`) next to the
  manifest.  The live ``status.json`` (:mod:`repro.obs.status`), its
  ETA, the ``sweep_end`` counts and the manifest's per-job
  ``queue_s``/``compute_s``/``attempt_timings`` are all projections of
  that fold, and :func:`build_timeline` reads a file back through the
  same ``apply`` — so the views cannot disagree;
- each job payload carries the span context, so the child-side
  ``runner.job`` Chrome spans are correlated with the engine's job spans
  by span id;
- :func:`critical_path` computes the sweep's **critical path**: a
  gap-free tiling of its wall-clock interval into ``compute`` /
  ``queue`` / ``spawn`` / ``retry`` / ``checkpoint`` / ``idle`` segments
  (they sum to the total wall time *exactly*, by construction);
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
writer never raises: an I/O error mid-sweep silently stops it, and
results are byte-identical with tracing on or off.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Sequence, TextIO

from .status import write_status

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
    """Append-only JSONL event sink.

    Never raises: a path that cannot be opened, or an I/O error mid-sweep,
    silently disables the writer — a full disk must not fail the sweep.
    """

    def __init__(self, path: Path | str) -> None:
        self.path = Path(path)
        self._handle: TextIO | None = None
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = open(self.path, "w", encoding="utf-8")
        except OSError:
            pass

    def emit(self, ev: str, **fields: Any) -> None:
        """Append one event line stamped now; ``None`` fields are omitted."""
        self.write(_stamp(ev, fields))

    def write(self, event: dict[str, Any]) -> None:
        """Append one already-stamped event line."""
        if self._handle is None:
            return
        try:
            self._handle.write(
                json.dumps(event, sort_keys=True, separators=(",", ":"))
            )
            self._handle.write("\n")
            self._handle.flush()
        except (OSError, ValueError):
            self.close()

    def close(self) -> None:
        if self._handle is not None:
            try:
                self._handle.close()
            except OSError:
                pass
            self._handle = None


def _stamp(ev: str, fields: dict[str, Any]) -> dict[str, Any]:
    event: dict[str, Any] = {"ev": ev, "ts": round(time.time(), 6)}
    event.update((k, v) for k, v in fields.items() if v is not None)
    return event

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


# -- the fold ---------------------------------------------------------------


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
    #: The ``attempt_end`` wall: worker-reported when the backend had it,
    #: else the supervisor's start→end interval.
    wall: float = 0.0

    @property
    def dur(self) -> float:
        return max(self.end - self.start, 0.0)


@dataclass
class JobTrack:
    job: int
    figure: str = "?"
    seed: int | None = None
    span: str | None = None
    key: str | None = None
    submitted: float | None = None
    cached: bool = False
    #: Grid parameters as sorted ``(name, value)`` pairs.  The event
    #: stream does not carry them; only the live fold knows them.
    params: tuple[tuple[str, Any], ...] = ()
    attempts: list[AttemptSpan] = field(default_factory=list)


@dataclass
class WorkerTrack:
    worker: int
    pid: int | None = None
    spawned: float | None = None
    ready: float | None = None
    died: float | None = None


@dataclass
class SweepTimeline:
    """A sweep folded from its event stream, live or from disk.

    :meth:`apply` is the one fold step: the engine's live
    :class:`SweepTrace` and :func:`build_timeline` run the same code, so
    status, manifest timings and the rendered timeline cannot disagree.
    """

    trace: str = ""
    total: int = 0
    workers: int = 1
    backend: str | None = None
    t0: float = 0.0
    t1: float = 0.0
    ok: int = 0
    failed: int = 0
    cached: int = 0
    retries: int = 0
    last_error: str | None = None
    ended: bool = False
    jobs: dict[int, JobTrack] = field(default_factory=dict)
    attempts: list[AttemptSpan] = field(default_factory=list)
    #: ``(start, end)`` manifest-checkpoint write windows.
    checkpoints: list[tuple[float, float]] = field(default_factory=list)
    #: ``(job, start, end)`` cache-lookup windows.
    cache_hits: list[tuple[int, float, float]] = field(default_factory=list)
    worker_tracks: dict[int, WorkerTrack] = field(default_factory=dict)
    #: Attempts in flight, by job.
    running: dict[int, AttemptSpan] = field(default_factory=dict)
    last_ts: float = 0.0
    #: Sum and count of successful attempt walls (the ETA's mean).
    ok_wall_s: float = 0.0
    ok_walls: int = 0

    @property
    def wall_s(self) -> float:
        return max(self.t1 - self.t0, 0.0)

    @property
    def done(self) -> int:
        return self.ok + self.failed + self.cached

    def job_label(self, index: int) -> str:
        """``figure seed=S name=value ...`` — every label of a job."""
        track = self.jobs.get(index)
        if track is None:
            return f"job {index}"
        parts = [track.figure]
        if track.seed is not None:
            parts.append(f"seed={track.seed}")
        parts += [f"{name}={value}" for name, value in track.params]
        return " ".join(parts)

    def eta_s(self) -> float | None:
        """Remaining jobs × mean successful attempt wall ÷ workers;
        ``None`` until an attempt has succeeded (cache hits carry no
        signal)."""
        if not self.ok_walls:
            return None
        remaining = max(self.total - self.done, 0)
        return remaining * self.ok_wall_s / self.ok_walls / max(
            self.workers, 1
        )

    def timings(self, index: int) -> dict[str, Any]:
        """Job ``index``'s manifest fields: ``span``, ``queue_s``,
        ``compute_s`` and ``attempt_timings``."""
        track = self.jobs[index]
        log = [
            {
                "attempt": a.attempt,
                "outcome": a.outcome,
                "start_s": round(a.start - self.t0, 6),
                "wall_s": a.wall,
            }
            for a in track.attempts
        ]
        queue_s = None
        if track.submitted is not None and track.attempts:
            queue_s = round(
                max(track.attempts[0].start - track.submitted, 0.0), 6
            )
        return {
            "span": track.span,
            "queue_s": queue_s,
            "compute_s": round(sum(a.wall for a in track.attempts), 6)
            if log else None,
            "attempt_timings": log or None,
        }

    def apply(self, event: dict[str, Any]) -> None:
        """Fold one event in.  An ``attempt_end`` without ``wall_s`` has
        it filled in from the attempt's interval, so the written line
        carries it too."""
        kind = event.get("ev")
        ts = float(event.get("ts", self.last_ts))
        self.last_ts = max(self.last_ts, ts)
        if kind == "sweep_start":
            self.trace = event.get("trace", "")
            self.total = event.get("total", 0)
            self.workers = event.get("workers", 1)
            self.t0 = ts
        elif kind in ("submitted", "cache_hit"):
            job = int(event["job"])
            track = self.jobs.setdefault(job, JobTrack(job))
            track.figure = event.get("figure", "?")
            track.seed = event.get("seed")
            track.span = event.get("span")
            if kind == "submitted":
                track.key = event.get("key")
                track.submitted = ts
            else:
                track.cached = True
                wall = float(event.get("wall_s", 0.0))
                self.cache_hits.append((job, ts - wall, ts))
        elif kind == "attempt_start":
            self._add_attempt(event, start=ts, outcome="running")
        elif kind == "attempt_end":
            job = int(event["job"])
            attempt = self.running.pop(job, None)
            if "wall_s" not in event:
                opened = attempt.start if attempt is not None else ts
                event["wall_s"] = max(ts - opened, 0.0)
            wall = event["wall_s"] = round(float(event["wall_s"]), 6)
            if attempt is None:
                attempt = self._add_attempt(event, start=ts - wall)
            attempt.end = ts
            attempt.outcome = event.get("outcome", "?")
            attempt.pid = event.get("pid")
            attempt.wall = wall
            if attempt.outcome == "ok" and wall > 0:
                self.ok_wall_s += wall
                self.ok_walls += 1
        elif kind == "retry_scheduled":
            self.retries += 1
        elif kind == "job_end":
            status = event.get("status")
            if status == "ok":
                self.ok += 1
            elif status == "cached":
                self.cached += 1
            else:
                self.failed += 1
                label = self.job_label(int(event["job"]))
                self.last_error = f"{label}: {event.get('error') or status}"
        elif kind == "checkpoint":
            dur = float(event.get("dur_s", 0.0))
            self.checkpoints.append((ts - dur, ts))
        elif kind in ("worker_spawn", "worker_ready", "worker_dead"):
            worker = event.get("worker", 0)
            if kind == "worker_spawn":
                self.worker_tracks[worker] = WorkerTrack(
                    worker=worker, pid=event.get("pid"), spawned=ts
                )
            track = self.worker_tracks.setdefault(
                worker, WorkerTrack(worker=worker)
            )
            if kind == "worker_ready":
                track.ready = ts
            elif kind == "worker_dead":
                track.died = ts
        elif kind == "sweep_end":
            self.t1 = ts
            self.backend = event.get("backend")
            # Files written before job_end existed count only here.
            self.ok = event.get("ok", self.ok)
            self.failed = event.get("failed", self.failed)
            self.cached = event.get("cached", self.cached)
            self.ended = True

    def _add_attempt(
        self, event: dict[str, Any], start: float, outcome: str = "?"
    ) -> AttemptSpan:
        job = int(event["job"])
        attempt = AttemptSpan(
            job=job,
            figure=event.get("figure", "?"),
            attempt=event.get("attempt", 1),
            start=start,
            end=start,  # patched by the matching attempt_end
            outcome=outcome,
            worker=event.get("worker"),
            span=event.get("span"),
        )
        self.attempts.append(attempt)
        if job in self.jobs:
            self.jobs[job].attempts.append(attempt)
        if outcome == "running":
            self.running[job] = attempt
        return attempt

    def close(self) -> None:
        """End a sweep read back from disk: an interrupted one (no
        ``sweep_end``) stops at its last event, open attempts with it."""
        if not self.ended:
            self.t1 = self.last_ts
        for attempt in self.attempts:
            if attempt.outcome == "running":
                attempt.end = self.t1
                attempt.outcome = "unfinished"


def build_timeline(events: list[dict[str, Any]]) -> SweepTimeline:
    """Reconstruct the sweep timeline from its event stream."""
    tl = SweepTimeline()
    for event in events:
        tl.apply(event)
    tl.close()
    return tl


#: Events after which the status projection can have changed.
_STATUS_EVENTS = frozenset(
    {"sweep_start", "attempt_start", "retry_scheduled", "job_end",
     "sweep_end"}
)


class SweepTrace:
    """The live control-plane record of one sweep.

    Owned by :func:`repro.runner.run_jobs` when it writes a status file
    or an event stream, and by nothing otherwise.  :meth:`emit` is the
    one entry point: it stamps the event, folds it into :attr:`timeline`,
    appends it to ``events`` (if given) and rewrites the ``status`` file
    (if given) from the fold.  All clocks are the supervising process's
    wall clock; job payloads, cache keys and results never see it.
    """

    def __init__(
        self,
        jobs: Sequence[Any],
        keys: Sequence[str],
        *,
        events: Path | str | None = None,
        status: Path | str | None = None,
        backend: str | None = None,
    ) -> None:
        self.trace = sweep_trace_id(keys)
        self.spans = [job_span_id(self.trace, key) for key in keys]
        self.timeline = SweepTimeline(backend=backend)
        for index, (job, key) in enumerate(zip(jobs, keys)):
            self.timeline.jobs[index] = JobTrack(
                index, job.figure, job.seed, self.spans[index], key,
                params=tuple(job.params),
            )
        self._writer = SweepTraceWriter(events) if events is not None else None
        #: Set to ``None`` by the first failed rewrite (best-effort).
        self.status_path = Path(status) if status is not None else None
        if self.status_path is not None:
            self.status_path.parent.mkdir(parents=True, exist_ok=True)

    def span_context(self, index: int) -> dict[str, str]:
        """The ``{"trace", "span"}`` dict a job payload carries into the
        worker process so child-side spans correlate."""
        return {"trace": self.trace, "span": self.spans[index]}

    def emit(self, ev: str, **fields: Any) -> None:
        """Record one lifecycle event; ``None`` fields are omitted and a
        job event without a ``span`` gets its job's."""
        event = _stamp(ev, fields)
        if "job" in event:
            event.setdefault("span", self.spans[event["job"]])
        self.timeline.apply(event)
        if self._writer is not None:
            self._writer.write(event)
        if self.status_path is not None and ev in _STATUS_EVENTS:
            if not write_status(self.status_path, self.timeline):
                self.status_path = None

    def close(self) -> None:
        if self._writer is not None:
            self._writer.close()


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
