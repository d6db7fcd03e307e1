"""Command-line interface: regenerate the paper's figures, in parallel.

Usage::

    python -m repro list
    python -m repro fig5 --format json
    python -m repro fig4-delay --csv out/fig4_delay.csv --seed 3 --cycles 100
    python -m repro all --out-dir results/ --jobs 4
    python -m repro sweep --figure fig4-jitter --seeds 0..4 \\
        --param cycles=100,400 --jobs 4 --out-dir sweeps/

``all`` and ``sweep`` fan jobs out over a ``multiprocessing`` pool
(``--jobs``, default: CPU count) and reuse a content-addressed on-disk
result cache (``--cache-dir``, default ``.repro-cache``; disable with
``--no-cache``).  ``sweep`` prints a JSON run manifest (see
:mod:`repro.runner.manifest`) to stdout, with per-job progress on stderr.

Observability (see :mod:`repro.obs`)::

    python -m repro sweep --profile --trace-out traces/ fig5 \\
        --manifest manifest.json
    python -m repro obs manifest.json --top 10

``--trace-out DIR`` writes one Chrome trace-event JSON per computed job
(load in Perfetto or ``chrome://tracing``); ``--profile`` times every
simulator event callback.  Both embed metrics snapshots in the manifest,
which ``repro obs`` renders as a metrics / hot-spot summary.

In-band network telemetry (see :mod:`repro.obs.telemetry`)::

    python -m repro sweep fig6 --telemetry --manifest runs/manifest.json
    python -m repro obs telemetry runs/telemetry/   # samplers + postcards
    python -m repro obs flight runs/telemetry/      # flight-recorder dumps

``--telemetry [DIR]`` turns on INT-style postcards (1-in-N packet
sampling), bounded time-series rings (queue depth, link utilization), and
a fault flight recorder inside every computed job; each job writes
``*.postcards.jsonl`` + ``*.telemetry.json`` and embeds a digest in the
manifest, which ``repro report`` renders as a "Network telemetry" section.

Chaos campaigns (see :mod:`repro.chaos`)::

    python -m repro chaos list
    python -m repro chaos run link-flaps --seeds 0..2 --param mttr_scale=1,2
    python -m repro chaos replay --scenario link-flaps --seed 7

Resilient sweeps (see :mod:`repro.runner.supervisor`)::

    python -m repro sweep fig5 fig6 --seeds 0..4 \\
        --timeout 300 --retries 1 --manifest sweep.json
    # ... a cell crashed / the box rebooted?  Rerun only what's missing:
    python -m repro sweep fig5 fig6 --seeds 0..4 \\
        --timeout 300 --retries 1 --resume sweep.json --manifest sweep.json

``--manifest`` is flushed after every completed job, so an interrupted
sweep leaves a valid (partial) manifest behind.  Failed cells render a
``(failed)`` marker row instead of aborting the sweep.

Cross-run observability (see :mod:`repro.obs.report`,
:mod:`repro.obs.status`)::

    python -m repro all --out-dir results/      # heartbeats results/status.json
    python -m repro obs tail results/ --follow  # live ok/failed/retry counts
    python -m repro report results/             # report.html + report.md

``report`` aggregates a run directory's manifest, row CSVs, metrics, and
verdicts into a self-contained HTML + markdown report.

Exit codes: 0 success, 1 failed strict chaos verdicts, 2 usage/argument
errors, 3 sweep completed *degraded* (some jobs failed or timed out;
resume with ``--resume``).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Any

from . import __version__
from .figures import (
    FORMATS,
    FigureSpec,
    UnknownFigureError,
    failure_rows,
    get_spec,
    registry,
)
from .obs import hotspot_table
from .obs.metrics import sorted_histogram_items
from .runner import (
    DEFAULT_CACHE_DIR,
    JobRecord,
    ResultCache,
    RunManifest,
    expand_grid,
    run_jobs,
)

#: Exit code for a sweep that completed but with failed/timed-out jobs.
EXIT_DEGRADED = 3


def _add_resilience_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--timeout", type=float, default=None, metavar="SEC",
        help="per-job timeout in seconds (default: none)",
    )
    sub.add_argument(
        "--retries", type=int, default=0, metavar="N",
        help="extra attempts per failed job (default: 0)",
    )
    sub.add_argument(
        "--backoff", type=float, default=None, metavar="SEC",
        help="base retry backoff in seconds (default: 0.05, deterministic)",
    )
    sub.add_argument(
        "--resume", type=Path, default=None, metavar="MANIFEST",
        help=(
            "skip cells this earlier run manifest already completed "
            "(their rows are re-served from the cache)"
        ),
    )


def _add_telemetry_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--telemetry", nargs="?", const="auto", default=None, metavar="DIR",
        help=(
            "enable the in-band network telemetry plane (INT postcards, "
            "ring samplers, flight recorder) and write one "
            "*.postcards.jsonl + *.telemetry.json per computed job into "
            "DIR (default: 'telemetry' inside the run directory)"
        ),
    )
    sub.add_argument(
        "--telemetry-interval", type=int, default=64, metavar="N",
        help="sample 1-in-N packets for INT postcards (default: 64)",
    )


def _add_status_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--status", type=Path, default=None, metavar="FILE",
        help=(
            "live status heartbeat file (default: status.json in --out-dir "
            "or next to --manifest; see 'repro obs tail')"
        ),
    )
    sub.add_argument(
        "--no-status", action="store_true",
        help="disable the live status heartbeat",
    )
    sub.add_argument(
        "--sweeptrace", nargs="?", const="auto", default=None,
        metavar="FILE",
        help=(
            "record the sweep control plane's distributed trace "
            "(submission, attempts, retries, worker lifecycle, "
            "checkpoints, cache hits) to FILE (default: "
            "sweep.events.jsonl next to the manifest; see "
            "'repro obs timeline')"
        ),
    )


def _add_cache_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="worker processes (default: CPU count)",
    )
    sub.add_argument(
        "--cache-dir", type=Path, default=DEFAULT_CACHE_DIR,
        help=f"result cache directory (default: {DEFAULT_CACHE_DIR})",
    )
    sub.add_argument(
        "--no-cache", action="store_true",
        help="recompute everything; do not read or write the cache",
    )
    _add_backend_args(sub)


def _add_backend_args(sub: argparse.ArgumentParser) -> None:
    """``--backend``/``--stream-rows``/``--chunk-rows`` — shared with the
    chaos CLI, which has its own cache/jobs flags."""
    sub.add_argument(
        "--backend", default=None, metavar="SPEC",
        help=(
            "executor backend NAME[:WORKERS]: serial (in-process) or "
            "local-pool[:N] (N forked single-job workers); default: auto "
            "(env REPRO_BACKEND, else picked from --jobs)"
        ),
    )
    sub.add_argument(
        "--stream-rows", nargs="?", const="auto", default=None, metavar="DIR",
        help=(
            "stream job rows through content-addressed chunked JSONL files "
            "instead of the supervising process's memory; DIR defaults to "
            "the cache's row store (so the default needs the cache enabled)"
        ),
    )
    sub.add_argument(
        "--chunk-rows", type=int, default=None, metavar="N",
        help="rows per streamed chunk file (default: 256)",
    )


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Regenerate the figures of 'Data Centers Manufacturing Steel' "
            "(HotNets '25) from the simulation models."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    subparsers.add_parser("list", help="list available figures")

    for name, spec in registry().items():
        sub = subparsers.add_parser(name, help=spec.doc)
        sub.add_argument("--seed", type=int, default=0, help="random seed")
        sub.add_argument(
            "--csv", type=Path, default=None,
            help="write the rows to this CSV file instead of printing",
        )
        sub.add_argument(
            "--out", type=Path, default=None,
            help="write the rows to this file in --format",
        )
        sub.add_argument(
            "--format", choices=FORMATS, default="table",
            help="render format (default: table)",
        )
        for param in spec.params:
            sub.add_argument(
                f"--{param.name.replace('_', '-')}",
                dest=param.name, default=None, metavar="V",
                help=f"{param.doc} (default: {param.default})",
            )

    sub = subparsers.add_parser(
        "all", help="regenerate every figure (parallel, cached)"
    )
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument(
        "--out-dir", type=Path, default=Path("results"),
        help="directory receiving one CSV per figure plus manifest.json",
    )
    _add_cache_args(sub)
    _add_resilience_args(sub)
    _add_status_args(sub)
    _add_telemetry_args(sub)

    sub = subparsers.add_parser(
        "sweep", help="run a (figure x seed x param) grid in parallel"
    )
    sub.add_argument(
        "figures", nargs="*", default=[], metavar="FIGURE",
        help="figures to sweep (default: all figures)",
    )
    sub.add_argument(
        "--figure", action="append", default=None, metavar="NAME",
        help="figure to sweep (repeatable; same as the positional form)",
    )
    sub.add_argument(
        "--seeds", default="0", metavar="LIST",
        help="seeds: comma list '0,1,2' or inclusive range '0..4'",
    )
    sub.add_argument(
        "--param", action="append", default=None, metavar="NAME=V1,V2",
        help=(
            "grid values for one parameter (repeatable); tuple-valued "
            "params use ':' inside one value, e.g. flow_counts=1:5:25"
        ),
    )
    sub.add_argument(
        "--out-dir", type=Path, default=None,
        help="also write one CSV per job into this directory",
    )
    sub.add_argument(
        "--manifest", type=Path, default=None,
        help="write the JSON run manifest here instead of stdout",
    )
    sub.add_argument(
        "--trace-out", type=Path, default=None, metavar="DIR",
        help=(
            "enable span tracing and write one Chrome trace-event JSON "
            "(plus JSONL) per computed job into DIR"
        ),
    )
    sub.add_argument(
        "--profile", action="store_true",
        help=(
            "time every simulator event callback and attach per-job "
            "hot-spot tables to the manifest"
        ),
    )
    _add_cache_args(sub)
    _add_resilience_args(sub)
    _add_status_args(sub)
    _add_telemetry_args(sub)

    from .chaos.cli import add_chaos_parser

    add_chaos_parser(subparsers)

    sub = subparsers.add_parser(
        "obs",
        help=(
            "observability: summarize a run manifest, 'tail' a running "
            "sweep's status heartbeat, render a sweep 'timeline', or "
            "inspect 'telemetry' / 'flight' snapshots"
        ),
    )
    sub.add_argument(
        "target", metavar="RUN|tail|timeline|telemetry|flight",
        help=(
            "manifest JSON (or run directory) written by 'repro sweep'/"
            "'repro all'; or the literal 'tail' to watch a live sweep; "
            "'timeline' to render the control-plane Gantt + critical "
            "path from a --sweeptrace run; or 'telemetry' / 'flight' to "
            "render *.telemetry.json snapshots written by --telemetry"
        ),
    )
    sub.add_argument(
        "tail_path", nargs="?", type=Path, default=None, metavar="PATH",
        help=(
            "with 'tail': the status.json (or the sweep's run directory "
            "holding one); with 'timeline': the run directory (or its "
            "sweep.events.jsonl); with 'telemetry'/'flight': a "
            ".telemetry.json file or the telemetry directory; default: "
            "current directory"
        ),
    )
    sub.add_argument(
        "--top", type=int, default=10, metavar="N",
        help="hot-spot rows to show per job (default: 10)",
    )
    sub.add_argument(
        "--follow", "-f", action="store_true",
        help="with 'tail': keep polling until the sweep finishes",
    )
    sub.add_argument(
        "--interval", type=float, default=0.5, metavar="SEC",
        help="with 'tail --follow': polling interval (default: 0.5)",
    )
    sub.add_argument(
        "--chrome", type=Path, default=None, metavar="OUT",
        help=(
            "with 'timeline': also merge the engine events and per-job "
            "Chrome traces into one cross-process trace file at OUT"
        ),
    )

    sub = subparsers.add_parser(
        "report",
        help="aggregate a finished run into HTML + markdown reports",
    )
    sub.add_argument(
        "run_dir", type=Path, metavar="RUN_DIR|MANIFEST",
        help=(
            "run directory (holding manifest.json) from 'repro all' / "
            "'repro sweep --out-dir', or a manifest file"
        ),
    )
    sub.add_argument(
        "--out-dir", type=Path, default=None, metavar="DIR",
        help="where report.html / report.md go (default: the run dir)",
    )
    sub.add_argument(
        "--top", type=int, default=10, metavar="N",
        help="merged hot-spot rows in the report (default: 10)",
    )
    return parser


def parse_seeds(text: str) -> list[int]:
    """Parse ``"0,1,2"`` or the inclusive range ``"0..4"``."""
    text = text.strip()
    if ".." in text:
        first, _, last = text.partition("..")
        seeds = list(range(int(first), int(last) + 1))
    else:
        seeds = [int(part) for part in text.split(",") if part.strip()]
    if not seeds:
        raise ValueError(f"empty seed list {text!r}")
    return seeds


def parse_param_grid(specs: list[str] | None) -> dict[str, list[str]]:
    """Parse repeated ``NAME=V1,V2`` flags into a grid mapping."""
    grid: dict[str, list[str]] = {}
    for item in specs or []:
        name, sep, values = item.partition("=")
        name = name.strip()
        parts = [part for part in values.split(",") if part.strip()]
        if not sep or not name or not parts:
            raise ValueError(
                f"bad --param {item!r}; expected NAME=V1,V2,..."
            )
        grid.setdefault(name, []).extend(parts)
    return grid


def _cache_from(args: argparse.Namespace) -> ResultCache | None:
    if getattr(args, "no_cache", False):
        return None
    return ResultCache(getattr(args, "cache_dir", DEFAULT_CACHE_DIR))


def _make_progress(total: int):
    """Build a per-job progress printer with live counts and an ETA.

    The running ``[done/total ok=.. failed=..]`` prefix and the ETA are
    the in-terminal twin of the ``status.json`` heartbeat: both are
    derived from completed :class:`JobRecord` durations only, so neither
    can perturb results.
    """
    done = ok = failed = 0
    durations: list[float] = []

    def progress(record: JobRecord) -> None:
        nonlocal done, ok, failed
        done += 1
        label = " ".join(
            [record.figure, f"seed={record.seed}"]
            + [f"{k}={v}" for k, v in record.params.items()]
        )
        if not record.ok:
            failed += 1
            state = (
                f"{record.status.upper()} after "
                f"{record.attempts} attempt(s): {record.error}"
            )
        else:
            ok += 1
            if not record.cached and record.wall_time_s > 0:
                durations.append(record.wall_time_s)
            state = "cached" if record.cached else f"{record.wall_time_s:.2f}s"
            state += f" ({record.rows} rows)"
            if record.attempts > 1:
                state += f" [{record.attempts} attempts]"
        prefix = f"[{done}/{total} ok={ok} failed={failed}]"
        eta = ""
        remaining = total - done
        if remaining and durations:
            eta_s = remaining * (sum(durations) / len(durations))
            eta = f" eta ~{eta_s:.0f}s"
        print(f"  {prefix} {label}: {state}{eta}", file=sys.stderr)

    return progress


def _status_path(
    args: argparse.Namespace, *bases: Path | None
) -> Path | None:
    """Resolve the heartbeat location: --status wins, then the run dir."""
    if getattr(args, "no_status", False):
        return None
    explicit = getattr(args, "status", None)
    if explicit is not None:
        return explicit
    for base in bases:
        if base is not None:
            return Path(base) / "status.json"
    return None


def _telemetry_kwargs(
    args: argparse.Namespace, *bases: Path | None
) -> dict[str, Any]:
    """Resolve ``--telemetry [DIR]`` against the run directory."""
    choice = getattr(args, "telemetry", None)
    if choice is None:
        return {}
    if choice != "auto":
        telemetry_dir = Path(choice)
    else:
        base = next((Path(b) for b in bases if b is not None), Path("."))
        telemetry_dir = base / "telemetry"
    return {
        "telemetry_dir": telemetry_dir,
        "telemetry_interval": getattr(args, "telemetry_interval", 64),
    }


def _sweeptrace_kwargs(
    args: argparse.Namespace, *bases: Path | None
) -> dict[str, Any]:
    """Resolve ``--sweeptrace [FILE]`` against the run directory."""
    choice = getattr(args, "sweeptrace", None)
    if choice is None:
        return {}
    if choice != "auto":
        return {"sweeptrace": Path(choice)}
    from .obs.sweeptrace import EVENTS_FILENAME

    base = next((Path(b) for b in bases if b is not None), Path("."))
    return {"sweeptrace": base / EVENTS_FILENAME}


def _resilience_kwargs(args: argparse.Namespace) -> dict[str, Any]:
    resume = getattr(args, "resume", None)
    return {
        "timeout_s": getattr(args, "timeout", None),
        "retries": getattr(args, "retries", 0),
        "backoff": getattr(args, "backoff", None),
        "resume_from": RunManifest.load(resume) if resume else None,
    }


def _backend_kwargs(args: argparse.Namespace) -> dict[str, Any]:
    """Resolve ``--backend`` / ``--stream-rows`` / ``--chunk-rows``."""
    kwargs: dict[str, Any] = {"backend": getattr(args, "backend", None)}
    stream = getattr(args, "stream_rows", None)
    if stream is not None:
        kwargs["stream_rows"] = True if stream == "auto" else Path(stream)
    chunk = getattr(args, "chunk_rows", None)
    if chunk is not None:
        kwargs["chunk_rows"] = chunk
    return kwargs


def _report_degraded(result, resume_hint: str) -> None:
    failures = result.failures
    print(
        f"repro: {len(failures)} of {len(result.outcomes)} job(s) "
        f"failed; completed cells are kept ({resume_hint})",
        file=sys.stderr,
    )


def _csv_name(record: JobRecord, multi: bool) -> str:
    stem = record.figure.replace("-", "_")
    if not multi:
        return f"{stem}.csv"
    return f"{stem}.seed{record.seed}.{record.key[:8]}.csv"


def _run_figure_command(spec: FigureSpec, args: argparse.Namespace) -> int:
    overrides = {
        param.name: value
        for param in spec.params
        if (value := getattr(args, param.name, None)) is not None
    }
    rows = spec.run(seed=getattr(args, "seed", 0), **overrides)
    csv_path: Path | None = getattr(args, "csv", None)
    out_path: Path | None = getattr(args, "out", None)
    fmt: str = getattr(args, "format", "table") or "table"
    if csv_path is not None:
        csv_path.parent.mkdir(parents=True, exist_ok=True)
        csv_path.write_text(rows.to_csv())
        print(f"wrote {csv_path} ({len(rows)} rows)")
    if out_path is not None:
        out_path.parent.mkdir(parents=True, exist_ok=True)
        out_path.write_text(rows.render(fmt))
        print(f"wrote {out_path} ({len(rows)} rows)")
    if csv_path is None and out_path is None:
        print(rows.render(fmt))
    return 0


def _run_all(args: argparse.Namespace) -> int:
    out_dir: Path = getattr(args, "out_dir", Path("results"))
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest_path = out_dir / "manifest.json"
    jobs = expand_grid(list(registry()), seeds=[getattr(args, "seed", 0)])
    result = run_jobs(
        jobs,
        workers=getattr(args, "jobs", None),
        cache=_cache_from(args),
        progress=_make_progress(len(jobs)),
        checkpoint=manifest_path,
        status_path=_status_path(args, out_dir),
        **_backend_kwargs(args),
        **_telemetry_kwargs(args, out_dir),
        **_sweeptrace_kwargs(args, out_dir),
        **_resilience_kwargs(args),
    )
    for outcome in result.outcomes:
        target = out_dir / _csv_name(outcome.record, multi=False)
        if outcome.record.ok:
            target.write_text(outcome.rows.to_csv())
            print(f"wrote {target} ({len(outcome.rows)} rows)")
        else:
            # Partial-figure rendering: a failed cell still exports a
            # placeholder CSV so downstream tooling sees every figure.
            target.write_text(
                failure_rows(
                    outcome.record.figure, outcome.record.error
                ).to_csv()
            )
            print(f"wrote {target} ((failed) marker row)")
        outcome.record.rows_path = str(target)
    manifest_path.write_text(result.manifest.to_json() + "\n")
    print(
        f"wrote {manifest_path} "
        f"({result.manifest.cache_hits} cached, "
        f"{result.manifest.cache_misses} computed, "
        f"{result.manifest.failed} failed, "
        f"{result.manifest.wall_time_s:.2f}s)"
    )
    if not result.ok:
        _report_degraded(
            result, f"resume with: repro all --resume {manifest_path}"
        )
        return EXIT_DEGRADED
    return 0


def _run_sweep(args: argparse.Namespace) -> int:
    figures = list(getattr(args, "figures", None) or [])
    figures += [
        name
        for name in getattr(args, "figure", None) or []
        if name not in figures
    ]
    if not figures:
        figures = list(registry())
    jobs = expand_grid(
        figures,
        seeds=parse_seeds(getattr(args, "seeds", "0")),
        grid=parse_param_grid(getattr(args, "param", None)),
    )
    manifest_path: Path | None = getattr(args, "manifest", None)
    if manifest_path is not None:
        manifest_path.parent.mkdir(parents=True, exist_ok=True)
    out_dir: Path | None = getattr(args, "out_dir", None)
    result = run_jobs(
        jobs,
        workers=getattr(args, "jobs", None),
        cache=_cache_from(args),
        progress=_make_progress(len(jobs)),
        trace_dir=getattr(args, "trace_out", None),
        profile=getattr(args, "profile", False),
        checkpoint=manifest_path,
        status_path=_status_path(
            args,
            out_dir,
            manifest_path.parent if manifest_path is not None else None,
        ),
        **_backend_kwargs(args),
        **_telemetry_kwargs(
            args,
            out_dir,
            manifest_path.parent if manifest_path is not None else None,
        ),
        **_sweeptrace_kwargs(
            args,
            out_dir,
            manifest_path.parent if manifest_path is not None else None,
        ),
        **_resilience_kwargs(args),
    )
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        for outcome in result.outcomes:
            target = out_dir / _csv_name(outcome.record, multi=True)
            rows = (
                outcome.rows
                if outcome.record.ok
                else failure_rows(
                    outcome.record.figure, outcome.record.error
                )
            )
            target.write_text(rows.to_csv())
            outcome.record.rows_path = str(target)
    if manifest_path is not None:
        manifest_path.write_text(result.manifest.to_json() + "\n")
        print(f"wrote {manifest_path}", file=sys.stderr)
    else:
        print(result.manifest.to_json())
    if not result.ok:
        hint = (
            f"resume with: repro sweep ... --resume {manifest_path}"
            if manifest_path is not None
            else "rerun with --manifest to enable --resume"
        )
        _report_degraded(result, hint)
        return EXIT_DEGRADED
    return 0


def _format_ns(value: float | None) -> str:
    if value is None:
        return "-"
    if value >= 1e6:
        return f"{value / 1e6:.2f}ms"
    if value >= 1e3:
        return f"{value / 1e3:.2f}us"
    return f"{value:.0f}ns"


def _job_label(record: JobRecord) -> str:
    parts = [record.figure, f"seed={record.seed}"]
    parts += [f"{k}={v}" for k, v in record.params.items()]
    return " ".join(parts)


def _run_obs_timeline(args: argparse.Namespace) -> int:
    """``repro obs timeline RUN_DIR [--chrome OUT]``."""
    from .obs import sweeptrace as st

    target = getattr(args, "tail_path", None) or Path(".")
    events_path = st.resolve_events_path(target)
    timeline = st.build_timeline(st.load_events(events_path))
    segments = st.critical_path(timeline)
    print(st.format_timeline(timeline, segments))
    chrome = getattr(args, "chrome", None)
    if chrome is not None:
        count = st.write_merged_chrome(events_path, chrome)
        print(f"\nwrote {chrome} ({count} trace events)")
    return 0


def _run_obs(args: argparse.Namespace) -> int:
    target = getattr(args, "target", None)
    if target == "tail":
        return _run_obs_tail(args)
    if target == "timeline":
        return _run_obs_timeline(args)
    if target == "telemetry":
        return _run_obs_telemetry(args)
    if target == "flight":
        return _run_obs_flight(args)
    path = Path(args.target)
    if path.is_dir():
        path = path / "manifest.json"
    try:
        manifest = RunManifest.load(path)
    except OSError as exc:
        raise ValueError(f"cannot read manifest {path}: {exc}") from None
    top: int = getattr(args, "top", 10)
    records = manifest.records
    ok = sum(1 for r in records if r.status == "ok")
    cached = sum(1 for r in records if r.status == "cached")
    retries = sum(max(r.attempts - 1, 0) for r in records)
    observed = [record for record in records if record.metrics]
    summary = (
        f"{path}: {len(records)} job(s): {ok} ok, {cached} cached, "
        f"{manifest.failed} failed"
    )
    if retries:
        summary += f", {retries} retry attempt(s)"
    print(f"{summary}; {len(observed)} with observability data")
    for record in manifest.failures():
        print(
            f"  {_job_label(record)}: {record.status.upper()} after "
            f"{record.attempts} attempt(s): {record.error or '?'}"
        )
    slowest = sorted(
        (record for record in records if not record.cached),
        key=lambda record: record.wall_time_s,
        reverse=True,
    )[:5]
    if slowest:
        print("\nslowest jobs:")
        table = [("job", "wall", "attempts", "backend")] + [
            (
                _job_label(record),
                f"{record.wall_time_s:.2f}s",
                str(record.attempts),
                record.backend or "-",
            )
            for record in slowest
        ]
        widths = [
            max(len(row[col]) for row in table) for col in range(4)
        ]
        for row in table:
            print(
                "  " + "  ".join(
                    cell.ljust(width) for cell, width in zip(row, widths)
                ).rstrip()
            )
    if not observed:
        print(
            "  (no metrics in this manifest; rerun the sweep with "
            "--trace-out and/or --profile)"
        )
        return 0
    for record in observed:
        timing = f"{record.wall_time_s:.2f}s"
        if record.attempts > 1:
            timing += f", {record.attempts} attempts"
        print(f"\n{_job_label(record)}  [{timing}]")
        if record.trace_path:
            print(f"  trace: {record.trace_path}")
        metrics = record.metrics or {}
        counters = metrics.get("counters") or {}
        gauges = metrics.get("gauges") or {}
        histograms = metrics.get("histograms") or {}
        if counters:
            print("  counters:")
            for key in sorted(counters):
                print(f"    {key} = {counters[key]}")
        if gauges:
            print("  gauges:")
            for key in sorted(gauges):
                print(f"    {key} = {gauges[key]}")
        if histograms:
            print("  histograms:")
            for key, h in sorted_histogram_items(histograms):
                count = h.get("count", 0)
                mean = (h.get("sum", 0) / count) if count else 0.0
                print(
                    f"    {key}  count={count} "
                    f"mean={_format_ns(mean)} "
                    f"min={_format_ns(h.get('min'))} "
                    f"max={_format_ns(h.get('max'))}"
                )
        if record.hotspots:
            print("  hot spots:")
            for line in hotspot_table(record.hotspots, top=top).splitlines():
                print(f"    {line}")
    return 0


def _telemetry_snapshots(args: argparse.Namespace):
    """Resolve ``repro obs telemetry|flight PATH`` into snapshot payloads."""
    from .obs.telemetry import load_snapshot, snapshot_paths

    target = getattr(args, "tail_path", None) or Path(".")
    try:
        paths = snapshot_paths(target)
    except FileNotFoundError as exc:
        raise ValueError(str(exc)) from None
    return [(path, load_snapshot(path)) for path in paths]


def _run_obs_telemetry(args: argparse.Namespace) -> int:
    from .obs.telemetry import format_snapshot

    for path, payload in _telemetry_snapshots(args):
        print(format_snapshot(payload, name=path.name))
    return 0


def _run_obs_flight(args: argparse.Namespace) -> int:
    from .obs.telemetry import format_flight

    for path, payload in _telemetry_snapshots(args):
        print(format_flight(payload, name=path.name))
    return 0


def _run_obs_tail(args: argparse.Namespace) -> int:
    import os
    import time

    from .obs.status import (
        STATE_RUNNING,
        format_status,
        load_status,
        resolve_status_path,
    )

    target = getattr(args, "tail_path", None) or Path(".")
    follow: bool = getattr(args, "follow", False)
    interval: float = max(getattr(args, "interval", 0.5), 0.05)
    path = resolve_status_path(target)  # friendly ValueError when missing
    last_stamp: float | None = None
    last_inode: int | None = None
    status: dict[str, Any] = {}
    while True:
        try:
            inode = os.stat(path).st_ino
            status = load_status(path)
        except (OSError, ValueError):
            # The supervisor swaps status.json in atomically, but a fresh
            # sweep recreating the file can leave a gap where it is
            # missing or half-readable; keep polling instead of dying.
            if not follow:
                raise
            time.sleep(interval)
            continue
        if inode != last_inode:
            # New inode = the file was atomically replaced (heartbeat or
            # a brand-new sweep reusing the path): treat it as fresh even
            # if its updated_at matches what we last printed.
            last_inode = inode
            last_stamp = None
        stamp = status.get("updated_at")
        if stamp != last_stamp:
            print(format_status(status), flush=True)
            last_stamp = stamp
        if not follow or status.get("state") != STATE_RUNNING:
            break
        time.sleep(interval)
    return EXIT_DEGRADED if status.get("failed") else 0


def _run_report(args: argparse.Namespace) -> int:
    from datetime import datetime, timezone

    from .obs.report import build_report, resolve_manifest_path

    target: Path = args.run_dir
    manifest_path = resolve_manifest_path(target)  # friendly error on miss
    report = build_report(target, top_hotspots=getattr(args, "top", 10))
    out_dir: Path = getattr(args, "out_dir", None) or manifest_path.parent
    out_dir.mkdir(parents=True, exist_ok=True)
    stamp = datetime.now(timezone.utc).strftime("%Y-%m-%d %H:%M:%S UTC")
    md_path = out_dir / "report.md"
    html_path = out_dir / "report.html"
    md_path.write_text(report.to_markdown(generated_at=stamp))
    html_path.write_text(report.to_html(generated_at=stamp))
    manifest = report.manifest
    print(f"wrote {html_path}")
    print(f"wrote {md_path}")
    verdicts = report.all_requirement_verdicts()
    met = sum(1 for v in verdicts if v.verdict == "meets")
    print(
        f"{len(manifest.records)} job(s): {manifest.cache_hits} cached, "
        f"{manifest.cache_misses} computed, {manifest.failed} failed; "
        f"{met}/{len(verdicts)} requirement-class checks met"
    )
    return 0


def dispatch(args: argparse.Namespace) -> int:
    """Execute a parsed (or hand-built) namespace.

    Unknown figure names get a friendly error listing the available
    figures — this is the entry point for callers that bypass
    ``argparse``.
    """
    command = getattr(args, "command", None)
    if command == "list":
        for name, spec in registry().items():
            print(f"{name:12s} {spec.doc}")
        return 0
    try:
        if command == "all":
            return _run_all(args)
        if command == "sweep":
            return _run_sweep(args)
        if command == "obs":
            return _run_obs(args)
        if command == "report":
            return _run_report(args)
        if command == "chaos":
            from .chaos.cli import dispatch_chaos

            return dispatch_chaos(args)
        spec = get_spec(str(command))
        return _run_figure_command(spec, args)
    except (UnknownFigureError, ValueError) as exc:
        print(f"repro: {exc}", file=sys.stderr)
        return 2


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    return dispatch(build_parser().parse_args(argv))


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
