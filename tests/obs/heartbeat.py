"""Drive the sweep control-plane fold by hand, as the engine would.

Status-file tests use these to write ``status.json`` through the same
:class:`~repro.obs.sweeptrace.SweepTrace` a real sweep uses, without
running one.
"""

from __future__ import annotations

from repro.obs.sweeptrace import SweepTrace
from repro.runner import Job


def start_fold(path, total, workers=1, figures=("fig1",)):
    """A fold over ``total`` param-less jobs that has seen ``sweep_start``
    (job ``i`` runs ``figures[i % len(figures)]`` with seed 0)."""
    jobs = [Job(figures[i % len(figures)], 0) for i in range(total)]
    fold = SweepTrace(jobs, [job.key() for job in jobs], status=path)
    fold.emit("sweep_start", total=total, workers=workers)
    return fold


def end_job(fold, index, status="ok", wall=0.5, error=None):
    """The events of job ``index`` completing with ``status``."""
    if status == "cached":
        fold.emit("cache_hit", job=index, wall_s=wall)
    else:
        fold.emit("attempt_end", job=index, outcome=status, wall_s=wall)
    fold.emit("job_end", job=index, status=status, error=error)


def end_sweep(fold):
    """``sweep_end`` with the fold's own counts, as the engine emits it."""
    tl = fold.timeline
    fold.emit("sweep_end", ok=tl.ok, failed=tl.failed, cached=tl.cached)
