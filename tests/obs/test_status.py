"""Live sweep telemetry: the status.json projection and its readers."""

import json

import pytest

from repro.obs.status import (
    STATE_DEGRADED,
    STATE_DONE,
    STATE_RUNNING,
    STATUS_FILENAME,
    STATUS_SCHEMA,
    format_status,
    load_status,
    resolve_status_path,
)

from .heartbeat import end_job, end_sweep, start_fold


class TestSweepStatusWriter:
    """The status file as written by the control-plane fold."""

    def test_initial_heartbeat_written_on_construction(self, tmp_path):
        # Construction of the sweep's record is its sweep_start event.
        path = tmp_path / "run" / STATUS_FILENAME
        start_fold(path, total=4, workers=2)
        payload = json.loads(path.read_text())
        assert payload["schema"] == STATUS_SCHEMA
        assert payload["state"] == STATE_RUNNING
        assert payload["total"] == 4
        assert payload["done"] == 0
        assert payload["eta_s"] is None

    def test_counts_ok_cached_failed_and_retries(self, tmp_path):
        path = tmp_path / STATUS_FILENAME
        fold = start_fold(path, total=3, figures=("fig1", "fig1", "fig5"))
        fold.emit("attempt_start", job=0, figure="fig1", attempt=1)
        assert json.loads(path.read_text())["current"] == ["fig1 seed=0"]
        end_job(fold, 0, "ok")
        end_job(fold, 1, "cached", wall=0.0)
        fold.emit("attempt_end", job=2, outcome="failed")
        fold.emit("retry_scheduled", job=2, figure="fig5", attempt=1)
        end_job(fold, 2, "failed", error="boom")
        payload = json.loads(path.read_text())
        assert payload["done"] == 3
        assert payload["ok"] == 1
        assert payload["cached"] == 1
        assert payload["failed"] == 1
        assert payload["retries"] == 1
        assert payload["current"] == []
        assert payload["last_error"] == "fig5 seed=0: boom"

    def test_finalize_states(self, tmp_path):
        fold = start_fold(tmp_path / "a.json", total=1)
        end_job(fold, 0, "ok")
        end_sweep(fold)
        assert json.loads(fold.status_path.read_text())["state"] == STATE_DONE

        fold = start_fold(tmp_path / "b.json", total=1)
        end_job(fold, 0, "failed", error="x")
        end_sweep(fold)
        assert (
            json.loads(fold.status_path.read_text())["state"]
            == STATE_DEGRADED
        )

    def test_eta_from_computed_durations_only(self, tmp_path):
        fold = start_fold(tmp_path / "s.json", total=4, workers=2)
        assert fold.timeline.eta_s() is None
        end_job(fold, 0, "cached", wall=0.0)
        assert fold.timeline.eta_s() is None  # cache hits carry no signal
        end_job(fold, 1, "ok", wall=2.0)
        # 2 jobs remain, mean 2.0s, 2 workers -> ~2s
        assert fold.timeline.eta_s() == pytest.approx(2.0)

    def test_heartbeat_failure_never_raises(self, tmp_path):
        run_dir = tmp_path / "run"
        fold = start_fold(run_dir / STATUS_FILENAME, total=2)
        fold.status_path = run_dir / "vanished" / STATUS_FILENAME
        end_job(fold, 0, "ok")  # must not raise
        end_job(fold, 1, "ok")
        end_sweep(fold)

    def test_no_stale_tmp_files_left_behind(self, tmp_path):
        fold = start_fold(tmp_path / STATUS_FILENAME, total=1)
        end_job(fold, 0, "ok")
        end_sweep(fold)
        assert [p.name for p in tmp_path.iterdir()] == [STATUS_FILENAME]


class TestReaders:
    def test_resolve_accepts_file_or_run_dir(self, tmp_path):
        start_fold(tmp_path / STATUS_FILENAME, total=1)
        assert resolve_status_path(tmp_path) == tmp_path / STATUS_FILENAME
        assert (
            resolve_status_path(tmp_path / STATUS_FILENAME)
            == tmp_path / STATUS_FILENAME
        )

    def test_missing_status_is_a_friendly_error(self, tmp_path):
        with pytest.raises(ValueError, match="repro obs tail"):
            resolve_status_path(tmp_path)
        with pytest.raises(ValueError, match="run directory"):
            resolve_status_path(tmp_path / "nope.json")

    def test_load_validates_schema(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"schema": "repro.runner/manifest/v3"}')
        with pytest.raises(ValueError, match="not a sweep status file"):
            load_status(path)

    def test_load_round_trip(self, tmp_path):
        fold = start_fold(tmp_path / STATUS_FILENAME, total=2)
        end_job(fold, 0, "ok")
        payload = load_status(fold.status_path)
        assert payload["done"] == 1 and payload["total"] == 2


class TestFormatStatus:
    def test_running_line_shows_current_and_eta(self):
        line = format_status(
            {
                "state": STATE_RUNNING,
                "total": 10,
                "done": 4,
                "ok": 3,
                "cached": 1,
                "failed": 0,
                "retries": 0,
                "current": ["fig5 seed=0", "fig6 seed=1", "fig1 seed=2"],
                "eta_s": 42.0,
            }
        )
        assert line.startswith("[4/10] ok=3 cached=1 failed=0")
        assert "running: fig5 seed=0, fig6 seed=1, +1 more" in line
        assert "eta ~42s" in line
        assert "retries" not in line

    def test_done_line_shows_elapsed(self):
        line = format_status(
            {
                "state": STATE_DONE,
                "total": 2,
                "done": 2,
                "ok": 2,
                "cached": 0,
                "failed": 0,
                "retries": 3,
                "elapsed_s": 12.34,
            }
        )
        assert "retries=3" in line
        assert "done in 12.3s" in line

    def test_long_eta_switches_to_minutes(self):
        line = format_status(
            {"state": STATE_RUNNING, "current": [], "eta_s": 300.0}
        )
        assert "eta ~5m" in line
