"""CLI surface of the cross-run observability layer.

``repro report``, ``repro obs tail``, and the v3-aware ``repro obs``
manifest summary — plus the status.json heartbeat a real ``repro sweep``
leaves behind.
"""

import json
import shutil
from pathlib import Path

from repro.cli import main
from repro.obs.status import STATUS_FILENAME, snapshot

from .heartbeat import end_job, end_sweep, start_fold

DATA = Path(__file__).parent / "data"


class TestReportCommand:
    def test_report_on_v3_run_dir(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main([
            "report", str(DATA / "run_v3"), "--out-dir", str(out),
        ]) == 0
        assert (out / "report.md").exists()
        assert (out / "report.html").exists()
        stdout = capsys.readouterr().out
        assert "requirement-class checks met" in stdout
        # the written files are stamped, the body matches the golden
        body = (out / "report.md").read_text()
        assert "## Figure status" in body
        assert "*Generated " in body

    def test_report_on_v2_manifest_file(self, tmp_path):
        run_dir = tmp_path / "run"
        shutil.copytree(DATA / "run_v2", run_dir)
        assert main(["report", str(run_dir / "manifest.json")]) == 0
        assert (run_dir / "report.html").exists()

    def test_report_missing_run_dir_is_usage_error(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "nowhere")]) == 2
        err = capsys.readouterr().err
        assert "no manifest at" in err
        assert "Traceback" not in err


class TestObsTail:
    def test_missing_status_is_friendly(self, tmp_path, capsys):
        assert main(["obs", "tail", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "repro:" in err
        assert "run directory" in err
        assert "Traceback" not in err

    def test_tail_prints_one_status_line(self, tmp_path, capsys):
        fold = start_fold(tmp_path / STATUS_FILENAME, total=2, workers=1)
        end_job(fold, 0, "ok", wall=0.4)
        end_sweep(fold)
        assert main(["obs", "tail", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "[1/2] ok=1 cached=0 failed=0" in out

    def test_tail_exit_degraded_on_failures(self, tmp_path, capsys):
        fold = start_fold(tmp_path / STATUS_FILENAME, total=1,
                          figures=("fig6",))
        end_job(fold, 0, "failed", wall=0.4, error="boom")
        end_sweep(fold)
        assert main(["obs", "tail", str(tmp_path / STATUS_FILENAME)]) == 3


class TestObsSummaryV3:
    def test_summary_understands_v3_fields(self, capsys):
        manifest = DATA / "run_v3" / "manifest.json"
        assert main(["obs", str(manifest)]) == 0
        out = capsys.readouterr().out
        assert (
            "4 job(s): 2 ok, 1 cached, 1 failed, 3 retry attempt(s); "
            "1 with observability data"
        ) in out
        assert "fig6 seed=0: FAILED after 3 attempt(s): ValueError: boom" in out
        # histograms listed in sorted key order
        body = out[out.index("histograms:"):]
        assert body.index("fieldbus.cycle_ns") < body.index("net.port.tx_ns")

    def test_summary_reads_v2_manifest(self, capsys):
        manifest = DATA / "run_v2" / "manifest.json"
        assert main(["obs", str(manifest)]) == 0
        out = capsys.readouterr().out
        assert "2 job(s): 1 ok, 1 cached, 0 failed" in out
        assert "retry attempt" not in out


class TestSweepHeartbeat:
    def test_sweep_writes_status_next_to_manifest(self, tmp_path):
        manifest = tmp_path / "run" / "manifest.json"
        assert main([
            "sweep", "fig1", "--no-cache", "--jobs", "1",
            "--manifest", str(manifest),
        ]) == 0
        status = json.loads((tmp_path / "run" / STATUS_FILENAME).read_text())
        assert status["schema"] == "repro.obs/status/v1"
        assert status["state"] == "done"
        assert status["total"] == 1
        assert status["done"] == 1 and status["ok"] == 1

    def test_no_status_flag_suppresses_heartbeat(self, tmp_path):
        manifest = tmp_path / "run" / "manifest.json"
        assert main([
            "sweep", "fig1", "--no-cache", "--jobs", "1",
            "--manifest", str(manifest), "--no-status",
        ]) == 0
        assert not (tmp_path / "run" / STATUS_FILENAME).exists()

    def test_explicit_status_path_wins(self, tmp_path):
        target = tmp_path / "elsewhere" / "live.json"
        assert main([
            "sweep", "fig1", "--no-cache", "--jobs", "1",
            "--manifest", str(tmp_path / "run" / "manifest.json"),
            "--status", str(target),
        ]) == 0
        assert json.loads(target.read_text())["state"] == "done"

    def test_last_error_names_the_failing_param_cell(self, tmp_path):
        # A --param grid over one figure: only the params tell its cells
        # apart, so last_error carries them like the in-flight labels.
        from ..runner.faulty import FLAKY, registered

        fixed, broken = tmp_path / "fixed", tmp_path / "broken"
        fixed.write_text("")
        with registered(FLAKY):
            code = main([
                "sweep", "test-flaky", "--no-cache", "--jobs", "1",
                "--param", f"marker={fixed},{broken}",
                "--manifest", str(tmp_path / "run" / "manifest.json"),
            ])
        assert code == 3
        status = json.loads((tmp_path / "run" / STATUS_FILENAME).read_text())
        assert (status["ok"], status["failed"]) == (1, 1)
        assert status["last_error"].startswith(
            f"test-flaky seed=0 marker={broken}: "
        )
        assert "flaky: first attempt fails" in status["last_error"]

class TestObsTailFollowReplace:
    def test_follow_survives_atomic_replacement_and_reloads(
        self, tmp_path, capsys
    ):
        import os
        import threading

        path = tmp_path / STATUS_FILENAME
        running = start_fold(path, total=1, workers=1)

        def replace_with_finished():
            # Simulate a second writer atomically replacing the status
            # file (new inode) while the follower is mid-poll.
            done = start_fold(tmp_path / "next.json", total=1, workers=1)
            end_job(done, 0, "ok", wall=0.1)
            end_sweep(done)
            os.replace(tmp_path / "next.json", path)

        timer = threading.Timer(0.25, replace_with_finished)
        timer.start()
        try:
            code = main([
                "obs", "tail", str(tmp_path), "--follow",
                "--interval", "0.05",
            ])
        finally:
            timer.cancel()
        assert code == 0
        out = capsys.readouterr().out
        # Both generations printed: the running one and the replacement.
        assert "[0/1]" in out
        assert "[1/1] ok=1" in out
        assert "done" in out
        # original writer untouched
        assert snapshot(running.timeline)["state"] == "running"

    def test_follow_tolerates_briefly_missing_file(self, tmp_path, capsys):
        import threading

        path = tmp_path / STATUS_FILENAME
        start_fold(path, total=1, workers=1)

        def vanish_then_return():
            path.unlink()
            fold = start_fold(path, total=1, workers=1)
            end_job(fold, 0, "ok", wall=0.1)
            end_sweep(fold)

        timer = threading.Timer(0.25, vanish_then_return)
        timer.start()
        try:
            code = main([
                "obs", "tail", str(tmp_path), "--follow",
                "--interval", "0.05",
            ])
        finally:
            timer.cancel()
        assert code == 0
        assert "done" in capsys.readouterr().out


class TestTelemetryCli:
    def run_sweep(self, tmp_path, name):
        run_dir = tmp_path / name
        assert main([
            "sweep", "fig5", "--seeds", "0",
            "--param", "duration_ms=600",
            "--jobs", "1", "--no-cache", "--no-status",
            "--manifest", str(run_dir / "manifest.json"),
            "--telemetry", "--telemetry-interval", "8",
        ]) == 0
        return run_dir

    def test_sweep_telemetry_writes_artifacts_and_manifest_digest(
        self, tmp_path, capsys
    ):
        run_dir = self.run_sweep(tmp_path, "run")
        capsys.readouterr()
        telemetry_dir = run_dir / "telemetry"
        snapshots = sorted(telemetry_dir.glob("*.telemetry.json"))
        postcards = sorted(telemetry_dir.glob("*.postcards.jsonl"))
        assert len(snapshots) == 1 and len(postcards) == 1
        job = json.loads(
            (run_dir / "manifest.json").read_text()
        )["jobs"][0]
        assert job["telemetry"]["postcards"] > 0
        assert job["telemetry"]["top_queues"] is not None
        assert job["telemetry_path"] == str(snapshots[0])

    def test_telemetry_output_is_byte_stable_for_fixed_seed(self, tmp_path):
        run_a = self.run_sweep(tmp_path, "a")
        run_b = self.run_sweep(tmp_path, "b")
        for suffix in ("*.telemetry.json", "*.postcards.jsonl"):
            (file_a,) = (run_a / "telemetry").glob(suffix)
            (file_b,) = (run_b / "telemetry").glob(suffix)
            assert file_a.read_bytes() == file_b.read_bytes(), suffix

    def test_obs_telemetry_and_flight_render(self, tmp_path, capsys):
        run_dir = self.run_sweep(tmp_path, "run")
        capsys.readouterr()
        assert main([
            "obs", "telemetry", str(run_dir / "telemetry"),
        ]) == 0
        out = capsys.readouterr().out
        assert "postcards:" in out
        assert "samplers:" in out
        assert main(["obs", "flight", str(run_dir / "telemetry")]) == 0
        assert "snapshots" in capsys.readouterr().out

    def test_obs_telemetry_missing_path_is_friendly(self, tmp_path, capsys):
        assert main(["obs", "telemetry", str(tmp_path / "nope")]) == 2
        err = capsys.readouterr().err
        assert "repro:" in err and "Traceback" not in err

    def test_report_includes_network_telemetry_section(
        self, tmp_path, capsys
    ):
        run_dir = self.run_sweep(tmp_path, "run")
        assert main(["report", str(run_dir)]) == 0
        capsys.readouterr()
        assert "## Network telemetry" in (run_dir / "report.md").read_text()


class TestSweepTimelineCli:
    def run_sweep(self, tmp_path, name="run", *extra):
        run_dir = tmp_path / name
        assert main([
            "sweep", "fig1", "--seeds", "0,1",
            "--jobs", "1", "--no-cache", "--no-status",
            "--manifest", str(run_dir / "manifest.json"),
            "--sweeptrace", *extra,
        ]) == 0
        return run_dir

    def test_sweeptrace_writes_events_next_to_manifest(self, tmp_path):
        from repro.obs.sweeptrace import EVENTS_FILENAME, load_events

        run_dir = self.run_sweep(tmp_path)
        events = load_events(run_dir / EVENTS_FILENAME)
        assert events[0]["ev"] == "sweep_start"
        assert events[-1]["ev"] == "sweep_end"
        jobs = json.loads((run_dir / "manifest.json").read_text())["jobs"]
        assert all(job["span"] for job in jobs)
        assert all(job["queue_s"] is not None for job in jobs)

    def test_explicit_sweeptrace_path_wins(self, tmp_path):
        target = tmp_path / "elsewhere" / "trace.jsonl"
        self.run_sweep(tmp_path, "run", str(target))
        assert target.exists()

    def test_obs_timeline_renders_phases_and_critical_path(
        self, tmp_path, capsys
    ):
        run_dir = self.run_sweep(tmp_path)
        capsys.readouterr()
        assert main(["obs", "timeline", str(run_dir)]) == 0
        out = capsys.readouterr().out
        assert "Sweep timeline — trace" in out
        assert "Where the time went (critical path):" in out
        assert "compute" in out and "total" in out
        assert "Critical path (" in out

    def test_obs_timeline_writes_merged_chrome(self, tmp_path, capsys):
        run_dir = self.run_sweep(tmp_path)
        merged = run_dir / "merged.trace.json"
        assert main([
            "obs", "timeline", str(run_dir), "--chrome", str(merged),
        ]) == 0
        assert "trace events" in capsys.readouterr().out
        payload = json.loads(merged.read_text())
        assert payload["traceEvents"]

    def test_obs_timeline_without_trace_is_friendly(self, tmp_path, capsys):
        tmp_path.joinpath("manifest.json").write_text("{}")
        assert main(["obs", "timeline", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "--sweeptrace" in err
        assert "Traceback" not in err


class TestObsSlowestJobs:
    def test_obs_accepts_run_directory(self, capsys):
        assert main(["obs", str(DATA / "run_v3")]) == 0
        out = capsys.readouterr().out
        assert "4 job(s)" in out

    def test_slowest_jobs_table_ranks_by_wall_time(self, capsys):
        assert main(["obs", str(DATA / "run_v3" / "manifest.json")]) == 0
        out = capsys.readouterr().out
        assert "slowest jobs:" in out
        table = out[out.index("slowest jobs:"):]
        header, *rows = [
            line.strip() for line in table.splitlines()[1:] if line.strip()
        ]
        assert header.split() == ["job", "wall", "attempts", "backend"]
        # non-cached records only, slowest first
        walls = []
        for row in rows[:3]:
            if "s" not in row:
                break
            walls.append(float(row.split()[-3].rstrip("s")))
        assert walls == sorted(walls, reverse=True)


class TestSweepHeartbeatUnperturbed:
    def test_results_unperturbed_by_heartbeat(self, tmp_path):
        with_status = tmp_path / "a" / "manifest.json"
        without = tmp_path / "b" / "manifest.json"
        assert main([
            "sweep", "fig1", "--no-cache", "--jobs", "1",
            "--manifest", str(with_status),
        ]) == 0
        assert main([
            "sweep", "fig1", "--no-cache", "--jobs", "1",
            "--manifest", str(without), "--no-status",
        ]) == 0
        a = json.loads(with_status.read_text())["jobs"][0]
        b = json.loads(without.read_text())["jobs"][0]
        assert a["key"] == b["key"]  # cache keys unchanged
        assert a["rows"] == b["rows"]
