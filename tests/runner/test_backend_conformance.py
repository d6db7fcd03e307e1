"""Backend-conformance suite: every executor backend, one contract.

Each test runs the same sweep through :func:`repro.runner.run_jobs` on
every backend (serial, local-pool) and asserts identical *observable*
behavior: statuses, retry accounting, checkpoint/resume semantics, and
status-heartbeat events.  This is the suite that lets a future backend
(SSH, work queue) prove itself by passing unchanged.
"""

import json

import pytest

from repro import obs
from repro.runner import (
    RETRIES_COUNTER,
    STATUS_CACHED,
    STATUS_FAILED,
    STATUS_OK,
    STATUS_TIMEOUT,
    LocalPoolBackend,
    ResultCache,
    SerialBackend,
    make_job,
    run_jobs,
)
from repro.obs.sweeptrace import EVENTS_FILENAME, load_events

from .faulty import BOOM, DIE, FLAKY, SLEEPY, STEADY, registered

#: Backends every conformance test runs on.  ``isolating`` marks the
#: process-isolating ones — only they can survive a worker calling
#: ``os._exit`` or preempt a hung job mid-flight.
BACKENDS = {
    "serial": dict(isolating=False),
    "local-pool": dict(isolating=True),
}


def make_backend(name: str):
    if name == "serial":
        return SerialBackend()
    return LocalPoolBackend(workers=2)


def statuses(result):
    return {o.job.figure: o.record.status for o in result.outcomes}


@pytest.fixture(params=sorted(BACKENDS))
def backend_name(request):
    return request.param


class TestConformance:
    def test_ok_and_failed_cells_coexist(self, backend_name):
        with registered(BOOM, STEADY):
            result = run_jobs(
                [make_job("test-boom"), make_job("test-steady")],
                workers=2, backend=make_backend(backend_name),
            )
        assert statuses(result) == {
            "test-boom": STATUS_FAILED, "test-steady": STATUS_OK,
        }
        assert result.rows_for("test-steady") == [{"seed": 0, "value": 0}]
        (failure,) = result.failures
        assert "boom: intentional failure" in failure.record.error
        assert "ValueError" in failure.record.traceback
        assert failure.rows == []

    def test_backend_recorded_on_computed_records(self, backend_name):
        with registered(STEADY):
            result = run_jobs(
                [make_job("test-steady")], workers=2,
                backend=make_backend(backend_name),
            )
        (record,) = result.manifest.records
        assert record.backend == backend_name
        payload = json.loads(result.manifest.to_json())
        assert payload["jobs"][0]["backend"] == backend_name

    def test_timeout_is_recorded_and_charged(self, backend_name):
        with registered(SLEEPY, STEADY):
            result = run_jobs(
                [
                    make_job("test-sleepy", params={"sleep_s": 0.4}),
                    make_job("test-steady"),
                ],
                workers=2, timeout_s=0.15,
                backend=make_backend(backend_name),
            )
        assert statuses(result) == {
            "test-sleepy": STATUS_TIMEOUT, "test-steady": STATUS_OK,
        }
        (failure,) = result.failures
        assert "timeout" in failure.record.error

    def test_flaky_job_succeeds_on_retry(self, backend_name, tmp_path):
        marker = tmp_path / "attempted"
        with registered(FLAKY):
            job = make_job("test-flaky", params={"marker": str(marker)})
            with obs.capture() as cap:
                result = run_jobs(
                    [job], workers=2, retries=1, backoff=0.001,
                    backend=make_backend(backend_name),
                )
        (record,) = result.manifest.records
        assert record.status == STATUS_OK
        assert record.attempts == 2
        counters = cap.registry.snapshot()["counters"]
        assert counters[f"{RETRIES_COUNTER}{{figure=test-flaky}}"] == 1

    def test_retry_budget_is_bounded(self, backend_name):
        with registered(BOOM):
            with obs.capture() as cap:
                result = run_jobs(
                    [make_job("test-boom")], workers=2, retries=2,
                    backoff=0.001, backend=make_backend(backend_name),
                )
        (record,) = result.manifest.records
        assert record.status == STATUS_FAILED
        assert record.attempts == 3  # 1 initial + 2 retries
        counters = cap.registry.snapshot()["counters"]
        assert counters[f"{RETRIES_COUNTER}{{figure=test-boom}}"] == 2

    def test_checkpoint_resume_mid_sweep(self, backend_name, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        checkpoint = tmp_path / "manifest.json"
        marker = tmp_path / "attempted"
        with registered(FLAKY, STEADY):
            jobs = [make_job("test-flaky", params={"marker": str(marker)}),
                    make_job("test-steady")]
            degraded = run_jobs(
                jobs, workers=2, cache=cache, checkpoint=checkpoint,
                backend=make_backend(backend_name),
            )
            assert not degraded.ok
            assert marker.exists()
            # The marker "fixes" flaky; resume recomputes only it.
            resumed = run_jobs(
                jobs, workers=2, cache=cache, resume_from=checkpoint,
                backend=make_backend(backend_name),
            )
        by_figure = {r.figure: r for r in resumed.manifest.records}
        assert by_figure["test-steady"].status == STATUS_CACHED
        assert by_figure["test-steady"].cached
        assert by_figure["test-flaky"].status == STATUS_OK
        assert resumed.ok

    def test_status_heartbeats_fire(self, backend_name, tmp_path):
        from repro.obs.status import load_status

        status_path = tmp_path / "status.json"
        marker = tmp_path / "attempted"
        with registered(FLAKY, STEADY):
            run_jobs(
                [
                    make_job("test-flaky", params={"marker": str(marker)}),
                    make_job("test-steady"),
                ],
                workers=2, retries=1, backoff=0.001,
                status_path=status_path,
                backend=make_backend(backend_name),
            )
        final = load_status(status_path)
        assert final["state"] == "done"
        assert final["total"] == 2
        assert final["done"] == 2
        assert final["retries"] == 1
        assert final["backend"] == backend_name
        assert final["current"] == []

    def test_streamed_rows_match_in_memory(self, backend_name, tmp_path):
        with registered(STEADY):
            jobs = [make_job("test-steady", seed=s) for s in range(3)]
            plain = run_jobs(
                jobs, workers=2, backend=make_backend(backend_name),
            )
            streamed = run_jobs(
                jobs, workers=2, backend=make_backend(backend_name),
                stream_rows=tmp_path / "rows", chunk_rows=1,
            )
        for left, right in zip(plain.outcomes, streamed.outcomes):
            assert right.record.row_chunks, "streamed record lists chunks"
            assert left.rows == right.rows
            assert left.rows.to_csv() == right.rows.to_csv()
            assert left.record.verdict == right.record.verdict


@pytest.mark.parametrize(
    "backend_name",
    [name for name, props in sorted(BACKENDS.items()) if props["isolating"]],
)
class TestProcessIsolation:
    """Contracts only process-isolating backends can honor.

    The serial backend shares its process with the supervisor, so a
    worker calling ``os._exit`` would kill the whole sweep — these cases
    are exactly why ``local-pool`` exists.
    """

    def test_dying_worker_convicted_bystander_survives(self, backend_name):
        with registered(DIE, STEADY):
            result = run_jobs(
                [make_job("test-die"), make_job("test-steady")],
                workers=2, backend=make_backend(backend_name),
            )
        assert statuses(result) == {
            "test-die": STATUS_FAILED, "test-steady": STATUS_OK,
        }
        (failure,) = result.failures
        assert "worker process died" in failure.record.error
        # The innocent bystander kept its rows and was never charged.
        assert result.rows_for("test-steady") == [{"seed": 0, "value": 0}]
        by_figure = {r.figure: r for r in result.manifest.records}
        assert by_figure["test-steady"].attempts == 1

    def test_dying_worker_retry_budget_applies(self, backend_name):
        with registered(DIE):
            result = run_jobs(
                [make_job("test-die")], workers=2, retries=1, backoff=0.001,
                backend=make_backend(backend_name),
            )
        (record,) = result.manifest.records
        assert record.status == STATUS_FAILED
        assert record.attempts == 2

    def test_timeout_kill_leaves_running_sibling_alone(
        self, backend_name, tmp_path
    ):
        # Two workers: the hung job holds one; the other runs two 0.6 s
        # cells back to back, so the second is mid-flight when the hung
        # job's 1 s timeout kill lands.
        events_path = tmp_path / EVENTS_FILENAME
        with registered(SLEEPY):
            result = run_jobs(
                [
                    make_job("test-sleepy", params={"sleep_s": 30.0}),
                    make_job("test-sleepy", seed=1, params={"sleep_s": 0.6}),
                    make_job("test-sleepy", seed=2, params={"sleep_s": 0.6}),
                ],
                workers=2, timeout_s=1.0, sweeptrace=events_path,
                backend=make_backend(backend_name),
            )
        hung, first, sibling = result.manifest.records
        assert hung.status == STATUS_TIMEOUT
        assert (first.status, sibling.status) == (STATUS_OK, STATUS_OK)
        assert sibling.attempts == 1
        events = load_events(events_path)
        starts = [
            e for e in events if e["ev"] == "attempt_start" and e["job"] == 2
        ]
        assert len(starts) == 1
        assert not [
            e for e in events
            if e["ev"] == "attempt_end" and e.get("outcome") == "preempted"
        ]

    def test_dying_worker_sibling_is_not_rerun(self, backend_name, tmp_path):
        events_path = tmp_path / EVENTS_FILENAME
        with registered(DIE, SLEEPY):
            result = run_jobs(
                [
                    make_job("test-die"),
                    make_job("test-sleepy", params={"sleep_s": 0.5}),
                ],
                workers=2, sweeptrace=events_path,
                backend=make_backend(backend_name),
            )
        assert statuses(result) == {
            "test-die": STATUS_FAILED, "test-sleepy": STATUS_OK,
        }
        starts = [
            e for e in load_events(events_path)
            if e["ev"] == "attempt_start" and e["job"] == 1
        ]
        assert len(starts) == 1

    def test_dying_jobs_never_abort_the_sweep(self, backend_name):
        # Each death is its own job's fault and charged to it, so a grid
        # of crashing cells degrades instead of aborting.
        with registered(DIE):
            result = run_jobs(
                [make_job("test-die", seed=s) for s in range(6)],
                workers=2, backend=make_backend(backend_name),
            )
        assert [r.status for r in result.manifest.records] == [
            STATUS_FAILED
        ] * 6
        assert all(r.attempts == 1 for r in result.manifest.records)
