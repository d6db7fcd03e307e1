"""Scheduler-backend equivalence properties.

The calendar queue is the default backend purely as an optimization: it
must be *observationally identical* to the reference binary heap.  These
properties drive both backends with the same randomized workloads and
assert the pop streams match element-for-element on the documented total
order ``(time, priority, sequence)`` — including under cancellation and
interleaved pops.  Whole-``Simulator`` runs compare the calendar queue's
in-place run loop against the heap backend's reference loop.
"""

import itertools
import random

import pytest

from repro.simcore import MS, US, Simulator
from repro.simcore.events import CalendarQueue, EventQueue, make_scheduler

TRIALS = 20


def trial_seeds(start):
    return [start + trial for trial in range(TRIALS)]


def random_workload(rng, size=200):
    """Replayable push/pop/cancel script exercising dense time collisions."""
    ops = []
    live = 0
    for tag in range(size):
        choice = rng.random()
        if choice < 0.55 or live == 0:
            # Small time range on purpose: many same-timestamp buckets.
            ops.append(
                ("push", rng.randrange(40), rng.choice((-10, -10, 0, 0, 0, 10)), tag)
            )
            live += 1
        elif choice < 0.75:
            pushes = [op for op in ops if op[0] == "push"]
            ops.append(("cancel", rng.choice(pushes)[3]))
        else:
            ops.append(("pop",))
            live = max(0, live - 1)
    return ops


def drive(backend, ops):
    """Apply a workload; return the popped (time, priority, sequence, tag)s."""
    queue = backend()
    events = {}
    popped = []
    for op in ops:
        if op[0] == "push":
            _, time, priority, tag = op
            events[tag] = queue.push(
                time, callback=lambda t=tag: t, priority=priority
            )
        elif op[0] == "cancel":
            events[op[1]].cancel()
        else:
            try:
                event = queue.pop()
            except IndexError:
                popped.append(None)
            else:
                popped.append(
                    (event.time, event.priority, event.sequence, event.callback())
                )
    while queue:
        event = queue.pop()
        popped.append(
            (event.time, event.priority, event.sequence, event.callback())
        )
    return popped


class TestBackendEquivalence:
    @pytest.mark.parametrize("seed", trial_seeds(9000))
    def test_identical_pop_order_under_random_workloads(self, seed):
        ops = random_workload(random.Random(seed))
        assert drive(EventQueue, ops) == drive(CalendarQueue, ops), (
            f"trial seed {seed}"
        )

    @pytest.mark.parametrize("seed", trial_seeds(9900)[:8])
    def test_full_simulator_runs_identically_on_both_backends(self, seed):
        def run(backend_name):
            rng = random.Random(seed)
            sim = Simulator(scheduler=backend_name)
            # Three events start at each of six instants; the run()
            # boundaries below land on two of them.
            instants = sorted(rng.sample(range(0, 2 * MS, 50 * US), 6))
            ids = itertools.count()
            pending = {}
            fired = []
            cancels = []

            def schedule(depth, **when):
                tag = next(ids)
                event = sim.schedule(
                    lambda: tick(tag, depth),
                    priority=rng.choice((-10, 0, 10)),
                    **when,
                )
                if depth < 4:
                    # Only rescheduled events are cancel targets, so the
                    # three starts at each run() boundary always fire.
                    pending[tag] = event

            def tick(tag, depth):
                pending.pop(tag, None)
                fired.append((sim.now, tag))
                if pending and rng.random() < 0.4:
                    # In-callback cancel of a same-instant or future event.
                    tags = sorted(pending)
                    now_tags = [t for t in tags if pending[t].time == sim.now]
                    if now_tags and rng.random() < 0.5:
                        tags = now_tags
                    event = pending.pop(rng.choice(tags))
                    cancels.append(event.time == sim.now)
                    event.cancel()
                if depth > 0:
                    # Same-instant and future reschedules, mixed priorities.
                    schedule(depth - 1, after=rng.choice((0, 0, 3 * US, 7 * US)))

            for at in instants * 3:
                schedule(4, at=at)
            for until in (instants[1], instants[3], 5 * MS):
                sim.run(until=until)
                fired.append(("run", sim.now))
            return fired, cancels, sim.stats.events_executed

        heap_run = run("heap")
        calendar_run = run("calendar")
        assert heap_run == calendar_run, f"trial seed {seed}"
        cancels = heap_run[1]
        assert True in cancels and False in cancels, f"trial seed {seed}"


class TestTelemetryEquivalence:
    """Backend equivalence extends to the in-band telemetry plane.

    The telemetry rings record ``(sim.now, value)`` pairs from event
    callbacks, so any backend-dependent reordering — especially inside
    the calendar queue's same-timestamp buckets — would surface as a
    ring-content diff.  These workloads pile events onto identical
    timestamps straddling bucket promotions (single Event -> _Bucket)
    and assert the rings match bit for bit.
    """

    def _drive(self, backend_name, seed):
        from repro.obs.telemetry import RingSampler

        rng = random.Random(seed)
        sim = Simulator(scheduler=backend_name)
        ring = RingSampler("equiv", capacity=64)
        order = []

        def record(tag):
            order.append(tag)
            ring.record(sim.now, tag)

        # Dense collisions: 40 events over only 5 distinct timestamps,
        # mixed priorities, plus same-instant reschedules (an event at
        # time T scheduling another event at time T crosses the bucket's
        # consumed/pending boundary mid-drain).
        instants = [0, 1, 1, 2, 5]
        for tag in range(40):
            at = rng.choice(instants)
            priority = rng.choice((-10, 0, 10))
            if tag % 7 == 0:
                sim.schedule(
                    lambda t=tag: (
                        record(t),
                        sim.schedule(lambda t2=t: record(t2 + 1000), after=0),
                    ),
                    at=at, priority=priority,
                )
            else:
                sim.schedule(lambda t=tag: record(t), at=at, priority=priority)
        sim.run()
        return order, ring.snapshot()

    @pytest.mark.parametrize("seed", trial_seeds(7700)[:8])
    def test_ring_contents_identical_across_backends(self, seed):
        heap_order, heap_ring = self._drive("heap", seed)
        cal_order, cal_ring = self._drive("calendar", seed)
        assert heap_order == cal_order, f"trial seed {seed}"
        assert heap_ring == cal_ring, f"trial seed {seed}"

    def test_identical_timestamp_flood_decimates_identically(self):
        # Everything at t=0: the pathological single-bucket case.
        from repro.obs.telemetry import RingSampler

        def run(backend_name):
            sim = Simulator(scheduler=backend_name)
            ring = RingSampler("flood", capacity=8)
            for tag in range(100):
                sim.schedule(lambda t=tag: ring.record(sim.now, t), at=0)
            sim.run()
            return ring.snapshot()

        assert run("heap") == run("calendar")


class TestSchedulerFactory:
    def test_make_scheduler_knows_both_backends(self):
        assert isinstance(make_scheduler("heap"), EventQueue)
        assert isinstance(make_scheduler("calendar"), CalendarQueue)

    def test_make_scheduler_rejects_unknown_names(self):
        with pytest.raises(ValueError, match="heap"):
            make_scheduler("splay-tree")

    def test_simulator_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_SCHEDULER", "heap")
        assert Simulator().scheduler_name == "heap"
        monkeypatch.delenv("REPRO_SIM_SCHEDULER")
        assert Simulator().scheduler_name == "calendar"
