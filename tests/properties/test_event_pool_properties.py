"""Event pooling never recycles a handle that outside code retains.

Both schedulers pool fired and cancelled events, guarded by a CPython
reference-count check.  These properties run random schedule/cancel
workloads that pile events onto shared instants, keep a random subset
of the returned :class:`Event` handles, and assert that no later
``schedule`` hands out a retained object and that every retained handle
keeps its order key — on the calendar queue's in-place run loop and on
the reference loop (heap backend, and calendar with a profiler).
"""

import random

import pytest

from repro.obs import Profiler
from repro.simcore import US, Simulator

LOOPS = ["calendar", "heap", "calendar-profiled"]


def run_workload(loop, seed, budget=400):
    rng = random.Random(seed)
    backend, _, profiled = loop.partition("-")
    sim = Simulator(scheduler=backend)
    if profiled:
        Profiler().attach(sim)
    retained = []  # (event, (time, priority, sequence)) at schedule time
    issued = recycled = 0

    def issue(**when):
        nonlocal issued, recycled
        issued += 1
        recycled += bool(sim._queue._free)  # push takes from the pool
        event = sim.schedule(
            action, priority=rng.choice((-10, 0, 0, 10)), **when
        )
        assert all(event is not kept for kept, _ in retained)
        if rng.random() < 0.3:
            retained.append((event, (event.time, event.priority, event.sequence)))
        roll = rng.random()
        if roll < 0.15:
            event.cancel()  # possibly dropped: the pool may take it
        elif roll < 0.3 and retained:
            rng.choice(retained)[0].cancel()  # retained, pending or fired

    def action():
        for _ in range(rng.randrange(3)):
            if issued < budget:
                issue(after=rng.choice((0, 0, 1 * US, 2 * US)))

    for _ in range(40):
        issue(at=rng.randrange(8) * US)
    for until in (2 * US, 5 * US):
        sim.run(until=until)
    sim.run()
    return retained, recycled


@pytest.mark.parametrize("seed", range(3100, 3110))
@pytest.mark.parametrize("loop", LOOPS)
def test_retained_handles_are_never_recycled(loop, seed):
    retained, recycled = run_workload(loop, seed)
    assert retained and recycled, "workload exercised no pooling"
    for event, key in retained:
        assert (event.time, event.priority, event.sequence) == key
