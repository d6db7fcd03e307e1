"""The discrete-event simulator.

:class:`Simulator` owns the clock (integer nanoseconds, see
:mod:`repro.simcore.units`), a pluggable event-scheduler backend (see
:mod:`repro.simcore.events`), and a registry of named random streams.
Components interact with it in two styles:

1. **Callbacks** — ``sim.schedule(fn, after=delay)`` /
   ``sim.schedule(fn, at=t)``.
2. **Processes** — generator coroutines driven by :class:`Process`, which
   ``yield`` delays (``int`` nanoseconds) or :class:`Signal` objects.

Both styles coexist; the fieldbus and PLC models use processes for their
cyclic behaviour, while packet forwarding uses plain callbacks.

The event loop has two paths.  On the default calendar backend, with no
profiler attached and no tracer active, :meth:`Simulator.run` takes the
in-place loop: it pops the head event of the earliest instant straight
from the queue's buckets, fires it, recycles it into the scheduler's free
pool, and runs no observability code at all.  Every other case — the
heap backend, a foreign scheduler, a profiler or tracer — runs the
per-event ``peek_time``/``pop`` reference loop.  Both fire events in
``(time, priority, sequence)`` order.
"""

from __future__ import annotations

import heapq
import os
from typing import Any, Callable, Generator, Iterable

from ..obs import runtime as _obs
from ..obs.tracing import NULL_TRACER
from .events import (
    CalendarQueue,
    DEFAULT_SCHEDULER,
    Event,
    PRIORITY_NORMAL,
    Scheduler,
    _Bucket,
    _INLINE_REFS,
    _POOL_LIMIT,
    _bucket_key,
    _getrefcount,
    make_scheduler,
)
from .rng import RandomStreams
from .stats import SimStats, _register


def obs_trace_sink(time_ns: int, message: str) -> None:
    """Forward a trace message to the active observability tracer.

    This is the default :attr:`Simulator.default_sink`: with an
    :func:`repro.obs.capture` scope open, messages become instant events on
    the trace timeline; with observability off the active tracer is the
    null tracer and the call is a no-op (the documented ``NullSink``
    behaviour).
    """
    _obs.get_tracer().instant("sim.trace", message=message, sim_time_ns=time_ns)


class SimulationError(RuntimeError):
    """Raised for invalid simulator usage (e.g. scheduling in the past)."""


class Signal:
    """A broadcast condition that processes can wait on.

    ``wait()`` inside a process suspends it until someone calls
    :meth:`fire`.  The value passed to ``fire`` is delivered as the result of
    the ``yield``.
    """

    def __init__(self, sim: "Simulator", name: str = "") -> None:
        self._sim = sim
        self.name = name
        self._waiters: list[Process] = []

    def fire(self, value: Any = None) -> None:
        """Wake every waiting process at the current instant."""
        waiters, self._waiters = self._waiters, []
        for process in waiters:
            self._sim.schedule(lambda p=process: p._resume(value))

    def _register(self, process: "Process") -> None:
        self._waiters.append(process)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Signal({self.name!r}, waiters={len(self._waiters)})"


class Process:
    """A generator coroutine scheduled on the simulator.

    The generator may yield:

    - ``int`` — sleep that many nanoseconds;
    - :class:`Signal` — suspend until the signal fires;
    - ``None`` — yield the floor (resume at the same instant, after other
      pending events at this time).
    """

    def __init__(
        self,
        sim: "Simulator",
        generator: Generator[Any, Any, Any],
        name: str = "",
    ) -> None:
        self._sim = sim
        self._generator = generator
        self.name = name or repr(generator)
        self.alive = True
        self.result: Any = None
        self._pending_event: Event | None = None
        self.finished = Signal(sim, name=f"{self.name}/finished")

    def start(self) -> "Process":
        """Schedule the first step at the current instant."""
        self._pending_event = self._sim.schedule(lambda: self._resume(None))
        return self

    def stop(self) -> None:
        """Terminate the process without running it further."""
        if not self.alive:
            return
        self.alive = False
        if self._pending_event is not None:
            self._pending_event.cancel()
            self._pending_event = None
        self._generator.close()
        self.finished.fire(None)

    def _resume(self, value: Any) -> None:
        if not self.alive:
            return
        self._pending_event = None
        try:
            command = self._generator.send(value)
        except StopIteration as stop:
            self.alive = False
            self.result = stop.value
            self.finished.fire(stop.value)
            return
        self._dispatch(command)

    def _dispatch(self, command: Any) -> None:
        if command is None:
            self._pending_event = self._sim.schedule(
                lambda: self._resume(None)
            )
        elif isinstance(command, int):
            if command < 0:
                raise SimulationError(
                    f"process {self.name} yielded negative delay {command}"
                )
            self._pending_event = self._sim.schedule(
                lambda: self._resume(None), after=command
            )
        elif isinstance(command, Signal):
            command._register(self)
        else:
            raise SimulationError(
                f"process {self.name} yielded unsupported value {command!r}"
            )


class Simulator:
    """Deterministic discrete-event simulator with integer-ns time."""

    #: Where :meth:`trace` messages go when *no* trace hook is registered.
    #: Defaults to :func:`obs_trace_sink` (the active observability tracer,
    #: a no-op null sink when observability is off).  Assign a
    #: ``(time_ns, message)`` callable — on an instance or on the class —
    #: to redirect unhooked trace output, e.g. ``sim.default_sink = print``
    #: style debugging sinks.
    default_sink: Callable[[int, str], None] = staticmethod(obs_trace_sink)

    def __init__(
        self, seed: int = 0, *, scheduler: str | Scheduler | None = None
    ) -> None:
        self._now = 0
        if scheduler is None:
            scheduler = os.environ.get("REPRO_SIM_SCHEDULER", DEFAULT_SCHEDULER)
        if isinstance(scheduler, str):
            self.scheduler_name = scheduler
            self._queue: Scheduler = make_scheduler(scheduler)
        else:
            self.scheduler_name = type(scheduler).__name__
            self._queue = scheduler
        # Bound-method cache: schedule() is the hottest call in the repo
        # and the `self._queue.push` attribute chase shows up in profiles.
        self._push = self._queue.push
        self.streams = RandomStreams(seed=seed)
        self._running = False
        self._trace_hooks: list[Callable[[int, str], None]] = []
        #: Event-loop counters; aggregated across simulators by
        #: :func:`repro.simcore.stats.collect`.
        self.stats = SimStats(simulators=1)
        #: Per-callback wall-time attribution; ``None`` (the default)
        #: keeps the event loop on the unwrapped fast path.  Set by
        #: :meth:`repro.obs.Profiler.attach` or inherited from an open
        #: ``obs.capture(profile=True)`` scope at construction.
        self._profiler = _obs.profiler_for_new_sim()
        _register(self)

    @property
    def now(self) -> int:
        """Current simulated time in nanoseconds."""
        return self._now

    # -- scheduling ---------------------------------------------------------

    def schedule(
        self,
        target: Callable[[], Any],
        *,
        after: int | None = None,
        at: int | None = None,
        priority: int = PRIORITY_NORMAL,
    ) -> Event:
        """Schedule ``target`` (a zero-argument callable) and return its event.

        Exactly one of the keyword-only ``after`` (relative delay in ns)
        and ``at`` (absolute time in ns) selects the firing instant;
        giving neither fires at the current instant (``after=0``).
        ``priority`` breaks ties at equal times (lower fires first)::

            sim.schedule(fn)                     # now
            sim.schedule(fn, after=5 * MS)       # relative
            sim.schedule(fn, at=deadline_ns)     # absolute
            sim.schedule(fn, after=0, priority=PRIORITY_HIGH)

        The timing arguments are keyword-only: the positional form
        ``sim.schedule(delay, fn)`` raises :class:`TypeError`.
        """
        if after is not None:
            if at is not None:
                raise TypeError(
                    "schedule() takes either 'after' or 'at', not both"
                )
            if after < 0:
                raise SimulationError(f"negative delay {after}")
            time = self._now + after
        elif at is not None:
            if at < self._now:
                raise SimulationError(
                    f"cannot schedule at {at}, current time is {self._now}"
                )
            time = at
        else:
            time = self._now
        self.stats.events_scheduled += 1
        return self._push(time, target, priority)

    def process(
        self, generator: Generator[Any, Any, Any], name: str = ""
    ) -> Process:
        """Wrap ``generator`` as a :class:`Process` and start it."""
        self.stats.processes_started += 1
        return Process(self, generator, name=name).start()

    def signal(self, name: str = "") -> Signal:
        """Create a :class:`Signal` bound to this simulator."""
        return Signal(self, name=name)

    # -- execution ----------------------------------------------------------

    def run(self, until: int | None = None) -> int:
        """Execute events until the queue drains or ``until`` is reached.

        Returns the final simulated time.  With ``until`` given, time
        advances exactly to ``until`` even if the queue drains earlier, so
        repeated ``run`` calls compose predictably.
        """
        if self._running:
            raise SimulationError("simulator is already running")
        if until is not None and until < self._now:
            raise SimulationError(
                f"cannot run until {until}, current time is {self._now}"
            )
        self._running = True
        # Snapshot per-run observability state (attaching mid-run takes
        # effect on the next `run` call).
        profiler = self._profiler
        tracer = _obs.get_tracer()
        executed = 0
        queue = self._queue
        try:
            if (
                profiler is None
                and tracer is NULL_TRACER
                and queue.__class__ is CalendarQueue
                and _getrefcount is not None
            ):
                executed = self._run_calendar(queue, until)
                if until is not None and until > self._now:
                    self._now = until
            else:
                executed = self._run_reference(until, profiler, tracer)
        finally:
            self._running = False
            self.stats.events_executed += executed
            self.stats.sim_time_ns = self._now
        return self._now

    def _run_calendar(self, queue: CalendarQueue, until: int | None) -> int:
        """Uninstrumented loop: pop the head event in place, recycle it.

        Each step takes exactly the event :meth:`CalendarQueue.pop` would
        return, straight from the queue's buckets, so the firing order is
        the reference order.  A same-instant push from a callback lands in
        the live bucket and is sorted into its unfired tail on the next
        step; a callback that raises leaves the rest of its instant queued.
        """
        times = queue._times
        buckets = queue._buckets
        free = queue._free
        heappop = heapq.heappop
        grc = _getrefcount
        executed = 0
        while times:
            time = times[0]
            if until is not None and time > until:
                break
            event = buckets[time]
            if event.__class__ is _Bucket:
                bucket = event
                events = bucket.events
                head = bucket.head
                if head == len(events):
                    # Every event of the instant is gone: retire it.
                    heappop(times)
                    del buckets[time]
                    continue
                if not bucket.ordered:
                    # No local may keep the sorted tail: it would pin the
                    # events and defeat the refcount guard below.
                    events[head:] = sorted(events[head:], key=_bucket_key)
                    bucket.ordered = True
                event = events[head]
                events[head] = None
                bucket.head = head + 1
            else:
                heappop(times)
                del buckets[time]
            if not event.cancelled:
                self._now = time
                event.callback()
                executed += 1
            # Inlined reclaim (see events._INLINE_REFS): pool the event
            # unless outside code still holds a reference to it.
            if grc(event) == _INLINE_REFS:
                event.callback = None
                if len(free) < _POOL_LIMIT:
                    free.append(event)
        return executed

    def _run_reference(self, until: int | None, profiler, tracer) -> int:
        """Per-event ``peek_time``/``pop`` loop on any :class:`Scheduler`.

        Runs every case :meth:`_run_calendar` does not cover: the heap
        backend, a foreign scheduler, an attached profiler or active
        tracer, or an interpreter without ``sys.getrefcount``.  It is the
        reference the heap/calendar equivalence suite compares against.
        """
        queue = self._queue
        executed = 0
        span = tracer.span("sim.run", start_ns=self._now, until_ns=until)
        with span:
            while True:
                next_time = queue.peek_time()
                if next_time is None:
                    break
                if until is not None and next_time > until:
                    break
                event = queue.pop()
                self._now = event.time
                executed += 1
                if profiler is None:
                    event.callback()
                else:
                    profiler.run_event(event.callback)
            if until is not None and until > self._now:
                self._now = until
            span.set(
                end_ns=self._now,
                events=self.stats.events_executed + executed,
            )
        return executed

    def step(self) -> bool:
        """Execute a single event.  Returns ``False`` if the queue is empty."""
        try:
            event = self._queue.pop()
        except IndexError:
            return False
        self._now = event.time
        self.stats.events_executed += 1
        self.stats.sim_time_ns = self._now
        if self._profiler is None:
            event.callback()
        else:
            self._profiler.run_event(event.callback)
        return True

    @property
    def pending_events(self) -> int:
        """Number of live events waiting in the queue."""
        return len(self._queue)

    # -- tracing ------------------------------------------------------------

    def add_trace_hook(self, hook: Callable[[int, str], None]) -> None:
        """Register a ``hook(time_ns, message)`` called by :meth:`trace`.

        Hooks are invoked in registration order.  While at least one hook
        is registered, hooks replace :attr:`default_sink`.
        """
        self._trace_hooks.append(hook)

    def trace(self, message: str) -> None:
        """Emit a trace message.

        With hooks registered, every hook receives ``(now, message)`` in
        registration order.  With none, the message goes to
        :attr:`default_sink` instead of being silently dropped — by default
        that routes it into the observability layer (an instant event on
        the active tracer; a no-op when observability is off).
        """
        hooks = self._trace_hooks
        if hooks:
            for hook in hooks:
                hook(self._now, message)
        else:
            self.default_sink(self._now, message)


def every(
    sim: Simulator,
    period: int,
    action: Callable[[], Any],
    start: int = 0,
    jitter_fn: Callable[[], int] | None = None,
) -> Process:
    """Start a process that invokes ``action`` every ``period`` ns.

    ``jitter_fn``, when given, returns an extra (non-negative) delay added to
    each activation — used to model release jitter of periodic tasks.
    """

    def _loop() -> Iterable[Any]:
        if start:
            yield start
        while True:
            if jitter_fn is not None:
                extra = jitter_fn()
                if extra:
                    yield extra
                action()
                remaining = period - extra
                yield max(0, remaining)
            else:
                action()
                yield period

    return sim.process(_loop(), name=f"every({period})")
