"""Event scheduling backends for the discrete-event simulator.

Events are totally ordered by ``(time, priority, sequence)``.  The
monotonically increasing sequence number makes ordering *total* and
therefore deterministic: two events scheduled for the same instant and
priority always fire in scheduling order, independent of backend
internals.

Two interchangeable backends implement the :class:`Scheduler` protocol:

- :class:`EventQueue` — the reference backend, a single binary heap.
  Simple, obviously correct, O(log n) per operation.
- :class:`CalendarQueue` — the default backend, a bucket (calendar)
  queue: events are grouped into per-timestamp buckets and only the
  *distinct timestamps* live in a small heap.  Pushing into an existing
  bucket is O(1), popping is O(1) amortized, and no Python-level
  ``Event`` comparisons happen at all — the heap holds bare integers.
  Both backends pop in exactly the same ``(time, priority, sequence)``
  order; ``tests/properties`` asserts the equivalence on randomized
  workloads.

The simulator consumes a backend in one of two ways.  Its reference loop
calls ``peek_time``/``pop`` one event at a time and works on any
backend.  Its in-place loop, taken only for :class:`CalendarQueue`,
reads the bucket table directly and takes the head event of the earliest
instant — the event ``pop`` would return — so a same-instant push from a
callback simply joins the live bucket.

Both backends maintain a free list of fired :class:`Event` objects so
steady-state simulation allocates no new events.  Recycling is guarded
by a CPython reference-count check (``reclaim``, and its copy inlined in
the in-place loop): an event is only returned to the pool when no
outside code still holds it, so a retained handle (e.g. a watchdog's
pending-timeout event) is never reused under the holder's feet.
"""

from __future__ import annotations

import heapq
import sys
from typing import Any, Callable, Protocol, runtime_checkable

#: Default scheduling priority.  Lower values fire first at equal times.
PRIORITY_NORMAL = 0

#: Priority for housekeeping that must run before normal events at an instant
#: (e.g. TSN gate state changes must precede transmissions at the same tick).
PRIORITY_HIGH = -10

#: Priority for observers that must see the final state of an instant.
PRIORITY_LOW = 10


class Event:
    """A scheduled callback, ordered by ``(time, priority, sequence)``.

    Slotted and pooled: after an event fires, the scheduler may reuse the
    object for a later ``push``.  Holding an event reference keeps it out
    of the pool (the recycler checks the reference count), so retained
    handles stay valid; :meth:`cancel` is only meaningful while the event
    is still pending.
    """

    __slots__ = ("time", "priority", "sequence", "callback", "cancelled")

    def __init__(
        self,
        time: int,
        priority: int,
        sequence: int,
        callback: Callable[[], Any],
    ) -> None:
        self.time = time
        self.priority = priority
        self.sequence = sequence
        self.callback = callback
        self.cancelled = False

    def __lt__(self, other: "Event") -> bool:
        if self.time != other.time:
            return self.time < other.time
        if self.priority != other.priority:
            return self.priority < other.priority
        return self.sequence < other.sequence

    def cancel(self) -> None:
        """Mark the event so it is skipped when popped.

        Cancellation is O(1); the backend lazily discards the entry.
        """
        self.cancelled = True

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = " cancelled" if self.cancelled else ""
        return (
            f"Event(t={self.time}, prio={self.priority}, "
            f"seq={self.sequence}{state})"
        )


@runtime_checkable
class Scheduler(Protocol):
    """The pluggable event-scheduling backend behind :class:`Simulator`.

    Implementations must pop in ``(time, priority, sequence)`` order and
    support lazy cancellation.  The simulator's reference run loop needs
    only ``peek_time`` and ``pop``; the default :class:`CalendarQueue` is
    additionally drained in place by the simulator's own loop, which
    reads its internals and so is not part of this protocol.
    """

    def push(
        self,
        time: int,
        callback: Callable[[], Any],
        priority: int = PRIORITY_NORMAL,
    ) -> Event:
        """Schedule ``callback`` at absolute ``time`` and return the event."""
        ...

    def pop(self) -> Event:
        """Remove and return the earliest live event (IndexError if none)."""
        ...

    def peek_time(self) -> int | None:
        """Time of the earliest live event, or ``None`` if empty."""
        ...

    def __len__(self) -> int:
        ...

    def __bool__(self) -> bool:
        ...

    def clear(self) -> None:
        ...


_getrefcount = getattr(sys, "getrefcount", None)
#: Reference count of an event that only the recycling call chain holds:
#: the caller's local, the ``reclaim`` parameter, and the argument slot of
#: ``getrefcount`` itself.  Only meaningful on CPython; elsewhere pooling
#: is disabled (``_getrefcount is None`` short-circuits ``reclaim``).
_PRIVATE_REFS = 3

#: Reference count seen when the run loop inlines the reclaim check in
#: its own frame: the loop's local binding plus ``getrefcount``'s argument
#: slot — one fewer than ``_PRIVATE_REFS``, which also counts the
#: ``reclaim`` parameter.
_INLINE_REFS = 2

#: Cap on pooled events per scheduler, bounding worst-case retention.
#: Sized for bursty workloads: an ML frame fanning out across hundreds of
#: clients parks tens of thousands of events at one instant, and a pool
#: smaller than the peak turns every post-burst push into a fresh
#: allocation (~100 bytes per pooled event, so ~3 MB worst case).
_POOL_LIMIT = 32768


class _PooledEvents:
    """Shared free-list machinery for scheduler backends."""

    __slots__ = ("_free", "_sequence")

    def __init__(self) -> None:
        self._free: list[Event] = []
        self._sequence = 0

    def _new_event(
        self, time: int, callback: Callable[[], Any], priority: int
    ) -> Event:
        sequence = self._sequence
        self._sequence = sequence + 1
        free = self._free
        if free:
            event = free.pop()
            event.time = time
            event.priority = priority
            event.sequence = sequence
            event.callback = callback
            event.cancelled = False
            return event
        return Event(time, priority, sequence, callback)

    def reclaim(self, event: Event) -> None:
        """Pool ``event`` iff no outside reference keeps it alive."""
        if _getrefcount is None or _getrefcount(event) != _PRIVATE_REFS:
            return
        event.callback = None
        if len(self._free) < _POOL_LIMIT:
            self._free.append(event)


class EventQueue(_PooledEvents):
    """The reference backend: a deterministic binary heap of events."""

    __slots__ = ("_heap",)

    def __init__(self) -> None:
        super().__init__()
        self._heap: list[Event] = []

    def __len__(self) -> int:
        return sum(1 for event in self._heap if not event.cancelled)

    def __bool__(self) -> bool:
        return any(not event.cancelled for event in self._heap)

    def push(
        self,
        time: int,
        callback: Callable[[], Any],
        priority: int = PRIORITY_NORMAL,
    ) -> Event:
        """Schedule ``callback`` at absolute ``time`` and return the event."""
        if time < 0:
            raise ValueError(f"event time must be non-negative, got {time}")
        event = self._new_event(time, callback, priority)
        heapq.heappush(self._heap, event)
        return event

    def pop(self) -> Event:
        """Remove and return the earliest non-cancelled event.

        Raises :class:`IndexError` when the queue holds no live events.
        """
        heap = self._heap
        while heap:
            event = heapq.heappop(heap)
            if not event.cancelled:
                return event
            self.reclaim(event)
        raise IndexError("pop from empty event queue")

    def peek_time(self) -> int | None:
        """Return the time of the earliest live event, or ``None`` if empty."""
        heap = self._heap
        while heap and heap[0].cancelled:
            # Local binding keeps the refcount guard honest (_PRIVATE_REFS).
            event = heapq.heappop(heap)
            self.reclaim(event)
        if not heap:
            return None
        return heap[0].time

    def clear(self) -> None:
        """Drop every pending event."""
        self._heap.clear()


class _Bucket:
    """All events of one timestamp, consumed front to back."""

    __slots__ = ("events", "head", "ordered")

    def __init__(self, event: Event) -> None:
        self.events: list[Event | None] = [event]
        self.head = 0
        #: Whether ``events[head:]`` is sorted by ``(priority, sequence)``.
        self.ordered = True


def _bucket_key(event: Event) -> tuple[int, int]:
    return (event.priority, event.sequence)


class CalendarQueue(_PooledEvents):
    """Bucketed (calendar-style) scheduler, the default backend.

    Events are grouped by exact timestamp; only the distinct pending
    timestamps live in a heap of plain integers.  A timestamp holding a
    single event — by far the common case in network workloads — is
    stored as the bare :class:`Event` and only promoted to a
    :class:`_Bucket` when a second event lands on the same instant.
    Within a bucket events are appended in sequence order and lazily
    re-sorted by ``(priority, sequence)`` only when a push actually
    violates that order — which in practice means only when mixed
    priorities land on one instant.
    """

    __slots__ = ("_buckets", "_times")

    def __init__(self) -> None:
        super().__init__()
        #: time -> single Event, or a _Bucket once an instant has >1.
        self._buckets: dict[int, Event | _Bucket] = {}
        self._times: list[int] = []

    def __len__(self) -> int:
        count = 0
        for entry in self._buckets.values():
            if entry.__class__ is _Bucket:
                count += sum(
                    1
                    for event in entry.events[entry.head :]
                    if event is not None and not event.cancelled
                )
            elif not entry.cancelled:
                count += 1
        return count

    def __bool__(self) -> bool:
        return self.peek_time() is not None

    def push(
        self,
        time: int,
        callback: Callable[[], Any],
        priority: int = PRIORITY_NORMAL,
    ) -> Event:
        """Schedule ``callback`` at absolute ``time`` and return the event."""
        if time < 0:
            raise ValueError(f"event time must be non-negative, got {time}")
        # Inlined _new_event: this is the hottest allocation site.
        sequence = self._sequence
        self._sequence = sequence + 1
        free = self._free
        if free:
            event = free.pop()
            event.time = time
            event.priority = priority
            event.sequence = sequence
            event.callback = callback
            event.cancelled = False
        else:
            event = Event(time, priority, sequence, callback)
        buckets = self._buckets
        entry = buckets.get(time)
        if entry is None:
            buckets[time] = event
            heapq.heappush(self._times, time)
        elif entry.__class__ is _Bucket:
            events = entry.events
            last = events[-1]
            # A fresh event always carries the largest sequence number, so
            # append order only breaks when its priority is more urgent.
            if last is not None and priority < last.priority:
                entry.ordered = False
            events.append(event)
        else:
            # Promote the singleton entry to a real bucket.
            bucket = _Bucket(entry)
            if priority < entry.priority:
                bucket.ordered = False
            bucket.events.append(event)
            buckets[time] = bucket
        return event

    def _live_head(self) -> tuple[int, Event | _Bucket] | None:
        """Earliest entry with a live event, or ``None``.

        Drops exhausted buckets and skips cancelled events on the way.
        Returns the raw dict entry: a bare :class:`Event` for singleton
        instants, a positioned :class:`_Bucket` otherwise.
        """
        times = self._times
        buckets = self._buckets
        while times:
            time = times[0]
            entry = buckets[time]
            if entry.__class__ is not _Bucket:
                if not entry.cancelled:
                    return time, entry
                heapq.heappop(times)
                del buckets[time]
                self.reclaim(entry)
                continue
            bucket = entry
            events = bucket.events
            if not bucket.ordered:
                events[bucket.head :] = sorted(
                    events[bucket.head :], key=_bucket_key
                )
                bucket.ordered = True
            head = bucket.head
            size = len(events)
            while head < size:
                event = events[head]
                if event is not None and not event.cancelled:
                    bucket.head = head
                    return time, bucket
                events[head] = None
                head += 1
                if event is not None:
                    self.reclaim(event)
            bucket.head = head
            heapq.heappop(times)
            del buckets[time]
        return None

    def pop(self) -> Event:
        """Remove and return the earliest non-cancelled event.

        Raises :class:`IndexError` when the queue holds no live events.
        """
        found = self._live_head()
        if found is None:
            raise IndexError("pop from empty event queue")
        time, entry = found
        if entry.__class__ is not _Bucket:
            heapq.heappop(self._times)
            del self._buckets[time]
            return entry
        head = entry.head
        event = entry.events[head]
        entry.events[head] = None
        entry.head = head + 1
        return event

    def peek_time(self) -> int | None:
        """Return the time of the earliest live event, or ``None`` if empty."""
        found = self._live_head()
        if found is None:
            return None
        return found[0]

    def clear(self) -> None:
        """Drop every pending event."""
        self._buckets.clear()
        self._times.clear()


#: Name -> backend class.  ``Simulator(scheduler=...)`` resolves through
#: this registry, so downstream code can register additional backends.
SCHEDULERS: dict[str, Callable[[], "Scheduler"]] = {
    "heap": EventQueue,
    "calendar": CalendarQueue,
}

#: The backend used when ``Simulator`` is constructed without an explicit
#: choice (overridable via the ``REPRO_SIM_SCHEDULER`` environment
#: variable, checked at Simulator construction).
DEFAULT_SCHEDULER = "calendar"


def make_scheduler(name: str) -> "Scheduler":
    """Instantiate a scheduler backend by registry name."""
    try:
        factory = SCHEDULERS[name]
    except KeyError:
        known = ", ".join(sorted(SCHEDULERS))
        raise ValueError(
            f"unknown scheduler backend {name!r} (known: {known})"
        ) from None
    return factory()
