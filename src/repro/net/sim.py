"""Discrete-event simulation engine.

Every other substrate in this reproduction (links, switches, hosts,
applications) is driven by a single :class:`Simulator` instance.  The engine
is a classic event-heap design:

* time is a ``float`` number of seconds,
* a heap entry is the plain tuple ``(time, sequence, callback, args,
  handle)``, so events scheduled for the same instant fire in FIFO order and
  the heap comparisons stay in C (the sequence number breaks every tie, so
  nothing after it is ever compared),
* callbacks are plain callables; periodic processes are built on top with
  :meth:`Simulator.schedule_periodic`.

There are two scheduling forms over that one entry shape.
:meth:`Simulator.post` is fire-and-forget: it returns nothing and its entry's
``handle`` is ``None`` — the form for the dataplane's per-hop events, which
nobody ever cancels.  :meth:`Simulator.schedule` / :meth:`schedule_at`
allocate an :class:`Event` handle as well and return it, for the callers that
keep one to cancel (pacing and retransmit timers, periodic processes, probe
timeouts).  Both draw from the same sequence counter, so interleaved calls
fire in call order.

Cancellation is lazy: a cancelled event stays in the heap and is skipped when
popped, which keeps :meth:`Event.cancel` O(1).  To stop long-lived workloads
(mass retries, stopped periodic processes) from bloating the heap with dead
entries, the simulator counts cancelled-but-still-heaped events and compacts
the heap once more than half of it is dead.  :attr:`Simulator.pending_events`
therefore reports only *live* events.

The simulator is deliberately synchronous and single-threaded: determinism is
a design requirement because the reproduced experiments (queue occupancy time
series, fairness convergence) are compared against the paper's figures.
Execution order is determined by the ``(time, sequence)`` keys and nothing
else.
"""

from __future__ import annotations

import itertools
import math
from heapq import heapify, heappop, heappush
from typing import Callable, Optional

#: Never bother compacting heaps smaller than this; the scan costs more than
#: the dead entries do.
_COMPACT_MIN_HEAP = 64

_INF = math.inf


class SimulationError(RuntimeError):
    """Raised when the simulator is used incorrectly (e.g. scheduling in the past)."""


class Event:
    """The cancellable handle of a scheduled callback.

    A cancelled event stays in the heap but is skipped when popped.  This
    keeps scheduling O(log n) without requiring heap surgery; the owning
    simulator tracks how many dead entries remain and compacts the heap
    when they dominate.
    """

    __slots__ = ("time", "cancelled", "_sim")

    def __init__(self, time: float, sim: "Simulator"):
        self.time = time
        self.cancelled = False
        self._sim: Optional["Simulator"] = sim

    def cancel(self) -> None:
        """Mark the event so the simulator skips it when its time comes."""
        if not self.cancelled:
            self.cancelled = True
            if self._sim is not None:
                self._sim._note_cancelled()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<Event t={self.time:.9f} {state}>"


class PeriodicProcess:
    """A recurring callback created by :meth:`Simulator.schedule_periodic`."""

    __slots__ = ("sim", "interval", "callback", "args", "_event", "stopped", "jitter_fn")

    def __init__(self, sim: "Simulator", interval: float, callback: Callable,
                 args: tuple = (), jitter_fn: Optional[Callable[[], float]] = None):
        if interval <= 0:
            raise SimulationError(f"periodic interval must be positive, got {interval}")
        self.sim = sim
        self.interval = interval
        self.callback = callback
        self.args = args
        self.stopped = False
        self.jitter_fn = jitter_fn
        self._event = sim.schedule(self._next_delay(), self._fire)

    def _next_delay(self) -> float:
        if self.jitter_fn is None:
            return self.interval
        return max(0.0, self.interval + self.jitter_fn())

    def _fire(self) -> None:
        if self.stopped:
            return
        self.callback(*self.args)
        if not self.stopped:
            self._event = self.sim.schedule(self._next_delay(), self._fire)

    def stop(self) -> None:
        """Stop the process; the pending occurrence is cancelled."""
        self.stopped = True
        if self._event is not None:
            self._event.cancel()


class Simulator:
    """Single-threaded discrete-event simulator.

    Typical use::

        sim = Simulator()
        sim.schedule(1e-3, lambda: print("one millisecond in"))
        sim.run(until=0.01)
    """

    def __init__(self) -> None:
        # Heap of (time, seq, callback, args, handle) tuples; seq is unique,
        # so ties never compare anything after it.  handle is the Event that
        # schedule()/schedule_at() returned, or None for a post()ed entry.
        self._heap: list[tuple[float, int, Callable, tuple, Optional[Event]]] = []
        self._seq = itertools.count()
        self._now = 0.0
        self._events_executed = 0
        self._cancelled = 0

    # ------------------------------------------------------------------ time
    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def events_executed(self) -> int:
        """Number of events executed so far (useful for benchmarks)."""
        return self._events_executed

    @property
    def pending_events(self) -> int:
        """Number of *live* (non-cancelled) events still on the heap."""
        return len(self._heap) - self._cancelled

    @property
    def cancelled_events_pending(self) -> int:
        """Cancelled events still occupying heap slots (before compaction)."""
        return self._cancelled

    @property
    def heap_size(self) -> int:
        """Raw heap length, including cancelled entries (for hygiene tests)."""
        return len(self._heap)

    # ------------------------------------------------------------ scheduling
    def post(self, delay: float, callback: Callable, *args) -> None:
        """Fire-and-forget: run ``callback(*args)`` ``delay`` seconds from now.

        Nothing is returned, so the event cannot be cancelled; callers that
        need to cancel use :meth:`schedule`.
        """
        if not 0.0 <= delay < _INF:
            self._check_delay(delay)
        heappush(self._heap,
                 (self._now + delay, next(self._seq), callback, args, None))

    def schedule(self, delay: float, callback: Callable, *args) -> Event:
        """Schedule ``callback(*args)`` ``delay`` seconds from now; cancellable."""
        if not 0.0 <= delay < _INF:
            self._check_delay(delay)
        when = self._now + delay
        event = Event(when, self)
        heappush(self._heap, (when, next(self._seq), callback, args, event))
        return event

    def schedule_at(self, when: float, callback: Callable, *args) -> Event:
        """Schedule ``callback(*args)`` at absolute time ``when``; cancellable."""
        if math.isnan(when):
            raise SimulationError("cannot schedule an event at a NaN time")
        if math.isinf(when):
            raise SimulationError("cannot schedule an event at an infinite time")
        if when < self._now:
            raise SimulationError(
                f"cannot schedule at t={when} which is before now={self._now}")
        event = Event(when, self)
        heappush(self._heap, (when, next(self._seq), callback, args, event))
        return event

    def schedule_periodic(self, interval: float, callback: Callable, *args,
                          jitter_fn: Optional[Callable[[], float]] = None) -> PeriodicProcess:
        """Run ``callback(*args)`` every ``interval`` seconds until stopped."""
        return PeriodicProcess(self, interval, callback, args, jitter_fn=jitter_fn)

    @staticmethod
    def _check_delay(delay: float) -> None:
        """Name what is wrong with a delay that failed ``0 <= delay < inf``."""
        if delay != delay:  # NaN compares unequal to itself
            raise SimulationError("cannot schedule an event with a NaN delay")
        if delay == _INF or delay == -_INF:
            raise SimulationError("cannot schedule an event with an infinite delay")
        if delay < 0:
            raise SimulationError(f"cannot schedule an event {delay} seconds in the past")

    # -------------------------------------------------------- heap hygiene
    def _note_cancelled(self) -> None:
        """Called by :meth:`Event.cancel`; compacts the heap when dead entries win."""
        self._cancelled += 1
        if (self._cancelled * 2 > len(self._heap)
                and len(self._heap) >= _COMPACT_MIN_HEAP):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify.

        Pop order of the surviving entries is untouched: it is fully
        determined by their (time, seq) keys, which do not change.  The
        compaction happens *in place* — the run loop holds a reference to
        the heap list while callbacks (which may cancel events and trigger
        compaction) execute, so the list object must never be swapped out.
        """
        self._heap[:] = [entry for entry in self._heap
                         if entry[4] is None or not entry[4].cancelled]
        heapify(self._heap)
        self._cancelled = 0

    # --------------------------------------------------------------- running
    def step(self) -> bool:
        """Execute the next non-cancelled event.  Returns False when idle."""
        before = self._events_executed
        self.run(max_events=1)
        return self._events_executed != before

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run events in time order.

        Args:
            until: stop once simulation time would exceed this value; the
                simulator clock is advanced to ``until`` on return.
            max_events: safety valve; stop after executing this many events.

        The time limit is checked against the next *live* event: cancelled
        entries at the head of the heap are discarded without consuming the
        budget or (unlike a naive peek-then-step loop) letting an event past
        ``until`` slip through behind them.
        """
        if until != until:  # NaN: ``when > until`` would never stop the loop
            raise SimulationError("cannot run until a NaN time")
        heap = self._heap
        pop = heappop
        horizon = _INF if until is None else until
        budget = _INF if max_events is None else max_events
        executed = 0
        while heap and executed < budget:
            when, _seq, callback, args, handle = heap[0]
            if handle is not None and handle.cancelled:
                pop(heap)
                self._cancelled -= 1
                continue
            if when > horizon:
                break
            pop(heap)
            if handle is not None:
                # Detach before executing: a late cancel() on an event that
                # has already left the heap must not skew the dead-entry
                # counter.
                handle._sim = None
            self._now = when
            callback(*args)
            self._events_executed += 1
            executed += 1
        if until is not None and self._now < until:
            self._now = until

    def run_until_idle(self, max_events: int = 10_000_000) -> None:
        """Run until no events remain (bounded by ``max_events``)."""
        self.run(max_events=max_events)

    # ----------------------------------------------------------- observability
    def counters(self) -> dict[str, int]:
        """This simulator's event accounting (pure reads of existing ints)."""
        return {
            "events_executed": self._events_executed,
            "pending_events": self.pending_events,
            "heap_size": len(self._heap),
            "cancelled_events_pending": self._cancelled,
        }

    def reset(self) -> None:
        """Drop all pending events and rewind the clock to zero."""
        for entry in self._heap:
            if entry[4] is not None:
                entry[4]._sim = None    # late cancels must not touch the counter
        self._heap.clear()
        self._now = 0.0
        self._events_executed = 0
        self._cancelled = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Simulator t={self._now:.6f}s pending={self.pending_events} "
                f"executed={self._events_executed}>")
