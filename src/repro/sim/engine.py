"""Deterministic discrete-event simulation engine.

Time is measured in integer microseconds.  Events scheduled at the same
instant fire in insertion order, which — together with the seeded RNG in
:mod:`repro.runtime.rng` — makes every run exactly reproducible from its seed.

The engine is intentionally minimal: a priority queue of ``(time, seq,
handle)`` entries plus cancellation handles.  Everything above it
(network, processes, protocol stacks) is built from ``schedule`` calls.

Heap entries are plain tuples so every sift comparison runs in C —
pushing :class:`EventHandle` objects directly would invoke a Python
``__lt__`` per comparison, which dominated the event loop's profile.
``(time, seq)`` is unique per event, so comparisons never reach the
handle in the third slot.
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional, Tuple

# Canonical time-base constants live in the backend-agnostic runtime
# layer; re-exported here because the time base predates that layer.
from ..runtime.interfaces import MS, SECOND

__all__ = ["MS", "SECOND", "EventHandle", "Simulation", "SimulationError"]

_heappush = heapq.heappush
_heappop = heapq.heappop


class SimulationError(RuntimeError):
    """Raised for misuse of the simulation engine (e.g. scheduling in the past)."""


class EventHandle:
    """Cancellation handle for a scheduled event.

    Cancellation is lazy: the entry stays in the heap but is skipped when
    popped.  ``fired`` distinguishes "already executed" from "cancelled".
    """

    __slots__ = ("time", "seq", "callback", "cancelled", "fired", "_sim")

    def __init__(
        self,
        time: int,
        seq: int,
        callback: Callable[[], None],
        sim: "Optional[Simulation]" = None,
    ):
        self.time = time
        self.seq = seq
        self.callback: Optional[Callable[[], None]] = callback
        self.cancelled = False
        self.fired = False
        self._sim = sim

    def cancel(self) -> None:
        """Prevent the event from firing.  Safe to call more than once."""
        if not self.cancelled and not self.fired and self._sim is not None:
            self._sim._live -= 1
        self.cancelled = True
        self.callback = None

    @property
    def pending(self) -> bool:
        """True while the event is still scheduled to fire."""
        return not self.cancelled and not self.fired

    def __lt__(self, other: "EventHandle") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "fired" if self.fired else ("cancelled" if self.cancelled else "pending")
        return f"EventHandle(t={self.time}, seq={self.seq}, {state})"


# Bound once: the run loops construct one handle per event, and the
# ``__init__`` call frame plus per-call class attribute lookups showed up
# prominently in event-loop profiles.
_new_handle = EventHandle.__new__


class Simulation:
    """A single-threaded discrete-event simulation.

    Usage::

        sim = Simulation()
        sim.schedule(10 * MS, lambda: print("at 10ms"))
        sim.run_until(1 * SECOND)
    """

    def __init__(self) -> None:
        #: Current simulation time in microseconds.  A plain attribute,
        #: not a property: every layer reads the clock on the delivery
        #: path, and only the run loops below may advance it.
        self.now = 0
        self._seq = 0
        self._queue: List[Tuple[int, int, EventHandle]] = []
        self._running = False
        # Count of scheduled, not-yet-cancelled, not-yet-fired events,
        # maintained incrementally so ``pending_events`` is O(1) instead
        # of an O(n) heap scan (it sits on the hot path of run loops that
        # poll for quiescence).
        self._live = 0

    def schedule(self, delay: int, callback: Callable[[], None]) -> EventHandle:
        """Schedule ``callback`` to run ``delay`` microseconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay}us in the past")
        if type(delay) is not int:
            delay = int(delay)
        time = self.now + delay
        seq = self._seq
        self._seq = seq + 1
        self._live += 1
        # Handle construction is inlined (no ``__init__`` call): this is
        # the single hottest allocation in the simulator.
        handle = _new_handle(EventHandle)
        handle.time = time
        handle.seq = seq
        handle.callback = callback
        handle.cancelled = False
        handle.fired = False
        handle._sim = self
        _heappush(self._queue, (time, seq, handle))
        return handle

    def schedule_at(self, time: int, callback: Callable[[], None]) -> EventHandle:
        """Schedule ``callback`` at absolute simulation ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at t={time}us, now is t={self.now}us"
            )
        if type(time) is not int:
            time = int(time)
        seq = self._seq
        self._seq = seq + 1
        self._live += 1
        handle = _new_handle(EventHandle)
        handle.time = time
        handle.seq = seq
        handle.callback = callback
        handle.cancelled = False
        handle.fired = False
        handle._sim = self
        _heappush(self._queue, (time, seq, handle))
        return handle

    def _pop_runnable(self) -> Optional[EventHandle]:
        queue = self._queue
        while queue:
            handle = heapq.heappop(queue)[2]
            if not handle.cancelled:
                return handle
        return None

    def _fire(self, handle: EventHandle) -> None:
        self.now = handle.time
        handle.fired = True
        self._live -= 1
        callback, handle.callback = handle.callback, None
        assert callback is not None
        callback()

    def step(self) -> bool:
        """Execute the single next pending event.

        Returns False when the queue is empty.
        """
        handle = self._pop_runnable()
        if handle is None:
            return False
        self._fire(handle)
        return True

    def run_until(self, time: int) -> None:
        """Run every event with timestamp ``<= time``; advance clock to ``time``."""
        if time < self.now:
            raise SimulationError(f"cannot run backwards to t={time}us")
        # Hot loop: fire events inline (no ``_peek``/``_fire`` calls), one
        # heap pop per event.  ``callback is None`` doubles as the
        # cancellation test — fired entries never sit in the heap, so a
        # None callback can only mean ``cancel()`` ran.  The one event
        # popped past the horizon is pushed back (once per call, not per
        # event).
        queue = self._queue
        heappop = _heappop
        while queue:
            head = heappop(queue)
            handle = head[2]
            callback = handle.callback
            if callback is None:  # cancelled
                continue
            head_time = head[0]
            if head_time > time:
                _heappush(queue, head)
                break
            self.now = head_time
            handle.fired = True
            self._live -= 1
            handle.callback = None
            callback()
        self.now = max(self.now, int(time))

    def run(self, max_events: int = 10_000_000) -> int:
        """Run until the event queue drains.  Returns the number of events run.

        ``max_events`` is a runaway-protocol backstop; exceeding it raises.
        """
        queue = self._queue
        heappop = _heappop
        count = 0
        while queue:
            handle = heappop(queue)[2]
            callback = handle.callback
            if callback is None:  # cancelled (see run_until)
                continue
            count += 1
            if count > max_events:
                raise SimulationError(f"exceeded {max_events} events; runaway protocol?")
            self.now = handle.time
            handle.fired = True
            self._live -= 1
            handle.callback = None
            callback()
        return count

    def _peek(self) -> Optional[EventHandle]:
        queue = self._queue
        while queue and queue[0][2].cancelled:
            heapq.heappop(queue)
        return queue[0][2] if queue else None

    @property
    def pending_events(self) -> int:
        """Number of scheduled, not-yet-cancelled events (O(1))."""
        return self._live

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Simulation(now={self.now}us, pending={self.pending_events})"
