"""The pre-overhaul discrete-event engine, frozen as a test oracle.

This is a verbatim copy of ``sim/engine.py`` as it stood before the
hot-path overhaul (bucketed calendar queue, event pooling, fast-path
dispatch).  It exists **only** so the differential-timeline harness
(``tests/sim/test_engine_diff.py``) can run the same workloads on both
engines and assert that span-tree fingerprints, final ``sim_time_ns``
and telemetry dumps are byte-identical — the proof that the overhaul
changed *nothing* observable.

It imports nothing from ``repro`` at load time (the sanitizer is
imported when a ``Simulator(sanitize=True)`` is built).  A harness
that binds it as ``sys.modules["repro.sim.engine"]`` before anything
imports ``repro`` (``tests/sim/_diff_worker.py reference``,
``benchmarks/bench_engine.py``) runs the whole stack (machine, apps,
chaos executor) on the single ``heapq`` loop below.

Known deficiencies, kept on purpose (the overhaul fixes them and the
regression tests in ``tests/sim/test_engine_fixes.py`` document the
difference):

- ``AnyOf`` leaves its ``_check`` callback registered on the losing
  events after the condition triggers, which the sanitizer reports as
  leaked events.
- ``Process.interrupt`` only detaches ``_resume`` from the event the
  process was waiting on *at call time*; a process that starts waiting
  between the call and the poke delivery keeps a stale ``_resume``
  registration (a later trigger double-steps the generator).
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, Iterable, List, Optional

__all__ = [
    "Event",
    "Timeout",
    "Process",
    "Interrupt",
    "SimulationError",
    "Simulator",
]


class SimulationError(Exception):
    """Raised for misuse of the engine (e.g. re-triggering an event)."""


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`.

    Carries an arbitrary ``cause`` describing why the process was
    interrupted (e.g. access revocation racing an in-flight I/O).
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot occurrence at a point in simulated time.

    An event is *triggered* once `succeed` or `fail` is called; the
    simulator then runs its callbacks (resuming any waiting processes)
    at the current simulation time.
    """

    __slots__ = ("sim", "callbacks", "_value", "_exc", "_triggered",
                 "_defused", "_observer", "__weakref__")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = None
        self._exc: Optional[BaseException] = None
        self._triggered = False
        self._defused = False
        self._observer = False
        if sim._san is not None:
            sim._san.note_event_created(self)

    @property
    def triggered(self) -> bool:
        return self._triggered

    @property
    def processed(self) -> bool:
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        if not self._triggered:
            raise SimulationError("event has not been triggered")
        return self._exc is None

    @property
    def value(self) -> Any:
        if not self._triggered:
            raise SimulationError("event has not been triggered")
        if self._exc is not None:
            raise self._exc
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        if self._triggered:
            raise SimulationError("event already triggered")
        self._triggered = True
        self._value = value
        self.sim._post(self)
        return self

    def fail(self, exc: BaseException) -> "Event":
        if self._triggered:
            raise SimulationError("event already triggered")
        if not isinstance(exc, BaseException):
            raise SimulationError(f"fail() needs an exception, got {exc!r}")
        self._triggered = True
        self._exc = exc
        self.sim._post(self)
        return self

    def defuse(self) -> None:
        """Mark a failed event as handled so it does not crash the run."""
        self._defused = True

    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        if self.callbacks is None:
            # Already processed: run immediately at the current time.
            fn(self)
        else:
            self.callbacks.append(fn)


class Timeout(Event):
    """An event that triggers ``delay`` nanoseconds in the future."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: int, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        super().__init__(sim)
        self.delay = int(delay)
        self._triggered = True
        self._value = value
        sim._post(self, delay=self.delay)


ProcessGen = Generator[Event, Any, Any]


class Process(Event):
    """An event representing a running generator.

    The process triggers (with the generator's return value) when the
    generator finishes, or fails with the escaping exception.
    """

    __slots__ = ("gen", "name", "daemon", "observer", "_waiting_on")

    def __init__(self, sim: "Simulator", gen: ProcessGen, name: str = "",
                 daemon: bool = False, observer: bool = False):
        if not hasattr(gen, "send"):
            raise SimulationError(f"process target must be a generator, got {gen!r}")
        super().__init__(sim)
        self.gen = gen
        self.name = name or getattr(gen, "__name__", "process")
        # Daemon processes are perpetual servers (device channels,
        # poller threads): the sanitizer exempts them from stranded/
        # leak verdicts and treats their scheduling order as immaterial.
        self.daemon = daemon
        # Observer processes (telemetry samplers) may only read model
        # state and yield timeouts: every event they schedule is tagged,
        # and `run()` stops once *only* observer events remain, so a
        # periodic sampler neither deadlocks the run nor extends it.
        self.observer = observer
        self._waiting_on: Optional[Event] = None
        if sim._san is not None:
            sim._san.note_process_created(self)
        bootstrap = Event(sim)
        if observer:
            bootstrap._observer = True
        bootstrap.add_callback(self._resume)
        bootstrap.succeed()

    @property
    def is_alive(self) -> bool:
        return not self._triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if self._triggered:
            return
        target = self._waiting_on
        if target is not None and target.callbacks is not None:
            try:
                target.callbacks.remove(self._resume)
            except ValueError:
                pass
        self._waiting_on = None
        poke = Event(self.sim)
        poke.add_callback(lambda ev: self._step(throw=Interrupt(cause)))
        poke.succeed()

    # -- internal ---------------------------------------------------------

    def _resume(self, event: Event) -> None:
        self._waiting_on = None
        if event._exc is not None:
            event._defused = True
            self._step(throw=event._exc)
        else:
            self._step(send=event._value)

    def _step(self, send: Any = None, throw: Optional[BaseException] = None) -> None:
        if self._triggered:
            return
        self.sim._active_process = self
        try:
            if throw is not None:
                target = self.gen.throw(throw)
            else:
                target = self.gen.send(send)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as exc:
            self.fail(exc)
            return
        finally:
            self.sim._active_process = None
        if not isinstance(target, Event):
            self.fail(
                SimulationError(
                    f"process {self.name!r} yielded {target!r}; "
                    "processes must yield Event objects"
                )
            )
            return
        if target.sim is not self.sim:
            self.fail(SimulationError("event belongs to a different simulator"))
            return
        self._waiting_on = target
        target.add_callback(self._resume)


class Condition(Event):
    """Base for composite events over several sub-events."""

    __slots__ = ("events", "_pending")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self.events = list(events)
        self._pending = len(self.events)
        if not self.events:
            self.succeed({})
            return
        for ev in self.events:
            ev.add_callback(self._check)

    def _check(self, event: Event) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def _collect(self) -> dict:
        # Only *processed* events count: a pending Timeout is "triggered"
        # from birth but has not occurred yet.
        return {
            i: ev._value
            for i, ev in enumerate(self.events)
            if ev.processed and ev._exc is None
        }


class AllOf(Condition):
    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self._triggered:
            return
        if event._exc is not None:
            event._defused = True
            self.fail(event._exc)
            return
        self._pending -= 1
        if self._pending == 0:
            self.succeed(self._collect())


class AnyOf(Condition):
    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self._triggered:
            return
        if event._exc is not None:
            event._defused = True
            self.fail(event._exc)
            return
        self.succeed(self._collect())


class Simulator:
    """The event loop: a priority queue of (time, seq, event).

    ``sanitize=True`` attaches a :class:`repro.sim.sanitizer.Sanitizer`
    that records event provenance and reports ordering races, stranded
    processes, and leaked events/resources at the end of a run (see
    ``docs/static_analysis.md``).  ``strict_sanitize=True`` additionally
    raises :class:`repro.sim.sanitizer.SanitizerError` from :meth:`run`
    when leak-class findings exist.  With sanitize off (the default)
    the hot paths only pay a ``is not None`` check and simulated
    timelines are byte-identical.
    """

    def __init__(self, sanitize: bool = False,
                 strict_sanitize: bool = False):
        self.now: int = 0
        self._queue: List = []
        self._seq = 0
        self._observers_queued = 0
        self._active_process: Optional[Process] = None
        self._san = None
        if sanitize or strict_sanitize:
            from repro.sim.sanitizer import Sanitizer
            self._san = Sanitizer(self, strict=strict_sanitize)

    @property
    def sanitizer(self):
        """The attached Sanitizer, or None when sanitize is off."""
        return self._san

    # -- event factories --------------------------------------------------

    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: int, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def process(self, gen: ProcessGen, name: str = "",
                daemon: bool = False, observer: bool = False) -> Process:
        return Process(self, gen, name=name, daemon=daemon,
                       observer=observer)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    # -- scheduling --------------------------------------------------------

    def _post(self, event: Event, delay: int = 0) -> None:
        self._seq += 1
        active = self._active_process
        if active is not None and active.observer:
            event._observer = True
        if event._observer:
            self._observers_queued += 1
        heapq.heappush(self._queue, (self.now + delay, self._seq, event))
        if self._san is not None:
            self._san.note_scheduled(event, self.now + delay, self._seq)

    def run(self, until: Optional[int] = None) -> int:
        """Drain the queue; stop once simulated time would pass ``until``.

        Stops early when only *observer* events remain (see
        :class:`Process`): a periodic telemetry sampler keeps ticking
        while model events are pending but never keeps the run alive on
        its own, so with monitoring attached a run ends at the exact
        same simulated instant as without it.

        Returns the simulation time when the run stopped.
        """
        while self._queue:
            if self._observers_queued >= len(self._queue) and until is None:
                # Only sampler wake-ups left: the model is quiescent.
                break
            when, _seq, event = self._queue[0]
            if until is not None and when > until:
                self.now = until
                if self._san is not None:
                    self._san.finish()
                return self.now
            heapq.heappop(self._queue)
            if event._observer:
                self._observers_queued -= 1
            self.now = when
            callbacks, event.callbacks = event.callbacks, None
            if callbacks:
                for fn in callbacks:
                    fn(event)
            if event._exc is not None and not event._defused:
                raise event._exc
        if until is not None:
            self.now = max(self.now, until)
        if self._san is not None:
            self._san.finish()
        return self.now

    def run_process(self, gen: ProcessGen, until: Optional[int] = None) -> Any:
        """Convenience: spawn ``gen`` and run until it completes."""
        proc = self.process(gen)
        self.run(until)
        if not proc.triggered:
            raise SimulationError(
                f"process {proc.name!r} did not finish by t={self.now}"
            )
        return proc.value

    @property
    def pending_events(self) -> int:
        return len(self._queue)
