"""Discrete-event simulation engine (hot-path overhauled).

The whole reproduction runs on simulated time measured in integer
nanoseconds.  Model code is written as generator *processes* that yield
:class:`Event` objects; the :class:`Simulator` advances virtual time by
draining scheduled events in exact ``(time, seq)`` order.

The design follows the classic SimPy structure but is self-contained
(no third-party dependency).  Since the engine executes once per
simulated event it is the wall-clock bottleneck of every experiment,
so the scheduler is organised around four hot-path ideas (see
``docs/engine_performance.md`` for the full design):

- **bucketed near/far event queue** — a calendar-style ring of
  1024 ns buckets covers the near horizon; a FIFO deque (appended on
  post, drained with ``popleft``) holds the (very common) events
  posted *at the current instant*; a plain heap catches far timers.
  Pop order is still exactly ``(time, seq)`` — the differential
  harness (``tests/sim/test_engine_diff.py``) proves timelines
  byte-identical against the pre-overhaul single-heap engine kept as a
  test oracle in ``tests/sim/engine_reference.py``.
- **event/timeout freelists** — processed events that nobody else
  references (checked by refcount) are recycled into bounded LIFO
  deques, so steady-state runs allocate near-zero events.  Pooling is
  disabled under ``sanitize=True`` so per-event provenance stays
  exact.
- **pre-bound fast paths** — with no sanitizer and no observer
  processes attached, ``run()`` and ``_post`` skip every
  instrumentation check, and ``Event.succeed`` and the pooled
  ``timeout()`` file their entry into the queue themselves; creating a
  sanitizer or an observer process switches the simulator (even
  mid-run) to the instrumented loop.
- **flattened process dispatch** — ``Process._resume`` steps the
  generator itself through cached ``gen.send``/``gen.throw`` bound
  methods, duck-types the yielded event, parks on it with a wake-up
  bound once per process, and loops (rather than recursing) through
  events that are already processed; ``AllOf``/``AnyOf`` accumulate
  results incrementally instead of rescanning their event list, and
  detach their callbacks from losing events when they trigger.
"""

from __future__ import annotations

from collections import deque
from heapq import heapify, heappop, heappush
from sys import getrefcount
from typing import Any, Callable, Deque, Dict, Generator, Iterable, List, Optional

__all__ = [
    "Event",
    "Timeout",
    "Process",
    "Interrupt",
    "SimulationError",
    "Simulator",
]

# Calendar ring geometry: 2**_W_SHIFT ns per bucket, _N_BUCKETS slots.
# The near horizon is _N_BUCKETS << _W_SHIFT = 262,144 ns — wide enough
# for every device service time in hw/params.py; millisecond timers
# (watchdogs, journal commit intervals) overflow into the far heap.
_W_SHIFT = 10
_N_BUCKETS = 256
_B_MASK = _N_BUCKETS - 1

# Freelist bound: recycling beyond this keeps no more memory live than
# the run's own peak, but a cap makes the worst case explicit.
_POOL_CAP = 4096


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
        sim = self.sim
        if sim._instrumented:
            sim._post(self)
            return self
        # _post_fast, inlined: a success is always posted at delay 0.
        sim._seq = seq = sim._seq + 1
        sim._count += 1
        sim._imm.append((sim.now, seq, self))
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

    __slots__ = ("gen", "name", "daemon", "observer", "_waiting_on",
                 "_send", "_throw", "_wake")

    def __init__(self, sim: "Simulator", gen: ProcessGen, name: str = "",
                 daemon: bool = False, observer: bool = False):
        if not hasattr(gen, "send"):
            raise SimulationError(f"process target must be a generator, got {gen!r}")
        super().__init__(sim)
        self.gen = gen
        # Cached bound methods: _resume drives the generator once per
        # resumption, so the attribute lookups are per-event cost.
        self._send = gen.send
        self._throw = gen.throw
        # The callback parked on every awaited event, bound once so a
        # wait allocates no bound method.
        self._wake = self._resume
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
        if observer and not sim._instrumented:
            sim._switch_to_instrumented()
        bootstrap = sim.event()
        if observer:
            bootstrap._observer = True
        bootstrap.callbacks.append(self._wake)
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
                target.callbacks.remove(self._wake)
            except ValueError:
                pass
        self._waiting_on = None
        # The cause rides in the poke event's value; delivery happens in
        # _deliver_interrupt when the poke is processed.  If the process
        # finishes before then, the poke is inert (and recyclable) —
        # the pre-overhaul engine instead left whatever wait the
        # process had started in the meantime with a stale _resume
        # callback registered (see tests/sim/test_engine_fixes.py).
        poke = self.sim.event()
        poke.callbacks.append(self._deliver_interrupt)
        poke.succeed(cause)

    # -- internal ---------------------------------------------------------

    def _deliver_interrupt(self, poke: Event) -> None:
        if self._triggered:
            return      # finished in the same tick: nothing to deliver
        # The process may have started a *new* wait between the
        # interrupt() call and this delivery; detach from it so the
        # target cannot step a process that already saw the Interrupt.
        target = self._waiting_on
        if target is not None and target.callbacks is not None:
            try:
                target.callbacks.remove(self._wake)
            except ValueError:
                pass
        # Deliver through the ordinary resume path: the poke turns into
        # a failed event carrying the Interrupt, which _resume throws
        # into the generator (and defuses, so the run loop does not
        # re-raise it).
        poke._exc = Interrupt(poke._value)
        self._resume(poke)

    def _resume(self, event: Event) -> None:
        """Step the generator with ``event``'s outcome, then park it on
        the next event it yields.

        A yielded event that is already processed resumes the generator
        again at once, in this same loop, so any number of such yields
        in a row runs in constant stack depth.
        """
        sim = self.sim
        while True:
            self._waiting_on = None
            exc = event._exc
            if exc is not None:
                event._defused = True
            if self._triggered:
                return
            sim._active_process = self
            try:
                if exc is None:
                    target = self._send(event._value)
                else:
                    target = self._throw(exc)
            except StopIteration as stop:
                self.succeed(stop.value)
                sim._active_process = None
                return
            except BaseException as exc:
                self.fail(exc)
                sim._active_process = None
                return
            sim._active_process = None
            try:
                target_sim = target.sim
                cbs = target.callbacks
            except AttributeError:
                self.fail(
                    SimulationError(
                        f"process {self.name!r} yielded {target!r}; "
                        "processes must yield Event objects"
                    )
                )
                return
            if target_sim is not sim:
                self.fail(
                    SimulationError("event belongs to a different simulator"))
                return
            self._waiting_on = target
            if cbs is not None:
                cbs.append(self._wake)
                return
            # Already processed: resume immediately at the current time.
            event = target


class Condition(Event):
    """Base for composite events over several sub-events.

    Results accumulate incrementally as sub-events complete (no rescan
    of ``events`` on completion); the value handed to ``succeed`` is
    identical to the pre-overhaul ``_collect()`` snapshot: successful
    *processed* sub-events keyed by their position, in index order.
    """

    __slots__ = ("events", "_pending", "_results", "_indices")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self.events = list(events)
        self._pending = len(self.events)
        self._results: Dict[int, Any] = {}
        self._indices: Dict[Event, List[int]] = {}
        if not self.events:
            self.succeed({})
            return
        for i, ev in enumerate(self.events):
            if ev.callbacks is None and ev._exc is None:
                # Processed before this condition existed: it counts
                # toward the snapshot even though its _check below may
                # trigger the condition before later registrations run.
                self._results[i] = ev._value
            self._indices.setdefault(ev, []).append(i)
        for ev in self.events:
            ev.add_callback(self._check)

    def _check(self, event: Event) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def _snapshot(self) -> dict:
        results = self._results
        return {i: results[i] for i in sorted(results)}

    def _detach(self) -> None:
        """Remove our _check from sub-events that have not fired yet.

        Without this, a decided condition leaves dead callbacks
        registered on losing events — the sanitizer then reports those
        events as leaked even though nothing waits on them.
        """
        check = self._check
        for ev in self.events:
            cbs = ev.callbacks
            if cbs:
                try:
                    cbs.remove(check)
                except ValueError:
                    pass


class AllOf(Condition):
    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self._triggered:
            return
        exc = event._exc
        if exc is not None:
            event._defused = True
            self._detach()
            self.fail(exc)
            return
        value = event._value
        for i in self._indices.pop(event, ()):
            self._results[i] = value
        self._pending -= 1
        if self._pending == 0:
            self.succeed(self._snapshot())


class AnyOf(Condition):
    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self._triggered:
            return
        exc = event._exc
        if exc is not None:
            event._defused = True
            self._detach()
            self.fail(exc)
            return
        value = event._value
        for i in self._indices.pop(event, ()):
            self._results[i] = value
        self._detach()
        self.succeed(self._snapshot())


class Simulator:
    """The event loop: a bucketed near/far queue of (time, seq, event).

    Scheduled events live in one of four places, all popped in exact
    ``(time, seq)`` order:

    - ``_imm`` — a FIFO deque of events posted at the *current*
      instant (``delay == 0``), appended on post and drained with
      ``popleft``.  Sequence numbers increase with insertion, and
      nothing earlier at the same timestamp can still be outside the
      drain loop, so FIFO order is (time, seq) order.
    - ``_cur`` — a small heap holding the current calendar bucket.
    - ``_buckets`` — the calendar ring: events within the near horizon
      (``_N_BUCKETS << _W_SHIFT`` ns), appended unsorted and heapified
      only when their bucket becomes current.  ``_bucket_heap`` tracks
      which absolute buckets are populated, so advancing never scans
      empty slots.
    - ``_far`` — a plain heap for timers beyond the horizon; entries
      migrate into the ring as the horizon reaches them.

    ``sanitize=True`` attaches a :class:`repro.sim.sanitizer.Sanitizer`
    that records event provenance and reports ordering races, stranded
    processes, and leaked events/resources at the end of a run (see
    ``docs/static_analysis.md``).  ``strict_sanitize=True`` additionally
    raises :class:`repro.sim.sanitizer.SanitizerError` from :meth:`run`
    when leak-class findings exist.  With sanitize off (the default)
    and no observer processes attached, ``run()`` and ``_post`` use
    fast paths with no instrumentation checks at all; timelines are
    byte-identical either way.

    ``pooling`` controls the event freelists (default: on exactly when
    the sanitizer is off).  Recycled events are only ever ones with no
    outside references, so pooling is invisible to model code.  Each
    freelist is a LIFO ``deque(maxlen=_POOL_CAP)``: recycling into a
    full one drops its oldest entry, so the bound needs no check.
    """

    def __init__(self, sanitize: bool = False,
                 strict_sanitize: bool = False,
                 pooling: Optional[bool] = None):
        self.now: int = 0
        self._seq = 0
        self._count = 0              # queued events, all structures
        self._obs_count = 0          # queued observer events
        # current-instant FIFO: (time, seq, event) triples at self.now
        self._imm: Deque = deque()
        # calendar ring + current bucket
        self._cur: List = []         # heap: this bucket's entries
        self._cur_abs = 0            # absolute bucket number of _cur
        self._buckets: List[List] = [[] for _ in range(_N_BUCKETS)]
        self._bucket_heap: List[int] = []   # populated absolute buckets
        self._far: List = []         # heap: beyond the near horizon
        self._active_process: Optional[Process] = None
        self._san = None
        self._instrumented = False
        if sanitize or strict_sanitize:
            from .sanitizer import Sanitizer
            self._san = Sanitizer(self, strict=strict_sanitize)
        if pooling is None:
            pooling = self._san is None
        self._pooling = bool(pooling)
        self._pool_ev: Deque[Event] = deque(maxlen=_POOL_CAP)
        self._pool_to: Deque[Timeout] = deque(maxlen=_POOL_CAP)
        # Pre-bound scheduling path; _switch_to_instrumented swaps it.
        self._post = self._post_fast
        if self._san is not None:
            self._switch_to_instrumented()

    @property
    def sanitizer(self):
        """The attached Sanitizer, or None when sanitize is off."""
        return self._san

    # -- event factories --------------------------------------------------

    def event(self) -> Event:
        pool = self._pool_ev
        if pool:
            return pool.pop()
        return Event(self)

    def timeout(self, delay: int, value: Any = None) -> Timeout:
        pool = self._pool_to
        if pool:
            if delay < 0:
                raise SimulationError(f"negative timeout delay: {delay}")
            # A pooled timer is already triggered with no callbacks
            # (see _run_fast); only its delay and value differ.
            to = pool.pop()
            to.delay = d = int(delay)
            to._value = value
            if self._instrumented:
                self._post(to, d)
                return to
            # _post_fast and _place, inlined: file the timer straight
            # into the current instant, bucket, ring or far heap.
            self._seq = seq = self._seq + 1
            self._count += 1
            if d == 0:
                self._imm.append((self.now, seq, to))
                return to
            t = self.now + d
            ab = t >> _W_SHIFT
            cur_abs = self._cur_abs
            if ab <= cur_abs:
                heappush(self._cur, (t, seq, to))
            elif ab < cur_abs + _N_BUCKETS:
                slot = self._buckets[ab & _B_MASK]
                if not slot:
                    heappush(self._bucket_heap, ab)
                slot.append((t, seq, to))
            else:
                heappush(self._far, (t, seq, to))
            return to
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

    def _switch_to_instrumented(self) -> None:
        """Swap in the instrumented post path (sanitizer/observers).

        A running fast loop notices ``_instrumented`` on its next
        iteration and defers to the instrumented loop, so the switch is
        safe mid-run.
        """
        self._instrumented = True
        self._post = self._post_slow

    def _post_fast(self, event: Event, delay: int = 0) -> None:
        self._seq = seq = self._seq + 1
        self._count += 1
        if delay == 0:
            self._imm.append((self.now, seq, event))
            return
        self._place(self.now + delay, seq, event)

    def _post_slow(self, event: Event, delay: int = 0) -> None:
        self._seq = seq = self._seq + 1
        self._count += 1
        active = self._active_process
        if active is not None and active.observer:
            event._observer = True
        if event._observer:
            self._obs_count += 1
        when = self.now + delay
        if delay == 0:
            self._imm.append((when, seq, event))
        else:
            self._place(when, seq, event)
        if self._san is not None:
            self._san.note_scheduled(event, when, seq)

    def _place(self, t: int, seq: int, event: Event) -> None:
        """File a future entry into the current bucket, ring, or far heap."""
        ab = t >> _W_SHIFT
        cur_abs = self._cur_abs
        if ab <= cur_abs:
            # Current bucket — or earlier, which only happens after an
            # `until` stop parked the clock below the rotated bucket;
            # the heap keeps (time, seq) order either way.
            heappush(self._cur, (t, seq, event))
        elif ab < cur_abs + _N_BUCKETS:
            slot = self._buckets[ab & _B_MASK]
            if not slot:
                heappush(self._bucket_heap, ab)
            slot.append((t, seq, event))
        else:
            heappush(self._far, (t, seq, event))

    def _advance(self) -> int:
        """Rotate to the next populated bucket; return its first time.

        Only called when ``_imm`` is drained and ``_cur`` is empty but
        events remain, so there is always a next bucket — either the
        smallest populated ring slot or the far heap's bucket,
        whichever starts sooner (far entries for that bucket migrate
        into ``_cur`` so ties resolve by seq).
        """
        far = self._far
        bh = self._bucket_heap
        if bh and (not far or bh[0] <= far[0][0] >> _W_SHIFT):
            ab = heappop(bh)
            slot_i = ab & _B_MASK
            cur = self._buckets[slot_i]
            self._buckets[slot_i] = self._cur     # recycle the empty list
        else:
            ab = far[0][0] >> _W_SHIFT
            cur = self._cur
        while far and far[0][0] >> _W_SHIFT == ab:
            cur.append(heappop(far))
        self._cur_abs = ab
        heapify(cur)
        self._cur = cur
        return cur[0][0]

    def _flush_imm(self) -> None:
        """File pending current-instant entries by absolute time.

        Only needed when a ``run(until=...)`` call is about to park the
        clock *below* ``self.now`` (bug-compatible with the reference
        engine): the FIFO's implicit "at the current instant" no longer
        holds, so entries move into the time-indexed structures.
        """
        imm = self._imm
        while imm:
            t, seq, event = imm.popleft()
            self._place(t, seq, event) if t > (self._cur_abs << _W_SHIFT) \
                else heappush(self._cur, (t, seq, event))

    # -- the event loop ----------------------------------------------------

    def run(self, until: Optional[int] = None) -> int:
        """Drain the queue; stop once simulated time would pass ``until``.

        Stops early when only *observer* events remain (see
        :class:`Process`): a periodic telemetry sampler keeps ticking
        while model events are pending but never keeps the run alive on
        its own, so with monitoring attached a run ends at the exact
        same simulated instant as without it.

        Returns the simulation time when the run stopped.
        """
        if until is not None and until < self.now:
            # Bug-compatible with the reference engine: a horizon in
            # the past parks the clock there when events are pending.
            if self._count:
                self._flush_imm()
                self.now = until
            if self._san is not None:
                self._san.finish()
            return self.now
        if self._instrumented:
            return self._run_slow(until)
        return self._run_fast(until)

    def _run_fast(self, until: Optional[int]) -> int:
        """The no-sanitizer/no-observer drain loop."""
        pooling = self._pooling
        imm = self._imm
        imm_pop = imm.popleft
        pool_to = self._pool_to
        pool_ev = self._pool_ev
        now = self.now
        while self._count:
            if self._instrumented:
                # An observer process appeared mid-run.
                return self._run_slow(until)
            cur = self._cur
            if cur and cur[0][0] == now:
                event = heappop(cur)[2]
            elif imm:
                event = imm_pop()[2]
            else:
                when = cur[0][0] if cur else self._advance()
                if until is not None and when > until:
                    self.now = until
                    return until
                self.now = now = when
                continue
            self._count -= 1
            callbacks = event.callbacks
            event.callbacks = None
            if callbacks:
                for fn in callbacks:
                    fn(event)
            if event._exc is not None and not event._defused:
                raise event._exc
            if pooling and getrefcount(event) == 2:
                # Reset only what can differ from a fresh event.  Events
                # processed here were posted in fast mode, so none is an
                # observer event; a Timeout never fails and stays
                # triggered, so its callbacks and value are all it needs.
                cls = event.__class__
                if cls is Timeout:
                    callbacks.clear()
                    event.callbacks = callbacks
                    event._value = None
                    pool_to.append(event)
                elif cls is Event:
                    callbacks.clear()
                    event.callbacks = callbacks
                    event._value = None
                    event._exc = None
                    event._triggered = False
                    event._defused = False
                    pool_ev.append(event)
        if until is not None and until > now:
            self.now = until
        return self.now

    def _run_slow(self, until: Optional[int]) -> int:
        """The instrumented drain loop (sanitizer and/or observers)."""
        pooling = self._pooling
        while self._count:
            if self._obs_count >= self._count and until is None:
                # Only sampler wake-ups left: the model is quiescent.
                break
            cur = self._cur
            if cur and cur[0][0] == self.now:
                event = heappop(cur)[2]
            elif self._imm:
                event = self._imm.popleft()[2]
            else:
                when = cur[0][0] if cur else self._advance()
                if until is not None and when > until:
                    self.now = until
                    if self._san is not None:
                        self._san.finish()
                    return self.now
                self.now = when
                continue
            self._count -= 1
            if event._observer:
                self._obs_count -= 1
            callbacks = event.callbacks
            event.callbacks = None
            if callbacks:
                for fn in callbacks:
                    fn(event)
            if event._exc is not None and not event._defused:
                raise event._exc
            if pooling and getrefcount(event) == 2:
                cls = event.__class__
                if cls is Timeout:
                    pool = self._pool_to
                elif cls is Event:
                    pool = self._pool_ev
                else:
                    continue
                callbacks.clear()
                event.callbacks = callbacks
                event._value = None
                event._observer = False
                if cls is Event:
                    event._exc = None
                    event._triggered = False
                    event._defused = False
                pool.append(event)
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
        return self._count

    @property
    def events_scheduled(self) -> int:
        """Events posted to the queue since the simulator was created.

        Each post takes the next tie-break sequence number, so this is
        the ``seq`` of the most recent post.  Deterministic: per-op
        event budgets are stated in these units.
        """
        return self._seq

