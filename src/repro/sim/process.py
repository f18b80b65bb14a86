"""Generator-based simulation processes."""

from __future__ import annotations

import typing

from repro.sim.events import Callbacks, Event, SimulationError, remove_callback

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.environment import Environment


class ProcessCrash(SimulationError):
    """Raised when a process dies with an unhandled exception."""

    __slots__ = ()


class Process(Event):
    """A coroutine of events.

    The wrapped generator yields :class:`Event` instances; the process
    suspends until each yielded event is processed, then resumes with the
    event's value (or has the exception thrown in, if the event failed).
    A :class:`Process` is itself an event that fires when the generator
    returns, so processes can wait on each other.

    An unhandled exception inside a process fails the process event; if no
    other process is waiting on it by then, the exception propagates out of
    :meth:`Environment.run` wrapped in :class:`ProcessCrash` — crashes are
    never silent.
    """

    __slots__ = ("_generator", "_send", "_waiting_on", "_on_event")

    def __init__(self, env: "Environment", generator: typing.Generator) -> None:
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise SimulationError(f"process body must be a generator, got {generator!r}")
        super().__init__(env)
        self._generator = generator
        self._send = generator.send
        self._waiting_on: typing.Optional[Event] = None
        # The one bound-method object registered as a callback everywhere;
        # caching it avoids re-binding per suspension and keeps
        # ``remove_callback`` in kill() matching by identity.
        self._on_event = self._resume
        bootstrap = Event(env)
        bootstrap._ok = True
        bootstrap._value = None
        bootstrap.callbacks = self._on_event
        env._ready.append(bootstrap)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self.triggered

    def kill(self) -> typing.Optional[Event]:
        """Terminate the process abruptly (crash semantics).

        The generator is closed — ``finally`` blocks run, so held locks are
        released — and the process event fires with ``None`` so waiters are
        not stranded.  Returns the event the process was blocked on, if any,
        so the caller can cancel store/resource bookkeeping tied to it
        (see :meth:`Store.cancel`).  Killing a finished process is a no-op.
        """
        if self.triggered:
            return None
        waiting = self._waiting_on
        if waiting is not None:
            remove_callback(waiting, self._on_event)
            self._waiting_on = None
        self._generator.close()
        self.succeed(None)
        return waiting

    def _resume(self, event: Event) -> None:
        # Hot path: slot reads (event._ok/_value, target.callbacks) instead
        # of the guarded properties — the kernel only delivers triggered
        # events here, so the guards cannot fire.
        self._waiting_on = None
        send = self._send
        while True:
            try:
                if event._ok:
                    target = send(event._value)
                else:
                    target = self._generator.throw(event._value)
            except StopIteration as exc:
                self.succeed(exc.value)
                return
            except BaseException as exc:  # noqa: BLE001 - deliberate crash path
                if self.callbacks:
                    self.fail(exc)
                    return
                name = getattr(self._generator, "__name__", repr(self._generator))
                raise ProcessCrash(
                    f"process {name} crashed at t={self.env.now}: {exc!r}"
                ) from exc
            callbacks = getattr(target, "callbacks", False)
            if callbacks is False:
                raise SimulationError(
                    f"process yielded {target!r}; only events may be yielded"
                )
            if callbacks is None:
                # Already fired: consume its value synchronously and continue.
                event = target
                continue
            self._waiting_on = target
            # add_callback, inline: a frame per suspension.
            if callbacks.__class__ is Callbacks:
                if callbacks:
                    callbacks.append(self._on_event)
                else:
                    target.callbacks = self._on_event
            elif getattr(target, "then", False) is None:
                target.then = self._on_event
            else:
                target.callbacks = Callbacks((callbacks, self._on_event))
            return
