"""Deterministic discrete-event simulation kernel.

This package is the execution substrate for the Elasticutor reproduction.
The paper's prototype runs on a real cluster; in pure Python the GIL makes
genuine intra-process multi-core execution impossible, so the whole system
runs in *virtual time* on this kernel instead (see DESIGN.md, section 2).

The design follows the classic event/process model (as in SimPy):

- :class:`Environment` owns the virtual clock and the event queue.
- :class:`Event` is an occurrence that other entities can wait on.  Each
  trigger is one-shot; once processed, the event's owner may re-arm it.
- :class:`Process` wraps a generator that ``yield``\\ s events; the process
  resumes when the yielded event fires.
- :class:`Store` is a bounded FIFO channel — the building block for task
  pending queues and backpressure.
- :class:`Resource` is a counted semaphore over virtual time.
- :class:`AllOf` fires once every one of several events has fired.

Processes drive the control plane (reassignment, scheduling, recovery).
The per-batch data path instead runs as callback state machines that
append to ``Event.callbacks`` directly (see :mod:`repro.executors`); they
wait on the same events a process would, so the event order is the same.
Each loop owns its events and re-arms them through the arm forms
(:meth:`Store.arm_get`, :meth:`Store.arm_put`, :meth:`Resource.arm_request`,
:meth:`Environment.arm_at`): the queue entries are the ones the allocating
forms would make, at the same points, so only object identity changes.

Event ordering is fully deterministic: ties in time are broken by a
monotonically increasing sequence number, so two runs with the same seed
produce identical traces.
"""

from repro.sim.events import AllOf, Event, SimulationError, Timeout
from repro.sim.environment import Environment
from repro.sim.process import Process, ProcessCrash
from repro.sim.resources import Resource
from repro.sim.stores import Store, StoreFull

__all__ = [
    "AllOf",
    "Environment",
    "Event",
    "Process",
    "ProcessCrash",
    "Resource",
    "SimulationError",
    "Store",
    "StoreFull",
    "Timeout",
]
