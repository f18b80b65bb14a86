"""Tasks: the data-processing threads of an executor.

One task per assigned CPU core (paper §3).  A task pulls items from its
pending queue strictly FIFO — the property the labeling-tuple drain
protocol relies on — and delegates actual batch processing to its owning
executor, so the same Task class serves all three paradigms.
"""

from __future__ import annotations

import typing

from repro.sim import Environment, Store
from repro.topology.batch import LabelTuple, TupleBatch


class StopSignal:
    """Queue sentinel that makes a task exit after in-queue work drains."""

    __slots__ = ()

    _instance: typing.Optional["StopSignal"] = None

    def __new__(cls) -> "StopSignal":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "<StopSignal>"


STOP = StopSignal()


class Task:
    """A processing thread bound to one CPU core on one node."""

    __slots__ = (
        "env", "task_id", "node_id", "owner", "queue", "stopped",
        "busy_seconds", "current_item", "process",
    )

    def __init__(
        self,
        env: Environment,
        task_id: int,
        node_id: int,
        owner: typing.Any,
        queue_capacity: int = 8,
    ) -> None:
        self.env = env
        self.task_id = task_id
        self.node_id = node_id
        self.owner = owner
        self.queue = Store(env, capacity=queue_capacity)
        self.stopped = False
        self.busy_seconds = 0.0
        # Batch currently being processed but not yet committed to state.
        # The executor clears it at the commit point, so a crash knows
        # whether the in-progress batch was applied or must count as lost.
        self.current_item: typing.Optional[typing.Any] = None
        # Elastic executors supply a callback-compiled pipeline (an Event
        # with the Process kill/completion contract); other owners (the RC
        # executor) drive the task with the generator loop below.
        make_pipeline = getattr(owner, "make_pipeline", None)
        if make_pipeline is not None:
            self.process = make_pipeline(self)
        else:
            self.process = env.process(self._run())

    def _run(self) -> typing.Generator:
        env = self.env
        get = self.queue.get
        process_batch = self.owner.process_batch
        while True:
            item = yield get()
            cls = item.__class__
            if cls is not TupleBatch:
                # Control items are rare; exact class checks keep the
                # common batch path to a single pointer comparison.
                if cls is StopSignal:
                    self.stopped = True
                    return
                if cls is LabelTuple:
                    # FIFO guarantees every tuple routed to this task before
                    # the label has already been processed — signal the drain.
                    item.event.succeed()
                    continue
            started = env._now
            self.current_item = item
            yield from process_batch(self, item)
            self.current_item = None
            self.busy_seconds += env._now - started

    def kill(self) -> typing.List[typing.Any]:
        """Abruptly terminate the task (hardware failure semantics).

        Returns every unprocessed item: the uncommitted in-progress batch
        (if any) plus everything still queued.  The task's pending get is
        cancelled so late deliveries are not swallowed by a dead coroutine.
        """
        self.stopped = True
        items: typing.List[typing.Any] = []
        if self.current_item is not None:
            items.append(self.current_item)
            self.current_item = None
        waiting = self.process.kill()
        if waiting is not None:
            self.queue.cancel(waiting)
        items.extend(self.queue.drain())
        return items

    def __repr__(self) -> str:
        return f"Task(id={self.task_id}, node={self.node_id})"
