"""Runtime shard-ownership race sanitizer (``REPRO_SANITIZE=1``).

The consistent-reassignment protocol (paper §3.3) promises exclusivity:
at any instant exactly one task owns a shard's state, and only that task
touches it.  The routing table already records who that task is
(:class:`~repro.executors.routing.ShardEntry`), so the sanitizer keeps
no state of its own: it checks the entry at the two sites where the
invariant can break, and aborts there with a :class:`ShardRaceError`.

- **State access** (``_TaskPipeline._execute``, before the operator
  touches the shard): the accessing task must be ``entry.task``.  An
  orphaned shard (its owner died) is owned by nobody, so any access
  aborts.  This covers a task processing a tuple routed before an
  ownership change as well as two tasks touching one shard mid-move.
- **Drain start** (``ElasticExecutor._move_shard``, before a live move
  pauses the shard): an owned shard that is already paused is already
  being moved, and a second labeling-tuple drain would race the first.

Zero overhead when disabled: executors hold ``None`` and each check site
is a single ``is not None`` test.  The checks only read the routing
table and the clock, so enabling them cannot perturb simulation results.
"""

from __future__ import annotations

import os
import typing

if typing.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.executors.routing import ShardEntry
    from repro.executors.task import Task


def sanitize_enabled() -> bool:
    """True when ``REPRO_SANITIZE`` is set to a truthy value."""
    value = os.environ.get("REPRO_SANITIZE", "").strip().lower()
    return value not in ("", "0", "false", "no", "off")


class ShardRaceError(AssertionError):
    """A shard-ownership invariant was violated at runtime."""

    __slots__ = ()


class ShardSanitizer:
    """Checks one executor's shard accesses against its routing table."""

    __slots__ = ("executor_name", "clock")

    def __init__(
        self, executor_name: str, clock: typing.Optional[typing.Any] = None
    ) -> None:
        self.executor_name = executor_name
        #: Anything with a ``now`` attribute (an Environment in practice).
        self.clock = clock

    @classmethod
    def from_env(
        cls, executor_name: str, clock: typing.Optional[typing.Any] = None
    ) -> typing.Optional["ShardSanitizer"]:
        """The sanitizer, or ``None`` unless ``REPRO_SANITIZE`` is set."""
        if not sanitize_enabled():
            return None
        return cls(executor_name, clock)

    def on_access(self, entry: "ShardEntry", task: "Task") -> None:
        """``task`` is about to touch the state of ``entry``'s shard."""
        if entry.task is not task:
            self._abort(entry, f"task {task.task_id} accessed its state")

    def on_pause(self, entry: "ShardEntry") -> None:
        """A live move is about to pause ``entry``'s shard for its drain.

        An orphaned entry is paused too, by a crash landing in the move's
        set-up delay; that is not a second drain, and the move gives up
        once its chase returns."""
        if entry.paused and entry.task is not None:
            self._abort(entry, "drain started while a move already paused it")

    def _abort(self, entry: "ShardEntry", what: str) -> typing.NoReturn:
        now = getattr(self.clock, "now", 0.0)
        owner = (
            "orphaned" if entry.task is None else f"task {entry.task.task_id}"
        )
        raise ShardRaceError(
            f"{self.executor_name} shard {entry.shard_id}: {what} "
            f"(routing owner: {owner}, paused: {entry.paused}, t={now:g})"
        )
