"""The two-tier routing table of an elastic executor (paper §3.2).

Tier 1 — key -> shard — is a static hash (:func:`repro.topology.keys.shard_of_key`).
Tier 2 — shard -> task — is this table: an explicit dynamic mapping updated
on shard reassignments, with per-shard pause buffers used by the
consistent-reassignment protocol to hold arrivals while a shard moves.
"""

from __future__ import annotations

import collections
import typing

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.executors.task import Task


class _CountedBuffer(collections.deque):
    """A pause buffer that keeps its table's running total exact.

    Every mutation path used on pause buffers (append/popleft and the
    rarer variants) adjusts the owning :class:`RoutingTable`'s counter,
    so :meth:`RoutingTable.buffered_items` is O(1) instead of re-summing
    every shard's buffer on each diagnostics sample.
    """

    __slots__ = ("_table",)

    def __init__(self, table: "RoutingTable") -> None:
        super().__init__()
        self._table = table

    def append(self, item: typing.Any) -> None:
        self._table._buffered += 1
        super().append(item)

    def appendleft(self, item: typing.Any) -> None:
        self._table._buffered += 1
        super().appendleft(item)

    def extend(self, items: typing.Iterable) -> None:
        items = list(items)
        self._table._buffered += len(items)
        super().extend(items)

    def pop(self) -> typing.Any:
        item = super().pop()
        self._table._buffered -= 1
        return item

    def popleft(self) -> typing.Any:
        item = super().popleft()
        self._table._buffered -= 1
        return item

    def remove(self, item: typing.Any) -> None:
        super().remove(item)
        self._table._buffered -= 1

    def clear(self) -> None:
        self._table._buffered -= len(self)
        super().clear()


class ShardEntry:
    """Routing state of one shard.

    The pause buffer is created when the shard first pauses: most shards
    never move, and a million-key run has thousands of them.
    """

    __slots__ = ("shard_id", "task", "paused", "_table", "_buffer")

    def __init__(self, shard_id: int, table: "RoutingTable") -> None:
        self.shard_id = shard_id
        self.task: typing.Optional["Task"] = None
        self.paused = False
        self._table = table
        self._buffer: typing.Optional[_CountedBuffer] = None

    @property
    def buffer(self) -> collections.deque:
        """The pause buffer, created on first use."""
        if self._buffer is None:
            self._buffer = _CountedBuffer(self._table)
        return self._buffer

    def pause(self) -> collections.deque:
        """Hold the shard's arrivals from now on; returns its pause buffer."""
        self.paused = True
        return self.buffer

    def __repr__(self) -> str:
        state = "paused" if self.paused else "active"
        return f"ShardEntry({self.shard_id} -> {self.task}, {state})"


class RoutingTable:
    """shard -> task mapping with per-task shard sets."""

    __slots__ = ("num_shards", "_buffered", "_entries", "_shards_by_task")

    def __init__(self, num_shards: int) -> None:
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        self.num_shards = num_shards
        self._buffered = 0
        self._entries = [ShardEntry(i, self) for i in range(num_shards)]
        self._shards_by_task: typing.Dict["Task", set] = {}

    def entry(self, shard_id: int) -> ShardEntry:
        return self._entries[shard_id]

    def register_task(self, task: "Task") -> None:
        if task in self._shards_by_task:
            raise ValueError(f"{task!r} already registered")
        self._shards_by_task[task] = set()

    def unregister_task(self, task: "Task") -> None:
        shards = self._shards_by_task.pop(task, set())
        if shards:
            raise ValueError(f"cannot unregister {task!r}: still owns {sorted(shards)}")

    def assign(self, shard_id: int, task: "Task") -> None:
        """Point ``shard_id`` at ``task`` (does not touch pause state)."""
        if task not in self._shards_by_task:
            raise ValueError(f"{task!r} is not registered")
        entry = self._entries[shard_id]
        if entry.task is not None:
            self._shards_by_task[entry.task].discard(shard_id)
        entry.task = task
        self._shards_by_task[task].add(shard_id)

    def orphan_task(self, task: "Task") -> typing.List[int]:
        """Detach a dead task: its shards pause with no owner.

        Unlike :meth:`unregister_task` this never raises — crash recovery
        calls it for tasks that still own shards.  Arrivals for the
        orphaned shards collect in the pause buffers until recovery
        re-homes them.  Returns the orphaned shard ids, sorted.
        """
        shards = sorted(self._shards_by_task.pop(task, set()))
        for shard_id in shards:
            entry = self._entries[shard_id]
            entry.task = None
            entry.pause()
        return shards

    def orphan_shard(self, shard_id: int) -> None:
        """Detach one shard from its owner: it pauses with no owner."""
        entry = self._entries[shard_id]
        if entry.task is not None:
            self._shards_by_task[entry.task].discard(shard_id)
            entry.task = None
        entry.pause()

    def shards_of(self, task: "Task") -> typing.Set[int]:
        return set(self._shards_by_task.get(task, set()))

    def assignment(self) -> typing.Dict[int, "Task"]:
        """shard -> task snapshot (unassigned shards omitted)."""
        return {
            entry.shard_id: entry.task
            for entry in self._entries
            if entry.task is not None
        }

    @property
    def tasks(self) -> typing.Tuple["Task", ...]:
        return tuple(self._shards_by_task)

    def buffered_items(self) -> int:
        """Total items held in pause buffers (diagnostics).

        O(1): a running counter maintained by the entries' counted
        buffers, not a re-sum over all shards.
        """
        return self._buffered
