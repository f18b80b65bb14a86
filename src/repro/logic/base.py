"""The operator-logic interface (the paper's ElasticBolt equivalent)."""

from __future__ import annotations

import abc
import copy
import typing

import numpy as np

from repro.topology.batch import Emission, TupleBatch

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.state.shard import ShardState


class StateAccess:
    """Per-key state interface handed to operator logic.

    Wraps the shard state owned by the processing task's process — the
    paper's intra-process state-sharing design means logic never knows
    where the state physically lives.
    """

    __slots__ = ("_shard",)

    def __init__(self, shard: "ShardState") -> None:
        self._shard = shard

    def get(self, key: int, default: typing.Any = None) -> typing.Any:
        return self._shard.data.get(key, default)

    def put(self, key: int, value: typing.Any) -> None:
        self._shard.data[key] = value

    def delete(self, key: int) -> None:
        self._shard.data.pop(key, None)

    def grow(self, nbytes: int) -> None:
        """Record that this shard's state footprint changed by ``nbytes``."""
        self._shard.resize(self._shard.nominal_bytes + nbytes)


class OperatorLogic(abc.ABC):
    """Processing logic of one operator.

    ``cpu_seconds`` tells the simulator how long a batch occupies a core;
    ``process`` performs the (optional) real computation and returns the
    emissions forwarded to every downstream operator.

    Each executor runs its own replica made by :func:`replicate`.  A
    read-only numpy array attribute (``flags.writeable`` false) is one
    buffer shared by every replica of the operator; every other attribute
    (alarm lists, counters, writable arrays) is deep-copied per replica.
    """

    def cpu_seconds(self, batch: TupleBatch) -> float:
        """CPU time the batch consumes.  Defaults to the batch's own cost."""
        return batch.total_cpu_cost

    @abc.abstractmethod
    def process(
        self, batch: TupleBatch, state: StateAccess
    ) -> typing.List[Emission]:
        """Consume a batch, update state, emit downstream batches."""


def replicate(logic: OperatorLogic) -> OperatorLogic:
    """One executor's copy of ``logic``: its read-only arrays are shared,
    everything else is deep-copied."""
    shared = {
        id(value): value
        for value in vars(logic).values()
        if isinstance(value, np.ndarray) and not value.flags.writeable
    }
    return copy.deepcopy(logic, shared)


class SyntheticLogic(OperatorLogic):
    """Cost-model-only logic for micro-benchmarks.

    Emits ``selectivity`` output tuples per input tuple (fractional
    selectivities accumulate a deterministic remainder), each of
    ``output_size_bytes``, keyed by a stable re-hash of the input key so
    downstream operators see a well-spread key distribution.
    """

    def __init__(
        self,
        selectivity: float = 1.0,
        output_size_bytes: typing.Optional[int] = None,
        cost_per_tuple: typing.Optional[float] = None,
        touch_state: bool = True,
    ) -> None:
        if selectivity < 0:
            raise ValueError(f"selectivity must be >= 0, got {selectivity}")
        self.selectivity = selectivity
        self.output_size_bytes = output_size_bytes
        self.cost_per_tuple = cost_per_tuple
        self.touch_state = touch_state
        self._carry = 0.0

    def cpu_seconds(self, batch: TupleBatch) -> float:
        if self.cost_per_tuple is not None:
            return batch.count * self.cost_per_tuple
        return batch.total_cpu_cost

    def process(
        self, batch: TupleBatch, state: StateAccess
    ) -> typing.List[Emission]:
        if self.touch_state:
            # StateAccess.get/put, inline: a frame each per batch.
            data = state._shard.data
            data[batch.key] = data.get(batch.key, 0) + batch.count
        wanted = batch.count * self.selectivity + self._carry
        out_count = int(wanted)
        self._carry = wanted - out_count
        if out_count == 0:
            return []
        size = (
            self.output_size_bytes
            if self.output_size_bytes is not None
            else batch.size_bytes
        )
        return [Emission(key=batch.key, count=out_count, size_bytes=size)]
