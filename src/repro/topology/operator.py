"""Operator specifications."""

from __future__ import annotations

import dataclasses
import typing

from repro.fields import COUNT, INDEX, check_fields, check_number
from repro.topology.keys import KeySpace

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.logic.base import OperatorLogic


#: Load rules of an operator's numbers (``hot_state_entries``, None or a
#: count, is checked beside them).
_SPEC_RULES = {"num_executors": COUNT, "shards_per_executor": COUNT, "shard_state_bytes": INDEX}


@dataclasses.dataclass
class OperatorSpec:
    """Declarative description of one operator.

    ``num_executors`` is the paper's y (executors per operator) and
    ``shards_per_executor`` is z (defaults y=32, z=256, i.e. 8192 shards
    per operator).  For source operators ``logic`` is None — sources are
    driven by a workload generator instead of by upstream tuples.
    """

    name: str
    logic: typing.Optional["OperatorLogic"] = None
    key_space: KeySpace = dataclasses.field(default_factory=lambda: KeySpace(10_000))
    num_executors: int = 32
    shards_per_executor: int = 256
    is_source: bool = False
    #: Initial per-shard state footprint in bytes (paper default 32 KB).
    shard_state_bytes: int = 32 * 1024
    #: When set, each shard bounds its live per-key state objects to this
    #: many entries, spilling the LRU excess to a compact pickled tier
    #: (:class:`repro.state.flat.SpillableKeyStore`).  None keeps plain
    #: dicts — right at small key counts where spilling is pure overhead.
    hot_state_entries: typing.Optional[int] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("operator name must be non-empty")
        check_fields(self, _SPEC_RULES)
        if self.hot_state_entries is not None:
            check_number("hot_state_entries", self.hot_state_entries, COUNT)
        if not self.is_source and self.logic is None:
            raise ValueError(f"{self.name}: non-source operators need logic")

    @property
    def total_shards(self) -> int:
        return self.num_executors * self.shards_per_executor
