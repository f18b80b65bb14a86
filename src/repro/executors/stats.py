"""Per-executor metrics and reassignment instrumentation."""

from __future__ import annotations

import dataclasses
import typing

from repro.metrics import EWMA, Counter, PairedWindowedRate, WindowedRate


class ExecutorMetrics:
    """Performance metrics of one executor, as fed to the scheduler.

    λ (arrival rate, tuples/s), the per-tuple service cost (whose inverse
    is µ, the per-core processing rate), processed counts, and the data
    rates that define data intensity (paper §4.2).  No queueing latency:
    nothing reads it here, and a harness sketches it in its sink recorder.
    """

    __slots__ = (
        "_in_rates", "output_bytes", "service_cost",
        "processed_tuples", "processed_batches",
    )

    def __init__(self, window: float = 5.0, cost_half_life: float = 5.0) -> None:
        #: Tuple arrivals and input bytes share one timestamped deque
        #: (they are recorded together per batch on the hot path).
        self._in_rates = PairedWindowedRate(window)
        self.output_bytes = WindowedRate(window)
        self.service_cost = EWMA(half_life=cost_half_life, initial=1e-3)
        self.processed_tuples = Counter()
        self.processed_batches = Counter()

    def on_arrival(self, now: float, count: int, nbytes: int) -> None:
        self._in_rates.record(now, count, nbytes)

    def on_processed(self, now: float, count: int, cpu_seconds: float) -> None:
        # Counter adds inlined (slot writes): once per processed batch.
        self.processed_tuples._total += count
        self.processed_batches._total += 1
        if count > 0:
            self.service_cost.update(now, cpu_seconds / count)

    def on_emit(self, now: float, nbytes: int) -> None:
        self.output_bytes.record(now, nbytes)

    def arrival_rate(self, now: float) -> float:
        """λ_j in tuples/second."""
        return self._in_rates.rate_a(now)

    def service_rate(self) -> float:
        """µ_j: tuples/second one core can process."""
        cost = max(self.service_cost.value, 1e-9)
        return 1.0 / cost

    def data_rate(self, now: float) -> float:
        """Total input+output bytes/second (data-intensity numerator)."""
        return self._in_rates.rate_b(now) + self.output_bytes.rate(now)


@dataclasses.dataclass(slots=True)
class ReassignmentRecord:
    """Timing breakdown of one shard reassignment (Figures 8 and 9)."""

    time: float
    shard_id: int
    inter_node: bool
    sync_seconds: float
    migration_seconds: float
    migrated_bytes: int

    @property
    def total_seconds(self) -> float:
        return self.sync_seconds + self.migration_seconds


class ReassignmentStats:
    """Collects reassignment timing records across the system."""

    __slots__ = ("records",)

    def __init__(self) -> None:
        self.records: typing.List[ReassignmentRecord] = []

    def record(self, record: ReassignmentRecord) -> None:
        self.records.append(record)

    def _select(self, inter_node: bool) -> typing.List[ReassignmentRecord]:
        return [r for r in self.records if r.inter_node == inter_node]

    def mean_breakdown(self, inter_node: bool) -> typing.Dict[str, float]:
        """Average sync / migration / total seconds for intra or inter moves."""
        selected = self._select(inter_node)
        if not selected:
            return {"count": 0, "sync": 0.0, "migration": 0.0, "total": 0.0}
        n = len(selected)
        return {
            "count": n,
            "sync": sum(r.sync_seconds for r in selected) / n,
            "migration": sum(r.migration_seconds for r in selected) / n,
            "total": sum(r.total_seconds for r in selected) / n,
        }

    @property
    def total_migrated_bytes(self) -> int:
        return sum(r.migrated_bytes for r in self.records)
