"""Deterministic, mergeable, fixed-memory quantile sketches (DDSketch-style).

The data-plane observability layer records one latency observation per
delivered batch (weighted by tuple count), at million-key scale — far too
many points to sort at report time, and spread over sweep worker
processes that must be combined afterwards.  :class:`QuantileSketch` is
the log-bucketed sketch that makes this tractable:

- **Relative-error guarantee.**  Values land in geometric buckets of
  ratio ``gamma = (1 + a) / (1 - a)`` for relative accuracy ``a``; the
  reported quantile is the geometric midpoint of the bucket holding the
  exact rank value, so it is within ``a`` *relative* error of the exact
  answer at every quantile (values below :data:`MIN_TRACKED` collapse to
  a zero bucket and are reported as 0.0).
- **Mergeable.**  A merge is bucket-wise count addition — exact,
  associative and commutative — so per-shard sketches roll up into
  per-executor and per-run sketches, and sweep workers ship
  :meth:`to_dict` payloads that the parent merges losslessly.
- **Fixed memory.**  At most ``max_buckets`` buckets are kept; on
  overflow the lowest buckets collapse into one, preserving accuracy for
  the upper quantiles (p50/p95/p99) that latency reporting cares about.
- **Deterministic.**  No randomness, no wall clock: the same
  observations in the same order produce byte-identical payloads.

The exact sorted-percentile oracle these guarantees are property-tested
against is :func:`repro.telemetry.report.percentile`.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import typing

import numpy as np

#: Observations below this are counted in the zero bucket and reported
#: as 0.0 — a 1 ns floor, far below any simulated latency of interest.
MIN_TRACKED = 1e-9

PAYLOAD_KIND = "ddsketch"

# Module-local aliases skip the attribute lookups in `add`, which runs
# once per observation, and in the bulk folds.
_log = math.log
_ceil = math.ceil
_reduce = functools.reduce
_add = operator.add
_mul = operator.mul

#: Buffered observations a recorder holds before folding them into its
#: sketches: the run's sink age and residence buffers, and each
#: :class:`LatencyProbe`.  It bounds a recorder's buffer for any run
#: length.
FOLD_THRESHOLD = 4096

#: Length of :attr:`LatencyProbe._pending` (interleaved triples) at
#: which a recorder folds it.
PENDING_LIMIT = 3 * FOLD_THRESHOLD


class SketchMergeError(ValueError):
    """Sketches with incompatible bucket layouts cannot be merged."""


class QuantileSketch:
    """A log-bucketed quantile sketch over nonnegative values."""

    __slots__ = (
        "relative_accuracy", "max_buckets", "collapsed",
        "_gamma", "_log_gamma", "_inv_log_gamma", "_buckets", "_zero_count",
        "_count", "_sum", "_min", "_max",
    )

    def __init__(
        self, relative_accuracy: float = 0.01, max_buckets: int = 2048
    ) -> None:
        if not 0.0 < relative_accuracy < 1.0:
            raise ValueError(
                f"relative_accuracy must be in (0, 1), got {relative_accuracy}"
            )
        if max_buckets < 16:
            raise ValueError(f"max_buckets must be >= 16, got {max_buckets}")
        self.relative_accuracy = relative_accuracy
        self.max_buckets = max_buckets
        #: Buckets merged away so far to respect ``max_buckets``.
        self.collapsed = 0
        self._gamma = (1.0 + relative_accuracy) / (1.0 - relative_accuracy)
        self._log_gamma = math.log(self._gamma)
        self._inv_log_gamma = 1.0 / self._log_gamma
        self._buckets: typing.Dict[int, int] = {}
        self._zero_count = 0
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = 0.0

    # -- recording ----------------------------------------------------------

    def add(self, value: float, count: int = 1) -> None:
        """Record ``count`` observations of ``value`` (seconds, >= 0)."""
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        if value < 0.0:
            raise ValueError(f"value must be >= 0, got {value}")
        self._count += count
        self._sum += value * count
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        if value < MIN_TRACKED:
            self._zero_count += count
            return
        # Multiply by the cached reciprocal: this runs once per delivered
        # batch on instrumented runs, and a float divide is the single
        # most expensive arithmetic op in the function.
        index = _ceil(_log(value) * self._inv_log_gamma)
        buckets = self._buckets
        buckets[index] = buckets.get(index, 0) + count
        if len(buckets) > self.max_buckets:
            self._collapse()

    def add_all(
        self,
        values: typing.Sequence[float],
        counts: typing.Optional[typing.Sequence[int]] = None,
    ) -> None:
        """Record each of ``values`` once, or ``counts[i]`` times, in order.

        Exactly ``for value, count in zip(values, counts): self.add(value,
        count)``: the same buckets, left-to-right ``_sum``, zero bucket,
        min, max and collapses, and the same state when an entry raises.
        The bulk path for recorders that buffer observations: every bucket
        index comes from one pass of libm's ``log`` (the function ``add``
        calls; ``np.log`` differs from it in the last bit for some inputs)
        and the counts land with one ``bincount``.
        """
        if counts is not None and len(counts) != len(values):
            raise ValueError(f"{len(values)} values but {len(counts)} counts")
        if not values:
            return
        low = min(values)
        high = max(values)
        # Left to right, as `add` accumulates; builtin `sum` may compensate.
        if counts is None:
            total = _reduce(_add, values, self._sum)
        else:
            total = _reduce(_add, map(_mul, values, counts), self._sum)
        if not (
            low >= 0.0 and total - total == 0.0  # no NaN, no infinity
            and (counts is None or min(counts) >= 1)
        ):
            # An entry `add` rejects (or a sum that overflowed): the loop
            # itself, which raises where and as `add` does.
            for value, count in zip(
                values, itertools.repeat(1) if counts is None else counts
            ):
                self.add(value, count)
            return
        added = len(values) if counts is None else sum(counts)
        tracked: typing.Sequence[float] = values
        if low < MIN_TRACKED:
            keep = [value >= MIN_TRACKED for value in values]
            tracked = list(itertools.compress(values, keep))
            if counts is not None:
                counts = list(itertools.compress(counts, keep))
            self._zero_count += added - (len(tracked) if counts is None else sum(counts))
        self._count += added
        self._sum = total
        if low < self._min:
            self._min = low
        if high > self._max:
            self._max = high
        if not tracked:
            return
        indices = np.fromiter(map(_log, tracked), np.float64, len(tracked))
        indices *= self._inv_log_gamma
        indices = np.ceil(indices, out=indices).astype(np.intp)
        base = int(indices.min())
        tallies = np.bincount(indices - base, counts)
        hits = np.flatnonzero(tallies)
        keys = (hits + base).tolist()
        buckets = self._buckets
        max_buckets = self.max_buckets
        if len(buckets) + len(keys) > max_buckets and len(buckets) + sum(
            1 for key in keys if key not in buckets
        ) > max_buckets:
            # A collapse falls inside this run, and what it merges depends
            # on record order: take the observations one at a time.
            for index, count in zip(
                indices.tolist(),
                itertools.repeat(1) if counts is None else counts,
            ):
                buckets[index] = buckets.get(index, 0) + count
                if len(buckets) > max_buckets:
                    self._collapse()
            return
        get = buckets.get
        for key, tally in zip(keys, tallies[hits].astype(np.int64).tolist()):
            buckets[key] = get(key, 0) + tally

    def _collapse(self) -> None:
        """Merge the lowest buckets until within the memory budget.

        Collapsing floors the affected (smallest) values up to the cutoff
        bucket, so upper quantiles keep their error bound; only the low
        tail loses resolution.  Deterministic given the insertion order.
        """
        indices = sorted(self._buckets)
        overflow = len(indices) - self.max_buckets
        if overflow <= 0:
            return
        cutoff = indices[overflow]
        moved = 0
        for index in indices[:overflow]:
            moved += self._buckets.pop(index)
        self._buckets[cutoff] += moved
        self.collapsed += overflow

    def merge(self, other: "QuantileSketch") -> "QuantileSketch":
        """Fold ``other`` into this sketch (bucket-wise, exact); returns self."""
        if other.relative_accuracy != self.relative_accuracy:
            raise SketchMergeError(
                f"cannot merge sketches with different accuracies "
                f"({self.relative_accuracy} vs {other.relative_accuracy})"
            )
        buckets = self._buckets
        for index, count in other._buckets.items():
            buckets[index] = buckets.get(index, 0) + count
        self._zero_count += other._zero_count
        self._count += other._count
        self._sum += other._sum
        if other._min < self._min:
            self._min = other._min
        if other._max > self._max:
            self._max = other._max
        self.collapsed += other.collapsed
        if len(buckets) > self.max_buckets:
            self._collapse()
        return self

    # -- queries ------------------------------------------------------------

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    @property
    def min(self) -> float:
        return self._min if self._count else 0.0

    @property
    def max(self) -> float:
        return self._max

    def quantile(self, q: float) -> float:
        """Nearest-rank quantile, within ``relative_accuracy`` of exact.

        The same rank convention as the exact oracle
        :func:`repro.telemetry.report.percentile`: the value at index
        ``ceil(q * n) - 1`` (clamped) of the sorted observations.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"q must be in [0, 1], got {q}")
        return self._quantiles((q,))[0]

    def _quantiles(self, qs: typing.Sequence[float]) -> typing.List[float]:
        """:meth:`quantile` of each of ``qs`` (ascending), in one sorted pass."""
        count = self._count
        if count == 0:
            return [0.0] * len(qs)
        found: typing.List[float] = []
        gamma = self._gamma
        walk = iter(sorted(self._buckets.items()))
        cumulative = self._zero_count
        index = 0
        for q in qs:
            rank = max(0, min(count - 1, math.ceil(q * count) - 1))
            if rank < self._zero_count:
                found.append(0.0)
                continue
            while cumulative <= rank:
                bucket = next(walk, None)
                if bucket is None:
                    break
                index, tally = bucket
                cumulative += tally
            if cumulative > rank:
                value = 2.0 * gamma ** index / (gamma + 1.0)
                found.append(min(self._max, max(self._min, value)))
            else:
                found.append(self._max)
        return found

    def summary(self) -> typing.Dict[str, float]:
        """The standard latency summary: count/mean/p50/p95/p99/max."""
        p50, p95, p99 = self._quantiles((0.50, 0.95, 0.99))
        return {
            "count": float(self._count),
            "mean": self.mean,
            "p50": p50,
            "p95": p95,
            "p99": p99,
            "max": self.max,
        }

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> typing.Dict[str, typing.Any]:
        """JSON-safe payload; ``from_dict`` round-trips it exactly."""
        return {
            "kind": PAYLOAD_KIND,
            "relative_accuracy": self.relative_accuracy,
            "max_buckets": self.max_buckets,
            "count": self._count,
            "sum": self._sum,
            "zero_count": self._zero_count,
            "min": self._min if self._count else 0.0,
            "max": self._max,
            "collapsed": self.collapsed,
            "buckets": [
                [index, self._buckets[index]] for index in sorted(self._buckets)
            ],
        }

    @classmethod
    def from_dict(cls, data: typing.Mapping[str, typing.Any]) -> "QuantileSketch":
        if data.get("kind") != PAYLOAD_KIND:
            raise ValueError(f"not a {PAYLOAD_KIND} payload: {data.get('kind')!r}")
        sketch = cls(
            relative_accuracy=float(data["relative_accuracy"]),
            max_buckets=int(data.get("max_buckets", 2048)),
        )
        sketch._count = int(data["count"])
        sketch._sum = float(data["sum"])
        sketch._zero_count = int(data.get("zero_count", 0))
        sketch._min = float(data["min"]) if sketch._count else math.inf
        sketch._max = float(data["max"])
        sketch.collapsed = int(data.get("collapsed", 0))
        sketch._buckets = {
            int(index): int(count) for index, count in data.get("buckets", [])
        }
        return sketch

    def __len__(self) -> int:
        """Live bucket count (memory footprint), not observation count."""
        return len(self._buckets) + (1 if self._zero_count else 0)

    def __repr__(self) -> str:
        return (
            f"QuantileSketch(a={self.relative_accuracy}, n={self._count}, "
            f"buckets={len(self._buckets)})"
        )


def merge_all(
    sketches: typing.Iterable[QuantileSketch],
    relative_accuracy: float = 0.01,
    max_buckets: int = 2048,
) -> QuantileSketch:
    """A fresh sketch holding the union of ``sketches`` (exact merge)."""
    merged = QuantileSketch(relative_accuracy, max_buckets=max_buckets)
    for sketch in sketches:
        if merged.count == 0 and merged.relative_accuracy != sketch.relative_accuracy:
            merged = QuantileSketch(sketch.relative_accuracy, max_buckets=max_buckets)
        merged.merge(sketch)
    return merged


def merge_payloads(
    payloads: typing.Iterable[typing.Mapping[str, typing.Any]],
) -> typing.Optional[QuantileSketch]:
    """Merge serialized sketch payloads (sweep workers ship these)."""
    merged: typing.Optional[QuantileSketch] = None
    for payload in payloads:
        sketch = QuantileSketch.from_dict(payload)
        merged = sketch if merged is None else merged.merge(sketch)
    return merged


class LatencyProbe:
    """Per-shard (key-group) end-to-end latency sketches for one owner.

    Installed on an executor (elastic/static: ``executor.latency_probe``)
    or an RC operator manager by :meth:`repro.telemetry.core.Telemetry.probe`
    when telemetry is enabled — the attribute stays ``None`` otherwise, so
    the hot delivery path pays exactly one pointer test, matching the
    branch-free ``NULL_BUS`` discipline.

    Recording is read-only with respect to the simulation: no virtual
    time, no events, no RNG — results stay bit-identical with probes on.

    Recording is also *deferred*: :meth:`record` extends a flat buffer
    with the plain scalars ``(shard_id, latency, count)`` — no object kept
    per batch, so no garbage-collector pressure on the data plane — and
    the bucket math (including the clamp of negative latencies to 0)
    folds into the per-shard sketches either when a reader asks or when
    the buffer reaches :data:`FOLD_THRESHOLD` observations, which bounds
    memory for any run length.  Folding preserves record order, so
    payloads stay deterministic.  The task loop performs :meth:`record`
    inline (``repro.executors.task``): one ``+=`` of the triple and a
    length test against :data:`PENDING_LIMIT`, with no call frame per
    batch.
    """

    __slots__ = (
        "name", "relative_accuracy", "max_buckets", "warmup",
        "_sketches", "_pending",
    )

    def __init__(
        self,
        name: str,
        relative_accuracy: float = 0.01,
        max_buckets: int = 2048,
        warmup: float = 0.0,
    ) -> None:
        self.name = name
        self.relative_accuracy = relative_accuracy
        self.max_buckets = max_buckets
        #: Observations before this virtual time are dropped, mirroring
        #: the warmup window of the run's headline sink-latency sketches.
        self.warmup = warmup
        self._sketches: typing.Dict[int, QuantileSketch] = {}
        #: Interleaved (shard_id, latency, count) triples awaiting a fold.
        self._pending: typing.List[typing.Any] = []

    def record(self, shard_id: int, latency: float, count: int, now: float) -> None:
        """One completed batch: ``count`` tuples at ``latency`` seconds."""
        if now < self.warmup:
            return
        pending = self._pending
        pending += (shard_id, latency, count)
        if len(pending) >= PENDING_LIMIT:
            self._fold()

    def _fold(self) -> None:
        """Drain the observation buffer into the per-shard sketches.

        Exactly a per-triple ``sketch.add(latency if latency > 0.0 else
        0.0, count)``: one clamp over the whole buffer, then each shard's
        triples, in record order, through one
        :meth:`QuantileSketch.add_all`.  Shards are taken in order of first
        appearance, so new sketches join :attr:`_sketches` in the order the
        loop would add them (the order :meth:`merged` merges in).
        """
        pending = self._pending
        if not pending:
            return
        latencies = [latency if latency > 0.0 else 0.0 for latency in pending[1::3]]
        runs: typing.Dict[int, typing.Tuple[typing.List[float], typing.List[int]]] = {}
        for shard, latency, count in zip(pending[0::3], latencies, pending[2::3]):
            run = runs.get(shard)
            if run is None:
                runs[shard] = ([latency], [count])
            else:
                run[0].append(latency)
                run[1].append(count)
        del pending[:]
        sketches = self._sketches
        for shard, (values, counts) in runs.items():
            sketch = sketches.get(shard)
            if sketch is None:
                sketch = QuantileSketch(self.relative_accuracy, self.max_buckets)
                sketches[shard] = sketch
            sketch.add_all(values, counts)

    @property
    def count(self) -> int:
        self._fold()
        return sum(sketch.count for sketch in self._sketches.values())

    def sketches(self) -> typing.Dict[int, QuantileSketch]:
        """shard id -> sketch, in shard order."""
        self._fold()
        return {shard: self._sketches[shard] for shard in sorted(self._sketches)}

    def merged(self) -> QuantileSketch:
        """All shards of this probe folded into one sketch."""
        self._fold()
        return merge_all(
            self._sketches.values(),
            relative_accuracy=self.relative_accuracy,
            max_buckets=self.max_buckets,
        )

    def to_dict(self) -> typing.Dict[str, typing.Any]:
        merged = self.merged()
        return {
            "name": self.name,
            "relative_accuracy": self.relative_accuracy,
            "count": merged.count,
            "summary": merged.summary(),
            "merged": merged.to_dict(),
            "shards": {
                str(shard): self._sketches[shard].to_dict()
                for shard in sorted(self._sketches)
            },
        }

    def __repr__(self) -> str:
        return f"LatencyProbe({self.name!r}, shards={len(self._sketches)})"
