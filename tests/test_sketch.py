"""QuantileSketch / LatencyProbe properties: accuracy, merging, memory.

The sketch's contract (docs/observability.md) is property-tested here
against the exact nearest-rank oracle
:func:`repro.telemetry.report.percentile`:

- every quantile is within ``relative_accuracy`` *relative* error of the
  exact answer over >=100k samples from hostile distributions;
- merging is exact (bucket-wise), associative and commutative, so
  per-shard -> per-run -> cross-worker rollups lose nothing;
- memory stays bounded (``max_buckets``) with the upper quantiles intact;
- payloads round-trip byte-identically through ``to_dict``/JSON.
"""

import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.telemetry.report import percentile
from repro.telemetry.sketch import (
    FOLD_THRESHOLD,
    MIN_TRACKED,
    PAYLOAD_KIND,
    LatencyProbe,
    QuantileSketch,
    SketchMergeError,
    merge_all,
    merge_payloads,
)

QUANTILES = (0.0, 0.5, 0.95, 0.99, 1.0)


def assert_within_accuracy(sketch, values, quantiles=QUANTILES):
    """Every requested quantile is within the sketch's relative accuracy
    of the exact nearest-rank answer (zeroes must be exact)."""
    ordered = sorted(values)
    bound = sketch.relative_accuracy * (1.0 + 1e-9) + 1e-15
    for q in quantiles:
        exact = percentile(ordered, q)
        estimate = sketch.quantile(q)
        if exact < MIN_TRACKED:
            assert estimate == 0.0, f"q={q}: {estimate} for sub-floor exact"
        else:
            rel = abs(estimate - exact) / exact
            assert rel <= bound, f"q={q}: {estimate} vs {exact} (rel {rel:.4%})"


def assert_add_all_equals_a_loop_of_add(prefix, values, counts, max_buckets):
    """``add_all`` builds byte for byte what a loop of ``add`` builds."""
    looped = QuantileSketch(max_buckets=max_buckets)
    folded = QuantileSketch(max_buckets=max_buckets)
    for value in prefix:
        looped.add(value)
        folded.add(value)
    for i, value in enumerate(values):
        looped.add(value, 1 if counts is None else counts[i])
    folded.add_all(values, counts)
    assert json.dumps(folded.to_dict()) == json.dumps(looped.to_dict())


def samples(kind, n, seed=11):
    """Deterministic hostile latency samples: heavy tails, huge dynamic
    range, ties, and a zero-spike — the regimes a latency probe sees."""
    rng = random.Random(seed)
    if kind == "lognormal":
        return [rng.lognormvariate(-6.0, 1.5) for _ in range(n)]
    if kind == "exponential":
        return [rng.expovariate(1000.0) for _ in range(n)]
    if kind == "uniform_wide":
        return [rng.uniform(1e-7, 10.0) for _ in range(n)]
    if kind == "zero_spike":
        # 20% exact zeroes (same-tick delivery) + a lognormal body.
        return [
            0.0 if rng.random() < 0.2 else rng.lognormvariate(-7.0, 1.0)
            for _ in range(n)
        ]
    raise AssertionError(kind)


class TestAccuracy:
    @pytest.mark.parametrize(
        "kind", ["lognormal", "exponential", "uniform_wide", "zero_spike"]
    )
    def test_100k_samples_within_one_percent(self, kind):
        values = samples(kind, 100_000)
        sketch = QuantileSketch(relative_accuracy=0.01)
        for value in values:
            sketch.add(value)
        assert sketch.count == len(values)
        assert_within_accuracy(sketch, values)

    @pytest.mark.parametrize("accuracy", [0.001, 0.05])
    def test_other_accuracies_hold_their_own_bound(self, accuracy):
        values = samples("lognormal", 20_000, seed=5)
        # a=0.001 needs ~10x the buckets of the default accuracy for the
        # same dynamic range; give it room so no collapse occurs here
        # (collapse behaviour has its own tests below).
        sketch = QuantileSketch(relative_accuracy=accuracy, max_buckets=32768)
        for value in values:
            sketch.add(value)
        assert sketch.collapsed == 0
        assert_within_accuracy(sketch, values)

    def test_weighted_add_equals_repeated_add(self):
        flat = QuantileSketch()
        weighted = QuantileSketch()
        rng = random.Random(3)
        for _ in range(500):
            value = rng.expovariate(100.0)
            count = rng.randint(1, 9)
            weighted.add(value, count)
            for _ in range(count):
                flat.add(value)
        flat_payload = flat.to_dict()
        weighted_payload = weighted.to_dict()
        # `v * n` vs `v + ... + v` differ in the last ulp of the running
        # sum; everything discrete is identical.
        assert weighted_payload["sum"] == pytest.approx(
            flat_payload.pop("sum"), rel=1e-12
        )
        weighted_payload.pop("sum")
        assert flat_payload == weighted_payload

    @settings(max_examples=200, deadline=None)
    @given(
        prefix=st.lists(st.floats(0.0, 1e3), max_size=20),
        values=st.lists(
            st.one_of(
                st.just(0.0),
                st.floats(0.0, MIN_TRACKED * 2),
                # Exact bucket boundaries: gamma**i for a = 0.01.
                st.integers(-60, 60).map(lambda i: (1.01 / 0.99) ** i),
                st.floats(0.0, 1e6),
            ),
            max_size=300,
        ),
        max_buckets=st.sampled_from([16, 2048]),
        weighted=st.booleans(),
        data=st.data(),
    )
    def test_add_all_equals_a_loop_of_add(
        self, prefix, values, max_buckets, weighted, data
    ):
        # max_buckets=16 makes collapses frequent, mid-fold included.
        counts = None
        if weighted:
            counts = data.draw(st.lists(
                st.integers(1, 1000), min_size=len(values), max_size=len(values),
            ))
        assert_add_all_equals_a_loop_of_add(prefix, values, counts, max_buckets)

    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("max_buckets", [64, 2048])
    def test_long_add_all_equals_a_loop_of_add(self, weighted, max_buckets):
        # A sink-sized fold and more: the whole list goes through one
        # vectorised pass (64 buckets also collapses inside it).
        rng = random.Random(17)
        for n in (4096, 20_000):
            values = samples("zero_spike", n, seed=n) + samples("uniform_wide", n)
            rng.shuffle(values)
            counts = [rng.randint(1, 50) for _ in values] if weighted else None
            prefix = samples("lognormal", 100, seed=3)
            assert_add_all_equals_a_loop_of_add(prefix, values, counts, max_buckets)

    def test_add_all_indexes_every_bucket_boundary_like_add(self):
        # Every gamma**i from ~3e-10 (below MIN_TRACKED) to ~9e6 and both
        # float neighbours of each: the values where a last-bit difference
        # in log would move an observation to the next bucket.
        gamma = 1.01 / 0.99
        values = []
        for i in range(-1100, 801):
            value = gamma ** i
            values += (
                math.nextafter(value, 0.0), value, math.nextafter(value, math.inf)
            )
        assert_add_all_equals_a_loop_of_add([], values, None, 2048)
        assert_add_all_equals_a_loop_of_add(
            [], values, [1 + i % 7 for i in range(len(values))], 2048
        )

    def test_add_all_rejects_mismatched_counts(self):
        with pytest.raises(ValueError):
            QuantileSketch().add_all([1.0, 2.0], [1])

    def test_add_all_stops_at_a_negative_value_like_add(self):
        values = [0.5, 0.0, 2.0, -1.0, 3.0]
        looped = QuantileSketch()
        with pytest.raises(ValueError):
            for value in values:
                looped.add(value)
        folded = QuantileSketch()
        with pytest.raises(ValueError):
            folded.add_all(values)
        assert folded.to_dict() == looped.to_dict()
        assert folded.count == 3

    @pytest.mark.parametrize("bad", [
        (float("nan"), 1), (math.inf, 1), (-1e-300, 1), (2.0, 0), (2.0, -3),
    ])
    def test_add_all_stops_at_any_entry_add_rejects(self, bad):
        # `add` half-applies a NaN or an infinity (count and sum) before
        # it raises; the bulk path must leave the same state.
        values = [0.5, 0.0, 2.0, bad[0], 3.0]
        counts = [2, 1, 4, bad[1], 1]
        looped = QuantileSketch()
        with pytest.raises((ValueError, OverflowError)) as scalar:
            for value, count in zip(values, counts):
                looped.add(value, count)
        folded = QuantileSketch()
        with pytest.raises(scalar.type):
            folded.add_all(values, counts)
        assert repr(folded.to_dict()) == repr(looped.to_dict())
        assert repr(folded.sum) == repr(looped.sum)

    def test_summary_reads_the_quantiles_quantile_reads(self):
        # One sorted pass for p50/p95/p99, including a p50 that falls in
        # the zero bucket and a sketch that collapsed.
        for values, max_buckets in (
            (samples("zero_spike", 5_000), 2048),
            ([0.0] * 600 + samples("lognormal", 400), 2048),
            (samples("uniform_wide", 5_000), 16),
        ):
            sketch = QuantileSketch(max_buckets=max_buckets)
            sketch.add_all(values)
            summary = sketch.summary()
            for key, q in (("p50", 0.5), ("p95", 0.95), ("p99", 0.99)):
                assert summary[key] == sketch.quantile(q)
        assert QuantileSketch().summary()["p99"] == 0.0

    def test_extremes_clamp_to_observed_min_max(self):
        sketch = QuantileSketch()
        for value in (0.5, 1.0, 2.0):
            sketch.add(value)
        # Bucket midpoints stay within the accuracy of the extremes and
        # the clamp keeps them inside the observed [min, max] envelope.
        assert sketch.quantile(0.0) == pytest.approx(0.5, rel=0.0101)
        assert sketch.quantile(1.0) == pytest.approx(2.0, rel=0.0101)
        assert 0.5 <= sketch.quantile(0.0)
        assert sketch.quantile(1.0) <= 2.0
        assert sketch.min == 0.5
        assert sketch.max == 2.0

    def test_singleton_and_empty(self):
        empty = QuantileSketch()
        assert empty.count == 0
        assert empty.quantile(0.5) == 0.0
        assert empty.mean == 0.0
        assert empty.min == 0.0
        one = QuantileSketch()
        one.add(0.25)
        for q in QUANTILES:
            assert one.quantile(q) == pytest.approx(0.25, rel=0.01)

    def test_sub_floor_values_report_zero(self):
        sketch = QuantileSketch()
        sketch.add(0.0, 5)
        sketch.add(MIN_TRACKED / 2.0, 5)
        assert sketch.quantile(0.99) == 0.0
        assert sketch.count == 10

    def test_validation(self):
        with pytest.raises(ValueError):
            QuantileSketch(relative_accuracy=0.0)
        with pytest.raises(ValueError):
            QuantileSketch(max_buckets=8)
        sketch = QuantileSketch()
        with pytest.raises(ValueError):
            sketch.add(-1.0)
        with pytest.raises(ValueError):
            sketch.add(1.0, count=0)
        with pytest.raises(ValueError):
            sketch.quantile(1.5)


class TestMerge:
    def split_sketches(self, values, parts, accuracy=0.01):
        sketches = [QuantileSketch(accuracy) for _ in range(parts)]
        for i, value in enumerate(values):
            sketches[i % parts].add(value)
        return sketches

    def test_merge_matches_single_sketch_exactly(self):
        values = samples("lognormal", 30_000, seed=7)
        parts = self.split_sketches(values, 8)
        merged = merge_all(parts)
        single = QuantileSketch()
        for value in values:
            single.add(value)
        merged_payload = merged.to_dict()
        single_payload = single.to_dict()
        # Bucket contents merge exactly; only the float running sum may
        # differ in the last ulp (addition order).
        assert merged_payload["buckets"] == single_payload["buckets"]
        assert merged_payload["sum"] == pytest.approx(
            single_payload["sum"], rel=1e-12
        )
        for key in ("count", "zero_count", "min", "max", "collapsed"):
            assert merged_payload[key] == single_payload[key]
        assert_within_accuracy(merged, values)

    def test_merge_is_commutative_and_associative(self):
        values = samples("exponential", 9_000, seed=9)
        a, b, c = self.split_sketches(values, 3)
        left = merge_all([a, b]).merge(c)
        right = merge_all([c, b]).merge(a)
        assert left.to_dict()["buckets"] == right.to_dict()["buckets"]
        assert left.count == right.count

    def test_merge_accuracy_mismatch_rejected(self):
        with pytest.raises(SketchMergeError):
            QuantileSketch(0.01).merge(QuantileSketch(0.02))

    def test_merge_all_adopts_first_nonempty_accuracy(self):
        sketch = QuantileSketch(0.05)
        sketch.add(1.0)
        merged = merge_all([sketch])
        assert merged.relative_accuracy == 0.05
        assert merged.count == 1

    def test_merge_payloads(self):
        parts = self.split_sketches(samples("uniform_wide", 4_000), 4)
        merged = merge_payloads(part.to_dict() for part in parts)
        assert merged is not None
        assert merged.count == 4_000
        assert merge_payloads([]) is None


class TestSerialization:
    def test_round_trip_is_exact(self):
        sketch = QuantileSketch(relative_accuracy=0.02, max_buckets=64)
        for value in samples("lognormal", 5_000):
            sketch.add(value)
        payload = sketch.to_dict()
        assert payload["kind"] == PAYLOAD_KIND
        restored = QuantileSketch.from_dict(payload)
        assert restored.to_dict() == payload
        # And through actual JSON, which is how sweep workers ship it.
        rehydrated = QuantileSketch.from_dict(json.loads(json.dumps(payload)))
        assert rehydrated.to_dict() == payload
        assert rehydrated.quantile(0.95) == sketch.quantile(0.95)

    def test_payload_is_deterministic(self):
        first = QuantileSketch()
        second = QuantileSketch()
        for value in samples("exponential", 1_000):
            first.add(value)
        for value in samples("exponential", 1_000):
            second.add(value)
        assert json.dumps(first.to_dict(), sort_keys=True) == json.dumps(
            second.to_dict(), sort_keys=True
        )

    def test_wrong_kind_rejected(self):
        with pytest.raises(ValueError):
            QuantileSketch.from_dict({"kind": "tdigest"})


class TestCollapse:
    def test_memory_stays_bounded_and_upper_quantiles_survive(self):
        values = samples("uniform_wide", 50_000, seed=13)
        sketch = QuantileSketch(relative_accuracy=0.005, max_buckets=128)
        for value in values:
            sketch.add(value)
        assert len(sketch._buckets) <= 128
        assert sketch.collapsed > 0
        # Collapse floors the low tail; p95/p99/max keep the error bound.
        assert_within_accuracy(sketch, values, quantiles=(0.95, 0.99, 1.0))

    def test_merge_respects_bucket_budget(self):
        low = QuantileSketch(max_buckets=32)
        high = QuantileSketch(max_buckets=32)
        for exponent in range(-40, 0):
            low.add(10.0 ** exponent)
        for exponent in range(0, 40):
            high.add(10.0 ** exponent)
        merged = low.merge(high)
        assert len(merged._buckets) <= 32
        assert merged.count == 80


class TestLatencyProbe:
    def test_records_fold_on_read(self):
        probe = LatencyProbe("sink", relative_accuracy=0.01)
        probe.record(0, 0.010, 20, now=5.0)
        probe.record(1, 0.020, 10, now=6.0)
        assert len(probe._pending) == 6  # buffered, not yet folded
        assert probe.count == 30  # reading folds
        assert not probe._pending
        sketches = probe.sketches()
        assert sorted(sketches) == [0, 1]
        assert sketches[0].count == 20
        assert sketches[1].count == 30 - 20

    def test_warmup_drops_early_observations(self):
        probe = LatencyProbe("sink", warmup=10.0)
        probe.record(0, 0.5, 5, now=9.999)
        probe.record(0, 0.5, 5, now=10.0)
        assert probe.count == 5

    def test_negative_latency_clamps_to_zero(self):
        probe = LatencyProbe("sink")
        probe.record(0, -1e-12, 3, now=1.0)
        assert probe.merged().quantile(0.5) == 0.0

    def test_fold_threshold_bounds_the_buffer(self):
        # One threshold for the sink buffers and the probe: 4,096
        # observations bound a probe's buffer for any run length.
        assert FOLD_THRESHOLD == 4096
        probe = LatencyProbe("sink")
        for i in range(4096 + 10):
            probe.record(i % 4, 0.001, 1, now=1.0)
        # The buffer folded mid-run without any reader asking.
        assert len(probe._pending) == 3 * 10
        assert probe.count == 4096 + 10

    # One shard, many, and sparse shard ids.
    @pytest.mark.parametrize("shards,stride", [(1, 3), (64, 3), (300, 1009)])
    def test_fold_equals_per_triple_add(self, shards, stride):
        # The bulk fold against the loop it replaced: per shard, a
        # `sketch.add` of each clamped latency in record order, sketches
        # created in order of first appearance.
        rng = random.Random(shards)
        clamped = (-1.0, -0.0, float("nan"), 0.0, -1e-12, MIN_TRACKED / 2)
        probe = LatencyProbe("sink")
        expected = {}
        for i in range(3 * FOLD_THRESHOLD + 123):
            shard = rng.randrange(shards) * stride + 1
            latency = (
                clamped[i % len(clamped)] if rng.random() < 0.05
                else rng.lognormvariate(-5.0, 2.0)
            )
            count = rng.randint(1, 40)
            probe.record(shard, latency, count, now=1.0)
            sketch = expected.setdefault(shard, QuantileSketch())
            sketch.add(latency if latency > 0.0 else 0.0, count)
        assert probe._pending  # the last partial buffer folds at read
        payload = probe.to_dict()
        assert list(probe._sketches) == list(expected)
        assert payload["shards"] == {
            str(shard): expected[shard].to_dict() for shard in sorted(expected)
        }
        merged = merge_all(expected.values())
        assert json.dumps(payload["merged"]) == json.dumps(merged.to_dict())
        assert payload["summary"] == merged.summary()
        assert payload["count"] == merged.count

    def test_fold_clamps_negative_zero_and_nan_to_zero(self):
        probe = LatencyProbe("sink")
        for shard, latency in enumerate((-1.0, -0.0, float("nan"))):
            probe.record(shard, latency, 2, now=1.0)
            probe.record(shard, 0.5, 1, now=1.0)
        for sketch in probe.sketches().values():
            payload = sketch.to_dict()
            assert payload["zero_count"] == 2
            assert repr(payload["min"]) == "0.0"
            assert payload["sum"] == 0.5

    def test_merged_equals_union_of_shards(self):
        probe = LatencyProbe("sink")
        rng = random.Random(21)
        values = []
        for _ in range(5_000):
            value = rng.lognormvariate(-6.0, 1.2)
            values.append(value)
            probe.record(rng.randint(0, 15), value, 1, now=1.0)
        merged = probe.merged()
        assert merged.count == len(values)
        assert_within_accuracy(merged, values)

    def test_payload_shape(self):
        probe = LatencyProbe("sink")
        probe.record(2, 0.004, 7, now=1.0)
        payload = probe.to_dict()
        assert payload["name"] == "sink"
        assert payload["count"] == 7
        assert payload["merged"]["kind"] == PAYLOAD_KIND
        assert set(payload["shards"]) == {"2"}
        assert payload["summary"]["count"] == 7.0
        json.dumps(payload)  # JSON-safe
