"""Zipf key frequencies with periodic shuffling (paper §5.1).

"The key space contains 10K distinct values, whose frequencies follow a
zipf distribution with a skew factor of 0.5.  To emulate workload
dynamics, we shuffle the frequencies of tuple keys by applying a random
permutation ω times per minute."

On top of the paper's shuffle knob, :meth:`ZipfKeyDistribution.boost`
multiplies the frequency of chosen *keys* (hotspot bursts, driven by
:class:`HotspotBurst`).  Boosts follow keys, not ranks: a shuffle
re-permutes which key sits at each rank and then rebuilds the boosted
table so the same keys stay hot — a burst that starts mid-window must
not silently migrate to whichever keys inherit the old ranks.

The distribution is fully vectorized: the frequency tables are numpy
arrays, batch draws go through one ``searchsorted`` per tick, and the
only RNG is a seeded ``numpy.random.Generator`` whose bit-generator
state is serializable (:meth:`ZipfKeyDistribution.rng_state`) so a run
can be checkpointed and replayed deterministically.
"""

from __future__ import annotations

import dataclasses
import typing

import numpy as np

from repro.fields import COUNT, NON_NEGATIVE, check_number
from repro.sim import Environment


class ZipfKeyDistribution:
    """Keys 0..num_keys-1 with zipf(skew) frequencies, shufflable.

    The rank-to-key mapping is a mutable permutation: :meth:`shuffle`
    re-randomizes which keys are hot without changing the frequency shape,
    exactly the paper's workload-dynamics knob.  All per-key tables are
    flat numpy arrays, so construction, shuffling and batch sampling stay
    O(n log n) or better at million-key sizes.
    """

    def __init__(self, num_keys: int, skew: float = 0.5, seed: int = 0) -> None:
        self.num_keys = check_number("num_keys", num_keys, COUNT)
        self.skew = check_number("skew", skew, NON_NEGATIVE)
        self._rng = np.random.Generator(np.random.PCG64(seed))
        ranks = np.arange(1, num_keys + 1, dtype=np.float64)
        weights = ranks ** -skew
        #: Rank-indexed base probabilities (rank 0 = hottest).
        self._probabilities = weights / weights.sum()
        self._cumulative = np.cumsum(self._probabilities)
        self._cumulative[-1] = 1.0  # guard against float drift
        self._key_of_rank = self._rng.permutation(num_keys)
        self._rank_of_key = self._invert(self._key_of_rank)
        self.shuffle_count = 0
        #: Per-key frequency multipliers (hotspot bursts); empty = pure zipf.
        self._boosts: typing.Dict[int, float] = {}
        #: Boost-adjusted rank-indexed tables; None = no boost active.
        self._boosted_probabilities: typing.Optional[np.ndarray] = None
        self._boosted_cumulative: typing.Optional[np.ndarray] = None

    @staticmethod
    def _invert(key_of_rank: np.ndarray) -> np.ndarray:
        rank_of_key = np.empty(len(key_of_rank), dtype=np.int64)
        rank_of_key[key_of_rank] = np.arange(len(key_of_rank))
        return rank_of_key

    # -- determinism ------------------------------------------------------

    def rng_state(self) -> typing.Dict[str, typing.Any]:
        """Serializable bit-generator state (checkpoint/replay support)."""
        return self._rng.bit_generator.state

    def set_rng_state(self, state: typing.Dict[str, typing.Any]) -> None:
        self._rng.bit_generator.state = state

    # -- boosts -----------------------------------------------------------

    def _rebuild_boosts(self) -> None:
        """Recompute the boosted tables against *current* ranks."""
        if not self._boosts:
            self._boosted_probabilities = None
            self._boosted_cumulative = None
            return
        factor_by_key = np.ones(self.num_keys)
        factor_by_key[list(self._boosts)] = list(self._boosts.values())
        weights = self._probabilities * factor_by_key[self._key_of_rank]
        self._boosted_probabilities = weights / weights.sum()
        self._boosted_cumulative = np.cumsum(self._boosted_probabilities)
        self._boosted_cumulative[-1] = 1.0

    def boost(self, keys: typing.Iterable[int], factor: float) -> None:
        """Multiply the frequency of ``keys`` by ``factor`` (renormalized)."""
        if factor <= 0:
            raise ValueError(f"boost factor must be > 0, got {factor}")
        for key in keys:
            if not 0 <= key < self.num_keys:
                raise ValueError(f"key {key} outside 0..{self.num_keys - 1}")
            self._boosts[key] = self._boosts.get(key, 1.0) * factor
        self._rebuild_boosts()

    def clear_boost(self, keys: typing.Optional[typing.Iterable[int]] = None) -> None:
        """Remove the boost on ``keys`` (all boosts when None)."""
        if keys is None:
            self._boosts.clear()
        else:
            for key in keys:
                self._boosts.pop(key, None)
        self._rebuild_boosts()

    # -- queries ----------------------------------------------------------

    def probability(self, key: int) -> float:
        """Current frequency of ``key`` (O(1))."""
        if not 0 <= key < self.num_keys:
            raise ValueError(f"key {key} outside 0..{self.num_keys - 1}")
        table = self._boosted_probabilities
        if table is None:
            table = self._probabilities
        return float(table[self._rank_of_key[key]])

    def hottest_keys(self, n: int) -> typing.List[int]:
        """The ``n`` currently most frequent keys, hottest first."""
        n = min(n, self.num_keys)
        if self._boosted_probabilities is None:
            return self._key_of_rank[:n].tolist()
        # Boosts can reorder hotness arbitrarily; sort keys by
        # (-probability, key) — lexsort's last key is the primary one.
        prob_by_key = self._boosted_probabilities[self._rank_of_key]
        order = np.lexsort((np.arange(self.num_keys), -prob_by_key))
        return order[:n].tolist()

    def sample(self, count: int) -> typing.List[int]:
        """Draw ``count`` keys i.i.d. from the current distribution.

        One vectorized inverse-CDF lookup: ``count`` uniforms against the
        cumulative table, then the rank→key gather.
        """
        cumulative = self._boosted_cumulative
        if cumulative is None:
            cumulative = self._cumulative
        ranks = np.searchsorted(cumulative, self._rng.random(count))
        return self._key_of_rank[ranks].tolist()

    def shuffle(self) -> None:
        """Apply a random permutation to the key frequencies.

        Active boosts are rebuilt against the new rank map so they keep
        following their *keys* — sampling from the stale pre-shuffle
        table would hand the burst to whichever keys took over the old
        hot ranks.
        """
        self._key_of_rank = self._rng.permutation(self.num_keys)
        self._rank_of_key = self._invert(self._key_of_rank)
        self.shuffle_count += 1
        self._rebuild_boosts()


class KeyShuffler:
    """Simulation process applying ω shuffles per minute."""

    def __init__(
        self,
        env: Environment,
        distribution: ZipfKeyDistribution,
        shuffles_per_minute: float,
    ) -> None:
        if shuffles_per_minute < 0:
            raise ValueError(f"omega must be >= 0, got {shuffles_per_minute}")
        self.env = env
        self.distribution = distribution
        self.omega = shuffles_per_minute
        self.shuffle_times: typing.List[float] = []

    def start(self) -> None:
        if self.omega > 0:
            self.env.process(self._run())

    def _run(self) -> typing.Generator:
        interval = 60.0 / self.omega
        while True:
            yield self.env.timeout(interval)
            self.distribution.shuffle()
            self.shuffle_times.append(self.env.now)


@dataclasses.dataclass(frozen=True)
class BurstEvent:
    """One hotspot burst: at ``time`` the currently hottest ``top_n`` keys
    get their frequency multiplied by ``factor`` for ``duration`` seconds."""

    time: float
    duration: float
    factor: float
    top_n: int = 1

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError("burst time must be >= 0")
        if self.duration <= 0:
            raise ValueError("burst duration must be positive")
        if self.factor <= 0:
            raise ValueError("burst factor must be positive")
        if self.top_n < 1:
            raise ValueError("burst top_n must be >= 1")


class HotspotBurst:
    """Simulation process driving scheduled hotspot bursts.

    Each :class:`BurstEvent` resolves its target keys *at onset* (the
    then-hottest keys), boosts them, and clears the boost after the
    burst duration.  Because boosts track keys, a mid-burst shuffle
    keeps the same keys hot (see :meth:`ZipfKeyDistribution.shuffle`).
    """

    def __init__(
        self,
        env: Environment,
        distribution: ZipfKeyDistribution,
        events: typing.Sequence[BurstEvent],
    ) -> None:
        self.env = env
        self.distribution = distribution
        self.events = sorted(events, key=lambda e: e.time)
        #: (onset time, boosted keys, factor) per fired burst.
        self.records: typing.List[typing.Tuple[float, typing.Tuple[int, ...], float]] = []

    def start(self) -> None:
        for event in self.events:
            self.env.process(self._run(event))

    def _run(self, event: BurstEvent) -> typing.Generator:
        if event.time > 0:
            yield self.env.timeout(event.time)
        keys = tuple(self.distribution.hottest_keys(event.top_n))
        self.distribution.boost(keys, event.factor)
        self.records.append((self.env.now, keys, event.factor))
        yield self.env.timeout(event.duration)
        self.distribution.clear_boost(keys)
