"""Deterministic key hashing and the two-tier key partition.

Tier 1 (static, operator level): key -> executor.  Fixed for the lifetime
of the topology under the executor-centric paradigm — this is what removes
the need for global synchronization.

Tier 2 (static hash, executor level): key -> shard within the executor.
The shard-to-task mapping on top of this is dynamic (see
:mod:`repro.executors.routing`).

Python's builtin ``hash`` is salted per process, so we use a splitmix64
finalizer for stable, well-mixed hashes across runs.
"""

from __future__ import annotations

import typing

import numpy as np

MASK64 = (1 << 64) - 1


def stable_hash(key: int, salt: int = 0) -> int:
    """A deterministic 64-bit mix of ``key`` (splitmix64 finalizer)."""
    x = (key + salt * 0x9E3779B97F4A7C15) & MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK64
    return x ^ (x >> 31)


#: Distinct salts keep the executor-level and shard-level partitions
#: statistically independent; reusing one would alias hot keys.
_EXECUTOR_SALT = 1
_SHARD_SALT = 2


def executor_of_key(key: int, num_executors: int) -> int:
    """Tier-1 partition: which executor owns ``key``."""
    if num_executors < 1:
        raise ValueError(f"num_executors must be >= 1, got {num_executors}")
    return stable_hash(key, _EXECUTOR_SALT) % num_executors


def shard_of_key(key: int, num_shards: int) -> int:
    """Tier-2 partition: which shard of its executor ``key`` lands in."""
    if num_shards < 1:
        raise ValueError(f"num_shards must be >= 1, got {num_shards}")
    return stable_hash(key, _SHARD_SALT) % num_shards


def stable_hash_array(keys: np.ndarray, salt: int = 0) -> np.ndarray:
    """Vectorized :func:`stable_hash` over a uint64 array.

    numpy's unsigned arithmetic wraps modulo 2**64, which is exactly the
    masking the scalar version does by hand.
    """
    x = keys.astype(np.uint64, copy=True)
    x += np.uint64((salt * 0x9E3779B97F4A7C15) & MASK64)
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return x


#: Largest key domain tabulated; keys at or beyond it are hashed per
#: lookup instead.
_DENSE_TABLE_LIMIT = 1 << 26

#: (num_keys, num_buckets, salt) -> bucket list.  Shared across every
#: executor of every operator with the same partition geometry, so a
#: million-key space is tabulated once per geometry, not once per executor.
_DENSE_TABLES: typing.Dict[typing.Tuple[int, int, int], typing.List[int]] = {}


def _dense_table(num_keys: int, num_buckets: int, salt: int) -> typing.List[int]:
    geometry = (num_keys, num_buckets, salt)
    if geometry not in _DENSE_TABLES:
        hashed = stable_hash_array(np.arange(num_keys, dtype=np.uint64), salt)
        _DENSE_TABLES[geometry] = (hashed % np.uint64(num_buckets)).tolist()
    return _DENSE_TABLES[geometry]


class DenseLookup:
    """Precomputed key -> bucket table for a dense ``0..num_keys-1`` domain.

    The partition is materialized once (vectorized splitmix64 over
    ``arange``) into a table shared by every lookup with the same
    geometry.  Lookups index a plain list (small cached ints, no numpy
    boxing).  The table covers at most ``_DENSE_TABLE_LIMIT`` keys, and
    keys outside it fall back to the scalar hash — correctness never
    depends on the declared key space being exhaustive.
    """

    __slots__ = ("num_keys", "num_buckets", "salt", "table")

    def __init__(self, num_keys: int, num_buckets: int, salt: int) -> None:
        if num_buckets < 1:
            raise ValueError(f"num_buckets must be >= 1, got {num_buckets}")
        if num_keys < 1:
            raise ValueError(f"num_keys must be >= 1, got {num_keys}")
        #: Size of the tabulated domain (the declared one, capped).
        self.num_keys = min(num_keys, _DENSE_TABLE_LIMIT)
        self.num_buckets = num_buckets
        self.salt = salt
        #: The shared bucket list.  Per-batch sites index it directly
        #: for keys in ``0..num_keys-1`` and call the lookup otherwise.
        self.table = _dense_table(self.num_keys, num_buckets, salt)

    def __getitem__(self, key: int) -> int:
        if 0 <= key < self.num_keys:
            return self.table[key]
        return stable_hash(key, self.salt) % self.num_buckets

    def __repr__(self) -> str:
        return (
            f"DenseLookup(keys={self.num_keys}, buckets={self.num_buckets}, "
            f"salt={self.salt})"
        )


def shard_lookup(num_shards: int, num_keys: int) -> DenseLookup:
    """A tier-2 (key -> shard) table over ``0..num_keys-1``; validates
    once, here."""
    return DenseLookup(num_keys, num_shards, _SHARD_SALT)


def executor_lookup(num_executors: int, num_keys: int) -> DenseLookup:
    """A tier-1 (key -> executor) table over ``0..num_keys-1``; validates
    once, here."""
    return DenseLookup(num_keys, num_executors, _EXECUTOR_SALT)


class KeySpace:
    """The integer key domain of an operator's input stream."""

    __slots__ = ("num_keys",)

    def __init__(self, num_keys: int) -> None:
        if num_keys < 1:
            raise ValueError(f"num_keys must be >= 1, got {num_keys}")
        self.num_keys = num_keys

    def __contains__(self, key: int) -> bool:
        return 0 <= key < self.num_keys

    def __iter__(self) -> typing.Iterator[int]:
        return iter(range(self.num_keys))

    def __repr__(self) -> str:
        return f"KeySpace({self.num_keys})"
