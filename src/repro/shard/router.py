"""Deterministic edge-hash routing: which shard owns an edge.

The router is a pure function of the *canonical* edge — the endpoint
pair ordered ``(min, max)`` — a seed, and the shard count, so both
orientations of an edge always land on the same shard, every process
computes the same partition (no Python ``hash()``, which is salted per
process by ``PYTHONHASHSEED``), and re-running a sharded study replays
the identical substreams.

The hash is a seeded splitmix64 chain: the seed primes a 64-bit state
with the splitmix increment, then each endpoint is folded in through
the splitmix64 finalizer (xor-shift / wrapping-multiply rounds).  The
scalar form (:func:`edge_key`, :func:`edge_shard`) and the vectorised
form over ``int32`` columns (:func:`shard_columns`) are bit-identical:
numpy's ``int32 -> uint64`` cast sign-extends exactly like
``x & (2**64 - 1)`` does on negative Python ints.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
#: splitmix64 constants (Steele, Lea & Flood; same mixer family as
#: murmur3's finalizer).
_INCREMENT = 0x9E3779B97F4A7C15
_MULT1 = 0xBF58476D1CE4E5B9
_MULT2 = 0x94D049BB133111EB


def _mix64(z: int) -> int:
    """The splitmix64 finalizer on a 64-bit Python int."""
    z &= _MASK64
    z ^= z >> 30
    z = (z * _MULT1) & _MASK64
    z ^= z >> 27
    z = (z * _MULT2) & _MASK64
    z ^= z >> 31
    return z


def edge_key(u: int, v: int, seed: int = 0) -> int:
    """The 64-bit router key of the canonical edge ``{u, v}``.

    Orientation-invariant (``edge_key(u, v) == edge_key(v, u)``) and a
    pure function of ``(min(u, v), max(u, v), seed)``.

    Example
    -------
    >>> edge_key(3, 7) == edge_key(7, 3)
    True
    >>> edge_key(3, 7, seed=1) != edge_key(3, 7, seed=2)
    True
    """
    a, b = (u, v) if u <= v else (v, u)
    state = _mix64(seed + _INCREMENT)
    state = _mix64(state ^ (a & _MASK64))
    return _mix64(state ^ (b & _MASK64))


def edge_shard(u: int, v: int, shards: int, seed: int = 0) -> int:
    """The shard (``0 .. shards-1``) owning the canonical edge ``{u, v}``.

    Example
    -------
    >>> edge_shard(3, 7, 4) == edge_shard(7, 3, 4)
    True
    """
    if shards < 1:
        raise ValueError("shards must be >= 1")
    if shards == 1:
        return 0
    return edge_key(u, v, seed) % shards


def shard_columns(us, vs, shards: int, seed: int = 0):
    """Vectorised :func:`edge_shard` over ``int32`` edge columns.

    Returns an ``int64`` array of shard ids aligned with the input
    columns, bit-identical to the scalar router applied per edge.
    """
    if shards < 1:
        raise ValueError("shards must be >= 1")
    us = np.asarray(us)
    vs = np.asarray(vs)
    if shards == 1:
        return np.zeros(len(us), dtype=np.int64)
    # Canonicalise on the signed values (matching the scalar ``u <= v``
    # comparison), then sign-extend into the uint64 mixing domain.
    lo = np.minimum(us, vs).astype(np.uint64)
    hi = np.maximum(us, vs).astype(np.uint64)
    state = np.uint64(_mix64(seed + _INCREMENT))
    keys = _mix64_array(_mix64_array(state ^ lo) ^ hi)
    return (keys % np.uint64(shards)).astype(np.int64)


def _mix64_array(z):
    """The splitmix64 finalizer over a ``uint64`` array (wrapping ops)."""
    z = z ^ (z >> np.uint64(30))
    z = z * np.uint64(_MULT1)
    z = z ^ (z >> np.uint64(27))
    z = z * np.uint64(_MULT2)
    return z ^ (z >> np.uint64(31))


def split_stream(edges, shards: int, seed: int = 0):
    """Partition an iterable of ``(u, v)`` edges into per-shard lists.

    Order-preserving within each shard: concatenating the returned
    substreams yields a permutation of the input in which every shard's
    relative arrival order is intact.
    """
    buckets = [[] for _ in range(shards)]
    for u, v in edges:
        buckets[edge_shard(u, v, shards, seed)].append((u, v))
    return buckets


__all__ = [
    "edge_key",
    "edge_shard",
    "shard_columns",
    "split_stream",
]
