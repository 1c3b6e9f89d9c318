"""Seeded retry backoff shared by the fault-tolerant layers.

:func:`backoff_delay` computes capped exponential backoff with jitter
drawn from an *injected* seeded RNG — the retry schedule of a
supervised serve source is as deterministic as its estimates.  The
function previously lived in :mod:`repro.faults.corruption` and is
still re-exported from there and from :mod:`repro.faults`.
"""

from __future__ import annotations

import random


def backoff_delay(
    attempt: int,
    *,
    base: float,
    cap: float,
    rng: random.Random,
) -> float:
    """Capped exponential backoff with seeded jitter.

    ``attempt`` counts from zero.  The full delay doubles per attempt
    up to ``cap``; the returned delay is jittered into the upper half
    of that window (``[0.5, 1.0) * full``) so a fleet of reconnecting
    sources does not thundering-herd a recovering server — with the
    jitter drawn from the *injected* ``rng``, never from OS entropy.
    """
    if base <= 0.0:
        raise ValueError("base must be positive")
    if cap < base:
        raise ValueError("cap must be >= base")
    full = min(cap, base * (2.0 ** attempt))
    return full * (0.5 + 0.5 * rng.random())


__all__ = ["backoff_delay"]
