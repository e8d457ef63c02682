"""Counter-based random streams.

Philox (4x64, 10 rounds) keyed by (seed, substream index) gives reproducible,
order-independent substreams: trial k of a seeded experiment always sees the
same stream regardless of execution order, so parallel and sequential runs
produce the identical multiset of outcomes.

A trial loop draws its streams from `substreams`, which re-keys one bit
generator per trial instead of building a Philox and a Generator each time;
each generator it yields stays valid until the next one is drawn.
"""

from __future__ import annotations

import numpy as np

GENERATOR_ID = "numpy-philox4x64-10"

_MASK64 = (1 << 64) - 1
_MASK32 = (1 << 32) - 1


def _key(seed: int, a: int, b: int) -> np.ndarray:
    return np.array([seed & _MASK64, (a & _MASK32) | ((b & _MASK32) << 32)], dtype=np.uint64)


def substream(seed: int, a: int = 0, b: int = 0) -> np.random.Generator:
    """Generator for substream (a, b) of the given seed; a and b < 2^32."""
    return np.random.Generator(np.random.Philox(key=_key(seed, a, b)))


def substreams(seed: int, count: int):
    """For t = 0 .. count-1, a generator whose draws equal substream(seed, t)'s.

    One Philox and one Generator serve every t: before each yield the bit
    generator's state is reset to the state a fresh Philox keyed (seed, t)
    starts from, with counter 0, an empty buffer (buffer_pos 4) and no
    cached 32-bit half (has_uint32 0).  So every yielded generator is the
    same object, valid until the next one is drawn: a trial that stops part
    way through a draw leaks nothing into the next trial, but a generator
    kept past its trial reads the next trial's stream.
    """
    bitgen = np.random.Philox(key=_key(seed, 0, 0))
    gen = np.random.Generator(bitgen)
    fresh = bitgen.state
    for t in range(count):
        fresh["state"]["key"] = _key(seed, t, 0)
        bitgen.state = fresh
        yield gen


def sample_without_replacement(gen: np.random.Generator, pool: np.ndarray, k: int) -> np.ndarray:
    """k distinct elements of pool, sorted ascending for determinism."""
    if k > len(pool):
        raise ValueError(f"cannot draw {k} from a pool of {len(pool)}")
    pick = gen.choice(len(pool), size=k, replace=False)
    return np.sort(np.asarray(pool)[pick])
