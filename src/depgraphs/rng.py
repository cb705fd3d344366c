"""Seeding scheme shared by samplers and the experiment harness.

Every sample is drawn from a counter-based generator (Philox) keyed by a
64-bit seed, so a (model, seed) pair names one graph forever.  Trial seeds
are derived from the master seed by a fixed splitmix64 chain over
(grid index, trial index), which makes experiment output independent of
worker count and scheduling.  A Philox word is a pure function of (key,
counter), so forward() places a copy of a generator any number of words
ahead without drawing them: a span of trials drawn in turn from one
generator can start anywhere.
"""

from __future__ import annotations

import os
import threading

import numpy as np

MASK64 = (1 << 64) - 1

SEED_ENV = "DEPGRAPHS_SEED"


def splitmix64(x: int) -> int:
    """One step of the splitmix64 mixing function (public-domain constants)."""
    x = (x + 0x9E3779B97F4A7C15) & MASK64
    z = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def derive_seed(master: int, *indices: int) -> int:
    """Deterministic 64-bit seed for a nested index path under a master seed.

    Chaining through splitmix64 keeps (1,0) and (0,1) paths distinct; this
    is the documented mixing function behind reproducible parallel trials.
    """
    h = splitmix64(master & MASK64)
    for ix in indices:
        h = splitmix64(h ^ ((ix & MASK64) * 0xD1B54A32D192ED03 & MASK64))
    return h


_U64 = np.uint64


def derive_seeds(master: int, point: int, start: int, stop: int) -> np.ndarray:
    """derive_seed(master, point, t) for t in range(start, stop), as uint64.

    The last splitmix64 step runs on the whole range at once, in numpy's
    wrapping uint64 arithmetic, which is the reduction mod 2^64 that
    derive_seed does by masking.
    """
    h = _U64(derive_seed(master, point))
    x = np.arange(max(0, stop - start), dtype=_U64) + _U64(start & MASK64)
    x = (h ^ (x * _U64(0xD1B54A32D192ED03))) + _U64(0x9E3779B97F4A7C15)
    z = (x ^ (x >> _U64(30))) * _U64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> _U64(27))) * _U64(0x94D049BB133111EB)
    return z ^ (z >> _U64(31))


def generator(seed: int) -> np.random.Generator:
    """A fresh counter-based generator keyed by seed.

    Building one costs 10 to 20 us, most of it spent drawing OS entropy
    for a SeedSequence that the key then discards, so per-trial callers use
    seeded() instead, at under 1 us; both give the same stream for the
    same seed.
    """
    return np.random.Generator(np.random.Philox(key=seed & MASK64))


_local = threading.local()


def seeded(seed: int) -> np.random.Generator:
    """This thread's generator, reset to the state generator(seed) starts in.

    Philox output is a pure function of (key, counter), so resetting the
    counter, the key and the output buffers reproduces generator(seed) bit
    for bit.  The reset writes the seed into this thread's key list and
    assigns its one cached state of plain ints, which costs 0.5 to 0.8 us.
    The generator is shared by every later call in the thread, so use it
    only until the next seeded() call.
    """
    try:
        gen, key, state = _local.reset
    except AttributeError:
        gen = np.random.Generator(np.random.Philox(key=0))
        key = [0, 0]
        state = {"bit_generator": "Philox",
                 "state": {"counter": (0, 0, 0, 0), "key": key},
                 "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0,
                 "uinteger": 0}
        _local.reset = gen, key, state
    key[0] = seed & MASK64
    gen.bit_generator.state = state
    return gen


def forward(gen: np.random.Generator, words: int) -> np.random.Generator:
    """A new generator whose raw words are gen's from its words-th on; gen
    is left as it is.

    Philox computes its words four at a time, one block per step of its
    256-bit counter, and hands them out from a 4-word buffer.  So the words
    left in gen's buffer come first, then Philox.advance skips the whole
    blocks that remain, and the fewer than 4 words left over are drawn and
    discarded.  Only the raw words are promised: advancing drops a 32-bit
    half that gen holds for its next 32-bit draw.  Any bit generator other
    than Philox raises TypeError.
    """
    bits = gen.bit_generator
    if not isinstance(bits, np.random.Philox):
        raise TypeError(f"forward needs a Philox generator, not {type(bits).__name__}")
    if words < 0:
        raise ValueError("words must be >= 0")
    state = bits.state
    out = np.random.Philox(key=0)
    out.state = state
    left = 4 - state["buffer_pos"]
    if words > left:
        blocks, words = divmod(words - left, 4)
        out.advance(blocks)
    out.random_raw(words)
    return np.random.Generator(out)


def default_seed() -> int:
    """Seed from the environment, or 0 when unset."""
    raw = os.environ.get(SEED_ENV)
    if raw is None or raw.strip() == "":
        return 0
    try:
        return int(raw, 0)
    except ValueError:
        raise ValueError(f"{SEED_ENV} must be an integer, got {raw!r}") from None
