"""Deterministic pseudo-random number generators.

HashCore's security story requires that widget generation is a pure function
of the 256-bit hash seed: every miner and every verifier must derive the
exact same widget from the same seed.  We therefore avoid Python's global
``random`` module and use explicit, tiny, well-specified generators whose
output is identical on every platform and Python version.

Two primitives are provided:

* :func:`splitmix64` — a one-shot 64-bit mixer used to expand seed material.
* :class:`Xoshiro256` — the xoshiro256** generator (Blackman & Vigna), a
  high-quality non-cryptographic PRNG with a 256-bit state, used for all
  widget-generation randomness.  Its statistical quality does not matter for
  security (the hash gates provide that, see Theorem 1 in the paper); it only
  needs to be deterministic and well distributed.
"""

from __future__ import annotations

from typing import Sequence

MASK64 = (1 << 64) - 1

#: SplitMix64's state increment (the golden-ratio gamma) and its two mixing
#: multipliers.
SPLITMIX64_GAMMA = 0x9E3779B97F4A7C15
SPLITMIX64_MUL1 = 0xBF58476D1CE4E5B9
SPLITMIX64_MUL2 = 0x94D049BB133111EB


def splitmix64(x: int) -> int:
    """Advance-and-mix step of SplitMix64; returns the next 64-bit output."""
    x = (x + SPLITMIX64_GAMMA) & MASK64
    z = x
    z = ((z ^ (z >> 30)) * SPLITMIX64_MUL1) & MASK64
    z = ((z ^ (z >> 27)) * SPLITMIX64_MUL2) & MASK64
    return (z ^ (z >> 31)) & MASK64


class Xoshiro256:
    """xoshiro256** 1.0 — deterministic 64-bit PRNG with 256-bit state.

    The state is seeded from an arbitrary integer via SplitMix64 as the
    reference implementation recommends, so any 64-bit (or smaller) seed
    yields a fully mixed initial state.
    """

    __slots__ = ("_s0", "_s1", "_s2", "_s3")

    def __init__(self, seed: int) -> None:
        x = seed & MASK64
        x = (x + SPLITMIX64_GAMMA) & MASK64
        self._s0 = splitmix64(x)
        x = (x + SPLITMIX64_GAMMA) & MASK64
        self._s1 = splitmix64(x)
        x = (x + SPLITMIX64_GAMMA) & MASK64
        self._s2 = splitmix64(x)
        x = (x + SPLITMIX64_GAMMA) & MASK64
        self._s3 = splitmix64(x)

    def next_u64(self) -> int:
        """Return the next 64-bit output.

        Both rotations (``rotl(s1 * 5, 7)`` and ``rotl(s3, 45)``) are
        written inline rather than as helper calls: one widget's
        generation draws hundreds of outputs.
        """
        s0, s1, s2, s3 = self._s0, self._s1, self._s2, self._s3
        x = (s1 * 5) & MASK64
        result = ((((x << 7) | (x >> 57)) & MASK64) * 9) & MASK64
        t = (s1 << 17) & MASK64
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = ((s3 << 45) | (s3 >> 19)) & MASK64
        self._s0, self._s1, self._s2, self._s3 = s0, s1, s2, s3
        return result

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in ``[lo, hi]`` inclusive (rejection-free modulo).

        The slight modulo bias is irrelevant for widget generation and is
        accepted in exchange for speed and simplicity.
        """
        if hi < lo:
            raise ValueError(f"empty range [{lo}, {hi}]")
        span = hi - lo + 1
        return lo + self.next_u64() % span

    def random(self) -> float:
        """Uniform float in ``[0, 1)`` with 53 bits of precision."""
        return (self.next_u64() >> 11) * (1.0 / (1 << 53))

    def choice(self, seq: Sequence):
        """Uniformly choose one element of a non-empty sequence."""
        if not seq:
            raise ValueError("cannot choose from an empty sequence")
        return seq[self.next_u64() % len(seq)]

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle: ``j = next_u64() % (i + 1)`` for
        ``i`` from the last index down to 1.

        The xoshiro256** step of :meth:`next_u64` runs inline on local
        state, written back once: a widget's pointer ring shuffles 512 or
        more slots.
        """
        mask = MASK64
        s0, s1, s2, s3 = self._s0, self._s1, self._s2, self._s3
        for i in range(len(items) - 1, 0, -1):
            x = s1 * 5 & mask
            j = ((x << 7 | x >> 57) * 9 & mask) % (i + 1)
            t = s1 << 17 & mask
            s2 ^= s0
            s3 ^= s1
            s1 ^= s2
            s0 ^= s3
            s2 ^= t
            s3 = (s3 << 45 | s3 >> 19) & mask
            items[i], items[j] = items[j], items[i]
        self._s0, self._s1, self._s2, self._s3 = s0, s1, s2, s3

    def sample_weighted(self, weights: Sequence[float]) -> int:
        """Return an index drawn proportionally to ``weights``.

        Raises :class:`ValueError` when the total weight is not positive.
        """
        total = float(sum(weights))
        if total <= 0.0:
            raise ValueError("weights must sum to a positive value")
        r = self.random() * total
        acc = 0.0
        for i, w in enumerate(weights):
            acc += w
            if r < acc:
                return i
        return len(weights) - 1

    def getstate(self) -> tuple[int, int, int, int]:
        """Return the internal 256-bit state (for tests and checkpointing)."""
        return (self._s0, self._s1, self._s2, self._s3)
