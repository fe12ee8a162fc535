"""Deterministic 64-bit mixing for seeded tie-breaks and valuation sampling.

Everything random in this package is derived from these functions, so two
runs with the same seed produce identical results on every platform and
Python build.  The scheme is a keyed chain of splitmix64 finalizer steps:
the seed initialises the chain and each absorbed word (or byte) is folded
in with one more finalizer application.  Pure integer arithmetic, no
process state, no ``random`` module.
"""

from __future__ import annotations

MASK64 = (1 << 64) - 1

GOLDEN = 0x9E3779B97F4A7C15
MIX_A = 0xBF58476D1CE4E5B9
MIX_B = 0x94D049BB133111EB


def splitmix64(x: int) -> int:
    """One splitmix64 step: add the golden-ratio increment, then finalize.

    ``splitmix64(0)`` is 0xE220A8397B1DCDAF, the well-known first output of
    the reference generator seeded with zero.
    """
    x = (x + GOLDEN) & MASK64
    x = ((x ^ (x >> 30)) * MIX_A) & MASK64
    x = ((x ^ (x >> 27)) * MIX_B) & MASK64
    return x ^ (x >> 31)


def mix64(seed: int, *words: int) -> int:
    """Mix a seed with any number of nonnegative integer words.

    Used as a counter-based generator: ``mix64(seed, round, index)`` is a
    pure function of its arguments, so draws can be recomputed in any
    order (or in parallel) without coordination.  Each word is one more
    chain step: ``mix64(s, *w, b) == splitmix64(mix64(s, *w) ^ b)``.
    """
    h = splitmix64(seed & MASK64)
    for w in words:  # splitmix64(h ^ (w & MASK64)) inlined; its first mask drops w's high bits
        x = ((h ^ w) + GOLDEN) & MASK64
        x = ((x ^ (x >> 30)) * MIX_A) & MASK64
        x = ((x ^ (x >> 27)) * MIX_B) & MASK64
        h = x ^ (x >> 31)
    return h


def hash_text(seed: int, text: str) -> int:
    """Mix a seed with a text key, one UTF-8 byte per chain step."""
    return mix64(seed, *text.encode("utf-8"))
