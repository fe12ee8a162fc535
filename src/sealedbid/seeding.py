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


def splitmix64(x: int, mask: int = MASK64, golden: int = GOLDEN) -> int:
    """One splitmix64 step: add the golden-ratio increment, then finalize.

    ``splitmix64(0)`` is 0xE220A8397B1DCDAF, the first output of the reference
    generator seeded with zero; the first mask drops any bits of ``x`` above 64.

    Given ``mask`` and ``golden`` repeated in every 128-bit lane of ``x``, each
    lane holding a word below 2^64, one call steps every lane as a call on its
    word would (on one word the extra masks do nothing): a lane's sum stays
    below 2^128, so no carry crosses lanes; the bits a right shift pulls in
    from the lane above are masked off before each multiply; and a 64 x 64-bit
    product fits in its own lane.
    """
    x = (x + golden) & mask
    x = ((x ^ (x >> 30)) & mask) * MIX_A & mask
    x = ((x ^ (x >> 27)) & mask) * MIX_B & mask
    return x ^ ((x >> 31) & mask)


def mix64(seed: int, *words: int) -> int:
    """Mix a seed with any number of nonnegative integer words.

    Used as a counter-based generator: ``mix64(seed, round, index)`` is a
    pure function of its arguments, so draws can be recomputed in any
    order (or in parallel) without coordination.  Each word is one more
    chain step: ``mix64(s, *w, b) == splitmix64(mix64(s, *w) ^ b)``.
    """
    h = splitmix64(seed & MASK64)
    for w in words:
        h = splitmix64(h ^ w)
    return h


def hash_text(seed: int, text: str) -> int:
    """Mix a seed with a text key, one UTF-8 byte per chain step."""
    return mix64(seed, *text.encode("utf-8"))
