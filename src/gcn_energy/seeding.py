"""Deterministic derivation of child seeds for independent random streams.

A child seed is obtained by xor-ing the base seed with the stream index
(spread by the golden-ratio constant) and pushing the result through a
splitmix64-style finalizer.  The same ``(base, index)`` pair always maps to
the same child, and consecutive indices land far apart even for small bases,
so per-trial and per-operation streams never overlap in practice.
A base is read modulo 2**64, so seeds entering the program must lie below it.
"""

from __future__ import annotations

from .errors import ValidationError

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def derive_seed(base: int, index: int) -> int:
    """Return the 64-bit child seed for stream ``index`` of ``base``."""
    z = ((base & _MASK) ^ ((index * _GOLDEN) & _MASK)) & _MASK
    z = (z + _GOLDEN) & _MASK
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & _MASK
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def check_seed(name: str, seed: int) -> None:
    """Reject a ``seed`` outside ``[0, 2**64)`` (exit 2), naming it as ``name``."""
    if not 0 <= seed <= _MASK:
        raise ValidationError(f"{name} is {seed}, outside the seed range [0, 2**64)")
