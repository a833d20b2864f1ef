"""Deterministic derivation of per-purpose random seeds.

Every stochastic step in the package draws from a numpy Generator whose
seed is derived, never reused: ``derive(parent, tag, index)`` mixes a
parent seed with a purpose tag and an integer index through splitmix64
and an FNV-1a hash of the tag.  Two consequences the rest of the code
relies on:

* results are reproducible from a single master seed, and
* sibling computations (game runs, shadow models, noise draws) have
  independent streams, so they can execute in any order or in parallel
  without changing any outcome.
"""

import numpy as np

_MASK = (1 << 64) - 1


def splitmix64(z):
    """One splitmix64 scramble of a 64-bit integer."""
    z = (z + 0x9E3779B97F4A7C15) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return (z ^ (z >> 31)) & _MASK


def fnv1a64(data):
    """FNV-1a hash of a byte string, reduced to 64 bits."""
    h = 0xCBF29CE484222325
    for byte in data:
        h = ((h ^ byte) * 0x100000001B3) & _MASK
    return h


# fnv1a64 of each tag seen so far; tags are a small fixed vocabulary
# (plus one per record id), so this stays small.
_TAG_HASHES = {}


def derive(seed, tag, index=0):
    """Derive the sub-seed of ``seed`` for the purpose named ``tag``.

    Parameters
    ----------
    seed : int
        Parent seed (any Python int; only the low 64 bits matter).
    tag : str
        Purpose label, e.g. ``"run"`` or ``"shadow-fit"``.
    index : int, optional
        Distinguishes siblings that share a tag.

    Returns
    -------
    int
        A 64-bit seed: ``splitmix64(splitmix64(splitmix64(seed) ^
        fnv1a64(tag)) ^ index)``, with the three rounds written out inline
        and the tag hash memoized, since this runs several times per game
        round.
    """
    h = _TAG_HASHES.get(tag)
    if h is None:
        h = _TAG_HASHES[tag] = fnv1a64(tag.encode("utf-8"))
    z = ((seed & _MASK) + 0x9E3779B97F4A7C15) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    z = ((z ^ (z >> 31) ^ h) + 0x9E3779B97F4A7C15) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    z = ((z ^ (z >> 31) ^ (index & _MASK)) + 0x9E3779B97F4A7C15) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def rng(seed):
    """numpy Generator on a PCG64 stream for the given seed."""
    return np.random.Generator(np.random.PCG64(seed))
