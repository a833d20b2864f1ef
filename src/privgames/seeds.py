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

A game derives several seeds and opens one or two streams per round, so
both come in batched form.  ``derive_many`` is ``derive`` as ``uint64``
array arithmetic over many parents and indices at once.  ``Streams``
opens the PCG64 streams of many seeds without a ``SeedSequence`` per
seed: it hashes every seed the way ``np.random.SeedSequence`` does, in
``uint32`` array operations, and builds each stream's bit generator
straight from its four hashed words.  ``derive_many`` gives exactly the
values of ``derive``, and a stream draws exactly what
``np.random.default_rng`` of its seed draws; only the cost differs.
``Streams.__getitem__`` is the one place the package builds a
Generator: ``rng(seed)`` is a ``Streams`` of one.  Three draws build
none: ``Streams.randoms`` (every stream's first ``random()``, a toy
release bit), ``Streams.integers`` (every stream's first ``integers(0,
high, size)``, a model-seeded per-run reference pick or a mixture's
partial) and ``Streams.permutations`` (every stream's first
``permutation(d)``, a network's visit order) run PCG64 itself from the
hashed words, as ``uint64`` array arithmetic over all streams, and give
numpy's bits exactly.  The hash costs a few tens of microseconds per
call whatever the batch size, and so do these draws, so draws for many
items open their streams in one ``Streams``, across games too: a grid
of games (``games.run_games``) hashes every game's bit seed in one, and
each span of its rounds, which may cross game boundaries, hashes the
span's data and release streams in one.
A stream's seed is 64-bit, as ``derive`` makes it; any other raises
DomainError.
"""

import functools

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .errors import DomainError

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


@functools.lru_cache(maxsize=1024)
def _tag_hash(tag):
    """``fnv1a64`` of a purpose tag's UTF-8 bytes, hashed once per tag."""
    return fnv1a64(tag.encode("utf-8"))


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
        fnv1a64(tag)) ^ index)``.
    """
    return splitmix64(splitmix64(splitmix64(seed & _MASK) ^ _tag_hash(tag)) ^ (index & _MASK))


def _seed_array(seeds):
    """Seeds as a ``uint64`` array, each reduced to its low 64 bits.

    An integer array is cast; any other int or sequence of ints is
    masked element by element first, since Python seeds of 2**64 and
    above (or below 0) are legal and only their low bits count.
    """
    if isinstance(seeds, np.ndarray) and seeds.dtype.kind in "iu":
        # Casting wraps modulo 2**64, the same as masking.
        return seeds.astype(np.uint64, copy=False)
    if isinstance(seeds, (int, np.integer)):
        return np.array(int(seeds) & _MASK, dtype=np.uint64)
    return np.array([int(s) & _MASK for s in seeds], dtype=np.uint64)


# Constants are 0-d arrays, not numpy scalars: an operation between an
# array and a 0-d array is cheaper, and it never warns on wraparound.
def _u64(value):
    return np.array(value, dtype=np.uint64)


_GOLDEN = _u64(0x9E3779B97F4A7C15)
_MIX1 = _u64(0xBF58476D1CE4E5B9)
_MIX2 = _u64(0x94D049BB133111EB)
_S27, _S30, _S31, _S32 = _u64(27), _u64(30), _u64(31), _u64(32)


def _splitmix64_array(z):
    """splitmix64 of every element of a new array ``z``, in place."""
    z += _GOLDEN
    z ^= z >> _S30
    z *= _MIX1
    z ^= z >> _S27
    z *= _MIX2
    z ^= z >> _S31
    return z


def derive_many(seed, tag, indices=0):
    """``derive(seed, tag, index)`` for every pair of a broadcast.

    ``seed`` and ``indices`` are ints or sequences of them, broadcast against
    each other; the result is a ``uint64`` array of that shape, at least
    one-dimensional, whose elements equal ``derive`` of the matching
    parent and index.  The arithmetic wraps modulo 2**64 exactly as the
    masked scalar version does.
    """
    z = _splitmix64_array(np.array(_seed_array(seed), ndmin=1))
    z = _splitmix64_array(z ^ _u64(_tag_hash(tag)))
    return _splitmix64_array(z ^ _seed_array(indices))


def rng(seed):
    """A new numpy Generator at the start of the PCG64 stream of ``seed``:
    a ``Streams`` of one, so a seed outside [0, 2**64) raises DomainError."""
    return Streams([seed])[0]


# np.random.SeedSequence, for an entropy of at most two 32-bit words and
# the default pool of four: the pool is filled by hashing each entropy
# word (missing words hash as 0), every pool word is then mixed into
# every other, and the output words hash the pool cyclically.  Each hash
# takes the next (xor, mult) pair of a constant sequence, independent of
# the entropy, so one step runs as one array operation over all seeds
# and every pool row it touches.
_M32 = 0xFFFFFFFF
_POOL = 4


def _hash_constants(init, mult, count):
    """``(xor, mult)`` of each of ``count`` successive hashes."""
    xor = [init]
    for _ in range(count):
        xor.append(xor[-1] * mult & _M32)
    return list(zip(xor[:-1], xor[1:]))


def _columns(pairs):
    """Hash pairs as ``(rows, 1)`` xor and mult columns."""
    return tuple(np.array(c, dtype=np.uint32).reshape(-1, 1) for c in zip(*pairs))


_ENTROPY = _hash_constants(0x43B0D7E5, 0x931E8875, _POOL * _POOL)
_FILL = _columns(_ENTROPY[:_POOL])


def _mixing_columns(src):
    """Hashes that mix pool word ``src`` into the others: the next three
    of the sequence, one per other row in row order.  Row ``src`` gets a
    placeholder (0, 0); the mixing step restores that row."""
    pairs = iter(_ENTROPY[_POOL + 3 * src : _POOL + 3 * src + 3])
    return _columns([(0, 0) if dst == src else next(pairs) for dst in range(_POOL)])


_MIX_FROM = [_mixing_columns(src) for src in range(_POOL)]
# Output words 0-3 hash pool rows 0-3 and words 4-7 hash them again, so
# the output constants are shaped (2, 4, 1) to broadcast against the pool.
_OUTPUT = tuple(
    c.reshape(2, _POOL, 1) for c in _columns(_hash_constants(0x8B51F9DD, 0x58F38DED, 2 * _POOL))
)
_MIX_L, _MIX_R, _S16 = (np.array(v, dtype=np.uint32) for v in (0xCA01F9DD, 0x4973F715, 16))


def _hashmix(value, consts):
    """The hash of ``value`` with ``(xor, mult)``, broadcast, as a new array."""
    xor, mult = consts
    value = value ^ xor
    value *= mult
    value ^= value >> _S16
    return value


def _seed_words(seeds):
    """``SeedSequence(s).generate_state(4, np.uint64)`` of every seed of a
    1-D ``uint64`` array, as a C-contiguous ``(n, 4)`` little-endian
    ``uint64`` array."""
    pool = np.zeros((_POOL, len(seeds)), dtype=np.uint32)
    pool[0] = seeds  # the low word: assignment truncates
    pool[1] = seeds >> _S32
    pool = _hashmix(pool, _FILL)
    for src, consts in enumerate(_MIX_FROM):
        keep = pool[src].copy()
        # mix(x, y) = (L * x - R * y) ^ its own upper half, row by row
        h = _hashmix(keep, consts)
        h *= _MIX_R
        pool *= _MIX_L
        pool -= h
        pool ^= pool >> _S16
        pool[src] = keep
    out = _hashmix(pool, _OUTPUT).reshape(2 * _POOL, -1)
    # Word k is output halves 2k (low) and 2k + 1 (high): one row of eight
    # little-endian uint32 values per seed, read as four uint64 values.
    words = np.empty((len(seeds), 2 * _POOL), dtype="<u4")
    words[:] = out.T
    return words.view("<u8")


class _HashedSeed(ISeedSequence):
    """A seed whose ``SeedSequence`` words are already computed.

    ``np.random.PCG64`` seeds itself from ``generate_state(4, np.uint64)``
    of the seed sequence it is given, and nothing else; this one returns
    the stored words, so the bit generator starts exactly where
    ``PCG64(seed)`` does.
    """

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


# PCG64 (numpy's XSL-RR variant) straight from the hashed words.  The
# bit generator seeds itself with srandom(state = w0:w1, seq = w2:w3):
# inc = seq << 1 | 1, then from state 0 one step, add the state, one more
# step, where a step is state * M + inc modulo 2**128.  Output k (from 1)
# steps once more per output and rotates the state's xor-folded halves by
# its top six bits.  Folded into one jump, output k comes from
#   state_k = M**(k+1) * (w0:w1 + inc) + (M**k + ... + M + 1) * inc,
# 128-bit multiply-adds on (hi, lo) uint64 limbs.  The two products run
# as one stacked operation, since at a few hundred streams the cost is
# the number of numpy calls, not their size.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_LO32 = _u64(_M32)
_ONE, _S11, _S58, _S63, _S64 = (_u64(v) for v in (1, 11, 58, 63, 64))


@functools.lru_cache(maxsize=None)
def _jumps(count):
    """The multipliers ``M**(k+1)`` (row 0) and ``M**k + ... + 1`` (row 1)
    of outputs k = 1 .. count, as ``(hi, lo >> 32, lo & 0xFFFFFFFF, lo)``
    uint64 arrays of shape ``(2, 1, count)``."""
    rows, power, total = ([], []), _PCG_MULT, 1
    for _ in range(count):
        total = (total + power) % (1 << 128)
        power = power * _PCG_MULT % (1 << 128)
        rows[0].append(power)
        rows[1].append(total)
    value = np.array(rows, dtype=object).reshape(2, 1, count)
    hi, lo = value >> 64, value & _MASK
    return tuple(np.array(v, dtype=np.uint64) for v in (hi, lo >> 32, lo & _M32, lo))


def _outputs(words, count):
    """The first ``count`` 64-bit outputs of the PCG64 stream of every row
    of hashed ``words``, as an ``(n, count)`` uint64 array: the words
    ``PCG64(seed).random_raw(count)`` gives."""
    # Row 0 holds w0:w1 + inc, row 1 inc, each shaped (n, 1).
    hi = np.empty((2, len(words), 1), dtype=np.uint64)
    lo = np.empty_like(hi)
    seq_lo = words[:, 3:]
    hi[1] = words[:, 2:3] << _ONE | seq_lo >> _S63
    lo[1] = seq_lo << _ONE | _ONE
    np.add(words[:, 1:2], lo[1], out=lo[0])
    hi[0] = words[:, :1] + hi[1] + (lo[0] < lo[1])
    # Both products modulo 2**128 at once, the low limbs' full 128-bit
    # product from 32-bit halves.  Sums accumulate in place and limbs are
    # dropped once read, so at most nine (2, n, count) arrays are live.
    c_hi, c_lo1, c_lo0, c_lo = _jumps(count)
    lo1, lo0 = lo >> _S32, lo & _LO32
    cross1, cross0 = c_lo0 * lo1, c_lo1 * lo0
    mid = c_lo0 * lo0 >> _S32
    mid += cross1 & _LO32
    mid += cross0 & _LO32
    p_hi = c_lo1 * lo1
    p_hi += cross1 >> _S32
    p_hi += cross0 >> _S32
    p_hi += mid >> _S32
    del lo1, lo0, cross1, cross0, mid
    p_hi += c_hi * lo
    p_hi += c_lo * hi
    p_lo = c_lo * lo
    del hi, lo
    # The sum of the two, then the XSL-RR output.
    out_lo = p_lo[0] + p_lo[1]
    out_hi = p_hi[0] + p_hi[1] + (out_lo < p_lo[1])
    x, rot = out_hi ^ out_lo, out_hi >> _S58
    return x >> rot | x << ((_S64 - rot) & _S63)


class Streams:
    """The PCG64 streams of many seeds, hashed at once.

    ``streams[i]`` is a new Generator at the start of the stream of
    ``seeds[i]``: it draws exactly what ``np.random.default_rng(seeds[i])``
    draws.  The ``SeedSequence`` words of every seed are hashed when the
    object is made, in one pass of array operations, so an item only
    builds its bit generator from four ready words.  ``streams[lo:hi]``
    and ``streams[index_array]`` are ``Streams`` of those seeds that reuse
    the hashed words, and iterating yields the streams in order.  A
    stream's first draw of ``random()``, ``integers(0, high, size)`` or
    ``permutation(d)`` comes from ``randoms``, ``integers`` or
    ``permutations``, which compute it for every stream at once without
    building a Generator.  Seeds are 64-bit, as ``derive`` makes them;
    others raise DomainError.
    """

    def __init__(self, seeds):
        if not (isinstance(seeds, np.ndarray) and seeds.dtype == np.uint64):
            seeds = [int(s) for s in seeds]
            if not all(0 <= s <= _MASK for s in seeds):
                raise DomainError("stream seeds must lie in [0, 2**64)")
            seeds = np.array(seeds, dtype=np.uint64)
        self._words = _seed_words(seeds.reshape(-1))

    def __getitem__(self, i):
        if isinstance(i, (slice, np.ndarray)):
            part = object.__new__(type(self))
            part._words = self._words[i]
            return part
        return np.random.Generator(np.random.PCG64(_HashedSeed(self._words[i])))

    def randoms(self):
        """Each stream's first ``random()``, as a float64 array: the top
        53 bits of its first output over 2**53."""
        return (_outputs(self._words, 1)[:, 0] >> _S11) * 2.0**-53

    def _first_words(self, count, width, draw):
        """An ``(n, width)`` int64 array of ``draw(words)`` per stream.

        ``words`` holds the streams' first 32-bit words, in the order numpy
        reads them: the low half of each output, then the high half.
        ``draw`` returns which rows had words enough and those rows'
        results.  The first pass computes ``count`` outputs per stream;
        rows short of words are recomputed from twice as many.
        """
        words, rows = self._words, np.arange(len(self._words))
        out = np.empty((len(rows), width), dtype=np.int64)
        while len(rows):
            done, values = draw(_outputs(words, count).astype("<u8", copy=False).view("<u4"))
            out[rows[done]] = values
            words, rows = words[~done], rows[~done]
            count *= 2
        return out

    def integers(self, high, size):
        """Each stream's first ``integers(0, high, size)``, as an
        ``(n, size)`` int64 array, for 1 <= ``high`` <= 2**32 and
        ``size`` >= 1.

        numpy draws such a bounded integer from 32-bit words by Lemire's
        rule: a word w gives ``w * high >> 32`` unless ``w * high mod
        2**32`` falls below ``2**32 mod high``, in which case w is dropped
        and the next word is tried.  (``high`` = 1 gives zeros without
        reading a word, and 2**32 the words themselves; both agree with
        the rule.)
        """
        if not 1 <= high <= 1 << 32:
            raise DomainError(f"integers needs 1 <= high <= 2**32 (got {high})")
        scale, floor = _u64(high), _u64((1 << 32) % high)

        def draw(halves):
            product = halves.astype(np.uint64) * scale
            keep = (product & _LO32) >= floor
            rank = np.cumsum(keep, axis=1)
            done = rank[:, -1] >= size
            take = keep[done] & (rank[done] <= size)
            return done, (product[done][take] >> _S32).reshape(-1, size)

        return self._first_words((size + 1) // 2, size, draw)

    def permutations(self, d):
        """Each stream's first ``permutation(d)``, as an ``(n, d)`` int64
        array, for 0 <= ``d`` <= 2**32.

        numpy shuffles ``arange(d)`` by Fisher-Yates, for i from d - 1
        down to 1 swapping item i with item j <= i.  It draws j from the
        next 32-bit word masked to the smallest all-ones value >= i,
        dropping the word and trying the next while the result exceeds
        i.  Each step finds its word as the first acceptable one past
        the previous step's, from a lookup of the next acceptable word
        at every position, computed for all steps at once.
        """
        if not 0 <= d <= 1 << 32:
            raise DomainError(f"permutations needs 0 <= d <= 2**32 (got {d})")
        bounds = np.arange(d - 1, 0, -1)
        if not len(bounds):
            return np.zeros((len(self._words), d), dtype=np.int64)
        masks = np.array([(1 << int(i).bit_length()) - 1 for i in bounds], dtype=np.uint32)

        def draw(halves):
            rows, width = halves.shape
            # Per step, the masked words, padded with zeros, and the index
            # of the next acceptable word at or after each position,
            # ``width`` when none is left (two padding positions, so that
            # a step after an exhausted one still reads a valid index).
            masked = np.zeros((len(bounds), rows, width + 2), dtype=np.uint32)
            np.bitwise_and(halves, masks[:, None, None], out=masked[:, :, :width])
            position = np.arange(width + 2, dtype=np.min_scalar_type(width + 1))
            after = np.where(masked <= bounds[:, None, None], position, width)
            after[:, :, width:] = width
            after = np.minimum.accumulate(after[:, :, ::-1], axis=2)[:, :, ::-1]
            perm = np.tile(np.arange(d, dtype=np.int64), (rows, 1))
            row, at = np.arange(rows), np.zeros(rows, dtype=np.intp)
            for step, i in enumerate(bounds.tolist()):
                at = after[step, row, at]
                j = masked[step, row, at]
                at += 1
                swap = perm[row, j]
                perm[row, j] = perm[:, i]
                perm[:, i] = swap
            done = at <= width
            return done, perm[done]

        return self._first_words(d, d, draw)
