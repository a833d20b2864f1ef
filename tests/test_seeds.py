import warnings

import numpy as np
import pytest

from privgames.errors import DomainError
from privgames import seeds as seeds_mod
from privgames.seeds import Streams, derive, derive_many, fnv1a64, rng, splitmix64


def test_derive_is_deterministic():
    assert derive(42, "run", 7) == derive(42, "run", 7)


def test_derive_separates_tags_and_indices():
    seen = set()
    for tag in ("run", "fit", "data", "adversary", "shadow-in"):
        for idx in range(50):
            seen.add(derive(123, tag, idx))
    assert len(seen) == 5 * 50


def test_derive_separates_parents():
    assert derive(1, "run", 0) != derive(2, "run", 0)


def test_derived_seeds_fit_in_64_bits():
    for idx in range(100):
        s = derive(2**64 - 1, "x", idx)
        assert 0 <= s < 2**64


def test_no_collisions_across_many_derivations():
    seen = set()
    for i in range(10000):
        seen.add(derive(999, "bulk", i))
    assert len(seen) == 10000


def test_splitmix_and_fnv_reference_values():
    # Known fixpoints of the mixing primitives so silent changes to the
    # derivation scheme fail loudly instead of shifting every result.
    assert splitmix64(0) == 16294208416658607535
    assert fnv1a64(b"") == 0xCBF29CE484222325
    assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C


def test_rng_streams_reproduce():
    a = rng(derive(5, "t", 1)).random(4)
    b = rng(derive(5, "t", 1)).random(4)
    assert (a == b).all()


# ------------------------------------------------------- batched forms

EDGE_PARENTS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1, 2**64, 2**64 + 12345, 2**100 + 7]
EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]


def _random_seeds(count, seed):
    g = np.random.default_rng(seed)
    return [int(v) for v in g.integers(0, 2**64, size=count, dtype=np.uint64)]


def test_derive_many_equals_derive():
    parents = EDGE_PARENTS + _random_seeds(300, 1)
    indices = [0, 1, 7, 2**32, 2**64 - 1] + _random_seeds(5, 2)
    for tag in ("run", "data", "privatize-col", "", "game-traditional"):
        for index in indices:
            got = derive_many(parents, tag, index)
            assert got.dtype == np.uint64
            assert got.tolist() == [derive(p, tag, index) for p in parents]
        got = derive_many(parents[7], tag, np.array(indices, dtype=np.uint64))
        assert got.tolist() == [derive(parents[7], tag, i) for i in indices]


def test_derive_many_broadcasts_and_chains():
    parents = derive_many(3, "run", np.arange(5))
    table = derive_many(parents[:, None], "privatize-col", np.arange(4))
    assert table.shape == (5, 4)
    for b in range(5):
        for c in range(4):
            assert int(table[b, c]) == derive(derive(3, "run", b), "privatize-col", c)
    assert derive_many(9, "t", 2).tolist() == [derive(9, "t", 2)]


def test_stream_states_equal_pcg64_seeding():
    seeds = EDGE_SEEDS + _random_seeds(2000, 3) + [s >> 40 for s in _random_seeds(100, 4)]
    streams = Streams(np.array(seeds, dtype=np.uint64))
    for i, s in enumerate(seeds):
        assert streams[i].bit_generator.state == np.random.PCG64(s).state


@pytest.mark.parametrize(
    "draw",
    [
        lambda g: g.random(5),
        lambda g: g.random(),
        lambda g: g.integers(0, 11, size=6),
        lambda g: g.integers(0, 2**40),
        lambda g: g.choice(40, size=9, replace=False),
        lambda g: g.choice(3, size=3, replace=False),
        lambda g: g.permutation(12),
        lambda g: g.laplace(0.0, 2.5, size=7),
    ],
    ids=["random-n", "random", "integers", "integers-wide", "choice", "choice-all",
         "permutation", "laplace"],
)
def test_stream_draws_equal_rng(draw):
    # Streams and rng against numpy's own seeding, SeedSequence included.
    seeds = EDGE_SEEDS + _random_seeds(200, 5)
    for s, g in zip(seeds, Streams(seeds)):
        expected = draw(np.random.default_rng(s))
        np.testing.assert_array_equal(draw(g), expected)
        np.testing.assert_array_equal(draw(rng(s)), expected)


def test_stream_reuse_does_not_leak_state():
    # A half-consumed stream, or a buffered 32-bit draw, must not shift the next one.
    seeds = _random_seeds(20, 6)
    streams = Streams(seeds)
    for i, s in enumerate(seeds):
        g = streams[i]
        g.integers(0, 2**31, dtype=np.uint32)
        assert streams[i].random() == np.random.default_rng(s).random()


def test_stream_slices_share_the_hashed_seeds():
    seeds = _random_seeds(10, 7)
    streams = Streams(seeds)
    expected = [np.random.default_rng(s).random() for s in seeds[3:8]]
    assert [g.random() for g in streams[3:8]] == expected
    assert streams[2] is not streams[2]  # every item is a new Generator


def test_stream_seeds_must_be_64_bit():
    for bad in ([-1], [2**64], [1, 2**70]):
        with pytest.raises(DomainError):
            Streams(bad)
    for bad in (-1, 2**64):
        with pytest.raises(DomainError):
            rng(bad)
    assert Streams([5])[0].random() == np.random.default_rng(5).random()
    assert list(Streams([])) == []


# ------------------------------------------- first draws without a Generator

HIGHS = [1, 2, 3, 150, 2**31 + 1, 2**32 - 1, 2**32]


def _check_first_draws(streams, seeds):
    np.testing.assert_array_equal(
        streams.randoms(), [np.random.default_rng(s).random() for s in seeds]
    )
    for high in HIGHS:
        for size in range(1, 8):
            got = streams.integers(high, size)
            assert got.dtype == np.int64 and got.shape == (len(seeds), size)
            expected = [np.random.default_rng(s).integers(0, high, size=size) for s in seeds]
            np.testing.assert_array_equal(got, np.reshape(expected, (len(seeds), size)))


def test_first_draws_equal_rng():
    # 2**31 + 1 rejects about half of all 32-bit words, so some rows
    # need more outputs than the first pass computes.
    seeds = EDGE_SEEDS + _random_seeds(2000, 8)
    streams = Streams(seeds)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a uint64 overflow warning fails
        _check_first_draws(streams, seeds)
        _check_first_draws(streams[5:60], seeds[5:60])
        picks = np.array([7, 0, 2005, 3, 3, 1999])
        _check_first_draws(streams[picks], [seeds[i] for i in picks])
        _check_first_draws(streams[np.array([], dtype=np.intp)], [])
        for s in EDGE_SEEDS:
            _check_first_draws(Streams([s]), [s])


def test_first_integers_need_a_32_bit_high():
    streams = Streams([1, 2])
    for bad in (0, 2**32 + 1):
        with pytest.raises(DomainError):
            streams.integers(bad, 1)


PERMUTATION_SIZES = [0, 1, 2, 3, 5, 8, 17, 33]


def _check_first_permutations(streams, seeds):
    for d in PERMUTATION_SIZES:
        got = streams.permutations(d)
        assert got.dtype == np.int64 and got.shape == (len(seeds), d)
        expected = [np.random.default_rng(s).permutation(d) for s in seeds]
        np.testing.assert_array_equal(got, np.reshape(expected, (len(seeds), d)))


def test_first_permutations_equal_rng(monkeypatch):
    seeds = EDGE_SEEDS + _random_seeds(2000, 9)
    streams = Streams(seeds)
    passes = []
    outputs = seeds_mod._outputs

    def spy(words, count):
        passes.append(count)
        return outputs(words, count)

    monkeypatch.setattr(seeds_mod, "_outputs", spy)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a uint64 overflow warning fails
        _check_first_permutations(streams, seeds)
        # Every d >= 2 reads words in one pass over all rows; a row whose
        # words run out takes a second pass with twice as many outputs.
        assert len(passes) > sum(d >= 2 for d in PERMUTATION_SIZES)
        _check_first_permutations(streams[5:60], seeds[5:60])
        picks = np.array([7, 0, 2005, 3, 3, 1999])
        _check_first_permutations(streams[picks], [seeds[i] for i in picks])
        _check_first_permutations(streams[np.array([], dtype=np.intp)], [])
        for s in EDGE_SEEDS:
            _check_first_permutations(Streams([s]), [s])


def test_first_permutations_need_a_32_bit_d():
    streams = Streams([1, 2])
    for bad in (-1, 2**32 + 1):
        with pytest.raises(DomainError):
            streams.permutations(bad)
