
import numpy as np
import pytest

from privgames import data, generators
from privgames.errors import DomainError, FitError, UnsupportedOperationError
from privgames.seeds import derive, rng

from brute import brute_mi
from reference import (
    ReferenceGenerator,
    reference_estimate_tables,
    reference_fit,
    reference_learn_structure,
    reference_normalize_rows,
    reference_privatize_tables,
    reference_sample,
)


def ordered_schema(*sizes):
    return data.Schema(
        tuple(data.Column(f"c{i}", data.ORDERED, s) for i, s in enumerate(sizes))
    )


def toy_spec(p_in=0.8, p_out=0.2):
    return generators.GeneratorSpec(generators.TOY, p_in=p_in, p_out=p_out)


# ------------------------------------------------------------------ spec


def test_spec_validation():
    with pytest.raises(DomainError):
        generators.GeneratorSpec("magic")
    with pytest.raises(DomainError):
        generators.GeneratorSpec(generators.BAYNET, max_parents=-1)
    with pytest.raises(DomainError):
        generators.GeneratorSpec(generators.PRIVBAYNET)  # epsilon missing
    with pytest.raises(DomainError):
        generators.GeneratorSpec(generators.PRIVBAYNET, epsilon=0.0)
    with pytest.raises(DomainError):
        generators.GeneratorSpec(generators.TOY, p_in=1.2, p_out=0.5)
    with pytest.raises(DomainError):
        generators.GeneratorSpec(generators.BAYNET, smoothing=-0.1)


# ----------------------------------------------------- mutual information


def test_mutual_information_matches_brute_force():
    g = rng(101)
    for trial in range(30):
        a_size = int(g.integers(2, 6))
        b_size = int(g.integers(2, 6))
        n = int(g.integers(20, 200))
        a = g.integers(0, a_size, size=n)
        b = g.integers(0, b_size, size=n)
        fast = generators.mutual_information(a, b, a_size, b_size)
        slow = brute_mi(a.tolist(), b.tolist())
        assert abs(fast - slow) < 1e-12


def test_mutual_information_of_copy_is_entropy():
    a = np.array([0, 0, 1, 2])
    mi = generators.mutual_information(a, a, 3, 3)
    expected = -(0.5 * np.log(0.5) + 0.25 * np.log(0.25) * 2)
    assert abs(mi - expected) < 1e-12


# ------------------------------------------------------------- structure


def test_learn_structure_zero_parent_budget():
    ds = data.Dataset(ordered_schema(3, 3, 3), [[0, 1, 2], [1, 2, 0], [2, 0, 1]])
    st = generators.learn_structure(ds, 0, seed=5)
    assert all(p == () for p in st.parents)
    assert sorted(st.order) == [0, 1, 2]


def test_learn_structure_is_topological():
    g = rng(77)
    schema = ordered_schema(3, 2, 4, 2, 3)
    for trial in range(20):
        vals = np.column_stack(
            [g.integers(0, s, size=60) for s in schema.sizes]
        )
        ds = data.Dataset(schema, vals)
        st = generators.learn_structure(ds, 2, seed=trial)
        pos = {c: i for i, c in enumerate(st.order)}
        for col, parents in enumerate(st.parents):
            assert len(parents) <= 2
            for p in parents:
                assert pos[p] < pos[col]


def test_learn_structure_picks_the_copied_column():
    # Two identical columns: whichever is visited second adopts the first.
    g = rng(3)
    a = g.integers(0, 4, size=200)
    ds = data.Dataset(ordered_schema(4, 4), np.column_stack([a, a]))
    st = generators.learn_structure(ds, 1, seed=9)
    first, second = st.order
    assert st.parents[first] == ()
    assert st.parents[second] == (first,)


def test_mi_floor_blocks_weak_parents():
    # Independent columns: with a floor above sampling noise nothing links.
    g = rng(15)
    vals = np.column_stack([g.integers(0, 3, size=4000) for _ in range(3)])
    ds = data.Dataset(ordered_schema(3, 3, 3), vals)
    st = generators.learn_structure(ds, 2, seed=1, mi_floor=0.05)
    assert all(p == () for p in st.parents)


# ---------------------------------------------------------------- tables


def test_marginal_estimate_without_smoothing():
    ds = data.Dataset(ordered_schema(2), [[0], [0], [1], [1]])
    st = generators.Structure(order=(0,), parents=((),))
    (cpt,) = generators.estimate_tables(ds, st, smoothing=0.0)
    assert cpt.probs.tolist() == [[0.5, 0.5]]


def test_smoothing_shifts_counts():
    ds = data.Dataset(ordered_schema(2), [[0], [0], [0], [1]])
    st = generators.Structure(order=(0,), parents=((),))
    (cpt,) = generators.estimate_tables(ds, st, smoothing=1.0)
    assert cpt.probs.tolist() == [[4 / 6, 2 / 6]]


def test_unseen_parent_combo_falls_back_to_uniform():
    schema = ordered_schema(2, 3)
    ds = data.Dataset(schema, [[0, 0], [0, 2], [0, 0]])  # parent value 1 unseen
    st = generators.Structure(order=(0, 1), parents=((), (0,)))
    tables = generators.estimate_tables(ds, st, smoothing=0.0)
    row = tables[1].probs[1]
    assert np.allclose(row, [1 / 3, 1 / 3, 1 / 3])


def test_rows_always_normalize():
    g = rng(44)
    schema = ordered_schema(3, 4, 2)
    for trial in range(15):
        vals = np.column_stack([g.integers(0, s, size=40) for s in schema.sizes])
        ds = data.Dataset(schema, vals)
        spec = generators.GeneratorSpec(
            generators.BAYNET, max_parents=2, smoothing=float(trial % 3)
        )
        gen = generators.fit(spec, ds, seed=trial)
        for cpt in gen.tables:
            assert np.all(np.abs(cpt.probs.sum(axis=1) - 1.0) <= 1e-9)
            assert np.all(cpt.probs >= 0)


# -------------------------------------------------------------- privatize


def test_privatize_with_huge_budget_is_nearly_exact():
    g = rng(21)
    schema = ordered_schema(3, 3, 2)
    vals = np.column_stack([g.integers(0, s, size=50) for s in schema.sizes])
    ds = data.Dataset(schema, vals)
    st = generators.learn_structure(ds, 1, seed=2)
    tables = generators.estimate_tables(ds, st, smoothing=1.0)
    noised = generators.privatize_tables(tables, epsilon=1e9, seed=6)
    for before, after in zip(tables, noised):
        assert np.max(np.abs(before.probs - after.probs)) <= 1e-3


def test_privatize_perturbs_at_small_budget():
    ds = data.Dataset(ordered_schema(4), [[i % 4] for i in range(40)])
    st = generators.Structure(order=(0,), parents=((),))
    tables = generators.estimate_tables(ds, st, smoothing=1.0)
    noised = generators.privatize_tables(tables, epsilon=0.5, seed=3)
    assert np.max(np.abs(tables[0].probs - noised[0].probs)) > 1e-3


def test_privatize_deterministic_in_seed():
    ds = data.Dataset(ordered_schema(4), [[i % 4] for i in range(12)])
    st = generators.Structure(order=(0,), parents=((),))
    tables = generators.estimate_tables(ds, st, smoothing=1.0)
    a = generators.privatize_tables(tables, epsilon=1.0, seed=9)
    b = generators.privatize_tables(tables, epsilon=1.0, seed=9)
    c = generators.privatize_tables(tables, epsilon=1.0, seed=10)
    assert np.array_equal(a[0].probs, b[0].probs)
    assert not np.array_equal(a[0].probs, c[0].probs)


def test_privatize_all_zero_row_becomes_uniform():
    # Parent value 1 never occurs, so its row has zero counts; find a
    # seed whose noise draws are all non-positive there and check the
    # clamped row normalizes to uniform.
    schema = ordered_schema(2, 3)
    ds = data.Dataset(schema, [[0, 0], [0, 1], [0, 2]])
    st = generators.Structure(order=(0, 1), parents=((), (0,)))
    tables = generators.estimate_tables(ds, st, smoothing=0.0)
    assert tables[1].counts[1].tolist() == [0.0, 0.0, 0.0]
    for seed in range(200):
        noised = generators.privatize_tables(tables, epsilon=1.0, seed=seed)
        if np.all(noised[1].counts[1] == 0.0):
            assert np.allclose(noised[1].probs[1], [1 / 3, 1 / 3, 1 / 3])
            return
    raise AssertionError("no seed produced an all-clamped row")


# ------------------------------------------- one-pass fit vs per-pair fit
#
# The fit path counts every column pair and every table in one pass;
# ``reference.py`` holds the per-pair / per-column definitions it
# replaced, which the fast path must reproduce bit for bit.


def random_training(seed):
    """A seeded random dataset over one of four schema families.

    The families cover size-1 columns, columns with 8+ levels (where
    numpy's sums switch to pairwise blocks), one column with 130+
    levels, and duplicated columns whose MI ties exactly.
    """
    g = rng(seed)
    family = seed % 4
    d = int(g.integers(1, 9))
    if family == 0:
        sizes = [int(g.integers(1, 4)) for _ in range(d)]
    elif family == 1:
        sizes = [int(g.integers(8, 17)) for _ in range(d)]
    elif family == 2:
        sizes = [int(g.integers(1, 10)) for _ in range(d)] + [int(g.integers(130, 160))]
    else:
        sizes = [int(g.integers(1, 17)) for _ in range(d)]
    n = int(g.integers(1, 300))
    cols = [g.integers(0, s, size=n) for s in sizes]
    if family == 3 or g.random() < 0.3:
        src = int(g.integers(0, d))  # never the wide column: its tables would explode
        sizes += [sizes[src], sizes[src]]
        cols += [cols[src], cols[src].copy()]
    schema = ordered_schema(*sizes)
    return data.Dataset(schema, np.column_stack(cols))


def assert_same_tables(fast, slow):
    assert len(fast) == len(slow)
    for a, b in zip(fast, slow):
        assert a.parents == b.parents
        assert a.parent_sizes == b.parent_sizes
        assert a.counts.shape == b.counts.shape
        assert a.counts.tobytes() == b.counts.tobytes()
        assert a.probs.tobytes() == b.probs.tobytes()


@pytest.mark.parametrize("seed", range(24))
def test_one_pass_mi_matches_mutual_information_bitwise(seed):
    # Structure equality only notices MI differences at near-ties, so
    # check every ordered pair's value bit for bit as well.
    ds = random_training(seed)
    sizes = ds.schema.sizes
    plan = generators._pair_plan(sizes)
    terms, bounds = generators._pair_information(ds.values, plan)
    for (a, b), p in plan.pair_index.items():
        fast = float(np.add.reduce(terms[bounds[p] : bounds[p + 1]]))
        slow = generators.mutual_information(
            ds.values[:, a], ds.values[:, b], sizes[a], sizes[b]
        )
        assert np.float64(fast).tobytes() == np.float64(slow).tobytes(), (a, b)


@pytest.mark.parametrize("seed", range(24))
def test_one_pass_fit_matches_reference(seed):
    ds = random_training(seed)
    for max_parents in (1, 2, 3):
        for mi_floor in (0.0, 0.01):
            structure_seed = derive(seed, "structure", 10 * max_parents + int(mi_floor > 0))
            st = generators.learn_structure(ds, max_parents, structure_seed, mi_floor)
            assert st == reference_learn_structure(ds, max_parents, structure_seed, mi_floor)
        for smoothing in (0.0, 0.3, 1.0):
            tables = generators.estimate_tables(ds, st, smoothing)
            assert_same_tables(tables, reference_estimate_tables(ds, st, smoothing))
        noised = generators.privatize_tables(tables, 1.0, seed)
        assert_same_tables(noised, reference_privatize_tables(tables, 1.0, seed))


@pytest.mark.parametrize("kind", [generators.BAYNET, generators.PRIVBAYNET])
def test_one_pass_fit_matches_reference_through_fit(kind):
    for seed in range(8):
        ds = random_training(100 + seed)
        spec = generators.GeneratorSpec(
            kind, max_parents=2, epsilon=0.5, smoothing=0.1, mi_floor=0.001
        )
        gen = generators.fit(spec, ds, seed=seed)
        st = reference_learn_structure(ds, 2, derive(seed, "structure"), 0.001)
        tables = reference_estimate_tables(ds, st, 0.1)
        if kind == generators.PRIVBAYNET:
            tables = reference_privatize_tables(tables, 0.5, derive(seed, "privatize"))
        assert gen.structure == st
        assert_same_tables(gen.tables, tables)


def test_normalize_rows_zero_rows_fall_back_to_uniform():
    counts = np.array([[0.0, 0.0, 0.0], [1.0, 2.0, 0.5], [0.0, 0.0, 0.0]])
    probs = generators._normalize_rows(counts, 3)
    assert probs.tobytes() == reference_normalize_rows(counts, 3).tobytes()
    assert probs[0].tolist() == [1 / 3] * 3


# ------------------------------------------------ batched vs per-network
#
# fit_batch and sample_batch run each stage once over a whole batch of
# networks; every network must get the bits of reference_fit and
# reference_sample, whatever the batch size and wherever the element
# budget cuts the batch into chunks.


def random_batch(seed, count):
    """``count`` training datasets over the schema of random_training(seed):
    bootstrap resamples of its rows with one column redrawn, so
    duplicated columns mostly stay duplicated."""
    base = random_training(seed)
    g = rng(derive(seed, "batch"))
    out = [base]
    for _ in range(count - 1):
        vals = base.values[g.integers(0, base.n, size=base.n)].copy()
        j = int(g.integers(0, base.schema.ncols))
        vals[:, j] = g.integers(0, base.schema.sizes[j], size=base.n)
        out.append(data.Dataset(base.schema, vals))
    return out


def stack(trainings):
    return np.stack([t.values for t in trainings])


def assert_matches_reference(spec, trainings, seeds, n_syn=23):
    gens = generators.fit_batch(spec, trainings[0].schema, stack(trainings), seeds)
    syn_seeds = [derive(s, "sample") for s in seeds]
    samples = generators.sample_batch(gens, n_syn, syn_seeds)
    for gen, training, seed, syn_seed, syn in zip(gens, trainings, seeds, syn_seeds, samples):
        ref = reference_fit(spec, training, seed=seed)
        assert gen.structure == ref.structure
        assert_same_tables(gen.tables, ref.tables)
        expected = reference_sample(ref, n_syn, syn_seed)
        assert syn.values.tobytes() == expected.values.tobytes()


BATCH_SIZES = (1, 2, 7)

SPECS = (
    generators.GeneratorSpec(generators.INDEPENDENT, smoothing=0.0),
    *(
        generators.GeneratorSpec(generators.BAYNET, max_parents=k, smoothing=sm)
        for k in range(4)
        for sm in (0.0, 1.0)
    ),
    generators.GeneratorSpec(generators.PRIVBAYNET, max_parents=2, epsilon=0.5),
    generators.GeneratorSpec(
        generators.PRIVBAYNET, max_parents=1, epsilon=2.0, smoothing=0.0, mi_floor=0.01
    ),
)


@pytest.mark.parametrize("count", BATCH_SIZES)
@pytest.mark.parametrize("seed", range(12))
def test_batched_pair_mi_matches_mutual_information(seed, count):
    trainings = random_batch(seed, count)
    sizes = trainings[0].schema.sizes
    plan = generators._pair_plan(sizes)
    values = np.stack([t.values for t in trainings])
    terms, bounds = generators._pair_information(values, plan)
    mi = generators._pair_mi(terms, bounds).reshape(count, -1)
    for b, training in enumerate(trainings):
        for (a, c), p in plan.pair_index.items():
            slow = generators.mutual_information(
                training.values[:, a], training.values[:, c], sizes[a], sizes[c]
            )
            assert mi[b, p].tobytes() == np.float64(slow).tobytes(), (b, a, c)


@pytest.mark.parametrize("count", BATCH_SIZES)
@pytest.mark.parametrize("seed", range(12))
def test_fit_batch_matches_reference(seed, count):
    trainings = random_batch(seed, count)
    for k, spec in enumerate(SPECS):
        seeds = [derive(seed, "fit", 100 * k + i) for i in range(count)]
        assert_matches_reference(spec, trainings, seeds)


@pytest.mark.parametrize("seed", [1, 2])  # 8-16 levels; a 140-level column
def test_fit_batch_of_200_matches_reference(seed):
    trainings = random_batch(seed, 200)
    for k in (0, 4, 9):
        seeds = [derive(seed, "fit-200", 1000 * k + i) for i in range(200)]
        assert_matches_reference(SPECS[k], trainings, seeds)


def test_fit_batch_chunks_match_reference(monkeypatch):
    # A tiny element budget cuts every stage into many uneven chunks.
    monkeypatch.setattr(generators, "BATCH_ELEMENTS", 700)
    trainings = random_batch(5, 31)
    for k, spec in enumerate(SPECS):
        seeds = [derive(5, "chunked", 100 * k + i) for i in range(31)]
        assert_matches_reference(spec, trainings, seeds)


def test_fit_batch_mixes_specs_and_shapes_in_input_order():
    # Mixture rounds differ in spec and row count: each (spec, rows)
    # group is its own batch, and generators of separate batches sample
    # together, in any order.
    full = random_batch(9, 6)
    short = [data.Dataset(t.schema, t.values[:-3]) for t in random_batch(10, 5)]
    seeds = [derive(9, "mixed", i) for i in range(11)]
    groups = [(SPECS[4], full[:3]), (SPECS[5], full[3:]), (SPECS[9], short)]
    gens = []
    for spec, trainings in groups:
        group_seeds = seeds[len(gens) : len(gens) + len(trainings)]
        assert_matches_reference(spec, trainings, group_seeds)
        gens += generators.fit_batch(spec, trainings[0].schema, stack(trainings), group_seeds)
    a = generators.fit_batch(SPECS[3], full[0].schema, stack(full[:3]), seeds[:3])
    b = generators.fit_batch(SPECS[3], full[0].schema, stack(full[3:]), seeds[3:6])
    mixed = [b[0], gens[9], a[2], gens[4], a[0], b[2], gens[0], a[1], b[1], gens[7]]
    syn = generators.sample_batch(mixed, 11, seeds[:10])
    for gen, s, got in zip(mixed, seeds, syn):
        assert got == generators.sample(gen, 11, s)


def test_sample_batch_clamps_like_reference_when_rows_sum_below_one():
    # Rows whose probabilities sum below 1 leave uniforms past the last
    # cumulative entry; both samplers must clamp those to the last level,
    # also in rows padded to a wider column's arity.
    trainings = random_batch(11, 3)
    gens = generators.fit_batch(SPECS[4], trainings[0].schema, stack(trainings), [1, 2, 3])
    gens[0].packed[0].probs *= 0.5
    seeds = [7, 8, 9]
    for gen, syn, s in zip(gens, generators.sample_batch(gens, 200, seeds), seeds):
        ref = ReferenceGenerator(gen.spec, gen.schema, gen.structure, gen.tables)
        assert syn.values.tobytes() == reference_sample(ref, 200, s).values.tobytes()


def test_fit_batch_toy_membership_matches_contains():
    schema = ordered_schema(5)
    trainings = [data.Dataset(schema, [[i % 5], [(i + 1) % 5]]) for i in range(9)]
    gens = generators.fit_batch(toy_spec(), schema, stack(trainings), range(9), target_hint=(3,))
    empty = data.Dataset(schema, [])
    trainings.append(empty)
    gens += generators.fit_batch(toy_spec(), schema, empty.values[None], [9], target_hint=(3,))
    assert [g.toy_member for g in gens] == [data.contains(t, (3,)) for t in trainings]
    bits = generators.release_bits(gens, list(range(10)))
    assert bits == [
        int(rng(s).random() < (0.8 if g.toy_member else 0.2)) for s, g in enumerate(gens)
    ]


# -------------------------------------------------------------------- fit


def test_fit_toy_records_membership():
    schema = ordered_schema(5)
    training = data.Dataset(schema, [[0], [3]])
    gen_in = generators.fit(toy_spec(), training, target_hint=(3,))
    gen_out = generators.fit(toy_spec(), training, target_hint=(4,))
    assert gen_in.toy_member is True
    assert gen_out.toy_member is False


def test_fit_toy_accepts_empty_training():
    schema = ordered_schema(5)
    empty = data.Dataset(schema, [])
    gen = generators.fit(toy_spec(), empty, target_hint=(1,))
    assert gen.toy_member is False


def test_fit_toy_requires_hint():
    schema = ordered_schema(5)
    with pytest.raises(FitError):
        generators.fit(toy_spec(), data.Dataset(schema, [[1]]))


def test_fit_rejects_empty_training_for_real_generators():
    schema = ordered_schema(3)
    empty = data.Dataset(schema, [])
    with pytest.raises(FitError):
        generators.fit(generators.GeneratorSpec(generators.INDEPENDENT), empty)


def test_fit_independent_has_no_parents():
    ds = data.Dataset(ordered_schema(3, 3), [[0, 1], [1, 2], [2, 0]])
    gen = generators.fit(generators.GeneratorSpec(generators.INDEPENDENT), ds)
    assert all(p == () for p in gen.structure.parents)


def test_fit_deterministic():
    g = rng(31)
    schema = ordered_schema(3, 2, 4)
    vals = np.column_stack([g.integers(0, s, size=30) for s in schema.sizes])
    ds = data.Dataset(schema, vals)
    spec = generators.GeneratorSpec(generators.PRIVBAYNET, max_parents=1, epsilon=2.0)
    g1 = generators.fit(spec, ds, seed=12)
    g2 = generators.fit(spec, ds, seed=12)
    assert g1.structure == g2.structure
    for a, b in zip(g1.tables, g2.tables):
        assert np.array_equal(a.probs, b.probs)


# ----------------------------------------------------------------- sample


def test_sample_toy_refuses_records():
    schema = ordered_schema(4)
    gen = generators.fit(toy_spec(), data.Dataset(schema, [[0]]), target_hint=(0,))
    with pytest.raises(UnsupportedOperationError):
        generators.sample(gen, 3, seed=1)
    empty = generators.sample(gen, 0, seed=1)
    assert empty.n == 0


def test_sample_point_mass_training():
    schema = ordered_schema(4, 3)
    ds = data.Dataset(schema, [[2, 1]] * 6)
    spec = generators.GeneratorSpec(generators.INDEPENDENT, smoothing=0.0)
    gen = generators.fit(spec, ds)
    out = generators.sample(gen, 25, seed=8)
    assert out.records() == [(2, 1)] * 25


def test_sample_preserves_deterministic_column_copy():
    g = rng(52)
    a = g.integers(0, 4, size=300)
    ds = data.Dataset(ordered_schema(4, 4), np.column_stack([a, a]))
    spec = generators.GeneratorSpec(generators.BAYNET, max_parents=1, smoothing=0.0)
    gen = generators.fit(spec, ds, seed=4)
    out = generators.sample(gen, 400, seed=5)
    agree = (out.values[:, 0] == out.values[:, 1]).mean()
    assert agree >= 0.99


def test_sample_marginal_frequencies_converge():
    ds = data.Dataset(ordered_schema(2), [[0]] * 30 + [[1]] * 10)
    spec = generators.GeneratorSpec(generators.INDEPENDENT, smoothing=0.0)
    gen = generators.fit(spec, ds)
    out = generators.sample(gen, 20000, seed=3)
    frac = out.values[:, 0].mean()
    assert abs(frac - 0.25) < 0.01


def test_sample_deterministic_and_in_domain():
    g = rng(66)
    schema = ordered_schema(3, 5, 2)
    vals = np.column_stack([g.integers(0, s, size=50) for s in schema.sizes])
    ds = data.Dataset(schema, vals)
    spec = generators.GeneratorSpec(generators.BAYNET, max_parents=2)
    gen = generators.fit(spec, ds, seed=1)
    s1 = generators.sample(gen, 100, seed=9)
    s2 = generators.sample(gen, 100, seed=9)
    assert s1 == s2
    for j, size in enumerate(schema.sizes):
        assert s1.values[:, j].min() >= 0
        assert s1.values[:, j].max() < size


def test_sample_zero_is_empty():
    ds = data.Dataset(ordered_schema(3), [[0], [1]])
    gen = generators.fit(generators.GeneratorSpec(generators.INDEPENDENT), ds)
    assert generators.sample(gen, 0, seed=1).n == 0


def test_single_network_entry_points_take_any_rng_seed():
    # A batch of one opens its stream with rng, so it takes every seed rng
    # takes, 2**64 and above included, and draws rng's stream.
    big = 2**64 + 12345
    g = rng(67)
    schema = ordered_schema(3, 4, 2)
    vals = np.column_stack([g.integers(0, s, size=40) for s in schema.sizes])
    ds = data.Dataset(schema, vals)
    assert generators.learn_structure(ds, 2, big) == reference_learn_structure(ds, 2, big)
    spec = generators.GeneratorSpec(generators.PRIVBAYNET, max_parents=2, epsilon=1.0)
    gen = generators.fit(spec, ds, seed=big)
    ref = reference_fit(spec, ds, seed=big)
    expected = reference_sample(ref, 30, big).values
    assert generators.sample(gen, 30, big).values.tobytes() == expected.tobytes()
    toy = generators.fit(toy_spec(0.5, 0.5), ds, target_hint=tuple(vals[0]))
    assert generators.release_bit(toy, big) == int(rng(big).random() < 0.5)


# ------------------------------------------------------------ release_bit


def test_release_bit_only_for_toy():
    ds = data.Dataset(ordered_schema(3), [[0], [1]])
    gen = generators.fit(generators.GeneratorSpec(generators.INDEPENDENT), ds)
    with pytest.raises(UnsupportedOperationError):
        generators.release_bit(gen, seed=0)


def test_release_bit_frequencies():
    schema = ordered_schema(4)
    training = data.Dataset(schema, [[1]])
    gen_in = generators.fit(toy_spec(0.8, 0.2), training, target_hint=(1,))
    gen_out = generators.fit(toy_spec(0.8, 0.2), training, target_hint=(2,))
    n = 100000
    in_mean = np.mean([generators.release_bit(gen_in, seed=s) for s in range(n)])
    out_mean = np.mean(
        [generators.release_bit(gen_out, seed=s) for s in range(n, 2 * n)]
    )
    assert abs(in_mean - 0.8) < 0.005
    assert abs(out_mean - 0.2) < 0.005


def test_release_bit_identity_when_probabilities_match():
    # p_in == p_out: membership must leave no statistical trace.
    schema = ordered_schema(4)
    training = data.Dataset(schema, [[1]])
    gen_in = generators.fit(toy_spec(0.3, 0.3), training, target_hint=(1,))
    gen_out = generators.fit(toy_spec(0.3, 0.3), training, target_hint=(2,))
    n = 10000
    in_mean = np.mean([generators.release_bit(gen_in, seed=s) for s in range(n)])
    out_mean = np.mean(
        [generators.release_bit(gen_out, seed=s) for s in range(n, 2 * n)]
    )
    se = np.sqrt(0.3 * 0.7 * 2 / n)
    assert abs(in_mean - out_mean) < 3 * se
