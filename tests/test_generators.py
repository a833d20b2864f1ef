
import numpy as np
import pytest

from privgames import data, generators
from privgames.errors import DomainError, FitError, UnsupportedOperationError
from privgames.seeds import derive, rng

from brute import brute_mi


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
# The fit path counts every column pair and every table in one pass.
# These are the per-pair / per-column definitions it replaced; the fast
# path must reproduce them bit for bit.


def reference_learn_structure(training, max_parents, seed, mi_floor=0.0):
    sizes = training.schema.sizes
    d = training.schema.ncols
    order = tuple(int(i) for i in rng(seed).permutation(d))
    parents = [None] * d
    visited = []
    for col in order:
        scored = []
        for cand in visited:
            mi = generators.mutual_information(
                training.values[:, col], training.values[:, cand], sizes[col], sizes[cand]
            )
            if mi < mi_floor:
                continue
            scored.append((mi, cand))
        scored.sort(key=lambda t: (-t[0], t[1]))
        parents[col] = tuple(c for _, c in scored[:max_parents])
        visited.append(col)
    return generators.Structure(order=order, parents=tuple(parents))


def reference_normalize_rows(counts, arity):
    totals = counts.sum(axis=1, keepdims=True)
    probs = np.empty_like(counts)
    zero = totals[:, 0] <= 0
    nz = ~zero
    probs[nz] = counts[nz] / totals[nz]
    probs[zero] = 1.0 / arity
    return probs


def reference_estimate_tables(training, structure, smoothing):
    sizes = training.schema.sizes
    tables = []
    for col in range(training.schema.ncols):
        parents = structure.parents[col]
        parent_sizes = tuple(sizes[p] for p in parents)
        n_combos = int(np.prod(parent_sizes)) if parents else 1
        arity = sizes[col]
        if parents:
            combo = np.ravel_multi_index(
                tuple(training.values[:, p] for p in parents), parent_sizes
            )
        else:
            combo = np.zeros(training.n, dtype=np.int64)
        flat = np.bincount(
            combo * arity + training.values[:, col], minlength=n_combos * arity
        ).astype(float)
        counts = flat.reshape(n_combos, arity) + smoothing
        probs = reference_normalize_rows(counts, arity)
        tables.append(generators.Cpt(parents, parent_sizes, counts, probs))
    return tuple(tables)


def reference_privatize_tables(tables, epsilon, seed):
    scale = (len(tables) * 2.0) / epsilon
    out = []
    for i, cpt in enumerate(tables):
        g = rng(derive(seed, "privatize-col", i))
        noisy = cpt.counts + g.laplace(0.0, scale, size=cpt.counts.shape)
        clamped = np.maximum(noisy, 0.0)
        arity = cpt.probs.shape[1]
        out.append(
            generators.Cpt(
                cpt.parents, cpt.parent_sizes, clamped,
                reference_normalize_rows(clamped, arity),
            )
        )
    return tuple(out)


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
