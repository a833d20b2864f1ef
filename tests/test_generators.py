
import re
import weakref
from dataclasses import replace

import numpy as np
import pytest

from privgames import data, generators
from privgames.errors import DomainError, FitError, UnsupportedOperationError
from privgames.seeds import Streams, derive, derive_many

from brute import brute_mi
from reference import (
    ReferenceGenerator,
    reference_estimate_tables,
    reference_fit,
    reference_learn_structure,
    reference_mutual_information,
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


def padded(parent_lists, depth):
    """Per-network lists of parent tuples as a ``(B, d, depth)`` array
    padded with -1, the layout of ``learn_structure``'s result."""
    out = np.full((len(parent_lists), len(parent_lists[0]), depth), -1, dtype=np.int64)
    for b, net in enumerate(parent_lists):
        for c, ps in enumerate(net):
            out[b, c, : len(ps)] = ps
    return out


# The cell counts each table batch's ``set_counts`` normalized: the arrays
# ``estimate_tables`` and ``privatize_tables`` returned.  A batch keeps
# only its probabilities, normalized in place of the counts, so the tests
# record a copy of the counts on the way in.
SET_COUNTS = weakref.WeakKeyDictionary()


@pytest.fixture(autouse=True)
def record_set_counts(monkeypatch):
    real = generators._TableBatch.set_counts

    def set_counts(batch, counts, overflow):
        SET_COUNTS[batch] = counts.copy()
        real(batch, counts, overflow)

    monkeypatch.setattr(generators._TableBatch, "set_counts", set_counts)


def flat_cells(batch, field):
    """The batch's flat ``counts`` (as ``set_counts`` got them) or ``probs``."""
    return SET_COUNTS[batch] if field == "counts" else getattr(batch, field)


def table_batch(training, parents, smoothing, order=None):
    """A ``_TableBatch`` of one network with the given parent tuples,
    its counts from ``estimate_tables`` over ``training`` and normalized."""
    d = training.schema.ncols
    orders = np.array([order or range(d)], dtype=np.int64)
    batch = generators._TableBatch(
        training.schema, orders, padded([parents], max(map(len, parents), default=0))
    )
    batch.set_counts(generators.estimate_tables(batch, training.values[None], smoothing), "")
    return batch


def privatized(batch, epsilon, seed):
    """``privatize_tables`` of a one-network batch, table c drawing from
    ``derive(seed, "privatize-col", c)``, as a new normalized batch."""
    streams = Streams(derive_many(seed, "privatize-col", np.arange(batch.d)))
    noised = generators._TableBatch(batch.schema, batch.orders, batch.parents)
    counts = generators.privatize_tables(batch, SET_COUNTS[batch], epsilon, streams)
    noised.set_counts(counts, "")
    return noised


def tables(batch, b=0, field="probs"):
    """Network b's tables, column by column, as ``(rows, arity)`` views of
    the batch's flat ``counts`` or ``probs``."""
    flat = flat_cells(batch, field)
    return [
        flat[batch.cell_start[t] : batch.cell_start[t + 1]].reshape(-1, batch.arity[t])
        for t in range(b * batch.d, (b + 1) * batch.d)
    ]


def assert_same_tables(batch, b, reference_tables):
    """Network b's slice ``cell_start[b * d] : cell_start[(b + 1) * d]``
    of the batch's ``counts`` and ``probs`` equals the reference tables,
    raveled in column order, bit for bit."""
    lo, hi = batch.cell_start[b * batch.d], batch.cell_start[(b + 1) * batch.d]
    for field in ("counts", "probs"):
        want = np.concatenate([getattr(cpt, field).ravel() for cpt in reference_tables])
        assert flat_cells(batch, field)[lo:hi].tobytes() == want.tobytes()


def networks(chunks):
    """Every network of ``fit_batch``'s chunks, in order, as its chunk and
    its index there."""
    return [(batch, b) for batch in chunks for b in range(len(batch))]


def assert_same_network(batch, b, ref):
    """The arrays of network b of a fitted batch equal a reference fit:
    its visit order, its parents padded with -1, and its cells."""
    assert batch.orders[b].tolist() == list(ref.structure.order)
    want = padded([ref.structure.parents], batch.parents.shape[2])[0]
    assert np.array_equal(batch.parents[b], want)
    assert_same_tables(batch, b, ref.tables)


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
    g = np.random.default_rng(101)
    for trial in range(30):
        a_size = int(g.integers(2, 6))
        b_size = int(g.integers(2, 6))
        n = int(g.integers(20, 200))
        a = g.integers(0, a_size, size=n)
        b = g.integers(0, b_size, size=n)
        mi = reference_mutual_information(a, b, a_size, b_size)
        assert abs(mi - brute_mi(a.tolist(), b.tolist())) < 1e-12


def test_mutual_information_of_copy_is_entropy():
    a = np.array([0, 0, 1, 2])
    mi = reference_mutual_information(a, a, 3, 3)
    expected = -(0.5 * np.log(0.5) + 0.25 * np.log(0.25) * 2)
    assert abs(mi - expected) < 1e-12


# ------------------------------------------------------------- structure


def test_learn_structure_zero_parent_budget():
    values = np.array([[[0, 1, 2], [1, 2, 0], [2, 0, 1]]])
    parents = generators.learn_structure(values, (3, 3, 3), 0, np.array([[2, 0, 1]]), 0.0)
    assert parents.shape == (1, 3, 0)


def test_learn_structure_is_topological():
    g = np.random.default_rng(77)
    schema = ordered_schema(3, 2, 4, 2, 3)
    values = np.stack([
        np.column_stack([g.integers(0, s, size=60) for s in schema.sizes]) for _ in range(20)
    ])
    orders = np.stack([g.permutation(5) for _ in range(20)])
    parents = generators.learn_structure(values, schema.sizes, 2, orders, 0.0)
    assert parents.shape == (20, 5, 2)
    for order, net in zip(orders.tolist(), parents.tolist()):
        for col, ps in enumerate(net):
            used = [p for p in ps if p >= 0]
            assert ps == used + [-1] * (2 - len(used))
            assert all(order.index(p) < order.index(col) for p in used)


def test_learn_structure_picks_the_copied_column():
    # Two identical columns: whichever is visited second adopts the first.
    g = np.random.default_rng(3)
    a = g.integers(0, 4, size=200)
    values = np.stack([np.column_stack([a, a])] * 2)
    parents = generators.learn_structure(values, (4, 4), 1, np.array([[0, 1], [1, 0]]), 0.0)
    assert parents[:, :, 0].tolist() == [[-1, 0], [1, -1]]


def test_mi_floor_blocks_weak_parents():
    # Independent columns: with a floor above sampling noise nothing links.
    g = np.random.default_rng(15)
    vals = np.column_stack([g.integers(0, 3, size=4000) for _ in range(3)])
    parents = generators.learn_structure(vals[None], (3, 3, 3), 2, np.array([[1, 0, 2]]), 0.05)
    assert (parents == -1).all()


# ---------------------------------------------------------------- tables


def test_marginal_estimate_without_smoothing():
    ds = data.Dataset(ordered_schema(2), [[0], [0], [1], [1]])
    batch = table_batch(ds, [()], smoothing=0.0)
    assert batch.probs.tolist() == [0.5, 0.5]


def test_smoothing_shifts_counts():
    ds = data.Dataset(ordered_schema(2), [[0], [0], [0], [1]])
    batch = table_batch(ds, [()], smoothing=1.0)
    assert SET_COUNTS[batch].tolist() == [4.0, 2.0]
    assert batch.probs.tolist() == [4 / 6, 2 / 6]
    assert not hasattr(batch, "counts")  # a fitted batch keeps only its probabilities


def test_unseen_parent_combo_falls_back_to_uniform():
    schema = ordered_schema(2, 3)
    ds = data.Dataset(schema, [[0, 0], [0, 2], [0, 0]])  # parent value 1 unseen
    batch = table_batch(ds, [(), (0,)], smoothing=0.0)
    row = tables(batch)[1][1]
    assert np.allclose(row, [1 / 3, 1 / 3, 1 / 3])


def test_rows_always_normalize():
    g = np.random.default_rng(44)
    schema = ordered_schema(3, 4, 2)
    for trial in range(15):
        vals = np.column_stack([g.integers(0, s, size=40) for s in schema.sizes])
        ds = data.Dataset(schema, vals)
        spec = generators.GeneratorSpec(
            generators.BAYNET, max_parents=2, smoothing=float(trial % 3)
        )
        gen = generators.fit(spec, ds, seed=trial)
        for probs in tables(gen):
            assert np.all(np.abs(probs.sum(axis=1) - 1.0) <= 1e-9)
            assert np.all(probs >= 0)


# -------------------------------------------------------------- privatize


def test_privatize_with_huge_budget_is_nearly_exact():
    g = np.random.default_rng(21)
    schema = ordered_schema(3, 3, 2)
    vals = np.column_stack([g.integers(0, s, size=50) for s in schema.sizes])
    ds = data.Dataset(schema, vals)
    batch = table_batch(ds, [(), (0,), (1,)], smoothing=1.0, order=(0, 1, 2))
    noised = privatized(batch, epsilon=1e9, seed=6)
    assert np.max(np.abs(batch.probs - noised.probs)) <= 1e-3


def test_privatize_perturbs_at_small_budget():
    ds = data.Dataset(ordered_schema(4), [[i % 4] for i in range(40)])
    batch = table_batch(ds, [()], smoothing=1.0)
    noised = privatized(batch, epsilon=0.5, seed=3)
    assert np.max(np.abs(batch.probs - noised.probs)) > 1e-3


def test_privatize_deterministic_in_seed():
    ds = data.Dataset(ordered_schema(4), [[i % 4] for i in range(12)])
    batch = table_batch(ds, [()], smoothing=1.0)
    a = privatized(batch, epsilon=1.0, seed=9)
    b = privatized(batch, epsilon=1.0, seed=9)
    c = privatized(batch, epsilon=1.0, seed=10)
    assert np.array_equal(a.probs, b.probs)
    assert not np.array_equal(a.probs, c.probs)


def test_privatize_all_zero_row_becomes_uniform():
    # Parent value 1 never occurs, so its row has zero counts; find a
    # seed whose noise draws are all non-positive there and check the
    # clamped row normalizes to uniform.
    schema = ordered_schema(2, 3)
    ds = data.Dataset(schema, [[0, 0], [0, 1], [0, 2]])
    batch = table_batch(ds, [(), (0,)], smoothing=0.0)
    assert tables(batch, field="counts")[1][1].tolist() == [0.0, 0.0, 0.0]
    for seed in range(200):
        noised = privatized(batch, epsilon=1.0, seed=seed)
        if np.all(tables(noised, field="counts")[1][1] == 0.0):
            assert np.allclose(tables(noised)[1][1], [1 / 3, 1 / 3, 1 / 3])
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
    g = np.random.default_rng(seed)
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


@pytest.mark.parametrize("seed", range(24))
def test_one_pass_mi_matches_mutual_information_bitwise(seed):
    # Structure equality only notices MI differences at near-ties, so
    # check every ordered pair's value bit for bit as well.
    ds = random_training(seed)
    sizes = ds.schema.sizes
    plan = generators._pair_plan(sizes)
    reads = np.ones(len(plan.a_cols), dtype=bool)
    terms, bounds = generators._pair_information(ds.values, plan, reads)
    for p, (a, b) in enumerate(zip(plan.a_cols.tolist(), plan.b_cols.tolist())):
        fast = float(np.add.reduce(terms[bounds[p] : bounds[p + 1]]))
        slow = reference_mutual_information(
            ds.values[:, a], ds.values[:, b], sizes[a], sizes[b]
        )
        assert np.float64(fast).tobytes() == np.float64(slow).tobytes(), (a, b)


@pytest.mark.parametrize("seed", range(24))
def test_one_pass_fit_matches_reference(seed):
    ds = random_training(seed)
    d = ds.schema.ncols
    for max_parents in (1, 2, 3):
        for mi_floor in (0.0, 0.01):
            structure_seed = derive(seed, "structure", 10 * max_parents + int(mi_floor > 0))
            orders = np.random.default_rng(structure_seed).permutation(d)[None]
            parents = generators.learn_structure(
                ds.values[None], ds.schema.sizes, max_parents, orders, mi_floor
            )
            st = reference_learn_structure(ds, max_parents, structure_seed, mi_floor)
            assert orders[0].tolist() == list(st.order)
            assert np.array_equal(parents, padded([st.parents], parents.shape[2]))
        for smoothing in (0.0, 0.3, 1.0):
            batch = table_batch(ds, st.parents, smoothing, st.order)
            ref_tables = reference_estimate_tables(ds, st, smoothing)
            assert_same_tables(batch, 0, ref_tables)
        noised = privatized(batch, 1.0, seed)
        assert_same_tables(noised, 0, reference_privatize_tables(ref_tables, 1.0, seed))


@pytest.mark.parametrize("kind", [generators.BAYNET, generators.PRIVBAYNET])
def test_one_pass_fit_matches_reference_through_fit(kind):
    for seed in range(8):
        ds = random_training(100 + seed)
        spec = generators.GeneratorSpec(
            kind, max_parents=2, epsilon=0.5, smoothing=0.1, mi_floor=0.001
        )
        gen = generators.fit(spec, ds, seed=seed)
        st = reference_learn_structure(ds, 2, derive(seed, "structure"), 0.001)
        ref_tables = reference_estimate_tables(ds, st, 0.1)
        if kind == generators.PRIVBAYNET:
            ref_tables = reference_privatize_tables(ref_tables, 0.5, derive(seed, "privatize"))
        assert_same_network(gen, 0, ReferenceGenerator(spec, ds.schema, st, ref_tables))


def test_normalize_rows_zero_rows_fall_back_to_uniform():
    # set_counts normalizes every table as reference_normalize_rows does:
    # a zero-total row of arity 3 and one of arity 9 fall back to uniform,
    # and a 9-cell row's total is numpy's pairwise sum, not a left-to-right
    # one (the two differ on the 1e16 row).
    schema = ordered_schema(2, 3, 9)
    batch = generators._TableBatch(schema, np.array([[0, 1, 2]]), padded([[(), (0,), (0,)]], 1))
    big = [1e16] + [1.0] * 7 + [3.0]
    per_table = [
        np.array([[2.0, 5.0]]),
        np.array([[1.0, 2.0, 0.5], [0.0, 0.0, 0.0]]),
        np.array([[0.0] * 9, big]),
    ]
    assert np.add.reduce(big) != sum(big)
    batch.set_counts(np.concatenate([t.ravel() for t in per_table]), "")
    for probs, counts in zip(tables(batch), per_table):
        assert probs.tobytes() == reference_normalize_rows(counts, counts.shape[1]).tobytes()
    assert tables(batch)[1][1].tolist() == [1 / 3] * 3
    assert tables(batch)[2][0].tolist() == [1 / 9] * 9


def test_segment_sums_equal_add_reduce_of_each_segment(monkeypatch):
    # Lengths 0-19 on both sides of _PAIRWISE, three segments each, and
    # lone segments of 20-27, laid out in shuffled order so the starts
    # are unsorted.  Segment i is the first column of the C-order
    # (lengths[i], step) block at starts[i], and numpy sums it as that
    # block's sum(axis=0) does: pairwise only when the step is 1.  With
    # nets the cells are (C, nets), and each network's column is summed
    # as a (C,) array alone.  Cancelling 1e16 terms make every summation
    # order give its own bits.  On a budget of 20 cells the groups are
    # cut into pieces of at most 20 cells or one segment, a lone
    # left-to-right one among them, with the same sums.
    for batch_elements in (generators.BATCH_ELEMENTS, 20):
        monkeypatch.setattr(generators, "BATCH_ELEMENTS", batch_elements)
        for step in (1, 3):
            for nets in (None, 1, 4):
                check_segment_sums(step, nets)


def check_segment_sums(step, nets):
    g = np.random.default_rng(7)
    lengths = np.concatenate([np.repeat(np.arange(20), 3), np.arange(20, 28)])
    g.shuffle(lengths)
    placed = g.permutation(len(lengths))
    span = lengths * step
    starts = np.empty_like(lengths)
    starts[placed] = np.concatenate([[0], np.cumsum(span[placed])[:-1]])
    pattern = np.array([1e16, 1.0, -1e16, 1.0, 3.0, -1e16, 1e16, 0.5, 7.0, -2.5, 1e16])
    shape = (span.sum(),) if nets is None else (span.sum(), nets)
    cells = np.resize(pattern, shape) * g.uniform(0.5, 2.0, shape)
    groups = list(generators._segment_groups(starts, lengths, step))
    assert all(gather.size <= generators.BATCH_ELEMENTS or len(set(sel)) == 1
               for sel, gather, _ in groups)
    sums = generators._segment_sums(cells, groups, len(lengths))
    columns = [cells] if nets is None else list(np.ascontiguousarray(cells.T))
    want = [
        [col[s : s + n * step].reshape(n, step).sum(axis=0)[0] for col in columns]
        for s, n in zip(starts.tolist(), lengths.tolist())
    ]
    assert sums.shape == (len(lengths), *shape[1:])
    assert sums.tobytes() == np.array(want).reshape(sums.shape).tobytes(), (step, nets)
    assert sums[lengths == 0].ravel().tolist() == [0.0] * 3 * len(columns)
    empty = generators._segment_groups(starts[:0], lengths[:0])
    assert generators._segment_sums(cells, empty, 0).shape == (0, *shape[1:])


@pytest.mark.parametrize("shape", [(9, 3), (3, 9), (9, 1), (1, 9), (12, 12)])
def test_pair_plan_marginals_equal_joint_sums(shape):
    # A plan's marginals are joint.sum(axis=1) then joint.sum(axis=0) of
    # each block, bit for bit, for every network of a (C, B) batch: rows
    # of 9 and 12 cells are summed pairwise, columns of 9 and 12 cells
    # left to right, unless the column is a block's lone contiguous one.
    sa, sb = shape
    plan = generators._pair_plan(shape)
    g = np.random.default_rng(sa * 100 + sb)
    pattern = np.array([1e16, 1.0, -1e16, 1.0, 3.0, -1e16, 1e16, 0.5, 7.0, -2.5, 1e16])
    cells = np.resize(pattern, (plan.ncells, 3)) * g.uniform(0.5, 2.0, (plan.ncells, 3))
    marg = generators._segment_sums(cells, plan.marg_groups, plan.nmarg)
    for p, (a, b) in enumerate(zip(plan.a_cols.tolist(), plan.b_cols.tolist())):
        first = plan.cell_row[plan.bounds[p]]  # the slot of the block's first row sum
        for net in range(3):
            block = np.ascontiguousarray(cells[plan.bounds[p] : plan.bounds[p + 1], net])
            joint = block.reshape(shape[a], shape[b])  # as reference_mutual_information builds it
            want = np.concatenate([joint.sum(axis=1), joint.sum(axis=0)])
            got = marg[first : first + shape[a] + shape[b], net]
            assert got.tobytes() == want.tobytes(), (p, net)


# ------------------------------------------------ batched vs per-network
#
# fit_batch and sample_columns run each stage once over a whole batch of
# networks; every network must get the bits of reference_fit and
# reference_sample, whatever the batch size and wherever the element
# budget cuts the batch into chunks.


def random_batch(seed, count):
    """``count`` training datasets over the schema of random_training(seed):
    bootstrap resamples of its rows with one column redrawn, so
    duplicated columns mostly stay duplicated."""
    base = random_training(seed)
    g = np.random.default_rng(derive(seed, "batch"))
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
    # Sampling a chunk drops its probabilities once it has built their
    # cumulative table, so every network is compared before it is sampled.
    chunks = list(generators.fit_batch(spec, trainings[0].schema, stack(trainings), seeds))
    refs = [reference_fit(spec, t, seed=seed) for t, seed in zip(trainings, seeds)]
    for (batch, b), ref in zip(networks(chunks), refs):
        assert_same_network(batch, b, ref)
    syn_seeds = [derive(s, "sample") for s in seeds]
    ends = np.cumsum([len(batch) for batch in chunks]).tolist()
    cols = np.concatenate([
        generators.sample_columns(batch, n_syn, syn_seeds[end - len(batch) : end])
        for batch, end in zip(chunks, ends)
    ])
    assert cols.shape == (len(trainings), trainings[0].schema.ncols, n_syn)
    assert cols.dtype == (np.uint8 if max(trainings[0].schema.sizes) <= 256 else np.uint16)
    for ref, syn_seed, syn in zip(refs, syn_seeds, cols):
        expected = reference_sample(ref, n_syn, syn_seed)
        assert syn.T.astype(np.int64).tobytes() == expected.values.tobytes()


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
    reads = np.ones((count, len(plan.a_cols)), dtype=bool)
    terms, bounds = generators._pair_information(values, plan, reads)
    groups = generators._segment_groups(bounds[:, :-1].ravel(), np.diff(bounds).ravel())
    mi = generators._segment_sums(terms, groups, reads.size).reshape(count, -1)
    for b, training in enumerate(trainings):
        for p, (a, c) in enumerate(zip(plan.a_cols.tolist(), plan.b_cols.tolist())):
            slow = reference_mutual_information(
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


@pytest.mark.parametrize("batch_elements", [generators.BATCH_ELEMENTS, 700])
@pytest.mark.parametrize("spec", [SPECS[0], SPECS[6], SPECS[9]])
def test_training_set_dtype_does_not_change_fits(monkeypatch, spec, batch_elements):
    # The games build training sets in the schema's narrow dtype; the fit
    # stages promote them to int64 codes.  The same sets as uint8, uint16
    # and int64 give the same chunks, parents, tables and samples, bit
    # for bit.
    monkeypatch.setattr(generators, "BATCH_ELEMENTS", batch_elements)
    trainings = random_batch(13, 9)
    schema = trainings[0].schema
    assert schema.dtype == np.uint8
    seeds = [derive(13, "dtype", i) for i in range(9)]
    fits = {}
    for dtype in (np.uint8, np.uint16, np.int64):
        values = stack(trainings).astype(dtype)
        chunks = list(generators.fit_batch(spec, schema, values, seeds))
        assert len(chunks) > 1 or batch_elements != 700
        # Read before sampling, which drops a chunk's probabilities.
        fits[dtype] = [[b.parents.tobytes(), b.probs.tobytes()] for b in chunks]
        for fit, chunk in zip(fits[dtype], chunks):
            sampled = generators.sample_columns(chunk, 31, seeds[: len(chunk)])
            fit += [chunk.cumulative().tobytes(), sampled.tobytes()]
    assert fits[np.uint8] == fits[np.uint16] == fits[np.int64]


def edge_batch(family, count=5, n=40):
    """``count`` training sets over a schema that stresses one edge of
    the structure and sampling stages."""
    g = np.random.default_rng(derive(77, family))
    sizes = {
        "wide": (300, 3, 2),  # more than 255 levels: hit counts need uint16
        "one_level": (1, 1, 1),
        "d1": (4,),
        "d2": (3, 5),
        "duplicated": (3, 4, 3, 3),
    }[family]
    vals = np.stack([
        np.column_stack([g.integers(0, s, size=n) for s in sizes]) for _ in range(count)
    ])
    if family == "duplicated":
        # Columns 2 and 3 copy column 0, so their MI with any column ties
        # exactly, and the lower index must win.
        vals[:, :, 2] = vals[:, :, 3] = vals[:, :, 0]
    schema = ordered_schema(*sizes)
    return [data.Dataset(schema, v) for v in vals]


EDGE_SPECS = (
    generators.GeneratorSpec(generators.BAYNET, max_parents=0),
    generators.GeneratorSpec(generators.BAYNET, max_parents=1, smoothing=0.0),
    generators.GeneratorSpec(generators.BAYNET, max_parents=6),
    generators.GeneratorSpec(generators.BAYNET, max_parents=2, mi_floor=1e9),
    generators.GeneratorSpec(generators.PRIVBAYNET, max_parents=2, epsilon=0.5),
)


# 2^15, the former default budget, samples the wide family's networks
# one per chunk; the default samples them three and two per chunk.
@pytest.mark.parametrize("batch_elements", [generators.BATCH_ELEMENTS, 1 << 15, 1, 700])
@pytest.mark.parametrize("family", ["wide", "one_level", "d1", "d2", "duplicated"])
def test_structure_and_sampling_edges_match_reference(monkeypatch, family, batch_elements):
    # Only the pairs each visit order reads are scored, parents are
    # ranked by one stable argsort, and sampling skips the last
    # cumulative level and counts hits in the narrowest dtype; each
    # network must still get the reference's bits.
    monkeypatch.setattr(generators, "BATCH_ELEMENTS", batch_elements)
    trainings = edge_batch(family)
    for k, spec in enumerate(EDGE_SPECS):
        seeds = [derive(k, family, i) for i in range(len(trainings))]
        assert_matches_reference(spec, trainings, seeds, n_syn=60)
        if spec.mi_floor > 0 or spec.max_parents == 0:
            chunks = generators.fit_batch(spec, trainings[0].schema, stack(trainings), seeds)
            assert all((batch.parents == -1).all() for batch in chunks)


def test_duplicated_columns_tie_to_the_lower_index():
    (training,) = edge_batch("duplicated", count=1)
    spec = generators.GeneratorSpec(generators.BAYNET, max_parents=1)
    picked = set()
    for seed in range(40):
        batch = generators.fit(spec, training, seed=seed)
        order = batch.orders[0].tolist()
        # Column 1's candidates 0, 2 and 3 are one column three times.
        if order.index(1) > max(order.index(0), order.index(2)):
            picked.add(int(batch.parents[0, 1, 0]))
    assert picked == {0}


def test_wide_column_samples_levels_past_255():
    (training,) = edge_batch("wide", count=1, n=400)
    gen = generators.fit(generators.GeneratorSpec(generators.INDEPENDENT), training, seed=3)
    assert gen.cumulative().shape[0] == 299
    out = generators.sample(gen, 500, seed=4)
    assert out.values[:, 0].max() > 255
    cols = generators.sample_columns(gen, 500, [4])
    assert cols.dtype == np.uint16
    assert cols[0].T.tobytes() == out.values.astype(np.uint16).tobytes()


@pytest.mark.parametrize(
    "widest, dtype", [(1, np.uint8), (2, np.uint8), (256, np.uint8), (257, np.uint16)]
)
def test_sample_columns_use_the_narrowest_dtype_of_the_widest_level(widest, dtype):
    g = np.random.default_rng(widest)
    schema = ordered_schema(widest, 3)
    values = np.column_stack([np.arange(600) % widest, g.integers(0, 3, 600)])
    training = data.Dataset(schema, values)
    gen = generators.fit(generators.GeneratorSpec(generators.INDEPENDENT), training, seed=1)
    cols = generators.sample_columns(gen, 2000, [5])
    assert cols.dtype == dtype
    assert cols.shape == (1, 2, 2000)
    assert cols[0, 0].max() == widest - 1
    assert np.array_equal(cols[0].T, generators.sample(gen, 2000, 5).values)


@pytest.mark.parametrize(
    "spec", [generators.GeneratorSpec(generators.INDEPENDENT), *EDGE_SPECS[:3], EDGE_SPECS[4]]
)
def test_fit_batch_of_no_training_sets_is_empty(spec):
    schema = ordered_schema(3, 4, 2)
    empty = np.zeros((0, 5, 3), dtype=np.int64)
    assert list(generators.fit_batch(spec, schema, empty, [])) == []
    no_orders = np.zeros((0, 3), dtype=np.int64)
    parents = generators.learn_structure(empty, schema.sizes, spec.max_parents, no_orders, 0.0)
    assert parents.shape == (0, 3, min(spec.max_parents, 2))


def test_sample_batch_of_zero_rows_is_empty_stack():
    schema = ordered_schema(3, 4)
    trainings = np.array([[[0, 1], [2, 3]], [[1, 1], [0, 0]]])
    for count in (1, 2):
        (batch,) = generators.fit_batch(SPECS[2], schema, trainings[:count], [3, 4][:count])
        got = generators.sample_columns(batch, 0, list(range(count)))
        assert got.shape == (count, 2, 0)
        assert got.dtype == np.uint8
    gen = generators.fit(SPECS[2], data.Dataset(schema, trainings[0]))
    empty = generators.sample(gen, 0, seed=1)
    assert empty.n == 0 and empty.schema == schema


def test_sample_columns_samples_one_table_chunk_with_one_seed_per_network():
    # A table chunk keeps its schema and its network count, and sampling
    # takes one seed per network of it.
    trainings = random_batch(9, 3)
    schema = trainings[0].schema
    (batch,) = generators.fit_batch(SPECS[2], schema, stack(trainings), [1, 2, 3])
    assert len(batch) == 3 and batch.schema is schema
    for seeds in ([4, 5], [4, 5, 6, 7]):
        with pytest.raises(DomainError, match="one seed per network"):
            generators.sample_columns(batch, 5, seeds)
    with pytest.raises(DomainError, match="non-negative"):
        generators.sample_columns(batch, -1, [4, 5, 6])
    cols = generators.sample_columns(batch, 5, [4, 5, 6])
    assert cols.shape == (3, schema.ncols, 5) and cols.flags.c_contiguous


def test_sample_batch_clamps_like_reference_when_rows_sum_below_one():
    # Rows whose probabilities sum below 1 leave uniforms past the last
    # cumulative entry; both samplers must clamp those to the last level,
    # also in rows padded to a wider column's arity.
    trainings = random_batch(11, 3)
    (batch,) = generators.fit_batch(SPECS[4], trainings[0].schema, stack(trainings), [1, 2, 3])
    batch.probs *= 0.5
    syn = generators.sample_columns(batch, 200, [7, 8, 9])
    for training, fit_seed, got, s in zip(trainings, [1, 2, 3], syn, [7, 8, 9]):
        ref = reference_fit(SPECS[4], training, seed=fit_seed)
        halved = tuple(replace(cpt, probs=cpt.probs * 0.5) for cpt in ref.tables)
        ref = ReferenceGenerator(ref.spec, ref.schema, ref.structure, halved)
        assert got.T.astype(np.int64).tobytes() == reference_sample(ref, 200, s).values.tobytes()


def test_sample_columns_out_of_memory_is_a_fit_error(monkeypatch):
    # A sampling chunk that runs out of memory raises FitError naming the
    # table cells of its fit chunk and the widest arity, so a command
    # fails only the record it belongs to.
    trainings = random_batch(11, 3)
    (batch,) = generators.fit_batch(SPECS[4], trainings[0].schema, stack(trainings), [1, 2, 3])

    def out_of_memory(*args):
        raise MemoryError

    monkeypatch.setattr(generators._TableBatch, "sample", out_of_memory)
    cells = batch.cell_start[-1]
    widest = max(trainings[0].schema.sizes)
    with pytest.raises(FitError, match=rf"of {cells} table cells \(widest arity {widest}\)$"):
        generators.sample_columns(batch, 5, [4, 5, 6])


def test_structure_chunk_out_of_memory_is_a_fit_error(monkeypatch):
    # A structure chunk that runs out of memory raises FitError naming the
    # pair-table cells it counts and the widest arity, as table and
    # sampling chunks do.
    trainings = random_batch(11, 3)
    schema = trainings[0].schema

    def out_of_memory(*args):
        raise MemoryError

    monkeypatch.setattr(generators, "learn_structure", out_of_memory)
    cells = 3 * generators._pair_plan(schema.sizes).ncells
    widest = max(schema.sizes)
    with pytest.raises(FitError, match=rf"of {cells} pair-table cells \(widest arity {widest}\)$"):
        generators.fit_batch(SPECS[4], schema, stack(trainings), [1, 2, 3])


def test_only_the_last_schemas_pair_plan_stays_alive():
    # A wide schema's plan takes megabytes: a fit on a second schema drops
    # the first one's.
    first, second = random_batch(1, 2), random_batch(2, 2)
    assert first[0].schema.sizes != second[0].schema.sizes
    list(generators.fit_batch(SPECS[4], first[0].schema, stack(first), [1, 2]))
    misses = generators._pair_plan.cache_info().misses
    plan = weakref.ref(generators._pair_plan(first[0].schema.sizes))
    assert generators._pair_plan.cache_info().misses == misses  # the fit's own plan
    list(generators.fit_batch(SPECS[4], second[0].schema, stack(second), [3, 4]))
    assert plan() is None
    generators._pair_plan(second[0].schema.sizes)
    assert generators._pair_plan.cache_info().misses == misses + 1  # kept from the fit


def test_fit_batch_builds_generators_only_for_noise(monkeypatch):
    # Visit orders come from Streams.permutations: a baynet fit builds no
    # Generator, and a privbaynet fit builds one per table, each on the
    # noise stream of that table.
    trainings = random_batch(5, 7)
    schema = trainings[0].schema
    seeds = [derive(5, "fit", i) for i in range(7)]
    built = []
    getitem = Streams.__getitem__

    def spy(self, i):
        item = getitem(self, i)
        if isinstance(item, np.random.Generator):
            built.append(item.bit_generator.state)
        return item

    monkeypatch.setattr(Streams, "__getitem__", spy)
    baynet = generators.GeneratorSpec(generators.BAYNET, max_parents=2)
    list(generators.fit_batch(baynet, schema, stack(trainings), seeds))
    assert built == []
    private = generators.GeneratorSpec(generators.PRIVBAYNET, max_parents=2, epsilon=0.5)
    list(generators.fit_batch(private, schema, stack(trainings), seeds))
    noise_seeds = derive_many(derive_many(seeds, "privatize")[:, None], "privatize-col",
                              np.arange(schema.ncols))
    assert len(built) == 7 * schema.ncols
    assert built == [np.random.PCG64(int(s)).state for s in noise_seeds.ravel()]


def test_release_bits_needs_one_seed_per_generator():
    probs = generators.toy_fits(toy_spec(), [True, False, True])
    for seeds in ([5], [5, 6], [5, 6, 7, 8]):
        with pytest.raises(DomainError, match="release_bits needs one seed per generator"):
            generators.release_bits(probs, seeds)


def test_fit_batch_toy_membership_matches_contains():
    # A toy fit is made from membership flags; fit_batch takes no toy spec.
    schema = ordered_schema(5)
    trainings = [data.Dataset(schema, [[i % 5], [(i + 1) % 5]]) for i in range(9)]
    with pytest.raises(UnsupportedOperationError, match="toy_fits"):
        generators.fit_batch(toy_spec(), schema, stack(trainings), range(9))
    trainings.append(data.Dataset(schema, []))
    members = [data.contains(t, (3,)) for t in trainings]
    probs = generators.toy_fits(toy_spec(), members)
    assert probs.dtype == np.float64 and probs.shape == (10,)
    assert probs.tolist() == [0.8 if m else 0.2 for m in members]
    bits = generators.release_bits(probs, list(range(10)))
    assert bits.tolist() == [
        np.random.default_rng(s).random() < (0.8 if m else 0.2) for s, m in enumerate(members)
    ]


# -------------------------------------------------------------------- fit


def test_fit_toy_records_membership():
    schema = ordered_schema(5)
    training = data.Dataset(schema, [[0], [3]])
    p_in, p_out = generators.toy_fits(
        toy_spec(), [data.contains(training, x) for x in ((3,), (4,))]
    )
    assert (p_in, p_out) == (0.8, 0.2)
    flags = [True, False, 1, 0, 0, True, False, 1, 1, 0]
    for members in (flags, np.array(flags, dtype=np.int64)):
        probs = generators.toy_fits(toy_spec(), members)
        assert probs.dtype == np.float64
        assert probs.tolist() == [0.8 if f else 0.2 for f in flags]
    # Integer rates still give float64 probabilities.
    assert generators.toy_fits(toy_spec(1, 0), [1, 0]).dtype == np.float64
    assert generators.toy_fits(toy_spec(), []).dtype == np.float64


def test_fit_toy_accepts_empty_training():
    schema = ordered_schema(5)
    empty = data.Dataset(schema, [])
    (p,) = generators.toy_fits(toy_spec(), [data.contains(empty, (1,))])
    assert p == 0.2


def test_fit_toy_requires_hint():
    # fit sees only the training set, not the target, so a toy spec is
    # refused there and its fit is made by toy_fits from the flag.
    schema = ordered_schema(5)
    with pytest.raises(UnsupportedOperationError, match="toy_fits"):
        generators.fit(toy_spec(), data.Dataset(schema, [[1]]))


def test_fit_rejects_empty_training_for_real_generators():
    schema = ordered_schema(3)
    empty = data.Dataset(schema, [])
    with pytest.raises(FitError):
        generators.fit(generators.GeneratorSpec(generators.INDEPENDENT), empty)


@pytest.mark.parametrize("spec, setting", [
    # 2·d/epsilon overflows to inf, so the Laplace noise makes counts inf.
    (generators.GeneratorSpec(generators.PRIVBAYNET, epsilon=1e-320), "epsilon = 1e-320"),
    # Every cell is finite, but a row of three sums past the float range.
    (generators.GeneratorSpec(generators.BAYNET, smoothing=1e308), "smoothing = 1e+308"),
])
def test_fit_with_tables_out_of_float_range_raises(spec, setting):
    ds = data.Dataset(ordered_schema(3, 3), [[0, 1], [1, 2], [2, 0]])
    with pytest.raises(FitError, match=f"row's total is not finite: .*{re.escape(setting)}"):
        list(generators.fit_batch(spec, ds.schema, ds.values[None], [5]))


def test_fit_independent_has_no_parents():
    ds = data.Dataset(ordered_schema(3, 3), [[0, 1], [1, 2], [2, 0]])
    batch = generators.fit(generators.GeneratorSpec(generators.INDEPENDENT), ds)
    assert len(batch) == 1
    assert batch.orders[0].tolist() == [0, 1]
    assert batch.parents[0].shape == (2, 0)


def test_fit_deterministic():
    g = np.random.default_rng(31)
    schema = ordered_schema(3, 2, 4)
    vals = np.column_stack([g.integers(0, s, size=30) for s in schema.sizes])
    ds = data.Dataset(schema, vals)
    spec = generators.GeneratorSpec(generators.PRIVBAYNET, max_parents=1, epsilon=2.0)
    b1, b2 = (generators.fit(spec, ds, seed=12) for _ in range(2))
    assert np.array_equal(b1.orders, b2.orders)
    assert np.array_equal(b1.parents, b2.parents)
    assert np.array_equal(b1.probs, b2.probs)


# ----------------------------------------------------------------- sample


def test_sample_point_mass_training():
    schema = ordered_schema(4, 3)
    ds = data.Dataset(schema, [[2, 1]] * 6)
    spec = generators.GeneratorSpec(generators.INDEPENDENT, smoothing=0.0)
    gen = generators.fit(spec, ds)
    out = generators.sample(gen, 25, seed=8)
    assert out.records() == [(2, 1)] * 25


def test_sample_preserves_deterministic_column_copy():
    g = np.random.default_rng(52)
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
    g = np.random.default_rng(66)
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
    # A batch of one opens its stream as a Streams of one: every seed in
    # [0, 2**64) draws numpy's stream of it, and a wider seed raises.
    top, wide = 2**64 - 1, 2**64 + 12345
    g = np.random.default_rng(67)
    schema = ordered_schema(3, 4, 2)
    vals = np.column_stack([g.integers(0, s, size=40) for s in schema.sizes])
    ds = data.Dataset(schema, vals)
    spec = generators.GeneratorSpec(generators.PRIVBAYNET, max_parents=2, epsilon=1.0)
    gen = generators.fit(spec, ds, seed=top)
    ref = reference_fit(spec, ds, seed=top)
    assert_same_network(gen, 0, ref)
    expected = reference_sample(ref, 30, top).values
    assert generators.sample(gen, 30, top).values.tobytes() == expected.tobytes()
    (toy,) = generators.toy_fits(toy_spec(0.5, 0.5), [data.contains(ds, tuple(vals[0]))])
    assert generators.release_bit(toy, top) == int(np.random.default_rng(top).random() < 0.5)
    assert generators.release_bits([toy], [top]).tolist() == [generators.release_bit(toy, top)]
    for draw in (
        lambda: generators.sample(gen, 30, wide),
        lambda: generators.release_bit(toy, wide),
    ):
        with pytest.raises(DomainError):
            draw()


# ------------------------------------------------------------ release_bit


def test_release_bit_only_for_toy():
    # Only a toy fit has a release probability to draw a bit from.
    for spec in SPECS:
        with pytest.raises(UnsupportedOperationError, match="does not release a bit"):
            generators.toy_fits(spec, [True, False])


def test_release_bit_frequencies():
    schema = ordered_schema(4)
    training = data.Dataset(schema, [[1]])
    p_in, p_out = generators.toy_fits(
        toy_spec(0.8, 0.2), [data.contains(training, x) for x in ((1,), (2,))]
    )
    n = 100000
    in_mean = np.mean(generators.release_bits(np.full(n, p_in), np.arange(n, dtype=np.uint64)))
    out_mean = np.mean(
        generators.release_bits(np.full(n, p_out), np.arange(n, 2 * n, dtype=np.uint64))
    )
    assert abs(in_mean - 0.8) < 0.005
    assert abs(out_mean - 0.2) < 0.005


def test_release_bit_identity_when_probabilities_match():
    # p_in == p_out: membership must leave no statistical trace.
    schema = ordered_schema(4)
    training = data.Dataset(schema, [[1]])
    p_in, p_out = generators.toy_fits(
        toy_spec(0.3, 0.3), [data.contains(training, x) for x in ((1,), (2,))]
    )
    n = 10000
    in_mean = np.mean(generators.release_bits(np.full(n, p_in), np.arange(n, dtype=np.uint64)))
    out_mean = np.mean(
        generators.release_bits(np.full(n, p_out), np.arange(n, 2 * n, dtype=np.uint64))
    )
    se = np.sqrt(0.3 * 0.7 * 2 / n)
    assert abs(in_mean - out_mean) < 3 * se
