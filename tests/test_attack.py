import numpy as np
import pytest

from privgames import attack, data, generators
from privgames.errors import ConfigError, DomainError, SizeError, TrainingError
from privgames.seeds import rng
from reference import (
    reference_features,
    reference_meta_classifier_adversary,
    reference_sigmoid,
    reference_train_attack,
    reference_train_meta_classifier,
)


def schema_with_kinds(kinds, sizes):
    cols = []
    for i, (kind, size) in enumerate(zip(kinds, sizes)):
        labels = tuple(f"v{j}" for j in range(size)) if kind == data.CATEGORICAL else None
        cols.append(data.Column(f"c{i}", kind, size, labels))
    return data.Schema(tuple(cols))


# ------------------------------------------------------------------- bank


def test_bank_single_full_subset():
    schema = schema_with_kinds([data.CATEGORICAL] * 3, [2, 2, 2])
    bank = attack.make_query_bank(schema, k_values=(3,), queries_per_k=1, seed=0)
    assert len(bank.queries) == 1
    (q,) = bank.queries
    assert q.columns == (0, 1, 2)
    assert q.kind == attack.EXACT


def test_bank_caps_at_available_subsets():
    schema = schema_with_kinds([data.CATEGORICAL] * 4, [2] * 4)
    bank = attack.make_query_bank(schema, k_values=(1,), queries_per_k=10, seed=1)
    assert [q.columns for q in bank.queries] == [(0,), (1,), (2,), (3,)]


def test_bank_adds_atmost_queries_on_ordered_columns():
    schema = schema_with_kinds(
        [data.CATEGORICAL, data.ORDERED, data.ORDERED], [3, 4, 5]
    )
    bank = attack.make_query_bank(schema, k_values=(3,), queries_per_k=1, seed=0)
    kinds = [q.kind for q in bank.queries]
    assert kinds == [attack.EXACT, attack.ATMOST]
    assert bank.queries[1].columns == (1, 2)  # ordered part only


def test_bank_subsets_distinct_and_seeded():
    schema = schema_with_kinds([data.CATEGORICAL] * 8, [2] * 8)
    bank = attack.make_query_bank(schema, k_values=(3,), queries_per_k=20, seed=5)
    subsets = [q.columns for q in bank.queries]
    assert len(subsets) == 20
    assert len(set(subsets)) == 20
    again = attack.make_query_bank(schema, k_values=(3,), queries_per_k=20, seed=5)
    assert [q.columns for q in again.queries] == subsets
    other = attack.make_query_bank(schema, k_values=(3,), queries_per_k=20, seed=6)
    assert [q.columns for q in other.queries] != subsets


def test_bank_rejects_bad_sizes():
    schema = schema_with_kinds([data.CATEGORICAL] * 3, [2] * 3)
    with pytest.raises(DomainError):
        attack.make_query_bank(schema, k_values=(0,), queries_per_k=5)
    with pytest.raises(DomainError):
        attack.make_query_bank(schema, k_values=(4,), queries_per_k=5)
    with pytest.raises(DomainError):
        attack.make_query_bank(schema, k_values=(1,), queries_per_k=0)


# --------------------------------------------------------------- features


def features_fixture():
    schema = schema_with_kinds([data.ORDERED, data.ORDERED], [2, 2])
    d_syn = data.Dataset(schema, [[0, 0], [0, 1], [1, 1]])
    bank = attack.QueryBank(
        queries=(
            attack.Query((0, 1), attack.EXACT),
            attack.Query((0, 1), attack.ATMOST),
            attack.Query((0,), attack.EXACT),
        ),
        k_values=(1, 2),
        ncols=2,
        bank_seed=0,
    )
    return d_syn, bank


def test_extract_features_worked_example():
    d_syn, bank = features_fixture()
    feats = attack.extract_features(d_syn, (0, 1), bank)
    assert feats.tolist() == [1 / 3, 2 / 3, 2 / 3]


def test_extract_features_empty_dataset_rejected():
    d_syn, bank = features_fixture()
    empty = data.Dataset(d_syn.schema, [])
    with pytest.raises(DomainError):
        attack.extract_features(empty, (0, 1), bank)


def test_extract_features_shape_mismatch_rejected():
    d_syn, bank = features_fixture()
    with pytest.raises(DomainError):
        attack.extract_features(d_syn, (0, 1, 0), bank)


def test_extract_features_range_in_unit_interval():
    g = rng(8)
    schema = schema_with_kinds([data.ORDERED] * 3, [4, 3, 5])
    bank = attack.make_query_bank(schema, k_values=(1, 2), queries_per_k=5, seed=2)
    for trial in range(10):
        vals = np.column_stack([g.integers(0, s, size=30) for s in schema.sizes])
        d_syn = data.Dataset(schema, vals)
        x = tuple(int(g.integers(0, s)) for s in schema.sizes)
        feats = attack.extract_features(d_syn, x, bank)
        assert (feats >= 0).all() and (feats <= 1).all()


def test_extract_features_matches_reference_on_fixture():
    d_syn, bank = features_fixture()
    for x in [(0, 0), (0, 1), (1, 0), (1, 1)]:
        got = attack.extract_features(d_syn, x, bank)
        assert got.tobytes() == reference_features(d_syn, x, bank).tobytes()


@pytest.mark.parametrize("ncols", [1, 2, 3, 5, 8, 17, 40, 63, 64, 65, 72])
def test_extract_features_matches_reference_on_random_schemas(ncols):
    g = rng(1000 + ncols)
    for _ in range(4):
        kinds = [
            data.ORDERED if g.random() < 0.5 else data.CATEGORICAL
            for _ in range(ncols)
        ]
        sizes = [int(g.integers(2, 6)) for _ in range(ncols)]
        schema = schema_with_kinds(kinds, sizes)
        k_max = min(ncols, 4)
        k_values = tuple(sorted({int(k) for k in g.integers(1, k_max + 1, size=2)}))
        bank = attack.make_query_bank(
            schema, k_values=k_values, queries_per_k=int(g.integers(1, 60)),
            seed=int(g.integers(0, 2**31)),
        )
        for _ in range(5):
            n = int(g.integers(1, 300))
            # Values drawn from a narrow range so multi-column queries
            # still match some rows.
            vals = np.column_stack([g.integers(0, min(s, 2), size=n) for s in sizes])
            d_syn = data.Dataset(schema, vals)
            x = tuple(int(g.integers(0, s)) for s in sizes)
            got = attack.extract_features(d_syn, x, bank)
            want = reference_features(d_syn, x, bank)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


def test_bank_equality_ignores_compiled_matrix():
    schema = schema_with_kinds(
        [data.CATEGORICAL, data.ORDERED, data.ORDERED], [3, 4, 5]
    )
    a = attack.make_query_bank(schema, k_values=(1, 2), queries_per_k=3, seed=7)
    b = attack.make_query_bank(schema, k_values=(1, 2), queries_per_k=3, seed=7)
    assert a == b
    assert a.matrix is not b.matrix
    assert np.array_equal(a.matrix, b.matrix)
    _, fixture = features_fixture()
    assert fixture == features_fixture()[1]


def test_bank_rejects_column_outside_schema():
    with pytest.raises(DomainError):
        attack.QueryBank(
            queries=(attack.Query((2,), attack.EXACT),),
            k_values=(1,),
            ncols=2,
            bank_seed=0,
        )


# ---------------------------------------------------------------- shadows


def aux_pool():
    schema = schema_with_kinds([data.ORDERED], [50])
    return data.Dataset(schema, [[i] for i in range(40)])


def test_shadow_sets_balanced_and_labeled():
    d_aux = aux_pool()
    x = (45,)  # not in aux
    sets, labels = attack.build_shadow_sets(d_aux, x, n=6, n_shadow=10, seed=3)
    assert sets.shape == (10, 6, 1) and sets.dtype == np.int64
    assert labels.tolist() == [1, 0] * 5
    for values, lbl in zip(sets, labels):
        assert data.contains(data.Dataset(d_aux.schema, values), x) == bool(lbl)


def test_shadow_sets_validation():
    d_aux = aux_pool()
    with pytest.raises(ConfigError):
        attack.build_shadow_sets(d_aux, (0,), n=4, n_shadow=7, seed=0)
    with pytest.raises(SizeError):
        attack.build_shadow_sets(d_aux, (0,), n=41, n_shadow=4, seed=0)
    with pytest.raises(SizeError):
        attack.build_shadow_sets(d_aux, (0,), n=0, n_shadow=4, seed=0)


def test_shadow_sets_deterministic():
    d_aux = aux_pool()
    a_sets, a_labels = attack.build_shadow_sets(d_aux, (45,), n=5, n_shadow=6, seed=9)
    b_sets, b_labels = attack.build_shadow_sets(d_aux, (45,), n=5, n_shadow=6, seed=9)
    assert np.array_equal(a_sets, b_sets) and np.array_equal(a_labels, b_labels)


@pytest.mark.parametrize("seed", [0, 9, 2**64 - 1, 2**70 + 5])
def test_shadow_sets_match_per_set_reference(seed):
    from reference import reference_shadow_sets

    d_aux = aux_pool()
    got_sets, got_labels = attack.build_shadow_sets(d_aux, (45,), n=7, n_shadow=12, seed=seed)
    want_sets, want_labels = reference_shadow_sets(d_aux, (45,), n=7, n_shadow=12, seed=seed)
    assert got_sets.shape == want_sets.shape == (12, 7, 1)
    assert got_sets.tobytes() == want_sets.tobytes()
    assert got_labels.tolist() == want_labels.tolist()


# ---------------------------------------------------------------- trainer


def test_trainer_separates_separable_data():
    X = np.array([[0.0], [0.1], [0.9], [1.0]])
    y = np.array([0, 0, 1, 1])
    meta = attack.train_meta_classifier(X, y, epochs=2000)
    scores = 1.0 / (1.0 + np.exp(-(X @ meta.weights[:-1] + meta.weights[-1])))
    assert ((scores >= 0.5).astype(int) == y).all()


def test_trainer_huge_l2_collapses_weights():
    g = rng(23)
    X = g.random((20, 6))
    y = np.array([0, 1] * 10)
    meta = attack.train_meta_classifier(X, y, l2=1e9)
    assert np.abs(meta.weights[:-1]).max() < 1e-6
    scores = 1.0 / (1.0 + np.exp(-(X @ meta.weights[:-1] + meta.weights[-1])))
    assert np.abs(scores - 0.5).max() < 1e-6


def test_trainer_identical_features_score_identically():
    X = np.array([[0.4, 0.6]] * 8)
    y = np.array([0, 1] * 4)
    meta = attack.train_meta_classifier(X, y)
    z = X @ meta.weights[:-1] + meta.weights[-1]
    assert np.ptp(z) == 0.0


def test_trainer_rejects_bad_inputs():
    with pytest.raises(TrainingError):
        attack.train_meta_classifier(np.ones((3, 2)), np.array([1, 1, 1]))
    with pytest.raises(TrainingError):
        attack.train_meta_classifier(np.ones((3, 2)), np.array([0, 1]))
    with pytest.raises(TrainingError):
        attack.train_meta_classifier(np.ones((1, 2)), np.array([1]))
    with pytest.raises(TrainingError):
        attack.train_meta_classifier(np.ones((4, 2)), np.array([0, 1, 0, 1]), epochs=0)


def test_trainer_deterministic():
    g = rng(31)
    X = g.random((12, 4))
    y = np.array([0, 1] * 6)
    m1 = attack.train_meta_classifier(X, y)
    m2 = attack.train_meta_classifier(X, y)
    assert np.array_equal(m1.weights, m2.weights)


def test_sigmoid_matches_clip_reference():
    g = rng(41)
    z = np.concatenate([
        [np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 1e300, -1e300],
        [499.999, 500.0, 500.001, -499.999, -500.0, -500.001, 745.2, -745.2],
        g.normal(0.0, 400.0, size=200),
    ])
    want = reference_sigmoid(z)
    assert attack._sigmoid(z).tobytes() == want.tobytes()


@pytest.mark.parametrize("case", range(8))
def test_trainer_matches_reference_on_random_shapes(case):
    g = rng(500 + case)
    m = 2 * int(g.integers(1, 40))
    d = int(g.integers(1, 30))
    X = g.random((m, d)) * 10.0 ** g.integers(-3, 3)
    y = g.permutation(np.arange(m) % 2)
    kwargs = dict(
        epochs=int(g.integers(1, 300)),
        learning_rate=float(g.uniform(0.1, 3.0)),
        l2=float(10.0 ** g.uniform(-6, 1)),
    )
    got = attack.train_meta_classifier(X, y, **kwargs)
    want = reference_train_meta_classifier(X, y, **kwargs)
    assert np.array_equal(got.weights, want.weights)
    assert got.training_meta == want.training_meta


def test_trainer_matches_reference_where_clip_binds():
    # A huge unpenalized step throws the logits past +-500 after one
    # epoch, so the clip binds from the second epoch on.
    g = rng(77)
    X = g.random((30, 5))
    y = np.arange(30) % 2
    first = reference_train_meta_classifier(X, y, epochs=1, learning_rate=1e6, l2=0.0)
    Xb = np.hstack([X, np.ones((30, 1))])
    z = Xb @ first.weights
    assert z.max() > 500.0 and z.min() < -500.0
    got = attack.train_meta_classifier(X, y, epochs=40, learning_rate=1e6, l2=0.0)
    want = reference_train_meta_classifier(X, y, epochs=40, learning_rate=1e6, l2=0.0)
    assert np.array_equal(got.weights, want.weights)


# ---------------------------------------------------------- full pipeline


def test_pipeline_on_memorizing_generator():
    """Shadow sets of size 1 make a zero-smoothing network memorize its
    one record, so membership of the target is deterministically visible
    in the synthetic output and training accuracy must hit 1.0."""
    g = rng(71)
    schema = schema_with_kinds([data.ORDERED, data.ORDERED], [5, 5])
    vals = np.column_stack([g.integers(0, 4, size=30), g.integers(0, 4, size=30)])
    d_aux = data.Dataset(schema, vals)
    x = (4, 4)  # never in aux: aux values stay below 4
    spec = generators.GeneratorSpec(generators.BAYNET, max_parents=1, smoothing=0.0)
    bank = attack.make_query_bank(schema, k_values=(1, 2), queries_per_k=5, seed=4)
    values, labels = attack.build_shadow_sets(d_aux, x, n=1, n_shadow=12, seed=5)
    sets = [data.Dataset(schema, v) for v in values]

    feats = []
    for i, ds in enumerate(sets):
        gen = generators.fit(spec, ds, target_hint=x, seed=100 + i)
        d_syn = generators.sample(gen, 20, seed=200 + i)
        feats.append(attack.extract_features(d_syn, x, bank))
    meta = attack.train_meta_classifier(np.array(feats), labels, epochs=2000)
    scores = [
        attack.attack_score(
            meta,
            generators.sample(
                generators.fit(spec, ds, target_hint=x, seed=300 + i), 20, seed=400 + i
            ),
            x,
            bank,
        )
        for i, ds in enumerate(sets)
    ]
    guesses = [int(s >= 0.5) for s in scores]
    assert guesses == labels.tolist()


def test_train_attack_deterministic_and_scoring():
    g = rng(81)
    schema = schema_with_kinds([data.ORDERED, data.ORDERED], [4, 4])
    vals = np.column_stack([g.integers(0, 4, size=40), g.integers(0, 4, size=40)])
    d_aux = data.Dataset(schema, vals)
    x = (1, 2)
    spec = generators.GeneratorSpec(generators.BAYNET, max_parents=1)
    bank = attack.make_query_bank(schema, k_values=(1, 2), queries_per_k=4, seed=1)
    m1 = attack.train_attack(d_aux, x, spec, bank, n=10, n_shadow=8, seed=42)
    m2 = attack.train_attack(d_aux, x, spec, bank, n=10, n_shadow=8, seed=42)
    assert np.array_equal(m1.weights, m2.weights)

    gen = generators.fit(spec, d_aux, target_hint=x, seed=7)
    adv = attack.meta_classifier_adversary(m1, bank, x, n_syn=10)
    s1 = adv([gen], [99])[0]
    s2 = adv([gen], [99])[0]
    assert s1 == s2
    assert 0.0 <= s1 <= 1.0


def test_adversary_rejects_empty_sample_size():
    schema = schema_with_kinds([data.ORDERED], [4])
    bank = attack.make_query_bank(schema, k_values=(1,), queries_per_k=1, seed=0)
    meta = attack.MetaClassifier(weights=np.zeros(2), training_meta={})
    with pytest.raises(DomainError):
        attack.meta_classifier_adversary(meta, bank, (0,), n_syn=0)


@pytest.mark.parametrize(
    "batch_elements, releases_per_chunk", [(generators.BATCH_ELEMENTS, 96), (1, 1), (700, 2)]
)
def test_batched_attack_matches_per_release_reference(
    monkeypatch, batch_elements, releases_per_chunk
):
    # Shadow training and round scoring against the per-release,
    # per-query, allocating references, with the feature chunks cut
    # three ways: the whole batch, one release each, and two each.
    g = rng(91)
    schema = schema_with_kinds(
        [data.ORDERED, data.CATEGORICAL, data.ORDERED, data.CATEGORICAL], [3, 4, 2, 3]
    )
    vals = np.column_stack([g.integers(0, s, size=120) for s in schema.sizes])
    d_aux = data.Dataset(schema, vals)
    x = (1, 2, 0, 1)
    spec = generators.GeneratorSpec(generators.BAYNET, max_parents=2)
    bank = attack.make_query_bank(schema, k_values=(1, 2), queries_per_k=6, seed=3)
    n_syn = 20
    monkeypatch.setattr(generators, "BATCH_ELEMENTS", batch_elements)

    meta = attack.train_attack(d_aux, x, spec, bank, n=16, n_shadow=30, seed=8, epochs=200)
    want = reference_train_attack(d_aux, x, spec, bank, n=16, n_shadow=30, seed=8, epochs=200)
    assert np.array_equal(meta.weights, want.weights)

    count = 45
    trainings = np.stack([data.sample_records(d_aux, 16, 1000 + i).values for i in range(count)])
    gens = generators.fit_batch(spec, schema, trainings, list(range(count)), x)
    seeds = [7 * i + 2**63 for i in range(count)]
    scores = attack.meta_classifier_adversary(meta, bank, x, n_syn)(gens, seeds)
    assert scores == reference_meta_classifier_adversary(meta, bank, x, n_syn)(gens, seeds)
    assert all(type(s) is float for s in scores)
    assert max(1, batch_elements // (n_syn * len(bank.queries))) == releases_per_chunk
