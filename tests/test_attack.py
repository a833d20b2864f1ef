import os
import subprocess
import sys

import numpy as np
import pytest

from privgames import attack, data, games, generators
from privgames.errors import ConfigError, DomainError, SizeError, TrainingError
from reference import (
    reference_features,
    reference_fit_batch,
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
    with pytest.raises(DomainError, match="k_values is empty"):
        attack.make_query_bank(schema, k_values=(), queries_per_k=5)


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
        ncols=2,
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
    g = np.random.default_rng(8)
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
    g = np.random.default_rng(1000 + ncols)
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
    assert a.columns is not b.columns
    assert np.array_equal(a.columns, b.columns)
    _, fixture = features_fixture()
    assert fixture == features_fixture()[1]


def test_bank_rejects_column_outside_schema():
    with pytest.raises(DomainError):
        attack.QueryBank(queries=(attack.Query((2,), attack.EXACT),), ncols=2)


def test_bank_rejects_unknown_query_kind():
    with pytest.raises(DomainError, match="'bogus'"):
        attack.QueryBank(queries=(attack.Query((0,), "bogus"),), ncols=2)


def random_release(g, schema, n):
    # Values drawn from a narrow range so wide queries still match rows.
    vals = np.column_stack([g.integers(0, min(s, 2), size=n) for s in schema.sizes])
    return data.Dataset(schema, vals)


def assert_features_match_reference(d_syn, x, bank):
    got = attack.extract_features(d_syn, x, bank)
    want = reference_features(d_syn, x, bank)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [1, 7, 8, 9, 63, 64, 65, 201])
def test_features_match_reference_around_byte_padding(n):
    g = np.random.default_rng(300 + n)
    schema = schema_with_kinds([data.ORDERED, data.CATEGORICAL, data.ORDERED], [3, 2, 4])
    bank = attack.make_query_bank(schema, k_values=(1, 2, 3), queries_per_k=4, seed=n)
    for _ in range(5):
        x = tuple(int(g.integers(0, s)) for s in schema.sizes)
        assert_features_match_reference(random_release(g, schema, n), x, bank)


def test_features_match_reference_on_hand_built_banks():
    g = np.random.default_rng(41)
    schema = schema_with_kinds([data.ORDERED, data.CATEGORICAL], [3, 3])
    exact, atmost = attack.EXACT, attack.ATMOST
    empty = attack.QueryBank(queries=(), ncols=2)
    no_columns = attack.QueryBank(
        queries=(attack.Query((), exact), attack.Query((1,), exact), attack.Query((), atmost)),
        ncols=2,
    )
    repeated = attack.QueryBank(
        queries=(attack.Query((0, 0), exact), attack.Query((1, 0, 1), atmost)), ncols=2
    )
    for n in (1, 9, 40):
        d_syn = random_release(g, schema, n)
        assert attack.extract_features(d_syn, (0, 1), empty).shape == (0,)
        feats = attack.extract_features(d_syn, (0, 1), no_columns)
        assert feats[0] == feats[2] == 1.0
        for bank in (empty, no_columns, repeated):
            for x in [(0, 0), (1, 2), (2, 1)]:
                assert_features_match_reference(d_syn, x, bank)


def test_features_match_reference_on_five_column_queries():
    g = np.random.default_rng(55)
    o, c = data.ORDERED, data.CATEGORICAL
    schema = schema_with_kinds([o, c, o, o, c, o], [3, 2, 4, 2, 3, 5])
    bank = attack.make_query_bank(schema, k_values=(1, 4, 5), queries_per_k=6, seed=9)
    assert bank.columns.shape[1] == 5
    for n in (1, 17, 130):
        for _ in range(4):
            x = tuple(int(g.integers(0, 2)) for _ in schema.sizes)
            assert_features_match_reference(random_release(g, schema, n), x, bank)


@pytest.mark.parametrize("batch_elements", [generators.BATCH_ELEMENTS, 1 << 15, 1, 700])
def test_stacked_features_match_reference_per_release(monkeypatch, batch_elements):
    # A (k, n, d) stack cut into chunks of every release (at the default
    # budget and the former one, 2^15), one release, and a few, each
    # release's row against the per-query reference.
    monkeypatch.setattr(generators, "BATCH_ELEMENTS", batch_elements)
    g = np.random.default_rng(batch_elements)
    schema = schema_with_kinds(
        [data.ORDERED, data.CATEGORICAL, data.ORDERED, data.CATEGORICAL], [3, 4, 2, 3]
    )
    bank = attack.make_query_bank(schema, k_values=(1, 2, 3), queries_per_k=5, seed=6)
    x = (1, 1, 0, 1)
    for k, n in [(1, 1), (5, 8), (23, 9), (40, 33)]:
        values = np.stack([random_release(g, schema, n).values for _ in range(k)])
        got = attack._features(values, x, bank)
        want = np.stack([reference_features(data.Dataset(schema, v), x, bank) for v in values])
        assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------- shadows


def aux_pool():
    schema = schema_with_kinds([data.ORDERED], [50])
    return data.Dataset(schema, [[i] for i in range(40)])


def test_shadow_sets_balanced_and_labeled():
    d_aux = aux_pool()
    x = (45,)  # not in aux
    sets, labels = attack.build_shadow_sets(d_aux, x, n=6, n_shadow=10, seed=3)
    # Training sets are built in the narrowest dtype that holds the
    # widest level, as releases are.
    assert sets.shape == (10, 6, 1) and sets.dtype == d_aux.schema.dtype == np.uint8
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
    assert got_sets.dtype == np.uint8
    assert got_sets.astype(np.int64).tobytes() == want_sets.tobytes()
    assert got_labels.tolist() == want_labels.tolist()


# ---------------------------------------------------------------- trainer


def test_trainer_separates_separable_data():
    X = np.array([[0.0], [0.1], [0.9], [1.0]])
    y = np.array([0, 0, 1, 1])
    meta = attack.train_meta_classifier(X, y, epochs=2000)
    scores = 1.0 / (1.0 + np.exp(-(X @ meta.weights[:-1] + meta.weights[-1])))
    assert ((scores >= 0.5).astype(int) == y).all()


def test_trainer_huge_l2_collapses_weights():
    g = np.random.default_rng(23)
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
    g = np.random.default_rng(31)
    X = g.random((12, 4))
    y = np.array([0, 1] * 6)
    m1 = attack.train_meta_classifier(X, y)
    m2 = attack.train_meta_classifier(X, y)
    assert np.array_equal(m1.weights, m2.weights)


def test_sigmoid_matches_clip_reference():
    g = np.random.default_rng(41)
    z = np.concatenate([
        [np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 1e300, -1e300],
        [499.999, 500.0, 500.001, -499.999, -500.0, -500.001, 745.2, -745.2],
        g.normal(0.0, 400.0, size=200),
    ])
    want = reference_sigmoid(z)
    assert attack._sigmoid(z).tobytes() == want.tobytes()


@pytest.mark.parametrize("case", range(8))
def test_trainer_matches_reference_on_random_shapes(case):
    g = np.random.default_rng(500 + case)
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


def test_trainer_matches_reference_where_clip_binds():
    # A huge unpenalized step throws the logits past +-500 after one
    # epoch, so the clip binds from the second epoch on.
    g = np.random.default_rng(77)
    X = g.random((30, 5))
    y = np.arange(30) % 2
    first = reference_train_meta_classifier(X, y, epochs=1, learning_rate=1e6, l2=0.0)
    Xb = np.hstack([X, np.ones((30, 1))])
    z = Xb @ first.weights
    assert z.max() > 500.0 and z.min() < -500.0
    got = attack.train_meta_classifier(X, y, epochs=40, learning_rate=1e6, l2=0.0)
    want = reference_train_meta_classifier(X, y, epochs=40, learning_rate=1e6, l2=0.0)
    assert np.array_equal(got.weights, want.weights)


def stacked_training_cases(count=60):
    """Seeded random ``(features (R, m, q), labels, hyperparameters)``.

    Every tenth case is a stack of one.  Cases 1-3 of every ten take the
    edge hyperparameters: a step so large the clip binds, no penalty,
    and a penalty so large it collapses the weights.  With m = 2 mod 4
    and q even, a record's slice of the bias-extended stack starts at an
    offset that is not a multiple of 32 bytes.
    """
    edges = {
        1: dict(learning_rate=1e6, l2=0.0),
        2: dict(learning_rate=1.0, l2=0.0),
        3: dict(learning_rate=1.0, l2=1e9),
    }
    cases = []
    for case in range(count):
        g = np.random.default_rng(900 + case)
        r = 1 if case % 10 == 0 else int(g.integers(2, 9))
        m = 2 * int(g.integers(1, 30))
        q = int(g.integers(1, 40))
        X = g.random((r, m, q)) * 10.0 ** g.integers(-3, 3)
        y = g.permutation(np.arange(m) % 2)
        hyper = edges.get(case % 10) or dict(
            learning_rate=float(g.uniform(0.1, 3.0)), l2=float(10.0 ** g.uniform(-6, 1))
        )
        cases.append((X, y, dict(epochs=int(g.integers(1, 200)), **hyper)))
    return cases


def assert_stacked_matches_per_record(cases):
    for X, y, kwargs in cases:
        got = attack.train_meta_classifiers(X, y, **kwargs)
        assert len(got) == len(X)
        for features, meta in zip(X, got):
            want = reference_train_meta_classifier(features, y, **kwargs)
            assert meta.weights.tobytes() == want.weights.tobytes()


def test_stacked_trainer_matches_per_record_reference():
    cases = stacked_training_cases()
    shapes = [X.shape for X, _, _ in cases]
    assert len(shapes) >= 50 and any(r == 1 for r, _, _ in shapes)
    # A record's bias-extended slice is m * (q + 1) float64s long.
    assert any(r > 1 and m * (q + 1) * 8 % 32 for r, m, q in shapes)
    assert {1e6, 1.0} <= {kwargs["learning_rate"] for _, _, kwargs in cases}
    assert {0.0, 1e9} <= {kwargs["l2"] for _, _, kwargs in cases}
    assert_stacked_matches_per_record(cases)


@pytest.mark.parametrize("coretype", ["Haswell", "Sandybridge", "Prescott"])
def test_stacked_trainer_matches_per_record_on_other_blas_kernels(coretype):
    # OpenBLAS picks its kernels when it loads, so each kernel gets a
    # child process of its own; the variable is set in the child only.
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(here), "src")
    env = dict(os.environ, OPENBLAS_CORETYPE=coretype)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, here, env.get("PYTHONPATH")) if p
    )
    code = (
        "import test_attack as t; "
        "t.assert_stacked_matches_per_record(t.stacked_training_cases())"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr[-2000:]


def score_cases(count=300):
    cases = []
    for case in range(count):
        g = np.random.default_rng(1300 + case)
        k = int(g.integers(0, 60))
        q = int(g.integers(0, 80))
        feats = g.random((k, q))
        weights = g.normal(size=q + 1) * 10.0 ** g.integers(-3, 3)
        cases.append((feats, attack.MetaClassifier(weights=weights)))
    return cases


def assert_scores_match_per_row(cases):
    for feats, meta in cases:
        coef = meta.weights[:-1]
        logits = np.array([row @ coef for row in feats], dtype=float) + meta.weights[-1]
        assert attack._scores(meta, feats) == reference_sigmoid(logits).tolist()


def test_stacked_scores_match_per_row_dot():
    cases = score_cases()
    assert any(len(f) == 0 for f, _ in cases) and any(f.shape[1] == 0 for f, _ in cases)
    assert_scores_match_per_row(cases)


@pytest.mark.parametrize("coretype", ["Haswell", "Sandybridge", "Prescott"])
def test_stacked_scores_match_per_row_dot_on_other_blas_kernels(coretype):
    # As for the trainer: one child process per OpenBLAS kernel.
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(here), "src")
    env = dict(os.environ, OPENBLAS_CORETYPE=coretype)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, here, env.get("PYTHONPATH")) if p
    )
    code = "import test_attack as t; t.assert_scores_match_per_row(t.score_cases())"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_stacked_trainer_rejects_bad_inputs():
    y = np.array([0, 1, 0, 1])
    with pytest.raises(TrainingError, match="3-d"):
        attack.train_meta_classifiers(np.ones((4, 2)), y)
    with pytest.raises(TrainingError, match="4 feature rows but 3 labels"):
        attack.train_meta_classifiers(np.ones((2, 4, 2)), y[:3])
    with pytest.raises(TrainingError, match="both classes"):
        attack.train_meta_classifiers(np.ones((2, 4, 2)), np.ones(4))


# ---------------------------------------------------------- full pipeline


def test_pipeline_on_memorizing_generator():
    """Shadow sets of size 1 make a zero-smoothing network memorize its
    one record, so membership of the target is deterministically visible
    in the synthetic output and training accuracy must hit 1.0."""
    g = np.random.default_rng(71)
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
        gen = generators.fit(spec, ds, seed=100 + i)
        d_syn = generators.sample(gen, 20, seed=200 + i)
        feats.append(attack.extract_features(d_syn, x, bank))
    meta = attack.train_meta_classifier(np.array(feats), labels, epochs=2000)
    scores = [
        attack._scores(
            meta,
            attack.extract_features(
                generators.sample(generators.fit(spec, ds, seed=300 + i), 20, seed=400 + i),
                x,
                bank,
            )[None],
        )[0]
        for i, ds in enumerate(sets)
    ]
    guesses = [int(s >= 0.5) for s in scores]
    assert guesses == labels.tolist()


def test_train_attack_deterministic_and_scoring():
    g = np.random.default_rng(81)
    schema = schema_with_kinds([data.ORDERED, data.ORDERED], [4, 4])
    vals = np.column_stack([g.integers(0, 4, size=40), g.integers(0, 4, size=40)])
    d_aux = data.Dataset(schema, vals)
    x = (1, 2)
    spec = generators.GeneratorSpec(generators.BAYNET, max_parents=1)
    bank = attack.make_query_bank(schema, k_values=(1, 2), queries_per_k=4, seed=1)
    m1 = attack.train_attack(d_aux, x, spec, bank, n=10, n_shadow=8, seed=42)
    m2 = attack.train_attack(d_aux, x, spec, bank, n=10, n_shadow=8, seed=42)
    assert np.array_equal(m1.weights, m2.weights)

    gen = generators.fit(spec, d_aux, seed=7)
    adv = attack.meta_classifier_adversary(m1, bank, x, n_syn=10)
    s1 = adv(gen, [99])[0]
    s2 = adv(gen, [99])[0]
    assert s1 == s2
    assert 0.0 <= s1 <= 1.0


def test_adversary_rejects_empty_sample_size():
    schema = schema_with_kinds([data.ORDERED], [4])
    bank = attack.make_query_bank(schema, k_values=(1,), queries_per_k=1, seed=0)
    meta = attack.MetaClassifier(weights=np.zeros(2))
    with pytest.raises(DomainError):
        attack.meta_classifier_adversary(meta, bank, (0,), n_syn=0)


@pytest.mark.parametrize(
    "batch_elements, releases_per_chunk",
    [(generators.BATCH_ELEMENTS, 642), (1 << 15, 321), (1, 1), (700, 6)],
)
def test_batched_attack_matches_per_release_reference(
    monkeypatch, batch_elements, releases_per_chunk
):
    # Shadow training and round scoring against the per-release,
    # per-query, allocating references, with the feature chunks cut
    # four ways: the whole batch (at the default budget and the former
    # one, 2^15), one release each, and six each.
    # _features packs one chunk of releases per packbits call; a chunk
    # of scored releases holds releases_per_chunk of them, each
    # q * width * ceil(n_syn / 8) = 17 * 2 * 3 bytes, or fewer where a
    # call has fewer.
    g = np.random.default_rng(91)
    schema = schema_with_kinds(
        [data.ORDERED, data.CATEGORICAL, data.ORDERED, data.CATEGORICAL], [3, 4, 2, 3]
    )
    vals = np.column_stack([g.integers(0, s, size=120) for s in schema.sizes])
    d_aux = data.Dataset(schema, vals)
    x = (1, 2, 0, 1)
    spec = generators.GeneratorSpec(generators.BAYNET, max_parents=2)
    bank = attack.make_query_bank(schema, k_values=(1, 2), queries_per_k=6, seed=3)
    n_syn = 20
    count = 45
    trainings = np.stack([data.sample_records(d_aux, 16, 1000 + i).values for i in range(count)])
    # The 45 rounds fit as one table chunk at the default budget.
    (batch,) = generators.fit_batch(spec, schema, trainings, list(range(count)))
    monkeypatch.setattr(generators, "BATCH_ELEMENTS", batch_elements)
    chunks = []
    packbits = np.packbits

    def spy(passed, *args, **kwargs):
        chunks.append(len(passed))
        return packbits(passed, *args, **kwargs)

    monkeypatch.setattr(np, "packbits", spy)

    meta = attack.train_attack(d_aux, x, spec, bank, n=16, n_shadow=30, seed=8, epochs=200)
    want = reference_train_attack(d_aux, x, spec, bank, n=16, n_shadow=30, seed=8, epochs=200)
    assert np.array_equal(meta.weights, want.weights)

    seeds = [7 * i + 2**63 for i in range(count)]
    chunks.clear()  # the shadows' 16-row releases weigh less
    scores = attack.meta_classifier_adversary(meta, bank, x, n_syn)(batch, seeds)
    ref_gens = [gen for (gen,) in reference_fit_batch(spec, schema, trainings, range(count))]
    assert scores == reference_meta_classifier_adversary(meta, bank, x, n_syn)(ref_gens, seeds)
    assert all(type(s) is float for s in scores)
    assert bank.columns.shape == (17, 2)
    assert max(chunks) == min(releases_per_chunk, count)


@pytest.mark.parametrize("n_eval", [4, 40])
def test_game_builds_no_dataset_per_release(monkeypatch, n_eval):
    # A release is a slice of one sample_columns array from sampler to
    # features: the Datasets a baynet traditional game builds (its pool)
    # must not grow with the number of rounds.
    g = np.random.default_rng(17)
    schema = schema_with_kinds([data.ORDERED, data.CATEGORICAL, data.ORDERED], [3, 4, 2])
    d_eval = data.Dataset(schema, np.column_stack([g.integers(0, s, 60) for s in schema.sizes]))
    x = (1, 2, 0)
    bank = attack.make_query_bank(schema, k_values=(1, 2), queries_per_k=4, seed=5)
    meta = attack.MetaClassifier(weights=np.zeros(len(bank.queries) + 1))
    adversary = attack.meta_classifier_adversary(meta, bank, x, n_syn=12)
    spec = generators.GeneratorSpec(generators.BAYNET, max_parents=1)
    config = games.GameConfig(n_eval, 10, spec, 3, games.TRADITIONAL)
    built = []
    init = data.Dataset.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(data.Dataset, "__init__", counting_init)
    t = games.run_traditional(x, d_eval, adversary, config)
    assert len(t.runs) == n_eval
    assert built == [1]
