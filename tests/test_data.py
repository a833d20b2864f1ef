import numpy as np
import pytest

from privgames import data, risk
from privgames.errors import CsvParseError, DomainError, SizeError


def two_col_schema():
    return data.Schema(
        (
            data.Column("color", data.CATEGORICAL, 3, ("red", "green", "blue")),
            data.Column("level", data.ORDERED, 4),
        )
    )


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------- schema


def test_schema_rejects_duplicate_names():
    with pytest.raises(DomainError):
        data.Schema((data.Column("a", data.CATEGORICAL, 2, ("x", "y")),) * 2)


def test_column_rejects_bad_kind_and_size():
    with pytest.raises(DomainError):
        data.Column("a", "floatish", 2)
    with pytest.raises(DomainError):
        data.Column("a", data.CATEGORICAL, 0)
    with pytest.raises(DomainError):
        data.Column("a", data.CATEGORICAL, 3, ("x", "y"))


def test_dataset_validates_bounds():
    schema = two_col_schema()
    with pytest.raises(DomainError):
        data.Dataset(schema, [[0, 4]])
    with pytest.raises(DomainError):
        data.Dataset(schema, [[-1, 0]])
    with pytest.raises(DomainError):
        data.Dataset(schema, [[0, 0, 0]])


def test_validate_record():
    schema = two_col_schema()
    data.validate_record(schema, (2, 3))
    with pytest.raises(DomainError):
        data.validate_record(schema, (2,))
    with pytest.raises(DomainError):
        data.validate_record(schema, (3, 0))


# ------------------------------------------------------------------- csv


def test_load_csv_first_appearance_indexing(tmp_path):
    p = write(tmp_path / "t.csv", "pet,home\ndog,flat\ncat,flat\ndog,house\n")
    ds = data.load_csv(p)
    assert ds.schema.names == ("pet", "home")
    assert ds.schema.columns[0].labels == ("dog", "cat")
    assert ds.schema.columns[1].labels == ("flat", "house")
    assert ds.records() == [(0, 0), (1, 0), (0, 1)]


def test_load_csv_roundtrip_with_duplicates(tmp_path):
    p = write(tmp_path / "t.csv", "pet,n\ndog,2\ncat,0\ndog,2\n")
    ds = data.load_csv(p, hints={"n": data.ColumnHint(data.ORDERED)})
    assert ds.n == 3  # duplicates preserved
    assert ds.records() == [(0, 2), (1, 0), (0, 2)]


def test_load_csv_reports_bad_arity_line(tmp_path):
    p = write(tmp_path / "t.csv", "a,b\nx,y\nx\n")
    with pytest.raises(CsvParseError, match="line 3"):
        data.load_csv(p)


def test_load_csv_empty_file(tmp_path):
    p = write(tmp_path / "t.csv", "")
    with pytest.raises(CsvParseError, match="header"):
        data.load_csv(p)


def test_load_csv_header_only(tmp_path):
    p = write(tmp_path / "t.csv", "a,b\n")
    ds = data.load_csv(p)
    assert ds.n == 0
    assert ds.schema.ncols == 2


def test_load_csv_ordered_hints(tmp_path):
    p = write(tmp_path / "t.csv", "n\n2\n0\n1\n")
    ds = data.load_csv(p, hints={"n": data.ColumnHint(data.ORDERED, levels=5)})
    assert ds.schema.columns[0].size == 5
    assert ds.records() == [(2,), (0,), (1,)]
    with pytest.raises(DomainError, match="holds level 2 but declares 2 levels"):
        data.load_csv(p, hints={"n": data.ColumnHint(data.ORDERED, levels=2)})
    for levels in (0, -3):
        with pytest.raises(DomainError, match="column 'n': levels must be >= 1"):
            data.load_csv(p, hints={"n": data.ColumnHint(data.ORDERED, levels=levels)})
    empty = write(tmp_path / "e.csv", "n\n")
    ds = data.load_csv(empty, hints={"n": data.ColumnHint(data.ORDERED)})
    assert ds.schema.columns[0].size == 1


def test_load_csv_ordered_rejects_non_integer(tmp_path):
    p = write(tmp_path / "t.csv", "n\n1\nfoo\n")
    with pytest.raises(CsvParseError, match="line 3"):
        data.load_csv(p, hints={"n": data.ColumnHint(data.ORDERED)})


def test_continuous_binning_equal_frequency(tmp_path):
    rows = "\n".join(str(v / 10) for v in range(100))
    p = write(tmp_path / "t.csv", "x\n" + rows + "\n")
    ds = data.load_csv(p, hints={"x": data.ColumnHint("continuous", bins=10)})
    col = ds.values[:, 0]
    counts = np.bincount(col, minlength=10)
    assert (counts == 10).all()
    # order preserved: larger raw values never land in smaller bins
    assert (np.diff(col) >= 0).all()


def test_continuous_binning_ties_share_a_bin(tmp_path):
    rows = "\n".join(["1.0"] * 50 + ["2.0"] * 50)
    p = write(tmp_path / "t.csv", "x\n" + rows + "\n")
    ds = data.load_csv(p, hints={"x": data.ColumnHint("continuous", bins=4)})
    col = ds.values[:, 0]
    assert len(set(col[:50].tolist())) == 1
    assert len(set(col[50:].tolist())) == 1


def test_continuous_binning_at_the_float_limit(tmp_path):
    # The unscaled interpolation between these overflows to inf edges and
    # puts both values in one bin.
    p = write(tmp_path / "t.csv", "x\n-1.7e308\n1.7e308\n")
    ds = data.load_csv(p, hints={"x": data.ColumnHint("continuous", bins=2)})
    assert ds.values[:, 0].tolist() == [0, 1]


# linear_quantiles stands in for np.percentile and np.quantile, whose
# np.unique imports numpy.ma on numpy 2: it must give their bits.


def quantile_samples(huge):
    """Unsorted seeded samples of 1 to 60 values: uniform [0, 1) like
    |R^T - R^MS|, ties with negatives, negative zeros, wide magnitudes,
    and (``huge``) values of both signs near the float maximum."""
    g = np.random.default_rng(20250817)
    for n in range(1, 61):
        yield g.random(n)
        yield g.integers(-3, 4, n).astype(float)
        yield np.full(n, -0.0)
        yield g.normal(0.0, 1e3, n) * 10.0 ** g.integers(-8, 9, n)
        if huge:
            yield g.uniform(-1.0, 1.0, n) * np.finfo(float).max
            yield np.finfo(float).max * g.choice([-1.0, 1.0], n)


def test_linear_quantiles_match_numpy_percentile_bitwise():
    levels = risk.PERCENTILE_LEVELS
    for vals in quantile_samples(huge=False):
        expected = np.array([np.percentile(vals, q, method="linear") for q in levels])
        got = data.linear_quantiles(np.sort(vals), [q / 100 for q in levels])
        assert got.tobytes() == expected.tobytes(), vals
        if np.ptp(vals) < 10:  # summarize_distribution bins at width 0.02
            pct = risk.summarize_distribution(vals.tolist()).percentiles
            assert list(pct) == list(levels)
            assert np.array(list(pct.values())).tobytes() == expected.tobytes(), vals


def numpy_equal_frequency_edges(vals, bins):
    """The continuous bin edges as np.quantile made them."""
    qs = [k / bins for k in range(1, bins)]
    if np.abs(vals).max() > np.finfo(vals.dtype).max / 2:
        return np.quantile(vals / 2, qs) * 2
    return np.quantile(vals, qs)


def test_equal_frequency_edges_match_numpy_quantile_bitwise():
    for vals in quantile_samples(huge=True):
        for bins in (1, 2, 3, 4, 7, 10, 16):
            got = data._equal_frequency_edges(vals, bins)
            assert got.tobytes() == numpy_equal_frequency_edges(vals, bins).tobytes(), (vals, bins)


def test_schema_sidecar(tmp_path):
    p = write(
        tmp_path / "t.schema",
        "# layout\nage = continuous:5\nlevel = ordered:4\npet = categorical\n",
    )
    hints = data.parse_schema_sidecar(p)
    assert hints["age"].kind == "continuous" and hints["age"].bins == 5
    assert hints["level"].kind == data.ORDERED and hints["level"].levels == 4
    assert hints["pet"].kind == data.CATEGORICAL
    bad = write(tmp_path / "bad.schema", "age = gaussian\n")
    with pytest.raises(DomainError):
        data.parse_schema_sidecar(bad)


# ----------------------------------------------------------- split/sample


def make_pool(n=20):
    schema = data.Schema((data.Column("v", data.ORDERED, 64),))
    return data.Dataset(schema, [[i] for i in range(n)])


def test_split_sizes_and_disjointness():
    pool = make_pool(20)
    aux, ev = data.split(pool, (12, 5), seed=3)
    assert aux.n == 12 and ev.n == 5
    taken = aux.records() + ev.records()
    assert len(set(taken)) == 17


def test_split_deterministic_and_seed_sensitive():
    pool = make_pool(30)
    a1, e1 = data.split(pool, (10, 10), seed=7)
    a2, e2 = data.split(pool, (10, 10), seed=7)
    a3, _ = data.split(pool, (10, 10), seed=8)
    assert a1 == a2 and e1 == e2
    assert a1 != a3


def test_split_rejects_oversize():
    pool = make_pool(10)
    with pytest.raises(SizeError):
        data.split(pool, (8, 3), seed=0)
    with pytest.raises(SizeError):
        data.split(pool, (-1, 3), seed=0)


def test_sample_records_basic():
    pool = make_pool(15)
    s = data.sample_records(pool, 6, seed=11)
    assert s.n == 6
    assert len(set(s.records())) == 6  # without replacement
    again = data.sample_records(pool, 6, seed=11)
    assert s == again


def test_sample_records_oversize():
    pool = make_pool(5)
    with pytest.raises(SizeError):
        data.sample_records(pool, 6, seed=0)


def test_sample_records_roughly_uniform():
    pool = make_pool(10)
    hits = np.zeros(10)
    for trial in range(2000):
        s = data.sample_records(pool, 3, seed=trial)
        for r in s.records():
            hits[r[0]] += 1
    frac = hits / hits.sum()
    assert (np.abs(frac - 0.1) < 0.02).all()


# ------------------------------------------------------------ membership


def test_contains_and_value_equality():
    schema = two_col_schema()
    ds = data.Dataset(schema, [[0, 1], [2, 3], [0, 1]])
    assert data.contains(ds, (0, 1))
    assert not data.contains(ds, (1, 1))
    assert data.value_equal_indices(ds, (0, 1)).tolist() == [0, 2]
    empty = data.Dataset(schema, [])
    assert not data.contains(empty, (0, 1))


def test_append_record():
    schema = two_col_schema()
    ds = data.Dataset(schema, [[0, 1]])
    grown = data.append_record(ds, (2, 2))
    assert grown.n == 2 and grown.record(1) == (2, 2)
    assert ds.n == 1  # original untouched


def test_rows_not_in():
    schema = two_col_schema()
    big = data.Dataset(schema, [[0, 1], [1, 1], [2, 3], [0, 1]])
    small = data.Dataset(schema, [[0, 1]])
    rest = data.rows_not_in(big, small)
    assert [tuple(r) for r in rest] == [(1, 1), (2, 3)]
