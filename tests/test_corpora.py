import csv
import io
import pathlib

import numpy as np
import pytest

from privgames import corpora, data
from privgames.errors import DomainError
from privgames.seeds import derive
from reference import reference_mutual_information

# The seeded code that generated the bundled corpora.
_GEN_SEED = 20250801

_CORRELATED_SIZES = (4, 3, 2, 5, 6)


def correlated_rows(seed=_GEN_SEED):
    """Generate the correlated_500 value matrix.

    350 base records from a chained conditional model, topped up to 500
    with near-duplicate clusters: each cluster copies one base record 1
    to 5 times, redrawing a single column per copy.  Records whose
    neighborhoods differ in multiplicity end up with very different
    fixed-dataset risk.
    """
    g = np.random.default_rng(derive(seed, "correlated"))
    n_base = 350
    group = g.choice(4, size=n_base, p=[0.45, 0.3, 0.2, 0.05])
    kind = np.where(g.random(n_base) < 0.75, group % 3, g.integers(0, 3, size=n_base))
    flag = np.where(
        g.random(n_base) < 0.85, (kind == 0).astype(np.int64), g.integers(0, 2, size=n_base)
    )
    level = np.clip(group + g.integers(-1, 2, size=n_base), 0, 4)
    score = np.clip(level + g.integers(-1, 2, size=n_base), 0, 5)
    base = np.column_stack([group, kind, flag, level, score]).astype(np.int64)

    blocks = [base]
    total = n_base
    while total < 500:
        seed_row = base[int(g.integers(0, n_base))]
        copies = min(int(g.integers(1, 6)), 500 - total)
        block = np.tile(seed_row, (copies, 1))
        for r in range(copies):
            col = int(g.integers(0, 5))
            block[r, col] = int(g.integers(0, _CORRELATED_SIZES[col]))
        blocks.append(block)
        total += copies
    values = np.vstack(blocks)
    return values[g.permutation(len(values))]


def copycol_rows(seed=_GEN_SEED):
    """Generate the copycol_400 value matrix: b is a verbatim copy of a."""
    g = np.random.default_rng(derive(seed, "copycol"))
    a = g.choice(4, size=400, p=[0.7, 0.2, 0.08, 0.02])
    return np.column_stack([a, a]).astype(np.int64)


def independent_rows(seed=_GEN_SEED):
    """Generate the independent_1000 value matrix."""
    g = np.random.default_rng(derive(seed, "independent"))
    cols = [g.integers(0, s, size=1000) for s in (4, 4, 3)]
    return np.column_stack(cols).astype(np.int64)


def _csv_text(header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def correlated_csv_text(seed=_GEN_SEED):
    rows = [
        [f"g{r[0]}", f"k{r[1]}", f"f{r[2]}", str(int(r[3])), str(int(r[4]))]
        for r in correlated_rows(seed)
    ]
    return _csv_text(["group", "kind", "flag", "level", "score"], rows)


def correlated_schema_text():
    return (
        "# column kinds for correlated_500.csv\n"
        "group = categorical\n"
        "kind = categorical\n"
        "flag = categorical\n"
        "level = ordered:5\n"
        "score = ordered:6\n"
    )


def copycol_csv_text(seed=_GEN_SEED):
    rows = [[f"a{r[0]}", f"b{r[1]}"] for r in copycol_rows(seed)]
    return _csv_text(["a", "b"], rows)


def independent_csv_text(seed=_GEN_SEED):
    rows = [[f"u{r[0]}", f"v{r[1]}", f"w{r[2]}"] for r in independent_rows(seed)]
    return _csv_text(["u", "v", "w"], rows)


def bundled_texts():
    """Mapping of bundled file name to its regenerated content."""
    return {
        f"{corpora.CORRELATED}.csv": correlated_csv_text(),
        f"{corpora.CORRELATED}.schema": correlated_schema_text(),
        f"{corpora.COPYCOL}.csv": copycol_csv_text(),
        f"{corpora.INDEPENDENT}.csv": independent_csv_text(),
    }


def load_corpus(name):
    return corpora.load_dataset(f"bundled:{name}")


def test_bundled_files_match_their_generators():
    # The shipped corpus bytes must be exactly what the generation code
    # produces; accidental edits to either side fail here.
    for name, text in bundled_texts().items():
        shipped = pathlib.Path(corpora.corpus_path(corpora.CORRELATED)).parent / name
        assert shipped.read_text(encoding="utf-8") == text, name


def test_correlated_corpus_shape():
    ds = load_corpus(corpora.CORRELATED)
    assert ds.n == 500
    assert ds.schema.ncols == 5
    kinds = [c.kind for c in ds.schema.columns]
    assert kinds.count(data.ORDERED) == 2
    assert ds.schema.columns[3].size == 5
    assert ds.schema.columns[4].size == 6


def test_correlated_corpus_has_near_duplicate_clusters():
    ds = load_corpus(corpora.CORRELATED)
    # near-duplicate: differs from some other record in at most one column
    vals = ds.values
    sample = vals[:120]
    near = 0
    for i in range(len(sample)):
        diffs = (vals != sample[i]).sum(axis=1)
        if (diffs <= 1).sum() >= 3:  # itself plus at least two neighbors
            near += 1
    assert near >= 10


def test_correlated_corpus_is_actually_correlated():
    ds = load_corpus(corpora.CORRELATED)
    sizes = ds.schema.sizes
    mi = reference_mutual_information(ds.values[:, 3], ds.values[:, 4], sizes[3], sizes[4])
    assert mi > 0.1


def test_copycol_corpus_copies_deterministically():
    ds = load_corpus(corpora.COPYCOL)
    assert ds.n == 400
    assert (ds.values[:, 0] == ds.values[:, 1]).all()
    raw = np.bincount(ds.values[:, 0], minlength=4)
    labels = ds.schema.columns[0].labels
    by_label = {lab: int(raw[i]) for i, lab in enumerate(labels)}
    assert by_label["a0"] > by_label["a1"] > by_label["a2"] > by_label["a3"] > 0


def test_independent_corpus_is_nearly_independent():
    ds = load_corpus(corpora.INDEPENDENT)
    sizes = ds.schema.sizes
    for a in range(3):
        for b in range(a + 1, 3):
            mi = reference_mutual_information(
                ds.values[:, a], ds.values[:, b], sizes[a], sizes[b]
            )
            assert mi < 0.01


def test_resolve_dataset():
    path, side = corpora.resolve_dataset("bundled:correlated_500")
    assert path.endswith("correlated_500.csv")
    assert side.endswith("correlated_500.schema")
    path, side = corpora.resolve_dataset("/tmp/foo.csv")
    assert path == "/tmp/foo.csv" and side is None
    with pytest.raises(DomainError):
        corpora.resolve_dataset("bundled:nope")


def test_load_dataset_sidecar_replaces_the_bundled_one(tmp_path):
    sidecar = tmp_path / "d.schema"
    sidecar.write_text("score = ordered:9\n")
    ds = corpora.load_dataset(f"bundled:{corpora.CORRELATED}", str(sidecar))
    assert [c.kind for c in ds.schema.columns] == [data.CATEGORICAL] * 4 + [data.ORDERED]
    assert ds.schema.columns[4].size == 9
