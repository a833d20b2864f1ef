"""Memory bounds on a wide schema: many columns of up to 60 levels.

A network's tables grow with the product of its parents' levels, which
``BATCH_ELEMENTS`` does not weigh, so a wide input is where unbounded
memory shows.  The input is generated here, never downloaded: column c
has ``2 + c * (top - 2) // (ncols - 1)`` levels and is, in 70% of rows,
the previous column scaled to its own levels, otherwise uniform.
"""

import os
import random
import re
import subprocess
import sys
import tracemalloc
import weakref

import numpy as np
import pytest

from privgames import attack, data, games, generators

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def write_wide_csv(path, ncols, nrows, top, seed=1):
    g = random.Random(seed)
    levels = [2 + c * (top - 2) // (ncols - 1) for c in range(ncols)]
    lines = [",".join(f"c{c}" for c in range(ncols))]
    for _ in range(nrows):
        row = [g.randrange(levels[0])]
        for c in range(1, ncols):
            noisy = g.random() < 0.3
            row.append(g.randrange(levels[c]) if noisy else row[-1] * levels[c] // levels[c - 1])
        lines.append(",".join(map(str, row)))
    path.write_text("\n".join(lines) + "\n")
    return str(path)


# Traced bytes a streamed stage may hold besides its largest table
# chunk, in units of one batch intermediate of float64: its training
# sets, one chunk's releases and features, and the structure stage's
# pair tables.  Measured at about 3 on the wide input below; holding
# all 20 networks' tables at once measured about 52.
EXTRA_BATCHES = 8


class Chunks:
    """What the table chunks of a stage held: ``bytes``, every array of
    each chunk's ``_TableBatch`` at its largest, as its cumulative table
    is built and before its probabilities are dropped, and ``alive``,
    how many other chunks were alive as each was built."""

    def __init__(self):
        self.bytes, self.alive = [], []
        self.batches = weakref.WeakSet()

    def clear(self):
        self.bytes.clear()
        self.alive.clear()


@pytest.fixture
def chunks(monkeypatch):
    seen = Chunks()
    init, cumulative = generators._TableBatch.__init__, generators._TableBatch.cumulative

    def spy_init(self, *args):
        seen.alive.append(len(seen.batches))
        init(self, *args)
        seen.batches.add(self)

    def spy_cumulative(self):
        building = self.probs is not None
        held = array_bytes(self)
        cum = cumulative(self)
        if building:
            seen.bytes.append(held + cum.nbytes)
        return cum

    monkeypatch.setattr(generators._TableBatch, "__init__", spy_init)
    monkeypatch.setattr(generators._TableBatch, "cumulative", spy_cumulative)
    return seen


def array_bytes(batch):
    return sum(v.nbytes for v in vars(batch).values() if isinstance(v, np.ndarray))


@pytest.fixture(scope="module")
def wide(tmp_path_factory):
    path = write_wide_csv(tmp_path_factory.mktemp("wide") / "wide.csv", 12, 600, 30)
    pool = data.load_csv(path)
    d_aux = data.Dataset(pool.schema, pool.values[:300])
    d_eval = data.Dataset(pool.schema, pool.values[300:])
    x = tuple(int(v) for v in d_eval.values[0])
    bank = attack.make_query_bank(pool.schema, (1, 2), 5, seed=3)
    return d_aux, d_eval, x, bank


SPEC = generators.GeneratorSpec(generators.BAYNET, max_parents=2)


def traced_peak(run):
    tracemalloc.start()
    try:
        result = run()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def assert_one_chunk_of_tables(peak, chunks):
    # Every network is a table chunk of its own here, each of about 1.5
    # MiB: the stage must hold one of them, not all 20, and drop each
    # before it builds the next.
    assert len(chunks.bytes) == 20 and min(chunks.bytes) > 2 * generators.BATCH_ELEMENTS * 8
    assert chunks.alive == [0] * 20
    assert peak <= max(chunks.bytes) + EXTRA_BATCHES * generators.BATCH_ELEMENTS * 8


def test_wide_shadow_stage_holds_one_table_chunk(wide, chunks):
    d_aux, _, x, bank = wide
    attack.shadow_features(d_aux, x, SPEC, bank, 100, 4, 0)  # builds the pair plan
    chunks.clear()
    (feats, _), peak = traced_peak(
        lambda: attack.shadow_features(d_aux, x, SPEC, bank, 100, 20, 7)
    )
    assert feats.shape == (20, len(bank.queries))
    assert_one_chunk_of_tables(peak, chunks)


def test_wide_game_span_holds_one_table_chunk(wide, chunks):
    d_aux, d_eval, x, bank = wide
    feats, labels = attack.shadow_features(d_aux, x, SPEC, bank, 100, 4, 0)
    meta = attack.train_meta_classifier(feats, labels, epochs=10)
    adversary = attack.meta_classifier_adversary(meta, bank, x, n_syn=100)
    config = games.GameConfig(20, 100, SPEC, 5, games.TRADITIONAL)
    # 20 rounds of 1,200 values make one span.
    assert games._span_rounds(20, 100 * len(x), 1) == 20
    chunks.clear()
    grid = [games.Game(x, "", config, adversary)]
    (transcript,), peak = traced_peak(lambda: list(games.run_games(grid, d_eval)))
    assert len(transcript.runs) == 20
    assert_one_chunk_of_tables(peak, chunks)


def test_wide_network_mixture_holds_one_table_chunk(wide, chunks):
    # Every mixture round trains on its drawn partial, plus x when b = 1,
    # and is a table chunk of its own: the game holds one of them at a
    # time, as a game span does, not a whole span's fits.
    d_aux, d_eval, x, bank = wide
    feats, labels = attack.shadow_features(d_aux, x, SPEC, bank, 100, 4, 0)
    meta = attack.train_meta_classifier(feats, labels, epochs=10)
    adversary = attack.meta_classifier_adversary(meta, bank, x, n_syn=100)
    partials = [data.Dataset(d_eval.schema, d_eval.values[lo : lo + 100]) for lo in (100, 200)]
    config = games.GameConfig(20, 100, SPEC, 5, games.TRADITIONAL)
    chunks.clear()
    transcript, peak = traced_peak(
        lambda: games.run_traditional_mixture(x, partials, adversary, config)
    )
    assert len(transcript.runs) == 20
    assert_one_chunk_of_tables(peak, chunks)


def test_structure_chunks_are_weighed_by_their_pair_tables(monkeypatch):
    # 64 sets of 20 rows over 10 columns of 60 levels: a network's codes
    # are 20 * 10 * 9 = 1,800 values, but its pair tables 90 * 60 * 60 =
    # 324,000 cells, held as int64 counts and as floats.  Weighed by their codes
    # alone, the networks would be learned in chunks of 36 and 28, at a
    # traced peak of about 360 MB; each network's pair cells outweigh a
    # batch, so each is a structure chunk of its own.
    schema = data.Schema(tuple(data.Column(f"c{c}", data.ORDERED, 60) for c in range(10)))
    values = np.random.default_rng(4).integers(0, 60, size=(64, 20, 10)).astype(schema.dtype)
    plan = generators._pair_plan(schema.sizes)  # built before the traced stage
    assert plan.ncells == 324_000 > generators.BATCH_ELEMENTS
    learned = []
    learn = generators.learn_structure

    def spy(values, *args):
        learned.append(len(values))
        return learn(values, *args)

    monkeypatch.setattr(generators, "learn_structure", spy)
    # fit_batch learns every structure at the call; no table is built.
    _, peak = traced_peak(lambda: generators.fit_batch(SPEC, schema, values, list(range(64))))
    assert learned == [1] * 64
    assert peak < 30 * 2**20


def test_table_chunk_holds_its_counts_and_one_more_cell_array(wide):
    # A table chunk is fit, normalized in place and its cumulative table
    # built holding, besides its row layout and its counts (which become
    # its probabilities, dropped once the table is built), one more
    # cell-sized float64 array or the cumulative table, whichever is
    # larger.  The slack is one level's temporaries, two row-sized
    # arrays, plus 256 KiB.  On the wide input the padded cumulative
    # table outweighs the cells; on eight columns of 40 levels it does
    # not.  A fit that held the counts, the row totals repeated to every
    # cell and the uniform buffer at once peaked 0.5 and 6 MB over.
    d_aux = wide[0]
    g = np.random.default_rng(3)
    equal = np.empty((300, 8), dtype=np.int64)
    equal[:, 0] = g.integers(0, 40, 300)
    for c in range(1, 8):
        equal[:, c] = np.where(g.random(300) < 0.7, equal[:, c - 1], g.integers(0, 40, 300))
    schema = data.Schema(tuple(data.Column(f"c{c}", data.ORDERED, 40) for c in range(8)))
    for schema, values in ((d_aux.schema, d_aux.values), (schema, equal)):
        fits = generators.fit_batch(SPEC, schema, values[None].astype(schema.dtype), [5])
        held = []

        def fit_and_build():
            batch = next(fits)  # its structure was learned at the call
            held.append(array_bytes(batch))
            return batch, batch.cumulative()

        (batch, cum), peak = traced_peak(fit_and_build)
        cells, rows = 8 * batch.cell_start[-1], len(batch.row_arity)
        assert batch.probs is None and array_bytes(batch) == held[0] - cells + cum.nbytes
        assert cells > 4 * 2 * rows * 8  # the cell array outweighs the slack's row arrays
        assert peak <= held[0] + max(cum.nbytes, cells) + 2 * rows * 8 + 2**18


def test_structure_chunk_holds_its_codes_and_two_pair_cell_arrays(tmp_path):
    # One structure chunk, four 150-row sets over 10 columns of 2 to 16
    # levels, holds its int64 pair codes while they are counted, then
    # their int64 counts and the joint, one pair-cell float array, and
    # frees both before the MI terms are computed.  The slack is the
    # marginals, two arrays of the nonzero cells and 64 KiB.  Keeping
    # every intermediate to the end peaked about 0.3 MB over this bound.
    # The nonzero cells are fewer than the pair cells.
    pool = data.load_csv(write_wide_csv(tmp_path / "wide.csv", 10, 600, 16))
    schema, n, d = pool.schema, 150, pool.schema.ncols
    plan = generators._pair_plan(schema.sizes)  # built before the traced stage
    nets = generators.batch_size(max(n * d * (d - 1), plan.ncells))
    assert nets == 4
    g = np.random.default_rng(6)
    rows = [g.choice(len(pool.values), n, replace=False) for _ in range(nets)]
    values = pool.values[np.stack(rows)].astype(schema.dtype)
    orders = np.stack([g.permutation(d) for _ in range(nets)])
    _, peak = traced_peak(lambda: generators.learn_structure(values, schema.sizes, 3, orders, 0.0))
    step = np.argsort(orders, axis=1)
    reads = step[:, plan.a_cols] > step[:, plan.b_cols]
    terms, _ = generators._pair_information(values, plan, reads)
    codes = 8 * n * np.count_nonzero(reads)
    cells = 8 * nets * plan.ncells
    assert 8 * len(terms) < cells
    assert peak <= codes + 2 * cells + 8 * nets * plan.nmarg + 2 * terms.nbytes + 2**16


WIDE_RUN = """
[data]
dataset = {dataset}
aux_size = 300
eval_size = 300
target_size = 100

[generator]
kind = baynet
max_parents = 3

[attack]
n_shadow = 2
queries_per_k = 5
syn_size = 50

[game]
n_eval = 2

[records]
selection = first:2

[output]
dir = {out}
"""

# Runs one command under a 1 GiB address-space limit.
LIMITED = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from privgames.cli import main
sys.exit(main(sys.argv[1:]))
"""

OUT_OF_MEMORY = re.compile(
    r"record evaluation failed: record (\d+): out of memory on a fit chunk of \d+ "
    r"(pair-)?table cells \(widest arity 60\)"
)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="RLIMIT_AS bounds mmap on Linux")
def test_wide_run_under_an_address_space_limit_ends_cleanly(tmp_path):
    # With three parents, one network over 24 columns of up to 60 levels
    # can need tens of millions of table cells.  Under 1 GiB the run
    # either completes or fails the records that ran out of memory with
    # a FitError line, keeps every other record, and exits 1: never a
    # traceback or a killed process.
    out = tmp_path / "out"
    config = tmp_path / "wide.ini"
    dataset = write_wide_csv(tmp_path / "wide.csv", 24, 600, 60)
    config.write_text(WIDE_RUN.format(dataset=dataset, out=out))
    env = dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS="1")
    env.pop("PRIVGAMES_THREADS", None)
    proc = subprocess.run(
        [sys.executable, "-c", LIMITED, "run", "--config", str(config)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert "Traceback" not in proc.stdout + proc.stderr
    assert proc.returncode in (0, 1), proc.stderr
    failed = {
        m.group(1) for m in map(OUT_OF_MEMORY.fullmatch, proc.stdout.splitlines()) if m
    }
    assert [line for line in proc.stdout.splitlines() if "failed" in line] == [
        line for line in proc.stdout.splitlines() if OUT_OF_MEMORY.fullmatch(line)
    ]
    assert (proc.returncode == 1) == bool(failed)
    status = "partial" if failed else "complete"
    for kind in ("traditional", "model_seeded"):
        lines = (out / f"results_{kind}.csv").read_text().splitlines()
        assert f"status={status}" in lines[0]
        present = [line.split(",")[0] for line in lines[2:]]
        assert present == [rid for rid in ("0", "1") if rid not in failed]
