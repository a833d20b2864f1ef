import dataclasses
import re
import tracemalloc

import numpy as np
import pytest

from privgames import data, games, generators, oracle, risk, seeds
from privgames.errors import ConfigError, DomainError, PreconditionError, PrivGamesError, SizeError
from privgames.seeds import derive, derive_many


def ordered_schema(size):
    return data.Schema((data.Column("v", data.ORDERED, size),))


def toy_spec(p_in=0.8, p_out=0.2):
    return generators.GeneratorSpec(generators.TOY, p_in=p_in, p_out=p_out)


def blind_adversary(gens, seeds):
    """Ignores the release: every round scores 0.5."""
    return [0.5] * len(gens)


def play_alone(x, d_eval, d_target, adversary, config, threads=1):
    """``config``'s game for record ``x`` played as a grid of one; raises
    its error."""
    (result,) = games.run_games([games.Game(x, "", config, adversary)], d_eval, d_target, threads)
    return games.checked(result)


def toy_setup(n_eval=200, seed=99, p_in=0.8, p_out=0.2, kind=games.MODEL_SEEDED):
    schema = ordered_schema(16)
    d_eval = data.Dataset(schema, [[i % 16] for i in range(64)])
    d_target = data.Dataset(schema, [[1], [0], [2], [3]])
    config = games.GameConfig(
        n_eval=n_eval,
        dataset_size=4,
        generator_spec=toy_spec(p_in, p_out),
        master_seed=seed,
        game_kind=kind,
    )
    return schema, d_eval, d_target, config


# ---------------------------------------------------------------- config


def test_config_validation():
    spec = toy_spec()
    with pytest.raises(ConfigError):
        games.GameConfig(5, 4, spec, 0, games.TRADITIONAL)
    with pytest.raises(ConfigError):
        games.GameConfig(0, 4, spec, 0, games.TRADITIONAL)
    with pytest.raises(ConfigError):
        games.GameConfig(4, 0, spec, 0, games.TRADITIONAL)
    with pytest.raises(ConfigError):
        games.GameConfig(4, 4, spec, 0, "sideways")
    with pytest.raises(ConfigError):
        games.GameConfig(4, 4, spec, 0, games.MODEL_SEEDED, reference_mode="never")


def test_balanced_bits():
    # A game's secret bits are exactly half ones, in an order that only
    # its master seed sets.
    def bits(n_eval, seed):
        _, d_eval, d_target, config = toy_setup(n_eval=n_eval, seed=seed)
        return play_alone((1,), d_eval, d_target, blind_adversary, config).runs["secret_bit"]

    for n in (2, 10, 400):
        assert bits(n, 3).sum() == n // 2
        assert len(bits(n, 3)) == n
    a = bits(100, 3)
    assert (a == bits(100, 3)).all()
    assert (a != bits(100, 4)).any()


# ----------------------------------------------------------- traditional


def test_traditional_balance_and_determinism():
    schema = ordered_schema(32)
    d_eval = data.Dataset(schema, [[i % 32] for i in range(64)])
    config = games.GameConfig(40, 6, toy_spec(), 7, games.TRADITIONAL)
    adv = games.toy_bit_adversary()
    t1 = games.run_traditional((3,), d_eval, adv, config, record_id="3")
    t2 = games.run_traditional((3,), d_eval, adv, config, record_id="3")
    assert games.transcript_to_text(t1) == games.transcript_to_text(t2)
    assert t1.runs["secret_bit"].sum() == 20
    assert t1.record_id == "3" and t1.game_kind == games.TRADITIONAL


def test_traditional_membership_discipline():
    # Rebuild every run's dataset from its derived seed and check that
    # the target appears exactly when the secret bit says so, even with
    # duplicates of the target in the evaluation pool.
    schema = ordered_schema(16)
    values = [[i % 16] for i in range(48)] + [[5], [5]]
    d_eval = data.Dataset(schema, values)
    x = (5,)
    config = games.GameConfig(30 * 2, 8, toy_spec(), 11, games.TRADITIONAL)
    t = games.run_traditional(x, d_eval, games.toy_bit_adversary(), config)
    pool = games.traditional_pool(x, d_eval)
    assert not data.contains(pool, x)
    for bit, _, run_seed in t.runs.tolist():
        ds = games.traditional_dataset(pool, x, 8, bit, derive(run_seed, "data"))
        assert ds.n == 8
        assert data.contains(ds, x) == bool(bit)


def test_traditional_run_reproducible_standalone():
    # A single run can be replayed outside the loop from its seed alone.
    _, d_eval, d_target, _ = toy_setup()
    x = (1,)
    config = games.GameConfig(20, 5, toy_spec(), 13, games.TRADITIONAL)
    t = games.run_traditional(x, d_eval, games.toy_bit_adversary(), config)
    pool = games.traditional_pool(x, d_eval)
    for bit, score, run_seed in t.runs[:6].tolist():
        ds = games.traditional_dataset(pool, x, 5, bit, derive(run_seed, "data"))
        probs = generators.toy_fits(toy_spec(), [data.contains(ds, x)])
        assert games.toy_bit_adversary()(probs, [derive(run_seed, "adversary")])[0] == score


def test_traditional_pool_too_small():
    schema = ordered_schema(8)
    d_eval = data.Dataset(schema, [[i] for i in range(4)])
    config = games.GameConfig(4, 6, toy_spec(), 0, games.TRADITIONAL)
    with pytest.raises(SizeError):
        games.run_traditional((0,), d_eval, games.toy_bit_adversary(), config)


def test_traditional_threads_do_not_change_transcript():
    schema, d_eval, d_target, _ = toy_setup()
    config = games.GameConfig(60, 4, toy_spec(), 21, games.TRADITIONAL)
    adv = games.toy_bit_adversary()
    seq = games.run_traditional((1,), d_eval, adv, config, threads=1)
    par = games.run_traditional((1,), d_eval, adv, config, threads=8)
    assert games.transcript_to_text(seq) == games.transcript_to_text(par)


# ----------------------------------------------------------- model-seeded


def test_model_seeded_requires_membership():
    schema, d_eval, d_target, config = toy_setup()
    with pytest.raises(PreconditionError):
        games.run_model_seeded((9,), d_target, d_eval, games.toy_bit_adversary(), config)


def test_model_seeded_requires_matching_size():
    schema, d_eval, d_target, _ = toy_setup()
    config = games.GameConfig(10, 9, toy_spec(), 0, games.MODEL_SEEDED)
    with pytest.raises(ConfigError):
        games.run_model_seeded((1,), d_target, d_eval, games.toy_bit_adversary(), config)


def test_model_seeded_requires_reference_records():
    schema = ordered_schema(4)
    d_target = data.Dataset(schema, [[0], [1]])
    d_eval = data.Dataset(schema, [[0], [1], [1], [0]])
    config = games.GameConfig(4, 2, toy_spec(), 0, games.MODEL_SEEDED)
    with pytest.raises(SizeError):
        games.run_model_seeded((0,), d_target, d_eval, games.toy_bit_adversary(), config)


@pytest.mark.parametrize(
    "spec",
    [toy_spec(), generators.GeneratorSpec(generators.INDEPENDENT)],
    ids=["toy", "independent"],
)
def test_model_seeded_requires_one_schema(spec):
    # References come from d_eval and replace rows of d_target, so both
    # must share one schema: rows of another width are never equal to
    # d_target's, and would not fit in its rows.
    d_target = data.Dataset(ordered_schema(4), [[0], [1], [2], [3]])
    wide = data.Schema((data.Column("c0", data.ORDERED, 4), data.Column("c1", data.ORDERED, 4)))
    d_eval = data.Dataset(wide, [[i % 4, i % 3] for i in range(20)])
    config = games.GameConfig(10, 4, spec, 0, games.MODEL_SEEDED)
    with pytest.raises(PreconditionError, match="different schema"):
        games.run_model_seeded((1,), d_target, d_eval, blind_adversary, config)


def test_model_seeded_dataset_discipline():
    schema, d_eval, d_target, config = toy_setup(n_eval=60)
    x = (1,)
    t = games.run_model_seeded(x, d_target, d_eval, games.toy_bit_adversary(), config)
    x_positions = data.value_equal_indices(d_target, x)
    refs = data.rows_not_in(d_eval, d_target)
    ref_set = {tuple(r) for r in refs}
    for bit, _, run_seed in t.runs.tolist():
        ds = games.model_seeded_dataset(
            d_target, x_positions, refs, bit, derive(run_seed, "data")
        )
        assert ds.n == d_target.n
        if bit == 1:
            assert ds == d_target
        else:
            assert not data.contains(ds, x)
            for pos in x_positions:
                assert tuple(ds.values[pos]) in ref_set
            # non-target rows untouched
            mask = np.ones(d_target.n, dtype=bool)
            mask[x_positions] = False
            assert np.array_equal(ds.values[mask], d_target.values[mask])


def test_model_seeded_replaces_every_duplicate():
    schema = ordered_schema(16)
    d_target = data.Dataset(schema, [[1], [4], [1], [7]])  # two copies of x
    d_eval = data.Dataset(schema, [[i % 16] for i in range(64)])
    x = (1,)
    config = games.GameConfig(40, 4, toy_spec(), 5, games.MODEL_SEEDED)
    t = games.run_model_seeded(x, d_target, d_eval, games.toy_bit_adversary(), config)
    x_positions = data.value_equal_indices(d_target, x)
    assert len(x_positions) == 2
    refs = data.rows_not_in(d_eval, d_target)
    for bit, _, run_seed in t.runs.tolist():
        if bit == 0:
            ds = games.model_seeded_dataset(
                d_target, x_positions, refs, 0, derive(run_seed, "data")
            )
            assert not data.contains(ds, x)


# A toy round's fit is its secret bit only because every game's set
# builder puts x in a round's set exactly when the bit is 1; these check
# that on the builders themselves.


def test_traditional_sets_hold_x_exactly_when_the_bit_is_1():
    schema = ordered_schema(16)
    x = (5,)
    d_eval = data.Dataset(schema, [[i % 16] for i in range(48)] + [[5]] * 3)
    bits = np.random.default_rng(8).permutation(np.arange(200) % 2)
    streams = seeds.Streams(derive_many(8, "data", np.arange(200)))
    values = data.sample_training_sets(games.traditional_pool(x, d_eval), x, 12, bits, streams)
    copies = data.value_equal_mask(values, x).sum(axis=1)
    assert copies.tolist() == bits.tolist()


@pytest.mark.parametrize("mode", [games.REFERENCE_PER_RUN, games.REFERENCE_FIXED])
def test_model_seeded_out_sets_never_hold_x(mode):
    schema = ordered_schema(16)
    x = (1,)
    d_target = data.Dataset(schema, [[1], [4], [1], [7], [9]])
    d_eval = data.Dataset(schema, [[i % 16] for i in range(64)])
    x_positions = data.value_equal_indices(d_target, x)
    refs = data.rows_not_in(d_eval, d_target)
    fixed = None
    if mode == games.REFERENCE_FIXED:
        fixed = refs[seeds.rng(3).integers(0, len(refs), size=len(x_positions))]
    bits = np.random.default_rng(9).permutation(np.arange(200) % 2)
    streams = seeds.Streams(derive_many(9, "data", np.arange(200)))
    values = games._model_seeded_sets(d_target, x_positions, refs, bits, streams, fixed)
    copies = data.value_equal_mask(values, x).sum(axis=1)
    assert copies.tolist() == (2 * bits).tolist()


def test_model_seeded_fixed_reference_mode():
    schema, d_eval, d_target, _ = toy_setup()
    x = (1,)
    config = games.GameConfig(
        30 * 2, 4, toy_spec(), 17, games.MODEL_SEEDED, reference_mode=games.REFERENCE_FIXED
    )
    games.run_model_seeded(x, d_target, d_eval, games.toy_bit_adversary(), config)
    x_positions = data.value_equal_indices(d_target, x)
    refs = data.rows_not_in(d_eval, d_target)
    g = np.random.default_rng(derive(17, "reference"))
    fixed = refs[g.integers(0, len(refs), size=len(x_positions))]
    out_sets = [
        games.model_seeded_dataset(
            d_target, x_positions, refs, 0, derive(derive(17, "run", i), "data"), fixed
        )
        for i in range(10)
    ]
    for ds in out_sets[1:]:
        assert ds == out_sets[0]


def test_model_seeded_threads_do_not_change_transcript():
    schema, d_eval, d_target, config = toy_setup(n_eval=60)
    adv = games.toy_bit_adversary()
    seq = games.run_model_seeded((1,), d_target, d_eval, adv, config, threads=1)
    par = games.run_model_seeded((1,), d_target, d_eval, adv, config, threads=8)
    assert games.transcript_to_text(seq) == games.transcript_to_text(par)


# ------------------------------------------------- statistical agreement


def test_toy_rates_converge_to_oracle_both_games():
    p_in, p_out = 0.85, 0.15
    alpha_exact, beta_exact = oracle.toy_exact_rates(p_in, p_out)
    radius = risk.hoeffding_radius(1000, 0.01)
    schema, d_eval, d_target, _ = toy_setup()
    adv = games.toy_bit_adversary()

    config = games.GameConfig(2000, 4, toy_spec(p_in, p_out), 31, games.MODEL_SEEDED)
    t = games.run_model_seeded((1,), d_target, d_eval, adv, config)
    alpha, beta = risk.empirical_rates(t, 0.5)
    assert abs(alpha - alpha_exact) <= radius
    assert abs(beta - beta_exact) <= radius

    config = games.GameConfig(2000, 4, toy_spec(p_in, p_out), 32, games.TRADITIONAL)
    t = games.run_traditional((1,), d_eval, adv, config)
    alpha, beta = risk.empirical_rates(t, 0.5)
    assert abs(alpha - alpha_exact) <= radius
    assert abs(beta - beta_exact) <= radius


def test_perfect_toy_gives_perfect_auc():
    schema, d_eval, d_target, _ = toy_setup()
    adv = games.toy_bit_adversary()
    config = games.GameConfig(100, 4, toy_spec(1.0, 0.0), 3, games.MODEL_SEEDED)
    t = games.run_model_seeded((1,), d_target, d_eval, adv, config)
    assert risk.roc_auc(t) == 1.0


def test_blind_adversary_gives_half_auc():
    schema, d_eval, d_target, config = toy_setup(n_eval=50 * 2)
    t = games.run_model_seeded((1,), d_target, d_eval, blind_adversary, config)
    assert risk.roc_auc(t) == 0.5


# ---------------------------------------------------------------- mixture


def mixture_setup():
    schema = ordered_schema(16)
    part_a = data.Dataset(schema, [[2], [3], [4], [5]])
    part_b = data.Dataset(schema, [[6], [7], [8], [9]])
    x = (1,)
    return schema, [part_a, part_b], x


def test_mixture_preconditions():
    schema, partials, x = mixture_setup()
    config = games.GameConfig(10, 4, toy_spec(), 0, games.TRADITIONAL)
    adv = games.toy_bit_adversary()
    with pytest.raises(PreconditionError):
        games.run_traditional_mixture(x, partials[:1], adv, config)
    with_x = data.Dataset(schema, [[1], [2]])
    with pytest.raises(PreconditionError):
        games.run_traditional_mixture(x, [partials[0], with_x], adv, config)
    other_schema = ordered_schema(17)
    odd = data.Dataset(other_schema, [[2], [3]])
    with pytest.raises(PreconditionError):
        games.run_traditional_mixture(x, [partials[0], odd], adv, config)
    with pytest.raises(ConfigError):
        games.run_traditional_mixture(
            x, partials, adv, config, specs=[toy_spec()]
        )


def test_mixture_uses_per_partial_specs():
    # Different p_out per partial: the empirical alpha converges to the
    # uniform average of the two, not to either one.
    schema, partials, x = mixture_setup()
    spec_low = toy_spec(0.9, 0.1)
    spec_high = toy_spec(0.9, 0.5)
    config = games.GameConfig(4000, 4, spec_low, 71, games.TRADITIONAL)
    t = games.run_traditional_mixture(
        x, partials, games.toy_bit_adversary(), config, specs=[spec_low, spec_high]
    )
    alpha, beta = risk.empirical_rates(t, 0.5)
    target = oracle.mixture_average_rates(
        [oracle.toy_exact_rates(0.9, 0.1), oracle.toy_exact_rates(0.9, 0.5)],
        [0.5, 0.5],
    )
    assert abs(alpha - target[0]) <= risk.hoeffding_radius(2000, 0.01)
    assert abs(beta - target[1]) <= risk.hoeffding_radius(2000, 0.01)


def test_mixture_matches_plain_game_when_degenerate():
    # Both partials identical: the mixture adds nothing, so toy rates
    # agree with the plain game's within joint noise.
    schema = ordered_schema(16)
    base = data.Dataset(schema, [[2], [3], [4], [5]])
    x = (1,)
    adv = games.toy_bit_adversary()
    config = games.GameConfig(2000, 4, toy_spec(), 55, games.TRADITIONAL)
    t_mix = games.run_traditional_mixture(x, [base, base], adv, config)
    d_eval = data.Dataset(schema, [[i % 16] for i in range(64)])
    config2 = games.GameConfig(2000, 4, toy_spec(), 56, games.TRADITIONAL)
    t_plain = games.run_traditional(x, d_eval, adv, config2)
    alpha_mix, beta_mix = risk.empirical_rates(t_mix, 0.5)
    alpha_plain, beta_plain = risk.empirical_rates(t_plain, 0.5)
    bound = 2 * risk.hoeffding_radius(1000, 0.01)
    assert abs(alpha_mix - alpha_plain) <= bound
    assert abs(beta_mix - beta_plain) <= bound


def test_mixture_deterministic_and_threaded():
    # Each batch's toy fits reach the adversary as one float64 array of
    # release probabilities, and its scores come back as one float array.
    schema, partials, x = mixture_setup()
    toy_adv = games.toy_bit_adversary()
    batches = []

    def adv(probs, seeds):
        scores = toy_adv(probs, seeds)
        batches.append((probs.dtype.name, scores.dtype.name, len(probs), len(scores)))
        return scores

    config = games.GameConfig(40, 4, toy_spec(), 91, games.TRADITIONAL)
    t1 = games.run_traditional_mixture(x, partials, adv, config, threads=1)
    t2 = games.run_traditional_mixture(x, partials, adv, config, threads=8)
    assert games.transcript_to_text(t1) == games.transcript_to_text(t2)
    assert len(batches) == 1 + 8
    assert {b[:2] for b in batches} == {("float64", "float64")}
    assert all(n == m for _, _, n, m in batches)
    assert sum(n for _, _, n, _ in batches) == 2 * 40


@pytest.mark.parametrize("order", ["toy-first", "network-first"])
def test_mixture_refuses_toy_and_network_specs_together(monkeypatch, order):
    # A toy round's fit is a release probability and a network round's a
    # fitted generator, which no one adversary scores: the game refuses
    # the mix before it fits anything.
    schema, partials, x = mixture_setup()
    specs = [toy_spec(), generators.GeneratorSpec(generators.BAYNET)]
    if order == "network-first":
        specs.reverse()
    config = games.GameConfig(10, 4, specs[0], 0, games.TRADITIONAL)

    def no_fits(*args):
        raise AssertionError("a round was fit")

    monkeypatch.setattr(generators, "fit_batch", no_fits)
    monkeypatch.setattr(generators, "toy_fits", no_fits)
    with pytest.raises(ConfigError, match="mixture specs mix the toy kind with baynet"):
        games.run_traditional_mixture(
            x, partials, games.toy_bit_adversary(), config, specs=specs
        )


def test_mixture_batches_stay_within_the_budget(monkeypatch):
    # In-rounds train on a 7-row partial plus x, more rows than
    # dataset_size, so a batch is sized by that set, not by dataset_size.
    # Only network rounds build sets, so the spec is a network's.
    schema = ordered_schema(16)
    partials = [data.Dataset(schema, [[v] for v in range(2, 8)]),
                data.Dataset(schema, [[v] for v in range(2, 9)])]
    adv = _mean_adversary(generators.sample_columns)
    spec = generators.GeneratorSpec(generators.INDEPENDENT)
    config = games.GameConfig(40, 4, spec, 91, games.TRADITIONAL)
    before = games.run_traditional_mixture((1,), partials, adv, config)
    sizes = []
    fit_batch = generators.fit_batch

    def spy(spec, schema, values, seeds):
        sizes.append(values.size)
        return fit_batch(spec, schema, values, seeds)

    monkeypatch.setattr(generators, "fit_batch", spy)
    monkeypatch.setattr(generators, "BATCH_ELEMENTS", 20)
    after = games.run_traditional_mixture((1,), partials, adv, config)
    assert sizes and max(sizes) <= 20
    assert games.transcript_to_text(after) == games.transcript_to_text(before)


# ------------------------------------------------------------- transcript


def test_transcript_text_roundtrip(tmp_path):
    schema, d_eval, d_target, config = toy_setup(n_eval=20)
    t = games.run_model_seeded(
        (1,), d_target, d_eval, games.toy_bit_adversary(), config, record_id="rec 7"
    )
    # A command stamps its config hash; only a stamped transcript reads back.
    t = dataclasses.replace(t, config_hash="0123456789ab")
    path = tmp_path / "t.txt"
    games.save_transcript(t, path)
    assert path.read_text(encoding="utf-8") == games.transcript_to_text(t)
    back = games.load_transcript(path)
    assert back.runs.dtype == games.RUN_DTYPE
    assert np.array_equal(back.runs, t.runs)
    assert back.record_id == "rec 7"
    assert back.game_kind == t.game_kind
    assert back.config_hash == t.config_hash


def test_transcript_roundtrip_keeps_extreme_seeds_and_scores(tmp_path):
    runs = np.array(
        [(1, 0.1, 0), (0, 1e-300, 2**64 - 1), (1, 5e-324, 1), (0, 0.0, 2**63)],
        dtype=games.RUN_DTYPE,
    )
    t = games.GameTranscript(runs, "r", games.TRADITIONAL, "0" * 12)
    path = tmp_path / "t.txt"
    games.save_transcript(t, path)
    back = games.load_transcript(path)
    assert np.array_equal(back.runs, t.runs)
    assert back.runs.tolist() == t.runs.tolist()
    assert games.transcript_to_text(back) == games.transcript_to_text(t)
    assert f"1,0,1e-300,{2**64 - 1}\n2,1,5e-324,1\n" in path.read_text(encoding="utf-8")


def test_transcript_runs_are_read_only():
    schema, d_eval, d_target, config = toy_setup(n_eval=4)
    t = games.run_model_seeded((1,), d_target, d_eval, games.toy_bit_adversary(), config)
    assert t.runs.dtype == games.RUN_DTYPE
    with pytest.raises(ValueError, match="read-only"):
        t.runs["score"][0] = 0.5
    with pytest.raises(ValueError, match="read-only"):
        t.runs[0] = (1, 0.5, 7)


def test_transcript_text_is_versioned(tmp_path):
    path = tmp_path / "t.txt"
    path.write_text("# something-else v9\n")
    with pytest.raises(ConfigError):
        games.load_transcript(path)


def test_transcript_header_carries_config_hash():
    # A game leaves the hash empty; the header shows whatever the
    # command stamps on the transcript.
    schema, d_eval, d_target, config = toy_setup(n_eval=10)
    t = games.run_model_seeded(
        (1,), d_target, d_eval, games.toy_bit_adversary(), config
    )
    assert t.config_hash == ""
    stamped = dataclasses.replace(t, config_hash="0123456789ab")
    first = games.transcript_to_text(stamped).splitlines()[0]
    assert "config=0123456789ab" in first.split()


def test_transcript_cut_short_is_rejected(tmp_path):
    # Cut inside its last row, a transcript would load with a shorter
    # run_seed; the missing final newline gives the cut away.
    schema, d_eval, d_target, config = toy_setup(n_eval=4)
    t = games.run_model_seeded((1,), d_target, d_eval, games.toy_bit_adversary(), config)
    path = tmp_path / "t.txt"
    games.save_transcript(t, path)
    path.write_bytes(path.read_bytes()[:-3])
    with pytest.raises(ConfigError, match="line 6: cut short, no newline at the end") as exc:
        games.load_transcript(path)
    assert str(path) in str(exc.value)


def test_failed_save_leaves_previous_transcript(tmp_path, monkeypatch):
    schema, d_eval, d_target, config = toy_setup(n_eval=4)
    adv = games.toy_bit_adversary()
    old = games.run_model_seeded((1,), d_target, d_eval, adv, config)
    new = games.run_model_seeded(
        (1,), d_target, d_eval, adv, dataclasses.replace(config, master_seed=5)
    )
    old, new = (dataclasses.replace(t, config_hash="0123456789ab") for t in (old, new))
    assert not np.array_equal(new.runs, old.runs)
    path = tmp_path / "t.txt"
    games.save_transcript(old, path)

    def fail(src, dst):
        raise OSError("no space left on device")

    # The save dies after writing its temporary file, before the replace.
    monkeypatch.setattr(data.os, "replace", fail)
    with pytest.raises(ConfigError, match="t.txt: cannot write"):
        games.save_transcript(new, path)
    assert path.read_text(encoding="utf-8") == games.transcript_to_text(old)
    assert np.array_equal(games.load_transcript(path).runs, old.runs)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["t.txt"]  # no t.txt.tmp


_TRANSCRIPT_HEADER = (
    "# privgames-transcript v1 config=0123456789ab game=traditional n_eval=2 record=r\n"
)
_TRANSCRIPT_COLUMNS = "run_index,secret_bit,score,run_seed\n"


@pytest.mark.parametrize("row, message", [
    ("1,2", "line 4: expected 4 fields, got 2"),
    ("x,1,0.5,3", "line 4: run_index 'x' is not an integer"),
    ("1,3,0.5,3", "line 4: secret_bit '3' is not 0 or 1"),
    ("1,0,nan,3", "line 4: score 'nan' is not finite"),
    ("1,0,-inf,3", "line 4: score '-inf' is not finite"),
    ("", "line 1: header n_eval=2 does not match the 1 round rows"),
    ("0,0,0.5,3", "line 4: run_index '0' is not 1"),
    ("1,0,0.5,-1", r"line 4: run_seed '-1' is not in \[0, 2\*\*64\)"),
    (f"1,0,0.5,{2**64}", rf"line 4: run_seed '{2**64}' is not in \[0, 2\*\*64\)"),
    ("1,0,0.5\udcff,3", r"not UTF-8 text \(invalid start byte\)"),
    # Whole files, for defects above the second round row.
    (
        _TRANSCRIPT_HEADER + "not,the,columns\n0,1,0.5,9\n1,0,0.5,3\n",
        "line 2: unexpected column header 'not,the,columns'",
    ),
    (
        _TRANSCRIPT_HEADER.replace("traditional", "whatever")
        + _TRANSCRIPT_COLUMNS + "0,1,0.5,9\n1,0,0.5,3\n",
        "line 1: game 'whatever' is not one of traditional, model_seeded",
    ),
    (
        _TRANSCRIPT_HEADER.replace("0123456789ab", "abc")
        + _TRANSCRIPT_COLUMNS + "0,1,0.5,9\n1,0,0.5,3\n",
        "line 1: config 'abc' is not 12 lowercase hex digits",
    ),
    (
        _TRANSCRIPT_HEADER.replace("n_eval=2", "n_eval=x")
        + _TRANSCRIPT_COLUMNS + "0,1,0.5,9\n1,0,0.5,3\n",
        "line 1: n_eval 'x' is not an integer",
    ),
    (
        _TRANSCRIPT_HEADER + _TRANSCRIPT_COLUMNS + "5,1,0.5,9\n5,0,0.5,3\n",
        "line 3: run_index '5' is not 0",
    ),
])
def test_transcript_malformed_row_names_line(tmp_path, row, message):
    text = row
    if not row.startswith("#"):
        text = f"{_TRANSCRIPT_HEADER}{_TRANSCRIPT_COLUMNS}0,1,0.5,9\n{row}\n"
    path = tmp_path / "t.txt"
    path.write_bytes(text.encode("utf-8", errors="surrogateescape"))
    with pytest.raises(ConfigError, match=message) as exc:
        games.load_transcript(path)
    assert str(path) in str(exc.value)


@pytest.mark.parametrize("keys, message", [
    ("config=0123456789ab config=0123456789ab game=traditional n_eval=2 record=r",
     "key 'config' appears twice"),
    ("config=0123456789ab n_eval=2 record=r", "key 'game' is missing"),
    ("config=0123456789ab game=traditional n_eval=2", "key 'record' is missing"),
    ("config=0123456789ab game=traditional n_eval=2 record=r seed=3",
     "key 'seed' is not one of config, game, n_eval, record"),
    ("game=traditional config=0123456789ab n_eval=2 record=r", "key 'game' is out of order"),
])
def test_transcript_header_keys_are_its_declared_keys(tmp_path, keys, message):
    path = tmp_path / "t.txt"
    path.write_text(
        f"# privgames-transcript v1 {keys}\n{_TRANSCRIPT_COLUMNS}0,1,0.5,9\n1,0,0.5,3\n"
    )
    with pytest.raises(ConfigError, match=f"t.txt, line 1: header {message}$"):
        games.load_transcript(path)


@pytest.mark.parametrize("record_id", ["a b=c", "a\nb", "a\rb"], ids=["pair", "lf", "cr"])
def test_transcript_header_that_would_not_read_back_is_refused(tmp_path, record_id):
    # "a b=c" would read back as record=a and a key b; a line break would
    # end the header line.  Either is refused before the file is written.
    runs = np.zeros(2, dtype=games.RUN_DTYPE)
    transcript = games.GameTranscript(runs, record_id, games.TRADITIONAL, "0123456789ab")
    path = tmp_path / "t.txt"
    with pytest.raises(DomainError, match=re.escape(f"transcript header record={record_id!r}")):
        games.save_transcript(transcript, path)
    assert not path.exists()
    games.save_transcript(dataclasses.replace(transcript, record_id="a b"), path)
    assert games.load_transcript(path).record_id == "a b"


# ------------------------------------------------ per-round reference

# A game derives its seeds as arrays (derive_many), opens its streams a
# batch at a time (Streams) and builds a batch's training sets as one
# array; the per-round reference derives each seed with the scalar
# derive, opens each stream with a fresh rng and builds each training set
# on its own.  The transcripts must be the same bytes, at any worker
# count, at one round per batch and with fit chunks cut by a small
# element budget.


def _toy_adversary(release_bits):
    """``games.toy_bit_adversary`` over a per-round ``release_bits``."""

    def adversary(probs, seeds):
        return [float(bit) for bit in release_bits(probs, seeds)]

    return adversary


def _mean_adversary(sampler):
    """Scores a round by the mean value of a 9-row release, whatever the
    layout of its values: records or columns."""

    def adversary(gens, seeds):
        return [float(values.mean()) for values in sampler(gens, 9, seeds)]

    return adversary


def _world(game, spec, reference):
    """The target, pools, partials, adversary and mixture specs of the
    reference comparisons: the package's adversary, or the per-round
    reference's."""
    import reference as ref

    schema = data.Schema(
        (
            data.Column("a", data.ORDERED, 3),
            data.Column("b", data.CATEGORICAL, 4),
            data.Column("c", data.ORDERED, 2),
        )
    )
    rows = [[i % 3, (i * 7) % 4, (i // 3) % 2] for i in range(40)]
    x = (1, 2, 0)
    if game == "duplicates":
        # Value-equal copies of x in the pool: traditional rounds must
        # draw from the pool without them.
        d_eval = data.Dataset(schema, rows[:5] + [list(x)] + rows[5:30] + [list(x)] * 2 + rows[30:])
    else:
        d_eval = data.Dataset(schema, rows)
    d_target = data.Dataset(schema, rows[:5] + [list(x)] + rows[6:9] + [list(x)])
    partials = [data.Dataset(schema, rows[10:16]), data.Dataset(schema, rows[20:27])]
    if spec.kind == generators.TOY:
        adversary = (
            _toy_adversary(ref.reference_release_bits) if reference else games.toy_bit_adversary()
        )
        specs = [spec, toy_spec(0.6, 0.3)]
    else:
        adversary = _mean_adversary(
            ref.reference_sample_batch if reference else generators.sample_columns
        )
        specs = [spec, generators.GeneratorSpec(generators.PRIVBAYNET, max_parents=1, epsilon=3.0)]
    return x, d_eval, d_target, partials, adversary, specs


def _play(game, spec, threads, reference):
    import reference as ref

    x, d_eval, d_target, partials, adversary, specs = _world(game, spec, reference)
    traditional = game in ("traditional", "duplicates", "mixture")
    kind = games.TRADITIONAL if traditional else games.MODEL_SEEDED
    mode = games.REFERENCE_FIXED if game == "fixed" else games.REFERENCE_PER_RUN
    n = d_target.n if kind == games.MODEL_SEEDED else 8
    config = games.GameConfig(24, n, spec, 4242, kind, reference_mode=mode)
    if game == "mixture" and reference:
        t = ref.reference_run_traditional_mixture(x, partials, adversary, config, specs=specs)
    elif game == "mixture":
        t = games.run_traditional_mixture(
            x, partials, adversary, config, specs=specs, threads=threads
        )
    elif reference:
        t = ref.reference_run_game(x, d_eval, d_target, adversary, config)
    else:
        t = play_alone(x, d_eval, d_target, adversary, config, threads=threads)
    return games.transcript_to_text(t)


@pytest.mark.parametrize("batching", ["threads-1", "threads-2", "one-round", "budget-700"])
@pytest.mark.parametrize("game", ["traditional", "duplicates", "per_run", "fixed", "mixture"])
@pytest.mark.parametrize(
    "spec",
    [toy_spec(), generators.GeneratorSpec(generators.PRIVBAYNET, max_parents=2, epsilon=1.0)],
    ids=["toy", "privbaynet"],
)
def test_transcript_matches_per_round_reference(monkeypatch, spec, game, batching):
    threads = 2 if batching == "threads-2" else 1
    budget = {"one-round": 1, "budget-700": 700}.get(batching)
    if budget is not None:
        monkeypatch.setattr(generators, "BATCH_ELEMENTS", budget)
    batched = _play(game, spec, threads, reference=False)
    assert batched == _play(game, spec, threads, reference=True)


def _flipped(adversary):
    """An adversary whose scores are 1 minus ``adversary``'s."""
    return lambda fits, seeds: [1.0 - score for score in adversary(fits, seeds)]


@pytest.mark.parametrize("cap", ["one-round", "seven", "default", "whole-grid"])
@pytest.mark.parametrize("game", ["traditional", "per_run", "fixed"])
@pytest.mark.parametrize(
    "spec",
    [toy_spec(), generators.GeneratorSpec(generators.BAYNET, max_parents=2)],
    ids=["toy", "baynet"],
)
def test_grid_transcripts_match_per_game_reference(monkeypatch, spec, game, cap):
    # A grid of two records, each with a traditional, a per-run and a
    # fixed-reference model-seeded game, ``game`` first.  Its rounds are
    # played in spans that cross game and kind boundaries but not records:
    # spans of 7 rounds hold the end of one game and the start of the
    # next, and a network span fits them in one fit_batch.  A network
    # record's games are scored by an adversary of its own, but for the
    # second record's last game, so a span ends there too; the toy games
    # share one adversary.
    # These rounds are light, so the default span holds the whole 40-round
    # grid.  Whatever the cap, each game's transcript is the bytes of that
    # game played alone by the per-round reference.
    import reference as ref

    x, d_eval, d_target, _, adversary, _ = _world(game, spec, reference=False)
    *_, ref_adversary, _ = _world(game, spec, reference=True)
    adversaries = [[(adversary, ref_adversary)] * 3, [(adversary, ref_adversary)] * 3]
    if spec.kind != generators.TOY:
        adversaries[1][:2] = [(_flipped(adversary), _flipped(ref_adversary))] * 2
    kinds = {
        "traditional": (games.TRADITIONAL, games.REFERENCE_PER_RUN),
        "per_run": (games.MODEL_SEEDED, games.REFERENCE_PER_RUN),
        "fixed": (games.MODEL_SEEDED, games.REFERENCE_FIXED),
    }
    names = list(kinds)
    order = names[names.index(game):] + names[: names.index(game)]
    sizes, seeds_ = iter((4, 10, 6, 10, 4, 6)), iter(range(31, 37))
    grid, alone = [], []
    for rid, record, scorers in zip(("7", "8"), (x, d_target.record(0)), adversaries):
        for name, (adv, ref_adv) in zip(order, scorers):
            kind, mode = kinds[name]
            config = games.GameConfig(
                next(sizes), d_target.n, spec, next(seeds_), kind, reference_mode=mode
            )
            grid.append(games.Game(record, rid, config, adv))
            alone.append(ref.reference_run_game(record, d_eval, d_target, ref_adv, config, rid))
    spans = []
    default = games._span_rounds

    def span_rounds(total, set_cells, threads):
        caps = {"one-round": 1, "seven": 7, "whole-grid": 40}
        size = caps.get(cap) or default(total, set_cells, threads)
        spans.append(size)
        return size

    monkeypatch.setattr(games, "_span_rounds", span_rounds)
    texts = [games.transcript_to_text(t) for t in games.run_games(grid, d_eval, d_target)]
    assert spans == [{"one-round": 1, "seven": 7, "default": 40, "whole-grid": 40}[cap]]
    assert texts == [games.transcript_to_text(t) for t in alone]


def test_toy_game_larger_than_a_span_stays_within_the_batch_budget(monkeypatch):
    # A toy round builds no training set, so a span holds as many rounds
    # as fit in the batch budget at ROUND_ELEMENTS each: an 8,000-round
    # game plays in spans of batch_size(ROUND_ELEMENTS) rounds.  Its traced
    # peak is its transcript rows plus one span's arrays and 64 KiB of
    # small objects; one span of all 8,000 rounds would need about 1.1 MB
    # more.  The bytes are those of 1-round spans.
    _, d_eval, d_target, config = toy_setup(n_eval=8000)
    adversary = games.toy_bit_adversary()
    size = generators.batch_size(games.ROUND_ELEMENTS)
    spans = []
    toy_fits = generators.toy_fits

    def spy(spec, members):
        spans.append(len(members))
        return toy_fits(spec, members)

    monkeypatch.setattr(generators, "toy_fits", spy)
    play_alone((1,), d_eval, d_target, adversary, config)  # fills the lru caches
    spans.clear()
    tracemalloc.start()
    try:
        played = play_alone((1,), d_eval, d_target, adversary, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert spans == [size] * (8000 // size) + [8000 % size]
    assert peak <= games.RUN_DTYPE.itemsize * 8000 + 8 * games.ROUND_ELEMENTS * size + 65536
    monkeypatch.setattr(games, "_span_rounds", lambda total, set_cells, threads: 1)
    alone = play_alone((1,), d_eval, d_target, adversary, config)
    assert games.transcript_to_text(played) == games.transcript_to_text(alone)


def test_grid_refuses_games_that_differ_in_spec_or_dataset_size():
    # One fit_batch call takes one (B, n, d) array: the games of a grid
    # share their generator spec and dataset_size, and may differ in all
    # else, kind and reference mode included.
    _, d_eval, d_target, config = toy_setup(n_eval=10)
    for other in (
        dataclasses.replace(config, dataset_size=5),
        dataclasses.replace(config, generator_spec=toy_spec(0.7, 0.2)),
    ):
        with pytest.raises(ConfigError, match="must share generator_spec and dataset_size"):
            games.run_games(
                [games.Game((1,), "", c, blind_adversary) for c in (config, other)],
                d_eval, d_target,
            )
    with pytest.raises(ConfigError, match="at least one game"):
        games.run_games([], d_eval, d_target)
    configs = [
        config,
        dataclasses.replace(config, n_eval=4, master_seed=5),
        dataclasses.replace(config, game_kind=games.TRADITIONAL),
        dataclasses.replace(config, reference_mode=games.REFERENCE_FIXED),
    ]
    grid = [games.Game((1,), "", c, blind_adversary) for c in configs]
    transcripts = list(games.run_games(grid, d_eval, d_target))
    assert [len(t.runs) for t in transcripts] == [10, 4, 10, 10]
    assert [t.game_kind for t in transcripts] == [
        games.MODEL_SEEDED, games.MODEL_SEEDED, games.TRADITIONAL, games.MODEL_SEEDED
    ]


@pytest.mark.parametrize("threads", [1, 3])
@pytest.mark.parametrize("where", ["precondition", "adversary error", "span"])
def test_a_failed_game_fails_its_record_alone(where, threads):
    # Record "b" fails: its model-seeded game's target is not in d_target,
    # its adversary is an error, or its adversary raises on its first
    # span.  Each of b's games yields b's error, no later span of b is
    # played, and records "a" and "c" keep the transcripts they have alone.
    _, d_eval, d_target, config = toy_setup(n_eval=10)
    traditional = dataclasses.replace(config, game_kind=games.TRADITIONAL)
    calls = []

    def failing(fits, seeds):
        calls.append(len(fits))
        raise PrivGamesError("induced failure")

    x_b, adversary_b = (1,), failing
    if where == "precondition":
        x_b, adversary_b = (9,), blind_adversary
    elif where == "adversary error":
        adversary_b = PrivGamesError("no adversary")
    grid = [
        games.Game(x, rid, c, adversary)
        for rid, x, adversary in (
            ("a", (1,), blind_adversary), ("b", x_b, adversary_b), ("c", (2,), blind_adversary)
        )
        for c in (traditional, config)
    ]
    results = list(games.run_games(grid, d_eval, d_target, threads))
    error = results[2]
    assert isinstance(error, PrivGamesError) and results[3] is error
    assert error.__traceback__ is None
    # b's two games are one span of 20 rounds.
    assert calls == ([20] if where == "span" else [])
    for game, result in zip(grid, results):
        if game.record_id != "b":
            alone = play_alone(game.x, d_eval, d_target, game.adversary, game.config)
            assert result.record_id == game.record_id
            assert result.runs.tobytes() == alone.runs.tobytes()


NETWORK_SPEC = generators.GeneratorSpec(generators.INDEPENDENT)
STREAM_CASES = [
    (games.MODEL_SEEDED, games.REFERENCE_FIXED, 0),
    (games.MODEL_SEEDED, games.REFERENCE_PER_RUN, 0),
    (games.TRADITIONAL, games.REFERENCE_PER_RUN, 40),
]


@pytest.mark.parametrize("threads", [1, 3])
@pytest.mark.parametrize(
    "spec, kind, mode, opened",
    [
        pytest.param(NETWORK_SPEC, kind, mode, opened, id=f"{kind}-{mode}-{opened}")
        for kind, mode, opened in STREAM_CASES
    ]
    + [
        pytest.param(toy_spec(), kind, mode, 0, id=f"toy-{kind}-{mode}")
        for kind, mode, _ in STREAM_CASES
    ],
)
def test_data_streams_opened_only_for_rounds_that_draw(
    monkeypatch, spec, kind, mode, opened, threads
):
    # A network's model-seeded in-round trains on d_target as it is and
    # a fixed game draws its references once, so neither reads its
    # round's data stream.  Per-run out-rounds read theirs through
    # Streams.integers, which builds no Generator; only traditional
    # rounds open one, for their pool draw.  Toy rounds build no set at
    # all, so they read no data stream.  Besides these, the game opens one
    # stream, for its secret bits' permutation.
    opens, words_read = [], []

    class CountingStreams(games.Streams):
        def __getitem__(self, i):
            item = super().__getitem__(i)
            if not isinstance(item, seeds.Streams):
                opens.append(i)
            return item

    real_outputs = seeds._outputs

    def recording_outputs(words, count):
        words_read.extend(map(tuple, words.tolist()))
        return real_outputs(words, count)

    def no_sets(*args):
        raise AssertionError("a toy round built a training set")

    monkeypatch.setattr(games, "Streams", CountingStreams)
    monkeypatch.setattr(seeds, "_outputs", recording_outputs)
    if spec.kind == generators.TOY:
        monkeypatch.setattr(data, "sample_training_sets", no_sets)
        monkeypatch.setattr(games, "_model_seeded_sets", no_sets)
    _, d_eval, d_target, config = toy_setup(n_eval=40, kind=kind)
    config = dataclasses.replace(config, generator_spec=spec, reference_mode=mode)
    runs = play_alone((1,), d_eval, d_target, blind_adversary, config, threads=threads).runs
    assert len(opens) == opened + 1
    expected = []
    if spec == NETWORK_SPEC and (kind, mode) == (games.MODEL_SEEDED, games.REFERENCE_PER_RUN):
        out_rounds = runs["run_seed"][runs["secret_bit"] == 0]
        expected = seeds.Streams(derive_many(out_rounds, "data"))._words.tolist()
        assert len(expected) == 20
    if spec == NETWORK_SPEC and mode == games.REFERENCE_FIXED:
        # The fixed references are the first integers of one stream.
        expected = seeds.Streams(derive_many(config.master_seed, "reference"))._words.tolist()
    assert sorted(words_read) == sorted(map(tuple, expected))
