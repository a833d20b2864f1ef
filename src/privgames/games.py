"""The two membership-inference privacy games.

Both games run ``n_eval`` independent rounds.  Each round draws a secret
bit b, builds a training dataset that contains the target record exactly
when b = 1, fits a fresh generator on it, and asks the adversary for a
membership score.  The games differ only in how the dataset is built:

* traditional: the dataset is resampled from the evaluation pool every
  round, so the resulting risk is an average over training datasets the
  release generator was never fit on.
* model-seeded: the released generator's own training dataset is held
  fixed; out-rounds replace the target with a reference record drawn
  from the evaluation pool.  The resulting risk belongs to the actual
  release.

Bits are balanced exactly (half 1, half 0) rather than i.i.d., so both
empirical rates are estimated from n_eval / 2 rounds each.  Every round
derives its own seed from the master seed and its index, which makes
transcripts independent of execution order and of how rounds are
grouped.  So games are played as grids: ``run_games`` plays games of one
record, kind and adversary that differ only in ``n_eval`` and master
seed (a convergence study's points and repetitions), and ``run_game``
is a grid of one.  A grid checks the preconditions once, draws every
game's bit permutation from one ``seeds.Streams`` of the games' bit
seeds, then plays the rounds of all its games, game after game, in
spans of consecutive rounds that may cross game boundaries.  A span
derives its rounds' run, data, fit and adversary seeds in one
``seeds.derive_many`` call each, hashes its data seeds through one
``seeds.Streams``, builds its training sets as one ``(B, n, d)`` int64
array, fits them in one ``generators.fit_batch`` call and scores them in
one adversary call.  A span holds at most the rounds of the grid's
largest game, a ``threads``-th of them with ``threads > 1`` (a window of
``threads`` spans then runs in a thread pool), and for networks at most
``generators.batch_size`` training sets: no array outgrows what the
largest game builds alone.  Each game's transcript, one ``RUN_DTYPE``
array of (secret bit, score, run seed) rows, is yielded once its last
span is scored, the same bytes whatever the spans.

Traditional rounds gather their pool draws in one pass
(``data.sample_training_sets``), model-seeded rounds copy ``d_target``
and overwrite x's rows in out-rounds, and the mixture game stacks one
array per drawn partial and secret bit.  No round builds a
``SeedSequence`` of its own, and only a network's traditional round
builds a Generator on its data stream, for its pool draw: model-seeded
references (fixed ones every game's at once) and the mixture's partial
are each stream's first ``integers``, which ``Streams.integers``
computes for a whole span.  A toy fit reads nothing of its set but
whether x is in it, which every game makes true exactly when the round's
bit is 1, so after the preconditions toy rounds build no set: a span's
fits are ``generators.toy_fits`` of its bit array, one array of release
probabilities, and the traditional and model-seeded games derive no data
or fit seed for them.  The mixture still draws each round's partial,
whose spec the fit takes, and refuses specs that mix the toy with a
network kind.  An adversary is a function ``adversary(fits, seeds) ->
scores``: one membership score per round's fit (a ``FittedGenerator``,
or a toy's entry of that array), each given its round's adversary seed,
so a toy span draws its release bits in one ``generators.release_bits``
call.  The counting-query adversary samples the releases in batched
calls, each returning one ``(k, n, d)`` array of one schema, and scores
each as one array, but each logit stays one dot product per release (see
``attack``).  A transcript file is a ``data.table_lines`` table of one
row per round, headed by the hash of the experiment config that the
command stamps on it, and read back strictly by ``load_transcript``.
"""

import math
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from . import data as data_mod
from . import generators
from .errors import ConfigError, PreconditionError, SizeError
from .seeds import Streams, derive_many, rng

TRADITIONAL = "traditional"
MODEL_SEEDED = "model_seeded"

GAME_KINDS = (TRADITIONAL, MODEL_SEEDED)
TRANSCRIPT_COLUMNS = "run_index,secret_bit,score,run_seed"
# One row of a transcript; a uint64 holds every derived seed.
RUN_DTYPE = np.dtype([("secret_bit", np.int64), ("score", np.float64), ("run_seed", np.uint64)])

REFERENCE_PER_RUN = "per_run"
REFERENCE_FIXED = "fixed"


@dataclass(frozen=True)
class GameConfig:
    """Shared configuration of one game evaluation.

    Parameters
    ----------
    n_eval : int
        Number of rounds; must be even so the secret bits balance.
    dataset_size : int
        Training dataset size n used by the traditional game and checked
        against the released model's dataset in the model-seeded game.
    generator_spec : GeneratorSpec
        Generator fit fresh in every round.
    master_seed : int
        Root of every derived seed in the evaluation.
    game_kind : str
        ``"traditional"`` or ``"model_seeded"``.
    reference_mode : str
        Model-seeded only: ``"per_run"`` draws fresh reference records
        each out-round, ``"fixed"`` draws them once and reuses them.
    """

    n_eval: int
    dataset_size: int
    generator_spec: object
    master_seed: int
    game_kind: str
    reference_mode: str = REFERENCE_PER_RUN

    def __post_init__(self):
        if self.n_eval < 2 or self.n_eval % 2 != 0:
            raise ConfigError(f"n_eval must be a positive even number, got {self.n_eval}")
        if self.dataset_size < 1:
            raise ConfigError(f"dataset_size must be >= 1, got {self.dataset_size}")
        if self.game_kind not in GAME_KINDS:
            raise ConfigError(f"unknown game kind {self.game_kind!r}")
        if self.reference_mode not in (REFERENCE_PER_RUN, REFERENCE_FIXED):
            raise ConfigError(f"unknown reference mode {self.reference_mode!r}")


@dataclass(frozen=True, eq=False)
class GameTranscript:
    """Everything one game evaluation produced.  ``runs`` is a read-only
    ``RUN_DTYPE`` array, one row per round: a round's run index is its row.
    ``config_hash`` is empty until a command stamps its config hash on it."""

    runs: np.ndarray
    record_id: str
    game_kind: str
    config_hash: str = ""

    def __post_init__(self):
        self.runs.flags.writeable = False


def balanced_bits(n_eval, seed):
    """Exactly n_eval/2 ones and zeros, in seeded random order."""
    return _shuffled_bits(n_eval, rng(seed))


def _shuffled_bits(n_eval, stream):
    """Exactly n_eval/2 ones and zeros, in the order of the first
    permutation the Generator ``stream`` draws."""
    bits = np.zeros(n_eval, dtype=np.int64)
    bits[: n_eval // 2] = 1
    return stream.permutation(bits)


def _span_rounds(largest, set_cells, threads):
    """Rounds per span: a ``threads``-th of the largest game's, and no more
    training sets of ``set_cells`` values than ``generators.batch_size``."""
    return min(generators.batch_size(set_cells), -(-largest // threads))


def _play(configs, record_id, adversary, fit_rounds, threads, set_cells, data_tag="data"):
    """Play the games of a grid; yields each game's transcript, in order,
    once its last round is scored.

    The rounds of all games, game after game, are played in spans of
    consecutive rounds that may cross game boundaries.
    ``fit_rounds(secret, streams, seeds, game)`` builds the training sets
    of a span with the secret bit array ``secret`` and returns their
    fits, round i fit with ``seeds[i]``; ``streams[i]`` is round i's data
    stream, opened only by rounds that draw, and ``game[i]`` the index
    in ``configs`` of its game.  A training set holds at most
    ``set_cells`` values.  With ``data_tag`` None the rounds draw
    nothing: ``fit_rounds(secret)`` returns their fits from the bits
    alone, and no data or fit seed is derived."""
    kind = configs[0].game_kind
    sizes = np.array([c.n_eval for c in configs])
    ends = np.cumsum(sizes)
    firsts = ends - sizes
    total = int(ends[-1])
    # Only a master seed's low 64 bits count, as in ``derive``.
    masters = np.array([int(c.master_seed) % 2**64 for c in configs], dtype=np.uint64)
    bit_streams = Streams(derive_many(masters, "bits"))
    size = _span_rounds(int(sizes.max()), set_cells, threads)
    started = {}  # game -> its runs, from its first span to its last

    def span_fits(lo, hi, pieces):
        """The run seeds and fits of rounds lo..hi-1.  Its index arrays die
        on return, before the adversary (a span's largest step) runs."""
        game = np.searchsorted(ends, np.arange(lo, hi), side="right")
        run_seeds = derive_many(masters[game], "run", np.arange(lo, hi) - firsts[game])
        secret = np.concatenate([runs["secret_bit"][a:b] for runs, a, b in pieces])
        if data_tag is None:
            return run_seeds, fit_rounds(secret)
        streams = Streams(derive_many(run_seeds, data_tag))
        return run_seeds, fit_rounds(secret, streams, derive_many(run_seeds, "fit"), game)

    def play(lo, hi):
        first, last = np.searchsorted(ends, [lo, hi - 1], side="right").tolist()
        pieces = [
            (started[g], max(lo, firsts[g]) - firsts[g], min(hi, ends[g]) - firsts[g])
            for g in range(first, last + 1)
        ]
        run_seeds, fits = span_fits(lo, hi, pieces)
        scores = np.asarray(adversary(fits, derive_many(run_seeds, "adversary")), dtype=np.float64)
        at = 0
        for runs, a, b in pieces:
            runs["run_seed"][a:b] = run_seeds[at : at + b - a]
            runs["score"][a:b] = scores[at : at + b - a]
            at += b - a

    opened = done = 0
    with ThreadPoolExecutor(max_workers=threads) if threads > 1 else nullcontext() as pool:
        run = map if pool is None else pool.map
        # A window of one span per thread runs at a time.
        for lo in range(0, total, size * threads):
            window = range(lo, min(lo + size * threads, total), size)
            his = [min(a + size, total) for a in window]
            while opened < len(configs) and firsts[opened] < his[-1]:
                started[opened] = np.empty(sizes[opened], dtype=RUN_DTYPE)
                started[opened]["secret_bit"] = _shuffled_bits(sizes[opened], bit_streams[opened])
                opened += 1
            list(run(play, window, his))  # re-raises a span's error
            while done < opened and ends[done] <= his[-1]:
                yield GameTranscript(started.pop(done), str(record_id), kind)
                done += 1


def traditional_pool(x, d_eval):
    """Evaluation pool with every record value-equal to x removed.

    Sampling from this pool is what makes out-round datasets genuinely
    target-free even when the pool holds duplicates of x.
    """
    drop = data_mod.value_equal_indices(d_eval, x)
    if len(drop) == 0:
        return d_eval
    mask = np.ones(d_eval.n, dtype=bool)
    mask[drop] = False
    return data_mod.Dataset(d_eval.schema, d_eval.values[mask])


def traditional_dataset(pool, x, n, b, seed):
    """Training dataset of one traditional round.

    b = 1: x plus n-1 pool records; b = 0: n pool records, drawn from
    the stream of ``seed``.  A batch of one of
    ``data.sample_training_sets``, which the game calls.
    """
    values = data_mod.sample_training_sets(pool, x, n, [b], Streams([seed]))[0]
    return data_mod.Dataset(pool.schema, values)


def run_traditional(x, d_eval, adversary, config, record_id="", threads=1):
    """Play the dataset-resampling game for one record.

    Parameters
    ----------
    x : record tuple
        Target record; must conform to the evaluation pool's schema.
    d_eval : Dataset
        Evaluation pool the per-round datasets are resampled from.
    adversary : callable
        ``adversary(gens, seeds)`` returns a membership score in [0, 1]
        for each round's fitted generator, given the round's adversary
        seed.
    config : GameConfig
    record_id : str
    threads : int
        When > 1, the rounds are split into this many chunks, each fit
        and scored as one batch in a thread pool; the transcript is
        identical either way.

    Returns
    -------
    GameTranscript
        A grid of one game (see ``run_games``).
    """
    if config.game_kind != TRADITIONAL:
        raise ConfigError(f"config is for {config.game_kind!r}, not traditional")
    (transcript,) = run_games(
        x, d_eval, None, adversary, [config], record_id=record_id, threads=threads
    )
    return transcript


def _model_seeded_sets(d_target, x_positions, ref_values, secret, streams, fixed_refs):
    """Training sets of model-seeded rounds, as one ``(B, n, d)`` array:
    ``d_target`` in every round, its ``x_positions`` rows replaced in
    out-rounds.  ``fixed_refs``, if given, holds the pre-drawn references
    of every round, or ``(B, len(x_positions), d)`` those of each round;
    otherwise only out-rounds read their stream: its first ``integers``,
    computed for all of them at once without a Generator."""
    values = np.repeat(d_target.values[None], len(secret), axis=0)
    out = np.flatnonzero(np.equal(secret, 0))
    if fixed_refs is None:
        refs = ref_values[streams[out].integers(len(ref_values), len(x_positions))]
    else:
        refs = np.broadcast_to(fixed_refs, (len(secret),) + np.shape(fixed_refs)[-2:])[out]
    values[np.ix_(out, x_positions)] = refs
    return values


def model_seeded_dataset(d_target, x_positions, ref_values, b, seed, fixed_refs=None):
    """Training dataset of one model-seeded round.

    b = 1 uses the released training dataset as-is.  b = 0 replaces
    every copy of the target (each row in ``x_positions``) with a
    reference record: a fresh independent draw per copy from the stream
    of ``seed``, or the pre-drawn rows in ``fixed_refs``.  A batch of one
    of ``_model_seeded_sets``.
    """
    values = _model_seeded_sets(
        d_target, x_positions, ref_values, [b], Streams([seed]), fixed_refs
    )
    return data_mod.Dataset(d_target.schema, values[0])


def run_model_seeded(x, d_target, d_eval, adversary, config, record_id="", threads=1):
    """Play the fixed-dataset game for one record of the released model.

    ``d_target`` is the dataset the released generator was trained on;
    ``x`` must appear in it.  Out-rounds replace every copy of x with a
    reference record drawn uniformly from the evaluation records not in
    ``d_target``, so all round datasets have the same size.  A grid of
    one game (see ``run_games``).
    """
    if config.game_kind != MODEL_SEEDED:
        raise ConfigError(f"config is for {config.game_kind!r}, not model_seeded")
    (transcript,) = run_games(
        x, d_eval, d_target, adversary, [config], record_id=record_id, threads=threads
    )
    return transcript


def run_games(x, d_eval, d_target, adversary, configs, record_id="", threads=1):
    """Play a grid of games of one kind for one record, every round scored
    by ``adversary``; returns an iterator over the transcripts, in the
    order of ``configs``, each yielded as soon as its last round is scored.

    The games may differ only in ``n_eval`` and ``master_seed``, or
    ConfigError is raised.  The preconditions are checked once, at the
    call (see ``run_traditional`` and ``run_model_seeded``); a fixed-
    reference game draws its references as the first ``integers`` of
    the stream of ``derive(master_seed, "reference")``, every game's at
    once.  Each transcript has the bytes of its game played alone.
    """
    if not configs:
        raise ConfigError("a grid needs at least one game")
    shared = {(c.game_kind, c.dataset_size, c.generator_spec, c.reference_mode) for c in configs}
    if len(shared) > 1:
        raise ConfigError("the games of a grid may differ only in n_eval and master_seed")
    first = configs[0]
    spec = first.generator_spec
    if first.game_kind == TRADITIONAL:
        data_mod.validate_record(d_eval.schema, x)
        pool = traditional_pool(x, d_eval)
        n = first.dataset_size
        if pool.n < n:
            raise SizeError(
                f"evaluation pool has {pool.n} usable records, need {n} per round"
            )

        def fit_rounds(secret, streams, seeds, game):
            values = data_mod.sample_training_sets(pool, x, n, secret.tolist(), streams)
            return generators.fit_batch(spec, pool.schema, values, seeds)

        set_cells = n * len(x)
    else:
        data_mod.validate_record(d_target.schema, x)
        if d_eval.schema != d_target.schema:
            raise PreconditionError(
                "evaluation pool has a different schema than the training dataset"
            )
        if first.dataset_size != d_target.n:
            raise ConfigError(
                f"dataset_size {first.dataset_size} does not match the released "
                f"training dataset of {d_target.n} records"
            )
        x_positions = data_mod.value_equal_indices(d_target, x)
        if len(x_positions) == 0:
            raise PreconditionError("target record is not in the released training dataset")
        # The reference pool: evaluation records outside the released data.
        ref_values = data_mod.rows_not_in(d_eval, d_target)
        if len(ref_values) == 0:
            raise SizeError(
                "no reference records: every evaluation record appears in the training dataset"
            )
        fixed = None
        if first.reference_mode == REFERENCE_FIXED and spec.kind != generators.TOY:
            masters = [c.master_seed for c in configs]
            picks = Streams(derive_many(masters, "reference")).integers(
                len(ref_values), len(x_positions)
            )
            fixed = ref_values[picks]

        def fit_rounds(secret, streams, seeds, game):
            values = _model_seeded_sets(
                d_target, x_positions, ref_values, secret, streams,
                None if fixed is None else fixed[game],
            )
            return generators.fit_batch(spec, d_target.schema, values, seeds)

        set_cells = d_target.values.size
    if spec.kind == generators.TOY:
        # A toy fit reads nothing of its set but whether x is in it, and
        # both games put x there exactly when the round's bit is 1: the
        # traditional pool holds no copy of x, appended only when b = 1,
        # and model-seeded out-rounds replace every copy of x in d_target.
        def toy_rounds(secret):
            return generators.toy_fits(spec, secret)

        return _play(configs, record_id, adversary, toy_rounds, threads, 0, data_tag=None)
    return _play(configs, record_id, adversary, fit_rounds, threads, set_cells)


def run_game(x, d_eval, d_target, adversary, config, record_id="", threads=1):
    """Play the game named by ``config.game_kind`` for one record.

    The traditional game resamples from ``d_eval``; the model-seeded
    game holds ``d_target`` fixed and draws references from ``d_eval``.
    """
    if config.game_kind == TRADITIONAL:
        return run_traditional(
            x, d_eval, adversary, config, record_id=record_id, threads=threads
        )
    return run_model_seeded(
        x, d_target, d_eval, adversary, config, record_id=record_id, threads=threads
    )


def run_traditional_mixture(
    x, partials, adversary, config, record_id="", specs=None, threads=1
):
    """Traditional game over a uniform mixture of partial datasets.

    Each round draws one partial dataset uniformly, then plays a
    traditional round on it: b = 1 trains on the partial plus x, b = 0
    on the partial alone.  ``specs`` optionally gives one generator spec
    per partial (the drawn partial's spec is used); by default every
    round uses ``config.generator_spec``.  At least two partials are
    required and none may contain x, and the specs are all toy or all
    network kinds: one adversary scores every round.  A grid of one game
    (see ``run_games``).
    """
    if config.game_kind != TRADITIONAL:
        raise ConfigError(f"config is for {config.game_kind!r}, not traditional")
    if len(partials) < 2:
        raise PreconditionError(
            f"mixture needs at least two partial datasets, got {len(partials)}"
        )
    schema = partials[0].schema
    data_mod.validate_record(schema, x)
    for j, part in enumerate(partials):
        if part.schema != schema:
            raise PreconditionError(f"partial {j} has a different schema")
        if data_mod.contains(part, x):
            raise PreconditionError(f"partial {j} already contains the target record")
    if specs is None:
        specs = [config.generator_spec] * len(partials)
    elif len(specs) != len(partials):
        raise ConfigError(
            f"{len(specs)} generator specs for {len(partials)} partials"
        )
    networks = [spec.kind for spec in specs if spec.kind != generators.TOY]
    if networks and len(networks) < len(specs):
        raise ConfigError(f"mixture specs mix the toy kind with {networks[0]}")
    if not networks:
        # No partial holds x and b = 1 adds it, so a round's fit is entry
        # [drawn partial, bit] of every spec's two toy fits.
        probs = np.stack([generators.toy_fits(spec, [0, 1]) for spec in specs])

        def fit_rounds(secret, streams, seeds, game):
            return probs[streams.integers(len(partials), 1)[:, 0], secret]

        set_cells = 0
    else:
        # Rounds that drew the same partial and bit train on the same
        # rows, so each such group is fit as one batch of copies.
        rows = {(j, 0): part.values for j, part in enumerate(partials)}
        rows.update({(j, 1): np.vstack([part.values, [x]]) for j, part in enumerate(partials)})

        def fit_rounds(secret, streams, seeds, game):
            keys = list(zip(streams.integers(len(partials), 1)[:, 0].tolist(), secret.tolist()))
            gens = [None] * len(keys)
            for key in dict.fromkeys(keys):
                rounds = [i for i, k in enumerate(keys) if k == key]
                values = np.repeat(rows[key][None], len(rounds), axis=0)
                fitted = generators.fit_batch(specs[key[0]], schema, values, seeds[rounds])
                for i, gen in zip(rounds, fitted):
                    gens[i] = gen
            return gens

        set_cells = max(v.size for v in rows.values())
    (transcript,) = _play(
        [config], record_id, adversary, fit_rounds, threads, set_cells, "mixture"
    )
    return transcript


def toy_bit_adversary():
    """Adversary for the toy generator: the released bits of a batch's
    release probabilities, as a float array of scores."""

    def adversary(probs, seeds):
        return generators.release_bits(probs, seeds).astype(float)

    return adversary


def transcript_to_text(transcript):
    """Line-oriented text form: header, column names, one row per round."""
    fields = dict(
        config=transcript.config_hash, game=transcript.game_kind,
        n_eval=len(transcript.runs), record=transcript.record_id,
    )
    rows = [
        f"{i},{b},{score!r},{seed}" for i, (b, score, seed) in enumerate(transcript.runs.tolist())
    ]
    return "\n".join(data_mod.table_lines("transcript", fields, TRANSCRIPT_COLUMNS, rows)) + "\n"


def save_transcript(transcript, path):
    """Write a transcript atomically (see ``data.write_text``)."""
    data_mod.write_text(path, transcript_to_text(transcript))


def load_transcript(path):
    """Read a transcript written by save_transcript.

    Raises ConfigError, naming the file and line, for another header,
    column line or game kind, a row that is not four numbers, a run
    index other than the row's position, a secret bit other than 0 or 1,
    a score that is not finite, a run seed outside [0, 2**64), or an
    n_eval other than the row count.
    """
    fields, rows = data_mod.read_table(path, "transcript", TRANSCRIPT_COLUMNS)
    game_kind = fields.get("game", "")
    if game_kind not in GAME_KINDS:
        raise ConfigError(f"{path}, line 1: unknown game kind {game_kind!r}")
    runs = []
    for no, row in rows:
        if len(row) != 4:
            raise ConfigError(f"{path}, line {no}: expected 4 fields, got {len(row)}")
        try:
            index, bit, score, seed = int(row[0]), int(row[1]), float(row[2]), int(row[3])
        except ValueError:
            raise ConfigError(f"{path}, line {no}: {','.join(row)!r} is not numeric") from None
        if index != len(runs):
            raise ConfigError(f"{path}, line {no}: run_index {row[0]!r} is not {len(runs)}")
        if bit not in (0, 1):
            raise ConfigError(f"{path}, line {no}: secret_bit {row[1]!r} is not 0 or 1")
        if not math.isfinite(score):
            raise ConfigError(f"{path}, line {no}: score {row[2]!r} is not finite")
        if not 0 <= seed < 2**64:
            raise ConfigError(f"{path}, line {no}: run_seed {row[3]!r} is outside [0, 2**64)")
        runs.append((bit, score, seed))
    n_eval = fields.get("n_eval", "")
    if n_eval != str(len(runs)):
        raise ConfigError(
            f"{path}, line 1: header n_eval={n_eval} does not match the {len(runs)} round rows"
        )
    return GameTranscript(
        np.array(runs, dtype=RUN_DTYPE), record_id=fields.get("record", ""), game_kind=game_kind,
        config_hash=fields.get("config", ""),
    )
