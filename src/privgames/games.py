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
grouped.  So every command plays all its records' games as one grid,
``run_games``, the one way to play a game: a list of ``Game``s, each with
its record, config and adversary.  A grid checks each game's
preconditions before any round is played, draws every game's bit
permutation from one ``seeds.Streams`` of the games' bit seeds, then
plays the rounds in spans of consecutive rounds that may cross game and
kind boundaries, but not a change of record or adversary (``_play``).
A span derives each kind of its rounds' seeds in one
``seeds.derive_many`` call, builds its training sets as one
``(B, n, d)`` array of the schema's narrow dtype and fits them in one
``generators.fit_batch`` call, which hands the networks over one table
chunk at a time: each is scored in one adversary call before the next
chunk's tables are built.  A span holds at most
``generators.batch_size`` rounds of a round's weight (``_span_rounds``),
so it stays within the batch budget however large its games.  Each
game's transcript, one ``RUN_DTYPE`` array of (secret bit, score, run
seed) rows, is yielded once its last span is scored, the same bytes
whatever the spans; a failed game yields its record's error instead.

Traditional rounds gather their pool draws in one pass
(``data.sample_training_sets``) and model-seeded rounds copy
``d_target`` and overwrite x's rows in out-rounds.  No round builds a
``SeedSequence`` of its own, and only a network's traditional round
builds a Generator on its data stream, for its pool draw: model-seeded
references (fixed ones once per game) and the mixture's partial
are each stream's first ``integers``, which ``Streams.integers``
computes for a whole span.  A toy fit reads nothing of its set but
whether x is in it, which every game makes true exactly when the round's
bit is 1, so toy rounds build no set: a span's fits are
``generators.toy_fits`` of its bit array, and its release bits are one
``generators.release_bits`` call.  An adversary is a function
``adversary(fits, seeds) -> scores`` of one chunk, a network's table
batch or a toy's array of release probabilities: one membership score
per round's fit, each given its round's adversary seed (see ``attack``).
A transcript file is a ``data.TABLES`` transcript of one row per round,
headed by the config hash that its command stamps on it: only a stamped
transcript reads back.
"""

from contextlib import nullcontext
from dataclasses import dataclass
from itertools import islice

import numpy as np

from . import data as data_mod
from . import generators
from .errors import ConfigError, PreconditionError, PrivGamesError, SizeError, failure
from .seeds import Streams, derive_many

GAME_KINDS = data_mod.GAME_KINDS
TRADITIONAL, MODEL_SEEDED = GAME_KINDS
# One row of a transcript; a uint64 holds every derived seed.
RUN_DTYPE = np.dtype([("secret_bit", np.int64), ("score", np.float64), ("run_seed", np.uint64)])

# Array elements a span holds per round at its peak, besides the round's
# training set.  The peak is a toy span's, in ``seeds._outputs`` of its
# release streams: the run seeds, adversary seeds and release
# probabilities (3), the streams' hashed words (4) and at most nine
# (2, n, 1) limbs of ``_outputs`` (18) are live, 3 + 4 + 18 = 25.
# Hashing the streams (``seeds._seed_words``) peaks lower, and a network
# round's seeds, data streams and draws hold fewer.
ROUND_ELEMENTS = 25

REFERENCE_PER_RUN = "per_run"
REFERENCE_FIXED = "fixed"


@dataclass(frozen=True)
class GameConfig:
    """One game: ``n_eval`` rounds (even, so the secret bits balance) on
    training sets of ``dataset_size`` records (the released model's, in
    the model-seeded game), each fit fresh with ``generator_spec``; every
    seed derives from ``master_seed``.  ``game_kind`` is ``"traditional"``
    or ``"model_seeded"``; a model-seeded game draws fresh reference
    records each out-round (``reference_mode`` ``"per_run"``) or once
    (``"fixed"``)."""

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


@dataclass(frozen=True, eq=False)
class Game:
    """One game of a grid: its target record ``x`` and record id, its
    config, and the adversary that scores its rounds (see ``_play``)."""

    x: tuple
    record_id: str
    config: GameConfig
    adversary: object


def _span_rounds(total, set_cells, threads):
    """Rounds per span: a ``threads``-th of the grid's ``total``, and no
    more rounds than ``generators.batch_size`` holds of a round's weight,
    its training set's ``set_cells`` plus ``ROUND_ELEMENTS``."""
    return min(generators.batch_size(set_cells + ROUND_ELEMENTS), -(-total // threads))


def _play(grid, fit_rounds, threads, set_cells, data_tag="data", errors=()):
    """Play the ``Game`` list ``grid``; yields, in order, each game's
    transcript once its last round is scored, or its record's error.

    Spans of consecutive rounds may cross games, but not a change of
    record (a run of games with one record id) or adversary.
    ``fit_rounds(secret, streams, seeds, pieces)`` returns the fits of a
    span's rounds, with secret bits ``secret``, as an iterable of chunks
    of consecutive rounds, round i fit with ``seeds[i]`` on data stream
    ``streams[i]``; ``pieces`` lists its ``(game, a, b)``, rounds a..b-1
    of each game.  Each chunk is scored before the next is drawn
    (``generators.score_chunks``).  A training set holds at most
    ``set_cells`` values.  With ``data_tag`` None, ``fit_rounds(secret)``
    returns the fits from the bits alone.  A game of ``errors``, (game,
    error) pairs, or a span that raises a PrivGamesError or runs out of
    memory (``errors.failure``), fails its record: each of its games
    yields the error, and none of its later spans is played.
    """
    sizes = np.array([game.config.n_eval for game in grid])
    ends = np.cumsum(sizes)
    firsts = ends - sizes
    total = int(ends[-1])
    # Only a master seed's low 64 bits count, as in ``derive``.
    masters = np.array([int(g.config.master_seed) % 2**64 for g in grid], dtype=np.uint64)
    bit_streams = Streams(derive_many(masters, "bits"))
    size = _span_rounds(total, set_cells, threads)
    new = [g == 0 or game.record_id != grid[g - 1].record_id for g, game in enumerate(grid)]
    record = np.cumsum(new)
    failed = {record[g]: error for g, error in errors}
    cut = [new[g] or game.adversary is not grid[g - 1].adversary for g, game in enumerate(grid)]
    cuts = [*np.flatnonzero(cut), len(grid)]
    spans = (
        (lo, min(lo + size, ends[b - 1]), record[a])
        for a, b in zip(cuts, cuts[1:])
        for lo in range(firsts[a], ends[b - 1], size)
    )
    started = {}  # game -> its runs, from its first span to its last

    def span_fits(lo, hi, pieces):
        """The run seeds and fit chunks of rounds lo..hi-1.  Its index
        arrays die on return, before the first chunk is fit and scored."""
        game = np.searchsorted(ends, np.arange(lo, hi), side="right")
        run_seeds = derive_many(masters[game], "run", np.arange(lo, hi) - firsts[game])
        secret = np.concatenate([started[g]["secret_bit"][a:b] for g, a, b in pieces])
        if data_tag is None:
            return run_seeds, fit_rounds(secret)
        streams = Streams(derive_many(run_seeds, data_tag))
        return run_seeds, fit_rounds(secret, streams, derive_many(run_seeds, "fit"), pieces)

    def play(lo, hi, _):
        """Rounds lo..hi-1 played, or their record's error."""
        first, last = np.searchsorted(ends, [lo, hi - 1], side="right").tolist()
        pieces = [
            (g, max(lo, firsts[g]) - firsts[g], min(hi, ends[g]) - firsts[g])
            for g in range(first, last + 1)
        ]
        try:
            run_seeds, chunks = span_fits(lo, hi, pieces)
            adversary_seeds = derive_many(run_seeds, "adversary")
            scores = generators.score_chunks(grid[first].adversary, chunks, adversary_seeds)
        except (PrivGamesError, MemoryError) as exc:
            return failure(exc)
        at = 0
        for g, a, b in pieces:
            started[g]["run_seed"][a:b] = run_seeds[at : at + b - a]
            started[g]["score"][a:b] = scores[at : at + b - a]
            at += b - a

    opened = done = 0
    if threads > 1:  # concurrent.futures loads logging and queue: only a pool imports it
        from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=threads) if threads > 1 else nullcontext() as pool:
        run = map if pool is None else pool.map
        while done < len(grid):
            # A window of one span per thread runs at a time; a failed
            # record's spans are skipped.
            window = list(islice((s for s in spans if s[2] not in failed), threads))
            end = window[-1][1] if window else total
            while opened < len(grid) and firsts[opened] < end:
                if record[opened] not in failed:
                    # numpy's permutation shuffles a copy: shuffle the bits in place.
                    runs = started[opened] = np.zeros(sizes[opened], dtype=RUN_DTYPE)
                    runs["secret_bit"][: sizes[opened] // 2] = 1
                    bit_streams[opened].shuffle(runs["secret_bit"])
                opened += 1
            for (*_, r), error in zip(window, run(play, *zip(*window)) if window else ()):
                if error is not None:
                    failed.setdefault(r, error)
            while done < len(grid) and (record[done] in failed or ends[done] <= end):
                runs = started.pop(done, None)
                game = grid[done]
                yield failed.get(record[done]) or GameTranscript(
                    runs, str(game.record_id), game.config.game_kind
                )
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


def checked(result):
    """A grid's transcript ``result``; raises it if it is an error."""
    if isinstance(result, PrivGamesError):
        raise result
    return result


def run_traditional(x, d_eval, adversary, config, record_id="", threads=1):
    """Play the dataset-resampling game for record ``x``, each round's
    set drawn from ``d_eval`` without x's copies, as a grid of one game
    (see ``run_games``), whose error it raises."""
    if config.game_kind != TRADITIONAL:
        raise ConfigError(f"config is for {config.game_kind!r}, not traditional")
    return checked(*run_games([Game(x, record_id, config, adversary)], d_eval, threads=threads))


def _model_seeded_sets(d_target, x_positions, ref_values, secret, streams, fixed_refs):
    """Training sets of model-seeded rounds, as one ``(B, n, d)`` array
    of the schema's narrow dtype (``Schema.dtype``): ``d_target`` in
    every round, its ``x_positions`` rows replaced in out-rounds.
    ``fixed_refs``, if given, holds the pre-drawn references of every
    round, or ``(B, len(x_positions), d)`` those of each round; otherwise
    only out-rounds read their stream: its first ``integers``, computed
    for all of them at once without a Generator."""
    values = np.empty((len(secret),) + d_target.values.shape, dtype=d_target.schema.dtype)
    values[:] = d_target.values
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
    """Play the fixed-dataset game for record ``x`` of the model released
    on ``d_target``, as a grid of one game (see ``run_games``), whose
    error it raises."""
    if config.game_kind != MODEL_SEEDED:
        raise ConfigError(f"config is for {config.game_kind!r}, not model_seeded")
    grid = [Game(x, record_id, config, adversary)]
    return checked(*run_games(grid, d_eval, d_target, threads=threads))


def run_games(grid, d_eval, d_target=None, threads=1):
    """Play the ``Game`` list ``grid``; returns an iterator over their
    transcripts, in order, each yielded once its last round is scored, or
    a failed game's record's error (see ``_play``).

    A traditional round draws its set from ``d_eval`` without x's copies.
    A model-seeded round trains on ``d_target``, out-rounds with x's
    copies replaced by references from the ``d_eval`` records not in it;
    a fixed game's are the first ``integers`` of the stream of
    ``derive(master_seed, "reference")``.  The games share their
    generator spec and ``dataset_size``, or ConfigError is raised.  Each
    game's preconditions, its adversary not being a PrivGamesError first,
    are checked before any round is played.  Each transcript has the
    bytes of its game played alone.
    """
    if not grid:
        raise ConfigError("a grid needs at least one game")
    spec, n = grid[0].config.generator_spec, grid[0].config.dataset_size
    if any((g.config.generator_spec, g.config.dataset_size) != (spec, n) for g in grid):
        raise ConfigError("the games of a grid must share generator_spec and dataset_size")
    if any(g.config.game_kind == MODEL_SEEDED for g in grid):
        # The reference pool: evaluation records outside the released data.
        ref_values = data_mod.rows_not_in(d_eval, d_target)

    copies = {}  # (kind, x) -> x's rows in d_eval, or in d_target

    def sets_of(game):
        """``game``'s preconditions checked; returns the function that
        builds its rounds' training sets from their bits and streams."""
        x, config = game.x, game.config
        if isinstance(game.adversary, PrivGamesError):
            raise game.adversary
        key = config.game_kind, tuple(x)
        if key not in copies:
            source = d_eval if config.game_kind == TRADITIONAL else d_target
            copies[key] = data_mod.value_equal_indices(source, x)
        if config.game_kind == TRADITIONAL:
            usable = d_eval.n - len(copies[key])
            if usable < n:
                raise SizeError(f"evaluation pool has {usable} usable records, need {n} per round")
            # A span builds the pool it draws from: a grid holds no pool.
            return lambda secret, streams: data_mod.sample_training_sets(
                traditional_pool(x, d_eval), x, n, secret.tolist(), streams
            )
        if d_eval.schema != d_target.schema:
            raise PreconditionError(
                "evaluation pool has a different schema than the training dataset"
            )
        if n != d_target.n:
            raise ConfigError(
                f"dataset_size {n} does not match the released "
                f"training dataset of {d_target.n} records"
            )
        x_positions = copies[key]
        if len(x_positions) == 0:
            raise PreconditionError("target record is not in the released training dataset")
        if len(ref_values) == 0:
            raise SizeError(
                "no reference records: every evaluation record appears in the training dataset"
            )
        fixed = None
        if config.reference_mode == REFERENCE_FIXED and spec.kind != generators.TOY:
            picks = Streams(derive_many([config.master_seed], "reference"))
            fixed = ref_values[picks.integers(len(ref_values), len(x_positions))[0]]
        return lambda secret, streams: _model_seeded_sets(
            d_target, x_positions, ref_values, secret, streams, fixed
        )

    builders, errors = {}, []
    for g, game in enumerate(grid):
        try:
            builders[g] = sets_of(game)
        except (PrivGamesError, MemoryError) as exc:
            errors.append((g, failure(exc)))
    if spec.kind == generators.TOY:
        # A toy fit reads nothing of its set but whether x is in it, and
        # both games put x there exactly when the round's bit is 1: the
        # traditional pool holds no copy of x, appended only when b = 1,
        # and model-seeded out-rounds replace every copy of x in d_target.
        def toy_rounds(secret):
            return [generators.toy_fits(spec, secret)]

        return _play(grid, toy_rounds, threads, 0, data_tag=None, errors=errors)

    def fit_rounds(secret, streams, seeds, pieces):
        sets, at = [], 0
        for g, a, b in pieces:
            sets.append(builders[g](secret[at : at + b - a], streams[at : at + b - a]))
            at += b - a
        values = sets[0] if len(sets) == 1 else np.concatenate(sets)
        return generators.fit_batch(spec, d_eval.schema, values, seeds)

    set_cells = n * d_eval.schema.ncols
    return _play(grid, fit_rounds, threads, set_cells, errors=errors)


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
    (see ``run_games``), whose error it raises.
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

        def fit_rounds(secret, streams, seeds, pieces):
            return [probs[streams.integers(len(partials), 1)[:, 0], secret]]

        set_cells = 0
    else:
        # A round trains on its drawn partial, plus x when b = 1, with
        # that partial's spec: each round is a chunk of its own.
        rows = {(j, 0): part.values for j, part in enumerate(partials)}
        rows.update({(j, 1): np.vstack([part.values, [x]]) for j, part in enumerate(partials)})

        def fit_rounds(secret, streams, seeds, pieces):
            drawn = streams.integers(len(partials), 1)[:, 0].tolist()
            for i, key in enumerate(zip(drawn, secret.tolist())):
                yield from generators.fit_batch(
                    specs[key[0]], schema, rows[key][None], seeds[i : i + 1]
                )

        set_cells = max(v.size for v in rows.values())
    grid = [Game(x, record_id, config, adversary)]
    return checked(*_play(grid, fit_rounds, threads, set_cells, "mixture"))


def toy_bit_adversary():
    """Adversary for the toy generator: the released bits of a batch's
    release probabilities, as a float array of scores."""

    def adversary(probs, seeds):
        return generators.release_bits(probs, seeds).astype(float)

    return adversary


def transcript_to_text(transcript):
    """Line-oriented text form: header, column names, one row per round."""
    runs = transcript.runs
    header = transcript.config_hash, transcript.game_kind, len(runs), transcript.record_id
    rows = zip(range(len(runs)), *(runs[name].tolist() for name in RUN_DTYPE.names))
    return "\n".join(data_mod.table_lines("transcript", header, rows)) + "\n"


def save_transcript(transcript, path):
    """Write a transcript atomically (see ``data.write_text``)."""
    data_mod.write_text(path, transcript_to_text(transcript))


def load_transcript(path):
    """Read a transcript written by save_transcript (see ``data.read_table``).

    Also raises ConfigError, naming the file and line, for a run index
    other than the row's position, or a header n_eval other than the row
    count.
    """
    header, rows = data_mod.read_table(path, "transcript")
    for at, (no, raw, (index, *_)) in enumerate(rows):
        if index != at:
            raise ConfigError(f"{path}, line {no}: run_index {raw[0]!r} is not {at}")
    n_eval = header["n_eval"]
    if n_eval != len(rows):
        raise ConfigError(
            f"{path}, line 1: header n_eval={n_eval} does not match the {len(rows)} round rows"
        )
    return GameTranscript(
        np.array([run[1:] for *_, run in rows], dtype=RUN_DTYPE),
        record_id=header["record"], game_kind=header["game"], config_hash=header["config"],
    )
