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
grouped.  So a game derives the run, data, fit and adversary seeds of
all its rounds in one ``seeds.derive_many`` call each, then plays the
rounds in batches.  A batch's training sets are one ``(B, n, d)`` int64
array, never a ``Dataset`` per round: traditional rounds gather their
pool draws in one pass (``data.sample_training_sets``), model-seeded
rounds copy ``d_target`` and overwrite x's rows in out-rounds, and the
mixture game stacks one array per drawn partial and secret bit.  Each
array is fit in one ``generators.fit_batch`` call.  The batch hashes its
data seeds through one ``seeds.Streams``, so no round builds a
``SeedSequence`` of its own, and a round opens its data stream only if
it draws from it.  An adversary is a function
``adversary(gens, seeds) -> scores``: one membership score per fitted
generator, each given its round's adversary seed.  The counting-query
adversary samples the releases in batched calls and scores each call's
releases as one array, but each logit stays one dot product per release
(see ``attack``).  A batch keeps its training sets within
``generators.BATCH_ELEMENTS`` values; with ``threads > 1`` the rounds
are also cut into that many chunks, run in a thread pool, each chunk
with streams of its own.  The transcript is the same bytes either way.
A transcript file is a ``data.table_lines`` table of one row per round,
read back strictly by ``load_transcript``.
"""

import hashlib
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from . import data as data_mod
from . import generators
from .errors import ConfigError, PreconditionError, SizeError
from .seeds import Streams, derive, derive_many, rng

TRADITIONAL = "traditional"
MODEL_SEEDED = "model_seeded"

GAME_KINDS = (TRADITIONAL, MODEL_SEEDED)
TRANSCRIPT_COLUMNS = "run_index,secret_bit,score,run_seed"

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

    def config_hash(self):
        return config_hash(asdict(self))


def config_hash(snapshot):
    """First 12 hex digits of the sha256 of a canonical JSON snapshot."""
    text = json.dumps(snapshot, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]


@dataclass(frozen=True)
class GameRun:
    """One round: index, secret bit, adversary score, and the run seed."""

    run_index: int
    secret_bit: int
    score: float
    run_seed: int


@dataclass(frozen=True)
class GameTranscript:
    """Everything one game evaluation produced."""

    runs: tuple
    record_id: str
    game_kind: str
    config_hash: str

    def bits(self):
        return np.array([r.secret_bit for r in self.runs], dtype=np.int64)

    def scores(self):
        return np.array([r.score for r in self.runs], dtype=float)


def balanced_bits(n_eval, seed):
    """Exactly n_eval/2 ones and zeros, in seeded random order."""
    bits = np.zeros(n_eval, dtype=np.int64)
    bits[: n_eval // 2] = 1
    return rng(seed).permutation(bits)


def _execute(config, record_id, adversary, x, fit_rounds, threads, data_tag="data"):
    """Play the rounds of a game.  ``fit_rounds(secret, streams, seeds)``
    builds the training sets of a batch of rounds with secret bits
    ``secret`` and returns their generators, round i fit with
    ``seeds[i]``; ``streams[i]`` is round i's data stream, opened only by
    rounds that draw."""
    n_eval = config.n_eval
    bits = balanced_bits(n_eval, derive(config.master_seed, "bits"))
    run_seeds = derive_many(config.master_seed, "run", np.arange(n_eval))
    data_seeds = derive_many(run_seeds, data_tag)
    fit_seeds = derive_many(run_seeds, "fit")
    adversary_seeds = derive_many(run_seeds, "adversary")

    def play(lo, hi):
        secret = bits[lo:hi].tolist()
        gens = fit_rounds(secret, Streams(data_seeds[lo:hi]), fit_seeds[lo:hi])
        scores = adversary(gens, adversary_seeds[lo:hi].tolist())
        return [
            GameRun(run_index=i, secret_bit=b, score=float(score), run_seed=s)
            for i, b, score, s in zip(range(lo, hi), secret, scores, run_seeds[lo:hi].tolist())
        ]

    # A batch holds at most a ``threads``-th of the rounds, and training
    # sets of at most BATCH_ELEMENTS values.
    cells = config.dataset_size * len(x)
    size = max(1, min(generators.BATCH_ELEMENTS // cells, -(-n_eval // threads)))
    starts = range(0, n_eval, size)
    ends = [min(lo + size, n_eval) for lo in starts]
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            played = list(pool.map(play, starts, ends))
    else:
        played = list(map(play, starts, ends))
    return GameTranscript(
        runs=tuple(run for batch in played for run in batch),
        record_id=str(record_id),
        game_kind=config.game_kind,
        config_hash=config.config_hash(),
    )


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
    return data_mod.Dataset(d_eval.schema, d_eval.values[mask], validate=False)


def traditional_dataset(pool, x, n, b, seed):
    """Training dataset of one traditional round.

    b = 1: x plus n-1 pool records; b = 0: n pool records, drawn with
    ``seed``, a seed or an open stream.  A batch of one of
    ``data.sample_training_sets``, which the game calls.
    """
    values = data_mod.sample_training_sets(pool, x, n, [b], [seed])[0]
    return data_mod.Dataset(pool.schema, values, validate=False)


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
    """
    if config.game_kind != TRADITIONAL:
        raise ConfigError(f"config is for {config.game_kind!r}, not traditional")
    data_mod.validate_record(d_eval.schema, x)
    pool = traditional_pool(x, d_eval)
    n = config.dataset_size
    if pool.n < n:
        raise SizeError(
            f"evaluation pool has {pool.n} usable records, need {n} per round"
        )

    def fit_rounds(secret, streams, seeds):
        values = data_mod.sample_training_sets(pool, x, n, secret, streams)
        return generators.fit_batch(config.generator_spec, pool.schema, values, seeds, x)

    return _execute(config, record_id, adversary, x, fit_rounds, threads)


def reference_pool(d_target, d_eval):
    """Values of evaluation records outside the released training data."""
    return data_mod.rows_not_in(d_eval, d_target)


def _model_seeded_sets(d_target, x_positions, ref_values, secret, streams, fixed_refs):
    """Training sets of model-seeded rounds, as one ``(B, n, d)`` array:
    ``d_target`` in every round, its ``x_positions`` rows replaced in
    out-rounds.  Only per-run out-rounds read their stream."""
    values = np.repeat(d_target.values[None], len(secret), axis=0)
    out = np.flatnonzero(np.equal(secret, 0))
    refs = fixed_refs
    if refs is None:
        picks = np.empty((len(out), len(x_positions)), dtype=np.intp)
        for k, i in enumerate(out.tolist()):
            picks[k] = rng(streams[i]).integers(0, len(ref_values), size=len(x_positions))
        refs = ref_values[picks]
    values[np.ix_(out, x_positions)] = refs
    return values


def model_seeded_dataset(d_target, x_positions, ref_values, b, seed, fixed_refs=None):
    """Training dataset of one model-seeded round.

    b = 1 uses the released training dataset as-is.  b = 0 replaces
    every copy of the target (each row in ``x_positions``) with a
    reference record: a fresh independent draw per copy, made with
    ``seed`` (a seed or an open stream), or the pre-drawn rows in
    ``fixed_refs``.  A batch of one of ``_model_seeded_sets``.
    """
    values = _model_seeded_sets(d_target, x_positions, ref_values, [b], [seed], fixed_refs)
    return data_mod.Dataset(d_target.schema, values[0], validate=False)


def run_model_seeded(x, d_target, d_eval, adversary, config, record_id="", threads=1):
    """Play the fixed-dataset game for one record of the released model.

    ``d_target`` is the dataset the released generator was trained on;
    ``x`` must appear in it.  Out-rounds replace every copy of x with a
    reference record drawn uniformly from the evaluation records not in
    ``d_target``, so all round datasets have the same size.
    """
    if config.game_kind != MODEL_SEEDED:
        raise ConfigError(f"config is for {config.game_kind!r}, not model_seeded")
    data_mod.validate_record(d_target.schema, x)
    if config.dataset_size != d_target.n:
        raise ConfigError(
            f"dataset_size {config.dataset_size} does not match the released "
            f"training dataset of {d_target.n} records"
        )
    x_positions = data_mod.value_equal_indices(d_target, x)
    if len(x_positions) == 0:
        raise PreconditionError("target record is not in the released training dataset")
    ref_values = reference_pool(d_target, d_eval)
    if len(ref_values) == 0:
        raise SizeError(
            "no reference records: every evaluation record appears in the training dataset"
        )
    fixed_refs = None
    if config.reference_mode == REFERENCE_FIXED:
        g = rng(derive(config.master_seed, "reference"))
        picks = g.integers(0, len(ref_values), size=len(x_positions))
        fixed_refs = ref_values[picks]

    def fit_rounds(secret, streams, seeds):
        values = _model_seeded_sets(d_target, x_positions, ref_values, secret, streams, fixed_refs)
        return generators.fit_batch(config.generator_spec, d_target.schema, values, seeds, x)

    return _execute(config, record_id, adversary, x, fit_rounds, threads)


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
    required and none may contain x.
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

    # Rounds that drew the same partial and bit train on the same rows,
    # so each such group is fit as one batch of copies.
    rows = {(j, 0): part.values for j, part in enumerate(partials)}
    rows.update({(j, 1): np.vstack([part.values, [x]]) for j, part in enumerate(partials)})

    def fit_rounds(secret, streams, seeds):
        keys = [(int(streams[i].integers(0, len(partials))), b) for i, b in enumerate(secret)]
        gens = [None] * len(keys)
        for key in dict.fromkeys(keys):
            rounds = [i for i, k in enumerate(keys) if k == key]
            values = np.repeat(rows[key][None], len(rounds), axis=0)
            fitted = generators.fit_batch(specs[key[0]], schema, values, seeds[rounds], x)
            for i, gen in zip(rounds, fitted):
                gens[i] = gen
        return gens

    return _execute(config, record_id, adversary, x, fit_rounds, threads, "mixture")


def toy_bit_adversary():
    """Adversary for the toy generator: the released bit, as a score."""

    def adversary(gens, seeds):
        return [float(bit) for bit in generators.release_bits(gens, seeds)]

    return adversary


def constant_adversary(value):
    """Adversary that ignores the release; useful as a null baseline."""
    value = float(value)

    def adversary(gens, seeds):
        return [value] * len(gens)

    return adversary


def transcript_to_text(transcript):
    """Line-oriented text form: header, column names, one row per round."""
    fields = dict(
        config=transcript.config_hash, game=transcript.game_kind,
        n_eval=len(transcript.runs), record=transcript.record_id,
    )
    rows = [f"{r.run_index},{r.secret_bit},{r.score!r},{r.run_seed}" for r in transcript.runs]
    return "\n".join(data_mod.table_lines("transcript", fields, TRANSCRIPT_COLUMNS, rows)) + "\n"


def save_transcript(transcript, path):
    """Write a transcript atomically (see ``data.write_text``)."""
    data_mod.write_text(path, transcript_to_text(transcript))


def load_transcript(path):
    """Read a transcript written by save_transcript.

    Raises ConfigError, naming the file and line, for another header,
    column line or game kind, a row that is not four numbers, a run
    index other than the row's position, a secret bit other than 0 or 1,
    a score that is not finite, or an n_eval other than the row count.
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
            run = GameRun(int(row[0]), int(row[1]), float(row[2]), int(row[3]))
        except ValueError:
            raise ConfigError(f"{path}, line {no}: {','.join(row)!r} is not numeric") from None
        if run.run_index != len(runs):
            raise ConfigError(f"{path}, line {no}: run_index {row[0]!r} is not {len(runs)}")
        if run.secret_bit not in (0, 1):
            raise ConfigError(f"{path}, line {no}: secret_bit {row[1]!r} is not 0 or 1")
        if not math.isfinite(run.score):
            raise ConfigError(f"{path}, line {no}: score {row[2]!r} is not finite")
        runs.append(run)
    n_eval = fields.get("n_eval", "")
    if n_eval != str(len(runs)):
        raise ConfigError(
            f"{path}, line 1: header n_eval={n_eval} does not match the {len(runs)} round rows"
        )
    return GameTranscript(
        tuple(runs), record_id=fields.get("record", ""), game_kind=game_kind,
        config_hash=fields.get("config", ""),
    )
