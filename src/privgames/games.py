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
rounds in batches: it builds every round's training dataset (the batch
hashes its data seeds through one ``seeds.Streams``, so no round builds
a ``SeedSequence`` of its own, and a round opens its data stream only
if it draws from it), fits all the batch's generators in one call
(``generators.fit_batch``), and hands them to the adversary.  The
counting-query adversary samples the releases in batched calls and
scores each call's releases as one array, but each logit stays one dot
product per release (see ``attack``).  A batch keeps its datasets within
``generators.BATCH_ELEMENTS`` values; with ``threads > 1`` the rounds
are also cut into that many chunks, run in a thread pool, each chunk
with streams of its own.  The transcript is the same bytes either way.
"""

import hashlib
import json
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


def _execute(config, record_id, adversary, x, build_run, threads, data_tag="data"):
    """Play the rounds of a game.  ``build_run(b, stream)`` returns the
    training dataset and generator spec of a round with secret bit b;
    ``stream()`` opens the round's data stream, for rounds that draw."""
    n_eval = config.n_eval
    bits = balanced_bits(n_eval, derive(config.master_seed, "bits"))
    run_seeds = derive_many(config.master_seed, "run", np.arange(n_eval))
    data_seeds = derive_many(run_seeds, data_tag)
    fit_seeds = derive_many(run_seeds, "fit")
    adversary_seeds = derive_many(run_seeds, "adversary")

    def play(lo, hi):
        secret = bits[lo:hi].tolist()
        streams = Streams(data_seeds[lo:hi])
        built = [build_run(b, lambda i=i: streams[i]) for i, b in enumerate(secret)]
        gens = generators.fit_batch(
            [spec for _, spec in built],
            [ds for ds, _ in built],
            fit_seeds[lo:hi].tolist(),
            target_hint=x,
        )
        scores = adversary.score_rounds(gens, adversary_seeds[lo:hi].tolist())
        return [
            GameRun(run_index=i, secret_bit=b, score=float(score), run_seed=s)
            for i, b, score, s in zip(range(lo, hi), secret, scores, run_seeds[lo:hi].tolist())
        ]

    # A batch holds at most a ``threads``-th of the rounds, and training
    # datasets of at most BATCH_ELEMENTS values.
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
    ``seed``, a seed or an open stream (see ``seeds.rng``).
    """
    if b == 1:
        base = data_mod.sample_records(pool, n - 1, seed)
        return data_mod.append_record(base, x)
    return data_mod.sample_records(pool, n, seed)


def run_traditional(x, d_eval, adversary, config, record_id="", threads=1):
    """Play the dataset-resampling game for one record.

    Parameters
    ----------
    x : record tuple
        Target record; must conform to the evaluation pool's schema.
    d_eval : Dataset
        Evaluation pool the per-round datasets are resampled from.
    adversary : Adversary
        Scores each round's fitted generator in [0, 1].
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

    def build_run(b, stream):
        return traditional_dataset(pool, x, n, b, stream()), config.generator_spec

    return _execute(config, record_id, adversary, x, build_run, threads)


def reference_pool(d_target, d_eval):
    """Values of evaluation records outside the released training data."""
    return data_mod.rows_not_in(d_eval, d_target)


def model_seeded_dataset(d_target, x_positions, ref_values, b, seed, fixed_refs=None):
    """Training dataset of one model-seeded round.

    b = 1 uses the released training dataset as-is.  b = 0 replaces
    every copy of the target (each row in ``x_positions``) with a
    reference record: a fresh independent draw per copy, made with
    ``seed`` (a seed or an open stream), or the pre-drawn rows in
    ``fixed_refs``.
    """
    if b == 1:
        return d_target
    values = d_target.values.copy()
    if fixed_refs is not None:
        values[x_positions] = fixed_refs
    else:
        g = rng(seed)
        picks = g.integers(0, len(ref_values), size=len(x_positions))
        values[x_positions] = ref_values[picks]
    return data_mod.Dataset(d_target.schema, values, validate=False)


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

    def build_run(b, stream):
        # Only per-run out-rounds draw: in-rounds keep d_target as it is.
        g = stream() if b == 0 and fixed_refs is None else None
        ds = model_seeded_dataset(d_target, x_positions, ref_values, b, g, fixed_refs)
        return ds, config.generator_spec

    return _execute(config, record_id, adversary, x, build_run, threads)


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

    def build_run(b, stream):
        j = int(stream().integers(0, len(partials)))
        part = partials[j]
        ds = data_mod.append_record(part, x) if b == 1 else part
        return ds, specs[j]

    return _execute(config, record_id, adversary, x, build_run, threads, "mixture")


class Adversary:
    """Membership scores for the rounds of a game.

    ``score_rounds(gens, seeds)`` scores a batch of rounds from their
    fitted generators and per-round adversary seeds; calling an
    adversary on one generator scores a batch of one.
    """

    def score_rounds(self, gens, seeds):
        raise NotImplementedError

    def __call__(self, gen, seed):
        return self.score_rounds([gen], [seed])[0]


class _ToyBitAdversary(Adversary):
    def score_rounds(self, gens, seeds):
        return [float(bit) for bit in generators.release_bits(gens, seeds)]


class _ConstantAdversary(Adversary):
    def __init__(self, value):
        self.value = float(value)

    def score_rounds(self, gens, seeds):
        return [self.value] * len(gens)


def toy_bit_adversary():
    """Adversary for the toy generator: the released bit, as a score."""
    return _ToyBitAdversary()


def constant_adversary(value):
    """Adversary that ignores the release; useful as a null baseline."""
    return _ConstantAdversary(value)


def transcript_to_text(transcript):
    """Line-oriented text form: header, column names, one row per round."""
    lines = [
        "# privgames-transcript v1 "
        f"config={transcript.config_hash} game={transcript.game_kind} "
        f"n_eval={len(transcript.runs)} record={transcript.record_id}"
    ]
    lines.append("run_index,secret_bit,score,run_seed")
    for r in transcript.runs:
        lines.append(f"{r.run_index},{r.secret_bit},{r.score!r},{r.run_seed}")
    return "\n".join(lines) + "\n"


def transcript_from_text(text):
    """Inverse of transcript_to_text.

    Raises ConfigError for text that is not a version-1 transcript, and
    for a round row without four numeric fields, naming its line.
    """
    lines = [(no, ln) for no, ln in enumerate(text.splitlines(), start=1) if ln]
    if not lines or not lines[0][1].startswith("# privgames-transcript v1 "):
        raise ConfigError("not a version-1 transcript")
    header, _, record_id = lines[0][1].partition(" record=")
    fields = {"record": record_id}
    for token in header[2:].split(" ")[2:]:
        key, _, value = token.partition("=")
        fields[key] = value
    runs = []
    for no, line in lines[2:]:
        row = line.split(",")
        if len(row) != 4:
            raise ConfigError(f"transcript line {no}: expected 4 fields, got {len(row)}")
        try:
            runs.append(
                GameRun(
                    run_index=int(row[0]),
                    secret_bit=int(row[1]),
                    score=float(row[2]),
                    run_seed=int(row[3]),
                )
            )
        except ValueError:
            raise ConfigError(f"transcript line {no}: {line!r} is not numeric") from None
    return GameTranscript(
        runs=tuple(runs),
        record_id=fields.get("record", ""),
        game_kind=fields.get("game", ""),
        config_hash=fields.get("config", ""),
    )


def save_transcript(transcript, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(transcript_to_text(transcript))


def load_transcript(path):
    with open(path, encoding="utf-8") as fh:
        return transcript_from_text(fh.read())
