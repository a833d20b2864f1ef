"""Command-line experiment orchestration.

Four subcommands:

* ``run``: play the configured games for each selected target record,
  writing per-game result tables and per-record transcripts.
* ``compare``: join a traditional and a model-seeded result table into a
  per-record comparison with miss-rate and RMSD footer.
* ``convergence``: repeat the evaluation across an n_eval grid and
  report the spread of the risk estimate per grid point.
* ``dp-audit``: check a private generator's empirical trade-off curve
  against the differential-privacy lower bound.

Every output file starts with one header line carrying a format version
and the config hash, one hash for every file a command writes
(transcripts included); a table's header adds a timestamp.  Everything
below the header is a deterministic function of the config and master
seed, so reruns are byte-identical apart from that first line.
"""

import ctypes
import os
import sys
from dataclasses import replace
from datetime import datetime, timezone
from itertools import islice

import numpy as np

from . import attack, corpora, games, generators, risk
from . import config as config_mod
from . import data as data_mod
from .errors import ConfigError, JoinError, PrivGamesError, TrainingError, failure
from .seeds import derive, rng

THREADS_ENV_VAR = "PRIVGAMES_THREADS"
# Worker threads a command may ask for: far more than any machine here
# runs usefully, and few enough that a typo starts no flood of threads.
MAX_THREADS = 64
_THREADS = (int, "an integer", (range(1, MAX_THREADS + 1).__contains__, f"in [1, {MAX_THREADS}]"))

UNDEFINED_TOKEN = "undefined"

# A run whose failed records were left out of its outputs exits 1.
_EXIT_CODE = {"complete": 0, "partial": 1}


def _write_file(path, lines):
    # Every table goes through this name, which benchmark/tracer.py wraps.
    data_mod.write_text(path, "\n".join(lines) + "\n")


def _write_table(path, kind, cfg_hash, status, rows, log, footer=()):
    """Write one output table: header line, column line, ``rows`` (tuples
    of values), then the ready lines of ``footer``."""
    generated = datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
    header = cfg_hash, status, generated
    _write_file(path, data_mod.table_lines(kind, header, rows) + list(footer))
    log(f"wrote {path}")


def read_result_rows(path, game=None):
    """(config hash, status, ordered {record_id: auc}) of a results file
    (see ``data.read_table``).  A repeated record id, or a row of another
    game than ``game``, also raises ConfigError."""
    header, rows = data_mod.read_table(path, "results")
    aucs = {}
    for no, _, (rid, kind, _, auc, *_) in rows:
        if game is not None and kind != game:
            raise ConfigError(f"{path}, line {no}: game {kind!r} is not {game}")
        if rid in aucs:
            raise ConfigError(f"{path}, line {no}: record id {rid!r} appears twice")
        aucs[rid] = auc
    return header["config"], header["status"], aucs


# ----------------------------------------------------------- environment

# glibc's mallopt parameters (malloc.h) and the values every record loop
# sets.  A batched stage's intermediates are about BATCH_ELEMENTS float64
# (512 KiB); under glibc's defaults such arrays are mapped afresh, or the
# heap top they leave is trimmed, and every page is faulted in again on
# the next batch.  Below the mmap threshold the arrays come from the heap,
# and the heap keeps up to the trim threshold (2x, glibc's own dynamic
# ratio) free at its top between batches.  Of 1, 2 and 4 MiB, 2 MiB is
# the smallest that left no more than about 150 faults per command on
# both network workloads after a warm-up; 1 MiB sometimes left 1,000.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD_BYTES = 4 * generators.BATCH_ELEMENTS * 8
_TRIM_THRESHOLD_BYTES = 2 * _MMAP_THRESHOLD_BYTES


def _keep_batch_memory():
    """Set glibc's mmap and trim thresholds so that freed batch arrays
    stay in the heap for the next batch.  A silent no-op where the C
    library has no ``mallopt``.  Changes no output."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        # No mallopt, or no handle on the process's own symbols.
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES)


def load_environment(cfg):
    """Load the corpus and carve out the auxiliary/evaluation/target data."""
    pool = corpora.load_dataset(cfg.dataset, cfg.schema_sidecar)
    if cfg.aux_size + cfg.eval_size > pool.n:
        raise ConfigError(
            f"data.aux_size + data.eval_size = {cfg.aux_size + cfg.eval_size} "
            f"exceeds the {pool.n} records in {cfg.dataset}"
        )
    d_aux, d_eval = data_mod.split(
        pool, (cfg.aux_size, cfg.eval_size), derive(cfg.master_seed, "split")
    )
    d_target = data_mod.sample_records(
        d_eval, cfg.target_size, derive(cfg.master_seed, "target")
    )
    return pool, d_aux, d_eval, d_target


def select_record_ids(cfg, d_target):
    """Resolve the configured record selection to row indices of the
    target dataset."""
    mode, arg = config_mod.parse_record_selection(cfg.record_selection)
    if mode == "ids":
        for rid in arg:
            if rid < 0 or rid >= d_target.n:
                raise ConfigError(
                    f"records.selection id {rid} outside the target dataset "
                    f"[0, {d_target.n - 1}]"
                )
        return list(arg)
    if arg > d_target.n:
        raise ConfigError(
            f"records.selection asks for {arg} records but the target dataset has {d_target.n}"
        )
    if mode == "first":
        return list(range(arg))
    g = rng(derive(cfg.master_seed, "records"))
    return sorted(int(i) for i in g.choice(d_target.n, size=arg, replace=False))


def build_bank(cfg, schema):
    for k in cfg.k_values:
        if k > schema.ncols:
            raise ConfigError(
                f"attack.k_values entry {k} exceeds the {schema.ncols} columns of {cfg.dataset}"
            )
    return attack.make_query_bank(
        schema, cfg.k_values, cfg.queries_per_k, derive(cfg.master_seed, "bank")
    )


def build_adversaries(cfg, bank, d_aux, targets):
    """One adversary per ``(x, seed)`` of ``targets``, in order.

    Toy generators release a bit, so their adversary reads it and
    nothing is trained: every target gets the same adversary object, so
    a toy record's games play in spans that cross repetitions.
    Everything else gets a meta-classifier over the query bank: each
    target's shadow stage runs in turn, then one
    ``attack.train_meta_classifiers`` call trains every target whose
    shadow stage succeeded, as one stack.  A target whose shadow stage
    raises a PrivGamesError or runs out of memory gets that error in
    place of an adversary; a TrainingError or MemoryError of the stacked
    call stands for every target in it.
    """
    if cfg.generator_spec.kind == generators.TOY:
        return [games.toy_bit_adversary()] * len(targets)
    built = []
    for x, seed in targets:
        try:
            built.append(attack.shadow_features(
                d_aux, x, cfg.generator_spec, bank,
                n=cfg.target_size, n_shadow=cfg.n_shadow, seed=seed,
            ))
        except (PrivGamesError, MemoryError) as exc:
            built.append(failure(exc))
    shadowed = [i for i, item in enumerate(built) if not isinstance(item, PrivGamesError)]
    if not shadowed:
        return built
    # Every target's shadow sets carry the same labels: they depend on
    # n_shadow alone.
    labels = built[shadowed[0]][1]
    try:
        metas = attack.train_meta_classifiers(
            np.stack([built[i][0] for i in shadowed]), labels,
            epochs=cfg.epochs, learning_rate=cfg.learning_rate, l2=cfg.l2,
        )
    except (TrainingError, MemoryError) as exc:
        for i in shadowed:
            built[i] = failure(exc)
        return built
    for i, meta in zip(shadowed, metas):
        built[i] = attack.meta_classifier_adversary(meta, bank, targets[i][0], n_syn=cfg.syn_size)
    return built


def build_adversary(cfg, bank, d_aux, x, seed):
    """``build_adversaries`` for a list of one target; raises its error."""
    (adversary,) = build_adversaries(cfg, bank, d_aux, [(x, seed)])
    if isinstance(adversary, PrivGamesError):
        raise adversary
    return adversary


def game_config(cfg, kind, master_seed, n_eval):
    spec = cfg.generator_spec
    return games.GameConfig(n_eval, cfg.target_size, spec, master_seed, kind, cfg.reference_mode)


def _each_record(cfg, log, attack_seeds, record_games, evaluate, threads, subdirs=()):
    """Play every selected record's games as one ``games.run_games`` grid
    and evaluate the records in order; returns (outputs, status).

    One ``build_adversaries`` call builds the adversaries of every
    record's ``attack_seeds(rid)``, so their meta-classifiers train in one
    stack.  ``record_games(rid, adversaries)`` lists a record's games as
    ``(GameConfig, adversary)`` pairs.  ``evaluate(rid, transcripts)``
    reads them from an iterator that raises the record's error in place
    of a failed game's, so it writes nothing before it has read them all,
    and returns the record's output and a summary, logged as ``record
    <id>: ...``.  A failed record is logged at its turn and left out; the
    others still run and the status becomes ``partial``.  Sets the malloc
    thresholds (``_keep_batch_memory``) first, and makes ``cfg.out_dir``
    and ``subdirs`` below it before any game (ConfigError if not).
    """
    _keep_batch_memory()
    _, d_aux, d_eval, d_target = load_environment(cfg)
    record_ids = select_record_ids(cfg, d_target)
    bank = None
    if cfg.generator_spec.kind != generators.TOY:
        bank = build_bank(cfg, d_eval.schema)
    out_dir = os.path.join(cfg.out_dir, *subdirs)
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"{out_dir}: cannot make the directory ({exc.strerror})") from None
    seeds = {rid: attack_seeds(rid) for rid in record_ids}
    built = iter(build_adversaries(
        cfg, bank, d_aux,
        [(d_target.record(rid), seed) for rid in record_ids for seed in seeds[rid]],
    ))
    grid = [
        [games.Game(d_target.record(rid), str(rid), config, adversary)
         for config, adversary in record_games(rid, [next(built) for _ in seeds[rid]])]
        for rid in record_ids
    ]
    played = iter(games.run_games([g for gs in grid for g in gs], d_eval, d_target, threads))
    outputs = []
    status = "complete"
    for rid, record_grid in zip(record_ids, grid):
        record = islice(played, len(record_grid))
        try:
            output, summary = evaluate(rid, map(games.checked, record))
        except (PrivGamesError, MemoryError) as exc:
            log(f"record evaluation failed: record {rid}: {failure(exc)}")
            status = "partial"
            continue
        finally:
            for _ in record:  # a failed record's remaining games
                pass
        outputs.append(output)
        log(f"record {rid}: {summary}")
    return outputs, status


def _one_game_per_kind(cfg, kinds):
    """``attack_seeds`` and ``record_games`` of ``run`` and ``dp-audit``:
    one adversary per record, which scores one game of each of ``kinds``."""

    def record_games(rid, adversaries):
        (adversary,) = adversaries
        seeds = [derive(cfg.master_seed, f"game-{kind}", rid) for kind in kinds]
        return [(game_config(cfg, k, s, cfg.n_eval), adversary) for k, s in zip(kinds, seeds)]

    return (lambda rid: [derive(cfg.master_seed, "attack", rid)]), record_games


# -------------------------------------------------------------------- run


def result_row(cfg, transcript, auc):
    n_eval = len(transcript.runs)
    alpha, beta = risk.empirical_rates(transcript, 0.5)
    radius = risk.hoeffding_radius(n_eval // 2, cfg.rho)
    return transcript.record_id, transcript.game_kind, n_eval, auc, radius, alpha, beta


def cmd_run(cfg, threads=1, log=print):
    """Execute the configured evaluation; returns a process exit code.

    A record whose evaluation raises a PrivGamesError is logged and left
    out of every output; the other records are still evaluated, and the
    results are marked ``status=partial`` with exit code 1.
    """
    transcripts_dir = os.path.join(cfg.out_dir, "transcripts")
    cfg_hash = cfg.config_hash()

    def evaluate(rid, transcripts):
        # A record lands in the outputs with all its games or not at all:
        # its transcripts are written once every game is read.
        transcripts = list(transcripts)
        aucs = [risk.roc_auc(t) for t in transcripts]
        record_rows = [result_row(cfg, t, auc) for t, auc in zip(transcripts, aucs)]
        summary = []
        for kind, transcript, auc in zip(cfg.game_kinds, transcripts, aucs):
            games.save_transcript(
                replace(transcript, config_hash=cfg_hash),
                os.path.join(transcripts_dir, f"record{rid}_{kind}.txt"),
            )
            summary.append(f"{kind} auc={auc:.3f}")
        return record_rows, ", ".join(summary)

    per_record, status = _each_record(
        cfg, log, *_one_game_per_kind(cfg, cfg.game_kinds), evaluate, threads,
        subdirs=("transcripts",),
    )
    for i, kind in enumerate(cfg.game_kinds):
        _write_table(
            os.path.join(cfg.out_dir, f"results_{kind}.csv"), "results", cfg_hash,
            status, [rows[i] for rows in per_record], log,
        )
    return _EXIT_CODE[status]


# ---------------------------------------------------------------- compare


def _record_sort_key(rid):
    # isdecimal, not isdigit: int() rejects digits such as "²".
    return (0, int(rid), "") if rid.isdecimal() else (1, 0, rid)


def cmd_compare(results_t, results_ms, threshold, out_path, allow_mixed=False, log=print):
    """Join a traditional and a model-seeded result table into the
    comparison file; a row of the other game in either raises ConfigError."""
    hash_t, status_t, rows_t = read_result_rows(results_t, games.TRADITIONAL)
    hash_ms, status_ms, rows_ms = read_result_rows(results_ms, games.MODEL_SEEDED)
    for path, rows in ((results_t, rows_t), (results_ms, rows_ms)):
        if not rows:
            raise ConfigError(f"{path}: no record rows below the column header")
    if hash_t != hash_ms and not allow_mixed:
        raise ConfigError(
            f"result files carry different config hashes ({hash_t} vs {hash_ms}); "
            "pass --allow-mixed to compare anyway"
        )
    only_t = sorted(set(rows_t) - set(rows_ms), key=_record_sort_key)
    only_ms = sorted(set(rows_ms) - set(rows_t), key=_record_sort_key)
    if only_t or only_ms:
        raise JoinError(
            "record ids do not match: "
            f"only in {results_t}: {only_t or 'none'}; "
            f"only in {results_ms}: {only_ms or 'none'}"
        )

    ids = sorted(rows_t, key=_record_sort_key)
    pairs = [(rows_t[rid], rows_ms[rid]) for rid in ids]
    rows = [(rid, rt, rms, rt - rms, abs(rt - rms)) for rid, (rt, rms) in zip(ids, pairs)]

    try:
        mr_value = repr(risk.miss_rate(pairs, threshold))
    except PrivGamesError:
        mr_value = UNDEFINED_TOKEN
    summary = risk.summarize_distribution([abs_delta for *_, abs_delta in rows])
    footer = [
        f"summary,n_records,{len(pairs)}",
        f"summary,threshold,{threshold!r}",
        f"summary,rmsd,{risk.rmsd(pairs)!r}",
        f"summary,miss_rate,{mr_value}",
        *(f"summary,abs_delta_p{q},{v!r}" for q, v in sorted(summary.percentiles.items())),
        *(
            f"hist,{lo!r},{hi!r},{count}"
            for lo, hi, count in zip(summary.bin_edges, summary.bin_edges[1:], summary.bin_counts)
        ),
    ]

    cfg_hash = hash_t if hash_t == hash_ms else "mixed"
    status = "partial" if "partial" in (status_t, status_ms) else "complete"
    _write_table(out_path, "comparison", cfg_hash, status, rows, log, footer)
    return 0


# ------------------------------------------------------------ convergence


def convergence_table(cfg, threads=1, log=print):
    """Rows of the convergence study, with the run status: the spread of
    the AUC estimate per (record, game, n_eval) across repeated
    evaluations, each repetition with a freshly built adversary."""
    if not cfg.n_eval_grid:
        raise ConfigError("convergence.grid is required for this command")
    if cfg.repetitions < 2:
        raise ConfigError(
            f"convergence.repetitions must be >= 2 (got {cfg.repetitions})"
        )

    def attack_seeds(rid):
        return [
            derive(cfg.master_seed, f"conv-attack-{rid}", rep) for rep in range(cfg.repetitions)
        ]

    def record_games(rid, adversaries):
        base = derive(cfg.master_seed, "convergence", rid)
        return [
            (game_config(cfg, kind, derive(derive(base, kind, n_eval), "rep", rep), n_eval),
             adversary)
            for rep, adversary in enumerate(adversaries)
            for kind in cfg.game_kinds
            for n_eval in cfg.n_eval_grid
        ]

    def evaluate(rid, transcripts):
        # Each transcript is dropped as soon as its AUC is read.
        aucs = np.array([risk.roc_auc(t) for t in transcripts]).reshape(
            cfg.repetitions, len(cfg.game_kinds), len(cfg.n_eval_grid)
        )
        rows = []
        for k, kind in enumerate(cfg.game_kinds):
            for j, n_eval in enumerate(cfg.n_eval_grid):
                values = np.array(aucs[:, k, j])
                radius = risk.hoeffding_radius(n_eval // 2, cfg.rho)
                rows.append(
                    (rid, kind, n_eval, float(values.mean()), float(values.std(ddof=1)), radius)
                )
        return rows, "convergence grid done"

    per_record, status = _each_record(cfg, log, attack_seeds, record_games, evaluate, threads)
    return [row for rows in per_record for row in rows], status


def cmd_convergence(cfg, threads=1, log=print):
    rows, status = convergence_table(cfg, threads=threads, log=log)
    _write_table(
        os.path.join(cfg.out_dir, "convergence.csv"), "convergence",
        cfg.config_hash(), status, rows, log,
    )
    return _EXIT_CODE[status]


# --------------------------------------------------------------- dp-audit


def cmd_dp_audit(cfg, threads=1, log=print):
    """Audit the model-seeded trade-off curve against the DP bound."""
    if cfg.generator_spec.kind != generators.PRIVBAYNET:
        raise ConfigError(
            "generator.kind must be privbaynet for dp-audit "
            f"(got {cfg.generator_spec.kind!r})"
        )

    def evaluate(rid, transcripts):
        (transcript,) = transcripts
        points = risk.dp_audit_points(
            transcript, cfg.generator_spec.epsilon, delta=0.0, rho=cfg.rho
        )
        rows = [(rid, alpha, beta, bound, int(flagged)) for alpha, beta, bound, flagged in points]
        flagged_total = sum(int(flagged) for *_, flagged in points)
        return (rows, flagged_total), f"{len(points)} trade-off points audited"

    per_record, status = _each_record(
        cfg, log, *_one_game_per_kind(cfg, [games.MODEL_SEEDED]), evaluate, threads
    )
    _write_table(
        os.path.join(cfg.out_dir, "dp_audit.csv"), "dp-audit", cfg.config_hash(),
        status, [row for rows, _ in per_record for row in rows], log,
    )
    log(f"{sum(f for _, f in per_record)} flagged points in {len(per_record)} audited records")
    return _EXIT_CODE[status]


# ------------------------------------------------------------------- main


def _default_threads(text=None):
    """The worker thread count, ``--threads`` ``text`` or, if None,
    $PRIVGAMES_THREADS or 1, read as an integer in [1, MAX_THREADS]."""
    where = THREADS_ENV_VAR if text is None else "--threads"
    text = os.environ.get(THREADS_ENV_VAR, "1") if text is None else text
    return data_mod.read_value(text, _THREADS, where, ConfigError)


def _load_config_with_overrides(args):
    cfg = config_mod.load_experiment_config(args.config)
    if getattr(args, "seed", None) is not None:
        reader = config_mod.reader("experiment.master_seed")
        where = "--seed (experiment.master_seed)"
        cfg = replace(cfg, master_seed=data_mod.read_value(args.seed, reader, where, ConfigError))
    if getattr(args, "out", None):
        cfg = replace(cfg, out_dir=args.out)
    if getattr(args, "records", None):
        config_mod.parse_record_selection(args.records)
        cfg = replace(cfg, record_selection=args.records)
    return cfg


def _add_run_style_options(sub):
    sub.add_argument("--config", required=True, help="experiment config file")
    sub.add_argument("--seed", help="override experiment.master_seed")
    sub.add_argument("--out", help="override output.dir")
    sub.add_argument(
        "--records", help="override records.selection (ids:... | first:K | random:K)"
    )
    sub.add_argument(
        "--threads",
        help="play the command's grid of game rounds in spans of at most an N-th of "
        f"it, N at a time in a thread pool (1 to {MAX_THREADS}; default "
        f"${THREADS_ENV_VAR} or 1)",
    )


def build_parser():
    import argparse  # only the command line parses arguments

    parser = argparse.ArgumentParser(
        prog="privgames",
        description="Per-record membership-inference risk evaluation for "
        "synthetic data generators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="play the configured games per record")
    _add_run_style_options(p_run)

    p_cmp = sub.add_parser("compare", help="join traditional and model-seeded results")
    p_cmp.add_argument("results_traditional")
    p_cmp.add_argument("results_model_seeded")
    p_cmp.add_argument("--threshold", default=repr(risk.DEFAULT_THRESHOLD))
    p_cmp.add_argument("--out", default="comparison.csv")
    p_cmp.add_argument(
        "--allow-mixed",
        action="store_true",
        help="compare files whose config hashes differ",
    )

    p_conv = sub.add_parser("convergence", help="AUC spread across an n_eval grid")
    _add_run_style_options(p_conv)

    p_audit = sub.add_parser("dp-audit", help="check the DP trade-off lower bound")
    _add_run_style_options(p_audit)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "compare":
            reader = config_mod.reader("output.high_risk_threshold")
            return cmd_compare(
                args.results_traditional,
                args.results_model_seeded,
                data_mod.read_value(args.threshold, reader, "--threshold", ConfigError),
                args.out,
                allow_mixed=args.allow_mixed,
            )
        threads = _default_threads(args.threads)
        cfg = _load_config_with_overrides(args)
        if args.command == "run":
            return cmd_run(cfg, threads=threads)
        if args.command == "convergence":
            return cmd_convergence(cfg, threads=threads)
        return cmd_dp_audit(cfg, threads=threads)
    except (ConfigError, JoinError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PrivGamesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
