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

import numpy as np

from . import attack, corpora, games, generators, risk
from . import config as config_mod
from . import data as data_mod
from .errors import ConfigError, JoinError, PrivGamesError, TrainingError
from .seeds import derive, rng

THREADS_ENV_VAR = "PRIVGAMES_THREADS"

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
    fields = {"config": cfg_hash, "status": status, "generated": generated}
    _write_file(path, data_mod.table_lines(kind, fields, rows) + list(footer))
    log(f"wrote {path}")


def read_result_rows(path, game=None):
    """(config hash, status, ordered {record_id: auc}) of a results file
    (see ``data.read_table``).  A status other than complete or partial, a
    config other than 12 lowercase hex digits, a repeated record id, or a
    row of another game than ``game`` also raises ConfigError."""
    fields, rows = data_mod.read_table(path, "results")
    cfg_hash, status = fields.get("config", ""), fields.get("status", "")
    if status not in _EXIT_CODE:
        raise ConfigError(f"{path}, line 1: status {status!r} is not complete or partial")
    if len(cfg_hash) != 12 or not set(cfg_hash) <= set("0123456789abcdef"):
        raise ConfigError(f"{path}, line 1: config {cfg_hash!r} is not 12 lowercase hex digits")
    aucs = {}
    for no, _, (rid, kind, _, auc, *_) in rows:
        if game is not None and kind != game:
            raise ConfigError(f"{path}, line {no}: game {kind!r} is not {game}")
        if rid in aucs:
            raise ConfigError(f"{path}, line {no}: record id {rid!r} appears twice")
        aucs[rid] = auc
    return cfg_hash, status, aucs


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


def _failure(exc):
    """A record's failure as a PrivGamesError: a MemoryError becomes one
    that says the record ran out of memory.  It keeps no traceback or
    context, whose frames would hold the failed record's arrays while
    the other records run."""
    if isinstance(exc, MemoryError):
        exc = PrivGamesError(f"out of memory: {exc}")
    exc.__traceback__ = exc.__context__ = exc.__cause__ = None
    return exc


def build_adversaries(cfg, bank, d_aux, targets):
    """One adversary per ``(x, seed)`` of ``targets``, in order.

    Toy generators release a bit, so their adversary reads it and
    nothing is trained: every target gets the same adversary object, so
    ``convergence`` plays a toy record's repetitions as one grid.
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
            built.append(_failure(exc))
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
            built[i] = _failure(exc)
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
    return games.GameConfig(
        n_eval=n_eval,
        dataset_size=cfg.target_size,
        generator_spec=cfg.generator_spec,
        master_seed=master_seed,
        game_kind=kind,
        reference_mode=cfg.reference_mode,
    )


def play_game(cfg, kind, rid, x, d_eval, d_target, adversary, threads):
    seed = derive(cfg.master_seed, f"game-{kind}", rid)
    return games.run_game(
        x, d_eval, d_target, adversary, game_config(cfg, kind, seed, cfg.n_eval),
        record_id=str(rid), threads=threads,
    )


def _each_record(cfg, evaluate, log, attack_seeds, subdirs=()):
    """Evaluate every selected record in order; returns (outputs, status).

    ``attack_seeds(rid)`` lists the seeds of the adversaries record
    ``rid`` needs.  Every record's adversaries are built by one
    ``build_adversaries`` call before the first record is evaluated, so
    all their meta-classifiers train in one stacked descent.
    ``evaluate(rid, x, d_eval, d_target, adversaries)`` then returns one
    record's output and a one-line summary, logged as
    ``record <id>: ...``.  A record whose adversary could not be built,
    or whose evaluation raises a PrivGamesError or runs out of memory,
    is logged at its turn and left out; the other records still run and
    the status becomes ``partial``.  Makes ``cfg.out_dir`` and
    ``subdirs`` below it first (ConfigError if not).  Before anything
    else it sets the process's malloc thresholds (``_keep_batch_memory``).
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
    outputs = []
    status = "complete"
    for rid in record_ids:
        adversaries = [next(built) for _ in seeds[rid]]
        try:
            for adversary in adversaries:
                if isinstance(adversary, PrivGamesError):
                    raise adversary
            output, summary = evaluate(rid, d_target.record(rid), d_eval, d_target, adversaries)
        except (PrivGamesError, MemoryError) as exc:
            log(f"record evaluation failed: record {rid}: {_failure(exc)}")
            status = "partial"
            continue
        outputs.append(output)
        log(f"record {rid}: {summary}")
    return outputs, status


def _attack_seed(cfg):
    """``attack_seeds`` of ``run`` and ``dp-audit``: one adversary per
    record."""
    return lambda rid: [derive(cfg.master_seed, "attack", rid)]


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

    def evaluate(rid, x, d_eval, d_target, adversaries):
        # A record lands in the outputs with all its games or not at all.
        (adversary,) = adversaries
        transcripts = [
            play_game(cfg, kind, rid, x, d_eval, d_target, adversary, threads)
            for kind in cfg.game_kinds
        ]
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
        cfg, evaluate, log, _attack_seed(cfg), subdirs=("transcripts",)
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
    evaluations, each repetition with a freshly built adversary.  The
    games of one record, kind and adversary are one ``games.run_games``
    grid: a toy record's repetitions share their adversary, so it plays
    one grid per kind."""
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

    def evaluate(rid, x, d_eval, d_target, adversaries):
        base = derive(cfg.master_seed, "convergence", rid)
        reps = {}
        for rep, adversary in enumerate(adversaries):
            reps.setdefault(adversary, []).append(rep)
        aucs = {}
        for adversary, group in reps.items():
            for kind in cfg.game_kinds:
                cells = [(n_eval, rep) for rep in group for n_eval in cfg.n_eval_grid]
                configs = [
                    game_config(cfg, kind, derive(derive(base, kind, n_eval), "rep", rep), n_eval)
                    for n_eval, rep in cells
                ]
                transcripts = games.run_games(
                    x, d_eval, d_target, adversary, configs,
                    record_id=str(rid), threads=threads,
                )
                # Each transcript is dropped as soon as its AUC is read.
                for auc, (n_eval, rep) in zip(map(risk.roc_auc, transcripts), cells):
                    aucs[kind, n_eval, rep] = auc
        rows = []
        for kind in cfg.game_kinds:
            for n_eval in cfg.n_eval_grid:
                values = np.array([aucs[kind, n_eval, rep] for rep in range(len(adversaries))])
                radius = risk.hoeffding_radius(n_eval // 2, cfg.rho)
                rows.append(
                    (rid, kind, n_eval, float(values.mean()), float(values.std(ddof=1)), radius)
                )
        return rows, "convergence grid done"

    per_record, status = _each_record(cfg, evaluate, log, attack_seeds)
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

    def evaluate(rid, x, d_eval, d_target, adversaries):
        (adversary,) = adversaries
        transcript = play_game(
            cfg, games.MODEL_SEEDED, rid, x, d_eval, d_target, adversary, threads
        )
        points = risk.dp_audit_points(
            transcript, cfg.generator_spec.epsilon, delta=0.0, rho=cfg.rho
        )
        rows = [(rid, alpha, beta, bound, int(flagged)) for alpha, beta, bound, flagged in points]
        flagged_total = sum(int(flagged) for *_, flagged in points)
        return (rows, flagged_total), f"{len(points)} trade-off points audited"

    per_record, status = _each_record(cfg, evaluate, log, _attack_seed(cfg))
    _write_table(
        os.path.join(cfg.out_dir, "dp_audit.csv"), "dp-audit", cfg.config_hash(),
        status, [row for rows, _ in per_record for row in rows], log,
    )
    log(f"{sum(f for _, f in per_record)} flagged points in {len(per_record)} audited records")
    return _EXIT_CODE[status]


# ------------------------------------------------------------------- main


def _default_threads():
    raw = os.environ.get(THREADS_ENV_VAR)
    if raw is None:
        return 1
    try:
        value = int(raw)
    except ValueError:
        raise ConfigError(f"{THREADS_ENV_VAR} must be an integer (got {raw!r})")
    if value < 1:
        raise ConfigError(f"{THREADS_ENV_VAR} must be >= 1 (got {value})")
    return value


def _load_config_with_overrides(args):
    cfg = config_mod.load_experiment_config(args.config)
    if getattr(args, "seed", None) is not None:
        seed = config_mod.checked("experiment.master_seed", args.seed, f"--seed {args.seed}")
        cfg = replace(cfg, master_seed=seed)
    if getattr(args, "out", None):
        cfg = replace(cfg, out_dir=args.out)
    if getattr(args, "records", None):
        config_mod.parse_record_selection(args.records)
        cfg = replace(cfg, record_selection=args.records)
    return cfg


def _add_run_style_options(sub):
    sub.add_argument("--config", required=True, help="experiment config file")
    sub.add_argument("--seed", type=int, help="override experiment.master_seed")
    sub.add_argument("--out", help="override output.dir")
    sub.add_argument(
        "--records", help="override records.selection (ids:... | first:K | random:K)"
    )
    sub.add_argument(
        "--threads",
        type=int,
        help="split each game's batch of rounds into this many chunks, fit and "
        f"scored in a thread pool (default ${THREADS_ENV_VAR} or 1)",
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
    p_cmp.add_argument("--threshold", type=float, default=risk.DEFAULT_THRESHOLD)
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
            if not 0.0 < args.threshold < 1.0:
                raise ConfigError(
                    f"--threshold must be in (0, 1) (got {args.threshold})"
                )
            return cmd_compare(
                args.results_traditional,
                args.results_model_seeded,
                args.threshold,
                args.out,
                allow_mixed=args.allow_mixed,
            )
        threads = args.threads if args.threads is not None else _default_threads()
        if threads < 1:
            raise ConfigError(f"--threads must be >= 1 (got {threads})")
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
