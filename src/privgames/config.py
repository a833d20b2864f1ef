"""Experiment configuration: INI parsing, validation, canonical hashing.

The config file is key-value text with sections.  Every invalid field is
reported as ``section.key`` so a failing run names what to fix.  A
canonical JSON snapshot of the parsed config is hashed into every output
file header, letting downstream commands refuse to join results produced
under different configurations.
"""

import configparser
import math
import os
from dataclasses import asdict, dataclass

from . import corpora, games, generators
from .attack import DEFAULT_K_VALUES, DEFAULT_QUERIES_PER_K
from .errors import ConfigError, DomainError
from .risk import DEFAULT_RHO, DEFAULT_THRESHOLD


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully validated experiment description."""

    dataset: str
    schema_sidecar: str
    aux_size: int
    eval_size: int
    target_size: int
    generator_spec: object
    n_shadow: int
    k_values: tuple
    queries_per_k: int
    epochs: int
    learning_rate: float
    l2: float
    syn_size: int
    n_eval: int
    game_kinds: tuple
    reference_mode: str
    record_selection: str
    master_seed: int
    out_dir: str
    high_risk_threshold: float
    rho: float
    n_eval_grid: tuple = ()
    repetitions: int = 0

    def snapshot(self):
        """Every field but ``out_dir``: where results land is not part of
        what produced them."""
        d = asdict(self)
        del d["out_dir"]
        return d

    def config_hash(self):
        return games.config_hash(self.snapshot())


def _get(parser, section, key, default=None, required=False):
    if parser.has_option(section, key):
        try:
            return parser.get(section, key).strip()
        except configparser.Error as exc:
            raise ConfigError(f"{section}.{key} is malformed: {exc}") from None
    if required:
        raise ConfigError(f"{section}.{key} is required")
    return default


def _get_int(parser, section, key, default=None, required=False, minimum=None):
    raw = _get(parser, section, key, None, required)
    if raw is None:
        value = default
    else:
        try:
            value = int(raw)
        except ValueError:
            raise ConfigError(f"{section}.{key} must be an integer (got {raw!r})")
    if value is not None and minimum is not None and value < minimum:
        raise ConfigError(f"{section}.{key} must be >= {minimum} (got {value})")
    return value


def _get_float(parser, section, key, default=None, required=False):
    raw = _get(parser, section, key, None, required)
    if raw is None:
        return default
    try:
        value = float(raw)
    except ValueError:
        value = None
    # nan passes every range check after this one (nan < 0 is False), and
    # no setting means anything at inf.
    if value is None or not math.isfinite(value):
        raise ConfigError(f"{section}.{key} must be a finite number (got {raw!r})")
    return value


def _get_int_list(parser, section, key, default=()):
    raw = _get(parser, section, key)
    if raw is None:
        return tuple(default)
    try:
        return tuple(int(tok) for tok in raw.split(",") if tok.strip())
    except ValueError:
        raise ConfigError(f"{section}.{key} must be comma-separated integers (got {raw!r})")


def _build_generator_spec(parser):
    kind = _get(parser, "generator", "kind", generators.BAYNET)
    if kind not in generators.KINDS:
        raise ConfigError(
            f"generator.kind must be one of {', '.join(generators.KINDS)} (got {kind!r})"
        )
    try:
        return generators.GeneratorSpec(
            kind=kind,
            max_parents=_get_int(parser, "generator", "max_parents", 1, minimum=0),
            epsilon=_get_float(parser, "generator", "epsilon"),
            p_in=_get_float(parser, "generator", "p_in"),
            p_out=_get_float(parser, "generator", "p_out"),
            smoothing=_get_float(parser, "generator", "smoothing", 1.0),
            mi_floor=_get_float(parser, "generator", "mi_floor", 0.0),
        )
    except DomainError as exc:
        raise ConfigError(f"generator section invalid: {exc}") from None


def parse_record_selection(text):
    """Split a selection spec into its mode and payload.

    ``ids:3,17`` names explicit row indices, ``first:K`` the first K
    rows, ``random:K`` a seeded uniform draw of K rows.
    """
    mode, _, arg = text.partition(":")
    mode = mode.strip()
    if mode == "ids":
        try:
            ids = tuple(int(tok) for tok in arg.split(",") if tok.strip())
        except ValueError:
            raise ConfigError(f"records.selection ids must be integers (got {arg!r})")
        if not ids:
            raise ConfigError("records.selection ids list is empty")
        if len(set(ids)) != len(ids):
            raise ConfigError("records.selection ids contain duplicates")
        return "ids", ids
    if mode in ("first", "random"):
        try:
            k = int(arg)
        except ValueError:
            raise ConfigError(f"records.selection needs an integer count (got {arg!r})")
        if k < 1:
            raise ConfigError(f"records.selection count must be >= 1 (got {k})")
        return mode, k
    raise ConfigError(
        f"records.selection must be ids:..., first:K, or random:K (got {text!r})"
    )


def load_experiment_config(path):
    """Parse and validate an experiment config file."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        read = parser.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        detail = " ".join(str(exc).split())  # configparser spreads it over lines
        raise ConfigError(f"{path}: malformed config file: {detail}") from None
    if not read:
        raise ConfigError(f"config file not found: {path}")

    dataset = _get(parser, "data", "dataset", required=True)
    sidecar = _get(parser, "data", "schema", "")
    # A bundled corpus's own sidecar is resolved when the data is loaded,
    # not stored here: its path depends on where the package lives, and
    # this config is hashed.
    csv_path, _ = corpora.resolve_dataset(dataset)
    if not os.path.isfile(csv_path):
        raise ConfigError(f"data.dataset file not found: {csv_path}")
    if sidecar and not os.path.isfile(sidecar):
        raise ConfigError(f"data.schema file not found: {sidecar}")

    aux_size = _get_int(parser, "data", "aux_size", required=True, minimum=1)
    eval_size = _get_int(parser, "data", "eval_size", required=True, minimum=1)
    target_size = _get_int(parser, "data", "target_size", required=True, minimum=1)
    if target_size > eval_size:
        raise ConfigError(
            f"data.target_size ({target_size}) cannot exceed data.eval_size ({eval_size})"
        )

    spec = _build_generator_spec(parser)
    # Shadow sets hold target_size records drawn from the auxiliary split;
    # the toy generator's adversary trains no shadows.
    if spec.kind != generators.TOY and aux_size < target_size:
        raise ConfigError(
            f"data.aux_size ({aux_size}) must be at least data.target_size ({target_size}): "
            "shadow sets are target_size records of the auxiliary split"
        )

    n_shadow = _get_int(parser, "attack", "n_shadow", 50, minimum=2)
    if n_shadow % 2 != 0:
        raise ConfigError(f"attack.n_shadow must be even (got {n_shadow})")
    k_values = _get_int_list(parser, "attack", "k_values", DEFAULT_K_VALUES)
    if not k_values:
        raise ConfigError("attack.k_values is empty")
    for k in k_values:
        if k < 1:
            raise ConfigError(f"attack.k_values entries must be >= 1 (got {k})")
    queries_per_k = _get_int(
        parser, "attack", "queries_per_k", DEFAULT_QUERIES_PER_K, minimum=1
    )
    epochs = _get_int(parser, "attack", "epochs", 800, minimum=1)
    learning_rate = _get_float(parser, "attack", "learning_rate", 1.0)
    if learning_rate <= 0:
        raise ConfigError(f"attack.learning_rate must be > 0 (got {learning_rate})")
    l2 = _get_float(parser, "attack", "l2", 1e-4)
    if l2 < 0:
        raise ConfigError(f"attack.l2 must be >= 0 (got {l2})")
    syn_size = _get_int(parser, "attack", "syn_size", target_size, minimum=1)

    n_eval = _get_int(parser, "game", "n_eval", required=True, minimum=2)
    if n_eval % 2 != 0:
        raise ConfigError(f"game.n_eval must be even (got {n_eval})")
    kinds_raw = _get(parser, "game", "kinds", "traditional,model_seeded")
    game_kinds = tuple(tok.strip() for tok in kinds_raw.split(",") if tok.strip())
    if not game_kinds:
        raise ConfigError("game.kinds is empty")
    for kind in game_kinds:
        if kind not in games.GAME_KINDS:
            raise ConfigError(
                f"game.kinds entries must be in {games.GAME_KINDS} (got {kind!r})"
            )
    if len(set(game_kinds)) != len(game_kinds):
        raise ConfigError("game.kinds contains duplicates")
    reference_mode = _get(parser, "game", "reference_mode", games.REFERENCE_PER_RUN)
    if reference_mode not in (games.REFERENCE_PER_RUN, games.REFERENCE_FIXED):
        raise ConfigError(
            f"game.reference_mode must be per_run or fixed (got {reference_mode!r})"
        )

    selection = _get(parser, "records", "selection", "random:10")
    parse_record_selection(selection)  # validate eagerly

    master_seed = _get_int(parser, "experiment", "master_seed", 0)
    if master_seed < 0:
        raise ConfigError(f"experiment.master_seed must be >= 0 (got {master_seed})")

    out_dir = _get(parser, "output", "dir", "out")
    threshold = _get_float(parser, "output", "high_risk_threshold", DEFAULT_THRESHOLD)
    if not 0.0 < threshold < 1.0:
        raise ConfigError(
            f"output.high_risk_threshold must be in (0, 1) (got {threshold})"
        )
    rho = _get_float(parser, "output", "rho", DEFAULT_RHO)
    if not 0.0 < rho < 1.0:
        raise ConfigError(f"output.rho must be in (0, 1) (got {rho})")

    grid = _get_int_list(parser, "convergence", "grid", ())
    for n in grid:
        if n < 2 or n % 2 != 0:
            raise ConfigError(
                f"convergence.grid entries must be positive even numbers (got {n})"
            )
    if len(set(grid)) != len(grid):
        raise ConfigError("convergence.grid contains duplicates")
    repetitions = _get_int(parser, "convergence", "repetitions", 0, minimum=0)

    return ExperimentConfig(
        dataset=dataset,
        schema_sidecar=sidecar or "",
        aux_size=aux_size,
        eval_size=eval_size,
        target_size=target_size,
        generator_spec=spec,
        n_shadow=n_shadow,
        k_values=k_values,
        queries_per_k=queries_per_k,
        epochs=epochs,
        learning_rate=learning_rate,
        l2=l2,
        syn_size=syn_size,
        n_eval=n_eval,
        game_kinds=game_kinds,
        reference_mode=reference_mode,
        record_selection=selection,
        master_seed=master_seed,
        out_dir=out_dir,
        high_risk_threshold=threshold,
        rho=rho,
        n_eval_grid=grid,
        repetitions=repetitions,
    )
