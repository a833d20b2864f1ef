"""Experiment configuration: INI parsing, validation, canonical hashing.

The config file is key-value text with sections.  ``KEYS`` is the one
declaration of what it may hold: each key's section, the field it fills,
how it parses, its default and its range.  One loop over it parses every
key, and a section or key it does not declare is an error that suggests
the closest declared name.  Every invalid field is reported as
``section.key`` so a failing run names what to fix.  A canonical JSON
snapshot of the parsed config is hashed into every output file header,
letting downstream commands refuse to join results produced under
different configurations.
"""

import configparser
import hashlib
import json
import math
import os
from dataclasses import asdict, dataclass

from . import attack, corpora, games, generators
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
        """First 12 hex digits of the sha256 of the snapshot as canonical JSON."""
        text = json.dumps(self.snapshot(), sort_keys=True)
        return hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]


REQUIRED = object()  # a KEYS default: the key has none and must be set


def _finite(raw):
    value = float(raw)
    # nan passes every range check (nan < 0 is False); inf means no setting.
    if not math.isfinite(value):
        raise ValueError(raw)
    return value


def _split(item):
    return lambda raw: tuple(item(tok.strip()) for tok in raw.split(",") if tok.strip())


def _at_least(low):
    return lambda v: v >= low, f">= {low}"


def _one_of(names):
    return lambda v: v in names, "one of " + ", ".join(names)


# How a raw value is parsed, and what it must look like if that fails.
_STR = (str, "text")
_INT = (int, "an integer")
_FLOAT = (_finite, "a finite number")
_INTS = (_split(int), "comma-separated integers")
_NAMES = (_split(str), "comma-separated names")

_EVEN = (lambda v: v >= 2 and v % 2 == 0, "an even number >= 2")
_SEED = (lambda v: 0 <= v <= 2**64 - 1, "in [0, 2**64 - 1]")  # a stream seed
_UNIT = (lambda v: 0.0 < v < 1.0, "in (0, 1)")

_SPEC = generators.GeneratorSpec  # its field defaults are the [generator] defaults

# Every key a config file may set: (section, key, ExperimentConfig field or
# spec.<GeneratorSpec field>, parse, default or REQUIRED, range rule).  A
# rule is (predicate, what it accepts), checked on a value the file sets;
# a list whose default is not empty must not be empty either.
KEYS = (
    ("data", "dataset", "dataset", _STR, REQUIRED, None),
    ("data", "schema", "schema_sidecar", _STR, "", None),
    ("data", "aux_size", "aux_size", _INT, REQUIRED, _at_least(1)),
    ("data", "eval_size", "eval_size", _INT, REQUIRED, _at_least(1)),
    ("data", "target_size", "target_size", _INT, REQUIRED, _at_least(1)),
    ("generator", "kind", "spec.kind", _STR, generators.BAYNET, _one_of(generators.KINDS)),
    ("generator", "max_parents", "spec.max_parents", _INT, _SPEC.max_parents, _at_least(0)),
    ("generator", "epsilon", "spec.epsilon", _FLOAT, _SPEC.epsilon, None),
    ("generator", "p_in", "spec.p_in", _FLOAT, _SPEC.p_in, None),
    ("generator", "p_out", "spec.p_out", _FLOAT, _SPEC.p_out, None),
    ("generator", "smoothing", "spec.smoothing", _FLOAT, _SPEC.smoothing, None),
    ("generator", "mi_floor", "spec.mi_floor", _FLOAT, _SPEC.mi_floor, None),
    ("attack", "n_shadow", "n_shadow", _INT, 50, _EVEN),
    ("attack", "k_values", "k_values", _INTS, attack.DEFAULT_K_VALUES,
     (lambda ks: min(ks) >= 1, "integers >= 1")),
    ("attack", "queries_per_k", "queries_per_k", _INT, attack.DEFAULT_QUERIES_PER_K, _at_least(1)),
    ("attack", "epochs", "epochs", _INT, attack.DEFAULT_EPOCHS, _at_least(1)),
    ("attack", "learning_rate", "learning_rate", _FLOAT, attack.DEFAULT_LEARNING_RATE,
     (lambda v: v > 0, "> 0")),
    ("attack", "l2", "l2", _FLOAT, attack.DEFAULT_L2, _at_least(0)),
    ("attack", "syn_size", "syn_size", _INT, None, _at_least(1)),  # None: target_size
    ("game", "n_eval", "n_eval", _INT, REQUIRED, _EVEN),
    ("game", "kinds", "game_kinds", _NAMES, games.GAME_KINDS, (
        lambda ks: set(ks) <= set(games.GAME_KINDS) and len(set(ks)) == len(ks),
        "distinct names from " + ", ".join(games.GAME_KINDS),
    )),
    ("game", "reference_mode", "reference_mode", _STR, games.REFERENCE_PER_RUN,
     _one_of((games.REFERENCE_PER_RUN, games.REFERENCE_FIXED))),
    ("records", "selection", "record_selection", _STR, "random:10", None),
    ("experiment", "master_seed", "master_seed", _INT, 0, _SEED),
    ("output", "dir", "out_dir", _STR, "out", None),
    ("output", "high_risk_threshold", "high_risk_threshold", _FLOAT, DEFAULT_THRESHOLD, _UNIT),
    ("output", "rho", "rho", _FLOAT, DEFAULT_RHO, _UNIT),
    ("convergence", "grid", "n_eval_grid", _INTS, (), (
        lambda g: all(n >= 2 and n % 2 == 0 for n in g) and len(set(g)) == len(g),
        "distinct positive even numbers",
    )),
    ("convergence", "repetitions", "repetitions", _INT, 0, _at_least(0)),
)


def checked(name, value, raw):
    """``value``, parsed from ``raw`` for the key ``name`` (``section.key``),
    once its ``KEYS`` range rule accepts it; else a ConfigError naming the key."""
    rule = next(row[5] for row in KEYS if f"{row[0]}.{row[1]}" == name)
    if rule and not rule[0](value):
        raise ConfigError(f"{name} must be {rule[1]} (got {raw!r})")
    return value


def _unknown(path, what, name, known):
    import difflib  # only a misspelt key needs it

    close = difflib.get_close_matches(name.lower(), known, n=1)
    hint = f" (did you mean {close[0]}?)" if close else ""
    return ConfigError(f"{path}: unknown {what} {name}{hint}")


def _check_names(parser, path):
    """Reject [DEFAULT] (configparser copies it into every section) and undeclared names."""
    if parser.defaults():
        raise ConfigError(f"{path}: a [DEFAULT] section is not allowed")
    sections = sorted({row[0] for row in KEYS})
    names = [f"{row[0]}.{row[1]}" for row in KEYS]
    for section in parser.sections():
        if section not in sections:
            raise _unknown(path, "section", f"[{section}]", [f"[{s}]" for s in sections])
        for key in parser.options(section):
            if f"{section}.{key}" not in names:
                # A declared key in the wrong section: point to its own.
                elsewhere = [n for n in names if n.endswith(f".{key}")]
                raise _unknown(path, "key", f"{section}.{key}", elsewhere or names)


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
    _check_names(parser, path)

    fields, spec = {}, {}
    for section, key, field, (parse, what), default, _ in KEYS:
        name = f"{section}.{key}"
        try:
            raw = parser.get(section, key, fallback=None)
        except configparser.Error as exc:
            raise ConfigError(f"{name} is malformed: {exc}") from None
        if raw is None:
            if default is REQUIRED:
                raise ConfigError(f"{name} is required")
            value = default
        else:
            raw = raw.strip()
            try:
                value = parse(raw)
            except ValueError:
                raise ConfigError(f"{name} must be {what} (got {raw!r})") from None
            if value == () and default != ():
                raise ConfigError(f"{name} is empty")
            checked(name, value, raw)
        target, _, attr = field.rpartition(".")
        (spec if target else fields)[attr] = value

    # A bundled corpus's own sidecar is resolved when the data is loaded,
    # not stored here: its path depends on where the package lives, and
    # this config is hashed.
    try:
        csv_path, _ = corpora.resolve_dataset(fields["dataset"])
    except DomainError as exc:
        raise ConfigError(f"data.dataset: {exc}") from None
    if not os.path.isfile(csv_path):
        raise ConfigError(f"data.dataset file not found: {csv_path}")
    sidecar = fields["schema_sidecar"]
    if sidecar and not os.path.isfile(sidecar):
        raise ConfigError(f"data.schema file not found: {sidecar}")
    aux_size, eval_size, target_size = map(fields.get, ("aux_size", "eval_size", "target_size"))
    if target_size > eval_size:
        raise ConfigError(
            f"data.target_size ({target_size}) cannot exceed data.eval_size ({eval_size})"
        )
    try:
        fields["generator_spec"] = generators.GeneratorSpec(**spec)
    except DomainError as exc:
        raise ConfigError(f"generator section invalid: {exc}") from None
    # Shadow sets hold target_size records drawn from the auxiliary split;
    # the toy generator's adversary trains no shadows.
    if spec["kind"] != generators.TOY and aux_size < target_size:
        raise ConfigError(
            f"data.aux_size ({aux_size}) must be at least data.target_size ({target_size}): "
            "shadow sets are target_size records of the auxiliary split"
        )
    if fields["syn_size"] is None:
        fields["syn_size"] = target_size
    parse_record_selection(fields["record_selection"])  # validate eagerly
    return ExperimentConfig(**fields)
