"""Experiment configuration: INI parsing, validation, canonical hashing.

The config file is key-value text with sections.  ``KEYS`` is the one
declaration of what it may hold: each key's section, the field it fills,
its reader (how it parses and the range it takes, see ``data.read_value``)
and its default.  One loop over it reads every key, and a section or key
it does not declare is an error that suggests the closest declared name.
Every invalid field is reported as ``section.key`` so a failing run names
what to fix.  A canonical JSON snapshot of the parsed config is hashed
into every output file header, letting downstream commands refuse to
join results produced under different configurations.
"""

import configparser
import hashlib
import json
import os
from dataclasses import asdict, dataclass

from . import attack, corpora, games, generators
from .data import COUNT, FINITE, INT, SEED, TEXT, one_of, read_value
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


def _split(item):
    return lambda raw: tuple(item(tok.strip()) for tok in raw.split(",") if tok.strip())


def _ruled(reader, test, what):
    """``reader`` (see ``data.read_value``) with the rule ``(test, what)``."""
    return reader[:2] + ((test, what),)


# How a raw value reads (see ``data.read_value``).
_NATURAL = _ruled(INT, lambda v: v >= 0, ">= 0")
_INTS = (_split(int), "comma-separated integers", None)
_NAMES = (_split(str), "comma-separated names", None)
_EVEN = _ruled(INT, lambda v: v >= 2 and v % 2 == 0, "an even number >= 2")
_UNIT = _ruled(FINITE, lambda v: 0.0 < v < 1.0, "in (0, 1)")

_SPEC = generators.GeneratorSpec  # its field defaults are the [generator] defaults

# Every key a config file may set: (section, key, ExperimentConfig field or
# spec.<GeneratorSpec field>, reader, default or REQUIRED).  A reader's
# rule is checked on a value the file sets; a list whose default is not
# empty must not be empty either.
KEYS = (
    ("data", "dataset", "dataset", TEXT, REQUIRED),
    ("data", "schema", "schema_sidecar", TEXT, ""),
    ("data", "aux_size", "aux_size", COUNT, REQUIRED),
    ("data", "eval_size", "eval_size", COUNT, REQUIRED),
    ("data", "target_size", "target_size", COUNT, REQUIRED),
    ("generator", "kind", "spec.kind", one_of(generators.KINDS), generators.BAYNET),
    ("generator", "max_parents", "spec.max_parents", _NATURAL, _SPEC.max_parents),
    ("generator", "epsilon", "spec.epsilon", FINITE, _SPEC.epsilon),
    ("generator", "p_in", "spec.p_in", FINITE, _SPEC.p_in),
    ("generator", "p_out", "spec.p_out", FINITE, _SPEC.p_out),
    ("generator", "smoothing", "spec.smoothing", FINITE, _SPEC.smoothing),
    ("generator", "mi_floor", "spec.mi_floor", FINITE, _SPEC.mi_floor),
    ("attack", "n_shadow", "n_shadow", _EVEN, 50),
    ("attack", "k_values", "k_values",
     _ruled(_INTS, lambda ks: all(k >= 1 for k in ks), "integers >= 1"), attack.DEFAULT_K_VALUES),
    ("attack", "queries_per_k", "queries_per_k", COUNT, attack.DEFAULT_QUERIES_PER_K),
    ("attack", "epochs", "epochs", COUNT, attack.DEFAULT_EPOCHS),
    ("attack", "learning_rate", "learning_rate", _ruled(FINITE, lambda v: v > 0, "> 0"),
     attack.DEFAULT_LEARNING_RATE),
    ("attack", "l2", "l2", _ruled(FINITE, lambda v: v >= 0, ">= 0"), attack.DEFAULT_L2),
    ("attack", "syn_size", "syn_size", COUNT, None),  # None: target_size
    ("game", "n_eval", "n_eval", _EVEN, REQUIRED),
    ("game", "kinds", "game_kinds", _ruled(
        _NAMES, lambda ks: set(ks) <= set(games.GAME_KINDS) and len(set(ks)) == len(ks),
        "distinct names from " + ", ".join(games.GAME_KINDS),
    ), games.GAME_KINDS),
    ("game", "reference_mode", "reference_mode",
     one_of((games.REFERENCE_PER_RUN, games.REFERENCE_FIXED)), games.REFERENCE_PER_RUN),
    ("records", "selection", "record_selection", TEXT, "random:10"),
    ("experiment", "master_seed", "master_seed", SEED, 0),
    ("output", "dir", "out_dir", TEXT, "out"),
    ("output", "high_risk_threshold", "high_risk_threshold", _UNIT, DEFAULT_THRESHOLD),
    ("output", "rho", "rho", _UNIT, DEFAULT_RHO),
    ("convergence", "grid", "n_eval_grid", _ruled(
        _INTS, lambda g: all(n >= 2 and n % 2 == 0 for n in g) and len(set(g)) == len(g),
        "distinct positive even numbers",
    ), ()),
    ("convergence", "repetitions", "repetitions", _NATURAL, 0),
)


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


# A record selection's mode, and what follows it.
_MODE = one_of(("ids", "first", "random"))
_IDS = _ruled(_INTS, lambda ids: ids and len(set(ids)) == len(ids), "one or more distinct ids")


def reader(name):
    """The ``KEYS`` reader of the key ``name`` (``section.key``)."""
    return next(row[3] for row in KEYS if f"{row[0]}.{row[1]}" == name)


def parse_record_selection(text):
    """Split a selection spec into its mode and payload.

    ``ids:3,17`` names explicit row indices, ``first:K`` the first K
    rows, ``random:K`` a seeded uniform draw of K rows.
    """
    mode, _, arg = text.partition(":")
    mode = read_value(mode.strip(), _MODE, "records.selection mode", ConfigError)
    reader = _IDS if mode == "ids" else COUNT
    return mode, read_value(arg, reader, f"records.selection {mode}", ConfigError)


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
    for section, key, field, reader, default in KEYS:
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
            value = read_value(raw.strip(), reader, name, ConfigError)
            if value == () and default != ():
                raise ConfigError(f"{name} is empty")
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
