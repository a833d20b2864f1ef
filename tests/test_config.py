import configparser
import re
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from privgames import corpora, generators
from privgames.config import (
    KEYS,
    load_experiment_config,
    parse_record_selection,
)
from privgames.errors import ConfigError

MINIMAL = """
[data]
dataset = bundled:correlated_500
aux_size = 300
eval_size = 200
target_size = 100

[game]
n_eval = 200
"""


def write(tmp_path, text, name="exp.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_minimal_config_defaults(tmp_path):
    cfg = load_experiment_config(write(tmp_path, MINIMAL))
    assert cfg.dataset == "bundled:correlated_500"
    assert cfg.generator_spec.kind == generators.BAYNET
    assert cfg.n_shadow == 50
    assert cfg.k_values == (1, 2, 3)
    assert cfg.queries_per_k == 100
    assert cfg.epochs == 800
    assert cfg.syn_size == 100
    assert cfg.game_kinds == ("traditional", "model_seeded")
    assert cfg.record_selection == "random:10"
    assert cfg.master_seed == 0
    assert cfg.out_dir == "out"
    assert cfg.high_risk_threshold == 0.8
    assert cfg.rho == 0.2
    assert cfg.n_eval_grid == ()
    assert cfg.repetitions == 0


def test_full_config_round_trip(tmp_path):
    text = MINIMAL + """
[generator]
kind = privbaynet
epsilon = 0.5
max_parents = 2

[attack]
n_shadow = 20
k_values = 1,2
queries_per_k = 40
epochs = 300
learning_rate = 0.5
l2 = 0.001
syn_size = 150

[records]
selection = ids:1,5,9

[experiment]
master_seed = 77

[output]
dir = results
high_risk_threshold = 0.6
rho = 0.1

[convergence]
grid = 100,400
repetitions = 4
"""
    cfg = load_experiment_config(write(tmp_path, text))
    assert cfg.generator_spec.kind == generators.PRIVBAYNET
    assert cfg.generator_spec.epsilon == 0.5
    assert cfg.generator_spec.max_parents == 2
    assert cfg.n_shadow == 20
    assert cfg.k_values == (1, 2)
    assert cfg.syn_size == 150
    assert cfg.record_selection == "ids:1,5,9"
    assert cfg.master_seed == 77
    assert cfg.out_dir == "results"
    assert cfg.high_risk_threshold == 0.6
    assert cfg.rho == 0.1
    assert cfg.n_eval_grid == (100, 400)
    assert cfg.repetitions == 4


def test_config_hash_stable_under_section_order(tmp_path):
    reordered = """
[game]
n_eval = 200

[data]
dataset = bundled:correlated_500
aux_size = 300
eval_size = 200
target_size = 100
"""
    a = load_experiment_config(write(tmp_path, MINIMAL, "a.ini"))
    b = load_experiment_config(write(tmp_path, reordered, "b.ini"))
    assert a.config_hash() == b.config_hash()
    assert len(a.config_hash()) == 12


def test_config_hash_changes_with_seed(tmp_path):
    a = load_experiment_config(write(tmp_path, MINIMAL, "a.ini"))
    b = load_experiment_config(
        write(tmp_path, MINIMAL + "\n[experiment]\nmaster_seed = 9\n", "b.ini")
    )
    assert a.config_hash() != b.config_hash()


@pytest.mark.parametrize("seed, ok", [(0, True), (2**64 - 1, True), (-1, False), (2**64, False)])
def test_master_seed_must_fit_in_64_bits(tmp_path, seed, ok):
    path = write(tmp_path, MINIMAL + f"\n[experiment]\nmaster_seed = {seed}\n")
    if ok:
        assert load_experiment_config(path).master_seed == seed
    else:
        message = rf"experiment\.master_seed '{seed}' is not in \[0, 2\*\*64\)"
        with pytest.raises(ConfigError, match=message):
            load_experiment_config(path)


# The hash is written into the header of every output file, and compare
# refuses to join files whose hashes differ, so these values must not move.
PINNED_BASE = """
[data]
dataset = bundled:independent_1000
aux_size = 300
eval_size = 200
target_size = 50

[game]
n_eval = 100
"""

PINNED = {
    "independent": ("[generator]\nkind = independent\n", "e20af6023638"),
    "baynet": (
        "[generator]\nkind = baynet\nmax_parents = 2\nsmoothing = 0.5\n"
        "mi_floor = 0.01\n\n[attack]\nk_values = 1,2\nqueries_per_k = 30\n",
        "18a3b331dd2e",
    ),
    "privbaynet": (
        "[generator]\nkind = privbaynet\nepsilon = 1.0\n\n[records]\nselection = first:4\n",
        "8bd468baf359",
    ),
    "toy": (
        "[generator]\nkind = toy\np_in = 0.8\np_out = 0.2\n\n"
        "[convergence]\ngrid = 20,40\nrepetitions = 3\n",
        "e3ab69b35f8d",
    ),
}


@pytest.mark.parametrize("kind", sorted(PINNED))
def test_config_hash_pinned(tmp_path, kind):
    extra, expected = PINNED[kind]
    cfg = load_experiment_config(write(tmp_path, PINNED_BASE + extra))
    assert cfg.generator_spec.kind == kind
    assert cfg.config_hash() == expected


def test_bundled_sidecar_hash_independent_of_install_path(tmp_path, monkeypatch):
    # correlated_500 ships a sidecar; where the package lives must not
    # leak into the hash, or two checkouts could not compare results.
    path = write(tmp_path, MINIMAL)
    cfg = load_experiment_config(path)
    assert cfg.schema_sidecar == ""
    assert cfg.config_hash() == "2afe915d9955"
    moved = tmp_path / "elsewhere" / "corpora"
    moved.mkdir(parents=True)
    for suffix in (".csv", ".schema"):
        src = corpora.corpus_path(corpora.CORRELATED)[: -len(".csv")] + suffix
        (moved / f"{corpora.CORRELATED}{suffix}").write_bytes(Path(src).read_bytes())
    monkeypatch.setattr(corpora, "_corpora_dir", lambda: moved)
    assert corpora.sidecar_path(corpora.CORRELATED) == str(moved / "correlated_500.schema")
    assert load_experiment_config(path).config_hash() == "2afe915d9955"


def test_missing_required_key_names_section_and_key(tmp_path):
    text = """
[data]
dataset = bundled:correlated_500
aux_size = 300
eval_size = 200

[game]
n_eval = 200
"""
    with pytest.raises(ConfigError, match=r"data\.target_size"):
        load_experiment_config(write(tmp_path, text))


def test_non_integer_value_names_section_and_key(tmp_path):
    text = MINIMAL.replace("n_eval = 200", "n_eval = soon")
    with pytest.raises(ConfigError, match=r"game\.n_eval"):
        load_experiment_config(write(tmp_path, text))


def test_threshold_must_be_strictly_inside_unit_interval(tmp_path):
    text = MINIMAL + "\n[output]\nhigh_risk_threshold = 1.5\n"
    with pytest.raises(ConfigError, match=r"output\.high_risk_threshold"):
        load_experiment_config(write(tmp_path, text))


def test_odd_n_eval_rejected(tmp_path):
    text = MINIMAL.replace("n_eval = 200", "n_eval = 201")
    with pytest.raises(ConfigError, match=r"game\.n_eval"):
        load_experiment_config(write(tmp_path, text))


def test_target_larger_than_eval_rejected(tmp_path):
    text = MINIMAL.replace("target_size = 100", "target_size = 300")
    with pytest.raises(ConfigError, match="target_size"):
        load_experiment_config(write(tmp_path, text))


@pytest.mark.parametrize("kind", ["baynet", "toy"])
def test_aux_smaller_than_target_rejected_unless_toy(tmp_path, kind):
    # Shadow sets are target_size records of the auxiliary split; the toy
    # generator's adversary trains none.
    text = MINIMAL.replace("aux_size = 300", "aux_size = 99") + f"\n[generator]\nkind = {kind}\n"
    if kind == "toy":
        text += "p_in = 0.8\np_out = 0.2\n"
        assert load_experiment_config(write(tmp_path, text)).aux_size == 99
        return
    message = r"data\.aux_size \(99\) must be at least data\.target_size \(100\)"
    with pytest.raises(ConfigError, match=message):
        load_experiment_config(write(tmp_path, text))


def test_unknown_game_kind_rejected(tmp_path):
    text = MINIMAL + "\n[game]\nkinds = traditional,upside_down\n"
    # configparser merges duplicate sections; rebuild cleanly instead.
    text = MINIMAL.replace(
        "n_eval = 200", "n_eval = 200\nkinds = traditional,upside_down"
    )
    with pytest.raises(ConfigError, match=r"game\.kinds"):
        load_experiment_config(write(tmp_path, text))


def test_unknown_bundled_corpus_rejected(tmp_path):
    text = MINIMAL.replace("bundled:correlated_500", "bundled:nope")
    message = f"data.dataset: unknown corpus 'nope'; have {', '.join(corpora.NAMES)}"
    with pytest.raises(ConfigError, match=re.escape(message)):
        load_experiment_config(write(tmp_path, text))


def test_duplicate_game_kind_rejected(tmp_path):
    text = MINIMAL.replace(
        "n_eval = 200", "n_eval = 200\nkinds = traditional,traditional"
    )
    with pytest.raises(ConfigError, match=r"game\.kinds"):
        load_experiment_config(write(tmp_path, text))


def test_privbaynet_requires_epsilon(tmp_path):
    text = MINIMAL + "\n[generator]\nkind = privbaynet\n"
    with pytest.raises(ConfigError, match="epsilon"):
        load_experiment_config(write(tmp_path, text))


def test_toy_requires_both_rates(tmp_path):
    text = MINIMAL + "\n[generator]\nkind = toy\np_in = 0.8\n"
    with pytest.raises(ConfigError, match="p_out"):
        load_experiment_config(write(tmp_path, text))


def test_bad_selection_syntax(tmp_path):
    text = MINIMAL + "\n[records]\nselection = every_other_one\n"
    with pytest.raises(ConfigError, match=r"records\.selection"):
        load_experiment_config(write(tmp_path, text))


def test_odd_shadow_count_rejected(tmp_path):
    text = MINIMAL + "\n[attack]\nn_shadow = 7\n"
    with pytest.raises(ConfigError, match=r"attack\.n_shadow"):
        load_experiment_config(write(tmp_path, text))


def test_odd_convergence_grid_entry_rejected(tmp_path):
    text = MINIMAL + "\n[convergence]\ngrid = 100,401\nrepetitions = 3\n"
    with pytest.raises(ConfigError, match=r"convergence\.grid"):
        load_experiment_config(write(tmp_path, text))


def test_duplicate_convergence_grid_entry_rejected(tmp_path):
    text = MINIMAL + "\n[convergence]\ngrid = 10,10\nrepetitions = 2\n"
    with pytest.raises(ConfigError, match=r"convergence\.grid"):
        load_experiment_config(write(tmp_path, text))


@pytest.mark.parametrize("section,key,value", [
    ("generator", "smoothing", "nan"),
    ("generator", "mi_floor", "nan"),
    ("attack", "l2", "nan"),
    ("attack", "learning_rate", "inf"),
    ("attack", "learning_rate", "-inf"),
    ("output", "rho", "NaN"),
])
def test_non_finite_float_rejected(tmp_path, section, key, value):
    # nan slips through every "x < 0" range check after the parse.
    text = MINIMAL + f"\n[{section}]\n{key} = {value}\n"
    with pytest.raises(ConfigError, match=rf"{section}\.{key} '{value}' is not a finite number"):
        load_experiment_config(write(tmp_path, text))


DECLARED = {(row[0], row[1]) for row in KEYS}


def test_readme_example_config_loads(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    # The block lists every declared key, set or as a "; key = value" line.
    listed, section = set(), None
    for line in block.splitlines():
        if m := re.match(r"\[(\w+)\]", line):
            section = m.group(1)
        elif m := re.match(r";?\s*(\w+)\s*=", line):
            listed.add((section, m.group(1)))
    assert listed == DECLARED
    cfg = load_experiment_config(write(tmp_path, block))
    assert cfg.dataset == "bundled:correlated_500"
    assert (cfg.aux_size, cfg.eval_size, cfg.target_size) == (300, 200, 50)
    assert cfg.generator_spec.kind == generators.BAYNET
    assert cfg.generator_spec.max_parents == 2
    assert cfg.n_shadow == 50 and cfg.syn_size == 200
    assert cfg.n_eval == 200
    assert cfg.game_kinds == ("traditional", "model_seeded")
    assert cfg.record_selection == "random:20"
    assert cfg.master_seed == 20250817
    assert cfg.n_eval_grid == (100, 400, 1600)
    assert cfg.repetitions == 10


@pytest.mark.parametrize("extra, named, suggested", [
    ("\n[atack]\nn_shadow = 4\n", "unknown section [atack]", "did you mean [attack]?"),
    ("\n[attack]\nn_shadows = 4000\n", "unknown key attack.n_shadows",
     "did you mean attack.n_shadow?"),
    # A declared key in the wrong section points to its own section.
    ("\n[attack]\nepsilon = 1.0\n", "unknown key attack.epsilon",
     "did you mean generator.epsilon?"),
], ids=["section", "key", "wrong-section"])
def test_unknown_name_rejected_with_suggestion(tmp_path, extra, named, suggested):
    # Each of these loaded before, with the hash of MINIMAL alone.
    with pytest.raises(ConfigError) as exc:
        load_experiment_config(write(tmp_path, MINIMAL + extra))
    assert named in str(exc.value) and suggested in str(exc.value)


@pytest.mark.parametrize("default", ["foo = 1", "n_eval = 200"])
def test_default_section_rejected(tmp_path, default):
    # configparser copies [DEFAULT] keys into every section, so n_eval here
    # would silently fill in game.n_eval.
    text = f"[DEFAULT]\n{default}\n" + MINIMAL.replace("n_eval = 200", "")
    with pytest.raises(ConfigError, match=r"\[DEFAULT\]"):
        load_experiment_config(write(tmp_path, text))


def test_upper_case_key_loads(tmp_path):
    # configparser lower-cases option names, so N_EVAL is game.n_eval.
    a = load_experiment_config(write(tmp_path, MINIMAL, "a.ini"))
    b = load_experiment_config(write(tmp_path, MINIMAL.replace("n_eval", "N_EVAL"), "b.ini"))
    assert b == a


def test_duplicate_k_values_still_load(tmp_path):
    cfg = load_experiment_config(write(tmp_path, MINIMAL + "\n[attack]\nk_values = 1,1,2\n"))
    assert cfg.k_values == (1, 1, 2)


def test_missing_file_is_config_error(tmp_path):
    with pytest.raises(ConfigError, match="config file not found"):
        load_experiment_config(str(tmp_path / "absent.ini"))


def test_parse_record_selection_forms():
    assert parse_record_selection("ids:3,1,2") == ("ids", (3, 1, 2))
    assert parse_record_selection("first:5") == ("first", 5)
    assert parse_record_selection("random:12") == ("random", 12)
    with pytest.raises(ConfigError):
        parse_record_selection("ids:")
    with pytest.raises(ConfigError):
        parse_record_selection("first:0")
    with pytest.raises(ConfigError):
        parse_record_selection("random:-3")



# Every key the loader reads, each set to a valid value.
_FULL = """
[data]
dataset = bundled:independent_1000
schema =
aux_size = 300
eval_size = 200
target_size = 50
[generator]
kind = privbaynet
max_parents = 2
epsilon = 1.0
p_in = 0.8
p_out = 0.2
smoothing = 0.5
mi_floor = 0.01
[attack]
n_shadow = 20
k_values = 1,2
queries_per_k = 30
epochs = 100
learning_rate = 0.5
l2 = 0.001
syn_size = 40
[game]
n_eval = 100
kinds = traditional,model_seeded
reference_mode = fixed
[records]
selection = first:4
[experiment]
master_seed = 5
[output]
dir = results
high_risk_threshold = 0.7
rho = 0.1
[convergence]
grid = 20,40
repetitions = 3
"""
_VALUE = st.one_of(
    st.sampled_from(
        ["0", "1", "-1", "3", "0.5", "nan", "inf", "1e999", "abc", "", "1,,x",
         "ids:1,1", "random:0", "toy", "bogus", "bundled:nope", "%(x)s", "50%"]
    ),
    st.text(max_size=10),
)
_LINE = st.one_of(
    st.sampled_from(["[data]", "[game]", "[generator]", "[data", "no equals sign"]),
    st.builds("{} = {}".format, st.sampled_from(["n_eval", "kind", "rho"]), _VALUE),
    st.text(max_size=20),
)


@st.composite
def _ini_texts(draw):
    """The full config with a few values replaced, lines inserted or deleted."""
    lines = _FULL.strip().splitlines()
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        action = draw(st.sampled_from(["value", "value", "insert", "delete"]))
        if action == "value" and " =" in lines[i]:
            lines[i] = lines[i].partition(" =")[0] + " = " + draw(_VALUE)
        elif action == "delete":
            del lines[i]
        else:
            lines.insert(i, draw(_LINE))
    return "\n".join(lines)


def test_fuzz_base_sets_every_declared_key():
    parser = configparser.ConfigParser()
    parser.read_string(_FULL)
    assert {(s, k) for s in parser.sections() for k in parser.options(s)} == DECLARED


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(_ini_texts())
def test_arbitrary_ini_returns_or_raises_privgames_error(tmp_path, text):
    path = tmp_path / "exp.ini"
    path.write_text(text, encoding="utf-8", errors="surrogatepass")
    try:
        load_experiment_config(str(path))
    except ConfigError:
        pass
