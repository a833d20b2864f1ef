import os
import re
import subprocess
import sys
import threading
import weakref

import pytest

from privgames import attack, cli, corpora, data, errors, games, generators, risk, seeds
from privgames.config import load_experiment_config
from privgames.errors import FitError, PrivGamesError, TrainingError
from privgames.seeds import derive

TOY_TEMPLATE = """
[data]
dataset = bundled:correlated_500
aux_size = 300
eval_size = 200
target_size = 50

[generator]
kind = toy
p_in = 0.8
p_out = 0.2

[game]
n_eval = 40

[records]
selection = first:3

[output]
dir = {out}
"""


def toy_config(tmp_path, out_name="out", extra=""):
    out = tmp_path / out_name
    path = tmp_path / f"{out_name}.ini"
    path.write_text(TOY_TEMPLATE.format(out=out) + extra)
    return str(path), str(out)


def body(path):
    """File content with the timestamped header line stripped."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    assert lines[0].startswith("# privgames-")
    return "\n".join(lines[1:])


def silent(*args, **kwargs):
    pass


# ------------------------------------------------------------------- run


def test_run_writes_results_and_transcripts(tmp_path):
    cfg_path, out = toy_config(tmp_path)
    assert cli.main(["run", "--config", cfg_path]) == 0
    for kind in ("traditional", "model_seeded"):
        path = os.path.join(out, f"results_{kind}.csv")
        assert os.path.isfile(path)
        lines = open(path).read().splitlines()
        assert lines[0].startswith("# privgames-results v1 config=")
        assert "status=complete" in lines[0]
        assert lines[1] == data.TABLES["results"][0]
        assert len(lines) == 2 + 3
        for rid in (0, 1, 2):
            t = games.load_transcript(
                os.path.join(out, "transcripts", f"record{rid}_{kind}.txt")
            )
            assert t.record_id == str(rid)
            assert t.game_kind == kind
            assert len(t.runs) == 40


def test_run_results_match_transcripts(tmp_path):
    cfg_path, out = toy_config(tmp_path)
    cli.main(["run", "--config", cfg_path])
    _, _, rows = cli.read_result_rows(os.path.join(out, "results_traditional.csv"))
    for rid, auc in rows.items():
        t = games.load_transcript(
            os.path.join(out, "transcripts", f"record{rid}_traditional.txt")
        )
        assert risk.roc_auc(t) == auc


def test_every_file_of_a_run_carries_the_config_hash(tmp_path):
    cfg_path, out = toy_config(tmp_path)
    assert cli.main(["run", "--config", cfg_path]) == 0
    paths = [os.path.join(out, f"results_{kind}.csv") for kind in games.GAME_KINDS]
    hashes = {cli.read_result_rows(path)[0] for path in paths}
    names = sorted(os.listdir(os.path.join(out, "transcripts")))
    assert len(names) == 3 * len(games.GAME_KINDS)
    hashes |= {
        games.load_transcript(os.path.join(out, "transcripts", name)).config_hash
        for name in names
    }
    assert hashes == {load_experiment_config(cfg_path).config_hash()}


def test_run_is_deterministic_across_reruns(tmp_path):
    cfg_a, out_a = toy_config(tmp_path, "a")
    cfg_b, out_b = toy_config(tmp_path, "b")
    cli.main(["run", "--config", cfg_a])
    cli.main(["run", "--config", cfg_b])
    for kind in ("traditional", "model_seeded"):
        assert body(os.path.join(out_a, f"results_{kind}.csv")) == body(
            os.path.join(out_b, f"results_{kind}.csv")
        )


def test_run_threads_do_not_change_results(tmp_path):
    cfg_a, out_a = toy_config(tmp_path, "a")
    cfg_b, out_b = toy_config(tmp_path, "b")
    cli.main(["run", "--config", cfg_a, "--threads", "1"])
    cli.main(["run", "--config", cfg_b, "--threads", "4"])
    assert body(os.path.join(out_a, "results_traditional.csv")) == body(
        os.path.join(out_b, "results_traditional.csv")
    )


RUN_GENERATORS = {
    "baynet": "kind = baynet\nmax_parents = 2",
    "privbaynet": "kind = privbaynet\nepsilon = 1.0\nmax_parents = 2\nsmoothing = 0.5",
    "toy": "kind = toy\np_in = 0.8\np_out = 0.2",
}


def output_bodies(out):
    """Body of every results file and transcript under ``out``, by name."""
    paths = [os.path.join(out, f) for f in os.listdir(out) if f.endswith(".csv")]
    tdir = os.path.join(out, "transcripts")
    paths += [os.path.join(tdir, f) for f in os.listdir(tdir)]
    return {os.path.relpath(p, out): body(p) for p in paths}


def use_reference_games(monkeypatch):
    """Play every game of a command through ``reference_run_game``, one
    round at a time, each round's training set built on its own: a
    ``run_games`` grid game by game."""
    from reference import reference_run_game

    def run_games(grid, d_eval, d_target=None, threads=1):
        return [
            reference_run_game(g.x, d_eval, d_target, g.adversary, g.config, g.record_id)
            for g in grid
        ]

    monkeypatch.setattr(games, "run_games", run_games)


def fail_in_the_grid(monkeypatch, attack_seeds):
    """Give every target whose attack seed is in ``attack_seeds`` an
    adversary that raises a PrivGamesError when it scores: a failure
    inside the command's one grid.  Returns the list of chunk sizes it
    was called with."""
    real = cli.build_adversaries
    calls = []

    def failing(fits, seeds):
        calls.append(len(fits))
        raise PrivGamesError("induced failure")

    def build_adversaries(cfg, bank, d_aux, targets):
        built = real(cfg, bank, d_aux, targets)
        return [failing if seed in attack_seeds else a for a, (_, seed) in zip(built, targets)]

    monkeypatch.setattr(cli, "build_adversaries", build_adversaries)
    return calls


@pytest.mark.parametrize("kind", sorted(RUN_GENERATORS))
def test_run_bodies_match_reference_generators(tmp_path, monkeypatch, kind):
    # The batched games and generator layer against the per-round and
    # per-network reference functions, and the stacked in-place trainer
    # and batched round scoring against the per-record, per-epoch and
    # per-release references, through a whole run: same result and
    # transcript bytes, for 1 or 8 threads.
    from reference import (
        reference_fit_batch,
        reference_meta_classifier_adversary,
        reference_sample_batch,
        reference_train_meta_classifier,
    )

    text = (
        TOY_TEMPLATE.replace("kind = toy\np_in = 0.8\np_out = 0.2", RUN_GENERATORS[kind])
        .replace("n_eval = 40", "n_eval = 24")
        .replace("first:3", "ids:4,17")
        + "\n[attack]\nn_shadow = 6\nqueries_per_k = 8\nsyn_size = 30\n"
    )
    trained = []

    def per_record_training(features, labels, **kwargs):
        trained.extend(range(len(features)))
        return [reference_train_meta_classifier(f, labels, **kwargs) for f in features]

    outs = {}
    for name, threads in (("batched", "1"), ("threaded", "8"), ("reference", "1")):
        path = tmp_path / f"{name}.ini"
        path.write_text(text.format(out=tmp_path / name))
        if name == "reference":
            use_reference_games(monkeypatch)
            monkeypatch.setattr(generators, "fit_batch", reference_fit_batch)
            # The command path samples its releases as columns.
            monkeypatch.setattr(
                generators,
                "sample_columns",
                lambda gens, n, seeds: reference_sample_batch(gens, n, seeds).transpose(0, 2, 1),
            )
            monkeypatch.setattr(attack, "train_meta_classifiers", per_record_training)
            monkeypatch.setattr(
                attack, "meta_classifier_adversary", reference_meta_classifier_adversary
            )
        assert cli.main(["run", "--config", str(path), "--threads", threads]) == 0
        outs[name] = output_bodies(str(tmp_path / name))
    assert len(outs["batched"]) == 2 + 4
    assert len(trained) == (0 if kind == "toy" else 2)
    assert outs["batched"] == outs["reference"]
    assert outs["batched"] == outs["threaded"]


def test_threads_env_var_used_as_default(tmp_path, monkeypatch):
    cfg_a, out_a = toy_config(tmp_path, "a")
    cfg_b, out_b = toy_config(tmp_path, "b")
    cli.main(["run", "--config", cfg_a])
    monkeypatch.setenv(cli.THREADS_ENV_VAR, "4")
    cli.main(["run", "--config", cfg_b])
    assert body(os.path.join(out_a, "results_model_seeded.csv")) == body(
        os.path.join(out_b, "results_model_seeded.csv")
    )


def test_bad_threads_env_var_is_config_error(tmp_path, monkeypatch):
    cfg_path, _ = toy_config(tmp_path)
    monkeypatch.setenv(cli.THREADS_ENV_VAR, "many")
    assert cli.main(["run", "--config", cfg_path]) == 2


@pytest.mark.parametrize("how", ["option", "env"])
@pytest.mark.parametrize("count", ["65", "100000"])
def test_thread_count_above_the_bound_exits_2_at_parse_time(
    tmp_path, monkeypatch, capsys, how, count
):
    # The count is read before the config, so a missing config file is
    # never reached, and no thread is started.
    argv = ["run", "--config", str(tmp_path / "nope.ini")]
    if how == "option":
        argv += ["--threads", count]
        where = "--threads"
    else:
        monkeypatch.setenv(cli.THREADS_ENV_VAR, count)
        where = cli.THREADS_ENV_VAR
    before = threading.active_count()
    assert cli.main(argv) == 2
    assert threading.active_count() == before
    err = capsys.readouterr().err
    assert err == f"error: {where} '{count}' is not in [1, {cli.MAX_THREADS}]\n"
    assert cli.MAX_THREADS == 64 and cli._default_threads("64") == 64


def test_seed_override_changes_scores(tmp_path):
    cfg_a, out_a = toy_config(tmp_path, "a")
    cfg_b, out_b = toy_config(tmp_path, "b")
    cli.main(["run", "--config", cfg_a])
    cli.main(["run", "--config", cfg_b, "--seed", "123"])
    assert body(os.path.join(out_a, "results_traditional.csv")) != body(
        os.path.join(out_b, "results_traditional.csv")
    )


def test_negative_seed_override_exits_2(tmp_path, capsys):
    cfg_path, out = toy_config(tmp_path)
    assert cli.main(["run", "--config", cfg_path, "--seed", "-5"]) == 2
    err = capsys.readouterr().err
    assert "error: --seed (experiment.master_seed) '-5' is not in [0, 2**64)" in err
    assert not os.path.exists(out)


@pytest.mark.parametrize("seed, code", [(2**64 - 1, 0), (2**64, 2)])
def test_seed_override_must_fit_in_64_bits(tmp_path, capsys, seed, code):
    # derive reduces a seed modulo 2**64, so a wider one would give the
    # bodies of a narrower seed under another config hash.
    cfg_path, out = toy_config(tmp_path)
    assert cli.main(["run", "--config", cfg_path, "--seed", str(seed)]) == code
    if code:
        message = f"--seed (experiment.master_seed) '{seed}' is not in [0, 2**64)"
        assert f"error: {message}" in capsys.readouterr().err
    assert os.path.exists(out) == (code == 0)


def test_records_override(tmp_path):
    cfg_path, out = toy_config(tmp_path)
    cli.main(["run", "--config", cfg_path, "--records", "ids:7"])
    _, _, rows = cli.read_result_rows(os.path.join(out, "results_traditional.csv"))
    assert list(rows) == ["7"]


def test_out_override(tmp_path):
    cfg_path, _ = toy_config(tmp_path)
    other = str(tmp_path / "elsewhere")
    cli.main(["run", "--config", cfg_path, "--out", other])
    assert os.path.isfile(os.path.join(other, "results_traditional.csv"))


def test_out_that_is_a_file_exits_2(tmp_path, capsys, monkeypatch):
    # The output directories are made once, before the grid is played.
    cfg_path, _ = toy_config(tmp_path)
    played = []
    monkeypatch.setattr(games, "run_games", lambda *args: played.append(args))
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    assert cli.main(["run", "--config", cfg_path, "--out", str(taken)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {taken}") and "cannot make the directory" in err
    assert played == []
    assert taken.read_text() == "not a directory\n"


def test_record_id_out_of_range_is_config_error(tmp_path):
    cfg_path, _ = toy_config(tmp_path)
    assert cli.main(["run", "--config", cfg_path, "--records", "ids:50"]) == 2


def test_partial_failure_marks_status_and_exit_code(tmp_path, monkeypatch):
    cfg_path, out = toy_config(tmp_path)
    cfg = load_experiment_config(cfg_path)
    alone = {}
    for rid in ("0", "2"):
        assert cli.main(["run", "--config", cfg_path, "--records", f"ids:{rid}",
                         "--out", str(tmp_path / f"alone{rid}")]) == 0
        alone.update(record_outputs(str(tmp_path / f"alone{rid}")))

    # Record 1's adversary raises on its one span of 2 x 40 rounds, in
    # the grid that plays all three records.
    calls = fail_in_the_grid(monkeypatch, {derive(cfg.master_seed, "attack", 1)})
    logged = []
    assert cli.cmd_run(cfg, log=logged.append) == 1
    assert calls == [80]
    for kind in ("traditional", "model_seeded"):
        lines = open(os.path.join(out, f"results_{kind}.csv")).read().splitlines()
        assert "status=partial" in lines[0]
        # Records 0 and 2 run to completion on either side of the failure.
        assert [line.split(",")[0] for line in lines[2:]] == ["0", "2"]
    assert sorted(os.listdir(os.path.join(out, "transcripts"))) == [
        f"record{rid}_{kind}.txt" for rid in (0, 2) for kind in ("model_seeded", "traditional")
    ]
    # with the bytes they have when run alone.
    assert record_outputs(out) == alone
    failures = [m for m in logged if m.startswith("record evaluation failed")]
    assert len(failures) == 1 and "record 1" in failures[0]


def test_missing_config_file_exit_code(tmp_path):
    assert cli.main(["run", "--config", str(tmp_path / "nope.ini")]) == 2


@pytest.mark.parametrize("text", [
    "dataset = bundled:correlated_500\n",
    "[data]\naux_size = 300\n\n[data]\neval_size = 200\n",
    "[data]\naux_size = 300\naux_size = 200\n",
], ids=["no-section-header", "duplicate-section", "duplicate-option"])
def test_malformed_config_file_exits_2(tmp_path, capsys, text):
    path = tmp_path / "bad.ini"
    path.write_text(text)
    assert cli.main(["run", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err


def test_misspelled_section_exits_2_before_any_output(tmp_path, capsys):
    cfg_path, out = toy_config(tmp_path, extra="\n[atack]\nn_shadow = 4\n")
    assert cli.main(["run", "--config", cfg_path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "unknown section [atack]" in err
    assert "did you mean [attack]?" in err
    assert sorted(os.listdir(tmp_path)) == ["out.ini"]  # no out/ was made


def test_non_finite_ini_float_exits_2(tmp_path, capsys):
    text = (
        "[data]\ndataset = bundled:correlated_500\naux_size = 300\neval_size = 200\n"
        "target_size = 100\n\n[game]\nn_eval = 200\n\n"
        "[generator]\nsmoothing = nan\nmi_floor = nan\n\n"
        "[attack]\nl2 = nan\nlearning_rate = inf\n"
    )
    path = tmp_path / "nan.ini"
    path.write_text(text)
    assert cli.main(["run", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "generator.smoothing 'nan' is not a finite number" in err


@pytest.mark.parametrize(
    "decl",
    ["ordered:abc", "continuous:x", "ordered:0", "ordered:-4", "continuous:0", "categorical:7"],
)
def test_malformed_sidecar_count_exits_1(tmp_path, capsys, decl):
    csv_path = tmp_path / "d.csv"
    csv_path.write_text("a,b\n1,x\n0,y\n2,x\n")
    sidecar = tmp_path / "d.schema"
    sidecar.write_text(f"# layout\na = {decl}\n")
    path = tmp_path / "exp.ini"
    path.write_text(
        f"[data]\ndataset = {csv_path}\nschema = {sidecar}\n"
        "aux_size = 1\neval_size = 2\ntarget_size = 1\n\n[game]\nn_eval = 2\n"
    )
    assert cli.main(["run", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{sidecar}: line 2: column 'a': " in err


@pytest.mark.parametrize(
    "text, where",
    [
        ("agee = continuous:2\n", "the schema names column 'agee', not in the header"),
        ("a = ordered\na = categorical\n", "line 2: column 'a' is declared twice"),
    ],
)
def test_sidecar_naming_a_wrong_column_exits_1(tmp_path, capsys, text, where):
    csv_path = tmp_path / "d.csv"
    csv_path.write_text("age,b\n1,x\n0,y\n2,x\n")
    sidecar = tmp_path / "d.schema"
    sidecar.write_text(text)
    path = tmp_path / "exp.ini"
    path.write_text(
        f"[data]\ndataset = {csv_path}\nschema = {sidecar}\n"
        "aux_size = 1\neval_size = 2\ntarget_size = 1\n\n[game]\nn_eval = 2\n"
    )
    assert cli.main(["run", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and where in err
    assert str(csv_path if "agee" in text else sidecar) in err


def test_subset_size_above_the_column_count_exits_2(tmp_path, capsys):
    csv_path = tmp_path / "d.csv"
    csv_path.write_text("a,b\n1,x\n0,y\n2,x\n")
    path = tmp_path / "exp.ini"
    path.write_text(
        f"[data]\ndataset = {csv_path}\naux_size = 1\neval_size = 2\ntarget_size = 1\n\n"
        "[attack]\nk_values = 1,5\n\n[game]\nn_eval = 2\n\n[records]\nselection = first:1\n"
    )
    assert cli.main(["run", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert f"attack.k_values entry 5 exceeds the 2 columns of {csv_path}" in err


def test_empty_k_values_exits_2(tmp_path, capsys):
    # Even the toy, which never queries the bank, needs a subset size.
    cfg_path, out = toy_config(tmp_path, extra="\n[attack]\nk_values =\n")
    assert cli.main(["run", "--config", cfg_path]) == 2
    err = capsys.readouterr().err
    assert err == "error: attack.k_values is empty\n"
    assert not os.path.exists(out)


def test_unknown_bundled_corpus_exits_2(tmp_path, capsys):
    cfg_path, out = toy_config(tmp_path)
    with open(cfg_path, encoding="utf-8") as fh:
        text = fh.read().replace("bundled:correlated_500", "bundled:nope")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        fh.write(text)
    assert cli.main(["run", "--config", cfg_path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: data.dataset: unknown corpus 'nope'; have ")
    assert all(name in err for name in corpora.NAMES)
    assert not os.path.exists(out)


def test_non_finite_continuous_value_exits_1(tmp_path, capsys):
    csv_path = tmp_path / "d.csv"
    csv_path.write_text("v\n1\n2\nnan\n3\n4\ninf\n")
    sidecar = tmp_path / "d.schema"
    sidecar.write_text("v = continuous:3\n")
    path = tmp_path / "exp.ini"
    path.write_text(
        f"[data]\ndataset = {csv_path}\nschema = {sidecar}\n"
        "aux_size = 1\neval_size = 2\ntarget_size = 1\n\n[game]\nn_eval = 2\n"
    )
    assert cli.main(["run", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert f"{csv_path}: line 4: column 'v': 'nan'" in err


@pytest.mark.parametrize("bad", ["csv", "sidecar"])
def test_non_utf8_input_exits_1(tmp_path, capsys, bad):
    csv_path = tmp_path / "d.csv"
    csv_path.write_bytes(b"a,b\n1,x\n0,y\n2,x\n")
    sidecar = tmp_path / "d.schema"
    sidecar.write_bytes(b"a = ordered\n")
    broken = csv_path if bad == "csv" else sidecar
    broken.write_bytes(broken.read_bytes() + b"\xff\n")
    path = tmp_path / "exp.ini"
    path.write_text(
        f"[data]\ndataset = {csv_path}\nschema = {sidecar}\n"
        "aux_size = 1\neval_size = 2\ntarget_size = 1\n\n[game]\nn_eval = 2\n"
    )
    assert cli.main(["run", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{broken}: not UTF-8" in err


# --------------------------------------------------------------- compare


def write_results(path, game, cfg_hash, rows, status="complete"):
    lines = [
        f"# privgames-results v1 config={cfg_hash} status={status} generated=2026-01-01T00:00:00Z",
        data.TABLES["results"][0],
    ]
    for rid, auc in rows:
        lines.append(f"{rid},{game},200,{auc!r},0.1,0.2,0.3")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def comparison_summary(path):
    """Summary rows of a comparison file as {name: token}."""
    _, rows = data.read_table(path, "comparison")
    return {parts[1]: parts[2] for _, parts, _ in rows if parts[0] == "summary"}


def test_compare_hand_built_footer_values(tmp_path):
    t = str(tmp_path / "t.csv")
    ms = str(tmp_path / "ms.csv")
    out = str(tmp_path / "cmp.csv")
    write_results(t, "traditional", "aaaaaaaaaaaa", [("0", 0.5), ("1", 0.9), ("2", 0.85)])
    write_results(ms, "model_seeded", "aaaaaaaaaaaa", [("0", 0.9), ("1", 0.95), ("2", 0.7)])
    assert cli.main(["compare", t, ms, "--out", out]) == 0

    summary = comparison_summary(out)
    assert summary["n_records"] == "3"
    assert float(summary["threshold"]) == 0.8
    # Two model-seeded risks exceed 0.8; one of them is missed by the
    # traditional estimate.
    assert float(summary["miss_rate"]) == 0.5
    expected = risk.rmsd([(0.5, 0.9), (0.9, 0.95), (0.85, 0.7)])
    assert float(summary["rmsd"]) == expected

    rows = [
        ln for ln in open(out).read().splitlines()
        if ln and not ln.startswith(("#", "summary", "hist", "record_id"))
    ]
    assert rows[0].split(",")[0] == "0"
    assert float(rows[0].split(",")[3]) == 0.5 - 0.9


def test_compare_undefined_miss_rate_token(tmp_path):
    t = str(tmp_path / "t.csv")
    ms = str(tmp_path / "ms.csv")
    out = str(tmp_path / "cmp.csv")
    write_results(t, "traditional", "aaaaaaaaaaaa", [("0", 0.5), ("1", 0.6)])
    write_results(ms, "model_seeded", "aaaaaaaaaaaa", [("0", 0.55), ("1", 0.5)])
    assert cli.main(["compare", t, ms, "--out", out]) == 0
    summary = comparison_summary(out)
    assert summary["miss_rate"] == cli.UNDEFINED_TOKEN


def test_compare_identical_files_rmsd_zero(tmp_path):
    t = str(tmp_path / "t.csv")
    ms = str(tmp_path / "ms.csv")
    out = str(tmp_path / "cmp.csv")
    write_results(t, "traditional", "aaaaaaaaaaaa", [("0", 0.5), ("1", 0.6)])
    write_results(ms, "model_seeded", "aaaaaaaaaaaa", [("0", 0.5), ("1", 0.6)])
    assert cli.main(["compare", t, ms, "--out", out]) == 0
    assert float(comparison_summary(out)["rmsd"]) == 0.0


def test_compare_mixed_hashes_refused_then_allowed(tmp_path, capsys):
    t = str(tmp_path / "t.csv")
    ms = str(tmp_path / "ms.csv")
    out = str(tmp_path / "cmp.csv")
    write_results(t, "traditional", "aaaaaaaaaaaa", [("0", 0.5)])
    write_results(ms, "model_seeded", "bbbbbbbbbbbb", [("0", 0.9)])
    assert cli.main(["compare", t, ms, "--out", out]) == 2
    assert "--allow-mixed" in capsys.readouterr().err
    assert not os.path.exists(out)
    assert cli.main(["compare", t, ms, "--out", out, "--allow-mixed"]) == 0
    assert "config=mixed" in open(out).read().splitlines()[0]


@pytest.mark.parametrize("status_t, status_ms, expected", [
    ("complete", "complete", "complete"),
    ("partial", "complete", "partial"),
    ("complete", "partial", "partial"),
])
def test_compare_carries_partial_status(tmp_path, status_t, status_ms, expected):
    t = str(tmp_path / "t.csv")
    ms = str(tmp_path / "ms.csv")
    out = str(tmp_path / "cmp.csv")
    write_results(t, "traditional", "aaaaaaaaaaaa", [("0", 0.5)], status=status_t)
    write_results(ms, "model_seeded", "aaaaaaaaaaaa", [("0", 0.9)], status=status_ms)
    assert cli.read_result_rows(ms)[1] == status_ms
    assert cli.main(["compare", t, ms, "--out", out]) == 0
    assert f"status={expected} " in open(out).read().splitlines()[0]


def test_compare_mismatched_ids_lists_them(tmp_path, capsys):
    t = str(tmp_path / "t.csv")
    ms = str(tmp_path / "ms.csv")
    out = str(tmp_path / "cmp.csv")
    write_results(t, "traditional", "aaaaaaaaaaaa", [("0", 0.5), ("3", 0.7)])
    write_results(ms, "model_seeded", "aaaaaaaaaaaa", [("0", 0.9), ("5", 0.2)])
    assert cli.main(["compare", t, ms, "--out", out]) == 2
    err = capsys.readouterr().err
    assert "3" in err and "5" in err


def test_compare_threshold_validation(tmp_path):
    t = str(tmp_path / "t.csv")
    write_results(t, "traditional", "aaaaaaaaaaaa", [("0", 0.5)])
    assert cli.main(["compare", t, t, "--threshold", "1.5"]) == 2


def test_compare_header_only_results_file_exits_2(tmp_path, capsys):
    t = str(tmp_path / "t.csv")
    ms = str(tmp_path / "ms.csv")
    write_results(t, "traditional", "aaaaaaaaaaaa", [("0", 0.5)])
    with open(ms, "w") as fh:
        fh.write(
            "# privgames-results v1 config=aaaaaaaaaaaa status=complete "
            "generated=2026-01-01T00:00:00Z\n"
        )
    assert cli.main(["compare", t, ms, "--out", str(tmp_path / "cmp.csv")]) == 2
    err = capsys.readouterr().err
    assert ms in err and "line 1" in err


def test_compare_missing_file_exits_2(tmp_path, capsys):
    t = str(tmp_path / "nope.csv")
    ms = str(tmp_path / "nope2.csv")
    assert cli.main(["compare", t, ms, "--out", str(tmp_path / "cmp.csv")]) == 2
    err = capsys.readouterr().err
    assert f"error: {t}: cannot read (No such file or directory)" in err
    assert "Traceback" not in err


def test_compare_unwritable_out_exits_2(tmp_path, capsys):
    t = str(tmp_path / "t.csv")
    ms = str(tmp_path / "ms.csv")
    write_results(t, "traditional", "aaaaaaaaaaaa", [("0", 0.5)])
    write_results(ms, "model_seeded", "aaaaaaaaaaaa", [("0", 0.5)])
    out = str(tmp_path / "missing-dir" / "cmp.csv")
    assert cli.main(["compare", t, ms, "--out", out]) == 2
    err = capsys.readouterr().err
    assert f"error: {out}: cannot write (No such file or directory)" in err
    assert "Traceback" not in err


def test_compare_results_file_without_rows_exits_2(tmp_path, capsys):
    t = str(tmp_path / "t.csv")
    ms = str(tmp_path / "ms.csv")
    write_results(t, "traditional", "aaaaaaaaaaaa", [("0", 0.5)])
    write_results(ms, "model_seeded", "aaaaaaaaaaaa", [])
    assert cli.main(["compare", t, ms, "--out", str(tmp_path / "cmp.csv")]) == 2
    assert f"error: {ms}: no record rows" in capsys.readouterr().err


@pytest.mark.parametrize("row, message", [
    ("1,traditional,200,high,0.1,0.2,0.3", "'high' is not a number"),
    ("1,traditional,200", "expected 7 fields, got 3"),
    ("1,traditional,200,nan,0.1,0.2,0.3", "auc 'nan' is not in [0, 1]"),
    ("1,traditional,200,inf,0.1,0.2,0.3", "auc 'inf' is not in [0, 1]"),
    ("1,traditional,200,1.5,0.1,0.2,0.3", "auc '1.5' is not in [0, 1]"),
    ("0,traditional,200,0.6,0.1,0.2,0.3", "record id '0' appears twice"),
    ("1,traditional,x,0.6,0.1,0.2,0.3", "n_eval 'x' is not an integer"),
    ("1,traditional,200,0.6,zzz,0.2,0.3", "radius 'zzz' is not a number"),
    ("1,traditional,200,0.6,0.1,abc,0.3", "alpha 'abc' is not a number"),
    ("1,traditional,200,0.6,0.1,0.2,", "beta '' is not a number"),
    ("1,traditional,200,0.6,0.1,1.5,0.3", "alpha '1.5' is not in [0, 1]"),
])
def test_compare_malformed_row_exits_2(tmp_path, capsys, row, message):
    t = str(tmp_path / "t.csv")
    ms = str(tmp_path / "ms.csv")
    write_results(t, "traditional", "aaaaaaaaaaaa", [("0", 0.5)])
    write_results(ms, "model_seeded", "aaaaaaaaaaaa", [("0", 0.5), ("1", 0.6)])
    with open(t, "a") as fh:
        fh.write(row + "\n")
    assert cli.main(["compare", t, ms, "--out", str(tmp_path / "cmp.csv")]) == 2
    err = capsys.readouterr().err
    assert f"{t}, line 4" in err and message in err


def test_compare_swapped_files_exits_2(tmp_path, capsys):
    # Swapped, the model-seeded AUCs would land under risk_traditional
    # and every delta would flip its sign.
    t = str(tmp_path / "t.csv")
    ms = str(tmp_path / "ms.csv")
    out = str(tmp_path / "cmp.csv")
    write_results(t, "traditional", "aaaaaaaaaaaa", [("0", 0.5)])
    write_results(ms, "model_seeded", "aaaaaaaaaaaa", [("0", 0.9)])
    assert cli.main(["compare", ms, t, "--out", out]) == 2
    err = capsys.readouterr().err
    assert f"error: {ms}, line 3: game 'model_seeded' is not traditional" in err
    assert not os.path.exists(out)
    assert cli.main(["compare", t, t, "--out", out]) == 2
    assert f"error: {t}, line 3: game 'traditional' is not model_seeded" in capsys.readouterr().err


_GENERATED = "generated=2026-01-01T00:00:00Z"


def write_results_header(path, header):
    with open(path, "w") as fh:
        fh.write(f"# privgames-results v1 {header}\n{data.TABLES['results'][0]}\n")
        fh.write("0,model_seeded,200,0.9,0.1,0.2,0.3\n")


@pytest.mark.parametrize("header, message", [
    ("config=aaaaaaaaaaaa status=bogus", "status 'bogus' is not one of complete, partial"),
    ("config=aaaaaaaaaaaa status=", "status '' is not one of complete, partial"),
    ("config= status=complete", "config '' is not 12 lowercase hex digits"),
    ("config=AAAAAAAAAAAA status=complete", "config 'AAAAAAAAAAAA' is not 12 lowercase hex"),
    ("config=aaaaaaaaaaa status=complete", "config 'aaaaaaaaaaa' is not 12 lowercase hex"),
    ("config=mixed status=complete", "config 'mixed' is not 12 lowercase hex"),
])
def test_compare_results_header_must_name_its_run(tmp_path, capsys, header, message):
    t = str(tmp_path / "t.csv")
    ms = str(tmp_path / "ms.csv")
    write_results(t, "traditional", "aaaaaaaaaaaa", [("0", 0.5)])
    write_results_header(ms, f"{header} {_GENERATED}")
    assert cli.main(["compare", t, ms, "--out", str(tmp_path / "cmp.csv")]) == 2
    assert f"error: {ms}, line 1: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("header, message", [
    ("config=aaaaaaaaaaaa status=complete", "key 'generated' is missing"),
    (f"config=aaaaaaaaaaaa {_GENERATED}", "key 'status' is missing"),
    (f"status=complete {_GENERATED}", "key 'config' is missing"),
    (f"config=aaaaaaaaaaaa config=bbbbbbbbbbbb status=complete {_GENERATED}",
     "key 'config' appears twice"),
    (f"config=aaaaaaaaaaaa status=partial status=complete {_GENERATED}",
     "key 'status' appears twice"),
    (f"config=aaaaaaaaaaaa status=complete {_GENERATED} run=3",
     "key 'run' is not one of config, status, generated"),
    (f"status=complete config=aaaaaaaaaaaa {_GENERATED}", "key 'status' is out of order"),
])
def test_compare_results_header_holds_its_declared_keys(tmp_path, capsys, header, message):
    # Each declared key once and in order: a repeated key once joined
    # with its last value.
    t = str(tmp_path / "t.csv")
    ms = str(tmp_path / "ms.csv")
    write_results(t, "traditional", "aaaaaaaaaaaa", [("0", 0.5)])
    write_results_header(ms, header)
    assert cli.main(["compare", t, ms, "--out", str(tmp_path / "cmp.csv")]) == 2
    assert capsys.readouterr().err == f"error: {ms}, line 1: header {message}\n"


def test_compare_orders_numeric_ids_first(tmp_path):
    t = str(tmp_path / "t.csv")
    ms = str(tmp_path / "ms.csv")
    out = str(tmp_path / "cmp.csv")
    rows = [("\u00b2", 0.5), ("10", 0.6), ("b", 0.7), ("2", 0.8)]
    write_results(t, "traditional", "aaaaaaaaaaaa", rows)
    write_results(ms, "model_seeded", "aaaaaaaaaaaa", rows)
    assert cli.main(["compare", t, ms, "--out", out]) == 0
    rows = [ln.split(",")[0] for ln in open(out, encoding="utf-8").read().splitlines()[2:6]]
    assert rows == ["2", "10", "b", "\u00b2"]


def test_compare_on_real_run_outputs(tmp_path):
    cfg_path, out = toy_config(tmp_path)
    cli.main(["run", "--config", cfg_path])
    cmp_path = str(tmp_path / "cmp.csv")
    code = cli.main([
        "compare",
        os.path.join(out, "results_traditional.csv"),
        os.path.join(out, "results_model_seeded.csv"),
        "--out", cmp_path,
    ])
    assert code == 0
    summary = comparison_summary(cmp_path)
    assert summary["n_records"] == "3"
    assert float(summary["rmsd"]) >= 0.0


# ------------------------------------------------------------ convergence


def test_convergence_rows_and_radius(tmp_path):
    out = tmp_path / "out"
    text = TOY_TEMPLATE.format(out=out).replace(
        "selection = first:3", "selection = first:1"
    ) + "\n[convergence]\ngrid = 20,80\nrepetitions = 3\n"
    cfg_path = tmp_path / "conv.ini"
    cfg_path.write_text(text)

    assert cli.main(["convergence", "--config", str(cfg_path)]) == 0
    lines = open(out / "convergence.csv").read().splitlines()
    assert lines[1] == data.TABLES["convergence"][0]
    rows = [ln.split(",") for ln in lines[2:]]
    assert len(rows) == 4  # 2 game kinds x 2 grid points
    for parts in rows:
        n_eval = int(parts[2])
        assert float(parts[5]) == risk.hoeffding_radius(n_eval // 2, 0.2)
        assert float(parts[4]) >= 0.0


def test_toy_convergence_body_matches_reference_games(tmp_path, monkeypatch):
    text = TOY_TEMPLATE.replace("first:3", "ids:4,17") + (
        "\n[convergence]\ngrid = 10,24\nrepetitions = 2\n"
    )
    bodies = {}
    for name in ("batched", "reference"):
        path = tmp_path / f"{name}.ini"
        path.write_text(text.format(out=tmp_path / name))
        if name == "reference":
            use_reference_games(monkeypatch)
        assert cli.main(["convergence", "--config", str(path)]) == 0
        bodies[name] = body(tmp_path / name / "convergence.csv")
    assert len(bodies["batched"].splitlines()) == 1 + 2 * 2 * 2
    assert bodies["batched"] == bodies["reference"]


@pytest.mark.parametrize("threads", ["1", "8"])
def test_baynet_convergence_body_matches_reference_games(tmp_path, monkeypatch, threads):
    # The command's 80 rounds are one grid.  Each repetition of a network
    # record has an adversary of its own, so one span of 20 rounds fits
    # the rounds of its four games, of both kinds, in one fit_batch; at 8
    # threads a span is 10 rounds, and one window of spans plays games of
    # both records.  The body is that of every game played alone, round by
    # round, with every network fit and sampled by the per-network
    # reference.
    from reference import reference_fit_batch, reference_sample_batch

    text = (
        NETWORK_TEXT.replace("first:3", "ids:4,17")
        + "\n[convergence]\ngrid = 4,6\nrepetitions = 2\n"
    )
    bodies = {}
    for name in ("batched", "reference"):
        path = tmp_path / f"{name}.ini"
        path.write_text(text.format(out=tmp_path / name))
        if name == "reference":
            use_reference_games(monkeypatch)
            monkeypatch.setattr(generators, "fit_batch", reference_fit_batch)
            monkeypatch.setattr(
                generators,
                "sample_columns",
                lambda gens, n, seeds: reference_sample_batch(gens, n, seeds).transpose(0, 2, 1),
            )
        assert cli.main(["convergence", "--config", str(path), "--threads", threads]) == 0
        bodies[name] = body(tmp_path / name / "convergence.csv")
    assert len(bodies["batched"].splitlines()) == 1 + 2 * 2 * 2
    assert bodies["batched"] == bodies["reference"]


def test_toy_convergence_hashes_round_streams_once_per_span(tmp_path, monkeypatch):
    # The command's 2 x 2 x 5 toy games are one grid, and its one record's
    # games share one adversary: one hash of the games' bit seeds, then
    # one span of the whole 120-round grid (far below a toy span's batch
    # budget), which hashes its release streams once.  Played game by
    # game, every game hashed its bit seed and its release streams on its
    # own.
    calls = []
    real = seeds._seed_words

    def spy(words):
        calls.append(len(words))
        return real(words)

    monkeypatch.setattr(seeds, "_seed_words", spy)
    path = tmp_path / "toy.ini"
    text = TOY_TEMPLATE.replace("first:3", "first:1") + (
        "\n[convergence]\ngrid = 2,4,6,8,10\nrepetitions = 2\n"
    )
    path.write_text(text.format(out=tmp_path / "toy"))
    n_games = 2 * 5 * 2
    assert cli.main(["convergence", "--config", str(path)]) == 0
    assert len(calls) < n_games
    # The 20 games' bit seeds, then the span's release streams.
    assert calls[-2:] == [20, 120]


def test_toy_convergence_builds_no_fitted_generator(tmp_path, monkeypatch):
    # A toy round's fit is its release probability: a whole toy
    # convergence command builds no network fit, no table batch.
    built = []
    init = generators._TableBatch.__init__

    def spy(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(generators._TableBatch, "__init__", spy)
    path = tmp_path / "toy.ini"
    text = TOY_TEMPLATE + "\n[convergence]\ngrid = 10,24\nrepetitions = 2\n"
    path.write_text(text.format(out=tmp_path / "toy"))
    assert cli.main(["convergence", "--config", str(path)]) == 0
    assert built == []


def test_toy_ignores_attack_keys_it_never_reads(tmp_path, capsys):
    # The default k_values hold 3-column subsets and copycol_400 has 2
    # columns; only a network generator's adversary builds the bank.
    text = (
        TOY_TEMPLATE.replace("correlated_500", "copycol_400")
        .replace("aux_size = 300", "aux_size = 100")
        .replace("eval_size = 200", "eval_size = 100")
        .replace("target_size = 50", "target_size = 4")
        .replace("first:3", "first:1")
        + "\n[convergence]\ngrid = 4,8\nrepetitions = 2\n"
    )
    toy = tmp_path / "toy.ini"
    toy.write_text(text.format(out=tmp_path / "toy"))
    assert cli.main(["convergence", "--config", str(toy)]) == 0
    network = tmp_path / "baynet.ini"
    network.write_text(
        text.replace(RUN_GENERATORS["toy"], RUN_GENERATORS["baynet"]).format(
            out=tmp_path / "baynet"
        )
    )
    assert cli.main(["convergence", "--config", str(network)]) == 2
    err = capsys.readouterr().err
    assert "error: attack.k_values entry 3 exceeds the 2 columns of bundled:copycol_400" in err
    assert not os.path.exists(tmp_path / "baynet")


def test_convergence_requires_grid(tmp_path):
    cfg_path, _ = toy_config(tmp_path)
    assert cli.main(["convergence", "--config", cfg_path]) == 2


def test_convergence_requires_two_repetitions(tmp_path):
    cfg_path, _ = toy_config(
        tmp_path, extra="\n[convergence]\ngrid = 20\nrepetitions = 1\n"
    )
    assert cli.main(["convergence", "--config", cfg_path]) == 2


def test_convergence_constant_adversary_has_zero_std(tmp_path, monkeypatch):
    cfg_path, _ = toy_config(
        tmp_path, extra="\n[convergence]\ngrid = 20,40\nrepetitions = 3\n"
    )
    cfg = load_experiment_config(cfg_path)
    monkeypatch.setattr(
        cli, "build_adversaries",
        lambda cfg, bank, d_aux, targets: [lambda gens, seeds: [0.5] * len(gens)] * len(targets),
    )
    rows, status = cli.convergence_table(cfg, log=silent)
    assert status == "complete"
    for row in rows:
        assert row[4] == 0.0  # all repetitions score identically


# --------------------------------------------------------------- dp-audit


def test_dp_audit_rejects_non_private_generator(tmp_path, capsys):
    cfg_path, _ = toy_config(tmp_path)
    assert cli.main(["dp-audit", "--config", cfg_path]) == 2
    assert "privbaynet" in capsys.readouterr().err


AUDIT_TEMPLATE = """
[data]
dataset = bundled:correlated_500
aux_size = 300
eval_size = 200
target_size = 40

[generator]
kind = privbaynet
epsilon = 1000.0

[attack]
n_shadow = 10
k_values = 1
queries_per_k = 20
epochs = 100
syn_size = 40

[game]
n_eval = 20
kinds = model_seeded

[records]
selection = {selection}

[output]
dir = {out}
rho = 0.05
"""


def test_dp_audit_writes_points(tmp_path, capsys):
    out = tmp_path / "out"
    cfg_path = tmp_path / "audit.ini"
    cfg_path.write_text(AUDIT_TEMPLATE.format(out=out, selection="first:1"))
    assert cli.main(["dp-audit", "--config", str(cfg_path)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "0 flagged points in 1 audited records"
    lines = open(out / "dp_audit.csv").read().splitlines()
    assert lines[1] == data.TABLES["dp-audit"][0]
    assert len(lines) > 2
    for parts in (ln.split(",") for ln in lines[2:]):
        assert parts[0] == "0"
        alpha, beta = float(parts[1]), float(parts[2])
        assert 0.0 <= alpha <= 1.0 and 0.0 <= beta <= 1.0
        # At this epsilon the bound is vacuous away from 0, so no flags.
        assert parts[4] == "0"


def test_dp_audit_with_an_overflowing_epsilon_ends_partial(tmp_path, capsys):
    # 2·d/epsilon overflows to inf: every fit raises a FitError naming
    # epsilon instead of normalizing NaN tables into a clean audit.
    out = tmp_path / "out"
    cfg_path = tmp_path / "audit.ini"
    text = AUDIT_TEMPLATE.format(out=out, selection="first:1")
    text = text.replace("correlated_500", "independent_1000").replace("1000.0", "1e-320")
    cfg_path.write_text(text)
    assert cli.main(["dp-audit", "--config", str(cfg_path)]) == 1
    lines = open(out / "dp_audit.csv").read().splitlines()
    assert "status=partial" in lines[0] and lines[2:] == []
    logged = capsys.readouterr().out.splitlines()
    assert logged[0].startswith("record evaluation failed: record 0: ")
    assert "epsilon = 1e-320 is too small" in logged[0]
    assert logged[-1] == "0 flagged points in 0 audited records"


# ------------------------------------------------- failure of one record


@pytest.mark.parametrize("command, table", [
    ("convergence", "convergence.csv"),
    ("dp-audit", "dp_audit.csv"),
])
def test_failed_record_is_left_out(tmp_path, monkeypatch, capsys, command, table):
    out = tmp_path / "out"
    cfg_path = tmp_path / "exp.ini"
    if command == "convergence":
        text = TOY_TEMPLATE.format(out=out) + "\n[convergence]\ngrid = 20\nrepetitions = 2\n"
    else:
        text = AUDIT_TEMPLATE.format(out=out, selection="first:3")
    cfg_path.write_text(text)

    master_seed = load_experiment_config(str(cfg_path)).master_seed
    if command == "convergence":
        seeds_1 = {derive(master_seed, "conv-attack-1", rep) for rep in range(2)}
    else:
        seeds_1 = {derive(master_seed, "attack", 1)}
    calls = fail_in_the_grid(monkeypatch, seeds_1)
    assert cli.main([command, "--config", str(cfg_path)]) == 1
    assert len(calls) == 1
    lines = open(out / table).read().splitlines()
    assert "status=partial" in lines[0]
    # Records 0 and 2 run to completion on either side of the failure.
    assert list(dict.fromkeys(line.split(",")[0] for line in lines[2:])) == ["0", "2"]
    logged = capsys.readouterr().out.splitlines()
    failures = [m for m in logged if m.startswith("record evaluation failed")]
    assert len(failures) == 1 and failures[0].startswith("record evaluation failed: record 1:")
    assert [m.split(":")[0] for m in logged if m.startswith("record ") and m not in failures] == [
        "record 0", "record 2"
    ]


# ----------------------------------------- records trained in one stack


NETWORK_TEXT = (
    TOY_TEMPLATE.replace(RUN_GENERATORS["toy"], RUN_GENERATORS["baynet"])
    .replace("n_eval = 40", "n_eval = 24")
    + "\n[attack]\nn_shadow = 6\nqueries_per_k = 8\nsyn_size = 30\n"
)

STACK_TEXT = {
    "run": NETWORK_TEXT,
    "dp-audit": AUDIT_TEMPLATE.replace("{selection}", "first:1"),
    "convergence": NETWORK_TEXT + "\n[convergence]\ngrid = 8,16\nrepetitions = 2\n",
}


def record_outputs(out):
    """Each record's rows of every table under ``out``, and the bodies
    of its transcripts, by record id."""
    per_record = {}
    for name in sorted(os.listdir(out)):
        if name.endswith(".csv"):
            for row in body(os.path.join(out, name)).splitlines()[1:]:
                per_record.setdefault(row.split(",")[0], []).append((name, row))
    tdir = os.path.join(out, "transcripts")
    for name in sorted(os.listdir(tdir)) if os.path.isdir(tdir) else ():
        rid = name[len("record"):].split("_")[0]
        per_record.setdefault(rid, []).append((name, body(os.path.join(tdir, name))))
    return per_record


def run_stack(tmp_path, capsys, command, selection, out_name):
    """Exit code, per-record outputs, table headers and logged record
    lines of one command over ``selection``."""
    path = tmp_path / "exp.ini"
    path.write_text(STACK_TEXT[command].format(out=tmp_path / "unused"))
    out = tmp_path / out_name
    capsys.readouterr()
    code = cli.main([command, "--config", str(path), "--records", selection, "--out", str(out)])
    logged = [m for m in capsys.readouterr().out.splitlines() if m.startswith("record ")]
    headers = [open(out / f).readline() for f in sorted(os.listdir(out)) if f.endswith(".csv")]
    return code, record_outputs(str(out)), headers, logged


@pytest.mark.parametrize("command", sorted(STACK_TEXT))
def test_stacked_training_couples_no_records(tmp_path, capsys, command):
    # A record's rows and transcripts are those of a run that selects it
    # alone, whatever else trains in the same stack.
    code, together, _, _ = run_stack(tmp_path, capsys, command, "ids:0,1,2", "together")
    assert code == 0 and sorted(together) == ["0", "1", "2"]
    for rid in ("0", "2"):
        code, alone, _, _ = run_stack(tmp_path, capsys, command, f"ids:{rid}", f"alone{rid}")
        assert code == 0 and alone == {rid: together[rid]}


@pytest.mark.parametrize("command", sorted(STACK_TEXT))
def test_failed_shadow_fit_drops_only_its_record(tmp_path, monkeypatch, capsys, command):
    _, clean, _, clean_logged = run_stack(tmp_path, capsys, command, "ids:0,1,2", "clean")
    master_seed = load_experiment_config(str(tmp_path / "exp.ini")).master_seed
    # Record 1's shadow stage (its second repetition's, for convergence).
    if command == "convergence":
        attack_seed = derive(master_seed, "conv-attack-1", 1)
    else:
        attack_seed = derive(master_seed, "attack", 1)
    real = generators.fit_batch

    def fit_batch(spec, schema, values, seeds):
        if int(seeds[0]) == derive(attack_seed, "shadow-fit", 0):
            raise FitError("induced shadow failure")
        return real(spec, schema, values, seeds)

    monkeypatch.setattr(generators, "fit_batch", fit_batch)
    code, failed, headers, logged = run_stack(tmp_path, capsys, command, "ids:0,1,2", "failed")
    assert code == 1
    assert headers and all("status=partial" in h for h in headers)
    assert failed == {rid: clean[rid] for rid in ("0", "2")}
    assert logged == [
        clean_logged[0], "record evaluation failed: record 1: induced shadow failure",
        clean_logged[2],
    ]


@pytest.mark.parametrize("raised", ["fit error", "memory error"])
def test_a_failed_records_error_holds_none_of_its_arrays(raised):
    # A failed record's error waits in build_adversaries' list until the
    # record's turn: it must not keep the frames, and so the arrays, of
    # the stage that raised it, nor the MemoryError it was raised from.
    class Table:
        pass

    def stage(table):
        if raised == "memory error":
            raise MemoryError("induced")
        try:
            raise MemoryError("induced")
        except MemoryError:
            raise FitError("out of memory on a fit chunk") from None

    table = Table()
    alive = weakref.ref(table)
    try:
        stage(table)
    except (PrivGamesError, MemoryError) as exc:
        kept = errors.failure(exc)
    del table
    assert alive() is None
    assert isinstance(kept, PrivGamesError)
    assert kept.__traceback__ is kept.__context__ is kept.__cause__ is None
    assert str(kept) in ("out of memory on a fit chunk", "out of memory: induced")


def test_out_of_memory_in_a_table_chunk_fails_only_its_record(tmp_path, monkeypatch):
    # Record 1's shadow tables run out of memory: a FitError naming the
    # chunk's table cells drops that record, and record 0's rows stay.
    path = tmp_path / "exp.ini"
    path.write_text(NETWORK_TEXT.replace("first:3", "ids:0,1").format(out=tmp_path / "out"))
    cfg = load_experiment_config(str(path))
    shadow_seed = derive(derive(cfg.master_seed, "attack", 1), "shadow-fit", 0)
    real_fit, real_estimate = generators.fit_batch, generators.estimate_tables
    failing = []

    def fit_batch(spec, schema, values, seeds):
        failing[:] = [int(seeds[0]) == shadow_seed]
        return real_fit(spec, schema, values, seeds)

    def estimate_tables(*args):
        if failing[0]:
            raise MemoryError
        return real_estimate(*args)

    monkeypatch.setattr(generators, "fit_batch", fit_batch)
    monkeypatch.setattr(generators, "estimate_tables", estimate_tables)
    logged = []
    assert cli.cmd_run(cfg, log=logged.append) == 1
    for kind in ("traditional", "model_seeded"):
        lines = open(tmp_path / "out" / f"results_{kind}.csv").read().splitlines()
        assert "status=partial" in lines[0]
        assert [line.split(",")[0] for line in lines[2:]] == ["0"]
    failures = [m for m in logged if m.startswith("record evaluation failed")]
    assert len(failures) == 1
    assert re.fullmatch(
        r"record evaluation failed: record 1: out of memory on a fit chunk of \d+ table "
        r"cells \(widest arity \d+\)",
        failures[0],
    )


def test_training_error_fails_every_record_of_the_stack(tmp_path, monkeypatch, capsys):
    def failing(features, labels, **kwargs):
        raise TrainingError("induced training failure")

    monkeypatch.setattr(attack, "train_meta_classifiers", failing)
    code, outputs, headers, logged = run_stack(tmp_path, capsys, "run", "ids:0,1,2", "out")
    assert code == 1 and outputs == {}
    assert headers and all("status=partial" in h for h in headers)
    assert logged == [
        f"record evaluation failed: record {rid}: induced training failure" for rid in (0, 1, 2)
    ]


@pytest.mark.parametrize("stage", ["_features", "train_meta_classifiers"])
def test_out_of_memory_outside_a_fit_fails_only_its_records(tmp_path, monkeypatch, capsys, stage):
    # A MemoryError in the attack's own arrays fails records, not the run.
    # The third _features call is record 0's first game (records 0 and 1
    # featurize their shadows first), so record 0 fails alone; the stacked
    # descent fails every record it trains.
    _, clean, _, clean_logged = run_stack(tmp_path, capsys, "run", "ids:0,1", "clean")
    real = getattr(attack, stage)
    calls = []

    def failing(*args, **kwargs):
        calls.append(stage)
        if stage == "train_meta_classifiers" or len(calls) == 3:
            raise MemoryError("induced allocation failure")
        return real(*args, **kwargs)

    monkeypatch.setattr(attack, stage, failing)
    code, failed, headers, logged = run_stack(tmp_path, capsys, "run", "ids:0,1", "failed")
    lost = {"_features": ["0"], "train_meta_classifiers": ["0", "1"]}[stage]
    assert code == 1
    assert headers and all("status=partial" in h for h in headers)
    assert failed == {rid: rows for rid, rows in clean.items() if rid not in lost}
    failure = "record evaluation failed: record {}: out of memory: induced allocation failure"
    assert logged == [
        failure.format(rid) if rid in lost else clean_logged[i] for i, rid in enumerate("01")
    ]


# --------------------------------------------------------- malloc policy


class FakeLibc:
    """A C library whose ``mallopt`` records its calls."""

    def __init__(self, calls):
        def mallopt(param, value):
            calls.append((param, value))
            return 1

        self.mallopt = mallopt


def test_batch_memory_policy_sets_mmap_then_trim_threshold(monkeypatch):
    calls, opened = [], []

    def cdll(name):
        assert name is None
        opened.append(FakeLibc(calls))
        return opened[-1]

    monkeypatch.setattr(cli.ctypes, "CDLL", cdll)
    cli._keep_batch_memory()
    # M_MMAP_THRESHOLD (-3) at 2 MiB, then M_TRIM_THRESHOLD (-1) at 4 MiB.
    assert len(opened) == 1
    assert calls == [(-3, 2 << 20), (-1, 4 << 20)]
    assert opened[0].mallopt.argtypes == (cli.ctypes.c_int, cli.ctypes.c_int)


@pytest.mark.parametrize("library", ["without mallopt", "failing"])
def test_batch_memory_policy_is_a_silent_no_op_without_mallopt(monkeypatch, library):
    def cdll(name):
        if library == "failing":
            raise OSError("no C library")
        return object()

    monkeypatch.setattr(cli.ctypes, "CDLL", cdll)
    assert cli._keep_batch_memory() is None


@pytest.mark.parametrize("command", ["run", "convergence", "dp-audit"])
def test_each_command_applies_the_policy_once_before_loading_data(tmp_path, monkeypatch, command):
    out = tmp_path / "out"
    if command == "dp-audit":
        text = AUDIT_TEMPLATE.format(out=out, selection="first:1")
    else:
        text = TOY_TEMPLATE.format(out=out).replace("first:3", "first:1")
        if command == "convergence":
            text += "\n[convergence]\ngrid = 10\nrepetitions = 2\n"
    path = tmp_path / "exp.ini"
    path.write_text(text)
    cfg = load_experiment_config(str(path))
    events = []
    real = cli.load_environment

    def loading(cfg):
        events.append("load_environment")
        return real(cfg)

    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: FakeLibc(events))
    monkeypatch.setattr(cli, "load_environment", loading)
    run = {"run": cli.cmd_run, "convergence": cli.cmd_convergence, "dp-audit": cli.cmd_dp_audit}
    assert run[command](cfg, log=silent) == 0
    assert events == [(-3, 2 << 20), (-1, 4 << 20), "load_environment"]


def test_importing_the_cli_applies_no_policy():
    code = (
        "import ctypes, numpy\n"
        "opened = []\n"
        "real = ctypes.CDLL\n"
        "ctypes.CDLL = lambda *args, **kwargs: opened.append(args) or real(*args, **kwargs)\n"
        "import privgames.cli\n"
        "print(opened)\n"
    )
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


# ------------------------------------------------------------------ misc


def test_help_exits_zero():
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0


def test_unknown_command_exits_nonzero():
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2
