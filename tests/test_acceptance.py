"""End-to-end acceptance checks.

Each criterion prints one ``criterion N: PASS|FAIL (...)`` line with the
measured quantities before asserting, so a full run leaves a readable
scoreboard (run with ``pytest tests/test_acceptance.py -s``). The heavy
experiments are computed once in module-scoped fixtures; the determinism
criterion reruns them from scratch and compares serialized bodies.
"""

import math
import os

import numpy as np
import pytest

from privgames import cli, data, games, generators, oracle, risk
from privgames.config import load_experiment_config
from privgames.errors import UndefinedMissRateError
from privgames.games import RUN_DTYPE, GameTranscript
from privgames.seeds import derive

from brute import brute_auc, brute_deterministic_tests


def report(number, ok, detail):
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def silent(*args, **kwargs):
    pass


def file_body(path):
    """File content with the timestamped header line stripped."""
    lines = open(path, encoding="utf-8").read().splitlines()
    assert lines[0].startswith("# privgames-")
    return "\n".join(lines[1:])


def make_transcript(bits, scores):
    runs = np.array(
        [(b, s, i) for i, (b, s) in enumerate(zip(bits, scores))], dtype=RUN_DTYPE
    )
    return GameTranscript(
        runs=runs, record_id="r", game_kind="traditional", config_hash="0" * 12,
    )


# ------------------------------------------------- criterion 1 experiment

C1_BASE_SEED = 414243
C1_TRIALS = 200
C1_N_EVAL = 2000


def toy_environment():
    schema = data.Schema((data.Column("v", data.ORDERED, 12),))
    pool = data.Dataset(schema, np.arange(12).reshape(-1, 1))
    d_target = data.Dataset(schema, np.arange(4).reshape(-1, 1))
    return pool, d_target, d_target.record(0)


def run_criterion_1():
    """(serialized per-trial rate rows, exceed fraction alpha, beta)."""
    pool, d_target, x = toy_environment()
    spec = generators.GeneratorSpec(kind=generators.TOY, p_in=0.8, p_out=0.2)
    adv = games.toy_bit_adversary()
    radius = risk.hoeffding_radius(C1_N_EVAL // 2, 0.1)
    rows = []
    bad_a = bad_b = 0
    for i in range(C1_TRIALS):
        cfg = games.GameConfig(
            n_eval=C1_N_EVAL, dataset_size=d_target.n, generator_spec=spec,
            master_seed=derive(C1_BASE_SEED, "trial", i),
            game_kind=games.MODEL_SEEDED,
        )
        t = games.run_model_seeded(x, d_target, pool, adv, cfg)
        alpha, beta = risk.empirical_rates(t, 0.5)
        rows.append(f"{i},{alpha!r},{beta!r}")
        bad_a += abs(alpha - 0.2) > radius
        bad_b += abs(beta - 0.2) > radius
    return "\n".join(rows), bad_a / C1_TRIALS, bad_b / C1_TRIALS


@pytest.fixture(scope="module")
def c1_outcome():
    return run_criterion_1()


def test_criterion_1_model_seeded_convergence(c1_outcome):
    _, frac_a, frac_b = c1_outcome
    ok = frac_a <= 0.12 and frac_b <= 0.12
    assert report(
        1, ok,
        f"alpha exceed fraction {frac_a:.3f}, beta {frac_b:.3f}, limit 0.12",
    )


# ------------------------------------------------- criterion 2 experiment


def test_criterion_2_mixture_convergence():
    schema = data.Schema((data.Column("v", data.ORDERED, 12),))
    x = np.array([0])
    partials = (
        data.Dataset(schema, np.array([[1], [2], [3]])),
        data.Dataset(schema, np.array([[4], [5], [6]])),
    )
    specs = (
        generators.GeneratorSpec(kind=generators.TOY, p_in=0.8, p_out=0.1),
        generators.GeneratorSpec(kind=generators.TOY, p_in=0.8, p_out=0.5),
    )
    adv = games.toy_bit_adversary()
    radius = risk.hoeffding_radius(2000, 0.01)
    hits = 0
    for i in range(100):
        cfg = games.GameConfig(
            n_eval=4000, dataset_size=4, generator_spec=specs[0],
            master_seed=derive(515253, "trial", i),
            game_kind=games.TRADITIONAL,
        )
        t = games.run_traditional_mixture(x, partials, adv, cfg, specs=specs)
        alpha, _ = risk.empirical_rates(t, 0.5)
        hits += abs(alpha - 0.3) <= radius
    ok = hits >= 95
    assert report(
        2, ok, f"{hits}/100 trials within {radius:.4f} of 0.3, need >= 95"
    )


# --------------------------------------------------------- criteria 3 & 4


def test_criterion_3_auc_oracle_equivalence():
    g = np.random.default_rng(616263)
    mismatches = 0
    for _ in range(1000):
        n = int(g.integers(2, 201))
        bits = g.integers(0, 2, size=n)
        bits[0], bits[1] = 0, 1  # both classes present
        levels = int(g.integers(1, 9))
        scores = g.integers(0, levels + 1, size=n) / levels
        t = make_transcript(bits, scores)
        fast = risk.roc_auc(t)
        slow = brute_auc(scores[bits == 1], scores[bits == 0])
        mismatches += fast != slow
    assert report(3, mismatches == 0, f"{mismatches}/1000 transcripts mismatched")


def random_distribution(g, k):
    p = g.random(k)
    if k > 1 and g.random() < 0.3:
        p[int(g.integers(0, k))] = 0.0  # exercise zero-mass outcomes
    p = p / p.sum()
    return tuple(float(v) for v in p)


def test_criterion_4_neyman_pearson_dominance():
    g = np.random.default_rng(717273)
    violations = 0
    for _ in range(500):
        k = int(g.integers(1, 7))
        support = tuple(range(k))
        p0 = oracle.DiscreteDistribution(support, random_distribution(g, k))
        p1 = oracle.DiscreteDistribution(support, random_distribution(g, k))
        alphas, betas = zip(*oracle.neyman_pearson_curve(p0, p1))
        for alpha, beta in brute_deterministic_tests(p0.probs, p1.probs):
            if beta < np.interp(alpha, alphas, betas) - 1e-12:
                violations += 1
    assert report(4, violations == 0, f"{violations} test points below envelope")


# ------------------------------------------------- criterion 5 experiment

C5_CONFIG = """
[data]
dataset = bundled:correlated_500
aux_size = 300
eval_size = 200
target_size = 50

[generator]
kind = privbaynet
epsilon = 0.1
max_parents = 2

[attack]
n_shadow = 50
syn_size = 200

[game]
n_eval = 400
kinds = model_seeded

[records]
selection = random:1

[experiment]
master_seed = 20250817

[output]
dir = {out}
rho = 0.05
"""


def run_criterion_5(tmp_dir):
    path = os.path.join(tmp_dir, "audit.ini")
    with open(path, "w") as fh:
        fh.write(C5_CONFIG.format(out=os.path.join(tmp_dir, "out")))
    cfg = load_experiment_config(path)
    assert cli.cmd_dp_audit(cfg, threads=1, log=silent) == 0
    audit_path = os.path.join(tmp_dir, "out", "dp_audit.csv")
    body = file_body(audit_path)
    lines = body.splitlines()[1:]
    flagged = sum(int(ln.split(",")[4]) for ln in lines)
    slack = 2 * risk.hoeffding_radius(200, 0.05)
    worst = min(
        float(b) - (float(bd) - slack)
        for _, a, b, bd, f in (ln.split(",") for ln in lines)
    )
    return body, flagged, worst


@pytest.fixture(scope="module")
def c5_outcome(tmp_path_factory):
    return run_criterion_5(str(tmp_path_factory.mktemp("c5")))


def test_criterion_5_dp_audit_consistency(c5_outcome):
    _, flagged, worst = c5_outcome
    ok = flagged == 0
    assert report(
        5, ok,
        f"{flagged} flagged trade-off points, worst margin {worst:.4f}",
    )


# ------------------------------------------------- criterion 6 experiment

C6_CONFIG = """
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
n_eval = 200

[records]
selection = first:1

[experiment]
master_seed = 20250817

[convergence]
grid = 100,400,1600
repetitions = 10

[output]
dir = {out}
"""


def test_criterion_6_convergence_scaling(tmp_path):
    path = tmp_path / "conv.ini"
    path.write_text(C6_CONFIG.format(out=tmp_path / "out"))
    cfg = load_experiment_config(str(path))
    rows, _ = cli.convergence_table(cfg, log=silent)
    stds = {}
    for _, kind, n, _, std, _ in rows:
        stds[(kind, n)] = std
    ratios = {
        kind: stds[(kind, 1600)] / stds[(kind, 100)]
        for kind in ("traditional", "model_seeded")
    }
    ok = all(0.125 <= r <= 0.5 for r in ratios.values())
    detail = ", ".join(f"{k} ratio {v:.3f}" for k, v in ratios.items())
    assert report(6, ok, detail + ", bounds [0.125, 0.5]")


# ------------------------------------------------- criterion 7 experiment

C7_CONFIG = """
[data]
dataset = bundled:correlated_500
aux_size = 300
eval_size = 200
target_size = 50

[generator]
kind = baynet
max_parents = 2

[attack]
n_shadow = 50
syn_size = 200

[game]
n_eval = 200

[records]
selection = random:20

[experiment]
master_seed = 20250817

[output]
dir = {out}
rho = 0.2
"""


def run_criterion_7(tmp_dir):
    """Full desk-scale run of both games plus the comparison file."""
    path = os.path.join(tmp_dir, "exp.ini")
    out = os.path.join(tmp_dir, "out")
    with open(path, "w") as fh:
        fh.write(C7_CONFIG.format(out=out))
    cfg = load_experiment_config(path)
    assert cli.cmd_run(cfg, threads=1, log=silent) == 0
    results_t = os.path.join(out, "results_traditional.csv")
    results_ms = os.path.join(out, "results_model_seeded.csv")
    cmp_path = os.path.join(out, "comparison.csv")
    assert cli.cmd_compare(results_t, results_ms, 0.8, cmp_path, log=silent) == 0

    _, _, rows_t = cli.read_result_rows(results_t)
    _, _, rows_ms = cli.read_result_rows(results_ms)
    max_gap = max(abs(rows_ms[r] - rows_t[r]) for r in rows_t)
    _, cmp_rows = data.read_table(cmp_path, "comparison")
    rmsd_value = next(float(p[2]) for _, p, _ in cmp_rows if p[:2] == ["summary", "rmsd"])
    bodies = {
        "traditional": file_body(results_t),
        "model_seeded": file_body(results_ms),
        "comparison": file_body(cmp_path),
    }
    return bodies, rmsd_value, max_gap, cfg


@pytest.fixture(scope="module")
def c7_outcome(tmp_path_factory):
    return run_criterion_7(str(tmp_path_factory.mktemp("c7")))


def test_criterion_7_qualitative_game_gap(c7_outcome):
    _, rmsd_value, max_gap, _ = c7_outcome
    threshold = 2 * risk.hoeffding_radius(100, 0.2)
    ok = rmsd_value > 0 and max_gap > threshold
    assert report(
        7, ok,
        f"rmsd {rmsd_value:.4f}, max |R_MS - R_T| {max_gap:.4f}, "
        f"need > {threshold:.4f}",
    )


# ---------------------------------------------------------- criterion 8


def test_criterion_8_determinism(
    c1_outcome, c5_outcome, c7_outcome, tmp_path_factory
):
    body_1 = run_criterion_1()[0]
    same_1 = body_1 == c1_outcome[0]

    body_5 = run_criterion_5(str(tmp_path_factory.mktemp("c5_rerun")))[0]
    same_5 = body_5 == c5_outcome[0]

    bodies_7 = run_criterion_7(str(tmp_path_factory.mktemp("c7_rerun")))[0]
    same_7 = bodies_7 == c7_outcome[0]

    # Thread-count independence: same rounds, any executor width.
    pool, d_target, x = toy_environment()
    spec = generators.GeneratorSpec(kind=generators.TOY, p_in=0.8, p_out=0.2)
    cfg = games.GameConfig(
        n_eval=C1_N_EVAL, dataset_size=d_target.n, generator_spec=spec,
        master_seed=derive(C1_BASE_SEED, "trial", 0),
        game_kind=games.MODEL_SEEDED,
    )
    runs = {}
    for threads in (1, 8):
        t = games.run_model_seeded(x, d_target, pool, games.toy_bit_adversary(),
                                   cfg, threads=threads)
        runs[threads] = t.runs.tolist()
    toy_threads_same = runs[1] == runs[8]

    c7_cfg = c7_outcome[3]
    _, d_aux, d_eval, d_target7 = cli.load_environment(c7_cfg)
    rid = cli.select_record_ids(c7_cfg, d_target7)[0]
    bank = cli.build_bank(c7_cfg, d_eval.schema)
    adv = cli.build_adversary(
        c7_cfg, bank, d_aux, d_target7.record(rid),
        derive(c7_cfg.master_seed, "attack", rid),
    )
    game_seed = derive(c7_cfg.master_seed, f"game-{games.MODEL_SEEDED}", rid)
    config = cli.game_config(c7_cfg, games.MODEL_SEEDED, game_seed, c7_cfg.n_eval)
    grid = [games.Game(d_target7.record(rid), str(rid), config, adv)]
    runs = {}
    for threads in (1, 8):
        (t,) = games.run_games(grid, d_eval, d_target7, threads)
        runs[threads] = t.runs.tolist()
    attack_threads_same = runs[1] == runs[8]

    ok = same_1 and same_5 and same_7 and toy_threads_same and attack_threads_same
    assert report(
        8, ok,
        f"rerun bodies identical: c1={same_1} c5={same_5} c7={same_7}; "
        f"threads 1 vs 8 identical: toy={toy_threads_same} "
        f"attack={attack_threads_same}",
    )


# ---------------------------------------------------------- criterion 9


def test_criterion_9_metric_formulas():
    pairs = [(0.5, 0.9), (0.9, 0.95), (0.85, 0.7)]
    # High risk under model-seeded: records 0 and 1 (0.9, 0.95 > 0.8);
    # of those, record 0 is low risk under traditional (0.5 <= 0.8).
    mr = risk.miss_rate(pairs, 0.8)
    mr_ok = mr == 0.5

    expected_rmsd = math.sqrt(
        math.fsum((t - m) ** 2 for t, m in pairs) / len(pairs)
    )
    rmsd_ok = risk.rmsd(pairs) == expected_rmsd

    # Nothing exceeds the threshold under the model-seeded estimate, so
    # the rate's denominator is empty: a distinguished error, never 0.
    try:
        risk.miss_rate([(0.1, 0.2), (0.9, 0.3)], 0.8)
        undefined_ok = False
    except UndefinedMissRateError:
        undefined_ok = True

    ok = mr_ok and rmsd_ok and undefined_ok
    assert report(
        9, ok,
        f"miss_rate==0.5: {mr_ok}, rmsd exact: {rmsd_ok}, "
        f"undefined raises: {undefined_ok}",
    )
