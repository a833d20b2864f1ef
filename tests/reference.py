"""Per-network and per-round reference implementations.

These are the definitions the batched code replaced.  For the generator
layer: structure learning one ``reference_mutual_information`` call per
column pair, one ``ravel_multi_index`` count per table, Laplace noise per
table, and ancestral sampling one column at a time, on the
``Structure`` and ``Cpt`` records of one network.  ``reference_fit_batch``
has the signature and results of ``fit_batch``, and
``reference_sample_batch`` is the ``(k, n, d)`` records view of
``sample_columns``; both loop over networks, so whole commands can be
run on the reference path.  For
the games: ``reference_run_game`` and
``reference_run_traditional_mixture`` play one round at a time, every
seed from a scalar ``derive``, every stream from a fresh
``np.random.default_rng`` (numpy's own seeding, not ``seeds.Streams``)
and every training set built on its own from ``sample_records``,
``append_record`` or a copy of ``d_target``, never by the games' batch
builders; the shadow sets and toy releases have per-item references too.
For the attack: features one query at a time, scores one release at a
time, and the meta-classifier trained by the allocating per-epoch loop
with ``np.clip``.  For the risk layer: the trade-off curve with two
boolean means per threshold.  The batched path must reproduce all of
them bit for bit.
"""

import math
from dataclasses import dataclass

import numpy as np

from privgames import attack, data, games, generators
from privgames.errors import FitError
from privgames.seeds import derive


@dataclass(frozen=True)
class Structure:
    """One network's column visit order and per-column parent tuples."""

    order: tuple
    parents: tuple


@dataclass(frozen=True)
class Cpt:
    """One column's (smoothed, possibly noised) cell counts and their
    normalized rows, one per parent-value combination."""

    parents: tuple
    parent_sizes: tuple
    counts: np.ndarray
    probs: np.ndarray


def reference_mutual_information(a, b, a_size, b_size):
    """Empirical mutual information (nats) of two index columns."""
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    n = len(a)
    if n == 0:
        return 0.0
    joint = np.bincount(a * b_size + b, minlength=a_size * b_size).astype(float)
    joint = joint.reshape(a_size, b_size) / n
    pa = joint.sum(axis=1)
    pb = joint.sum(axis=0)
    mask = joint > 0
    outer = np.outer(pa, pb)
    return float(np.sum(joint[mask] * np.log(joint[mask] / outer[mask])))


def reference_learn_structure(training, max_parents, seed, mi_floor=0.0):
    sizes = training.schema.sizes
    d = training.schema.ncols
    order = tuple(int(i) for i in np.random.default_rng(seed).permutation(d))
    parents = [None] * d
    visited = []
    for col in order:
        scored = []
        for cand in visited:
            mi = reference_mutual_information(
                training.values[:, col], training.values[:, cand], sizes[col], sizes[cand]
            )
            if mi < mi_floor:
                continue
            scored.append((mi, cand))
        scored.sort(key=lambda t: (-t[0], t[1]))
        parents[col] = tuple(c for _, c in scored[:max_parents])
        visited.append(col)
    return Structure(order=order, parents=tuple(parents))


def reference_normalize_rows(counts, arity):
    totals = counts.sum(axis=1, keepdims=True)
    probs = np.empty_like(counts)
    zero = totals[:, 0] <= 0
    nz = ~zero
    probs[nz] = counts[nz] / totals[nz]
    probs[zero] = 1.0 / arity
    return probs


def reference_estimate_tables(training, structure, smoothing):
    sizes = training.schema.sizes
    tables = []
    for col in range(training.schema.ncols):
        parents = structure.parents[col]
        parent_sizes = tuple(sizes[p] for p in parents)
        n_combos = int(np.prod(parent_sizes)) if parents else 1
        arity = sizes[col]
        if parents:
            combo = np.ravel_multi_index(
                tuple(training.values[:, p] for p in parents), parent_sizes
            )
        else:
            combo = np.zeros(training.n, dtype=np.int64)
        flat = np.bincount(
            combo * arity + training.values[:, col], minlength=n_combos * arity
        ).astype(float)
        counts = flat.reshape(n_combos, arity) + smoothing
        probs = reference_normalize_rows(counts, arity)
        tables.append(Cpt(parents, parent_sizes, counts, probs))
    return tuple(tables)


def reference_privatize_tables(tables, epsilon, seed):
    scale = (len(tables) * 2.0) / epsilon
    out = []
    for i, cpt in enumerate(tables):
        g = np.random.default_rng(derive(seed, "privatize-col", i))
        noisy = cpt.counts + g.laplace(0.0, scale, size=cpt.counts.shape)
        clamped = np.maximum(noisy, 0.0)
        arity = cpt.probs.shape[1]
        out.append(
            Cpt(
                cpt.parents, cpt.parent_sizes, clamped,
                reference_normalize_rows(clamped, arity),
            )
        )
    return tuple(out)


@dataclass(frozen=True)
class ReferenceGenerator:
    spec: object
    schema: object
    structure: object = None
    tables: tuple = None


def reference_fit(spec, training, target_hint=None, seed=0):
    """A network's ``ReferenceGenerator``, or a toy's release probability:
    ``p_in`` when ``target_hint`` is in ``training``, else ``p_out``."""
    if spec.kind == generators.TOY:
        if target_hint is None:
            raise FitError("toy generator requires a target_hint record")
        return spec.p_in if data.contains(training, target_hint) else spec.p_out
    if training.n == 0:
        raise FitError(f"{spec.kind} generator requires non-empty training data")
    d = training.schema.ncols
    if spec.kind == generators.INDEPENDENT:
        structure = Structure(order=tuple(range(d)), parents=((),) * d)
    else:
        structure = reference_learn_structure(
            training, spec.max_parents, derive(seed, "structure"), spec.mi_floor
        )
    tables = reference_estimate_tables(training, structure, spec.smoothing)
    if spec.kind == generators.PRIVBAYNET:
        tables = reference_privatize_tables(tables, spec.epsilon, derive(seed, "privatize"))
    return ReferenceGenerator(spec, training.schema, structure, tables)


def reference_sample(gen, n, seed):
    d = gen.schema.ncols
    if n == 0:
        return data.Dataset(gen.schema, np.empty((0, d)))
    g = np.random.default_rng(seed)
    values = np.zeros((n, d), dtype=np.int64)
    for col in gen.structure.order:
        cpt = gen.tables[col]
        if cpt.parents:
            combo = np.ravel_multi_index(
                tuple(values[:, p] for p in cpt.parents), cpt.parent_sizes
            )
        else:
            combo = np.zeros(n, dtype=np.int64)
        cum = np.cumsum(cpt.probs, axis=1)[combo]
        u = g.random(n)
        picked = (cum <= u[:, None]).sum(axis=1)
        arity = cpt.probs.shape[1]
        values[:, col] = np.minimum(picked, arity - 1)
    return data.Dataset(gen.schema, values)


def reference_fit_batch(spec, schema, values, seeds):
    return [
        reference_fit(spec, data.Dataset(schema, v), seed=int(seed))
        for v, seed in zip(values, seeds)
    ]


def reference_sample_batch(gens, n, seeds):
    """The records view of ``generators.sample_columns``: the releases as
    one ``(k, n, d)`` array."""
    return np.stack([reference_sample(gen, n, seed).values for gen, seed in zip(gens, seeds)])


def _reference_play(config, record_id, adversary, x, round_dataset):
    """``games._play`` of one game, one round at a time: every seed from
    a scalar ``derive``, every stream (the secret bits' too) from a fresh
    ``default_rng``, and round i's training set from
    ``round_dataset(b, run_seed)``, which returns it and its generator
    spec."""
    bits = np.zeros(config.n_eval, dtype=np.int64)
    bits[: config.n_eval // 2] = 1
    bits = np.random.default_rng(derive(config.master_seed, "bits")).permutation(bits)
    runs = []
    for i in range(config.n_eval):
        run_seed = derive(config.master_seed, "run", i)
        b = int(bits[i])
        ds, spec = round_dataset(b, run_seed)
        gen = reference_fit(spec, ds, x, derive(run_seed, "fit"))
        score = adversary([gen], [derive(run_seed, "adversary")])[0]
        runs.append((b, float(score), run_seed))
    return games.GameTranscript(
        np.array(runs, dtype=games.RUN_DTYPE), str(record_id), config.game_kind
    )


def reference_run_game(x, d_eval, d_target, adversary, config, record_id=""):
    """``games.run_game``, building each round's training set on its own:
    ``sample_records`` plus ``append_record`` from the pool without copies
    of x, or a copy of ``d_target`` with x's rows replaced."""
    spec = config.generator_spec
    schema = d_eval.schema
    if config.game_kind == games.TRADITIONAL:
        pool = data.Dataset(schema, [r for r in d_eval.records() if r != tuple(x)])
        n = config.dataset_size

        def round_dataset(b, run_seed):
            seed = derive(run_seed, "data")
            if b == 1:
                return data.append_record(data.sample_records(pool, n - 1, seed), x), spec
            return data.sample_records(pool, n, seed), spec

        return _reference_play(config, record_id, adversary, x, round_dataset)

    positions = [i for i, r in enumerate(d_target.records()) if r == tuple(x)]
    in_target = set(d_target.records())
    refs = np.array([r for r in d_eval.records() if r not in in_target], dtype=np.int64)
    fixed = None
    if config.reference_mode == games.REFERENCE_FIXED:
        g = np.random.default_rng(derive(config.master_seed, "reference"))
        fixed = refs[g.integers(0, len(refs), size=len(positions))]

    def round_dataset(b, run_seed):
        if b == 1:
            return d_target, spec
        values = d_target.values.copy()
        if fixed is None:
            g = np.random.default_rng(derive(run_seed, "data"))
            values[positions] = refs[g.integers(0, len(refs), size=len(positions))]
        else:
            values[positions] = fixed
        return data.Dataset(schema, values), spec

    return _reference_play(config, record_id, adversary, x, round_dataset)


def reference_run_traditional_mixture(x, partials, adversary, config, record_id="", specs=None):
    """``games.run_traditional_mixture``, one round at a time."""
    specs = specs or [config.generator_spec] * len(partials)

    def round_dataset(b, run_seed):
        j = int(np.random.default_rng(derive(run_seed, "mixture")).integers(0, len(partials)))
        part = partials[j]
        return (data.append_record(part, x) if b == 1 else part), specs[j]

    return _reference_play(config, record_id, adversary, x, round_dataset)


def reference_release_bits(probs, seeds):
    return [int(np.random.default_rng(seed).random() < p) for p, seed in zip(probs, seeds)]


def reference_shadow_sets(d_aux, x, n, n_shadow, seed):
    sets, labels = [], []
    for i in range(n_shadow // 2):
        base = data.sample_records(d_aux, n - 1, derive(seed, "shadow-in", i))
        sets.append(data.append_record(base, x).values)
        sets.append(data.sample_records(d_aux, n, derive(seed, "shadow-out", i)).values)
        labels += [1, 0]
    return np.stack(sets), np.array(labels)


def reference_features(d_syn, x, bank):
    """``attack.extract_features`` as a loop over the queries."""
    xa = np.asarray(x, dtype=np.int64)
    values = d_syn.values
    feats = np.empty(len(bank.queries))
    for i, q in enumerate(bank.queries):
        cols = list(q.columns)
        sub = values[:, cols]
        if q.kind == attack.EXACT:
            match = sub == xa[cols]
        else:
            match = sub <= xa[cols]
        feats[i] = match.all(axis=1).mean()
    return feats


def reference_sigmoid(z):
    return 1.0 / (1.0 + np.exp(-np.clip(z, -500.0, 500.0)))


def reference_train_meta_classifier(features, labels, epochs=800, learning_rate=1.0, l2=1e-4):
    """``attack.train_meta_classifier`` with a new array per operation."""
    X = np.asarray(features, dtype=float)
    y = np.asarray(labels, dtype=float)
    m, d = X.shape
    Xb = np.hstack([X, np.ones((m, 1))])
    lip = 0.25 * float((Xb * Xb).sum(axis=1).max())
    step = learning_rate / lip
    w = np.zeros(d + 1)
    for _ in range(epochs):
        p = reference_sigmoid(Xb @ w)
        grad = Xb.T @ (p - y) / m
        w = w - step * grad
        w[:d] /= 1.0 + step * l2
    return attack.MetaClassifier(weights=w)


def reference_attack_score(meta, d_syn, x, bank):
    w = meta.weights
    return float(reference_sigmoid(reference_features(d_syn, x, bank) @ w[:-1] + w[-1]))


def reference_meta_classifier_adversary(meta, bank, x, n_syn):
    """``attack.meta_classifier_adversary``, scoring one release at a
    time; it can stand in for the factory."""

    def adversary(gens, seeds):
        return [
            reference_attack_score(meta, reference_sample(gen, n_syn, seed), x, bank)
            for gen, seed in zip(gens, seeds)
        ]

    return adversary


def reference_train_attack(
    d_aux, x, spec, bank, n, n_shadow, seed, epochs=800, learning_rate=1.0, l2=1e-4
):
    """``attack.train_attack``, one shadow model at a time."""
    sets, labels = reference_shadow_sets(d_aux, x, n, n_shadow, derive(seed, "shadow-sets"))
    feats = []
    for i, values in enumerate(sets):
        ds = data.Dataset(d_aux.schema, values)
        gen = reference_fit(spec, ds, x, derive(seed, "shadow-fit", i))
        d_syn = reference_sample(gen, n, derive(seed, "shadow-sample", i))
        feats.append(reference_features(d_syn, x, bank))
    return reference_train_meta_classifier(
        np.array(feats), labels, epochs, learning_rate, l2
    )


def reference_empirical_tradeoff(transcript):
    """``risk.empirical_tradeoff`` with two boolean means per threshold."""
    bits, scores = transcript.runs["secret_bit"], transcript.runs["score"]
    out_scores = scores[bits == 0]
    in_scores = scores[bits == 1]
    thresholds = list(np.unique(scores)) + [math.inf]
    points = set()
    for gamma in thresholds:
        alpha = float((out_scores >= gamma).mean())
        beta = float((in_scores < gamma).mean())
        points.add((alpha, beta))
    return tuple(sorted(points, key=lambda p: (p[0], -p[1])))
