"""Per-network and per-round reference implementations.

These are the definitions the batched code replaced.  For the generator
layer: structure learning one ``mutual_information`` call per column
pair, one ``ravel_multi_index`` count per table, Laplace noise per table,
and ancestral sampling one column at a time.  ``reference_fit_batch``
and ``reference_sample_batch`` have the signatures of ``fit_batch`` and
``sample_batch`` and loop over networks, so whole commands can be run
on the reference path.  For the games: ``reference_execute`` makes an
``_execute`` that plays one round at a time, every seed from a scalar
``derive`` and every stream from a fresh ``rng``; the shadow sets and
toy releases have per-item references too.  The batched path must
reproduce all of them bit for bit.
"""

from dataclasses import dataclass

import numpy as np

from privgames import data, games, generators
from privgames.errors import FitError, UnsupportedOperationError
from privgames.seeds import derive, rng


def reference_learn_structure(training, max_parents, seed, mi_floor=0.0):
    sizes = training.schema.sizes
    d = training.schema.ncols
    order = tuple(int(i) for i in rng(seed).permutation(d))
    parents = [None] * d
    visited = []
    for col in order:
        scored = []
        for cand in visited:
            mi = generators.mutual_information(
                training.values[:, col], training.values[:, cand], sizes[col], sizes[cand]
            )
            if mi < mi_floor:
                continue
            scored.append((mi, cand))
        scored.sort(key=lambda t: (-t[0], t[1]))
        parents[col] = tuple(c for _, c in scored[:max_parents])
        visited.append(col)
    return generators.Structure(order=order, parents=tuple(parents))


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
        tables.append(generators.Cpt(parents, parent_sizes, counts, probs))
    return tuple(tables)


def reference_privatize_tables(tables, epsilon, seed):
    scale = (len(tables) * 2.0) / epsilon
    out = []
    for i, cpt in enumerate(tables):
        g = rng(derive(seed, "privatize-col", i))
        noisy = cpt.counts + g.laplace(0.0, scale, size=cpt.counts.shape)
        clamped = np.maximum(noisy, 0.0)
        arity = cpt.probs.shape[1]
        out.append(
            generators.Cpt(
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
    toy_member: bool = None


def reference_fit(spec, training, target_hint=None, seed=0):
    if spec.kind == generators.TOY:
        if target_hint is None:
            raise FitError("toy generator requires a target_hint record")
        return ReferenceGenerator(
            spec, training.schema, toy_member=data.contains(training, target_hint)
        )
    if training.n == 0:
        raise FitError(f"{spec.kind} generator requires non-empty training data")
    d = training.schema.ncols
    if spec.kind == generators.INDEPENDENT:
        structure = generators.Structure(order=tuple(range(d)), parents=((),) * d)
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
        return data.Dataset(gen.schema, np.empty((0, d)), validate=False)
    if gen.spec.kind == generators.TOY:
        raise UnsupportedOperationError("toy generator does not sample records")
    g = rng(seed)
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
    return data.Dataset(gen.schema, values, validate=False)


def reference_fit_batch(specs, trainings, seeds, target_hint=None):
    return [
        reference_fit(spec, training, target_hint, seed)
        for spec, training, seed in zip(specs, trainings, seeds)
    ]


def reference_sample_batch(gens, n, seeds):
    return [reference_sample(gen, n, seed) for gen, seed in zip(gens, seeds)]


def reference_execute(data_tag):
    """``games._execute``, one round at a time, as a replacement for it.

    Round i's data stream is ``rng(derive(run_seed, data_tag))`` with the
    tag given here, whatever tag the game passes; ``threads`` is ignored.
    """

    def execute(config, record_id, adversary, x, build_run, threads, *_):
        bits = games.balanced_bits(config.n_eval, derive(config.master_seed, "bits"))
        runs = []
        for i in range(config.n_eval):
            run_seed = derive(config.master_seed, "run", i)
            b = int(bits[i])
            ds, spec = build_run(b, rng(derive(run_seed, data_tag)))
            gen = reference_fit(spec, ds, x, derive(run_seed, "fit"))
            score = adversary.score_rounds([gen], [derive(run_seed, "adversary")])[0]
            runs.append(games.GameRun(i, b, float(score), run_seed))
        return games.GameTranscript(
            tuple(runs), str(record_id), config.game_kind, config.config_hash()
        )

    return execute


def reference_release_bits(gens, seeds):
    return [
        int(rng(seed).random() < (gen.spec.p_in if gen.toy_member else gen.spec.p_out))
        for gen, seed in zip(gens, seeds)
    ]


def reference_shadow_sets(d_aux, x, n, n_shadow, seed):
    sets = []
    for i in range(n_shadow // 2):
        base = data.sample_records(d_aux, n - 1, derive(seed, "shadow-in", i))
        sets.append((data.append_record(base, x), 1))
        sets.append((data.sample_records(d_aux, n, derive(seed, "shadow-out", i)), 0))
    return sets
