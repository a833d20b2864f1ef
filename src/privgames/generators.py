"""Synthetic data generators with a shared fit/sample interface.

Four kinds: independent per-column marginals, a Bayesian network with
greedy structure search, the same network with Laplace-noised tables,
and an analytic toy whose release is a single bit.  The toy exists so
game-level estimates can be checked against closed-form error rates;
the network kinds are the objects actually under evaluation.

A network fit runs hundreds of times per evaluated record, on tables of
a few dozen cells, so it is written as a fixed number of array passes:
structure learning scores every column pair from one ``bincount`` and
estimating the tables counts every column with one more.  Both produce
exactly the bits of the per-pair / per-column definitions
(``mutual_information`` and a ``ravel_multi_index`` count per column).
"""

from dataclasses import dataclass

import numpy as np

from . import data as data_mod
from .errors import DomainError, FitError, UnsupportedOperationError
from .seeds import derive, rng

INDEPENDENT = "independent"
BAYNET = "baynet"
PRIVBAYNET = "privbaynet"
TOY = "toy"

_KINDS = (INDEPENDENT, BAYNET, PRIVBAYNET, TOY)


@dataclass(frozen=True)
class GeneratorSpec:
    """Declarative description of a generator.

    Parameters
    ----------
    kind : str
        One of ``"independent"``, ``"baynet"``, ``"privbaynet"``,
        ``"toy"``.
    max_parents : int, optional
        Parent budget per column for the network kinds.
    epsilon : float, optional
        Privacy budget; required for ``"privbaynet"``.
    p_in, p_out : float, optional
        Toy release-bit probabilities when the fit target is / is not a
        member of the training data; required for ``"toy"``.
    smoothing : float, optional
        Pseudo-count added to every table cell before normalizing.
    mi_floor : float, optional
        Parent candidates with mutual information below this are skipped.
    """

    kind: str
    max_parents: int = 1
    epsilon: float = None
    p_in: float = None
    p_out: float = None
    smoothing: float = 1.0
    mi_floor: float = 0.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise DomainError(f"unknown generator kind {self.kind!r}")
        if self.max_parents < 0:
            raise DomainError("max_parents must be >= 0")
        if self.smoothing < 0:
            raise DomainError("smoothing must be >= 0")
        if self.mi_floor < 0:
            raise DomainError("mi_floor must be >= 0")
        if self.kind == PRIVBAYNET:
            if self.epsilon is None or not self.epsilon > 0:
                raise DomainError("privbaynet requires epsilon > 0")
        if self.kind == TOY:
            for name, p in (("p_in", self.p_in), ("p_out", self.p_out)):
                if p is None or not 0.0 <= p <= 1.0:
                    raise DomainError(f"toy requires {name} in [0, 1]")


@dataclass(frozen=True)
class Structure:
    """Column visit order and per-column parent sets.

    ``order`` is a topological order: every column's parents appear
    earlier in it, which is what ancestral sampling needs.
    """

    order: tuple
    parents: tuple


@dataclass(frozen=True)
class Cpt:
    """Conditional probability table for one column.

    counts holds the (smoothed, possibly noised and clamped) per-cell
    counts the probabilities were normalized from; probs has one row per
    parent-value combination, each summing to 1.
    """

    parents: tuple
    parent_sizes: tuple
    counts: np.ndarray
    probs: np.ndarray


@dataclass(frozen=True)
class FittedGenerator:
    """A generator fit on one training dataset."""

    spec: GeneratorSpec
    schema: object
    structure: Structure = None
    tables: tuple = None
    toy_member: bool = None


def mutual_information(a, b, a_size, b_size):
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


def _concat(parts):
    return np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)


class _PairPlan:
    """Index plan for the joint tables of every ordered column pair.

    Ordered pair ``p = (a, b)`` owns the row-major ``(sizes[a], sizes[b])``
    block at ``bounds[p]`` of one flat table, so a single ``bincount``
    counts every pair.  The marginals live in one flat vector: pair p's
    row sums (``pa``) then its column sums (``pb``).  They are reduced
    the way ``joint.sum(axis=1)`` / ``joint.sum(axis=0)`` reduce one
    block, which is what makes the MI values bit-identical to
    ``mutual_information``:

    * row sums: rows of equal length are stacked and reduced along the
      last axis, the same contiguous (pairwise) sum numpy runs per row;
    * column sums: a left fold down axis 0 of a ``(max_rows, k)`` gather
      whose short columns are padded with the always-zero cell
      ``ncells`` (adding 0.0 is exact);
    * except that numpy reduces the lone column of an ``(A, 1)`` block
      as one contiguous 1-D sum, so those columns are reduced as rows.

    ``bounds[p]:bounds[p + 1]`` are the cell bounds of pair p; every
    cell also knows its row-sum and column-sum slots in the marginals.
    """

    def __init__(self, sizes):
        d = len(sizes)
        pairs = [(a, b) for a in range(d) for b in range(d) if a != b]
        self.pair_index = {pair: p for p, pair in enumerate(pairs)}
        self.a_cols = np.array([a for a, _ in pairs], dtype=np.int64)
        self.b_cols = np.array([b for _, b in pairs], dtype=np.int64)
        self.b_sizes = np.array([sizes[b] for _, b in pairs], dtype=np.int64)
        bounds = [0]
        nmarg = 0
        cell_row, cell_col = [], []
        rows = {}  # row length -> ([gather blocks], [marginal slots])
        col_blocks, col_slots = [], []
        for a, b in pairs:
            sa, sb = sizes[a], sizes[b]
            block = bounds[-1] + np.arange(sa * sb, dtype=np.int64).reshape(sa, sb)
            ra = nmarg + np.arange(sa, dtype=np.int64)
            cb = nmarg + sa + np.arange(sb, dtype=np.int64)
            nmarg += sa + sb
            cell_row.append(np.repeat(ra, sb))
            cell_col.append(np.tile(cb, sa))
            gathers, slots = rows.setdefault(sb, ([], []))
            gathers.append(block)
            slots.append(ra)
            if sb == 1:
                gathers, slots = rows.setdefault(sa, ([], []))
                gathers.append(block.T)
                slots.append(cb)
            else:
                col_blocks.append(block.T)
                col_slots.append(cb)
            bounds.append(bounds[-1] + sa * sb)
        self.ncells = bounds[-1]
        self.bounds = np.array(bounds, dtype=np.int64)
        self.nmarg = nmarg
        self.cell_row = _concat(cell_row)
        self.cell_col = _concat(cell_col)
        self.row_groups = [
            (np.concatenate(gathers), np.concatenate(slots))
            for gathers, slots in rows.values()
        ]
        max_rows = max((blk.shape[1] for blk in col_blocks), default=1)
        cols = np.full((sum(blk.shape[0] for blk in col_blocks), max_rows), self.ncells)
        start = 0
        for blk in col_blocks:
            cols[start : start + blk.shape[0], : blk.shape[1]] = blk
            start += blk.shape[0]
        self.col_gather = np.ascontiguousarray(cols.T)
        self.col_slots = _concat(col_slots)


# A plan depends only on the column sizes, so it is built at the first fit
# on a schema and shared after; threads racing on a miss build equal plans.
_PAIR_PLANS = {}


def _pair_plan(sizes):
    plan = _PAIR_PLANS.get(sizes)
    if plan is None:
        plan = _PAIR_PLANS[sizes] = _PairPlan(sizes)
    return plan


def _pair_information(values, plan):
    """Bit-identical ``mutual_information`` terms of every ordered pair.

    Returns the flat array of nonzero-cell MI terms and, per pair, the
    bounds of its contiguous slice; a pair's MI is ``np.add.reduce`` of
    that slice, the same sum ``mutual_information`` takes.
    """
    codes = values[:, plan.a_cols] * plan.b_sizes + values[:, plan.b_cols]
    codes += plan.bounds[:-1]
    joint = np.bincount(codes.ravel(), minlength=plan.ncells + 1).astype(float)
    joint /= values.shape[0]
    marg = np.empty(plan.nmarg)
    for gather, slots in plan.row_groups:
        marg[slots] = joint[gather].sum(axis=1)
    marg[plan.col_slots] = joint[plan.col_gather].sum(axis=0)
    nz = np.flatnonzero(joint)
    pj = joint[nz]
    terms = pj * np.log(pj / (marg[plan.cell_row[nz]] * marg[plan.cell_col[nz]]))
    return terms, np.searchsorted(nz, plan.bounds).tolist()


def learn_structure(training, max_parents, seed, mi_floor=0.0):
    """Greedy Bayesian-network structure over the training columns.

    Columns are visited in a seeded random order; each picks up to
    ``max_parents`` already-visited columns, ranked by empirical pairwise
    mutual information with the child, skipping candidates whose score
    falls below ``mi_floor``.  The visit order doubles as the sampling
    order.

    The MI of every column pair comes from one pass over the data (see
    ``_PairPlan``): one ``bincount`` for all joint tables, a few stacked
    reductions for all marginals, and one elementwise pass for the
    terms.  Each value equals ``mutual_information`` bit for bit.
    """
    if training.n == 0:
        raise FitError("cannot learn a structure from an empty dataset")
    d = training.schema.ncols
    order = tuple(int(i) for i in rng(seed).permutation(d))
    plan = _pair_plan(training.schema.sizes)
    terms, bounds = _pair_information(training.values, plan)
    pair_index = plan.pair_index
    parents = [None] * d
    for k, col in enumerate(order):
        scored = []
        for cand in order[:k]:
            p = pair_index[col, cand]
            mi = float(np.add.reduce(terms[bounds[p] : bounds[p + 1]]))
            if mi < mi_floor:
                continue
            scored.append((mi, cand))
        # Highest MI first; ties broken by column index for determinism.
        scored.sort(key=lambda t: (-t[0], t[1]))
        parents[col] = tuple(c for _, c in scored[:max_parents])
    return Structure(order=order, parents=tuple(parents))


def _parent_combo_index(values, parents, parent_sizes):
    if not parents:
        return np.zeros(values.shape[0], dtype=np.int64)
    cols = tuple(values[:, p] for p in parents)
    return np.ravel_multi_index(cols, parent_sizes)


def _normalize_rows(counts, arity):
    totals = counts.sum(axis=1, keepdims=True)
    return np.divide(counts, totals, out=np.full_like(counts, 1.0 / arity), where=totals > 0)


def estimate_tables(training, structure, smoothing):
    """Maximum-likelihood tables with additive smoothing.

    Each cell gets ``(count + smoothing)``; rows whose total is zero
    (unseen parent combination with zero smoothing) fall back to
    uniform.

    All columns are counted by one ``bincount``: column c's table is the
    block at its own offset, and a row's cell in it is the C-order index
    ``combo * arity + value`` with ``combo`` the row-major index of the
    parent values, the integer ``ravel_multi_index`` computes.
    """
    if training.n == 0:
        raise FitError("cannot estimate tables from an empty dataset")
    sizes = training.schema.sizes
    d = training.schema.ncols
    depth = max((len(p) for p in structure.parents), default=0)
    parent_cols = np.zeros((depth, d), dtype=np.int64)
    strides = np.zeros((depth, d), dtype=np.int64)
    offsets = np.empty(d, dtype=np.int64)
    shapes = []
    total = 0
    for col, parents in enumerate(structure.parents):
        stride = sizes[col]
        for j in range(len(parents) - 1, -1, -1):
            parent_cols[j, col] = parents[j]
            strides[j, col] = stride
            stride *= sizes[parents[j]]
        offsets[col] = total
        shapes.append((stride // sizes[col], sizes[col]))
        total += stride
    codes = training.values + offsets
    for j in range(depth):
        codes += training.values[:, parent_cols[j]] * strides[j]
    flat = np.bincount(codes.ravel(), minlength=total).astype(float)
    tables = []
    for col, parents in enumerate(structure.parents):
        n_combos, arity = shapes[col]
        start = offsets[col]
        counts = flat[start : start + n_combos * arity].reshape(n_combos, arity) + smoothing
        probs = _normalize_rows(counts, arity)
        tables.append(Cpt(parents, tuple(sizes[p] for p in parents), counts, probs))
    return tuple(tables)


def privatize_tables(tables, epsilon, seed):
    """Laplace-noise every table cell and renormalize.

    The budget is split equally across columns, and each count has
    sensitivity 2 under replacement of one training record, so the
    noise scale is ``(n_columns * 2) / epsilon``.  Noised counts are
    clamped at zero; rows that become all-zero fall back to uniform.
    The structure itself is left untouched.
    """
    if not epsilon > 0:
        raise DomainError("epsilon must be > 0")
    ncols = len(tables)
    scale = (ncols * 2.0) / epsilon
    out = []
    for i, cpt in enumerate(tables):
        g = rng(derive(seed, "privatize-col", i))
        noisy = cpt.counts + g.laplace(0.0, scale, size=cpt.counts.shape)
        clamped = np.maximum(noisy, 0.0)
        arity = cpt.probs.shape[1]
        out.append(
            Cpt(cpt.parents, cpt.parent_sizes, clamped, _normalize_rows(clamped, arity))
        )
    return tuple(out)


def fit(spec, training, target_hint=None, seed=0):
    """Fit a generator described by ``spec`` on ``training``.

    The toy kind ignores the training distribution entirely: it only
    records whether ``target_hint`` (required for it) appears in the
    training data, so an empty training dataset is acceptable.  The
    other kinds require a non-empty training dataset.
    """
    if spec.kind == TOY:
        if target_hint is None:
            raise FitError("toy generator requires a target_hint record")
        member = data_mod.contains(training, target_hint)
        return FittedGenerator(spec, training.schema, toy_member=member)
    if training.n == 0:
        raise FitError(f"{spec.kind} generator requires non-empty training data")
    d = training.schema.ncols
    if spec.kind == INDEPENDENT:
        structure = Structure(order=tuple(range(d)), parents=((),) * d)
    else:
        structure = learn_structure(
            training, spec.max_parents, derive(seed, "structure"), spec.mi_floor
        )
    tables = estimate_tables(training, structure, spec.smoothing)
    if spec.kind == PRIVBAYNET:
        tables = privatize_tables(tables, spec.epsilon, derive(seed, "privatize"))
    return FittedGenerator(spec, training.schema, structure, tables)


def sample(gen, n, seed):
    """Draw ``n`` records by ancestral sampling.

    The toy kind releases a bit, not records, so asking it for a
    non-empty sample raises UnsupportedOperationError; ``n == 0``
    returns an empty dataset for any kind.
    """
    if n < 0:
        raise DomainError("sample size must be non-negative")
    if n == 0:
        return data_mod.Dataset(gen.schema, np.empty((0, gen.schema.ncols)), validate=False)
    if gen.spec.kind == TOY:
        raise UnsupportedOperationError("toy generator does not sample records")
    g = rng(seed)
    d = gen.schema.ncols
    values = np.zeros((n, d), dtype=np.int64)
    for col in gen.structure.order:
        cpt = gen.tables[col]
        combo = _parent_combo_index(values, cpt.parents, cpt.parent_sizes)
        cum = np.cumsum(cpt.probs, axis=1)[combo]
        u = g.random(n)
        picked = (cum <= u[:, None]).sum(axis=1)
        arity = cpt.probs.shape[1]
        values[:, col] = np.minimum(picked, arity - 1)
    return data_mod.Dataset(gen.schema, values, validate=False)


def release_bit(gen, seed):
    """The toy generator's release: 1 w.p. p_in for a member fit, p_out else."""
    if gen.spec.kind != TOY:
        raise UnsupportedOperationError(
            f"{gen.spec.kind} generator does not release a bit"
        )
    p = gen.spec.p_in if gen.toy_member else gen.spec.p_out
    return int(rng(seed).random() < p)
