"""Synthetic data generators with a shared fit/sample interface.

Four kinds: independent per-column marginals, a Bayesian network with
greedy structure search, the same network with Laplace-noised tables,
and an analytic toy whose release is a single bit.  The toy exists so
game-level estimates can be checked against closed-form error rates;
the network kinds are the objects actually under evaluation.

A game fits and samples hundreds of networks per evaluated record, each
on tables of a few dozen cells, so networks are fit and sampled in
batches.  ``fit_batch`` takes one spec, one schema and the training sets
as one ``(B, n, d)`` int64 array, which it slices into chunks and never
copies; ``sample_batch`` takes fitted generators of any batches.  Every
stage is a fixed number of array passes over the whole batch: the toy
tests membership column by column, structure learning scores
every column pair of every network from one ``bincount``, estimating
the tables counts every column of every network with one more, and
sampling draws one column of every network per step.  Each network gets
exactly the bits of the per-network definitions (``mutual_information``,
a ``ravel_multi_index`` count per column, ancestral sampling column by
column); ``fit``, ``sample`` and ``release_bit`` are batches of one.  The
per-network seeds of a batch come from ``seeds.derive_many``, and its
random streams (structure order, Laplace noise, sampling uniforms, toy
release) are opened once per batch call by ``seeds.Streams``; the
single-network entry points open their one stream with ``seeds.rng``.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import data as data_mod
from .errors import DomainError, FitError, UnsupportedOperationError
from .seeds import Streams, derive_many, rng

INDEPENDENT = "independent"
BAYNET = "baynet"
PRIVBAYNET = "privbaynet"
TOY = "toy"

KINDS = (INDEPENDENT, BAYNET, PRIVBAYNET, TOY)

# Most array elements one batched intermediate may hold: batches are
# fit and sampled in chunks that stay within it.
BATCH_ELEMENTS = 1 << 15


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
        if self.kind not in KINDS:
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
    """A generator fit on one training dataset.

    A network keeps its tables in the flat arrays of the batch it was
    fit in: ``packed`` is that ``_TableBatch`` and the network's index
    in it, and ``tables`` views them as one ``Cpt`` per column.
    """

    spec: GeneratorSpec
    schema: object
    structure: Structure = None
    toy_member: bool = None
    packed: tuple = field(default=None, compare=False, repr=False)

    @cached_property
    def tables(self):
        if self.packed is None:
            return None
        batch, b = self.packed
        return batch.cpts(b, self.structure)


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

    ``values`` is one ``(n, d)`` training table or a ``(B, n, d)`` batch
    of them.  One ``bincount`` counts every pair table of every network;
    network b's cells sit at offset ``b * (plan.ncells + 1)``, the last
    one always zero.  Returns the flat array of nonzero-cell MI terms
    and, with the leading shape of ``values``, the bounds of each pair's
    contiguous slice: pair p of network b is
    ``terms[bounds[b, p] : bounds[b, p + 1]]``, and its MI is
    ``np.add.reduce`` of that slice, the same sum ``mutual_information``
    takes.

    Marginals are reduced as the plan describes, one network after
    another along the batch axis: row sums as rows of a 2-D array
    reduced along the last axis, column sums as a left fold down axis 0
    of a ``(max_rows, B * k)`` gather.
    """
    batch = values.reshape(-1, *values.shape[-2:])
    nets, n, _ = batch.shape
    width = plan.ncells + 1
    net_cells = np.arange(nets, dtype=np.int64) * width
    codes = batch[:, :, plan.a_cols] * plan.b_sizes + batch[:, :, plan.b_cols]
    codes += plan.bounds[:-1]
    codes += net_cells[:, None, None]
    joint = np.bincount(codes.ravel(), minlength=nets * width).astype(float)
    joint /= n
    marg = np.empty((nets, plan.nmarg))
    by_net = joint.reshape(nets, width)
    for gather, slots in plan.row_groups:
        sums = by_net[:, gather].reshape(-1, gather.shape[1]).sum(axis=1)
        marg[:, slots] = sums.reshape(nets, -1)
    cols = plan.col_gather[:, None, :] + net_cells[:, None]
    sums = joint[cols.reshape(cols.shape[0], -1)].sum(axis=0)
    marg[:, plan.col_slots] = sums.reshape(nets, -1)
    nz = np.flatnonzero(joint)
    pj = joint[nz]
    net, cell = np.divmod(nz, width)
    base = net * plan.nmarg
    flat = marg.ravel()
    terms = pj * np.log(pj / (flat[base + plan.cell_row[cell]] * flat[base + plan.cell_col[cell]]))
    bounds = np.searchsorted(nz, net_cells[:, None] + plan.bounds)
    return terms, bounds.reshape(*values.shape[:-2], -1)


def _pair_mi(terms, bounds):
    """``np.add.reduce`` of every pair slice, flat in (network, pair) order.

    Slices of equal length are gathered into one ``(count, length)``
    array and reduced along its last axis, the same pairwise sum numpy
    runs on one slice; empty slices sum to 0.0.
    """
    starts = bounds[..., :-1].ravel()
    lengths = (bounds[..., 1:] - bounds[..., :-1]).ravel()
    mi = np.zeros(len(starts))
    for length in np.unique(lengths).tolist():
        if length:
            sel = np.flatnonzero(lengths == length)
            mi[sel] = terms[starts[sel, None] + np.arange(length)].sum(axis=1)
    return mi


def _learn_structures(values, sizes, max_parents, streams, mi_floor):
    """``learn_structure`` of every network of a ``(B, n, d)`` batch;
    network b draws its visit order from ``streams[b]``."""
    d = len(sizes)
    plan = _pair_plan(sizes)
    terms, bounds = _pair_information(values, plan)
    mi = _pair_mi(terms, bounds).reshape(len(values), -1).tolist()
    pair_index = plan.pair_index
    structures = []
    for scores, g in zip(mi, streams):
        order = tuple(g.permutation(d).tolist())
        parents = [None] * d
        for k, col in enumerate(order):
            scored = []
            for cand in order[:k]:
                s = scores[pair_index[col, cand]]
                if s < mi_floor:
                    continue
                scored.append((s, cand))
            # Highest MI first; ties broken by column index for determinism.
            scored.sort(key=lambda t: (-t[0], t[1]))
            parents[col] = tuple(c for _, c in scored[:max_parents])
        structures.append(Structure(order=order, parents=tuple(parents)))
    return structures


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
    return _learn_structures(
        training.values[None], training.schema.sizes, max_parents, [rng(seed)], mi_floor
    )[0]


def _normalize_rows(counts, arity):
    totals = counts.sum(axis=1, keepdims=True)
    return np.divide(counts, totals, out=np.full_like(counts, 1.0 / arity), where=totals > 0)


def _starts(lengths):
    return np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64)


class _TableBatch:
    """The conditional probability tables of a batch of networks.

    All networks share one schema.  Table ``t = b * d + c`` is column c
    of network b: its ``(n_combos[t], arity[t])`` cells are the block at
    ``cell_start[t]`` of the flat ``counts`` and ``probs`` arrays, laid
    out exactly as the per-column table raveled, and its rows are batch
    rows ``row_start[t]`` onward.  A record falls in row ``row_start[t]``
    plus ``sum_j value[parent_cols[b, c, j]] * combo_strides[b, c, j]``,
    the row-major parent combination ``ravel_multi_index`` computes;
    unused parent slots have stride 0.
    """

    def __init__(self, sizes, structures):
        nets = len(structures)
        d = len(sizes)
        self.d = d
        self.sizes = np.asarray(sizes, dtype=np.int64)
        self.orders = np.array([st.order for st in structures], dtype=np.int64)
        depth = max((len(p) for st in structures for p in st.parents), default=0)
        padded = np.array(
            [[p + (-1,) * (depth - len(p)) for p in st.parents] for st in structures],
            dtype=np.int64,
        ).reshape(nets, d, depth)
        used = padded >= 0
        parent_sizes = np.where(used, self.sizes[padded], 1)
        suffix = np.ones((nets, d, depth + 1), dtype=np.int64)
        suffix[:, :, :depth] = np.cumprod(parent_sizes[:, :, ::-1], axis=2)[:, :, ::-1]
        self.parent_cols = np.where(used, padded, 0)
        self.combo_strides = suffix[:, :, 1:] * used
        self.n_combos = suffix[:, :, 0].ravel()
        self.arity = np.tile(self.sizes, nets)
        self.cell_start = _starts(self.n_combos * self.arity)
        self.row_start = _starts(self.n_combos)
        self.counts = None
        self.probs = None
        self._cumulative = None

    def count(self, values):
        """Cell counts of every table of a ``(B, n, d)`` batch, from one
        ``bincount``."""
        nets, _, d = values.shape
        codes = values + self.cell_start[:-1].reshape(nets, 1, d)
        for j in range(self.parent_cols.shape[2]):
            parent_values = np.take_along_axis(values, self.parent_cols[:, None, :, j], axis=2)
            codes += parent_values * (self.combo_strides[:, None, :, j] * self.sizes)
        return np.bincount(codes.ravel(), minlength=self.cell_start[-1]).astype(float)

    def privatize(self, counts, epsilon, streams):
        """Laplace-noised counts clamped at zero; table c of network b
        draws from ``streams[b * d + c]``."""
        scale = (self.d * 2.0) / epsilon
        noise = [
            g.laplace(0.0, scale, size=cells)
            for cells, g in zip(np.diff(self.cell_start).tolist(), streams)
        ]
        return np.maximum(counts + np.concatenate(noise), 0.0)

    def _rows(self):
        """Flat index of the first cell, and the arity, of every row."""
        table = np.repeat(np.arange(len(self.arity)), self.n_combos)
        within = np.arange(self.row_start[-1]) - self.row_start[table]
        return self.cell_start[table] + within * self.arity[table], self.arity[table]

    def set_counts(self, counts):
        """Store the final cell counts and their normalized rows."""
        self.counts = counts
        self.probs = self.normalize(counts)

    def normalize(self, counts):
        """``_normalize_rows`` of every table, bit for bit.

        Rows are normalized in groups of equal arity, each a
        ``(rows, arity)`` array, so every row total is the contiguous sum
        a single table takes; zero-padding rows to one width would change
        numpy's pairwise sums of rows with 8 or more cells.
        """
        first, arity = self._rows()
        probs = np.empty_like(counts)
        for a in np.unique(self.sizes).tolist():
            cells = first[arity == a][:, None] + np.arange(a)
            probs[cells] = _normalize_rows(counts[cells], a)
        return probs

    def cumulative(self):
        """Cumulative row probabilities, zero-padded to the widest arity
        and stored level-major: entry ``[level, row]``.

        Padding repeats a row's last cumulative value, so it can only
        add picks past the row's last level, which sampling clamps to
        that level anyway.
        """
        if self._cumulative is None:
            first, arity = self._rows()
            width = np.arange(int(self.sizes.max()))
            cells = np.where(width < arity[:, None], first[:, None] + width, len(self.probs))
            cum = np.append(self.probs, 0.0)[cells].cumsum(axis=1)
            self._cumulative = np.ascontiguousarray(cum.T)
        return self._cumulative

    def sample(self, nets, n, streams):
        """Ancestral samples, ``(len(nets), n, d)``, of the given networks.

        Network i draws every uniform up front with
        ``streams[i].random((d, n))``, whose row k is the k-th
        ``random(n)`` call of a column-by-column sampler.  Step k samples
        the k-th column of every network's visit order at once: gather
        each record's cumulative row, count the entries ``<= u``, clamp
        to the column's last level.
        """
        k = len(nets)
        d = self.d
        cum = self.cumulative()
        u = np.empty((k, d, n))
        for i, g in enumerate(streams):
            g.random(out=u[i])
        values = np.zeros((k, d, n), dtype=np.int64)
        each = np.arange(k)
        orders = self.orders[nets]
        row_start = self.row_start[:-1].reshape(-1, d)[nets]
        parent_cols = self.parent_cols[nets]
        strides = self.combo_strides[nets]
        for step in range(d):
            cols = orders[:, step]
            rows = row_start[each, cols][:, None]
            for j in range(parent_cols.shape[2]):
                pv = values[each, parent_cols[each, cols, j]]
                rows = rows + pv * strides[each, cols, j][:, None]
            picked = (np.take(cum, rows, axis=1) <= u[:, step]).sum(axis=0)
            values[each, cols] = np.minimum(picked, self.sizes[cols][:, None] - 1)
        return np.ascontiguousarray(values.transpose(0, 2, 1))

    def cpts(self, b, structure):
        """Network b's tables, one ``Cpt`` per column, as views."""
        sizes = self.sizes.tolist()
        out = []
        for c, parents in enumerate(structure.parents):
            t = b * self.d + c
            lo, hi = self.cell_start[t : t + 2].tolist()
            shape = (int(self.n_combos[t]), sizes[c])
            out.append(
                Cpt(
                    parents,
                    tuple(sizes[p] for p in parents),
                    self.counts[lo:hi].reshape(shape),
                    self.probs[lo:hi].reshape(shape),
                )
            )
        return tuple(out)


def _spans(weights):
    """Consecutive ``(lo, hi)`` ranges of items whose weights sum to at
    most ``BATCH_ELEMENTS``; an item heavier than that is a range alone."""
    spans = []
    lo = total = 0
    for i, w in enumerate(weights):
        if i > lo and total + w > BATCH_ELEMENTS:
            spans.append((lo, i))
            lo, total = i, 0
        total += w
    spans.append((lo, len(weights)))
    return spans


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
    batch = _TableBatch(training.schema.sizes, [structure])
    batch.set_counts(batch.count(training.values[None]) + smoothing)
    return batch.cpts(0, structure)


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
    sizes = tuple(cpt.probs.shape[1] for cpt in tables)
    structure = Structure(
        order=tuple(range(len(tables))), parents=tuple(cpt.parents for cpt in tables)
    )
    batch = _TableBatch(sizes, [structure])
    counts = np.concatenate([cpt.counts.ravel() for cpt in tables])
    streams = Streams(derive_many(seed, "privatize-col", np.arange(len(tables))))
    batch.set_counts(batch.privatize(counts, epsilon, streams))
    return batch.cpts(0, structure)


def fit_batch(spec, schema, values, seeds, target_hint=None):
    """Fit a ``spec`` generator on every training set of a batch.

    ``values`` is a ``(B, n, d)`` int64 array of ``schema`` records:
    training set i is ``values[i]``, fit with ``seeds[i]``.  Each stage
    is one pass over the batch, in chunks whose intermediates stay
    within ``BATCH_ELEMENTS``, and every network gets the bits it would
    get fit alone.  Toy fits record membership of ``target_hint`` in
    each training set.
    """
    if values.ndim != 3 or values.shape[2] != schema.ncols:
        raise DomainError(f"expected a (B, n, {schema.ncols}) batch, got shape {values.shape}")
    if len(values) != len(seeds):
        raise DomainError("fit_batch needs one seed per training set")
    if spec.kind == TOY:
        return _fit_toys(spec, schema, values, target_hint)
    return _fit_networks(spec, schema, values, seeds)


def _fit_toys(spec, schema, values, target_hint):
    if target_hint is None:
        raise FitError("toy generator requires a target_hint record")
    data_mod.validate_record(schema, target_hint)
    x = np.asarray(target_hint, dtype=np.int64)
    # Column by column: each test is a (B, n) array, a d-th of values.
    member = values[:, :, 0] == x[0]
    for c in range(1, len(x)):
        member &= values[:, :, c] == x[c]
    return [FittedGenerator(spec, schema, toy_member=m) for m in member.any(axis=1).tolist()]


def _fit_networks(spec, schema, values, seeds):
    """Fit one network per training set of a ``(B, n, d)`` batch."""
    n = values.shape[1]
    if n == 0:
        raise FitError(f"{spec.kind} generator requires non-empty training data")
    d = schema.ncols
    widest = max(schema.sizes)
    # The streams of every chunk are opened at once: network b orders its
    # columns from derive(seeds[b], "structure") and noises table c from
    # derive(derive(seeds[b], "privatize"), "privatize-col", c).
    if spec.kind != INDEPENDENT:
        order_streams = Streams(derive_many(seeds, "structure"))
    if spec.kind == PRIVBAYNET:
        noise_seeds = derive_many(seeds, "privatize")[:, None]
        noise_streams = Streams(derive_many(noise_seeds, "privatize-col", np.arange(d)).ravel())
    gens = []
    for lo, hi in _spans([n * d * max(d - 1, 1)] * len(values)):
        chunk = values[lo:hi]
        if spec.kind == INDEPENDENT:
            structures = [Structure(order=tuple(range(d)), parents=((),) * d)] * (hi - lo)
        else:
            structures = _learn_structures(
                chunk, schema.sizes, spec.max_parents, order_streams[lo:hi], spec.mi_floor
            )
        # Table chunks are weighed by their rows at the widest arity,
        # the size of the padded cumulative table sampling builds.
        weights = [n * d + widest * _n_rows(schema.sizes, st) for st in structures]
        for tlo, thi in _spans(weights):
            batch = _TableBatch(schema.sizes, structures[tlo:thi])
            counts = batch.count(chunk[tlo:thi]) + spec.smoothing
            if spec.kind == PRIVBAYNET:
                streams = noise_streams[(lo + tlo) * d : (lo + thi) * d]
                counts = batch.privatize(counts, spec.epsilon, streams)
            batch.set_counts(counts)
            gens += [
                FittedGenerator(spec, schema, st, packed=(batch, b))
                for b, st in enumerate(structures[tlo:thi])
            ]
    return gens


def _n_rows(sizes, structure):
    """Table rows of a network: one per parent combination per column."""
    rows = 0
    for parents in structure.parents:
        combos = 1
        for p in parents:
            combos *= sizes[p]
        rows += combos
    return rows


def fit(spec, training, target_hint=None, seed=0):
    """Fit a generator described by ``spec`` on ``training``.

    The toy kind ignores the training distribution entirely: it only
    records whether ``target_hint`` (required for it) appears in the
    training data, so an empty training dataset is acceptable.  The
    other kinds require a non-empty training dataset.  A batch of one
    of ``fit_batch``.
    """
    return fit_batch(spec, training.schema, training.values[None], [seed], target_hint)[0]


def sample_batch(gens, n, seeds):
    """``sample(gens[i], n, seeds[i])`` for every i.

    Networks fit in one batch are sampled together (see
    ``_TableBatch.sample``), in chunks whose intermediates stay within
    ``BATCH_ELEMENTS``.
    """
    if len(gens) != len(seeds):
        raise DomainError("sample_batch needs one seed per generator")
    return _sample(gens, n, Streams(seeds))


def _sample(gens, n, streams):
    """``n`` records of every generator, generator i drawn from ``streams[i]``."""
    if n < 0:
        raise DomainError("sample size must be non-negative")
    if n == 0:
        return [
            data_mod.Dataset(g.schema, np.empty((0, g.schema.ncols)), validate=False)
            for g in gens
        ]
    if any(g.spec.kind == TOY for g in gens):
        raise UnsupportedOperationError("toy generator does not sample records")
    out = [None] * len(gens)
    groups = {}
    for i, g in enumerate(gens):
        groups.setdefault(id(g.packed[0]), []).append(i)
    for idx in groups.values():
        batch = gens[idx[0]].packed[0]
        weight = n * (int(batch.sizes.max()) + 2 * batch.d)
        for lo, hi in _spans([weight] * len(idx)):
            sub = idx[lo:hi]
            values = batch.sample(
                [gens[i].packed[1] for i in sub], n, [streams[i] for i in sub]
            )
            for i, v in zip(sub, values):
                out[i] = data_mod.Dataset(gens[i].schema, v, validate=False)
    return out


def sample(gen, n, seed):
    """Draw ``n`` records by ancestral sampling.

    The toy kind releases a bit, not records, so asking it for a
    non-empty sample raises UnsupportedOperationError; ``n == 0``
    returns an empty dataset for any kind.  A batch of one of
    ``sample_batch``, drawn from ``rng(seed)``.
    """
    return _sample([gen], n, [rng(seed)])[0]


def release_bits(gens, seeds):
    """Each toy generator's release: 1 w.p. p_in for a member fit, p_out else."""
    return _release_bits(gens, Streams(seeds))


def _release_bits(gens, streams):
    for gen in gens:
        if gen.spec.kind != TOY:
            raise UnsupportedOperationError(
                f"{gen.spec.kind} generator does not release a bit"
            )
    return [
        int(g.random() < (gen.spec.p_in if gen.toy_member else gen.spec.p_out))
        for gen, g in zip(gens, streams)
    ]


def release_bit(gen, seed):
    """The toy generator's release; a batch of one of ``release_bits``,
    drawn from ``rng(seed)``."""
    return _release_bits([gen], [rng(seed)])[0]
