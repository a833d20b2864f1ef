"""Synthetic data generators with a shared fit/sample interface.

Four kinds: independent per-column marginals, a Bayesian network with
greedy structure search, the same network with Laplace-noised tables,
and an analytic toy whose release is a single bit.  The toy exists so
game-level estimates can be checked against closed-form error rates;
the network kinds are the objects actually under evaluation.

A game fits and samples hundreds of networks per evaluated record, each
on tables of a few dozen cells, so networks are fit and sampled in
batches.  ``fit_batch`` takes one spec, one schema and the training sets
as one ``(B, n, d)`` array, of the schema's narrow dtype in every game,
which it slices into chunks and never copies; the fit stages promote
its values to int64 codes.  It learns every structure at the call and
hands the networks over one table chunk at a time, and a network chunk
is its ``_TableBatch``: the flat tables of its networks, with their
``schema``, and ``len()`` its network count.  ``score_chunks`` scores
each chunk before the next one's tables are built, so a batch holds one
chunk's tables.  ``sample_columns`` draws the releases of a chunk's
networks as one ``(k, d, n)`` array of narrow unsigned columns, and no
release becomes a ``Dataset``.  Each fit stage is one function over the
whole batch, a fixed number of array passes: ``learn_structure`` scores
only the column pairs each network's visit order reads, from one
``bincount``, and ranks every network's candidate parents with one
stable ``argsort``; ``estimate_tables`` counts every column of every
network with one more ``bincount``; ``privatize_tables`` noises them;
and sampling draws one column of every network per step.  Orders and
parents are ``(B, d)`` and ``(B, d, K)`` arrays.  Each network
gets exactly the bits of the per-network definitions in
``tests/reference.py`` (``reference_mutual_information`` per column
pair, a ``ravel_multi_index`` count per column, ancestral sampling
column by column).  Pair MI terms, table row totals and pair marginals
are each one ``_segment_sums`` call over the batch, in numpy's order,
which only ``_segment_groups`` encodes.  Each fit stage holds its
inputs and outputs and at most one more cell-sized float array: the
pair counts beside the joint, the counts normalized in place into
``probs`` beside their row totals repeated to every cell, and ``probs``
beside the cumulative table that replaces it.  The per-network seeds of a
batch come from ``seeds.derive_many``, and its random streams (Laplace
noise, sampling uniforms) are opened once per batch call by
``seeds.Streams``, a single network's as a ``Streams`` of one.  A
network's visit order is the first ``permutation(d)`` of its structure
stream and a toy release the first ``random()`` of its stream, which
``Streams.permutations`` and ``Streams.randoms`` compute for the whole
batch without a Generator.  A toy fit is nothing but its release
probability, and a toy chunk its array of them: ``toy_fits``, the only
way to make one, turns membership flags into a float64 array of
``p_in`` and ``p_out``.  Every game passes it its rounds' secret bits,
which equal the flags by construction, without building the training
sets at all; ``fit_batch`` refuses a toy spec.
"""

import functools
from dataclasses import dataclass

import numpy as np

from . import data as data_mod
from .errors import DomainError, FitError, UnsupportedOperationError
from .seeds import Streams, derive_many

INDEPENDENT = "independent"
BAYNET = "baynet"
PRIVBAYNET = "privbaynet"
TOY = "toy"

KINDS = (INDEPENDENT, BAYNET, PRIVBAYNET, TOY)

# Most array elements one batched intermediate may hold: batches are
# fit, sampled and featurized in chunks within it (``batch_size``).
# On a 2-core x86 host, 2^16 runs a README ``run`` command about 12%
# faster than 2^15 now that releases are sampled as narrow columns, with
# peak RSS within 0.4 MB of the former int64 sampler's at 2^15.
BATCH_ELEMENTS = 1 << 16


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


def _concat(parts):
    return np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)


# numpy sums a contiguous run of fewer than this many floats left to
# right, and a longer one pairwise (its ``pairwise_sum``).
_PAIRWISE = 8


def _segment_groups(starts, lengths, steps=1):
    """Group segments by how numpy sums them, for ``_segment_sums``.

    Segment i is the ``lengths[i]`` cells from ``starts[i]``, ``steps[i]``
    apart.  numpy sums a contiguous one (step 1) of ``_PAIRWISE`` cells or
    more pairwise, and any other left to right.  One ``argsort`` of the
    lengths, negated where left to right, groups them: a group is its
    segments, their cells as a ``(k, L)`` gather if pairwise or ``(L, k)``
    if not, and the rule.  A lone left-to-right segment is gathered twice,
    as numpy would sum a gather of one pairwise.  Empty ones are in none.
    Groups of at most ``BATCH_ELEMENTS`` cells (or one segment) are
    yielded one at a time, so a one-off sum gathers no more than that.
    """
    if not len(lengths):
        return
    steps = np.asarray(steps)
    key = np.where((steps == 1) & (lengths >= _PAIRWISE), lengths, -lengths)
    order = np.argsort(key)
    ordered = key[order]
    cuts = (np.flatnonzero(ordered[1:] != ordered[:-1]) + 1).tolist()
    for lo, hi in zip([0] + cuts, cuts + [len(order)]):
        k = int(ordered[lo])
        for at in range(lo, hi, batch_size(abs(k))):
            sel = order[at : min(at + batch_size(abs(k)), hi)]
            if k > 0:
                yield sel, starts[sel, None] + np.arange(k), True
            elif k:
                sel = np.repeat(sel, 2) if len(sel) == 1 else sel
                step = steps[sel] if steps.ndim else steps
                yield sel, np.arange(-k)[:, None] * step + starts[sel], False


def _segment_sums(cells, groups, count):
    """numpy's sum of each of ``count`` segments of ``cells`` along axis 0,
    bit for bit, from their ``_segment_groups``: ``(count,)`` sums of
    ``(C,)`` cells, ``(count, B)`` of ``(C, B)``; one in no group is 0.0."""
    sums = np.zeros((count, *cells.shape[1:]))
    for sel, gather, pairwise in groups:
        taken = cells.take(gather, axis=0)
        if pairwise:
            # numpy sums pairwise only along a contiguous last axis.
            sums[sel] = np.ascontiguousarray(taken.swapaxes(1, -1)).sum(axis=-1)
        else:
            sums[sel] = taken.sum(axis=0)
    return sums


class _PairPlan:
    """Index plan for the joint tables of every ordered column pair.

    Ordered pair ``p = (a, b)`` owns the row-major ``(sizes[a], sizes[b])``
    block at ``bounds[p]`` of one flat table, so a single ``bincount``
    counts every pair.  The marginals live in one flat vector: pair p's
    row sums (``pa``) then its column sums (``pb``).  A row is a block's
    contiguous run of ``sizes[b]`` cells and a column its ``sizes[a]``
    cells ``sizes[b]`` apart; ``marg_groups`` groups these ``nmarg``
    segments once per schema, so ``_segment_sums`` reduces them as
    ``joint.sum(axis=1)`` / ``joint.sum(axis=0)`` reduce one block.  That
    makes the MI values bit-identical to the per-pair definition,
    ``reference_mutual_information`` in ``tests/reference.py``.

    ``bounds[p]:bounds[p + 1]`` are the cell bounds of pair p; every
    cell also knows its row-sum and column-sum slots in the marginals.
    """

    def __init__(self, sizes):
        d = len(sizes)
        pairs = [(a, b) for a in range(d) for b in range(d) if a != b]
        self.a_cols = np.array([a for a, _ in pairs], dtype=np.int64)
        self.b_cols = np.array([b for _, b in pairs], dtype=np.int64)
        self.b_sizes = np.array([sizes[b] for _, b in pairs], dtype=np.int64)
        bounds = [0]
        segments = []  # (start, length, step) of each marginal, by slot
        cell_row, cell_col = [], []
        for a, b in pairs:
            sa, sb = sizes[a], sizes[b]
            cell_row.append(np.repeat(len(segments) + np.arange(sa, dtype=np.int64), sb))
            cell_col.append(np.tile(len(segments) + sa + np.arange(sb, dtype=np.int64), sa))
            segments += [(bounds[-1] + i * sb, sb, 1) for i in range(sa)]
            segments += [(bounds[-1] + j, sa, sb) for j in range(sb)]
            bounds.append(bounds[-1] + sa * sb)
        self.ncells = bounds[-1]
        self.bounds = np.array(bounds, dtype=np.int64)
        self.nmarg = len(segments)
        self.cell_row = _concat(cell_row)
        self.cell_col = _concat(cell_col)
        segments = np.array(segments, dtype=np.int64).reshape(-1, 3).T
        self.marg_groups = list(_segment_groups(*segments))


# A plan depends only on the column sizes.  A command fits one schema, so
# only the last schema's plan is kept: a wide schema's takes megabytes.
_pair_plan = functools.lru_cache(maxsize=1)(_PairPlan)


def _column_rows(values):
    """A ``(B, n, d)`` batch as ``(B * d, n)`` rows: row ``b * d + c``
    holds column c of training set b, contiguous."""
    nets, n, d = values.shape
    return values.transpose(0, 2, 1).reshape(nets * d, n)


def _pair_counts(batch, plan, reads):
    """``_pair_information``'s int64 counts; its codes die with the call."""
    nets, _, d = batch.shape
    net, pair = np.nonzero(reads.reshape(nets, len(plan.a_cols)))
    # Each read pair's two columns as contiguous rows of n values.
    by_col = _column_rows(batch)
    codes = by_col[net * d + plan.a_cols[pair]] * plan.b_sizes[pair, None]
    codes += by_col[net * d + plan.b_cols[pair]]
    codes += (net * plan.ncells + plan.bounds[pair])[:, None]
    return np.bincount(codes.ravel(), minlength=nets * plan.ncells)


def _pair_information(values, plan, reads):
    """Bit-identical mutual information terms of the ordered pairs each
    network reads.

    ``values`` is one ``(n, d)`` training table or a ``(B, n, d)`` batch
    of them, and ``reads`` the ``(P,)`` or ``(B, P)`` mask of the plan's
    pairs each reads.  One ``bincount`` counts the read pair tables of
    every network; network b's cells sit at offset ``b * plan.ncells``.
    Returns the flat array of nonzero-cell MI terms and, with the
    leading shape of ``values``, the bounds of each pair's contiguous
    slice: pair p of network b is ``terms[bounds[b, p] : bounds[b, p +
    1]]``, empty unless b reads p, and its MI is ``np.add.reduce`` of
    that slice, the same sum the per-pair definition
    (``reference_mutual_information`` in ``tests/reference.py``) takes.

    Every network's marginals come from one ``_segment_sums`` of the
    cell-major ``(plan.ncells, B)`` joint over the plan's groups, a
    slot-major ``(plan.nmarg, B)`` array.  The counts and the joint are
    freed before the terms are computed, in one buffer.
    """
    batch = values.reshape(-1, *values.shape[-2:])
    nets, n, _ = batch.shape
    width = plan.ncells
    counts = _pair_counts(batch, plan, reads)
    by_cell = np.empty((width, nets))
    np.divide(counts.reshape(nets, width).T, n, out=by_cell)
    nz = np.flatnonzero(counts)
    pj = counts[nz] / n
    del counts
    marg = _segment_sums(by_cell, plan.marg_groups, plan.nmarg).ravel()
    del by_cell
    bounds = np.searchsorted(nz, np.arange(nets, dtype=np.int64)[:, None] * width + plan.bounds)
    net, cell = np.divmod(nz, width)
    del nz
    # pj * log(pj / (pa * pb)), one operation at a time in ``terms``.
    terms = marg[plan.cell_row[cell] * nets + net]
    terms *= marg[plan.cell_col[cell] * nets + net]
    np.divide(pj, terms, out=terms)
    np.log(terms, out=terms)
    np.multiply(pj, terms, out=terms)
    return terms, bounds.reshape(*values.shape[:-2], len(plan.bounds))


def learn_structure(values, sizes, max_parents, orders, mi_floor):
    """Greedy Bayesian-network structure of every network of a
    ``(B, n, d)`` batch, network b visiting its columns in ``orders[b]``.

    Each column picks up to ``max_parents`` columns visited before it,
    ranked by empirical pairwise mutual information with the child,
    skipping candidates whose score falls below ``mi_floor``; the visit
    order doubles as the sampling order.  Returns each column's parents,
    best first, as a ``(B, d, min(max_parents, d - 1))`` array padded
    with -1.

    The MI of every pair the search reads comes from one pass over the
    data (see ``_PairPlan``) and equals ``reference_mutual_information``
    in ``tests/reference.py`` bit for bit.  One stable ``argsort`` of -MI
    ranks every candidate, one below ``mi_floor`` or not visited earlier
    keyed +inf; equal keys keep the lower column first, the per-network
    search's tie rule.
    """
    nets, _, d = values.shape
    plan = _pair_plan(sizes)
    step = np.argsort(orders, axis=1)  # the step that visits each column
    reads = step[:, plan.a_cols] > step[:, plan.b_cols]
    terms, bounds = _pair_information(values, plan, reads)
    groups = _segment_groups(bounds[:, :-1].ravel(), np.diff(bounds).ravel())
    mi = _segment_sums(terms, groups, reads.size).reshape(reads.shape)
    key = np.full((nets, d, d), np.inf)
    key[:, plan.a_cols, plan.b_cols] = np.where(reads & (mi >= mi_floor), -mi, np.inf)
    ranked = np.argsort(key, axis=2, kind="stable")
    eligible = np.count_nonzero(key < np.inf, axis=2)
    parents = ranked[:, :, : min(max_parents, d - 1)]
    parents[np.arange(parents.shape[2]) >= eligible[:, :, None]] = -1
    return parents


def _starts(lengths):
    return np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64)


class _TableBatch:
    """A chunk of fitted networks of one ``schema``: their conditional
    probability tables, from their ``(B, d)`` visit orders and
    ``(B, d, K)`` parents padded with -1.  ``len()`` is B.

    Table ``t = b * d + c`` is column c of network b: its
    ``(n_combos[t], arity[t])`` cells are the block at ``cell_start[t]``
    of the flat cell arrays (the counts that ``estimate_tables`` and
    ``privatize_tables`` return, and ``probs``), laid out exactly as the
    per-column table raveled, and its rows are batch rows
    ``row_start[t]`` onward.  A record falls in row ``row_start[t]``
    plus ``sum_j value[parent_cols[b, c, j]] * combo_strides[b, c, j]``,
    the row-major parent combination ``ravel_multi_index`` computes;
    unused parent slots have stride 0.

    The one row layout: batch row r is the ``row_arity[r]`` cells from
    ``row_first[r]``.  Row totals and the cumulative table both read it.

    ``probs`` is None once ``cumulative()`` has built the table that
    sampling reads from it, so a sampled chunk keeps only that table.
    """

    def __init__(self, schema, orders, parents):
        nets, d, depth = parents.shape
        self.schema = schema
        self.d = d
        self.sizes = np.asarray(schema.sizes, dtype=np.int64)
        self.orders = orders
        self.parents = parents
        used = parents >= 0
        parent_sizes = np.where(used, self.sizes[parents], 1)
        suffix = np.ones((nets, d, depth + 1), dtype=np.int64)
        suffix[:, :, :depth] = np.cumprod(parent_sizes[:, :, ::-1], axis=2)[:, :, ::-1]
        self.parent_cols = np.where(used, parents, 0)
        self.combo_strides = suffix[:, :, 1:] * used
        self.n_combos = suffix[:, :, 0].ravel()
        self.arity = np.tile(self.sizes, nets)
        self.cell_start = _starts(self.n_combos * self.arity)
        self.row_start = _starts(self.n_combos)
        self.row_arity = np.repeat(self.arity, self.n_combos)
        self.row_first = _starts(self.row_arity)[:-1]
        self.probs = None
        self._cumulative = None

    def __len__(self):
        return len(self.orders)

    def set_counts(self, counts, overflow):
        """Normalize the final cell counts in place into ``probs``: each
        row divided by its total, or uniform if the total is zero.  A row
        whose total is not finite raises FitError naming the cause,
        ``overflow``, before any count is written."""
        groups = _segment_groups(self.row_first, self.row_arity)
        with np.errstate(over="ignore"):
            totals = _segment_sums(counts, groups, len(self.row_arity))
        if not np.isfinite(totals).all():
            raise FitError(f"a table row's total is not finite: {overflow}")
        empty = totals <= 0  # uniform: 1.0 in each cell over the arity
        if empty.any():
            totals[empty] = self.row_arity[empty]
            counts[np.repeat(empty, self.row_arity)] = 1.0
        counts /= np.repeat(totals, self.row_arity)
        self.probs = counts

    def cumulative(self):
        """Cumulative row probabilities of every level but the widest
        arity's last, zero-padded to that width and stored level-major:
        entry ``[level, row]``, summed down the level axis, the same
        left-to-right additions a cumulative sum along one row makes.
        Computed at the first call, from the probabilities at that time,
        one level at a time, so that building it holds nothing but the
        table, ``probs`` and one level's temporaries; ``probs`` is dropped
        once it is built.

        Padding repeats a row's last cumulative value, so it can only
        add picks past the row's last level, which sampling clamps to
        that level anyway; for the same reason no last level is needed.
        """
        if self._cumulative is None:
            cum = np.empty((int(self.sizes.max()) - 1, len(self.row_arity)))
            for level, out in enumerate(cum):
                # Padding cells read 0.0; clipping keeps their index in range.
                probs = self.probs.take(self.row_first + level, mode="clip")
                probs[level >= self.row_arity] = 0.0
                if level:
                    np.add(cum[level - 1], probs, out=out)
                else:
                    out[:] = probs
            self._cumulative = cum
            self.probs = None
        return self._cumulative

    def sample(self, nets, n, streams):
        """Ancestral samples of the given networks as ``(len(nets), d, n)``
        columns, of the narrowest unsigned dtype that holds widest arity - 1.

        Network i draws every uniform up front with
        ``streams[i].random((d, n))``, whose row k is the k-th
        ``random(n)`` call of a column-by-column sampler.  Step k samples
        the k-th column of every network's visit order at once: gather
        each record's cumulative row, count the entries ``<= u``, clamp
        to the column's last level.  The steps' row starts, parent rows
        and strides are gathered once; step k reads at most k parent
        slots, a narrow value times an int64 stride promoting to int64.
        With no last level (see ``cumulative``), a record has at most
        widest arity - 1 hits, counted in the values' own dtype.
        """
        k = len(nets)
        d = self.d
        cum = self.cumulative()
        dtype = np.min_scalar_type(len(cum))
        u = np.empty((k, d, n))
        for i, g in enumerate(streams):
            g.random(out=u[i])
        values = np.zeros((k * d, n), dtype=dtype)
        nets = np.asarray(nets)[:, None]
        orders = self.orders[nets[:, 0]]
        # Indexed by step first: the rows of values each step reads and writes.
        first = np.arange(k)[:, None] * d
        dest = (first + orders).T
        parent_rows = (self.parent_cols[nets, orders] + first[:, :, None]).transpose(1, 2, 0)
        strides = self.combo_strides[nets, orders].transpose(1, 2, 0)[..., None]
        starts = self.row_start[nets * d + orders].T[..., None]
        clamp = (self.sizes[orders] - 1).T[..., None].astype(dtype)
        for step in range(d):
            rows = starts[step]
            for j in range(min(step, parent_rows.shape[1])):
                rows = rows + values[parent_rows[step, j]] * strides[step, j]
            hits = (np.take(cum, rows, axis=1) <= u[:, step]).sum(axis=0, dtype=dtype)
            values[dest[step]] = np.minimum(hits, clamp[step])
        return values.reshape(k, d, n)


def _spans(weights):
    """Consecutive ``(lo, hi)`` ranges of items whose weights sum to at
    most ``BATCH_ELEMENTS``; an item heavier than that is a range alone.
    No items make no ranges."""
    spans = []
    lo = total = 0
    for i, w in enumerate(weights):
        if i > lo and total + w > BATCH_ELEMENTS:
            spans.append((lo, i))
            lo, total = i, 0
        total += w
    return spans + [(lo, len(weights))] if weights else spans


def batch_size(weight):
    """How many items of ``weight`` elements each one chunk holds: as many
    as fit in ``BATCH_ELEMENTS``, and at least one."""
    return max(1, BATCH_ELEMENTS // max(1, weight))


def estimate_tables(batch, values, smoothing):
    """Maximum-likelihood cell counts, plus ``smoothing``, of every table
    of ``batch`` over its networks' ``(B, n, d)`` training sets.

    Every column of every network is counted by one ``bincount``: table
    t is the block at ``batch.cell_start[t]``, and a record's cell in it
    is the C-order index ``combo * arity + value`` with ``combo`` the
    row-major index of the parent values, the integer
    ``ravel_multi_index`` computes.  The codes are built in place on the
    ``(B * d, n)`` column rows by Horner's rule, table t's from its
    parents' rows (an unused slot reads a row of zeros and has size 1)
    and then row t; counting integer codes gives the same counts in any
    order.  Rows whose total is zero (an unseen parent combination with
    zero smoothing) normalize to uniform.
    """
    nets, n, d = values.shape
    by_col = np.zeros((nets * d + 1, n), dtype=values.dtype)
    by_col[:-1] = _column_rows(values)
    used = batch.parents >= 0
    rows = np.where(used, batch.parent_cols + np.arange(0, nets * d, d)[:, None, None], nets * d)
    after = np.where(used, batch.sizes[batch.parent_cols], 1)
    after = np.concatenate([after[:, :, 1:], batch.arity.reshape(nets, d, 1)], axis=2)
    codes = np.zeros((nets * d, n), dtype=np.int64)
    for j in range(rows.shape[2]):
        codes += by_col[rows[:, :, j].ravel()]
        codes *= after[:, :, j].reshape(-1, 1)
    codes += by_col[:-1]
    codes += batch.cell_start[:-1, None]
    counts = np.bincount(codes.ravel(), minlength=batch.cell_start[-1])
    del codes
    return np.add(counts, smoothing, dtype=float)


def privatize_tables(batch, counts, epsilon, streams):
    """Laplace-noised ``counts`` of every table of ``batch``, clamped at
    zero; table c of network b draws from ``streams[b * d + c]``.

    The budget is split equally across columns, and each count has
    sensitivity 2 under replacement of one training record, so the
    noise scale is ``(d * 2) / epsilon``.  Rows that become all-zero
    normalize to uniform; the structure is left untouched.
    """
    scale = (batch.d * 2.0) / epsilon
    cells = np.diff(batch.cell_start).tolist()
    noised = _concat([g.laplace(0.0, scale, size=c) for c, g in zip(cells, streams)])
    noised += counts
    return np.maximum(noised, 0.0, out=noised)


def _out_of_memory(cells, widest, tables="table"):
    return FitError(
        f"out of memory on a fit chunk of {int(cells)} {tables} cells (widest arity {widest})"
    )


def _fit_tables(spec, schema, values, orders, parents, noise_streams, overflow):
    """The ``_TableBatch`` of one table chunk: its networks' tables from
    their training sets ``values``, visit orders and parents, noised from
    ``noise_streams`` (one per table) for privbaynet."""
    try:
        batch = _TableBatch(schema, orders, parents)
        counts = estimate_tables(batch, values, spec.smoothing)
        if spec.kind == PRIVBAYNET:
            counts = privatize_tables(batch, counts, spec.epsilon, noise_streams)
        batch.set_counts(counts, overflow)
    except MemoryError:
        sizes = np.array(schema.sizes)
        cells = (np.where(parents >= 0, sizes[parents], 1).prod(2) * sizes).sum()
        raise _out_of_memory(cells, max(schema.sizes)) from None
    return batch


def fit_batch(spec, schema, values, seeds):
    """Fit a ``spec`` network on every training set of a batch; returns
    an iterator over its table chunks, in order, each the ``_TableBatch``
    of its consecutive networks.

    ``values`` is a ``(B, n, d)`` array of ``schema`` records, of any
    integer dtype (the games build it in ``Schema.dtype``): training set
    i is ``values[i]``, fit with ``seeds[i]``.  The checks and the
    structure stage run at the call, over the whole batch in chunks whose
    intermediates stay within ``BATCH_ELEMENTS``.  Each table chunk is
    built when the iterator reaches it, so a caller that drops a chunk
    before drawing the next holds one chunk's tables at a time.  Every
    network gets the bits it would get fit alone.  A structure or table
    chunk that runs out of memory raises FitError naming its pair-table
    or table cells.  A toy fit comes from membership flags, not from
    training sets: see ``toy_fits``.
    """
    if spec.kind == TOY:
        raise UnsupportedOperationError("toy generator is not fit on training sets; use toy_fits")
    if values.ndim != 3 or values.shape[2] != schema.ncols:
        raise DomainError(f"expected a (B, n, {schema.ncols}) batch, got shape {values.shape}")
    if len(values) != len(seeds):
        raise DomainError("fit_batch needs one seed per training set")
    n = values.shape[1]
    if n == 0:
        raise FitError(f"{spec.kind} generator requires non-empty training data")
    d = schema.ncols
    widest = max(schema.sizes)
    overflow = f"smoothing = {spec.smoothing!r} is too large"
    if spec.kind == PRIVBAYNET:
        overflow = f"epsilon = {spec.epsilon!r} is too small or {overflow}"
    # Network b visits its columns in the order of the first permutation
    # of derive(seeds[b], "structure") and noises table c from
    # derive(derive(seeds[b], "privatize"), "privatize-col", c); every
    # stream is opened at once.
    if spec.kind == INDEPENDENT:
        orders = np.tile(np.arange(d), (len(values), 1))
        parents = np.empty((len(values), d, 0), dtype=np.int64)
    else:
        orders = Streams(derive_many(seeds, "structure")).permutations(d)
        parents = np.empty((len(values), d, min(spec.max_parents, d - 1)), dtype=np.int64)
        pair_cells = _pair_plan(schema.sizes).ncells
        # Structure chunks are weighed at n codes per ordered pair, though
        # only half the pairs are counted (wider chunks raise peak memory),
        # or at their pair cells if more: they hold two float arrays of them.
        size = batch_size(max(n * d * max(d - 1, 1), pair_cells))
        for lo in range(0, len(values), size):
            hi = min(lo + size, len(values))
            try:
                parents[lo:hi] = learn_structure(
                    values[lo:hi], schema.sizes, spec.max_parents, orders[lo:hi], spec.mi_floor
                )
            except MemoryError:
                raise _out_of_memory((hi - lo) * pair_cells, widest, "pair-table") from None
    noise_streams = None
    if spec.kind == PRIVBAYNET:
        noise_seeds = derive_many(seeds, "privatize")[:, None]
        noise_streams = Streams(derive_many(noise_seeds, "privatize-col", np.arange(d)).ravel())
    # Table chunks are weighed by their rows at the widest arity, the
    # size of the padded cumulative table sampling builds.
    sizes = np.array(schema.sizes)
    combos = np.where(parents >= 0, sizes[parents], 1).prod(2).sum(1)
    spans = _spans((n * d + widest * combos).tolist())
    # The chunk is yielded straight from the call, so no local keeps it
    # alive while the next one is built.
    return (
        _fit_tables(
            spec, schema, values[lo:hi], orders[lo:hi], parents[lo:hi],
            None if noise_streams is None else noise_streams[lo * d : hi * d], overflow,
        )
        for lo, hi in spans
    )


def score_chunks(score, chunks, seeds):
    """``score(fits, seeds)`` of each chunk of fits in ``chunks``, given
    the chunk's slice of ``seeds``, concatenated in order as float64.

    ``chunks`` is ``fit_batch``'s iterator or any iterable of chunks: a
    ``_TableBatch`` of networks or a ``toy_fits`` array, ``len()`` its
    fits.  A chunk is dropped before the next is drawn, so only one
    chunk's tables are alive at a time.
    """
    parts = []
    at = 0
    for fits in chunks:
        parts.append(np.asarray(score(fits, seeds[at : at + len(fits)]), dtype=np.float64))
        at += len(fits)
        del fits
    return np.concatenate(parts)


def toy_fits(spec, members):
    """The toy fit of each training set, given only whether the target
    is a member of it (``members[i]`` true or 1): its release probability,
    as one float64 array of ``spec.p_in`` where the target is a member
    and ``spec.p_out`` elsewhere."""
    if spec.kind != TOY:
        raise UnsupportedOperationError(f"{spec.kind} generator does not release a bit")
    return np.where(members, float(spec.p_in), float(spec.p_out))


def fit(spec, training, seed=0):
    """``fit_batch`` of one non-empty ``training`` set: the ``_TableBatch``
    of one network.  The toy kind reads no training data and raises
    UnsupportedOperationError: its fit is a release probability (see
    ``toy_fits``)."""
    return next(fit_batch(spec, training.schema, training.values[None], [seed]))


def sample_columns(batch, n, seeds):
    """``n`` records of every network of ``batch``, a table chunk of
    ``fit_batch``, as one ``(len(batch), d, n)`` column array: ``[i, c]``
    is column c of network i's sample drawn from ``seeds[i]``, of the
    narrowest unsigned dtype that holds every level.

    The networks are sampled together (see ``_TableBatch.sample``), in
    chunks whose intermediates stay within ``BATCH_ELEMENTS``.  Running
    out of memory raises FitError naming the batch's table cells.
    """
    if len(batch) != len(seeds):
        raise DomainError("sampling needs one seed per network")
    streams = Streams(seeds)
    if n < 0:
        raise DomainError("sample size must be non-negative")
    out = np.empty((len(batch), batch.d, n), dtype=batch.schema.dtype)
    if n == 0:
        return out
    widest = int(batch.sizes.max())
    size = batch_size(n * (widest + 2 * batch.d))
    for lo in range(0, len(batch), size):
        hi = min(lo + size, len(batch))
        try:
            out[lo:hi] = batch.sample(range(lo, hi), n, streams[lo:hi])
        except MemoryError:
            raise _out_of_memory(batch.cell_start[-1], widest) from None
    return out


def sample(gen, n, seed):
    """Draw ``n`` records of ``gen``, a fit of one network, by ancestral
    sampling, as a ``Dataset``.  A batch of one of ``sample_columns``."""
    return data_mod.Dataset(gen.schema, sample_columns(gen, n, [seed])[0].T)


def release_bits(probs, seeds):
    """Each toy fit's release, a boolean array: fit i, of release
    probability ``probs[i]`` (``toy_fits``), releases 1 when the first
    ``random()`` of the stream of ``seeds[i]`` falls below it."""
    if len(probs) != len(seeds):
        raise DomainError("release_bits needs one seed per generator")
    return Streams(seeds).randoms() < probs


def release_bit(p, seed):
    """One toy fit's release; a batch of one of ``release_bits``."""
    return int(release_bits([p], [seed])[0])
