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
copies.  ``sample_columns`` draws the releases of fitted generators of
one schema as one ``(k, d, n)`` array of narrow unsigned columns, and no
release becomes a ``Dataset``.  Each fit stage is one function over the
whole batch, a fixed number of array passes: ``learn_structure`` scores
only the column pairs each network's visit order reads, from one
``bincount``, and ranks every network's candidate parents with one
stable ``argsort``; ``estimate_tables`` counts every column of every
network with one more ``bincount``; ``privatize_tables`` noises them;
and sampling draws one column of every network per step.  Orders and
parents are ``(B, d)`` and ``(B, d, K)`` arrays, and the tables of a
chunk of networks are flat arrays of one ``_TableBatch``.  Each network
gets exactly the bits of the per-network definitions in
``tests/reference.py`` (``reference_mutual_information`` per column
pair, a ``ravel_multi_index`` count per column, ancestral sampling
column by column).  A pair's MI terms and a table row's cells are
contiguous runs, and each kind is summed by one ``_segment_sums`` call
over the batch, in numpy's own order.  The per-network seeds of a batch
come from ``seeds.derive_many``, and its random streams (Laplace
noise, sampling uniforms) are opened once per batch call by
``seeds.Streams``, a single network's as a ``Streams`` of one.  A
network's visit order is the first ``permutation(d)`` of its structure
stream and a toy release the first ``random()`` of its stream, which
``Streams.permutations`` and ``Streams.randoms`` compute for the whole
batch without a Generator.  A toy fit is nothing but its release
probability: ``toy_fits``, the only way to make one, turns membership
flags into a float64 array of ``p_in`` and ``p_out``.  Every game passes
it its rounds' secret bits, which equal the flags by construction,
without building the training sets at all; ``fit_batch`` and
``FittedGenerator`` refuse a toy spec.
"""

from dataclasses import dataclass, field

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


@dataclass(frozen=True)
class FittedGenerator:
    """A network fit on one training dataset: ``packed`` is the
    ``_TableBatch`` of the batch it was fit in and its index there.  A toy
    fit is a release probability (``toy_fits``), not one of these."""

    spec: GeneratorSpec
    schema: object
    packed: tuple = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.spec.kind == TOY:
            raise UnsupportedOperationError("a toy fit is its release probability; use toy_fits")


def _concat(parts):
    return np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)


# numpy sums a contiguous run of fewer than this many floats left to
# right, and a longer one pairwise (its ``pairwise_sum``).
_PAIRWISE = 8


class _PairPlan:
    """Index plan for the joint tables of every ordered column pair.

    Ordered pair ``p = (a, b)`` owns the row-major ``(sizes[a], sizes[b])``
    block at ``bounds[p]`` of one flat table, so a single ``bincount``
    counts every pair.  The marginals live in one flat vector: pair p's
    row sums (``pa``) then its column sums (``pb``).  They are reduced
    the way ``joint.sum(axis=1)`` / ``joint.sum(axis=0)`` reduce one
    block, which is what makes the MI values bit-identical to the
    per-pair definition, ``reference_mutual_information`` in
    ``tests/reference.py``.  numpy folds a block's columns down axis 0,
    left to right; a row is a contiguous run, summed left to right
    while it is shorter than ``_PAIRWISE`` cells and pairwise from
    there on, and so is the lone column of an ``(A, 1)`` block.  So:

    * ``folds``: the sums numpy takes left to right, grouped by length
      L as ``(L, k)`` cell gathers, each summed down its L axis;
    * ``runs``: the contiguous runs of ``_PAIRWISE`` cells or more,
      grouped by length L as ``(k, L)`` cell gathers, each reduced along
      its last axis, the same pairwise sum numpy runs per row.

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
        nmarg = 0
        cell_row, cell_col = [], []
        folds, runs = {}, {}  # length -> ([cells per sum], [marginal slots])
        for a, b in pairs:
            sa, sb = sizes[a], sizes[b]
            block = bounds[-1] + np.arange(sa * sb, dtype=np.int64).reshape(sa, sb)
            ra = nmarg + np.arange(sa, dtype=np.int64)
            cb = nmarg + sa + np.arange(sb, dtype=np.int64)
            nmarg += sa + sb
            cell_row.append(np.repeat(ra, sb))
            cell_col.append(np.tile(cb, sa))
            rows = runs if sb >= _PAIRWISE else folds
            cols = runs if sb == 1 and sa >= _PAIRWISE else folds
            for group, cells, slots in ((rows, block, ra), (cols, block.T, cb)):
                entry = group.setdefault(cells.shape[1], ([], []))
                entry[0].append(cells)
                entry[1].append(slots)
            bounds.append(bounds[-1] + sa * sb)
        self.ncells = bounds[-1]
        self.bounds = np.array(bounds, dtype=np.int64)
        self.nmarg = nmarg
        self.cell_row = _concat(cell_row)
        self.cell_col = _concat(cell_col)
        self.folds = [
            (np.ascontiguousarray(np.concatenate(cells).T), np.concatenate(slots))
            for cells, slots in folds.values()
        ]
        self.runs = [
            (np.concatenate(cells), np.concatenate(slots)) for cells, slots in runs.values()
        ]


# A plan depends only on the column sizes, so it is built at the first fit
# on a schema and shared after; threads racing on a miss build equal plans.
_PAIR_PLANS = {}


def _pair_plan(sizes):
    plan = _PAIR_PLANS.get(sizes)
    if plan is None:
        plan = _PAIR_PLANS[sizes] = _PairPlan(sizes)
    return plan


def _column_rows(values):
    """A ``(B, n, d)`` batch as ``(B * d, n)`` rows: row ``b * d + c``
    holds column c of training set b, contiguous."""
    nets, n, d = values.shape
    return values.transpose(0, 2, 1).reshape(nets * d, n)


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

    Marginals are reduced as the plan describes, every network's at
    once, into a slot-major ``(plan.nmarg, B)`` array.  A fold group is
    an ``(L, k, B)`` take of the cell-major joint, summed down axis 0:
    ``np.take`` lays it out in C order, so numpy adds its k * B sums
    elementwise, row after row (a fold group of ``_PAIRWISE`` cells or
    more holds two or more columns of one block, so it never sums a
    single contiguous run).  A run group is a ``(B, k, L)`` take of the
    network-major joint, reduced along its last, contiguous axis.
    """
    batch = values.reshape(-1, *values.shape[-2:])
    nets, n, d = batch.shape
    width = plan.ncells
    net_cells = np.arange(nets, dtype=np.int64) * width
    net, pair = np.nonzero(reads.reshape(nets, len(plan.a_cols)))
    # Each read pair's two columns as contiguous rows of n values.
    by_col = _column_rows(batch)
    codes = by_col[net * d + plan.a_cols[pair]] * plan.b_sizes[pair, None]
    codes += by_col[net * d + plan.b_cols[pair]]
    codes += (net_cells[net] + plan.bounds[pair])[:, None]
    joint = np.bincount(codes.ravel(), minlength=nets * width).astype(float)
    joint /= n
    by_net = joint.reshape(nets, width)
    by_cell = np.ascontiguousarray(by_net.T)
    marg = np.empty((plan.nmarg, nets))
    for gather, slots in plan.folds:
        marg[slots] = np.take(by_cell, gather, axis=0).sum(axis=0)
    for gather, slots in plan.runs:
        marg[slots] = np.take(by_net, gather, axis=1).sum(axis=2).T
    nz = np.flatnonzero(joint)
    pj = joint[nz]
    net, cell = np.divmod(nz, width)
    flat = marg.ravel()
    pa = flat[plan.cell_row[cell] * nets + net]
    pb = flat[plan.cell_col[cell] * nets + net]
    terms = pj * np.log(pj / (pa * pb))
    bounds = np.searchsorted(nz, net_cells[:, None] + plan.bounds)
    return terms, bounds.reshape(*values.shape[:-2], len(plan.bounds))


def _segment_sums(flat, starts, lengths):
    """``np.add.reduce(flat[s : s + L])`` of every segment, bit for bit; an
    empty segment sums to 0.0.

    Segments are grouped by length with one ``argsort``.  A group shorter
    than ``_PAIRWISE`` is an ``(L, k)`` gather folded down axis 0, the
    left-to-right sum numpy takes of a short run; a longer one is a
    ``(k, L)`` gather reduced along its last axis, numpy's pairwise sum of
    one run.
    """
    sums = np.zeros(len(lengths))
    order = np.argsort(lengths)
    ordered = lengths[order]
    firsts = np.flatnonzero(np.diff(ordered, prepend=-1)).tolist()
    for lo, hi, length in zip(firsts, firsts[1:] + [len(order)], ordered[firsts].tolist()):
        sel = order[lo:hi]
        if length >= _PAIRWISE:
            sums[sel] = flat[starts[sel, None] + np.arange(length)].sum(axis=1)
        elif length:
            sums[sel] = flat[np.arange(length)[:, None] + starts[sel]].sum(axis=0)
    return sums


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
    mi = _segment_sums(terms, bounds[:, :-1].ravel(), np.diff(bounds).ravel())
    mi = mi.reshape(reads.shape)
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
    """The conditional probability tables of a batch of networks, from
    their ``(B, d)`` visit orders and ``(B, d, K)`` parents padded with -1.

    All networks share one schema.  Table ``t = b * d + c`` is column c
    of network b: its ``(n_combos[t], arity[t])`` cells are the block at
    ``cell_start[t]`` of the flat cell arrays (the counts that
    ``estimate_tables`` and ``privatize_tables`` return, and ``probs``),
    laid out exactly as the per-column table raveled, and its rows are
    batch rows ``row_start[t]`` onward.  A record falls in row ``row_start[t]``
    plus ``sum_j value[parent_cols[b, c, j]] * combo_strides[b, c, j]``,
    the row-major parent combination ``ravel_multi_index`` computes;
    unused parent slots have stride 0.

    The one row layout: batch row r is the ``row_arity[r]`` cells from
    ``row_first[r]``.  Row totals and the cumulative table both read it.
    """

    def __init__(self, sizes, orders, parents):
        nets, d, depth = parents.shape
        self.d = d
        self.sizes = np.asarray(sizes, dtype=np.int64)
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

    def set_counts(self, counts, overflow):
        """Store the normalized rows of the final cell counts: each row
        divided by its total, or uniform if the total is zero.  A row whose
        total is not finite raises FitError naming the cause, ``overflow``.
        The counts themselves are not kept."""
        with np.errstate(over="ignore"):
            totals = _segment_sums(counts, self.row_first, self.row_arity)
        if not np.isfinite(totals).all():
            raise FitError(f"a table row's total is not finite: {overflow}")
        totals = np.repeat(totals, self.row_arity)
        uniform = np.repeat(1.0 / self.row_arity, self.row_arity)
        self.probs = np.divide(counts, totals, out=uniform, where=totals > 0)

    def cumulative(self):
        """Cumulative row probabilities of every level but the widest
        arity's last, zero-padded to that width and stored level-major:
        entry ``[level, row]``, summed down the level axis, the same
        left-to-right additions a cumulative sum along one row makes.
        Computed at the first call, from the probabilities at that time.

        Padding repeats a row's last cumulative value, so it can only
        add picks past the row's last level, which sampling clamps to
        that level anyway; for the same reason no last level is needed.
        """
        if self._cumulative is None:
            level = np.arange(int(self.sizes.max()) - 1)[:, None]
            cells = np.where(level < self.row_arity, self.row_first + level, len(self.probs))
            self._cumulative = np.append(self.probs, 0.0)[cells].cumsum(axis=0)
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
    ``ravel_multi_index`` computes.  The codes are built on the
    ``(B * d, n)`` column rows, table t's from row t plus its parents'
    rows times their strides; counting integer codes gives the same
    counts in any order.  Rows whose total is zero (an unseen parent
    combination with zero smoothing) normalize to uniform.
    """
    by_col = _column_rows(values)
    codes = by_col + batch.cell_start[:-1, None]
    rows = batch.parent_cols + np.arange(0, len(by_col), batch.d)[:, None, None]
    strides = batch.combo_strides * batch.sizes[:, None]
    for j in range(rows.shape[2]):
        codes += by_col[rows[:, :, j].ravel()] * strides[:, :, j].reshape(-1, 1)
    return np.bincount(codes.ravel(), minlength=batch.cell_start[-1]).astype(float) + smoothing


def privatize_tables(batch, counts, epsilon, streams):
    """Laplace-noised ``counts`` of every table of ``batch``, clamped at
    zero; table c of network b draws from ``streams[b * d + c]``.

    The budget is split equally across columns, and each count has
    sensitivity 2 under replacement of one training record, so the
    noise scale is ``(d * 2) / epsilon``.  Rows that become all-zero
    normalize to uniform; the structure is left untouched.
    """
    scale = (batch.d * 2.0) / epsilon
    noise = [
        g.laplace(0.0, scale, size=cells)
        for cells, g in zip(np.diff(batch.cell_start).tolist(), streams)
    ]
    return np.maximum(counts + _concat(noise), 0.0)


def _out_of_memory(cells, widest, tables="table"):
    return FitError(
        f"out of memory on a fit chunk of {int(cells)} {tables} cells (widest arity {widest})"
    )


def fit_batch(spec, schema, values, seeds):
    """Fit a ``spec`` network on every training set of a batch.

    ``values`` is a ``(B, n, d)`` int64 array of ``schema`` records:
    training set i is ``values[i]``, fit with ``seeds[i]``.  Each stage
    is one pass over the batch, in chunks whose intermediates stay
    within ``BATCH_ELEMENTS``, and every network gets the bits it would
    get fit alone.  A structure or table chunk that runs out of memory
    raises FitError naming its pair-table or table cells.  A toy fit
    comes from membership flags, not from training sets: see
    ``toy_fits``.
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
        # only half the pairs are counted: wider chunks raise peak memory.
        for lo, hi in _spans([n * d * max(d - 1, 1)] * len(values)):
            try:
                parents[lo:hi] = learn_structure(
                    values[lo:hi], schema.sizes, spec.max_parents, orders[lo:hi], spec.mi_floor
                )
            except MemoryError:
                raise _out_of_memory((hi - lo) * pair_cells, widest, "pair-table") from None
    if spec.kind == PRIVBAYNET:
        noise_seeds = derive_many(seeds, "privatize")[:, None]
        noise_streams = Streams(derive_many(noise_seeds, "privatize-col", np.arange(d)).ravel())
    # Table chunks are weighed by their rows at the widest arity, the
    # size of the padded cumulative table sampling builds.
    sizes = np.array(schema.sizes)
    combos = np.where(parents >= 0, sizes[parents], 1).prod(2)
    cells = (combos * sizes).sum(1)
    gens = []
    for lo, hi in _spans((n * d + widest * combos.sum(1)).tolist()):
        try:
            batch = _TableBatch(schema.sizes, orders[lo:hi], parents[lo:hi])
            counts = estimate_tables(batch, values[lo:hi], spec.smoothing)
            if spec.kind == PRIVBAYNET:
                counts = privatize_tables(
                    batch, counts, spec.epsilon, noise_streams[lo * d : hi * d]
                )
            batch.set_counts(counts, overflow)
        except MemoryError:
            raise _out_of_memory(cells[lo:hi].sum(), widest) from None
        gens += [FittedGenerator(spec, schema, packed=(batch, b)) for b in range(hi - lo)]
    return gens


def toy_fits(spec, members):
    """The toy fit of each training set, given only whether the target
    is a member of it (``members[i]`` true or 1): its release probability,
    as one float64 array of ``spec.p_in`` where the target is a member
    and ``spec.p_out`` elsewhere."""
    if spec.kind != TOY:
        raise UnsupportedOperationError(f"{spec.kind} generator does not release a bit")
    return np.where(members, float(spec.p_in), float(spec.p_out))


def fit(spec, training, seed=0):
    """Fit a network described by ``spec`` on ``training``, which must
    be non-empty.  The toy kind reads no training data and raises
    UnsupportedOperationError: its fit is a release probability (see
    ``toy_fits``).  A batch of one of ``fit_batch``.
    """
    return fit_batch(spec, training.schema, training.values[None], [seed])[0]


def sample_columns(gens, n, seeds):
    """``n`` records of every generator as one ``(len(gens), d, n)``
    column array: ``[i, c]`` is column c of the sample drawn from
    ``seeds[i]``, of the narrowest unsigned dtype that holds every level.

    The generators must share one schema.  Networks fit in one table
    chunk are sampled together (see ``_TableBatch.sample``), in chunks
    whose intermediates stay within ``BATCH_ELEMENTS``, and each chunk is
    written into its rows of the result.  Running out of memory raises
    FitError naming the fit chunk's table cells.
    """
    if len(gens) != len(seeds):
        raise DomainError("sampling needs one seed per generator")
    streams = Streams(seeds)
    if n < 0:
        raise DomainError("sample size must be non-negative")
    if any(g.schema != gens[0].schema for g in gens):
        raise DomainError("generators sampled together must share one schema")
    sizes = gens[0].schema.sizes if gens else ()
    out = np.empty((len(gens), len(sizes), n), dtype=np.min_scalar_type(max(sizes, default=1) - 1))
    if n == 0:
        return out
    groups = {}
    for i, g in enumerate(gens):
        groups.setdefault(id(g.packed[0]), []).append(i)
    for idx in groups.values():
        batch = gens[idx[0]].packed[0]
        widest = int(batch.sizes.max())
        for lo, hi in _spans([n * (widest + 2 * batch.d)] * len(idx)):
            sub = idx[lo:hi]
            nets = [gens[i].packed[1] for i in sub]
            try:
                out[sub] = batch.sample(nets, n, [streams[i] for i in sub])
            except MemoryError:
                raise _out_of_memory(batch.cell_start[-1], widest) from None
    return out


def sample(gen, n, seed):
    """Draw ``n`` records by ancestral sampling, as a ``Dataset``.  A
    batch of one of ``sample_columns``."""
    return data_mod.Dataset(gen.schema, sample_columns([gen], n, [seed])[0].T)


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
