"""The three benchmark workloads: INI text and expected shape per seed.

Every workload is built from a bundled corpus, so the program receives
nothing but a config path.  The workload seed becomes the master seed and
picks which target records are evaluated; the amount of work a command
does (records, rounds, shadow models, queries) is fixed per workload and
size, so runs with different seeds measure the same quantity.

Why each workload exists:

* ``toy_convergence``: the ``convergence`` command on the toy generator,
  both game kinds.  Tens of thousands of rounds that each cost a few
  seed derivations, a dataset draw and a membership test; it stresses
  ``seeds``, ``data`` and ``games`` and bypasses generator fitting and
  the whole ``attack`` module.
* ``baynet_run``: the README ``run`` config (correlated_500, baynet,
  two parents, 50 shadows, 3 x 100 queries, 200 synthetic rows, both
  kinds) followed by ``compare``.  Generator fit/sample and counting-
  query features dominate; the traditional half never repeats a
  training dataset.
* ``privbaynet_audit``: ``dp-audit`` on privbaynet over independent_1000
  (3 categorical columns, so only 7 queries; a 64-row training dataset,
  larger than baynet_run's 50 yet small enough that some of the 48
  distinct rows always stay outside it as reference records).  Every round is model-seeded, so about half of all fits
  reuse the same released dataset, and the privatize step runs on every
  fit.  It uses the generator layer the other way round from
  ``baynet_run``: a per-dataset cache pays off here and only costs there.
"""

import random
from dataclasses import dataclass

DEFAULT_SEED = 20250817
RHO = 0.2

SIZES = ("full", "tiny")


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # run | convergence | dp-audit
    corpus: str
    aux_size: int
    eval_size: int
    target_size: int
    generator: str  # INI lines of the [generator] section
    records: int
    n_eval: int
    kinds: tuple
    n_shadow: int = 50
    queries_per_k: int = 100
    syn_size: int = 200
    grid: tuple = ()
    repetitions: int = 0


_FULL = {
    "toy_convergence": Workload(
        name="toy_convergence",
        command="convergence",
        corpus="correlated_500",
        aux_size=300,
        eval_size=200,
        target_size=50,
        generator="kind = toy\np_in = 0.8\np_out = 0.2",
        records=2,
        n_eval=200,
        kinds=("traditional", "model_seeded"),
        grid=(100, 400, 1600),
        repetitions=4,
    ),
    "baynet_run": Workload(
        name="baynet_run",
        command="run",
        corpus="correlated_500",
        aux_size=300,
        eval_size=200,
        target_size=50,
        generator="kind = baynet\nmax_parents = 2",
        records=8,
        n_eval=200,
        kinds=("traditional", "model_seeded"),
    ),
    "privbaynet_audit": Workload(
        name="privbaynet_audit",
        command="dp-audit",
        corpus="independent_1000",
        aux_size=400,
        eval_size=600,
        target_size=64,
        generator="kind = privbaynet\nepsilon = 1.0\nmax_parents = 2",
        records=20,
        n_eval=200,
        kinds=("model_seeded",),
    ),
}

# Tiny sizes keep the same commands and code paths; the benchmark's own
# tests use them so every metric can be checked in seconds.
_TINY = {
    "toy_convergence": dict(records=1, grid=(10, 20), repetitions=2),
    "baynet_run": dict(records=2, n_eval=10, n_shadow=4, queries_per_k=5, syn_size=20),
    "privbaynet_audit": dict(records=1, n_eval=10, n_shadow=4, syn_size=20),
}

NAMES = tuple(_FULL)


def get(name, size="full"):
    w = _FULL[name]
    if size == "tiny":
        w = Workload(**{**w.__dict__, **_TINY[name]})
    return w


def record_ids(workload, seed):
    """Target-record row ids evaluated under ``seed`` (sorted)."""
    return sorted(random.Random(seed).sample(range(workload.target_size), workload.records))


def rounds_per_command(workload):
    """Game rounds one command plays: the sum of n_eval over its games."""
    if workload.command == "convergence":
        per_record = workload.repetitions * len(workload.kinds) * sum(workload.grid)
    else:
        per_record = len(workload.kinds) * workload.n_eval
    return workload.records * per_record


def config_text(workload, seed, out_dir):
    ids = ",".join(str(i) for i in record_ids(workload, seed))
    text = f"""[data]
dataset = bundled:{workload.corpus}
aux_size = {workload.aux_size}
eval_size = {workload.eval_size}
target_size = {workload.target_size}

[generator]
{workload.generator}

[attack]
n_shadow = {workload.n_shadow}
k_values = 1,2,3
queries_per_k = {workload.queries_per_k}
syn_size = {workload.syn_size}

[game]
n_eval = {workload.n_eval}
kinds = {",".join(workload.kinds)}

[records]
selection = ids:{ids}

[experiment]
master_seed = {seed}

[output]
dir = {out_dir}
rho = {RHO}
"""
    if workload.grid:
        text += (
            f"\n[convergence]\ngrid = {','.join(str(n) for n in workload.grid)}\n"
            f"repetitions = {workload.repetitions}\n"
        )
    return text
