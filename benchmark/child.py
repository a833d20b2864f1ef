"""One fresh benchmark process: time set-up, or run one command.

    python3 child.py setup   <config.ini>
    python3 child.py command <config.ini> <run|convergence|dp-audit> [--trace]

``setup`` times ``import privgames``, ``config.load_experiment_config``,
``cli.load_environment`` and ``cli.build_bank``.  ``command`` calls the
subcommand's ``cli.cmd_*`` function in-process with a timestamping
``log`` callable, which the package calls once per record; ``run`` is
followed by ``compare``.  The last line of standard output is one JSON
object.  The process uses default workers: the parent removes
PRIVGAMES_THREADS and pins BLAS to one thread.
"""

import json
import os
import resource
import sys
from time import perf_counter


def setup(config_path):
    t0 = perf_counter()
    from privgames import cli, config

    cfg = config.load_experiment_config(config_path)
    _, _, d_eval, _ = cli.load_environment(cfg)
    cli.build_bank(cfg, d_eval.schema)
    return {"setup_s": perf_counter() - t0}


def command(config_path, name, trace):
    from privgames import cli, config

    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    stamps = []

    def log(message):
        # cmd_run reports a failed record as "record evaluation failed: ..."
        if message.startswith("record ") and not message.startswith("record evaluation"):
            stamps.append(perf_counter())
            if tracer is not None:
                tracer.new_record()

    cfg = config.load_experiment_config(config_path)
    threads = cli._default_threads()
    start = perf_counter()
    if name == "run":
        rc = cli.cmd_run(cfg, threads=threads, log=log)
        if rc == 0:
            out = cfg.out_dir
            rc = cli.cmd_compare(
                os.path.join(out, "results_traditional.csv"),
                os.path.join(out, "results_model_seeded.csv"),
                cfg.high_risk_threshold,
                os.path.join(out, "comparison.csv"),
                log=log,
            )
    elif name == "convergence":
        rc = cli.cmd_convergence(cfg, threads=threads, log=log)
    else:
        rc = cli.cmd_dp_audit(cfg, threads=threads, log=log)
    wall = perf_counter() - start
    edges = [start] + stamps
    result = {
        "rc": rc,
        "wall_s": wall,
        "record_s": [b - a for a, b in zip(edges, edges[1:])],
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
        result["spans"] = tracer.span_table()
    return result


def main(argv):
    if argv[0] == "setup":
        result = setup(argv[1])
    else:
        result = command(argv[1], argv[2], "--trace" in argv[3:])
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
