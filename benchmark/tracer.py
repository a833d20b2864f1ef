"""Span tracing of privgames' public functions, from outside the package.

``install()`` wraps each function in ``TRACED`` and rebinds the wrapper
under every name that refers to the original in any loaded ``privgames``
module, so calls through ``from .seeds import derive`` style imports are
caught too.  Spans are aggregated in memory per (function, calling traced
function), which keeps a million ``derive`` calls at a few dict entries.
Self time is a span's duration minus the time of the traced spans it
directly contains.  The package itself is never modified on disk.
"""

import functools
import os
import sys
from time import perf_counter

# The public functions on the command path, per layer.  seeds.splitmix64
# and fnv1a64 are left inside derive, and data.validate_record inside its
# callers: wrapping them would cost more than the work they do.
TRACED = {
    "seeds": ("derive", "rng"),
    "data": ("load_csv", "sample_records", "contains", "value_equal_indices", "append_record"),
    "generators": (
        "fit", "learn_structure", "estimate_tables", "privatize_tables", "sample", "release_bit",
    ),
    "attack": ("build_shadow_sets", "extract_features", "train_meta_classifier", "train_attack"),
    "games": (
        "run_traditional", "run_model_seeded", "traditional_dataset",
        "model_seeded_dataset", "save_transcript",
    ),
    "risk": ("roc_auc", "empirical_rates", "dp_audit_points", "summarize_distribution"),
    "cli": (
        "cmd_run", "cmd_compare", "cmd_convergence", "cmd_dp_audit",
        "load_environment", "build_bank", "build_adversary", "_write_file",
    ),
    "config": ("load_experiment_config",),
}

LAYERS = ("seeds", "data", "generators", "attack", "games", "risk", "cli")

class Tracer:
    def __init__(self):
        self.spans = {}  # (name, parent name) -> [calls, total_s, self_s]
        self._stack = []  # [name, time of traced children] per open span
        self.fits = 0
        self.repeat_fits = 0
        self._fit_keys = set()
        self.sample_rows = 0
        self.cells = 0
        self.rounds = 0
        self.bytes_written = 0

    def new_record(self):
        """Start a new record: fit repeats are counted within one record."""
        self._fit_keys.clear()

    def wrap(self, name, fn, after=None):
        stack = self._stack
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                agg = spans.get((name, parent))
                if agg is None:
                    agg = spans[(name, parent)] = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += dur
                agg[2] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
            if after is not None:
                after(result, *args, **kwargs)
            return result

        return traced

    # Counters, computed at the layer boundary from arguments and results.

    def _on_fit(self, result, spec, training, *args, **kwargs):
        key = hash((training.values.shape, training.values.tobytes()))
        self.fits += 1
        if key in self._fit_keys:
            self.repeat_fits += 1
        self._fit_keys.add(key)

    def _on_sample(self, result, gen, n, seed):
        self.sample_rows += n

    def _on_features(self, result, d_syn, x, bank):
        self.cells += d_syn.n * len(bank.queries)

    def _on_game(self, result, *args, **kwargs):
        self.rounds += len(result.runs)

    def _on_transcript(self, result, transcript, path):
        self.bytes_written += os.path.getsize(path)

    def _on_write_file(self, result, path, lines):
        self.bytes_written += os.path.getsize(path)

    def install(self):
        """Wrap every function in TRACED, under every name bound to it."""
        hooks = {
            "generators.fit": self._on_fit,
            "generators.sample": self._on_sample,
            "attack.extract_features": self._on_features,
            "games.run_traditional": self._on_game,
            "games.run_model_seeded": self._on_game,
            "games.save_transcript": self._on_transcript,
            "cli._write_file": self._on_write_file,
        }
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "privgames" or n.startswith("privgames."))
        ]
        for mod_name, funcs in TRACED.items():
            mod = sys.modules[f"privgames.{mod_name}"]
            for fname in funcs:
                orig = getattr(mod, fname)
                name = f"{mod_name}.{fname}"
                wrapped = self.wrap(name, orig, hooks.get(name))
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            setattr(m, attr, wrapped)

    def metrics(self):
        """Per-layer metrics: calls/total/self per function, self time per
        layer, and the counters."""
        out = {}
        for mod_name, funcs in TRACED.items():
            for fname in funcs:
                name = f"{mod_name}.{fname}"
                calls = total = self_s = 0
                for (n, _), (c, t, s) in self.spans.items():
                    if n == name:
                        calls += c
                        total += t
                        self_s += s
                out[f"{name}.calls"] = (calls, "count")
                out[f"{name}.total_s"] = (total, "s")
                out[f"{name}.self_s"] = (self_s, "s")
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (
                sum(s for (n, _), (_, _, s) in self.spans.items() if n.startswith(layer + ".")),
                "s",
            )
        out["generators.fit.repeat_ratio"] = (
            self.repeat_fits / self.fits if self.fits else 0.0, "ratio"
        )
        out["generators.sample.rows"] = (self.sample_rows, "rows")
        out["attack.extract_features.cells"] = (self.cells, "cells")
        out["games.rounds"] = (self.rounds, "rounds")
        out["cli.bytes_written"] = (self.bytes_written, "bytes")
        return out

    def span_table(self):
        """Aggregated spans as JSON-ready rows, for the detail report."""
        return [
            {"name": n, "parent": p, "calls": c, "total_s": t, "self_s": s}
            for (n, p), (c, t, s) in sorted(self.spans.items(), key=lambda kv: -kv[1][2])
        ]
