"""Correctness check of one command's output files.

The check reads the files a command wrote, independently of the code
that wrote them, and decides per record whether the output is sound:

* every output file has a version-1 header with ``status=complete``;
* every selected record appears once per game (once per game and grid
  point for ``convergence``; in one contiguous block for ``dp-audit``);
* ``auc`` (or ``auc_mean``), ``alpha`` and ``beta`` lie in [0, 1];
* ``radius`` equals ``hoeffding_radius(n_eval // 2, rho)``.

A defect that cannot be tied to one record (missing file, bad header)
fails every record of the command.  The sha256 of the output bodies
(everything below each file's header line, transcripts included) is
returned as an informational value: it lets a change show its outputs
are bit-identical to its parent's, but it is not a gate.
"""

import hashlib
import math
import os
from dataclasses import dataclass, field

RESULTS_COLUMNS = "record_id,game,n_eval,auc,radius,alpha,beta"
COMPARISON_COLUMNS = "record_id,risk_traditional,risk_model_seeded,delta,abs_delta"
CONVERGENCE_COLUMNS = "record_id,game,n_eval,auc_mean,auc_std,radius"
AUDIT_COLUMNS = "record_id,alpha,beta,bound,flagged"


@dataclass
class CheckResult:
    failed: set = field(default_factory=set)  # record ids (str) that broke the check
    errors: list = field(default_factory=list)
    digest: str = ""


class _Broken(Exception):
    """A defect of the whole command, not of one record."""


def _read(path, kind, columns):
    if not os.path.isfile(path):
        raise _Broken(f"missing output {os.path.basename(path)}")
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if len(lines) < 2 or not lines[0].startswith(f"# privgames-{kind} v1 "):
        raise _Broken(f"{os.path.basename(path)}: bad header")
    if "status=complete" not in lines[0].split(" "):
        raise _Broken(f"{os.path.basename(path)}: status is not complete")
    if lines[1] != columns:
        raise _Broken(f"{os.path.basename(path)}: unexpected columns {lines[1]!r}")
    return [ln.split(",") for ln in lines[2:] if ln]


def _float(text):
    try:
        return float(text)
    except ValueError:
        return math.nan


def _unit(text):
    return 0.0 <= _float(text) <= 1.0


def _record_rows(res, rows, ids, width, name):
    """Rows of selected records with the right field count; a row of a
    record that was not selected breaks the whole output."""
    out = []
    for parts in rows:
        if parts[0] not in ids:
            raise _Broken(f"{name}: row for unselected record {parts[0]!r}")
        if len(parts) != width:
            res.errors.append(f"{name}: malformed row {','.join(parts)}")
            res.failed.add(parts[0])
            continue
        out.append(parts)
    return out


def _check_results(res, rows, kind, ids, n_eval, radius):
    seen = {}
    for parts in _record_rows(res, rows, ids, 7, f"results_{kind}"):
        rid, game, n, auc, rad, alpha, beta = parts
        seen[rid] = seen.get(rid, 0) + 1
        ok = (
            game == kind
            and n == str(n_eval)
            and _unit(auc) and _unit(alpha) and _unit(beta)
            and _float(rad) == radius(n_eval // 2)
        )
        if not ok:
            res.errors.append(f"results_{kind}: record {rid} out of range")
            res.failed.add(rid)
    for rid in ids:
        if seen.get(rid, 0) != 1:
            res.errors.append(f"results_{kind}: record {rid} appears {seen.get(rid, 0)} times")
            res.failed.add(rid)


def _check_run(res, workload, ids, out_dir, radius):
    for kind in workload.kinds:
        rows = _read(os.path.join(out_dir, f"results_{kind}.csv"), "results", RESULTS_COLUMNS)
        _check_results(res, rows, kind, ids, workload.n_eval, radius)
    rows = _read(os.path.join(out_dir, "comparison.csv"), "comparison", COMPARISON_COLUMNS)
    compared = [p[0] for p in rows if p[0] in ids]
    summary = {p[1]: p[2] for p in rows if p[0] == "summary" and len(p) == 3}
    if sorted(compared) != sorted(ids) or summary.get("n_records") != str(len(ids)):
        raise _Broken("comparison does not list every record once")


def _check_convergence(res, workload, ids, out_dir, radius):
    rows = _read(os.path.join(out_dir, "convergence.csv"), "convergence", CONVERGENCE_COLUMNS)
    seen = {}
    for parts in _record_rows(res, rows, ids, 6, "convergence"):
        rid, kind, n, auc_mean, _, rad = parts
        key = (rid, kind, n)
        seen[key] = seen.get(key, 0) + 1
        if not (n.isdigit() and _unit(auc_mean) and _float(rad) == radius(int(n) // 2)):
            res.errors.append(f"convergence: record {rid} {kind} n={n} out of range")
            res.failed.add(rid)
    for rid in ids:
        for kind in workload.kinds:
            for n in workload.grid:
                if seen.get((rid, kind, str(n)), 0) != 1:
                    res.errors.append(f"convergence: record {rid} {kind} n={n} missing or repeated")
                    res.failed.add(rid)


def _check_audit(res, workload, ids, out_dir, radius):
    rows = _read(os.path.join(out_dir, "dp_audit.csv"), "dp-audit", AUDIT_COLUMNS)
    blocks = []
    for parts in _record_rows(res, rows, ids, 5, "dp_audit"):
        rid = parts[0]
        if not blocks or blocks[-1] != rid:
            blocks.append(rid)
        if not (_unit(parts[1]) and _unit(parts[2])):
            res.errors.append(f"dp_audit: record {rid} rates out of range")
            res.failed.add(rid)
    for rid in ids:
        if blocks.count(rid) != 1:
            res.errors.append(f"dp_audit: record {rid} appears in {blocks.count(rid)} blocks")
            res.failed.add(rid)


_CHECKS = {"run": _check_run, "convergence": _check_convergence, "dp-audit": _check_audit}


def output_digest(out_dir):
    """sha256 over every output file's name and body (header line dropped)."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(out_dir):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                _, _, body = fh.read().partition(b"\n")
            h.update(os.path.relpath(path, out_dir).encode() + b"\0" + body + b"\0")
    return h.hexdigest()


def check_outputs(workload, ids, out_dir, hoeffding_radius, rho):
    """Check the outputs of one command of ``workload`` on records ``ids``."""
    ids = [str(i) for i in ids]
    res = CheckResult()

    def radius(n_per_class):
        return hoeffding_radius(n_per_class, rho)

    try:
        _CHECKS[workload.command](res, workload, ids, out_dir, radius)
    except _Broken as exc:
        res.errors.append(str(exc))
        res.failed.update(ids)
    if os.path.isdir(out_dir):
        res.digest = output_digest(out_dir)
    return res
