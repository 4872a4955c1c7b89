"""Runs one workload's rounds in a fresh interpreter and prints one JSON line.

    PYTHONPATH=src PYTHONHASHSEED=0 python3 bench/worker.py \
        --workload W --seed S --rounds R --workdir DIR [--deadline SEC] \
        [--trace-parity P --spans FILE] [--setup-probes N --setup-files FILE...]

Each operation is timed alone.  With ``--trace-parity P`` the tracer is in
place for the rounds whose index has parity P and removed for the others,
so traced and untraced rounds alternate through the same machine phases.
Inputs are written and outputs are checked outside the timed region; peak
memory is read before the checks.  Between rounds the worker times the
set-up probes (``setup_probe.py``), spread over the whole run so that they
meet the same machine phases as the operations.  Throughout the rounds,
set-up probes excepted, the speed sampler (``reference.py``) times its probe
every 30 ms, so that ``run.py`` can scale every time by the machine's speed
during it.  ``run.py`` starts this script and turns its records into metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
import time
from fractions import Fraction

import diffeokit.catalog
import diffeokit.cli
import diffeokit.forms
import diffeokit.symcalc
import diffeokit.tangent
import diffeokit.textio

import gate
import reference
import workloads


def _matrix(m) -> dict:
    return {"rows": m.rows, "cols": m.cols, "entries": [str(x) for x in m.data]}


def _call(op: dict, workdir: str):
    """The operation itself; everything it does is timed."""
    if op["kind"] == "cli":
        argv = [os.path.join(workdir, a[1:]) if a.startswith("@") else a for a in op["argv"]]
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = diffeokit.cli.run_command(argv)
        return code, out
    with open(os.path.join(workdir, op["file"]), encoding="utf-8") as fh:
        p = diffeokit.textio.parse_presentation(fh.read()).presentation
    if op["kind"] == "pushforward":
        return 0, diffeokit.tangent.pushforward_map(diffeokit.catalog.ambient_inclusion(p), 2)
    dim = op["dim"]
    coeffs = [diffeokit.symcalc.Poly.constant(dim, Fraction(c)) for c in op["coeffs"]]
    w = diffeokit.symcalc.PolyForm(dim, op["degree"], coeffs)
    return 0, diffeokit.forms.tilde_form_at_point(p, w)


def _setup_probe(files: list[str]) -> float:
    """Seconds from spawning an interpreter until it is ready after importing
    the CLI and reading the inputs, without the speed samples it took, at
    the sampler's nominal speed (see ``run._scale``)."""
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, os.path.join(os.path.dirname(__file__), "setup_probe.py"),
                           *files], stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    words = line.split()
    if proc.returncode != 0 or len(words) != 3 or words[0] != "ready":
        raise SystemExit("error: set-up probe failed")
    sampled, mean = float(words[1]), float(words[2])
    return (elapsed - sampled) * reference.NOMINAL_S / mean


def _glued_matrices(workdir: str) -> list:
    """Colimit projections for k = 1, 2 and the rho matrix of round 0's
    presentation, computed after the timed loop."""
    with open(os.path.join(workdir, "glued0.dk"), encoding="utf-8") as fh:
        p = diffeokit.textio.parse_presentation(fh.read()).presentation
    tangent = diffeokit.tangent
    colimits = [tangent.vect_colimit(tangent.apply_fibre_functor(p, k)) for k in (1, 2)]
    return [c.projection for c in colimits] + [tangent.rho_map(p, 2)]


def _render(op: dict, result) -> str:
    if op["kind"] == "cli":
        return result.getvalue()
    if op["kind"] == "pushforward":
        fibre, wedge = result
        payload = {"fibre_push": _matrix(fibre), "wedge_push": _matrix(wedge)}
    else:
        payload = {"value": [str(x) for x in result.row_list(0)]}
    return json.dumps(payload, sort_keys=True)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--rounds", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--trace-parity", type=int, choices=(0, 1), default=None,
                    help="trace the rounds of this index parity")
    ap.add_argument("--deadline", type=float, default=150.0)
    ap.add_argument("--spans", default=None, help="file to write the spans to")
    ap.add_argument("--setup-probes", type=int, default=0, help="set-up probes to time")
    ap.add_argument("--setup-files", nargs="*", default=[], help="inputs the set-up probes read")
    args = ap.parse_args()

    tracer = None
    if args.trace_parity is not None:
        import tracer as tracing

        tracer = tracing.Tracer()

    sampler = reference.Sampler()
    started = time.perf_counter()
    records, outputs, layers, setup = [], [], [], []
    sampler.start()
    for index in range(args.rounds):
        if index and time.perf_counter() - started > args.deadline:
            break
        rnd = workloads.make_round(args.workload, args.seed, index)
        traced = tracer is not None and index % 2 == args.trace_parity
        if traced:
            tracer.install()
        for name, text in rnd["files"].items():
            with open(os.path.join(args.workdir, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        for op in rnd["ops"]:
            error = None
            summary = None
            t0 = time.perf_counter()
            try:
                if not traced:
                    code, result = _call(op, args.workdir)
                else:
                    (code, result), summary = tracer.run_op(len(records), lambda: _call(op, args.workdir))
            except Exception as exc:  # an operation that raises is a failure, not the end of the run
                code, result, error = None, None, f"{type(exc).__name__}: {exc}"
            duration = time.perf_counter() - t0
            if summary is not None:
                duration = summary["wall"]  # the traced operation, without the tracer's bookkeeping
            records.append({"round": index, "t0": t0, "dur": duration, "traced": traced,
                            "key": op["key"], "shape": op["shape"], "error": error})
            outputs.append((op, code, result))
            layers.append(summary)
        if traced:
            tracer.remove()
        # this round's share of the probes, so that they spread over the run
        due = -(-(index + 1) * args.setup_probes // args.rounds)
        if due > len(setup):
            sampler.stop()
            setup += [_setup_probe(args.setup_files) for _ in range(due - len(setup))]
            sampler.start()
    sampler.stop()

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    digest_first, digest_all = hashlib.sha256(), hashlib.sha256()
    for rec, (op, code, result) in zip(records, outputs):
        text = "" if rec["error"] else _render(op, result)
        if rec["error"] is None:
            found = gate.problems(op["check"], code, text)
        else:
            found = [rec["error"]]
        rec["problems"] = found
        if not found and op["check"]["name"] == "filtered":
            rec["arrow_count"] = json.loads(text)["arrow_count"]
        chunk = f"{code}\n{text}\n".encode()
        digest_all.update(chunk)
        if rec["round"] == 0:
            digest_first.update(chunk)

    if args.workload == "glued_colimits" and records:
        # the CLI reports only dimensions; hash the matrices behind them too
        for matrix in _glued_matrices(args.workdir):
            digest_first.update(json.dumps(_matrix(matrix)).encode())

    if tracer is not None and args.spans:
        tracer.write(args.spans)

    print(json.dumps({
        "records": records,
        "layers": layers if tracer is not None else [],
        "rounds": records[-1]["round"] + 1 if records else 0,
        "peak_rss_mb": peak_rss_mb,
        "setup": setup,
        "samples": sampler.samples,
        "digest_round0": digest_first.hexdigest(),
        "digest_all": digest_all.hexdigest(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
