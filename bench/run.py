"""diffeo-kit benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload W --seed S --seconds T --trace 0|1

Run from the root of a source checkout; the library is imported from
``src``.  The workloads, metrics and the reasons behind them are described
in ``bench/README.md``.

With ``--trace 0`` the run measures the end-to-end metrics: set-up time of
a fresh interpreter, then the workload's operations one after another in a
fresh worker process (closed loop, one client).  With ``--trace 1`` it runs
the same rounds in two workers, each tracing every other round, and reports
the per-layer metrics and the tracing overhead.  Every time is scaled by
the machine's speed during it, from the speed sampler (``reference.py``).
Every output is checked; the last line of standard output is the JSON
result, and the exit code is 1 when a check failed.
"""

from __future__ import annotations

import argparse
import bisect
import heapq
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from itertools import combinations
from math import comb
from pathlib import Path

import reference
import workloads

HERE = Path(__file__).resolve().parent
OUT = Path(".bench_out")  # in the checkout the run starts from
SETUP_PROBES = 21
RUN_LIMIT_S = 170.0
CHECK_MARGIN_S = 20.0  # for the round that passes the deadline, and the output checks
UNATTRIBUTED_LIMIT = 0.05  # share of traced operation time outside every layer
MIN_SAMPLES = 8  # speed samples that scale one measurement, at the least


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "diffeokit" / "__init__.py").is_file():
        print(f"error: no diffeokit sources under {src}", file=sys.stderr)
        return 2
    started = time.perf_counter()
    workdir = root / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return _run(args, src, workdir, started)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, src: Path, workdir: Path, started: float) -> int:
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED="0")
    first = workloads.make_round(args.workload, args.seed, 0)
    for name, text in first["files"].items():
        (workdir / name).write_text(text, encoding="utf-8")
    problems = _oracle_problems(first["cases"])

    rounds = workloads.rounds_for(args.workload, args.seconds)
    if args.trace == 0:
        probe = ["--setup-probes", str(SETUP_PROBES), "--setup-files",
                 *[str(workdir / n) for n in first["files"]]]
        run = _worker(args, env, workdir, rounds, started, last=True, extra=probe)
        if run is None:
            return 1
        _scale(run)
        runs = [run]
        metrics = _end_to_end(run)
    else:
        # two workers over the same rounds, tracing the even rounds in one
        # and the odd rounds in the other
        half = max(1, rounds // 2)
        OUT.mkdir(exist_ok=True)
        runs = []
        for parity in (0, 1):
            spans = OUT / f"spans-{args.workload}-{args.seed}-{parity}.txt"
            run = _worker(args, env, workdir, half, started, last=parity == 1,
                          extra=["--trace-parity", str(parity), "--spans", str(spans)])
            if run is None:
                return 1
            _scale(run)
            runs.append(run)
        if runs[0]["digest_all"] != runs[1]["digest_all"]:
            problems.append("traced and untraced outputs differ")
        metrics, trace_problems = _per_layer(runs)
        problems += trace_problems

    for r in runs:
        if r["rounds"] < r["requested"]:
            problems.append(f"ran {r['rounds']} of {r['requested']} rounds before the time limit")
    attempted = sum(len(r["records"]) for r in runs)
    failed = sum(1 for r in runs for rec in r["records"] if rec["problems"])
    for r in runs:
        for rec in r["records"]:
            for p in rec["problems"][:1]:
                problems.append(f"round {rec['round']}: {p}")
    _report(args, runs, problems)
    correct = not problems and failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


# -- processes ----------------------------------------------------------------


def _worker(args, env: dict, workdir: Path, rounds: int, started: float, last: bool,
            extra: tuple = ()) -> dict | None:
    """Run ``rounds`` rounds in a fresh worker.  The worker starts no round
    after its deadline, so the run ends within RUN_LIMIT_S; the first of two
    workers gets a third of the time left."""
    remaining = RUN_LIMIT_S - (time.perf_counter() - started)
    deadline = remaining - CHECK_MARGIN_S if last else remaining / 3
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--rounds", str(rounds), "--workdir", str(workdir),
           "--deadline", str(max(1.0, deadline)), *extra]
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=max(1.0, remaining))
    except subprocess.TimeoutExpired:
        print("error: worker did not finish in time", file=sys.stderr)
        return None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        print(f"error: worker exited with {proc.returncode}", file=sys.stderr)
        return None
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["requested"] = rounds
    return result


# -- metrics ------------------------------------------------------------------


def _tail_percentile(attempted: int) -> float:
    """The highest percentile with at least ten of the run's operations
    beyond it, but not below the median (100 when the run has fewer than
    21 operations)."""
    return 100.0 * (1 - 10 / attempted) if attempted > 20 else 100.0


def _weighted_percentile(pairs: list[tuple[float, int]], pct: float) -> float:
    """The smallest value with at least ``pct`` percent of the total weight
    at or below it."""
    ordered = sorted(pairs)
    target = pct / 100.0 * sum(w for _, w in ordered)
    acc = 0
    for value, weight in ordered:
        acc += weight
        if acc >= target * (1 - 1e-12):
            return value
    return ordered[-1][0]


def _scale(run: dict) -> None:
    """Give every operation of the run a ``scale``: its time times its scale
    is its time without the speed samples taken during it, divided by the
    machine's mean slowdown over those samples (sample time over
    ``reference.NOMINAL_S``).  When fewer than MIN_SAMPLES fall inside it,
    the MIN_SAMPLES nearest in time give the slowdown.  A scaled time reads
    as if the machine had run at the sampler's nominal speed throughout."""
    samples = sorted(run["samples"])
    starts = [t for t, _ in samples]
    for rec in run["records"]:
        t0, dur = rec["t0"], rec["dur"]
        inside = [d for _, d in samples[bisect.bisect_left(starts, t0):bisect.bisect_left(starts, t0 + dur)]]
        near = inside
        if len(inside) < MIN_SAMPLES:
            mid = t0 + dur / 2
            near = [d for _, d in heapq.nsmallest(MIN_SAMPLES, samples, key=lambda s: abs(s[0] - mid))]
        slowdown = statistics.fmean(near) / reference.NOMINAL_S
        rec["scale"] = (dur - sum(inside)) / dur / slowdown


def _shape_times(records: list[dict]) -> dict[str, tuple[float, int]]:
    """Shape -> (median scaled duration, count) for each shape of operation
    in the run; every operation of a shape counts with its shape's median."""
    by_shape: dict[str, list[float]] = {}
    for r in records:
        by_shape.setdefault(r["shape"], []).append(r["dur"] * r["scale"])
    return {shape: (statistics.median(d), len(d)) for shape, d in by_shape.items()}


def _end_to_end(run: dict) -> dict:
    records = run["records"]
    times = list(_shape_times(records).values())
    pct = _tail_percentile(len(records))
    ok = sum(1 for r in records if not r["problems"])
    return {
        "setup_s": (statistics.median(run["setup"]), "s"),
        "ops_per_s": (len(records) / sum(d * n for d, n in times), "ops/s"),
        "latency_p50_ms": (1000 * _weighted_percentile(times, 50), "ms"),
        "latency_tail_ms": (1000 * _weighted_percentile(times, pct), "ms"),
        "peak_rss_mb": (run["peak_rss_mb"], "MiB"),
        "success_rate": (ok / len(records), "fraction"),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _per_layer(runs: list[dict]) -> tuple[dict, list[str]]:
    """Per-operation layer metrics of the traced rounds, the share of traced
    operation time that no layer covers, and the tracing overhead."""
    problems = []
    traced_ops = [(layer, rec["scale"]) for r in runs
                  for layer, rec in zip(r["layers"], r["records"]) if layer]
    self_time, counts = Counter(), Counter()
    for layer, scale in traced_ops:
        self_time.update({name: t * scale for name, t in layer["self"].items()})
        counts.update(layer["counts"])
    n = len(traced_ops) or 1
    # operation time without the tracer's own measuring, and the part of it
    # that falls in no layer (the self time of the root span)
    op_time = (sum(layer["wall"] * scale for layer, scale in traced_ops)
               - self_time["bench.inspect"])
    layer_time = sum(t for name, t in self_time.items() if not name.startswith("bench."))
    unattributed = _ratio(op_time - layer_time, op_time)
    if unattributed > UNATTRIBUTED_LIMIT:
        problems.append(f"{unattributed:.3f} of the traced operation time is in no layer "
                        f"(limit {UNATTRIBUTED_LIMIT})")

    def per_op(value):
        return value / n

    c = counts
    metrics = {
        "linalg.quotient_s": (per_op(self_time["linalg.quotient"]), "s/op"),
        "linalg.quotient_calls": (per_op(c["calls.linalg.quotient"]), "count/op"),
        "linalg.relation_entries": (per_op(c["linalg.relation_entries"]), "count/op"),
        "linalg.relation_density": (_ratio(c["linalg.relation_nonzeros"], c["linalg.relation_entries"]), "fraction"),
        "linalg.relation_rank_share": (_ratio(c["linalg.relation_rank"], c["linalg.relation_columns"]), "fraction"),
        "linalg.matmul_s": (per_op(self_time["linalg.matmul"]), "s/op"),
        "linalg.rank_s": (per_op(self_time["linalg.rank"]), "s/op"),
        "linalg.kernel_s": (per_op(self_time["linalg.kernel"]), "s/op"),
        "linalg.solve_s": (per_op(self_time["linalg.solve"]), "s/op"),
        "linalg.ratmat_new": (per_op(c["linalg.ratmat_new"]), "count/op"),
        "multilinear.exterior_power_s": (per_op(self_time["multilinear.exterior_power"]), "s/op"),
        "multilinear.minors": (per_op(c["multilinear.minors"]), "count/op"),
        "multilinear.zero_minor_share": (_ratio(c["multilinear.zero_minors"], c["multilinear.minors"]), "fraction"),
        "tangent.fibre_functor_s": (per_op(self_time["tangent.fibre_functor"]), "s/op"),
        "tangent.colimit_s": (per_op(self_time["tangent.colimit"]), "s/op"),
        "tangent.colimit_calls": (per_op(c["calls.tangent.colimit"]), "count/op"),
        "tangent.colimit_reuse": (_ratio(c["tangent.distinct_diagrams"], c["calls.tangent.colimit"]), "ratio"),
        "tangent.rho_s": (per_op(self_time["tangent.rho"]), "s/op"),
        "tangent.pushforward_s": (per_op(self_time["tangent.pushforward"]), "s/op"),
        "presentation.validate_s": (per_op(self_time["presentation.validate"]), "s/op"),
        "presentation.validate_per_op": (per_op(c["calls.presentation.validate"]), "count/op"),
        "presentation.closure_s": (per_op(self_time["presentation.closure"]), "s/op"),
        "presentation.closure_yield": (
            _ratio(c["presentation.closure_new_arrows"],
                   c["calls_under.presentation.closure.symcalc.compose"]), "ratio"),
        "presentation.scan_s": (per_op(self_time["presentation.scan"]), "s/op"),
        "presentation.scan_compositions": (
            per_op(c["calls_under.presentation.scan.symcalc.compose"]), "count/op"),
        "symcalc.compose_s": (per_op(self_time["symcalc.compose"]), "s/op"),
        "symcalc.compose_calls": (per_op(c["calls.symcalc.compose"]), "count/op"),
        "symcalc.jacobian_s": (per_op(self_time["symcalc.jacobian"]), "s/op"),
        "symcalc.pullback_s": (per_op(self_time["symcalc.pullback"]), "s/op"),
        "symcalc.pullback_calls": (per_op(c["calls.symcalc.pullback"]), "count/op"),
        "textio.parse_s": (per_op(self_time["textio.parse"]), "s/op"),
        "textio.bytes_parsed": (per_op(c["textio.bytes_parsed"]), "B/op"),
        "forms.check_s": (per_op(self_time["forms.check"]), "s/op"),
        "forms.eval_s": (per_op(self_time["forms.eval"]), "s/op"),
        "forms.section_s": (per_op(self_time["forms.section"]), "s/op"),
        "cli.handler_s": (per_op(self_time["cli.handler"]), "s/op"),
        "catalog.build_s": (per_op(self_time["catalog.build"]), "s/op"),
    }
    metrics["unattributed_share"] = (unattributed, "fraction")
    records = [rec for r in runs for rec in r["records"]]
    traced = _shape_times([rec for rec in records if rec["traced"]])
    plain = _shape_times([rec for rec in records if not rec["traced"]])
    both = traced.keys() & plain.keys()
    metrics["trace_overhead"] = (sum(traced[s][0] * plain[s][1] for s in both)
                                 / sum(plain[s][0] * plain[s][1] for s in both), "ratio")
    return metrics, problems


# -- output gate helpers and the report ------------------------------------------


def _relation_rows(dims: list[int], jacobians: list, k: int) -> tuple[list[dict], int]:
    """Sparse relation rows of the degree-k fibre colimit, built from the
    generator's own Jacobians: for each arrow and source basis vector, its
    image minus itself.  Returns the rows and the number of columns."""
    sizes = [comb(d, k) for d in dims]
    offsets = [sum(sizes[:i]) for i in range(len(sizes))]
    rows = []
    for i, j, jac in jacobians:
        dst_basis = list(combinations(range(dims[j]), k))
        for s, cols in enumerate(combinations(range(dims[i]), k)):
            row = {}
            for r, rws in enumerate(dst_basis):
                if k == 1:
                    value = jac[rws[0]][cols[0]]
                else:
                    (a, b), (c, d) = rws, cols
                    value = jac[a][c] * jac[b][d] - jac[a][d] * jac[b][c]
                if value:
                    row[offsets[j] + r] = value
            row[offsets[i] + s] = row.get(offsets[i] + s, 0) - 1
            rows.append({c: v for c, v in row.items() if v})
    return rows, sum(sizes)


def _oracle_problems(cases: list) -> list[str]:
    """Cross-check the glued colimit dimensions with sympy's exact rank."""
    problems = []
    if not cases:
        return problems
    from sympy import QQ
    from sympy.polys.matrices import DomainMatrix

    for case in cases:
        for k in (1, 2):
            rows, total = _relation_rows(case["dims"], case["jacobians"], k)
            mat = DomainMatrix({i: {c: QQ(v.numerator, v.denominator) for c, v in row.items()}
                                for i, row in enumerate(rows) if row}, (len(rows), total), QQ)
            expected = comb(5, k) * case["components"]
            if total - mat.rank() != expected:
                problems.append(f"sympy gives a degree-{k} colimit of dimension "
                                f"{total - mat.rank()}, the construction {expected}")
    return problems


def _input_properties(workload: str, seed: int, run: dict) -> str:
    recs = run["records"]
    keys = [r["key"] for r in recs]
    parts = [f"ops={len(recs)}", f"rounds={run['rounds']}",
             f"repeat_share={1 - len(set(keys)) / len(keys):.3f}"]
    if workload == "glued_colimits":
        case = workloads.make_round(workload, seed, 0)["cases"][0]
        parts.append(f"charts={len(case['dims'])} (dims {min(case['dims'])}-{max(case['dims'])})")
        for k in (1, 2):
            rows, total = _relation_rows(case["dims"], case["jacobians"], k)
            nonzeros = sum(len(row) for row in rows)
            parts.append(f"relations_k{k}={len(rows)}x{total} density={nonzeros / (len(rows) * total):.4f}")
    sizes = sorted(r["arrow_count"] for r in recs if "arrow_count" in r)
    if sizes:
        parts.append(f"closure_sizes={sizes[0]}..{sizes[-1]} (median {statistics.median(sizes)})")
    return " ".join(parts)


def _report(args, runs: list[dict], problems: list[str]) -> None:
    run = runs[0]
    pct = _tail_percentile(len(run["records"]))
    errors = sum(1 for r in run["records"] if r["problems"])
    print(f"workload {args.workload} seed={args.seed} trace={args.trace}")
    probe_s = statistics.median(d for _, d in run["samples"])
    print(f"  samples {len(run['records'])} ops of {len(_shape_times(run['records']))} shapes "
          f"in {run['rounds']} rounds; "
          f"tail percentile p{pct:.1f}; error_rate {errors / len(run['records']):.4f}")
    print(f"  speed {len(run['samples'])} samples, median {1000 * probe_s:.3f} ms "
          f"(nominal {1000 * reference.NOMINAL_S:.2f} ms); unscaled median op "
          f"{1000 * statistics.median(r['dur'] for r in run['records']):.2f} ms")
    print(f"  inputs {_input_properties(args.workload, args.seed, run)}")
    print(f"  digest round0={run['digest_round0']} all={run['digest_all']}")
    for p in problems[:20]:
        print(f"  problem: {p}")


if __name__ == "__main__":
    sys.exit(main())
