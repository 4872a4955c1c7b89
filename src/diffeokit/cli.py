"""Command-line front end.

Spaces are loaded either from a presentation file or from the built-in
catalog via a ``catalog:NAME`` reference (parameters through ``--params``,
e.g. ``--params m=3``).  Every command renders a human table by default
and a JSON report with ``--json``; the JSON carries every number the
table shows, with rationals as "p/q" strings.

Exit codes separate "computed fine, the answer is no" from "failed to
compute": input errors exit with 2; internal faults and exhausted
resources exit with 3; negative verdicts exit with 1 only under
``--strict`` and with 0 otherwise.  The negative verdicts are: an
incompatible family (check-form, eval-form), an invalid section
(sections), a comparison map that is not an isomorphism (rho), and a
filteredness report that is not an unqualified yes (filtered).
"""

from __future__ import annotations

import argparse
import functools
import json
import signal
import sys
from .catalog import build_catalog_space, catalog_names
from .forms import IncompatibleFormError, check_form_compatibility, check_sections, form_at_point
from .presentation import filteredness
from .tangent import apply_fibre_functor, rho_map, vect_colimit
from .textio import (
    ParseError,
    export_presentation,
    parse_presentation,
    parse_sections,
    render_poly_form,
)

__all__ = ["run_command", "main"]


def _parse_params(pairs: list[str] | None) -> dict:
    params = {}
    for pair in pairs or []:
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise ValueError(f"bad parameter {pair!r}, expected KEY=VALUE")
        try:
            params[key] = int(value)
        except ValueError:
            raise ValueError(f"parameter {key!r} needs an integer value, got {value!r}")
    return params


def _load_space(ref: str, params: list[str] | None):
    """Resolve a FILE argument or a catalog:NAME reference."""
    if ref.startswith("catalog:"):
        entry = build_catalog_space(ref[len("catalog:") :], _parse_params(params))
        return entry.presentation, {}
    with open(ref, "r", encoding="utf-8") as fh:
        text = fh.read()
    doc = parse_presentation(text)
    return doc.presentation, doc.forms


def _coords(row) -> list[str]:
    return [str(x) for x in row.row_list(0)]


def _require_form(forms: dict, name: str):
    if name not in forms:
        known = ", ".join(sorted(forms)) or "none"
        raise ValueError(f"unknown form {name!r} (forms in this file: {known})")
    return forms[name]


# -- command handlers ---------------------------------------------------------


def _cmd_tangent(args, p, forms):
    colim = vect_colimit(apply_fibre_functor(p, args.k))
    label = "T" if args.k == 1 else f"T^{args.k}"
    payload = {"k": args.k, "dim": colim.dim}
    return payload, [f"dim {label} = {colim.dim}"], False


def _cmd_rho(args, p, forms):
    mat = rho_map(p, args.k)
    rank = mat.rank()
    injective = rank == mat.cols
    surjective = rank == mat.rows
    iso = injective and surjective and mat.rows == mat.cols
    payload = {
        "k": args.k,
        "source_dim": mat.cols,
        "target_dim": mat.rows,
        "rank": rank,
        "injective": injective,
        "surjective": surjective,
        "iso": iso,
    }
    verdicts = ", ".join(
        [
            "injective" if injective else "not injective",
            "surjective" if surjective else "not surjective",
            "iso" if iso else "not iso",
        ]
    )
    line = f"source {mat.cols}, target {mat.rows}, rank {rank} ({verdicts})"
    return payload, [line], not iso


def _cmd_check_form(args, p, forms):
    form = _require_form(forms, args.form)
    report = check_form_compatibility(p, form)
    payload = {
        "form": args.form,
        "degree": form.degree,
        "compatible": report.ok,
        "failing_arrow": report.failing_arrow,
        "residual": None if report.ok else render_poly_form(report.residual),
    }
    if report.ok:
        return payload, [f"form {args.form}: compatible"], False
    arrow = next(a for a in p.arrows if a.name == report.failing_arrow)
    lines = [
        f"form {args.form}: incompatible",
        f"counterexample arrow: {arrow.name} ({arrow.src} -> {arrow.dst})",
        f"residual on chart {arrow.src}: {render_poly_form(report.residual)}",
    ]
    return payload, lines, True


def _cmd_eval_form(args, p, forms):
    form = _require_form(forms, args.form)
    try:
        value = form_at_point(p, form)
    except IncompatibleFormError as exc:
        payload = {
            "form": args.form,
            "compatible": False,
            "failing_arrow": exc.failing_arrow,
        }
        return payload, [f"form {args.form}: incompatible, no pointwise value"], True
    coords = _coords(value.coords)
    payload = {
        "form": args.form,
        "degree": form.degree,
        "compatible": True,
        "fibre_dim": value.coords.cols,
        "coords": coords,
    }
    line = (
        f"form {args.form}: degree {form.degree} value on the "
        f"{value.coords.cols}-dimensional fibre: ({', '.join(coords)})"
    )
    return payload, [line], False


def _cmd_filtered(args, p, forms):
    report = filteredness(p, args.depth)
    payload = {
        "depth": args.depth,
        "weakly_filtered": report.weakly_filtered,
        "filtered": report.filtered,
        "closure_reached": report.closure_reached,
        "arrow_count": report.arrow_count,
    }
    lines = [
        f"weakly_filtered: {report.weakly_filtered}",
        f"filtered: {report.filtered}",
        f"closure: {'reached' if report.closure_reached else 'not reached'} "
        f"({report.arrow_count} arrows, depth {args.depth})",
    ]
    negative = not (report.weakly_filtered == "yes" and report.filtered == "yes")
    return payload, lines, negative


def _cmd_sections(args, p, forms):
    with open(args.data, "r", encoding="utf-8") as fh:
        sections = parse_sections(fh.read(), p)
    if not sections:
        raise ValueError(f"no sections found in {args.data!r}")
    reports = check_sections(p, list(sections.values()))
    entries = []
    lines = []
    negative = False
    for name, report in zip(sections, reports):
        entry = {
            "name": name,
            "bundle": report.bundle,
            "valid": report.valid,
            "constraints": report.constraints,
            "functional": None
            if report.functional is None
            else _coords(report.functional),
        }
        entries.append(entry)
        line = f"section {name} ({report.bundle}): {'valid' if report.valid else 'invalid'}"
        if report.functional is not None:
            line += f", functional ({', '.join(_coords(report.functional))})"
        lines.append(line)
        for constraint in report.constraints:
            lines.append(f"  constraint: {constraint}")
        negative = negative or not report.valid
    payload = {"sections": entries}
    return payload, lines, negative


def _cmd_catalog(args, _space, _forms):
    entry = build_catalog_space(args.name, _parse_params(args.params))
    if args.export:
        text = export_presentation(entry.presentation)
        payload = {"name": args.name, "export": text}
        return payload, [text.rstrip("\n")], False
    p = entry.presentation
    payload = {
        "name": args.name,
        "params": entry.params,
        "charts": [{"id": cid, "dim": dim} for cid, dim in p.charts],
        "arrows": len(p.arrows),
        "ambient_dim": None if p.ambient is None else p.ambient.dim,
        "wedge": p.wedge_type,
        "oracle": entry.oracle,
        "notes": entry.notes,
    }
    lines = [
        f"space {p.name} (params {entry.params})",
        "charts: " + ", ".join(f"{cid}:R^{dim}" for cid, dim in p.charts),
        f"arrows: {len(p.arrows)}",
        f"ambient: {'R^' + str(p.ambient.dim) if p.ambient else 'none'}",
        f"wedge: {'yes' if p.wedge_type else 'no'}",
        "expected values:",
    ]
    for key in sorted(entry.oracle):
        lines.append(f"  {key} = {entry.oracle[key]}")
    return payload, lines, False


# parse_args returns a fresh Namespace per call, so one parser serves them all
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit a JSON report")
    common.add_argument(
        "--strict",
        action="store_true",
        help="exit with 1 when a verdict is negative",
    )

    parser = argparse.ArgumentParser(
        prog="diffeo-kit",
        description="exact tangent fibres, comparison maps and differential "
        "forms for finitely presented diffeological spaces",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def add(name, handler, help_text):
        cmd = sub.add_parser(name, parents=[common], help=help_text)
        cmd.set_defaults(handler=handler)
        if name != "catalog":
            cmd.add_argument("file", help="presentation file or catalog:NAME")
            cmd.add_argument(
                "--params",
                nargs="*",
                metavar="KEY=VALUE",
                help="catalog parameters, e.g. m=3",
            )
        return cmd

    cmd = add("tangent", _cmd_tangent, "fibre dimension of the degree-k colimit")
    cmd.add_argument("--k", type=int, default=1, help="degree (default 1)")

    cmd = add("rho", _cmd_rho, "comparison map with rank and verdicts")
    cmd.add_argument("--k", type=int, required=True, help="degree")

    cmd = add("check-form", _cmd_check_form, "compatibility of a named form")
    cmd.add_argument("--form", required=True, help="form name from the file")

    cmd = add("eval-form", _cmd_eval_form, "pointwise value of a named form")
    cmd.add_argument("--form", required=True, help="form name from the file")

    cmd = add("filtered", _cmd_filtered, "filteredness verdicts within a closure bound")
    cmd.add_argument("--depth", type=int, default=4, help="closure depth (default 4)")

    cmd = add("sections", _cmd_sections, "check sections across the wedge point")
    cmd.add_argument("--data", required=True, help="section data file")

    cmd = add("catalog", _cmd_catalog, "inspect or export a built-in space")
    cmd.add_argument("name", help="one of: " + ", ".join(catalog_names()))
    cmd.add_argument(
        "--params", nargs="*", metavar="KEY=VALUE", help="builder parameters"
    )
    cmd.add_argument("--export", action="store_true", help="print the text format")

    return parser


def run_command(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        p, forms = None, {}
        if "file" in args:  # every command but catalog
            p, forms = _load_space(args.file, args.params)
        payload, lines, negative = args.handler(args, p, forms)
    except (ParseError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # a failed internal consistency check, an exhausted resource or any
        # other fault: never exit 1, which is the --strict negative verdict
        detail = " ".join(str(exc).split())
        name = type(exc).__name__
        print(f"internal error: {name}: {detail}" if detail else f"internal error: {name}",
              file=sys.stderr)
        return 3
    if args.json:
        payload["command"] = args.command
        if p is not None:
            payload["space"] = p.name
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)
    return 1 if negative and args.strict else 0


def main() -> None:
    # a closed output pipe ends the process by SIGPIPE, as it does other
    # command-line tools, instead of a BrokenPipeError traceback and exit 1
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
