"""Output gate: compares each operation's output with the facts its inputs
were built to have.  Runs after the timed loop; every problem it finds
counts the operation as failed."""

from __future__ import annotations

import json


def problems(check: dict, code: int | None, output: str) -> list[str]:
    if code != 0:
        return [f"exit code {code}"]
    try:
        payload = json.loads(output)
    except ValueError:
        return ["output is not one JSON object"]
    return list(_CHECKS[check["name"]](check, payload))


def _same(payload: dict, check: dict, *keys: str):
    for key in keys:
        if key in check and payload.get(key) != check[key]:
            yield f"{key} is {payload.get(key)!r}, expected {check[key]!r}"


def _tangent(check, payload):
    yield from _same(payload, check, "dim")


def _rho(check, payload):
    yield from _same(payload, check, "source_dim", "target_dim", "rank", "iso")
    rank = payload.get("rank")
    if payload.get("injective") != (rank == payload.get("source_dim")):
        yield "injective verdict disagrees with the rank"
    if payload.get("surjective") != (rank == payload.get("target_dim")):
        yield "surjective verdict disagrees with the rank"


def _filtered(check, payload):
    yield from _same(payload, check, "weakly_filtered", "filtered", "closure_reached")
    if "arrow_count" in check:
        low, high = check["arrow_count"]
        if not low <= payload.get("arrow_count", -1) <= high:
            yield f"arrow_count {payload.get('arrow_count')} outside [{low}, {high}]"


def _check_form(check, payload):
    yield from _same(payload, check, "compatible", "failing_arrow")
    if check["compatible"] == (payload.get("residual") is not None):
        yield "residual present exactly when the form is compatible"


def _eval_form(check, payload):
    yield from _same(payload, check, "compatible")
    if check["compatible"]:
        yield from _same(payload, check, "fibre_dim", "coords")
    else:
        yield from _same(payload, check, "failing_arrow")


def _sections(check, payload):
    got = {entry["name"]: entry for entry in payload.get("sections", [])}
    if set(got) != set(check["sections"]):
        yield f"sections {sorted(got)}, expected {sorted(check['sections'])}"
        return
    for name, want in check["sections"].items():
        entry = got[name]
        for key in ("bundle", "valid", "functional"):
            if entry.get(key) != want[key]:
                yield f"section {name}: {key} is {entry.get(key)!r}, expected {want[key]!r}"
        if len(entry.get("constraints", [])) != want["constraints"]:
            yield f"section {name}: {len(entry.get('constraints', []))} constraints, expected {want['constraints']}"


def _catalog(check, payload):
    oracle = payload.get("oracle", {})
    for key, value in check["oracle"].items():
        if oracle.get(key) != value:
            yield f"oracle {key} is {oracle.get(key)!r}, expected {value!r}"


def _export(check, payload):
    if not payload.get("export", "").startswith(f"space {check['space']}\n"):
        yield "export does not start with the space declaration"


def _tilde(check, payload):
    yield from _same(payload, check, "value")


def _pushforward(check, payload):
    diag = check["diagonal"]
    n = len(diag)
    want = [diag[i] if i == j else "0" for i in range(n) for j in range(n)]
    for key in ("fibre_push", "wedge_push"):
        mat = payload.get(key, {})
        if (mat.get("rows"), mat.get("cols"), mat.get("entries")) != (n, n, want):
            yield f"{key} is not diag({', '.join(diag)})"


_CHECKS = {
    "tangent": _tangent,
    "rho": _rho,
    "filtered": _filtered,
    "check-form": _check_form,
    "eval-form": _eval_form,
    "sections": _sections,
    "catalog": _catalog,
    "export": _export,
    "tilde": _tilde,
    "pushforward": _pushforward,
}
