"""Seeded input generators for the benchmark workloads.

A workload is a sequence of rounds.  Round ``r`` of workload ``w`` under seed
``s`` is a pure function of ``(w, s, r)``: generated input files plus a list
of operations, each carrying the facts its output must show.  Those facts
hold by construction of the inputs, so the output gate needs no second
implementation of the library.

This module imports nothing from ``diffeokit``: the parent process uses it
to write inputs and the worker uses it to run them.
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction
from itertools import combinations
from math import comb

WORKLOADS = ("glued_colimits", "wedge_powers", "closure_scan", "query_stream")

# Scaled operation time of one round (see README.md) at the commit that
# added the benchmark.  A run of S seconds executes round(S / ROUND_SECONDS)
# rounds, so both sides of a comparison do the same work.
ROUND_SECONDS = {
    "glued_colimits": 0.9,
    "wedge_powers": 3.6,
    "closure_scan": 2.85,
    "query_stream": 0.5,
}

# Scale factors of chart coordinates against global coordinates.  Non-unit
# values make the Jacobian entries real fractions.
_SCALES = [Fraction(v) for v in (1, -1, 2, -2, 3, "1/2", "-1/3", "3/2", "2/3", "-5/4")]
_COEFFS = [Fraction(v) for v in (1, -1, 2, -2, 3, "1/2", "-1/2", "3/2", "2/3", "-5/4")]


def rounds_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / ROUND_SECONDS[workload]))


def make_round(workload: str, seed: int, index: int) -> dict:
    """``{"files": {name: text}, "ops": [...], "cases": [...]}`` for one round."""
    rng = random.Random(f"{workload}:{seed}:{index}")  # str seeds: stable across processes
    return _ROUNDS[workload](rng, seed, index)


# -- polynomials as {exponents: Fraction} -------------------------------------


def _monomial(nvars: int, *indices: int) -> tuple[int, ...]:
    exps = [0] * nvars
    for i in indices:
        exps[i] += 1
    return tuple(exps)


def _poly_add(p: dict, q: dict, factor: Fraction = Fraction(1)) -> dict:
    out = dict(p)
    for e, c in q.items():
        v = out.get(e, 0) + factor * c
        if v:
            out[e] = v
        else:
            out.pop(e, None)
    return out


def _poly_mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            out = _poly_add(out, {tuple(a + b for a, b in zip(e1, e2)): c1 * c2})
    return out


def _poly_diff(p: dict, i: int) -> dict:
    out = {}
    for e, c in p.items():
        if e[i]:
            d = list(e)
            d[i] -= 1
            out[tuple(d)] = c * e[i]
    return out


def _prod(values) -> Fraction:
    out = Fraction(1)
    for v in values:
        out *= v
    return out


def _render(p: dict) -> str:
    if not p:
        return "0"
    parts = []
    for e in sorted(p, reverse=True):
        factors = [f"s{i + 1}" + (f"^{k}" if k > 1 else "") for i, k in enumerate(e) if k]
        mag = abs(p[e])
        if not factors:
            body = str(mag)
        else:
            body = "*".join(factors if mag == 1 else [str(mag)] + factors)
        parts.append(("-" if p[e] < 0 else "+", body))
    text = ("-" if parts[0][0] == "-" else "") + parts[0][1]
    return text + "".join(f" {sign} {body}" for sign, body in parts[1:])


def _render_map(polys: list[dict]) -> str:
    return "[" + ", ".join(_render(p) for p in polys) + "]"


def _render_form(coeffs: dict) -> str:
    """A form given as {0-based subset: polynomial}, in the d[...] syntax."""
    parts = [
        f"({_render(p)}) d[{','.join(str(i + 1) for i in subset)}]"
        for subset, p in sorted(coeffs.items())
        if p
    ]
    return " + ".join(parts) if parts else "0"


# -- operations ---------------------------------------------------------------


def _key(content: str, command: str) -> str:
    return hashlib.sha256((content + "\0" + command).encode()).hexdigest()


def _cli(argv: list[str], check: dict, content: str, shape: str | None = None) -> dict:
    """A CLI operation.  ``@name`` in argv stands for a generated file.  The
    repeat key is the command with its flags plus the content it reads.  Ops
    of one shape (by default, one command) cost about the same in every
    round; the metrics take each shape's median scaled time in a run."""
    command = " ".join(a for a in argv if not a.startswith("@"))
    return {"kind": "cli", "argv": argv, "check": check, "command": command,
            "shape": shape or command, "key": _key(content, command)}


def _lib(kind: str, file: str, check: dict, content: str, **extra) -> dict:
    command = " ".join([kind] + [f"{k}={v}" for k, v in sorted(extra.items()) if k != "coeffs"])
    return {"kind": kind, "file": file, "check": check, "command": command, "shape": command,
            "key": _key(content, f"{command} {extra.get('coeffs')}"), **extra}


# -- glued_colimits -----------------------------------------------------------

# One size for every presentation: cost grows with the 2.5th power of the
# chart count, so random sizes would make runs of different seeds differ by
# more than the regression bounds.
GLUED_CHARTS = 20
GLUED_COMPONENTS = 2


def glued_presentation(rng: random.Random, name: str, n_charts: int) -> dict:
    """Charts of dimension 4 or 5 glued along scaled coordinate inclusions.

    Every component is a copy of R^5.  A chart holds all five global
    coordinates or four of them, each scaled by its own factor.  An arrow
    goes from chart i to chart j only when i's coordinates are a subset of
    j's, and its linear part is the scaled inclusion, so the diagram commutes
    at the linear level; about a third of the germ components get a
    quadratic term on top.  Every component has five-dimensional charts
    that every other chart of it reaches by an arrow, so the degree-k fibre
    colimit is Lambda^k R^5 per component whatever the quadratic terms are.

    The five-dimensional charts come last in the file.
    """
    n_full = n_charts // 4
    charts = []  # (component, global coordinates, scale per coordinate)
    for i in range(n_charts):
        if i < n_charts - n_full:
            drop = rng.randrange(5)
            coords = tuple(g for g in range(5) if g != drop)
        else:
            coords = (0, 1, 2, 3, 4)
        charts.append((i % GLUED_COMPONENTS, coords, {g: rng.choice(_SCALES) for g in coords}))

    tops = {
        c: [i for i, (comp, coords, _) in enumerate(charts) if comp == c and len(coords) == 5]
        for c in range(GLUED_COMPONENTS)
    }
    pairs = []
    for members in tops.values():
        for a, b in zip(members, members[1:]):
            pairs.append((b, a) if rng.random() < 0.5 else (a, b))
    for i, (comp, coords, _) in enumerate(charts):
        if len(coords) == 4:
            pairs.append((i, rng.choice(tops[comp])))
    while len(pairs) < 2 * n_charts:
        i, j = rng.randrange(n_charts), rng.randrange(n_charts)
        if i != j and charts[i][0] == charts[j][0] and set(charts[i][1]) <= set(charts[j][1]):
            pairs.append((i, j))

    lines = [f"space {name}"] + [f"chart c{i} : R^{len(c[1])}" for i, c in enumerate(charts)]
    jacobians = []
    for a, (i, j) in enumerate(pairs):
        _, ci, si = charts[i]
        _, cj, sj = charts[j]
        nv = len(ci)
        jac = [[Fraction(0)] * nv for _ in cj]
        comps = []
        for row, g in enumerate(cj):
            poly = {}
            if g in si:
                col = ci.index(g)
                jac[row][col] = sj[g] / si[g]
                poly[_monomial(nv, col)] = jac[row][col]
            if rng.random() < 0.35:
                x, y = rng.randrange(nv), rng.randrange(nv)
                poly = _poly_add(poly, {_monomial(nv, x, y): rng.choice(_COEFFS)})
            comps.append(poly)
        lines.append(f"arrow g{a} : c{i} -> c{j} = {_render_map(comps)}")
        jacobians.append((i, j, jac))
    return {
        "text": "\n".join(lines) + "\n",
        "dims": [len(c[1]) for c in charts],
        "jacobians": jacobians,
    }


def _glued_round(rng: random.Random, seed: int, index: int) -> dict:
    """One presentation, queried for both fibre dimensions and rho."""
    name = f"glued{index}"
    pres = glued_presentation(rng, name, GLUED_CHARTS)
    fname = f"{name}.dk"
    c = GLUED_COMPONENTS
    ops = [
        _cli(["tangent", f"@{fname}", "--k", str(k), "--json"],
             {"name": "tangent", "dim": comb(5, k) * c}, pres["text"])
        for k in (1, 2)
    ]
    ops.append(_cli(["rho", f"@{fname}", "--k", "2", "--json"],
                    {"name": "rho", "source_dim": 10 * c, "target_dim": comb(5 * c, 2),
                     "rank": 10 * c}, pres["text"]))
    rng.shuffle(ops)
    case = {"dims": pres["dims"], "jacobians": pres["jacobians"], "components": c}
    return {"files": {fname: pres["text"]}, "ops": ops, "cases": [case]}


# -- wedge_powers -------------------------------------------------------------

# (n, k, copies per round).  Costs differ by steps of 3-5x, so the copies put
# the median in the n=8 group and the tail percentile in the n=9 group for
# runs of 3 rounds (12 seconds), in the n=10 group from 4 rounds on.
WEDGE_MIX = ((7, 3, 3), (8, 4, 4), (9, 4, 1), (10, 5, 3))


def _wedge_round(rng: random.Random, seed: int, index: int) -> dict:
    ops = []
    for n, k, copies in WEDGE_MIX:
        argv = ["rho", "catalog:euclidean", "--params", f"n={n}", "--k", str(k), "--json"]
        check = {"name": "rho", "source_dim": comb(n, k), "target_dim": comb(n, k),
                 "rank": comb(n, k), "iso": True}
        ops.extend(_cli(argv, check, "catalog") for _ in range(copies))
    rng.shuffle(ops)
    return {"files": {}, "ops": ops, "cases": []}


# -- closure_scan -------------------------------------------------------------

CLOSURE_DEPTH = 3

# Near-identity triples on R^3: for each of the three germs and each
# coordinate, the quadratic monomial s_a*s_b added to that coordinate, if
# any.  How the monomials chain decides how fast the composites grow, so the
# cost of an instance is set by this pattern (0.1 s to several seconds over
# the patterns tried); this one takes about 0.4 s with any coefficients.
NEAR_IDENTITY_PATTERN = (
    ((0, 1), None, None),
    ((2, 1), (2, 0), None),
    ((1, 0), (1, 2), (2, 1)),
)
# Per round: near-identity instances, then signed-permutation instances.
# Three to two keeps the median inside the first group and, for runs of 4
# rounds (12 seconds) or of 6 or more, the tail percentile inside the second.
CLOSURE_MIX = (3, 2)


def _near_identity(rng: random.Random, name: str, pattern: tuple) -> str:
    """Three germs on R^3, each coordinate plus at most one quadratic monomial.

    A germ id + q with q != 0 has infinite order (the quadratic part of its
    n-th power is n q), so the closure is never reached.
    """
    relabel = list(range(3))
    rng.shuffle(relabel)
    lines = [f"space {name}", "chart c : R^3"]
    for g, germ in enumerate(pattern):
        comps = [None] * 3
        for i, mono in enumerate(germ):
            poly = {_monomial(3, relabel[i]): Fraction(1)}
            if mono is not None:
                monomial = _monomial(3, relabel[mono[0]], relabel[mono[1]])
                poly = _poly_add(poly, {monomial: rng.choice(_COEFFS)})
            comps[relabel[i]] = poly
        lines.append(f"arrow g{g} : c -> c = {_render_map(comps)}")
    return "\n".join(lines) + "\n"


def _signed_perm_group(gens: list[tuple]) -> tuple[int, int]:
    """Order of the group the signed permutations generate, and the longest
    word length needed to reach every element from the identity."""
    identity = ((0, 1, 2), (1, 1, 1))

    def compose(f, g):  # f after g; (perm, signs) maps x to (signs[i] * x[perm[i]])_i
        perm = tuple(g[0][f[0][i]] for i in range(3))
        signs = tuple(f[1][i] * g[1][f[0][i]] for i in range(3))
        return perm, signs

    seen = {identity}
    frontier = [identity]
    depth = 0
    while True:
        nxt = []
        for w in frontier:
            for g in gens:
                h = compose(g, w)
                if h not in seen:
                    seen.add(h)
                    nxt.append(h)
        if not nxt:
            return len(seen), depth
        depth += 1
        frontier = nxt


def _signed_perm_presentation(rng: random.Random, name: str) -> tuple[str, int]:
    """Two signed permutations of R^3 generating the whole group of order 48,
    plus a zero arrow to an R^0 chart that coequalizes every parallel pair."""
    while True:
        gens = []
        for _ in range(2):
            perm = list(range(3))
            rng.shuffle(perm)
            gens.append((tuple(perm), tuple(rng.choice((1, -1)) for _ in range(3))))
        order, depth = _signed_perm_group(gens)
        if order == 48:
            break
    lines = [f"space {name}", "chart c : R^3", "chart o : R^0"]
    for g, (perm, signs) in enumerate(gens):
        comps = [{_monomial(3, perm[i]): Fraction(signs[i])} for i in range(3)]
        lines.append(f"arrow g{g} : c -> c = {_render_map(comps)}")
    lines.append("arrow z : c -> o = []")
    return "\n".join(lines) + "\n", depth


def _closure_round(rng: random.Random, seed: int, index: int) -> dict:
    files, ops = {}, []
    for j in range(CLOSURE_MIX[0]):
        fname = f"near{index}x{j}.dk"
        files[fname] = _near_identity(rng, f"near{index}x{j}", NEAR_IDENTITY_PATTERN)
        check = {"name": "filtered", "weakly_filtered": "unknown", "filtered": "unknown",
                 "closure_reached": False, "arrow_count": [5, 40]}
        ops.append(_cli(["filtered", f"@{fname}", "--depth", str(CLOSURE_DEPTH), "--json"],
                        check, files[fname]))
    for j in range(CLOSURE_MIX[1]):
        fname = f"group{index}x{j}.dk"
        files[fname], depth = _signed_perm_presentation(rng, f"group{index}x{j}")
        check = {"name": "filtered", "weakly_filtered": "yes", "filtered": "yes",
                 "closure_reached": True, "arrow_count": [50, 50]}
        ops.append(_cli(["filtered", f"@{fname}", "--depth", str(depth), "--json"],
                        check, files[fname], shape="filtered signed-permutation group"))
    rng.shuffle(ops)
    return {"files": files, "ops": ops, "cases": []}


# -- query_stream -------------------------------------------------------------

QUERY_AMBIENT = 4  # ambient presentations per round
QUERY_BOUQUETS = 3  # wedge-type bouquets per round
QUERY_CATALOG = 8  # catalog requests per round, drawn without replacement


class _Split:
    """Random draws for one generated file: coefficient values come from
    ``values``, every other draw (sizes, which terms are present) from
    ``structure``.  Seeding ``structure`` by file slot alone gives the slot
    the same structure, and so about the same cost, in every round of every
    run; the seed then draws coefficients only, and runs of different seeds
    do the same work."""

    def __init__(self, structure: random.Random, values: random.Random) -> None:
        self.structure = structure
        self.values = values

    def choice(self, seq):
        return (self.values if seq is _COEFFS or seq is _SCALES else self.structure).choice(seq)

    def random(self) -> float:
        return self.structure.random()

    def randint(self, a: int, b: int) -> int:
        return self.structure.randint(a, b)

    def randrange(self, n: int) -> int:
        return self.structure.randrange(n)


def ambient_presentation(rng: random.Random, name: str, dim: int) -> dict:
    """Charts with polynomial embeddings into R^dim and arrows that commute
    with them exactly.

    The last charts are one or two "top" charts of dimension ``dim``
    embedded by a diagonal scaling.  Every other chart has a random pointed
    quadratic embedding and an arrow into every top chart (its embedding
    divided by the top's scales).  So the degree-k fibre colimit is
    Lambda^k of the last top chart, whose coordinates are the colimit basis.
    """
    n_low = rng.randint(2, 3)
    n_tops = rng.choice((1, 2))
    low = []
    for i in range(n_low):
        d = dim - 1 if i == 0 else rng.randint(1, dim - 1)
        emb = []
        for _ in range(dim):
            poly = {}
            for j in range(d):
                if rng.random() < 0.6:
                    poly[_monomial(d, j)] = rng.choice(_COEFFS)
            if rng.random() < 0.5:
                x, y = rng.randrange(d), rng.randrange(d)
                poly = _poly_add(poly, {_monomial(d, x, y): rng.choice(_COEFFS)})
            emb.append(poly)
        low.append((f"u{i}", d, emb))
    tops = [(f"t{i}", [rng.choice(_SCALES) for _ in range(dim)]) for i in range(n_tops)]

    lines = [f"space {name}"]
    lines += [f"chart {cid} : R^{d}" for cid, d, _ in low]
    lines += [f"chart {tid} : R^{dim}" for tid, _ in tops]
    arrows = []
    for cid, d, emb in low:
        for tid, scales in tops:
            germ = [{e: c / s for e, c in p.items()} for p, s in zip(emb, scales)]
            arrows.append((f"{cid}_{tid}", cid, tid, germ))
    links = [(0, 1)] if n_tops == 2 else []
    if links and rng.random() < 0.5:
        links.append((1, 0))
    for a, b in links:
        (ta, sa), (tb, sb) = tops[a], tops[b]
        germ = [{_monomial(dim, l): sa[l] / sb[l]} for l in range(dim)]
        arrows.append((f"{ta}_{tb}", ta, tb, germ))
    lines += [f"arrow {n} : {s} -> {t} = {_render_map(g)}" for n, s, t, g in arrows]
    lines.append(f"ambient {dim}")
    lines += [f"embed {cid} = {_render_map(emb)}" for cid, _, emb in low]
    for tid, scales in tops:
        diag = [{_monomial(dim, l): s} for l, s in enumerate(scales)]
        lines.append(f"embed {tid} = {_render_map(diag)}")
    return {
        "lines": lines,
        "low": low,
        "tops": tops,
        "arrows": [(n, s, t) for n, s, t, _ in arrows],
        "charts": n_low + n_tops,
    }


def _pullback_constant_form(coeffs: dict, emb: list[dict], d: int, k: int) -> dict:
    """Pullback of sum_I c_I dx_I along ``emb``: the ds_J coefficient is
    sum_I c_I det(d emb_I / d s_J), written out for degrees 1 and 2."""
    grads = [[_poly_diff(p, j) for j in range(d)] for p in emb]
    out = {}
    for J in combinations(range(d), k):
        acc = {}
        for I, c in coeffs.items():
            if k == 1:
                term = grads[I[0]][J[0]]
            else:
                (l, m), (a, b) = I, J
                term = _poly_add(_poly_mul(grads[l][a], grads[m][b]),
                                 _poly_mul(grads[l][b], grads[m][a]), Fraction(-1))
            acc = _poly_add(acc, term, c)
        out[J] = acc
    return out


def _ambient_requests(rng: random.Random, name: str, dim: int) -> tuple[str, list]:
    pres = ambient_presentation(rng, name, dim)
    last_scales = pres["tops"][-1][1]
    lines = list(pres["lines"])
    forms = []  # (form name, degree, ambient coefficients, value, compatible, failing arrow)
    for k in (1, 2):
        coeffs = {I: rng.choice(_COEFFS) for I in combinations(range(dim), k)}
        value = [str(c * _prod(last_scales[l] for l in I)) for I, c in coeffs.items()]
        chart_forms = {cid: _pullback_constant_form(coeffs, emb, d, k) for cid, d, emb in pres["low"]}
        for tid, scales in pres["tops"]:
            chart_forms[tid] = {I: {(0,) * dim: c * _prod(scales[l] for l in I)}
                                for I, c in coeffs.items()}
        lines.append(f"form w{k} : degree {k} on {name}")
        lines += [f"on {cid} : {_render_form(f)}" for cid, f in chart_forms.items() if f]
        forms.append((f"w{k}", k, coeffs, value, True, None))
        perturbable = [(cid, d) for cid, d, _ in pres["low"] if d >= k]
        if not perturbable:
            continue
        # only arrows out of the perturbed chart can fail, and they are
        # checked in file order
        cid, d = rng.choice(perturbable)
        bad = dict(chart_forms)
        J = tuple(range(k))
        bad[cid] = dict(bad[cid])
        bad[cid][J] = _poly_add(bad[cid][J], {_monomial(d, rng.randrange(d)): rng.choice(_COEFFS)})
        lines.append(f"form v{k} : degree {k} on {name}")
        lines += [f"on {c} : {_render_form(f)}" for c, f in bad.items() if f]
        failing = next(n for n, s, _ in pres["arrows"] if s == cid)
        forms.append((f"v{k}", k, None, None, False, failing))
    text = "\n".join(lines) + "\n"

    fname = f"{name}.dk"
    ops = [
        _cli(["tangent", f"@{fname}", "--json"], {"name": "tangent", "dim": dim}, text),
        _cli(["tangent", f"@{fname}", "--k", "2", "--json"],
             {"name": "tangent", "dim": comb(dim, 2)}, text),
        _cli(["rho", f"@{fname}", "--k", "2", "--json"],
             {"name": "rho", "source_dim": comb(dim, 2), "target_dim": comb(dim, 2),
              "rank": comb(dim, 2), "iso": True}, text),
    ]
    closure = pres["charts"] + len(pres["arrows"])  # identities plus one germ per arrow
    ops.append(_cli(["filtered", f"@{fname}", "--depth", "2", "--json"],
                    {"name": "filtered", "weakly_filtered": "yes", "filtered": "yes",
                     "closure_reached": True, "arrow_count": [closure, closure]}, text))
    for form, k, coeffs, value, ok, failing in forms:
        ops.append(_cli(["check-form", f"@{fname}", "--form", form, "--json"],
                        {"name": "check-form", "compatible": ok, "failing_arrow": failing}, text))
        ops.append(_cli(["eval-form", f"@{fname}", "--form", form, "--json"],
                        {"name": "eval-form", "compatible": ok, "failing_arrow": failing,
                         "fibre_dim": comb(dim, k), "coords": value}, text))
        if ok:
            ops.append(_lib("tilde", fname, {"name": "tilde", "value": value}, text,
                            dim=dim, degree=k, coeffs=[str(c) for c in coeffs.values()]))
    diag = [str(last_scales[l] * last_scales[m]) for l, m in combinations(range(dim), 2)]
    ops.append(_lib("pushforward", fname, {"name": "pushforward", "diagonal": diag}, text))
    return text, ops


def _bouquet_requests(rng: random.Random, name: str) -> tuple[str, str, list]:
    """A wedge of lines and planes at a point, with five sections.

    The bouquet has no relations, so its tangent fibre is the direct sum of
    the axes: a tangent section is smooth iff every value at the point is
    zero, and a cotangent section always is, with the concatenated values as
    its functional."""
    dims = [rng.randint(1, 2) for _ in range(rng.randint(2, 4))]
    space = [f"space {name}", "wedge", "chart o : R^0"]
    space += [f"chart a{i} : R^{d}" for i, d in enumerate(dims)]
    space += [f"arrow z{i} : o -> a{i} = []" for i in range(len(dims))]
    data, expected = [], {}
    for sname, bundle, zero_values, prescribed in (
        ("flat", "tangent", True, None),
        ("kinked", "tangent", False, None),
        ("covector", "cotangent", False, None),
        ("given", "cotangent", False, "right"),
        ("wrong", "cotangent", False, "wrong"),
    ):
        data.append(f"section {sname} : {bundle} on {name}")
        values = []
        for i, d in enumerate(dims):
            comps = []
            for _ in range(d):
                const = Fraction(0) if zero_values else rng.choice(_COEFFS)
                poly = _poly_add({(0,) * d: const} if const else {},
                                 {_monomial(d, rng.randrange(d)): rng.choice(_COEFFS)})
                comps.append(poly)
                values.append(const)
            data.append(f"on a{i} : {_render_map(comps)}")
        if prescribed:
            given = list(values)
            if prescribed == "wrong":
                given[0] += 1
            data.append("functional = [" + ", ".join(str(v) for v in given) + "]")
        valid = zero_values if bundle == "tangent" else prescribed != "wrong"
        expected[sname] = {
            "bundle": bundle,
            "valid": valid,
            "constraints": sum(dims) if bundle == "tangent" else 1,
            "functional": [str(v) for v in values] if bundle == "cotangent" and valid else None,
        }
    text, sections = "\n".join(space) + "\n", "\n".join(data) + "\n"
    fname, dname = f"{name}.dk", f"{name}.sec"
    ops = [
        _cli(["tangent", f"@{fname}", "--json"], {"name": "tangent", "dim": sum(dims)}, text),
        _cli(["sections", f"@{fname}", "--data", f"@{dname}", "--json"],
             {"name": "sections", "sections": expected}, text + sections),
    ]
    return text, sections, ops


def catalog_oracle(name: str, m: int) -> dict:
    """Expected values of a catalog space, restated from the README."""
    if name == "euclidean":
        return {"tangent_dim": m, "t2_dim": comb(m, 2), "lambda2_dim": comb(m, 2),
                "weakly_filtered": "yes", "filtered": "yes"}
    if name in ("wedge_lines", "spaghetti"):
        verdict = "yes" if m <= 1 else "no"
        return {"tangent_dim": m, "t2_dim": 0, "lambda2_dim": comb(m, 2),
                "weakly_filtered": verdict, "filtered": verdict}
    if name == "axes_subset":
        return {"tangent_dim": 2, "t2_dim": 0, "lambda2_dim": 1,
                "weakly_filtered": "no", "filtered": "no"}
    if name == "z2_quotient":
        return {"tangent_dim": 0, "t2_dim": 1, "lambda2_dim": 0,
                "weakly_filtered": "yes", "filtered": "no"}
    raise ValueError(f"no oracle for {name!r}")


def _catalog_pool(seed: int) -> list:
    """Every (command, catalog space) pair once, in seeded order."""
    spaces = [("euclidean", "n", m) for m in range(1, 11)]
    spaces += [(name, "m", m) for name in ("wedge_lines", "spaghetti") for m in range(1, 31)]
    spaces += [("axes_subset", None, 2), ("z2_quotient", None, 0)]
    pool = []
    for name, param, m in spaces:
        params = ["--params", f"{param}={m}"] if param else []
        ref = [f"catalog:{name}"] + params
        oracle = catalog_oracle(name, m)
        pool += [
            (["tangent"] + ref + ["--json"], {"name": "tangent", "dim": oracle["tangent_dim"]}),
            (["tangent"] + ref + ["--k", "2", "--json"], {"name": "tangent", "dim": oracle["t2_dim"]}),
            (["rho"] + ref + ["--k", "2", "--json"],
             {"name": "rho", "source_dim": oracle["t2_dim"], "target_dim": oracle["lambda2_dim"]}),
            (["filtered"] + ref + ["--depth", "3", "--json"],
             {"name": "filtered", "weakly_filtered": oracle["weakly_filtered"],
              "filtered": oracle["filtered"], "closure_reached": True}),
            (["catalog", name] + params + ["--json"], {"name": "catalog", "oracle": oracle}),
            (["catalog", name] + params + ["--export", "--json"], {"name": "export", "space": name}),
        ]
    random.Random(f"catalog:{seed}").shuffle(pool)
    return pool


def _slot(ops: list, slot: str | None) -> list:
    """Ops on the file of ``slot`` share a shape per command across rounds;
    catalog requests (``slot`` None) differ every round, so each is its own."""
    for op in ops:
        op["shape"] = f"{op['command']} @{slot}" if slot else op["key"]
    return ops


def _query_round(rng: random.Random, seed: int, index: int) -> dict:
    """Many small requests; no (content, command) pair repeats within a run
    until the catalog pool of 432 pairs runs out."""
    files, ops = {}, []
    for j in range(QUERY_AMBIENT):
        name = f"amb{index}x{j}"
        split = _Split(random.Random(f"query:amb{j}"), rng)
        files[f"{name}.dk"], more = _ambient_requests(split, name, 2 + j % 2)
        ops += _slot(more, f"amb{j}")
    for j in range(QUERY_BOUQUETS):
        name = f"bq{index}x{j}"
        split = _Split(random.Random(f"query:bq{j}"), rng)
        files[f"{name}.dk"], files[f"{name}.sec"], more = _bouquet_requests(split, name)
        ops += _slot(more, f"bq{j}")
    pool = _catalog_pool(seed)
    start = (index * QUERY_CATALOG) % len(pool)
    catalog = [_cli(argv, check, "catalog") for argv, check in (pool + pool)[start : start + QUERY_CATALOG]]
    ops += _slot(catalog, None)
    rng.shuffle(ops)
    return {"files": files, "ops": ops, "cases": []}


_ROUNDS = {
    "glued_colimits": _glued_round,
    "wedge_powers": _wedge_round,
    "closure_scan": _closure_round,
    "query_stream": _query_round,
}
