"""Golden CLI and library cases and their regenerator.

Each CLI case runs ``run_command`` in-process, in a directory holding the
input files below, and is stored as the sha256 of its exit code, stdout and
stderr.  ``tests/test_golden_cli.py`` checks every case against
``tests/golden_cli.json``.

Each library case calls one library function on seeded inputs and is stored
as the sha256 of its results rendered as ``p/q`` strings in row-major order:
a matrix row by row, a polynomial map or form one component at a time, each
component's terms sorted by exponent vector.  ``tests/test_golden.py`` checks
every case against ``tests/golden.json``.

Regenerate both files only when an output is meant to change:

    PYTHONPATH=src python tests/make_golden.py
"""

import contextlib
import hashlib
import io
import json
import os
import re
import sys
import tempfile
from pathlib import Path

import random
from fractions import Fraction

from diffeokit.catalog import ambient_inclusion, build_catalog_space, catalog_names
from diffeokit.cli import run_command
from diffeokit.forms import (
    PresentedForm,
    check_form_compatibility,
    check_sections,
    form_at_point,
    restrict_ambient_form,
    tilde_form_at_point,
)
from diffeokit.linalg import RatMat
from diffeokit.multilinear import exterior_power_map, index_basis
from diffeokit.symcalc import Poly, PolyForm, PolyMap, compose_maps, pullback_form
from diffeokit.tangent import (
    VectDiagram,
    apply_fibre_functor,
    pushforward_map,
    rho_map,
    vect_colimit,
    vect_limit,
)
from diffeokit.textio import parse_presentation

from util_rand import rand_diagram, rand_fraction, rand_matrix, rand_pointed_map, rand_poly

TESTS = Path(__file__).resolve().parent
GOLDEN = TESTS / "golden_cli.json"
GOLDEN_LIBRARY = TESTS / "golden.json"


def _readme_file() -> str:
    """The example file under "Presentation files" in README.md."""
    readme = (TESTS.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Presentation files", 1)[1]
    return re.search(r"```text\n(.*?)```", section, re.S).group(1)


FILES = {
    "readme.dk": _readme_file(),
    "wedge.dk": "space w\nwedge\nchart o : R^0\nchart x : R^1\nchart y : R^1\n"
    "arrow a : o -> x = []\narrow b : o -> y = []\n"
    "section t : tangent on w\non x : [s1]\non y : [1]\n"
    "section ell : cotangent on w\non x : [1 + s1]\non y : [2]\n"
    "functional = [1, 2]\n",
    "bad_char.dk": "space demo\nchart x : R^1\narrow f : x -> x = [s1 $ 2]\n",
    "bad_dim.dk": "space demo\nchart x : R^\n",
    "empty.dk": "\n",
}


def _cases() -> list[list[str]]:
    cases = []
    for name in catalog_names():
        ref = f"catalog:{name}"
        cases += [["tangent", ref, "--k", str(k)] for k in range(3)]
        cases += [["rho", ref, "--k", str(k)] for k in (1, 2)]
        cases.append(["filtered", ref, "--depth", "4"])
        cases += [["catalog", name], ["catalog", name, "--export"]]
    cases += [
        ["check-form", "readme.dk", "--form", "volume"],
        ["eval-form", "readme.dk", "--form", "volume"],
        ["sections", "readme.dk", "--data", "readme.dk"],
        ["sections", "wedge.dk", "--data", "wedge.dk"],
        # negative verdicts under --strict, each exit 1
        ["sections", "wedge.dk", "--data", "wedge.dk", "--strict"],
        ["rho", "catalog:z2_quotient", "--k", "2", "--strict"],
        ["filtered", "catalog:z2_quotient", "--strict"],
    ]
    cases = [argv + json_flag for argv in cases for json_flag in ([], ["--json"])]
    # input errors, each exit 2
    cases += [
        ["tangent", "missing.dk"],
        ["tangent", "catalog:torus"],
        ["catalog", "torus", "--json"],
        ["tangent", "bad_char.dk", "--json"],
        ["rho", "bad_dim.dk", "--k", "1"],
        ["tangent", "catalog:spaghetti", "--params", "m=lots"],
        ["catalog", "euclidean", "--params", "m=3"],
        ["check-form", "readme.dk", "--form", "nope"],
        ["eval-form", "catalog:euclidean", "--form", "volume"],
        ["sections", "catalog:wedge_lines", "--data", "empty.dk"],
        ["filtered", "catalog:z2_quotient", "--depth", "4", "--params", "m=1"],
    ]
    return cases


CASES = {" ".join(argv): argv for argv in _cases()}


def run_case(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_command(argv)
    return code, out.getvalue(), err.getvalue()


def digest(result: tuple[int, str, str]) -> str:
    return hashlib.sha256(json.dumps(result).encode("utf-8")).hexdigest()


@contextlib.contextmanager
def input_directory():
    """A temporary working directory that holds ``FILES``."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in FILES.items():
            Path(tmp, name).write_text(text, encoding="utf-8")
        os.chdir(tmp)
        try:
            yield
        finally:
            os.chdir(cwd)


# -- library cases --------------------------------------------------------------


def _matrix(m: RatMat) -> list:
    return [m.rows, m.cols, [str(x) for x in m.data]]


def _poly(p: Poly) -> list[str]:
    return [",".join(map(str, e)) + ":" + str(c) for e, c in sorted(p.terms.items())]


def _polys(ps) -> list:
    return [_poly(p) for p in ps]


def _family(w: PresentedForm) -> list:
    return [[cid, _polys(form.coeffs)] for cid, form in w.chart_forms.items()]


def _rand_poly(rng: random.Random, nvars: int, degree: int, pointed: bool = False) -> Poly:
    """Up to five terms with exponents up to ``degree``; zero only when a
    pointed polynomial of degree 0 is asked for."""
    while True:
        p = rand_poly(rng, nvars, degree, 5)
        if pointed:
            p = p - p.constant_term
        if p or (pointed and not degree):
            return p


def _rand_map(rng: random.Random, source: int, target: int, degree: int, pointed=False) -> PolyMap:
    comps = [_rand_poly(rng, source, degree, pointed) for _ in range(target)]
    return PolyMap(source, target, comps)


def _rand_form(rng: random.Random, nvars: int, k: int, degree: int) -> PolyForm:
    coeffs = [_rand_poly(rng, nvars, degree) for _ in index_basis(nvars, k).subsets]
    return PolyForm(nvars, k, coeffs)


def _compose_cases() -> dict:
    cases = {}
    rng = random.Random(20)
    for degree in range(4):
        for n in range(4):
            a, b, c = (rng.randint(1, 4) for _ in range(3))
            f = _rand_map(rng, b, c, degree)
            g = _rand_map(rng, a, b, rng.randint(0, 3))
            cases[f"compose d{degree} #{n} R^{a}->R^{b}->R^{c}"] = (
                lambda f=f, g=g: _polys(compose_maps(f, g).components)
            )
    return cases


def _power_cases() -> dict:
    """Outer monomials with exponents up to 8 in several variables, after
    inner maps of 2-3 variables with 2-4 terms each: these pin the powers
    that substitution expands."""
    cases = {}
    rng = random.Random(25)
    for n in range(8):
        a, b = rng.randint(2, 3), rng.randint(2, 3)
        inner = []
        for _ in range(b):
            terms, count = {}, rng.randint(2, 4)
            while len(terms) < count:
                terms[tuple(rng.randint(0, 2) for _ in range(a))] = rand_fraction(rng) or 1
            inner.append(Poly(a, terms))
        outer = []
        for _ in range(rng.randint(1, 2)):
            used = rng.sample(range(b), rng.randint(2, b))
            exps = tuple(rng.randint(1, 8) if i in used else 0 for i in range(b))
            outer.append(Poly(b, {exps: rand_fraction(rng) or 1}))
        f, g = PolyMap(b, len(outer), outer), PolyMap(a, b, inner)
        cases[f"compose powers #{n} R^{a}->R^{b}"] = (
            lambda f=f, g=g: _polys(compose_maps(f, g).components)
        )
    return cases


def _pullback_cases() -> dict:
    cases = {}
    rng = random.Random(21)
    for degree in range(4):
        for target in range(1, 5):
            source = rng.randint(1, 4)
            k = rng.randint(0, target)
            f = _rand_map(rng, source, target, rng.randint(1, 3), pointed=True)
            w = _rand_form(rng, target, k, degree)
            cases[f"pullback d{degree} k{k} R^{source}->R^{target}"] = (
                lambda w=w, f=f: _polys(pullback_form(w, f).coeffs)
            )
    return cases


def _exterior_power_cases() -> dict:
    rng = random.Random(22)
    sparse = RatMat(5, 6, [rand_fraction(rng) if rng.random() < 0.4 else 0 for _ in range(30)])
    matrices = {
        "dense 4x4": rand_matrix(rng, 4, 4),
        "dense 5x3": rand_matrix(rng, 5, 3),
        "sparse 5x6": sparse,
        "diagonal 5x5": RatMat(5, 5, [rng.randint(-3, 3) if i == j else 0
                                      for i in range(5) for j in range(5)]),
    }
    return {
        f"exterior_power {name} k{k}": lambda a=a, k=k: _matrix(exterior_power_map(a, k))
        for name, a in matrices.items()
        for k in range(5)
    }


def _render_map(f: PolyMap) -> str:
    return "[" + ", ".join(map(str, f.components)) + "]"


def _ambient_document(rng: random.Random, name: str, dim: int) -> str:
    """Low charts with arrows into one or two top charts of dimension
    ``dim``, with ambient data, in the style of the ``query_stream``
    benchmark files.

    Each low chart has a random pointed quadratic embedding into R^dim and
    an arrow into every top chart: its embedding divided by the top's
    diagonal scales.  Two tops are linked by the ratio of their scales."""
    low = []
    for i in range(rng.randint(2, 3)):
        d = dim - 1 if i == 0 else rng.randint(1, dim - 1)
        low.append((f"u{i}", d, rand_pointed_map(rng, d, dim)))
    tops = [
        (f"t{i}", [Fraction(rng.choice([1, -1, 2, 3]), rng.choice([1, 2])) for _ in range(dim)])
        for i in range(rng.choice((1, 2)))
    ]
    lines = [f"space {name}"]
    lines += [f"chart {cid} : R^{d}" for cid, d, _ in low]
    lines += [f"chart {tid} : R^{dim}" for tid, _ in tops]
    for cid, d, emb in low:
        for tid, scales in tops:
            germ = PolyMap(d, dim, [p * (1 / s) for p, s in zip(emb.components, scales)])
            lines.append(f"arrow {cid}_{tid} : {cid} -> {tid} = {_render_map(germ)}")
    if len(tops) == 2:
        (ta, sa), (tb, sb) = tops
        link = [Poly.variable(dim, l + 1) * (x / y) for l, (x, y) in enumerate(zip(sa, sb))]
        lines.append(f"arrow {ta}_{tb} : {ta} -> {tb} = {_render_map(PolyMap(dim, dim, link))}")
    lines.append(f"ambient {dim}")
    lines += [f"embed {cid} = {_render_map(emb)}" for cid, _, emb in low]
    for tid, scales in tops:
        diag = [Poly.variable(dim, l + 1) * s for l, s in enumerate(scales)]
        lines.append(f"embed {tid} = {_render_map(PolyMap(dim, dim, diag))}")
    return "\n".join(lines) + "\n"


def _ambient_cases() -> dict:
    """Compatible families restricted from ambient forms, their values at
    the point, one perturbed family's first residual, and the pushforwards
    into the ambient space."""
    cases = {}
    rng = random.Random(23)
    for n in range(4):
        dim = 3 + n % 2
        p = parse_presentation(_ambient_document(rng, f"amb{n}", dim)).presentation
        for k in (1, 2):
            w_amb = _rand_form(rng, dim, k, 1)
            # the first chart is a low one of dimension dim - 1 >= k
            u0, d = p.charts[0]
            coeffs = [Poly.zero(d)] * len(index_basis(d, k))
            coeffs[0] = Poly.variable(d, rng.randint(1, d)) * rng.choice([1, -2, Fraction(1, 3)])
            bump = PolyForm(d, k, coeffs)

            def restricted(p=p, w_amb=w_amb):
                family = restrict_ambient_form(p, w_amb)
                return [_family(family), _matrix(form_at_point(p, family).coords)]

            def residual(p=p, w_amb=w_amb, u0=u0, bump=bump):
                family = restrict_ambient_form(p, w_amb)
                forms = dict(family.chart_forms)
                forms[u0] = forms[u0] + bump
                report = check_form_compatibility(p, PresentedForm(w_amb.degree, forms))
                return [report.failing_arrow, _polys(report.residual.coeffs)]

            cases[f"ambient {p.name} form_at_point k{k}"] = restricted
            cases[f"ambient {p.name} residual k{k}"] = residual
            cases[f"ambient {p.name} tilde k{k}"] = lambda p=p, w_amb=w_amb: _matrix(
                tilde_form_at_point(p, w_amb)
            )
        cases[f"ambient {p.name} pushforward"] = lambda p=p: [
            _matrix(m) for k in (1, 2) for m in pushforward_map(ambient_inclusion(p), k)
        ]
    return cases


def _rho_cases() -> dict:
    spaces = [(name, {}) for name in catalog_names()]
    spaces += [("euclidean", {"n": 4}), ("spaghetti", {"m": 5}), ("wedge_lines", {"m": 3})]
    return {
        f"rho {name} {params} k{k}": lambda name=name, params=params, k=k: _matrix(
            rho_map(build_catalog_space(name, params).presentation, k)
        )
        for name, params in spaces
        for k in range(4)
    }


def _colimit(d: VectDiagram) -> list:
    c = vect_colimit(d)
    return [
        c.dim,
        _matrix(c.projection),
        _matrix(c.section),
        _matrix(c.relations.relation_basis),
        [_matrix(m) for m in c.cocones],
    ]


def _limit(d: VectDiagram) -> list:
    limit = vect_limit(d)
    return [limit.dim, [_matrix(m) for m in limit.cones]]


def _diagram_cases() -> dict:
    """Colimits and limits of 40 seeded random diagrams and of every catalog
    space's fibre diagram in degrees 0-3."""
    rng = random.Random(24)
    diagrams = {f"random #{n}": rand_diagram(rng) for n in range(40)}
    diagrams.update(
        (f"{name} k{k}", apply_fibre_functor(build_catalog_space(name).presentation, k))
        for name in catalog_names()
        for k in range(4)
    )
    cases = {}
    for name, d in diagrams.items():
        cases[f"colimit {name}"] = lambda d=d: _colimit(d)
        cases[f"limit {name}"] = lambda d=d: _limit(d)
    return cases


def _form_cases() -> dict:
    """The ambient volume form on ``axes_subset`` and the sections of
    ``wedge.dk``."""
    axes = build_catalog_space("axes_subset").presentation
    volume = PolyForm(2, 2, [Poly.constant(2, 1)])
    doc = parse_presentation(FILES["wedge.dk"])

    def sections():
        reports = check_sections(doc.presentation, list(doc.sections.values()))
        return [
            [r.valid, r.constraints, None if r.functional is None else _matrix(r.functional)]
            for r in reports
        ]

    return {
        "tilde axes_subset volume": lambda: _matrix(tilde_form_at_point(axes, volume)),
        "check_sections wedge.dk": sections,
    }


LIBRARY_CASES = {
    **_compose_cases(),
    **_power_cases(),
    **_pullback_cases(),
    **_exterior_power_cases(),
    **_ambient_cases(),
    **_rho_cases(),
    **_diagram_cases(),
    **_form_cases(),
}


def library_digests() -> dict[str, str]:
    return {
        case: hashlib.sha256(json.dumps(run()).encode("utf-8")).hexdigest()
        for case, run in LIBRARY_CASES.items()
    }


def main() -> None:
    with input_directory():
        golden = {case: digest(run_case(argv)) for case, argv in CASES.items()}
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(golden)} cases to {GOLDEN}", file=sys.stderr)
    library = library_digests()
    GOLDEN_LIBRARY.write_text(json.dumps(library, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(library)} cases to {GOLDEN_LIBRARY}", file=sys.stderr)


if __name__ == "__main__":
    main()
