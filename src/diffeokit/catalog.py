"""Built-in presentations with their expected values.

Every entry carries an oracle table: the dimensions and verdicts the entry
is expected to produce, each with a one-line note saying why.  The test
suite re-derives every table entry from scratch; any drift fails the build.

``axes_subset`` and ``wedge_lines(2)`` share the same germ diagram on the
nose: polynomial germs cannot tell the two apart.  What distinguishes them
here is the ambient embedding carried by ``axes_subset``, which is exactly
the data that makes ambient-form evaluation on the tangent fibre express
more than chart-by-chart restriction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

from .linalg import rational
from .presentation import Ambient, Arrow, GermPresentation, PresentedMap
from .symcalc import Poly, PolyMap

__all__ = [
    "CatalogEntry",
    "build_catalog_space",
    "catalog_names",
    "default_params",
    "ambient_inclusion",
    "remark_wedge_point",
]


@dataclass
class CatalogEntry:
    name: str
    params: dict
    presentation: GermPresentation
    oracle: dict = field(default_factory=dict)
    notes: dict = field(default_factory=dict)


def _zero_germ(target_dim: int) -> PolyMap:
    return PolyMap.zero_map(0, target_dim)


def _euclidean(n: int) -> CatalogEntry:
    # the identity embedding doubles as ambient data, so ambient-form
    # evaluation works on the plane itself
    p = GermPresentation(
        "euclidean",
        [("e", n)],
        [],
        ambient=Ambient(n, {"e": PolyMap.identity(n)}),
    )
    oracle = {
        "tangent_dim": n,
        "t2_dim": comb(n, 2),
        "lambda2_dim": comb(n, 2),
        "weakly_filtered": "yes",
        "filtered": "yes",
        "rho2_injective": True,
        "rho2_surjective": True,
        "rho2_iso": True,
    }
    notes = {
        "tangent_dim": "a single chart with no relations keeps its full tangent space",
        "filtered": "one object with only the identity germ",
        "rho2_iso": "with a single chart both fibres are the same wedge of one tangent space",
    }
    return CatalogEntry("euclidean", {"n": n}, p, oracle, notes)


def _wedge_diagram(axis_names: list[str]) -> tuple[list, list]:
    charts = [("o", 0)] + [(a, 1) for a in axis_names]
    arrows = [
        Arrow(f"z{i + 1}", "o", a, _zero_germ(1)) for i, a in enumerate(axis_names)
    ]
    return charts, arrows


def _wedge_lines(m: int) -> CatalogEntry:
    axis_names = [f"x{i + 1}" for i in range(m)]
    charts, arrows = _wedge_diagram(axis_names)
    p = GermPresentation("wedge_lines", charts, arrows, wedge_type=True)
    oracle = {
        "tangent_dim": m,
        "t2_dim": 0,
        "lambda2_dim": comb(m, 2),
        "weakly_filtered": "yes" if m <= 1 else "no",
        "filtered": "yes" if m <= 1 else "no",
        "rho2_injective": True,
        "rho2_surjective": comb(m, 2) == 0,
        "rho2_iso": comb(m, 2) == 0,
    }
    notes = {
        "tangent_dim": "one tangent line per axis; the glue point contributes nothing",
        "t2_dim": "all charts are one-dimensional, so every degree-2 wedge fibre is zero",
        "weakly_filtered": "no chart receives germs from two distinct axes",
        "rho2_surjective": "a zero source cannot cover the wedge of independent axis directions",
    }
    return CatalogEntry("wedge_lines", {"m": m}, p, oracle, notes)


def _axes_subset() -> CatalogEntry:
    charts, arrows = _wedge_diagram(["x", "y"])
    embeddings = {
        "x": PolyMap(1, 2, [Poly.variable(1, 1), Poly.zero(1)]),
        "y": PolyMap(1, 2, [Poly.zero(1), Poly.variable(1, 1)]),
        "o": _zero_germ(2),
    }
    p = GermPresentation(
        "axes_subset", charts, arrows, ambient=Ambient(2, embeddings)
    )
    oracle = {
        "tangent_dim": 2,
        "t2_dim": 0,
        "lambda2_dim": 1,
        "weakly_filtered": "no",
        "filtered": "no",
        "rho2_injective": True,
        "rho2_surjective": False,
        "rho2_iso": False,
        "volume_restriction_is_zero": True,
        "tilde_volume_value": "1",
        "rho2_dual_injective": False,
    }
    notes = {
        "volume_restriction_is_zero": "each axis is one-dimensional, so degree-2 pullbacks vanish chart by chart",
        "tilde_volume_value": "the two axis directions push forward to a basis of the ambient plane",
        "rho2_dual_injective": "a functional on a one-dimensional wedge restricts to the zero fibre",
    }
    return CatalogEntry("axes_subset", {}, p, oracle, notes)


def _z2_quotient() -> CatalogEntry:
    neg = PolyMap(2, 2, [-Poly.variable(2, 1), -Poly.variable(2, 2)])
    p = GermPresentation("z2_quotient", [("c", 2)], [Arrow("neg", "c", "c", neg)])
    oracle = {
        "tangent_dim": 0,
        "t2_dim": 1,
        "lambda2_dim": 0,
        "weakly_filtered": "yes",
        "filtered": "no",
        "rho2_injective": False,
        "rho2_surjective": True,
        "rho2_iso": False,
    }
    notes = {
        "tangent_dim": "the negation germ identifies every tangent vector with its negative",
        "t2_dim": "negation has determinant one, so the degree-2 relation is trivial and one generator survives",
        "filtered": "no germ coequalizes the identity with negation",
        "rho2_injective": "a one-dimensional fibre maps to the zero wedge of a zero tangent space",
    }
    return CatalogEntry("z2_quotient", {}, p, oracle, notes)


def _spaghetti(m: int) -> CatalogEntry:
    line_names = [f"l{i + 1}" for i in range(m)]
    charts, arrows = _wedge_diagram(line_names)
    embeddings = {"o": _zero_germ(2)}
    for i, name in enumerate(line_names):
        slope = i + 1
        embeddings[name] = PolyMap(
            1, 2, [Poly.variable(1, 1), Poly.variable(1, 1) * slope]
        )
    p = GermPresentation(
        "spaghetti", charts, arrows, ambient=Ambient(2, embeddings)
    )
    oracle = {
        "tangent_dim": m,
        "t2_dim": 0,
        "lambda2_dim": comb(m, 2),
        "weakly_filtered": "yes" if m <= 1 else "no",
        "filtered": "yes" if m <= 1 else "no",
    }
    notes = {
        "tangent_dim": "lines of distinct slopes admit no germs between each other, "
        "so the colimit is a direct sum with one generator per line",
    }
    return CatalogEntry("spaghetti", {"m": m}, p, oracle, notes)


_BUILDERS = {
    "euclidean": (_euclidean, {"n": 2}),
    "wedge_lines": (_wedge_lines, {"m": 2}),
    "axes_subset": (_axes_subset, {}),
    "z2_quotient": (_z2_quotient, {}),
    "spaghetti": (_spaghetti, {"m": 3}),
}


def catalog_names() -> list[str]:
    return sorted(_BUILDERS)


def _builder(name: str):
    if name not in _BUILDERS:
        raise ValueError(f"unknown catalog space {name!r}; known: {', '.join(catalog_names())}")
    return _BUILDERS[name]


def default_params(name: str) -> dict:
    return dict(_builder(name)[1])


def build_catalog_space(name: str, params: dict | None = None) -> CatalogEntry:
    builder, defaults = _builder(name)
    merged = dict(defaults)
    for key, value in (params or {}).items():
        if key not in defaults:
            raise ValueError(f"catalog space {name!r} takes no parameter {key!r}")
        merged[key] = int(value)
    if "m" in merged and merged["m"] < 1:
        raise ValueError(f"parameter m must be >= 1, got {merged['m']}")
    if "n" in merged and merged["n"] < 0:
        raise ValueError(f"parameter n must be >= 0, got {merged['n']}")
    return builder(**merged)


def ambient_inclusion(p: GermPresentation) -> PresentedMap:
    """The presented map into the single-chart ambient space, read off the
    embeddings."""
    if p.ambient is None:
        raise ValueError(f"presentation {p.name!r} carries no ambient data")
    target = build_catalog_space("euclidean", {"n": p.ambient.dim}).presentation
    assignments = {
        cid: ("e", p.ambient.embeddings[cid]) for cid, _ in p.charts
    }
    return PresentedMap(p, target, assignments)


def remark_wedge_point(
    p: GermPresentation, chart_id: str, coordinate
) -> GermPresentation:
    """Re-mark a wedge-type presentation at a point of one axis.

    At a nonzero coordinate only the chosen one-dimensional chart passes
    through the new point; it is re-centered by translation and every
    other chart drops away.  At zero the presentation is returned as is.
    """
    t0 = rational(coordinate)
    if t0 == 0:
        return p
    dim = p.chart_dim(chart_id)
    if dim != 1:
        raise ValueError(
            f"re-marking needs a one-dimensional chart, {chart_id!r} has dimension {dim}"
        )

    def recenter(m: PolyMap) -> PolyMap:
        shift = [Poly.variable(1, 1) + Poly.constant(1, t0)]
        shifted = [c.substitute(shift, 1) for c in m.components]
        centered = [c - Poly.constant(1, c.constant_term) for c in shifted]
        return PolyMap(1, m.target_dim, centered)

    arrows = []
    for a in p.arrows:
        if a.src != chart_id or a.dst != chart_id:
            continue
        # only germs fixing the new marked point survive re-marking
        if a.germ.evaluate([t0]) != [t0]:
            continue
        arrows.append(Arrow(a.name, a.src, a.dst, recenter(a.germ)))
    ambient = None
    if p.ambient is not None:
        ambient = Ambient(
            p.ambient.dim, {chart_id: recenter(p.ambient.embeddings[chart_id])}
        )
    return GermPresentation(
        f"{p.name}_remarked", [(chart_id, 1)], arrows, ambient=ambient
    )
