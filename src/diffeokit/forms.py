"""Differential forms as compatible families of chart-level forms.

A presented form assigns a polynomial form to every chart; it is
compatible when pulling the target form back along any presented germ
recovers the source form exactly.  Compatible families evaluate at the
marked point to linear functionals on the degree-k fibre colimit, which is
where all pointwise comparisons happen.

The space of all global forms is never materialized: the module works with
finite families and their pointwise spans.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .linalg import RatMat, kernel_basis, solve_exact
from .presentation import Arrow, GermPresentation, PresentedMap, require_valid
from .symcalc import (
    PolyForm,
    PolyMap,
    form_value_at_zero,
    jacobian_at_zero,
    pullback_form,
)
from .tangent import ColimitResult, _pushforward, _tangent_diagram, rho_map, vect_colimit
from .multilinear import exterior_power_map

__all__ = [
    "PresentedForm",
    "PointForm",
    "PresentedSection",
    "CompatibilityReport",
    "SectionReport",
    "IncompatibleFormError",
    "check_form_compatibility",
    "check_on_top_charts",
    "vanishes_at_point",
    "form_at_point",
    "restrict_ambient_form",
    "tilde_form_at_point",
    "tilde_form_along_map",
    "rho_dual",
    "reachable_fibre_dim",
    "check_section",
    "check_sections",
]


@dataclass(frozen=True)
class PresentedForm:
    """One polynomial form per chart; a candidate global form."""

    degree: int
    chart_forms: dict[str, PolyForm]
    name: str = field(default="", compare=False)


@dataclass(frozen=True)
class PointForm:
    """A linear functional on the degree-k fibre colimit at the marked point."""

    degree: int
    coords: RatMat  # 1 x fibre_dim row

    def is_zero(self) -> bool:
        return self.coords.is_zero()


@dataclass
class CompatibilityReport:
    ok: bool
    failing_arrow: str | None = None
    residual: PolyForm | None = None

    def __bool__(self) -> bool:
        return self.ok


class IncompatibleFormError(ValueError):
    def __init__(self, message: str, failing_arrow: str | None = None):
        super().__init__(message)
        self.failing_arrow = failing_arrow


def _require_shapes(p: GermPresentation, w: PresentedForm) -> None:
    for cid, dim in p.charts:
        form = w.chart_forms.get(cid)
        if form is None:
            raise ValueError(f"form {w.name!r} has no component on chart {cid!r}")
        if form.domain_dim != dim:
            raise ValueError(
                f"component on chart {cid!r} lives on R^{form.domain_dim}, "
                f"chart has dimension {dim}"
            )
        if form.degree != w.degree:
            raise ValueError(
                f"component on chart {cid!r} has degree {form.degree}, "
                f"family is declared degree {w.degree}"
            )


def check_form_compatibility(p: GermPresentation, w: PresentedForm) -> CompatibilityReport:
    """A family is compatible when every presented germ pulls the target
    component back to the source component, exactly.  On failure the
    counterexample arrow and the exact polynomial residual are reported."""
    require_valid(p)
    _require_shapes(p, w)
    return _first_incompatible(w, p.arrows)


def check_on_top_charts(p: GermPresentation, w: PresentedForm, n: int) -> CompatibilityReport:
    """Compatibility checked only along germs between top-dimensional charts.

    Only defined when the degree equals ``n`` and ``n`` is the maximal
    chart dimension.
    """
    require_valid(p)
    max_dim = max((dim for _, dim in p.charts), default=0)
    if n != max_dim:
        raise ValueError(f"top dimension is {max_dim}, got n={n}")
    if w.degree != n:
        raise ValueError(
            f"top-chart checking needs degree {n}, family has degree {w.degree}"
        )
    _require_shapes(p, w)
    top = [a for a in p.arrows if p.chart_dim(a.src) == n and p.chart_dim(a.dst) == n]
    return _first_incompatible(w, top)


def _first_incompatible(w: PresentedForm, arrows: list[Arrow]) -> CompatibilityReport:
    """The first arrow that does not pull the target component of ``w`` back
    to its source component, with the exact residual."""
    for a in arrows:
        residual = pullback_form(w.chart_forms[a.dst], a.germ) - w.chart_forms[a.src]
        if not residual.is_zero():
            return CompatibilityReport(False, a.name, residual)
    return CompatibilityReport(True)


def vanishes_at_point(w: PresentedForm) -> bool:
    """True when every component evaluates to zero at the marked point."""
    return all(
        form_value_at_zero(form).is_zero() for form in w.chart_forms.values()
    )


def form_at_point(p: GermPresentation, w: PresentedForm) -> PointForm:
    """Assemble the per-chart values at the marked point into a functional
    on the degree-k fibre colimit.

    Compatibility is required and implies that the assembled row
    annihilates the relation space; that is still asserted rather than
    trusted."""
    require_valid(p)
    _require_compatible(p, w)
    return _point_value(p, w, vect_colimit(_tangent_diagram(p).wedge(w.degree)))


def _require_compatible(p: GermPresentation, w: PresentedForm) -> None:
    _require_shapes(p, w)
    report = _first_incompatible(w, p.arrows)
    if not report.ok:
        raise IncompatibleFormError(
            f"form {w.name!r} is incompatible (counterexample arrow {report.failing_arrow!r})",
            report.failing_arrow,
        )


def _point_value(p: GermPresentation, w: PresentedForm, colim: ColimitResult) -> PointForm:
    """Value of a compatible family on the degree-k fibre colimit ``colim``."""
    blocks = [form_value_at_zero(w.chart_forms[cid]) for cid, _ in p.charts]
    return PointForm(w.degree, colim.descend(blocks, 1, "a compatible family"))


def _require_ambient(p: GermPresentation, w_amb: PolyForm) -> None:
    require_valid(p)
    if p.ambient is None:
        raise ValueError(f"presentation {p.name!r} carries no ambient data")
    if w_amb.domain_dim != p.ambient.dim:
        raise ValueError(
            f"ambient form lives on R^{w_amb.domain_dim}, ambient space is R^{p.ambient.dim}"
        )


def restrict_ambient_form(p: GermPresentation, w_amb: PolyForm) -> PresentedForm:
    """Pull an ambient form back along every chart embedding.

    The result is automatically compatible; that is asserted, not assumed.
    """
    _require_ambient(p, w_amb)
    chart_forms = {
        cid: pullback_form(w_amb, p.ambient.embeddings[cid]) for cid, _ in p.charts
    }
    result = PresentedForm(w_amb.degree, chart_forms, name="ambient-restriction")
    report = _first_incompatible(result, p.arrows)
    if not report.ok:
        raise AssertionError(
            "ambient restriction produced an incompatible family "
            f"(arrow {report.failing_arrow!r})"
        )
    return result


def tilde_form_at_point(p: GermPresentation, w_amb: PolyForm) -> RatMat:
    """Value of an ambient form on the k-th wedge of the tangent fibre.

    Computed as the pullback of the ambient value along the exterior power
    of the tangent pushforward into the ambient space; returned as a row
    functional on the wedge of the tangent colimit."""
    _require_ambient(p, w_amb)
    # the map from the tangent fibre colimit into the ambient tangent space
    tangent = vect_colimit(_tangent_diagram(p))
    blocks = [jacobian_at_zero(p.ambient.embeddings[cid]) for cid, _ in p.charts]
    push = tangent.descend(blocks, p.ambient.dim, "the ambient Jacobians")
    return form_value_at_zero(w_amb) @ exterior_power_map(push, w_amb.degree)


def tilde_form_along_map(
    m: PresentedMap, target_value: RatMat | PointForm, k: int
) -> RatMat:
    """Pull a functional on the k-th wedge of the target tangent fibre back
    along the wedge of the tangent pushforward of ``m``.

    A plain row is read as a functional on the tangent wedge.  A PointForm
    (a functional on the target's degree-k fibre) is first carried across
    the comparison map; when it does not factor through it, no tangent-wedge
    value exists and the call is rejected.
    """
    _, wedge_push, target_rho = _pushforward(m, k)
    if isinstance(target_value, PointForm):
        carried = solve_exact(target_rho.transpose(), target_value.coords.transpose())
        if carried is None:
            raise ValueError(
                "the pointwise value does not factor through the comparison map"
            )
        target_functional = carried.transpose()
    else:
        target_functional = target_value
    if target_functional.rows != 1 or target_functional.cols != wedge_push.rows:
        raise ValueError(
            f"expected a 1x{wedge_push.rows} functional, got "
            f"{target_functional.rows}x{target_functional.cols}"
        )
    return target_functional @ wedge_push


def rho_dual(p: GermPresentation, k: int) -> RatMat:
    """Transpose of the comparison map: functionals on the tangent wedge
    restrict to functionals on the degree-k fibre."""
    return rho_map(p, k).transpose()


def reachable_fibre_dim(p: GermPresentation, forms: list[PresentedForm]) -> int:
    """Dimension of the span of the pointwise values of the given family.

    This realizes, for a finite family, the fibre of globally extendable
    forms at the marked point.  An incompatible member is rejected by name.
    """
    if not forms:
        return 0
    degrees = {w.degree for w in forms}
    if len(degrees) > 1:
        raise ValueError(f"mixed degrees in family: {sorted(degrees)}")
    require_valid(p)
    for idx, w in enumerate(forms):
        try:
            _require_compatible(p, w)
        except IncompatibleFormError as exc:
            label = w.name or f"#{idx}"
            raise ValueError(f"family member {label} is incompatible: {exc}") from exc
    colim = vect_colimit(_tangent_diagram(p).wedge(forms[0].degree))
    return RatMat.vstack([_point_value(p, w, colim).coords for w in forms]).rank()


@dataclass(frozen=True)
class PresentedSection:
    """Per-chart symbolic data for a section of the tangent or cotangent
    bundle over a wedge-type presentation.

    For the tangent bundle each chart carries a polynomial map from chart
    coordinates to coefficient vectors in the chart's tangent frame; for
    the cotangent bundle the coefficients are dual, with an optional
    functional prescribing the value at the wedge point."""

    bundle: str  # "tangent" | "cotangent"
    chart_data: dict[str, PolyMap]
    point_functional: RatMat | None = None
    name: str = ""
    space: str = ""


@dataclass
class SectionReport:
    valid: bool
    bundle: str
    constraints: list[str] = field(default_factory=list)
    functional: RatMat | None = None


def _section_values_at_zero(p: GermPresentation, s: PresentedSection) -> dict[str, list]:
    if s.space and s.space != p.name:
        raise ValueError(f"section {s.name!r} is on space {s.space!r}, not on {p.name!r}")
    for cid in s.chart_data:
        if not p.has_chart(cid):
            raise ValueError(f"section gives data on chart {cid!r}, which {p.name!r} lacks")
    values = {}
    for cid, dim in p.charts:
        data = s.chart_data.get(cid)
        if data is None:
            if dim == 0:
                values[cid] = []
                continue
            raise ValueError(f"section gives no data on chart {cid!r}")
        if data.source_dim != dim or data.target_dim != dim:
            raise ValueError(
                f"section data on chart {cid!r} has shape R^{data.source_dim} -> "
                f"R^{data.target_dim}, expected R^{dim} -> R^{dim}"
            )
        values[cid] = [c.constant_term for c in data.components]
    return values


def check_section(p: GermPresentation, s: PresentedSection) -> SectionReport:
    """Decide smoothness of a section across the wedge point.

    Tangent case: the cocone images of the chart values at the marked
    point must agree as a single vector of the tangent colimit; with a
    zero-dimensional chart present this pins the common value to zero and
    forces the vanishing of every component whose cocone image is
    independent.  Cotangent case: the chart values form a functional on
    the direct sum, and the section is smooth exactly when it factors
    through the tangent colimit; the factorization is the one functional
    on the tangent fibre that restricts to every chart value.  Only
    wedge-type presentations are accepted; elsewhere the smoothness
    criterion encoded here is not justified."""
    return check_sections(p, [s])[0]


def check_sections(
    p: GermPresentation, sections: list[PresentedSection]
) -> list[SectionReport]:
    """``check_section`` for each of ``sections``, with one validation and
    one tangent colimit for them all."""
    require_valid(p)
    if not p.wedge_type:
        raise ValueError(
            f"presentation {p.name!r} is not wedge-type; section checking is undefined"
        )
    tangent = vect_colimit(_tangent_diagram(p))
    return [_check_section(p, s, tangent) for s in sections]


def _check_section(
    p: GermPresentation, s: PresentedSection, tangent: ColimitResult
) -> SectionReport:
    """``check_section`` given the tangent colimit of the valid ``p``."""
    if s.bundle not in ("tangent", "cotangent"):
        raise ValueError(f"unknown bundle selector {s.bundle!r}")
    values = _section_values_at_zero(p, s)

    if s.bundle == "tangent":
        images = [
            cocone @ RatMat.column(values[cid])
            for cocone, (cid, _) in zip(tangent.cocones, p.charts)
        ]
        valid = all(image == images[0] for image in images)
        constraints = []
        if any(dim == 0 for _, dim in p.charts):
            for cocone, (cid, dim) in zip(tangent.cocones, p.charts):
                ker = kernel_basis(cocone)
                constraints += [
                    f"component {comp + 1} of chart {cid!r} must vanish at the marked point"
                    for comp in range(dim)
                    if not ker.row_dicts[comp]
                ]
        else:
            constraints.append("all chart values must share one colimit image")
        return SectionReport(valid, "tangent", constraints)

    constraints = [
        f"functional l on the {tangent.dim}-dimensional tangent fibre with "
        f"l . cocone = chart value at the marked point, for every chart"
    ]
    ell = s.point_functional
    if ell is not None and (ell.rows != 1 or ell.cols != tangent.dim):
        raise ValueError(
            f"prescribed functional must be 1x{tangent.dim}, got {ell.rows}x{ell.cols}"
        )
    functional = tangent.factor([RatMat.row(values[cid]) for cid, _ in p.charts], 1)
    if ell is not None and functional != ell:
        functional = None
    return SectionReport(functional is not None, "cotangent", constraints, functional)
