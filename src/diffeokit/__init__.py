"""diffeo-kit: exact computations with finitely presented diffeological spaces.

Tangent fibres and their wedge powers are colimits of chart diagrams over
the rationals; differential forms are compatible families of chart-level
polynomial forms.  Everything is exact: dimensions, verdicts and pointwise
values carry zero tolerance.
"""

from .linalg import QuotientPresentation, RatMat, Rational, kernel_basis, solve_exact
from .multilinear import IndexBasis, curry_hom, exterior_power_map, index_basis, tensor_product_map, uncurry_hom
from .symcalc import (
    Poly,
    PolyForm,
    PolyMap,
    compose_maps,
    exterior_derivative,
    form_value_at_zero,
    jacobian_at_zero,
    pullback_form,
    wedge_forms,
)
from .presentation import (
    Ambient,
    Arrow,
    GermPresentation,
    PresentedMap,
    composition_closure,
    filteredness,
    validate_presentation,
    validate_presented_map,
)
from .tangent import (
    ColimitResult,
    LimitResult,
    VectDiagram,
    apply_fibre_functor,
    pushforward_map,
    rho_map,
    vect_colimit,
    vect_limit,
)
from .forms import (
    IncompatibleFormError,
    PointForm,
    PresentedForm,
    PresentedSection,
    check_form_compatibility,
    check_on_top_charts,
    check_section,
    check_sections,
    form_at_point,
    reachable_fibre_dim,
    restrict_ambient_form,
    rho_dual,
    tilde_form_along_map,
    tilde_form_at_point,
    vanishes_at_point,
)
from .catalog import (
    CatalogEntry,
    ambient_inclusion,
    build_catalog_space,
    catalog_names,
    remark_wedge_point,
)
from .textio import ParseError, export_presentation, parse_presentation, parse_sections

__version__ = "0.1.0"
