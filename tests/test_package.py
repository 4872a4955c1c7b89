"""The package surface: ``diffeokit`` exports each library module's
``__all__`` and nothing is lost from the names it has always exported."""

import importlib
import pkgutil

import diffeokit

# every module but the command-line front end
LIBRARY_MODULES = [m.name for m in pkgutil.iter_modules(diffeokit.__path__) if m.name != "cli"]

# the package-level names as first published
EXPORTED = [
    "Ambient", "Arrow", "CatalogEntry", "ColimitResult", "GermPresentation",
    "IncompatibleFormError", "IndexBasis", "LimitResult", "ParseError", "PointForm",
    "Poly", "PolyForm", "PolyMap", "PresentedForm", "PresentedMap", "PresentedSection",
    "QuotientPresentation", "RatMat", "Rational", "VectDiagram", "ambient_inclusion",
    "apply_fibre_functor", "build_catalog_space", "catalog_names",
    "check_form_compatibility", "check_on_top_charts", "check_section", "check_sections",
    "compose_maps", "composition_closure", "curry_hom", "export_presentation",
    "exterior_derivative", "exterior_power_map", "filteredness", "form_at_point",
    "form_value_at_zero", "index_basis", "jacobian_at_zero", "kernel_basis",
    "parse_presentation", "parse_sections", "pullback_form", "pushforward_map",
    "reachable_fibre_dim", "remark_wedge_point", "restrict_ambient_form", "rho_dual",
    "rho_map", "solve_exact", "tensor_product_map", "tilde_form_along_map",
    "tilde_form_at_point", "uncurry_hom", "validate_presentation", "validate_presented_map",
    "vanishes_at_point", "vect_colimit", "vect_limit", "wedge_forms",
]


def test_every_module_name_is_a_package_name():
    assert len(LIBRARY_MODULES) == 8
    for name in LIBRARY_MODULES:
        module = importlib.import_module(f"diffeokit.{name}")
        for public in module.__all__:
            assert getattr(diffeokit, public, None) is getattr(module, public), (name, public)


def test_published_names_are_still_exported():
    assert len(EXPORTED) == 60
    assert [name for name in EXPORTED if not hasattr(diffeokit, name)] == []


def test_the_cli_stays_out_of_the_package_namespace():
    assert not hasattr(diffeokit, "run_command")
    assert not hasattr(diffeokit, "main")
