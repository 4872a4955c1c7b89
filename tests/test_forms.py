import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffeokit import forms
from diffeokit.catalog import ambient_inclusion
from diffeokit.forms import (
    IncompatibleFormError,
    PresentedForm,
    PresentedSection,
    check_form_compatibility,
    check_on_top_charts,
    check_section,
    form_at_point,
    reachable_fibre_dim,
    restrict_ambient_form,
    rho_dual,
    tilde_form_along_map,
    tilde_form_at_point,
    vanishes_at_point,
)
from diffeokit.linalg import RatMat, solve_exact
from diffeokit.presentation import Ambient, Arrow, GermPresentation
from diffeokit.symcalc import Poly, PolyForm, PolyMap, form_value_at_zero, pullback_form
from diffeokit.tangent import apply_fibre_functor, pushforward_map, rho_map, vect_colimit
from util_rand import rand_poly

from diffeokit.catalog import build_catalog_space as build


def space(name, **params):
    return build(name, params or None).presentation


def s(nvars, i):
    return Poly.variable(nvars, i)


def dform(nvars, *subset):
    return PolyForm.from_terms(nvars, len(subset), {subset: Poly.constant(nvars, 1)})


def wedge_family(f: Poly, g: Poly, degree=1) -> PresentedForm:
    """f(s) ds on the first axis, g(s) ds on the second, zero on the point."""
    return PresentedForm(
        degree,
        {
            "o": PolyForm.zero(0, degree),
            "x1": PolyForm.from_terms(1, 1, {(1,): f}),
            "x2": PolyForm.from_terms(1, 1, {(1,): g}),
        },
    )


z2_volume = PresentedForm(2, {"c": dform(2, 1, 2)}, name="vol")


class TestCompatibility:
    def test_any_pair_of_axis_forms_is_compatible(self):
        rng = random.Random(97)
        p = space("wedge_lines", m=2)
        for _ in range(25):
            family = wedge_family(rand_poly(rng, 1, 3), rand_poly(rng, 1, 3))
            assert check_form_compatibility(p, family).ok

    def test_z2_volume_form_compatible(self):
        assert check_form_compatibility(space("z2_quotient"), z2_volume).ok

    def test_report_is_truthy_exactly_when_ok(self):
        p = space("z2_quotient")
        assert bool(check_form_compatibility(p, z2_volume)) is True
        assert bool(check_form_compatibility(p, PresentedForm(1, {"c": dform(2, 1)}))) is False

    def test_z2_one_form_incompatible_with_counterexample(self):
        family = PresentedForm(1, {"c": dform(2, 1)}, name="dx")
        report = check_form_compatibility(space("z2_quotient"), family)
        assert not report.ok
        assert report.failing_arrow == "neg"
        # pullback along negation is -dx, so the residual is -2 dx
        assert report.residual == dform(2, 1).scale(-2)

    def test_shape_mismatch_rejected_before_checking(self):
        p = space("z2_quotient")
        with pytest.raises(ValueError):
            check_form_compatibility(p, PresentedForm(1, {"c": dform(1, 1)}))
        with pytest.raises(ValueError):
            check_form_compatibility(p, PresentedForm(1, {}))


class TestTopChartChecking:
    def test_agrees_with_full_check_on_wedge(self):
        rng = random.Random(101)
        p = space("wedge_lines", m=2)
        for _ in range(50):
            family = wedge_family(rand_poly(rng, 1, 3), rand_poly(rng, 1, 3))
            top = check_on_top_charts(p, family, 1)
            full = check_form_compatibility(p, family)
            assert top.ok == full.ok

    def test_coincides_with_full_check_on_single_chart(self):
        rng = random.Random(103)
        p = space("z2_quotient")
        for _ in range(25):
            coeff = rand_poly(rng, 2, 2)
            family = PresentedForm(
                2, {"c": PolyForm.from_terms(2, 2, {(1, 2): coeff})}
            )
            top = check_on_top_charts(p, family, 2)
            full = check_form_compatibility(p, family)
            assert top.ok == full.ok

    def test_plane_forms_always_compatible(self):
        rng = random.Random(107)
        p = space("euclidean", n=2)
        for _ in range(10):
            family = PresentedForm(
                2, {"e": PolyForm.from_terms(2, 2, {(1, 2): rand_poly(rng, 2)})}
            )
            assert check_on_top_charts(p, family, 2).ok

    def test_wrong_degree_rejected(self):
        p = space("wedge_lines", m=2)
        with pytest.raises(ValueError):
            check_on_top_charts(p, wedge_family(Poly.zero(1), Poly.zero(1)), 2)
        family2 = PresentedForm(
            2,
            {
                "o": PolyForm.zero(0, 2),
                "x1": PolyForm.zero(1, 2),
                "x2": PolyForm.zero(1, 2),
            },
        )
        with pytest.raises(ValueError):
            check_on_top_charts(p, family2, 1)


class TestVanishing:
    def test_family_with_vanishing_coefficients(self):
        family = wedge_family(s(1, 1), s(1, 1) ** 2)
        assert vanishes_at_point(family)

    def test_constant_family_does_not_vanish(self):
        family = wedge_family(Poly.constant(1, 1), Poly.constant(1, 1))
        assert not vanishes_at_point(family)

    def test_z2_volume_does_not_vanish(self):
        assert not vanishes_at_point(z2_volume)


class TestFormAtPoint:
    def test_z2_volume_evaluates_nonzero(self):
        value = form_at_point(space("z2_quotient"), z2_volume)
        assert value.coords == RatMat.row([1])
        assert not value.is_zero()

    def test_vanishing_family_evaluates_to_zero(self):
        family = wedge_family(s(1, 1) * 2, s(1, 1) ** 3)
        value = form_at_point(space("wedge_lines", m=2), family)
        assert value.is_zero()

    def test_wedge_constants_give_cocone_coordinates(self):
        family = wedge_family(Poly.constant(1, 2), Poly.constant(1, 3))
        value = form_at_point(space("wedge_lines", m=2), family)
        assert value.coords == RatMat.row([2, 3])

    def test_incompatible_family_rejected_with_arrow(self):
        family = PresentedForm(1, {"c": dform(2, 1)})
        with pytest.raises(IncompatibleFormError) as err:
            form_at_point(space("z2_quotient"), family)
        assert err.value.failing_arrow == "neg"

    def test_degree_zero_family_evaluates_on_the_components_fibre(self):
        # a degree-0 family is a function germ; compatibility glues the
        # constants and the fibre collapses the wedge to one slot
        p = space("wedge_lines", m=2)
        constant = Fraction(7, 2)
        family = PresentedForm(
            0,
            {
                "o": PolyForm(0, 0, (Poly.constant(0, constant),)),
                "x1": PolyForm(1, 0, (Poly.constant(1, constant) + s(1, 1),)),
                "x2": PolyForm(1, 0, (Poly.constant(1, constant),)),
            },
        )
        assert check_form_compatibility(p, family).ok
        value = form_at_point(p, family)
        assert value.coords.cols == 1
        # the glued value at the point is the shared constant, whatever
        # colimit coordinate normalization is in use
        colim = vect_colimit(apply_fibre_functor(p, 0))
        slotwise = RatMat.hstack(
            [RatMat.row([constant])] * 3, rows=1
        )
        assert value.coords == slotwise @ colim.section


class TestAmbientRestriction:
    def test_volume_restricts_to_zero_on_axes(self):
        restricted = restrict_ambient_form(space("axes_subset"), dform(2, 1, 2))
        assert all(f.is_zero() for f in restricted.chart_forms.values())

    def test_dx_restricts_chartwise(self):
        restricted = restrict_ambient_form(space("axes_subset"), dform(2, 1))
        assert restricted.chart_forms["x"] == dform(1, 1)
        assert restricted.chart_forms["y"].is_zero()
        assert restricted.chart_forms["o"].is_zero()

    def test_dx_restricts_to_every_spaghetti_line(self):
        restricted = restrict_ambient_form(space("spaghetti", m=3), dform(2, 1))
        for line in ("l1", "l2", "l3"):
            assert restricted.chart_forms[line] == dform(1, 1)

    def test_restriction_is_always_compatible(self):
        rng = random.Random(109)
        for name in ("axes_subset", "spaghetti"):
            p = space(name)
            for degree in (0, 1, 2):
                coeffs = [
                    rand_poly(rng, 2)
                    for _ in range(len(PolyForm.zero(2, degree).coeffs))
                ]
                w = PolyForm(2, degree, coeffs)
                restricted = restrict_ambient_form(p, w)
                assert check_form_compatibility(p, restricted).ok

    def test_missing_ambient_rejected(self):
        with pytest.raises(ValueError):
            restrict_ambient_form(space("wedge_lines", m=2), dform(2, 1))


class TestTildeValues:
    def test_axes_volume_value_is_one(self):
        value = tilde_form_at_point(space("axes_subset"), dform(2, 1, 2))
        assert value == RatMat.row([1])

    def test_zero_ambient_form_gives_zero(self):
        value = tilde_form_at_point(space("axes_subset"), PolyForm.zero(2, 2))
        assert value.is_zero()

    def test_plane_volume_on_itself(self):
        value = tilde_form_at_point(space("euclidean", n=2), dform(2, 1, 2))
        assert value == RatMat.row([1])

    def test_along_map_variant_agrees_with_ambient_variant(self):
        p = space("axes_subset")
        inclusion = ambient_inclusion(p)
        target_value = form_value_at_zero(dform(2, 1, 2))  # on the plane wedge
        via_map = tilde_form_along_map(inclusion, target_value, 2)
        assert via_map == tilde_form_at_point(p, dform(2, 1, 2))

    def test_degree_mismatch_rejected(self):
        inclusion = ambient_inclusion(space("axes_subset"))
        with pytest.raises(ValueError):
            tilde_form_along_map(inclusion, RatMat.row([1, 2]), 2)

    def test_point_form_input_carries_across_the_comparison_map(self):
        p = space("axes_subset")
        inclusion = ambient_inclusion(p)
        target = inclusion.target
        volume_family = PresentedForm(2, {"e": dform(2, 1, 2)})
        value = form_at_point(target, volume_family)
        via_point_form = tilde_form_along_map(inclusion, value, 2)
        assert via_point_form == tilde_form_at_point(p, dform(2, 1, 2))

    def test_point_form_that_does_not_factor_is_rejected(self):
        p = space("z2_quotient")
        value = form_at_point(p, z2_volume)
        from diffeokit.presentation import PresentedMap

        with pytest.raises(ValueError):
            tilde_form_along_map(PresentedMap.identity(p), value, 2)

    def test_point_form_input_builds_each_colimit_once(self, call_counts):
        inclusion = ambient_inclusion(space("axes_subset"))
        value = form_at_point(inclusion.target, PresentedForm(2, {"e": dform(2, 1, 2)}))
        call_counts.clear()
        tilde_form_along_map(inclusion, value, 2)
        assert call_counts["vect_colimit"] == 4
        assert call_counts["validate_presentation"] == 2


class TestRhoDual:
    def test_plane_dual_invertible(self):
        for k in (0, 1, 2):
            assert rho_dual(space("euclidean", n=2), k).is_invertible()

    def test_axes_dual_not_injective(self):
        rd = rho_dual(space("axes_subset"), 2)
        assert (rd.rows, rd.cols) == (0, 1)
        assert not rd.is_injective()

    def test_z2_nonzero_value_has_no_preimage(self):
        p = space("z2_quotient")
        value = form_at_point(p, z2_volume)
        rd = rho_dual(p, 2)
        assert (rd.rows, rd.cols) == (1, 0)
        assert solve_exact(rd, value.coords.transpose()) is None

    def test_dual_composes_with_tilde_to_pointwise_value(self):
        # restricting an ambient form and evaluating equals pushing its
        # tangent-wedge value through the transposed comparison map
        for name in ("euclidean", "axes_subset", "spaghetti"):
            p = space(name)
            for w in (dform(2, 1), dform(2, 2), dform(2, 1, 2)):
                lhs = form_at_point(p, restrict_ambient_form(p, w)).coords
                rhs = tilde_form_at_point(p, w) @ rho_map(p, w.degree)
                assert lhs == rhs


class TestReachableFibre:
    def test_wedge_basis_forms_span_the_plane(self):
        p = space("wedge_lines", m=2)
        family = [
            wedge_family(Poly.constant(1, 1), Poly.zero(1)),
            wedge_family(Poly.zero(1), Poly.constant(1, 1)),
        ]
        assert reachable_fibre_dim(p, family) == 2

    def test_empty_family_spans_nothing(self):
        assert reachable_fibre_dim(space("wedge_lines", m=2), []) == 0

    def test_proportional_values_span_a_line(self):
        p = space("z2_quotient")
        doubled = PresentedForm(2, {"c": dform(2, 1, 2).scale(2)}, name="2vol")
        assert reachable_fibre_dim(p, [z2_volume, doubled]) == 1

    def test_incompatible_member_is_named(self):
        p = space("z2_quotient")
        bad = PresentedForm(2, {"c": PolyForm.from_terms(2, 2, {(1, 2): s(2, 1)})}, name="odd")
        with pytest.raises(ValueError) as err:
            reachable_fibre_dim(p, [z2_volume, bad])
        assert "odd" in str(err.value)

    def test_mixed_degrees_are_rejected(self):
        family = [z2_volume, PresentedForm(1, {"c": dform(2, 1)})]
        with pytest.raises(ValueError, match=r"mixed degrees in family: \[1, 2\]"):
            reachable_fibre_dim(space("z2_quotient"), family)

    def test_family_shares_one_colimit(self, call_counts):
        p = space("z2_quotient")
        doubled = PresentedForm(2, {"c": dform(2, 1, 2).scale(2)}, name="2vol")
        call_counts.clear()
        reachable_fibre_dim(p, [z2_volume, doubled, z2_volume])
        assert call_counts == {
            "vect_colimit": 1, "validate_presentation": 1, "jacobian_at_zero": 1
        }


class TestNaturality:
    def test_pullback_families_evaluate_through_pushforward(self):
        rng = random.Random(113)
        for name in ("axes_subset", "spaghetti"):
            p = space(name)
            inclusion = ambient_inclusion(p)
            target = inclusion.target
            for degree in (0, 1, 2):
                coeffs = [
                    rand_poly(rng, 2)
                    for _ in range(len(PolyForm.zero(2, degree).coeffs))
                ]
                w = PolyForm(2, degree, coeffs)
                family = PresentedForm(degree, {"e": w})
                pulled = PresentedForm(
                    degree,
                    {
                        cid: pullback_form(w, inclusion.assignments[cid][1])
                        for cid, _ in p.charts
                    },
                )
                fibre_push, _ = pushforward_map(inclusion, degree)
                lhs = form_at_point(p, pulled).coords
                rhs = form_at_point(target, family).coords @ fibre_push
                assert lhs == rhs


class TestSections:
    def make_tangent(self, f: Poly, g: Poly) -> PresentedSection:
        return PresentedSection(
            "tangent",
            {"x1": PolyMap(1, 1, [f]), "x2": PolyMap(1, 1, [g])},
        )

    def make_cotangent(self, f: Poly, g: Poly, functional=None) -> PresentedSection:
        return PresentedSection(
            "cotangent",
            {"x1": PolyMap(1, 1, [f]), "x2": PolyMap(1, 1, [g])},
            point_functional=functional,
        )

    def test_missing_data_on_a_positive_dimensional_chart_is_an_error(self):
        # the zero-dimensional chart "o" may go without data, "x2" may not
        section = PresentedSection("tangent", {"x1": PolyMap(1, 1, [s(1, 1)])})
        with pytest.raises(ValueError, match="section gives no data on chart 'x2'"):
            check_section(space("wedge_lines", m=2), section)

    def test_data_of_the_wrong_shape_is_an_error(self):
        section = PresentedSection(
            "cotangent",
            {"x1": PolyMap(1, 2, [s(1, 1), s(1, 1)]), "x2": PolyMap(1, 1, [s(1, 1)])},
        )
        message = r"'x1' has shape R\^1 -> R\^2, expected R\^1 -> R\^1"
        with pytest.raises(ValueError, match=message):
            check_section(space("wedge_lines", m=2), section)

    def test_section_of_another_space_is_an_error(self):
        section = PresentedSection(
            "tangent",
            {"x1": PolyMap(1, 1, [s(1, 1)]), "x2": PolyMap(1, 1, [s(1, 1)])},
            name="t",
            space="other",
        )
        message = "section 't' is on space 'other', not on 'wedge_lines'"
        with pytest.raises(ValueError, match=message):
            check_section(space("wedge_lines", m=2), section)

    def test_data_on_a_chart_the_space_lacks_is_an_error(self):
        section = self.make_tangent(Poly.zero(1), Poly.zero(1))
        section.chart_data["x3"] = PolyMap(1, 1, [s(1, 1) * 5])
        message = "section gives data on chart 'x3', which 'wedge_lines' lacks"
        with pytest.raises(ValueError, match=message):
            check_section(space("wedge_lines", m=2), section)

    def test_unknown_bundle_selector_is_an_error(self):
        section = PresentedSection("normal", {"x1": PolyMap(1, 1, [s(1, 1)])})
        with pytest.raises(ValueError, match="unknown bundle selector 'normal'"):
            check_section(space("wedge_lines", m=2), section)

    def test_vanishing_pair_is_valid(self):
        p = space("wedge_lines", m=2)
        report = check_section(p, self.make_tangent(s(1, 1) ** 2, s(1, 1) ** 3))
        assert report.valid

    def test_non_vanishing_pair_reports_forced_constraints(self):
        p = space("wedge_lines", m=2)
        report = check_section(
            p, self.make_tangent(Poly.constant(1, 1) + s(1, 1), s(1, 1))
        )
        assert not report.valid
        assert any("x1" in c for c in report.constraints)
        assert any("x2" in c for c in report.constraints)

    def test_forced_constraints_exactly_for_independent_cocones(self):
        p = space("wedge_lines", m=3)
        report = check_section(
            p,
            PresentedSection(
                "tangent",
                {name: PolyMap(1, 1, [Poly.zero(1)]) for name in ("x1", "x2", "x3")},
            ),
        )
        assert report.valid
        assert len(report.constraints) == 3

    def test_cotangent_unconstrained_with_recovered_functional(self):
        p = space("wedge_lines", m=2)
        report = check_section(
            p,
            self.make_cotangent(
                Poly.constant(1, 1) + s(1, 1), Poly.constant(1, 2) - s(1, 1)
            ),
        )
        assert report.valid
        assert report.functional == RatMat.row([1, 2])

    def test_cotangent_prescribed_functional_must_match(self):
        p = space("wedge_lines", m=2)
        good = self.make_cotangent(
            Poly.constant(1, 1), Poly.constant(1, 2), RatMat.row([1, 2])
        )
        assert check_section(p, good).valid
        bad = self.make_cotangent(
            Poly.constant(1, 1), Poly.constant(1, 2), RatMat.row([1, 3])
        )
        assert not check_section(p, bad).valid

    def test_non_wedge_presentation_rejected(self):
        with pytest.raises(ValueError):
            check_section(
                space("z2_quotient"),
                PresentedSection("tangent", {"c": PolyMap.zero_map(2, 2)}),
            )

    def test_degenerate_leg_is_not_forced(self):
        # a self-germ collapsing one leg's tangent direction: that leg's
        # coefficient is unconstrained, the surviving leg is still forced
        from diffeokit.presentation import Arrow, GermPresentation

        p = GermPresentation(
            "degenerate_wedge",
            [("o", 0), ("a", 1), ("b", 1)],
            [
                Arrow("za", "o", "a", PolyMap.zero_map(0, 1)),
                Arrow("zb", "o", "b", PolyMap.zero_map(0, 1)),
                Arrow("kill", "a", "a", PolyMap.zero_map(1, 1)),
            ],
            wedge_type=True,
        )
        report = check_section(
            p,
            PresentedSection(
                "tangent",
                {
                    "a": PolyMap(1, 1, [Poly.constant(1, 5)]),
                    "b": PolyMap(1, 1, [s(1, 1)]),
                },
            ),
        )
        assert report.valid
        assert all("'a'" not in c for c in report.constraints)
        assert any("'b'" in c for c in report.constraints)

    def test_without_a_point_chart_values_must_share_one_image(self):
        # two lines glued by the identity: no zero-dimensional chart forces
        # a component, so the only constraint is a common colimit image
        p = GermPresentation(
            "glued_lines",
            [("a", 1), ("b", 1)],
            [Arrow("ab", "a", "b", PolyMap.identity(1))],
            wedge_type=True,
        )
        for b_value, valid in ((3, True), (4, False)):
            report = check_section(
                p,
                PresentedSection(
                    "tangent",
                    {
                        "a": PolyMap(1, 1, [Poly.constant(1, 3) + s(1, 1)]),
                        "b": PolyMap(1, 1, [Poly.constant(1, b_value)]),
                    },
                ),
            )
            assert report.valid is valid
            assert report.constraints == ["all chart values must share one colimit image"]

    def test_random_boundary_sweep(self):
        rng = random.Random(127)
        p = space("wedge_lines", m=2)
        for _ in range(50):
            f = rand_poly(rng, 1, 3)
            g = rand_poly(rng, 1, 3)
            report = check_section(p, self.make_tangent(f, g))
            assert report.valid == (f.constant_term == 0 and g.constant_term == 0)
            cot = check_section(p, self.make_cotangent(f, g))
            assert cot.valid
            assert cot.functional == RatMat.row([f.constant_term, g.constant_term])


_SMALL = st.sampled_from([Fraction(v) for v in (0, 0, 1, -1, 2, "1/2", "-3/2")])


@st.composite
def cotangent_cases(draw):
    """A wedge-type presentation (a point chart and 1-3 legs of dimension
    1-2, plus up to three linear self-germs on the legs, which may collapse
    directions) and a cotangent section on it.  Its chart values come from
    a functional on the tangent colimit, sometimes with one entry moved;
    the prescribed functional is absent, that functional, a random row or
    of the wrong shape."""
    dims = draw(st.lists(st.integers(1, 2), min_size=1, max_size=3))
    legs = [(f"x{i}", d) for i, d in enumerate(dims, 1)]
    arrows = [Arrow(f"z{cid}", "o", cid, PolyMap.zero_map(0, d)) for cid, d in legs]
    for n in range(draw(st.integers(0, 3))):
        cid, d = draw(st.sampled_from(legs))
        rows = [draw(st.lists(_SMALL, min_size=d, max_size=d)) for _ in range(d)]
        comps = [sum((s(d, j + 1) * c for j, c in enumerate(row)), Poly.zero(d)) for row in rows]
        arrows.append(Arrow(f"g{n}", cid, cid, PolyMap(d, d, comps)))
    p = GermPresentation("drawn_wedge", [("o", 0)] + legs, arrows, wedge_type=True)

    tangent = vect_colimit(apply_fibre_functor(p, 1))
    ell = RatMat.row(draw(st.lists(_SMALL, min_size=tangent.dim, max_size=tangent.dim)))
    values = [(ell @ cocone).row_list(0) for cocone in tangent.cocones[1:]]
    if draw(st.booleans()):
        leg = draw(st.integers(0, len(legs) - 1))
        values[leg][draw(st.integers(0, dims[leg] - 1))] += draw(_SMALL)
    data = {
        cid: PolyMap(d, d, [Poly.constant(d, v) + s(d, 1) * draw(_SMALL) for v in vals])
        for (cid, d), vals in zip(legs, values)
    }
    prescribed = draw(st.sampled_from(["none", "ell", "random", "wide", "tall"]))
    functional = {
        "none": None,
        "ell": ell,
        "random": RatMat.row(draw(st.lists(_SMALL, min_size=tangent.dim, max_size=tangent.dim))),
        "wide": RatMat.row([1] * (tangent.dim + 1)),
        "tall": RatMat.zeros(2, tangent.dim),
    }[prescribed]
    return p, PresentedSection("cotangent", data, point_functional=functional)


def stacked_cocone_verdict(p: GermPresentation, section: PresentedSection):
    """The cotangent verdict by one exact solve of the stacked transposed
    cocones against the stacked chart values, or None for a prescribed
    functional of the wrong shape."""
    tangent = vect_colimit(apply_fibre_functor(p, 1))
    system = RatMat.vstack([c.transpose() for c in tangent.cocones], cols=tangent.dim)
    target = RatMat.vstack(
        [
            RatMat.column([c.constant_term for c in section.chart_data[cid].components])
            for cid, _ in p.charts[1:]
        ],
        cols=1,
    )
    ell = section.point_functional
    if ell is not None:
        if (ell.rows, ell.cols) != (1, tangent.dim):
            return None
        ok = system @ ell.transpose() == target
        return ok, ell if ok else None
    solution = solve_exact(system, target)
    return solution is not None, None if solution is None else solution.transpose()


@given(cotangent_cases())
@settings(max_examples=200, deadline=None)
def test_cotangent_verdicts_match_the_stacked_cocone_system(case):
    p, section = case
    expected = stacked_cocone_verdict(p, section)
    if expected is None:
        with pytest.raises(ValueError, match="prescribed functional must be"):
            check_section(p, section)
        return
    report = check_section(p, section)
    assert (report.valid, report.functional) == expected
    assert report.bundle == "cotangent" and len(report.constraints) == 1


def test_a_component_of_the_wrong_degree_is_named():
    p = space("axes_subset")
    w = PresentedForm(2, {cid: PolyForm.zero(dim, 1) for cid, dim in p.charts})
    message = "component on chart 'o' has degree 1, family is declared degree 2"
    with pytest.raises(ValueError, match=message):
        check_form_compatibility(p, w)


def test_an_ambient_form_of_the_wrong_dimension_is_named():
    with pytest.raises(ValueError, match=r"ambient form lives on R\^3, ambient space is R\^2"):
        tilde_form_at_point(space("axes_subset"), dform(3, 1))


def test_an_incompatible_restriction_is_an_internal_error(monkeypatch):
    # a planted fault: validation lets through embeddings that disagree
    # with the arrow, so the restricted family cannot be compatible
    monkeypatch.setattr(forms, "require_valid", lambda p: None)
    line = PolyMap.identity(1)
    p = GermPresentation(
        "bent",
        [("a", 1), ("b", 1)],
        [Arrow("f", "a", "b", PolyMap(1, 1, [2 * s(1, 1)]))],
        ambient=Ambient(1, {"a": line, "b": line}),
    )
    with pytest.raises(
        AssertionError, match=r"ambient restriction produced an incompatible family \(arrow 'f'\)"
    ):
        restrict_ambient_form(p, dform(1, 1))
