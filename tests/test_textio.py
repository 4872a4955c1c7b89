from fractions import Fraction

import pytest

from diffeokit.catalog import build_catalog_space, catalog_names
from diffeokit.forms import PresentedForm
from diffeokit.linalg import RatMat
from diffeokit.symcalc import Poly, PolyForm, PolyMap
from diffeokit.textio import (
    _MAX_NESTING,
    ParseError,
    export_presentation,
    parse_document,
    parse_presentation,
    parse_sections,
    render_poly_form,
)


def s(nvars, i):
    return Poly.variable(nvars, i)


WEDGE = build_catalog_space("wedge_lines", {"m": 2}).presentation


class TestRoundTrips:
    def test_catalog_entries_round_trip(self):
        for name in catalog_names():
            entry = build_catalog_space(name)
            text = export_presentation(entry.presentation)
            doc = parse_presentation(text)
            assert doc.presentation == entry.presentation, name

    def test_parse_print_parse_is_identity(self):
        for name in catalog_names():
            entry = build_catalog_space(name)
            once = export_presentation(entry.presentation)
            twice = export_presentation(parse_presentation(once).presentation)
            assert once == twice

    def test_forms_round_trip(self):
        forms = {
            "alpha": PresentedForm(
                1,
                {
                    "o": PolyForm.zero(0, 1),
                    "x1": PolyForm.from_terms(
                        1, 1, {(1,): Poly.constant(1, 1) + s(1, 1)}
                    ),
                    "x2": PolyForm.from_terms(
                        1, 1, {(1,): Poly.constant(1, Fraction(3, 2))}
                    ),
                },
                name="alpha",
            )
        }
        text = export_presentation(WEDGE, forms)
        doc = parse_presentation(text)
        assert doc.forms["alpha"] == forms["alpha"]


class TestGrammar:
    def test_zero_germ_shorthand(self):
        doc = parse_presentation(
            """
            space demo
            chart o : R^0
            chart x : R^1
            arrow a : o -> x = []
            """
        )
        arrow = doc.presentation.arrows[0]
        assert arrow.germ == PolyMap.zero_map(0, 1)

    def test_rational_literals(self):
        doc = parse_presentation(
            """
            space demo
            chart x : R^1
            arrow a : x -> x = [3/2*s1 - s1^2]
            """
        )
        germ = doc.presentation.arrows[0].germ
        assert germ.components[0] == s(1, 1) * Fraction(3, 2) - s(1, 1) ** 2

    def test_comments_and_blank_lines_ignored(self):
        doc = parse_presentation(
            "# heading\nspace demo  # trailing\n\nchart x : R^1  # chart\n"
        )
        assert doc.presentation.charts == [("x", 1)]

    def test_form_parsing_with_signs(self):
        text = """
        space demo
        chart p : R^2
        form w : degree 1 on demo
        on p : (1 + s1) d[1] - 2 d[2]
        """
        form = parse_presentation(text).forms["w"]
        assert form.chart_forms["p"] == PolyForm.from_terms(
            2,
            1,
            {(1,): Poly.constant(2, 1) + s(2, 1), (2,): Poly.constant(2, -2)},
        )

    def test_bare_d_term_has_unit_coefficient(self):
        text = """
        space demo
        chart p : R^2
        form w : degree 2 on demo
        on p : d[1,2]
        """
        form = parse_presentation(text).forms["w"]
        assert form.chart_forms["p"] == PolyForm.from_terms(
            2, 2, {(1, 2): Poly.constant(2, 1)}
        )

    def test_unmentioned_charts_default_to_zero(self):
        text = export_presentation(WEDGE) + "form w : degree 1 on wedge_lines\non x1 : 2 d[1]\n"
        form = parse_presentation(text).forms["w"]
        assert form.chart_forms["x2"].is_zero()
        assert form.chart_forms["o"].is_zero()

    def test_degree_zero_form_is_a_plain_expression(self):
        text = """
        space demo
        chart p : R^1
        form f : degree 0 on demo
        on p : 1 + s1^2
        """
        form = parse_presentation(text).forms["f"]
        assert form.chart_forms["p"].coeffs[0] == Poly.constant(1, 1) + s(1, 1) ** 2

    def test_wedge_flag_round_trips(self):
        text = export_presentation(WEDGE)
        assert "wedge" in text.splitlines()
        assert parse_presentation(text).presentation.wedge_type

    def test_readme_example_file_parses_and_computes(self):
        # keep the README's worked example honest
        text = """
        space axes_subset
        chart o : R^0
        chart x : R^1
        chart y : R^1
        arrow z1 : o -> x = [0]
        arrow z2 : o -> y = [0]
        ambient 2
        embed o = [0, 0]
        embed x = [s1, 0]
        embed y = [0, s1]

        form volume : degree 2 on axes_subset
        on x : 0
        on y : 0
        """
        doc = parse_presentation(text)
        assert doc.presentation == build_catalog_space("axes_subset").presentation
        assert doc.forms["volume"].chart_forms["x"].is_zero()


class TestSections:
    def test_section_file_parses_against_a_space(self):
        text = """
        section good : tangent on wedge_lines
        on x1 : [s1^2]
        on x2 : [s1]
        section ell : cotangent on wedge_lines
        on x1 : [1 + s1]
        on x2 : [2]
        functional = [1, 2]
        """
        sections = parse_sections(text, WEDGE)
        assert set(sections) == {"good", "ell"}
        assert sections["good"].bundle == "tangent"
        assert sections["good"].chart_data["x1"].components[0] == s(1, 1) ** 2
        assert sections["ell"].point_functional == RatMat.row([1, 2])

    def test_section_against_wrong_space_name_fails(self):
        with pytest.raises(ParseError):
            parse_sections("section a : tangent on other\n", WEDGE)

    def test_functional_outside_cotangent_rejected(self):
        text = "section a : tangent on wedge_lines\nfunctional = [1]\n"
        with pytest.raises(ParseError):
            parse_sections(text, WEDGE)


class TestErrors:
    def expect_error(self, text, line, col_predicate=None, contains=None):
        with pytest.raises(ParseError) as err:
            parse_document(text)
        assert err.value.line == line
        if col_predicate is not None:
            assert col_predicate(err.value.col), err.value
        if contains is not None:
            assert contains in err.value.reason
        return err.value

    def test_truncated_chart_dimension(self):
        text = "space demo\nchart x : R^"
        err = self.expect_error(text, 2, contains="dimension")
        assert err.col == len("chart x : R^") + 1

    def test_unknown_directive(self):
        self.expect_error("space demo\nchar x : R^1\n", 2, contains="unknown directive")

    def test_unknown_chart_in_arrow(self):
        text = "space demo\nchart x : R^1\narrow a : x -> y = [s1]\n"
        self.expect_error(text, 3, contains="unknown chart 'y'")

    def test_variable_out_of_range(self):
        text = "space demo\nchart x : R^1\narrow a : x -> x = [s2]\n"
        self.expect_error(text, 3, contains="out of range")

    def test_arity_mismatch(self):
        text = "space demo\nchart x : R^1\nchart y : R^2\narrow a : x -> y = [s1]\n"
        self.expect_error(text, 4, contains="needs 2 coordinates")

    def test_slash_needs_integer_literals(self):
        text = "space demo\nchart x : R^1\narrow a : x -> x = [s1/2]\n"
        with pytest.raises(ParseError):
            parse_document(text)

    def test_reserved_names_rejected(self):
        self.expect_error("space form\n", 1, contains="reserved")
        self.expect_error("space demo\nchart d : R^1\n", 2, contains="reserved")

    def test_bad_character_position(self):
        err = self.expect_error("space demo\nchart x : R^1 $\n", 2)
        assert err.col == 15

    def test_missing_space_declaration(self):
        with pytest.raises(ParseError):
            parse_presentation("chart x : R^1\n")

    def test_duplicate_chart(self):
        text = "space demo\nchart x : R^1\nchart x : R^2\n"
        self.expect_error(text, 3, contains="duplicate chart")

    def nested_arrow(self, expr):
        return "space demo\nchart x : R^1\narrow a : x -> x = [" + expr + "]\n"

    def test_deep_parentheses(self):
        col = len("arrow a : x -> x = [") + _MAX_NESTING + 1
        text = self.nested_arrow("(" * 3000 + "s1" + ")" * 3000)
        err = self.expect_error(text, 3, col_predicate=lambda c: c == col, contains="nested")
        assert str(_MAX_NESTING) in err.reason

    def test_long_run_of_unary_minus(self):
        col = len("arrow a : x -> x = [") + _MAX_NESTING + 1
        text = self.nested_arrow("-" * 3000 + "s1")
        self.expect_error(text, 3, col_predicate=lambda c: c == col, contains="nested")

    def test_nesting_up_to_the_limit_parses(self):
        half = _MAX_NESTING // 2
        for expr, expected in [
            ("(" * _MAX_NESTING + "s1" + ")" * _MAX_NESTING, s(1, 1)),
            ("-" * _MAX_NESTING + "s1", s(1, 1)),
            ("-(" * half + "s1" + ")" * half, s(1, 1) if half % 2 == 0 else -s(1, 1)),
        ]:
            germ = parse_presentation(self.nested_arrow(expr)).presentation.arrows[0].germ
            assert germ.components[0] == expected

    def test_nesting_in_a_form_line(self):
        text = (
            "space demo\nchart x : R^1\nform w : degree 0 on demo\non x : "
            + "(" * (_MAX_NESTING + 1) + "1" + ")" * (_MAX_NESTING + 1) + "\n"
        )
        self.expect_error(text, 4, contains="nested")

    def test_structure_after_forms_rejected(self):
        text = (
            "space demo\nchart x : R^1\n"
            "form w : degree 0 on demo\non x : 0\n"
            "chart y : R^1\n"
        )
        self.expect_error(text, 5, contains="must precede")


class TestRendering:
    def test_multi_term_coefficients_are_parenthesized(self):
        form = PolyForm.from_terms(2, 1, {(1,): Poly.constant(2, 1) + s(2, 1)})
        assert render_poly_form(form) == "(s1 + 1) d[1]"

    def test_zero_form_renders_as_zero(self):
        assert render_poly_form(PolyForm.zero(2, 1)) == "0"

    def test_rendered_forms_reparse(self):
        import random

        from util_rand import rand_form

        rng = random.Random(131)
        for _ in range(30):
            degree = rng.randint(0, 2)
            form = rand_form(rng, 2, degree)
            text = (
                "space demo\nchart p : R^2\n"
                f"form w : degree {degree} on demo\non p : {render_poly_form(form)}\n"
            )
            assert parse_presentation(text).forms["w"].chart_forms["p"] == form
