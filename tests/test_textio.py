import re
import shlex
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffeokit.catalog import build_catalog_space, catalog_names
from diffeokit.cli import run_command
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

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def readme_blocks(lang):
    return re.findall(rf"```{lang}\n(.*?)```", README, re.S)


def readme_examples():
    """The README's ``$ diffeo-kit ...`` lines: (argv, expected stdout)."""
    examples = []
    for block in readme_blocks("sh"):
        for chunk in block.split("$ ")[1:]:
            command, _, output = chunk.partition("\n")
            program, *argv = shlex.split(command)
            assert program == "diffeo-kit"
            examples.append((argv, output))
    return examples


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

    def test_documents_with_forms_and_sections_round_trip(self):
        for text in _SEED_DOCUMENTS:
            doc = parse_presentation(text)
            exported = export_presentation(doc.presentation, doc.forms, doc.sections)
            again = parse_presentation(exported)
            assert again == doc, exported
            assert export_presentation(again.presentation, again.forms, again.sections) == exported
        # the last seed document's section fixes a functional
        assert "functional = [1, -3/2]" in exported.splitlines()


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

    def test_coefficient_is_everything_since_the_previous_term(self):
        def component(line):
            text = "space demo\nchart p : R^2\nform w : degree 1 on demo\non p : " + line
            return parse_presentation(text).forms["w"].chart_forms["p"]

        assert component("1 + s1 d[1]") == component("(1 + s1) d[1]")
        assert component("s1 d[1] - 2 + s2 d[2]") == component("s1 d[1] - (2 + s2) d[2]")

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

    def test_readme_example_file_parses_and_computes(self, capsys):
        # keep the README's worked example and command line examples honest
        [text] = readme_blocks("text")
        doc = parse_presentation(text)
        catalog = build_catalog_space("axes_subset").presentation
        # the example's wedge line is its one difference from the catalog entry
        assert doc.presentation.wedge_type and not catalog.wedge_type
        catalog.wedge_type = True
        assert doc.presentation == catalog
        assert doc.forms["volume"].chart_forms["x"].is_zero()
        ell = doc.sections["ell"]
        assert (ell.bundle, ell.space) == ("cotangent", "axes_subset")
        assert ell.chart_data["x"].components == (Poly.constant(1, 1) + s(1, 1),)
        assert ell.chart_data["y"].components == (Poly.constant(1, 2),)
        examples = readme_examples()
        assert len(examples) == 3
        for argv, expected in examples:
            assert run_command(argv) == 0, argv
            assert capsys.readouterr().out == expected, argv

    def test_readme_example_file_checks_its_section(self, capsys, tmp_path):
        [text] = readme_blocks("text")
        path = tmp_path / "readme.dk"
        path.write_text(text)
        assert run_command(["sections", str(path), "--data", str(path)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("section ell (cotangent): valid, functional (1, 2)\n")
        assert "with functional `(1, 2)`" in README


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

    def test_repeated_functional_rejected(self):
        text = (
            "section ell : cotangent on wedge_lines\non x1 : [1]\n"
            "functional = [1, 0]\n  functional = [5, 7]\n"
        )
        with pytest.raises(ParseError) as err:
            parse_sections(text, WEDGE)
        assert (err.value.reason, err.value.line, err.value.col) == (
            "duplicate functional for section 'ell'", 4, 3,
        )

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


# one case per ParseError message template: each pins the message, line and
# column, so that the parser's error positions and precedence cannot drift
_DEMO = "space demo\nchart o : R^0\nchart x : R^1\nchart y : R^2\n"
_ARROW = _DEMO + "arrow a : x -> y = "
_FORM1 = _DEMO + "form w : degree 1 on demo\n"
_FORM2 = _DEMO + "form w : degree 2 on demo\n"
_SECTION = _DEMO + "section t : tangent on demo\n"

ERROR_CASES = [
    # the whole line is tokenized first, so a bad character beats an
    # earlier syntax error on the same line
    ("bad-character", "space demo\nchart : R^1 $ # $\n",
     "unexpected character '$'", 2, 13),
    ("nesting", _ARROW + "[" + "(" * 101 + "s1" + ")" * 101 + ", 0]\n",
     "expression nested more than 100 levels deep", 5, 121),
    ("expected-symbol", "space demo\nchart x R^1\n", "expected ':'", 2, 9),
    ("expected-keyword", "space demo\nchart x : S^1\n", "expected 'R'", 2, 11),
    # end-of-line errors point one past the raw line, comment included
    ("expected-what-at-end", "space demo\nchart x : R^   # dim\n",
     "expected a dimension after '^'", 2, 21),
    ("expected-chart-name", _DEMO + "arrow a : 1 -> x = [s1]\n",
     "expected a chart name", 5, 11),
    ("expected-coordinate-index", _FORM1 + "on y : d[s1]\n",
     "expected a coordinate index", 6, 10),
    ("expected-bundle-kind", _DEMO + "section t : 1 on demo\n",
     "expected 'tangent' or 'cotangent'", 5, 13),
    ("expected-expression-at-end", _ARROW + "[s1, 1 +\n", "expected an expression", 5, 28),
    ("expected-exponent", _ARROW + "[s1^s1, 0]\n", "expected an integer exponent", 5, 24),
    ("expected-denominator", _ARROW + "[1/s1, 0]\n",
     "expected an integer denominator", 5, 23),
    ("trailing-input", "space demo extra\n", "unexpected trailing input 'extra'", 1, 12),
    ("trailing-after-form", _FORM1 + "on y : d[1] d[2]\n",
     "unexpected trailing input 'd'", 6, 13),
    ("reserved", "space demo\nchart s1 : R^1\n", "'s1' is reserved and cannot name a chart", 2, 7),
    ("reserved-arrow", _DEMO + "arrow chart : x -> x = [s1]\n",
     "'chart' is reserved and cannot name an arrow", 5, 7),
    ("zero-denominator", _ARROW + "[3/00, 0]\n", "zero denominator", 5, 23),
    ("variable-out-of-range", _ARROW + "[s1, s2]\n",
     "variable s2 out of range for a 1-dimensional context", 5, 25),
    ("unexpected-identifier", _ARROW + "[s1, foo]\n", "unexpected identifier 'foo'", 5, 25),
    ("unexpected-token-in-expression", _ARROW + "[s1, )]\n", "unexpected token ')'", 5, 25),
    ("unexpected-token-at-head", "space demo\n  = 1\n", "unexpected token '='", 2, 3),
    ("wedge-index-count", _FORM2 + "on y : d[1]\n",
     "d[...] lists 1 indices, form has degree 2", 6, 8),
    ("wedge-index-range", _FORM1 + "on y : s1 d[3]\n", "wedge indices must lie in 1..2", 6, 11),
    ("wedge-index-order", _FORM2 + "on y : d[2,1]\n",
     "wedge indices must be strictly increasing", 6, 8),
    ("needs-d-part", _FORM1 + "on y : d[1] + s2\n", "a degree 1 term needs a d[...] part", 6, 15),
    ("needs-d-part-after-minus", _FORM1 + "on y : d[1] - s2*s1\n",
     "a degree 1 term needs a d[...] part", 6, 15),
    ("unknown-chart-in-space", _FORM1 + "on z : 0\n", "unknown chart 'z' in space 'demo'", 6, 4),
    ("unknown-chart", _DEMO + "arrow a : x -> z = [s1]\n", "unknown chart 'z'", 5, 16),
    ("unknown-directive", _DEMO + "char z : R^1\n", "unknown directive 'char'", 5, 1),
    ("structure-after-forms", _FORM1 + "on x : d[1]\n  chart z : R^1\n",
     "chart declarations must precede forms and sections", 7, 9),
    ("wedge-after-section", _SECTION + "wedge  # late\n",
     "wedge declarations must precede forms and sections", 6, 14),
    ("duplicate-space", "space demo\nspace other\n", "duplicate space declaration", 2, 7),
    ("duplicate-chart", _DEMO + "chart x : R^3\n", "duplicate chart 'x'", 5, 7),
    ("duplicate-arrow", _DEMO + "arrow a : x -> x = [s1]\narrow a : x -> x = [s1]\n",
     "duplicate arrow 'a'", 6, 7),
    ("arrow-arity", _ARROW + "[s1]\n",
     "arrow 'a' into a 2-dimensional chart needs 2 coordinates, got 1", 5, 18),
    ("duplicate-ambient", _DEMO + "ambient 2\nambient 3\n", "duplicate ambient declaration", 6, 9),
    ("embed-without-ambient", _DEMO + "embed x = [s1, 0]\n",
     "embed requires a preceding ambient declaration", 5, 7),
    ("duplicate-embedding", _DEMO + "ambient 2\nembed x = [s1, 0]\nembed x = [0, s1]\n",
     "duplicate embedding for chart 'x'", 7, 7),
    ("embedding-arity", _DEMO + "ambient 2\nembed x = [s1]\n",
     "embedding into R^2 needs 2 coordinates, got 1", 6, 9),
    ("no-space-available", "form w : degree 1 on demo\n",
     "no space is available to resolve 'demo'", 1, 22),
    ("wrong-space", _DEMO + "form w : degree 1 on other\n",
     "form or section references space 'other', available space is 'demo'", 5, 22),
    ("duplicate-form", _FORM1 + "on x : d[1]\nform w : degree 0 on demo\n",
     "duplicate form 'w'", 7, 6),
    ("duplicate-section", _SECTION + "section t : cotangent on demo\n",
     "duplicate section 't'", 6, 9),
    ("bundle-kind", _DEMO + "section t : normal on demo\n",
     "expected 'tangent' or 'cotangent', got 'normal'", 5, 13),
    ("duplicate-component", _FORM1 + "on x : d[1]\non x : 2 d[1]\n",
     "duplicate component for chart 'x'", 7, 4),
    ("duplicate-section-data", _SECTION + "on x : [s1]\non x : [1]\n",
     "duplicate section data for chart 'x'", 7, 4),
    ("section-data-arity", _SECTION + "on y : [s1]\n",
     "section data on a 2-dimensional chart needs 2 coefficients, got 1", 6, 6),
    ("on-outside-block", _DEMO + "on x : [s1]\n", "'on' outside of a form or section block", 5, 4),
    ("functional-outside-section", _FORM1 + "functional = [1]\n",
     "'functional' outside of a section block", 6, 12),
    ("functional-on-tangent", _SECTION + "functional = [1]\n",
     "'functional' is only meaningful for cotangent sections", 6, 12),
]


class TestErrorTable:
    @pytest.mark.parametrize(
        "text, reason, line, col", [case[1:] for case in ERROR_CASES],
        ids=[case[0] for case in ERROR_CASES],
    )
    def test_message_and_position(self, text, reason, line, col):
        with pytest.raises(ParseError) as err:
            parse_document(text)
        assert (err.value.reason, err.value.line, err.value.col) == (reason, line, col)

    @pytest.mark.parametrize(
        "text, reason, line, col",
        [
            ("section t : tangent on wedge_lines\non q : [1]\n",
             "unknown chart 'q' in space 'wedge_lines'", 2, 4),
            ("section t : cotangent on wedge_lines\non x1 : [1]\nfunctional = [s1]\n",
             "variable s1 out of range for a 0-dimensional context", 3, 15),
            ("space other\nwedge\nchart o : R^0\nchart x1 : R^1\nchart x2 : R^1\n"
             "section t : tangent on other\non x1 : [0]\non x2 : [5]\n",
             "form or section references space 'other', available space is 'wedge_lines'",
             6, 24),
        ],
    )
    def test_section_file_against_a_given_space(self, text, reason, line, col):
        with pytest.raises(ParseError) as err:
            parse_sections(text, WEDGE)
        assert (err.value.reason, err.value.line, err.value.col) == (reason, line, col)

    def test_missing_space_declaration_position(self):
        with pytest.raises(ParseError) as err:
            parse_presentation("chart x : R^1\n")
        assert (err.value.reason, err.value.line, err.value.col) == (
            "no space declaration found", 1, 1,
        )


# fuzzing: documents from the grammar's own vocabulary, and single-token
# mutations of valid documents, must parse or raise ParseError, nothing else
_VOCABULARY = [
    "space", "chart", "arrow", "ambient", "embed", "form", "on", "degree", "wedge",
    "section", "functional", "tangent", "cotangent", "d", "R",
    "->", "-", "+", "*", "/", "^", "=", ":", ",", "(", ")", "[", "]", "#", "$",
    "demo", "wedge_lines", "o", "x", "y", "x1", "a", "w", "s1", "s2", "s3", "s01",
    "0", "1", "2", "3",
]
_HEADS = [
    "", "space demo", "wedge", "chart o : R^0", "chart x : R^1", "chart y : R^2",
    "arrow a : x -> y = [", "ambient 2", "embed x = [", "form w : degree 1 on demo",
    "form f : degree 0 on demo", "on x :", "on y : [", "section t : tangent on demo",
    "section c : cotangent on demo", "functional = [",
]
_fuzz_lines = st.builds(
    lambda head, tail: " ".join([head] + tail),
    st.sampled_from(_HEADS),
    st.lists(st.sampled_from(_VOCABULARY), max_size=10),
)
_LEXEME = re.compile(r"->|[A-Za-z_]\w*|\d+|\S")
_SEED_DOCUMENTS = [
    export_presentation(build_catalog_space(name).presentation) for name in catalog_names()
] + [
    readme_blocks("text")[0],
    export_presentation(WEDGE)
    + "form v : degree 1 on wedge_lines\non x1 : -d[1] + (1/2 - s1^2) d[1]\n"
    + "section ell : cotangent on wedge_lines\non x1 : [1 + s1]\non x2 : [2]\n"
    + "functional = [1, -3/2]\n",
]


@st.composite
def _mutated_documents(draw):
    lines = draw(st.sampled_from(_SEED_DOCUMENTS)).splitlines()
    row = draw(st.integers(0, len(lines) - 1))
    lexemes = _LEXEME.findall(lines[row])
    pos = draw(st.integers(0, len(lexemes)))
    op = draw(st.sampled_from(["insert", "replace", "delete"]))
    word = draw(st.sampled_from(_VOCABULARY))
    if op == "insert" or pos == len(lexemes):
        lexemes.insert(pos, word)
    elif op == "replace":
        lexemes[pos] = word
    else:
        del lexemes[pos]
    lines[row] = " ".join(lexemes)
    return "\n".join(lines)


def _parse_or_parse_error(text, space):
    """The parsed document, or None after a ParseError that points at a
    lexeme of one of the document's lines or one past the line's end."""
    try:
        return parse_document(text, space)
    except ParseError as err:
        lines = text.splitlines()
        assert 1 <= err.line <= len(lines), err
        raw = lines[err.line - 1]
        starts = [m.start() + 1 for m in _LEXEME.finditer(raw.partition("#")[0])]
        assert err.col in starts + [len(raw) + 1], err
        return None


@given(st.lists(_fuzz_lines, max_size=10).map("\n".join))
@settings(max_examples=300, deadline=None)
def test_fuzzed_documents_raise_only_parse_errors(text):
    for space in (None, WEDGE):
        _parse_or_parse_error(text, space)


@given(_mutated_documents())
@settings(max_examples=300, deadline=None)
def test_mutated_documents_raise_only_parse_errors(text):
    _parse_or_parse_error(text, WEDGE)
    doc = _parse_or_parse_error(text, None)
    if doc is not None and doc.presentation is not None:
        exported = export_presentation(doc.presentation, doc.forms, doc.sections)
        assert parse_document(exported) == doc, exported


# the parser against Poly arithmetic: random expression trees, rendered with
# random spacing, must parse to the Poly that Poly operators build from them
_TREE_VARS = 3
_LEVEL = {"add": 0, "sub": 0, "mul": 1, "neg": 2, "pow": 2, "lit": 3, "var": 3}
_trees = st.recursive(
    st.tuples(st.just("lit"), st.integers(0, 12), st.none() | st.integers(1, 6))
    | st.tuples(st.just("var"), st.integers(1, _TREE_VARS)),
    lambda children: st.tuples(st.sampled_from(["add", "sub", "mul"]), children, children)
    | st.tuples(st.just("neg"), children)
    | st.tuples(st.just("pow"), children, st.integers(0, 3)),
    max_leaves=12,
)


def _tree_poly(tree):
    kind = tree[0]
    if kind == "lit":
        return Poly.constant(_TREE_VARS, Fraction(tree[1], tree[2] or 1))
    if kind == "var":
        return s(_TREE_VARS, tree[1])
    if kind == "neg":
        return -_tree_poly(tree[1])
    if kind == "pow":
        return _tree_poly(tree[1]) ** tree[2]
    a, b = _tree_poly(tree[1]), _tree_poly(tree[2])
    return a + b if kind == "add" else a - b if kind == "sub" else a * b


def _tree_tokens(tree, level=0):
    """Tokens of ``tree`` where the grammar expects a sum (level 0), a
    product (1), a factor (2) or a literal, variable or parenthesis (3)."""
    kind = tree[0]
    if _LEVEL[kind] < level:
        return ["(", *_tree_tokens(tree), ")"]
    if kind == "lit":
        return [str(tree[1])] + (["/", str(tree[2])] if tree[2] else [])
    if kind == "var":
        return [f"s{tree[1]}"]
    if kind == "neg":
        return ["-", *_tree_tokens(tree[1], 2)]
    if kind == "pow":
        return [*_tree_tokens(tree[1], 3), "^", str(tree[2])]
    op, left, right = {"add": ("+", 0, 1), "sub": ("-", 0, 1), "mul": ("*", 1, 2)}[kind]
    return [*_tree_tokens(tree[1], left), op, *_tree_tokens(tree[2], right)]


@given(_trees, st.data())
@settings(max_examples=300, deadline=None)
def test_parsed_expressions_agree_with_poly_arithmetic(tree, data):
    tokens = _tree_tokens(tree)
    text = tokens[0]
    for prev, tok in zip(tokens, tokens[1:]):
        space = data.draw(st.sampled_from(["", " ", "  ", "\t"]))
        if not space and prev[-1].isalnum() and tok[0].isalnum():
            space = " "
        text += space + tok
    doc = parse_presentation(
        f"space demo\nchart x : R^{_TREE_VARS}\nchart y : R^1\narrow a : x -> y = [{text}]\n"
    )
    assert doc.presentation.arrows[0].germ.components[0] == _tree_poly(tree), text
