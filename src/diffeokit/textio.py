"""The presentation file format: a line-oriented text grammar.

    # comments run to the end of the line
    space NAME
    wedge                       (optional: marks a wedge-type presentation)
    chart ID : R^N
    arrow ID : SRC -> DST = [e1, ..., eM]
    ambient N                   (optional, followed by one embed per chart)
    embed CHART = [e1, ..., eN]
    form NAME : degree K on SPACE
    on CHART : e d[i1,...,iK] + ...
    section NAME : tangent|cotangent on SPACE
    on CHART : [e1, ..., eN]
    functional = [c1, ..., cD]  (optional, cotangent sections only)

Expressions use the variables s1..sN of the relevant chart, exact rational
literals (integers and fractions such as 3/2), +, -, *, parentheses and
integer powers written e^k.  A slash is only legal between two integer
literals.  Coefficient expressions bind loosely against d[...]: write
(1 + s1) d[1], not 1 + s1 d[1], when the whole sum is the coefficient.
An empty coordinate list in an arrow or embed is shorthand for the zero
germ out of a zero-dimensional chart.

Parsing is deterministic and parse -> print -> parse is the identity on
normal forms.  Errors carry one-based line and column positions.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

from .forms import PresentedForm, PresentedSection
from .linalg import RatMat
from .presentation import Ambient, Arrow, GermPresentation
from .symcalc import Poly, PolyForm, PolyMap
from .multilinear import index_basis

__all__ = [
    "ParseError",
    "ParsedDocument",
    "parse_document",
    "parse_presentation",
    "parse_sections",
    "export_presentation",
    "render_poly_form",
]

_KEYWORDS = {
    "space",
    "chart",
    "arrow",
    "ambient",
    "embed",
    "form",
    "on",
    "degree",
    "wedge",
    "section",
    "functional",
    "tangent",
    "cotangent",
    "d",
    "R",
}

_VARIABLE_RE = re.compile(r"s[1-9][0-9]*\Z")

_TOKEN_RE = re.compile(
    r"(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<int>[0-9]+)|(?P<sym>->|[-+*/^=:,()\[\]])"
)

# deepest nesting of '(' and unary '-'; at five frames per parenthesis the
# parser stays well inside Python's default recursion limit of 1000
_MAX_NESTING = 100


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {message}")
        self.reason = message
        self.line = line
        self.col = col


class _Token(NamedTuple):
    kind: str  # "name" | "int" | "sym"
    text: str
    line: int
    col: int


def _tokenize_line(text: str, lineno: int) -> list[_Token]:
    hash_idx = text.find("#")
    if hash_idx >= 0:
        text = text[:hash_idx]
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ParseError(f"unexpected character {text[pos]!r}", lineno, pos + 1)
        kind = m.lastgroup
        tokens.append(_Token(kind, m.group(), lineno, pos + 1))
        pos = m.end()
    return tokens


@dataclass
class ParsedDocument:
    presentation: GermPresentation | None
    forms: dict[str, PresentedForm] = field(default_factory=dict)
    sections: dict[str, PresentedSection] = field(default_factory=dict)


class _LineReader:
    """Cursor over one line of tokens with positioned errors."""

    def __init__(self, tokens: list[_Token], lineno: int, line_len: int):
        self.tokens = tokens
        self.lineno = lineno
        self.end_col = line_len + 1
        self.i = 0
        self.depth = 0

    def peek(self) -> _Token | None:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def next(self) -> _Token:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of line", self.lineno, self.end_col)
        self.i += 1
        return tok

    def nest(self, tok: _Token) -> None:
        """Enter one level of '(' or unary '-' nesting, opened at ``tok``."""
        self.depth += 1
        if self.depth > _MAX_NESTING:
            raise ParseError(
                f"expression nested more than {_MAX_NESTING} levels deep", tok.line, tok.col
            )

    def error(self, message: str) -> ParseError:
        tok = self.peek()
        if tok is None:
            return ParseError(message, self.lineno, self.end_col)
        return ParseError(message, tok.line, tok.col)

    def expect_sym(self, text: str) -> _Token:
        tok = self.peek()
        if tok is None or tok.kind != "sym" or tok.text != text:
            raise self.error(f"expected {text!r}")
        return self.next()

    def expect_name(self, what: str = "a name") -> _Token:
        tok = self.peek()
        if tok is None or tok.kind != "name":
            raise self.error(f"expected {what}")
        return self.next()

    def expect_keyword(self, word: str) -> _Token:
        tok = self.peek()
        if tok is None or tok.kind != "name" or tok.text != word:
            raise self.error(f"expected {word!r}")
        return self.next()

    def expect_int(self, what: str = "an integer") -> int:
        tok = self.peek()
        if tok is None or tok.kind != "int":
            raise self.error(f"expected {what}")
        self.next()
        return int(tok.text)

    def expect_end(self) -> None:
        tok = self.peek()
        if tok is not None:
            raise self.error(f"unexpected trailing input {tok.text!r}")

    def at_sym(self, text: str) -> bool:
        tok = self.peek()
        return tok is not None and tok.kind == "sym" and tok.text == text

    def at_name(self, text: str | None = None) -> bool:
        tok = self.peek()
        if tok is None or tok.kind != "name":
            return False
        return text is None or tok.text == text


def _expect_fresh_identifier(reader: _LineReader, what: str) -> str:
    tok = reader.expect_name(f"{what} name")
    if tok.text in _KEYWORDS or _VARIABLE_RE.match(tok.text):
        raise ParseError(
            f"{tok.text!r} is reserved and cannot name a {what}", tok.line, tok.col
        )
    return tok.text


# -- expression parsing ------------------------------------------------------


def _parse_additive(reader: _LineReader, nvars: int) -> Poly:
    result = _parse_term(reader, nvars)
    while True:
        if reader.at_sym("+"):
            reader.next()
            result = result + _parse_term(reader, nvars)
        elif reader.at_sym("-"):
            reader.next()
            result = result - _parse_term(reader, nvars)
        else:
            return result


def _parse_term(reader: _LineReader, nvars: int) -> Poly:
    result = _parse_unary(reader, nvars)
    while reader.at_sym("*"):
        reader.next()
        result = result * _parse_unary(reader, nvars)
    return result


def _parse_unary(reader: _LineReader, nvars: int) -> Poly:
    if reader.at_sym("-"):
        reader.nest(reader.next())
        result = -_parse_unary(reader, nvars)
        reader.depth -= 1
        return result
    return _parse_power(reader, nvars)


def _parse_power(reader: _LineReader, nvars: int) -> Poly:
    base = _parse_primary(reader, nvars)
    if reader.at_sym("^"):
        reader.next()
        exponent = reader.expect_int("an integer exponent")
        return base**exponent
    return base


def _parse_primary(reader: _LineReader, nvars: int) -> Poly:
    tok = reader.peek()
    if tok is None:
        raise reader.error("expected an expression")
    if tok.kind == "int":
        reader.next()
        value = Fraction(int(tok.text))
        if reader.at_sym("/"):
            reader.next()
            dtok = reader.peek()
            den = reader.expect_int("an integer denominator")
            if den == 0:
                raise ParseError("zero denominator", dtok.line, dtok.col)
            value = Fraction(int(tok.text), den)
        return Poly.constant(nvars, value)
    if tok.kind == "name":
        if _VARIABLE_RE.match(tok.text):
            idx = int(tok.text[1:])
            if idx > nvars:
                raise ParseError(
                    f"variable {tok.text} out of range for a {nvars}-dimensional context",
                    tok.line,
                    tok.col,
                )
            reader.next()
            return Poly.variable(nvars, idx)
        raise ParseError(f"unexpected identifier {tok.text!r}", tok.line, tok.col)
    if tok.kind == "sym" and tok.text == "(":
        reader.nest(reader.next())
        inner = _parse_additive(reader, nvars)
        reader.expect_sym(")")
        reader.depth -= 1
        return inner
    raise ParseError(f"unexpected token {tok.text!r}", tok.line, tok.col)


def _parse_expr_list(reader: _LineReader, nvars: int) -> list[Poly]:
    reader.expect_sym("[")
    exprs: list[Poly] = []
    if reader.at_sym("]"):
        reader.next()
        return exprs
    exprs.append(_parse_additive(reader, nvars))
    while reader.at_sym(","):
        reader.next()
        exprs.append(_parse_additive(reader, nvars))
    reader.expect_sym("]")
    return exprs


def _parse_wedge_indices(reader: _LineReader, degree: int, nvars: int) -> tuple[int, ...]:
    dtok = reader.expect_keyword("d")
    reader.expect_sym("[")
    indices: list[int] = []
    if not reader.at_sym("]"):
        indices.append(reader.expect_int("a coordinate index"))
        while reader.at_sym(","):
            reader.next()
            indices.append(reader.expect_int("a coordinate index"))
    reader.expect_sym("]")
    if len(indices) != degree:
        raise ParseError(
            f"d[...] lists {len(indices)} indices, form has degree {degree}",
            dtok.line,
            dtok.col,
        )
    if any(not 1 <= i <= nvars for i in indices):
        raise ParseError(
            f"wedge indices must lie in 1..{nvars}", dtok.line, dtok.col
        )
    if any(a >= b for a, b in zip(indices, indices[1:])):
        raise ParseError(
            "wedge indices must be strictly increasing", dtok.line, dtok.col
        )
    return tuple(indices)


def _parse_form_expr(reader: _LineReader, degree: int, nvars: int) -> PolyForm:
    acc: dict[tuple[int, ...], Poly] = {}
    plain = Poly.zero(nvars)

    def parse_term_into(negate: bool) -> None:
        nonlocal plain
        start = reader.peek()
        if reader.at_name("d"):
            coeff = Poly.constant(nvars, 1)
        else:
            coeff = _parse_additive(reader, nvars)
        if negate:
            coeff = -coeff
        if reader.at_name("d"):
            subset = _parse_wedge_indices(reader, degree, nvars)
            acc[subset] = acc.get(subset, Poly.zero(nvars)) + coeff
        else:
            if degree > 0 and not coeff.is_zero():
                where = start if start is not None else reader.peek()
                raise ParseError(
                    f"a degree {degree} term needs a d[...] part",
                    where.line if where else reader.lineno,
                    where.col if where else reader.end_col,
                )
            plain = plain + coeff

    negate_first = False
    if reader.at_sym("-") and reader.i + 1 < len(reader.tokens) and (
        reader.tokens[reader.i + 1].kind == "name"
        and reader.tokens[reader.i + 1].text == "d"
    ):
        reader.next()
        negate_first = True
    parse_term_into(negate_first)
    while True:
        # once a d[...] part closed a term, +/- separate the next term and
        # the sign folds into its coefficient
        if reader.at_sym("+"):
            reader.next()
            negate = False
        elif reader.at_sym("-"):
            reader.next()
            negate = True
        else:
            break
        parse_term_into(negate)
    reader.expect_end()
    if degree == 0:
        base = PolyForm(nvars, 0, (plain,))
        for subset, coeff in acc.items():
            base = base + PolyForm.from_terms(nvars, 0, {subset: coeff})
        return base
    return PolyForm.from_terms(nvars, degree, acc)


# -- document parsing --------------------------------------------------------


class _DocumentParser:
    def __init__(self, text: str, external_space: GermPresentation | None):
        self.lines = text.splitlines()
        self.external_space = external_space
        self.space_name: str | None = None
        self.space_token: _Token | None = None
        self.wedge = False
        self.charts: list[tuple[str, int]] = []
        self.chart_dims: dict[str, int] = {}
        self.arrows: list[Arrow] = []
        self.arrow_names: set[str] = set()
        self.ambient_dim: int | None = None
        self.embeddings: dict[str, PolyMap] = {}
        self.presentation: GermPresentation | None = None
        self.forms: dict[str, PresentedForm] = {}
        self.sections: dict[str, PresentedSection] = {}
        self.current_form: dict | None = None
        self.current_section: dict | None = None

    # -- helpers ----------------------------------------------------------

    def space(self) -> GermPresentation | None:
        if self.presentation is not None:
            return self.presentation
        if self.space_name is not None:
            ambient = None
            if self.ambient_dim is not None:
                ambient = Ambient(self.ambient_dim, dict(self.embeddings))
            self.presentation = GermPresentation(
                self.space_name,
                list(self.charts),
                list(self.arrows),
                ambient=ambient,
                wedge_type=self.wedge,
            )
            return self.presentation
        return self.external_space

    def frozen(self) -> bool:
        return self.presentation is not None

    def require_chart(self, reader: _LineReader, space: GermPresentation | None = None) -> tuple[str, int]:
        tok = reader.expect_name("a chart name")
        if space is not None:
            if not space.has_chart(tok.text):
                raise ParseError(
                    f"unknown chart {tok.text!r} in space {space.name!r}",
                    tok.line,
                    tok.col,
                )
            return tok.text, space.chart_dim(tok.text)
        if tok.text not in self.chart_dims:
            raise ParseError(f"unknown chart {tok.text!r}", tok.line, tok.col)
        return tok.text, self.chart_dims[tok.text]

    # -- statements ---------------------------------------------------------

    def run(self) -> ParsedDocument:
        for lineno, raw in enumerate(self.lines, start=1):
            tokens = _tokenize_line(raw, lineno)
            if not tokens:
                continue
            reader = _LineReader(tokens, lineno, len(raw))
            head = tokens[0]
            if head.kind != "name":
                raise ParseError(f"unexpected token {head.text!r}", head.line, head.col)
            handler = getattr(self, f"_stmt_{head.text}", None)
            if handler is None:
                raise ParseError(
                    f"unknown directive {head.text!r}", head.line, head.col
                )
            reader.next()
            handler(reader)
        self._finish_form()
        self._finish_section()
        presentation = self.space() if self.space_name is not None else None
        return ParsedDocument(presentation, self.forms, self.sections)

    def _guard_structure(self, tok_reader: _LineReader, what: str) -> None:
        if self.frozen():
            raise tok_reader.error(
                f"{what} declarations must precede forms and sections"
            )

    def _stmt_space(self, reader: _LineReader) -> None:
        self._guard_structure(reader, "space")
        if self.space_name is not None:
            raise reader.error("duplicate space declaration")
        self.space_name = _expect_fresh_identifier(reader, "space")
        reader.expect_end()

    def _stmt_wedge(self, reader: _LineReader) -> None:
        self._guard_structure(reader, "wedge")
        self.wedge = True
        reader.expect_end()

    def _stmt_chart(self, reader: _LineReader) -> None:
        self._guard_structure(reader, "chart")
        name_tok = reader.peek()
        name = _expect_fresh_identifier(reader, "chart")
        if name in self.chart_dims:
            raise ParseError(
                f"duplicate chart {name!r}", name_tok.line, name_tok.col
            )
        reader.expect_sym(":")
        reader.expect_keyword("R")
        reader.expect_sym("^")
        dim = reader.expect_int("a dimension after '^'")
        reader.expect_end()
        self.charts.append((name, dim))
        self.chart_dims[name] = dim

    def _stmt_arrow(self, reader: _LineReader) -> None:
        self._guard_structure(reader, "arrow")
        name_tok = reader.peek()
        name = _expect_fresh_identifier(reader, "arrow")
        if name in self.arrow_names:
            raise ParseError(
                f"duplicate arrow {name!r}", name_tok.line, name_tok.col
            )
        reader.expect_sym(":")
        src, src_dim = self.require_chart(reader)
        reader.expect_sym("->")
        dst, dst_dim = self.require_chart(reader)
        eq_tok = reader.peek()
        reader.expect_sym("=")
        exprs = _parse_expr_list(reader, src_dim)
        reader.expect_end()
        if not exprs and src_dim == 0:
            germ = PolyMap.zero_map(0, dst_dim)
        elif len(exprs) == dst_dim:
            germ = PolyMap(src_dim, dst_dim, exprs)
        else:
            raise ParseError(
                f"arrow {name!r} into a {dst_dim}-dimensional chart needs "
                f"{dst_dim} coordinates, got {len(exprs)}",
                eq_tok.line,
                eq_tok.col,
            )
        self.arrows.append(Arrow(name, src, dst, germ))
        self.arrow_names.add(name)

    def _stmt_ambient(self, reader: _LineReader) -> None:
        self._guard_structure(reader, "ambient")
        if self.ambient_dim is not None:
            raise reader.error("duplicate ambient declaration")
        self.ambient_dim = reader.expect_int("an ambient dimension")
        reader.expect_end()

    def _stmt_embed(self, reader: _LineReader) -> None:
        self._guard_structure(reader, "embed")
        if self.ambient_dim is None:
            raise reader.error("embed requires a preceding ambient declaration")
        chart_tok = reader.peek()
        chart, chart_dim = self.require_chart(reader)
        if chart in self.embeddings:
            raise ParseError(
                f"duplicate embedding for chart {chart!r}",
                chart_tok.line,
                chart_tok.col,
            )
        eq_tok = reader.peek()
        reader.expect_sym("=")
        exprs = _parse_expr_list(reader, chart_dim)
        reader.expect_end()
        if not exprs and chart_dim == 0:
            emb = PolyMap.zero_map(0, self.ambient_dim)
        elif len(exprs) == self.ambient_dim:
            emb = PolyMap(chart_dim, self.ambient_dim, exprs)
        else:
            raise ParseError(
                f"embedding into R^{self.ambient_dim} needs {self.ambient_dim} "
                f"coordinates, got {len(exprs)}",
                eq_tok.line,
                eq_tok.col,
            )
        self.embeddings[chart] = emb

    def _expect_space_reference(self, reader: _LineReader) -> GermPresentation:
        tok = reader.expect_name("a space name")
        space = self.space()
        if space is None:
            raise ParseError(
                f"no space is available to resolve {tok.text!r}", tok.line, tok.col
            )
        if space.name != tok.text:
            raise ParseError(
                f"form or section references space {tok.text!r}, "
                f"available space is {space.name!r}",
                tok.line,
                tok.col,
            )
        return space

    def _stmt_form(self, reader: _LineReader) -> None:
        self._finish_form()
        self._finish_section()
        name_tok = reader.peek()
        name = _expect_fresh_identifier(reader, "form")
        if name in self.forms:
            raise ParseError(f"duplicate form {name!r}", name_tok.line, name_tok.col)
        reader.expect_sym(":")
        reader.expect_keyword("degree")
        degree = reader.expect_int("a degree")
        reader.expect_keyword("on")
        space = self._expect_space_reference(reader)
        reader.expect_end()
        self.current_form = {
            "name": name,
            "degree": degree,
            "space": space,
            "chart_forms": {},
        }

    def _stmt_section(self, reader: _LineReader) -> None:
        self._finish_form()
        self._finish_section()
        name_tok = reader.peek()
        name = _expect_fresh_identifier(reader, "section")
        if name in self.sections:
            raise ParseError(
                f"duplicate section {name!r}", name_tok.line, name_tok.col
            )
        reader.expect_sym(":")
        kind_tok = reader.expect_name("'tangent' or 'cotangent'")
        if kind_tok.text not in ("tangent", "cotangent"):
            raise ParseError(
                f"expected 'tangent' or 'cotangent', got {kind_tok.text!r}",
                kind_tok.line,
                kind_tok.col,
            )
        reader.expect_keyword("on")
        space = self._expect_space_reference(reader)
        reader.expect_end()
        self.current_section = {
            "name": name,
            "bundle": kind_tok.text,
            "space": space,
            "chart_data": {},
            "functional": None,
        }

    def _stmt_on(self, reader: _LineReader) -> None:
        if self.current_form is not None:
            ctx = self.current_form
            chart_tok = reader.peek()
            chart, chart_dim = self.require_chart(reader, ctx["space"])
            if chart in ctx["chart_forms"]:
                raise ParseError(
                    f"duplicate component for chart {chart!r}",
                    chart_tok.line,
                    chart_tok.col,
                )
            reader.expect_sym(":")
            ctx["chart_forms"][chart] = _parse_form_expr(
                reader, ctx["degree"], chart_dim
            )
            return
        if self.current_section is not None:
            ctx = self.current_section
            chart_tok = reader.peek()
            chart, chart_dim = self.require_chart(reader, ctx["space"])
            if chart in ctx["chart_data"]:
                raise ParseError(
                    f"duplicate section data for chart {chart!r}",
                    chart_tok.line,
                    chart_tok.col,
                )
            colon_tok = reader.peek()
            reader.expect_sym(":")
            exprs = _parse_expr_list(reader, chart_dim)
            reader.expect_end()
            if len(exprs) != chart_dim:
                raise ParseError(
                    f"section data on a {chart_dim}-dimensional chart needs "
                    f"{chart_dim} coefficients, got {len(exprs)}",
                    colon_tok.line,
                    colon_tok.col,
                )
            ctx["chart_data"][chart] = PolyMap(chart_dim, chart_dim, exprs)
            return
        raise reader.error("'on' outside of a form or section block")

    def _stmt_functional(self, reader: _LineReader) -> None:
        if self.current_section is None:
            raise reader.error("'functional' outside of a section block")
        if self.current_section["bundle"] != "cotangent":
            raise reader.error("'functional' is only meaningful for cotangent sections")
        reader.expect_sym("=")
        exprs = _parse_expr_list(reader, 0)
        reader.expect_end()
        self.current_section["functional"] = RatMat.row(
            [e.constant_term for e in exprs]
        )

    def _finish_form(self) -> None:
        if self.current_form is None:
            return
        ctx = self.current_form
        space: GermPresentation = ctx["space"]
        chart_forms = dict(ctx["chart_forms"])
        for cid, dim in space.charts:
            if cid not in chart_forms:
                chart_forms[cid] = PolyForm.zero(dim, ctx["degree"])
        self.forms[ctx["name"]] = PresentedForm(
            ctx["degree"], chart_forms, name=ctx["name"]
        )
        self.current_form = None

    def _finish_section(self) -> None:
        if self.current_section is None:
            return
        ctx = self.current_section
        self.sections[ctx["name"]] = PresentedSection(
            bundle=ctx["bundle"],
            chart_data=dict(ctx["chart_data"]),
            point_functional=ctx["functional"],
            name=ctx["name"],
            space=ctx["space"].name,
        )
        self.current_section = None


def parse_document(
    text: str, space: GermPresentation | None = None
) -> ParsedDocument:
    return _DocumentParser(text, space).run()


def parse_presentation(text: str) -> ParsedDocument:
    doc = parse_document(text)
    if doc.presentation is None:
        raise ParseError("no space declaration found", 1, 1)
    return doc


def parse_sections(text: str, space: GermPresentation) -> dict[str, PresentedSection]:
    return parse_document(text, space=space).sections


# -- export ------------------------------------------------------------------


def _render_poly_list(polys) -> str:
    return "[" + ", ".join(str(p) for p in polys) + "]"


def render_poly_form(form: PolyForm) -> str:
    if form.degree == 0:
        return str(form.coeffs[0])
    basis = index_basis(form.domain_dim, form.degree)
    parts = []
    for subset, coeff in zip(basis.subsets, form.coeffs):
        if coeff.is_zero():
            continue
        text = str(coeff)
        if len(coeff.terms) > 1:
            text = f"({text})"
        parts.append(f"{text} d[{','.join(str(i) for i in subset)}]")
    return " + ".join(parts) if parts else "0"


def export_presentation(
    p: GermPresentation, forms: dict[str, PresentedForm] | None = None
) -> str:
    lines = [f"space {p.name}"]
    if p.wedge_type:
        lines.append("wedge")
    for cid, dim in p.charts:
        lines.append(f"chart {cid} : R^{dim}")
    for a in p.arrows:
        lines.append(
            f"arrow {a.name} : {a.src} -> {a.dst} = "
            + _render_poly_list(a.germ.components)
        )
    if p.ambient is not None:
        lines.append(f"ambient {p.ambient.dim}")
        for cid, _ in p.charts:
            emb = p.ambient.embeddings.get(cid)
            if emb is not None:
                lines.append(f"embed {cid} = " + _render_poly_list(emb.components))
    for name, form in (forms or {}).items():
        lines.append(f"form {name} : degree {form.degree} on {p.name}")
        for cid, _ in p.charts:
            lines.append(f"on {cid} : {render_poly_form(form.chart_forms[cid])}")
    return "\n".join(lines) + "\n"
