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
    functional = [c1, ..., cD]  (optional, at most one per section, cotangent only)

Expressions use the variables s1..sN of the relevant chart, exact rational
literals (integers and fractions such as 3/2), +, -, *, parentheses and
integer powers written e^k.  A slash is only legal between two integer
literals.  In a form line a term's coefficient is everything since the
previous term, so 1 + s1 d[1] reads as (1 + s1) d[1], and a second term
needs its own d[...], as in s1 d[1] + 2 d[2].  A '-' between terms
negates the whole next coefficient: s1 d[1] - 2 + s2 d[2] reads as
s1 d[1] - (2 + s2) d[2].
An empty coordinate list in an arrow or embed is shorthand for the zero
germ out of a zero-dimensional chart.  A section takes at most one
functional line.

Parsing is one pass: each line is scanned once into tokens, and each
expression is built straight into one term dict.  It is deterministic, and
parse -> print -> parse is the identity on normal forms.  Errors carry
one-based line and column positions; a bad character is reported before
any other error on its line.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from fractions import Fraction

from .forms import PresentedForm, PresentedSection
from .linalg import RatMat
from .presentation import Ambient, Arrow, GermPresentation
from .symcalc import _ONE, Poly, PolyForm, PolyMap, _accumulate, _product
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
    "space", "chart", "arrow", "ambient", "embed", "form", "on", "degree", "wedge",
    "section", "functional", "tangent", "cotangent", "d", "R",
}

_VARIABLE_RE = re.compile(r"s[1-9][0-9]*\Z")

# one scan per line; whitespace matches no group and is skipped, and the
# catch-all last group gives the position of a bad character
_TOKEN_RE = re.compile(
    r"(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<int>[0-9]+)|(?P<sym>->|[-+*/^=:,()\[\]])|(?P<bad>\S)"
)

# deepest nesting of '(' and unary '-'; at two frames per parenthesis the
# parser stays well inside Python's default recursion limit of 1000
_MAX_NESTING = 100
_TOO_DEEP = f"expression nested more than {_MAX_NESTING} levels deep"

# statements that build the space, legal only before its first form or section
_STRUCTURE = {"space", "wedge", "chart", "arrow", "ambient", "embed"}


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {message}")
        self.reason = message
        self.line = line
        self.col = col


# A token is a tuple (kind, text, line, col), kind "name", "int", "sym" or
# "end".  Every line's tokens close with an "end" token one column past the
# raw line, so no probe runs off the list.  A symbol or keyword is told
# apart by its text alone: names, integers and symbols share no text.


def _error(message: str, tok: tuple) -> ParseError:
    return ParseError(message, tok[2], tok[3])


def _expect(toks: list, i: int, text: str) -> int:
    if toks[i][1] != text:
        raise _error(f"expected {text!r}", toks[i])
    return i + 1


def _expect_end(toks: list, i: int) -> None:
    if toks[i][0] != "end":
        raise _error(f"unexpected trailing input {toks[i][1]!r}", toks[i])


# -- expressions -------------------------------------------------------------
#
# An expression parses into one term dict {exponents: Fraction}.  Each parse
# function takes the token list and an index, and returns the terms and the
# index after them.  The sign of a term travels down as ``negate`` to its
# first factor, so a sum is not negated term by term after it is built.


def _expr(toks: list, i: int, nvars: int, depth: int, negate: bool = False) -> tuple[dict, int]:
    """A sum of products of factors, negated when ``negate`` is set."""
    total = None
    sign = negate
    while True:
        term, i = _factor(toks, i, nvars, depth, sign)
        while toks[i][1] == "*":
            rhs, i = _factor(toks, i + 1, nvars, depth, False)
            term = _product(term, rhs)
        total = term if total is None else _accumulate(total, term)
        op = toks[i][1]
        if op != "+" and op != "-":
            return total, i
        sign = negate != (op == "-")
        i += 1


def _factor(toks: list, i: int, nvars: int, depth: int, negate: bool) -> tuple[dict, int]:
    """Unary minus signs, then a literal, variable or parenthesis, then '^k'."""
    tok = toks[i]
    while tok[1] == "-":
        depth += 1
        if depth > _MAX_NESTING:
            raise _error(_TOO_DEEP, tok)
        negate = not negate
        i += 1
        tok = toks[i]
    kind, text = tok[0], tok[1]
    i += 1
    if kind == "int":
        value = Fraction(int(text))
        if toks[i][1] == "/":
            den = toks[i + 1]
            if den[0] != "int":
                raise _error("expected an integer denominator", den)
            if not int(den[1]):
                raise _error("zero denominator", den)
            value = Fraction(int(text), int(den[1]))
            i += 2
        terms = {(0,) * nvars: value} if value else {}
    elif kind == "name":
        if not _VARIABLE_RE.match(text):
            raise _error(f"unexpected identifier {text!r}", tok)
        idx = int(text[1:])
        if idx > nvars:
            raise _error(
                f"variable {text} out of range for a {nvars}-dimensional context", tok
            )
        terms = {(0,) * (idx - 1) + (1,) + (0,) * (nvars - idx): _ONE}
    elif text == "(":
        if depth + 1 > _MAX_NESTING:
            raise _error(_TOO_DEEP, tok)
        terms, i = _expr(toks, i, nvars, depth + 1)
        i = _expect(toks, i, ")")
    elif kind == "end":
        raise _error("expected an expression", tok)
    else:
        raise _error(f"unexpected token {text!r}", tok)
    if toks[i][1] == "^":
        exponent = toks[i + 1]
        if exponent[0] != "int":
            raise _error("expected an integer exponent", exponent)
        terms = (Poly._trusted(nvars, terms) ** int(exponent[1])).terms
        i += 2
    if negate:
        terms = (-Poly._trusted(nvars, terms)).terms
    return terms, i


def _wedge_indices(toks: list, i: int, degree: int, nvars: int) -> tuple[tuple, int]:
    """``d[i1,...,ik]`` from the ``d`` at ``toks[i]``."""
    dtok = toks[i]
    i = _expect(toks, i + 1, "[")
    indices = []
    if toks[i][1] != "]":
        while True:
            if toks[i][0] != "int":
                raise _error("expected a coordinate index", toks[i])
            indices.append(int(toks[i][1]))
            if toks[i + 1][1] != ",":
                break
            i += 2
        i += 1
    i = _expect(toks, i, "]")
    if len(indices) != degree:
        raise _error(f"d[...] lists {len(indices)} indices, form has degree {degree}", dtok)
    if any(not 1 <= k <= nvars for k in indices):
        raise _error(f"wedge indices must lie in 1..{nvars}", dtok)
    if any(a >= b for a, b in zip(indices, indices[1:])):
        raise _error("wedge indices must be strictly increasing", dtok)
    return tuple(indices), i


def _form_expr(toks: list, i: int, degree: int, nvars: int) -> PolyForm:
    """``e d[...] + ...`` to the end of the line; on degree 0 a plain sum."""
    coeffs: dict[tuple[int, ...], dict] = {}
    # a '-' right before d[...] negates that term's unit coefficient; once a
    # d[...] part closed a term, +/- separate the next term and the sign
    # folds into its coefficient
    negate = toks[i][1] == "-" and toks[i + 1][1] == "d"
    if negate:
        i += 1
    while True:
        start = toks[i]
        if start[1] == "d":
            coeff = {(0,) * nvars: -_ONE if negate else _ONE}
        else:
            coeff, i = _expr(toks, i, nvars, 0, negate)
        if toks[i][1] == "d":
            subset, i = _wedge_indices(toks, i, degree, nvars)
        elif degree and coeff:
            raise _error(f"a degree {degree} term needs a d[...] part", start)
        else:
            subset = ()
        if coeff:
            _accumulate(coeffs.setdefault(subset, {}), coeff)
        op = toks[i][1]
        if op != "+" and op != "-":
            break
        negate = op == "-"
        i += 1
    _expect_end(toks, i)
    return PolyForm.from_terms(
        nvars, degree, {k: Poly._trusted(nvars, t) for k, t in coeffs.items()}
    )


# -- documents ---------------------------------------------------------------


@dataclass
class ParsedDocument:
    presentation: GermPresentation | None
    forms: dict[str, PresentedForm] = field(default_factory=dict)
    sections: dict[str, PresentedSection] = field(default_factory=dict)


class _DocumentParser:
    """Statements in line order; ``toks`` and ``i`` hold the current line."""

    def __init__(self, text: str, external_space: GermPresentation | None):
        self.text = text
        self.external_space = external_space
        self.name: str | None = None
        self.wedge = False
        self.charts: dict[str, int] = {}
        self.arrows: dict[str, Arrow] = {}
        self.ambient_dim: int | None = None
        self.embeddings: dict[str, PolyMap] = {}
        self.presentation: GermPresentation | None = None
        self.forms: dict[str, PresentedForm] = {}
        self.sections: dict[str, PresentedSection] = {}
        # the open form or section block and the space its charts come from
        self.block: PresentedForm | PresentedSection | None = None
        self.block_space: GermPresentation | None = None
        self.toks: list[tuple] = []
        self.i = 0

    def run(self) -> ParsedDocument:
        for lineno, raw in enumerate(self.text.splitlines(), start=1):
            toks = [
                (m.lastgroup, m.group(), lineno, m.start() + 1)
                for m in _TOKEN_RE.finditer(raw.partition("#")[0])
            ]
            if not toks:
                continue
            for tok in toks:
                if tok[0] == "bad":
                    raise _error(f"unexpected character {tok[1]!r}", tok)
            toks.append(("end", "", lineno, len(raw) + 1))
            head = toks[0]
            if head[0] != "name":
                raise _error(f"unexpected token {head[1]!r}", head)
            handler = _STATEMENTS.get(head[1])
            if handler is None:
                raise _error(f"unknown directive {head[1]!r}", head)
            self.toks, self.i = toks, 1
            if head[1] in _STRUCTURE and self.presentation is not None:
                raise self._error_here(f"{head[1]} declarations must precede forms and sections")
            handler(self)
        self._open(None, None)
        presentation = self._space() if self.name is not None else None
        return ParsedDocument(presentation, self.forms, self.sections)

    # -- the current line ---------------------------------------------------

    def _error_here(self, message: str) -> ParseError:
        return _error(message, self.toks[self.i])

    def _want(self, *texts: str) -> tuple:
        """Take the given symbols or keywords; return the last one's token."""
        for text in texts:
            tok = self.toks[self.i]
            self.i = _expect(self.toks, self.i, text)
        return tok

    def _take(self, kind: str, what: str) -> tuple:
        tok = self.toks[self.i]
        if tok[0] != kind:
            raise _error(f"expected {what}", tok)
        self.i += 1
        return tok

    def _end(self) -> None:
        _expect_end(self.toks, self.i)

    def _fresh(self, what: str, taken) -> str:
        """A new name for a ``what``: not reserved and not in ``taken``."""
        tok = self._take("name", f"{what} name")
        name = tok[1]
        if name in _KEYWORDS or _VARIABLE_RE.match(name):
            article = "an" if what[0] in "aeiou" else "a"
            raise _error(f"{name!r} is reserved and cannot name {article} {what}", tok)
        if name in taken:
            raise _error(f"duplicate {what} {name!r}", tok)
        return name

    def _chart(self, space: GermPresentation | None = None) -> tuple[tuple, int]:
        """A chart of ``space``, or of this document's charts; its token and dimension."""
        tok = self._take("name", "a chart name")
        if space is None:
            if tok[1] not in self.charts:
                raise _error(f"unknown chart {tok[1]!r}", tok)
            return tok, self.charts[tok[1]]
        if not space.has_chart(tok[1]):
            raise _error(f"unknown chart {tok[1]!r} in space {space.name!r}", tok)
        return tok, space.chart_dim(tok[1])

    def _exprs(self, nvars: int) -> list[Poly]:
        """``[e1, ..., em]`` in ``nvars`` variables."""
        toks = self.toks
        i = _expect(toks, self.i, "[")
        exprs = []
        if toks[i][1] != "]":
            while True:
                terms, i = _expr(toks, i, nvars, 0)
                exprs.append(Poly._trusted(nvars, terms))
                if toks[i][1] != ",":
                    break
                i += 1
        self.i = _expect(toks, i, "]")
        return exprs

    def _germ(self, src_dim: int, dst_dim: int, what: str) -> PolyMap:
        """``= [e1, ..., em]`` to the end of the line, as a map R^src -> R^dst;
        ``[]`` is the zero germ out of R^0."""
        eq = self._want("=")
        exprs = self._exprs(src_dim)
        self._end()
        if not exprs and src_dim == 0:
            return PolyMap.zero_map(0, dst_dim)
        if len(exprs) != dst_dim:
            raise _error(f"{what} needs {dst_dim} coordinates, got {len(exprs)}", eq)
        return PolyMap(src_dim, dst_dim, exprs)

    def _space(self) -> GermPresentation | None:
        """The space forms and sections refer to; building it ends the
        structure statements."""
        if self.name is None:
            return self.external_space
        if self.presentation is None:
            ambient = None
            if self.ambient_dim is not None:
                ambient = Ambient(self.ambient_dim, self.embeddings)
            self.presentation = GermPresentation(
                self.name,
                list(self.charts.items()),
                list(self.arrows.values()),
                ambient=ambient,
                wedge_type=self.wedge,
            )
        return self.presentation

    def _space_reference(self) -> GermPresentation:
        tok = self._take("name", "a space name")
        space = self._space()
        if space is None:
            raise _error(f"no space is available to resolve {tok[1]!r}", tok)
        if space.name != tok[1]:
            raise _error(
                f"form or section references space {tok[1]!r}, "
                f"available space is {space.name!r}",
                tok,
            )
        return space

    def _open(self, block, space: GermPresentation | None) -> None:
        """Close the open block, if any, and make ``block`` the open one.
        A closed form gets the zero component on every chart it left out."""
        if isinstance(self.block, PresentedForm):
            for cid, dim in self.block_space.charts:
                if cid not in self.block.chart_forms:
                    self.block.chart_forms[cid] = PolyForm.zero(dim, self.block.degree)
        self.block, self.block_space = block, space

    # -- statements ---------------------------------------------------------

    def _stmt_space(self) -> None:
        if self.name is not None:
            raise self._error_here("duplicate space declaration")
        self.name = self._fresh("space", ())
        self._end()

    def _stmt_wedge(self) -> None:
        self._end()
        self.wedge = True

    def _stmt_chart(self) -> None:
        name = self._fresh("chart", self.charts)
        self._want(":", "R", "^")
        dim = int(self._take("int", "a dimension after '^'")[1])
        self._end()
        self.charts[name] = dim

    def _stmt_arrow(self) -> None:
        name = self._fresh("arrow", self.arrows)
        self._want(":")
        src, src_dim = self._chart()
        self._want("->")
        dst, dst_dim = self._chart()
        germ = self._germ(src_dim, dst_dim, f"arrow {name!r} into a {dst_dim}-dimensional chart")
        self.arrows[name] = Arrow(name, src[1], dst[1], germ)

    def _stmt_ambient(self) -> None:
        if self.ambient_dim is not None:
            raise self._error_here("duplicate ambient declaration")
        dim = int(self._take("int", "an ambient dimension")[1])
        self._end()
        self.ambient_dim = dim

    def _stmt_embed(self) -> None:
        n = self.ambient_dim
        if n is None:
            raise self._error_here("embed requires a preceding ambient declaration")
        tok, dim = self._chart()
        if tok[1] in self.embeddings:
            raise _error(f"duplicate embedding for chart {tok[1]!r}", tok)
        self.embeddings[tok[1]] = self._germ(dim, n, f"embedding into R^{n}")

    def _stmt_form(self) -> None:
        name = self._fresh("form", self.forms)
        self._want(":", "degree")
        degree = int(self._take("int", "a degree")[1])
        self._want("on")
        space = self._space_reference()
        self._end()
        self.forms[name] = PresentedForm(degree, {}, name=name)
        self._open(self.forms[name], space)

    def _stmt_section(self) -> None:
        name = self._fresh("section", self.sections)
        self._want(":")
        bundle = self._take("name", "'tangent' or 'cotangent'")
        if bundle[1] not in ("tangent", "cotangent"):
            raise _error(f"expected 'tangent' or 'cotangent', got {bundle[1]!r}", bundle)
        self._want("on")
        space = self._space_reference()
        self._end()
        self.sections[name] = PresentedSection(bundle[1], {}, None, name, space.name)
        self._open(self.sections[name], space)

    def _stmt_on(self) -> None:
        block = self.block
        if block is None:
            raise self._error_here("'on' outside of a form or section block")
        tok, dim = self._chart(self.block_space)
        chart = tok[1]
        if isinstance(block, PresentedForm):
            if chart in block.chart_forms:
                raise _error(f"duplicate component for chart {chart!r}", tok)
            self._want(":")
            block.chart_forms[chart] = _form_expr(self.toks, self.i, block.degree, dim)
            return
        if chart in block.chart_data:
            raise _error(f"duplicate section data for chart {chart!r}", tok)
        colon = self._want(":")
        exprs = self._exprs(dim)
        self._end()
        if len(exprs) != dim:
            raise _error(
                f"section data on a {dim}-dimensional chart needs "
                f"{dim} coefficients, got {len(exprs)}",
                colon,
            )
        block.chart_data[chart] = PolyMap(dim, dim, exprs)

    def _stmt_functional(self) -> None:
        block = self.block
        if not isinstance(block, PresentedSection):
            raise self._error_here("'functional' outside of a section block")
        if block.bundle != "cotangent":
            raise self._error_here("'functional' is only meaningful for cotangent sections")
        if block.point_functional is not None:
            raise _error(f"duplicate functional for section {block.name!r}", self.toks[0])
        self._want("=")
        exprs = self._exprs(0)
        self._end()
        functional = RatMat.row([e.constant_term for e in exprs])
        self.block = self.sections[block.name] = replace(block, point_functional=functional)


_STATEMENTS = {
    "space": _DocumentParser._stmt_space,
    "wedge": _DocumentParser._stmt_wedge,
    "chart": _DocumentParser._stmt_chart,
    "arrow": _DocumentParser._stmt_arrow,
    "ambient": _DocumentParser._stmt_ambient,
    "embed": _DocumentParser._stmt_embed,
    "form": _DocumentParser._stmt_form,
    "section": _DocumentParser._stmt_section,
    "on": _DocumentParser._stmt_on,
    "functional": _DocumentParser._stmt_functional,
}


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
