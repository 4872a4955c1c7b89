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

Parsing is one pass: each line is scanned once into plain string tokens,
and each product of literals and variables is folded into one monomial,
so only parenthesized factors build term dicts of their own.  It is
deterministic, and parse -> export -> parse is the identity on whole
documents.  Errors carry one-based line and column positions; a bad
character is reported before any other error on its line.  The column of
any other error is worked out only when it is raised, by scanning its line
again.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from fractions import Fraction

from .forms import PresentedForm, PresentedSection
from .linalg import RatMat
from .presentation import Ambient, Arrow, GermPresentation
from .symcalc import _ONE, Poly, PolyForm, PolyMap, _accumulate, _product
from .multilinear import IndexBasis, index_basis

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

# one scan per line into names, integers, symbols and single bad characters;
# whitespace is skipped
_TOKEN_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|[0-9]+|->|[-+*/^=:,()\[\]]|\S")
# what the scan above takes as a bad character: a '>' is good only in '->'
_BAD_RE = re.compile(r"[^\sA-Za-z0-9_+*/^=:,()\[\]>-]|(?<!-)>")

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


# A token is its text.  Names, integers and symbols share no text, so a
# token's kind is read from the text: a name is an identifier, an integer is
# all digits.  Every line's tokens close with an empty end token, which
# stands one column past the raw line, so no probe runs off the list.


class _LineError(Exception):
    """A parse error at token ``index`` of the line being read; the
    document parser adds the line and column."""

    def __init__(self, message: str, index: int):
        self.message = message
        self.index = index


def _column(raw: str, index: int) -> int:
    """The one-based column of token ``index`` of the line ``raw``."""
    starts = [m.start() for m in _TOKEN_RE.finditer(raw.partition("#")[0])]
    return starts[index] + 1 if index < len(starts) else len(raw) + 1


def _expect(toks: list, i: int, text: str) -> int:
    if toks[i] != text:
        raise _LineError(f"expected {text!r}", i)
    return i + 1


def _expect_end(toks: list, i: int) -> None:
    if toks[i]:
        raise _LineError(f"unexpected trailing input {toks[i]!r}", i)


# -- expressions -------------------------------------------------------------
#
# An expression parses into one term dict {exponents: Fraction}.  Each parse
# function takes the token list and an index, and returns the terms and the
# index after them.  The sign of a term travels down as ``negate``, so a sum
# is not negated term by term after it is built.


def _expr(toks: list, i: int, nvars: int, depth: int, negate: bool = False) -> tuple[dict, int]:
    """A sum of products, negated when ``negate`` is set."""
    total, i = _term(toks, i, nvars, depth, negate)
    while True:
        op = toks[i]
        if op != "+" and op != "-":
            return total, i
        term, i = _term(toks, i + 1, nvars, depth, negate != (op == "-"))
        _accumulate(total, term)


def _term(toks: list, i: int, nvars: int, depth: int, negate: bool) -> tuple[dict, int]:
    """``factor ('*' factor)*``, where a factor is unary minus signs, then a
    literal, variable or parenthesis, then '^k'.  Literals and variables
    fold into one monomial num/den * s^exps; only parentheses build terms."""
    num = den = 1
    exps = [0] * nvars
    paren = None
    while True:
        tok = toks[i]
        nesting = depth
        while tok == "-":
            nesting += 1
            if nesting > _MAX_NESTING:
                raise _LineError(_TOO_DEEP, i)
            negate = not negate
            i += 1
            tok = toks[i]
        i += 1
        var = inner = None
        if tok.isdigit():
            p, q = int(tok), 1
            if toks[i] == "/":
                if not toks[i + 1].isdigit():
                    raise _LineError("expected an integer denominator", i + 1)
                q = int(toks[i + 1])
                if not q:
                    raise _LineError("zero denominator", i + 1)
                i += 2
        elif tok.isidentifier():
            if not _VARIABLE_RE.match(tok):
                raise _LineError(f"unexpected identifier {tok!r}", i - 1)
            var = int(tok[1:]) - 1
            if var >= nvars:
                raise _LineError(
                    f"variable {tok} out of range for a {nvars}-dimensional context", i - 1
                )
        elif tok == "(":
            if nesting + 1 > _MAX_NESTING:
                raise _LineError(_TOO_DEEP, i - 1)
            inner, i = _expr(toks, i, nvars, nesting + 1)
            i = _expect(toks, i, ")")
        elif not tok:
            raise _LineError("expected an expression", i - 1)
        else:
            raise _LineError(f"unexpected token {tok!r}", i - 1)
        k = 1
        if toks[i] == "^":
            if not toks[i + 1].isdigit():
                raise _LineError("expected an integer exponent", i + 1)
            k = int(toks[i + 1])
            i += 2
        if var is not None:
            exps[var] += k
        elif inner is None:
            num *= p**k
            den *= q**k
        else:
            if k != 1:
                inner = (Poly._trusted(nvars, inner) ** k).terms
            paren = inner if paren is None else _product(paren, inner)
        if toks[i] != "*":
            break
        i += 1
    if not num:
        return {}, i
    if paren is not None and num == den == 1 and not negate and not any(exps):
        return paren, i
    monomial = {tuple(exps): Fraction(-num if negate else num, den)}
    return (monomial if paren is None else _product(paren, monomial)), i


def _wedge_indices(toks: list, i: int, basis: IndexBasis) -> tuple[tuple, int]:
    """``d[i1,...,ik]`` from the ``d`` at ``toks[i]``: a subset in ``basis``."""
    d = i
    i = _expect(toks, i + 1, "[")
    indices = []
    if toks[i] != "]":
        while True:
            if not toks[i].isdigit():
                raise _LineError("expected a coordinate index", i)
            indices.append(int(toks[i]))
            if toks[i + 1] != ",":
                break
            i += 2
        i += 1
    i = _expect(toks, i, "]")
    subset = tuple(indices)
    if subset not in basis.positions:
        if len(subset) != basis.degree:
            raise _LineError(
                f"d[...] lists {len(subset)} indices, form has degree {basis.degree}", d
            )
        if any(not 1 <= k <= basis.ambient_dim for k in subset):
            raise _LineError(f"wedge indices must lie in 1..{basis.ambient_dim}", d)
        raise _LineError("wedge indices must be strictly increasing", d)
    return subset, i


def _form_expr(toks: list, i: int, degree: int, nvars: int) -> PolyForm:
    """``e d[...] + ...`` to the end of the line; on degree 0 a plain sum."""
    basis = index_basis(nvars, degree)
    coeffs: dict[tuple[int, ...], dict] = {}
    # a '-' right before d[...] negates that term's unit coefficient; once a
    # d[...] part closed a term, +/- separate the next term and the sign
    # folds into its coefficient
    negate = toks[i] == "-" and toks[i + 1] == "d"
    if negate:
        i += 1
    while True:
        start = i
        if toks[i] == "d":
            coeff = {(0,) * nvars: -_ONE if negate else _ONE}
        else:
            coeff, i = _expr(toks, i, nvars, 0, negate)
        if toks[i] == "d":
            subset, i = _wedge_indices(toks, i, basis)
        elif degree and coeff:
            raise _LineError(f"a degree {degree} term needs a d[...] part", start)
        else:
            subset = ()
        if coeff:
            _accumulate(coeffs.setdefault(subset, {}), coeff)
        op = toks[i]
        if op != "+" and op != "-":
            break
        negate = op == "-"
        i += 1
    _expect_end(toks, i)
    out = [Poly.zero(nvars)] * len(basis)
    for subset, terms in coeffs.items():
        out[basis.positions[subset]] = Poly._trusted(nvars, terms)
    return PolyForm(nvars, degree, out)


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
        self.toks: list[str] = []
        self.i = 0

    def run(self) -> ParsedDocument:
        for lineno, raw in enumerate(self.text.splitlines(), start=1):
            code = raw.partition("#")[0]
            toks = _TOKEN_RE.findall(code)
            if not toks:
                continue
            bad = _BAD_RE.search(code)
            if bad:
                raise ParseError(f"unexpected character {bad.group()!r}", lineno, bad.start() + 1)
            toks.append("")
            self.toks, self.i = toks, 1
            head = toks[0]
            try:
                if not head.isidentifier():
                    raise _LineError(f"unexpected token {head!r}", 0)
                handler = getattr(self, "_stmt_" + head, None)
                if handler is None:
                    raise _LineError(f"unknown directive {head!r}", 0)
                if head in _STRUCTURE and self.presentation is not None:
                    raise self._error_here(f"{head} declarations must precede forms and sections")
                handler()
            except _LineError as err:
                raise ParseError(err.message, lineno, _column(raw, err.index)) from None
        self._open(None, None)
        presentation = self._space() if self.name is not None else None
        return ParsedDocument(presentation, self.forms, self.sections)

    # -- the current line ---------------------------------------------------

    def _error_here(self, message: str) -> _LineError:
        return _LineError(message, self.i)

    def _error_taken(self, message: str) -> _LineError:
        """An error at the token just taken."""
        return _LineError(message, self.i - 1)

    def _want(self, *texts: str) -> None:
        """Take the given symbols or keywords."""
        for text in texts:
            self.i = _expect(self.toks, self.i, text)

    def _take(self, test, what: str) -> str:
        """Take a token that passes ``test``: ``str.isidentifier`` for a
        name, ``str.isdigit`` for an integer."""
        tok = self.toks[self.i]
        if not test(tok):
            raise self._error_here(f"expected {what}")
        self.i += 1
        return tok

    def _end(self) -> None:
        _expect_end(self.toks, self.i)

    def _fresh(self, what: str, taken) -> str:
        """A new name for a ``what``: not reserved and not in ``taken``."""
        name = self._take(str.isidentifier, f"{what} name")
        if name in _KEYWORDS or _VARIABLE_RE.match(name):
            article = "an" if what[0] in "aeiou" else "a"
            raise self._error_taken(f"{name!r} is reserved and cannot name {article} {what}")
        if name in taken:
            raise self._error_taken(f"duplicate {what} {name!r}")
        return name

    def _chart(self, space: GermPresentation | None = None) -> tuple[str, int]:
        """A chart of ``space``, or of this document's charts; its name and dimension."""
        chart = self._take(str.isidentifier, "a chart name")
        if space is None:
            if chart not in self.charts:
                raise self._error_taken(f"unknown chart {chart!r}")
            return chart, self.charts[chart]
        if not space.has_chart(chart):
            raise self._error_taken(f"unknown chart {chart!r} in space {space.name!r}")
        return chart, space.chart_dim(chart)

    def _exprs(self, nvars: int) -> list[Poly]:
        """``[e1, ..., em]`` in ``nvars`` variables."""
        toks = self.toks
        i = _expect(toks, self.i, "[")
        exprs = []
        if toks[i] != "]":
            while True:
                terms, i = _expr(toks, i, nvars, 0)
                exprs.append(Poly._trusted(nvars, terms))
                if toks[i] != ",":
                    break
                i += 1
        self.i = _expect(toks, i, "]")
        return exprs

    def _germ(self, src_dim: int, dst_dim: int, what: str) -> PolyMap:
        """``= [e1, ..., em]`` to the end of the line, as a map R^src -> R^dst;
        ``[]`` is the zero germ out of R^0."""
        self._want("=")
        eq = self.i - 1
        exprs = self._exprs(src_dim)
        self._end()
        if not exprs and src_dim == 0:
            return PolyMap.zero_map(0, dst_dim)
        if len(exprs) != dst_dim:
            raise _LineError(f"{what} needs {dst_dim} coordinates, got {len(exprs)}", eq)
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
        """The space an ``on SPACE`` header names: the external space when
        there is one, even if the document declares a space of its own."""
        name = self._take(str.isidentifier, "a space name")
        space = self._space()  # ends the structure statements
        if self.external_space is not None:
            space = self.external_space
        if space is None:
            raise self._error_taken(f"no space is available to resolve {name!r}")
        if space.name != name:
            raise self._error_taken(
                f"form or section references space {name!r}, "
                f"available space is {space.name!r}"
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

    # -- statements: a line starting with HEAD is read by _stmt_HEAD --------

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
        dim = int(self._take(str.isdigit, "a dimension after '^'"))
        self._end()
        self.charts[name] = dim

    def _stmt_arrow(self) -> None:
        name = self._fresh("arrow", self.arrows)
        self._want(":")
        src, src_dim = self._chart()
        self._want("->")
        dst, dst_dim = self._chart()
        germ = self._germ(src_dim, dst_dim, f"arrow {name!r} into a {dst_dim}-dimensional chart")
        self.arrows[name] = Arrow(name, src, dst, germ)

    def _stmt_ambient(self) -> None:
        if self.ambient_dim is not None:
            raise self._error_here("duplicate ambient declaration")
        dim = int(self._take(str.isdigit, "an ambient dimension"))
        self._end()
        self.ambient_dim = dim

    def _stmt_embed(self) -> None:
        n = self.ambient_dim
        if n is None:
            raise self._error_here("embed requires a preceding ambient declaration")
        chart, dim = self._chart()
        if chart in self.embeddings:
            raise self._error_taken(f"duplicate embedding for chart {chart!r}")
        self.embeddings[chart] = self._germ(dim, n, f"embedding into R^{n}")

    def _stmt_form(self) -> None:
        name = self._fresh("form", self.forms)
        self._want(":", "degree")
        degree = int(self._take(str.isdigit, "a degree"))
        self._want("on")
        space = self._space_reference()
        self._end()
        self.forms[name] = PresentedForm(degree, {}, name=name)
        self._open(self.forms[name], space)

    def _stmt_section(self) -> None:
        name = self._fresh("section", self.sections)
        self._want(":")
        bundle = self._take(str.isidentifier, "'tangent' or 'cotangent'")
        if bundle not in ("tangent", "cotangent"):
            raise self._error_taken(f"expected 'tangent' or 'cotangent', got {bundle!r}")
        self._want("on")
        space = self._space_reference()
        self._end()
        self.sections[name] = PresentedSection(bundle, {}, None, name, space.name)
        self._open(self.sections[name], space)

    def _stmt_on(self) -> None:
        block = self.block
        if block is None:
            raise self._error_here("'on' outside of a form or section block")
        chart, dim = self._chart(self.block_space)
        if isinstance(block, PresentedForm):
            if chart in block.chart_forms:
                raise self._error_taken(f"duplicate component for chart {chart!r}")
            self._want(":")
            block.chart_forms[chart] = _form_expr(self.toks, self.i, block.degree, dim)
            return
        if chart in block.chart_data:
            raise self._error_taken(f"duplicate section data for chart {chart!r}")
        self._want(":")
        colon = self.i - 1
        exprs = self._exprs(dim)
        self._end()
        if len(exprs) != dim:
            raise _LineError(
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
            raise _LineError(f"duplicate functional for section {block.name!r}", 0)
        self._want("=")
        exprs = self._exprs(0)
        self._end()
        functional = RatMat.row([e.constant_term for e in exprs])
        self.block = self.sections[block.name] = replace(block, point_functional=functional)


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
    p: GermPresentation,
    forms: dict[str, PresentedForm] | None = None,
    sections: dict[str, PresentedSection] | None = None,
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
    for name, section in (sections or {}).items():
        lines.append(f"section {name} : {section.bundle} on {p.name}")
        for cid, _ in p.charts:
            data = section.chart_data.get(cid)
            if data is not None:
                lines.append(f"on {cid} : " + _render_poly_list(data.components))
        if section.point_functional is not None:
            lines.append(f"functional = {_render_poly_list(section.point_functional.row_list(0))}")
    return "\n".join(lines) + "\n"
