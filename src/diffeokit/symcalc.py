"""Exact symbolic calculus: polynomials, polynomial maps and differential forms.

Polynomials are sparse maps from exponent vectors to rational coefficients,
normalized so that zero coefficients are never stored; equality of the
canonical form decides polynomial equality with zero tolerance.  Variables
are positional (s1..sn), which keeps composition free of renaming pitfalls.

Germs of pointed smooth maps are represented by pointed polynomial maps
(all constant terms zero).  Differential k-forms carry one polynomial
coefficient per element of the lexicographic wedge basis.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, index
from typing import Mapping, Sequence

from .linalg import RatMat, rational
from .multilinear import _minors, index_basis

__all__ = [
    "Poly",
    "PolyMap",
    "PolyForm",
    "compose_maps",
    "jacobian_at_zero",
    "wedge_forms",
    "pullback_form",
    "exterior_derivative",
    "form_value_at_zero",
]

_ONE = Fraction(1)
_MINUS_ONE = Fraction(-1)


def _nonnegative(nvars: int) -> int:
    if nvars < 0:
        raise ValueError(f"negative variable count {nvars}")
    return nvars


def _accumulate(into: dict, terms: Mapping, scale: Fraction | None = None) -> dict:
    """Add ``terms``, each coefficient times ``scale`` when one is given,
    into the term dict ``into`` in place and return it.

    ``scale`` must be nonzero.  A coefficient that cancels to zero is
    deleted, so ``into`` stays canonical when both sides are.
    """
    for exps, c in terms.items():
        if scale is not None:
            c *= scale
        old = into.get(exps)
        if old is None:
            into[exps] = c
        else:
            c += old
            if c:
                into[exps] = c
            else:
                del into[exps]
    return into


def _product(a: Mapping, b: Mapping, out: dict | None = None) -> dict:
    """Product of two canonical term dicts, without zero coefficients,
    added into the term dict ``out`` when one is given."""
    if out is None:
        out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            exps = tuple(map(add, e1, e2))
            c = c1 * c2
            old = out.get(exps)
            if old is not None:
                c += old
                if not c:
                    del out[exps]
                    continue
            out[exps] = c
    return out


def _monomial(exps: tuple[int, ...], args: Sequence["Poly"], nvars: int, powers: dict) -> dict:
    """Term dict of the monomial prod args[i] ** exps[i], from the table
    ``powers`` or added to it: the monomial with its last nonzero exponent
    lowered by one, times that ``args[i]``."""
    terms = powers.get(exps)
    if terms is None:
        if not any(exps):
            terms = {(0,) * nvars: _ONE}
        else:
            i = len(exps) - 1
            while not exps[i]:
                i -= 1
            lower = exps[:i] + (exps[i] - 1,) + exps[i + 1 :]
            # a degree-1 monomial is args[i] itself, shared, never written to
            terms = args[i].terms
            if any(lower):
                terms = _product(_monomial(lower, args, nvars, powers), terms)
        powers[exps] = terms
    return terms


class Poly:
    """Sparse multivariate polynomial over the rationals.

    ``terms`` maps exponent tuples of length ``nvars`` to nonzero
    coefficients.  Instances are treated as immutable values.  The
    constructor validates and coerces its input; arithmetic builds its
    results once, through ``_trusted``, from terms that are already clean.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[tuple[int, ...], object] | None = None):
        _nonnegative(nvars)
        clean: dict[tuple[int, ...], Fraction] = {}
        if terms:
            for exps, coeff in terms.items():
                exps = tuple(map(index, exps))
                if len(exps) != nvars:
                    raise ValueError(
                        f"exponent vector {exps} has length {len(exps)}, expected {nvars}"
                    )
                if any(e < 0 for e in exps):
                    raise ValueError(f"negative exponent in {exps}")
                coeff = rational(coeff)
                if coeff != 0:
                    clean[exps] = coeff
        self.nvars = nvars
        self.terms = clean

    @classmethod
    def _trusted(cls, nvars: int, terms: dict) -> "Poly":
        """Wrap ``terms`` as it is: no copy, no check, no coercion.

        Only for terms computed from Poly terms, where every exponent tuple
        has length ``nvars`` and every coefficient is a nonzero Fraction;
        anything else goes through ``__init__``.
        """
        p = object.__new__(cls)
        p.nvars = nvars
        p.terms = terms
        return p

    # -- construction -----------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "Poly":
        return cls._trusted(_nonnegative(nvars), {})

    @classmethod
    def constant(cls, nvars: int, value) -> "Poly":
        value = rational(value)
        return cls._trusted(_nonnegative(nvars), {(0,) * nvars: value} if value else {})

    @classmethod
    def variable(cls, nvars: int, i: int) -> "Poly":
        """The coordinate s_i, with i in 1..nvars."""
        if not 1 <= i <= nvars:
            raise ValueError(f"variable s{i} out of range for {nvars} variables")
        exps = tuple(1 if j == i - 1 else 0 for j in range(nvars))
        return cls._trusted(nvars, {exps: _ONE})

    # -- arithmetic -------------------------------------------------------

    def _coerce(self, other) -> "Poly":
        if isinstance(other, Poly):
            if other.nvars != self.nvars:
                raise ValueError(
                    f"mixing polynomials in {self.nvars} and {other.nvars} variables"
                )
            return other
        return Poly.constant(self.nvars, other)

    def __add__(self, other) -> "Poly":
        other = self._coerce(other)
        return Poly._trusted(self.nvars, _accumulate(dict(self.terms), other.terms))

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly._trusted(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "Poly":
        other = self._coerce(other)
        return Poly._trusted(self.nvars, _accumulate(dict(self.terms), other.terms, _MINUS_ONE))

    def __rsub__(self, other) -> "Poly":
        return self._coerce(other) - self

    def __mul__(self, other) -> "Poly":
        other = self._coerce(other)
        return Poly._trusted(self.nvars, _product(self.terms, other.terms))

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Poly":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError(f"polynomial powers need integer exponents >= 0, got {exponent}")
        result = {(0,) * self.nvars: _ONE}
        base = self.terms
        e = exponent
        while e:
            if e & 1:
                result = _product(result, base)
            e >>= 1
            if e:
                base = _product(base, base)
        return Poly._trusted(self.nvars, result)

    # -- calculus and evaluation -------------------------------------------

    def derivative(self, i: int) -> "Poly":
        """Partial derivative with respect to s_i (i in 1..nvars)."""
        if not 1 <= i <= self.nvars:
            raise ValueError(f"variable s{i} out of range for {self.nvars} variables")
        # lowering the i-th exponent of the terms that have one is injective,
        # so no two terms meet and nothing cancels
        return Poly._trusted(
            self.nvars,
            {
                exps[: i - 1] + (exps[i - 1] - 1,) + exps[i:]: c * exps[i - 1]
                for exps, c in self.terms.items()
                if exps[i - 1]
            },
        )

    def substitute(self, args: Sequence["Poly"], nvars: int) -> "Poly":
        """Substitute args[i] for s_{i+1}; the result lives in ``nvars`` variables."""
        if len(args) != self.nvars:
            raise ValueError(
                f"substitution needs {self.nvars} arguments, got {len(args)}"
            )
        for a in args:
            if a.nvars != nvars:
                raise ValueError(
                    f"substitution argument in {a.nvars} variables, expected {nvars}"
                )
        return self._substituted(args, nvars, {})

    def _substituted(self, args: Sequence["Poly"], nvars: int, powers: dict) -> "Poly":
        """``substitute`` without its checks.

        ``powers`` is a monomial table: it maps an exponent vector to the
        term dict of that monomial of ``args``, and callers substituting the
        same ``args`` more than once pass the same table.  A monomial not in
        the table is the one a degree lower times one ``args[i]``, so each
        distinct monomial is expanded once.  Each coefficient scales its
        monomial as it is added into the result.
        """
        result: dict[tuple[int, ...], Fraction] = {}
        for exps, c in self.terms.items():
            _accumulate(result, _monomial(exps, args, nvars, powers), c)
        return Poly._trusted(nvars, result)

    def evaluate(self, point: Sequence) -> Fraction:
        point = [rational(x) for x in point]
        if len(point) != self.nvars:
            raise ValueError(f"evaluation needs {self.nvars} coordinates, got {len(point)}")
        total = Fraction(0)
        for exps, c in self.terms.items():
            v = c
            for x, e in zip(point, exps):
                if e:
                    v *= x**e
            total += v
        return total

    @property
    def constant_term(self) -> Fraction:
        return self.terms.get((0,) * self.nvars, Fraction(0))

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        """False exactly for the zero polynomial, as for a Fraction."""
        return bool(self.terms)

    # -- value semantics ----------------------------------------------------

    def _key(self):
        return (self.nvars, tuple(sorted(self.terms.items())))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        # terms are canonical, so equal dicts are equal polynomials
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash(self._key())

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        items = sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True)
        rendered = []
        for exps, coeff in items:
            factors = [
                f"s{i + 1}" + (f"^{e}" if e > 1 else "")
                for i, e in enumerate(exps)
                if e > 0
            ]
            mag = abs(coeff)
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(mag)] + factors)
            rendered.append(("-" if coeff < 0 else "+", body))
        sign, body = rendered[0]
        out = ("-" if sign == "-" else "") + body
        for sign, body in rendered[1:]:
            out += f" {sign} {body}"
        return out

    def __repr__(self) -> str:
        return f"Poly({self.nvars}, {self})"


class PolyMap:
    """Polynomial map between Euclidean coordinate domains.

    One component polynomial per target coordinate, each in the source
    variables.  The map is pointed when every constant term vanishes.
    """

    __slots__ = ("source_dim", "target_dim", "components")

    def __init__(self, source_dim: int, target_dim: int, components: Sequence[Poly]):
        components = tuple(components)
        if len(components) != target_dim:
            raise ValueError(
                f"map into R^{target_dim} needs {target_dim} components, got {len(components)}"
            )
        for c in components:
            if c.nvars != source_dim:
                raise ValueError(
                    f"component in {c.nvars} variables, expected {source_dim}"
                )
        self.source_dim = source_dim
        self.target_dim = target_dim
        self.components = components

    @classmethod
    def identity(cls, n: int) -> "PolyMap":
        return cls(n, n, [Poly.variable(n, i) for i in range(1, n + 1)])

    @classmethod
    def zero_map(cls, source_dim: int, target_dim: int) -> "PolyMap":
        return cls(source_dim, target_dim, [Poly.zero(source_dim)] * target_dim)

    @property
    def is_pointed(self) -> bool:
        return all(c.constant_term == 0 for c in self.components)

    def evaluate(self, point: Sequence) -> list[Fraction]:
        return [c.evaluate(point) for c in self.components]

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolyMap):
            return NotImplemented
        return (
            self.source_dim == other.source_dim
            and self.target_dim == other.target_dim
            and self.components == other.components
        )

    def __hash__(self):
        return hash((self.source_dim, self.target_dim, self.components))

    def __repr__(self) -> str:
        body = ", ".join(str(c) for c in self.components)
        return f"PolyMap(R^{self.source_dim} -> R^{self.target_dim}: [{body}])"


def compose_maps(f: PolyMap, g: PolyMap) -> PolyMap:
    """The composite f after g, by exact polynomial substitution."""
    if g.target_dim != f.source_dim:
        raise ValueError(
            f"cannot compose: inner map lands in R^{g.target_dim}, "
            f"outer map starts from R^{f.source_dim}"
        )
    # every component substitutes the same g.components: share their powers
    powers: dict = {}
    comps = [c._substituted(g.components, g.source_dim, powers) for c in f.components]
    return PolyMap(g.source_dim, f.target_dim, comps)


def jacobian_at_zero(f: PolyMap) -> RatMat:
    """Matrix of degree-1 coefficients of a pointed map."""
    if not f.is_pointed:
        bad = [i + 1 for i, c in enumerate(f.components) if c.constant_term != 0]
        raise ValueError(f"map is not pointed: components {bad} have constant terms")
    # Poly coefficients are nonzero Fractions, as RatMat stores its entries
    rows = [
        {exps.index(1): c for exps, c in comp.terms.items() if sum(exps) == 1}
        for comp in f.components
    ]
    return RatMat._trusted(f.target_dim, f.source_dim, rows)


class PolyForm:
    """Differential form of fixed degree with polynomial coefficients.

    Coefficients are aligned with index_basis(domain_dim, degree); a degree
    exceeding the domain dimension leaves an empty coefficient list, the
    zero form of that degree.
    """

    __slots__ = ("domain_dim", "degree", "coeffs")

    def __init__(self, domain_dim: int, degree: int, coeffs: Sequence[Poly]):
        basis = index_basis(domain_dim, degree)
        coeffs = tuple(coeffs)
        if len(coeffs) != len(basis):
            raise ValueError(
                f"degree {degree} form on R^{domain_dim} needs {len(basis)} "
                f"coefficients, got {len(coeffs)}"
            )
        for c in coeffs:
            if c.nvars != domain_dim:
                raise ValueError(
                    f"coefficient in {c.nvars} variables, expected {domain_dim}"
                )
        self.domain_dim = domain_dim
        self.degree = degree
        self.coeffs = coeffs

    @classmethod
    def zero(cls, domain_dim: int, degree: int) -> "PolyForm":
        count = len(index_basis(domain_dim, degree))
        return cls(domain_dim, degree, [Poly.zero(domain_dim)] * count)

    @classmethod
    def from_terms(
        cls, domain_dim: int, degree: int, terms: Mapping[tuple[int, ...], Poly]
    ) -> "PolyForm":
        basis = index_basis(domain_dim, degree)
        coeffs = [Poly.zero(domain_dim)] * len(basis)
        for subset, poly in terms.items():
            coeffs[basis.position(subset)] = coeffs[basis.position(subset)] + poly
        return cls(domain_dim, degree, coeffs)

    def __add__(self, other: "PolyForm") -> "PolyForm":
        self._require_like(other)
        return PolyForm(
            self.domain_dim,
            self.degree,
            [a + b for a, b in zip(self.coeffs, other.coeffs)],
        )

    def __sub__(self, other: "PolyForm") -> "PolyForm":
        self._require_like(other)
        return PolyForm(
            self.domain_dim,
            self.degree,
            [a - b for a, b in zip(self.coeffs, other.coeffs)],
        )

    def __neg__(self) -> "PolyForm":
        return PolyForm(self.domain_dim, self.degree, [-c for c in self.coeffs])

    def scale(self, factor) -> "PolyForm":
        """Multiply every coefficient by a polynomial or scalar."""
        if not isinstance(factor, Poly):
            factor = Poly.constant(self.domain_dim, factor)
        return PolyForm(self.domain_dim, self.degree, [factor * c for c in self.coeffs])

    def _require_like(self, other: "PolyForm") -> None:
        if self.domain_dim != other.domain_dim or self.degree != other.degree:
            raise ValueError(
                f"form mismatch: degree {self.degree} on R^{self.domain_dim} vs "
                f"degree {other.degree} on R^{other.domain_dim}"
            )

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolyForm):
            return NotImplemented
        return (
            self.domain_dim == other.domain_dim
            and self.degree == other.degree
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.domain_dim, self.degree, self.coeffs))

    def __repr__(self) -> str:
        basis = index_basis(self.domain_dim, self.degree)
        parts = [
            f"({c}) d{list(s)}"
            for s, c in zip(basis.subsets, self.coeffs)
            if not c.is_zero()
        ]
        body = " + ".join(parts) if parts else "0"
        return f"PolyForm(R^{self.domain_dim}, deg {self.degree}: {body})"


def _merge_ordered(I: tuple[int, ...], J: tuple[int, ...]):
    """Sorted merge of two disjoint increasing tuples and the merge sign.

    Returns (sign, merged) or None when the tuples intersect.  The sign is
    the parity of the permutation sorting the concatenation I + J.
    """
    if set(I) & set(J):
        return None
    inversions = 0
    for j in J:
        inversions += sum(1 for i in I if i > j)
    merged = tuple(sorted(I + J))
    return (-1 if inversions % 2 else 1), merged


def wedge_forms(a: PolyForm, b: PolyForm) -> PolyForm:
    """Exterior product; degrees add and signs follow the merge parity."""
    if a.domain_dim != b.domain_dim:
        raise ValueError(
            f"wedge of forms on R^{a.domain_dim} and R^{b.domain_dim}"
        )
    n = a.domain_dim
    degree = a.degree + b.degree
    acc: dict[tuple[int, ...], Poly] = {}
    a_basis = index_basis(n, a.degree).subsets
    b_basis = index_basis(n, b.degree).subsets
    for I, p in zip(a_basis, a.coeffs):
        if p.is_zero():
            continue
        for J, q in zip(b_basis, b.coeffs):
            if q.is_zero():
                continue
            merged = _merge_ordered(I, J)
            if merged is None:
                continue
            sign, K = merged
            contrib = p * q if sign > 0 else -(p * q)
            acc[K] = acc.get(K, Poly.zero(n)) + contrib
    return PolyForm.from_terms(n, degree, acc)


def exterior_derivative(w: PolyForm) -> PolyForm:
    """Coefficient-wise exterior derivative; applying it twice gives zero."""
    n, k = w.domain_dim, w.degree
    acc: dict[tuple[int, ...], Poly] = {}
    for I, p in zip(index_basis(n, k).subsets, w.coeffs):
        if p.is_zero():
            continue
        for i in range(1, n + 1):
            if i in I:
                continue
            dp = p.derivative(i)
            if dp.is_zero():
                continue
            sign, K = _merge_ordered((i,), I)
            acc[K] = acc.get(K, Poly.zero(n)) + (dp if sign > 0 else -dp)
    return PolyForm.from_terms(n, k + 1, acc)


def pullback_form(w: PolyForm, f: PolyMap) -> PolyForm:
    """Exact pullback of ``w`` along ``f``, through the exterior power of
    its Jacobian.

    The coefficient of dI is the sum over J of w_J composed with ``f``
    times the minor of the Jacobian of ``f`` on rows J and columns I.  Each
    J with a nonzero coefficient expands the minors of its own rows only.
    """
    if f.target_dim != w.domain_dim:
        raise ValueError(
            f"cannot pull a form on R^{w.domain_dim} back along a map into R^{f.target_dim}"
        )
    n, k = f.source_dim, w.degree
    if not k:
        # a function pulls back by composition alone
        return PolyForm(n, 0, [w.coeffs[0]._substituted(f.components, n, {})])
    # nonzero partial derivatives of each component, as (1-based column, Poly)
    jacobian = [
        [(i, dc) for i in range(1, n + 1) if (dc := c.derivative(i))]
        for c in f.components
    ]
    powers: dict = {}
    positions = index_basis(n, k).positions
    # one term dict per output coefficient, each wrapped once at the end
    terms: list[dict] = [{} for _ in positions]
    for J, coeff in zip(index_basis(w.domain_dim, k).subsets, w.coeffs):
        if not coeff:
            continue
        pulled = coeff._substituted(f.components, n, powers).terms
        # k rows give at most one row subset of minors
        for by_cols in _minors([jacobian[j - 1] for j in J], k).values():
            for I, m in by_cols.items():
                _product(pulled, m.terms, terms[positions[I]])
    return PolyForm(n, k, [Poly._trusted(n, t) for t in terms])


def form_value_at_zero(w: PolyForm) -> RatMat:
    """Constant terms of the coefficients, as a row in the wedge dual basis."""
    return RatMat.row([c.constant_term for c in w.coeffs])
