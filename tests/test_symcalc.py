import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffeokit.linalg import RatMat
from diffeokit.multilinear import exterior_power_map
from diffeokit.symcalc import (
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
from util_rand import (
    derivative_by_difference,
    rand_form,
    rand_fraction,
    rand_pointed_map,
    rand_poly,
)


def s(nvars, i):
    return Poly.variable(nvars, i)


def d(nvars, *subset):
    return PolyForm.from_terms(nvars, len(subset), {subset: Poly.constant(nvars, 1)})


neg2 = PolyMap(2, 2, [-s(2, 1), -s(2, 2)])


class TestPoly:
    def test_canonical_form_drops_zeros(self):
        p = s(1, 1) - s(1, 1)
        assert p.is_zero()
        assert p == Poly.zero(1)

    def test_derivative_matches_difference_oracle(self):
        rng = random.Random(23)
        for _ in range(60):
            nvars = rng.randint(1, 3)
            p = rand_poly(rng, nvars, max_degree=3)
            i = rng.randint(1, nvars)
            assert p.derivative(i) == derivative_by_difference(p, i)

    def test_substitution_is_evaluation_compatible(self):
        rng = random.Random(29)
        for _ in range(40):
            p = rand_poly(rng, 2)
            args = [rand_poly(rng, 1), rand_poly(rng, 1)]
            point = [Fraction(rng.randint(-3, 3))]
            composed = p.substitute(args, 1)
            assert composed.evaluate(point) == p.evaluate([a.evaluate(point) for a in args])

    def test_only_the_zero_polynomial_is_falsy(self):
        assert bool(Poly.zero(2)) is False
        assert bool(s(2, 1) - s(2, 1)) is False
        assert bool(Poly.constant(2, Fraction(-1, 3))) is True
        assert bool(s(2, 2)) is True

    def test_rejects_negative_exponents(self):
        with pytest.raises(ValueError):
            Poly(1, {(-1,): 1})

    def test_rejects_non_integer_exponents(self):
        for exps in ((1.5,), (2.0,), ("2",), (Fraction(1),)):
            with pytest.raises(TypeError):
                Poly(1, {exps: 1})
        assert Poly(2, {(True, 2): 1}).terms == {(1, 2): 1}


class TestComposeAndJacobian:
    def test_identity_is_neutral(self):
        rng = random.Random(31)
        for _ in range(20):
            g = rand_pointed_map(rng, 2, 3)
            assert compose_maps(PolyMap.identity(3), g) == g
            assert compose_maps(g, PolyMap.identity(2)) == g

    def test_cube_after_square_is_sixth_power(self):
        f = PolyMap(1, 1, [s(1, 1) ** 3])
        g = PolyMap(1, 1, [s(1, 1) ** 2])
        assert compose_maps(f, g) == PolyMap(1, 1, [s(1, 1) ** 6])

    def test_negation_is_an_involution(self):
        assert compose_maps(neg2, neg2) == PolyMap.identity(2)

    def test_arity_mismatch_rejected(self):
        with pytest.raises(ValueError):
            compose_maps(PolyMap.identity(2), PolyMap.identity(3))

    def test_pointed_composes_to_pointed(self):
        rng = random.Random(151)
        for _ in range(30):
            f = rand_pointed_map(rng, 2, 2)
            g = rand_pointed_map(rng, 1, 2)
            assert compose_maps(f, g).is_pointed

    def test_jacobian_of_identity(self):
        assert jacobian_at_zero(PolyMap.identity(3)) == RatMat.identity(3)

    def test_jacobian_reads_linear_part(self):
        f = PolyMap(1, 2, [s(1, 1), s(1, 1) * 5 + s(1, 1) ** 2])
        assert jacobian_at_zero(f) == RatMat.from_rows([[1], [5]])

    def test_jacobian_of_point_inclusion_is_empty(self):
        assert jacobian_at_zero(PolyMap.zero_map(0, 1)) == RatMat(1, 0, [])

    def test_jacobian_rejects_non_pointed(self):
        with pytest.raises(ValueError):
            jacobian_at_zero(PolyMap(1, 1, [Poly.constant(1, 1) + s(1, 1)]))

    def test_chain_rule(self):
        rng = random.Random(37)
        for _ in range(60):
            a, b, c = (rng.randint(0, 3) for _ in range(3))
            f = rand_pointed_map(rng, b, a)
            g = rand_pointed_map(rng, c, b)
            assert jacobian_at_zero(compose_maps(f, g)) == jacobian_at_zero(
                f
            ) @ jacobian_at_zero(g)


class TestWedge:
    def test_sum_adds_coefficients(self):
        x_dy = PolyForm.from_terms(2, 1, {(2,): s(2, 1)})
        assert d(2, 1) + x_dy == PolyForm(2, 1, [Poly.constant(2, 1), s(2, 1)])
        assert (x_dy + x_dy) - x_dy == x_dy
        with pytest.raises(ValueError, match="form mismatch"):
            d(2, 1) + d(2, 1, 2)

    def test_volume_form(self):
        w = wedge_forms(d(2, 1), d(2, 2))
        assert w == d(2, 1, 2)

    def test_square_of_a_one_form_vanishes(self):
        assert wedge_forms(d(2, 1), d(2, 1)).is_zero()

    def test_sign_bookkeeping(self):
        x_dy = PolyForm.from_terms(2, 1, {(2,): s(2, 1)})
        y_dx = PolyForm.from_terms(2, 1, {(1,): s(2, 2)})
        expected = PolyForm.from_terms(2, 2, {(1, 2): -(s(2, 1) * s(2, 2))})
        assert wedge_forms(x_dy, y_dx) == expected

    def test_graded_anticommutativity(self):
        rng = random.Random(41)
        for _ in range(40):
            n = rng.randint(1, 3)
            ka, kb = rng.randint(0, 2), rng.randint(0, 2)
            a = rand_form(rng, n, ka)
            b = rand_form(rng, n, kb)
            lhs = wedge_forms(a, b)
            rhs = wedge_forms(b, a)
            if (ka * kb) % 2:
                rhs = -rhs
            assert lhs == rhs

    def test_degree_beyond_dimension_is_the_zero_form(self):
        w = wedge_forms(d(1, 1), d(1, 1))
        assert w.degree == 2 and w.domain_dim == 1
        assert len(w.coeffs) == 0 and w.is_zero()


class TestExteriorDerivative:
    def test_d_of_coordinate(self):
        assert exterior_derivative(PolyForm(1, 0, (s(1, 1),))) == d(1, 1)

    def test_d_of_x_dy(self):
        w = PolyForm.from_terms(2, 1, {(2,): s(2, 1)})
        assert exterior_derivative(w) == d(2, 1, 2)

    def test_d_of_top_form_vanishes(self):
        assert exterior_derivative(d(2, 1, 2)).is_zero()

    def test_d_squared_is_zero(self):
        rng = random.Random(43)
        for _ in range(40):
            n = rng.randint(1, 3)
            w = rand_form(rng, n, rng.randint(0, 2), max_degree=3)
            assert exterior_derivative(exterior_derivative(w)).is_zero()


class TestPullback:
    def test_plane_volume_dies_on_a_curve(self):
        rng = random.Random(47)
        for _ in range(20):
            f = rand_pointed_map(rng, 1, 2)
            assert pullback_form(d(2, 1, 2), f).is_zero()

    def test_chain_rule_example(self):
        f = PolyMap(1, 2, [s(1, 1) ** 2, s(1, 1)])
        pulled = pullback_form(d(2, 1), f)
        assert pulled == PolyForm.from_terms(1, 1, {(1,): s(1, 1) * 2})
        # spot check at sample points
        assert pulled.coeffs[0].evaluate([Fraction(3)]) == 6

    def test_volume_form_is_negation_invariant(self):
        assert pullback_form(d(2, 1, 2), neg2) == d(2, 1, 2)

    def test_one_form_anti_invariant_under_negation(self):
        assert pullback_form(d(2, 1), neg2) == -d(2, 1)

    def test_arity_mismatch_rejected(self):
        with pytest.raises(ValueError):
            pullback_form(d(2, 1), PolyMap.identity(3))

    def test_functoriality(self):
        rng = random.Random(53)
        for _ in range(40):
            a, b, c = rng.randint(1, 2), rng.randint(1, 3), rng.randint(0, 2)
            f = rand_pointed_map(rng, a, b, max_degree=2)
            g = rand_pointed_map(rng, c, a, max_degree=2)
            k = rng.randint(0, min(2, b))
            w = rand_form(rng, b, k, max_degree=1)
            assert pullback_form(w, compose_maps(f, g)) == pullback_form(
                pullback_form(w, f), g
            )

    def test_commutes_with_wedge(self):
        rng = random.Random(59)
        for _ in range(30):
            a, b = rng.randint(1, 3), rng.randint(1, 3)
            f = rand_pointed_map(rng, a, b)
            u = rand_form(rng, b, rng.randint(0, 2))
            v = rand_form(rng, b, rng.randint(0, 2))
            assert pullback_form(wedge_forms(u, v), f) == wedge_forms(
                pullback_form(u, f), pullback_form(v, f)
            )

    def test_commutes_with_exterior_derivative(self):
        rng = random.Random(61)
        for _ in range(30):
            a, b = rng.randint(1, 3), rng.randint(1, 3)
            f = rand_pointed_map(rng, a, b)
            w = rand_form(rng, b, rng.randint(0, 2))
            assert exterior_derivative(pullback_form(w, f)) == pullback_form(
                exterior_derivative(w), f
            )


class TestValueAtZero:
    def test_volume_value(self):
        assert form_value_at_zero(d(2, 1, 2)) == RatMat.row([1])

    def test_vanishing_coefficient(self):
        w = PolyForm.from_terms(2, 1, {(2,): s(2, 1)})
        assert form_value_at_zero(w) == RatMat.row([0, 0])

    def test_reads_constants(self):
        w = PolyForm.from_terms(
            2, 1, {(1,): Poly.constant(2, 2) + s(2, 1), (2,): Poly.constant(2, 3)}
        )
        assert form_value_at_zero(w) == RatMat.row([2, 3])

    def test_bridge_identity(self):
        # evaluation after pullback is the transposed action of the wedge
        # of the Jacobian: the identity that lets values descend to colimits
        rng = random.Random(67)
        for _ in range(60):
            a, b = rng.randint(1, 3), rng.randint(1, 3)
            f = rand_pointed_map(rng, a, b)
            k = rng.randint(0, 2)
            w = rand_form(rng, b, k)
            lhs = form_value_at_zero(pullback_form(w, f))
            rhs = form_value_at_zero(w) @ exterior_power_map(jacobian_at_zero(f), k)
            assert lhs == rhs


# -- reference arithmetic: every result through the validating constructor ----


def reference_add(a, b):
    terms = dict(a.terms)
    for exps, c in b.terms.items():
        terms[exps] = terms.get(exps, Fraction(0)) + c
    return Poly(a.nvars, terms)


def reference_neg(a):
    return Poly(a.nvars, {e: -c for e, c in a.terms.items()})


def reference_mul(a, b):
    terms = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            exps = tuple(x + y for x, y in zip(e1, e2))
            terms[exps] = terms.get(exps, Fraction(0)) + c1 * c2
    return Poly(a.nvars, terms)


def reference_pow(a, e):
    result = Poly(a.nvars, {(0,) * a.nvars: 1})
    for _ in range(e):
        result = reference_mul(result, a)
    return result


def reference_derivative(a, i):
    terms = {}
    for exps, c in a.terms.items():
        e = exps[i - 1]
        if e == 0:
            continue
        new = list(exps)
        new[i - 1] = e - 1
        key = tuple(new)
        terms[key] = terms.get(key, Fraction(0)) + c * e
    return Poly(a.nvars, terms)


def reference_substitute(a, args, nvars):
    result = Poly(nvars)
    for exps, c in a.terms.items():
        term = Poly(nvars, {(0,) * nvars: c})
        for arg, e in zip(args, exps):
            if e:
                term = reference_mul(term, reference_pow(arg, e))
        result = reference_add(result, term)
    return result


def assert_canonical(p, nvars):
    assert p.nvars == nvars
    for exps, c in p.terms.items():
        assert type(exps) is tuple and len(exps) == nvars
        assert all(type(e) is int and e >= 0 for e in exps)
        assert type(c) is Fraction and c != 0


def assert_same(result, reference):
    assert_canonical(result, reference.nvars)
    assert result == reference
    assert hash(result) == hash(reference)


# zero coefficients are in range on purpose: the constructor must drop them
coefficients = st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 2, 3]))


@st.composite
def polys(draw, nvars):
    """Degree at most 3 in ``nvars`` variables, zero polynomials included."""
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        exps = [0] * nvars
        for v in draw(st.lists(st.integers(0, nvars - 1), max_size=3) if nvars else st.just([])):
            exps[v] += 1
        terms[tuple(exps)] = draw(coefficients)
    return Poly(nvars, terms)


@st.composite
def poly_pairs(draw):
    """Two polynomials in the same variables, often built to cancel: the
    negation, a partial negation, or the same terms with some signs flipped,
    so that sums and products lose terms."""
    nvars = draw(st.integers(0, 3))
    a = draw(polys(nvars))
    kind = draw(st.sampled_from(["free", "negated", "partly", "flipped", "zero"]))
    if kind == "free":
        b = draw(polys(nvars))
    elif kind == "negated":
        b = reference_neg(a)
    elif kind == "partly":
        b = reference_add(draw(polys(nvars)), reference_neg(a))
    elif kind == "flipped":
        b = Poly(nvars, {e: c if draw(st.booleans()) else -c for e, c in a.terms.items()})
    else:
        b = Poly(nvars)
    return a, b


@st.composite
def poly_maps(draw, source_dim, target_dim):
    return PolyMap(source_dim, target_dim, [draw(polys(source_dim)) for _ in range(target_dim)])


@given(poly_pairs(), st.integers(0, 4), st.data())
@settings(max_examples=300)
def test_arithmetic_matches_validating_reference(pair, exponent, data):
    a, b = pair
    n = a.nvars
    assert_same(a + b, reference_add(a, b))
    assert_same(a - b, reference_add(a, reference_neg(b)))
    assert_same(-a, reference_neg(a))
    assert_same(a * b, reference_mul(a, b))
    assert_same(a**exponent, reference_pow(a, exponent))
    for i in range(1, n + 1):
        assert_same(a.derivative(i), reference_derivative(a, i))
    c = data.draw(coefficients)
    assert_same(a + c, reference_add(a, Poly(n, {(0,) * n: c})))
    assert_same(a * c, reference_mul(a, Poly(n, {(0,) * n: c})))


@given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3), st.data())
@settings(max_examples=150)
def test_substitution_and_composition_match_validating_reference(a, b, c, data):
    f = data.draw(poly_maps(b, a))
    g = data.draw(poly_maps(c, b))
    composite = compose_maps(f, g)
    expected = [reference_substitute(p, g.components, c) for p in f.components]
    assert composite == PolyMap(c, a, expected)
    assert hash(composite) == hash(PolyMap(c, a, expected))
    for p, q in zip(f.components, expected):
        assert_same(p.substitute(g.components, c), q)
    for p in composite.components:
        assert_canonical(p, c)


@given(st.integers(0, 3), st.integers(0, 3), st.data())
@settings(max_examples=150)
def test_jacobian_matches_derivatives_at_zero(a, b, data):
    comps = [data.draw(polys(a)) for _ in range(b)]
    f = PolyMap(a, b, [p - Poly.constant(a, p.constant_term) for p in comps])
    jac = jacobian_at_zero(f)
    assert (jac.rows, jac.cols) == (b, a)
    for i in range(b):
        for j in range(a):
            assert jac[i, j] == f.components[i].derivative(j + 1).constant_term
    for row in jac.row_dicts:
        assert all(x != 0 and type(x) is Fraction for x in row.values())


# -- composition by monomial table ------------------------------------------------


def test_composition_with_shared_monomials_agrees_with_evaluation():
    """Outer components drawn from one pool of monomials, so the components
    share entries of the monomial table; exponents up to 4 in 2-3 inner
    variables.  The composite must evaluate as f(g(x)) at rational points,
    and each component must equal its own substitution with a fresh table."""
    rng = random.Random(38)
    for _ in range(40):
        inner = rng.randint(2, 3)
        source = rng.randint(1, 3)
        pool = [tuple(rng.randint(0, 4) for _ in range(inner)) for _ in range(6)]
        f = PolyMap(inner, 4, [
            Poly(inner, {e: rand_fraction(rng) for e in rng.sample(pool, rng.randint(1, 4))})
            for _ in range(4)
        ])
        g = PolyMap(source, inner, [rand_poly(rng, source, 2, 3) for _ in range(inner)])
        composite = compose_maps(f, g)
        for p, q in zip(composite.components, f.components):
            assert p == q.substitute(g.components, source)
        for _ in range(3):
            x = [rand_fraction(rng) for _ in range(source)]
            assert composite.evaluate(x) == f.evaluate(g.evaluate(x))


# -- guards, each reached through a public entry ----------------------------------


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: s(2, 1).substitute([s(1, 1)], 1), "substitution needs 2 arguments, got 1"),
        (lambda: s(2, 1).substitute([s(1, 1), s(2, 1)], 1),
         "substitution argument in 2 variables, expected 1"),
        (lambda: compose_maps(neg2, PolyMap.identity(3)),
         "cannot compose: inner map lands in R\\^3, outer map starts from R\\^2"),
        (lambda: pullback_form(d(3, 1), neg2),
         "cannot pull a form on R\\^3 back along a map into R\\^2"),
        (lambda: PolyForm(2, 1, [s(2, 1)]), "degree 1 form on R\\^2 needs 2 coefficients, got 1"),
        (lambda: PolyForm(2, 1, [s(2, 1), s(3, 1)]), "coefficient in 3 variables, expected 2"),
        (lambda: wedge_forms(d(2, 1), d(3, 1)), "wedge of forms on R\\^2 and R\\^3"),
        (lambda: Poly.variable(2, 3), "variable s3 out of range for 2 variables"),
        (lambda: Poly.variable(2, 0), "variable s0 out of range for 2 variables"),
        (lambda: s(2, 1).derivative(3), "variable s3 out of range for 2 variables"),
        (lambda: s(2, 1).derivative(0), "variable s0 out of range for 2 variables"),
        (lambda: PolyMap(2, 2, [s(2, 1)]), "map into R\\^2 needs 2 components, got 1"),
        (lambda: PolyMap(2, 1, [s(3, 1)]), "component in 3 variables, expected 2"),
        (lambda: Poly.zero(-1), "negative variable count -1"),
        (lambda: Poly(2, {(1,): 1}), "exponent vector \\(1,\\) has length 1, expected 2"),
        (lambda: s(2, 1) - s(3, 1), "mixing polynomials in 2 and 3 variables"),
        (lambda: s(2, 1) ** -1, "polynomial powers need integer exponents >= 0, got -1"),
        (lambda: s(2, 1).evaluate([1]), "evaluation needs 2 coordinates, got 1"),
    ],
)
def test_guards_name_the_mismatch(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_a_scalar_minus_a_polynomial():
    assert 1 - s(1, 1) == Poly(1, {(0,): 1, (1,): -1})


@pytest.mark.parametrize("value", [s(1, 1), PolyMap.identity(1), d(1, 1)])
def test_equality_with_a_foreign_value_is_left_to_python(value):
    assert value.__eq__("s1") is NotImplemented
    assert value != "s1"


def test_map_and_form_reprs():
    assert repr(PolyMap(2, 1, [s(2, 1) - 2 * s(2, 2)])) == "PolyMap(R^2 -> R^1: [s1 - 2*s2])"
    assert repr(PolyForm.zero(2, 1)) == "PolyForm(R^2, deg 1: 0)"
    assert repr(PolyForm(2, 1, [s(2, 2), Poly.zero(2)])) == "PolyForm(R^2, deg 1: (s2) d[1])"


def test_equal_forms_hash_alike():
    a = PolyForm(2, 1, [s(2, 1), Poly.zero(2)])
    b = PolyForm(2, 1, [s(2, 1) * s(2, 1) - s(2, 1) * (s(2, 1) - 1), s(2, 2) - s(2, 2)])
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1


def test_pointedness_reads_the_constant_terms():
    assert PolyMap(0, 2, [Poly.zero(0)] * 2).is_pointed
    assert not PolyMap(0, 1, [Poly.constant(0, 3)]).is_pointed
    assert not PolyMap(2, 2, [s(2, 1), s(2, 2) + 1]).is_pointed
    assert Poly.constant(2, 0).constant_term == 0 == s(2, 1).constant_term
    message = r"map is not pointed: components \[2\] have constant terms"
    with pytest.raises(ValueError, match=message):
        jacobian_at_zero(PolyMap(2, 2, [s(2, 1), s(2, 2) + 1]))


def test_a_degree_2000_monomial_composes_as_powers():
    # a chain of one product per degree would recurse past Python's limit
    g1, g2 = s(2, 1) * Fraction(1, 2), 3 * s(2, 2) + s(2, 1) * s(2, 2)
    f = PolyMap(2, 2, [Poly(2, {(2000, 0): 1}), Poly(2, {(2000, 1): 5})])
    composite = compose_maps(f, PolyMap(2, 2, [g1, g2])).components
    assert composite == (g1**2000, 5 * g1**2000 * g2)
