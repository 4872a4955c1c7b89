"""Differential tests against sympy, an exact oracle written independently.

sympy is imported here only; without it these tests are skipped.  Random
rational matrices run from 0x0 to 6x6, dense and mostly zero; random pointed
maps and forms live on R^0 to R^3.
"""

import random
from fractions import Fraction
from itertools import combinations

import pytest

sympy = pytest.importorskip("sympy")

from diffeokit.linalg import RatMat, kernel_basis  # noqa: E402
from diffeokit.multilinear import exterior_power_map, index_basis, tensor_product_map  # noqa: E402
from diffeokit.symcalc import pullback_form  # noqa: E402
from util_rand import rand_form, rand_fraction, rand_pointed_map  # noqa: E402


def random_matrices(seed, count, max_dim=6, square=False):
    rng = random.Random(seed)
    for _ in range(count):
        rows = rng.randint(0, max_dim)
        cols = rows if square else rng.randint(0, max_dim)
        density = rng.choice([1.0, 0.5, 0.2])
        yield RatMat(rows, cols, [rand_fraction(rng) if rng.random() < density else 0
                                  for _ in range(rows * cols)])


def to_sympy(m):
    return sympy.Matrix(m.rows, m.cols, [sympy.Rational(x.numerator, x.denominator) for x in m.data])


def fraction(x):
    return Fraction(int(x.p), int(x.q))


def from_sympy(s):
    return RatMat(s.rows, s.cols, [fraction(x) for x in s])


def test_rank_and_rref_match_sympy():
    for m in random_matrices(1, 150):
        reduced, pivots = to_sympy(m).rref()
        assert m.rref() == (from_sympy(reduced), tuple(pivots))
        assert m.rank() == to_sympy(m).rank()


def test_kernel_basis_matches_sympy():
    for m in random_matrices(2, 150):
        vectors = to_sympy(m).nullspace()
        expected = sympy.Matrix.hstack(*vectors) if vectors else sympy.zeros(m.cols, 0)
        assert kernel_basis(m) == from_sympy(expected)


def test_det_matches_sympy():
    for m in random_matrices(3, 150, square=True):
        assert m.det() == fraction(to_sympy(m).det())


def test_exterior_power_map_matches_sympy_minors():
    for m in random_matrices(4, 60, max_dim=5):
        s = to_sympy(m)
        for k in range(0, 4):
            rows = list(combinations(range(m.rows), k))
            cols = list(combinations(range(m.cols), k))
            minors = [s.extract(list(J), list(I)).det() for J in rows for I in cols]
            expected = RatMat(len(rows), len(cols), [fraction(x) for x in minors])
            assert exterior_power_map(m, k) == expected


def test_tensor_product_map_matches_sympy_kronecker_product():
    pairs = zip(random_matrices(5, 60, max_dim=4), random_matrices(6, 60, max_dim=4))
    for a, b in pairs:
        if a.rows and a.cols and b.rows and b.cols:
            expected = sympy.kronecker_product(to_sympy(a), to_sympy(b))
        else:  # sympy has no empty Kronecker product
            expected = sympy.zeros(a.rows * b.rows, a.cols * b.cols)
        assert tensor_product_map(a, b) == from_sympy(expected)


def poly_to_sympy(p, symbols):
    return sympy.Add(*[
        sympy.Rational(c.numerator, c.denominator) * sympy.Mul(*[x**e for x, e in zip(symbols, exps)])
        for exps, c in p.terms.items()
    ])


def test_pullback_form_matches_sympy_jacobian_minors():
    # the dI coefficient of f*w is the sum over J of w_J(f(s)) det(df_J / ds_I)
    rng = random.Random(9)
    for _ in range(80):
        n, m = rng.randint(0, 3), rng.randint(0, 3)
        f = rand_pointed_map(rng, n, m)
        s = sympy.symbols(f"s1:{n + 1}")
        t = sympy.symbols(f"t1:{m + 1}")
        components = [poly_to_sympy(c, s) for c in f.components]
        jacobian = sympy.Matrix(m, 1, components).jacobian(sympy.Matrix(1, n, s))
        for k in range(m + 2):
            w = rand_form(rng, m, k)
            composed = [poly_to_sympy(c, t).subs(dict(zip(t, components)), simultaneous=True)
                        for c in w.coeffs]
            pulled = pullback_form(w, f)
            assert (pulled.domain_dim, pulled.degree) == (n, k)
            for I, coeff in zip(index_basis(n, k).subsets, pulled.coeffs):
                expected = sympy.Add(*[
                    c * jacobian.extract([j - 1 for j in J], [i - 1 for i in I]).det()
                    for J, c in zip(index_basis(m, k).subsets, composed)
                ])
                assert sympy.expand(expected - poly_to_sympy(coeff, s)) == 0
