import random
from fractions import Fraction
from itertools import combinations, permutations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffeokit.linalg import RatMat
from diffeokit.multilinear import (
    _minors,
    curry_hom,
    exterior_power_map,
    index_basis,
    tensor_product_map,
    uncurry_hom,
)
from diffeokit.symcalc import Poly
from util_rand import rand_matrix, rand_poly


def test_index_basis_shape_and_order():
    basis = index_basis(4, 2)
    assert len(basis) == comb(4, 2)
    assert basis.subsets[0] == (1, 2)
    assert basis.subsets[-1] == (3, 4)
    assert all(a < b for a, b in basis.subsets)
    assert list(basis.subsets) == sorted(basis.subsets)


def test_index_basis_position_rejects_garbage():
    with pytest.raises(ValueError):
        index_basis(3, 2).position((2, 1))


def test_exterior_power_of_negated_identity():
    assert exterior_power_map(RatMat.identity(2).scale(-1), 2) == RatMat.from_rows([[1]])


def test_exterior_power_degree_zero_is_scalar_identity():
    assert exterior_power_map(rand_matrix(random.Random(0), 3, 2), 0) == RatMat.identity(1)


def test_exterior_power_two_by_two_is_determinant():
    a = RatMat.from_rows([[1, 2], [3, 4]])
    assert exterior_power_map(a, 2) == RatMat.from_rows([[-2]])


def test_top_exterior_power_is_determinant():
    rng = random.Random(3)
    for _ in range(25):
        n = rng.randint(1, 4)
        a = rand_matrix(rng, n, n)
        assert exterior_power_map(a, n) == RatMat(1, 1, [a.det()])


def test_exterior_power_functoriality():
    rng = random.Random(5)
    for _ in range(60):
        p, q, r = (rng.randint(0, 4) for _ in range(3))
        a = rand_matrix(rng, p, q)
        b = rand_matrix(rng, q, r)
        k = rng.randint(0, 3)
        assert exterior_power_map(a @ b, k) == exterior_power_map(a, k) @ exterior_power_map(b, k)


def test_exterior_dimension_law():
    rng = random.Random(9)
    for _ in range(20):
        n, m, k = rng.randint(0, 5), rng.randint(0, 5), rng.randint(0, 4)
        mat = exterior_power_map(rand_matrix(rng, m, n), k)
        assert (mat.rows, mat.cols) == (comb(m, k), comb(n, k))


def test_tensor_identity():
    assert tensor_product_map(RatMat.identity(2), RatMat.identity(3)) == RatMat.identity(6)


def test_tensor_scalars_multiply():
    assert tensor_product_map(RatMat(1, 1, [2]), RatMat(1, 1, [3])) == RatMat(1, 1, [6])


def test_tensor_single_entry():
    a = RatMat.from_rows([[1, 0], [0, 0]])
    b = RatMat.from_rows([[0, 1], [0, 0]])
    t = tensor_product_map(a, b)
    assert t.rank() == 1
    # lone nonzero entry at row (0,0), column (0,1)
    expected = RatMat.zeros(4, 4).to_rows()
    expected[0][1] = 1
    assert t == RatMat.from_rows(expected)


def test_tensor_mixed_product_law():
    rng = random.Random(13)
    for _ in range(60):
        p, q, r = (rng.randint(0, 3) for _ in range(3))
        p2, q2, r2 = (rng.randint(0, 3) for _ in range(3))
        a = rand_matrix(rng, p, q)
        c = rand_matrix(rng, q, r)
        b = rand_matrix(rng, p2, q2)
        d = rand_matrix(rng, q2, r2)
        lhs = tensor_product_map(a, b) @ tensor_product_map(c, d)
        rhs = tensor_product_map(a @ c, b @ d)
        assert lhs == rhs


def test_curry_scalar():
    assert curry_hom((1, 1, 1), RatMat(1, 1, [5])) == RatMat(1, 1, [5])


def test_curry_zero():
    assert curry_hom((2, 3, 2), RatMat.zeros(2, 6)) == RatMat.zeros(6, 2)


def test_curry_small_example_round_trips():
    t = RatMat(1, 4, [1, 2, 3, 4])
    curried = curry_hom((2, 2, 1), t)
    assert (curried.rows, curried.cols) == (2, 2)
    assert uncurry_hom((2, 2, 1), curried) == t
    # index bookkeeping oracle over all basis pairs: the curried image of
    # e_i, read as a map, sends f_j to the original image of e_i (x) f_j
    p, q, r = 2, 2, 1
    for i in range(p):
        for j in range(q):
            for l in range(r):
                assert curried[j * r + l, i] == t[l, i * q + j]


def test_curry_uncurry_inverse_random():
    rng = random.Random(17)
    for _ in range(60):
        p, q, r = (rng.randint(0, 3) for _ in range(3))
        t = rand_matrix(rng, r, p * q)
        assert uncurry_hom((p, q, r), curry_hom((p, q, r), t)) == t


def test_curry_shape_mismatch_reports_expected_and_actual():
    with pytest.raises(ValueError) as err:
        curry_hom((2, 2, 1), RatMat.zeros(2, 4))
    assert "1x4" in str(err.value)
    assert "2x4" in str(err.value)


def test_hom_dimension_is_product():
    m = curry_hom((3, 2, 2), RatMat.zeros(2, 6))
    assert m.rows == 2 * 2 and m.cols == 3


def minor_by_minor(a, k):
    """Reference exterior power: one determinant per pair of k-subsets."""
    rows = index_basis(a.rows, k).subsets
    cols = index_basis(a.cols, k).subsets
    return RatMat(len(rows), len(cols), [
        a.submatrix([j - 1 for j in J], [i - 1 for i in I]).det()
        for J in rows for I in cols
    ])


small_fractions = st.builds(Fraction, st.integers(-5, 5), st.sampled_from([1, 2, 3]))


@st.composite
def matrices_and_degrees(draw, max_dim=5):
    """Square or rectangular, dense, mostly zero, zero, or diagonal with
    scales; the degree runs from 0 to one past the larger side."""
    rows = draw(st.integers(0, max_dim))
    cols = draw(st.integers(0, max_dim))
    kind = draw(st.sampled_from(["dense", "sparse", "zero", "diagonal"]))
    if kind == "zero":
        a = RatMat.zeros(rows, cols)
    elif kind == "diagonal":
        scales = draw(st.lists(small_fractions, min_size=min(rows, cols), max_size=min(rows, cols)))
        a = RatMat(rows, cols, [scales[i] if i == j else 0 for i in range(rows) for j in range(cols)])
    else:
        entry = small_fractions if kind == "dense" else st.one_of(st.just(0), st.just(0), small_fractions)
        a = RatMat(rows, cols, draw(st.lists(entry, min_size=rows * cols, max_size=rows * cols)))
    return a, draw(st.integers(0, max(rows, cols) + 1))


@given(matrices_and_degrees())
@settings(max_examples=300)
def test_exterior_power_matches_minor_by_minor(case):
    a, k = case
    assert exterior_power_map(a, k) == minor_by_minor(a, k)


def test_index_basis_positions_follow_subsets():
    basis = index_basis(5, 3)
    assert [basis.position(s) for s in basis.subsets] == list(range(len(basis)))


# -- the minor expansion itself ---------------------------------------------------


def _determinant(m: list, zero):
    """Leibniz formula, one signed product per permutation."""
    total = zero
    for perm in permutations(range(len(m))):
        inversions = sum(1 for i, j in combinations(range(len(m)), 2) if perm[i] > perm[j])
        term = zero + 1
        for r, c in enumerate(perm):
            term = term * m[r][c]
        total = total + (-term if inversions % 2 else term)
    return total


def minors_one_by_one(rows: list, k: int, cols: int, zero) -> dict:
    """Reference for ``_minors``: every k x k minor of the dense matrix by
    its own determinant, nonzero ones only."""
    dense = [[zero] * cols for _ in rows]
    for r, row in enumerate(rows):
        for c, x in row:
            dense[r][c - 1] = x
    out = {}
    for J in combinations(range(1, len(rows) + 1), k):
        for I in combinations(range(1, cols + 1), k):
            m = _determinant([[dense[j - 1][i - 1] for i in I] for j in J], zero)
            if m:
                out.setdefault(J, {})[I] = m
    return out


def _sparse_rows(rng: random.Random, count: int, cols: int, entry) -> list:
    """Rows of distinct columns in random order; some rows have no entries."""
    rows = []
    for _ in range(count):
        picked = [c for c in range(1, cols + 1) if rng.random() < 0.5]
        rng.shuffle(picked)
        rows.append([(c, entry()) for c in picked])
    return rows


def test_minors_of_degree_zero_are_the_empty_unit():
    assert _minors([], 0) == {(): {(): 1}}
    assert _minors([[(1, Fraction(3))], []], 0) == {(): {(): 1}}


def test_minors_beyond_the_row_count_are_empty():
    rows = [[(1, Fraction(2)), (2, Fraction(1))], [(2, Fraction(5))]]
    assert _minors(rows, 3) == {}
    assert _minors([], 1) == {}


def test_rows_without_entries_have_no_minors():
    rows = [[], [(2, Fraction(3)), (1, Fraction(-1))], [], [(1, Fraction(4))]]
    assert _minors(rows, 1) == {(2,): {(2,): 3, (1,): -1}, (4,): {(1,): 4}}
    assert _minors(rows, 2) == {(2, 4): {(1, 2): -12}}


def test_minors_match_determinants_on_fraction_entries():
    rng = random.Random(40)
    for _ in range(60):
        count, cols = rng.randint(0, 4), rng.randint(1, 4)
        rows = _sparse_rows(
            rng, count, cols, lambda: Fraction(rng.choice([-3, -1, 1, 2, 5]), rng.choice([1, 2]))
        )
        for k in range(count + 2):
            assert _minors(rows, k) == minors_one_by_one(rows, k, cols, Fraction(0)), (rows, k)


def test_minors_match_determinants_on_polynomial_entries():
    rng = random.Random(41)
    for _ in range(30):
        count, cols = rng.randint(1, 3), rng.randint(1, 3)
        rows = _sparse_rows(rng, count, cols, lambda: rand_poly(rng, 2) or Poly.constant(2, 1))
        for k in range(1, count + 2):
            assert _minors(rows, k) == minors_one_by_one(rows, k, cols, Poly.zero(2)), (rows, k)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: index_basis(-1, 2), "index basis needs n, k >= 0, got \\(-1, 2\\)"),
        (lambda: exterior_power_map(RatMat.identity(2), -1),
         "exterior power degree must be >= 0, got -1"),
        (lambda: curry_hom((1, -1, 1), RatMat.zeros(1, 1)),
         "dims must be >= 0, got \\(1, -1, 1\\)"),
        (lambda: uncurry_hom((1, 2, 2), RatMat.zeros(2, 1)),
         "expected a 4x1 matrix for dims \\(p=1, q=2, r=2\\), got 2x1"),
    ],
)
def test_guards_name_the_mismatch(call, message):
    with pytest.raises(ValueError, match=message):
        call()
