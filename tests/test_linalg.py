import copy
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffeokit.linalg import (
    QuotientPresentation,
    RatMat,
    kernel_basis,
    rational,
    solve_exact,
)
from util_rand import rand_matrix

fractions = st.fractions(min_value=-5, max_value=5, max_denominator=3)


@st.composite
def matrices(draw, max_dim=4):
    rows = draw(st.integers(0, max_dim))
    cols = draw(st.integers(0, max_dim))
    entries = draw(st.lists(fractions, min_size=rows * cols, max_size=rows * cols))
    return RatMat(rows, cols, entries)


def test_kernel_of_identity_is_empty():
    basis = kernel_basis(RatMat.identity(3))
    assert basis.rows == 3
    assert basis.cols == 0


def test_kernel_of_zero_map_is_everything():
    basis = kernel_basis(RatMat.zeros(2, 3))
    assert basis == RatMat.identity(3)


def test_kernel_of_rank_one_matrix():
    m = RatMat.from_rows([[1, 2, 3], [2, 4, 6]])
    basis = kernel_basis(m)
    assert basis.cols == 2
    # deterministic basis from the echelon form
    assert basis.col_list(0) == [Fraction(-2), Fraction(1), Fraction(0)]
    assert basis.col_list(1) == [Fraction(-3), Fraction(0), Fraction(1)]
    assert (m @ basis).is_zero()


def test_cokernel_of_full_rank_square_is_zero():
    m = RatMat.identity(2)
    q = QuotientPresentation.from_relation_span(m.rows, m)
    assert q.quotient_dim == 0
    assert q.projection.rows == 0


def test_cokernel_with_no_relations_is_identity():
    m = RatMat(2, 0, [])
    q = QuotientPresentation.from_relation_span(m.rows, m)
    assert q.quotient_dim == 2
    assert q.projection == RatMat.identity(2)
    assert q.section == RatMat.identity(2)


def test_cokernel_of_single_relation():
    m = RatMat.from_rows([[2], [0]])
    q = QuotientPresentation.from_relation_span(m.rows, m)
    assert q.quotient_dim == 1
    assert (q.projection @ m).is_zero()
    assert (q.projection @ RatMat.column([2, 0])).is_zero()
    assert q.projection @ q.section == RatMat.identity(1)


@given(matrices())
@settings(max_examples=150)
def test_rank_nullity(m):
    assert m.rank() + kernel_basis(m).cols == m.cols


@given(matrices())
@settings(max_examples=150)
def test_cokernel_invariants(m):
    q = QuotientPresentation.from_relation_span(m.rows, m)
    assert q.quotient_dim == q.ambient_dim - q.relation_basis.rank()
    assert q.projection @ q.section == RatMat.identity(q.quotient_dim)
    assert (q.projection @ q.relation_basis).is_zero()
    assert (q.projection @ m).is_zero()


def test_from_relation_span_rejects_wrong_ambient():
    with pytest.raises(ValueError):
        QuotientPresentation.from_relation_span(3, RatMat.zeros(2, 1))


@given(st.fractions(max_denominator=50).filter(lambda f: f != 0))
def test_rational_round_trip(f):
    assert f * (1 / f) == 1


def test_solve_exact_consistent_and_inconsistent():
    a = RatMat.from_rows([[1, 2], [2, 4]])
    b = RatMat.column([1, 2])
    x = solve_exact(a, b)
    assert x is not None
    assert a @ x == b
    assert solve_exact(a, RatMat.column([1, 3])) is None


def test_solve_exact_picks_deterministic_solution():
    a = RatMat.from_rows([[1, 1]])
    x = solve_exact(a, RatMat.column([5]))
    # free variable pinned to zero
    assert x == RatMat.column([5, 0])


def test_matmul_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        RatMat.identity(2) @ RatMat.identity(3)


def test_empty_matrices_compose():
    a = RatMat(2, 0, [])
    b = RatMat(0, 3, [])
    assert (a @ b) == RatMat.zeros(2, 3)
    assert a.transpose().rows == 0
    # right factors with no columns, as in a check against no relations
    dense = RatMat.from_rows([[1, 2, 0], [0, 3, 4]])
    assert dense @ RatMat(3, 0, []) == RatMat(2, 0, [])
    assert RatMat.identity(3) @ RatMat(3, 0, []) == RatMat(3, 0, [])
    assert RatMat(0, 3, []) @ RatMat(3, 0, []) == RatMat(0, 0, [])
    assert RatMat(0, 0, []) @ RatMat(0, 0, []) == RatMat(0, 0, [])
    assert (a @ RatMat(0, 0, [])) == RatMat(2, 0, [])


def test_column_block_rejects_columns_out_of_range():
    assert RatMat.identity(3).column_block(1, 2) == RatMat.from_rows([[0, 0], [1, 0], [0, 1]])
    with pytest.raises(ValueError):
        RatMat.identity(3).column_block(2, 2)


def test_rejects_floats():
    with pytest.raises(TypeError):
        RatMat(1, 1, [0.5])


def test_determinant():
    assert RatMat.from_rows([[1, 2], [3, 4]]).det() == -2
    assert RatMat(0, 0, []).det() == 1
    assert RatMat.from_rows([[1, 2], [2, 4]]).det() == 0


def test_random_cokernel_projection_surjective():
    rng = random.Random(11)
    for _ in range(50):
        m = rand_matrix(rng, rng.randint(0, 4), rng.randint(0, 4))
        q = QuotientPresentation.from_relation_span(m.rows, m)
        assert q.projection.rank() == q.quotient_dim


# -- the sparse elimination kernel against a dense reference ------------------


def reference_rref(m):
    """Dense Gauss-Jordan elimination: the pivot of each column is its first
    nonzero entry at or below the current row.  Returns the reduced rows
    (zero rows last) and the pivot columns."""
    rows = m.to_rows()
    pivots = []
    for c in range(m.cols):
        pr = len(pivots)
        hit = next((r for r in range(pr, m.rows) if rows[r][c] != 0), None)
        if hit is None:
            continue
        rows[pr], rows[hit] = rows[hit], rows[pr]
        pv = rows[pr][c]
        rows[pr] = [x / pv for x in rows[pr]]
        for r in range(m.rows):
            if r != pr and rows[r][c] != 0:
                f = rows[r][c]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[pr])]
        pivots.append(c)
    return rows, tuple(pivots)


def reference_kernel(m):
    rows, pivots = reference_rref(m)
    free = [c for c in range(m.cols) if c not in pivots]
    vectors = []
    for f in free:
        v = [Fraction(0)] * m.cols
        v[f] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -rows[i][f]
        vectors.append(v)
    return RatMat(m.cols, len(free), [v[i] for i in range(m.cols) for v in vectors])


def reference_solve(a, b):
    rows, pivots = reference_rref(RatMat.hstack([a, b]))
    if any(p >= a.cols for p in pivots):
        return None
    x = [[Fraction(0)] * b.cols for _ in range(a.cols)]
    for i, p in enumerate(pivots):
        x[p] = rows[i][a.cols :]
    return RatMat.from_rows(x, cols=b.cols)


def reference_quotient(relations):
    n = relations.rows
    rows, pivots = reference_rref(relations.transpose())
    free = [c for c in range(n) if c not in pivots]
    relation_basis = RatMat(n, len(pivots), [rows[i][c] for c in range(n) for i in range(len(pivots))])
    projection = reference_kernel(relations.transpose()).transpose()
    section = RatMat(n, len(free), [1 if c == f else 0 for c in range(n) for f in free])
    return relation_basis, projection, section


# st.fractions is slow to draw 64 at a time; this covers the same kind of values
small_fractions = st.builds(Fraction, st.integers(-5, 5), st.sampled_from([1, 2, 3]))
sparse_fractions = st.one_of(st.just(Fraction(0)), st.just(Fraction(0)), small_fractions)


@st.composite
def shaped_matrices(draw, max_dim=8):
    """0x0 up to max_dim x max_dim: dense, mostly zero, all zero, with
    repeated and scaled rows, or already in reduced row echelon form."""
    rows = draw(st.integers(0, max_dim))
    cols = draw(st.integers(0, max_dim))
    kind = draw(st.sampled_from(["dense", "sparse", "zero", "repeated", "reduced"]))
    if kind == "zero":
        return RatMat.zeros(rows, cols)
    entries = st.lists(sparse_fractions if kind == "sparse" else small_fractions,
                       min_size=cols, max_size=cols)
    if kind == "repeated" and rows:
        base = draw(st.lists(entries, min_size=1, max_size=rows))
        picks = draw(st.lists(st.tuples(st.sampled_from(base), small_fractions),
                              min_size=rows, max_size=rows))
        return RatMat.from_rows([[c * x for x in row] for row, c in picks], cols=cols)
    m = RatMat.from_rows(draw(st.lists(entries, min_size=rows, max_size=rows)), cols=cols)
    if kind == "reduced":
        return RatMat.from_rows(reference_rref(m)[0], cols=cols)
    return m


@given(shaped_matrices())
@settings(max_examples=300)
def test_rref_rank_and_kernel_match_dense_reference(m):
    rows, pivots = reference_rref(m)
    assert m.rref() == (RatMat.from_rows(rows, cols=m.cols), pivots)
    assert m.rank() == len(pivots)
    assert m.is_injective() == (len(pivots) == m.cols)
    assert m.is_surjective() == (len(pivots) == m.rows)
    assert m.is_invertible() == (m.rows == m.cols == len(pivots))
    assert kernel_basis(m) == reference_kernel(m)


@given(shaped_matrices(), st.data())
@settings(max_examples=150)
def test_rref_depends_only_on_the_row_space(m, data):
    order = data.draw(st.permutations(range(m.rows)))
    shuffled = RatMat.from_rows([m.row_list(i) for i in order], cols=m.cols)
    assert shuffled.rref() == m.rref()


@given(shaped_matrices(), st.data())
@settings(max_examples=200)
def test_solve_exact_matches_dense_reference(a, data):
    b = data.draw(st.sampled_from(["image", "free"]))
    if b == "image":
        x = data.draw(st.lists(small_fractions, min_size=a.cols, max_size=a.cols))
        b = a @ RatMat.column(x)
    else:
        b = RatMat.column(data.draw(st.lists(small_fractions, min_size=a.rows, max_size=a.rows)))
    assert solve_exact(a, b) == reference_solve(a, b)


@given(shaped_matrices())
@settings(max_examples=200)
def test_from_relation_span_matches_dense_reference(relations):
    q = QuotientPresentation.from_relation_span(relations.rows, relations)
    relation_basis, projection, section = reference_quotient(relations)
    assert q.relation_basis == relation_basis
    assert q.projection == projection
    assert q.section == section
    assert q.quotient_dim == section.cols


# -- sparse storage against dense lists of lists ------------------------------


@st.composite
def dense_lists(draw, rows=None, cols=None, max_dim=8):
    """A rows x cols list of lists, 0x0 up to max_dim x max_dim: dense, mostly
    zero or all zero."""
    rows = draw(st.integers(0, max_dim)) if rows is None else rows
    cols = draw(st.integers(0, max_dim)) if cols is None else cols
    kind = draw(st.sampled_from(["dense", "sparse", "zero"]))
    if kind == "zero":
        return [[Fraction(0)] * cols for _ in range(rows)]
    values = sparse_fractions if kind == "sparse" else small_fractions
    return draw(st.lists(st.lists(values, min_size=cols, max_size=cols),
                         min_size=rows, max_size=rows))


def from_lists(rows, cols):
    return RatMat.from_rows(rows, cols=cols)


def width(rows, cols=None):
    return len(rows[0]) if rows else cols


def assert_is(m, rows, cols):
    """``m`` is the rows x cols matrix with these entries, stored sparse:
    one dict per row, nonzero Fractions only, columns in range."""
    assert (m.rows, m.cols) == (len(rows), cols)
    assert len(m.row_dicts) == m.rows
    for row in m.row_dicts:
        assert all(0 <= j < cols and x != 0 and type(x) is Fraction for j, x in row.items())
    assert m.data == [x for row in rows for x in row]
    assert all(type(x) is Fraction for x in m.data)


def reference_matmul(a, b, inner, cols):
    return [[sum((row[k] * b[k][j] for k in range(inner)), Fraction(0)) for j in range(cols)]
            for row in a]


@st.composite
def products(draw):
    """(a, b, inner, cols) with a rows x inner and b inner x cols; b is drawn
    at random, or its columns lie in the kernel of a, so that every entry of
    the product cancels to zero."""
    a = draw(dense_lists())
    inner = width(a, draw(st.integers(0, 8)))
    if draw(st.booleans()):
        basis = kernel_basis(from_lists(a, inner))
        picks = draw(st.lists(st.integers(0, max(basis.cols - 1, 0)), max_size=8)) if basis.cols else []
        b = [[basis[i, j] for j in picks] for i in range(inner)]
        return a, b, inner, len(picks)
    b = draw(dense_lists(rows=inner))
    return a, b, inner, width(b, draw(st.integers(0, 8)))


@given(products())
@settings(max_examples=300)
def test_matmul_matches_dense_reference(case):
    a, b, inner, cols = case
    product = from_lists(a, inner) @ from_lists(b, cols)
    assert_is(product, reference_matmul(a, b, inner, cols), cols)


@given(dense_lists(), st.integers(0, 8), st.data())
@settings(max_examples=200)
def test_access_transpose_and_slices_match_dense_reference(rows, cols, data):
    cols = width(rows, cols)
    m = from_lists(rows, cols)
    assert_is(m, rows, cols)
    assert_is(m.transpose(), [list(c) for c in zip(*rows)] if rows else [[]] * cols, len(rows))
    assert m.to_rows() == rows
    assert m.is_zero() == all(x == 0 for row in rows for x in row)
    for i in range(m.rows):
        assert m.row_list(i) == rows[i]
        for j in range(cols):
            assert m[i, j] == rows[i][j]
    for j in range(cols):
        assert m.col_list(j) == [row[j] for row in rows]
    start = data.draw(st.integers(0, cols))
    count = data.draw(st.integers(0, cols - start))
    assert_is(m.column_block(start, count), [row[start : start + count] for row in rows], count)
    # indices in any order, repeats allowed
    row_idx = data.draw(st.lists(st.integers(0, m.rows - 1), max_size=8)) if m.rows else []
    col_idx = data.draw(st.lists(st.integers(0, cols - 1), max_size=8)) if cols else []
    assert_is(m.submatrix(row_idx, col_idx), [[rows[i][j] for j in col_idx] for i in row_idx],
              len(col_idx))


@given(st.lists(dense_lists(rows=3), min_size=1, max_size=4),
       st.lists(dense_lists(cols=3), min_size=1, max_size=4))
@settings(max_examples=150)
def test_stacks_match_dense_reference(side_by_side, on_top):
    blocks = [from_lists(b, width(b, 0)) for b in side_by_side]
    joined = [[x for b in side_by_side for x in b[i]] for i in range(3)]
    assert_is(RatMat.hstack(blocks), joined, sum(b.cols for b in blocks))
    assert_is(RatMat.vstack([from_lists(b, 3) for b in on_top]),
              [row for b in on_top for row in b], 3)


@st.composite
def same_shape_pairs(draw):
    """Two matrices of one shape; the second may be the first, negated,
    scaled or partly negated, so that sums and differences cancel."""
    a = draw(dense_lists())
    cols = width(a, draw(st.integers(0, 8)))
    how = draw(st.sampled_from(["free", "same", "negated", "scaled", "half"]))
    if how == "free":
        b = draw(dense_lists(rows=len(a), cols=cols))
    elif how == "half":
        b = [[-x if j % 2 else x for j, x in enumerate(row)] for row in a]
    else:
        c = {"same": 1, "negated": -1}.get(how) or draw(small_fractions)
        b = [[c * x for x in row] for row in a]
    return a, b, cols


@given(same_shape_pairs(), small_fractions)
@settings(max_examples=200)
def test_arithmetic_equality_and_hash_match_dense_reference(pair, c):
    a, b, cols = pair
    ma, mb = from_lists(a, cols), from_lists(b, cols)
    assert_is(ma + mb, [[x + y for x, y in zip(r, s)] for r, s in zip(a, b)], cols)
    assert_is(ma - mb, [[x - y for x, y in zip(r, s)] for r, s in zip(a, b)], cols)
    assert_is(-ma, [[-x for x in r] for r in a], cols)
    assert_is(ma.scale(c), [[c * x for x in r] for r in a], cols)
    assert (ma == mb) == (a == b)
    if a == b:
        assert hash(ma) == hash(mb)
    # equal values built along different paths
    rebuilt = (ma + mb) - mb
    assert rebuilt == ma and hash(rebuilt) == hash(ma)
    assert ma.transpose().transpose() == ma
    assert ma != RatMat.zeros(len(a), cols + 1)
    # pickle and deepcopy, also of a result made of shared zero rows
    for original, rows in ((ma, a), (ma.scale(0), [[Fraction(0)] * cols for _ in a])):
        for copied in (pickle.loads(pickle.dumps(original)), copy.deepcopy(original)):
            assert_is(copied, rows, cols)


def test_rational_reads_a_string():
    assert rational("-3/4") == Fraction(-3, 4)


def test_stacks_of_no_blocks_take_the_declared_count():
    assert RatMat.hstack([], rows=2) == RatMat.zeros(2, 0)
    assert RatMat.vstack([], cols=3) == RatMat.zeros(0, 3)


def test_repr_shows_shape_and_rows():
    assert repr(RatMat.zeros(0, 2)) == "RatMat(0x2)"
    assert repr(RatMat.from_rows([[1, "1/2"], [0, -3]])) == "RatMat(2x2: 1 1/2; 0 -3)"


_Z22, _Z23, _Z32 = RatMat.zeros(2, 2), RatMat.zeros(2, 3), RatMat.zeros(3, 2)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: RatMat.zeros(-1, 2), ValueError, r"negative matrix shape \(-1, 2\)"),
        (lambda: RatMat(2, 2, [1, 2, 3]), ValueError, "a 2x2 matrix needs 4 entries, got 3"),
        (lambda: RatMat.from_rows([[1, 2]], cols=3), ValueError,
         "declared 3 columns but rows have 2"),
        (lambda: RatMat.from_rows([[1, 2], [3]]), ValueError, "rows of unequal length"),
        (lambda: RatMat.hstack([]), ValueError, "hstack of no blocks needs an explicit row count"),
        (lambda: RatMat.hstack([_Z22], rows=3), ValueError, "declared 3 rows but blocks have 2"),
        (lambda: RatMat.hstack([_Z22, _Z32]), ValueError, "hstack blocks disagree on row count"),
        (lambda: RatMat.vstack([]), ValueError,
         "vstack of no blocks needs an explicit column count"),
        (lambda: RatMat.vstack([_Z22], cols=3), ValueError,
         "declared 3 columns but blocks have 2"),
        (lambda: RatMat.vstack([_Z22, _Z23]), ValueError,
         "vstack blocks disagree on column count"),
        (lambda: _Z23[2, 0], IndexError, r"\(2, 0\) out of range for 2x3"),
        (lambda: _Z23.col_list(3), IndexError, "column 3 out of range for 3"),
        (lambda: _Z23.submatrix([0], [3]), IndexError, "submatrix index out of range for 2x3"),
        (lambda: _Z22 + _Z23, ValueError, "shape mismatch: 2x2 vs 2x3"),
        (lambda: _Z23.det(), ValueError, "determinant of non-square 2x3"),
        (lambda: QuotientPresentation.from_relation_span(3, RatMat.zeros(3, 1)).free_columns(
            _Z22), ValueError, "cannot multiply 2x2 by 3x3"),
        (lambda: solve_exact(_Z22, RatMat.zeros(3, 1)), ValueError,
         "system has 2 rows but right-hand side has 3"),
    ],
)
def test_guards_name_the_mismatch(call, error, message):
    with pytest.raises(error, match=message):
        call()
