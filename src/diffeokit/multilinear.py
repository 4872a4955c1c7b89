"""Functorial multilinear algebra on finite-dimensional rational spaces.

Exterior powers, tensor products and Hom/currying of linear maps, all in
fixed ordered bases so that matrix representations are reproducible:

* the wedge basis of degree k over an n-dimensional space is the list of
  strictly increasing k-element subsets of {1..n} in lexicographic order;
* the tensor basis of V (x) W is ordered with the V index major;
* Hom(W, Z) is identified with W* (x) Z, W index major.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb

from .linalg import RatMat

_ONE = Fraction(1)
_ZERO = Fraction(0)

__all__ = [
    "IndexBasis",
    "index_basis",
    "exterior_power_map",
    "tensor_product_map",
    "curry_hom",
    "uncurry_hom",
]


@dataclass(frozen=True)
class IndexBasis:
    """Ordered wedge basis: increasing k-subsets of {1..n}, lexicographic."""

    ambient_dim: int
    degree: int
    subsets: tuple[tuple[int, ...], ...]
    # subset -> its place in ``subsets``; built once by index_basis()
    positions: dict[tuple[int, ...], int] = field(compare=False, repr=False)

    def __len__(self) -> int:
        return len(self.subsets)

    def position(self, subset) -> int:
        subset = tuple(subset)
        try:
            return self.positions[subset]
        except KeyError:
            raise ValueError(
                f"{subset} is not an increasing {self.degree}-subset of "
                f"{{1..{self.ambient_dim}}}"
            ) from None


@lru_cache(maxsize=None)
def index_basis(n: int, k: int) -> IndexBasis:
    if n < 0 or k < 0:
        raise ValueError(f"index basis needs n, k >= 0, got ({n}, {k})")
    subs = tuple(combinations(range(1, n + 1), k))
    assert len(subs) == comb(n, k)
    return IndexBasis(n, k, subs, {s: i for i, s in enumerate(subs)})


def _minors(rows: list, k: int) -> dict:
    """Nonzero k x k minors of the matrix whose rows hold the nonzero
    entries ``rows``, each row a list of (1-based column, value) pairs.

    Returns {J: {I: minor on rows J and columns I}} over increasing
    1-based row and column subsets, nonzero minors only.  Minors are grown
    a row at a time: the degree-d minor on rows J + (r,) and columns I is
    the Laplace expansion along its last row r, the sum over the nonzero
    entries x at columns c in I of +-x times the degree-(d-1) minor on
    rows J and columns I without c.  So the work follows the nonzero
    minors rather than all C(rows, k) * C(cols, k) of them.  The entries
    may be Fractions or any ring elements that add to and multiply with
    Fractions, negate, and are falsy exactly when zero, such as polynomials.
    """
    minors: dict[tuple[int, ...], dict] = {(): {(): _ONE}}
    for d in range(1, k + 1):
        grown = {}
        for J, by_cols in minors.items():
            # leave room for the k - d rows still to come
            for r in range(J[-1] if J else 0, len(rows) - (k - d)):
                acc: dict = {}
                for I, m in by_cols.items():
                    for c, x in rows[r]:
                        t = bisect_left(I, c)
                        if t < len(I) and I[t] == c:
                            continue
                        v = x * m
                        if (d - 1 + t) % 2:
                            v = -v
                        key = I[:t] + (c,) + I[t:]
                        acc[key] = acc.get(key, _ZERO) + v
                acc = {I: v for I, v in acc.items() if v}
                if acc:
                    grown[J + (r + 1,)] = acc
        minors = grown
    return minors


def exterior_power_map(a: RatMat, k: int) -> RatMat:
    """Matrix of the k-th exterior power of ``a`` in lexicographic wedge bases.

    The entry at (J, I) is the k x k minor of ``a`` with rows J and
    columns I, expanded by ``_minors``.  Degree 0 gives the 1x1 identity
    and degree 1 gives ``a`` itself.
    """
    if k < 0:
        raise ValueError(f"exterior power degree must be >= 0, got {k}")
    if k == 1:
        return a
    minors = _minors([[(c + 1, x) for c, x in row.items()] for row in a.row_dicts], k)
    row_positions = index_basis(a.rows, k).positions
    col_positions = index_basis(a.cols, k).positions
    # rows without a nonzero minor stay the shared zero rows
    out = RatMat.zeros(comb(a.rows, k), comb(a.cols, k))
    for J, by_cols in minors.items():
        out.row_dicts[row_positions[J]] = {col_positions[I]: m for I, m in by_cols.items()}
    return out


def tensor_product_map(a: RatMat, b: RatMat) -> RatMat:
    """Kronecker product in the standard ordered tensor basis."""
    rows = [
        {j1 * b.cols + j2: x * y for j1, x in ra.items() for j2, y in rb.items()}
        for ra in a.row_dicts
        for rb in b.row_dicts
    ]
    return RatMat._trusted(len(rows), a.cols * b.cols, rows)


def _check_dims(dims) -> tuple[int, int, int]:
    p, q, r = dims
    if p < 0 or q < 0 or r < 0:
        raise ValueError(f"dims must be >= 0, got {dims}")
    return p, q, r


def curry_hom(dims: tuple[int, int, int], t: RatMat) -> RatMat:
    """Reshape a map V (x) W -> Z into a map V -> Hom(W, Z).

    ``dims`` is (dim V, dim W, dim Z) = (p, q, r); ``t`` must be r x (p*q).
    The result is (q*r) x p with Hom(W, Z) ordered W index major, and
    uncurry_hom inverts it bit for bit.
    """
    p, q, r = _check_dims(dims)
    if t.rows != r or t.cols != p * q:
        raise ValueError(
            f"expected a {r}x{p * q} matrix for dims (p={p}, q={q}, r={r}), "
            f"got {t.rows}x{t.cols}"
        )
    entries = [0] * (q * r * p)
    for j in range(q):
        for l in range(r):
            row = j * r + l
            for i in range(p):
                entries[row * p + i] = t[l, i * q + j]
    return RatMat(q * r, p, entries)


def uncurry_hom(dims: tuple[int, int, int], m: RatMat) -> RatMat:
    """Inverse of curry_hom for the same ``dims``."""
    p, q, r = _check_dims(dims)
    if m.rows != q * r or m.cols != p:
        raise ValueError(
            f"expected a {q * r}x{p} matrix for dims (p={p}, q={q}, r={r}), "
            f"got {m.rows}x{m.cols}"
        )
    entries = [0] * (r * p * q)
    for l in range(r):
        for i in range(p):
            for j in range(q):
                entries[l * (p * q) + i * q + j] = m[j * r + l, i]
    return RatMat(r, p * q, entries)
