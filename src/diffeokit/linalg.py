"""Exact linear algebra over arbitrary-precision rationals.

Scalars are ``fractions.Fraction`` throughout, which is already canonical
(reduced, positive denominator), so every computation in this package is
exact and there is no tolerance anywhere.  Matrices are stored dense and
row-major.  Empty matrices (zero rows or zero columns) are legal
first-class values; they represent maps to or from the zero space and show
up routinely as fibres over zero-dimensional charts.

Elimination is sparse: rows become ``{column: Fraction}`` dicts holding
only their nonzeros, and one kernel (``_echelon``) brings them to reduced
row echelon form.  Each row is reduced against the rows kept so far and,
if anything is left, joins them with its smallest column as pivot; the
rows kept are fully reduced at every step and sorted by pivot at the end.
The reduced row echelon form depends only on the row space, so ranks,
kernels, solutions, quotient presentations and colimit bases are
reproducible bit for bit, whatever the order of the input rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

__all__ = [
    "Rational",
    "RatMat",
    "QuotientPresentation",
    "rational",
    "kernel_basis",
    "solve_exact",
]

Rational = Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)


def rational(value) -> Fraction:
    """Coerce an exact scalar.  Floats are rejected: no rounding, ever."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"cannot use {value!r} as an exact rational scalar")


class RatMat:
    """Dense matrix of Fractions with exact arithmetic and value semantics."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, entries: Sequence) -> None:
        if rows < 0 or cols < 0:
            raise ValueError(f"negative matrix shape ({rows}, {cols})")
        data = [rational(e) for e in entries]
        if len(data) != rows * cols:
            raise ValueError(
                f"a {rows}x{cols} matrix needs {rows * cols} entries, got {len(data)}"
            )
        self.rows = rows
        self.cols = cols
        self.data = data

    @classmethod
    def _trusted(cls, rows: int, cols: int, data: list) -> "RatMat":
        """Wrap ``data`` as it is: no copy, no shape check, no coercion.

        Only for results computed from RatMat entries, where every entry
        is already a Fraction; anything else goes through ``__init__``.
        """
        m = object.__new__(cls)
        m.rows = rows
        m.cols = cols
        m.data = data
        return m

    # -- construction -----------------------------------------------------

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "RatMat":
        return cls(rows, cols, [0] * (rows * cols))

    @classmethod
    def identity(cls, n: int) -> "RatMat":
        return cls(n, n, [1 if i == j else 0 for i in range(n) for j in range(n)])

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence], cols: int | None = None) -> "RatMat":
        rows = [list(r) for r in rows]
        if rows:
            width = len(rows[0])
            if cols is not None and cols != width:
                raise ValueError(f"declared {cols} columns but rows have {width}")
            if any(len(r) != width for r in rows):
                raise ValueError("rows of unequal length")
            return cls(len(rows), width, [e for r in rows for e in r])
        return cls(0, 0 if cols is None else cols, [])

    @classmethod
    def column(cls, entries: Sequence) -> "RatMat":
        entries = list(entries)
        return cls(len(entries), 1, entries)

    @classmethod
    def row(cls, entries: Sequence) -> "RatMat":
        entries = list(entries)
        return cls(1, len(entries), entries)

    @staticmethod
    def hstack(blocks: Sequence["RatMat"], rows: int | None = None) -> "RatMat":
        blocks = list(blocks)
        if not blocks:
            if rows is None:
                raise ValueError("hstack of no blocks needs an explicit row count")
            return RatMat(rows, 0, [])
        height = blocks[0].rows
        if rows is not None and rows != height:
            raise ValueError(f"declared {rows} rows but blocks have {height}")
        if any(b.rows != height for b in blocks):
            raise ValueError("hstack blocks disagree on row count")
        width = sum(b.cols for b in blocks)
        data = []
        for i in range(height):
            for b in blocks:
                data.extend(b.data[i * b.cols : (i + 1) * b.cols])
        return RatMat._trusted(height, width, data)

    @staticmethod
    def vstack(blocks: Sequence["RatMat"], cols: int | None = None) -> "RatMat":
        blocks = list(blocks)
        if not blocks:
            if cols is None:
                raise ValueError("vstack of no blocks needs an explicit column count")
            return RatMat(0, cols, [])
        width = blocks[0].cols
        if cols is not None and cols != width:
            raise ValueError(f"declared {cols} columns but blocks have {width}")
        if any(b.cols != width for b in blocks):
            raise ValueError("vstack blocks disagree on column count")
        height = sum(b.rows for b in blocks)
        data = []
        for b in blocks:
            data.extend(b.data)
        return RatMat._trusted(height, width, data)

    # -- access -----------------------------------------------------------

    def __getitem__(self, key) -> Fraction:
        i, j = key
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"({i}, {j}) out of range for {self.rows}x{self.cols}")
        return self.data[i * self.cols + j]

    def row_list(self, i: int) -> list[Fraction]:
        return self.data[i * self.cols : (i + 1) * self.cols]

    def col_list(self, j: int) -> list[Fraction]:
        return [self.data[i * self.cols + j] for i in range(self.rows)]

    def to_rows(self) -> list[list[Fraction]]:
        return [self.row_list(i) for i in range(self.rows)]

    def column_block(self, start: int, count: int) -> "RatMat":
        """Contiguous slice of columns, as a new matrix."""
        if start < 0 or count < 0 or start + count > self.cols:
            raise ValueError(f"columns {start}..{start + count - 1} out of range for {self.cols}")
        data = []
        for i in range(self.rows):
            data.extend(self.data[i * self.cols + start : i * self.cols + start + count])
        return RatMat._trusted(self.rows, count, data)

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "RatMat":
        row_idx = list(row_idx)
        col_idx = list(col_idx)
        data = [self.data[i * self.cols + j] for i in row_idx for j in col_idx]
        return RatMat._trusted(len(row_idx), len(col_idx), data)

    # -- arithmetic -------------------------------------------------------

    def __matmul__(self, other: "RatMat") -> "RatMat":
        if self.cols != other.rows:
            raise ValueError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        width = other.cols
        if not width:
            # nothing to scan: the empty product, e.g. a check against a
            # relation basis with no relations
            return RatMat._trusted(self.rows, 0, [])
        other_rows = _sparse_rows(other)
        out = [_ZERO] * (self.rows * width)
        for i in range(self.rows):
            rbase = i * width
            for k, a in enumerate(self.data[i * self.cols : (i + 1) * self.cols]):
                if a:
                    for j, b in other_rows[k].items():
                        out[rbase + j] += a * b
        return RatMat._trusted(self.rows, width, out)

    def __add__(self, other: "RatMat") -> "RatMat":
        self._require_same_shape(other)
        return RatMat(self.rows, self.cols, [a + b for a, b in zip(self.data, other.data)])

    def __sub__(self, other: "RatMat") -> "RatMat":
        self._require_same_shape(other)
        return RatMat(self.rows, self.cols, [a - b for a, b in zip(self.data, other.data)])

    def __neg__(self) -> "RatMat":
        return RatMat(self.rows, self.cols, [-a for a in self.data])

    def scale(self, c) -> "RatMat":
        c = rational(c)
        return RatMat(self.rows, self.cols, [c * a for a in self.data])

    def transpose(self) -> "RatMat":
        data = [self.data[i * self.cols + j] for j in range(self.cols) for i in range(self.rows)]
        return RatMat._trusted(self.cols, self.rows, data)

    def _require_same_shape(self, other: "RatMat") -> None:
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError(
                f"shape mismatch: {self.rows}x{self.cols} vs {other.rows}x{other.cols}"
            )

    # -- predicates and elimination ---------------------------------------

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.data)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RatMat):
            return NotImplemented
        return self.rows == other.rows and self.cols == other.cols and self.data == other.data

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(self.data)))

    def __repr__(self) -> str:
        if self.rows == 0 or self.cols == 0:
            return f"RatMat({self.rows}x{self.cols})"
        body = "; ".join(
            " ".join(str(e) for e in self.row_list(i)) for i in range(self.rows)
        )
        return f"RatMat({self.rows}x{self.cols}: {body})"

    def rref(self) -> tuple["RatMat", tuple[int, ...]]:
        """Reduced row echelon form and the pivot column indices.

        The nonzero rows come first, in pivot order, followed by zero rows
        up to the original row count.  The form is unique for the row
        space, so the result does not depend on how it was computed.
        """
        reduced, pivots = _echelon(_sparse_rows(self))
        return _dense(reduced, self.rows, self.cols), pivots

    def rank(self) -> int:
        return len(_echelon(_sparse_rows(self))[1])

    def is_injective(self) -> bool:
        return self.rank() == self.cols

    def is_surjective(self) -> bool:
        return self.rank() == self.rows

    def is_invertible(self) -> bool:
        return self.rows == self.cols and self.rank() == self.rows

    def det(self) -> Fraction:
        if self.rows != self.cols:
            raise ValueError(f"determinant of non-square {self.rows}x{self.cols}")
        n = self.rows
        rows = [self.row_list(i) for i in range(n)]
        sign = 1
        result = Fraction(1)
        for c in range(n):
            pivot_row = None
            for r in range(c, n):
                if rows[r][c] != 0:
                    pivot_row = r
                    break
            if pivot_row is None:
                return Fraction(0)
            if pivot_row != c:
                rows[c], rows[pivot_row] = rows[pivot_row], rows[c]
                sign = -sign
            pv = rows[c][c]
            result *= pv
            for r in range(c + 1, n):
                if rows[r][c] != 0:
                    f = rows[r][c] / pv
                    rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
        return sign * result


def _sparse_rows(m: RatMat) -> list[dict[int, Fraction]]:
    """The nonzero entries of each row of ``m``, keyed by column."""
    n = m.cols
    data = m.data
    return [
        {j: x for j, x in enumerate(data[i * n : (i + 1) * n]) if x}
        for i in range(m.rows)
    ]


def _dense(rows: list[dict[int, Fraction]], height: int, cols: int) -> RatMat:
    """The height x cols matrix with the given sparse rows on top, zeros below."""
    data = [_ZERO] * (height * cols)
    for i, row in enumerate(rows):
        for j, x in row.items():
            data[i * cols + j] = x
    return RatMat._trusted(height, cols, data)


def _subtract(row: dict[int, Fraction], f: Fraction, other: dict[int, Fraction], skip: int) -> None:
    """row -= f * other in place, leaving out column ``skip`` and dropping zeros."""
    for j, x in other.items():
        if j != skip:
            v = row.get(j, _ZERO) - f * x
            if v:
                row[j] = v
            else:
                del row[j]


def _echelon(rows) -> tuple[list[dict[int, Fraction]], tuple[int, ...]]:
    """Sparse reduced row echelon form of the span of ``rows``.

    ``rows`` are ``{column: Fraction}`` dicts of nonzeros; they are
    consumed.  Returns the nonzero rows of the reduced form, each scaled to
    1 at its pivot and zero in every other pivot column, sorted by pivot,
    together with the pivots.

    Invariant: the rows kept so far are fully reduced, so subtracting one
    of them never brings back another pivot column.  A new row therefore
    needs one pass over the pivot columns it holds; what is left, if
    anything, is scaled at its smallest column, which is a new pivot and
    lies to the right of every kept pivot it is cleared from.
    """
    kept: dict[int, dict[int, Fraction]] = {}
    for row in rows:
        for c in [c for c in row if c in kept]:
            _subtract(row, row.pop(c), kept[c], c)
        if not row:
            continue
        p = min(row)
        pv = row[p]
        if pv != 1:
            row = {j: x / pv for j, x in row.items()}
        for other in kept.values():
            if p in other:
                _subtract(other, other.pop(p), row, p)
        kept[p] = row
    pivots = tuple(sorted(kept))
    return [kept[p] for p in pivots], pivots


def _null_space(reduced, pivots, cols: int) -> RatMat:
    """Kernel basis read off a reduced row echelon form, one column per
    free coordinate in increasing order: 1 at the free coordinate, minus
    its reduced-row entries at the pivots."""
    pivot_set = set(pivots)
    slot = {f: a for a, f in enumerate(c for c in range(cols) if c not in pivot_set)}
    width = len(slot)
    data = [_ZERO] * (cols * width)
    for f, a in slot.items():
        data[f * width + a] = _ONE
    for row, p in zip(reduced, pivots):
        for j, x in row.items():
            if j != p:
                data[p * width + slot[j]] = -x
    return RatMat._trusted(cols, width, data)


def kernel_basis(m: RatMat) -> RatMat:
    """Basis of the null space of ``m``, one basis vector per column.

    The basis is the standard one read off the reduced row echelon form
    (free variable set to 1, pivots solved), with free columns in
    increasing order, so the result has exactly cols - rank(m) columns
    and is deterministic.
    """
    reduced, pivots = _echelon(_sparse_rows(m))
    return _null_space(reduced, pivots, m.cols)


@dataclass(frozen=True)
class QuotientPresentation:
    """Coordinates for a quotient of R^ambient_dim by a relation subspace.

    projection @ section is the identity on the quotient and
    projection @ relation_basis is zero, both exactly.
    """

    ambient_dim: int
    relation_basis: RatMat  # ambient_dim x rank, columns span the relations
    quotient_dim: int
    projection: RatMat  # quotient_dim x ambient_dim
    section: RatMat  # ambient_dim x quotient_dim

    @classmethod
    def from_relation_span(cls, ambient_dim: int, relations: RatMat) -> "QuotientPresentation":
        """Quotient of R^ambient_dim by the column span of ``relations``.

        The quotient basis is the complement of the relation span in
        standard coordinates, taken in pivot order: pivot coordinates of
        the reduced relation span are killed, the remaining coordinates
        become the quotient slots.  The projection is the transpose of the
        kernel basis of the reduced relations.
        """
        if relations.rows != ambient_dim:
            raise ValueError(
                f"relations live in R^{relations.rows}, expected R^{ambient_dim}"
            )
        reduced, pivots = _echelon(_sparse_rows(relations.transpose()))
        pivot_set = set(pivots)
        free = [c for c in range(ambient_dim) if c not in pivot_set]
        # reduced relation basis: column i is row i of the echelon form
        relation_basis = _dense(reduced, len(pivots), ambient_dim).transpose()
        projection = _null_space(reduced, pivots, ambient_dim).transpose()
        section = _dense([{f: _ONE} for f in free], len(free), ambient_dim).transpose()
        return cls(ambient_dim, relation_basis, len(free), projection, section)


def solve_exact(a: RatMat, b: RatMat) -> RatMat | None:
    """One exact solution of a @ x = b, or None when the system is inconsistent.

    Free variables are set to zero, so the particular solution is
    deterministic.  ``b`` may have several columns.
    """
    if a.rows != b.rows:
        raise ValueError(f"system has {a.rows} rows but right-hand side has {b.rows}")
    reduced, pivots = _echelon(_sparse_rows(RatMat.hstack([a, b])))
    if any(p >= a.cols for p in pivots):
        return None
    x = [_ZERO] * (a.cols * b.cols)
    for row, p in zip(reduced, pivots):
        for j, v in row.items():
            if j >= a.cols:
                x[p * b.cols + j - a.cols] = v
    return RatMat._trusted(a.cols, b.cols, x)
