"""Exact linear algebra over arbitrary-precision rationals.

Scalars are ``fractions.Fraction`` throughout, which is already canonical
(reduced, positive denominator), so every computation in this package is
exact and there is no tolerance anywhere.  Empty matrices (zero rows or
zero columns) are legal first-class values; they represent maps to or from
the zero space and show up routinely as fibres over zero-dimensional charts.

Matrices are stored sparse: one ``{column: Fraction}`` dict per row holding
only that row's nonzeros, so products, transposes, stacks and elimination
touch nonzeros only.  The ``data`` property is a dense row-major view for
readers.  A row dict is never changed once it is in a matrix, so matrices
share row dicts freely: ``vstack`` and products by unit rows reuse rows,
and zero rows of results are one shared read-only empty row.

One elimination kernel (``_echelon``) brings such rows to reduced row
echelon form.  Each row is reduced against the rows kept so far and, if
anything is left, joins them with its smallest column as pivot; the rows
kept are fully reduced at every step and sorted by pivot at the end.  The
reduced row echelon form depends only on the row space, so ranks,
kernels, solutions, quotient presentations and colimit bases are
reproducible bit for bit, whatever the order of the input rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from types import MappingProxyType
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
_MINUS_ONE = Fraction(-1)
# the row with no nonzeros, read-only and shared, so that the zero rows
# of results cost no dict of their own
_ZERO_ROW = MappingProxyType({})


def rational(value) -> Fraction:
    """Coerce an exact scalar.  Floats are rejected: no rounding, ever."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"cannot use {value!r} as an exact rational scalar")


def _check_shape(rows: int, cols: int) -> None:
    if rows < 0 or cols < 0:
        raise ValueError(f"negative matrix shape ({rows}, {cols})")


class RatMat:
    """Matrix of Fractions with exact arithmetic and value semantics.

    ``row_dicts[i]`` maps each column of a nonzero entry of row i to that
    entry; zeros are not stored.
    """

    __slots__ = ("rows", "cols", "row_dicts")

    def __init__(self, rows: int, cols: int, entries: Sequence) -> None:
        _check_shape(rows, cols)
        data = [rational(e) for e in entries]
        if len(data) != rows * cols:
            raise ValueError(
                f"a {rows}x{cols} matrix needs {rows * cols} entries, got {len(data)}"
            )
        self.rows = rows
        self.cols = cols
        self.row_dicts = [
            {j: x for j, x in enumerate(data[i * cols : (i + 1) * cols]) if x}
            for i in range(rows)
        ]

    @classmethod
    def _trusted(cls, rows: int, cols: int, row_dicts: list) -> "RatMat":
        """Wrap ``row_dicts`` as they are: no copy, no shape check, no coercion.

        Only for results computed from RatMat entries, where every stored
        entry is already a nonzero Fraction in range; anything else goes
        through ``__init__``.
        """
        m = object.__new__(cls)
        m.rows = rows
        m.cols = cols
        m.row_dicts = row_dicts
        return m

    def __reduce__(self):
        # the shared zero row is read-only and cannot be pickled or copied
        return RatMat._trusted, (self.rows, self.cols, [dict(row) for row in self.row_dicts])

    # -- construction -----------------------------------------------------

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "RatMat":
        _check_shape(rows, cols)
        return cls._trusted(rows, cols, [_ZERO_ROW] * rows)

    @classmethod
    def identity(cls, n: int) -> "RatMat":
        _check_shape(n, n)
        return cls._trusted(n, n, [{i: _ONE} for i in range(n)])

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
            return RatMat.zeros(rows, 0)
        height = blocks[0].rows
        if rows is not None and rows != height:
            raise ValueError(f"declared {rows} rows but blocks have {height}")
        if any(b.rows != height for b in blocks):
            raise ValueError("hstack blocks disagree on row count")
        *offsets, width = accumulate((b.cols for b in blocks), initial=0)
        out = []
        for i in range(height):
            row = {}
            for offset, b in zip(offsets, blocks):
                for j, x in b.row_dicts[i].items():
                    row[offset + j] = x
            out.append(row or _ZERO_ROW)
        return RatMat._trusted(height, width, out)

    @staticmethod
    def vstack(blocks: Sequence["RatMat"], cols: int | None = None) -> "RatMat":
        blocks = list(blocks)
        if not blocks:
            if cols is None:
                raise ValueError("vstack of no blocks needs an explicit column count")
            return RatMat.zeros(0, cols)
        width = blocks[0].cols
        if cols is not None and cols != width:
            raise ValueError(f"declared {cols} columns but blocks have {width}")
        if any(b.cols != width for b in blocks):
            raise ValueError("vstack blocks disagree on column count")
        out = [row for b in blocks for row in b.row_dicts]
        return RatMat._trusted(len(out), width, out)

    # -- access -----------------------------------------------------------

    @property
    def data(self) -> list[Fraction]:
        """All entries, row-major, zeros included: a dense copy to read."""
        cols = self.cols
        out = [_ZERO] * (self.rows * cols)
        for i, row in enumerate(self.row_dicts):
            base = i * cols
            for j, x in row.items():
                out[base + j] = x
        return out

    def __getitem__(self, key) -> Fraction:
        i, j = key
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"({i}, {j}) out of range for {self.rows}x{self.cols}")
        return self.row_dicts[i].get(j, _ZERO)

    def row_list(self, i: int) -> list[Fraction]:
        row = self.row_dicts[i]
        return [row.get(j, _ZERO) for j in range(self.cols)]

    def col_list(self, j: int) -> list[Fraction]:
        if not 0 <= j < self.cols:
            raise IndexError(f"column {j} out of range for {self.cols}")
        return [row.get(j, _ZERO) for row in self.row_dicts]

    def to_rows(self) -> list[list[Fraction]]:
        return [self.row_list(i) for i in range(self.rows)]

    def column_block(self, start: int, count: int) -> "RatMat":
        """Contiguous slice of columns, as a new matrix."""
        if start < 0 or count < 0 or start + count > self.cols:
            raise ValueError(f"columns {start}..{start + count - 1} out of range for {self.cols}")
        stop = start + count
        out = [
            {j - start: x for j, x in row.items() if start <= j < stop} or _ZERO_ROW
            for row in self.row_dicts
        ]
        return RatMat._trusted(self.rows, count, out)

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "RatMat":
        row_idx = list(row_idx)
        col_idx = list(col_idx)
        if any(not 0 <= i < self.rows for i in row_idx) or any(
            not 0 <= j < self.cols for j in col_idx
        ):
            raise IndexError(f"submatrix index out of range for {self.rows}x{self.cols}")
        out = [
            {a: row[j] for a, j in enumerate(col_idx) if j in row}
            for row in (self.row_dicts[i] for i in row_idx)
        ]
        return RatMat._trusted(len(row_idx), len(col_idx), out)

    # -- arithmetic -------------------------------------------------------

    def __matmul__(self, other: "RatMat") -> "RatMat":
        if self.cols != other.rows:
            raise ValueError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        right = other.row_dicts
        out = []
        for row in self.row_dicts:
            if len(row) == 1:
                # one term cannot cancel: a unit row shares the row it picks
                ((k, a),) = row.items()
                picked = right[k]
                out.append(picked if a == 1 else {j: a * b for j, b in picked.items()})
                continue
            acc: dict[int, Fraction] = {}
            for k, a in row.items():
                for j, b in right[k].items():
                    acc[j] = acc.get(j, _ZERO) + a * b
            out.append({j: v for j, v in acc.items() if v} or _ZERO_ROW)
        return RatMat._trusted(self.rows, other.cols, out)

    def __add__(self, other: "RatMat") -> "RatMat":
        return self._combined(other, _MINUS_ONE)

    def __sub__(self, other: "RatMat") -> "RatMat":
        return self._combined(other, _ONE)

    def _combined(self, other: "RatMat", f: Fraction) -> "RatMat":
        """self - f * other."""
        self._require_same_shape(other)
        out = []
        for mine, theirs in zip(self.row_dicts, other.row_dicts):
            row = dict(mine)
            _subtract(row, f, theirs)
            out.append(row)
        return RatMat._trusted(self.rows, self.cols, out)

    def __neg__(self) -> "RatMat":
        return self.scale(_MINUS_ONE)

    def scale(self, c) -> "RatMat":
        c = rational(c)
        if not c:
            return RatMat.zeros(self.rows, self.cols)
        out = [{j: c * x for j, x in row.items()} for row in self.row_dicts]
        return RatMat._trusted(self.rows, self.cols, out)

    def transpose(self) -> "RatMat":
        out: list[dict[int, Fraction]] = [{} for _ in range(self.cols)]
        for i, row in enumerate(self.row_dicts):
            for j, x in row.items():
                out[j][i] = x
        return RatMat._trusted(self.cols, self.rows, out)

    def _require_same_shape(self, other: "RatMat") -> None:
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError(
                f"shape mismatch: {self.rows}x{self.cols} vs {other.rows}x{other.cols}"
            )

    # -- predicates and elimination ---------------------------------------

    def is_zero(self) -> bool:
        return not any(self.row_dicts)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RatMat):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self.row_dicts == other.row_dicts
        )

    def __hash__(self):
        return hash(
            (self.rows, self.cols, tuple(frozenset(row.items()) for row in self.row_dicts))
        )

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
        reduced, pivots = _echelon(self.row_dicts)
        reduced.extend([_ZERO_ROW] * (self.rows - len(reduced)))
        return RatMat._trusted(self.rows, self.cols, reduced), pivots

    def rank(self) -> int:
        return len(_echelon(self.row_dicts)[1])

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


def _subtract(row: dict[int, Fraction], f: Fraction, other: dict[int, Fraction], skip: int = -1) -> None:
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

    ``rows`` are ``{column: Fraction}`` dicts of nonzeros; they are left as
    they are.  Returns the nonzero rows of the reduced form, each scaled to
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
        if not row:
            continue
        row = dict(row)
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


def _null_rows(reduced, pivots, cols: int) -> dict[int, dict[int, Fraction]]:
    """Kernel basis read off a reduced row echelon form, one row per free
    coordinate f, keyed by f in increasing order: 1 at f, minus the
    reduced-row entries of column f at the pivots."""
    pivot_set = set(pivots)
    out = {f: {f: _ONE} for f in range(cols) if f not in pivot_set}
    for row, p in zip(reduced, pivots):
        for j, x in row.items():
            if j != p:
                out[j][p] = -x
    return out


def kernel_basis(m: RatMat) -> RatMat:
    """Basis of the null space of ``m``, one basis vector per column.

    The basis is the standard one read off the reduced row echelon form
    (free variable set to 1, pivots solved), with free columns in
    increasing order, so the result has exactly cols - rank(m) columns
    and is deterministic.
    """
    rows = list(_null_rows(*_echelon(m.row_dicts), m.cols).values())
    return RatMat._trusted(len(rows), m.cols, rows).transpose()


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
        (the free ones) become the quotient slots, so column a of the
        section is the unit vector at the a-th free coordinate.  The
        projection is the transpose of the kernel basis of the reduced
        relations.
        """
        if relations.rows != ambient_dim:
            raise ValueError(
                f"relations live in R^{relations.rows}, expected R^{ambient_dim}"
            )
        reduced, pivots = _echelon(relations.transpose().row_dicts)
        # reduced relation basis: column i is row i of the echelon form
        relation_basis = RatMat._trusted(len(pivots), ambient_dim, reduced).transpose()
        null_rows = _null_rows(reduced, pivots, ambient_dim)
        width = len(null_rows)
        projection = RatMat._trusted(width, ambient_dim, list(null_rows.values()))
        section_rows = [_ZERO_ROW] * ambient_dim
        for a, f in enumerate(null_rows):
            section_rows[f] = {a: _ONE}
        section = RatMat._trusted(ambient_dim, width, section_rows)
        return cls(ambient_dim, relation_basis, width, projection, section)

    def free_columns(self, m: RatMat) -> RatMat:
        """``m @ section``, read off as the columns of ``m`` at the free
        coordinates: the section's columns are unit vectors there."""
        if m.cols != self.ambient_dim:
            raise ValueError(
                f"cannot multiply {m.rows}x{m.cols} by {self.ambient_dim}x{self.quotient_dim}"
            )
        slot = {f: a for f, row in enumerate(self.section.row_dicts) for a in row}
        out = [
            {slot[j]: x for j, x in row.items() if j in slot} or _ZERO_ROW
            for row in m.row_dicts
        ]
        return RatMat._trusted(m.rows, self.quotient_dim, out)


def solve_exact(a: RatMat, b: RatMat) -> RatMat | None:
    """One exact solution of a @ x = b, or None when the system is inconsistent.

    Free variables are set to zero, so the particular solution is
    deterministic.  ``b`` may have several columns.
    """
    if a.rows != b.rows:
        raise ValueError(f"system has {a.rows} rows but right-hand side has {b.rows}")
    reduced, pivots = _echelon(RatMat.hstack([a, b]).row_dicts)
    if any(p >= a.cols for p in pivots):
        return None
    x = [_ZERO_ROW] * a.cols
    for row, p in zip(reduced, pivots):
        x[p] = {j - a.cols: v for j, v in row.items() if j >= a.cols}
    return RatMat._trusted(a.cols, b.cols, x)
