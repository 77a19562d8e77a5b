"""Exact linear algebra over Q(i): RREF, rank, rank factorization.

Matrices are immutable tuples of tuples of :class:`GaussianRational`.
Everything here is fraction-exact; there is no pivoting heuristic beyond
"first nonzero entry in column order", which makes the reduced row echelon
form (and hence the rank factorization) deterministic.

Degenerate shapes are first class: a 0 x m or n x 0 matrix keeps its
column count, and (n x 0) @ (0 x m) is the n x m zero matrix.  Rank-zero
factorizations rely on this.
"""

from __future__ import annotations

from .scalars import GaussianRational, ZERO, ONE


class ScalarMatrix:
    """Immutable exact matrix over Q(i)."""

    __slots__ = ("entries", "_cols")

    def __init__(self, entries, cols: int | None = None):
        rows = []
        width = cols
        for row in entries:
            row = tuple(
                c if isinstance(c, GaussianRational) else GaussianRational(c)
                for c in row
            )
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise ValueError("ragged matrix")
            rows.append(row)
        self.entries = tuple(rows)
        self._cols = 0 if width is None else width

    @classmethod
    def _raw(
        cls, entries: tuple[tuple[GaussianRational, ...], ...], cols: int
    ) -> "ScalarMatrix":
        out = object.__new__(cls)
        out.entries = entries
        out._cols = cols
        return out

    @classmethod
    def identity(cls, n: int) -> "ScalarMatrix":
        return cls._raw(
            tuple(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n)),
            n,
        )

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "ScalarMatrix":
        return cls._raw(tuple(tuple(ZERO for _ in range(cols)) for _ in range(rows)), cols)

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return self._cols

    def is_square(self) -> bool:
        return self.rows == self._cols

    def is_zero(self) -> bool:
        return all(not c for row in self.entries for c in row)

    def row(self, i: int) -> tuple[GaussianRational, ...]:
        return self.entries[i]

    def column(self, j: int) -> tuple[GaussianRational, ...]:
        return tuple(row[j] for row in self.entries)

    def diagonal(self) -> tuple[GaussianRational, ...]:
        return tuple(self.entries[i][i] for i in range(min(self.rows, self._cols)))

    def transpose(self) -> "ScalarMatrix":
        return ScalarMatrix._raw(
            tuple(self.column(j) for j in range(self._cols)), self.rows
        )

    def __add__(self, other: "ScalarMatrix") -> "ScalarMatrix":
        if self.rows != other.rows or self._cols != other._cols:
            raise ValueError("shape mismatch in matrix addition")
        return ScalarMatrix._raw(
            tuple(
                tuple(a + b for a, b in zip(ra, rb))
                for ra, rb in zip(self.entries, other.entries)
            ),
            self._cols,
        )

    def __sub__(self, other: "ScalarMatrix") -> "ScalarMatrix":
        if self.rows != other.rows or self._cols != other._cols:
            raise ValueError("shape mismatch in matrix subtraction")
        return ScalarMatrix._raw(
            tuple(
                tuple(a - b for a, b in zip(ra, rb))
                for ra, rb in zip(self.entries, other.entries)
            ),
            self._cols,
        )

    def __mul__(self, other: "ScalarMatrix") -> "ScalarMatrix":
        if self._cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        out = []
        for i in range(self.rows):
            row = []
            for j in range(other._cols):
                acc = ZERO
                for k in range(self._cols):
                    a = self.entries[i][k]
                    if a:
                        b = other.entries[k][j]
                        if b:
                            acc = acc + a * b
                row.append(acc)
            out.append(tuple(row))
        return ScalarMatrix._raw(tuple(out), other._cols)

    def scale(self, value: GaussianRational) -> "ScalarMatrix":
        return ScalarMatrix._raw(
            tuple(tuple(value * c for c in row) for row in self.entries), self._cols
        )

    def __neg__(self) -> "ScalarMatrix":
        return ScalarMatrix._raw(
            tuple(tuple(-c for c in row) for row in self.entries), self._cols
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, ScalarMatrix):
            return NotImplemented
        return self.entries == other.entries and self._cols == other._cols

    def __hash__(self):
        return hash((self.entries, self._cols))

    def __repr__(self) -> str:
        body = "; ".join(", ".join(str(c) for c in row) for row in self.entries)
        return f"ScalarMatrix[{body}]"


def rref_with_pivots(M: ScalarMatrix) -> tuple[ScalarMatrix, tuple[int, ...]]:
    """Reduced row echelon form plus the pivot column indices.

    Deterministic: each pivot is the first row (top to bottom) with a
    nonzero entry in the leftmost unresolved column.
    """
    rows = [list(row) for row in M.entries]
    nrows = len(rows)
    ncols = M.cols
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        if r == nrows:
            break
        pivot_row = None
        for i in range(r, nrows):
            if rows[i][col]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = rows[r][col].inverse()
        rows[r] = [inv * c for c in rows[r]]
        for i in range(nrows):
            if i == r:
                continue
            factor = rows[i][col]
            if factor:
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
    return ScalarMatrix._raw(tuple(tuple(row) for row in rows), ncols), tuple(pivots)


def rref(M: ScalarMatrix) -> ScalarMatrix:
    return rref_with_pivots(M)[0]


def rank(M: ScalarMatrix) -> int:
    return len(rref_with_pivots(M)[1])


def rank_factorization(M: ScalarMatrix) -> tuple[ScalarMatrix, ScalarMatrix]:
    """Write M (n x m, rank r) as B @ C with B n x r and C r x m.

    B collects the pivot columns of M itself; C collects the nonzero rows
    of the RREF.  Both factors have full rank r, and B @ C == M exactly.
    """
    reduced, pivots = rref_with_pivots(M)
    r = len(pivots)
    B = ScalarMatrix._raw(
        tuple(tuple(row[j] for j in pivots) for row in M.entries), r
    )
    C = ScalarMatrix._raw(tuple(reduced.entries[i] for i in range(r)), M.cols)
    return B, C
