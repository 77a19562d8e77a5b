"""Exact linear algebra over Q(i): rank, RREF, rank factorization.

Matrices are immutable tuples of tuples of :class:`GaussianRational`.
Everything here is exact.  :func:`rank` is the library's one rank routine:
fraction-free elimination on the matrix scaled to Gaussian integers.  The
reduced row echelon form is kept for :func:`rank_factorization`, which
needs the reduced basis; its pivot is the first nonzero entry in column
order, which makes the factorization deterministic.

Degenerate shapes are first class: a 0 x m or n x 0 matrix keeps its
column count, and (n x 0) @ (0 x m) is the n x m zero matrix.  Rank-zero
factorizations rely on this.
"""

from __future__ import annotations

from .kernel import integer_pairs
from .scalars import GaussianRational, ONE, ZERO, parse_gaussian


class ScalarMatrix:
    """Immutable exact matrix over Q(i)."""

    __slots__ = ("entries", "_cols")

    def __init__(self, entries, cols: int | None = None):
        rows = []
        width = cols
        for row in entries:
            row = tuple(
                c if isinstance(c, GaussianRational)
                else parse_gaussian(c) if isinstance(c, str)
                else GaussianRational(c)
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

    def diagonal(self) -> tuple[GaussianRational, ...]:
        return tuple(self.entries[i][i] for i in range(min(self.rows, self._cols)))

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


def rank(M: ScalarMatrix) -> int:
    """The rank of M, by fraction-free elimination over Z[i] (Bareiss,
    Math. Comp. 22, 1968).

    :func:`cubelin.kernel.integer_pairs` first scales M by one common
    denominator, which keeps the rank.  Every division by the previous
    pivot is then exact, so a remainder is a bug and raises RuntimeError
    instead of guessing.
    """
    nrows, ncols = M.rows, M.cols
    pairs = integer_pairs([c for row in M.entries for c in row])
    are = [[re for re, _ in pairs[i * ncols : (i + 1) * ncols]] for i in range(nrows)]
    aim = [[im for _, im in pairs[i * ncols : (i + 1) * ncols]] for i in range(nrows)]
    row = 0
    prev_re, prev_im = 1, 0
    for col in range(ncols):
        if row == nrows:
            break
        for piv in range(row, nrows):
            if are[piv][col] or aim[piv][col]:
                break
        else:
            continue
        are[row], are[piv] = are[piv], are[row]
        aim[row], aim[piv] = aim[piv], aim[row]
        top_re, top_im = are[row], aim[row]
        p_re, p_im = top_re[col], top_im[col]
        unit = prev_re == 1 and prev_im == 0
        den = prev_re * prev_re + prev_im * prev_im
        for row_re, row_im in zip(are[row + 1 :], aim[row + 1 :]):
            f_re, f_im = row_re[col], row_im[col]
            for j in range(col + 1, ncols):
                # p * a - f * b, with a this row's entry and b the pivot row's
                a_re, a_im, b_re, b_im = row_re[j], row_im[j], top_re[j], top_im[j]
                nre = p_re * a_re - p_im * a_im - (f_re * b_re - f_im * b_im)
                nim = p_re * a_im + p_im * a_re - (f_re * b_im + f_im * b_re)
                if unit:
                    row_re[j], row_im[j] = nre, nim
                    continue
                qre = nre * prev_re + nim * prev_im
                qim = nim * prev_re - nre * prev_im
                if qre % den or qim % den:
                    raise RuntimeError("inexact division in fraction-free elimination")
                row_re[j], row_im[j] = qre // den, qim // den
            row_re[col] = row_im[col] = 0
        prev_re, prev_im = p_re, p_im
        row += 1
    return row


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
