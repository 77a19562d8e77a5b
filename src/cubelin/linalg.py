"""Exact linear algebra over Q(i): rank and rank factorization.

Matrices are immutable tuples of tuples of :class:`GaussianRational`.
Everything here is exact.  One row reduction serves both functions:
fraction-free Gauss-Jordan elimination on the matrix scaled to Gaussian
integers.  :func:`rank` counts its pivots, and :func:`rank_factorization`
reads the reduced basis off its rows.  Each pivot is the first nonzero
entry in column order, which makes the factorization deterministic.

Degenerate shapes are first class: a 0 x m or n x 0 matrix keeps its
column count, and (n x 0) @ (0 x m) is the n x m zero matrix.  Rank-zero
factorizations rely on this.
"""

from __future__ import annotations

from fractions import Fraction

from .kernel import integer_pairs
from .scalars import GaussianRational, ONE, ZERO, _gaussian, parse_gaussian


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
        # row i is the sum of a_ik times row k of other, over nonzero a_ik
        out = []
        for row in self.entries:
            acc = [ZERO] * other._cols
            for a, other_row in zip(row, other.entries):
                if a:
                    for j, b in enumerate(other_row):
                        if b:
                            acc[j] = acc[j] + a * b
            out.append(tuple(acc))
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


def _eliminate(M: ScalarMatrix) -> tuple[list[int], list[list[int]], list[list[int]]]:
    """Fraction-free Gauss-Jordan elimination over Z[i] (Bareiss, Math.
    Comp. 22, 1968; Nakos, Turner and Williams, SIGSAM Bull. 31, 1997).

    :func:`cubelin.kernel.integer_pairs` first scales M by one common
    denominator, which keeps its rank and its RREF.  Each pivot is the
    first row, top to bottom, with a nonzero entry in the leftmost
    unresolved column, and every other row, above or below, is cleared in
    that column.  Returns the pivot columns and the reduced rows as real
    and imaginary integer parts.  Every division by the previous pivot is
    exact, so a remainder is a bug and raises RuntimeError instead of
    guessing; at the end every pivot entry equals the last pivot.
    """
    nrows, ncols = M.rows, M.cols
    pairs = integer_pairs([c for row in M.entries for c in row])
    are = [[re for re, _ in pairs[i * ncols : (i + 1) * ncols]] for i in range(nrows)]
    aim = [[im for _, im in pairs[i * ncols : (i + 1) * ncols]] for i in range(nrows)]
    pivots: list[int] = []
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
        for i, (row_re, row_im) in enumerate(zip(are, aim)):
            if i == row:
                continue
            f_re, f_im = row_re[col], row_im[col]
            # this row and the pivot row are both zero left of the start
            for j in range(pivots[i] if i < row else col, ncols):
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
        pivots.append(col)
        prev_re, prev_im = p_re, p_im
        row += 1
    return pivots, are, aim


def rank(M: ScalarMatrix) -> int:
    """The rank of M: the pivot count of :func:`_eliminate`."""
    return len(_eliminate(M)[0])


def _quotient(num: int, den: int) -> Fraction | int:
    # num / den (den > 0) as a stored part of a GaussianRational
    return num // den if num % den == 0 else Fraction(num, den)


def rank_factorization(M: ScalarMatrix) -> tuple[ScalarMatrix, ScalarMatrix]:
    """Write M (n x m, rank r) as B @ C with B n x r and C r x m.

    B collects the pivot columns of M itself; C is the nonzero rows of the
    RREF: the first r rows of :func:`_eliminate`, each divided by the last
    pivot d, which every pivot entry equals.  Both factors have full rank
    r, and B @ C == M exactly.
    """
    pivots, are, aim = _eliminate(M)
    r = len(pivots)
    B = ScalarMatrix._raw(tuple(tuple(row[j] for j in pivots) for row in M.entries), r)
    # (a + bi) / d == (a + bi) * conj(d) / |d|^2
    d_re, d_im = (are[0][pivots[0]], aim[0][pivots[0]]) if r else (1, 0)
    norm = d_re * d_re + d_im * d_im
    C = tuple(
        tuple(
            _gaussian(
                _quotient(a * d_re + b * d_im, norm), _quotient(b * d_re - a * d_im, norm)
            )
            for a, b in zip(row_re, row_im)
        )
        for row_re, row_im in zip(are[:r], aim[:r])
    )
    return B, ScalarMatrix._raw(C, M.cols)
