"""The integer certificate path.

The search harness evaluates the (trace condition, delta, rank) triple on
up to millions of candidate matrices.  This module computes it over
unbounded Python integers: the trace condition from the Gram sums, and the
rank by fraction-free (Bareiss) elimination, whose every division is exact
and checked.

A matrix over Q(i) reaches it through :func:`integer_pairs`, which
multiplies every entry by one common denominator L.  Scaling A by L keeps
delta and the rank and multiplies the Gram matrix A^T diag(a_ii) A by L^3,
so the triple is unchanged; the harness has no other certificate route.
Tests cross-check it against the reference in :mod:`cubelin.druzkowski`,
which works on the int-or-Fraction parts of the entries directly.

The harness calls :func:`certificate_ints`, which calls
:func:`certificate_ints_pure`.  They stay two distinct functions because
the benchmark in ``cubench/`` traces each as its own span, and its run
metadata reads ``BACKEND``, which is always "pure".
"""

from __future__ import annotations

import math
from typing import Sequence

from .scalars import GaussianRational

BACKEND = "pure"


def integer_pairs(values: Sequence[GaussianRational]) -> list[tuple[int, int]]:
    """The (re, im) integers of each value times L, the lcm of every
    denominator among the values.

    One L serves all of them: a scale per entry would change the trace
    condition and the rank of a matrix built from the values.
    """
    scale = math.lcm(*(part.denominator for c in values for part in (c.re, c.im)))
    return [
        (c.re.numerator * (scale // c.re.denominator),
         c.im.numerator * (scale // c.im.denominator))
        for c in values
    ]


def certificate_ints(
    n: int, flat: list[int], need_rank: bool = True
) -> tuple[bool, int, int | None]:
    """(trace condition holds, delta, rank) for a Gaussian-integer matrix,
    given row-major as interleaved (re, im) integers.

    With ``need_rank`` false the rank is computed only when the trace
    condition holds, the one case in which the rank bound says anything;
    otherwise it is None.
    """
    return certificate_ints_pure(n, flat, need_rank)


def certificate_ints_pure(
    n: int, flat: list[int], need_rank: bool = True
) -> tuple[bool, int, int | None]:
    """The triple of :func:`certificate_ints` over unbounded integers."""
    are = [flat[2 * i * n : 2 * (i + 1) * n : 2] for i in range(n)]
    aim = [flat[2 * i * n + 1 : 2 * (i + 1) * n : 2] for i in range(n)]
    # (re row, im row, re a_ii, im a_ii) for each row with a_ii != 0
    diag = [
        (r, s, r[i], s[i]) for i, (r, s) in enumerate(zip(are, aim)) if r[i] or s[i]
    ]
    delta = n - len(diag)

    holds = True
    for j in range(n):
        if not holds:
            break
        for k in range(j, n):
            sre = 0
            sim = 0
            for r, s, dre, dim_ in diag:
                t1re = dre * r[j] - dim_ * s[j]
                t1im = dre * s[j] + dim_ * r[j]
                sre += t1re * r[k] - t1im * s[k]
                sim += t1re * s[k] + t1im * r[k]
            if sre or sim:
                holds = False
                break
    if not (holds or need_rank):
        return holds, delta, None

    # fraction-free elimination: every division by the previous pivot is
    # exact, so a remainder is a bug and raises instead of guessing
    rank_ = 0
    row = 0
    prev_re, prev_im = 1, 0
    for col in range(n):
        if row == n:
            break
        piv = -1
        for i in range(row, n):
            if are[i][col] or aim[i][col]:
                piv = i
                break
        if piv < 0:
            continue
        if piv != row:
            are[row], are[piv] = are[piv], are[row]
            aim[row], aim[piv] = aim[piv], aim[row]
        p_re = are[row][col]
        p_im = aim[row][col]
        den = prev_re * prev_re + prev_im * prev_im
        for i in range(row + 1, n):
            f_re = are[i][col]
            f_im = aim[i][col]
            for j in range(col + 1, n):
                nre = (p_re * are[i][j] - p_im * aim[i][j]) - (
                    f_re * are[row][j] - f_im * aim[row][j]
                )
                nim = (p_re * aim[i][j] + p_im * are[i][j]) - (
                    f_re * aim[row][j] + f_im * are[row][j]
                )
                if prev_re == 1 and prev_im == 0:
                    are[i][j] = nre
                    aim[i][j] = nim
                else:
                    qre_num = nre * prev_re + nim * prev_im
                    qim_num = nim * prev_re - nre * prev_im
                    if qre_num % den or qim_num % den:
                        raise RuntimeError(
                            "inexact division in fraction-free elimination"
                        )
                    are[i][j] = qre_num // den
                    aim[i][j] = qim_num // den
            are[i][col] = 0
            aim[i][col] = 0
        prev_re, prev_im = p_re, p_im
        rank_ += 1
        row += 1

    return holds, delta, rank_

