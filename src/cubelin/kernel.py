"""The integer certificate path, the one route to the trace condition.

The search harness evaluates the trace condition and delta on up to
millions of candidate matrices, and ``rank_bound_certificate`` in
:mod:`cubelin.druzkowski` takes them from here too.  This module computes
them over unbounded Python integers, the trace condition from the Gram
sums, to which only the rows with a_ii != 0 contribute; the other rows
are never sliced out of the flat input.  The rank is
:func:`cubelin.linalg.rank`, which scales its matrix with
:func:`integer_pairs` as well.

A matrix over Q(i) reaches it through :func:`integer_pairs`, which
multiplies every entry by one common denominator L.  Scaling A by L keeps
delta and the rank and multiplies the Gram matrix A^T diag(a_ii) A by L^3,
so no answer changes.  Tests cross-check the trace condition and delta
against a Q(i) Gram product kept in ``tests/helpers.py`` as the reference.
:class:`cubelin.invert.GZPair` reads the same L: it decides a matrix A
with denominators on L^2 A, which is over Z[i] because L A is.

:func:`certificate_ints` calls :func:`certificate_ints_pure`.  They stay
two distinct functions because the benchmark in ``cubench/`` traces each
as its own span, and its run metadata reads ``BACKEND``, which is always
"pure".
"""

from __future__ import annotations

import math
from typing import Sequence

from .scalars import GaussianRational

BACKEND = "pure"


def _common_denominator(values: Sequence[GaussianRational]) -> int:
    return math.lcm(*(part.denominator for c in values for part in (c.re, c.im)))


def integer_pairs(values: Sequence[GaussianRational]) -> list[tuple[int, int]]:
    """The (re, im) integers of each value times L, the lcm of every
    denominator among the values.

    One L serves all of them: a scale per entry would change the trace
    condition and the rank of a matrix built from the values.
    """
    scale = _common_denominator(values)
    return [
        (c.re.numerator * (scale // c.re.denominator),
         c.im.numerator * (scale // c.im.denominator))
        for c in values
    ]


def certificate_ints(n: int, flat: list[int]) -> tuple[bool, int]:
    """(trace condition holds, delta) for a Gaussian-integer matrix, given
    row-major as interleaved (re, im) integers."""
    return certificate_ints_pure(n, flat)


def certificate_ints_pure(n: int, flat: list[int]) -> tuple[bool, int]:
    """The pair of :func:`certificate_ints` over unbounded integers."""
    # (re row, im row, re a_ii, im a_ii) for each row with a_ii != 0; only
    # these rows enter the Gram sums, so only they are sliced
    diag = []
    width = 2 * n
    for i in range(n):
        lo = i * width
        dre = flat[lo + 2 * i]
        dim_ = flat[lo + 2 * i + 1]
        if dre or dim_:
            diag.append((flat[lo : lo + width : 2], flat[lo + 1 : lo + width : 2], dre, dim_))
    delta = n - len(diag)

    for j in range(n):
        for k in range(j, n):
            sre = 0
            sim = 0
            for r, s, dre, dim_ in diag:
                t1re = dre * r[j] - dim_ * s[j]
                t1im = dre * s[j] + dim_ * r[j]
                sre += t1re * r[k] - t1im * s[k]
                sim += t1re * s[k] + t1im * r[k]
            if sre or sim:
                return False, delta
    return True, delta
