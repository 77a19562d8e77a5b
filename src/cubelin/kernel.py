"""The integer certificate path, the one route to the trace condition.

The trace condition says that the Gram matrix A^T diag(a_ii) A vanishes.
That matrix is sum_i a_ii r_i^T r_i over the rows r_i of A, and each
term depends only on row i and its position (Druzkowski, Math. Ann. 264,
1983).  :func:`row_code` packs row i's term into one Python int, its
*row code*, so a matrix's trace condition and delta come from the sum of
its n row codes: :func:`certificate_ints` reads both off that sum.  The
search harness keeps one table of codes per row position, filled on
first use, and ``rank_bound_certificate`` in :mod:`cubelin.druzkowski`
packs its rows with the same routine.

Layout of a code, lowest bits first:

- n.bit_length() bits that count the rows with a_ii = 0: such a row's code
  is exactly 1, and no other row adds to them;
- the real parts of a_ii r_j r_k, one signed w-bit field for each (j, k),
  at field j + n k, then the imaginary parts in the same order.

The fields come from Kronecker substitution (Harvey, J. Symbolic Comput.
44, 2009): with R = sum_j r_j 2^(w j) and R' = sum_k r_k 2^(w n k), the
product R R' holds r_j r_k in field j + n k, so one row costs a few
big-int products.  Signed fields add exactly, and a sum is 0 only if every
field is 0 as long as no field reaches 2^w in absolute value.  A field of
one row is at most 4 m^3, with m the largest |part| of an entry, so
:func:`field_width` takes w = bit_length(4 n m^3) + 2 for n rows.

The rank is :func:`cubelin.linalg.rank`.  A matrix over Q(i) reaches both
through :func:`integer_pairs`, which multiplies every entry by one common
denominator L.  Scaling A by L keeps delta and the rank and multiplies the
Gram matrix by L^3, so no answer changes.  Tests cross-check the codes
against the Gram loop and a Q(i) Gram product, both kept in
``tests/helpers.py`` as references.  :class:`cubelin.invert.GZPair` reads
the same L: it decides a matrix A with denominators on L^2 A, which is
over Z[i] because L A is.

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


def field_width(n: int, pairs: Sequence[tuple[int, int]]) -> int:
    """The field width w for codes of n rows whose entries are among
    ``pairs``: every field of a sum of n codes stays below 2^(w-2) in
    absolute value, so the sum reads 0 above the count only if every
    field is 0."""
    m = max((abs(x) for pair in pairs for x in pair), default=0)
    return (4 * n * m ** 3).bit_length() + 2


def row_code(i: int, row: Sequence[tuple[int, int]], width: int) -> int:
    """The code of row i of an n x n Gaussian-integer matrix, given as its
    n (re, im) pairs, with fields of ``width`` bits."""
    n = len(row)
    are, aim = row[i]
    if not (are or aim):
        return 1
    # R and R', real and imaginary parts apart, by Horner's rule
    step = width * n
    rre = rim = sre = sim = 0
    for re, im in reversed(row):
        rre = (rre << width) + re
        rim = (rim << width) + im
        sre = (sre << step) + re
        sim = (sim << step) + im
    pre = rre * sre - rim * sim
    pim = rre * sim + rim * sre
    # a_ii R R': the real fields, then the imaginary ones n^2 fields higher
    packed = are * pre - aim * pim + (are * pim + aim * pre << step * n)
    return packed << n.bit_length()


def certificate_ints(n: int, codes: Sequence[int]) -> tuple[bool, int]:
    """(trace condition holds, delta) for an n x n Gaussian-integer matrix,
    given as its n row codes."""
    return certificate_ints_pure(n, codes)


def certificate_ints_pure(n: int, codes: Sequence[int]) -> tuple[bool, int]:
    """The pair of :func:`certificate_ints`, read off the sum of the codes."""
    total = sum(codes)
    low = n.bit_length()
    return total >> low == 0, total & ((1 << low) - 1)
